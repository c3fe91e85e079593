#!/usr/bin/env bash
# darnet_analyze self-test: one minimal pass/fail mini-tree per analyzer rule.
#
# Layout: tests/analyze_fixtures/<rule>/{pass,fail}/ -- each mode directory
# is a complete analysis root (it contains src/, its own docs/ where a
# doc-drift rule needs one, and its own tools/analyze/analyze_baseline.json
# where the rule exercises baseline handling). Every rule runs over every
# tree: a fail tree must make darnet_analyze exit 1 with at least one
# finding tagged [<rule>] carrying file:line attribution; a pass tree must
# analyze completely clean. This pins down every rule's trigger *and* its
# sanctioned alternative, so analyzer refactors cannot silently widen or
# narrow a rule.
#
# A mode directory may also carry an expect.grep file: every non-empty line
# must appear verbatim (fixed-string grep) in the analyzer output. This pins
# exact message contracts, e.g. that stale-baseline reports the copy-paste
# (rule, file, symbol) entry key.
#
# The optional third operand is a comma-separated list of rule kinds, as
# `darnet_analyze --list` prints them (per-file, doc, semantic, report): only
# the fixture directories of rules of those kinds run. A directory that names
# no catalogued rule fails the run whatever the selection, so splitting the
# cases over several invocations cannot drop one silently.
#
# Usage: run_fixtures.sh <darnet_analyze-binary> <fixtures-dir> [kinds]
set -u

USAGE="usage: run_fixtures.sh <darnet_analyze> <fixtures_dir> [kinds]"
ANALYZE="${1:?$USAGE}"
FIXTURES="${2:?$USAGE}"
KINDS="${3:-}"

if [ ! -x "$ANALYZE" ]; then
  echo "run_fixtures: analyzer binary '$ANALYZE' is not executable" >&2
  exit 2
fi
catalogue="$("$ANALYZE" --list)" || {
  echo "run_fixtures: '$ANALYZE --list' failed" >&2
  exit 2
}

failures=0
cases=0

for rule_dir in "$FIXTURES"/*/; do
  [ -d "$rule_dir" ] || continue
  rule="$(basename "$rule_dir")"
  kind="$(printf '%s\n' "$catalogue" | awk -v r="$rule" '$1 == r { print $2 }')"
  if [ -z "$kind" ]; then
    echo "FIXTURE FAIL: $rule/ names no rule in '$ANALYZE --list'" >&2
    failures=$((failures + 1))
    continue
  fi
  case ",$KINDS," in
    ,,|*",$kind,"*) ;;
    *) continue ;;
  esac
  for mode in pass fail; do
    root="$rule_dir$mode"
    [ -d "$root" ] || continue
    cases=$((cases + 1))
    out="$("$ANALYZE" "$root" 2>&1)"
    status=$?
    if [ "$mode" = pass ]; then
      if [ "$status" -ne 0 ]; then
        echo "FIXTURE FAIL: $rule/pass must analyze clean (exit $status):" >&2
        echo "$out" >&2
        failures=$((failures + 1))
      fi
    else
      if [ "$status" -ne 1 ]; then
        echo "FIXTURE FAIL: $rule/fail must exit 1 (got $status):" >&2
        echo "$out" >&2
        failures=$((failures + 1))
      elif ! printf '%s' "$out" | grep -q "\[$rule\]"; then
        echo "FIXTURE FAIL: $rule/fail findings lack a [$rule] tag:" >&2
        echo "$out" >&2
        failures=$((failures + 1))
      elif ! printf '%s' "$out" | grep -Eq "[^ ]+:[0-9]+: \[$rule\]"; then
        echo "FIXTURE FAIL: $rule/fail findings lack file:line attribution:" >&2
        echo "$out" >&2
        failures=$((failures + 1))
      fi
    fi
    if [ -f "$root/expect.grep" ]; then
      while IFS= read -r want; do
        [ -n "$want" ] || continue
        if ! printf '%s' "$out" | grep -qF -- "$want"; then
          echo "FIXTURE FAIL: $rule/$mode output lacks expected text: $want" >&2
          echo "$out" >&2
          failures=$((failures + 1))
        fi
      done < "$root/expect.grep"
    fi
  done
done

if [ "$cases" -eq 0 ]; then
  echo "run_fixtures: no fixture cases found under $FIXTURES${KINDS:+ for kinds $KINDS}" >&2
  exit 2
fi
if [ "$failures" -ne 0 ]; then
  echo "run_fixtures: $failures of $cases fixture case(s) failed" >&2
  exit 1
fi
echo "run_fixtures: $cases fixture case(s) ok"
