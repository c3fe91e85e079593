#!/usr/bin/env bash
# The tree must be clean under every rule the baseline cannot suppress --
# per-file, doc-drift and report rules -- with no baseline at all.
#
# darnet_analyze runs over <repo_root> with an empty baseline, so the
# reviewed semantic findings of tools/analyze/analyze_baseline.json come
# back; they are the only findings allowed here. Any finding tagged with a
# rule of another kind (per `darnet_analyze --list`) fails the check. This
# pins, on the real tree, that the non-semantic rules pass without any help
# from the baseline, whatever the baseline holds.
#
# Usage: check_unbaselined.sh <darnet_analyze-binary> <repo_root>
set -u

USAGE="usage: check_unbaselined.sh <darnet_analyze> <repo_root>"
ANALYZE="${1:?$USAGE}"
ROOT="${2:?$USAGE}"

catalogue="$("$ANALYZE" --list)" || {
  echo "check_unbaselined: '$ANALYZE --list' failed" >&2
  exit 2
}
empty="$(mktemp)" || exit 2
trap 'rm -f "$empty"' EXIT
printf '{}\n' > "$empty"

out="$("$ANALYZE" "$ROOT" --baseline="$empty" 2>&1)"
status=$?
if [ "$status" -gt 1 ]; then
  echo "check_unbaselined: darnet_analyze failed (exit $status):" >&2
  echo "$out" >&2
  exit 2
fi

failures=0
semantic=0
while IFS= read -r line; do
  rule="$(printf '%s' "$line" | sed -E 's/^[^ ]+:[0-9]+: \[([^]]+)\].*/\1/')"
  kind="$(printf '%s\n' "$catalogue" | awk -v r="$rule" '$1 == r { print $2 }')"
  if [ "$kind" = semantic ]; then
    semantic=$((semantic + 1))
  else
    echo "UNBASELINED FAIL: $line" >&2
    failures=$((failures + 1))
  fi
done < <(printf '%s\n' "$out" | grep -E '^[^ ]+:[0-9]+: \[[^]]+\]')

if [ "$failures" -ne 0 ]; then
  echo "check_unbaselined: $failures non-semantic finding(s)" >&2
  exit 1
fi
echo "check_unbaselined: per-file, doc and report rules clean;" \
     "$semantic semantic finding(s) left to the baseline"
