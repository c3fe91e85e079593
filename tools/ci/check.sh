#!/usr/bin/env bash
# tools/ci/check.sh -- build and test the full correctness matrix.
#
# Legs (each: configure + build + ctest, warnings-as-errors everywhere):
#   default  Release, invariants compiled out (the shipping configuration);
#            observability is ON by default, so this leg also runs test_obs
#            with the instrumentation compiled in
#   checked  Release + DARNET_CHECKED=ON (invariants active at full speed)
#   asan     Debug + AddressSanitizer  (checked: Debug defaults CHECKED=ON)
#   ubsan    Debug + UndefinedBehaviorSanitizer, -fno-sanitize-recover
#   tsan     Debug + ThreadSanitizer (the parallel:: subsystem gate)
#   obs-off  Release + DARNET_OBS=OFF (macros compile to unevaluated no-ops;
#            proves the tree builds and all tests -- including the bit-parity
#            goldens -- pass without the instrumentation)
#   serve    serving-tier smoke: build examples/serve_demo (Release,
#            observability on) and run it with DARNET_OBS_DUMP set,
#            asserting it exits 0 and writes a non-empty metrics.json --
#            the end-to-end proof that the serve/* instrumentation flows
#   sim-smoke
#            fleet-simulator smoke: build tools/sim/fleet_simulator
#            (Release, observability on) and run the steady scenario at
#            100 sessions with DARNET_OBS_DUMP set, asserting exit 0, a
#            non-empty deterministic metrics export, and sim/* + serve/*
#            names in the registry snapshot -- the end-to-end proof that
#            the simulated fleet drives the production serving stack
#            (docs/SIMULATION.md). Then build bench_fleet, regenerate
#            BENCH_fleet.json at its recorded scale and cmp it with the
#            checked-in file: every number in it is simulated time, so
#            any byte of difference is a behaviour change
#   sync-stress
#            concurrency-correctness stress: Debug + ThreadSanitizer with
#            DARNET_CHECKED=ON explicit, building only the lock-heavy
#            suites (test_sync, test_serve, test_parallel) and repeating
#            them until-fail:2 -- the lock-order graph, held-lock stack
#            and CV watchdog run under tsan at the same time
#   analyze  the one static gate: build darnet_analyze alone (Release)
#            and run it over the tree in --format=json mode -- per-file
#            rules, doc-drift contracts and cross-file semantic rules in
#            one pass. The leg is green only when the analyzer reports
#            zero findings outside the baseline (which holds semantic
#            findings only); a baseline suppression whose finding has been
#            fixed trips the stale-baseline rule and turns the leg red, so
#            the baseline can only shrink to match the tree. Wall-clock
#            seconds land in check_summary.json like every other leg;
#            the analyzer run itself is gated at < 10s (measured ~80ms
#            -- see EXPERIMENTS.md and BENCH_analyze.json) and its own
#            seconds land as top-level "analyze_run_seconds", so the
#            leg's time is otherwise all build.
#   bench-smoke
#            build EVERY bench target (Release, observability on) and run
#            each binary once in its cheapest configuration, so a kernel
#            or API refactor cannot silently break the bench tree between
#            evidence refreshes. The google-benchmark harnesses run with
#            --benchmark_min_time=0.01 (the installed benchmark release
#            predates the "1x" iteration syntax, so a small wall-clock
#            bound is the portable one-iteration ask) and must exit 0.
#            The experiment harnesses run at tiny argv scales; their
#            qualitative paper gates are only meaningful at the full
#            scales recorded in EXPERIMENTS.md, so smoke accepts exit 0
#            (gate met) or 1 (gate missed at smoke scale) and fails on
#            anything else -- crashes, sanity aborts (exit >= 2), signals.
#
# Usage:
#   tools/ci/check.sh                # run every leg
#   tools/ci/check.sh checked ubsan  # run a subset
#   JOBS=4 tools/ci/check.sh         # override build parallelism
#
# Exits nonzero if ANY leg fails to configure, build, or pass its tests.
# Besides the human-readable "=== matrix summary ===", the script writes
# ${BUILD_ROOT}/check_summary.json: one entry per requested leg with
# status (pass/fail), the failing stage if any, and wall-clock seconds.

set -u

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
BUILD_ROOT="${BUILD_ROOT:-${ROOT}/build-matrix}"

ALL_LEGS=(default checked asan ubsan tsan obs-off serve sim-smoke
          http-smoke sync-stress analyze bench-smoke)
LEGS=("$@")
if [ "${#LEGS[@]}" -eq 0 ]; then
  LEGS=("${ALL_LEGS[@]}")
fi

FAILED=()
PASSED=()
declare -A LEG_SECONDS
# Wall-time budget for the analyzer binary itself (not the leg's build);
# the measured run is ~0.08s, so tripping this means something regressed
# by two orders of magnitude. Seconds land in check_summary.json.
ANALYZE_BUDGET_S=10
ANALYZE_RUN_SECONDS=""

run_leg() {
  leg_name="$1"
  shift
  leg_dir="${BUILD_ROOT}/${leg_name}"
  echo
  echo "=== [${leg_name}] configure ==="
  if ! cmake -B "${leg_dir}" -S "${ROOT}" -DDARNET_WERROR=ON "$@"; then
    FAILED+=("${leg_name} (configure)")
    return 1
  fi
  echo "=== [${leg_name}] build (-j${JOBS}) ==="
  if ! cmake --build "${leg_dir}" -j "${JOBS}"; then
    FAILED+=("${leg_name} (build)")
    return 1
  fi
  echo "=== [${leg_name}] test ==="
  if ! ctest --test-dir "${leg_dir}" --output-on-failure; then
    FAILED+=("${leg_name} (test)")
    return 1
  fi
  PASSED+=("${leg_name}")
  return 0
}

# Serving-tier smoke leg: no ctest run -- build serve_demo in a Release +
# observability configuration, run it with DARNET_OBS_DUMP, and assert the
# demo succeeds and the metrics snapshot it dumps is non-empty.
run_serve_smoke() {
  leg_dir="${BUILD_ROOT}/serve"
  echo
  echo "=== [serve] configure ==="
  if ! cmake -B "${leg_dir}" -S "${ROOT}" -DDARNET_WERROR=ON \
       -DCMAKE_BUILD_TYPE=Release -DDARNET_OBS=ON; then
    FAILED+=("serve (configure)")
    return 1
  fi
  echo "=== [serve] build serve_demo (-j${JOBS}) ==="
  if ! cmake --build "${leg_dir}" -j "${JOBS}" --target serve_demo; then
    FAILED+=("serve (build)")
    return 1
  fi
  echo "=== [serve] smoke ==="
  obs_dir="$(mktemp -d)"
  if ! DARNET_OBS_DUMP="${obs_dir}" "${leg_dir}/examples/serve_demo"; then
    echo "serve_demo exited nonzero" >&2
    rm -rf "${obs_dir}"
    FAILED+=("serve (smoke)")
    return 1
  fi
  if ! [ -s "${obs_dir}/metrics.json" ]; then
    echo "serve_demo did not write a non-empty ${obs_dir}/metrics.json" >&2
    rm -rf "${obs_dir}"
    FAILED+=("serve (smoke: metrics.json)")
    return 1
  fi
  if ! grep -q 'serve/' "${obs_dir}/metrics.json"; then
    echo "metrics.json contains no serve/* names" >&2
    rm -rf "${obs_dir}"
    FAILED+=("serve (smoke: serve/* metrics)")
    return 1
  fi
  rm -rf "${obs_dir}"
  PASSED+=("serve")
  return 0
}

# sim-smoke leg: the fleet simulator end to end. Build fleet_simulator in
# a Release + observability configuration, run the steady scenario at 100
# sessions, and assert it exits 0, writes a non-empty metrics export, and
# pushes sim/* and serve/* names through the obs registry. Then pin the
# evidence file: bench_fleet at 10000 sessions must reproduce the
# checked-in BENCH_fleet.json byte for byte (EXPERIMENTS.md "Fleet
# simulation").
run_sim_smoke() {
  leg_dir="${BUILD_ROOT}/sim-smoke"
  echo
  echo "=== [sim-smoke] configure ==="
  if ! cmake -B "${leg_dir}" -S "${ROOT}" -DDARNET_WERROR=ON \
       -DCMAKE_BUILD_TYPE=Release -DDARNET_OBS=ON; then
    FAILED+=("sim-smoke (configure)")
    return 1
  fi
  echo "=== [sim-smoke] build fleet_simulator + bench_fleet (-j${JOBS}) ==="
  if ! cmake --build "${leg_dir}" -j "${JOBS}" --target fleet_simulator \
       --target bench_fleet; then
    FAILED+=("sim-smoke (build)")
    return 1
  fi
  echo "=== [sim-smoke] smoke ==="
  sim_dir="$(mktemp -d)"
  if ! DARNET_OBS_DUMP="${sim_dir}" \
       "${leg_dir}/tools/sim/fleet_simulator" --scenario=steady \
       --sessions=100 --out="${sim_dir}/fleet.json"; then
    echo "fleet_simulator exited nonzero" >&2
    rm -rf "${sim_dir}"
    FAILED+=("sim-smoke (run)")
    return 1
  fi
  if ! [ -s "${sim_dir}/fleet.json" ]; then
    echo "fleet_simulator wrote no metrics export" >&2
    rm -rf "${sim_dir}"
    FAILED+=("sim-smoke (metrics export)")
    return 1
  fi
  if ! grep -q '"latency_ms"' "${sim_dir}/fleet.json"; then
    echo "fleet.json has no latency_ms section" >&2
    rm -rf "${sim_dir}"
    FAILED+=("sim-smoke (metrics export)")
    return 1
  fi
  if ! grep -q 'sim/' "${sim_dir}/metrics.json" || \
     ! grep -q 'serve/' "${sim_dir}/metrics.json"; then
    echo "obs registry snapshot lacks sim/* or serve/* names" >&2
    rm -rf "${sim_dir}"
    FAILED+=("sim-smoke (obs registry)")
    return 1
  fi
  echo "=== [sim-smoke] BENCH_fleet.json reproduces byte for byte ==="
  if ! "${leg_dir}/bench/bench_fleet" 10000 "${sim_dir}/BENCH_fleet.json"; then
    echo "bench_fleet exited nonzero" >&2
    rm -rf "${sim_dir}"
    FAILED+=("sim-smoke (bench_fleet)")
    return 1
  fi
  if ! cmp "${sim_dir}/BENCH_fleet.json" "${ROOT}/BENCH_fleet.json"; then
    echo "regenerated BENCH_fleet.json differs from the checked-in file" \
         "(a same-seed diff is a behaviour change, EXPERIMENTS.md)" >&2
    rm -rf "${sim_dir}"
    FAILED+=("sim-smoke (BENCH_fleet.json drift)")
    return 1
  fi
  rm -rf "${sim_dir}"
  PASSED+=("sim-smoke")
  return 0
}

# http-smoke leg: the HTTP edge end to end over real loopback TCP. Build
# http_demo in a Release + observability configuration and run it: the
# demo boots a 2-shard Router behind http::Edge on an ephemeral port and
# drives /healthz, /classify (with a mid-traffic snapshot hot swap and a
# quota 429) and /metrics with the in-repo client, exiting nonzero on any
# miss. The leg additionally asserts the /metrics body the demo prints
# carries the documented http/* and route/* rows.
run_http_smoke() {
  leg_dir="${BUILD_ROOT}/http-smoke"
  echo
  echo "=== [http-smoke] configure ==="
  if ! cmake -B "${leg_dir}" -S "${ROOT}" -DDARNET_WERROR=ON \
       -DCMAKE_BUILD_TYPE=Release -DDARNET_OBS=ON; then
    FAILED+=("http-smoke (configure)")
    return 1
  fi
  echo "=== [http-smoke] build http_demo (-j${JOBS}) ==="
  if ! cmake --build "${leg_dir}" -j "${JOBS}" --target http_demo; then
    FAILED+=("http-smoke (build)")
    return 1
  fi
  echo "=== [http-smoke] smoke ==="
  http_log="$(mktemp)"
  if ! "${leg_dir}/examples/http_demo" > "${http_log}" 2>&1; then
    cat "${http_log}"
    echo "http_demo exited nonzero" >&2
    rm -f "${http_log}"
    FAILED+=("http-smoke (run)")
    return 1
  fi
  cat "${http_log}"
  if ! grep -q 'http/requests_total' "${http_log}" || \
     ! grep -q 'route/requests_routed_total' "${http_log}"; then
    echo "http_demo /metrics body lacks http/* or route/* rows" >&2
    rm -f "${http_log}"
    FAILED+=("http-smoke (obs registry)")
    return 1
  fi
  rm -f "${http_log}"
  PASSED+=("http-smoke")
  return 0
}

# bench-smoke leg: the bench tree must build and every harness must run
# end to end. Experiment harnesses take their cheapest argv scale and may
# miss their full-scale qualitative gates (exit 1); anything beyond that
# (exit >= 2, crash, signal) fails the leg.
run_bench_smoke() {
  leg_dir="${BUILD_ROOT}/bench-smoke"
  echo
  echo "=== [bench-smoke] configure ==="
  if ! cmake -B "${leg_dir}" -S "${ROOT}" -DDARNET_WERROR=ON \
       -DCMAKE_BUILD_TYPE=Release -DDARNET_OBS=ON; then
    FAILED+=("bench-smoke (configure)")
    return 1
  fi
  # Every add_executable under bench/ -- new harnesses are picked up
  # automatically, so the leg cannot silently go stale.
  bench_targets="$(sed -n \
      's/^\(darnet_bench(\|add_executable(\)\(bench_[a-z0-9_]*\).*/\2/p' \
      "${ROOT}/bench/CMakeLists.txt" | sort -u)"
  if [ -z "${bench_targets}" ]; then
    echo "bench-smoke: no bench targets found in bench/CMakeLists.txt" >&2
    FAILED+=("bench-smoke (target discovery)")
    return 1
  fi
  echo "=== [bench-smoke] build all bench targets (-j${JOBS}) ==="
  # shellcheck disable=SC2086  # word splitting over target names intended
  if ! cmake --build "${leg_dir}" -j "${JOBS}" \
       $(printf -- '--target %s ' ${bench_targets}); then
    FAILED+=("bench-smoke (build)")
    return 1
  fi
  echo "=== [bench-smoke] run each harness once ==="
  smoke_bad=0
  for target in ${bench_targets}; do
    bin="${leg_dir}/bench/${target}"
    case "${target}" in
      # google-benchmark harnesses: no qualitative gate, must exit 0.
      bench_perf_micro|bench_obs_overhead)
        args="--benchmark_min_time=0.01"
        ok_status="0" ;;
      # Experiment harnesses: cheapest argv scale; gate miss (1) is fine.
      bench_table1_dataset)      args="0.01";  ok_status="0 1" ;;
      bench_table2_ensemble)     args="0.01";  ok_status="0 1" ;;
      bench_fig5_confusion)      args="0.01";  ok_status="0 1" ;;
      bench_imu_models)          args="40";    ok_status="0 1" ;;
      bench_table3_dcnn)         args="6";     ok_status="0 1" ;;
      bench_fig12_pipeline)      args="0.005"; ok_status="0 1" ;;
      bench_fig3_privacy_paths)  args="20";    ok_status="0 1" ;;
      bench_ablation_combiner)   args="0.01";  ok_status="0 1" ;;
      bench_ablation_smoothing)  args="30";    ok_status="0 1" ;;
      bench_ablation_distortion) args="5";     ok_status="0 1" ;;
      bench_ablation_drivers)    args="0.01";  ok_status="0 1" ;;
      bench_ablation_pretrain)   args="0.002"; ok_status="0 1" ;;
      bench_ext_multimodal)      args="0.01";  ok_status="0 1" ;;
      # Fleet simulator sweep: 10 sessions max, JSON to /dev/null; the
      # determinism + shape gates must hold even at smoke scale.
      bench_fleet)               args="10 /dev/null"; ok_status="0" ;;
      # Analyzer budget bench: full tree, JSON to /dev/null; the budget,
      # determinism and shape gates must hold on every machine.
      bench_analyze)             args="${ROOT} /dev/null"; ok_status="0" ;;
      *)                         args="";      ok_status="0 1" ;;
    esac
    # shellcheck disable=SC2086
    "${bin}" ${args} > /dev/null 2>&1
    status=$?
    case " ${ok_status} " in
      *" ${status} "*)
        echo "  ${target}: ok (exit ${status})" ;;
      *)
        echo "  ${target}: FAILED (exit ${status})" >&2
        smoke_bad=1 ;;
    esac
  done
  if [ "${smoke_bad}" -ne 0 ]; then
    FAILED+=("bench-smoke (run)")
    return 1
  fi
  PASSED+=("bench-smoke")
  return 0
}

# analyze leg: the repo's one static checker as a CI gate. Builds only
# the darnet_analyze binary and runs it over the tree in JSON mode with
# the checked-in baseline applied. Exit 0 means zero findings outside the
# baseline AND zero stale suppressions (the default run fails on both).
run_analyze() {
  leg_dir="${BUILD_ROOT}/analyze"
  echo
  echo "=== [analyze] configure ==="
  if ! cmake -B "${leg_dir}" -S "${ROOT}" -DDARNET_WERROR=ON \
       -DCMAKE_BUILD_TYPE=Release; then
    FAILED+=("analyze (configure)")
    return 1
  fi
  echo "=== [analyze] build darnet_analyze (-j${JOBS}) ==="
  if ! cmake --build "${leg_dir}" -j "${JOBS}" --target darnet_analyze; then
    FAILED+=("analyze (build)")
    return 1
  fi
  echo "=== [analyze] run ==="
  out="${leg_dir}/analyze_findings.json"
  t0=$(date +%s%N)
  rc=0
  "${leg_dir}/tools/analyze/darnet_analyze" "${ROOT}" --format=json \
      > "${out}" || rc=$?
  t1=$(date +%s%N)
  analyze_ms=$(( (t1 - t0) / 1000000 ))
  ANALYZE_RUN_SECONDS=$(printf '%d.%03d' $((analyze_ms / 1000)) \
                               $((analyze_ms % 1000)))
  echo "analyzer wall time: ${ANALYZE_RUN_SECONDS}s (budget ${ANALYZE_BUDGET_S}s)"
  if [ "${rc}" -ne 0 ]; then
    echo "darnet_analyze reported findings (JSON mirrored to ${out}):" >&2
    cat "${out}" >&2
    FAILED+=("analyze (findings)")
    return 1
  fi
  if [ "${analyze_ms}" -gt $((ANALYZE_BUDGET_S * 1000)) ]; then
    echo "analyzer run took ${ANALYZE_RUN_SECONDS}s, over the" \
         "${ANALYZE_BUDGET_S}s budget (docs/STATIC_ANALYSIS.md:" \
         "shard the index_dirs walk before touching rule logic)" >&2
    FAILED+=("analyze (budget)")
    return 1
  fi
  PASSED+=("analyze")
  return 0
}

# sync-stress leg: tsan + checked invariants on the lock-heavy suites
# only, repeated so rare interleavings (teardown races, CV handoffs) get
# more than one chance to bite.
run_sync_stress() {
  leg_dir="${BUILD_ROOT}/sync-stress"
  echo
  echo "=== [sync-stress] configure ==="
  if ! cmake -B "${leg_dir}" -S "${ROOT}" -DDARNET_WERROR=ON \
       -DCMAKE_BUILD_TYPE=Debug -DDARNET_SANITIZE=thread \
       -DDARNET_CHECKED=ON; then
    FAILED+=("sync-stress (configure)")
    return 1
  fi
  echo "=== [sync-stress] build (-j${JOBS}) ==="
  if ! cmake --build "${leg_dir}" -j "${JOBS}" \
       --target test_sync --target test_serve --target test_parallel; then
    FAILED+=("sync-stress (build)")
    return 1
  fi
  echo "=== [sync-stress] stress ==="
  if ! ctest --test-dir "${leg_dir}" --output-on-failure \
       -R '^(test_sync|test_serve|test_parallel)$' \
       --repeat until-fail:2; then
    FAILED+=("sync-stress (test)")
    return 1
  fi
  PASSED+=("sync-stress")
  return 0
}

for leg in "${LEGS[@]}"; do
  leg_start=${SECONDS}
  case "${leg}" in
    default)
      run_leg default -DCMAKE_BUILD_TYPE=Release -DDARNET_CHECKED=OFF
      ;;
    checked)
      run_leg checked -DCMAKE_BUILD_TYPE=Release -DDARNET_CHECKED=ON
      ;;
    asan)
      run_leg asan -DCMAKE_BUILD_TYPE=Debug -DDARNET_SANITIZE=address
      ;;
    ubsan)
      run_leg ubsan -DCMAKE_BUILD_TYPE=Debug -DDARNET_SANITIZE=undefined
      ;;
    tsan)
      run_leg tsan -DCMAKE_BUILD_TYPE=Debug -DDARNET_SANITIZE=thread
      ;;
    obs-off)
      run_leg obs-off -DCMAKE_BUILD_TYPE=Release -DDARNET_OBS=OFF
      ;;
    serve)
      run_serve_smoke
      ;;
    sim-smoke)
      run_sim_smoke
      ;;
    http-smoke)
      run_http_smoke
      ;;
    sync-stress)
      run_sync_stress
      ;;
    analyze)
      run_analyze
      ;;
    bench-smoke)
      run_bench_smoke
      ;;
    *)
      echo "check.sh: unknown leg '${leg}'" \
           "(expected: ${ALL_LEGS[*]})" >&2
      exit 2
      ;;
  esac
  LEG_SECONDS["${leg}"]=$((SECONDS - leg_start))
done

echo
echo "=== matrix summary ==="
for leg in "${PASSED[@]+"${PASSED[@]}"}"; do
  echo "  PASS ${leg} (${LEG_SECONDS[${leg}]:-0}s)"
done
for leg in "${FAILED[@]+"${FAILED[@]}"}"; do
  echo "  FAIL ${leg}"
done

# Machine-readable mirror of the matrix summary.
write_summary_json() {
  summary="${BUILD_ROOT}/check_summary.json"
  mkdir -p "${BUILD_ROOT}"
  {
    echo '{'
    echo '  "legs": ['
    first=1
    for leg in "${LEGS[@]}"; do
      status="fail"
      stage=""
      for p in "${PASSED[@]+"${PASSED[@]}"}"; do
        [ "${p}" = "${leg}" ] && status="pass"
      done
      for f in "${FAILED[@]+"${FAILED[@]}"}"; do
        case "${f}" in
          "${leg} ("*)
            stage="${f#"${leg} ("}"
            stage="${stage%)}"
            ;;
        esac
      done
      [ "${first}" -eq 0 ] && printf ',\n'
      first=0
      printf '    {"leg": "%s", "status": "%s", "wall_seconds": %d' \
             "${leg}" "${status}" "${LEG_SECONDS[${leg}]:-0}"
      if [ -n "${stage}" ]; then
        printf ', "stage": "%s"' "${stage}"
      fi
      printf '}'
    done
    printf '\n  ],\n'
    if [ -n "${ANALYZE_RUN_SECONDS}" ]; then
      printf '  "analyze_run_seconds": %s,\n' "${ANALYZE_RUN_SECONDS}"
    fi
    if [ "${#FAILED[@]}" -eq 0 ]; then
      echo '  "all_green": true'
    else
      echo '  "all_green": false'
    fi
    echo '}'
  } > "${summary}"
  echo "wrote ${summary}"
}
write_summary_json

if [ "${#FAILED[@]}" -ne 0 ]; then
  exit 1
fi
echo "all legs green"
