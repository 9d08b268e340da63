#!/usr/bin/env bash
# Build + test, then rebuild with ThreadSanitizer and re-run the tests that
# drive the fault-parallel execution layer — the race detector must be clean
# on the new parallel paths — and with UBSan over the wide SIMD kernels
# (alignment, shifts, aliasing in the multi-word lane code).
#
#   tools/check.sh              # full check (plain build + full ctest +
#                               # width sweep + TSan + UBSan)
#   tools/check.sh --tsan-only  # only the TSan build + concurrency tests
#   tools/check.sh --coverage   # only the gcov build + line-floor check on
#                               # src/fault and src/core (opt-in; slow -O0)
#
# Extra arguments after the flags are passed to both cmake configure steps.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

TSAN_ONLY=0
if [[ "${1:-}" == "--tsan-only" ]]; then
  TSAN_ONLY=1
  shift
fi

if [[ "${1:-}" == "--coverage" ]]; then
  shift
  # Line floors, percent.  Raise them as tests grow; never lower them to make
  # a regression pass.
  FAULT_FLOOR=85
  CORE_FLOOR=75
  cmake -B build-cov -S . -DFSCT_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug "$@"
  COV_TESTS=(fault_test dominance_test seq_fault_sim_test comb_fault_sim_test
             classify_test classify_multichain_test chain_reorder_test
             grouping_test reduced_atpg_test pipeline_test
             pipeline_options_test compaction_test diagnose_test
             test_export_test selfcheck_test report_test obs_test
             profile_test json_test parallel_test bench_harness_test)
  cmake --build build-cov -j --target "${COV_TESTS[@]}"
  for t in "${COV_TESTS[@]}"; do
    "./build-cov/tests/$t" --gtest_brief=1
  done
  COV_TMP="$(mktemp -d)"
  trap 'rm -rf "$COV_TMP"' EXIT
  (
    cd "$COV_TMP"
    find "$ROOT/build-cov/src/fault" "$ROOT/build-cov/src/core" \
      -name '*.gcda' -exec gcov {} + > /dev/null
  )
  python3 - "$COV_TMP" "$FAULT_FLOOR" "$CORE_FLOOR" <<'EOF'
import glob, os, sys
scratch, fault_floor, core_floor = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
floors = {"src/fault": fault_floor, "src/core": core_floor}
groups = {g: [0, 0] for g in floors}  # group -> [executable lines, hit lines]
for path in glob.glob(os.path.join(scratch, "*.gcov")):
    group = None
    with open(path) as f:
        for line in f:
            parts = line.split(":", 2)
            if len(parts) < 3:
                continue
            count, lineno = parts[0].strip(), parts[1].strip()
            if lineno == "0":
                if parts[2].startswith("Source:"):
                    src = parts[2][len("Source:"):].strip()
                    # Library .cpp files only: each is compiled exactly once,
                    # so same-named .gcov outputs never clobber real counts
                    # (headers show up per translation unit and are skipped).
                    if src.endswith(".cpp"):
                        group = next((g for g in floors if f"/{g}/" in src), None)
                continue
            if group is None or count == "-":
                continue
            groups[group][0] += 1
            if count not in ("#####", "====="):
                groups[group][1] += 1
fail = False
for g, (total, hit) in sorted(groups.items()):
    pct = 100.0 * hit / total if total else 0.0
    status = "OK" if pct >= floors[g] else "BELOW FLOOR"
    print(f"coverage {g}: {hit}/{total} lines = {pct:.1f}% "
          f"(floor {floors[g]:.0f}%) {status}")
    fail |= pct < floors[g]
if not any(total for total, _ in groups.values()):
    print("coverage: no .gcda data found — did the instrumented tests run?")
    fail = True
sys.exit(1 if fail else 0)
EOF
  echo "check.sh: coverage OK (gcov line floors hold)"
  exit 0
fi

# Tests that exercise the thread pool and every pool-driven phase (the obs
# registry records from every executor, so its tests belong in the TSan set;
# Bench. covers the heartbeat/status-dump monitor thread racing the pipeline;
# Checkpoint. covers safe-point snapshots of the registry between pool calls
# and resumed runs at jobs 1 and 4).
CONCURRENCY_TESTS='Parallel\.|Determinism\.|Obs\.|Selfcheck\.|Bench\.|Checkpoint\.'

if [[ "$TSAN_ONLY" == 0 ]]; then
  cmake -B build -S . "$@"
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j "$(nproc)"

  # Observability smoke: a real CLI run must emit parseable trace/metrics JSON.
  OBS_TMP="$(mktemp -d)"
  trap 'rm -rf "$OBS_TMP"' EXIT
  cat > "$OBS_TMP/s27.bench" <<'EOF'
# ISCAS'89 s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
EOF
  ./build/tools/fsct test "$OBS_TMP/s27.bench" --jobs 2 -v \
    --trace "$OBS_TMP/trace.json" --metrics "$OBS_TMP/metrics.json" \
    --trace-max-mb 64 --profile "$OBS_TMP/profile.json" \
    --folded "$OBS_TMP/profile.folded" --metrics-out "$OBS_TMP/metrics.prom"
  python3 -m json.tool "$OBS_TMP/trace.json" > /dev/null
  python3 -m json.tool "$OBS_TMP/metrics.json" > /dev/null
  python3 -m json.tool "$OBS_TMP/profile.json" > /dev/null
  python3 tools/promtext_lint.py "$OBS_TMP/metrics.prom"
  # The saved profile and the run report's attribution section both render.
  ./build/tools/fsct profile "$OBS_TMP/profile.json" > /dev/null
  ./build/tools/fsct profile "$OBS_TMP/metrics.json" --top 5 > /dev/null
  echo "check.sh: observability smoke OK (trace/metrics/profile JSON parse," \
       "OpenMetrics lint, profile render)"

  # Differential fuzz smoke: a fixed-seed sweep of the eight selfcheck
  # oracles (resume included) plus a replay of the checked-in minimized
  # corpus (see core/selfcheck.h).
  ./build/tools/fsct fuzz --seed 1 --iters 100 -o "$OBS_TMP/fuzz"
  ./build/tools/fsct fuzz --corpus tests/integration/fuzz_corpus
  echo "check.sh: fuzz smoke OK (100 iterations + corpus replay)"

  # Bench smoke: run the smallest suite circuit through the statistics-aware
  # harness, check the document parses, and self-compare (must be exit 0 —
  # the noise model has to accept a document against itself).
  ./build/tools/fsct bench run s1488 --reps 2 --warmup 0 --jobs 1 \
    --label smoke -o "$OBS_TMP/bench_smoke.json"
  python3 -m json.tool "$OBS_TMP/bench_smoke.json" > /dev/null
  ./build/tools/fsct bench compare "$OBS_TMP/bench_smoke.json" \
    "$OBS_TMP/bench_smoke.json"
  echo "check.sh: bench smoke OK (run + JSON parse + self-compare)"

  # Attribution overhead gate: the per-fault ledger must stay inside the
  # compare harness's noise window (max(rel, 3*MAD, 5ms floor)) — the
  # null-sink rule says observation never becomes the workload.
  ./build/tools/fsct bench run s1488 --reps 3 --warmup 1 --jobs 2 \
    --label attr-off -o "$OBS_TMP/bench_attr_off.json"
  ./build/tools/fsct bench run s1488 --reps 3 --warmup 1 --jobs 2 \
    --attribution --label attr-on -o "$OBS_TMP/bench_attr_on.json"
  ./build/tools/fsct bench compare "$OBS_TMP/bench_attr_off.json" \
    "$OBS_TMP/bench_attr_on.json"
  echo "check.sh: attribution overhead gate OK (ledger within noise)"

  # Width sweep: the full pipeline at every SIMD lane width must produce an
  # identical run report (timings and RSS stripped — wider lanes legitimately
  # use more memory; only results and deterministic counters are compared).
  cat > "$OBS_TMP/strip.py" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
def strip(o):
    if isinstance(o, dict):
        # Mirror of normalized_report() in src/core/json.cpp: volatile
        # substrings plus the scheduler-dependent "pool" worker stats.
        return {k: strip(v) for k, v in sorted(o.items())
                if "seconds" not in k and "time" not in k and "passes" not in k
                and "cycles" not in k and "rss" not in k and k != "pool"}
    if isinstance(o, list):
        return [strip(v) for v in o]
    return o
json.dump(strip(doc), open(sys.argv[2], "w"), indent=1)
EOF
  for W in 64 256 512; do
    ./build/tools/fsct test "$OBS_TMP/s27.bench" --jobs 1 --simd-width "$W" \
      --metrics "$OBS_TMP/metrics_w$W.json" > /dev/null
    python3 "$OBS_TMP/strip.py" "$OBS_TMP/metrics_w$W.json" \
      "$OBS_TMP/metrics_w$W.norm"
  done
  cmp "$OBS_TMP/metrics_w64.norm" "$OBS_TMP/metrics_w256.norm"
  cmp "$OBS_TMP/metrics_w64.norm" "$OBS_TMP/metrics_w512.norm"
  echo "check.sh: width sweep OK (identical run reports at 64/256/512)"

  # Checkpoint smoke: an s1423 run writing checkpoints is SIGTERMed mid-run
  # (a test-only phase sleep widens the window), must exit 3 with a
  # checkpoint and no partial report, and the --resume continuation's
  # normalized report must be byte-identical to an uninterrupted CLI run
  # (DESIGN.md §5j).  (s1423 exits 1 by design: one fault stays undetected
  # at these budgets.)
  ./build/tools/fsct test s1423 --jobs 4 \
    --metrics "$OBS_TMP/ckpt_plain.json" > /dev/null || [[ $? == 1 ]]
  FSCT_TEST_PHASE_SLEEP="s3:2500" ./build/tools/fsct test s1423 --jobs 4 \
    --checkpoint "$OBS_TMP/run.ckpt" --metrics "$OBS_TMP/ckpt_metrics.json" \
    > /dev/null 2> "$OBS_TMP/ckpt_err.log" &
  CKPT_PID=$!
  for _ in $(seq 100); do [[ -f "$OBS_TMP/run.ckpt" ]] && break; sleep 0.1; done
  [[ -f "$OBS_TMP/run.ckpt" ]]
  kill -TERM "$CKPT_PID"
  CKPT_RC=0
  wait "$CKPT_PID" || CKPT_RC=$?
  [[ "$CKPT_RC" == 3 ]]
  grep -q -- "--resume" "$OBS_TMP/ckpt_err.log"
  [[ ! -f "$OBS_TMP/ckpt_metrics.json" ]]
  ./build/tools/fsct test s1423 --jobs 4 --resume "$OBS_TMP/run.ckpt" \
    --metrics "$OBS_TMP/ckpt_metrics.json" > /dev/null || [[ $? == 1 ]]
  python3 "$OBS_TMP/strip.py" "$OBS_TMP/ckpt_plain.json" \
    "$OBS_TMP/ckpt_plain.norm"
  python3 "$OBS_TMP/strip.py" "$OBS_TMP/ckpt_metrics.json" \
    "$OBS_TMP/ckpt_resumed.norm"
  cmp "$OBS_TMP/ckpt_plain.norm" "$OBS_TMP/ckpt_resumed.norm"
  echo "check.sh: checkpoint smoke OK (SIGTERM -> exit 3 -> resume" \
       "identical to an uninterrupted run)"
fi

cmake -B build-tsan -S . -DFSCT_SANITIZE=thread "$@"
cmake --build build-tsan -j \
  --target parallel_test determinism_test pipeline_test \
           seq_fault_sim_test comb_fault_sim_test classify_test obs_test \
           selfcheck_test bench_harness_test checkpoint_test
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan \
  --output-on-failure -R "$CONCURRENCY_TESTS"

if [[ "$TSAN_ONLY" == 0 ]]; then
  # UBSan over the new SoA/wide kernels: the multi-word lane types lean on
  # alignas + fixed-trip-count word loops, so shifts, alignment and aliasing
  # must be provably clean at every width.  The scalar simulator and TPI
  # ride along: CombSim keeps per-node injection flags sized to the netlist,
  # and TPI drives it with hundreds of injections per run.  The unroller
  # writes the step-3 models straight into flat CSR arrays, so its index
  # arithmetic and the flat-circuit factory ride along too.
  cmake -B build-ubsan -S . -DFSCT_SANITIZE=undefined "$@"
  cmake --build build-ubsan -j \
    --target soa_sim_test seq_fault_sim_test pair_sim_test podem_test \
    test_export_test comb_sim_test tpi_test unroll_test reduced_atpg_test
  UBSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-ubsan \
    --output-on-failure -R 'SoaCircuit\.|WideSim\.|WideSeqSim\.|SimdWidth\.|SeqFaultSim\.|PairSim\.|Podem\.|TestExport\.|CombSim\.|Tpi\.|TpiRandom\.|Unroll\.|ReducedAtpg\.'
  echo "check.sh: UBSan clean over the SoA/wide kernels"
fi
echo "check.sh: OK (plain tests $( [[ $TSAN_ONLY == 1 ]] && echo skipped || echo passed ), TSan clean)"
