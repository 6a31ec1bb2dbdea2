#!/usr/bin/env bash
# Allocation-budget gate for the zero-allocation shipping path.
#
# Runs the churn bench from an alloc-counting build (cmake
# -DNETTRAILS_COUNT_ALLOCS=ON) and fails if heap allocations per converged
# link flap exceed the committed budgets. The budgets pin the pooled
# pipeline — POD event records, recycled message frames, open-addressing
# row storage, pooled ValueList/arg buffers, tombstoned aggregate groups —
# against regressions that reintroduce per-tuple allocation.
#
# History (mincost, n=24): the pre-pooling pipeline measured 51,390
# allocs/flap at batch 64 and 54,529 at batch 1; the pooled pipeline
# measured ~3,920 and ~13,100. Batch 1 then still ran a separate serial
# path that allocated a planned-action vector per delta. Once per-tuple
# evaluation became the only pipeline (batch_size now only caps tuples per
# shipped frame, so batch 1 runs the same pooled path) and the
# field-buffer pool was bounded by its largest net draw, the two measure
# ~3,560 and ~4,460. With the engine recording each firing's ruleExec/prov
# rows itself (no execution-history view rows and their three consumer
# rules per firing) they measure ~2,720 and ~3,430. Re-measured when
# waves under Simulator::kMinParallelWave deliveries began to run inline
# (Release, g++ 12.2, 4 vCPUs): 2,915 and 3,599, the same as the commit
# before that change on the same machine, so the rise over ~2,720/~3,430
# is not that change's doing. Budgets carry ~15%
# headroom over the measured values so noise does not flake CI, while any
# real per-tuple regression (one alloc per shipped tuple is ~1,300/flap)
# trips the gate.
#
# Usage: scripts/check_alloc_budget.sh [build-dir]
#   build-dir defaults to build-alloc and must be configured with
#   -DNETTRAILS_COUNT_ALLOCS=ON (the script fails loud if the counter
#   reads zero, which is what a non-counting build reports).
set -euo pipefail

BUILD_DIR="${1:-build-alloc}"
BENCH="$BUILD_DIR/bench_churn"
SCALEOUT="$BUILD_DIR/bench_scaleout"

# allocs_per_flap ceilings, keyed by benchmark args (nodes/batch).
BUDGET_24_64=3150
BUDGET_24_1=3950
# Threaded leg (bench_scaleout, nodes=64, threads=4, batch 64): the sharded
# loop must stay pooled too — worker frame arenas and op logs reach steady
# state exactly like the shared frame pool. Measured ~2,550 allocs/flap at
# threads 1, 2, AND 4 (the parallel path adds zero steady-state
# allocation), ~2,340 since the pipeline change above, and ~1,820 since
# the engine records provenance itself. With narrow waves inline and the
# coordinator working shard 0 (so part of the flap runs inline and part on
# the coordinator) it measures 1,942, against 1,944 for the commit before
# on the same machine. The budget keeps ~8-15% headroom.
BUDGET_SCALEOUT_64_4=2100

if [[ ! -x "$BENCH" || ! -x "$SCALEOUT" ]]; then
  echo "error: $BENCH / $SCALEOUT not built; configure with:" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release -DNETTRAILS_COUNT_ALLOCS=ON" >&2
  echo "  cmake --build $BUILD_DIR --target bench_churn bench_scaleout -j" >&2
  exit 2
fi

OUT="$BUILD_DIR/alloc_budget_churn.json"
"$BENCH" --benchmark_filter='Mincost_IncrementalFlap/24/(1|64)$' \
         --benchmark_min_time=0.2 \
         --benchmark_out="$OUT" --benchmark_out_format=json >/dev/null

SCALEOUT_OUT="$BUILD_DIR/alloc_budget_scaleout.json"
"$SCALEOUT" --benchmark_filter='Scaleout_Mincost_IncrementalFlap/64/4/' \
            --benchmark_min_time=0.2 \
            --benchmark_out="$SCALEOUT_OUT" --benchmark_out_format=json \
            >/dev/null

python3 - "$OUT" "$SCALEOUT_OUT" "$BUDGET_24_64" "$BUDGET_24_1" \
    "$BUDGET_SCALEOUT_64_4" <<'EOF'
import json, sys

out, scaleout_out = sys.argv[1], sys.argv[2]
budget64, budget1, budget_s = (float(a) for a in sys.argv[3:6])
budgets = {
    "BM_Churn_Mincost_IncrementalFlap/24/64": budget64,
    "BM_Churn_Mincost_IncrementalFlap/24/1": budget1,
    "BM_Scaleout_Mincost_IncrementalFlap/64/4/process_time/real_time":
        budget_s,
}
measured = {}
for path in (out, scaleout_out):
    for b in json.load(open(path))["benchmarks"]:
        if b["name"] in budgets:
            measured[b["name"]] = b.get("allocs_per_flap")

failed = False
for name, budget in budgets.items():
    got = measured.get(name)
    if got is None:
        print(f"FAIL {name}: no allocs_per_flap counter in bench output")
        failed = True
        continue
    if got == 0:
        print(f"FAIL {name}: allocs_per_flap reads 0 — bench was built "
              "without -DNETTRAILS_COUNT_ALLOCS=ON")
        failed = True
        continue
    verdict = "FAIL" if got > budget else "ok"
    print(f"{verdict:4s} {name}: {got:.0f} allocs/flap (budget {budget:.0f})")
    if got > budget:
        failed = True

sys.exit(1 if failed else 0)
EOF
