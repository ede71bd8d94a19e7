#!/bin/sh
# The perf-smoke gate: `make perf-smoke [BASE=<rev>]` (default: the
# parent commit, HEAD^).
#
# Checks the base revision out as a temporary git worktree, then runs
# perfbench on base and on this checkout in turn, at seed 0, on this one
# host, and lets `repro attribute` compare the medians within the runs'
# own noise band.  When a metric is worse beyond its band, traced pairs
# follow and `repro attribute` ranks the layers, so the report names the
# layer that moved.  Exit status: that of the first `repro attribute`
# (0 pass, 1 worse or a failed head run, 2 unreadable results).
#
# Results go to perf-smoke/{base,head}/: one `<workload>.trace<0|1>.jsonl`
# line per run, plus each run's full stdout in `.log`.  The worktree is
# removed on exit, pass or fail, and nothing tracked is written.
set -eu

base_rev=${1:-HEAD^}
python=${PYTHON:-python3}
# Sized for CI's 15-minute step.  dense-sampling's run-to-run spread
# did not shrink from 5 to 10 seconds a run, so the time goes to more
# runs, which narrow the band, rather than to longer ones.
runs=9          # untraced runs per workload and side
traced_runs=3   # traced runs per workload and side, after a failure
seconds=5       # perfbench --seconds of every run
workloads="table2-1core table2-4core dense-sampling"

root=$(git rev-parse --show-toplevel)
out=$root/perf-smoke
tree=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach --quiet "$tree" "$base_rev"
# Share the scalar-reference cache: it is keyed by a digest of src/, so
# a base whose source differs never reads the head's entries.
mkdir -p "$root/perfbench/.cache"
ln -s "$root/perfbench/.cache" "$tree/perfbench/.cache"
rm -rf "$out"
mkdir -p "$out/base" "$out/head"

one_run() {  # one_run SIDE WORKLOAD TRACE
    if [ "$1" = base ]; then dir=$tree; else dir=$root; fi
    log=$out/$1/$2.trace$3.log
    (cd "$dir" && "$python" perfbench/run.py --workload "$2" --seed 0 \
        --seconds "$seconds" --trace "$3") > "$out/last.txt"
    cat "$out/last.txt" >> "$log"
    tail -n 1 "$out/last.txt" >> "$out/$1/$2.trace$3.jsonl"
}

pairs() {  # pairs TRACE RUNS: alternate the side that goes first
    i=0
    while [ "$i" -lt "$2" ]; do
        for workload in $workloads; do
            if [ $((i % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi
            for side in $order; do
                one_run "$side" "$workload" "$1"
            done
        done
        i=$((i + 1))
    done
}

attribute() {
    (cd "$root" && PYTHONPATH=src "$python" -m repro attribute "$out/base" "$out/head")
}

pairs 0 "$runs"
rm -f "$out/last.txt"
status=0
attribute || status=$?
if [ "$status" -eq 1 ]; then
    echo "perf-smoke: running $traced_runs traced pairs to attribute the change"
    pairs 1 "$traced_runs"
    rm -f "$out/last.txt"
    attribute || true
fi
exit "$status"
