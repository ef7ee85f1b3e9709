#!/usr/bin/env bash
# Timed A/B of this checkout against a parent commit on the benchmark's four
# workloads, for a PR that claims a speed-up or has to show it lost none.
#
#   scripts/ab.sh PARENT [PAIRS]
#
# Exports a fresh copy of PARENT with `git archive` (a plain directory, not a
# git worktree: nothing to register or remove) and builds it with its own
# CARGO_TARGET_DIR, then runs the workloads one after another: for each, one
# discarded run per side, then PAIRS parent/change pairs at --trace 0, the
# same seed within a pair, the side that runs first alternating from pair to
# pair. No timed run follows a run of another workload, so whichever side
# runs first after a workload switch (which pays extra set-up time) is never
# timed. PAIRS defaults to 10, the fewest that can show a gain holding in
# nine of ten pairs. Ends with `benchmark/run.sh --compare parent change`,
# whose exit code it returns. Not part of ci.sh: it builds the benchmark
# twice and takes ~3.5 min per pair on 2 cores.
#
# Each run takes the benchmark's own measured-phase length. Environment:
# AB_DIR (work directory, default target/ab).
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

parent="${1:?usage: scripts/ab.sh PARENT [PAIRS]}"
pairs="${2:-10}"
work="$(mkdir -p "${AB_DIR:-target/ab}" && cd "${AB_DIR:-target/ab}" && pwd)"
tree="$work/parent"

rm -rf "$tree"
mkdir -p "$tree"
git archive "$parent" | tar -x -C "$tree"

a="$work/parent.jsonl"
b="$work/change.jsonl"
warm="$work/warmup.jsonl"
: >"$a"
: >"$b"
: >"$warm"
# side DIR TARGET OUT WORKLOAD SEED: one run, from its own checkout root.
side() {
    (cd "$1" && CARGO_TARGET_DIR="$2" bash benchmark/run.sh --workload "$4" --seed "$5" \
        --trace 0 --record "$3" | tail -n 1)
}
for workload in stream-1m-int8 bulk-16m-int8 bulk-16m-fp32 fleet-roi-open; do
    echo "== warm-up $workload (discarded) ==" >&2
    side "$tree" "$work/target-parent" "$warm" "$workload" 100 >/dev/null
    side "$root" "$work/target-change" "$warm" "$workload" 100 >/dev/null
    for ((p = 0; p < pairs; p++)); do
        seed=$((101 + p))
        parent_run=("$tree" "$work/target-parent" "$a" "$workload" "$seed")
        change_run=("$root" "$work/target-change" "$b" "$workload" "$seed")
        echo "== $workload pair $((p + 1))/$pairs seed $seed ==" >&2
        if ((p % 2 == 0)); then
            side "${parent_run[@]}" >/dev/null
            side "${change_run[@]}" >/dev/null
        else
            side "${change_run[@]}" >/dev/null
            side "${parent_run[@]}" >/dev/null
        fi
    done
done
CARGO_TARGET_DIR="$work/target-change" bash benchmark/run.sh --compare "$a" "$b"
