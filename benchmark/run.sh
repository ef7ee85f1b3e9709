#!/usr/bin/env bash
# The SENECA stack's one benchmark. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--quick] [--out FILE]
#       build, then run every workload in its own process — once for the
#       end-to-end metrics (--trace 0), once for the per-layer ledger
#       (--trace 1) — print every metric by name with its unit, and append
#       the results to FILE (default benchmark/out/result-seed<N>.jsonl).
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       build, then run one workload; the last line of standard output is the
#       result object (this is how BENCHMARK.json's command is called).
#   benchmark/run.sh --compare A B
#       compare two result files; non-zero when anything got worse.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Machine assumptions: every thread pool sizes itself from the cores it sees.
unset RAYON_NUM_THREADS

# A relative CARGO_TARGET_DIR is relative to this directory, the repo root,
# which is also where cargo finds .cargo/config.toml (target-cpu=native).
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/seneca-benchmark"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

seed=1
quick=()
out=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --workload) exec "$bin" "$@" ;;
    --compare)
        [[ ${#args[@]} -eq 3 && $i -eq 0 ]] || { echo "usage: run.sh --compare A B" >&2; exit 2; }
        exec "$bin" compare "${args[1]}" "${args[2]}"
        ;;
    --seed) seed="${args[++i]:?--seed needs a value}" ;;
    --out) out="${args[++i]:?--out needs a value}" ;;
    --quick) quick=(--quick) ;;
    *) echo "unknown argument '${args[i]}' (see the head of benchmark/run.sh)" >&2; exit 2 ;;
    esac
done

mkdir -p benchmark/out
out="${out:-benchmark/out/result-seed$seed.jsonl}"
clean() { tr -d '"\\' | tr -s ' '; }
printf '{"machine":{"nproc":%s,"cpu":"%s","rustc":"%s"},"commit":"%s","seed":%s,"quick":%s}\n' \
    "$(nproc)" \
    "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//' | clean)" \
    "$(rustc --version | clean)" \
    "$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
    "$seed" \
    "$([[ ${#quick[@]} -gt 0 ]] && echo true || echo false)" >>"$out"

status=0
log=benchmark/out/last-run.log
: >"$log"
for workload in stream-1m-int8 bulk-16m-int8 bulk-16m-fp32 fleet-roi-open; do
    for trace in 0 1; do
        echo "== $workload --trace $trace ==" | tee -a "$log"
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" \
            ${quick[@]+"${quick[@]}"} --record "$out" | grep -v '^{' | tee -a "$log" || status=1
    done
done
# A run that found wrong outputs still exits 0 (it reports "correct": false);
# the full set does not.
if grep -q 'correct false$' "$log"; then
    echo "FAILED: a workload reported wrong outputs (see $log)" >&2
    status=1
fi
echo "results appended to $out"
exit $status
