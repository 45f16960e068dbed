#!/usr/bin/env bash
# Smoke-check the benchmark in well under a minute:
#   1. BENCHMARK.json is exactly what src/metrics.rs generates, and the
#      tables respect the contract's limits (<= 16 end-to-end and <= 128
#      per-layer names, each unique and matching [A-Za-z0-9_.-]+);
#   2. every workload runs at 1/16 scale, untraced and traced, passes its
#      correctness gates and prints every declared metric by name — the
#      harness itself refuses to print a result whose names drifted or
#      whose values are not finite, and this script checks the output
#      against BENCHMARK.json once more from outside.
#
#   bench/selfcheck.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
run=(cargo run --release --quiet --offline --manifest-path bench/Cargo.toml --)

"${run[@]}" --emit-benchmark-json | diff -u BENCHMARK.json - \
    || { echo "BENCHMARK.json is stale: regenerate it with --emit-benchmark-json" >&2; exit 1; }

names() { # names of one BENCHMARK.json section ($1), one per line
    sed -n "/\"$1\": \[/,/^  \]/s/.*{\"name\": \"\([^\"]*\)\".*/\1/p" BENCHMARK.json
}

start=$SECONDS
for trace in 0 1; do
    section=$([ "$trace" = 0 ] && echo end_to_end || echo per_layer)
    out=$("${run[@]}" --smoke --seed "$seed" --trace "$trace")
    # Every workload the harness ran (the gated ones of BENCHMARK.json and
    # the ungated serve_open) is held to the same output contract.
    workloads=$(awk '$1 == "ops" { print $2 }' <<<"$out")
    for gated in $(names workloads); do
        grep -qx "$gated" <<<"$workloads" || { echo "$gated did not run" >&2; exit 1; }
    done
    for workload in $workloads; do
        for metric in $(names "$section"); do
            value=$(awk -v w="$workload" -v m="$metric" \
                '$1 == "metric" && $2 == w && $3 == m { print $4; n++ } END { if (n != 1) exit 1 }' \
                <<<"$out") || { echo "$workload: $metric is not printed exactly once" >&2; exit 1; }
            [[ "$value" =~ ^-?[0-9]+(\.[0-9]+)?(e-?[0-9]+)?$ ]] \
                || { echo "$workload: $metric = '$value' is not a finite number" >&2; exit 1; }
        done
        grep -q "^failed_ops $workload 0$" <<<"$out" \
            || { echo "$workload reported failed operations" >&2; exit 1; }
    done
done
echo "selfcheck ok: $(wc -w <<<"$workloads") workloads x 2 modes at 1/16 scale in $((SECONDS - start)) s"
