#!/usr/bin/env bash
# Builds braidd and braid-perf in release mode, offline, then runs the
# benchmark from the repository root.
#
#   bash braid-perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one run of one workload; the last line of output is its JSON result
#   bash braid-perf/run.sh [--seed N] [--seconds S]
#       every workload, an untraced run then a traced run of each
#   bash braid-perf/run.sh series --runs N --out FILE [--seed N] [--seconds S]
#   bash braid-perf/run.sh compare A.json B.json
#
# Workloads: sim-long, sim-sampled, sim-suite, serve-mix. Results land in
# braid-perf/out/. CARGO_TARGET_DIR, when set, holds both builds.
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --bin braidd
cargo build --release --offline --quiet --manifest-path braid-perf/Cargo.toml
braidd="${CARGO_TARGET_DIR:-target}/release/braidd"
perf="${CARGO_TARGET_DIR:-braid-perf/target}/release/braid-perf"

case "${1:-}" in
    series) shift; exec "$perf" series --braidd "$braidd" "$@" ;;
    compare) exec "$perf" "$@" ;;
esac
if [[ " $* " == *" --workload "* ]]; then
    exec "$perf" run --braidd "$braidd" "$@"
fi
status=0
for w in sim-long sim-sampled sim-suite serve-mix; do
    for t in 0 1; do
        "$perf" run --braidd "$braidd" --workload "$w" --trace "$t" "$@" || status=1
    done
done
exit "$status"
