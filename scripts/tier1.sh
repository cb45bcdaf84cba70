#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and a warnings-as-errors
# clippy pass over the whole workspace (including the non-default
# braid-bench member). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# Every crate but braid-bench is a default member, so this runs each crate's
# unit, integration and doc tests, the braidd/braid-loadgen smokes of
# tests/daemon.rs included.
echo "==> cargo test -q"
cargo test -q

# braid-perf is a workspace of its own, so the commands above never
# compile it; build and test it here against the crates it depends on.
echo "==> cargo test -q --manifest-path braid-perf/Cargo.toml"
cargo test --offline -q --manifest-path braid-perf/Cargo.toml

echo "==> functional-tier differential suite (release: 10x throughput floor armed)"
cargo test --release -q --test functional_tier

echo "==> sampled-vs-full smoke (braidsim --tier sampled must land within 5%)"
full_cycles="$(cargo run --release -q --bin braidsim -- ooo @dot_product --report-json \
  | sed -n 's/^ *"cycles": \([0-9]*\),*/\1/p' | head -n 1)"
est_cycles="$(cargo run --release -q --bin braidsim -- ooo @dot_product --tier sampled --report-json \
  | sed -n 's/.*"est_cycles":\([0-9]*\).*/\1/p' | head -n 1)"
if [ -z "$full_cycles" ] || [ -z "$est_cycles" ]; then
  echo "sampled smoke: missing cycle fields (full=$full_cycles sampled=$est_cycles)" >&2
  exit 1
fi
err=$(( (est_cycles - full_cycles) * 1000 / full_cycles ))
if [ "${err#-}" -gt 50 ]; then
  echo "sampled smoke: estimate off by ${err} permille (full=$full_cycles sampled=$est_cycles)" >&2
  exit 1
fi
echo "sampled smoke OK (full=$full_cycles cycles, sampled est=$est_cycles, err=${err} permille)"

echo "==> long sampled smoke (9.2M-instruction nest on ooo: within 5%, at most 25% timed)"
# Past the dense phase the sampled tier times one window per period and
# extrapolates the rest. Every check is on deterministic counts.
long_full="$(./target/release/braidsim ooo scripts/data/accum_9m.bl --report-json \
  | sed -n 's/^ *"cycles": \([0-9]*\),*/\1/p' | head -n 1)"
long_json="$(./target/release/braidsim ooo scripts/data/accum_9m.bl --tier sampled --report-json \
  | grep '^{')"
long_est="$(echo "$long_json" | sed -n 's/.*"est_cycles":\([0-9]*\).*/\1/p')"
long_insts="$(echo "$long_json" | sed -n 's/.*"instructions":\([0-9]*\).*/\1/p')"
long_timed="$(echo "$long_json" | sed -n 's/.*"timed_insts":\([0-9]*\).*/\1/p')"
if [ -z "$long_full" ] || [ -z "$long_est" ] || [ -z "$long_insts" ] || [ -z "$long_timed" ]; then
  echo "long sampled smoke: missing fields (full=$long_full json=$long_json)" >&2
  exit 1
fi
# The exact full-tier count pins the OoO engine on a 9.2M-instruction run
# (the goldens cover kernels of at most tens of thousands).
if [ "$long_full" -ne 1268671 ] || [ "$long_insts" -ne 9220006 ]; then
  echo "long sampled smoke: full tier drifted (cycles=$long_full, want 1268671; insts=$long_insts, want 9220006)" >&2
  exit 1
fi
long_err=$(( (long_est - long_full) * 1000 / long_full ))
if [ "${long_err#-}" -gt 50 ]; then
  echo "long sampled smoke: estimate off by ${long_err} permille (full=$long_full sampled=$long_est)" >&2
  exit 1
fi
if [ $(( long_timed * 4 )) -gt "$long_insts" ]; then
  echo "long sampled smoke: $long_timed of $long_insts instructions timed (over 25%)" >&2
  exit 1
fi
echo "long sampled smoke OK (full=$long_full cycles, sampled est=$long_est, err=${long_err} permille, timed $long_timed/$long_insts)"

echo "==> bounded-memory smoke (9.2M-instruction nest: full-tier braid and ooo, sampled ooo, trace record/replay, bound and -O, under ulimit -v 128 MiB)"
# The full tier streams its trace through a window-sized slot ring, so
# memory is set by the configuration, not the run length: each run peaks
# near 11 MB, while materializing its trace would need over 1 GB. The ooo
# run also bounds its wakeup lists and port rings by the configuration.
( ulimit -v 131072; ./target/release/braidsim braid scripts/data/accum_9m.bl > /dev/null )
( ulimit -v 131072; ./target/release/braidsim ooo scripts/data/accum_9m.bl > /dev/null )
# Trace files, bounds and the partition search read the same streamed
# producer, so they run under the same cap (holding this nest's whole
# trace took 214-513 MB). The 157 MB trace file goes to a temp directory.
capped_dir="$(mktemp -d)"
( ulimit -v 131072 \
  && ./target/release/braidsim trace-record scripts/data/accum_9m.bl "$capped_dir/accum.btrace" > /dev/null \
  && ./target/release/braidsim trace-replay "$capped_dir/accum.btrace" > /dev/null \
  && ./target/release/braidc bound scripts/data/accum_9m.bl > /dev/null \
  && ./target/release/braidc -O scripts/data/accum_9m.bl > /dev/null ) || { rm -rf "$capped_dir"; exit 1; }
rm -rf "$capped_dir"
# The sampled tier runs its producer on a helper thread. Under the cap a
# helper that allocated per interval ran 7-10x slower (its malloc arena),
# so the capped run must print the uncapped report and take at most 3x
# its wall time (best of two runs each, to ride out host noise).
sampled_ms() {
  local best=0 t0 t1 ms
  for _ in 1 2; do
    t0=$(date +%s%N)
    ( [ "$1" = capped ] && ulimit -v 131072
      ./target/release/braidsim ooo scripts/data/accum_9m.bl --tier sampled --report-json \
        | grep '^{' > "$2" )
    t1=$(date +%s%N)
    ms=$(( (t1 - t0) / 1000000 ))
    if [ "$best" -eq 0 ] || [ "$ms" -lt "$best" ]; then best=$ms; fi
  done
  echo "$best"
}
sampled_free="$(mktemp)"
sampled_capped="$(mktemp)"
free_ms="$(sampled_ms free "$sampled_free")"
capped_ms="$(sampled_ms capped "$sampled_capped")"
if ! cmp -s "$sampled_free" "$sampled_capped"; then
  echo "bounded-memory smoke: capped sampled report differs from the uncapped one" >&2
  exit 1
fi
rm -f "$sampled_free" "$sampled_capped"
if [ "$capped_ms" -gt $(( 3 * free_ms )) ]; then
  echo "bounded-memory smoke: capped sampled run took ${capped_ms} ms, over 3x uncapped ${free_ms} ms" >&2
  exit 1
fi
echo "bounded-memory smoke OK (sampled: ${capped_ms} ms capped, ${free_ms} ms uncapped)"

echo "==> braidc check over the kernel suite"
for kernel in fig2_life dot_product stencil pointer_chase histogram matmul crc_mix partition; do
  ./target/release/braidc check "@$kernel"
done

echo "==> braidc bound soundness smoke (bound <= simulated on every kernel x core)"
for kernel in fig2_life dot_product stencil pointer_chase histogram matmul crc_mix partition; do
  ./target/release/braidc bound "@$kernel" --verify > /dev/null
done
echo "bound smoke OK (8 kernels x 4 cores all sound)"

echo "==> braidc -O smoke (winner must be check-clean with cycles <= canonical)"
opt_json="$(./target/release/braidc -O @dot_product --json)"
opt_winner="$(echo "$opt_json" | sed -n 's/.*"winner":"\([a-z0-9-]*\)".*/\1/p')"
winner_cycles="$(echo "$opt_json" \
  | sed -n "s/.*\"name\":\"$opt_winner\",\"score\":[0-9]*,\"check_clean\":true,\"cycles\":\([0-9]*\).*/\1/p")"
canonical_cycles="$(echo "$opt_json" | sed -n 's/.*"canonical_cycles":\([0-9]*\).*/\1/p')"
if [ -z "$opt_winner" ] || [ -z "$winner_cycles" ] || [ -z "$canonical_cycles" ]; then
  echo "-O smoke: missing fields in: $opt_json" >&2
  exit 1
fi
if [ "$winner_cycles" -gt "$canonical_cycles" ]; then
  echo "-O smoke: winner $opt_winner at $winner_cycles cycles beats canonical $canonical_cycles backwards" >&2
  exit 1
fi
opt_emit="$(mktemp --suffix=.brisc)"
./target/release/braidc -O @dot_product --emit "$opt_emit" > /dev/null
./target/release/braidc check "$opt_emit"
rm -f "$opt_emit"
echo "-O smoke OK (winner=$opt_winner at $winner_cycles cycles <= canonical $canonical_cycles, output check-clean)"

echo "==> braid-lang loop-nest smoke (braidc build -> check -> simulate)"
lang_src="$(mktemp --suffix=.bl)"
lang_out="$(mktemp --suffix=.brisc)"
printf 'array a[16] = [3, 1, 4, 1, 5];\nlet s = 0;\nfor i in 0..16 { s = s + a[i] * a[i]; }\na[0] = s;\n' > "$lang_src"
./target/release/braidc build "$lang_src" --emit "$lang_out"
./target/release/braidc check "$lang_out"
rm -f "$lang_src" "$lang_out"
for nest in ln_saxpy_u2 ln_stencil_u1 ln_matmul_n8_t4 ln_chains_c4_u2; do
  ./target/release/braidc check "@$nest"
done
./target/release/braidsim all @ln_saxpy_u2 > /dev/null
echo "loop-nest smoke OK (built source check-clean, 4 nests checked, all cores simulate)"

echo "==> trace round-trip smoke (record -> replay twice -> identical cycle digest)"
trace_file="$(mktemp --suffix=.btrace)"
./target/release/braidsim trace-record @ln_chains_c4_u2 "$trace_file"
trace_d1="$(./target/release/braidsim trace-replay "$trace_file" | awk '/^cycle digest/{print $NF}')"
trace_d2="$(./target/release/braidsim trace-replay "$trace_file" | awk '/^cycle digest/{print $NF}')"
if [ -z "$trace_d1" ] || [ "$trace_d1" != "$trace_d2" ]; then
  echo "trace smoke: cycle digests differ or missing (d1=$trace_d1 d2=$trace_d2)" >&2
  exit 1
fi
rm -f "$trace_file"
echo "trace smoke OK (cycle digest $trace_d1 stable across replays)"

echo "==> exp results guard (fresh exp tables = results/, all but sampled)"
# exp writes results/ under the current directory, so run it at the
# default scale in a scratch directory and compare every table with the
# committed one, except sampled.txt, whose speedup columns are host time.
cargo build --release -q -p braid-bench --bin exp
exp_dir="$(mktemp -d)"
exp_tables="$(cd results && ls -- *.txt | sed 's/\.txt$//' | grep -vx sampled)"
( cd "$exp_dir" && env -u BRAID_SCALE "$OLDPWD/target/release/exp" $exp_tables > /dev/null )
for table in $exp_tables; do
  if ! cmp "$exp_dir/results/$table.txt" "results/$table.txt"; then
    echo "exp guard: a fresh $table differs from results/$table.txt" >&2
    exit 1
  fi
done
rm -rf "$exp_dir"
echo "exp guard OK ($(echo $exp_tables | wc -w) tables match results/)"

echo "==> sweep smoke (tiny grid, 2 threads)"
cargo run --release --bin braidsim -- sweep --name tier1-smoke --threads 2 \
  --workloads dot_product,fig2_life --cores inorder,braid
rm -f results/tier1-smoke.json results/tier1-smoke.partial.json

echo "==> pipeline-viewer smoke (braid @dot_product, Kanata log validated)"
pipeview_log="$(mktemp)"
cargo run --release --bin braidsim -- braid @dot_product --pipeview "$pipeview_log"
./target/release/braidsim check-kanata "$pipeview_log"
rm -f "$pipeview_log"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "tier-1 OK"
