#!/usr/bin/env bash
# Offline CI gate: formatting, a release build, and the full test suite.
# No step touches the network (the workspace has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true

echo "== fmt =="
cargo fmt --check

echo "== build =="
cargo build --release --workspace

# API docs build warning-free: a broken or public-to-private intra-doc link
# fails the gate.
echo "== rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The suite runs twice so the determinism promise is exercised at both a
# sequential and a parallel vega-par pool size (outputs must be identical).
echo "== test (VEGA_THREADS=1) =="
VEGA_THREADS=1 cargo test -q --workspace

echo "== test (VEGA_THREADS=4) =="
VEGA_THREADS=4 cargo test -q --workspace

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Decode fast path: the incremental KV-cached decoder must be bit-identical
# to the autograd-graph reference at both pool sizes, and its primitives
# (`step_many`, the one-pass forced-scoring prefill, the dot-form logits
# projection on both sides of its switch) bitwise sound (the full workspace
# runs above include this suite too; the explicit stage keeps the contract
# visible and greppable). The bench smoke asserts the incremental path is
# not slower than the graph path on the small config.
echo "== decode equivalence =="
VEGA_THREADS=1 cargo test -q -p vega-nn --test decode_equivalence
VEGA_THREADS=4 cargo test -q -p vega-nn --test decode_equivalence

# Kernel matrix: every kernel mode this CPU can run (scalar always; avx2
# when the CPU reports it — a forced `VEGA_KERNEL=avx2` on a host without
# AVX2 falls back to scalar with a logged notice, so the avx2 leg would be
# vacuous there) must pass the kernel conformance property suite, the
# per-mode determinism suite, the decode equivalence suite and the root
# tier-1 contract cases (decode sessions, batched scoring, the one decoder
# forward), at pool sizes 1 and 4. The decode bench smoke below then pins
# the per-ISA throughput rows, the AVX2-vs-scalar floors (transposed matmul,
# forks8) and the dot-form trip-wire.
echo "== kernel matrix =="
KERNEL_MODES="scalar"
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  KERNEL_MODES="scalar avx2"
else
  echo "(CPU lacks AVX2; kernel matrix runs scalar only)"
fi
for km in $KERNEL_MODES; do
  for vt in 1 4; do
    echo "-- VEGA_KERNEL=$km VEGA_THREADS=$vt --"
    VEGA_KERNEL=$km VEGA_THREADS=$vt cargo test -q -p vega-nn \
      --test kernel_conformance --test kernel_determinism \
      --test decode_equivalence
    VEGA_KERNEL=$km VEGA_THREADS=$vt cargo test -q --test contracts
  done
done

# Headline identity: the tiny headline run is a pure function of (seed,
# kernel mode) — thread-invariant, but scalar and AVX2 differ in low bits —
# so each mode's stdout must match its committed golden byte for byte.
echo "== headline identity =="
for km in $KERNEL_MODES; do
  VEGA_KERNEL=$km target/release/vega-experiments headline --scale tiny \
    --epochs 1 --pretrain 0 > "$SMOKE_DIR/headline-$km.txt"
  diff "tests/golden/headline_tiny.$km.txt" "$SMOKE_DIR/headline-$km.txt"
done
echo "headline identity: ok"

echo "== decode bench smoke =="
VEGA_DECODE_BENCH_FAST=1 VEGA_BENCH_OUT="$SMOKE_DIR/BENCH_decode.json" \
  cargo bench -p vega-bench --bench decode | tee "$SMOKE_DIR/decode-bench.txt"
grep -q "decode: smoke=ok" "$SMOKE_DIR/decode-bench.txt"

# Observability overhead: the disabled flight-recorder record path must stay
# one relaxed atomic load — the bench fails if it costs more than the ns
# budget, so instrumentation can never silently tax the serve hot path.
echo "== obs overhead smoke =="
VEGA_OBS_BENCH_FAST=1 VEGA_OBS_BUDGET_NS=250 \
  VEGA_BENCH_OUT="$SMOKE_DIR/BENCH_obs.json" \
  cargo bench -p vega-bench --bench obs | tee "$SMOKE_DIR/obs-bench.txt"
grep -q "obs: smoke=ok" "$SMOKE_DIR/obs-bench.txt"

# Serve smoke test: train a tiny checkpoint, serve it on an ephemeral port,
# hammer it with the load generator (repeats must hit the cache and verify
# byte-identical against direct generation), shut down cleanly, and check
# the JSONL trace recorded the request spans.
echo "== serve smoke =="
target/release/vega-experiments headline --scale tiny \
  --save-model "$SMOKE_DIR/ckpt.json" > "$SMOKE_DIR/headline.txt"
target/release/vega-serve --checkpoint "$SMOKE_DIR/ckpt.json" --scale tiny \
  --port-file "$SMOKE_DIR/port" --trace-out "$SMOKE_DIR/trace.jsonl" \
  > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 150); do
  [ -s "$SMOKE_DIR/port" ] && break
  sleep 0.2
done
[ -s "$SMOKE_DIR/port" ] || { echo "vega-serve never wrote its port file"; exit 1; }
target/release/vega-loadgen --addr "127.0.0.1:$(cat "$SMOKE_DIR/port")" \
  --requests 24 --conns 4 --distinct 4 \
  --verify-checkpoint "$SMOKE_DIR/ckpt.json" --scale tiny \
  | tee "$SMOKE_DIR/loadgen.txt"
grep -q "loadgen: verify=ok" "$SMOKE_DIR/loadgen.txt"
grep -q "loadgen: cache=ok" "$SMOKE_DIR/loadgen.txt"
grep -q "loadgen: trace=ok" "$SMOKE_DIR/loadgen.txt"
grep -q "loadgen: timing " "$SMOKE_DIR/loadgen.txt"
# vega-top mode: the live dashboard polls the metrics op on the same daemon.
target/release/vega-loadgen --addr "127.0.0.1:$(cat "$SMOKE_DIR/port")" \
  --top 3 --top-interval-ms 100 | tee "$SMOKE_DIR/top.txt"
grep -q "vega-top: rps=" "$SMOKE_DIR/top.txt"
# A second loadgen pass shuts the daemon down (repeats all hit the cache).
target/release/vega-loadgen --addr "127.0.0.1:$(cat "$SMOKE_DIR/port")" \
  --requests 8 --conns 2 --distinct 4 \
  --shutdown | tee "$SMOKE_DIR/loadgen2.txt"
wait "$SERVE_PID"
grep -q "loadgen: shutdown=ok" "$SMOKE_DIR/loadgen2.txt"
grep -q "^served requests=" "$SMOKE_DIR/serve.log"
grep -q "serve.request" "$SMOKE_DIR/trace.jsonl"
echo "serve smoke: ok"

# Chaos stage: the same checkpoint served under a deterministic fault plan
# (connection drops, stalls, corrupt frames — server side only; the plan is
# set on the daemon's environment, not exported). The retrying loadgen must
# still verify byte-identical responses, and the trace must record the
# injected faults.
echo "== chaos =="
VEGA_FAULT_PLAN="seed=11;serve.conn.drop=0.15;serve.conn.stall=0.1:25;serve.conn.corrupt=0.1" \
  target/release/vega-serve --checkpoint "$SMOKE_DIR/ckpt.json" --scale tiny \
  --port-file "$SMOKE_DIR/chaos-port" --trace-out "$SMOKE_DIR/chaos-trace.jsonl" \
  > "$SMOKE_DIR/chaos-serve.log" &
CHAOS_PID=$!
for _ in $(seq 1 150); do
  [ -s "$SMOKE_DIR/chaos-port" ] && break
  sleep 0.2
done
[ -s "$SMOKE_DIR/chaos-port" ] || { echo "chaos vega-serve never wrote its port file"; exit 1; }
target/release/vega-loadgen --addr "127.0.0.1:$(cat "$SMOKE_DIR/chaos-port")" \
  --requests 24 --conns 4 --distinct 4 \
  --verify-checkpoint "$SMOKE_DIR/ckpt.json" --scale tiny \
  --shutdown | tee "$SMOKE_DIR/chaos-loadgen.txt"
wait "$CHAOS_PID"
grep -q "loadgen: verify=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "loadgen: cache=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "loadgen: trace=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "loadgen: shutdown=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "fault.injected.serve.conn" "$SMOKE_DIR/chaos-trace.jsonl"
echo "chaos: ok"

# Checkpoint v2 + hot swap: the binary mmap format's fault suite (truncation,
# bit flips, version skew, a doctored tensor table, a crash mid-save), the
# live-swap e2e with chaos injection at pool sizes 1 and 4, and v1↔v2
# interop through the CLI (the serve smoke above already runs on a v2
# checkpoint — `--save-model` defaults to `--ckpt-format v2`). The headline
# artifact must be bit-identical whichever format the model reloads from.
echo "== ckpt v2 =="
cargo test -q -p vega-model --test ckpt_v2
cargo test -q -p vega-serve --test swap_e2e
target/release/vega-experiments headline --scale tiny \
  --load-model "$SMOKE_DIR/ckpt.json" \
  --save-model "$SMOKE_DIR/ckpt-v1.json" --ckpt-format v1 \
  > "$SMOKE_DIR/headline-v2load.txt"
target/release/vega-experiments headline --scale tiny \
  --load-model "$SMOKE_DIR/ckpt-v1.json" > "$SMOKE_DIR/headline-v1load.txt"
diff "$SMOKE_DIR/headline-v2load.txt" "$SMOKE_DIR/headline-v1load.txt"
echo "ckpt v2: ok"

# Checkpoint bench smoke: v2 replica spawn must stay O(header) — at least
# 10x faster than a v1 deep copy — and both formats must decode
# bit-identical weights.
echo "== ckpt bench smoke =="
VEGA_CKPT_BENCH_FAST=1 VEGA_BENCH_OUT="$SMOKE_DIR/BENCH_ckpt.json" \
  cargo bench -p vega-bench --bench ckpt | tee "$SMOKE_DIR/ckpt-bench.txt"
grep -q "ckpt: smoke=ok" "$SMOKE_DIR/ckpt-bench.txt"

# Serve bench smoke: on the score path with a deploy-shaped model, the
# one-pass prefill scorer must beat the token-stepped loop it replaced,
# scoring a request's candidates on one decode session (one encoder pass)
# must beat one forced_logprob per candidate, and one batched
# forced_logprobs call over the candidates must beat one forced_logprob per
# candidate on one encoded state (the batched floor).
echo "== serve bench smoke =="
VEGA_SERVE_BENCH_FAST=1 VEGA_BENCH_OUT="$SMOKE_DIR/BENCH_serve.json" \
  cargo bench -p vega-bench --bench serve | tee "$SMOKE_DIR/serve-bench.txt"
grep -q "serve: smoke=ok" "$SMOKE_DIR/serve-bench.txt"

# End-to-end benchmark: vegabench is a package of its own (an empty
# `[workspace]`, path dependencies on `crates/*`), so the workspace build
# above never compiles it. Build and unit-test it, then run every workload
# once, briefly. A run exits non-zero when any served or generated output
# mismatched its direct in-process twin, which fails this stage.
echo "== vegabench =="
cargo test --release --offline --manifest-path vegabench/Cargo.toml
for w in fig7 serve-backend serve-score; do
  cargo run --release --quiet --offline --manifest-path vegabench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0 > "$SMOKE_DIR/vegabench-$w.txt"
  tail -n 1 "$SMOKE_DIR/vegabench-$w.txt"
done
echo "vegabench: ok"

echo "ci: all checks passed"
