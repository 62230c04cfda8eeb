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

# Lints over every target (tests, benches, examples included). Warnings are
# printed; a deny-level lint (clippy's correctness group, e.g.
# `approx_constant`) fails the gate.
echo "== clippy =="
cargo clippy --workspace --all-targets

# The suite runs twice so the determinism promise is exercised at both a
# sequential and a parallel vega-par pool size (outputs must be identical).
echo "== test (VEGA_THREADS=1) =="
VEGA_THREADS=1 cargo test -q --workspace

echo "== test (VEGA_THREADS=4) =="
VEGA_THREADS=4 cargo test -q --workspace

SMOKE_DIR=$(mktemp -d)
# The vegabench stage below rewrites the benchmark's lock file (cargo
# resolves the benchmark's own workspace), so exit puts the saved copy back.
cp -p vegabench/Cargo.lock "$SMOKE_DIR/vegabench.Cargo.lock"
trap 'cp -p "$SMOKE_DIR/vegabench.Cargo.lock" vegabench/Cargo.lock; rm -rf "$SMOKE_DIR"' EXIT

# Decode fast path: both workspace runs above include
# `crates/nn/tests/decode_equivalence.rs`, which holds the incremental
# KV-cached decoder bit-identical to the autograd-graph reference and its
# primitives (`step_many`, the one-pass forced-scoring prefill, the forked
# candidate forward) bitwise sound. The decode bench smoke below asserts the
# incremental path is not slower than the graph path on the small config.

# Every kernel ISA computes the same bits: both workspace runs above include
# the kernel conformance suite, which switches ISA in process and compares
# every op bit for bit, and the root tier-1 contracts, whose ISA case trains
# and decodes a model under each ISA. The decode bench smoke below asserts
# the same identity on its timed workloads and pins the AVX2-vs-scalar
# floors (transposed matmul, forks8).

# Headline identity: the tiny headline run is a pure function of its seed —
# the same bytes at any thread count and under either kernel ISA — so its
# stdout must match the committed golden byte for byte.
echo "== headline identity =="
target/release/vega-experiments headline --scale tiny \
  --epochs 1 --pretrain 0 > "$SMOKE_DIR/headline-tiny.txt"
diff tests/golden/headline_tiny.txt "$SMOKE_DIR/headline-tiny.txt"
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
  --save-model "$SMOKE_DIR/model.ckpt" > "$SMOKE_DIR/headline.txt"
target/release/vega-serve --checkpoint "$SMOKE_DIR/model.ckpt" --scale tiny \
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
  --verify-checkpoint "$SMOKE_DIR/model.ckpt" --scale tiny \
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
  target/release/vega-serve --checkpoint "$SMOKE_DIR/model.ckpt" --scale tiny \
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
  --verify-checkpoint "$SMOKE_DIR/model.ckpt" --scale tiny \
  --shutdown | tee "$SMOKE_DIR/chaos-loadgen.txt"
wait "$CHAOS_PID"
grep -q "loadgen: verify=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "loadgen: cache=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "loadgen: trace=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "loadgen: shutdown=ok" "$SMOKE_DIR/chaos-loadgen.txt"
grep -q "fault.injected.serve.conn" "$SMOKE_DIR/chaos-trace.jsonl"
echo "chaos: ok"

# Checkpoint v2 + hot swap: the binary mmap format's fault suite (a missing
# file, truncation, bit flips, version skew, a doctored tensor table, a crash
# mid-save), the live-swap e2e with chaos injection at pool sizes 1 and 4,
# and a round trip through the CLI: the serve smoke's checkpoint, loaded and
# saved again, must be byte-identical to itself, and the headline rendered
# from the loaded model must match the one its training run printed.
echo "== ckpt v2 =="
cargo test -q -p vega-model --test ckpt_v2
cargo test -q -p vega-serve --test swap_e2e
target/release/vega-experiments headline --scale tiny \
  --load-model "$SMOKE_DIR/model.ckpt" \
  --save-model "$SMOKE_DIR/model-resaved.ckpt" \
  > "$SMOKE_DIR/headline-load.txt"
cmp "$SMOKE_DIR/model.ckpt" "$SMOKE_DIR/model-resaved.ckpt"
diff "$SMOKE_DIR/headline.txt" "$SMOKE_DIR/headline-load.txt"
echo "ckpt v2: ok"

# Checkpoint bench smoke: mapped replica spawn must stay O(header) — at
# least 10x faster than deep-copying an owned model — and the mapped model
# must re-encode to the owned model's bytes.
echo "== ckpt bench smoke =="
VEGA_CKPT_BENCH_FAST=1 VEGA_BENCH_OUT="$SMOKE_DIR/BENCH_ckpt.json" \
  cargo bench -p vega-bench --bench ckpt | tee "$SMOKE_DIR/ckpt-bench.txt"
grep -q "ckpt: smoke=ok" "$SMOKE_DIR/ckpt-bench.txt"

# Serve bench smoke: on the score path with a deploy-shaped model, the
# one-pass prefill scorer must beat the token-stepped loop it replaced,
# scoring a request's candidates on one decode session (one encoder pass)
# must beat one forced_logprob per candidate, and one batched
# forced_logprobs call over the candidates must beat one forced_logprob per
# candidate on one encoded state (the batched floor); on the tiny pipeline,
# a cached backend request must beat a replay of the per-group work a hit
# used to do (the cached-backend floor).
echo "== serve bench smoke =="
VEGA_SERVE_BENCH_FAST=1 VEGA_BENCH_OUT="$SMOKE_DIR/BENCH_serve.json" \
  cargo bench -p vega-bench --bench serve | tee "$SMOKE_DIR/serve-bench.txt"
grep -q "serve: smoke=ok" "$SMOKE_DIR/serve-bench.txt"

# Generate bench smoke: on the tiny pipeline, ranking one RISC-V backend's
# slots through `rank_by_name` (each candidate keyed once) must beat the
# comparator sort it replaced by the floor, with both orders asserted equal
# first, and the replay must rank exactly what generation ranks.
echo "== generate bench smoke =="
VEGA_GENERATE_BENCH_FAST=1 VEGA_BENCH_OUT="$SMOKE_DIR/BENCH_generate.json" \
  cargo bench -p vega-bench --bench generate | tee "$SMOKE_DIR/generate-bench.txt"
grep -q "generate: smoke=ok" "$SMOKE_DIR/generate-bench.txt"

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
