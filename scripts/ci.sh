#!/usr/bin/env bash
# Offline-safe CI gate: format, lint, build, test, and a smoke run.
# Everything here works with zero network access — the workspace has no
# external dependencies by design (see Cargo.toml's proptest-tests note).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> smoke: quickstart example"
cargo run --release -q --example quickstart

echo "==> smoke: incast through the switched fabric"
cargo run --release -q --example incast

echo "==> smoke: Chrome trace export round-trip"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --example quickstart -- --trace-out "$tmp/trace.json"
test -s "$tmp/trace.json"
# A dropped-span export leads with a "partial export" instant; the
# report footer only WARNs, so the gate turns it into a hard failure.
if grep -q '"partial export"' "$tmp/trace.json"; then
  echo "FAIL: trace export was partial (timeline ring dropped spans)" >&2
  exit 1
fi

echo "==> smoke: telemetry plane (sampled incast, series + counter trace)"
# Writes a series document (archived with the bench snapshots) and a
# Chrome trace with the sampled counter tracks merged into the span
# timeline.
mkdir -p target/bench
cargo run --release -q --example quickstart -- --sample-every 100us --senders 64 \
  --series-out target/bench/BENCH_series.json --trace-out "$tmp/telemetry.json"
test -s target/bench/BENCH_series.json
grep -q '"ph": "C"' "$tmp/telemetry.json"
if grep -q '"partial export"' "$tmp/telemetry.json"; then
  echo "FAIL: telemetry trace export was partial (timeline ring dropped spans)" >&2
  exit 1
fi
# Ring evictions would silently truncate the series' early windows;
# obs.samples_dropped makes that visible and the gate makes it fatal.
if ! grep -q '"samples_dropped": 0' target/bench/BENCH_series.json; then
  echo "FAIL: telemetry series rings evicted samples (obs.samples_dropped != 0)" >&2
  exit 1
fi

echo "==> smoke: bench snapshot + regression gate (fig2 --quick)"
# The simulator is deterministic, so the quick sweep reproduces the
# committed baseline exactly; the gate exists to catch code changes that
# move a headline metric the wrong way. Snapshots land in target/bench
# so the workflow can archive them as artifacts.
mkdir -p target/bench
cargo run --release -q -p osiris-bench --bin fig2 -- --quick --bench-out target/bench/BENCH_fig2.json
test -s target/bench/BENCH_fig2.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_fig2.json target/bench/BENCH_fig2.json --threshold 5

echo "==> smoke: Figure 3 snapshot + regression gate (fig3 --quick)"
# The receive data path (per-cell CRC, double-cell DMA, UDP checksum)
# Figure 3 measures; same determinism argument as fig2.
cargo run --release -q -p osiris-bench --bin fig3 -- --quick --bench-out target/bench/BENCH_fig3.json > /dev/null
test -s target/bench/BENCH_fig3.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_fig3.json target/bench/BENCH_fig3.json --threshold 5

echo "==> smoke: loss sweep + regression gate (loss --quick)"
# Fault-plane gate: goodput under seeded cell loss must not sag and the
# recovery tail must not grow. Same determinism argument as fig2.
cargo run --release -q -p osiris-bench --bin loss -- --quick --bench-out target/bench/BENCH_loss.json
test -s target/bench/BENCH_loss.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_loss.json target/bench/BENCH_loss.json --threshold 5

echo "==> smoke: congestion-control smoke (cc --quick)"
# Fast sanity pass: one small lossy incast per scheme, with the bench's
# built-in assertion that every selective-repeat scheme converges.
cargo run --release -q -p osiris-bench --bin cc -- --quick > /dev/null

echo "==> congestion-control matrix + regression gate (cc, full)"
# The full matrix is virtual-time, deterministic, and cheap (~4 s), so
# the gate locks the headline itself: at 64 senders and 1% cell loss
# the best selective-repeat scheme must hold its goodput and tail, and
# the stop-and-wait collapse must stay collapsed (the ratio headline
# regresses if either side moves the wrong way).
cargo run --release -q -p osiris-bench --bin cc -- --bench-out target/bench/BENCH_cc.json > /dev/null
test -s target/bench/BENCH_cc.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_cc.json target/bench/BENCH_cc.json --threshold 5

echo "==> smoke: event-engine throughput gate (engine --quick)"
# Unlike fig2/loss, these headlines are wall-clock (events/sec), so the
# threshold is generous — the gate exists to catch order-of-magnitude
# regressions (e.g. an event-queue change that makes pops O(n)), not
# scheduler jitter.
cargo run --release -q -p osiris-bench --bin engine -- --quick --bench-out target/bench/BENCH_engine.json
test -s target/bench/BENCH_engine.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_engine.json target/bench/BENCH_engine.json --threshold 50

echo "==> repo benchmark: perfbench smoke test (release)"
# perfbench is its own cargo package, outside the workspace, so the
# workspace build and tests above never compile it. Its smoke test runs
# every workload briefly against the public osiris API and checks its
# correctness gates, so an API change that breaks the benchmark fails
# here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> smoke: bench harness compiles (criterion-free micro benches)"
cargo build --release -p osiris-bench --benches

echo "CI OK"
