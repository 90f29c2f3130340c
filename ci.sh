#!/usr/bin/env sh
# Tier-1 gate for the workspace, runnable locally and in CI:
#   1. release build of every target,
#   2. the full test suite,
#   3. every runnable example,
#   4. an `htd` CLI smoke run (characterize -> score -> report -> diff),
#   5. the standalone benchmark package's build and tests,
#   6. clippy with warnings denied,
#   7. rustfmt check,
#   8. rustdoc with warnings denied.
# The build is fully offline: the three external dependencies (rand,
# proptest, criterion) are vendored API shims under vendor/.
set -eu

echo "==> cargo build --release"
cargo build --release --all-targets

echo "==> cargo test"
cargo test -q

for ex in quickstart delay_audit fab_audit trojan_zoo eda_flow; do
    echo "==> cargo run --release --example $ex"
    cargo run --release --example "$ex"
done

echo "==> htd CLI smoke"
HTD_SMOKE_DIR="${TMPDIR:-/tmp}/htd-ci-smoke-$$"
# Clean the scratch directory however the script exits — a failing smoke
# step used to leak it (the rm -rf only ran on the success path).
trap 'rm -rf "$HTD_SMOKE_DIR"' EXIT
mkdir -p "$HTD_SMOKE_DIR"
HTD=target/release/htd
"$HTD" characterize --out "$HTD_SMOKE_DIR/golden.htd" \
    --dies 6 --pairs 2 --reps 2 --seed 42 --channels em,delay
"$HTD" score --golden "$HTD_SMOKE_DIR/golden.htd" --trojans ht2 \
    --report "$HTD_SMOKE_DIR/report.htd"
"$HTD" report "$HTD_SMOKE_DIR/report.htd" --csv >/dev/null
"$HTD" diff "$HTD_SMOKE_DIR/report.htd" "$HTD_SMOKE_DIR/report.htd"

echo "==> htd fault-injection smoke"
# The same golden artifact scored under the committed fault plan must
# reproduce the committed degraded report, byte for byte (`htd diff`
# exits non-zero otherwise).
"$HTD" score --golden "$HTD_SMOKE_DIR/golden.htd" --trojans ht2 \
    --faults tests/fixtures/faultplan.htd --max-retries 2 --allow-degraded \
    --report "$HTD_SMOKE_DIR/degraded.htd"
"$HTD" diff "$HTD_SMOKE_DIR/degraded.htd" tests/fixtures/degraded_report.htd

echo "==> htd metrics smoke (BENCH_pipeline.json, TRACE_pipeline.json)"
# The paper-headline campaign with --metrics and --trace. The manifest's
# counter section is deterministic (worker-invariant), so it is diffed
# against the committed fixture; timings are observational and never
# compared. `report --metrics` parses both files strictly, so any schema
# drift in the writer fails here before the diff even runs. The trace
# export stays in the workspace as a CI artifact (open it in
# chrome://tracing); its presence gates that tracing still exports.
"$HTD" characterize --out "$HTD_SMOKE_DIR/headline.htd" \
    --dies 8 --pairs 2 --reps 2 --seed 2015 --channels em,delay
"$HTD" score --golden "$HTD_SMOKE_DIR/headline.htd" --trojans sweep \
    --metrics BENCH_pipeline.json --trace TRACE_pipeline.json >/dev/null
test -s TRACE_pipeline.json
"$HTD" report --metrics BENCH_pipeline.json --counters \
    >"$HTD_SMOKE_DIR/bench.counters"
"$HTD" report --metrics tests/fixtures/run_manifest.json --counters \
    >"$HTD_SMOKE_DIR/pinned.counters"
diff "$HTD_SMOKE_DIR/bench.counters" "$HTD_SMOKE_DIR/pinned.counters"
# The structural gate over the full manifest: counters, plan digest and
# command must match the committed baseline exactly (exit 4 otherwise);
# timings pass ungated — they are machine noise in CI.
"$HTD" bench diff tests/fixtures/bench_baseline_pipeline.json BENCH_pipeline.json

echo "==> htd zoo smoke"
# A tiny trigger-size x channel sweep; the heat-map CSV is deterministic
# (worker-invariant), so it is diffed against the committed fixture.
"$HTD" zoo --sizes 4,8 --kinds comb,fsm --dies 3 --pairs 2 --reps 2 \
    --seed 42 --channels em,delay --csv "$HTD_SMOKE_DIR/zoo.csv" >/dev/null
diff "$HTD_SMOKE_DIR/zoo.csv" tests/fixtures/zoo_smoke.csv

echo "==> htd scoring-modes smoke (held-out FN rate)"
# Learned mode: train a classifier on the zoo grid with the whole
# counter-trigger family held out, then score the paper's sequential
# counter trojan (ht-seq, unseen family) through the model. The learned
# row's FN rate is deterministic, so the CSV is diffed against the
# committed fixture.
"$HTD" train --out "$HTD_SMOKE_DIR/model.htd" --sizes 8,16 --kinds comb,ctr,fsm \
    --holdout ctr --dies 6 --pairs 2 --reps 2 --seed 42 --iterations 50
"$HTD" score --golden "$HTD_SMOKE_DIR/golden.htd" --model "$HTD_SMOKE_DIR/model.htd" \
    --trojans ht-seq --report "$HTD_SMOKE_DIR/learned.htd"
"$HTD" report "$HTD_SMOKE_DIR/learned.htd" --csv >"$HTD_SMOKE_DIR/learned.csv"
diff "$HTD_SMOKE_DIR/learned.csv" tests/fixtures/learned_smoke.csv
# Reference-free mode: characterize without a golden reference and score
# it, fault-free and under the committed fault plan. Both reports must
# reproduce their committed fixtures byte for byte.
"$HTD" characterize --out "$HTD_SMOKE_DIR/reffree.htd" --mode reference-free \
    --dies 4 --pairs 2 --reps 2 --seed 42 --channels em,delay
"$HTD" diff "$HTD_SMOKE_DIR/reffree.htd" "$HTD_SMOKE_DIR/reffree.htd"
"$HTD" score --golden "$HTD_SMOKE_DIR/reffree.htd" --trojans ht2 \
    --report "$HTD_SMOKE_DIR/reffree-report.htd"
"$HTD" report "$HTD_SMOKE_DIR/reffree-report.htd" --csv >/dev/null
"$HTD" diff "$HTD_SMOKE_DIR/reffree-report.htd" tests/fixtures/reffree_report.htd
"$HTD" score --golden "$HTD_SMOKE_DIR/reffree.htd" --trojans ht2 \
    --faults tests/fixtures/faultplan.htd --max-retries 2 --allow-degraded \
    --report "$HTD_SMOKE_DIR/reffree-degraded.htd"
"$HTD" diff "$HTD_SMOKE_DIR/reffree-degraded.htd" \
    tests/fixtures/reffree_degraded_report.htd

echo "==> htd power-chain smoke"
# The three-channel campaign (EM, power, delay) characterized in both
# modes and scored: each report must reproduce its committed fixture
# byte for byte, so the power chain is pinned through the CLI too.
for mode in golden reference-free; do
    "$HTD" characterize --out "$HTD_SMOKE_DIR/power-$mode.htd" --mode "$mode" \
        --dies 4 --pairs 2 --reps 2 --seed 42 --channels em,power,delay
    "$HTD" score --golden "$HTD_SMOKE_DIR/power-$mode.htd" --trojans ht2 \
        --report "$HTD_SMOKE_DIR/power-$mode-report.htd" >/dev/null
done
"$HTD" diff "$HTD_SMOKE_DIR/power-golden-report.htd" tests/fixtures/power_report.htd
"$HTD" diff "$HTD_SMOKE_DIR/power-reference-free-report.htd" \
    tests/fixtures/reffree_power_report.htd

echo "==> htd hostile-artifact smoke"
# tests/fixtures/golden.htd is checksum-valid, but its 4-sample EM trace
# does not match what the lab acquires. Scoring against it must fail as
# a usage error (exit 2), never as a panic (exit 101).
HTD_STATUS=0
"$HTD" score --golden tests/fixtures/golden.htd --trojans ht2 \
    2>"$HTD_SMOKE_DIR/hostile.err" || HTD_STATUS=$?
[ "$HTD_STATUS" -eq 2 ] || {
    cat "$HTD_SMOKE_DIR/hostile.err"
    echo "htd score on a mis-shaped golden exited $HTD_STATUS, expected 2"
    exit 1
}

echo "==> htd serve smoke (BENCH_serve.json)"
# A real scoring server on an ephemeral port. Two gates: the response
# `htd bench --dump` captures must be byte-identical to the pinned
# offline report (served == offline, the subsystem's core claim), and a
# short load run must leave BENCH_serve.json as the CI throughput
# artifact. The trap kill is a fallback for mid-smoke failures; the
# success path shuts the server down over the protocol and waits.
"$HTD" characterize --out "$HTD_SMOKE_DIR/serve-golden.htd" \
    --dies 3 --pairs 2 --reps 2 --seed 42 --channels em,delay
"$HTD" serve --addr 127.0.0.1:0 >"$HTD_SMOKE_DIR/serve.log" 2>&1 &
HTD_SERVE_PID=$!
# `|| true`: on the success path the server has already exited, and a
# failing kill under `set -e` would turn a green run into exit status 1.
trap 'kill "$HTD_SERVE_PID" 2>/dev/null || true; rm -rf "$HTD_SMOKE_DIR"' EXIT
HTD_SERVE_ADDR=
for _ in $(seq 1 100); do
    HTD_SERVE_ADDR=$(sed -n 's/^serving on //p' "$HTD_SMOKE_DIR/serve.log")
    [ -n "$HTD_SERVE_ADDR" ] && break
    sleep 0.1
done
[ -n "$HTD_SERVE_ADDR" ] || { cat "$HTD_SMOKE_DIR/serve.log"; exit 1; }
"$HTD" bench --serve --addr "$HTD_SERVE_ADDR" \
    --golden "$HTD_SMOKE_DIR/serve-golden.htd" --suspects ht1 \
    --requests 1 --clients 1 --dump "$HTD_SMOKE_DIR/served.htd" >/dev/null
diff "$HTD_SMOKE_DIR/served.htd" tests/fixtures/serve_response.htd
"$HTD" bench --serve --addr "$HTD_SERVE_ADDR" \
    --golden "$HTD_SMOKE_DIR/serve-golden.htd" --suspects ht1,ht2,ht-seq \
    --requests 300 --clients 4 --json BENCH_serve.json --shutdown
wait "$HTD_SERVE_PID"
test -s BENCH_serve.json
# Same structural gate for the serve load: the request mix and outcome
# counts (300 ok, 0 errors) must match the committed baseline; the
# throughput and latency fields only gate when a --gate band is given.
"$HTD" bench diff tests/fixtures/bench_baseline_serve.json BENCH_serve.json

echo "==> criterion quick benches (BENCH_acquire.json)"
# The per-stage acquisition benches in quick mode: 3 samples each, with
# the shim's JSON emission producing a second BENCH trajectory next to
# BENCH_pipeline.json. Numbers are observational (never diffed); the run
# itself gates that every bench still executes.
HTD_BENCH_SAMPLES=3 HTD_BENCH_JSON="$PWD/BENCH_acquire.json" \
    cargo bench -p htd-bench --bench acquire_kernels
test -s BENCH_acquire.json

echo "==> benchmark package (build + tests)"
# benchmark/ is a separate package (its own workspace) and the only
# consumer of htd-core outside this workspace: building and testing it
# here catches an API break before the next benchmark run does.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -- -D warnings"
# The crates this tier touches are linted explicitly first (fast,
# focused diagnostics), then the whole workspace with every target.
cargo clippy -p htd-netlist -p htd-trojan -p htd-serve -p htd-obs \
    -p htd-core -p htd-stats -p htd-store -p htd-cli -- -D warnings
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> ci.sh: all green"
