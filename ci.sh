#!/usr/bin/env sh
# Tier-1 gate for the workspace, runnable locally and in CI:
#   1. release build of every target,
#   2. the full test suite, then on the release binary the contract
#      table, the heavy ignored replay differential and the campaign
#      memory bound,
#   3. every runnable example,
#   4. an `htd` CLI smoke: one invocation per verb, checking argument
#      plumbing and exit codes (byte identity is the contract table's),
#      plus the hostile-artifact exit and both `bench diff` baselines,
#   5. the standalone benchmark package's build and tests,
#   6. the oracle isolation check (no reference oracle in what `htd`
#      links),
#   7. clippy with warnings denied,
#   8. rustfmt check,
#   9. rustdoc with warnings denied.
# The build is fully offline: the three external dependencies (rand,
# proptest, criterion) are vendored API shims under vendor/.
set -eu

echo "==> cargo build --release"
cargo build --release --all-targets

echo "==> cargo test"
cargo test -q

echo "==> contract table (release)"
# tests/contracts.rs on the release binary: every pinned campaign shape
# against its fixtures, at 1, 2 and 8 workers, with observation on and
# off, under inert fault plans, served, and in memory.
cargo test --release -p htd-cli --test contracts

echo "==> heavy replay differential (ignored test, release)"
# 32 dies x {golden, HT-comb, HT-seq} x 2 pairs: the compiled replay's
# toggle streams and the acquisitions binned inside it, against the
# reference simulator and chains. Scoped to its own test target: the
# contract table's ignored `regenerate` rewrites the committed fixtures.
cargo test --release --test replay_differential -- --ignored

echo "==> campaign memory bound (ignored test, release)"
# A die-major campaign holds at most --workers programmed devices, so a
# 256-die characterize may peak at no more than twice a 32-die one
# (wait4 peak RSS of each htd child).
cargo test --release -p htd-cli --test cli -- --ignored characterize_peak_memory

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
"$HTD" version --json >/dev/null
# The paper-headline campaign with --metrics and --trace. The manifest's
# structure gates through `bench diff` against the committed baseline
# (counters, plan digest and command must match exactly, exit 4
# otherwise; timings pass ungated — they are machine noise in CI). The
# trace export stays in the workspace as a CI artifact (open it in
# chrome://tracing).
"$HTD" characterize --out "$HTD_SMOKE_DIR/golden.htd" \
    --dies 8 --pairs 2 --reps 2 --seed 2015 --channels em,delay
"$HTD" score --golden "$HTD_SMOKE_DIR/golden.htd" --trojans sweep \
    --metrics BENCH_pipeline.json --trace TRACE_pipeline.json >/dev/null
test -s TRACE_pipeline.json
"$HTD" report --metrics BENCH_pipeline.json --counters >/dev/null
"$HTD" bench diff tests/fixtures/bench_baseline_pipeline.json BENCH_pipeline.json
"$HTD" score --golden "$HTD_SMOKE_DIR/golden.htd" --trojans ht2 \
    --report "$HTD_SMOKE_DIR/report.htd" --scores-dir "$HTD_SMOKE_DIR/scores" >/dev/null
"$HTD" fuse "$HTD_SMOKE_DIR/scores/ht-2.em.scores.htd" \
    "$HTD_SMOKE_DIR/scores/ht-2.delay.scores.htd" >/dev/null
"$HTD" report "$HTD_SMOKE_DIR/report.htd" --csv >/dev/null
"$HTD" diff "$HTD_SMOKE_DIR/report.htd" "$HTD_SMOKE_DIR/report.htd"
"$HTD" zoo --sizes 4,8 --kinds comb,fsm --dies 3 --pairs 2 --reps 2 \
    --seed 42 --channels em,delay >/dev/null
"$HTD" train --out "$HTD_SMOKE_DIR/model.htd" --sizes 8,16 --kinds comb,ctr,fsm \
    --holdout ctr --dies 6 --pairs 2 --reps 2 --seed 42 --iterations 50

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
# A real scoring server on an ephemeral port, polled once by `htd top`
# and then load-tested: the run leaves BENCH_serve.json as the CI
# throughput artifact, and `bench diff` gates its request mix and
# outcome counts (300 ok, 0 errors) against the committed baseline. The
# trap kill is a fallback for mid-smoke failures; the success path shuts
# the server down over the protocol and waits.
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
"$HTD" top --addr "$HTD_SERVE_ADDR" --plain --iterations 1 >/dev/null
"$HTD" bench --serve --addr "$HTD_SERVE_ADDR" \
    --golden "$HTD_SMOKE_DIR/golden.htd" --suspects ht1,ht2,ht-seq \
    --requests 300 --clients 4 --json BENCH_serve.json \
    --dump "$HTD_SMOKE_DIR/served.htd" --shutdown
wait "$HTD_SERVE_PID"
test -s BENCH_serve.json
test -s "$HTD_SMOKE_DIR/served.htd"
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

echo "==> oracle isolation"
# The reference oracles live in the dev-only htd-oracle crate: nothing in
# `htd`'s normal dependency tree may depend on it, and no other library
# crate may ship an item hidden from its docs (the old way of shipping
# an oracle inside a product crate).
HTD_TREE=$(cargo tree --offline -e normal -p htd-cli --prefix none)
if printf '%s\n' "$HTD_TREE" | grep -q '^htd-oracle '; then
    echo "htd-oracle is in htd's normal dependency tree"
    exit 1
fi
if grep -rn 'doc(hidden)' crates/*/src | grep -v '^crates/oracle/'; then
    echo "a library crate outside crates/oracle ships a #[doc(hidden)] item"
    exit 1
fi

echo "==> cargo clippy -- -D warnings"
# The crates this tier touches are linted explicitly first (fast,
# focused diagnostics), then the whole workspace with every target.
cargo clippy -p htd-netlist -p htd-em -p htd-trojan -p htd-serve -p htd-obs \
    -p htd-par -p htd-core -p htd-stats -p htd-store -p htd-cli -p htd-oracle -- -D warnings
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> ci.sh: all green"
