#!/usr/bin/env bash
# Repository CI gate: build, test, lint, format, determinism. Run from the
# repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace

# Run the whole workspace's tests and compare the total against the
# committed baseline: a shrinking count means coverage silently regressed,
# a growing one means the baseline needs a (reviewed) bump. Either way the
# delta is printed so it is visible in CI logs.
test_log="$(mktemp)"
cargo test -q --workspace 2>&1 | tee "$test_log"
test_count="$(awk '/^test result:/ { total += $4 } END { print total + 0 }' "$test_log")"
rm -f "$test_log"
baseline="$(cat results/test_count.txt)"
echo "workspace tests: ${test_count} (baseline ${baseline}, delta $((test_count - baseline)))"
if [ "${test_count}" -ne "${baseline}" ]; then
    echo "test count moved from ${baseline} to ${test_count}: update" \
         "results/test_count.txt if the change is intentional." >&2
    exit 1
fi

# The benchmark harness (grbench/, run by BENCHMARK.json) is its own cargo
# workspace that path-depends on core, simkernel and storagesim, so
# `--workspace` above does not build it: a change that breaks it would
# otherwise pass. Build and test it against this tree in a temporary target
# dir, then put back the Cargo.lock an offline build rewrites, so no file
# under grbench/ changes.
grbench_target="$(mktemp -d)"
cp grbench/Cargo.lock "${grbench_target}/Cargo.lock.orig"
restore_grbench_lock() {
    cp "${grbench_target}/Cargo.lock.orig" grbench/Cargo.lock
    rm -rf "${grbench_target}"
}
trap restore_grbench_lock EXIT
CARGO_TARGET_DIR="${grbench_target}" \
    cargo test --release --offline --manifest-path grbench/Cargo.toml
restore_grbench_lock
trap - EXIT

cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check

# Docs gate: every intra-doc link must resolve, so a doc comment that still
# names a deleted type or function fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Determinism gate: E10 is seeded and wall-clock-free, so its CSV must be
# byte-identical on every run. Regenerate and diff against the committed copy.
cargo run --release -p gr-bench --bin exp_recovery >/dev/null
git diff --exit-code -- results/exp_recovery.csv || {
    echo "exp_recovery.csv changed: E10 is no longer deterministic (or the" \
         "committed results are stale — rerun and commit them)." >&2
    exit 1
}

# F2 and E9 drive the same LinnOS datapath as E10
# (`storagesim::sim::Datapath`) and are seeded on simulated time too: their
# CSVs are the oracles that the datapath still behaves the same, so they
# must regenerate byte-identical.
for csv in fig2_linnos exp_faults; do
    cargo run --release -p gr-bench --bin "${csv}" >/dev/null
    git diff --exit-code -- "results/${csv}.csv" || {
        echo "${csv}.csv changed: the LinnOS datapath is no longer" \
             "deterministic (or the committed results are stale — rerun" \
             "and commit them)." >&2
        exit 1
    }
done

# The other seeded experiments (Figure 1, E4–E8 and the probe ablation) run
# on simulated time too, so their CSVs must regenerate byte-identical. E8's
# CSV carries `modeled_ns` and `overhead_fraction` straight from the
# per-monitor counter blocks, so it also checks the engine's counting.
for csv in fig1_properties fig1_actions exp_drift exp_subsystems \
           exp_oscillation exp_dependency exp_incremental exp_probe_ablation; do
    cargo run --release -p gr-bench --bin "${csv}" >/dev/null
    git diff --exit-code -- "results/${csv}.csv" || {
        echo "${csv}.csv changed: the experiment is no longer deterministic" \
             "(or the committed results are stale — rerun and commit them)." >&2
        exit 1
    }
done

# Criterion smoke run: the offline criterion shim caps every benchmark at a
# ~25ms budget, so the whole suite is a fast sanity pass that the bench
# targets still run (the numbers themselves are not gated).
cargo bench -p gr-bench >/dev/null

# E11 determinism + hot-path invariants: the binary asserts that batched
# ingestion is observationally identical to (and >=3x faster than) the
# legacy path and that group commit shrinks the WAL; its CSV holds only
# deterministic columns and must be byte-identical on every run.
cargo run --release -p gr-bench --bin exp_hotpath >/dev/null
git diff --exit-code -- results/exp_hotpath.csv || {
    echo "exp_hotpath.csv changed: E11 is no longer deterministic (or the" \
         "committed results are stale — rerun and commit them)." >&2
    exit 1
}

# E12 determinism + telemetry invariants: the binary asserts telemetry-on
# ingestion stays within 3% of telemetry-off (median of per-pair on/off
# wall-time ratios over alternating pairs) with bit-identical outputs, and
# that the overhead-budget guardrail demotes the hog monitor; its CSV holds
# only deterministic counters and must be byte-identical every run.
cargo run --release -p gr-bench --bin exp_telemetry >/dev/null
git diff --exit-code -- results/exp_telemetry.csv || {
    echo "exp_telemetry.csv changed: E12 is no longer deterministic (or the" \
         "committed results are stale — rerun and commit them)." >&2
    exit 1
}
