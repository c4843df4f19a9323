#!/usr/bin/env bash
# Repo gate: lint, formatting, and the tier-1 build/test cycle.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

# Kernel determinism gate: the cached fault kernel must stay bit-identical
# to the per-word reference path, the bit-sliced dense-region backend
# must stay bit-identical to the scalar one — one-shot and carried, from
# guardband and dense starts — and the count-only knot-histogram descent
# must count exactly what the carried descent does, under every backend,
# and panic where documented. The case count is fixed in-file
# (with_cases) so this run is reproducible. The carry start's radix
# ordering must equal a comparison sort, and the analytic predictor's
# shift-indexed rates must equal its per-cell reference bit for bit.
echo "==> kernel bit-identity property tests"
cargo test -q -p hbm-faults --test properties kernel_
cargo test -q -p hbm-faults --test properties bitsliced
cargo test -q -p hbm-faults --test properties count_descent
cargo test -q -p hbm-faults --lib pending_radix
cargo test -q -p hbm-faults --lib analytic

# Coupled fault-field gate: inclusion monotonicity by construction, the
# carried working set's bit-identity to from-scratch rescans (injector
# and sweep layer), and legacy/coupled rate agreement.
echo "==> coupled-field monotonicity and incremental-equality tests"
cargo test -q -p hbm-faults --test properties coupled
cargo test -q -p hbm-faults --test properties legacy_and_coupled_rates_agree
cargo test -q -p hbm-undervolt --lib coupled

# Resilience gate: kill-at-every-point resume bit-identity, retry backoff,
# quarantine records, and the hbmctl exit-code contract.
echo "==> resilient sweep runtime tests"
cargo test -q --test resilience
cargo test -q -p hbm-undervolt --test cli

# Smoke: every paper figure, byte-for-byte against the committed golden.
echo "==> all_figures golden"
./target/release/all_figures | cmp - scripts/golden/all_figures.txt

# Smoke: deep in the dense regime (840 mV), a forced-scalar sweep and a
# forced-bit-sliced sweep must emit byte-identical CSV reports.
echo "==> hbmctl sweep --kernel scalar/bitsliced smoke"
csvs="$(mktemp -u /tmp/hbmctl-kernel-scalar-XXXXXX.csv)"
csvb="$(mktemp -u /tmp/hbmctl-kernel-bitsliced-XXXXXX.csv)"
./target/release/hbmctl sweep --from 860 --to 840 --step 10 --words 64 \
    --kernel scalar --format csv >"$csvs"
./target/release/hbmctl sweep --from 860 --to 840 --step 10 --words 64 \
    --kernel bitsliced --format csv >"$csvb"
cmp "$csvs" "$csvb"
rm -f "$csvs" "$csvb"

# Smoke: a checkpointed supervised sweep resumes from its own file.
echo "==> hbmctl sweep --checkpoint/--resume smoke"
ckpt="$(mktemp -u /tmp/hbmctl-check-XXXXXX.json)"
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --checkpoint "$ckpt" >/dev/null
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --checkpoint "$ckpt" --resume >/dev/null
rm -f "$ckpt"

# Telemetry gate: deterministic event traces, CSV escaping, checkpoint
# durability and the millivolt parser hardening.
echo "==> telemetry, CSV-escaping and checkpoint-durability tests"
cargo test -q --test telemetry_determinism
cargo test -q -p hbm-undervolt --lib telemetry
cargo test -q -p hbm-undervolt --lib report::tests
cargo test -q -p hbm-undervolt --lib persist_atomic
cargo test -q -p hbm-units millivolt

# Smoke: the JSONL trace of a fixed-seed sweep is byte-identical across
# worker counts and records the sweep lifecycle.
echo "==> hbmctl sweep --trace-file smoke"
trace1="$(mktemp -u /tmp/hbmctl-trace-w1-XXXXXX.jsonl)"
trace4="$(mktemp -u /tmp/hbmctl-trace-w4-XXXXXX.jsonl)"
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --workers 1 --trace-file "$trace1" >/dev/null
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --workers 4 --trace-file "$trace4" >/dev/null
cmp "$trace1" "$trace4"
grep -q SweepCompleted "$trace1"
rm -f "$trace1" "$trace4"

# Fleet determinism gate: per-device records, artifact bytes and
# population percentiles bit-identical across worker counts and shuffled
# scheduling, plus artifact roundtrip and version-bump rejection.
echo "==> fleet determinism property tests"
cargo test -q -p hbm-fleet --test properties
cargo test -q --test fleet_determinism

# Smoke: a small fleet sweep persists a columnar artifact the query and
# summary paths can read, and its JSON export is byte-identical to the
# committed golden — any drift in the engine, the artifact codec or the
# export serialization fails the gate.
echo "==> hbmctl fleet sweep/query/export smoke"
hbfa="$(mktemp -u /tmp/hbmctl-fleet-XXXXXX.hbfa)"
fjson="$(mktemp -u /tmp/hbmctl-fleet-XXXXXX.json)"
./target/release/hbmctl fleet sweep --devices 4 --words 8 \
    --from 960 --to 820 --step 20 --weak-reference 900 \
    --out "$hbfa" >/dev/null
./target/release/hbmctl fleet query --artifact "$hbfa" --device 2 >/dev/null
./target/release/hbmctl fleet summary --artifact "$hbfa" >/dev/null
./target/release/hbmctl fleet export --artifact "$hbfa" >"$fjson"
cmp "$fjson" scripts/golden/fleet_smoke.json
rm -f "$hbfa" "$fjson"

# Compressed-model fidelity gate: the envelope soundness and
# exact-agreement property tests, plus the model codec unit tests.
echo "==> compressed-model fidelity property tests"
cargo test -q -p hbm-fleet --lib model
cargo test -q -p hbm-fleet --test properties compressed
cargo test -q -p hbm-fleet --test properties fidelity
cargo test -q -p hbm-fleet --test properties v2_with_exact

# Smoke: sweep -> compress -> fidelity -> serve. The LDJSON answers a
# serve session gives from the compressed (model-only) artifact must be
# byte-identical to the committed golden — recommendation routing, the
# typed error surface and the wire format are all pinned at once.
echo "==> hbmctl fleet compress/fidelity/serve smoke"
hbfa="$(mktemp -u /tmp/hbmctl-fleet-exact-XXXXXX.hbfa)"
chbfa="$(mktemp -u /tmp/hbmctl-fleet-model-XXXXXX.hbfa)"
sjson="$(mktemp -u /tmp/hbmctl-serve-XXXXXX.jsonl)"
./target/release/hbmctl fleet sweep --devices 3 --words 8 \
    --from 960 --to 820 --step 20 --weak-reference 900 \
    --out "$hbfa" >/dev/null
./target/release/hbmctl fleet compress --artifact "$hbfa" \
    --out "$chbfa" >/dev/null
./target/release/hbmctl fleet fidelity --artifact "$hbfa" >/dev/null
printf '%s\n' \
    '{"Recommend":{"device_id":1,"target_rate":0.01,"min_pcs":16}}' \
    '"Summary"' \
    '{"Recommend":{"device_id":1,"target_rate":0.0,"min_pcs":16}}' \
    'not json' \
    | ./target/release/hbmctl serve --artifact "$chbfa" 2>/dev/null >"$sjson"
cmp "$sjson" scripts/golden/serve_smoke.jsonl

# Serve-concurrency gate: the pipeline's in-order emitter makes the
# worker count throughput-only — the same request file must produce
# byte-identical output at 1 and 4 workers, and the determinism
# proptests plus the single-flight cache tests must hold.
echo "==> serve-concurrency smoke and pipeline property tests"
s1json="$(mktemp -u /tmp/hbmctl-serve-w1-XXXXXX.jsonl)"
s4json="$(mktemp -u /tmp/hbmctl-serve-w4-XXXXXX.jsonl)"
printf '%s\n' \
    '{"Recommend":{"device_id":1,"target_rate":0.01,"min_pcs":16}}' \
    '"Summary"' \
    '{"Recommend":{"device_id":0,"target_rate":0.001,"min_pcs":16}}' \
    '{"Recommend":{"device_id":2,"target_rate":0.0001,"min_pcs":16}}' \
    'not json' \
    '{"Recommend":{"device_id":9,"target_rate":0.01,"min_pcs":16}}' \
    | ./target/release/hbmctl serve --artifact "$chbfa" \
        --serve-workers 1 2>/dev/null >"$s1json"
printf '%s\n' \
    '{"Recommend":{"device_id":1,"target_rate":0.01,"min_pcs":16}}' \
    '"Summary"' \
    '{"Recommend":{"device_id":0,"target_rate":0.001,"min_pcs":16}}' \
    '{"Recommend":{"device_id":2,"target_rate":0.0001,"min_pcs":16}}' \
    'not json' \
    '{"Recommend":{"device_id":9,"target_rate":0.01,"min_pcs":16}}' \
    | ./target/release/hbmctl serve --artifact "$chbfa" \
        --serve-workers 4 2>/dev/null >"$s4json"
cmp "$s1json" "$s4json"
cargo test -q -p hbm-fleet --test serve_pipeline
cargo test -q -p hbm-fleet --lib pipeline
rm -f "$hbfa" "$chbfa" "$sjson" "$s1json" "$s4json"

# Voltage–latency coupling gate: stretch monotonicity, worker-count
# invariance of effective timings, and governor bit-identity per
# (seed, config), plus the governor/trade-off unit suites.
echo "==> voltage-latency coupling property tests"
cargo test -q -p hbm-undervolt --test latency_timing
cargo test -q -p hbm-undervolt --lib governor
cargo test -q -p hbm-undervolt --lib trade_off

# Smoke: a flip-only throughput descent and a latency-budgeted descent on
# the same seed, pinned byte-for-byte against committed goldens — and the
# headline result re-derived from them: the latency-aware governor settles
# strictly higher than the throughput one.
echo "==> hbmctl governor latency-vs-throughput smoke"
gthr="$(mktemp -u /tmp/hbmctl-governor-thr-XXXXXX.csv)"
glat="$(mktemp -u /tmp/hbmctl-governor-lat-XXXXXX.csv)"
./target/release/hbmctl governor --workload throughput --canary-words 64 \
    --format csv >"$gthr"
./target/release/hbmctl governor --workload latency --latency-budget 33 \
    --canary-words 64 --format csv >"$glat"
cmp "$gthr" scripts/golden/governor_throughput.csv
cmp "$glat" scripts/golden/governor_latency.csv
thr_mv="$(awk -F, 'NR==2{print $3}' "$gthr")"
lat_mv="$(awk -F, 'NR==2{print $3}' "$glat")"
test "$lat_mv" -gt "$thr_mv"
rm -f "$gthr" "$glat"

# Forced-crash trace: the recovery story must appear as typed events.
tracec="$(mktemp -u /tmp/hbmctl-trace-crash-XXXXXX.jsonl)"
ckptc="$(mktemp -u /tmp/hbmctl-check-crash-XXXXXX.json)"
./target/release/hbmctl sweep --from 850 --to 790 --step 10 --words 8 \
    --transient-prob 1 --retries 2 --checkpoint "$ckptc" \
    --trace-file "$tracec" >/dev/null
for event in RetryScheduled PowerCycled CheckpointWritten SweepCompleted; do
    grep -q "$event" "$tracec"
done
rm -f "$tracec" "$ckptc"

echo "All checks passed."
