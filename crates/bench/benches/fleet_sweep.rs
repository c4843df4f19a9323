//! Fleet-sweep bench: a 256-device population characterized through the
//! work-stealing engine at one worker and at full parallelism, recording
//! devices/second for both plus the columnar-artifact versus JSON-export
//! size per device, to `BENCH_fleet_sweep.json`.
//!
//! Two acceptance properties are asserted, not just recorded: the single-
//! and max-worker runs are bit-identical record for record, and the
//! columnar artifact is at least 5× smaller than the equivalent JSON
//! export of the same fleet.
//!
//! This is a plain `harness = false` binary (not Criterion) because the
//! deliverable is a machine-readable throughput record, not a statistical
//! distribution. Run with: `cargo bench -p hbm-bench --bench fleet_sweep`.

use std::time::Instant;

use hbm_fleet::{artifact, sweep, FleetConfig, FleetExport, FleetReport};
use serde::Serialize;

const SEED: u64 = 7;
const DEVICES: u32 = 256;
const ITERATIONS: u32 = 3;

#[derive(Serialize)]
struct Record {
    bench: &'static str,
    seed: u64,
    iterations: u32,
    host_cores: usize,
    devices: u32,
    pcs: u32,
    knots: usize,
    words_per_pc: u64,
    note: &'static str,
    single_worker_seconds: f64,
    single_worker_devices_per_sec: f64,
    max_workers: usize,
    max_worker_seconds: f64,
    max_worker_devices_per_sec: f64,
    parallel_speedup: f64,
    artifact_bytes: usize,
    artifact_bytes_per_device: f64,
    json_bytes: usize,
    json_bytes_per_device: f64,
    json_over_artifact: f64,
}

/// The bench fleet descends the fault-onset region (0.90 V down to the
/// crash band in 5 mV steps) — the slice a production guardband decision
/// actually characterizes, where every knot carries measured fault rates.
fn config(workers: usize) -> FleetConfig {
    FleetConfig {
        devices: DEVICES,
        base_seed: SEED,
        workers,
        from: hbm_units::Millivolts(900),
        down_to: hbm_units::Millivolts(820),
        step: hbm_units::Millivolts(5),
        weak_reference: hbm_units::Millivolts(900),
        ..FleetConfig::default()
    }
}

/// Best-of-N wall clock for one worker count, plus the final report (all
/// runs are bit-identical by the fleet determinism contract).
fn time_sweep(workers: usize) -> (f64, FleetReport) {
    let cfg = config(workers);
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..ITERATIONS {
        let start = Instant::now();
        let r = sweep::run(&cfg).expect("fleet sweep");
        best = best.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    (best, report.expect("at least one iteration"))
}

fn main() {
    println!("fleet_sweep: {DEVICES} devices, seed {SEED}, best of {ITERATIONS} runs");

    let (single_secs, single) = time_sweep(1);
    println!("  1 worker : {single_secs:.3}s");

    let (multi_secs, multi) = time_sweep(0);
    let max_workers = multi.stats.workers;
    let speedup = single_secs / multi_secs;
    println!("  {max_workers} workers: {multi_secs:.3}s  ({speedup:.2}x vs 1 worker)");

    // Parallelism is a pure scheduling change: every record must match
    // the sequential run bit for bit.
    assert_eq!(
        single.records, multi.records,
        "parallel fleet sweep diverged from the sequential run"
    );

    let cfg = config(0);
    let artifact_bytes = artifact::encode(&cfg, &multi.records).len();
    let json_bytes = FleetExport::from_records(&cfg, &multi.records)
        .to_json()
        .len();
    let ratio = json_bytes as f64 / artifact_bytes as f64;
    println!("  artifact {artifact_bytes} B vs JSON {json_bytes} B ({ratio:.1}x smaller)");
    assert!(
        artifact_bytes * 5 <= json_bytes,
        "columnar artifact must be >= 5x smaller than the JSON export \
         ({artifact_bytes} B vs {json_bytes} B)"
    );

    let record = Record {
        bench: "fleet_sweep",
        seed: SEED,
        iterations: ITERATIONS,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        devices: DEVICES,
        pcs: u32::from(cfg.geometry.total_pcs()),
        knots: cfg.knots().len(),
        words_per_pc: cfg.words_per_pc,
        note: "single- and max-worker runs asserted bit-identical record for \
               record; the columnar artifact is asserted >= 5x smaller than \
               the JSON export of the same fleet",
        single_worker_seconds: single_secs,
        single_worker_devices_per_sec: f64::from(DEVICES) / single_secs,
        max_workers,
        max_worker_seconds: multi_secs,
        max_worker_devices_per_sec: f64::from(DEVICES) / multi_secs,
        parallel_speedup: speedup,
        artifact_bytes,
        artifact_bytes_per_device: artifact_bytes as f64 / f64::from(DEVICES),
        json_bytes,
        json_bytes_per_device: json_bytes as f64 / f64::from(DEVICES),
        json_over_artifact: ratio,
    };

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet_sweep.json");
    let body = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(path, body + "\n").expect("write BENCH_fleet_sweep.json");
    println!("wrote {path}");
}
