//! Fleet-compress bench: fits parametric fault models for a 256-device
//! fault-onset grid (0.90 V down to the crash band in 5 mV steps),
//! recording fit throughput, the exact-vs-model storage ratio, and the
//! fidelity metrics of the compressed form, to
//! `BENCH_fleet_compress.json`.
//!
//! Two acceptance properties are asserted, not just recorded: the model
//! column is at least 20× smaller than the exact FAULTS column it
//! replaces, and the *served* operating-point recommendations from the
//! compressed (model-only) store agree with the exact ones on at least
//! 99% of devices — the fidelity envelope either proves the exact answer
//! or the service falls back to a rescan, so any miss here means the
//! envelope is unsound. The raw point-estimate agreement of the model
//! alone (no envelope, no fallback) is recorded alongside, together with
//! the fraction of queries the model decided without exact evidence.
//! That fraction is a worst case by construction: every synthetic device
//! here faults mid-grid, and a Recommend answer is the fault-onset
//! locator itself, whose marginal cells sit within a few percent of the
//! target threshold — closer than any sound 50-byte envelope can
//! certify, so the service correctly abstains to the rescan path.
//! Clean and crash-limited devices are decided model-only (pinned by the
//! serve-layer tests); mid-grid onsets are exactly where fallback is the
//! right answer.
//!
//! This is a plain `harness = false` binary (not Criterion) because the
//! deliverable is a machine-readable size/fidelity record, not a
//! statistical distribution. Run with:
//! `cargo bench -p hbm-bench --bench fleet_compress`.

use std::time::Instant;

use hbm_fleet::{artifact, model, sweep, FleetConfig, FleetRequest, FleetService, FleetStore};
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
    fit_seconds: f64,
    fit_devices_per_sec: f64,
    exact_bytes: u64,
    model_bytes: u64,
    compression_ratio: f64,
    artifact_bytes_exact: usize,
    artifact_bytes_compressed: usize,
    max_abs_rate_error: f64,
    mean_abs_rate_error: f64,
    weak_recall: f64,
    weak_precision: f64,
    v_min_agreement: f64,
    v_min_max_delta_mv: u16,
    operating_agreement: f64,
    served_agreement: f64,
    model_coverage: f64,
    serve_seconds: f64,
    serve_queries_per_sec: f64,
}

/// The same onset grid as the `fleet_sweep` bench: every knot below the
/// weak reference carries measured fault rates, which is exactly the
/// region the exponential onset model has to reproduce.
fn config() -> FleetConfig {
    FleetConfig {
        devices: DEVICES,
        base_seed: SEED,
        workers: 0,
        from: hbm_units::Millivolts(900),
        down_to: hbm_units::Millivolts(820),
        step: hbm_units::Millivolts(5),
        weak_reference: hbm_units::Millivolts(900),
        ..FleetConfig::default()
    }
}

fn main() {
    println!("fleet_compress: {DEVICES} devices, seed {SEED}, best of {ITERATIONS} runs");

    let cfg = config();
    let records = sweep::run(&cfg).expect("fleet sweep").records;
    let exact_artifact = artifact::encode(&cfg, &records);
    let exact = FleetStore::from_bytes(exact_artifact.clone()).expect("exact store");

    // Best-of-N wall clock for the deterministic fit alone (compression
    // minus artifact re-encoding).
    let mut fit_secs = f64::INFINITY;
    for _ in 0..ITERATIONS {
        let start = Instant::now();
        let models = model::fit_store(&exact).expect("fit models");
        fit_secs = fit_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(models.len(), DEVICES as usize);
    }
    println!(
        "  fit      : {fit_secs:.3}s ({:.0} devices/s)",
        f64::from(DEVICES) / fit_secs
    );

    let compressed_bytes = model::compress_store(&exact, false).expect("compress");
    let compressed_len = compressed_bytes.len();
    let with_model =
        FleetStore::from_bytes(model::compress_store(&exact, true).expect("compress keep-exact"))
            .expect("store with exact + model");
    let models = model::fit_store(&exact).expect("fit models");
    let report = model::FidelityReport::compute(&with_model, &models).expect("fidelity");

    println!(
        "  exact {} B vs model {} B ({:.1}x smaller); artifact {} B -> {} B",
        report.exact_bytes,
        report.model_bytes,
        report.compression_ratio,
        exact_artifact.len(),
        compressed_len
    );
    println!(
        "  fidelity : v_min agreement {:.3}, operating agreement {:.3}, \
         max |rate err| {:.2e}",
        report.v_min_agreement, report.operating_agreement, report.max_abs_rate_error
    );

    assert!(
        report.compression_ratio >= 20.0,
        "model column must be >= 20x smaller than the exact FAULTS column \
         ({} B vs {} B = {:.1}x)",
        report.exact_bytes,
        report.model_bytes,
        report.compression_ratio
    );

    // Serve the operating-point query for every device from the
    // compressed store (no exact column at all) and from the exact store,
    // and compare the answers.
    let compressed_service = FleetService::new(
        FleetStore::from_bytes(compressed_bytes.clone()).expect("compressed store"),
    );
    let exact_service = FleetService::new(exact.clone());
    let min_pcs = u32::from(cfg.geometry.total_pcs()).div_ceil(2);
    let mut served_agree = 0u32;
    let serve_start = Instant::now();
    for device_id in 0..DEVICES {
        let request = FleetRequest::Recommend {
            device_id,
            target_rate: model::OPERATING_TARGET_RATE,
            min_pcs,
        };
        if compressed_service.handle(&request) == exact_service.handle(&request) {
            served_agree += 1;
        }
    }
    let serve_secs = serve_start.elapsed().as_secs_f64();
    let stats = compressed_service.stats();
    let served_agreement = f64::from(served_agree) / f64::from(DEVICES);
    let model_coverage = stats.compressed_hits as f64 / f64::from(DEVICES);
    println!(
        "  serving  : {served_agree}/{DEVICES} agree, {:.0}% decided by the \
         model alone, {:.3}s for both transports",
        model_coverage * 100.0,
        serve_secs
    );
    assert!(
        served_agreement >= 0.99,
        "served recommendations from the compressed store must agree with \
         exact ones on >= 99% of devices (got {served_agreement:.4}); the \
         fidelity envelope is unsound"
    );

    let record = Record {
        bench: "fleet_compress",
        seed: SEED,
        iterations: ITERATIONS,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        devices: DEVICES,
        pcs: u32::from(cfg.geometry.total_pcs()),
        knots: cfg.knots().len(),
        words_per_pc: cfg.words_per_pc,
        note: "model column asserted >= 20x smaller than the exact FAULTS \
               column; operating-point recommendations served from the \
               compressed store asserted to agree with exact ones on >= 99% \
               of devices (envelope-gated, rescan fallback); raw \
               point-estimate agreement recorded unasserted; model_coverage \
               is a worst case: every device here faults mid-grid, where a \
               sound envelope must abstain to the rescan path",
        fit_seconds: fit_secs,
        fit_devices_per_sec: f64::from(DEVICES) / fit_secs,
        exact_bytes: report.exact_bytes,
        model_bytes: report.model_bytes,
        compression_ratio: report.compression_ratio,
        artifact_bytes_exact: exact_artifact.len(),
        artifact_bytes_compressed: compressed_len,
        max_abs_rate_error: report.max_abs_rate_error,
        mean_abs_rate_error: report.mean_abs_rate_error,
        weak_recall: report.weak_recall,
        weak_precision: report.weak_precision,
        v_min_agreement: report.v_min_agreement,
        v_min_max_delta_mv: report.v_min_max_delta_mv,
        operating_agreement: report.operating_agreement,
        served_agreement,
        model_coverage,
        serve_seconds: serve_secs,
        serve_queries_per_sec: 2.0 * f64::from(DEVICES) / serve_secs,
    };

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fleet_compress.json"
    );
    let body = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(path, body + "\n").expect("write BENCH_fleet_compress.json");
    println!("wrote {path}");
}
