//! `fleet_build`: characterize a fleet over the fault-onset grid, then
//! encode, write, reopen, compress and summarize its artifact — rounds of
//! fresh fleets until the budget is spent.
//!
//! The kernel's carry start/advance does most of the work here, so a
//! count-path kernel change or a work-stealing pool change shows up in
//! `ops_per_s` (devices per second) and `latency_p50_ms` (a round).

use std::path::Path;
use std::time::{Duration, Instant};

use hbm_faults::KernelBackend;
use hbm_fleet::{
    artifact, characterize_device, model, sweep, FleetConfig, FleetCostModel, FleetReport,
    FleetStore, PopulationSummary,
};
use hbm_units::Millivolts;

use crate::common::{
    self, metric, self_per_call, total_per_call, trace_metrics, Ctx, Outcome, Tally,
};
use crate::kernel;
use crate::loadgen::Rng;
use crate::trace::Tracer;

/// Devices per round.
pub const DEVICES: u32 = 48;

/// Config validations timed together for one set-up sample, so the
/// clock's resolution does not dominate.
const SETUP_BATCH: usize = 1000;

/// Devices per traced round whose kernel calls are replayed.
const REPLAYED_DEVICES: u32 = 2;

/// The ROADMAP `fleet_compress` shape: 900 → 820 mV in 5 mV steps (17
/// knots), weak reference 900 mV, 32 pseudo channels × 64 words.
pub fn config(devices: u32, base_seed: u64, workers: usize) -> FleetConfig {
    FleetConfig {
        devices,
        base_seed,
        workers,
        from: Millivolts(900),
        down_to: Millivolts(820),
        step: Millivolts(5),
        weak_reference: Millivolts(900),
        ..FleetConfig::default()
    }
}

/// Everything one round produced.
struct Round {
    cfg: FleetConfig,
    report: FleetReport,
    bytes: Vec<u8>,
    reopened: FleetStore,
    compressed: Vec<u8>,
    summary: PopulationSummary,
    seconds: f64,
}

/// One timed round: sweep → encode → write → open → compress → summary.
fn round(cfg: FleetConfig, path: &Path, tracer: &Tracer) -> Result<Round, String> {
    let start = Instant::now();
    let report = tracer.in_span("fleet.sweep", None, |sweep_span| {
        if tracer.enabled() {
            sweep::run_with(&cfg, |cfg, spec| {
                let t0 = tracer.now_ns();
                let record = characterize_device(cfg, spec);
                tracer.record(
                    "fleet.sweep.characterize",
                    t0,
                    tracer.now_ns(),
                    sweep_span,
                    None,
                );
                record
            })
        } else {
            sweep::run(&cfg)
        }
    });
    let report = report.map_err(|e| format!("fleet sweep: {e}"))?;
    let bytes = tracer.in_span("fleet.artifact.encode", None, |_| {
        artifact::encode(&cfg, &report.records)
    });
    tracer
        .in_span("fleet.artifact.write", None, |_| {
            artifact::write_to_path(path, &cfg, &report.records)
        })
        .map_err(|e| format!("write artifact: {e}"))?;
    let reopened = tracer
        .in_span("fleet.artifact.open", None, |_| FleetStore::open(path))
        .map_err(|e| format!("open artifact: {e}"))?;
    let compressed = tracer
        .in_span("fleet.model.compress", None, |_| {
            model::compress_store(&reopened, false)
        })
        .map_err(|e| format!("compress: {e}"))?;
    let summary = tracer.in_span("fleet.population.summary", None, |_| {
        PopulationSummary::from_store(&reopened, &FleetCostModel::default())
    });
    Ok(Round {
        cfg,
        report,
        bytes,
        reopened,
        compressed,
        summary,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Checks one round outside the timed region: the artifact round-trips
/// through bytes and through the file, the compressed artifact is
/// model-only and complete, the summary covers the fleet, and one
/// seed-chosen device matches a scalar-kernel recharacterization.
fn check(round: &Round, rng: &mut Rng, tally: &mut Tally) {
    let records = &round.report.records;
    let n = round.cfg.devices as usize;
    tally.check(records.len() == n, || {
        format!("sweep returned {} of {n} devices", records.len())
    });
    let decoded = FleetStore::from_bytes(round.bytes.clone()).map(|s| s.records());
    let reopened = round.reopened.records();
    let spot = rng.below(u64::from(round.cfg.devices)) as usize;
    let mut scalar = round.cfg.clone();
    scalar.backend = KernelBackend::Scalar;
    let spot_record = characterize_device(&scalar, scalar.device_spec(spot as u32));
    for (i, record) in records.iter().enumerate() {
        let ok = record.device_id as usize == i
            && decoded.as_ref().is_ok_and(|d| d.get(i) == Some(record))
            && reopened.get(i) == Some(record)
            && (i != spot || spot_record == *record);
        tally.op(ok);
    }
    match FleetStore::from_bytes(round.compressed.clone()) {
        Ok(store) => tally.check(
            store.len() == n && store.has_model() && !store.has_exact_counts(),
            || "compressed artifact is not a complete model-only store".to_owned(),
        ),
        Err(e) => tally.errors.push(format!("compressed artifact: {e}")),
    }
    tally.check(round.summary.devices as usize == n, || {
        format!("summary counts {} of {n} devices", round.summary.devices)
    });
}

/// What one pass of rounds measured.
struct Pass {
    /// Set-up time before each round: validating the round's
    /// configuration, per call over a batch of [`SETUP_BATCH`].
    setups: Vec<f64>,
    /// Wall time of each round, seconds.
    rounds_s: Vec<f64>,
    /// Digest of the first round's artifact, which depends only on the
    /// seed.
    first_artifact: u64,
    /// The last round, kept for the probes.
    last: Round,
}

/// Rounds of fresh fleets until `budget` of round time is spent.
fn pass(
    ctx: &Ctx,
    cfg: &FleetConfig,
    budget: Duration,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let path = ctx.dir.join("fleet.hbfa");
    let mut seeds = Rng::new(ctx.seed, 0xF1EE7);
    let mut rng = Rng::new(ctx.seed, 0x5907);
    let mut setups = Vec::new();
    let mut rounds_s = Vec::new();
    let mut first_artifact = None;
    let mut spent = 0.0;
    loop {
        let mut round_cfg = cfg.clone();
        round_cfg.base_seed = seeds.next_u64();
        tracer.in_span("fleet.setup", None, |_| {
            let start = Instant::now();
            std::hint::black_box(
                (0..SETUP_BATCH).all(|_| std::hint::black_box(&round_cfg).validate().is_ok()),
            );
            setups.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        });
        let r = round(round_cfg, &path, tracer)?;
        spent += r.seconds;
        rounds_s.push(r.seconds);
        tracer.in_span("bench.check", None, |_| check(&r, &mut rng, tally));
        first_artifact.get_or_insert_with(|| common::digest(common::DIGEST_SEED, &r.bytes));
        if spent >= budget.as_secs_f64() {
            return Ok(Pass {
                setups,
                rounds_s,
                first_artifact: first_artifact.expect("set on the first round"),
                last: r,
            });
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let cfg = config(DEVICES, ctx.seed, ctx.nproc);
    cfg.validate().map_err(|e| format!("config: {e}"))?;

    let mut out = Outcome {
        shape: vec![
            ("workers", ctx.nproc as u64),
            ("devices_per_round", u64::from(DEVICES)),
        ],
        ..Outcome::default()
    };
    if !trace {
        let p = pass(ctx, &cfg, ctx.budget, &Tracer::new(false), &mut out.tally)?;
        out.fingerprint = p.first_artifact;
        out.metrics = vec![
            metric("setup_s", crate::stats::median(&p.setups), "s"),
            metric("peak_rss_mb", common::peak_rss_mb(), "MiB"),
            metric(
                "ops_per_s",
                f64::from(DEVICES) / crate::stats::median(&p.rounds_s),
                "1/s",
            ),
            metric(
                "latency_p50_ms",
                crate::stats::median(&p.rounds_s) * 1e3,
                "ms",
            ),
        ];
        return Ok(out);
    }

    let half = ctx.budget / 2;
    let untraced = pass(ctx, &cfg, half, &Tracer::new(false), &mut out.tally)?;
    let tracer = Tracer::new(true);
    let (traced, window) =
        common::window(&tracer, || pass(ctx, &cfg, half, &tracer, &mut out.tally));
    let traced = traced?;
    out.tally
        .check(traced.first_artifact == untraced.first_artifact, || {
            "traced and untraced passes built different artifacts".to_owned()
        });
    out.fingerprint = traced.first_artifact;
    let last = &traced.last;

    // Probes outside the traced window: the model fit alone, and the
    // kernel calls of a few devices replayed one by one.
    tracer.in_span("probe.fit", None, |p| {
        for _ in 0..3 {
            tracer
                .in_span("fleet.model.fit", p, |_| model::fit_store(&last.reopened))
                .map_err(|e| format!("fit: {e}"))?;
        }
        Ok::<_, String>(())
    })?;
    let hashed_words = tracer.in_span("probe.kernel", None, |p| {
        let mut hashed_words = 0;
        for device in 0..REPLAYED_DEVICES {
            let (faults, hashed) = kernel::replay_fleet_device(&last.cfg, device, &tracer, p);
            hashed_words += hashed;
            out.tally.check(
                faults == last.report.records[device as usize].faults,
                || format!("kernel replay of device {device} disagrees with the sweep"),
            );
        }
        hashed_words
    });

    let spans = tracer.spans();
    let layers = crate::trace::by_name(&spans);
    let sweep_total = layers.get("fleet.sweep").map_or(0.0, |t| t.total_s);
    let busy = layers
        .get("fleet.sweep.characterize")
        .map_or(0.0, |t| t.total_s);
    let per_round = |p: &Pass| crate::stats::median(&p.rounds_s);
    out.metrics = kernel::kernel_metrics(&layers, hashed_words);
    out.metrics.extend([
        metric(
            "fleet.sweep.characterize_s",
            self_per_call(&layers, "fleet.sweep.characterize"),
            "s",
        ),
        metric(
            "fleet.sweep.wall_s",
            total_per_call(&layers, "fleet.sweep"),
            "s",
        ),
        metric(
            "fleet.sweep.worker_busy_ratio",
            busy / (sweep_total * ctx.nproc as f64),
            "ratio",
        ),
        metric(
            "fleet.artifact.encode_s",
            self_per_call(&layers, "fleet.artifact.encode"),
            "s",
        ),
        metric(
            "fleet.artifact.write_s",
            self_per_call(&layers, "fleet.artifact.write"),
            "s",
        ),
        metric(
            "fleet.artifact.open_s",
            self_per_call(&layers, "fleet.artifact.open"),
            "s",
        ),
        metric(
            "fleet.artifact.bytes_per_device",
            last.bytes.len() as f64 / f64::from(DEVICES),
            "B",
        ),
        metric(
            "fleet.model.fit_s",
            self_per_call(&layers, "fleet.model.fit"),
            "s",
        ),
        metric(
            "fleet.model.compress_s",
            self_per_call(&layers, "fleet.model.compress"),
            "s",
        ),
        metric(
            "fleet.population.summary_s",
            self_per_call(&layers, "fleet.population.summary"),
            "s",
        ),
    ]);
    out.metrics.extend(trace_metrics(
        per_round(&untraced),
        per_round(&traced),
        &spans,
        window,
    ));
    crate::write_trace(ctx, "fleet_build", &spans, window)?;
    Ok(out)
}
