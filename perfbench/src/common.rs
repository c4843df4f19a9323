//! Types and helpers shared by the workloads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::trace::{self, LayerTotals, Span, Tracer};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed, plus problems that are not one
/// operation's fault (a malformed artifact, a wrong summary).
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: devices, requests, figures or sweep points.
    pub attempted: u64,
    /// Operations whose output was missing or wrong.
    pub failed: u64,
    /// Whole-run check failures, each described.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a whole-run check that must hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// What one workload invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting and check failures.
    pub tally: Tally,
    /// The metrics for the requested mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Worker and client counts for the run header.
    pub shape: Vec<(&'static str, u64)>,
    /// Deterministic figures of the outputs for the run header (not
    /// metrics: a speed-only change leaves them unchanged).
    pub notes: Vec<(&'static str, f64)>,
    /// A digest of the deterministic outputs (figure text, responses),
    /// identical for the same seed in traced and untraced runs.
    pub fingerprint: u64,
}

/// Run parameters every workload sees.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds per pass.
    pub budget: Duration,
    /// This run's scratch directory for artifacts and checkpoints,
    /// removed when the run ends.
    pub dir: PathBuf,
    /// Hardware threads available to the process.
    pub nproc: usize,
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over `bytes`, folded into `acc`.
pub fn digest(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs `pass` and returns its result with the pass's start and end on
/// the tracer's clock.
pub fn window<R>(tracer: &Tracer, pass: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let lo = tracer.now_ns();
    let out = pass();
    (out, (lo, tracer.now_ns()))
}

/// The two `trace.*` metrics: per-operation wall time of the traced pass
/// against the untraced one, and the share of the traced pass's window
/// that top-level spans cover.
pub fn trace_metrics(
    untraced_per_op: f64,
    traced_per_op: f64,
    spans: &[Span],
    window: (u64, u64),
) -> [Metric; 2] {
    [
        metric(
            "trace.overhead_pct",
            (traced_per_op / untraced_per_op - 1.0) * 100.0,
            "%",
        ),
        metric(
            "trace.coverage",
            trace::coverage(spans, window.0, window.1),
            "ratio",
        ),
    ]
}

/// Mean self time per span of `name` (0 when none was recorded).
pub fn self_per_call(layers: &BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, LayerTotals::self_per_call)
}

/// Mean duration per span of `name` (0 when none was recorded).
pub fn total_per_call(layers: &BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, LayerTotals::total_per_call)
}
