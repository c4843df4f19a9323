//! `hbmctl` — host-side control tool for the simulated HBM undervolting
//! platform, mirroring the custom host interface the study built to drive
//! its experiments.
//!
//! Every measurement command is dispatched through the unified
//! [`Experiment`] trait and rendered through [`Render`], so the tool is a
//! thin shell: build a platform, pick an experiment, pick an output
//! format.
//!
//! ```text
//! hbmctl guardband   [--seed N] [--workers N] [--format text|csv|json]
//! hbmctl power-sweep [--seed N] [--workers N] [--format text|csv|json]
//! hbmctl reliability [--seed N] [--workers N] [--format text|csv|json]
//!                    [--from MV] [--to MV] [--step MV]
//!                    [--batch N] [--words N] [--sample N]
//!                    [--exec cached|traffic]
//!                    [--kernel scalar|bitsliced|auto]
//!                    [--fault-field per-voltage|coupled]
//! hbmctl sweep       [reliability flags] [--checkpoint FILE] [--resume]
//!                    [--retries N] [--point-deadline MS] [--v-crash MV]
//!                    [--transient-prob P] [--transient-window MV]
//!                    [--trace-file FILE] [--progress]
//! hbmctl trade-off   [--seed N] [--format text|csv|json]
//! hbmctl governor    [--seed N] [--workers N] [--format text|csv|json]
//!                    [--workload throughput|latency|both]
//!                    [--latency-budget NS] [--bandwidth-target GBPS]
//!                    [--step MV] [--floor MV] [--margin MV] [--canary-words N]
//! hbmctl fault-map   [--seed N] [--out FILE]
//! hbmctl plan        [--seed N] --capacity-gb G --tolerance RATE
//!                    [--workload throughput|latency]
//!                    [--latency-budget NS] [--min-bandwidth GBPS]
//! hbmctl fleet sweep   [--devices N] [--seed N] [--workers N]
//!                      [--from MV] [--to MV] [--step MV] [--words N]
//!                      [--weak-reference MV] [--out FILE] [--export FILE]
//! hbmctl fleet query   --artifact FILE --device ID
//!                      [--target-rate R] [--min-pcs N] [--format text|json]
//! hbmctl fleet export  --artifact FILE [--out FILE]
//! hbmctl fleet summary --artifact FILE [--format text|csv|json]
//! hbmctl fleet compress --artifact FILE --out FILE [--keep-exact]
//! hbmctl fleet fidelity --artifact FILE [--format text|json]
//! hbmctl serve         --artifact FILE [--serve-workers N] [--rescan-cache-mb M]
//! ```
//!
//! Every fleet question — one-shot subcommand or long-lived `serve` loop —
//! routes through the same typed [`FleetRequest`]/[`FleetResponse`] pair
//! from `hbm_fleet::api`, so the two transports cannot drift.
//!
//! Exit codes: `0` success, `1` runtime failure (an experiment, device or
//! I/O error), `2` configuration/usage error (bad flags, bad values —
//! printed with the usage text).

use std::process::ExitCode;

use hbm_device::TransientCrashModel;
use hbm_faults::FaultMap;
use hbm_fleet::{
    ApiError, ArtifactMeta, FleetConfig, FleetCostModel, FleetError, FleetExport, FleetRequest,
    FleetResponse, FleetService, FleetStore, PopulationSummary,
};
use hbm_power::HbmPowerModel;
use hbm_traffic::DataPattern;
use hbm_undervolt::report::{to_json, Render};
use hbm_undervolt::{
    summarize, ExecutionMode, Experiment, FaultFieldMode, GovernorConfig, GovernorScenario,
    GuardbandFinder, JsonlSink, KernelBackend, PlanRequest, Platform, PowerSweep, ProgressSink,
    ReliabilityConfig, ReliabilityTester, SweepCheckpoint, SweepConfig, SystemClock, Telemetry,
    TestScope, TradeOffAnalysis, VoltageSweep, WorkloadMode,
};
use hbm_units::{Millivolts, Ratio};

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["resume", "progress", "keep-exact"];

/// A CLI failure, split by blame so `main` can pick the exit code:
/// configuration/usage problems exit 2 (with the usage text), runtime
/// failures exit 1.
enum CliError {
    Config(String),
    Runtime(String),
}

impl CliError {
    fn config(message: impl Into<String>) -> Self {
        CliError::Config(message.into())
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError::Runtime(message.into())
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut flags: Vec<(String, String)> = Vec::new();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if flags.iter().any(|(n, _)| n == name) {
                    return Err(CliError::config(format!(
                        "flag --{name} given more than once"
                    )));
                }
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_owned(), "true".to_owned()));
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::config(format!("flag --{name} needs a value")))?;
                flags.push((name.to_owned(), value));
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, raw)) => raw
                .parse()
                .map_err(|_| CliError::config(format!("invalid value for --{name}: {raw}"))),
        }
    }

    fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, raw)) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::config(format!("invalid value for --{name}: {raw}"))),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let (_, raw) = self
            .flags
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| CliError::config(format!("missing required flag --{name}")))?;
        raw.parse()
            .map_err(|_| CliError::config(format!("invalid value for --{name}: {raw}")))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Config(message)) => {
            eprintln!("hbmctl: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("hbmctl: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hbmctl guardband   [--seed N] [--workers N] [--format text|csv|json]
  hbmctl power-sweep [--seed N] [--workers N] [--format text|csv|json]
  hbmctl reliability [--seed N] [--workers N] [--format text|csv|json]
                     [--from MV] [--to MV] [--step MV] [--batch N] [--words N] [--sample N]
                     [--exec cached|traffic] [--kernel scalar|bitsliced|auto]
                     [--fault-field per-voltage|coupled]
  hbmctl sweep       [reliability flags] [--checkpoint FILE] [--resume]
                     [--retries N] [--point-deadline MS] [--v-crash MV]
                     [--transient-prob P] [--transient-window MV]
                     [--trace-file FILE] [--progress]
  hbmctl trade-off   [--seed N] [--format text|csv|json]
  hbmctl governor    [--seed N] [--workers N] [--format text|csv|json]
                     [--workload throughput|latency|both]
                     [--latency-budget NS] [--bandwidth-target GBPS]
                     [--step MV] [--floor MV] [--margin MV] [--canary-words N]
  hbmctl fault-map   [--seed N] [--out FILE]
  hbmctl plan        [--seed N] --capacity-gb G --tolerance RATE
                     [--workload throughput|latency]
                     [--latency-budget NS] [--min-bandwidth GBPS]
  hbmctl fleet sweep   [--devices N] [--seed N] [--workers N] [--from MV] [--to MV] [--step MV]
                       [--words N] [--weak-reference MV] [--out FILE] [--export FILE]
  hbmctl fleet query   --artifact FILE --device ID [--target-rate R] [--min-pcs N]
                       [--format text|json]
  hbmctl fleet export  --artifact FILE [--out FILE]
  hbmctl fleet summary --artifact FILE [--format text|csv|json]
  hbmctl fleet compress --artifact FILE --out FILE [--keep-exact]
  hbmctl fleet fidelity --artifact FILE [--format text|json]
  hbmctl serve         --artifact FILE [--serve-workers N] [--rescan-cache-mb M]";

fn run() -> Result<(), CliError> {
    let args = Args::parse()?;
    let command = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError::config("no command given"))?;
    let seed: u64 = args.flag("seed", 7)?;
    let workers: usize = args.flag("workers", 1)?;

    match command {
        "guardband" => dispatch(&GuardbandFinder::new(), seed, workers, &args),
        "power-sweep" => dispatch(&PowerSweep::date21(), seed, workers, &args),
        "reliability" => {
            let tester = ReliabilityTester::new(reliability_config(&args)?)
                .map_err(|e| CliError::config(e.to_string()))?;
            dispatch(&tester, seed, workers, &args)
        }
        "sweep" => supervised_sweep(seed, workers, &args),
        "trade-off" => dispatch(&trade_off(seed), seed, workers, &args),
        "governor" => governor(seed, workers, &args),
        "fault-map" => fault_map(seed, &args),
        "plan" => plan(seed, &args),
        "fleet" => fleet(seed, &args),
        "serve" => serve_loop(&args),
        other => Err(CliError::config(format!("unknown command: {other}"))),
    }
}

fn platform(seed: u64, workers: usize) -> Platform {
    Platform::builder().seed(seed).workers(workers).build()
}

/// Prints a report in the requested `--format`.
fn render<R: Render + serde::Serialize>(report: &R, format: &str) -> Result<(), CliError> {
    match format {
        "text" => print!("{}", report.to_text()),
        "csv" => print!("{}", report.to_csv()),
        "json" => println!(
            "{}",
            to_json(report).map_err(|e| CliError::runtime(e.to_string()))?
        ),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text, csv or json)"
            )))
        }
    }
    Ok(())
}

/// Runs any experiment and prints its report in the requested format —
/// the whole tool funnels through this one generic function.
fn dispatch<E>(experiment: &E, seed: u64, workers: usize, args: &Args) -> Result<(), CliError>
where
    E: Experiment,
    E::Report: Render + serde::Serialize,
{
    let format: String = args.flag("format", "text".to_owned())?;
    let mut p = platform(seed, workers);
    eprintln!(
        "hbmctl: {} (seed {seed}, {} worker{})",
        experiment.name(),
        p.workers(),
        if p.workers() == 1 { "" } else { "s" }
    );
    let report = experiment
        .run(&mut p)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    render(&report, &format)
}

/// The measurement flags shared by `reliability` and `sweep`. Voltages are
/// parsed as typed [`Millivolts`] ("980" or "980mV").
fn reliability_config(args: &Args) -> Result<ReliabilityConfig, CliError> {
    let from: Millivolts = args.flag("from", Millivolts(980))?;
    let to: Millivolts = args.flag("to", Millivolts(850))?;
    let step: Millivolts = args.flag("step", Millivolts(10))?;
    let batch: usize = args.flag("batch", 1)?;
    let words: u64 = args.flag("words", 1024)?;
    let sample: Option<u64> = args.optional("sample")?;
    let exec: String = args.flag("exec", "cached".to_owned())?;
    let mode = match exec.as_str() {
        "cached" => ExecutionMode::CachedMasks,
        "traffic" => ExecutionMode::Traffic,
        other => {
            return Err(CliError::config(format!(
                "unknown execution mode: {other} (use cached or traffic)"
            )))
        }
    };
    let kernel_token: String = args.flag("kernel", "auto".to_owned())?;
    let kernel = KernelBackend::from_token(&kernel_token).ok_or_else(|| {
        CliError::config(format!(
            "unknown kernel: {kernel_token} (use scalar, bitsliced or auto)"
        ))
    })?;
    let field_token: String = args.flag("fault-field", "per-voltage".to_owned())?;
    let fault_field = FaultFieldMode::from_token(&field_token).ok_or_else(|| {
        CliError::config(format!(
            "unknown fault field: {field_token} (use per-voltage or coupled)"
        ))
    })?;

    Ok(ReliabilityConfig {
        sweep: VoltageSweep::new(from, to, step).map_err(|e| CliError::config(e.to_string()))?,
        batch_size: batch,
        patterns: vec![DataPattern::AllOnes, DataPattern::AllZeros],
        scope: TestScope::EntireHbm,
        words_per_pc: Some(words),
        sample_words: sample,
        mode,
        fault_field,
        kernel,
        carry_forward: true,
    })
}

/// `hbmctl sweep`: the crash-aware resilient runtime — checkpointed
/// resume, retry with backoff, per-port quarantine — over the reliability
/// measurement, assembled through the unified [`SweepConfig`].
fn supervised_sweep(seed: u64, workers: usize, args: &Args) -> Result<(), CliError> {
    let format: String = args.flag("format", "text".to_owned())?;
    let reliability = reliability_config(args)?;
    let fault_field = reliability.fault_field;
    let kernel = reliability.kernel;
    let mut config = SweepConfig::from_reliability(reliability)
        .seed(seed)
        .workers(workers)
        .retries(args.flag("retries", 3u32)?);
    if let Some(deadline) = args.optional::<u64>("point-deadline")? {
        config = config.point_deadline_ms(deadline);
    }
    if let Some(v_crash) = args.optional::<Millivolts>("v-crash")? {
        config = config.v_crash(v_crash);
    }
    if let Some(probability) = args.optional::<f64>("transient-prob")? {
        if !(0.0..=1.0).contains(&probability) {
            return Err(CliError::config(
                "--transient-prob must be a probability in [0, 1]",
            ));
        }
        let window: Millivolts = args.flag("transient-window", Millivolts(50))?;
        config = config.transient_crashes(TransientCrashModel::new(probability, window));
    }
    let checkpoint_path = args.optional::<String>("checkpoint")?;
    if let Some(path) = &checkpoint_path {
        config = config.checkpoint(path.clone());
    }
    let resume: bool = args.flag("resume", false)?;
    config = config.resume(resume);
    if resume {
        if let Some(path) = &checkpoint_path {
            check_resume_fault_field(path, fault_field)?;
            check_resume_kernel(path, kernel)?;
        }
    }

    // Observation: --trace-file streams the typed event log as JSONL (in
    // diffable mode, so traces for one campaign compare byte-for-byte
    // across runs and worker counts); --progress narrates to stderr.
    let mut telemetry = Telemetry::new();
    if let Some(path) = args.optional::<String>("trace-file")? {
        let file = std::fs::File::create(&path)
            .map_err(|e| CliError::runtime(format!("creating {path}: {e}")))?;
        telemetry.add_observer(Box::new(JsonlSink::diffable(std::io::BufWriter::new(file))));
    }
    if args.flag("progress", false)? {
        telemetry.add_observer(Box::new(ProgressSink::new(std::io::stderr())));
    }

    let supervisor = config
        .build_supervisor()
        .map_err(|e| CliError::config(e.to_string()))?;
    let mut p = config.build_platform();
    let points = supervisor.tester().config().sweep.len();
    eprintln!(
        "hbmctl: {} (seed {seed}, {} worker{}, {points} point{}{})",
        supervisor.name(),
        p.workers(),
        if p.workers() == 1 { "" } else { "s" },
        if points == 1 { "" } else { "s" },
        if resume { ", resuming" } else { "" }
    );
    let result = supervisor.run_observed(&mut p, &mut SystemClock::new(), &telemetry);
    telemetry.finish();
    let report = result.map_err(|e| CliError::runtime(e.to_string()))?;
    render(&report, &format)?;
    eprintln!("hbmctl: {}", summarize(&report));
    Ok(())
}

/// Rejects `--resume` when the checkpoint on disk was recorded under a
/// different `--fault-field` mode: the two fields assign faults to
/// different concrete bits, so splicing their points into one report
/// would silently mix incompatible measurements. This is a *usage*
/// mistake (exit 2); a file that does not parse as a current-format
/// checkpoint is left for the supervisor's own validation, which reports
/// it as a runtime error (exit 1).
fn check_resume_fault_field(path: &str, requested: FaultFieldMode) -> Result<(), CliError> {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let Ok(checkpoint) = serde_json::from_str::<SweepCheckpoint>(&contents) else {
        return Ok(());
    };
    let Ok(config) = serde_json::from_str::<ReliabilityConfig>(&checkpoint.config_json) else {
        return Ok(());
    };
    if config.fault_field != requested {
        return Err(CliError::config(format!(
            "--resume: checkpoint {path} was recorded with --fault-field {}, \
             but this run requests --fault-field {}",
            config.fault_field.as_token(),
            requested.as_token()
        )));
    }
    Ok(())
}

/// Rejects `--resume` when the checkpoint on disk was recorded under a
/// different `--kernel` backend. All backends are bit-identical, but a
/// resumed campaign must stay reproducible by its recorded configuration
/// alone; like a fault-field mix, this is a *usage* mistake (exit 2), and
/// an unreadable checkpoint is left to the supervisor's own validation.
fn check_resume_kernel(path: &str, requested: KernelBackend) -> Result<(), CliError> {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let Ok(checkpoint) = serde_json::from_str::<SweepCheckpoint>(&contents) else {
        return Ok(());
    };
    if checkpoint.kernel != requested.as_token() {
        return Err(CliError::config(format!(
            "--resume: checkpoint {path} was recorded with --kernel {}, \
             but this run requests --kernel {}",
            checkpoint.kernel,
            requested.as_token()
        )));
    }
    Ok(())
}

fn trade_off(seed: u64) -> TradeOffAnalysis {
    let p = platform(seed, 1);
    let map = FaultMap::from_predictor(
        p.full_scale_predictor(),
        Millivolts(980),
        Millivolts(810),
        Millivolts(10),
    );
    TradeOffAnalysis::new(map, HbmPowerModel::date21())
}

/// The latency budget the two-row `--workload both` scenario descends
/// with when none is given: a little above the nominal random-access
/// latency (≈30 ns), so the latency row trips on timing stretch inside
/// the fault-free guardband while the throughput row descends to flips.
const DEFAULT_LATENCY_BUDGET_NS: f64 = 33.0;

/// `hbmctl governor`: closed-loop descents as an [`Experiment`]. The
/// default `--workload both` runs the canonical latency-vs-throughput
/// scenario; a single mode runs one descent under that workload's
/// pattern and constraints.
fn governor(seed: u64, workers: usize, args: &Args) -> Result<(), CliError> {
    let base = GovernorConfig {
        step: args.flag("step", Millivolts(10))?,
        canary_words: args.flag("canary-words", 512u64)?,
        floor: args.flag("floor", Millivolts(840))?,
        margin: args.flag("margin", Millivolts(10))?,
        latency_budget_ns: args.optional("latency-budget")?,
        bandwidth_target_gbps: args.optional("bandwidth-target")?,
        ..GovernorConfig::default()
    };
    let workload: String = args.flag("workload", "both".to_owned())?;
    let scenario = match workload.as_str() {
        "both" => GovernorScenario::latency_vs_throughput(
            base,
            base.latency_budget_ns.unwrap_or(DEFAULT_LATENCY_BUDGET_NS),
        ),
        token => {
            let mode = WorkloadMode::from_token(token).ok_or_else(|| {
                CliError::config(format!(
                    "unknown workload: {token} (use throughput, latency or both)"
                ))
            })?;
            GovernorScenario::new().with_variant(
                token,
                GovernorConfig {
                    workload: mode,
                    ..base
                },
            )
        }
    };
    dispatch(&scenario, seed, workers, args)
}

fn fault_map(seed: u64, args: &Args) -> Result<(), CliError> {
    let p = platform(seed, 1);
    let map = FaultMap::from_predictor(
        p.full_scale_predictor(),
        Millivolts(980),
        Millivolts(810),
        Millivolts(10),
    );
    let json = to_json(&map).map_err(|e| CliError::runtime(e.to_string()))?;
    match args.flags.iter().find(|(n, _)| n == "out") {
        Some((_, path)) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
            println!(
                "fault map for seed {seed}: {} PCs x {} voltages -> {path}",
                map.profiles.len(),
                map.voltages.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn plan(seed: u64, args: &Args) -> Result<(), CliError> {
    let capacity_gb: f64 = args.required("capacity-gb")?;
    let tolerance: f64 = args.required("tolerance")?;
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(CliError::config("tolerance must be a fraction in [0, 1]"));
    }

    let workload_token: String = args.flag("workload", "throughput".to_owned())?;
    let mode = WorkloadMode::from_token(&workload_token).ok_or_else(|| {
        CliError::config(format!(
            "unknown workload: {workload_token} (use throughput or latency)"
        ))
    })?;

    let analysis = trade_off(seed);
    let bytes = (capacity_gb * (1u64 << 30) as f64) as u64;
    let mut request = PlanRequest::new(bytes, Ratio(tolerance)).with_pattern(mode.pattern());
    if let Some(budget) = args.optional::<f64>("latency-budget")? {
        request = request.with_latency_budget_ns(budget);
    }
    if let Some(floor) = args.optional::<f64>("min-bandwidth")? {
        request = request.with_min_delivered_gbps(floor);
    }
    match analysis.plan_request(&request) {
        Some(point) => {
            println!("operating point for ≥{capacity_gb} GB at ≤{tolerance} fault rate:");
            println!("  voltage        {}", point.voltage);
            println!(
                "  usable PCs     {} ({} GB)",
                point.usable_pcs.len(),
                point.capacity_bytes >> 30
            );
            println!("  power saving   {:.2}x vs nominal", point.saving_factor);
            println!("  worst PC rate  {:.3e}", point.worst_fault_rate.as_f64());
            println!(
                "  delivered      {:.1} GB/s ({} pattern)",
                point.delivered_gbps, workload_token
            );
            println!("  access latency {:.1} ns", point.access_latency_ns);
            Ok(())
        }
        None => Err(CliError::runtime(format!(
            "no swept voltage provides {capacity_gb} GB within fault rate {tolerance} \
             under the requested timing constraints"
        ))),
    }
}

/// `hbmctl fleet`: population-scale characterization — sweep N simulated
/// devices through the work-stealing engine, persist/load the columnar
/// artifact, and answer per-device voltage queries against it.
fn fleet(seed: u64, args: &Args) -> Result<(), CliError> {
    let sub = args.positional.get(1).map(String::as_str).ok_or_else(|| {
        CliError::config(
            "fleet needs a subcommand: sweep, query, export, summary, compress or fidelity",
        )
    })?;
    match sub {
        "sweep" => fleet_sweep(seed, args),
        "query" => fleet_query(args),
        "export" => fleet_export(args),
        "summary" => fleet_summary(args),
        "compress" => fleet_compress(args),
        "fidelity" => fleet_fidelity(args),
        other => Err(CliError::config(format!(
            "unknown fleet subcommand: {other} \
             (use sweep, query, export, summary, compress or fidelity)"
        ))),
    }
}

/// Splits fleet-layer failures by blame: malformed configuration exits 2,
/// everything else (I/O, a corrupt or future-versioned artifact, an
/// unknown device) is a runtime failure and exits 1.
fn fleet_err(error: FleetError) -> CliError {
    match error {
        FleetError::Config(_) => CliError::config(error.to_string()),
        _ => CliError::runtime(error.to_string()),
    }
}

/// Rejects artifact/output paths that cannot name a file — empty, or an
/// existing directory — as usage mistakes before any work happens.
fn checked_path(path: &str, flag: &str) -> Result<(), CliError> {
    if path.is_empty() {
        return Err(CliError::config(format!("--{flag} path is empty")));
    }
    if std::path::Path::new(path).is_dir() {
        return Err(CliError::config(format!(
            "--{flag} path {path} is a directory"
        )));
    }
    Ok(())
}

fn open_store(args: &Args) -> Result<FleetStore, CliError> {
    let path: String = args.required("artifact")?;
    checked_path(&path, "artifact")?;
    FleetStore::open(&path).map_err(fleet_err)
}

fn fleet_config(seed: u64, args: &Args) -> Result<FleetConfig, CliError> {
    let cfg = FleetConfig {
        devices: args.flag("devices", 64u32)?,
        base_seed: seed,
        workers: args.flag("workers", 0usize)?,
        from: args.flag("from", Millivolts(1000))?,
        down_to: args.flag("to", Millivolts(820))?,
        step: args.flag("step", Millivolts(10))?,
        words_per_pc: args.flag("words", 64u64)?,
        weak_reference: args.flag("weak-reference", Millivolts(900))?,
        ..FleetConfig::default()
    };
    cfg.validate().map_err(fleet_err)?;
    Ok(cfg)
}

fn fleet_sweep(seed: u64, args: &Args) -> Result<(), CliError> {
    let cfg = fleet_config(seed, args)?;
    let out: Option<String> = args.optional("out")?;
    let export: Option<String> = args.optional("export")?;
    if let Some(path) = &out {
        checked_path(path, "out")?;
    }
    if let Some(path) = &export {
        checked_path(path, "export")?;
    }

    eprintln!(
        "hbmctl: fleet sweep ({} devices, seed {seed}, {} knots)",
        cfg.devices,
        cfg.knots().len()
    );
    let report = hbm_fleet::sweep::run(&cfg).map_err(fleet_err)?;

    // Fold the run's accounting into the shared counter registry so fleet
    // sweeps surface through the same metrics vocabulary as supervised
    // sweeps.
    let telemetry = Telemetry::new();
    telemetry
        .metrics()
        .add_devices_swept(report.stats.devices_swept);
    telemetry
        .metrics()
        .add_devices_stolen(report.stats.devices_stolen);

    if let Some(path) = &out {
        let bytes =
            hbm_fleet::artifact::write_to_path(path, &cfg, &report.records).map_err(fleet_err)?;
        telemetry.metrics().add_artifact_bytes_written(bytes);
        println!(
            "fleet artifact: {} devices x {} PCs x {} knots -> {path} ({bytes} bytes)",
            cfg.devices,
            cfg.geometry.total_pcs(),
            cfg.knots().len()
        );
    }
    if let Some(path) = &export {
        let json = FleetExport::from_records(&cfg, &report.records).to_json();
        std::fs::write(path, &json)
            .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
        println!(
            "fleet export: {} devices -> {path} ({} bytes)",
            cfg.devices,
            json.len()
        );
    }
    if out.is_none() && export.is_none() {
        let meta = ArtifactMeta::from_config(&cfg);
        let summary =
            PopulationSummary::from_records(&meta, &report.records, &FleetCostModel::default());
        print!("{}", summary.to_text());
    }

    telemetry.finish();
    let snapshot = telemetry.metrics().snapshot();
    eprintln!(
        "hbmctl: fleet swept {} devices on {} worker{} in {} ms \
         ({} stolen across {} steals, {} artifact bytes)",
        snapshot.devices_swept,
        report.stats.workers,
        if report.stats.workers == 1 { "" } else { "s" },
        report.stats.wall_ms,
        snapshot.devices_stolen,
        report.stats.steals,
        snapshot.artifact_bytes_written
    );
    Ok(())
}

/// Splits typed-API errors by blame like [`fleet_err`]: `kind: "config"`
/// is a usage mistake (exit 2, usage text), every other kind a runtime
/// failure (exit 1).
fn api_err(error: &ApiError) -> CliError {
    if error.kind == "config" {
        CliError::config(error.message.clone())
    } else {
        CliError::runtime(error.message.clone())
    }
}

/// Sends one request through the typed API and unwraps the error variant
/// into the CLI's exit-code discipline — the single funnel every one-shot
/// fleet question goes through, identical to a `serve` session's routing.
fn ask(service: &FleetService, request: FleetRequest) -> Result<FleetResponse, CliError> {
    match service.handle(&request) {
        FleetResponse::Error(err) => Err(api_err(&err)),
        response => Ok(response),
    }
}

/// Folds a service's serving counters into the shared metrics registry so
/// one-shot queries and `serve` sessions surface through the same
/// vocabulary as sweeps.
fn fold_serve_stats(service: &FleetService, telemetry: &Telemetry) {
    let stats = service.stats();
    let metrics = telemetry.metrics();
    metrics.add_queries_served(stats.queries_served);
    metrics.add_compressed_hits(stats.compressed_hits);
    metrics.add_exact_rescans(stats.exact_rescans);
    metrics.set_model_bytes(stats.model_bytes);
    metrics.add_rescan_cache_hits(stats.rescan_cache_hits);
    metrics.add_kernel_rescans(stats.kernel_rescans);
    metrics.add_rescan_cache_evictions(stats.rescan_cache_evictions);
    metrics.add_singleflight_waits(stats.singleflight_waits);
}

/// Folds the concurrent pipeline's scheduling-dependent gauges (worker
/// count, queue-depth high-water mark, per-request latency histogram)
/// into the metrics registry, alongside [`fold_serve_stats`].
fn fold_pipeline_stats(stats: &hbm_fleet::PipelineStats, telemetry: &Telemetry) {
    let metrics = telemetry.metrics();
    metrics.set_serve_workers(stats.workers as u64);
    metrics.set_serve_queue_depth_max(stats.queue_depth_max);
    let latency = &stats.latency;
    metrics.merge_request_wall_us(
        latency.count,
        latency.sum_us,
        latency.min_us,
        latency.max_us,
        &latency.log2_buckets,
    );
}

fn fleet_query(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let device_id: u32 = args.required("device")?;
    let target_rate: f64 = args.flag("target-rate", 1e-4)?;
    let min_pcs: u32 = args.flag("min-pcs", 1u32)?;
    let format: String = args.flag("format", "text".to_owned())?;
    let request = FleetRequest::Recommend {
        device_id,
        target_rate,
        min_pcs,
    };
    let response = ask(&service, request)?;
    let FleetResponse::Recommendation(rec) = &response else {
        return Err(CliError::runtime(
            "recommend answered with a non-recommendation",
        ));
    };
    match format.as_str() {
        "text" => {
            println!("device {device_id} (target rate {target_rate:.1e}, >= {min_pcs} PCs):");
            println!("  voltage        {} mV", rec.voltage_mv);
            println!(
                "  usable PCs     {} of {}",
                rec.usable_pcs.len(),
                service.store().meta().pc_count
            );
            println!("  crash floor    {} mV", rec.crash_mv);
            println!("  power saving   {:.2}x vs nominal", rec.saving_factor);
        }
        "json" => println!("{}", response.to_json().map_err(|e| api_err(&e))?),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text or json)"
            )))
        }
    }
    Ok(())
}

fn fleet_export(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let FleetResponse::Export(doc) = ask(&service, FleetRequest::Export)? else {
        return Err(CliError::runtime("export answered with a non-export"));
    };
    let json = doc.to_json();
    match args.optional::<String>("out")? {
        Some(path) => {
            checked_path(&path, "out")?;
            std::fs::write(&path, &json)
                .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
            println!(
                "fleet export: {} devices -> {path} ({} bytes)",
                service.store().len(),
                json.len()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn fleet_summary(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let format: String = args.flag("format", "text".to_owned())?;
    let response = ask(&service, FleetRequest::Summary)?;
    let FleetResponse::Summary(summary) = &response else {
        return Err(CliError::runtime("summary answered with a non-summary"));
    };
    match format.as_str() {
        "text" => print!("{}", summary.to_text()),
        "csv" => print!("{}", summary.to_csv()),
        "json" => println!("{}", response.to_json().map_err(|e| api_err(&e))?),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text, csv or json)"
            )))
        }
    }
    Ok(())
}

/// `hbmctl fleet compress`: re-encode an exact artifact with fitted
/// parametric models (and optionally the exact columns alongside).
fn fleet_compress(args: &Args) -> Result<(), CliError> {
    let store = open_store(args)?;
    let out: String = args.required("out")?;
    checked_path(&out, "out")?;
    let keep_exact: bool = args.flag("keep-exact", false)?;
    let before = store.size_bytes();
    let bytes = hbm_fleet::model::compress_store(&store, keep_exact).map_err(fleet_err)?;
    std::fs::write(&out, &bytes).map_err(|e| CliError::runtime(format!("writing {out}: {e}")))?;
    println!(
        "fleet compress: {} devices, {before} -> {} bytes ({:.1}x){} -> {out}",
        store.len(),
        bytes.len(),
        before as f64 / bytes.len() as f64,
        if keep_exact { ", exact kept" } else { "" }
    );
    Ok(())
}

/// `hbmctl fleet fidelity`: quantify the compressed models against the
/// exact columns of the same artifact.
fn fleet_fidelity(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let format: String = args.flag("format", "text".to_owned())?;
    let response = ask(&service, FleetRequest::Fidelity)?;
    let FleetResponse::Fidelity(report) = &response else {
        return Err(CliError::runtime("fidelity answered with a non-report"));
    };
    match format.as_str() {
        "text" => print!("{}", report.to_text()),
        "json" => println!("{}", response.to_json().map_err(|e| api_err(&e))?),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text or json)"
            )))
        }
    }
    Ok(())
}

/// `hbmctl serve`: load one artifact and answer typed requests over
/// stdin/stdout as line-delimited JSON until EOF — no per-query artifact
/// load, model-first recommendations, exact evidence only on fallback.
///
/// All worker counts route through the concurrent pipeline
/// ([`hbm_fleet::serve_concurrent`]); its in-order emitter makes the
/// output byte-identical to sequential serving at every `--serve-workers`
/// value, so the flag only changes throughput, never answers.
fn serve_loop(args: &Args) -> Result<(), CliError> {
    let workers: usize = args.flag("serve-workers", 1usize)?;
    if workers == 0 {
        return Err(CliError::config("--serve-workers must be at least 1"));
    }
    let cache_mb: usize = args.flag("rescan-cache-mb", 64usize)?;
    let service = FleetService::with_rescan_cache(open_store(args)?, cache_mb * 1024 * 1024);
    eprintln!(
        "hbmctl: serving {} devices ({}, {} model bytes); \
         one JSON request per line, EOF ends the session",
        service.store().len(),
        if service.store().has_exact_counts() {
            "exact+model"
        } else if service.store().has_model() {
            "model only"
        } else {
            "exact only"
        },
        service.store().model_bytes()
    );
    let stdin = std::io::stdin();
    let options = hbm_fleet::PipelineOptions {
        workers,
        completion_jitter: None,
    };
    // `Stdout` (not the lock guard) crosses into the emitter thread; the
    // emitter is the only writer, so per-call locking costs nothing.
    let pipeline = hbm_fleet::serve_concurrent(&service, stdin.lock(), std::io::stdout(), &options)
        .map_err(|e| CliError::runtime(format!("serve transport: {e}")))?;
    let stats = pipeline.serve;
    let telemetry = Telemetry::new();
    fold_serve_stats(&service, &telemetry);
    fold_pipeline_stats(&pipeline, &telemetry);
    telemetry.finish();
    eprintln!(
        "hbmctl: served {} quer{} ({} compressed hit{}, {} exact rescan{}, \
         {} exact column reads, {} model bytes)",
        stats.queries_served,
        if stats.queries_served == 1 {
            "y"
        } else {
            "ies"
        },
        stats.compressed_hits,
        if stats.compressed_hits == 1 { "" } else { "s" },
        stats.exact_rescans,
        if stats.exact_rescans == 1 { "" } else { "s" },
        service.store().exact_column_reads(),
        stats.model_bytes
    );
    eprintln!(
        "hbmctl: serve runtime: {} worker(s), queue depth high-water {}, \
         {} rescan-cache hit(s), {} kernel rescan(s), {} eviction(s), \
         {} single-flight wait(s)",
        pipeline.workers,
        pipeline.queue_depth_max,
        stats.rescan_cache_hits,
        stats.kernel_rescans,
        stats.rescan_cache_evictions,
        stats.singleflight_waits
    );
    Ok(())
}
