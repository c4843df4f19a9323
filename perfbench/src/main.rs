//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perfbench compare BASE.jsonl CHANGE.jsonl
//! ```
//!
//! A run prints a header line and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. Scratch files and trace files go under `.perfbench_out/`
//! in the working directory. See `README.md` beside this crate.

mod common;
mod compare;
mod fleet_build;
mod kernel;
mod loadgen;
mod paper;
mod serve;
mod stats;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use serde_json::Value;

use common::{Ctx, Metric, Outcome};
use trace::Span;

/// The seed used when `--seed` is absent: the specimen seed of every
/// figure in `EXPERIMENTS.md`.
const DEFAULT_SEED: u64 = 7;

/// Directory, relative to the working directory, for scratch and trace
/// files.
const OUT_DIR: &str = ".perfbench_out";

/// A metric's name and unit.
type Declared = (&'static str, &'static str);

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// An operation is what `attempted` counts (a device, a request, a
/// figure or a sweep point); a job is what a user waits for (a fleet
/// build round, a request, a paper pass).
const END_TO_END: [Declared; 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// A workload and the per-layer metrics of the layers it enters, in
/// groups that are reported one after another.
struct Workload {
    name: &'static str,
    per_layer: &'static [&'static [Declared]],
}

impl Workload {
    /// The per-layer metrics this workload measures, in emission order.
    fn entered(&self) -> Vec<Declared> {
        self.per_layer
            .iter()
            .flat_map(|g| g.iter().copied())
            .collect()
    }
}

const KERNEL: [Declared; 5] = [
    ("faults.kernel.carry_start_s", "s"),
    ("faults.kernel.carry_advance_s", "s"),
    ("faults.kernel.popcount_s", "s"),
    ("faults.kernel.bits_scanned", "count"),
    ("faults.kernel.ns_per_bit", "ns"),
];

const FLEET_BUILD: [Declared; 10] = [
    ("fleet.sweep.characterize_s", "s"),
    ("fleet.sweep.wall_s", "s"),
    ("fleet.sweep.worker_busy_ratio", "ratio"),
    ("fleet.artifact.encode_s", "s"),
    ("fleet.artifact.write_s", "s"),
    ("fleet.artifact.open_s", "s"),
    ("fleet.artifact.bytes_per_device", "B"),
    ("fleet.model.fit_s", "s"),
    ("fleet.model.compress_s", "s"),
    ("fleet.population.summary_s", "s"),
];

const SERVE: [Declared; 16] = [
    ("fleet.artifact.open_s", "s"),
    ("fleet.api.parse_s", "s"),
    ("fleet.api.encode_s", "s"),
    ("fleet.serve.model_path_s", "s"),
    ("fleet.serve.exact_path_s", "s"),
    ("fleet.serve.cache_hit_s", "s"),
    ("fleet.serve.rescan_s", "s"),
    ("fleet.serve.kernel_rescans", "count"),
    ("fleet.serve.rescan_cache_hits", "count"),
    ("fleet.serve.singleflight_waits", "count"),
    ("fleet.serve.cache_hit_ratio", "ratio"),
    ("fleet.serve.model_coverage", "ratio"),
    ("fleet.pipeline.worker_s", "s"),
    ("fleet.pipeline.wait_s", "s"),
    ("fleet.pipeline.queue_depth_max", "count"),
    ("fleet.pipeline.round_trip_p90_ms", "ms"),
];

const PAPER: [Declared; 16] = [
    ("paper.figures_s", "s"),
    ("paper.sweep_s", "s"),
    ("core.supervisor.checkpoint_s", "s"),
    ("core.supervisor.checkpoint_bytes", "B"),
    ("core.supervisor.checkpoints_written", "count"),
    ("core.engine.masks_carried", "count"),
    ("core.engine.words_scanned", "count"),
    ("core.engine.tile_hit_ratio", "ratio"),
    ("core.reliability.traffic_sweep_s", "s"),
    ("figures.fig2_s", "s"),
    ("figures.fig3_s", "s"),
    ("figures.fig4_s", "s"),
    ("figures.fig5_s", "s"),
    ("figures.fig6_s", "s"),
    ("figures.headlines_s", "s"),
    ("figures.characterization_s", "s"),
];

const TRACE: [Declared; 2] = [("trace.overhead_pct", "%"), ("trace.coverage", "ratio")];

/// Every per-layer metric, in `BENCHMARK.json` order: what every
/// workload reports with `--trace 1`.
const PER_LAYER: [&[Declared]; 5] = [&KERNEL, &FLEET_BUILD, &SERVE, &PAPER, &TRACE];

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_build",
        per_layer: &[&KERNEL, &FLEET_BUILD, &TRACE],
    },
    Workload {
        name: "serve_rescan",
        per_layer: &[&KERNEL, &SERVE, &TRACE],
    },
    Workload {
        name: "serve_exact",
        per_layer: &[&SERVE, &[("fleet.population.summary_s", "s")], &TRACE],
    },
    Workload {
        name: "paper_repro",
        per_layer: &[&KERNEL, &PAPER, &TRACE],
    },
];

/// The per-layer registry without repeats, in order.
fn per_layer_registry() -> Vec<Declared> {
    let mut all: Vec<Declared> = Vec::new();
    for m in PER_LAYER.iter().flat_map(|g| g.iter().copied()) {
        if !all.contains(&m) {
            all.push(m);
        }
    }
    all
}

/// A traced run's metrics over the whole registry: the entered layers'
/// values, and 0 for each layer the workload never enters (no time, no
/// count).
fn complete_per_layer(entered: &[Metric]) -> Vec<Metric> {
    per_layer_registry()
        .into_iter()
        .map(|(name, unit)| {
            entered
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| common::metric(name, 0.0, unit))
        })
        .collect()
}

/// Parsed run arguments.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or_else(|| format!("--workload is one of {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The commit of the working directory's checkout, when it is a git
/// repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Writes a traced run's spans to `.perfbench_out/trace-<workload>-seed<N>.json`.
pub(crate) fn write_trace(
    ctx: &Ctx,
    workload: &str,
    spans: &[Span],
    window: (u64, u64),
) -> Result<(), String> {
    let header = Value::Object(vec![
        ("workload".into(), Value::Str(workload.to_owned())),
        ("seed".into(), Value::U64(ctx.seed)),
    ]);
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}-seed{}.json", ctx.seed));
    std::fs::write(&path, trace::to_json(spans, window, header))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn header(args: &Args, ctx: &Ctx, outcome: &Outcome) -> Value {
    let mut fields = vec![
        ("workload".into(), Value::Str(args.workload.name.to_owned())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("available_parallelism".into(), Value::U64(ctx.nproc as u64)),
        (
            "profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        ("commit".into(), Value::Str(git_commit())),
        (
            "fingerprint".into(),
            Value::Str(format!("{:016x}", outcome.fingerprint)),
        ),
    ];
    fields.extend(
        outcome
            .shape
            .iter()
            .map(|&(k, v)| (k.to_owned(), Value::U64(v))),
    );
    fields.extend(
        outcome
            .notes
            .iter()
            .map(|&(k, v)| (k.to_owned(), Value::F64(v))),
    );
    Value::Object(fields)
}

fn result(outcome: &Outcome) -> Value {
    let tally = &outcome.tally;
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), Value::Str(m.unit.to_owned())),
            ]);
            (m.name.to_owned(), entry)
        })
        .collect();
    Value::Object(vec![
        (
            "correct".into(),
            Value::Bool(tally.failed == 0 && tally.errors.is_empty()),
        ),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// The emitted metrics must be exactly the declared ones, finite, in
/// declared order and units.
fn check_declared(emitted: &[Metric], declared: &[Declared]) -> Result<(), String> {
    let got: Vec<Declared> = emitted.iter().map(|m| (m.name, m.unit)).collect();
    if got != declared {
        return Err(format!("emitted {got:?}, declared {declared:?}"));
    }
    match emitted.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not finite", m.name)),
        None => Ok(()),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let dir = Path::new(OUT_DIR).join(format!("run-{}-{}", args.workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        dir: dir.clone(),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let outcome = match args.workload.name {
        "fleet_build" => fleet_build::run(&ctx, args.trace),
        "serve_rescan" => serve::run(&ctx, serve::Kind::Rescan, args.trace),
        "serve_exact" => serve::run(&ctx, serve::Kind::Exact, args.trace),
        "paper_repro" => paper::run(&ctx, args.trace),
        other => Err(format!("no runner for {other}")),
    };
    // Scratch artifacts go whatever happened; trace files stay.
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = outcome?;
    if args.trace {
        check_declared(&outcome.metrics, &args.workload.entered())?;
        outcome.metrics = complete_per_layer(&outcome.metrics);
    } else {
        check_declared(&outcome.metrics, &END_TO_END)?;
    }
    for error in &outcome.tally.errors {
        eprintln!("check failed: {error}");
    }

    let header = header(args, &ctx, &outcome);
    let result = result(&outcome);
    if let Some(path) = &args.out {
        let record = Value::Object(vec![
            ("header".into(), header.clone()),
            ("result".into(), result.clone()),
        ]);
        let line = serde_json::to_string(&record).map_err(|e| e.to_string())? + "\n";
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let header_line = Value::Object(vec![("header".into(), header)]);
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "{}",
        serde_json::to_string(&header_line).map_err(|e| e.to_string())?
    )
    .and_then(|()| {
        writeln!(
            stdout,
            "{}",
            serde_json::to_string(&result).expect("result serializes")
        )
    })
    .map_err(|e| format!("stdout: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..])
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        serde_json::from_str(&std::fs::read_to_string(compare::BENCHMARK_JSON).unwrap()).unwrap()
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        &v.as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == key)
            .unwrap()
            .1
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        field(doc, key)
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().unwrap().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// The workloads, the end-to-end metrics every workload reports and
    /// the per-layer registry are exactly those of `BENCHMARK.json`, and
    /// every layer metric is entered by some workload.
    #[test]
    fn registry_matches_benchmark_json() {
        let doc = benchmark_json();
        let workloads: Vec<String> = field(&doc, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap().to_owned())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_owned()));
        let owned = |v: Vec<Declared>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END.to_vec()));
        let registry = per_layer_registry();
        assert_eq!(declared(&doc, "per_layer"), owned(registry.clone()));
        for entry in &registry {
            assert!(
                WORKLOADS.iter().any(|w| w.entered().contains(entry)),
                "{entry:?} is entered by no workload"
            );
        }
        for w in &WORKLOADS {
            for entry in w.entered() {
                assert!(registry.contains(&entry), "{}: {entry:?}", w.name);
            }
        }
    }

    #[test]
    fn per_layer_is_completed_with_zeros_in_registry_order() {
        let entered = [
            common::metric("trace.coverage", 0.99, "ratio"),
            common::metric("fleet.api.parse_s", 2e-6, "s"),
        ];
        let full = complete_per_layer(&entered);
        assert_eq!(
            full.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>(),
            per_layer_registry()
        );
        let value = |name| full.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("trace.coverage"), 0.99);
        assert_eq!(value("fleet.api.parse_s"), 2e-6);
        assert_eq!(value("figures.fig2_s"), 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload serve_exact --seed 3 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("serve_exact", 3, 2.5, true)
        );
        assert_eq!(
            parse_args(&args("--workload fleet_build")).unwrap().seed,
            DEFAULT_SEED
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload fleet_build --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet_build --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
