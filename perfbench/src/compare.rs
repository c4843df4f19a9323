//! `perfbench compare BASE.jsonl CHANGE.jsonl`: a report-only comparison
//! of two result sets written with `--out`.
//!
//! For each workload and metric it prints each side's median and
//! quartiles, the change in the median, and — for end-to-end metrics —
//! whether the change is worse than the bound `BENCHMARK.json` fixes.
//! A metric whose base runs spread wider than its bound is reported as
//! unresolved. Per-layer deltas are printed beside the end-to-end ones.
//! It also lists runs that failed and seeds whose output fingerprints
//! differ between the sides. It never fails on a regression.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats;

/// The benchmark's declaration, beside this crate at the repository root.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    unit: String,
    lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    bound: Option<f64>,
}

/// One run read back from a result file.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    fingerprint: String,
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key}"))
}

fn num(v: &Value) -> Result<f64, String> {
    match *v {
        Value::F64(x) => Ok(x),
        Value::U64(x) => Ok(x as f64),
        Value::I64(x) => Ok(x as f64),
        _ => Err(format!("expected a number, got {}", v.kind())),
    }
}

fn text(v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("expected a string, got {}", v.kind()))
}

fn read_json(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

fn load_benchmark(path: &str) -> Result<(Vec<String>, BTreeMap<String, Declared>), String> {
    let doc = read_json(path)?;
    let workloads = get(&doc, "workloads")?
        .as_array()
        .ok_or("workloads is not a list")?
        .iter()
        .map(|w| get(w, "name").and_then(text))
        .collect::<Result<_, _>>()?;
    let mut metrics = BTreeMap::new();
    for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in get(&doc, key)?
            .as_array()
            .ok_or("metric list is not a list")?
        {
            let declared = Declared {
                unit: get(m, "unit").and_then(text)?,
                lower_is_better: get(m, "better").and_then(text)? == "lower",
                bound: if bounded {
                    Some(get(m, "bound").and_then(num)?)
                } else {
                    None
                },
            };
            metrics.insert(get(m, "name").and_then(text)?, declared);
        }
    }
    Ok((workloads, metrics))
}

fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let parse = || -> Result<Run, String> {
                let record: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
                let header = get(&record, "header")?;
                let result = get(&record, "result")?;
                let metrics = get(result, "metrics")?
                    .as_object()
                    .ok_or("metrics is not an object")?
                    .iter()
                    .map(|(name, m)| Ok((name.clone(), get(m, "value").and_then(num)?)))
                    .collect::<Result<_, String>>()?;
                Ok(Run {
                    workload: get(header, "workload").and_then(text)?,
                    seed: num(get(header, "seed")?)? as u64,
                    trace: matches!(get(header, "trace")?, Value::Bool(true)),
                    fingerprint: get(header, "fingerprint").and_then(text)?,
                    correct: matches!(get(result, "correct")?, Value::Bool(true)),
                    failed: num(get(result, "failed")?)? as u64,
                    metrics,
                })
            };
            parse().map_err(|e| format!("{path} line {}: {e}", i + 1))
        })
        .collect()
}

/// How a change compares with its base on one end-to-end metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The base's own runs spread wider than the bound.
    Unresolved,
    /// Worse than the base by more than the bound.
    Worse,
    /// Better than the base by more than the bound.
    Better,
    /// Within the bound either way.
    Within,
}

/// The verdict for medians `base` and `change`, the base's quartile
/// spread as a share of its median, and the metric's bound.
pub fn verdict(
    base: f64,
    change: f64,
    base_spread: f64,
    lower_is_better: bool,
    bound: f64,
) -> Verdict {
    let mut worse = (change - base) / base.abs().max(f64::MIN_POSITIVE);
    if !lower_is_better {
        worse = -worse;
    }
    if base_spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn of_workload<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

/// Four significant digits, in exponent form for small magnitudes.
fn sig(x: f64) -> String {
    if x == 0.0 || (0.01..1e6).contains(&x.abs()) {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

fn describe(values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{:>30}", "-");
    }
    let (q1, q2, q3) = stats::quartiles(values);
    format!("{:>30}", format!("{} [{}, {}]", sig(q2), sig(q1), sig(q3)))
}

/// Runs the comparison command.
pub fn run(args: &[String]) -> Result<(), String> {
    let [base_path, change_path] = args else {
        return Err("usage: perfbench compare BASE.jsonl CHANGE.jsonl".into());
    };
    let (workloads, declared) = load_benchmark(BENCHMARK_JSON)?;
    let base = load_runs(base_path)?;
    let change = load_runs(change_path)?;

    println!(
        "base: {base_path} ({} runs)   change: {change_path} ({} runs)",
        base.len(),
        change.len()
    );
    for workload in &workloads {
        let (b, c) = (of_workload(&base, workload), of_workload(&change, workload));
        if b.is_empty() && c.is_empty() {
            continue;
        }
        println!(
            "\n== {workload}: base {} runs, change {} runs",
            b.len(),
            c.len()
        );
        for (label, runs) in [("base", &b), ("change", &c)] {
            for r in runs.iter().filter(|r| !r.correct) {
                println!(
                    "   {label} seed {}: incorrect, {} failed operations",
                    r.seed, r.failed
                );
            }
        }
        for rb in &b {
            for rc in c
                .iter()
                .filter(|rc| rc.seed == rb.seed && rc.trace == rb.trace)
            {
                if rb.fingerprint != rc.fingerprint {
                    println!("   seed {}: output fingerprints differ", rb.seed);
                }
            }
        }
        let mut names: Vec<&str> = Vec::new();
        for r in b.iter().chain(&c) {
            for (name, _) in &r.metrics {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
            }
        }
        // End-to-end metrics first, then per-layer ones.
        names.sort_by_key(|n| declared.get(*n).map_or(true, |d| d.bound.is_none()));
        println!(
            "   {:<36} {:>6} {:>30} {:>30} {:>9}  verdict",
            "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "delta"
        );
        for name in names {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .flat_map(|r| r.metrics.iter().filter(|(n, _)| n == name).map(|&(_, v)| v))
                    .collect()
            };
            let (bv, cv) = (values(&b), values(&c));
            let d = declared.get(name);
            // A layer the workload never enters reads 0 in every run.
            if d.is_some_and(|d| d.bound.is_none()) && bv.iter().chain(&cv).all(|&v| v == 0.0) {
                continue;
            }
            let unit = d.map_or("?", |d| d.unit.as_str());
            let (delta, note) = if bv.is_empty() || cv.is_empty() {
                (String::from("-"), String::new())
            } else {
                let (q1, bm, q3) = stats::quartiles(&bv);
                let cm = stats::median(&cv);
                let delta = format!(
                    "{:+.2}%",
                    (cm - bm) / bm.abs().max(f64::MIN_POSITIVE) * 100.0
                );
                let note = match d.and_then(|d| d.bound.map(|bound| (d, bound))) {
                    Some((d, bound)) => {
                        let spread = (q3 - q1) / bm.abs().max(f64::MIN_POSITIVE);
                        match verdict(bm, cm, spread, d.lower_is_better, bound) {
                            Verdict::Unresolved => format!(
                                "unresolved: base spread {:.1}% exceeds bound {:.0}%",
                                spread * 100.0,
                                bound * 100.0
                            ),
                            Verdict::Worse => format!("WORSE than bound {:.0}%", bound * 100.0),
                            Verdict::Better => format!("better than bound {:.0}%", bound * 100.0),
                            Verdict::Within => format!("within bound {:.0}%", bound * 100.0),
                        }
                    }
                    None => "per-layer".to_owned(),
                };
                (delta, note)
            };
            println!(
                "   {name:<36} {unit:>6} {} {} {delta:>9}  {note}",
                describe(&bv),
                describe(&cv)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        // Latency: lower is better.
        assert_eq!(verdict(10.0, 11.5, 0.01, true, 0.1), Verdict::Worse);
        assert_eq!(verdict(10.0, 10.5, 0.01, true, 0.1), Verdict::Within);
        assert_eq!(verdict(10.0, 8.0, 0.01, true, 0.1), Verdict::Better);
        // Throughput: higher is better.
        assert_eq!(verdict(100.0, 85.0, 0.01, false, 0.1), Verdict::Worse);
        assert_eq!(verdict(100.0, 120.0, 0.01, false, 0.1), Verdict::Better);
        // A base that spreads wider than the bound resolves nothing.
        assert_eq!(verdict(100.0, 50.0, 0.2, false, 0.1), Verdict::Unresolved);
    }
}
