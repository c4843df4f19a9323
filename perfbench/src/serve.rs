//! `serve_rescan` and `serve_exact`: a closed-loop client with two
//! outstanding LDJSON requests against `serve_concurrent` (two workers)
//! over a compressed artifact of one seed's fleet.
//!
//! - `serve_rescan` serves the model-only artifact. On the onset grid
//!   every recommend abstains to a kernel rescan; about one request in
//!   ten repeats a device, so the rescan cache and single-flight are
//!   exercised while the latency distribution keeps one mode.
//! - `serve_exact` serves the keep-exact artifact, so recommends resolve
//!   from the model envelope plus the stored exact columns and the kernel
//!   never runs: parse, handle, encode, the queue and the in-order
//!   emitter do all the work.
//!
//! Each serving session opens the artifact and builds a fresh service
//! (the set-up), then streams its requests; sessions repeat until the
//! budget of session time is spent.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hbm_fleet::{
    api::ApiError, artifact, model, sweep, FleetConfig, FleetRequest, FleetResponse, FleetService,
    FleetStore, PipelineStats,
};

use crate::common::{self, metric, self_per_call, trace_metrics, Ctx, Outcome, Tally};
use crate::kernel;
use crate::loadgen::{self, serve_session, LoopRun};
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Devices in the served fleet.
pub const DEVICES: u32 = 64;

/// Requests per `serve_exact` session.
const EXACT_SESSION: usize = 4000;

/// Requests of the first traced session replayed sequentially.
const REPLAYED_REQUESTS: usize = 2000;

/// Rescanned devices whose kernel calls are replayed.
const REPLAYED_DEVICES: u32 = 2;

/// Which artifact is served and which request mix it gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Model-only artifact, rescan-bound recommends.
    Rescan,
    /// Keep-exact artifact, mixed requests that never rescan.
    Exact,
}

/// The served fleet, written once per run before any set-up is timed.
struct Fleet {
    cfg: FleetConfig,
    served: PathBuf,
    /// The keep-exact store: the reference answers for `serve_rescan`.
    exact: FleetStore,
}

fn build_fleet(ctx: &Ctx, kind: Kind) -> Result<Fleet, String> {
    let cfg = crate::fleet_build::config(DEVICES, ctx.seed, ctx.nproc);
    let records = sweep::run(&cfg)
        .map_err(|e| format!("fleet sweep: {e}"))?
        .records;
    let store = FleetStore::from_bytes(artifact::encode(&cfg, &records))
        .map_err(|e| format!("fleet artifact: {e}"))?;
    let compress = |keep_exact| {
        model::compress_store(&store, keep_exact).map_err(|e| format!("compress: {e}"))
    };
    let keep_exact = compress(true)?;
    let (served, bytes) = match kind {
        Kind::Rescan => (ctx.dir.join("model-only.hbfa"), compress(false)?),
        Kind::Exact => (ctx.dir.join("keep-exact.hbfa"), keep_exact.clone()),
    };
    std::fs::write(&served, bytes).map_err(|e| format!("{}: {e}", served.display()))?;
    let exact = FleetStore::from_bytes(keep_exact).map_err(|e| format!("keep-exact: {e}"))?;
    Ok(Fleet { cfg, served, exact })
}

fn session_requests(kind: Kind, seed: u64, session: u64) -> Vec<String> {
    match kind {
        Kind::Rescan => loadgen::rescan_session(seed, session, DEVICES),
        Kind::Exact => loadgen::exact_session(seed, session, DEVICES, EXACT_SESSION),
    }
}

/// Opens the artifact and builds the service.
fn setup(fleet: &Fleet, tracer: &Tracer) -> Result<FleetService, String> {
    tracer.in_span("serve.setup", None, |s| {
        let store = tracer
            .in_span("fleet.artifact.open", s, |_| {
                FleetStore::open(&fleet.served)
            })
            .map_err(|e| format!("open artifact: {e}"))?;
        Ok(FleetService::new(store))
    })
}

/// The sequential transport's answer to one line: parse, handle,
/// encode — what `FleetService::handle_line` does, with a span around
/// each step and the handle span named by the path the request took.
fn answer(
    service: &FleetService,
    line: &str,
    tracer: &Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Result<String, ApiError> {
    let t0 = tracer.now_ns();
    let parsed = serde_json::from_str::<FleetRequest>(line);
    let t1 = tracer.now_ns();
    tracer.record("fleet.api.parse", t0, t1, parent, Some(request));
    let response = match parsed {
        Ok(req) => {
            let before = service.stats();
            let response = service.handle(&req);
            let t2 = tracer.now_ns();
            let after = service.stats();
            let path = if matches!(req, FleetRequest::Summary) {
                "fleet.population.summary"
            } else if after.compressed_hits > before.compressed_hits {
                "fleet.serve.model_path"
            } else if after.kernel_rescans > before.kernel_rescans {
                "fleet.serve.rescan"
            } else if after.rescan_cache_hits > before.rescan_cache_hits {
                "fleet.serve.cache_hit"
            } else if after.exact_rescans > before.exact_rescans {
                "fleet.serve.exact_path"
            } else {
                "fleet.serve.error"
            };
            tracer.record(path, t1, t2, parent, Some(request));
            response
        }
        Err(err) => FleetResponse::Error(ApiError::parse(format!("bad request line: {err}"))),
    };
    let t3 = tracer.now_ns();
    let json = response.to_json();
    tracer.record(
        "fleet.api.encode",
        t3,
        tracer.now_ns(),
        parent,
        Some(request),
    );
    json
}

/// Sequential `serve::serve` replies per distinct request line. A reply
/// depends only on its line, so each distinct line is served once, on a
/// fresh service, the first time a session sends it.
#[derive(Default)]
struct SequentialReplies(HashMap<String, String>);

impl SequentialReplies {
    fn fill(&mut self, fleet: &Fleet, lines: &[String]) -> Result<(), String> {
        let mut seen = HashSet::new();
        let new: Vec<&String> = lines
            .iter()
            .filter(|line| !self.0.contains_key(*line) && seen.insert(*line))
            .collect();
        if new.is_empty() {
            return Ok(());
        }
        let service =
            FleetService::new(FleetStore::open(&fleet.served).map_err(|e| format!("reopen: {e}"))?);
        let input = new
            .iter()
            .map(|l| l.as_str())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        let mut bytes = Vec::new();
        hbm_fleet::serve::serve(&service, input.as_bytes(), &mut bytes)
            .map_err(|e| format!("sequential serve: {e}"))?;
        let replies = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        let replies: Vec<&str> = replies.lines().collect();
        if replies.len() != new.len() {
            return Err(format!(
                "sequential serve answered {} of {} lines",
                replies.len(),
                new.len()
            ));
        }
        for (line, reply) in new.into_iter().zip(replies) {
            self.0.insert(line.clone(), reply.to_owned());
        }
        Ok(())
    }
}

/// Checks one session's replies outside the timed region and counts
/// each request as an operation.
fn check_session(
    kind: Kind,
    fleet: &Fleet,
    requests: &[String],
    run: &LoopRun,
    reference: &FleetService,
    sequential: &mut SequentialReplies,
    tally: &mut Tally,
) -> Result<(), String> {
    let sent = &requests[..run.sent];
    let expected: Vec<String> = match kind {
        // Every answer must equal the exact-column answer.
        Kind::Rescan => sent
            .iter()
            .map(|line| {
                let request: FleetRequest =
                    serde_json::from_str(line).map_err(|e| format!("generated line: {e}"))?;
                reference.handle(&request).to_json().map_err(|e| e.message)
            })
            .collect::<Result<_, String>>()?,
        // The byte stream must equal sequential serving of the same input.
        Kind::Exact => {
            sequential.fill(fleet, sent)?;
            sent.iter().map(|line| sequential.0[line].clone()).collect()
        }
    };
    for (i, line) in sent.iter().enumerate() {
        let reply = run.replies.get(i);
        let mut ok = reply.is_some() && reply == expected.get(i);
        if ok && loadgen::is_malformed(line) {
            ok = matches!(
                serde_json::from_str::<FleetResponse>(reply.expect("checked above")),
                Ok(FleetResponse::Error(ref e)) if e.kind == "parse"
            );
        }
        tally.op(ok);
    }
    tally.check(run.replies.len() == run.sent, || {
        format!("{} replies for {} requests", run.replies.len(), run.sent)
    });
    Ok(())
}

/// Latency percentiles measured per pass: the median is the end-to-end
/// `latency_p50_ms`, the 90th percentile the per-layer
/// `fleet.pipeline.round_trip_p90_ms`.
const PERCENTILES: [f64; 2] = [50.0, 90.0];

/// What one pass of sessions measured.
#[derive(Default)]
struct Pass {
    setups: Vec<f64>,
    /// Every request's round trip, pooled across sessions (`serve_rescan`).
    latencies_ms: Vec<f64>,
    /// Per session with enough samples for every percentile: requests
    /// per second, then the percentiles (`serve_exact`).
    sessions: Vec<Vec<f64>>,
    round_trip_s: f64,
    requests: u64,
    loop_s: f64,
    worker_us: u64,
    worker_count: u64,
    queue_depth_max: u64,
    stats: Vec<PipelineStats>,
    /// The first session's requests and replies, when it ran to the end.
    first: Option<(Vec<String>, Vec<String>)>,
}

impl Pass {
    fn per_request_s(&self) -> f64 {
        stats::per_op(self.loop_s, self.requests)
    }
}

fn pass(
    ctx: &Ctx,
    kind: Kind,
    fleet: &Fleet,
    budget: Duration,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let reference = FleetService::new(fleet.exact.clone());
    let mut sequential = SequentialReplies::default();
    let mut p = Pass::default();
    let mut session = 0;
    while p.loop_s < budget.as_secs_f64() {
        let start = Instant::now();
        let service = setup(fleet, tracer)?;
        p.setups.push(start.elapsed().as_secs_f64());

        let requests = session_requests(kind, ctx.seed, session);
        let deadline = Instant::now() + budget - Duration::from_secs_f64(p.loop_s);
        let span = tracer.open("serve.session", None, None);
        let (run, pipeline) =
            serve_session(&service, &requests, deadline, tracer).map_err(|e| e.to_string())?;
        tracer.close(span);
        let mut latencies: Vec<f64> = Vec::with_capacity(run.times_ns.len());
        for (i, &(sent, replied)) in run.times_ns.iter().enumerate() {
            tracer.record(
                "serve.request",
                sent,
                replied,
                span,
                Some(p.requests + i as u64),
            );
            latencies.push((replied - sent) as f64 * 1e-6);
        }
        p.round_trip_s += latencies.iter().sum::<f64>() * 1e-3;
        match kind {
            Kind::Rescan => p.latencies_ms.extend(latencies),
            Kind::Exact => {
                latencies.sort_by(f64::total_cmp);
                let mut row = vec![run.replies.len() as f64 / run.elapsed.as_secs_f64()];
                row.extend(
                    PERCENTILES
                        .iter()
                        .map_while(|&pct| stats::tail_percentile(&latencies, pct)),
                );
                if row.len() == 1 + PERCENTILES.len() {
                    p.sessions.push(row);
                }
            }
        }
        p.requests += run.replies.len() as u64;
        p.loop_s += run.elapsed.as_secs_f64();
        p.worker_us += pipeline.latency.sum_us;
        p.worker_count += pipeline.latency.count;
        p.queue_depth_max = p.queue_depth_max.max(pipeline.queue_depth_max);
        p.stats.push(pipeline);

        tracer.in_span("bench.check", None, |_| {
            check_session(
                kind,
                fleet,
                &requests,
                &run,
                &reference,
                &mut sequential,
                tally,
            )
        })?;
        if session == 0 && run.sent == requests.len() {
            p.first = Some((requests, run.replies));
        }
        session += 1;
    }
    Ok(p)
}

/// Requests per second, then the latency [`PERCENTILES`] in ms. A
/// `serve_exact` session holds thousands of requests, so each session
/// yields its own rate and percentiles and the median across sessions is
/// reported: one session stalled by the host does not move the result.
/// `serve_rescan` sessions are too short for a per-session p90, so its
/// samples are pooled.
fn serving_metrics(kind: Kind, mut p: Pass) -> Result<[f64; 3], String> {
    match kind {
        Kind::Rescan => {
            p.latencies_ms.sort_by(f64::total_cmp);
            let n = p.latencies_ms.len();
            let at = |pct: f64| {
                stats::tail_percentile(&p.latencies_ms, pct).ok_or_else(|| {
                    format!(
                        "p{pct} needs {} samples beyond it, {n} requests give {}; run longer",
                        stats::MIN_SAMPLES_BEYOND,
                        stats::samples_beyond(n, pct)
                    )
                })
            };
            Ok([
                1.0 / p.per_request_s(),
                at(PERCENTILES[0])?,
                at(PERCENTILES[1])?,
            ])
        }
        Kind::Exact => {
            if p.sessions.is_empty() {
                return Err("no session was long enough for a p90; run longer".into());
            }
            let column =
                |i: usize| stats::median(&p.sessions.iter().map(|r| r[i]).collect::<Vec<_>>());
            Ok([column(0), column(1), column(2)])
        }
    }
}

fn digest_replies(p: &Pass) -> Option<u64> {
    p.first.as_ref().map(|(_, replies)| {
        replies
            .iter()
            .fold(common::DIGEST_SEED, |h, r| common::digest(h, r.as_bytes()))
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, kind: Kind, trace: bool) -> Result<Outcome, String> {
    let fleet = build_fleet(ctx, kind)?;
    let mut out = Outcome {
        shape: vec![
            ("serve_workers", loadgen::SERVE_WORKERS as u64),
            ("clients", 1),
            ("outstanding_per_client", loadgen::WINDOW as u64),
            ("fleet_devices", u64::from(DEVICES)),
        ],
        ..Outcome::default()
    };
    if !trace {
        let p = pass(
            ctx,
            kind,
            &fleet,
            ctx.budget,
            &Tracer::new(false),
            &mut out.tally,
        )?;
        out.fingerprint = digest_replies(&p).unwrap_or(0);
        let setup_s = stats::median(&p.setups);
        let [requests_per_s, p50, _] = serving_metrics(kind, p)?;
        out.metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", common::peak_rss_mb(), "MiB"),
            metric("ops_per_s", requests_per_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
        ];
        return Ok(out);
    }

    let half = ctx.budget / 2;
    let untraced = pass(ctx, kind, &fleet, half, &Tracer::new(false), &mut out.tally)?;
    let tracer = Tracer::new(true);
    let (traced, window) = common::window(&tracer, || {
        pass(ctx, kind, &fleet, half, &tracer, &mut out.tally)
    });
    let traced = traced?;
    if let (Some(a), Some(b)) = (digest_replies(&untraced), digest_replies(&traced)) {
        out.tally
            .check(a == b, || "traced and untraced replies differ".to_owned());
    }
    out.fingerprint = digest_replies(&traced).unwrap_or(0);

    // Probe: the first traced session replayed sequentially against a
    // fresh service, one span per step of each request.
    if let Some((requests, replies)) = &traced.first {
        let service = setup(&fleet, &Tracer::new(false))?;
        tracer.in_span("probe.replay", None, |probe| {
            for (i, line) in requests.iter().take(REPLAYED_REQUESTS).enumerate() {
                let id = i as u64;
                let span = tracer.open("replay.request", probe, Some(id));
                let json = answer(&service, line, &tracer, span, id).map_err(|e| e.message)?;
                tracer.close(span);
                out.tally.check(json == replies[i], || {
                    format!("sequential replay of request {i} differs from the served reply")
                });
            }
            Ok::<_, String>(())
        })?;
    }
    let mut hashed_words = 0;
    if kind == Kind::Rescan {
        tracer.in_span("probe.kernel", None, |probe| {
            for device in 0..REPLAYED_DEVICES {
                let (faults, hashed) =
                    kernel::replay_fleet_device(&fleet.cfg, device, &tracer, probe);
                hashed_words += hashed;
                out.tally
                    .check(faults == fleet.exact.record(device as usize).faults, || {
                        format!("kernel replay of device {device} disagrees with the artifact")
                    });
            }
        });
    }

    let spans = tracer.spans();
    let layers = crate::trace::by_name(&spans);
    let serve = traced
        .stats
        .iter()
        .map(|s| s.serve)
        .fold([0u64; 5], |mut acc, s| {
            acc[0] += s.kernel_rescans;
            acc[1] += s.rescan_cache_hits;
            acc[2] += s.singleflight_waits;
            acc[3] += s.compressed_hits;
            acc[4] += s.exact_rescans;
            acc
        });
    let [rescans, hits, waits, model_hits, exact_hits] = serve.map(|x| x as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let worker_s = stats::per_op(traced.worker_us as f64 * 1e-6, traced.worker_count);
    let round_trip_s = stats::per_op(traced.round_trip_s, traced.requests);

    let untraced_per_request_s = untraced.per_request_s();
    let [_, _, p90] = serving_metrics(kind, untraced)?;
    let mut metrics = Vec::new();
    if kind == Kind::Rescan {
        metrics.extend(kernel::kernel_metrics(&layers, hashed_words));
    }
    let per_call = |name| self_per_call(&layers, name);
    metrics.extend([
        metric(
            "fleet.artifact.open_s",
            per_call("fleet.artifact.open"),
            "s",
        ),
        metric("fleet.api.parse_s", per_call("fleet.api.parse"), "s"),
        metric("fleet.api.encode_s", per_call("fleet.api.encode"), "s"),
        metric(
            "fleet.serve.model_path_s",
            per_call("fleet.serve.model_path"),
            "s",
        ),
        metric(
            "fleet.serve.exact_path_s",
            per_call("fleet.serve.exact_path"),
            "s",
        ),
        metric(
            "fleet.serve.cache_hit_s",
            per_call("fleet.serve.cache_hit"),
            "s",
        ),
        metric("fleet.serve.rescan_s", per_call("fleet.serve.rescan"), "s"),
        metric("fleet.serve.kernel_rescans", rescans, "count"),
        metric("fleet.serve.rescan_cache_hits", hits, "count"),
        metric("fleet.serve.singleflight_waits", waits, "count"),
        metric(
            "fleet.serve.cache_hit_ratio",
            ratio(hits, hits + waits + rescans),
            "ratio",
        ),
        metric(
            "fleet.serve.model_coverage",
            ratio(model_hits, model_hits + exact_hits),
            "ratio",
        ),
        metric("fleet.pipeline.worker_s", worker_s, "s"),
        metric("fleet.pipeline.wait_s", round_trip_s - worker_s, "s"),
        metric(
            "fleet.pipeline.queue_depth_max",
            traced.queue_depth_max as f64,
            "count",
        ),
        metric("fleet.pipeline.round_trip_p90_ms", p90, "ms"),
    ]);
    if kind == Kind::Exact {
        metrics.push(metric(
            "fleet.population.summary_s",
            per_call("fleet.population.summary"),
            "s",
        ));
    }
    metrics.extend(trace_metrics(
        untraced_per_request_s,
        traced.per_request_s(),
        &spans,
        window,
    ));
    out.metrics = metrics;
    let name = match kind {
        Kind::Rescan => "serve_rescan",
        Kind::Exact => "serve_exact",
    };
    crate::write_trace(ctx, name, &spans, window)?;
    Ok(out)
}
