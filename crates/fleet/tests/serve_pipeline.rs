//! Property and concurrency tests for the serving pipeline: the
//! concurrent runtime's output byte stream is identical to sequential
//! serving at every worker count (even under adversarial completion
//! jitter), and the single-flight rescan cache collapses K concurrent
//! identical model-envelope misses into exactly one kernel rescan.

use std::sync::Barrier;

use hbm_fleet::{
    artifact, model, sweep, FleetConfig, FleetRequest, FleetResponse, FleetService, FleetStore,
    PipelineOptions,
};
use hbm_units::Millivolts;
use proptest::prelude::*;

/// A small fleet whose knot grid straddles the crash-floor band
/// (810 ± 15 mV), so queries cover crashed and clean knots alike.
fn small_config(devices: u32, base_seed: u64) -> FleetConfig {
    FleetConfig {
        devices,
        base_seed,
        workers: 1,
        words_per_pc: 4,
        from: Millivolts(960),
        down_to: Millivolts(820),
        step: Millivolts(20),
        weak_reference: Millivolts(900),
        ..FleetConfig::default()
    }
}

/// A compressed (model-only) store: recommends route model-first and fall
/// back to on-demand kernel rescans, exercising the rescan cache.
fn model_only_store(devices: u32, base_seed: u64) -> FleetStore {
    let cfg = small_config(devices, base_seed);
    let records = sweep::run(&cfg).unwrap().records;
    let exact = FleetStore::from_bytes(artifact::encode(&cfg, &records)).unwrap();
    FleetStore::from_bytes(model::compress_store(&exact, false).unwrap()).unwrap()
}

/// A deterministic mixed request workload: valid recommends across the
/// device range and target-rate spectrum, summaries, fidelity probes,
/// config errors (zero rate, unknown device), parse errors, and blank
/// lines — every response class the wire format can produce.
fn mixed_request_lines(devices: u32, salt: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let rates = [1e-1, 1e-2, 1e-3, 1e-4];
    for i in 0..devices {
        let rate = rates[((u64::from(i) + salt) % rates.len() as u64) as usize];
        lines.push(format!(
            "{{\"Recommend\":{{\"device_id\":{i},\"target_rate\":{rate},\"min_pcs\":16}}}}"
        ));
        if i % 2 == 0 {
            lines.push("\"Summary\"".to_owned());
        }
        if i % 3 == 0 {
            lines.push(String::new());
            lines.push(format!(
                "{{\"Recommend\":{{\"device_id\":{},\"target_rate\":0.01,\"min_pcs\":16}}}}",
                devices + 5
            ));
        }
    }
    lines.push("{\"Recommend\":{\"device_id\":0,\"target_rate\":0.0,\"min_pcs\":16}}".to_owned());
    lines.push("not json".to_owned());
    lines.push("\"Summary\"".to_owned());
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: for every worker count, with adversarial
    /// per-request completion jitter shuffling the order workers finish
    /// in, the concurrent pipeline's output bytes equal sequential
    /// serving's — and so do the request-level serving counters.
    #[test]
    fn concurrent_serving_is_byte_identical_to_sequential(
        devices in 3u32..8,
        base_seed in 0u64..100_000,
        jitter_seed in any::<u64>(),
    ) {
        let store = model_only_store(devices, base_seed);
        let input = mixed_request_lines(devices, base_seed).join("\n") + "\n";

        let sequential_service = FleetService::new(store.clone());
        let mut sequential_out = Vec::new();
        let sequential_stats = hbm_fleet::serve::serve(
            &sequential_service,
            input.as_bytes(),
            &mut sequential_out,
        ).unwrap();

        for workers in [1usize, 2, 4, 8] {
            let service = FleetService::new(store.clone());
            let mut out = Vec::new();
            let options = PipelineOptions {
                workers,
                completion_jitter: Some(jitter_seed),
            };
            let pipeline = hbm_fleet::serve_concurrent(
                &service,
                input.as_bytes(),
                &mut out,
                &options,
            ).unwrap();
            prop_assert_eq!(
                std::str::from_utf8(&out).unwrap(),
                std::str::from_utf8(&sequential_out).unwrap(),
                "output diverged at {} workers",
                workers
            );
            prop_assert_eq!(
                pipeline.serve.queries_served,
                sequential_stats.queries_served,
                "request count diverged at {} workers",
                workers
            );
            prop_assert_eq!(pipeline.workers, workers);
            prop_assert_eq!(
                pipeline.latency.count,
                sequential_stats.queries_served,
                "every request must be timed"
            );
        }
    }
}

/// Finds a `(device, rate)` whose recommend misses the model envelope on
/// a model-only store and falls back to a kernel rescan (the expensive
/// path the single-flight cache exists for).
fn find_rescanning_request(store: &FleetStore) -> Option<FleetRequest> {
    for device_id in 0..store.len() as u32 {
        for rate in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let service = FleetService::new(store.clone());
            let request = FleetRequest::Recommend {
                device_id,
                target_rate: rate,
                min_pcs: 16,
            };
            if let FleetResponse::Error(err) = service.handle(&request) {
                panic!("probe request failed: {}", err.message);
            }
            if service.stats().kernel_rescans > 0 {
                return Some(request);
            }
        }
    }
    None
}

#[test]
fn concurrent_identical_misses_share_one_kernel_rescan() {
    let store = model_only_store(6, 41);
    let request = find_rescanning_request(&store)
        .expect("some query on a model-only store must miss the envelope");

    const CLIENTS: usize = 8;
    let service = FleetService::new(store);
    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    match service.handle(&request) {
                        FleetResponse::Recommendation(rec) => format!("{rec:?}"),
                        other => panic!("unexpected response: {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses[1..] {
        assert_eq!(
            response, &responses[0],
            "waiters must see the leader's result"
        );
    }
    let stats = service.stats();
    assert_eq!(
        stats.kernel_rescans, 1,
        "K concurrent identical misses must run exactly one rescan: {stats:?}"
    );
    assert_eq!(
        stats.rescan_cache_hits + stats.singleflight_waits,
        (CLIENTS - 1) as u64,
        "the other clients are cache hits or single-flight waits: {stats:?}"
    );
}

#[test]
fn repeated_misses_hit_the_cache_instead_of_rescanning() {
    let store = model_only_store(6, 41);
    let request = find_rescanning_request(&store)
        .expect("some query on a model-only store must miss the envelope");

    let service = FleetService::new(store);
    let first = service.handle(&request);
    for _ in 0..4 {
        assert_eq!(service.handle(&request), first);
    }
    let stats = service.stats();
    assert_eq!(stats.kernel_rescans, 1, "{stats:?}");
    assert_eq!(stats.rescan_cache_hits, 4, "{stats:?}");
}

#[test]
fn zero_cache_budget_rescans_every_miss() {
    let store = model_only_store(6, 41);
    let request = find_rescanning_request(&store)
        .expect("some query on a model-only store must miss the envelope");

    let service = FleetService::with_rescan_cache(store, 0);
    let first = service.handle(&request);
    for _ in 0..2 {
        assert_eq!(service.handle(&request), first);
    }
    let stats = service.stats();
    assert_eq!(stats.kernel_rescans, 3, "{stats:?}");
    assert_eq!(stats.rescan_cache_hits, 0, "{stats:?}");
}

/// A request line that is not UTF-8 is answered in-band with a `parse`
/// error and the session goes on: a bad line between two valid requests
/// gets three answers, in order, byte-identical sequentially and at 1
/// and 4 pipeline workers.
#[test]
fn non_utf8_line_is_answered_in_band_and_the_session_continues() {
    let store = model_only_store(3, 7);
    let mut input = b"\"Summary\"\n".to_vec();
    input.extend_from_slice(b"{\"Recommend\":\xff\xfe}\n");
    input.extend_from_slice(
        b"{\"Recommend\":{\"device_id\":1,\"target_rate\":0.01,\"min_pcs\":16}}\n",
    );

    let mut sequential = Vec::new();
    let stats = hbm_fleet::serve::serve(
        &FleetService::new(store.clone()),
        input.as_slice(),
        &mut sequential,
    )
    .unwrap();
    assert_eq!(stats.queries_served, 3);
    let text = std::str::from_utf8(&sequential).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].starts_with("{\"Summary\":"), "{}", lines[0]);
    match serde_json::from_str::<FleetResponse>(lines[1]).unwrap() {
        FleetResponse::Error(err) => assert_eq!(err.kind, "parse"),
        other => panic!("unexpected: {other:?}"),
    }
    assert!(lines[2].starts_with("{\"Recommendation\":"), "{}", lines[2]);

    for workers in [1usize, 4] {
        let mut out = Vec::new();
        let options = PipelineOptions {
            workers,
            completion_jitter: None,
        };
        hbm_fleet::serve_concurrent(
            &FleetService::new(store.clone()),
            input.as_slice(),
            &mut out,
            &options,
        )
        .unwrap();
        assert_eq!(out, sequential, "{workers} workers");
    }
}
