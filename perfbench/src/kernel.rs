//! Replays the fault kernel's calls one pseudo channel at a time, with a
//! span around each call, the way `hbm_fleet::characterize_device` makes
//! them: `FaultInjector::new`, then `carry_start` at the top knot,
//! `carry_advance` at each lower knot, and a `for_each_mask` popcount
//! fold after every step. The words the calls report re-hashing
//! (`CarryStats::delta_words`) are summed, so the bit rate is the
//! kernel's own work, not the configured range.

use std::ops::Range;

use hbm_device::PcIndex;
use hbm_faults::{FaultFieldMode, FaultInjector, MaskKernel};
use hbm_fleet::{FleetConfig, CRASHED_KNOT};
use hbm_units::Millivolts;

use crate::common::{metric, Metric};
use crate::trace::{LayerTotals, SpanId, Tracer};

/// Bits hashed per re-enumerated word.
const BITS_PER_WORD: u64 = 256;

/// One pseudo channel's carried descent over `knots` (descending): the
/// union fault-bit count at each knot, and the words `carry_start` and
/// `carry_advance` re-hashed along the way.
pub fn descent(
    kernel: &impl MaskKernel,
    pc: PcIndex,
    words: Range<u64>,
    knots: &[Millivolts],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Vec<u64>, u64) {
    let Some((&top, lower)) = knots.split_first() else {
        return (Vec::new(), 0);
    };
    let descent = tracer.open("faults.kernel.descent", parent, None);
    let (mut carry, start) = tracer.in_span("faults.kernel.carry_start", descent, |_| {
        kernel.carry_start(pc, words, top)
    });
    let mut hashed_words = start.delta_words();
    let mut counts = Vec::with_capacity(knots.len());
    for step in 0..knots.len() {
        if step > 0 {
            let advance = tracer.in_span("faults.kernel.carry_advance", descent, |_| {
                kernel.carry_advance(&mut carry, lower[step - 1])
            });
            hashed_words += advance.delta_words();
        }
        counts.push(tracer.in_span("faults.kernel.popcount", descent, |_| {
            let mut count = 0u64;
            carry.for_each_mask(|_, s0, s1| {
                count += u64::from(s0.count_ones()) + u64::from(s1.count_ones());
            });
            count
        }));
    }
    tracer.close(descent);
    (counts, hashed_words)
}

/// Replays one fleet device's characterization and returns its fault
/// row in the artifact's layout (pseudo channel major, crashed knots
/// marked), so it can be compared with the stored record, and the words
/// its descents re-hashed.
pub fn replay_fleet_device(
    cfg: &FleetConfig,
    device_id: u32,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Vec<u16>, u64) {
    let spec = cfg.device_spec(device_id);
    let injector = tracer.in_span("faults.kernel.injector", parent, |_| {
        FaultInjector::new(cfg.params.clone(), cfg.geometry, spec.seed)
    });
    let kernel = injector.kernel(FaultFieldMode::MonotoneCoupled, cfg.backend);
    let knots = cfg.knots();
    let live: Vec<Millivolts> = knots
        .iter()
        .copied()
        .take_while(|&v| v >= spec.crash_floor)
        .collect();
    let pcs = cfg.geometry.total_pcs();
    let mut faults = vec![CRASHED_KNOT; usize::from(pcs) * knots.len()];
    let mut hashed_words = 0;
    for pc in 0..pcs {
        let pc_index = PcIndex::new(pc).expect("geometry PC in range");
        let (counts, hashed) = descent(
            &kernel,
            pc_index,
            0..cfg.words_per_pc,
            &live,
            tracer,
            parent,
        );
        for (k, count) in counts.into_iter().enumerate() {
            faults[usize::from(pc) * knots.len() + k] = u16::try_from(count).unwrap_or(u16::MAX);
        }
        hashed_words += hashed;
    }
    (faults, hashed_words)
}

/// The `faults.kernel.*` metrics from the replay spans and the words the
/// replayed descents re-hashed, per pseudo channel descent.
pub fn kernel_metrics(
    layers: &std::collections::BTreeMap<&'static str, LayerTotals>,
    hashed_words: u64,
) -> Vec<Metric> {
    let descents = layers.get("faults.kernel.descent").map_or(0, |t| t.count);
    let per_descent =
        |name: &str| crate::stats::per_op(layers.get(name).map_or(0.0, |t| t.self_s), descents);
    let bits = crate::stats::per_op((hashed_words * BITS_PER_WORD) as f64, descents);
    let carry_start = per_descent("faults.kernel.carry_start");
    let carry_advance = per_descent("faults.kernel.carry_advance");
    let ns_per_bit = if bits > 0.0 {
        (carry_start + carry_advance) * 1e9 / bits
    } else {
        0.0
    };
    vec![
        metric("faults.kernel.carry_start_s", carry_start, "s"),
        metric("faults.kernel.carry_advance_s", carry_advance, "s"),
        metric(
            "faults.kernel.popcount_s",
            per_descent("faults.kernel.popcount"),
            "s",
        ),
        metric("faults.kernel.bits_scanned", bits, "count"),
        metric("faults.kernel.ns_per_bit", ns_per_bit, "ns"),
    ]
}
