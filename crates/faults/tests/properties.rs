//! Property-based tests of the fault model's core guarantees.

use hbm_device::{HbmGeometry, PcIndex, Word256, WordOffset};
use hbm_faults::{
    FaultFieldMode, FaultInjector, FaultMap, FaultModelParams, KernelBackend, MaskKernel,
    RatePredictor,
};
use hbm_units::{Celsius, Millivolts, Ratio};
use proptest::prelude::*;

fn injector(seed: u64) -> FaultInjector {
    FaultInjector::new(
        FaultModelParams::date21(),
        HbmGeometry::vcu128_reduced(),
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No fault anywhere at or above V_min, for any seed and address.
    #[test]
    fn guardband_inviolable(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        above in 0u32..300,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(980 + above);
        let (s0, s1) = inj.stuck_masks(pc, WordOffset(word), v);
        prop_assert!(s0.is_zero() && s1.is_zero());
    }

    /// Stuck-at masks are disjoint and deterministic at any voltage.
    #[test]
    fn masks_disjoint_and_deterministic(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        mv in 810u32..1000,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let (s0, s1) = inj.stuck_masks(pc, WordOffset(word), v);
        prop_assert!((s0 & s1).is_zero());
        prop_assert_eq!(inj.stuck_masks(pc, WordOffset(word), v), (s0, s1));
    }

    /// Dropping the voltage can only grow each polarity's fault set.
    #[test]
    fn fault_sets_monotone(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        hi in 830u32..980,
        delta in 1u32..100,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let lo = Millivolts(hi.saturating_sub(delta).max(810));
        let hi = Millivolts(hi);
        let (hi0, hi1) = inj.stuck_masks(pc, WordOffset(word), hi);
        let (lo0, lo1) = inj.stuck_masks(pc, WordOffset(word), lo);
        prop_assert_eq!(lo0 & hi0, hi0, "stuck-at-0 set shrank");
        prop_assert_eq!(lo1 & hi1, hi1, "stuck-at-1 set shrank");
    }

    /// What a read observes is consistent with the masks for any stored
    /// pattern: observed = (stored & !stuck0) | stuck1.
    #[test]
    fn observation_matches_masks(
        seed in any::<u64>(),
        lanes in any::<[u64; 4]>(),
        word in 0u64..4096,
        mv in 810u32..980,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(3).unwrap();
        let stored = Word256(lanes);
        let v = Millivolts(mv);
        let (s0, s1) = inj.stuck_masks(pc, WordOffset(word), v);
        let observed = inj.observe(stored, pc, WordOffset(word), v);
        prop_assert_eq!(observed, (stored & !s0) | s1);
        // A second observation is identical (faults are stuck, not noisy).
        prop_assert_eq!(inj.observe(stored, pc, WordOffset(word), v), observed);
    }

    /// Analytic rates are monotone in voltage for every PC.
    #[test]
    fn analytic_rates_monotone(seed in any::<u64>(), pc_index in 0u8..32) {
        let p = RatePredictor::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128(),
            seed,
        );
        let pc = PcIndex::new(pc_index).unwrap();
        let mut last = -1.0;
        let mut v = Millivolts(990);
        while v >= Millivolts(810) {
            let rate = p.pc_rates(pc, v).union().as_f64();
            prop_assert!(rate >= last, "rate shrank at {} for PC{}", v, pc_index);
            last = rate;
            v = v.saturating_sub(Millivolts(30));
        }
    }

    /// Tentpole guarantee of the region-tiled kernel: the cached path (tile
    /// probability cache + geometric skip enumeration) is bit-identical to
    /// the naive per-word reference path for any seed, voltage, PC and
    /// temperature.
    #[test]
    fn kernel_bit_identical_to_per_word_reference(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        mv in 810u32..1050,
        temp_tenths in 250u32..=550,
    ) {
        let mut inj = injector(seed);
        inj.set_temperature(Celsius(f64::from(temp_tenths) / 10.0));
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let w = WordOffset(word);
        let kernel = inj.kernel(FaultFieldMode::PerVoltage, KernelBackend::Auto);
        prop_assert_eq!(inj.stuck_masks(pc, w, v), kernel.reference_masks(pc, w, v));
    }

    /// The skip-sampling range enumeration visits exactly the faulty words
    /// the reference path finds — same counts, same masks, no extras.
    #[test]
    fn kernel_enumeration_matches_reference(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        start in 0u64..7000,
        len in 1u64..768,
        mv in 810u32..1000,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let range = start..(start + len).min(8192);
        let reference = inj.kernel(FaultFieldMode::PerVoltage, KernelBackend::Scalar);
        let mut expected = Vec::new();
        for w in range.clone() {
            let (s0, s1) = reference.reference_masks(pc, WordOffset(w), v);
            if !(s0.is_zero() && s1.is_zero()) {
                expected.push((WordOffset(w), s0, s1));
            }
        }
        prop_assert_eq!(reference.faulty_words(pc, range.clone(), v), expected.clone());
        let counted = reference.count_range(pc, range, v);
        let sum0: u64 = expected.iter().map(|(_, s0, _)| u64::from(s0.count_ones())).sum();
        let sum1: u64 = expected.iter().map(|(_, _, s1)| u64::from(s1.count_ones())).sum();
        prop_assert_eq!(counted, (sum0, sum1));
    }

    /// Coupled-field inclusion monotonicity by construction: dropping the
    /// voltage can only grow each polarity's fault set, for any seed,
    /// address and descent step.
    #[test]
    fn coupled_fault_sets_monotone(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        hi in 811u32..980,
        delta in 1u32..120,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let lo = Millivolts(hi.saturating_sub(delta).max(810));
        let hi = Millivolts(hi);
        let kernel = inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Scalar);
        let (hi0, hi1) = kernel.masks(pc, WordOffset(word), hi);
        let (lo0, lo1) = kernel.masks(pc, WordOffset(word), lo);
        prop_assert_eq!(lo0 & hi0, hi0, "coupled stuck-at-0 set shrank");
        prop_assert_eq!(lo1 & hi1, hi1, "coupled stuck-at-1 set shrank");
    }

    /// Tentpole guarantee of the incremental sweep kernel: over a random
    /// descending voltage sequence, the carried working set (start +
    /// advances) is bit-identical to a from-scratch coupled enumeration at
    /// every point. Ranges above the bit-carry capacity exercise the
    /// word-granular tier.
    #[test]
    fn coupled_carry_matches_from_scratch(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        start_word in 0u64..4096,
        len in 1u64..8192,
        first_mv in 830u32..980,
        steps in proptest::collection::vec(1u32..40, 1..5),
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let range = start_word..(start_word + len).min(8192);

        let kernel = inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Scalar);

        let mut v = Millivolts(first_mv);
        let (mut carry, _) = kernel.carry_start(pc, range.clone(), v);
        prop_assert_eq!(
            carry.masks(),
            kernel.faulty_words(pc, range.clone(), v),
            "carry start diverged at {}", v
        );

        for step in steps {
            v = Millivolts(v.as_u32().saturating_sub(step).max(810));
            kernel.carry_advance(&mut carry, v);
            prop_assert_eq!(
                carry.masks(),
                kernel.faulty_words(pc, range.clone(), v),
                "carry advance diverged at {}", v
            );
        }
    }

    /// Tentpole guarantee of the bit-sliced kernel: every [`MaskKernel`]
    /// backend is bit-identical to the scalar oracle — same enumerations,
    /// same counts, same per-word masks — in both fault fields, for any
    /// seed, range, voltage and temperature.
    #[test]
    fn bitsliced_matches_scalar(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        start in 0u64..7000,
        len in 1u64..768,
        mv in 810u32..1000,
        temp_tenths in 250u32..=550,
    ) {
        let mut inj = injector(seed);
        inj.set_temperature(Celsius(f64::from(temp_tenths) / 10.0));
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let range = start..(start + len).min(8192);
        for field in [FaultFieldMode::PerVoltage, FaultFieldMode::MonotoneCoupled] {
            let scalar = inj.kernel(field, KernelBackend::Scalar);
            for backend in [KernelBackend::BitSliced, KernelBackend::Auto] {
                let kernel = inj.kernel(field, backend);
                prop_assert_eq!(
                    kernel.faulty_words(pc, range.clone(), v),
                    scalar.faulty_words(pc, range.clone(), v),
                    "{:?}/{:?} enumeration diverged at {}", field, backend, v
                );
                prop_assert_eq!(
                    kernel.count_range(pc, range.clone(), v),
                    scalar.count_range(pc, range.clone(), v),
                    "{:?}/{:?} counts diverged at {}", field, backend, v
                );
                prop_assert_eq!(
                    kernel.masks(pc, WordOffset(start), v),
                    kernel.reference_masks(pc, WordOffset(start), v),
                    "{:?}/{:?} single-word masks diverged at {}", field, backend, v
                );
            }
        }
    }

    /// Carried descending sweeps are backend-independent: starting and
    /// advancing a coupled carry under the bit-sliced or auto backend
    /// yields the same masks AND the same carry accounting as the scalar
    /// backend at every point of a random descent. Every case runs the
    /// descent twice: once starting in the dense region at `first_mv`, and
    /// once starting at or above V_min (980, 1000 or 1200 mV), where the
    /// carry start only records thresholds, with `first_mv` as its first
    /// advance.
    #[test]
    fn bitsliced_carried_advances_match_scalar(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        start_word in 0u64..4096,
        len in 1u64..8192,
        first_mv in 830u32..980,
        steps in proptest::collection::vec(1u32..40, 1..5),
        guardband_kind in 0usize..3,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let range = start_word..(start_word + len).min(8192);
        let kernels = [
            inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Scalar),
            inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::BitSliced),
            inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Auto),
        ];

        let mut dense = vec![Millivolts(first_mv)];
        for step in steps {
            let last = dense[dense.len() - 1].as_u32();
            dense.push(Millivolts(last.saturating_sub(step).max(810)));
        }
        let guardband_mv = Millivolts([980u32, 1000, 1200][guardband_kind]);
        let from_guardband: Vec<_> = std::iter::once(guardband_mv).chain(dense.clone()).collect();

        for schedule in [dense, from_guardband] {
            let mut carries = Vec::new();
            let mut start_stats = Vec::new();
            for kernel in &kernels {
                let (carry, stats) = kernel.carry_start(pc, range.clone(), schedule[0]);
                carries.push(carry);
                start_stats.push(stats);
            }
            for i in 1..kernels.len() {
                prop_assert_eq!(&start_stats[i], &start_stats[0],
                    "carry-start stats diverged at {} ({:?})", schedule[0], kernels[i].backend());
                prop_assert_eq!(carries[i].masks(), carries[0].masks(),
                    "carry-start masks diverged at {} ({:?})", schedule[0], kernels[i].backend());
            }

            for &v in &schedule[1..] {
                let stats: Vec<_> = kernels
                    .iter()
                    .zip(carries.iter_mut())
                    .map(|(kernel, carry)| kernel.carry_advance(carry, v))
                    .collect();
                for i in 1..kernels.len() {
                    prop_assert_eq!(&stats[i], &stats[0],
                        "advance stats diverged at {} ({:?})", v, kernels[i].backend());
                    prop_assert_eq!(carries[i].masks(), carries[0].masks(),
                        "advance masks diverged at {} ({:?})", v, kernels[i].backend());
                }
            }
        }
    }

    /// The count-only descent (one-pass knot histogram) counts exactly what
    /// the carried descent popcounts and what per-knot `count_range` finds,
    /// under every backend. Schedules start above or below V_min (knots in
    /// the guardband), take uneven steps and may be a single knot; ranges
    /// start anywhere, span one, several or every tile, and the wide shape
    /// exceeds the 4096-word bit-carry cap so the word-granular carry tier
    /// is the oracle there.
    #[test]
    fn count_descent_histogram_matches_carry(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        shape in 0u64..3,
        raw_start in 0u64..8192,
        raw_len in 0u64..8192,
        first_mv in 880u32..1010,
        steps in proptest::collection::vec(1u32..40, 0..6),
        temp_tenths in 250u32..=550,
    ) {
        let mut inj = injector(seed);
        inj.set_temperature(Celsius(f64::from(temp_tenths) / 10.0));
        let pc = PcIndex::new(pc_index).unwrap();
        let len = match shape {
            0 => 1 + raw_len % 48,
            1 => 33 + raw_len % 1000,
            _ => 4097 + raw_len % (8192 - 4097),
        };
        let start = raw_start % (8192 - len + 1);
        let range = start..start + len;
        let mut schedule = vec![Millivolts(first_mv)];
        for step in steps {
            let next = schedule[schedule.len() - 1].as_u32().saturating_sub(step);
            if next < 810 {
                break;
            }
            schedule.push(Millivolts(next));
        }

        let oracle = inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Scalar);
        let (mut carry, _) = oracle.carry_start(pc, range.clone(), schedule[0]);
        let mut carried = Vec::with_capacity(schedule.len());
        for (k, &v) in schedule.iter().enumerate() {
            if k > 0 {
                oracle.carry_advance(&mut carry, v);
            }
            let mut count = 0u64;
            carry.for_each_mask(|_, s0, s1| {
                count += u64::from(s0.count_ones()) + u64::from(s1.count_ones());
            });
            let (n0, n1) = oracle.count_range(pc, range.clone(), v);
            prop_assert_eq!(count, n0 + n1, "carry and count_range disagree at {}", v);
            carried.push(count);
        }
        for backend in [KernelBackend::Scalar, KernelBackend::BitSliced, KernelBackend::Auto] {
            let kernel = inj.kernel(FaultFieldMode::MonotoneCoupled, backend);
            prop_assert_eq!(
                kernel.count_descent(pc, range.clone(), &schedule),
                carried.clone(),
                "{:?} histogram diverged from the carry over {:?} on {:?}",
                backend, range, schedule
            );
        }
    }

    /// The two fault fields share one analytic model, so their aggregate
    /// fault counts agree statistically at any voltage — near the guardband
    /// (where both are essentially zero), mid-slope, and at saturation.
    #[test]
    fn legacy_and_coupled_rates_agree(seed in any::<u64>(), pc_index in 0u8..32) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let legacy_kernel = inj.kernel(FaultFieldMode::PerVoltage, KernelBackend::Scalar);
        let coupled_kernel = inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Scalar);
        for mv in [970u32, 960, 840] {
            let v = Millivolts(mv);
            let (l0, l1) = legacy_kernel.count_range(pc, 0..8192, v);
            let (c0, c1) = coupled_kernel.count_range(pc, 0..8192, v);
            for (legacy, coupled, class) in [(l0, c0, "stuck0"), (l1, c1, "stuck1")] {
                let scale = legacy.max(coupled) as f64;
                let diff = legacy.abs_diff(coupled) as f64;
                // Two independent binomial draws of the same expectation:
                // allow a generous relative band plus an absolute floor so
                // near-zero counts (high voltages) never flake.
                prop_assert!(
                    diff <= 0.25 * scale + 64.0,
                    "{class} at {v}: legacy {legacy} vs coupled {coupled}"
                );
            }
        }
    }

    /// Fault-map usable-PC counts are monotone in tolerance and voltage.
    #[test]
    fn fault_map_monotonicity(seed in any::<u64>()) {
        let p = RatePredictor::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128(),
            seed,
        );
        let map = FaultMap::from_predictor(
            &p,
            Millivolts(980),
            Millivolts(850),
            Millivolts(30),
        );
        let tolerances = [Ratio::ZERO, Ratio(1e-8), Ratio(1e-6), Ratio(1e-3), Ratio(0.1)];
        for &v in &map.voltages {
            let counts: Vec<usize> =
                tolerances.iter().map(|&t| map.usable_pc_count(v, t)).collect();
            prop_assert!(counts.windows(2).all(|w| w[0] <= w[1]), "tolerance monotonicity at {}", v);
        }
        for &t in &tolerances {
            let counts: Vec<usize> =
                map.voltages.iter().map(|&v| map.usable_pc_count(v, t)).collect();
            prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]), "voltage monotonicity");
        }
    }
}

#[test]
#[should_panic(expected = "strictly descending")]
fn count_descent_rejects_non_descending_schedule() {
    let inj = injector(7);
    let kernel = inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Auto);
    let schedule = [900u32, 920, 880].map(Millivolts);
    let _ = kernel.count_descent(PcIndex::new(0).unwrap(), 0..64, &schedule);
}

#[test]
#[should_panic(expected = "MonotoneCoupled")]
fn count_descent_refuses_per_voltage_field() {
    let inj = injector(7);
    let kernel = inj.kernel(FaultFieldMode::PerVoltage, KernelBackend::Auto);
    let schedule = [900u32, 880].map(Millivolts);
    let _ = kernel.count_descent(PcIndex::new(0).unwrap(), 0..64, &schedule);
}

/// An all-crashed device characterizes with an empty live schedule.
#[test]
fn count_descent_of_empty_schedule_is_empty() {
    let inj = injector(7);
    for backend in [
        KernelBackend::Scalar,
        KernelBackend::BitSliced,
        KernelBackend::Auto,
    ] {
        let kernel = inj.kernel(FaultFieldMode::MonotoneCoupled, backend);
        assert!(kernel
            .count_descent(PcIndex::new(0).unwrap(), 0..64, &[])
            .is_empty());
    }
}
