//! The mask-generation kernel API.
//!
//! [`MaskKernel`] is the one surface over the injector's per-bit fault
//! field: single-word masks, the per-word reference oracle, range
//! enumerations and counts, carried descents and count-only descents.
//! Callers obtain a kernel with [`FaultInjector::kernel`], choosing a
//! [`FaultFieldMode`] and a [`KernelBackend`]; every query dispatches on
//! the field internally, so no caller matches on it.
//!
//! # Backends
//!
//! | Backend                    | Dense tiles                  | Sparse tiles |
//! |----------------------------|------------------------------|--------------|
//! | [`KernelBackend::Scalar`]  | per-bit scalar               | per-bit scalar |
//! | [`KernelBackend::BitSliced`] | bit-sliced (AVX2 if probed) | bit-sliced   |
//! | [`KernelBackend::Auto`]    | bit-sliced (AVX2 if probed)  | per-bit scalar |
//!
//! The bit-sliced path hashes whole 256-bit words a 64-bit lane at a time
//! and turns the per-bit polarity/threshold comparisons into integer
//! compares against precomputed per-tile cutoffs
//! ([`crate::hash::unit_cutoff`]), packing the results into `u64`
//! bitplanes. It is bit-identical to the scalar path by construction — the
//! cutoffs are the exact integer images of the scalar `f64` comparisons —
//! which the `bitsliced_matches_scalar` proptests enforce for both fault
//! fields, carried sweeps included.
//!
//! `Auto` (the default) decides per tile from the injector's cached tile
//! probabilities: a tile is *dense* when either polarity's word-gate
//! probability reaches [`DENSE_TILE_P_ANY`], i.e. when enough words of the
//! tile are expected to need per-bit enumeration that whole-word hashing
//! beats the skip-sampled scalar walk.

use std::ops::Range;

use hbm_device::{PcIndex, Word256, WordOffset};
use hbm_units::Millivolts;
use serde::{Deserialize, Serialize};

use crate::field::{CarryStats, FaultFieldMode, PcSweepCarry};
use crate::injector::FaultInjector;

pub(crate) mod bitsliced;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod simd;

/// Word-gate probability at which [`KernelBackend::Auto`] switches a tile
/// from scalar sparse enumeration to bit-sliced dense generation: one gated
/// word expected per 256, the point where hashing whole words stops losing
/// to the geometric skip walk.
pub(crate) const DENSE_TILE_P_ANY: f64 = 1.0 / 256.0;

/// Which implementation generates stuck-at masks.
///
/// Every backend is bit-identical to every other; this is purely a
/// performance knob, selected via `ReliabilityConfig` or
/// `hbmctl sweep --kernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelBackend {
    /// The per-bit scalar kernel everywhere — the historical path, kept
    /// selectable for A/B comparison and as the proptest oracle.
    Scalar,
    /// The bit-sliced whole-word kernel everywhere, even on tiles sparse
    /// enough that the scalar skip walk would win.
    BitSliced,
    /// Density-adaptive dispatch (the default): per tile, the cached tile
    /// probabilities pick scalar sparse enumeration or bit-sliced dense
    /// generation.
    #[default]
    Auto,
}

impl KernelBackend {
    /// Stable CLI/config token for this backend
    /// (`scalar` / `bitsliced` / `auto`).
    #[must_use]
    pub fn as_token(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::BitSliced => "bitsliced",
            KernelBackend::Auto => "auto",
        }
    }

    /// Parses the stable token produced by [`KernelBackend::as_token`].
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "scalar" => Some(KernelBackend::Scalar),
            "bitsliced" => Some(KernelBackend::BitSliced),
            "auto" => Some(KernelBackend::Auto),
            _ => None,
        }
    }
}

/// The vector instruction set the bit-sliced kernel runs on, probed at
/// runtime so one binary adapts to its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstructionSet {
    /// Plain `u64` bitplane arithmetic — correct everywhere.
    Portable,
    /// AVX2: four 64-bit lanes per instruction. Only ever constructed
    /// after [`InstructionSet::detect`] confirms the host supports it.
    Avx2,
}

impl InstructionSet {
    /// Probes the running CPU: [`InstructionSet::Avx2`] when available,
    /// otherwise [`InstructionSet::Portable`].
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return InstructionSet::Avx2;
        }
        InstructionSet::Portable
    }
}

/// The resolved backend selection a kernel carries into the injector's
/// enumeration loops: the policy plus the probed instruction set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BackendSel {
    /// Scalar per-bit enumeration on every tile.
    Scalar,
    /// Bit-sliced generation on every tile.
    BitSliced(InstructionSet),
    /// Per-tile density dispatch.
    Auto(InstructionSet),
}

impl BackendSel {
    pub(crate) fn from_backend(backend: KernelBackend) -> Self {
        match backend {
            KernelBackend::Scalar => BackendSel::Scalar,
            KernelBackend::BitSliced => BackendSel::BitSliced(InstructionSet::detect()),
            KernelBackend::Auto => BackendSel::Auto(InstructionSet::detect()),
        }
    }

    /// The dispatch rule: whether a tile whose larger word-gate probability
    /// is `p_any_max` takes the bit-sliced path.
    pub(crate) fn bitsliced_for_tile(self, p_any_max: f64) -> bool {
        match self {
            BackendSel::Scalar => false,
            BackendSel::BitSliced(_) => true,
            BackendSel::Auto(_) => p_any_max >= DENSE_TILE_P_ANY,
        }
    }

    /// The instruction set bit-sliced tiles run on ([`InstructionSet::
    /// Portable`] for the scalar backend, which never takes that path).
    pub(crate) fn isa(self) -> InstructionSet {
        match self {
            BackendSel::Scalar => InstructionSet::Portable,
            BackendSel::BitSliced(isa) | BackendSel::Auto(isa) => isa,
        }
    }
}

/// One unified interface to every mask-generation strategy.
///
/// A `MaskKernel` binds a [`FaultInjector`], a [`FaultFieldMode`], and a
/// [`KernelBackend`]: callers ask for masks, enumerations, counts, or carry
/// state and the kernel routes the query to the right field family and
/// backend. All backends are bit-identical for a given field, so swapping
/// backends never changes results — only speed.
///
/// The concrete implementation is [`FieldKernel`], obtained from
/// [`FaultInjector::kernel`]. The trait is dyn-compatible (callbacks take
/// `&mut dyn FnMut`) so runtimes can hold `Box<dyn MaskKernel>` when the
/// field/backend pair is decided at runtime.
pub trait MaskKernel {
    /// The fault field this kernel enumerates.
    fn field(&self) -> FaultFieldMode;

    /// The backend policy this kernel was built with.
    fn backend(&self) -> KernelBackend;

    /// The `(stuck0, stuck1)` masks of one word at `supply`.
    fn masks(&self, pc: PcIndex, offset: WordOffset, supply: Millivolts) -> (Word256, Word256);

    /// The per-word reference oracle: recomputes the word's masks without
    /// any cached tile state (scalar, for either field). Slow; exists for
    /// the bit-identity tests and benches.
    fn reference_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256);

    /// Every faulty word of `words` at `supply`, ascending by offset.
    fn faulty_words(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
    ) -> Vec<(WordOffset, Word256, Word256)>;

    /// Streams every faulty word of `words` to `f`, without materializing
    /// a vector. The order is unspecified (the scans go tile by tile);
    /// callers that need offsets ascending use
    /// [`MaskKernel::faulty_words`].
    fn for_each_faulty_word(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
        f: &mut dyn FnMut(WordOffset, Word256, Word256),
    );

    /// Total `(stuck0, stuck1)` faulty-bit counts over `words` at `supply`.
    fn count_range(&self, pc: PcIndex, words: Range<u64>, supply: Millivolts) -> (u64, u64);

    /// Expected fraction of words with at least one faulty bit at `supply`
    /// (drives the engine's streamed-vs-materialized decision).
    fn expected_active_fraction(&self, pc: PcIndex, supply: Millivolts) -> f64;

    /// Starts a carried descending sweep over `words` at `supply`.
    ///
    /// # Panics
    ///
    /// Panics under [`FaultFieldMode::PerVoltage`], which re-keys every
    /// point and therefore has no carryable working set — callers gate
    /// carried sweeps on the coupled field before asking for one.
    fn carry_start(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
    ) -> (PcSweepCarry, CarryStats);

    /// Advances a carried working set to a lower `supply`.
    ///
    /// # Panics
    ///
    /// Panics under [`FaultFieldMode::PerVoltage`]; see
    /// [`MaskKernel::carry_start`].
    fn carry_advance(&self, carry: &mut PcSweepCarry, supply: Millivolts) -> CarryStats;

    /// Union fault-bit counts of one pseudo channel along a descending
    /// voltage schedule: entry `k` is the total stuck-at count (both
    /// polarities) over `words` at `schedule[k]`, exactly what a carried
    /// descent ([`MaskKernel::carry_start`], then
    /// [`MaskKernel::carry_advance`] per knot) would popcount.
    ///
    /// Count-only callers need no masks, so the coupled field answers
    /// with a one-pass knot histogram instead of a carry: every bit keeps
    /// one persistent threshold, its first faulty knot is a binary search
    /// of that threshold over the tile's per-knot class probabilities,
    /// and a prefix sum over the per-knot histogram gives the counts.
    /// This is the entry point fleet characterization and the serving
    /// layer's exact rescans use. An empty schedule returns an empty
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics under [`FaultFieldMode::PerVoltage`] (see
    /// [`MaskKernel::carry_start`]) and when `schedule` is not strictly
    /// descending.
    fn count_descent(&self, pc: PcIndex, words: Range<u64>, schedule: &[Millivolts]) -> Vec<u64>;
}

/// The concrete [`MaskKernel`]: a borrowed [`FaultInjector`] plus the
/// field/backend pair, cheap to construct and `Copy` so parallel engine
/// workers can share one per-point kernel by value.
#[derive(Debug, Clone, Copy)]
pub struct FieldKernel<'a> {
    injector: &'a FaultInjector,
    field: FaultFieldMode,
    backend: KernelBackend,
    sel: BackendSel,
}

impl FaultInjector {
    /// A [`MaskKernel`] over this injector for `field`, generating masks
    /// with `backend`. Construction probes the instruction set once; the
    /// kernel borrows the injector, so all cached tile state is shared.
    #[must_use]
    pub fn kernel(&self, field: FaultFieldMode, backend: KernelBackend) -> FieldKernel<'_> {
        FieldKernel {
            injector: self,
            field,
            backend,
            sel: BackendSel::from_backend(backend),
        }
    }
}

impl FieldKernel<'_> {
    /// Runs `f` over every faulty word of `words` at `supply` in this
    /// kernel's field, in unspecified order: the one range scan behind
    /// [`MaskKernel::faulty_words`], [`MaskKernel::for_each_faulty_word`]
    /// and [`MaskKernel::count_range`].
    fn scan<F: FnMut(u64, Word256, Word256)>(
        &self,
        pc: PcIndex,
        words: &Range<u64>,
        supply: Millivolts,
        mut f: F,
    ) {
        match self.field {
            FaultFieldMode::PerVoltage => self
                .injector
                .for_each_faulty_sel(pc, words, supply, self.sel, f),
            FaultFieldMode::MonotoneCoupled => self.injector.coupled_for_each_active(
                pc,
                words,
                supply,
                self.sel,
                |w, s0, s1, _, _| f(w, s0, s1),
            ),
        }
    }
}

impl MaskKernel for FieldKernel<'_> {
    fn field(&self) -> FaultFieldMode {
        self.field
    }

    fn backend(&self) -> KernelBackend {
        self.backend
    }

    fn masks(&self, pc: PcIndex, offset: WordOffset, supply: Millivolts) -> (Word256, Word256) {
        match self.field {
            FaultFieldMode::PerVoltage => {
                self.injector.stuck_masks_sel(pc, offset, supply, self.sel)
            }
            FaultFieldMode::MonotoneCoupled => self
                .injector
                .coupled_stuck_masks(pc, offset, supply, self.sel),
        }
    }

    fn reference_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256) {
        match self.field {
            FaultFieldMode::PerVoltage => {
                self.injector.stuck_masks_per_word_impl(pc, offset, supply)
            }
            FaultFieldMode::MonotoneCoupled => {
                self.injector
                    .coupled_stuck_masks(pc, offset, supply, BackendSel::Scalar)
            }
        }
    }

    fn faulty_words(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
    ) -> Vec<(WordOffset, Word256, Word256)> {
        let mut out = Vec::new();
        self.scan(pc, &words, supply, |w, s0, s1| {
            out.push((WordOffset(w), s0, s1));
        });
        out.sort_unstable_by_key(|&(offset, _, _)| offset.0);
        out
    }

    fn for_each_faulty_word(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
        f: &mut dyn FnMut(WordOffset, Word256, Word256),
    ) {
        self.scan(pc, &words, supply, |w, s0, s1| f(WordOffset(w), s0, s1));
    }

    fn count_range(&self, pc: PcIndex, words: Range<u64>, supply: Millivolts) -> (u64, u64) {
        let (mut n0, mut n1) = (0u64, 0u64);
        self.scan(pc, &words, supply, |_, s0, s1| {
            n0 += u64::from(s0.count_ones());
            n1 += u64::from(s1.count_ones());
        });
        (n0, n1)
    }

    fn expected_active_fraction(&self, pc: PcIndex, supply: Millivolts) -> f64 {
        // Field-independent: both fields share the analytic tile model.
        self.injector.expected_active_fraction(pc, supply)
    }

    fn carry_start(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
    ) -> (PcSweepCarry, CarryStats) {
        match self.field {
            FaultFieldMode::PerVoltage => {
                panic!("carried sweeps require FaultFieldMode::MonotoneCoupled")
            }
            FaultFieldMode::MonotoneCoupled => self
                .injector
                .coupled_carry_start(pc, words, supply, self.sel),
        }
    }

    fn carry_advance(&self, carry: &mut PcSweepCarry, supply: Millivolts) -> CarryStats {
        match self.field {
            FaultFieldMode::PerVoltage => {
                panic!("carried sweeps require FaultFieldMode::MonotoneCoupled")
            }
            FaultFieldMode::MonotoneCoupled => {
                self.injector.coupled_carry_advance(carry, supply, self.sel)
            }
        }
    }

    fn count_descent(&self, pc: PcIndex, words: Range<u64>, schedule: &[Millivolts]) -> Vec<u64> {
        match self.field {
            FaultFieldMode::PerVoltage => {
                panic!("count_descent requires FaultFieldMode::MonotoneCoupled")
            }
            FaultFieldMode::MonotoneCoupled => self
                .injector
                .coupled_count_descent(pc, words, schedule, self.sel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultModelParams;
    use hbm_device::HbmGeometry;

    #[test]
    fn backend_tokens_round_trip() {
        for backend in [
            KernelBackend::Scalar,
            KernelBackend::BitSliced,
            KernelBackend::Auto,
        ] {
            assert_eq!(KernelBackend::from_token(backend.as_token()), Some(backend));
        }
        assert_eq!(KernelBackend::from_token("warp"), None);
        assert_eq!(KernelBackend::default(), KernelBackend::Auto);
    }

    #[test]
    fn backend_serde_round_trip() {
        for backend in [
            KernelBackend::Scalar,
            KernelBackend::BitSliced,
            KernelBackend::Auto,
        ] {
            let json = serde_json::to_string(&backend).unwrap();
            let back: KernelBackend = serde_json::from_str(&json).unwrap();
            assert_eq!(back, backend);
        }
    }

    #[test]
    fn dispatch_rule_follows_density() {
        let sparse = DENSE_TILE_P_ANY / 2.0;
        let dense = DENSE_TILE_P_ANY * 2.0;
        let scalar = BackendSel::from_backend(KernelBackend::Scalar);
        let sliced = BackendSel::from_backend(KernelBackend::BitSliced);
        let auto = BackendSel::from_backend(KernelBackend::Auto);
        assert!(!scalar.bitsliced_for_tile(dense));
        assert!(sliced.bitsliced_for_tile(sparse));
        assert!(auto.bitsliced_for_tile(dense));
        assert!(!auto.bitsliced_for_tile(sparse));
    }

    #[test]
    fn kernel_reports_its_configuration() {
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 1);
        for field in [FaultFieldMode::PerVoltage, FaultFieldMode::MonotoneCoupled] {
            for backend in [
                KernelBackend::Scalar,
                KernelBackend::BitSliced,
                KernelBackend::Auto,
            ] {
                let kernel = injector.kernel(field, backend);
                assert_eq!(kernel.field(), field);
                assert_eq!(kernel.backend(), backend);
            }
        }
    }

    #[test]
    fn count_descent_matches_per_knot_counts() {
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 9);
        let kernel = injector.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Auto);
        let pc = PcIndex::new(3).unwrap();
        let schedule: Vec<Millivolts> = [980u32, 940, 900, 860].map(Millivolts).to_vec();
        let counts = kernel.count_descent(pc, 0..64, &schedule);
        assert_eq!(counts.len(), schedule.len());
        for (k, &v) in schedule.iter().enumerate() {
            let (n0, n1) = kernel.count_range(pc, 0..64, v);
            assert_eq!(counts[k], n0 + n1, "knot {v}");
        }
    }

    #[test]
    #[should_panic(expected = "MonotoneCoupled")]
    fn per_voltage_kernel_refuses_carry() {
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 1);
        let kernel = injector.kernel(FaultFieldMode::PerVoltage, KernelBackend::Auto);
        let pc = PcIndex::new(0).unwrap();
        let _ = kernel.carry_start(pc, 0..64, Millivolts(900));
    }
}
