//! Fault-field regimes: how per-bit randomness is keyed across a voltage
//! sweep, and the carry state that makes descending sweeps incremental.
//!
//! The legacy regime ([`FaultFieldMode::PerVoltage`]) derives every draw
//! from `(seed, pc, word, bit)` through voltage-free hashes but rebuilds
//! each point's working set from scratch. The coupled regime
//! ([`FaultFieldMode::MonotoneCoupled`]) gives each bit one persistent
//! threshold in `[0, 1)`; the bit is faulty at supply `v` exactly when its
//! class-conditional fault probability `c(v)` exceeds that threshold. Fault
//! sets are then inclusion-monotone across descending voltage *by
//! construction*, and a sweep can carry its faulty-word working set from
//! point to point, re-enumerating only the words whose masks change.

use std::ops::Range;

use hbm_device::{PcIndex, Word256, WordOffset};
use hbm_units::{Celsius, Millivolts};
use serde::{Deserialize, Serialize};

/// How the fault injector keys per-bit randomness across a sweep.
///
/// Both regimes share the same analytic model (response curves, variation
/// shifts, polarity shares), so their *expected* fault rates are identical;
/// they differ only in which concrete bits fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultFieldMode {
    /// The legacy field: per-bit draws hashed from `(seed, pc, word, bit)`
    /// behind per-word gate draws. The default, bit-compatible with every
    /// existing fault map and determinism test.
    #[default]
    PerVoltage,
    /// The coupled field: each `(pc, word, bit)` owns a persistent threshold
    /// drawn once from a counter-based hash; the bit is faulty at voltage
    /// `v` iff its class's fault probability `c(v)` crosses the threshold.
    /// Fault sets grow monotonically as voltage descends, which enables the
    /// incremental sweep kernel ([`crate::MaskKernel::carry_advance`]).
    MonotoneCoupled,
}

impl FaultFieldMode {
    /// Stable CLI/config token for this mode (`per-voltage` / `coupled`).
    #[must_use]
    pub fn as_token(self) -> &'static str {
        match self {
            FaultFieldMode::PerVoltage => "per-voltage",
            FaultFieldMode::MonotoneCoupled => "coupled",
        }
    }

    /// Parses the stable token produced by [`FaultFieldMode::as_token`].
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "per-voltage" => Some(FaultFieldMode::PerVoltage),
            "coupled" => Some(FaultFieldMode::MonotoneCoupled),
            _ => None,
        }
    }
}

/// One carried faulty word of a [`PcSweepCarry`]: its current masks plus the
/// smallest still-clean per-bit threshold of each class, which is the next
/// probability level at which the word's mask will change.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CarryEntry {
    /// Word offset within the pseudo channel.
    pub(crate) offset: u32,
    /// Current stuck-at-0 mask.
    pub(crate) stuck0: Word256,
    /// Current stuck-at-1 mask.
    pub(crate) stuck1: Word256,
    /// Minimum threshold among still-clean stuck-at-0-class bits
    /// (`f64::INFINITY` when the class is exhausted). Only meaningful on
    /// the word-granular carry tier.
    pub(crate) next0: f64,
    /// Minimum threshold among still-clean stuck-at-1-class bits.
    pub(crate) next1: f64,
    /// Advance sequence number of the last change (bit-granular tier's
    /// touched-word accounting).
    pub(crate) touch: u32,
}

/// The still-clean bit thresholds of a bit-granular carry, per tile and
/// polarity class, each list ascending by threshold so the bits crossing
/// in one descent step form a drained prefix. This is what makes a sweep
/// advance scale with *bit deltas*: every `(word, bit)` is hashed exactly
/// once (at carry start) and thereafter consumed exactly once, at the
/// point where its threshold is crossed.
#[derive(Debug, Clone)]
pub(crate) struct PendingBits {
    /// Per-tile pending stuck-at-0-class bits.
    pub(crate) class0: Vec<PendingClass>,
    /// Per-tile pending stuck-at-1-class bits.
    pub(crate) class1: Vec<PendingClass>,
    /// Map from `offset − words.start` to the word's index in `entries`
    /// (`u32::MAX` when the word has no faulty bits yet).
    pub(crate) entry_of: Vec<u32>,
    /// Advance sequence number backing the touched-word accounting.
    pub(crate) seq: u32,
}

/// One tile's pending bits of one class.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingClass {
    /// `(raw 32-bit threshold, slot << 8 | bit)`, ascending by threshold,
    /// ties by slot and bit.
    pub(crate) bits: Vec<(u32, u32)>,
    /// Length of the consumed (already-faulty) prefix.
    pub(crate) cursor: usize,
}

/// The carried working set of one pseudo channel's descending sweep under
/// [`FaultFieldMode::MonotoneCoupled`]: every faulty word of the range at
/// the carry's voltage, with enough per-word state to advance to a lower
/// voltage without re-hashing unchanged words.
///
/// Built by [`crate::MaskKernel::carry_start`] and advanced by
/// [`crate::MaskKernel::carry_advance`]; the masks it holds are
/// bit-identical to a from-scratch enumeration at the same voltage.
#[derive(Debug, Clone)]
pub struct PcSweepCarry {
    pub(crate) pc: PcIndex,
    pub(crate) words: Range<u64>,
    pub(crate) voltage: Millivolts,
    pub(crate) temperature: Celsius,
    /// Faulty words, ascending by offset.
    pub(crate) entries: Vec<CarryEntry>,
    /// Bit-granular pending thresholds; `None` on the word-granular tier
    /// (ranges above the bit-carry capacity).
    pub(crate) pending: Option<PendingBits>,
}

impl PcSweepCarry {
    /// The pseudo channel this carry tracks.
    #[must_use]
    pub fn pc(&self) -> PcIndex {
        self.pc
    }

    /// The word range this carry tracks.
    #[must_use]
    pub fn words(&self) -> Range<u64> {
        self.words.clone()
    }

    /// The voltage the carried masks are valid at.
    #[must_use]
    pub fn voltage(&self) -> Millivolts {
        self.voltage
    }

    /// Number of faulty words currently carried.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no word of the range is faulty at the carry's voltage.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Runs `f` over every carried faulty word in ascending offset order,
    /// without materializing a mask vector.
    pub fn for_each_mask<F: FnMut(WordOffset, Word256, Word256)>(&self, mut f: F) {
        for entry in &self.entries {
            f(
                WordOffset(u64::from(entry.offset)),
                entry.stuck0,
                entry.stuck1,
            );
        }
    }

    /// The carried masks as a sorted `(offset, stuck0, stuck1)` vector —
    /// the same shape [`crate::MaskKernel::faulty_words`] returns.
    #[must_use]
    pub fn masks(&self) -> Vec<(WordOffset, Word256, Word256)> {
        self.entries
            .iter()
            .map(|e| (WordOffset(u64::from(e.offset)), e.stuck0, e.stuck1))
            .collect()
    }
}

/// Per-point accounting of a carry start or advance: how much of the
/// working set was reused versus re-enumerated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarryStats {
    /// Carried words whose masks were reused without re-hashing any bit.
    pub carried: u64,
    /// Carried words re-enumerated because a bit threshold was crossed.
    pub refreshed: u64,
    /// Words newly activated (first faulty bit) at the new voltage.
    pub activated: u64,
}

impl CarryStats {
    /// Words whose bits were (re-)enumerated this point — the incremental
    /// kernel's actual hashing work.
    #[must_use]
    pub fn delta_words(&self) -> u64 {
        self.refreshed + self.activated
    }

    /// Fraction of the resulting working set served from the carry,
    /// `carried / (carried + refreshed + activated)`; `1.0` for an empty
    /// set (nothing needed recomputing).
    #[must_use]
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.carried + self.refreshed + self.activated;
        if total == 0 {
            1.0
        } else {
            self.carried as f64 / total as f64
        }
    }

    /// Accumulates another point's stats into this one.
    pub fn absorb(&mut self, other: CarryStats) {
        self.carried += other.carried;
        self.refreshed += other.refreshed;
        self.activated += other.activated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_tokens_round_trip() {
        for mode in [FaultFieldMode::PerVoltage, FaultFieldMode::MonotoneCoupled] {
            assert_eq!(FaultFieldMode::from_token(mode.as_token()), Some(mode));
        }
        assert_eq!(FaultFieldMode::from_token("bogus"), None);
        assert_eq!(FaultFieldMode::default(), FaultFieldMode::PerVoltage);
    }

    #[test]
    fn mode_serde_round_trip() {
        for mode in [FaultFieldMode::PerVoltage, FaultFieldMode::MonotoneCoupled] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: FaultFieldMode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode);
        }
    }

    #[test]
    fn carry_stats_ratios() {
        let mut s = CarryStats {
            carried: 6,
            refreshed: 1,
            activated: 1,
        };
        assert_eq!(s.delta_words(), 2);
        assert!((s.reuse_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CarryStats::default().reuse_ratio(), 1.0);
        s.absorb(CarryStats {
            carried: 2,
            refreshed: 0,
            activated: 0,
        });
        assert_eq!(s.carried, 8);
    }
}
