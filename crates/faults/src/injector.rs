//! The fault injector: turns the statistical model into concrete stuck-bit
//! masks for every word of the device, deterministically.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use hbm_device::{BankId, HbmGeometry, PcIndex, Word256, WordOffset};
use hbm_units::{Celsius, Millivolts, Volts};

use crate::field::{CarryEntry, CarryStats, PcSweepCarry, PendingBits, PendingClass};
use crate::hash::{combine, gate_key, key_unit, mix64, unit, unit_cutoff, unit_pair};
use crate::kernel::{bitsliced, BackendSel, InstructionSet};
use crate::params::FaultModelParams;
use crate::variation::ShiftTable;

/// Deterministic fault injector.
///
/// For every `(pseudo channel, word offset, bit)` and supply voltage, the
/// injector decides whether the bit is stuck and in which polarity, as a
/// pure function of the device seed. Key properties (all property-tested):
///
/// - **guardband**: no faults at or above V_min;
/// - **determinism**: identical masks for identical inputs;
/// - **monotonicity**: the faulty-bit set only grows as voltage drops;
/// - **exact rates**: the expected per-bit fault probability equals
///   `share_π × c_π(v_eff)` per polarity class.
///
/// # Performance
///
/// The query kernel is a four-level pipeline; each level removes work the
/// level below would otherwise repeat. With `W` words per pseudo channel,
/// `T` (PC, bank, row-region) tiles and `F` gated words at the queried
/// voltage:
///
/// 1. **Region-tile probability cache.** The local variation shift — and
///    therefore the class probabilities `(c0, c1)`, the word gates
///    `p_any = 1 − (1 − s·c)^256` and the conditional per-bit thresholds
///    `c / p_any` — is constant within a tile. They are computed once per
///    `(PC, voltage, temperature)` into a `T`-entry table (`O(T)` response
///    curve evaluations instead of `O(W)`) and invalidated when the
///    temperature changes. A per-word query is then a shift-and-mask tile
///    lookup.
/// 2. **Geometric skip enumeration of gated words.** The per-word gate
///    draws `unit(hash(seed, pc, offset, class))` never depend on voltage —
///    only the threshold `p_any` does. Per class and tile, the injector
///    keeps the words sorted by their gate draw (a voltage-independent,
///    build-once index), so the gated set at any voltage is a prefix found
///    by binary search: `O(T·log W + F)` per range scan instead of `O(W)`
///    gate hashes. Within the sorted prefix, the offset gaps between
///    consecutive gated words follow the geometric distribution implied by
///    `p_any` — this is the deterministic, replayable equivalent of drawing
///    skip distances from that distribution, so fault-free and low-fault
///    voltages cost `O(F)`, not `O(W)`. (Geometries too large to index fall
///    back to a per-word gate walk that still uses level 1.)
/// 3. **Density-adaptive dispatch.** Per tile, the backend selector
///    ([`crate::KernelBackend`], resolved to a
///    [`crate::kernel`]-internal choice through the runtime
///    [`crate::InstructionSet`] probe) compares the tile's word-gate
///    probability against a density threshold. Sparse tiles — the safe
///    region and the fault onset — keep the scalar per-bit enumeration of
///    level 4a. Dense tiles, where most words gate open and per-bit work
///    dominates, switch to the bit-sliced generation of level 4b. `Scalar`
///    and `BitSliced` force one arm; `Auto` applies the threshold.
/// 4. **Per-bit mask generation**, in one of two bit-identical arms:
///    - **(a) scalar enumeration**: each of the 256 bits hashes and tests
///      its class-conditional draw against `c / p_any` as an `f64`
///      comparison. Because `c ↦ c/(1−(1−sc)^256)` is increasing (chord
///      slope of a concave function through the origin), monotonicity in
///      voltage is preserved and the per-bit marginal probability is
///      exactly `s·c`.
///    - **(b) bit-sliced generation**: the word's hash prefix is combined
///      once, the per-tile `f64` thresholds are converted to their exact
///      integer images by [`crate::hash::unit_cutoff`], and the 256 bits
///      are produced a 64-bit lane at a time as `u64` bitplanes — one
///      integer mix and two integer compares per bit, with an AVX2 tier
///      (four lanes per instruction) behind the runtime feature probe.
///      The cutoffs are exact, so equality with arm (a) is a theorem,
///      enforced end to end by the `bitsliced_matches_scalar` proptests.
///
/// A range scan therefore costs `O(T·log W + F·256)` after the `O(W log W)`
/// one-time index build, and a single-word query costs the tile lookup plus
/// two gate hashes. All four levels sit behind the [`crate::MaskKernel`]
/// trait ([`FaultInjector::kernel`] constructs one); the pre-cache per-word
/// oracle is kept as [`crate::MaskKernel::reference_masks`] (selected at the
/// experiment layer by `ExecutionMode::Traffic`); property tests assert all
/// paths are bit-identical.
///
/// # Examples
///
/// ```
/// use hbm_device::{HbmGeometry, PcIndex, Word256, WordOffset};
/// use hbm_faults::{FaultInjector, FaultModelParams};
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_device::DeviceError> {
/// let injector = FaultInjector::new(
///     FaultModelParams::date21(),
///     HbmGeometry::vcu128_reduced(),
///     99,
/// );
/// let pc = PcIndex::new(0)?;
/// let (stuck0, stuck1) = injector.stuck_masks(pc, WordOffset(0), Millivolts(850));
/// // Masks never overlap: a bit fails towards exactly one value.
/// assert!((stuck0 & stuck1).is_zero());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    params: FaultModelParams,
    geometry: HbmGeometry,
    seed: u64,
    temperature: Celsius,
    shift_table: ShiftTable,
    grid: TileGrid,
    /// Per-PC tile probability tables for the most recent
    /// `(voltage, temperature)`; rebuilt lazily on any mismatch.
    tile_cache: RwLock<Vec<Option<Arc<TileTable>>>>,
    /// Per-PC sorted gate-draw indexes; voltage- and temperature-free.
    gate_index: RwLock<Vec<Option<Arc<GateIndex>>>>,
    /// Per-PC coupled-field activation indexes (per-class sorted minimum
    /// bit thresholds); voltage- and temperature-free.
    coupled_index: RwLock<Vec<Option<Arc<CoupledIndex>>>>,
    /// Lifetime tile-table lookups served from `tile_cache`.
    cache_hits: AtomicU64,
    /// Lifetime tile-table lookups that had to rebuild the table.
    cache_misses: AtomicU64,
    /// Lifetime range-scan tiles dispatched to the bit-sliced arm.
    dense_tiles_bitsliced: AtomicU64,
    /// Lifetime range-scan tiles dispatched to the scalar arm.
    sparse_tiles_scalar: AtomicU64,
}

/// Domain-separation tags for the hash streams.
const TAG_GATE0: u64 = 0x6761_7430;
const TAG_GATE1: u64 = 0x6761_7431;
const TAG_BIT: u64 = 0x6269_7400;
/// Coupled-field per-bit persistent thresholds ("cbit"); a domain distinct
/// from `TAG_BIT` so the two fault fields are statistically independent.
const TAG_CBIT: u64 = 0x6362_6974;

/// Largest pseudo channel (in words) the gate index is built for; larger
/// geometries fall back to per-word gate hashing (still tile-cached).
const MAX_INDEXED_WORDS_PER_PC: u64 = 1 << 16;

/// Largest word range a [`PcSweepCarry`] keeps bit-granular pending
/// thresholds for. The bit tier stores every still-clean bit of the range
/// (≈2 KiB per word transiently, shrinking to zero as the sweep saturates);
/// above this cap the carry falls back to word-granular refresh tracking,
/// which stays O(entries) in memory at any scale.
const MAX_BIT_CARRY_WORDS: u64 = 4096;

/// Exact reconstruction of a pending bit's threshold from its stored raw
/// 32-bit key — the identical `f64` that [`unit_pair`] produced when the
/// bit was first hashed, so the prefix-drain comparison and the per-bit
/// fault test are the same comparison on the same value.
fn threshold_from_raw(raw: u32) -> f64 {
    unit_pair(u64::from(raw) << 32).1
}

/// Exact reconstruction of a bit-sliced minimum raw key as the `f64`
/// threshold the scalar kernel would have tracked (`INFINITY` when the
/// class was exhausted, encoded as a key above `u32::MAX`).
fn raw_min_threshold(min: u64) -> f64 {
    u32::try_from(min).map_or(f64::INFINITY, threshold_from_raw)
}

/// One tile's thresholds converted to their exact integer images for the
/// bit-sliced arm: the polarity-class cutoff and the two per-class fault
/// cutoffs ([`unit_cutoff`] images of the tile's `f64` probabilities).
#[derive(Debug, Clone, Copy)]
struct TileCuts {
    class_cut: u64,
    cut0: u64,
    cut1: u64,
}

/// The (bank, row-region) tiling of a pseudo channel: the granularity at
/// which the variation shift — and so every derived probability — is
/// constant. Mirrors the bit layout of [`WordOffset::decode`].
#[derive(Debug, Clone, Copy)]
struct TileGrid {
    col_bits: u32,
    bank_bits: u32,
    region_rows: u32,
    regions_per_bank: u32,
    words_per_pc: u64,
    tile_count: usize,
}

impl TileGrid {
    fn new(geometry: HbmGeometry, region_rows: u32) -> Self {
        let region_rows = region_rows.max(1);
        let regions_per_bank = (geometry.rows_per_bank() - 1) / region_rows + 1;
        let banks = 1u32 << geometry.bank_bits();
        TileGrid {
            col_bits: geometry.col_bits(),
            bank_bits: geometry.bank_bits(),
            region_rows,
            regions_per_bank,
            words_per_pc: geometry.words_per_pc(),
            tile_count: (banks * regions_per_bank) as usize,
        }
    }

    /// Tile index of a word offset (same decode as [`WordOffset::decode`]).
    fn tile_of(&self, offset: u64) -> usize {
        assert!(
            offset < self.words_per_pc,
            "word offset {} out of range for geometry ({} words/pc)",
            offset,
            self.words_per_pc
        );
        let bank = ((offset >> self.col_bits) & ((1 << self.bank_bits) - 1)) as u32;
        let row = (offset >> (self.col_bits + self.bank_bits)) as u32;
        (bank * self.regions_per_bank + row / self.region_rows) as usize
    }

    /// Inverse of [`TileGrid::tile_of`]'s tile numbering.
    fn bank_and_region(&self, tile: usize) -> (BankId, u32) {
        let tile = tile as u32;
        (
            BankId((tile / self.regions_per_bank) as u16),
            tile % self.regions_per_bank,
        )
    }
}

/// Everything the bit-enumeration kernel needs about one tile at one
/// `(voltage, temperature)`.
#[derive(Debug, Clone, Copy)]
struct TileProbs {
    /// Class-conditional fault probabilities.
    c0: f64,
    c1: f64,
    /// Word-level any-fault gate probabilities, `1 − (1 − s·c)^256`.
    p_any0: f64,
    p_any1: f64,
    /// Conditional per-bit thresholds within a gated word, `(c/p_any).min(1)`.
    cond0: f64,
    cond1: f64,
}

/// One pseudo channel's tile probabilities at a fixed voltage and
/// temperature.
#[derive(Debug)]
struct TileTable {
    voltage: Millivolts,
    temperature: Celsius,
    tiles: Vec<TileProbs>,
}

/// One polarity class's gate draws for a pseudo channel, grouped by tile and
/// sorted by draw so the gated words at any voltage form a binary-searchable
/// prefix.
#[derive(Debug)]
struct GateClassIndex {
    /// Slice bounds of each tile in `keys`/`offsets` (length `tiles + 1`).
    starts: Vec<u32>,
    /// 53-bit gate keys (see [`gate_key`]), ascending within each tile.
    keys: Vec<u64>,
    /// Word offsets, parallel to `keys`.
    offsets: Vec<u32>,
}

impl GateClassIndex {
    /// The offsets of tile `tile` whose gate draw passes `p_any`.
    fn gated(&self, tile: usize, p_any: f64) -> &[u32] {
        let lo = self.starts[tile] as usize;
        let hi = self.starts[tile + 1] as usize;
        let n = self.keys[lo..hi].partition_point(|&k| key_unit(k) < p_any);
        &self.offsets[lo..lo + n]
    }
}

/// Both classes' gate indexes for one pseudo channel.
#[derive(Debug)]
struct GateIndex {
    class0: GateClassIndex,
    class1: GateClassIndex,
}

/// One polarity class of the coupled field's word-activation index for a
/// pseudo channel: every word's minimum per-bit threshold, grouped by tile
/// and sorted, so the words with at least one faulty bit of the class at
/// probability `c` form a binary-searchable prefix. The per-bit fault test
/// and the prefix predicate are the *same* comparison (`threshold < c`),
/// so prefix membership is exact — no conditional rescaling, no recheck.
#[derive(Debug)]
struct CoupledClassIndex {
    /// Slice bounds of each tile in `thresholds`/`offsets` (length
    /// `tiles + 1`).
    starts: Vec<u32>,
    /// Per-word minimum bit thresholds, ascending within each tile.
    thresholds: Vec<f64>,
    /// Word offsets, parallel to `thresholds`.
    offsets: Vec<u32>,
    /// Minimum bit threshold indexed by word offset (activation lookup).
    by_word: Vec<f64>,
}

impl CoupledClassIndex {
    /// The offsets of tile `tile` with at least one faulty bit of this
    /// class at class probability `c`.
    fn active(&self, tile: usize, c: f64) -> &[u32] {
        let lo = self.starts[tile] as usize;
        let hi = self.starts[tile + 1] as usize;
        let n = self.thresholds[lo..hi].partition_point(|&t| t < c);
        &self.offsets[lo..lo + n]
    }

    /// The offsets of tile `tile` whose first bit of this class activates
    /// as the class probability grows from `c_prev` to `c_next`.
    fn activated(&self, tile: usize, c_prev: f64, c_next: f64) -> &[u32] {
        let lo = self.starts[tile] as usize;
        let hi = self.starts[tile + 1] as usize;
        let slice = &self.thresholds[lo..hi];
        let a = slice.partition_point(|&t| t < c_prev);
        let b = slice.partition_point(|&t| t < c_next);
        &self.offsets[lo + a..lo + b.max(a)]
    }
}

/// Both classes' activation indexes for one pseudo channel.
#[derive(Debug)]
struct CoupledIndex {
    class0: CoupledClassIndex,
    class1: CoupledClassIndex,
}

impl Clone for FaultInjector {
    fn clone(&self) -> Self {
        FaultInjector {
            params: self.params.clone(),
            geometry: self.geometry,
            seed: self.seed,
            temperature: self.temperature,
            shift_table: self.shift_table.clone(),
            grid: self.grid,
            // Cached tables are immutable snapshots behind `Arc`s, so clones
            // share them cheaply; each clone invalidates independently (its
            // own locks), so diverging temperatures cannot cross-pollute.
            tile_cache: RwLock::new(self.tile_cache.read().expect("tile cache poisoned").clone()),
            gate_index: RwLock::new(self.gate_index.read().expect("gate index poisoned").clone()),
            coupled_index: RwLock::new(
                self.coupled_index
                    .read()
                    .expect("coupled index poisoned")
                    .clone(),
            ),
            cache_hits: AtomicU64::new(self.cache_hits.load(Ordering::Relaxed)),
            cache_misses: AtomicU64::new(self.cache_misses.load(Ordering::Relaxed)),
            dense_tiles_bitsliced: AtomicU64::new(
                self.dense_tiles_bitsliced.load(Ordering::Relaxed),
            ),
            sparse_tiles_scalar: AtomicU64::new(self.sparse_tiles_scalar.load(Ordering::Relaxed)),
        }
    }
}

impl FaultInjector {
    /// Creates an injector for a device geometry with a device seed (the
    /// seed identifies the simulated silicon specimen).
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: FaultModelParams, geometry: HbmGeometry, seed: u64) -> Self {
        params.validate();
        let shift_table = ShiftTable::new(&params.variation, seed, geometry);
        let grid = TileGrid::new(geometry, params.variation.region_rows);
        let pcs = usize::from(geometry.total_pcs());
        FaultInjector {
            params,
            geometry,
            seed,
            temperature: Celsius::STUDY_AMBIENT,
            shift_table,
            grid,
            tile_cache: RwLock::new(vec![None; pcs]),
            gate_index: RwLock::new(vec![None; pcs]),
            coupled_index: RwLock::new(vec![None; pcs]),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            dense_tiles_bitsliced: AtomicU64::new(0),
            sparse_tiles_scalar: AtomicU64::new(0),
        }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &FaultModelParams {
        &self.params
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> HbmGeometry {
        self.geometry
    }

    /// The device seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The modelled operating temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Lifetime `(hits, misses)` of the region-tile probability cache.
    ///
    /// A hit serves a tile-table lookup from the cached
    /// `(voltage, temperature)` snapshot; a miss rebuilds the table. The
    /// split is scheduling-dependent under parallel engine workers (whoever
    /// reaches a pseudo channel first takes the miss), so it belongs in a
    /// metrics registry, never in a deterministic trace.
    #[must_use]
    pub fn tile_cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Lifetime `(dense, sparse)` kernel-dispatch decisions: range-scan and
    /// carry tiles sent to the bit-sliced arm vs the scalar arm.
    ///
    /// Like [`FaultInjector::tile_cache_stats`], the totals depend on how
    /// work was scheduled across engine workers, so they belong in a metrics
    /// registry, never in a deterministic trace.
    #[must_use]
    pub fn kernel_dispatch_stats(&self) -> (u64, u64) {
        (
            self.dense_tiles_bitsliced.load(Ordering::Relaxed),
            self.sparse_tiles_scalar.load(Ordering::Relaxed),
        )
    }

    /// Sets the operating temperature (the study keeps it at 35 ± 1 °C).
    ///
    /// Invalidates the region-tile probability cache: local shifts depend on
    /// temperature. The gate index survives — gate draws are functions of
    /// `(seed, PC, offset)` only.
    pub fn set_temperature(&mut self, temperature: Celsius) {
        self.temperature = temperature;
        for slot in self
            .tile_cache
            .write()
            .expect("tile cache poisoned")
            .iter_mut()
        {
            *slot = None;
        }
    }

    /// Total local variation shift of a word's location, in volts.
    fn local_shift_volts(&self, pc: PcIndex, offset: WordOffset) -> f64 {
        let decoded = offset.decode(self.geometry);
        let var = &self.params.variation;
        self.shift_table.pc_shift_volts(pc)
            + var.bank_shift_volts(self.seed, pc, decoded.bank)
            + var.region_shift_volts(self.seed, pc, decoded.bank, decoded.row)
            + var.temperature_shift_volts(self.temperature)
    }

    /// The tile probability table of `pc` at `supply` (below the guardband
    /// only), from the cache or built on demand.
    fn tile_table(&self, pc: PcIndex, supply: Millivolts) -> Arc<TileTable> {
        debug_assert!(supply < self.params.landmarks.v_min);
        {
            let cache = self.tile_cache.read().expect("tile cache poisoned");
            if let Some(table) = &cache[pc.as_usize()] {
                if table.voltage == supply && table.temperature == self.temperature {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(table);
                }
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(self.build_tile_table(pc, supply));
        self.tile_cache.write().expect("tile cache poisoned")[pc.as_usize()] =
            Some(Arc::clone(&table));
        table
    }

    /// The total local variation shift of one tile, in volts.
    fn tile_shift_volts(&self, pc: PcIndex, tile: usize) -> f64 {
        let var = &self.params.variation;
        let (bank, region) = self.grid.bank_and_region(tile);
        // Exactly the per-word path's shift composition — the term order
        // matters, f64 addition is not associative.
        self.shift_table.pc_shift_volts(pc)
            + var.bank_shift_volts(self.seed, pc, bank)
            + var.region_shift_volts_by_index(self.seed, pc, bank, region)
            + var.temperature_shift_volts(self.temperature)
    }

    /// One tile's class probabilities `(c0, c1)` at `supply`, computed
    /// directly (no tile cache) and zero at or above V_min.
    fn tile_class_probabilities(&self, pc: PcIndex, tile: usize, supply: Millivolts) -> (f64, f64) {
        if supply >= self.params.landmarks.v_min {
            return (0.0, 0.0);
        }
        self.params
            .class_probabilities(supply.to_volts(), Volts(self.tile_shift_volts(pc, tile)))
    }

    fn build_tile_table(&self, pc: PcIndex, supply: Millivolts) -> TileTable {
        let v = supply.to_volts();
        let s0 = self.params.stuck0_share;
        let s1 = self.params.stuck1_share();
        let tiles = (0..self.grid.tile_count)
            .map(|tile| {
                let shift = self.tile_shift_volts(pc, tile);
                let (c0, c1) = self.params.class_probabilities(v, Volts(shift));
                let p_any0 = p_any(s0 * c0);
                let p_any1 = p_any(s1 * c1);
                TileProbs {
                    c0,
                    c1,
                    p_any0,
                    p_any1,
                    cond0: if p_any0 > 0.0 {
                        (c0 / p_any0).min(1.0)
                    } else {
                        0.0
                    },
                    cond1: if p_any1 > 0.0 {
                        (c1 / p_any1).min(1.0)
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        TileTable {
            voltage: supply,
            temperature: self.temperature,
            tiles,
        }
    }

    /// The gate index of `pc`, or `None` for geometries too large to index.
    fn pc_gate_index(&self, pc: PcIndex) -> Option<Arc<GateIndex>> {
        if self.grid.words_per_pc > MAX_INDEXED_WORDS_PER_PC {
            return None;
        }
        {
            let cache = self.gate_index.read().expect("gate index poisoned");
            if let Some(index) = &cache[pc.as_usize()] {
                return Some(Arc::clone(index));
            }
        }
        let index = Arc::new(GateIndex {
            class0: self.build_class_index(pc, TAG_GATE0),
            class1: self.build_class_index(pc, TAG_GATE1),
        });
        self.gate_index.write().expect("gate index poisoned")[pc.as_usize()] =
            Some(Arc::clone(&index));
        Some(index)
    }

    fn build_class_index(&self, pc: PcIndex, tag: u64) -> GateClassIndex {
        let pcu = u64::from(pc.as_u8());
        let mut entries: Vec<(u32, u64, u32)> = (0..self.grid.words_per_pc)
            .map(|w| {
                let tile = self.grid.tile_of(w) as u32;
                (tile, gate_key(combine(&[self.seed, pcu, w, tag])), w as u32)
            })
            .collect();
        entries.sort_unstable();
        let mut starts = vec![0u32; self.grid.tile_count + 1];
        for &(tile, _, _) in &entries {
            starts[tile as usize + 1] += 1;
        }
        let mut acc = 0u32;
        for s in &mut starts {
            acc += *s;
            *s = acc;
        }
        GateClassIndex {
            starts,
            keys: entries.iter().map(|&(_, key, _)| key).collect(),
            offsets: entries.iter().map(|&(_, _, w)| w).collect(),
        }
    }

    /// Class-conditional fault probabilities `(c_stuck0, c_stuck1)` at a
    /// location for a supply voltage, after guardband gating.
    #[must_use]
    pub fn class_probabilities(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (f64, f64) {
        if supply >= self.params.landmarks.v_min {
            return (0.0, 0.0);
        }
        let table = self.tile_table(pc, supply);
        let probs = table.tiles[self.grid.tile_of(offset.0)];
        (probs.c0, probs.c1)
    }

    /// Reference implementation of [`FaultInjector::class_probabilities`]
    /// that recomputes the variation shift and response curves per word
    /// instead of consulting the tile cache. Internal validation oracle for
    /// the cached kernel, reachable through
    /// [`crate::MaskKernel::reference_masks`].
    #[must_use]
    pub(crate) fn class_probabilities_per_word(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (f64, f64) {
        if supply >= self.params.landmarks.v_min {
            return (0.0, 0.0);
        }
        let v = supply.to_volts();
        let shift = self.local_shift_volts(pc, offset);
        self.params.class_probabilities(v, Volts(shift))
    }

    /// Computes the stuck-at masks of one word at a supply voltage:
    /// `(stuck-at-0 mask, stuck-at-1 mask)`. The masks are disjoint.
    #[must_use]
    pub fn stuck_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256) {
        self.stuck_masks_sel(pc, offset, supply, BackendSel::Scalar)
    }

    /// Backend-selected [`FaultInjector::stuck_masks`]: the single-word
    /// entry point of [`crate::MaskKernel::masks`]. Single-word queries do
    /// not touch the dispatch counters — those track range-scan tiles.
    pub(crate) fn stuck_masks_sel(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
        sel: BackendSel,
    ) -> (Word256, Word256) {
        if supply >= self.params.landmarks.v_min {
            return (Word256::ZERO, Word256::ZERO);
        }
        let table = self.tile_table(pc, supply);
        let probs = table.tiles[self.grid.tile_of(offset.0)];
        let plan = sel
            .bitsliced_for_tile(probs.p_any0.max(probs.p_any1))
            .then(|| self.tile_cuts(&probs, false));
        self.masks_from_probs(pc, offset.0, probs, plan, sel.isa())
    }

    /// Reference per-word implementation of [`FaultInjector::stuck_masks`]:
    /// the pre-cache kernel, recomputing shift, probabilities and gates from
    /// scratch for every word. The scalar oracle every backend is tested
    /// against, reachable through [`crate::MaskKernel::reference_masks`].
    pub(crate) fn stuck_masks_per_word_impl(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256) {
        let (c0, c1) = self.class_probabilities_per_word(pc, offset, supply);
        if c0 == 0.0 && c1 == 0.0 {
            return (Word256::ZERO, Word256::ZERO);
        }

        let s0 = self.params.stuck0_share;
        let s1 = self.params.stuck1_share();
        // Word-level any-fault gates, one per polarity class.
        let p_any0 = p_any(s0 * c0);
        let p_any1 = p_any(s1 * c1);
        let base = &[self.seed, u64::from(pc.as_u8()), offset.0];
        let gate0 = p_any0 > 0.0 && unit(combine(&[base[0], base[1], base[2], TAG_GATE0])) < p_any0;
        let gate1 = p_any1 > 0.0 && unit(combine(&[base[0], base[1], base[2], TAG_GATE1])) < p_any1;
        if !gate0 && !gate1 {
            return (Word256::ZERO, Word256::ZERO);
        }

        // Conditional per-bit thresholds within a gated word.
        let cond0 = if gate0 { (c0 / p_any0).min(1.0) } else { 0.0 };
        let cond1 = if gate1 { (c1 / p_any1).min(1.0) } else { 0.0 };
        self.enumerate_bits(pc, offset.0, cond0, cond1)
    }

    /// The gate tests and bit enumeration for one word with its tile
    /// probabilities already in hand. `plan` carries the tile's integer
    /// cutoffs when the dispatch chose the bit-sliced arm; gate tests stay
    /// scalar either way (two hashes per word, identical in both arms).
    fn masks_from_probs(
        &self,
        pc: PcIndex,
        w: u64,
        probs: TileProbs,
        plan: Option<TileCuts>,
        isa: InstructionSet,
    ) -> (Word256, Word256) {
        if probs.c0 == 0.0 && probs.c1 == 0.0 {
            return (Word256::ZERO, Word256::ZERO);
        }
        let pcu = u64::from(pc.as_u8());
        let gate0 =
            probs.p_any0 > 0.0 && unit(combine(&[self.seed, pcu, w, TAG_GATE0])) < probs.p_any0;
        let gate1 =
            probs.p_any1 > 0.0 && unit(combine(&[self.seed, pcu, w, TAG_GATE1])) < probs.p_any1;
        if !gate0 && !gate1 {
            return (Word256::ZERO, Word256::ZERO);
        }
        match plan {
            Some(cuts) => self.enumerate_bits_sliced(
                pc,
                w,
                if gate0 { cuts.cut0 } else { 0 },
                if gate1 { cuts.cut1 } else { 0 },
                cuts.class_cut,
                isa,
            ),
            None => self.enumerate_bits(
                pc,
                w,
                if gate0 { probs.cond0 } else { 0.0 },
                if gate1 { probs.cond1 } else { 0.0 },
            ),
        }
    }

    /// One tile's probabilities as exact integer cutoffs for the bit-sliced
    /// arm: the per-voltage field compares bits against the conditional
    /// thresholds of gated words, the coupled field against the raw class
    /// probabilities.
    fn tile_cuts(&self, probs: &TileProbs, coupled: bool) -> TileCuts {
        let (t0, t1) = if coupled {
            (probs.c0, probs.c1)
        } else {
            (probs.cond0, probs.cond1)
        };
        TileCuts {
            class_cut: unit_cutoff(self.params.stuck0_share),
            cut0: unit_cutoff(t0),
            cut1: unit_cutoff(t1),
        }
    }

    /// The per-tile dispatch decision of a range scan: `None` keeps the
    /// scalar arm, `Some` carries the cutoffs for the bit-sliced arm. Bumps
    /// the lifetime dispatch counters.
    fn tile_plan(&self, sel: BackendSel, probs: &TileProbs, coupled: bool) -> Option<TileCuts> {
        if !sel.bitsliced_for_tile(probs.p_any0.max(probs.p_any1)) {
            self.sparse_tiles_scalar.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.dense_tiles_bitsliced.fetch_add(1, Ordering::Relaxed);
        Some(self.tile_cuts(probs, coupled))
    }

    /// The per-bit draws of a gated word against the class-conditional
    /// thresholds (zero for an ungated class).
    fn enumerate_bits(&self, pc: PcIndex, w: u64, cond0: f64, cond1: f64) -> (Word256, Word256) {
        let s0 = self.params.stuck0_share;
        let pcu = u64::from(pc.as_u8());
        let mut stuck0 = Word256::ZERO;
        let mut stuck1 = Word256::ZERO;
        for bit in 0u32..Word256::BITS {
            let h = combine(&[self.seed, pcu, w, TAG_BIT, u64::from(bit)]);
            let (class_u, thresh_u) = unit_pair(h);
            if class_u < s0 {
                if thresh_u < cond0 {
                    stuck0 = stuck0.with_bit_set(bit);
                }
            } else if thresh_u < cond1 {
                stuck1 = stuck1.with_bit_set(bit);
            }
        }
        (stuck0, stuck1)
    }

    /// The bit-sliced arm of [`FaultInjector::enumerate_bits`]: the word's
    /// hash prefix is combined once (`combine` folds each suffix part with
    /// one `mix64`, so `combine(&[.., TAG_BIT, bit])` equals
    /// `mix64(prefix ^ bit)`), and the 256 bits are generated as `u64`
    /// bitplanes against the tile's integer cutoffs.
    fn enumerate_bits_sliced(
        &self,
        pc: PcIndex,
        w: u64,
        cut0: u64,
        cut1: u64,
        class_cut: u64,
        isa: InstructionSet,
    ) -> (Word256, Word256) {
        let prefix = combine(&[self.seed, u64::from(pc.as_u8()), w, TAG_BIT]);
        bitsliced::bit_planes(prefix, class_cut, cut0, cut1, isa)
    }

    /// Applies the fault model to a stored word: what a read at `supply`
    /// observes.
    #[must_use]
    pub fn observe(
        &self,
        stored: Word256,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> Word256 {
        let (stuck0, stuck1) = self.stuck_masks(pc, offset, supply);
        stored.with_stuck_bits(stuck0, stuck1)
    }

    /// Runs `f` over every per-voltage faulty word of the range, in
    /// unspecified order, through the skip-sampling kernel where the
    /// geometry is indexed, with the per-tile backend dispatch of `sel`.
    pub(crate) fn for_each_faulty_sel<F: FnMut(u64, Word256, Word256)>(
        &self,
        pc: PcIndex,
        words: &Range<u64>,
        supply: Millivolts,
        sel: BackendSel,
        mut f: F,
    ) {
        if words.is_empty() || supply >= self.params.landmarks.v_min {
            return;
        }
        assert!(
            words.end <= self.grid.words_per_pc,
            "word range end {} out of range for geometry ({} words/pc)",
            words.end,
            self.grid.words_per_pc
        );
        let table = self.tile_table(pc, supply);
        let pcu = u64::from(pc.as_u8());
        let Some(index) = self.pc_gate_index(pc) else {
            // Unindexed fallback: per-word gate hashes over the tile cache,
            // the dispatch decision memoized per visited tile.
            let mut plans: Vec<Option<Option<TileCuts>>> = vec![None; self.grid.tile_count];
            for w in words.clone() {
                let tile = self.grid.tile_of(w);
                let probs = table.tiles[tile];
                if probs.c0 == 0.0 && probs.c1 == 0.0 {
                    continue;
                }
                let plan = *plans[tile].get_or_insert_with(|| self.tile_plan(sel, &probs, false));
                let (s0, s1) = self.masks_from_probs(pc, w, probs, plan, sel.isa());
                if !(s0.is_zero() && s1.is_zero()) {
                    f(w, s0, s1);
                }
            }
            return;
        };
        for (tile, probs) in table.tiles.iter().enumerate() {
            if probs.c0 == 0.0 && probs.c1 == 0.0 {
                continue;
            }
            let plan = self.tile_plan(sel, probs, false);
            // Words whose class-0 gate passes; their class-1 gate is an
            // extra hash test, exactly as in the per-word path.
            for &w32 in index.class0.gated(tile, probs.p_any0) {
                let w = u64::from(w32);
                if !words.contains(&w) {
                    continue;
                }
                let gate1 = probs.p_any1 > 0.0
                    && unit(combine(&[self.seed, pcu, w, TAG_GATE1])) < probs.p_any1;
                let (s0, s1) = match plan {
                    Some(cuts) => self.enumerate_bits_sliced(
                        pc,
                        w,
                        cuts.cut0,
                        if gate1 { cuts.cut1 } else { 0 },
                        cuts.class_cut,
                        sel.isa(),
                    ),
                    None => self.enumerate_bits(
                        pc,
                        w,
                        probs.cond0,
                        if gate1 { probs.cond1 } else { 0.0 },
                    ),
                };
                if !(s0.is_zero() && s1.is_zero()) {
                    f(w, s0, s1);
                }
            }
            // Words gated only by class 1 (class-0-gated ones were already
            // handled above — the recomputed gate-0 test reproduces the
            // prefix membership exactly).
            for &w32 in index.class1.gated(tile, probs.p_any1) {
                let w = u64::from(w32);
                if !words.contains(&w) {
                    continue;
                }
                let gate0 = probs.p_any0 > 0.0
                    && unit(combine(&[self.seed, pcu, w, TAG_GATE0])) < probs.p_any0;
                if gate0 {
                    continue;
                }
                let (s0, s1) = match plan {
                    Some(cuts) => {
                        self.enumerate_bits_sliced(pc, w, 0, cuts.cut1, cuts.class_cut, sel.isa())
                    }
                    None => self.enumerate_bits(pc, w, 0.0, probs.cond1),
                };
                if !(s0.is_zero() && s1.is_zero()) {
                    f(w, s0, s1);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Coupled fault field (`FaultFieldMode::MonotoneCoupled`)
    // ------------------------------------------------------------------

    /// One word's coupled-field draws against the class probabilities: the
    /// stuck masks plus each class's smallest still-clean bit threshold
    /// (`f64::INFINITY` when every bit of the class is already faulty).
    fn coupled_word(&self, pc: PcIndex, w: u64, c0: f64, c1: f64) -> (Word256, Word256, f64, f64) {
        let s0_share = self.params.stuck0_share;
        let pcu = u64::from(pc.as_u8());
        let mut stuck0 = Word256::ZERO;
        let mut stuck1 = Word256::ZERO;
        let mut next0 = f64::INFINITY;
        let mut next1 = f64::INFINITY;
        for bit in 0u32..Word256::BITS {
            let h = combine(&[self.seed, pcu, w, TAG_CBIT, u64::from(bit)]);
            let (class_u, t) = unit_pair(h);
            if class_u < s0_share {
                if t < c0 {
                    stuck0 = stuck0.with_bit_set(bit);
                } else if t < next0 {
                    next0 = t;
                }
            } else if t < c1 {
                stuck1 = stuck1.with_bit_set(bit);
            } else if t < next1 {
                next1 = t;
            }
        }
        (stuck0, stuck1, next0, next1)
    }

    /// The bit-sliced arm of [`FaultInjector::coupled_word`]: whole-word
    /// counter hashing against the tile's integer cutoffs, the per-class
    /// minimum still-clean raw keys converted back to the exact `f64`
    /// thresholds the scalar arm tracks (monotone conversion, so the
    /// minimum commutes with it).
    fn coupled_word_sliced(
        &self,
        pc: PcIndex,
        w: u64,
        cuts: TileCuts,
    ) -> (Word256, Word256, f64, f64) {
        let prefix = combine(&[self.seed, u64::from(pc.as_u8()), w, TAG_CBIT]);
        let (s0, s1, min0, min1) =
            bitsliced::coupled_word(prefix, cuts.class_cut, cuts.cut0, cuts.cut1);
        (s0, s1, raw_min_threshold(min0), raw_min_threshold(min1))
    }

    /// Dispatches one coupled word through the tile's plan.
    fn coupled_word_sel(
        &self,
        pc: PcIndex,
        w: u64,
        probs: &TileProbs,
        plan: Option<TileCuts>,
    ) -> (Word256, Word256, f64, f64) {
        match plan {
            Some(cuts) => self.coupled_word_sliced(pc, w, cuts),
            None => self.coupled_word(pc, w, probs.c0, probs.c1),
        }
    }

    /// The coupled-field activation index of `pc`, or `None` for geometries
    /// too large to index.
    fn pc_coupled_index(&self, pc: PcIndex) -> Option<Arc<CoupledIndex>> {
        if self.grid.words_per_pc > MAX_INDEXED_WORDS_PER_PC {
            return None;
        }
        {
            let cache = self.coupled_index.read().expect("coupled index poisoned");
            if let Some(index) = &cache[pc.as_usize()] {
                return Some(Arc::clone(index));
            }
        }
        let index = Arc::new(self.build_coupled_index(pc));
        self.coupled_index.write().expect("coupled index poisoned")[pc.as_usize()] =
            Some(Arc::clone(&index));
        Some(index)
    }

    /// One pass over every bit of the pseudo channel, recording each word's
    /// minimum threshold per class; thresholds never depend on voltage or
    /// temperature, so the index is built once per PC.
    fn build_coupled_index(&self, pc: PcIndex) -> CoupledIndex {
        let s0_share = self.params.stuck0_share;
        let pcu = u64::from(pc.as_u8());
        let words = usize::try_from(self.grid.words_per_pc).expect("indexed geometry fits usize");
        let mut by0 = vec![f64::INFINITY; words];
        let mut by1 = vec![f64::INFINITY; words];
        for w in 0..self.grid.words_per_pc {
            let (mut m0, mut m1) = (f64::INFINITY, f64::INFINITY);
            for bit in 0u32..Word256::BITS {
                let h = combine(&[self.seed, pcu, w, TAG_CBIT, u64::from(bit)]);
                let (class_u, t) = unit_pair(h);
                if class_u < s0_share {
                    m0 = m0.min(t);
                } else {
                    m1 = m1.min(t);
                }
            }
            by0[w as usize] = m0;
            by1[w as usize] = m1;
        }
        CoupledIndex {
            class0: self.sorted_threshold_index(by0),
            class1: self.sorted_threshold_index(by1),
        }
    }

    fn sorted_threshold_index(&self, by_word: Vec<f64>) -> CoupledClassIndex {
        let mut entries: Vec<(u32, f64, u32)> = by_word
            .iter()
            .enumerate()
            .map(|(w, &t)| (self.grid.tile_of(w as u64) as u32, t, w as u32))
            .collect();
        entries
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut starts = vec![0u32; self.grid.tile_count + 1];
        for &(tile, _, _) in &entries {
            starts[tile as usize + 1] += 1;
        }
        let mut acc = 0u32;
        for s in &mut starts {
            acc += *s;
            *s = acc;
        }
        CoupledClassIndex {
            starts,
            thresholds: entries.iter().map(|&(_, t, _)| t).collect(),
            offsets: entries.iter().map(|&(_, _, w)| w).collect(),
            by_word,
        }
    }

    /// Computes the stuck-at masks of one word at a supply voltage under
    /// the coupled fault field ([`crate::FaultFieldMode::MonotoneCoupled`]).
    ///
    /// Each `(pc, word, bit)` owns one persistent threshold drawn from a
    /// counter-based hash of the device seed and the bit's address; the bit
    /// is faulty iff its polarity class's fault probability at `supply`
    /// exceeds the threshold. Masks are disjoint, deterministic, guardband
    /// fault-free, and inclusion-monotone across descending voltage by
    /// construction. The expected per-bit fault rate equals the legacy
    /// field's (`share_π × c_π`), so the two fields are statistically
    /// interchangeable at any single voltage. Single-word queries do not
    /// touch the dispatch counters.
    pub(crate) fn coupled_stuck_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
        sel: BackendSel,
    ) -> (Word256, Word256) {
        if supply >= self.params.landmarks.v_min {
            return (Word256::ZERO, Word256::ZERO);
        }
        let table = self.tile_table(pc, supply);
        let probs = table.tiles[self.grid.tile_of(offset.0)];
        if probs.c0 == 0.0 && probs.c1 == 0.0 {
            return (Word256::ZERO, Word256::ZERO);
        }
        let plan = sel
            .bitsliced_for_tile(probs.p_any0.max(probs.p_any1))
            .then(|| self.tile_cuts(&probs, true));
        let (s0, s1, _, _) = self.coupled_word_sel(pc, offset.0, &probs, plan);
        (s0, s1)
    }

    /// Runs `f` over every word of the range with at least one
    /// coupled-field faulty bit, in unspecified order, yielding the masks
    /// and both next-clean thresholds.
    pub(crate) fn coupled_for_each_active<F: FnMut(u64, Word256, Word256, f64, f64)>(
        &self,
        pc: PcIndex,
        words: &Range<u64>,
        supply: Millivolts,
        sel: BackendSel,
        mut f: F,
    ) {
        if words.is_empty() || supply >= self.params.landmarks.v_min {
            return;
        }
        assert!(
            words.end <= self.grid.words_per_pc,
            "word range end {} out of range for geometry ({} words/pc)",
            words.end,
            self.grid.words_per_pc
        );
        let table = self.tile_table(pc, supply);
        let Some(index) = self.pc_coupled_index(pc) else {
            // Unindexed fallback: per-word bit walk over the tile cache,
            // the dispatch decision memoized per visited tile.
            let mut plans: Vec<Option<Option<TileCuts>>> = vec![None; self.grid.tile_count];
            for w in words.clone() {
                let tile = self.grid.tile_of(w);
                let probs = table.tiles[tile];
                if probs.c0 == 0.0 && probs.c1 == 0.0 {
                    continue;
                }
                let plan = *plans[tile].get_or_insert_with(|| self.tile_plan(sel, &probs, true));
                let (s0, s1, n0, n1) = self.coupled_word_sel(pc, w, &probs, plan);
                if !(s0.is_zero() && s1.is_zero()) {
                    f(w, s0, s1, n0, n1);
                }
            }
            return;
        };
        for (tile, probs) in table.tiles.iter().enumerate() {
            if probs.c0 == 0.0 && probs.c1 == 0.0 {
                continue;
            }
            let plan = self.tile_plan(sel, probs, true);
            // Words whose class-0 minimum threshold is crossed; each has at
            // least one stuck-at-0 bit by the prefix predicate.
            for &w32 in index.class0.active(tile, probs.c0) {
                let w = u64::from(w32);
                if !words.contains(&w) {
                    continue;
                }
                let (s0, s1, n0, n1) = self.coupled_word_sel(pc, w, probs, plan);
                f(w, s0, s1, n0, n1);
            }
            // Words active only through class 1 (class-0-active words were
            // already yielded; the by-word lookup reproduces the prefix
            // membership exactly).
            for &w32 in index.class1.active(tile, probs.c1) {
                let w = u64::from(w32);
                if !words.contains(&w) {
                    continue;
                }
                if index.class0.by_word[w32 as usize] < probs.c0 {
                    continue;
                }
                let (s0, s1, n0, n1) = self.coupled_word_sel(pc, w, probs, plan);
                f(w, s0, s1, n0, n1);
            }
        }
    }

    /// The expected fraction of words with at least one faulty bit at
    /// `supply`, averaged over the pseudo channel's tiles — `0.0` in the
    /// guardband. Identical for both fault-field modes (they share the
    /// analytic model) and cheap to evaluate (tile cache hit plus a pass
    /// over the tile probabilities), so callers can use it to pick between
    /// collecting faulty-word vectors (sparse regime) and streaming folds
    /// (dense regime) *before* enumerating anything.
    #[must_use]
    pub fn expected_active_fraction(&self, pc: PcIndex, supply: Millivolts) -> f64 {
        if supply >= self.params.landmarks.v_min {
            return 0.0;
        }
        let table = self.tile_table(pc, supply);
        if table.tiles.is_empty() {
            return 0.0;
        }
        let sum: f64 = table
            .tiles
            .iter()
            .map(|t| 1.0 - (1.0 - t.p_any0) * (1.0 - t.p_any1))
            .sum();
        sum / table.tiles.len() as f64
    }

    /// Builds the carried working set of a descending sweep at its first
    /// measured point: every coupled-field faulty word of the range at
    /// `supply`, plus the state that makes
    /// [`FaultInjector::coupled_carry_advance`] cheap.
    ///
    /// Ranges up to [`MAX_BIT_CARRY_WORDS`] get the *bit-granular* tier:
    /// one hash pass records every still-clean bit's threshold into
    /// per-tile sorted pending lists, after which a whole descending sweep
    /// never hashes any bit again — each advance drains the prefix of bits
    /// whose thresholds the new probabilities cross. Larger ranges get the
    /// word-granular tier (per-word next-change thresholds, re-enumerating
    /// a word's 256 bits whenever one crosses), which needs no per-bit
    /// storage. Both tiers produce bit-identical masks.
    ///
    /// The build is accounted as `activated` words in the returned stats.
    pub(crate) fn coupled_carry_start(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
        sel: BackendSel,
    ) -> (PcSweepCarry, CarryStats) {
        let len = words.end.saturating_sub(words.start);
        if len > 0 && len <= MAX_BIT_CARRY_WORDS {
            return self.coupled_bit_carry_start(pc, words, supply, sel);
        }
        let mut entries = Vec::new();
        self.coupled_for_each_active(pc, &words, supply, sel, |w, s0, s1, n0, n1| {
            entries.push(CarryEntry {
                offset: w as u32,
                stuck0: s0,
                stuck1: s1,
                next0: n0,
                next1: n1,
                touch: 0,
            });
        });
        entries.sort_unstable_by_key(|e| e.offset);
        let stats = CarryStats {
            carried: 0,
            refreshed: 0,
            activated: entries.len() as u64,
        };
        (
            PcSweepCarry {
                pc,
                words,
                voltage: supply,
                temperature: self.temperature,
                entries,
                pending: None,
            },
            stats,
        )
    }

    /// The bit-granular carry build: one pass over every bit of the range,
    /// setting the masks faulty at `supply` and recording each still-clean
    /// bit's raw threshold key into its tile-and-class pending list.
    ///
    /// On dense tiles the bit-sliced arm hashes each word as whole 64-bit
    /// lanes ([`bitsliced::coupled_scan`], one `mix64` per bit) and fills
    /// the pending lists from the recorded raw keys. Inside the guardband
    /// every bit is clean, so non-scalar backends take the same arm with
    /// both fault cutoffs at zero; the dispatch counters only count tiles
    /// of a tile table, so they do not see it. Both arms push each list in
    /// ascending `slot << 8 | bit` order, and [`sort_pending`] — a stable
    /// radix sort on the raw key — turns that into the `(raw, packed)`
    /// order the drains consume, so both arms build identical carries.
    fn coupled_bit_carry_start(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        supply: Millivolts,
        sel: BackendSel,
    ) -> (PcSweepCarry, CarryStats) {
        assert!(
            words.end <= self.grid.words_per_pc,
            "word range end {} out of range for geometry ({} words/pc)",
            words.end,
            self.grid.words_per_pc
        );
        let tiles = (supply < self.params.landmarks.v_min).then(|| self.tile_table(pc, supply));
        let s0_share = self.params.stuck0_share;
        let guardband_plan = (!matches!(sel, BackendSel::Scalar)).then(|| TileCuts {
            class_cut: unit_cutoff(s0_share),
            cut0: 0,
            cut1: 0,
        });
        let pcu = u64::from(pc.as_u8());
        let len = usize::try_from(words.end - words.start).expect("bit-carry range fits usize");
        let mut class0 = vec![PendingClass::default(); self.grid.tile_count];
        let mut class1 = vec![PendingClass::default(); self.grid.tile_count];
        let mut entry_of = vec![u32::MAX; len];
        let mut entries = Vec::new();
        let mut plans: Vec<Option<Option<TileCuts>>> = vec![None; self.grid.tile_count];
        let mut raws = [0u32; 256];
        for w in words.clone() {
            let tile = self.grid.tile_of(w);
            let slot = (w - words.start) as u32;
            // Inside the guardband there is no tile table: every bit is
            // clean and only its threshold is recorded.
            let plan = match tiles.as_ref() {
                Some(t) => {
                    let probs = t.tiles[tile];
                    *plans[tile].get_or_insert_with(|| self.tile_plan(sel, &probs, true))
                }
                None => guardband_plan,
            };
            let mut stuck0 = Word256::ZERO;
            let mut stuck1 = Word256::ZERO;
            match plan {
                Some(cuts) => {
                    let prefix = combine(&[self.seed, pcu, w, TAG_CBIT]);
                    let (class_plane, s0, s1) = bitsliced::coupled_scan(
                        prefix,
                        cuts.class_cut,
                        cuts.cut0,
                        cuts.cut1,
                        &mut raws,
                    );
                    stuck0 = s0;
                    stuck1 = s1;
                    // Still-clean bits per class, drained lane by lane.
                    let clean0 = class_plane & !s0;
                    let clean1 = !class_plane & !s1;
                    for (lane, (&l0, &l1)) in clean0.0.iter().zip(clean1.0.iter()).enumerate() {
                        let base = (lane * 64) as u32;
                        let mut m = l0;
                        while m != 0 {
                            let bit = base + m.trailing_zeros();
                            class0[tile]
                                .bits
                                .push((raws[bit as usize], (slot << 8) | bit));
                            m &= m - 1;
                        }
                        let mut m = l1;
                        while m != 0 {
                            let bit = base + m.trailing_zeros();
                            class1[tile]
                                .bits
                                .push((raws[bit as usize], (slot << 8) | bit));
                            m &= m - 1;
                        }
                    }
                }
                None => {
                    let (c0, c1) = tiles
                        .as_ref()
                        .map_or((0.0, 0.0), |t| (t.tiles[tile].c0, t.tiles[tile].c1));
                    for bit in 0u32..Word256::BITS {
                        let h = combine(&[self.seed, pcu, w, TAG_CBIT, u64::from(bit)]);
                        let (class_u, t) = unit_pair(h);
                        let raw = (h >> 32) as u32;
                        if class_u < s0_share {
                            if t < c0 {
                                stuck0 = stuck0.with_bit_set(bit);
                            } else {
                                class0[tile].bits.push((raw, (slot << 8) | bit));
                            }
                        } else if t < c1 {
                            stuck1 = stuck1.with_bit_set(bit);
                        } else {
                            class1[tile].bits.push((raw, (slot << 8) | bit));
                        }
                    }
                }
            }
            if !(stuck0.is_zero() && stuck1.is_zero()) {
                entry_of[slot as usize] = entries.len() as u32;
                entries.push(CarryEntry {
                    offset: w as u32,
                    stuck0,
                    stuck1,
                    next0: f64::INFINITY,
                    next1: f64::INFINITY,
                    touch: 0,
                });
            }
        }
        let mut scratch = Vec::new();
        for pending in class0.iter_mut().chain(class1.iter_mut()) {
            sort_pending(&mut pending.bits, &mut scratch);
        }
        let stats = CarryStats {
            carried: 0,
            refreshed: 0,
            activated: entries.len() as u64,
        };
        (
            PcSweepCarry {
                pc,
                words,
                voltage: supply,
                temperature: self.temperature,
                entries,
                pending: Some(PendingBits {
                    class0,
                    class1,
                    entry_of,
                    seq: 0,
                }),
            },
            stats,
        )
    }

    /// Advances a carried working set to a lower supply voltage, touching
    /// only the words whose masks change. The resulting masks are
    /// bit-identical to a from-scratch coupled enumeration at `supply`.
    ///
    /// A non-descending `supply` or a temperature change since the carry
    /// was built voids the carry: it is rebuilt from scratch (accounted as
    /// `activated`). Advancing to the carry's own voltage is a no-op that
    /// reports every word as `carried`.
    ///
    /// # Performance
    ///
    /// On the bit-granular tier (ranges up to 4096 words) an advance
    /// hashes *nothing*: it drains, per tile and class, the sorted-prefix
    /// of pending bit thresholds the new probabilities cross and ORs
    /// exactly those bits into the carried masks, so a whole descent costs
    /// one hash pass at carry start plus `O(bit flips)` total — against
    /// `O(points × faulty words × 256)` draws for per-point rescans. On
    /// the word-granular fallback tier a carried word is reused untouched
    /// unless one of its still-clean minimum thresholds (`next0`/`next1`)
    /// is crossed, in which case its 256 bits are re-enumerated; newly
    /// activated words are appended from the activation index, two binary
    /// searches per tile and class on the sorted minimum thresholds.
    pub(crate) fn coupled_carry_advance(
        &self,
        carry: &mut PcSweepCarry,
        supply: Millivolts,
        sel: BackendSel,
    ) -> CarryStats {
        if supply > carry.voltage || carry.temperature != self.temperature {
            let (fresh, stats) =
                self.coupled_carry_start(carry.pc, carry.words.clone(), supply, sel);
            *carry = fresh;
            return stats;
        }
        if supply == carry.voltage {
            return CarryStats {
                carried: carry.entries.len() as u64,
                refreshed: 0,
                activated: 0,
            };
        }
        if supply >= self.params.landmarks.v_min {
            // Still inside the guardband: nothing can be active.
            carry.voltage = supply;
            return CarryStats::default();
        }
        if carry.pending.is_some() {
            return self.coupled_bit_advance(carry, supply);
        }
        let pc = carry.pc;
        let table = self.tile_table(pc, supply);
        let prev_voltage = carry.voltage;
        let prev_tiles = (prev_voltage < self.params.landmarks.v_min)
            .then(|| self.build_tile_table(pc, prev_voltage).tiles);
        let prev_c = |tile: usize| {
            prev_tiles
                .as_ref()
                .map_or((0.0, 0.0), |t| (t[tile].c0, t[tile].c1))
        };
        let mut stats = CarryStats::default();
        // One dispatch decision per tile for the whole advance (refresh and
        // activation loops share the memo); only tiles that actually hash a
        // word are decided and counted.
        let mut plans: Vec<Option<Option<TileCuts>>> = vec![None; self.grid.tile_count];
        // (a) Refresh carried words whose next clean threshold was crossed;
        // monotonicity guarantees existing mask bits never disappear.
        for entry in &mut carry.entries {
            let tile = self.grid.tile_of(u64::from(entry.offset));
            let probs = table.tiles[tile];
            if entry.next0 < probs.c0 || entry.next1 < probs.c1 {
                let plan = *plans[tile].get_or_insert_with(|| self.tile_plan(sel, &probs, true));
                let (s0, s1, n0, n1) =
                    self.coupled_word_sel(pc, u64::from(entry.offset), &probs, plan);
                entry.stuck0 = s0;
                entry.stuck1 = s1;
                entry.next0 = n0;
                entry.next1 = n1;
                stats.refreshed += 1;
            } else {
                stats.carried += 1;
            }
        }
        // (b) Append the words activating in the (v_prev, supply] window.
        let mut fresh: Vec<CarryEntry> = Vec::new();
        if let Some(index) = self.pc_coupled_index(pc) {
            for (tile, probs) in table.tiles.iter().enumerate() {
                if probs.c0 == 0.0 && probs.c1 == 0.0 {
                    continue;
                }
                let (c0p, c1p) = prev_c(tile);
                for &w32 in index.class0.activated(tile, c0p, probs.c0) {
                    let w = u64::from(w32);
                    if !carry.words.contains(&w) {
                        continue;
                    }
                    if index.class1.by_word[w32 as usize] < c1p {
                        continue;
                    }
                    let plan = *plans[tile].get_or_insert_with(|| self.tile_plan(sel, probs, true));
                    let (s0, s1, n0, n1) = self.coupled_word_sel(pc, w, probs, plan);
                    fresh.push(CarryEntry {
                        offset: w32,
                        stuck0: s0,
                        stuck1: s1,
                        next0: n0,
                        next1: n1,
                        touch: 0,
                    });
                }
                for &w32 in index.class1.activated(tile, c1p, probs.c1) {
                    let w = u64::from(w32);
                    if !carry.words.contains(&w) {
                        continue;
                    }
                    if index.class0.by_word[w32 as usize] < probs.c0 {
                        continue;
                    }
                    let plan = *plans[tile].get_or_insert_with(|| self.tile_plan(sel, probs, true));
                    let (s0, s1, n0, n1) = self.coupled_word_sel(pc, w, probs, plan);
                    fresh.push(CarryEntry {
                        offset: w32,
                        stuck0: s0,
                        stuck1: s1,
                        next0: n0,
                        next1: n1,
                        touch: 0,
                    });
                }
            }
        } else {
            // Unindexed fallback: walk the range against the sorted carried
            // offsets, enumerating only non-carried words.
            let mut carried = carry.entries.iter().map(|e| u64::from(e.offset)).peekable();
            for w in carry.words.clone() {
                if carried.peek() == Some(&w) {
                    carried.next();
                    continue;
                }
                let tile = self.grid.tile_of(w);
                let probs = table.tiles[tile];
                if probs.c0 == 0.0 && probs.c1 == 0.0 {
                    continue;
                }
                let plan = *plans[tile].get_or_insert_with(|| self.tile_plan(sel, &probs, true));
                let (s0, s1, n0, n1) = self.coupled_word_sel(pc, w, &probs, plan);
                if !(s0.is_zero() && s1.is_zero()) {
                    fresh.push(CarryEntry {
                        offset: w as u32,
                        stuck0: s0,
                        stuck1: s1,
                        next0: n0,
                        next1: n1,
                        touch: 0,
                    });
                }
            }
        }
        stats.activated = fresh.len() as u64;
        if !fresh.is_empty() {
            carry.entries.extend(fresh);
            carry.entries.sort_unstable_by_key(|e| e.offset);
        }
        carry.voltage = supply;
        stats
    }

    /// The bit-granular advance: for each tile and class, drains the prefix
    /// of pending bits whose thresholds the new class probability crosses
    /// and sets exactly those bits in the carried masks. No bit is ever
    /// re-hashed — across a whole descent each `(word, bit)` is applied at
    /// most once, so the total advance work is proportional to the number
    /// of bit flips, not to `points × faulty words`.
    fn coupled_bit_advance(&self, carry: &mut PcSweepCarry, supply: Millivolts) -> CarryStats {
        let table = self.tile_table(carry.pc, supply);
        let start = carry.words.start;
        let before = carry.entries.len();
        let entries = &mut carry.entries;
        let pending = carry.pending.as_mut().expect("bit carry has pending state");
        pending.seq += 1;
        let seq = pending.seq;
        let mut refreshed = 0u64;
        for (tile, probs) in table.tiles.iter().enumerate() {
            drain_pending_class(
                &mut pending.class0[tile],
                probs.c0,
                true,
                start,
                seq,
                entries,
                &mut pending.entry_of,
                &mut refreshed,
            );
            drain_pending_class(
                &mut pending.class1[tile],
                probs.c1,
                false,
                start,
                seq,
                entries,
                &mut pending.entry_of,
                &mut refreshed,
            );
        }
        let activated = (entries.len() - before) as u64;
        if activated > 0 {
            entries.sort_unstable_by_key(|e| e.offset);
            for (i, entry) in entries.iter().enumerate() {
                pending.entry_of[(u64::from(entry.offset) - start) as usize] = i as u32;
            }
        }
        carry.voltage = supply;
        CarryStats {
            carried: before as u64 - refreshed,
            refreshed,
            activated,
        }
    }

    /// Backend-selected count-only coupled descent: entry `k` is the total
    /// faulty-bit count (both polarities) over `words` at `schedule[k]`.
    ///
    /// Each coupled bit owns one persistent threshold, so its contribution
    /// to the whole descent is the first knot whose class probability
    /// exceeds that threshold. One hash pass over the range drops every
    /// bit into a histogram of first faulty knots, and a prefix sum turns
    /// the histogram into the counts — no carried masks, no pending lists,
    /// no sort.
    ///
    /// The scalar arm compares [`unit_pair`] draws against the `f64` class
    /// probabilities; the bit-sliced arms compare the raw 32-bit halves
    /// against their [`unit_cutoff`] images through a [`KnotCuts`] index.
    /// The two are the same comparison, so every backend counts exactly
    /// what a carried descent does.
    ///
    /// # Panics
    ///
    /// Panics when `schedule` is not strictly descending, or when a
    /// tile's class probability shrinks along it.
    pub(crate) fn coupled_count_descent(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        schedule: &[Millivolts],
        sel: BackendSel,
    ) -> Vec<u64> {
        assert!(
            schedule.windows(2).all(|pair| pair[0] > pair[1]),
            "count_descent schedule must be strictly descending"
        );
        if words.is_empty() || schedule.is_empty() {
            return vec![0; schedule.len()];
        }
        assert!(
            words.end <= self.grid.words_per_pc,
            "word range end {} out of range for geometry ({} words/pc)",
            words.end,
            self.grid.words_per_pc
        );
        match sel {
            BackendSel::Scalar => {
                let s0_share = self.params.stuck0_share;
                self.knot_histogram(
                    pc,
                    words,
                    schedule,
                    |c0, c1| [c0, c1],
                    |rows, h| {
                        let (class_u, t) = unit_pair(h);
                        let row = if class_u < s0_share {
                            &rows[0]
                        } else {
                            &rows[1]
                        };
                        row.partition_point(|&c| c <= t)
                    },
                )
            }
            BackendSel::BitSliced(_) | BackendSel::Auto(_) => {
                let class_cut = unit_cutoff(self.params.stuck0_share);
                let cuts = |c: Vec<f64>| KnotCuts::new(c.into_iter().map(unit_cutoff).collect());
                self.knot_histogram(
                    pc,
                    words,
                    schedule,
                    |c0, c1| [cuts(c0), cuts(c1)],
                    |rows, h| {
                        rows[usize::from((h & 0xFFFF_FFFF) >= class_cut)].first_faulty(h >> 32)
                    },
                )
            }
        }
    }

    /// The hash pass of [`FaultInjector::coupled_count_descent`]. Per
    /// tile the range touches, `rows` turns the two classes' per-knot
    /// probabilities into the arm's lookup state; `first_faulty` maps a
    /// bit's hash to its first faulty knot, `schedule.len()` when the bit
    /// stays clean down to the lowest knot.
    fn knot_histogram<R>(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        schedule: &[Millivolts],
        rows: impl Fn(Vec<f64>, Vec<f64>) -> R,
        first_faulty: impl Fn(&R, u64) -> usize,
    ) -> Vec<u64> {
        let kn = schedule.len();
        let pcu = u64::from(pc.as_u8());
        let mut tiles: Vec<Option<R>> = (0..self.grid.tile_count).map(|_| None).collect();
        let mut hist = vec![0u64; kn + 1];
        for w in words {
            let tile = self.grid.tile_of(w);
            let lookup = tiles[tile].get_or_insert_with(|| {
                let (c0, c1): (Vec<f64>, Vec<f64>) = schedule
                    .iter()
                    .map(|&v| self.tile_class_probabilities(pc, tile, v))
                    .unzip();
                for class in [&c0, &c1] {
                    assert!(
                        class.windows(2).all(|pair| pair[0] <= pair[1]),
                        "class probability of {pc} tile {tile} shrinks along the descent"
                    );
                }
                rows(c0, c1)
            });
            let prefix = combine(&[self.seed, pcu, w, TAG_CBIT]);
            for bit in 0..u64::from(Word256::BITS) {
                hist[first_faulty(lookup, mix64(prefix ^ bit))] += 1;
            }
        }
        let mut total = 0;
        hist[..kn]
            .iter()
            .map(|&n| {
                total += n;
                total
            })
            .collect()
    }
}

/// One tile-and-class row of per-knot [`unit_cutoff`] images, non-decreasing
/// down a descending schedule, indexed by the top byte of a raw 32-bit key
/// so most keys find their first faulty knot with one table load.
#[derive(Debug)]
struct KnotCuts {
    cuts: Vec<u64>,
    /// Per key bucket `b` (keys `b << 24 ..= (b << 24) | 0xFF_FFFF`): the
    /// cuts at or below the bucket's smallest key, and those below its
    /// end. Only cuts between the two can split the bucket's keys.
    buckets: Vec<(u32, u32)>,
}

impl KnotCuts {
    fn new(cuts: Vec<u64>) -> Self {
        let (mut lo, mut hi) = (0, 0);
        let buckets = (0..256u64)
            .map(|b| {
                while lo < cuts.len() && cuts[lo] <= b << 24 {
                    lo += 1;
                }
                while hi < cuts.len() && cuts[hi] < (b + 1) << 24 {
                    hi += 1;
                }
                (lo as u32, hi as u32)
            })
            .collect();
        KnotCuts { cuts, buckets }
    }

    /// The number of cuts at or below `key`: the index of the first knot
    /// at which a bit with this raw key is faulty.
    fn first_faulty(&self, key: u64) -> usize {
        let (lo, hi) = self.buckets[(key >> 24) as usize];
        let (lo, hi) = (lo as usize, hi as usize);
        lo + self.cuts[lo..hi].partition_point(|&c| c <= key)
    }
}

/// Applies one tile-and-class pending prefix to the carried masks: every
/// bit whose threshold is below `c` becomes faulty now and is consumed
/// from the list (freeing the list entirely once the class saturates).
#[allow(clippy::too_many_arguments)]
fn drain_pending_class(
    pend: &mut PendingClass,
    c: f64,
    class0: bool,
    start: u64,
    seq: u32,
    entries: &mut Vec<CarryEntry>,
    entry_of: &mut [u32],
    refreshed: &mut u64,
) {
    while pend.cursor < pend.bits.len() {
        let (raw, packed) = pend.bits[pend.cursor];
        if threshold_from_raw(raw) >= c {
            break;
        }
        pend.cursor += 1;
        let slot = (packed >> 8) as usize;
        let bit = packed & 0xFF;
        let entry = if entry_of[slot] == u32::MAX {
            entry_of[slot] = entries.len() as u32;
            entries.push(CarryEntry {
                offset: (start + slot as u64) as u32,
                stuck0: Word256::ZERO,
                stuck1: Word256::ZERO,
                next0: f64::INFINITY,
                next1: f64::INFINITY,
                touch: seq,
            });
            entries.last_mut().expect("just pushed")
        } else {
            let entry = &mut entries[entry_of[slot] as usize];
            if entry.touch != seq {
                entry.touch = seq;
                *refreshed += 1;
            }
            entry
        };
        if class0 {
            entry.stuck0 = entry.stuck0.with_bit_set(bit);
        } else {
            entry.stuck1 = entry.stuck1.with_bit_set(bit);
        }
    }
    if pend.cursor == pend.bits.len() && !pend.bits.is_empty() {
        pend.bits = Vec::new();
        pend.cursor = 0;
    }
}

/// Orders a freshly built pending list by `(raw, packed)` with a stable
/// LSD radix sort on the 32-bit raw key, one byte per pass. The carry
/// start pushes every list in ascending `packed` order, so a sort that is
/// stable on `raw` yields exactly the lexicographic order `sort_unstable`
/// would. `scratch` is the ping-pong buffer, reused across lists; four
/// passes leave the result back in `bits`. Lists of fewer than two
/// entries — most of a carry start's lists are empty — return at once.
fn sort_pending(bits: &mut [(u32, u32)], scratch: &mut Vec<(u32, u32)>) {
    debug_assert!(
        bits.windows(2).all(|w| w[0].1 < w[1].1),
        "pending list not pushed in ascending packed order"
    );
    if bits.len() < 2 {
        return;
    }
    let mut counts = [[0usize; 256]; 4];
    for &(raw, _) in bits.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[((raw >> (8 * pass)) & 0xFF) as usize] += 1;
        }
    }
    scratch.clear();
    scratch.resize(bits.len(), (0, 0));
    let (mut src, mut dst) = (bits, scratch.as_mut_slice());
    for (pass, count) in counts.iter_mut().enumerate() {
        let mut next = 0;
        for slot in count.iter_mut() {
            let n = *slot;
            *slot = next;
            next += n;
        }
        for &entry in src.iter() {
            let digit = ((entry.0 >> (8 * pass)) & 0xFF) as usize;
            dst[count[digit]] = entry;
            count[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
}

/// `1 − (1 − p)^256` computed stably for tiny `p`.
fn p_any(p_bit: f64) -> f64 {
    if p_bit <= 0.0 {
        return 0.0;
    }
    if p_bit >= 1.0 {
        return 1.0;
    }
    // 1 − (1−p)^256 = −expm1(256·ln1p(−p)), stable for tiny p.
    (-(256.0 * f64::ln_1p(-p_bit)).exp_m1()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultFieldMode, FieldKernel, KernelBackend, MaskKernel};

    #[test]
    fn knot_cuts_count_the_cuts_at_or_below_every_key() {
        let edge = |b: u64| b << 24;
        let rows: [Vec<u64>; 4] = [
            vec![
                0,
                0,
                5,
                edge(1),
                edge(1) + 1,
                edge(2) - 1,
                edge(200),
                1 << 32,
            ],
            vec![edge(7); 5],
            vec![1 << 32; 3],
            vec![0; 2],
        ];
        for cuts in rows {
            let index = KnotCuts::new(cuts.clone());
            let mut keys = vec![0, 4, 5, 6, u64::from(u32::MAX)];
            for &c in &cuts {
                keys.extend([c.saturating_sub(1), c, c + 1]);
            }
            for b in [0, 1, 2, 7, 199, 200, 255] {
                keys.extend([edge(b), edge(b + 1) - 1]);
            }
            for key in keys.into_iter().filter(|&k| k <= u64::from(u32::MAX)) {
                let expect = cuts.iter().filter(|&&c| c <= key).count();
                assert_eq!(
                    index.first_faulty(key),
                    expect,
                    "key {key:#x} cuts {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn pending_radix_order_equals_comparison_sort() {
        let mut scratch = Vec::new();
        let lengths = [0, 1, 2, 3, 63, 64, 65, 5000];
        for (case, &len) in lengths.iter().enumerate() {
            // Full-range keys, keys confined to a few values (heavy
            // duplicates, equal upper bytes) and keys differing only in
            // their top byte; `packed` ascends with gaps, as pushed.
            for key_mask in [u32::MAX, 0x3, 0xFF00_0000] {
                let mut bits: Vec<(u32, u32)> = (0..len as u32)
                    .map(|i| {
                        let h = mix64((case as u64) << 32 | u64::from(i));
                        ((h as u32) & key_mask, i * 4 + (h >> 62) as u32)
                    })
                    .collect();
                let mut expect = bits.clone();
                expect.sort_unstable();
                sort_pending(&mut bits, &mut scratch);
                assert_eq!(bits, expect, "len {len}, key mask {key_mask:#x}");
            }
        }
    }

    fn injector() -> FaultInjector {
        FaultInjector::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128_reduced(),
            1234,
        )
    }

    fn pc(i: u8) -> PcIndex {
        PcIndex::new(i).unwrap()
    }

    /// The scalar per-voltage kernel, the oracle the other backends are
    /// compared against.
    fn per_voltage(inj: &FaultInjector) -> FieldKernel<'_> {
        inj.kernel(FaultFieldMode::PerVoltage, KernelBackend::Scalar)
    }

    /// The scalar coupled-field kernel.
    fn coupled(inj: &FaultInjector) -> FieldKernel<'_> {
        inj.kernel(FaultFieldMode::MonotoneCoupled, KernelBackend::Scalar)
    }

    #[test]
    fn p_any_matches_naive() {
        for p in [1e-12f64, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.999, 1.0] {
            let naive = 1.0 - (1.0 - p).powi(256);
            let fast = p_any(p);
            assert!((fast - naive).abs() < 1e-9, "p = {p}: {fast} vs {naive}");
        }
        assert_eq!(p_any(0.0), 0.0);
        // Tiny probabilities must not underflow to zero.
        assert!(p_any(1e-300) > 0.0);
    }

    #[test]
    fn guardband_is_fault_free() {
        let inj = injector();
        for v in [1200u32, 1100, 1000, 990, 980] {
            for w in 0..256 {
                let (s0, s1) = inj.stuck_masks(pc(5), WordOffset(w), Millivolts(v));
                assert!(s0.is_zero() && s1.is_zero(), "fault at {v} mV");
            }
        }
    }

    #[test]
    fn saturation_makes_everything_faulty() {
        let inj = injector();
        for w in 0..64 {
            let (s0, s1) = inj.stuck_masks(pc(0), WordOffset(w), Millivolts(820));
            assert_eq!((s0 | s1).count_ones(), 256, "word {w} not fully faulty");
            assert!((s0 & s1).is_zero());
        }
    }

    #[test]
    fn polarity_split_near_configured_share() {
        let inj = injector();
        let (n0, n1) = per_voltage(&inj).count_range(pc(0), 0..2048, Millivolts(820));
        let total = (n0 + n1) as f64;
        let share0 = n0 as f64 / total;
        assert!((share0 - 0.47).abs() < 0.02, "share0 = {share0}");
    }

    #[test]
    fn tile_cache_stats_count_hits_and_misses() {
        let inj = injector();
        assert_eq!(inj.tile_cache_stats(), (0, 0));
        // First lookup at a voltage builds the table, repeats hit it.
        let _ = inj.stuck_masks(pc(0), WordOffset(0), Millivolts(880));
        let _ = inj.stuck_masks(pc(0), WordOffset(1), Millivolts(880));
        let (hits, misses) = inj.tile_cache_stats();
        assert_eq!(misses, 1, "one build for the first (PC, voltage)");
        assert!(hits >= 1, "second word must be served from the cache");
        // A new voltage invalidates that PC's entry: another miss.
        let _ = inj.stuck_masks(pc(0), WordOffset(0), Millivolts(870));
        assert_eq!(inj.tile_cache_stats().1, 2);
        // Clones inherit the counters but diverge independently.
        let cloned = inj.clone();
        assert_eq!(cloned.tile_cache_stats(), inj.tile_cache_stats());
        let _ = cloned.stuck_masks(pc(0), WordOffset(0), Millivolts(870));
        assert_eq!(cloned.tile_cache_stats().0, inj.tile_cache_stats().0 + 1);
    }

    #[test]
    fn masks_are_deterministic() {
        let a = injector();
        let b = injector();
        for w in [0u64, 17, 4091] {
            assert_eq!(
                a.stuck_masks(pc(9), WordOffset(w), Millivolts(880)),
                b.stuck_masks(pc(9), WordOffset(w), Millivolts(880))
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = injector();
        let b = FaultInjector::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128_reduced(),
            4321,
        );
        let mut differs = false;
        for w in 0..512 {
            if a.stuck_masks(pc(0), WordOffset(w), Millivolts(850))
                != b.stuck_masks(pc(0), WordOffset(w), Millivolts(850))
            {
                differs = true;
                break;
            }
        }
        assert!(differs, "distinct specimens must have distinct fault maps");
    }

    #[test]
    fn fault_set_monotone_in_voltage() {
        let inj = injector();
        // Sweep down in 10 mV steps; the union mask may only grow.
        for w in 0..128u64 {
            let mut prev = Word256::ZERO;
            let mut v = Millivolts(980);
            while v >= Millivolts(820) {
                let (s0, s1) = inj.stuck_masks(pc(2), WordOffset(w), v);
                let union = s0 | s1;
                assert_eq!(union & prev, prev, "fault set shrank at {v} word {w}");
                prev = union;
                v = v.saturating_sub(Millivolts(10));
            }
        }
    }

    #[test]
    fn observe_applies_polarities() {
        let inj = injector();
        let v = Millivolts(830);
        let w = WordOffset(3);
        let (s0, s1) = inj.stuck_masks(pc(1), w, v);
        // All-ones written: stuck-at-0 bits flip to 0.
        let ones = inj.observe(Word256::ONES, pc(1), w, v);
        let (f10, f01) = ones.flips_from(Word256::ONES);
        assert_eq!(f10, s0.count_ones());
        assert_eq!(f01, 0);
        // All-zeros written: stuck-at-1 bits flip to 1.
        let zeros = inj.observe(Word256::ZERO, pc(1), w, v);
        let (f10, f01) = zeros.flips_from(Word256::ZERO);
        assert_eq!(f01, s1.count_ones());
        assert_eq!(f10, 0);
    }

    #[test]
    fn measured_rate_tracks_model_rate() {
        // At a mid-range voltage, the empirical rate over a decent sample
        // should approximate s0·c0 + s1·c1 averaged over variation.
        let inj = injector();
        let v = Millivolts(860);
        let words = 8192u64;
        let (n0, n1) = per_voltage(&inj).count_range(pc(7), 0..words, v);
        let measured = (n0 + n1) as f64 / (words as f64 * 256.0);

        // Average the analytic rate over the same words.
        let mut expected = 0.0;
        for w in 0..words {
            let (c0, c1) = inj.class_probabilities(pc(7), WordOffset(w), v);
            expected += 0.47 * c0 + 0.53 * c1;
        }
        expected /= words as f64;

        let ratio = measured / expected;
        assert!(
            (0.8..1.25).contains(&ratio),
            "measured {measured:.3e} vs expected {expected:.3e}"
        );
    }

    #[test]
    fn hotter_device_is_weaker() {
        let mut hot = injector();
        hot.set_temperature(Celsius(55.0));
        let cold = injector();
        let v = Millivolts(900);
        let (h0, h1) = per_voltage(&hot).count_range(pc(0), 0..4096, v);
        let (c0, c1) = per_voltage(&cold).count_range(pc(0), 0..4096, v);
        assert!(h0 + h1 >= c0 + c1, "hot {h0}+{h1} vs cold {c0}+{c1}");
    }

    #[test]
    fn conditional_threshold_monotone_in_c() {
        // c / p_any(s·c) must be increasing in c so fault sets are monotone.
        let s = 0.47;
        let mut last = 0.0;
        for i in 1..=10_000 {
            let c = f64::from(i) / 10_000.0;
            let ratio = c / p_any(s * c);
            assert!(ratio >= last, "non-monotone at c = {c}");
            last = ratio;
        }
    }

    #[test]
    fn cached_kernel_matches_reference_path() {
        let inj = injector();
        for v in [1000u32, 990, 979, 960, 930, 900, 870, 840, 820] {
            for w in [0u64, 1, 31, 32, 511, 512, 4095, 8191] {
                let v = Millivolts(v);
                let w = WordOffset(w);
                assert_eq!(
                    inj.stuck_masks(pc(6), w, v),
                    inj.stuck_masks_per_word_impl(pc(6), w, v),
                    "masks diverge at {v} {w}"
                );
                assert_eq!(
                    inj.class_probabilities(pc(6), w, v),
                    inj.class_probabilities_per_word(pc(6), w, v),
                    "probabilities diverge at {v} {w}"
                );
            }
        }
    }

    #[test]
    fn count_range_matches_per_word_walk() {
        let inj = injector();
        for v in [990u32, 940, 880, 830] {
            let v = Millivolts(v);
            let range = 100u64..2100;
            let mut n0 = 0u64;
            let mut n1 = 0u64;
            for w in range.clone() {
                let (s0, s1) = inj.stuck_masks_per_word_impl(pc(4), WordOffset(w), v);
                n0 += u64::from(s0.count_ones());
                n1 += u64::from(s1.count_ones());
            }
            assert_eq!(
                per_voltage(&inj).count_range(pc(4), range, v),
                (n0, n1),
                "at {v}"
            );
        }
    }

    #[test]
    fn temperature_change_invalidates_region_cache() {
        let mut inj = injector();
        let v = Millivolts(900);
        // Populate the tile cache at ambient …
        let cold = per_voltage(&inj).count_range(pc(0), 0..4096, v);
        // … then heat the device: cached tile probabilities must be rebuilt,
        // matching an injector that never cached at ambient.
        inj.set_temperature(Celsius(55.0));
        let mut fresh = injector();
        fresh.set_temperature(Celsius(55.0));
        assert_eq!(
            per_voltage(&inj).count_range(pc(0), 0..4096, v),
            per_voltage(&fresh).count_range(pc(0), 0..4096, v)
        );
        assert_ne!(
            per_voltage(&inj).count_range(pc(0), 0..4096, v),
            cold,
            "a 20 °C rise must change the fault count at 900 mV"
        );
        for w in 0..64 {
            assert_eq!(
                inj.stuck_masks(pc(0), WordOffset(w), v),
                inj.stuck_masks_per_word_impl(pc(0), WordOffset(w), v),
                "stale tile cache leaked after temperature change"
            );
        }
    }

    #[test]
    fn clones_invalidate_independently() {
        let mut original = injector();
        let v = Millivolts(900);
        let at_ambient = per_voltage(&original).count_range(pc(0), 0..512, v); // warm cache
        let clone = original.clone();
        original.set_temperature(Celsius(55.0));
        assert_eq!(
            per_voltage(&clone).count_range(pc(0), 0..512, v),
            at_ambient,
            "heating the original must not touch the clone's cache"
        );
    }

    #[test]
    fn faulty_words_sorted_and_matches_stream() {
        let inj = injector();
        let v = Millivolts(870);
        for field in [FaultFieldMode::PerVoltage, FaultFieldMode::MonotoneCoupled] {
            let kernel = inj.kernel(field, KernelBackend::Scalar);
            let bulk = kernel.faulty_words(pc(2), 0..4096, v);
            assert!(!bulk.is_empty());
            assert!(bulk.windows(2).all(|w| w[0].0 .0 < w[1].0 .0));
            let mut streamed = Vec::new();
            kernel.for_each_faulty_word(pc(2), 0..4096, v, &mut |o, s0, s1| {
                streamed.push((o, s0, s1));
            });
            streamed.sort_unstable_by_key(|&(offset, _, _)| offset.0);
            assert_eq!(bulk, streamed, "{field:?}");
        }
    }

    #[test]
    fn unindexed_geometry_uses_tile_cache_fallback() {
        // 131072 words/pc exceeds the gate-index cap, exercising the
        // per-word fallback over the tile cache.
        let geometry = HbmGeometry::vcu128().scaled(64);
        assert!(geometry.words_per_pc() > MAX_INDEXED_WORDS_PER_PC);
        let inj = FaultInjector::new(FaultModelParams::date21(), geometry, 77);
        for v in [990u32, 900, 850] {
            let v = Millivolts(v);
            let mut n0 = 0u64;
            let mut n1 = 0u64;
            for w in 0..2048 {
                let (s0, s1) = inj.stuck_masks_per_word_impl(pc(1), WordOffset(w), v);
                n0 += u64::from(s0.count_ones());
                n1 += u64::from(s1.count_ones());
            }
            assert_eq!(
                per_voltage(&inj).count_range(pc(1), 0..2048, v),
                (n0, n1),
                "at {v}"
            );
        }
    }

    #[test]
    fn coupled_guardband_is_fault_free() {
        let inj = injector();
        for v in [1200u32, 1000, 990, 980] {
            for w in 0..128 {
                let (s0, s1) = coupled(&inj).masks(pc(5), WordOffset(w), Millivolts(v));
                assert!(s0.is_zero() && s1.is_zero(), "coupled fault at {v} mV");
            }
        }
    }

    #[test]
    fn coupled_masks_disjoint_deterministic_and_saturating() {
        let inj = injector();
        for w in 0..64 {
            let v = Millivolts(820);
            let (s0, s1) = coupled(&inj).masks(pc(0), WordOffset(w), v);
            assert_eq!((s0 | s1).count_ones(), 256, "word {w} not fully faulty");
            assert!((s0 & s1).is_zero());
            assert_eq!(coupled(&inj).masks(pc(0), WordOffset(w), v), (s0, s1));
        }
        // The coupled field is a different specimen realization than the
        // legacy field at the same seed (distinct hash domains).
        let mid = Millivolts(870);
        let differs = (0..512).any(|w| {
            coupled(&inj).masks(pc(0), WordOffset(w), mid)
                != inj.stuck_masks(pc(0), WordOffset(w), mid)
        });
        assert!(differs, "coupled and legacy fields should not coincide");
    }

    #[test]
    fn coupled_fault_set_monotone_in_voltage() {
        let inj = injector();
        for w in 0..128u64 {
            let mut prev0 = Word256::ZERO;
            let mut prev1 = Word256::ZERO;
            let mut v = Millivolts(980);
            while v >= Millivolts(820) {
                let (s0, s1) = coupled(&inj).masks(pc(2), WordOffset(w), v);
                assert_eq!(s0 & prev0, prev0, "stuck-0 set shrank at {v} word {w}");
                assert_eq!(s1 & prev1, prev1, "stuck-1 set shrank at {v} word {w}");
                prev0 = s0;
                prev1 = s1;
                v = v.saturating_sub(Millivolts(10));
            }
        }
    }

    #[test]
    fn coupled_enumeration_matches_per_word_masks() {
        let inj = injector();
        for v in [990u32, 965, 940, 900, 870, 840] {
            let v = Millivolts(v);
            let range = 0u64..2048;
            let mut expected = Vec::new();
            for w in range.clone() {
                let (s0, s1) = coupled(&inj).masks(pc(6), WordOffset(w), v);
                if !(s0.is_zero() && s1.is_zero()) {
                    expected.push((WordOffset(w), s0, s1));
                }
            }
            let bulk = coupled(&inj).faulty_words(pc(6), range.clone(), v);
            assert_eq!(bulk, expected, "coupled enumeration diverges at {v}");
            let (n0, n1) = coupled(&inj).count_range(pc(6), range, v);
            let sum0: u64 = expected
                .iter()
                .map(|(_, s0, _)| u64::from(s0.count_ones()))
                .sum();
            let sum1: u64 = expected
                .iter()
                .map(|(_, _, s1)| u64::from(s1.count_ones()))
                .sum();
            assert_eq!((n0, n1), (sum0, sum1), "coupled counts diverge at {v}");
        }
    }

    #[test]
    fn coupled_rate_tracks_legacy_rate() {
        // Same marginal per-bit probability `s·c` in both fields: aggregate
        // counts over a decent sample must agree statistically.
        let inj = injector();
        let v = Millivolts(860);
        let (l0, l1) = per_voltage(&inj).count_range(pc(7), 0..8192, v);
        let (c0, c1) = coupled(&inj).count_range(pc(7), 0..8192, v);
        let legacy = (l0 + l1) as f64;
        let coupled = (c0 + c1) as f64;
        let ratio = coupled / legacy;
        assert!(
            (0.8..1.25).contains(&ratio),
            "coupled {coupled} vs legacy {legacy}"
        );
    }

    #[test]
    fn carry_advance_is_bit_identical_to_rescan() {
        let inj = injector();
        let range = 0u64..4096;
        let mut v = Millivolts(990);
        let (mut carry, start) = coupled(&inj).carry_start(pc(2), range.clone(), v);
        assert_eq!(carry.voltage(), v);
        assert_eq!(
            carry.masks(),
            coupled(&inj).faulty_words(pc(2), range.clone(), v)
        );
        let mut total = start;
        while v > Millivolts(820) {
            v = v.saturating_sub(Millivolts(10));
            let stats = coupled(&inj).carry_advance(&mut carry, v);
            total.absorb(stats);
            assert_eq!(carry.voltage(), v);
            assert_eq!(
                carry.masks(),
                coupled(&inj).faulty_words(pc(2), range.clone(), v),
                "carry diverged from rescan at {v}"
            );
        }
        assert!(total.carried > 0, "descent never reused a carried word");
        assert!(!carry.is_empty());
        // Below both saturation voltages every bit has flipped: a further
        // advance is pure reuse — nothing pending, nothing re-enumerated.
        let stats = coupled(&inj).carry_advance(&mut carry, Millivolts(815));
        assert_eq!(stats.carried, carry.len() as u64);
        assert_eq!(stats.delta_words(), 0);
        assert_eq!(stats.reuse_ratio(), 1.0);
    }

    #[test]
    fn word_tier_carry_advance_matches_rescan() {
        // A range above the bit-carry capacity exercises the word-granular
        // tier (per-word next-change thresholds, no pending bit lists).
        let inj = injector();
        let range = 0u64..8192;
        assert!(range.end - range.start > MAX_BIT_CARRY_WORDS);
        let (mut carry, _) = coupled(&inj).carry_start(pc(2), range.clone(), Millivolts(990));
        for v in [970u32, 940, 900, 870, 840, 820] {
            let v = Millivolts(v);
            coupled(&inj).carry_advance(&mut carry, v);
            assert_eq!(
                carry.masks(),
                coupled(&inj).faulty_words(pc(2), range.clone(), v),
                "word-tier carry diverged from rescan at {v}"
            );
        }
        // Saturated: the word tier's next-thresholds are all exhausted, so
        // a further advance is also pure reuse.
        let stats = coupled(&inj).carry_advance(&mut carry, Millivolts(815));
        assert_eq!(stats.carried, carry.len() as u64);
        assert_eq!(stats.delta_words(), 0);
    }

    #[test]
    fn carry_rebuilds_on_ascent_or_temperature_change() {
        let mut inj = injector();
        let range = 0u64..1024;
        let (mut carry, _) = coupled(&inj).carry_start(pc(4), range.clone(), Millivolts(880));
        // Ascending is not a descent: the carry is rebuilt, still exact.
        let stats = coupled(&inj).carry_advance(&mut carry, Millivolts(940));
        assert_eq!(stats.carried, 0);
        assert_eq!(
            carry.masks(),
            coupled(&inj).faulty_words(pc(4), range.clone(), Millivolts(940))
        );
        // A temperature change voids the carried probabilities.
        inj.set_temperature(Celsius(55.0));
        let stats = coupled(&inj).carry_advance(&mut carry, Millivolts(920));
        assert_eq!(stats.carried, 0);
        assert_eq!(
            carry.masks(),
            coupled(&inj).faulty_words(pc(4), range.clone(), Millivolts(920))
        );
        // Advancing to the same voltage is a carried no-op.
        let len = carry.len() as u64;
        let stats = coupled(&inj).carry_advance(&mut carry, Millivolts(920));
        assert_eq!(stats.carried, len);
        assert_eq!(stats.delta_words(), 0);
    }

    #[test]
    fn coupled_unindexed_geometry_falls_back() {
        let geometry = HbmGeometry::vcu128().scaled(64);
        assert!(geometry.words_per_pc() > MAX_INDEXED_WORDS_PER_PC);
        let inj = FaultInjector::new(FaultModelParams::date21(), geometry, 77);
        let range = 0u64..1024;
        for v in [940u32, 880] {
            let v = Millivolts(v);
            let mut expected = Vec::new();
            for w in range.clone() {
                let (s0, s1) = coupled(&inj).masks(pc(1), WordOffset(w), v);
                if !(s0.is_zero() && s1.is_zero()) {
                    expected.push((WordOffset(w), s0, s1));
                }
            }
            assert_eq!(
                coupled(&inj).faulty_words(pc(1), range.clone(), v),
                expected,
                "unindexed coupled enumeration diverges at {v}"
            );
        }
        // The carry advance agrees with rescans through the fallback.
        let (mut carry, _) = coupled(&inj).carry_start(pc(1), range.clone(), Millivolts(940));
        coupled(&inj).carry_advance(&mut carry, Millivolts(880));
        assert_eq!(
            carry.masks(),
            coupled(&inj).faulty_words(pc(1), range, Millivolts(880))
        );
        // A range above the bit-carry cap takes the word tier's unindexed
        // two-pointer fallback for newly activated words.
        let wide = 0u64..6000;
        assert!(wide.end - wide.start > MAX_BIT_CARRY_WORDS);
        let (mut carry, _) = coupled(&inj).carry_start(pc(1), wide.clone(), Millivolts(940));
        coupled(&inj).carry_advance(&mut carry, Millivolts(880));
        assert_eq!(
            carry.masks(),
            coupled(&inj).faulty_words(pc(1), wide, Millivolts(880))
        );
    }
}
