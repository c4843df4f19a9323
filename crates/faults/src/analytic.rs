//! Closed-form expected fault rates under the model.
//!
//! Fault *rates* are intensive quantities, so they can be evaluated
//! analytically at the full 8 GB geometry even though exhaustive bit-level
//! simulation at that scale is impractical. The predictor averages the
//! class-conditional curves over the variation structure (banks × row
//! regions) of each pseudo channel — exactly the expectation of what the
//! sampling injector produces.

use std::sync::OnceLock;

use hbm_device::{BankId, HbmGeometry, PcIndex, RowId, StackId};
use hbm_units::{Celsius, Millivolts, Ratio, Volts};
use serde::{Deserialize, Serialize};

use crate::params::FaultModelParams;
use crate::variation::ShiftTable;

/// Expected fault rates of one pseudo channel at one voltage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcRates {
    /// Expected fraction of bits observed flipped 1→0 under an all-ones
    /// pattern (stuck-at-0 bits).
    pub rate_1to0: Ratio,
    /// Expected fraction of bits observed flipped 0→1 under an all-zeros
    /// pattern (stuck-at-1 bits).
    pub rate_0to1: Ratio,
}

impl PcRates {
    /// The union rate: the fraction of bits faulty under either pattern.
    /// Classes are disjoint, so this is the plain sum (≤ 1 by construction).
    #[must_use]
    pub fn union(self) -> Ratio {
        Ratio(self.rate_1to0.as_f64() + self.rate_0to1.as_f64()).clamp_unit()
    }
}

/// Analytic rate evaluator for a `(params, geometry, seed)` specimen.
///
/// # Performance
///
/// A pseudo channel's rate is an average over its (bank, row-region)
/// cells, but the cells take few distinct shifts: one bank shift each,
/// plus a region shift that is weak, relieved or zero. The predictor
/// therefore keeps a lazy per-PC *shift index* — each bank's shift, its
/// distinct region shifts and every cell's position among them — built
/// by the first [`RatePredictor::pc_rates`] call for that PC. Later calls
/// evaluate the class probabilities once per distinct shift and add them
/// up in the original cell order, so a dense voltage grid costs one
/// variation hash pass per PC instead of one per voltage, with results
/// bit-identical to the per-cell loop.
///
/// The index depends only on the variation model, the seed and the
/// geometry, which are fixed at construction, so nothing invalidates it:
/// [`RatePredictor::set_temperature`] keeps it (temperature enters each
/// call through the common shift) and `Clone` carries it. Construction
/// only allocates the empty per-PC slots; no index is built until its PC
/// is queried.
///
/// # Examples
///
/// ```
/// use hbm_device::{HbmGeometry, PcIndex};
/// use hbm_faults::{FaultModelParams, RatePredictor};
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_device::DeviceError> {
/// let predictor = RatePredictor::new(FaultModelParams::date21(), HbmGeometry::vcu128(), 7);
/// let pc = PcIndex::new(0)?;
/// // Guardband: zero expected faults.
/// assert_eq!(predictor.pc_rates(pc, Millivolts(980)).union().as_f64(), 0.0);
/// // Total failure at 0.82 V.
/// assert!(predictor.pc_rates(pc, Millivolts(820)).union().as_f64() > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RatePredictor {
    params: FaultModelParams,
    geometry: HbmGeometry,
    seed: u64,
    temperature: Celsius,
    shift_table: ShiftTable,
    /// One lazily built [`BankShifts`] list per pseudo channel.
    shift_index: Vec<OnceLock<Vec<BankShifts>>>,
}

/// One bank's share of a pseudo channel's shift index.
#[derive(Debug, Clone)]
struct BankShifts {
    /// The bank's variation shift.
    bank: f64,
    /// The distinct region shifts of the bank, in first-seen order.
    regions: Vec<f64>,
    /// Each row region's position in `regions`, in region order.
    cells: Vec<u8>,
}

impl RatePredictor {
    /// Creates a predictor for a specimen.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: FaultModelParams, geometry: HbmGeometry, seed: u64) -> Self {
        params.validate();
        let shift_table = ShiftTable::new(&params.variation, seed, geometry);
        RatePredictor {
            params,
            geometry,
            seed,
            temperature: Celsius::STUDY_AMBIENT,
            shift_table,
            shift_index: (0..geometry.total_pcs()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &FaultModelParams {
        &self.params
    }

    /// The geometry rates are evaluated at.
    #[must_use]
    pub fn geometry(&self) -> HbmGeometry {
        self.geometry
    }

    /// The device seed of the specimen.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the operating temperature.
    pub fn set_temperature(&mut self, temperature: Celsius) {
        self.temperature = temperature;
    }

    /// Expected per-pattern fault rates of a pseudo channel at a supply
    /// voltage, averaged over the channel's banks and row regions.
    #[must_use]
    pub fn pc_rates(&self, pc: PcIndex, supply: Millivolts) -> PcRates {
        if supply >= self.params.landmarks.v_min {
            return PcRates {
                rate_1to0: Ratio::ZERO,
                rate_0to1: Ratio::ZERO,
            };
        }
        let v = supply.to_volts();
        let var = &self.params.variation;
        let common =
            self.shift_table.pc_shift_volts(pc) + var.temperature_shift_volts(self.temperature);

        let mut sum0 = 0.0;
        let mut sum1 = 0.0;
        let mut cells = 0u32;
        let mut probs = Vec::new();
        for bank in self.shift_index(pc) {
            probs.clear();
            probs.extend(bank.regions.iter().map(|&region| {
                self.params
                    .class_probabilities(v, Volts(common + bank.bank + region))
            }));
            for &k in &bank.cells {
                let (p0, p1) = probs[usize::from(k)];
                sum0 += p0;
                sum1 += p1;
            }
            cells += bank.cells.len() as u32;
        }
        let cells = f64::from(cells);
        PcRates {
            rate_1to0: Ratio(self.params.stuck0_share * sum0 / cells),
            rate_0to1: Ratio(self.params.stuck1_share() * sum1 / cells),
        }
    }

    /// The shift index of a pseudo channel, built on first use.
    fn shift_index(&self, pc: PcIndex) -> &[BankShifts] {
        self.shift_index[pc.as_usize()].get_or_init(|| {
            let var = &self.params.variation;
            let banks = self.geometry.banks_per_pc();
            let regions_per_bank = (self.geometry.rows_per_bank() / var.region_rows.max(1)).max(1);
            (0..banks)
                .map(|bank| {
                    let bank_id = BankId(bank);
                    let mut regions: Vec<f64> = Vec::new();
                    let cells = (0..regions_per_bank)
                        .map(|region| {
                            let row = RowId(region * var.region_rows.max(1));
                            let shift = var.region_shift_volts(self.seed, pc, bank_id, row);
                            let k = regions
                                .iter()
                                .position(|r| r.to_bits() == shift.to_bits())
                                .unwrap_or_else(|| {
                                    regions.push(shift);
                                    regions.len() - 1
                                });
                            u8::try_from(k).expect("a region shift takes at most three values")
                        })
                        .collect();
                    BankShifts {
                        bank: var.bank_shift_volts(self.seed, pc, bank_id),
                        regions,
                        cells,
                    }
                })
                .collect()
        })
    }

    /// Expected number of faulty bits in a pseudo channel (union of both
    /// polarities) at this predictor's geometry.
    #[must_use]
    pub fn expected_faulty_bits(&self, pc: PcIndex, supply: Millivolts) -> f64 {
        self.pc_rates(pc, supply).union().as_f64() * self.geometry.bits_per_pc() as f64
    }

    /// Mean union fault rate of one stack (average over its PCs).
    #[must_use]
    pub fn stack_rate(&self, stack: StackId, supply: Millivolts) -> Ratio {
        let pcs: Vec<PcIndex> = PcIndex::all(self.geometry)
            .filter(|pc| pc.stack(self.geometry) == stack)
            .collect();
        let sum: f64 = pcs
            .iter()
            .map(|&pc| self.pc_rates(pc, supply).union().as_f64())
            .sum();
        Ratio(sum / pcs.len() as f64)
    }

    /// Mean union fault rate of the whole device.
    #[must_use]
    pub fn device_rate(&self, supply: Millivolts) -> Ratio {
        let total = f64::from(self.geometry.total_pcs());
        let sum: f64 = PcIndex::all(self.geometry)
            .map(|pc| self.pc_rates(pc, supply).union().as_f64())
            .sum();
        Ratio(sum / total)
    }
}

#[cfg(test)]
impl RatePredictor {
    /// The per-cell reference loop [`RatePredictor::pc_rates`] must match
    /// bit for bit: every cell's shift hashed and both class probabilities
    /// evaluated per call.
    fn pc_rates_reference(&self, pc: PcIndex, supply: Millivolts) -> PcRates {
        if supply >= self.params.landmarks.v_min {
            return PcRates {
                rate_1to0: Ratio::ZERO,
                rate_0to1: Ratio::ZERO,
            };
        }
        let v = supply.to_volts();
        let var = &self.params.variation;
        let banks = u32::from(self.geometry.banks_per_pc());
        let regions_per_bank = (self.geometry.rows_per_bank() / var.region_rows.max(1)).max(1);

        let common =
            self.shift_table.pc_shift_volts(pc) + var.temperature_shift_volts(self.temperature);

        let mut sum0 = 0.0;
        let mut sum1 = 0.0;
        for bank in 0..banks {
            let bank_id = BankId(bank as u16);
            let bank_shift = var.bank_shift_volts(self.seed, pc, bank_id);
            for region in 0..regions_per_bank {
                let row = RowId(region * var.region_rows.max(1));
                let shift =
                    common + bank_shift + var.region_shift_volts(self.seed, pc, bank_id, row);
                sum0 += self
                    .params
                    .class_probability(&self.params.curve_stuck0, v, Volts(shift));
                sum1 += self
                    .params
                    .class_probability(&self.params.curve_stuck1, v, Volts(shift));
            }
        }
        let cells = f64::from(banks * regions_per_bank);
        PcRates {
            rate_1to0: Ratio(self.params.stuck0_share * sum0 / cells),
            rate_0to1: Ratio(self.params.stuck1_share() * sum1 / cells),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `pc_rates` equals the per-cell reference bit for bit on
    /// every PC from 1200 mV down to 810 mV in 10 mV steps.
    fn assert_matches_reference(p: &RatePredictor) {
        for pc in PcIndex::all(p.geometry()) {
            for mv in (810..=1200u32).rev().step_by(10) {
                let got = p.pc_rates(pc, Millivolts(mv));
                let want = p.pc_rates_reference(pc, Millivolts(mv));
                for (g, w) in [
                    (got.rate_1to0, want.rate_1to0),
                    (got.rate_0to1, want.rate_0to1),
                ] {
                    assert_eq!(
                        g.as_f64().to_bits(),
                        w.as_f64().to_bits(),
                        "{pc:?} at {mv} mV, {} °C",
                        p.temperature.as_f64()
                    );
                }
            }
        }
    }

    #[test]
    fn pc_rates_match_per_cell_reference_at_both_geometries() {
        for geometry in [HbmGeometry::vcu128(), HbmGeometry::vcu128_reduced()] {
            assert_matches_reference(&RatePredictor::new(FaultModelParams::date21(), geometry, 7));
        }
    }

    #[test]
    fn pc_rates_match_reference_after_temperature_change_and_on_clone() {
        let mut p = predictor();
        assert_matches_reference(&p);
        // The index is warm; a temperature change must still be honoured.
        p.set_temperature(Celsius(55.0));
        assert_matches_reference(&p);
        let clone = p.clone();
        assert_matches_reference(&clone);
        // A clone of a cold predictor builds its own index.
        assert_matches_reference(&predictor().clone());
    }

    fn predictor() -> RatePredictor {
        RatePredictor::new(FaultModelParams::date21(), HbmGeometry::vcu128(), 7)
    }

    fn pc(i: u8) -> PcIndex {
        PcIndex::new(i).unwrap()
    }

    #[test]
    fn guardband_rates_are_zero() {
        let p = predictor();
        for v in [1200u32, 1000, 980] {
            assert_eq!(p.device_rate(Millivolts(v)), Ratio::ZERO);
        }
    }

    #[test]
    fn rates_grow_monotonically_below_guardband() {
        let p = predictor();
        let mut last = -1.0;
        let mut v = Millivolts(970);
        while v >= Millivolts(820) {
            let rate = p.device_rate(v).as_f64();
            assert!(rate >= last, "rate shrank at {v}");
            last = rate;
            v = v.saturating_sub(Millivolts(10));
        }
    }

    #[test]
    fn total_failure_at_all_faulty_voltage() {
        let p = predictor();
        let rate = p.device_rate(Millivolts(830)).as_f64();
        assert!(rate > 0.99, "rate at 0.83 V = {rate}");
    }

    #[test]
    fn exponential_growth_region() {
        // Rate should grow by orders of magnitude across the unsafe region.
        let p = predictor();
        let high = p.device_rate(Millivolts(960)).as_f64();
        let low = p.device_rate(Millivolts(860)).as_f64();
        assert!(high > 0.0);
        assert!(low / high > 1e4, "growth {high:e} → {low:e}");
    }

    #[test]
    fn hbm1_is_weaker_than_hbm0() {
        let p = predictor();
        // Average the ratio over the mid unsafe region.
        let mut ratios = Vec::new();
        for mv in (850..=950).step_by(10) {
            let r0 = p.stack_rate(StackId(0), Millivolts(mv)).as_f64();
            let r1 = p.stack_rate(StackId(1), Millivolts(mv)).as_f64();
            if r0 > 0.0 {
                ratios.push(r1 / r0);
            }
        }
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 1.0, "HBM1 must be weaker on average, ratio {mean}");
    }

    #[test]
    fn sensitive_pcs_have_elevated_rates() {
        let p = predictor();
        let v = Millivolts(930);
        let normal: Vec<f64> = (0..32u8)
            .filter(|i| ![4, 5, 18, 19, 20].contains(i))
            .map(|i| p.pc_rates(pc(i), v).union().as_f64())
            .collect();
        let median_normal = {
            let mut s = normal.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        for i in [4u8, 5, 18, 19, 20] {
            let rate = p.pc_rates(pc(i), v).union().as_f64();
            assert!(
                rate > median_normal,
                "PC{i} rate {rate:e} vs median {median_normal:e}"
            );
        }
    }

    #[test]
    fn polarity_average_ratio_near_21_percent() {
        // The study: 0→1 flips on average 21 % more frequent than 1→0.
        let p = predictor();
        let mut sum10 = 0.0;
        let mut sum01 = 0.0;
        let mut v = Millivolts(970);
        while v >= Millivolts(850) {
            let r = p.pc_rates(pc(0), v);
            sum10 += r.rate_1to0.as_f64();
            sum01 += r.rate_0to1.as_f64();
            v = v.saturating_sub(Millivolts(10));
        }
        let ratio = sum01 / sum10;
        assert!(
            (1.05..1.45).contains(&ratio),
            "average 0→1 / 1→0 ratio = {ratio}, expected ≈1.21"
        );
    }

    #[test]
    fn first_flip_voltages_match_paper_at_full_scale() {
        // Expected device-wide faulty bits under each pattern.
        let p = predictor();
        let bits = HbmGeometry::vcu128().total_bits() as f64;
        let expected = |mv: u32, pattern_1to0: bool| -> f64 {
            let mut sum = 0.0;
            for i in 0..32 {
                let r = p.pc_rates(pc(i), Millivolts(mv));
                sum += if pattern_1to0 {
                    r.rate_1to0.as_f64()
                } else {
                    r.rate_0to1.as_f64()
                };
            }
            sum / 32.0 * bits
        };
        // 1→0: first flips at 0.97 V — expected count order of a few.
        let e10_970 = expected(970, true);
        assert!((0.3..60.0).contains(&e10_970), "1→0 at 0.97 V: {e10_970}");
        // 0→1: not yet detectable at 0.97 V relative to 1→0, detectable at 0.96 V.
        let e01_970 = expected(970, false);
        let e01_960 = expected(960, false);
        assert!(
            e01_970 < e10_970,
            "0→1 must onset later: {e01_970} vs {e10_970}"
        );
        assert!(e01_960 > 1.0, "0→1 detectable at 0.96 V: {e01_960}");
    }

    #[test]
    fn expected_faulty_bits_scale_with_geometry() {
        let full = predictor();
        let reduced =
            RatePredictor::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 7);
        let v = Millivolts(880);
        let f = full.expected_faulty_bits(pc(0), v);
        let r = reduced.expected_faulty_bits(pc(0), v);
        // Same seed, same per-PC/bank structure; 1024× fewer rows. Rates
        // differ slightly (region sampling), counts by roughly the scale.
        let ratio = f / r;
        assert!((200.0..5000.0).contains(&ratio), "count ratio {ratio}");
    }
}
