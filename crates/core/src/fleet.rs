//! Bridge between the fleet layer and the supervised platform stack.
//!
//! The fleet crate's built-in runner ([`hbm_fleet::characterize_device`])
//! counts each device with the count-only coupled kernel descent — no
//! DRAM arrays, no AXI traffic — which is what makes thousand-device
//! sweeps tractable. This module provides the *supervised* alternative:
//! the same per-device campaign assembled through [`SweepConfig`] and run
//! under the sweep supervisor, with the platform's crash latch standing in
//! for the kernel runner's crash-floor cutoff.
//!
//! The two paths are bit-identical: in cached-mask mode the engine's
//! per-port flip counts *are* popcounts of the injector's stuck-at masks
//! over the same word range, and both paths hand their count matrix to
//! the same [`DeviceRecord::assemble`]. The `supervised_matches_kernel`
//! test pins that equivalence, which is what entitles `hbmctl fleet` to
//! use the fast kernel runner while reporting supervisor-grade results.

use hbm_fleet::{DeviceRecord, DeviceSpec, FleetConfig, CRASHED_KNOT};
use hbm_traffic::DataPattern;

use crate::error::ExperimentError;
use crate::reliability::{ExecutionMode, TestScope, VoltagePoint};
use crate::sweep::VoltageSweep;
use crate::sweep_config::SweepConfig;
use hbm_faults::FaultFieldMode;

/// Assembles the per-device supervised campaign for `spec` under `cfg`.
///
/// # Errors
///
/// Propagates configuration errors from the sweep builder (for example a
/// knot grid whose span is not a step multiple).
pub fn supervised_sweep_config(
    cfg: &FleetConfig,
    spec: DeviceSpec,
) -> Result<SweepConfig, ExperimentError> {
    let knots = cfg.knots();
    let last = *knots.last().expect("validated knot grid is non-empty");
    let sweep = VoltageSweep::new(cfg.from, last, cfg.step)?;
    Ok(SweepConfig::quick()
        .seed(spec.seed)
        .workers(1)
        .v_crash(spec.crash_floor)
        .sweep(sweep)
        .batch_size(1)
        .patterns(vec![DataPattern::AllOnes, DataPattern::AllZeros])
        .scope(TestScope::EntireHbm)
        .words_per_pc(Some(cfg.words_per_pc))
        .sample_words(None)
        .mode(ExecutionMode::CachedMasks)
        .fault_field(FaultFieldMode::MonotoneCoupled)
        .carry_forward(true)
        .kernel(cfg.backend)
        .retries(0))
}

/// Characterizes one fleet device through the supervised platform stack.
///
/// # Errors
///
/// Propagates experiment errors from the supervised run.
///
/// # Panics
///
/// Panics when `cfg` uses a geometry other than the platform's (the
/// supervised stack builds the study's reduced VCU128 footprint).
pub fn supervised_device_record(
    cfg: &FleetConfig,
    spec: DeviceSpec,
) -> Result<DeviceRecord, ExperimentError> {
    assert_eq!(
        cfg.geometry,
        hbm_device::HbmGeometry::vcu128_reduced(),
        "the supervised fleet path runs on the platform's reduced geometry"
    );
    let report = supervised_sweep_config(cfg, spec)?.run()?;
    let knots = cfg.knots();
    let pcs = usize::from(cfg.geometry.total_pcs());
    let mut faults = vec![CRASHED_KNOT; pcs * knots.len()];

    for point in &report.points {
        let Some(k) = knots.iter().position(|&v| v == point.voltage) else {
            continue;
        };
        let Some(measured) = point.completed() else {
            continue;
        };
        if measured.crashed {
            continue;
        }
        for pc in 0..pcs {
            let count = union_flips(measured, pc as u8);
            faults[pc * knots.len() + k] =
                u16::try_from(count).expect("counts bounded by words*256 <= 65280");
        }
    }
    Ok(DeviceRecord::assemble(cfg, spec, faults))
}

/// Union fault-bit count of one pseudo channel at one completed point:
/// 1→0 flips under all-ones plus 0→1 flips under all-zeros — exactly the
/// popcounts of the two stuck-at mask polarities.
fn union_flips(point: &VoltagePoint, pc: u8) -> u64 {
    point
        .outcomes
        .iter()
        .map(|outcome| {
            let flips =
                outcome.per_port.iter().find(|(port, _)| *port == pc).map(
                    |(_, stats)| match outcome.pattern {
                        DataPattern::AllOnes => stats.flips_1to0,
                        DataPattern::AllZeros => stats.flips_0to1,
                        _ => 0,
                    },
                );
            flips.unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_units::Millivolts;

    fn bridge_cfg() -> FleetConfig {
        FleetConfig {
            devices: 3,
            workers: 1,
            words_per_pc: 16,
            from: Millivolts(1000),
            down_to: Millivolts(800),
            step: Millivolts(20),
            weak_reference: Millivolts(900),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn supervised_matches_kernel() {
        let cfg = bridge_cfg();
        for id in 0..cfg.devices {
            let spec = cfg.device_spec(id);
            let supervised = supervised_device_record(&cfg, spec).unwrap();
            let kernel = hbm_fleet::characterize_device(&cfg, spec);
            assert_eq!(supervised, kernel, "device {id} diverged across paths");
        }
    }

    #[test]
    fn supervised_fleet_runs_through_the_work_stealer() {
        let cfg = bridge_cfg();
        let supervised = hbm_fleet::sweep::run_with(&cfg, |cfg, spec| {
            supervised_device_record(cfg, spec).expect("supervised characterization")
        })
        .unwrap();
        let kernel = hbm_fleet::sweep::run(&cfg).unwrap();
        assert_eq!(supervised.records, kernel.records);
    }
}
