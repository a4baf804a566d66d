//! Chip-scale quality, scored by the benchmark itself: the stitched mask
//! is re-simulated once over the whole crop, EPE is taken at every target
//! and PVB over the whole window, and MRC runs over the stitched splines
//! with every shape counted once.
//!
//! The simulation window is the crop padded by the tiling halo on every
//! side, as the runtime pads its edge tiles, so the periodic FFT does not
//! wrap one edge of the crop onto the other.

use cardopc_geometry::Point;
use cardopc_layout::Clip;
use cardopc_mrc::MrcChecker;
use cardopc_opc::{evaluate_mask, OpcConfig};
use cardopc_runtime::Stitched;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    pub epe_violations: usize,
    pub epe_sum_nm: f64,
    pub pvb_nm2: f64,
    pub mrc_violations: usize,
}

impl Quality {
    pub fn push(&self, report: &mut crate::Report) {
        report.push("epe_violations", self.epe_violations as f64, "count");
        report.push("epe_sum_nm", self.epe_sum_nm, "nm");
        report.push("pvb_nm2", self.pvb_nm2, "nm2");
        report.push("mrc_violations", self.mrc_violations as f64, "count");
    }
}

pub fn score(
    clip: &Clip,
    stitched: &Stitched,
    config: &OpcConfig,
    halo: f64,
) -> Result<Quality, String> {
    let splines = stitched.splines();
    let pad = Point::new(halo, halo);
    let polys: Vec<_> = splines
        .iter()
        .map(|s| s.to_polygon(config.samples_per_segment).translated(pad))
        .collect();
    let targets: Vec<_> = clip.targets().iter().map(|t| t.translated(pad)).collect();
    let engine = cardopc_opc::engine_for_extent_at(
        clip.width() + 2.0 * halo,
        clip.height() + 2.0 * halo,
        config.pitch,
        config.precision,
    )
    .map_err(|e| e.to_string())?;
    let eval = evaluate_mask(
        &engine,
        &polys,
        &targets,
        config.convention,
        config.dose_delta,
        config.epe_search,
    )
    .map_err(|e| e.to_string())?;
    let mrc_violations = match config.mrc {
        Some(rules) => MrcChecker::with_sampling(rules, config.samples_per_segment)
            .check(&splines)
            .len(),
        None => 0,
    };
    Ok(Quality {
        epe_violations: eval.epe_violations,
        epe_sum_nm: eval.epe_sum_nm,
        pvb_nm2: eval.pvb_nm2,
        mrc_violations,
    })
}
