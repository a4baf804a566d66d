//! Partially coherent projection optics: source discretisation and SOCS
//! kernel synthesis.
//!
//! The ICCAD-13 contest distributes its Hopkins optical kernels as opaque
//! binary data; this reproduction synthesises an equivalent kernel stack
//! from first principles instead (see DESIGN.md, substitution 1). The source
//! is an annular partially coherent illuminator discretised into point
//! sources (Abbe's method). Each source point `s` contributes the coherent
//! kernel
//!
//! ```text
//! H_s(f) = P(f + f_s) · exp(−iπλz·|f + f_s|²)
//! ```
//!
//! where `P` is the circular pupil of cutoff `NA/λ` and `z` the defocus.
//! The aerial image is then exactly the Hopkins/SOCS form of Eq. (1):
//! `I = Σ_s w_s · |M ⊗ h_s|²`, evaluated in the frequency domain.

use crate::fft::{is_five_smooth, Complex, Field};
use crate::scalar::Scalar;
use crate::LithoError;

/// Physical configuration of the projection system.
///
/// Defaults approximate a 193 nm immersion scanner with annular
/// illumination — the regime of the paper's testcases.
#[derive(Clone, Debug, PartialEq)]
pub struct OpticsConfig {
    /// Exposure wavelength λ in nanometres.
    pub wavelength: f64,
    /// Numerical aperture of the projection lens.
    pub na: f64,
    /// Inner radius of the annular source, as a fraction of `NA/λ`.
    pub sigma_inner: f64,
    /// Outer radius of the annular source, as a fraction of `NA/λ`.
    pub sigma_outer: f64,
    /// Number of radial rings in the source discretisation.
    pub source_rings: usize,
    /// Number of azimuthal points per ring.
    pub points_per_ring: usize,
    /// Defocus distance `z` in nanometres used by the defocus process
    /// corner.
    pub defocus: f64,
}

impl Default for OpticsConfig {
    fn default() -> Self {
        OpticsConfig {
            wavelength: 193.0,
            na: 1.35,
            sigma_inner: 0.5,
            sigma_outer: 0.8,
            source_rings: 2,
            points_per_ring: 8,
            defocus: 60.0,
        }
    }
}

impl OpticsConfig {
    /// Pupil cutoff frequency `NA/λ` in cycles per nanometre.
    #[inline]
    pub fn cutoff(&self) -> f64 {
        self.na / self.wavelength
    }

    /// Validates physical sanity of the parameters.
    ///
    /// # Errors
    ///
    /// [`LithoError::InvalidOptics`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), LithoError> {
        if !(self.wavelength > 0.0 && self.wavelength.is_finite()) {
            return Err(LithoError::InvalidOptics("wavelength must be positive"));
        }
        if !(self.na > 0.0 && self.na.is_finite()) {
            return Err(LithoError::InvalidOptics(
                "numerical aperture must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.sigma_inner)
            || !(0.0..=1.0).contains(&self.sigma_outer)
            || self.sigma_inner > self.sigma_outer
        {
            return Err(LithoError::InvalidOptics(
                "source sigmas must satisfy 0 <= inner <= outer <= 1",
            ));
        }
        if self.source_rings == 0 || self.points_per_ring == 0 {
            return Err(LithoError::InvalidOptics(
                "source discretisation needs at least one ring and one point",
            ));
        }
        if !self.defocus.is_finite() {
            return Err(LithoError::InvalidOptics("defocus must be finite"));
        }
        Ok(())
    }

    /// Discretised source points in frequency space (cycles/nm), with equal
    /// weights summing to one.
    pub fn source_points(&self) -> Vec<(f64, f64, f64)> {
        let fc = self.cutoff();
        let mut pts = Vec::new();
        for ring in 0..self.source_rings {
            // Ring radii spread across the annulus (midpoint rule).
            let frac = (ring as f64 + 0.5) / self.source_rings as f64;
            let sigma = self.sigma_inner + (self.sigma_outer - self.sigma_inner) * frac;
            for k in 0..self.points_per_ring {
                // Stagger alternate rings for better angular coverage.
                let theta = std::f64::consts::TAU * (k as f64 + 0.5 * (ring % 2) as f64)
                    / self.points_per_ring as f64;
                pts.push((sigma * fc * theta.cos(), sigma * fc * theta.sin(), 0.0));
            }
        }
        let w = 1.0 / pts.len() as f64;
        pts.into_iter().map(|(x, y, _)| (x, y, w)).collect()
    }
}

/// One SOCS kernel: a weight and its frequency-domain transfer function.
///
/// Kernels are always *synthesised* in `f64` ([`build_kernels`]); the
/// single-precision backend narrows a finished stack once per engine via
/// [`SocsKernel::to_precision`]. The weight stays `f64` — it is folded into
/// accumulation weights in the reference domain and narrowed at the point
/// of use.
#[derive(Clone, Debug)]
pub struct SocsKernel<T: Scalar = f64> {
    /// Hopkins weight `w_k`.
    pub weight: f64,
    /// Frequency-domain transfer function on the simulation grid.
    pub transfer: Field<T>,
    /// Per-row support mask: `live_rows[y]` is `true` when row `y` of
    /// `transfer` has any nonzero sample. The pupil is band-limited, so on
    /// production grids most rows are dead and the convolution hot loop
    /// skips both their pointwise products and their inverse row
    /// transforms (see [`crate::fft::Field::ifft2_pruned_unscaled`]).
    pub live_rows: Vec<bool>,
}

impl<T: Scalar> SocsKernel<T> {
    /// Builds a kernel from a weight and transfer function, computing the
    /// row support mask.
    pub fn new(weight: f64, transfer: Field<T>) -> SocsKernel<T> {
        let width = transfer.width();
        let live_rows = transfer
            .re()
            .chunks_exact(width)
            .zip(transfer.im().chunks_exact(width))
            .map(|(re, im)| re.iter().any(|&v| v != T::ZERO) || im.iter().any(|&v| v != T::ZERO))
            .collect();
        SocsKernel {
            weight,
            transfer,
            live_rows,
        }
    }

    /// Converts the kernel to another simulation precision. The row support
    /// mask carries over unchanged: narrowing maps zeros to zeros, and any
    /// sample small enough to flush to a subnormal-zero still lies on a row
    /// the mask already marks live (harmless — the row transforms run, they
    /// just produce zeros).
    pub fn to_precision<U: Scalar>(&self) -> SocsKernel<U> {
        SocsKernel {
            weight: self.weight,
            transfer: self.transfer.to_precision(),
            live_rows: self.live_rows.clone(),
        }
    }
}

/// Builds the SOCS kernel stack for a simulation grid.
///
/// `width`/`height` are the grid dimensions in pixels (both 5-smooth, the
/// lengths the FFT runs on — see [`crate::next_five_smooth`]), `pitch` the
/// pixel size in nanometres, `defocus` the defocus distance in nanometres
/// (0 for the nominal-focus stack).
///
/// Zero-defocus stacks fold antipodal source-point pairs into single
/// kernels with doubled weights (the transfers are real, so the paired
/// intensities are equal for any real mask) — on the default annular
/// source this halves the nominal stack from 16 to 8 kernels without
/// changing the aerial image.
///
/// # Errors
///
/// Propagates [`OpticsConfig::validate`] failures; a side that is not
/// 5-smooth (including 0) is [`LithoError::GridNotFiveSmooth`].
pub fn build_kernels(
    config: &OpticsConfig,
    width: usize,
    height: usize,
    pitch: f64,
    defocus: f64,
) -> Result<Vec<SocsKernel>, LithoError> {
    config.validate()?;
    if !(is_five_smooth(width) && is_five_smooth(height)) {
        return Err(LithoError::GridNotFiveSmooth { width, height });
    }
    if !(pitch > 0.0 && pitch.is_finite()) {
        return Err(LithoError::InvalidOptics("pitch must be positive"));
    }

    let fc = config.cutoff();
    let lambda = config.wavelength;

    // Hermitian fold, zero-defocus stacks only. At nominal focus the
    // transfer is the real-valued pupil indicator, and for a *real* mask
    // the coherent amplitude at source point `−s` is the pointwise complex
    // conjugate of the amplitude at `+s` (the transfer at `−s` is the
    // `f → −f` reflection of the one at `+s`, and the mask spectrum is
    // Hermitian), so `|A_{−s}|² == |A_s|²` — identically in the mask, which
    // also keeps ILT gradients exact. Each azimuthal ring places points at
    // equal angular steps, so with an even point count every source point's
    // antipode is also a source point: folding each pair into one kernel
    // with doubled weight halves the SOCS stack. The fold is skipped when
    // the shifted pupil could reach the Nyquist row/column, whose frequency
    // does not negate under the grid's `f → −f` index reflection.
    let fold = defocus == 0.0
        && config.points_per_ring.is_multiple_of(2)
        && 0.5 / pitch > fc * (1.0 + config.sigma_outer);
    let half_ring = config.points_per_ring / 2;
    let mut kernels = Vec::new();

    for (index, (fsx, fsy, weight)) in config.source_points().into_iter().enumerate() {
        let weight = if fold {
            if index % config.points_per_ring >= half_ring {
                // Covered by its antipodal partner's doubled weight.
                continue;
            }
            2.0 * weight
        } else {
            weight
        };
        let mut transfer: Field = Field::zeros(width, height);
        for ky in 0..height {
            // FFT frequency layout: wrap the upper half to negatives.
            let fy_idx = if ky <= height / 2 {
                ky as f64
            } else {
                ky as f64 - height as f64
            };
            let fy = fy_idx / (height as f64 * pitch);
            for kx in 0..width {
                let fx_idx = if kx <= width / 2 {
                    kx as f64
                } else {
                    kx as f64 - width as f64
                };
                let fx = fx_idx / (width as f64 * pitch);
                let gx = fx + fsx;
                let gy = fy + fsy;
                let g2 = gx * gx + gy * gy;
                if g2 <= fc * fc {
                    // Paraxial defocus aberration phase.
                    let phase = -std::f64::consts::PI * lambda * defocus * g2;
                    transfer.set(kx, ky, Complex::from_angle(phase));
                }
            }
        }
        kernels.push(SocsKernel::new(weight, transfer));
    }
    Ok(kernels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(OpticsConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = [
            OpticsConfig {
                wavelength: -1.0,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                na: 0.0,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                sigma_inner: 0.9,
                sigma_outer: 0.5,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                source_rings: 0,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                defocus: f64::NAN,
                ..OpticsConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn source_weights_sum_to_one() {
        let pts = OpticsConfig::default().source_points();
        assert_eq!(pts.len(), 16);
        let total: f64 = pts.iter().map(|&(_, _, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn source_points_inside_annulus() {
        let cfg = OpticsConfig::default();
        let fc = cfg.cutoff();
        for (x, y, _) in cfg.source_points() {
            let r = (x * x + y * y).sqrt() / fc;
            assert!(r >= cfg.sigma_inner - 1e-12 && r <= cfg.sigma_outer + 1e-12);
        }
    }

    #[test]
    fn kernels_pass_dc_and_block_high_frequencies() {
        let cfg = OpticsConfig::default();
        let ks = build_kernels(&cfg, 64, 64, 4.0, 0.0).unwrap();
        // 16 source points, Hermitian-folded into 8 nominal kernels.
        assert_eq!(ks.len(), 8);
        for k in &ks {
            // DC term passes (source points lie inside the pupil).
            assert!((k.transfer.at(0, 0).norm() - 1.0).abs() < 1e-12);
            // The Nyquist corner is far beyond cutoff for 4 nm pitch:
            // f_nyq = 1/8 = 0.125 cycles/nm >> fc ≈ 0.007.
            assert_eq!(k.transfer.at(32, 32).norm(), 0.0);
        }
    }

    #[test]
    fn defocus_changes_phase_not_magnitude() {
        let cfg = OpticsConfig::default();
        let nominal = build_kernels(&cfg, 32, 32, 8.0, 0.0).unwrap();
        let defocused = build_kernels(&cfg, 32, 32, 8.0, 80.0).unwrap();
        // The nominal stack is Hermitian-folded (first half of each ring);
        // pair each folded kernel with the defocused kernel for the same
        // source point.
        assert_eq!(nominal.len(), 8);
        assert_eq!(defocused.len(), 16);
        let half = cfg.points_per_ring / 2;
        for (i, a) in nominal.iter().enumerate() {
            let source_index = (i / half) * cfg.points_per_ring + i % half;
            let b = &defocused[source_index];
            let mut phase_differs = false;
            for (za, zb) in a.transfer.iter().zip(b.transfer.iter()) {
                assert!((za.norm() - zb.norm()).abs() < 1e-12);
                if (za.im - zb.im).abs() > 1e-9 {
                    phase_differs = true;
                }
            }
            assert!(phase_differs, "defocus should modify kernel phase");
        }
    }

    #[test]
    fn hermitian_fold_preserves_intensity() {
        // The folded nominal stack must reproduce the unfolded sum: for a
        // real mask, the kernel at `−s` (the `f → −f` reflection of the
        // kernel at `+s`) contributes exactly the intensity of its partner.
        let cfg = OpticsConfig::default();
        let (w, h, pitch) = (32usize, 32usize, 8.0);
        let folded = build_kernels(&cfg, w, h, pitch, 0.0).unwrap();
        assert_eq!(folded.len(), 8);

        let mut rng = cardopc_geometry::SplitMix64::new(314);
        let mask: Vec<f64> = (0..w * h).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let mut spectrum: Field = Field::from_real(w, h, &mask);
        spectrum.fft2_inplace(false);

        let intensity = |transfer: &Field, weight: f64| {
            let mut f = spectrum.mul_pointwise(transfer);
            f.fft2_inplace(true);
            f.iter().map(|z| weight * z.norm_sq()).collect::<Vec<f64>>()
        };

        for k in &folded {
            // Reconstruct the dropped partner by index reflection f → −f.
            let mut mirror: Field = Field::zeros(w, h);
            for ky in 0..h {
                for kx in 0..w {
                    let mx = (w - kx) % w;
                    let my = (h - ky) % h;
                    mirror.set(kx, ky, k.transfer.at(mx, my));
                }
            }
            let a = intensity(&k.transfer, 0.5 * k.weight);
            let b = intensity(&mirror, 0.5 * k.weight);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    (x - y).abs() < 1e-12 * (1.0 + x.abs()),
                    "pixel {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn empty_grid_rejected() {
        let cfg = OpticsConfig::default();
        assert!(matches!(
            build_kernels(&cfg, 0, 64, 1.0, 0.0),
            Err(LithoError::GridNotFiveSmooth { .. })
        ));
    }

    #[test]
    fn non_power_of_two_grid_accepted() {
        // 100 = 2²·5² is 5-smooth; the kernel stack builds and the DC term
        // passes exactly as on pow2 grids.
        let cfg = OpticsConfig::default();
        let ks = build_kernels(&cfg, 100, 60, 4.0, 0.0).unwrap();
        assert_eq!(ks.len(), 8);
        for k in &ks {
            assert!((k.transfer.at(0, 0).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bad_pitch_rejected() {
        let cfg = OpticsConfig::default();
        assert!(build_kernels(&cfg, 64, 64, 0.0, 0.0).is_err());
    }
}
