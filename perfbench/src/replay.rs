//! `CardOpc::optimize_with_engine`, replayed step by step through the
//! public API with a span around each step: initialise, sample the
//! splines, composite the raster, simulate, correct, resolve MRC. The
//! replay must reproduce the program's shapes bit for bit; callers check
//! that against the program's own output.

use crate::trace::{Ctx, Tracer};
use cardopc_geometry::{Point, Polygon};
use cardopc_layout::Clip;
use cardopc_litho::{LithoEngine, RasterCache};
use cardopc_mrc::{AreaPolicy, MrcResolver, ResolveConfig};
use cardopc_opc::{
    correct_shapes_recording, relax_shape, CardOpc, CorrectionStep, OpcError, OpcShape,
};
use cardopc_spline::SamplingPlan;

/// What the replayed loop produced.
pub struct Replayed {
    pub shapes: Vec<OpcShape>,
    pub epe_history: Vec<f64>,
    pub mrc_initial: usize,
    pub mrc_remaining: usize,
}

/// Builds an engine for a window, traced.
pub fn engine(
    tr: &Tracer,
    ctx: Ctx,
    width: f64,
    height: f64,
    config: &cardopc_opc::OpcConfig,
) -> Result<LithoEngine, OpcError> {
    tr.count("litho.engine_builds", 1.0);
    tr.span("litho.engine_build", ctx, |_| {
        cardopc_opc::engine_for_extent_at(width, height, config.pitch, config.precision)
    })
}

/// Counts one aerial-image call: pixels produced and the FFT work, the
/// latter *computed* from the grid size (5·N·log2 N per complex 2-D
/// transform: one forward mask transform plus one inverse per nominal
/// kernel, the inverses scaled by the share of columns kept).
fn count_aerial(tr: &Tracer, engine: &LithoEngine, cols: Option<usize>) {
    let (w, h) = (engine.width() as f64, engine.height() as f64);
    let n = w * h;
    let kept = cols.map_or(1.0, |c| c as f64 / w);
    let kernels = engine.nominal_kernels().len() as f64;
    tr.count("litho.aerial_calls", 1.0);
    tr.count("litho.aerial_pixels", h * cols.map_or(w, |c| c as f64));
    tr.count(
        "litho.fft_flops",
        5.0 * n * n.log2() * (1.0 + kernels * kept),
    );
}

/// Replays `flow.optimize_with_engine(clip, engine)`.
pub fn optimize(
    tr: &Tracer,
    ctx: Ctx,
    flow: &CardOpc,
    clip: &Clip,
    engine: &LithoEngine,
) -> Result<Replayed, OpcError> {
    let config = flow.config();
    let mut shapes = tr.span("opc.init", ctx, |_| flow.initialize(clip))?;
    let mut epe_history = Vec::with_capacity(config.iterations);
    let mut step_limit = config.move_step;

    let per = config.samples_per_segment;
    let plan = SamplingPlan::get(per, config.tension);
    let mut cache = tr.span("litho.raster", ctx, |_| {
        let sraf_polys: Vec<Polygon> = shapes
            .iter()
            .filter(|s| s.is_sraf)
            .map(|s| s.spline.to_polygon(per))
            .collect();
        let mut cache = RasterCache::new(engine.width(), engine.height(), engine.pitch());
        cache.set_base(&sraf_polys);
        cache
    });
    let roi = tr.span("opc.init", ctx, |_| {
        roi_columns(&shapes, engine, config.epe_search)
    });
    let mut main_polys: Vec<Polygon> = Vec::new();
    let mut samples: Vec<Point> = Vec::new();
    let mut per_shape = Vec::new();

    for iter in 0..config.iterations {
        tr.count("opc.iterations", 1.0);
        if iter == config.decay_at {
            step_limit *= config.decay_factor;
        }
        if config.relax_every > 0 && iter > 0 && iter % config.relax_every == 0 {
            tr.span("opc.correct", ctx, |_| {
                for shape in shapes.iter_mut().filter(|s| !s.is_sraf) {
                    relax_shape(shape, config.relax_strength);
                }
            });
        }
        tr.span("spline.sample", ctx, |_| {
            for (i, shape) in shapes.iter().filter(|s| !s.is_sraf).enumerate() {
                shape.spline.sample_into(&plan, &mut samples);
                match main_polys.get_mut(i) {
                    Some(poly) if poly.len() == samples.len() => {
                        poly.vertices_mut().copy_from_slice(&samples);
                    }
                    Some(poly) => *poly = Polygon::new(samples.clone()),
                    None => main_polys.push(Polygon::new(samples.clone())),
                }
            }
        });
        let mask = tr.span("litho.raster", ctx, |_| cache.composite(&main_polys));
        count_aerial(tr, engine, roi.as_ref().map(Vec::len));
        let aerial = tr.span("litho.aerial", ctx, |_| match &roi {
            Some(cols) => engine.aerial_image_cols(mask, cols),
            None => engine.aerial_image(mask),
        })?;
        let total = tr.span("opc.correct", ctx, |_| {
            correct_shapes_recording(
                &mut shapes,
                &aerial,
                engine.threshold(),
                &CorrectionStep {
                    step_limit,
                    smooth_window: config.smooth_window,
                    epe_search: config.epe_search,
                    spline_normals: config.spline_normals,
                },
                &mut per_shape,
            )
        });
        epe_history.push(total);
    }

    let (mrc_initial, mrc_remaining) = match config.mrc {
        Some(rules) => tr.span("mrc.resolve", ctx, |_| {
            let mut splines: Vec<_> = shapes.iter().map(|s| s.spline.clone()).collect();
            let resolver = MrcResolver::new(
                rules,
                ResolveConfig {
                    area_policy: AreaPolicy::Keep,
                    samples_per_segment: config.samples_per_segment,
                    ..ResolveConfig::default()
                },
            );
            let report = resolver.resolve(&mut splines);
            for (shape, spline) in shapes.iter_mut().zip(splines) {
                shape.spline = spline;
            }
            tr.count("mrc.initial_violations", report.initial_violations as f64);
            tr.count("mrc.moves_applied", report.moves_applied as f64);
            tr.count("mrc.rounds", report.rounds as f64);
            (report.initial_violations, report.remaining.len())
        }),
        None => (0, 0),
    };

    Ok(Replayed {
        shapes,
        epe_history,
        mrc_initial,
        mrc_remaining,
    })
}

/// The pixel columns the EPE feedback can read, as the flow computes
/// them: every main anchor's x-extent widened by `epe_search + 2·pitch`,
/// or `None` when that covers nearly the whole grid.
fn roi_columns(shapes: &[OpcShape], engine: &LithoEngine, epe_search: f64) -> Option<Vec<usize>> {
    let width = engine.width();
    let pitch = engine.pitch();
    if width == 0 {
        return None;
    }
    let margin = epe_search + 2.0 * pitch;
    let mut needed = vec![false; width];
    for shape in shapes.iter().filter(|s| !s.is_sraf) {
        for anchor in &shape.anchors {
            let lo = ((anchor.position.x - margin) / pitch - 0.5)
                .floor()
                .max(0.0) as usize;
            let hi = (((anchor.position.x + margin) / pitch - 0.5).floor() + 1.0).max(0.0) as usize;
            for flag in &mut needed[lo.min(width - 1)..=hi.min(width - 1)] {
                *flag = true;
            }
        }
    }
    let cols: Vec<usize> = (0..width).filter(|&c| needed[c]).collect();
    if cols.len() * 10 >= width * 9 {
        None
    } else {
        Some(cols)
    }
}

/// Bitwise equality of two control-point lists.
pub fn same_points(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

/// Bitwise equality of two float lists.
pub fn same_floats(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
