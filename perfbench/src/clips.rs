//! The `paper_clips` workload: a seeded subset of the Table I via and
//! Table II metal testcases through `CardOpc::run_with_engine`, plus one
//! Fig. 7 ILT→fit→MRC hybrid clip through `run_hybrid`, in process.
//!
//! Its quality checks are the paper claims EXPERIMENTS.md records for
//! this reproduction: every CardOPC via and metal mask finishes MRC-clean,
//! and MRC resolving reduces the hybrid's violations.

use crate::layers::Layers;
use crate::proc::self_peak_rss_mb;
use crate::replay::{self, same_points};
use crate::stats::{max, median};
use crate::trace::{Ctx, Tracer};
use crate::{Args, Report, SETUPS};
use cardopc_geometry::{Polygon, SplitMix64};
use cardopc_ilt::{fit_mask_shapes, pixel_ilt, run_hybrid, HybridConfig};
use cardopc_layout::{metal_clips, via_clips, Clip};
use cardopc_litho::LithoEngine;
use cardopc_mrc::{AreaPolicy, MrcChecker, MrcResolver, ResolveConfig};
use cardopc_opc::{
    engine_for_extent, evaluate_mask, evaluate_mask_grid, raster_for_engine, CardOpc,
    MeasureConvention, OpcConfig,
};
use cardopc_spline::CardinalSpline;
use std::time::Instant;

const VIA_CLIPS: usize = 2;
const METAL_CLIPS: usize = 2;
/// The hybrid runs at Fig. 7's 4 nm pixels.
const HYBRID_PITCH: f64 = 4.0;

/// One clip's job in the set.
enum Job {
    Card { clip: Clip, config: Box<OpcConfig> },
    Hybrid { clip: Clip },
}

impl Job {
    fn clip(&self) -> &Clip {
        match self {
            Job::Card { clip, .. } | Job::Hybrid { clip } => clip,
        }
    }
}

/// Scores and shapes one clip produced.
struct Outcome {
    shapes: Vec<CardinalSpline>,
    epe_sum_nm: f64,
    epe_violations: usize,
    pvb_nm2: f64,
    mrc_before: usize,
    mrc_after: usize,
}

impl Outcome {
    fn same_as(&self, other: &Outcome) -> bool {
        self.shapes.len() == other.shapes.len()
            && self
                .shapes
                .iter()
                .zip(&other.shapes)
                .all(|(a, b)| same_points(a.control_points(), b.control_points()))
            && self.epe_sum_nm.to_bits() == other.epe_sum_nm.to_bits()
            && self.epe_violations == other.epe_violations
            && self.pvb_nm2.to_bits() == other.pvb_nm2.to_bits()
            && (self.mrc_before, self.mrc_after) == (other.mrc_before, other.mrc_after)
    }
}

fn hybrid_config() -> HybridConfig {
    HybridConfig {
        convention: MeasureConvention::MetalSpacing(60.0),
        ..HybridConfig::default()
    }
}

/// The seeded subset: via and metal clips without replacement, then the
/// hybrid on the first metal testcase. The hybrid is most of a pass, so
/// it stays the same clip for every seed: a seed's pass time then varies
/// only with its Table I/II draw.
fn choose(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0xC119);
    let mut vias = via_clips();
    let mut metals = metal_clips();
    let hybrid = metals.remove(0);
    rng.shuffle(&mut vias);
    rng.shuffle(&mut metals);
    let mut jobs: Vec<Job> = Vec::new();
    jobs.extend(vias.into_iter().take(VIA_CLIPS).map(|clip| Job::Card {
        clip,
        config: Box::new(OpcConfig::via()),
    }));
    jobs.extend(metals.into_iter().take(METAL_CLIPS).map(|clip| Job::Card {
        clip,
        config: Box::new(OpcConfig::metal()),
    }));
    jobs.push(Job::Hybrid { clip: hybrid });
    jobs
}

/// The engine each job runs on.
fn engine_for(job: &Job) -> Result<LithoEngine, String> {
    let clip = job.clip();
    let pitch = match job {
        Job::Card { config, .. } => config.pitch,
        Job::Hybrid { .. } => HYBRID_PITCH,
    };
    engine_for_extent(clip.width(), clip.height(), pitch).map_err(|e| e.to_string())
}

fn run_job(job: &Job, engine: &LithoEngine) -> Result<Outcome, String> {
    match job {
        Job::Card { clip, config } => {
            let out = CardOpc::new(config.as_ref().clone())
                .run_with_engine(clip, engine)
                .map_err(|e| e.to_string())?;
            Ok(Outcome {
                shapes: out.shapes.into_iter().map(|s| s.spline).collect(),
                epe_sum_nm: out.evaluation.epe_sum_nm,
                epe_violations: out.evaluation.epe_violations,
                pvb_nm2: out.evaluation.pvb_nm2,
                mrc_before: out.mrc_initial_violations,
                mrc_after: out.mrc_remaining,
            })
        }
        Job::Hybrid { clip } => {
            let out =
                run_hybrid(engine, clip.targets(), &hybrid_config()).map_err(|e| e.to_string())?;
            Ok(Outcome {
                shapes: out.shapes,
                epe_sum_nm: out.hybrid_eval.epe_sum_nm,
                epe_violations: out.hybrid_eval.epe_violations,
                pvb_nm2: out.hybrid_eval.pvb_nm2,
                mrc_before: out.violations_before,
                mrc_after: out.violations_after,
            })
        }
    }
}

/// One pass over the set: (wall seconds, per-clip seconds, outcomes).
fn pass(jobs: &[Job], engines: &[LithoEngine]) -> Result<(f64, Vec<f64>, Vec<Outcome>), String> {
    let start = Instant::now();
    let mut clip_seconds = Vec::with_capacity(jobs.len());
    let mut outcomes = Vec::with_capacity(jobs.len());
    for (job, engine) in jobs.iter().zip(engines) {
        let t = Instant::now();
        outcomes.push(run_job(job, engine)?);
        clip_seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((start.elapsed().as_secs_f64(), clip_seconds, outcomes))
}

pub fn paper_clips(args: &Args) -> Result<Report, String> {
    let mut jobs = Vec::new();
    let mut engines = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        // The previous set-up's engines go first, so the peak RSS holds
        // one set.
        engines.clear();
        let start = Instant::now();
        jobs = choose(args.seed);
        engines = jobs.iter().map(engine_for).collect::<Result<Vec<_>, _>>()?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut report = Report::default();
    report.push("setup_s", median(&setups), "s");
    report.attempted = jobs.len();

    if args.trace {
        let tr = Tracer::new();
        let traced_jobs = tr.span("layout.clip", Ctx::default(), |_| choose(args.seed));
        let (mut ref_wall, mut traced_wall) = (0.0, 0.0);
        for (i, job) in traced_jobs.iter().enumerate() {
            // The program's own run of the clip, building its engine as the
            // replay does, then the replay right after it, so that both
            // meet the machine in the same state.
            let t = Instant::now();
            let want = run_job(job, &engine_for(job)?)?;
            let program_s = t.elapsed().as_secs_f64();
            let ctx = Ctx {
                parent: None,
                group: i as u64 + 1,
            };
            let t = Instant::now();
            let got = traced_job(&tr, ctx, job, program_s)?;
            traced_wall += t.elapsed().as_secs_f64();
            ref_wall += program_s;
            report.check(got.same_as(&want), || {
                format!(
                    "paper_clips: replay of {} differs from the program",
                    job.clip().name()
                )
            });
        }
        let mut layers = Layers::from_tracer(&tr);
        layers.set_coverage(tr.checked_coverage(&mut report));
        layers.set("trace.overhead_frac", traced_wall / ref_wall - 1.0);
        layers.push(&mut report);
        tr.write_jsonl(&args.work.join("spans.jsonl"))
            .map_err(|e| e.to_string())?;
        return Ok(report);
    }

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut slowest = Vec::new();
    let mut first: Option<Vec<Outcome>> = None;
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, clip_seconds, outcomes) = pass(&jobs, &engines)?;
        walls.push(wall);
        slowest.push(max(&clip_seconds));
        match &first {
            Some(f) => report.check(f.iter().zip(&outcomes).all(|(a, b)| a.same_as(b)), || {
                "paper_clips: outputs differ between passes".into()
            }),
            None => first = Some(outcomes),
        }
    }
    let outcomes = first.expect("at least one pass");
    report.attempted = jobs.len() * walls.len();
    let run_s = median(&walls);
    report.push("run_s", run_s, "s");
    report.push("tail_s", median(&slowest), "s");
    report.push("ops_per_s", jobs.len() as f64 / run_s, "1/s");
    report.push("peak_rss_mb", self_peak_rss_mb(), "MB");
    report.push("failed_frac", 0.0, "frac");
    report.push("passes", walls.len() as f64, "count");
    report.push("clips", jobs.len() as f64, "count");

    for (job, out) in jobs.iter().zip(&outcomes) {
        match job {
            Job::Card { clip, .. } => report.check(out.mrc_after == 0, || {
                format!(
                    "paper_clips: CardOPC mask of {} is not MRC-clean ({} left)",
                    clip.name(),
                    out.mrc_after
                )
            }),
            Job::Hybrid { clip } => report.check(out.mrc_after < out.mrc_before.max(1), || {
                format!(
                    "paper_clips: hybrid MRC resolving did not reduce {}'s violations ({} -> {})",
                    clip.name(),
                    out.mrc_before,
                    out.mrc_after
                )
            }),
        }
    }
    // The Table I/II figures are over the CardOPC clips; the Fig. 7
    // hybrid is reported on its own.
    let card: Vec<&Outcome> = jobs
        .iter()
        .zip(&outcomes)
        .filter(|(j, _)| matches!(j, Job::Card { .. }))
        .map(|(_, o)| o)
        .collect();
    let sum = |f: fn(&Outcome) -> f64| card.iter().map(|&o| f(o)).sum::<f64>();
    report.push("epe_violations", sum(|o| o.epe_violations as f64), "count");
    report.push("epe_sum_nm", sum(|o| o.epe_sum_nm), "nm");
    report.push("pvb_nm2", sum(|o| o.pvb_nm2), "nm2");
    report.push("mrc_violations", sum(|o| o.mrc_after as f64), "count");
    let hybrid = outcomes.last().expect("the hybrid clip");
    report.push(
        "hybrid.epe_violations",
        hybrid.epe_violations as f64,
        "count",
    );
    report.push("hybrid.pvb_nm2", hybrid.pvb_nm2, "nm2");
    report.push("hybrid.mrc_before", hybrid.mrc_before as f64, "count");
    report.push("hybrid.mrc_after", hybrid.mrc_after as f64, "count");
    Ok(report)
}

/// One clip, replayed layer by layer under a `tile` span; the program
/// took `program_s` seconds for it.
fn traced_job(tr: &Tracer, ctx: Ctx, job: &Job, program_s: f64) -> Result<Outcome, String> {
    let clip = job.clip();
    tr.replay(ctx, program_s, |ctx| match job {
        Job::Card { config, .. } => {
            let engine = replay::engine(tr, ctx, clip.width(), clip.height(), config)
                .map_err(|e| e.to_string())?;
            let flow = CardOpc::new(config.as_ref().clone());
            let out = replay::optimize(tr, ctx, &flow, clip, &engine).map_err(|e| e.to_string())?;
            let polys: Vec<Polygon> = out
                .shapes
                .iter()
                .map(|s| s.spline.to_polygon(config.samples_per_segment))
                .collect();
            let eval = tr
                .span("opc.eval", ctx, |_| {
                    evaluate_mask(
                        &engine,
                        &polys,
                        clip.targets(),
                        config.convention,
                        config.dose_delta,
                        config.epe_search,
                    )
                })
                .map_err(|e| e.to_string())?;
            Ok(Outcome {
                shapes: out.shapes.into_iter().map(|s| s.spline).collect(),
                epe_sum_nm: eval.epe_sum_nm,
                epe_violations: eval.epe_violations,
                pvb_nm2: eval.pvb_nm2,
                mrc_before: out.mrc_initial,
                mrc_after: out.mrc_remaining,
            })
        }
        Job::Hybrid { .. } => traced_hybrid(tr, ctx, clip),
    })
}

/// `run_hybrid`, step by step: pixel ILT, spline fitting, MRC resolve and
/// assist pruning, scoring.
fn traced_hybrid(tr: &Tracer, ctx: Ctx, clip: &Clip) -> Result<Outcome, String> {
    let config = hybrid_config();
    tr.count("litho.engine_builds", 1.0);
    let engine = tr
        .span("litho.engine_build", ctx, |_| {
            engine_for_extent(clip.width(), clip.height(), HYBRID_PITCH)
        })
        .map_err(|e| e.to_string())?;
    let targets = clip.targets();
    let ilt = tr
        .span("ilt.pixel", ctx, |_| {
            let target = raster_for_engine(&engine, targets).binarize(0.5);
            pixel_ilt(&engine, &target, &config.ilt)
        })
        .map_err(|e| e.to_string())?;
    tr.count("ilt.iterations", ilt.loss_history.len() as f64);
    let (fitted, _) = tr.span("spline.fit", ctx, |_| fit_mask_shapes(&ilt.mask, &config));

    let (shapes, before, after) = tr.span("mrc.resolve", ctx, |_| {
        let checker = MrcChecker::with_sampling(config.mrc, config.samples_per_segment);
        let before = checker.check(&fitted).len();
        let mut shapes = fitted.clone();
        let report = MrcResolver::new(
            config.mrc,
            ResolveConfig {
                area_policy: AreaPolicy::Keep,
                samples_per_segment: config.samples_per_segment,
                max_rounds: 24,
                ..ResolveConfig::default()
            },
        )
        .resolve(&mut shapes);
        tr.count("mrc.initial_violations", report.initial_violations as f64);
        tr.count("mrc.moves_applied", report.moves_applied as f64);
        tr.count("mrc.rounds", report.rounds as f64);
        let boxes: Vec<_> = targets.iter().map(|t| t.bbox()).collect();
        let is_main = |s: &CardinalSpline| {
            let b = s.to_polygon(config.samples_per_segment).bbox();
            boxes.iter().any(|t| t.intersects(&b))
        };
        loop {
            let remaining = checker.check(&shapes);
            if remaining.is_empty() {
                break;
            }
            let mut per_shape = std::collections::HashMap::new();
            for v in &remaining {
                *per_shape.entry(v.shape).or_insert(0usize) += 1;
            }
            let worst = per_shape
                .iter()
                .filter(|&(&i, _)| !is_main(&shapes[i]))
                .max_by_key(|&(_, &c)| c)
                .map(|(&i, _)| i);
            match worst {
                Some(i) => {
                    shapes.remove(i);
                }
                None => break,
            }
        }
        let after = checker.check(&shapes).len();
        (shapes, before, after)
    });

    let eval = tr
        .span("opc.eval", ctx, |_| {
            evaluate_mask_grid(
                &engine,
                &ilt.binary_mask,
                targets,
                config.convention,
                config.dose_delta,
                config.epe_search,
            )?;
            let polys: Vec<Polygon> = shapes
                .iter()
                .map(|s| s.to_polygon(config.samples_per_segment))
                .collect();
            evaluate_mask(
                &engine,
                &polys,
                targets,
                config.convention,
                config.dose_delta,
                config.epe_search,
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(Outcome {
        shapes,
        epe_sum_nm: eval.epe_sum_nm,
        epe_violations: eval.epe_violations,
        pvb_nm2: eval.pvb_nm2,
        mrc_before: before,
        mrc_after: after,
    })
}
