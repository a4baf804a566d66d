//! The batch workloads: `chip_cold` and `chip_eco`.
//!
//! Untraced passes run the `cardopc` command line as a child process and
//! time it from spawn to exit (the mask GDS and manifest are written by
//! then). The traced pass drives the same pipeline in process through the
//! runtime's public calls — `partition_clip`, `TileCache`, `RunDir`,
//! `correct_single_tile`, `stitch`, `RunManifest`, `write_mask_gds` — and
//! replays each corrected tile's optimisation step by step.

use crate::gdsgen::{self, EcoLayout};
use crate::layers::Layers;
use crate::proc;
use crate::quality::{self, Quality};
use crate::replay::{self, same_floats, same_points};
use crate::stats::{digest, max, median};
use crate::trace::{Ctx, Tracer};
use crate::{Args, Report, SETUPS};
use cardopc_geometry::SplitMix64;
use cardopc_json::Json;
use cardopc_layout::{Clip, LayerFilter, TARGET_LAYER};
use cardopc_litho::{measure_epe, metal_measure_points, via_measure_points, LithoEngine};
use cardopc_litho::{ProcessCondition, WorkerPool};
use cardopc_opc::{CardOpc, MeasureConvention, OpcConfig, EPE_TOLERANCE};
use cardopc_runtime::{
    correct_single_tile, partition_clip, stitch, tile_cache_key, tile_input_hash, write_mask_gds,
    CacheConfig, EngineCache, MaskGdsOptions, Partition, RunControl, RunDir, RunManifest,
    ScheduleOutcome, Stitched, Tile, TileCache, TileRecord, TileResult, TilingConfig,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Scheduler threads, as `--threads 2` gives the command line.
const THREADS: usize = 2;

/// `chip_cold` input: a 6 µm crop, cut into 2 µm tiles with the default
/// 1 µm halo (3×3 tiles).
const COLD_CROP_NM: f64 = 6000.0;
/// Crops outside the middle half of the target counts (99–113 from the
/// 10th to the 90th percentile) are redrawn, so seeds are alike in size.
const COLD_TARGETS: std::ops::RangeInclusive<usize> = 104..=110;
const COLD_TILING: TilingConfig = TilingConfig {
    tile_size: 2048.0,
    halo: 1024.0,
};

/// `chip_eco` input: the array pitch divides the tile size.
const ECO_LAYOUT: EcoLayout = EcoLayout {
    width: 12288.0,
    height: 6144.0,
    array_width: 10240.0,
    cell_pitch: 512.0,
};
const ECO_TILING: TilingConfig = TilingConfig {
    tile_size: 1024.0,
    halo: 512.0,
};
/// Wires the ECO edits, and the tiles their halo windows touch (the
/// tiles the ECO pass re-corrects).
const ECO_EDITS: usize = 2;
const ECO_TILES: usize = 8;
/// Designs per seed that the timed cycles rotate through; a run makes
/// at least one cycle more, so one design is always checked twice.
const ECO_DESIGNS: usize = 4;

/// The OPC configuration the command line runs with its defaults.
fn cli_config() -> OpcConfig {
    OpcConfig::large_scale()
}

/// What one command-line pass left behind.
struct Pass {
    wall_s: f64,
    rss_mb: f64,
    dir: PathBuf,
    manifest: Json,
    stable: Vec<u8>,
    mask: Vec<u8>,
}

impl Pass {
    fn num(&self, key: &str) -> f64 {
        self.manifest
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn tiles(&self) -> usize {
        self.manifest
            .get("tiles")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len)
    }

    /// Wall seconds of every executed (not resumed) tile.
    fn tile_seconds(&self) -> Vec<f64> {
        self.manifest
            .get("tiles")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|t| t.get("resumed").and_then(Json::as_bool) == Some(false))
            .filter_map(|t| t.get("seconds").and_then(Json::as_f64))
            .collect()
    }

    fn complete(&self) -> bool {
        self.manifest.get("complete").and_then(Json::as_bool) == Some(true)
    }
}

/// Runs `cardopc` on `design` into run directory `dir`.
fn cli_pass(
    args: &Args,
    design: &Path,
    dir: &Path,
    cache_dir: Option<&Path>,
    tiling: &TilingConfig,
) -> Result<Pass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mask_path = dir.join("mask.gds");
    let mut cmd = std::process::Command::new(&args.cardopc);
    cmd.arg("--design")
        .arg(design)
        .args(["--tile", &tiling.tile_size.to_string()])
        .args(["--halo", &tiling.halo.to_string()])
        .args(["--threads", &THREADS.to_string()])
        .arg("--run-dir")
        .arg(dir)
        .arg("--out-gds")
        .arg(&mask_path);
    if let Some(cache) = cache_dir {
        cmd.arg("--cache-dir").arg(cache);
    }
    let log = dir.with_extension("log");
    let (wall_s, exit) = proc::run_logged(&mut cmd, &log)?;
    if !exit.success() {
        return Err(format!(
            "cardopc exited with {:?}; see {}",
            exit.code,
            log.display()
        ));
    }
    let read = |p: PathBuf| std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()));
    let manifest_text = String::from_utf8(read(dir.join("manifest.json"))?)
        .map_err(|_| "manifest.json is not UTF-8".to_string())?;
    Ok(Pass {
        wall_s,
        rss_mb: exit.peak_rss_mb,
        dir: dir.to_path_buf(),
        manifest: Json::parse(&manifest_text).map_err(|e| format!("manifest.json: {e}"))?,
        stable: read(dir.join("manifest.stable.json"))?,
        mask: read(mask_path)?,
    })
}

/// The set-up warm-up: one small correction (`--quick`) through the
/// `cardopc` binary, so its pages and the file cache are warm.
fn warm_up(args: &Args) -> Result<(), String> {
    let log = args.work.join("warmup.log");
    let (_, exit) = proc::run_logged(
        std::process::Command::new(&args.cardopc).args(["--quick", "--threads", "2"]),
        &log,
    )?;
    if exit.success() {
        Ok(())
    } else {
        Err(format!("cardopc --quick exited with {:?}", exit.code))
    }
}

fn read_clip(design: &Path) -> Result<Clip, String> {
    cardopc_layout::read_gds_clip(design, LayerFilter::Layer(TARGET_LAYER), None)
}

/// Stitches a finished run directory's records into the full mask.
fn stitched_from_dir(dir: &Path, partition: &Partition) -> Result<Stitched, String> {
    let run_dir = RunDir::open(dir).map_err(|e| e.to_string())?;
    let records = run_dir.load_records().map_err(|e| e.to_string())?;
    let mut indexed: Vec<(usize, TileRecord)> = records.into_iter().collect();
    indexed.sort_by_key(|(i, _)| *i);
    Ok(stitch(
        partition,
        indexed.into_iter().flat_map(|(_, r)| r.shapes),
        cli_config().mrc.as_ref(),
    ))
}

fn score_pass(design: &Path, pass: &Pass, tiling: &TilingConfig) -> Result<Quality, String> {
    let clip = read_clip(design)?;
    let partition = partition_clip(&clip, tiling).map_err(|e| e.to_string())?;
    let stitched = stitched_from_dir(&pass.dir, &partition)?;
    quality::score(&clip, &stitched, &cli_config(), tiling.halo)
}

/// Checks one pass against the first pass of the same input.
fn check_pass(report: &mut Report, pass: &Pass, first: &Pass, what: &str) {
    report.check(pass.complete(), || format!("{what}: run incomplete"));
    report.check(!pass.mask.is_empty(), || format!("{what}: empty mask"));
    report.check(digest(&pass.mask) == digest(&first.mask), || {
        format!("{what}: mask digest differs between runs of one input")
    });
    report.check(pass.stable == first.stable, || {
        format!("{what}: timing-free manifest differs between runs of one input")
    });
}

/// Runs `setup` [`SETUPS`] times and returns the median wall seconds.
fn timed_setups(mut setup: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        setup()?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

pub fn chip_cold(args: &Args) -> Result<Report, String> {
    let design = args.work.join("crop.gds");
    let setup_s = timed_setups(|| {
        let mut rng = SplitMix64::new(args.seed ^ 0xC01D);
        let clip = loop {
            let clip = gdsgen::aes_crop(&mut rng, COLD_CROP_NM, COLD_CROP_NM, true);
            if COLD_TARGETS.contains(&clip.targets().len()) {
                break clip;
            }
        };
        gdsgen::write_clip(&clip, &design)?;
        warm_up(args)
    })?;
    let mut report = Report::default();
    report.push("setup_s", setup_s, "s");

    if args.trace {
        let reference = cli_pass(args, &design, &args.work.join("ref"), None, &COLD_TILING)?;
        let tr = Tracer::new();
        let mut seen = HashSet::new();
        let traced = traced_pass(
            &tr,
            &design,
            &args.work.join("traced"),
            None,
            &COLD_TILING,
            &mut seen,
        )?;
        check_traced(&mut report, &traced, &reference, "chip_cold");
        let mut layers = Layers::from_tracer(&tr);
        traced.fill(&mut layers);
        runtime_timing(&mut layers, &[&reference]);
        layers.set_coverage(tr.checked_coverage(&mut report));
        layers.set(
            "trace.overhead_frac",
            traced.wall_s / reference.wall_s - 1.0,
        );
        layers.push(&mut report);
        tr.write_jsonl(&args.work.join("spans.jsonl"))
            .map_err(|e| e.to_string())?;
        report.attempted = reference.tiles();
        return Ok(report);
    }

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let dir = args.work.join(format!("pass{}", passes.len()));
        let pass = cli_pass(args, &design, &dir, None, &COLD_TILING)?;
        if let Some(first) = passes.first() {
            check_pass(&mut report, &pass, first, "chip_cold");
        } else {
            report.check(pass.complete(), || "chip_cold: run incomplete".into());
        }
        passes.push(pass);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let run_s = median(&walls);
    let tiles = passes[0].tiles();
    report.push("run_s", run_s, "s");
    report.push(
        "tail_s",
        median(
            &passes
                .iter()
                .map(|p| max(&p.tile_seconds()))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    report.push("ops_per_s", tiles as f64 / run_s, "1/s");
    report.push(
        "peak_rss_mb",
        max(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
        "MB",
    );
    report.attempted = tiles * passes.len();
    report.failed = passes
        .iter()
        .map(|p| p.num("remaining") as usize)
        .sum::<usize>();
    report.push(
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
        "frac",
    );
    report.push("passes", passes.len() as f64, "count");
    report.push("tiles", tiles as f64, "count");
    report.push("cache_hits", passes[0].num("cache_hits"), "count");
    let last = passes.last().expect("at least one pass");
    score_pass(&design, last, &COLD_TILING)?.push(&mut report);
    println!("mask_digest {:016x}", digest(&last.mask));
    Ok(report)
}

pub fn chip_eco(args: &Args) -> Result<Report, String> {
    let files = |k: usize| {
        (
            args.work.join(format!("eco{k}_before.gds")),
            args.work.join(format!("eco{k}_after.gds")),
        )
    };
    let setup_s = timed_setups(|| {
        for k in 0..ECO_DESIGNS {
            let mut rng =
                SplitMix64::new(args.seed.wrapping_mul(ECO_DESIGNS as u64 + 1) + k as u64);
            let design =
                gdsgen::eco_design(&mut rng, &ECO_LAYOUT, &ECO_TILING, ECO_EDITS, ECO_TILES)?;
            let (before, after) = files(k);
            std::fs::write(&before, &design.before).map_err(|e| e.to_string())?;
            std::fs::write(&after, &design.after).map_err(|e| e.to_string())?;
        }
        warm_up(args)
    })?;
    let mut report = Report::default();
    report.push("setup_s", setup_s, "s");

    // One ECO cycle on design `k`: a cold first pass into fresh cache and
    // run directories, then the edited design re-run against both.
    let cycle = |tag: &str, k: usize| -> Result<(Pass, Pass), String> {
        let (before, after) = files(k);
        let root = args.work.join(tag);
        let cache = root.join("cache");
        let run = root.join("run");
        // The first pass's outputs are read into memory before the ECO
        // pass rewrites the run directory.
        let first = cli_pass(args, &before, &run, Some(&cache), &ECO_TILING)?;
        let eco = cli_pass(args, &after, &run, Some(&cache), &ECO_TILING)?;
        Ok((first, eco))
    };
    let (before, after) = files(0);

    if args.trace {
        let (ref_first, ref_eco) = cycle("ref", 0)?;
        let tr = Tracer::new();
        let mut seen = HashSet::new();
        let root = args.work.join("traced");
        let cache = root.join("cache");
        let run = root.join("run");
        let first = traced_pass(&tr, &before, &run, Some(&cache), &ECO_TILING, &mut seen)?;
        check_traced(&mut report, &first, &ref_first, "chip_eco first pass");
        let eco = traced_pass(&tr, &after, &run, Some(&cache), &ECO_TILING, &mut seen)?;
        check_traced(&mut report, &eco, &ref_eco, "chip_eco ECO pass");
        let mut layers = Layers::from_tracer(&tr);
        first.fill(&mut layers);
        eco.fill(&mut layers);
        runtime_timing(&mut layers, &[&ref_first, &ref_eco]);
        layers.set_coverage(tr.checked_coverage(&mut report));
        layers.set(
            "trace.overhead_frac",
            (first.wall_s + eco.wall_s) / (ref_first.wall_s + ref_eco.wall_s) - 1.0,
        );
        layers.push(&mut report);
        tr.write_jsonl(&args.work.join("spans.jsonl"))
            .map_err(|e| e.to_string())?;
        report.attempted = ref_first.tiles() + ref_eco.tiles();
        return Ok(report);
    }

    // Cycles rotate through the seed's designs, so the medians average
    // over several routings and edits; a design's later cycles are
    // checked against its first.
    let start = Instant::now();
    let mut cycles: Vec<(Pass, Pass)> = Vec::new();
    while cycles.len() <= ECO_DESIGNS || start.elapsed().as_secs_f64() < args.seconds {
        let i = cycles.len();
        let (first, eco) = cycle(&format!("cycle{i}"), i % ECO_DESIGNS)?;
        report.check(first.complete() && eco.complete(), || {
            "chip_eco: run incomplete".into()
        });
        report.check(eco.num("executed") == ECO_TILES as f64, || {
            format!(
                "chip_eco: the ECO re-ran {} tiles, expected the {ECO_TILES} it touched",
                eco.num("executed")
            )
        });
        if let Some((f0, e0)) = cycles.get(i % ECO_DESIGNS).filter(|_| i >= ECO_DESIGNS) {
            check_pass(&mut report, &first, f0, "chip_eco first pass");
            check_pass(&mut report, &eco, e0, "chip_eco ECO pass");
        }
        cycles.push((first, eco));
    }
    let firsts: Vec<f64> = cycles.iter().map(|(f, _)| f.wall_s).collect();
    let ecos: Vec<f64> = cycles.iter().map(|(_, e)| e.wall_s).collect();
    let run_s = median(&firsts);
    let tiles = cycles[0].0.tiles();
    report.push("run_s", run_s, "s");
    report.push("tail_s", median(&ecos), "s");
    report.push("eco_s", median(&ecos), "s");
    report.push("ops_per_s", tiles as f64 / run_s, "1/s");
    report.push(
        "peak_rss_mb",
        max(&cycles
            .iter()
            .flat_map(|(f, e)| [f.rss_mb, e.rss_mb])
            .collect::<Vec<_>>()),
        "MB",
    );
    report.attempted = 2 * tiles * cycles.len();
    report.failed = cycles
        .iter()
        .map(|(f, e)| (f.num("remaining") + e.num("remaining")) as usize)
        .sum();
    report.push(
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
        "frac",
    );
    let (f0, e0) = &cycles[0];
    report.push("cycles", cycles.len() as f64, "count");
    report.push("tiles", tiles as f64, "count");
    report.push("first_cache_hits", f0.num("cache_hits"), "count");
    report.push("first_cache_misses", f0.num("cache_misses"), "count");
    report.push("eco_resumed", e0.num("resumed"), "count");
    report.push("eco_executed", e0.num("executed"), "count");
    score_pass(&after, e0, &ECO_TILING)?.push(&mut report);
    println!("mask_digest {:016x}", digest(&e0.mask));
    Ok(report)
}

/// Per-tile timing from the untraced passes' own manifests.
fn runtime_timing(layers: &mut Layers, passes: &[&Pass]) {
    let tile_seconds: Vec<f64> = passes.iter().flat_map(|p| p.tile_seconds()).collect();
    if !tile_seconds.is_empty() {
        layers.set("runtime.tile_p50_s", median(&tile_seconds));
        layers.set("runtime.tile_max_s", max(&tile_seconds));
    }
    let busy: f64 = passes.iter().map(|p| p.num("tile_seconds")).sum::<f64>();
    let capacity: f64 = passes
        .iter()
        .map(|p| p.num("wall_seconds") * THREADS as f64)
        .sum();
    layers.set("runtime.pool_busy_frac", busy / capacity);
}

// ------------------------------------------------------------ traced pass

/// What the traced in-process pass produced.
struct Traced {
    wall_s: f64,
    stable: Vec<u8>,
    mask: Vec<u8>,
    tiles: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: u64,
    records_appended: usize,
    checkpoint_bytes: usize,
    gdsout_bytes: usize,
    /// Tiles whose replay did not match the program bit for bit.
    mismatches: Vec<String>,
}

impl Traced {
    fn fill(&self, layers: &mut Layers) {
        let add = |layers: &mut Layers, name: &str, v: f64| {
            let old = layers.get(name);
            layers.set(name, old + v);
        };
        add(layers, "runtime.tiles", self.tiles as f64);
        add(layers, "runtime.cache.hits", self.cache_hits as f64);
        add(layers, "runtime.cache.misses", self.cache_misses as f64);
        layers.set("runtime.cache.bytes", self.cache_bytes as f64);
        let hits = layers.get("runtime.cache.hits");
        let lookups = hits + layers.get("runtime.cache.misses");
        layers.set(
            "runtime.cache.hit_frac",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        add(
            layers,
            "runtime.checkpoint.records",
            self.records_appended as f64,
        );
        add(
            layers,
            "runtime.checkpoint.bytes",
            self.checkpoint_bytes as f64,
        );
        add(layers, "runtime.gdsout_bytes", self.gdsout_bytes as f64);
    }
}

/// The traced pass must reproduce the untraced one exactly.
fn check_traced(report: &mut Report, traced: &Traced, reference: &Pass, what: &str) {
    for m in &traced.mismatches {
        report
            .problems
            .push(format!("{what}: replay mismatch: {m}"));
    }
    report.check(traced.stable == reference.stable, || {
        format!("{what}: traced timing-free manifest differs from the untraced one")
    });
    report.check(traced.mask == reference.mask, || {
        format!("{what}: traced mask differs from the untraced one")
    });
}

/// Per-thread state of the traced scheduler.
#[derive(Default)]
pub(crate) struct Slot {
    engine: Option<LithoEngine>,
    results: Vec<(TileResult, Option<String>)>,
}

/// What every tile of one traced pass shares.
struct PassState<'a> {
    tr: &'a Tracer,
    partition: &'a Partition,
    flow: &'a CardOpc,
    checkpoints: &'a HashMap<usize, TileRecord>,
    /// Tile cache keys seen so far (this pass and earlier ones).
    seen: &'a Mutex<HashSet<u64>>,
    control: &'a RunControl<'a>,
}

/// One tile's outcome in the traced pass, plus a mismatch note.
fn traced_tile(
    pass: &PassState<'_>,
    tile: &Tile,
    slot: &mut Slot,
    slot_index: usize,
) -> Result<(TileResult, Option<String>), String> {
    let PassState {
        tr,
        partition,
        flow,
        checkpoints,
        seen,
        control,
    } = *pass;
    let config = flow.config();
    let ctx = Ctx {
        parent: None,
        group: tile.index as u64 + 1,
    };
    if let Some(record) = checkpoints.get(&tile.index) {
        if record.input_hash == tile_input_hash(tile, config) {
            let record = tr.span("runtime.replay", ctx, |_| record.clone());
            return Ok((
                TileResult {
                    record,
                    resumed: true,
                    cached: false,
                },
                None,
            ));
        }
    }
    let key = tile_cache_key(tile, &partition.config, config);
    let first = seen.lock().expect("seen-set poisoned").insert(key);
    let reference = |name: &'static str| {
        tr.span(name, ctx, |_| {
            correct_single_tile(partition, tile.index, flow, control, slot_index)
        })
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "tile correction cancelled".to_string())
    };
    if !first || tile.clip.targets().is_empty() {
        let record = reference("runtime.replay")?;
        return Ok((
            TileResult {
                record,
                resumed: false,
                cached: !first,
            },
            None,
        ));
    }
    // First sight of this pattern: the program corrects it (filling the
    // tile cache, so congruent tiles on the other slot wait on it exactly
    // as in the untraced run), then the replay recomputes it step by step.
    let record = reference("runtime.reference")?;
    let mismatch = tr.replay(ctx, record.seconds, |ctx| {
        replay_tile(tr, ctx, tile, flow, slot, &record)
    })?;
    Ok((
        TileResult {
            record,
            resumed: false,
            cached: false,
        },
        mismatch,
    ))
}

/// Replays one tile and compares it with the program's record.
pub(crate) fn replay_tile(
    tr: &Tracer,
    ctx: Ctx,
    tile: &Tile,
    flow: &CardOpc,
    slot: &mut Slot,
    record: &TileRecord,
) -> Result<Option<String>, String> {
    let config = flow.config();
    let (w, h) = (tile.clip.width(), tile.clip.height());
    let reusable = slot.engine.as_ref().is_some_and(|e| {
        e.width() == cardopc_litho::next_five_smooth((w.max(h) / config.pitch).ceil() as usize)
    });
    if !reusable {
        slot.engine = Some(replay::engine(tr, ctx, w, h, config).map_err(|e| e.to_string())?);
    }
    let engine = slot.engine.as_ref().expect("engine just built");
    let out = replay::optimize(tr, ctx, flow, &tile.clip, engine).map_err(|e| e.to_string())?;

    // Scoring as the runtime does it: one two-condition simulation of the
    // window, EPE at the owned targets.
    let mask_polys: Vec<_> = out
        .shapes
        .iter()
        .map(|s| s.spline.to_polygon(config.samples_per_segment))
        .collect();
    let images = tr
        .span("litho.score", ctx, |_| {
            let raster = cardopc_litho::rasterize(
                &mask_polys,
                engine.width(),
                engine.height(),
                engine.pitch(),
            );
            engine.aerial_images_multi(
                &raster,
                &[
                    ProcessCondition::NOMINAL,
                    ProcessCondition::inner(config.dose_delta),
                ],
            )
        })
        .map_err(|e| e.to_string())?;
    let epe = tr.span("opc.eval", ctx, |_| {
        let owned: Vec<_> = tile
            .clip
            .targets()
            .iter()
            .zip(&tile.owned)
            .filter(|&(_, o)| *o)
            .map(|(t, _)| t.clone())
            .collect();
        let sites = match config.convention {
            MeasureConvention::ViaEdgeCenters => via_measure_points(&owned),
            MeasureConvention::MetalSpacing(s) => metal_measure_points(&owned, s),
        };
        measure_epe(&images[0], engine.threshold(), &sites, config.epe_search)
    });

    // Bit-for-bit: every shape of the record (owned mains and the assists
    // this tile owns, translated to chip coordinates) must be one of the
    // replayed shapes, and the histories and scores must match.
    let replayed: Vec<Vec<cardopc_geometry::Point>> = out
        .shapes
        .iter()
        .map(|s| {
            s.spline
                .control_points()
                .iter()
                .map(|p| *p + tile.origin)
                .collect()
        })
        .collect();
    let mut problems = Vec::new();
    for shape in &record.shapes {
        if !replayed
            .iter()
            .any(|r| same_points(r, &shape.control_points))
        {
            problems.push("shape");
            break;
        }
    }
    if record.shapes.iter().filter(|s| !s.is_sraf).count() != tile.owned_count() {
        problems.push("owned main count");
    }
    if !same_floats(&out.epe_history, &record.epe_history) {
        problems.push("EPE history");
    }
    if epe.sum_abs().to_bits() != record.metrics.epe_sum_nm.to_bits()
        || epe.violations(EPE_TOLERANCE) != record.metrics.epe_violations
    {
        problems.push("EPE score");
    }
    if (out.mrc_initial, out.mrc_remaining)
        != (record.metrics.mrc_initial, record.metrics.mrc_remaining)
    {
        problems.push("MRC counts");
    }
    Ok((!problems.is_empty()).then(|| format!("tile {}: {}", tile.index, problems.join(", "))))
}

/// The command line's run, in process, traced layer by layer.
fn traced_pass(
    tr: &Tracer,
    design: &Path,
    dir: &Path,
    cache_dir: Option<&Path>,
    tiling: &TilingConfig,
    seen: &mut HashSet<u64>,
) -> Result<Traced, String> {
    let start = Instant::now();
    let root = Ctx::default();
    let config = cli_config();
    let flow = CardOpc::new(config.clone());

    let lib = tr.span("gds.read", root, |_| {
        let bytes = std::fs::read(design).map_err(|e| format!("{}: {e}", design.display()))?;
        tr.count("gds.read_bytes", bytes.len() as f64);
        cardopc_gds::parse_lib(&bytes).map_err(|e| e.to_string())
    })?;
    let clip = tr.span("layout.clip", root, |_| {
        cardopc_layout::clip_from_lib(&lib, LayerFilter::Layer(TARGET_LAYER), None)
    })?;
    let partition = tr
        .span("runtime.partition", root, |_| partition_clip(&clip, tiling))
        .map_err(|e| e.to_string())?;
    let cache = tr
        .span("runtime.cache.open", root, |_| {
            TileCache::open(&CacheConfig {
                dir: cache_dir.map(Path::to_path_buf),
                ..CacheConfig::default()
            })
        })
        .map_err(|e| e.to_string())?;
    let (run_dir, checkpoints, mut sink) = tr.span("runtime.checkpoint.load", root, |_| {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let run_dir = RunDir::open(dir).map_err(|e| e.to_string())?;
        let checkpoints = run_dir.load_records().map_err(|e| e.to_string())?;
        let sink = run_dir.append_handle().map_err(|e| e.to_string())?;
        Ok::<_, String>((run_dir, checkpoints, sink))
    })?;

    let before = cache.stats();
    let engines = EngineCache::new(THREADS);
    let control = RunControl {
        cache: Some(&cache),
        engines: Some(&engines),
        ..RunControl::default()
    };
    let pool = WorkerPool::new(THREADS);
    let cursor = AtomicUsize::new(0);
    let seen_shared = Mutex::new(std::mem::take(seen));
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let mut slots: Vec<Slot> = (0..THREADS)
        .map(|_| Slot {
            engine: None,
            results: Vec::new(),
        })
        .collect();
    let state = PassState {
        tr,
        partition: &partition,
        flow: &flow,
        checkpoints: &checkpoints,
        seen: &seen_shared,
        control: &control,
    };
    pool.run_with_slots(&mut slots, |slot_index, slot| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(tile) = partition.tiles.get(i) else {
            return;
        };
        match traced_tile(&state, tile, slot, slot_index) {
            Ok(result) => slot.results.push(result),
            Err(e) => {
                failure
                    .lock()
                    .expect("failure slot poisoned")
                    .get_or_insert(format!("tile {}: {e}", tile.index));
            }
        }
    });
    *seen = seen_shared.into_inner().expect("seen-set poisoned");
    if let Some(e) = failure.into_inner().expect("failure slot poisoned") {
        return Err(e);
    }
    let after = cache.stats();

    let mut results = Vec::new();
    let mut mismatches = Vec::new();
    for (result, mismatch) in slots.into_iter().flat_map(|s| s.results) {
        results.push(result);
        mismatches.extend(mismatch);
    }
    results.sort_by_key(|r| r.record.index);

    let executed: Vec<&TileResult> = results.iter().filter(|r| !r.resumed).collect();
    let checkpoint_bytes = tr.span("runtime.checkpoint.append", root, |_| {
        let mut bytes = 0;
        for r in &executed {
            RunDir::append_record(&mut sink, &r.record).map_err(|e| e.to_string())?;
            bytes += r.record.to_json_line().len() + 1;
        }
        Ok::<_, String>(bytes)
    })?;
    let records_appended = executed.len();
    let stitched = tr.span("runtime.stitch", root, |_| {
        stitch(
            &partition,
            results.iter().flat_map(|r| r.record.shapes.iter().cloned()),
            config.mrc.as_ref(),
        )
    });
    let cache_hits = after.hits - before.hits;
    let cache_misses = after.misses - before.misses;
    let stable = tr.span("runtime.manifest", root, |_| {
        let outcome = ScheduleOutcome {
            executed: executed.len(),
            resumed: results.len() - executed.len(),
            remaining: partition.tiles.len() - results.len(),
            tile_seconds: executed.iter().map(|r| r.record.seconds).sum(),
            cache_hits: cache_hits as usize,
            cache_misses: cache_misses as usize,
            cancelled: false,
            results: results.clone(),
        };
        let manifest = RunManifest::build(
            clip.name(),
            &partition,
            &outcome,
            Some(&stitched),
            THREADS,
            start.elapsed().as_secs_f64(),
        );
        let stable = manifest.to_json(false);
        run_dir
            .write_manifest(&manifest.to_json(true))
            .and_then(|()| run_dir.write_stable_manifest(&stable))
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(stable.into_bytes())
    })?;
    let mask = tr.span("runtime.gdsout", root, |_| {
        let bytes = write_mask_gds(
            &stitched,
            clip.name(),
            &MaskGdsOptions {
                samples_per_segment: config.samples_per_segment,
                ..MaskGdsOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(dir.join("mask.gds"), &bytes).map_err(|e| e.to_string())?;
        Ok::<_, String>(bytes)
    })?;
    let cache_bytes = after.bytes;
    tr.span("runtime.cache.close", root, |_| drop(cache));
    drop(run_dir);
    Ok(Traced {
        wall_s: start.elapsed().as_secs_f64(),
        stable,
        gdsout_bytes: mask.len(),
        mask,
        tiles: partition.tiles.len(),
        cache_hits,
        cache_misses,
        cache_bytes,
        records_appended,
        checkpoint_bytes,
        mismatches,
    })
}
