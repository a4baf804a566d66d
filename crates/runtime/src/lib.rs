//! `cardopc-runtime` — a tiled full-chip OPC runtime.
//!
//! [`CardOpc`](cardopc_opc::CardOpc) corrects one clip against one
//! simulation grid; full-chip layouts are far larger than the maximum
//! grid. This crate scales the flow out by tiling:
//!
//! 1. **Partition** ([`partition_clip`]): the clip is split into core
//!    windows with a halo margin; every target is owned by exactly one
//!    tile (bbox-centre rule over an R-tree), and halo copies give each
//!    tile the optical context a monolithic run would see.
//! 2. **Drive** ([`drive`]): one run lifecycle for every executor. It
//!    resumes checkpointed tiles, adopts records an optional recovery
//!    hook offers, reports resumed tiles first, applies the tile budget,
//!    and hands the rest to an executor that reports each finished
//!    [`TileRecord`] through one callback. Two executors exist: the
//!    in-process pool fan-out behind [`run_clip`], where each
//!    [`WorkerPool`] slot holds its own calibrated
//!    [`LithoEngine`](cardopc_litho::LithoEngine) keyed by the (uniform)
//!    window extent, and the `cardopc-fleet` coordinator's lease/steal
//!    lanes. Results are merged in tile order, so the outcome is
//!    deterministic for any executor and worker count.
//! 3. **Checkpoint** ([`RunDir`]): the driver appends every finished
//!    tile's self-describing JSONL record (input hash, control points,
//!    metrics); a resumed run — by either executor — skips every tile
//!    whose record still matches its input hash.
//! 4. **Stitch** ([`stitch`]): once every tile is done, the driver merges
//!    owner-tile shapes into the full-chip mask and runs a cross-boundary
//!    MRC spacing pass on the seam bands only.
//! 5. **Manifest** ([`RunManifest`]): per-tile and aggregate statistics,
//!    renderable as a table or JSON; the timing-free JSON form is
//!    byte-identical across reruns and resumes of the same input.
//! 6. **Control** ([`RunControl`]): long-lived embedders attach per-tile
//!    progress callbacks, a cooperative [`RunHandle`] cancellation token
//!    (checked at tile boundaries, so cancelled runs stay resumable), and
//!    a cross-run [`EngineCache`] via [`run_clip_controlled`]. The driver
//!    serialises progress events, so `completed` strictly increases
//!    whichever executor runs the tiles.
//! 7. **Tile cache** ([`TileCache`]): a persistent content-addressed
//!    store keyed by a translation-normalised tile pattern hash; a
//!    congruent tile anywhere on the chip — or in a later job — replays
//!    the stored window-relative correction instead of re-running it, so
//!    cost collapses from total tiles to *unique* tile patterns.
//!
//! The `cardopc` binary (in the `cardopc-serve` crate) wraps this into a
//! command-line runner and an HTTP correction service.

pub mod cache;
pub mod checkpoint;
pub mod driver;
mod error;
pub mod gdsout;
pub mod handle;
pub mod json;
pub mod manifest;
pub mod partition;
pub mod schedule;
pub mod stitch;

pub use cache::{tile_cache_key, CacheConfig, CacheStats, CachedShape, CachedTile, TileCache};
pub use checkpoint::{tile_input_hash, RunDir, StitchedShape, TileMetrics, TileRecord};
pub use driver::{drive, PendingTile, Recover, TileDone};
pub use error::RuntimeError;
pub use gdsout::{write_mask_gds, MaskGdsOptions, MASK_NM_PER_DBU};
pub use handle::{EngineCache, RunControl, RunHandle, TileEvent};
pub use manifest::{Aggregate, RunManifest, TileSummary};
pub use partition::{partition_clip, Partition, Tile, TilingConfig};
pub use schedule::{correct_single_tile, ScheduleOutcome, TileResult};
pub use stitch::{seam_bands, stitch, Stitched};

use cardopc_layout::Clip;
use cardopc_litho::WorkerPool;
use cardopc_opc::{CardOpc, OpcConfig};
use std::path::PathBuf;

/// Configuration of one tiled run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The per-tile OPC flow configuration.
    pub opc: OpcConfig,
    /// Tiling geometry.
    pub tiling: TilingConfig,
    /// Checkpoint/manifest directory. `None` disables checkpointing.
    /// When the directory already holds records from a previous run over
    /// the same input, those tiles are resumed instead of re-executed.
    pub run_dir: Option<PathBuf>,
    /// Execute at most this many tiles, then stop (resumed tiles are
    /// free). `None` runs to completion.
    pub max_tiles: Option<usize>,
}

impl RunConfig {
    /// A run configuration with no checkpointing and no tile budget.
    pub fn new(opc: OpcConfig, tiling: TilingConfig) -> RunConfig {
        RunConfig {
            opc,
            tiling,
            run_dir: None,
            max_tiles: None,
        }
    }
}

/// Result of [`run_clip`], or of any executor run through [`drive`].
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The run manifest (written to `run_dir/manifest.json` when the run
    /// completed and a run directory was configured).
    pub manifest: RunManifest,
    /// The stitched full-chip mask; `None` when the tile budget left the
    /// run incomplete.
    pub stitched: Option<Stitched>,
    /// Per-tile results (sorted by tile index) and tallies; `resumed`
    /// counts checkpointed and recovered tiles alike.
    pub outcome: ScheduleOutcome,
    /// Tiles adopted from the driver's recovery hook (0 without one).
    pub recovered: usize,
    /// `true` when every tile of the partition completed.
    pub complete: bool,
    /// `true` when the run stopped early because its [`RunHandle`] was
    /// cancelled (the checkpointed tiles make it resumable).
    pub cancelled: bool,
}

/// Runs the tiled flow end to end on `pool`: partition → resume →
/// execute → stitch → manifest (see [`drive`]).
///
/// # Errors
///
/// [`RuntimeError::InvalidConfig`] for unusable tiling parameters,
/// [`RuntimeError::Tile`] when a tile's flow fails, [`RuntimeError::Io`]
/// on checkpoint/manifest file failures.
///
/// # Panics
///
/// Panics when `config.opc` is invalid (see
/// [`OpcConfig::assert_valid`](cardopc_opc::OpcConfig)); the OPC
/// configuration is build-time data, not user input.
pub fn run_clip(
    clip: &Clip,
    config: &RunConfig,
    pool: &WorkerPool,
) -> Result<RunOutcome, RuntimeError> {
    run_clip_controlled(clip, config, pool, &RunControl::default())
}

/// [`run_clip`] with [`RunControl`] hooks attached: per-tile progress
/// callbacks, cooperative cancellation (checked at tile boundaries — a
/// cancelled run checkpoints its finished tiles and returns an
/// incomplete, resumable outcome), and an optional cross-run
/// [`EngineCache`]. This is the entry point long-lived embedders such as
/// `cardopc-serve` drive; `run_clip` is this with no hooks.
///
/// # Errors
///
/// See [`run_clip`].
///
/// # Panics
///
/// See [`run_clip`].
pub fn run_clip_controlled(
    clip: &Clip,
    config: &RunConfig,
    pool: &WorkerPool,
    control: &RunControl<'_>,
) -> Result<RunOutcome, RuntimeError> {
    let flow = CardOpc::new(config.opc.clone());
    drive(
        clip,
        config,
        pool.parallelism(),
        control,
        None,
        |partition, todo, done| schedule::run_on_pool(partition, &flow, pool, todo, done, control),
    )
}
