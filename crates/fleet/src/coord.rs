//! The fleet coordinator: lease-based tile dispatch with work stealing,
//! heartbeat-driven worker retirement, and checkpoint recovery.
//!
//! # State machine
//!
//! Every to-run tile moves through: **pending** → **leased** (dispatched
//! to a worker, lease clock running) → **done** (first valid result wins).
//! Transitions out of *leased* that do not finish the tile put it back in
//! *pending*:
//!
//! - the dispatch request fails or times out (the HTTP read timeout *is*
//!   the lease — a worker that does not answer within it loses the tile);
//! - the owning worker is retired (crash detected by the heartbeat
//!   prober, or `max_failures` consecutive errors).
//!
//! Near the tail an idle lane may **steal**: duplicate-dispatch a tile
//! whose every lease is older than `steal_after` to a different worker.
//! The first result marks the tile done; the loser's copy is discarded on
//! arrival (`duplicates` in [`FleetStats`]). Tiles are deterministic, so
//! which copy wins never changes the output — byte-identity by
//! construction.
//!
//! # Dispatch topology
//!
//! Each worker gets `window` lane threads, so at most `window` tiles are
//! in flight per worker — a slow box can absorb at most its window, not
//! the queue. Lanes pull from the shared pending queue (work-conserving),
//! then fall back to stealing.
//!
//! # Recovery
//!
//! The run lifecycle — run dir, resume, checkpointing, progress, tile
//! budget, stitching, both manifests — is [`cardopc_runtime::drive`], the
//! driver the in-process runtime uses too; this module supplies only the
//! executor above and a recovery hook. The driver resumes from the
//! coordinator's own run dir; the hook then sends the still-wanted tiles'
//! input hashes to every worker (`POST /v1/records`), and the driver
//! adopts each returned record whose tile index and hash match, and
//! re-checkpoints it locally. A coordinator restart therefore loses no
//! finished work even when its own run dir is gone (the workers'
//! checkpoints are the durable copy), a run dir either executor started
//! the other can finish, and recovery costs grow with the job, not with
//! a worker's age.

use crate::client;
use crate::proto;
use crate::spec::WorkSpec;
use cardopc_runtime::{
    drive, PendingTile, RunConfig, RunControl, RunManifest, RunOutcome, RuntimeError,
    ScheduleOutcome, Stitched, TileDone, TileRecord,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker addresses. At least one; a single worker is a valid
    /// (degenerate) fleet.
    pub workers: Vec<SocketAddr>,
    /// In-flight tiles per worker (lane threads). Bounds how much work a
    /// slow worker can absorb.
    pub window: usize,
    /// Per-tile lease: the dispatch request's IO timeout. A worker that
    /// does not answer within it loses the tile back to the queue.
    pub lease: Duration,
    /// Minimum lease age before an idle lane may duplicate-dispatch
    /// (steal) a tile leased to another worker.
    pub steal_after: Duration,
    /// Consecutive dispatch failures after which a worker is retired.
    pub max_failures: u32,
    /// Heartbeat probe interval per worker.
    pub heartbeat: Duration,
    /// Heartbeat probe timeout; three consecutive missed probes retire
    /// the worker without waiting out a full lease.
    pub heartbeat_timeout: Duration,
    /// Coordinator checkpoint/manifest directory (same layout as a
    /// single-process run's). `None` disables checkpointing.
    pub run_dir: Option<PathBuf>,
    /// Dispatch at most this many tiles (recovered/resumed tiles are
    /// free); `None` runs to completion.
    pub max_tiles: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            workers: Vec::new(),
            window: 2,
            lease: Duration::from_secs(120),
            steal_after: Duration::from_secs(20),
            max_failures: 3,
            heartbeat: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(1),
            run_dir: None,
            max_tiles: None,
        }
    }
}

/// Dispatch/robustness counters of one fleet run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Dispatch attempts (including steals and re-dispatches).
    pub dispatched: usize,
    /// Steal dispatches (duplicate of a still-leased tile).
    pub stolen: usize,
    /// Results discarded because another dispatch finished the tile
    /// first.
    pub duplicates: usize,
    /// Tiles returned to the queue after a failed/expired dispatch.
    pub redispatched: usize,
    /// Workers retired (crashed, hung, or persistently failing).
    pub retired_workers: usize,
    /// Tiles adopted from workers' checkpoints during startup recovery.
    pub recovered: usize,
}

/// Result of a fleet run. `outcome`/`stitched`/`manifest` mirror a
/// single-process [`RunOutcome`] over the same input (and convert into
/// one).
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The run manifest (timing-free form byte-identical to the
    /// single-process runtime's).
    pub manifest: RunManifest,
    /// The stitched full-chip mask; `None` when incomplete.
    pub stitched: Option<Stitched>,
    /// The assembled scheduler-equivalent outcome (results sorted by tile
    /// index; `resumed` counts own-checkpoint plus worker-recovered
    /// tiles).
    pub outcome: ScheduleOutcome,
    /// Dispatch/robustness counters.
    pub stats: FleetStats,
    /// `true` when every tile of the partition completed.
    pub complete: bool,
    /// `true` when the run stopped early on a cancelled handle.
    pub cancelled: bool,
}

impl From<FleetOutcome> for RunOutcome {
    fn from(fleet: FleetOutcome) -> RunOutcome {
        RunOutcome {
            manifest: fleet.manifest,
            stitched: fleet.stitched,
            outcome: fleet.outcome,
            recovered: fleet.stats.recovered,
            complete: fleet.complete,
            cancelled: fleet.cancelled,
        }
    }
}

/// Why a fleet run could not produce an outcome.
#[derive(Debug)]
pub enum FleetError {
    /// The configuration listed no workers.
    NoWorkers,
    /// Every worker was retired with tiles still unfinished.
    WorkersExhausted {
        /// Tiles left neither done nor recoverable.
        remaining: usize,
    },
    /// A runtime-layer failure (partitioning, checkpoint IO, or a tile
    /// that failed identically on every worker that tried it).
    Runtime(RuntimeError),
    /// The work spec's design could not be materialised (e.g. an
    /// unreadable or malformed GDS file).
    Spec(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "fleet has no workers"),
            FleetError::WorkersExhausted { remaining } => {
                write!(f, "all workers retired with {remaining} tiles unfinished")
            }
            FleetError::Runtime(e) => write!(f, "{e}"),
            FleetError::Spec(msg) => write!(f, "unusable spec: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<RuntimeError> for FleetError {
    fn from(e: RuntimeError) -> FleetError {
        FleetError::Runtime(e)
    }
}

/// One to-run tile's dispatch state.
struct TileSlot {
    index: usize,
    hash: u64,
    done: bool,
    in_pending: bool,
    /// Live leases: `(worker id, dispatch instant)`.
    leases: Vec<(usize, Instant)>,
}

struct WorkerSlot {
    addr: SocketAddr,
    failures: u32,
    heartbeat_misses: u32,
    retired: bool,
}

struct State {
    tiles: Vec<TileSlot>,
    pending: VecDeque<usize>,
    done: usize,
    workers: Vec<WorkerSlot>,
    alive: usize,
    stats: FleetStats,
    /// Lowest-indexed tile whose dispatch failed with a worker-side tile
    /// error (HTTP 500) — surfaced if the run cannot complete.
    tile_error: Option<(usize, String)>,
    aborted: bool,
    active_lanes: usize,
}

struct Shared<'a> {
    state: Mutex<State>,
    cv: Condvar,
    spec: &'a WorkSpec,
    config: &'a FleetConfig,
    control: &'a RunControl<'a>,
    done: &'a TileDone<'a>,
}

impl Shared<'_> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs one correction job across the configured workers and assembles
/// the same outcome a single-process run would produce.
///
/// `control` supplies per-tile progress events and cooperative
/// cancellation; its engine/tile caches are ignored (the coordinator
/// corrects nothing itself).
///
/// # Errors
///
/// [`FleetError::NoWorkers`] for an empty fleet,
/// [`FleetError::WorkersExhausted`] when every worker was retired with
/// tiles unfinished, [`FleetError::Runtime`] for partition/checkpoint
/// failures or a tile whose correction fails on the workers.
///
/// # Panics
///
/// Panics when `spec.opc` is invalid (mirrors
/// [`cardopc_runtime::run_clip`]'s contract); wire-facing callers
/// validate first via [`crate::spec::validate`].
pub fn run_fleet(
    spec: &WorkSpec,
    config: &FleetConfig,
    control: &RunControl<'_>,
) -> Result<FleetOutcome, FleetError> {
    if config.workers.is_empty() {
        return Err(FleetError::NoWorkers);
    }
    let clip = spec.build_clip().map_err(FleetError::Spec)?;
    let run = RunConfig {
        opc: spec.opc.clone(),
        tiling: spec.tiling,
        run_dir: config.run_dir.clone(),
        max_tiles: config.max_tiles,
    };
    let control = RunControl {
        engines: None,
        cache: None,
        ..*control
    };
    let recover = |wanted: &[PendingTile<'_>]| recover_from_workers(config, wanted);
    let mut stats = FleetStats::default();
    let run = drive(
        &clip,
        &run,
        config.workers.len(),
        &control,
        Some(&recover),
        |_, todo, done| {
            stats = dispatch(spec, config, &control, todo, done)?;
            Ok::<_, FleetError>(())
        },
    )?;
    stats.recovered = run.recovered;
    Ok(FleetOutcome {
        manifest: run.manifest,
        stitched: run.stitched,
        outcome: run.outcome,
        stats,
        complete: run.complete,
        cancelled: run.cancelled,
    })
}

/// Hashes per `POST /v1/records` request, keeping bodies far below the
/// workers' request-size cap for any partition size.
const RECOVERY_BATCH: usize = 4096;

/// The recovery hook: asks every worker for the records it holds for the
/// wanted tiles' input hashes. A fresh or unreachable worker simply
/// contributes nothing; the driver validates every returned record and
/// ignores duplicates.
fn recover_from_workers(config: &FleetConfig, wanted: &[PendingTile<'_>]) -> Vec<TileRecord> {
    let hashes: Vec<u64> = wanted.iter().map(|p| p.input_hash).collect();
    let mut records = Vec::new();
    for addr in &config.workers {
        for batch in hashes.chunks(RECOVERY_BATCH) {
            let body = proto::records_body(batch);
            let Ok(response) = client::request_with_timeout(
                *addr,
                "POST",
                "/v1/records",
                Some(&body),
                config.lease,
            ) else {
                break;
            };
            if response.status != 200 {
                break;
            }
            records.extend(
                response
                    .body_str()
                    .lines()
                    .filter_map(|line| TileRecord::from_json_line(line.trim()).ok()),
            );
        }
    }
    records
}

/// The fleet executor: dispatches `todo` over the workers' lanes (with
/// leases, steals and heartbeat retirement) and reports each first valid
/// result through `done`.
fn dispatch(
    spec: &WorkSpec,
    config: &FleetConfig,
    control: &RunControl<'_>,
    todo: &[PendingTile<'_>],
    done: &TileDone<'_>,
) -> Result<FleetStats, FleetError> {
    let lanes = config.workers.len() * config.window.max(1);
    let shared = Shared {
        state: Mutex::new(State {
            pending: (0..todo.len()).collect(),
            tiles: todo
                .iter()
                .map(|p| TileSlot {
                    index: p.tile.index,
                    hash: p.input_hash,
                    done: false,
                    in_pending: true,
                    leases: Vec::new(),
                })
                .collect(),
            done: 0,
            workers: config
                .workers
                .iter()
                .map(|&addr| WorkerSlot {
                    addr,
                    failures: 0,
                    heartbeat_misses: 0,
                    retired: false,
                })
                .collect(),
            alive: config.workers.len(),
            stats: FleetStats::default(),
            tile_error: None,
            aborted: false,
            active_lanes: lanes,
        }),
        cv: Condvar::new(),
        spec,
        config,
        control,
        done,
    };

    std::thread::scope(|scope| {
        for worker_id in 0..config.workers.len() {
            for _ in 0..config.window.max(1) {
                let shared = &shared;
                scope.spawn(move || lane_loop(shared, worker_id));
            }
            let shared = &shared;
            scope.spawn(move || heartbeat_loop(shared, worker_id));
        }
    });

    let state = shared
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let unfinished = todo.len() - state.done;
    if state.alive == 0 && unfinished > 0 && !control.cancelled() {
        // Surface a deterministic tile failure when one was observed —
        // workers were likely retired *because* the tile itself fails.
        if let Some((tile, message)) = state.tile_error {
            return Err(FleetError::Runtime(RuntimeError::Io(format!(
                "tile {tile} failed on the fleet: {message}"
            ))));
        }
        return Err(FleetError::WorkersExhausted {
            remaining: unfinished,
        });
    }
    Ok(state.stats)
}

/// What a lane decided to do while holding the state lock.
enum Claim {
    /// Dispatch tile `tiles[pos]`.
    Dispatch { pos: usize, index: usize, hash: u64 },
    /// Nothing claimable right now; lane exits.
    Finished,
}

/// One dispatch lane: claim → HTTP dispatch (lease = IO timeout) →
/// settle. Exits when all tiles are done, the run is aborted/cancelled,
/// or its worker is retired.
///
/// Each lane owns one keep-alive [`client::Connection`] to its worker, so
/// after the first tile a dispatch costs a request/response exchange, not
/// a TCP connect + teardown per tile. A stale connection (worker idle
/// timeout between tiles) is retried once on a fresh one inside the
/// client; dispatch is idempotent, so the retry is safe.
fn lane_loop(shared: &Shared<'_>, worker_id: usize) {
    let addr = {
        let state = shared.lock();
        state.workers[worker_id].addr
    };
    let mut connection = client::Connection::new(addr);
    loop {
        let claim = claim_tile(shared, worker_id);
        let Claim::Dispatch { pos, index, hash } = claim else {
            break;
        };
        let body = proto::dispatch_body(shared.spec, index);
        let outcome = connection
            .request_with_timeout("POST", "/v1/tiles", Some(&body), shared.config.lease)
        .map_err(|e| (false, e.to_string()))
        .and_then(|response| {
            if response.status == 200 {
                TileRecord::from_json_line(response.body_str().trim())
                    .map_err(|e| (false, format!("unparseable record: {e}")))
            } else {
                // A 5xx is a worker-side tile failure (deterministic for a
                // broken tile); transport errors stay "maybe transient".
                let tile_side = response.status >= 500;
                Err((
                    tile_side,
                    format!("worker answered {}: {}", response.status, response.body_str()),
                ))
            }
        })
        .and_then(|record| {
            if record.index == index && record.input_hash == hash {
                Ok(record)
            } else {
                Err((
                    false,
                    format!(
                        "record mismatch: got tile {} hash {:016x}, want tile {index} hash {hash:016x}",
                        record.index, record.input_hash
                    ),
                ))
            }
        });
        settle(shared, worker_id, pos, outcome);
    }
    let mut state = shared.lock();
    state.active_lanes -= 1;
    drop(state);
    shared.cv.notify_all();
}

/// Claims the next tile for `worker_id`: pending first, then a steal.
/// Blocks (with periodic wakeups, so steal ages are re-examined) while
/// other workers still hold fresh leases.
fn claim_tile(shared: &Shared<'_>, worker_id: usize) -> Claim {
    let mut state = shared.lock();
    loop {
        if state.done == state.tiles.len()
            || state.aborted
            || state.workers[worker_id].retired
            || shared.control.cancelled()
        {
            return Claim::Finished;
        }
        // Pending queue first (work-conserving).
        let mut picked = None;
        while let Some(pos) = state.pending.pop_front() {
            state.tiles[pos].in_pending = false;
            if !state.tiles[pos].done {
                picked = Some(pos);
                break;
            }
        }
        // Tail: steal a tile whose every lease has aged past the steal
        // threshold and belongs to someone else. Capped at two live
        // leases per tile — one steal in flight at a time.
        if picked.is_none() {
            let now = Instant::now();
            let steal_after = shared.config.steal_after;
            picked = state.tiles.iter().position(|t| {
                !t.done
                    && !t.in_pending
                    && !t.leases.is_empty()
                    && t.leases.len() < 2
                    && t.leases.iter().all(|&(w, since)| {
                        w != worker_id && now.duration_since(since) >= steal_after
                    })
            });
            if picked.is_some() {
                state.stats.stolen += 1;
            }
        }
        match picked {
            Some(pos) => {
                state.tiles[pos].leases.push((worker_id, Instant::now()));
                state.stats.dispatched += 1;
                return Claim::Dispatch {
                    pos,
                    index: state.tiles[pos].index,
                    hash: state.tiles[pos].hash,
                };
            }
            None => {
                state = shared
                    .cv
                    .wait_timeout(state, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }
}

/// Settles one dispatch: first valid result wins; failures re-queue the
/// tile and count toward the worker's retirement.
fn settle(
    shared: &Shared<'_>,
    worker_id: usize,
    pos: usize,
    outcome: Result<TileRecord, (bool, String)>,
) {
    let mut state = shared.lock();
    state.tiles[pos].leases.retain(|&(w, _)| w != worker_id);
    match outcome {
        Ok(record) => {
            state.workers[worker_id].failures = 0;
            let first = !state.tiles[pos].done;
            if first {
                state.tiles[pos].done = true;
                state.done += 1;
            } else {
                state.stats.duplicates += 1;
            }
            drop(state);
            shared.cv.notify_all();
            if first {
                (shared.done)(record, false);
            }
        }
        Err((tile_side, message)) => {
            if tile_side {
                let index = state.tiles[pos].index;
                match &mut state.tile_error {
                    Some((lowest, _)) if *lowest <= index => {}
                    slot => *slot = Some((index, message)),
                }
            }
            if !state.tiles[pos].done {
                state.stats.redispatched += 1;
                if state.tiles[pos].leases.is_empty() && !state.tiles[pos].in_pending {
                    state.tiles[pos].in_pending = true;
                    state.pending.push_front(pos);
                }
            }
            state.workers[worker_id].failures += 1;
            if state.workers[worker_id].failures >= shared.config.max_failures {
                retire_worker(&mut state, worker_id);
            }
            drop(state);
            shared.cv.notify_all();
        }
    }
}

/// Retires a worker: releases its leases (re-queueing orphaned tiles) and
/// aborts the run when no workers remain.
fn retire_worker(state: &mut State, worker_id: usize) {
    if state.workers[worker_id].retired {
        return;
    }
    state.workers[worker_id].retired = true;
    state.alive -= 1;
    state.stats.retired_workers += 1;
    for pos in 0..state.tiles.len() {
        let tile = &mut state.tiles[pos];
        tile.leases.retain(|&(w, _)| w != worker_id);
        if !tile.done && tile.leases.is_empty() && !tile.in_pending {
            tile.in_pending = true;
            state.pending.push_back(pos);
        }
    }
    if state.alive == 0 {
        state.aborted = true;
    }
}

/// Probes one worker's `/healthz`; three consecutive misses retire it —
/// much faster than waiting out a lease on a crashed process. A worker
/// busy correcting still answers (requests are served concurrently), so
/// load alone never retires anyone.
fn heartbeat_loop(shared: &Shared<'_>, worker_id: usize) {
    let finished = |state: &State| {
        state.active_lanes == 0
            || state.done == state.tiles.len()
            || state.aborted
            || state.workers[worker_id].retired
    };
    loop {
        // Sleep on the condvar, not the clock: when the lanes drain the
        // run must not wait out a heartbeat interval before joining.
        {
            let mut state = shared.lock();
            let deadline = Instant::now() + shared.config.heartbeat;
            loop {
                if finished(&state) {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                state = shared
                    .cv
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        let addr = {
            let state = shared.lock();
            if finished(&state) {
                return;
            }
            state.workers[worker_id].addr
        };
        let healthy = client::request_with_timeout(
            addr,
            "GET",
            "/healthz",
            None,
            shared.config.heartbeat_timeout,
        )
        .map(|r| r.status == 200)
        .unwrap_or(false);
        let mut state = shared.lock();
        if healthy {
            state.workers[worker_id].heartbeat_misses = 0;
        } else {
            state.workers[worker_id].heartbeat_misses += 1;
            if state.workers[worker_id].heartbeat_misses >= 3 {
                retire_worker(&mut state, worker_id);
                drop(state);
                shared.cv.notify_all();
            }
        }
    }
}
