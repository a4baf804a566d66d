//! The run driver: the one lifecycle every tiled run goes through,
//! whoever corrects the tiles (see the crate docs, step 2). Callers
//! supply only what differs between them — the executor that turns
//! to-run tiles into [`TileRecord`]s, and an optional recovery hook — so
//! resume, checkpointing, progress order, stitching and manifests cannot
//! drift between executors, and a run directory one executor started
//! the other can finish.

use crate::checkpoint::{tile_input_hash, RunDir, TileRecord};
use crate::handle::{RunControl, TileEvent};
use crate::manifest::RunManifest;
use crate::partition::{partition_clip, Partition, Tile};
use crate::schedule::{ScheduleOutcome, TileResult};
use crate::stitch::stitch;
use crate::{RunConfig, RunOutcome, RuntimeError};
use cardopc_layout::Clip;
use std::sync::{Mutex, PoisonError};

/// A tile the run still wants, with its input hash (the key checkpoint
/// and recovered records are matched against).
#[derive(Clone, Copy, Debug)]
pub struct PendingTile<'a> {
    /// The tile.
    pub tile: &'a Tile,
    /// [`tile_input_hash`] of the tile under the run's OPC configuration.
    pub input_hash: u64,
}

/// The executor's completion callback: one call per finished tile, with
/// the tile's record and whether it was replayed from the tile cache.
/// Safe to call from any thread; calls are serialised, so progress
/// observers see a strictly increasing `completed` count.
pub type TileDone<'a> = dyn Fn(TileRecord, bool) + Sync + 'a;

/// A recovery hook: offered the tiles the run directory lacks, it returns
/// whatever records it can find for them. The driver adopts only records
/// whose tile index and input hash match a wanted tile.
pub type Recover<'a> = dyn Fn(&[PendingTile<'_>]) -> Vec<TileRecord> + 'a;

/// Runs the tiled lifecycle over `clip`: partition → resume → recover →
/// execute → checkpoint → stitch → manifest.
///
/// `execute` receives the partition and the to-run tiles (index order,
/// budget applied) and must report every tile it finishes through the
/// callback exactly once; tiles it does not report stay `remaining`.
/// `workers` is the executor count the manifest records.
///
/// # Errors
///
/// Partition, run-directory and checkpoint failures as
/// [`RuntimeError`]s (converted into `E`); a checkpoint append failure
/// takes precedence over the executor's own error, which is returned
/// otherwise.
pub fn drive<E: From<RuntimeError>>(
    clip: &Clip,
    config: &RunConfig,
    workers: usize,
    control: &RunControl<'_>,
    recover: Option<&Recover<'_>>,
    execute: impl FnOnce(&Partition, &[PendingTile<'_>], &TileDone<'_>) -> Result<(), E>,
) -> Result<RunOutcome, E> {
    let start = std::time::Instant::now();
    let partition = partition_clip(clip, &config.tiling)?;
    let total = partition.tiles.len();

    let run_dir = config.run_dir.as_ref().map(RunDir::open).transpose()?;
    let checkpoints = match &run_dir {
        Some(dir) => dir.load_records()?,
        None => Default::default(),
    };
    let mut sink = run_dir.as_ref().map(RunDir::append_handle).transpose()?;

    // Resume every tile whose checkpoint still matches its input hash.
    let mut results: Vec<TileResult> = Vec::with_capacity(total);
    let mut pending: Vec<PendingTile<'_>> = Vec::new();
    for tile in &partition.tiles {
        let input_hash = tile_input_hash(tile, &config.opc);
        match checkpoints.get(&tile.index) {
            Some(record) if record.input_hash == input_hash => {
                results.push(resumed(record.clone()));
            }
            _ => pending.push(PendingTile { tile, input_hash }),
        }
    }

    // Adopt offered records for still-wanted tiles, re-checkpointing them
    // so the next resume needs no recovery.
    let mut recovered = 0;
    if let (Some(recover), false) = (recover, pending.is_empty()) {
        let mut wanted: Vec<Option<u64>> = vec![None; total];
        for p in &pending {
            wanted[p.tile.index] = Some(p.input_hash);
        }
        for record in recover(&pending) {
            match wanted.get_mut(record.index) {
                Some(slot) if *slot == Some(record.input_hash) => *slot = None,
                _ => continue,
            }
            if let Some(file) = sink.as_mut() {
                RunDir::append_record(file, &record)?;
            }
            recovered += 1;
            results.push(resumed(record));
        }
        pending.retain(|p| wanted[p.tile.index].is_some());
        results.sort_unstable_by_key(|r| r.record.index);
    }
    let resumed_count = results.len();

    // Resumed tiles are finished before any work starts: report them
    // first so an observer's completed counter is monotonic.
    if let Some(progress) = control.progress {
        for (done, r) in results.iter().enumerate() {
            progress(&event(r, done + 1, total));
        }
    }

    if let Some(budget) = config.max_tiles {
        pending.truncate(budget);
    }

    // One lock serialises checkpoint appends and progress calls, so
    // events arrive in `completed` order.
    struct Sink {
        file: Option<std::fs::File>,
        executed: Vec<TileResult>,
        io_error: Option<RuntimeError>,
    }
    let state = Mutex::new(Sink {
        file: sink,
        executed: Vec::new(),
        io_error: None,
    });
    let done = |record: TileRecord, cached: bool| {
        let mut guard = state.lock().unwrap_or_else(PoisonError::into_inner);
        let s = &mut *guard;
        if let Some(file) = s.file.as_mut() {
            if let Err(e) = RunDir::append_record(file, &record) {
                s.io_error.get_or_insert(e);
            }
        }
        let result = TileResult {
            record,
            resumed: false,
            cached,
        };
        if let Some(progress) = control.progress {
            progress(&event(&result, resumed_count + s.executed.len() + 1, total));
        }
        s.executed.push(result);
    };
    let executed = execute(&partition, &pending, &done);
    let state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = state.io_error {
        return Err(e.into());
    }
    executed?;

    results.extend(state.executed);
    results.sort_unstable_by_key(|r| r.record.index);
    let executed: Vec<&TileResult> = results.iter().filter(|r| !r.resumed).collect();
    let cache_hits = executed.iter().filter(|r| r.cached).count();
    let outcome = ScheduleOutcome {
        executed: executed.len(),
        resumed: resumed_count,
        remaining: total - results.len(),
        tile_seconds: executed.iter().fold(0.0, |acc, r| acc + r.record.seconds),
        cache_hits,
        cache_misses: match control.cache {
            Some(_) => executed.len() - cache_hits,
            None => 0,
        },
        cancelled: control.cancelled(),
        results,
    };
    let complete = outcome.remaining == 0;
    let stitched = complete.then(|| {
        stitch(
            &partition,
            outcome
                .results
                .iter()
                .flat_map(|r| r.record.shapes.iter().cloned()),
            config.opc.mrc.as_ref(),
        )
    });
    let manifest = RunManifest::build(
        clip.name(),
        &partition,
        &outcome,
        stitched.as_ref(),
        workers,
        start.elapsed().as_secs_f64(),
    );
    if let (Some(dir), true) = (&run_dir, complete) {
        dir.write_manifest(&manifest.to_json(true))?;
        // The timing-free companion: byte-identical across reruns,
        // resumes, executors, worker counts and cache states.
        dir.write_stable_manifest(&manifest.to_json(false))?;
    }

    Ok(RunOutcome {
        complete,
        cancelled: outcome.cancelled,
        outcome,
        stitched,
        manifest,
        recovered,
    })
}

fn resumed(record: TileRecord) -> TileResult {
    TileResult {
        record,
        resumed: true,
        cached: false,
    }
}

fn event(result: &TileResult, completed: usize, total: usize) -> TileEvent {
    TileEvent {
        tile: result.record.index,
        name: result.record.name.clone(),
        resumed: result.resumed,
        cached: result.cached,
        seconds: result.record.seconds,
        completed,
        total,
    }
}
