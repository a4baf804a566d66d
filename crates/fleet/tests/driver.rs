//! The run driver's contract across its two executors: one run
//! directory can be started by the fleet coordinator and finished by the
//! in-process pool, or the other way round, and the result is
//! byte-identical to an uninterrupted run. Both executors report resumed
//! tiles first and a strictly increasing `completed` count.

use cardopc_fleet::spec::DesignSpec;
use cardopc_fleet::worker::{WorkerConfig, WorkerServer};
use cardopc_fleet::{run_fleet, FleetConfig, WorkSpec};
use cardopc_layout::DesignKind;
use cardopc_litho::WorkerPool;
use cardopc_opc::OpcConfig;
use cardopc_runtime::{
    run_clip_controlled, write_mask_gds, MaskGdsOptions, RunConfig, RunControl, RunDir, RunOutcome,
    TileEvent, TilingConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// 1024 nm gcd crop as 2×2 tiles (512 nm cores + 256 nm halo).
fn spec() -> WorkSpec {
    let mut opc = OpcConfig::large_scale();
    opc.pitch = 16.0;
    opc.iterations = 3;
    WorkSpec {
        design: DesignSpec::generated(DesignKind::Gcd, 1, Some(1024.0)),
        tiling: TilingConfig {
            tile_size: 512.0,
            halo: 256.0,
        },
        opc,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cardopc-driver-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Progress events of one run, recorded in arrival order.
#[derive(Default)]
struct Events(Mutex<Vec<TileEvent>>);

impl Events {
    fn record(&self, event: &TileEvent) {
        self.0.lock().unwrap().push(event.clone());
    }

    /// Asserts the driver's progress contract: `resumed` resumed tiles
    /// first, then executed ones, with `completed` counting 1, 2, … up
    /// to `completed`.
    fn check(self, label: &str, resumed: usize, completed: usize) {
        let events = self.0.into_inner().unwrap();
        let flags: Vec<bool> = events.iter().map(|e| e.resumed).collect();
        let expected = [vec![true; resumed], vec![false; completed - resumed]].concat();
        assert_eq!(flags, expected, "{label}: resumed tiles first: {events:?}");
        let counts: Vec<usize> = events.iter().map(|e| e.completed).collect();
        assert_eq!(counts, (1..=completed).collect::<Vec<_>>(), "{label}");
        assert!(events.iter().all(|e| e.total == 4), "{label}: {events:?}");
    }
}

fn in_process(
    spec: &WorkSpec,
    dir: &Path,
    max_tiles: Option<usize>,
    events: &Events,
) -> RunOutcome {
    let config = RunConfig {
        run_dir: Some(dir.to_path_buf()),
        max_tiles,
        ..RunConfig::new(spec.opc.clone(), spec.tiling)
    };
    let progress = |e: &TileEvent| events.record(e);
    let control = RunControl {
        progress: Some(&progress),
        ..RunControl::default()
    };
    let clip = spec.build_clip().unwrap();
    run_clip_controlled(&clip, &config, &WorkerPool::new(2), &control).unwrap()
}

fn on_fleet(spec: &WorkSpec, dir: &Path, max_tiles: Option<usize>, events: &Events) -> RunOutcome {
    // A fresh worker holds no records, so everything resumed comes from
    // the run directory.
    let worker = WorkerServer::start(WorkerConfig::default()).unwrap();
    let config = FleetConfig {
        workers: vec![worker.local_addr()],
        run_dir: Some(dir.to_path_buf()),
        max_tiles,
        ..FleetConfig::default()
    };
    let progress = |e: &TileEvent| events.record(e);
    let control = RunControl {
        progress: Some(&progress),
        ..RunControl::default()
    };
    let outcome = run_fleet(spec, &config, &control).unwrap();
    assert_eq!(outcome.stats.recovered, 0);
    outcome.into()
}

fn mask_gds(outcome: &RunOutcome) -> Vec<u8> {
    let stitched = outcome.stitched.as_ref().expect("complete run is stitched");
    write_mask_gds(stitched, "driver", &MaskGdsOptions::default()).unwrap()
}

fn stable_manifest(dir: &Path) -> Vec<u8> {
    std::fs::read(RunDir::open(dir).unwrap().stable_manifest_path()).unwrap()
}

type Executor = fn(&WorkSpec, &Path, Option<usize>, &Events) -> RunOutcome;

#[test]
fn one_run_dir_is_shared_by_both_executors() {
    let spec = spec();
    let reference_dir = temp_dir("reference");
    let reference = in_process(&spec, &reference_dir, None, &Events::default());
    assert!(reference.complete);
    let reference_manifest = stable_manifest(&reference_dir);
    let reference_mask = mask_gds(&reference);

    let orders: [(&str, Executor, Executor); 2] = [
        ("fleet-then-pool", on_fleet, in_process),
        ("pool-then-fleet", in_process, on_fleet),
    ];
    for (label, start, finish) in orders {
        let dir = temp_dir(label);
        let started = Events::default();
        let partial = start(&spec, &dir, Some(2), &started);
        assert!(!partial.complete, "{label}");
        assert_eq!(partial.manifest.executed, 2, "{label}");
        assert_eq!(partial.manifest.remaining, 2, "{label}");
        started.check(label, 0, 2);

        let finished = Events::default();
        let done = finish(&spec, &dir, None, &finished);
        assert!(done.complete, "{label}");
        assert_eq!(done.manifest.resumed, 2, "{label}");
        assert_eq!(done.manifest.executed, 2, "{label}");
        finished.check(label, 2, 4);

        assert_eq!(stable_manifest(&dir), reference_manifest, "{label}");
        assert_eq!(mask_gds(&done), reference_mask, "{label}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference_dir);
}
