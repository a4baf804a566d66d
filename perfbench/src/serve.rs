//! The `serve_fleet` workload: `cardopc serve` with two spawned workers,
//! driven by one client under an open-loop seeded arrival schedule at two
//! fixed rates. Jobs are small GDS clips uploaded into the server's run
//! root during set-up and run at f32 precision; a seeded share of the
//! jobs repeat an earlier job exactly.
//!
//! Each job is timed from when it was due to be sent until its result is
//! in hand, so a stall also charges the jobs queued behind it. After the
//! schedule, a second server, set up the same way, measures the capacity
//! closed loop over the schedule's first jobs.

use crate::chip::{replay_tile, Slot};
use crate::gdsgen;
use crate::layers::Layers;
use crate::proc;
use crate::stats::{median, quantile};
use crate::trace::{Ctx, Tracer};
use crate::{Args, Report, SETUPS};
use cardopc_fleet::client::{self, HttpResponse};
use cardopc_fleet::proto::dispatch_body;
use cardopc_fleet::spec::DesignSpec;
use cardopc_fleet::worker::{WorkerConfig, WorkerServer};
use cardopc_fleet::WorkSpec;
use cardopc_geometry::SplitMix64;
use cardopc_json::Json;
use cardopc_layout::{LayerFilter, TARGET_LAYER};
use cardopc_litho::Precision;
use cardopc_opc::{CardOpc, OpcConfig};
use cardopc_runtime::{partition_clip, TileRecord, TilingConfig};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered arrival rates, jobs per second, fixed from the capacity
/// measured at the commit that introduced this benchmark (see
/// `BENCHMARK.json`): about 40 % and 80 % of it.
const LIGHT_RATE: f64 = 6.7;
const PEAK_RATE: f64 = 13.4;
/// Share of jobs that repeat an earlier job exactly.
const REPEAT_SHARE: f64 = 0.25;
/// Each job is a crop (width, height in nm) cut into 2×1 tiles, one per
/// worker.
const JOB_CROP_NM: (f64, f64) = (1024.0, 512.0);
const JOB_TILING: TilingConfig = TilingConfig {
    tile_size: 512.0,
    halo: 256.0,
};
const JOB_WIRES: std::ops::RangeInclusive<usize> = 4..=5;
/// Warm-up jobs run during set-up, before timing.
const WARMUP_JOBS: usize = 4;
/// The generator may send a job at most this late; a later send makes
/// the run invalid.
const LATENESS_LIMIT_S: f64 = 0.1;
/// Client polling interval for a running job's state.
const POLL_RUNNING: Duration = Duration::from_millis(8);
/// A queued job is polled again as soon as the client sees any job finish
/// (see [`Finished`]), and at the latest after this long.
const POLL_QUEUED: Duration = Duration::from_millis(50);
/// The server's queue bound (`--max-queued`; 16 by default). At the peak
/// rate a slow spell of a shared machine can back 16 jobs up, and the
/// server then refuses jobs (HTTP 429), which fails the run; a deeper
/// queue lets the spell show as latency instead.
const MAX_QUEUED: usize = 64;
/// How long a server whose drain request failed gets to exit by itself.
const DRAIN_WAIT: Duration = Duration::from_secs(10);
const HTTP_TIMEOUT: Duration = Duration::from_secs(60);
/// Fresh jobs replayed in process by the traced run.
const TRACED_JOBS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Light,
    Peak,
}

/// One scheduled job.
struct Planned {
    due: f64,
    phase: Phase,
    /// The GDS file (fresh jobs have their own; repeats reuse one).
    file: usize,
    /// Index of the job this one repeats.
    repeats: Option<usize>,
}

/// What the client saw of one job.
#[derive(Clone, Debug, Default)]
struct Seen {
    lateness: f64,
    /// Due time to result in hand.
    latency: f64,
    /// Completion, seconds since the schedule start.
    done_at: f64,
    ok: bool,
    rejected: bool,
    tiles: usize,
    manifest: String,
    error: String,
    /// When the job was sent, acknowledged, first seen running, seen
    /// done, and its result was in hand.
    marks: [Option<Instant>; 5],
}

/// The steps of a job the client times: `marks[k]` to `marks[k + 1]`.
const SUBMIT: usize = 0;
const QUEUE_WAIT: usize = 1;
const EXEC: usize = 2;
const RESULT: usize = 3;

impl Seen {
    /// Seconds the job spent in `step`; 0 when it never got there.
    fn step(&self, step: usize) -> f64 {
        match (self.marks[step], self.marks[step + 1]) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// The seeded open-loop schedule: the light phase fills the first half
/// of the run and the peak phase the second, each with exactly
/// `rate × half` arrivals. Arrivals are paced — evenly spaced, each
/// shifted by a seeded jitter of up to a quarter interval either way — so
/// every seed offers the same load and the latency percentiles measure
/// the system rather than the burstiness of one random arrival sample.
fn schedule(seed: u64, seconds: f64) -> (Vec<Planned>, usize) {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E);
    let half = seconds / 2.0;
    let mut arrivals: Vec<(f64, Phase)> = Vec::new();
    for (phase, rate, start) in [
        (Phase::Light, LIGHT_RATE, 0.0),
        (Phase::Peak, PEAK_RATE, half),
    ] {
        let count = (rate * half).round() as usize;
        let gap = half / count as f64;
        arrivals.extend((0..count).map(|i| {
            let jitter = rng.range_f64(-0.25, 0.25) * gap;
            (start + (i as f64 + 0.5) * gap + jitter, phase)
        }));
    }
    // Exactly a `REPEAT_SHARE` of each phase repeats an earlier fresh
    // job, at seeded positions (never the very first job).
    let mut repeat = vec![false; arrivals.len()];
    for phase in [Phase::Light, Phase::Peak] {
        let mut slots: Vec<usize> = (1..arrivals.len())
            .filter(|&i| arrivals[i].1 == phase)
            .collect();
        let want = (slots.len() as f64 * REPEAT_SHARE).round() as usize;
        rng.shuffle(&mut slots);
        for &i in &slots[..want] {
            repeat[i] = true;
        }
    }
    let mut jobs: Vec<Planned> = Vec::with_capacity(arrivals.len());
    let mut fresh = 0usize;
    for ((due, phase), repeat) in arrivals.into_iter().zip(repeat) {
        if repeat {
            let earlier: Vec<usize> = (0..jobs.len())
                .filter(|&i| jobs[i].repeats.is_none())
                .collect();
            let of = earlier[rng.range_usize(0, earlier.len())];
            jobs.push(Planned {
                due,
                phase,
                file: jobs[of].file,
                repeats: Some(of),
            });
        } else {
            jobs.push(Planned {
                due,
                phase,
                file: fresh,
                repeats: None,
            });
            fresh += 1;
        }
    }
    (jobs, fresh)
}

/// Jobs in the closed-loop capacity measurement: the schedule's first
/// ones (120 of them fresh), about 9 s of work at capacity.
const CAPACITY_JOBS: usize = 160;

fn job_body(file: &str) -> String {
    format!(
        "{{\"design\":{{\"gds\":\"{file}\"}},\"tiling\":{{\"tile\":{},\"halo\":{}}},\
         \"opc\":{{\"preset\":\"large_scale\",\"precision\":\"f32\"}},\"cache\":false}}",
        JOB_TILING.tile_size, JOB_TILING.halo
    )
}

fn job_config() -> OpcConfig {
    OpcConfig {
        precision: Precision::F32,
        ..OpcConfig::large_scale()
    }
}

fn file_name(i: usize) -> String {
    format!("job{i}.gds")
}

fn warm_name(i: usize) -> String {
    format!("warm{i}.gds")
}

/// A running `cardopc serve` process with its workers registered.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    fn start(args: &Args, root: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(root.with_extension("log")).map_err(|e| e.to_string())?;
        let mut child = Command::new(&args.cardopc)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .args(["--max-queued", &MAX_QUEUED.to_string()])
            .env("CARDOPC_THREADS", "1")
            .arg("--run-root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start cardopc serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = std::io::BufReader::new(stdout);
        let mut first = String::new();
        let read = lines.read_line(&mut first);
        // Keep draining stdout so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let mut server = Server {
            child: Some(child),
            addr: "127.0.0.1:0".parse().expect("literal address"),
            stdout: Some(drain),
        };
        read.map_err(|e| format!("reading the serve announce line: {e}"))?;
        server.addr = first
            .trim()
            .strip_prefix("cardopc-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected serve announce line {first:?}"))?;
        let r = http(
            server.addr,
            "POST",
            "/v1/workers",
            Some(r#"{"spawn_local":2}"#),
        )?;
        if r.status != 200 && r.status != 201 {
            return Err(format!("registering workers: HTTP {}", r.status));
        }
        Ok(server)
    }

    /// Drains the server and reaps it; returns its peak RSS, MiB.
    fn stop(mut self) -> Result<f64, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<f64, String> {
        let Some(child) = self.child.take() else {
            return Ok(f64::NAN);
        };
        let exit = match http(self.addr, "POST", "/admin/drain", None) {
            Ok(_) => proc::wait(child).map_err(|e| e.to_string())?,
            // The server exits as soon as it has drained, at times before
            // it has answered the drain request: give it time to exit
            // before killing it.
            Err(e) => match proc::wait_timeout(child, DRAIN_WAIT).map_err(|e| e.to_string())? {
                Ok(exit) => {
                    eprintln!(
                        "perfbench: the drain request went unanswered ({e}); the server exited"
                    );
                    exit
                }
                Err(mut child) => {
                    let _ = child.kill();
                    let exit = proc::wait(child).map_err(|e| e.to_string())?;
                    self.join_stdout();
                    return Err(format!("drain failed ({e}); server killed ({exit:?})"));
                }
            },
        };
        self.join_stdout();
        if exit.success() {
            Ok(exit.peak_rss_mb)
        } else {
            Err(format!("cardopc serve exited with {:?}", exit.code))
        }
    }

    fn join_stdout(&mut self) {
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }

    fn workers(&self) -> Result<Vec<SocketAddr>, String> {
        let doc = http(self.addr, "GET", "/v1/workers", None)?.json()?;
        Ok(doc
            .get("workers")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("addr").and_then(Json::as_str))
            .filter_map(|a| a.parse().ok())
            .collect())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // An error path left the server running: stop it, ignoring errors.
        let _ = self.shutdown();
    }
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    client::request_with_timeout(addr, method, path, body, HTTP_TIMEOUT)
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// Raised whenever the client sees a job finish. The server runs one job
/// at a time, so a queued job starts exactly when a running one ends:
/// queued jobs poll again on this signal rather than on a short timer.
/// The client then sees a job start as late as it saw its predecessor
/// end (0–[`POLL_RUNNING`] late, plus a wake-up) and sees it end 0–8 ms
/// late too, so the run time it measures carries no bias from queueing;
/// and polling stays a small load on the two-core server however many
/// jobs queue. Polling every queued job every few milliseconds instead
/// slows the jobs served at the peak rate until the queue overflows.
#[derive(Default)]
struct Finished {
    count: Mutex<u64>,
    cond: Condvar,
}

impl Finished {
    fn count(&self) -> u64 {
        *self.count.lock().expect("finish count poisoned")
    }

    fn raise(&self) {
        *self.count.lock().expect("finish count poisoned") += 1;
        self.cond.notify_all();
    }

    /// Waits until the count has moved past `since`, at most `timeout`.
    fn wait(&self, since: u64, timeout: Duration) {
        let count = self.count.lock().expect("finish count poisoned");
        let _ = self
            .cond
            .wait_timeout_while(count, timeout, |c| *c == since)
            .expect("finish count poisoned");
    }
}

/// Submits one job and follows it to its result: polls its state every
/// [`POLL_RUNNING`] while it runs, and while it is queued whenever
/// `finished` is raised (or after [`POLL_QUEUED`]).
fn run_job(addr: SocketAddr, body: &str, due: Instant, t0: Instant, finished: &Finished) -> Seen {
    let mut seen = Seen {
        lateness: due.elapsed().as_secs_f64().max(0.0),
        ..Seen::default()
    };
    let sent = Instant::now();
    seen.marks[0] = Some(sent);
    let submitted = match http(addr, "POST", "/v1/jobs", Some(body)) {
        Ok(r) if r.status == 201 => r
            .json()
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string)),
        Ok(r) => {
            seen.rejected = r.status == 429 || r.status == 503;
            seen.error = format!("submit: HTTP {}: {}", r.status, r.body_str());
            None
        }
        Err(e) => {
            seen.error = e;
            None
        }
    };
    let Some(id) = submitted else {
        return seen;
    };
    let acked = Instant::now();
    seen.marks[1] = Some(acked);
    let mut running_at = None;
    let done_at = loop {
        // Taken before the poll, so a finish during it is not missed.
        let finishes = finished.count();
        let state = http(addr, "GET", &format!("/v1/jobs/{id}"), None)
            .and_then(|r| r.json())
            .map(|j| {
                j.get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            });
        match state.as_deref() {
            Ok("queued") => finished.wait(finishes, POLL_QUEUED),
            Ok("running") => {
                running_at.get_or_insert_with(Instant::now);
                std::thread::sleep(POLL_RUNNING);
            }
            Ok("done") => {
                let now = Instant::now();
                finished.raise();
                break now;
            }
            Ok(other) => {
                finished.raise();
                seen.error = format!("job {id} ended {other}");
                return seen;
            }
            Err(e) => {
                seen.error = e.clone();
                return seen;
            }
        }
    };
    seen.marks[2] = Some(running_at.unwrap_or(done_at));
    seen.marks[3] = Some(done_at);
    let result = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None).and_then(|r| {
        if r.status == 200 {
            r.json()
        } else {
            Err(format!("result: HTTP {}", r.status))
        }
    });
    let done = Instant::now();
    seen.marks[4] = Some(done);
    seen.latency = (done - due).as_secs_f64();
    seen.done_at = (done - t0).as_secs_f64();
    match result {
        Ok(doc) => {
            let manifest = doc.get("manifest");
            seen.ok = doc.get("complete").and_then(Json::as_bool) == Some(true);
            seen.tiles = manifest
                .and_then(|m| m.get("tiles"))
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            seen.manifest = manifest.map(Json::to_string_compact).unwrap_or_default();
            if !seen.ok {
                seen.error = format!("job {id} result incomplete");
            }
        }
        Err(e) => seen.error = e,
    }
    seen
}

/// Sends the whole schedule open loop and waits for every job.
fn drive(addr: SocketAddr, plan: &[Planned], tr: Option<&Tracer>) -> Vec<Seen> {
    let t0 = Instant::now();
    let results: Arc<Mutex<Vec<Option<Seen>>>> = Arc::new(Mutex::new(vec![None; plan.len()]));
    let finished = Arc::new(Finished::default());
    let mut threads = Vec::with_capacity(plan.len());
    for (i, job) in plan.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(job.due);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let body = job_body(&file_name(job.file));
        let results = Arc::clone(&results);
        let finished = Arc::clone(&finished);
        threads.push(std::thread::spawn(move || {
            let seen = run_job(addr, &body, due, t0, &finished);
            results.lock().expect("result list poisoned")[i] = Some(seen);
        }));
    }
    for t in threads {
        t.join().expect("client thread panicked");
    }
    let seen: Vec<Seen> = Arc::try_unwrap(results)
        .expect("client threads joined")
        .into_inner()
        .expect("result list poisoned")
        .into_iter()
        .map(|s| s.expect("every job reported"))
        .collect();
    if let Some(tr) = tr {
        // Client-side spans per job, laid end to end from the due time.
        for (i, s) in seen.iter().enumerate() {
            let ctx = Ctx {
                parent: None,
                group: i as u64 + 1,
            };
            let names = [
                "serve.submit",
                "serve.queue_wait",
                "serve.exec",
                "serve.result",
            ];
            for (k, name) in names.into_iter().enumerate() {
                if let (Some(a), Some(b)) = (s.marks[k], s.marks[k + 1]) {
                    tr.record(name, ctx, a, b);
                }
            }
        }
    }
    seen
}

/// Reads the counters this workload attributes from `/metrics`.
fn counters(addr: SocketAddr) -> Result<Vec<f64>, String> {
    let text = http(addr, "GET", "/metrics", None)?.body_str();
    Ok(COUNTERS
        .iter()
        .map(|name| {
            text.lines()
                .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        })
        .collect())
}

const COUNTERS: &[&str] = &[
    "cardopc_fleet_tiles_dispatched_total",
    "cardopc_fleet_tiles_stolen_total",
    "cardopc_fleet_tiles_redispatched_total",
    "cardopc_admission_rejected_total",
    "cardopc_http_server_errors_total",
    "cardopc_fleet_tiles_recovered_total",
];

/// Tiles the workers corrected (not answered from their record maps).
fn tiles_done(workers: &[SocketAddr]) -> Result<f64, String> {
    let mut total = 0.0;
    for &w in workers {
        let doc = http(w, "GET", "/healthz", None)?.json()?;
        total += doc.get("tiles_done").and_then(Json::as_f64).unwrap_or(0.0);
    }
    Ok(total)
}

/// A job's clip: the next seeded crop holding [`JOB_WIRES`] wires, so
/// jobs are alike in size (other crops are redrawn).
fn job_clip(rng: &mut SplitMix64) -> cardopc_layout::Clip {
    loop {
        let clip = gdsgen::aes_crop(rng, JOB_CROP_NM.0, JOB_CROP_NM.1, false);
        if JOB_WIRES.contains(&clip.targets().len()) {
            return clip;
        }
    }
}

/// Writes the `files` job inputs and the warm-up GDS into the run root.
fn write_inputs(root: &Path, seed: u64, files: usize) -> Result<(), String> {
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(seed ^ 0x10B5);
    for i in 0..files {
        gdsgen::write_clip(&job_clip(&mut rng), &root.join(file_name(i)))?;
    }
    // Warm-up inputs are the same for every seed: set-up cost should not
    // depend on which jobs a seed draws.
    let mut warm = SplitMix64::new(0x3A53);
    for i in 0..WARMUP_JOBS {
        gdsgen::write_clip(&job_clip(&mut warm), &root.join(warm_name(i)))?;
    }
    Ok(())
}

/// Inputs written, server and workers up, warm-up jobs through.
fn set_up(args: &Args, root: &Path, files: usize) -> Result<Server, String> {
    write_inputs(root, args.seed, files)?;
    start_warm(args, root)
}

/// Server and workers up on written inputs, warm-up jobs through.
fn start_warm(args: &Args, root: &Path) -> Result<Server, String> {
    let server = Server::start(args, root)?;
    let t0 = Instant::now();
    let finished = Finished::default();
    for i in 0..WARMUP_JOBS {
        let body = job_body(&warm_name(i));
        let seen = run_job(server.addr, &body, Instant::now(), t0, &finished);
        if !seen.ok {
            return Err(format!("warm-up job failed: {}", seen.error));
        }
    }
    Ok(server)
}

/// Median set-up time over [`SETUPS`] set-ups; the last server is kept.
fn timed_setups(args: &Args, root: &Path, files: usize) -> Result<(f64, Server), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        if root.exists() {
            std::fs::remove_dir_all(root).map_err(|e| e.to_string())?;
        }
        let start = Instant::now();
        let server = set_up(args, root, files)?;
        times.push(start.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            kept = Some(server);
        } else {
            server.stop()?;
        }
    }
    Ok((median(&times), kept.expect("at least one set-up")))
}

/// Latency summary of one phase.
struct PhaseStats {
    p50: f64,
    p90: f64,
    samples: usize,
    completed_per_s: f64,
}

fn phase_stats(plan: &[Planned], seen: &[Seen], phase: Phase, start: f64) -> PhaseStats {
    let lat: Vec<f64> = plan
        .iter()
        .zip(seen)
        .filter(|(p, s)| p.phase == phase && s.ok)
        .map(|(_, s)| s.latency)
        .collect();
    let last_done = plan
        .iter()
        .zip(seen)
        .filter(|(p, s)| p.phase == phase && s.ok)
        .map(|(_, s)| s.done_at)
        .fold(start, f64::max);
    PhaseStats {
        p50: median(&lat),
        p90: quantile(&lat, 0.9),
        samples: lat.len(),
        completed_per_s: lat.len() as f64 / (last_done - start),
    }
}

/// The server's capacity in jobs per second: `jobs` run closed loop with
/// two always outstanding (one running, one queued), every job sent as
/// soon as one finishes. Returns what the client saw of each job, too.
///
/// The queued job starts the moment the running one ends, and the client
/// sees both moments equally late (see [`Finished`]). (A job sent while
/// the server is idle, after a quick repeat, is seen to start at once,
/// so its run time reads about 4 ms long.)
fn measure_capacity(addr: SocketAddr, jobs: &[Planned]) -> (Vec<Seen>, f64) {
    let next = AtomicUsize::new(0);
    let finished = Finished::default();
    let seen: Mutex<Vec<Option<Seen>>> = Mutex::new(vec![None; jobs.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    return;
                };
                let body = job_body(&file_name(job.file));
                let one = run_job(addr, &body, Instant::now(), start, &finished);
                seen.lock().expect("result list poisoned")[i] = Some(one);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let seen: Vec<Seen> = seen
        .into_inner()
        .expect("result list poisoned")
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect();
    let done = seen.iter().filter(|s| s.ok).count();
    (seen, done as f64 / elapsed)
}

pub fn serve_fleet(args: &Args) -> Result<Report, String> {
    let (plan, fresh) = schedule(args.seed, args.seconds);
    let root = args.work.join("runs");
    let (setup_s, server) = timed_setups(args, &root, fresh)?;
    let mut report = Report::default();
    report.push("setup_s", setup_s, "s");
    report.attempted = plan.len();

    if args.trace {
        return traced(args, report, &plan, fresh, server, &root);
    }

    let seen = drive(server.addr, &plan, None);
    let rss = server.stop()?;
    // Capacity on a new server (new workers, empty record maps), as the
    // schedule's server was when its schedule began.
    let closed = &plan[..CAPACITY_JOBS.min(plan.len())];
    let server = start_warm(args, &root)?;
    let (closed_seen, capacity) = measure_capacity(server.addr, closed);
    let rss = rss.max(server.stop()?);
    write_jobs(&args.work.join("jobs.csv"), &plan, &seen)?;
    check_jobs(&mut report, "schedule", &plan, &seen);
    check_jobs(&mut report, "capacity", closed, &closed_seen);
    report.attempted += closed.len();
    let light = phase_stats(&plan, &seen, Phase::Light, 0.0);
    let peak = phase_stats(&plan, &seen, Phase::Peak, args.seconds / 2.0);
    // Gated: how long a fresh job runs on the server (first seen running
    // to seen done) in the capacity measurement, and the capacity itself.
    // The schedule's latencies add the queue, which at these loads moves
    // with a few per cent of CPU speed on a shared machine; they are
    // printed below.
    let closed_exec: Vec<f64> = closed
        .iter()
        .zip(&closed_seen)
        .filter(|(p, s)| s.ok && p.repeats.is_none())
        .map(|(_, s)| s.step(EXEC))
        .collect();
    report.push("run_s", median(&closed_exec), "s");
    report.push("tail_s", quantile(&closed_exec, 0.9), "s");
    report.push("ops_per_s", capacity, "1/s");
    report.push("peak_rss_mb", rss, "MB");
    report.push("capacity_per_s", capacity, "1/s");
    report.push("job_exec_p50_s.fresh", median(&closed_exec), "s");
    report.push("job_exec_p90_s.fresh", quantile(&closed_exec, 0.9), "s");
    report.push("job_p50_s.light", light.p50, "s");
    report.push("job_p90_s.light", light.p90, "s");
    report.push("job_p50_s.peak", peak.p50, "s");
    report.push("job_p90_s.peak", peak.p90, "s");
    report.push("jobs_per_s.peak", peak.completed_per_s, "1/s");
    report.push("offered_per_s.light", LIGHT_RATE, "1/s");
    report.push("offered_per_s.peak", PEAK_RATE, "1/s");
    report.push("jobs.light", light.samples as f64, "count");
    report.push("jobs.peak", peak.samples as f64, "count");
    report.push("jobs.capacity", closed.len() as f64, "count");
    report.push(
        "jobs.repeat",
        plan.iter().filter(|p| p.repeats.is_some()).count() as f64,
        "count",
    );
    report.push(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
    );
    let late: Vec<f64> = seen.iter().map(|s| s.lateness).collect();
    report.push("generator_late_p99_s", quantile(&late, 0.99), "s");
    report.push("generator_late_max_s", crate::stats::max(&late), "s");
    Ok(report)
}

/// Writes what the client saw of every job, one CSV row each.
fn write_jobs(path: &Path, plan: &[Planned], seen: &[Seen]) -> Result<(), String> {
    let mut out = String::from(
        "job,phase,repeat,due_s,late_s,latency_s,submit_s,queue_s,exec_s,result_s,ok\n",
    );
    for (i, (p, s)) in plan.iter().zip(seen).enumerate() {
        out.push_str(&format!(
            "{i},{:?},{},{},{},{},{},{},{},{},{}\n",
            p.phase,
            p.repeats.is_some(),
            p.due,
            s.lateness,
            s.latency,
            s.step(SUBMIT),
            s.step(QUEUE_WAIT),
            s.step(EXEC),
            s.step(RESULT),
            s.ok
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Output checks on the jobs of one phase (`what`) of either mode.
fn check_jobs(report: &mut Report, what: &str, plan: &[Planned], seen: &[Seen]) {
    let expected = ((JOB_CROP_NM.0 / JOB_TILING.tile_size).ceil()
        * (JOB_CROP_NM.1 / JOB_TILING.tile_size).ceil()) as usize;
    for (i, (p, s)) in plan.iter().zip(seen).enumerate() {
        if !s.ok {
            report.failed += 1;
            report
                .problems
                .push(format!("serve_fleet: {what} job {i} failed: {}", s.error));
            continue;
        }
        report.check(s.tiles == expected, || {
            format!(
                "serve_fleet: {what} job {i} has {} tiles, expected {expected}",
                s.tiles
            )
        });
        if let Some(of) = p.repeats {
            report.check(!seen[of].ok || seen[of].manifest == s.manifest, || {
                format!("serve_fleet: {what} job {i} repeats job {of} but its manifest differs")
            });
        }
        report.check(s.lateness <= LATENESS_LIMIT_S, || {
            format!(
                "serve_fleet: generator sent {what} job {i} {:.3} s late \
                 (limit {LATENESS_LIMIT_S} s)",
                s.lateness
            )
        });
    }
}

fn traced(
    args: &Args,
    mut report: Report,
    plan: &[Planned],
    files: usize,
    server: Server,
    root: &Path,
) -> Result<Report, String> {
    // Untraced reference on the set-up server, then a fresh server (empty
    // worker record maps) for the traced schedule.
    let reference = drive(server.addr, plan, None);
    server.stop()?;
    let ref_p50 = phase_stats(plan, &reference, Phase::Light, 0.0).p50;

    std::fs::remove_dir_all(root).map_err(|e| e.to_string())?;
    let server = set_up(args, root, files)?;
    let workers = server.workers()?;
    let tr = Tracer::new();
    let before = counters(server.addr)?;
    let done_before = tiles_done(&workers)?;
    let seen = drive(server.addr, plan, Some(&tr));
    let after = counters(server.addr)?;
    let done_after = tiles_done(&workers)?;
    server.stop()?;
    check_jobs(&mut report, "schedule", plan, &seen);
    let traced_p50 = phase_stats(plan, &seen, Phase::Light, 0.0).p50;

    let delta: Vec<f64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    let tiles: usize = seen.iter().filter(|s| s.ok).map(|s| s.tiles).sum();
    let dispatched = delta[0];

    // A direct dispatch round trip to an in-process worker per tile of a
    // few fresh jobs, then each tile replayed step by step against the
    // record the worker returned.
    let probe = probe_and_replay(&tr, root, files.min(TRACED_JOBS))?;
    for m in &probe.mismatches {
        report
            .problems
            .push(format!("serve_fleet: replay mismatch: {m}"));
    }

    let mut layers = Layers::from_tracer(&tr);
    layers.set("runtime.tiles", tiles as f64);
    // Tiles the coordinator adopted from the workers' records at job
    // start were never dispatched; every other tile needed one dispatch.
    let recovered = delta[5];
    layers.set("fleet.dispatched", dispatched);
    layers.set("fleet.recovered", recovered);
    layers.set(
        "fleet.useful_frac",
        if dispatched > 0.0 {
            (tiles as f64 - recovered) / dispatched
        } else {
            0.0
        },
    );
    layers.set("fleet.stolen", delta[1]);
    layers.set("fleet.redispatched", delta[2]);
    layers.set("fleet.wire_s", median(&probe.wire));
    layers.set(
        "serve.rejected",
        delta[3] + seen.iter().filter(|s| s.rejected).count() as f64,
    );
    layers.set("serve.http_5xx", delta[4]);
    // Workers count the tiles they turned into new records; every other
    // tile was answered from a record they already held.
    layers.set(
        "serve.repeat_frac",
        if tiles > 0 {
            1.0 - (done_after - done_before) / tiles as f64
        } else {
            0.0
        },
    );
    for (name, step) in [
        ("serve.submit_s", SUBMIT),
        ("serve.queue_wait_s", QUEUE_WAIT),
        ("serve.exec_s", EXEC),
        ("serve.result_s", RESULT),
    ] {
        let v: Vec<f64> = seen.iter().filter(|s| s.ok).map(|s| s.step(step)).collect();
        layers.set(name, median(&v));
    }
    layers.set_coverage(tr.coverage());
    // The served path carries no tracing (the client records the same
    // marks either way and spans are laid down afterwards), so this is
    // the run-to-run noise between two servers, not a tracing cost.
    layers.set("trace.overhead_frac", traced_p50 / ref_p50 - 1.0);
    println!("note: on serve_fleet trace.overhead_frac is run-to-run noise; nothing in the served path is traced");
    layers.push(&mut report);
    tr.write_jsonl(&args.work.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(report)
}

struct Probe {
    wire: Vec<f64>,
    mismatches: Vec<String>,
}

fn probe_and_replay(tr: &Tracer, root: &Path, jobs: usize) -> Result<Probe, String> {
    let mut worker = WorkerServer::start(WorkerConfig::default()).map_err(|e| e.to_string())?;
    let addr = worker.local_addr();
    let config = job_config();
    let flow = CardOpc::new(config.clone());
    let mut slot = Slot::default();
    let mut probe = Probe {
        wire: Vec::new(),
        mismatches: Vec::new(),
    };
    for j in 0..jobs {
        let path: PathBuf = root.join(file_name(j));
        let spec = WorkSpec {
            design: DesignSpec::gds(
                std::fs::canonicalize(&path).map_err(|e| e.to_string())?,
                LayerFilter::Layer(TARGET_LAYER),
                None,
            ),
            tiling: JOB_TILING,
            opc: config.clone(),
        };
        let root_ctx = Ctx {
            parent: None,
            group: 1_000_000 + j as u64,
        };
        let lib = tr.span("gds.read", root_ctx, |_| {
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            tr.count("gds.read_bytes", bytes.len() as f64);
            cardopc_gds::parse_lib(&bytes).map_err(|e| e.to_string())
        })?;
        let clip = tr.span("layout.clip", root_ctx, |_| {
            cardopc_layout::clip_from_lib(&lib, LayerFilter::Layer(TARGET_LAYER), None)
        })?;
        let partition = tr
            .span("runtime.partition", root_ctx, |_| {
                partition_clip(&clip, &JOB_TILING)
            })
            .map_err(|e| e.to_string())?;
        for tile in &partition.tiles {
            let body = dispatch_body(&spec, tile.index);
            let start = Instant::now();
            let response = tr.span("fleet.dispatch", root_ctx, |_| {
                http(addr, "POST", "/v1/tiles", Some(&body))
            })?;
            let round_trip = start.elapsed().as_secs_f64();
            if response.status != 200 {
                return Err(format!("worker answered HTTP {}", response.status));
            }
            let record = TileRecord::from_json_line(response.body_str().trim())?;
            probe.wire.push(round_trip - record.seconds);
            if tile.clip.targets().is_empty() {
                continue;
            }
            let ctx = Ctx {
                parent: None,
                group: root_ctx.group * 100 + tile.index as u64,
            };
            let mismatch = tr.replay(ctx, record.seconds, |ctx| {
                replay_tile(tr, ctx, tile, &flow, &mut slot, &record)
            })?;
            probe.mismatches.extend(mismatch);
        }
    }
    worker.shutdown();
    Ok(probe)
}
