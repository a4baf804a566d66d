//! Spans and counters recorded from outside the program: each span times
//! one call into a layer's public function. Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The replay spans must account for at least this share of the
/// program's own time for the replayed tiles, in total: less means the
/// spans miss part of what the program does. The replay is a second run
/// of the same work, so the share carries that run's timing noise: on a
/// shared two-core machine single tiles read 0.58–1.42 and totals
/// 0.86–1.09, hence the width of the band.
pub const COVERAGE_MIN: f64 = 0.80;
/// ... and at most this share: more means the replay does work the
/// program does not, or is slowed by tracing.
pub const COVERAGE_MAX: f64 = 1.25;

/// Replay span time over the program's own time (see
/// [`Tracer::coverage`]).
#[derive(Clone, Copy, Debug)]
pub struct Coverage {
    /// Over all replayed tiles.
    pub total: f64,
    /// The lowest and highest single tile.
    pub min: f64,
    pub max: f64,
}

/// A finished span. Times are seconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one tile, clip or job share this.
    pub group: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
    /// The program's own seconds for each replayed tile or clip, by the
    /// id of its `tile` span.
    programs: Mutex<Vec<(u64, f64)>>,
}

/// Where a new span hangs: its parent and its group.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctx {
    pub parent: Option<u64>,
    pub group: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            programs: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Times `f` as span `name` under `ctx`; `f` receives the context its
    /// own children should use.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        self.span_with_id(name, ctx, f).0
    }

    fn span_with_id<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> (R, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Ctx {
            parent: Some(id),
            group: ctx.group,
        });
        let end = self.now();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent: ctx.parent,
            group: ctx.group,
            name,
            start,
            end,
        });
        (out, id)
    }

    /// Times the step-by-step replay of one tile or clip as span `tile`,
    /// noting that the program's own run of it took `program_s` seconds.
    pub fn replay<R>(&self, ctx: Ctx, program_s: f64, f: impl FnOnce(Ctx) -> R) -> R {
        let (out, id) = self.span_with_id("tile", ctx, f);
        self.programs
            .lock()
            .expect("program list poisoned")
            .push((id, program_s));
        out
    }

    /// Records a span measured elsewhere, from `start` to `end`.
    pub fn record(&self, name: &'static str, ctx: Ctx, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent: ctx.parent,
            group: ctx.group,
            name,
            start: at(start),
            end: at(end),
        });
    }

    /// Adds `by` to counter `name`.
    pub fn count(&self, name: &'static str, by: f64) {
        *self
            .counts
            .lock()
            .expect("counter map poisoned")
            .entry(name)
            .or_insert(0.0) += by;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children of one span run on its thread, so they
    /// do not overlap).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_insert(0.0) += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own = (s.end - s.start) - child_time.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_insert(0.0) += own.max(0.0);
        }
        out
    }

    /// How much of the program's own time the replay spans account for:
    /// the child spans of every `tile` span over the seconds the program
    /// took for the same tiles (or clips), in total and per tile.
    pub fn coverage(&self) -> Coverage {
        let spans = self.spans();
        let mut children: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_insert(0.0) += s.end - s.start;
            }
        }
        let programs = self.programs.lock().expect("program list poisoned");
        let mut out = Coverage {
            total: f64::NAN,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        let (mut covered, mut program) = (0.0, 0.0);
        for &(id, program_s) in programs.iter() {
            let c = children.get(&id).copied().unwrap_or(0.0);
            covered += c;
            program += program_s;
            out.min = out.min.min(c / program_s);
            out.max = out.max.max(c / program_s);
        }
        if program > 0.0 {
            out.total = covered / program;
        }
        out
    }

    /// [`Tracer::coverage`], recorded as a failed check when the replay
    /// spans account for less than [`COVERAGE_MIN`] or more than
    /// [`COVERAGE_MAX`] of the program's own time in total.
    pub fn checked_coverage(&self, report: &mut crate::Report) -> Coverage {
        let coverage = self.coverage();
        let total = coverage.total;
        report.check((COVERAGE_MIN..=COVERAGE_MAX).contains(&total), || {
            format!(
                "replay spans account for {total:.3} of the program's own tile time, \
                 outside {COVERAGE_MIN}..={COVERAGE_MAX}"
            )
        });
        coverage
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.group,
                s.name,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
