//! The per-layer metric table every traced run prints: each layer's
//! metrics by name, zero where the workload does not reach the layer.

use crate::trace::{Coverage, Tracer};
use crate::Report;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in the order printed.
const TABLE: &[(&str, &str)] = &[
    ("layout.clip_s", "s"),
    ("gds.read_s", "s"),
    ("gds.read_bytes", "bytes"),
    ("runtime.partition_s", "s"),
    ("runtime.tiles", "count"),
    ("runtime.tile_p50_s", "s"),
    ("runtime.tile_max_s", "s"),
    ("runtime.pool_busy_frac", "frac"),
    ("runtime.cache.open_s", "s"),
    ("runtime.cache.close_s", "s"),
    ("runtime.cache.hits", "count"),
    ("runtime.cache.misses", "count"),
    ("runtime.cache.hit_frac", "frac"),
    ("runtime.cache.bytes", "bytes"),
    ("runtime.checkpoint.load_s", "s"),
    ("runtime.checkpoint.append_s", "s"),
    ("runtime.checkpoint.records", "count"),
    ("runtime.checkpoint.bytes", "bytes"),
    ("runtime.replay_s", "s"),
    ("runtime.reference_s", "s"),
    ("runtime.stitch_s", "s"),
    ("runtime.manifest_s", "s"),
    ("runtime.gdsout_s", "s"),
    ("runtime.gdsout_bytes", "bytes"),
    ("litho.engine_build_s", "s"),
    ("litho.engine_builds", "count"),
    ("litho.raster_s", "s"),
    ("litho.aerial_s", "s"),
    ("litho.aerial_calls", "count"),
    ("litho.aerial_pixels", "count"),
    ("litho.fft_flops", "flop"),
    ("litho.score_s", "s"),
    ("opc.init_s", "s"),
    ("opc.correct_s", "s"),
    ("opc.eval_s", "s"),
    ("opc.iterations", "count"),
    ("spline.sample_s", "s"),
    ("spline.fit_s", "s"),
    ("mrc.resolve_s", "s"),
    ("mrc.initial_violations", "count"),
    ("mrc.moves_applied", "count"),
    ("mrc.rounds", "count"),
    ("ilt.pixel_s", "s"),
    ("ilt.iterations", "count"),
    ("fleet.wire_s", "s"),
    ("fleet.dispatched", "count"),
    ("fleet.recovered", "count"),
    ("fleet.useful_frac", "frac"),
    ("fleet.stolen", "count"),
    ("fleet.redispatched", "count"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.result_s", "s"),
    ("serve.rejected", "count"),
    ("serve.http_5xx", "count"),
    ("serve.repeat_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("trace.coverage_min_frac", "frac"),
    ("trace.coverage_max_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Span names whose summed self time is a `<name>_s` metric.
const TIMED: &[&str] = &[
    "layout.clip",
    "gds.read",
    "runtime.partition",
    "runtime.cache.open",
    "runtime.cache.close",
    "runtime.checkpoint.load",
    "runtime.checkpoint.append",
    "runtime.replay",
    "runtime.reference",
    "runtime.stitch",
    "runtime.manifest",
    "runtime.gdsout",
    "litho.engine_build",
    "litho.raster",
    "litho.aerial",
    "litho.score",
    "opc.init",
    "opc.correct",
    "opc.eval",
    "spline.sample",
    "spline.fit",
    "mrc.resolve",
    "ilt.pixel",
];

/// Counters copied under their own name.
const COUNTED: &[&str] = &[
    "gds.read_bytes",
    "litho.engine_builds",
    "litho.aerial_calls",
    "litho.aerial_pixels",
    "litho.fft_flops",
    "opc.iterations",
    "mrc.initial_violations",
    "mrc.moves_applied",
    "mrc.rounds",
    "ilt.iterations",
];

pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Seeds the table from a tracer's spans and counters.
    pub fn from_tracer(tr: &Tracer) -> Layers {
        let mut values: BTreeMap<&'static str, f64> =
            TABLE.iter().map(|&(name, _)| (name, 0.0)).collect();
        let own = tr.self_seconds();
        for &span in TIMED {
            let key = TABLE
                .iter()
                .map(|&(n, _)| n)
                .find(|n| n.strip_suffix("_s") == Some(span))
                .expect("every timed span has a table row");
            values.insert(key, own.get(span).copied().unwrap_or(0.0));
        }
        for &name in COUNTED {
            values.insert(name, tr.counter(name));
        }
        Layers { values }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the table (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let key = TABLE
            .iter()
            .map(|&(n, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("no per-layer metric named {name}"));
        self.values.insert(key, value);
    }

    /// Sets the three `trace.coverage` metrics.
    pub fn set_coverage(&mut self, coverage: Coverage) {
        self.set("trace.coverage_frac", coverage.total);
        self.set("trace.coverage_min_frac", coverage.min);
        self.set("trace.coverage_max_frac", coverage.max);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Appends the whole table to the report, in table order.
    pub fn push(&self, report: &mut Report) {
        for &(name, unit) in TABLE {
            report.push(name, self.get(name), unit);
        }
    }
}
