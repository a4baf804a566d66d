//! `perfbench` — the CardOPC end-to-end benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload chip_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Four seeded workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `chip_cold`: a seeded crop of an `aes` design tile, corrected by the
//!   `cardopc` command line on 2 threads into a mask GDS and a manifest;
//! - `chip_eco`: a GDS with a large AREF cell array beside random routing,
//!   corrected into a persistent cache and run directory, then re-run
//!   after a seeded handful of wires are edited;
//! - `serve_fleet`: `cardopc serve` with two spawned workers under an
//!   open-loop seeded arrival schedule at two fixed rates;
//! - `paper_clips`: a seeded subset of the Table I via and Table II metal
//!   testcases plus the Fig. 7 ILT→fit hybrid, in process.
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced.
//! `--trace 1` runs the workload once untraced and once more with spans
//! recorded around the calls into each layer's public functions, checks
//! that the traced run reproduces the untraced outputs, and reports the
//! per-layer metrics. Every run prints its metrics by name, one per line,
//! and ends with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`.

mod chip;
mod clips;
mod gdsgen;
mod layers;
mod proc;
mod quality;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `cardopc` binary under test.
    pub cardopc: PathBuf,
    /// Directory for this workload's generated inputs and program
    /// outputs (`.bench_work/<workload>`, emptied at start).
    pub work: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (tiles, clips or jobs) attempted.
    pub attempted: usize,
    /// Operations that failed or were refused.
    pub failed: usize,
    /// Printed metrics, in order (the ones `BENCHMARK.json` lists are a
    /// subset and are echoed again in the final JSON line).
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The metrics, with their units, that `BENCHMARK.json` (read from the
/// working directory, the repository root) lists under `end_to_end`, or
/// under `per_layer` for a traced run: the ones the final JSON line
/// carries.
fn listed_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = cardopc_json::Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(cardopc_json::Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(cardopc_json::Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} entry has no {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

const WORKLOADS: &[&str] = &["chip_cold", "chip_eco", "serve_fleet", "paper_clips"];

const USAGE: &str = "usage: perfbench --workload <chip_cold|chip_eco|serve_fleet|paper_clips> \
--seed <n> --seconds <s> --trace <0|1> --cardopc <path>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cardopc = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--cardopc" => cardopc = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        work: PathBuf::from(".bench_work").join(&workload),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        cardopc: cardopc.ok_or("--cardopc is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let wanted = match listed_metrics(args.trace) {
        Ok(names) => names,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let work = &args.work;
    if let Err(e) = std::fs::remove_dir_all(work).or_else(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            Ok(())
        } else {
            Err(e)
        }
    }) {
        eprintln!("perfbench: cannot clear {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }

    let result = match args.workload.as_str() {
        "chip_cold" => chip::chip_cold(&args),
        "chip_eco" => chip::chip_eco(&args),
        "serve_fleet" => serve::serve_fleet(&args),
        "paper_clips" => clips::paper_clips(&args),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    for (name, unit) in &wanted {
        match report.get(name) {
            None => report
                .problems
                .push(format!("metric {name} was not measured")),
            Some(m) if m.unit != unit => report.problems.push(format!(
                "metric {name} is in {}, BENCHMARK.json says {unit}",
                m.unit
            )),
            Some(_) => {}
        }
    }
    report.correct = report.problems.is_empty();
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for m in &report.metrics {
        println!("metric {:<28} {:>18} {}", m.name, fmt_num(m.value), m.unit);
    }
    let metrics: Vec<(&str, cardopc_json::Json)> = wanted
        .iter()
        .filter_map(|(name, _)| report.get(name))
        .map(|m| {
            (
                m.name.as_str(),
                cardopc_json::Json::obj(vec![
                    ("value", cardopc_json::Json::Num(m.value)),
                    ("unit", cardopc_json::Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = cardopc_json::Json::obj(vec![
        ("correct", cardopc_json::Json::Bool(report.correct)),
        ("attempted", cardopc_json::Json::num_usize(report.attempted)),
        ("failed", cardopc_json::Json::num_usize(report.failed)),
        ("metrics", cardopc_json::Json::obj(metrics)),
    ]);
    println!("{}", line.to_string_compact());
    ExitCode::SUCCESS
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}
