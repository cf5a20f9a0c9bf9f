//! The DataVinci benchmark: three single-process, closed-loop workloads
//! measured end to end, and a traced run that splits their time by layer.
//!
//! * `corpus_cold` — the paper's table shapes (Wikipedia- and Excel-like),
//!   every clean cold.
//! * `large_cold` — ~2k-row tables, where profiling and repair dominate.
//! * `serve_warm` — one client against an in-process `datavinci-serve`
//!   daemon whose cache is warm.
//!
//! Every engine runs with one worker and there is one client, so a run
//! never uses more than two threads. Timings are medians over many
//! operations; outputs are checked outside the timed region.

mod cold;
mod serve;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use datavinci_bench::metrics::{truth_rows, DetectionCounts, RepairCounts};
use datavinci_core::TableReport;
use datavinci_engine::json::Json;
use datavinci_table::{CellRef, Fingerprinter, Table};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["corpus_cold", "large_cold", "serve_warm"];

/// Input sizes: the measured ones, or tiny ones for the determinism test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed for every generated input.
    pub seed: u64,
    /// Measurement budget; at least one round always runs.
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
}

impl RunConfig {
    /// Set-ups per run; the median set-up time is reported.
    pub fn setup_repeats(&self) -> usize {
        match self.size {
            Size::Full => 3,
            Size::Tiny => 1,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Digest of the outputs of the deterministic part of the run.
    pub output_digest: u64,
    /// The traced run's aggregated span tree, rendered.
    pub spans: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn to_json(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.field(
                m.name,
                Json::obj()
                    .field("value", Json::Num(m.value))
                    .field("unit", Json::str(m.unit)),
            );
        }
        Json::obj()
            .field("correct", Json::Bool(self.correct))
            .field("attempted", Json::Int(self.attempted as i64))
            .field("failed", Json::Int(self.failed as i64))
            .field("metrics", metrics)
            .render()
    }

    /// The value of the named metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "corpus_cold" => Ok(cold::run(cold::Kind::Corpus, cfg)),
        "large_cold" => Ok(cold::run(cold::Kind::Large, cfg)),
        "serve_warm" => serve::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Detection and repair quality against the generator's ground truth.
#[derive(Clone, Debug, Default)]
pub(crate) struct Quality {
    detection: DetectionCounts,
    repair: RepairCounts,
    pub(crate) detections: u64,
    pub(crate) repairs: u64,
}

impl Quality {
    /// Scores one table's report; `corrupted` lists the cells the noise
    /// model changed in `clean`.
    pub(crate) fn add(&mut self, report: &TableReport, clean: &Table, corrupted: &[CellRef]) {
        for col in &report.columns {
            let truth = truth_rows(corrupted, col.col);
            self.detection
                .add(&DetectionCounts::score(&col.detections, &truth, col.n_rows));
            self.repair
                .add(&RepairCounts::score(&col.repairs, &truth, clean, col.col));
            self.detections += col.detections.len() as u64;
            self.repairs += col.repairs.len() as u64;
        }
    }
}

/// The end-to-end metrics every workload reports. `latencies_ms` holds one
/// sample per table (cold workloads) or per request (`serve_warm`).
pub(crate) fn end_to_end(
    rows_per_s: f64,
    latencies_ms: &[f64],
    quality: &Quality,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let metric = |name, unit, value| Metric { name, unit, value };
    vec![
        metric("rows_per_s", "rows/s", rows_per_s),
        metric("latency_p50_ms", "ms", median(latencies_ms)),
        metric("latency_p90_ms", "ms", quantile(latencies_ms, 0.90)),
        metric(
            "repair_certain_pct",
            "%",
            quality.repair.precision_certain(),
        ),
        metric("detect_f1_pct", "%", quality.detection.f1()),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Operations attempted and failed. A failure is an error, a panic, or an
/// output that does not match its reference.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` says whether it succeeded.
    pub(crate) fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs `f`, turning a panic into `None` (the panic message still reaches
/// stderr through the default hook).
pub(crate) fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Paces a closed loop: rounds keep starting while one more round, at the
/// mean round time so far, still ends inside the budget.
pub(crate) struct Pacer {
    started: Instant,
    budget: Duration,
}

impl Pacer {
    pub(crate) fn start(seconds: f64) -> Pacer {
        Pacer {
            started: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// Should round `done + 1` start? Always true before the first round.
    pub(crate) fn another(&self, done: u32) -> bool {
        if done == 0 {
            return true;
        }
        let elapsed = self.started.elapsed();
        elapsed + elapsed / done <= self.budget
    }
}

/// A stable 64-bit digest of a sequence of byte strings.
pub(crate) fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut fp = Fingerprinter::new();
    for part in parts {
        fp.add_u64(part.len() as u64);
        fp.add_bytes(part);
    }
    fp.finish()
}

/// Linear-interpolated quantile `q` of `samples` (0 when empty).
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub(crate) fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub(crate) fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `setup` `repeats` times and returns the last result with the
/// median set-up time in seconds. Repeating it keeps one slow set-up from
/// deciding the reported figure.
pub(crate) fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        let value = setup();
        seconds.push(started.elapsed().as_secs_f64());
        // The previous set-up is torn down outside the timed region.
        drop(last.replace(value));
    }
    (last.expect("at least one set-up"), median(&seconds))
}
