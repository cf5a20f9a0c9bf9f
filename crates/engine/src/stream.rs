//! Streaming cleaning: repair rows chunk by chunk with bounded memory.
//!
//! A [`StreamCleaner`] consumes complete row batches (typically from a
//! [`datavinci_table::CsvChunkReader`] over a file or stdin) and emits each
//! batch's *repaired* rows as soon as the batch is cleaned — rows are final
//! once emitted. Cleaning runs through the full [`Engine`] stack, so all
//! the incremental machinery built for append-only growth does the heavy
//! lifting:
//!
//! * each chunk's clean **resumes the previous chunk's session** via the
//!   cache's snapshot layer — the rendered matrix, row interner, and value
//!   vectors are extended over the new rows, never rebuilt
//!   ([`datavinci_core::AnalysisSession::resume`]);
//! * each column's learned profile rides the **append cache arm** — prior
//!   patterns are re-scored against the appended rows, with the engine's
//!   usual fallback to full re-profiling when the appended rows break the
//!   learned language.
//!
//! Memory is bounded by the **window**: when the resident row window
//! exceeds [`StreamConfig::window_rows`], already-emitted rows are dropped
//! and profiling restarts on the next window (the column cache keeps the
//! learned artifacts, but a fresh window's content no longer prefix-matches
//! them, so they only short-circuit exact re-occurrences). Peak allocation
//! is therefore a function of window + chunk size, independent of how many
//! total rows flow through — the property the `stream_window_peak` test in
//! `datavinci-bench` meters and gates on.
//!
//! On a *stationary* stream — value distributions that repeat chunk over
//! chunk, the regime append re-scoring targets — the emitted output is
//! byte-identical to batch-cleaning the same finite input in one call
//! (`tests/stream_vs_batch.rs` checks it differentially, compaction
//! included).

use std::time::{Duration, Instant};

use crate::engine::{Engine, EngineConfig};
use crate::report::EngineReport;
use datavinci_core::DataVinci;
use datavinci_table::{io, CellValue, Column, Table};

/// Streaming configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamConfig {
    /// Worker threads for the inner engine; `0` means one per hardware
    /// thread.
    pub workers: usize,
    /// Maximum resident (already-emitted) rows retained as cleaning context
    /// before compaction drops them; `0` keeps every row (no compaction —
    /// memory grows with the stream).
    pub window_rows: usize,
    /// Record structured telemetry on the inner engine (per-chunk
    /// `stream.*` counters and gauges plus the engine's own spans and
    /// histograms). Off by default.
    pub telemetry: bool,
}

/// One repair emitted for a streamed row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRepair {
    /// Column index.
    pub col: usize,
    /// Absolute row index in the stream (0-based over data rows).
    pub row: usize,
    /// The original cell text.
    pub original: String,
    /// The repaired cell text.
    pub repaired: String,
}

/// What one pushed chunk produced.
#[derive(Debug)]
pub struct ChunkOutcome {
    /// Absolute stream index of the chunk's first row.
    pub first_row: usize,
    /// Rows in the chunk.
    pub n_rows: usize,
    /// The chunk's rows after repair, as CSV lines (no header) — append to
    /// the emitted header for a byte-exact repaired CSV stream.
    pub csv: String,
    /// Repairs applied to this chunk's rows, in (col, row) order.
    pub repairs: Vec<StreamRepair>,
    /// The engine report for the window clean that served this chunk.
    pub report: EngineReport,
    /// Whether the window was compacted before this chunk.
    pub compacted: bool,
    /// Wall time for this chunk end-to-end (compaction + append + window
    /// clean + emission).
    pub elapsed: Duration,
}

/// The chunk-at-a-time cleaner (see the module docs).
pub struct StreamCleaner {
    engine: Engine,
    /// The resident window: recently streamed rows kept as cleaning
    /// context. Every resident row has already been emitted.
    resident: Table,
    /// Absolute stream index of resident row 0.
    resident_start: usize,
    window_rows: usize,
    /// Total data rows streamed.
    n_rows: usize,
    /// Total repairs emitted.
    n_repairs: usize,
    /// Windows dropped by compaction.
    compactions: usize,
}

impl StreamCleaner {
    /// A cleaner for a stream with the given header, using a default
    /// [`DataVinci`] system.
    pub fn new(header: &[String], cfg: StreamConfig) -> StreamCleaner {
        StreamCleaner::with_system(DataVinci::new(), header, cfg)
    }

    /// A cleaner around an explicitly configured system.
    ///
    /// The inner engine's cache is bounded tightly when a window is set:
    /// every chunk creates new column fingerprints, so an unbounded cache
    /// would grow with the stream length, defeating the windowed memory
    /// bound.
    pub fn with_system(dv: DataVinci, header: &[String], cfg: StreamConfig) -> StreamCleaner {
        let cache_capacity = if cfg.window_rows > 0 {
            (4 * header.len()).max(16)
        } else {
            crate::cache::DEFAULT_CACHE_CAPACITY
        };
        let engine = Engine::with_system(
            dv,
            EngineConfig {
                workers: cfg.workers,
                cache: true,
                cache_capacity,
                telemetry: cfg.telemetry,
            },
        );
        StreamCleaner {
            engine,
            resident: Table::new(
                header
                    .iter()
                    .map(|name| Column::new(name.clone(), Vec::new()))
                    .collect(),
            ),
            resident_start: 0,
            window_rows: cfg.window_rows,
            n_rows: 0,
            n_repairs: 0,
            compactions: 0,
        }
    }

    /// The stream's header record, as one CSV line.
    pub fn csv_header(&self) -> String {
        io::csv_header(&self.resident)
    }

    /// Total data rows streamed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total repairs emitted so far.
    pub fn n_repairs(&self) -> usize {
        self.n_repairs
    }

    /// Times the resident window was compacted.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Rows currently resident as cleaning context (bounded by the window).
    pub fn resident_rows(&self) -> usize {
        self.resident.n_rows()
    }

    /// The inner engine (cache telemetry, worker count).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Cleans one batch of complete rows (each `rows[i]` must have one
    /// field per header column — [`datavinci_table::CsvChunkReader`]
    /// guarantees this) and returns their repaired form. The rows are final
    /// once returned: later chunks can refine the learned column language,
    /// but never retract an emitted row.
    pub fn push_rows(&mut self, rows: &[Vec<String>]) -> ChunkOutcome {
        let started = Instant::now();
        // Compact before appending: every resident row is already emitted,
        // so dropping the window only sheds context, never output.
        let compacted = self.window_rows > 0 && self.resident.n_rows() >= self.window_rows;
        if compacted {
            self.compactions += 1;
            self.resident_start += self.resident.n_rows();
            let header: Vec<String> = self
                .resident
                .headers()
                .iter()
                .map(|h| h.to_string())
                .collect();
            self.resident = Table::new(
                header
                    .into_iter()
                    .map(|name| Column::new(name, Vec::new()))
                    .collect(),
            );
        }

        let first_new = self.resident.n_rows();
        for row in rows {
            for (c, field) in row.iter().enumerate() {
                self.resident
                    .column_mut(c)
                    .expect("row width matches header")
                    .values_mut()
                    .push(CellValue::parse(field));
            }
        }
        self.n_rows += rows.len();

        // Clean the whole window (resumes the prior chunk's session through
        // the cache's snapshot layer), then emit only the new rows.
        let report = self.engine.clean_table(&self.resident);
        let table_report = report.table_report();
        let repaired = Engine::apply(&self.resident, &table_report);
        let mut csv = String::new();
        io::append_csv_rows(&mut csv, &repaired, first_new..repaired.n_rows());

        let mut repairs: Vec<StreamRepair> = Vec::new();
        for col_report in &table_report.columns {
            for repair in &col_report.repairs {
                if repair.row >= first_new {
                    repairs.push(StreamRepair {
                        col: col_report.col,
                        row: self.resident_start + repair.row,
                        original: repair.original.clone(),
                        repaired: repair.repaired.clone(),
                    });
                }
            }
        }
        repairs.sort_by_key(|r| (r.col, r.row));
        self.n_repairs += repairs.len();

        let elapsed = started.elapsed();
        let registry = self.engine.metrics();
        if registry.enabled() {
            registry.add_counter("stream.chunks", 1);
            registry.add_counter("stream.rows", rows.len() as u64);
            registry.add_counter("stream.repairs", repairs.len() as u64);
            if compacted {
                registry.add_counter("stream.compactions", 1);
            }
            registry.set_gauge("stream.window_resident_rows", self.resident.n_rows() as f64);
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                registry.set_gauge("stream.chunk_rows_per_s", rows.len() as f64 / secs);
            }
            registry.observe("stream.chunk_latency", elapsed);
        }

        ChunkOutcome {
            first_row: self.resident_start + first_new,
            n_rows: rows.len(),
            csv,
            repairs,
            report,
            compacted,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stationary quarterly stream: every cycle repeats the same distinct
    /// values, one of them malformed (`Q32001` → `Q3-2001`).
    fn cycle() -> Vec<Vec<String>> {
        ["Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002", "Q32001"]
            .iter()
            .map(|v| vec![v.to_string()])
            .collect()
    }

    fn header() -> Vec<String> {
        vec!["Quarter".to_string()]
    }

    #[test]
    fn streams_match_batch_on_stationary_input() {
        let mut cleaner = StreamCleaner::new(&header(), StreamConfig::default());
        let mut streamed = cleaner.csv_header();
        let mut all_rows = Vec::new();
        for _ in 0..3 {
            let chunk = cycle();
            all_rows.extend(chunk.clone());
            let out = cleaner.push_rows(&chunk);
            assert_eq!(out.repairs.len(), 1, "one bad value per cycle");
            assert_eq!(out.repairs[0].repaired, "Q3-2001");
            streamed.push_str(&out.csv);
        }

        // Batch-clean the identical finite input in one call.
        let table = io::rows_to_table(&header(), &all_rows);
        let engine = Engine::new();
        let report = engine.clean_table(&table);
        let batch = io::to_csv(&Engine::apply(&table, &report.table_report()));
        assert_eq!(streamed, batch, "streaming must be byte-identical");
        assert_eq!(cleaner.n_rows(), 15);
        assert_eq!(cleaner.n_repairs(), 3);
    }

    #[test]
    fn later_chunks_resume_prior_sessions() {
        let mut cleaner = StreamCleaner::new(&header(), StreamConfig::default());
        cleaner.push_rows(&cycle());
        let out = cleaner.push_rows(&cycle());
        assert_eq!(out.report.session.session_extensions, 1);
        assert_eq!(out.report.session.rows_appended, 5);
        assert!(cleaner.engine().cache_stats().unwrap().session_resumes >= 1);
    }

    #[test]
    fn window_compaction_bounds_residency_and_keeps_output() {
        let cfg = StreamConfig {
            workers: 1,
            window_rows: 10,
            ..StreamConfig::default()
        };
        let mut windowed = StreamCleaner::new(&header(), cfg);
        let mut unbounded = StreamCleaner::new(&header(), StreamConfig::default());
        let mut a = windowed.csv_header();
        let mut b = unbounded.csv_header();
        for _ in 0..5 {
            let chunk = cycle();
            a.push_str(&windowed.push_rows(&chunk).csv);
            b.push_str(&unbounded.push_rows(&chunk).csv);
        }
        assert_eq!(a, b, "compaction must not change emitted rows");
        assert!(windowed.compactions() >= 2);
        assert!(windowed.resident.n_rows() <= 10 + 5);
        // Absolute row indices survive compaction.
        let chunk = cycle();
        let out = windowed.push_rows(&chunk);
        assert_eq!(out.first_row, 25);
        assert_eq!(out.repairs[0].row, 29);
    }

    #[test]
    fn compaction_never_resumes_a_stale_snapshot() {
        let cfg = StreamConfig {
            workers: 1,
            window_rows: 10,
            ..StreamConfig::default()
        };
        let mut cleaner = StreamCleaner::new(&header(), cfg);
        let resumes = |c: &StreamCleaner| c.engine().cache_stats().unwrap().session_resumes;

        // Chunk 1: cold start, nothing to resume.
        assert!(!cleaner.push_rows(&cycle()).compacted);
        assert_eq!(resumes(&cleaner), 0);
        // Chunk 2: the 5-row snapshot is a prefix of the 10-row window —
        // resumed.
        assert!(!cleaner.push_rows(&cycle()).compacted);
        assert_eq!(resumes(&cleaner), 1);
        // Chunk 3: the window compacts first, so the cached snapshot (of
        // the old 10-row window) no longer prefix-matches the fresh 5-row
        // window. It must be rejected, not resumed.
        assert!(cleaner.push_rows(&cycle()).compacted);
        assert_eq!(resumes(&cleaner), 1, "stale snapshot must not resume");
        // Chunk 4: the post-compaction snapshot is current again.
        assert!(!cleaner.push_rows(&cycle()).compacted);
        assert_eq!(resumes(&cleaner), 2);

        // The reject itself is the `SessionResumeError` path: a snapshot of
        // the pre-compaction window cannot re-attach to the smaller
        // post-compaction one.
        let dv = DataVinci::new();
        let big = io::rows_to_table(&header(), &[cycle(), cycle()].concat());
        let snapshot = dv.session(&big).into_snapshot();
        let small = io::rows_to_table(&header(), &cycle());
        match datavinci_core::AnalysisSession::resume(snapshot, &small) {
            Err(datavinci_core::SessionResumeError::TableShrunk { had, got }) => {
                assert_eq!((had, got), (10, 5));
            }
            other => panic!("expected TableShrunk, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn windowed_cache_stays_bounded_over_a_long_stream() {
        let cfg = StreamConfig {
            workers: 1,
            window_rows: 10,
            ..StreamConfig::default()
        };
        let mut cleaner = StreamCleaner::new(&header(), cfg);
        // One column: capacity is (4 * 1).max(16) = 16. Every chunk mints
        // new column fingerprints, so without the bound (and LRU eviction)
        // the cache would grow with the stream.
        for i in 0..30 {
            cleaner.push_rows(&cycle());
            assert!(
                cleaner.engine().cache_len() <= 16,
                "cache grew past capacity at chunk {i}: {}",
                cleaner.engine().cache_len()
            );
        }
        assert!(cleaner.compactions() >= 14);
        assert_eq!(cleaner.n_repairs(), 30);
    }

    #[test]
    fn empty_chunk_is_a_no_op() {
        let mut cleaner = StreamCleaner::new(&header(), StreamConfig::default());
        let out = cleaner.push_rows(&[]);
        assert_eq!(out.n_rows, 0);
        assert!(out.csv.is_empty());
        assert!(out.repairs.is_empty());
    }
}
