//! Windowed-streaming memory gate: the peak heap of a `StreamCleaner` with
//! a fixed chunk and window must not grow with the number of rows streamed.
//!
//! A stationary cyclic stream (the seeded 40-row noisy sample table,
//! repeated cycle after cycle, one cycle per chunk) is pushed through a
//! one-worker cleaner with an 80-row window, metered by the peak-tracking
//! allocator over 8 cycles and over 40 cycles. Emitted CSV is dropped per
//! chunk (only its length is kept), so the measurement sees the cleaner's
//! residency, not an accumulating output buffer. The 5× longer stream may
//! raise the peak by at most half: an unbounded window grows it with the
//! input. Output identity against the batch engine is covered by
//! `tests/stream_vs_batch.rs`.
//!
//! This file holds exactly one test: a second concurrent test would
//! pollute the global peak.

use datavinci_bench::alloc_meter::{peak_bytes, reset_peak, MeteredAlloc};
use datavinci_bench::sample_noisy_table;
use datavinci_engine::{StreamCleaner, StreamConfig};
use datavinci_table::CellValue;

#[global_allocator]
static ALLOC: MeteredAlloc = MeteredAlloc;

const CYCLE_ROWS: usize = 40;
const WINDOW_ROWS: usize = 2 * CYCLE_ROWS;
const BASE_CYCLES: usize = 8;
const MAX_PEAK_RATIO: f64 = 1.5;

/// Peak live heap, in bytes, while `cycles` cycles stream through a fresh
/// windowed cleaner.
fn windowed_peak(header: &[String], cycle: &[Vec<String>], cycles: usize) -> usize {
    reset_peak();
    let cfg = StreamConfig {
        workers: 1,
        window_rows: WINDOW_ROWS,
        ..StreamConfig::default()
    };
    let mut cleaner = StreamCleaner::new(header, cfg);
    for _ in 0..cycles {
        std::hint::black_box(cleaner.push_rows(cycle).csv.len());
    }
    assert_eq!(cleaner.n_rows(), cycles * cycle.len());
    peak_bytes()
}

#[test]
fn windowed_stream_peak_heap_does_not_grow_with_stream_length() {
    let table = sample_noisy_table(2024, CYCLE_ROWS);
    let header: Vec<String> = table.headers().iter().map(|h| h.to_string()).collect();
    let cycle: Vec<Vec<String>> = (0..table.n_rows())
        .map(|r| {
            table
                .columns()
                .iter()
                .map(|c| c.get(r).map(CellValue::render).unwrap_or_default())
                .collect()
        })
        .collect();

    // Warm-up: gazetteers and lazily-built statics allocate once, outside
    // either measured run.
    windowed_peak(&header, &cycle, 2);
    let peak_n = windowed_peak(&header, &cycle, BASE_CYCLES);
    let peak_5n = windowed_peak(&header, &cycle, 5 * BASE_CYCLES);
    let ratio = peak_5n as f64 / peak_n.max(1) as f64;
    eprintln!(
        "windowed stream peak: {peak_n} B over {} rows, {peak_5n} B over {} rows (×{ratio:.3})",
        BASE_CYCLES * CYCLE_ROWS,
        5 * BASE_CYCLES * CYCLE_ROWS
    );
    assert!(
        ratio <= MAX_PEAK_RATIO,
        "peak allocation grew with stream length (×{ratio:.3} > ×{MAX_PEAK_RATIO}); \
         the window bound is broken"
    );
}
