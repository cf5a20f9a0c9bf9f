//! Telemetry overhead gate: recording must not distort what it measures,
//! and dead instrumentation must cost next to nothing.
//!
//! Cleans the seeded 120-row noisy sample table end to end with telemetry
//! disabled and enabled, first asserting the two modes produce
//! byte-identical reports and repaired CSV, then timing 256 interleaved
//! iterations per mode in alternating order (fresh cold-cache one-worker
//! engine per clean).
//! Two gates:
//!
//! * **enabled** — median enabled vs median disabled wall time, within 8%.
//! * **disabled** — a dead record call is one relaxed atomic load and a
//!   branch. Its per-call cost, measured in a tight loop, times the number
//!   of record events an enabled clean produces (an overestimate of the
//!   dead calls, since enabled runs record everything) must stay within 2%
//!   of a disabled clean.
//!
//! Wall-clock gates mean nothing in an unoptimized build, so the test is
//! ignored there; CI runs it with `cargo test --release`.

use std::time::Instant;

use datavinci_bench::sample_noisy_table;
use datavinci_core::DataVinci;
use datavinci_engine::{Engine, EngineConfig};
use datavinci_table::io;
use datavinci_telemetry::{counter, span, SpanNode, TaskProfile};

const SEED: u64 = 2024;
const ROWS: usize = 120;
const ITERATIONS: usize = 256;
const ENABLED_GATE_PCT: f64 = 8.0;
const DISABLED_GATE_PCT: f64 = 2.0;

fn engine(telemetry: bool) -> Engine {
    Engine::with_system(
        DataVinci::new(),
        EngineConfig {
            workers: 1,
            cache: true,
            telemetry,
            ..EngineConfig::default()
        },
    )
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn span_events(nodes: &[SpanNode]) -> u64 {
    nodes
        .iter()
        .map(|n| n.count + span_events(&n.children))
        .sum()
}

/// Record events one enabled clean produces: span open+close pairs plus one
/// per counter/gauge/histogram touch (counter keys × span count is a crude
/// proxy for repeat calls, so this leans high — which only tightens the
/// disabled-overhead bound).
fn record_events(profile: &TaskProfile) -> u64 {
    let spans = span_events(&profile.spans);
    let metrics = &profile.metrics;
    let touches = (metrics.counters.len() + metrics.gauges.len() + metrics.histograms.len()) as u64;
    2 * spans + touches * spans.max(1)
}

/// Per-call cost of a dead instrumentation point (no collector anywhere),
/// measured over a million loop iterations.
fn disabled_call_ns() -> f64 {
    const CALLS: u32 = 1_000_000;
    let started = Instant::now();
    for i in 0..CALLS {
        counter("bench.dead", u64::from(i & 1));
        let _span = span("bench.dead_span");
    }
    // Each iteration exercises one dead counter and one dead span guard
    // (construction + drop): three short-circuit checks total.
    started.elapsed().as_secs_f64() * 1e9 / f64::from(3 * CALLS)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate; CI runs it in release")]
fn telemetry_overhead_stays_within_gates() {
    let table = sample_noisy_table(SEED, ROWS);

    // Identity: both modes must clean to byte-identical reports and CSV.
    let off = engine(false).clean_table(&table);
    let on = engine(true).clean_table(&table);
    assert_eq!(
        format!("{:#?}", off.table_report()),
        format!("{:#?}", on.table_report()),
        "telemetry changed the cleaning report"
    );
    assert_eq!(
        io::to_csv(&Engine::apply(&table, &off.table_report())),
        io::to_csv(&Engine::apply(&table, &on.table_report())),
        "telemetry changed the repaired CSV"
    );
    let events = record_events(on.telemetry.as_ref().expect("telemetry enabled"));

    // Interleaved A/B timing, fresh cold-cache engine per clean. Each
    // iteration times both modes in an order that alternates (ABBA), so a
    // drift in machine speed lands on both modes alike.
    let mut disabled_ms = Vec::with_capacity(ITERATIONS);
    let mut enabled_ms = Vec::with_capacity(ITERATIONS);
    for i in 0..ITERATIONS {
        for telemetry in [i % 2 == 1, i % 2 == 0] {
            let e = engine(telemetry);
            let started = Instant::now();
            let report = e.clean_table(&table);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(report.telemetry.is_some(), telemetry);
            if telemetry {
                enabled_ms.push(ms);
            } else {
                disabled_ms.push(ms);
            }
        }
    }
    let disabled_median = median(&mut disabled_ms);
    let enabled_median = median(&mut enabled_ms);
    let enabled_overhead_pct =
        ((enabled_median - disabled_median) / disabled_median * 100.0).max(0.0);

    let per_call_ns = disabled_call_ns();
    let disabled_overhead_pct = events as f64 * per_call_ns / (disabled_median * 1e6) * 100.0;

    eprintln!(
        "telemetry overhead over {ROWS} rows: disabled {disabled_median:.3} ms, \
         enabled {enabled_median:.3} ms (+{enabled_overhead_pct:.2}%), \
         dead call {per_call_ns:.2} ns × {events} events = {disabled_overhead_pct:.3}%"
    );
    assert!(
        enabled_overhead_pct <= ENABLED_GATE_PCT,
        "enabled telemetry overhead {enabled_overhead_pct:.2}% exceeds {ENABLED_GATE_PCT}%"
    );
    assert!(
        disabled_overhead_pct <= DISABLED_GATE_PCT,
        "disabled instrumentation overhead {disabled_overhead_pct:.3}% exceeds {DISABLED_GATE_PCT}%"
    );
}
