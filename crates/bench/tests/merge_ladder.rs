//! Counter ladder for the profiler's merge loop.
//!
//! Generated tables of 1k, 2k, 4k and 8k rows (the same flavor mix and 2%
//! cell noise as the benchmark's `large_cold` workload, no duplicated rows)
//! are profiled column by column with `profile_column` alone. Two gates on
//! the exact `profile.merge_cost_dps` counter, so neither depends on
//! machine speed:
//!
//! - every column runs at most as many cost-only alignment DPs as the
//!   all-pairs materializing loop makes `try_merge` calls on it;
//! - summed over the tables, the DP count grows at most ×4 per doubling of
//!   rows. Noisy cells mostly carry shapes of their own, so the number of
//!   merge groups G grows about linearly with rows. The cached pair-cost
//!   scan runs O(G²) DPs, less the pairs whose unit lengths alone rule a
//!   merge out: ×2.9–3.7 per doubling on this ladder. The all-pairs
//!   loop's O(G³) call count grows ×4.6–5.4 and fails the gate.

use datavinci_corpus::{random_spec, NoiseModel, TableSpec};
use datavinci_profile::atom::{signature, smallest_period, tokenize, AtomKind};
use datavinci_profile::{profile_column, ProfilerConfig};
use datavinci_regex::MaskedString;
use datavinci_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

const TABLES: usize = 4;
const MAX_GROWTH_PER_DOUBLING: f64 = 4.0;

/// Initial merge groups of a column: one per distinct unit signature.
fn initial_groups(values: &[MaskedString]) -> u64 {
    let keys: HashSet<Vec<AtomKind>> = values
        .iter()
        .map(|v| {
            let sig = signature(&tokenize(v));
            let (p, _) = smallest_period(&sig);
            sig[..p].to_vec()
        })
        .collect();
    keys.len() as u64
}

/// `try_merge` calls of the all-pairs loop: one per pair of the shrinking
/// group list on every round, plus a last round that finds nothing.
fn all_pairs_try_merge_calls(groups: u64, rounds: u64) -> u64 {
    (0..=rounds)
        .map(|r| groups - r)
        .map(|l| l * l.saturating_sub(1) / 2)
        .sum()
}

/// `(cost DPs, all-pairs try_merge calls)` summed over the columns of
/// `TABLES` generated tables of `rows` rows.
fn ladder_rung(rows: usize) -> (u64, u64) {
    let mut shapes = StdRng::seed_from_u64(7);
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = ProfilerConfig::default();
    let (mut dps, mut all_pairs) = (0, 0);
    for _ in 0..TABLES {
        let shape = random_spec(&mut shapes, 3.0, rows as f64);
        let clean = TableSpec::new(rows, shape.flavors).generate(&mut rng);
        let (dirty, _) = NoiseModel { cell_prob: 0.02 }.corrupt_table(&mut rng, &clean);
        for column in dirty.columns() {
            let values: Vec<MaskedString> = column
                .rendered()
                .iter()
                .map(|s| MaskedString::from_plain(s))
                .collect();
            let (_, recorded) = telemetry::collect(true, || profile_column(&values, &cfg));
            let counters = recorded.expect("telemetry enabled").metrics.counters;
            let column_dps = counters["profile.merge_cost_dps"];
            let calls = all_pairs_try_merge_calls(
                initial_groups(&values),
                counters["profile.merge_rounds"],
            );
            assert!(
                column_dps <= calls,
                "{rows} rows: {column_dps} cost DPs > {calls} all-pairs try_merge calls"
            );
            dps += column_dps;
            all_pairs += calls;
        }
    }
    (dps, all_pairs)
}

#[test]
fn merge_cost_dps_grow_at_most_quadratically_and_stay_under_all_pairs() {
    let mut prev: Option<u64> = None;
    for rows in [1000, 2000, 4000, 8000] {
        let (dps, all_pairs) = ladder_rung(rows);
        eprintln!("{rows} rows: {dps} cost DPs, all-pairs loop {all_pairs} try_merge calls");
        if let Some(prev) = prev {
            let growth = dps as f64 / prev as f64;
            assert!(
                growth <= MAX_GROWTH_PER_DOUBLING,
                "{rows} rows: {dps} cost DPs, ×{growth:.2} the half-size rung"
            );
        }
        prev = Some(dps);
    }
}
