//! Counter ladder for the repair layer.
//!
//! Generated all-distinct tables of 1k, 2k, 4k and 8k rows (the shapes,
//! seeds and 2% cell noise of `merge_ladder.rs`) are cleaned end to end
//! with `DataVinci::clean_table`, telemetry on. The gates read exact
//! counters, so neither depends on machine speed:
//!
//! - `rank.lev_cells`, the Levenshtein DP cells the ranker fills to find
//!   each candidate's closest clean value, stays at or under what the
//!   length-ordered scan the trie search replaced filled on every rung,
//!   and at or under half of it at 8k rows;
//! - `profile.merge_cost_dps` stays strictly under what the merge loop ran
//!   before its length lower bound skipped pairs that cannot merge.
//!
//! `concretize.train_rows` is printed, not gated.

use std::collections::BTreeMap;

use datavinci_core::DataVinci;
use datavinci_corpus::{random_spec, NoiseModel, TableSpec};
use datavinci_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TABLES: usize = 4;
const RUNGS: [usize; 4] = [1000, 2000, 4000, 8000];
/// `rank.lev_cells` per rung under the length-ordered scan.
const SCAN_LEV_CELLS: [u64; 4] = [1_283_532, 3_687_602, 21_515_794, 72_672_788];
/// `profile.merge_cost_dps` per rung before the merge lower bound.
const UNBOUNDED_MERGE_COST_DPS: [u64; 4] = [1_299, 3_002, 12_431, 29_800];

/// Counters summed over `TABLES` generated tables of `rows` rows.
fn ladder_rung(rows: usize) -> BTreeMap<String, u64> {
    let mut shapes = StdRng::seed_from_u64(7);
    let mut rng = StdRng::seed_from_u64(1);
    let system = DataVinci::new();
    let mut counters = BTreeMap::new();
    for _ in 0..TABLES {
        let shape = random_spec(&mut shapes, 3.0, rows as f64);
        let clean = TableSpec::new(rows, shape.flavors).generate(&mut rng);
        let (dirty, _) = NoiseModel { cell_prob: 0.02 }.corrupt_table(&mut rng, &clean);
        let (_, recorded) = telemetry::collect(true, || system.clean_table(&dirty));
        for (name, value) in recorded.expect("telemetry enabled").metrics.counters {
            *counters.entry(name).or_insert(0) += value;
        }
    }
    counters
}

#[test]
fn repair_counters_stay_under_the_replaced_searches() {
    let mut top_cells = None;
    for (i, rows) in RUNGS.into_iter().enumerate() {
        let counters = ladder_rung(rows);
        let read = |name: &str| counters.get(name).copied().unwrap_or(0);
        let (cells, dps, trained) = (
            read("rank.lev_cells"),
            read("profile.merge_cost_dps"),
            read("concretize.train_rows"),
        );
        eprintln!(
            "{rows} rows: rank.lev_cells {cells} (scan {}), profile.merge_cost_dps {dps} \
             (unbounded {}), concretize.train_rows {trained} ({:.2} per rung row)",
            SCAN_LEV_CELLS[i],
            UNBOUNDED_MERGE_COST_DPS[i],
            trained as f64 / rows as f64,
        );
        top_cells = Some(cells);
        assert!(
            cells <= SCAN_LEV_CELLS[i],
            "{rows} rows: {cells} Levenshtein cells > the scan's {}",
            SCAN_LEV_CELLS[i]
        );
        assert!(
            dps < UNBOUNDED_MERGE_COST_DPS[i],
            "{rows} rows: {dps} merge cost DPs, not under the unbounded loop's {}",
            UNBOUNDED_MERGE_COST_DPS[i]
        );
    }
    let (top, scan) = (RUNGS[3], SCAN_LEV_CELLS[3]);
    let cells = top_cells.expect("the top rung ran");
    assert!(
        2 * cells <= scan,
        "{top} rows: {cells} Levenshtein cells, more than half the scan's {scan}"
    );
}
