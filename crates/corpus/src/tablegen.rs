//! Whole-table generation from flavor specs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::flavor::Flavor;
use datavinci_table::{Column, Table};

/// A table specification: row count plus the flavor of each column group.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Number of rows.
    pub n_rows: usize,
    /// Column-group flavors (a flavor may expand to several columns).
    pub flavors: Vec<Flavor>,
    /// Value-reuse probability in `[0, 1)`: after generation, each row is
    /// replaced, with this probability, by a copy of an earlier row drawn
    /// with a Zipf-ish head bias. `0.0` (the default) disables reuse.
    ///
    /// Real columns are dominated by duplicate values; this knob produces
    /// duplicate-heavy regimes. Rows (not cells) are duplicated so cross-column
    /// dependencies (e.g. Category ↔ Player-ID) survive.
    pub duplication: f64,
}

impl TableSpec {
    /// A spec with no value reuse.
    pub fn new(n_rows: usize, flavors: Vec<Flavor>) -> TableSpec {
        TableSpec {
            n_rows,
            flavors,
            duplication: 0.0,
        }
    }

    /// The same spec with the duplication knob set.
    pub fn with_duplication(mut self, duplication: f64) -> TableSpec {
        assert!(
            (0.0..1.0).contains(&duplication),
            "duplication must be in [0, 1)"
        );
        self.duplication = duplication;
        self
    }

    /// Total columns the spec expands to.
    pub fn n_columns(&self) -> usize {
        self.flavors.iter().map(Flavor::n_columns).sum()
    }

    /// Generates the clean table.
    pub fn generate(&self, rng: &mut StdRng) -> Table {
        let mut columns: Vec<Column> = Vec::with_capacity(self.n_columns());
        let mut used_names: Vec<String> = Vec::new();
        for flavor in &self.flavors {
            for mut col in flavor.generate(rng, self.n_rows) {
                // De-duplicate headers (two City columns → City, City2).
                let mut name = col.name().to_string();
                let mut k = 2;
                while used_names.contains(&name) {
                    name = format!("{}{k}", col.name());
                    k += 1;
                }
                used_names.push(name.clone());
                col = Column::new(name, col.values().to_vec());
                columns.push(col);
            }
        }
        if self.duplication > 0.0 {
            apply_duplication(rng, &mut columns, self.duplication);
        }
        Table::new(columns)
    }
}

/// Row-level value reuse over a finished table — the same Zipf-ish policy
/// [`TableSpec`]'s `duplication` knob applies during generation.
///
/// Useful for making *dirty* tables duplicate-heavy: corrupt first, then
/// duplicate, and the repeated rows carry repeated erroneous values.
pub fn duplicate_rows(rng: &mut StdRng, table: &Table, ratio: f64) -> Table {
    let mut columns: Vec<Column> = table.columns().to_vec();
    apply_duplication(rng, &mut columns, ratio);
    Table::new(columns)
}

/// Replaces each row (beyond the first), with probability `ratio`, by a copy
/// of an earlier row. The source row is drawn as `⌊i·u²⌋` for uniform `u` —
/// a head-biased, Zipf-ish pick, so early rows become high-multiplicity
/// "popular" values while the tail stays diverse.
fn apply_duplication(rng: &mut StdRng, columns: &mut [Column], ratio: f64) {
    let n_rows = columns.first().map_or(0, Column::len);
    for i in 1..n_rows {
        if !rng.gen_bool(ratio) {
            continue;
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        let j = ((i as f64) * u * u) as usize;
        for col in columns.iter_mut() {
            let copied = col.get(j).expect("source row in range").clone();
            col.set(i, copied);
        }
    }
}

/// Draws a random spec: column count around `mean_cols`, row count around
/// `mean_rows` (geometric-ish spread, min 1 column / 4 rows).
pub fn random_spec(rng: &mut StdRng, mean_cols: f64, mean_rows: f64) -> TableSpec {
    let n_cols = sample_around(rng, mean_cols, 1.0).round().max(1.0) as usize;
    let n_rows = sample_around(rng, mean_rows, mean_rows * 0.5)
        .round()
        .max(4.0) as usize;
    let weighted: Vec<Flavor> = Flavor::ALL
        .into_iter()
        .flat_map(|f| std::iter::repeat_n(f, f.weight()))
        .collect();
    let mut flavors = Vec::new();
    let mut cols = 0usize;
    while cols < n_cols {
        let f = *weighted.choose(rng).expect("non-empty");
        if cols + f.n_columns() > n_cols && cols > 0 {
            break;
        }
        cols += f.n_columns();
        flavors.push(f);
    }
    TableSpec::new(n_rows, flavors)
}

/// A crude positive-skew sampler around a mean.
fn sample_around(rng: &mut StdRng, mean: f64, spread: f64) -> f64 {
    let u: f64 = rng.gen_range(-1.0..1.0);
    (mean + u * spread).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn spec_generates_rectangular_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = TableSpec::new(30, vec![Flavor::Quarter, Flavor::PlayerWithCategory]);
        let t = spec.generate(&mut rng);
        assert_eq!(t.n_rows(), 30);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.headers(), vec!["Quarter", "Category", "Player ID"]);
    }

    #[test]
    fn duplicate_headers_deduplicated() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = TableSpec::new(5, vec![Flavor::City, Flavor::City]);
        let t = spec.generate(&mut rng);
        assert_eq!(t.headers(), vec!["City", "City2"]);
    }

    #[test]
    fn random_specs_have_sane_dimensions() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let spec = random_spec(&mut rng, 4.3, 100.0);
            assert!(spec.n_rows >= 4);
            assert!(!spec.flavors.is_empty());
            let t = spec.generate(&mut rng);
            assert_eq!(t.n_rows(), spec.n_rows);
        }
    }

    #[test]
    fn duplication_knob_reuses_whole_rows() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = TableSpec::new(200, vec![Flavor::PlayerWithCategory, Flavor::Quarter])
            .with_duplication(0.8);
        let t = spec.generate(&mut rng);
        assert_eq!(t.n_rows(), 200);
        // Heavy duplication: the Player-ID column (high-entropy when clean)
        // collapses to far fewer distinct values.
        let ids = t.column(1).unwrap().rendered();
        let distinct: std::collections::HashSet<&String> = ids.iter().collect();
        let duplication = 1.0 - distinct.len() as f64 / ids.len() as f64;
        assert!(
            duplication > 0.5,
            "expected heavy duplication, got {duplication}"
        );
        // Rows are duplicated wholesale: every duplicated Player ID carries
        // its source row's Category, preserving the FD.
        let cats = t.column(0).unwrap().rendered();
        let mut seen: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
        for (cat, id) in cats.iter().zip(&ids) {
            let suffix = &id[id.len() - 3..];
            let expect = seen.entry(suffix).or_insert(cat);
            assert_eq!(*expect, cat, "category must follow the id suffix");
        }
    }

    #[test]
    fn zero_duplication_leaves_generation_unchanged() {
        let spec = TableSpec::new(30, vec![Flavor::ProductCode]);
        let a = spec.generate(&mut StdRng::seed_from_u64(4));
        let b = spec
            .clone()
            .with_duplication(0.0)
            .generate(&mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = TableSpec::new(10, vec![Flavor::ProductCode]);
        let a = spec.generate(&mut StdRng::seed_from_u64(9));
        let b = spec.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
