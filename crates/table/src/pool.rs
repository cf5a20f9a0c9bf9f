//! Distinct-value interning.
//!
//! Real columns are dominated by duplicate values (categoricals, codes,
//! repeated ids), yet much of DataVinci's pipeline — masking, membership
//! scoring, the semantic-only verdict — is a pure function of the *value*,
//! not the row. A [`ValuePool`] interns a column's rendered
//! values once so every later stage can compute per *distinct* value and
//! expand to rows, instead of recomputing per row.

use crate::arena::{ArenaRef, StrArena};
use crate::column::Column;

/// A column's distinct rendered values, their multiplicities, and the
/// row → distinct-index map.
///
/// Distinct values are stored sorted ascending, so `distinct_index` lookups
/// are a binary search and two pools over equal content compare equal.
/// Multiplicities let weighted aggregates (type support, coverage)
/// reproduce the per-row numbers exactly. Distinct text lives in a
/// [`StrArena`], so interning a column costs O(segments) heap allocations,
/// not one `String` per distinct value.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    /// Backing storage for the distinct values.
    arena: StrArena,
    /// Sorted distinct values (handles into `arena`).
    distinct: Vec<ArenaRef>,
    /// Multiplicity of each distinct value (aligned with `distinct`).
    counts: Vec<usize>,
    /// For every row, the index of its value in `distinct`.
    row_to_distinct: Vec<usize>,
}

impl PartialEq for ValuePool {
    fn eq(&self, other: &ValuePool) -> bool {
        // Content equality: arena segmentation is an implementation detail.
        self.counts == other.counts
            && self.row_to_distinct == other.row_to_distinct
            && self.iter_distinct().eq(other.iter_distinct())
    }
}

impl Eq for ValuePool {}

impl ValuePool {
    /// Interns a slice of rendered values (one per row).
    pub fn from_values<S: AsRef<str>>(values: &[S]) -> ValuePool {
        // Sort row indices by value, then walk runs of equal values.
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].as_ref().cmp(values[b].as_ref()));
        let mut arena = StrArena::new();
        let mut distinct: Vec<ArenaRef> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut row_to_distinct = vec![0usize; values.len()];
        for &row in &order {
            let v = values[row].as_ref();
            if distinct.last().map(|&r| arena.get(r)) != Some(v) {
                distinct.push(arena.push(v));
                counts.push(0);
            }
            let di = distinct.len() - 1;
            counts[di] += 1;
            row_to_distinct[row] = di;
        }
        ValuePool {
            arena,
            distinct,
            counts,
            row_to_distinct,
        }
    }

    /// Number of rows the pool covers.
    pub fn n_rows(&self) -> usize {
        self.row_to_distinct.len()
    }

    /// Number of distinct values.
    pub fn n_distinct(&self) -> usize {
        self.distinct.len()
    }

    /// True when the pool covers no rows.
    pub fn is_empty(&self) -> bool {
        self.row_to_distinct.is_empty()
    }

    /// The sorted distinct values, as slices into the pool's arena.
    pub fn distinct(&self) -> Vec<&str> {
        self.iter_distinct().collect()
    }

    /// Iterates the sorted distinct values without collecting them.
    pub fn iter_distinct(&self) -> impl Iterator<Item = &str> {
        self.distinct.iter().map(|&r| self.arena.get(r))
    }

    /// Multiplicities, aligned with [`ValuePool::distinct`].
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The distinct value at `di`.
    pub fn value(&self, di: usize) -> &str {
        self.arena.get(self.distinct[di])
    }

    /// Multiplicity of distinct value `di`.
    pub fn count(&self, di: usize) -> usize {
        self.counts[di]
    }

    /// The distinct index of row `row`.
    pub fn distinct_index(&self, row: usize) -> usize {
        self.row_to_distinct[row]
    }

    /// The row → distinct-index map, in row order.
    pub fn row_indices(&self) -> &[usize] {
        &self.row_to_distinct
    }

    /// The distinct index holding `value`, if present (binary search).
    pub fn index_of(&self, value: &str) -> Option<usize> {
        self.distinct
            .binary_search_by(|&d| self.arena.get(d).cmp(value))
            .ok()
    }

    /// Expands a per-distinct slice back to row order.
    ///
    /// `per_distinct` must have one entry per distinct value; the result has
    /// one (cloned) entry per row.
    pub fn expand<T: Clone>(&self, per_distinct: &[T]) -> Vec<T> {
        assert_eq!(
            per_distinct.len(),
            self.n_distinct(),
            "one entry per distinct value"
        );
        self.row_to_distinct
            .iter()
            .map(|&di| per_distinct[di].clone())
            .collect()
    }

    /// Row indices grouped by distinct value: `groups()[di]` lists, in
    /// ascending row order, every row carrying distinct value `di`.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> =
            self.counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (row, &di) in self.row_to_distinct.iter().enumerate() {
            groups[di].push(row);
        }
        groups
    }

    /// Fraction of rows that repeat an earlier value (0 for an all-distinct
    /// or empty column, → 1 for heavy duplication).
    pub fn duplication_ratio(&self) -> f64 {
        if self.row_to_distinct.is_empty() {
            return 0.0;
        }
        1.0 - self.n_distinct() as f64 / self.n_rows() as f64
    }

    /// A pool over this pool's rows plus `appended` extra rows — the
    /// append-only cache primitive. Equivalent to re-interning the grown
    /// column from scratch, but new values merge into the existing sorted
    /// order instead of re-sorting every row.
    pub fn extended<S: AsRef<str>>(&self, appended: &[S]) -> ValuePool {
        if appended.is_empty() {
            return self.clone();
        }
        // Intern the appended rows on their own, then merge the two sorted
        // distinct lists into a fresh arena and remap both row maps.
        let tail = ValuePool::from_values(appended);
        let mut arena = StrArena::new();
        let mut distinct: Vec<ArenaRef> =
            Vec::with_capacity(self.distinct.len() + tail.distinct.len());
        let mut counts: Vec<usize> = Vec::with_capacity(distinct.capacity());
        let mut old_map = vec![0usize; self.distinct.len()];
        let mut new_map = vec![0usize; tail.distinct.len()];
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.distinct.len() || j < tail.distinct.len() {
            let old_val = (i < self.distinct.len()).then(|| self.value(i));
            let new_val = (j < tail.distinct.len()).then(|| tail.value(j));
            let take_old = match (old_val, new_val) {
                (Some(a), Some(b)) => a <= b,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_old {
                let equal = new_val == old_val;
                old_map[i] = distinct.len();
                distinct.push(arena.push(self.value(i)));
                counts.push(self.counts[i]);
                if equal {
                    new_map[j] = distinct.len() - 1;
                    *counts.last_mut().expect("just pushed") += tail.counts[j];
                    j += 1;
                }
                i += 1;
            } else {
                new_map[j] = distinct.len();
                distinct.push(arena.push(tail.value(j)));
                counts.push(tail.counts[j]);
                j += 1;
            }
        }
        let row_to_distinct: Vec<usize> = self
            .row_to_distinct
            .iter()
            .map(|&di| old_map[di])
            .chain(tail.row_to_distinct.iter().map(|&di| new_map[di]))
            .collect();
        ValuePool {
            arena,
            distinct,
            counts,
            row_to_distinct,
        }
    }
}

impl Column {
    /// Interns the column's rendered values into a [`ValuePool`].
    ///
    /// The pool is over exactly the strings [`Column::rendered`] returns, so
    /// pipeline stages operating on rendered values can share it.
    pub fn value_pool(&self) -> ValuePool {
        ValuePool::from_values(&self.rendered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_sorted_with_counts() {
        let pool = ValuePool::from_values(&["b", "a", "b", "c", "a", "b"]);
        assert_eq!(pool.n_rows(), 6);
        assert_eq!(pool.n_distinct(), 3);
        assert_eq!(pool.distinct(), ["a", "b", "c"]);
        assert_eq!(pool.counts(), [2, 3, 1]);
        assert_eq!(pool.row_indices(), [1, 0, 1, 2, 0, 1]);
        assert_eq!(pool.index_of("b"), Some(1));
        assert_eq!(pool.index_of("zz"), None);
    }

    #[test]
    fn expand_round_trips_values() {
        let values = ["x-1", "y-2", "x-1", "x-1"];
        let pool = ValuePool::from_values(&values);
        let expanded = pool.expand(&pool.distinct());
        assert_eq!(expanded, values);
    }

    #[test]
    fn distinct_text_shares_few_arena_segments() {
        let values: Vec<String> = (0..500).map(|i| format!("v{:03}", i % 311)).collect();
        let pool = ValuePool::from_values(&values);
        assert_eq!(pool.n_distinct(), 311);
        // All 311 distinct strings fit in one bump segment: O(1) string
        // allocations for the whole pool, not one per distinct value.
        assert_eq!(pool.arena.n_segments(), 1);
        for di in 0..pool.n_distinct() {
            assert_eq!(pool.index_of(pool.value(di)), Some(di));
        }
    }

    #[test]
    fn groups_partition_rows_in_order() {
        let pool = ValuePool::from_values(&["b", "a", "b", "a"]);
        let groups = pool.groups();
        assert_eq!(groups, vec![vec![1, 3], vec![0, 2]]);
    }

    #[test]
    fn duplication_ratio_extremes() {
        assert_eq!(ValuePool::from_values::<&str>(&[]).duplication_ratio(), 0.0);
        assert_eq!(
            ValuePool::from_values(&["a", "b", "c"]).duplication_ratio(),
            0.0
        );
        let heavy = ValuePool::from_values(&["a", "a", "a", "a"]);
        assert!((heavy.duplication_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn extended_matches_from_scratch() {
        let base = ValuePool::from_values(&["m", "a", "m", "z"]);
        let grown = base.extended(&["a", "k", "m", "zz"]);
        let scratch = ValuePool::from_values(&["m", "a", "m", "z", "a", "k", "m", "zz"]);
        assert_eq!(grown, scratch);
        // No-op extension clones.
        assert_eq!(base.extended::<&str>(&[]), base);
    }

    #[test]
    fn column_value_pool_uses_rendered_values() {
        let col = Column::parse("x", &["7", "a", "a"]);
        let pool = col.value_pool();
        assert_eq!(pool.distinct(), ["7", "a"]);
        assert_eq!(pool.counts(), [1, 2]);
    }

    #[test]
    fn empty_and_blank_values_intern() {
        let pool = ValuePool::from_values(&["", "x", ""]);
        assert_eq!(pool.distinct(), ["", "x"]);
        assert_eq!(pool.counts(), [2, 1]);
        assert_eq!(pool.distinct_index(2), 0);
    }
}
