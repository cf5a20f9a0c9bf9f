//! The heuristic repair-candidate ranker (paper §3.5).
//!
//! "A weighted linear combination of edit script properties. The weights are
//! manually set based on qualitative analysis on a small held-out set …
//! The four properties are (1) string edit distance between erroneous value
//! and the repaired value, (2) count of alphanumeric edit operations,
//! (3) string edit distance of repaired value to closest value in column,
//! and (4) fraction of column matching the significant pattern used to
//! generate the repair." Lower scores rank first.

use datavinci_regex::levenshtein;
use datavinci_telemetry as telemetry;

/// The manually tuned weights.
#[derive(Debug, Clone, Copy)]
pub struct RankerWeights {
    /// Weight on edit distance (property 1).
    pub edit_distance: f64,
    /// Weight on alphanumeric edit-operation count (property 2).
    pub alnum_edits: f64,
    /// Weight on distance of the repair to the closest column value (3).
    pub closest_value: f64,
    /// Weight on (1 − pattern coverage) (property 4; higher coverage is
    /// better, so the complement is penalized).
    pub coverage: f64,
}

impl Default for RankerWeights {
    fn default() -> Self {
        RankerWeights {
            edit_distance: 1.0,
            alnum_edits: 0.5,
            closest_value: 0.75,
            coverage: 2.0,
        }
    }
}

/// The measured properties of one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateProperties {
    /// Levenshtein distance from the erroneous value to the repair.
    pub edit_distance: usize,
    /// Number of alphanumeric edit operations in the edit program.
    pub alnum_edits: usize,
    /// Distance of the repair to the nearest non-error column value.
    pub closest_value_distance: usize,
    /// Coverage of the significant pattern that produced the repair.
    pub pattern_coverage: f64,
}

impl CandidateProperties {
    /// Measures a candidate against its column context: `closest` indexes
    /// the column's clean values (built once per analysis) and carries the
    /// search's scratch.
    pub fn measure(
        original: &str,
        repaired: &str,
        alnum_edits: usize,
        pattern_coverage: f64,
        closest: &mut ClosestValues<'_>,
    ) -> CandidateProperties {
        let closest_value_distance = {
            let _span = telemetry::span("repair.measure");
            let (distance, cells) = closest.distance(original, repaired);
            telemetry::counter("rank.lev_cells", cells);
            distance
        };
        CandidateProperties {
            edit_distance: levenshtein(original, repaired),
            alnum_edits,
            closest_value_distance,
            pattern_coverage,
        }
    }

    /// The weighted heuristic score (lower ranks first).
    pub fn heuristic_score(&self, w: &RankerWeights) -> f64 {
        w.edit_distance * self.edit_distance as f64
            + w.alnum_edits * self.alnum_edits as f64
            + w.closest_value * self.closest_value_distance as f64
            + w.coverage * (1.0 - self.pattern_coverage)
    }

    /// The ablated edit-distance-only score (§5.4.2).
    pub fn edit_distance_score(&self) -> f64 {
        self.edit_distance as f64
    }
}

/// The distinct clean values of one column as a char trie: the index
/// behind property (3).
///
/// Nodes are numbered breadth-first, so every node's children form one
/// contiguous run, sorted by char: node `i` is entered by `labels[i]`, its
/// children are `first_child[i]..first_child[i + 1]`, and `terminal[i]`
/// is the value that ends at it, if any.
///
/// [`CandidateProperties::measure`] searches it depth-first, filling one
/// Levenshtein DP row of the repaired value per trie depth: the finite
/// trie intersected with the repaired value's edit automaton. A row's
/// minimum never falls along a path, so a subtree whose row minimum has
/// reached the best distance found is pruned, and when the best is only
/// one more than a row's minimum, so is every child whose char matches no
/// target char on a minimal cell's diagonal. The child that matches the
/// repaired value's next char is visited first, so a close value is found
/// early. The minimum depends neither on visit order nor on duplicates, so
/// it equals the minimum over every clean row.
#[derive(Debug)]
pub struct ClosestValues<'a> {
    labels: Vec<char>,
    first_child: Vec<u32>,
    terminal: Vec<Option<&'a str>>,
    search: Search,
}

/// Scratch reused by every search: the repaired value's chars, one DP row
/// per depth of the current path, the DFS stack of `(node, depth, parent
/// row minimum)`, and the target chars on a row's minimal diagonals.
#[derive(Debug, Default)]
struct Search {
    target: Vec<char>,
    rows: Vec<u32>,
    stack: Vec<(u32, u32, u32)>,
    diagonal: Vec<char>,
}

impl<'a> ClosestValues<'a> {
    /// Indexes `values` (duplicates allowed).
    pub fn new(values: impl IntoIterator<Item = &'a str>) -> ClosestValues<'a> {
        let mut sorted: Vec<&'a str> = values.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        // `spans[i]`: the sorted values below node `i`, and the byte length
        // of the prefix they share. Nodes are expanded in id order, so each
        // node's children get the next free ids.
        let mut spans = vec![(0, sorted.len(), 0)];
        let mut labels = vec!['\0'];
        let mut first_child = Vec::new();
        let mut terminal = Vec::new();
        let mut node = 0;
        let id = |n: usize| u32::try_from(n).expect("fewer than 2^32 trie nodes");
        while let Some(&(mut lo, hi, prefix)) = spans.get(node) {
            first_child.push(id(labels.len()));
            // Sorted and distinct: only the first value can end here.
            let ends = lo < hi && sorted[lo].len() == prefix;
            terminal.push(ends.then(|| sorted[lo]));
            lo += usize::from(ends);
            while lo < hi {
                let c = sorted[lo][prefix..]
                    .chars()
                    .next()
                    .expect("longer than the prefix");
                let end = lo + sorted[lo..hi].partition_point(|v| v[prefix..].starts_with(c));
                labels.push(c);
                spans.push((lo, end, prefix + c.len_utf8()));
                lo = end;
            }
            node += 1;
        }
        first_child.push(id(labels.len()));
        ClosestValues {
            labels,
            first_child,
            terminal,
            search: Search::default(),
        }
    }

    /// The edit distance from `repaired` to the closest indexed value
    /// other than `original` (0 when there is none), and the DP cells the
    /// search filled.
    fn distance(&mut self, original: &str, repaired: &str) -> (usize, u64) {
        let Search {
            target,
            rows,
            stack,
            diagonal,
        } = &mut self.search;
        target.clear();
        target.extend(repaired.chars());
        let w = target.len() + 1;
        rows.clear();
        rows.extend(0..w as u32);
        let mut best = u32::MAX;
        let mut cells = 0u64;
        stack.clear();
        stack.push((0, 0, 0));
        while let Some((node, depth, parent_min)) = stack.pop() {
            // A row's minimum is at least its parent row's: the best may
            // have fallen to it since the node was pushed.
            if parent_min >= best {
                continue;
            }
            let (node, depth) = (node as usize, depth as usize);
            let mut row_min = 0;
            if depth > 0 {
                if rows.len() < (depth + 1) * w {
                    rows.resize((depth + 1) * w, 0);
                }
                let (above, below) = rows.split_at_mut(depth * w);
                let prev = &above[(depth - 1) * w..];
                let row = &mut below[..w];
                let c = self.labels[node];
                let (mut diag, mut left) = (prev[0], depth as u32);
                row[0] = left;
                row_min = left;
                for ((cell, &up), &t) in row[1..].iter_mut().zip(&prev[1..]).zip(target.iter()) {
                    left = (diag + u32::from(t != c)).min(up + 1).min(left + 1);
                    *cell = left;
                    diag = up;
                    row_min = row_min.min(left);
                }
                cells += (w - 1) as u64;
            }
            if row_min >= best {
                continue;
            }
            if self.terminal[node].is_some_and(|v| v != original) {
                best = best.min(rows[depth * w + w - 1]);
                if row_min >= best {
                    continue;
                }
            }
            // A child's row minimum is this row's only through a match on
            // the diagonal of a minimal cell, and at least one more
            // otherwise. When one more already reaches the best, only the
            // children entered by such a match can still improve it.
            let tight = row_min + 1 >= best;
            if tight {
                let row = &rows[depth * w..][..w - 1];
                diagonal.clear();
                diagonal.extend(
                    row.iter()
                        .zip(target.iter())
                        .filter(|&(&d, _)| d == row_min)
                        .map(|(_, &c)| c),
                );
            }
            let viable = |child: &usize| !tight || diagonal.contains(&self.labels[*child]);
            let children = self.first_child[node] as usize..self.first_child[node + 1] as usize;
            let matching = target
                .get(depth)
                .and_then(|c| self.labels[children.clone()].binary_search(c).ok())
                .map(|k| children.start + k);
            let child_depth = depth as u32 + 1;
            for child in children
                .rev()
                .filter(|&c| Some(c) != matching && viable(&c))
            {
                stack.push((child as u32, child_depth, row_min));
            }
            if let Some(child) = matching.filter(viable) {
                stack.push((child as u32, child_depth, row_min));
            }
        }
        (if best == u32::MAX { 0 } else { best as usize }, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_regex::BandedLevenshtein;
    use std::ops::Range;

    fn column() -> Vec<String> {
        ["Ind-674-PRO", "US-201-QUA", "FR-475-PRO"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn measure_computes_all_properties() {
        let column = column();
        let mut index = ClosestValues::new(column.iter().map(String::as_str));
        let p = CandidateProperties::measure("usa_837", "US-837-PRO", 2, 0.5, &mut index);
        assert_eq!(p.edit_distance, 8);
        assert_eq!(p.alnum_edits, 2);
        // closest column value to US-837-PRO is US-201-QUA (distance 5)
        // or FR-475-PRO (distance 5).
        assert_eq!(p.closest_value_distance, 5);
    }

    #[test]
    fn higher_coverage_scores_better() {
        let lo = CandidateProperties {
            edit_distance: 2,
            alnum_edits: 1,
            closest_value_distance: 3,
            pattern_coverage: 0.3,
        };
        let hi = CandidateProperties {
            pattern_coverage: 0.9,
            ..lo
        };
        let w = RankerWeights::default();
        assert!(hi.heuristic_score(&w) < lo.heuristic_score(&w));
    }

    #[test]
    fn edit_distance_mode_ignores_everything_else() {
        let a = CandidateProperties {
            edit_distance: 1,
            alnum_edits: 99,
            closest_value_distance: 99,
            pattern_coverage: 0.0,
        };
        let b = CandidateProperties {
            edit_distance: 2,
            alnum_edits: 0,
            closest_value_distance: 0,
            pattern_coverage: 1.0,
        };
        assert!(a.edit_distance_score() < b.edit_distance_score());
        let w = RankerWeights::default();
        assert!(a.heuristic_score(&w) > b.heuristic_score(&w));
    }

    #[test]
    fn original_value_excluded_from_closest() {
        // The erroneous value itself sits in the column; nearest-neighbour
        // distance must not use it (it would always be lev(orig, repaired)).
        let mut index = ClosestValues::new(["xx", "ab"]);
        let p = CandidateProperties::measure("xx", "xy", 1, 1.0, &mut index);
        assert_eq!(p.closest_value_distance, 2); // vs "ab", not vs "xx"
    }

    #[test]
    fn trie_shares_prefixes_and_marks_inner_terminals() {
        let index = ClosestValues::new(["ab", "a", "abc", "b", "ab", ""]);
        // Root, then a, b, then ab, then abc: one node per distinct prefix.
        assert_eq!(index.labels, ['\0', 'a', 'b', 'b', 'c']);
        assert_eq!(index.first_child, [1, 3, 4, 4, 5, 5]);
        assert_eq!(
            index.terminal,
            [Some(""), Some("a"), Some("b"), Some("ab"), Some("abc")]
        );
    }

    /// The length-ordered scan the trie search replaced: the distinct
    /// values sorted by char length, scanned outward from the repaired
    /// value's length with a shrinking [`BandedLevenshtein`] bound until
    /// the length gap alone reaches the best distance found.
    struct LengthScan<'a> {
        /// Distinct values with their char ranges in `chars`, by char length.
        values: Vec<(&'a str, Range<usize>)>,
        chars: Vec<char>,
    }

    impl<'a> LengthScan<'a> {
        fn new(values: impl IntoIterator<Item = &'a str>) -> LengthScan<'a> {
            let mut distinct: Vec<(usize, &'a str)> =
                values.into_iter().map(|v| (v.chars().count(), v)).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let mut chars = Vec::with_capacity(distinct.iter().map(|&(n, _)| n).sum());
            let values = distinct
                .into_iter()
                .map(|(_, v)| {
                    let start = chars.len();
                    chars.extend(v.chars());
                    (v, start..chars.len())
                })
                .collect();
            LengthScan { values, chars }
        }

        fn distance(&self, original: &str, repaired: &str) -> (usize, u64) {
            let target: Vec<char> = repaired.chars().collect();
            let len = target.len();
            let value_len = |i: usize| self.values[i].1.len();
            let mut lev = BandedLevenshtein::default();
            let mut best: Option<usize> = None;
            // `below` is one past the next shorter value, `above` the next
            // value at least as long as the target.
            let mut above = self.values.partition_point(|(_, r)| r.len() < len);
            let mut below = above;
            loop {
                let gap_below = (below > 0).then(|| len - value_len(below - 1));
                let gap_above = (above < self.values.len()).then(|| value_len(above) - len);
                let (i, gap) = match (gap_below, gap_above) {
                    (Some(g), Some(h)) if g < h => (below - 1, g),
                    (Some(g), None) => (below - 1, g),
                    (_, Some(h)) => (above, h),
                    (None, None) => break,
                };
                if i < above {
                    below -= 1;
                } else {
                    above += 1;
                }
                if best.is_some_and(|b| gap >= b) {
                    break;
                }
                let (value, range) = &self.values[i];
                if *value == original {
                    continue;
                }
                let bound = best.map_or(len.max(range.len()), |b| b - 1);
                if let Some(d) = lev.within(&target, &self.chars[range.clone()], bound) {
                    best = Some(d);
                }
            }
            (best.unwrap_or(0), lev.cells())
        }
    }

    /// The naive property (3): a full distance to every clean row,
    /// duplicates included.
    fn naive_closest(original: &str, repaired: &str, column_values: &[String]) -> usize {
        column_values
            .iter()
            .filter(|v| *v != original)
            .map(|v| levenshtein(repaired, v))
            .min()
            .unwrap_or(0)
    }

    /// Asserts that the trie search, the length-ordered scan and the
    /// naive minimum agree on `column`.
    fn assert_oracles_agree(column: &[String], original: &str, repaired: &str) {
        let mut trie = ClosestValues::new(column.iter().map(String::as_str));
        let scan = LengthScan::new(column.iter().map(String::as_str));
        let naive = naive_closest(original, repaired, column);
        let measured = CandidateProperties::measure(original, repaired, 0, 1.0, &mut trie);
        assert_eq!(measured.closest_value_distance, naive, "trie vs naive");
        assert_eq!(scan.distance(original, repaired).0, naive, "scan vs naive");
        // The scratch carries nothing from one search to the next.
        assert_eq!(
            trie.distance(original, repaired).0,
            naive,
            "repeated search"
        );
    }

    #[test]
    fn empty_and_all_original_columns_measure_zero() {
        let mut empty = ClosestValues::new([]);
        assert_eq!(empty.distance("x", "abc"), (0, 0));
        let mut all_original = ClosestValues::new(["x", "x", "x"]);
        assert_eq!(all_original.distance("x", "abc").0, 0);
        assert_eq!(naive_closest("x", "abc", &["x".to_string()]), 0);
        assert_eq!(LengthScan::new([]).distance("x", "abc"), (0, 0));
    }

    proptest::proptest! {
        /// The trie search equals the length-ordered scan and the naive
        /// minimum over the full row list: duplicates, multibyte and long
        /// values, short values that are prefixes of one another, repairs
        /// that are column values, an empty list, and columns made only of
        /// the original value.
        #[test]
        fn closest_values_equal_the_naive_scan(
            values in proptest::collection::vec("[abcé漢]{0,10}", 0..20),
            short in proptest::collection::vec("[ab]{0,4}", 0..8),
            long in proptest::collection::vec("[ab漢]{30,60}", 0..3),
            stranger in "[abcé漢]{0,10}",
            repaired in "[abcé漢]{0,14}",
            knobs in (0usize..8, 0usize..30, 0usize..5, 0usize..3),
        ) {
            let (dups, pick, only_original, exact) = knobs;
            let original = values.get(pick).cloned().unwrap_or(stranger);
            let mut column: Vec<String> =
                values.iter().chain(&short).chain(&long).cloned().collect();
            column.extend(values.iter().take(dups).cloned());
            if only_original == 0 {
                column = vec![original.clone(); dups];
            }
            let repaired = match column.len() {
                n if n > 0 && exact == 0 => column[pick % n].clone(),
                _ => repaired,
            };
            assert_oracles_agree(&column, &original, &repaired);
        }

        /// The same agreement on the columns the search is built for:
        /// 100–300 values of one length, optionally half of them behind a
        /// long shared prefix, with or without an empty value, searched for
        /// free-form repairs and for one-char edits of a column value.
        #[test]
        fn trie_search_equals_both_oracles_on_wide_columns(
            suffixes in proptest::collection::vec("[ab漢]{6}", 100..300),
            prefix in "[aé]{10,40}",
            stranger in "[ab漢]{0,8}",
            free in "[abé漢]{0,50}",
            knobs in (0usize..2, 0usize..2, 0usize..400, 0usize..8),
        ) {
            let (shared, empty, pick, edit_at) = knobs;
            let mut column: Vec<String> = suffixes
                .iter()
                .enumerate()
                .map(|(i, s)| if shared == 1 && i % 2 == 0 { format!("{prefix}{s}") } else { s.clone() })
                .collect();
            if empty == 1 {
                column.push(String::new());
            }
            // `pick` past the column's end names a value outside it.
            let original = column.get(pick).cloned().unwrap_or(stranger);
            let repaired = if edit_at == 0 {
                free
            } else {
                let near = &column[pick % column.len()];
                near.chars()
                    .enumerate()
                    .map(|(i, c)| if i == edit_at { 'x' } else { c })
                    .collect()
            };
            assert_oracles_agree(&column, &original, &repaired);
        }
    }
}
