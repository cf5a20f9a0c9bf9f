//! The heuristic repair-candidate ranker (paper §3.5).
//!
//! "A weighted linear combination of edit script properties. The weights are
//! manually set based on qualitative analysis on a small held-out set …
//! The four properties are (1) string edit distance between erroneous value
//! and the repaired value, (2) count of alphanumeric edit operations,
//! (3) string edit distance of repaired value to closest value in column,
//! and (4) fraction of column matching the significant pattern used to
//! generate the repair." Lower scores rank first.

use std::ops::Range;

use datavinci_regex::{levenshtein, BandedLevenshtein};
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
    /// the column's clean values (built once per analysis).
    pub fn measure(
        original: &str,
        repaired: &str,
        alnum_edits: usize,
        pattern_coverage: f64,
        closest: &ClosestValues<'_>,
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

/// The distinct clean values of one column, decoded to chars once and
/// sorted by char length: the index behind property (3).
///
/// [`CandidateProperties::measure`] scans it outward from the repaired
/// value's length with a shrinking [`BandedLevenshtein`] bound. The length
/// gap is a lower bound on the distance, so the scan stops once the gap
/// alone reaches the best distance found. The minimum depends neither on
/// scan order nor on duplicates, so it equals the minimum over every clean
/// row.
#[derive(Debug)]
pub struct ClosestValues<'a> {
    /// Distinct values with their char ranges in `chars`, by char length.
    values: Vec<(&'a str, Range<usize>)>,
    chars: Vec<char>,
}

impl<'a> ClosestValues<'a> {
    /// Indexes `values` (duplicates allowed).
    pub fn new(values: impl IntoIterator<Item = &'a str>) -> ClosestValues<'a> {
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
        ClosestValues { values, chars }
    }

    /// The edit distance from `repaired` to the closest indexed value
    /// other than `original` (0 when there is none), and the DP cells the
    /// scan filled.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn column() -> Vec<String> {
        ["Ind-674-PRO", "US-201-QUA", "FR-475-PRO"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn measure_computes_all_properties() {
        let column = column();
        let index = ClosestValues::new(column.iter().map(String::as_str));
        let p = CandidateProperties::measure("usa_837", "US-837-PRO", 2, 0.5, &index);
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
        let index = ClosestValues::new(["xx", "ab"]);
        let p = CandidateProperties::measure("xx", "xy", 1, 1.0, &index);
        assert_eq!(p.closest_value_distance, 2); // vs "ab", not vs "xx"
    }

    /// The naive property (3): a full distance to every clean row,
    /// duplicates included — the oracle [`ClosestValues`] is proven
    /// against.
    fn naive_closest(original: &str, repaired: &str, column_values: &[String]) -> usize {
        column_values
            .iter()
            .filter(|v| *v != original)
            .map(|v| levenshtein(repaired, v))
            .min()
            .unwrap_or(0)
    }

    #[test]
    fn empty_and_all_original_columns_measure_zero() {
        let empty = ClosestValues::new([]);
        assert_eq!(empty.distance("x", "abc"), (0, 0));
        let all_original = ClosestValues::new(["x", "x", "x"]);
        assert_eq!(all_original.distance("x", "abc").0, 0);
        assert_eq!(naive_closest("x", "abc", &["x".to_string()]), 0);
    }

    proptest::proptest! {
        /// The index equals the naive minimum over the full row list:
        /// duplicates, multibyte and long values, an empty list, and
        /// columns made only of the original value.
        #[test]
        fn closest_values_equal_the_naive_scan(
            values in proptest::collection::vec("[abcé漢]{0,10}", 0..20),
            long in proptest::collection::vec("[ab漢]{30,60}", 0..3),
            stranger in "[abcé漢]{0,10}",
            repaired in "[abcé漢]{0,14}",
            knobs in (0usize..8, 0usize..30, 0usize..5),
        ) {
            let (dups, pick, only_original) = knobs;
            let original = values.get(pick).cloned().unwrap_or(stranger);
            let mut column: Vec<String> = values.iter().chain(&long).cloned().collect();
            column.extend(values.iter().take(dups).cloned());
            if only_original == 0 {
                column = vec![original.clone(); dups];
            }
            let index = ClosestValues::new(column.iter().map(String::as_str));
            let props = CandidateProperties::measure(&original, &repaired, 0, 1.0, &index);
            proptest::prop_assert_eq!(
                props.closest_value_distance,
                naive_closest(&original, &repaired, &column)
            );
        }
    }
}
