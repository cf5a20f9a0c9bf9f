//! Sherlock-style semantic column-type detection (stand-in).
//!
//! The paper uses Sherlock \[8\] to pick the 20 most frequent semantic types.
//! At runtime we only need a lightweight column classifier — for deciding
//! whether a column is semantic at all (GPT-sim baseline) and for reports.
//! This stand-in scores each type by the fraction of values containing a
//! gazetteer hit and returns the best-supported type above a threshold.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::gazetteer::Gazetteer;
use crate::spans::candidate_spans;
use crate::types::SemanticType;

/// A detected column type with its support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeDetection {
    /// The detected semantic type.
    pub semantic_type: SemanticType,
    /// Fraction of (non-blank) values supporting the type.
    pub confidence: f64,
}

/// Memoized column-type detections, keyed by `(column, threshold)`.
///
/// Type detection sweeps the gazetteer over every distinct value of a
/// column — expensive enough that a table-scoped analysis session runs it
/// at most once per column and hands the verdict to every later consumer.
/// Thread-safe, like the session that owns it.
#[derive(Debug, Default)]
pub struct ColumnTypeMemo {
    verdicts: Mutex<HashMap<(usize, u64), Option<TypeDetection>>>,
}

impl ColumnTypeMemo {
    /// [`detect_column_type`] through the memo: the sweep runs only on the
    /// first call for a given `(col, min_confidence)` pair.
    pub fn detect<S: AsRef<str>>(
        &self,
        col: usize,
        values: &[S],
        gaz: &Gazetteer,
        min_confidence: f64,
    ) -> Option<TypeDetection> {
        let key = (col, min_confidence.to_bits());
        if let Some(hit) = self.verdicts.lock().expect("type memo poisoned").get(&key) {
            return *hit;
        }
        let verdict = detect_column_type(values, gaz, min_confidence);
        self.verdicts
            .lock()
            .expect("type memo poisoned")
            .insert(key, verdict);
        verdict
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.verdicts.lock().expect("type memo poisoned").len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Detects the dominant semantic type of a column, if any type reaches
/// `min_confidence` support.
///
/// Interns the column first and scores each *distinct* value once — the
/// per-value gazetteer sweep is the expensive part, and real columns are
/// dominated by duplicates.
pub fn detect_column_type<S: AsRef<str>>(
    values: &[S],
    gaz: &Gazetteer,
    min_confidence: f64,
) -> Option<TypeDetection> {
    let pool = crate::intern::intern_values(values);
    detect_pooled(&pool.distinct, &pool.counts, gaz, min_confidence)
}

/// [`detect_column_type`] over interned distinct values.
///
/// `distinct[i]` occurs `multiplicity[i]` times in the column; each distinct
/// value is gazetteer-swept once and its hits weighted by multiplicity, so
/// the detection equals the per-row computation exactly. Support is a sum,
/// so the order of the distinct values does not matter.
fn detect_pooled(
    distinct: &[&str],
    multiplicity: &[usize],
    gaz: &Gazetteer,
    min_confidence: f64,
) -> Option<TypeDetection> {
    assert_eq!(distinct.len(), multiplicity.len(), "one weight per value");
    let mut counts = [0usize; SemanticType::ALL.len()];
    let mut n = 0usize;
    for (&v, &w) in distinct.iter().zip(multiplicity) {
        if v.trim().is_empty() {
            continue;
        }
        n += w;
        let mut seen = [false; SemanticType::ALL.len()];
        for span in candidate_spans(v) {
            for hit in gaz.lookup_fuzzy(&span.lookup) {
                let i = SemanticType::ALL
                    .iter()
                    .position(|t| *t == hit.semantic_type)
                    .expect("type in ALL");
                if !seen[i] {
                    seen[i] = true;
                    counts[i] += w;
                }
            }
        }
    }
    if n == 0 {
        return None;
    }
    let (best, &count) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))?;
    let confidence = count as f64 / n as f64;
    (confidence >= min_confidence).then_some(TypeDetection {
        semantic_type: SemanticType::ALL[best],
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detect(values: &[&str]) -> Option<TypeDetection> {
        let gaz = Gazetteer::new();
        detect_column_type(
            &values.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &gaz,
            0.5,
        )
    }

    #[test]
    fn detects_city_column() {
        let d = detect(&["Boston", "Miami", "Chicago", "Seattle"]).unwrap();
        assert_eq!(d.semantic_type, SemanticType::City);
        assert_eq!(d.confidence, 1.0);
    }

    #[test]
    fn detects_embedded_semantics() {
        let d = detect(&["(Boston)", "(Miami)", "(NY"]).unwrap();
        assert_eq!(d.semantic_type, SemanticType::City);
    }

    #[test]
    fn no_detection_for_syntactic_columns() {
        assert!(detect(&["Q1-22", "Q4-21", "Q2-20"]).is_none());
        assert!(detect(&["123", "456", "789"]).is_none());
    }

    #[test]
    fn tolerates_typos() {
        let d = detect(&["Birmingham", "Birminxham", "Manchester", "Liverpool"]).unwrap();
        assert_eq!(d.semantic_type, SemanticType::City);
        assert_eq!(d.confidence, 1.0);
    }

    #[test]
    fn empty_column_none() {
        assert!(detect(&[]).is_none());
        assert!(detect(&["", " "]).is_none());
    }

    #[test]
    fn memo_returns_cached_verdicts() {
        let gaz = Gazetteer::new();
        let memo = ColumnTypeMemo::default();
        let values = ["Boston", "Miami", "Boston"];
        assert!(memo.is_empty());
        let first = memo.detect(0, &values, &gaz, 0.5);
        assert_eq!(
            first.map(|d| d.semantic_type),
            Some(SemanticType::City),
            "{first:?}"
        );
        // A second call must come from the memo (same verdict, no growth);
        // a different threshold is its own key.
        assert_eq!(memo.detect(0, &values, &gaz, 0.5), first);
        assert_eq!(memo.len(), 1);
        memo.detect(0, &values, &gaz, 0.9);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn pooled_detection_matches_rowwise_expansion() {
        // Weighted distinct values vs. the same column written out row by
        // row: identical detection and confidence.
        let gaz = Gazetteer::new();
        let distinct = ["Boston", "x-9", "Miami", ""];
        let counts = [3usize, 2, 1, 2];
        let rows: Vec<String> = distinct
            .iter()
            .zip(&counts)
            .flat_map(|(v, &c)| std::iter::repeat_n(v.to_string(), c))
            .collect();
        for min in [0.1, 0.5, 0.9] {
            assert_eq!(
                detect_pooled(&distinct, &counts, &gaz, min),
                detect_column_type(&rows, &gaz, min),
                "min_confidence {min}"
            );
        }
    }
}
