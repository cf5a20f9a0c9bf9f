//! Levenshtein edit distance over plain strings and masked strings.
//!
//! Used by (1) the minimality definition of edit programs (paper §3.3),
//! (2) the heuristic ranker's distance properties (§3.5), and (3) the
//! semantic layer's fuzzy gazetteer lookup (bounded variant).

use crate::token::MaskedString;

/// Classic Levenshtein distance between two `&str`s (unit costs).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    lev_slices(&a, &b)
}

/// Levenshtein distance over masked-string tokens (masks are single symbols).
pub fn levenshtein_toks(a: &MaskedString, b: &MaskedString) -> usize {
    lev_slices(a.toks(), b.toks())
}

fn lev_slices<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Banded Levenshtein: returns `Some(d)` iff `d <= bound`, `None` otherwise.
/// Runs in O(bound · max(|a|,|b|)) — the fuzzy-lookup hot path.
pub fn levenshtein_within(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    BandedLevenshtein::default().within(&a, &b, bound)
}

/// Reusable scratch for [`levenshtein_within`] over pre-decoded slices.
///
/// The two DP rows survive across calls, so a caller scanning many values
/// decodes each one once and allocates nothing per comparison. The scratch
/// also counts the DP cells it fills, for the callers' work counters.
#[derive(Debug, Default)]
pub struct BandedLevenshtein {
    prev: Vec<usize>,
    cur: Vec<usize>,
    cells: u64,
}

impl BandedLevenshtein {
    /// [`levenshtein_within`] over slices: `Some(d)` iff `d <= bound`.
    ///
    /// Only the band `|i − j| ≤ bound` is filled and no row is cleared, so
    /// the cost is O(bound · max(|a|,|b|)).
    pub fn within<T: PartialEq>(&mut self, a: &[T], b: &[T], bound: usize) -> Option<usize> {
        if a.len().abs_diff(b.len()) > bound {
            return None;
        }
        if a.is_empty() {
            return (b.len() <= bound).then_some(b.len());
        }
        if b.is_empty() {
            return (a.len() <= bound).then_some(a.len());
        }
        const INF: usize = usize::MAX / 2;
        if self.prev.len() <= b.len() {
            self.prev.resize(b.len() + 1, INF);
            self.cur.resize(b.len() + 1, INF);
        }
        let (prev, cur) = (&mut self.prev, &mut self.cur);
        // The rows are never cleared. Each row writes its band plus the
        // cell on either side of it, which is everything the next row
        // reads; cells further out may hold another call's values.
        let first = bound.min(b.len());
        for (j, p) in prev[..=first].iter_mut().enumerate() {
            *p = j;
        }
        if first < b.len() {
            prev[first + 1] = INF;
        }
        for i in 1..=a.len() {
            let lo = i.saturating_sub(bound).max(1);
            let hi = i.saturating_add(bound).min(b.len());
            if lo > hi {
                return None;
            }
            cur[lo - 1] = if lo == 1 && i <= bound { i } else { INF };
            if hi < b.len() {
                cur[hi + 1] = INF;
            }
            let mut row_min = cur[lo - 1];
            for j in lo..=hi {
                let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
                let del = prev[j] + 1;
                let ins = cur[j - 1] + 1;
                cur[j] = sub.min(del).min(ins);
                row_min = row_min.min(cur[j]);
            }
            self.cells += (hi - lo + 1) as u64;
            if row_min > bound {
                return None;
            }
            std::mem::swap(prev, cur);
        }
        let d = prev[b.len()];
        (d <= bound).then_some(d)
    }

    /// DP cells filled by every [`BandedLevenshtein::within`] call so far.
    pub fn cells(&self) -> u64 {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{MaskId, Tok};

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("usa", "US"), 3);
        assert_eq!(levenshtein("bleu", "blue"), 2);
        assert_eq!(levenshtein("Birminxham", "Birmingham"), 1);
    }

    #[test]
    fn tok_distance_counts_masks_as_symbols() {
        let m = |id| Tok::Mask(MaskId(id));
        let a = MaskedString::from_toks(vec![m(0), Tok::Char('-'), Tok::Char('1')]);
        let b = MaskedString::from_toks(vec![m(0), Tok::Char('_'), Tok::Char('1')]);
        assert_eq!(levenshtein_toks(&a, &b), 1);
        let c = MaskedString::from_toks(vec![m(1), Tok::Char('-'), Tok::Char('1')]);
        assert_eq!(levenshtein_toks(&a, &c), 1);
    }

    #[test]
    fn bounded_agrees_with_exact_within_bound() {
        let pairs = [
            ("kitten", "sitting"),
            ("abc", "abc"),
            ("ab", "ba"),
            ("Nevad210", "Nevada_210"),
            ("", "xy"),
        ];
        for (a, b) in pairs {
            let exact = levenshtein(a, b);
            for bound in 0..6 {
                let got = levenshtein_within(a, b, bound);
                if exact <= bound {
                    assert_eq!(got, Some(exact), "{a} {b} bound {bound}");
                } else {
                    assert_eq!(got, None, "{a} {b} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn bounded_early_exit_on_length_gap() {
        assert_eq!(levenshtein_within("a", "abcdefgh", 3), None);
    }

    #[test]
    fn banded_cost_is_linear_in_the_longer_string() {
        // Equal long strings: every row runs, and only the band is filled.
        let a: Vec<char> = "ab".repeat(5_000).chars().collect();
        for bound in [0, 2, 7] {
            let mut lev = BandedLevenshtein::default();
            assert_eq!(lev.within(&a, &a, bound), Some(0));
            assert!(lev.cells() <= ((2 * bound + 1) * a.len()) as u64);
            assert!(lev.cells() >= a.len() as u64);
        }
    }

    #[test]
    fn scratch_reuse_across_lengths_is_exact() {
        // Stale cells from a longer comparison must not leak into a
        // shorter one that reuses the same rows.
        let mut lev = BandedLevenshtein::default();
        let words = [
            "kitten",
            "sitting",
            "",
            "Nevada_210",
            "ab",
            "Nevad210",
            "ba",
        ];
        for a in words {
            for b in words {
                let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
                let exact = levenshtein(a, b);
                for bound in 0..exact + 3 {
                    let want = (exact <= bound).then_some(exact);
                    assert_eq!(lev.within(&ca, &cb, bound), want, "{a} {b} bound {bound}");
                }
            }
        }
    }
}
