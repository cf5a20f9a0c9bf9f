//! Anti-unification of group profiles: alignment-based merging.
//!
//! FlashProfile balances the number of patterns against their generality.
//! We approximate this with greedy agglomerative merging: two clusters merge
//! when their unit signatures align cheaply — aligned class runs widen to
//! their class join, unalignable positions become optional — and the
//! normalized alignment cost stays under a threshold. Symbol and mask
//! positions never unify across different symbols/masks (a `-`/`_` delimiter
//! difference must *stay* two patterns, otherwise outliers like `usa_837`
//! from Figure 2 would be silently absorbed).

use crate::stats::{GroupProfile, PosKind, PosStat};

/// Cost model for pairwise merges.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Cost of widening one class into a super-class.
    pub class_widen_cost: f64,
    /// Cost of joining two incomparable classes (e.g. digits vs lowercase).
    pub class_mismatch_cost: f64,
    /// Gap cost for a class-run position (becomes optional).
    pub gap_class_cost: f64,
    /// Gap cost for a symbol position (structure-bearing, expensive).
    pub gap_sym_cost: f64,
    /// Gap cost for a mask position.
    pub gap_mask_cost: f64,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            class_widen_cost: 0.2,
            class_mismatch_cost: 0.4,
            gap_class_cost: 0.65,
            gap_sym_cost: 1.0,
            gap_mask_cost: 1.0,
        }
    }
}

fn gap_cost(stat: &PosStat, cfg: &MergeConfig) -> f64 {
    match stat.kind {
        PosKind::Class(_) => cfg.gap_class_cost,
        PosKind::Sym(_) => cfg.gap_sym_cost,
        PosKind::Mask(_) => cfg.gap_mask_cost,
    }
}

/// Match cost of aligning two positions, or `None` if they cannot unify.
fn match_cost(a: &PosStat, b: &PosStat, cfg: &MergeConfig) -> Option<f64> {
    match (a.kind, b.kind) {
        (PosKind::Sym(x), PosKind::Sym(y)) => (x == y).then_some(0.0),
        (PosKind::Mask(x), PosKind::Mask(y)) => (x == y).then_some(0.0),
        (PosKind::Class(x), PosKind::Class(y)) => {
            if x == y {
                Some(0.0)
            } else if x.is_subclass_of(&y) || y.is_subclass_of(&x) {
                Some(cfg.class_widen_cost)
            } else {
                Some(cfg.class_mismatch_cost)
            }
        }
        _ => None,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Step {
    Match,
    GapA, // consume from a only
    GapB, // consume from b only
}

/// The alignment DP shared by [`merge_cost`] and [`try_merge`]: fills the
/// `(n+1)×(m+1)` table of `a`'s unit against `b`'s into the flat row-major
/// buffer `dp` and returns the normalized total cost, or `None` when
/// alignment is impossible. `on_relax(cell, step)` sees every improving
/// relaxation, so the last call for a cell names its winning step;
/// cost-only callers pass a no-op, which compiles the bookkeeping away.
fn align(
    a: &GroupProfile,
    b: &GroupProfile,
    cfg: &MergeConfig,
    dp: &mut Vec<f64>,
    mut on_relax: impl FnMut(usize, Step),
) -> Option<f64> {
    let (ua, ub) = (&a.unit, &b.unit);
    let (n, m) = (ua.len(), ub.len());
    if n == 0 || m == 0 {
        return None; // the empty-string group never merges
    }
    let w = m + 1;
    dp.clear();
    dp.resize((n + 1) * w, f64::INFINITY);
    dp[0] = 0.0;
    for i in 0..=n {
        for j in 0..=m {
            let here = dp[i * w + j];
            if here.is_infinite() {
                continue;
            }
            if i < n && j < m {
                if let Some(c) = match_cost(&ua[i], &ub[j], cfg) {
                    let t = (i + 1) * w + j + 1;
                    if here + c < dp[t] {
                        dp[t] = here + c;
                        on_relax(t, Step::Match);
                    }
                }
            }
            if i < n {
                let t = (i + 1) * w + j;
                let c = gap_cost(&ua[i], cfg);
                if here + c < dp[t] {
                    dp[t] = here + c;
                    on_relax(t, Step::GapA);
                }
            }
            if j < m {
                let t = i * w + j + 1;
                let c = gap_cost(&ub[j], cfg);
                if here + c < dp[t] {
                    dp[t] = here + c;
                    on_relax(t, Step::GapB);
                }
            }
        }
    }
    let total = dp[n * w + m];
    if total.is_infinite() {
        return None;
    }
    Some(total / n.max(m) as f64)
}

/// The normalized alignment cost [`try_merge`] reports for `a` and `b`, bit
/// for bit, without building the merged profile; `None` when alignment is
/// impossible. `dp` is scratch space reused across calls.
pub(crate) fn merge_cost(
    a: &GroupProfile,
    b: &GroupProfile,
    cfg: &MergeConfig,
    dp: &mut Vec<f64>,
) -> Option<f64> {
    align(a, b, cfg, dp, |_, _| {})
}

/// Relative slack on [`merge_cost_exceeds`]'s bound: more than the float
/// rounding of the alignment DP's sum over any unit pair of realistic
/// length, so the bound never prunes a pair the DP would merge.
const BOUND_SLACK: f64 = 1e-6;

/// Whether unit lengths alone prove that [`merge_cost`] of `a` and `b` is
/// `None` or above `threshold`, so the DP can be skipped.
///
/// An alignment of units of `n` and `m` positions leaves at least |n − m|
/// positions unmatched, each gap costs at least the cheapest gap cost, and
/// no step costs less than zero, so the normalized cost is at least
/// |n − m| · (cheapest gap cost) / max(n, m). The bound holds only when
/// every cost in `cfg` is non-negative; otherwise nothing is pruned.
pub(crate) fn merge_cost_exceeds(
    a: &GroupProfile,
    b: &GroupProfile,
    cfg: &MergeConfig,
    threshold: f64,
) -> bool {
    let costs = [
        cfg.class_widen_cost,
        cfg.class_mismatch_cost,
        cfg.gap_class_cost,
        cfg.gap_sym_cost,
        cfg.gap_mask_cost,
    ];
    if !costs.iter().all(|&c| c >= 0.0) {
        return false;
    }
    let (n, m) = (a.unit.len(), b.unit.len());
    let cheapest_gap = cfg
        .gap_class_cost
        .min(cfg.gap_sym_cost)
        .min(cfg.gap_mask_cost);
    let bound = n.abs_diff(m) as f64 * cheapest_gap / n.max(m).max(1) as f64;
    bound * (1.0 - BOUND_SLACK) > threshold
}

/// Attempts to merge two groups. Returns the *normalized* alignment cost and
/// the merged profile; `None` when alignment is impossible.
pub fn try_merge(
    a: &GroupProfile,
    b: &GroupProfile,
    cfg: &MergeConfig,
) -> Option<(f64, GroupProfile)> {
    let (ua, ub) = (&a.unit, &b.unit);
    let (n, m) = (ua.len(), ub.len());
    let w = m + 1;
    let mut step = vec![Step::Match; (n + 1) * w];
    let normalized = align(a, b, cfg, &mut Vec::new(), |t, s| step[t] = s)?;

    // Reconstruct the merged unit.
    let mut merged_rev: Vec<PosStat> = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match step[i * w + j] {
            Step::Match if i > 0 && j > 0 => {
                let mut s = ua[i - 1].clone();
                s.absorb(&ub[j - 1]);
                merged_rev.push(s);
                i -= 1;
                j -= 1;
            }
            Step::GapA | Step::Match if i > 0 => {
                let mut s = ua[i - 1].clone();
                s.optional = true;
                merged_rev.push(s);
                i -= 1;
            }
            _ => {
                let mut s = ub[j - 1].clone();
                s.optional = true;
                merged_rev.push(s);
                j -= 1;
            }
        }
    }
    merged_rev.reverse();

    let mut rows = a.rows.clone();
    rows.extend_from_slice(&b.rows);
    rows.sort_unstable();
    rows.dedup();
    Some((
        normalized,
        GroupProfile {
            unit: merged_rev,
            min_reps: a.min_reps.min(b.min_reps),
            max_reps: a.max_reps.max(b.max_reps),
            rows,
        },
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::atom::{signature, smallest_period, tokenize};
    use crate::profiler::{group_by_shape, MaskedPool};
    use crate::stats::BuildConfig;
    use datavinci_regex::{CompiledPattern, MaskId, MaskedString, Tok};

    /// Tokens generated values draw from: both digit classes, both letter
    /// cases, a space, three symbols and two masks.
    const ALPHABET: [Tok; 11] = [
        Tok::Char('0'),
        Tok::Char('7'),
        Tok::Char('a'),
        Tok::Char('Q'),
        Tok::Char('z'),
        Tok::Char(' '),
        Tok::Char('-'),
        Tok::Char('.'),
        Tok::Char('_'),
        Tok::Mask(MaskId(0)),
        Tok::Mask(MaskId(1)),
    ];

    /// A value strategy for property tests: a unit of up to three
    /// [`ALPHABET`] tokens repeated 1–3 times, so periods > 1 and the empty
    /// value both occur.
    pub(crate) fn value_strategy() -> impl proptest::strategy::Strategy<Value = (Vec<usize>, usize)>
    {
        (
            proptest::collection::vec(0..ALPHABET.len(), 0..4),
            1usize..4,
        )
    }

    /// The value a [`value_strategy`] draw stands for.
    pub(crate) fn generated_value((unit, reps): &(Vec<usize>, usize)) -> MaskedString {
        let toks = unit.iter().map(|&t| ALPHABET[t]);
        MaskedString::from_toks(toks.cycle().take(unit.len() * reps).collect())
    }

    /// A cost model on a coarse grid (multiples of 0.2), so distinct pairs
    /// often tie.
    pub(crate) fn coarse_config(steps: &[u32]) -> MergeConfig {
        let at = |i: usize| f64::from(steps[i]) / 5.0;
        MergeConfig {
            class_widen_cost: at(0),
            class_mismatch_cost: at(1),
            gap_class_cost: at(2),
            gap_sym_cost: at(3),
            gap_mask_cost: at(4),
        }
    }

    fn group_at(values: &[&str], base: usize) -> GroupProfile {
        let mut g: Option<GroupProfile> = None;
        for (i, v) in values.iter().enumerate() {
            let atoms = tokenize(&MaskedString::from_plain(v));
            let sig = signature(&atoms);
            let (p, k) = smallest_period(&sig);
            match &mut g {
                None => g = Some(GroupProfile::seed(&atoms, p, k, base + i)),
                Some(g) => g.absorb_value(&atoms, p, k, base + i),
            }
        }
        g.unwrap()
    }

    fn group(values: &[&str]) -> GroupProfile {
        group_at(values, 0)
    }

    #[test]
    fn same_shape_different_classes_widen() {
        // Same digit suffix keeps both digit runs in the Binary class, so
        // the only cost is the Lower/Upper mismatch: 0.4 / 2 = 0.2.
        let a = group(&["abc1"]);
        let b = group_at(&["XYZ1"], 10);
        let cfg = MergeConfig::default();
        let (cost, merged) = try_merge(&a, &b, &cfg).unwrap();
        assert!(cost > 0.0 && cost <= 0.2, "cost {cost}");
        let p = merged.build_pattern(&BuildConfig::default());
        let c = CompiledPattern::compile(p);
        assert!(c.matches(&"abc1".into()));
        assert!(c.matches(&"XYZ1".into()));
        assert!(c.matches(&"AbC1".into()));
    }

    #[test]
    fn class_widening_steps_accumulate() {
        // Different trailing digits widen Binary→Digit (0.2) on top of the
        // Lower/Upper mismatch (0.4): total 0.6 / 2 = 0.3 — above threshold.
        let a = group(&["abc1"]);
        let b = group_at(&["XYZ2"], 10);
        let (cost, _) = try_merge(&a, &b, &MergeConfig::default()).unwrap();
        assert!((cost - 0.3).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn delimiter_difference_is_expensive() {
        // c-1 shape vs c1 shape: dropping the '-' costs gap_sym (0.9)/3 = 0.3.
        let a = group(&["c-1", "c-2"]);
        let b = group(&["c3", "c4"]);
        let cfg = MergeConfig::default();
        let (cost, _) = try_merge(&a, &b, &cfg).unwrap();
        assert!(cost > 0.2, "delimiter gaps must exceed threshold: {cost}");
    }

    #[test]
    fn symbol_mismatch_never_matches_directly() {
        // '_' vs '-' positions can only gap, never merge into one symbol.
        let a = group(&["a-1"]);
        let b = group(&["a_1"]);
        let cfg = MergeConfig::default();
        let (cost, merged) = try_merge(&a, &b, &cfg).unwrap();
        // Both symbols became optional gaps: cost = 2 * 1.0 / 3.
        assert!((cost - 2.0 / 3.0).abs() < 1e-9, "cost {cost}");
        let p = merged.build_pattern(&BuildConfig::default());
        assert!(
            p.to_string().contains("-?") && p.to_string().contains("_?"),
            "pattern {p}"
        );
    }

    #[test]
    fn optional_tail_from_length_difference() {
        let a = group(&["12.5"]);
        let b = group(&["13"]);
        let cfg = MergeConfig::default();
        let (cost, merged) = try_merge(&a, &b, &cfg).unwrap();
        let p = merged.build_pattern(&BuildConfig::default());
        let c = CompiledPattern::compile(p);
        assert!(c.matches(&"12.5".into()));
        assert!(c.matches(&"13".into()));
        // One symbol gap + one class gap.
        assert!((cost - (1.0 + 0.65) / 3.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn merged_rows_are_union() {
        let a = group(&["abc"]);
        let b = group_at(&["XY"], 1);
        let (_, merged) = try_merge(&a, &b, &MergeConfig::default()).unwrap();
        assert_eq!(merged.rows, vec![0, 1]);
    }

    #[test]
    fn empty_groups_never_merge() {
        let a = group(&[""]);
        let b = group(&["x"]);
        assert!(try_merge(&a, &b, &MergeConfig::default()).is_none());
    }

    /// The groups of the values `draws` stand for, plus each adjacent pair
    /// merged (merged groups carry optional positions).
    fn groups_with_merges(draws: &[(Vec<usize>, usize)]) -> Vec<GroupProfile> {
        let values: Vec<MaskedString> = draws.iter().map(generated_value).collect();
        let mut groups = group_by_shape(&MaskedPool::new(&values));
        let merged: Vec<GroupProfile> = groups
            .windows(2)
            .filter_map(|w| try_merge(&w[0], &w[1], &MergeConfig::default()))
            .map(|(_, g)| g)
            .collect();
        groups.extend(merged);
        groups
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The cost-only DP reports exactly the cost `try_merge` reports,
        /// for generated groups and for groups merged from them (which
        /// carry optional positions), in both orientations.
        #[test]
        fn merge_cost_equals_try_merge_cost(
            draws in proptest::collection::vec(value_strategy(), 1..10),
            steps in proptest::collection::vec(1u32..6, 5..6),
        ) {
            let groups = groups_with_merges(&draws);
            let mut dp = Vec::new();
            for cfg in [MergeConfig::default(), coarse_config(&steps)] {
                for a in &groups {
                    for b in &groups {
                        proptest::prop_assert_eq!(
                            merge_cost(a, b, &cfg, &mut dp).map(f64::to_bits),
                            try_merge(a, b, &cfg).map(|(c, _)| c.to_bits())
                        );
                    }
                }
            }
        }

        /// A pair [`merge_cost_exceeds`] prunes never has a cost at or
        /// under the threshold, on the default cost model and on a coarse
        /// one, from "never merge" to "merge nearly everything".
        #[test]
        fn pruned_pairs_never_merge(
            draws in proptest::collection::vec(value_strategy(), 1..10),
            steps in proptest::collection::vec(1u32..6, 5..6),
            threshold_pct in 0u32..90,
        ) {
            let groups = groups_with_merges(&draws);
            let threshold = f64::from(threshold_pct) / 100.0;
            let mut dp = Vec::new();
            for cfg in [MergeConfig::default(), coarse_config(&steps)] {
                for a in &groups {
                    for b in groups.iter().filter(|b| merge_cost_exceeds(a, b, &cfg, threshold)) {
                        let cost = merge_cost(a, b, &cfg, &mut dp);
                        proptest::prop_assert!(
                            cost.is_none_or(|c| c > threshold),
                            "pruned pair costs {cost:?} <= {threshold}"
                        );
                    }
                }
            }
        }
    }
}
