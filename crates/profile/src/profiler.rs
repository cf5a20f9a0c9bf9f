//! The column profiler: FlashProfile-style pattern learning.
//!
//! Paper §3.1: "Given a column c, DataVinci uses FlashProfile to learn up to
//! k patterns R = {r₁,…,r_k} such that all values v in c are in the language
//! jointly defined by these patterns. … FlashProfile balances the number of
//! individual patterns with the generality (number of cells covered) of each
//! pattern."
//!
//! Pipeline: tokenize → period-collapse → group by unit signature →
//! greedy agglomerative merging under a normalized-cost threshold →
//! build patterns from pooled statistics → re-evaluate true coverage.

use std::collections::HashMap;

use crate::atom::{signature, smallest_period, tokenize, Atom, AtomKind};
use crate::generalize::{merge_cost, merge_cost_exceeds, try_merge, MergeConfig};
use crate::stats::{BuildConfig, GroupProfile};
use datavinci_regex::{AsciiBatch, CompiledPattern, MaskedString, Pattern};
use datavinci_telemetry as telemetry;

#[cfg(test)]
thread_local! {
    /// Test-only switch routing coverage scoring through the per-row NFA
    /// oracle instead of the DFA; see [`with_nfa_oracle`].
    static NFA_ORACLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every coverage score on this thread computed by per-row
/// cyclic-NFA simulation, the reference the DFA fast path is tested
/// against. Both decide the same language, so profiles must be identical.
#[cfg(test)]
fn with_nfa_oracle<R>(f: impl FnOnce() -> R) -> R {
    NFA_ORACLE.with(|flag| flag.set(true));
    let out = f();
    NFA_ORACLE.with(|flag| flag.set(false));
    out
}

/// Profiler configuration (FlashProfile's "default parameters" stand-in).
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Learn up to this many patterns (k).
    pub max_patterns: usize,
    /// Merge two clusters when normalized alignment cost ≤ this threshold.
    pub merge_threshold: f64,
    /// Pattern-construction tunables.
    pub build: BuildConfig,
    /// Merge cost model.
    pub merge: MergeConfig,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            max_patterns: 8,
            merge_threshold: 0.2,
            build: BuildConfig::default(),
            merge: MergeConfig::default(),
        }
    }
}

/// One learned pattern with its (true, re-evaluated) coverage.
#[derive(Debug, Clone)]
pub struct LearnedPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Compiled form, ready for matching and repair.
    pub compiled: CompiledPattern,
    /// Row indices whose values the pattern accepts.
    pub rows: Vec<usize>,
    /// Fraction of column values accepted.
    pub coverage: f64,
}

/// The result of profiling one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnProfile {
    /// Learned patterns, sorted by coverage (descending).
    pub patterns: Vec<LearnedPattern>,
    /// Number of profiled values.
    pub n_values: usize,
}

impl ColumnProfile {
    /// The significant patterns: individual coverage ≥ δ (paper §3.1).
    pub fn significant(&self, delta: f64) -> Vec<&LearnedPattern> {
        self.patterns
            .iter()
            .filter(|p| p.coverage >= delta)
            .collect()
    }

    /// Is row `i` covered by any pattern with coverage ≥ δ?
    pub fn covered_by_significant(&self, row: usize, delta: f64) -> bool {
        self.patterns
            .iter()
            .any(|p| p.coverage >= delta && p.rows.binary_search(&row).is_ok())
    }
}

/// Learns up to `cfg.max_patterns` patterns over the column values.
pub fn profile_column(values: &[MaskedString], cfg: &ProfilerConfig) -> ColumnProfile {
    profile_column_pooled(&MaskedPool::new(values), cfg)
}

/// [`profile_column`] over a pre-interned [`MaskedPool`] of the column's
/// values — the pipeline passes the pool its semantic abstraction owns
/// instead of re-deduplicating the column.
pub fn profile_column_pooled(dedup: &MaskedPool, cfg: &ProfilerConfig) -> ColumnProfile {
    let n = dedup.n_rows();
    if n == 0 {
        return ColumnProfile::default();
    }

    // 0. Whole-value categorical disjunction: a column drawing on a small
    // repeated vocabulary is best described by one disjunction over its
    // values — this is what lets concretization pick the right alternative
    // from row features (paper Figure 2's (CAT|PRO) at column scale).
    //
    // Evaluated over the pool, O(distinct): a mask-free masked string and
    // its plain rendering are in bijection, so the pool's distinct count
    // and multiplicities equal the old per-row tally (and `Pattern::disj`
    // sorts its alternatives, so insertion order is irrelevant). Any mask
    // token makes `to_plain` return `None`, disqualifying the column on
    // both the old and new path.
    let mut categorical: Option<Pattern> = None;
    {
        let mut plain: Vec<String> = Vec::with_capacity(dedup.n_distinct());
        let all_plain = dedup.distinct.iter().all(|v| match v.to_plain() {
            Some(s) if !s.is_empty() => {
                plain.push(s);
                true
            }
            _ => false,
        });
        if all_plain {
            let distinct = plain.len();
            if (2..=cfg.build.disj_max_alts).contains(&distinct)
                && n >= 2 * distinct
                && dedup.counts.iter().filter(|&&c| c >= 2).count() * 10 >= distinct * 8
            {
                categorical = Some(Pattern::disj(plain));
            }
        }
    }

    // 1. Group values by unit signature.
    let groups = {
        let _span = telemetry::span("profile.group");
        group_by_shape(dedup)
    };
    // 2. Greedy agglomerative merging under the threshold.
    let (groups, merge_counts) = {
        let _span = telemetry::span("profile.merge");
        merge_groups(groups, cfg)
    };

    // 3. Build patterns and re-evaluate true coverage over the whole
    // column: one batch match per candidate per *distinct* value (the DFA
    // memoizes transitions across the entire column instead of re-walking
    // the NFA per value, and duplicate rows share one membership verdict).
    let learned = {
        let _span = telemetry::span("profile.score");
        let ascii = AsciiBatch::from_values(dedup.distinct_values());
        let mut learned: Vec<LearnedPattern> = Vec::with_capacity(groups.len() + 1);
        let mut seen: Vec<Pattern> = Vec::new();
        let built: Vec<Pattern> = categorical
            .into_iter()
            .chain(groups.iter().map(|g| g.build_pattern(&cfg.build)))
            .collect();
        for pattern in built {
            if seen.contains(&pattern) {
                continue;
            }
            seen.push(pattern.clone());
            let compiled = CompiledPattern::compile(pattern.clone());
            let rows = dedup.member_rows(&compiled, ascii.as_ref());
            let coverage = rows.len() as f64 / n as f64;
            learned.push(LearnedPattern {
                pattern,
                compiled,
                rows,
                coverage,
            });
        }
        sort_by_coverage(&mut learned);
        learned.truncate(cfg.max_patterns);
        learned
    };

    let profile = ColumnProfile {
        patterns: learned,
        n_values: n,
    };
    record_profile_telemetry(&profile, dedup, "profile.columns_profiled");
    telemetry::counter("profile.merge_rounds", merge_counts.rounds);
    telemetry::counter("profile.merge_cost_dps", merge_counts.cost_dps);
    profile
}

/// One group per unit signature, biggest first (ties by first row).
///
/// Tokenizes and period-collapses once per *distinct* value; rows are still
/// grouped (and group stats absorbed) in row order, so the result is
/// byte-identical to tokenizing every row — duplicates just reuse their
/// distinct value's atoms.
pub(crate) fn group_by_shape(dedup: &MaskedPool) -> Vec<GroupProfile> {
    let mut shapes: Vec<Option<DistinctShape>> = (0..dedup.n_distinct()).map(|_| None).collect();
    let mut groups: HashMap<Vec<AtomKind>, GroupProfile> = HashMap::new();
    for (row, &di) in dedup.row_to_distinct.iter().enumerate() {
        let di = di as usize;
        let shape = shapes[di].get_or_insert_with(|| {
            let atoms = tokenize(&dedup.distinct[di]);
            let sig = signature(&atoms);
            let (p, k) = smallest_period(&sig);
            let key: Vec<AtomKind> = sig[..p].to_vec();
            DistinctShape { atoms, key, p, k }
        });
        match groups.get_mut(&shape.key) {
            Some(g) => g.absorb_value(&shape.atoms, shape.p, shape.k, row),
            None => {
                groups.insert(
                    shape.key.clone(),
                    GroupProfile::seed(&shape.atoms, shape.p, shape.k, row),
                );
            }
        }
    }
    let mut groups: Vec<GroupProfile> = groups.into_values().collect();
    groups.sort_by_key(|g| (std::cmp::Reverse(g.rows.len()), g.rows.first().copied()));
    groups
}

/// Work done by one column's merge loop, recorded once per column.
#[derive(Debug, Clone, Copy)]
struct MergeCounts {
    /// Merges applied.
    rounds: u64,
    /// Cost-only alignment DPs run ([`merge_cost`] calls).
    cost_dps: u64,
}

/// Greedy agglomerative merging: each round merges the cheapest pair whose
/// normalized cost is at most `cfg.merge_threshold` (ties go to the first
/// pair in `(i, j)` order); the merged group takes `i`'s place and `j`
/// leaves the list.
///
/// A pair's cost depends only on its two groups, so costs are computed once
/// into an upper-triangular matrix and a round recomputes only the merged
/// group's pairs — O(G²) cost-only DPs over the loop instead of one per pair
/// per round — and only the winning merge is materialized by [`try_merge`].
/// A pair whose unit lengths alone prove its cost over the threshold
/// ([`merge_cost_exceeds`]) skips the DP.
/// Groups keep their initial slot indices (a removed group's slot goes
/// dead), so slot order is list order and each round picks the pair a full
/// rescan of the shrinking list would pick.
fn merge_groups(
    groups: Vec<GroupProfile>,
    cfg: &ProfilerConfig,
) -> (Vec<GroupProfile>, MergeCounts) {
    let g = groups.len();
    // Pair (i, j), i < j, lives at j(j−1)/2 + i.
    let tri = |i: usize, j: usize| j * (j - 1) / 2 + i;
    let mut counts = MergeCounts {
        rounds: 0,
        cost_dps: 0,
    };
    let mut dp: Vec<f64> = Vec::new();
    // A pair whose unit lengths alone put it over the threshold is stored
    // as `None`, like an impossible alignment, without running the DP.
    let mut pair_cost = |a: &GroupProfile, b: &GroupProfile, counts: &mut MergeCounts| {
        if merge_cost_exceeds(a, b, &cfg.merge, cfg.merge_threshold) {
            return None;
        }
        counts.cost_dps += 1;
        merge_cost(a, b, &cfg.merge, &mut dp)
    };
    let mut cost: Vec<Option<f64>> = Vec::with_capacity(g * g.saturating_sub(1) / 2);
    for j in 0..g {
        for i in 0..j {
            cost.push(pair_cost(&groups[i], &groups[j], &mut counts));
        }
    }
    let mut slots: Vec<Option<GroupProfile>> = groups.into_iter().map(Some).collect();
    let mut live: Vec<usize> = (0..g).collect();
    loop {
        let mut best: Option<(f64, usize, usize)> = None;
        for (a, &i) in live.iter().enumerate() {
            for &j in &live[a + 1..] {
                if let Some(c) = cost[tri(i, j)] {
                    if c <= cfg.merge_threshold && best.is_none_or(|(b, ..)| c < b) {
                        best = Some((c, i, j));
                    }
                }
            }
        }
        let Some((c, i, j)) = best else { break };
        let removed = slots[j].take().expect("live slot");
        let kept = slots[i].as_ref().expect("live slot");
        let (merged_cost, merged) =
            try_merge(kept, &removed, &cfg.merge).expect("a cached cost implies alignment");
        debug_assert_eq!(merged_cost.to_bits(), c.to_bits());
        slots[i] = Some(merged);
        live.retain(|&k| k != j);
        counts.rounds += 1;
        let group = |s: usize| slots[s].as_ref().expect("live slot");
        for &k in live.iter().filter(|&&k| k != i) {
            let (lo, hi) = (k.min(i), k.max(i));
            cost[tri(lo, hi)] = pair_cost(group(lo), group(hi), &mut counts);
        }
    }
    (slots.into_iter().flatten().collect(), counts)
}

/// Records pattern-learning counters into the active telemetry collector,
/// if any. DFA step counts are approximated by tokens-stepped (one table
/// lookup per token per distinct value per pattern) so the inner matching
/// loop itself stays uninstrumented; state counts read the memo table the
/// matcher already maintains.
fn record_profile_telemetry(profile: &ColumnProfile, dedup: &MaskedPool, event: &str) {
    if !telemetry::is_active() {
        return;
    }
    telemetry::counter(event, 1);
    telemetry::counter("profile.patterns_scored", profile.patterns.len() as u64);
    telemetry::counter(
        "profile.values_scored",
        (profile.patterns.len() * dedup.n_distinct()) as u64,
    );
    let distinct_toks: usize = dedup.distinct.iter().map(|v| v.toks().len()).sum();
    telemetry::counter(
        "profile.dfa_steps",
        (profile.patterns.len() * distinct_toks) as u64,
    );
    let mut states = 0u64;
    let mut fallbacks = 0u64;
    let mut budget = 0u64;
    for lp in &profile.patterns {
        states += lp.compiled.dfa_states() as u64;
        fallbacks += u64::from(lp.compiled.dfa_overflowed());
        budget = budget.max(lp.compiled.dfa_budget() as u64);
    }
    telemetry::counter("profile.dfa_states", states);
    if fallbacks > 0 {
        telemetry::counter("profile.nfa_fallbacks", fallbacks);
    }
    if budget > 0 {
        telemetry::gauge("profile.dfa_state_budget", budget as f64);
    }
}

/// One distinct value's tokenization, computed once and shared by every
/// row carrying the value.
struct DistinctShape {
    atoms: Vec<Atom>,
    key: Vec<AtomKind>,
    p: usize,
    k: usize,
}

/// Distinct masked values plus the row → distinct map: membership is a pure
/// function of the value, so the coverage scorer evaluates each *distinct*
/// value once and expands hits back to rows (weighted by multiplicity, i.e.
/// by how many rows carry the value).
///
/// The semantic abstraction owns its column's pool: it builds one with
/// [`MaskedPool::from_lines`] as it parses the model's response lines, and
/// profiling, detection and repair borrow it. [`MaskedPool::new`] interns
/// per-row values instead: the reference `from_lines` is tested against,
/// and the path of [`profile_column`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaskedPool {
    distinct: Vec<MaskedString>,
    row_to_distinct: Vec<u32>,
    /// Rows carrying each distinct value (multiplicity).
    counts: Vec<u32>,
}

impl MaskedPool {
    /// Interns `values` in first-occurrence order.
    pub fn new(values: &[MaskedString]) -> MaskedPool {
        let mut index: HashMap<&MaskedString, u32> = HashMap::new();
        let mut distinct: Vec<MaskedString> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut row_to_distinct: Vec<u32> = Vec::with_capacity(values.len());
        for v in values {
            let di = *index.entry(v).or_insert_with(|| {
                distinct.push(v.clone());
                counts.push(0);
                distinct.len() as u32 - 1
            });
            counts[di as usize] += 1;
            row_to_distinct.push(di);
        }
        MaskedPool {
            distinct,
            row_to_distinct,
            counts,
        }
    }

    /// The pool of rows already grouped into lines: row `r` carries
    /// `lines[row_to_line[r]]`.
    ///
    /// Equal to [`MaskedPool::new`] over the expanded rows, but hashes each
    /// line once and copies nothing: it keeps the lines' own strings, one
    /// per distinct value, so lines that share a string (`{City(Boston)}`
    /// and `{City(Seattle)}`, both masked to `⟨City⟩`) merge.
    ///
    /// # Panics
    /// When a row's line index is out of `lines`' range.
    pub fn from_lines(mut lines: Vec<MaskedString>, row_to_line: &[u32]) -> MaskedPool {
        const UNSEEN: u32 = u32::MAX;
        let mut index: HashMap<MaskedString, u32> = HashMap::new();
        let mut remap: Vec<u32> = vec![UNSEEN; lines.len()];
        let mut counts: Vec<u32> = Vec::new();
        let row_to_distinct = row_to_line
            .iter()
            .map(|&l| {
                let slot = &mut remap[l as usize];
                if *slot == UNSEEN {
                    let next = index.len() as u32;
                    *slot = *index
                        .entry(std::mem::take(&mut lines[l as usize]))
                        .or_insert(next);
                    if *slot == next {
                        counts.push(0);
                    }
                }
                counts[*slot as usize] += 1;
                *slot
            })
            .collect();
        let mut distinct = vec![MaskedString::default(); index.len()];
        for (value, id) in index {
            distinct[id as usize] = value;
        }
        MaskedPool {
            distinct,
            row_to_distinct,
            counts,
        }
    }

    /// Row `row`'s value.
    ///
    /// # Panics
    /// When `row` is out of range.
    pub fn value(&self, row: usize) -> &MaskedString {
        &self.distinct[self.row_to_distinct[row] as usize]
    }

    /// Index of row `row`'s value in [`MaskedPool::distinct_values`].
    pub fn distinct_index(&self, row: usize) -> usize {
        self.row_to_distinct[row] as usize
    }

    /// The distinct values, in first-occurrence order.
    pub fn distinct_values(&self) -> &[MaskedString] {
        &self.distinct
    }

    /// Number of rows the pool covers.
    pub fn n_rows(&self) -> usize {
        self.row_to_distinct.len()
    }

    /// Number of distinct masked values.
    pub fn n_distinct(&self) -> usize {
        self.distinct.len()
    }

    /// Row indices the pattern accepts.
    ///
    /// Batches one DFA membership test per distinct value — stepping raw
    /// bytes when the distinct set packed as ASCII (`ascii`, packed by the
    /// caller once per column). The test-only NFA oracle deliberately stays
    /// per-row, so the differential comparison also covers the
    /// dedup-and-expand and ASCII-packing steps.
    fn member_rows(&self, compiled: &CompiledPattern, ascii: Option<&AsciiBatch>) -> Vec<usize> {
        #[cfg(test)]
        if NFA_ORACLE.with(std::cell::Cell::get) {
            return (0..self.n_rows())
                .filter(|&row| compiled.matches_nfa(self.value(row)))
                .collect();
        }
        let hits = match ascii {
            Some(batch) => {
                telemetry::counter("profile.ascii_batch_values", batch.len() as u64);
                compiled.matches_many_ascii(batch)
            }
            None => compiled.matches_many(&self.distinct),
        };
        self.row_to_distinct
            .iter()
            .enumerate()
            .filter_map(|(row, &di)| hits[di as usize].then_some(row))
            .collect()
    }
}

/// Coverage-descending order with a stable pattern-rendering tiebreak; the
/// rendering is computed once per pattern, not once per comparison.
fn sort_by_coverage(patterns: &mut Vec<LearnedPattern>) {
    let mut keyed: Vec<(String, LearnedPattern)> = std::mem::take(patterns)
        .into_iter()
        .map(|lp| (lp.pattern.to_string(), lp))
        .collect();
    keyed.sort_by(|(ka, a), (kb, b)| {
        b.coverage
            .partial_cmp(&a.coverage)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| ka.cmp(kb))
    });
    *patterns = keyed.into_iter().map(|(_, lp)| lp).collect();
}

/// [`rescore_profile_pooled`] over per-row values.
#[cfg(test)]
pub(crate) fn rescore_profile(prior: &ColumnProfile, values: &[MaskedString]) -> ColumnProfile {
    rescore_profile_pooled(prior, &MaskedPool::new(values))
}

/// Re-scores an existing profile against (possibly extended) column values
/// interned in `dedup`: every learned pattern keeps its shape but its
/// `rows`/`coverage` are recomputed by matching, skipping the expensive
/// learning passes.
///
/// This is the cache primitive behind append-only re-cleaning: when a column
/// grows but its old rows are unchanged, the previously learned patterns
/// still describe the column language and only membership needs refreshing.
pub fn rescore_profile_pooled(prior: &ColumnProfile, dedup: &MaskedPool) -> ColumnProfile {
    let n = dedup.n_rows();
    let ascii = AsciiBatch::from_values(dedup.distinct_values());
    let mut patterns: Vec<LearnedPattern> = prior
        .patterns
        .iter()
        .map(|lp| {
            // Batch-match on the DFA, once per distinct value; the clone
            // shares the prior's warm memo tables, so an append-only
            // re-score pays one table lookup per token instead of a fresh
            // NFA walk.
            let rows = dedup.member_rows(&lp.compiled, ascii.as_ref());
            let coverage = if n == 0 {
                0.0
            } else {
                rows.len() as f64 / n as f64
            };
            LearnedPattern {
                pattern: lp.pattern.clone(),
                compiled: lp.compiled.clone(),
                rows,
                coverage,
            }
        })
        .collect();
    sort_by_coverage(&mut patterns);
    let profile = ColumnProfile {
        patterns,
        n_values: n,
    };
    record_profile_telemetry(&profile, dedup, "profile.columns_rescored");
    profile
}

/// Convenience: profiles plain (unmasked) string values.
pub fn profile_plain<S: AsRef<str>>(values: &[S], cfg: &ProfilerConfig) -> ColumnProfile {
    let masked: Vec<MaskedString> = values
        .iter()
        .map(|s| MaskedString::from_plain(s.as_ref()))
        .collect();
    profile_column(&masked, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalize::tests::{coarse_config, generated_value, value_strategy};

    fn profile(values: &[&str]) -> ColumnProfile {
        profile_plain(values, &ProfilerConfig::default())
    }

    /// The merge loop [`merge_groups`] replaced: every round materializes a
    /// [`try_merge`] for every pair and keeps the cheapest within the
    /// threshold. Returns the merged groups and the `try_merge` call count.
    fn merge_groups_oracle(
        mut groups: Vec<GroupProfile>,
        cfg: &ProfilerConfig,
    ) -> (Vec<GroupProfile>, u64) {
        let mut calls = 0u64;
        loop {
            let mut best: Option<(f64, usize, usize, GroupProfile)> = None;
            for i in 0..groups.len() {
                for j in (i + 1)..groups.len() {
                    calls += 1;
                    if let Some((cost, merged)) = try_merge(&groups[i], &groups[j], &cfg.merge) {
                        if cost <= cfg.merge_threshold
                            && best.as_ref().is_none_or(|(c, ..)| cost < *c)
                        {
                            best = Some((cost, i, j, merged));
                        }
                    }
                }
            }
            match best {
                Some((_, i, j, merged)) => {
                    groups.remove(j);
                    groups[i] = merged;
                }
                None => break,
            }
        }
        (groups, calls)
    }

    /// Runs both merge loops over the groups of `values` and asserts they
    /// agree group for group; returns `(cost DPs, oracle try_merge calls)`.
    fn assert_merge_loops_agree(values: &[MaskedString], cfg: &ProfilerConfig) -> (u64, u64) {
        let groups = group_by_shape(&MaskedPool::new(values));
        let n_groups = groups.len() as u64;
        let (fast, counts) = merge_groups(groups.clone(), cfg);
        let (oracle, calls) = merge_groups_oracle(groups, cfg);
        let canon = |gs: &[GroupProfile]| {
            gs.iter()
                .map(|g| {
                    (
                        g.build_pattern(&cfg.build),
                        g.rows.clone(),
                        g.min_reps,
                        g.max_reps,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(canon(&fast), canon(&oracle));
        // Everything else a group carries (pooled texts, lengths, optional
        // flags) must match too.
        assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
        assert_eq!(counts.rounds, n_groups - fast.len() as u64);
        assert_eq!(calls, oracle_try_merge_calls(n_groups, counts.rounds));
        (counts.cost_dps, calls)
    }

    /// `try_merge` calls the oracle makes on `groups` initial groups over
    /// `rounds` merges: one per pair of the shrinking list, on every round
    /// plus the final round that finds nothing to merge.
    fn oracle_try_merge_calls(groups: u64, rounds: u64) -> u64 {
        (0..=rounds)
            .map(|r| groups - r)
            .map(|l| l * l.saturating_sub(1) / 2)
            .sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The cached cost scan that materializes only each round's winner
        /// merges exactly the groups the all-pairs materializing loop does,
        /// on the default cost model and on a coarse one where ties are
        /// common, under thresholds from "never merge" to "merge nearly
        /// everything".
        #[test]
        fn cached_cost_scan_equals_materializing_loop(
            draws in proptest::collection::vec(value_strategy(), 1..16),
            steps in proptest::collection::vec(1u32..6, 5..6),
            threshold_pct in 0u32..90,
        ) {
            let values: Vec<MaskedString> = draws.iter().map(generated_value).collect();
            for merge in [MergeConfig::default(), coarse_config(&steps)] {
                let cfg = ProfilerConfig {
                    merge_threshold: f64::from(threshold_pct) / 100.0,
                    merge,
                    ..ProfilerConfig::default()
                };
                let (dps, calls) = assert_merge_loops_agree(&values, &cfg);
                proptest::prop_assert!(dps <= calls, "{dps} cost DPs > {calls} try_merge calls");
            }
        }
    }

    #[test]
    fn tied_merge_costs_pick_the_first_pair_like_the_oracle() {
        // `a1`–`Q1` and `Q1`–`Qa` both cost 0.4 / 2 (one Lower/Upper or
        // Lower/digit mismatch), exactly the threshold. Whichever merges
        // first absorbs `Q1`, so the tie-break decides the result: the
        // first pair in (i, j) order must win, as in the oracle.
        let values: Vec<MaskedString> = ["ab", "a1", "Q1", "Qa"]
            .iter()
            .map(|s| MaskedString::from_plain(s))
            .collect();
        let cfg = ProfilerConfig::default();
        let groups = group_by_shape(&MaskedPool::new(&values));
        let mut dp = Vec::new();
        let mut cost = |i: usize, j: usize| {
            merge_cost(&groups[i], &groups[j], &cfg.merge, &mut dp).map(f64::to_bits)
        };
        assert_eq!(cost(1, 2), cost(2, 3), "the input must tie");
        let (dps, calls) = assert_merge_loops_agree(&values, &cfg);
        assert!(dps < calls, "{dps} cost DPs vs {calls} try_merge calls");
    }

    #[test]
    fn single_shape_column_yields_one_pattern() {
        let p = profile(&["Q1-22", "Q4-21", "Q2-20", "Q1-21"]);
        assert_eq!(p.patterns.len(), 1);
        assert_eq!(p.patterns[0].pattern.to_string(), "Q[0-9]-[0-9]{2}");
        assert_eq!(p.patterns[0].coverage, 1.0);
    }

    #[test]
    fn intro_example_two_patterns_half_coverage() {
        // Paper §1: [c-1, c-2, c3, c4] → two patterns, neither an outlier.
        let p = profile(&["c-1", "c-2", "c3", "c4"]);
        assert_eq!(p.patterns.len(), 2);
        assert!((p.patterns[0].coverage - 0.5).abs() < 1e-9);
        assert!((p.patterns[1].coverage - 0.5).abs() < 1e-9);
        let sig = p.significant(0.25);
        assert_eq!(sig.len(), 2);
    }

    #[test]
    fn outlier_is_uncovered_by_significant_patterns() {
        let values = vec![
            "A2.",
            "A2.A3.",
            "A5.A7.",
            "A1.A2.A3.",
            "A9.",
            "A4.A5.",
            "AAA3",
        ];
        let p = profile(&values);
        let delta = 0.3;
        // AAA3 is row 6; it must not be covered by any significant pattern.
        assert!(!p.covered_by_significant(6, delta));
        for row in 0..6 {
            assert!(p.covered_by_significant(row, delta), "row {row}");
        }
    }

    #[test]
    fn figure8_pattern_absorbs_frequent_outliers() {
        // Fig 8: C[0-9]{2} repeats often enough to be significant — the
        // *unsupervised* profiler cannot treat C51/C52 as errors.
        let values = vec!["C-19", "C-21", "C-33", "C-48", "C51", "C52", "C53", "C54"];
        let p = profile(&values);
        assert!(p.covered_by_significant(4, 0.3));
        assert!(p.covered_by_significant(0, 0.3));
    }

    #[test]
    fn truncates_to_max_patterns() {
        let values = vec![
            "a", "1", "B-", "c.d", "9!9", "zz zz", "Q#1", "x_y", "[w]", "p|q",
        ];
        let cfg = ProfilerConfig {
            max_patterns: 3,
            ..ProfilerConfig::default()
        };
        let p = profile_plain(&values, &cfg);
        assert!(p.patterns.len() <= 3);
    }

    #[test]
    fn every_member_row_matches_its_pattern() {
        let values = vec!["Ind-674-PRO", "US-837-QUA", "Alg-173-PRO", "Chn-924-QUA"];
        let p = profile(&values);
        for lp in &p.patterns {
            for &row in &lp.rows {
                assert!(lp.compiled.matches(&MaskedString::from_plain(values[row])));
            }
        }
        // All rows covered jointly.
        for row in 0..values.len() {
            assert!(
                p.patterns.iter().any(|lp| lp.rows.contains(&row)),
                "row {row} uncovered"
            );
        }
    }

    #[test]
    fn empty_column() {
        let p = profile(&[]);
        assert!(p.patterns.is_empty());
        assert_eq!(p.n_values, 0);
    }

    #[test]
    fn nfa_and_dfa_engines_produce_identical_profiles() {
        let columns: Vec<Vec<&str>> = vec![
            vec!["Q1-22", "Q4-21", "Q2-20", "Q1-21", "Q990"],
            vec!["c-1", "c-2", "c3", "c4"],
            vec!["Ind-674-PRO", "US-837-QUA", "Alg-173-PRO", "Chn-924-QUA"],
            vec!["", "", "x1", "zz top", "9!9"],
            // Duplicate-heavy: the DFA arm dedups to 3 distinct values and
            // must still expand hits to exactly the NFA's per-row verdicts.
            vec!["a-1", "a-1", "b2", "a-1", "b2", "a-1", "a-1", "b2", "c#3"],
        ];
        for values in &columns {
            let dfa = profile_plain(values, &ProfilerConfig::default());
            let nfa = with_nfa_oracle(|| profile_plain(values, &ProfilerConfig::default()));
            assert_eq!(dfa.n_values, nfa.n_values);
            assert_eq!(dfa.patterns.len(), nfa.patterns.len(), "{values:?}");
            for (a, b) in dfa.patterns.iter().zip(&nfa.patterns) {
                assert_eq!(a.pattern, b.pattern, "{values:?}");
                assert_eq!(a.rows, b.rows, "{values:?} / {}", a.pattern);
                assert_eq!(a.coverage, b.coverage);
            }
        }
    }

    #[test]
    fn rescore_matches_fresh_scoring_on_grown_column() {
        let base: Vec<&str> = vec!["A2.", "A3.", "A4.A5."];
        let prior = profile(&base);
        let grown: Vec<MaskedString> = ["A2.", "A3.", "A4.A5.", "A6.", "AAA3"]
            .iter()
            .map(|s| MaskedString::from_plain(s))
            .collect();
        let rescored = rescore_profile(&prior, &grown);
        assert_eq!(rescored.n_values, 5);
        for lp in &rescored.patterns {
            let expect: Vec<usize> = grown
                .iter()
                .enumerate()
                .filter(|(_, v)| lp.compiled.matches_nfa(v))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(lp.rows, expect, "{}", lp.pattern);
        }
    }

    #[test]
    fn pooled_entry_points_match_unpooled() {
        let values: Vec<MaskedString> = ["a-1", "a-1", "b2", "a-1", "c#3"]
            .iter()
            .map(|s| MaskedString::from_plain(s))
            .collect();
        let pool = MaskedPool::new(&values);
        assert_eq!(pool.n_rows(), 5);
        assert_eq!(pool.n_distinct(), 3);
        let cfg = ProfilerConfig::default();
        // (Compare the learned content — the compiled matchers' lazy memo
        // tables have nondeterministic map order in Debug output.)
        let canon = |p: &ColumnProfile| {
            p.patterns
                .iter()
                .map(|lp| format!("{} {:?} {}", lp.pattern, lp.rows, lp.coverage))
                .collect::<Vec<_>>()
        };
        let direct = profile_column(&values, &cfg);
        let pooled = profile_column_pooled(&pool, &cfg);
        assert_eq!(canon(&direct), canon(&pooled));
        let rescored = rescore_profile_pooled(&direct, &pool);
        assert_eq!(canon(&rescore_profile(&direct, &values)), canon(&rescored));
    }

    #[test]
    fn from_lines_merges_lines_sharing_a_masked_string() {
        // `{country(US)}-1` and `{country(FR)}-1` are two lines with one
        // masked string `⟨m0⟩-1`.
        let mask = |rest: &str| {
            let mut toks = vec![datavinci_regex::Tok::Mask(datavinci_regex::MaskId(0))];
            toks.extend(rest.chars().map(datavinci_regex::Tok::Char));
            MaskedString::from_toks(toks)
        };
        let lines = vec![mask("-1"), MaskedString::from_plain("x"), mask("-1")];
        let ids = [2u32, 0, 1, 2, 0];
        let rows: Vec<MaskedString> = ids.iter().map(|&i| lines[i as usize].clone()).collect();
        let pool = MaskedPool::from_lines(lines, &ids);
        assert_eq!(pool.n_distinct(), 2);
        assert_eq!(pool, MaskedPool::new(&rows));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// `from_lines` equals `new` over the expanded rows: the same
        /// distinct values in first-occurrence order, row map and counts —
        /// whatever order the lines are in, with duplicate and unused
        /// lines.
        #[test]
        fn from_lines_equals_new_over_expanded_rows(
            lines in proptest::collection::vec(
                (0..4usize, "[ab1é-]{0,3}"),
                1..8,
            ),
            picks in proptest::collection::vec(0..64u32, 0..40),
        ) {
            let lines: Vec<MaskedString> = lines
                .iter()
                .map(|(masks, rest)| {
                    let mut toks: Vec<datavinci_regex::Tok> = (0..*masks % 3)
                        .map(|m| datavinci_regex::Tok::Mask(datavinci_regex::MaskId(m as u16)))
                        .collect();
                    toks.extend(rest.chars().map(datavinci_regex::Tok::Char));
                    MaskedString::from_toks(toks)
                })
                .collect();
            let ids: Vec<u32> = picks.iter().map(|&p| p % lines.len() as u32).collect();
            let rows: Vec<MaskedString> =
                ids.iter().map(|&i| lines[i as usize].clone()).collect();
            let pool = MaskedPool::from_lines(lines, &ids);
            proptest::prop_assert_eq!(&pool, &MaskedPool::new(&rows));
            for (row, v) in rows.iter().enumerate() {
                proptest::prop_assert_eq!(pool.value(row), v);
            }
        }
    }

    #[test]
    fn blank_values_group_together() {
        let p = profile(&["", "", "x1"]);
        assert_eq!(p.patterns.len(), 2);
        let empty = p
            .patterns
            .iter()
            .find(|lp| lp.pattern == Pattern::Empty)
            .expect("empty pattern learned");
        assert_eq!(empty.rows, vec![0, 1]);
    }
}
