//! The language-model interface and its deterministic gazetteer-backed
//! implementation.
//!
//! The paper drives semantic abstraction with GPT-3.5 (§3.2). We cannot ship
//! a hosted LLM, so [`GazetteerLlm`] reproduces the *contract*: it receives
//! the actual Figure-3 prompt, reads the column back out, and produces one
//! masked value per line — masking substrings of the twenty types,
//! repairing misspellings via bounded-edit-distance lookup, and normalizing
//! to the surface form the majority of the column uses (the in-context
//! behaviour that turns `usa` into `US` when the column writes ISO-2 codes).
//! Any other model can be plugged in through [`LanguageModel`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use datavinci_telemetry as telemetry;

use crate::gazetteer::{FuzzyWork, Gazetteer, Hit};
use crate::prompt::{parse_prompt_values, OUTPUT_MARKER};
use crate::spans::{candidate_spans, Span};
use crate::types::SemanticType;

/// Default bound on memoized per-value hit lists; beyond it the cache stops
/// admitting new values (lookups still hit) so a pathological stream of
/// unique values cannot grow the model's footprint without bound.
/// Configurable per model via [`GazetteerLlmConfig::mask_cache_capacity`]
/// (surfaced on `datavinci_core`'s `DataVinciConfig`).
pub const DEFAULT_MASK_CACHE_CAPACITY: usize = 16_384;

/// Cumulative mask-cache telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskCacheStats {
    /// Memoized values currently held.
    pub entries: u64,
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that had to sweep the gazetteer.
    pub misses: u64,
}

/// One value's pass-1 span hits, shared between the memo and its readers.
type SharedHits = Arc<[(Span, Hit)]>;

/// Memoized per-value gazetteer hits.
///
/// `GazetteerLlm`'s per-value hit sweep is a pure function of the value (spans ×
/// fuzzy lookups — the expensive part of masking), so its results are
/// shared across prompt batches, columns, and engine runs; a hit hands out
/// another reference to the memoized list instead of copying it. Thread-safe: the
/// engine's worker pool masks columns concurrently through one model, and
/// analysis sessions hold an [`Arc`] handle to the same cache so its reuse
/// shows up in session telemetry.
#[derive(Debug)]
pub struct MaskCache {
    hits: Mutex<HashMap<String, SharedHits>>,
    capacity: usize,
    hit_count: AtomicU64,
    miss_count: AtomicU64,
}

impl Default for MaskCache {
    fn default() -> Self {
        MaskCache::with_capacity(DEFAULT_MASK_CACHE_CAPACITY)
    }
}

impl MaskCache {
    /// An empty cache bounded to `capacity` memoized values (min 1).
    pub fn with_capacity(capacity: usize) -> MaskCache {
        MaskCache {
            hits: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hit_count: AtomicU64::new(0),
            miss_count: AtomicU64::new(0),
        }
    }

    /// Number of memoized values.
    pub fn len(&self) -> usize {
        self.hits.lock().expect("mask cache poisoned").len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative telemetry.
    pub fn stats(&self) -> MaskCacheStats {
        MaskCacheStats {
            entries: self.len() as u64,
            hits: self.hit_count.load(Ordering::Relaxed),
            misses: self.miss_count.load(Ordering::Relaxed),
        }
    }

    /// Drops every memoized entry and resets telemetry.
    pub fn clear(&self) {
        self.hits.lock().expect("mask cache poisoned").clear();
        self.hit_count.store(0, Ordering::Relaxed);
        self.miss_count.store(0, Ordering::Relaxed);
    }

    /// `compute(value)` through the memo.
    fn get_or_compute(
        &self,
        value: &str,
        compute: impl FnOnce(&str) -> Vec<(Span, Hit)>,
    ) -> SharedHits {
        if let Some(hit) = self.hits.lock().expect("mask cache poisoned").get(value) {
            self.hit_count.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.miss_count.fetch_add(1, Ordering::Relaxed);
        let computed: SharedHits = compute(value).into();
        let mut map = self.hits.lock().expect("mask cache poisoned");
        if map.len() < self.capacity {
            map.insert(value.to_string(), Arc::clone(&computed));
        }
        computed
    }
}

/// A completion-style language model.
pub trait LanguageModel {
    /// Completes a prompt, returning the generated text.
    fn complete(&self, prompt: &str) -> String;

    /// Model identifier for reports.
    fn name(&self) -> &'static str;
}

/// Configuration for the gazetteer-backed mock LLM.
#[derive(Debug, Clone)]
pub struct GazetteerLlmConfig {
    /// Mask a semantic type only when at least this fraction of batch values
    /// contains a hit of that type (the whole-column-context effect).
    pub min_type_support: f64,
    /// …and at least this many values.
    pub min_type_count: usize,
    /// Types the model is allowed to mask. Defaults to the Sherlock-style
    /// set: every type except [`SemanticType::Category`] and
    /// [`SemanticType::Gender`] (short-code domains the paper's Figure 2
    /// shows being handled *syntactically* via disjunctions).
    pub mask_types: Vec<SemanticType>,
    /// When false, masked substrings are reproduced verbatim instead of
    /// being repaired/normalized — the "Limited semantic concretization"
    /// ablation of paper §5.4.1.
    pub repair_in_mask: bool,
    /// Bound on the per-value hit memo ([`MaskCache`]).
    pub mask_cache_capacity: usize,
}

impl Default for GazetteerLlmConfig {
    fn default() -> Self {
        GazetteerLlmConfig {
            min_type_support: 0.5,
            min_type_count: 2,
            mask_types: SemanticType::ALL
                .into_iter()
                .filter(|t| !matches!(t, SemanticType::Category | SemanticType::Gender))
                .collect(),
            repair_in_mask: true,
            mask_cache_capacity: DEFAULT_MASK_CACHE_CAPACITY,
        }
    }
}

/// Deterministic mock LLM over the gazetteer knowledge base.
#[derive(Debug, Default)]
pub struct GazetteerLlm {
    gaz: Gazetteer,
    cfg: GazetteerLlmConfig,
    cache: Arc<MaskCache>,
}

impl GazetteerLlm {
    /// Builds the model with default configuration.
    pub fn new() -> GazetteerLlm {
        GazetteerLlm::with_config(GazetteerLlmConfig::default())
    }

    /// Builds the model with explicit configuration.
    pub fn with_config(cfg: GazetteerLlmConfig) -> GazetteerLlm {
        let cache = Arc::new(MaskCache::with_capacity(cfg.mask_cache_capacity));
        GazetteerLlm {
            gaz: Gazetteer::new(),
            cfg,
            cache,
        }
    }

    /// Access to the underlying knowledge base.
    pub fn gazetteer(&self) -> &Gazetteer {
        &self.gaz
    }

    /// The per-value hit memo (telemetry / tests).
    pub fn mask_cache(&self) -> &MaskCache {
        &self.cache
    }

    /// A shared handle to the hit memo, for analysis sessions to surface
    /// its telemetry alongside their own.
    pub fn mask_cache_handle(&self) -> Arc<MaskCache> {
        Arc::clone(&self.cache)
    }

    /// Masks a whole column (the semantics behind `complete`).
    ///
    /// Masking is computed once per *distinct* value: the batch is interned,
    /// the column-level aggregates (type support, majority surface forms)
    /// are taken with multiplicity weights, each distinct value is masked
    /// once, and the results expand back to row order. Byte-identical to
    /// the per-row reference (`mask_column_rowwise`, a unit-test oracle) by
    /// construction — the aggregates are linear in the rows and the
    /// per-value work is a pure function of the value.
    pub fn mask_column<S: AsRef<str>>(&self, values: &[S]) -> Vec<String> {
        let (pool, masked) = self.mask_distinct(values);
        pool.row_to_distinct
            .iter()
            .map(|&di| masked[di].clone())
            .collect()
    }

    /// [`GazetteerLlm::mask_column`] before the expansion to rows: the
    /// interned batch and one masked line per distinct value.
    fn mask_distinct<'a, S: AsRef<str>>(
        &self,
        values: &'a [S],
    ) -> (crate::intern::Interned<'a>, Vec<String>) {
        let pool = crate::intern::intern_values(values);
        // Pass 1 runs once per distinct value, through the hit memo.
        let (mut swept, mut work) = (0u64, FuzzyWork::default());
        let all_hits: Vec<SharedHits> = pool
            .distinct
            .iter()
            .map(|v| {
                self.cache.get_or_compute(v, |v| {
                    swept += 1;
                    self.value_hits(v, &mut work)
                })
            })
            .collect();
        telemetry::counter("mask.value_hits", swept);
        telemetry::counter("gazetteer.fuzzy_lookups", work.lookups);
        telemetry::counter("gazetteer.fuzzy_compares", work.compares);
        let masked = self.mask_values_weighted(&pool.distinct, &pool.counts, &all_hits);
        (pool, masked)
    }

    /// The per-row reference implementation of [`GazetteerLlm::mask_column`]:
    /// no interning, no hit memo, every row weighted 1 — the pre-interning
    /// cost model. The unit tests use it as the oracle for the
    /// distinct-value path.
    #[cfg(test)]
    fn mask_column_rowwise(&self, values: &[String]) -> Vec<String> {
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let weights = vec![1usize; refs.len()];
        let mut work = FuzzyWork::default();
        let all_hits: Vec<Vec<(Span, Hit)>> =
            refs.iter().map(|v| self.value_hits(v, &mut work)).collect();
        self.mask_values_weighted(&refs, &weights, &all_hits)
    }

    /// Masks one batch of values, each carrying a multiplicity weight;
    /// `all_hits` holds each value's pass-1 span hits. Per-type aggregates
    /// live in arrays indexed by the type's position in
    /// [`SemanticType::ALL`].
    fn mask_values_weighted<H: AsRef<[(Span, Hit)]>>(
        &self,
        values: &[&str],
        weights: &[usize],
        all_hits: &[H],
    ) -> Vec<String> {
        // Type support across the batch: in how many rows does each type
        // appear at all? (Each value counts once per type, times its weight.)
        let mut support = [0usize; N_TYPES];
        for (hits, &w) in all_hits.iter().zip(weights) {
            let mut seen = 0u32;
            for (_, h) in hits.as_ref() {
                if seen & type_bit(h.semantic_type) == 0 {
                    seen |= type_bit(h.semantic_type);
                    support[h.semantic_type as usize] += w;
                }
            }
        }
        let n = values
            .iter()
            .zip(weights)
            .filter(|(v, _)| !v.trim().is_empty())
            .map(|(_, &w)| w)
            .sum::<usize>()
            .max(1);
        let kept: u32 = SemanticType::ALL
            .into_iter()
            .filter(|&t| {
                let c = support[t as usize];
                c > 0
                    && c >= self.cfg.min_type_count
                    && c as f64 / n as f64 >= self.cfg.min_type_support
            })
            .fold(0, |kept, t| kept | type_bit(t));

        // Majority surface form per kept type (among exact hits, weighted):
        // the most-voted form, ties to the lowest form index.
        let mut form_votes: [Vec<usize>; N_TYPES] = Default::default();
        for (hits, &w) in all_hits.iter().zip(weights) {
            for (_, h) in hits.as_ref() {
                if h.distance == 0 && kept & type_bit(h.semantic_type) != 0 {
                    let votes = &mut form_votes[h.semantic_type as usize];
                    if votes.len() <= h.form {
                        votes.resize(h.form + 1, 0);
                    }
                    votes[h.form] += w;
                }
            }
        }
        let majority_form: [Option<usize>; N_TYPES] = std::array::from_fn(|t| {
            let mut best: Option<(usize, usize)> = None;
            for (form, &count) in form_votes[t].iter().enumerate() {
                if count > 0 && best.is_none_or(|(_, c)| count > c) {
                    best = Some((form, count));
                }
            }
            best.map(|(form, _)| form)
        });

        // Pass 2: greedy non-overlapping masking, once per distinct value.
        values
            .iter()
            .zip(all_hits)
            .map(|(v, hits)| self.mask_value(v, hits.as_ref(), kept, &majority_form))
            .collect()
    }

    fn value_hits(&self, value: &str, work: &mut FuzzyWork) -> Vec<(Span, Hit)> {
        let chars: Vec<char> = value.chars().collect();
        let mut out = Vec::new();
        for span in candidate_spans(value) {
            // A short code form (`DE`, `PRO`) adjacent to an alphanumeric
            // character is a word fragment, not a code: `de` inside `Rh0de`
            // must not match Delaware.
            if span.lookup.chars().count() <= 3 {
                let before = span.start.checked_sub(1).map(|i| chars[i]);
                let after = chars.get(span.start + span.len).copied();
                if before.is_some_and(|c| c.is_ascii_alphanumeric())
                    || after.is_some_and(|c| c.is_ascii_alphanumeric())
                {
                    continue;
                }
            }
            // Span lookups hold only letters and spaces, so visual typos
            // (digits for letters: Rh0de) are left to the whole-value
            // strategy below.
            for h in self.gaz.lookup_fuzzy_counted(&span.lookup, work) {
                if self.cfg.mask_types.contains(&h.semantic_type) {
                    out.push((span.clone(), h));
                }
            }
        }
        // Whole-value strategies for values a spurious delimiter or typo
        // broke apart (Flo_rida → Florida): strip non-alphanumerics, invert
        // visual typos, and look the collapsed surface up as one span.
        let n_chars = value.chars().count();
        let alpha: usize = value.chars().filter(|c| c.is_ascii_alphabetic()).count();
        // Only reach for whole-value repair when no ordinary span already
        // accounts for the value's alphabetic content — `(Liverpool)` is a
        // wrapped entity, not a broken one.
        let best_covered = out.iter().map(|(s, _)| s.len).max().unwrap_or(0);
        if alpha >= 4 && best_covered < alpha {
            let stripped: String = value
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || *c == ' ')
                .collect();
            // Inverting a value without digits changes nothing, so one
            // lookup of the inverted surface covers the plain one too.
            let inverted = invert_visual_typos(&stripped);
            let trimmed = inverted.trim();
            // Granularity guard (§3.2): a whole-value mask must not
            // swallow residual digits — `dark green 2` is a color plus a
            // number, not one concept.
            if trimmed.chars().count() >= 4 && !trimmed.chars().any(|c| c.is_ascii_digit()) {
                let span = Span {
                    start: 0,
                    len: n_chars,
                    lookup: trimmed.to_string(),
                };
                for h in self.gaz.lookup_fuzzy_counted(trimmed, work) {
                    if self.cfg.mask_types.contains(&h.semantic_type) {
                        out.push((
                            span.clone(),
                            Hit {
                                distance: h.distance.max(1),
                                ..h
                            },
                        ));
                    }
                }
            }
        }
        // Greedy masking prefers longer spans; keep the list sorted that
        // way even after the whole-value strategies appended entries.
        out.sort_by_key(|(s, h)| (std::cmp::Reverse(s.len), s.start, h.distance));
        out
    }

    /// Masks one value; `kept` is a [`type_bit`] set and `majority_form`
    /// is indexed by type.
    fn mask_value(
        &self,
        value: &str,
        hits: &[(Span, Hit)],
        kept: u32,
        majority_form: &[Option<usize>; N_TYPES],
    ) -> String {
        // Choose non-overlapping spans greedily (hits are already in
        // longest-first span order); prefer the kept type listed earliest in
        // SemanticType::ALL when a span is ambiguous.
        let mut chosen: Vec<(Span, Hit)> = Vec::new();
        for (span, hit) in hits {
            if kept & type_bit(hit.semantic_type) == 0 {
                continue;
            }
            if chosen.iter().any(|(s, _)| s.overlaps(span)) {
                // Same span may carry several typed hits; keep the first
                // (ALL-ordered via kept iteration below). Overlap with a
                // *different* span blocks outright.
                continue;
            }
            // Ambiguity resolution: among all hits on this same span, pick
            // the kept type with the smallest ALL-index.
            let mut best = *hit;
            for (s2, h2) in hits {
                if s2 == span
                    && kept & type_bit(h2.semantic_type) != 0
                    && (h2.semantic_type as usize) < (best.semantic_type as usize)
                {
                    best = *h2;
                }
            }
            chosen.push((span.clone(), best));
        }
        chosen.sort_by_key(|(s, _)| s.start);

        // Render: copy chars, replacing chosen spans with {type(suggestion)}.
        let chars: Vec<char> = value.chars().collect();
        let mut out = String::with_capacity(value.len() + 16);
        let mut pos = 0usize;
        for (span, hit) in &chosen {
            while pos < span.start {
                out.push(chars[pos]);
                pos += 1;
            }
            let original: String = chars[span.start..span.start + span.len].iter().collect();
            let suggestion: String = if self.cfg.repair_in_mask {
                let form = majority_form[hit.semantic_type as usize].unwrap_or(hit.form);
                let form_text = hit.entry_form(form).unwrap_or_else(|| hit.form_text());
                if hit.distance == 0 && form == hit.form && original.eq_ignore_ascii_case(form_text)
                {
                    // Exact hit already in the column-majority form: keep
                    // the user's spelling (case included). Only genuine
                    // repairs (fuzzy hits, aliases) and form switches
                    // rewrite.
                    original
                } else {
                    hit.entry_form(form)
                        .unwrap_or_else(|| hit.form_text())
                        .to_string()
                }
            } else {
                // Limited mode: re-use the original substring verbatim.
                original
            };
            out.push('{');
            out.push_str(hit.semantic_type.name());
            out.push('(');
            out.push_str(&suggestion);
            out.push_str(")}");
            pos = span.start + span.len;
        }
        while pos < chars.len() {
            out.push(chars[pos]);
            pos += 1;
        }
        out
    }
}

/// The §4.2 visually-inspired typo map, inverted (digits back to letters).
fn invert_visual_typos(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '0' => 'o',
            '1' => 'l',
            '3' => 'e',
            '4' => 'a',
            '7' => 't',
            '5' => 's',
            other => other,
        })
        .collect()
}

/// Number of semantic types; per-type arrays are indexed by `t as usize`,
/// which is `t`'s position in [`SemanticType::ALL`] (declaration order).
const N_TYPES: usize = SemanticType::ALL.len();

/// `t`'s bit in a set of types.
fn type_bit(t: SemanticType) -> u32 {
    1 << t as u32
}

impl LanguageModel for GazetteerLlm {
    fn complete(&self, prompt: &str) -> String {
        debug_assert!(
            prompt.contains(OUTPUT_MARKER),
            "prompt must end with the output marker"
        );
        let values = parse_prompt_values(prompt);
        let (pool, masked) = self.mask_distinct(&values);
        // One line per row, newline-separated, written from the distinct
        // masked lines.
        let mut out = String::with_capacity(prompt.len());
        for (i, &di) in pool.row_to_distinct.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&masked[di]);
        }
        out
    }

    fn name(&self) -> &'static str {
        "gazetteer-llm-sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(values: &[&str]) -> Vec<String> {
        let llm = GazetteerLlm::new();
        llm.mask_column(&values.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn figure2_column_masks_countries_not_categories() {
        let out = mask(&[
            "Ind-674-PRO",
            "usa_837",
            "Alg-173-PRO",
            "US-201-QUA",
            "Chn-924-QUA",
            "FR-475-PRO",
        ]);
        // Countries are masked; the PRO/QUA suffixes stay syntactic.
        assert!(out[0].starts_with("{country("));
        assert!(out[0].ends_with("-674-PRO"), "{}", out[0]);
        assert!(out[1].starts_with("{country("), "{}", out[1]);
        assert!(out[1].ends_with("_837"));
        assert!(!out[0].contains("category"));
    }

    #[test]
    fn majority_form_normalizes_suggestions() {
        // Column predominantly ISO-2 (form index 1): usa normalizes to US.
        let out = mask(&["US-1", "FR-2", "DE-3", "usa-4", "IT-5"]);
        assert_eq!(out[3], "{country(US)}-4", "{out:?}");
        assert_eq!(out[0], "{country(US)}-1");
    }

    #[test]
    fn example1_colors_with_spelling_repair() {
        let out = mask(&["red 1", "dark green 2", "blue phone 3", "bluee 4"]);
        assert_eq!(out[0], "{color(red)} 1");
        assert_eq!(out[1], "{color(dark green)} 2");
        assert_eq!(out[2], "{color(blue)} phone 3");
        // "bluee" (5 chars, budget 1) repairs to blue.
        assert_eq!(out[3], "{color(blue)} 4");
    }

    #[test]
    fn unsupported_types_stay_unmasked() {
        // One stray city name in a non-semantic column: support too low.
        let out = mask(&["x-1", "y-2", "Boston", "z-4", "w-5"]);
        assert_eq!(out[2], "Boston");
    }

    #[test]
    fn quarters_stay_syntactic() {
        // §3.2 granularity: Q4-2002 must not be masked wholesale.
        let out = mask(&["Q4-2002", "Q3-2002", "Q32001"]);
        assert_eq!(out, vec!["Q4-2002", "Q3-2002", "Q32001"]);
    }

    #[test]
    fn dotted_abbreviations_repair() {
        let out = mask(&["US-1", "u.k.-392", "DE-7", "FR-9"]);
        assert_eq!(out[1], "{country(GB)}-392");
    }

    #[test]
    fn complete_round_trip_through_prompt() {
        use crate::prompt::build_prompts;
        let llm = GazetteerLlm::new();
        let values: Vec<String> = ["US-1", "FR-2", "usa-3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let batches = build_prompts("Code", &values, &llm.cfg.mask_types);
        let response = llm.complete(&batches[0].prompt);
        let lines: Vec<&str> = response.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], "{country(US)}-3");
    }

    #[test]
    fn pooled_masking_matches_rowwise_reference() {
        // Duplicate-heavy, mixed, typo'd, and empty values: the interned
        // weighted path must reproduce the per-row oracle byte for byte.
        let columns: Vec<Vec<&str>> = vec![
            vec!["US-1", "US-1", "US-1", "usa-4", "FR-2", "US-1", ""],
            vec![
                "red 1",
                "red 1",
                "dark green 2",
                "blue phone 3",
                "bluee 4",
                "red 1",
            ],
            vec!["Boston", "Boston", "Birminxham", "Boston", "Miami"],
            vec!["Q4-2002", "Q4-2002", "Q32001"],
            vec!["", " ", ""],
        ];
        for col in columns {
            let llm = GazetteerLlm::new();
            let values: Vec<String> = col.iter().map(|s| s.to_string()).collect();
            assert_eq!(
                llm.mask_column(&values),
                llm.mask_column_rowwise(&values),
                "{values:?}"
            );
        }
    }

    #[test]
    fn mask_cache_memoizes_per_distinct_value() {
        let llm = GazetteerLlm::new();
        let values: Vec<String> = ["US-1", "US-1", "FR-2", "US-1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        llm.mask_column(&values);
        assert_eq!(llm.mask_cache().len(), 2);
        assert_eq!(llm.mask_cache().stats().misses, 2);
        // A repeat clean re-uses the memo (no growth) and stays identical.
        let again = llm.mask_column(&values);
        assert_eq!(llm.mask_cache().len(), 2);
        assert_eq!(llm.mask_cache().stats().hits, 2);
        assert_eq!(again, llm.mask_column_rowwise(&values));
        llm.mask_cache().clear();
        assert!(llm.mask_cache().is_empty());
        assert_eq!(llm.mask_cache().stats(), MaskCacheStats::default());
    }

    #[test]
    fn mask_cache_capacity_bounds_admissions() {
        // Capacity 1: only the first distinct value is admitted; later
        // values recompute (miss) but results stay correct.
        let llm = GazetteerLlm::with_config(GazetteerLlmConfig {
            mask_cache_capacity: 1,
            ..GazetteerLlmConfig::default()
        });
        assert_eq!(llm.mask_cache().capacity(), 1);
        let values: Vec<String> = ["US-1", "FR-2", "US-1", "FR-2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = llm.mask_column(&values);
        assert_eq!(llm.mask_cache().len(), 1);
        assert_eq!(out, llm.mask_column_rowwise(&values));
    }

    #[test]
    fn type_indices_follow_all_order() {
        for (i, t) in SemanticType::ALL.into_iter().enumerate() {
            assert_eq!(t as usize, i, "{t:?}");
        }
        assert!(N_TYPES <= u32::BITS as usize);
    }

    #[test]
    fn ambiguous_span_prefers_earlier_type() {
        // "New York" is city and state; with both supported, city (earlier
        // in ALL) wins.
        let out = mask(&["New York", "Boston", "Chicago", "New York"]);
        assert!(out[0].starts_with("{city("), "{}", out[0]);
    }
}
