//! The semantic abstraction driver: column → masked column (and back).
//!
//! Orchestrates the paper's §3.2 flow: build Figure-3 prompts in batches,
//! call the language model, parse the `{type(suggestion)}` syntax into
//! [`MaskedString`]s over mask tokens, and record per-row occurrences so
//! repaired masked values can be *re-concretized* into plain strings.

use std::collections::HashMap;

use crate::llm::LanguageModel;
use crate::prompt::build_prompts;
use crate::types::SemanticType;
use datavinci_regex::{MaskAlphabet, MaskId, MaskedString, Tok};
use datavinci_telemetry as telemetry;

/// One mask occurrence within a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskOccurrence {
    /// The mask symbol (one per semantic type within a column).
    pub mask: MaskId,
    /// The semantic type.
    pub semantic_type: SemanticType,
    /// The LLM's (possibly repaired) replacement text for this occurrence.
    pub suggestion: String,
}

/// One abstracted value: the masked string plus its mask occurrences in
/// left-to-right order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MaskedValue {
    /// The masked string the pattern engine sees.
    pub masked: MaskedString,
    /// Occurrences, aligned with the mask tokens in `masked`.
    pub occurrences: Vec<MaskOccurrence>,
}

/// A fully abstracted column.
#[derive(Debug, Clone, Default)]
pub struct AbstractedColumn {
    /// Abstracted values, one per row.
    pub values: Vec<MaskedValue>,
    /// Mask-symbol names (semantic type display names).
    pub alphabet: MaskAlphabet,
    /// Column-level default suggestion per mask symbol (majority), used to
    /// concretize masks *inserted* by repairs.
    pub defaults: HashMap<MaskId, String>,
}

impl AbstractedColumn {
    /// Abstraction that performs no masking (the "no semantic abstraction"
    /// ablation of paper §5.4.1, and the fast path for mask-free columns).
    pub fn plain<S: AsRef<str>>(values: &[S]) -> AbstractedColumn {
        AbstractedColumn {
            values: values
                .iter()
                .map(|v| MaskedValue {
                    masked: MaskedString::from_plain(v.as_ref()),
                    occurrences: Vec::new(),
                })
                .collect(),
            alphabet: MaskAlphabet::new(),
            defaults: HashMap::new(),
        }
    }

    /// Did abstraction produce any masks at all?
    pub fn has_masks(&self) -> bool {
        self.values.iter().any(|v| !v.occurrences.is_empty())
    }

    /// The masked strings, in row order (pattern-learner input).
    pub fn masked_strings(&self) -> Vec<MaskedString> {
        self.values.iter().map(|v| v.masked.clone()).collect()
    }

    /// Concretizes a (possibly repaired) masked string for row `row`:
    /// mask tokens are replaced by that row's occurrence suggestions in
    /// order; extra (repair-inserted) masks fall back to the column default.
    pub fn concretize(&self, row: usize, repaired: &MaskedString) -> String {
        let occurrences = self
            .values
            .get(row)
            .map(|v| v.occurrences.as_slice())
            .unwrap_or(&[]);
        let mut used: HashMap<MaskId, usize> = HashMap::new();
        let mut out = String::new();
        for tok in repaired.toks() {
            match tok {
                Tok::Char(c) => out.push(*c),
                Tok::Mask(id) => {
                    let k = used.entry(*id).or_insert(0);
                    let nth = occurrences
                        .iter()
                        .filter(|o| o.mask == *id)
                        .nth(*k)
                        .map(|o| o.suggestion.as_str());
                    *k += 1;
                    match nth.or_else(|| self.defaults.get(id).map(String::as_str)) {
                        Some(text) => out.push_str(text),
                        None => out.push('\u{FFFD}'),
                    }
                }
            }
        }
        out
    }
}

/// The abstraction engine: an LLM behind the Figure-3 prompt.
pub struct SemanticAbstractor<L: LanguageModel> {
    llm: L,
    mask_types: Vec<SemanticType>,
}

impl<L: LanguageModel> SemanticAbstractor<L> {
    /// Wraps a language model with the default maskable-type set.
    pub fn new(llm: L) -> Self {
        SemanticAbstractor {
            llm,
            mask_types: SemanticType::ALL
                .into_iter()
                .filter(|t| !matches!(t, SemanticType::Category | SemanticType::Gender))
                .collect(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &L {
        &self.llm
    }

    /// Abstracts a column: prompts the model batch-wise, parses masks.
    ///
    /// Parsing is memoized per distinct response line: duplicate values mask
    /// to duplicate lines, and re-parsing a line already seen interns
    /// nothing new, so replaying the memo is byte-identical to parsing every
    /// row.
    pub fn abstract_column(&self, header: &str, values: &[String]) -> AbstractedColumn {
        let batches = build_prompts(header, values, &self.mask_types);
        let mut alphabet = MaskAlphabet::new();
        let mut parsed: HashMap<String, MaskedValue> = HashMap::new();
        let mut out: Vec<MaskedValue> = vec![MaskedValue::default(); values.len()];
        for batch in batches {
            let response = {
                let _span = telemetry::span("mask.complete");
                self.llm.complete(&batch.prompt)
            };
            let lines: Vec<&str> = response.lines().collect();
            for (k, &row) in batch.rows.iter().enumerate() {
                let masked_text = lines.get(k).copied().unwrap_or(values[row].as_str());
                out[row] = match parsed.get(masked_text) {
                    Some(v) => v.clone(),
                    None => {
                        let v = parse_masked_value(masked_text, &mut alphabet);
                        parsed.insert(masked_text.to_string(), v.clone());
                        v
                    }
                };
            }
        }

        // Column defaults: majority suggestion per mask symbol.
        let mut votes: HashMap<MaskId, HashMap<&str, usize>> = HashMap::new();
        for v in &out {
            for o in &v.occurrences {
                *votes
                    .entry(o.mask)
                    .or_default()
                    .entry(o.suggestion.as_str())
                    .or_insert(0) += 1;
            }
        }
        let defaults: HashMap<MaskId, String> = votes
            .into_iter()
            .filter_map(|(id, v)| {
                v.into_iter()
                    .max_by_key(|&(text, count)| (count, std::cmp::Reverse(text.len()), text))
                    .map(|(text, _)| (id, text.to_string()))
            })
            .collect();

        AbstractedColumn {
            values: out,
            alphabet,
            defaults,
        }
    }
}

/// Parses one `{type(suggestion)}`-syntax line into a masked value.
///
/// Malformed mask syntax degrades gracefully to literal characters — a
/// hosted LLM can always produce junk, and junk must not panic a cleaner.
pub fn parse_masked_value(text: &str, alphabet: &mut MaskAlphabet) -> MaskedValue {
    let chars: Vec<char> = text.chars().collect();
    let mut masked = MaskedString::default();
    let mut occurrences = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if let Some((semantic_type, suggestion, end)) = parse_mask_at(&chars, i) {
                let id = alphabet.intern(&semantic_type.display_name());
                masked.push(Tok::Mask(id));
                occurrences.push(MaskOccurrence {
                    mask: id,
                    semantic_type,
                    suggestion,
                });
                i = end;
                continue;
            }
        }
        masked.push(Tok::Char(chars[i]));
        i += 1;
    }
    MaskedValue {
        masked,
        occurrences,
    }
}

/// Tries to parse `{name(suggestion)}` starting at `start`; returns the
/// type, suggestion, and the index one past the closing `}`.
fn parse_mask_at(chars: &[char], start: usize) -> Option<(SemanticType, String, usize)> {
    let open = chars[start + 1..].iter().position(|&c| c == '(')? + start + 1;
    let name: String = chars[start + 1..open].iter().collect();
    let semantic_type = SemanticType::parse(&name)?;
    // Find ")}" — suggestions never contain that two-char sequence.
    let mut j = open + 1;
    while j + 1 < chars.len() {
        if chars[j] == ')' && chars[j + 1] == '}' {
            let suggestion: String = chars[open + 1..j].iter().collect();
            return Some((semantic_type, suggestion, j + 2));
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::GazetteerLlm;

    fn abstractor() -> SemanticAbstractor<GazetteerLlm> {
        SemanticAbstractor::new(GazetteerLlm::new())
    }

    fn col(values: &[&str]) -> AbstractedColumn {
        abstractor().abstract_column(
            "col",
            &values.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parse_masked_value_basic() {
        let mut alpha = MaskAlphabet::new();
        let v = parse_masked_value("{country(US)}_837", &mut alpha);
        assert_eq!(v.masked.len(), 5); // mask + _ + 8 + 3 + 7
        assert_eq!(v.occurrences.len(), 1);
        assert_eq!(v.occurrences[0].suggestion, "US");
        assert_eq!(v.occurrences[0].semantic_type, SemanticType::Country);
        assert_eq!(alpha.name(v.occurrences[0].mask), Some("Country"));
    }

    #[test]
    fn parse_malformed_masks_as_literals() {
        let mut alpha = MaskAlphabet::new();
        let v = parse_masked_value("{oops}x", &mut alpha);
        assert!(v.occurrences.is_empty());
        assert_eq!(v.masked.to_plain().as_deref(), Some("{oops}x"));
        let v2 = parse_masked_value("{country(US}", &mut alpha);
        assert!(v2.occurrences.is_empty());
    }

    #[test]
    fn figure2_abstraction_end_to_end() {
        let c = col(&[
            "Ind-674-PRO",
            "usa_837",
            "Alg-173-PRO",
            "US-201-QUA",
            "Chn-924-QUA",
            "FR-475-PRO",
        ]);
        assert!(c.has_masks());
        // Row 1 (usa_837): one country mask, suggestion normalized by the
        // column's majority form.
        let v = &c.values[1];
        assert_eq!(v.occurrences.len(), 1);
        assert_eq!(v.occurrences[0].semantic_type, SemanticType::Country);
        // The masked string is ⟨Country⟩_837.
        assert_eq!(v.masked.render(&c.alphabet), "⟨Country⟩_837");
    }

    #[test]
    fn concretize_replaces_masks_in_order() {
        let c = col(&["US-1-FR", "DE-2-IT", "GB-3-ES", "FR-4-US"]);
        let v = &c.values[0];
        assert_eq!(v.occurrences.len(), 2);
        let plain = c.concretize(0, &v.masked);
        assert_eq!(plain, "US-1-FR");
    }

    #[test]
    fn concretize_inserted_mask_uses_column_default() {
        let c = col(&["US-1", "US-2", "US-3", "FR-4"]);
        let id = c.values[0].occurrences[0].mask;
        // A repaired value that *inserts* an extra mask beyond row 0's one
        // occurrence: [mask, '-', mask].
        let repaired = MaskedString::from_toks(vec![Tok::Mask(id), Tok::Char('-'), Tok::Mask(id)]);
        let plain = c.concretize(0, &repaired);
        // First mask → row suggestion (US), second → column majority (US).
        assert_eq!(plain, "US-US");
    }

    #[test]
    fn plain_abstraction_never_masks() {
        let c = AbstractedColumn::plain(&["US-1", "FR-2"]);
        assert!(!c.has_masks());
        assert_eq!(c.values[0].masked.to_plain().as_deref(), Some("US-1"));
        assert_eq!(c.concretize(0, &c.values[0].masked), "US-1");
    }

    #[test]
    fn masked_strings_align_with_rows() {
        let c = col(&["red 1", "green 2", "blue 3"]);
        let strings = c.masked_strings();
        assert_eq!(strings.len(), 3);
        assert!(strings.iter().all(|s| s.has_masks()));
    }
}
