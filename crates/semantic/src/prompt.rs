//! The semantic-abstraction prompt (paper Figure 3).
//!
//! The prompt has four components: a task description, the closed set of
//! maskable semantic types, few-shot examples demonstrating both masking
//! (`US-123 → {country(US)}-123`) and in-mask repair (`u.k.-392 →
//! {country(UK)}-392`), and the batch of column values. Long columns are
//! processed in batches sized to the model's context window (4k tokens for
//! GPT-3.5; we estimate ~4 characters per token).

use crate::types::SemanticType;

/// Simulated model context window, in tokens (GPT-3.5 in the paper).
pub const MAX_PROMPT_TOKENS: usize = 4000;

/// Crude token estimate (~4 characters per token).
pub fn token_estimate(text: &str) -> usize {
    text.len().div_ceil(4)
}

/// Prompt section markers (the mock LLM parses these back out).
pub const COLUMN_MARKER: &str = "### Column";
pub const VALUES_MARKER: &str = "Values:";
pub const OUTPUT_MARKER: &str = "### Masked values (one per line):";

/// One prompt covering a contiguous batch of rows.
#[derive(Debug, Clone)]
pub struct PromptBatch {
    /// The full prompt text.
    pub prompt: String,
    /// Row indices covered, in order.
    pub rows: Vec<usize>,
}

/// The static prompt preamble: task + types + few-shot examples.
pub fn preamble(mask_types: &[SemanticType]) -> String {
    let mut p = String::new();
    p.push_str(
        "### Task\n\
         You are given a column of spreadsheet values. Replace every substring\n\
         that denotes one of the listed semantic types with a mask of the form\n\
         {type(value)}. Keep all other characters exactly as they are. If a\n\
         masked substring contains a spelling mistake or a non-canonical form,\n\
         you may repair it inside the mask: write {type(value')} where value'\n\
         is the corrected, column-consistent form. Mask at the granularity of\n\
         the listed types only; never mask whole values that merely contain a\n\
         typed substring.\n\n",
    );
    p.push_str("### Semantic types\n");
    let names: Vec<&str> = mask_types.iter().map(|t| t.name()).collect();
    p.push_str(&names.join(", "));
    p.push_str("\n\n### Examples\n");
    for (input, output) in EXAMPLES {
        p.push_str("Input: ");
        p.push_str(input);
        p.push_str("\nOutput: ");
        p.push_str(output);
        p.push('\n');
    }
    p.push('\n');
    p
}

/// Few-shot examples, mirroring Figure 3 / §3.2 of the paper.
const EXAMPLES: &[(&str, &str)] = &[
    ("US-123", "{country(US)}-123"),
    ("u.k.-392", "{country(UK)}-392"),
    ("bleu phone 3", "{color(blue)} phone 3"),
    ("Bostn, MA", "{city(Boston)}, {state(MA)}"),
    ("Q4-2002", "Q4-2002"),
];

/// Splits a column into prompt batches under the token budget.
pub fn build_prompts(
    header: &str,
    values: &[String],
    mask_types: &[SemanticType],
) -> Vec<PromptBatch> {
    build_prompts_after(&preamble(mask_types), header, values)
}

/// [`build_prompts`] behind an already-built [`preamble`], so an abstractor
/// renders its fixed preamble once instead of once per column.
pub(crate) fn build_prompts_after(pre: &str, header: &str, values: &[String]) -> Vec<PromptBatch> {
    let fixed = format!("{pre}{COLUMN_MARKER}\nHeader: {header}\n{VALUES_MARKER}\n");
    let fixed_tokens = token_estimate(&fixed) + token_estimate(OUTPUT_MARKER) + 2;

    let mut batches = Vec::new();
    let mut prompt = fixed.clone();
    let mut rows: Vec<usize> = Vec::new();
    let mut used = fixed_tokens;
    let finish = |prompt: &mut String| {
        prompt.push_str(OUTPUT_MARKER);
        prompt.push('\n');
    };
    for (i, v) in values.iter().enumerate() {
        // Each value appears in the prompt and again in the completion.
        let cost = 2 * (token_estimate(v) + 1);
        if !rows.is_empty() && used + cost > MAX_PROMPT_TOKENS {
            finish(&mut prompt);
            batches.push(PromptBatch {
                prompt: std::mem::replace(&mut prompt, fixed.clone()),
                rows: std::mem::take(&mut rows),
            });
            used = fixed_tokens;
        }
        prompt.push_str(v);
        prompt.push('\n');
        rows.push(i);
        used += cost;
    }
    if !rows.is_empty() || batches.is_empty() {
        finish(&mut prompt);
        batches.push(PromptBatch { prompt, rows });
    }
    batches
}

/// Extracts the batch's values back out of a prompt (the mock LLM's "read"),
/// borrowing each line from the prompt.
pub fn parse_prompt_values(prompt: &str) -> Vec<&str> {
    let mut in_values = false;
    let mut out = Vec::new();
    for line in prompt.lines() {
        if line == OUTPUT_MARKER {
            break;
        }
        if in_values {
            out.push(line);
        }
        if line == VALUES_MARKER {
            in_values = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn prompt_contains_all_components() {
        let batches = build_prompts(
            "Player ID",
            &owned(&["usa_837", "Ind-674-PRO"]),
            &SemanticType::ALL,
        );
        assert_eq!(batches.len(), 1);
        let p = &batches[0].prompt;
        assert!(p.contains("### Task"));
        assert!(p.contains("### Semantic types"));
        assert!(p.contains("country, city"));
        assert!(p.contains("### Examples"));
        assert!(p.contains("{country(UK)}-392"));
        assert!(p.contains("Header: Player ID"));
        assert!(p.contains("usa_837"));
        assert!(p.ends_with(&format!("{OUTPUT_MARKER}\n")));
    }

    #[test]
    fn round_trip_values_through_prompt() {
        let values = owned(&["a-1", "b-2", "weird {brace}"]);
        let batches = build_prompts("h", &values, &SemanticType::ALL);
        let parsed = parse_prompt_values(&batches[0].prompt);
        assert_eq!(parsed, values);
    }

    #[test]
    fn long_columns_split_into_batches() {
        let long: Vec<String> = (0..4000).map(|i| format!("value-{i:06}")).collect();
        let batches = build_prompts("h", &long, &SemanticType::ALL);
        assert!(batches.len() > 1, "expected multiple batches");
        for b in &batches {
            assert!(token_estimate(&b.prompt) <= MAX_PROMPT_TOKENS + 64);
        }
        // Batches partition the rows in order.
        let mut all: Vec<usize> = batches.iter().flat_map(|b| b.rows.clone()).collect();
        assert_eq!(all.len(), 4000);
        all.dedup();
        assert_eq!(all, (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_column_single_empty_batch() {
        let batches = build_prompts("h", &[], &SemanticType::ALL);
        assert_eq!(batches.len(), 1);
        assert!(batches[0].rows.is_empty());
    }

    #[test]
    fn token_estimate_is_quarter_length() {
        assert_eq!(token_estimate("abcdefgh"), 2);
        assert_eq!(token_estimate("abc"), 1);
        assert_eq!(token_estimate(""), 0);
    }
}
