//! Semantic substrate for DataVinci: the twenty semantic types, the
//! gazetteer knowledge base, the Figure-3 abstraction prompt, and a
//! deterministic mock LLM.
//!
//! Paper §3.2 masks semantic substrings (`usa_837` → `{country(US)}_837` →
//! `m₁_837`) before pattern learning, allowing one syntactic repair engine
//! to fix mixed syntactic+semantic strings. The hosted GPT-3.5 is replaced
//! here by [`GazetteerLlm`] behind the [`LanguageModel`] trait — it consumes
//! the very same prompt text and reproduces the contract: type-restricted
//! masking, in-mask spelling repair (bounded edit distance), and
//! normalization to the column-majority surface form. See DESIGN.md §2 for
//! the substitution argument.

pub mod data;
pub mod detect;
pub mod gazetteer;
pub(crate) mod intern;
pub mod llm;
pub mod mask;
pub mod prompt;
pub mod spans;
pub mod types;

pub use detect::{detect_column_type, ColumnTypeMemo, TypeDetection};
pub use gazetteer::{fuzzy_budget, Gazetteer, Hit};
pub use llm::{
    GazetteerLlm, GazetteerLlmConfig, LanguageModel, MaskCache, MaskCacheStats,
    DEFAULT_MASK_CACHE_CAPACITY,
};
pub use mask::{
    parse_masked_value, AbstractedColumn, MaskOccurrence, MaskedValue, SemanticAbstractor,
};
pub use types::SemanticType;
