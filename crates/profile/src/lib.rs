//! FlashProfile-style unsupervised pattern profiling for DataVinci.
//!
//! Given the (masked) string values of a column, [`profile_column`] learns up
//! to *k* regular-expression patterns that jointly cover the column, balancing
//! pattern count against generality (paper §3.1, citing FlashProfile \[15\]).
//! DataVinci then keeps the *significant* subset — patterns individually
//! covering at least a fraction δ of values — and reports values outside
//! their union language as data errors.
//!
//! The implementation is a faithful-behaviour reconstruction rather than a
//! line-by-line port of FlashProfile: values are tokenized into atomic runs,
//! collapsed by smallest period (which discovers quantified groups like
//! `(A[0-9].)+`), clustered by unit signature, and greedily merged under a
//! normalized anti-unification cost. Pooled per-position statistics decide
//! between literals, categorical string disjunctions (`(CAT|PRO)`), and
//! quantified character classes.

pub mod atom;
pub mod generalize;
pub mod profiler;
pub mod stats;

pub use generalize::MergeConfig;
pub use profiler::{
    profile_column, profile_column_pooled, profile_plain, rescore_profile_pooled, ColumnProfile,
    LearnedPattern, MaskedPool, ProfilerConfig,
};
pub use stats::BuildConfig;
