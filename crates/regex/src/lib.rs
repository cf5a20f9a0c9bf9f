//! DataVinci's pattern language and matching engine.
//!
//! This crate implements the regular-expression machinery of the paper:
//!
//! * [`CharClass`] — the eight character classes of §3.1,
//! * [`Pattern`] — regexes over literals, classes, string disjunctions,
//!   quantified groups, and semantic *mask* tokens (§3.2),
//! * [`MaskedString`]/[`Tok`] — strings over the extended alphabet produced
//!   by semantic abstraction,
//! * [`CompiledPattern`] — memoized-DFA membership tests (lazy subset
//!   construction with a cyclic-NFA fallback/oracle; see [`mod@dfa`]) plus
//!   per-value-length unrolled [`Dag`]s (Figure 4) used by the repair
//!   dynamic program,
//! * [`Bindings`] — which concrete character/alternative each concretizable
//!   atom consumed on a match (the decision-tree training data of Example 5),
//! * Levenshtein distances in [`edit_distance`] (plain, token-level, banded).
//!
//! The repair DP itself (Equation 1) lives in `datavinci-core`; this crate
//! supplies the automata it runs over.

pub mod ast;
pub mod class;
pub mod dag;
pub mod dfa;
pub mod display;
pub mod edit_distance;
pub mod matcher;
mod nfa;
pub mod token;
mod unroll;

pub use ast::{AtomId, AtomKey, Pattern};
pub use class::CharClass;
pub use dag::{Dag, DagEdge, DagLabel};
pub use dfa::AsciiBatch;
pub use display::render;
pub use edit_distance::{levenshtein, levenshtein_toks, levenshtein_within, BandedLevenshtein};
pub use matcher::{Binding, BindingScratch, BindingSpan, Bindings, CompiledPattern};
pub use token::{MaskAlphabet, MaskId, MaskedString, Tok};
