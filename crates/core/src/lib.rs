//! DataVinci: fully unsupervised detection and repair of syntactic and
//! semantic string data errors.
//!
//! This crate is the paper's primary contribution, assembled from the
//! workspace substrates:
//!
//! 1. **Semantic abstraction** (§3.2, via `datavinci-semantic`): semantic
//!    substrings become mask tokens, with LLM-suggested replacements.
//! 2. **Significant patterns** (§3.1, via `datavinci-profile`): up to *k*
//!    learned regex patterns; those covering ≥ δ of values define the
//!    column's language.
//! 3. **Detection** (§3.1): values outside the union language are errors.
//! 4. **Edit programs** (§3.3, [`repair_dp`]): minimal M/I/D/S scripts over
//!    the unrolled pattern DAG, with *abstract* class/disjunction emissions.
//! 5. **Concretization** (§3.4, [`concretize`]): decision trees over
//!    Table-2 predicates predict concrete values for abstract edits.
//! 6. **Ranking** (§3.5, [`ranker`]): a four-property weighted heuristic.
//! 7. **Execution-guided repair** (§3.6, [`exec_guided`]): patterns learned
//!    from a program's successful executions recover otherwise-invisible
//!    errors.
//!
//! ```
//! use datavinci_core::{DataVinci, CleaningSystem};
//! use datavinci_table::{Column, Table};
//!
//! let table = Table::new(vec![
//!     Column::from_texts("Quarter", &["Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002", "Q32001"]),
//! ]);
//! let dv = DataVinci::new();
//! let report = dv.clean_column(&table, 0);
//! assert_eq!(report.repairs[0].repaired, "Q3-2001");
//! ```

pub mod concretize;
pub mod config;
pub mod dtree;
pub mod edit;
pub mod exec_guided;
pub mod features;
pub mod persist;
pub mod pipeline;
pub mod ranker;
pub mod repair_dp;
pub mod session;
pub mod system;

pub use concretize::Concretizer;
pub use config::{DataVinciConfig, RankingMode, RepairStrategy, SemanticMode};
pub use dtree::{learn_weighted, DecisionTree, DtreeConfig};
pub use edit::{AbstractRepair, EditAction, EditProgram, Emit, Slot};
pub use exec_guided::ExecGuidedReport;
pub use features::{FeatureSet, Predicate};
pub use persist::PersistError;
pub use pipeline::{ColumnAnalysis, ColumnReport, DataVinci, TableReport};
pub use ranker::{CandidateProperties, ClosestValues, RankerWeights};
pub use repair_dp::minimal_edit_program;
pub use session::{AnalysisSession, SessionResumeError, SessionSnapshot, SessionStats};
pub use system::{CleaningSystem, Detection, RepairCandidate, RepairSuggestion};
// The session's column-type detections surface semantic-crate types;
// re-exported so engine-layer consumers need not depend on it directly.
pub use datavinci_semantic::{MaskCache, SemanticType, TypeDetection};
