//! DataVinci configuration, including the ablation switches of paper §5.4.

use crate::dtree::DtreeConfig;
use crate::ranker::RankerWeights;
use datavinci_profile::ProfilerConfig;

/// How semantic abstraction is applied (§3.2 / ablations §5.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticMode {
    /// Full abstraction with in-mask repair (default DataVinci).
    Full,
    /// Abstraction without in-mask repair: masked substrings are re-used
    /// verbatim ("Limited semantic concretization").
    Limited,
    /// No abstraction: all strings treated as purely syntactic
    /// ("No semantic abstraction").
    None,
}

/// Candidate ranking strategy (§3.5 / ablation §5.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingMode {
    /// The four-property weighted heuristic ranker (default).
    Heuristic,
    /// Shortest-edit-distance-only ranking ("Edit distance ranking").
    EditDistance,
}

/// How the repair phase iterates over detected error rows. Repair runs
/// once per error row, so the one variant has no effect; it remains only
/// because the benchmark harness (`perfbench/`) still sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairStrategy {
    /// The per-row repair loop (the only one).
    #[default]
    RowWise,
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct DataVinciConfig {
    /// Significance threshold δ: a pattern is significant when it covers at
    /// least this fraction of column values (§3.1).
    pub delta: f64,
    /// Pattern-profiler configuration (FlashProfile stand-in).
    pub profiler: ProfilerConfig,
    /// Semantic abstraction mode.
    pub semantics: SemanticMode,
    /// Learn concretization constraints (§3.4); when false, candidates are
    /// enumerated and ranked directly ("No learned concretization").
    pub learned_concretization: bool,
    /// Ranking strategy.
    pub ranking: RankingMode,
    /// Repair execution strategy. Has no effect: repair always runs once
    /// per error row.
    pub repair_strategy: RepairStrategy,
    /// Heuristic ranker weights.
    pub weights: RankerWeights,
    /// Decision-tree learner configuration.
    pub dtree: DtreeConfig,
    /// Cap on enumerated candidates per error when concretization
    /// constraints are disabled.
    pub max_enumerated_candidates: usize,
    /// In execution-guided mode, validate candidate repairs by re-executing
    /// the program and prefer the first that succeeds.
    pub validate_execution: bool,
    /// Minimum fraction of text cells for a column to be cleaned at all.
    pub min_text_fraction: f64,
    /// Bound on the semantic per-value mask memo
    /// ([`datavinci_semantic::MaskCache`]) the abstraction model keeps and
    /// analysis sessions share. The engine-side artifact-cache bound lives
    /// on `datavinci_engine::EngineConfig::cache_capacity` — together the
    /// two knobs are the whole cache-capacity surface.
    pub mask_cache_capacity: usize,
}

impl Default for DataVinciConfig {
    fn default() -> Self {
        DataVinciConfig {
            delta: 0.25,
            profiler: ProfilerConfig::default(),
            semantics: SemanticMode::Full,
            learned_concretization: true,
            ranking: RankingMode::Heuristic,
            repair_strategy: RepairStrategy::default(),
            weights: RankerWeights::default(),
            dtree: DtreeConfig::default(),
            max_enumerated_candidates: 16,
            validate_execution: true,
            min_text_fraction: 0.5,
            mask_cache_capacity: datavinci_semantic::DEFAULT_MASK_CACHE_CAPACITY,
        }
    }
}

impl DataVinciConfig {
    /// The "No semantic abstraction" ablation (§5.4.1).
    pub fn ablation_no_semantics() -> Self {
        DataVinciConfig {
            semantics: SemanticMode::None,
            ..Default::default()
        }
    }

    /// The "Limited semantic concretization" ablation (§5.4.1).
    pub fn ablation_limited_semantics() -> Self {
        DataVinciConfig {
            semantics: SemanticMode::Limited,
            ..Default::default()
        }
    }

    /// The "No learned concretization" ablation (§5.4.2).
    pub fn ablation_no_learned_concretization() -> Self {
        DataVinciConfig {
            learned_concretization: false,
            ..Default::default()
        }
    }

    /// The "Edit distance ranking" ablation (§5.4.2).
    pub fn ablation_edit_distance_ranking() -> Self {
        DataVinciConfig {
            ranking: RankingMode::EditDistance,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = DataVinciConfig::default();
        assert_eq!(cfg.semantics, SemanticMode::Full);
        assert!(cfg.learned_concretization);
        assert_eq!(cfg.ranking, RankingMode::Heuristic);
        assert!((cfg.dtree.alpha - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ablations_flip_one_switch_each() {
        assert_eq!(
            DataVinciConfig::ablation_no_semantics().semantics,
            SemanticMode::None
        );
        assert_eq!(
            DataVinciConfig::ablation_limited_semantics().semantics,
            SemanticMode::Limited
        );
        assert!(!DataVinciConfig::ablation_no_learned_concretization().learned_concretization);
        assert_eq!(
            DataVinciConfig::ablation_edit_distance_ranking().ranking,
            RankingMode::EditDistance
        );
    }
}
