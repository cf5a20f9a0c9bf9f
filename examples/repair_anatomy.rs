//! Anatomy of one repair (paper §3.3, Figure 4 and Example 2–4).
//!
//! Shows the machinery under a single repair: the learned pattern, its
//! unrolled DAG for the erroneous value, the minimal abstract edit program
//! found by the dynamic program, and the concretized candidates.
//!
//! Run with: `cargo run --example repair_anatomy`

use datavinci::core::{minimal_edit_program, AnalysisSession, Concretizer, DataVinciConfig};
use datavinci::profile::{profile_plain, MaskedPool, ProfilerConfig};
use datavinci::regex::MaskedString;
use datavinci::table::{Column, Table};

fn main() {
    // Figure 4's column: five rows match (A[0-9].)+, one outlier AAA3.
    let values = vec!["A2.", "A2.A3.", "A5.A7.", "A1.A2.A3.", "A9.", "AAA3"];
    let table = Table::new(vec![Column::from_texts("c", &values)]);

    let profile = profile_plain(&values, &ProfilerConfig::default());
    println!("learned patterns:");
    for lp in &profile.patterns {
        println!("  {}  (coverage {:.0}%)", lp.pattern, lp.coverage * 100.0);
    }
    let significant = &profile.patterns[0];
    assert_eq!(significant.pattern.to_string(), "(A[0-9].)+");

    // The outlier and its value-specific unrolled DAG.
    let outlier = MaskedString::from_plain("AAA3");
    let dag = significant.compiled.dag_for_len(outlier.len());
    println!(
        "\nunrolled DAG for |v|=4: {} nodes, {} edges (cycle length 3 → ⌈4/3⌉ = 2 copies)",
        dag.topo.len(),
        dag.edges.len()
    );

    // The minimal abstract edit program (Equation 1).
    let program = minimal_edit_program(&dag, &outlier).expect("repairable");
    println!(
        "minimal edit program: {} with cost {}",
        program.shorthand(),
        program.cost
    );

    // Concretization via learned value constraints (§3.4). The concretizer
    // reads the table-wide feature context from a shared analysis session
    // (one per table clean; here a standalone one).
    let cfg = DataVinciConfig::default();
    let session = AnalysisSession::new(&table);
    let mut concretizer = Concretizer::new(&session, &cfg);
    concretizer.train_pattern(0, significant, &significant.rows, &masked(&values));
    let abstract_repair = program.apply(&outlier);
    println!(
        "abstract repair has {} hole(s) to concretize",
        abstract_repair.fillable_holes().len()
    );
    for fillers in concretizer.fillers(0, 5, &abstract_repair) {
        let repaired = abstract_repair.fill(&fillers);
        println!("candidate repair: {repaired}");
        assert!(
            significant.compiled.matches(&repaired),
            "must be in-language"
        );
    }
    println!("\n✓ every candidate lands in the significant pattern's language");
}

fn masked(values: &[&str]) -> MaskedPool {
    let rows: Vec<MaskedString> = values.iter().map(|v| MaskedString::from_plain(v)).collect();
    MaskedPool::new(&rows)
}
