//! Every workload at a tiny size: two traced runs with one seed repeat
//! their counts and digests exactly, another seed changes the inputs, and
//! the metric names match `BENCHMARK.json`.

use datavinci_engine::json::Json;
use datavinci_perfbench::{run, Outcome, RunConfig, Size, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

fn run_ok(workload: &str, cfg: RunConfig) -> Outcome {
    let outcome = run(workload, &cfg).expect("workload runs");
    assert!(
        outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
        "{workload} {cfg:?}: {}",
        outcome.to_json()
    );
    outcome
}

/// The metrics that must repeat exactly: counts and ratios of counts.
fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "ratio")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn one_seed_repeats_counts_and_digests() {
    for workload in WORKLOADS {
        let a = run_ok(workload, tiny(7, true));
        let b = run_ok(workload, tiny(7, true));
        assert_eq!(a.input_digest, b.input_digest, "{workload}");
        assert_eq!(a.output_digest, b.output_digest, "{workload}");
        assert_eq!(counts(&a), counts(&b), "{workload}");
        assert!(
            a.metric("profile.values_scored").unwrap() > 0.0,
            "{workload}"
        );

        let other = run_ok(workload, tiny(8, true));
        assert_ne!(a.input_digest, other.input_digest, "{workload}");
    }
}

fn names(section: &Json) -> Vec<String> {
    let Json::Arr(items) = section else {
        panic!("expected an array, got {}", section.render())
    };
    items
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn runs_report_the_metrics_benchmark_json_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let end_to_end = names(bench.get("end_to_end").unwrap());
    let per_layer = names(bench.get("per_layer").unwrap());
    assert_eq!(
        names(bench.get("workloads").unwrap()),
        WORKLOADS.map(String::from)
    );
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = run_ok(workload, tiny(3, trace));
            let mut reported: Vec<String> =
                outcome.metrics.iter().map(|m| m.name.to_string()).collect();
            let mut expected = expected.clone();
            reported.sort();
            expected.sort();
            assert_eq!(reported, expected, "{workload} trace={trace}");
            // Quality can be 0 on tiny inputs; times and sizes never are.
            for m in outcome.metrics.iter().filter(|m| !trace && m.unit != "%") {
                assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
            }
        }
    }
}
