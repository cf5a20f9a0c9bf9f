//! Smoke test for the `datavinci-clean` CLI: fixture CSV in → repaired CSV
//! + JSON report out, exercised through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn run_cli(args: &[&str]) -> std::process::Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut command = Command::new(cargo);
    command
        .args(["run", "--quiet", "--bin", "datavinci-clean", "--offline"])
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    if !cfg!(debug_assertions) {
        command.arg("--release");
    }
    command.arg("--");
    command.args(args);
    command.output().expect("spawn datavinci-clean")
}

#[test]
fn cleans_fixture_csv_and_writes_report() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/players.csv");
    let dir = std::env::temp_dir().join("datavinci-clean-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let out_csv = dir.join("players.cleaned.csv");
    let out_json = dir.join("players.report.json");

    let output = run_cli(&[
        fixture.to_str().unwrap(),
        "-o",
        out_csv.to_str().unwrap(),
        "--report",
        out_json.to_str().unwrap(),
        "--workers",
        "2",
        "--types",
    ]);
    assert!(
        output.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    // Figure 2's flagship repair must land in the CSV…
    let csv = std::fs::read_to_string(&out_csv).unwrap();
    assert!(csv.contains("US-837-PRO"), "{csv}");
    assert!(!csv.contains("usa_837"), "{csv}");
    // …and the §3.2 quarter repair too.
    assert!(csv.contains("Q3-2001"), "{csv}");

    // The JSON report records repairs, cache telemetry, the session's
    // reuse stats (exactly one FeatureSet generation for the table), and
    // the --types detections.
    let json = std::fs::read_to_string(&out_json).unwrap();
    assert!(json.contains("\"repaired\": \"US-837-PRO\""), "{json}");
    assert!(json.contains("\"workers\": 2"), "{json}");
    assert!(json.contains("\"cache\""), "{json}");
    assert!(json.contains("\"feature_generations\": 1"), "{json}");
    assert!(json.contains("\"semantic_type\": \"country\""), "{json}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejects_missing_input_with_usage() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/players.csv");
    // No input at all, and an otherwise valid run with an unknown flag.
    for args in [
        vec![],
        vec![fixture.to_str().unwrap(), "--strategy", "planner"],
    ] {
        let output = run_cli(&args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("usage: datavinci-clean"),
            "{args:?}: {stderr}"
        );
    }
}
