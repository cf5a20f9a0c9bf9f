//! Golden-snapshot tests: the engine's full report on committed fixture
//! CSVs must stay byte-identical across refactors of the matching spine
//! (NFA → DFA, cache changes, parallelism changes).
//!
//! Each fixture in `tests/fixtures/*.csv` has a checked-in golden JSON in
//! `tests/snapshots/`. The snapshot is a canonical, timing-free rendering
//! of the whole [`TableReport`] — patterns, detections, repairs, and every
//! ranked candidate with its score — so any behavioural drift shows up as
//! a diff, not just changed headline counts.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test report_snapshots
//! ```

use std::path::{Path, PathBuf};

use datavinci::core::TableReport;
use datavinci::engine::json::Json;
use datavinci::engine::{Engine, EngineConfig};
use datavinci::table::io;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Canonical JSON for a table report: everything deterministic, nothing
/// timing- or machine-dependent.
fn canon_report(report: &TableReport) -> Json {
    let columns: Vec<Json> = report
        .columns
        .iter()
        .map(|c| {
            Json::obj()
                .field("col", Json::Int(c.col as i64))
                .field("n_rows", Json::Int(c.n_rows as i64))
                .field(
                    "significant_patterns",
                    Json::Arr(c.significant_patterns.iter().map(Json::str).collect()),
                )
                .field("fire_rate", Json::Num(c.fire_rate()))
                .field(
                    "detections",
                    Json::Arr(
                        c.detections
                            .iter()
                            .map(|d| {
                                Json::obj()
                                    .field("row", Json::Int(d.row as i64))
                                    .field("value", Json::str(&d.value))
                            })
                            .collect(),
                    ),
                )
                .field(
                    "repairs",
                    Json::Arr(
                        c.repairs
                            .iter()
                            .map(|r| {
                                Json::obj()
                                    .field("row", Json::Int(r.row as i64))
                                    .field("original", Json::str(&r.original))
                                    .field("repaired", Json::str(&r.repaired))
                                    .field(
                                        "candidates",
                                        Json::Arr(
                                            r.candidates
                                                .iter()
                                                .map(|cand| {
                                                    Json::obj()
                                                        .field(
                                                            "repaired",
                                                            Json::str(&cand.repaired),
                                                        )
                                                        .field("cost", Json::Int(cand.cost as i64))
                                                        .field("score", Json::Num(cand.score))
                                                        .field(
                                                            "provenance",
                                                            Json::str(&cand.provenance),
                                                        )
                                                })
                                                .collect(),
                                        ),
                                    )
                            })
                            .collect(),
                    ),
                )
        })
        .collect();
    Json::obj().field("columns", Json::Arr(columns))
}

fn check_snapshot(fixture: &str) {
    let csv_path = repo_path(&format!("tests/fixtures/{fixture}.csv"));
    let golden_path = repo_path(&format!("tests/snapshots/{fixture}.json"));

    let text = std::fs::read_to_string(&csv_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", csv_path.display()));
    let table = io::parse_csv(&text).expect("fixture must be rectangular CSV");

    // The engine (parallel, cached) must produce the exact sequential
    // report; snapshotting through it locks both layers at once.
    let engine = Engine::with_config(EngineConfig {
        workers: 2,
        cache: true,
        ..EngineConfig::default()
    });
    let report = engine.clean_table(&table).table_report();
    let rendered = canon_report(&report).render_pretty();

    if std::env::var("UPDATE_SNAPSHOTS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_path.parent().expect("snapshot dir")).expect("mkdir");
        std::fs::write(&golden_path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", golden_path.display()));
        eprintln!("updated {}", golden_path.display());
        return;
    }

    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n(run `UPDATE_SNAPSHOTS=1 cargo test --test \
             report_snapshots` to create it)",
            golden_path.display()
        )
    });
    if rendered != golden {
        let diff_at = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        panic!(
            "snapshot mismatch for {fixture} (first differing line {}):\n  got:  {}\n  want: {}\n\
             \nIf the change is intentional, regenerate with \
             `UPDATE_SNAPSHOTS=1 cargo test --test report_snapshots` and review the diff.",
            diff_at + 1,
            rendered.lines().nth(diff_at).unwrap_or("<eof>"),
            golden.lines().nth(diff_at).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn players_fixture_snapshot() {
    check_snapshot("players");
}

#[test]
fn quarters_fixture_snapshot() {
    check_snapshot("quarters");
}

#[test]
fn cities_fixture_snapshot() {
    check_snapshot("cities");
}

#[test]
fn duplicates_fixture_snapshot() {
    // Duplicate-heavy fixture: repeated erroneous values (usa_837 ×3,
    // Q32001 ×3); the snapshot locks every duplicated row's repair and
    // candidate scores.
    check_snapshot("duplicates");
}
