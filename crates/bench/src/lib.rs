//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4–§5).
//!
//! * [`metrics`] — detection precision/recall/F1, fire rate, certain/
//!   possible repair precision, repair-given-detection.
//! * [`runner`] — builds all systems with their training context and runs
//!   them over the four benchmarks; the Table-8 execution protocol.
//!
//! One binary per paper artifact: `table3` … `table10`, `fig7`. Each prints
//! the measured values next to the paper's, and accepts `--smoke`
//! (tiny), default (medium), or `--full` (paper-scale) sizing plus
//! `--seed N`. EXPERIMENTS.md records a reference run.

pub mod alloc_meter;
pub mod metrics;
pub mod report;
pub mod runner;

pub use metrics::{truth_rows, DetectionCounts, RepairCounts};
pub use runner::{ExecMode, ExecOutcome, Harness, SystemKind};

/// Shared CLI parsing for the table binaries.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Benchmark scale.
    pub scale: datavinci_corpus::Scale,
    /// Evaluation seed (`--seed N`, default 2024).
    pub seed: u64,
    /// Smoke-scale run?
    pub smoke: bool,
    /// Paper-scale run?
    pub full: bool,
}

/// The seeded noisy PlayerWithCategory+Quarter table behind the
/// `profile_200_row_column` / `clean_column_end_to_end` micro-benches and
/// the release-only gate tests — one definition, so every harness
/// measures the same workload.
pub fn sample_noisy_table(seed: u64, rows: usize) -> datavinci_table::Table {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let spec = datavinci_corpus::TableSpec::new(
        rows,
        vec![
            datavinci_corpus::Flavor::PlayerWithCategory,
            datavinci_corpus::Flavor::Quarter,
        ],
    );
    let clean = spec.generate(&mut rng);
    let noise = datavinci_corpus::NoiseModel { cell_prob: 0.1 };
    let (dirty, _) = noise.corrupt_table(&mut rng, &clean);
    dirty
}

impl Cli {
    /// Parses `--smoke`, `--full`, `--seed N` from `std::env::args`; on a
    /// bad `--seed` prints the error and exits with status 2.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::from_args(&args).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            eprintln!("usage: [--smoke | --full] [--seed N]");
            std::process::exit(2)
        })
    }

    /// Parses the arguments after the program name. A `--seed` without an
    /// unsigned integer after it is an error rather than the default seed,
    /// so a run is never labelled with a seed it did not use.
    pub fn from_args(args: &[String]) -> Result<Cli, String> {
        let mut scale = datavinci_corpus::Scale {
            n_tables: 60,
            row_divisor: 2,
        };
        let mut full = false;
        let smoke = args.iter().any(|a| a == "--smoke");
        if smoke {
            scale = datavinci_corpus::Scale::smoke();
        }
        if args.iter().any(|a| a == "--full") {
            scale = datavinci_corpus::Scale::paper();
            full = true;
        }
        let seed = match args.iter().position(|a| a == "--seed") {
            None => 2024,
            Some(i) => {
                let value = args.get(i + 1).ok_or("--seed needs a value")?;
                value
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got {value:?}"))?
            }
        };
        Ok(Cli {
            scale,
            seed,
            smoke,
            full,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::Cli;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::from_args(&args)
    }

    #[test]
    fn seed_flag_is_parsed_rejected_or_defaulted() {
        // A valid seed is used as given.
        let explicit = cli(&["--smoke", "--seed", "7"]).expect("valid seed");
        assert_eq!(explicit.seed, 7);
        assert!(explicit.smoke);

        // A missing or non-numeric seed is an error, not the default.
        for bad in [&["--seed"][..], &["--seed", "abc"], &["--seed", "-1"]] {
            let err = cli(bad).expect_err("bad seed must be rejected");
            assert!(err.contains("--seed"), "{bad:?}: {err}");
        }

        // No flag at all keeps the 2024 default.
        assert_eq!(cli(&[]).expect("no flags").seed, 2024);
        assert_eq!(cli(&["--full"]).expect("full").seed, 2024);
    }
}
