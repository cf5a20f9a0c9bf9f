//! Runs one benchmark workload and prints its result as the last line of
//! standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 1` the run reports the per-layer metrics instead of the
//! end-to-end ones and writes its span tree under `perfbench/out/`.

use std::process::ExitCode;

use datavinci_perfbench::{run, RunConfig, Size};

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 20.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => config.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args.workload, &args.config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &outcome.spans {
        let path = format!(
            "perfbench/out/{}-seed{}.spans.txt",
            args.workload, args.config.seed
        );
        let written =
            std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, spans));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    println!(
        "digest workload={} seed={} inputs={:016x} outputs={:016x}",
        args.workload, args.config.seed, outcome.input_digest, outcome.output_digest
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
