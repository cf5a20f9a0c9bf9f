//! `datavinci-serve`: run the cleaning engine as a long-lived daemon.
//!
//! ```text
//! datavinci-serve --listen 127.0.0.1:7433 [--store DIR] [--store-budget BYTES]
//!                 [--workers N] [--cache-capacity N]
//!                 [--semantics full|limited|none]
//! datavinci-serve --unix /run/datavinci.sock [...]
//! ```
//!
//! Speaks newline-delimited JSON (see the `serve` module docs for the
//! protocol). One engine per tenant lives for the daemon's lifetime, so
//! every client shares its tenant's warm cache; with `--store` each
//! tenant's cache is loaded from disk at first touch and flushed after
//! every clean, making warmth survive daemon restarts too.
//!
//! On successful bind the daemon prints `listening on <address>` to
//! stdout (and flushes), so a supervisor can wait for readiness before
//! pointing clients at it. Send `{"op":"shutdown"}` to stop it.

use std::io::Write;
use std::process::ExitCode;

use datavinci_core::SemanticMode;
use datavinci_engine::{Server, ServerConfig};

const USAGE: &str = "usage: datavinci-serve (--listen HOST:PORT | --unix PATH) \
                     [--store DIR] [--store-budget BYTES] [--workers N] \
                     [--cache-capacity N] [--semantics full|limited|none]";

struct Args {
    listen: Option<String>,
    unix: Option<String>,
    cfg: ServerConfig,
}

/// `Ok(None)` means help was requested.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        listen: None,
        unix: None,
        cfg: ServerConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--listen" => args.listen = Some(value(arg)?),
            "--unix" => args.unix = Some(value(arg)?),
            "--store" => args.cfg.store_dir = Some(value(arg)?.into()),
            "--store-budget" => {
                args.cfg.store_budget = value(arg)?
                    .parse()
                    .map_err(|_| "--store-budget needs a byte count".to_string())?
            }
            "--workers" => {
                args.cfg.workers = value(arg)?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?
            }
            "--cache-capacity" => {
                args.cfg.cache_capacity = value(arg)?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--cache-capacity needs a positive integer".to_string())?
            }
            "--semantics" => {
                args.cfg.semantics = match value(arg)?.as_str() {
                    "full" => SemanticMode::Full,
                    "limited" => SemanticMode::Limited,
                    "none" => SemanticMode::None,
                    other => return Err(format!("unknown --semantics mode: {other}")),
                }
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    match (&args.listen, &args.unix) {
        (None, None) => Err("one of --listen or --unix is required".to_string()),
        (Some(_), Some(_)) => Err("--listen and --unix are mutually exclusive".to_string()),
        _ => Ok(Some(args)),
    }
}

fn run(args: Args) -> Result<(), String> {
    let server = match (&args.listen, &args.unix) {
        (Some(addr), None) => {
            Server::bind_tcp(addr, args.cfg).map_err(|e| format!("cannot listen on {addr}: {e}"))?
        }
        (None, Some(path)) => Server::bind_unix(path, args.cfg)
            .map_err(|e| format!("cannot listen on {path}: {e}"))?,
        _ => unreachable!("parse_args enforces exactly one"),
    };
    println!("listening on {}", server.address());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot write stdout: {e}"))?;
    server.run().map_err(|e| format!("serve: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Some(args)) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
