//! `datavinci-clean`: CSV in → repaired CSV + JSON report out.
//!
//! ```text
//! datavinci-clean input.csv [-o out.csv] [--report report.json]
//!                 [--metrics metrics.json] [--trace]
//!                 [--workers N] [--semantics full|limited|none]
//!                 [--types] [--no-cache] [--quiet]
//! datavinci-clean --follow [input.csv|-] [--chunk-rows N] [--window-rows N]
//!                 [-o out.csv] ...
//! ```
//!
//! Reads a headered CSV, runs the parallel cleaning engine over every
//! sufficiently-textual column, writes the repaired CSV (default:
//! `<input>.cleaned.csv`) and, on request, a JSON report with per-column
//! detections, repairs, timing, cache telemetry, and the table session's
//! reuse stats (feature generations, row-vector sharing, mask-memo hits).
//! `--types` additionally reports each cleaned column's dominant semantic
//! type, detected once per column through the session's type memo.
//!
//! `--metrics` and `--trace` switch structured telemetry on: `--metrics`
//! writes the full metrics report (span tree, counters, gauges, and a
//! latency histogram per pipeline stage) as JSON, `--trace` prints the
//! span tree with per-stage timings and percentages to stderr. Both work
//! in streaming mode too, where `--follow` additionally emits a per-chunk
//! metrics line (rows/s, window residency, compactions) on stderr.
//!
//! `--follow` switches to **streaming** mode: input (a file, or stdin when
//! the input is `-` or omitted) is consumed in chunks of `--chunk-rows`
//! rows, each chunk's repaired rows are emitted as soon as they are cleaned
//! (to `-o` or stdout), and per-chunk repairs are echoed to stderr. The
//! whole file is never held in memory; `--window-rows` additionally bounds
//! how many already-emitted rows are retained as cleaning context. Parse
//! problems are reported with their line number.

use std::io::{Read, Write};
use std::process::ExitCode;

use datavinci_core::{DataVinci, DataVinciConfig, SemanticMode, TypeDetection};
use datavinci_engine::json::Json;
use datavinci_engine::{
    serve, session_stats_json, telemetry_json, ArtifactStore, Engine, EngineConfig, EngineReport,
    StreamCleaner, StreamConfig,
};
use datavinci_table::{io, CsvChunkReader, Table};
use datavinci_telemetry::{self as telemetry, merge_span_lists, render_spans, TaskProfile};

struct Args {
    input: String,
    output: Option<String>,
    report: Option<String>,
    metrics: Option<String>,
    trace: bool,
    workers: usize,
    semantics: SemanticMode,
    types: bool,
    cache: bool,
    quiet: bool,
    follow: bool,
    chunk_rows: usize,
    window_rows: usize,
    store: Option<String>,
    store_budget: u64,
    tenant: String,
    connect: Option<String>,
}

impl Args {
    /// Telemetry is recorded exactly when some sink will consume it.
    fn telemetry(&self) -> bool {
        self.metrics.is_some() || self.trace
    }
}

const USAGE: &str = "usage: datavinci-clean INPUT.csv [-o OUT.csv] [--report REPORT.json] \
                     [--metrics METRICS.json] [--trace] \
                     [--workers N] [--semantics full|limited|none] \
                     [--types] [--no-cache] [--quiet] \
                     [--store DIR] [--store-budget BYTES] [--tenant NAME]\n\
       datavinci-clean --follow [INPUT.csv|-] [--chunk-rows N] [--window-rows N] \
                     [-o OUT.csv] [--metrics METRICS.json] [--trace] [--workers N] \
                     [--semantics ...] [--quiet]\n\
       datavinci-clean --connect ADDR INPUT.csv [-o OUT.csv] [--tenant NAME] [--quiet]";

/// `Ok(None)` means help was requested (print usage, exit 0).
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        input: String::new(),
        output: None,
        report: None,
        metrics: None,
        trace: false,
        workers: 0,
        semantics: SemanticMode::Full,
        types: false,
        cache: true,
        quiet: false,
        follow: false,
        chunk_rows: 256,
        window_rows: 0,
        store: None,
        store_budget: datavinci_engine::DEFAULT_STORE_BUDGET,
        tenant: "default".to_string(),
        connect: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-o" | "--output" => args.output = Some(value(arg)?),
            "--report" => args.report = Some(value(arg)?),
            "--metrics" => args.metrics = Some(value(arg)?),
            "--trace" => args.trace = true,
            "--workers" => {
                args.workers = value(arg)?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?
            }
            "--semantics" => {
                args.semantics = match value(arg)?.as_str() {
                    "full" => SemanticMode::Full,
                    "limited" => SemanticMode::Limited,
                    "none" => SemanticMode::None,
                    other => return Err(format!("unknown --semantics mode: {other}")),
                }
            }
            "--types" => args.types = true,
            "--no-cache" => args.cache = false,
            "--quiet" | "-q" => args.quiet = true,
            "--follow" => args.follow = true,
            "--chunk-rows" => {
                args.chunk_rows = value(arg)?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--chunk-rows needs a positive integer".to_string())?
            }
            "--window-rows" => {
                args.window_rows = value(arg)?
                    .parse()
                    .map_err(|_| "--window-rows needs an integer".to_string())?
            }
            "--store" => args.store = Some(value(arg)?),
            "--store-budget" => {
                args.store_budget = value(arg)?
                    .parse()
                    .map_err(|_| "--store-budget needs a byte count".to_string())?
            }
            "--tenant" => args.tenant = value(arg)?,
            "--connect" => args.connect = Some(value(arg)?),
            "--help" | "-h" => return Ok(None),
            "-" if args.input.is_empty() => args.input = "-".to_string(),
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            other if args.input.is_empty() => args.input = other.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if args.input.is_empty() {
        if args.follow {
            args.input = "-".to_string();
        } else {
            return Err("missing INPUT.csv".to_string());
        }
    }
    if args.input == "-" && !args.follow {
        return Err("stdin input requires --follow".to_string());
    }
    if args.store.is_some() {
        if !args.cache {
            return Err("--store requires the cache (drop --no-cache)".to_string());
        }
        if args.follow {
            return Err("--store is not supported with --follow".to_string());
        }
    }
    if args.connect.is_some() {
        // The daemon owns the engine; local-engine flags have no meaning.
        if args.follow
            || args.store.is_some()
            || args.report.is_some()
            || args.metrics.is_some()
            || args.trace
            || args.types
        {
            return Err("--connect supports only INPUT.csv, -o, --tenant, and --quiet".to_string());
        }
    }
    Ok(Some(args))
}

fn report_json(
    table: &Table,
    report: &EngineReport,
    engine: &Engine,
    wall: std::time::Duration,
    types: &[Option<TypeDetection>],
    profile: Option<&TaskProfile>,
) -> Json {
    let columns = report
        .columns
        .iter()
        .zip(types)
        .map(|(c, detected)| {
            let name = table
                .column(c.report.col)
                .map(|col| col.name().to_string())
                .unwrap_or_default();
            let mut obj = Json::obj()
                .field("col", Json::Int(c.report.col as i64))
                .field("name", Json::str(name))
                .field("n_rows", Json::Int(c.report.n_rows as i64))
                .field(
                    "significant_patterns",
                    Json::Arr(
                        c.report
                            .significant_patterns
                            .iter()
                            .map(Json::str)
                            .collect(),
                    ),
                )
                .field("n_detections", Json::Int(c.report.detections.len() as i64))
                .field(
                    "repairs",
                    Json::Arr(
                        c.report
                            .repairs
                            .iter()
                            .map(|r| {
                                Json::obj()
                                    .field("row", Json::Int(r.row as i64))
                                    .field("original", Json::str(&r.original))
                                    .field("repaired", Json::str(&r.repaired))
                            })
                            .collect(),
                    ),
                )
                .field("cache", Json::str(c.cache.label()))
                .field("elapsed_ms", Json::Num(c.elapsed.as_secs_f64() * 1000.0));
            if let Some(d) = detected {
                obj = obj
                    .field("semantic_type", Json::str(d.semantic_type.name()))
                    .field("type_confidence", Json::Num(d.confidence));
            }
            obj
        })
        .collect();

    let mut root = Json::obj()
        .field("workers", Json::Int(engine.workers() as i64))
        .field("n_rows", Json::Int(table.n_rows() as i64))
        .field("n_cols", Json::Int(table.n_cols() as i64))
        .field("n_detections", Json::Int(report.n_detections() as i64))
        .field("n_repairs", Json::Int(report.n_repairs() as i64))
        .field("elapsed_ms", Json::Num(wall.as_secs_f64() * 1000.0))
        // "session" and "cache" are deprecated aliases: the same numbers now
        // live in the unified metrics schema as session.* and engine.cache.*
        // counters (see the "telemetry" section). Kept for report consumers.
        .field("session", session_stats_json(&report.session))
        .field("columns", Json::Arr(columns));
    if let Some(stats) = engine.cache_stats() {
        root = root.field("cache", stats.to_json());
    }
    if let Some(profile) = profile {
        root = root.field("telemetry", telemetry_json(profile));
    }
    root
}

/// The `--metrics` document: the full telemetry profile plus the slowest
/// columns of the clean (the same ranking the console prints).
fn metrics_doc(profile: &TaskProfile, report: &EngineReport, table: &Table) -> Json {
    telemetry_json(profile).field(
        "slowest_columns",
        Json::Arr(
            report
                .slowest_columns(5)
                .iter()
                .map(|c| {
                    let name = table
                        .column(c.report.col)
                        .map(|col| col.name().to_string())
                        .unwrap_or_default();
                    Json::obj()
                        .field("col", Json::Int(c.report.col as i64))
                        .field("name", Json::str(name))
                        .field("cache", Json::str(c.cache.label()))
                        .field("elapsed_ms", Json::Num(c.elapsed.as_secs_f64() * 1000.0))
                })
                .collect(),
        ),
    )
}

/// Streaming mode: chunked ingestion → per-chunk cleaning → incremental
/// emission. Repaired CSV goes to `-o` (or stdout); repairs echo to stderr.
fn run_follow(args: &Args) -> Result<(), String> {
    let telemetry_on = args.telemetry();
    let mut input: Box<dyn Read> = if args.input == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(
            std::fs::File::open(&args.input)
                .map_err(|e| format!("cannot read {}: {e}", args.input))?,
        )
    };
    let mut output: Box<dyn Write> = match &args.output {
        Some(path) if path != "-" => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?)
        }
        _ => Box::new(std::io::stdout().lock()),
    };

    let mut dv = Some(DataVinci::with_config(DataVinciConfig {
        semantics: args.semantics,
        ..DataVinciConfig::default()
    }));
    let stream_cfg = StreamConfig {
        workers: args.workers,
        window_rows: args.window_rows,
        telemetry: telemetry_on,
    };

    let mut reader = CsvChunkReader::new();
    let mut cleaner: Option<StreamCleaner> = None;
    let mut pending: Vec<Vec<String>> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let started = std::time::Instant::now();
    // Repairs and per-chunk metrics echo through one line-buffered stderr
    // writer, flushed once per chunk: a chunk with hundreds of repairs
    // makes hundreds of write(2) calls otherwise, and interleaves badly
    // with the consumer of the CSV stream.
    let mut err = std::io::BufWriter::new(std::io::stderr());
    // The span trees of every chunk's clean, merged (same stage names fold
    // together); cumulative counters live on the engine's registry.
    let mut spans: Vec<datavinci_telemetry::SpanNode> = Vec::new();

    let emit = |cleaner: &mut Option<StreamCleaner>,
                pending: &mut Vec<Vec<String>>,
                output: &mut Box<dyn Write>,
                err: &mut std::io::BufWriter<std::io::Stderr>,
                spans: &mut Vec<datavinci_telemetry::SpanNode>|
     -> Result<(), String> {
        let cleaner = cleaner.as_mut().expect("header before rows");
        let outcome = cleaner.push_rows(pending);
        pending.clear();
        output
            .write_all(outcome.csv.as_bytes())
            .and_then(|()| output.flush())
            .map_err(|e| format!("cannot write output: {e}"))?;
        if let Some(profile) = &outcome.report.telemetry {
            merge_span_lists(spans, &profile.spans);
        }
        if !args.quiet {
            for r in &outcome.repairs {
                writeln!(
                    err,
                    "row {}, col {}: {:?} -> {:?}",
                    r.row, r.col, r.original, r.repaired
                )
                .map_err(|e| format!("cannot write stderr: {e}"))?;
            }
            if telemetry_on {
                let secs = outcome.elapsed.as_secs_f64();
                let rows_per_s = if secs > 0.0 {
                    outcome.n_rows as f64 / secs
                } else {
                    0.0
                };
                writeln!(
                    err,
                    "chunk @{}: {} rows · {} repairs · {:.0} rows/s · {} resident · \
                     {} compaction(s) · {:.1} ms",
                    outcome.first_row,
                    outcome.n_rows,
                    outcome.repairs.len(),
                    rows_per_s,
                    cleaner.resident_rows(),
                    cleaner.compactions(),
                    secs * 1000.0,
                )
                .map_err(|e| format!("cannot write stderr: {e}"))?;
            }
            err.flush()
                .map_err(|e| format!("cannot write stderr: {e}"))?;
        }
        Ok(())
    };

    loop {
        let n = input
            .read(&mut buf)
            .map_err(|e| format!("cannot read {}: {e}", args.input))?;
        let rows = if n == 0 {
            reader.finish()
        } else {
            reader.push(&buf[..n])
        }
        .map_err(|e| format!("{}: {e}", args.input))?;

        if cleaner.is_none() {
            if let Some(header) = reader.header() {
                let c =
                    StreamCleaner::with_system(dv.take().expect("one header"), header, stream_cfg);
                output
                    .write_all(c.csv_header().as_bytes())
                    .map_err(|e| format!("cannot write output: {e}"))?;
                cleaner = Some(c);
            }
        }
        pending.extend(rows);
        while pending.len() >= args.chunk_rows {
            let rest = pending.split_off(args.chunk_rows);
            let mut chunk = std::mem::replace(&mut pending, rest);
            emit(&mut cleaner, &mut chunk, &mut output, &mut err, &mut spans)?;
        }
        if n == 0 {
            if !pending.is_empty() {
                emit(
                    &mut cleaner,
                    &mut pending,
                    &mut output,
                    &mut err,
                    &mut spans,
                )?;
            }
            break;
        }
    }
    let Some(cleaner) = cleaner else {
        return Err(format!("{}: missing header record", args.input));
    };

    if telemetry_on {
        // Per-chunk frames were absorbed into the engine's registry as the
        // stream ran; the merged span trees ride alongside.
        let profile = TaskProfile {
            spans,
            metrics: cleaner.engine().metrics().snapshot(),
        };
        if let Some(metrics_path) = &args.metrics {
            std::fs::write(metrics_path, telemetry_json(&profile).render_pretty())
                .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
        }
        if args.trace {
            write!(err, "{}", render_spans(&profile.spans))
                .map_err(|e| format!("cannot write stderr: {e}"))?;
        }
    }
    if !args.quiet {
        writeln!(
            err,
            "{}: streamed {} rows · {} repairs · {} window compaction(s) · {:.1} ms",
            args.input,
            cleaner.n_rows(),
            cleaner.n_repairs(),
            cleaner.compactions(),
            started.elapsed().as_secs_f64() * 1000.0,
        )
        .map_err(|e| format!("cannot write stderr: {e}"))?;
        if let Some(stats) = cleaner.engine().cache_stats() {
            writeln!(
                err,
                "cache: {} session resume(s) · {} append hits · {} append fallbacks · {} misses",
                stats.session_resumes, stats.append_hits, stats.append_fallbacks, stats.misses,
            )
            .map_err(|e| format!("cannot write stderr: {e}"))?;
        }
    }
    err.flush()
        .map_err(|e| format!("cannot write stderr: {e}"))?;
    Ok(())
}

/// Client mode: ship the CSV to a running `datavinci-serve` daemon and
/// write back the repaired CSV it returns. Output is byte-identical to
/// local batch mode on the same input — the daemon runs the same engine.
fn run_connect(args: &Args, address: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let started = std::time::Instant::now();
    let request = Json::obj()
        .field("op", Json::str("clean"))
        .field("tenant", Json::str(&args.tenant))
        .field("csv", Json::str(text));
    let response = serve::roundtrip(address, &request)?;
    if response.get("ok") != Some(&Json::Bool(true)) {
        let error = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error");
        return Err(format!("{address}: {error}"));
    }
    let csv = response
        .get("csv")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{address}: response has no csv field"))?;
    let out_path = args
        .output
        .clone()
        .unwrap_or_else(|| match args.input.strip_suffix(".csv") {
            Some(stem) => format!("{stem}.cleaned.csv"),
            None => format!("{}.cleaned.csv", args.input),
        });
    std::fs::write(&out_path, csv).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    if !args.quiet {
        let count = |key: &str| response.get(key).and_then(Json::as_i64).unwrap_or(0);
        println!(
            "{} via {address}: {} rows × {} cols · {} detections · {} repairs · \
             {} cache hit(s) · {:.1} ms",
            args.input,
            count("n_rows"),
            count("n_cols"),
            count("n_detections"),
            count("n_repairs"),
            count("cache_hits"),
            started.elapsed().as_secs_f64() * 1000.0,
        );
        println!("wrote {out_path}");
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let telemetry_on = args.telemetry();
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input))?;
    // Ingest telemetry (parse span, byte/row counters) records into its own
    // profile; the engine's rides on the report. Merged below.
    let (parsed, ingest_profile) = telemetry::collect(telemetry_on, || io::parse_csv(&text));
    let table = parsed.map_err(|e| format!("{}: {e}", args.input))?;

    let dv = DataVinci::with_config(DataVinciConfig {
        semantics: args.semantics,
        ..DataVinciConfig::default()
    });
    let mut engine = Engine::with_system(
        dv,
        EngineConfig {
            workers: args.workers,
            cache: args.cache,
            telemetry: telemetry_on,
            ..EngineConfig::default()
        },
    );
    // A failing store is a hard error, not a silent cold start: the caller
    // asked for durability and must find out when they aren't getting it.
    let mut loaded = None;
    if let Some(dir) = &args.store {
        let store = ArtifactStore::open_with_budget(dir, &args.tenant, args.store_budget)
            .map_err(|e| e.to_string())?;
        loaded = Some(engine.attach_store(store).map_err(|e| e.to_string())?);
    }
    let engine = engine;
    let started = std::time::Instant::now();
    let report = engine.clean_table(&table);
    let wall = started.elapsed();
    let flushed = engine.flush_store().map_err(|e| e.to_string())?;
    let repaired = Engine::apply(&table, &report.table_report());

    let profile = telemetry_on.then(|| {
        let mut profile = ingest_profile.unwrap_or_default();
        if let Some(engine_profile) = &report.telemetry {
            profile.merge(engine_profile);
        }
        profile
            .metrics
            .set_gauge("cli.wall_ms", wall.as_secs_f64() * 1000.0);
        profile
    });

    // --types: one detection per cleaned column through the session's
    // column-type memo (the values are shared, the gazetteer sweep runs once
    // per column even though the JSON and console both read the verdict).
    let types: Vec<Option<TypeDetection>> = if args.types {
        let dv = engine.system();
        let session = dv.session(&table);
        report
            .columns
            .iter()
            .map(|c| dv.column_type_in(&session, c.report.col, 0.5))
            .collect()
    } else {
        vec![None; report.columns.len()]
    };

    let out_path = args.output.clone().unwrap_or_else(|| {
        // Strip one `.csv` suffix at most: `data.csv.csv` becomes
        // `data.csv.cleaned.csv`, an extensionless `data` becomes
        // `data.cleaned.csv`.
        match args.input.strip_suffix(".csv") {
            Some(stem) => format!("{stem}.cleaned.csv"),
            None => format!("{}.cleaned.csv", args.input),
        }
    });
    std::fs::write(&out_path, io::to_csv(&repaired))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;

    if let Some(report_path) = &args.report {
        let json =
            report_json(&table, &report, &engine, wall, &types, profile.as_ref()).render_pretty();
        std::fs::write(report_path, json)
            .map_err(|e| format!("cannot write {report_path}: {e}"))?;
    }
    if let Some(metrics_path) = &args.metrics {
        let profile = profile.as_ref().expect("telemetry on when --metrics set");
        std::fs::write(
            metrics_path,
            metrics_doc(profile, &report, &table).render_pretty(),
        )
        .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
    }
    if args.trace {
        let profile = profile.as_ref().expect("telemetry on when --trace set");
        eprint!("{}", render_spans(&profile.spans));
    }

    if !args.quiet {
        println!(
            "{}: {} rows × {} cols · {} workers · {} detections · {} repairs · {:.1} ms",
            args.input,
            table.n_rows(),
            table.n_cols(),
            engine.workers(),
            report.n_detections(),
            report.n_repairs(),
            wall.as_secs_f64() * 1000.0,
        );
        for (c, detected) in report.columns.iter().zip(&types) {
            let name = table
                .column(c.report.col)
                .map(|col| col.name().to_string())
                .unwrap_or_default();
            if let Some(d) = detected {
                println!(
                    "  {name}: semantic type {} ({:.0}% support)",
                    d.semantic_type.name(),
                    d.confidence * 100.0
                );
            }
            for r in &c.report.repairs {
                println!("  {name}[{}]: {:?} -> {:?}", r.row, r.original, r.repaired);
            }
        }
        let s = &report.session;
        println!(
            "session: {} feature generation(s) · {} distinct rows in the feature store · \
             {}/{} distinct rows · mask memo {} hits / {} misses",
            s.feature_generations,
            s.feature_rows_computed,
            s.distinct_rows,
            s.table_rows,
            s.mask_cache_hits,
            s.mask_cache_misses,
        );
        if report.columns.len() > 1 {
            let ranked: Vec<String> = report
                .slowest_columns(3)
                .iter()
                .map(|c| {
                    let name = table
                        .column(c.report.col)
                        .map(|col| col.name().to_string())
                        .unwrap_or_default();
                    format!("{name} {:.1} ms", c.elapsed.as_secs_f64() * 1000.0)
                })
                .collect();
            println!("slowest columns: {}", ranked.join(" · "));
        }
        if let (Some(loaded), Some(flushed)) = (&loaded, &flushed) {
            println!(
                "store[{}]: warmed {} artifact(s) ({} skipped) · \
                 flushed {} record(s), {} bytes ({} evicted)",
                args.tenant,
                loaded.total(),
                loaded.skipped,
                flushed.records,
                flushed.bytes,
                flushed.evicted,
            );
        }
        println!("wrote {out_path}");
        if let Some(report_path) = &args.report {
            println!("wrote {report_path}");
        }
        if let Some(metrics_path) = &args.metrics {
            println!("wrote {metrics_path}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(address) = args.connect.clone() {
        run_connect(&args, &address)
    } else if args.follow {
        run_follow(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
