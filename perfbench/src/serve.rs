//! `serve_warm`: one closed-loop client against an in-process
//! `datavinci-serve` daemon (Unix socket, one worker, no store) whose cache
//! is warm.
//!
//! After warm-up, three of every four requests repeat a cached base table
//! (report-cache reads that bypass the learning layers) and the fourth
//! sends that base table plus a fresh ~2% tail of rows, which takes the
//! append path and writes to the cache. Each cycle of four requests moves
//! to the next base table. The median latency therefore
//! tracks the read path (ingest, JSON, cache, transport) and the 90th
//! percentile the append path.
//!
//! The daemon runs its engines with telemetry off, so the traced run
//! replays the daemon's public steps in-process on the same requests.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use datavinci_core::{DataVinci, DataVinciConfig, TableReport};
use datavinci_corpus::{Flavor, NoiseModel, TableSpec};
use datavinci_engine::json::Json;
use datavinci_engine::serve::roundtrip;
use datavinci_engine::{Engine, EngineConfig, Server, ServerConfig};
use datavinci_table::{io, CellRef, Column, Table};
use datavinci_telemetry::{self as telemetry, TaskProfile};

use crate::trace::{self, cache_delta, counter_delta, Counts, LayerTimes};
use crate::{
    digest, end_to_end, guarded, millis, timed_setup, Outcome, Pacer, Quality, RunConfig, Size,
    Tally,
};

/// Requests per cycle: three base reads, then one append.
const CYCLE: usize = 4;

/// The base tables' shape. All bases share it and their row count, so
/// read latencies form one cluster and the median sits inside it; several
/// bases average out how the seed's values sway the append cost.
const SHAPE: [Flavor; 3] = [Flavor::CountyId, Flavor::Status, Flavor::Time];

struct Sizes {
    bases: usize,
    base_rows: usize,
    tail_rows: usize,
    /// Cycles every run completes. They are the counted stretch of the
    /// traced run and give the 90th percentile ten samples above it.
    min_cycles: u32,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            bases: 12,
            base_rows: 1000,
            tail_rows: 20,
            min_cycles: 25,
        },
        Size::Tiny => Sizes {
            bases: 2,
            base_rows: 60,
            tail_rows: 3,
            min_cycles: 2,
        },
    }
}

/// A generated table with its ground truth.
#[derive(Clone)]
struct Generated {
    dirty: Table,
    clean: Table,
    corrupted: Vec<CellRef>,
}

fn generate(spec: &TableSpec, rng: &mut StdRng) -> Generated {
    let clean = spec.generate(rng);
    let (dirty, corrupted) = NoiseModel { cell_prob: 0.02 }.corrupt_table(rng, &clean);
    Generated {
        dirty,
        clean,
        corrupted,
    }
}

/// `head`'s rows followed by `tail`'s, under `head`'s headers.
fn concat(head: &Table, tail: &Table) -> Table {
    Table::new(
        head.columns()
            .iter()
            .zip(tail.columns())
            .map(|(h, t)| {
                let mut values = h.values().to_vec();
                values.extend_from_slice(t.values());
                Column::new(h.name(), values)
            })
            .collect(),
    )
}

fn clean_request(table: &Table) -> Json {
    Json::obj()
        .field("op", Json::str("clean"))
        .field("csv", Json::str(io::to_csv(table)))
}

/// The generated traffic: the base tables and the request stream over
/// them.
struct Traffic {
    seed: u64,
    sizes: Sizes,
    bases: Vec<Generated>,
    base_requests: Vec<Json>,
}

impl Traffic {
    fn new(seed: u64, size: Size) -> Traffic {
        let sizes = sizes(size);
        let spec = TableSpec::new(sizes.base_rows, SHAPE.to_vec());
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<Generated> = (0..sizes.bases)
            .map(|_| generate(&spec, &mut rng))
            .collect();
        let base_requests = bases.iter().map(|b| clean_request(&b.dirty)).collect();
        Traffic {
            seed,
            sizes,
            bases,
            base_requests,
        }
    }

    /// The base table request `i` reads or appends to.
    fn base_of(&self, i: usize) -> usize {
        (i / CYCLE) % self.bases.len()
    }

    /// The table request `i` of the stream carries.
    fn table(&self, i: usize) -> Cow<'_, Generated> {
        let base = &self.bases[self.base_of(i)];
        if i % CYCLE != CYCLE - 1 {
            return Cow::Borrowed(base);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        let tail = generate(
            &TableSpec::new(self.sizes.tail_rows, SHAPE.to_vec()),
            &mut rng,
        );
        let offset = base.dirty.n_rows();
        Cow::Owned(Generated {
            dirty: concat(&base.dirty, &tail.dirty),
            clean: concat(&base.clean, &tail.clean),
            corrupted: base
                .corrupted
                .iter()
                .copied()
                .chain(
                    tail.corrupted
                        .iter()
                        .map(|c| CellRef::new(c.col, c.row + offset)),
                )
                .collect(),
        })
    }

    /// Request `i` of the stream and the rows it carries.
    fn request(&self, i: usize) -> (Json, usize) {
        match self.table(i) {
            Cow::Borrowed(base) => (
                self.base_requests[self.base_of(i)].clone(),
                base.dirty.n_rows(),
            ),
            Cow::Owned(grown) => (clean_request(&grown.dirty), grown.dirty.n_rows()),
        }
    }
}

/// A daemon on a Unix socket in the working directory, served from its own
/// thread and shut down on drop.
struct Daemon {
    address: String,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        // Unique per daemon: tests run workloads on parallel threads.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let k = STARTED.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(format!(".perfbench-{}-{k}.sock", std::process::id()));
        let cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind_unix(&path, cfg).map_err(|e| format!("bind {path:?}: {e}"))?;
        let address = server.address();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            address,
            thread: Some(thread),
        })
    }

    /// The daemon's `serve.requests` and `serve.errors` counters.
    fn request_counters(&self) -> Result<(u64, u64), String> {
        let stats = roundtrip(&self.address, &Json::obj().field("op", Json::str("stats")))?;
        let counter = |name: &str| {
            stats
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(Json::as_i64)
                .unwrap_or(0) as u64
        };
        Ok((counter("serve.requests"), counter("serve.errors")))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let shutdown = Json::obj().field("op", Json::str("shutdown"));
        if roundtrip(&self.address, &shutdown).is_err() {
            eprintln!("daemon at {} did not answer shutdown", self.address);
        }
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("daemon exited with {e}"),
                Err(_) => eprintln!("daemon thread panicked"),
            }
        }
    }
}

/// One exchange as the client saw it.
struct Exchange {
    request: Json,
    rows: usize,
    rt_ms: f64,
    /// Digest of the rendered response; `None` when the exchange failed.
    response: Option<u64>,
}

fn exchange(address: &str, request: Json, rows: usize) -> Exchange {
    let started = Instant::now();
    let result = guarded(|| roundtrip(address, &request));
    let rt_ms = millis(started.elapsed());
    let response = match result {
        Some(Ok(json)) if json.get("ok") == Some(&Json::Bool(true)) => {
            Some(digest([json.render().as_bytes()]))
        }
        Some(Ok(json)) => {
            eprintln!("error response: {}", json.render());
            None
        }
        Some(Err(e)) => {
            eprintln!("request failed: {e}");
            None
        }
        None => None,
    };
    Exchange {
        request,
        rows,
        rt_ms,
        response,
    }
}

/// An in-process engine configured like the daemon's per-tenant engines.
fn daemon_engine(telemetry: bool) -> Engine {
    let server = ServerConfig::default();
    let dv = DataVinci::with_config(DataVinciConfig {
        semantics: server.semantics,
        repair_strategy: server.strategy,
        ..DataVinciConfig::default()
    });
    Engine::with_system(
        dv,
        EngineConfig {
            workers: 1,
            cache: true,
            cache_capacity: server.cache_capacity,
            telemetry,
            ..EngineConfig::default()
        },
    )
}

/// The daemon's `clean` handling, step by step, ending with the client's
/// parse of the response. Returns the response digest and the report.
fn replay(engine: &Engine, line: &str) -> Result<(u64, TableReport), String> {
    let request = {
        let _span = telemetry::span("bench.parse_request");
        Json::parse(line).map_err(|e| e.to_string())?
    };
    let csv = request
        .get("csv")
        .and_then(Json::as_str)
        .ok_or("request without csv")?;
    let table = {
        let _span = telemetry::span("bench.parse_csv");
        io::parse_csv(csv).map_err(|e| e.to_string())?
    };
    let report = {
        let _span = telemetry::span("bench.clean_table");
        let report = engine.clean_table(&table);
        if let Some(profile) = &report.telemetry {
            telemetry::absorb(&TaskProfile {
                spans: profile.spans.clone(),
                ..TaskProfile::default()
            });
        }
        report
    };
    let table_report = report.table_report();
    let repaired = {
        let _span = telemetry::span("bench.apply");
        Engine::apply(&table, &table_report)
    };
    let csv_out = {
        let _span = telemetry::span("bench.to_csv");
        io::to_csv(&repaired)
    };
    let rendered = {
        let _span = telemetry::span("bench.render_response");
        Json::obj()
            .field("ok", Json::Bool(true))
            .field("csv", Json::str(csv_out))
            .field("n_rows", Json::Int(table.n_rows() as i64))
            .field("n_cols", Json::Int(table.n_cols() as i64))
            .field("n_detections", Json::Int(report.n_detections() as i64))
            .field("n_repairs", Json::Int(report.n_repairs() as i64))
            .field("cache_hits", Json::Int(report.cache_hits() as i64))
            .render()
    };
    let _span = telemetry::span("bench.parse_response");
    let parsed = Json::parse(&rendered).map_err(|e| e.to_string())?;
    Ok((digest([parsed.render().as_bytes()]), table_report))
}

pub(crate) fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup_error = None;
    let (ready, setup_s) = timed_setup(cfg.setup_repeats(), || {
        let traffic = Traffic::new(cfg.seed, cfg.size);
        let daemon = match Daemon::start() {
            Ok(daemon) => daemon,
            Err(e) => {
                setup_error = Some(e);
                return None;
            }
        };
        let warmup: Vec<Exchange> = traffic
            .base_requests
            .iter()
            .map(|r| exchange(&daemon.address, r.clone(), traffic.sizes.base_rows))
            .collect();
        Some((traffic, daemon, warmup))
    });
    let Some((traffic, daemon, warmup)) = ready else {
        return Err(setup_error.unwrap_or_else(|| "daemon set-up failed".to_string()));
    };

    let mut tally = Tally::default();
    for w in &warmup {
        tally.record(w.response.is_some());
    }
    // The traced run reads the daemon's request counters before and after
    // the counted stretch; the second stats request counts itself.
    let counted = traffic.sizes.min_cycles as usize * CYCLE;
    let mut serve_counts = (0, 0);
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let pacer = Pacer::start(cfg.seconds);
    let mut cycles = 0;
    while cycles < traffic.sizes.min_cycles || pacer.another(cycles) {
        if cfg.trace && cycles == 0 {
            let stats = daemon.request_counters();
            tally.record(stats.is_ok());
            serve_counts = stats.unwrap_or_default();
        }
        for _ in 0..CYCLE {
            let (request, rows) = traffic.request(exchanges.len());
            let done = exchange(&daemon.address, request, rows);
            tally.record(done.response.is_some());
            exchanges.push(done);
        }
        cycles += 1;
        if exchanges.len() == counted {
            // The daemon's cache grows with every append, so memory is
            // read after the same stretch of work on every run.
            peak_rss_mb = crate::peak_rss_mb();
        }
        if cfg.trace && exchanges.len() == counted {
            let stats = daemon.request_counters();
            tally.record(stats.is_ok());
            let (requests, errors) = stats.unwrap_or_default();
            serve_counts = (
                requests.saturating_sub(serve_counts.0 + 1),
                errors.saturating_sub(serve_counts.1),
            );
        }
    }
    drop(daemon);

    // Output check, outside the timed region: every response must equal
    // what an in-process engine replaying the same sequence renders. The
    // traced run replays once more, with telemetry, right after each
    // untraced step.
    let check = daemon_engine(false);
    let traced = cfg.trace.then(|| daemon_engine(true));
    let mut times = LayerTimes::default();
    let (mut untraced_ms, mut traced_ms, mut transport_ms) = (0.0, 0.0, 0.0);
    let mut counts = Counts::default();
    let (mut before, mut before_cache) = Default::default();
    let mut quality = Quality::default();
    for (k, ex) in warmup.iter().chain(&exchanges).enumerate() {
        let timed = k >= warmup.len();
        let in_counted = timed && k < warmup.len() + counted;
        let line = ex.request.render();
        let started = Instant::now();
        let expected = guarded(|| replay(&check, &line)).and_then(Result::ok);
        let untraced = millis(started.elapsed());
        if ex.response.is_some() {
            tally.record(expected.as_ref().map(|e| e.0) == ex.response);
        }
        if timed {
            untraced_ms += untraced;
            transport_ms += ex.rt_ms - untraced;
        }
        if let (true, Some((_, report))) = (in_counted, &expected) {
            let truth = traffic.table(k - warmup.len());
            quality.add(report, &truth.clean, &truth.corrupted);
        }
        let Some(engine) = &traced else { continue };
        if k == warmup.len() {
            before = engine.metrics().snapshot();
            before_cache = engine.cache_stats().unwrap_or_default();
        }
        let started = Instant::now();
        let (result, profile) = telemetry::collect(true, || guarded(|| replay(engine, &line)));
        let elapsed = millis(started.elapsed());
        let response = result.and_then(Result::ok).map(|r| r.0);
        tally.record(response.is_some() && response == expected.as_ref().map(|e| e.0));
        if timed {
            traced_ms += elapsed;
            times.add(&profile.unwrap_or_default(), 1);
        }
        if k + 1 == warmup.len() + counted {
            counts.counters = counter_delta(&engine.metrics().snapshot(), &before);
            counts.cache = cache_delta(&engine.cache_stats().unwrap_or_default(), &before_cache);
        }
    }

    let counted_exchanges = &exchanges[..counted.min(exchanges.len())];
    let inputs: Vec<String> = traffic
        .base_requests
        .iter()
        .chain([&traffic.request(CYCLE - 1).0])
        .map(Json::render)
        .collect();
    let input_digest = digest(inputs.iter().map(|s| s.as_bytes()));
    let responses: Vec<[u8; 8]> = warmup
        .iter()
        .chain(counted_exchanges)
        .map(|e| e.response.unwrap_or(0).to_le_bytes())
        .collect();
    let output_digest = digest(responses.iter().map(|b| b.as_slice()));

    let metrics = if cfg.trace {
        counts.bytes_in = counted_exchanges
            .iter()
            .map(|e| e.request.render().len() as u64)
            .sum();
        counts.detections = quality.detections;
        counts.repairs = quality.repairs;
        counts.serve_requests = serve_counts.0;
        counts.serve_errors = serve_counts.1;
        let n = exchanges.len().max(1) as f64;
        trace::layer_metrics(&times, &counts, transport_ms / n, (traced_ms, untraced_ms))
    } else {
        let rt: Vec<f64> = exchanges.iter().map(|e| e.rt_ms).collect();
        let rows: usize = exchanges.iter().map(|e| e.rows).sum();
        let busy_s = rt.iter().sum::<f64>() / 1e3;
        end_to_end(rows as f64 / busy_s, &rt, &quality, setup_s, peak_rss_mb)
    };

    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        input_digest,
        output_digest,
        spans: cfg.trace.then(|| times.render()),
    })
}
