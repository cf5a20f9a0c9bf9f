//! `datavinci-serve`: the cleaning engine as a long-lived daemon.
//!
//! Warm caches die with the process; the service mode keeps the process
//! alive. One [`Server`] owns one [`Engine`] per tenant (tenants are hard
//! isolation: equal fingerprints in different tenants never share
//! artifacts) and serves concurrent clients over a Unix or TCP socket —
//! thread-per-connection, no async runtime, std only.
//!
//! The wire protocol is newline-delimited JSON: one request object per
//! line, one response object per line, connection held open for any
//! number of requests. Operations:
//!
//! ```text
//! {"op":"ping"}                                   → {"ok":true,"pong":true}
//! {"op":"clean","csv":"...","tenant":"t"}         → {"ok":true,"csv":"...",...}
//! {"op":"stats"}                                  → {"ok":true,"metrics":{...},...}
//! {"op":"flush"}                                  → {"ok":true,"flushed":N}
//! {"op":"shutdown"}                               → {"ok":true}
//! ```
//!
//! Every failure is a positioned `{"ok":false,"error":"..."}` response —
//! a malformed request never kills the connection, let alone the daemon.
//!
//! Cleaning output is byte-identical to the batch CLI: a `clean` response's
//! `csv` field is exactly what `datavinci-clean` would have written for the
//! same input, so clients can A/B the two transports. When the server is
//! configured with a store directory, each tenant's engine warms from its
//! store slice at first touch and flushes back after every clean.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::store::ArtifactStore;
use crate::{Engine, EngineConfig, DEFAULT_CACHE_CAPACITY};
use datavinci_core::{DataVinci, DataVinciConfig, RepairStrategy, SemanticMode};
use datavinci_table::io;
use datavinci_telemetry::MetricsFrame;

/// The tenant used when a request names none.
pub const DEFAULT_TENANT: &str = "default";

/// Server configuration (engine shape shared by every tenant).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads per clean; `0` means one per hardware thread.
    pub workers: usize,
    /// Per-tenant cache capacity (entries per tier).
    pub cache_capacity: usize,
    /// Durable store directory; `None` serves from memory only.
    pub store_dir: Option<PathBuf>,
    /// Per-tenant on-disk size budget in bytes.
    pub store_budget: u64,
    /// Semantic handling mode for every tenant's system.
    pub semantics: SemanticMode,
    /// Repair strategy for every tenant's system. Has no effect: repair
    /// always runs once per error row.
    pub strategy: RepairStrategy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            store_dir: None,
            store_budget: crate::store::DEFAULT_STORE_BUDGET,
            semantics: SemanticMode::Full,
            strategy: RepairStrategy::RowWise,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// One live client connection's transport.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

/// Shared server state: tenant engines, request telemetry, shutdown flag.
struct State {
    cfg: ServerConfig,
    /// One engine per tenant, created at first touch and kept for the
    /// server's lifetime (the whole point: caches that outlive requests).
    engines: Mutex<HashMap<String, Arc<Engine>>>,
    /// Request-level telemetry in the `datavinci-telemetry` schema
    /// (`serve.*` counters and latency histograms; engine-level cache and
    /// stage metrics live on each tenant's engine registry).
    metrics: Mutex<MetricsFrame>,
    shutting_down: AtomicBool,
    connections: AtomicU64,
}

impl State {
    /// The engine serving `tenant`, created (and store-warmed) on first
    /// touch.
    fn engine_for(&self, tenant: &str) -> Result<Arc<Engine>, String> {
        let mut engines = self.engines.lock().expect("engines poisoned");
        if let Some(engine) = engines.get(tenant) {
            return Ok(Arc::clone(engine));
        }
        let dv = DataVinci::with_config(DataVinciConfig {
            semantics: self.cfg.semantics,
            repair_strategy: self.cfg.strategy,
            ..DataVinciConfig::default()
        });
        let mut engine = Engine::with_system(
            dv,
            EngineConfig {
                workers: self.cfg.workers,
                cache: true,
                cache_capacity: self.cfg.cache_capacity,
                telemetry: false,
            },
        );
        if let Some(dir) = &self.cfg.store_dir {
            let store = ArtifactStore::open_with_budget(dir, tenant, self.cfg.store_budget)
                .map_err(|e| e.to_string())?;
            let loaded = engine.attach_store(store).map_err(|e| e.to_string())?;
            let mut metrics = self.metrics.lock().expect("metrics poisoned");
            metrics.add_counter("serve.store.loaded_records", loaded.total() as u64);
            metrics.add_counter("serve.store.skipped_records", loaded.skipped as u64);
        }
        let engine = Arc::new(engine);
        engines.insert(tenant.to_string(), Arc::clone(&engine));
        Ok(engine)
    }

    fn count(&self, name: &str, delta: u64) {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .add_counter(name, delta);
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks serving
/// connections until a `shutdown` request arrives.
pub struct Server {
    listener: Listener,
    state: Arc<State>,
}

impl Server {
    /// Binds a TCP server (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind_tcp(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: Listener::Tcp(TcpListener::bind(addr)?),
            state: Arc::new(State {
                cfg,
                engines: Mutex::new(HashMap::new()),
                metrics: Mutex::new(MetricsFrame::new()),
                shutting_down: AtomicBool::new(false),
                connections: AtomicU64::new(0),
            }),
        })
    }

    /// Binds a Unix-domain-socket server at `path` (removed on bind if a
    /// stale socket file is present, and again at shutdown).
    pub fn bind_unix(path: impl Into<PathBuf>, cfg: ServerConfig) -> std::io::Result<Server> {
        let path = path.into();
        // A previous daemon's socket file would make bind fail with
        // AddrInUse even though nobody is listening; remove it first.
        let _ = std::fs::remove_file(&path);
        Ok(Server {
            listener: Listener::Unix(UnixListener::bind(&path)?, path),
            state: Arc::new(State {
                cfg,
                engines: Mutex::new(HashMap::new()),
                metrics: Mutex::new(MetricsFrame::new()),
                shutting_down: AtomicBool::new(false),
                connections: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address, rendered (`host:port` for TCP, the path for
    /// Unix) — what a client passes to `--connect`.
    pub fn address(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".to_string()),
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// Serves connections until a client sends `{"op":"shutdown"}`. Each
    /// connection gets its own thread; all threads share the tenant
    /// engines, so concurrent clients of one tenant hit one cache.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, state } = self;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let conn = match &listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            if state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let conn = conn?;
            let state = Arc::clone(&state);
            let address = self_address(&listener);
            // Dropping a finished thread's handle detaches it, which releases
            // its stack; a held handle keeps the stack mapped until joined.
            handles.retain(|h| !h.is_finished());
            handles.push(std::thread::spawn(move || {
                state.connections.fetch_add(1, Ordering::SeqCst);
                serve_connection(conn, &state, &address);
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        if let Listener::Unix(_, path) = &listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// The listener's own address, used by the shutdown path to wake the
/// blocking `accept`.
fn self_address(listener: &Listener) -> String {
    match listener {
        Listener::Tcp(l) => l
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| String::new()),
        Listener::Unix(_, path) => path.display().to_string(),
    }
}

/// Wakes a blocked `accept` after the shutdown flag is set by making one
/// throwaway connection to ourselves.
fn nudge(address: &str) {
    if address.contains(':') {
        let _ = TcpStream::connect(address);
    } else if !address.is_empty() {
        let _ = UnixStream::connect(address);
    }
}

fn serve_connection(conn: Conn, state: &State, address: &str) {
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let reader = BufReader::new(conn);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        state.count("serve.requests", 1);
        let started = Instant::now();
        let (response, shutdown) = handle_request(&line, state);
        if response.get("ok") != Some(&Json::Bool(true)) {
            state.count("serve.errors", 1);
        }
        state
            .metrics
            .lock()
            .expect("metrics poisoned")
            .observe("serve.request_latency", started.elapsed());
        let ok = writeln!(writer, "{}", response.render()).and_then(|()| writer.flush());
        if shutdown {
            state.shutting_down.store(true, Ordering::SeqCst);
            nudge(address);
            return;
        }
        if ok.is_err() {
            break;
        }
    }
}

/// Parses and dispatches one request line. Returns the response and
/// whether the server should shut down after sending it.
fn handle_request(line: &str, state: &State) -> (Json, bool) {
    let request = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => return (error_json(format!("bad request: {e}")), false),
    };
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return (error_json("missing \"op\" field".to_string()), false);
    };
    match op {
        "ping" => (
            Json::obj()
                .field("ok", Json::Bool(true))
                .field("pong", Json::Bool(true)),
            false,
        ),
        "clean" => (handle_clean(&request, state), false),
        "stats" => (handle_stats(state), false),
        "flush" => (handle_flush(state), false),
        "shutdown" => (Json::obj().field("ok", Json::Bool(true)), true),
        other => (error_json(format!("unknown op {other:?}")), false),
    }
}

fn error_json(message: String) -> Json {
    Json::obj()
        .field("ok", Json::Bool(false))
        .field("error", Json::str(message))
}

fn request_tenant(request: &Json) -> Result<&str, Json> {
    match request.get("tenant") {
        None => Ok(DEFAULT_TENANT),
        Some(t) => t
            .as_str()
            .ok_or_else(|| error_json("\"tenant\" must be a string".to_string())),
    }
}

fn handle_clean(request: &Json, state: &State) -> Json {
    let tenant = match request_tenant(request) {
        Ok(tenant) => tenant,
        Err(e) => return e,
    };
    let Some(csv) = request.get("csv").and_then(Json::as_str) else {
        return error_json("clean needs a \"csv\" string field".to_string());
    };
    let table = match io::parse_csv(csv) {
        Ok(table) => table,
        Err(e) => return error_json(format!("csv: {e}")),
    };
    let engine = match state.engine_for(tenant) {
        Ok(engine) => engine,
        Err(e) => return error_json(e),
    };
    let report = engine.clean_table(&table);
    let repaired = Engine::apply(&table, &report.table_report());
    state.count("serve.cleans", 1);
    state.count("serve.rows", table.n_rows() as u64);
    state.count(&format!("serve.tenant.{tenant}.cleans"), 1);
    state.count(
        &format!("serve.tenant.{tenant}.rows"),
        table.n_rows() as u64,
    );
    // Durability: the clean's artifacts hit disk before the response, so a
    // daemon killed right after replying still warm-starts.
    if let Err(e) = engine.flush_store() {
        state.count("serve.store.flush_errors", 1);
        return error_json(format!("store flush failed: {e}"));
    }
    Json::obj()
        .field("ok", Json::Bool(true))
        .field("csv", Json::str(io::to_csv(&repaired)))
        .field("n_rows", Json::Int(table.n_rows() as i64))
        .field("n_cols", Json::Int(table.n_cols() as i64))
        .field("n_detections", Json::Int(report.n_detections() as i64))
        .field("n_repairs", Json::Int(report.n_repairs() as i64))
        .field("cache_hits", Json::Int(report.cache_hits() as i64))
}

fn handle_stats(state: &State) -> Json {
    let engines = state.engines.lock().expect("engines poisoned");
    let mut tenants = Json::obj();
    let mut names: Vec<&String> = engines.keys().collect();
    names.sort();
    for name in names {
        if let Some(stats) = engines[name].cache_stats() {
            tenants = tenants.field(name, stats.to_json());
        }
    }
    drop(engines);
    let metrics = state.metrics.lock().expect("metrics poisoned");
    Json::obj()
        .field("ok", Json::Bool(true))
        .field(
            "connections",
            Json::Int(state.connections.load(Ordering::SeqCst) as i64),
        )
        .field("tenants", tenants)
        .field("metrics", crate::report::metrics_frame_json(&metrics))
}

fn handle_flush(state: &State) -> Json {
    let engines = state.engines.lock().expect("engines poisoned");
    let mut flushed = 0;
    for engine in engines.values() {
        match engine.flush_store() {
            Ok(Some(_)) => flushed += 1,
            Ok(None) => {}
            Err(e) => return error_json(format!("store flush failed: {e}")),
        }
    }
    Json::obj()
        .field("ok", Json::Bool(true))
        .field("flushed", Json::Int(flushed))
}

/// One blocking request/response exchange — the client side of the
/// protocol, shared by `datavinci-clean --connect` and the tests.
pub fn roundtrip(address: &str, request: &Json) -> Result<Json, String> {
    let mut conn = if address.contains(':') {
        Conn::Tcp(TcpStream::connect(address).map_err(|e| format!("connect {address}: {e}"))?)
    } else {
        Conn::Unix(UnixStream::connect(address).map_err(|e| format!("connect {address}: {e}"))?)
    };
    writeln!(conn, "{}", request.render()).map_err(|e| format!("send: {e}"))?;
    conn.flush().map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("receive: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection".to_string());
    }
    Json::parse(&line).map_err(|e| format!("bad response: {e}"))
}
