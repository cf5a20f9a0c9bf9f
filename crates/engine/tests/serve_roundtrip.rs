//! `datavinci-serve` protocol tests: in-process daemon on an ephemeral
//! port, real sockets, concurrent clients. The core contract is identity:
//! a daemon-cleaned CSV is byte-for-byte what the batch engine produces.

use std::path::PathBuf;

use datavinci_engine::json::Json;
use datavinci_engine::serve::roundtrip;
use datavinci_engine::{Engine, Server, ServerConfig};
use datavinci_table::io;

/// Boots a TCP server on an ephemeral port; returns its address and the
/// join handle of the accept loop (joined after a shutdown op).
fn boot(cfg: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind_tcp("127.0.0.1:0", cfg).expect("bind");
    let address = server.address();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (address, handle)
}

fn shutdown(address: &str, handle: std::thread::JoinHandle<()>) {
    let response = roundtrip(address, &Json::obj().field("op", Json::str("shutdown")))
        .expect("shutdown roundtrip");
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    handle.join().expect("accept loop exits");
}

fn clean_request(csv: &str) -> Json {
    Json::obj()
        .field("op", Json::str("clean"))
        .field("csv", Json::str(csv))
}

const PLAYERS_CSV: &str = "Category,Player ID\n\
    Professional,IN-674-PRO\n\
    Professional,usa_837\n\
    Professional,DZ-173-PRO\n\
    Qualifier,US-201-QUA\n\
    Qualifier,CN-924-QUA\n\
    Professional,FR-475-PRO\n";

/// What the local batch engine produces for the same bytes.
fn batch_cleaned(csv: &str) -> String {
    let table = io::parse_csv(csv).expect("fixture parses");
    let engine = Engine::new();
    let report = engine.clean_table(&table);
    io::to_csv(&Engine::apply(&table, &report.table_report()))
}

#[test]
fn ping_pongs() {
    let (address, handle) = boot(ServerConfig::default());
    let response = roundtrip(&address, &Json::obj().field("op", Json::str("ping"))).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(response.get("pong"), Some(&Json::Bool(true)));
    shutdown(&address, handle);
}

/// Each connection runs on its own thread. A finished thread must release
/// its stack instead of keeping it mapped until shutdown: with a mapping
/// leaked per connection, a long-lived daemon eventually hits the kernel's
/// map-count limit and can no longer spawn threads.
#[cfg(target_os = "linux")]
#[test]
fn finished_connection_threads_release_their_stacks() {
    fn mappings() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .expect("procfs")
            .lines()
            .count()
    }
    const CONNECTIONS: usize = 400;
    let (address, handle) = boot(ServerConfig::default());
    let ping = Json::obj().field("op", Json::str("ping"));
    // Warm up so allocator arenas and the thread-stack cache are in place.
    for _ in 0..20 {
        roundtrip(&address, &ping).unwrap();
    }
    let before = mappings();
    for _ in 0..CONNECTIONS {
        let response = roundtrip(&address, &ping).unwrap();
        assert_eq!(response.get("pong"), Some(&Json::Bool(true)));
    }
    let growth = mappings().saturating_sub(before);
    shutdown(&address, handle);
    // Other tests in this binary run concurrently and add a few mappings of
    // their own; a leak adds at least one per connection.
    assert!(
        growth < CONNECTIONS / 4,
        "{growth} new mappings after {CONNECTIONS} sequential connections"
    );
}

#[test]
fn daemon_clean_is_byte_identical_to_batch() {
    let (address, handle) = boot(ServerConfig::default());
    let response = roundtrip(&address, &clean_request(PLAYERS_CSV)).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
    assert_eq!(
        response.get("csv").and_then(Json::as_str).unwrap(),
        batch_cleaned(PLAYERS_CSV),
    );
    assert_eq!(response.get("n_repairs").and_then(Json::as_i64), Some(1));
    shutdown(&address, handle);
}

#[test]
fn concurrent_clients_share_one_warm_cache_and_agree_bytewise() {
    let (address, handle) = boot(ServerConfig::default());
    let expected = batch_cleaned(PLAYERS_CSV);

    // First request warms the tenant cache.
    let warmup = roundtrip(&address, &clean_request(PLAYERS_CSV)).unwrap();
    assert_eq!(warmup.get("ok"), Some(&Json::Bool(true)));

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let address = address.clone();
            std::thread::spawn(move || roundtrip(&address, &clean_request(PLAYERS_CSV)))
        })
        .collect();
    let mut hits = 0i64;
    for client in clients {
        let response = client.join().unwrap().unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        assert_eq!(
            response.get("csv").and_then(Json::as_str).unwrap(),
            expected,
        );
        hits += response
            .get("cache_hits")
            .and_then(Json::as_i64)
            .unwrap_or(0);
    }
    // Concurrent clients of one tenant share the warmed cache: all four
    // re-cleans of identical content are served hot.
    assert_eq!(hits, 4 * 2, "each clean's 2 columns should hit");
    shutdown(&address, handle);
}

#[test]
fn tenants_are_isolated_through_the_daemon() {
    let (address, handle) = boot(ServerConfig::default());
    let for_tenant = |tenant: &str| clean_request(PLAYERS_CSV).field("tenant", Json::str(tenant));
    let a = roundtrip(&address, &for_tenant("a")).unwrap();
    assert_eq!(a.get("cache_hits").and_then(Json::as_i64), Some(0));
    // Tenant b cleans the same bytes: cold again (no cross-tenant sharing).
    let b = roundtrip(&address, &for_tenant("b")).unwrap();
    assert_eq!(b.get("cache_hits").and_then(Json::as_i64), Some(0));
    // Tenant a again: warm.
    let a2 = roundtrip(&address, &for_tenant("a")).unwrap();
    assert_eq!(a2.get("cache_hits").and_then(Json::as_i64), Some(2));

    let stats = roundtrip(&address, &Json::obj().field("op", Json::str("stats"))).unwrap();
    let tenants = stats.get("tenants").expect("tenant section");
    assert!(tenants.get("a").is_some() && tenants.get("b").is_some());
    shutdown(&address, handle);
}

#[test]
fn malformed_requests_get_positioned_errors_not_dropped_connections() {
    let (address, handle) = boot(ServerConfig::default());
    for (request, expect) in [
        ("{not json", "bad request"),
        ("{\"no\":\"op\"}", "missing \"op\""),
        ("{\"op\":\"warp\"}", "unknown op"),
        ("{\"op\":\"clean\"}", "needs a \"csv\""),
        ("{\"op\":\"clean\",\"csv\":\"\"}", "csv:"),
        ("{\"op\":\"clean\",\"csv\":\"x\",\"tenant\":7}", "tenant"),
    ] {
        let parsed = Json::parse(request).ok();
        let response = match parsed {
            Some(json) => roundtrip(&address, &json).unwrap(),
            // Raw malformed line: drive the socket by hand.
            None => {
                use std::io::{BufRead, BufReader, Write};
                let mut conn = std::net::TcpStream::connect(&address).unwrap();
                writeln!(conn, "{request}").unwrap();
                let mut line = String::new();
                BufReader::new(conn).read_line(&mut line).unwrap();
                Json::parse(&line).unwrap()
            }
        };
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(false)),
            "request {request:?}"
        );
        let error = response.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(expect), "request {request:?} → {error:?}");
    }
    // The server is still healthy after all that abuse.
    let response = roundtrip(&address, &Json::obj().field("op", Json::str("ping"))).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    let stats = roundtrip(&address, &Json::obj().field("op", Json::str("stats"))).unwrap();
    let errors = stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.errors"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert!(errors >= 6, "serve.errors={errors}");
    shutdown(&address, handle);
}

#[test]
fn daemon_persists_to_its_store_across_restarts() {
    let dir = std::env::temp_dir().join(format!("dv-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig {
        store_dir: Some(PathBuf::from(&dir)),
        ..ServerConfig::default()
    };

    let (address, handle) = boot(cfg());
    let cold = roundtrip(&address, &clean_request(PLAYERS_CSV)).unwrap();
    assert_eq!(cold.get("cache_hits").and_then(Json::as_i64), Some(0));
    shutdown(&address, handle);

    // A brand-new daemon process over the same store: first clean is warm.
    let (address, handle) = boot(cfg());
    let warm = roundtrip(&address, &clean_request(PLAYERS_CSV)).unwrap();
    assert_eq!(warm.get("cache_hits").and_then(Json::as_i64), Some(2));
    assert_eq!(
        warm.get("csv").and_then(Json::as_str),
        cold.get("csv").and_then(Json::as_str),
    );
    shutdown(&address, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("dv-serve-{}.sock", std::process::id()));
    let server = Server::bind_unix(&path, ServerConfig::default()).expect("bind unix");
    let address = server.address();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let response = roundtrip(&address, &clean_request(PLAYERS_CSV)).unwrap();
    assert_eq!(
        response.get("csv").and_then(Json::as_str).unwrap(),
        batch_cleaned(PLAYERS_CSV),
    );
    shutdown(&address, handle);
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}
