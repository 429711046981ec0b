//! The `cornet-serve` binary: HTTP front-end over the rule store.
//!
//! ```text
//! cornet-serve [--addr 127.0.0.1:7878] [--store cornet-store] [--capacity 256]
//!              [--max-conns 256] [--keep-alive-secs 10] [--quiet]
//!              [--metrics|--no-metrics]
//! cornet-serve smoke
//! ```
//!
//! The default mode binds the address and serves until killed, logging
//! one `request …` line per request to stderr (suppress with `--quiet`).
//! Flags beat the `CORNET_MAX_CONNS` / `CORNET_KEEP_ALIVE_SECS` /
//! `CORNET_REQUEST_TIMEOUT_SECS` / `CORNET_HTTP_WORKERS` environment
//! knobs, which beat the defaults.
//!
//! `GET /metrics` (Prometheus text exposition) is served by default;
//! `--no-metrics` turns the endpoint off, `--metrics` forces it back on.
//! Setting `CORNET_TRACE` to anything but `0`/empty installs the stderr
//! trace sink: every learner stage and HTTP request span is emitted as a
//! `trace span=… request_id=… micros=…` line.
//!
//! The store directory holds the append-only rule log (`rules.log`)
//! and the persisted sessions. `smoke` runs the scripted
//! learn→score→correct→re-learn→restart session against a throwaway
//! store and exits non-zero on any failure (the CI `serve-smoke` job).

use cornet_serve::http::{NullLog, StderrLog};
use cornet_serve::service::{CornetService, ServiceConfig};
use cornet_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("smoke") {
        match cornet_serve::smoke::run() {
            Ok(log) => {
                for line in log {
                    println!("{line}");
                }
                println!("smoke: PASS");
            }
            Err(e) => {
                eprintln!("smoke: FAIL\n{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut addr = "127.0.0.1:7878".to_string();
    let mut store_dir = PathBuf::from("cornet-store");
    let mut capacity = 256usize;
    let mut server_config = ServerConfig::from_env();
    server_config.log = Arc::new(StderrLog);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                })
                .clone()
        };
        let parse_usize = |name: &str, raw: String| -> usize {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("{name} must be a positive integer");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--store" => store_dir = PathBuf::from(value("--store")),
            "--capacity" => capacity = parse_usize("--capacity", value("--capacity")),
            "--max-conns" => {
                server_config.max_connections = parse_usize("--max-conns", value("--max-conns"))
            }
            "--keep-alive-secs" => {
                server_config.keep_alive = Duration::from_secs(parse_usize(
                    "--keep-alive-secs",
                    value("--keep-alive-secs"),
                ) as u64)
            }
            "--quiet" => server_config.log = Arc::new(NullLog),
            "--metrics" => server_config.metrics = true,
            "--no-metrics" => server_config.metrics = false,
            "--help" | "-h" => {
                println!(
                    "usage: cornet-serve [--addr HOST:PORT] [--store DIR] [--capacity N] \
                     [--max-conns N] [--keep-alive-secs N] [--quiet] [--metrics|--no-metrics] \
                     | smoke\n\
                     env: CORNET_TRACE=1 emits trace spans to stderr"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    // CORNET_TRACE: install the stderr trace sink before the first
    // request so every learner-stage span lands in the log stream.
    if std::env::var("CORNET_TRACE").is_ok_and(|v| !v.is_empty() && v != "0") {
        cornet_obs::set_trace_sink(Arc::new(cornet_obs::StderrSink));
    }

    let service = match CornetService::new(&ServiceConfig {
        store_dir: store_dir.clone(),
        cache_capacity: capacity,
        ..ServiceConfig::default()
    }) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("cannot open rule store {}: {e}", store_dir.display());
            std::process::exit(1);
        }
    };
    let max_conns = server_config.max_connections;
    let keep_alive = server_config.keep_alive;
    let metrics_enabled = server_config.metrics;
    let server = match Server::start_with(&addr, service, server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "cornet-serve listening on http://{} (rule store: {}, cache: {capacity}, \
         max conns: {max_conns}, keep-alive: {}s)",
        server.addr(),
        store_dir.display(),
        keep_alive.as_secs(),
    );
    eprintln!(
        "endpoints: GET /health{} · POST /learn /score /suggest /batch /session · \
         GET /session/<id> /rules/<id>",
        if metrics_enabled { " /metrics" } else { "" }
    );
    loop {
        std::thread::park();
    }
}
