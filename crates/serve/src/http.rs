//! A keep-alive HTTP/1.1 front-end over [`CornetService`] built on
//! `std::net`, designed for sustained concurrent traffic.
//!
//! ## Architecture: an epoll reactor and a worker pool
//!
//! * The **reactor thread** sleeps in `epoll_wait` (Linux) until a socket
//!   is readable or the earliest deadline is due, so an idle server makes
//!   no wake-ups. It accepts from the listener in the same epoll set, and
//!   beyond [`ServerConfig::max_connections`] live sockets sheds new ones
//!   with a clean `503` + `Retry-After` (never a silent drop). Connections
//!   waiting for bytes are *parked* in a map keyed by connection id and
//!   armed one-shot, level-triggered: an event disarms the socket, the
//!   reactor reads what arrived, and either queues the connection for a
//!   worker (a complete request or a protocol error is buffered) or
//!   re-arms it. An idle keep-alive socket therefore never pins a worker.
//! * **Worker threads** drain every complete pipelined request of a ready
//!   connection *in order* (HTTP/1.1 pipelining requires arrival-order
//!   responses), then park and re-arm it themselves; the re-arm re-polls
//!   the socket, so bytes that arrived meanwhile are reported at once.
//!   `/batch` fans its items onto `cornet-pool`.
//!
//! A deadline heap on the reactor reaps parked connections: a partial
//! request must complete within [`ServerConfig::request_timeout`]
//! (slow-loris clients get a `408`), an idle keep-alive socket lives for
//! [`ServerConfig::keep_alive`]. An `eventfd` wakes the reactor at
//! shutdown, or when a worker parks a connection due before any other.
//!
//! ## Protocol subset
//!
//! Requests are framed by `Content-Length` (chunked transfer encoding is
//! rejected with `400`). `HTTP/1.1` connections are keep-alive unless the
//! client sends `Connection: close`; `HTTP/1.0` connections close unless
//! the client sends `Connection: keep-alive`. Oversized bodies are
//! rejected with `413`, malformed request lines and headers with `400`.
//!
//! Every response body is a versioned envelope
//! (`{"v":1,"kind":<endpoint>,"payload":…}`); errors use kind `error`
//! with `{"error":…,"status":…}`.
//!
//! | Method & path | Body | Result kind |
//! |---------------|------|-------------|
//! | `GET /health` | — | `health` |
//! | `POST /learn` | `{"cells":[…],"examples":[…],"negatives":[…]?}` | `learn` |
//! | `POST /score` | `{"rule_id":…}` or `{"rule":…}` plus `"cells"` | `score` |
//! | `POST /batch` | `{"items":[{"op":"learn"/"score",…},…]}` | `batch` |
//! | `POST /session` | `{"cells":[…],"examples":[…]?}` | `session` |
//! | `GET /session/<id>` | — | `session` |
//! | `POST /session/<id>/correct` | `{"format":[…]?,"unformat":[…]?}` | `session` |
//! | `GET /rules/<id>` | — | `rule` |
//! | `GET /metrics` | — | Prometheus text (not JSON) |
//!
//! `GET /metrics` serves the Prometheus text exposition rendered by
//! [`CornetService::metrics_text`] (gate it off with
//! [`ServerConfig::metrics`]); every other endpoint keeps the JSON
//! envelope contract above. Each served request is assigned a
//! process-unique request id, installed for the handling thread via
//! [`cornet_obs::set_request_id`] so learner-stage trace events emitted
//! under the request carry it.
//!
//! Per-request structured logging goes through the [`RequestLog`] seam:
//! method, path, status, handling latency in µs, the connection id (so
//! keep-alive reuse is visible in the log stream), and the request id
//! (so log lines join against trace events).

use crate::epoll::{
    Epoll, EpollEvent, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP, EPOLL_CTL_ADD, EPOLL_CTL_MOD,
};
use crate::service::{BatchItem, CornetService, LearnRequest, ScoreRequest, ServeError};
use crate::suggest::SuggestRequest;
use cornet_obs::{Counter, Gauge, Histogram, StageTimer};
use cornet_serde::{envelope, to_string, FromJson, Json, ToJson};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Header-section size cap.
pub const MAX_HEAD: usize = 16 * 1024;
/// Request-body size cap (larger `Content-Length` values get a `413`).
pub const MAX_BODY: usize = 8 * 1024 * 1024;
/// Per-event read cap per connection, so one firehose client cannot
/// starve the reactor (the re-arm reports the rest at once).
const READ_BURST: usize = 64 * 1024;
/// How long the listener stays disarmed after a failed `accept`
/// (typically fd exhaustion), instead of spinning on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);
/// Socket timeout used by the bundled client helpers.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// `Content-Type` of every JSON envelope response.
const JSON_CONTENT_TYPE: &str = "application/json";
/// `Content-Type` of the `/metrics` exposition (Prometheus text 0.0.4).
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

// ---------------------------------------------------------------------------
// Front-end metrics
// ---------------------------------------------------------------------------

/// Process-wide HTTP front-end metrics (global registry; see
/// `crates/obs`). Per-route series sit in [`route_histogram`]'s and
/// [`count_request`]'s caches.
struct HttpMetrics {
    inflight: Gauge,
    connections: Gauge,
    shed: Counter,
    timeouts: Counter,
}

fn http_metrics() -> &'static HttpMetrics {
    static METRICS: OnceLock<HttpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = cornet_obs::registry();
        HttpMetrics {
            inflight: registry.gauge(
                "cornet_http_inflight_requests",
                "Requests currently being routed or written on a worker.",
            ),
            connections: registry.gauge(
                "cornet_http_connections",
                "Live connections, idle keep-alive sockets included.",
            ),
            shed: registry.counter(
                "cornet_http_shed_total",
                "Connections shed with 503 at the accept-time cap.",
            ),
            timeouts: registry.counter(
                "cornet_http_timeouts_total",
                "Requests dropped with 408 for not completing in time.",
            ),
        }
    })
}

/// Every label [`route_label`] returns.
#[rustfmt::skip]
const ROUTES: [&str; 11] = [
    "/health", "/metrics", "/learn", "/score", "/suggest", "/batch", "/session",
    "/session/:id", "/session/:id/correct", "/rules/:id", "unmatched",
];

/// Every status the front-end answers with.
const STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 422, 500, 503];

/// Normalizes a request to its route label for metrics: parameterized
/// segments collapse (`/session/s7` → `/session/:id`) so label
/// cardinality never grows with traffic; anything unroutable is
/// `unmatched`.
fn route_label(method: &str, path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["health"]) => "/health",
        ("GET", ["metrics"]) => "/metrics",
        ("POST", ["learn"]) => "/learn",
        ("POST", ["score"]) => "/score",
        ("POST", ["suggest"]) => "/suggest",
        ("POST", ["batch"]) => "/batch",
        ("POST", ["session"]) => "/session",
        ("GET", ["session", _]) => "/session/:id",
        ("POST", ["session", _, "correct"]) => "/session/:id/correct",
        ("GET", ["rules", _]) => "/rules/:id",
        _ => "unmatched",
    }
}

/// The index of a [`route_label`] label in [`ROUTES`].
fn route_index(label: &str) -> usize {
    let index = ROUTES.iter().position(|r| *r == label);
    index.expect("labels come from route_label")
}

/// The per-route latency histogram (`cornet_http_request_duration_seconds`).
/// Per-route series are resolved from the registry on first use (so
/// `/metrics` lists one once it has a sample) and then reused: no registry
/// lock or label allocation per request.
fn route_histogram(label: &'static str) -> Histogram {
    static CACHE: [OnceLock<Histogram>; ROUTES.len()] = [const { OnceLock::new() }; ROUTES.len()];
    let histogram = CACHE[route_index(label)].get_or_init(|| {
        cornet_obs::registry().histogram_with(
            "cornet_http_request_duration_seconds",
            "Request handling latency (routing + response write), by route.",
            &[("route", label)],
        )
    });
    histogram.clone()
}

/// Counts one finished request in `cornet_http_requests_total{route,status}`.
fn count_request(label: &'static str, status: u16) {
    static CACHE: [[OnceLock<Counter>; STATUSES.len()]; ROUTES.len()] =
        [const { [const { OnceLock::new() }; STATUSES.len()] }; ROUTES.len()];
    let resolve = || {
        cornet_obs::registry().counter_with(
            "cornet_http_requests_total",
            "Requests served, by route and response status.",
            &[("route", label), ("status", &status.to_string())],
        )
    };
    match STATUSES.iter().position(|s| *s == status) {
        Some(i) => CACHE[route_index(label)][i].get_or_init(resolve).inc(),
        None => resolve().inc(),
    }
}

/// Process-unique request id, threaded through [`RequestRecord`] and
/// (via [`cornet_obs::set_request_id`]) into trace events.
fn next_request_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path component (query strings are stripped; this API ignores them).
    pub path: String,
    /// Raw body bytes as text.
    pub body: String,
    /// Whether the connection stays open after the response
    /// (`HTTP/1.1` default, overridable with a `Connection` header).
    pub keep_alive: bool,
}

/// Outcome of one incremental parse attempt over a connection buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// The buffer does not yet hold a complete request; read more bytes.
    Incomplete,
    /// One complete request, occupying the first `consumed` buffer bytes.
    Ready {
        /// The parsed request.
        request: Request,
        /// Bytes to drain from the front of the buffer.
        consumed: usize,
    },
    /// A protocol violation; respond with `status` and close.
    Bad {
        /// `400` for malformed requests, `413` for oversized bodies.
        status: u16,
        /// Human-readable rejection reason.
        message: String,
    },
}

fn bad(status: u16, message: impl Into<String>) -> ParseOutcome {
    ParseOutcome::Bad {
        status,
        message: message.into(),
    }
}

/// Incrementally parses the first request out of `buf`.
///
/// Pure function of the buffer: callers re-invoke it as bytes arrive
/// (`Incomplete`), after draining a request (`Ready` — pipelined requests
/// are parsed strictly in arrival order), or to learn the rejection
/// status (`Bad`). The head must be UTF-8 and under [`MAX_HEAD`] bytes;
/// bodies are framed by `Content-Length` and capped at [`MAX_BODY`].
pub fn parse_request(buf: &[u8]) -> ParseOutcome {
    let head_end = match find_head_end(buf) {
        Some(i) => i,
        None => {
            return if buf.len() > MAX_HEAD {
                bad(400, "request head too large")
            } else {
                ParseOutcome::Incomplete
            };
        }
    };
    if head_end > MAX_HEAD {
        return bad(400, "request head too large");
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return bad(400, "non-UTF-8 request head"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let parts: Vec<&str> = request_line.split(' ').collect();
    let [method, target, version] = parts.as_slice() else {
        return bad(400, format!("malformed request line `{request_line}`"));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_graphic()) {
        return bad(400, format!("malformed method in `{request_line}`"));
    }
    if target.is_empty() {
        return bad(400, "empty request target");
    }
    let http11 = match *version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return bad(400, format!("unsupported protocol version `{other}`")),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return bad(400, format!("malformed header line `{line}`"));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return bad(400, format!("malformed header name `{name}`"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = match value.parse() {
                Ok(n) => n,
                Err(_) => return bad(400, format!("invalid Content-Length `{value}`")),
            };
            if let Some(prev) = content_length {
                if prev != parsed {
                    return bad(400, "conflicting Content-Length headers");
                }
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return bad(400, "transfer encodings are not supported");
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return bad(413, "request body too large");
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return ParseOutcome::Incomplete;
    }
    let body = match std::str::from_utf8(&buf[body_start..total]) {
        Ok(b) => b.to_string(),
        Err(_) => return bad(400, "non-UTF-8 request body"),
    };
    ParseOutcome::Ready {
        request: Request {
            method: method.to_string(),
            path: target.split('?').next().unwrap_or(target).to_string(),
            body,
            keep_alive,
        },
        consumed: total,
    }
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes an HTTP/1.1 response, head and body in one write (one segment
/// for a small response on a `TCP_NODELAY` socket). `retry_after` adds a
/// `Retry-After` header (load-shedding responses carry one);
/// `content_type` is [`JSON_CONTENT_TYPE`] everywhere except `/metrics`.
fn respond(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    close: bool,
    retry_after: Option<u32>,
    content_type: &str,
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let retry = retry_after.map_or(String::new(), |secs| format!("Retry-After: {secs}\r\n"));
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: {connection}\r\n\r\n{body}",
        reason(status),
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn error_body(status: u16, message: &str) -> String {
    to_string(&envelope(
        "error",
        Json::object([
            ("error", Json::str(message)),
            ("status", Json::Number(status as f64)),
        ]),
    ))
}

fn ok_body(kind: &str, payload: Json) -> String {
    to_string(&envelope(kind, payload))
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn parse_body(body: &str) -> Result<Json, ServeError> {
    cornet_serde::parse(body).map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))
}

fn decode_request<T: FromJson>(body: &str) -> Result<T, ServeError> {
    Ok(T::from_json(&parse_body(body)?)?)
}

/// Routes one request to the service. Returns `(status, body)`.
pub fn route(service: &CornetService, request: &Request) -> (u16, String) {
    match handle(service, request) {
        Ok((kind, payload)) => (200, ok_body(kind, payload)),
        Err(e) => (e.status(), error_body(e.status(), e.message())),
    }
}

fn handle(service: &CornetService, request: &Request) -> Result<(&'static str, Json), ServeError> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => Ok(("health", service.health())),
        ("POST", ["learn"]) => {
            let req: LearnRequest = decode_request(&request.body)?;
            Ok(("learn", service.learn(&req)?.to_json()))
        }
        ("POST", ["score"]) => {
            let req: ScoreRequest = decode_request(&request.body)?;
            Ok(("score", service.score(&req)?.to_json()))
        }
        ("POST", ["suggest"]) => {
            let req: SuggestRequest = decode_request(&request.body)?;
            Ok(("suggest", service.suggest(&req)?.to_json()))
        }
        ("POST", ["batch"]) => {
            let doc = parse_body(&request.body)?;
            let items: Vec<BatchItem> = cornet_serde::field_t(&doc, "items")?;
            let results: Vec<Json> = service
                .batch(&items)
                .into_iter()
                .map(|r| match r {
                    Ok(payload) => payload,
                    Err(e) => Json::object([
                        ("error", Json::str(e.message())),
                        ("status", Json::Number(e.status() as f64)),
                    ]),
                })
                .collect();
            Ok(("batch", Json::object([("results", Json::Array(results))])))
        }
        ("POST", ["session"]) => {
            let doc = parse_body(&request.body)?;
            let cells: Vec<String> = cornet_serde::field_t(&doc, "cells")?;
            let examples = cornet_serde::optional_field_t(&doc, "examples")?.unwrap_or_default();
            let classes = cornet_serde::optional_field_t(&doc, "classes")?.unwrap_or_default();
            Ok((
                "session",
                service.session_create(cells, examples, classes)?.to_json(),
            ))
        }
        ("GET", ["session", id]) => Ok(("session", service.session_get(id)?.to_json())),
        ("POST", ["session", id, "correct"]) => {
            let doc = parse_body(&request.body)?;
            let read_list = |key: &str| cornet_serde::optional_field_t::<Vec<usize>>(&doc, key);
            let format = read_list("format")?.unwrap_or_default();
            let unformat = read_list("unformat")?.unwrap_or_default();
            let class: Option<usize> = cornet_serde::optional_field_t(&doc, "class")?;
            Ok((
                "session",
                service
                    .session_correct(id, &format, &unformat, class)?
                    .to_json(),
            ))
        }
        ("GET", ["rules", id]) => Ok(("rule", service.rule(id)?.to_json())),
        (_, _) => Err(ServeError::NotFound(format!(
            "no route for {} {}",
            request.method, request.path
        ))),
    }
}

// ---------------------------------------------------------------------------
// Request logging
// ---------------------------------------------------------------------------

/// One served request, as seen by the [`RequestLog`] seam.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Server-assigned connection id (stable across keep-alive reuse).
    pub conn: u64,
    /// Process-unique request id — the same id trace events emitted
    /// while the request was handled carry, so log lines and spans join.
    pub request_id: u64,
    /// Request method (`-` for protocol errors rejected before parsing).
    pub method: String,
    /// Request path (`-` for protocol errors rejected before parsing).
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Handling latency in microseconds (routing + response write).
    pub micros: u64,
}

/// Structured per-request logging seam. Implementations must be cheap
/// and non-blocking — the record is emitted on the worker thread that
/// served the request.
pub trait RequestLog: Send + Sync {
    /// Called once per served request (including protocol errors).
    fn record(&self, record: &RequestRecord);
}

/// Discards every record (the default for embedded/test servers).
#[derive(Debug, Default)]
pub struct NullLog;

impl RequestLog for NullLog {
    fn record(&self, _record: &RequestRecord) {}
}

/// Formats one record as the single log line [`StderrLog`] writes.
fn format_record(r: &RequestRecord) -> String {
    format!(
        "request conn={} request={} method={} path={} status={} us={}\n",
        r.conn, r.request_id, r.method, r.path, r.status, r.micros
    )
}

/// Writes one structured line per request to stderr (the binary's
/// default): `request conn=3 request=17 method=POST path=/learn
/// status=200 us=512`.
#[derive(Debug, Default)]
pub struct StderrLog;

impl RequestLog for StderrLog {
    fn record(&self, r: &RequestRecord) {
        // Format first, then take the stderr lock exactly once for a
        // single `write_all`: concurrent workers' records can interleave
        // as whole lines but never within one.
        let line = format_record(r);
        let stderr = io::stderr();
        let mut handle = stderr.lock();
        let _ = handle.write_all(line.as_bytes());
    }
}

/// Collects every record in memory — the conformance suites' log seam,
/// also usable by embedding tests that assert on served traffic.
#[derive(Debug, Default)]
pub struct VecLog(Mutex<Vec<RequestRecord>>);

impl VecLog {
    /// A snapshot of the records collected so far, in arrival order.
    pub fn records(&self) -> Vec<RequestRecord> {
        self.0.lock().unwrap().clone()
    }
}

impl RequestLog for VecLog {
    fn record(&self, record: &RequestRecord) {
        self.0.lock().unwrap().push(record.clone());
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Server tuning knobs ([`ServerConfig::from_env`] reads environment
/// overrides of these defaults).
#[derive(Clone)]
pub struct ServerConfig {
    /// Hard cap on live connections; beyond it the reactor sheds new
    /// sockets with `503` + `Retry-After`.
    pub max_connections: usize,
    /// How long an idle keep-alive connection may sit between requests.
    pub keep_alive: Duration,
    /// Deadline for one request to arrive completely once its first byte
    /// has been read (the slow-loris bound) — also the response write
    /// timeout.
    pub request_timeout: Duration,
    /// Worker-thread count; `0` sizes from `cornet_pool::current_threads`
    /// (clamped to 2..=16).
    pub workers: usize,
    /// Whether `GET /metrics` is served (`true` by default); when off the
    /// path falls through to the router's 404.
    pub metrics: bool,
    /// Per-request logging seam.
    pub log: Arc<dyn RequestLog>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            keep_alive: Duration::from_secs(10),
            request_timeout: Duration::from_secs(10),
            workers: 0,
            metrics: true,
            log: Arc::new(NullLog),
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("max_connections", &self.max_connections)
            .field("keep_alive", &self.keep_alive)
            .field("request_timeout", &self.request_timeout)
            .field("workers", &self.workers)
            .field("metrics", &self.metrics)
            .finish_non_exhaustive()
    }
}

impl ServerConfig {
    /// Defaults overridden by the `CORNET_MAX_CONNS`,
    /// `CORNET_KEEP_ALIVE_SECS`, `CORNET_REQUEST_TIMEOUT_SECS` and
    /// `CORNET_HTTP_WORKERS` environment variables (invalid values are
    /// ignored).
    pub fn from_env() -> ServerConfig {
        fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        }
        let mut config = ServerConfig::default();
        if let Some(n) = env_parse::<usize>("CORNET_MAX_CONNS") {
            config.max_connections = n.max(1);
        }
        if let Some(secs) = env_parse::<u64>("CORNET_KEEP_ALIVE_SECS") {
            config.keep_alive = Duration::from_secs(secs.max(1));
        }
        if let Some(secs) = env_parse::<u64>("CORNET_REQUEST_TIMEOUT_SECS") {
            config.request_timeout = Duration::from_secs(secs.max(1));
        }
        if let Some(n) = env_parse::<usize>("CORNET_HTTP_WORKERS") {
            config.workers = n;
        }
        config
    }
}

/// Decrements the live-connection counter (the reactor's cap check reads
/// it) and the connections gauge when a connection dies, however it dies.
struct ConnPermit(Arc<AtomicUsize>);

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        http_metrics().connections.dec();
    }
}

/// One live connection: the socket plus its unparsed input bytes.
struct Conn {
    id: u64,
    stream: TcpStream,
    buf: Vec<u8>,
    /// When the connection is reaped if still parked: the keep-alive
    /// deadline while `buf` is empty, else the slow-loris one (`408`).
    deadline: Instant,
    /// When this connection's pending deadline-heap entry is due, if any.
    scheduled: Option<Instant>,
    _permit: ConnPermit,
}

/// Epoll keys of the listener and the wake-up eventfd; connection ids lie between.
const LISTENER: u64 = 0;
const WAKE: u64 = u64::MAX;
const CONN_EVENTS: u32 = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;

/// Connections waiting for bytes, and a `(due, key)` deadline min-heap. An
/// entry is live while it equals its connection's `scheduled` (stale ones
/// are skipped); each parked connection has a live entry due by its deadline.
#[derive(Default)]
struct Parked {
    conns: HashMap<u64, Conn>,
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
}

/// State shared between the reactor and the workers.
struct Shared {
    config: ServerConfig,
    stop: AtomicBool,
    /// Connections with a complete request buffered, awaiting a worker.
    ready: Mutex<VecDeque<Conn>>,
    ready_cv: Condvar,
    parked: Mutex<Parked>,
    epoll: Epoll,
}

impl Shared {
    /// Parks `conn` and arms it (`op` adds or re-arms the socket) under one
    /// lock, so the reactor never sees an event for an absent connection.
    /// A pending heap entry due by the new deadline covers it; otherwise a
    /// new one is pushed, waking the reactor if it is the earliest.
    fn park(&self, mut conn: Conn, op: i32) {
        let (id, fd, deadline) = (conn.id, conn.stream.as_raw_fd(), conn.deadline);
        let mut parked = self.parked.lock().unwrap();
        let now = Instant::now();
        let mut earliest = false;
        if !matches!(conn.scheduled, Some(due) if now < due && due <= deadline) {
            earliest = parked.deadlines.peek().is_none_or(|e| deadline < e.0 .0);
            parked.deadlines.push(Reverse((deadline, id)));
            conn.scheduled = Some(deadline);
        }
        parked.conns.insert(id, conn);
        if self.epoll.ctl(op, fd, CONN_EVENTS, id).is_err() {
            parked.conns.remove(&id);
        } else if earliest {
            drop(parked);
            self.epoll.wake();
        }
    }

    /// The next connection with a complete request; `None` at shutdown.
    fn next_ready(&self) -> Option<Conn> {
        let mut ready = self.ready.lock().unwrap();
        loop {
            if let Some(conn) = ready.pop_front() {
                return Some(conn);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            ready = self.ready_cv.wait(ready).unwrap();
        }
    }
}

/// Reads what a parked connection received, then queues it for a worker
/// (a request or protocol error is complete), parks it again, or drops it.
fn poll_conn(mut conn: Conn, shared: &Shared) {
    let before = conn.buf.len();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            // A peer close with a partial request pending is a
            // mid-request disconnect; either way the connection is done.
            Ok(0) => return,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                if conn.buf.len() - before >= READ_BURST {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
    if parse_request(&conn.buf) != ParseOutcome::Incomplete {
        shared.ready.lock().unwrap().push_back(conn);
        shared.ready_cv.notify_one();
        return;
    }
    if before == 0 && !conn.buf.is_empty() {
        conn.deadline = Instant::now() + shared.config.request_timeout;
    }
    shared.park(conn, EPOLL_CTL_MOD);
}

/// Answers a request that is not routed — a protocol error or a slow
/// loris — with `status`, and closes.
fn reject(conn: Conn, status: u16, message: &str, shared: &Shared) {
    let Conn { id, mut stream, .. } = conn;
    let body = error_body(status, message);
    let _ = respond(&mut stream, status, &body, true, None, JSON_CONTENT_TYPE);
    count_request("unmatched", status);
    shared.config.log.record(&RequestRecord {
        conn: id,
        request_id: next_request_id(),
        method: "-".into(),
        path: "-".into(),
        status,
        micros: 0,
    });
}

/// Drains every complete pipelined request buffered on `conn`, in order,
/// then parks and re-arms the connection (or drops it on close/error).
/// Runs on a worker thread with the socket in blocking mode for the
/// response writes.
fn serve_ready(mut conn: Conn, service: &CornetService, shared: &Shared) {
    let config = &shared.config;
    if conn.stream.set_nonblocking(false).is_err() {
        return;
    }
    loop {
        match parse_request(&conn.buf) {
            ParseOutcome::Ready { request, consumed } => {
                conn.buf.drain(..consumed);
                // Request id + span: trace events the handler emits on
                // this thread (learner stages, …) carry the id, and the
                // timer lands the full handling latency — routing plus
                // response write — in the per-route histogram.
                let request_id = next_request_id();
                let _id_guard = cornet_obs::set_request_id(request_id);
                let label = route_label(&request.method, &request.path);
                let metrics = http_metrics();
                metrics.inflight.inc();
                let t0 = Instant::now();
                let timer = StageTimer::start(label, route_histogram(label));
                let (status, body, content_type) = if config.metrics && label == "/metrics" {
                    (200, service.metrics_text(), METRICS_CONTENT_TYPE)
                } else {
                    let (status, body) = route(service, &request);
                    (status, body, JSON_CONTENT_TYPE)
                };
                let close = !request.keep_alive;
                let wrote = respond(&mut conn.stream, status, &body, close, None, content_type);
                drop(timer);
                metrics.inflight.dec();
                count_request(label, status);
                config.log.record(&RequestRecord {
                    conn: conn.id,
                    request_id,
                    method: request.method,
                    path: request.path,
                    status,
                    micros: t0.elapsed().as_micros() as u64,
                });
                if wrote.is_err() || close {
                    return;
                }
            }
            ParseOutcome::Bad { status, message } => return reject(conn, status, &message, shared),
            ParseOutcome::Incomplete => break,
        }
    }
    let wait = if conn.buf.is_empty() {
        config.keep_alive
    } else {
        config.request_timeout
    };
    conn.deadline = Instant::now() + wait;
    if conn.stream.set_nonblocking(true).is_ok() {
        shared.park(conn, EPOLL_CTL_MOD);
    }
}

/// Sheds one over-cap connection with a `503` + `Retry-After` (on the
/// reactor, bounded by a short write timeout).
fn shed(mut stream: TcpStream) {
    http_metrics().shed.inc();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = error_body(503, "server at connection capacity, retry shortly");
    let _ = respond(&mut stream, 503, &body, true, Some(1), JSON_CONTENT_TYPE);
}

/// The reactor thread: waits for readiness or the earliest deadline.
fn run_reactor(listener: TcpListener, shared: &Shared, live: &Arc<AtomicUsize>) {
    let mut events = [EpollEvent::default(); 64];
    let mut next_id = LISTENER;
    let mut timeout = None;
    while !shared.stop.load(Ordering::SeqCst) {
        let Ok(n) = shared.epoll.wait(&mut events, timeout) else {
            break;
        };
        for event in &events[..n] {
            let key = event.key; // a copy: the struct is packed
            match key {
                WAKE => shared.epoll.drain_wake(),
                LISTENER => accept(&listener, shared, live, &mut next_id),
                id => {
                    let conn = shared.parked.lock().unwrap().conns.remove(&id);
                    if let Some(conn) = conn {
                        poll_conn(conn, shared);
                    }
                }
            }
        }
        timeout = expire(&listener, shared);
    }
}

/// Arms the listener for one readiness event (`op` adds or re-arms it).
fn arm_listener(listener: &TcpListener, shared: &Shared, op: i32) -> io::Result<()> {
    let fd = listener.as_raw_fd();
    shared.epoll.ctl(op, fd, EPOLLIN | EPOLLONESHOT, LISTENER)
}

/// Admits every pending connection (shedding those over the cap) and
/// re-arms the listener, or after a failed `accept` schedules that.
fn accept(listener: &TcpListener, shared: &Shared, live: &Arc<AtomicUsize>, next_id: &mut u64) {
    let config = &shared.config;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                let retry = Instant::now() + ACCEPT_BACKOFF;
                let mut parked = shared.parked.lock().unwrap();
                parked.deadlines.push(Reverse((retry, LISTENER)));
                return;
            }
        };
        if live.load(Ordering::SeqCst) >= config.max_connections {
            shed(stream);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        http_metrics().connections.inc();
        let permit = ConnPermit(Arc::clone(live));
        if stream.set_nonblocking(true).is_err() {
            continue; // permit drop restores the count
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(config.request_timeout));
        *next_id += 1;
        let conn = Conn {
            id: *next_id,
            stream,
            buf: Vec::new(),
            deadline: Instant::now() + config.keep_alive,
            scheduled: None,
            _permit: permit,
        };
        shared.park(conn, EPOLL_CTL_ADD);
    }
    let _ = arm_listener(listener, shared, EPOLL_CTL_MOD);
}

/// Pops every due heap entry: re-arms a backed-off listener, reaps parked
/// connections past their deadline (a partial request gets a `408`), and
/// re-schedules those whose deadline moved. Returns the time to the next.
fn expire(listener: &TcpListener, shared: &Shared) -> Option<Duration> {
    let now = Instant::now();
    let mut expired = Vec::new();
    let mut guard = shared.parked.lock().unwrap();
    let parked = &mut *guard;
    let next = loop {
        let Some(&Reverse((due, key))) = parked.deadlines.peek() else {
            break None;
        };
        if due > now {
            break Some(due - now);
        }
        parked.deadlines.pop();
        match parked.conns.get_mut(&key) {
            None if key == LISTENER => drop(arm_listener(listener, shared, EPOLL_CTL_MOD)),
            Some(conn) if conn.scheduled == Some(due) && conn.deadline <= now => {
                expired.extend(parked.conns.remove(&key))
            }
            Some(conn) if conn.scheduled == Some(due) => {
                let deadline = conn.deadline;
                conn.scheduled = Some(deadline);
                parked.deadlines.push(Reverse((deadline, key)));
            }
            // Stale: the connection is gone, busy on a worker that will
            // park it anew, or covered by a later entry.
            _ => {}
        }
    };
    drop(guard);
    for conn in expired {
        // An idle keep-alive socket just closes; a slow loris is told first
        // (best effort on the non-blocking socket).
        if !conn.buf.is_empty() {
            http_metrics().timeouts.inc();
            reject(conn, 408, "request did not complete in time", shared);
        }
    }
    next
}

/// A running HTTP server; see the module docs for the thread layout.
pub struct Server {
    addr: SocketAddr,
    /// `None` once shut down: the last reference, so dropping it closes
    /// the epoll and wake descriptors and every remaining connection.
    shared: Option<Arc<Shared>>,
    live: Arc<AtomicUsize>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `service` with [`ServerConfig::from_env`] until
    /// [`Server::shutdown`] (or drop).
    pub fn start(addr: &str, service: Arc<CornetService>) -> io::Result<Server> {
        Server::start_with(addr, service, ServerConfig::from_env())
    }

    /// [`Server::start`] with explicit tuning knobs.
    pub fn start_with(
        addr: &str,
        service: Arc<CornetService>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers = match config.workers {
            0 => cornet_pool::current_threads().clamp(2, 16),
            n => n,
        };
        let shared = Arc::new(Shared {
            config,
            stop: AtomicBool::new(false),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            parked: Mutex::default(),
            epoll: Epoll::new(WAKE)?,
        });
        arm_listener(&listener, &shared, EPOLL_CTL_ADD)?;
        let live = Arc::new(AtomicUsize::new(0));

        let mut threads = Vec::with_capacity(workers + 1);
        let (reactor_shared, reactor_live) = (Arc::clone(&shared), Arc::clone(&live));
        threads.push(std::thread::spawn(move || {
            run_reactor(listener, &reactor_shared, &reactor_live)
        }));
        threads.extend((0..workers).map(|_| {
            let shared = Arc::clone(&shared);
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                while let Some(conn) = shared.next_ready() {
                    serve_ready(conn, &service, &shared);
                }
            })
        }));
        Ok(Server {
            addr,
            shared: Some(shared),
            live,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently live connections (idle keep-alive sockets
    /// included) — the quantity the accept-time cap is enforced against.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Stops accepting, joins every thread, and closes the listener, the
    /// reactor's descriptors and every remaining connection.
    pub fn shutdown(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared.stop.store(true, Ordering::SeqCst);
            shared.epoll.wake();
            // Take the queue lock between setting `stop` and notifying: a
            // worker that saw `stop` unset is then already waiting.
            drop(shared.ready.lock().unwrap());
            shared.ready_cv.notify_all();
            for t in self.threads.drain(..) {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------------

/// Serializes one request the way the bundled clients send it (HTTP/1.1,
/// length-framed body, explicit `Connection` header). Also the input
/// side of the conformance suite's serialize→parse round-trips.
pub fn encode_request(method: &str, path: &str, body: Option<&str>, close: bool) -> String {
    let body = body.unwrap_or("");
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: cornet\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

/// One parsed response from the bundled clients.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded JSON body.
    pub body: Json,
}

impl HttpResponse {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let (_, value) = self
            .headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))?;
        Some(value)
    }
}

/// Reads exactly one `Content-Length`-framed response from `stream`
/// without over-reading into the next pipelined response, and decodes
/// the body as JSON (every endpoint except `/metrics`).
pub fn read_response(stream: &mut TcpStream) -> io::Result<HttpResponse> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let (status, headers, text) = read_response_text(stream)?;
    let body =
        cornet_serde::parse(&text).map_err(|e| invalid(&format!("bad JSON response body: {e}")))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// [`read_response`] without the JSON decode: returns the raw body text.
/// This is what `/metrics` scrapers use — the exposition is Prometheus
/// text, not JSON.
pub fn read_response_text(
    stream: &mut TcpStream,
) -> io::Result<(u16, Vec<(String, String)>, String)> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Byte-at-a-time keeps the reader trivially correct about framing;
    // response heads are tiny.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return Err(invalid("response head too large"));
        }
        match stream.read(&mut byte)? {
            0 => return Err(invalid("connection closed mid-response")),
            _ => head.push(byte[0]),
        }
    }
    let head = String::from_utf8(head).map_err(|_| invalid("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("missing response status"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| invalid("bad Content-Length"))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match stream.read(&mut body[filled..])? {
            0 => return Err(invalid("connection closed mid-body")),
            n => filled += n,
        }
    }
    let text = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 response body"))?;
    Ok((status, headers, text))
}

/// A blocking keep-alive HTTP/1.1 client: many requests over one socket.
/// Used by the load harness, the conformance suite and the smoke driver.
pub struct HttpClient {
    stream: TcpStream,
}

impl HttpClient {
    /// Connects with the standard client timeouts and `TCP_NODELAY`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        Ok(HttpClient { stream })
    }

    /// Sends one keep-alive request and reads its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        self.send_raw(encode_request(method, path, body, false).as_bytes())?;
        self.read_one()
    }

    /// Writes raw bytes (for pipelining and protocol-error tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one framed response (pair with [`HttpClient::send_raw`]).
    pub fn read_one(&mut self) -> io::Result<HttpResponse> {
        read_response(&mut self.stream)
    }
}

/// A minimal one-shot blocking client for tests, the smoke driver and
/// scripts: sends one HTTP/1.1 request with `Connection: close`, returns
/// `(status, envelope)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, Json)> {
    let mut client = HttpClient::connect(addr)?;
    client.send_raw(encode_request(method, path, body, true).as_bytes())?;
    let response = client.read_one()?;
    Ok((response.status, response.body))
}

/// [`http_request`] for non-JSON endpoints: one `Connection: close`
/// request, raw body text back. The one-shot way to scrape `/metrics`.
pub fn http_request_text(addr: SocketAddr, method: &str, path: &str) -> io::Result<(u16, String)> {
    let mut client = HttpClient::connect(addr)?;
    client.send_raw(encode_request(method, path, None, true).as_bytes())?;
    let (status, _, text) = read_response_text(&mut client.stream)?;
    Ok((status, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::path::PathBuf;

    /// A server over a temporary store, shut down and removed on drop.
    struct TestServer(Server, PathBuf);

    impl Drop for TestServer {
        fn drop(&mut self) {
            self.0.shutdown();
            std::fs::remove_dir_all(&self.1).ok();
        }
    }

    fn temp_server(tag: &str) -> (TestServer, SocketAddr) {
        temp_server_with(tag, ServerConfig::from_env())
    }

    fn temp_server_with(tag: &str, config: ServerConfig) -> (TestServer, SocketAddr) {
        let dir =
            std::env::temp_dir().join(format!("cornet-http-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Arc::new(
            CornetService::new(&ServiceConfig {
                store_dir: dir.clone(),
                cache_capacity: 16,
                ..ServiceConfig::default()
            })
            .unwrap(),
        );
        let server = Server::start_with("127.0.0.1:0", service, config).unwrap();
        let addr = server.addr();
        (TestServer(server, dir), addr)
    }

    #[test]
    fn health_and_unknown_route() {
        let (_server, addr) = temp_server("health");
        let (status, doc) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        let payload = cornet_serde::open_envelope(&doc, "health").unwrap();
        assert_eq!(payload.get("status").and_then(Json::as_str), Some("ok"));

        let (status, doc) = http_request(addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        assert!(cornet_serde::open_envelope(&doc, "error").is_ok());
    }

    #[test]
    fn learn_over_the_wire() {
        let (_server, addr) = temp_server("learn");
        let body = r#"{"cells":["RW-187","RS-762","RW-159","RW-131-T","TW-224","RW-312"],"examples":[0,2,5]}"#;
        let (status, doc) = http_request(addr, "POST", "/learn", Some(body)).unwrap();
        assert_eq!(status, 200, "{doc}");
        let payload = cornet_serde::open_envelope(&doc, "learn").unwrap();
        let matches: Vec<usize> = Vec::from_json(payload.get("matches").unwrap()).unwrap();
        assert_eq!(matches, vec![0, 2, 5]);

        let bad = http_request(addr, "POST", "/learn", Some("{oops")).unwrap();
        assert_eq!(bad.0, 400);
    }

    #[test]
    fn suggest_over_the_wire() {
        let (_server, addr) = temp_server("suggest");
        let learn = r#"{"cells":["RW-187","RS-762","RW-159","RW-131-T","TW-224","RW-312"],"examples":[0,2,5]}"#;
        let (status, _) = http_request(addr, "POST", "/learn", Some(learn)).unwrap();
        assert_eq!(status, 200);

        // A bare column — no examples anywhere in the request.
        let ask = r#"{"cells":["RW-555","XQ-12","RW-901"]}"#;
        let (status, doc) = http_request(addr, "POST", "/suggest", Some(ask)).unwrap();
        assert_eq!(status, 200, "{doc}");
        let payload = cornet_serde::open_envelope(&doc, "suggest").unwrap();
        let suggestions = payload
            .get("suggestions")
            .and_then(Json::as_array)
            .expect("suggestions array");
        assert_eq!(suggestions.len(), 1);
        let matches: Vec<usize> = Vec::from_json(suggestions[0].get("matches").unwrap()).unwrap();
        assert!(matches.contains(&0) && !matches.contains(&1), "{matches:?}");

        let bad = http_request(addr, "POST", "/suggest", Some("{}")).unwrap();
        assert_eq!(bad.0, 400, "missing cells");
    }

    #[test]
    fn a_slow_client_does_not_block_other_requests() {
        let (_server, addr) = temp_server("slow-client");
        // A client that opens a connection, sends half a request head and
        // then stalls. It stays parked and occupies no worker at all.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"POST /learn HTTP/1.1\r\nContent-").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "health blocked behind the stalled client for {:?}",
            started.elapsed()
        );
        drop(slow);
    }

    #[test]
    fn concurrent_requests_all_get_answers() {
        let (_server, addr) = temp_server("concurrent");
        let handles: Vec<_> = (0..12)
            .map(|_| {
                std::thread::spawn(move || {
                    http_request(addr, "GET", "/health", None).map(|(s, _)| s)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), 200);
        }
    }

    #[test]
    fn method_mismatch_is_a_404() {
        let (_server, addr) = temp_server("method");
        let (status, _) = http_request(addr, "GET", "/learn", None).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn keep_alive_socket_serves_many_requests() {
        let (_server, addr) = temp_server("keep-alive");
        let mut client = HttpClient::connect(addr).unwrap();
        for _ in 0..4 {
            let response = client.request("GET", "/health", None).unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (_server, addr) = temp_server("metrics");
        let learn = r#"{"cells":["RW-187","RS-762","RW-159"],"examples":[0,2]}"#;
        let (status, _) = http_request(addr, "POST", "/learn", Some(learn)).unwrap();
        assert_eq!(status, 200);
        let (status, text) = http_request_text(addr, "GET", "/metrics").unwrap();
        assert_eq!(status, 200);
        let expo = cornet_obs::expo::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(
            expo.value("cornet_service_learns_performed", &[]),
            Some(1.0)
        );
        assert!(
            expo.value(
                "cornet_http_requests_total",
                &[("route", "/learn"), ("status", "200")]
            )
            .is_some_and(|v| v >= 1.0),
            "per-route request counter missing:\n{text}"
        );
    }

    #[test]
    fn metrics_endpoint_can_be_disabled() {
        let config = ServerConfig {
            metrics: false,
            ..ServerConfig::default()
        };
        let (_server, addr) = temp_server_with("metrics-off", config);
        let (status, _) = http_request_text(addr, "GET", "/metrics").unwrap();
        assert_eq!(status, 404, "gated-off /metrics falls through to 404");
    }

    #[test]
    fn request_records_carry_distinct_request_ids() {
        let log = Arc::new(VecLog::default());
        let config = ServerConfig {
            log: Arc::clone(&log) as Arc<dyn RequestLog>,
            ..ServerConfig::default()
        };
        let (server, addr) = temp_server_with("request-ids", config);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    http_request(addr, "GET", "/health", None).map(|(s, _)| s)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), 200);
        }
        drop(server); // joins the workers, so every record is in
        let records = log.records();
        assert_eq!(records.len(), 4);
        let mut ids: Vec<u64> = records.iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "request ids must be process-unique");
        // Each record is one complete unit: concurrent workers must never
        // interleave fields across records (the log-seam atomicity
        // contract StderrLog's single locked write upholds on stderr).
        for r in &records {
            assert_eq!(r.method, "GET");
            assert_eq!(r.path, "/health");
            assert_eq!(r.status, 200);
            let line = format_record(r);
            assert!(
                line.ends_with('\n') && line.matches('\n').count() == 1,
                "one record must format as exactly one line: {line:?}"
            );
        }
    }

    #[test]
    fn route_labels_normalize_parameters() {
        assert_eq!(route_label("GET", "/session/s42"), "/session/:id");
        assert_eq!(
            route_label("POST", "/session/s42/correct"),
            "/session/:id/correct"
        );
        assert_eq!(route_label("GET", "/rules/r0f"), "/rules/:id");
        assert_eq!(route_label("GET", "/metrics"), "/metrics");
        assert_eq!(route_label("POST", "/metrics"), "unmatched");
        assert_eq!(route_label("GET", "/whatever/else"), "unmatched");
    }

    #[test]
    fn parser_covers_framing_and_connection_semantics() {
        // Incremental completion: every prefix is Incomplete.
        let wire = encode_request("POST", "/learn", Some(r#"{"x":1}"#), false);
        let bytes = wire.as_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                parse_request(&bytes[..cut]),
                ParseOutcome::Incomplete,
                "cut at {cut}"
            );
        }
        match parse_request(bytes) {
            ParseOutcome::Ready { request, consumed } => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/learn");
                assert_eq!(request.body, r#"{"x":1}"#);
                assert!(request.keep_alive);
            }
            other => panic!("{other:?}"),
        }

        // HTTP/1.0 defaults to close, 1.1 to keep-alive; explicit
        // Connection headers override both.
        let old = b"GET /health HTTP/1.0\r\n\r\n";
        match parse_request(old) {
            ParseOutcome::Ready { request, .. } => assert!(!request.keep_alive),
            other => panic!("{other:?}"),
        }
        let old_keep = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        match parse_request(old_keep) {
            ParseOutcome::Ready { request, .. } => assert!(request.keep_alive),
            other => panic!("{other:?}"),
        }
        let close = encode_request("GET", "/health", None, true);
        match parse_request(close.as_bytes()) {
            ParseOutcome::Ready { request, .. } => assert!(!request.keep_alive),
            other => panic!("{other:?}"),
        }

        // Query strings are stripped from the path.
        let query = b"GET /health?verbose=1 HTTP/1.1\r\n\r\n";
        match parse_request(query) {
            ParseOutcome::Ready { request, .. } => assert_eq!(request.path, "/health"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parser_rejections_carry_the_right_status() {
        let cases: &[(&[u8], u16)] = &[
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /x HTTP/2.0\r\n\r\n", 400),
            (b"GET  /x HTTP/1.1\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                400,
            ),
            (b"POST /x HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n", 413),
        ];
        for (wire, want) in cases {
            match parse_request(wire) {
                ParseOutcome::Bad { status, .. } => {
                    assert_eq!(status, *want, "{:?}", String::from_utf8_lossy(wire))
                }
                other => panic!("{:?} → {other:?}", String::from_utf8_lossy(wire)),
            }
        }
    }
}
