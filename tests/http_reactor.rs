//! The epoll reactor behind the HTTP front-end: what it costs while
//! connections sit idle, that shutdown releases everything it opened, and
//! the re-arm paths a one-shot registration relies on.
//!
//! The tests measure the whole process (CPU time, open descriptors), so
//! each one holds [`serial`] to keep the others out of its window.

use cornet_repro::serve::http::{
    encode_request, HttpClient, RequestLog, RequestRecord, Server, ServerConfig, VecLog,
};
use cornet_repro::serve::service::{CornetService, ServiceConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Store(PathBuf);

impl Store {
    fn new(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("cornet-reactor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store(dir)
    }

    fn service(&self) -> Arc<CornetService> {
        Arc::new(
            CornetService::new(&ServiceConfig {
                store_dir: self.0.clone(),
                cache_capacity: 16,
                ..ServiceConfig::default()
            })
            .unwrap(),
        )
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// User plus system CPU time this process has used so far.
fn process_cpu() -> Duration {
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    // SAFETY: `sysconf` reads a constant and has no preconditions.
    let per_second = unsafe { sysconf(SC_CLK_TCK) } as f64;
    Duration::from_secs_f64(ticks as f64 / per_second)
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Opens `n` keep-alive connections, each served one request, so all of
/// them end up parked on the reactor.
fn parked_clients(server: &Server, n: usize) -> Vec<HttpClient> {
    (0..n)
        .map(|_| {
            let mut client = HttpClient::connect(server.addr()).unwrap();
            assert_eq!(client.request("GET", "/health", None).unwrap().status, 200);
            client
        })
        .collect()
}

#[test]
fn idle_keep_alive_connections_cost_no_cpu() {
    let _serial = serial();
    let store = Store::new("idle");
    let server =
        Server::start_with("127.0.0.1:0", store.service(), ServerConfig::default()).unwrap();
    let clients = parked_clients(&server, 200);
    assert_eq!(server.live_connections(), 200);

    let window = Duration::from_secs(3);
    let (cpu0, t0) = (process_cpu(), Instant::now());
    std::thread::sleep(window);
    let used = process_cpu() - cpu0;
    let share = used.as_secs_f64() / t0.elapsed().as_secs_f64();
    assert!(
        share < 0.03,
        "200 idle connections used {:.1}% of a core ({used:?} in {window:?})",
        share * 100.0
    );
    drop(clients);
}

#[test]
fn shutdown_with_parked_connections_is_prompt_and_closes_every_fd() {
    let _serial = serial();
    let store = Store::new("shutdown");
    // Counted before the service opens its rule log: the server owns the
    // service, so its shutdown closes the log too.
    let before = open_fds();
    let service = store.service();
    let mut server = Server::start_with("127.0.0.1:0", service, ServerConfig::default()).unwrap();
    let clients = parked_clients(&server, 50);

    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shutdown with parked connections took {:?}",
        t0.elapsed()
    );
    drop(clients);
    // The listener, the epoll set, the wake-up eventfd, every accepted
    // socket and the service's rule log are closed by the time `shutdown`
    // returns.
    assert_eq!(open_fds(), before, "descriptors leaked by the server");
    drop(server);
}

#[test]
fn a_request_trickled_byte_by_byte_is_answered_not_timed_out() {
    let _serial = serial();
    let store = Store::new("trickle");
    let log = Arc::new(VecLog::default());
    let config = ServerConfig {
        request_timeout: Duration::from_secs(5),
        log: log.clone(),
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", store.service(), config).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // Every byte is its own segment (the client sets TCP_NODELAY), so the
    // reactor sees the request as a run of `Incomplete` reads and must
    // re-arm the connection after each one.
    for byte in encode_request("GET", "/health", None, false).bytes() {
        client.send_raw(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let response = client.read_one().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("keep-alive"));
    drop(server);
    let statuses: Vec<u16> = log.records().iter().map(|r| r.status).collect();
    assert_eq!(statuses, vec![200], "no 408 for a request that kept coming");
}

/// Holds the worker inside its first request's log record (after the
/// response is written, before the connection is parked again) until the
/// test lets it go.
struct GateLog {
    gated: AtomicBool,
    entered: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl RequestLog for GateLog {
    fn record(&self, _record: &RequestRecord) {
        if !self.gated.swap(true, Ordering::SeqCst) {
            self.entered.lock().unwrap().send(()).unwrap();
            let release = self.release.lock().unwrap();
            release.recv_timeout(Duration::from_secs(10)).unwrap();
        }
    }
}

#[test]
fn bytes_that_arrive_before_the_re_arm_are_not_lost() {
    let _serial = serial();
    let store = Store::new("rearm");
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let log = Arc::new(GateLog {
        gated: AtomicBool::new(false),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    });
    let config = ServerConfig {
        log,
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", store.service(), config).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    client
        .send_raw(encode_request("GET", "/health", None, false).as_bytes())
        .unwrap();
    // The worker still holds the connection: the second request, sent
    // before the first response is read, lands in the socket rather than
    // in the buffer the worker drains.
    entered.recv_timeout(Duration::from_secs(10)).unwrap();
    client
        .send_raw(encode_request("GET", "/no/such/route", None, false).as_bytes())
        .unwrap();
    // Let loopback delivery queue the bytes before the worker re-arms.
    std::thread::sleep(Duration::from_millis(20));
    release.send(()).unwrap();

    // Their readiness came while the connection was off the reactor; the
    // worker's re-arm re-polls the socket and reports them at once.
    let statuses: Vec<u16> = (0..2).map(|_| client.read_one().unwrap().status).collect();
    assert_eq!(statuses, vec![200, 404], "both answered, in request order");
}

#[test]
fn idle_keep_alive_connections_are_closed_after_the_window() {
    let _serial = serial();
    let store = Store::new("keep-alive");
    let config = ServerConfig {
        keep_alive: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", store.service(), config).unwrap();
    // One connection that never sends a byte, and one whose request moved
    // its deadline past the heap entry scheduled at accept.
    let _silent = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut served = HttpClient::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(served.request("GET", "/health", None).unwrap().status, 200);
    assert_eq!(server.live_connections(), 2);

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.live_connections(), 0, "idle connections reaped");
    assert!(served.request("GET", "/health", None).is_err(), "closed");
}
