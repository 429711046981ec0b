//! The load generator: at most `nproc` keep-alive connections, one client
//! thread each, sending a precomputed schedule of requests.
//!
//! Open loop: request `i` is due at `start + due_us`; whichever thread is
//! free takes the next request, waits for its due time and sends it.
//! Latency runs from the due time, so a stall counts against every request
//! queued behind it. Closed loop: every `due_us` is zero and latency runs
//! from the actual send.

use cornet_serve::http::encode_request;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The request kinds the workloads send; each has its own latency metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/score` by stored id.
    Score,
    /// `/suggest` on a bare column.
    Suggest,
    /// `/learn` the store already holds.
    LearnHit,
    /// `/learn` of a column the store has never seen.
    LearnCold,
    /// `POST /session` (a cold learn that opens a session).
    Session,
    /// `POST /session/<id>/correct`.
    Correct,
}

impl Kind {
    pub fn path(self) -> &'static str {
        match self {
            Kind::Score => "/score",
            Kind::Suggest => "/suggest",
            Kind::LearnHit | Kind::LearnCold => "/learn",
            Kind::Session => "/session",
            Kind::Correct => "/session/:id/correct",
        }
    }
}

/// One scheduled request. `slot` ties a session's create and corrections
/// together.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    pub body: String,
    pub due_us: u64,
    pub slot: usize,
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Done {
    pub req: usize,
    /// Microseconds after the phase start.
    pub due_us: u64,
    pub sent_us: u64,
    pub done_us: u64,
    /// 0 when the transport failed.
    pub status: u16,
    pub body: String,
}

impl Done {
    /// Latency as the user sees it: from the due time in an open loop,
    /// from the send in a closed loop (where `due_us` is zero).
    pub fn latency_us(&self) -> u64 {
        self.done_us - self.due_us
    }

    /// How late the generator sent the request.
    pub fn lag_us(&self) -> u64 {
        self.sent_us - self.due_us
    }
}

/// A keep-alive connection with a buffered reader. One request is in
/// flight at a time, so buffering can never swallow another response.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and returns `(status, raw body)`.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.writer
            .write_all(encode_request(method, path, body, false).as_bytes())?;
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?,
        ))
    }
}

/// Session ids handed out by `POST /session`, filled as creates complete;
/// a correction waits for its session's id.
struct Slots {
    ids: Mutex<Vec<Option<Option<String>>>>,
    filled: Condvar,
}

fn session_id(body: &str) -> Option<String> {
    let rest = body.split("\"session_id\":\"").nth(1)?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Runs `reqs` on `threads` connections. A closed loop (`deadline` set)
/// times each request from its send and starts none after the deadline;
/// an open loop runs its whole schedule.
pub fn run(
    addr: SocketAddr,
    reqs: &[Req],
    threads: usize,
    sessions: usize,
    deadline: Option<Duration>,
) -> io::Result<(Vec<Done>, Duration)> {
    let next = AtomicUsize::new(0);
    let slots = Slots {
        ids: Mutex::new(vec![None; sessions]),
        filled: Condvar::new(),
    };
    let mut conns = (0..threads)
        .map(|_| Conn::connect(addr))
        .collect::<io::Result<Vec<Conn>>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next, slots) = (&next, &slots);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // Checked before taking an index, so every taken
                        // request is sent and no correction waits forever
                        // on a session create nobody sends.
                        if deadline.is_some_and(|d| start.elapsed() >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= reqs.len() {
                            break;
                        }
                        let req = &reqs[i];
                        let due = start + Duration::from_micros(req.due_us);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let path = match req.kind {
                            Kind::Correct => {
                                let mut ids = slots.ids.lock().expect("slots lock");
                                while ids[req.slot].is_none() {
                                    ids = slots.filled.wait(ids).expect("slots lock");
                                }
                                match &ids[req.slot] {
                                    Some(Some(id)) => format!("/session/{id}/correct"),
                                    // The create was refused: nothing to correct.
                                    _ => continue,
                                }
                            }
                            kind => kind.path().to_string(),
                        };
                        let sent = start.elapsed();
                        let (status, body) = conn
                            .send("POST", &path, Some(&req.body))
                            .unwrap_or((0, String::new()));
                        let finished = start.elapsed();
                        if req.kind == Kind::Session {
                            let id = (status == 200).then(|| session_id(&body)).flatten();
                            slots.ids.lock().expect("slots lock")[req.slot] = Some(id);
                            slots.filled.notify_all();
                        }
                        let sent_us = sent.as_micros() as u64;
                        out.push(Done {
                            req: i,
                            due_us: if deadline.is_some() {
                                sent_us
                            } else {
                                req.due_us
                            },
                            sent_us,
                            done_us: finished.as_micros() as u64,
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    done.sort_by_key(|d| d.req);
    Ok((done, elapsed))
}

/// Most requests outstanding (due but not answered) at any instant.
pub fn backlog_max(done: &[Done]) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::with_capacity(done.len() * 2);
    for d in done {
        events.push((d.due_us, 1));
        events.push((d.done_us, -1));
    }
    events.sort_unstable();
    let (mut depth, mut max) = (0i32, 0i32);
    for (_, delta) in events {
        depth += delta;
        max = max.max(depth);
    }
    max as usize
}
