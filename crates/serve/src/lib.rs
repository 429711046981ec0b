//! **cornet-serve** — the Cornet learner as a service.
//!
//! The ROADMAP's north star is a production-scale rule-formatting
//! service; this crate is the serving layer over the learner core:
//!
//! * [`store`] — a persistent rule store: one append-only log,
//!   `rules.log`, of `<rule-id>\t{"v":1,"kind":"stored-rule",…}` lines
//!   (`cornet_serde` envelopes), synced before each write is
//!   acknowledged, indexed in memory by id and fronted by an in-memory
//!   LRU. Rule ids are content fingerprints of the learn request, so an
//!   identical request — in this process or after a restart — is
//!   answered from the store without re-learning.
//! * [`service`] — the transport-independent service:
//!   [`service::CornetService`] exposes `learn` (examples in → rule out),
//!   `score` (rule + rows in → labels out), `batch` (fanned onto
//!   `cornet-pool`) and the demo paper's correct-and-relearn `session`
//!   loop.
//! * [`http`] — a `std::net` HTTP/1.1 keep-alive front-end: an `epoll`
//!   reactor thread accepts and owns every idle connection, each armed
//!   one-shot so it wakes the reactor only when bytes arrive (parked
//!   keep-alive sockets never pin a worker, and an idle server never
//!   wakes); complete requests go to a fixed worker pool that drains
//!   pipelined requests in order and re-arms the connection itself; a
//!   deadline heap enforces the keep-alive and slow-loris timeouts; and
//!   a hard connection cap sheds overload with `503` + `Retry-After`
//!   instead of silent drops. Per-request logging (method, path, status, µs
//!   latency, connection id) hangs off the [`http::RequestLog`] seam;
//!   [`http::HttpClient`] / [`http::http_request`] are the matching
//!   minimal clients.
//! * [`suggest`] — zero-example suggestion: every learned rule's column
//!   signature is embedded and indexed in a tenant-namespaced ball tree
//!   ([`cornet_nn::BallTree`]), so `POST /suggest` retrieves and
//!   re-scores the nearest stored rules for a bare column in sublinear
//!   time, with no learner run at all.
//! * [`smoke`] — the scripted learn→score→correct→re-learn→restart
//!   session used by the CI smoke job and the `cornet-serve smoke`
//!   subcommand.
//!
//! ```no_run
//! use cornet_serve::service::{CornetService, LearnRequest, ServiceConfig};
//!
//! let service = CornetService::new(&ServiceConfig::default()).unwrap();
//! let learned = service
//!     .learn(&LearnRequest {
//!         cells: vec!["RW-187".into(), "RS-762".into(), "RW-159".into()],
//!         examples: vec![0, 2],
//!         negatives: vec![],
//!         classes: vec![],
//!         tenant: None,
//!     })
//!     .unwrap();
//! println!("{} → {}", learned.rule_id, learned.rule_text);
//! ```

mod epoll;
pub mod http;
pub mod service;
pub mod sha256;
pub mod smoke;
pub mod store;
pub mod suggest;

pub use http::{
    http_request, HttpClient, HttpResponse, RequestLog, RequestRecord, Server, ServerConfig,
};
pub use service::{
    ClassRequest, CornetService, LearnRequest, ScoreRequest, ServeError, ServiceConfig,
};
pub use store::{RuleStore, StoredRule};
pub use suggest::{SuggestIndex, SuggestRequest, SuggestResponse, Suggestion};
