//! The traced run: per-layer metrics.
//!
//! The second half of a workload's main phase runs with
//! `cornet_obs::VecSink` installed, so the spans the program already
//! emits (the per-route HTTP span and the learner's `learn.*` stages)
//! stay in memory; they are joined by request id afterwards. `/metrics`
//! is scraped before and after for the counters. Layers without a span
//! are timed by replaying the traced half's inputs through their public
//! functions. The first half runs untraced; the difference between the
//! halves' client latency is the tracing overhead.

use crate::check::{values_of, Expect};
use crate::client::{backlog_max, Conn, Kind};
use crate::stats::{mean, percentile, Report};
use crate::workloads::{Phase, Run};
use cornet_core::learner::{Cornet, LearnSpec, LearnStats, RuleSetSpec};
use cornet_core::ClassSpec;
use cornet_obs::expo::Exposition;
use cornet_obs::{OwnedTraceEvent, VecSink};
use cornet_serde::{envelope, parse, to_string, FromJson};
use cornet_serve::http::{encode_request, parse_request, route, ParseOutcome, Request};
use cornet_serve::service::{CornetService, LearnRequest, ScoreRequest, ServiceConfig};
use cornet_serve::store::{RuleStore, StoredRule};
use cornet_serve::suggest::{embed_column, SuggestIndex, SuggestRequest};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replays of one kind stop after this many inputs or this much time.
const REPLAY_MAX: usize = 400;
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

/// A traced phase with the spans and counters collected around it.
pub struct Traced {
    pub phase: Phase,
    events: Vec<OwnedTraceEvent>,
    before: Exposition,
    after: Exposition,
}

fn scrape(run: &Run) -> Result<Exposition, String> {
    let mut conn = Conn::connect(run.addr()).map_err(|e| format!("scrape: {e}"))?;
    let (status, text) = conn
        .send("GET", "/metrics", None)
        .map_err(|e| format!("scrape: {e}"))?;
    if status != 200 {
        return Err(format!("scrape: status {status}"));
    }
    cornet_obs::expo::parse(&text)
}

/// Runs `phase` with spans collected in memory and `/metrics` scraped
/// before and after.
pub fn traced(run: &Run, phase: impl FnOnce() -> Result<Phase, String>) -> Result<Traced, String> {
    let before = scrape(run)?;
    let sink = Arc::new(VecSink::default());
    cornet_obs::set_trace_sink(sink.clone());
    let phase = phase();
    cornet_obs::clear_trace_sink();
    let phase = phase?;
    let after = scrape(run)?;
    Ok(Traced {
        phase,
        events: sink.events(),
        before,
        after,
    })
}

impl Traced {
    fn delta(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.after.value(name, labels).unwrap_or(0.0)
            - self.before.value(name, labels).unwrap_or(0.0)
    }
}

/// Mean wall time in µs of `f` over `inputs`, within the replay budget.
fn replay<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    for input in inputs.iter().take(REPLAY_MAX) {
        let t0 = Instant::now();
        f(input);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        if started.elapsed() > REPLAY_BUDGET {
            break;
        }
    }
    mean(&times)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Request bodies of the traced half, by kind.
fn bodies(phase: &Phase, kind: Kind) -> Vec<&str> {
    phase
        .done
        .iter()
        .filter(|d| phase.plan.reqs[d.req].kind == kind && d.status == 200)
        .map(|d| phase.plan.reqs[d.req].body.as_str())
        .collect()
}

/// Runs the learner on a cold input in-process, returning its work counts
/// per learner run.
fn learner_stats(run: &Run, expect: &Expect) -> Vec<LearnStats> {
    let Expect::Learn { task } = expect else {
        return Vec::new();
    };
    let t = &run.tasks[*task];
    let cornet = Cornet::with_default_ranker();
    let values = values_of(&t.cells);
    if t.is_multi() {
        let classes = t
            .classes
            .iter()
            .map(|c| ClassSpec::new(c.style.clone(), c.examples.clone()).with_scope(c.scope))
            .collect();
        let spec = RuleSetSpec::new(values, classes).with_negatives(t.negatives.clone());
        cornet
            .learn_ruleset(&spec)
            .map(|o| o.class_stats)
            .unwrap_or_default()
    } else {
        let spec = LearnSpec::new(values, t.examples.clone()).with_negatives(t.negatives.clone());
        cornet
            .learn_spec(&spec)
            .map(|o| vec![o.stats])
            .unwrap_or_default()
    }
}

/// Prints every per-layer metric of the traced half. `primary` is the
/// route whose client latency the tracing overhead compares.
pub fn report(
    report: &mut Report,
    run: &Run,
    untraced: &Phase,
    traced: Traced,
    primary: Kind,
) -> Result<(), String> {
    let phase = &traced.phase;
    let service = &run.service;

    // Client.
    let lags: Vec<f64> = phase.done.iter().map(|d| d.lag_us() as f64).collect();
    report.metric("client.lag_p99_us", percentile(&lags, 99.0), "us");
    report.metric(
        "client.backlog_max",
        backlog_max(&phase.done) as f64,
        "count",
    );

    // HTTP: the per-route span, joined with client-side latency from the
    // actual send (service time as the client sees it, without the
    // generator's own queueing).
    let mut spans: HashMap<u64, Vec<&OwnedTraceEvent>> = HashMap::new();
    for e in &traced.events {
        if let Some(id) = e.request_id {
            spans.entry(id).or_default().push(e);
        }
    }
    let route_spans: Vec<f64> = traced
        .events
        .iter()
        .filter(|e| e.span == "/score")
        .map(|e| e.micros as f64)
        .collect();
    let score_service: Vec<f64> = phase
        .done
        .iter()
        .zip(&phase.verdicts)
        .filter(|(d, _)| phase.plan.reqs[d.req].kind == Kind::Score && d.status == 200)
        .map(|(d, _)| (d.done_us - d.sent_us) as f64)
        .collect();
    let route_span = mean(&route_spans);
    report.metric("http.route_span_us", route_span, "us");
    report.metric(
        "http.outside_route_us",
        mean(&score_service) - route_span,
        "us",
    );
    let score_bodies = bodies(phase, Kind::Score);
    let requests: Vec<Request> = score_bodies
        .iter()
        .map(|b| Request {
            method: "POST".into(),
            path: "/score".into(),
            body: b.to_string(),
            keep_alive: true,
        })
        .collect();
    report.metric(
        "http.inproc_route_us",
        replay(&requests, |r| {
            black_box(route(service, r));
        }),
        "us",
    );
    let all_bodies: Vec<(Kind, &str)> = phase
        .done
        .iter()
        .map(|d| {
            (
                phase.plan.reqs[d.req].kind,
                phase.plan.reqs[d.req].body.as_str(),
            )
        })
        .collect();
    let wire: Vec<String> = all_bodies
        .iter()
        .map(|(k, b)| encode_request("POST", k.path(), Some(b), false))
        .collect();
    report.metric(
        "http.parse_us",
        replay(&wire, |w| {
            assert!(matches!(
                parse_request(w.as_bytes()),
                ParseOutcome::Ready { .. }
            ));
        }),
        "us",
    );
    report.metric(
        "http.shed",
        traced.delta("cornet_http_shed_total", &[]),
        "count",
    );
    report.metric(
        "http.timeouts",
        traced.delta("cornet_http_timeouts_total", &[]),
        "count",
    );

    // serde: request decode and response encode on the same bodies.
    report.metric(
        "serde.decode_us",
        replay(&all_bodies, |(kind, body)| {
            let doc = parse(body).expect("request bodies are JSON");
            match kind {
                Kind::Score => drop(black_box(ScoreRequest::from_json(&doc))),
                Kind::Suggest => drop(black_box(SuggestRequest::from_json(&doc))),
                Kind::LearnHit | Kind::LearnCold => drop(black_box(LearnRequest::from_json(&doc))),
                _ => drop(black_box(doc)),
            }
        }),
        "us",
    );
    let responses: Vec<(cornet_serde::Json, &str)> = phase
        .done
        .iter()
        .filter(|d| d.status == 200)
        .filter_map(|d| {
            let doc = parse(&d.body).ok()?;
            let kind = doc.get("kind")?.as_str()?.to_string();
            Some((
                doc.get("payload")?.clone(),
                if kind == "score" { "score" } else { "other" },
            ))
        })
        .collect();
    report.metric(
        "serde.encode_us",
        replay(&responses, |(payload, kind)| {
            black_box(to_string(&envelope(kind, payload.clone())));
        }),
        "us",
    );
    let sizes = |f: &dyn Fn(&crate::client::Done) -> usize| -> f64 {
        mean(&phase.done.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
    };
    report.metric(
        "serde.request_bytes",
        sizes(&|d| phase.plan.reqs[d.req].body.len()),
        "bytes",
    );
    report.metric("serde.response_bytes", sizes(&|d| d.body.len()), "bytes");

    // Service: in-process calls on the same inputs. Reads go to the live
    // service (store hits stay hits); learner-bound calls go to a scratch
    // service over an empty store, so every learn is a miss.
    let scores: Vec<ScoreRequest> = score_bodies
        .iter()
        .filter_map(|b| ScoreRequest::from_json(&parse(b).ok()?).ok())
        .collect();
    report.metric(
        "service.score_us",
        replay(&scores, |r| drop(black_box(service.score(r)))),
        "us",
    );
    let cached: Vec<LearnRequest> = phase
        .done
        .iter()
        .filter(|d| d.status == 200 && d.body.contains("\"cached\":true"))
        .filter_map(|d| LearnRequest::from_json(&parse(&phase.plan.reqs[d.req].body).ok()?).ok())
        .collect();
    report.metric(
        "service.learn_hit_us",
        replay(&cached, |r| drop(black_box(service.learn(r)))),
        "us",
    );
    let cold: Vec<(LearnRequest, &Expect)> = phase
        .done
        .iter()
        .filter(|d| {
            phase.plan.reqs[d.req].kind == Kind::LearnCold && d.body.contains("\"cached\":false")
        })
        .filter_map(|d| {
            let req = LearnRequest::from_json(&parse(&phase.plan.reqs[d.req].body).ok()?).ok()?;
            Some((req, &phase.plan.expects[d.req]))
        })
        .collect();
    let scratch_dir = run.work.join("scratch");
    let scratch = CornetService::new(&ServiceConfig {
        store_dir: scratch_dir.clone(),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("scratch service: {e}"))?;
    // Spans stay on during this replay: `learner.other_ms` is the replayed
    // learn time its own stage spans do not cover.
    let replay_sink = Arc::new(VecSink::default());
    cornet_obs::set_trace_sink(replay_sink.clone());
    let mut replayed = 0usize;
    let learn_miss_us = replay(&cold, |(r, _)| {
        replayed += 1;
        drop(black_box(scratch.learn(r)));
    });
    cornet_obs::clear_trace_sink();
    let replay_stage_ms = replay_sink
        .events()
        .iter()
        .filter(|e| e.span.starts_with("learn."))
        .map(|e| e.micros as f64)
        .sum::<f64>()
        / 1e3
        / replayed.max(1) as f64;
    report.metric("service.learn_miss_ms", learn_miss_us / 1e3, "ms");
    let suggests: Vec<SuggestRequest> = bodies(phase, Kind::Suggest)
        .iter()
        .filter_map(|b| SuggestRequest::from_json(&parse(b).ok()?).ok())
        .collect();
    report.metric(
        "service.suggest_us",
        replay(&suggests, |r| drop(black_box(service.suggest(r)))),
        "us",
    );
    let sessions: Vec<(&Expect, Vec<&Expect>)> = phase
        .plan
        .expects
        .iter()
        .filter(|e| matches!(e, Expect::Session { .. }))
        .map(|e| {
            let Expect::Session { slot, .. } = e else {
                unreachable!()
            };
            let fixes = phase
                .plan
                .expects
                .iter()
                .filter(|c| matches!(c, Expect::Correct { slot: s, .. } if s == slot))
                .collect();
            (e, fixes)
        })
        .collect();
    let mut correct_times = Vec::new();
    let started = Instant::now();
    for (open, fixes) in &sessions {
        let Expect::Session { task, .. } = open else {
            continue;
        };
        let t = &run.tasks[*task];
        let Ok(s) = scratch.session_create(t.cells.clone(), t.examples.clone(), Vec::new()) else {
            continue;
        };
        for fix in fixes {
            if let Expect::Correct {
                format, unformat, ..
            } = fix
            {
                let t0 = Instant::now();
                let _ = black_box(scratch.session_correct(&s.session_id, format, unformat, None));
                correct_times.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        if started.elapsed() > REPLAY_BUDGET {
            break;
        }
    }
    report.metric("service.correct_ms", mean(&correct_times), "ms");
    drop(scratch);

    // Store: its own instances over the seeded store (read-only), and a
    // scratch store for puts.
    let mut opens = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        drop(RuleStore::open(&run.store_dir, 256).map_err(|e| format!("store open: {e}"))?);
        opens.push(t0.elapsed().as_secs_f64());
    }
    report.metric("store.open_s", crate::stats::median(&opens), "s");
    let ids: Vec<&str> = run.seeded.iter().take(256).map(|s| s.id.as_str()).collect();
    let mut store = RuleStore::open(&run.store_dir, 256).map_err(|e| format!("store open: {e}"))?;
    report.metric(
        "store.get_disk_us",
        replay(&ids, |id| drop(black_box(store.get(id)))),
        "us",
    );
    report.metric(
        "store.get_hit_us",
        replay(&ids, |id| drop(black_box(store.get(id)))),
        "us",
    );
    let mut scratch_store = RuleStore::open(run.work.join("scratch-store"), 256)
        .map_err(|e| format!("store open: {e}"))?;
    let puts: Vec<StoredRule> = ids.iter().filter_map(|id| store.get(id)).collect();
    report.metric(
        "store.put_us",
        replay(&puts, |r| {
            scratch_store.put(r.clone()).expect("scratch put")
        }),
        "us",
    );
    let hits = traced.delta("cornet_store_hits_total", &[]);
    let misses = traced.delta("cornet_store_misses_total", &[]);
    report.metric("store.hit_ratio", ratio(hits, hits + misses), "share");
    report.metric(
        "store.segment_reads",
        traced.delta("cornet_store_segment_reads_total", &[]),
        "count",
    );
    report.metric(
        "store.fastpath_misses",
        traced.delta("cornet_store_fastpath_misses_total", &[]),
        "count",
    );

    // Suggest: index rebuild, embedding and ball-tree query on the same
    // columns, plus the service's own counters.
    let t0 = Instant::now();
    let mut index = SuggestIndex::new();
    store.for_each_stored(|rule| {
        if let Some(e) = &rule.embedding {
            index.insert(rule.tenant.as_deref(), &rule.id, e);
        }
    });
    report.metric("suggest.index_build_s", t0.elapsed().as_secs_f64(), "s");
    report.metric(
        "suggest.embed_us",
        replay(&suggests, |r| drop(black_box(embed_column(&r.cells)))),
        "us",
    );
    let queries: Vec<Vec<f64>> = suggests.iter().map(|r| embed_column(&r.cells)).collect();
    report.metric(
        "suggest.query_us",
        replay(&queries, |q| drop(black_box(index.query(None, q, 6)))),
        "us",
    );
    report.metric("suggest.indexed", service.suggest_indexed() as f64, "count");
    let queries_served = traced.delta("cornet_suggest_queries_total", &[]);
    let fetched = queries_served * 6.0_f64.min(service.suggest_indexed() as f64);
    report.metric(
        "suggest.kept_ratio",
        ratio(
            traced.delta("cornet_suggest_candidates_total", &[]),
            fetched,
        ),
        "share",
    );
    report.metric(
        "suggest.empty_share",
        ratio(
            traced.delta("cornet_suggest_empty_total", &[]),
            queries_served,
        ),
        "share",
    );

    // Learner: stage spans joined per learner-bound request, work counts
    // from an in-process learner run on the same inputs.
    let learner_requests: Vec<&Vec<&OwnedTraceEvent>> = spans
        .values()
        .filter(|s| s.iter().any(|e| e.span.starts_with("learn.")))
        .collect();
    let per_request = |stage: &str| -> f64 {
        let total: u64 = learner_requests
            .iter()
            .flat_map(|s| s.iter())
            .filter(|e| e.span == stage)
            .map(|e| e.micros)
            .sum();
        ratio(total as f64, learner_requests.len() as f64) / 1e3
    };
    let stages = [
        "learn.predgen",
        "learn.cluster",
        "learn.enumerate",
        "learn.rank",
    ];
    let stage_ms: Vec<f64> = stages.iter().map(|s| per_request(s)).collect();
    for (name, ms) in [
        "learner.predgen_ms",
        "learner.cluster_ms",
        "learner.enumerate_ms",
        "learner.rank_ms",
    ]
    .iter()
    .zip(&stage_ms)
    {
        report.metric(name, *ms, "ms");
    }
    report.metric(
        "learner.other_ms",
        if replayed > 0 {
            learn_miss_us / 1e3 - replay_stage_ms
        } else {
            0.0
        },
        "ms",
    );
    let stats: Vec<LearnStats> = cold
        .iter()
        .take(40)
        .flat_map(|(_, e)| learner_stats(run, e))
        .collect();
    let avg = |f: &dyn Fn(&LearnStats) -> usize| {
        mean(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    report.metric("learner.predicates", avg(&|s| s.n_predicates), "count");
    report.metric("learner.candidates", avg(&|s| s.n_candidates), "count");
    report.metric(
        "learner.cluster_iterations",
        avg(&|s| s.cluster_iterations),
        "count",
    );
    let runs = traced.delta("cornet_service_learns_performed", &[]);
    report.metric(
        "learner.relaxed_share",
        ratio(traced.delta("cornet_learn_relaxed_total", &[]), runs),
        "share",
    );
    report.metric(
        "learner.runs_per_request",
        ratio(runs, phase.learner_answers() as f64),
        "count",
    );

    // Pool.
    let parallel = traced.delta("cornet_pool_ops_total", &[("path", "parallel")]);
    let inline = traced.delta("cornet_pool_ops_total", &[("path", "inline")]);
    report.metric("pool.ops_parallel", parallel, "count");
    report.metric("pool.ops_inline", inline, "count");
    report.metric(
        "pool.steals",
        traced.delta("cornet_pool_steals_total", &[]),
        "count",
    );
    report.metric(
        "pool.parallel_share",
        ratio(parallel, parallel + inline),
        "share",
    );

    // Tracing overhead on the workload's primary route, as a difference of
    // medians (the halves send different inputs of the same mix).
    let overhead = crate::stats::median(&phase.latencies(primary, None))
        - crate::stats::median(&untraced.latencies(primary, None));
    report.metric("trace.overhead_us", overhead, "us");
    report.notes.push(format!(
        "traced: {} spans over {} requests; {} learner-bound requests with stage spans",
        traced.events.len(),
        phase.done.len(),
        learner_requests.len()
    ));
    Ok(())
}
