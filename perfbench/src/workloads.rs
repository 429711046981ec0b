//! The two workloads, their request schedules and the end-to-end
//! metrics. Why each workload exists, and which layer metric should move
//! which end-to-end metric, is in `perfbench/README.md`.

use crate::check::{values_of, Checker, Col, Expect, Memory, Verdict};
use crate::client::{self, Done, Kind, Req};
use crate::inputs::{self, Seeded, Task};
use crate::layers;
use crate::stats::{mean, median, percentile, Report};
use crate::Args;
use cornet_core::rule::Rule;
use cornet_serve::service::{CornetService, ServiceConfig};
use cornet_serve::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 2] = ["serve_read", "learn_cold"];

/// Service restarts timed per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Windows (rounds) each main phase is split into. The host shares its
/// CPUs with other machines, whose load comes and goes in bursts that
/// make a window several times slower, or faster, than the rest of the
/// run. The read metrics are therefore medians over windows of the
/// per-window statistic, which hold while bursts cover less than half of
/// a run; `capacity_rps` is a median over as many saturated steps.
const ROUNDS: usize = 10;

/// `serve_read`'s two fixed offered rates (requests per second),
/// calibrated once on a 2-core host: light load, where the per-route
/// latencies are measured, and past the knee of two connections (about
/// 3000/s there), where the completion rate is the service's capacity.
const READ_RATES: [f64; 2] = [1000.0, 4000.0];

/// Length of each saturated step that measures `capacity_rps` after the
/// main phase of `learn_cold`.
const SATURATED_STEP_SECONDS: f64 = 0.3;

/// `serve_read`'s hot set: store rules scored and re-learned by id, and
/// the distinct columns `/suggest` is asked about. Together with the
/// suggest neighbours they stay within the 256-entry LRU.
const HOT_RULES: usize = 128;
const HOT_SUGGEST_COLUMNS: usize = 16;

/// Evaluation tasks each workload sends to the learner: about 20 s of
/// closed-loop learning on a 2-core host. Fewer learns, or learns over a
/// shorter span, leave `learn_p95_ms` and `correct_p50_ms` to the host's
/// bursts.
const EVAL_TASKS: usize = 300;

/// Client threads and connections: at most `nproc`, and no more than two.
fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// A request schedule and the answers it must get.
#[derive(Default)]
pub struct Plan {
    pub reqs: Vec<Req>,
    pub expects: Vec<Expect>,
    pub sessions: usize,
}

impl Plan {
    fn add(&mut self, expect: Expect, body: String, due_us: u64, slot: usize) {
        self.reqs.push(Req {
            kind: expect.kind(),
            body,
            due_us,
            slot,
        });
        self.expects.push(expect);
    }

    /// A session over `tasks[task]` and its three corrections: `format` the
    /// next truly formatted cell, `unformat` a truly unformatted one, then
    /// `format` the next truly formatted cell again, so the corrected
    /// examples stay satisfiable. Closed loop only.
    fn session(&mut self, tasks: &[Task], task: usize) {
        let t = &tasks[task];
        let slot = self.sessions;
        self.sessions += 1;
        let body = format!(
            "{{\"cells\":{},\"examples\":{:?}}}",
            cornet_serde::to_string(&cornet_serde::ToJson::to_json(&t.cells)),
            t.examples
        );
        self.add(Expect::Session { task, slot }, body, 0, slot);
        let truth = t.formatted.as_ref().expect("sessions are single-class");
        let mut extra = truth.iter_ones().filter(|i| !t.examples.contains(i));
        let off: Vec<usize> = (0..t.cells.len()).filter(|&i| !truth.get(i)).collect();
        let corrections = [
            extra.next().map(|i| (vec![i], vec![])),
            off.get(task % off.len().max(1)).map(|&i| (vec![], vec![i])),
            extra.next().map(|i| (vec![i], vec![])),
        ];
        for (format, unformat) in corrections.into_iter().flatten() {
            let body = format!("{{\"format\":{format:?},\"unformat\":{unformat:?}}}");
            let expect = Expect::Correct {
                task,
                slot,
                format,
                unformat,
            };
            self.add(expect, body, 0, slot);
        }
    }
}

/// One executed schedule.
pub struct Phase {
    pub plan: Plan,
    pub done: Vec<Done>,
    pub verdicts: Vec<Verdict>,
    pub seconds: f64,
}

impl Phase {
    /// The answered requests split into `k` windows of equal length by
    /// due time (send time in a closed loop).
    pub fn windows(&self, k: usize) -> Vec<Window<'_>> {
        let span = self.done.iter().map(|d| d.due_us).max().unwrap_or(0) + 1;
        let mut windows: Vec<Window<'_>> = (0..k)
            .map(|_| Window {
                phase: self,
                idx: Vec::new(),
                seconds: self.seconds / k as f64,
            })
            .collect();
        for (i, d) in self.done.iter().enumerate() {
            windows[(d.due_us * k as u64 / span) as usize].idx.push(i);
        }
        windows
    }

    pub fn failed(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::Wrong(_)))
            .count()
    }

    /// Latencies (µs) of correctly answered requests of `kind` over the
    /// whole phase.
    pub fn latencies(&self, kind: Kind, learner: Option<bool>) -> Vec<f64> {
        self.windows(1)[0].latencies(kind, learner)
    }

    /// Learner-bound answers of any route.
    pub fn learner_answers(&self) -> usize {
        self.windows(1)[0].learner_answers()
    }
}

/// A slice of a phase's answered requests.
pub struct Window<'a> {
    phase: &'a Phase,
    idx: Vec<usize>,
    seconds: f64,
}

impl Window<'_> {
    fn answered(&self) -> impl Iterator<Item = (&Done, &Verdict)> + '_ {
        self.idx
            .iter()
            .map(|&i| (&self.phase.done[i], &self.phase.verdicts[i]))
    }

    /// Latencies (µs) of correctly answered requests of `kind`; `learner`
    /// filters on whether the answer ran the learner.
    pub fn latencies(&self, kind: Kind, learner: Option<bool>) -> Vec<f64> {
        self.answered()
            .filter(|(d, v)| {
                self.phase.plan.reqs[d.req].kind == kind
                    && matches!(v, Verdict::Ok { learner: l } if learner.is_none_or(|want| *l == want))
            })
            .map(|(d, _)| d.latency_us() as f64)
            .collect()
    }

    /// Latencies of every correctly answered request.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.answered()
            .filter(|(_, v)| matches!(v, Verdict::Ok { .. }))
            .map(|(d, _)| d.latency_us() as f64)
            .collect()
    }

    /// Store-hit learns, whether sent as such or as a re-sent cold learn.
    pub fn cached_learns(&self) -> Vec<f64> {
        let mut v = self.latencies(Kind::LearnHit, Some(false));
        v.extend(self.latencies(Kind::LearnCold, Some(false)));
        v
    }

    pub fn learner_answers(&self) -> usize {
        self.answered()
            .filter(|(_, v)| matches!(v, Verdict::Ok { learner: true }))
            .count()
    }

    /// Requests answered per second.
    pub fn rate(&self) -> f64 {
        self.idx.len() as f64 / self.seconds
    }
}

/// Everything a workload run owns.
pub struct Run {
    pub work: PathBuf,
    pub store_dir: PathBuf,
    pub seeded: Vec<Seeded>,
    pub seeded_rules: HashMap<String, Rule>,
    pub tasks: Vec<Task>,
    pub suggest_columns: Vec<Vec<String>>,
    pub service: Arc<CornetService>,
    pub server: Server,
    pub setup_s: Vec<f64>,
    pub rss_mb: f64,
    memory: RefCell<Memory>,
}

impl Run {
    /// Restarts the service over the store as it is now.
    fn restart(&mut self) -> Result<(), String> {
        self.server.shutdown();
        (self.service, self.server) = open(&self.store_dir)?;
        Ok(())
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Runs `plan` and checks every answer. A closed loop (`deadline`, in
    /// seconds) uses one client; an open loop uses every client thread.
    pub fn execute(
        &self,
        plan: Plan,
        deadline: Option<f64>,
        reference: Option<&CornetService>,
    ) -> Result<Phase, String> {
        let threads = if deadline.is_some() {
            1
        } else {
            client_threads()
        };
        let (done, elapsed) = client::run(
            self.addr(),
            &plan.reqs,
            threads,
            plan.sessions,
            deadline.map(Duration::from_secs_f64),
        )
        .map_err(|e| format!("client: {e}"))?;
        let mut memory = self.memory.borrow_mut();
        let mut checker = Checker::new(
            &self.tasks,
            &self.seeded,
            &self.suggest_columns,
            &self.seeded_rules,
            reference,
            &mut memory,
        );
        checker.learn_rules(&plan.expects, &done);
        let verdicts: Vec<Verdict> = done
            .iter()
            .map(|d| checker.check(&plan.expects[d.req], d))
            .collect();
        Ok(Phase {
            plan,
            done,
            verdicts,
            seconds: elapsed.as_secs_f64(),
        })
    }
}

/// Opens the service over the store and starts the server: the restart a
/// deployment pays.
fn open(store_dir: &Path) -> Result<(Arc<CornetService>, Server), String> {
    let service = Arc::new(
        CornetService::new(&ServiceConfig {
            store_dir: store_dir.to_path_buf(),
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("open service: {e}"))?,
    );
    let server = Server::start_with("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    Ok((service, server))
}

/// [`open`] timed [`SETUPS`] times; the last service stays up.
fn start(store_dir: &Path) -> Result<(Arc<CornetService>, Server, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(open(store_dir)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let (service, server) = last.expect("at least one setup");
    Ok((service, server, times))
}

/// The `--open-store` mode: opens the service over `store_dir`, starts
/// and stops the server, and returns this process's peak resident set in
/// MB.
pub fn open_store_rss_mb(store_dir: &Path) -> Result<f64, String> {
    let (_service, mut server) = open(store_dir)?;
    server.shutdown();
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// `peak_rss_mb`: the peak resident set of a fresh process that opens the
/// service over the seeded store, so the benchmark's own inputs, client
/// and reference data are not in it.
fn service_rss_mb(store_dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--open-store")
        .arg(store_dir)
        .output()
        .map_err(|e| format!("--open-store: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(mb) if out.status.success() => Ok(mb),
        _ => Err(format!(
            "--open-store failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench-work")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let _cleanup = WorkDir(work.clone());
    let store_dir = work.join("store");
    let seeded =
        inputs::seed_store(&store_dir, args.seed).map_err(|e| format!("seed store: {e}"))?;
    // Write the seeded store back now, so its writeback does not land
    // inside the timed set-up or phases.
    let _ = std::process::Command::new("sync").status();
    let seeded_rules = seeded
        .iter()
        .map(|s| (s.id.clone(), s.rule.clone()))
        .collect();
    let rss_mb = service_rss_mb(&store_dir)?;
    let (service, server, setup_s) = start(&store_dir)?;
    let mut run = Run {
        work,
        store_dir,
        seeded,
        seeded_rules,
        tasks: Vec::new(),
        suggest_columns: Vec::new(),
        service,
        server,
        setup_s,
        rss_mb,
        memory: RefCell::default(),
    };
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![format!(
            "perfbench: workload {} · seed {} · {} s · trace {} · {} client threads · nproc {}",
            args.workload,
            args.seed,
            args.seconds,
            args.trace as u8,
            client_threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        )],
    };
    let result = match args.workload.as_str() {
        "serve_read" => serve_read(&mut run, args, &mut report),
        _ => learn_cold(&mut run, args, &mut report),
    };
    run.server.shutdown();
    result?;
    Ok(report)
}

/// Adds a phase's tallies to the report, printing its first wrong answers.
fn account(report: &mut Report, phase: &Phase) {
    report.attempted += phase.done.len();
    report.failed += phase.failed();
    for v in phase
        .verdicts
        .iter()
        .filter(|v| matches!(v, Verdict::Wrong(_)))
        .take(5)
    {
        eprintln!("perfbench: wrong answer: {v:?}");
    }
    if phase.failed() > 0 {
        report.correct = false;
    }
}

/// The median over windows of a per-window statistic, skipping windows
/// without samples.
fn over<'a>(windows: &[Window<'a>], stat: impl Fn(&Window<'a>) -> Option<f64>) -> f64 {
    median(&windows.iter().filter_map(stat).collect::<Vec<_>>())
}

fn nonempty(samples: Vec<f64>) -> Option<Vec<f64>> {
    (!samples.is_empty()).then_some(samples)
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `main` supplies the
/// per-route latencies, split into windows; `learner` the phases whose
/// learner-bound requests give the learner metrics;
/// `capacity` the saturated completion rate; `exec` the execution match
/// and the number of tasks it is over.
fn end_to_end(
    report: &mut Report,
    run: &Run,
    main: &[Window],
    learner: &[&Phase],
    capacity: f64,
    (exec, total): (f64, usize),
) {
    let attempted = report.attempted.max(1) as f64;
    report.metric("setup_s", median(&run.setup_s), "s");
    report.metric("peak_rss_mb", run.rss_mb, "MB");
    report.metric(
        "ok_share",
        (attempted - report.failed as f64) / attempted,
        "share",
    );
    // Read percentiles are medians over windows, so a burst of host load
    // spoils a window, not the metric. Learner-bound requests are too few
    // per window for that, and their percentiles pool the phase.
    let at = |q: f64| move |samples: Vec<f64>| nonempty(samples).map(|s| percentile(&s, q));
    report.metric("p90_us", over(main, |w| at(90.0)(w.all_latencies())), "us");
    report.metric(
        "score_p50_us",
        over(main, |w| at(50.0)(w.latencies(Kind::Score, None))),
        "us",
    );
    report.metric(
        "suggest_p50_us",
        over(main, |w| at(50.0)(w.latencies(Kind::Suggest, None))),
        "us",
    );
    report.metric(
        "cached_learn_p50_us",
        over(main, |w| at(50.0)(w.cached_learns())),
        "us",
    );
    let pooled = |kind, ran| -> Vec<f64> {
        learner
            .iter()
            .flat_map(|p| p.latencies(kind, ran))
            .collect()
    };
    let learns = pooled(Kind::LearnCold, Some(true));
    report.metric("learn_mean_ms", mean(&learns) / 1e3, "ms");
    report.metric("learn_p95_ms", percentile(&learns, 95.0) / 1e3, "ms");
    let corrections = pooled(Kind::Correct, None);
    report.metric("correct_p50_ms", median(&corrections) / 1e3, "ms");
    report.metric("capacity_rps", capacity, "1/s");
    report.metric("exec_match", exec, "share");
    let count = |f: &dyn Fn(&Window) -> usize| main.iter().map(f).sum::<usize>();
    report.notes.push(format!(
        "samples: score {} · suggest {} · cached learn {} in {} windows; cold learn {} · corrections {} · exec-match tasks {} · learner-bound {:.1}/s",
        count(&|w| w.latencies(Kind::Score, None).len()),
        count(&|w| w.latencies(Kind::Suggest, None).len()),
        count(&|w| w.cached_learns().len()),
        main.len(),
        learns.len(),
        corrections.len(),
        total,
        learner.iter().map(|p| p.learner_answers()).sum::<usize>() as f64
            / learner.iter().map(|p| p.seconds).sum::<f64>(),
    ));
}

/// `serve_read`'s hot set: [`HOT_RULES`] seeded rules, plus
/// [`HOT_SUGGEST_COLUMNS`] fresh columns appended to the suggest columns.
fn hot_set(run: &mut Run, seed: u64, rng: &mut StdRng) -> Vec<usize> {
    let mut hot: Vec<usize> = (0..run.seeded.len()).collect();
    hot.shuffle(rng);
    hot.truncate(HOT_RULES);
    run.suggest_columns
        .extend((0..HOT_SUGGEST_COLUMNS).map(|i| inputs::suggest_column(seed, i)));
    hot
}

/// `capacity_rps` where the main phase saturates nothing: `serve_read`'s
/// read mix offered at its saturating rate in [`ROUNDS`] short steps
/// after the main phase, on the store that phase left. The median
/// completion rate.
fn saturated_capacity(run: &mut Run, seed: u64, report: &mut Report) -> Result<f64, String> {
    let mut rng = StdRng::seed_from_u64(inputs::stream(seed, 0x5A7));
    let hot = hot_set(run, seed, &mut rng);
    let mut rates = Vec::new();
    for _ in 0..ROUNDS {
        let plan = read_plan(run, &hot, &mut rng, READ_RATES[1], SATURATED_STEP_SECONDS);
        let phase = run.execute(plan, None, None)?;
        account(report, &phase);
        rates.push(phase.windows(1)[0].rate());
    }
    Ok(median(&rates))
}

/// Loads the first `n` evaluation tasks as the run's task table and
/// returns them in the order `seed` gives.
fn eval_order(run: &mut Run, seed: u64, n: usize) -> Vec<usize> {
    run.tasks = inputs::eval_tasks(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(inputs::stream(seed, 0xE0)));
    order
}

/// `exec_match` over the single-class plain learns among `tasks`, and how
/// many those are. Each task's rule is the run's answer, or, for a task
/// the run did not reach before its deadline, the same learn on a scratch
/// service in-process, so the value is the same on every run.
fn exec_match(run: &Run, tasks: &[usize]) -> Result<(f64, usize), String> {
    let memory = run.memory.borrow();
    let mut scratch = None;
    let (mut matched, mut total) = (0, 0);
    for &i in tasks {
        let t = &run.tasks[i];
        let Some(truth) = t.formatted.as_ref().filter(|_| !as_session(&run.tasks, i)) else {
            continue;
        };
        total += 1;
        let hit = match memory.exec.get(&i) {
            Some(&hit) => hit,
            None => {
                if scratch.is_none() {
                    scratch = Some(
                        CornetService::new(&ServiceConfig {
                            store_dir: run.work.join("exec-scratch"),
                            ..ServiceConfig::default()
                        })
                        .map_err(|e| format!("scratch service: {e}"))?,
                    );
                }
                let service = scratch.as_ref().expect("opened above");
                service
                    .learn(&t.request())
                    .is_ok_and(|r| &r.rule.execute(&values_of(&t.cells)) == truth)
            }
        };
        matched += usize::from(hit);
    }
    Ok((matched as f64 / total.max(1) as f64, total))
}

/// Whether cold task `i` of a stream is opened as a session instead of a
/// plain `/learn` (one single-class task in five).
fn as_session(tasks: &[Task], i: usize) -> bool {
    i % 5 == 2 && !tasks[i].is_multi()
}

/// The user's interaction, one task after another (closed loop, one
/// client): learn from examples, or open a session and correct it twice;
/// then score the learned rule on the column, ask for suggestions on it,
/// and re-open it (a store-hit learn).
fn interaction_plan(run: &Run, tasks: &[usize], follow_ups: bool) -> Plan {
    let mut plan = Plan::default();
    for &i in tasks {
        let t = &run.tasks[i];
        if as_session(&run.tasks, i) {
            plan.session(&run.tasks, i);
            continue;
        }
        plan.add(Expect::Learn { task: i }, t.body(), 0, 0);
        if follow_ups {
            let score = format!(
                "{{\"rule_id\":\"{}\",\"cells\":{}}}",
                t.rule_id(),
                cornet_serde::to_string(&cornet_serde::ToJson::to_json(&t.cells))
            );
            plan.add(
                Expect::Score {
                    id: t.rule_id(),
                    column: Col::Task(i),
                },
                score,
                0,
                0,
            );
            plan.add(
                Expect::Suggest {
                    column: Col::Task(i),
                },
                inputs::suggest_body(&t.cells),
                0,
                0,
            );
            plan.add(Expect::Learn { task: i }, t.body(), 0, 0);
        }
    }
    plan
}

/// The paper's interaction: every `/learn` is a column the store has
/// never seen. The loop ends when the tasks run out or at the deadline.
fn learn_cold(run: &mut Run, args: &Args, report: &mut Report) -> Result<(), String> {
    let order = eval_order(run, args.seed, EVAL_TASKS);
    if args.trace {
        let half = args.seconds / 2.0;
        let (first, second) = order.split_at(order.len() / 2);
        let untraced = run.execute(interaction_plan(run, first, true), Some(half), None)?;
        account(report, &untraced);
        let traced = layers::traced(run, || {
            run.execute(interaction_plan(run, second, true), Some(half), None)
        })?;
        account(report, &traced.phase);
        return layers::report(report, run, &untraced, traced, Kind::LearnCold);
    }
    let phase = run.execute(
        interaction_plan(run, &order, true),
        Some(args.seconds),
        None,
    )?;
    account(report, &phase);
    let exec = exec_match(run, &order)?;
    let capacity = saturated_capacity(run, args.seed, report)?;
    end_to_end(
        report,
        run,
        &phase.windows(ROUNDS),
        &[&phase],
        capacity,
        exec,
    );
    Ok(())
}

/// The read mix at `rate` for `seconds`: 70% `/score` of a hot rule, 15%
/// store-hit `/learn` of a hot rule, 15% `/suggest` on a hot column.
fn read_plan(run: &Run, hot: &[usize], rng: &mut StdRng, rate: f64, seconds: f64) -> Plan {
    let mut plan = Plan::default();
    let n = (rate * seconds) as usize;
    for i in 0..n {
        let due = (i as f64 * 1e6 / rate) as u64;
        let roll = rng.gen_range(0..100);
        let s = hot[rng.gen_range(0..hot.len())];
        let seeded = &run.seeded[s];
        if roll < 70 {
            let expect = Expect::Score {
                id: seeded.id.clone(),
                column: Col::Seeded(s),
            };
            plan.add(expect, seeded.score_body(), due, 0);
        } else if roll < 85 {
            plan.add(
                Expect::LearnHit {
                    id: seeded.id.clone(),
                    column: Col::Seeded(s),
                },
                seeded.learn_body(),
                due,
                0,
            );
        } else {
            let c = rng.gen_range(0..run.suggest_columns.len());
            let body = inputs::suggest_body(&run.suggest_columns[c]);
            plan.add(
                Expect::Suggest {
                    column: Col::Suggest(c),
                },
                body,
                due,
                0,
            );
        }
    }
    plan
}

/// A deployed service's bulk traffic: reads against a warm cache.
fn serve_read(run: &mut Run, args: &Args, report: &mut Report) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(inputs::stream(args.seed, 0xAD));
    let hot = hot_set(run, args.seed, &mut rng);

    // Learner-bound traffic brackets the reads: the hot columns' owners
    // learn and correct rules before and after them. It is the source of
    // this workload's learner metrics and is not part of the read phase.
    // Split in two, it spans the run rather than one stretch of the host's
    // load. A fixed set of tasks, with `--seconds` only as a cap.
    let order = eval_order(run, args.seed, EVAL_TASKS);
    let (before, after) = order.split_at(order.len() / 2);
    let learner_phase = |run: &Run, tasks: &[usize]| {
        run.execute(
            interaction_plan(run, tasks, false),
            Some(args.seconds / 2.0),
            None,
        )
    };
    let warm = learner_phase(run, before)?;
    account(report, &warm);

    // The reads are served by a restarted service, and a reference
    // service over the same store answers `/suggest` exactly as it must:
    // both build their index from the same store walk, so even equal
    // distances break the same way. Then every hot rule is touched once
    // so the reads start from a warm cache.
    run.restart()?;
    let reference = CornetService::new(&ServiceConfig {
        store_dir: run.store_dir.clone(),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("reference service: {e}"))?;
    let mut touch = Plan::default();
    for &s in &hot {
        let seeded = &run.seeded[s];
        let expect = Expect::Score {
            id: seeded.id.clone(),
            column: Col::Seeded(s),
        };
        touch.add(expect, seeded.score_body(), 0, 0);
    }
    let touched = run.execute(touch, None, None)?;
    account(report, &touched);

    let read_seconds = args.seconds * 0.6;
    if args.trace {
        let rate = READ_RATES[0];
        let plan = read_plan(run, &hot, &mut rng, rate, read_seconds / 2.0);
        let untraced = run.execute(plan, None, Some(&reference))?;
        account(report, &untraced);
        let plan = read_plan(run, &hot, &mut rng, rate, read_seconds / 2.0);
        let traced = layers::traced(run, || run.execute(plan, None, Some(&reference)))?;
        account(report, &traced.phase);
        return layers::report(report, run, &untraced, traced, Kind::Score);
    }

    // The sweep, in rounds: each round offers both rates for an equal
    // share of the read phase, so a burst of host load hits a round, not a
    // rate. The per-route latencies come from the light-load steps and
    // `capacity_rps` from the completion rate of the saturated ones.
    let step_seconds = read_seconds / (ROUNDS * READ_RATES.len()) as f64;
    let (mut light, mut saturated) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for (k, &rate) in READ_RATES.iter().enumerate() {
            let plan = read_plan(run, &hot, &mut rng, rate, step_seconds);
            let phase = run.execute(plan, None, Some(&reference))?;
            account(report, &phase);
            if k == 0 {
                light.push(phase);
            } else {
                saturated.push(phase);
            }
        }
    }
    let main: Vec<Window> = light.iter().flat_map(|p| p.windows(1)).collect();
    let top: Vec<Window> = saturated.iter().flat_map(|p| p.windows(1)).collect();
    let p99 = |w: &Window| Some(percentile(&w.all_latencies(), 99.0));
    report.notes.push(format!(
        "serve_read: read p99 {:.0} µs at {} req/s, {:.0} µs at {} req/s",
        over(&main, p99),
        READ_RATES[0],
        over(&top, p99),
        READ_RATES[1]
    ));
    let capacity = over(&top, |w| Some(w.rate()));
    let cool = learner_phase(run, after)?;
    account(report, &cool);
    let exec = exec_match(run, &order)?;
    end_to_end(report, run, &main, &[&warm, &cool], capacity, exec);
    Ok(())
}
