//! The scripted end-to-end smoke session: learn → score → correct →
//! re-learn → restart → score again from the persisted store, resume the
//! persisted session, and keep correcting it.
//!
//! Run via `cornet-serve smoke` (the CI `serve-smoke` job) or call
//! [`run`] from a test. Everything happens over a real loopback socket
//! against a throwaway store directory; any assertion failure is
//! returned as `Err` and the binary exits non-zero.

use crate::http::{http_request, http_request_text};
use crate::service::{CornetService, ServiceConfig};
use crate::Server;
use cornet_serde::{open_envelope, FromJson, Json};
use std::net::SocketAddr;
use std::sync::Arc;

/// Scrapes `GET /metrics` and returns the value of one unlabelled
/// sample, failing loudly when the exposition does not parse.
fn scrape(addr: SocketAddr, name: &str) -> Result<f64, String> {
    let (status, text) =
        http_request_text(addr, "GET", "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    let expo =
        cornet_obs::expo::parse(&text).map_err(|e| format!("/metrics did not parse: {e}"))?;
    expo.value(name, &[])
        .ok_or_else(|| format!("/metrics is missing `{name}`"))
}

/// The running-example column driven through the session.
const CELLS: &str = r#"["RW-187","RS-762","RW-159","RW-131-T","TW-224","RW-312"]"#;

/// A three-format status column for the multi-class rule-set leg.
const STATUS_CELLS: &str =
    r#"["completed","pending","failed","completed","pending","failed","completed"]"#;

/// The three format classes painted on [`STATUS_CELLS`]: green, yellow
/// and red row fills, one example each.
const STATUS_CLASSES: &str = concat!(
    r##"[{"style":{"fill":"#dcfce7"},"scope":"row","examples":[0]},"##,
    r##"{"style":{"fill":"#fef9c3"},"scope":"row","examples":[1]},"##,
    r##"{"style":{"fill":"#fee2e2"},"scope":"row","examples":[2]}]"##
);

/// Asserts a learn/session result carries the full 3-class status rule
/// set: one rule per class with its style payload, class-order priority
/// and a consistent flag.
fn check_status_rule_set(result: &Json, log: &[String]) -> Result<(), String> {
    let rules = result
        .get("rule_set")
        .and_then(|s| s.get("rules"))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("result has no rule_set.rules: {result}"))?;
    expect(rules.len() == 3, "rule set keeps all three classes", log)?;
    for (k, (rule, fill)) in rules
        .iter()
        .zip(["#dcfce7", "#fef9c3", "#fee2e2"])
        .enumerate()
    {
        expect(
            rule.get("style")
                .and_then(|s| s.get("fill"))
                .and_then(Json::as_str)
                == Some(fill),
            &format!("rule {k} keeps its style payload"),
            log,
        )?;
        expect(
            rule.get("scope").and_then(Json::as_str) == Some("row"),
            &format!("rule {k} keeps its row scope"),
            log,
        )?;
        expect(
            rule.get("priority").and_then(Json::as_u64) == Some(k as u64),
            &format!("rule {k} keeps its class-order priority"),
            log,
        )?;
        expect(
            rule.get("consistent").and_then(Json::as_bool) == Some(true),
            &format!("rule {k} is consistent with its class"),
            log,
        )?;
    }
    Ok(())
}

fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    kind: &str,
    log: &mut Vec<String>,
) -> Result<Json, String> {
    let (status, doc) =
        http_request(addr, "POST", path, Some(body)).map_err(|e| format!("POST {path}: {e}"))?;
    if status != 200 {
        return Err(format!("POST {path}: status {status}, body {doc}"));
    }
    let payload = open_envelope(&doc, kind).map_err(|e| format!("POST {path}: {e}"))?;
    log.push(format!("POST {path} → 200 {payload}"));
    Ok(payload.clone())
}

fn get(addr: SocketAddr, path: &str, kind: &str) -> Result<Json, String> {
    let (status, doc) =
        http_request(addr, "GET", path, None).map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}, body {doc}"));
    }
    Ok(open_envelope(&doc, kind)
        .map_err(|e| format!("GET {path}: {e}"))?
        .clone())
}

fn matches_of(payload: &Json) -> Result<Vec<usize>, String> {
    Vec::<usize>::from_json(
        payload
            .get("matches")
            .ok_or_else(|| format!("no matches in {payload}"))?,
    )
    .map_err(|e| e.to_string())
}

fn expect(cond: bool, what: &str, log: &[String]) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!(
            "assertion failed: {what}\ntranscript:\n{}",
            log.join("\n")
        ))
    }
}

/// Runs the full scripted session; returns the transcript on success.
pub fn run() -> Result<Vec<String>, String> {
    let dir = std::env::temp_dir().join(format!("cornet-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn start_server(dir: &std::path::Path) -> Result<Server, String> {
    let service = CornetService::new(&ServiceConfig {
        store_dir: dir.to_path_buf(),
        cache_capacity: 64,
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("open store: {e}"))?;
    Server::start("127.0.0.1:0", Arc::new(service)).map_err(|e| format!("bind: {e}"))
}

fn run_in(dir: &std::path::Path) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    let mut server = start_server(dir)?;
    let addr = server.addr();
    log.push(format!("server up on {addr} (store {})", dir.display()));

    // 1. Learn from examples {0, 2, 5} — the paper's running example.
    let learn_body = format!(r#"{{"cells":{CELLS},"examples":[0,2,5]}}"#);
    let learned = post(addr, "/learn", &learn_body, "learn", &mut log)?;
    let rule_id = learned
        .get("rule_id")
        .and_then(Json::as_str)
        .ok_or("learn response missing rule_id")?
        .to_string();
    expect(
        matches_of(&learned)? == vec![0, 2, 5],
        "learned rule formats exactly the examples",
        &log,
    )?;
    expect(
        learned.get("cached").and_then(Json::as_bool) == Some(false),
        "first learn is not cached",
        &log,
    )?;

    // 2. Score fresh rows with the stored rule.
    let score_body =
        format!(r#"{{"rule_id":"{rule_id}","cells":["RW-555","XX-1","RW-9-T","rw-777"]}}"#);
    let scored = post(addr, "/score", &score_body, "score", &mut log)?;
    let fresh = matches_of(&scored)?;
    expect(
        fresh.contains(&0) && fresh.contains(&3) && !fresh.contains(&1),
        "stored rule scores fresh rows (case-insensitively)",
        &log,
    )?;

    // 2b. Zero-example suggestion: a bare column (no examples at all)
    // retrieves the stored rule from the embedding index and re-scores
    // it against the fresh cells. No learner run is involved.
    let suggest_body = r#"{"cells":["RW-555","XX-1","RW-9-T","rw-777"]}"#;
    let suggested = post(addr, "/suggest", suggest_body, "suggest", &mut log)?;
    let suggestions = suggested
        .get("suggestions")
        .and_then(Json::as_array)
        .ok_or("suggest response missing suggestions")?;
    expect(
        !suggestions.is_empty(),
        "bare column finds the stored rule",
        &log,
    )?;
    expect(
        suggestions[0].get("rule_id").and_then(Json::as_str) == Some(rule_id.as_str()),
        "suggestion is the learned rule",
        &log,
    )?;
    let suggested_matches = matches_of(&suggestions[0])?;
    expect(
        suggested_matches.contains(&0) && !suggested_matches.contains(&1),
        "suggestion is re-scored against the fresh cells",
        &log,
    )?;
    expect(
        scrape(addr, "cornet_suggest_queries_total")? >= 1.0,
        "suggest queries show on /metrics",
        &log,
    )?;

    // 3. The demo loop: open a session with one example, then correct it.
    let session = post(
        addr,
        "/session",
        &format!(r#"{{"cells":{CELLS},"examples":[0]}}"#),
        "session",
        &mut log,
    )?;
    let sid = session
        .get("session_id")
        .and_then(Json::as_str)
        .ok_or("session response missing session_id")?
        .to_string();

    // The user formats RW-312 (5) and unformats RW-131-T (3); the service
    // must re-learn, through the constrained learner, a rule honouring
    // both corrections — consistent:true means the rule itself excludes
    // the negative, not that a filter scrubbed it from the matches.
    let corrected = post(
        addr,
        &format!("/session/{sid}/correct"),
        r#"{"format":[5],"unformat":[3]}"#,
        "session",
        &mut log,
    )?;
    let result = corrected
        .get("result")
        .filter(|r| !r.is_null())
        .ok_or("corrected session has no rule")?;
    let relearned = matches_of(result)?;
    expect(
        relearned.contains(&5) && !relearned.contains(&3),
        "re-learned rule honours both corrections",
        &log,
    )?;
    expect(
        result.get("consistent").and_then(Json::as_bool) == Some(true),
        "constrained re-learn is consistent",
        &log,
    )?;
    // The rule (not a filtered mask) excludes the corrected value: a
    // fresh row holding it stays unformatted.
    let corrected_rule = result.get("rule").ok_or("corrected result has no rule")?;
    let rescored = post(
        addr,
        "/score",
        &format!(
            r#"{{"rule":{},"cells":["RW-131-T","RW-312"]}}"#,
            cornet_serde::to_string(corrected_rule)
        ),
        "score",
        &mut log,
    )?;
    expect(
        matches_of(&rescored)? == vec![1],
        "re-learned rule excludes the corrected value on fresh rows",
        &log,
    )?;

    // An unsatisfiable correction abstains: cells 0 and 1 hold the same
    // value, so no rule can format one and not the other —
    // consistent:false now means "provably no rule in the language".
    let abstain = post(
        addr,
        "/learn",
        r#"{"cells":["x","x","y","z"],"examples":[0],"negatives":[1]}"#,
        "learn",
        &mut log,
    )?;
    expect(
        abstain.get("consistent").and_then(Json::as_bool) == Some(false),
        "unsatisfiable corrections abstain with consistent:false",
        &log,
    )?;

    // 3b. Multi-class: a session over a three-format status column learns
    // a whole rule set in one call — one styled, prioritized rule per
    // class. Correcting one cell re-learns the set; the per-class state
    // and the stored set must survive the restart below.
    let multi = post(
        addr,
        "/session",
        &format!(r#"{{"cells":{STATUS_CELLS},"classes":{STATUS_CLASSES}}}"#),
        "session",
        &mut log,
    )?;
    let msid = multi
        .get("session_id")
        .and_then(Json::as_str)
        .ok_or("multi-class session response missing session_id")?
        .to_string();
    check_status_rule_set(
        multi
            .get("result")
            .filter(|r| !r.is_null())
            .ok_or("multi-class session has no rule set")?,
        &log,
    )?;
    // The user paints the last "completed" row green explicitly (class 0).
    let multi_corrected = post(
        addr,
        &format!("/session/{msid}/correct"),
        r#"{"format":[6],"class":0}"#,
        "session",
        &mut log,
    )?;
    let multi_result = multi_corrected
        .get("result")
        .filter(|r| !r.is_null())
        .ok_or("corrected multi-class session has no rule set")?
        .clone();
    check_status_rule_set(&multi_result, &log)?;
    let multi_rule_id = multi_result
        .get("rule_id")
        .and_then(Json::as_str)
        .ok_or("multi-class result missing rule_id")?
        .to_string();

    // The scripted session so far must be visible on /metrics: the
    // per-service learn gauge counts the real learner invocations above
    // (cache hits excluded), and some rules are persisted.
    let learns_before = scrape(addr, "cornet_service_learns_performed")?;
    expect(
        learns_before >= 3.0,
        "session's learner invocations show on /metrics",
        &log,
    )?;
    let persisted_before = scrape(addr, "cornet_service_store_persisted_rules")?;
    expect(
        persisted_before >= 3.0,
        "persisted rules show on /metrics",
        &log,
    )?;
    log.push(format!(
        "metrics before restart: learns={learns_before} persisted={persisted_before}"
    ));

    // 4. Restart: a new server process (fresh service) over the same
    // store directory must answer from persisted rules without learning.
    server.shutdown();
    log.push("server restarted".into());
    let mut server = start_server(dir)?;
    let addr = server.addr();

    let scored = post(addr, "/score", &score_body, "score", &mut log)?;
    let fresh_again = matches_of(&scored)?;
    expect(
        fresh_again == fresh,
        "restarted server scores identically from the persisted store",
        &log,
    )?;
    let learned_again = post(addr, "/learn", &learn_body, "learn", &mut log)?;
    expect(
        learned_again.get("cached").and_then(Json::as_bool) == Some(true),
        "identical learn after restart is a store hit",
        &log,
    )?;

    // 5. The session survived the restart: same id, same corrections,
    // same rule — served from the persisted session state, not re-learned.
    let resumed = get(addr, &format!("/session/{sid}"), "session")?;
    expect(
        resumed.get("revision").and_then(Json::as_u64) == Some(1),
        "restored session keeps its revision",
        &log,
    )?;
    expect(
        resumed.get("negatives").map(ToString::to_string) == Some("[3]".to_string()),
        "restored session keeps its corrections",
        &log,
    )?;
    let resumed_result = resumed
        .get("result")
        .filter(|r| !r.is_null())
        .ok_or("restored session lost its rule")?;
    expect(
        matches_of(resumed_result)? == relearned,
        "restored session serves the same rule",
        &log,
    )?;

    // 5b. The multi-class session and its stored rule set also survived:
    // style payloads, priorities and consistency flags all come back from
    // the persisted store, and repeating the class learn is a store hit.
    let multi_resumed = get(addr, &format!("/session/{msid}"), "session")?;
    expect(
        multi_resumed.get("revision").and_then(Json::as_u64) == Some(1),
        "restored multi-class session keeps its revision",
        &log,
    )?;
    let resumed_classes = multi_resumed
        .get("classes")
        .and_then(Json::as_array)
        .ok_or("restored multi-class session lost its classes")?;
    expect(
        resumed_classes.len() == 3
            && resumed_classes[0].get("examples").map(ToString::to_string)
                == Some("[0,6]".to_string()),
        "restored multi-class session keeps its per-class corrections",
        &log,
    )?;
    let multi_resumed_result = multi_resumed
        .get("result")
        .filter(|r| !r.is_null())
        .ok_or("restored multi-class session lost its rule set")?;
    check_status_rule_set(multi_resumed_result, &log)?;
    let multi_rescored = post(
        addr,
        "/score",
        &format!(r#"{{"rule_id":"{multi_rule_id}","cells":{STATUS_CELLS}}}"#),
        "score",
        &mut log,
    )?;
    expect(
        multi_rescored.get("assignments").map(ToString::to_string)
            == Some("[0,1,2,0,1,2,0]".to_string()),
        "stored rule set conflict-resolves every status row after restart",
        &log,
    )?;

    // 5c. The suggestion index rebuilt itself from the rule log: the
    // same bare column still surfaces the learned rule on the restarted
    // server (by now the session's corrected re-learns of the same column
    // are indexed too, so ask for enough neighbors and check membership),
    // and doing so never invoked the learner (checked just below).
    let suggested_again = post(
        addr,
        "/suggest",
        r#"{"cells":["RW-555","XX-1","RW-9-T","rw-777"],"k":8}"#,
        "suggest",
        &mut log,
    )?;
    let again = suggested_again
        .get("suggestions")
        .and_then(Json::as_array)
        .ok_or("post-restart suggest response missing suggestions")?;
    expect(
        again
            .iter()
            .any(|s| s.get("rule_id").and_then(Json::as_str) == Some(rule_id.as_str())),
        "restarted server suggests from the rebuilt index",
        &log,
    )?;

    let health = get(addr, "/health", "health")?;
    expect(
        health.get("learns_performed").and_then(Json::as_u64) == Some(0),
        "restarted server never invoked the learner",
        &log,
    )?;
    expect(
        health.get("suggest_indexed").and_then(Json::as_u64) >= Some(3),
        "restarted server's /health counts the rebuilt suggestion index",
        &log,
    )?;
    // The per-service families reset with the restart: the fresh server
    // answered everything from the persisted store without learning.
    expect(
        scrape(addr, "cornet_service_learns_performed")? == 0.0,
        "restarted server's /metrics learn gauge is zero",
        &log,
    )?;
    expect(
        scrape(addr, "cornet_service_store_persisted_rules")? == persisted_before,
        "restarted server's /metrics counts every persisted rule, once",
        &log,
    )?;
    expect(
        health.get("rules_persisted").and_then(Json::as_f64) == Some(persisted_before),
        "restarted server's /health counts every persisted rule, once",
        &log,
    )?;
    log.push(format!("health after restart: {health}"));

    // 6. Keep-alive: one socket serves several requests in a row.
    let mut client = crate::http::HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for _ in 0..3 {
        let response = client
            .request("GET", "/health", None)
            .map_err(|e| format!("keep-alive GET /health: {e}"))?;
        expect(response.status == 200, "keep-alive health probe", &log)?;
    }
    drop(client);
    log.push("keep-alive socket served 3 requests".into());

    // 7. The restored session accepts further corrections.
    let continued = post(
        addr,
        &format!("/session/{sid}/correct"),
        r#"{"format":[2]}"#,
        "session",
        &mut log,
    )?;
    expect(
        continued.get("revision").and_then(Json::as_u64) == Some(2),
        "correction after restart bumps the revision",
        &log,
    )?;
    server.shutdown();
    Ok(log)
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_session_passes() {
        let log = super::run().unwrap_or_else(|e| panic!("{e}"));
        assert!(log.iter().any(|l| l.contains("restarted")));
    }
}
