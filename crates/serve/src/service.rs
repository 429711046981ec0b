//! The in-process service layer: typed requests/responses plus the
//! learn/score/session logic, independent of any transport.
//!
//! The HTTP front-end ([`crate::http`]) is a thin shell over
//! [`CornetService`]; everything here is directly callable (and
//! benchmarked) without a socket.
//!
//! There is one learn flow: validate, fingerprint, look the fingerprint
//! up in the store, and on a miss prepare the column once
//! ([`Cornet::prepare`]) and learn every class over it
//! ([`Cornet::learn_ruleset_in`]), then store, index and answer. A
//! single-rule request is the one-class case; its legacy record and wire
//! fields are derived at the end. Negative corrections are pushed into
//! clustering and search, so `consistent:true` carries a rule that
//! provably excludes every negative, and `consistent:false` is an
//! abstention — no rule in the language satisfies the corrections, and the
//! best relaxed rule is returned (and persisted) as a fallback.
//!
//! Every acknowledged session state is appended to the store's rule log
//! as a `session-state` record (`RuleStore::put_session`), so the demo
//! paper's correct-and-relearn loop survives a server restart. Sessions
//! are numbered `s<n>` in creation order; the table keeps the
//! `max_sessions` highest-numbered ones, at runtime and after a restart
//! alike, so an evicted session needs no tombstone. The most recently
//! re-learned sessions keep their prepared columns in memory, so a
//! correction re-learns without preparing its column again.

use crate::store::{
    rule_id_for, rule_set_id_for, session_number, ClassFingerprint, RuleStore, StoredRule,
};
use crate::suggest::{
    embed_column, suggest_metrics, SuggestIndex, SuggestRequest, SuggestResponse, Suggestion,
};
use cornet_core::prelude::*;
use cornet_core::rule::Rule;
use cornet_obs::Registry;
use cornet_serde::{field_t, optional_field_t, DecodeError, FromJson, Json, ToJson};
use cornet_table::{CellValue, Format, TargetScope, FORMAT_PRIMARY};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Rule-store directory.
    pub store_dir: PathBuf,
    /// In-memory LRU capacity of the rule store.
    pub cache_capacity: usize,
    /// Cap on live sessions; beyond it the lowest-numbered (oldest)
    /// session is evicted, and a restart restores the `max_sessions`
    /// highest-numbered sessions from the log, so both keep the same set.
    /// Learned rules persist in the store regardless.
    pub max_sessions: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            store_dir: PathBuf::from("cornet-store"),
            cache_capacity: 256,
            max_sessions: 256,
        }
    }
}

/// A service failure, mapped onto an HTTP status by the front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Malformed request (missing fields, out-of-range indices, …) → 400.
    BadRequest(String),
    /// Unknown rule or session id → 404.
    NotFound(String),
    /// Well-formed request the learner cannot satisfy → 422.
    Unlearnable(String),
    /// Store I/O failure → 500.
    Internal(String),
}

impl ServeError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Unlearnable(_) => 422,
            ServeError::Internal(_) => 500,
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        match self {
            ServeError::BadRequest(m)
            | ServeError::NotFound(m)
            | ServeError::Unlearnable(m)
            | ServeError::Internal(m) => m,
        }
    }
}

/// A request body that parsed as JSON but does not decode is a `400`.
impl From<cornet_serde::DecodeError> for ServeError {
    fn from(e: cornet_serde::DecodeError) -> Self {
        ServeError::BadRequest(e.message)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message(), self.status())
    }
}

impl std::error::Error for ServeError {}

/// One format class of a multi-class learn request: the style the user
/// painted, where it paints, and the cells they painted it on. Also the
/// per-class echo inside session responses.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRequest {
    /// The style payload (optional on the wire; default = no styling).
    pub style: Format,
    /// Cell- or row-scoped painting (optional on the wire; default cell).
    pub scope: TargetScope,
    /// Indices the user gave this style.
    pub examples: Vec<usize>,
}

impl FromJson for ClassRequest {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(ClassRequest {
            style: optional_field_t(json, "style")?.unwrap_or_else(Format::default_format),
            scope: optional_field_t(json, "scope")?.unwrap_or_default(),
            examples: field_t(json, "examples")?,
        })
    }
}

impl ToJson for ClassRequest {
    fn to_json(&self) -> Json {
        Json::object([
            ("style", self.style.to_json()),
            ("scope", self.scope.to_json()),
            ("examples", self.examples.to_json()),
        ])
    }
}

/// `learn`: a column plus user-formatted example indices (and optional
/// negative corrections). With `classes` non-empty this is a multi-class
/// learn instead: one styled rule per class, `examples` must be absent.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnRequest {
    /// Raw cell texts; each is parsed the way a spreadsheet parses entry.
    pub cells: Vec<String>,
    /// Indices the user formatted (positives). Single-rule learns only.
    pub examples: Vec<usize>,
    /// Indices the user explicitly unformatted (negative corrections).
    /// On a multi-class learn these are hard negatives for every class.
    pub negatives: Vec<usize>,
    /// The format classes of a multi-class learn (optional on the wire;
    /// empty = single-rule learn, preserving the historical request
    /// shape byte for byte).
    pub classes: Vec<ClassRequest>,
    /// Tenancy scope. A tenanted learn is fingerprinted, stored and
    /// indexed under this tenant's namespace, invisible to `/suggest`
    /// queries from anyone else; `None` (the historical shape) is the
    /// shared global namespace.
    pub tenant: Option<String>,
}

impl FromJson for LearnRequest {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(LearnRequest {
            cells: field_t(json, "cells")?,
            examples: optional_field_t(json, "examples")?.unwrap_or_default(),
            negatives: optional_field_t(json, "negatives")?.unwrap_or_default(),
            classes: optional_field_t(json, "classes")?.unwrap_or_default(),
            tenant: optional_field_t(json, "tenant")?,
        })
    }
}

impl ToJson for LearnRequest {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("cells".to_string(), self.cells.to_json()),
            ("examples".to_string(), self.examples.to_json()),
            ("negatives".to_string(), self.negatives.to_json()),
        ];
        if !self.classes.is_empty() {
            pairs.push(("classes".to_string(), self.classes.to_json()));
        }
        if let Some(t) = &self.tenant {
            pairs.push(("tenant".to_string(), Json::str(t.clone())));
        }
        Json::Object(pairs)
    }
}

/// `learn` result: the chosen rule and where it now lives. For a
/// multi-class learn the legacy fields describe the priority-0 rule and
/// `rule_set`/`assignments` carry the full set; both are omitted from the
/// wire on single-rule learns so historical responses stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnResponse {
    /// Rule-store id (content fingerprint of the request).
    pub rule_id: String,
    /// The learned rule (structured form). Priority-0 rule of the set on
    /// multi-class learns.
    pub rule: Rule,
    /// Human-readable rule text (`AND(TextStartsWith("RW"),…)`).
    pub rule_text: String,
    /// Excel conditional-formatting formula equivalent.
    pub formula: String,
    /// Ranker score of the chosen candidate.
    pub score: f64,
    /// Indices the rule formats on the submitted column. For a rule set,
    /// the post-conflict-resolution union across all rules.
    pub matches: Vec<usize>,
    /// True when the rule came from the store without re-learning.
    pub cached: bool,
    /// False when no candidate excluded every negative and the best
    /// candidate was returned anyway. For a rule set: every rule proved
    /// consistent with its class.
    pub consistent: bool,
    /// The full styled rule set of a multi-class learn.
    pub rule_set: Option<RuleSet>,
    /// Per-cell winning rule index after conflict resolution (`null` where
    /// no rule claims the cell). Present exactly when `rule_set` is.
    pub assignments: Option<Vec<Option<usize>>>,
}

impl ToJson for LearnResponse {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("rule_id".to_string(), Json::str(self.rule_id.clone())),
            ("rule".to_string(), self.rule.to_json()),
            ("rule_text".to_string(), Json::str(self.rule_text.clone())),
            ("formula".to_string(), Json::str(self.formula.clone())),
            ("score".to_string(), Json::Number(self.score)),
            ("matches".to_string(), self.matches.to_json()),
            ("cached".to_string(), Json::Bool(self.cached)),
            ("consistent".to_string(), Json::Bool(self.consistent)),
        ];
        if let Some(set) = &self.rule_set {
            pairs.push(("rule_set".to_string(), set.to_json()));
        }
        if let Some(assignments) = &self.assignments {
            pairs.push(("assignments".to_string(), assignments.to_json()));
        }
        Json::Object(pairs)
    }
}

impl FromJson for LearnResponse {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(LearnResponse {
            rule_id: field_t(json, "rule_id")?,
            rule: field_t(json, "rule")?,
            rule_text: field_t(json, "rule_text")?,
            formula: field_t(json, "formula")?,
            score: field_t(json, "score")?,
            matches: field_t(json, "matches")?,
            cached: field_t(json, "cached")?,
            consistent: field_t(json, "consistent")?,
            rule_set: optional_field_t(json, "rule_set")?,
            assignments: optional_field_t(json, "assignments")?,
        })
    }
}

/// `score`: fresh rows against a stored rule (by id), an inline rule, or
/// an inline rule set.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Stored rule to score with. Exactly one of `rule_id`/`rule`/`rule_set`.
    pub rule_id: Option<String>,
    /// Inline rule to score with.
    pub rule: Option<Rule>,
    /// Inline rule set to score with (conflict-resolved server-side).
    pub rule_set: Option<RuleSet>,
    /// Raw cell texts to label.
    pub cells: Vec<String>,
}

impl FromJson for ScoreRequest {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(ScoreRequest {
            rule_id: optional_field_t(json, "rule_id")?,
            rule: optional_field_t(json, "rule")?,
            rule_set: optional_field_t(json, "rule_set")?,
            cells: field_t(json, "cells")?,
        })
    }
}

impl ToJson for ScoreRequest {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        if let Some(id) = &self.rule_id {
            pairs.push(("rule_id", Json::str(id.clone())));
        }
        if let Some(rule) = &self.rule {
            pairs.push(("rule", rule.to_json()));
        }
        if let Some(set) = &self.rule_set {
            pairs.push(("rule_set", set.to_json()));
        }
        pairs.push(("cells", self.cells.to_json()));
        Json::object(pairs)
    }
}

/// `score` result: the formatting labels.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    /// Id of the rule used, when it came from the store.
    pub rule_id: Option<String>,
    /// Indices of cells the rule formats. For a rule set, the
    /// post-conflict-resolution union.
    pub matches: Vec<usize>,
    /// Number of labelled cells (equals the request's cell count).
    pub n_cells: usize,
    /// Per-cell winning rule index when scoring a rule set (omitted from
    /// the wire for single-rule scores).
    pub assignments: Option<Vec<Option<usize>>>,
}

impl ToJson for ScoreResponse {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("rule_id".to_string(), self.rule_id.to_json()),
            ("matches".to_string(), self.matches.to_json()),
            ("n_cells".to_string(), self.n_cells.to_json()),
        ];
        if let Some(assignments) = &self.assignments {
            pairs.push(("assignments".to_string(), assignments.to_json()));
        }
        Json::Object(pairs)
    }
}

impl FromJson for ScoreResponse {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(ScoreResponse {
            rule_id: field_t(json, "rule_id")?,
            matches: field_t(json, "matches")?,
            n_cells: field_t(json, "n_cells")?,
            assignments: optional_field_t(json, "assignments")?,
        })
    }
}

/// One item of a `batch` request.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// A learn request (`"op":"learn"`).
    Learn(LearnRequest),
    /// A score request (`"op":"score"`).
    Score(ScoreRequest),
}

impl FromJson for BatchItem {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        let op: String = field_t(json, "op")?;
        match op.as_str() {
            "learn" => Ok(BatchItem::Learn(LearnRequest::from_json(json)?)),
            "score" => Ok(BatchItem::Score(ScoreRequest::from_json(json)?)),
            other => Err(DecodeError::new(format!("unknown batch op `{other}`"))),
        }
    }
}

impl ToJson for BatchItem {
    fn to_json(&self) -> Json {
        let (op, mut inner) = match self {
            BatchItem::Learn(r) => ("learn", r.to_json()),
            BatchItem::Score(r) => ("score", r.to_json()),
        };
        if let Json::Object(pairs) = &mut inner {
            pairs.insert(0, ("op".to_string(), Json::str(op)));
        }
        inner
    }
}

/// One format class of a multi-class session: its style payload, scope
/// and the cells currently painted with it.
#[derive(Debug, Clone)]
struct SessionClass {
    style: Format,
    scope: TargetScope,
    positives: BTreeSet<usize>,
}

impl SessionClass {
    /// The class as requests and responses carry it.
    fn request(&self) -> ClassRequest {
        ClassRequest {
            style: self.style.clone(),
            scope: self.scope,
            examples: self.positives.iter().copied().collect(),
        }
    }
}

/// An index set as the sorted JSON array sessions persist.
fn index_set_json(set: &BTreeSet<usize>) -> Json {
    set.iter().copied().collect::<Vec<usize>>().to_json()
}

impl ToJson for SessionClass {
    fn to_json(&self) -> Json {
        Json::object([
            ("style", self.style.to_json()),
            ("scope", self.scope.to_json()),
            ("positives", index_set_json(&self.positives)),
        ])
    }
}

impl FromJson for SessionClass {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        let positives: Vec<usize> = field_t(json, "positives")?;
        Ok(SessionClass {
            style: field_t(json, "style")?,
            scope: field_t(json, "scope")?,
            positives: positives.into_iter().collect(),
        })
    }
}

/// An interactive correct-and-relearn session (the demo paper's loop).
/// Persisted as a rule-log record (kind [`crate::store::SESSION_KIND`])
/// so the loop survives a server restart. A session is either single-rule
/// (`classes` empty, `positives` in use) or multi-class (`classes`
/// non-empty, `positives` always empty); the `classes` key is omitted
/// from the wire when empty.
#[derive(Debug, Clone)]
struct Session {
    id: String,
    cells: Vec<String>,
    positives: BTreeSet<usize>,
    negatives: BTreeSet<usize>,
    classes: Vec<SessionClass>,
    revision: u64,
    last: Option<LearnResponse>,
}

impl ToJson for Session {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::str(self.id.clone())),
            ("cells".to_string(), self.cells.to_json()),
            ("positives".to_string(), index_set_json(&self.positives)),
            ("negatives".to_string(), index_set_json(&self.negatives)),
        ];
        if !self.classes.is_empty() {
            pairs.push(("classes".to_string(), self.classes.to_json()));
        }
        pairs.push(("revision".to_string(), self.revision.to_json()));
        pairs.push((
            "last".to_string(),
            self.last
                .as_ref()
                .map(ToJson::to_json)
                .unwrap_or(Json::Null),
        ));
        Json::Object(pairs)
    }
}

impl FromJson for Session {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        let positives: Vec<usize> = field_t(json, "positives")?;
        let negatives: Vec<usize> = field_t(json, "negatives")?;
        Ok(Session {
            id: field_t(json, "id")?,
            cells: field_t(json, "cells")?,
            positives: positives.into_iter().collect(),
            negatives: negatives.into_iter().collect(),
            classes: optional_field_t(json, "classes")?.unwrap_or_default(),
            revision: field_t(json, "revision")?,
            last: optional_field_t(json, "last")?,
        })
    }
}

/// A session snapshot returned by the session endpoints.
#[derive(Debug, Clone)]
pub struct SessionResponse {
    /// Session identifier (`s<n>`, numbered in creation order).
    pub session_id: String,
    /// Bumped on every correction.
    pub revision: u64,
    /// Column length.
    pub n_cells: usize,
    /// Current positive examples. In a multi-class session this is the
    /// sorted union across classes (the per-class split is in `classes`).
    pub positives: Vec<usize>,
    /// Current negative corrections.
    pub negatives: Vec<usize>,
    /// The per-class styles, scopes and example sets of a multi-class
    /// session (omitted from the wire for single-rule sessions).
    pub classes: Vec<ClassRequest>,
    /// Latest learn result (`None` until the first example arrives).
    pub result: Option<LearnResponse>,
}

impl ToJson for SessionResponse {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("session_id".to_string(), Json::str(self.session_id.clone())),
            ("revision".to_string(), self.revision.to_json()),
            ("n_cells".to_string(), self.n_cells.to_json()),
            ("positives".to_string(), self.positives.to_json()),
            ("negatives".to_string(), self.negatives.to_json()),
        ];
        if !self.classes.is_empty() {
            pairs.push(("classes".to_string(), self.classes.to_json()));
        }
        pairs.push((
            "result".to_string(),
            self.result
                .as_ref()
                .map(ToJson::to_json)
                .unwrap_or(Json::Null),
        ));
        Json::Object(pairs)
    }
}

impl FromJson for SessionResponse {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(SessionResponse {
            session_id: field_t(json, "session_id")?,
            revision: field_t(json, "revision")?,
            n_cells: field_t(json, "n_cells")?,
            positives: field_t(json, "positives")?,
            negatives: field_t(json, "negatives")?,
            classes: optional_field_t(json, "classes")?.unwrap_or_default(),
            result: optional_field_t(json, "result")?,
        })
    }
}

/// The live sessions, keyed by number. Beyond the cap the lowest number
/// is evicted, which is also the session a restart would not restore.
#[derive(Debug, Default)]
struct SessionTable {
    /// Sessions are individually locked so a slow re-learn on one
    /// session never blocks operations on the others; the table mutex is
    /// only ever held for map lookups and insertions.
    map: BTreeMap<u64, Arc<Mutex<Session>>>,
}

impl SessionTable {
    /// Inserts session `n`, evicting the lowest numbers beyond `cap`.
    fn insert(&mut self, n: u64, session: Session, cap: usize) {
        self.map.insert(n, Arc::new(Mutex::new(session)));
        while self.map.len() > cap.max(1) {
            self.map.pop_first();
        }
    }

    fn get(&self, id: &str) -> Result<Arc<Mutex<Session>>, ServeError> {
        session_number(id)
            .and_then(|n| self.map.get(&n))
            .cloned()
            .ok_or_else(|| ServeError::NotFound(format!("no session `{id}`")))
    }
}

/// What `learn`, `score` and `suggest` apply to a column: one rule, or a
/// prioritized rule set conflict-resolved through [`RuleSet::apply`].
#[derive(Clone, Copy)]
enum Formatter<'a> {
    Rule(&'a Rule),
    Set(&'a RuleSet),
}

impl Formatter<'_> {
    /// A stored record's rule set when it has one, else its rule.
    fn of(stored: &StoredRule) -> Formatter<'_> {
        match &stored.rule_set {
            Some(set) => Formatter::Set(set),
            None => Formatter::Rule(&stored.rule),
        }
    }

    /// The indices formatted, plus each cell's winning rule for a set.
    fn apply(self, cells: &[CellValue]) -> (Vec<usize>, Option<Vec<Option<usize>>>) {
        match self {
            Formatter::Rule(rule) => (rule.execute(cells).iter_ones().collect(), None),
            Formatter::Set(set) => {
                let assignments = set.apply(cells);
                (claimed(&assignments), Some(assignments))
            }
        }
    }
}

/// The cells some rule claims, given each cell's winning rule.
fn claimed(assignments: &[Option<usize>]) -> Vec<usize> {
    assignments
        .iter()
        .enumerate()
        .filter_map(|(i, w)| w.map(|_| i))
        .collect()
}

/// How many of the most recently re-learned sessions keep their prepared
/// column ([`ColumnContext`], up to ~0.5 MB for a 400-cell numeric column)
/// in memory, whatever `max_sessions` is. Older sessions prepare their
/// column again on their next correction.
const SESSION_CONTEXTS: usize = 16;

/// The service: a learner in front of the persistent rule store, plus
/// interactive sessions persisted in the same log.
pub struct CornetService {
    store: Mutex<RuleStore>,
    /// The tenant-namespaced embedding index behind `/suggest`, rebuilt
    /// from the persisted store at open and extended on every learn that
    /// writes a rule. Locked independently of the store; no path holds
    /// both locks at once.
    suggest: Mutex<SuggestIndex>,
    sessions: Mutex<SessionTable>,
    max_sessions: usize,
    /// Prepared columns of the [`SESSION_CONTEXTS`] most recently
    /// re-learned sessions, oldest first, keyed by session id. Never
    /// persisted; locked only to take or return one entry.
    contexts: Mutex<VecDeque<(String, ColumnContext)>>,
    next_session: AtomicU64,
    learns: AtomicU64,
    started: Instant,
}

impl CornetService {
    /// Opens the rule store, reloads the `max_sessions` highest-numbered
    /// persisted sessions, and builds the service. A session whose latest
    /// record is corrupt is skipped (the session is lost, the server is
    /// not).
    pub fn new(config: &ServiceConfig) -> io::Result<CornetService> {
        let store = RuleStore::open(&config.store_dir, config.cache_capacity)?;
        // Rebuild the suggestion index from the persisted records alone:
        // every rule learned since embeddings existed carries its vector,
        // so a restarted server suggests without re-learning anything.
        // Pre-embedding records are skipped — they become suggestible
        // when re-learned, never silently mis-indexed.
        let mut suggest = SuggestIndex::new();
        store.for_each_stored(|rule| {
            if let Some(embedding) = &rule.embedding {
                suggest.insert(rule.tenant.as_deref(), &rule.id, embedding);
            }
        });
        let mut latest = store.latest_sessions::<Session>().peekable();
        // Numbers are never reused, not even a corrupt record's.
        let next = latest.peek().map_or(1, |&(n, _)| n + 1);
        let mut table = SessionTable::default();
        for (n, session) in latest
            .filter_map(|(n, state)| {
                state
                    .filter(|s| session_number(&s.id) == Some(n))
                    .map(|s| (n, s))
            })
            .take(config.max_sessions.max(1))
        {
            table.insert(n, session, config.max_sessions);
        }
        Ok(CornetService {
            store: Mutex::new(store),
            suggest: Mutex::new(suggest),
            sessions: Mutex::new(table),
            max_sessions: config.max_sessions,
            contexts: Mutex::new(VecDeque::new()),
            next_session: AtomicU64::new(next),
            learns: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// Number of actual learner invocations since startup (cache hits do
    /// not count — the restart test relies on exactly this distinction).
    pub fn learns_performed(&self) -> u64 {
        self.learns.load(Ordering::Relaxed)
    }

    fn validate_indices(len: usize, indices: &[usize], what: &str) -> Result<(), ServeError> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(ServeError::BadRequest(format!(
                "{what} index {bad} out of range for {len} cells"
            )));
        }
        Ok(())
    }

    /// Validates a tenant name: 1–64 chars of lowercase ASCII
    /// alphanumerics, `-` and `_`. The tenant feeds the content
    /// fingerprint and names an index namespace, so the grammar is
    /// deliberately tight — no case-folding surprises, no path-like
    /// strings. Returns the borrowed tenant for fingerprinting.
    fn validate_tenant(tenant: Option<&str>) -> Result<Option<&str>, ServeError> {
        let Some(t) = tenant else { return Ok(None) };
        let ok = !t.is_empty()
            && t.len() <= 64
            && t.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_');
        if !ok {
            return Err(ServeError::BadRequest(format!(
                "invalid tenant `{t}`: expected 1-64 chars of [a-z0-9_-]"
            )));
        }
        Ok(Some(t))
    }

    /// Rejects duplicate indices. Duplicates are always a caller bug: the
    /// fingerprint sorts and dedups its index sets, so `examples:[0,0,2]`
    /// and `examples:[0,2]` would silently share a rule id while looking
    /// like different requests to the caller.
    fn validate_unique(indices: &[usize], what: &str) -> Result<(), ServeError> {
        let mut seen = BTreeSet::new();
        for &i in indices {
            if !seen.insert(i) {
                return Err(ServeError::BadRequest(format!(
                    "duplicate {what} index {i}"
                )));
            }
        }
        Ok(())
    }

    /// Learns a rule (or fetches the stored rule for an identical
    /// request). This is the paper's `learn`: examples in, rule out.
    ///
    /// Negative corrections run through the *constrained* learner, so a
    /// `consistent:true` response carries a rule whose search already
    /// excluded every negative — no post-hoc candidate filtering. When the
    /// constrained search abstains (provably no rule in the language
    /// satisfies the corrections), the best relaxed rule is returned with
    /// `consistent:false`, and the abstention is persisted with the rule.
    pub fn learn(&self, req: &LearnRequest) -> Result<LearnResponse, ServeError> {
        self.learn_in(req, &mut None)
    }

    /// The one learn flow behind `/learn`, `/batch` and every session
    /// re-learn: validate, fingerprint, look the fingerprint up, and on a
    /// miss prepare the column (unless `context` already holds it, which
    /// must then come from `req.cells`), learn the request's classes
    /// through [`Cornet::learn_ruleset_in`], store, index and answer. A
    /// single-rule request is the one-class case; its legacy record and
    /// wire shape (no `rule_set`, examples as given, format `f1`) are
    /// derived here at the edge.
    fn learn_in(
        &self,
        req: &LearnRequest,
        context: &mut Option<ColumnContext>,
    ) -> Result<LearnResponse, ServeError> {
        let classes = Self::validate_learn(req)?;
        let tenant = Self::validate_tenant(req.tenant.as_deref())?;
        let single = req.classes.is_empty();
        let id = if single {
            rule_id_for(tenant, &req.cells, &req.examples, &req.negatives)
        } else {
            let fingerprints: Vec<ClassFingerprint<'_>> = req
                .classes
                .iter()
                .map(|c| ClassFingerprint {
                    style: &c.style,
                    scope: c.scope,
                    examples: &c.examples,
                })
                .collect();
            rule_set_id_for(tenant, &req.cells, &fingerprints, &req.negatives)
        };
        let cells =
            || -> Vec<CellValue> { req.cells.iter().map(|s| CellValue::parse(s)).collect() };
        if let Some(stored) = self.store.lock().unwrap().get(&id) {
            let applied = Formatter::of(&stored).apply(&cells());
            return Ok(Self::response(&stored, applied, true));
        }

        let cornet = Cornet::with_default_ranker();
        let ctx = context.get_or_insert_with(|| cornet.prepare(&cells()));
        self.learns.fetch_add(1, Ordering::Relaxed);
        let outcome = cornet
            .learn_ruleset_in(ctx, &classes, &req.negatives)
            .map_err(|e| ServeError::Unlearnable(e.to_string()))?;
        let set = outcome.rule_set;
        let embedding = embed_column(&req.cells);
        let mut stored = StoredRule {
            id: id.clone(),
            rule: set.rules[0].rule.clone(),
            score: set.rules[0].score,
            examples: req.examples.clone(),
            negatives: req.negatives.clone(),
            column_len: req.cells.len(),
            consistent: set.consistent(),
            rule_set: None,
            tenant: req.tenant.clone(),
            embedding: Some(embedding.clone()),
        };
        if single {
            // The single-format shape of §2: format f1 (the one unstyled
            // class interned as `FORMAT_NONE`), no set, and the examples
            // as given. An abstaining rule was re-learned by the relaxed
            // search, a second learner run.
            stored.rule.format = FORMAT_PRIMARY;
            if !stored.consistent {
                self.learns.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            let examples: BTreeSet<usize> = classes
                .iter()
                .flat_map(|c| c.positives.iter().copied())
                .collect();
            stored.examples = examples.into_iter().collect();
            stored.rule_set = Some(set);
        }
        self.store
            .lock()
            .unwrap()
            .put(stored.clone())
            .map_err(|e| ServeError::Internal(format!("rule store write failed: {e}")))?;
        self.suggest.lock().unwrap().insert(tenant, &id, &embedding);
        // The learn already resolved the column: its assignments are the
        // response's, so the new rule is not applied a second time.
        let matches = claimed(&outcome.assignments);
        let assignments = stored.rule_set.is_some().then_some(outcome.assignments);
        Ok(Self::response(&stored, (matches, assignments), false))
    }

    /// Checks a learn request and returns its format classes: the
    /// request's `classes`, or the single-rule request's `examples` as one
    /// unstyled class.
    fn validate_learn(req: &LearnRequest) -> Result<Vec<ClassSpec>, ServeError> {
        let n = req.cells.len();
        if n == 0 {
            return Err(ServeError::BadRequest("empty column".into()));
        }
        let single = req.classes.is_empty();
        if !single && !req.examples.is_empty() {
            return Err(ServeError::BadRequest(
                "provide either `examples` or `classes`, not both".into(),
            ));
        }
        let classes: Vec<ClassSpec> = if single {
            vec![ClassSpec::new(
                Format::default_format(),
                req.examples.clone(),
            )]
        } else {
            req.classes
                .iter()
                .map(|c| ClassSpec::new(c.style.clone(), c.examples.clone()).with_scope(c.scope))
                .collect()
        };
        if let Some(k) = classes.iter().position(|c| c.positives.is_empty()) {
            return Err(ServeError::BadRequest(if single {
                "no example indices".into()
            } else {
                format!("class {k} has no example indices")
            }));
        }
        for class in &classes {
            Self::validate_indices(n, &class.positives, "example")?;
        }
        Self::validate_indices(n, &req.negatives, "negative")?;
        for class in &classes {
            Self::validate_unique(&class.positives, "example")?;
        }
        Self::validate_unique(&req.negatives, "negative")?;
        let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
        for (k, class) in classes.iter().enumerate() {
            for &i in &class.positives {
                if let Some(other) = owner.insert(i, k) {
                    return Err(ServeError::BadRequest(format!(
                        "index {i} appears in classes {other} and {k}"
                    )));
                }
                if req.negatives.contains(&i) {
                    return Err(ServeError::BadRequest(format!(
                        "index {i} is both an example and a negative"
                    )));
                }
            }
        }
        Ok(classes)
    }

    /// A learn response for a stored record and what it formats.
    fn response(
        stored: &StoredRule,
        (matches, assignments): (Vec<usize>, Option<Vec<Option<usize>>>),
        cached: bool,
    ) -> LearnResponse {
        LearnResponse {
            rule_id: stored.id.clone(),
            rule: stored.rule.clone(),
            rule_text: stored.rule.to_string(),
            formula: stored.rule.to_formula().to_string(),
            score: stored.score,
            matches,
            cached,
            consistent: stored.consistent,
            rule_set: stored.rule_set.clone(),
            assignments,
        }
    }

    /// Scores fresh rows with a stored rule (single or set), an inline
    /// rule, or an inline rule set. Rule sets are conflict-resolved
    /// through [`RuleSet::apply`], and the response carries the per-cell
    /// winning-rule assignments alongside the resolved match union.
    pub fn score(&self, req: &ScoreRequest) -> Result<ScoreResponse, ServeError> {
        let stored;
        let (rule_id, formatter) = match (&req.rule_id, &req.rule, &req.rule_set) {
            (Some(id), None, None) => {
                stored = self.rule(id)?;
                (Some(id.clone()), Formatter::of(&stored))
            }
            (None, Some(rule), None) => (None, Formatter::Rule(rule)),
            (None, None, Some(set)) => (None, Formatter::Set(set)),
            _ => {
                return Err(ServeError::BadRequest(
                    "provide exactly one of `rule_id`, `rule` and `rule_set`".into(),
                ))
            }
        };
        let cells: Vec<CellValue> = req.cells.iter().map(|s| CellValue::parse(s)).collect();
        let (matches, assignments) = formatter.apply(&cells);
        Ok(ScoreResponse {
            rule_id,
            matches,
            n_cells: cells.len(),
            assignments,
        })
    }

    /// Runs a batch of learn/score items, fanned onto `cornet-pool`.
    /// Each item succeeds or fails independently; the response array is
    /// in request order.
    pub fn batch(&self, items: &[BatchItem]) -> Vec<Result<Json, ServeError>> {
        cornet_pool::par_map(items.len(), |i| match &items[i] {
            BatchItem::Learn(req) => self.learn(req).map(|r| r.to_json()),
            BatchItem::Score(req) => self.score(req).map(|r| r.to_json()),
        })
    }

    /// Looks a stored rule up by id.
    pub fn rule(&self, id: &str) -> Result<StoredRule, ServeError> {
        self.store
            .lock()
            .unwrap()
            .get(id)
            .ok_or_else(|| ServeError::NotFound(format!("no stored rule with id `{id}`")))
    }

    /// Zero-example suggestion (ROADMAP item 1, the Tabularis Formatus
    /// flywheel): embeds the bare column, retrieves the nearest stored
    /// rules visible to the caller's tenant from the ball-tree index, and
    /// re-scores each against the fresh cells. No learner runs and no
    /// store record is written — a suggestion is a pure read.
    ///
    /// Ranking: `score = similarity × 4·p·(1−p)`, where `similarity` is
    /// `1/(1 + embedding distance)` and `p` is the fraction of the fresh
    /// column the rule formats. The selectivity term peaks at `p = 0.5`
    /// and vanishes at the extremes — a rule firing on every cell is as
    /// uninformative as one firing on none. Candidates matching zero
    /// cells are dropped outright.
    pub fn suggest(&self, req: &SuggestRequest) -> Result<SuggestResponse, ServeError> {
        if req.cells.is_empty() {
            return Err(ServeError::BadRequest("empty column".into()));
        }
        let tenant = Self::validate_tenant(req.tenant.as_deref())?;
        let k = req.k.unwrap_or(3);
        if k == 0 || k > 16 {
            return Err(ServeError::BadRequest(format!(
                "k must be between 1 and 16, got {k}"
            )));
        }
        let metrics = suggest_metrics();
        metrics.queries.inc();
        let query = embed_column(&req.cells);
        // Over-fetch: re-scoring drops zero-match candidates, so pull
        // more neighbors than requested to keep `k` suggestions fillable.
        // Index and store locks are taken strictly in sequence, never
        // nested — learns take them in the same order.
        let (neighbors, indexed) = {
            let index = self.suggest.lock().unwrap();
            (index.query(tenant, &query, k * 2), index.len())
        };
        let candidates: Vec<(StoredRule, f64)> = {
            let mut store = self.store.lock().unwrap();
            neighbors
                .into_iter()
                .filter_map(|(id, dist)| store.get(&id).map(|rule| (rule, dist)))
                .collect()
        };
        let cells: Vec<CellValue> = req.cells.iter().map(|s| CellValue::parse(s)).collect();
        let mut suggestions: Vec<Suggestion> = candidates
            .into_iter()
            .filter_map(|(stored, dist)| {
                let (matches, _) = Formatter::of(&stored).apply(&cells);
                if matches.is_empty() {
                    return None;
                }
                let similarity = 1.0 / (1.0 + dist);
                let p = matches.len() as f64 / cells.len() as f64;
                Some(Suggestion {
                    rule_id: stored.id.clone(),
                    rule_text: stored.rule.to_string(),
                    formula: stored.rule.to_formula().to_string(),
                    matches,
                    similarity,
                    score: similarity * 4.0 * p * (1.0 - p),
                    consistent: stored.consistent,
                })
            })
            .collect();
        suggestions.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.rule_id.cmp(&b.rule_id))
        });
        suggestions.truncate(k);
        metrics.candidates.add(suggestions.len() as u64);
        if suggestions.is_empty() {
            metrics.empty.inc();
        }
        Ok(SuggestResponse {
            suggestions,
            indexed,
            n_cells: req.cells.len(),
        })
    }

    /// Points currently held by the suggestion index (all namespaces).
    pub fn suggest_indexed(&self) -> usize {
        self.suggest.lock().unwrap().len()
    }

    /// Opens a session over a column, optionally with initial examples
    /// (single-rule mode) or initial format classes (multi-class mode —
    /// the two are mutually exclusive).
    pub fn session_create(
        &self,
        cells: Vec<String>,
        examples: Vec<usize>,
        classes: Vec<ClassRequest>,
    ) -> Result<SessionResponse, ServeError> {
        if cells.is_empty() {
            return Err(ServeError::BadRequest("empty column".into()));
        }
        if !classes.is_empty() && !examples.is_empty() {
            return Err(ServeError::BadRequest(
                "provide either `examples` or `classes`, not both".into(),
            ));
        }
        Self::validate_indices(cells.len(), &examples, "example")?;
        for class in &classes {
            Self::validate_indices(cells.len(), &class.examples, "example")?;
        }
        let n = self.next_session.fetch_add(1, Ordering::Relaxed);
        let mut session = Session {
            id: format!("s{n}"),
            cells,
            positives: examples.into_iter().collect(),
            negatives: BTreeSet::new(),
            classes: classes
                .into_iter()
                .map(|c| SessionClass {
                    style: c.style,
                    scope: c.scope,
                    positives: c.examples.into_iter().collect(),
                })
                .collect(),
            revision: 0,
            last: None,
        };
        self.relearn(&mut session)?;
        self.persist_session(&session)?;
        let response = Self::session_snapshot(&session);
        self.sessions
            .lock()
            .unwrap()
            .insert(n, session, self.max_sessions);
        Ok(response)
    }

    /// The current state of a session.
    pub fn session_get(&self, id: &str) -> Result<SessionResponse, ServeError> {
        let session = self.sessions.lock().unwrap().get(id)?;
        let guard = session.lock().unwrap();
        Ok(Self::session_snapshot(&guard))
    }

    /// Applies corrections and re-learns: `format` marks cells the rule
    /// must cover (moves them out of the negatives), `unformat` marks
    /// cells it must not (moves them out of the positives).
    ///
    /// The *per-session* lock is held across the re-learn and the persist,
    /// so concurrent corrections to the same session serialize instead of
    /// losing one writer's updates, and its records reach the log in
    /// revision order, while other sessions stay responsive; a failed
    /// re-learn (or a failed persist) leaves the session unchanged. Lock
    /// order everywhere is table → session → store, and the table lock is
    /// released before the session lock is taken. A session evicted
    /// during its correction still appends its record: it has the lowest
    /// number, so a restart does not restore it either.
    pub fn session_correct(
        &self,
        id: &str,
        format: &[usize],
        unformat: &[usize],
        class: Option<usize>,
    ) -> Result<SessionResponse, ServeError> {
        let session = self.sessions.lock().unwrap().get(id)?;
        let mut guard = session.lock().unwrap();
        Self::validate_indices(guard.cells.len(), format, "format")?;
        Self::validate_indices(guard.cells.len(), unformat, "unformat")?;
        let mut updated = guard.clone();
        if updated.classes.is_empty() {
            if let Some(k) = class {
                return Err(ServeError::BadRequest(format!(
                    "session `{id}` is single-rule; it has no class {k}"
                )));
            }
            for &i in format {
                updated.negatives.remove(&i);
                updated.positives.insert(i);
            }
            for &i in unformat {
                updated.positives.remove(&i);
                updated.negatives.insert(i);
            }
        } else {
            // Multi-class: `format` paints the cell with class `k`'s style
            // (default: the first class), pulling it out of every other
            // class and out of the negatives; `unformat` strips it from
            // every class and records a hard negative.
            let k = class.unwrap_or(0);
            if k >= updated.classes.len() {
                return Err(ServeError::BadRequest(format!(
                    "class index {k} out of range for {} classes",
                    updated.classes.len()
                )));
            }
            for &i in format {
                updated.negatives.remove(&i);
                for (j, c) in updated.classes.iter_mut().enumerate() {
                    if j != k {
                        c.positives.remove(&i);
                    }
                }
                updated.classes[k].positives.insert(i);
            }
            for &i in unformat {
                for c in updated.classes.iter_mut() {
                    c.positives.remove(&i);
                }
                updated.negatives.insert(i);
            }
        }
        updated.revision += 1;
        self.relearn(&mut updated)?;
        self.persist_session(&updated)?;
        let response = Self::session_snapshot(&updated);
        *guard = updated;
        Ok(response)
    }

    /// Appends a session's state to the rule log; like a rule, it is
    /// acknowledged only once synced (one `fdatasync`, counted on
    /// `cornet_store_fsyncs_total`).
    fn persist_session(&self, session: &Session) -> Result<(), ServeError> {
        self.store
            .lock()
            .unwrap()
            .put_session(&session.id, session)
            .map_err(|e| ServeError::Internal(format!("session write failed: {e}")))
    }

    fn relearn(&self, session: &mut Session) -> Result<(), ServeError> {
        // A single-rule session learns from `positives`, a multi-class one
        // from its classes (its `positives` stay empty). A class emptied
        // by corrections drops out of the request — there is nothing left
        // to learn it from; priorities follow the surviving class order.
        let examples: Vec<usize> = session.positives.iter().copied().collect();
        let classes: Vec<ClassRequest> = session
            .classes
            .iter()
            .filter(|c| !c.positives.is_empty())
            .map(SessionClass::request)
            .collect();
        if examples.is_empty() && classes.is_empty() {
            session.last = None;
            return Ok(());
        }
        // Sessions are untenanted: their learns land in the global
        // namespace (per-tenant sessions are a follow-up).
        let req = LearnRequest {
            cells: session.cells.clone(),
            examples,
            negatives: session.negatives.iter().copied().collect(),
            classes,
            tenant: None,
        };
        let mut context = {
            let mut contexts = self.contexts.lock().unwrap();
            let held = contexts.iter().position(|(id, _)| *id == session.id);
            held.and_then(|at| contexts.remove(at)).map(|(_, ctx)| ctx)
        };
        let learned = self.learn_in(&req, &mut context);
        if let Some(ctx) = context {
            let mut contexts = self.contexts.lock().unwrap();
            contexts.push_back((session.id.clone(), ctx));
            if contexts.len() > SESSION_CONTEXTS {
                contexts.pop_front();
            }
        }
        session.last = Some(learned?);
        Ok(())
    }

    fn session_snapshot(session: &Session) -> SessionResponse {
        let positives: Vec<usize> = if session.classes.is_empty() {
            session.positives.iter().copied().collect()
        } else {
            session
                .classes
                .iter()
                .flat_map(|c| c.positives.iter().copied())
                .collect::<BTreeSet<usize>>()
                .into_iter()
                .collect()
        };
        SessionResponse {
            session_id: session.id.clone(),
            revision: session.revision,
            n_cells: session.cells.len(),
            positives,
            negatives: session.negatives.iter().copied().collect(),
            classes: session.classes.iter().map(SessionClass::request).collect(),
            result: session.last.clone(),
        }
    }

    /// Service health/statistics document.
    ///
    /// The on-disk rule count is the size of the store's in-memory index
    /// ([`RuleStore::persisted`]), so a health probe never touches disk.
    /// The store mutex is released before the session table is locked:
    /// no path holds both.
    pub fn health(&self) -> Json {
        let (hits, misses, cached, persisted) = {
            let store = self.store.lock().unwrap();
            let (hits, misses) = store.counters();
            (hits, misses, store.cached(), store.persisted())
        };
        let sessions = self.sessions.lock().unwrap().map.len();
        Json::object([
            ("status", Json::str("ok")),
            ("uptime_seconds", self.started.elapsed().as_secs().to_json()),
            ("rules_cached", cached.to_json()),
            ("rules_persisted", persisted.to_json()),
            ("store_hits", hits.to_json()),
            ("store_misses", misses.to_json()),
            ("sessions", sessions.to_json()),
            ("learns_performed", self.learns_performed().to_json()),
            ("suggest_indexed", self.suggest_indexed().to_json()),
        ])
    }

    /// The full Prometheus exposition served at `GET /metrics`: the
    /// process-global registry (learner stage timings, pool utilization,
    /// store and HTTP counters) followed by per-service gauges sampled at
    /// scrape time.
    ///
    /// The split matters for restarts: global families aggregate across
    /// the whole process (and across every service instance in it), while
    /// the `cornet_service_*` gauges reset with the service — a server
    /// restarted over a persisted store reports
    /// `cornet_service_learns_performed 0` even though the global learner
    /// counters keep their totals.
    pub fn metrics_text(&self) -> String {
        let service = Registry::new();
        let set = |name: &str, help: &str, value: i64| service.gauge(name, help).set(value);
        {
            let store = self.store.lock().unwrap();
            let (hits, misses) = store.counters();
            set(
                "cornet_service_store_hits",
                "This service's rule lookups answered from memory.",
                hits as i64,
            );
            set(
                "cornet_service_store_misses",
                "This service's rule lookups that went to disk or missed.",
                misses as i64,
            );
            set(
                "cornet_service_store_persisted_rules",
                "Distinct rules persisted in the store's rule log.",
                store.persisted() as i64,
            );
            set(
                "cornet_service_store_cached_rules",
                "Rules currently held in the in-memory LRU cache.",
                store.cached() as i64,
            );
        }
        set(
            "cornet_service_suggest_indexed",
            "Stored-rule embeddings in this service's suggestion index.",
            self.suggest_indexed() as i64,
        );
        set(
            "cornet_service_sessions",
            "Live interactive correct-and-relearn sessions.",
            self.sessions.lock().unwrap().map.len() as i64,
        );
        set(
            "cornet_service_learns_performed",
            "Learner invocations since this service started (store hits excluded).",
            self.learns_performed() as i64,
        );
        set(
            "cornet_service_uptime_seconds",
            "Seconds since this service started.",
            self.started.elapsed().as_secs() as i64,
        );
        let mut out = cornet_obs::registry().render();
        out.push_str(&service.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_service(tag: &str) -> (CornetService, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("cornet-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        (service, dir)
    }

    fn rw_column() -> Vec<String> {
        ["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn learn_then_cached_learn_then_score() {
        let (service, dir) = temp_service("learn");
        let req = LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2, 5],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        let first = service.learn(&req).unwrap();
        assert_eq!(first.matches, vec![0, 2, 5]);
        assert!(!first.cached);
        assert_eq!(service.learns_performed(), 1);

        let second = service.learn(&req).unwrap();
        assert!(second.cached, "identical request must hit the store");
        assert_eq!(second.rule_text, first.rule_text);
        assert_eq!(service.learns_performed(), 1, "no re-learning");

        let score = service
            .score(&ScoreRequest {
                rule_id: Some(first.rule_id.clone()),
                rule: None,
                rule_set: None,
                cells: vec!["RW-555".into(), "XX-1".into(), "RW-9-T".into()],
            })
            .unwrap();
        // Which negation the ranker prefers varies; what must hold is that
        // a fresh RW id is formatted and a non-RW id is not.
        assert!(score.matches.contains(&0));
        assert!(!score.matches.contains(&1));
        assert_eq!(score.n_cells, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn learn_errors_map_to_statuses() {
        let (service, dir) = temp_service("errors");
        let no_examples = LearnRequest {
            cells: rw_column(),
            examples: vec![],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        assert_eq!(service.learn(&no_examples).unwrap_err().status(), 400);

        let out_of_range = LearnRequest {
            cells: rw_column(),
            examples: vec![99],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        assert_eq!(service.learn(&out_of_range).unwrap_err().status(), 400);

        let unlearnable = LearnRequest {
            cells: vec!["x".into(), "x".into(), "x".into()],
            examples: vec![0],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        assert_eq!(service.learn(&unlearnable).unwrap_err().status(), 422);

        let missing_rule = ScoreRequest {
            rule_id: Some("r0123456789abcdef".into()),
            rule: None,
            rule_set: None,
            cells: vec!["a".into()],
        };
        assert_eq!(service.score(&missing_rule).unwrap_err().status(), 404);

        let ambiguous = ScoreRequest {
            rule_id: None,
            rule: None,
            rule_set: None,
            cells: vec!["a".into()],
        };
        assert_eq!(service.score(&ambiguous).unwrap_err().status(), 400);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_scores_from_the_persisted_store_without_relearning() {
        let (service, dir) = temp_service("restart");
        let req = LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2, 5],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        let learned = service.learn(&req).unwrap();
        drop(service);

        // A fresh process over the same store directory.
        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        let score = restarted
            .score(&ScoreRequest {
                rule_id: Some(learned.rule_id.clone()),
                rule: None,
                rule_set: None,
                cells: rw_column(),
            })
            .unwrap();
        assert_eq!(score.matches, vec![0, 2, 5]);
        let again = restarted.learn(&req).unwrap();
        assert!(again.cached);
        assert_eq!(restarted.learns_performed(), 0, "restart never re-learns");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_correct_and_relearn_loop() {
        let (service, dir) = temp_service("session");
        // The user starts with one example; RW-131-T is wrongly matched
        // by the initial "starts with RW" hypothesis.
        let created = service
            .session_create(rw_column(), vec![0], vec![])
            .unwrap();
        let first = created.result.clone().expect("rule learned");
        assert!(first.matches.contains(&0));

        // The user unformats RW-131-T (index 3) and formats RW-312 (5).
        let corrected = service
            .session_correct(&created.session_id, &[5], &[3], None)
            .unwrap();
        assert_eq!(corrected.revision, 1);
        let result = corrected.result.expect("re-learned");
        assert!(
            !result.matches.contains(&3),
            "corrected negative must not be matched: {result:?}"
        );
        assert!(result.matches.contains(&5));
        assert!(result.consistent);

        let fetched = service.session_get(&created.session_id).unwrap();
        assert_eq!(fetched.revision, 1);
        assert_eq!(fetched.positives, vec![0, 5]);
        assert_eq!(fetched.negatives, vec![3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_indices_are_rejected() {
        let (service, dir) = temp_service("dups");
        let dup_examples = LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2, 0],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        let err = service.learn(&dup_examples).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("duplicate example index 0"), "{err}");
        let dup_negatives = LearnRequest {
            cells: rw_column(),
            examples: vec![0],
            negatives: vec![3, 3],
            classes: vec![],
            tenant: None,
        };
        let err = service.learn(&dup_negatives).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(
            err.message().contains("duplicate negative index 3"),
            "{err}"
        );
        assert_eq!(service.learns_performed(), 0, "rejected before learning");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn constrained_learn_returns_a_rule_that_excludes_the_negative() {
        let (service, dir) = temp_service("constrained");
        // Examples {0, 2} alone generalise RW-131-T (3) in; the negative
        // correction must produce a *rule* that excludes it — not a
        // filtered mask — so fresh lookalike rows stay unformatted too.
        let req = LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2],
            negatives: vec![3],
            classes: vec![],
            tenant: None,
        };
        let response = service.learn(&req).unwrap();
        assert!(response.consistent, "{response:?}");
        assert!(!response.matches.contains(&3));
        assert!(response.matches.contains(&0) && response.matches.contains(&2));
        // The rule itself excludes the corrected value — scoring a fresh
        // row holding it must leave it unformatted (post-hoc filtering of
        // the old implementation could not do this).
        let score = service
            .score(&ScoreRequest {
                rule_id: Some(response.rule_id.clone()),
                rule: None,
                rule_set: None,
                cells: vec!["RW-888".into(), "RW-131-T".into()],
            })
            .unwrap();
        assert!(score.matches.contains(&0));
        assert!(
            !score.matches.contains(&1),
            "rule must exclude the corrected value on fresh rows: {score:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sessions_survive_a_restart() {
        let (service, dir) = temp_service("session-restart");
        let created = service
            .session_create(rw_column(), vec![0], vec![])
            .unwrap();
        let sid = created.session_id.clone();
        let corrected = service.session_correct(&sid, &[5], &[3], None).unwrap();
        assert_eq!(corrected.revision, 1);
        drop(service);

        // A fresh process over the same store directory resumes the loop.
        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        let fetched = restarted.session_get(&sid).unwrap();
        assert_eq!(fetched.revision, 1);
        assert_eq!(fetched.positives, vec![0, 5]);
        assert_eq!(fetched.negatives, vec![3]);
        let result = fetched.result.expect("restored session keeps its rule");
        assert!(!result.matches.contains(&3));

        // Further corrections work, and fresh sessions do not collide
        // with restored ids.
        let again = restarted.session_correct(&sid, &[2], &[], None).unwrap();
        assert_eq!(again.revision, 2);
        let fresh = restarted
            .session_create(rw_column(), vec![0], vec![])
            .unwrap();
        assert_ne!(fresh.session_id, sid);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The names of the files in a store directory, sorted.
    fn store_files(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn evicted_sessions_stay_evicted_after_a_restart() {
        let dir = std::env::temp_dir().join(format!(
            "cornet-service-test-evict-restart-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            max_sessions: 2,
        };
        let service = CornetService::new(&config).unwrap();
        let ids: Vec<String> = (0..3)
            .map(|_| {
                service
                    .session_create(rw_column(), vec![0], vec![])
                    .unwrap()
                    .session_id
            })
            .collect();
        service.session_correct(&ids[1], &[5], &[3], None).unwrap();
        assert!(service.session_get(&ids[0]).is_err(), "evicted at runtime");
        drop(service);
        // The log is the only file, and a restart with the same cap keeps
        // the same sessions: the evicted one stays gone.
        assert_eq!(store_files(&dir), [crate::store::LOG_FILE]);
        let restarted = CornetService::new(&config).unwrap();
        assert!(matches!(
            restarted.session_get(&ids[0]),
            Err(ServeError::NotFound(_))
        ));
        assert_eq!(restarted.session_get(&ids[1]).unwrap().revision, 1);
        assert!(restarted.session_get(&ids[2]).is_ok());
        let fresh = restarted
            .session_create(rw_column(), vec![0], vec![])
            .unwrap();
        assert_eq!(fresh.session_id, "s4", "numbers are never reused");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_session_records_are_skipped_on_restart() {
        let (service, dir) = temp_service("session-corrupt");
        let ok = service
            .session_create(rw_column(), vec![0], vec![])
            .unwrap();
        drop(service);
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(crate::store::LOG_FILE))
            .unwrap();
        std::io::Write::write_all(&mut log, b"s999\t{not json}\n").unwrap();
        drop(log);
        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert!(restarted.session_get(&ok.session_id).is_ok());
        assert!(matches!(
            restarted.session_get("s999"),
            Err(ServeError::NotFound(_))
        ));
        // Fresh ids never collide with the restored session, nor reuse
        // the corrupt record's number.
        let fresh = restarted
            .session_create(rw_column(), vec![0], vec![])
            .unwrap();
        assert_eq!(fresh.session_id, "s1000");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inconsistent_learns_stay_inconsistent_on_cache_hits() {
        let (service, dir) = temp_service("inconsistent");
        // Cells 0 and 1 hold the same value: no rule can cover example 0
        // while excluding negative 1, so the best candidate is returned
        // flagged inconsistent.
        let req = LearnRequest {
            cells: vec!["x".into(), "x".into(), "y".into(), "z".into()],
            examples: vec![0],
            negatives: vec![1],
            classes: vec![],
            tenant: None,
        };
        let first = service.learn(&req).unwrap();
        assert!(!first.consistent, "{first:?}");
        // A store hit must not launder the flag back to consistent.
        let second = service.learn(&req).unwrap();
        assert!(second.cached);
        assert!(!second.consistent, "cache hit reported consistent=true");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_table_evicts_the_lowest_number() {
        let session = |n: u64| Session {
            id: format!("s{n}"),
            cells: rw_column(),
            positives: BTreeSet::new(),
            negatives: BTreeSet::new(),
            classes: Vec::new(),
            revision: 0,
            last: None,
        };
        let mut table = SessionTable::default();
        for n in [10, 2, 7] {
            table.insert(n, session(n), 2);
        }
        assert!(table.get("s2").is_err(), "the lowest number is evicted");
        assert!(table.get("s7").is_ok());
        assert!(table.get("s10").is_ok());
        // Inserting a number below every live one evicts that session.
        table.insert(1, session(1), 2);
        assert!(table.get("s1").is_err());
        assert_eq!(table.map.keys().copied().collect::<Vec<_>>(), [7, 10]);
    }

    #[test]
    fn session_table_evicts_oldest_beyond_the_cap() {
        let dir =
            std::env::temp_dir().join(format!("cornet-service-test-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            max_sessions: 2,
        })
        .unwrap();
        let ids: Vec<String> = (0..3)
            .map(|_| {
                service
                    .session_create(rw_column(), vec![0], vec![])
                    .unwrap()
                    .session_id
            })
            .collect();
        assert!(
            matches!(service.session_get(&ids[0]), Err(ServeError::NotFound(_))),
            "oldest session must be evicted"
        );
        assert!(service.session_get(&ids[1]).is_ok());
        assert!(service.session_get(&ids[2]).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_the_most_recently_relearned_sessions_keep_their_column() {
        let (service, dir) = temp_service("contexts");
        // Distinct columns, so every create misses the store and prepares.
        let ids: Vec<String> = (0..SESSION_CONTEXTS + 2)
            .map(|n| {
                let mut cells = rw_column();
                cells.push(format!("ZZ-{n}"));
                service
                    .session_create(cells, vec![0], vec![])
                    .unwrap()
                    .session_id
            })
            .collect();
        let held = || -> Vec<String> {
            let contexts = service.contexts.lock().unwrap();
            contexts.iter().map(|(id, _)| id.clone()).collect()
        };
        assert_eq!(held(), ids[2..]);
        // Correcting a session whose column was dropped prepares it again
        // and makes it the newest holder.
        service.session_correct(&ids[0], &[2], &[], None).unwrap();
        let now = held();
        assert_eq!(now.len(), SESSION_CONTEXTS);
        assert_eq!(now.last(), Some(&ids[0]));
        assert!(!now.contains(&ids[2]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_fans_out_and_isolates_failures() {
        let (service, dir) = temp_service("batch");
        let learn = BatchItem::Learn(LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2, 5],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        });
        let bad = BatchItem::Score(ScoreRequest {
            rule_id: Some("r00000000deadbeef".into()),
            rule: None,
            rule_set: None,
            cells: vec!["a".into()],
        });
        let results = service.batch(&[learn.clone(), bad, learn]);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().status(), 404);
        assert!(results[2].is_ok(), "failure must not poison the batch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_text_reports_service_gauges_that_reset_on_restart() {
        let (service, dir) = temp_service("metrics");
        let req = LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2, 5],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        service.learn(&req).unwrap();
        let expo = cornet_obs::expo::parse(&service.metrics_text()).unwrap();
        assert_eq!(
            expo.value("cornet_service_learns_performed", &[]),
            Some(1.0)
        );
        assert_eq!(
            expo.value("cornet_service_store_persisted_rules", &[]),
            Some(1.0)
        );
        drop(service);

        // A fresh service over the same store: per-service families reset
        // even though the global registry keeps its process totals.
        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        let expo = cornet_obs::expo::parse(&restarted.metrics_text()).unwrap();
        assert_eq!(
            expo.value("cornet_service_learns_performed", &[]),
            Some(0.0),
            "restart resets the per-service learn gauge"
        );
        assert_eq!(
            expo.value("cornet_service_store_persisted_rules", &[]),
            Some(1.0),
            "persisted rules survive the restart"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_json_round_trips() {
        let learn = LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2],
            negatives: vec![3],
            classes: vec![],
            tenant: None,
        };
        let back = LearnRequest::from_json(&learn.to_json()).unwrap();
        assert_eq!(back, learn);
        // `negatives` is optional on the wire.
        let minimal = cornet_serde::parse(r#"{"cells":["a","b"],"examples":[0]}"#).unwrap();
        let decoded = LearnRequest::from_json(&minimal).unwrap();
        assert!(decoded.negatives.is_empty());

        let score = ScoreRequest {
            rule_id: Some("r0f".into()),
            rule: None,
            rule_set: None,
            cells: vec!["a".into()],
        };
        assert_eq!(ScoreRequest::from_json(&score.to_json()).unwrap(), score);
        let item = BatchItem::Learn(learn);
        assert_eq!(BatchItem::from_json(&item.to_json()).unwrap(), item);
    }

    fn status_column() -> Vec<String> {
        [
            "completed",
            "pending",
            "failed",
            "completed",
            "pending",
            "failed",
            "completed",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn status_classes() -> Vec<ClassRequest> {
        vec![
            ClassRequest {
                style: Format::fill("#dcfce7"),
                scope: TargetScope::Row,
                examples: vec![0],
            },
            ClassRequest {
                style: Format::fill("#fef9c3"),
                scope: TargetScope::Row,
                examples: vec![1],
            },
            ClassRequest {
                style: Format::fill("#fee2e2"),
                scope: TargetScope::Row,
                examples: vec![2],
            },
        ]
    }

    fn status_request() -> LearnRequest {
        LearnRequest {
            cells: status_column(),
            examples: vec![],
            negatives: vec![],
            classes: status_classes(),
            tenant: None,
        }
    }

    #[test]
    fn multi_class_learn_returns_a_prioritized_rule_set_and_caches() {
        let (service, dir) = temp_service("multiclass");
        let first = service.learn(&status_request()).unwrap();
        let set = first
            .rule_set
            .clone()
            .expect("multi-class learn carries a rule set");
        assert_eq!(set.len(), 3);
        assert!(set.consistent() && first.consistent);
        for (k, rule) in set.rules.iter().enumerate() {
            assert_eq!(rule.priority, k as u32, "priority follows class order");
            assert_eq!(rule.scope, TargetScope::Row);
            assert!(rule.consistent);
        }
        assert_eq!(set.rules[0].style, Format::fill("#dcfce7"));
        assert_eq!(set.rules[2].style, Format::fill("#fee2e2"));
        assert_eq!(
            first.assignments,
            Some(vec![
                Some(0),
                Some(1),
                Some(2),
                Some(0),
                Some(1),
                Some(2),
                Some(0)
            ]),
            "every status resolves to its class's rule"
        );
        assert_eq!(first.matches, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(service.learns_performed(), 1);

        let second = service.learn(&status_request()).unwrap();
        assert!(second.cached, "identical class request must hit the store");
        assert_eq!(second.rule_set, first.rule_set);
        assert_eq!(second.assignments, first.assignments);
        assert_eq!(service.learns_performed(), 1, "no re-learning");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_class_learn_validation_rejects_malformed_class_sets() {
        let (service, dir) = temp_service("multiclass-errors");
        let mut both = status_request();
        both.examples = vec![0];
        let err = service.learn(&both).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("not both"), "{err}");

        let mut overlap = status_request();
        overlap.classes[1].examples = vec![0];
        let err = service.learn(&overlap).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(
            err.message().contains("appears in classes 0 and 1"),
            "{err}"
        );

        let mut empty = status_request();
        empty.classes[2].examples = vec![];
        let err = service.learn(&empty).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("class 2 has no example"), "{err}");

        let mut negative_clash = status_request();
        negative_clash.negatives = vec![1];
        let err = service.learn(&negative_clash).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(
            err.message().contains("both an example and a negative"),
            "{err}"
        );
        assert_eq!(service.learns_performed(), 0, "rejected before learning");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rule_sets_survive_a_restart_and_score_by_id() {
        let (service, dir) = temp_service("multiclass-restart");
        let learned = service.learn(&status_request()).unwrap();
        drop(service);

        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        let again = restarted.learn(&status_request()).unwrap();
        assert!(again.cached);
        assert_eq!(again.rule_set, learned.rule_set);
        assert_eq!(restarted.learns_performed(), 0, "restart never re-learns");

        // Scoring fresh rows by the stored id conflict-resolves through
        // the persisted rule set and reports per-cell assignments.
        let score = restarted
            .score(&ScoreRequest {
                rule_id: Some(learned.rule_id.clone()),
                rule: None,
                rule_set: None,
                cells: vec!["failed".into(), "completed".into()],
            })
            .unwrap();
        let assignments = score
            .assignments
            .expect("rule-set scores carry assignments");
        assert_eq!(assignments, vec![Some(2), Some(0)]);
        assert_eq!(score.matches, vec![0, 1]);

        // An inline rule set scores the same way without touching the store.
        let inline = restarted
            .score(&ScoreRequest {
                rule_id: None,
                rule: None,
                rule_set: again.rule_set.clone(),
                cells: vec!["pending".into()],
            })
            .unwrap();
        assert_eq!(inline.assignments, Some(vec![Some(1)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_class_sessions_correct_per_class_and_survive_restarts() {
        let (service, dir) = temp_service("multiclass-session");
        let created = service
            .session_create(status_column(), vec![], status_classes())
            .unwrap();
        assert_eq!(created.classes.len(), 3);
        assert_eq!(created.positives, vec![0, 1, 2], "union across classes");
        let result = created.result.clone().expect("rule set learned");
        assert_eq!(result.rule_set.as_ref().map(RuleSet::len), Some(3));

        // Corrections target a class: painting cell 3 with class 0's style
        // grows that class; a class index out of range is a caller error.
        let corrected = service
            .session_correct(&created.session_id, &[3], &[], Some(0))
            .unwrap();
        assert_eq!(corrected.revision, 1);
        assert_eq!(corrected.classes[0].examples, vec![0, 3]);
        assert!(corrected.result.expect("re-learned").rule_set.is_some());
        let err = service
            .session_correct(&created.session_id, &[4], &[], Some(9))
            .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("out of range"), "{err}");

        // A single-rule session rejects class-targeted corrections.
        let legacy = service
            .session_create(rw_column(), vec![0], vec![])
            .unwrap();
        let err = service
            .session_correct(&legacy.session_id, &[5], &[], Some(0))
            .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("single-rule"), "{err}");

        // The per-class state (styles, scopes, example sets) survives a
        // restart through the persisted session record.
        let sid = created.session_id.clone();
        drop(service);
        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        let fetched = restarted.session_get(&sid).unwrap();
        assert_eq!(fetched.revision, 1);
        assert_eq!(fetched.classes.len(), 3);
        assert_eq!(fetched.classes[0].examples, vec![0, 3]);
        assert_eq!(fetched.classes[0].style, Format::fill("#dcfce7"));
        assert_eq!(fetched.classes[0].scope, TargetScope::Row);
        assert!(fetched.result.expect("restored").rule_set.is_some());
        assert_eq!(restarted.learns_performed(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_session_create_inputs_are_rejected() {
        let (service, dir) = temp_service("multiclass-mixed");
        let err = service
            .session_create(status_column(), vec![0], status_classes())
            .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("not both"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suggest_rescores_stored_rules_and_survives_restart() {
        let (service, dir) = temp_service("suggest");
        assert_eq!(service.suggest_indexed(), 0);
        let learned = service
            .learn(&LearnRequest {
                cells: rw_column(),
                examples: vec![0, 2, 5],
                negatives: vec![],
                classes: vec![],
                tenant: None,
            })
            .unwrap();
        assert_eq!(service.suggest_indexed(), 1);

        // A bare, never-seen column of the same shape: zero examples in,
        // the stored rule out, re-scored against the fresh cells.
        let fresh: Vec<String> = ["RW-555", "XQ-12", "RW-901", "RW-73-T"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let response = service
            .suggest(&SuggestRequest {
                cells: fresh.clone(),
                tenant: None,
                k: None,
            })
            .unwrap();
        assert_eq!(response.indexed, 1);
        assert_eq!(response.n_cells, 4);
        let top = response.suggestions.first().expect("one suggestion");
        assert_eq!(top.rule_id, learned.rule_id);
        assert!(top.matches.contains(&0), "fresh RW id formatted");
        assert!(!top.matches.contains(&1), "non-RW id not formatted");
        assert!(top.similarity > 0.0 && top.similarity <= 1.0);
        assert!(top.score > 0.0);
        assert_eq!(service.learns_performed(), 1, "suggestion never learns");

        // Restart: the index rebuilds from the persisted store alone.
        drop(service);
        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(restarted.suggest_indexed(), 1);
        let again = restarted
            .suggest(&SuggestRequest {
                cells: fresh,
                tenant: None,
                k: None,
            })
            .unwrap();
        assert_eq!(again.suggestions, response.suggestions, "restart-stable");
        assert_eq!(restarted.learns_performed(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_answers_from_the_rule_log() {
        let (service, dir) = temp_service("restart-log");
        let req = LearnRequest {
            cells: rw_column(),
            examples: vec![0, 2, 5],
            negatives: vec![],
            classes: vec![],
            tenant: None,
        };
        let learned = service.learn(&req).unwrap();
        drop(service);
        // The rule log is the store's only file.
        assert_eq!(store_files(&dir), [crate::store::LOG_FILE]);

        let restarted = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(restarted.suggest_indexed(), 1, "rebuilt from the log");
        assert_eq!(
            restarted
                .health()
                .get("rules_persisted")
                .and_then(Json::as_u64),
            Some(1)
        );
        let from_log = restarted
            .suggest(&SuggestRequest {
                cells: rw_column(),
                tenant: None,
                k: None,
            })
            .unwrap();
        assert_eq!(from_log.suggestions[0].rule_id, learned.rule_id);
        let again = restarted.learn(&req).unwrap();
        assert!(again.cached, "answered from the log");
        assert_eq!(again.rule_id, learned.rule_id);
        assert_eq!(restarted.learns_performed(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suggest_never_crosses_tenants() {
        let (service, dir) = temp_service("suggest-tenants");
        let acme = service
            .learn(&LearnRequest {
                cells: rw_column(),
                examples: vec![0, 2, 5],
                negatives: vec![],
                classes: vec![],
                tenant: Some("acme".into()),
            })
            .unwrap();

        let ask = |tenant: Option<&str>| {
            service
                .suggest(&SuggestRequest {
                    cells: rw_column(),
                    tenant: tenant.map(str::to_string),
                    k: None,
                })
                .unwrap()
                .suggestions
        };
        assert_eq!(
            ask(Some("acme"))[0].rule_id,
            acme.rule_id,
            "the owning tenant sees its rule"
        );
        assert!(
            ask(Some("globex")).is_empty(),
            "another tenant must never see acme's rule"
        );
        assert!(ask(None).is_empty(), "anonymous queries see global only");

        // The same learn under another tenant is a distinct record.
        let globex = service
            .learn(&LearnRequest {
                cells: rw_column(),
                examples: vec![0, 2, 5],
                negatives: vec![],
                classes: vec![],
                tenant: Some("globex".into()),
            })
            .unwrap();
        assert_ne!(globex.rule_id, acme.rule_id);
        assert_eq!(ask(Some("globex"))[0].rule_id, globex.rule_id);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suggest_rejects_bad_requests() {
        let (service, dir) = temp_service("suggest-bad");
        let bad = |cells: Vec<String>, tenant: Option<&str>, k: Option<usize>| {
            service
                .suggest(&SuggestRequest {
                    cells,
                    tenant: tenant.map(str::to_string),
                    k,
                })
                .unwrap_err()
                .status()
        };
        assert_eq!(bad(vec![], None, None), 400, "empty column");
        assert_eq!(bad(rw_column(), None, Some(0)), 400, "k = 0");
        assert_eq!(bad(rw_column(), None, Some(17)), 400, "k > 16");
        assert_eq!(bad(rw_column(), Some("Acme Corp"), None), 400);
        assert_eq!(bad(rw_column(), Some(""), None), 400);
        let err = service
            .learn(&LearnRequest {
                cells: rw_column(),
                examples: vec![0, 2, 5],
                negatives: vec![],
                classes: vec![],
                tenant: Some("UPPER".into()),
            })
            .unwrap_err();
        assert_eq!(err.status(), 400, "learn validates tenants too");
        std::fs::remove_dir_all(&dir).ok();
    }
}
