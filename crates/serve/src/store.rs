//! The persistent store: one append-only log of learned rules and
//! session states, fronted by an in-memory LRU cache of rules.
//!
//! Layout: a single file, `<dir>/rules.log`. Each record is one line,
//! `<id>\t<envelope>\n`, where the envelope is a versioned
//! `{"v":1,"kind":…,"payload":…}` document (the codec escapes control
//! characters, so it never holds a raw tab or newline). Two kinds share
//! the log:
//! - `stored-rule` records, headed by a rule id. Rule ids are content
//!   fingerprints of the learn request (cells + examples + negatives), so
//!   identical requests map to the same record across processes and
//!   restarts — that is what lets a restarted server answer `learn` and
//!   `score` without re-learning.
//! - `session-state` records, headed by a canonical session id
//!   `s<n>`. Every acknowledged state of a session appends a record; the
//!   latest one is the session's state, and superseded ones are never
//!   compacted.
//!
//! [`RuleStore::open`] streams the log once, reading only each line's id
//! header, into an in-memory `id → (offset, len)` map of rules and a
//! `number → (offset, len)` map of sessions; a later record for an id
//! wins. A cache miss reads its one record with a positioned read; a
//! corrupt record reads as a miss, and an id the map lacks is answered as
//! absent without touching disk. [`RuleStore::put`] and
//! `RuleStore::put_session` append the record with one write and return
//! only after `fdatasync`, so an acknowledged rule or session state
//! survives power loss. There is no compaction: the dead bytes are
//! duplicate rule records, superseded session states and torn fragments.
//!
//! A crash mid-append can leave a last line without its `\n`: a torn
//! tail. Scans skip it, and `open` leaves it in place (other handles may
//! be reading the same directory). The next append first writes `\0\n`,
//! closing the fragment off as a line no scan accepts — a record line
//! always ends in its envelope's `}`.
//!
//! Stores written in the older per-rule-file and segment layouts, and
//! sessions written as `sessions/<id>.json` files, are not read. The LRU
//! bounds only memory. Single-writer contract: a record appended by
//! another process after open is invisible until this store reopens.

use cornet_core::rule::Rule;
use cornet_core::ruleset::RuleSet;
use cornet_obs::Counter;
use cornet_serde::{
    decode, encode, field_t, optional_field_t, to_string, DecodeError, FromJson, Json, ToJson,
};
use cornet_table::{Format, TargetScope};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Process-wide store counters, registered once in the global
/// [`cornet_obs`] registry. The per-store `hits`/`misses` fields keep
/// serving `/health` (they reset with the store); these aggregate across
/// every store in the process for `/metrics`.
struct StoreMetrics {
    hits: Counter,
    misses: Counter,
    segment_reads: Counter,
    fastpath_misses: Counter,
    fsyncs: Counter,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = cornet_obs::registry();
        StoreMetrics {
            hits: registry.counter(
                "cornet_store_hits_total",
                "Rule lookups answered from the in-memory cache.",
            ),
            misses: registry.counter(
                "cornet_store_misses_total",
                "Rule lookups that fell through to disk or reported absence.",
            ),
            segment_reads: registry.counter(
                "cornet_store_segment_reads_total",
                "Rule records read and decoded out of the rule log.",
            ),
            fastpath_misses: registry.counter(
                "cornet_store_fastpath_misses_total",
                "Known-absent lookups short-circuited without touching disk.",
            ),
            fsyncs: registry.counter(
                "cornet_store_fsyncs_total",
                "fsync calls made by the rule store (one per rule or session record, one per created log).",
            ),
        }
    })
}

/// Envelope kind for rule-store records.
pub const STORED_RULE_KIND: &str = "stored-rule";

/// Envelope kind for session-state records.
pub const SESSION_KIND: &str = "session-state";

/// A learned rule at rest: the rule plus the request that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRule {
    /// Content-fingerprint identifier (also the record's log-line header).
    pub id: String,
    /// The learned rule.
    pub rule: Rule,
    /// Ranker score of the chosen candidate.
    pub score: f64,
    /// Example (positive) indices of the learn request.
    pub examples: Vec<usize>,
    /// Negative-correction indices of the learn request.
    pub negatives: Vec<usize>,
    /// Length of the column the rule was learned from.
    pub column_len: usize,
    /// False when no candidate excluded every negative and the best
    /// candidate was stored anyway (see `LearnResponse::consistent`).
    pub consistent: bool,
    /// The full prioritized rule set of a multi-class learn, when this
    /// record came from one. `None` for single-rule learns — and for
    /// every record written before rule sets existed, so old stores load
    /// unchanged (the field is optional on the wire and omitted when
    /// absent, keeping legacy bytes byte-identical).
    pub rule_set: Option<RuleSet>,
    /// The tenant namespace the rule was learned under. `None` for
    /// untenanted requests (and every pre-tenancy record): those rules
    /// live in the shared global suggestion index; tenanted rules are
    /// only ever suggested back to their own tenant. Optional on the
    /// wire and omitted when absent.
    pub tenant: Option<String>,
    /// The column-signature embedding of the learn request's cells
    /// (fixed-dim, L2-normalised — see `cornet_serve::suggest`),
    /// persisted so the suggestion index rebuilds from the rule log at
    /// open without re-embedding (or needing the original cell
    /// texts, which are never stored). `None` on pre-suggestion records,
    /// which simply stay out of the index until re-learned. Optional on
    /// the wire and omitted when absent.
    pub embedding: Option<Vec<f64>>,
}

impl ToJson for StoredRule {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::str(self.id.clone())),
            ("rule".to_string(), self.rule.to_json()),
            ("score".to_string(), Json::Number(self.score)),
            ("examples".to_string(), self.examples.to_json()),
            ("negatives".to_string(), self.negatives.to_json()),
            ("column_len".to_string(), self.column_len.to_json()),
            ("consistent".to_string(), Json::Bool(self.consistent)),
        ];
        if let Some(set) = &self.rule_set {
            pairs.push(("rule_set".to_string(), set.to_json()));
        }
        if let Some(tenant) = &self.tenant {
            pairs.push(("tenant".to_string(), Json::str(tenant.clone())));
        }
        if let Some(embedding) = &self.embedding {
            pairs.push(("embedding".to_string(), embedding.to_json()));
        }
        Json::Object(pairs)
    }
}

impl FromJson for StoredRule {
    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(StoredRule {
            id: field_t(json, "id")?,
            rule: field_t(json, "rule")?,
            score: field_t(json, "score")?,
            examples: field_t(json, "examples")?,
            negatives: field_t(json, "negatives")?,
            column_len: field_t(json, "column_len")?,
            consistent: field_t(json, "consistent")?,
            rule_set: optional_field_t(json, "rule_set")?,
            tenant: optional_field_t(json, "tenant")?,
            embedding: optional_field_t(json, "embedding")?,
        })
    }
}

/// True when `id` is shaped like a rule id this store hands out
/// (lowercase hex fingerprint, `r`-prefixed). Anything else is rejected
/// before it can reach the filesystem.
pub fn valid_rule_id(id: &str) -> bool {
    let mut chars = id.chars();
    chars.next() == Some('r')
        && id.len() > 1
        && id.len() <= 64
        && chars.all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
}

/// The number of a canonical session id `s<n>`: `None` for anything
/// else, including spellings `u64::from_str` would also accept (`s+7`,
/// `s007`), so two ids never share a number.
pub(crate) fn session_number(id: &str) -> Option<u64> {
    let n: u64 = id.strip_prefix('s')?.parse().ok()?;
    (format!("s{n}") == id).then_some(n)
}

/// Fingerprints a learn request into a rule id: SHA-256 over the cell
/// texts and the sorted example/negative index sets, truncated to 128
/// bits. A shared store directory is keyed by these ids, so the hash
/// must be collision-resistant — a weak fingerprint would let a crafted
/// request be answered with another request's stored rule.
pub fn rule_id(cells: &[String], examples: &[usize], negatives: &[usize]) -> String {
    rule_id_for(None, cells, examples, negatives)
}

/// [`rule_id`] with a tenant namespace: a tenanted request feeds the
/// tenant name under its own tag, so two tenants learning from
/// identical cells get distinct ids (and distinct stored records — one
/// tenant's learn must never be served as another's cache hit).
/// `tenant: None` is byte-identical to the historical construction, so
/// untenanted ids — and every pre-tenancy store — are unchanged.
pub fn rule_id_for(
    tenant: Option<&str>,
    cells: &[String],
    examples: &[usize],
    negatives: &[usize],
) -> String {
    let mut hasher = crate::sha256::Sha256::new();
    feed_cells(&mut hasher, cells);
    hasher.update(&[0x01]);
    feed_indices(&mut hasher, examples);
    hasher.update(&[0x02]);
    feed_indices(&mut hasher, negatives);
    feed_tenant(&mut hasher, tenant);
    hex_id(hasher)
}

/// Feeds the cell texts into a fingerprint. Every variable-length field
/// is length-prefixed: a bare separator byte would let `["a\u{1f}", "b"]`
/// and `["a", "\u{1f}b"]` collide.
fn feed_cells(hasher: &mut crate::sha256::Sha256, cells: &[String]) {
    for cell in cells {
        hasher.update(&(cell.len() as u64).to_le_bytes());
        hasher.update(cell.as_bytes());
    }
}

/// Feeds an index set into a fingerprint: sorted and deduplicated, so
/// the order the request listed them in never changes the id, then
/// length-prefixed.
fn feed_indices(hasher: &mut crate::sha256::Sha256, indices: &[usize]) {
    let mut sorted: Vec<usize> = indices.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    hasher.update(&(sorted.len() as u64).to_le_bytes());
    for i in sorted {
        hasher.update(&(i as u64).to_le_bytes());
    }
}

/// Feeds the tenant namespace into a fingerprint under tag `0x04`.
/// `None` feeds nothing at all, keeping untenanted ids byte-identical
/// to the pre-tenancy construction.
fn feed_tenant(hasher: &mut crate::sha256::Sha256, tenant: Option<&str>) {
    if let Some(tenant) = tenant {
        hasher.update(&[0x04]);
        hasher.update(&(tenant.len() as u64).to_le_bytes());
        hasher.update(tenant.as_bytes());
    }
}

/// The rule id of a finished fingerprint: `r` plus the first 128 bits of
/// the digest in lowercase hex.
fn hex_id(hasher: crate::sha256::Sha256) -> String {
    let mut id = String::with_capacity(33);
    id.push('r');
    for b in &hasher.finish()[..16] {
        id.push_str(&format!("{b:02x}"));
    }
    id
}

/// One format class of a multi-class learn request, as the fingerprint
/// sees it: the style payload, its scope, and the example indices the
/// user painted. Borrowed views — fingerprinting allocates nothing but
/// the digest input.
#[derive(Debug, Clone, Copy)]
pub struct ClassFingerprint<'a> {
    /// The class's style payload.
    pub style: &'a Format,
    /// Cell- or row-scoped painting.
    pub scope: TargetScope,
    /// Example indices of this class.
    pub examples: &'a [usize],
}

/// Fingerprints a multi-class learn request into a rule id. Same
/// construction as [`rule_id`] — SHA-256 over length-prefixed cell texts,
/// then tagged index sets, truncated to 128 bits — but the per-class
/// section covers the *k-class observed formats*: each class contributes
/// its canonical style JSON, its scope byte and its sorted example
/// indices under tag `0x03`, so two requests differing only in a fill
/// colour, a scope, or the class order map to different ids. The global
/// negatives keep their `0x02` tag. Single-class requests deliberately do
/// NOT collide with [`rule_id`] of the same examples: a rule-set learn
/// and a boolean learn return different response shapes, so they must
/// cache separately.
pub fn rule_set_id(
    cells: &[String],
    classes: &[ClassFingerprint<'_>],
    negatives: &[usize],
) -> String {
    rule_set_id_for(None, cells, classes, negatives)
}

/// [`rule_set_id`] with a tenant namespace, mirroring [`rule_id_for`]:
/// the tenant feeds under tag `0x04`, `None` is byte-identical to the
/// historical construction.
pub fn rule_set_id_for(
    tenant: Option<&str>,
    cells: &[String],
    classes: &[ClassFingerprint<'_>],
    negatives: &[usize],
) -> String {
    let mut hasher = crate::sha256::Sha256::new();
    feed_cells(&mut hasher, cells);
    for class in classes {
        hasher.update(&[0x03]);
        // The canonical style encoding (non-default channels only, fixed
        // order) makes equal styles hash equal regardless of how the
        // request spelled them.
        let style = to_string(&class.style.to_json());
        hasher.update(&(style.len() as u64).to_le_bytes());
        hasher.update(style.as_bytes());
        hasher.update(&[match class.scope {
            TargetScope::Cell => 0x00,
            TargetScope::Row => 0x01,
        }]);
        feed_indices(&mut hasher, class.examples);
    }
    hasher.update(&[0x02]);
    feed_indices(&mut hasher, negatives);
    feed_tenant(&mut hasher, tenant);
    hex_id(hasher)
}

/// File name of the rule log under the store directory.
pub const LOG_FILE: &str = "rules.log";

/// Log-backed rule and session store with an LRU-bounded in-memory rule
/// cache (see the module docs).
#[derive(Debug)]
pub struct RuleStore {
    /// The log, opened for reading and appending.
    log: File,
    /// True while the log may end in a torn tail (a last line with no
    /// `\n`): the next `put` closes it off before appending.
    torn: bool,
    capacity: usize,
    cache: HashMap<String, StoredRule>,
    /// Most-recently-used at the back.
    order: VecDeque<String>,
    /// `id → (offset, len)` of the line (without its `\n`) of its latest
    /// record, for every rule in the log. Its size is the persisted-rule
    /// count, and it is the miss fast-path: a `get` for an id it lacks
    /// makes no filesystem call.
    index: HashMap<Box<str>, (u64, usize)>,
    /// `session number → (offset, len)` of its latest record.
    sessions: BTreeMap<u64, (u64, usize)>,
    hits: u64,
    misses: u64,
}

impl RuleStore {
    /// Opens (creating if needed) a store rooted at `dir`, scanning the
    /// log's record headers into the in-memory index. `capacity` bounds
    /// the in-memory cache, minimum 1.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> io::Result<RuleStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(LOG_FILE);
        let created = !path.exists();
        let log = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        if created {
            // A synced record is only durable once the log's directory
            // entry is too.
            File::open(&dir)?.sync_all()?;
            store_metrics().fsyncs.inc();
        }
        let mut index = HashMap::new();
        let mut sessions = BTreeMap::new();
        let torn = scan_lines(&log, |offset, line| {
            let Some(id) = record_header(line) else {
                return;
            };
            if valid_rule_id(id) {
                index.insert(id.into(), (offset, line.len()));
            } else if let Some(n) = session_number(id) {
                sessions.insert(n, (offset, line.len()));
            }
        })?;
        Ok(RuleStore {
            log,
            torn,
            capacity: capacity.max(1),
            cache: HashMap::new(),
            order: VecDeque::new(),
            index,
            sessions,
            hits: 0,
            misses: 0,
        })
    }

    /// Number of rules currently cached in memory.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// `(memory hits, misses that went to disk or failed)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn touch(&mut self, id: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == id) {
            self.order.remove(pos);
        }
        self.order.push_back(id.to_string());
        while self.cache.len() > self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.cache.remove(&evicted);
            } else {
                break;
            }
        }
    }

    /// Looks a rule up: memory first, then its record in the log.
    /// Returns `None` for malformed ids, ids with no record, and records
    /// that fail to decode (a corrupt record should read as a miss, not
    /// take the server down).
    pub fn get(&mut self, id: &str) -> Option<StoredRule> {
        if !valid_rule_id(id) {
            return None;
        }
        if let Some(found) = self.cache.get(id).cloned() {
            self.hits += 1;
            store_metrics().hits.inc();
            self.touch(id);
            return Some(found);
        }
        self.misses += 1;
        store_metrics().misses.inc();
        let Some(&(offset, len)) = self.index.get(id) else {
            store_metrics().fastpath_misses.inc();
            return None;
        };
        let mut line = vec![0u8; len];
        self.log.read_exact_at(&mut line, offset).ok()?;
        let entry = decode_record(id, &line)?;
        self.cache.insert(id.to_string(), entry.clone());
        self.touch(id);
        Some(entry)
    }

    /// Persists a rule (append to the log, then cache). The record goes
    /// out in one write and `put` returns only after the data is synced,
    /// so an acknowledged rule survives a crash or power loss.
    pub fn put(&mut self, entry: StoredRule) -> io::Result<()> {
        if !valid_rule_id(&entry.id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid rule id `{}`", entry.id),
            ));
        }
        let at = self.append(&entry.id, &encode(STORED_RULE_KIND, &entry))?;
        let id = entry.id.clone();
        self.index.insert(id.as_str().into(), at);
        self.cache.insert(id.clone(), entry);
        self.touch(&id);
        Ok(())
    }

    /// Persists the state of session `id` (a canonical `s<n>`) as its
    /// latest record, synced like a rule. Earlier states stay in the log.
    pub(crate) fn put_session(&mut self, id: &str, state: &impl ToJson) -> io::Result<()> {
        let Some(n) = session_number(id) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid session id `{id}`"),
            ));
        };
        let at = self.append(id, &encode(SESSION_KIND, state))?;
        self.sessions.insert(n, at);
        Ok(())
    }

    /// Appends the record line `<id>\t<envelope>` in one write, closing
    /// off a torn tail first, and syncs it. Returns the record's
    /// `(offset, len)`, without its `\n`.
    fn append(&mut self, id: &str, envelope: &str) -> io::Result<(u64, usize)> {
        let mut bytes = Vec::with_capacity(id.len() + envelope.len() + 4);
        if self.torn {
            bytes.extend_from_slice(b"\0\n");
        }
        let start = bytes.len();
        bytes.extend_from_slice(id.as_bytes());
        bytes.push(b'\t');
        bytes.extend_from_slice(envelope.as_bytes());
        let len = bytes.len() - start;
        bytes.push(b'\n');
        // A failed or partial write can leave a torn tail behind.
        self.torn = true;
        self.log.write_all(&bytes)?;
        self.log.sync_data()?;
        store_metrics().fsyncs.inc();
        self.torn = false;
        // An append leaves the file position at the end of this record.
        let end = self.log.stream_position()?;
        Ok((end - 1 - len as u64, len))
    }

    /// Number of distinct rules persisted in the log.
    pub fn persisted(&self) -> usize {
        self.index.len()
    }

    /// Reads every persisted rule once, in one pass over the log in log
    /// order, calling `found` for each. Superseded and corrupt records
    /// are skipped. This is the open-time feed for the suggestion index;
    /// it never touches the LRU cache.
    pub fn for_each_stored(&self, mut found: impl FnMut(StoredRule)) {
        let _ = scan_lines(&self.log, |offset, line| {
            let Some(id) = record_header(line) else {
                return;
            };
            if self.index.get(id) != Some(&(offset, line.len())) {
                return; // a session, superseded, or appended by another writer since open
            }
            if let Some(entry) = decode_record(id, line) {
                found(entry);
            }
        });
    }

    /// The latest record of every session in the log, highest number
    /// first, decoded as `T`; `None` where that record does not decode
    /// (the session is lost — an older state is never used instead).
    /// Reads lazily, one positioned read per item taken.
    pub(crate) fn latest_sessions<T: FromJson>(
        &self,
    ) -> impl Iterator<Item = (u64, Option<T>)> + '_ {
        self.sessions.iter().rev().map(|(&n, &(offset, len))| {
            let mut line = vec![0u8; len];
            let state = self
                .log
                .read_exact_at(&mut line, offset)
                .ok()
                .and_then(|()| {
                    let envelope = line.strip_prefix(format!("s{n}\t").as_bytes())?;
                    decode(SESSION_KIND, std::str::from_utf8(envelope).ok()?).ok()
                });
            (n, state)
        })
    }
}

/// Streams the complete lines of a log from its start, calling `line`
/// with each one's offset and bytes (without the `\n`). Returns whether
/// the log ends in a torn tail — a last line with no `\n`, which is
/// never passed on.
fn scan_lines(mut file: &File, mut line: impl FnMut(u64, &[u8])) -> io::Result<bool> {
    file.seek(SeekFrom::Start(0))?;
    let mut reader = BufReader::new(file);
    let mut buf = Vec::new();
    let mut offset = 0u64;
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(false);
        }
        if buf.last() != Some(&b'\n') {
            return Ok(true);
        }
        line(offset, &buf[..n - 1]);
        offset += n as u64;
    }
}

/// The id heading a log line, when the line is shaped like a record: an
/// id of at most 64 bytes, a tab, and an envelope ending in `}`. Parses
/// no JSON, so the open-time scan stays a byte scan.
fn record_header(line: &[u8]) -> Option<&str> {
    if line.last() != Some(&b'}') {
        return None;
    }
    let tab = line.iter().take(65).position(|&b| b == b'\t')?;
    std::str::from_utf8(&line[..tab]).ok()
}

/// Decodes the record line of rule `id`. `None` when the line is corrupt
/// or its payload names another rule.
fn decode_record(id: &str, line: &[u8]) -> Option<StoredRule> {
    let envelope = line.strip_prefix(id.as_bytes())?.strip_prefix(b"\t")?;
    let entry: StoredRule = decode(STORED_RULE_KIND, std::str::from_utf8(envelope).ok()?).ok()?;
    store_metrics().segment_reads.inc();
    (entry.id == id).then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_core::predicate::{Predicate, TextOp};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cornet-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(id: &str, pattern: &str) -> StoredRule {
        StoredRule {
            id: id.to_string(),
            rule: Rule::from_predicate(Predicate::Text {
                op: TextOp::StartsWith,
                pattern: pattern.into(),
            }),
            score: 0.5,
            examples: vec![0, 2],
            negatives: vec![],
            column_len: 6,
            consistent: true,
            rule_set: None,
            tenant: None,
            embedding: None,
        }
    }

    #[test]
    fn rule_ids_are_stable_and_order_insensitive() {
        let cells: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let a = rule_id(&cells, &[0, 2], &[1]);
        let b = rule_id(&cells, &[2, 0], &[1]);
        assert_eq!(a, b, "example order must not change the fingerprint");
        assert!(valid_rule_id(&a), "{a}");
        assert_ne!(a, rule_id(&cells, &[0], &[1]));
        assert_ne!(a, rule_id(&cells, &[0, 2], &[]));
        // Cell boundaries matter: ["ab","c"] != ["a","bc"].
        let ab_c = rule_id(&["ab".into(), "c".into()], &[0], &[]);
        let a_bc = rule_id(&["a".into(), "bc".into()], &[0], &[]);
        assert_ne!(ab_c, a_bc);
        // Including when a cell contains what a naive encoding would use
        // as its separator byte (regression: delimiter injection).
        let tricky_a = rule_id(&["a\u{1f}".into(), "b".into()], &[0], &[]);
        let tricky_b = rule_id(&["a".into(), "\u{1f}b".into()], &[0], &[]);
        assert_ne!(tricky_a, tricky_b);
    }

    #[test]
    fn rule_set_ids_cover_styles_scopes_and_class_order() {
        let cells: Vec<String> = ["done", "todo", "fail"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let green = Format::fill("#dcfce7");
        let yellow = Format::fill("#fef9c3");
        let class = |style, scope, examples| ClassFingerprint {
            style,
            scope,
            examples,
        };
        let base = rule_set_id(
            &cells,
            &[
                class(&green, TargetScope::Cell, &[0]),
                class(&yellow, TargetScope::Cell, &[1]),
            ],
            &[],
        );
        assert!(valid_rule_id(&base), "{base}");
        // Example order inside a class is canonicalised…
        let cells4: Vec<String> = ["done", "todo", "fail", "done"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let fwd = rule_set_id(&cells4, &[class(&green, TargetScope::Cell, &[0, 3])], &[]);
        let rev = rule_set_id(&cells4, &[class(&green, TargetScope::Cell, &[3, 0])], &[]);
        assert_eq!(fwd, rev);
        // …but the style payload, the scope, the class order and the
        // negatives all change the fingerprint.
        let restyled = rule_set_id(
            &cells,
            &[
                class(&yellow, TargetScope::Cell, &[0]),
                class(&green, TargetScope::Cell, &[1]),
            ],
            &[],
        );
        assert_ne!(base, restyled);
        let rescoped = rule_set_id(
            &cells,
            &[
                class(&green, TargetScope::Row, &[0]),
                class(&yellow, TargetScope::Cell, &[1]),
            ],
            &[],
        );
        assert_ne!(base, rescoped);
        let with_negative = rule_set_id(
            &cells,
            &[
                class(&green, TargetScope::Cell, &[0]),
                class(&yellow, TargetScope::Cell, &[1]),
            ],
            &[2],
        );
        assert_ne!(base, with_negative);
        // A single-class set learn never collides with the boolean learn
        // of the same examples: the response shapes differ, so they must
        // cache under different ids.
        let single = rule_set_id(&cells, &[class(&green, TargetScope::Cell, &[0])], &[]);
        assert_ne!(single, rule_id(&cells, &[0], &[]));
    }

    #[test]
    fn stored_rules_with_rule_sets_round_trip_and_stay_legacy_compatible() {
        use cornet_core::ruleset::{RuleSet, StyledRule};
        let mut with_set = entry("r01", "done");
        with_set.rule_set = Some(RuleSet {
            rules: vec![StyledRule {
                rule: with_set.rule.clone(),
                style: Format::fill("#dcfce7"),
                scope: TargetScope::Row,
                priority: 0,
                score: 0.5,
                consistent: true,
            }],
        });
        let wire = encode(STORED_RULE_KIND, &with_set);
        let back: StoredRule = decode(STORED_RULE_KIND, &wire).unwrap();
        assert_eq!(back, with_set);
        // A single-rule record omits the field entirely — its bytes are
        // identical to what pre-rule-set builds wrote, and records written
        // by those builds (no `rule_set` key) decode to None.
        let legacy = entry("r02", "todo");
        let legacy_wire = encode(STORED_RULE_KIND, &legacy);
        assert!(!legacy_wire.contains("rule_set"), "{legacy_wire}");
        let legacy_back: StoredRule = decode(STORED_RULE_KIND, &legacy_wire).unwrap();
        assert_eq!(legacy_back.rule_set, None);
    }

    #[test]
    fn id_validation_blocks_path_shapes() {
        assert!(valid_rule_id("r0123456789abcdef"));
        for bad in ["", "r", "x0f", "r../evil", "r0F", "R00", "r0123/45"] {
            assert!(!valid_rule_id(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn put_get_survives_a_reopen() {
        let dir = temp_dir("reopen");
        let id = rule_id(&["x".into()], &[0], &[]);
        {
            let mut store = RuleStore::open(&dir, 8).unwrap();
            store.put(entry(&id, "RW")).unwrap();
            assert_eq!(store.persisted(), 1);
        }
        let mut reopened = RuleStore::open(&dir, 8).unwrap();
        assert_eq!(reopened.cached(), 0, "fresh process starts cold");
        let got = reopened.get(&id).expect("loads from disk");
        assert_eq!(got, entry(&id, "RW"));
        assert_eq!(reopened.cached(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_evicts_memory_but_not_disk() {
        let dir = temp_dir("lru");
        let mut store = RuleStore::open(&dir, 2).unwrap();
        let ids: Vec<String> = (0..4)
            .map(|i| rule_id(&[format!("cell{i}")], &[0], &[]))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            store.put(entry(id, &format!("P{i}"))).unwrap();
        }
        assert_eq!(store.cached(), 2, "capacity bounds the cache");
        assert_eq!(store.persisted(), 4, "eviction never drops a record");
        // The evicted entry is still retrievable (from disk).
        assert!(store.get(&ids[0]).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_keeps_recently_used_entries() {
        let dir = temp_dir("lru-order");
        let mut store = RuleStore::open(&dir, 2).unwrap();
        let ids: Vec<String> = (0..3)
            .map(|i| rule_id(&[format!("k{i}")], &[0], &[]))
            .collect();
        store.put(entry(&ids[0], "A")).unwrap();
        store.put(entry(&ids[1], "B")).unwrap();
        store.get(&ids[0]); // refresh 0 → 1 is now least recent
        store.put(entry(&ids[2], "C")).unwrap();
        assert!(store.cache.contains_key(&ids[0]));
        assert!(!store.cache.contains_key(&ids[1]), "LRU entry evicted");
        assert!(store.cache.contains_key(&ids[2]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_records_read_as_misses() {
        let dir = temp_dir("corrupt");
        let bad = rule_id(&["z".into()], &[0], &[]);
        let wrong_kind = rule_id(&["k".into()], &[0], &[]);
        let good = rule_id(&["g".into()], &[0], &[]);
        std::fs::create_dir_all(&dir).unwrap();
        // Well-framed lines whose envelopes do not decode: broken JSON,
        // and a valid envelope of the wrong kind.
        let lines = format!(
            "{bad}\t{{not json}}\n{wrong_kind}\t{}\n",
            cornet_serde::encode("table", &Json::Null)
        );
        std::fs::write(dir.join(LOG_FILE), lines).unwrap();
        let mut store = RuleStore::open(&dir, 4).unwrap();
        assert!(store.get(&bad).is_none());
        assert!(store.get(&wrong_kind).is_none());
        // A good record after them still reads, live and after a reopen.
        store.put(entry(&good, "G")).unwrap();
        let mut reopened = RuleStore::open(&dir, 4).unwrap();
        assert_eq!(reopened.get(&good), Some(entry(&good, "G")));
        assert!(reopened.get(&bad).is_none());
        let mut seen = Vec::new();
        reopened.for_each_stored(|r| seen.push(r.id));
        assert_eq!(seen, vec![good]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stored_rule_envelope_round_trip() {
        let id = rule_id(&["q".into()], &[0], &[]);
        let e = entry(&id, "Dr");
        let wire = encode(STORED_RULE_KIND, &e);
        let back: StoredRule = decode(STORED_RULE_KIND, &wire).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn global_store_counters_advance() {
        // The global registry is shared by every test in the binary, so
        // assert deltas only — never exact values.
        let dir = temp_dir("obs-counters");
        let metrics = store_metrics();
        let (h0, m0, s0) = (
            metrics.hits.get(),
            metrics.misses.get(),
            metrics.segment_reads.get(),
        );
        let id = rule_id(&["obs".into()], &[0], &[]);
        {
            let mut store = RuleStore::open(&dir, 8).unwrap();
            store.put(entry(&id, "O")).unwrap();
            assert!(store.get(&id).is_some(), "cache hit");
        }
        // A cold store must miss memory and read the record from the log.
        let mut reopened = RuleStore::open(&dir, 8).unwrap();
        assert!(reopened.get(&id).is_some());
        assert!(metrics.hits.get() > h0, "cache hit counted");
        assert!(metrics.misses.get() > m0, "cold lookup counted as a miss");
        assert!(metrics.segment_reads.get() > s0, "log read counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn known_absent_ids_short_circuit_without_disk() {
        let dir = temp_dir("fastpath");
        let metrics = store_metrics();
        let mut store = RuleStore::open(&dir, 8).unwrap();
        let present = rule_id(&["here".into()], &[0], &[]);
        store.put(entry(&present, "H")).unwrap();

        // A known-absent id is a fast-path miss (global counters are
        // shared across the test binary: assert deltas only).
        let f0 = metrics.fastpath_misses.get();
        let absent = rule_id(&["nowhere".into()], &[0], &[]);
        assert!(store.get(&absent).is_none());
        assert_eq!(metrics.fastpath_misses.get(), f0 + 1);

        // A present id never takes the fast path — not even on the cold
        // read of a reopened store, where the open-time scan seeds it.
        let f1 = metrics.fastpath_misses.get();
        let mut reopened = RuleStore::open(&dir, 8).unwrap();
        assert!(reopened.get(&present).is_some(), "cold read still served");
        assert!(reopened.get(&absent).is_none());
        assert_eq!(
            metrics.fastpath_misses.get(),
            f1 + 1,
            "only the absent id short-circuited"
        );
        assert_eq!(reopened.persisted(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_namespaces_the_fingerprint() {
        let cells: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let global = rule_id_for(None, &cells, &[0], &[]);
        assert_eq!(
            global,
            rule_id(&cells, &[0], &[]),
            "untenanted ids are byte-identical to the historical construction"
        );
        let acme = rule_id_for(Some("acme"), &cells, &[0], &[]);
        let globex = rule_id_for(Some("globex"), &cells, &[0], &[]);
        assert!(valid_rule_id(&acme));
        assert_ne!(global, acme, "a tenant never hits the global record");
        assert_ne!(acme, globex, "tenants never hit each other's records");

        let green = Format::fill("#dcfce7");
        let class = ClassFingerprint {
            style: &green,
            scope: TargetScope::Cell,
            examples: &[0],
        };
        let set_global = rule_set_id_for(None, &cells, &[class], &[]);
        assert_eq!(set_global, rule_set_id(&cells, &[class], &[]));
        assert_ne!(
            set_global,
            rule_set_id_for(Some("acme"), &cells, &[class], &[])
        );
    }

    #[test]
    fn tenanted_embedded_records_round_trip_and_stay_legacy_compatible() {
        let mut tenanted = entry("r03", "done");
        tenanted.tenant = Some("acme".into());
        tenanted.embedding = Some(vec![0.5, -0.25, 0.125]);
        let wire = encode(STORED_RULE_KIND, &tenanted);
        let back: StoredRule = decode(STORED_RULE_KIND, &wire).unwrap();
        assert_eq!(back, tenanted, "f64 embeddings round-trip exactly");
        // Untenanted, unembedded records omit both keys — bytes identical
        // to what pre-suggestion builds wrote — and legacy records with
        // neither key decode to None.
        let legacy = entry("r04", "todo");
        let legacy_wire = encode(STORED_RULE_KIND, &legacy);
        assert!(!legacy_wire.contains("tenant"), "{legacy_wire}");
        assert!(!legacy_wire.contains("embedding"), "{legacy_wire}");
        let legacy_back: StoredRule = decode(STORED_RULE_KIND, &legacy_wire).unwrap();
        assert_eq!(legacy_back.tenant, None);
        assert_eq!(legacy_back.embedding, None);
    }

    #[test]
    fn for_each_stored_visits_each_latest_record_once_in_log_order() {
        let dir = temp_dir("scan-all");
        let mut store = RuleStore::open(&dir, 8).unwrap();
        let first = rule_id(&["first".into()], &[0], &[]);
        let second = rule_id(&["second".into()], &[0], &[]);
        store.put(entry(&first, "F")).unwrap();
        store.put(entry(&second, "S")).unwrap();
        // A re-put appends a second record for `first`: it supersedes the
        // earlier one, so the id is visited once, at its new position,
        // and still counts once.
        store.put(entry(&first, "F")).unwrap();
        assert_eq!(store.persisted(), 2, "a re-put is not a new rule");

        let want = vec![second.clone(), first.clone()];
        let mut seen: Vec<String> = Vec::new();
        store.for_each_stored(|r| seen.push(r.id));
        assert_eq!(seen, want);

        // A reopened store scans identically (the index rebuild path).
        let reopened = RuleStore::open(&dir, 8).unwrap();
        assert_eq!(reopened.persisted(), 2);
        let mut seen2: Vec<String> = Vec::new();
        reopened.for_each_stored(|r| seen2.push(r.id));
        assert_eq!(seen2, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The ids the log holds, in log order, each read back through both
    /// the scan and `get` of a freshly opened store.
    fn recovered_ids(dir: &std::path::Path) -> Vec<String> {
        let mut store = RuleStore::open(dir, 64).unwrap();
        let mut ids = Vec::new();
        store.for_each_stored(|r| ids.push(r.id));
        assert_eq!(store.persisted(), ids.len(), "no unreadable id indexed");
        for id in &ids {
            assert!(store.get(id).is_some(), "{id} scanned but not readable");
        }
        ids
    }

    /// One acknowledged append: a rule record (by index), or the state of
    /// a session (number, revision).
    #[derive(Clone, Copy)]
    enum Put {
        Rule(usize),
        Session(u64, u64),
    }

    fn session_state(n: u64, revision: u64) -> Json {
        Json::object([
            ("id", Json::str(format!("s{n}"))),
            ("revision", revision.to_json()),
        ])
    }

    /// The latest revision of every session a freshly opened store holds;
    /// `None` where that record does not decode.
    fn recovered_sessions(dir: &std::path::Path) -> BTreeMap<u64, Option<u64>> {
        let store = RuleStore::open(dir, 8).unwrap();
        let latest: Vec<(u64, Option<u64>)> = store
            .latest_sessions::<Json>()
            .map(|(n, state)| (n, state.and_then(|s| s.get("revision")?.as_u64())))
            .collect();
        assert!(latest.windows(2).all(|w| w[0].0 > w[1].0), "highest first");
        latest.into_iter().collect()
    }

    /// The rules, in log order, and each session's latest revision that
    /// a log of `puts` holds.
    fn acknowledged(puts: &[Put], rules: &[String]) -> (Vec<String>, BTreeMap<u64, Option<u64>>) {
        let mut ids = Vec::new();
        let mut sessions = BTreeMap::new();
        for put in puts {
            match *put {
                Put::Rule(i) => ids.push(rules[i].clone()),
                Put::Session(n, revision) => {
                    sessions.insert(n, Some(revision));
                }
            }
        }
        (ids, sessions)
    }

    #[test]
    fn every_torn_tail_recovers_exactly_the_acknowledged_prefix() {
        use Put::{Rule as R, Session as S};
        let rules: Vec<String> = (0..3)
            .map(|i| rule_id(&[format!("crash{i}")], &[0], &[]))
            .collect();
        let later = rule_id(&["after-the-crash".into()], &[0], &[]);
        // Rules only, then rules and session states interleaved, the last
        // record a rule in one log and a session state in the other.
        let logs: [&[Put]; 3] = [
            &[R(0), R(1), R(2)],
            &[R(0), S(1, 0), S(2, 0), R(1), S(1, 1), R(2)],
            &[S(1, 0), R(0), S(2, 0), R(1), S(1, 1), S(2, 1)],
        ];
        for (k, puts) in logs.into_iter().enumerate() {
            let dir = temp_dir(&format!("crash{k}"));
            {
                let mut store = RuleStore::open(&dir, 8).unwrap();
                for put in puts {
                    match *put {
                        R(i) => store.put(entry(&rules[i], "C")).unwrap(),
                        S(n, r) => store
                            .put_session(&format!("s{n}"), &session_state(n, r))
                            .unwrap(),
                    }
                }
            }
            let log = dir.join(LOG_FILE);
            let full = std::fs::read(&log).unwrap();
            let last_start = full[..full.len() - 1]
                .iter()
                .rposition(|&b| b == b'\n')
                .unwrap()
                + 1;
            // Every cut inside the last record loses exactly that record; a
            // cut after its `\n` and a zero-filled tail lose nothing.
            let all = puts.len();
            let mut crashes: Vec<(Vec<u8>, usize)> = (last_start..=full.len())
                .map(|cut| {
                    (
                        full[..cut].to_vec(),
                        if cut == full.len() { all } else { all - 1 },
                    )
                })
                .collect();
            crashes.push(([&full[..], &[0u8; 64]].concat(), all));
            for (bytes, kept) in crashes {
                let at = format!("log {k}, cut at {}", bytes.len());
                std::fs::write(&log, &bytes).unwrap();
                let (mut ids, sessions) = acknowledged(&puts[..kept], &rules);
                assert_eq!(recovered_ids(&dir), ids, "{at}");
                assert_eq!(recovered_sessions(&dir), sessions, "{at}");
                // The next put closes off the torn fragment, which then
                // never comes back, however it was cut.
                let mut store = RuleStore::open(&dir, 8).unwrap();
                store.put(entry(&later, "L")).unwrap();
                drop(store);
                ids.push(later.clone());
                assert_eq!(recovered_ids(&dir), ids, "{at}");
                assert_eq!(recovered_sessions(&dir), sessions, "{at}");
            }
            // A corrupt latest record loses its session: an older revision
            // never stands in for it.
            std::fs::write(&log, [&full[..], b"s1\t{not json}\n"].concat()).unwrap();
            let (ids, mut sessions) = acknowledged(puts, &rules);
            sessions.insert(1, None);
            assert_eq!(recovered_ids(&dir), ids, "log {k}");
            assert_eq!(recovered_sessions(&dir), sessions, "log {k}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn session_ids_are_canonical() {
        assert_eq!(session_number("s7"), Some(7));
        assert_eq!(session_number("s0"), Some(0));
        for bad in ["s+7", "s007", "s00", "s", "s-1", "7", "S7", "s7 ", "r7"] {
            assert_eq!(session_number(bad), None, "{bad:?}");
        }
        // Only the canonical spelling heads a session record.
        let dir = temp_dir("session-ids");
        let state = session_state(7, 0).to_json();
        let line = |id: &str| format!("{id}\t{}\n", encode(SESSION_KIND, &state));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(LOG_FILE),
            line("s7") + &line("s+7") + &line("s007"),
        )
        .unwrap();
        let mut store = RuleStore::open(&dir, 8).unwrap();
        assert_eq!(recovered_sessions(&dir), BTreeMap::from([(7, Some(0))]));
        let err = store.put_session("s+8", &state).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprints_match_their_golden_ids() {
        // Ids are content addresses of stored records: a change to the
        // fingerprint construction would orphan every stored rule.
        let cells: Vec<String> = ["RW-131-T", "AB-22", "RW-7", "RS-762"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let green = Format::fill("#dcfce7");
        let yellow = Format::fill("#fef9c3");
        let classes = [
            ClassFingerprint {
                style: &green,
                scope: TargetScope::Cell,
                examples: &[2, 0],
            },
            ClassFingerprint {
                style: &yellow,
                scope: TargetScope::Row,
                examples: &[3],
            },
        ];
        assert_eq!(
            rule_id(&cells, &[2, 0], &[1]),
            "r43bc7292a70af405345ec27087943ed0"
        );
        assert_eq!(
            rule_id_for(Some("acme"), &cells, &[2, 0], &[1]),
            "r0951bca65c88d4b2c76dcd83f2b38b28"
        );
        assert_eq!(
            rule_set_id(&cells, &classes, &[1]),
            "rf810ee4e78bb812e188b4ad24862f227"
        );
        assert_eq!(
            rule_set_id_for(Some("acme"), &cells, &classes, &[1]),
            "r7b359eeed7152c6abcfce622da03b15c"
        );
    }
}
