//! Content-addressed on-disk store of node-day outcomes, and the
//! [`IncrementalContext`] that replays from it.
//!
//! The store maps a [`NodeDayTask`]'s content key to its persisted
//! [`NodeDayOutcome`], one file per entry, named by the key. Because the
//! key covers every result-affecting input (see [`crate::task`]), a
//! present entry is *proof* the cached outcome is current — there is no
//! invalidation protocol, no timestamps to compare, nothing to go stale.
//! A warm parameter sweep touches the store once per node and recomputes
//! only the nodes whose resolved configuration actually changed.
//!
//! Durability follows the checkpoint layer's rules exactly
//! ([`crate::checkpoint`]): every entry `nd-<key:016x>.bin` is a sealed
//! record ([`solarml_trace::bytes::seal`], magic `SLNDSTOR`) whose payload
//! is the content key then the [`NodeDayOutcome`] codec, written via
//! [`solarml_trace::write_atomic`]; every corrupt or foreign byte sequence
//! decodes to a typed [`StoreError`] and the engine recomputes — never
//! panics, never silently trusts. A `store.meta` file — the same envelope
//! with an empty payload — stamps the directory with the entry-format
//! version so `open` can reject a foreign-version store up front with a
//! typed error instead of treating every entry as corrupt.
//!
//! Garbage collection is keep-LRU and size-bounded ([`StoreGc`]): entries
//! touched this session rank by access order; untouched entries rank by
//! file modification time (read from metadata — the fleet crate's
//! determinism lint bans wall-clock *sampling*, and ranking needs no
//! clock, only an order). Eviction is safe at any point: a missing entry
//! is just a cache miss.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::UNIX_EPOCH;

use solarml_trace::{seal, unseal, write_atomic, EnvelopeError};

use crate::campaign::{run_campaign_with, CampaignConfig, NodeSummary};
use crate::population::PopulationSpec;
use crate::report::FleetReport;
use crate::task::{Context, NodeDayOutcome, NodeDayTask, Task};

/// Magic prefix of every store file (entries and `store.meta`).
pub const STORE_MAGIC: [u8; 8] = *b"SLNDSTOR";

/// Entry-format version. Bump on any layout change; `open` then refuses
/// the old directory with [`EnvelopeError::UnsupportedVersion`] rather
/// than misreading it.
pub const STORE_VERSION: u32 = 1;

/// Name of the per-directory version stamp.
const META_FILE: &str = "store.meta";

/// Why a store operation failed. Every variant carries enough context to
/// print a one-line diagnosis; none of them is ever promoted to a panic —
/// corrupt entries downgrade to recomputes, foreign stores refuse to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem trouble (permissions, disk, races).
    Io {
        /// Path involved.
        path: String,
        /// OS error description.
        detail: String,
    },
    /// The store path exists but is not a directory.
    NotADirectory {
        /// Path involved.
        path: String,
    },
    /// A store file (entry or `store.meta`) failed the envelope or payload
    /// checks: foreign magic, another format version, a failed checksum,
    /// or a structure that does not decode.
    Corrupt {
        /// Path involved.
        path: String,
        /// Which check refused it.
        reason: EnvelopeError,
    },
    /// A structurally valid entry whose embedded key is not the one its
    /// filename promises — a renamed or misplaced entry.
    KeyMismatch {
        /// Path involved.
        path: String,
        /// Key the filename (and the lookup) expected.
        expected: u64,
        /// Key embedded in the entry.
        found: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "store I/O error at {path}: {detail}"),
            Self::NotADirectory { path } => {
                write!(f, "store path {path} exists but is not a directory")
            }
            Self::Corrupt {
                path,
                reason: EnvelopeError::UnsupportedVersion { found, supported },
            } => write!(
                f,
                "{path} uses store format v{found}, this build supports v{supported}"
            ),
            Self::Corrupt { path, reason } => write!(f, "{path} is corrupt: {reason}"),
            Self::KeyMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path} holds key {found:#018x}, expected {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn corrupt(path: &Path, reason: EnvelopeError) -> StoreError {
    StoreError::Corrupt {
        path: path.display().to_string(),
        reason,
    }
}

/// Garbage-collection bounds. Defaults to unbounded — a sweep's working
/// set is usually worth keeping; callers opt into limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreGc {
    /// Keep at most this many entries (`usize::MAX` = unbounded).
    pub max_entries: usize,
    /// Keep at most this many payload bytes on disk (`u64::MAX` =
    /// unbounded).
    pub max_bytes: u64,
}

impl Default for StoreGc {
    fn default() -> Self {
        Self {
            max_entries: usize::MAX,
            max_bytes: u64::MAX,
        }
    }
}

/// Cache-effectiveness counters for one store session (or, after
/// [`NodeDayStore::reset_stats`], one sweep variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups with no entry present (computed and persisted).
    pub misses: u64,
    /// Entries present but undecodable — typed error, recomputed, and
    /// rewritten. A subset of the work counted in `misses`' recompute
    /// cost, tracked separately because it signals disk trouble.
    pub corrupt: u64,
    /// Entries removed by [`NodeDayStore::run_gc`].
    pub evictions: u64,
    /// Payload bytes currently on disk (entries only, not `store.meta`).
    pub bytes: u64,
}

/// The content-addressed node-day store. All mutation goes through
/// `&self` (atomics plus a mutex-guarded access ledger), so a store
/// shared across campaign worker threads needs no external locking.
#[derive(Debug)]
pub struct NodeDayStore {
    dir: PathBuf,
    gc: StoreGc,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
    access_seq: AtomicU64,
    /// key → last session access sequence; BTreeMap for deterministic
    /// iteration (the fleet crate bans the randomized std hash maps).
    ledger: Mutex<std::collections::BTreeMap<u64, u64>>,
}

impl NodeDayStore {
    /// Opens (creating if absent) the store at `dir` with unbounded GC.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreGc::default())
    }

    /// Opens (creating if absent) the store at `dir`.
    ///
    /// Refuses — with a typed error, before any entry is touched — a path
    /// that is not a directory, a directory stamped by a different store
    /// version, or a meta stamp that fails validation.
    pub fn open_with(dir: impl Into<PathBuf>, gc: StoreGc) -> Result<Self, StoreError> {
        let dir = dir.into();
        if dir.exists() && !dir.is_dir() {
            return Err(StoreError::NotADirectory {
                path: dir.display().to_string(),
            });
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;

        let meta = dir.join(META_FILE);
        if meta.exists() {
            let bytes = std::fs::read(&meta).map_err(|e| io_err(&meta, &e))?;
            unseal(&bytes, STORE_MAGIC, STORE_VERSION)
                .and_then(|r| r.finish().map_err(EnvelopeError::from))
                .map_err(|reason| corrupt(&meta, reason))?;
        } else {
            let stamp = seal(STORE_MAGIC, STORE_VERSION, |_| {});
            write_atomic(&meta, &stamp).map_err(|e| io_err(&meta, &e))?;
        }

        let store = Self {
            dir,
            gc,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            access_seq: AtomicU64::new(0),
            ledger: Mutex::new(std::collections::BTreeMap::new()),
        };
        let mut on_disk = 0u64;
        for entry in store.list_entries()? {
            on_disk = on_disk.saturating_add(entry.len);
        }
        store.bytes.store(on_disk, Ordering::Relaxed);
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Returns `task`'s outcome — replayed from disk when a valid entry
    /// exists, recomputed (and persisted) otherwise. Corrupt entries are
    /// counted, overwritten, and recomputed; persist failures degrade to
    /// cache misses on the next run. This function never panics on store
    /// trouble and never returns a stale result: the key *is* the proof
    /// of currency.
    pub fn require(&self, task: &NodeDayTask) -> NodeDayOutcome {
        let key = task.content_key();
        match self.load(key) {
            Ok(Some(outcome)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(key);
                outcome
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.execute_and_persist(task, key)
            }
            Err(_typed) => {
                // The typed reason is observable via `load`; require's
                // contract is transparent recovery.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.execute_and_persist(task, key)
            }
        }
    }

    fn execute_and_persist(&self, task: &NodeDayTask, key: u64) -> NodeDayOutcome {
        let outcome = task.execute(&mut crate::task::NonIncrementalContext);
        // Best-effort: a failed persist costs a recompute next session,
        // never correctness.
        let _ = self.persist(key, &outcome);
        self.touch(key);
        outcome
    }

    /// Loads the entry for `key`: `Ok(None)` when absent, a typed
    /// [`StoreError`] when present but invalid.
    pub fn load(&self, key: u64) -> Result<Option<NodeDayOutcome>, StoreError> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, &e)),
        };
        let (found, outcome) = unseal(&bytes, STORE_MAGIC, STORE_VERSION)
            .and_then(|mut r| {
                let found = r.read_u64()?;
                let outcome = NodeDayOutcome::decode_from(&mut r)?;
                r.finish()?;
                Ok((found, outcome))
            })
            .map_err(|reason| corrupt(&path, reason))?;
        if found != key {
            return Err(StoreError::KeyMismatch {
                path: path.display().to_string(),
                expected: key,
                found,
            });
        }
        Ok(Some(outcome))
    }

    /// Encodes and atomically writes the entry for `key`.
    pub fn persist(&self, key: u64, outcome: &NodeDayOutcome) -> Result<(), StoreError> {
        let path = self.entry_path(key);
        let had = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let bytes = seal(STORE_MAGIC, STORE_VERSION, |w| {
            w.push_u64(key);
            outcome.encode_into(w);
        });
        let len = bytes.len() as u64;
        write_atomic(&path, &bytes).map_err(|e| io_err(&path, &e))?;
        // Signed difference: overwriting a longer (corrupt) entry shrinks it.
        let resize = |b: u64| Some(b.saturating_add(len).saturating_sub(had));
        let _ = self
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, resize);
        Ok(())
    }

    /// Marks `key` as used now (session-logical time) for LRU ranking.
    fn touch(&self, key: u64) {
        let seq = self.access_seq.fetch_add(1, Ordering::Relaxed);
        let mut ledger = match self.ledger.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        ledger.insert(key, seq);
    }

    /// Current session counters plus on-disk size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the per-run counters (hits/misses/corrupt/evictions),
    /// keeping the on-disk byte gauge and the LRU ledger — sweep drivers
    /// call this between variants to get per-variant counts.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.corrupt.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Number of entries currently on disk.
    pub fn entry_count(&self) -> Result<usize, StoreError> {
        Ok(self.list_entries()?.len())
    }

    /// Enforces the [`StoreGc`] bounds, evicting least-recently-used
    /// entries first, and returns how many were removed.
    ///
    /// Recency is the session access ledger where available (anything
    /// `require`d this session), file modification time otherwise —
    /// session-touched entries always outrank untouched ones. Ties break
    /// on file name, so eviction order is deterministic given the same
    /// on-disk state.
    pub fn run_gc(&self) -> Result<usize, StoreError> {
        let mut entries = self.list_entries()?;
        if entries.len() <= self.gc.max_entries
            && self.bytes.load(Ordering::Relaxed) <= self.gc.max_bytes
        {
            return Ok(0);
        }
        {
            let ledger = match self.ledger.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            for e in &mut entries {
                e.session_seq = ledger.get(&e.key).copied();
            }
        }
        // Oldest first: untouched entries (class 0, by mtime then name),
        // then session-touched entries (class 1, by access sequence).
        entries.sort_by(|a, b| {
            let class = |e: &StoredEntry| u8::from(e.session_seq.is_some());
            class(a)
                .cmp(&class(b))
                .then(a.session_seq.cmp(&b.session_seq))
                .then(a.mtime_ns.cmp(&b.mtime_ns))
                .then(a.name.cmp(&b.name))
        });

        let mut count = entries.len();
        let mut bytes = self.bytes.load(Ordering::Relaxed);
        let mut evicted = 0usize;
        for entry in &entries {
            if count <= self.gc.max_entries && bytes <= self.gc.max_bytes {
                break;
            }
            let path = self.dir.join(&entry.name);
            std::fs::remove_file(&path).map_err(|e| io_err(&path, &e))?;
            count -= 1;
            bytes = bytes.saturating_sub(entry.len);
            evicted += 1;
            let mut ledger = match self.ledger.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            ledger.remove(&entry.key);
        }
        self.bytes.store(bytes, Ordering::Relaxed);
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        Ok(evicted)
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("nd-{key:016x}.bin"))
    }

    fn list_entries(&self) -> Result<Vec<StoredEntry>, StoreError> {
        let mut out = Vec::new();
        let dir = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, &e))?;
        for item in dir {
            let item = item.map_err(|e| io_err(&self.dir, &e))?;
            let name = item.file_name().to_string_lossy().into_owned();
            let Some(key) = parse_entry_name(&name) else {
                continue;
            };
            let meta = item.metadata().map_err(|e| io_err(&item.path(), &e))?;
            // Modification time as an *ordering*, not a clock read: the
            // determinism lint bans sampling now(), not comparing stamps
            // the filesystem already recorded.
            let mtime_ns = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            out.push(StoredEntry {
                key,
                name,
                len: meta.len(),
                mtime_ns,
                session_seq: None,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }
}

#[derive(Debug, Clone)]
struct StoredEntry {
    key: u64,
    name: String,
    len: u64,
    mtime_ns: u128,
    session_seq: Option<u64>,
}

/// Parses `nd-<16 hex digits>.bin` back to its key.
fn parse_entry_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("nd-")?.strip_suffix(".bin")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A [`Context`] that answers `require_task` from a [`NodeDayStore`] —
/// the incremental twin of [`crate::task::NonIncrementalContext`].
#[derive(Debug, Clone, Copy)]
pub struct IncrementalContext<'a> {
    store: &'a NodeDayStore,
}

impl<'a> IncrementalContext<'a> {
    /// A context replaying from (and persisting into) `store`.
    pub fn new(store: &'a NodeDayStore) -> Self {
        Self { store }
    }
}

impl Context<NodeDayTask> for IncrementalContext<'_> {
    fn require_task(&mut self, task: &NodeDayTask) -> NodeDayOutcome {
        self.store.require(task)
    }
}

/// Runs a campaign with node-days required through `store` instead of
/// always executed. The report is byte-identical to [`crate::run_campaign`]
/// of the same config at any hit pattern, worker count, or chunk size:
/// replayed outcomes are bit-equal to recomputed ones, and the merge tree
/// is exactly associative.
pub fn run_campaign_cached(cfg: &CampaignConfig, store: &NodeDayStore) -> FleetReport {
    run_campaign_with(cfg, &cached_node(store))
}

/// [`crate::simulate_node`] with the node-day required through `store`;
/// any `*_with` entry point (durable and resumed runs too) accepts it.
pub fn cached_node(
    store: &NodeDayStore,
) -> impl Fn(&PopulationSpec, usize, u64) -> NodeSummary + Sync + '_ {
    move |spec, node, seed| {
        let task = NodeDayTask::resolve(spec, node, seed);
        task.summary(&IncrementalContext::new(store).require_task(&task))
    }
}

/// One spec variant of a sweep: a display name plus the population to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariant {
    /// Label for reports and CLI output.
    pub name: String,
    /// The population this variant simulates.
    pub population: PopulationSpec,
}

/// One variant's results: the full fleet report plus the cache counters
/// accumulated while producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariantReport {
    /// The variant's label.
    pub name: String,
    /// The variant's campaign report (byte-identical to a cold run).
    pub report: FleetReport,
    /// Hits/misses/recomputes for exactly this variant.
    pub stats: CacheStats,
}

/// Runs each variant against one shared store, in order, resetting the
/// per-run counters between variants so each report carries its own
/// hit/miss/recompute tally. GC runs once after the last variant, so a
/// sweep never evicts entries a later variant is about to hit.
pub fn run_sweep(
    cfg: &CampaignConfig,
    variants: &[SweepVariant],
    store: &NodeDayStore,
) -> Result<Vec<SweepVariantReport>, StoreError> {
    let mut out = Vec::with_capacity(variants.len());
    for variant in variants {
        store.reset_stats();
        let mut variant_cfg = cfg.clone();
        variant_cfg.population = variant.population.clone();
        let report = run_campaign_cached(&variant_cfg, store);
        out.push(SweepVariantReport {
            name: variant.name.clone(),
            report,
            stats: store.stats(),
        });
    }
    store.run_gc()?;
    Ok(out)
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests plant torn and foreign files with bare writes on purpose"
)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("solarml-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn smoke_cfg(nodes: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::smoke(nodes, 0xCAFE);
        cfg.workers = 2;
        cfg.chunk = 4;
        cfg
    }

    #[test]
    fn cached_campaign_matches_cold_campaign_and_counts_hits() {
        let dir = tmp_dir("roundtrip");
        let cfg = smoke_cfg(12);
        let cold = run_campaign(&cfg);

        let store = NodeDayStore::open(&dir).expect("open");
        let first = run_campaign_cached(&cfg, &store);
        assert_eq!(first, cold, "cold cached run equals uncached run");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (0, 12, 0));

        store.reset_stats();
        let second = run_campaign_cached(&cfg, &store);
        assert_eq!(second, cold, "warm run is byte-identical");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (12, 0, 0));
        assert!(s.bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_yield_typed_errors_and_transparent_recompute() {
        let dir = tmp_dir("corrupt");
        let cfg = smoke_cfg(4);
        let store = NodeDayStore::open(&dir).expect("open");
        let cold = run_campaign_cached(&cfg, &store);

        // Flip one payload byte in every entry.
        let mut flipped = 0;
        for item in std::fs::read_dir(&dir).expect("read_dir") {
            let path = item.expect("entry").path();
            if !path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("nd-"))
            {
                continue;
            }
            let mut bytes = std::fs::read(&path).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes).expect("write");
            flipped += 1;
        }
        assert_eq!(flipped, 4);

        store.reset_stats();
        let warm = run_campaign_cached(&cfg, &store);
        assert_eq!(warm, cold, "corruption never changes the report");
        let s = store.stats();
        assert_eq!(s.corrupt, 4, "every flipped entry was detected");
        assert_eq!(s.hits, 0);

        // And the rewrite healed the store.
        store.reset_stats();
        run_campaign_cached(&cfg, &store);
        assert_eq!(store.stats().hits, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_gauge_shrinks_when_a_longer_corrupt_entry_is_overwritten() {
        let dir = tmp_dir("gauge");
        let cfg = smoke_cfg(4);
        let on_disk = |store: &NodeDayStore| -> u64 {
            let entries = store.list_entries().expect("list");
            entries.iter().map(|e| e.len).sum()
        };
        let store = NodeDayStore::open(&dir).expect("open");
        run_campaign_cached(&cfg, &store);
        assert_eq!(store.stats().bytes, on_disk(&store));

        // Grow one entry by 500 trailing bytes: corrupt and longer.
        let entry = store.list_entries().expect("list").remove(0);
        let path = dir.join(&entry.name);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&[0xA5; 500]);
        std::fs::write(&path, &bytes).expect("write");

        let store = NodeDayStore::open(&dir).expect("reopen");
        assert_eq!(store.stats().bytes, on_disk(&store));
        run_campaign_cached(&cfg, &store);
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(
            store.stats().bytes,
            on_disk(&store),
            "the gauge follows the rewrite down to the on-disk size"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_version_store_is_a_typed_open_error() {
        let dir = tmp_dir("foreign");
        drop(NodeDayStore::open(&dir).expect("open"));
        let meta = dir.join(META_FILE);
        std::fs::write(&meta, seal(STORE_MAGIC, STORE_VERSION + 9, |_| {})).expect("write meta");

        match NodeDayStore::open(&dir) {
            Err(StoreError::Corrupt {
                reason: EnvelopeError::UnsupportedVersion { found, supported },
                ..
            }) => {
                assert_eq!(found, STORE_VERSION + 9);
                assert_eq!(supported, STORE_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_as_store_path_is_a_typed_open_error() {
        let dir = tmp_dir("notadir");
        std::fs::create_dir_all(dir.parent().expect("parent")).expect("mkdir");
        std::fs::write(&dir, b"occupied").expect("write");
        match NodeDayStore::open(&dir) {
            Err(StoreError::NotADirectory { .. }) => {}
            other => panic!("expected NotADirectory, got {other:?}"),
        }
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn gc_keeps_recently_used_entries() {
        let dir = tmp_dir("gc");
        let cfg = smoke_cfg(8);
        let gc = StoreGc {
            max_entries: 3,
            max_bytes: u64::MAX,
        };
        let store = NodeDayStore::open_with(&dir, gc).expect("open");
        run_campaign_cached(&cfg, &store);
        assert_eq!(store.entry_count().expect("count"), 8);

        // Touch three specific nodes, then collect: exactly those survive.
        let keys: Vec<u64> = [1usize, 4, 6]
            .iter()
            .map(|&node| {
                let seed = solarml_sim::seed::derive_seed(
                    cfg.seed,
                    crate::campaign::FLEET_SEED_CYCLE,
                    node,
                );
                let task = NodeDayTask::resolve(&cfg.population, node, seed);
                store.require(&task);
                task.content_key()
            })
            .collect();
        let evicted = store.run_gc().expect("gc");
        assert_eq!(evicted, 5);
        assert_eq!(store.entry_count().expect("count"), 3);
        assert_eq!(store.stats().evictions, 5);
        for key in keys {
            assert!(
                store.load(key).expect("load").is_some(),
                "recently required entries survive GC"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_reports_per_variant_stats() {
        let dir = tmp_dir("sweep");
        let cfg = smoke_cfg(10);
        let store = NodeDayStore::open(&dir).expect("open");
        let variants = vec![
            SweepVariant {
                name: "base".into(),
                population: cfg.population.clone(),
            },
            SweepVariant {
                name: "base-again".into(),
                population: cfg.population.clone(),
            },
        ];
        let reports = run_sweep(&cfg, &variants, &store).expect("sweep");
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].stats.misses, 10);
        assert_eq!(reports[0].stats.hits, 0);
        assert_eq!(reports[1].stats.hits, 10);
        assert_eq!(reports[1].stats.misses, 0);
        assert_eq!(
            reports[0].report, reports[1].report,
            "identical variants produce identical reports"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
