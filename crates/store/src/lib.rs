#![forbid(unsafe_code)]
//! Durable, crash-safe catalog store for the matching pipeline.
//!
//! A [`CatalogStore`] persists pipeline artifacts — ingested logs,
//! dependency graphs, engine substrates, label matrices — as checksummed,
//! versioned snapshot files keyed by the fingerprints the session layer
//! already computes. The write protocol is the classic atomic triple:
//!
//! 1. write the full snapshot image to a hidden temp file in the same
//!    directory,
//! 2. `fsync` the temp file,
//! 3. `rename` it over the final path (the commit point), then
//!    best-effort `fsync` the directory.
//!
//! A crash at any point leaves either the old snapshot or the new one,
//! never a torn file at the final path; torn temp residue is ignored by
//! readers and reclaimed by [`CatalogStore::gc`]. Every read re-validates
//! the envelope checksum ([`format::decode_snapshot`]) plus the expected
//! kind, key, and payload version; any mismatch quarantines the entry
//! (moved to `quarantine/`, never deleted) and surfaces as a typed
//! [`EmsError::StoreCorrupt`], after which the caller rebuilds from
//! source and re-puts — corruption degrades to a cache miss, never to a
//! wrong answer.
//!
//! All I/O paths are instrumented with [`ems_faults`] hooks so chaos
//! tests can inject torn writes, short reads, `ENOSPC`, and transient
//! errors on a reproducible schedule; transients are retried with
//! seeded virtual backoff via [`ems_faults::run_with_retry`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod format;

use ems_error::{EmsError, EmsResult};
use ems_faults::{run_with_retry, FaultInjector, FaultKind, FaultSite, RetryPolicy};
use ems_obs::Recorder;
use std::fs::{self, File};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use format::{SnapshotError, SnapshotHeader, SnapshotKind};

/// Store layout marker written to `<root>/STORE`; rejected roots are
/// surfaced as corruption rather than silently reformatted.
const MARKER: &str = "ems-store/1\n";

/// Counters describing one store's lifetime of traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads that returned a valid snapshot.
    pub hits: u64,
    /// Reads of entries not present on disk.
    pub misses: u64,
    /// Snapshots committed.
    pub writes: u64,
    /// Puts that failed terminally (after retries).
    pub write_failures: u64,
    /// Gets that failed terminally with an I/O error (after retries).
    pub read_failures: u64,
    /// Entries moved to quarantine after failing validation.
    pub quarantined: u64,
    /// Transient-fault retries performed across all operations.
    pub retries: u64,
    /// Total virtual backoff accumulated by those retries (µs).
    pub backoff_us: u64,
}

/// Validation status of one on-disk entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryStatus {
    /// Envelope decoded, checksum matched, name agreed with header.
    Ok,
    /// Entry failed validation for the given reason.
    Corrupt(String),
}

/// One catalog entry as seen by [`CatalogStore::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// File name inside `objects/`.
    pub file: String,
    /// Kind parsed from the header (or file name if the header is bad).
    pub kind: Option<SnapshotKind>,
    /// Store key, when decodable.
    pub key: Option<u64>,
    /// Payload codec version, when decodable.
    pub payload_version: Option<u32>,
    /// File size in bytes.
    pub bytes: u64,
    /// Validation outcome.
    pub status: EntryStatus,
}

/// Outcome of [`CatalogStore::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries that validated.
    pub ok: usize,
    /// `(file name, reason)` for every entry that failed.
    pub corrupt: Vec<(String, String)>,
}

/// Outcome of [`CatalogStore::gc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Abandoned temp files removed from `objects/`.
    pub removed_tmp: usize,
    /// Quarantined files removed from `quarantine/`.
    pub removed_quarantined: usize,
}

/// Per-attempt failure inside an instrumented store operation. Injected
/// transients are the only retryable class; real I/O errors are treated
/// as terminal so behavior stays deterministic under chaos sweeps.
#[derive(Debug)]
enum OpError {
    Injected { site: FaultSite, kind: FaultKind },
    Real(std::io::Error),
}

impl OpError {
    fn is_transient(&self) -> bool {
        matches!(self, OpError::Injected { kind, .. } if kind.is_transient())
    }

    fn describe(&self) -> String {
        match self {
            OpError::Injected { site, kind } => {
                format!("injected {} fault at {}", kind.name(), site.name())
            }
            OpError::Real(e) => e.to_string(),
        }
    }
}

/// Recovers the stats even if a panicking thread poisoned the lock —
/// bookkeeping must never compound a failure.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A durable catalog of pipeline snapshots rooted at one directory.
///
/// Thread-safe: all methods take `&self`, so one store can be shared via
/// `Arc` between a session's stages.
#[derive(Debug)]
pub struct CatalogStore {
    root: PathBuf,
    injector: Arc<FaultInjector>,
    recorder: Option<Arc<Recorder>>,
    retry: RetryPolicy,
    stats: Mutex<StoreStats>,
    /// Per-write temp-file sequence: concurrent puts of one key each
    /// write their own temp file instead of truncating a shared one.
    tmp_seq: AtomicU64,
}

impl CatalogStore {
    /// Opens (creating if necessary) a store rooted at `root`. A root
    /// whose `STORE` marker holds unexpected content is rejected as
    /// [`EmsError::StoreCorrupt`] — it is some other tool's directory.
    pub fn open(root: impl Into<PathBuf>) -> EmsResult<Self> {
        let root = root.into();
        let objects = root.join("objects");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&objects).map_err(|e| io_err(&objects, &e))?;
        fs::create_dir_all(&quarantine).map_err(|e| io_err(&quarantine, &e))?;
        let marker = root.join("STORE");
        match fs::read_to_string(&marker) {
            Ok(content) if content == MARKER => {}
            Ok(content) => {
                return Err(EmsError::store_corrupt(
                    marker.display().to_string(),
                    format!("unexpected store marker {content:?}, want {MARKER:?}"),
                ));
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {
                fs::write(&marker, MARKER).map_err(|e| io_err(&marker, &e))?;
            }
            Err(e) => return Err(io_err(&marker, &e)),
        }
        Ok(CatalogStore {
            root,
            injector: Arc::new(FaultInjector::inert()),
            recorder: None,
            retry: RetryPolicy::default(),
            stats: Mutex::new(StoreStats::default()),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Arms a fault injector on every subsequent I/O operation.
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = injector;
        self
    }

    /// Attaches a telemetry recorder for store counters.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Overrides the transient-fault retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the store's traffic counters.
    pub fn stats(&self) -> StoreStats {
        lock(&self.stats).clone()
    }

    fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn file_name(kind: SnapshotKind, key: u64) -> String {
        format!("{}-{key:016x}.snap", kind.name())
    }

    fn object_path(&self, kind: SnapshotKind, key: u64) -> PathBuf {
        self.objects_dir().join(Self::file_name(kind, key))
    }

    fn counter(&self, name: &str, pairs: &[(&str, &str)], value: u64) {
        if let Some(rec) = &self.recorder {
            rec.counter_add(name, ems_obs::labels(pairs), value);
        }
    }

    fn note_retries(&self, attempts: u32, backoff_us: u64) {
        let retries = u64::from(attempts.saturating_sub(1));
        if retries > 0 {
            let mut stats = lock(&self.stats);
            stats.retries += retries;
            stats.backoff_us += backoff_us;
            drop(stats);
            self.counter("store.retry", &[], retries);
        }
    }

    /// Persists one snapshot atomically; the entry becomes visible to
    /// readers only after the rename commit. Transient injected faults
    /// are retried; terminal failures return [`EmsError::StoreIo`] and
    /// leave any previously committed snapshot untouched.
    pub fn put(
        &self,
        kind: SnapshotKind,
        key: u64,
        payload_version: u32,
        payload: &[u8],
    ) -> EmsResult<()> {
        let bytes = format::encode_snapshot(kind, key, payload_version, payload);
        let outcome = run_with_retry(&self.retry, OpError::is_transient, |_| {
            self.write_once(kind, key, &bytes)
        });
        self.note_retries(outcome.attempts, outcome.backoff_us);
        match outcome.result {
            Ok(()) => {
                lock(&self.stats).writes += 1;
                self.counter("store.write", &[("kind", kind.name())], 1);
                Ok(())
            }
            Err(e) => {
                lock(&self.stats).write_failures += 1;
                self.counter("store.write_failure", &[("kind", kind.name())], 1);
                Err(EmsError::store_io(
                    self.object_path(kind, key).display().to_string(),
                    e.describe(),
                ))
            }
        }
    }

    /// One write attempt: temp file → fsync → rename → dir fsync, with
    /// injector hooks at each step. A failed attempt may leave temp
    /// residue (that is the point of torn-write injection); the final
    /// path is only ever touched by the rename. Every attempt gets its
    /// own temp name (process id plus a per-store sequence number), so
    /// racing writers of one key — threads or processes — never share a
    /// temp file; the last rename wins with a complete image.
    fn write_once(&self, kind: SnapshotKind, key: u64, bytes: &[u8]) -> Result<(), OpError> {
        let objects = self.objects_dir();
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = objects.join(format!(
            ".tmp-{}-{key:016x}-{}-{seq}",
            kind.name(),
            std::process::id()
        ));
        let mut file = File::create(&tmp).map_err(OpError::Real)?;
        match self.injector.next_op(FaultSite::StoreWrite) {
            Some(kind @ FaultKind::TornWrite { keep_permille }) => {
                let keep = bytes.len() * usize::from(keep_permille) / 1000;
                file.write_all(&bytes[..keep]).map_err(OpError::Real)?;
                let _ = file.sync_all();
                return Err(OpError::Injected {
                    site: FaultSite::StoreWrite,
                    kind,
                });
            }
            Some(kind) => {
                return Err(OpError::Injected {
                    site: FaultSite::StoreWrite,
                    kind,
                })
            }
            None => file.write_all(bytes).map_err(OpError::Real)?,
        }
        match self.injector.next_op(FaultSite::StoreFsync) {
            Some(kind) => {
                return Err(OpError::Injected {
                    site: FaultSite::StoreFsync,
                    kind,
                })
            }
            None => file.sync_all().map_err(OpError::Real)?,
        }
        drop(file);
        match self.injector.next_op(FaultSite::StoreRename) {
            Some(kind) => {
                return Err(OpError::Injected {
                    site: FaultSite::StoreRename,
                    kind,
                })
            }
            None => {
                fs::rename(&tmp, self.object_path(kind, key)).map_err(OpError::Real)?;
            }
        }
        // Directory fsync is best-effort: its absence can delay
        // visibility after a crash but can never produce a torn entry.
        let _ = File::open(&objects).and_then(|d| d.sync_all());
        Ok(())
    }

    /// Fetches a snapshot's payload. Returns `Ok(None)` on a miss;
    /// validation failures quarantine the entry and return
    /// [`EmsError::StoreCorrupt`] so the caller rebuilds from source.
    pub fn get(
        &self,
        kind: SnapshotKind,
        key: u64,
        expected_version: u32,
    ) -> EmsResult<Option<Vec<u8>>> {
        let path = self.object_path(kind, key);
        let outcome = run_with_retry(&self.retry, OpError::is_transient, |_| {
            self.read_once(&path)
        });
        self.note_retries(outcome.attempts, outcome.backoff_us);
        let bytes = match outcome.result {
            Ok(Some(bytes)) => bytes,
            Ok(None) => {
                lock(&self.stats).misses += 1;
                self.counter(
                    "store.cache",
                    &[("result", "miss"), ("kind", kind.name())],
                    1,
                );
                return Ok(None);
            }
            Err(e) => {
                lock(&self.stats).read_failures += 1;
                self.counter("store.read_failure", &[("kind", kind.name())], 1);
                return Err(EmsError::store_io(path.display().to_string(), e.describe()));
            }
        };
        let reason = match format::decode_snapshot(&bytes) {
            Ok((header, payload)) => {
                if header.kind != kind {
                    format!("kind mismatch: header says {}", header.kind.name())
                } else if header.key != key {
                    format!("key mismatch: header says {:016x}", header.key)
                } else if header.payload_version != expected_version {
                    format!(
                        "payload version mismatch: have {}, want {expected_version}",
                        header.payload_version
                    )
                } else {
                    lock(&self.stats).hits += 1;
                    self.counter(
                        "store.cache",
                        &[("result", "hit"), ("kind", kind.name())],
                        1,
                    );
                    return Ok(Some(payload.to_vec()));
                }
            }
            Err(e) => e.to_string(),
        };
        self.quarantine_entry(kind, key, &reason);
        Err(EmsError::store_corrupt(path.display().to_string(), reason))
    }

    /// One read attempt with injector hooks. `Ok(None)` means the entry
    /// does not exist (a genuine miss, not a fault).
    fn read_once(&self, path: &Path) -> Result<Option<Vec<u8>>, OpError> {
        match self.injector.next_op(FaultSite::StoreRead) {
            Some(FaultKind::ShortRead { keep_permille }) => {
                // A short read delivers a truncated image: the decode
                // below fails its checksum and the entry degrades to a
                // rebuild, exactly like real corruption would.
                match fs::read(path) {
                    Ok(mut bytes) => {
                        bytes.truncate(bytes.len() * usize::from(keep_permille) / 1000);
                        Ok(Some(bytes))
                    }
                    Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
                    Err(e) => Err(OpError::Real(e)),
                }
            }
            Some(kind) => Err(OpError::Injected {
                site: FaultSite::StoreRead,
                kind,
            }),
            None => match fs::read(path) {
                Ok(bytes) => Ok(Some(bytes)),
                Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
                Err(e) => Err(OpError::Real(e)),
            },
        }
    }

    /// Moves an entry into `quarantine/` (best-effort) and records it.
    /// Public so callers that detect payload-level corruption after a
    /// successful envelope read can route the entry the same way.
    pub fn quarantine_entry(&self, kind: SnapshotKind, key: u64, reason: &str) {
        let name = Self::file_name(kind, key);
        let from = self.objects_dir().join(&name);
        let to = self.quarantine_dir().join(&name);
        let _ = fs::rename(&from, &to);
        lock(&self.stats).quarantined += 1;
        self.counter("store.quarantine", &[("kind", kind.name())], 1);
        if let Some(rec) = &self.recorder {
            rec.event(
                "store.quarantine",
                ems_obs::labels(&[("entry", name.as_str()), ("reason", reason)]),
            );
        }
    }

    /// Lists every committed entry with its validation status, sorted by
    /// file name. Administrative: runs fault-free and touches no counters.
    pub fn list(&self) -> EmsResult<Vec<EntryInfo>> {
        let mut out = Vec::new();
        for (name, path) in self.snap_files()? {
            let bytes = fs::read(&path).map_err(|e| io_err(&path, &e))?;
            let info = match format::decode_snapshot(&bytes) {
                Ok((header, _)) => {
                    let status = match Self::check_name(&name, header) {
                        Some(reason) => EntryStatus::Corrupt(reason),
                        None => EntryStatus::Ok,
                    };
                    EntryInfo {
                        file: name,
                        kind: Some(header.kind),
                        key: Some(header.key),
                        payload_version: Some(header.payload_version),
                        bytes: bytes.len() as u64,
                        status,
                    }
                }
                Err(e) => EntryInfo {
                    file: name.clone(),
                    kind: Self::parse_name(&name).map(|(k, _)| k),
                    key: Self::parse_name(&name).map(|(_, key)| key),
                    payload_version: None,
                    bytes: bytes.len() as u64,
                    status: EntryStatus::Corrupt(e.to_string()),
                },
            };
            out.push(info);
        }
        Ok(out)
    }

    /// Validates every committed entry without modifying anything —
    /// quarantine is left to readers so `verify` stays a pure report.
    pub fn verify(&self) -> EmsResult<VerifyReport> {
        let mut report = VerifyReport::default();
        for entry in self.list()? {
            match entry.status {
                EntryStatus::Ok => report.ok += 1,
                EntryStatus::Corrupt(reason) => report.corrupt.push((entry.file, reason)),
            }
        }
        Ok(report)
    }

    /// Removes abandoned temp files and quarantined entries.
    pub fn gc(&self) -> EmsResult<GcReport> {
        let mut report = GcReport::default();
        let objects = self.objects_dir();
        for entry in fs::read_dir(&objects).map_err(|e| io_err(&objects, &e))? {
            let entry = entry.map_err(|e| io_err(&objects, &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), &e))?;
                report.removed_tmp += 1;
            }
        }
        let quarantine = self.quarantine_dir();
        for entry in fs::read_dir(&quarantine).map_err(|e| io_err(&quarantine, &e))? {
            let entry = entry.map_err(|e| io_err(&quarantine, &e))?;
            fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), &e))?;
            report.removed_quarantined += 1;
        }
        Ok(report)
    }

    /// `.snap` files in `objects/`, sorted by name for determinism.
    fn snap_files(&self) -> EmsResult<Vec<(String, PathBuf)>> {
        let objects = self.objects_dir();
        let mut files = Vec::new();
        for entry in fs::read_dir(&objects).map_err(|e| io_err(&objects, &e))? {
            let entry = entry.map_err(|e| io_err(&objects, &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".snap") {
                files.push((name, entry.path()));
            }
        }
        files.sort();
        Ok(files)
    }

    /// Parses `<kind>-<key:016x>.snap`.
    fn parse_name(name: &str) -> Option<(SnapshotKind, u64)> {
        let stem = name.strip_suffix(".snap")?;
        let (kind, hex) = stem.split_once('-')?;
        Some((
            SnapshotKind::from_name(kind)?,
            u64::from_str_radix(hex, 16).ok()?,
        ))
    }

    /// Cross-checks a decoded header against the file's name; a mismatch
    /// means a snapshot was renamed over another entry's path.
    fn check_name(name: &str, header: SnapshotHeader) -> Option<String> {
        match Self::parse_name(name) {
            Some((kind, key)) if kind == header.kind && key == header.key => None,
            Some((kind, key)) => Some(format!(
                "file name says {}-{key:016x} but header says {}-{:016x}",
                kind.name(),
                header.kind.name(),
                header.key
            )),
            None => Some("unparseable snapshot file name".to_string()),
        }
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> EmsError {
    EmsError::store_io(path.display().to_string(), e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_faults::{FaultPlan, PlannedFault};

    fn tmp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ems-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn injector_with(faults: Vec<PlannedFault>) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(FaultPlan { seed: 0, faults }))
    }

    #[test]
    fn put_get_round_trips() {
        let store = CatalogStore::open(tmp_root("roundtrip")).unwrap();
        store.put(SnapshotKind::Graph, 7, 1, b"abc").unwrap();
        assert_eq!(
            store.get(SnapshotKind::Graph, 7, 1).unwrap(),
            Some(b"abc".to_vec())
        );
        let stats = store.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let store = CatalogStore::open(tmp_root("miss")).unwrap();
        assert_eq!(store.get(SnapshotKind::Log, 1, 1).unwrap(), None);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn put_overwrites_atomically() {
        let store = CatalogStore::open(tmp_root("overwrite")).unwrap();
        store.put(SnapshotKind::Labels, 3, 1, b"old").unwrap();
        store.put(SnapshotKind::Labels, 3, 1, b"new").unwrap();
        assert_eq!(
            store.get(SnapshotKind::Labels, 3, 1).unwrap(),
            Some(b"new".to_vec())
        );
    }

    #[test]
    fn concurrent_puts_of_one_key_commit_a_valid_entry() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 16;
        let store = CatalogStore::open(tmp_root("race")).unwrap();
        let payloads: Vec<Vec<u8>> = (0..THREADS)
            .map(|t| vec![t as u8; 4096 + 512 * t])
            .collect();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for payload in &payloads {
                let (store, payloads, barrier) = (&store, &payloads, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..ROUNDS {
                        store.put(SnapshotKind::Graph, 9, 1, payload).unwrap();
                        // Readers racing the writers only ever see a
                        // complete image of one of them.
                        let got = store.get(SnapshotKind::Graph, 9, 1).unwrap().unwrap();
                        assert!(payloads.contains(&got));
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.writes, (THREADS * ROUNDS) as u64);
        assert_eq!(stats.write_failures, 0);
        assert_eq!(stats.quarantined, 0);
        let got = store.get(SnapshotKind::Graph, 9, 1).unwrap().unwrap();
        assert!(payloads.contains(&got));
        assert_eq!(store.verify().unwrap().corrupt, vec![]);
        let leftovers: Vec<String> = fs::read_dir(store.objects_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn version_mismatch_quarantines() {
        let root = tmp_root("version");
        let store = CatalogStore::open(&root).unwrap();
        store.put(SnapshotKind::Graph, 9, 1, b"abc").unwrap();
        let err = store.get(SnapshotKind::Graph, 9, 2).unwrap_err();
        assert!(matches!(err, EmsError::StoreCorrupt { .. }), "{err}");
        assert_eq!(err.exit_code(), 10);
        assert_eq!(store.stats().quarantined, 1);
        // The entry is gone from objects/ and parked in quarantine/.
        assert_eq!(store.get(SnapshotKind::Graph, 9, 2).unwrap(), None);
        let q = root.join("quarantine").join("graph-0000000000000009.snap");
        assert!(q.exists());
    }

    #[test]
    fn flipped_byte_quarantines_and_rebuild_recovers() {
        let root = tmp_root("flip");
        let store = CatalogStore::open(&root).unwrap();
        store
            .put(SnapshotKind::Substrate, 5, 1, b"payload")
            .unwrap();
        let path = root.join("objects").join("substrate-0000000000000005.snap");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let err = store.get(SnapshotKind::Substrate, 5, 1).unwrap_err();
        assert!(matches!(err, EmsError::StoreCorrupt { .. }), "{err}");
        // Rebuild-and-re-put restores service.
        store
            .put(SnapshotKind::Substrate, 5, 1, b"payload")
            .unwrap();
        assert_eq!(
            store.get(SnapshotKind::Substrate, 5, 1).unwrap(),
            Some(b"payload".to_vec())
        );
    }

    #[test]
    fn truncation_quarantines() {
        let root = tmp_root("trunc");
        let store = CatalogStore::open(&root).unwrap();
        store.put(SnapshotKind::Log, 11, 1, b"0123456789").unwrap();
        let path = root.join("objects").join("log-000000000000000b.snap");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = store.get(SnapshotKind::Log, 11, 1).unwrap_err();
        assert!(matches!(err, EmsError::StoreCorrupt { .. }), "{err}");
    }

    #[test]
    fn renamed_entry_is_detected_by_key_mismatch() {
        let root = tmp_root("rename");
        let store = CatalogStore::open(&root).unwrap();
        store.put(SnapshotKind::Graph, 1, 1, b"one").unwrap();
        let objects = root.join("objects");
        fs::rename(
            objects.join("graph-0000000000000001.snap"),
            objects.join("graph-0000000000000002.snap"),
        )
        .unwrap();
        let err = store.get(SnapshotKind::Graph, 2, 1).unwrap_err();
        assert!(err.to_string().contains("key mismatch"), "{err}");
    }

    #[test]
    fn torn_write_leaves_old_snapshot_intact() {
        let root = tmp_root("torn");
        let inj = injector_with(vec![PlannedFault {
            site: FaultSite::StoreWrite,
            // op 1: the second write attempt (the overwrite) tears.
            op: 1,
            kind: FaultKind::TornWrite { keep_permille: 400 },
        }]);
        let store = CatalogStore::open(&root).unwrap().with_injector(inj);
        store.put(SnapshotKind::Graph, 4, 1, b"committed").unwrap();
        let err = store.put(SnapshotKind::Graph, 4, 1, b"torn!").unwrap_err();
        assert!(matches!(err, EmsError::StoreIo { .. }), "{err}");
        assert_eq!(err.exit_code(), 11);
        // The committed snapshot still reads back clean.
        assert_eq!(
            store.get(SnapshotKind::Graph, 4, 1).unwrap(),
            Some(b"committed".to_vec())
        );
        // The torn temp residue exists until gc reclaims it.
        let gc = store.gc().unwrap();
        assert_eq!(gc.removed_tmp, 1);
    }

    #[test]
    fn transient_write_fault_is_retried_to_success() {
        let inj = injector_with(vec![PlannedFault {
            site: FaultSite::StoreWrite,
            op: 0,
            kind: FaultKind::TransientIo,
        }]);
        let store = CatalogStore::open(tmp_root("transient-w"))
            .unwrap()
            .with_injector(inj);
        store.put(SnapshotKind::Labels, 8, 1, b"ok").unwrap();
        let stats = store.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.write_failures, 0);
        assert_eq!(stats.retries, 1);
        assert!(stats.backoff_us > 0);
    }

    #[test]
    fn transient_read_fault_is_retried_to_success() {
        let inj = injector_with(vec![PlannedFault {
            site: FaultSite::StoreRead,
            op: 0,
            kind: FaultKind::TransientIo,
        }]);
        let store = CatalogStore::open(tmp_root("transient-r"))
            .unwrap()
            .with_injector(inj);
        store.put(SnapshotKind::Log, 2, 1, b"data").unwrap();
        assert_eq!(
            store.get(SnapshotKind::Log, 2, 1).unwrap(),
            Some(b"data".to_vec())
        );
        assert_eq!(store.stats().retries, 1);
    }

    #[test]
    fn no_space_write_fails_terminally() {
        let inj = injector_with(vec![PlannedFault {
            site: FaultSite::StoreFsync,
            op: 0,
            kind: FaultKind::NoSpace,
        }]);
        let store = CatalogStore::open(tmp_root("nospace"))
            .unwrap()
            .with_injector(inj);
        let err = store.put(SnapshotKind::Graph, 1, 1, b"x").unwrap_err();
        assert!(matches!(err, EmsError::StoreIo { .. }), "{err}");
        let stats = store.stats();
        assert_eq!(stats.write_failures, 1);
        assert_eq!(stats.retries, 0, "NoSpace must not be retried");
    }

    #[test]
    fn short_read_degrades_to_quarantine_and_rebuild() {
        let inj = injector_with(vec![PlannedFault {
            site: FaultSite::StoreRead,
            op: 0,
            kind: FaultKind::ShortRead { keep_permille: 500 },
        }]);
        let store = CatalogStore::open(tmp_root("shortread"))
            .unwrap()
            .with_injector(inj);
        store
            .put(SnapshotKind::Substrate, 6, 1, b"0123456789")
            .unwrap();
        let err = store.get(SnapshotKind::Substrate, 6, 1).unwrap_err();
        assert!(matches!(err, EmsError::StoreCorrupt { .. }), "{err}");
        // Rebuild path: re-put then read clean (the fault was one-shot).
        store
            .put(SnapshotKind::Substrate, 6, 1, b"0123456789")
            .unwrap();
        assert_eq!(
            store.get(SnapshotKind::Substrate, 6, 1).unwrap(),
            Some(b"0123456789".to_vec())
        );
    }

    #[test]
    fn list_and_verify_report_statuses() {
        let root = tmp_root("verify");
        let store = CatalogStore::open(&root).unwrap();
        store.put(SnapshotKind::Graph, 1, 1, b"fine").unwrap();
        store.put(SnapshotKind::Log, 2, 1, b"also fine").unwrap();
        // Corrupt the log entry in place.
        let path = root.join("objects").join("log-0000000000000002.snap");
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        let report = store.verify().unwrap();
        assert_eq!(report.ok, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, "log-0000000000000002.snap");
        // verify is read-only: the corrupt entry is still in objects/.
        assert!(path.exists());
    }

    #[test]
    fn gc_reclaims_quarantine() {
        let root = tmp_root("gc");
        let store = CatalogStore::open(&root).unwrap();
        store.put(SnapshotKind::Graph, 1, 1, b"x").unwrap();
        let err = store.get(SnapshotKind::Graph, 1, 9).unwrap_err();
        assert!(matches!(err, EmsError::StoreCorrupt { .. }));
        let gc = store.gc().unwrap();
        assert_eq!(gc.removed_quarantined, 1);
        assert_eq!(store.gc().unwrap(), GcReport::default());
    }

    #[test]
    fn reopen_preserves_entries() {
        let root = tmp_root("reopen");
        {
            let store = CatalogStore::open(&root).unwrap();
            store.put(SnapshotKind::Graph, 1, 1, b"persisted").unwrap();
        }
        let store = CatalogStore::open(&root).unwrap();
        assert_eq!(
            store.get(SnapshotKind::Graph, 1, 1).unwrap(),
            Some(b"persisted".to_vec())
        );
    }

    #[test]
    fn foreign_marker_is_rejected() {
        let root = tmp_root("marker");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("STORE"), "someone-else/9\n").unwrap();
        let err = CatalogStore::open(&root).unwrap_err();
        assert!(matches!(err, EmsError::StoreCorrupt { .. }), "{err}");
    }

    #[test]
    fn recorder_counts_store_traffic() {
        let rec = Arc::new(Recorder::new());
        let store = CatalogStore::open(tmp_root("recorder"))
            .unwrap()
            .with_recorder(Arc::clone(&rec));
        store.put(SnapshotKind::Graph, 1, 1, b"x").unwrap();
        let _ = store.get(SnapshotKind::Graph, 1, 1).unwrap();
        let _ = store.get(SnapshotKind::Graph, 2, 1).unwrap();
        let records = rec.records();
        let names: Vec<&str> = records
            .iter()
            .filter_map(|r| match r {
                ems_obs::Record::Counter { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"store.write"));
        assert!(names.iter().filter(|n| **n == "store.cache").count() >= 2);
    }
}
