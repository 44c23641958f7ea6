//! The staged matching pipeline: **ingest → model → substrate → labels →
//! solve → aggregate**, implemented once and reached through two front
//! doors.
//!
//! [`crate::Ems`] is one-shot: every call re-derives the dependency graphs,
//! the label matrix and the kernel substrate even when the inputs did not
//! change. A [`SharedSession`] makes each stage's product explicit and
//! caches it by *content fingerprint* (FNV-1a over names, frequencies and
//! adjacency — see [`ems_events::fingerprint_log`] and
//! [`ems_depgraph::DependencyGraph::fingerprint`]), so matching N logs
//! against one reference builds the reference-side model once, and
//! re-matching an unchanged pair is served from the outcome cache.
//!
//! The two front doors run the same stage code:
//!
//! * [`MatchSession`] is the handle layer behind `ems match`. It keeps only
//!   per-handle state — the ingested logs ([`LogHandle`],
//!   [`MatchSession::append_traces`]), the warm-start priors and the
//!   ingest-boundary fault point — and calls the stages with per-call
//!   [`SessionOptions`];
//! * [`SharedSession`] is addressed by log content and is `&self` end to
//!   end, so one session serves the catalog and every `ems serve` worker.
//!
//! Symbols are interned once per session ([`SymbolTable`]): every graph the
//! session builds shares one table, so label identity across logs is a `u32`
//! comparison, never a string comparison.
//!
//! # Concurrency
//!
//! Each cache (graphs, substrates, labels, outcomes) sits behind its own
//! `RwLock` of `Arc`ed products:
//!
//! * lookups take a read lock only;
//! * a miss builds **outside** any cache lock, then inserts under a write
//!   lock with a re-check — two workers racing on the same product build
//!   it twice and keep the first insert, never block each other for the
//!   duration of a build, and always observe identical bytes because
//!   every product is a deterministic function of the inputs;
//! * the solve stage runs entirely on `Arc` snapshots, lock-free.
//!
//! Locks are never nested (the symbol table mutex is held only while a
//! graph is built or decoded, with no cache lock held), so no lock-order
//! cycle exists by construction.
//!
//! # Outcome cache
//!
//! The two fixpoint solves dominate a repeat match, so the outcome cache is
//! checked before any stage: a plain call on content already matched is
//! served the memoized outcome. An engine recorder, fault injector, budget
//! or warm-start request makes a call observably different from a replay,
//! and such calls bypass the outcome cache entirely (both read and write).
//!
//! # Warm starts
//!
//! With [`SessionOptions::warm_start`] set, a re-match seeds both direction
//! runs from the pair's previous fixpoint. This is sound by Theorem 1: the
//! similarity update is monotone with a unique fixpoint, so iteration
//! converges to the same matrix from any start at or below it — and a
//! previously converged matrix of the same pair space is such a start. On
//! graphs whose pairs all have finite Proposition-2 horizons (acyclic
//! dependency graphs) with pruning enabled, the warm run is bitwise
//! stationary: every pair's neighbors retire strictly before the pair's own
//! horizon, so re-evaluating the old fixpoint reproduces it exactly and the
//! run converges in one iteration with a bit-identical matrix (pinned by the
//! `session_reuse` golden tests).
//!
//! # Durable tier
//!
//! With a catalog store attached ([`SharedSession::with_store`],
//! [`MatchSession::with_store`]) every build stage gains a disk tier
//! between the in-memory cache and a rebuild: memory hit → store hit
//! (decode a checksummed snapshot) → rebuild (and best-effort re-persist).
//! Store failures never fail a match — a corrupt snapshot is quarantined
//! and the product rebuilt from source, an I/O failure simply degrades to a
//! rebuild — so the durable tier is purely an availability optimization
//! with no effect on results (pinned by the disk-warm bit-identity tests
//! and the `chaos_store` sweep).
//!
//! # Telemetry
//!
//! Two recorders with distinct roles:
//!
//! * the **session recorder** ([`SharedSession::with_recorder`],
//!   [`MatchSession::with_recorder`]) receives the stage spans
//!   (`session.model`, `session.substrate`) and the cache counters
//!   (`session.graph_cache`, `session.substrate_cache`,
//!   `session.label_cache`, `session.outcome_cache`,
//!   `session.warm_start`) that prove which stages were skipped;
//!   [`MatchSession`] also opens the `session.match` profiler scopes;
//! * the **engine recorder** ([`SessionOptions::recorder`]) is handed to the
//!   solve stage only, so a cached re-match emits an engine trace
//!   byte-identical to the cold run's.
//!
//! ```
//! use ems_core::{EmsParams, MatchSession};
//! use ems_events::EventLog;
//!
//! let mut reference = EventLog::new();
//! reference.push_trace(["a", "b", "c"]);
//! let mut observed = EventLog::new();
//! observed.push_trace(["x", "y", "z"]);
//!
//! let mut session = MatchSession::new(EmsParams::structural());
//! let r = session.ingest(reference);
//! let o = session.ingest(observed);
//! let cold = session.match_pair(r, o).unwrap();
//! let cached = session.match_pair(r, o).unwrap(); // served from the outcome cache
//! assert!(cold.similarity.max_abs_diff(&cached.similarity) == 0.0);
//! assert_eq!(session.stats().graph_builds, 2);
//! assert_eq!(session.stats().substrate_builds, 2); // one per direction — built once
//! ```

use crate::engine::{Budget, Engine, RunOptions, Seed};
use crate::error::CoreError;
use crate::matcher::{aggregate_directions, label_matrix_for, MatchOutcome};
use crate::params::{Direction, EmsParams};
use crate::persist;
use crate::sim::SimMatrix;
use crate::substrate::EngineSubstrate;
use ems_depgraph::{filter_min_frequency, observe_graph, DependencyGraph};
use ems_error::EmsError;
use ems_events::{fingerprint_log, EventLog, SymbolTable};
use ems_faults::{FaultInjector, FaultKind, FaultSite};
use ems_labels::LabelMatrix;
use ems_obs::{Histogram, Labels, Recorder};
use ems_prof::Profiler;
use ems_store::{CatalogStore, SnapshotKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Identifies a log ingested into a [`MatchSession`]. Handles are stable for
/// the session's lifetime and survive [`MatchSession::append_traces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogHandle(u32);

impl LogHandle {
    /// Zero-based ingestion index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-call options for [`MatchSession::match_pair_opts`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Per-call thread-count override; `None` defers to
    /// [`EmsParams::threads`].
    pub threads: Option<usize>,
    /// Passed through to [`RunOptions::oversubscribe`]: lets an explicit
    /// thread request exceed host parallelism instead of clamping.
    pub oversubscribe: bool,
    /// Seed both direction runs from this pair's previous fixpoint when one
    /// of matching shape exists (see the module docs for why this is sound).
    pub warm_start: bool,
    /// Resource budget for each direction's run.
    pub budget: Budget,
    /// Engine-level telemetry sink, passed through to the solve stage only —
    /// session stage spans and cache counters go to the *session* recorder
    /// ([`MatchSession::with_recorder`]), keeping this trace byte-comparable
    /// between cold and cached runs.
    pub recorder: Option<Arc<Recorder>>,
    /// Deterministic fault injector consulted at the ingest and solve stage
    /// boundaries (store-level sites are consulted by the store itself —
    /// share one injector between both for a coherent schedule). A transient
    /// ingest fault is absorbed; a terminal one surfaces as
    /// [`CoreError::FaultInjected`]. A solve-stage budget-exhaustion fault
    /// clamps the run budget so the engine degrades to estimation instead
    /// of failing.
    pub injector: Option<Arc<FaultInjector>>,
}

/// Counters describing the session's cache behavior and the setup work it
/// performed, attributed once at session level (runs executed against cached
/// substrates report zero setup in their own [`crate::PhaseTimes`] — see
/// `session_attributes_setup_once` in the tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Dependency graphs built (model-stage cache misses).
    pub graph_builds: u64,
    /// Model-stage cache hits.
    pub graph_cache_hits: u64,
    /// [`EngineSubstrate`]s built (substrate-stage cache misses).
    pub substrate_builds: u64,
    /// Substrate-stage cache hits.
    pub substrate_cache_hits: u64,
    /// Label matrices computed.
    pub label_builds: u64,
    /// Label-stage cache hits.
    pub label_cache_hits: u64,
    /// Solve-stage runs seeded from a prior fixpoint.
    pub warm_starts: u64,
    /// Full matches served from the outcome cache (every stage skipped).
    pub outcome_cache_hits: u64,
    /// Build products served from the durable store (snapshot decoded).
    pub store_hits: u64,
    /// Durable-store lookups that found no snapshot.
    pub store_misses: u64,
    /// Snapshots quarantined (envelope- or payload-level corruption) and
    /// rebuilt from source.
    pub store_quarantines: u64,
    /// Durable-store reads that failed with an I/O error (degraded to a
    /// rebuild).
    pub store_read_failures: u64,
    /// Best-effort snapshot writes that failed (the match still succeeded).
    pub store_write_failures: u64,
    /// Total wall-clock setup the session performed (graph + substrate
    /// builds) — the single authoritative setup attribution for all runs
    /// the session executed.
    pub setup: Duration,
}

impl SessionStats {
    fn builds(&self) -> u64 {
        self.graph_builds + self.substrate_builds + self.label_builds
    }

    fn cache_hits(&self) -> u64 {
        self.graph_cache_hits + self.substrate_cache_hits + self.label_cache_hits
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    match lock.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Where a stage's product came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    Built,
}

impl Tier {
    /// The `result` label of the stage's cache counter.
    fn result(self) -> &'static str {
        match self {
            Tier::Memory => "hit",
            Tier::Disk => "disk",
            Tier::Built => "miss",
        }
    }

    /// The counter the stage's profiler scope records.
    fn scope_count(self) -> &'static str {
        match self {
            Tier::Memory => "cache_hits",
            Tier::Disk => "store_hits",
            Tier::Built => "builds",
        }
    }
}

/// Stage record labels: `pairs`, then the `side` of a handle-addressed log
/// (content-addressed calls have no side).
fn side_labels(pairs: &[(&str, &str)], side: Option<&str>) -> Labels {
    let mut labels = ems_obs::labels(pairs);
    if let Some(side) = side {
        labels.push(("side".to_string(), side.to_string()));
    }
    labels
}

/// The previous fixpoint of one handle pair — the warm-start source.
/// Held as dense copies: in a converged similarity matrix nearly every
/// pair scores above zero, so a sparse form would cost more, not less.
#[derive(Debug)]
struct Prior {
    forward: SimMatrix,
    backward: SimMatrix,
}

impl Prior {
    fn of(outcome: &MatchOutcome) -> Self {
        Prior {
            forward: outcome.forward.clone(),
            backward: outcome.backward.clone(),
        }
    }

    /// The warm seeds for a pair, if this prior still fits the current
    /// pair space (an append can change the alphabet and with it the
    /// matrix shape — a stale-shaped prior is skipped, not an error).
    fn seeds(&self, g1: &DependencyGraph, g2: &DependencyGraph) -> Option<(Seed, Seed)> {
        let (n1, n2) = (g1.num_real(), g2.num_real());
        if self.forward.rows() != n1 || self.forward.cols() != n2 {
            return None;
        }
        let unfrozen = vec![false; n1 * n2];
        Some((
            Seed {
                values: self.forward.clone(),
                frozen: unfrozen.clone(),
            },
            Seed {
                values: self.backward.clone(),
                frozen: unfrozen,
            },
        ))
    }
}

/// The staged matching pipeline behind shared caches; see the module docs
/// for the stage, caching and locking model. All methods take `&self`, so
/// one session can be hit from any number of worker threads.
#[derive(Debug)]
pub struct SharedSession {
    params: EmsParams,
    min_frequency: f64,
    table: Mutex<SymbolTable>,
    /// Model cache: log content fingerprint → dependency graph (with the
    /// session's min-frequency filter applied). `min_frequency` and the
    /// parameters are session constants, so they are not part of the key.
    graphs: RwLock<BTreeMap<u64, Arc<DependencyGraph>>>,
    /// Substrate cache: (graph fp 1, graph fp 2, direction) → substrate.
    substrates: RwLock<BTreeMap<(u64, u64, u8), Arc<EngineSubstrate>>>,
    /// Label cache: (log fp 1, log fp 2) → label matrix.
    labels: RwLock<BTreeMap<(u64, u64), Arc<LabelMatrix>>>,
    /// Outcome cache: (log fp 1, log fp 2) → full match result.
    outcomes: RwLock<BTreeMap<(u64, u64), MatchOutcome>>,
    /// Optional durable tier behind the in-memory caches: every build stage
    /// consults it on a memory miss and re-persists what it rebuilds.
    store: Option<Arc<CatalogStore>>,
    recorder: Option<Arc<Recorder>>,
    stats: Mutex<SessionStats>,
    /// Store-fetch latency accumulated across stage lookups, flushed to the
    /// session recorder after each solve as a single
    /// `session.store_fetch_us` histogram (exec class: latency is
    /// non-deterministic, so redacted exports zero its contents).
    fetch_hist: Mutex<Option<Histogram>>,
}

impl SharedSession {
    /// Creates a shared session, validating the parameters.
    pub fn try_new(params: EmsParams) -> Result<Self, CoreError> {
        params.validate().map_err(CoreError::InvalidParams)?;
        Ok(SharedSession {
            params,
            min_frequency: 0.0,
            table: Mutex::new(SymbolTable::new()),
            graphs: RwLock::new(BTreeMap::new()),
            substrates: RwLock::new(BTreeMap::new()),
            labels: RwLock::new(BTreeMap::new()),
            outcomes: RwLock::new(BTreeMap::new()),
            store: None,
            recorder: None,
            stats: Mutex::new(SessionStats::default()),
            fetch_hist: Mutex::new(None),
        })
    }

    /// Attaches a durable catalog store as the tier between the in-memory
    /// caches and a rebuild (see the module docs). Store failures never
    /// fail a match: corruption quarantines the snapshot and rebuilds, I/O
    /// errors degrade to a rebuild.
    pub fn with_store(mut self, store: Arc<CatalogStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches the session telemetry sink (stage spans, cache counters).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets the minimum edge frequency applied when building graphs
    /// (Section 2 filtering). A session constant: it participates in every
    /// model-stage build, so it is deliberately not part of the cache keys.
    pub fn with_min_frequency(mut self, threshold: f64) -> Self {
        self.min_frequency = threshold;
        self
    }

    /// The session's parameters.
    pub fn params(&self) -> &EmsParams {
        &self.params
    }

    /// Snapshot of the cache and setup counters.
    pub fn stats(&self) -> SessionStats {
        *mutex_lock(&self.stats)
    }

    /// The dependency graph of a log (session min-frequency filter
    /// applied), served from memory, the durable store, or a build.
    pub fn graph(&self, log: &EventLog) -> Arc<DependencyGraph> {
        self.graph_keyed(fingerprint_log(log), log)
    }

    /// [`graph`](Self::graph) with the log's content fingerprint already
    /// known (the catalog fingerprints at admission time).
    pub fn graph_keyed(&self, fingerprint: u64, log: &EventLog) -> Arc<DependencyGraph> {
        self.model(fingerprint, log, None, None)
    }

    /// Matches two logs through the shared caches. Bit-identical to the
    /// same pair through [`MatchSession`] or one-shot [`crate::Ems`]
    /// (unlimited budget, cold seed, default thread policy).
    pub fn try_match(&self, log1: &EventLog, log2: &EventLog) -> Result<MatchOutcome, CoreError> {
        let (fp1, fp2) = (fingerprint_log(log1), fingerprint_log(log2));
        self.run(
            (fp1, log1),
            (fp2, log2),
            || (self.graph_keyed(fp1, log1), self.graph_keyed(fp2, log2)),
            &SessionOptions::default(),
            None,
            None,
        )
    }

    /// [`try_match`](Self::try_match) when both graphs are already in hand
    /// (the catalog pins reference graphs itself): the model stage is
    /// skipped, every other stage runs as usual.
    pub fn try_match_modeled(
        &self,
        fp1: u64,
        log1: &EventLog,
        g1: &Arc<DependencyGraph>,
        fp2: u64,
        log2: &EventLog,
        g2: &Arc<DependencyGraph>,
    ) -> Result<MatchOutcome, CoreError> {
        self.run(
            (fp1, log1),
            (fp2, log2),
            || (Arc::clone(g1), Arc::clone(g2)),
            &SessionOptions::default(),
            None,
            None,
        )
    }

    /// Drops a graph and every substrate involving it from the in-memory
    /// caches — the catalog's eviction hook. The durable store keeps its
    /// snapshots, so the next access disk-warms (or rebuilds from the
    /// source log); evicting is an availability/memory trade, never a
    /// correctness event.
    pub fn evict_graph(&self, fingerprint: u64) {
        write_lock(&self.graphs).remove(&fingerprint);
        write_lock(&self.substrates).retain(|k, _| k.0 != fingerprint && k.1 != fingerprint);
    }

    /// The one match pipeline every front door runs: outcome cache, then
    /// model (`model` yields the pair's graphs), substrate, labels, solve
    /// and aggregate. `prior` is the pair's warm-start source, used when
    /// `options` asks for a warm start; `prof` nests the build stages'
    /// profiler scopes under the caller's.
    fn run(
        &self,
        (fp1, log1): (u64, &EventLog),
        (fp2, log2): (u64, &EventLog),
        model: impl FnOnce() -> (Arc<DependencyGraph>, Arc<DependencyGraph>),
        options: &SessionOptions,
        prior: Option<&Prior>,
        prof: Option<&Profiler>,
    ) -> Result<MatchOutcome, CoreError> {
        // Outcome cache (see the module docs). Thread-count overrides don't
        // gate anything here: results are bit-identical at every thread
        // count.
        let cacheable = options.recorder.is_none()
            && options.injector.is_none()
            && options.budget.is_unlimited()
            && !options.warm_start;
        if cacheable {
            let cached = read_lock(&self.outcomes).get(&(fp1, fp2)).cloned();
            if let Some(outcome) = cached {
                mutex_lock(&self.stats).outcome_cache_hits += 1;
                if let Some(rec) = self.recorder.as_deref() {
                    rec.counter_add(
                        "session.outcome_cache",
                        ems_obs::labels(&[("result", "hit")]),
                        1,
                    );
                }
                return Ok(outcome);
            }
        }

        // Model stage: one dependency graph per distinct log content.
        let (g1, g2) = model();
        // Substrate stage: one kernel substrate per (graphs, direction).
        let fwd_sub = self.substrate(&g1, &g2, Direction::Forward, prof);
        let bwd_sub = self.substrate(&g1, &g2, Direction::Backward, prof);
        // Label stage: one label matrix per log-content pair.
        let labels = self.label_matrix((fp1, log1), (fp2, log2), prof);

        // Solve-boundary fault point: budget exhaustion clamps the run
        // budget — the engine degrades to estimation (a defined, typed-error
        // -free outcome) rather than failing the match.
        let mut budget = options.budget.clone();
        if let Some(injector) = options.injector.as_deref() {
            match injector.next_op(FaultSite::Solve) {
                Some(FaultKind::BudgetExhaust) => {
                    budget = Budget {
                        max_iterations: Some(1),
                        ..budget
                    };
                }
                Some(kind) if !kind.is_transient() => {
                    return Err(CoreError::FaultInjected {
                        site: FaultSite::Solve.name().to_string(),
                        kind: kind.name().to_string(),
                    });
                }
                _ => {}
            }
        }

        // Solve stage: run both directions on cached substrates; the
        // engines charge zero setup (the session already attributed it).
        let seeds = prior
            .filter(|_| options.warm_start)
            .and_then(|p| p.seeds(&g1, &g2));
        let (fwd_seed, bwd_seed) = match seeds {
            Some((f, b)) => {
                mutex_lock(&self.stats).warm_starts += 1;
                if let Some(rec) = self.recorder.as_deref() {
                    rec.counter_add("session.warm_start", ems_obs::labels(&[]), 1);
                }
                (Some(f), Some(b))
            }
            None => (None, None),
        };
        let solve = |direction, substrate, seed| {
            Engine::try_with_substrate(&g1, &g2, &labels, &self.params, direction, substrate)?
                .try_run(&RunOptions {
                    seed,
                    abort_below: None,
                    budget: budget.clone(),
                    threads: options.threads,
                    oversubscribe: options.oversubscribe,
                    recorder: options.recorder.clone(),
                })
        };
        let fwd = solve(Direction::Forward, fwd_sub, fwd_seed)?;
        let bwd = solve(Direction::Backward, bwd_sub, bwd_seed)?;

        // Aggregate stage — identical combine to `Ems`.
        let outcome = aggregate_directions(&self.params, fwd, bwd);
        if cacheable {
            write_lock(&self.outcomes)
                .entry((fp1, fp2))
                .or_insert_with(|| outcome.clone());
        }
        self.flush_fetch_hist();
        Ok(outcome)
    }

    /// Builds (or fetches) the dependency graph of a log, keyed by its
    /// content fingerprint. `side` names a handle-addressed log in the
    /// stage telemetry.
    fn model(
        &self,
        fp: u64,
        log: &EventLog,
        side: Option<&str>,
        prof: Option<&Profiler>,
    ) -> Arc<DependencyGraph> {
        let mut scope = prof.map(|pf| pf.scope("model"));
        let (mut removed, mut elapsed) = (0, Duration::ZERO);
        // Disk tier: a snapshot keyed by (log content, min-frequency filter)
        // rehydrates the graph into the session's shared symbol table.
        let (graph, tier) = self.tiered(
            &self.graphs,
            fp,
            (
                SnapshotKind::Graph,
                persist::graph_store_key(fp, self.min_frequency),
                persist::GRAPH_PAYLOAD_VERSION,
            ),
            |bytes| {
                persist::decode_graph_in(bytes, &mut mutex_lock(&self.table))
                    .map_err(|e| e.to_string())
            },
            || {
                // ems-lint: allow(wall-clock-randomness, stage timing feeds session telemetry only, never similarity values)
                let started = Instant::now();
                let built = DependencyGraph::from_log_in(log, &mut mutex_lock(&self.table));
                let graph = if self.min_frequency > 0.0 {
                    let (graph, filtered) = filter_min_frequency(&built, self.min_frequency);
                    removed = filtered;
                    graph
                } else {
                    built
                };
                elapsed = started.elapsed();
                graph
            },
            persist::encode_graph,
        );
        {
            let mut stats = mutex_lock(&self.stats);
            match tier {
                Tier::Memory => stats.graph_cache_hits += 1,
                Tier::Disk => {}
                Tier::Built => {
                    stats.graph_builds += 1;
                    stats.setup += elapsed;
                }
            }
        }
        if let Some(rec) = self.recorder.as_deref() {
            rec.counter_add(
                "session.graph_cache",
                side_labels(&[("result", tier.result())], side),
                1,
            );
            if tier == Tier::Built {
                rec.span_closed("session.model", side_labels(&[], side), elapsed);
                // Shape gauges keep the last write per side, so only a
                // handle-addressed log has a series of its own.
                if let Some(side) = side {
                    observe_graph(&graph, rec, side);
                    rec.counter_add(
                        "graph_filtered_vertices",
                        ems_obs::labels(&[("side", side)]),
                        removed as u64,
                    );
                }
            }
        }
        if let Some(s) = scope.as_mut() {
            s.count(tier.scope_count(), 1);
        }
        graph
    }

    /// Builds (or fetches) the kernel substrate of a graph pair for one
    /// direction, keyed by the graphs' content fingerprints.
    fn substrate(
        &self,
        g1: &Arc<DependencyGraph>,
        g2: &Arc<DependencyGraph>,
        direction: Direction,
        prof: Option<&Profiler>,
    ) -> Arc<EngineSubstrate> {
        let mut scope = prof.map(|pf| pf.scope("substrate"));
        let dir_label = match direction {
            Direction::Forward => "forward",
            Direction::Backward => "backward",
        };
        let key = (g1.fingerprint(), g2.fingerprint(), direction as u8);
        // Disk tier: the snapshot embeds direction and damping constant, and
        // a decoded substrate must still fit the graphs it will be paired
        // with — a shape disagreement means the key collided or the entry is
        // stale, either way quarantine-and-rebuild territory.
        let (sub, tier) = self.tiered(
            &self.substrates,
            key,
            (
                SnapshotKind::Substrate,
                persist::substrate_store_key(key.0, key.1, direction, self.params.c),
                persist::SUBSTRATE_PAYLOAD_VERSION,
            ),
            |bytes| match persist::decode_substrate(bytes, direction, self.params.c) {
                Ok(sub) if sub.rows() == g1.num_real() && sub.cols() == g2.num_real() => Ok(sub),
                Ok(sub) => Err(format!(
                    "substrate shape {}x{} does not fit graphs {}x{}",
                    sub.rows(),
                    sub.cols(),
                    g1.num_real(),
                    g2.num_real()
                )),
                Err(e) => Err(e.to_string()),
            },
            || EngineSubstrate::build(g1, g2, direction, self.params.c),
            persist::encode_substrate,
        );
        {
            let mut stats = mutex_lock(&self.stats);
            match tier {
                Tier::Memory => stats.substrate_cache_hits += 1,
                Tier::Disk => {}
                Tier::Built => {
                    stats.substrate_builds += 1;
                    stats.setup += sub.build_time();
                }
            }
        }
        if let Some(rec) = self.recorder.as_deref() {
            rec.counter_add(
                "session.substrate_cache",
                ems_obs::labels(&[("result", tier.result()), ("direction", dir_label)]),
                1,
            );
            if tier == Tier::Built {
                rec.span_closed(
                    "session.substrate",
                    ems_obs::labels(&[("direction", dir_label)]),
                    sub.build_time(),
                );
            }
        }
        if let Some(s) = scope.as_mut() {
            s.count(tier.scope_count(), 1);
        }
        sub
    }

    /// Builds (or fetches) the label matrix of a log pair, keyed by the
    /// logs' content fingerprints.
    fn label_matrix(
        &self,
        (fp1, log1): (u64, &EventLog),
        (fp2, log2): (u64, &EventLog),
        prof: Option<&Profiler>,
    ) -> Arc<LabelMatrix> {
        let mut scope = prof.map(|pf| pf.scope("labels"));
        let (rows, cols) = (log1.alphabet_size(), log2.alphabet_size());
        // Disk tier: the key separates label spaces (which measure filled
        // the matrix; alpha = 1 stores an all-zeros matrix), and a decoded
        // matrix must still fit the two alphabets.
        let (m, tier) = self.tiered(
            &self.labels,
            (fp1, fp2),
            (
                SnapshotKind::Labels,
                persist::labels_store_key(fp1, fp2, self.params.label_space()),
                persist::LABELS_PAYLOAD_VERSION,
            ),
            |bytes| match persist::decode_labels(bytes) {
                Ok(m) if m.rows() == rows && m.cols() == cols => Ok(m),
                Ok(m) => Err(format!(
                    "label matrix shape {}x{} does not fit alphabets {rows}x{cols}",
                    m.rows(),
                    m.cols()
                )),
                Err(e) => Err(e.to_string()),
            },
            || label_matrix_for(&self.params, log1, log2),
            persist::encode_labels,
        );
        match tier {
            Tier::Memory => mutex_lock(&self.stats).label_cache_hits += 1,
            Tier::Disk => {}
            Tier::Built => mutex_lock(&self.stats).label_builds += 1,
        }
        if let Some(rec) = self.recorder.as_deref() {
            rec.counter_add(
                "session.label_cache",
                ems_obs::labels(&[("result", tier.result())]),
                1,
            );
        }
        if let Some(s) = scope.as_mut() {
            s.count(tier.scope_count(), 1);
        }
        m
    }

    /// One build stage's lookup chain: memory cache → store snapshot
    /// (`decode` validates it; a rejected snapshot is quarantined) → `build`
    /// (best-effort persisted through `encode`). Reports which tier served.
    #[allow(clippy::too_many_arguments)] // one closure per tier transition
    fn tiered<K: Ord, T>(
        &self,
        cache: &RwLock<BTreeMap<K, Arc<T>>>,
        key: K,
        (kind, store_key, version): (SnapshotKind, u64, u32),
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
        build: impl FnOnce() -> T,
        encode: impl FnOnce(&T) -> Vec<u8>,
    ) -> (Arc<T>, Tier) {
        let cached = read_lock(cache).get(&key).cloned();
        if let Some(product) = cached {
            return (product, Tier::Memory);
        }
        let mut decoded = None;
        if let Some(bytes) = self.store_fetch(kind, store_key, version) {
            match decode(&bytes) {
                Ok(product) => {
                    mutex_lock(&self.stats).store_hits += 1;
                    decoded = Some(product);
                }
                Err(reason) => self.store_quarantine(kind, store_key, &reason),
            }
        }
        let tier = if decoded.is_some() {
            Tier::Disk
        } else {
            Tier::Built
        };
        let product = Arc::new(decoded.unwrap_or_else(build));
        if tier == Tier::Built {
            self.store_put(kind, store_key, version, || encode(&product));
        }
        // Re-check under the write lock: a racing worker may have landed
        // the identical product first — keep theirs so every caller shares
        // one allocation.
        let product = Arc::clone(write_lock(cache).entry(key).or_insert(product));
        (product, tier)
    }

    /// Disk-tier read: the payload of a valid snapshot, or `None` with the
    /// matching counter bumped. Envelope-level corruption was already
    /// quarantined by the store itself; every failure class degrades to a
    /// rebuild.
    fn store_fetch(&self, kind: SnapshotKind, key: u64, version: u32) -> Option<Vec<u8>> {
        let store = self.store.as_deref()?;
        // ems-lint: allow(wall-clock-randomness, store-fetch latency feeds a nondeterministic telemetry histogram only, never similarity values)
        let started = self.recorder.is_some().then(Instant::now);
        let result = store.get(kind, key, version);
        if let Some(started) = started {
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            mutex_lock(&self.fetch_hist)
                .get_or_insert_with(|| {
                    Histogram::nondeterministic(
                        "session.store_fetch_us",
                        ems_obs::labels(&[]),
                        "us",
                    )
                })
                .observe(us);
        }
        let mut stats = mutex_lock(&self.stats);
        match result {
            Ok(Some(bytes)) => return Some(bytes),
            Ok(None) => stats.store_misses += 1,
            Err(EmsError::StoreCorrupt { .. }) => stats.store_quarantines += 1,
            Err(_) => stats.store_read_failures += 1,
        }
        None
    }

    /// Quarantines a snapshot whose payload failed decode-side validation
    /// (the envelope checksum passed, so the store could not have caught it).
    fn store_quarantine(&self, kind: SnapshotKind, key: u64, reason: &str) {
        if let Some(store) = &self.store {
            store.quarantine_entry(kind, key, reason);
            mutex_lock(&self.stats).store_quarantines += 1;
        }
    }

    /// Best-effort snapshot write after a rebuild: a failure only counts —
    /// the durable tier must never fail a match. `encode` runs only when a
    /// store is attached.
    fn store_put(
        &self,
        kind: SnapshotKind,
        key: u64,
        version: u32,
        encode: impl FnOnce() -> Vec<u8>,
    ) {
        if let Some(store) = &self.store {
            if store.put(kind, key, version, &encode()).is_err() {
                mutex_lock(&self.stats).store_write_failures += 1;
            }
        }
    }

    /// Flushes the accumulated store-fetch latency histogram to the session
    /// recorder, if any fetches were timed since the last flush.
    fn flush_fetch_hist(&self) {
        let hist = mutex_lock(&self.fetch_hist).take();
        if let (Some(rec), Some(h)) = (self.recorder.as_deref(), hist) {
            if !h.is_empty() {
                rec.histogram(h.into_record());
            }
        }
    }
}

#[derive(Debug)]
struct SessionLog {
    log: EventLog,
    fingerprint: u64,
}

/// The handle layer over a [`SharedSession`]: ingested logs addressed by
/// [`LogHandle`], per-call [`SessionOptions`], and warm-start priors per
/// handle pair. See the module docs for the stage/caching model.
#[derive(Debug)]
pub struct MatchSession {
    shared: SharedSession,
    logs: Vec<SessionLog>,
    /// Prior fixpoints by handle pair — survives `append_traces` (the warm
    /// seed for the re-match), unlike the fingerprint-keyed caches which the
    /// new content simply misses.
    priors: BTreeMap<(u32, u32), Prior>,
}

impl MatchSession {
    /// Creates a session with the given parameters.
    ///
    /// # Panics
    /// If the parameters are invalid (see [`EmsParams::validate`]). Use
    /// [`try_new`](Self::try_new) for a fallible variant.
    #[allow(clippy::panic)] // documented contract panic; try_new is the fallible path
    pub fn new(params: EmsParams) -> Self {
        match Self::try_new(params) {
            Ok(session) => session,
            // ems-lint: allow(panic-surface, documented contract panic; try_new is the fallible path)
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`new`](Self::new): returns
    /// [`CoreError::InvalidParams`] instead of panicking.
    pub fn try_new(params: EmsParams) -> Result<Self, CoreError> {
        Ok(MatchSession {
            shared: SharedSession::try_new(params)?,
            logs: Vec::new(),
            priors: BTreeMap::new(),
        })
    }

    /// Attaches the session telemetry sink (stage spans, cache counters,
    /// profiler scopes).
    pub fn with_recorder(self, recorder: Arc<Recorder>) -> Self {
        MatchSession {
            shared: self.shared.with_recorder(recorder),
            ..self
        }
    }

    /// Attaches a durable catalog store; see
    /// [`SharedSession::with_store`].
    pub fn with_store(self, store: Arc<CatalogStore>) -> Self {
        MatchSession {
            shared: self.shared.with_store(store),
            ..self
        }
    }

    /// Sets the minimum edge frequency applied when building graphs; see
    /// [`SharedSession::with_min_frequency`].
    pub fn with_min_frequency(self, threshold: f64) -> Self {
        MatchSession {
            shared: self.shared.with_min_frequency(threshold),
            ..self
        }
    }

    /// The session's parameters.
    pub fn params(&self) -> &EmsParams {
        self.shared.params()
    }

    /// The session-wide symbol table. Grows as logs are modeled; symbols
    /// are shared across every graph the session builds.
    pub fn symbols(&self) -> MutexGuard<'_, SymbolTable> {
        mutex_lock(&self.shared.table)
    }

    /// Cache and setup counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.shared.stats()
    }

    /// Takes ownership of a log and returns its handle.
    pub fn ingest(&mut self, log: EventLog) -> LogHandle {
        let fingerprint = fingerprint_log(&log);
        let handle = LogHandle(u32::try_from(self.logs.len()).unwrap_or(u32::MAX));
        debug_assert!((handle.0 as usize) == self.logs.len(), "session log limit");
        self.logs.push(SessionLog { log, fingerprint });
        handle
    }

    /// The log behind a handle.
    pub fn log(&self, handle: LogHandle) -> Result<&EventLog, CoreError> {
        self.session_log(handle).map(|s| &s.log)
    }

    /// Appends traces to an ingested log and re-fingerprints it. The
    /// handle's cached graph/substrate/label products are not invalidated —
    /// the new fingerprint simply misses them — but the pair's prior
    /// fixpoint is kept as the warm-start source for the re-match.
    pub fn append_traces<I, T, S>(&mut self, handle: LogHandle, traces: I) -> Result<(), CoreError>
    where
        I: IntoIterator<Item = T>,
        T: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.session_log(handle)?;
        let entry = &mut self.logs[handle.index()];
        for trace in traces {
            entry.log.push_trace(trace);
        }
        entry.fingerprint = fingerprint_log(&entry.log);
        Ok(())
    }

    /// Matches two ingested logs with default options.
    pub fn match_pair(&mut self, h1: LogHandle, h2: LogHandle) -> Result<MatchOutcome, CoreError> {
        self.match_pair_opts(h1, h2, &SessionOptions::default())
    }

    /// Matches two ingested logs: a plain replay is served from the outcome
    /// cache, otherwise model, substrate and label products are served from
    /// the session caches when their fingerprints match, and the solve
    /// stage optionally warm-starts from the pair's prior fixpoint.
    pub fn match_pair_opts(
        &mut self,
        h1: LogHandle,
        h2: LogHandle,
        options: &SessionOptions,
    ) -> Result<MatchOutcome, CoreError> {
        let (s1, s2) = (self.session_log(h1)?, self.session_log(h2)?);
        let shared = &self.shared;

        // Scoped profiling (session recorder only): one `session.match`
        // scope per call, with the build stages nested beneath it.
        let profiler = shared
            .recorder
            .as_ref()
            .map(|r| Profiler::new(Arc::clone(r)));
        let prof = profiler.as_ref();
        let mut match_scope = prof.map(|pf| pf.scope("session.match"));
        let before = shared.stats();

        // Ingest-boundary fault point: a transient fault is absorbed (the
        // stage "retries" by simply proceeding — the inputs are already in
        // memory); a terminal one surfaces as a typed error.
        if let Some(injector) = options.injector.as_deref() {
            if let Some(kind) = injector.next_op(FaultSite::Ingest) {
                if !kind.is_transient() {
                    return Err(CoreError::FaultInjected {
                        site: FaultSite::Ingest.name().to_string(),
                        kind: kind.name().to_string(),
                    });
                }
            }
        }

        let (side1, side2) = (format!("log{}", h1.0 + 1), format!("log{}", h2.0 + 1));
        let outcome = shared.run(
            (s1.fingerprint, &s1.log),
            (s2.fingerprint, &s2.log),
            || {
                (
                    shared.model(s1.fingerprint, &s1.log, Some(&side1), prof),
                    shared.model(s2.fingerprint, &s2.log, Some(&side2), prof),
                )
            },
            options,
            self.priors.get(&(h1.0, h2.0)),
            prof,
        )?;
        if let Some(mut s) = match_scope.take() {
            let after = shared.stats();
            if after.outcome_cache_hits > before.outcome_cache_hits {
                s.count("outcome_cache_hits", 1);
            } else {
                s.count("builds", after.builds() - before.builds());
                s.count("cache_hits", after.cache_hits() - before.cache_hits());
                s.count("solves", 2);
            }
        }
        // The fixpoint, solved or served, is the pair's freshest warm-start
        // source.
        self.priors.insert((h1.0, h2.0), Prior::of(&outcome));
        Ok(outcome)
    }

    fn session_log(&self, handle: LogHandle) -> Result<&SessionLog, CoreError> {
        self.logs.get(handle.index()).ok_or(CoreError::UnknownLog {
            handle: handle.0,
            logs: self.logs.len(),
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Ems;
    use ems_faults::{FaultPlan, PlannedFault};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh, collision-free store root under the system temp dir.
    fn tmp_store_root(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ems-session-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Acyclic logs (every trace visits distinct names), so every pair has
    /// a finite Proposition-2 horizon — the precondition for the warm-start
    /// bitwise-stationarity argument in the module docs.
    fn dag_logs() -> (EventLog, EventLog) {
        let mut l1 = EventLog::new();
        l1.push_trace(["cash", "validate", "ship"]);
        l1.push_trace(["cash", "validate", "ship"]);
        l1.push_trace(["card", "validate", "ship"]);
        let mut l2 = EventLog::new();
        l2.push_trace(["e0", "e1", "e3", "e4"]);
        l2.push_trace(["e0", "e2", "e3", "e4"]);
        (l1, l2)
    }

    /// Tiny epsilon so the exact phase never stops before every pair has
    /// reached its horizon (required for warm bit-identity).
    fn exact_params() -> EmsParams {
        EmsParams {
            epsilon: 1e-300,
            ..EmsParams::structural()
        }
    }

    #[test]
    fn session_matches_one_shot_ems_bitwise() {
        let (l1, l2) = dag_logs();
        let one_shot = Ems::new(exact_params()).match_logs(&l1, &l2);
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        let out = session.match_pair(h1, h2).unwrap();
        assert_eq!(out.similarity.max_abs_diff(&one_shot.similarity), 0.0);
        assert_eq!(out.forward.max_abs_diff(&one_shot.forward), 0.0);
        assert_eq!(out.backward.max_abs_diff(&one_shot.backward), 0.0);
    }

    #[test]
    fn cached_rematch_skips_every_build_stage() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        let cold = session.match_pair(h1, h2).unwrap();
        let cached = session.match_pair(h1, h2).unwrap();
        assert_eq!(cold.similarity.max_abs_diff(&cached.similarity), 0.0);
        let stats = session.stats();
        assert_eq!(stats.graph_builds, 2);
        assert_eq!(stats.substrate_builds, 2);
        assert_eq!(stats.label_builds, 1);
        // The repeat was a plain replay: the outcome cache, checked before
        // any stage, served it without touching the build caches.
        assert_eq!(stats.graph_cache_hits, 0);
        assert_eq!(stats.substrate_cache_hits, 0);
        assert_eq!(stats.label_cache_hits, 0);
        assert_eq!(stats.outcome_cache_hits, 1);
    }

    #[test]
    fn outcome_cache_serves_plain_replays_only() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        let cold = session.match_pair(h1, h2).unwrap();

        // A plain replay is served bit-identically from the cache.
        let cached = session.match_pair(h1, h2).unwrap();
        assert_eq!(session.stats().outcome_cache_hits, 1);
        for (a, b) in cold.similarity.data().iter().zip(cached.similarity.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(cold.stats, cached.stats);

        // Observably different calls bypass the cache: a budget...
        let budgeted = SessionOptions {
            budget: Budget {
                max_iterations: Some(1),
                ..Budget::default()
            },
            ..SessionOptions::default()
        };
        session.match_pair_opts(h1, h2, &budgeted).unwrap();
        assert_eq!(session.stats().outcome_cache_hits, 1);
        // ...a warm start...
        let warm = SessionOptions {
            warm_start: true,
            ..SessionOptions::default()
        };
        session.match_pair_opts(h1, h2, &warm).unwrap();
        assert_eq!(session.stats().outcome_cache_hits, 1);
        assert_eq!(session.stats().warm_starts, 1);
        // ...and an engine recorder (which must observe a real solve).
        let recorder = Arc::new(Recorder::new());
        let recorded = SessionOptions {
            recorder: Some(Arc::clone(&recorder)),
            ..SessionOptions::default()
        };
        session.match_pair_opts(h1, h2, &recorded).unwrap();
        assert_eq!(session.stats().outcome_cache_hits, 1);
        assert!(!recorder.records().is_empty());

        // Appending traces changes the fingerprint: the next plain call
        // re-solves and re-memoizes under the new key.
        session
            .append_traces(h2, [["e0", "e1", "e3", "e4"]])
            .unwrap();
        session.match_pair(h1, h2).unwrap();
        assert_eq!(session.stats().outcome_cache_hits, 1);
        session.match_pair(h1, h2).unwrap();
        assert_eq!(session.stats().outcome_cache_hits, 2);
    }

    #[test]
    fn session_attributes_setup_once() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        let cold = session.match_pair(h1, h2).unwrap();
        // Runs executed against session-owned substrates charge no setup of
        // their own — merging them can never double-count the build.
        assert_eq!(cold.stats.phase_times.setup, Duration::ZERO);
        let setup_after_cold = session.stats().setup;
        let cached = session.match_pair(h1, h2).unwrap();
        assert_eq!(cached.stats.phase_times.setup, Duration::ZERO);
        // The cached re-match performed no setup work at all.
        assert_eq!(session.stats().setup, setup_after_cold);
    }

    #[test]
    fn warm_rematch_is_bitwise_stationary_and_converges_in_one_iteration() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        let cold = session.match_pair(h1, h2).unwrap();
        assert!(cold.stats.iterations > 1);
        let warm_opts = SessionOptions {
            warm_start: true,
            ..SessionOptions::default()
        };
        let warm = session.match_pair_opts(h1, h2, &warm_opts).unwrap();
        assert_eq!(warm.similarity.max_abs_diff(&cold.similarity), 0.0);
        assert_eq!(warm.forward.max_abs_diff(&cold.forward), 0.0);
        assert_eq!(warm.backward.max_abs_diff(&cold.backward), 0.0);
        // Re-evaluating the fixpoint changes nothing: delta is exactly zero
        // after the first sweep in each direction.
        assert_eq!(warm.stats.iterations, 1);
        assert_eq!(session.stats().warm_starts, 1);
    }

    #[test]
    fn warm_start_without_prior_or_with_stale_shape_is_skipped() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        let warm_opts = SessionOptions {
            warm_start: true,
            ..SessionOptions::default()
        };
        // No prior yet: runs cold, no warm-start counted.
        session.match_pair_opts(h1, h2, &warm_opts).unwrap();
        assert_eq!(session.stats().warm_starts, 0);
        // Append grows log 2's alphabet, so the prior's shape is stale and
        // must be skipped rather than rejected.
        session
            .append_traces(h2, [["e0", "e9", "e3", "e4"]])
            .unwrap();
        session.match_pair_opts(h1, h2, &warm_opts).unwrap();
        assert_eq!(session.stats().warm_starts, 0);
        // The alphabet-preserving append keeps the shape: now it warm-starts.
        session
            .append_traces(h2, [["e0", "e1", "e3", "e4"]])
            .unwrap();
        session.match_pair_opts(h1, h2, &warm_opts).unwrap();
        assert_eq!(session.stats().warm_starts, 1);
        // Each append rebuilt log 2's model (fingerprint miss); log 1 hit.
        assert_eq!(session.stats().graph_builds, 4);
    }

    #[test]
    fn append_traces_changes_the_result() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        let before = session.match_pair(h1, h2).unwrap();
        session
            .append_traces(h2, [["e0", "e1", "e3", "e4"], ["e0", "e1", "e3", "e4"]])
            .unwrap();
        let after = session.match_pair(h1, h2).unwrap();
        assert!(before.similarity.max_abs_diff(&after.similarity) > 0.0);
    }

    #[test]
    fn unknown_handles_are_rejected() {
        let (l1, _) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let bogus = LogHandle(7);
        assert!(matches!(
            session.match_pair(h1, bogus),
            Err(CoreError::UnknownLog { handle: 7, logs: 1 })
        ));
        assert!(session.log(bogus).is_err());
        assert!(session.append_traces(bogus, [["a"]]).is_err());
    }

    #[test]
    fn session_recorder_documents_cache_behavior() {
        let (l1, l2) = dag_logs();
        let recorder = Arc::new(Recorder::new());
        let mut session = MatchSession::new(exact_params()).with_recorder(Arc::clone(&recorder));
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        session.match_pair(h1, h2).unwrap();
        session.match_pair(h1, h2).unwrap();
        let trace = ems_obs::jsonl::write(&recorder.records());
        assert!(trace.contains("session.graph_cache"));
        assert!(trace.contains("\"result\":\"miss\""));
        assert!(trace.contains("\"result\":\"hit\""));
        assert!(trace.contains("session.model"));
        assert!(trace.contains("session.substrate"));
        assert!(trace.contains("graph_vertices"));
    }

    #[test]
    fn fresh_session_warms_every_build_stage_from_disk() {
        let root = tmp_store_root("diskwarm");
        let (l1, l2) = dag_logs();
        // Session A populates the store while matching cold.
        let store = Arc::new(CatalogStore::open(&root).unwrap());
        let mut a = MatchSession::new(exact_params()).with_store(Arc::clone(&store));
        let ha1 = a.ingest(l1.clone());
        let ha2 = a.ingest(l2.clone());
        let cold = a.match_pair(ha1, ha2).unwrap();
        assert_eq!(a.stats().store_misses, 5); // 2 graphs + 2 substrates + 1 labels
        assert_eq!(a.stats().store_write_failures, 0);
        drop(a);
        drop(store);
        // Session B shares nothing in memory — only the store directory —
        // yet builds nothing and reproduces the scores bit-identically.
        let store = Arc::new(CatalogStore::open(&root).unwrap());
        let mut b = MatchSession::new(exact_params()).with_store(store);
        let hb1 = b.ingest(l1);
        let hb2 = b.ingest(l2);
        let warm = b.match_pair(hb1, hb2).unwrap();
        assert_eq!(warm.similarity.max_abs_diff(&cold.similarity), 0.0);
        assert_eq!(warm.forward.max_abs_diff(&cold.forward), 0.0);
        assert_eq!(warm.backward.max_abs_diff(&cold.backward), 0.0);
        let stats = b.stats();
        assert_eq!(stats.store_hits, 5);
        assert_eq!(stats.graph_builds, 0);
        assert_eq!(stats.substrate_builds, 0);
        assert_eq!(stats.label_builds, 0);
        // Disk rehydration interns into the shared table like a build would.
        assert_eq!(b.symbols().len(), 9);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_snapshots_degrade_to_rebuild_with_identical_scores() {
        let root = tmp_store_root("corrupt");
        let (l1, l2) = dag_logs();
        let mut clean = MatchSession::new(exact_params());
        let hc1 = clean.ingest(l1.clone());
        let hc2 = clean.ingest(l2.clone());
        let baseline = clean.match_pair(hc1, hc2).unwrap();
        {
            let store = Arc::new(CatalogStore::open(&root).unwrap());
            let mut a = MatchSession::new(exact_params()).with_store(store);
            let h1 = a.ingest(l1.clone());
            let h2 = a.ingest(l2.clone());
            a.match_pair(h1, h2).unwrap();
        }
        // Flip one payload byte in every snapshot on disk.
        let objects = root.join("objects");
        let mut corrupted = 0;
        for entry in std::fs::read_dir(&objects).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "snap") {
                let mut bytes = std::fs::read(&path).unwrap();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                std::fs::write(&path, &bytes).unwrap();
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 5);
        // A fresh session quarantines every corrupt entry, rebuilds from
        // source, re-persists, and still reproduces the clean scores.
        let store = Arc::new(CatalogStore::open(&root).unwrap());
        let mut b = MatchSession::new(exact_params()).with_store(Arc::clone(&store));
        let h1 = b.ingest(l1.clone());
        let h2 = b.ingest(l2.clone());
        let recovered = b.match_pair(h1, h2).unwrap();
        assert_eq!(recovered.similarity.max_abs_diff(&baseline.similarity), 0.0);
        assert_eq!(b.stats().store_quarantines, 5);
        assert_eq!(b.stats().store_hits, 0);
        assert_eq!(b.stats().graph_builds, 2);
        // The rebuilds were re-persisted: a third session disk-warms fully.
        drop(b);
        let mut c = MatchSession::new(exact_params()).with_store(store);
        let h1 = c.ingest(l1);
        let h2 = c.ingest(l2);
        let rewarmed = c.match_pair(h1, h2).unwrap();
        assert_eq!(rewarmed.similarity.max_abs_diff(&baseline.similarity), 0.0);
        assert_eq!(c.stats().store_hits, 5);
        assert_eq!(c.stats().graph_builds, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_stage_faults_are_typed_or_degrade() {
        let (l1, l2) = dag_logs();
        // Terminal ingest fault: the match fails with the typed error.
        let plan = FaultPlan {
            seed: 0,
            faults: vec![PlannedFault {
                site: FaultSite::Ingest,
                op: 0,
                kind: FaultKind::NoSpace,
            }],
        };
        let opts = SessionOptions {
            injector: Some(Arc::new(FaultInjector::new(plan))),
            ..SessionOptions::default()
        };
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1.clone());
        let h2 = session.ingest(l2.clone());
        assert!(matches!(
            session.match_pair_opts(h1, h2, &opts),
            Err(CoreError::FaultInjected { .. })
        ));
        // The op counter advanced past the fault: the retry succeeds and
        // matches a fault-free run bit-identically.
        let retried = session.match_pair_opts(h1, h2, &opts).unwrap();
        let clean = session.match_pair(h1, h2).unwrap();
        assert_eq!(retried.similarity.max_abs_diff(&clean.similarity), 0.0);

        // Transient ingest fault: absorbed, the match proceeds.
        let plan = FaultPlan {
            seed: 0,
            faults: vec![PlannedFault {
                site: FaultSite::Ingest,
                op: 0,
                kind: FaultKind::TransientIo,
            }],
        };
        let opts = SessionOptions {
            injector: Some(Arc::new(FaultInjector::new(plan))),
            ..SessionOptions::default()
        };
        let absorbed = session.match_pair_opts(h1, h2, &opts).unwrap();
        assert_eq!(absorbed.similarity.max_abs_diff(&clean.similarity), 0.0);

        // Solve-stage budget exhaustion: degrades to estimation (a defined
        // outcome with `degraded` flagged), never an error.
        let plan = FaultPlan {
            seed: 0,
            faults: vec![PlannedFault {
                site: FaultSite::Solve,
                op: 0,
                kind: FaultKind::BudgetExhaust,
            }],
        };
        let opts = SessionOptions {
            injector: Some(Arc::new(FaultInjector::new(plan))),
            ..SessionOptions::default()
        };
        let degraded = session.match_pair_opts(h1, h2, &opts).unwrap();
        assert!(degraded.stats.degraded);
    }

    #[test]
    fn shared_symbol_table_spans_all_session_graphs() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1);
        let h2 = session.ingest(l2);
        session.match_pair(h1, h2).unwrap();
        // Both alphabets landed in one table: 4 + 5 distinct names.
        assert_eq!(session.symbols().len(), 9);
        let threads_opts = SessionOptions {
            threads: Some(4),
            oversubscribe: true,
            ..SessionOptions::default()
        };
        // Thread count does not disturb determinism through the session.
        let a = session.match_pair(h1, h2).unwrap();
        let b = session.match_pair_opts(h1, h2, &threads_opts).unwrap();
        assert_eq!(a.similarity.max_abs_diff(&b.similarity), 0.0);
    }

    #[test]
    fn shared_matches_match_session_bitwise() {
        let (l1, l2) = dag_logs();
        let mut session = MatchSession::new(exact_params());
        let h1 = session.ingest(l1.clone());
        let h2 = session.ingest(l2.clone());
        let expected = session.match_pair(h1, h2).unwrap();

        let shared = SharedSession::try_new(exact_params()).unwrap();
        let got = shared.try_match(&l1, &l2).unwrap();
        assert_eq!(got.similarity.max_abs_diff(&expected.similarity), 0.0);
        assert_eq!(got.forward.max_abs_diff(&expected.forward), 0.0);
        assert_eq!(got.backward.max_abs_diff(&expected.backward), 0.0);
    }

    #[test]
    fn repeat_matches_hit_every_cache() {
        let (l1, l2) = dag_logs();
        let shared = SharedSession::try_new(exact_params()).unwrap();
        shared.try_match(&l1, &l2).unwrap();
        shared.try_match(&l1, &l2).unwrap();
        let stats = shared.stats();
        assert_eq!(stats.graph_builds, 2);
        assert_eq!(stats.substrate_builds, 2);
        assert_eq!(stats.label_builds, 1);
        assert_eq!(stats.outcome_cache_hits, 1);
    }

    #[test]
    fn shared_store_tier_warms_and_degrades_like_match_session() {
        let root = std::env::temp_dir().join(format!("ems-shared-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (l1, l2) = dag_logs();
        let cold = {
            let store = Arc::new(CatalogStore::open(&root).unwrap());
            let shared = SharedSession::try_new(exact_params())
                .unwrap()
                .with_store(store);
            let out = shared.try_match(&l1, &l2).unwrap();
            assert_eq!(shared.stats().store_misses, 5);
            out
        };
        // A fresh shared session disk-warms every build stage.
        let store = Arc::new(CatalogStore::open(&root).unwrap());
        let shared = SharedSession::try_new(exact_params())
            .unwrap()
            .with_store(store);
        let warm = shared.try_match(&l1, &l2).unwrap();
        assert_eq!(warm.similarity.max_abs_diff(&cold.similarity), 0.0);
        let stats = shared.stats();
        assert_eq!(stats.store_hits, 5);
        assert_eq!(stats.graph_builds, 0);
        assert_eq!(stats.substrate_builds, 0);
        assert_eq!(stats.label_builds, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
