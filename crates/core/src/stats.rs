//! Run accounting: seeds, budgets, options, phase timings and work counters.
//!
//! These types used to live inside the engine module; they are the *solve*
//! stage's control and reporting surface, shared by the engine kernels, the
//! session pipeline ([`crate::session`]) and the composite matcher. They are
//! re-exported from [`crate::engine`] for backwards compatibility.

use crate::sim::SimMatrix;
use ems_obs::Recorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Initial state carried into a run — used by the composite matcher to reuse
/// similarities that Proposition 4 proves unchanged, and by
/// [`crate::session::MatchSession`] (through the session's solve stage) to
/// warm-start re-matches from a prior fixpoint (sound per Theorem 1's
/// monotone unique fixpoint).
#[derive(Debug, Clone)]
pub struct Seed {
    /// Initial values: frozen pairs hold their known-correct similarities,
    /// all other pairs must start at or below their fixpoint values (the
    /// `S^0` of Section 3.2 — monotone convergence relies on starting from
    /// below; `0` and any previously converged matrix of the same pair
    /// space both qualify).
    pub values: SimMatrix,
    /// Per-pair freeze mask (row-major, `n1 * n2`): `true` pairs are never
    /// updated but still feed their values into neighbors' computations.
    pub frozen: Vec<bool>,
}

/// A resource budget for one similarity run.
///
/// Each limit is independent and optional; the default budget is unlimited.
/// Budgets are checked *between* iterations: the iteration count is never
/// exceeded, while formula evaluations and wall-clock time may overshoot by
/// at most one iteration's worth of work. When any limit trips, the exact
/// phase stops and the remaining non-converged pairs are finished with the
/// closed-form estimation of Section 3.5, so an exhausted run still returns
/// a usable similarity matrix — flagged via [`RunStats::degraded`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum exact iterations.
    pub max_iterations: Option<usize>,
    /// Maximum evaluations of formula (1) ([`RunStats::formula_evals`]).
    pub max_formula_evals: Option<u64>,
    /// Maximum elapsed wall-clock time.
    pub wall_clock: Option<Duration>,
}

impl Budget {
    /// An unlimited budget (all limits off).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_iterations.is_none()
            && self.max_formula_evals.is_none()
            && self.wall_clock.is_none()
    }

    /// True when the observed work exceeds any limit.
    pub(crate) fn exhausted(
        &self,
        iterations: usize,
        formula_evals: u64,
        started: Instant,
    ) -> bool {
        self.max_iterations.is_some_and(|m| iterations >= m)
            || self.max_formula_evals.is_some_and(|m| formula_evals >= m)
            || self.wall_clock.is_some_and(|m| started.elapsed() >= m)
    }
}

/// Options for one similarity run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Reused values + freeze mask (Proposition 4).
    pub seed: Option<Seed>,
    /// Abort threshold for upper-bound pruning (Section 4.3): after each
    /// iteration the run computes the average of the per-pair *upper bounds*;
    /// if that optimistic average is already below this threshold, the run
    /// can never beat it and stops early with [`RunStats::aborted`] set.
    pub abort_below: Option<f64>,
    /// Resource budget; exhaustion degrades gracefully to estimation.
    pub budget: Budget,
    /// Per-run thread-count override; `None` defers to
    /// [`crate::EmsParams::threads`]. `Some(1)` forces the serial path,
    /// `Some(0)` uses all available parallelism. An explicit request
    /// larger than the host's available parallelism is clamped down and
    /// reported via [`RunStats::thread_clamp`] unless
    /// [`oversubscribe`](Self::oversubscribe) is set.
    pub threads: Option<usize>,
    /// Escape hatch for the thread clamp: when `true`, an explicit thread
    /// request larger than the host's available parallelism spawns that
    /// many workers anyway. Meant for bit-equivalence tests and benchmarks
    /// that deliberately exercise the sharded path on small hosts; results
    /// are bit-identical either way, only scheduling pressure differs.
    pub oversubscribe: bool,
    /// Optional telemetry sink. When set, the run emits per-iteration
    /// convergence records, budget/abort events, phase spans and work
    /// counters. The recorded content (except span durations) is
    /// bit-identical across the reference kernel, the serial worklist
    /// kernel and the parallel kernel at any thread count: the mean delta
    /// is Neumaier-summed over the evaluated pair set in ascending pair
    /// order, which both kernels share.
    pub recorder: Option<Arc<Recorder>>,
}

/// Record of a thread request clamped to the host's parallelism — see
/// [`RunOptions::threads`]. Carried in [`RunStats::thread_clamp`] so
/// callers (and telemetry) can see that the pool ran narrower than asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadClamp {
    /// The explicit thread count the caller asked for.
    pub requested: usize,
    /// The host parallelism the pool actually used.
    pub clamped_to: usize,
}

/// Wall-clock time spent in each phase of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Building the kernel substrate (longest distances, CSR export,
    /// compatibility tables). Attributed exactly once to whoever performed
    /// the build: a standalone [`crate::engine::Engine`] charges it to its
    /// own runs, while a session ([`crate::session::SharedSession`], or a
    /// [`crate::session::MatchSession`] over one) owns the build and reports
    /// it at session level
    /// ([`crate::session::SessionStats::setup`]) — runs executed against a
    /// cached substrate report `setup == 0` here, so merging their stats
    /// never double-counts shared setup work.
    pub setup: Duration,
    /// The exact fixpoint iteration.
    pub exact: Duration,
    /// The closed-form estimation tail (zero when no estimation ran).
    pub estimation: Duration,
}

impl PhaseTimes {
    /// Merge is **by sum**, phase by phase — the right semantics for
    /// aggregating *distinct* work (forward + backward engines, or
    /// composite candidate runs). Two caveats remain for standalone
    /// engines:
    ///
    /// * a standalone [`crate::engine::Engine`] pays `setup` once but
    ///   *reports* it with every run, so merging N runs of one engine
    ///   still counts that setup N times (the session path fixes this by
    ///   attributing setup once at session level — see [`PhaseTimes::setup`]);
    /// * runs that executed concurrently sum to more than the wall-clock
    ///   interval they occupied; the merged total is CPU-time-like.
    ///
    /// See `merge_sums_phase_times_documenting_double_count` and
    /// `session_attributes_setup_once` in the tests for the pinned
    /// behavior of both paths.
    pub(crate) fn merge(&mut self, other: &PhaseTimes) {
        self.setup += other.setup;
        self.exact += other.exact;
        self.estimation += other.estimation;
    }
}

/// Counters describing how much work a run performed — these are the
/// quantities Figures 6 and 12 of the paper report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Iterations executed (exact phase).
    pub iterations: usize,
    /// Number of evaluations of formula (1) — one per non-skipped pair per
    /// iteration. This is the paper's "total number of iterations w.r.t. all
    /// event pairs".
    pub formula_evals: u64,
    /// Evaluations skipped by early-convergence pruning.
    pub pruned_evals: u64,
    /// Evaluations skipped because the pair was frozen by a [`Seed`].
    pub frozen_evals: u64,
    /// Pairs whose final value came from the closed-form estimation.
    pub estimated_pairs: u64,
    /// Largest shard count any iteration's evaluation used — `1` for a
    /// fully serial run, up to the resolved thread count when the
    /// worklist stayed above the pairs-per-shard floor. Pool-utilization
    /// telemetry only; never affects results.
    pub pool_shards: u64,
    /// Whether the run stopped early due to `abort_below`.
    pub aborted: bool,
    /// Whether a [`Budget`] limit tripped and the run fell back to the
    /// closed-form estimation for pairs that had not yet converged.
    pub degraded: bool,
    /// Set when an explicit [`RunOptions::threads`] request exceeded the
    /// host's available parallelism and was clamped; `None` when the
    /// request was honored as given.
    pub thread_clamp: Option<ThreadClamp>,
    /// Wall-clock time per phase (setup / exact / estimation).
    pub phase_times: PhaseTimes,
}

impl RunStats {
    /// Merges counters from another run (e.g. forward + backward):
    /// `iterations` takes the max, the work counters and flags accumulate,
    /// and `phase_times` merges **by sum** — see [`PhaseTimes`] for when
    /// summed setups represent distinct work versus double-counted shared
    /// work.
    pub fn merge(&mut self, other: &RunStats) {
        self.iterations = self.iterations.max(other.iterations);
        self.formula_evals += other.formula_evals;
        self.pruned_evals += other.pruned_evals;
        self.frozen_evals += other.frozen_evals;
        self.estimated_pairs += other.estimated_pairs;
        self.pool_shards = self.pool_shards.max(other.pool_shards);
        self.aborted |= other.aborted;
        self.degraded |= other.degraded;
        self.thread_clamp = self.thread_clamp.or(other.thread_clamp);
        self.phase_times.merge(&other.phase_times);
    }
}

/// Result of one similarity run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The computed similarity matrix over real events.
    pub sim: SimMatrix,
    /// Work counters.
    pub stats: RunStats,
}
