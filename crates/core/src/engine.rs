//! The iterative fixpoint computation of the forward/backward similarity
//! (Definition 2, formula (1)) with early-convergence pruning
//! (Proposition 2), per-pair freezing (Proposition 4), closed-form
//! estimation (Section 3.5) and upper-bound abort (Section 4.3).
//!
//! Two implementations of the fixpoint live here:
//!
//! * [`Engine::try_run`] — the production kernel: a precomputed
//!   [`PairContext`] substrate (CSR neighbors + tabulated compatibility
//!   factors), an active-pair worklist that retires converged/frozen pairs
//!   once instead of re-testing them every round, and row-sharded parallel
//!   iteration gated by the `threads` knob ([`EmsParams::threads`] /
//!   [`RunOptions::threads`]). Results are bit-identical for every thread
//!   count: the update is a Jacobi step reading only the previous matrix,
//!   the delta reduction is an exact `f64::max`, and the work counters are
//!   integers (see `kernel` module docs for the full argument).
//! * [`Engine::try_run_reference`] — the original single-threaded seed
//!   kernel, kept verbatim as the differential-testing oracle and the
//!   benchmark baseline.

use crate::bounds::pair_upper_bound;
use crate::error::CoreError;
use crate::estimate::extrapolate;
use crate::kernel::{
    eval_chunk, resolve_threads, transpose_into, ActivePair, DenseScratch, PairContext, PairEval,
    H_INFINITE,
};
use crate::numeric::NeumaierSum;
use crate::params::{Direction, EmsParams};
use crate::sim::SimMatrix;
use crate::substrate::EngineSubstrate;
use ems_depgraph::{DependencyGraph, Distance, NodeId};
use ems_labels::LabelMatrix;
use ems_obs::{Histogram, IterationRecord, Recorder};
use ems_prof::{AllocTally, ProfScope, Profiler};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

pub use crate::stats::{Budget, PhaseTimes, RunOptions, RunOutput, RunStats, Seed, ThreadClamp};

/// Size-aware shard granularity: a parallel shard never covers fewer than
/// this many active pairs. Below the floor an iteration uses fewer shards
/// (down to one, i.e. fully serial) — synchronization overhead would
/// otherwise dominate the update.
const PAIRS_PER_SHARD_FLOOR: usize = 4096;

/// Shared per-iteration state of the persistent worker pool — everything a
/// shard evaluation reads, behind one `RwLock`. The main thread holds the
/// write lock through an iteration's serial sections (retirement,
/// substrate refresh, scatter, swap) and releases it only for the
/// evaluation window, during which every pool member — main included —
/// takes a read lock and evaluates its own shard.
struct PoolState {
    /// The iterate being read as `prev` during an evaluation window (the
    /// swap with `next` happens under the write lock).
    current: SimMatrix,
    /// Active-pair worklist, ascending in `k` and shrink-only.
    work: Vec<ActivePair>,
    /// Dense-substrate buffers (the evaluation input when `use_dense`).
    scratch: DenseScratch,
    /// Transposed `prev` for the per-pair path (when `!use_dense`).
    prev_t: Vec<f64>,
    /// Which evaluation substrate this iteration's shards read.
    use_dense: bool,
    /// Shard layout of the current evaluation window.
    chunk_size: usize,
    shards: usize,
}

/// Deterministic per-run histogram accumulator, shared by both kernels so
/// the emitted record sequence is identical across them.
///
/// The two deterministic histograms are derived from the same quantities
/// the per-iteration [`IterationRecord`]s carry (max delta, worklist
/// size) — bit-identical across the reference kernel, the serial worklist
/// kernel, and every pooled thread count. `shard_pairs` tallies the
/// evaluation shards *as actually executed* and therefore depends on the
/// thread count; it is classified non-deterministic, so redacted exports
/// zero its contents while keeping the record in place.
struct RunProfile {
    iteration_delta: Histogram,
    active_pairs: Histogram,
    shard_pairs: Histogram,
}

impl RunProfile {
    fn new(attrs: Vec<(String, String)>) -> Self {
        RunProfile {
            iteration_delta: Histogram::new("engine.iteration_delta", attrs.clone(), "q32"),
            active_pairs: Histogram::new("engine.active_pairs", attrs.clone(), "pairs"),
            shard_pairs: Histogram::nondeterministic("engine.shard_pairs", attrs, "pairs"),
        }
    }

    /// One fixpoint iteration: its max delta (quantized via q32) and the
    /// number of active pairs it evaluated.
    fn observe_iteration(&mut self, max_delta: f64, active_pairs: usize) {
        self.iteration_delta.observe_f64(max_delta);
        self.active_pairs.observe(active_pairs as u64);
    }

    /// One evaluation shard as scheduled: the pairs it covered.
    fn observe_shard(&mut self, pairs: u64) {
        self.shard_pairs.observe(pairs);
    }

    fn emit(self, rec: &Recorder) {
        self.iteration_delta.record_into(rec);
        self.active_pairs.record_into(rec);
        self.shard_pairs.record_into(rec);
    }
}

/// Closes a run's `engine.run` profiling scope, charging the deterministic
/// work counters and the logical allocation tally.
///
/// The tally charges the *logical* Jacobi state — the two dense `n1 x n2`
/// iterates every kernel maintains — rather than as-executed allocator
/// traffic, which differs between the reference and worklist kernels (and
/// with thread count) and would break the byte-identical redacted export
/// contract (see the `ems-prof` module docs).
fn finish_run_scope(scope: Option<ProfScope<'_>>, stats: &RunStats, n1: usize, n2: usize) {
    let Some(mut scope) = scope else { return };
    scope.count("iterations", stats.iterations as u64);
    scope.count("formula_evals", stats.formula_evals);
    let mut tally = AllocTally::default();
    tally.charge_elems::<f64>(n1 * n2);
    tally.charge_elems::<f64>(n1 * n2);
    scope.alloc(tally);
    scope.finish();
}

/// One pool member's private output slot: the shard's new values, its max
/// delta, and a captured panic payload re-raised on the main thread.
#[derive(Default)]
struct PoolSlot {
    buf: Vec<f64>,
    delta: f64,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Evaluates pool member `w`'s shard of the current window into `buf`,
/// returning the shard's max delta. Members beyond the window's shard
/// count have nothing to do this round.
fn eval_shard(
    ctx: &PairContext,
    labels: &LabelMatrix,
    alpha: f64,
    st: &PoolState,
    w: usize,
    buf: &mut Vec<f64>,
) -> f64 {
    let start = w * st.chunk_size;
    if w >= st.shards || start >= st.work.len() {
        buf.clear();
        return 0.0;
    }
    let end = (start + st.chunk_size).min(st.work.len());
    let eval = if st.use_dense {
        st.scratch.as_eval()
    } else {
        PairEval::Sparse { prev_t: &st.prev_t }
    };
    eval_chunk(
        ctx,
        st.current.data(),
        &eval,
        labels,
        alpha,
        &st.work[start..end],
        buf,
    )
}

/// One pool member's work inside an evaluation window: read-lock the
/// state, evaluate the member's shard into its slot. Panics are captured
/// into the slot instead of unwinding — a pool member that blew through a
/// barrier would deadlock the others, so the main thread re-raises the
/// payload after the window closes.
fn run_shard(
    state: &RwLock<PoolState>,
    slot: &Mutex<PoolSlot>,
    ctx: &PairContext,
    labels: &LabelMatrix,
    alpha: f64,
    w: usize,
) {
    let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
    let PoolSlot { buf, delta, panic } = &mut *guard;
    match catch_unwind(AssertUnwindSafe(|| {
        // ems-lint: allow(lock-discipline, slot->state nesting is safe: phases are barrier-separated, so the coordinator's state->slot nesting in try_run never runs concurrently with a shard)
        let st = state.read().unwrap_or_else(|e| e.into_inner());
        eval_shard(ctx, labels, alpha, &st, w, buf)
    })) {
        Ok(d) => {
            *delta = d;
            *panic = None;
        }
        Err(p) => {
            *delta = 0.0;
            *panic = Some(p);
        }
    }
}

/// One-direction similarity engine over a fixed pair of dependency graphs.
///
/// The engine owns nothing graph-shaped: it borrows the graphs and the label
/// matrix, and either builds its [`EngineSubstrate`] (the `l(v)` distances
/// and `PairContext` kernel tables) itself via [`try_new`](Self::try_new) or
/// receives a cached one via
/// [`try_with_substrate`](Self::try_with_substrate). It can then run any
/// number of times (the composite matcher runs it once per candidate).
#[derive(Debug)]
pub struct Engine<'a> {
    g1: &'a DependencyGraph,
    g2: &'a DependencyGraph,
    labels: &'a LabelMatrix,
    params: &'a EmsParams,
    direction: Direction,
    substrate: Arc<EngineSubstrate>,
    /// Dense-substrate buffers, retained across runs so repeated runs
    /// (sweeps, benchmarks) skip the 2×`L·n` allocation and page-fault
    /// cost. `try_lock` with a local fallback — concurrent runs on one
    /// engine stay correct, the loser just allocates fresh.
    scratch: Mutex<DenseScratch>,
    /// Setup time charged to this engine's runs: the substrate build time
    /// when this engine performed the build, zero when it received a cached
    /// substrate (the cache owner attributes the build once — see
    /// [`PhaseTimes::setup`]).
    charged_setup: Duration,
}

impl<'a> Engine<'a> {
    /// Creates an engine for `direction` over `g1 × g2`.
    ///
    /// # Panics
    /// If the label matrix shape does not match the graphs' real node counts
    /// or the parameters fail validation. Use
    /// [`try_new`](Self::try_new) for a fallible variant.
    #[allow(clippy::panic)] // documented contract panic; try_new is the fallible path
    pub fn new(
        g1: &'a DependencyGraph,
        g2: &'a DependencyGraph,
        labels: &'a LabelMatrix,
        params: &'a EmsParams,
        direction: Direction,
    ) -> Self {
        match Self::try_new(g1, g2, labels, params, direction) {
            Ok(engine) => engine,
            // ems-lint: allow(panic-surface, documented contract panic mirroring try_new, which is the fallible path)
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`new`](Self::new): returns
    /// [`CoreError::InvalidParams`] or [`CoreError::LabelShapeMismatch`]
    /// instead of panicking. Builds the [`EngineSubstrate`] itself and
    /// charges its build time to this engine's runs.
    pub fn try_new(
        g1: &'a DependencyGraph,
        g2: &'a DependencyGraph,
        labels: &'a LabelMatrix,
        params: &'a EmsParams,
        direction: Direction,
    ) -> Result<Self, CoreError> {
        Self::validate_inputs(g1, g2, labels, params)?;
        let substrate = Arc::new(EngineSubstrate::build(g1, g2, direction, params.c));
        let charged_setup = substrate.build_time();
        Ok(Engine {
            g1,
            g2,
            labels,
            params,
            direction,
            substrate,
            scratch: Mutex::new(DenseScratch::default()),
            charged_setup,
        })
    }

    /// Creates an engine over a cached [`EngineSubstrate`] — the session
    /// fast path. The substrate must structurally fit the run: its shape
    /// must equal the graphs' real node counts, and its direction and
    /// damping constant must match the request bit-for-bit; otherwise
    /// [`CoreError::SubstrateMismatch`] is returned. No setup time is
    /// charged to this engine's runs — the substrate owner attributes the
    /// build once (see [`PhaseTimes::setup`]).
    pub fn try_with_substrate(
        g1: &'a DependencyGraph,
        g2: &'a DependencyGraph,
        labels: &'a LabelMatrix,
        params: &'a EmsParams,
        direction: Direction,
        substrate: Arc<EngineSubstrate>,
    ) -> Result<Self, CoreError> {
        Self::validate_inputs(g1, g2, labels, params)?;
        if substrate.rows() != g1.num_real() || substrate.cols() != g2.num_real() {
            return Err(CoreError::SubstrateMismatch {
                message: format!(
                    "substrate is {}x{} but the graphs have {}x{} real nodes",
                    substrate.rows(),
                    substrate.cols(),
                    g1.num_real(),
                    g2.num_real()
                ),
            });
        }
        if substrate.direction() != direction {
            return Err(CoreError::SubstrateMismatch {
                message: format!(
                    "substrate was built for direction {:?}, run requests {:?}",
                    substrate.direction(),
                    direction
                ),
            });
        }
        if substrate.c().to_bits() != params.c.to_bits() {
            return Err(CoreError::SubstrateMismatch {
                message: format!(
                    "substrate was built with c = {}, run requests c = {}",
                    substrate.c(),
                    params.c
                ),
            });
        }
        Ok(Engine {
            g1,
            g2,
            labels,
            params,
            direction,
            substrate,
            scratch: Mutex::new(DenseScratch::default()),
            charged_setup: Duration::ZERO,
        })
    }

    fn validate_inputs(
        g1: &DependencyGraph,
        g2: &DependencyGraph,
        labels: &LabelMatrix,
        params: &EmsParams,
    ) -> Result<(), CoreError> {
        params.validate().map_err(CoreError::InvalidParams)?;
        if labels.rows() != g1.num_real() || labels.cols() != g2.num_real() {
            return Err(CoreError::LabelShapeMismatch {
                rows: labels.rows(),
                cols: labels.cols(),
                n1: g1.num_real(),
                n2: g2.num_real(),
            });
        }
        Ok(())
    }

    /// The substrate this engine runs on — shareable with further engines
    /// over the same `(g1, g2, direction)`.
    pub fn substrate(&self) -> &Arc<EngineSubstrate> {
        &self.substrate
    }

    /// The per-pair convergence bound `h = min(l(v1), l(v2))`
    /// (Proposition 2).
    pub fn pair_bound(&self, v1: usize, v2: usize) -> Distance {
        self.substrate.pair_bound(v1, v2)
    }

    /// Telemetry label for this engine's direction.
    fn engine_label(&self) -> &'static str {
        match self.direction {
            Direction::Forward => "forward",
            Direction::Backward => "backward",
        }
    }

    fn engine_attrs(&self) -> Vec<(String, String)> {
        vec![("engine".to_string(), self.engine_label().to_string())]
    }

    /// Emits the end-of-run phase spans (from the already-measured
    /// `PhaseTimes` — no clock reads here), work counters, and — when a
    /// [`RunProfile`] was accumulated — the hot-path histograms, in a fixed
    /// order. The counter values equal the `RunStats` fields, so the
    /// recorded content is identical across kernels and thread counts.
    fn record_run_summary(&self, rec: &Recorder, stats: &RunStats, profile: Option<RunProfile>) {
        let attrs = self.engine_attrs();
        rec.span_closed("phase.setup", attrs.clone(), stats.phase_times.setup);
        rec.span_closed("phase.exact", attrs.clone(), stats.phase_times.exact);
        rec.span_closed(
            "phase.estimation",
            attrs.clone(),
            stats.phase_times.estimation,
        );
        rec.counter_add("run.iterations", attrs.clone(), stats.iterations as u64);
        rec.counter_add("run.formula_evals", attrs.clone(), stats.formula_evals);
        rec.counter_add("run.pruned_evals", attrs.clone(), stats.pruned_evals);
        rec.counter_add("run.frozen_evals", attrs.clone(), stats.frozen_evals);
        rec.counter_add("run.estimated_pairs", attrs, stats.estimated_pairs);
        if let Some(profile) = profile {
            profile.emit(rec);
        }
    }

    fn neighbors(&self, side1: bool, v: NodeId) -> &[(NodeId, f64)] {
        let g = if side1 { self.g1 } else { self.g2 };
        match self.direction {
            Direction::Forward => g.pre(v),
            Direction::Backward => g.post(v),
        }
    }

    /// Evaluates the one-side similarity `s(v1, v2)` of Definition 2 against
    /// the previous iteration's matrix — the seed implementation, used only
    /// by the reference kernel.
    fn one_side(&self, prev: &SimMatrix, v1: usize, v2: usize, swap: bool) -> f64 {
        // `swap` computes s(v2, v1): outer loop over v2's neighbors.
        let x1 = self.g1.artificial();
        let x2 = self.g2.artificial();
        let (outer, inner) = if swap {
            (
                self.neighbors(false, NodeId::from_index(v2)),
                self.neighbors(true, NodeId::from_index(v1)),
            )
        } else {
            (
                self.neighbors(true, NodeId::from_index(v1)),
                self.neighbors(false, NodeId::from_index(v2)),
            )
        };
        if outer.is_empty() {
            return 0.0;
        }
        let c = self.params.c;
        let mut sum = 0.0;
        for &(op, f_o) in outer {
            let o_art = if swap { op == x2 } else { op == x1 };
            let mut best = 0.0_f64;
            for &(ip, f_i) in inner {
                let i_art = if swap { ip == x1 } else { ip == x2 };
                let s_prev = match (o_art, i_art) {
                    (true, true) => 1.0,
                    (true, false) | (false, true) => 0.0,
                    (false, false) => {
                        if swap {
                            prev.get(ip.index(), op.index())
                        } else {
                            prev.get(op.index(), ip.index())
                        }
                    }
                };
                if s_prev <= best {
                    // C ≤ c < 1, so C * s_prev < s_prev ≤ best: cannot win.
                    continue;
                }
                let compat = c * (1.0 - (f_o - f_i).abs() / (f_o + f_i));
                let cand = compat * s_prev;
                if cand > best {
                    best = cand;
                }
            }
            // ems-lint: allow(float-taint, seed-kernel arithmetic reproduced bitwise; O(deg) bounded terms in [0,1], drift immaterial)
            sum += best;
        }
        sum / outer.len() as f64
    }

    /// Validates an optional seed and materializes the initial state.
    fn initial_state(
        &self,
        options: &RunOptions,
        n1: usize,
        n2: usize,
    ) -> Result<(SimMatrix, Vec<bool>), CoreError> {
        match &options.seed {
            Some(seed) => {
                if seed.values.rows() != n1
                    || seed.values.cols() != n2
                    || seed.frozen.len() != n1 * n2
                {
                    return Err(CoreError::SeedShapeMismatch {
                        rows: seed.values.rows(),
                        cols: seed.values.cols(),
                        mask: seed.frozen.len(),
                        n1,
                        n2,
                    });
                }
                Ok((seed.values.clone(), seed.frozen.clone()))
            }
            None => Ok((SimMatrix::zeros(n1, n2), vec![false; n1 * n2])),
        }
    }

    /// The number of exact rounds the run may execute (global Section-3.4
    /// bound, capped by `max_iterations` and `estimate_after`).
    fn exact_rounds(&self) -> usize {
        let p = self.params;
        let s = &self.substrate;
        let max_l1 = s.l1.iter().copied().max().unwrap_or(Distance::Finite(0));
        let max_l2 = s.l2.iter().copied().max().unwrap_or(Distance::Finite(0));
        let global_bound = match (p.pruning, Distance::min(max_l1, max_l2)) {
            (true, Distance::Finite(h)) => (h as usize).min(p.max_iterations),
            _ => p.max_iterations,
        };
        match p.estimate_after {
            Some(i) => i.min(global_bound),
            None => global_bound,
        }
    }

    /// Runs the iteration to convergence (or through Algorithm 1's
    /// estimation when `params.estimate_after` is set).
    ///
    /// # Panics
    /// If the seed's shape does not match the run's pair space. Use
    /// [`try_run`](Self::try_run) for a fallible variant.
    #[allow(clippy::panic)] // documented contract panic; try_run is the fallible path
    pub fn run(&self, options: &RunOptions) -> RunOutput {
        match self.try_run(options) {
            Ok(out) => out,
            // ems-lint: allow(panic-surface, documented contract panic; try_run is the fallible path)
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`run`](Self::run): returns
    /// [`CoreError::SeedShapeMismatch`] instead of panicking.
    ///
    /// This is the production kernel: precomputed [`PairContext`], active-
    /// pair worklist, and (for `threads > 1`) row-sharded parallel updates
    /// with results bit-identical to the serial path.
    pub fn try_run(&self, options: &RunOptions) -> Result<RunOutput, CoreError> {
        let n1 = self.g1.num_real();
        let n2 = self.g2.num_real();
        let p = self.params;
        let mut stats = RunStats {
            phase_times: PhaseTimes {
                setup: self.charged_setup,
                ..PhaseTimes::default()
            },
            ..RunStats::default()
        };
        // ems-lint: allow(wall-clock-randomness, phase timing feeds RunStats telemetry only, never similarity values)
        let started = Instant::now();

        let (current, frozen) = self.initial_state(options, n1, n2)?;
        if n1 == 0 || n2 == 0 {
            return Ok(RunOutput {
                sim: current,
                stats,
            });
        }
        let exact_rounds = self.exact_rounds();
        let mut next = current.clone();
        let alpha = p.alpha;
        let (threads, clamp) =
            resolve_threads(options.threads.unwrap_or(p.threads), options.oversubscribe);
        if let Some(c) = clamp {
            stats.thread_clamp = Some(c);
            if let Some(rec) = options.recorder.as_deref() {
                let mut attrs = self.engine_attrs();
                attrs.push(("requested".to_string(), c.requested.to_string()));
                attrs.push(("clamped_to".to_string(), c.clamped_to.to_string()));
                rec.event("threads.clamped", attrs);
            }
        }
        let track_bounds = options.abort_below.is_some();

        // Scoped profiling (observability-only, active when a recorder is
        // attached): one `engine.run` scope covering the whole run plus a
        // RunProfile of hot-path histograms emitted with the run summary.
        // Both kernels open the same scope and emit the same histograms,
        // so the redacted record stream stays byte-identical across them.
        let profiler = options
            .recorder
            .as_ref()
            .map(|r| Profiler::new(Arc::clone(r)));
        let mut run_scope = profiler.as_ref().map(|pf| pf.scope("engine.run"));
        let mut profile = options
            .recorder
            .is_some()
            .then(|| RunProfile::new(self.engine_attrs()));

        // Worklist construction: one pass over the grid classifies every
        // pair as frozen (never updated), retired (already past its
        // Proposition-2 horizon) or active. From here on, only active
        // pairs are touched per iteration — the seed kernel's per-round
        // full-grid re-tests and skip-copy pass are gone.
        let mut work: Vec<ActivePair> = Vec::new();
        let mut frozen_bounds: Vec<(u32, u32)> = Vec::new();
        let mut frozen_count = 0u64;
        let mut retired_count = 0u64;
        // Compensated running sum of retired pairs' upper bounds; a
        // retired pair's bound equals its (final) value, so the term is
        // added exactly once at retirement.
        let mut retired_sum = NeumaierSum::new();
        // Smallest horizon still in the worklist — while `i` has not
        // reached it, no pair can retire and the per-iteration retirement
        // scan is skipped entirely.
        let mut min_h = H_INFINITE;
        for v1 in 0..n1 {
            for v2 in 0..n2 {
                let k = v1 * n2 + v2;
                let h = match self.pair_bound(v1, v2) {
                    // `u32::MAX` is the infinite-horizon sentinel; a finite
                    // longest distance can never reach it on a real graph.
                    Distance::Finite(h) => h.min(H_INFINITE - 1),
                    Distance::Infinite => H_INFINITE,
                };
                if frozen[k] {
                    frozen_count += 1;
                    if track_bounds {
                        frozen_bounds.push((k as u32, h));
                    }
                } else if p.pruning && h == 0 {
                    retired_count += 1;
                    if track_bounds {
                        retired_sum.add(current.get(v1, v2));
                    }
                } else {
                    min_h = min_h.min(h);
                    work.push(ActivePair { k: k as u32, h });
                }
            }
        }

        // ems-lint: allow(wall-clock-randomness, phase timing feeds RunStats telemetry only, never similarity values)
        let exact_started = Instant::now();
        let mut exhausted = false;
        // Per-iteration evaluation substrates (see the `kernel` module
        // docs): dense inner-maxima tables while the worklist covers most
        // of the grid, a transposed `prev` copy for the per-pair path
        // once retirement has thinned it. Buffers are allocated
        // lazily and reused across iterations.
        // The dense fill's branchless bit-pattern max requires every
        // operand non-negative and finite (and not `-0.0`); iterated
        // values are clamped to [0, 1], so only a user seed can violate
        // that — check it once.
        let dense_available = self.substrate.ctx.dense_available()
            && options.seed.as_ref().map_or(true, |s| {
                s.values
                    .data()
                    .iter()
                    .all(|v| v.is_finite() && v.is_sign_positive())
            });
        // Dense-substrate buffers persist on the engine across runs; a
        // concurrent run on the same engine loses the `try_lock` race and
        // works with (and discards) a fresh local set.
        let mut scratch_guard = self.scratch.try_lock();
        let scratch_taken = match scratch_guard {
            Ok(ref mut g) => std::mem::take(&mut **g),
            Err(_) => DenseScratch::default(),
        };
        // The unseeded initial matrix is all zeros, so the first fill's
        // products are all zero — the substrate can be zeroed wholesale.
        let mut prev_known_zero = options.seed.is_none();

        // Persistent worker pool, spawned once around the whole iteration
        // loop (the seed of this module respawned scoped threads every
        // iteration). Sized by the largest shard count any iteration can
        // use — worklists only shrink, so `pool` never under-provisions.
        // Protocol per parallel iteration: the main thread publishes the
        // iteration state (release the write lock), crosses the start
        // barrier, evaluates its own shard, crosses the finish barrier,
        // and re-acquires the write lock to scatter. Serial iterations
        // never touch the barriers — workers stay parked at the start
        // barrier. Shutdown raises `done` and crosses the start barrier
        // one final time.
        let pool = threads
            .min(work.len().div_ceil(PAIRS_PER_SHARD_FLOOR))
            .max(1);
        let state = RwLock::new(PoolState {
            current,
            work,
            scratch: scratch_taken,
            prev_t: Vec::new(),
            use_dense: false,
            chunk_size: 0,
            shards: 1,
        });
        let slots: Vec<Mutex<PoolSlot>> =
            (0..pool).map(|_| Mutex::new(PoolSlot::default())).collect();
        let barrier = Barrier::new(pool);
        let done = AtomicBool::new(false);
        let ctx = &self.substrate.ctx;
        let labels = self.labels;

        let main_panic = std::thread::scope(|scope| {
            for (w, slot) in slots.iter().enumerate().skip(1) {
                let state = &state;
                let barrier = &barrier;
                let done = &done;
                scope.spawn(move || loop {
                    barrier.wait();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    run_shard(state, slot, ctx, labels, alpha, w);
                    barrier.wait();
                });
            }
            // Any panic escaping the loop body is caught here so the pool
            // can always be woken and shut down before it propagates —
            // a straight unwind past parked workers would deadlock the
            // scope join. Shard panics are re-raised inside the loop (in a
            // serial section), so an escaped panic always finds the
            // workers parked at the start barrier.
            let mut main_loop = || {
                for i in 1..=exact_rounds {
                    // Budget check between iterations: the previous
                    // iteration's swap has happened, so `current`/`next`
                    // are in the consistent state estimation expects.
                    if options
                        .budget
                        .exhausted(stats.iterations, stats.formula_evals, started)
                    {
                        if let Some(rec) = options.recorder.as_deref() {
                            rec.event("budget.exhausted", self.engine_attrs());
                        }
                        exhausted = true;
                        break;
                    }
                    let mut st = state.write().unwrap_or_else(|e| e.into_inner());
                    let i_h = u32::try_from(i).unwrap_or(H_INFINITE);
                    if p.pruning && min_h < i_h {
                        // Retire pairs past their horizon. Both buffers
                        // must agree on a retired pair's value so the
                        // Jacobi swap never resurfaces a stale one — sync
                        // `next` once, here.
                        let stm = &mut *st;
                        let cur_data = stm.current.data();
                        let next_data = next.data_mut();
                        let mut remaining_min = H_INFINITE;
                        stm.work.retain(|ap| {
                            if ap.h < i_h {
                                next_data[ap.k as usize] = cur_data[ap.k as usize];
                                retired_count += 1;
                                if track_bounds {
                                    retired_sum.add(cur_data[ap.k as usize]);
                                }
                                false
                            } else {
                                remaining_min = remaining_min.min(ap.h);
                                true
                            }
                        });
                        min_h = remaining_min;
                    }
                    // Same per-iteration accounting as the seed kernel's
                    // full-grid scans, without the scans.
                    stats.pruned_evals += retired_count;
                    stats.frozen_evals += frozen_count;
                    stats.formula_evals += st.work.len() as u64;

                    // Pick the substrate: materializing the dense inner
                    // maxima costs one full candidate sweep, so it only
                    // pays while the worklist still covers a sizable
                    // fraction of the grid.
                    {
                        let stm = &mut *st;
                        if dense_available && stm.work.len() * 4 >= n1 * n2 {
                            if prev_known_zero {
                                ctx.dense_fill_zero(&mut stm.scratch);
                            } else {
                                ctx.dense_fill(stm.current.data(), &mut stm.scratch);
                            }
                            stm.use_dense = true;
                        } else {
                            stm.prev_t.resize(n1 * n2, 0.0);
                            transpose_into(stm.current.data(), n1, n2, &mut stm.prev_t);
                            stm.use_dense = false;
                        }
                        // Size-aware shard granularity: never split below
                        // the pairs-per-shard floor.
                        let shards = pool
                            .min(stm.work.len().div_ceil(PAIRS_PER_SHARD_FLOOR))
                            .max(1);
                        stm.shards = shards;
                        stm.chunk_size = stm.work.len().div_ceil(shards).max(1);
                        if let Some(pr) = profile.as_mut() {
                            // As-scheduled shard layout — thread-count
                            // dependent, hence the exec histogram class.
                            let len = stm.work.len();
                            for w in 0..shards {
                                let start = w * stm.chunk_size;
                                let end = (start + stm.chunk_size).min(len);
                                pr.observe_shard((end - start) as u64);
                            }
                        }
                    }
                    let shards = st.shards;
                    let chunk_size = st.chunk_size;
                    stats.pool_shards = stats.pool_shards.max(shards as u64);
                    let delta = if shards <= 1 {
                        // Serial window under the write lock: the whole
                        // worklist is shard 0 of a one-shard layout.
                        // ems-lint: allow(lock-discipline, state->slot nesting is safe: workers are parked at the barrier during the coordinator's serial window, so run_shard's slot->state nesting cannot interleave)
                        let mut guard0 = slots[0].lock().unwrap_or_else(|e| e.into_inner());
                        let PoolSlot { buf, .. } = &mut *guard0;
                        let d = eval_shard(ctx, labels, alpha, &st, 0, buf);
                        let next_data = next.data_mut();
                        for (ap, &value) in st.work.iter().zip(buf.iter()) {
                            next_data[ap.k as usize] = value;
                        }
                        d
                    } else {
                        // Parallel window. Each member writes a private
                        // slot; the scatter below is serial, so no two
                        // members ever share a destination. Determinism:
                        // per-pair values depend only on `prev`, and the
                        // delta reduction is an exact max.
                        drop(st);
                        barrier.wait();
                        run_shard(&state, &slots[0], ctx, labels, alpha, 0);
                        barrier.wait();
                        st = state.write().unwrap_or_else(|e| e.into_inner());
                        let next_data = next.data_mut();
                        let mut delta = 0.0_f64;
                        for (w, slot) in slots.iter().take(shards).enumerate() {
                            let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
                            if let Some(payload) = guard.panic.take() {
                                resume_unwind(payload);
                            }
                            delta = delta.max(guard.delta);
                            let start = w * chunk_size;
                            let end = (start + chunk_size).min(st.work.len());
                            for (ap, &value) in st.work[start..end].iter().zip(guard.buf.iter()) {
                                next_data[ap.k as usize] = value;
                            }
                        }
                        delta
                    };

                    std::mem::swap(&mut st.current, &mut next);
                    stats.iterations = i;
                    prev_known_zero = false;

                    if let Some(rec) = options.recorder.as_deref() {
                        // After the swap `next` holds the previous iterate
                        // for every active pair (retired pairs were synced
                        // at retirement), so the mean delta can be taken
                        // here without touching the hot loop. Summation
                        // runs over the worklist in ascending pair order
                        // with Neumaier compensation — the same order and
                        // arithmetic the reference kernel's scan uses, so
                        // the value is bit-identical across kernels and
                        // thread counts.
                        let cur_data = st.current.data();
                        let prev_data = next.data();
                        let mut delta_sum = NeumaierSum::new();
                        for ap in &st.work {
                            delta_sum
                                .add((cur_data[ap.k as usize] - prev_data[ap.k as usize]).abs());
                        }
                        let mean_delta = if st.work.is_empty() {
                            0.0
                        } else {
                            delta_sum.value() / st.work.len() as f64
                        };
                        rec.iteration(IterationRecord {
                            engine: self.engine_label().to_string(),
                            iteration: i,
                            max_delta: delta,
                            mean_delta,
                            active_pairs: st.work.len(),
                            retired_pairs: retired_count,
                            frozen_pairs: frozen_count,
                            formula_evals: stats.formula_evals,
                        });
                        if let Some(pr) = profile.as_mut() {
                            pr.observe_iteration(delta, st.work.len());
                        }
                    }

                    if let Some(threshold) = options.abort_below {
                        // Incremental upper-bound average: retired pairs
                        // carry their (constant) value via `retired_sum`;
                        // only frozen and active pairs need fresh bound
                        // terms each round.
                        let mut acc = retired_sum;
                        let cur_data = st.current.data();
                        for &(k, h) in &frozen_bounds {
                            acc.add(pair_upper_bound(
                                cur_data[k as usize],
                                i,
                                distance_of(h),
                                alpha,
                                p.c,
                            ));
                        }
                        for ap in &st.work {
                            acc.add(pair_upper_bound(
                                cur_data[ap.k as usize],
                                i,
                                distance_of(ap.h),
                                alpha,
                                p.c,
                            ));
                        }
                        let upper_avg = acc.value() / (n1 * n2) as f64;
                        if upper_avg < threshold {
                            stats.aborted = true;
                            break;
                        }
                    }

                    if delta < p.epsilon {
                        break;
                    }
                }
                stats.phase_times.exact = exact_started.elapsed();
            };
            let result = catch_unwind(AssertUnwindSafe(&mut main_loop));
            done.store(true, Ordering::Release);
            barrier.wait();
            result.err()
        });
        if let Some(payload) = main_panic {
            resume_unwind(payload);
        }
        let PoolState {
            mut current,
            scratch: scratch_back,
            ..
        } = state.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Ok(ref mut g) = scratch_guard {
            **g = scratch_back;
        }

        if stats.aborted {
            if let Some(rec) = options.recorder.as_deref() {
                rec.event("run.aborted", self.engine_attrs());
                self.record_run_summary(rec, &stats, profile.take());
            }
            finish_run_scope(run_scope.take(), &stats, n1, n2);
            return Ok(RunOutput {
                sim: current,
                stats,
            });
        }

        stats.degraded = exhausted;
        let recorder = options.recorder.as_deref();
        if exhausted {
            if let Some(rec) = recorder {
                rec.event("run.degraded", self.engine_attrs());
            }
        }
        // ems-lint: allow(wall-clock-randomness, phase timing feeds RunStats telemetry only, never similarity values)
        let est_started = Instant::now();
        self.estimation_phase(
            &mut stats,
            &mut current,
            &next,
            &frozen,
            exhausted,
            n1,
            n2,
            recorder,
        );
        stats.phase_times.estimation = est_started.elapsed();
        if let Some(rec) = recorder {
            self.record_run_summary(rec, &stats, profile.take());
        }
        finish_run_scope(run_scope.take(), &stats, n1, n2);

        Ok(RunOutput {
            sim: current,
            stats,
        })
    }

    /// Estimation phase (Algorithm 1, lines 6-8). Only pairs that were
    /// still moving at iteration I are extrapolated: a pair whose value
    /// already stopped changing is its own best estimate, and the crude
    /// recurrence model would only disturb it. A budget-exhausted run
    /// enters this phase even without `estimate_after`: the closed-form
    /// extrapolation finishes the pairs the budget cut off.
    #[allow(clippy::too_many_arguments)]
    fn estimation_phase(
        &self,
        stats: &mut RunStats,
        current: &mut SimMatrix,
        next: &SimMatrix,
        frozen: &[bool],
        exhausted: bool,
        n1: usize,
        n2: usize,
        recorder: Option<&Recorder>,
    ) {
        let p = self.params;
        let estimation_cap = match (p.estimate_after, exhausted) {
            (Some(cap), _) => Some(cap),
            (None, true) => Some(stats.iterations),
            (None, false) => None,
        };
        let Some(cap) = estimation_cap else {
            return;
        };
        let i_done = stats.iterations.min(cap);
        if let Some(rec) = recorder {
            let mut attrs = self.engine_attrs();
            attrs.push(("after_iteration".to_string(), i_done.to_string()));
            rec.event("estimation.start", attrs);
        }
        for v1 in 0..n1 {
            for v2 in 0..n2 {
                if frozen[v1 * n2 + v2] {
                    continue;
                }
                if i_done > 0 && (current.get(v1, v2) - next.get(v1, v2)).abs() < p.epsilon {
                    // `next` holds the previous iteration's values after
                    // the final swap: the pair has converged numerically.
                    continue;
                }
                let h = self.pair_bound(v1, v2);
                let needs = match h {
                    Distance::Finite(h) => i_done < h as usize,
                    Distance::Infinite => true,
                };
                if !needs {
                    continue;
                }
                let (a_deg, b_deg) = match self.direction {
                    Direction::Forward => (
                        self.g1.pre(NodeId::from_index(v1)).len(),
                        self.g2.pre(NodeId::from_index(v2)).len(),
                    ),
                    Direction::Backward => (
                        self.g1.post(NodeId::from_index(v1)).len(),
                        self.g2.post(NodeId::from_index(v2)).len(),
                    ),
                };
                if a_deg == 0 || b_deg == 0 {
                    continue; // zero-frequency node: similarity stays 0
                }
                let f1 = self.g1.node_frequency(NodeId::from_index(v1));
                let f2 = self.g2.node_frequency(NodeId::from_index(v2));
                let s_prev = if i_done >= 1 {
                    Some(next.get(v1, v2))
                } else {
                    None
                };
                let est = extrapolate(
                    current.get(v1, v2),
                    s_prev,
                    i_done,
                    h,
                    a_deg,
                    b_deg,
                    f1,
                    f2,
                    self.labels.get(v1, v2),
                    p,
                );
                // Exact similarities only grow (Theorem 1): never let the
                // estimate fall below the exact value already computed.
                let est = est.clamp(current.get(v1, v2), 1.0);
                current.set(v1, v2, est);
                stats.estimated_pairs += 1;
            }
        }
    }

    /// As [`run`](Self::run), on the reference (seed) kernel.
    ///
    /// # Panics
    /// If the seed's shape does not match the run's pair space.
    #[allow(clippy::panic)] // documented contract panic, mirrors `run`
    pub fn run_reference(&self, options: &RunOptions) -> RunOutput {
        match self.try_run_reference(options) {
            Ok(out) => out,
            // ems-lint: allow(panic-surface, documented contract panic; try_run_reference is the fallible path)
            Err(e) => panic!("{e}"),
        }
    }

    /// The original single-threaded fixpoint, preserved verbatim from the
    /// seed implementation: full-grid scans, per-round re-derivation of the
    /// compatibility factor and pair bounds, naive upper-bound summation.
    /// Kept as the differential-testing oracle for [`try_run`](Self::try_run)
    /// and as the benchmark baseline; it ignores the `threads` knobs.
    pub fn try_run_reference(&self, options: &RunOptions) -> Result<RunOutput, CoreError> {
        let n1 = self.g1.num_real();
        let n2 = self.g2.num_real();
        let p = self.params;
        let mut stats = RunStats::default();
        // ems-lint: allow(wall-clock-randomness, phase timing feeds RunStats telemetry only, never similarity values)
        let started = Instant::now();

        let (mut current, frozen) = self.initial_state(options, n1, n2)?;
        if n1 == 0 || n2 == 0 {
            return Ok(RunOutput {
                sim: current,
                stats,
            });
        }
        let exact_rounds = self.exact_rounds();
        let mut next = current.clone();
        let alpha = p.alpha;
        let recorder = options.recorder.as_deref();
        // Mirror of the production kernel's profiling scope and histogram
        // set, so the redacted record streams of both kernels line up.
        let profiler = options
            .recorder
            .as_ref()
            .map(|r| Profiler::new(Arc::clone(r)));
        let mut run_scope = profiler.as_ref().map(|pf| pf.scope("engine.run"));
        let mut profile = options
            .recorder
            .is_some()
            .then(|| RunProfile::new(self.engine_attrs()));
        let mut exhausted = false;
        for i in 1..=exact_rounds {
            if options
                .budget
                .exhausted(stats.iterations, stats.formula_evals, started)
            {
                if let Some(rec) = recorder {
                    rec.event("budget.exhausted", self.engine_attrs());
                }
                exhausted = true;
                break;
            }
            let mut delta = 0.0_f64;
            // Per-round telemetry tallies (only consumed when a recorder
            // is attached): the scan visits pairs in ascending pair order,
            // matching the worklist kernel's summation order exactly.
            let mut round_evals = 0u64;
            let mut round_pruned = 0u64;
            let mut round_frozen = 0u64;
            let mut delta_sum = NeumaierSum::new();
            for v1 in 0..n1 {
                for v2 in 0..n2 {
                    let k = v1 * n2 + v2;
                    if frozen[k] {
                        stats.frozen_evals += 1;
                        round_frozen += 1;
                        continue;
                    }
                    if p.pruning {
                        if let Distance::Finite(h) = self.pair_bound(v1, v2) {
                            if i > h as usize {
                                stats.pruned_evals += 1;
                                round_pruned += 1;
                                continue;
                            }
                        }
                    }
                    stats.formula_evals += 1;
                    round_evals += 1;
                    let s12 = self.one_side(&current, v1, v2, false);
                    let s21 = self.one_side(&current, v1, v2, true);
                    let mut value =
                        alpha * (s12 + s21) / 2.0 + (1.0 - alpha) * self.labels.get(v1, v2);
                    // Numerical safety: theory guarantees [0,1].
                    value = value.clamp(0.0, 1.0);
                    delta = delta.max((value - current.get(v1, v2)).abs());
                    if recorder.is_some() {
                        delta_sum.add((value - current.get(v1, v2)).abs());
                    }
                    next.set(v1, v2, value);
                }
            }
            // Pairs skipped this round keep their previous values.
            for v1 in 0..n1 {
                for v2 in 0..n2 {
                    let k = v1 * n2 + v2;
                    let skipped = frozen[k]
                        || (p.pruning
                            && matches!(self.pair_bound(v1, v2), Distance::Finite(h) if i > h as usize));
                    if skipped {
                        let v = current.get(v1, v2);
                        next.set(v1, v2, v);
                    }
                }
            }
            std::mem::swap(&mut current, &mut next);
            stats.iterations = i;

            if let Some(rec) = recorder {
                let mean_delta = if round_evals == 0 {
                    0.0
                } else {
                    delta_sum.value() / round_evals as f64
                };
                rec.iteration(IterationRecord {
                    engine: self.engine_label().to_string(),
                    iteration: i,
                    max_delta: delta,
                    mean_delta,
                    active_pairs: round_evals as usize,
                    retired_pairs: round_pruned,
                    frozen_pairs: round_frozen,
                    formula_evals: stats.formula_evals,
                });
                if let Some(pr) = profile.as_mut() {
                    pr.observe_iteration(delta, round_evals as usize);
                    // The reference kernel evaluates the round as a single
                    // serial shard.
                    pr.observe_shard(round_evals);
                }
            }

            if let Some(threshold) = options.abort_below {
                let mut upper_sum = 0.0;
                for v1 in 0..n1 {
                    for v2 in 0..n2 {
                        upper_sum += pair_upper_bound(
                            current.get(v1, v2),
                            i,
                            self.pair_bound(v1, v2),
                            alpha,
                            p.c,
                        );
                    }
                }
                let upper_avg = upper_sum / (n1 * n2) as f64;
                if upper_avg < threshold {
                    stats.aborted = true;
                    if let Some(rec) = recorder {
                        rec.event("run.aborted", self.engine_attrs());
                        self.record_run_summary(rec, &stats, profile.take());
                    }
                    finish_run_scope(run_scope.take(), &stats, n1, n2);
                    return Ok(RunOutput {
                        sim: current,
                        stats,
                    });
                }
            }

            if delta < p.epsilon {
                break;
            }
        }

        stats.degraded = exhausted;
        if exhausted {
            if let Some(rec) = recorder {
                rec.event("run.degraded", self.engine_attrs());
            }
        }
        self.estimation_phase(
            &mut stats,
            &mut current,
            &next,
            &frozen,
            exhausted,
            n1,
            n2,
            recorder,
        );
        if let Some(rec) = recorder {
            self.record_run_summary(rec, &stats, profile.take());
        }
        finish_run_scope(run_scope.take(), &stats, n1, n2);

        Ok(RunOutput {
            sim: current,
            stats,
        })
    }
}

/// Decodes the worklist's horizon encoding back into a [`Distance`].
fn distance_of(h: u32) -> Distance {
    if h == H_INFINITE {
        Distance::Infinite
    } else {
        Distance::Finite(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_labels::LabelMatrix;

    /// G1 of Figure 2(a): only the pieces relevant to Example 4 need exact
    /// frequencies; remaining edges follow the figure's structure.
    fn figure2_g1() -> DependencyGraph {
        DependencyGraph::from_parts(
            vec![
                "A".into(),
                "B".into(),
                "C".into(),
                "D".into(),
                "E".into(),
                "F".into(),
            ],
            vec![0.4, 0.6, 1.0, 1.0, 1.0, 1.0],
            &[
                (0, 2, 0.4), // A -> C
                (1, 2, 0.6), // B -> C
                (2, 3, 1.0), // C -> D
                (3, 4, 0.6), // D -> E
                (3, 5, 0.4), // D -> F
                (4, 5, 0.6), // E -> F
                (5, 4, 0.4), // F -> E
            ],
        )
    }

    /// G2 of Figure 2(b).
    fn figure2_g2() -> DependencyGraph {
        DependencyGraph::from_parts(
            vec![
                "1".into(),
                "2".into(),
                "3".into(),
                "4".into(),
                "5".into(),
                "6".into(),
            ],
            vec![1.0, 0.4, 0.6, 1.0, 1.0, 1.0],
            &[
                (0, 1, 0.4), // 1 -> 2
                (0, 2, 0.6), // 1 -> 3
                (1, 3, 0.4), // 2 -> 4
                (2, 3, 0.6), // 3 -> 4
                (3, 4, 1.0), // 4 -> 5
                (4, 5, 0.6), // 5 -> 6
                (5, 4, 0.4), // 6 -> 5 (5 and 6 interleave)
            ],
        )
    }

    fn structural_engine_run(
        g1: &DependencyGraph,
        g2: &DependencyGraph,
        params: &EmsParams,
    ) -> RunOutput {
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let engine = Engine::new(g1, g2, &labels, params, Direction::Forward);
        engine.run(&RunOptions::default())
    }

    /// Reproduces Example 4's first-iteration values S¹(A,1) = 0.457 and
    /// S¹(A,2) = 0.6 with α = 1, c = 0.8.
    #[test]
    fn example4_first_iteration_values() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let mut params = EmsParams::structural();
        params.estimate_after = None;
        params.max_iterations = 1; // stop after iteration 1
        params.pruning = false;
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions::default());
        // S¹(A,1): C(v^X,A,v^X,1)·1 = 0.8·(1 - 0.6/1.4) = 0.457...
        let s_a1 = out.sim.get(0, 0);
        assert!((s_a1 - 0.45714285).abs() < 1e-6, "S1(A,1) = {s_a1}");
        // S¹(A,2) = 0.5·(0.8 + 0.4) = 0.6.
        let s_a2 = out.sim.get(0, 1);
        assert!((s_a2 - 0.6).abs() < 1e-9, "S1(A,2) = {s_a2}");
        // Dislocated pair (A,2) beats the local-looking pair (A,1).
        assert!(s_a2 > s_a1);
    }

    #[test]
    fn similarity_is_monotone_across_iterations() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let mut prev = SimMatrix::zeros(6, 6);
        for rounds in 1..=6 {
            let mut params = EmsParams::structural().without_pruning();
            params.max_iterations = rounds;
            let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
            let out = engine.run(&RunOptions::default());
            for v1 in 0..6 {
                for v2 in 0..6 {
                    assert!(
                        out.sim.get(v1, v2) + 1e-12 >= prev.get(v1, v2),
                        "monotonicity violated at ({v1},{v2}) round {rounds}"
                    );
                    assert!(out.sim.get(v1, v2) <= 1.0 + 1e-12);
                }
            }
            prev = out.sim;
        }
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let with = structural_engine_run(&g1, &g2, &EmsParams::structural());
        let without = structural_engine_run(&g1, &g2, &EmsParams::structural().without_pruning());
        assert!(
            with.sim.max_abs_diff(&without.sim) < 1e-6,
            "pruning changed results by {}",
            with.sim.max_abs_diff(&without.sim)
        );
        assert!(with.stats.formula_evals < without.stats.formula_evals);
        assert!(with.stats.pruned_evals > 0);
    }

    #[test]
    fn backward_direction_runs_and_differs() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let fwd =
            Engine::new(&g1, &g2, &labels, &params, Direction::Forward).run(&RunOptions::default());
        let bwd = Engine::new(&g1, &g2, &labels, &params, Direction::Backward)
            .run(&RunOptions::default());
        assert!(fwd.sim.max_abs_diff(&bwd.sim) > 1e-3);
    }

    #[test]
    fn estimation_with_zero_iterations_is_cheap_and_bounded() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let params = EmsParams::structural().estimated(0);
        let out = structural_engine_run(&g1, &g2, &params);
        assert_eq!(out.stats.iterations, 0);
        assert!(out.stats.estimated_pairs > 0);
        for (_, _, v) in out.sim.iter() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn estimation_converges_to_exact_with_large_i() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let exact = structural_engine_run(&g1, &g2, &EmsParams::structural());
        let estimated = structural_engine_run(&g1, &g2, &EmsParams::structural().estimated(50));
        // With I beyond every finite pair bound, estimation only touches
        // infinite-h pairs; finite pairs are exact.
        for v1 in 0..4 {
            for v2 in 0..4 {
                assert!(
                    (exact.sim.get(v1, v2) - estimated.sim.get(v1, v2)).abs() < 1e-6,
                    "pair ({v1},{v2})"
                );
            }
        }
    }

    #[test]
    fn estimation_error_shrinks_with_more_exact_iterations() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let exact = structural_engine_run(&g1, &g2, &EmsParams::structural());
        let err = |i: usize| {
            let est = structural_engine_run(&g1, &g2, &EmsParams::structural().estimated(i));
            est.sim.max_abs_diff(&exact.sim)
        };
        let e0 = err(0);
        let e3 = err(3);
        assert!(e3 <= e0 + 1e-9, "I=3 error {e3} vs I=0 error {e0}");
    }

    #[test]
    fn frozen_pairs_keep_their_values() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let base = engine.run(&RunOptions::default());
        // Freeze the entire matrix at the fixpoint: run must return it as-is.
        let seed = Seed {
            values: base.sim.clone(),
            frozen: vec![true; 36],
        };
        let out = engine.run(&RunOptions {
            seed: Some(seed),
            abort_below: None,
            ..Default::default()
        });
        assert_eq!(out.stats.formula_evals, 0);
        assert!(out.sim.max_abs_diff(&base.sim) < 1e-15);
    }

    #[test]
    fn partially_frozen_run_matches_full_run() {
        // Freezing pairs at their true fixpoint values must not change the
        // other pairs' fixpoints (this is what Proposition 4 relies on).
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let base = engine.run(&RunOptions::default());
        let mut frozen = vec![false; 36];
        let mut values = SimMatrix::zeros(6, 6);
        // Freeze rows of A and B (sources) at their converged values.
        for v1 in 0..2 {
            for v2 in 0..6 {
                frozen[v1 * 6 + v2] = true;
                values.set(v1, v2, base.sim.get(v1, v2));
            }
        }
        let out = engine.run(&RunOptions {
            seed: Some(Seed { values, frozen }),
            abort_below: None,
            ..Default::default()
        });
        // Agreement is up to the convergence threshold: freezing rows at
        // their fixpoint changes the iteration trajectory, not the limit.
        assert!(
            out.sim.max_abs_diff(&base.sim) < 1e-3,
            "diff {}",
            out.sim.max_abs_diff(&base.sim)
        );
    }

    #[test]
    fn abort_below_stops_early() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions {
            seed: None,
            abort_below: Some(0.99), // unreachable average
            ..Default::default()
        });
        assert!(out.stats.aborted);
        assert!(out.stats.iterations <= 3);
    }

    #[test]
    fn abort_threshold_zero_never_aborts() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions {
            seed: None,
            abort_below: Some(0.0),
            ..Default::default()
        });
        assert!(!out.stats.aborted);
    }

    #[test]
    fn label_similarity_is_blended() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        // Label matrix that marks (A,2) as typographically identical.
        let mut raw = vec![0.0; 36];
        raw[1] = 1.0; // (A, 2)
        let labels = LabelMatrix::from_raw(6, 6, raw);
        let params = EmsParams::with_labels(0.5);
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions::default());
        let zero_labels = LabelMatrix::zeros(6, 6);
        let engine0 = Engine::new(&g1, &g2, &zero_labels, &params, Direction::Forward);
        let out0 = engine0.run(&RunOptions::default());
        assert!(out.sim.get(0, 1) > out0.sim.get(0, 1) + 0.2);
    }

    #[test]
    fn empty_graphs_yield_empty_matrix() {
        let g = DependencyGraph::from_parts(vec![], vec![], &[]);
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(0, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions::default());
        assert_eq!(out.sim.rows(), 0);
        assert_eq!(out.stats.iterations, 0);
    }

    fn budget_run(budget: Budget) -> RunOutput {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        engine.run(&RunOptions {
            budget,
            ..Default::default()
        })
    }

    #[test]
    fn unlimited_budget_never_degrades() {
        let out = budget_run(Budget::unlimited());
        assert!(!out.stats.degraded);
        assert!(Budget::default().is_unlimited());
    }

    #[test]
    fn zero_iteration_budget_still_returns_usable_estimates() {
        let out = budget_run(Budget {
            max_iterations: Some(0),
            ..Default::default()
        });
        assert!(out.stats.degraded);
        assert_eq!(out.stats.iterations, 0);
        assert!(out.stats.estimated_pairs > 0);
        for (_, _, v) in out.sim.iter() {
            assert!((0.0..=1.0).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn iteration_budget_matches_explicit_estimation() {
        // A budget of I iterations must land exactly where `estimated(I)`
        // lands: same exact prefix, same closed-form tail.
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let budgeted = budget_run(Budget {
            max_iterations: Some(2),
            ..Default::default()
        });
        let explicit = structural_engine_run(&g1, &g2, &EmsParams::structural().estimated(2));
        assert!(budgeted.stats.degraded);
        assert!(!explicit.stats.degraded);
        assert_eq!(budgeted.stats.iterations, 2);
        assert!(budgeted.sim.max_abs_diff(&explicit.sim) < 1e-12);
    }

    #[test]
    fn formula_eval_budget_trips_and_degrades() {
        let out = budget_run(Budget {
            max_formula_evals: Some(1),
            ..Default::default()
        });
        assert!(out.stats.degraded);
        // The check is between iterations: one full iteration may complete.
        assert!(out.stats.iterations <= 1);
        for (_, _, v) in out.sim.iter() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn zero_wall_clock_budget_degrades_immediately() {
        let out = budget_run(Budget {
            wall_clock: Some(std::time::Duration::ZERO),
            ..Default::default()
        });
        assert!(out.stats.degraded);
        assert_eq!(out.stats.iterations, 0);
        assert!(out.stats.estimated_pairs > 0);
    }

    #[test]
    fn try_new_reports_bad_params_and_shapes() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let mut bad = EmsParams::structural();
        bad.c = 2.0;
        assert!(matches!(
            Engine::try_new(&g1, &g2, &labels, &bad, Direction::Forward),
            Err(crate::CoreError::InvalidParams(_))
        ));
        let params = EmsParams::structural();
        let small = LabelMatrix::zeros(2, 6);
        assert!(matches!(
            Engine::try_new(&g1, &g2, &small, &params, Direction::Forward),
            Err(crate::CoreError::LabelShapeMismatch { rows: 2, .. })
        ));
    }

    #[test]
    fn try_with_substrate_validates_fit_and_charges_no_setup() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let sub = Arc::new(EngineSubstrate::build(
            &g1,
            &g2,
            Direction::Forward,
            params.c,
        ));

        // Wrong direction.
        assert!(matches!(
            Engine::try_with_substrate(
                &g1,
                &g2,
                &labels,
                &params,
                Direction::Backward,
                Arc::clone(&sub)
            ),
            Err(crate::CoreError::SubstrateMismatch { .. })
        ));
        // Wrong damping constant (bit-exact comparison).
        let mut other_c = params.clone();
        other_c.c = params.c * 0.5;
        assert!(matches!(
            Engine::try_with_substrate(
                &g1,
                &g2,
                &labels,
                &other_c,
                Direction::Forward,
                Arc::clone(&sub)
            ),
            Err(crate::CoreError::SubstrateMismatch { .. })
        ));
        // Wrong shape: substrate over a smaller graph pair.
        let mut small_log = ems_events::EventLog::new();
        small_log.push_trace(["a", "b"]);
        let small = DependencyGraph::from_log(&small_log);
        let small_sub = Arc::new(EngineSubstrate::build(
            &small,
            &g2,
            Direction::Forward,
            params.c,
        ));
        assert!(matches!(
            Engine::try_with_substrate(&g1, &g2, &labels, &params, Direction::Forward, small_sub),
            Err(crate::CoreError::SubstrateMismatch { .. })
        ));

        // A fitting substrate runs bit-identically to a self-built engine
        // and charges zero setup (the cache owner attributes the build).
        let owned = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let injected =
            Engine::try_with_substrate(&g1, &g2, &labels, &params, Direction::Forward, sub)
                .unwrap();
        let a = owned.run(&RunOptions::default());
        let b = injected.run(&RunOptions::default());
        assert_bit_identical(&a.sim, &b.sim);
        assert!(owned.run(&RunOptions::default()).stats.phase_times.setup > Duration::ZERO);
        assert_eq!(b.stats.phase_times.setup, Duration::ZERO);
    }

    #[test]
    fn try_run_reports_seed_shape_mismatch() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let seed = Seed {
            values: SimMatrix::zeros(6, 6),
            frozen: vec![false; 7], // wrong mask length
        };
        let err = engine
            .try_run(&RunOptions {
                seed: Some(seed),
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(
            err,
            crate::CoreError::SeedShapeMismatch { mask: 7, .. }
        ));
    }

    /// Compares every counter of two runs except the wall-clock phase times.
    fn assert_same_work(a: &RunStats, b: &RunStats) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.formula_evals, b.formula_evals);
        assert_eq!(a.pruned_evals, b.pruned_evals);
        assert_eq!(a.frozen_evals, b.frozen_evals);
        assert_eq!(a.estimated_pairs, b.estimated_pairs);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.degraded, b.degraded);
    }

    fn assert_bit_identical(a: &SimMatrix, b: &SimMatrix) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "values differ: {x} vs {y}");
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_reference() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        for params in [
            EmsParams::structural(),
            EmsParams::structural().without_pruning(),
            EmsParams::structural().estimated(2),
        ] {
            for direction in [Direction::Forward, Direction::Backward] {
                let engine = Engine::new(&g1, &g2, &labels, &params, direction);
                let opts = RunOptions::default();
                let reference = engine.run_reference(&opts);
                let kernel = engine.run(&opts);
                assert_bit_identical(&reference.sim, &kernel.sim);
                assert_same_work(&reference.stats, &kernel.stats);
            }
        }
    }

    /// Satellite regression for the removed full-grid re-scan: the
    /// worklist's arithmetic `pruned_evals` accounting must match both the
    /// reference kernel and the closed form
    /// `Σ_{i=1..I} |{pairs : h < i}|` derived from the pair bounds.
    #[test]
    fn pruned_evals_accounting_matches_closed_form() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions::default());
        let reference = engine.run_reference(&RunOptions::default());
        assert_eq!(out.stats.pruned_evals, reference.stats.pruned_evals);
        let mut expected = 0u64;
        for i in 1..=out.stats.iterations {
            for v1 in 0..6 {
                for v2 in 0..6 {
                    if let Distance::Finite(h) = engine.pair_bound(v1, v2) {
                        if (h as usize) < i {
                            expected += 1;
                        }
                    }
                }
            }
        }
        assert!(out.stats.pruned_evals > 0);
        assert_eq!(out.stats.pruned_evals, expected);
    }

    #[test]
    fn frozen_and_pruned_mix_matches_reference() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let base = engine.run(&RunOptions::default());
        let mut frozen = vec![false; 36];
        let mut values = SimMatrix::zeros(6, 6);
        for v2 in 0..6 {
            frozen[2 * 6 + v2] = true; // freeze row C
            values.set(2, v2, base.sim.get(2, v2));
        }
        let opts = RunOptions {
            seed: Some(Seed { values, frozen }),
            ..Default::default()
        };
        let reference = engine.run_reference(&opts);
        let kernel = engine.run(&opts);
        assert_bit_identical(&reference.sim, &kernel.sim);
        assert_same_work(&reference.stats, &kernel.stats);
        assert!(kernel.stats.frozen_evals > 0);
    }

    #[test]
    fn forced_parallel_path_matches_serial_on_small_grid() {
        // PAIRS_PER_SHARD_FLOOR keeps tiny grids serial; bypass the floor by
        // checking the two thread knobs still agree end to end.
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let serial = engine.run(&RunOptions {
            threads: Some(1),
            ..Default::default()
        });
        let parallel = engine.run(&RunOptions {
            threads: Some(4),
            oversubscribe: true,
            ..Default::default()
        });
        assert_bit_identical(&serial.sim, &parallel.sim);
        assert_same_work(&serial.stats, &parallel.stats);
    }

    /// An explicit thread request above host parallelism clamps to the
    /// host width and records the decision, instead of oversubscribing the
    /// pool; the `oversubscribe` escape hatch restores the old behavior.
    /// Either way the similarities are bit-identical — the clamp is a
    /// scheduling decision, never a results decision.
    #[test]
    fn oversized_thread_request_clamps_and_records_warning() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let over = host + 3;
        let clamped = engine.run(&RunOptions {
            threads: Some(over),
            ..Default::default()
        });
        assert_eq!(
            clamped.stats.thread_clamp,
            Some(ThreadClamp {
                requested: over,
                clamped_to: host,
            })
        );
        let honored = engine.run(&RunOptions {
            threads: Some(over),
            oversubscribe: true,
            ..Default::default()
        });
        assert_eq!(honored.stats.thread_clamp, None);
        assert_bit_identical(&clamped.sim, &honored.sim);
        // Requests within the host's width never warn.
        let within = engine.run(&RunOptions {
            threads: Some(1),
            ..Default::default()
        });
        assert_eq!(within.stats.thread_clamp, None);
    }

    #[test]
    fn abort_matches_reference_decision() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        for threshold in [0.0, 0.3, 0.99] {
            let opts = RunOptions {
                abort_below: Some(threshold),
                ..Default::default()
            };
            let reference = engine.run_reference(&opts);
            let kernel = engine.run(&opts);
            assert_eq!(reference.stats.aborted, kernel.stats.aborted);
            assert_eq!(reference.stats.iterations, kernel.stats.iterations);
            assert_bit_identical(&reference.sim, &kernel.sim);
        }
    }

    /// Pins the documented `PhaseTimes` merge-by-sum semantics: merging
    /// two reports that share one engine's setup counts that setup twice.
    /// The merged value is "total reported time", not "distinct work" —
    /// callers aggregating runs of a single engine must subtract the
    /// duplicated setup themselves if they want wall-clock-like numbers.
    #[test]
    fn merge_sums_phase_times_documenting_double_count() {
        let mut a = RunStats {
            phase_times: PhaseTimes {
                setup: Duration::from_micros(100),
                exact: Duration::from_micros(10),
                estimation: Duration::from_micros(1),
            },
            ..RunStats::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.phase_times.setup, Duration::from_micros(200));
        assert_eq!(a.phase_times.exact, Duration::from_micros(20));
        assert_eq!(a.phase_times.estimation, Duration::from_micros(2));
    }

    /// The recorded telemetry (everything except span durations) must be
    /// identical across the reference kernel, the serial worklist kernel
    /// and the parallel kernel — the trace is part of the determinism
    /// contract, not a best-effort diagnostic.
    #[test]
    fn telemetry_is_identical_across_kernels_and_threads() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        for direction in [Direction::Forward, Direction::Backward] {
            let engine = Engine::new(&g1, &g2, &labels, &params, direction);
            let trace_of = |kernel: &str, threads: usize| {
                let rec = Arc::new(Recorder::new());
                let opts = RunOptions {
                    recorder: Some(Arc::clone(&rec)),
                    threads: Some(threads),
                    oversubscribe: true,
                    ..Default::default()
                };
                if kernel == "reference" {
                    engine.run_reference(&opts);
                } else {
                    engine.run(&opts);
                }
                ems_obs::jsonl::write_redacted(&rec.records())
            };
            let reference = trace_of("reference", 1);
            let serial = trace_of("worklist", 1);
            let parallel = trace_of("worklist", 4);
            assert_eq!(reference, serial, "reference vs serial trace");
            assert_eq!(serial, parallel, "serial vs parallel trace");
            assert!(serial.contains("\"type\":\"iteration\""));
        }
    }

    /// A budget-exhausted run narrates its degradation through events.
    #[test]
    fn budget_exhaustion_emits_events() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let rec = Arc::new(Recorder::new());
        let out = engine.run(&RunOptions {
            budget: Budget {
                max_iterations: Some(1),
                ..Default::default()
            },
            recorder: Some(Arc::clone(&rec)),
            ..Default::default()
        });
        assert!(out.stats.degraded);
        let names: Vec<String> = rec
            .records()
            .iter()
            .filter_map(|r| match r {
                ems_obs::Record::Event { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"budget.exhausted".to_string()), "{names:?}");
        assert!(names.contains(&"run.degraded".to_string()), "{names:?}");
        assert!(names.contains(&"estimation.start".to_string()), "{names:?}");
    }

    #[test]
    fn phase_times_are_reported() {
        let g1 = figure2_g1();
        let g2 = figure2_g2();
        let labels = LabelMatrix::zeros(6, 6);
        let params = EmsParams::structural();
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions::default());
        // Setup covers the CSR + table build and is reported per run; the
        // exact phase ran at least one iteration so its timer advanced.
        assert!(out.stats.iterations > 0);
        assert!(out.stats.phase_times.exact > Duration::ZERO);
        let mut merged = out.stats.clone();
        merged.merge(&out.stats);
        assert_eq!(merged.phase_times.setup, out.stats.phase_times.setup * 2);
    }
}
