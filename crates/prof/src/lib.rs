#![forbid(unsafe_code)]
//! `ems-prof` — deterministic scoped profiling on top of the `ems-obs`
//! recorder.
//!
//! A [`Profiler`] wraps an `Arc<Recorder>` and hands out RAII
//! [`ProfScope`] guards. Scopes nest: each guard pushes its name onto a
//! shared path stack, so a scope opened inside another emits the dotted
//! path `prof.<outer>.<inner>`. On drop a scope emits
//!
//! * one span `prof.<path>` whose attrs carry the deterministic identity
//!   (`path`, `depth`) and whose `dur_us` is the measured wall time — the
//!   single non-deterministic field, redacted by every deterministic
//!   export exactly like the engine's phase spans;
//! * one counter `prof.<key>` with label `path=<path>` per counter
//!   registered via [`ProfScope::count`] — counter values must be pure
//!   functions of the work performed (formula evaluations, pairs touched,
//!   logical bytes), never of scheduling, so redacted profile exports stay
//!   byte-identical across kernels and thread counts.
//!
//! # Determinism discipline
//!
//! The one wall-clock read lives in [`Profiler::scope`] under an audited
//! `ems-lint` suppression; `ems-prof` is scoped in the lint's
//! `CLOCK_CRATES`/`NONDET_CRATES` tables so any further clock or
//! randomness use fails CI.
//!
//! # Allocation accounting
//!
//! The workspace forbids `unsafe`, so a `GlobalAlloc` wrapper is off the
//! table — and would be wrong anyway: real allocator traffic varies with
//! thread interleaving and allocator internals, which would break the
//! byte-identical redacted export contract. [`CountingAlloc`] instead
//! counts *logical* allocations: callers route buffer creation through it
//! (or charge capacities explicitly via [`AllocTally`]), producing
//! deterministic allocation/byte tallies that are identical across thread
//! counts because they describe what the algorithm requested, not what
//! the allocator did.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ems_obs::{labels, Recorder};

/// Deterministic logical allocation tally: how many buffers the profiled
/// code requested and how many bytes of capacity they carried.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocTally {
    /// Number of logical allocations charged.
    pub allocations: u64,
    /// Total bytes of requested capacity.
    pub bytes: u64,
}

impl AllocTally {
    /// Charges one allocation of `bytes` bytes.
    pub fn charge(&mut self, bytes: usize) {
        self.allocations += 1;
        self.bytes = self.bytes.saturating_add(bytes as u64);
    }

    /// Charges the capacity a slice of `len` elements of `T` occupies.
    pub fn charge_elems<T>(&mut self, len: usize) {
        self.charge(len.saturating_mul(std::mem::size_of::<T>()));
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: AllocTally) {
        self.allocations += other.allocations;
        self.bytes = self.bytes.saturating_add(other.bytes);
    }
}

/// Counting allocator wrapper: a shareable charge sheet that hands out
/// buffers while tallying their logical capacity (see the module docs for
/// why this is deliberately not a `GlobalAlloc`).
#[derive(Debug, Default)]
pub struct CountingAlloc {
    tally: Mutex<AllocTally>,
}

impl CountingAlloc {
    /// New empty charge sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a `Vec` with the requested capacity and charges it.
    pub fn vec_with_capacity<T>(&self, cap: usize) -> Vec<T> {
        self.charge_elems::<T>(cap);
        Vec::with_capacity(cap)
    }

    /// Charges `bytes` bytes without handing out a buffer (for buffers
    /// created elsewhere, e.g. resized in place).
    pub fn charge_bytes(&self, bytes: usize) {
        self.lock().charge(bytes);
    }

    /// Charges the capacity of `len` elements of `T`.
    pub fn charge_elems<T>(&self, len: usize) {
        self.lock().charge_elems::<T>(len);
    }

    /// Snapshot of the tally so far.
    pub fn tally(&self) -> AllocTally {
        *self.lock()
    }

    /// Takes the tally, resetting the sheet to zero.
    pub fn take(&self) -> AllocTally {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AllocTally> {
        match self.tally.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

/// Scoped phase profiler bound to a recorder.
///
/// Cheap to construct per run; share one across components that should
/// nest their scopes into a single tree.
#[derive(Debug)]
pub struct Profiler {
    recorder: Arc<Recorder>,
    /// Dotted-path stack of open scopes. The pipeline profiles from one
    /// logical thread at a time (same contract as the recorder itself);
    /// the mutex makes sharing safe, not concurrent nesting meaningful.
    stack: Mutex<Vec<String>>,
}

impl Profiler {
    /// New profiler emitting into `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> Self {
        Profiler {
            recorder,
            stack: Mutex::new(Vec::new()),
        }
    }

    /// The recorder this profiler emits into.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    fn lock_stack(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
        match self.stack.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Opens a scope named `name`; the returned guard records on drop.
    /// Scope names should be short dotted identifiers (`engine.exact`).
    pub fn scope(&self, name: &str) -> ProfScope<'_> {
        let mut stack = self.lock_stack();
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", stack.join("."))
        };
        let depth = stack.len();
        stack.push(name.to_string());
        drop(stack);
        ProfScope {
            prof: self,
            path,
            depth,
            // ems-lint: allow(wall-clock-randomness, scope timing is observability-only; the duration lands in the span dur_us field, which every deterministic export redacts)
            started: Instant::now(),
            counters: Vec::new(),
            finished: false,
        }
    }
}

/// RAII guard for one profiled scope; see the module docs for what it
/// emits on drop.
#[derive(Debug)]
pub struct ProfScope<'a> {
    prof: &'a Profiler,
    path: String,
    depth: usize,
    started: Instant,
    /// `(key, value)` counters accumulated during the scope, emitted in
    /// registration order.
    counters: Vec<(String, u64)>,
    finished: bool,
}

impl ProfScope<'_> {
    /// The full dotted path of this scope (without the `prof.` prefix).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Adds `value` to the scope counter `key`. Values must be
    /// deterministic functions of the work performed.
    pub fn count(&mut self, key: &str, value: u64) {
        if let Some(entry) = self.counters.iter_mut().find(|(k, _)| k == key) {
            entry.1 += value;
        } else {
            self.counters.push((key.to_string(), value));
        }
    }

    /// Charges an allocation tally as `alloc` / `alloc_bytes` counters.
    pub fn alloc(&mut self, tally: AllocTally) {
        self.count("alloc", tally.allocations);
        self.count("alloc_bytes", tally.bytes);
    }

    /// Ends the scope now and records it.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut stack = self.prof.lock_stack();
        stack.pop();
        drop(stack);
        let rec = &self.prof.recorder;
        // Timing is observability-only: the elapsed duration lands in the
        // isolated span dur_us field and never feeds similarity values.
        let dur = self.started.elapsed();
        rec.span_closed(
            &format!("prof.{}", self.path),
            labels(&[("path", &self.path), ("depth", &self.depth.to_string())]),
            dur,
        );
        for (key, value) in self.counters.drain(..) {
            rec.counter_add(
                &format!("prof.{key}"),
                labels(&[("path", &self.path)]),
                value,
            );
        }
    }
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_obs::Record;

    #[test]
    fn scopes_nest_into_dotted_paths() {
        let rec = Arc::new(Recorder::new());
        let prof = Profiler::new(Arc::clone(&rec));
        {
            let _outer = prof.scope("session");
            {
                let mut inner = prof.scope("model");
                inner.count("rebuilds", 2);
            }
        }
        let records = rec.records();
        // inner closes first: span + counter, then the outer span.
        match &records[0] {
            Record::Span { name, attrs, .. } => {
                assert_eq!(name, "prof.session.model");
                assert!(attrs.contains(&("path".to_string(), "session.model".to_string())));
                assert!(attrs.contains(&("depth".to_string(), "1".to_string())));
            }
            other => panic!("expected span, got {other:?}"),
        }
        match &records[1] {
            Record::Counter {
                name,
                labels,
                value,
            } => {
                assert_eq!(name, "prof.rebuilds");
                assert_eq!(*value, 2);
                assert_eq!(labels[0].1, "session.model");
            }
            other => panic!("expected counter, got {other:?}"),
        }
        match &records[2] {
            Record::Span { name, .. } => assert_eq!(name, "prof.session"),
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate_per_key() {
        let rec = Arc::new(Recorder::new());
        let prof = Profiler::new(Arc::clone(&rec));
        {
            let mut s = prof.scope("work");
            s.count("evals", 3);
            s.count("evals", 4);
            s.count("pairs", 1);
        }
        let counters: Vec<(String, u64)> = rec
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Counter { name, value, .. } => Some((name, value)),
                _ => None,
            })
            .collect();
        assert_eq!(
            counters,
            vec![("prof.evals".to_string(), 7), ("prof.pairs".to_string(), 1)]
        );
    }

    #[test]
    fn redacted_export_is_identical_across_reruns() {
        let run = || {
            let rec = Arc::new(Recorder::new());
            let prof = Profiler::new(Arc::clone(&rec));
            {
                let mut s = prof.scope("engine.run");
                s.count("formula_evals", 1234);
                let inner = prof.scope("retire");
                inner.finish();
            }
            ems_obs::jsonl::write_redacted(&rec.records())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counting_alloc_tallies_logical_capacity() {
        let alloc = CountingAlloc::new();
        let v: Vec<f64> = alloc.vec_with_capacity(100);
        assert_eq!(v.capacity(), 100);
        alloc.charge_bytes(64);
        alloc.charge_elems::<u32>(10);
        let t = alloc.tally();
        assert_eq!(t.allocations, 3);
        assert_eq!(t.bytes, 800 + 64 + 40);
        assert_eq!(alloc.take(), t);
        assert_eq!(alloc.tally(), AllocTally::default());
    }

    #[test]
    fn alloc_tally_feeds_scope_counters() {
        let rec = Arc::new(Recorder::new());
        let prof = Profiler::new(Arc::clone(&rec));
        let mut t = AllocTally::default();
        t.charge_elems::<f64>(8);
        t.charge(16);
        {
            let mut s = prof.scope("setup");
            s.alloc(t);
        }
        let text = ems_obs::jsonl::write(&rec.records());
        assert!(text.contains("prof.alloc_bytes"), "{text}");
        assert!(text.contains("\"value\":80"), "{text}");
    }
}
