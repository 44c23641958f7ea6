//! Bit-identity properties of the precomputed fixpoint kernel: across
//! random graphs, seeds, budgets and pruning configurations, the worklist
//! kernel must reproduce the reference (seed) implementation *bitwise*, and
//! every thread count must reproduce the serial path bitwise. These are the
//! guarantees that make the `threads` knob a pure wall-clock trade.

use ems_core::engine::{Budget, Engine, RunOptions, RunOutput, RunStats, Seed};
use ems_core::{Direction, EmsParams, SimMatrix};
use ems_depgraph::DependencyGraph;
use ems_labels::LabelMatrix;
use ems_obs::{jsonl, Record, Recorder};
use ems_rng::StdRng;
use std::sync::Arc;

fn random_log(rng: &mut StdRng, alphabet: usize) -> ems_events::EventLog {
    let mut log = ems_events::EventLog::new();
    let traces = rng.gen_range(1..12usize);
    for _ in 0..traces {
        let len = rng.gen_range(1..10usize);
        log.push_trace((0..len).map(|_| format!("e{}", rng.gen_range(0..alphabet))));
    }
    log
}

fn random_graph_pair(rng: &mut StdRng) -> (DependencyGraph, DependencyGraph) {
    let alphabet = rng.gen_range(3..9usize);
    (
        DependencyGraph::from_log(&random_log(rng, alphabet)),
        DependencyGraph::from_log(&random_log(rng, alphabet)),
    )
}

fn random_params(rng: &mut StdRng) -> EmsParams {
    let mut p = if rng.gen_bool(0.5) {
        EmsParams::structural()
    } else {
        EmsParams::with_labels(0.7)
    };
    if rng.gen_bool(0.3) {
        p = p.without_pruning();
    }
    if rng.gen_bool(0.3) {
        p = p.estimated(rng.gen_range(0..4usize));
    }
    p
}

fn random_options(rng: &mut StdRng, n1: usize, n2: usize) -> RunOptions {
    let mut opts = RunOptions::default();
    if rng.gen_bool(0.3) {
        opts.budget = Budget {
            max_iterations: Some(rng.gen_range(0..6usize)),
            ..Budget::default()
        };
    }
    if rng.gen_bool(0.3) {
        // Extreme thresholds only: a mid-range threshold makes the abort
        // decision depend on the last bits of a full-matrix sum, which the
        // kernel intentionally computes with better rounding than the
        // reference (compensated vs naive) — decision parity near the
        // boundary is not part of the bit-identity contract.
        opts.abort_below = Some(if rng.gen_bool(0.5) { 0.0 } else { 0.99 });
    }
    if n1 * n2 > 0 && rng.gen_bool(0.3) {
        let mut values = SimMatrix::zeros(n1, n2);
        let mut frozen = vec![false; n1 * n2];
        for (k, slot) in frozen.iter_mut().enumerate() {
            if rng.gen_bool(0.2) {
                *slot = true;
                values.set(k / n2, k % n2, rng.gen::<f64>());
            }
        }
        opts.seed = Some(Seed { values, frozen });
    }
    opts
}

fn assert_bitwise(a: &SimMatrix, b: &SimMatrix, what: &str) {
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
    }
}

fn assert_same_work(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.formula_evals, b.formula_evals, "{what}: formula_evals");
    assert_eq!(a.pruned_evals, b.pruned_evals, "{what}: pruned_evals");
    assert_eq!(a.frozen_evals, b.frozen_evals, "{what}: frozen_evals");
    assert_eq!(a.estimated_pairs, b.estimated_pairs, "{what}: estimated");
    assert_eq!(a.aborted, b.aborted, "{what}: aborted");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded");
}

/// The worklist kernel is bitwise-equal to the reference implementation
/// across random graphs, parameters, budgets, seeds and both directions.
#[test]
#[cfg_attr(miri, ignore)] // 60 random fixpoint cases: minutes under interpretation
fn kernel_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xD01);
    for case in 0..60 {
        let (g1, g2) = random_graph_pair(&mut rng);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let params = random_params(&mut rng);
        let opts = random_options(&mut rng, g1.num_real(), g2.num_real());
        for direction in [Direction::Forward, Direction::Backward] {
            let engine = Engine::new(&g1, &g2, &labels, &params, direction);
            let reference = engine.run_reference(&opts);
            let kernel = engine.run(&opts);
            assert_bitwise(&reference.sim, &kernel.sim, &format!("case {case}"));
            assert_same_work(&reference.stats, &kernel.stats, &format!("case {case}"));
        }
    }
}

/// `threads = 1` and `threads = N` produce bit-identical similarity
/// matrices and identical work counters (including `iterations`).
#[test]
#[cfg_attr(miri, ignore)] // 40 random multi-thread cases: minutes under interpretation
fn thread_count_never_changes_results() {
    let mut rng = StdRng::seed_from_u64(0xD02);
    for case in 0..40 {
        let (g1, g2) = random_graph_pair(&mut rng);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let params = random_params(&mut rng);
        let base = random_options(&mut rng, g1.num_real(), g2.num_real());
        let direction = if rng.gen_bool(0.5) {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let engine = Engine::new(&g1, &g2, &labels, &params, direction);
        let serial = engine.run(&RunOptions {
            threads: Some(1),
            ..base.clone()
        });
        for n in [2usize, 4, 7] {
            let parallel = engine.run(&RunOptions {
                threads: Some(n),
                oversubscribe: true,
                ..base.clone()
            });
            assert_bitwise(
                &serial.sim,
                &parallel.sim,
                &format!("case {case}, {n} threads"),
            );
            assert_same_work(
                &serial.stats,
                &parallel.stats,
                &format!("case {case}, {n} threads"),
            );
        }
    }
}

/// A grid large enough to clear the parallel threshold still agrees
/// bitwise between 1 and 8 threads — this exercises the sharded path with
/// real thread spawns rather than the small-grid serial fallback.
#[test]
#[cfg_attr(miri, ignore)] // large-grid thread spawns: minutes under interpretation
fn large_grid_parallel_path_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xD03);
    let mut big_log = |alphabet: usize| {
        let mut log = ems_events::EventLog::new();
        for _ in 0..40 {
            let len = rng.gen_range(4..16usize);
            log.push_trace((0..len).map(|_| format!("a{}", rng.gen_range(0..alphabet))));
        }
        log
    };
    let g1 = DependencyGraph::from_log(&big_log(70));
    let g2 = DependencyGraph::from_log(&big_log(80));
    assert!(
        g1.num_real() * g2.num_real() >= 4096,
        "grid too small to cross PAR_MIN_PAIRS"
    );
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let serial = engine.run(&RunOptions {
        threads: Some(1),
        ..RunOptions::default()
    });
    let parallel = engine.run(&RunOptions {
        threads: Some(8),
        oversubscribe: true,
        ..RunOptions::default()
    });
    assert_bitwise(&serial.sim, &parallel.sim, "large grid");
    assert_same_work(&serial.stats, &parallel.stats, "large grid");
    assert!(serial.stats.iterations > 0);
}

/// The golden-trace contract extends to the worker pool: the redacted
/// telemetry of a run sharded across a 4-worker pool is byte-identical to
/// the serial run's trace, and the scores are checked bitwise alongside.
#[test]
#[cfg_attr(miri, ignore)] // large-grid thread spawns: minutes under interpretation
fn golden_trace_is_identical_for_serial_and_pooled_kernels() {
    let mut rng = StdRng::seed_from_u64(0xD06);
    let mut big_log = |alphabet: usize| {
        let mut log = ems_events::EventLog::new();
        for _ in 0..40 {
            let len = rng.gen_range(4..16usize);
            log.push_trace((0..len).map(|_| format!("a{}", rng.gen_range(0..alphabet))));
        }
        log
    };
    let g1 = DependencyGraph::from_log(&big_log(70));
    let g2 = DependencyGraph::from_log(&big_log(80));
    assert!(
        g1.num_real() * g2.num_real() >= 4096,
        "grid too small to cross the pairs-per-shard floor"
    );
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let (serial, serial_records) = run_traced(&engine, 1);
    let (pooled, pooled_records) = run_traced(&engine, 4);
    let trace_serial = jsonl::write_redacted(&serial_records);
    assert_bitwise(&serial.sim, &pooled.sim, "1 vs 4 threads");
    assert_eq!(
        trace_serial,
        jsonl::write_redacted(&pooled_records),
        "trace 1 vs 4 threads"
    );
    assert!(trace_serial.contains("\"type\":\"iteration\""));
    // The pooled run really used the pool.
    assert!(pooled.stats.pool_shards > 1, "pool never sharded");
}

/// Runs `engine` at `threads` workers with a fresh recorder; returns the
/// output and the recorded telemetry.
fn run_traced(engine: &Engine<'_>, threads: usize) -> (RunOutput, Vec<Record>) {
    let rec = Arc::new(Recorder::new());
    let out = engine.run(&RunOptions {
        threads: Some(threads),
        oversubscribe: true,
        recorder: Some(Arc::clone(&rec)),
        ..RunOptions::default()
    });
    (out, rec.records())
}

/// Proposition-2 retirement shrinks the worklist *below* the
/// pairs-per-shard floor mid-run, forcing the pool back onto the serial
/// fast path while workers are still parked — results, work counters and
/// telemetry must stay identical between 1 and 4 threads through that
/// transition.
#[test]
#[cfg_attr(miri, ignore)] // large-grid thread spawns: minutes under interpretation
fn pool_survives_worklist_collapse_mid_run() {
    // Every trace is an increasing subsequence of one activity order, so
    // both graphs are acyclic and every pair has a finite horizon
    // h = min(l(v1), l(v2)): the worklist starts as the whole grid and
    // iteration i retires the pairs with h < i.
    let mut rng = StdRng::seed_from_u64(0xD07);
    let mut ordered_log = |alphabet: usize| {
        let mut log = ems_events::EventLog::new();
        for _ in 0..40 {
            log.push_trace(
                (0..alphabet)
                    .filter(|_| rng.gen_bool(0.8))
                    .map(|a| format!("a{a}")),
            );
        }
        log
    };
    let g1 = DependencyGraph::from_log(&ordered_log(90));
    let g2 = DependencyGraph::from_log(&ordered_log(100));
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    // A tight epsilon keeps the run iterating until retirement has
    // thinned the worklist to a handful of pairs.
    let mut params = EmsParams::structural();
    params.epsilon = 1e-12;
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let (serial, serial_records) = run_traced(&engine, 1);
    let (pooled, pooled_records) = run_traced(&engine, 4);

    // The kernel's pairs-per-shard floor.
    const FLOOR: usize = 4096;
    let active: Vec<usize> = serial_records
        .iter()
        .filter_map(|r| match r {
            Record::Iteration(it) => Some(it.active_pairs),
            _ => None,
        })
        .collect();
    assert!(
        active.first().is_some_and(|&a| a > FLOOR),
        "the first iteration must shard: {active:?}"
    );
    assert!(
        active.iter().any(|&a| a > 0 && a < FLOOR),
        "retirement never took the worklist under the floor: {active:?}"
    );
    assert!(pooled.stats.pool_shards > 1, "pool never sharded");
    assert_bitwise(&serial.sim, &pooled.sim, "worklist collapse");
    assert_same_work(&serial.stats, &pooled.stats, "worklist collapse");
    assert_eq!(
        jsonl::write_redacted(&serial_records),
        jsonl::write_redacted(&pooled_records),
        "worklist collapse trace"
    );
}
