//! Interleaving tests for the engine's two shared-state mechanisms — the
//! `Mutex<DenseScratch>` buffer reuse (`try_lock` with local fallback) and
//! the active-pair worklist's retire-exactly-once accounting — and for the
//! session's `RwLock`ed stage caches, with and without a durable store.
//!
//! The workspace carries no loom-style model checker (no external deps), so
//! these are scheduled-interleaving tests in its spirit: many rounds of
//! barrier-aligned concurrent runs with per-thread schedule perturbation
//! (spin/yield skew) to sweep distinct lock-acquisition orders. The
//! correctness claim under test is strong enough to survive the weaker
//! exploration: *whichever* thread wins the scratch lock, every concurrent
//! run must be bit-identical to the serial baseline, and the worklist
//! counters must account for every pair exactly once per iteration.

use ems_core::engine::{Budget, Engine, RunOptions, RunStats, Seed};
use ems_core::{Direction, EmsParams, MatchOutcome, SharedSession, SimMatrix};
use ems_depgraph::DependencyGraph;
use ems_events::EventLog;
use ems_labels::LabelMatrix;
use ems_rng::StdRng;
use ems_store::CatalogStore;
use std::sync::{Arc, Barrier};

fn random_log(rng: &mut StdRng, alphabet: usize) -> ems_events::EventLog {
    let mut log = ems_events::EventLog::new();
    let traces = rng.gen_range(2..10usize);
    for _ in 0..traces {
        let len = rng.gen_range(2..9usize);
        log.push_trace((0..len).map(|_| format!("e{}", rng.gen_range(0..alphabet))));
    }
    log
}

fn graph_pair(seed: u64) -> (DependencyGraph, DependencyGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = rng.gen_range(4..9usize);
    (
        DependencyGraph::from_log(&random_log(&mut rng, alphabet)),
        DependencyGraph::from_log(&random_log(&mut rng, alphabet)),
    )
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
    assert_eq!(a.aborted, b.aborted, "{what}: aborted");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded");
}

/// Concurrent `run`s on one shared engine race for the dense scratch
/// buffers: the `try_lock` winner mutates the retained `DenseScratch`
/// in place while every loser falls back to a fresh local one. Across
/// barrier-aligned rounds with skewed schedules, every thread must still
/// reproduce the serial baseline bitwise — the scratch is a pure cache,
/// never state.
#[test]
#[cfg_attr(miri, ignore)] // spawns many threads over many rounds; minutes under miri
fn concurrent_runs_share_scratch_without_affecting_results() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 25;
    let (g1, g2) = graph_pair(0xC0C0);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let opts = RunOptions::default();
    let baseline = engine.run(&opts);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let baseline = &baseline;
            let barrier = &barrier;
            let opts = opts.clone();
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    // Schedule perturbation: vary which thread reaches
                    // `try_lock` first so both the guard-held and the
                    // local-fallback paths are exercised.
                    for _ in 0..((t * round) % 7) {
                        std::thread::yield_now();
                    }
                    let out = engine.run(&opts);
                    assert_bitwise(
                        &baseline.sim,
                        &out.sim,
                        &format!("thread {t}, round {round}"),
                    );
                    assert_same_work(
                        &baseline.stats,
                        &out.stats,
                        &format!("thread {t}, round {round}"),
                    );
                }
            });
        }
    });
}

/// The scratch cache must also be inert across *heterogeneous* concurrent
/// runs: threads hammer the same engine with different thread counts,
/// budgets and seeds, each checking against its own serial baseline. A
/// scratch buffer leaking state between differently-shaped runs would
/// surface here as a bitwise divergence.
#[test]
#[cfg_attr(miri, ignore)] // spawns many threads over many rounds; minutes under miri
fn heterogeneous_concurrent_runs_stay_bit_identical() {
    let (g1, g2) = graph_pair(0xC0C1);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::with_labels(0.7);
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Backward);

    let n1 = g1.num_real();
    let n2 = g2.num_real();
    let mut seeded = SimMatrix::zeros(n1, n2);
    let mut frozen = vec![false; n1 * n2];
    let mut rng = StdRng::seed_from_u64(0xC0C2);
    for (k, slot) in frozen.iter_mut().enumerate() {
        if rng.gen_bool(0.2) {
            *slot = true;
            seeded.set(k / n2, k % n2, rng.gen::<f64>());
        }
    }
    let variants: Vec<RunOptions> = vec![
        RunOptions::default(),
        RunOptions {
            threads: Some(4),
            oversubscribe: true,
            ..RunOptions::default()
        },
        RunOptions {
            budget: Budget {
                max_iterations: Some(3),
                ..Budget::default()
            },
            ..RunOptions::default()
        },
        RunOptions {
            seed: Some(Seed {
                values: seeded,
                frozen,
            }),
            ..RunOptions::default()
        },
    ];
    let baselines: Vec<_> = variants.iter().map(|o| engine.run(o)).collect();

    let barrier = Barrier::new(variants.len());
    std::thread::scope(|scope| {
        for (t, (opts, baseline)) in variants.iter().zip(&baselines).enumerate() {
            let engine = &engine;
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..20 {
                    barrier.wait();
                    for _ in 0..((t + round) % 5) {
                        std::thread::yield_now();
                    }
                    let out = engine.run(opts);
                    assert_bitwise(
                        &baseline.sim,
                        &out.sim,
                        &format!("variant {t}, round {round}"),
                    );
                    assert_same_work(
                        &baseline.stats,
                        &out.stats,
                        &format!("variant {t}, round {round}"),
                    );
                }
            });
        }
    });
}

/// Retire-exactly-once, phrased as an accounting identity over the public
/// counters: per iteration every pair is exactly one of evaluated
/// (`formula_evals`), retired (`pruned_evals`) or frozen (`frozen_evals`),
/// so the three must sum to `iterations × n1 × n2`. A pair retired twice
/// (double `retain` removal, stale `retired_count`) or resurrected breaks
/// the identity.
#[test]
fn worklist_accounting_covers_every_pair_exactly_once() {
    for seed in [0xA1u64, 0xA2, 0xA3, 0xA4, 0xA5] {
        let (g1, g2) = graph_pair(seed);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let params = EmsParams::structural(); // pruning on by default
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions::default());
        let grid = (g1.num_real() * g2.num_real()) as u64;
        let per_iteration_total = out.stats.iterations as u64 * grid;
        assert_eq!(
            out.stats.formula_evals + out.stats.pruned_evals + out.stats.frozen_evals,
            per_iteration_total,
            "seed {seed:#x}: accounting identity (evaluated + retired + frozen)"
        );
        // And the identity must match the reference implementation's
        // full-grid bookkeeping exactly.
        let reference = engine.run_reference(&RunOptions::default());
        assert_same_work(&reference.stats, &out.stats, &format!("seed {seed:#x}"));
    }
}

/// Same identity under a frozen seed: frozen pairs leave the worklist
/// before iteration 1 and must be counted as frozen every iteration,
/// never double-counted as retired.
#[test]
fn worklist_accounting_holds_with_frozen_pairs() {
    let (g1, g2) = graph_pair(0xB7);
    let n1 = g1.num_real();
    let n2 = g2.num_real();
    let labels = LabelMatrix::zeros(n1, n2);
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);

    let mut values = SimMatrix::zeros(n1, n2);
    let mut frozen = vec![false; n1 * n2];
    let mut rng = StdRng::seed_from_u64(0xB8);
    for (k, slot) in frozen.iter_mut().enumerate() {
        if rng.gen_bool(0.3) {
            *slot = true;
            values.set(k / n2, k % n2, rng.gen::<f64>());
        }
    }
    let opts = RunOptions {
        seed: Some(Seed { values, frozen }),
        ..RunOptions::default()
    };
    let out = engine.run(&opts);
    let grid = (n1 * n2) as u64;
    assert_eq!(
        out.stats.formula_evals + out.stats.pruned_evals + out.stats.frozen_evals,
        out.stats.iterations as u64 * grid,
        "accounting identity with frozen pairs"
    );
    let reference = engine.run_reference(&opts);
    assert_same_work(&reference.stats, &out.stats, "frozen-seed run");
}

/// Acyclic logs with distinct names, so every pair has a finite
/// Proposition-2 horizon.
fn session_logs() -> (EventLog, EventLog) {
    let mut l1 = EventLog::new();
    l1.push_trace(["cash", "validate", "ship"]);
    l1.push_trace(["cash", "validate", "ship"]);
    l1.push_trace(["card", "validate", "ship"]);
    let mut l2 = EventLog::new();
    l2.push_trace(["e0", "e1", "e3", "e4"]);
    l2.push_trace(["e0", "e2", "e3", "e4"]);
    (l1, l2)
}

fn exact_params() -> EmsParams {
    EmsParams {
        epsilon: 1e-300,
        ..EmsParams::structural()
    }
}

#[test]
fn concurrent_queries_are_bit_identical_to_serial() {
    let (l1, l2) = session_logs();
    let serial = {
        let shared = SharedSession::try_new(exact_params()).unwrap();
        shared.try_match(&l1, &l2).unwrap()
    };
    let shared = SharedSession::try_new(exact_params()).unwrap();
    let outcomes: Vec<MatchOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| shared.try_match(&l1, &l2).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for out in &outcomes {
        assert_eq!(out.similarity.max_abs_diff(&serial.similarity), 0.0);
    }
    // However the race resolved, the sum of builds and outcome-cache
    // hits accounts for all eight queries.
    let stats = shared.stats();
    assert!(stats.graph_builds >= 2);
    assert!(stats.outcome_cache_hits <= 7);
}

/// Eight threads walk every ordered pair of four random logs, each from
/// its own starting offset, through one session with a durable store:
/// graph, substrate, label and outcome inserts race, and so do snapshot
/// reads and writes of the same keys. Every outcome must be bit-identical
/// to the serial one-shot match of its pair, and a fresh session over the
/// store the race left behind must reproduce them too.
#[test]
#[cfg_attr(miri, ignore)] // real file I/O
fn concurrent_mixed_pairs_through_a_stored_session_are_bit_identical() {
    const THREADS: usize = 8;
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let logs: Vec<EventLog> = (0..4).map(|_| random_log(&mut rng, 7)).collect();
    let pairs: Vec<(usize, usize)> = (0..logs.len())
        .flat_map(|i| {
            (0..logs.len())
                .filter(move |&j| j != i)
                .map(move |j| (i, j))
        })
        .collect();
    let serial: Vec<MatchOutcome> = pairs
        .iter()
        .map(|&(i, j)| ems_core::Ems::new(exact_params()).match_logs(&logs[i], &logs[j]))
        .collect();
    let check = |out: &MatchOutcome, p: usize, what: &str| {
        assert_bitwise(&out.similarity, &serial[p].similarity, what);
        assert_bitwise(&out.forward, &serial[p].forward, what);
        assert_bitwise(&out.backward, &serial[p].backward, what);
    };

    let root = std::env::temp_dir().join(format!("ems-concurrent-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(CatalogStore::open(&root).unwrap());
    let shared = SharedSession::try_new(exact_params())
        .unwrap()
        .with_store(Arc::clone(&store));
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (shared, logs, pairs, barrier, check) = (&shared, &logs, &pairs, &barrier, &check);
            scope.spawn(move || {
                barrier.wait();
                for k in 0..pairs.len() {
                    let p = (t + k) % pairs.len();
                    let (i, j) = pairs[p];
                    let out = shared.try_match(&logs[i], &logs[j]).unwrap();
                    check(&out, p, &format!("thread {t}, pair {i}->{j}"));
                }
            });
        }
    });
    // Each pair was solved at least once and each graph built at least
    // once (the store started empty), however the races resolved.
    let stats = shared.stats();
    assert!(stats.outcome_cache_hits <= ((THREADS - 1) * pairs.len()) as u64);
    assert!(stats.graph_builds >= logs.len() as u64);
    // Racing puts of one key write distinct temp files, so none of them
    // fails and no reader ever sees a torn image at the final path.
    assert_eq!(stats.store_write_failures, 0, "store write failures");
    assert_eq!(stats.store_quarantines, 0, "store quarantines");
    let store_stats = store.stats();
    assert_eq!(store_stats.write_failures, 0, "store write failures");
    assert_eq!(store_stats.quarantined, 0, "store quarantines");

    let fresh = SharedSession::try_new(exact_params())
        .unwrap()
        .with_store(store);
    for (p, &(i, j)) in pairs.iter().enumerate() {
        let out = fresh.try_match(&logs[i], &logs[j]).unwrap();
        check(&out, p, &format!("disk-warm pair {i}->{j}"));
    }
    let _ = std::fs::remove_dir_all(&root);
}
