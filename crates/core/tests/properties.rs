//! Randomized property tests of the EMS similarity engine's theoretical
//! guarantees: Theorem 1 (monotone, bounded convergence), Proposition 2
//! (early convergence), Lemma 5 / Proposition 6 (upper bounds) and the
//! estimation bounds — all checked on randomly generated event-log pairs
//! driven by the deterministic `ems-rng` generator.

use ems_core::engine::{Engine, RunOptions};
use ems_core::{Direction, Ems, EmsParams, SimMatrix};
use ems_depgraph::DependencyGraph;
use ems_labels::LabelMatrix;
use ems_obs::{Record, Recorder};
use ems_rng::StdRng;
use std::sync::Arc;

fn random_traces(rng: &mut StdRng) -> Vec<Vec<usize>> {
    let n = rng.gen_range(1..10usize);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..8usize);
            (0..len).map(|_| rng.gen_range(0..6usize)).collect()
        })
        .collect()
}

fn build_log(ts: &[Vec<usize>]) -> ems_events::EventLog {
    let mut log = ems_events::EventLog::new();
    for t in ts {
        log.push_trace(t.iter().map(|i| format!("e{i}")));
    }
    log
}

/// A pair of small logs over a shared-ish alphabet.
fn random_log_pair(rng: &mut StdRng) -> (ems_events::EventLog, ems_events::EventLog) {
    (
        build_log(&random_traces(rng)),
        build_log(&random_traces(rng)),
    )
}

fn run_rounds(
    g1: &DependencyGraph,
    g2: &DependencyGraph,
    rounds: usize,
    pruning: bool,
) -> SimMatrix {
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let mut params = EmsParams::structural();
    params.max_iterations = rounds.max(1);
    params.epsilon = 1e-12;
    if !pruning {
        params = params.without_pruning();
    }
    Engine::new(g1, g2, &labels, &params, Direction::Forward)
        .run(&RunOptions::default())
        .sim
}

/// Theorem 1: iteration is monotone and bounded in [0, 1].
#[test]
fn similarity_is_monotone_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0xC01);
    for _ in 0..32 {
        let (l1, l2) = random_log_pair(&mut rng);
        let g1 = DependencyGraph::from_log(&l1);
        let g2 = DependencyGraph::from_log(&l2);
        let mut prev = SimMatrix::zeros(g1.num_real(), g2.num_real());
        for rounds in 1..=5 {
            let cur = run_rounds(&g1, &g2, rounds, false);
            for (i, j, v) in cur.iter() {
                assert!((0.0..=1.0).contains(&v), "({i},{j}) = {v}");
                assert!(
                    v + 1e-9 >= prev.get(i, j),
                    "monotonicity violated at ({i},{j}): {v} < {}",
                    prev.get(i, j)
                );
            }
            prev = cur;
        }
    }
}

/// Lemma 5: per-iteration growth is bounded by (αc)^n.
#[test]
fn growth_bound_holds() {
    let mut rng = StdRng::seed_from_u64(0xC02);
    for _ in 0..32 {
        let (l1, l2) = random_log_pair(&mut rng);
        let g1 = DependencyGraph::from_log(&l1);
        let g2 = DependencyGraph::from_log(&l2);
        let mut prev = SimMatrix::zeros(g1.num_real(), g2.num_real());
        for n in 1..=5usize {
            let cur = run_rounds(&g1, &g2, n, false);
            let bound = 0.8f64.powi(n as i32) + 1e-9;
            for (i, j, v) in cur.iter() {
                assert!(
                    v - prev.get(i, j) <= bound,
                    "iteration {n}: growth {} > {bound}",
                    v - prev.get(i, j)
                );
            }
            prev = cur;
        }
    }
}

/// Proposition 2 / pruning soundness: the pruned computation reaches the
/// same fixpoint as the unpruned one.
#[test]
fn pruning_is_sound() {
    let mut rng = StdRng::seed_from_u64(0xC03);
    for _ in 0..32 {
        let (l1, l2) = random_log_pair(&mut rng);
        let g1 = DependencyGraph::from_log(&l1);
        let g2 = DependencyGraph::from_log(&l2);
        let with = run_rounds(&g1, &g2, 60, true);
        let without = run_rounds(&g1, &g2, 60, false);
        assert!(
            with.max_abs_diff(&without) < 1e-6,
            "pruning changed the fixpoint by {}",
            with.max_abs_diff(&without)
        );
    }
}

/// Proposition 6: the limit never exceeds the upper bound computed from
/// any intermediate iteration.
#[test]
fn upper_bounds_dominate_the_limit() {
    let mut rng = StdRng::seed_from_u64(0xC04);
    for _ in 0..16 {
        let (l1, l2) = random_log_pair(&mut rng);
        let g1 = DependencyGraph::from_log(&l1);
        let g2 = DependencyGraph::from_log(&l2);
        let limit = run_rounds(&g1, &g2, 80, false);
        for k in [1usize, 2, 4] {
            let at_k = run_rounds(&g1, &g2, k, false);
            for (i, j, v) in limit.iter() {
                let bound = ems_core::bounds::general_upper_bound(at_k.get(i, j), k, 1.0, 0.8);
                assert!(
                    v <= bound + 1e-9,
                    "limit {v} exceeds bound {bound} from k={k} at ({i},{j})"
                );
            }
        }
    }
}

/// A-posteriori contraction bound: formula (1) is an αc-contraction in
/// the max norm and iterates from zero rise monotonically (Theorem 1), so
/// iteration K's max delta Δ_K brackets the limit entrywise:
/// S^K ≤ S* ≤ S^K + αc/(1−αc)·Δ_K. Checked for α = 1 and for α = 0.5
/// with a random label matrix, with pruning on and off, in both
/// directions, for K = 1..12; S* is a run to ε = 1e-13.
#[test]
fn contraction_bound_brackets_the_limit() {
    const SLACK: f64 = 1e-11;
    let mut rng = StdRng::seed_from_u64(0xC07);
    for case in 0..24 {
        let (l1, l2) = random_log_pair(&mut rng);
        let g1 = DependencyGraph::from_log(&l1);
        let g2 = DependencyGraph::from_log(&l2);
        let (n1, n2) = (g1.num_real(), g2.num_real());
        let random_labels = (0..n1 * n2).map(|_| rng.gen::<f64>()).collect();
        for (alpha, labels) in [
            (1.0, LabelMatrix::zeros(n1, n2)),
            (0.5, LabelMatrix::from_raw(n1, n2, random_labels)),
        ] {
            for pruning in [true, false] {
                for direction in [Direction::Forward, Direction::Backward] {
                    let params = |max_iterations: usize, epsilon: f64| EmsParams {
                        pruning,
                        max_iterations,
                        epsilon,
                        ..EmsParams::with_labels(alpha)
                    };
                    let limit_params = params(1000, 1e-13);
                    let limit = Engine::new(&g1, &g2, &labels, &limit_params, direction)
                        .run(&RunOptions::default())
                        .sim;
                    let ac = alpha * limit_params.c;
                    let factor = ac / (1.0 - ac);
                    for k in 1..=12usize {
                        let k_params = params(k, 1e-300);
                        let rec = Arc::new(Recorder::new());
                        let at_k = Engine::new(&g1, &g2, &labels, &k_params, direction)
                            .run(&RunOptions {
                                recorder: Some(Arc::clone(&rec)),
                                ..RunOptions::default()
                            })
                            .sim;
                        // With pruning the run may stop before K once
                        // every pair is past its horizon; its last
                        // iteration is then the one that certifies it.
                        let delta_k = rec
                            .records()
                            .iter()
                            .rev()
                            .find_map(|r| match r {
                                Record::Iteration(it) => Some(it.max_delta),
                                _ => None,
                            })
                            .expect("every run iterates at least once");
                        for (i, j, v) in limit.iter() {
                            let lo = at_k.get(i, j);
                            let hi = lo + factor * delta_k;
                            let what = format!(
                                "case {case}, α={alpha}, pruning={pruning}, \
                                 {direction:?}, K={k} at ({i},{j})"
                            );
                            assert!(lo <= v + SLACK, "{what}: S^K {lo} > S* {v}");
                            assert!(v <= hi + SLACK, "{what}: S* {v} > bound {hi}");
                        }
                    }
                }
            }
        }
    }
}

/// Matching a log against itself yields a symmetric matrix: Definition 2
/// averages s(v1,v2) and s(v2,v1), so identical graphs make S symmetric.
/// (Note: unlike SimRank, EMS does NOT guarantee the diagonal dominates
/// each row — self-similarity is not pinned to 1.)
#[test]
fn self_match_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(0xC05);
    for _ in 0..32 {
        let n = rng.gen_range(2..8usize);
        let ts: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(2..8usize);
                (0..len).map(|_| rng.gen_range(0..5usize)).collect()
            })
            .collect();
        let log = build_log(&ts);
        let out = Ems::new(EmsParams::structural()).match_logs(&log, &log);
        let sim = &out.similarity;
        for i in 0..sim.rows() {
            for j in 0..sim.cols() {
                assert!(
                    (sim.get(i, j) - sim.get(j, i)).abs() < 1e-9,
                    "asymmetric self-match at ({i},{j}): {} vs {}",
                    sim.get(i, j),
                    sim.get(j, i)
                );
            }
        }
    }
}

/// Estimation yields values in range and exact values where horizons are
/// reached.
#[test]
fn estimation_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0xC06);
    for _ in 0..32 {
        let (l1, l2) = random_log_pair(&mut rng);
        let i = rng.gen_range(0..6usize);
        let params = EmsParams::structural().estimated(i);
        let out = Ems::new(params).match_logs(&l1, &l2);
        for (_, _, v) in out.similarity.iter() {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
