//! Cross-crate integration tests: the full pipeline from synthetic log
//! generation through XES round-trips, dependency graphs, EMS similarity,
//! correspondence selection and scoring.

use event_matching::assignment::max_total_assignment;
use event_matching::core::{Ems, EmsParams};
use event_matching::depgraph::DependencyGraph;
use event_matching::eval::score;
use event_matching::events::{EventId, EventLog};
use event_matching::labels::qgram_cosine;
use event_matching::synth::{Dislocation, LogPair, PairConfig, PairGenerator, TreeConfig};
use event_matching::xes::{from_event_log, parse_str, to_event_log, write_string};

fn generate(seed: u64, dislocation: Dislocation, opaque: f64) -> LogPair {
    PairGenerator::new(PairConfig {
        tree: TreeConfig {
            num_activities: 18,
            seed,
            max_branch: 5,
            ..TreeConfig::default()
        },
        traces_per_log: 80,
        seed: seed + 500,
        dislocation,
        opaque_fraction: opaque,
        ..PairConfig::default()
    })
    .generate()
}

fn match_and_score(pair: &LogPair, params: EmsParams) -> f64 {
    let out = Ems::new(params).match_logs(&pair.log1, &pair.log2);
    let sim = &out.similarity;
    let cs = max_total_assignment(sim.rows(), sim.cols(), |i, j| sim.get(i, j), 1e-6);
    let found: Vec<(String, String)> = cs
        .iter()
        .map(|c| {
            (
                pair.log1.name_of(EventId::from_index(c.left)).to_owned(),
                pair.log2.name_of(EventId::from_index(c.right)).to_owned(),
            )
        })
        .collect();
    score(
        pair.truth.iter(),
        found.iter().map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .f_measure
}

#[test]
fn clean_opaque_pair_matches_well() {
    let pair = generate(1, Dislocation::None, 1.0);
    let f = match_and_score(&pair, EmsParams::structural());
    assert!(f > 0.7, "f-measure {f}");
}

#[test]
fn dislocated_pair_still_matches() {
    let pair = generate(4, Dislocation::Front(2), 1.0);
    let f = match_and_score(&pair, EmsParams::structural());
    assert!(f > 0.5, "f-measure {f}");
}

#[test]
fn labels_help_when_names_are_readable() {
    let pair = generate(3, Dislocation::Front(2), 0.0);
    let structural = match_and_score(&pair, EmsParams::structural());
    let labeled = match_and_score(&pair, EmsParams::with_labels(0.5));
    assert!(
        labeled >= structural,
        "labels hurt: {labeled} < {structural}"
    );
    assert!(labeled > 0.9, "readable names should ~solve it: {labeled}");
}

#[test]
fn qgram_label_matrix_is_bit_identical_to_pairwise_cosine() {
    // Half of log 2's names are renamed to opaque tokens.
    let pair = generate(8, Dislocation::None, 0.5);
    let (l1, l2) = (&pair.log1, &pair.log2);
    let labels = Ems::new(EmsParams::with_labels(0.5)).label_matrix(l1, l2);
    assert_eq!(labels.rows(), l1.alphabet_size());
    assert_eq!(labels.cols(), l2.alphabet_size());
    let mut partial = 0;
    for i in 0..labels.rows() {
        for j in 0..labels.cols() {
            let a = l1.name_of(EventId::from_index(i));
            let b = l2.name_of(EventId::from_index(j));
            let want = qgram_cosine(a, b, 3);
            assert_eq!(
                labels.get(i, j).to_bits(),
                want.to_bits(),
                "{a:?} vs {b:?}: matrix {} pairwise {want}",
                labels.get(i, j)
            );
            if want > 0.0 && want < 1.0 {
                partial += 1;
            }
        }
    }
    assert!(partial > 0, "no partly matching labels");
}

#[test]
fn estimation_stays_close_to_exact() {
    let pair = generate(4, Dislocation::Front(1), 1.0);
    let exact = match_and_score(&pair, EmsParams::structural());
    let estimated = match_and_score(&pair, EmsParams::structural().estimated(5));
    assert!(
        (exact - estimated).abs() < 0.25,
        "estimation diverged: exact {exact}, estimated {estimated}"
    );
}

#[test]
fn xes_roundtrip_preserves_matching_results() {
    let pair = generate(5, Dislocation::None, 1.0);
    let rt = |log: &EventLog| -> EventLog {
        to_event_log(&parse_str(&write_string(&from_event_log(log))).expect("roundtrip parse"))
    };
    let log1 = rt(&pair.log1);
    let log2 = rt(&pair.log2);
    let direct = Ems::new(EmsParams::structural()).match_logs(&pair.log1, &pair.log2);
    let roundtripped = Ems::new(EmsParams::structural()).match_logs(&log1, &log2);
    assert!(
        direct.similarity.max_abs_diff(&roundtripped.similarity) < 1e-12,
        "XES round-trip changed similarities"
    );
}

#[test]
fn dependency_graph_is_stable_across_trace_order() {
    let pair = generate(6, Dislocation::None, 1.0);
    let g = DependencyGraph::from_log(&pair.log1);
    // Rebuild from a log with reversed trace order: graphs must be equal.
    let mut reversed = EventLog::new();
    // Intern names in the same id order first so NodeIds align.
    for i in 0..pair.log1.alphabet_size() {
        reversed.intern(pair.log1.name_of(EventId::from_index(i)));
    }
    for t in pair.log1.traces().iter().rev() {
        reversed.push_trace(t.events().iter().map(|&e| pair.log1.name_of(e)));
    }
    let g2 = DependencyGraph::from_log(&reversed);
    assert_eq!(g.num_real(), g2.num_real());
    for v in g.real_nodes() {
        assert!((g.node_frequency(v) - g2.node_frequency(v)).abs() < 1e-12);
    }
    for (a, b, f) in g.real_edges() {
        let f2 = g2.edge_frequency(a, b).expect("edge must exist");
        assert!((f - f2).abs() < 1e-12);
    }
}

#[test]
fn matching_is_deterministic() {
    let pair = generate(7, Dislocation::Front(1), 1.0);
    let a = Ems::new(EmsParams::structural()).match_logs(&pair.log1, &pair.log2);
    let b = Ems::new(EmsParams::structural()).match_logs(&pair.log1, &pair.log2);
    assert_eq!(a.similarity.data(), b.similarity.data());
    // Wall-clock phase times legitimately differ between runs; every
    // work counter must not.
    let mut sa = a.stats.clone();
    let mut sb = b.stats.clone();
    sa.phase_times = Default::default();
    sb.phase_times = Default::default();
    assert_eq!(sa, sb);
}
