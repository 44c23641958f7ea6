//! Every entry point to the EMS pipeline returns the same scores, bit for
//! bit, for the same pair: the one-shot [`Ems`], a [`MatchSession`] (cold,
//! and disk-warm from a durable store), a [`SharedSession`], and the
//! catalog's retrieval score — under the structural, q-gram label and
//! exact-label parameter settings.

use event_matching::catalog::{outcome_score, Catalog};
use event_matching::core::{Ems, EmsParams, MatchOutcome, MatchSession, SharedSession};
use event_matching::store::CatalogStore;
use event_matching::synth::{Dislocation, LogPair, PairConfig, PairGenerator, TreeConfig};
use std::sync::Arc;

/// A half-renamed pair, so the two label measures see both equal and
/// different names.
fn pair() -> LogPair {
    PairGenerator::new(PairConfig {
        tree: TreeConfig {
            num_activities: 14,
            seed: 21,
            ..TreeConfig::default()
        },
        traces_per_log: 40,
        seed: 521,
        dislocation: Dislocation::Front(1),
        opaque_fraction: 0.5,
        ..PairConfig::default()
    })
    .generate()
}

fn assert_bits(got: &MatchOutcome, want: &MatchOutcome, what: &str) {
    for (matrix, a, b) in [
        ("similarity", &got.similarity, &want.similarity),
        ("forward", &got.forward, &want.forward),
        ("backward", &got.backward, &want.backward),
    ] {
        assert_eq!(
            (a.rows(), a.cols()),
            (b.rows(), b.cols()),
            "{what}: {matrix}"
        );
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {matrix} {x} vs {y}");
        }
    }
}

#[test]
fn every_entry_point_returns_bit_identical_scores() {
    let pair = pair();
    let (l1, l2) = (&pair.log1, &pair.log2);
    for (setting, params) in [
        ("structural", EmsParams::structural()),
        ("qgram", EmsParams::with_labels(0.5)),
        ("exact", EmsParams::with_exact_labels(0.5)),
    ] {
        let want = Ems::new(params.clone()).match_logs(l1, l2);

        // A cold session populates the store; a fresh one disk-warms from it.
        let root =
            std::env::temp_dir().join(format!("ems-entry-points-{setting}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(CatalogStore::open(&root).expect("open store"));
        let mut cold = MatchSession::new(params.clone()).with_store(Arc::clone(&store));
        let (h1, h2) = (cold.ingest(l1.clone()), cold.ingest(l2.clone()));
        let got = cold.match_pair(h1, h2).expect("cold session match");
        assert_bits(&got, &want, &format!("{setting}: cold session"));
        let mut warm = MatchSession::new(params.clone()).with_store(store);
        let (h1, h2) = (warm.ingest(l1.clone()), warm.ingest(l2.clone()));
        let got = warm.match_pair(h1, h2).expect("disk-warm session match");
        assert_bits(&got, &want, &format!("{setting}: disk-warm session"));
        let stats = warm.stats();
        assert_eq!(
            stats.graph_builds + stats.substrate_builds + stats.label_builds,
            0,
            "{setting}: the disk-warm session rebuilt a product"
        );
        let _ = std::fs::remove_dir_all(&root);

        let shared = SharedSession::try_new(params.clone()).expect("valid params");
        let got = shared.try_match(l1, l2).expect("shared session match");
        assert_bits(&got, &want, &format!("{setting}: shared session"));

        // The catalog matches the query as log 1 against each reference.
        let mut catalog = Catalog::new(Arc::new(
            SharedSession::try_new(params).expect("valid params"),
        ));
        catalog.add("reference", l2.clone());
        let ranked = catalog
            .query_top_k_opts(l1, 1, false)
            .expect("catalog query")
            .ranked;
        assert_eq!(
            ranked[0].ems_score.to_bits(),
            outcome_score(&want).to_bits(),
            "{setting}: catalog score"
        );
    }
}
