//! Byte-identity of the redacted profile export across kernels and thread
//! counts. The profiler/histogram instrumentation rides inside the engine
//! recorder stream, so the determinism contract extends to it: the
//! reference kernel, the serial worklist kernel, and every pooled thread
//! count must emit the *same* record sequence with the same deterministic
//! content — `jsonl::write_redacted` (dur_us and execution-class
//! histograms zeroed) and `prom::write_deterministic` must agree byte for
//! byte. Anything less and a profile diff between two CI runs would show
//! phantom changes that are really scheduling noise.

use ems_core::engine::{Engine, RunOptions};
use ems_core::{Direction, EmsParams};
use ems_depgraph::DependencyGraph;
use ems_labels::LabelMatrix;
use ems_obs::{jsonl, prom, Record, Recorder};
use ems_synth::{PairConfig, PairGenerator, TreeConfig};
use std::sync::Arc;

fn graphs(activities: usize) -> (DependencyGraph, DependencyGraph) {
    let p = PairGenerator::new(PairConfig {
        tree: TreeConfig {
            num_activities: activities,
            seed: 11,
            ..TreeConfig::default()
        },
        traces_per_log: 30,
        seed: 23,
        ..PairConfig::default()
    })
    .generate();
    (
        DependencyGraph::from_log(&p.log1),
        DependencyGraph::from_log(&p.log2),
    )
}

/// Runs one engine configuration with a fresh recorder and returns both
/// deterministic export renderings of the captured records.
fn profiled_exports(engine: &Engine<'_>, reference: bool, threads: usize) -> (String, String) {
    let recorder = Arc::new(Recorder::new());
    let opts = RunOptions {
        threads: Some(threads),
        oversubscribe: true,
        recorder: Some(Arc::clone(&recorder)),
        ..RunOptions::default()
    };
    if reference {
        engine.run_reference(&opts);
    } else {
        engine.run(&opts);
    }
    let records = recorder.records();
    (
        jsonl::write_redacted(&records),
        prom::write_deterministic(&records),
    )
}

#[test]
fn redacted_profile_export_is_identical_across_kernels_and_threads() {
    let (g1, g2) = graphs(24);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);

    let (ref_jsonl, ref_prom) = profiled_exports(&engine, true, 1);
    let (serial_jsonl, serial_prom) = profiled_exports(&engine, false, 1);
    let (pooled_jsonl, pooled_prom) = profiled_exports(&engine, false, 4);

    assert_eq!(
        ref_jsonl, serial_jsonl,
        "reference vs serial redacted trace diverged"
    );
    assert_eq!(
        serial_jsonl, pooled_jsonl,
        "serial vs 4-thread redacted trace diverged"
    );
    assert_eq!(ref_prom, serial_prom);
    assert_eq!(serial_prom, pooled_prom);

    // The export actually carries the profile: spans, profiler counters,
    // and the run-summary histograms all present.
    for needle in [
        "prof.engine.run",
        "\"type\":\"histogram\"",
        "engine.iteration_delta",
        "engine.active_pairs",
        "engine.shard_pairs",
        "formula_evals",
    ] {
        assert!(serial_jsonl.contains(needle), "missing {needle}");
    }
    // Redaction proof: no live duration or execution-histogram content
    // survives into the deterministic exports.
    assert!(!serial_prom.contains("microseconds"), "{serial_prom}");
    for line in serial_jsonl.lines() {
        if line.contains("\"type\":\"span\"") {
            assert!(line.contains("\"dur_us\":0"), "unredacted span: {line}");
        }
        if line.contains("\"det\":false") {
            assert!(
                line.contains("\"count\":0") && line.contains("\"buckets\":[]"),
                "unredacted exec histogram: {line}"
            );
        }
    }
}

#[test]
fn unredacted_trace_differs_only_in_redactable_fields() {
    let (g1, g2) = graphs(16);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);

    let run = |threads: usize| {
        let recorder = Arc::new(Recorder::new());
        let opts = RunOptions {
            threads: Some(threads),
            oversubscribe: true,
            recorder: Some(Arc::clone(&recorder)),
            ..RunOptions::default()
        };
        engine.run(&opts);
        recorder.records()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.len(), b.len(), "record sequences must align 1:1");
    for (ra, rb) in a.iter().zip(&b) {
        match (ra, rb) {
            // Wall time varies; everything else in a span must match.
            (
                Record::Span {
                    name: na,
                    attrs: aa,
                    ..
                },
                Record::Span {
                    name: nb,
                    attrs: ab,
                    ..
                },
            ) => {
                assert_eq!(na, nb);
                assert_eq!(aa, ab);
            }
            // Execution-class histograms (shard layout, latency) may
            // differ in content but never in identity.
            (Record::Histogram(ha), Record::Histogram(hb)) if !ha.deterministic => {
                assert_eq!(ha.name, hb.name);
                assert_eq!(ha.labels, hb.labels);
                assert!(!hb.deterministic);
            }
            _ => assert_eq!(ra, rb, "deterministic record diverged"),
        }
    }
}
