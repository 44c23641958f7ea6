//! Seeded input generation for the three workloads.
//!
//! Every log is a playout of a process tree from `ems-synth`. The trees,
//! sizes and request kinds are fixed by request position, so every seed
//! exercises the same mix; the seed passed to the benchmark draws
//! everything recorded from them — playouts, dropped traces, renamed
//! activities and which query a repeat resubmits — so the same seed
//! writes byte-identical files and different seeds different ones. A
//! pair's matching cost depends mostly on its tree (the assignment's
//! cost especially), so fixing the trees is what keeps the run-to-run
//! spread small. Trees have no loop blocks.

use crate::manifest::{Manifest, Request};
use ems_events::{fingerprint_log, EventLog};
use ems_rng::StdRng;
use ems_synth::{PairConfig, PairGenerator, TreeConfig};
use std::collections::BTreeSet;
use std::path::Path;

/// Workload sizes at one scale (`full` for measurement, `toy` for the
/// self-test).
struct Scale {
    /// `pair-cold`: activity counts cycled by request position.
    pair_sizes: &'static [usize],
    pair_traces: usize,
    pair_pool: usize,
    /// `serve-family`: families x variants near-duplicates plus smaller
    /// decoys (small, so the brute-force oracle stays cheap).
    families: usize,
    variants: usize,
    decoys: usize,
    family_n: usize,
    decoy_n: usize,
    family_traces: usize,
    family_pool: usize,
    /// `serve-mixed`: distinct references, small and large queries.
    mixed_refs: usize,
    mixed_ref_n: usize,
    mixed_small_n: usize,
    mixed_large_n: usize,
    mixed_traces: usize,
    mixed_pool: usize,
    /// Requests the traced run drives, per workload.
    trace_pair: usize,
    trace_family: usize,
    trace_mixed: usize,
}

const FULL: Scale = Scale {
    pair_sizes: &[400, 600, 500, 800, 450, 700, 550, 400],
    pair_traces: 30,
    pair_pool: 48,
    families: 2,
    variants: 3,
    decoys: 14,
    family_n: 300,
    decoy_n: 50,
    family_traces: 30,
    family_pool: 240,
    mixed_refs: 12,
    mixed_ref_n: 150,
    mixed_small_n: 60,
    mixed_large_n: 300,
    mixed_traces: 30,
    mixed_pool: 240,
    trace_pair: 5,
    trace_family: 8,
    trace_mixed: 16,
};

const TOY: Scale = Scale {
    pair_sizes: &[24, 36],
    pair_traces: 12,
    pair_pool: 16,
    families: 2,
    variants: 3,
    decoys: 3,
    family_n: 24,
    decoy_n: 12,
    family_traces: 16,
    family_pool: 24,
    mixed_refs: 6,
    mixed_ref_n: 20,
    mixed_small_n: 10,
    mixed_large_n: 40,
    mixed_traces: 12,
    mixed_pool: 48,
    trace_pair: 2,
    trace_family: 8,
    trace_mixed: 8,
};

/// One `serve-mixed` request in eight is a large log, at this position
/// mod 8.
const LARGE_SLOT: usize = 5;
/// One `serve-family` request in four resubmits an earlier query.
const REPEAT_SLOT: usize = 3;
/// Every this-many-th activity of a family query is renamed opaquely.
const OPAQUE_STRIDE: usize = 12;

pub fn run(workload: &str, seed: u64, dir: &Path, toy: bool) -> Result<(), String> {
    let scale = if toy { &TOY } else { &FULL };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let manifest = match workload {
        "pair-cold" => pair_cold(scale, seed, dir)?,
        "serve-family" => serve_family(scale, seed, dir)?,
        "serve-mixed" => serve_mixed(scale, seed, dir)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    manifest
        .write()
        .map_err(|e| format!("cannot write manifest: {e}"))
}

fn write_log(dir: &Path, file: &str, log: &EventLog) -> Result<String, String> {
    let path = dir.join(file);
    ems_xes::write_file(&ems_xes::from_event_log(log), &path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(file.to_owned())
}

/// The process tree at `position` among the trees of `role`.
fn tree(n: usize, role: u64, position: usize) -> TreeConfig {
    TreeConfig {
        num_activities: n,
        seed: (role << 32) | position as u64,
        max_branch: (n / 4).max(4),
        loop_weight: 0.0,
        ..TreeConfig::default()
    }
}

/// A clean playout of `tree`.
fn process(tree: TreeConfig, traces: usize, playout_seed: u64) -> EventLog {
    PairGenerator::new(PairConfig {
        tree,
        traces_per_log: traces,
        seed: playout_seed,
        ..PairConfig::default()
    })
    .generate()
    .log1
}

/// A recorded variant of `log`: the traces at `drop` removed, activity
/// names moved into `prefix`'s namespace, and every `OPAQUE_STRIDE`-th
/// activity (from `opaque_offset`) renamed to a site-local token.
fn variant(
    log: &EventLog,
    name: &str,
    drop: &[usize],
    prefix: &str,
    opaque_offset: Option<usize>,
) -> EventLog {
    let mut out = EventLog::with_name(name);
    for (i, tr) in log.traces().iter().enumerate() {
        if drop.contains(&i) {
            continue;
        }
        out.push_trace(tr.events().iter().map(|&id| {
            let idx = id.index();
            match opaque_offset {
                Some(o) if idx % OPAQUE_STRIDE == o => format!("{prefix}opaque{idx}"),
                _ => format!("{prefix}{}", log.name_of(id)),
            }
        }));
    }
    out
}

/// A family variant whose content no earlier log has: drop sets are
/// redrawn (a bounded number of times) while the content repeats, since
/// the catalog keeps one reference per content fingerprint and a
/// duplicated "fresh" query would be a disguised repeat.
fn distinct_variant(
    rng: &mut StdRng,
    seen: &mut BTreeSet<u64>,
    log: &EventLog,
    name: &str,
    prefix: &str,
    opaque: bool,
) -> EventLog {
    let mut out = EventLog::new();
    for _ in 0..64 {
        let drop = two_distinct(rng, log.num_traces());
        let offset = opaque.then(|| rng.gen_range(0..OPAQUE_STRIDE));
        out = variant(log, name, &drop, prefix, offset);
        if seen.insert(fingerprint_log(&out)) {
            break;
        }
    }
    out
}

fn two_distinct(rng: &mut StdRng, n: usize) -> [usize; 2] {
    let a = rng.gen_range(0..n);
    let mut b = rng.gen_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    [a, b]
}

fn pair_cold(s: &Scale, seed: u64, dir: &Path) -> Result<Manifest, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a1c_01d5);
    // A minimal pair: `ems match`'s fixed cost per invocation.
    let tiny = PairGenerator::new(PairConfig {
        tree: tree(8, 1, 0),
        traces_per_log: 4,
        seed: rng.next_u64(),
        ..PairConfig::default()
    })
    .generate();
    let tiny_files = vec![
        write_log(dir, "tiny-a.xes", &tiny.log1)?,
        write_log(dir, "tiny-b.xes", &tiny.log2)?,
    ];
    let mut requests = Vec::new();
    for i in 0..s.pair_pool {
        let n = s.pair_sizes[i % s.pair_sizes.len()];
        let pair = PairGenerator::new(PairConfig {
            tree: tree(n, 2, i),
            traces_per_log: s.pair_traces,
            seed: rng.next_u64(),
            xor_jitter: 0.25,
            ..PairConfig::default()
        })
        .generate();
        let mut l1 = pair.log1;
        let mut l2 = pair.log2;
        l1.set_name(format!("pair{i:03}-a"));
        l2.set_name(format!("pair{i:03}-b"));
        let a = write_log(dir, &format!("pair{i:03}-a.xes"), &l1)?;
        let b = write_log(dir, &format!("pair{i:03}-b.xes"), &l2)?;
        requests.push(Request {
            files: vec![a, b],
            k: 0,
        });
    }
    Ok(Manifest {
        dir: dir.to_path_buf(),
        workload: "pair-cold".into(),
        alpha: 1.0,
        exact_labels: false,
        k: 0,
        workers: 1,
        byte_budget: None,
        refs: tiny_files,
        requests,
        trace: (0..s.trace_pair).collect(),
    })
}

fn serve_family(s: &Scale, seed: u64, dir: &Path) -> Result<Manifest, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_1e55);
    let mut bases = Vec::new();
    let mut refs = Vec::new();
    let mut seen = BTreeSet::new();
    for f in 0..s.families {
        let base = process(tree(s.family_n, 3, f), s.family_traces, rng.next_u64());
        for v in 0..s.variants {
            let name = format!("family{f}-v{v}");
            let log = distinct_variant(&mut rng, &mut seen, &base, &name, &format!("f{f}:"), false);
            refs.push(write_log(dir, &format!("{name}.xes"), &log)?);
        }
        bases.push(base);
    }
    for d in 0..s.decoys {
        let base = process(tree(s.decoy_n, 4, d), s.family_traces, rng.next_u64());
        let name = format!("decoy{d}");
        let log = variant(&base, &name, &[], &format!("d{d}:"), None);
        refs.push(write_log(dir, &format!("{name}.xes"), &log)?);
    }
    let mut requests: Vec<Request> = Vec::new();
    for i in 0..s.family_pool {
        if i % 4 == REPEAT_SLOT {
            let fresh: Vec<usize> = (0..i).filter(|j| j % 4 != REPEAT_SLOT).collect();
            let &j = rng.choose(&fresh).ok_or("no earlier query to repeat")?;
            let files = requests[j].files.clone();
            requests.push(Request { files, k: 3 });
            continue;
        }
        // Families take turns, so every seed has the same family mix.
        let f = (i - i / 4) % s.families;
        let name = format!("query{i:03}");
        let prefix = format!("f{f}:");
        let log = distinct_variant(&mut rng, &mut seen, &bases[f], &name, &prefix, true);
        requests.push(Request {
            files: vec![write_log(dir, &format!("{name}.xes"), &log)?],
            k: 3,
        });
    }
    Ok(Manifest {
        dir: dir.to_path_buf(),
        workload: "serve-family".into(),
        alpha: 0.5,
        exact_labels: true,
        k: 3,
        workers: 2,
        byte_budget: None,
        refs,
        requests,
        trace: (0..s.trace_family).collect(),
    })
}

fn serve_mixed(s: &Scale, seed: u64, dir: &Path) -> Result<Manifest, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3f1e_d5ee);
    let mut refs = Vec::new();
    let mut pin_total = 0u64;
    for j in 0..s.mixed_refs {
        let base = process(tree(s.mixed_ref_n, 5, j), s.mixed_traces, rng.next_u64());
        let name = format!("ref{j:02}");
        let log = variant(&base, &name, &[], &format!("r{j}:"), None);
        pin_total += ems_catalog::graph_pin_cost(&ems_depgraph::DependencyGraph::from_log(&log));
        refs.push(write_log(dir, &format!("{name}.xes"), &log)?);
    }
    let mut requests = Vec::new();
    for i in 0..s.mixed_pool {
        let n = if i % 8 == LARGE_SLOT {
            s.mixed_large_n
        } else {
            s.mixed_small_n
        };
        let base = process(tree(n, 6, i), s.mixed_traces, rng.next_u64());
        let name = format!("query{i:03}");
        // A prefix of its own: no two queries share a cache entry.
        let log = variant(&base, &name, &[], &format!("q{i}:"), None);
        requests.push(Request {
            files: vec![write_log(dir, &format!("{name}.xes"), &log)?],
            k: 3,
        });
    }
    Ok(Manifest {
        dir: dir.to_path_buf(),
        workload: "serve-mixed".into(),
        alpha: 0.5,
        exact_labels: false,
        k: 3,
        workers: 2,
        // About half of what pinning every reference would cost, so the
        // LRU evicts and reloads in the middle of queries.
        byte_budget: Some(pin_total / 2),
        refs,
        requests,
        trace: (0..s.trace_mixed).collect(),
    })
}
