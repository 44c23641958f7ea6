//! The traced run: drives a workload's traced requests in-process through
//! each layer's public functions, with one span tree per request.
//!
//! Spans are kept in memory and written at the end as `ems-trace/1`
//! records through `ems-obs` (attributes `req`, `id`, `parent`,
//! `start_us`), next to the counters the program's own components record
//! into the same [`Recorder`]. Nothing inside the program is instrumented:
//! every span wraps a public call made from this file.
//!
//! * `pair-cold` runs the staged pipeline `ems match` runs — parse,
//!   fingerprint, graph, substrates, labels, both fixpoints, aggregation,
//!   assignment — and its output must equal what `ems match` printed.
//! * The serve workloads call what `ems serve` calls — parse, fingerprint,
//!   `SharedSession::graph_keyed`, `Catalog::query_top_k_opts` — on a
//!   catalog built the way `ems serve` builds it. The solves inside the
//!   query cannot be wrapped, so afterwards the trace recomputes the
//!   planner's bound order (`GraphSketch::of`, `score_upper_bound`) and
//!   re-runs every evaluated pair's stages through public calls
//!   (`EngineSubstrate::build`, `Ems::label_matrix`,
//!   `Engine::try_with_substrate(..).try_run`, `Aggregation::combine`),
//!   with the snapshot writes and eviction reloads the store performed.
//!   Each re-run score must be bit-identical to the served score.
//!
//! The whole pass runs twice on fresh state; the exact work counts must
//! repeat, or the run fails.

use crate::manifest::{load_log, Manifest};
use crate::oracle::{correspondence_lines, MIN_SCORE};
use crate::served::{self, Served};
use ems_assignment::max_total_assignment;
use ems_catalog::{outcome_score, Catalog, QueryOutcome};
use ems_core::engine::{Engine, RunOutput};
use ems_core::persist;
use ems_core::{
    Aggregation, Direction, Ems, EmsParams, EngineSubstrate, LabelMeasure, MatchOutcome,
    RunOptions, SharedSession, SimMatrix,
};
use ems_depgraph::{BoundCombine, DependencyGraph, GraphSketch, LabelBound};
use ems_events::{fingerprint_log, EventLog, SymbolTable};
use ems_labels::LabelMatrix;
use ems_obs::{labels, Record, Recorder};
use ems_store::{CatalogStore, EntryStatus, SnapshotKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans on the path a served request takes: their sum is the request's
/// service time. Everything else under `request` is attribution work.
const SERVE_PATH: &[&str] = &[
    "xes.parse",
    "events.fingerprint",
    "depgraph.build",
    "catalog.query",
];
const MATCH_PATH: &[&str] = &[
    "xes.parse",
    "events.fingerprint",
    "depgraph.build",
    "core.substrate",
    "labels.matrix",
    "core.engine.forward",
    "core.engine.backward",
    "core.aggregate",
    "assignment",
];
/// Serve spans that account for a slice of the service time; the re-run
/// stages stand in for the inside of the opaque `catalog.query`.
const SERVE_ATTRIBUTED: &[&str] = &[
    "xes.parse",
    "events.fingerprint",
    "depgraph.build",
    "depgraph.sketch",
    "catalog.bound",
    "store.get",
    "core.substrate",
    "store.put",
    "labels.matrix",
    "core.engine.forward",
    "core.engine.backward",
    "core.aggregate",
];

struct SpanRec {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    req: usize,
    start: Duration,
    dur: Duration,
}

/// In-memory span recorder with an explicit parent stack.
struct Tracer {
    epoch: Instant,
    stack: Vec<usize>,
    spans: Vec<SpanRec>,
    req: usize,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            req: 0,
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(SpanRec {
            id,
            parent: self.stack.last().copied(),
            name,
            req: self.req,
            start,
            dur: Duration::ZERO,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].dur = self.epoch.elapsed() - start;
        out
    }

    /// Total milliseconds of spans named `name` within request `req`.
    fn total_ms(&self, req: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.req == req && s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    /// Self milliseconds per span name over all requests: each span minus
    /// the time its direct children cover.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) +=
                s.dur.saturating_sub(child[s.id]).as_secs_f64() * 1e3;
        }
        out
    }

    fn export(&self, rec: &Recorder) {
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            rec.span_closed(
                s.name,
                labels(&[
                    ("req", &s.req.to_string()),
                    ("id", &s.id.to_string()),
                    ("parent", &parent),
                    ("start_us", &s.start.as_micros().to_string()),
                ]),
                s.dur,
            );
        }
    }
}

/// Per-request work counts of one pass. The exact invariants are the
/// `formula_evals`, `iterations`, `evaluated`, `pruned` and `cells`
/// columns, which must repeat bit for bit across passes.
#[derive(Default, Clone, PartialEq, Debug)]
struct Counts {
    xes_bytes: u64,
    nodes: u64,
    edges: u64,
    bounds: u64,
    evaluated: u64,
    pruned: u64,
    pin_hits: u64,
    pin_misses: u64,
    evictions: u64,
    cells: u64,
    iterations: u64,
    formula_evals: u64,
    outcome_cache_hits: u64,
    label_cache_hits: u64,
    puts: u64,
    gets: u64,
    bytes_written: u64,
    assignment_n: u64,
}

impl Counts {
    fn invariants(&self) -> [u64; 5] {
        [
            self.formula_evals,
            self.iterations,
            self.evaluated,
            self.pruned,
            self.cells,
        ]
    }

    /// Every count with its metric name.
    fn named(&self) -> [(&'static str, u64); 18] {
        [
            ("xes.bytes", self.xes_bytes),
            ("depgraph.nodes", self.nodes),
            ("depgraph.edges", self.edges),
            ("catalog.bounds", self.bounds),
            ("catalog.evaluated", self.evaluated),
            ("catalog.pruned", self.pruned),
            ("catalog.pin_hits", self.pin_hits),
            ("catalog.pin_misses", self.pin_misses),
            ("catalog.evictions", self.evictions),
            ("labels.cells", self.cells),
            ("core.engine.iterations", self.iterations),
            ("core.engine.formula_evals", self.formula_evals),
            ("core.outcome_cache_hits", self.outcome_cache_hits),
            ("core.label_cache_hits", self.label_cache_hits),
            ("store.puts", self.puts),
            ("store.gets", self.gets),
            ("store.bytes_written", self.bytes_written),
            ("assignment.n", self.assignment_n),
        ]
    }

    fn export(&self, rec: &Recorder, req: usize) {
        let req = req.to_string();
        for (name, value) in self.named() {
            rec.counter_add(&format!("bench.{name}"), labels(&[("req", &req)]), value);
        }
    }
}

struct Pass {
    tracer: Tracer,
    counts: Vec<Counts>,
    rec: Arc<Recorder>,
    failures: Vec<String>,
}

pub fn run(dir: &Path, served_path: &Path, store: &Path, out: &Path) -> Result<(), String> {
    let manifest = Manifest::read(dir)?;
    let served: BTreeMap<usize, Served> = served::read(served_path)?
        .into_iter()
        .map(|s| (s.index, s))
        .collect();
    let work = out.with_extension("work");
    let mut passes = Vec::new();
    for p in 0..2 {
        let pass_dir = work.join(format!("pass{p}"));
        let _ = std::fs::remove_dir_all(&pass_dir);
        std::fs::create_dir_all(&pass_dir).map_err(|e| e.to_string())?;
        passes.push(if manifest.is_serve() {
            serve_pass(&manifest, &served, store, &pass_dir)?
        } else {
            match_pass(&manifest, &served)?
        });
    }
    let _ = std::fs::remove_dir_all(&work);
    let second = passes.pop().ok_or("no second pass")?;
    let first = passes.pop().ok_or("no first pass")?;
    let mut failures = first.failures.clone();
    failures.extend(second.failures.iter().map(|f| format!("second pass: {f}")));
    for (i, (a, b)) in first.counts.iter().zip(&second.counts).enumerate() {
        if a.invariants() != b.invariants() {
            failures.push(format!(
                "traced request {i}: work counts [formula_evals, iterations, evaluated, \
                 pruned, cells] {:?} did not repeat: {:?}",
                a.invariants(),
                b.invariants()
            ));
        }
    }
    first.tracer.export(&first.rec);
    for (i, c) in first.counts.iter().enumerate() {
        c.export(&first.rec, manifest.trace[i]);
    }
    std::fs::write(out, ems_obs::jsonl::write(&first.rec.records()))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    print_summary(&manifest, &first, &served, &failures);
    Ok(())
}

fn print_summary(
    manifest: &Manifest,
    pass: &Pass,
    served: &BTreeMap<usize, Served>,
    failures: &[String],
) {
    let t = &pass.tracer;
    let n = pass.counts.len().max(1) as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |name: &str, v: f64| *m.entry(name.to_owned()).or_insert(0.0) += v / n;
    let mut service_total = 0.0;
    let mut request_total = 0.0;
    for (pos, &req) in manifest.trace.iter().enumerate() {
        let c = &pass.counts[pos];
        for (metric, span) in [
            ("xes.parse_ms", "xes.parse"),
            ("events.fingerprint_ms", "events.fingerprint"),
            ("depgraph.build_ms", "depgraph.build"),
            ("depgraph.sketch_ms", "depgraph.sketch"),
            ("catalog.bound_ms", "catalog.bound"),
            ("catalog.query_ms", "catalog.query"),
            ("labels.matrix_ms", "labels.matrix"),
            ("core.substrate_ms", "core.substrate"),
            ("core.engine.forward_ms", "core.engine.forward"),
            ("core.engine.backward_ms", "core.engine.backward"),
            ("core.aggregate_ms", "core.aggregate"),
            ("store.put_ms", "store.put"),
            ("store.get_ms", "store.get"),
            ("assignment.ms", "assignment"),
        ] {
            add(metric, t.total_ms(req, span));
        }
        for (metric, v) in c.named() {
            add(metric, v as f64);
        }
        let sum = |names: &[&str]| names.iter().map(|s| t.total_ms(req, s)).sum::<f64>();
        let request = t.total_ms(req, "request");
        let (service, unattributed) = if manifest.is_serve() {
            let service = sum(SERVE_PATH);
            (service, service - sum(SERVE_ATTRIBUTED))
        } else {
            let service = sum(MATCH_PATH);
            (service, request - service)
        };
        add("trace.unattributed_ms", unattributed);
        let latency = served.get(&req).map_or(service, |s| s.latency_ms);
        add("serve.wait_ms", latency - service);
        service_total += service;
        request_total += request;
    }
    let evaluated = m.get("catalog.evaluated").copied().unwrap_or(0.0);
    let pruned = m.get("catalog.pruned").copied().unwrap_or(0.0);
    m.insert(
        "catalog.prune_frac".into(),
        if evaluated + pruned > 0.0 {
            pruned / (evaluated + pruned)
        } else {
            0.0
        },
    );
    m.insert(
        "trace.overhead_frac".into(),
        if service_total > 0.0 {
            (request_total - service_total) / service_total
        } else {
            0.0
        },
    );
    m.insert(
        "errors_frac".into(),
        failures.len().min(pass.counts.len()) as f64 / n,
    );
    let mut out = format!(
        "{{\"requests\":{},\"failed\":{},\"failures\":[",
        pass.counts.len(),
        failures.len()
    );
    for (i, f) in failures.iter().take(10).enumerate() {
        if i > 0 {
            out.push(',');
        }
        ems_obs::json::write_escaped(&mut out, f);
    }
    out.push_str("],\"metrics\":{");
    push_map(&mut out, m.iter().map(|(k, v)| (k.as_str(), *v)));
    out.push_str("},\"self_ms\":{");
    push_map(&mut out, t.self_ms().into_iter().map(|(k, v)| (k, v / n)));
    out.push_str("}}");
    println!("{out}");
}

fn push_map<'a>(out: &mut String, items: impl Iterator<Item = (&'a str, f64)>) {
    for (i, (k, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        ems_obs::json::write_escaped(out, k);
        out.push(':');
        ems_obs::json::write_f64(out, v);
    }
}

/// The forward and backward runs of one pair over prebuilt substrates,
/// aggregated the way every pipeline aggregates them.
fn solve(
    t: &mut Tracer,
    c: &mut Counts,
    params: &EmsParams,
    g1: &DependencyGraph,
    g2: &DependencyGraph,
    labels: &LabelMatrix,
    subs: [Arc<EngineSubstrate>; 2],
) -> Result<MatchOutcome, String> {
    let [fwd_sub, bwd_sub] = subs;
    let options = RunOptions::default();
    let run = |t: &mut Tracer, name, dir, sub| -> Result<RunOutput, String> {
        t.span(name, |_| {
            Engine::try_with_substrate(g1, g2, labels, params, dir, sub)
                .and_then(|e| e.try_run(&options))
                .map_err(|e| e.to_string())
        })
    };
    let fwd = run(t, "core.engine.forward", Direction::Forward, fwd_sub)?;
    let bwd = run(t, "core.engine.backward", Direction::Backward, bwd_sub)?;
    for stats in [&fwd.stats, &bwd.stats] {
        c.iterations += stats.iterations as u64;
        c.formula_evals += stats.formula_evals;
    }
    Ok(t.span("core.aggregate", |_| {
        let agg: Aggregation = params.aggregation;
        let mut similarity = SimMatrix::zeros(fwd.sim.rows(), fwd.sim.cols());
        for (i, j, f) in fwd.sim.iter() {
            similarity.set(i, j, agg.combine(f, bwd.sim.get(i, j)));
        }
        MatchOutcome {
            similarity,
            forward: fwd.sim,
            backward: bwd.sim,
            stats: fwd.stats,
        }
    }))
}

fn label_cells(params: &EmsParams, rows: usize, cols: usize) -> u64 {
    if params.alpha < 1.0 {
        (rows * cols) as u64
    } else {
        0
    }
}

fn match_pass(manifest: &Manifest, served: &BTreeMap<usize, Served>) -> Result<Pass, String> {
    let params = manifest.params();
    let ems = Ems::try_new(params.clone()).map_err(|e| e.to_string())?;
    let mut t = Tracer::new();
    let mut counts = Vec::new();
    let mut failures = Vec::new();
    for &req in &manifest.trace {
        t.req = req;
        let request = manifest
            .requests
            .get(req)
            .ok_or("trace index out of range")?;
        let mut c = Counts::default();
        let result = t.span("request", |t| -> Result<_, String> {
            let mut logs = Vec::new();
            for file in &request.files {
                let (log, bytes) = t.span("xes.parse", |_| load_log(&manifest.path(file)))?;
                c.xes_bytes += bytes as u64;
                t.span("events.fingerprint", |_| fingerprint_log(&log));
                logs.push(log);
            }
            let [l1, l2] = logs.as_slice() else {
                return Err("a pair-cold request names two logs".into());
            };
            let mut table = SymbolTable::new();
            let mut graph = |t: &mut Tracer, log: &EventLog| {
                let g = t.span("depgraph.build", |_| {
                    DependencyGraph::from_log_in(log, &mut table)
                });
                c.nodes += g.num_nodes() as u64;
                c.edges += g.num_edges() as u64;
                g
            };
            let g1 = graph(t, l1);
            let g2 = graph(t, l2);
            let subs = [Direction::Forward, Direction::Backward].map(|d| {
                Arc::new(t.span("core.substrate", |_| {
                    EngineSubstrate::build(&g1, &g2, d, params.c)
                }))
            });
            let labels = t.span("labels.matrix", |_| ems.label_matrix(l1, l2));
            c.cells += label_cells(&params, labels.rows(), labels.cols());
            let outcome = solve(t, &mut c, &params, &g1, &g2, &labels, subs)?;
            let sim = &outcome.similarity;
            let cs = t.span("assignment", |_| {
                max_total_assignment(sim.rows(), sim.cols(), |i, j| sim.get(i, j), MIN_SCORE)
            });
            c.assignment_n += sim.rows().max(sim.cols()) as u64;
            Ok((l1.clone(), l2.clone(), cs))
        });
        match result {
            Ok((l1, l2, cs)) => {
                let lines = correspondence_lines(&l1, &l2, &cs);
                match served.get(&req) {
                    Some(s) if s.code == 0 && s.out == lines => {}
                    Some(_) => failures.push(format!(
                        "request {req}: the staged pipeline disagrees with `ems match`"
                    )),
                    None => failures.push(format!("request {req}: `ems match` was not run")),
                }
            }
            Err(e) => failures.push(format!("request {req}: {e}")),
        }
        counts.push(c);
    }
    Ok(Pass {
        tracer: t,
        counts,
        rec: Arc::new(Recorder::new()),
        failures,
    })
}

/// One timed snapshot write; returns the bytes written.
fn put(
    t: &mut Tracer,
    store: &CatalogStore,
    kind: SnapshotKind,
    key: u64,
    version: u32,
    bytes: Vec<u8>,
) -> Result<u64, String> {
    t.span("store.put", |_| store.put(kind, key, version, &bytes))
        .map_err(|e| e.to_string())?;
    Ok(bytes.len() as u64)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// A reference as the re-run sees it: its own graph, built outside the
/// served session so the re-run never disturbs the served caches.
struct RefCopy {
    fingerprint: u64,
    log: EventLog,
    graph: DependencyGraph,
}

fn serve_pass(
    manifest: &Manifest,
    served: &BTreeMap<usize, Served>,
    pristine: &Path,
    dir: &Path,
) -> Result<Pass, String> {
    let params = manifest.params();
    let store_dir: PathBuf = dir.join("store");
    copy_dir(pristine, &store_dir).map_err(|e| format!("cannot copy the store: {e}"))?;
    let rec = Arc::new(Recorder::new());
    let store = Arc::new(
        CatalogStore::open(&store_dir)
            .map_err(|e| e.to_string())?
            .with_recorder(Arc::clone(&rec)),
    );
    let shared = Arc::new(
        SharedSession::try_new(params.clone())
            .map_err(|e| e.to_string())?
            .with_store(Arc::clone(&store))
            .with_recorder(Arc::clone(&rec)),
    );
    let mut catalog = Catalog::new(Arc::clone(&shared))
        .with_store(Arc::clone(&store))
        .with_recorder(Arc::clone(&rec));
    if let Some(budget) = manifest.byte_budget {
        catalog = catalog.with_byte_budget(budget);
    }
    // Admission exactly as `ems serve` starts: every valid log snapshot,
    // in key order.
    let mut keys: Vec<u64> = store
        .list()
        .map_err(|e| e.to_string())?
        .into_iter()
        .filter(|e| e.kind == Some(SnapshotKind::Log) && matches!(e.status, EntryStatus::Ok))
        .filter_map(|e| e.key)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut table = SymbolTable::new();
    let mut refs = Vec::new();
    for key in keys {
        let bytes = store
            .get(SnapshotKind::Log, key, persist::LOG_PAYLOAD_VERSION)
            .map_err(|e| e.to_string())?
            .ok_or("a listed log snapshot vanished")?;
        let log = persist::decode_log(&bytes).map_err(|e| e.to_string())?;
        let name = log
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("log-{key:016x}"));
        catalog.add(name, log.clone());
        refs.push(RefCopy {
            fingerprint: fingerprint_log(&log),
            graph: DependencyGraph::from_log_in(&log, &mut table),
            log,
        });
    }
    // A second handle on the served store for the re-run's reloads, so
    // its reads do not count in the served store's statistics.
    let reader = CatalogStore::open(&store_dir).map_err(|e| e.to_string())?;
    let replay_store = CatalogStore::open(dir.join("replay")).map_err(|e| e.to_string())?;
    let ems = Ems::try_new(params.clone()).map_err(|e| e.to_string())?;
    let combine = match params.aggregation {
        Aggregation::Average => BoundCombine::Average,
        _ => BoundCombine::Max,
    };
    let label_bound = match (params.alpha < 1.0, params.label_measure) {
        (true, LabelMeasure::ExactName) => LabelBound::ExactName,
        _ => LabelBound::Any,
    };

    let mut t = Tracer::new();
    let mut counts = Vec::new();
    let mut failures = Vec::new();
    for &req in &manifest.trace {
        t.req = req;
        let request = manifest
            .requests
            .get(req)
            .ok_or("trace index out of range")?;
        let file = manifest.path(request.files.first().ok_or("request names no log")?);
        let mut c = Counts::default();
        let (shared0, catalog0, store0) = (shared.stats(), catalog.stats(), store.stats());
        let first_record = rec.len();
        let result = t.span(
            "request",
            |t| -> Result<(QueryOutcome, Vec<String>), String> {
                let (log, bytes) = t.span("xes.parse", |_| load_log(&file))?;
                c.xes_bytes = bytes as u64;
                let qfp = t.span("events.fingerprint", |_| fingerprint_log(&log));
                let qg = t.span("depgraph.build", |_| shared.graph_keyed(qfp, &log));
                c.nodes = qg.num_nodes() as u64;
                c.edges = qg.num_edges() as u64;
                let outcome = t.span("catalog.query", |_| {
                    catalog.query_top_k_opts(&log, request.k, true)
                });
                let outcome = outcome.map_err(|e| e.to_string())?;
                c.evaluated = outcome.evaluated as u64;
                c.pruned = outcome.pruned as u64;
                let (shared1, catalog1, store1) = (shared.stats(), catalog.stats(), store.stats());
                c.pin_hits = catalog1.hits - catalog0.hits;
                c.pin_misses = catalog1.misses - catalog0.misses;
                c.evictions = catalog1.evictions - catalog0.evictions;
                c.outcome_cache_hits = shared1.outcome_cache_hits - shared0.outcome_cache_hits;
                c.label_cache_hits = shared1.label_cache_hits - shared0.label_cache_hits;
                c.puts = store1.writes - store0.writes;
                c.gets = (store1.hits + store1.misses) - (store0.hits + store0.misses);

                // Attribution: the planner's bound order, then the evaluated
                // pairs' stages, in the order the planner ran them.
                let qs = t.span("depgraph.sketch", |_| GraphSketch::of(&qg));
                let order = t.span("catalog.bound", |_| {
                    let mut order: Vec<(usize, f64, f64)> = (0..catalog.len())
                        .filter_map(|i| catalog.sketch(i).map(|s| (i, s)))
                        .map(|(i, s)| {
                            (
                                i,
                                qs.score_upper_bound(
                                    s,
                                    params.alpha,
                                    params.c,
                                    combine,
                                    label_bound,
                                ),
                                qs.label_jaccard_estimate(s),
                            )
                        })
                        .collect();
                    order.sort_by(|a, b| {
                        b.1.total_cmp(&a.1)
                            .then(b.2.total_cmp(&a.2))
                            .then(a.0.cmp(&b.0))
                    });
                    order
                });
                c.bounds = order.len() as u64;
                let reloads: Vec<bool> = rec.records()[first_record..]
                    .iter()
                    .filter_map(|r| match r {
                        Record::Counter { name, .. } if name == "catalog.miss" => Some(true),
                        Record::Counter { name, .. } if name == "catalog.hit" => Some(false),
                        _ => None,
                    })
                    .collect();
                let mut mismatches = Vec::new();
                if c.outcome_cache_hits < c.evaluated {
                    t.span("replay", |t| -> Result<(), String> {
                        let qgr = DependencyGraph::from_log_in(&log, &mut table);
                        for (pos, &(i, _, _)) in order.iter().take(outcome.evaluated).enumerate() {
                            let r = &refs[i];
                            if reloads.get(pos).copied().unwrap_or(false) {
                                let key = persist::graph_store_key(r.fingerprint, 0.0);
                                t.span("store.get", |_| -> Result<(), String> {
                                    let bytes = reader
                                        .get(
                                            SnapshotKind::Graph,
                                            key,
                                            persist::GRAPH_PAYLOAD_VERSION,
                                        )
                                        .map_err(|e| e.to_string())?
                                        .ok_or("an evicted graph has no snapshot")?;
                                    persist::decode_graph_in(&bytes, &mut SymbolTable::new())
                                        .map(|_| ())
                                        .map_err(|e| e.to_string())
                                })?;
                            }
                            let mut subs = Vec::new();
                            for d in [Direction::Forward, Direction::Backward] {
                                let sub = t.span("core.substrate", |_| {
                                    EngineSubstrate::build(&qgr, &r.graph, d, params.c)
                                });
                                c.bytes_written += put(
                                    t,
                                    &replay_store,
                                    SnapshotKind::Substrate,
                                    persist::substrate_store_key(
                                        qgr.fingerprint(),
                                        r.graph.fingerprint(),
                                        d,
                                        params.c,
                                    ),
                                    persist::SUBSTRATE_PAYLOAD_VERSION,
                                    persist::encode_substrate(&sub),
                                )?;
                                subs.push(Arc::new(sub));
                            }
                            let labels =
                                t.span("labels.matrix", |_| ems.label_matrix(&log, &r.log));
                            c.cells += label_cells(&params, labels.rows(), labels.cols());
                            c.bytes_written += put(
                                t,
                                &replay_store,
                                SnapshotKind::Labels,
                                persist::labels_store_key(qfp, r.fingerprint, params.label_space()),
                                persist::LABELS_PAYLOAD_VERSION,
                                persist::encode_labels(&labels),
                            )?;
                            let bwd = subs.pop().ok_or("no backward substrate")?;
                            let fwd = subs.pop().ok_or("no forward substrate")?;
                            let solved =
                                solve(t, &mut c, &params, &qgr, &r.graph, &labels, [fwd, bwd])?;
                            let score = outcome_score(&solved);
                            let name = catalog.names().nth(i).unwrap_or("");
                            if let Some(served) = outcome.ranked.iter().find(|x| x.name == name) {
                                if served.ems_score.to_bits() != score.to_bits() {
                                    mismatches.push(format!(
                                        "re-run score {score} of {name} differs from served {}",
                                        served.ems_score
                                    ));
                                }
                            }
                        }
                        Ok(())
                    })?;
                }
                Ok((outcome, mismatches))
            },
        );
        match result {
            Ok((outcome, mismatches)) => {
                failures.extend(
                    mismatches
                        .into_iter()
                        .map(|m| format!("request {req}: {m}")),
                );
                if let Some(msg) = compare_served(served.get(&req), &outcome) {
                    failures.push(format!("request {req}: {msg}"));
                }
            }
            Err(e) => failures.push(format!("request {req}: {e}")),
        }
        counts.push(c);
    }
    Ok(Pass {
        tracer: t,
        counts,
        rec,
        failures,
    })
}

/// The in-process answer must equal what `ems serve` answered for the
/// same request: same ranking, bit for bit, and the same planner counts.
fn compare_served(served: Option<&Served>, outcome: &QueryOutcome) -> Option<String> {
    let Some(s) = served else {
        return Some("`ems serve` did not answer".into());
    };
    let (got, evaluated, pruned) = match served::parse_response(&s.out) {
        Ok(r) => r,
        Err(e) => return Some(e),
    };
    if (evaluated, pruned) != (outcome.evaluated, outcome.pruned) {
        return Some(format!(
            "`ems serve` evaluated/pruned {evaluated}/{pruned}, in-process {}/{}",
            outcome.evaluated, outcome.pruned
        ));
    }
    let want: Vec<(String, f64)> = outcome
        .ranked
        .iter()
        .map(|r| (r.name.clone(), r.ems_score))
        .collect();
    served::ranking_diff(&got, &want)
}
