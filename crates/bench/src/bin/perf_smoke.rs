//! CI perf smoke: times the seed reference kernel against the worklist
//! kernel across a thread sweep (1/2/4/8 pooled workers, capped at the
//! host's parallelism) on synthetic log pairs, plus the session pipeline
//! (cold build vs cached re-match vs warm-started re-match vs disk-warm
//! rehydration from the durable catalog store), and writes the results
//! to the path given by the mandatory `--out PATH` argument (CI passes
//! `BENCH_pr7.json`). A Prometheus-text metrics file is written
//! alongside (same stem, `.prom` extension), and every size's JSON entry
//! carries the per-iteration convergence telemetry of an untimed traced
//! run.
//!
//! With `--baseline PATH` the run additionally compares its serial
//! pairs/sec per size against a previously committed report and exits 3
//! on a >20% regression, so CI catches kernel slowdowns in the diff that
//! caused them.
//!
//! Intended to catch large kernel regressions, not to be a rigorous
//! benchmark — each configuration is timed best-of-N wall clock,
//! interleaved round-robin so machine-load drift hits all variants
//! equally.

use ems_catalog::{outcome_score, Catalog};
use ems_core::engine::{Engine, RunOptions, RunOutput};
use ems_core::{Direction, EmsParams, MatchSession, SessionOptions, SharedSession};
use ems_depgraph::DependencyGraph;
use ems_labels::LabelMatrix;
use ems_obs::trajectory::TrajectoryRow;
use ems_obs::{IterationRecord, Record, Recorder};
use ems_store::CatalogStore;
use ems_synth::{PairConfig, PairGenerator, TreeConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Measured sizes (reference + sweep + session pipeline each).
const SIZES: &[usize] = &[50, 200, 800];
/// Worker counts of the thread sweep. Only counts the host has cores for
/// run (`t = 1` always does): an oversubscribed pool measures scheduling
/// overhead, not a speedup, so those points are left out of every output.
const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];
/// References pinned by the serve-throughput row's catalog:
/// [`SERVE_QUERIES`] families of [`SERVE_FAMILY_VARIANTS`] near-duplicate
/// deployments each, the rest structurally unrelated decoys.
const SERVE_REFS: usize = 20;
/// Queries answered by the serve row (each a fourth near-duplicate
/// variant of one family, so every query has clear nearest neighbors).
const SERVE_QUERIES: usize = 4;
/// Near-duplicate reference variants per family.
const SERVE_FAMILY_VARIANTS: usize = 3;
/// Activity count of the serve row's logs.
const SERVE_N: usize = 800;
/// Top-k size of the serve row's queries.
const SERVE_K: usize = 3;

fn pair(activities: usize) -> (ems_events::EventLog, ems_events::EventLog) {
    let p = PairGenerator::new(PairConfig {
        tree: TreeConfig {
            num_activities: activities,
            seed: 7,
            max_branch: (activities / 4).max(4),
            ..TreeConfig::default()
        },
        traces_per_log: 60,
        seed: 17,
        xor_jitter: 0.25,
        ..PairConfig::default()
    })
    .generate();
    (p.log1, p.log2)
}

/// Best-of-`rounds` wall-clock milliseconds for each variant, plus each
/// variant's last output. One warm-up pass, then the variants are timed
/// *interleaved* — every variant once per round — so slow drifts in
/// shared-machine load hit all of them equally instead of skewing
/// whichever happened to run last.
fn time_round_robin(
    rounds: usize,
    fns: &mut [Box<dyn FnMut() -> RunOutput + '_>],
) -> (Vec<f64>, Vec<RunOutput>) {
    let mut best = vec![f64::INFINITY; fns.len()];
    let mut outs: Vec<RunOutput> = fns.iter_mut().map(|f| f()).collect();
    for _ in 0..rounds {
        for (i, f) in fns.iter_mut().enumerate() {
            let start = Instant::now();
            outs[i] = f();
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms < best[i] {
                best[i] = elapsed_ms;
            }
        }
    }
    (best, outs)
}

/// One point of the thread sweep.
struct SweepPoint {
    threads: usize,
    wall_ms: f64,
    /// Largest shard count the pooled evaluation actually used (1 when
    /// the worklist stayed under the pairs-per-shard floor).
    pool_shards: u64,
}

struct SessionReport {
    cold_ms: f64,
    cached_ms: f64,
    warm_ms: f64,
    disk_ms: f64,
}

struct SizeReport {
    n: usize,
    pairs: usize,
    iterations: usize,
    formula_evals: u64,
    setup_ms: f64,
    reference_ms: f64,
    /// The swept thread counts the host has cores for, `t = 1` first.
    sweep: Vec<SweepPoint>,
    session: SessionReport,
    convergence: Vec<IterationRecord>,
    /// Relative wall-clock cost of running with a recorder + profiler
    /// attached vs bare (n=800 row only; the profiler budget is 5%).
    profiler_overhead_frac: Option<f64>,
}

impl SizeReport {
    fn pairs_per_sec(&self, wall_ms: f64) -> f64 {
        if wall_ms <= 0.0 {
            0.0
        } else {
            self.formula_evals as f64 / (wall_ms / 1e3)
        }
    }

    fn serial_ms(&self) -> f64 {
        self.sweep[0].wall_ms
    }

    /// Best wall over the multi-threaded sweep points; `None` on a host
    /// with one core, where no multi-threaded point ran.
    fn parallel_ms(&self) -> Option<f64> {
        self.sweep[1..].iter().map(|p| p.wall_ms).reduce(f64::min)
    }
}

struct CliArgs {
    out_path: String,
    baseline: Option<String>,
    append_trajectory: Option<String>,
    run_id: Option<String>,
}

/// Parses the mandatory `--out PATH` (a bare positional path is also
/// accepted, kept for back-compatibility with the PR2 invocation), the
/// optional `--baseline PATH`, and the optional
/// `--append-trajectory PATH [--run-id ID]` pair that appends one
/// `ems-bench/1` row to the versioned trajectory file. There is
/// deliberately no default output: every trajectory file in CI names its
/// PR explicitly, so a stale default can never silently overwrite an
/// earlier PR's numbers.
fn parse_cli(args: impl Iterator<Item = String>) -> Result<CliArgs, String> {
    let mut out_path = None;
    let mut baseline = None;
    let mut append_trajectory = None;
    let mut run_id = None;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return Err("--out requires a path".to_owned()),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(p),
                None => return Err("--baseline requires a path".to_owned()),
            },
            "--append-trajectory" => match args.next() {
                Some(p) => append_trajectory = Some(p),
                None => return Err("--append-trajectory requires a path".to_owned()),
            },
            "--run-id" => match args.next() {
                Some(p) => run_id = Some(p),
                None => return Err("--run-id requires an id".to_owned()),
            },
            other if !other.starts_with('-') => out_path = Some(other.to_owned()),
            other => {
                return Err(format!(
                    "unknown flag {other} (expected --out PATH [--baseline PATH] \
                     [--append-trajectory PATH] [--run-id ID])"
                ))
            }
        }
    }
    let out_path = out_path
        .ok_or_else(|| "missing mandatory --out PATH (e.g. --out BENCH_pr7.json)".to_owned())?;
    Ok(CliArgs {
        out_path,
        baseline,
        append_trajectory,
        run_id,
    })
}

/// Short git revision of the working tree, read straight from `.git`
/// (HEAD → loose ref → packed-refs); `unknown` when not in a repository.
/// No subprocess: the bench must run identically in minimal CI images.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let full = if let Some(refname) = head.strip_prefix("ref: ") {
        let refname = refname.trim();
        match std::fs::read_to_string(format!(".git/{refname}")) {
            Ok(s) => s.trim().to_owned(),
            Err(_) => std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(refname).map(|sha| sha.trim().to_owned()))
                })
                .unwrap_or_default(),
        }
    } else {
        head.to_owned()
    };
    if full.len() >= 7 && full.bytes().all(|b| b.is_ascii_hexdigit()) {
        full[..7].to_owned()
    } else {
        "unknown".to_owned()
    }
}

/// Host fingerprint used to scope regression-gate comparisons: rows are
/// only ever gated against rows produced on the same `os/arch/cores`.
fn host_fingerprint(host_parallelism: usize) -> String {
    format!(
        "{}/{}/{host_parallelism}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Flattens the size reports into one `ems-bench/1` trajectory row using
/// the same dotted metric names `trajectory::migrate_legacy` produces for
/// the committed `BENCH_pr*.json` history, so the gate and `ems report
/// --compare` see one continuous metric lineage.
fn trajectory_row(
    run_id: String,
    host_parallelism: usize,
    reports: &[SizeReport],
    serve: &ServeBenchReport,
) -> TrajectoryRow {
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    metrics.insert("host_parallelism".to_owned(), host_parallelism as f64);
    for r in reports {
        let p = format!("n{}", r.n);
        metrics.insert(format!("{p}.serial_wall_ms"), r.serial_ms());
        metrics.insert(
            format!("{p}.serial_pairs_per_sec"),
            r.pairs_per_sec(r.serial_ms()),
        );
        if let Some(parallel_ms) = r.parallel_ms() {
            metrics.insert(format!("{p}.parallel_wall_ms"), parallel_ms);
            metrics.insert(
                format!("{p}.parallel_pairs_per_sec"),
                r.pairs_per_sec(parallel_ms),
            );
        }
        metrics.insert(format!("{p}.reference_wall_ms"), r.reference_ms);
        metrics.insert(
            format!("{p}.reference_pairs_per_sec"),
            r.pairs_per_sec(r.reference_ms),
        );
        for pt in &r.sweep {
            metrics.insert(format!("{p}.t{}.wall_ms", pt.threads), pt.wall_ms);
            metrics.insert(
                format!("{p}.t{}.pairs_per_sec", pt.threads),
                r.pairs_per_sec(pt.wall_ms),
            );
            metrics.insert(
                format!("{p}.t{}.pool_shards", pt.threads),
                pt.pool_shards as f64,
            );
        }
        let s = &r.session;
        metrics.insert(format!("{p}.session_cold_wall_ms"), s.cold_ms);
        metrics.insert(format!("{p}.session_cached_wall_ms"), s.cached_ms);
        metrics.insert(format!("{p}.session_warm_wall_ms"), s.warm_ms);
        metrics.insert(format!("{p}.session_disk_wall_ms"), s.disk_ms);
        metrics.insert(
            format!("{p}.convergence_iterations"),
            r.convergence.len() as f64,
        );
        if let Some(frac) = r.profiler_overhead_frac {
            metrics.insert(format!("{p}.profiler_overhead_frac"), frac);
        }
    }
    // Serve row: queries/sec is the gated throughput metric (`*_per_sec`
    // → higher-is-better at 15%); the rest are informational context.
    metrics.insert(
        "serve.queries_per_sec".to_owned(),
        serve.serve_queries_per_sec,
    );
    metrics.insert("serve.speedup_vs_per_process".to_owned(), serve.speedup);
    metrics.insert("serve.pruned_fraction".to_owned(), serve.pruned_fraction);
    metrics.insert("serve.catalog_refs".to_owned(), serve.refs as f64);
    TrajectoryRow {
        run_id,
        git_rev: git_rev(),
        host: host_fingerprint(host_parallelism),
        source: "perf_smoke".to_owned(),
        metrics,
    }
}

/// Extracts `(n, <key>)` pairs from a committed bench report. The reports
/// are emitted one key per line by this binary (and its predecessors), so
/// a line scan is exact for every file this can be pointed at — no JSON
/// parser needed.
fn extract_per_n(text: &str, key: &str) -> Vec<(usize, f64)> {
    let n_prefix = "\"n\":";
    let key_prefix = format!("\"{key}\":");
    let mut current_n: Option<usize> = None;
    let mut found = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        let num = |rest: &str| rest.trim().trim_end_matches(',').parse::<f64>().ok();
        if let Some(rest) = t.strip_prefix(n_prefix) {
            current_n = num(rest).map(|v| v as usize);
        } else if let Some(rest) = t.strip_prefix(key_prefix.as_str()) {
            if let (Some(n), Some(v)) = (current_n, num(rest)) {
                found.push((n, v));
            }
        }
    }
    found
}

/// Compares this run's serial pairs/sec per size against a committed
/// baseline report; returns the list of regressions beyond 20%.
fn baseline_regressions(baseline_text: &str, reports: &[SizeReport]) -> Vec<String> {
    let base = extract_per_n(baseline_text, "serial_pairs_per_sec");
    let mut failures = Vec::new();
    for (n, base_pps) in base {
        let Some(r) = reports.iter().find(|r| r.n == n) else {
            eprintln!("perf_smoke: baseline has n={n}, current run does not; skipping");
            continue;
        };
        let cur = r.pairs_per_sec(r.serial_ms());
        if cur < 0.8 * base_pps {
            failures.push(format!(
                "n={n}: serial {cur:.0} pairs/sec is {:.0}% of baseline {base_pps:.0}",
                100.0 * cur / base_pps
            ));
        }
    }
    failures
}

fn main() {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf_smoke: {e}");
            std::process::exit(2);
        }
    };
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let metrics = Recorder::new();
    let reports: Vec<SizeReport> = SIZES
        .iter()
        .map(|&n| measure_size(n, host_parallelism, &metrics))
        .collect();
    let serve = serve_bench(&metrics);

    let json = render_json(host_parallelism, &reports, &serve);
    if let Err(e) = std::fs::write(&cli.out_path, &json) {
        eprintln!("perf_smoke: cannot write {}: {e}", cli.out_path);
        std::process::exit(1);
    }
    let prom_path = match cli.out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.prom"),
        None => format!("{}.prom", cli.out_path),
    };
    if let Err(e) = std::fs::write(&prom_path, ems_obs::prom::write(&metrics.records())) {
        eprintln!("perf_smoke: cannot write {prom_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} and {prom_path}", cli.out_path);

    if let Some(tp) = &cli.append_trajectory {
        let run_id = cli
            .run_id
            .clone()
            .unwrap_or_else(|| format!("ci-{}", git_rev()));
        let row = trajectory_row(run_id, host_parallelism, &reports, &serve);
        let line = ems_obs::trajectory::write_row(&row);
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(tp)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("perf_smoke: cannot append to {tp}: {e}");
            std::process::exit(1);
        }
        println!("appended run '{}' to {tp}", row.run_id);
    }

    if let Some(bp) = &cli.baseline {
        let text = match std::fs::read_to_string(bp) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf_smoke: cannot read baseline {bp}: {e}");
                std::process::exit(2);
            }
        };
        let failures = baseline_regressions(&text, &reports);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf_smoke: REGRESSION vs {bp}: {f}");
            }
            std::process::exit(3);
        }
        println!("no >20% pairs/sec regression vs {bp}");
    }
}

/// Full measurement of one size: reference kernel, thread sweep, session
/// pipeline, convergence trace.
fn measure_size(n: usize, host_parallelism: usize, metrics: &Recorder) -> SizeReport {
    let (l1, l2) = pair(n);
    let g1 = DependencyGraph::from_log(&l1);
    let g2 = DependencyGraph::from_log(&l2);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let mut params = EmsParams::structural();
    // Pin the round count so every kernel does identical work.
    params.max_iterations = 6;
    params.epsilon = 1e-15;
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let rounds = if n >= 800 { 3 } else { 5 };

    let threads: Vec<usize> = THREAD_SWEEP
        .iter()
        .copied()
        .filter(|&t| t == 1 || t <= host_parallelism)
        .collect();
    let sweep_opts: Vec<RunOptions> = threads
        .iter()
        .map(|&t| RunOptions {
            threads: Some(t),
            ..RunOptions::default()
        })
        .collect();
    let engine_ref = &engine;
    let mut variants: Vec<Box<dyn FnMut() -> RunOutput>> = Vec::new();
    variants.push(Box::new(|| {
        engine_ref.run_reference(&RunOptions::default())
    }));
    for opts in &sweep_opts {
        variants.push(Box::new(move || engine_ref.run(opts)));
    }
    let (walls, outs) = time_round_robin(rounds, &mut variants);
    drop(variants);
    let reference_ms = walls[0];
    let sweep: Vec<SweepPoint> = threads
        .iter()
        .enumerate()
        .map(|(i, &t)| SweepPoint {
            threads: t,
            wall_ms: walls[1 + i],
            pool_shards: outs[1 + i].stats.pool_shards,
        })
        .collect();
    let serial_out = &outs[1];

    // Smoke-check the equivalence contract while we are here: the
    // reference kernel and every pooled thread count must agree
    // bit-for-bit.
    for out in &outs {
        assert_eq!(out.sim.data(), serial_out.sim.data());
        assert_eq!(out.stats.iterations, serial_out.stats.iterations);
    }
    // Parallel-scaling gate (satellite/CI): the 4-thread point only runs
    // where the host has the cores.
    let t4 = sweep.iter().find(|p| p.threads == 4).map(|p| p.wall_ms);
    if let (800, Some(t4)) = (n, t4) {
        assert!(
            t4 < 0.7 * sweep[0].wall_ms,
            "n=800: 4-thread wall {t4:.1} ms is not < 0.7x serial {:.1} ms",
            sweep[0].wall_ms
        );
    }

    // One untimed traced run per size captures the convergence curve
    // (the timed runs stay recorder-free so instrumentation cost never
    // leaks into the wall-clock numbers).
    let recorder = Arc::new(Recorder::new());
    let traced_opts = RunOptions {
        threads: Some(1),
        recorder: Some(Arc::clone(&recorder)),
        ..RunOptions::default()
    };
    let traced_out = engine.run(&traced_opts);
    assert_eq!(traced_out.sim.data(), serial_out.sim.data());
    let convergence = convergence_of(&recorder);

    // Profiler-overhead row (largest size only): bare serial run vs
    // serial run with recorder + profiler attached, interleaved best-of-N
    // so machine drift cancels. The instrumentation budget is 5%.
    let profiler_overhead_frac = if n >= 800 {
        let plain_opts = RunOptions {
            threads: Some(1),
            ..RunOptions::default()
        };
        let profiled_recorder = Arc::new(Recorder::new());
        let profiled_opts = RunOptions {
            threads: Some(1),
            recorder: Some(Arc::clone(&profiled_recorder)),
            ..RunOptions::default()
        };
        let mut overhead_variants: Vec<Box<dyn FnMut() -> RunOutput>> = vec![
            Box::new(|| engine_ref.run(&plain_opts)),
            Box::new(|| engine_ref.run(&profiled_opts)),
        ];
        let (walls, _) = time_round_robin(rounds.max(3), &mut overhead_variants);
        drop(overhead_variants);
        let frac = (walls[1] - walls[0]) / walls[0];
        eprintln!(
            "n={n}: profiler overhead {:+.2}% (bare {:.1} ms, profiled {:.1} ms)",
            frac * 100.0,
            walls[0],
            walls[1]
        );
        assert!(
            frac <= 0.05,
            "n={n}: profiler overhead {:.2}% exceeds the 5% budget \
             (bare {:.1} ms, profiled {:.1} ms)",
            frac * 100.0,
            walls[0],
            walls[1]
        );
        Some(frac)
    } else {
        None
    };

    let session = session_rows(n, &l1, &l2, rounds);

    let size_labels = |kernel: &str| ems_obs::labels(&[("n", &n.to_string()), ("kernel", kernel)]);
    metrics.gauge_set("bench_wall_ms", size_labels("reference"), reference_ms);
    for p in &sweep {
        metrics.gauge_set(
            "bench_wall_ms",
            ems_obs::labels(&[
                ("n", &n.to_string()),
                ("kernel", "pool"),
                ("threads", &p.threads.to_string()),
            ]),
            p.wall_ms,
        );
    }
    metrics.gauge_set(
        "bench_wall_ms",
        size_labels("session_cold"),
        session.cold_ms,
    );
    metrics.gauge_set(
        "bench_wall_ms",
        size_labels("session_cached"),
        session.cached_ms,
    );
    metrics.gauge_set(
        "bench_wall_ms",
        size_labels("session_warm"),
        session.warm_ms,
    );
    metrics.gauge_set(
        "bench_wall_ms",
        size_labels("session_disk"),
        session.disk_ms,
    );
    metrics.gauge_set(
        "bench_formula_evals",
        ems_obs::labels(&[("n", &n.to_string())]),
        serial_out.stats.formula_evals as f64,
    );

    let parallel = sweep[1..]
        .iter()
        .map(|p| format!(", {}-thread {:.1} ms", p.threads, p.wall_ms))
        .collect::<String>();
    eprintln!(
        "n={n}: reference {reference_ms:.1} ms, serial {:.1} ms ({:.2}x){parallel}; \
         session cold {:.1} ms, cached {:.1} ms, warm {:.1} ms, disk-warm {:.1} ms",
        sweep[0].wall_ms,
        reference_ms / sweep[0].wall_ms,
        session.cold_ms,
        session.cached_ms,
        session.warm_ms,
        session.disk_ms,
    );

    SizeReport {
        n,
        pairs: g1.num_real() * g2.num_real(),
        iterations: serial_out.stats.iterations,
        formula_evals: serial_out.stats.formula_evals,
        setup_ms: serial_out.stats.phase_times.setup.as_secs_f64() * 1e3,
        reference_ms,
        sweep,
        session,
        convergence,
        profiler_overhead_frac,
    }
}

/// The catalog-serving throughput row (tentpole of the serve PR): one
/// shared catalog answering top-k queries with sketch pruning, measured
/// against the per-process baseline — a fresh [`MatchSession`] for every
/// (query, reference) pair, exactly what scripting `ems match` in a loop
/// costs.
struct ServeBenchReport {
    refs: usize,
    queries: usize,
    k: usize,
    baseline_wall_ms: f64,
    baseline_queries_per_sec: f64,
    serve_wall_ms: f64,
    serve_queries_per_sec: f64,
    speedup: f64,
    evaluated: u64,
    pruned: u64,
    pruned_fraction: f64,
}

/// One clean playout of a process tree for the serve corpus.
fn serve_base(tree_seed: u64, playout_seed: u64) -> ems_events::EventLog {
    PairGenerator::new(PairConfig {
        tree: TreeConfig {
            num_activities: SERVE_N,
            seed: tree_seed,
            max_branch: (SERVE_N / 4).max(4),
            ..TreeConfig::default()
        },
        traces_per_log: 60,
        seed: playout_seed,
        ..PairConfig::default()
    })
    .generate()
    .log1
}

/// A deployment variant of `log`: the traces at `drop` removed (distinct
/// recorded subsets per site), every activity name carried into the
/// family's namespace via `prefix`, and — for query logs — every
/// `opaque_stride`-th activity renamed to a site-local opaque token
/// (heterogeneous vocabulary the matcher must bridge structurally).
fn serve_variant(
    log: &ems_events::EventLog,
    drop: &[usize],
    prefix: &str,
    opaque_stride: usize,
) -> ems_events::EventLog {
    let mut out = ems_events::EventLog::new();
    for (i, tr) in log.traces().iter().enumerate() {
        if drop.contains(&i) {
            continue;
        }
        out.push_trace(tr.events().iter().map(|&id| {
            let idx = id.index();
            if opaque_stride > 0 && idx % opaque_stride == 0 {
                format!("{prefix}opaque{idx}")
            } else {
                format!("{prefix}{}", log.name_of(id))
            }
        }));
    }
    out
}

/// Generates the serve corpus: [`SERVE_QUERIES`] families — each one
/// process, recorded at [`SERVE_FAMILY_VARIANTS`] near-duplicate sites
/// (same playout, distinct dropped-trace subsets, a family name prefix) —
/// plus structurally unrelated decoy references, [`SERVE_REFS`] in total.
/// Each query is a fourth variant of its family with ~8% of activities
/// opaquely renamed, so it has close in-family neighbors and is far from
/// everything else — the catalog-retrieval shape the label-aware sketch
/// bound is built for.
fn serve_corpus() -> (Vec<ems_events::EventLog>, Vec<ems_events::EventLog>) {
    const FAMILY_DROPS: [&[usize]; SERVE_FAMILY_VARIANTS] = [&[0, 7], &[2, 11], &[4, 13]];
    let mut refs = Vec::new();
    let mut queries = Vec::new();
    for f in 0..SERVE_QUERIES {
        let base = serve_base(100 + f as u64, 11 + f as u64);
        let prefix = format!("f{f}:");
        for drops in FAMILY_DROPS {
            refs.push(serve_variant(&base, drops, &prefix, 0));
        }
        queries.push(serve_variant(&base, &[1, 9], &prefix, 12));
    }
    let decoys = SERVE_REFS - SERVE_QUERIES * SERVE_FAMILY_VARIANTS;
    for d in 0..decoys {
        let base = serve_base(300 + d as u64, 31 + d as u64);
        refs.push(serve_variant(&base, &[], &format!("d{d}:"), 0));
    }
    (refs, queries)
}

fn serve_bench(metrics: &Recorder) -> ServeBenchReport {
    // Catalog retrieval runs structure + exact-equality labels at the
    // paper's α = 0.5 split: the equality measure is what lets the sketch
    // cap the label term by name-set overlap (see `ems_depgraph::sketch`),
    // which is where the pruning power on same-scale corpora comes from.
    let params = EmsParams::with_exact_labels(0.5);
    let (refs, queries) = serve_corpus();

    // Both paths consume what a real deployment consumes: XES documents.
    // Serialization is untimed (the files exist either way); parsing is
    // timed where each path actually pays it.
    let to_xes = |l: &ems_events::EventLog| ems_xes::write_string(&ems_xes::from_event_log(l));
    let ref_xes: Vec<String> = refs.iter().map(to_xes).collect();
    let query_xes: Vec<String> = queries.iter().map(to_xes).collect();
    let parse = |text: &str| -> ems_events::EventLog {
        ems_xes::load_event_log_str(text, ems_xes::ParseMode::Strict)
            .expect("serve corpus round-trips through XES")
            .log
    };

    // Baseline: per-process matching. Every (query, reference) pair pays
    // both parses and a full fresh-session build — graphs, substrates,
    // labels, and the solve — exactly like running
    // `ems match query.xes ref-i.xes` in a shell loop and ranking the
    // printed scores.
    let start = Instant::now();
    let mut baseline_top: Vec<Vec<usize>> = Vec::new();
    for qx in &query_xes {
        let mut scored: Vec<(f64, usize)> = Vec::new();
        for (ri, rx) in ref_xes.iter().enumerate() {
            let mut session = MatchSession::try_new(params.clone()).expect("params are valid");
            let hq = session.ingest(parse(qx));
            let hr = session.ingest(parse(rx));
            let out = session.match_pair(hq, hr).expect("session match succeeds");
            scored.push((outcome_score(&out), ri));
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        baseline_top.push(scored[..SERVE_K].iter().map(|&(_, ri)| ri).collect());
    }
    let baseline_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Serve path: one shared catalog, references admitted once (untimed —
    // that is the amortization a resident service buys), then the query
    // batch timed end-to-end: each query's XES parse, graph build, sketch
    // pass, and the surviving exact fixpoints.
    let shared = Arc::new(SharedSession::try_new(params.clone()).expect("params are valid"));
    let mut catalog = Catalog::new(shared);
    for (ri, rlog) in refs.iter().enumerate() {
        catalog.add(format!("ref-{ri:02}"), rlog.clone());
    }
    assert_eq!(
        catalog.len(),
        SERVE_REFS,
        "serve corpus collided on content"
    );

    let start = Instant::now();
    let mut outcomes = Vec::new();
    let mut parsed_queries = Vec::new();
    for qx in &query_xes {
        let q = parse(qx);
        outcomes.push(
            catalog
                .query_top_k_opts(&q, SERVE_K, true)
                .expect("catalog query succeeds"),
        );
        parsed_queries.push(q);
    }
    let serve_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut evaluated = 0u64;
    let mut pruned = 0u64;
    for (qi, out) in outcomes.iter().enumerate() {
        evaluated += out.evaluated as u64;
        pruned += out.pruned as u64;
        // Pruning must be invisible in the results: the ranking equals
        // both the unpruned catalog pass and the per-process baseline.
        let unpruned = catalog
            .query_top_k_opts(&parsed_queries[qi], SERVE_K, false)
            .expect("catalog query succeeds");
        assert_eq!(unpruned.pruned, 0);
        let names = |o: &ems_catalog::QueryOutcome| -> Vec<String> {
            o.ranked.iter().map(|r| r.name.clone()).collect()
        };
        assert_eq!(
            names(out),
            names(&unpruned),
            "query {qi}: pruned ranking diverged from exact (recall < 1.0)"
        );
        let expected: Vec<String> = baseline_top[qi]
            .iter()
            .map(|&ri| format!("ref-{ri:02}"))
            .collect();
        assert_eq!(
            names(out),
            expected,
            "query {qi}: catalog ranking diverged from the per-process baseline"
        );
    }
    let pruned_fraction = pruned as f64 / (evaluated + pruned).max(1) as f64;
    let per_sec = |wall_ms: f64| {
        if wall_ms <= 0.0 {
            0.0
        } else {
            queries.len() as f64 / (wall_ms / 1e3)
        }
    };
    let baseline_queries_per_sec = per_sec(baseline_wall_ms);
    let serve_queries_per_sec = per_sec(serve_wall_ms);
    let speedup = baseline_wall_ms / serve_wall_ms;
    assert!(
        speedup >= 5.0,
        "serve throughput {serve_queries_per_sec:.2} q/s is only {speedup:.2}x the \
         per-process baseline {baseline_queries_per_sec:.2} q/s (needs >= 5x)"
    );
    assert!(
        pruned_fraction >= 0.5,
        "sketch pruning skipped only {:.0}% of exact fixpoints (needs >= 50%)",
        pruned_fraction * 100.0
    );

    metrics.gauge_set(
        "bench_wall_ms",
        ems_obs::labels(&[("n", &SERVE_N.to_string()), ("kernel", "serve_batch")]),
        serve_wall_ms,
    );
    metrics.gauge_set(
        "bench_wall_ms",
        ems_obs::labels(&[("n", &SERVE_N.to_string()), ("kernel", "serve_baseline")]),
        baseline_wall_ms,
    );
    eprintln!(
        "serve: {} refs, {} queries, k={}: catalog {:.1} ms ({:.2} q/s) vs \
         per-process {:.1} ms ({:.2} q/s) — {speedup:.1}x, {pruned}/{} fixpoints pruned",
        SERVE_REFS,
        queries.len(),
        SERVE_K,
        serve_wall_ms,
        serve_queries_per_sec,
        baseline_wall_ms,
        baseline_queries_per_sec,
        evaluated + pruned,
    );

    ServeBenchReport {
        refs: SERVE_REFS,
        queries: queries.len(),
        k: SERVE_K,
        baseline_wall_ms,
        baseline_queries_per_sec,
        serve_wall_ms,
        serve_queries_per_sec,
        speedup,
        evaluated,
        pruned,
        pruned_fraction,
    }
}

fn convergence_of(recorder: &Recorder) -> Vec<IterationRecord> {
    recorder
        .records()
        .into_iter()
        .filter_map(|r| match r {
            Record::Iteration(ir) => Some(ir),
            _ => None,
        })
        .collect()
}

/// Session pipeline rows: cold (graph + substrate + label build + both
/// solves) vs cached re-match (a pure outcome-cache hit) vs warm-started
/// re-match (solves seeded at the prior fixpoint, sound by Theorem 1
/// monotonicity) vs disk-warm (a fresh session rehydrating every build
/// product from the durable catalog store). Cold needs a fresh session
/// every round; cached and warm reuse that round's session. Unlike the
/// kernel rows (iteration count pinned for identical work), the session
/// trio runs the default convergence params — the warm win only exists
/// when the prior actually converged.
fn session_rows(
    n: usize,
    l1: &ems_events::EventLog,
    l2: &ems_events::EventLog,
    rounds: usize,
) -> SessionReport {
    let session_params = EmsParams::structural();
    let mut cold_ms = f64::INFINITY;
    let mut cached_ms = f64::INFINITY;
    let mut warm_ms = f64::INFINITY;
    for _ in 0..rounds {
        let mut session = MatchSession::try_new(session_params.clone()).expect("params are valid");
        let h1 = session.ingest(l1.clone());
        let h2 = session.ingest(l2.clone());
        let warm_opts = SessionOptions {
            warm_start: true,
            ..SessionOptions::default()
        };
        let start = Instant::now();
        let cold = session.match_pair(h1, h2).expect("session match succeeds");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < cold_ms {
            cold_ms = ms;
        }
        let start = Instant::now();
        let cached = session.match_pair(h1, h2).expect("session match succeeds");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < cached_ms {
            cached_ms = ms;
        }
        let start = Instant::now();
        let _warm = session
            .match_pair_opts(h1, h2, &warm_opts)
            .expect("session match succeeds");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < warm_ms {
            warm_ms = ms;
        }
        // The cached re-match must be a pure cache hit: bit-identical.
        assert_eq!(cold.similarity.data(), cached.similarity.data());
    }
    // The PR7 outcome cache makes a cached re-match a map lookup + clone;
    // anything above half the cold wall means the cache is doing
    // redundant work again (the PR5/PR6 symptom this PR fixed).
    assert!(
        cached_ms <= 0.5 * cold_ms,
        "n={n}: cached re-match {cached_ms:.2} ms is not <= 0.5x cold {cold_ms:.2} ms"
    );

    // Disk-warm row: one session populates the durable catalog store
    // (untimed), then a *fresh* session — no shared memory, only the
    // store directory — is timed rehydrating every build product from
    // checksummed snapshots.
    let mut disk_ms = f64::INFINITY;
    let store_root =
        std::env::temp_dir().join(format!("ems-perf-store-{}-{n}", std::process::id()));
    for _ in 0..rounds {
        let _ = std::fs::remove_dir_all(&store_root);
        let store = Arc::new(CatalogStore::open(&store_root).expect("store opens"));
        let mut populate = MatchSession::try_new(session_params.clone())
            .expect("params are valid")
            .with_store(store);
        let h1 = populate.ingest(l1.clone());
        let h2 = populate.ingest(l2.clone());
        let cold = populate.match_pair(h1, h2).expect("session match succeeds");
        drop(populate);
        // Reopen the store as a fresh process would.
        let store = Arc::new(CatalogStore::open(&store_root).expect("store reopens"));
        let mut fresh = MatchSession::try_new(session_params.clone())
            .expect("params are valid")
            .with_store(store);
        let h1 = fresh.ingest(l1.clone());
        let h2 = fresh.ingest(l2.clone());
        let start = Instant::now();
        let disk = fresh.match_pair(h1, h2).expect("session match succeeds");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < disk_ms {
            disk_ms = ms;
        }
        // The disk-warm run must be a pure rehydration: nothing built,
        // scores bit-identical to the populating cold run.
        assert_eq!(fresh.stats().graph_builds, 0);
        assert_eq!(fresh.stats().substrate_builds, 0);
        assert_eq!(cold.similarity.data(), disk.similarity.data());
    }
    let _ = std::fs::remove_dir_all(&store_root);

    SessionReport {
        cold_ms,
        cached_ms,
        warm_ms,
        disk_ms,
    }
}

fn render_json(
    host_parallelism: usize,
    reports: &[SizeReport],
    serve: &ServeBenchReport,
) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"pr7_kernel_scaling\",\n");
    let _ = writeln!(json, "  \"host_parallelism\": {host_parallelism},");
    json.push_str("  \"sizes\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"pairs\": {},", r.pairs);
        let _ = writeln!(json, "      \"iterations\": {},", r.iterations);
        let _ = writeln!(json, "      \"formula_evals\": {},", r.formula_evals);
        let _ = writeln!(json, "      \"setup_ms\": {:.3},", r.setup_ms);
        let _ = writeln!(json, "      \"reference_wall_ms\": {:.3},", r.reference_ms);
        let _ = writeln!(
            json,
            "      \"reference_pairs_per_sec\": {:.0},",
            r.pairs_per_sec(r.reference_ms)
        );
        let _ = writeln!(
            json,
            "      \"speedup_serial_vs_reference\": {:.2},",
            r.reference_ms / r.serial_ms()
        );
        let _ = writeln!(json, "      \"serial_wall_ms\": {:.3},", r.serial_ms());
        let _ = writeln!(
            json,
            "      \"serial_pairs_per_sec\": {:.0},",
            r.pairs_per_sec(r.serial_ms())
        );
        if let Some(parallel_ms) = r.parallel_ms() {
            let _ = writeln!(json, "      \"parallel_wall_ms\": {parallel_ms:.3},");
            let _ = writeln!(
                json,
                "      \"parallel_pairs_per_sec\": {:.0},",
                r.pairs_per_sec(parallel_ms)
            );
            let _ = writeln!(
                json,
                "      \"speedup_parallel_vs_serial\": {:.2},",
                r.serial_ms() / parallel_ms
            );
        }
        json.push_str("      \"thread_sweep\": [\n");
        for (j, p) in r.sweep.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"threads\": {}, \"wall_ms\": {:.3}, \"pairs_per_sec\": {:.0}, \
                 \"speedup_vs_serial\": {:.2}, \"pool_shards\": {}}}",
                p.threads,
                p.wall_ms,
                r.pairs_per_sec(p.wall_ms),
                r.serial_ms() / p.wall_ms,
                p.pool_shards
            );
            json.push_str(if j + 1 == r.sweep.len() { "\n" } else { ",\n" });
        }
        json.push_str("      ],\n");
        if let Some(frac) = r.profiler_overhead_frac {
            let _ = write!(json, "      \"profiler_overhead_frac\": ");
            ems_obs::json::write_f64(&mut json, frac);
            json.push_str(",\n");
        }
        let s = &r.session;
        let _ = writeln!(json, "      \"session_cold_wall_ms\": {:.3},", s.cold_ms);
        let _ = writeln!(
            json,
            "      \"session_cached_wall_ms\": {:.3},",
            s.cached_ms
        );
        let _ = writeln!(json, "      \"session_warm_wall_ms\": {:.3},", s.warm_ms);
        let _ = writeln!(json, "      \"session_disk_wall_ms\": {:.3},", s.disk_ms);
        json.push_str("      \"convergence\": [\n");
        for (j, it) in r.convergence.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"iteration\": {}, \"max_delta\": ",
                it.iteration
            );
            ems_obs::json::write_f64(&mut json, it.max_delta);
            json.push_str(", \"mean_delta\": ");
            ems_obs::json::write_f64(&mut json, it.mean_delta);
            let _ = write!(
                json,
                ", \"active_pairs\": {}, \"retired_pairs\": {}, \
                 \"frozen_pairs\": {}, \"formula_evals\": {}}}",
                it.active_pairs, it.retired_pairs, it.frozen_pairs, it.formula_evals
            );
            json.push_str(if j + 1 == r.convergence.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        json.push_str("      ]\n");
        json.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"serve\": {\n");
    let _ = writeln!(json, "    \"refs\": {},", serve.refs);
    let _ = writeln!(json, "    \"queries\": {},", serve.queries);
    let _ = writeln!(json, "    \"k\": {},", serve.k);
    let _ = writeln!(
        json,
        "    \"baseline_wall_ms\": {:.3},",
        serve.baseline_wall_ms
    );
    let _ = writeln!(
        json,
        "    \"baseline_queries_per_sec\": {:.3},",
        serve.baseline_queries_per_sec
    );
    let _ = writeln!(json, "    \"wall_ms\": {:.3},", serve.serve_wall_ms);
    let _ = writeln!(
        json,
        "    \"queries_per_sec\": {:.3},",
        serve.serve_queries_per_sec
    );
    let _ = writeln!(
        json,
        "    \"speedup_vs_per_process\": {:.2},",
        serve.speedup
    );
    let _ = writeln!(json, "    \"evaluated_fixpoints\": {},", serve.evaluated);
    let _ = writeln!(json, "    \"pruned_fixpoints\": {},", serve.pruned);
    let _ = write!(json, "    \"pruned_fraction\": ");
    ems_obs::json::write_f64(&mut json, serve.pruned_fraction);
    json.push_str("\n  }\n}\n");
    json
}
