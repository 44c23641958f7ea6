//! Command implementations for the `ems` binary.

use crate::args::{CatalogAction, CatalogArgs, Command, MatchArgs, ReportArgs, ReportMode, USAGE};
use ems_assignment::max_total_assignment;
use ems_core::composite::{
    discover_candidates, CandidateConfig, CompositeConfig, CompositeMatcher,
};
use ems_core::{persist, Ems, EmsParams, LabelMeasure, MatchSession, SessionOptions};
use ems_depgraph::{filter_min_frequency, to_dot, DependencyGraph};
use ems_error::EmsError;
use ems_eval::Table;
use ems_events::{fingerprint_log, EventId, EventLog, LogStats, SymbolTable};
use ems_obs::Recorder;
use ems_store::{CatalogStore, EntryStatus, SnapshotKind};
use ems_xes::ParseMode;
use std::sync::Arc;

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), EmsError> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Stats { path, recover } => stats(&path, recover),
        Command::Dot { path, recover } => dot(&path, recover),
        Command::Match(args) => do_match(&args),
        Command::Compare(args) => {
            let recover = args.recover;
            crate::extra::compare(&args, |p| load(p, recover))
        }
        Command::Synth(args) => crate::extra::synth(&args),
        Command::Convert {
            input,
            output,
            recover,
        } => crate::extra::convert(&input, &output, recover),
        Command::Report(args) => report(&args),
        Command::Catalog(args) => catalog(&args),
        Command::Serve(args) => crate::serve::serve(&args),
    }
}

/// Implements `ems catalog add|list|verify|gc`.
fn catalog(args: &CatalogArgs) -> Result<(), EmsError> {
    let store = CatalogStore::open(&args.store)?;
    match &args.action {
        CatalogAction::Add {
            path,
            recover,
            min_freq,
        } => {
            let recorder = Arc::new(Recorder::new());
            let store = store.with_recorder(Arc::clone(&recorder));
            catalog_add(&store, &recorder, path, *recover, *min_freq).map(|_| ())
        }
        CatalogAction::List => {
            let entries = store.list()?;
            if entries.is_empty() {
                println!("catalog {} is empty", args.store);
                return Ok(());
            }
            for e in &entries {
                let kind = e.kind.map_or("?", |k| k.name());
                let key = e.key.map_or("-".to_owned(), |k| format!("{k:016x}"));
                let status = match &e.status {
                    EntryStatus::Ok => "ok".to_owned(),
                    EntryStatus::Corrupt(reason) => format!("CORRUPT: {reason}"),
                };
                println!(
                    "{:<12} {}  {:>8} B  {}  {}",
                    kind, key, e.bytes, e.file, status
                );
            }
            Ok(())
        }
        CatalogAction::Verify => {
            let report = store.verify()?;
            println!(
                "verified {}: {} ok, {} corrupt",
                args.store,
                report.ok,
                report.corrupt.len()
            );
            for (file, reason) in &report.corrupt {
                println!("  CORRUPT {file}: {reason}");
            }
            if report.corrupt.is_empty() {
                Ok(())
            } else {
                Err(EmsError::store_corrupt(
                    &args.store,
                    format!("{} corrupt snapshot(s)", report.corrupt.len()),
                ))
            }
        }
        CatalogAction::Gc => {
            let report = store.gc()?;
            println!(
                "gc {}: removed {} torn temp file(s), {} quarantined snapshot(s)",
                args.store, report.removed_tmp, report.removed_quarantined
            );
            Ok(())
        }
    }
}

/// `ems catalog add` body: snapshots the log and its dependency graph —
/// unless both snapshots for this exact content fingerprint (and graph
/// parameterization) are already committed and whole, in which case
/// nothing is re-encoded and the `store.dedup_hit` counter fires.
/// Returns whether the add was a dedup hit. A corrupt existing snapshot
/// is not a hit: the failed probe read quarantines it and the re-put
/// repairs the store.
fn catalog_add(
    store: &CatalogStore,
    recorder: &Recorder,
    path: &str,
    recover: bool,
    min_freq: f64,
) -> Result<bool, EmsError> {
    let log = load(path, recover)?;
    let fp = fingerprint_log(&log);
    let log_key = persist::log_store_key(fp);
    let graph_key = persist::graph_store_key(fp, min_freq);
    let log_present = matches!(
        store.get(SnapshotKind::Log, log_key, persist::LOG_PAYLOAD_VERSION),
        Ok(Some(_))
    );
    let graph_present = log_present
        && matches!(
            store.get(
                SnapshotKind::Graph,
                graph_key,
                persist::GRAPH_PAYLOAD_VERSION
            ),
            Ok(Some(_))
        );
    if log_present && graph_present {
        recorder.counter_add("store.dedup_hit", ems_obs::labels(&[]), 1);
        println!(
            "dedup: {path} (log {fp:016x}) already snapshotted at min-freq \
             {min_freq} — skipped re-encode"
        );
        return Ok(true);
    }
    store.put(
        SnapshotKind::Log,
        log_key,
        persist::LOG_PAYLOAD_VERSION,
        &persist::encode_log(&log),
    )?;
    let mut table = SymbolTable::new();
    let built = DependencyGraph::from_log_in(&log, &mut table);
    let (graph, removed) = if min_freq > 0.0 {
        filter_min_frequency(&built, min_freq)
    } else {
        (built, 0)
    };
    store.put(
        SnapshotKind::Graph,
        graph_key,
        persist::GRAPH_PAYLOAD_VERSION,
        &persist::encode_graph(&graph),
    )?;
    println!(
        "added {}: log {:016x} ({} traces, {} events), graph {} nodes, \
         {} edges ({} filtered)",
        path,
        fp,
        log.num_traces(),
        log.alphabet_size(),
        graph.num_real(),
        graph.real_edges().len(),
        removed
    );
    Ok(false)
}

/// Renders `ems report`: a human-readable run report from a `--trace`
/// JSONL file, or — with `--trajectory`/`--compare` — views over an
/// `ems-bench/1` trajectory. A truncated or malformed input is a typed
/// [`EmsError::Parse`] (exit 4) carrying the offending line, never a panic
/// and never a usage error (the invocation itself was well-formed).
fn report(args: &ReportArgs) -> Result<(), EmsError> {
    let path = args.path.as_str();
    let text = std::fs::read_to_string(path).map_err(|e| EmsError::io(path, e.to_string()))?;
    match &args.mode {
        ReportMode::Trace => {
            let records = ems_obs::jsonl::parse_records(&text).map_err(|e| EmsError::Parse {
                offset: Some(e.line),
                message: format!("{path}: not a valid ems trace: {e}"),
            })?;
            print!("{}", ems_obs::report::render(&records));
        }
        ReportMode::Trajectory => {
            let rows = parse_trajectory(path, &text)?;
            print!("{}", ems_obs::trajectory::render_trajectory(&rows));
        }
        ReportMode::Compare { a, b } => {
            let rows = parse_trajectory(path, &text)?;
            let find = |id: &str| {
                rows.iter()
                    .rev()
                    .find(|r| r.run_id == id)
                    .ok_or_else(|| EmsError::usage(format!("run id `{id}` not found in {path}")))
            };
            let (row_a, row_b) = (find(a)?, find(b)?);
            // Two rows with disjoint metric sets would render an empty
            // table — make that a typed error instead of silent success,
            // so scripts gating on the comparison notice the mismatch.
            if !row_a.metrics.keys().any(|k| row_b.metrics.contains_key(k)) {
                return Err(EmsError::Parse {
                    offset: None,
                    message: format!(
                        "{path}: no comparable metrics — runs `{a}` and `{b}` \
                         share no metric names"
                    ),
                });
            }
            print!("{}", ems_obs::trajectory::render_compare(row_a, row_b));
        }
    }
    Ok(())
}

/// Parses an `ems-bench/1` trajectory file with a typed parse error.
fn parse_trajectory(
    path: &str,
    text: &str,
) -> Result<Vec<ems_obs::trajectory::TrajectoryRow>, EmsError> {
    ems_obs::trajectory::parse(text).map_err(|e| EmsError::Parse {
        offset: Some(e.line),
        message: format!("{path}: not a valid ems-bench trajectory: {e}"),
    })
}

/// Attaches the file path to errors whose context would otherwise be lost
/// (a parse error alone does not say *which* of two logs is broken).
pub(crate) fn with_path(e: EmsError, path: &str) -> EmsError {
    match e {
        EmsError::Parse { offset, message } => EmsError::Parse {
            offset,
            message: format!("{path}: {message}"),
        },
        EmsError::Io { path: p, message } if p.is_empty() => EmsError::Io {
            path: path.to_owned(),
            message,
        },
        other => other,
    }
}

/// Loads an event log, auto-detecting XES vs MXML. In recovery mode,
/// malformed regions are skipped and reported one-per-line on stderr.
pub(crate) fn load(path: &str, recover: bool) -> Result<EventLog, EmsError> {
    load_traced(path, recover, None)
}

/// Like [`load`], but additionally tallies ingestion warning counts into a
/// [`Recorder`] (as `xes_warnings{kind,log}` counters) when one is given.
fn load_traced(
    path: &str,
    recover: bool,
    trace: Option<(&Recorder, &str)>,
) -> Result<EventLog, EmsError> {
    let mode = if recover {
        ParseMode::Recovery
    } else {
        ParseMode::Strict
    };
    let text = std::fs::read_to_string(path).map_err(|e| EmsError::io(path, e.to_string()))?;
    let recovered =
        ems_xes::load_event_log_str(&text, mode).map_err(|e| with_path(e.into(), path))?;
    for w in &recovered.warnings {
        eprintln!("ems: warning: {path}: {w}");
    }
    if let Some((recorder, label)) = trace {
        ems_xes::record_ingestion(recorder, label, &recovered);
    }
    let mut log = recovered.log;
    if log.name().is_none() {
        log.set_name(path);
    }
    Ok(log)
}

fn stats(path: &str, recover: bool) -> Result<(), EmsError> {
    let log = load(path, recover)?;
    println!("{}", LogStats::of(&log));
    let g = DependencyGraph::from_log(&log);
    println!(
        "dependency graph: {} nodes, {} edges (avg degree {:.2})",
        g.num_real(),
        g.real_edges().len(),
        g.avg_degree()
    );
    let mut events: Vec<(String, f64)> = (0..log.alphabet_size())
        .map(|i| {
            let id = EventId::from_index(i);
            (log.name_of(id).to_owned(), log.event_frequency(id))
        })
        .collect();
    events.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, f) in events {
        println!("  {f:.3}  {name}");
    }
    Ok(())
}

fn dot(path: &str, recover: bool) -> Result<(), EmsError> {
    let log = load(path, recover)?;
    let g = DependencyGraph::from_log(&log);
    print!("{}", to_dot(&g, log.name().unwrap_or("event log")));
    Ok(())
}

fn do_match(args: &MatchArgs) -> Result<(), EmsError> {
    if args.budget.is_some() && args.composites {
        return Err(EmsError::usage(
            "--budget is not supported together with --composites",
        ));
    }
    let recorder =
        (args.trace.is_some() || args.metrics.is_some()).then(|| Arc::new(Recorder::new()));
    let rec = recorder.as_deref();
    let l1 = load_traced(&args.log1, args.recover, rec.map(|r| (r, "log1")))?;
    let l2 = load_traced(&args.log2, args.recover, rec.map(|r| (r, "log2")))?;
    let mut params = EmsParams {
        alpha: args.alpha,
        label_measure: if args.exact_labels {
            LabelMeasure::ExactName
        } else {
            LabelMeasure::QgramCosine
        },
        c: args.c,
        threads: args.threads,
        ..EmsParams::default()
    };
    if let Some(i) = args.estimate {
        params.estimate_after = Some(i);
    }

    let (log1, log2, sim) = if args.composites {
        let ems = Ems::try_new(params)?;
        let config = CompositeConfig {
            delta: args.delta,
            ..CompositeConfig::default()
        };
        let cands1 = discover_candidates(&l1, &CandidateConfig::default());
        let cands2 = discover_candidates(&l2, &CandidateConfig::default());
        let outcome =
            CompositeMatcher::new(ems, config).match_logs_recorded(&l1, &l2, &cands1, &cands2, rec);
        if !args.quiet {
            for m in &outcome.merges {
                println!(
                    "# merged composite in log {}: {}",
                    m.side,
                    m.candidate.merged_name()
                );
            }
        }
        (outcome.log1, outcome.log2, outcome.similarity)
    } else {
        // The staged pipeline: ingest → model → substrate → solve →
        // aggregate. One recorder serves both roles here — session stage
        // telemetry (graph gauges, cache counters) and the engine trace
        // land in the same output files.
        let mut session = MatchSession::try_new(params)?.with_min_frequency(args.min_freq);
        if let Some(r) = &recorder {
            session = session.with_recorder(Arc::clone(r));
        }
        if let Some(dir) = &args.store {
            let mut store = CatalogStore::open(dir)?;
            if let Some(r) = &recorder {
                store = store.with_recorder(Arc::clone(r));
            }
            session = session.with_store(Arc::new(store));
        }
        let h1 = session.ingest(l1.clone());
        let h2 = session.ingest(l2.clone());
        let options = SessionOptions {
            budget: args.budget.clone().unwrap_or_default(),
            recorder: recorder.clone(),
            ..SessionOptions::default()
        };
        let out = session.match_pair_opts(h1, h2, &options)?;
        if let Some(c) = out.stats.thread_clamp {
            eprintln!(
                "ems: note: --threads {} exceeds the host's {} available \
                 cores; the pool ran {} wide (results are identical at any \
                 width)",
                c.requested, c.clamped_to, c.clamped_to
            );
        }
        if out.stats.degraded {
            eprintln!(
                "ems: note: budget exhausted after {} iterations; {} pairs \
                 finished by closed-form estimation (degraded result)",
                out.stats.iterations, out.stats.estimated_pairs
            );
        }
        (l1, l2, out.similarity)
    };

    let cs = max_total_assignment(sim.rows(), sim.cols(), |i, j| sim.get(i, j), args.min_score);
    let mut table = Table::new(
        format!(
            "correspondences: {} <-> {}",
            log1.name().unwrap_or("log1"),
            log2.name().unwrap_or("log2")
        ),
        vec!["event in log 1", "event in log 2", "similarity"],
    );
    for c in &cs {
        let left = log1.name_of(EventId::from_index(c.left));
        let right = log2.name_of(EventId::from_index(c.right));
        if args.quiet {
            println!("{left}\t{right}\t{:.4}", c.score);
        } else {
            table.row(vec![
                left.to_owned(),
                right.to_owned(),
                format!("{:.4}", c.score),
            ]);
        }
    }
    if !args.quiet {
        print!("{}", table.to_text());
        println!("{} correspondences", cs.len());
    }
    if let Some(csv) = &args.csv {
        table
            .write_csv(csv)
            .map_err(|e| EmsError::io(csv, e.to_string()))?;
    }
    if let Some(r) = &recorder {
        let records = r.records();
        if let Some(path) = &args.trace {
            std::fs::write(path, ems_obs::jsonl::write(&records))
                .map_err(|e| EmsError::io(path, e.to_string()))?;
        }
        if let Some(path) = &args.metrics {
            std::fs::write(path, ems_obs::prom::write(&records))
                .map_err(|e| EmsError::io(path, e.to_string()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_xes::{from_event_log, write_file};

    fn write_sample_logs(dir: &std::path::Path) -> (String, String) {
        let mut l1 = EventLog::with_name("orders-A");
        for _ in 0..2 {
            l1.push_trace(["Paid by Cash", "Check", "Validate", "Ship"]);
        }
        for _ in 0..3 {
            l1.push_trace(["Paid by Card", "Check", "Validate", "Ship"]);
        }
        let mut l2 = EventLog::with_name("orders-B");
        for _ in 0..2 {
            l2.push_trace(["Accept", "e-cash", "Check+Validate", "e-ship"]);
        }
        for _ in 0..3 {
            l2.push_trace(["Accept", "e-card", "Check+Validate", "e-ship"]);
        }
        let p1 = dir.join("l1.xes");
        let p2 = dir.join("l2.xes");
        write_file(&from_event_log(&l1), &p1).unwrap();
        write_file(&from_event_log(&l2), &p2).unwrap();
        (
            p1.to_string_lossy().into_owned(),
            p2.to_string_lossy().into_owned(),
        )
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ems-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn match_command_runs_end_to_end() {
        let dir = tmpdir("match");
        let (p1, p2) = write_sample_logs(&dir);
        let args = MatchArgs {
            log1: p1,
            log2: p2,
            alpha: 1.0,
            exact_labels: false,
            c: 0.8,
            estimate: None,
            min_freq: 0.0,
            min_score: 0.0,
            composites: false,
            delta: 0.005,
            csv: Some(dir.join("out.csv").to_string_lossy().into_owned()),
            recover: false,
            budget: None,
            threads: 0,
            quiet: true,
            trace: None,
            metrics: None,
            store: None,
        };
        do_match(&args).unwrap();
        let csv = std::fs::read_to_string(dir.join("out.csv")).unwrap();
        assert!(csv.lines().count() >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn composite_match_runs() {
        let dir = tmpdir("composite");
        let (p1, p2) = write_sample_logs(&dir);
        let args = MatchArgs {
            log1: p1,
            log2: p2,
            alpha: 1.0,
            exact_labels: false,
            c: 0.8,
            estimate: Some(5),
            min_freq: 0.0,
            min_score: 0.0,
            composites: true,
            delta: 0.001,
            csv: None,
            recover: false,
            budget: None,
            threads: 0,
            quiet: true,
            trace: None,
            metrics: None,
            store: None,
        };
        do_match(&args).unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn traced_match_exports_valid_trace_and_metrics() {
        let dir = tmpdir("traced");
        let (p1, p2) = write_sample_logs(&dir);
        let trace_path = dir.join("run.jsonl").to_string_lossy().into_owned();
        let metrics_path = dir.join("run.prom").to_string_lossy().into_owned();
        let args = MatchArgs {
            log1: p1,
            log2: p2,
            alpha: 1.0,
            exact_labels: false,
            c: 0.8,
            estimate: None,
            min_freq: 0.0,
            min_score: 0.0,
            composites: false,
            delta: 0.005,
            csv: None,
            recover: false,
            budget: None,
            threads: 0,
            quiet: true,
            trace: Some(trace_path.clone()),
            metrics: Some(metrics_path.clone()),
            store: None,
        };
        do_match(&args).unwrap();

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let records = ems_obs::jsonl::parse_records(&trace).unwrap();
        // Both engines must report a convergence curve with non-increasing
        // max deltas, and the graph/run instrumentation must be present.
        let curves = ems_obs::jsonl::check_convergence(&records).unwrap();
        assert_eq!(curves.len(), 2, "expected forward + backward curves");
        assert!(trace.contains("graph_vertices"));
        assert!(trace.contains("run.iterations"));

        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("# TYPE ems_graph_vertices gauge"));
        assert!(metrics.contains("ems_run_iterations"));

        // The report subcommand renders the same trace.
        report(&ReportArgs {
            path: trace_path.clone(),
            mode: ReportMode::Trace,
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stats_and_dot_run() {
        let dir = tmpdir("stats");
        let (p1, _) = write_sample_logs(&dir);
        stats(&p1, false).unwrap();
        dot(&p1, false).unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        assert!(stats("/nonexistent/nope.xes", false).is_err());
        let err = load("/nonexistent/nope.xes", false).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("nope.xes"));
    }

    #[test]
    fn budget_with_composites_is_a_usage_error() {
        let args = MatchArgs {
            log1: "a.xes".into(),
            log2: "b.xes".into(),
            alpha: 1.0,
            exact_labels: false,
            c: 0.8,
            estimate: None,
            min_freq: 0.0,
            min_score: 0.0,
            composites: true,
            delta: 0.005,
            csv: None,
            recover: false,
            budget: Some(ems_core::Budget {
                max_iterations: Some(1),
                ..Default::default()
            }),
            threads: 0,
            quiet: true,
            trace: None,
            metrics: None,
            store: None,
        };
        let err = do_match(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn help_prints() {
        run(Command::Help).unwrap();
    }

    #[test]
    fn compare_without_shared_metrics_is_a_typed_error() {
        let dir = tmpdir("compare");
        let path = dir.join("bench.jsonl");
        // Two rows with disjoint metric sets, one overlapping pair below.
        std::fs::write(
            &path,
            "{\"schema\":\"ems-bench/1\",\"run_id\":\"a\",\"git_rev\":\"g\",\
             \"host\":\"h\",\"source\":\"s\",\"metrics\":{\"n50.x_ms\":1.0}}\n\
             {\"schema\":\"ems-bench/1\",\"run_id\":\"b\",\"git_rev\":\"g\",\
             \"host\":\"h\",\"source\":\"s\",\"metrics\":{\"n800.y_ms\":2.0}}\n\
             {\"schema\":\"ems-bench/1\",\"run_id\":\"c\",\"git_rev\":\"g\",\
             \"host\":\"h\",\"source\":\"s\",\"metrics\":{\"n50.x_ms\":1.5}}\n",
        )
        .unwrap();
        let p = path.to_string_lossy().into_owned();
        let err = report(&ReportArgs {
            path: p.clone(),
            mode: ReportMode::Compare {
                a: "a".into(),
                b: "b".into(),
            },
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("no comparable metrics"), "{err}");
        // Runs that do share a metric still render.
        report(&ReportArgs {
            path: p,
            mode: ReportMode::Compare {
                a: "a".into(),
                b: "c".into(),
            },
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn catalog_add_dedups_identical_fingerprint_snapshots() {
        let dir = tmpdir("dedup");
        let (p1, p2) = write_sample_logs(&dir);
        let store_dir = dir.join("store");
        let recorder = Arc::new(Recorder::new());
        let store = CatalogStore::open(&store_dir)
            .unwrap()
            .with_recorder(Arc::clone(&recorder));

        // First add writes both snapshots; the identical re-add writes
        // nothing and fires the dedup counter.
        assert!(!catalog_add(&store, &recorder, &p1, false, 0.0).unwrap());
        let writes_after_first = store.stats().writes;
        assert!(catalog_add(&store, &recorder, &p1, false, 0.0).unwrap());
        assert_eq!(store.stats().writes, writes_after_first);
        let trace = ems_obs::jsonl::write(&recorder.records());
        assert!(trace.contains("store.dedup_hit"), "{trace}");

        // A different parameterization of the same log is not a hit (its
        // graph snapshot does not exist yet), nor is a different log.
        assert!(!catalog_add(&store, &recorder, &p1, false, 0.5).unwrap());
        assert!(!catalog_add(&store, &recorder, &p2, false, 0.0).unwrap());

        // Corrupting the committed log snapshot breaks the dedup: the
        // probe read quarantines it and the add re-puts whole snapshots.
        let fp = fingerprint_log(&load(&p1, false).unwrap());
        let objects = store_dir.join("objects");
        let victim = objects.join(format!("log-{:016x}.snap", persist::log_store_key(fp)));
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
        assert!(!catalog_add(&store, &recorder, &p1, false, 0.0).unwrap());
        assert!(store.verify().unwrap().corrupt.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn catalog_workflow_and_store_backed_match() {
        let dir = tmpdir("catalog");
        let (p1, p2) = write_sample_logs(&dir);
        let store_dir = dir.join("catalog").to_string_lossy().into_owned();
        // add + list + verify + gc run clean on a fresh store.
        catalog(&CatalogArgs {
            store: store_dir.clone(),
            action: CatalogAction::Add {
                path: p1.clone(),
                recover: false,
                min_freq: 0.0,
            },
        })
        .unwrap();
        catalog(&CatalogArgs {
            store: store_dir.clone(),
            action: CatalogAction::List,
        })
        .unwrap();
        catalog(&CatalogArgs {
            store: store_dir.clone(),
            action: CatalogAction::Verify,
        })
        .unwrap();
        catalog(&CatalogArgs {
            store: store_dir.clone(),
            action: CatalogAction::Gc,
        })
        .unwrap();
        // A store-backed match persists the remaining products…
        let args = MatchArgs {
            log1: p1,
            log2: p2,
            alpha: 1.0,
            exact_labels: false,
            c: 0.8,
            estimate: None,
            min_freq: 0.0,
            min_score: 0.0,
            composites: false,
            delta: 0.005,
            csv: None,
            recover: false,
            budget: None,
            threads: 0,
            quiet: true,
            trace: None,
            metrics: None,
            store: Some(store_dir.clone()),
        };
        do_match(&args).unwrap();
        do_match(&args).unwrap(); // …and a re-run disk-warms from them.
                                  // Corrupting a snapshot makes verify fail with the store-corrupt
                                  // exit code; gc then reclaims the quarantined copy once a reader
                                  // trips over it.
        let objects = std::path::Path::new(&store_dir).join("objects");
        let snap = std::fs::read_dir(&objects)
            .unwrap()
            .filter_map(|e| Some(e.ok()?.path()))
            .find(|p| p.extension().is_some_and(|e| e == "snap"))
            .unwrap();
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let err = catalog(&CatalogArgs {
            store: store_dir.clone(),
            action: CatalogAction::Verify,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 10);
        // The match still succeeds: corrupt snapshots rebuild from source.
        do_match(&args).unwrap();
        catalog(&CatalogArgs {
            store: store_dir,
            action: CatalogAction::Gc,
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }
}
