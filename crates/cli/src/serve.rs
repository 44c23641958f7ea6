//! `ems serve` — a long-lived catalog-matching service over stdin/stdout.
//!
//! Startup ingests every reference log snapshot found in the durable
//! store into an [`ems_catalog::Catalog`] (pinned graphs, sketches,
//! byte-budgeted eviction), then the loop reads one JSONL query per line
//! (`{"log": PATH, "k": N}`) and emits one JSONL response per query —
//! the sketch-pruned top-k ranking with its planner counters:
//!
//! ```text
//! {"query":PATH,"k":N,"ranked":[{"ref":NAME,"ems_score":S},...],
//!  "pruned":P,"evaluated":E}
//! ```
//!
//! Per-query failures (missing file, malformed XES, malformed request
//! line) are JSONL `{"error": ...}` responses, never a dead service.
//! With `--workers W` queries are processed W at a time through the
//! shared session — responses stay in input order, and rankings are
//! identical at any width.

use crate::args::ServeArgs;
use ems_catalog::{Catalog, QueryOutcome};
use ems_core::{persist, EmsParams, LabelMeasure, SharedSession};
use ems_error::EmsError;
use ems_obs::json::{self, Value};
use ems_obs::Recorder;
use ems_store::{CatalogStore, EntryStatus, SnapshotKind};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Runs the serve loop over real stdin/stdout.
pub fn serve(args: &ServeArgs) -> Result<(), EmsError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_io(args, stdin.lock(), stdout.lock())
}

/// The testable core: queries in, responses out.
pub fn serve_io(
    args: &ServeArgs,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), EmsError> {
    // Telemetry is recorded only for `--metrics`: every record is kept in
    // memory for the life of the process.
    let recorder = args.metrics.as_ref().map(|_| Arc::new(Recorder::new()));
    let mut store = CatalogStore::open(&args.store)?;
    if let Some(r) = &recorder {
        store = store.with_recorder(Arc::clone(r));
    }
    let store = Arc::new(store);
    let params = EmsParams {
        alpha: args.alpha,
        label_measure: if args.exact_labels {
            LabelMeasure::ExactName
        } else {
            LabelMeasure::QgramCosine
        },
        c: args.c,
        ..EmsParams::default()
    };
    let mut shared = SharedSession::try_new(params)?
        .with_min_frequency(args.min_freq)
        .with_store(Arc::clone(&store));
    if let Some(r) = &recorder {
        shared = shared.with_recorder(Arc::clone(r));
    }
    let mut catalog = Catalog::new(Arc::new(shared)).with_store(Arc::clone(&store));
    if let Some(r) = &recorder {
        catalog = catalog.with_recorder(Arc::clone(r));
    }
    if let Some(budget) = args.byte_budget {
        catalog = catalog.with_byte_budget(budget);
    }
    let admitted = admit_references(&mut catalog, &store)?;
    eprintln!(
        "ems serve: {admitted} reference(s) from {} ({} logical bytes pinned)",
        args.store,
        catalog.pinned_bytes()
    );

    let mut queries = 0usize;
    let mut lines = input.lines();
    loop {
        // One batch of up to `workers` queries; blank lines are skipped.
        let mut batch: Vec<String> = Vec::with_capacity(args.workers);
        for line in lines.by_ref() {
            let line = line.map_err(|e| EmsError::io("<stdin>", e.to_string()))?;
            if line.trim().is_empty() {
                continue;
            }
            batch.push(line);
            if batch.len() == args.workers {
                break;
            }
        }
        if batch.is_empty() {
            break;
        }
        queries += batch.len();
        let responses: Vec<String> = if args.workers <= 1 {
            batch
                .iter()
                .map(|l| handle_query(&catalog, args, l))
                .collect()
        } else {
            let catalog_ref = &catalog;
            std::thread::scope(|scope| {
                let handles: Vec<_> = batch
                    .iter()
                    .map(|l| scope.spawn(move || handle_query(catalog_ref, args, l)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| error_response(None, "query worker panicked"))
                    })
                    .collect()
            })
        };
        for response in &responses {
            writeln!(output, "{response}").map_err(|e| EmsError::io("<stdout>", e.to_string()))?;
        }
        output
            .flush()
            .map_err(|e| EmsError::io("<stdout>", e.to_string()))?;
    }

    let stats = catalog.stats();
    eprintln!(
        "ems serve: {queries} query(ies) answered; catalog hits {}, misses {}, evictions {}",
        stats.hits, stats.misses, stats.evictions
    );
    if let (Some(path), Some(r)) = (&args.metrics, &recorder) {
        std::fs::write(path, ems_obs::prom::write(&r.records()))
            .map_err(|e| EmsError::io(path, e.to_string()))?;
    }
    Ok(())
}

/// Ingests every valid reference-log snapshot from the store, in key
/// order so admission indices are deterministic across restarts.
fn admit_references(catalog: &mut Catalog, store: &CatalogStore) -> Result<usize, EmsError> {
    let mut keys: Vec<u64> = store
        .list()?
        .into_iter()
        .filter(|e| e.kind == Some(SnapshotKind::Log) && matches!(e.status, EntryStatus::Ok))
        .filter_map(|e| e.key)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut admitted = 0usize;
    for key in keys {
        let bytes = match store.get(SnapshotKind::Log, key, persist::LOG_PAYLOAD_VERSION) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => continue,
            Err(e) => {
                // A corrupt snapshot was quarantined by the read; the
                // reference simply is not served until re-added.
                eprintln!("ems serve: warning: skipping log {key:016x}: {e}");
                continue;
            }
        };
        let log = match persist::decode_log(&bytes) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("ems serve: warning: skipping log {key:016x}: {e}");
                continue;
            }
        };
        let name = log
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("log-{key:016x}"));
        catalog.add(name, log);
        admitted += 1;
    }
    Ok(admitted)
}

/// Answers one request line; every failure mode is a JSON error response.
fn handle_query(catalog: &Catalog, args: &ServeArgs, line: &str) -> String {
    let request = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_response(None, &format!("malformed request: {e}")),
    };
    let Some(path) = request.get("log").and_then(Value::as_str) else {
        return error_response(None, "request is missing string field 'log'");
    };
    let k = match request.get("k") {
        None => args.k,
        Some(v) => match v.as_u64() {
            Some(k) if k >= 1 => k as usize,
            _ => return error_response(Some(path), "'k' must be a positive integer"),
        },
    };
    let log = match crate::commands::load(path, args.recover) {
        Ok(log) => log,
        Err(e) => return error_response(Some(path), &e.to_string()),
    };
    match catalog.query_top_k_opts(&log, k, args.prune) {
        Ok(outcome) => ranked_response(path, k, &outcome),
        Err(e) => error_response(Some(path), &e.to_string()),
    }
}

fn ranked_response(path: &str, k: usize, outcome: &QueryOutcome) -> String {
    let mut out = String::new();
    out.push_str("{\"query\":");
    json::write_escaped(&mut out, path);
    out.push_str(&format!(",\"k\":{k},\"ranked\":["));
    for (i, r) in outcome.ranked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ref\":");
        json::write_escaped(&mut out, &r.name);
        out.push_str(",\"ems_score\":");
        json::write_f64(&mut out, r.ems_score);
        out.push('}');
    }
    out.push_str(&format!(
        "],\"pruned\":{},\"evaluated\":{}}}",
        outcome.pruned, outcome.evaluated
    ));
    out
}

fn error_response(path: Option<&str>, message: &str) -> String {
    let mut out = String::new();
    out.push('{');
    if let Some(path) = path {
        out.push_str("\"query\":");
        json::write_escaped(&mut out, path);
        out.push(',');
    }
    out.push_str("\"error\":");
    json::write_escaped(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_events::{fingerprint_log, EventLog};
    use ems_xes::{from_event_log, write_file};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ems-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Three distinguishable reference processes plus a query log that is
    /// a near-copy of the first.
    fn reference_logs() -> Vec<EventLog> {
        let mut a = EventLog::with_name("orders");
        for _ in 0..4 {
            a.push_trace(["receive", "check", "pack", "ship"]);
        }
        a.push_trace(["receive", "check", "reject"]);
        let mut b = EventLog::with_name("claims");
        for _ in 0..4 {
            b.push_trace(["file", "triage", "assess", "payout", "close"]);
        }
        b.push_trace(["file", "triage", "deny", "close"]);
        let mut c = EventLog::with_name("tickets");
        for _ in 0..3 {
            c.push_trace(["open", "assign", "resolve"]);
        }
        c.push_trace(["open", "escalate", "assign", "resolve"]);
        vec![a, b, c]
    }

    fn query_like_orders() -> EventLog {
        let mut q = EventLog::with_name("orders-query");
        for _ in 0..4 {
            q.push_trace(["intake", "verify", "box", "dispatch"]);
        }
        q.push_trace(["intake", "verify", "refuse"]);
        q
    }

    fn populate_store(dir: &std::path::Path) -> String {
        let root = dir.join("store").to_string_lossy().into_owned();
        let store = CatalogStore::open(&root).unwrap();
        for log in reference_logs() {
            let fp = fingerprint_log(&log);
            store
                .put(
                    SnapshotKind::Log,
                    persist::log_store_key(fp),
                    persist::LOG_PAYLOAD_VERSION,
                    &persist::encode_log(&log),
                )
                .unwrap();
        }
        root
    }

    fn serve_args(store: String) -> ServeArgs {
        ServeArgs {
            store,
            k: 2,
            workers: 1,
            alpha: 1.0,
            exact_labels: false,
            c: 0.8,
            min_freq: 0.0,
            byte_budget: None,
            prune: true,
            recover: false,
            metrics: None,
        }
    }

    fn run_serve(args: &ServeArgs, input: &str) -> Vec<String> {
        let mut out: Vec<u8> = Vec::new();
        serve_io(args, std::io::Cursor::new(input.to_owned()), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn serves_ranked_responses_and_survives_bad_queries() {
        let dir = tmpdir("loop");
        let store = populate_store(&dir);
        let qpath = dir.join("query.xes");
        write_file(&from_event_log(&query_like_orders()), &qpath).unwrap();
        let q = qpath.to_string_lossy().into_owned();

        let input = format!(
            "{{\"log\": \"{q}\", \"k\": 1}}\nnot json\n\
             {{\"log\": \"/nonexistent/nope.xes\"}}\n{{\"log\": \"{q}\"}}\n",
        );
        let args = serve_args(store);
        let lines = run_serve(&args, &input);
        assert_eq!(lines.len(), 4, "{lines:?}");

        // First response: k=1, the structurally closest reference wins.
        let first = json::parse(&lines[0]).unwrap();
        let ranked = first.get("ranked").and_then(Value::as_array).unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(
            ranked[0].get("ref").and_then(Value::as_str),
            Some("orders"),
            "{lines:?}"
        );
        let evaluated = first.get("evaluated").and_then(Value::as_u64).unwrap();
        let pruned = first.get("pruned").and_then(Value::as_u64).unwrap();
        assert_eq!(evaluated + pruned, 3);

        // Malformed request and missing file are error responses, and the
        // loop keeps serving afterwards.
        assert!(json::parse(&lines[1]).unwrap().get("error").is_some());
        assert!(json::parse(&lines[2]).unwrap().get("error").is_some());
        let last = json::parse(&lines[3]).unwrap();
        // The default k (2) applies when the request omits it.
        assert_eq!(last.get("k").and_then(Value::as_u64), Some(2));
        assert_eq!(
            last.get("ranked")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn worker_pool_and_no_prune_rankings_are_identical() {
        let dir = tmpdir("workers");
        let store = populate_store(&dir);
        let qpath = dir.join("query.xes");
        write_file(&from_event_log(&query_like_orders()), &qpath).unwrap();
        let q = qpath.to_string_lossy().into_owned();
        let input = format!("{{\"log\": \"{q}\"}}\n").repeat(4);

        let serial = serve_args(store.clone());
        let serial_lines = run_serve(&serial, &input);

        let mut pooled = serve_args(store.clone());
        pooled.workers = 4;
        let pooled_lines = run_serve(&pooled, &input);
        assert_eq!(serial_lines, pooled_lines);

        // --no-prune evaluates everything but ranks identically.
        let mut noprune = serve_args(store);
        noprune.prune = false;
        let noprune_lines = run_serve(&noprune, &input);
        assert_eq!(noprune_lines.len(), serial_lines.len());
        for (pruned_line, full_line) in serial_lines.iter().zip(&noprune_lines) {
            let p = json::parse(pruned_line).unwrap();
            let f = json::parse(full_line).unwrap();
            assert_eq!(p.get("ranked"), f.get("ranked"));
            assert_eq!(f.get("pruned").and_then(Value::as_u64), Some(0));
            assert_eq!(f.get("evaluated").and_then(Value::as_u64), Some(3));
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metrics_file_carries_catalog_and_session_counters() {
        let dir = tmpdir("metrics");
        let store = populate_store(&dir);
        let qpath = dir.join("query.xes");
        write_file(&from_event_log(&query_like_orders()), &qpath).unwrap();
        let q = qpath.to_string_lossy().into_owned();
        let metrics = dir.join("serve.prom");
        let mut args = serve_args(store);
        args.metrics = Some(metrics.to_string_lossy().into_owned());
        // The repeat is answered from the outcome cache.
        let lines = run_serve(&args, &format!("{{\"log\": \"{q}\"}}\n").repeat(2));
        assert_eq!(lines.len(), 2);
        let prom = std::fs::read_to_string(&metrics).unwrap();
        for name in [
            "ems_catalog_hit",
            "ems_session_graph_cache",
            "ems_session_substrate_cache",
            "ems_session_label_cache",
            "ems_session_outcome_cache",
            "ems_store_write",
        ] {
            assert!(prom.contains(name), "{name} missing from:\n{prom}");
        }
        assert!(!prom.contains("ems_shared_"), "{prom}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn byte_budget_eviction_does_not_change_rankings() {
        let dir = tmpdir("budget");
        let store = populate_store(&dir);
        let qpath = dir.join("query.xes");
        write_file(&from_event_log(&query_like_orders()), &qpath).unwrap();
        let q = qpath.to_string_lossy().into_owned();
        let input = format!("{{\"log\": \"{q}\"}}\n").repeat(3);

        let unlimited = serve_args(store.clone());
        let want = run_serve(&unlimited, &input);

        // A 1-byte budget evicts every pinned graph immediately: each
        // query reloads references through the store, ranking unchanged.
        let mut thrashing = serve_args(store);
        thrashing.byte_budget = Some(1);
        let got = run_serve(&thrashing, &input);
        assert_eq!(want, got);
        let _ = std::fs::remove_dir_all(dir);
    }
}
