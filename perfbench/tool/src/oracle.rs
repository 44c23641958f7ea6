//! The output oracle: recomputes every served answer through the library
//! and compares it with what the binaries printed.
//!
//! * `ems match`: the one-shot [`Ems`] pipeline plus
//!   [`max_total_assignment`], formatted as `--quiet` prints it; the text
//!   must be identical.
//! * `ems serve`: the brute-force `Catalog::query_top_k_opts(.., false)`
//!   over the same references; names and scores must be bit-identical and
//!   `evaluated + pruned` must cover the catalog.
//!
//! A nonzero exit, an `{"error":..}` line or a timeout is a failure too.

use crate::manifest::{load_log, Manifest};
use crate::served::{self, Served};
use ems_assignment::{max_total_assignment, Correspondence};
use ems_catalog::Catalog;
use ems_core::Ems;
use ems_events::{EventId, EventLog};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `ems match`'s default `--min-score`.
pub const MIN_SCORE: f64 = 0.05;
/// Oracle worker threads; each solve runs serially inside its worker.
const ORACLE_THREADS: usize = 2;

/// The lines `ems match --quiet` prints for an assignment.
pub fn correspondence_lines(l1: &EventLog, l2: &EventLog, cs: &[Correspondence]) -> String {
    let mut out = String::new();
    for c in cs {
        out.push_str(&format!(
            "{}\t{}\t{:.4}\n",
            l1.name_of(EventId::from_index(c.left)),
            l2.name_of(EventId::from_index(c.right)),
            c.score
        ));
    }
    out
}

pub fn run(dir: &Path, served_path: &Path) -> Result<(), String> {
    let manifest = Manifest::read(dir)?;
    let served = served::read(served_path)?;
    let failures = if manifest.is_serve() {
        check_serve(&manifest, &served)?
    } else {
        check_match(&manifest, &served)
    };
    print_verdict(served.len(), &failures);
    Ok(())
}

/// Prints `{"checked":N,"bad":[LINE,...],"failures":[MSG,...]}`: the
/// served lines (0-based) that failed, and at most ten messages.
fn print_verdict(checked: usize, failures: &BTreeMap<usize, String>) {
    let bad: Vec<String> = failures.keys().map(usize::to_string).collect();
    let mut out = format!(
        "{{\"checked\":{checked},\"bad\":[{}],\"failures\":[",
        bad.join(",")
    );
    for (i, f) in failures.values().take(10).enumerate() {
        if i > 0 {
            out.push(',');
        }
        ems_obs::json::write_escaped(&mut out, f);
    }
    out.push_str("]}");
    println!("{out}");
}

/// Runs `check` over `items` on [`ORACLE_THREADS`] workers, collecting
/// the failure messages by item position.
fn parallel<T: Sync>(
    items: &[T],
    check: impl Fn(&T) -> Option<String> + Sync,
) -> BTreeMap<usize, String> {
    let next = AtomicUsize::new(0);
    let found = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..ORACLE_THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if let Some(msg) = check(item) {
                    found.lock().expect("oracle lock").insert(i, msg);
                }
            });
        }
    });
    found.into_inner().expect("oracle lock")
}

fn check_match(manifest: &Manifest, served: &[Served]) -> BTreeMap<usize, String> {
    let ems = Ems::try_new(manifest.params().with_threads(1)).expect("CLI default parameters");
    parallel(served, |s| {
        if s.code != 0 {
            return Some(format!("request {}: exit code {}", s.index, s.code));
        }
        let [a, b] = s.files.as_slice() else {
            return Some(format!("request {}: expected two logs", s.index));
        };
        let (l1, l2) = match (load_log(Path::new(a)), load_log(Path::new(b))) {
            (Ok((l1, _)), Ok((l2, _))) => (l1, l2),
            (Err(e), _) | (_, Err(e)) => return Some(format!("request {}: {e}", s.index)),
        };
        let sim = ems.match_logs(&l1, &l2).similarity;
        let cs = max_total_assignment(sim.rows(), sim.cols(), |i, j| sim.get(i, j), MIN_SCORE);
        let want = correspondence_lines(&l1, &l2, &cs);
        (s.out != want).then(|| {
            format!(
                "request {}: `ems match` printed {} lines, the library gives {} (first difference at line {})",
                s.index,
                s.out.lines().count(),
                want.lines().count(),
                s.out
                    .lines()
                    .zip(want.lines())
                    .position(|(g, w)| g != w)
                    .unwrap_or_else(|| s.out.lines().count().min(want.lines().count()))
                    + 1
            )
        })
    })
}

fn check_serve(manifest: &Manifest, served: &[Served]) -> Result<BTreeMap<usize, String>, String> {
    // The catalog keeps one reference per content fingerprint.
    let references = served::reference_catalog(manifest)?.len();
    // One brute-force ranking per distinct query file, each on a catalog
    // of its own so cached outcomes do not pile up; repeats reuse it.
    let mut files: Vec<&str> = served
        .iter()
        .filter_map(|s| s.files.first().map(String::as_str))
        .collect();
    files.sort_unstable();
    files.dedup();
    let rankings = Mutex::new(BTreeMap::new());
    parallel(&files, |file| {
        let ranking = served::reference_catalog(manifest).and_then(|c| full_ranking(&c, file));
        rankings.lock().expect("oracle lock").insert(*file, ranking);
        None
    });
    let rankings = rankings.into_inner().expect("oracle lock");
    Ok(served
        .iter()
        .enumerate()
        .filter_map(|(pos, s)| {
            check_response(&rankings, s, manifest, references)
                .map(|msg| (pos, format!("request {}: {msg}", s.index)))
        })
        .collect())
}

fn full_ranking(catalog: &Catalog, file: &str) -> Result<served::Ranking, String> {
    let (log, _) = load_log(Path::new(file))?;
    let outcome = catalog
        .query_top_k_opts(&log, catalog.len(), false)
        .map_err(|e| e.to_string())?;
    Ok(outcome
        .ranked
        .into_iter()
        .map(|r| (r.name, r.ems_score))
        .collect())
}

fn check_response(
    rankings: &BTreeMap<&str, Result<served::Ranking, String>>,
    s: &Served,
    manifest: &Manifest,
    references: usize,
) -> Option<String> {
    if s.code != 0 {
        return Some(format!("no response (code {})", s.code));
    }
    let (got, evaluated, pruned) = match served::parse_response(&s.out) {
        Ok(r) => r,
        Err(e) => return Some(e),
    };
    let want = match s.files.first().and_then(|f| rankings.get(f.as_str())) {
        Some(Ok(want)) => want,
        Some(Err(e)) => return Some(e.clone()),
        None => return Some("no oracle ranking for this query".into()),
    };
    let k = manifest.requests.get(s.index).map_or(manifest.k, |r| r.k);
    if evaluated + pruned != references {
        return Some(format!(
            "evaluated {evaluated} + pruned {pruned} != {references} references"
        ));
    }
    served::ranking_diff(&got, &want[..k.min(want.len())])
}
