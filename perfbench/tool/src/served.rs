//! What the real binaries answered, as `run.py` recorded it: one JSON
//! line per request,
//!
//! ```text
//! {"i":INDEX,"files":[ABS_PATH,...],"code":EXIT,"out":TEXT,"latency_ms":F}
//! ```
//!
//! `out` is `ems match --quiet`'s stdout for `pair-cold`, and the JSONL
//! response line for the serve workloads. `code` is the process exit code
//! (`ems match`) or 0 (serve). A request that timed out has code -1.

use crate::manifest::Manifest;
use ems_catalog::Catalog;
use ems_core::{persist, SharedSession};
use ems_events::fingerprint_log;
use ems_obs::json::{self, Value};
use std::path::Path;
use std::sync::Arc;

pub struct Served {
    pub index: usize,
    pub files: Vec<String>,
    pub code: i64,
    pub out: String,
    pub latency_ms: f64,
}

pub fn read(path: &Path) -> Result<Vec<Served>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        out.push(Served {
            index: v.get("i").and_then(Value::as_u64).unwrap_or(0) as usize,
            files: v
                .get("files")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_owned))
                .collect(),
            code: v.get("code").and_then(Value::as_f64).unwrap_or(-1.0) as i64,
            out: v
                .get("out")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
            latency_ms: v.get("latency_ms").and_then(Value::as_f64).unwrap_or(0.0),
        });
    }
    Ok(out)
}

/// One ranked entry of a serve response: reference name and score.
pub type Ranking = Vec<(String, f64)>;

/// Parses a serve response line into its ranking and planner counters,
/// or the reason it is not a ranking.
pub fn parse_response(line: &str) -> Result<(Ranking, usize, usize), String> {
    let v = json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    if let Some(err) = v.get("error") {
        return Err(format!("error response: {}", err.as_str().unwrap_or("?")));
    }
    let ranked = v
        .get("ranked")
        .and_then(Value::as_array)
        .ok_or("response has no ranking")?
        .iter()
        .map(|r| {
            let name = r
                .get("ref")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            let score = r
                .get("ems_score")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            (name, score)
        })
        .collect();
    let count = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0) as usize;
    Ok((ranked, count("evaluated"), count("pruned")))
}

/// Compares two rankings bit for bit; `None` when they agree.
pub fn ranking_diff(got: &[(String, f64)], want: &[(String, f64)]) -> Option<String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
    (!same).then(|| format!("ranking {got:?} differs from {want:?}"))
}

/// Admits the workload's references into `catalog` the way `ems serve`
/// does at start-up: in store-key order, under the log's own name.
pub fn admit_refs(manifest: &Manifest, catalog: &mut Catalog) -> Result<(), String> {
    let mut logs = Vec::new();
    for file in &manifest.refs {
        let (log, _) = crate::manifest::load_log(&manifest.path(file))?;
        logs.push((persist::log_store_key(fingerprint_log(&log)), log));
    }
    logs.sort_by_key(|(key, _)| *key);
    for (key, log) in logs {
        let name = log
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("log-{key:016x}"));
        catalog.add(name, log);
    }
    Ok(())
}

/// A catalog of the workload's references with no store and no pin
/// budget: the brute-force side of every ranking check.
pub fn reference_catalog(manifest: &Manifest) -> Result<Catalog, String> {
    let params = manifest.params().with_threads(1);
    let shared = SharedSession::try_new(params).map_err(|e| e.to_string())?;
    let mut catalog = Catalog::new(Arc::new(shared));
    admit_refs(manifest, &mut catalog)?;
    Ok(catalog)
}
