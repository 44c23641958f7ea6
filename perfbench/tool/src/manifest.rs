//! The workload manifest: what `gen` wrote and what every later step reads.
//!
//! ```text
//! {"workload":W,"alpha":A,"exact_labels":B,"k":K,"workers":N,
//!  "byte_budget":U|null,"refs":[FILE,...],
//!  "requests":[{"files":[FILE,...],"k":K},...],"trace":[I,...]}
//! ```
//!
//! File names are relative to the manifest's directory. A `pair-cold`
//! request names two logs (`ems match A B`) and its `refs` are a minimal
//! pair for timing `ems match`'s fixed cost; a serve request names one
//! query log and `refs` are the catalog's references. `trace` lists the
//! request indices the traced run drives.

use ems_obs::json::{self, Value};
use std::path::{Path, PathBuf};

pub struct Request {
    pub files: Vec<String>,
    pub k: usize,
}

pub struct Manifest {
    pub dir: PathBuf,
    pub workload: String,
    pub alpha: f64,
    pub exact_labels: bool,
    pub k: usize,
    pub workers: usize,
    pub byte_budget: Option<u64>,
    pub refs: Vec<String>,
    pub requests: Vec<Request>,
    pub trace: Vec<usize>,
}

impl Manifest {
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    pub fn write(&self) -> std::io::Result<()> {
        let mut out = String::from("{\"workload\":");
        json::write_escaped(&mut out, &self.workload);
        out.push_str(",\"alpha\":");
        json::write_f64(&mut out, self.alpha);
        out.push_str(&format!(
            ",\"exact_labels\":{},\"k\":{},\"workers\":{},\"byte_budget\":{}",
            self.exact_labels,
            self.k,
            self.workers,
            self.byte_budget
                .map_or_else(|| "null".to_owned(), |b| b.to_string())
        ));
        out.push_str(",\"refs\":[");
        push_strings(&mut out, &self.refs);
        out.push_str("],\"requests\":[");
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"files\":[");
            push_strings(&mut out, &r.files);
            out.push_str(&format!("],\"k\":{}}}", r.k));
        }
        out.push_str("],\"trace\":[");
        let trace: Vec<String> = self.trace.iter().map(usize::to_string).collect();
        out.push_str(&trace.join(","));
        out.push_str("]}\n");
        std::fs::write(self.dir.join("manifest.json"), out)
    }

    pub fn read(dir: &Path) -> Result<Manifest, String> {
        let path = dir.join("manifest.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let strings = |v: Option<&Value>| -> Vec<String> {
            v.and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| s.as_str().map(str::to_owned))
                .collect()
        };
        let num = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0) as usize;
        let requests = v
            .get("requests")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|r| Request {
                files: strings(r.get("files")),
                k: r.get("k").and_then(Value::as_u64).unwrap_or(1) as usize,
            })
            .collect();
        Ok(Manifest {
            dir: dir.to_path_buf(),
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("manifest has no workload")?
                .to_owned(),
            alpha: v.get("alpha").and_then(Value::as_f64).unwrap_or(1.0),
            exact_labels: matches!(v.get("exact_labels"), Some(Value::Bool(true))),
            k: num("k"),
            workers: num("workers"),
            byte_budget: v.get("byte_budget").and_then(Value::as_u64),
            refs: strings(v.get("refs")),
            requests,
            trace: v
                .get("trace")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|i| i.as_u64().map(|i| i as usize))
                .collect(),
        })
    }

    /// The EMS parameters `ems match` / `ems serve` run with for this
    /// workload (the CLI defaults plus the workload's flags).
    pub fn params(&self) -> ems_core::EmsParams {
        ems_core::EmsParams {
            alpha: self.alpha,
            label_measure: if self.exact_labels {
                ems_core::LabelMeasure::ExactName
            } else {
                ems_core::LabelMeasure::QgramCosine
            },
            ..ems_core::EmsParams::default()
        }
    }

    pub fn is_serve(&self) -> bool {
        self.workload != "pair-cold"
    }
}

fn push_strings(out: &mut String, items: &[String]) {
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, s);
    }
}

/// Loads a log exactly as the CLI does: strict XES parse, and the file
/// path as the log name when the document carries none.
pub fn load_log(path: &Path) -> Result<(ems_events::EventLog, usize), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut log = ems_xes::load_event_log_str(&text, ems_xes::ParseMode::Strict)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .log;
    if log.name().is_none() {
        log.set_name(path.to_string_lossy());
    }
    Ok((log, text.len()))
}
