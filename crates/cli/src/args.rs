//! Hand-rolled argument parsing for the `ems` binary.

use ems_core::Budget;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
ems — match heterogeneous event logs (SIGMOD'14 EMS reproduction)

USAGE:
  ems match   <log1.xes> <log2.xes> [OPTIONS]  compute correspondences
  ems compare <log1.xes> <log2.xes> [OPTIONS]  run all matchers side by side
  ems stats   <log.xes> [--recover]            print log statistics
  ems dot     <log.xes> [--recover]            dependency graph as Graphviz DOT
  ems synth   [OPTIONS]                        generate a synthetic log pair
  ems convert <in.(xes|mxml)> <out.(xes|mxml)> [--recover]
                                               convert between formats
  ems report  <trace.jsonl>                    render a recorded run trace as a
                                               human-readable report
  ems report  <bench.jsonl> --trajectory       render an ems-bench/1 trajectory
                                               (runs, metric history, regressions)
  ems report  <bench.jsonl> --compare <A> <B>  compare two trajectory runs by
                                               run id, flagging per-metric
                                               regressions past the threshold
  ems catalog <add|list|verify|gc> --store <DIR> [ARGS]
                                               manage a durable snapshot catalog
  ems serve   --store <DIR> [OPTIONS]          serve top-k catalog queries:
                                               JSONL requests on stdin
                                               ({\"log\": PATH, \"k\": N}), one
                                               ranked JSONL response per line
  ems help                                     this text

MATCH OPTIONS:
  --alpha <A>       structural weight in [0,1]; 1 = structure only (default 1)
  --exact-labels    label similarity = strict name equality instead of q-gram
                    cosine (only meaningful with --alpha below 1)
  --c <C>           similarity decay in (0,1) (default 0.8)
  --estimate <I>    estimate after I exact iterations (EMS+es)
  --min-freq <F>    drop dependency edges with frequency < F (default 0)
  --min-score <S>   drop correspondences scoring below S (default 0.05)
  --composites      enable greedy composite-event matching (Algorithm 2)
  --delta <D>       min avg-similarity improvement per merge (default 0.005)
  --csv <FILE>      also write the correspondences as CSV
  --recover         skip malformed log regions instead of aborting;
                    each skipped region is reported as a warning on stderr
  --budget <SPEC>   resource budget per similarity run; on exhaustion the
                    run degrades gracefully to closed-form estimation.
                    SPEC is comma-separated limits: iters=<N>, evals=<N>,
                    ms=<N> (e.g. --budget iters=5,ms=2000)
  --threads <N>     worker threads for the fixpoint iteration; 0 = all
                    available cores (default), 1 = serial. Results are
                    bit-identical for every value
  --trace <FILE>    write a JSONL run trace (per-iteration convergence,
                    phases, events; schema ems-trace/1) — render it with
                    `ems report`
  --metrics <FILE>  write Prometheus-style text metrics
  --store <DIR>     durable snapshot catalog: serve graphs/substrates/labels
                    from checksummed on-disk snapshots when present, persist
                    what gets rebuilt. Corrupt snapshots are quarantined and
                    rebuilt from source — never fatal
  --quiet           print only the correspondence lines

COMPARE OPTIONS:
  --alpha <A>       structural weight (default 1)
  --opq-budget <N>  OPQ search budget in nodes (default 1000000)
  --recover         skip malformed log regions instead of aborting

SYNTH OPTIONS:
  --activities <N>  process size (default 20)      --traces <N>   (default 100)
  --seed <N>        RNG seed (default 42)           --opaque <F>   (default 1.0)
  --dislocate-front <M> / --dislocate-back <M>      --composites <N>
  --out1 <FILE> --out2 <FILE> (default pair1.xes/pair2.xes)
  --truth <FILE>    also write the ground truth as CSV

CATALOG ACTIONS (all take --store <DIR>):
  add <log.xes>     snapshot the log and its dependency graph into the store
                    ([--recover] [--min-freq <F>] as for match); a log whose
                    identical-fingerprint snapshots already exist is skipped
                    (dedup hit, nothing re-encoded)
  list              print every snapshot with its integrity status
  verify            check every snapshot's checksum; exit 10 if any is corrupt
  gc                remove quarantined snapshots and torn temp files

SERVE OPTIONS:
  --k <N>           result count when a query omits \"k\" (default 3)
  --workers <N>     concurrent query workers sharing one session (default 1;
                    rankings are identical at any width)
  --alpha <A> / --c <C> / --min-freq <F> / --exact-labels   as for match
                    (--exact-labels also arms the sketch planner's
                    label-overlap pruning cap)
  --byte-budget <B> pin at most B bytes of reference graphs; least-recently
                    used references spill to the store and reload on demand
  --no-prune        disable sketch pruning: every query runs all exact
                    fixpoints (recall audits; rankings are identical)
  --recover         skip malformed regions when loading query logs
  --metrics <FILE>  write Prometheus-style text metrics at end of input

EXIT CODES:
  0 success          2 usage            3 I/O              4 malformed log
  5 invalid input    6 bad parameters   7 graph error      8 assignment
  9 internal         10 store corruption (quarantined snapshot, failed verify)
  11 store I/O failure (catalog unreadable/unwritable); exit 1 is never used";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Match two logs.
    Match(MatchArgs),
    /// Run every matcher on two logs.
    Compare(crate::extra::CompareArgs),
    /// Print statistics of one log.
    Stats { path: String, recover: bool },
    /// Print a log's dependency graph as DOT.
    Dot { path: String, recover: bool },
    /// Generate a synthetic heterogeneous log pair.
    Synth(crate::extra::SynthArgs),
    /// Convert between XES and MXML.
    Convert {
        input: String,
        output: String,
        recover: bool,
    },
    /// Render a recorded JSONL trace (or bench trajectory) as a
    /// human-readable report.
    Report(ReportArgs),
    /// Manage a durable snapshot catalog.
    Catalog(CatalogArgs),
    /// Serve top-k catalog queries over stdin/stdout JSONL.
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

/// Options of `ems serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// The catalog root directory holding the reference log snapshots.
    pub store: String,
    /// Result count when a query omits `"k"`.
    pub k: usize,
    /// Concurrent query workers sharing one session.
    pub workers: usize,
    pub alpha: f64,
    /// Exact-equality label measure instead of q-gram cosine (only
    /// meaningful with `--alpha` below 1). Also what arms the sketch
    /// planner's label-overlap pruning cap.
    pub exact_labels: bool,
    pub c: f64,
    pub min_freq: f64,
    /// Pin at most this many logical bytes of reference graphs.
    pub byte_budget: Option<u64>,
    /// Sketch pruning (default on; `--no-prune` turns it off).
    pub prune: bool,
    /// Recovery-mode parsing of query logs.
    pub recover: bool,
    /// Prometheus-text metrics written at end of input.
    pub metrics: Option<String>,
}

/// Options of `ems report`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// The JSONL file to render: an `ems-trace/1` run trace, or an
    /// `ems-bench/1` trajectory for `--trajectory`/`--compare`.
    pub path: String,
    pub mode: ReportMode,
}

/// What `ems report` renders.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportMode {
    /// Human-readable run report from an `ems-trace/1` trace.
    Trace,
    /// Bench-trajectory history from an `ems-bench/1` file.
    Trajectory,
    /// Side-by-side comparison of two trajectory runs by run id.
    Compare { a: String, b: String },
}

/// Options of `ems catalog`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogArgs {
    /// The catalog root directory (`--store`).
    pub store: String,
    pub action: CatalogAction,
}

/// The `ems catalog` action verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogAction {
    /// Snapshot a log and its dependency graph into the store.
    Add {
        path: String,
        recover: bool,
        min_freq: f64,
    },
    /// Print every snapshot with its integrity status.
    List,
    /// Check every snapshot's checksum.
    Verify,
    /// Remove quarantined snapshots and torn temp files.
    Gc,
}

/// Options of `ems match`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchArgs {
    pub log1: String,
    pub log2: String,
    pub alpha: f64,
    /// Exact-equality label measure instead of q-gram cosine (only
    /// meaningful with `--alpha` below 1).
    pub exact_labels: bool,
    pub c: f64,
    pub estimate: Option<usize>,
    pub min_freq: f64,
    pub min_score: f64,
    pub composites: bool,
    pub delta: f64,
    pub csv: Option<String>,
    pub recover: bool,
    pub budget: Option<Budget>,
    pub threads: usize,
    pub trace: Option<String>,
    pub metrics: Option<String>,
    pub store: Option<String>,
    pub quiet: bool,
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "stats" => {
            let path = it.next().ok_or("`ems stats` needs a log path")?.to_owned();
            let recover = recover_flag(it)?;
            Ok(Command::Stats { path, recover })
        }
        "dot" => {
            let path = it.next().ok_or("`ems dot` needs a log path")?.to_owned();
            let recover = recover_flag(it)?;
            Ok(Command::Dot { path, recover })
        }
        "report" => {
            let path = it
                .next()
                .ok_or("`ems report` needs a trace path")?
                .to_owned();
            let rest: Vec<&String> = it.collect();
            let mode = match rest.first().map(|s| s.as_str()) {
                None => ReportMode::Trace,
                Some("--trajectory") => {
                    if let Some(extra) = rest.get(1) {
                        return Err(format!("unexpected argument `{extra}`"));
                    }
                    ReportMode::Trajectory
                }
                Some("--compare") => {
                    let a = rest
                        .get(1)
                        .ok_or("--compare needs two run ids: --compare <A> <B>")?;
                    let b = rest
                        .get(2)
                        .ok_or("--compare needs two run ids: --compare <A> <B>")?;
                    if let Some(extra) = rest.get(3) {
                        return Err(format!("unexpected argument `{extra}`"));
                    }
                    ReportMode::Compare {
                        a: (*a).to_owned(),
                        b: (*b).to_owned(),
                    }
                }
                Some(extra) => return Err(format!("unexpected argument `{extra}`")),
            };
            Ok(Command::Report(ReportArgs { path, mode }))
        }
        "convert" => {
            let input = it
                .next()
                .ok_or("`ems convert` needs input and output")?
                .to_owned();
            let output = it
                .next()
                .ok_or("`ems convert` needs input and output")?
                .to_owned();
            let recover = recover_flag(it)?;
            Ok(Command::Convert {
                input,
                output,
                recover,
            })
        }
        "compare" => {
            let log1 = it
                .next()
                .ok_or("`ems compare` needs two log paths")?
                .to_owned();
            let log2 = it
                .next()
                .ok_or("`ems compare` needs two log paths")?
                .to_owned();
            let mut args = crate::extra::CompareArgs {
                log1,
                log2,
                alpha: 1.0,
                opq_budget: 1_000_000,
                recover: false,
            };
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let mut value = |name: &str| -> Result<&String, String> {
                    i += 1;
                    rest.get(i)
                        .copied()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag {
                    "--alpha" => args.alpha = parse_f64(value("--alpha")?, 0.0, 1.0)?,
                    "--opq-budget" => {
                        args.opq_budget = value("--opq-budget")?
                            .parse()
                            .map_err(|_| "--opq-budget needs an integer".to_owned())?
                    }
                    "--recover" => args.recover = true,
                    other => return Err(format!("unknown option `{other}`")),
                }
                i += 1;
            }
            Ok(Command::Compare(args))
        }
        "synth" => {
            let mut args = crate::extra::SynthArgs {
                activities: 20,
                traces: 100,
                seed: 42,
                dislocate_front: 0,
                dislocate_back: 0,
                opaque: 1.0,
                composites: 0,
                out1: "pair1.xes".into(),
                out2: "pair2.xes".into(),
                truth_csv: None,
            };
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let mut value = |name: &str| -> Result<&String, String> {
                    i += 1;
                    rest.get(i)
                        .copied()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                let parse_usize = |s: &str, name: &str| -> Result<usize, String> {
                    s.parse().map_err(|_| format!("{name} needs an integer"))
                };
                match flag {
                    "--activities" => {
                        args.activities = parse_usize(value("--activities")?, "--activities")?
                    }
                    "--traces" => args.traces = parse_usize(value("--traces")?, "--traces")?,
                    "--seed" => {
                        args.seed = value("--seed")?
                            .parse()
                            .map_err(|_| "--seed needs an integer".to_owned())?
                    }
                    "--dislocate-front" => {
                        args.dislocate_front =
                            parse_usize(value("--dislocate-front")?, "--dislocate-front")?
                    }
                    "--dislocate-back" => {
                        args.dislocate_back =
                            parse_usize(value("--dislocate-back")?, "--dislocate-back")?
                    }
                    "--opaque" => args.opaque = parse_f64(value("--opaque")?, 0.0, 1.0)?,
                    "--composites" => {
                        args.composites = parse_usize(value("--composites")?, "--composites")?
                    }
                    "--out1" => args.out1 = value("--out1")?.to_owned(),
                    "--out2" => args.out2 = value("--out2")?.to_owned(),
                    "--truth" => args.truth_csv = Some(value("--truth")?.to_owned()),
                    other => return Err(format!("unknown option `{other}`")),
                }
                i += 1;
            }
            if args.activities == 0 {
                return Err("--activities must be at least 1".into());
            }
            Ok(Command::Synth(args))
        }
        "match" => {
            let log1 = it
                .next()
                .ok_or("`ems match` needs two log paths")?
                .to_owned();
            let log2 = it
                .next()
                .ok_or("`ems match` needs two log paths")?
                .to_owned();
            let mut args = MatchArgs {
                log1,
                log2,
                alpha: 1.0,
                exact_labels: false,
                c: 0.8,
                estimate: None,
                min_freq: 0.0,
                min_score: 0.05,
                composites: false,
                delta: 0.005,
                csv: None,
                recover: false,
                budget: None,
                threads: 0,
                trace: None,
                metrics: None,
                store: None,
                quiet: false,
            };
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let mut value = |name: &str| -> Result<&String, String> {
                    i += 1;
                    rest.get(i)
                        .copied()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag {
                    "--alpha" => args.alpha = parse_f64(value("--alpha")?, 0.0, 1.0)?,
                    "--exact-labels" => args.exact_labels = true,
                    "--c" => args.c = parse_f64(value("--c")?, 0.0, 1.0)?,
                    "--estimate" => {
                        args.estimate = Some(
                            value("--estimate")?
                                .parse()
                                .map_err(|_| "--estimate needs an integer".to_owned())?,
                        )
                    }
                    "--min-freq" => args.min_freq = parse_f64(value("--min-freq")?, 0.0, 1.0)?,
                    "--min-score" => args.min_score = parse_f64(value("--min-score")?, 0.0, 1.0)?,
                    "--delta" => args.delta = parse_f64(value("--delta")?, 0.0, 1.0)?,
                    "--csv" => args.csv = Some(value("--csv")?.to_owned()),
                    "--composites" => args.composites = true,
                    "--recover" => args.recover = true,
                    "--budget" => args.budget = Some(parse_budget(value("--budget")?)?),
                    "--threads" => {
                        args.threads = value("--threads")?
                            .parse()
                            .map_err(|_| "--threads needs a non-negative integer".to_owned())?
                    }
                    "--trace" => args.trace = Some(value("--trace")?.to_owned()),
                    "--metrics" => args.metrics = Some(value("--metrics")?.to_owned()),
                    "--store" => args.store = Some(value("--store")?.to_owned()),
                    "--quiet" => args.quiet = true,
                    other => return Err(format!("unknown option `{other}`")),
                }
                i += 1;
            }
            Ok(Command::Match(args))
        }
        "catalog" => {
            // The action verb is the first positional, but flags may come
            // anywhere: `catalog --store c list` == `catalog list --store c`.
            let rest: Vec<&String> = it.collect();
            let mut store: Option<String> = None;
            let mut verb: Option<String> = None;
            let mut path: Option<String> = None;
            let mut recover = false;
            let mut min_freq = 0.0;
            let mut i = 0;
            while i < rest.len() {
                let arg = rest[i].as_str();
                let mut value = |name: &str| -> Result<&String, String> {
                    i += 1;
                    rest.get(i)
                        .copied()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match arg {
                    "--store" => store = Some(value("--store")?.to_owned()),
                    "--recover" => recover = true,
                    "--min-freq" => min_freq = parse_f64(value("--min-freq")?, 0.0, 1.0)?,
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown option `{flag}`"))
                    }
                    positional => {
                        if verb.is_none() {
                            verb = Some(positional.to_owned());
                        } else if path.replace(positional.to_owned()).is_some() {
                            return Err(format!("unexpected argument `{positional}`"));
                        }
                    }
                }
                i += 1;
            }
            let verb = verb.ok_or("`ems catalog` needs an action (add, list, verify or gc)")?;
            let store = store.ok_or("`ems catalog` needs --store <DIR>")?;
            let action = match verb.as_str() {
                "add" => CatalogAction::Add {
                    path: path.ok_or("`ems catalog add` needs a log path")?,
                    recover,
                    min_freq,
                },
                "list" | "verify" | "gc" => {
                    if path.is_some() {
                        return Err(format!("`ems catalog {verb}` takes no log path"));
                    }
                    if recover || min_freq != 0.0 {
                        return Err(format!(
                            "--recover/--min-freq only apply to `ems catalog add`, not `{verb}`"
                        ));
                    }
                    match verb.as_str() {
                        "list" => CatalogAction::List,
                        "verify" => CatalogAction::Verify,
                        _ => CatalogAction::Gc,
                    }
                }
                other => {
                    return Err(format!(
                        "unknown catalog action `{other}` (expected add, list, verify or gc)"
                    ))
                }
            };
            Ok(Command::Catalog(CatalogArgs { store, action }))
        }
        "serve" => {
            let mut args = ServeArgs {
                store: String::new(),
                k: 3,
                workers: 1,
                alpha: 1.0,
                exact_labels: false,
                c: 0.8,
                min_freq: 0.0,
                byte_budget: None,
                prune: true,
                recover: false,
                metrics: None,
            };
            let mut store = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let mut value = |name: &str| -> Result<&String, String> {
                    i += 1;
                    rest.get(i)
                        .copied()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag {
                    "--store" => store = Some(value("--store")?.to_owned()),
                    "--k" => {
                        args.k = value("--k")?
                            .parse()
                            .map_err(|_| "--k needs an integer".to_owned())?
                    }
                    "--workers" => {
                        args.workers = value("--workers")?
                            .parse()
                            .map_err(|_| "--workers needs an integer".to_owned())?
                    }
                    "--alpha" => args.alpha = parse_f64(value("--alpha")?, 0.0, 1.0)?,
                    "--exact-labels" => args.exact_labels = true,
                    "--c" => args.c = parse_f64(value("--c")?, 0.0, 1.0)?,
                    "--min-freq" => args.min_freq = parse_f64(value("--min-freq")?, 0.0, 1.0)?,
                    "--byte-budget" => {
                        args.byte_budget = Some(
                            value("--byte-budget")?
                                .parse()
                                .map_err(|_| "--byte-budget needs an integer".to_owned())?,
                        )
                    }
                    "--no-prune" => args.prune = false,
                    "--recover" => args.recover = true,
                    "--metrics" => args.metrics = Some(value("--metrics")?.to_owned()),
                    other => return Err(format!("unknown option `{other}`")),
                }
                i += 1;
            }
            args.store = store.ok_or("`ems serve` needs --store <DIR>")?;
            if args.k == 0 {
                return Err("--k must be at least 1".into());
            }
            if args.workers == 0 {
                return Err("--workers must be at least 1".into());
            }
            Ok(Command::Serve(args))
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Parses a `--budget` spec: comma-separated `iters=<N>`, `evals=<N>` and
/// `ms=<N>` limits, each at most once. An empty spec is rejected — an
/// unlimited budget is expressed by omitting the flag.
fn parse_budget(spec: &str) -> Result<Budget, String> {
    let mut budget = Budget::default();
    if spec.trim().is_empty() {
        return Err("--budget needs at least one limit (iters=, evals= or ms=)".into());
    }
    for part in spec.split(',') {
        let (key, raw) = part
            .split_once('=')
            .ok_or_else(|| format!("budget limit `{part}` is not of the form key=value"))?;
        let n: u64 = raw
            .parse()
            .map_err(|_| format!("budget limit `{part}` needs an integer value"))?;
        match key.trim() {
            "iters" => budget.max_iterations = Some(n as usize),
            "evals" => budget.max_formula_evals = Some(n),
            "ms" => budget.wall_clock = Some(std::time::Duration::from_millis(n)),
            other => {
                return Err(format!(
                    "unknown budget limit `{other}` (expected iters, evals or ms)"
                ))
            }
        }
    }
    Ok(budget)
}

/// Consumes an optional trailing `--recover` flag, rejecting anything else.
fn recover_flag<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<bool, String> {
    let mut recover = false;
    for arg in it.by_ref() {
        match arg.as_str() {
            "--recover" => recover = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(recover)
}

fn parse_f64(s: &str, lo: f64, hi: f64) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("`{s}` is not a number"))?;
    if !(lo..=hi).contains(&v) {
        return Err(format!("`{s}` must be in [{lo}, {hi}]"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_exact_labels_flag() {
        match parse(&sv(&[
            "match",
            "a.xes",
            "b.xes",
            "--alpha",
            "0.5",
            "--exact-labels",
        ]))
        .unwrap()
        {
            Command::Match(m) => {
                assert!(m.exact_labels);
                assert_eq!(m.alpha, 0.5);
            }
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&sv(&["serve", "--store", "cat", "--exact-labels"])).unwrap() {
            Command::Serve(s) => assert!(s.exact_labels),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn parses_match_with_options() {
        let cmd = parse(&sv(&[
            "match",
            "a.xes",
            "b.xes",
            "--alpha",
            "0.5",
            "--estimate",
            "5",
            "--composites",
            "--csv",
            "out.csv",
            "--threads",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Match(m) => {
                assert_eq!(m.log1, "a.xes");
                assert_eq!(m.alpha, 0.5);
                assert_eq!(m.estimate, Some(5));
                assert!(m.composites);
                assert_eq!(m.csv.as_deref(), Some("out.csv"));
                assert_eq!(m.threads, 4);
            }
            c => panic!("unexpected {c:?}"),
        }
        // Default is 0 (all available cores); bad values are usage errors.
        match parse(&sv(&["match", "a.xes", "b.xes"])).unwrap() {
            Command::Match(m) => assert_eq!(m.threads, 0),
            c => panic!("unexpected {c:?}"),
        }
        assert!(parse(&sv(&["match", "a", "b", "--threads", "-1"])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--threads"])).is_err());
    }

    #[test]
    fn parses_stats_and_dot_and_help() {
        assert_eq!(
            parse(&sv(&["stats", "x.xes"])).unwrap(),
            Command::Stats {
                path: "x.xes".into(),
                recover: false
            }
        );
        assert_eq!(
            parse(&sv(&["stats", "x.xes", "--recover"])).unwrap(),
            Command::Stats {
                path: "x.xes".into(),
                recover: true
            }
        );
        assert_eq!(
            parse(&sv(&["dot", "x.xes"])).unwrap(),
            Command::Dot {
                path: "x.xes".into(),
                recover: false
            }
        );
        assert_eq!(parse(&sv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_recover_and_budget() {
        match parse(&sv(&[
            "match",
            "a.xes",
            "b.xes",
            "--recover",
            "--budget",
            "iters=5,evals=1000,ms=2000",
        ]))
        .unwrap()
        {
            Command::Match(m) => {
                assert!(m.recover);
                let b = m.budget.unwrap();
                assert_eq!(b.max_iterations, Some(5));
                assert_eq!(b.max_formula_evals, Some(1000));
                assert_eq!(b.wall_clock, Some(std::time::Duration::from_millis(2000)));
            }
            c => panic!("unexpected {c:?}"),
        }
        match parse(&sv(&["compare", "a.xes", "b.xes", "--recover"])).unwrap() {
            Command::Compare(c) => assert!(c.recover),
            c => panic!("unexpected {c:?}"),
        }
        // Bad specs are usage errors.
        assert!(parse(&sv(&["match", "a", "b", "--budget", ""])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--budget", "iters"])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--budget", "iters=x"])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--budget", "bogus=1"])).is_err());
        assert!(parse(&sv(&["stats", "a.xes", "--bogus"])).is_err());
    }

    #[test]
    fn parses_compare_synth_convert() {
        match parse(&sv(&["compare", "a.xes", "b.xes", "--opq-budget", "5000"])).unwrap() {
            Command::Compare(c) => assert_eq!(c.opq_budget, 5000),
            c => panic!("unexpected {c:?}"),
        }
        match parse(&sv(&["synth", "--activities", "12", "--truth", "t.csv"])).unwrap() {
            Command::Synth(s) => {
                assert_eq!(s.activities, 12);
                assert_eq!(s.truth_csv.as_deref(), Some("t.csv"));
            }
            c => panic!("unexpected {c:?}"),
        }
        assert_eq!(
            parse(&sv(&["convert", "a.mxml", "b.xes"])).unwrap(),
            Command::Convert {
                input: "a.mxml".into(),
                output: "b.xes".into(),
                recover: false
            }
        );
    }

    #[test]
    fn parses_trace_metrics_and_report() {
        match parse(&sv(&[
            "match",
            "a.xes",
            "b.xes",
            "--trace",
            "run.jsonl",
            "--metrics",
            "run.prom",
        ]))
        .unwrap()
        {
            Command::Match(m) => {
                assert_eq!(m.trace.as_deref(), Some("run.jsonl"));
                assert_eq!(m.metrics.as_deref(), Some("run.prom"));
            }
            c => panic!("unexpected {c:?}"),
        }
        assert_eq!(
            parse(&sv(&["report", "run.jsonl"])).unwrap(),
            Command::Report(ReportArgs {
                path: "run.jsonl".into(),
                mode: ReportMode::Trace,
            })
        );
        assert_eq!(
            parse(&sv(&["report", "bench.jsonl", "--trajectory"])).unwrap(),
            Command::Report(ReportArgs {
                path: "bench.jsonl".into(),
                mode: ReportMode::Trajectory,
            })
        );
        assert_eq!(
            parse(&sv(&["report", "bench.jsonl", "--compare", "pr6", "pr7"])).unwrap(),
            Command::Report(ReportArgs {
                path: "bench.jsonl".into(),
                mode: ReportMode::Compare {
                    a: "pr6".into(),
                    b: "pr7".into(),
                },
            })
        );
        assert!(parse(&sv(&["report", "bench.jsonl", "--compare", "pr6"])).is_err());
        assert!(parse(&sv(&["report", "bench.jsonl", "--trajectory", "x"])).is_err());
        match parse(&sv(&["match", "a.xes", "b.xes", "--store", "cat"])).unwrap() {
            Command::Match(m) => assert_eq!(m.store.as_deref(), Some("cat")),
            c => panic!("unexpected {c:?}"),
        }
        assert!(parse(&sv(&["report"])).is_err());
        assert!(parse(&sv(&["report", "a", "b"])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--trace"])).is_err());
    }

    #[test]
    fn parses_catalog_actions() {
        assert_eq!(
            parse(&sv(&[
                "catalog",
                "add",
                "a.xes",
                "--store",
                "cat",
                "--recover",
                "--min-freq",
                "0.2",
            ]))
            .unwrap(),
            Command::Catalog(CatalogArgs {
                store: "cat".into(),
                action: CatalogAction::Add {
                    path: "a.xes".into(),
                    recover: true,
                    min_freq: 0.2,
                },
            })
        );
        // Flag order does not matter.
        assert_eq!(
            parse(&sv(&["catalog", "add", "--store", "cat", "a.xes"])).unwrap(),
            Command::Catalog(CatalogArgs {
                store: "cat".into(),
                action: CatalogAction::Add {
                    path: "a.xes".into(),
                    recover: false,
                    min_freq: 0.0,
                },
            })
        );
        for (verb, action) in [
            ("list", CatalogAction::List),
            ("verify", CatalogAction::Verify),
            ("gc", CatalogAction::Gc),
        ] {
            assert_eq!(
                parse(&sv(&["catalog", verb, "--store", "cat"])).unwrap(),
                Command::Catalog(CatalogArgs {
                    store: "cat".into(),
                    action: action.clone(),
                })
            );
            // The verb may also follow the flag.
            assert_eq!(
                parse(&sv(&["catalog", "--store", "cat", verb])).unwrap(),
                Command::Catalog(CatalogArgs {
                    store: "cat".into(),
                    action,
                })
            );
        }
        // Usage errors: missing store/action/path, stray args.
        assert!(parse(&sv(&["catalog"])).is_err());
        assert!(parse(&sv(&["catalog", "add", "a.xes"])).is_err());
        assert!(parse(&sv(&["catalog", "add", "--store", "cat"])).is_err());
        assert!(parse(&sv(&["catalog", "list", "a.xes", "--store", "c"])).is_err());
        assert!(parse(&sv(&["catalog", "list", "--store", "c", "--recover"])).is_err());
        assert!(parse(&sv(&["catalog", "frob", "--store", "c"])).is_err());
        assert!(parse(&sv(&["catalog", "add", "a", "b", "--store", "c"])).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&sv(&["serve", "--store", "cat"])).unwrap(),
            Command::Serve(ServeArgs {
                store: "cat".into(),
                k: 3,
                workers: 1,
                alpha: 1.0,
                exact_labels: false,
                c: 0.8,
                min_freq: 0.0,
                byte_budget: None,
                prune: true,
                recover: false,
                metrics: None,
            })
        );
        match parse(&sv(&[
            "serve",
            "--store",
            "cat",
            "--k",
            "5",
            "--workers",
            "4",
            "--alpha",
            "0.7",
            "--byte-budget",
            "1048576",
            "--no-prune",
            "--recover",
            "--metrics",
            "serve.prom",
        ]))
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.k, 5);
                assert_eq!(s.workers, 4);
                assert_eq!(s.alpha, 0.7);
                assert_eq!(s.byte_budget, Some(1_048_576));
                assert!(!s.prune);
                assert!(s.recover);
                assert_eq!(s.metrics.as_deref(), Some("serve.prom"));
            }
            c => panic!("unexpected {c:?}"),
        }
        // Usage errors: missing store, zero k/workers, unknown flags.
        assert!(parse(&sv(&["serve"])).is_err());
        assert!(parse(&sv(&["serve", "--store", "c", "--k", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--store", "c", "--workers", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--store", "c", "--bogus"])).is_err());
        assert!(parse(&sv(&["serve", "--store", "c", "--k"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&sv(&["match", "only-one.xes"])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--alpha", "2"])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--bogus"])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["stats"])).is_err());
        assert!(parse(&sv(&["stats", "a", "b"])).is_err());
        assert!(parse(&sv(&["match", "a", "b", "--estimate"])).is_err());
    }
}
