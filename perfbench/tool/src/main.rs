//! `emsbench` — the in-process half of the perfbench benchmark.
//!
//! ```text
//! emsbench gen    <workload> <seed> <dir> [--toy]   write the seeded inputs
//! emsbench oracle <dir> <served.jsonl>              check served outputs
//! emsbench trace  <dir> <served.jsonl> <store> <trace.jsonl>
//!                                                   traced in-process run
//! ```
//!
//! `perfbench/run.py` drives the real `ems` binaries and calls this tool
//! for everything that needs the library: generating inputs, computing
//! the expected outputs, and the traced run behind the per-layer metrics.
//! `oracle` and `trace` print one JSON object on stdout.

mod gen;
mod manifest;
mod oracle;
mod served;
mod trace;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: emsbench gen <workload> <seed> <dir> [--toy]\n       \
                     emsbench oracle <dir> <served.jsonl>\n       \
                     emsbench trace <dir> <served.jsonl> <store> <trace.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match argv.as_slice() {
        ["gen", workload, seed, dir, rest @ ..] => match seed.parse::<u64>() {
            Ok(seed) => gen::run(workload, seed, Path::new(dir), rest == ["--toy"]),
            Err(_) => Err(format!("seed `{seed}` is not an integer")),
        },
        ["oracle", dir, served] => oracle::run(Path::new(dir), Path::new(served)),
        ["trace", dir, served, store, out] => trace::run(
            Path::new(dir),
            Path::new(served),
            Path::new(store),
            Path::new(out),
        ),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("emsbench: {e}");
            ExitCode::from(2)
        }
    }
}
