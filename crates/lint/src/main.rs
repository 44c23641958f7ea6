//! CLI for the workspace lint: `cargo run -p ems-lint -- check`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ems-lint <command>\n\
         \n\
         commands:\n\
         \x20 check [--root <dir>] [--format text|json|sarif]\n\
         \x20                        lint every .rs file under <dir> (default: workspace root),\n\
         \x20                        skipping subdirectories whose Cargo.toml declares a\n\
         \x20                        [workspace] of their own (cargo's own membership rule);\n\
         \x20                        json/sarif always exit with the finding-derived code and\n\
         \x20                        print the report to stdout (schema: src/emit.rs)\n\
         \x20 rules                  list rule ids and what they enforce\n\
         \n\
         Suppress a finding with `ems-lint: allow(<rule>, <reason>)` on or above the line."
    );
    ExitCode::from(2)
}

/// The workspace root: `--root` if given, else two levels above this
/// crate's manifest (crates/lint -> workspace).
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for rule in ems_lint::rules::RULES {
                println!("{:<24} {}", rule.id, rule.summary);
            }
            println!(
                "{:<24} {}",
                ems_lint::callgraph::RULE,
                ems_lint::callgraph::SUMMARY
            );
            println!(
                "{:<24} malformed, reason-less, unknown-rule, or unused suppression directives",
                ems_lint::allow::SUPPRESSION_RULE
            );
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut root = default_root();
            let mut format = Format::Text;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--root" => match args.get(i + 1) {
                        Some(dir) => {
                            root = PathBuf::from(dir);
                            i += 2;
                        }
                        None => return usage(),
                    },
                    "--format" => match args.get(i + 1).map(String::as_str) {
                        Some("text") => {
                            format = Format::Text;
                            i += 2;
                        }
                        Some("json") => {
                            format = Format::Json;
                            i += 2;
                        }
                        Some("sarif") => {
                            format = Format::Sarif;
                            i += 2;
                        }
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let diags = match ems_lint::lint_workspace(&root) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("ems-lint: cannot read workspace at {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            match format {
                Format::Json => print!("{}", ems_lint::emit::to_json(&diags)),
                Format::Sarif => print!("{}", ems_lint::emit::to_sarif(&diags)),
                Format::Text => {
                    if diags.is_empty() {
                        println!("ems-lint: clean ({})", root.display());
                    } else {
                        for d in &diags {
                            println!("{d}\n");
                        }
                    }
                }
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                if format == Format::Text {
                    eprintln!("ems-lint: {} finding(s)", diags.len());
                }
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
