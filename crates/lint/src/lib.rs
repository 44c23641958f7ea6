#![forbid(unsafe_code)]
//! `ems-lint` — repo-specific static analysis for the event-matching
//! workspace.
//!
//! The parallel fixpoint kernel's correctness rests on invariants the
//! compiler cannot check: bit-identical results at every thread count,
//! NaN-safe float ordering, compensated accumulation on the similarity
//! hot paths, no panics escaping library crates, and no iteration-order
//! or clock dependence in anything that feeds reported results. This
//! crate turns those contracts (DESIGN.md §9) into machine-checked rules
//! over the workspace's token streams, with an audited suppression
//! syntax (`ems-lint: allow(<rule>, <reason>)`) as the only escape hatch.
//!
//! Run it as `cargo run -p ems-lint -- check`.

pub mod allow;
pub mod ast;
pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod emit;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod semrules;

use diag::Diagnostic;
use rules::FileCtx;
use std::path::{Path, PathBuf};

/// One fully analyzed file: every layer the rules consume, computed once.
pub struct FileAnalysis {
    /// Path-derived classification.
    pub class: config::FileClass,
    /// Token stream + comments.
    pub lexed: lexer::Lexed,
    /// Parsed AST.
    pub ast: ast::File,
    /// Resolver tables (struct field types).
    pub info: resolve::FileInfo,
    /// Token-index ranges covered by test-gated items.
    pub test_regions: Vec<(usize, usize)>,
}

impl FileAnalysis {
    /// Whether token `i` sits inside a test-only item (or the whole file
    /// is test-kind).
    pub fn in_test(&self, i: usize) -> bool {
        self.class.kind == config::FileKind::Test
            || self.test_regions.iter().any(|&(lo, hi)| i >= lo && i < hi)
    }
}

/// Analyzes one file's source under a (possibly virtual)
/// workspace-relative path: classify, lex, parse, resolve.
pub fn analyze_source(rel_path: &str, source: &str) -> FileAnalysis {
    let class = config::classify(rel_path);
    let lexed = lexer::lex(source);
    let test_regions = rules::find_test_regions(&lexed.tokens);
    let ast = parser::parse_file(&lexed);
    let info = resolve::file_info(&ast);
    FileAnalysis {
        class,
        lexed,
        ast,
        info,
        test_regions,
    }
}

/// Lints a set of analyzed files as one unit: per-file rules, then the
/// workspace call-graph rule, then per-file suppression accounting.
pub fn lint_analyses(files: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    for fa in files {
        let ctx = FileCtx {
            class: &fa.class,
            lexed: &fa.lexed,
            ast: &fa.ast,
            info: &fa.info,
            test_regions: &fa.test_regions,
        };
        for rule in rules::RULES {
            diags.extend((rule.check)(&ctx));
        }
    }
    diags.extend(callgraph::panic_reachability(files));

    // Suppressions are per-file; route each file's findings through its
    // own directives so unused ones are reported against the right file.
    let mut out = Vec::new();
    for fa in files {
        let rel = fa.class.rel_path.as_str();
        let mine: Vec<Diagnostic> = diags.iter().filter(|d| d.path == rel).cloned().collect();
        let (mut sups, sup_diags) = allow::parse_suppressions(&fa.lexed, rel);
        out.extend(allow::apply_suppressions(mine, &mut sups, rel));
        out.extend(sup_diags);
    }
    diag::sort_diagnostics(&mut out);
    out
}

/// Lints one file's source under a (possibly virtual) workspace-relative
/// path. The path drives rule scoping; self-tests use it to lint fixture
/// sources as if they lived in the crates the rules watch. The call-graph
/// rule runs over just this file, so fixtures exercise it too.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_analyses(&[analyze_source(rel_path, source)])
}

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results", "node_modules"];

/// Whether `dir` holds a `Cargo.toml` that declares a `[workspace]` of its
/// own. Cargo never makes such a directory part of an enclosing
/// workspace, and neither does the lint.
fn is_nested_workspace(dir: &Path) -> std::io::Result<bool> {
    let manifest = dir.join("Cargo.toml");
    if !manifest.is_file() {
        return Ok(false);
    }
    let text = std::fs::read_to_string(manifest)?;
    Ok(text
        .lines()
        .map(str::trim_start)
        .any(|line| line.starts_with("[workspace]") || line.starts_with("[workspace.")))
}

/// Collects every `.rs` file under `root` (sorted, workspace-relative),
/// skipping any subdirectory that is a cargo workspace of its own.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref())
                    && !name.starts_with('.')
                    && !is_nested_workspace(&path)?
                {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the whole workspace rooted at `root`. Returns all findings in
/// stable order. IO errors abort — a file the lint cannot read is a
/// failure, not a silent skip.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut analyses = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        analyses.push(analyze_source(&rel, &source));
    }
    Ok(lint_analyses(&analyses))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_yields_no_findings() {
        let diags = lint_source(
            "crates/core/src/sim.rs",
            "pub fn f(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) }",
        );
        // `fold` here is not seeded by a float literal and `f64::max` is a
        // path value, not a call — outside this rule set's patterns.
        assert!(diags.iter().all(|d| d.rule != "float-taint"), "{diags:?}");
    }

    #[test]
    fn suppression_consumes_finding() {
        let src = "\
// ems-lint: allow(panic-surface, the slice is checked non-empty one line above)
pub fn f(v: &[u32]) -> u32 { v.first().copied().map(|x| x).unwrap() }
";
        let diags = lint_source("crates/events/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "// ems-lint: allow(panic-surface, nothing here panics)\npub fn f() {}\n";
        let diags = lint_source("crates/events/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, allow::SUPPRESSION_RULE);
    }
}
