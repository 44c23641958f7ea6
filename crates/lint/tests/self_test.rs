//! Self-test harness: every rule ships a positive ("_bad") and negative
//! ("_good") fixture, and the harness asserts the *exact* diagnostics.
//!
//! Expectations live inline in the fixtures:
//! - `//~ <rule>` trailing on a line expects a finding of `<rule>` there;
//! - `//~v <rule>` on its own line expects the finding on the next line
//!   (used where the diagnostic lands on a comment, e.g. directives);
//! - the `//@ path: <virtual path>` header tells the harness which
//!   workspace location the fixture impersonates, since rule scoping is
//!   path-driven.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// The `//@ path:` header of a fixture.
fn virtual_path(source: &str, file: &Path) -> String {
    let header = source.lines().next().unwrap_or_default();
    header
        .strip_prefix("//@ path:")
        .unwrap_or_else(|| {
            panic!(
                "{} must start with `//@ path: <virtual path>`",
                file.display()
            )
        })
        .trim()
        .to_string()
}

/// Extracts `(line, rule)` expectations from the marker comments.
fn expectations(source: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let lineno = idx as u32 + 1;
        if let Some(rest) = line.split("//~v").nth(1) {
            out.push((lineno + 1, rest.trim().to_string()));
        } else if let Some(rest) = line.split("//~").nth(1) {
            out.push((lineno, rest.trim().to_string()));
        }
    }
    out.sort();
    out
}

fn fixture_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable fixture entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures found");
    files
}

#[test]
fn bad_fixtures_produce_exactly_the_marked_findings() {
    for file in fixture_files() {
        let name = file.file_name().unwrap().to_string_lossy().to_string();
        if !name.ends_with("_bad.rs") {
            continue;
        }
        let source = std::fs::read_to_string(&file).unwrap();
        let expected = expectations(&source);
        assert!(
            !expected.is_empty(),
            "{name}: a _bad fixture needs `//~` markers"
        );
        let mut got: Vec<(u32, String)> =
            ems_lint::lint_source(&virtual_path(&source, &file), &source)
                .into_iter()
                .map(|d| (d.line, d.rule.to_string()))
                .collect();
        got.sort();
        assert_eq!(got, expected, "{name}: diagnostics diverge from markers");
    }
}

#[test]
fn good_fixtures_are_clean() {
    for file in fixture_files() {
        let name = file.file_name().unwrap().to_string_lossy().to_string();
        if !name.ends_with("_good.rs") {
            continue;
        }
        let source = std::fs::read_to_string(&file).unwrap();
        assert!(
            expectations(&source).is_empty(),
            "{name}: a _good fixture must carry no `//~` markers"
        );
        let diags = ems_lint::lint_source(&virtual_path(&source, &file), &source);
        assert!(diags.is_empty(), "{name}: expected clean, got {diags:#?}");
    }
}

#[test]
fn every_rule_has_a_positive_and_a_negative_fixture() {
    let names: Vec<String> = fixture_files()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
        .collect();
    let mut missing = BTreeSet::new();
    for rule in ems_lint::rules::rule_ids() {
        let stem = rule.replace('-', "_");
        for suffix in ["_bad.rs", "_good.rs"] {
            if !names
                .iter()
                .any(|n| n.starts_with(&stem) && n.ends_with(suffix))
            {
                missing.insert(format!("{rule}{suffix}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "rules without fixture coverage: {missing:?}"
    );
}

#[test]
fn every_fixture_maps_to_a_known_rule() {
    let stems: Vec<String> = ems_lint::rules::rule_ids()
        .iter()
        .map(|r| r.replace('-', "_"))
        .collect();
    for file in fixture_files() {
        let name = file.file_name().unwrap().to_string_lossy().to_string();
        assert!(
            stems.iter().any(|s| name.starts_with(s.as_str())),
            "{name}: fixture name must start with a rule id"
        );
    }
}

/// Dogfood: the workspace itself must lint clean — every legacy violation
/// is either fixed or carries an audited suppression.
#[test]
fn workspace_lints_clean() {
    let diags = ems_lint::lint_workspace(&workspace_root()).expect("workspace is readable");
    assert!(
        diags.is_empty(),
        "workspace has unresolved lint findings:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The walk covers what cargo treats as the workspace: a member crate is
/// scanned, a subdirectory whose `Cargo.toml` declares a `[workspace]` of
/// its own is not.
#[test]
fn workspace_walk_skips_nested_workspaces() {
    let root = std::env::temp_dir().join(format!("ems-lint-walk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write("crates/member/Cargo.toml", "[package]\nname = \"member\"\n");
    write("crates/member/src/lib.rs", "pub fn f() {}\n");
    write(
        "tool/Cargo.toml",
        "[package]\nname = \"tool\"\n\n[workspace]\n",
    );
    write("tool/src/main.rs", "fn main() {}\n");
    write("tests/walk.rs", "#[test]\nfn t() {}\n");

    let files: Vec<String> = ems_lint::workspace_files(&root)
        .unwrap()
        .iter()
        .map(|p| {
            p.strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(files, ["crates/member/src/lib.rs", "tests/walk.rs"]);
}
