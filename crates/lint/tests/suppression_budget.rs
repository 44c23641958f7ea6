//! PR8 suppression budget: the semantic `float-taint` rule replaced the
//! lexical `naive-accumulation` scan precisely so that comparison-only and
//! per-element accumulators stop needing audits. The workspace carried 7
//! lexical suppressions; the dataflow rule needs only 4. This test pins
//! that budget so new escaping accumulators are either routed through
//! `NeumaierSum` or consciously audited here.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

fn count_directives(rule: &str) -> BTreeMap<String, usize> {
    let root = workspace_root();
    // Built in two pieces so this test's own source never matches.
    let needle = format!("ems-lint: allow({rule}");
    let mut per_file = BTreeMap::new();
    for file in ems_lint::workspace_files(&root).expect("workspace is readable") {
        let rel = file
            .strip_prefix(&root)
            .expect("workspace file under root")
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file).expect("readable workspace file");
        let n = source.lines().filter(|l| l.contains(&needle)).count();
        if n > 0 {
            per_file.insert(rel, n);
        }
    }
    per_file
}

/// The semantic rule strictly shrinks the audit surface: 4 suppressions,
/// down from the 7 the lexical `naive-accumulation` rule required.
#[test]
fn float_taint_suppressions_stay_within_budget() {
    let per_file = count_directives("float-taint");
    let expected: BTreeMap<String, usize> = [
        ("crates/core/src/engine.rs".to_string(), 1),
        ("crates/core/src/kernel.rs".to_string(), 3),
    ]
    .into_iter()
    .collect();
    assert_eq!(
        per_file, expected,
        "float-taint suppressions are budgeted at 4 (engine.rs: 1, kernel.rs: 3); \
         route new loop-carried accumulators through NeumaierSum instead of widening \
         the audit, and shrink this table when one is compensated away"
    );
    let total: usize = per_file.values().sum();
    assert!(
        total < 7,
        "the semantic float-taint rule must need strictly fewer audits than the \
         7 the lexical naive-accumulation scan carried (found {total})"
    );
}

/// The lexical rule is gone for good: no stale directives may linger, since
/// unknown-rule suppressions are themselves findings.
#[test]
fn no_stale_naive_accumulation_directives_remain() {
    let per_file = count_directives("naive-accumulation");
    assert!(
        per_file.is_empty(),
        "stale naive-accumulation suppressions linger in {per_file:?}; the rule \
         was replaced by float-taint in PR8"
    );
}

/// Lock-discipline audits are confined to the pool, whose barrier-separated
/// phases make the two nesting orders provably non-concurrent.
#[test]
fn lock_discipline_suppressions_stay_in_the_pool() {
    let per_file = count_directives("lock-discipline");
    let expected: BTreeMap<String, usize> = [("crates/core/src/engine.rs".to_string(), 2)]
        .into_iter()
        .collect();
    assert_eq!(
        per_file, expected,
        "only the pool's two phase-separated nesting sites may suppress \
         lock-discipline; new nested acquisitions need a global lock order instead"
    );
}
