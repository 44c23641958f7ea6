//! Repo-specific scoping: which crates and files each rule watches.
//!
//! These tables *are* the configuration — the lint is purpose-built for
//! this workspace, so scoping lives in code (reviewed like code) rather
//! than in a config file that can drift silently.

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source — every rule applies.
    Library,
    /// Binary entry points (`main.rs`, `src/bin/`) — panic-surface rules
    /// are relaxed (a CLI may die loudly), contract rules still apply.
    Binary,
    /// Tests, benches, examples, build scripts — only lexical hygiene
    /// (suppression syntax) is checked.
    Test,
}

/// Classification of one workspace file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate name (directory under `crates/`), or `event-matching` for the
    /// umbrella crate's own `src`/`tests`.
    pub crate_name: String,
    /// Participation kind.
    pub kind: FileKind,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
}

/// Classifies a workspace-relative path (using `/` separators).
pub fn classify(rel_path: &str) -> FileClass {
    let norm = rel_path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        "event-matching".to_string()
    };
    let in_dir = |d: &str| parts.contains(&d);
    let file = parts.last().copied().unwrap_or("");
    let kind = if in_dir("tests") || in_dir("benches") || in_dir("examples") || file == "build.rs" {
        FileKind::Test
    } else if file == "main.rs" || in_dir("bin") {
        FileKind::Binary
    } else {
        FileKind::Library
    };
    FileClass {
        crate_name,
        kind,
        rel_path: norm,
    }
}

/// `float-ordering` exempt files: the numeric module owns the one place
/// where ordering primitives may be wrapped.
pub const FLOAT_ORDERING_EXEMPT: &[&str] = &["crates/core/src/numeric.rs"];

/// `float-taint` watched files: the kernel hot paths whose sums feed
/// Theorem 1's monotone convergence; everywhere else short f64 sums are
/// reviewed case by case. `engine.rs` covers the PR7 worker pool's shard
/// delta reduction. Unlike the lexical
/// `naive-accumulation` rule this replaces, only accumulations whose
/// value *escapes* (returns, struct fields, stores through references)
/// are findings — a sum that merely gates a branch is not exported
/// precision.
pub const ACCUMULATION_WATCHED: &[&str] = &[
    "crates/core/src/kernel.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/sim.rs",
];

/// `lock-discipline` watched files: the PR7 worker pool is the only
/// sanctioned home for blocking synchronization (DESIGN.md §13), so the
/// guard-lifetime rules watch it alone. Everything else should not hold
/// `Mutex`/`RwLock` guards across rendezvous points at all — add files
/// here as they grow pools of their own.
pub const LOCK_WATCHED: &[&str] = &["crates/core/src/engine.rs"];

/// `index-bounds` watched files: the CSR hot path, where `a[i]`
/// arithmetic is pervasive and a single malformed offsets table turns
/// every row scan into a panic. Reads must be dominated by a validating
/// `from_parts`-style constructor or an explicit length check.
pub const INDEX_BOUNDS_WATCHED: &[&str] = &["crates/depgraph/src/csr.rs"];

/// `nondeterminism` watched crates: everything whose output feeds
/// reported similarity/matching results (including `synth`, whose outputs
/// must be reproducible from the seed alone, `store`/`faults`, whose
/// snapshot bytes and fault schedules must be pure functions of content
/// and seed, and `catalog`, whose admission/eviction decisions and
/// pruning order must be identical on every host).
pub const NONDET_CRATES: &[&str] = &[
    "core",
    "depgraph",
    "labels",
    "assignment",
    "baselines",
    "events",
    "xes",
    "eval",
    "synth",
    "obs",
    "prof",
    "store",
    "faults",
    "catalog",
];

/// `wall-clock-randomness` watched crates: result-producing code may not
/// read clocks or draw randomness. `synth`/`rng` are excluded (seeded
/// generation is their purpose); `eval` participates except its dedicated
/// timer module; `bench`/`cli` are reporting layers (perf_smoke's whole
/// job is wall-clock timing). `core` participation covers the PR7 worker
/// pool: shard scheduling must be a pure function of the inputs, never
/// of time or thread races. `obs` participates
/// so that its two span-timing clock reads must each carry an explicit
/// `allow(wall-clock-randomness, ...)` with a reason — timing stays
/// quarantined in the span `dur_us` field, which every deterministic
/// export redacts.
/// `store` participates so snapshot bytes can never depend on when they
/// were written; `faults` participates so its seeded plan/backoff RNG must
/// carry audited `allow(wall-clock-randomness, ...)` suppressions proving
/// the schedule is a pure function of the seed.
/// `prof` participates with exactly one pinned suppression — the
/// `ProfScope` start-time read — so the profiler can never grow a second
/// clock edge without an audited reason: everything else it emits
/// (counters, allocation tallies, histogram contents) must be a pure
/// function of the work performed, which is what keeps redacted profile
/// exports byte-identical across kernels and thread counts.
/// `catalog` participates so eviction recency can only ever be the
/// logical access counter, never a wall-clock timestamp.
pub const CLOCK_CRATES: &[&str] = &[
    "core",
    "depgraph",
    "labels",
    "assignment",
    "baselines",
    "events",
    "xes",
    "eval",
    "obs",
    "prof",
    "store",
    "faults",
    "catalog",
];

/// `wall-clock-randomness` exempt files: the timing infrastructure itself.
pub const CLOCK_EXEMPT: &[&str] = &["crates/eval/src/timer.rs"];

/// `string-keyed-map` watched crates: the hot-path crates (PR 5's interned
/// data model keys everything by `LabelSym`/`EventId`) plus `events`, which
/// hosts the two interners — the *only* sanctioned string→id edges, each
/// carrying an audited suppression.
pub const STRING_KEY_CRATES: &[&str] = &["core", "depgraph", "events"];

/// Whether `rel_path` ends with one of the watched suffixes.
pub fn path_matches(rel_path: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| rel_path.ends_with(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_library() {
        let c = classify("crates/core/src/kernel.rs");
        assert_eq!(c.crate_name, "core");
        assert_eq!(c.kind, FileKind::Library);
    }

    #[test]
    fn classify_tests_benches_bins() {
        assert_eq!(classify("crates/core/tests/x.rs").kind, FileKind::Test);
        assert_eq!(classify("crates/bench/benches/x.rs").kind, FileKind::Test);
        assert_eq!(classify("crates/cli/src/main.rs").kind, FileKind::Binary);
        assert_eq!(
            classify("crates/bench/src/bin/perf.rs").kind,
            FileKind::Binary
        );
        assert_eq!(classify("tests/end_to_end.rs").kind, FileKind::Test);
        assert_eq!(classify("src/lib.rs").crate_name, "event-matching");
    }
}
