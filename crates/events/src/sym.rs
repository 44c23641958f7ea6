//! Cross-log label symbols and content fingerprints.
//!
//! [`EventId`]s are scoped to a single [`EventLog`](crate::EventLog): id 3 of
//! log A and id 3 of log B usually name different activities. Matching,
//! caching, and composite merging all need a *shared* identity space where
//! equal labels compare equal across logs without touching the strings. A
//! [`SymbolTable`] provides that space: it interns names into dense
//! [`LabelSym`]s that are stable for the lifetime of the table (typically a
//! matching session — `SharedSession`, which `MatchSession` and the catalog
//! both match through), so hot paths compare `u32`s and strings are only
//! materialized at the parse and report edges.
//!
//! The module also provides [`Fnv1a`], a dependency-free 64-bit FNV-1a hasher
//! used to fingerprint logs and graphs for cache keys. Unlike
//! `std::collections::hash_map::DefaultHasher`, its output is specified and
//! stable across processes and Rust releases, so fingerprints can appear in
//! exported telemetry without breaking byte-identity contracts.

use crate::EventLog;
use std::collections::HashMap;
use std::fmt;

/// A compact label identity shared across logs within one [`SymbolTable`].
///
/// Like [`EventId`](crate::EventId), symbols are dense (`0..n` in
/// first-intern order), but their scope is the table — usually a whole
/// matching session — so the same activity name maps to the same symbol in
/// every log, graph, and candidate that the session touches.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelSym(pub u32);

impl LabelSym {
    /// The symbol as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "label symbol overflow");
        LabelSym(i as u32)
    }
}

impl fmt::Debug for LabelSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for LabelSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Interns label strings into dense cross-log [`LabelSym`]s.
///
/// Symbols are assigned in first-intern order and never invalidated; a table
/// only grows. Lookup is `O(1)` in both directions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    names: Vec<String>,
    // ems-lint: allow(string-keyed-map, this interner IS the parse edge: one string probe per label at intern time; everything downstream keys by LabelSym)
    index: HashMap<String, LabelSym>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> LabelSym {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = LabelSym::from_index(self.names.len());
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), s);
        s
    }

    /// Returns the symbol of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<LabelSym> {
        self.index.get(name).copied()
    }

    /// Returns the name for `sym`, or `None` if out of range.
    pub fn name(&self, sym: LabelSym) -> Option<&str> {
        self.names.get(sym.index()).map(String::as_str)
    }

    /// Returns the name for `sym`, panicking on out-of-range symbols.
    pub fn resolve(&self, sym: LabelSym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(sym, name)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelSym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (LabelSym::from_index(i), n.as_str()))
    }

    /// Interns every event name of `log`, returning the per-[`EventId`]
    /// symbol column: entry `i` is the symbol of the log's event id `i`.
    pub fn symbolize(&mut self, log: &EventLog) -> Vec<LabelSym> {
        (0..log.alphabet_size())
            .map(|i| self.intern(log.name_of(crate::EventId::from_index(i))))
            .collect()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hasher with a specified, process-stable output.
///
/// Used for fingerprint cache keys; not a defense against adversarial
/// collisions (cache keys here only ever mix trusted inputs).
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl Fnv1a {
    /// Creates a hasher in the standard FNV-1a initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length or index (as `u64`, so 32/64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Returns the current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Content fingerprint of a log: hashes the trace structure over event
/// *names* (not ids), so two logs with identical content fingerprint equal
/// regardless of interning order, process, or platform.
pub fn fingerprint_log(log: &EventLog) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(log.num_traces());
    for trace in log.traces() {
        h.write_usize(trace.len());
        for &id in trace.events() {
            let name = log.name_of(id);
            h.write_usize(name.len());
            h.write(name.as_bytes());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_shared_across_logs() {
        let mut table = SymbolTable::new();
        let mut l1 = EventLog::new();
        l1.push_trace(["b", "a"]);
        let mut l2 = EventLog::new();
        l2.push_trace(["a", "c"]);
        let s1 = table.symbolize(&l1);
        let s2 = table.symbolize(&l2);
        // "a" is id 1 in l1 but id 0 in l2; one symbol in the shared table.
        assert_eq!(s1[1], s2[0]);
        assert_ne!(s1[0], s2[1]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.resolve(s1[1]), "a");
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut table = SymbolTable::new();
        assert_eq!(table.intern("x"), LabelSym(0));
        assert_eq!(table.intern("y"), LabelSym(1));
        assert_eq!(table.intern("x"), LabelSym(0));
        assert_eq!(table.get("y"), Some(LabelSym(1)));
        assert_eq!(table.get("z"), None);
        assert_eq!(table.name(LabelSym(9)), None);
        let pairs: Vec<_> = table
            .iter()
            .map(|(s, n)| (s.index(), n.to_owned()))
            .collect();
        assert_eq!(pairs, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let mut a = EventLog::new();
        a.push_trace(["x", "y"]);
        // Same content built through a different path hashes identically.
        let mut builder = crate::LogBuilder::new();
        builder.begin_trace();
        builder.event("x");
        builder.event("y");
        builder.end_trace();
        let b = builder.finish();
        assert_eq!(fingerprint_log(&a), fingerprint_log(&b));

        let mut c = EventLog::new();
        c.push_trace(["x", "z"]);
        assert_ne!(fingerprint_log(&a), fingerprint_log(&c));

        // Trace boundaries matter: ["x","y"] != ["x"],["y"].
        let mut d = EventLog::new();
        d.push_trace(["x"]);
        d.push_trace(["y"]);
        assert_ne!(fingerprint_log(&a), fingerprint_log(&d));
    }
}
