//! Binary payload codecs for durable catalog snapshots.
//!
//! The store layer (`ems-store`) handles envelopes — checksums, kinds,
//! keys, atomic commits — and treats payloads as opaque bytes. This
//! module is the other half: it encodes the pipeline's cacheable
//! artifacts (event logs, dependency graphs, engine substrates, label
//! matrices) into those payloads and rehydrates them with full
//! structural re-validation. Every decoder is bounds-checked and returns
//! [`CoreError::SnapshotDecode`] on any inconsistency — a corrupted
//! payload can cost a rebuild, never a panic and never a wrong answer.
//!
//! Determinism contract: `decode(encode(x))` reproduces `x` exactly —
//! graph decodes are checked against an embedded fingerprint, substrate
//! kernel tables are re-derived from the persisted CSR columns (bit-equal
//! inputs give bit-equal tables), and all floats travel as IEEE-754 bit
//! patterns, so a match served from disk scores byte-identically to one
//! served from memory.
//!
//! All integers are little-endian; lengths are `u64`.

use crate::error::CoreError;
use crate::params::{Direction, LabelSpace};
use crate::substrate::EngineSubstrate;
use ems_depgraph::{CsrParts, DependencyGraph, Distance, GraphSketch, NeighborCsr, VertexProfile};
use ems_events::{EventId, EventLog, Fnv1a, SymbolTable, Trace};
use ems_labels::LabelMatrix;

/// Version of the event-log payload codec.
pub const LOG_PAYLOAD_VERSION: u32 = 1;
/// Version of the dependency-graph payload codec.
pub const GRAPH_PAYLOAD_VERSION: u32 = 1;
/// Version of the engine-substrate payload codec.
pub const SUBSTRATE_PAYLOAD_VERSION: u32 = 1;
/// Version of the label-matrix payload codec.
pub const LABELS_PAYLOAD_VERSION: u32 = 1;
/// Version of the graph-sketch payload codec. Version 2 added the exact
/// sorted label-hash set backing the sketch-level label bound.
pub const SKETCH_PAYLOAD_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// Store keys
// ---------------------------------------------------------------------
//
// Each artifact kind derives its store key from the fingerprints and
// parameters that determine its content, domain-separated by a literal
// tag so e.g. a graph and a log of the same source can never collide.

/// Store key of an ingested log snapshot.
pub fn log_store_key(log_fingerprint: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"log");
    h.write_u64(log_fingerprint);
    h.finish()
}

/// Store key of a graph snapshot: the source log plus the edge filter.
pub fn graph_store_key(log_fingerprint: u64, min_frequency: f64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"graph");
    h.write_u64(log_fingerprint);
    h.write_u64(min_frequency.to_bits());
    h.finish()
}

/// Store key of a substrate snapshot: both graph fingerprints, the
/// direction, and the damping constant.
pub fn substrate_store_key(fp1: u64, fp2: u64, direction: Direction, c: f64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"substrate");
    h.write_u64(fp1);
    h.write_u64(fp2);
    h.write(&[direction_tag(direction)]);
    h.write_u64(c.to_bits());
    h.finish()
}

/// Store key of a label-matrix snapshot: both log fingerprints plus the
/// label space the parameters induce (which measure fills the matrix, or
/// the zero matrix at `alpha = 1`). [`LabelSpace::tag`] keeps the bytes of
/// the pre-measure-knob scheme for the structural and q-gram spaces, so
/// existing stores stay valid.
pub fn labels_store_key(log_fingerprint1: u64, log_fingerprint2: u64, space: LabelSpace) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"labels");
    h.write_u64(log_fingerprint1);
    h.write_u64(log_fingerprint2);
    h.write(&[space.tag()]);
    h.finish()
}

/// Store key of a graph-sketch snapshot: the sketched graph's
/// fingerprint. The sketch is a pure function of the graph content, so
/// the graph fingerprint fully determines it.
pub fn sketch_store_key(graph_fingerprint: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"sketch");
    h.write_u64(graph_fingerprint);
    h.finish()
}

fn direction_tag(direction: Direction) -> u8 {
    match direction {
        Direction::Forward => 0,
        Direction::Backward => 1,
    }
}

fn direction_from_tag(tag: u8) -> Result<Direction, CoreError> {
    match tag {
        0 => Ok(Direction::Forward),
        1 => Ok(Direction::Backward),
        other => Err(decode_err(format!("unknown direction tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// Primitive writer / bounds-checked reader
// ---------------------------------------------------------------------

fn decode_err(message: impl Into<String>) -> CoreError {
    CoreError::SnapshotDecode {
        message: message.into(),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u64(out, len as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_distance(out: &mut Vec<u8>, d: Distance) {
    match d {
        Distance::Finite(v) => put_u64(out, u64::from(v)),
        Distance::Infinite => put_u64(out, u64::MAX),
    }
}

fn put_u32_slice(out: &mut Vec<u8>, vs: &[u32]) {
    put_len(out, vs.len());
    for &v in vs {
        put_u32(out, v);
    }
}

fn put_f64_slice(out: &mut Vec<u8>, vs: &[f64]) {
    put_len(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

/// Cursor over a payload; every read is bounds-checked and every length
/// is sanity-checked against the remaining bytes before allocation.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.remaining() < n {
            return Err(decode_err(format!(
                "payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix, validated against the minimum bytes each of its
    /// items must still occupy — rejects absurd lengths before allocating.
    fn len(&mut self, item_bytes: usize) -> Result<usize, CoreError> {
        let len = self.u64()?;
        let len =
            usize::try_from(len).map_err(|_| decode_err(format!("length {len} overflows")))?;
        if len.saturating_mul(item_bytes) > self.remaining() {
            return Err(decode_err(format!(
                "declared length {len} exceeds remaining payload"
            )));
        }
        Ok(len)
    }

    fn str(&mut self) -> Result<&'a str, CoreError> {
        let len = self.len(1)?;
        std::str::from_utf8(self.take(len)?).map_err(|e| decode_err(format!("invalid UTF-8: {e}")))
    }

    fn distance(&mut self) -> Result<Distance, CoreError> {
        let raw = self.u64()?;
        if raw == u64::MAX {
            Ok(Distance::Infinite)
        } else {
            let v = u32::try_from(raw)
                .map_err(|_| decode_err(format!("distance {raw} overflows u32")))?;
            Ok(Distance::Finite(v))
        }
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, CoreError> {
        let len = self.len(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, CoreError> {
        let len = self.len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), CoreError> {
        if self.pos != self.bytes.len() {
            return Err(decode_err(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Event logs
// ---------------------------------------------------------------------

/// Encodes an event log: optional name, the full alphabet in id order
/// (ghost entries — interned but never occurring — included), and every
/// trace as a sequence of event ids.
pub fn encode_log(log: &EventLog) -> Vec<u8> {
    let mut out = Vec::new();
    match log.name() {
        Some(name) => {
            out.push(1);
            put_str(&mut out, name);
        }
        None => out.push(0),
    }
    let n = log.alphabet_size();
    put_len(&mut out, n);
    for i in 0..n {
        put_str(&mut out, log.name_of(EventId::from_index(i)));
    }
    put_len(&mut out, log.num_traces());
    for trace in log.traces() {
        put_len(&mut out, trace.len());
        for &id in trace.events() {
            put_u32(&mut out, id.0);
        }
    }
    out
}

/// Decodes an event log, validating alphabet references.
pub fn decode_log(bytes: &[u8]) -> Result<EventLog, CoreError> {
    let mut r = Reader::new(bytes);
    let mut log = match r.u8()? {
        0 => EventLog::new(),
        1 => EventLog::with_name(r.str()?),
        other => return Err(decode_err(format!("bad log name flag {other}"))),
    };
    let n = r.len(8)?;
    for i in 0..n {
        let name = r.str()?;
        let id = log.intern(name);
        if id.index() != i {
            return Err(decode_err(format!(
                "duplicate alphabet entry {name:?} at index {i}"
            )));
        }
    }
    let traces = r.len(8)?;
    for _ in 0..traces {
        let len = r.len(4)?;
        let mut ids = Vec::with_capacity(len);
        for _ in 0..len {
            let id = r.u32()?;
            if id as usize >= n {
                return Err(decode_err(format!(
                    "trace references event id {id}, alphabet has {n} entries"
                )));
            }
            ids.push(EventId(id));
        }
        log.push_trace_ids(Trace::from_ids(ids));
    }
    r.finish()?;
    Ok(log)
}

// ---------------------------------------------------------------------
// Dependency graphs
// ---------------------------------------------------------------------

/// Encodes a graph as its construction parts — names, node frequencies,
/// real edges — plus its content fingerprint. Artificial edges are not
/// persisted; `from_parts` re-derives them, and the embedded fingerprint
/// (which covers the full adjacency) proves the re-derivation exact.
pub fn encode_graph(g: &DependencyGraph) -> Vec<u8> {
    let mut out = Vec::new();
    let n = g.num_real();
    put_len(&mut out, n);
    for v in g.real_nodes() {
        put_str(&mut out, g.name(v));
        put_f64(&mut out, g.node_frequency(v));
    }
    let edges = g.real_edges();
    put_len(&mut out, edges.len());
    for (a, b, f) in edges {
        put_u32(&mut out, a.0);
        put_u32(&mut out, b.0);
        put_f64(&mut out, f);
    }
    put_u64(&mut out, g.fingerprint());
    out
}

/// Decodes a graph, interning labels into the shared session `table`,
/// and verifies the rebuilt graph's fingerprint against the embedded one
/// — any silent divergence between codec and constructor is caught here.
pub fn decode_graph_in(
    bytes: &[u8],
    table: &mut SymbolTable,
) -> Result<DependencyGraph, CoreError> {
    let mut r = Reader::new(bytes);
    let n = r.len(16)?;
    let mut names = Vec::with_capacity(n);
    let mut freqs = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(r.str()?.to_owned());
        freqs.push(r.f64()?);
    }
    let num_edges = r.len(16)?;
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let a = r.u32()? as usize;
        let b = r.u32()? as usize;
        let f = r.f64()?;
        edges.push((a, b, f));
    }
    let expected_fingerprint = r.u64()?;
    r.finish()?;
    let g = DependencyGraph::try_from_parts_in(names, freqs, &edges, table)
        .map_err(|e| decode_err(format!("graph parts rejected: {e}")))?;
    let actual = g.fingerprint();
    if actual != expected_fingerprint {
        return Err(decode_err(format!(
            "graph fingerprint mismatch: rebuilt {actual:016x}, snapshot says {expected_fingerprint:016x}"
        )));
    }
    Ok(g)
}

// ---------------------------------------------------------------------
// Engine substrates
// ---------------------------------------------------------------------

/// Encodes a substrate as its direction, damping constant, shape, longest
/// distances, and the two direction-resolved CSR exports. The kernel's
/// compatibility tables are *not* persisted: they are pure functions of
/// the CSRs and `c`, re-derived bit-identically on decode.
pub fn encode_substrate(sub: &EngineSubstrate) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(direction_tag(sub.direction()));
    put_f64(&mut out, sub.c());
    put_len(&mut out, sub.rows());
    put_len(&mut out, sub.cols());
    put_len(&mut out, sub.l1.len());
    for &d in &sub.l1 {
        put_distance(&mut out, d);
    }
    put_len(&mut out, sub.l2.len());
    for &d in &sub.l2 {
        put_distance(&mut out, d);
    }
    let (csr1, csr2) = sub.ctx.csrs();
    for csr in [csr1, csr2] {
        let parts = csr.to_parts();
        put_u32_slice(&mut out, &parts.off);
        put_u32_slice(&mut out, &parts.ent_lane);
        put_u32_slice(&mut out, &parts.lane_off);
        put_u32_slice(&mut out, &parts.lane_src);
        put_f64_slice(&mut out, &parts.lane_freq);
        put_f64_slice(&mut out, &parts.art_freq);
    }
    out
}

fn read_csr(r: &mut Reader<'_>) -> Result<NeighborCsr, CoreError> {
    let parts = CsrParts {
        off: r.u32_vec()?,
        ent_lane: r.u32_vec()?,
        lane_off: r.u32_vec()?,
        lane_src: r.u32_vec()?,
        lane_freq: r.f64_vec()?,
        art_freq: r.f64_vec()?,
    };
    NeighborCsr::try_from_parts(parts).map_err(|e| decode_err(e.to_string()))
}

/// Decodes a substrate and cross-checks it against the direction and
/// damping constant the caller expects to serve.
pub fn decode_substrate(
    bytes: &[u8],
    expected_direction: Direction,
    expected_c: f64,
) -> Result<EngineSubstrate, CoreError> {
    let mut r = Reader::new(bytes);
    let direction = direction_from_tag(r.u8()?)?;
    let c = r.f64()?;
    if direction != expected_direction {
        return Err(decode_err(format!(
            "substrate direction {direction:?} does not match requested {expected_direction:?}"
        )));
    }
    if c.to_bits() != expected_c.to_bits() {
        return Err(decode_err(format!(
            "substrate damping constant {c} does not match requested {expected_c}"
        )));
    }
    let n1 = r.len(1)?;
    let n2 = r.len(1)?;
    let l1_len = r.len(8)?;
    let mut l1 = Vec::with_capacity(l1_len);
    for _ in 0..l1_len {
        l1.push(r.distance()?);
    }
    let l2_len = r.len(8)?;
    let mut l2 = Vec::with_capacity(l2_len);
    for _ in 0..l2_len {
        l2.push(r.distance()?);
    }
    let csr1 = read_csr(&mut r)?;
    let csr2 = read_csr(&mut r)?;
    r.finish()?;
    EngineSubstrate::from_saved_parts(direction, c, n1, n2, l1, l2, csr1, csr2)
}

// ---------------------------------------------------------------------
// Label matrices
// ---------------------------------------------------------------------

/// Encodes a label matrix: shape plus row-major IEEE-754 bit patterns.
pub fn encode_labels(m: &LabelMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, m.rows());
    put_len(&mut out, m.cols());
    put_f64_slice(&mut out, m.data());
    out
}

/// Decodes a label matrix, validating shape consistency.
pub fn decode_labels(bytes: &[u8]) -> Result<LabelMatrix, CoreError> {
    let mut r = Reader::new(bytes);
    let rows = r.len(1)?;
    let cols = r.len(1)?;
    let data = r.f64_vec()?;
    r.finish()?;
    LabelMatrix::try_from_raw(rows, cols, data).map_err(|e| decode_err(e.to_string()))
}

// ---------------------------------------------------------------------
// Graph sketches
// ---------------------------------------------------------------------

/// Encodes a graph sketch: identity header, frequency class table,
/// deduplicated vertex profiles with multiplicities, minhash lanes, and
/// the sorted set of exact label hashes (payload version 2).
pub fn encode_sketch(sketch: &GraphSketch) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, sketch.fingerprint());
    put_u32(&mut out, sketch.num_real() as u32);
    put_u64(&mut out, sketch.num_edges());
    put_f64_slice(&mut out, sketch.classes());
    put_len(&mut out, sketch.profiles().len());
    for p in sketch.profiles() {
        put_u32(&mut out, p.freq_class);
        put_u32_slice(&mut out, &p.pre_classes);
        put_u32_slice(&mut out, &p.post_classes);
    }
    put_u32_slice(&mut out, sketch.counts());
    put_len(&mut out, sketch.minhash().len());
    for &lane in sketch.minhash() {
        put_u64(&mut out, lane);
    }
    put_len(&mut out, sketch.label_hashes().len());
    for &h in sketch.label_hashes() {
        put_u64(&mut out, h);
    }
    out
}

/// Decodes a graph sketch, re-validating every structural invariant via
/// [`GraphSketch::try_from_parts`] — a corrupted payload is rejected,
/// never served into pruning decisions.
pub fn decode_sketch(bytes: &[u8]) -> Result<GraphSketch, CoreError> {
    let mut r = Reader::new(bytes);
    let fingerprint = r.u64()?;
    let num_real = r.u32()?;
    let num_edges = r.u64()?;
    let classes = r.f64_vec()?;
    let num_profiles = r.len(12)?;
    let mut profiles = Vec::with_capacity(num_profiles);
    for _ in 0..num_profiles {
        let freq_class = r.u32()?;
        let pre_classes = r.u32_vec()?;
        let post_classes = r.u32_vec()?;
        profiles.push(VertexProfile {
            freq_class,
            pre_classes,
            post_classes,
        });
    }
    let counts = r.u32_vec()?;
    let lanes = r.len(8)?;
    let mut minhash = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        minhash.push(r.u64()?);
    }
    let num_hashes = r.len(8)?;
    let mut label_hashes = Vec::with_capacity(num_hashes);
    for _ in 0..num_hashes {
        label_hashes.push(r.u64()?);
    }
    r.finish()?;
    GraphSketch::try_from_parts(
        fingerprint,
        num_real,
        num_edges,
        classes,
        profiles,
        counts,
        minhash,
        label_hashes,
    )
    .map_err(|e| decode_err(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EmsParams;
    use ems_events::fingerprint_log;

    fn sample_log() -> EventLog {
        let mut log = EventLog::with_name("sample");
        let _ghost = log.intern("ghost");
        log.push_trace(["A", "C", "D", "E"]);
        log.push_trace(["B", "C", "D"]);
        log.push_trace(["A", "C", "E"]);
        log
    }

    #[test]
    fn log_round_trips_with_fingerprint() {
        let log = sample_log();
        let decoded = decode_log(&encode_log(&log)).unwrap();
        assert_eq!(decoded.name(), Some("sample"));
        assert_eq!(decoded.alphabet_size(), log.alphabet_size());
        assert_eq!(decoded.num_traces(), log.num_traces());
        assert_eq!(fingerprint_log(&decoded), fingerprint_log(&log));
        // Ghost alphabet entries survive.
        assert!(decoded.id_of("ghost").is_some());

        let unnamed = {
            let mut l = EventLog::new();
            l.push_trace(["x"]);
            l
        };
        let decoded = decode_log(&encode_log(&unnamed)).unwrap();
        assert_eq!(decoded.name(), None);
        assert_eq!(fingerprint_log(&decoded), fingerprint_log(&unnamed));
    }

    #[test]
    fn graph_round_trips_bit_identically() {
        let g = DependencyGraph::from_log(&sample_log());
        let mut table = SymbolTable::new();
        table.intern("session-noise");
        let decoded = decode_graph_in(&encode_graph(&g), &mut table).unwrap();
        assert_eq!(decoded, g);
        assert_eq!(decoded.fingerprint(), g.fingerprint());
    }

    #[test]
    fn graph_decode_rejects_fingerprint_mismatch() {
        let g = DependencyGraph::from_log(&sample_log());
        let mut bytes = encode_graph(&g);
        // The fingerprint is the trailing u64.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = decode_graph_in(&bytes, &mut SymbolTable::new()).unwrap_err();
        assert!(matches!(err, CoreError::SnapshotDecode { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn substrate_round_trips_to_identical_bytes() {
        let log1 = sample_log();
        let mut log2 = EventLog::new();
        log2.push_trace(["e0", "e1", "e2"]);
        log2.push_trace(["e0", "e2"]);
        let g1 = DependencyGraph::from_log(&log1);
        let g2 = DependencyGraph::from_log(&log2);
        let params = EmsParams::structural();
        for direction in [Direction::Forward, Direction::Backward] {
            let sub = EngineSubstrate::build(&g1, &g2, direction, params.c);
            let bytes = encode_substrate(&sub);
            let decoded = decode_substrate(&bytes, direction, params.c).unwrap();
            assert_eq!(decoded.direction(), direction);
            assert_eq!(decoded.rows(), sub.rows());
            assert_eq!(decoded.cols(), sub.cols());
            // Re-encoding the rehydrated substrate must be byte-identical:
            // distances, CSR columns, and the re-derived kernel inputs all
            // round-trip exactly.
            assert_eq!(encode_substrate(&decoded), bytes);
        }
    }

    #[test]
    fn substrate_decode_rejects_wrong_parameters() {
        let g = DependencyGraph::from_log(&sample_log());
        let sub = EngineSubstrate::build(&g, &g, Direction::Forward, 0.8);
        let bytes = encode_substrate(&sub);
        assert!(decode_substrate(&bytes, Direction::Backward, 0.8).is_err());
        assert!(decode_substrate(&bytes, Direction::Forward, 0.7).is_err());
        assert!(decode_substrate(&bytes, Direction::Forward, 0.8).is_ok());
    }

    #[test]
    fn labels_round_trip() {
        let m = LabelMatrix::from_raw(2, 3, vec![0.0, 0.5, 1.0, 0.25, 0.125, 0.75]);
        let decoded = decode_labels(&encode_labels(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn truncated_payloads_error_without_panicking() {
        let log_bytes = encode_log(&sample_log());
        let g = DependencyGraph::from_log(&sample_log());
        let graph_bytes = encode_graph(&g);
        let sub_bytes = encode_substrate(&EngineSubstrate::build(&g, &g, Direction::Forward, 0.8));
        let label_bytes = encode_labels(&LabelMatrix::zeros(2, 2));
        for n in 0..log_bytes.len() {
            assert!(decode_log(&log_bytes[..n]).is_err());
        }
        for n in 0..graph_bytes.len() {
            assert!(decode_graph_in(&graph_bytes[..n], &mut SymbolTable::new()).is_err());
        }
        for n in (0..sub_bytes.len()).step_by(7) {
            assert!(decode_substrate(&sub_bytes[..n], Direction::Forward, 0.8).is_err());
        }
        for n in 0..label_bytes.len() {
            assert!(decode_labels(&label_bytes[..n]).is_err());
        }
    }

    #[test]
    fn sketch_round_trips_and_rejects_corruption() {
        let g = DependencyGraph::from_log(&sample_log());
        let sketch = GraphSketch::of(&g);
        let bytes = encode_sketch(&sketch);
        let decoded = decode_sketch(&bytes).unwrap();
        assert_eq!(decoded, sketch);
        assert_eq!(encode_sketch(&decoded), bytes);
        for n in 0..bytes.len() {
            assert!(decode_sketch(&bytes[..n]).is_err());
        }
        // Flip the vertex count: the multiplicity-sum invariant must
        // catch it (bytes 8..12 hold num_real).
        let mut bad = bytes.clone();
        bad[8] ^= 0x01;
        assert!(decode_sketch(&bad).is_err());
    }

    #[test]
    fn store_keys_are_domain_separated() {
        let keys = [
            log_store_key(1),
            graph_store_key(1, 0.0),
            graph_store_key(1, 0.5),
            substrate_store_key(1, 2, Direction::Forward, 0.8),
            substrate_store_key(1, 2, Direction::Backward, 0.8),
            substrate_store_key(2, 1, Direction::Forward, 0.8),
            labels_store_key(1, 2, LabelSpace::QgramCosine),
            labels_store_key(1, 2, LabelSpace::ExactName),
            labels_store_key(1, 2, LabelSpace::Structural),
            sketch_store_key(1),
            sketch_store_key(2),
        ];
        let mut dedup = keys.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "store keys collide: {keys:?}");
        assert_eq!(log_store_key(1), log_store_key(1));
    }
}
