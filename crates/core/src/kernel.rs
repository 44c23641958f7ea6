//! The precomputation-backed fixpoint kernel: `PairContext`, the
//! active-pair worklist, and the sharded parallel update.
//!
//! The seed implementation of formula (1) re-derived everything inside the
//! innermost loop: neighbor lists were walked through `NodeId` indirection,
//! the edge-compatibility factor `C = c·(1 − |Δf|/(f_o + f_i))` was
//! recomputed for every (outer, inner) neighbor pair on every iteration,
//! and three full `n1 × n2` grid scans ran per round. This module replaces
//! that hot path with three layers:
//!
//! 1. **[`PairContext`]** — a one-time substrate per engine: both graphs'
//!    direction-resolved neighbor lists flattened to CSR arrays
//!    ([`NeighborCsr`]), plus the `C`-factors precomputed per *frequency
//!    class*. Edge frequencies are trace-count fractions, so a graph has
//!    few distinct values; deduplicating them collapses the `C`-table from
//!    `O(E1·E2)` lane pairs to a cache-resident `classes1 × classes2`
//!    grid (two copies, one per scan orientation).
//! 2. **Per-iteration evaluation substrates** chosen by worklist density:
//!    - *Dense* ([`DenseScratch`]): when most pairs are still active, the
//!      per-outer-lane inner maxima `T[lane][node] = max C·S_prev` are
//!      materialized in two streaming passes (each keeps one `prev` row
//!      and the class table cache-hot), and a pair evaluation collapses
//!      to summing `deg` table lookups. Total candidate count is the same
//!      as the pairwise scan — the win is locality, every access hits a
//!      recently-touched line.
//!    - *Sparse*: when retirement has thinned the worklist, pairs are
//!      evaluated individually; a transposed copy of `prev` keeps the
//!      swapped scan orientation stride-1.
//! 3. **Active-pair worklist** (owned by the engine): pairs past their
//!    Proposition-2 horizon or frozen by Proposition 4 are retired *once*
//!    instead of being re-tested by full-grid scans every round, and
//!    [`eval_chunk`] shards the surviving pairs across threads. A chunk
//!    reads only the previous iteration's matrix (Jacobi step) and writes
//!    a private output buffer, so the update is order-independent.
//!
//! Determinism argument, in full: the compatibility factors are computed
//! by the same expression on the same inputs whether tabulated or derived
//! on the fly; the candidate set of each inner `max` is identical across
//! substrates (candidates with `S_prev ≤ best` cannot alter the max
//! because `C < 1`, so the seed's skip-guard is equivalence-preserving),
//! and the candidates are compared in the same adjacency order; the
//! per-outer-neighbor summation order follows the original adjacency order
//! preserved by the CSR; the transposed matrix holds exact copies; and the
//! artificial-event candidate joins the max commutatively. Every
//! floating-point operation therefore sees bit-identical operands in
//! bit-identical order regardless of substrate or sharding, so results are
//! bit-identical for every thread count and density threshold.

use crate::stats::ThreadClamp;
use ems_depgraph::{NeighborCsr, ARTIFICIAL_ENTRY};
use ems_labels::LabelMatrix;
use std::collections::HashMap;

/// Cap on precomputed compatibility-table entries *per table*. Frequency
/// classes keep real tables thousands of entries at most; the cap only
/// guards pathological inputs where every edge frequency is distinct.
/// Beyond it the kernel derives `C` on the fly — bit-identical results.
const MAX_COMPAT_ENTRIES: usize = 16 << 20;

/// Cap on total dense-substrate entries (`L1·n2 + n1·L2` similarity
/// maxima, 8 bytes each — 32 M entries is 256 MB). Grids too large for
/// the dense substrate use the sparse per-pair path at every density.
const MAX_DENSE_ENTRIES: usize = 32 << 20;

/// Fixed unroll width of the kernel's vector lanes: `[f64; 8]` blocks are
/// one or two SIMD registers on every mainstream target, wide enough to
/// saturate the autovectorizer without spilling.
const LANE_WIDTH: usize = 8;

/// Row-tile width of the dense consume: a run of consecutive pairs is
/// capped at this many columns so the accumulator tile plus the `t12`
/// rows it streams stay L1-resident across the whole `ents1` walk.
/// Splitting a run changes no per-pair arithmetic — each column's sum
/// sees the same terms in the same order — so tiling is bit-invisible.
const DENSE_TILE: usize = 256;

/// Elementwise `acc[i] += src[i]` in [`LANE_WIDTH`] blocks. The adds are
/// independent per index (no cross-lane reduction), so the unrolled form
/// performs the exact scalar operations and stays bit-identical.
#[inline]
fn add_assign_lanes(acc: &mut [f64], src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    let mut a = acc.chunks_exact_mut(LANE_WIDTH);
    let mut s = src.chunks_exact(LANE_WIDTH);
    for (ab, sb) in (&mut a).zip(&mut s) {
        for (x, &y) in ab.iter_mut().zip(sb) {
            *x += y;
        }
    }
    for (x, &y) in a.into_remainder().iter_mut().zip(s.remainder()) {
        *x += y;
    }
}

/// Horizontal max of non-negative finite doubles as a `u64` bit pattern,
/// reduced over [`LANE_WIDTH`] independent accumulators. For strictly
/// non-negative finite IEEE doubles unsigned bit order equals value
/// order, and a max fold is order-independent, so the lane-blocked
/// reduction returns exactly the bit pattern a sequential scan would.
#[inline]
fn max_bits_lanes(vals: &[f64]) -> u64 {
    let mut lanes = [0u64; LANE_WIDTH];
    let mut chunks = vals.chunks_exact(LANE_WIDTH);
    for ch in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(ch) {
            *l = (*l).max(v.to_bits());
        }
    }
    let mut best = 0u64;
    for &v in chunks.remainder() {
        best = best.max(v.to_bits());
    }
    for l in lanes {
        best = best.max(l);
    }
    best
}

/// The edge-compatibility factor `C(e1, e2) = c·(1 − |Δf|/(f_o + f_i))`
/// of Definition 2 — the exact expression of the seed kernel, kept in one
/// place so tabulated and on-the-fly values are bit-identical.
#[inline]
fn compat(c: f64, f_o: f64, f_i: f64) -> f64 {
    c * (1.0 - (f_o - f_i).abs() / (f_o + f_i))
}

/// One live entry of the engine's worklist: a pair index `k = v1·n2 + v2`
/// and its Proposition-2 horizon (`u32::MAX` = infinite).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActivePair {
    /// Row-major pair index.
    pub k: u32,
    /// `h = min(l(v1), l(v2))`; `u32::MAX` when infinite.
    pub h: u32,
}

/// Horizon sentinel for pairs that never converge by Proposition 2.
pub(crate) const H_INFINITE: u32 = u32::MAX;

/// Deduplicates lane frequencies into dense class ids (first-seen order)
/// and returns the per-lane class plus the distinct values per class.
fn frequency_classes(freqs: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut by_bits: HashMap<u64, u32> = HashMap::new();
    let mut classes = Vec::new();
    let lanes = freqs
        .iter()
        .map(|&f| {
            *by_bits.entry(f.to_bits()).or_insert_with(|| {
                classes.push(f);
                (classes.len() - 1) as u32
            })
        })
        .collect();
    (lanes, classes)
}

/// Reusable buffers of the dense evaluation substrate: the inner maxima
/// per (outer lane, opposite node), refreshed from `prev` each iteration.
#[derive(Debug, Default)]
pub(crate) struct DenseScratch {
    /// `t12[e1 · n2 + v2] = max over inner lanes i of v2 of
    /// C(f(e1), f(i)) · S_prev(src(e1), src(i))` — the per-outer-lane best
    /// for the `s(v1, v2)` orientation, laid out so a row-major pair walk
    /// streams each lane row sequentially.
    t12: Vec<f64>,
    /// `t21[v1 · L2 + e2]` — the swapped orientation, laid out so all
    /// lanes consumed while `v1` is fixed live in one contiguous row.
    t21: Vec<f64>,
    /// One `prev` row gathered through side 2's lane sources — shared by
    /// every side-1 lane with the same source node.
    gather: Vec<f64>,
    /// One lane's candidate products `C · g`, staged so the segmented
    /// `t12` max reduces over a contiguous buffer in lane blocks.
    prod: Vec<f64>,
    /// Whether a `t21` row has been written this fill — the first lane of
    /// a node stores instead of max-accumulating, so rows never need
    /// zeroing.
    row_written: Vec<bool>,
    /// Whether the last fill produced all-zero tables (an all-zero
    /// `prev`) — lets the consumer skip reading them: adding `0.0` to a
    /// non-negative accumulator is the bitwise identity.
    zero: bool,
}

impl DenseScratch {
    /// Borrows the filled substrate as a [`PairEval`].
    pub fn as_eval(&self) -> PairEval<'_> {
        PairEval::Dense {
            t12: &self.t12,
            t21: &self.t21,
            zero: self.zero,
        }
    }
}

/// Which per-iteration substrate a pair evaluation reads. Both produce
/// bit-identical values; the engine picks per iteration by worklist
/// density.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairEval<'a> {
    /// Per-pair scans over `prev` and its transpose.
    Sparse {
        /// Transpose of the previous matrix (`n2 × n1` row-major).
        prev_t: &'a [f64],
    },
    /// Lookups into the materialized inner maxima.
    Dense {
        /// See [`DenseScratch::t12`].
        t12: &'a [f64],
        /// See [`DenseScratch::t21`].
        t21: &'a [f64],
        /// See [`DenseScratch::zero`].
        zero: bool,
    },
}

/// Precomputed per-run substrate of the similarity kernel.
#[derive(Debug)]
pub(crate) struct PairContext {
    /// CSR neighbors of graph 1 (pre-sets forward, post-sets backward).
    csr1: NeighborCsr,
    /// CSR neighbors of graph 2, same direction resolution.
    csr2: NeighborCsr,
    /// Frequency class per lane of `csr1` / `csr2`.
    cls1: Vec<u32>,
    cls2: Vec<u32>,
    /// Distinct-class counts of each side.
    nc1: usize,
    nc2: usize,
    /// `C`-factors for the `s(v1, v2)` scan: `[class1 * nc2 + class2]`.
    compat12: Option<Vec<f64>>,
    /// `C`-factors for the `s(v2, v1)` scan: `[class2 * nc1 + class1]`.
    compat21: Option<Vec<f64>>,
    /// `C`-factors expanded per (side-1 class, side-2 lane):
    /// `[class1 * L2 + lane2] = compat12[class1][cls2[lane2]]`. Because `C`
    /// is symmetric in its frequency arguments this one array serves both
    /// scan orientations of the dense fill, whose inner loops then zip
    /// sequential slices with no per-candidate table indexing.
    expand: Option<Vec<f64>>,
    /// Side-1 lanes grouped by source node: `by_src1_lane[by_src1_off[u]..
    /// by_src1_off[u + 1]]` are the lanes whose source is node `u`. Lanes
    /// sharing a source read the same `prev` row, so the dense fill
    /// gathers that row once per source instead of once per lane.
    by_src1_off: Vec<u32>,
    by_src1_lane: Vec<u32>,
    /// Owning node of each side-1 lane (inverse of `csr1.lane_range`).
    owner1: Vec<u32>,
    /// Artificial-neighbor factors tabulated per (side-1 node class,
    /// side-2 node class); absent when the class product exceeds the cap.
    art: Option<ArtTable>,
    /// Decay parameter `c`, for on-the-fly fallback and artificial lanes.
    c: f64,
}

/// Tabulated artificial-event compatibility: node-level frequency classes
/// per side and the `C` value per class pair (0.0 where either side has
/// no artificial neighbor) — the exact values [`compat`] would produce,
/// computed once instead of per pair evaluation.
#[derive(Debug)]
struct ArtTable {
    cls1: Vec<u32>,
    cls2: Vec<u32>,
    nc2: usize,
    tab: Vec<f64>,
}

impl PairContext {
    /// Builds the substrate from direction-resolved CSR exports.
    pub fn new(csr1: NeighborCsr, csr2: NeighborCsr, c: f64) -> Self {
        Self::with_cap(csr1, csr2, c, MAX_COMPAT_ENTRIES)
    }

    /// The direction-resolved CSR exports this context was built from
    /// (serialization edge: everything else in the context is derived
    /// deterministically from these plus `c`).
    pub(crate) fn csrs(&self) -> (&NeighborCsr, &NeighborCsr) {
        (&self.csr1, &self.csr2)
    }

    /// Builder with an explicit table cap — exposed for tests that force
    /// the on-the-fly fallback path.
    pub fn with_cap(csr1: NeighborCsr, csr2: NeighborCsr, c: f64, cap: usize) -> Self {
        let (cls1, vals1) = frequency_classes(csr1.lane_freq());
        let (cls2, vals2) = frequency_classes(csr2.lane_freq());
        let (nc1, nc2) = (vals1.len(), vals2.len());
        let tabulate = nc1 != 0 && nc2 != 0 && nc1.saturating_mul(nc2) <= cap;
        let (compat12, compat21) = if tabulate {
            let mut t12 = Vec::with_capacity(nc1 * nc2);
            for &fo in &vals1 {
                for &fi in &vals2 {
                    t12.push(compat(c, fo, fi));
                }
            }
            let mut t21 = Vec::with_capacity(nc1 * nc2);
            for &fo in &vals2 {
                for &fi in &vals1 {
                    t21.push(compat(c, fo, fi));
                }
            }
            (Some(t12), Some(t21))
        } else {
            (None, None)
        };
        let expand = match &compat12 {
            Some(t12) if nc1.saturating_mul(csr2.num_lanes()) <= cap => {
                let l2 = csr2.num_lanes();
                let mut ex = Vec::with_capacity(nc1 * l2);
                for a in 0..nc1 {
                    let row = &t12[a * nc2..][..nc2];
                    // Exact copies of the tabulated factors — the expanded
                    // array introduces no new rounding.
                    ex.extend(cls2.iter().map(|&b| row[b as usize]));
                }
                // The dense fill folds its maxima over `u64` bit patterns,
                // which matches `f64` ordering only for strictly
                // non-negative finite values (`-0.0` and `inf`/NaN bit
                // patterns would misorder or poison the fold). Real
                // frequencies always yield factors in `[0, c]`; an
                // anomalous input disables the dense substrate instead of
                // risking a divergent max.
                if ex.iter().all(|v| v.is_finite() && v.is_sign_positive()) {
                    Some(ex)
                } else {
                    None
                }
            }
            _ => None,
        };
        // Group side-1 lanes by source node (counting sort, one pass) and
        // record each lane's owner — both O(L1 + n1), used by the dense
        // fill to share gathered rows and scatter `t21` accumulations.
        let n1 = csr1.num_nodes();
        let src1 = csr1.lane_src();
        let mut by_src1_off = vec![0u32; n1 + 1];
        for &u in src1 {
            by_src1_off[u as usize + 1] += 1;
        }
        for u in 0..n1 {
            by_src1_off[u + 1] += by_src1_off[u];
        }
        let mut cursor = by_src1_off.clone();
        let mut by_src1_lane = vec![0u32; src1.len()];
        for (e1, &u) in src1.iter().enumerate() {
            let slot = &mut cursor[u as usize];
            by_src1_lane[*slot as usize] = e1 as u32;
            *slot += 1;
        }
        let mut owner1 = vec![0u32; csr1.num_lanes()];
        for v1 in 0..n1 {
            for e1 in csr1.lane_range(v1) {
                owner1[e1] = v1 as u32;
            }
        }
        // Node-level artificial-frequency classes, sharing the lane-class
        // machinery: `NaN` (no artificial neighbor) dedups to its own
        // class and tabulates to a 0.0 factor, exactly what the on-the-fly
        // expression yields.
        let af1: Vec<f64> = (0..n1).map(|v| csr1.art_freq(v)).collect();
        let af2: Vec<f64> = (0..csr2.num_nodes()).map(|v| csr2.art_freq(v)).collect();
        let (acls1, avals1) = frequency_classes(&af1);
        let (acls2, avals2) = frequency_classes(&af2);
        let art = if avals1.len().saturating_mul(avals2.len()) <= cap {
            let mut tab = Vec::with_capacity(avals1.len() * avals2.len());
            for &a1 in &avals1 {
                for &a2 in &avals2 {
                    tab.push(if a1.is_nan() || a2.is_nan() {
                        0.0
                    } else {
                        compat(c, a1, a2)
                    });
                }
            }
            Some(ArtTable {
                cls1: acls1,
                cls2: acls2,
                nc2: avals2.len(),
                tab,
            })
        } else {
            None
        };
        PairContext {
            csr1,
            csr2,
            cls1,
            cls2,
            nc1,
            nc2,
            compat12,
            compat21,
            expand,
            by_src1_off,
            by_src1_lane,
            owner1,
            art,
            c,
        }
    }

    /// Whether the `C`-tables were precomputed (vs on-the-fly fallback).
    #[cfg(test)]
    pub fn tabulated(&self) -> bool {
        self.compat12.is_some()
    }

    /// Whether the dense substrate is available for this problem: the
    /// expanded class-lane factors must exist and the two maxima arrays
    /// must fit the memory cap.
    pub fn dense_available(&self) -> bool {
        if self.expand.is_none() {
            return false;
        }
        let s12 = self.csr1.num_lanes().checked_mul(self.csr2.num_nodes());
        let s21 = self.csr1.num_nodes().checked_mul(self.csr2.num_lanes());
        match (s12, s21) {
            (Some(a), Some(b)) => a.checked_add(b).is_some_and(|t| t <= MAX_DENSE_ENTRIES),
            _ => false,
        }
    }

    /// Fills the substrate for an all-zero `prev` — the first iteration of
    /// every unseeded run. Every product `C · S_prev` is zero, so both
    /// tables are zeroed wholesale; one streaming store sweep instead of
    /// the full candidate fold.
    pub fn dense_fill_zero(&self, scratch: &mut DenseScratch) {
        let (n1, n2) = (self.csr1.num_nodes(), self.csr2.num_nodes());
        let (l1, l2) = (self.csr1.num_lanes(), self.csr2.num_lanes());
        scratch.t12.clear();
        scratch.t12.resize(l1 * n2, 0.0);
        scratch.t21.clear();
        scratch.t21.resize(n1 * l2, 0.0);
        scratch.zero = true;
    }

    /// Refreshes the dense substrate from `prev` (row-major `n1 × n2`).
    ///
    /// One pass over side-1 lanes *grouped by source node*: every lane
    /// with source `u` weights the same gathered row `g[j] =
    /// S_prev(u, src2(j))`, so the row is gathered once per source. Each
    /// lane then runs two vector passes over its candidates:
    ///
    /// - **Pass A** computes the products `p[j] = C · g[j]` into the
    ///   staging buffer and elementwise-maxes them into the owning node's
    ///   `t21` row (the owner's first lane stores outright — products are
    ///   non-negative, so a store equals a max against zero). The loop has
    ///   no segment boundaries, so it vectorizes over the full lane range.
    /// - **Pass B** reduces the staged products per side-2 node segment
    ///   into the lane's `t12` row via [`max_bits_lanes`] — a
    ///   [`LANE_WIDTH`]-blocked `u64` bit-pattern max.
    ///
    /// Each candidate is thus computed once and consumed twice, and both
    /// inner loops present the autovectorizer straight-line elementwise
    /// work. All maxima fold over `u64` bit patterns: the expanded
    /// factors are validated non-negative at build time and `prev` holds
    /// non-negative similarities (the engine gates dense mode on the
    /// seed), and for non-negative IEEE doubles unsigned bit order equals
    /// value order. The max of a non-negative set is the same bit pattern
    /// in any accumulation order — so both tables hold exactly the values
    /// the seed kernel's `>` scans would produce.
    pub fn dense_fill(&self, prev: &[f64], scratch: &mut DenseScratch) {
        let Some(ex) = self.expand.as_deref() else {
            // Guarded by `dense_available` — nothing to fill without the
            // expanded factors.
            return;
        };
        let (n1, n2) = (self.csr1.num_nodes(), self.csr2.num_nodes());
        let (l1, l2) = (self.csr1.num_lanes(), self.csr2.num_lanes());
        let src2 = self.csr2.lane_src();
        let DenseScratch {
            t12,
            t21,
            gather,
            prod,
            row_written,
            zero,
        } = scratch;
        *zero = false;
        t12.resize(l1 * n2, 0.0);
        t21.resize(n1 * l2, 0.0);
        gather.resize(l2, 0.0);
        prod.resize(l2, 0.0);
        row_written.clear();
        row_written.resize(n1, false);
        // Nodes with no lanes keep an all-zero `t21` row — the value every
        // inner max over an empty candidate set takes.
        for v1 in 0..n1 {
            if self.csr1.lane_range(v1).is_empty() {
                t21[v1 * l2..][..l2].fill(0.0);
            }
        }
        for u in 0..n1 {
            let group =
                &self.by_src1_lane[self.by_src1_off[u] as usize..self.by_src1_off[u + 1] as usize];
            if group.is_empty() {
                continue;
            }
            let row = &prev[u * n2..][..n2];
            for (g, &s) in gather.iter_mut().zip(src2) {
                *g = row[s as usize];
            }
            for &e1 in group {
                let e1 = e1 as usize;
                let ce = &ex[self.cls1[e1] as usize * l2..][..l2];
                let gat = &gather[..l2];
                let stage = &mut prod[..l2];
                let out12 = &mut t12[e1 * n2..][..n2];
                let v1o = self.owner1[e1] as usize;
                let out21 = &mut t21[v1o * l2..][..l2];
                let first = !row_written[v1o];
                row_written[v1o] = true;
                // Pass A: stage products, accumulate the swapped
                // orientation. Unsegmented — free to vectorize.
                if first {
                    for ((p, o), (&cf, &g)) in stage
                        .iter_mut()
                        .zip(out21.iter_mut())
                        .zip(ce.iter().zip(gat))
                    {
                        let v = cf * g;
                        *p = v;
                        *o = v;
                    }
                } else {
                    for ((p, o), (&cf, &g)) in stage
                        .iter_mut()
                        .zip(out21.iter_mut())
                        .zip(ce.iter().zip(gat))
                    {
                        let v = cf * g;
                        *p = v;
                        let s = *o;
                        *o = if v > s { v } else { s };
                    }
                }
                // Pass B: segmented horizontal max per side-2 node
                // (running offset — CSR segments tile the lane range in
                // order), lane-blocked inside each segment.
                let mut start = 0usize;
                for (v2, slot) in out12.iter_mut().enumerate() {
                    let end = start + self.csr2.lane_range(v2).len();
                    *slot = f64::from_bits(max_bits_lanes(&stage[start..end]));
                    start = end;
                }
            }
        }
    }

    /// Evaluates formula (1) for pair `(v1, v2)` against the previous
    /// matrix (`prev`, row-major `n1 × n2`) through the given substrate,
    /// blending the label similarity — the exact arithmetic of the seed
    /// kernel.
    #[inline]
    pub fn eval_pair(
        &self,
        prev: &[f64],
        eval: &PairEval<'_>,
        v1: usize,
        v2: usize,
        alpha: f64,
        label: f64,
    ) -> f64 {
        let (s12, s21) = match *eval {
            PairEval::Sparse { prev_t } => (
                self.one_side_sparse(prev, prev_t, v1, v2, false),
                self.one_side_sparse(prev, prev_t, v1, v2, true),
            ),
            PairEval::Dense { t12, t21, .. } => (
                self.one_side_dense(t12, t21, v1, v2, false),
                self.one_side_dense(t12, t21, v1, v2, true),
            ),
        };
        let value = alpha * (s12 + s21) / 2.0 + (1.0 - alpha) * label;
        value.clamp(0.0, 1.0)
    }

    /// The artificial-outer candidate: `S_prev(v^X, v^X) = 1`, so it
    /// contributes `C(f_o, f_i)` directly iff both sides have an
    /// artificial neighbor; all its other inner candidates carry
    /// `S_prev = 0` and cannot beat a max that starts at 0. `C` is
    /// symmetric in its frequency arguments, so one canonical `(v1, v2)`
    /// orientation serves both scan directions — usually via the
    /// class-pair table, falling back to the direct expression.
    #[inline]
    fn art_best(&self, v1: usize, v2: usize) -> f64 {
        if let Some(art) = &self.art {
            art.tab[art.cls1[v1] as usize * art.nc2 + art.cls2[v2] as usize]
        } else {
            let art_o = self.csr1.art_freq(v1);
            let art_i = self.csr2.art_freq(v2);
            if art_o.is_nan() || art_i.is_nan() {
                0.0
            } else {
                compat(self.c, art_o, art_i)
            }
        }
    }

    /// One-side similarity via the dense substrate: sum the materialized
    /// per-outer-lane maxima over the outer set, average.
    fn one_side_dense(&self, t12: &[f64], t21: &[f64], v1: usize, v2: usize, swap: bool) -> f64 {
        let (co, vo) = if swap {
            (&self.csr2, v2)
        } else {
            (&self.csr1, v1)
        };
        let entries = co.entries(vo);
        if entries.is_empty() {
            return 0.0;
        }
        let art_best = self.art_best(v1, v2);
        let mut sum = 0.0;
        if swap {
            let l2 = self.csr2.num_lanes();
            let row = &t21[v1 * l2..][..l2];
            for &ent in entries {
                // ems-lint: allow(float-taint, must stay bitwise identical to the reference oracle; O(deg) bounded terms in [0,1])
                sum += if ent == ARTIFICIAL_ENTRY {
                    art_best
                } else {
                    row[ent as usize]
                };
            }
        } else {
            let n2 = self.csr2.num_nodes();
            for &ent in entries {
                sum += if ent == ARTIFICIAL_ENTRY {
                    art_best
                } else {
                    t12[ent as usize * n2 + v2]
                };
            }
        }
        sum / entries.len() as f64
    }

    /// Row-oriented dense consume: pairs are processed in runs of
    /// consecutive `k` within one `v1` row, capped at [`DENSE_TILE`]
    /// columns so the accumulator tile and the `t12` rows it streams stay
    /// cache-resident across the whole `ents1` walk. Within a run the
    /// `s(v1, ·)` numerator accumulates entry rows of `t12` elementwise
    /// ([`add_assign_lanes`] — independent per-column adds in
    /// [`LANE_WIDTH`] blocks, in the same entry order as the pairwise
    /// scan sums) and all per-`v1` lookups hoist out of the inner loop.
    /// Retirement gaps and tile boundaries only shorten runs — a run of
    /// length 1 degenerates to exactly the pairwise evaluation.
    /// With `zero` (an all-zero substrate — the first iteration of an
    /// unseeded run), the table reads are skipped outright: every skipped
    /// term is `+ 0.0`, the bitwise identity on the non-negative
    /// accumulators, so only the artificial-entry terms remain.
    #[allow(clippy::too_many_arguments)]
    fn eval_chunk_dense(
        &self,
        prev: &[f64],
        t12: &[f64],
        t21: &[f64],
        zero: bool,
        labels: &LabelMatrix,
        alpha: f64,
        chunk: &[ActivePair],
        out: &mut Vec<f64>,
    ) -> f64 {
        let n2 = self.csr2.num_nodes();
        let l2 = self.csr2.num_lanes();
        out.clear();
        out.reserve(chunk.len());
        let mut delta = 0.0_f64;
        let mut idx = 0usize;
        while idx < chunk.len() {
            let k0 = chunk[idx].k as usize;
            let v1 = k0 / n2;
            let row_start = v1 * n2;
            let row_end = row_start + n2;
            let mut len = 1usize;
            while len < DENSE_TILE && idx + len < chunk.len() {
                let k = chunk[idx + len].k as usize;
                if k != k0 + len || k >= row_end {
                    break;
                }
                len += 1;
            }
            let v2_0 = k0 - row_start;
            let ents1 = self.csr1.entries(v1);
            let t21_row = &t21[v1 * l2..][..l2];
            let base = out.len();
            out.resize(base + len, 0.0);
            let acc = &mut out[base..base + len];
            for &ent in ents1 {
                if ent == ARTIFICIAL_ENTRY {
                    for (j, a) in acc.iter_mut().enumerate() {
                        *a += self.art_best(v1, v2_0 + j);
                    }
                } else if !zero {
                    let trow = &t12[ent as usize * n2 + v2_0..][..len];
                    add_assign_lanes(acc, trow);
                }
            }
            let len1 = ents1.len() as f64;
            for (j, a) in acc.iter_mut().enumerate() {
                let v2 = v2_0 + j;
                let s12 = if ents1.is_empty() { 0.0 } else { *a / len1 };
                let ents2 = self.csr2.entries(v2);
                let s21 = if ents2.is_empty() {
                    0.0
                } else if zero {
                    // An artificial entry is present iff the node has an
                    // artificial-edge frequency; every other term is 0.0.
                    if self.csr2.art_freq(v2).is_nan() {
                        0.0
                    } else {
                        self.art_best(v1, v2) / ents2.len() as f64
                    }
                } else {
                    let mut sum = 0.0;
                    for &ent in ents2 {
                        // ems-lint: allow(float-taint, must stay bitwise identical to the reference oracle; O(deg) bounded terms in [0,1])
                        sum += if ent == ARTIFICIAL_ENTRY {
                            self.art_best(v1, v2)
                        } else {
                            t21_row[ent as usize]
                        };
                    }
                    sum / ents2.len() as f64
                };
                let label = labels.get(v1, v2);
                let value = (alpha * (s12 + s21) / 2.0 + (1.0 - alpha) * label).clamp(0.0, 1.0);
                let k = row_start + v2;
                delta = delta.max((value - prev[k]).abs());
                *a = value;
            }
            idx += len;
        }
        delta
    }

    /// One-side similarity `s(v1, v2)` (or `s(v2, v1)` when `swap`) by
    /// direct per-pair scanning: for each outer neighbor, the best
    /// compatibility-weighted previous similarity over the inner
    /// neighbors, averaged over the outer set. Both orientations read
    /// stride-1 memory: the plain scan walks a row of `prev`, the swapped
    /// scan a row of the transpose.
    fn one_side_sparse(
        &self,
        prev: &[f64],
        prev_t: &[f64],
        v1: usize,
        v2: usize,
        swap: bool,
    ) -> f64 {
        let (co, ci, cls_o, cls_i, nc_i, table) = if swap {
            (
                &self.csr2,
                &self.csr1,
                &self.cls2,
                &self.cls1,
                self.nc1,
                self.compat21.as_deref(),
            )
        } else {
            (
                &self.csr1,
                &self.csr2,
                &self.cls1,
                &self.cls2,
                self.nc2,
                self.compat12.as_deref(),
            )
        };
        let (vo, vi) = if swap { (v2, v1) } else { (v1, v2) };
        let entries = co.entries(vo);
        if entries.is_empty() {
            return 0.0;
        }
        let art_best = self.art_best(v1, v2);
        let inner = ci.lane_range(vi);
        let inner_src = &ci.lane_src()[inner.clone()];
        let inner_cls = &cls_i[inner.clone()];
        let inner_freq = &ci.lane_freq()[inner.clone()];
        // The outer node indexes a row of `prev` (plain) or of the
        // transpose (swapped); either way the inner gather is stride-1
        // within that row.
        let (matrix, row_len) = if swap {
            (prev_t, self.csr1.num_nodes())
        } else {
            (prev, self.csr2.num_nodes())
        };
        let mut sum = 0.0;
        for &ent in entries {
            let best = if ent == ARTIFICIAL_ENTRY {
                art_best
            } else {
                let lane = ent as usize;
                let row = &matrix[co.lane_src()[lane] as usize * row_len..][..row_len];
                let mut best = 0.0_f64;
                match table {
                    Some(t) => {
                        let c_row = &t[cls_o[lane] as usize * nc_i..][..nc_i];
                        for (&cl, &src) in inner_cls.iter().zip(inner_src) {
                            let s_prev = row[src as usize];
                            if s_prev <= best {
                                // C < 1, so C * s_prev < s_prev ≤ best.
                                continue;
                            }
                            let cand = c_row[cl as usize] * s_prev;
                            if cand > best {
                                best = cand;
                            }
                        }
                    }
                    None => {
                        let f_o = co.lane_freq()[lane];
                        for (&f_i, &src) in inner_freq.iter().zip(inner_src) {
                            let s_prev = row[src as usize];
                            if s_prev <= best {
                                continue;
                            }
                            let cand = compat(self.c, f_o, f_i) * s_prev;
                            if cand > best {
                                best = cand;
                            }
                        }
                    }
                }
                best
            };
            // ems-lint: allow(float-taint, must stay bitwise identical to the reference oracle; O(deg) bounded terms in [0,1])
            sum += best;
        }
        sum / entries.len() as f64
    }
}

/// Evaluates one worklist chunk against `prev` through the given
/// substrate, writing the new values into `out` (cleared first, one slot
/// per chunk entry) and returning the chunk's maximum absolute delta.
/// Pure — safe to run on any shard layout.
///
/// The chunk must be ascending in `k` (worklists are built row-major and
/// only ever shrink in place, so every contiguous shard qualifies); that
/// lets the pair coordinates advance incrementally instead of paying an
/// integer division per pair.
pub(crate) fn eval_chunk(
    ctx: &PairContext,
    prev: &[f64],
    eval: &PairEval<'_>,
    labels: &LabelMatrix,
    alpha: f64,
    chunk: &[ActivePair],
    out: &mut Vec<f64>,
) -> f64 {
    if let PairEval::Dense { t12, t21, zero } = *eval {
        return ctx.eval_chunk_dense(prev, t12, t21, zero, labels, alpha, chunk, out);
    }
    let n2 = ctx.csr2.num_nodes();
    out.clear();
    out.reserve(chunk.len());
    let Some(first) = chunk.first() else {
        return 0.0;
    };
    let mut v1 = first.k as usize / n2;
    let mut row_end = (v1 + 1) * n2;
    let mut delta = 0.0_f64;
    for ap in chunk {
        let k = ap.k as usize;
        debug_assert!(k >= row_end - n2, "chunk must be ascending in k");
        while k >= row_end {
            v1 += 1;
            row_end += n2;
        }
        let v2 = k - (row_end - n2);
        let value = ctx.eval_pair(prev, eval, v1, v2, alpha, labels.get(v1, v2));
        delta = delta.max((value - prev[k]).abs());
        out.push(value);
    }
    delta
}

/// Writes the transpose of row-major `src` (`n1 × n2`) into `dst`
/// (`n2 × n1`) — exact copies, refreshed by the engine each iteration so
/// the sparse path's swapped scan orientation reads contiguous memory.
pub(crate) fn transpose_into(src: &[f64], n1: usize, n2: usize, dst: &mut [f64]) {
    debug_assert_eq!(src.len(), n1 * n2);
    debug_assert_eq!(dst.len(), n1 * n2);
    for v1 in 0..n1 {
        let row = &src[v1 * n2..][..n2];
        for (v2, &s) in row.iter().enumerate() {
            dst[v2 * n1 + v1] = s;
        }
    }
}

/// Resolves a thread-count knob: `0` means all available parallelism,
/// and an explicit request above host parallelism is clamped (unless
/// `oversubscribe` opts out) — extra workers on an already-full host only
/// add scheduling pressure; results are bit-identical at any width. A
/// clamp is reported so the caller can record the warning in
/// [`crate::stats::RunStats::thread_clamp`].
pub(crate) fn resolve_threads(knob: usize, oversubscribe: bool) -> (usize, Option<ThreadClamp>) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if knob == 0 {
        (host, None)
    } else if knob > host && !oversubscribe {
        (
            host,
            Some(ThreadClamp {
                requested: knob,
                clamped_to: host,
            }),
        )
    } else {
        (knob, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_depgraph::DependencyGraph;

    fn small_graphs() -> (DependencyGraph, DependencyGraph) {
        let g1 = DependencyGraph::from_parts(
            vec!["a".into(), "b".into(), "c".into()],
            vec![0.5, 1.0, 1.0],
            &[(0, 1, 0.5), (1, 2, 1.0)],
        );
        let g2 = DependencyGraph::from_parts(
            vec!["x".into(), "y".into()],
            vec![1.0, 0.7],
            &[(0, 1, 0.7)],
        );
        (g1, g2)
    }

    #[test]
    fn frequency_classes_deduplicate_by_bits() {
        let (lanes, classes) = frequency_classes(&[0.5, 1.0, 0.5, 0.25]);
        assert_eq!(lanes, vec![0, 1, 0, 2]);
        assert_eq!(classes, vec![0.5, 1.0, 0.25]);
        let (lanes, classes) = frequency_classes(&[]);
        assert!(lanes.is_empty() && classes.is_empty());
    }

    /// All three evaluation paths — dense substrate, sparse tabulated,
    /// sparse on-the-fly — must agree bitwise on every pair.
    #[test]
    fn all_eval_paths_are_bit_identical() {
        let (g1, g2) = small_graphs();
        let with = PairContext::new(g1.pre_csr(), g2.pre_csr(), 0.8);
        let without = PairContext::with_cap(g1.pre_csr(), g2.pre_csr(), 0.8, 0);
        assert!(with.tabulated());
        assert!(!without.tabulated());
        assert!(with.dense_available());
        assert!(!without.dense_available());
        let labels = LabelMatrix::zeros(3, 2);
        // A non-trivial previous matrix exercises the max scans.
        let prev = [0.9, 0.2, 0.35, 0.8, 0.05, 0.6];
        let mut prev_t = vec![0.0; 6];
        transpose_into(&prev, 3, 2, &mut prev_t);
        let sparse = PairEval::Sparse { prev_t: &prev_t };
        let mut scratch = DenseScratch::default();
        with.dense_fill(&prev, &mut scratch);
        let dense = PairEval::Dense {
            t12: &scratch.t12,
            t21: &scratch.t21,
            zero: false,
        };
        for v1 in 0..3 {
            for v2 in 0..2 {
                let label = labels.get(v1, v2);
                let a = with.eval_pair(&prev, &sparse, v1, v2, 1.0, label);
                let b = without.eval_pair(&prev, &sparse, v1, v2, 1.0, label);
                let c = with.eval_pair(&prev, &dense, v1, v2, 1.0, label);
                assert_eq!(a.to_bits(), b.to_bits(), "sparse paths at ({v1},{v2})");
                assert_eq!(a.to_bits(), c.to_bits(), "dense path at ({v1},{v2})");
            }
        }
    }

    #[test]
    fn compat_table_layouts_transpose_each_other() {
        let (g1, g2) = small_graphs();
        let ctx = PairContext::new(g1.pre_csr(), g2.pre_csr(), 0.8);
        let (t12, t21) = (ctx.compat12.unwrap(), ctx.compat21.unwrap());
        for c1 in 0..ctx.nc1 {
            for c2 in 0..ctx.nc2 {
                // C is symmetric in its frequency arguments, so the two
                // orientations must hold bitwise-equal values.
                assert_eq!(
                    t12[c1 * ctx.nc2 + c2].to_bits(),
                    t21[c2 * ctx.nc1 + c1].to_bits()
                );
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2 × 3
        let mut t = vec![0.0; 6];
        transpose_into(&src, 2, 3, &mut t);
        assert_eq!(t, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let mut back = vec![0.0; 6];
        transpose_into(&t, 3, 2, &mut back);
        assert_eq!(back.as_slice(), src.as_slice());
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        let (auto, clamp) = resolve_threads(0, false);
        assert!(auto >= 1);
        assert!(clamp.is_none(), "auto-width is never a clamp");
        // `0` means "all available parallelism" even with the escape hatch.
        assert_eq!(resolve_threads(0, true), (auto, None));
    }

    #[test]
    fn resolve_threads_clamps_oversubscription_and_reports_it() {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // At or below host parallelism: honored verbatim, no warning.
        assert_eq!(resolve_threads(1, false), (1, None));
        assert_eq!(resolve_threads(host, false), (host, None));
        // Above: clamped, and the clamp names both sides of the decision.
        let over = host + 7;
        assert_eq!(
            resolve_threads(over, false),
            (
                host,
                Some(ThreadClamp {
                    requested: over,
                    clamped_to: host,
                })
            )
        );
        // The opt-out spawns the requested width and reports nothing.
        assert_eq!(resolve_threads(over, true), (over, None));
    }
}
