//! The precomputed, reusable kernel substrate of one `(g1, g2, direction)`
//! pair — the *substrate* stage of the pipeline.
//!
//! Building an engine used to fuse two costs: the per-pair work of the run
//! itself and the one-off derivation of the longest distances `l(v)`
//! (Proposition 2), the CSR neighbor export and the tabulated compatibility
//! factors of [`PairContext`]. [`EngineSubstrate`] owns that one-off product
//! so it can outlive any single [`crate::engine::Engine`]: the session
//! pipeline ([`crate::session::SharedSession`], and the
//! [`crate::session::MatchSession`] handle layer over it) caches substrates
//! by graph fingerprint and hands them to engines via `Arc`, turning a
//! re-match against an already-seen graph pair into pure solve work.

use crate::error::CoreError;
use crate::kernel::PairContext;
use crate::params::Direction;
use ems_depgraph::{
    longest_distances, longest_distances_backward, DependencyGraph, Distance, NeighborCsr,
};
use std::time::{Duration, Instant};

/// The immutable setup product of one `(g1, g2, direction, c)` combination:
/// longest distances for both graphs plus the [`PairContext`] kernel tables.
///
/// The substrate stores no references to the graphs it was built from;
/// consistency with the graphs an [`crate::engine::Engine`] later pairs it
/// with is checked structurally (shape, direction, damping constant).
#[derive(Debug)]
pub struct EngineSubstrate {
    direction: Direction,
    c: f64,
    n1: usize,
    n2: usize,
    pub(crate) l1: Vec<Distance>,
    pub(crate) l2: Vec<Distance>,
    pub(crate) ctx: PairContext,
    build_time: Duration,
}

impl EngineSubstrate {
    /// Builds the substrate for `direction` over `g1 × g2` with damping
    /// constant `c` (the `C ≤ c` of formula (1)).
    pub fn build(g1: &DependencyGraph, g2: &DependencyGraph, direction: Direction, c: f64) -> Self {
        // ems-lint: allow(wall-clock-randomness, build timing feeds setup telemetry only, never similarity values)
        let started = Instant::now();
        let (l1, l2) = match direction {
            Direction::Forward => (longest_distances(g1), longest_distances(g2)),
            Direction::Backward => (
                longest_distances_backward(g1),
                longest_distances_backward(g2),
            ),
        };
        let (csr1, csr2) = match direction {
            Direction::Forward => (g1.pre_csr(), g2.pre_csr()),
            Direction::Backward => (g1.post_csr(), g2.post_csr()),
        };
        let ctx = PairContext::new(csr1, csr2, c);
        let build_time = started.elapsed();
        EngineSubstrate {
            direction,
            c,
            n1: g1.num_real(),
            n2: g2.num_real(),
            l1,
            l2,
            ctx,
            build_time,
        }
    }

    /// Rebuilds a substrate from the parts a durable snapshot persists:
    /// the longest distances and the direction-resolved CSR exports. The
    /// kernel tables are re-derived deterministically from the CSRs and
    /// `c`, so a rehydrated substrate is bit-identical in behavior to the
    /// one originally built from the graphs. Shape disagreements between
    /// the distance vectors and the CSRs are rejected as
    /// [`CoreError::SnapshotDecode`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_saved_parts(
        direction: Direction,
        c: f64,
        n1: usize,
        n2: usize,
        l1: Vec<Distance>,
        l2: Vec<Distance>,
        csr1: NeighborCsr,
        csr2: NeighborCsr,
    ) -> Result<Self, CoreError> {
        let decode = |message: String| CoreError::SnapshotDecode { message };
        if csr1.num_nodes() != n1 || csr2.num_nodes() != n2 {
            return Err(decode(format!(
                "substrate CSRs cover {}x{} nodes but header says {n1}x{n2}",
                csr1.num_nodes(),
                csr2.num_nodes()
            )));
        }
        // Distances cover the artificial node too (one extra slot).
        if l1.len() != n1 + 1 || l2.len() != n2 + 1 {
            return Err(decode(format!(
                "substrate distances cover {}/{} nodes, want {}/{}",
                l1.len(),
                l2.len(),
                n1 + 1,
                n2 + 1
            )));
        }
        if !c.is_finite() || c <= 0.0 || c >= 1.0 {
            return Err(decode(format!("damping constant {c} outside (0, 1)")));
        }
        let ctx = PairContext::new(csr1, csr2, c);
        Ok(EngineSubstrate {
            direction,
            c,
            n1,
            n2,
            l1,
            l2,
            ctx,
            build_time: Duration::ZERO,
        })
    }

    /// The direction this substrate serves.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The damping constant the compatibility tables were built with.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Real-node count of graph 1 (similarity matrix rows).
    pub fn rows(&self) -> usize {
        self.n1
    }

    /// Real-node count of graph 2 (similarity matrix columns).
    pub fn cols(&self) -> usize {
        self.n2
    }

    /// Wall-clock time the build took — the `setup` phase cost this
    /// substrate represents, attributed once by whoever triggered the build.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The per-pair convergence bound `h = min(l(v1), l(v2))`
    /// (Proposition 2).
    pub(crate) fn pair_bound(&self, v1: usize, v2: usize) -> Distance {
        Distance::min(self.l1[v1], self.l2[v2])
    }
}
