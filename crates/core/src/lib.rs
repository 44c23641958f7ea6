#![forbid(unsafe_code)]
//! Event Matching Similarity (EMS) — the core contribution of *Matching
//! Heterogeneous Event Data* (SIGMOD 2014).
//!
//! EMS is a SimRank-style structural similarity between the events of two
//! heterogeneous event logs, built to survive **opaque names** (no usable
//! labels), **dislocated traces** (only parts of traces correspond) and
//! **composite events** (m:n correspondences):
//!
//! * [`engine`] — the iterative fixpoint computation of the forward/backward
//!   similarity of Definition 2 (formula (1)), with early-convergence pruning
//!   (Proposition 2) and per-pair freezing for composite-step reuse
//!   (Proposition 4);
//! * [`estimate`] — the closed-form geometric estimation of Section 3.5
//!   (Algorithm 1), trading accuracy for an `O(|V1||V2|)` similarity at
//!   `I = 0`;
//! * [`bounds`] — similarity upper bounds (Lemma 5, Proposition 6,
//!   Corollary 7) that let the composite matcher abort hopeless candidates;
//! * `matcher` — the user-facing [`Ems`] API aggregating forward and
//!   backward similarities (Section 3.6);
//! * [`session`] — the staged, reusable pipeline: a [`SharedSession`]
//!   interns labels once and caches dependency graphs, [`substrate`]
//!   products, label matrices and outcomes by content fingerprint for the
//!   catalog and `ems serve`; a [`MatchSession`] is the handle layer over
//!   it that `ems match` uses, and warm-starts re-matches from prior
//!   fixpoints (Theorem 1);
//! * [`composite`] — SEQ-pattern candidate discovery and the greedy composite
//!   matcher of Algorithm 2 with both pruning techniques (Section 4);
//! * [`diagnostics`] — empirical estimation-error bounds, the investigation
//!   the paper's conclusion proposes as future work.
//!
//! # Quickstart
//!
//! ```
//! use ems_events::EventLog;
//! use ems_core::{Ems, EmsParams};
//!
//! let mut l1 = EventLog::new();
//! l1.push_trace(["Paid", "Check", "Ship"]);
//! l1.push_trace(["Paid", "Check", "Ship"]);
//! let mut l2 = EventLog::new();
//! // Same process, dislocated: an extra first step, opaque names.
//! l2.push_trace(["e0", "e1", "e2", "e3"]);
//!
//! let ems = Ems::new(EmsParams::structural());
//! let result = ems.match_logs(&l1, &l2);
//! let sim = &result.similarity;
//! // "Check" (2nd of 3) aligns best with "e2" (3rd of 4) structurally.
//! let check = l1.id_of("Check").unwrap().index();
//! assert!(sim.get(check, 2) >= sim.get(check, 1));
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bounds;
pub mod composite;
pub mod diagnostics;
pub mod engine;
mod error;
pub mod estimate;
mod kernel;
mod matcher;
pub mod numeric;
mod params;
pub mod persist;
pub mod session;
mod sim;
mod stats;
pub mod substrate;

pub use engine::{Budget, PhaseTimes, RunOptions, RunStats, ThreadClamp};
pub use error::CoreError;
pub use matcher::{Ems, MatchOutcome};
pub use params::{Aggregation, Direction, EmsParams, LabelMeasure, LabelSpace};
pub use session::{LogHandle, MatchSession, SessionOptions, SessionStats, SharedSession};
pub use sim::SimMatrix;
pub use substrate::EngineSubstrate;
