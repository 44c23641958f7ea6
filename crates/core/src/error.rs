//! Typed errors for the core matcher.

use std::fmt;

/// Errors returned by the fallible (`try_*`) core APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Parameter validation failed (see [`crate::EmsParams::validate`]).
    InvalidParams(String),
    /// A label matrix does not match the graphs' real node counts.
    LabelShapeMismatch {
        /// Label matrix rows.
        rows: usize,
        /// Label matrix columns.
        cols: usize,
        /// Real nodes of graph 1.
        n1: usize,
        /// Real nodes of graph 2.
        n2: usize,
    },
    /// A cached [`crate::substrate::EngineSubstrate`] does not fit the
    /// graphs/parameters it was asked to serve.
    SubstrateMismatch {
        /// What disagreed (shape, direction or damping constant).
        message: String,
    },
    /// A [`crate::session::LogHandle`] does not belong to the
    /// [`crate::session::MatchSession`].
    UnknownLog {
        /// The offending handle's index.
        handle: u32,
        /// Number of logs the session has ingested.
        logs: usize,
    },
    /// A durable snapshot's payload failed structural validation while
    /// being rehydrated (the envelope checksum passed, the content did
    /// not) — the entry must be quarantined and rebuilt from source.
    SnapshotDecode {
        /// What failed to decode.
        message: String,
    },
    /// A deterministic fault-injection plan fired a terminal fault at a
    /// pipeline stage boundary (chaos testing only; never in production).
    FaultInjected {
        /// The fault site's name.
        site: String,
        /// The fault kind's name.
        kind: String,
    },
    /// A [`crate::engine::Seed`] does not match the run's pair space.
    SeedShapeMismatch {
        /// Seed matrix rows.
        rows: usize,
        /// Seed matrix columns.
        cols: usize,
        /// Freeze mask length.
        mask: usize,
        /// Real nodes of graph 1.
        n1: usize,
        /// Real nodes of graph 2.
        n2: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParams(m) => write!(f, "invalid EMS parameters: {m}"),
            CoreError::LabelShapeMismatch { rows, cols, n1, n2 } => write!(
                f,
                "label matrix is {rows}x{cols} but the graphs have {n1}x{n2} real nodes"
            ),
            CoreError::SubstrateMismatch { message } => {
                write!(f, "cached substrate does not fit this run: {message}")
            }
            CoreError::UnknownLog { handle, logs } => {
                write!(
                    f,
                    "log handle {handle} is unknown (session has {logs} logs)"
                )
            }
            CoreError::SnapshotDecode { message } => {
                write!(f, "snapshot payload failed validation: {message}")
            }
            CoreError::FaultInjected { site, kind } => {
                write!(f, "injected {kind} fault at {site}")
            }
            CoreError::SeedShapeMismatch {
                rows,
                cols,
                mask,
                n1,
                n2,
            } => write!(
                f,
                "seed is {rows}x{cols} with a {mask}-pair freeze mask but the run is {n1}x{n2}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<CoreError> for ems_error::EmsError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::InvalidParams(message) => ems_error::EmsError::Params { message },
            e @ CoreError::SnapshotDecode { .. } => ems_error::EmsError::StoreCorrupt {
                path: String::new(),
                message: e.to_string(),
            },
            e @ CoreError::FaultInjected { .. } => ems_error::EmsError::Io {
                path: String::new(),
                message: e.to_string(),
            },
            e @ (CoreError::LabelShapeMismatch { .. }
            | CoreError::SeedShapeMismatch { .. }
            | CoreError::SubstrateMismatch { .. }
            | CoreError::UnknownLog { .. }) => ems_error::EmsError::Input {
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_error::EmsError;

    #[test]
    fn display_and_conversion() {
        let e = CoreError::InvalidParams("c must be in (0,1)".into());
        assert!(e.to_string().contains("c must be in (0,1)"));
        assert!(matches!(EmsError::from(e), EmsError::Params { .. }));
        let e = CoreError::LabelShapeMismatch {
            rows: 2,
            cols: 3,
            n1: 4,
            n2: 5,
        };
        assert!(e.to_string().contains("2x3"));
        assert!(matches!(EmsError::from(e), EmsError::Input { .. }));
        let e = CoreError::SeedShapeMismatch {
            rows: 1,
            cols: 1,
            mask: 2,
            n1: 1,
            n2: 1,
        };
        assert!(e.to_string().contains("freeze mask"));
        assert!(matches!(EmsError::from(e), EmsError::Input { .. }));
    }
}
