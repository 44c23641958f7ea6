#![forbid(unsafe_code)]
//! Typographic (label) similarities for event names.
//!
//! The paper's similarity function (Definition 2) accepts an optional label
//! similarity `S^L(v1, v2)` weighted by `1 - α`. The evaluation uses
//! *cosine similarity with q-grams* (Gravano et al., WWW'03) as the
//! state-of-the-art string measure; this crate provides that plus the
//! classical alternatives used across the schema-matching literature:
//!
//! * [`qgram_cosine`] — cosine over q-gram multisets (the paper's choice),
//! * [`ExactName`] — strict string equality, the measure the catalog's
//!   sketch bound assumes (set-overlap caps only hold under equality),
//! * [`levenshtein`] / [`levenshtein_similarity`] — edit distance,
//! * [`jaro_winkler`] — prefix-boosted Jaro,
//! * [`token_jaccard`] — whitespace-token Jaccard,
//! * [`TfIdf`] — corpus-weighted token cosine,
//! * [`LabelMatrix`] — a precomputed dense matrix of label similarities for
//!   two alphabets, consumed by the similarity engine.
//!
//! All similarity functions return values in `[0, 1]`, are symmetric, and
//! give `1.0` exactly on equal inputs (property-tested).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod cosine;
mod edit;
mod error;
mod exact;
mod jaro;
mod matrix;
mod tfidf;
mod token;

pub use cosine::{qgram_cosine, qgram_profile, QgramCosine};
pub use edit::{levenshtein, levenshtein_similarity, Levenshtein};
pub use error::LabelsError;
pub use exact::ExactName;
pub use jaro::{jaro, jaro_winkler, JaroWinkler};
pub use matrix::LabelMatrix;
pub use tfidf::TfIdf;
pub use token::{token_jaccard, TokenJaccard};

/// A label similarity measure: maps two strings into `[0, 1]`.
pub trait LabelSimilarity {
    /// Computes the similarity of `a` and `b` in `[0, 1]`.
    fn similarity(&self, a: &str, b: &str) -> f64;

    /// The row-major `|A| × |B|` matrix of similarities, as
    /// [`LabelMatrix::compute`] stores it. The default calls
    /// [`similarity`](Self::similarity) cell by cell; a measure overrides
    /// it to share per-label work across cells, and must then return the
    /// same bits.
    fn similarity_matrix(&self, names_a: &[&str], names_b: &[&str]) -> Vec<f64> {
        cell_by_cell(self, names_a, names_b)
    }
}

/// The default [`LabelSimilarity::similarity_matrix`]: one
/// [`similarity`](LabelSimilarity::similarity) call per cell.
fn cell_by_cell<M: LabelSimilarity + ?Sized>(
    measure: &M,
    names_a: &[&str],
    names_b: &[&str],
) -> Vec<f64> {
    let mut data = Vec::with_capacity(names_a.len() * names_b.len());
    for a in names_a {
        for b in names_b {
            data.push(measure.similarity(a, b));
        }
    }
    data
}

/// The constant-zero similarity: used when matching must rely on structure
/// only (the paper's opaque-name experiments, Figure 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLabels;

impl LabelSimilarity for NoLabels {
    fn similarity(&self, _: &str, _: &str) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_labels_is_zero() {
        assert_eq!(NoLabels.similarity("a", "a"), 0.0);
    }
}
