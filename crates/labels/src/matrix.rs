//! Dense precomputed label-similarity matrices.

use crate::LabelSimilarity;

/// A dense `|A| × |B|` matrix of label similarities between two alphabets,
/// computed once up front so the iterative engine's inner loop never touches
//  strings.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl LabelMatrix {
    /// Computes the matrix for `names_a` × `names_b` under `measure`,
    /// through [`LabelSimilarity::similarity_matrix`].
    ///
    /// # Panics
    /// If the measure returns other than `|A| · |B|` values.
    pub fn compute<M, SA, SB>(names_a: &[SA], names_b: &[SB], measure: &M) -> Self
    where
        M: LabelSimilarity,
        SA: AsRef<str>,
        SB: AsRef<str>,
    {
        let a: Vec<&str> = names_a.iter().map(AsRef::as_ref).collect();
        let b: Vec<&str> = names_b.iter().map(AsRef::as_ref).collect();
        Self::from_raw(a.len(), b.len(), measure.similarity_matrix(&a, &b))
    }

    /// An all-zero matrix (structure-only matching).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        LabelMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from raw row-major data.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`. Use
    /// [`try_from_raw`](Self::try_from_raw) for untrusted data.
    pub fn from_raw(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "label matrix shape mismatch");
        LabelMatrix { rows, cols, data }
    }

    /// Non-panicking variant of [`from_raw`](Self::from_raw): returns a typed
    /// error when the data length disagrees with the declared shape.
    pub fn try_from_raw(
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    ) -> Result<Self, crate::LabelsError> {
        if data.len() != rows * cols {
            return Err(crate::LabelsError::ShapeMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(LabelMatrix { rows, cols, data })
    }

    /// The similarity at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Number of rows (size of alphabet A).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (size of alphabet B).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The raw row-major similarity data (serialization edge; round-trips
    /// through [`try_from_raw`](Self::try_from_raw)).
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine::QgramCosine;

    #[test]
    fn matrix_matches_pairwise_calls() {
        let a = ["Paid by Cash", "Ship Goods"];
        let b = ["Paid by Cash", "Delivery"];
        let m = LabelMatrix::compute(&a, &b, &QgramCosine::default());
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(0, 0), 1.0);
        assert!(m.get(1, 1) < 0.5);
    }

    #[test]
    fn zeros_matrix() {
        let m = LabelMatrix::zeros(3, 4);
        assert_eq!(m.get(2, 3), 0.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_raw_validates_shape() {
        let _ = LabelMatrix::from_raw(2, 2, vec![0.0; 3]);
    }
}
