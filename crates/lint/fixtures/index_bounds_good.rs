//@ path: crates/depgraph/src/csr.rs
//! The same CSR reads, dominated: a validating `from_parts` constructor
//! covers every self-field index, and the free function guards with an
//! explicit `len()` comparison.

pub struct RowTable {
    offs: Vec<u32>,
    cols: Vec<u32>,
}

pub enum RowTableError {
    NonMonotone,
    ColumnOutOfRange,
}

impl RowTable {
    /// Rejects non-monotone offsets and out-of-range columns, so the
    /// arithmetic reads below hold by construction.
    pub fn from_parts(offs: Vec<u32>, cols: Vec<u32>) -> Result<Self, RowTableError> {
        if offs.windows(2).any(|w| w[1] < w[0]) {
            return Err(RowTableError::NonMonotone);
        }
        if cols.iter().any(|&c| c as usize >= offs.len()) {
            return Err(RowTableError::ColumnOutOfRange);
        }
        Ok(RowTable { offs, cols })
    }

    fn row_span(&self, r: usize) -> (usize, usize) {
        let lo = self.offs[r] as usize;
        let hi = self.offs[r + 1] as usize;
        (lo, hi)
    }
}

/// Param indexing passes under an explicit length guard.
fn kth_col(cols: &[u32], off: u32) -> u32 {
    assert!((off as usize) < cols.len());
    cols[off as usize]
}

/// Plain single-binding indices are outside the rule.
fn head(cols: &[u32], k: usize) -> u32 {
    cols[k]
}
