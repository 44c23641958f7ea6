//@ path: crates/depgraph/src/csr.rs
//! CSR reads with arithmetic indices and no validating constructor or
//! in-function length guard.

pub struct RowTable {
    offs: Vec<u32>,
    cols: Vec<u32>,
}

impl RowTable {
    fn row_span(&self, r: usize) -> (usize, usize) {
        let lo = self.offs[r] as usize;
        let hi = self.offs[r + 1] as usize; //~ index-bounds
        (lo, hi)
    }

    fn first_col(&self, r: usize) -> u32 {
        self.cols[self.offs[r] as usize] //~ index-bounds
    }
}

fn kth_col(cols: &[u32], off: u32) -> u32 {
    cols[off as usize] //~ index-bounds
}
