//! Constraint-row construction for the systematic code.
//!
//! The intermediate block `C[0..L]` is pinned down by three row families
//! (RFC 6330 architecture):
//!
//! * **LDPC rows** (`S`, sparse binary): each source position `i` is folded
//!   into three LDPC accumulators by a circulant walk; row `j` also carries
//!   an identity 1 at column `K + j`. These give the peeling decoder cheap
//!   structure to chew on.
//! * **HDPC rows** (`H`, dense GF(256)): pseudo-random dense rows over the
//!   first `K + S` columns plus identity at `K + S + h`. Dense random rows
//!   over GF(256) are what make residual rank loss collapse by ~2⁻⁸ per
//!   extra received symbol — the steep failure curve the paper quotes
//!   ("n + 2 symbols ⇒ failure ≈ 10⁻⁶").
//! * **LT rows** (one per known encoding symbol, sparse binary): the
//!   systematic relation `LT(esi) = symbol value`.

use std::sync::{Arc, PoisonError, RwLock};

use crate::params::{BlockParams, H_HDPC};
use crate::rand::{hash2, rand};

/// The coefficient structure of one constraint row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowKind {
    /// Sparse row with all-ones coefficients at `cols` (indices into the
    /// intermediate block, each appearing once).
    Binary {
        /// Columns with coefficient 1.
        cols: Vec<u32>,
    },
    /// Dense GF(256) row; `coefs.len() == L`.
    Dense {
        /// Coefficient per intermediate column.
        coefs: Vec<u8>,
    },
}

/// A constraint row: coefficients plus right-hand-side symbol value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintRow {
    /// Coefficient structure.
    pub kind: RowKind,
    /// RHS symbol (`symbol_size` bytes). All-zero for precode constraints.
    pub value: Vec<u8>,
}

/// The three LDPC rows source column `i` is folded into: the circulant
/// triple-hit walk (RFC 5053 §5.4.2.3). `S >= 2` always, and for
/// `S == 2` the stride degenerates to 1, which is still fine. A row comes
/// up twice only if `S < 3`; over GF(2) a double hit cancels.
pub fn ldpc_walk(params: &BlockParams, i: usize) -> impl Iterator<Item = usize> {
    let s = params.s;
    let a = 1 + (i / s) % (s.saturating_sub(1).max(1));
    (0..3).map(move |n| (i % s + n * a) % s)
}

/// Column sets of the `S` LDPC constraint rows: row `j` holds its
/// identity column `K + j` plus the source columns folded into it. The
/// encoder and decoder stream these rows column by column instead
/// ([`ldpc_walk`]); the tests check them against this row form.
#[cfg(test)]
pub(crate) fn ldpc_cols(params: &BlockParams) -> Vec<Vec<u32>> {
    let k = params.k;
    let per_row = 3 * k / params.s + 2;
    let mut cols_per_row: Vec<Vec<u32>> = (0..params.s)
        .map(|j| {
            let mut row = Vec::with_capacity(per_row);
            row.push((k + j) as u32); // identity part
            row
        })
        .collect();
    for i in 0..k {
        for b in ldpc_walk(params, i) {
            let row = &mut cols_per_row[b];
            // A double hit cancels: toggle membership. Columns go in in
            // ascending order, so `i` can only be the row's last one.
            if row.last() == Some(&(i as u32)) {
                row.pop();
            } else {
                row.push(i as u32);
            }
        }
    }
    cols_per_row
}

/// Build the `S` LDPC constraint rows (zero RHS).
#[cfg(test)]
pub(crate) fn ldpc_rows(params: &BlockParams, symbol_size: usize) -> Vec<ConstraintRow> {
    ldpc_cols(params)
        .into_iter()
        .map(|cols| ConstraintRow {
            kind: RowKind::Binary { cols },
            value: vec![0; symbol_size],
        })
        .collect()
}

/// HDPC coefficients by column: entry `j < K+S` holds the coefficient of
/// intermediate column `j` in each of the `H` rows — the layout the
/// one-pass [`crate::hdpc::HdpcFold`] consumes. Row `h`'s identity 1 at
/// column `K+S+h` is implicit.
///
/// Coefficients come from the deterministic hash of the column's index
/// alone, not of `K`, so every block reads one table per process, grown
/// to the widest `K + S` asked for so far.
pub fn hdpc_columns(params: &BlockParams) -> HdpcColumns {
    assert_eq!(params.h, H_HDPC, "HDPC row count is fixed");
    let len = params.k + params.s;
    HdpcColumns {
        table: hdpc_table(len),
        len,
    }
}

/// The first `K + S` columns of the process's HDPC coefficient table;
/// see [`hdpc_columns`].
#[derive(Debug, Clone)]
pub struct HdpcColumns {
    table: Arc<Vec<[u8; H_HDPC]>>,
    len: usize,
}

impl std::ops::Deref for HdpcColumns {
    type Target = [[u8; H_HDPC]];

    fn deref(&self) -> &Self::Target {
        &self.table[..self.len]
    }
}

/// The table of at least `len` columns, growing it if it is shorter.
/// A grown table replaces the old one whole, so a reader never sees it
/// half-written, and blocks still holding the old one keep it.
fn hdpc_table(len: usize) -> Arc<Vec<[u8; H_HDPC]>> {
    static TABLE: RwLock<Option<Arc<Vec<[u8; H_HDPC]>>>> = RwLock::new(None);
    let read = TABLE.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(table) = read.as_ref().filter(|t| t.len() >= len) {
        return Arc::clone(table);
    }
    drop(read);
    let mut slot = TABLE.write().unwrap_or_else(PoisonError::into_inner);
    let have = slot.as_deref().map_or(&[][..], |t| &t[..]);
    if have.len() < len {
        let grown = have
            .iter()
            .copied()
            .chain((have.len()..len).map(hdpc_column))
            .collect();
        *slot = Some(Arc::new(grown));
    }
    Arc::clone(slot.as_ref().expect("at least `len` columns"))
}

/// Column `j`'s coefficient in each of the `H` HDPC rows.
fn hdpc_column(j: usize) -> [u8; H_HDPC] {
    std::array::from_fn(|h| rand(hash2(0x4844, h as u64), j as u64, 256) as u8) // 0x4844 = "HD"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared table holds what each block's own computation gives,
    /// in whatever order blocks ask: a prefix of it is the narrower
    /// block's columns.
    #[test]
    fn hdpc_table_equals_the_per_block_columns_for_any_k() {
        let per_block = |params: &BlockParams| -> Vec<[u8; H_HDPC]> {
            let seeds: [u64; H_HDPC] = std::array::from_fn(|h| hash2(0x4844, h as u64));
            (0..params.k + params.s)
                .map(|j| seeds.map(|seed| rand(seed, j as u64, 256) as u8))
                .collect()
        };
        let widest = hdpc_columns(&BlockParams::new(2913));
        for k in [1, 10, 365, 2913, 10] {
            let params = BlockParams::new(k);
            let columns = hdpc_columns(&params);
            assert_eq!(columns.len(), k + params.s, "K = {k}");
            assert_eq!(&columns[..], &per_block(&params)[..], "K = {k}");
            assert_eq!(&columns[..], &widest[..columns.len()], "K = {k}");
        }
    }
}
