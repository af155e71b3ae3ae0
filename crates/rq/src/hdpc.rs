//! One-pass accumulation of the `H` dense HDPC rows.
//!
//! HDPC row `h` is `Σ_j coef[h][j] · C[j]` over the first `K + S`
//! intermediate columns. Computed row by row that is `H` table-lookup
//! [`crate::gf256::addmul`] sweeps per column — every byte of the block
//! is looked up `H` times. [`HdpcFold`] does all `H` rows in one sweep:
//! the `H = 12` products of one byte value fit the lanes of a `u128`, so
//! per column it builds a 256-entry table of lane-packed products and
//! then folds the symbol in with **one** lookup and XOR per byte.
//!
//! The table costs 8 × `H` lookups for the basis entries `coef · 2^b`
//! and one XOR for each of the other 247 (multiplication distributes
//! over GF(256) addition: `c·(x ^ y) = c·x ^ c·y`) — noise beside a
//! symbol of more than a few dozen bytes.
//!
//! What is left per byte is a load and a store of the 16-byte
//! accumulator lane, so [`HdpcFold::fold_all`] takes its columns two at
//! a time (`acc[i] ^= tab_a[a[i]] ^ tab_b[b[i]]`): half the accumulator
//! traffic for the same sums.

use crate::gf256::MUL_TABLE;
use crate::params::H_HDPC;

const _: () = assert!(H_HDPC <= 16, "one u128 must hold a lane per HDPC row");

/// Running sums of all `H` HDPC rows over symbols of one size.
///
/// ```
/// use rq::hdpc::HdpcFold;
/// use rq::gf256;
/// let symbol = [1u8, 2, 3, 250];
/// let coefs = [7u8, 0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 200];
/// let mut fold = HdpcFold::new(symbol.len());
/// fold.fold(&coefs, &symbol);
/// let mut row = [0u8; 4];
/// fold.write_row(11, &mut row);
/// assert_eq!(row, symbol.map(|x| gf256::mul(200, x)));
/// ```
pub struct HdpcFold {
    /// `acc[i]`, little-endian byte `h`: row `h`'s sum at byte position `i`.
    acc: Vec<u128>,
    /// Product tables of the (up to two) columns being folded:
    /// `tabs[c][x]`, byte `h` = `coef_c[h] · x`. Entry 0 stays zero.
    tabs: [[u128; 256]; 2],
}

/// Fill `tab` with the lane-packed products of `coefs`.
fn product_table(tab: &mut [u128; 256], coefs: &[u8; H_HDPC]) {
    for bit in 0..8 {
        let hi = 1usize << bit;
        let mut lanes = [0u8; 16];
        for (lane, &c) in lanes.iter_mut().zip(coefs) {
            *lane = MUL_TABLE[c as usize][hi];
        }
        tab[hi] = u128::from_le_bytes(lanes);
        for low in 1..hi {
            tab[hi | low] = tab[hi] ^ tab[low];
        }
    }
}

impl HdpcFold {
    /// All-zero sums over symbols of `symbol_size` bytes.
    pub fn new(symbol_size: usize) -> Self {
        Self {
            acc: vec![0; symbol_size],
            tabs: [[0; 256]; 2],
        }
    }

    /// Add `coefs[h] · symbol` to row `h`'s sum, for every row at once.
    ///
    /// # Panics
    /// Panics if `symbol` is not `symbol_size` bytes long.
    pub fn fold(&mut self, coefs: &[u8; H_HDPC], symbol: &[u8]) {
        assert_eq!(symbol.len(), self.acc.len(), "symbol length mismatch");
        let [tab, _] = &mut self.tabs;
        product_table(tab, coefs);
        for (a, &x) in self.acc.iter_mut().zip(symbol) {
            *a ^= tab[x as usize];
        }
    }

    /// [`HdpcFold::fold`] over every `(coefficients, symbol)` column of
    /// `columns`, two columns per pass over the sums (a last odd column
    /// alone). The sums are XORs, so pairing changes no byte.
    ///
    /// # Panics
    /// Panics if a symbol is not `symbol_size` bytes long.
    pub fn fold_all<'a>(
        &mut self,
        columns: impl IntoIterator<Item = (&'a [u8; H_HDPC], &'a [u8])>,
    ) {
        let mut columns = columns.into_iter();
        while let Some((coefs_a, a)) = columns.next() {
            let Some((coefs_b, b)) = columns.next() else {
                self.fold(coefs_a, a);
                return;
            };
            assert_eq!(a.len(), self.acc.len(), "symbol length mismatch");
            assert_eq!(b.len(), self.acc.len(), "symbol length mismatch");
            let [tab_a, tab_b] = &mut self.tabs;
            product_table(tab_a, coefs_a);
            product_table(tab_b, coefs_b);
            for ((acc, &x), &y) in self.acc.iter_mut().zip(a).zip(b) {
                *acc ^= tab_a[x as usize] ^ tab_b[y as usize];
            }
        }
    }

    /// Write row `h`'s sum into `out` (`symbol_size` bytes).
    ///
    /// # Panics
    /// Panics if `h >= H_HDPC` or `out` is not `symbol_size` bytes long.
    pub fn write_row(&self, h: usize, out: &mut [u8]) {
        assert!(h < H_HDPC, "HDPC row {h} out of range");
        assert_eq!(out.len(), self.acc.len(), "symbol length mismatch");
        for (o, a) in out.iter_mut().zip(&self.acc) {
            *o = (a >> (8 * h)) as u8;
        }
    }
}
