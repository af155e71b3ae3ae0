//! One-pass accumulation of dense GF(256) rows: the `H` HDPC rows, and
//! the solver's dense rows.
//!
//! HDPC row `h` is `Σ_j coef[h][j] · C[j]` over the first `K + S`
//! intermediate columns. Computed row by row that is `H`
//! [`crate::gf256::addmul`] sweeps per column — every byte of the block
//! is read `H` times. [`HdpcFold`] does all rows (up to [`MAX_ROWS`]) in
//! one sweep, and takes its columns two at a time
//! ([`HdpcFold::fold_all`]), so each symbol byte is read once.
//!
//! On a CPU with AVX2 the sums live row by row and the split-nibble
//! kernel adds every whole 32-byte chunk of a column pair into all rows
//! at once: per chunk, two loads, then two `vpshufb` per row and column.
//!
//! Anywhere else, and for the last `symbol_size % 32` bytes, the rows'
//! products of one byte value fit the lanes of a `u128`: per column the
//! fold builds a 256-entry table of lane-packed products and then adds
//! the symbol in with **one** lookup and XOR per byte. The table costs
//! 8 × rows lookups for the basis entries `coef · 2^b` and one XOR for
//! each of the other 247 (multiplication distributes over GF(256)
//! addition: `c·(x ^ y) = c·x ^ c·y`).

use crate::gf256::{Avx2, MUL_TABLE};
use crate::params::H_HDPC;

/// Most rows one fold sums: one lane each in a `u128`.
pub const MAX_ROWS: usize = 16;

const _: () = assert!(H_HDPC <= MAX_ROWS, "one fold must hold every HDPC row");

/// Running sums of up to [`MAX_ROWS`] dense rows over symbols of one
/// size.
///
/// ```
/// use rq::hdpc::HdpcFold;
/// use rq::gf256;
/// let symbol = [1u8, 2, 3, 250];
/// let coefs = [7u8, 0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 200];
/// let mut fold = HdpcFold::new(coefs.len(), symbol.len());
/// fold.fold(&coefs, &symbol);
/// let mut row = [0u8; 4];
/// fold.write_row(11, &mut row);
/// assert_eq!(row, symbol.map(|x| gf256::mul(200, x)));
/// ```
pub struct HdpcFold {
    rows: usize,
    /// Bytes summed by the AVX2 kernel: the whole 32-byte chunks of a
    /// symbol with AVX2, none without.
    width: usize,
    avx2: Option<Avx2>,
    /// Bytes `0..width` of every row, row after row.
    head: Vec<u8>,
    /// Byte position `width + i` of every row: `tail[i]`, little-endian
    /// byte `h` is row `h`'s sum.
    tail: Vec<u128>,
    /// Product tables of the (up to two) columns being folded:
    /// `tabs[c][x]`, byte `h` = `coef_c[h] · x`. Entry 0 stays zero.
    tabs: [[u128; 256]; 2],
}

/// Fill `tab` with the lane-packed products of `coefs`.
fn product_table(tab: &mut [u128; 256], coefs: &[u8]) {
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
    /// All-zero sums of `rows` rows over symbols of `symbol_size` bytes.
    ///
    /// # Panics
    /// Panics if `rows > MAX_ROWS`.
    pub fn new(rows: usize, symbol_size: usize) -> Self {
        Self::with_kernel(rows, symbol_size, Avx2::detect())
    }

    /// [`HdpcFold::new`] with the AVX2 kernel or without it.
    pub(crate) fn with_kernel(rows: usize, symbol_size: usize, avx2: Option<Avx2>) -> Self {
        assert!(
            rows <= MAX_ROWS,
            "{rows} rows, at most {MAX_ROWS} fold at once"
        );
        let width = match avx2 {
            Some(_) => symbol_size - symbol_size % 32,
            None => 0,
        };
        Self {
            rows,
            width,
            avx2,
            head: vec![0; rows * width],
            tail: vec![0; symbol_size - width],
            tabs: [[0; 256]; 2],
        }
    }

    /// Add `coefs[h] · symbol` to row `h`'s sum, for every row at once.
    ///
    /// # Panics
    /// Panics if `symbol` is not `symbol_size` bytes long or `coefs` is
    /// not one coefficient per row.
    pub fn fold(&mut self, coefs: &[u8], symbol: &[u8]) {
        self.fold_columns([(coefs, symbol)]);
    }

    /// [`HdpcFold::fold`] over every `(coefficients, symbol)` column of
    /// `columns`, two columns per pass over the sums (a last odd column
    /// alone). The sums are XORs, so pairing changes no byte.
    ///
    /// # Panics
    /// Panics if a symbol is not `symbol_size` bytes long or a column is
    /// not one coefficient per row.
    pub fn fold_all<'a>(&mut self, columns: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) {
        let mut columns = columns.into_iter();
        while let Some(a) = columns.next() {
            match columns.next() {
                Some(b) => self.fold_columns([a, b]),
                None => self.fold_columns([a]),
            }
        }
    }

    fn fold_columns<const N: usize>(&mut self, columns: [(&[u8], &[u8]); N]) {
        let symbol_size = self.width + self.tail.len();
        for (coefs, symbol) in columns {
            assert_eq!(symbol.len(), symbol_size, "symbol length mismatch");
            assert_eq!(coefs.len(), self.rows, "one coefficient per row");
        }
        let width = self.width;
        if let Some(avx2) = self.avx2 {
            avx2.fold(
                &mut self.head,
                columns.map(|(coefs, s)| (coefs, &s[..width])),
            );
        }
        if self.tail.is_empty() {
            return;
        }
        for (tab, (coefs, _)) in self.tabs.iter_mut().zip(columns) {
            product_table(tab, coefs);
        }
        let [tab_a, tab_b] = &self.tabs;
        match columns.map(|(_, symbol)| &symbol[width..])[..] {
            [a] => {
                for (acc, &x) in self.tail.iter_mut().zip(a) {
                    *acc ^= tab_a[x as usize];
                }
            }
            [a, b] => {
                for ((acc, &x), &y) in self.tail.iter_mut().zip(a).zip(b) {
                    *acc ^= tab_a[x as usize] ^ tab_b[y as usize];
                }
            }
            _ => unreachable!("one or two columns per pass"),
        }
    }

    /// Write row `h`'s sum into `out` (`symbol_size` bytes).
    ///
    /// # Panics
    /// Panics if `h` is not a row or `out` is not `symbol_size` bytes
    /// long.
    pub fn write_row(&self, h: usize, out: &mut [u8]) {
        assert!(h < self.rows, "row {h} out of range");
        assert_eq!(
            out.len(),
            self.width + self.tail.len(),
            "symbol length mismatch"
        );
        let (head, tail) = out.split_at_mut(self.width);
        head.copy_from_slice(&self.head[h * self.width..][..self.width]);
        for (o, a) in tail.iter_mut().zip(&self.tail) {
            *o = (a >> (8 * h)) as u8;
        }
    }
}
