//! AVX2 split-nibble GF(256) kernels.
//!
//! `c · x = c · (x & 15) ^ c · (x >> 4 << 4)`, so a coefficient's
//! products are two 16-entry tables ([`NIB`]), and `vpshufb` looks up 32
//! bytes in one of them per instruction. Each kernel runs whole 32-byte
//! chunks and hands a tail shorter than that to the table code in
//! [`super`], so every byte it writes equals the scalar result.
//!
//! This module is the crate's only `unsafe` code, of two kinds: calling
//! the `#[target_feature]` functions once [`Avx2::detect`] has seen the
//! feature, and the unaligned load and store of one 32-byte chunk.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi8, _mm256_set_epi64x,
    _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256, _mm256_xor_si256,
};

use super::{addmul_table, mul_slice_table, MUL_TABLE};

/// Split-nibble product tables: `NIB[c] = [c·i, c·(i << 4)]` for `i` in
/// `0..16`, the low- and high-nibble halves of `MUL_TABLE[c]`.
pub(super) static NIB: [[[u8; 16]; 2]; 256] = build_nib();

const fn build_nib() -> [[[u8; 16]; 2]; 256] {
    let mut table = [[[0u8; 16]; 2]; 256];
    let mut c = 0;
    while c < 256 {
        let mut i = 0;
        while i < 16 {
            table[c][0][i] = MUL_TABLE[c][i];
            table[c][1][i] = MUL_TABLE[c][i << 4];
            i += 1;
        }
        c += 1;
    }
    table
}

/// Proof that this host runs AVX2: the only way to reach the kernels.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// `Some` when the CPU has AVX2.
    pub(crate) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Self(()))
    }

    /// [`super::addmul`] for any `c`, `dst` and `src` of one length.
    pub(crate) fn addmul(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "symbol length mismatch");
        // SAFETY: `self` exists only once `detect` has seen AVX2.
        unsafe { addmul_avx2(dst, src, c) }
    }

    /// [`super::mul_slice`] for any `c`.
    pub(crate) fn mul_slice(self, dst: &mut [u8], c: u8) {
        // SAFETY: `self` exists only once `detect` has seen AVX2.
        unsafe { mul_slice_avx2(dst, c) }
    }

    /// Add `coefs[h] · symbol` of every column to row `h` of `rows`,
    /// which holds the rows back to back, each as long as a symbol.
    /// Each 32-byte chunk of the `N` columns is loaded once and then
    /// added to all rows.
    ///
    /// # Panics
    /// Panics if the symbols differ in length or are not whole 32-byte
    /// chunks, if a column does not have one coefficient per row, if
    /// there are more than 16 rows, or if `rows` is not
    /// `rows × symbol length` bytes.
    pub(crate) fn fold<const N: usize>(self, rows: &mut [u8], columns: [(&[u8], &[u8]); N]) {
        let Some(&(coefs, symbol)) = columns.first() else {
            return;
        };
        let (n_rows, width) = (coefs.len(), symbol.len());
        assert!(n_rows <= 16, "{n_rows} rows, at most 16 fold at once");
        assert!(width.is_multiple_of(32), "symbol of {width} bytes");
        assert_eq!(rows.len(), n_rows * width, "row buffer size mismatch");
        for (coefs, symbol) in columns {
            assert_eq!(coefs.len(), n_rows, "one coefficient per row");
            assert_eq!(symbol.len(), width, "symbol length mismatch");
        }
        // SAFETY: `self` exists only once `detect` has seen AVX2.
        unsafe { fold_avx2(rows, columns) }
    }
}

/// One 32-byte chunk into a register.
#[target_feature(enable = "avx2")]
#[inline]
fn load(chunk: &[u8; 32]) -> __m256i {
    // SAFETY: `chunk` is 32 readable bytes; `loadu` needs no alignment.
    unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) }
}

/// A register into one 32-byte chunk.
#[target_feature(enable = "avx2")]
#[inline]
fn store(chunk: &mut [u8; 32], v: __m256i) {
    // SAFETY: `chunk` is 32 writable bytes; `storeu` needs no alignment.
    unsafe { _mm256_storeu_si256(chunk.as_mut_ptr().cast(), v) }
}

/// `c`'s two nibble tables.
#[target_feature(enable = "avx2")]
#[inline]
fn nibble_tables(c: u8) -> [__m256i; 2] {
    let [lo, hi] = NIB[c as usize];
    [broadcast(lo), broadcast(hi)]
}

/// A 16-byte table in both 128-bit lanes, which `vpshufb` indexes apart.
#[target_feature(enable = "avx2")]
#[inline]
fn broadcast(table: [u8; 16]) -> __m256i {
    let [lo, hi] = [0, 8].map(|at| i64::from_le_bytes(table[at..at + 8].try_into().unwrap()));
    _mm256_set_epi64x(hi, lo, hi, lo)
}

/// A chunk's low and high nibbles, each in the low half of its byte.
#[target_feature(enable = "avx2")]
#[inline]
fn nibbles(x: __m256i) -> [__m256i; 2] {
    let mask = _mm256_set1_epi8(0x0f);
    [
        _mm256_and_si256(x, mask),
        _mm256_and_si256(_mm256_srli_epi16::<4>(x), mask),
    ]
}

/// `c · x` for the 32 bytes of `x`, given `c`'s nibble tables and `x`'s
/// nibbles.
#[target_feature(enable = "avx2")]
#[inline]
fn product([lo_tab, hi_tab]: [__m256i; 2], [lo, hi]: [__m256i; 2]) -> __m256i {
    _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_tab, lo),
        _mm256_shuffle_epi8(hi_tab, hi),
    )
}

#[target_feature(enable = "avx2")]
fn addmul_avx2(dst: &mut [u8], src: &[u8], c: u8) {
    let tabs = nibble_tables(c);
    let (dst32, dst_tail) = dst.as_chunks_mut::<32>();
    let (src32, src_tail) = src.as_chunks::<32>();
    for (d, s) in dst32.iter_mut().zip(src32) {
        let p = product(tabs, nibbles(load(s)));
        store(d, _mm256_xor_si256(load(d), p));
    }
    addmul_table(dst_tail, src_tail, c);
}

#[target_feature(enable = "avx2")]
fn mul_slice_avx2(dst: &mut [u8], c: u8) {
    let tabs = nibble_tables(c);
    let (dst32, tail) = dst.as_chunks_mut::<32>();
    for d in dst32 {
        store(d, product(tabs, nibbles(load(d))));
    }
    mul_slice_table(tail, c);
}

#[target_feature(enable = "avx2")]
fn fold_avx2<const N: usize>(rows: &mut [u8], columns: [(&[u8], &[u8]); N]) {
    let chunks = columns[0].1.len() / 32;
    // `tabs[h][n]`: the tables of row `h`'s coefficient in column `n`.
    let mut tabs = [[[_mm256_set1_epi8(0); 2]; N]; 16];
    for (n, (coefs, _)) in columns.iter().enumerate() {
        for (tabs, &c) in tabs.iter_mut().zip(*coefs) {
            tabs[n] = nibble_tables(c);
        }
    }
    let symbols = columns.map(|(_, symbol)| symbol.as_chunks::<32>().0);
    let rows = rows.as_chunks_mut::<32>().0;
    for j in 0..chunks {
        let x = symbols.map(|symbol| nibbles(load(&symbol[j])));
        for (row, tabs) in rows.chunks_exact_mut(chunks).zip(&tabs) {
            let acc = &mut row[j];
            let mut sum = load(acc);
            for (&tabs, x) in tabs.iter().zip(x) {
                sum = _mm256_xor_si256(sum, product(tabs, x));
            }
            store(acc, sum);
        }
    }
}
