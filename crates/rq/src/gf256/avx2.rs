//! AVX2 and GFNI GF(256) kernels.
//!
//! Two ways to multiply a vector of bytes by a coefficient `c`:
//!
//! * **AVX2 split nibbles.** `c · x = c · (x & 15) ^ c · (x >> 4 << 4)`,
//!   so a coefficient's products are two 16-entry tables ([`NIB`]), and
//!   `vpshufb` looks up 32 bytes in one of them per instruction.
//! * **GFNI affine.** Multiplication by `c` is linear over GF(2), so it
//!   is an 8×8 bit matrix ([`AFFINE`]) and one `vgf2p8affineqb` applies
//!   it to 32 bytes, or to 64 with AVX-512BW. (The instruction's own
//!   multiply, `vgf2p8mulb`, is fixed to the AES polynomial `0x11B`; the
//!   affine form takes any field, here `0x11D`.)
//!
//! [`Simd::detect`] picks the widest tier the CPU runs: GFNI on 64-byte
//! registers, GFNI on 32-byte ones, else AVX2. Each kernel runs whole
//! chunks and hands a shorter tail to the next narrower code — in the
//! end the table code in [`super`] — so every byte it writes equals the
//! scalar result.
//!
//! This module and `rand`'s stream kernel are the crate's only `unsafe`
//! code, here of two kinds: calling the `#[target_feature]` functions
//! once [`Simd::detect`] has seen the features, and the unaligned load
//! and store of one 32- or 64-byte chunk.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256i, __m512i, _mm256_and_si256, _mm256_gf2p8affine_epi64_epi8, _mm256_loadu_si256,
    _mm256_set1_epi64x, _mm256_set1_epi8, _mm256_set_epi64x, _mm256_shuffle_epi8,
    _mm256_srli_epi16, _mm256_storeu_si256, _mm256_xor_si256, _mm512_castsi512_si256,
    _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512, _mm512_set1_epi64, _mm512_setzero_si512,
    _mm512_storeu_si512, _mm512_xor_si512,
};

use super::{addmul_table, mul_slice_table, xor_words, MUL_TABLE};

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

/// Bit matrices of multiplication by `c`, in `vgf2p8affineqb`'s layout:
/// bit `i` of the product is the parity of `x` ANDed with byte `7 - i`
/// of `AFFINE[c]`, whose bit `k` is bit `i` of `c · 2^k`.
pub(super) static AFFINE: [u64; 256] = build_affine();

const fn build_affine() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        let mut i = 0;
        while i < 8 {
            let mut row = 0u64;
            let mut k = 0;
            while k < 8 {
                row |= ((MUL_TABLE[c][1 << k] as u64 >> i) & 1) << k;
                k += 1;
            }
            table[c] |= row << (8 * (7 - i));
            i += 1;
        }
        c += 1;
    }
    table
}

/// The instruction set a kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// `vpshufb` on the split-nibble tables.
    Avx2,
    /// `vgf2p8affineqb` on the bit matrices, 32 bytes at a time.
    Gfni,
    /// The same on 64-byte registers (AVX-512F and BW).
    Gfni512,
}

/// Proof that this host runs its tier's features (AVX2; GFNI beside it;
/// AVX-512F and BW beside those): the only way to reach the kernels.
/// Only [`Simd::tiers`] makes one, after detecting them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Simd(Tier);

impl Simd {
    /// The fastest tier this host runs: GFNI on 64 bytes, GFNI on 32,
    /// then AVX2; `None` without AVX2.
    pub(crate) fn detect() -> Option<Self> {
        Self::tiers().next_back()
    }

    /// Every tier this host runs, slowest first: what [`Simd::detect`]
    /// picks from and the kernel tests sweep.
    pub(crate) fn tiers() -> impl DoubleEndedIterator<Item = Self> {
        let avx2 = is_x86_feature_detected!("avx2");
        let gfni = avx2 && is_x86_feature_detected!("gfni");
        let gfni512 =
            gfni && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
        [
            (avx2, Tier::Avx2),
            (gfni, Tier::Gfni),
            (gfni512, Tier::Gfni512),
        ]
        .into_iter()
        .filter_map(|(has, tier)| has.then_some(Self(tier)))
    }

    /// [`super::addmul`] for any `c`, `dst` and `src` of one length.
    pub(crate) fn addmul(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "symbol length mismatch");
        // SAFETY: `self` exists only once `tiers` has seen its tier's
        // features.
        unsafe {
            match self.0 {
                Tier::Avx2 => addmul_avx2(dst, src, c),
                Tier::Gfni => addmul_gfni(dst, src, c),
                Tier::Gfni512 => addmul_gfni512(dst, src, c),
            }
        }
    }

    /// [`super::xor_assign`]: `dst[i] ^= src[i]`.
    pub(crate) fn xor(self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "symbol length mismatch");
        // SAFETY: as in `addmul`.
        unsafe {
            match self.0 {
                Tier::Avx2 | Tier::Gfni => xor_avx2(dst, src),
                Tier::Gfni512 => xor_avx512(dst, src),
            }
        }
    }

    /// [`super::mul_slice`] for any `c`.
    pub(crate) fn mul_slice(self, dst: &mut [u8], c: u8) {
        // SAFETY: as in `addmul`.
        unsafe {
            match self.0 {
                Tier::Avx2 => mul_slice_avx2(dst, c),
                Tier::Gfni => mul_slice_gfni(dst, c),
                Tier::Gfni512 => mul_slice_gfni512(dst, c),
            }
        }
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
        // SAFETY: as in `addmul`.
        unsafe {
            match self.0 {
                Tier::Avx2 => fold_avx2(rows, columns),
                Tier::Gfni => fold_gfni(rows, columns),
                Tier::Gfni512 => fold_gfni512(rows, columns),
            }
        }
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

/// `c`'s bit matrix in every 64-bit lane.
#[target_feature(enable = "avx2,gfni")]
#[inline]
fn matrix(c: u8) -> __m256i {
    _mm256_set1_epi64x(AFFINE[c as usize] as i64)
}

/// `c · x` for the 32 bytes of `x`, given `c`'s bit matrix.
#[target_feature(enable = "avx2,gfni")]
#[inline]
fn affine(matrix: __m256i, x: __m256i) -> __m256i {
    _mm256_gf2p8affine_epi64_epi8::<0>(x, matrix)
}

/// One 64-byte chunk into a register.
#[target_feature(enable = "avx512f")]
#[inline]
fn load512(chunk: &[u8; 64]) -> __m512i {
    // SAFETY: `chunk` is 64 readable bytes; `loadu` needs no alignment.
    unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) }
}

/// A register into one 64-byte chunk.
#[target_feature(enable = "avx512f")]
#[inline]
fn store512(chunk: &mut [u8; 64], v: __m512i) {
    // SAFETY: `chunk` is 64 writable bytes; `storeu` needs no alignment.
    unsafe { _mm512_storeu_si512(chunk.as_mut_ptr().cast(), v) }
}

/// `c`'s bit matrix in every 64-bit lane of a 64-byte register.
#[target_feature(enable = "avx512f,avx512bw,gfni")]
#[inline]
fn matrix512(c: u8) -> __m512i {
    _mm512_set1_epi64(AFFINE[c as usize] as i64)
}

/// `c · x` for the 64 bytes of `x`, given `c`'s bit matrix.
#[target_feature(enable = "avx512f,avx512bw,gfni")]
#[inline]
fn affine512(matrix: __m512i, x: __m512i) -> __m512i {
    _mm512_gf2p8affine_epi64_epi8::<0>(x, matrix)
}

#[target_feature(enable = "avx2")]
fn xor_avx2(dst: &mut [u8], src: &[u8]) {
    let (dst32, dst_tail) = dst.as_chunks_mut::<32>();
    let (src32, src_tail) = src.as_chunks::<32>();
    for (d, s) in dst32.iter_mut().zip(src32) {
        store(d, _mm256_xor_si256(load(d), load(s)));
    }
    xor_words(dst_tail, src_tail);
}

#[target_feature(enable = "avx512f,avx2")]
fn xor_avx512(dst: &mut [u8], src: &[u8]) {
    let (dst64, dst_tail) = dst.as_chunks_mut::<64>();
    let (src64, src_tail) = src.as_chunks::<64>();
    for (d, s) in dst64.iter_mut().zip(src64) {
        store512(d, _mm512_xor_si512(load512(d), load512(s)));
    }
    xor_avx2(dst_tail, src_tail);
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

#[target_feature(enable = "avx2,gfni")]
fn addmul_gfni(dst: &mut [u8], src: &[u8], c: u8) {
    let m = matrix(c);
    let (dst32, dst_tail) = dst.as_chunks_mut::<32>();
    let (src32, src_tail) = src.as_chunks::<32>();
    for (d, s) in dst32.iter_mut().zip(src32) {
        store(d, _mm256_xor_si256(load(d), affine(m, load(s))));
    }
    addmul_table(dst_tail, src_tail, c);
}

#[target_feature(enable = "avx512f,avx512bw,avx2,gfni")]
fn addmul_gfni512(dst: &mut [u8], src: &[u8], c: u8) {
    let m = matrix512(c);
    let (dst64, dst_tail) = dst.as_chunks_mut::<64>();
    let (src64, src_tail) = src.as_chunks::<64>();
    for (d, s) in dst64.iter_mut().zip(src64) {
        store512(d, _mm512_xor_si512(load512(d), affine512(m, load512(s))));
    }
    addmul_gfni(dst_tail, src_tail, c);
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

#[target_feature(enable = "avx2,gfni")]
fn mul_slice_gfni(dst: &mut [u8], c: u8) {
    let m = matrix(c);
    let (dst32, tail) = dst.as_chunks_mut::<32>();
    for d in dst32 {
        store(d, affine(m, load(d)));
    }
    mul_slice_table(tail, c);
}

#[target_feature(enable = "avx512f,avx512bw,avx2,gfni")]
fn mul_slice_gfni512(dst: &mut [u8], c: u8) {
    let m = matrix512(c);
    let (dst64, tail) = dst.as_chunks_mut::<64>();
    for d in dst64 {
        store512(d, affine512(m, load512(d)));
    }
    mul_slice_gfni(tail, c);
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

#[target_feature(enable = "avx2,gfni")]
fn fold_gfni<const N: usize>(rows: &mut [u8], columns: [(&[u8], &[u8]); N]) {
    let chunks = columns[0].1.len() / 32;
    // `mats[h][n]`: the matrix of row `h`'s coefficient in column `n`.
    let mut mats = [[_mm256_set1_epi8(0); N]; 16];
    for (n, (coefs, _)) in columns.iter().enumerate() {
        for (mats, &c) in mats.iter_mut().zip(*coefs) {
            mats[n] = matrix(c);
        }
    }
    let symbols = columns.map(|(_, symbol)| symbol.as_chunks::<32>().0);
    let rows = rows.as_chunks_mut::<32>().0;
    for j in 0..chunks {
        let x = symbols.map(|symbol| load(&symbol[j]));
        for (row, mats) in rows.chunks_exact_mut(chunks).zip(&mats) {
            let acc = &mut row[j];
            let mut sum = load(acc);
            for (&m, &x) in mats.iter().zip(&x) {
                sum = _mm256_xor_si256(sum, affine(m, x));
            }
            store(acc, sum);
        }
    }
}

/// [`fold_gfni`] 64 bytes at a time; a symbol of an odd number of
/// 32-byte chunks has its last one folded on 32-byte registers, with
/// the low half of each matrix.
#[target_feature(enable = "avx512f,avx512bw,avx2,gfni")]
fn fold_gfni512<const N: usize>(rows: &mut [u8], columns: [(&[u8], &[u8]); N]) {
    let width = columns[0].1.len();
    if width == 0 {
        return;
    }
    // `mats[h][n]`: the matrix of row `h`'s coefficient in column `n`.
    let mut mats = [[_mm512_setzero_si512(); N]; 16];
    for (n, (coefs, _)) in columns.iter().enumerate() {
        for (mats, &c) in mats.iter_mut().zip(*coefs) {
            mats[n] = matrix512(c);
        }
    }
    let symbols = columns.map(|(_, symbol)| symbol.as_chunks::<64>());
    for j in 0..width / 64 {
        let x = symbols.map(|(symbol, _)| load512(&symbol[j]));
        for (row, mats) in rows.chunks_exact_mut(width).zip(&mats) {
            let acc = &mut row.as_chunks_mut::<64>().0[j];
            let mut sum = load512(acc);
            for (&m, &x) in mats.iter().zip(&x) {
                sum = _mm512_xor_si512(sum, affine512(m, x));
            }
            store512(acc, sum);
        }
    }
    if width.is_multiple_of(64) {
        return;
    }
    let x = symbols.map(|(_, last)| load(&last.as_chunks::<32>().0[0]));
    for (row, mats) in rows.chunks_exact_mut(width).zip(&mats) {
        let acc = &mut row.as_chunks_mut::<64>().1.as_chunks_mut::<32>().0[0];
        let mut sum = load(acc);
        for (&m, &x) in mats.iter().zip(&x) {
            sum = _mm256_xor_si256(sum, affine(_mm512_castsi512_si256(m), x));
        }
        store(acc, sum);
    }
}
