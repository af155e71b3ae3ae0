//! Arithmetic over GF(2^8).
//!
//! The field is constructed modulo the RFC 6330 polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`), with `α = 2` as the multiplicative
//! generator. Log/exp tables are generated at compile time so multiplication
//! is two table lookups and an addition.
//!
//! Besides scalar arithmetic this module provides the *symbol* operations
//! the codec is built from: XOR of whole symbols ([`xor_assign`]) and
//! multiply-accumulate / scaling over whole slices ([`addmul`],
//! [`mul_slice`]), which the encoder, the decoder's projections and the
//! solver spend their time in. Those three, and the dense-row fold behind
//! [`crate::hdpc::HdpcFold`], run on the fastest of four tiers the CPU
//! has, chosen at runtime (the private `avx2` module):
//!
//! 1. **GFNI on 64 bytes** (with AVX-512F and BW) and
//! 2. **GFNI on 32 bytes** — one `vgf2p8affineqb` per chunk, the
//!    coefficient as an 8×8 bit matrix (the `0x11D` field is not the
//!    instruction's own `0x11B`, so the affine form, not `vgf2p8mulb`);
//! 3. **AVX2** — split-nibble `vpshufb` lookups, two per 32-byte chunk;
//! 4. **tables** — anywhere else, and on a tail shorter than 32 bytes:
//!    one 256-byte row of a compile-time 64 KiB product table per
//!    coefficient, branchless in the per-byte loop (and `u64` words for
//!    XOR).
//!
//! All four give the same bytes.

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::Simd;

/// Stand-in for the vector kernels where the architecture has none:
/// [`Simd::detect`] never finds them, so no value of this type exists.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
pub(crate) enum Simd {}

#[cfg(not(target_arch = "x86_64"))]
impl Simd {
    pub(crate) fn detect() -> Option<Self> {
        None
    }

    #[cfg(test)]
    pub(crate) fn tiers() -> impl Iterator<Item = Self> {
        std::iter::empty()
    }

    pub(crate) fn addmul(self, _: &mut [u8], _: &[u8], _: u8) {
        match self {}
    }

    pub(crate) fn mul_slice(self, _: &mut [u8], _: u8) {
        match self {}
    }

    pub(crate) fn xor(self, _: &mut [u8], _: &[u8]) {
        match self {}
    }

    pub(crate) fn fold<const N: usize>(self, _: &mut [u8], _: [(&[u8], &[u8]); N]) {
        match self {}
    }
}

/// The reduction polynomial, `x^8 + x^4 + x^3 + x^2 + 1`, as the low 9 bits.
pub const POLY: u16 = 0x11D;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Exponent table: `EXP[i] = α^i` for `i` in `0..510`.
///
/// The table is doubled in length so `mul` can index `EXP[log a + log b]`
/// without a modular reduction.
pub static EXP: [u8; 510] = build_exp();

/// Log table: `LOG[x] = log_α x` for `x != 0`. `LOG[0]` is a sentinel (0)
/// and must never be used; all callers guard against zero operands.
pub static LOG: [u8; 256] = build_log();

/// Full 256×256 product table: `MUL_TABLE[a][b] = a · b`.
///
/// 64 KiB, built at compile time. The symbol-slice hot loops
/// ([`addmul`], [`mul_slice`]) index one *row* of this table, which turns
/// the per-byte work into a single data-dependent load and an XOR — no
/// zero-operand branch and no log-domain addition as with the
/// [`EXP`]/[`LOG`] pair. The row layout keeps the working set at 256
/// bytes (four cache lines) per coefficient, which is what lets the
/// compiler unroll the loop and the prefetcher keep up.
pub static MUL_TABLE: [[u8; 256]; 256] = build_mul_table();

const fn build_exp() -> [u8; 510] {
    let mut table = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

const fn build_mul_table() -> [[u8; 256]; 256] {
    let exp = build_exp();
    let log = build_log();
    let mut table = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let mut b = 1usize;
        while b < 256 {
            table[a][b] = exp[log[a] as usize + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// Multiply two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    MUL_TABLE[a as usize][b as usize]
}

/// Multiplicative inverse. Panics on zero (division by zero is a logic
/// error in the solver, not a runtime condition).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "gf256: inverse of zero");
    EXP[255 - LOG[a as usize] as usize]
}

/// Addition (= subtraction) in GF(2^8) is XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// XOR `src` into `dst` (symbol addition), 32 or 64 bytes per step
/// when the CPU has AVX2 or AVX-512 (the vector tiers of [`addmul`]).
/// Both slices must be the same length; this is an invariant of symbol
/// storage, so it is asserted.
#[inline]
pub fn xor_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "symbol length mismatch");
    match Simd::detect() {
        Some(simd) => simd.xor(dst, src),
        None => xor_words(dst, src),
    }
}

/// [`xor_assign`] `u64` by `u64`, the remainder byte by byte.
fn xor_words(dst: &mut [u8], src: &[u8]) {
    let (dst_words, dst_rest) = dst.as_chunks_mut::<8>();
    let (src_words, src_rest) = src.as_chunks::<8>();
    for (d, s) in dst_words.iter_mut().zip(src_words) {
        *d = (u64::from_ne_bytes(*d) ^ u64::from_ne_bytes(*s)).to_ne_bytes();
    }
    for (d, s) in dst_rest.iter_mut().zip(src_rest) {
        *d ^= s;
    }
}

/// Multiply-accumulate over whole symbol slices: `dst[i] ^= c · src[i]`.
///
/// `c == 0` is a no-op and `c == 1` degenerates to [`xor_assign`]; both
/// are common in the solver so they get dedicated paths. Any other `c` runs the GFNI or
/// AVX2 kernel when the CPU has one, else [`MUL_TABLE`] row `c` byte by
/// byte.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn addmul(dst: &mut [u8], src: &[u8], c: u8) {
    match c {
        0 => {}
        1 => xor_assign(dst, src),
        _ => {
            assert_eq!(dst.len(), src.len(), "symbol length mismatch");
            match Simd::detect() {
                Some(simd) => simd.addmul(dst, src, c),
                None => addmul_table(dst, src, c),
            }
        }
    }
}

/// [`addmul`] through one [`MUL_TABLE`] row: one data-dependent load and
/// an XOR per byte, no branch.
fn addmul_table(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL_TABLE[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// In-place symbol scaling: `dst[i] = c · dst[i]`, by the GFNI or AVX2
/// kernel when the CPU has one, like [`addmul`].
#[inline]
pub fn mul_slice(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => match Simd::detect() {
            Some(simd) => simd.mul_slice(dst, c),
            None => mul_slice_table(dst, c),
        },
    }
}

/// [`mul_slice`] through one [`MUL_TABLE`] row.
fn mul_slice_table(dst: &mut [u8], c: u8) {
    let row = &MUL_TABLE[c as usize];
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Independent scalar reference: carry-less "Russian peasant"
    /// multiplication modulo [`POLY`], sharing no code (and no tables)
    /// with the implementations under test.
    pub(crate) fn mul_ref(a: u8, b: u8) -> u8 {
        let mut acc: u16 = 0;
        let mut aa = u16::from(a);
        let mut bb = b;
        while bb != 0 {
            if bb & 1 != 0 {
                acc ^= aa;
            }
            aa <<= 1;
            if aa & 0x100 != 0 {
                aa ^= POLY;
            }
            bb >>= 1;
        }
        acc as u8
    }

    /// Deterministic byte stream for slice tests (no external RNG dep).
    pub(crate) fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn mul_table_matches_reference_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_ref(a, b), "mul({a},{b})");
                assert_eq!(
                    MUL_TABLE[a as usize][b as usize],
                    mul_ref(a, b),
                    "MUL_TABLE[{a}][{b}]"
                );
            }
        }
    }

    #[test]
    fn addmul_matches_reference_all_scalars() {
        // Every scalar, over a slice long enough to exercise unrolling.
        let src = bytes(0xA11CE, 257);
        let base = bytes(0xB0B, 257);
        for c in 0..=255u8 {
            let mut dst = base.clone();
            addmul(&mut dst, &src, c);
            for i in 0..src.len() {
                assert_eq!(dst[i], base[i] ^ mul_ref(c, src[i]), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn mul_slice_matches_reference_all_scalars() {
        let base = bytes(0xCAFE, 257);
        for c in 0..=255u8 {
            let mut dst = base.clone();
            mul_slice(&mut dst, c);
            for i in 0..base.len() {
                assert_eq!(dst[i], mul_ref(c, base[i]), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn addmul_length_edges() {
        // Empty slices, sub-word lengths, and word-boundary straddles —
        // the lengths where a chunked fast path would get its tail wrong.
        for len in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let src = bytes(len as u64 + 1, len);
            let base = bytes(len as u64 + 1000, len);
            for c in [0u8, 1, 2, 0x53, 0xFF] {
                let mut dst = base.clone();
                addmul(&mut dst, &src, c);
                for i in 0..len {
                    assert_eq!(dst[i], base[i] ^ mul_ref(c, src[i]), "len={len} c={c}");
                }
                let mut dst2 = base.clone();
                mul_slice(&mut dst2, c);
                for i in 0..len {
                    assert_eq!(dst2[i], mul_ref(c, base[i]), "len={len} c={c}");
                }
            }
        }
    }

    #[test]
    fn addmul_random_slices() {
        // Random (length, scalar, contents) triples, checked bytewise.
        let mut seed = 0x5EED_u64;
        for trial in 0..200 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let len = (seed >> 33) as usize % 200;
            let c = (seed >> 24) as u8;
            let src = bytes(seed ^ 0x1111, len);
            let base = bytes(seed ^ 0x2222, len);
            let mut dst = base.clone();
            addmul(&mut dst, &src, c);
            for i in 0..len {
                assert_eq!(
                    dst[i],
                    base[i] ^ mul_ref(c, src[i]),
                    "trial={trial} len={len} c={c} i={i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "symbol length mismatch")]
    fn addmul_length_mismatch_panics() {
        let mut dst = vec![0u8; 4];
        addmul(&mut dst, &[1u8; 5], 2);
    }

    #[test]
    fn exp_log_roundtrip() {
        for x in 1..=255u8 {
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
    }

    #[test]
    fn alpha_generates_field() {
        let mut seen = [false; 256];
        for i in 0..255 {
            seen[EXP[i] as usize] = true;
        }
        // α generates every nonzero element exactly once.
        assert!(!seen[0]);
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn mul_commutative_associative() {
        // Spot-check algebraic laws over a grid (exhaustive over pairs).
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul(b, a));
                assert_eq!(mul(a, 1), a);
                assert_eq!(mul(a, 0), 0);
            }
        }
        // Associativity on a coarser grid to keep the test fast.
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_law() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(9) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_law() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inverse_of_zero_panics() {
        inv(0);
    }

    #[test]
    fn xor_assign_all_lengths() {
        // Exercise the chunked fast path and the tail for many lengths.
        for len in 0..70 {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 53 + 7) as u8).collect();
            let mut d = a.clone();
            xor_assign(&mut d, &b);
            for i in 0..len as usize {
                assert_eq!(d[i], a[i] ^ b[i]);
            }
            // XOR is an involution.
            xor_assign(&mut d, &b);
            assert_eq!(d, a);
        }
    }

    #[test]
    fn addmul_matches_scalar() {
        let src: Vec<u8> = (0..100).map(|i| (i * 17) as u8).collect();
        for c in [0u8, 1, 2, 37, 255] {
            let mut dst: Vec<u8> = (0..100).map(|i| (i * 29 + 3) as u8).collect();
            let orig = dst.clone();
            addmul(&mut dst, &src, c);
            for i in 0..100 {
                assert_eq!(dst[i], orig[i] ^ mul(c, src[i]));
            }
        }
    }

    /// Slice lengths around the 32-byte vector chunk, plus the wire
    /// symbol and one byte past it. The kernel tests take their slices a
    /// few bytes into a buffer, so no kernel sees them aligned.
    pub(crate) const KERNEL_LENGTHS: [usize; 11] = [0, 1, 31, 32, 33, 63, 64, 65, 100, 1440, 1441];

    /// The kernels to test: the table code always, then every vector
    /// tier the CPU has (AVX2, GFNI).
    pub(crate) fn kernels() -> impl Iterator<Item = Option<Simd>> {
        [None].into_iter().chain(Simd::tiers().map(Some))
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn affine_matrices_match_reference() {
        // `vgf2p8affineqb` spelled out: bit `i` of the result is the
        // parity of `x` ANDed with byte `7 - i` of the matrix.
        let affine = |matrix: u64, x: u8| -> u8 {
            (0..8).fold(0, |acc, i| {
                let row = (matrix >> (8 * (7 - i))) as u8;
                acc | (((row & x).count_ones() & 1) as u8) << i
            })
        };
        for c in 0..=255u8 {
            for x in 0..=255u8 {
                assert_eq!(
                    affine(avx2::AFFINE[c as usize], x),
                    mul_ref(c, x),
                    "c={c} x={x}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn nibble_tables_match_reference() {
        for c in 0..=255u8 {
            for i in 0..16u8 {
                assert_eq!(
                    avx2::NIB[c as usize][0][i as usize],
                    mul_ref(c, i),
                    "c={c} i={i}"
                );
                assert_eq!(
                    avx2::NIB[c as usize][1][i as usize],
                    mul_ref(c, i << 4),
                    "c={c} i={i}"
                );
            }
        }
    }

    #[test]
    fn addmul_kernels_match_reference_at_unaligned_lengths() {
        for kernel in kernels() {
            for len in KERNEL_LENGTHS {
                let (src_buf, base_buf) =
                    (bytes(len as u64, 3 + len), bytes(!(len as u64), 1 + len));
                let (src, base) = (&src_buf[3..], &base_buf[1..]);
                for c in 0..=255u8 {
                    let mut dst_buf = base_buf.clone();
                    let dst = &mut dst_buf[1..];
                    match kernel {
                        Some(simd) => simd.addmul(dst, src, c),
                        None => addmul_table(dst, src, c),
                    }
                    for i in 0..len {
                        assert_eq!(
                            dst[i],
                            base[i] ^ mul_ref(c, src[i]),
                            "{kernel:?} len={len} c={c} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn xor_kernels_match_reference_at_unaligned_lengths() {
        for kernel in kernels() {
            for len in KERNEL_LENGTHS.into_iter().chain([95, 127, 128, 129]) {
                let (src_buf, base_buf) =
                    (bytes(len as u64, 3 + len), bytes(!(len as u64), 1 + len));
                let (src, base) = (&src_buf[3..], &base_buf[1..]);
                let mut dst_buf = base_buf.clone();
                let dst = &mut dst_buf[1..];
                match kernel {
                    Some(simd) => simd.xor(dst, src),
                    None => xor_words(dst, src),
                }
                for i in 0..len {
                    assert_eq!(dst[i], base[i] ^ src[i], "{kernel:?} len={len} i={i}");
                }
            }
        }
    }

    #[test]
    fn mul_slice_kernels_match_reference_at_unaligned_lengths() {
        for kernel in kernels() {
            for len in KERNEL_LENGTHS {
                let base_buf = bytes(len as u64 + 7, 5 + len);
                let base = &base_buf[5..];
                for c in 0..=255u8 {
                    let mut dst_buf = base_buf.clone();
                    let dst = &mut dst_buf[5..];
                    match kernel {
                        Some(simd) => simd.mul_slice(dst, c),
                        None => mul_slice_table(dst, c),
                    }
                    for i in 0..len {
                        assert_eq!(
                            dst[i],
                            mul_ref(c, base[i]),
                            "{kernel:?} len={len} c={c} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_kernels_match_reference_at_unaligned_lengths() {
        use crate::hdpc::{HdpcFold, MAX_ROWS};
        use crate::params::H_HDPC;
        // 16 columns × 16 rows: column j row h has coefficient 16·j + h,
        // so every scalar appears once. The 12-row fold takes the first
        // 12 coefficients of each column.
        for kernel in kernels() {
            for rows in [MAX_ROWS, H_HDPC] {
                for len in KERNEL_LENGTHS {
                    let buf: Vec<Vec<u8>> = (0..16)
                        .map(|j| bytes(j * 131 + len as u64, 2 + len))
                        .collect();
                    let columns: Vec<(Vec<u8>, &[u8])> = (0..16)
                        .map(|j| {
                            (
                                (0..rows).map(|h| (16 * j + h) as u8).collect(),
                                &buf[j][2..],
                            )
                        })
                        .collect();
                    let mut single = HdpcFold::with_kernel(rows, len, kernel);
                    for (coefs, symbol) in &columns {
                        single.fold(coefs, symbol);
                    }
                    let mut paired = HdpcFold::with_kernel(rows, len, kernel);
                    // 15 columns: seven pairs and a last one alone.
                    paired.fold_all(
                        columns[..15]
                            .iter()
                            .map(|(coefs, symbol)| (&coefs[..], *symbol)),
                    );
                    paired.fold(&columns[15].0, columns[15].1);
                    for h in 0..rows {
                        let expect: Vec<u8> = (0..len)
                            .map(|i| {
                                columns.iter().fold(0, |acc, (coefs, symbol)| {
                                    acc ^ mul_ref(coefs[h], symbol[i])
                                })
                            })
                            .collect();
                        let mut row = vec![0x5Au8; len + 1];
                        single.write_row(h, &mut row[1..]);
                        assert_eq!(row[1..], expect, "{kernel:?} rows={rows} len={len} row {h}");
                        paired.write_row(h, &mut row[1..]);
                        assert_eq!(
                            row[1..],
                            expect,
                            "{kernel:?} rows={rows} len={len} row {h}, paired"
                        );
                    }
                }
            }
        }
    }
}
