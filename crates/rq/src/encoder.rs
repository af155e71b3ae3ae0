//! Systematic encoder for a single source block.

use crate::gf256;
use crate::hdpc::HdpcFold;
use crate::matrix::{hdpc_columns, hdpc_rows, ldpc_cols, ldpc_rows, lt_row, ConstraintRow};
use crate::params::{BlockParams, CodeMode};
use crate::solver::{solve, SolveError};
use crate::tuple::lt_columns_with_floor;

/// Everything a decoder must know to decode one block. Communicated
/// out-of-band (in Polyraptor: at session establishment), like RFC 6330's
/// object transmission information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeParams {
    /// Number of source symbols in the block.
    pub k: usize,
    /// Symbol size in bytes.
    pub symbol_size: usize,
    /// Length of the real data (the last symbol may carry zero padding).
    pub data_len: usize,
    /// Construction tweak: bumped (rarely) until the legacy systematic
    /// constraint matrix is invertible for this `k`. Always 0 in
    /// [`CodeMode::Systematic`] — the direct construction cannot fail.
    pub tweak: u8,
    /// Intermediate-block construction mode; encoder and decoder must
    /// agree, so it travels with the block parameters.
    pub mode: CodeMode,
}

impl CodeParams {
    /// The parameters [`Encoder::new`] reports for `data_len` bytes cut
    /// into `symbol_size`-byte symbols, by arithmetic alone: the direct
    /// [`CodeMode::Systematic`] construction cannot fail, so its tweak is
    /// always 0 and a receiver can set up its decoder without an
    /// encoder. ([`CodeMode::Legacy`] parameters need the solve — only
    /// [`Encoder::params`] knows the tweak.)
    pub fn systematic(data_len: usize, symbol_size: usize) -> Result<Self, EncodeError> {
        assert!(symbol_size > 0, "symbol size must be positive");
        if data_len == 0 {
            return Err(EncodeError::EmptyData);
        }
        let k = data_len.div_ceil(symbol_size);
        if k > crate::params::MAX_K {
            return Err(EncodeError::BlockTooLarge { k });
        }
        Ok(Self {
            k,
            symbol_size,
            data_len,
            tweak: 0,
            mode: CodeMode::Systematic,
        })
    }
}

/// Errors from encoder construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The input was empty; a block must carry at least one byte.
    EmptyData,
    /// `k` would exceed [`crate::params::MAX_K`]; split the object into
    /// blocks (see [`crate::block`]).
    BlockTooLarge {
        /// The number of source symbols the data would need.
        k: usize,
    },
    /// No construction tweak in `0..=255` produced an invertible matrix.
    /// Practically unreachable (each attempt fails with probability
    /// ~2⁻⁹⁶); kept as an honest error path instead of a panic.
    ConstructionFailed,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::EmptyData => write!(f, "cannot encode an empty block"),
            EncodeError::BlockTooLarge { k } => {
                write!(
                    f,
                    "block needs K={k} symbols, above MAX_K; use ObjectEncoder"
                )
            }
            EncodeError::ConstructionFailed => {
                write!(f, "no construction tweak yields an invertible matrix")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Systematic rateless encoder for one source block.
///
/// Encoding symbols are addressed by *encoding symbol id* (ESI):
/// `esi < k` returns the source symbols themselves (the systematic part —
/// in Polyraptor these flow first so a lossless transfer pays zero decode
/// latency); `esi >= k` returns repair symbols, of which there are
/// effectively unlimited (`u32` space).
///
/// In the default [`CodeMode::Systematic`] mode construction is solve-free
/// (the intermediates are source plus directly-computed parity);
/// [`Encoder::legacy`] keeps the original solve-based construction for A/B
/// comparison. Either way the intermediate precompute happens once here
/// and is reused across every repair symbol.
///
/// ```
/// use rq::Encoder;
/// let data = vec![7u8; 4000];
/// let enc = Encoder::new(&data, 1440).unwrap();
/// assert_eq!(enc.params().k, 3);
/// let src0 = enc.symbol(0); // first source symbol
/// assert_eq!(&src0[..], &data[..1440]);
/// let repair = enc.symbol(12345); // any repair symbol, on demand
/// assert_eq!(repair.len(), 1440);
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    params: BlockParams,
    code: CodeParams,
    /// The `L` intermediate symbols, back to back (`L · T` bytes). In
    /// [`CodeMode::Systematic`] the first `K · T` bytes are the
    /// zero-padded source itself.
    block: Vec<u8>,
}

impl Encoder {
    /// Build an encoder over `data` with the given symbol size, in the
    /// default [`CodeMode::Systematic`] mode (direct parity construction,
    /// no solve).
    pub fn new(data: &[u8], symbol_size: usize) -> Result<Self, EncodeError> {
        Self::with_mode(data, symbol_size, CodeMode::Systematic)
    }

    /// Build an encoder in the solve-based [`CodeMode::Legacy`] mode —
    /// kept for A/B comparison against the systematic fast path.
    pub fn legacy(data: &[u8], symbol_size: usize) -> Result<Self, EncodeError> {
        Self::with_mode(data, symbol_size, CodeMode::Legacy)
    }

    /// Build an encoder over `data` in an explicit mode.
    pub fn with_mode(data: &[u8], symbol_size: usize, mode: CodeMode) -> Result<Self, EncodeError> {
        let code = CodeParams::systematic(data.len(), symbol_size)?;
        let params = BlockParams::new(code.k);
        match mode {
            // Direct construction: no solve, no tweak, cannot fail.
            CodeMode::Systematic => Ok(Self {
                params,
                code,
                block: Self::systematic_block(&params, data, symbol_size),
            }),
            CodeMode::Legacy => {
                // Find a construction tweak that makes the systematic
                // matrix invertible. Attempt 0 works essentially always.
                for tweak in 0u8..=255 {
                    match Self::derive_intermediates(&params, tweak, data, symbol_size) {
                        Ok(intermediates) => {
                            return Ok(Self {
                                params,
                                code: CodeParams {
                                    tweak,
                                    mode,
                                    ..code
                                },
                                block: intermediates.concat(),
                            });
                        }
                        Err(SolveError::Singular) => continue,
                    }
                }
                Err(EncodeError::ConstructionFailed)
            }
        }
    }

    /// Direct systematic construction: the intermediate block is
    /// `[source | LDPC parity | HDPC parity]` in one `L · T` buffer, each
    /// parity symbol computed straight from its constraint row — two
    /// streaming passes over the block instead of an `L×L` inactivation
    /// solve.
    ///
    /// This works because the precode rows are triangular over the parity
    /// columns: LDPC row `j` touches only source columns plus its identity
    /// column `K+j`, and HDPC row `h` touches columns `[0, K+S)` plus its
    /// identity column `K+S+h` — so each parity symbol is determined by
    /// columns constructed before it.
    fn systematic_block(params: &BlockParams, data: &[u8], t: usize) -> Vec<u8> {
        let k = params.k;
        let mut block = vec![0u8; params.l * t];
        block[..data.len()].copy_from_slice(data);
        let (source, parity) = block.split_at_mut(k * t);
        let (ldpc, hdpc) = parity.split_at_mut(params.s * t);
        // LDPC parity: row j is `C[k+j] + XOR(source cols) = 0`.
        for (cols, sym) in ldpc_cols(params).iter().zip(ldpc.chunks_exact_mut(t)) {
            debug_assert_eq!(
                cols.iter().filter(|&&col| col as usize >= k).count(),
                1,
                "LDPC row must touch exactly one parity column (its identity)"
            );
            for &col in cols.iter().filter(|&&col| (col as usize) < k) {
                gf256::xor_assign(sym, &source[col as usize * t..][..t]);
            }
        }
        // HDPC parity: row h is `C[ks+h] + Σ coef_j · C[j] = 0` over
        // `j < K+S`, all of which are already constructed.
        let mut fold = HdpcFold::new(t);
        let constructed = source.chunks_exact(t).chain(ldpc.chunks_exact(t));
        for (coefs, sym) in hdpc_columns(params, 0).iter().zip(constructed) {
            fold.fold(coefs, sym);
        }
        for (h, sym) in hdpc.chunks_exact_mut(t).enumerate() {
            fold.write_row(h, sym);
        }
        block
    }

    /// Solve the L×L systematic system: precode constraints plus the LT
    /// rows of ESIs `0..k` pinned to the (zero-padded) source symbols.
    fn derive_intermediates(
        params: &BlockParams,
        tweak: u8,
        data: &[u8],
        symbol_size: usize,
    ) -> Result<Vec<Vec<u8>>, SolveError> {
        let mut rows: Vec<ConstraintRow> = Vec::with_capacity(params.s + params.h + params.k);
        rows.extend(ldpc_rows(params, symbol_size));
        rows.extend(hdpc_rows(params, tweak, symbol_size));
        for (i, chunk) in data.chunks(symbol_size).enumerate() {
            let mut sym = chunk.to_vec();
            sym.resize(symbol_size, 0);
            rows.push(lt_row(params, tweak, i as u32, sym));
        }
        solve(params.l, rows, symbol_size)
    }

    /// The decoder-facing parameters of this block.
    pub fn params(&self) -> CodeParams {
        self.code
    }

    /// The internal block parameters (L, S, H, ...); exposed for tests and
    /// instrumentation.
    pub fn block_params(&self) -> BlockParams {
        self.params
    }

    /// Intermediate symbol `c` of the block.
    fn intermediate(&self, c: usize) -> &[u8] {
        let t = self.code.symbol_size;
        &self.block[c * t..][..t]
    }

    /// Produce encoding symbol `esi`.
    ///
    /// Systematic source symbols (`esi < k`) are copied out of the block;
    /// everything else is LT-encoded from the intermediates on demand
    /// (cost: mean-degree ≈ 4.6 symbol XORs, independent of `k`) — in
    /// [`CodeMode::Legacy`] that includes the source symbols, which the
    /// solve pinned to their LT relation.
    pub fn symbol(&self, esi: u32) -> Vec<u8> {
        if (esi as usize) < self.code.k && self.code.mode == CodeMode::Systematic {
            self.intermediate(esi as usize).to_vec()
        } else {
            self.lt_encode(esi)
        }
    }

    /// LT-encode any ESI from the intermediates.
    ///
    /// In [`CodeMode::Legacy`] this satisfies the solve-enforced property
    /// `lt_encode(i) == source[i]` for `i < k` (confirmed by tests). In
    /// [`CodeMode::Systematic`] it is only meaningful for repair ESIs —
    /// source symbols are emitted verbatim, not via the LT relation.
    pub fn lt_encode(&self, esi: u32) -> Vec<u8> {
        let min_d = match self.code.mode {
            CodeMode::Systematic => crate::params::sys_repair_min_degree(self.params.l),
            CodeMode::Legacy => 0,
        };
        let cols = lt_columns_with_floor(&self.params, self.code.tweak, esi, min_d);
        let mut out = vec![0u8; self.code.symbol_size];
        for c in cols {
            gf256::xor_assign(&mut out, self.intermediate(c as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RowKind;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8).collect()
    }

    /// The systematic intermediates built symbol by symbol, one
    /// `xor_assign` / `addmul` per (row, column) — the construction
    /// [`Encoder::systematic_block`] must stay byte-equal to.
    fn reference_intermediates(data: &[u8], t: usize) -> Vec<Vec<u8>> {
        let params = BlockParams::new(data.len().div_ceil(t));
        let mut c: Vec<Vec<u8>> = data
            .chunks(t)
            .map(|chunk| {
                let mut sym = chunk.to_vec();
                sym.resize(t, 0);
                sym
            })
            .collect();
        for row in ldpc_rows(&params, t) {
            let RowKind::Binary { cols } = row.kind else {
                unreachable!("LDPC rows are binary")
            };
            let mut sym = vec![0u8; t];
            for col in cols.into_iter().filter(|&col| (col as usize) < params.k) {
                gf256::xor_assign(&mut sym, &c[col as usize]);
            }
            c.push(sym);
        }
        for row in hdpc_rows(&params, 0, t) {
            let RowKind::Dense { coefs } = row.kind else {
                unreachable!("HDPC rows are dense")
            };
            let mut sym = vec![0u8; t];
            for (j, &coef) in coefs.iter().enumerate().take(params.k + params.s) {
                gf256::addmul(&mut sym, &c[j], coef);
            }
            c.push(sym);
        }
        c
    }

    #[test]
    fn block_and_symbols_match_the_reference_construction() {
        // K = 365 is the 512 KiB benchmark object, 2913 the paper's 4 MB.
        for (k, t) in [
            (1usize, 24usize),
            (2, 24),
            (7, 17),
            (40, 16),
            (313, 24),
            (365, 1440),
            (2913, 40),
        ] {
            let d = data(k * t - t / 3);
            let enc = Encoder::new(&d, t).unwrap();
            let reference = reference_intermediates(&d, t);
            assert_eq!(enc.block, reference.concat(), "K={k}: intermediates");
            let floor = crate::params::sys_repair_min_degree(enc.params.l);
            for esi in (0..k as u32 + 64).chain([1 << 20, u32::MAX]) {
                let expect = if (esi as usize) < k {
                    reference[esi as usize].clone()
                } else {
                    let mut sym = vec![0u8; t];
                    for col in lt_columns_with_floor(&enc.params, 0, esi, floor) {
                        gf256::xor_assign(&mut sym, &reference[col as usize]);
                    }
                    sym
                };
                assert_eq!(enc.symbol(esi), expect, "K={k}: symbol {esi}");
            }
        }
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // FNV-1a over symbols 0..K+64 of one fixed object, recorded from
        // the row-by-row encoder this one replaced. The wire bytes are a
        // contract between independently built senders and receivers: a
        // kernel change that moves this hash has changed them.
        let hash = |enc: &Encoder| {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for esi in 0..enc.params().k as u32 + 64 {
                for b in enc.symbol(esi) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            h
        };
        let d = data(313 * 24 - 7);
        assert_eq!(hash(&Encoder::new(&d, 24).unwrap()), 0x9C61_26FC_CAA5_5A7C);
        assert_eq!(
            hash(&Encoder::legacy(&d, 24).unwrap()),
            0xE8BF_0840_030C_AF20
        );
        let d = data(365 * 1440 - 7);
        assert_eq!(
            hash(&Encoder::new(&d, 1440).unwrap()),
            0x85BA_7B06_91FB_CED3
        );
    }

    #[test]
    fn arithmetic_params_match_the_encoder() {
        for (len, t) in [(1usize, 1usize), (100, 64), (4000, 1440), (512 << 10, 1440)] {
            assert_eq!(
                CodeParams::systematic(len, t).unwrap(),
                Encoder::new(&data(len), t).unwrap().params()
            );
        }
        assert_eq!(
            CodeParams::systematic(0, 16).unwrap_err(),
            EncodeError::EmptyData
        );
        assert!(matches!(
            CodeParams::systematic((crate::params::MAX_K + 1) * 4, 4),
            Err(EncodeError::BlockTooLarge { .. })
        ));
    }

    #[test]
    fn construction_succeeds_for_many_k() {
        // Legacy mode: the systematic solve uses exactly L rows, so a
        // duplicate LT tuple (birthday-bounded, ~10% per attempt) makes it
        // singular; the construction tweak retries deterministically — RFC
        // 6330 solves the same problem with its K' padding table. Assert
        // the retry count stays small rather than demanding zero.
        for k in [1usize, 2, 3, 5, 8, 13, 50, 101, 256, 500] {
            let d = data(k * 16);
            let enc = Encoder::legacy(&d, 16).unwrap();
            assert_eq!(enc.params().k, k, "k mismatch");
            assert!(
                enc.params().tweak <= 8,
                "k={k} needed {} construction retries — structural problem",
                enc.params().tweak
            );
            // Systematic mode never retries: the direct construction
            // cannot be singular.
            let sys = Encoder::new(&d, 16).unwrap();
            assert_eq!(sys.params().tweak, 0);
            assert_eq!(sys.params().mode, CodeMode::Systematic);
        }
    }

    #[test]
    fn systematic_intermediates_satisfy_precode() {
        // The direct construction must produce intermediates that satisfy
        // every LDPC and HDPC constraint row (zero RHS), i.e. exactly what
        // a decoder's reduced solve assumes.
        for k in [1usize, 2, 7, 40, 313] {
            let d = data(k * 24);
            let enc = Encoder::new(&d, 24).unwrap();
            let params = enc.block_params();
            let mut rows = ldpc_rows(&params, 24);
            rows.extend(hdpc_rows(&params, 0, 24));
            for (ri, row) in rows.iter().enumerate() {
                let mut acc = vec![0u8; 24];
                match &row.kind {
                    RowKind::Binary { cols } => {
                        for &c in cols {
                            gf256::xor_assign(&mut acc, enc.intermediate(c as usize));
                        }
                    }
                    RowKind::Dense { coefs } => {
                        for (j, &coef) in coefs.iter().enumerate() {
                            gf256::addmul(&mut acc, enc.intermediate(j), coef);
                        }
                    }
                }
                assert!(
                    acc.iter().all(|&b| b == 0),
                    "k={k}: precode row {ri} not satisfied"
                );
            }
        }
    }

    #[test]
    fn systematic_source_symbols_verbatim() {
        let d = data(1000);
        let enc = Encoder::new(&d, 100).unwrap();
        for i in 0..enc.params().k {
            let sym = enc.symbol(i as u32);
            let start = i * 100;
            let end = (start + 100).min(d.len());
            assert_eq!(&sym[..end - start], &d[start..end]);
        }
    }

    #[test]
    fn nonzero_tweak_roundtrips() {
        // Force the legacy retry path by scanning for a K that needs
        // tweak > 0 (rare since the PI column landed, but the mechanism
        // must keep working): encoder and decoder must agree on the
        // retried construction end to end.
        let mut exercised = false;
        for k in 90..=600usize {
            let d = data(k * 16);
            let enc = Encoder::legacy(&d, 16).unwrap();
            if enc.params().tweak == 0 {
                continue;
            }
            exercised = true;
            let mut dec = crate::decoder::Decoder::new(enc.params());
            for esi in 3..k as u32 {
                dec.push(esi, enc.symbol(esi));
            }
            for esi in 2 * k as u32..2 * k as u32 + 5 {
                dec.push(esi, enc.symbol(esi));
            }
            assert_eq!(
                dec.try_decode().unwrap(),
                d,
                "tweak>0 roundtrip failed at k={k}"
            );
            break;
        }
        if !exercised {
            // No retry case in range: the mechanism is still covered by
            // construction_succeeds_for_many_k; nothing to assert.
            eprintln!("note: no k in 90..=600 required a construction retry");
        }
    }

    #[test]
    fn systematic_property() {
        // Legacy mode's defining property: the solve pins LT(esi<k) to
        // the source symbols bit-exactly.
        for k in [1usize, 4, 37, 200] {
            let d = data(k * 24);
            let enc = Encoder::legacy(&d, 24).unwrap();
            for i in 0..k as u32 {
                assert_eq!(
                    enc.lt_encode(i),
                    enc.symbol(i),
                    "systematic violation at esi={i}, k={k}"
                );
            }
        }
    }

    #[test]
    fn padding_on_partial_tail() {
        let d = data(100); // 100 bytes, symbol 64 → k=2, 28 bytes padding
        let enc = Encoder::new(&d, 64).unwrap();
        assert_eq!(enc.params().k, 2);
        assert_eq!(enc.params().data_len, 100);
        let s1 = enc.symbol(1);
        assert_eq!(&s1[..36], &d[64..]);
        assert!(s1[36..].iter().all(|&b| b == 0));
    }

    #[test]
    fn repair_symbols_deterministic() {
        let d = data(1000);
        let a = Encoder::new(&d, 100).unwrap();
        let b = Encoder::new(&d, 100).unwrap();
        for esi in [10u32, 11, 999, 123_456] {
            assert_eq!(a.symbol(esi), b.symbol(esi));
        }
    }

    #[test]
    fn empty_data_rejected() {
        assert_eq!(Encoder::new(&[], 16).unwrap_err(), EncodeError::EmptyData);
    }

    #[test]
    fn oversized_block_rejected() {
        let d = vec![0u8; (crate::params::MAX_K + 1) * 4];
        match Encoder::new(&d, 4) {
            Err(EncodeError::BlockTooLarge { k }) => assert!(k > crate::params::MAX_K),
            other => panic!("expected BlockTooLarge, got {other:?}"),
        }
    }
}
