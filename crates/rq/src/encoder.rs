//! Systematic encoder for a single source block.

use std::ops::Range;
use std::sync::Arc;

use crate::gf256;
use crate::hdpc::HdpcFold;
use crate::matrix::{hdpc_columns, ldpc_walk};
use crate::params::{BlockParams, CodeMode};
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
}

impl CodeParams {
    /// The parameters [`Encoder::new`] reports for `data_len` bytes cut
    /// into `symbol_size`-byte symbols, by arithmetic alone: the direct
    /// construction cannot fail, so a receiver can set up its decoder
    /// without an encoder.
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
        })
    }
}

/// Errors from encoder construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The input was empty; a block must carry at least one byte.
    EmptyData,
    /// `k` would exceed [`crate::params::MAX_K`]: use larger symbols.
    BlockTooLarge {
        /// The number of source symbols the data would need.
        k: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::EmptyData => write!(f, "cannot encode an empty block"),
            EncodeError::BlockTooLarge { k } => {
                write!(
                    f,
                    "block needs K={k} symbols, above MAX_K; use larger symbols"
                )
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
/// Construction is solve-free (the intermediates are source plus
/// directly-computed parity); the intermediate precompute happens once
/// here and is reused across every repair symbol.
///
/// An encoder built by [`Encoder::new`] owns a copy of its source; one
/// built by [`Encoder::from_source`] keeps only the `S + H` parity
/// symbols and re-reads source bytes from its caller's object whenever a
/// symbol needs them — the source symbols of a systematic code *are* the
/// object, which a replica already stores.
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
#[derive(Clone)]
pub struct Encoder {
    params: BlockParams,
    code: CodeParams,
    /// The intermediate symbols this encoder holds, back to back: all
    /// `L` of them (`L · T` bytes, the first `K · T` the zero-padded
    /// source itself) when it owns its source, only the `S + H` parity
    /// symbols when `source` re-reads it.
    stored: Vec<u8>,
    /// Where source columns are read when they are not in `stored`.
    source: Option<Arc<ReadSource>>,
}

/// A re-readable object: `read(at, out)` writes its bytes
/// `[at, at + out.len())` over `out`.
type ReadSource = dyn Fn(usize, &mut [u8]) + Send + Sync;

/// Bytes of a re-read source column XORed at a time: a stack buffer, so
/// a repair symbol allocates nothing.
const XOR_PIECE: usize = 512;

/// Consecutive intermediate symbols (usually one), where they lie.
enum Column<'a> {
    /// Held by the encoder.
    Stored(&'a [u8]),
    /// Source columns of a re-read object: its bytes `[at, at + len)`,
    /// then zero padding to the columns' end.
    Source {
        read: &'a ReadSource,
        at: usize,
        len: usize,
    },
}

impl Column<'_> {
    /// Write the symbols over `out`.
    fn write_over(&self, out: &mut [u8]) {
        match *self {
            Column::Stored(bytes) => out.copy_from_slice(bytes),
            Column::Source { read, at, len } => {
                let (data, padding) = out.split_at_mut(len);
                read(at, data);
                padding.fill(0);
            }
        }
    }

    /// The symbols' bytes: held ones where they lie, re-read ones
    /// written over `buf` (as long as the columns) first.
    fn bytes<'b>(&'b self, buf: &'b mut [u8]) -> &'b [u8] {
        match *self {
            Column::Stored(bytes) => bytes,
            Column::Source { .. } => {
                self.write_over(buf);
                buf
            }
        }
    }

    /// XOR the symbol into `out` (the padding XORs as nothing).
    fn xor_into(&self, out: &mut [u8]) {
        match *self {
            Column::Stored(bytes) => gf256::xor_assign(out, bytes),
            Column::Source { read, at, len } => {
                let mut buf = [0u8; XOR_PIECE];
                for (i, piece) in out[..len].chunks_mut(XOR_PIECE).enumerate() {
                    let buf = &mut buf[..piece.len()];
                    read(at + i * XOR_PIECE, buf);
                    gf256::xor_assign(piece, buf);
                }
            }
        }
    }
}

impl Encoder {
    /// Build an encoder over `data` with the given symbol size (direct
    /// parity construction, no solve — it cannot fail on valid input).
    /// It keeps its own copy of the source beside the parity.
    pub fn new(data: &[u8], symbol_size: usize) -> Result<Self, EncodeError> {
        let code = CodeParams::systematic(data.len(), symbol_size)?;
        let params = BlockParams::new(code.k);
        let mut block = vec![0u8; params.l * symbol_size];
        block[..data.len()].copy_from_slice(data);
        let (source, parity) = block.split_at_mut(code.k * symbol_size);
        fill_parity(&params, symbol_size, parity, |cols| {
            Column::Stored(&source[cols.start * symbol_size..cols.end * symbol_size])
        });
        Ok(Self {
            params,
            code,
            stored: block,
            source: None,
        })
    }

    /// [`Encoder::new`] over the `data_len`-byte object that `read`
    /// re-reads: `read(at, out)` must write the object's bytes
    /// `[at, at + out.len())` over `out`, the same bytes on every call.
    /// The encoder streams the object once, a few columns at a time, to
    /// build its parity and keeps only that (`(S + H) · T` bytes); every
    /// source column a symbol needs afterwards is read again, never past
    /// `data_len`.
    pub fn from_source(
        data_len: usize,
        symbol_size: usize,
        read: impl Fn(usize, &mut [u8]) + Send + Sync + 'static,
    ) -> Result<Self, EncodeError> {
        let code = CodeParams::systematic(data_len, symbol_size)?;
        let params = BlockParams::new(code.k);
        let mut parity = vec![0u8; (params.s + params.h) * symbol_size];
        fill_parity(&params, symbol_size, &mut parity, |cols| {
            source_columns(&read, code, cols)
        });
        Ok(Self {
            params,
            code,
            stored: parity,
            source: Some(Arc::new(read)),
        })
    }

    /// [`Encoder::new`]; the mode argument has one value. Kept because
    /// `bench_e2e/src/layers.rs` calls it (ROADMAP, "API the benchmark
    /// pins").
    pub fn with_mode(data: &[u8], symbol_size: usize, _: CodeMode) -> Result<Self, EncodeError> {
        Self::new(data, symbol_size)
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

    /// Bytes of symbol storage allocated: `L · T` when the encoder owns
    /// its source, `(S + H) · T` when it re-reads it.
    pub fn storage_bytes(&self) -> usize {
        self.stored.capacity()
    }

    /// Intermediate symbol `c` of the block: held, or re-read.
    fn column(&self, c: usize) -> Column<'_> {
        let (k, t) = (self.code.k, self.code.symbol_size);
        match &self.source {
            None => Column::Stored(&self.stored[c * t..][..t]),
            Some(_) if c >= k => Column::Stored(&self.stored[(c - k) * t..][..t]),
            Some(read) => source_columns(read.as_ref(), self.code, c..c + 1),
        }
    }

    /// Produce encoding symbol `esi`.
    ///
    /// Systematic source symbols (`esi < k`) are copied out of the source;
    /// repair symbols are LT-encoded from the intermediates on demand.
    pub fn symbol(&self, esi: u32) -> Vec<u8> {
        let mut out = vec![0u8; self.code.symbol_size];
        self.symbol_into(esi, &mut out);
        out
    }

    /// Write encoding symbol `esi` over `out` — [`Encoder::symbol`]
    /// without the allocation, for a receiver that has the symbol's
    /// final resting place at hand ([`crate::Decoder::push_with`]).
    ///
    /// # Panics
    /// Panics if `out` is not `symbol_size` bytes long.
    pub fn symbol_into(&self, esi: u32, out: &mut [u8]) {
        assert_eq!(out.len(), self.code.symbol_size, "symbol size mismatch");
        if (esi as usize) < self.code.k {
            self.column(esi as usize).write_over(out);
            return;
        }
        // LT-encode a repair ESI from the intermediates, at the floored
        // walk degree ([`crate::params::sys_repair_min_degree`]).
        let min_d = crate::params::sys_repair_min_degree(self.params.l);
        let mut cols = lt_columns_with_floor(&self.params, esi, min_d).into_iter();
        let first = cols.next().expect("an LT row has at least one column");
        self.column(first as usize).write_over(out);
        for c in cols {
            self.column(c as usize).xor_into(out);
        }
    }
}

/// Source columns `cols` (below `K`) of the object `read` re-reads.
fn source_columns(read: &ReadSource, code: CodeParams, cols: Range<usize>) -> Column<'_> {
    let at = cols.start * code.symbol_size;
    Column::Source {
        read,
        at,
        len: (cols.len() * code.symbol_size).min(code.data_len - at),
    }
}

/// Source columns [`fill_parity`] reads at a time: 23 KB at
/// `T = 1440`, one call to a re-read object's `read`.
const WINDOW: usize = 16;

/// Direct systematic construction: the `S + H` parity symbols of the
/// intermediate block `[source | LDPC parity | HDPC parity]`, written
/// over `parity` (zeroed) from the `K` source columns that `source`
/// gives for a range, each parity symbol computed straight from its
/// constraint row instead of by an `L×L` inactivation solve. One
/// streaming pass over the source, [`WINDOW`] columns at a time: each
/// column is XORed into the LDPC rows its walk names and folded into
/// all `H` HDPC rows, so a re-read source is never staged whole.
///
/// This works because the precode rows are triangular over the parity
/// columns: LDPC row `j` touches only source columns plus its identity
/// column `K+j`, and HDPC row `h` touches columns `[0, K+S)` plus its
/// identity column `K+S+h` — so each parity symbol is determined by
/// columns constructed before it. The rows are sums over GF(256), so
/// the order columns are added in changes no byte.
fn fill_parity<'a>(
    params: &BlockParams,
    t: usize,
    parity: &mut [u8],
    source: impl Fn(Range<usize>) -> Column<'a>,
) {
    let k = params.k;
    let (ldpc, hdpc) = parity.split_at_mut(params.s * t);
    // HDPC row h is `C[ks+h] + Σ coef_j · C[j] = 0` over `j < K+S`.
    let mut fold = HdpcFold::new(params.h, t);
    let columns = hdpc_columns(params);
    let mut buf = vec![0u8; WINDOW.min(k) * t];
    for first in (0..k).step_by(WINDOW) {
        let cols = first..(first + WINDOW).min(k);
        let window = source(cols.clone());
        let symbols = window.bytes(&mut buf[..cols.len() * t]);
        // LDPC row j is `C[k+j] + XOR(source cols) = 0`.
        for (c, symbol) in cols.clone().zip(symbols.chunks_exact(t)) {
            for j in ldpc_walk(params, c) {
                gf256::xor_assign(&mut ldpc[j * t..][..t], symbol);
            }
        }
        fold.fold_all(
            columns[cols]
                .iter()
                .map(|c| &c[..])
                .zip(symbols.chunks_exact(t)),
        );
    }
    fold.fold_all(
        columns[k..]
            .iter()
            .map(|c| &c[..])
            .zip(ldpc.chunks_exact(t)),
    );
    for (h, sym) in hdpc.chunks_exact_mut(t).enumerate() {
        fold.write_row(h, sym);
    }
}

/// The block's shape and storage, never its bytes.
impl std::fmt::Debug for Encoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Encoder")
            .field("k", &self.code.k)
            .field("t", &self.code.symbol_size)
            .field("l", &self.params.l)
            .field("storage_bytes", &self.storage_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{ldpc_rows, ConstraintRow, RowKind};

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8).collect()
    }

    /// The `H` dense HDPC constraint rows (zero RHS) spelled out one row
    /// at a time: the [`hdpc_columns`] coefficients over columns
    /// `[0, K+S)`, identity 1 at column `K+S+h` — what the fused
    /// [`HdpcFold`] pass is checked against.
    fn hdpc_rows(params: &BlockParams, symbol_size: usize) -> Vec<ConstraintRow> {
        let ks = params.k + params.s;
        let columns = hdpc_columns(params);
        (0..params.h)
            .map(|h| {
                let mut coefs = vec![0u8; params.l];
                for (c, column) in coefs.iter_mut().zip(columns.iter()) {
                    *c = column[h];
                }
                coefs[ks + h] = 1;
                ConstraintRow {
                    kind: RowKind::Dense { coefs },
                    value: vec![0; symbol_size],
                }
            })
            .collect()
    }

    /// The systematic intermediates built symbol by symbol, one
    /// `xor_assign` / `addmul` per (row, column) — the construction
    /// [`fill_parity`] must stay byte-equal to.
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
        for row in hdpc_rows(&params, t) {
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

    /// An encoder over `d` that re-reads it: it keeps only the parity,
    /// and a read past the object panics on the slice.
    fn rereading(d: &[u8], t: usize) -> Encoder {
        let d = d.to_vec();
        Encoder::from_source(d.len(), t, move |at, out| {
            out.copy_from_slice(&d[at..][..out.len()])
        })
        .unwrap()
    }

    /// Both kinds of encoder over `d`: owned, then re-reading.
    fn both(d: &[u8], t: usize) -> [Encoder; 2] {
        [Encoder::new(d, t).unwrap(), rereading(d, t)]
    }

    /// Intermediate symbol `c`, through the column accessor.
    fn intermediate(enc: &Encoder, c: usize) -> Vec<u8> {
        let mut sym = vec![0xEE; enc.code.symbol_size];
        enc.column(c).write_over(&mut sym);
        sym
    }

    #[test]
    fn block_and_symbols_match_the_reference_construction() {
        // K = 365 is the 512 KiB benchmark object, 2913 the paper's 4 MB;
        // T = 1440 re-reads a source column in three XOR pieces.
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
            let reference = reference_intermediates(&d, t);
            for enc in both(&d, t) {
                let l = enc.params.l;
                assert_eq!(reference.len(), l);
                for (c, expect) in reference.iter().enumerate() {
                    assert_eq!(&intermediate(&enc, c), expect, "K={k}: intermediate {c}");
                }
                let floor = crate::params::sys_repair_min_degree(l);
                for esi in (0..k as u32 + 64).chain([1 << 20, u32::MAX]) {
                    let expect = if (esi as usize) < k {
                        reference[esi as usize].clone()
                    } else {
                        let mut sym = vec![0u8; t];
                        for col in lt_columns_with_floor(&enc.params, esi, floor) {
                            gf256::xor_assign(&mut sym, &reference[col as usize]);
                        }
                        sym
                    };
                    assert_eq!(enc.symbol(esi), expect, "K={k}: symbol {esi}");
                }
            }
        }
    }

    #[test]
    fn a_rereading_encoder_holds_only_its_parity() {
        let generated = |at: usize, out: &mut [u8]| {
            for (b, i) in out.iter_mut().zip(at..) {
                *b = (i * 131 + 17) as u8;
            }
        };
        // (object bytes, K, S + H, owned bytes, re-reading bytes) at
        // T = 1440: the benchmark's 512 KiB read and the paper's 4 MiB.
        for (len, k, parity, owned, reread) in [
            (512usize << 10, 365usize, 49usize, 596_160usize, 70_560usize),
            (4 << 20, 2913, 119, 4_366_080, 171_360),
        ] {
            let enc = Encoder::from_source(len, 1440, generated).unwrap();
            let bp = enc.block_params();
            assert_eq!((bp.k, bp.s + bp.h), (k, parity));
            assert_eq!(enc.storage_bytes(), reread);
            assert_eq!(reread, parity * 1440);
            assert_eq!(
                Encoder::new(&data(len), 1440).unwrap().storage_bytes(),
                owned
            );
            assert_eq!(owned, bp.l * 1440);
        }
    }

    #[test]
    fn debug_prints_the_shape_not_the_bytes() {
        let [owned, reread] = both(&data(512 << 10), 1440);
        assert_eq!(
            format!("{owned:?}"),
            "Encoder { k: 365, t: 1440, l: 414, storage_bytes: 596160 }"
        );
        assert_eq!(
            format!("{reread:?}"),
            "Encoder { k: 365, t: 1440, l: 414, storage_bytes: 70560 }"
        );
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
        // There is no solve to go singular: every K constructs.
        for k in [1usize, 2, 3, 5, 8, 13, 50, 101, 256, 500] {
            let enc = Encoder::new(&data(k * 16), 16).unwrap();
            assert_eq!(enc.params().k, k, "k mismatch");
        }
    }

    #[test]
    fn systematic_intermediates_satisfy_precode() {
        // The direct construction must produce intermediates that satisfy
        // every LDPC and HDPC constraint row (zero RHS), i.e. exactly what
        // a decoder's reduced solve assumes.
        for k in [1usize, 2, 7, 40, 313] {
            for enc in both(&data(k * 24 - 5), 24) {
                let params = enc.block_params();
                let mut rows = ldpc_rows(&params, 24);
                rows.extend(hdpc_rows(&params, 24));
                for (ri, row) in rows.iter().enumerate() {
                    let mut acc = vec![0u8; 24];
                    match &row.kind {
                        RowKind::Binary { cols } => {
                            for &c in cols {
                                enc.column(c as usize).xor_into(&mut acc);
                            }
                        }
                        RowKind::Dense { coefs } => {
                            for (j, &coef) in coefs.iter().enumerate() {
                                gf256::addmul(&mut acc, &intermediate(&enc, j), coef);
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
