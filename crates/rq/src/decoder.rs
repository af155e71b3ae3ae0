//! Decoder for a single source block.

use std::cell::Cell;
use std::collections::BTreeMap;

use crate::encoder::CodeParams;
use crate::gf256;
use crate::hdpc::HdpcFold;
use crate::matrix::{hdpc_columns, ldpc_walk, ConstraintRow, RowKind};
use crate::params::BlockParams;
use crate::solver::{solve, SolveError};
use crate::tuple::lt_columns_with_floor;

/// Decode outcome when the data is not (yet) recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than `k` distinct symbols received — decoding cannot
    /// possibly succeed yet.
    NeedMoreSymbols {
        /// Distinct symbols received so far.
        have: usize,
        /// Minimum required (`k`).
        need: usize,
    },
    /// At least `k` symbols are present but the received combination is
    /// rank-deficient; any additional fresh symbol will very likely fix
    /// it (probability ≈ 1 − 2⁻⁸ per symbol).
    RankDeficient {
        /// Distinct symbols received so far.
        have: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NeedMoreSymbols { have, need } => {
                write!(f, "need more symbols: have {have}, need at least {need}")
            }
            DecodeError::RankDeficient { have } => {
                write!(f, "received {have} symbols but system is rank deficient")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Which decode paths a [`Decoder`] has taken so far — instrumentation for
/// the fast-path contract ("the solver is *not* invoked when all `K`
/// source symbols arrive").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Successful decodes that took the zero-copy fast path (all source
    /// symbols present; no linear algebra).
    pub fast_path_decodes: u64,
    /// Decodes (successful or not) that invoked the inactivation solver.
    pub solver_decodes: u64,
    /// Number of unknowns in the most recent solver invocation:
    /// `missing + S + H` — it shrinks with the loss count.
    pub last_solve_unknowns: usize,
}

/// Rateless decoder for one source block.
///
/// Feed it encoding symbols in any order with [`Decoder::push`]; call
/// [`Decoder::try_decode`] once at least `k` distinct symbols arrived.
/// Duplicates (same ESI) are ignored — this mirrors the on-the-wire
/// behaviour Polyraptor relies on: only *distinct* symbols advance
/// decoding, which is why multi-source senders partition/randomize their
/// ESI spaces.
///
/// Source symbols are kept **in place**: symbol `esi` lives at its
/// object offset inside a chunk of [`CHUNK_SYMBOLS`] symbols that is
/// allocated when the first of them arrives, so storage grows with what
/// has arrived and a complete set of source symbols already *is* the
/// object. [`Decoder::push_with`] lets a caller write a symbol straight
/// into that slot and [`Decoder::decode_in_place`] fills in only the
/// missing ones; `push` and `try_decode` are the by-value forms of the
/// same two steps.
///
/// ```
/// use rq::{Decoder, Encoder};
/// let data: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
/// let enc = Encoder::new(&data, 1440).unwrap();
/// let mut dec = Decoder::new(enc.params());
/// // Lose all source symbols; feed repair symbols only.
/// for esi in 100..104 {
///     dec.push(esi, enc.symbol(esi));
/// }
/// assert_eq!(dec.try_decode().unwrap(), data);
/// ```
pub struct Decoder {
    params: BlockParams,
    code: CodeParams,
    /// Source symbols at their object offsets: chunk `c` holds symbols
    /// `[c · CHUNK_SYMBOLS, (c + 1) · CHUNK_SYMBOLS)` back to back (the
    /// last chunk may hold fewer), empty until one of them is written.
    chunks: Vec<Vec<u8>>,
    /// Bit `esi` is set once source symbol `esi` has *arrived*; symbols
    /// an in-place decode filled in are not marked.
    arrived: Vec<u64>,
    source_seen: usize,
    /// Received repair symbols, in ESI order (the solver's row order).
    repairs: BTreeMap<u32, Vec<u8>>,
    stats: Cell<DecodeStats>,
}

/// Source symbols per storage chunk of a [`Decoder`]: small enough that
/// a receiver holding a few symbols of many objects pays for what has
/// arrived, large enough that an object is a few dozen allocations.
pub const CHUNK_SYMBOLS: usize = 16;

/// A received source column's entry in a solve's unknown numbering.
const KNOWN: u32 = u32::MAX;

/// A decoded object, viewed in the decoder's own storage.
#[derive(Debug, Clone, Copy)]
pub struct Decoded<'a> {
    chunks: &'a [Vec<u8>],
    data_len: usize,
}

impl<'a> Decoded<'a> {
    /// The object (padding stripped) as consecutive runs of bytes, in
    /// order.
    pub fn runs(&self) -> impl Iterator<Item = &'a [u8]> {
        let mut left = self.data_len;
        self.chunks.iter().map(move |chunk| {
            let run = &chunk[..chunk.len().min(left)];
            left -= run.len();
            run
        })
    }

    /// Copy the object out, a run at a time.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data_len);
        for run in self.runs() {
            out.extend_from_slice(run);
        }
        out
    }
}

impl Decoder {
    /// New decoder for a block described by `code` (from
    /// [`crate::Encoder::params`], carried out-of-band). Holds no symbol
    /// storage until symbols arrive.
    pub fn new(code: CodeParams) -> Self {
        Self {
            params: BlockParams::new(code.k),
            code,
            chunks: vec![Vec::new(); code.k.div_ceil(CHUNK_SYMBOLS)],
            arrived: vec![0; code.k.div_ceil(64)],
            source_seen: 0,
            repairs: BTreeMap::new(),
            stats: Cell::new(DecodeStats::default()),
        }
    }

    /// Add a received encoding symbol. Returns `true` if the symbol was
    /// new (distinct ESI), `false` for duplicates.
    ///
    /// # Panics
    /// Panics if the symbol length differs from the block's symbol size —
    /// symbols are fixed-size by construction, so a mismatch is a framing
    /// bug in the caller, not a runtime condition.
    pub fn push(&mut self, esi: u32, symbol: Vec<u8>) -> bool {
        assert_eq!(symbol.len(), self.code.symbol_size, "symbol size mismatch");
        self.push_with(esi, |slot| slot.copy_from_slice(&symbol))
    }

    /// [`Decoder::push`] for a symbol that is yet to be written:
    /// `write` is handed the `symbol_size` zeroed bytes where symbol
    /// `esi` will stay and must fill them. It is not called for a
    /// duplicate ESI.
    pub fn push_with(&mut self, esi: u32, write: impl FnOnce(&mut [u8])) -> bool {
        if (esi as usize) < self.code.k {
            let esi = esi as usize;
            if self.has_source(esi) {
                return false;
            }
            write(self.source_mut(esi));
            self.arrived[esi / 64] |= 1 << (esi % 64);
            self.source_seen += 1;
            true
        } else {
            let t = self.code.symbol_size;
            let mut fresh = false;
            self.repairs.entry(esi).or_insert_with(|| {
                fresh = true;
                let mut symbol = vec![0u8; t];
                write(&mut symbol);
                symbol
            });
            fresh
        }
    }

    fn has_source(&self, esi: usize) -> bool {
        self.arrived[esi / 64] >> (esi % 64) & 1 != 0
    }

    /// Source symbol `esi`, which must have arrived.
    fn source(&self, esi: usize) -> &[u8] {
        let t = self.code.symbol_size;
        &self.chunks[esi / CHUNK_SYMBOLS][esi % CHUNK_SYMBOLS * t..][..t]
    }

    /// The slot of source symbol `esi`, allocating its chunk on first
    /// touch.
    fn source_mut(&mut self, esi: usize) -> &mut [u8] {
        let t = self.code.symbol_size;
        let c = esi / CHUNK_SYMBOLS;
        let chunk = &mut self.chunks[c];
        if chunk.is_empty() {
            let symbols = CHUNK_SYMBOLS.min(self.code.k - c * CHUNK_SYMBOLS);
            *chunk = vec![0u8; symbols * t];
        }
        &mut chunk[esi % CHUNK_SYMBOLS * t..][..t]
    }

    /// Number of distinct symbols received so far.
    pub fn symbols_received(&self) -> usize {
        self.source_seen + self.repairs.len()
    }

    /// Bytes of symbol storage currently allocated: whole chunks for the
    /// source symbols touched so far, plus the repair symbols.
    pub fn storage_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(Vec::len).sum();
        chunks + self.repairs.len() * self.code.symbol_size
    }

    /// `true` when every source symbol arrived — the zero-decode-cost
    /// fast path for lossless transfers (paper §2: "source symbols are
    /// immediately passed to the application without ... decoding
    /// latency").
    pub fn systematic_complete(&self) -> bool {
        self.source_seen == self.code.k
    }

    /// The decoder-facing code parameters.
    pub fn params(&self) -> CodeParams {
        self.code
    }

    /// Decode-path counters — see [`DecodeStats`].
    pub fn decode_stats(&self) -> DecodeStats {
        self.stats.get()
    }

    fn decoded(&self) -> Decoded<'_> {
        Decoded {
            chunks: &self.chunks,
            data_len: self.code.data_len,
        }
    }

    /// Attempt to decode the block where the symbols already lie. On
    /// success the missing source symbols have been written into their
    /// slots (received ones are not touched) and the returned view is
    /// exactly the original data (padding stripped).
    /// [`Decoder::symbols_received`] still counts what *arrived*.
    ///
    /// When every source symbol arrived there is nothing to do at all
    /// (observable via [`DecodeStats`]); otherwise the solver runs a
    /// *reduced* solve seeded with the known source symbols. A failed
    /// attempt changes nothing.
    pub fn decode_in_place(&mut self) -> Result<Decoded<'_>, DecodeError> {
        if self.systematic_complete() {
            self.count_fast_path();
        } else {
            let (missing, solution) = self.solve_missing()?;
            for (&esi, symbol) in missing.iter().zip(&solution) {
                self.source_mut(esi as usize).copy_from_slice(symbol);
            }
        }
        Ok(self.decoded())
    }

    fn count_fast_path(&self) {
        let mut st = self.stats.get();
        st.fast_path_decodes += 1;
        self.stats.set(st);
    }

    /// Attempt to decode the block. On success returns exactly the
    /// original data (padding stripped), copied out of the decoder —
    /// [`Decoder::decode_in_place`] for a caller that wants to own the
    /// bytes or holds only `&self`.
    pub fn try_decode(&self) -> Result<Vec<u8>, DecodeError> {
        // Fast path: all source symbols present, no linear algebra at all.
        if self.systematic_complete() {
            self.count_fast_path();
            return Ok(self.decoded().to_vec());
        }
        self.try_decode_solver()
    }

    /// Decode via the solver even when the fast path is eligible.
    ///
    /// Exists for the fast-path/solver equivalence tests and for
    /// benchmarking the fast path against the work it avoids; production
    /// callers want [`Decoder::try_decode`].
    pub fn try_decode_solver(&self) -> Result<Vec<u8>, DecodeError> {
        let (missing, solution) = self.solve_missing()?;
        // Assemble: received source symbols chunk by chunk (a chunk no
        // symbol arrived in is all missing), then the missing ones over
        // them straight from the solution.
        let t = self.code.symbol_size;
        let mut out = vec![0u8; self.code.k * t];
        for (chunk, at) in self.chunks.iter().zip(out.chunks_mut(CHUNK_SYMBOLS * t)) {
            at[..chunk.len()].copy_from_slice(chunk);
        }
        for (&esi, symbol) in missing.iter().zip(&solution) {
            out[esi as usize * t..][..t].copy_from_slice(symbol);
        }
        out.truncate(self.code.data_len);
        Ok(out)
    }

    /// The reduced solve: the missing source ESIs (ascending) and the
    /// solution, whose first `missing.len()` symbols are theirs — the
    /// intermediate *is* the source symbol, no LT re-encode needed.
    ///
    /// Received source symbols pin intermediate columns `0..k` directly,
    /// so the unknowns are only the *missing* source columns plus the
    /// `S + H` parity columns. Every constraint row is projected onto
    /// those unknowns, with the known-source contributions folded into
    /// its RHS — the "seeding" that makes the system shrink with the
    /// loss count.
    fn solve_missing(&self) -> Result<(Vec<u32>, Vec<Vec<u8>>), DecodeError> {
        let have = self.symbols_received();
        if have < self.code.k {
            return Err(DecodeError::NeedMoreSymbols {
                have,
                need: self.code.k,
            });
        }
        let t = self.code.symbol_size;
        let p = &self.params;

        let (missing, compact) = self.unknowns();
        let n_unknown = missing.len() + p.s + p.h;
        let mut rows = Vec::with_capacity(p.s + p.h + self.repairs.len());
        self.precode_rows(&compact, n_unknown, &mut rows);

        // One row per received repair symbol; its LT columns over the
        // intermediates (degree-floored, matching the encoder), known
        // sources folded into the RHS.
        let min_d = crate::params::sys_repair_min_degree(p.l);
        for (&esi, sym) in &self.repairs {
            let cols = lt_columns_with_floor(p, esi, min_d);
            rows.push(self.project_binary(&compact, cols, sym.clone()));
        }

        let mut st = self.stats.get();
        st.solver_decodes += 1;
        st.last_solve_unknowns = n_unknown;
        self.stats.set(st);

        match solve(n_unknown, rows, t) {
            Ok(solution) => Ok((missing, solution)),
            Err(SolveError::Singular) => Err(DecodeError::RankDeficient { have }),
        }
    }

    /// The missing source ESIs (ascending) and, per intermediate column,
    /// its index among the unknowns: missing source columns first, then
    /// all parity columns `k..l`; [`KNOWN`] for a received source column.
    fn unknowns(&self) -> (Vec<u32>, Vec<u32>) {
        let k = self.code.k;
        let missing: Vec<u32> = (0..k as u32)
            .filter(|&esi| !self.has_source(esi as usize))
            .collect();
        let mut compact = vec![KNOWN; self.params.l];
        for (i, &c) in missing.iter().enumerate() {
            compact[c as usize] = i as u32;
        }
        for (i, c) in (k..self.params.l).enumerate() {
            compact[c] = (missing.len() + i) as u32;
        }
        (missing, compact)
    }

    /// A binary row projected onto the unknowns: unknown columns survive
    /// (remapped), known source columns XOR into the right-hand side.
    fn project_binary(&self, compact: &[u32], cols: Vec<u32>, mut value: Vec<u8>) -> ConstraintRow {
        let mut ucols = Vec::with_capacity(cols.len());
        for c in cols {
            match compact[c as usize] {
                KNOWN => gf256::xor_assign(&mut value, self.source(c as usize)),
                u => ucols.push(u),
            }
        }
        ConstraintRow {
            kind: RowKind::Binary { cols: ucols },
            value,
        }
    }

    /// Append the `S` LDPC rows, then the `H` HDPC rows, projected onto
    /// the `n_unknown` unknowns that `compact` numbers, in one streaming
    /// pass over the source columns, [`CHUNK_SYMBOLS`] at a time as
    /// the decoder stores them — the walk the encoder's parity takes.
    ///
    /// LDPC row `j` keeps its identity column `K+j` and the missing
    /// source columns whose walk names it (`S` is a prime ≥ 3, so a walk
    /// never names a row twice); each received source column is XORed
    /// into the right-hand sides of the rows its walk names, and folded
    /// into all `H` HDPC right-hand sides. HDPC rows keep their
    /// coefficients of unknown columns (remapped) and the identity at
    /// `K+S+h`.
    fn precode_rows(&self, compact: &[u32], n_unknown: usize, rows: &mut Vec<ConstraintRow>) {
        let (k, t, p) = (self.code.k, self.code.symbol_size, &self.params);
        let columns = hdpc_columns(p);
        let mut ldpc_cols: Vec<Vec<u32>> = (0..p.s).map(|j| vec![compact[k + j]]).collect();
        let mut ldpc_values = vec![vec![0u8; t]; p.s];
        let mut known = HdpcFold::new(p.h, t);
        for first in (0..k).step_by(CHUNK_SYMBOLS) {
            let window = first..(first + CHUNK_SYMBOLS).min(k);
            for c in window.clone() {
                match compact[c] {
                    KNOWN => {
                        for j in ldpc_walk(p, c) {
                            gf256::xor_assign(&mut ldpc_values[j], self.source(c));
                        }
                    }
                    u => {
                        for j in ldpc_walk(p, c) {
                            ldpc_cols[j].push(u);
                        }
                    }
                }
            }
            known.fold_all(
                window
                    .filter(|&c| compact[c] == KNOWN)
                    .map(|c| (&columns[c][..], self.source(c))),
            );
        }
        rows.extend(
            ldpc_cols
                .into_iter()
                .zip(ldpc_values)
                .map(|(cols, value)| ConstraintRow {
                    kind: RowKind::Binary { cols },
                    value,
                }),
        );
        let mut hdpc_coefs = vec![vec![0u8; n_unknown]; p.h];
        for (column, &u) in columns.iter().zip(compact) {
            if u != KNOWN {
                for (coefs, &coef) in hdpc_coefs.iter_mut().zip(column) {
                    coefs[u as usize] = coef;
                }
            }
        }
        let ks = k + p.s;
        for (h, mut coefs) in hdpc_coefs.into_iter().enumerate() {
            coefs[compact[ks + h] as usize] = 1;
            let mut value = vec![0u8; t];
            known.write_row(h, &mut value);
            rows.push(ConstraintRow {
                kind: RowKind::Dense { coefs },
                value,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::matrix::ldpc_rows;
    use crate::rand::Xorshift64;

    /// The LDPC rows a solve streams column by column equal the rows
    /// spelled out one at a time and projected onto the unknowns row by
    /// row — the same projected columns, the same right-hand-side
    /// bytes. Random K, ragged objects, symbol sizes off the 64-byte
    /// vector width and random loss patterns, from none to all.
    #[test]
    fn streamed_ldpc_rows_equal_the_row_by_row_projection() {
        let mut rng = Xorshift64::new(0x5EED_1D9C);
        for case in 0..60 {
            let t = [1, 17, 24, 100, 130, 1440, 1441][rng.next_below(7) as usize];
            let k = 1 + rng.next_below(400) as usize;
            let len = (k - 1) * t + 1 + rng.next_below(t as u64) as usize;
            let d: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let enc = Encoder::new(&d, t).unwrap();
            let lost_percent = [0, 1, 10, 50, 100][rng.next_below(5) as usize];
            let mut dec = Decoder::new(enc.params());
            for esi in 0..k as u32 {
                if rng.next_below(100) >= lost_percent {
                    dec.push(esi, enc.symbol(esi));
                }
            }
            let p = &dec.params;
            assert_eq!(p.k, k, "case {case}");
            let (missing, compact) = dec.unknowns();
            let mut streamed = Vec::new();
            dec.precode_rows(&compact, missing.len() + p.s + p.h, &mut streamed);
            let by_row: Vec<ConstraintRow> = ldpc_rows(p, t)
                .into_iter()
                .map(|row| {
                    let RowKind::Binary { cols } = row.kind else {
                        unreachable!("LDPC rows are binary")
                    };
                    dec.project_binary(&compact, cols, row.value)
                })
                .collect();
            assert_eq!(streamed.len(), p.s + p.h, "case {case}");
            for (j, (got, want)) in streamed.iter().zip(&by_row).enumerate() {
                assert_eq!(
                    got,
                    want,
                    "case {case}: K = {k}, T = {t}, {} missing, LDPC row {j}",
                    missing.len()
                );
            }
        }
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 97 + 43) as u8).collect()
    }

    #[test]
    fn lossless_systematic_fast_path() {
        let d = data(1000);
        let enc = Encoder::new(&d, 100).unwrap();
        let mut dec = Decoder::new(enc.params());
        for esi in 0..enc.params().k as u32 {
            assert!(dec.push(esi, enc.symbol(esi)));
        }
        assert!(dec.systematic_complete());
        assert_eq!(dec.try_decode().unwrap(), d);
    }

    #[test]
    fn repair_only_decode() {
        let d = data(640);
        let enc = Encoder::new(&d, 64).unwrap(); // k = 10
        let mut dec = Decoder::new(enc.params());
        // No source symbols at all; k+2 repair symbols.
        for esi in 1000..1012u32 {
            dec.push(esi, enc.symbol(esi));
        }
        assert_eq!(dec.try_decode().unwrap(), d);
    }

    #[test]
    fn mixed_loss_decode() {
        let d = data(5000);
        let enc = Encoder::new(&d, 128).unwrap(); // k = 40
        let k = enc.params().k as u32;
        let mut dec = Decoder::new(enc.params());
        // Drop every third source symbol; top up with repairs.
        let mut pushed = 0;
        for esi in 0..k {
            if esi % 3 != 0 {
                dec.push(esi, enc.symbol(esi));
                pushed += 1;
            }
        }
        let mut esi = k;
        while pushed < k + 2 {
            dec.push(esi, enc.symbol(esi));
            esi += 1;
            pushed += 1;
        }
        assert_eq!(dec.try_decode().unwrap(), d);
    }

    #[test]
    fn duplicates_do_not_advance() {
        let d = data(300);
        let enc = Encoder::new(&d, 100).unwrap();
        let mut dec = Decoder::new(enc.params());
        assert!(dec.push(0, enc.symbol(0)));
        assert!(!dec.push(0, enc.symbol(0)));
        assert_eq!(dec.symbols_received(), 1);
    }

    #[test]
    fn need_more_symbols_reported() {
        let d = data(300);
        let enc = Encoder::new(&d, 100).unwrap(); // k = 3
        let mut dec = Decoder::new(enc.params());
        dec.push(5, enc.symbol(5));
        match dec.try_decode() {
            Err(DecodeError::NeedMoreSymbols { have: 1, need: 3 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn random_loss_patterns_decode_at_small_overhead() {
        // Property-style deterministic sweep: across many loss patterns,
        // k+3 random distinct symbols decode with overwhelming
        // probability. Failures here indicate a structural bug rather
        // than statistical bad luck (P ≈ 2^-24 per trial).
        let d = data(2560);
        let enc = Encoder::new(&d, 64).unwrap(); // k = 40
        let k = enc.params().k;
        let mut rng = Xorshift64::new(2024);
        for trial in 0..30 {
            let mut dec = Decoder::new(enc.params());
            let mut added = 0;
            while added < k + 3 {
                let esi = rng.next_below(10 * k as u64) as u32;
                if dec.push(esi, enc.symbol(esi)) {
                    added += 1;
                }
            }
            assert_eq!(dec.try_decode().unwrap(), d, "trial {trial} failed");
        }
    }

    #[test]
    fn storage_grows_with_what_has_arrived() {
        // One zeroed K·T buffer per decoder at the first symbol put a
        // quarter on the benchmark's peak RSS: many objects are in
        // flight at once and most hold a fraction of their symbols.
        let t = 1440;
        let d = data(365 * t - 7);
        let enc = Encoder::new(&d, t).unwrap();
        let mut dec = Decoder::new(enc.params());
        assert_eq!(dec.storage_bytes(), 0, "nothing before the first symbol");
        dec.push(3, enc.symbol(3));
        assert_eq!(dec.storage_bytes(), CHUNK_SYMBOLS * t, "one chunk");
        dec.push(4, enc.symbol(4));
        dec.push(3, enc.symbol(3));
        assert_eq!(dec.storage_bytes(), CHUNK_SYMBOLS * t, "same chunk");
        dec.push(364, enc.symbol(364));
        assert_eq!(
            dec.storage_bytes(),
            (CHUNK_SYMBOLS + 365 % CHUNK_SYMBOLS) * t,
            "the last chunk holds the K mod 16 symbols there are"
        );
        dec.push(1000, enc.symbol(1000));
        dec.push(1000, enc.symbol(1000));
        assert_eq!(
            dec.storage_bytes(),
            (CHUNK_SYMBOLS + 365 % CHUNK_SYMBOLS + 1) * t,
            "a repair symbol is its own allocation"
        );
    }

    #[test]
    fn in_place_decode_counts_only_what_arrived() {
        let d = data(40 * 64 - 5);
        let enc = Encoder::new(&d, 64).unwrap();
        let mut dec = Decoder::new(enc.params());
        // Lose symbol 3 and the whole second chunk, top up with repairs.
        for esi in (0..40u32).filter(|esi| !(16..32).contains(esi) && *esi != 3) {
            dec.push(esi, enc.symbol(esi));
        }
        for esi in 40..59u32 {
            dec.push_with(esi, |slot| enc.symbol_into(esi, slot));
        }
        let arrived = dec.symbols_received();
        assert_eq!(arrived, 23 + 19);
        assert_eq!(dec.decode_in_place().unwrap().to_vec(), d);
        assert_eq!(
            dec.symbols_received(),
            arrived,
            "filled-in symbols did not arrive"
        );
        assert!(!dec.systematic_complete());
        assert_eq!(dec.decode_stats().solver_decodes, 1);
        // The filled-in symbols are in place all the same, and a late
        // copy of one is still a fresh arrival.
        assert_eq!(dec.try_decode().unwrap(), d);
        assert!(dec.push(17, enc.symbol(17)));
        assert_eq!(dec.symbols_received(), arrived + 1);
    }

    #[test]
    fn failed_in_place_decode_changes_nothing() {
        let d = data(300);
        let enc = Encoder::new(&d, 100).unwrap(); // k = 3
        let mut dec = Decoder::new(enc.params());
        dec.push(1, enc.symbol(1));
        dec.push(7, enc.symbol(7));
        let storage = dec.storage_bytes();
        assert_eq!(
            dec.decode_in_place().unwrap_err(),
            DecodeError::NeedMoreSymbols { have: 2, need: 3 }
        );
        assert_eq!((dec.symbols_received(), dec.storage_bytes()), (2, storage));
    }

    #[test]
    fn decoded_object_is_a_few_whole_runs() {
        // The by-value wrapper copies these runs; assembled a byte at a
        // time through an iterator it ran at an eighth of the speed.
        let t = 100;
        let d = data(40 * t - 33);
        let enc = Encoder::new(&d, t).unwrap();
        let mut dec = Decoder::new(enc.params());
        for esi in 0..40u32 {
            dec.push(esi, enc.symbol(esi));
        }
        let object = dec.decode_in_place().unwrap();
        let runs: Vec<&[u8]> = object.runs().collect();
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        assert_eq!(lens, [16 * t, 16 * t, 8 * t - 33], "padding stripped");
        assert_eq!(runs.concat(), d);
        assert_eq!(dec.decode_stats().fast_path_decodes, 1);
    }

    #[test]
    fn wrong_symbol_size_panics() {
        let d = data(300);
        let enc = Encoder::new(&d, 100).unwrap();
        let mut dec = Decoder::new(enc.params());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dec.push(0, vec![0u8; 99]);
        }));
        assert!(result.is_err());
    }
}
