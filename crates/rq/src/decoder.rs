//! Decoder for a single source block.

use std::cell::Cell;
use std::collections::BTreeMap;

use crate::encoder::CodeParams;
use crate::gf256;
use crate::hdpc::HdpcFold;
use crate::matrix::{hdpc_columns, ldpc_rows, ConstraintRow, RowKind};
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
    received: BTreeMap<u32, Vec<u8>>,
    source_seen: usize,
    stats: Cell<DecodeStats>,
}

impl Decoder {
    /// New decoder for a block described by `code` (from
    /// [`crate::Encoder::params`], carried out-of-band).
    pub fn new(code: CodeParams) -> Self {
        Self {
            params: BlockParams::new(code.k),
            code,
            received: BTreeMap::new(),
            source_seen: 0,
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
        if self.received.contains_key(&esi) {
            return false;
        }
        if (esi as usize) < self.code.k {
            self.source_seen += 1;
        }
        self.received.insert(esi, symbol);
        true
    }

    /// Number of distinct symbols received so far.
    pub fn symbols_received(&self) -> usize {
        self.received.len()
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

    /// Attempt to decode the block. On success returns exactly the
    /// original data (padding stripped).
    ///
    /// When every source symbol arrived this is the zero-copy fast path:
    /// received symbols are appended straight into the output buffer and
    /// no linear algebra runs at all (observable via [`DecodeStats`]).
    /// Otherwise the solver runs a *reduced* solve seeded with the known
    /// source symbols.
    pub fn try_decode(&self) -> Result<Vec<u8>, DecodeError> {
        // Fast path: all source symbols present, no linear algebra at all.
        if self.systematic_complete() {
            let mut st = self.stats.get();
            st.fast_path_decodes += 1;
            self.stats.set(st);
            let k = self.code.k;
            let t = self.code.symbol_size;
            let mut out = Vec::with_capacity(k * t);
            for esi in 0..k as u32 {
                out.extend_from_slice(&self.received[&esi]);
            }
            out.truncate(self.code.data_len);
            return Ok(out);
        }
        self.try_decode_solver()
    }

    /// Decode via the solver even when the fast path is eligible.
    ///
    /// Exists for the fast-path/solver equivalence tests and for
    /// benchmarking the fast path against the work it avoids; production
    /// callers want [`Decoder::try_decode`].
    ///
    /// The solve is reduced: received source symbols pin intermediate
    /// columns `0..k` directly, so the unknowns are only the *missing*
    /// source columns plus the `S + H` parity columns. Every constraint
    /// row is projected onto those unknowns, with the known-source
    /// contributions folded into its RHS — the "seeding" that makes the
    /// system shrink with the loss count.
    pub fn try_decode_solver(&self) -> Result<Vec<u8>, DecodeError> {
        if self.received.len() < self.code.k {
            return Err(DecodeError::NeedMoreSymbols {
                have: self.received.len(),
                need: self.code.k,
            });
        }
        let k = self.code.k;
        let t = self.code.symbol_size;
        let p = &self.params;

        // Compact unknown indices: missing source columns first
        // (ascending), then all parity columns `k..l`.
        let missing: Vec<u32> = (0..k as u32)
            .filter(|esi| !self.received.contains_key(esi))
            .collect();
        let m = missing.len();
        let n_unknown = m + p.s + p.h;
        const KNOWN: u32 = u32::MAX;
        let mut compact = vec![KNOWN; p.l];
        for (i, &c) in missing.iter().enumerate() {
            compact[c as usize] = i as u32;
        }
        for (i, c) in (k..p.l).enumerate() {
            compact[c] = (m + i) as u32;
        }

        let n_repair = self.received.len() - (k - m);
        let mut rows: Vec<ConstraintRow> = Vec::with_capacity(p.s + p.h + n_repair);

        // Project a binary row: unknown columns survive (remapped), known
        // source columns XOR into the RHS.
        let project_binary = |cols: Vec<u32>, mut value: Vec<u8>| -> ConstraintRow {
            let mut ucols = Vec::with_capacity(cols.len());
            for c in cols {
                match compact[c as usize] {
                    KNOWN => gf256::xor_assign(&mut value, &self.received[&c]),
                    u => ucols.push(u),
                }
            }
            ConstraintRow {
                kind: RowKind::Binary { cols: ucols },
                value,
            }
        };

        for row in ldpc_rows(p, t) {
            let RowKind::Binary { cols } = row.kind else {
                unreachable!("LDPC rows are binary")
            };
            rows.push(project_binary(cols, row.value));
        }
        // HDPC rows: unknown columns keep their coefficient (remapped),
        // known source symbols go into all H right-hand sides in one
        // fused pass each.
        let ks = k + p.s;
        let mut hdpc_coefs = vec![vec![0u8; n_unknown]; p.h];
        let mut known = HdpcFold::new(t);
        for (c, column) in hdpc_columns(p).iter().enumerate() {
            match compact[c] {
                KNOWN => known.fold(column, &self.received[&(c as u32)]),
                u => {
                    for (coefs, &coef) in hdpc_coefs.iter_mut().zip(column) {
                        coefs[u as usize] = coef;
                    }
                }
            }
        }
        for (h, mut coefs) in hdpc_coefs.into_iter().enumerate() {
            coefs[compact[ks + h] as usize] = 1;
            let mut value = vec![0u8; t];
            known.write_row(h, &mut value);
            rows.push(ConstraintRow {
                kind: RowKind::Dense { coefs },
                value,
            });
        }
        // One row per received repair symbol; its LT columns over the
        // intermediates (degree-floored, matching the encoder), known
        // sources folded into the RHS.
        let min_d = crate::params::sys_repair_min_degree(p.l);
        for (&esi, sym) in self.received.range(k as u32..) {
            let cols = lt_columns_with_floor(p, esi, min_d);
            rows.push(project_binary(cols, sym.clone()));
        }

        let mut st = self.stats.get();
        st.solver_decodes += 1;
        st.last_solve_unknowns = n_unknown;
        self.stats.set(st);

        let solution = match solve(n_unknown, rows, t) {
            Ok(c) => c,
            Err(SolveError::Singular) => {
                return Err(DecodeError::RankDeficient {
                    have: self.received.len(),
                })
            }
        };

        // Assemble: received source symbols verbatim, missing ones straight
        // from the solution (the intermediate *is* the source symbol — no
        // LT re-encode needed).
        let mut out = Vec::with_capacity(k * t);
        for esi in 0..k as u32 {
            if let Some(sym) = self.received.get(&esi) {
                out.extend_from_slice(sym);
            } else {
                out.extend_from_slice(&solution[compact[esi as usize] as usize]);
            }
        }
        out.truncate(self.code.data_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::rand::Xorshift64;

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
