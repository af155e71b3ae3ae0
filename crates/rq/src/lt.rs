//! Plain LT code (Luby Transform) — the ablation baseline.
//!
//! LT is the fountain code *without* a precode: every encoding symbol is
//! the XOR of source symbols sampled from the robust soliton
//! distribution, and decoding is peeling/elimination straight over the
//! source symbols. Compared to the Raptor construction it needs noticeably
//! more reception overhead (Θ(√k·ln²(k/δ)) extra symbols instead of a
//! small constant) and is not systematic — both differences are measured
//! by the `ablations` binary to justify the paper's choice of RaptorQ.

use crate::gf256;
use crate::matrix::{ConstraintRow, RowKind};
use crate::params::next_prime;
use crate::rand::{hash2, rand};
use crate::solver::{solve, SolveError};

/// Robust soliton distribution over degrees `1..=k`.
#[derive(Debug, Clone)]
pub struct RobustSoliton {
    cumulative: Vec<f64>,
}

impl RobustSoliton {
    /// Build the distribution for `k` source symbols with the usual
    /// parameters (`c`, `delta`).
    pub fn new(k: usize, c: f64, delta: f64) -> Self {
        assert!(k >= 1);
        let kf = k as f64;
        let r = c * (kf / delta).ln() * kf.sqrt();
        let threshold = (kf / r).floor() as usize;
        let mut weights = vec![0f64; k + 1];
        // Ideal soliton.
        weights[1] = 1.0 / kf;
        for (d, w) in weights.iter_mut().enumerate().skip(2) {
            *w = 1.0 / (d as f64 * (d as f64 - 1.0));
        }
        // Robust addition τ.
        for (d, w) in weights.iter_mut().enumerate().skip(1) {
            if threshold >= 1 && d < threshold {
                *w += r / (d as f64 * kf);
            } else if threshold >= 1 && d == threshold {
                *w += r * (r / delta).ln() / kf;
            }
        }
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(k);
        let mut acc = 0.0;
        for w in &weights[1..] {
            acc += w / total;
            cumulative.push(acc);
        }
        // Guard against floating point drift.
        *cumulative.last_mut().expect("k >= 1") = 1.0;
        Self { cumulative }
    }

    /// Sample a degree from a uniform `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        match self
            .cumulative
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) | Err(i) => i + 1,
        }
    }
}

/// Columns (source-symbol indices) of LT encoding symbol `esi`.
fn lt_plain_columns(k: usize, dist: &RobustSoliton, seed: u64, esi: u32) -> Vec<u32> {
    let y = hash2(seed, u64::from(esi));
    let u = f64::from(rand(y, 0, 1 << 30)) / f64::from(1u32 << 30);
    let d = dist.sample(u).min(k);
    // Distinct-column walk modulo a prime, as in the Raptor LT encoder.
    let kp = next_prime(k.max(2)) as u32;
    let a = 1 + rand(y, 1, kp - 1);
    let mut b = rand(y, 2, kp);
    let mut cols = Vec::with_capacity(d);
    for _ in 0..d {
        while b >= k as u32 {
            b = (b + a) % kp;
        }
        cols.push(b);
        b = (b + a) % kp;
    }
    cols
}

/// Non-systematic LT encoder over `k` source symbols.
pub struct LtEncoder {
    source: Vec<Vec<u8>>,
    dist: RobustSoliton,
    seed: u64,
    symbol_size: usize,
    data_len: usize,
}

impl LtEncoder {
    /// Build an encoder; `seed` parameterizes the symbol stream.
    pub fn new(data: &[u8], symbol_size: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot LT-encode empty data");
        let k = data.len().div_ceil(symbol_size);
        let mut source = Vec::with_capacity(k);
        for i in 0..k {
            let start = i * symbol_size;
            let end = (start + symbol_size).min(data.len());
            let mut sym = data[start..end].to_vec();
            sym.resize(symbol_size, 0);
            source.push(sym);
        }
        Self {
            source,
            dist: RobustSoliton::new(k, 0.1, 0.05),
            seed,
            symbol_size,
            data_len: data.len(),
        }
    }

    /// Number of source symbols.
    pub fn k(&self) -> usize {
        self.source.len()
    }

    /// Original data length in bytes.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Produce encoding symbol `esi`.
    pub fn symbol(&self, esi: u32) -> Vec<u8> {
        let cols = lt_plain_columns(self.k(), &self.dist, self.seed, esi);
        let mut out = vec![0u8; self.symbol_size];
        for c in cols {
            gf256::xor_assign(&mut out, &self.source[c as usize]);
        }
        out
    }
}

/// LT decoder: collects symbols, solves over the source symbols directly.
pub struct LtDecoder {
    k: usize,
    symbol_size: usize,
    data_len: usize,
    dist: RobustSoliton,
    seed: u64,
    received: Vec<(u32, Vec<u8>)>,
    seen: std::collections::HashSet<u32>,
}

impl LtDecoder {
    /// Decoder matching an [`LtEncoder`] with the same `(k, symbol_size,
    /// data_len, seed)`.
    pub fn new(k: usize, symbol_size: usize, data_len: usize, seed: u64) -> Self {
        Self {
            k,
            symbol_size,
            data_len,
            dist: RobustSoliton::new(k, 0.1, 0.05),
            seed,
            received: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Add a symbol; `true` if new.
    pub fn push(&mut self, esi: u32, symbol: Vec<u8>) -> bool {
        assert_eq!(symbol.len(), self.symbol_size);
        if !self.seen.insert(esi) {
            return false;
        }
        self.received.push((esi, symbol));
        true
    }

    /// Distinct symbols so far.
    pub fn symbols_received(&self) -> usize {
        self.received.len()
    }

    /// Attempt decoding; `None` until the received set has full rank.
    pub fn try_decode(&self) -> Option<Vec<u8>> {
        if self.received.len() < self.k {
            return None;
        }
        let rows: Vec<ConstraintRow> = self
            .received
            .iter()
            .map(|(esi, sym)| ConstraintRow {
                kind: RowKind::Binary {
                    cols: lt_plain_columns(self.k, &self.dist, self.seed, *esi),
                },
                value: sym.clone(),
            })
            .collect();
        match solve(self.k, rows, self.symbol_size) {
            Ok(symbols) => {
                let mut out = Vec::with_capacity(self.k * self.symbol_size);
                for s in symbols {
                    out.extend_from_slice(&s);
                }
                out.truncate(self.data_len);
                Some(out)
            }
            Err(SolveError::Singular) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 1) as u8).collect()
    }

    #[test]
    fn soliton_cumulative_monotone() {
        let d = RobustSoliton::new(100, 0.1, 0.05);
        for w in d.cumulative.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((d.cumulative.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn soliton_sampling_in_range() {
        let d = RobustSoliton::new(50, 0.1, 0.05);
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            let deg = d.sample(u);
            assert!((1..=50).contains(&deg));
        }
    }

    #[test]
    fn lt_roundtrip_with_overhead() {
        let d = data(3200);
        let enc = LtEncoder::new(&d, 64, 99); // k = 50
        let k = enc.k();
        let mut dec = LtDecoder::new(k, 64, d.len(), 99);
        // LT needs noticeably more than k symbols; feed 1.4k and decode.
        for esi in 0..(k as u32 * 14 / 10) {
            dec.push(esi, enc.symbol(esi));
        }
        assert_eq!(dec.try_decode().expect("LT decode within 40% overhead"), d);
    }

    #[test]
    fn lt_insufficient_symbols() {
        let d = data(640);
        let enc = LtEncoder::new(&d, 64, 1);
        let mut dec = LtDecoder::new(enc.k(), 64, d.len(), 1);
        for esi in 0..5u32 {
            dec.push(esi, enc.symbol(esi));
        }
        assert!(dec.try_decode().is_none());
    }

    #[test]
    fn different_seeds_different_streams() {
        let d = data(640);
        let a = LtEncoder::new(&d, 64, 1);
        let b = LtEncoder::new(&d, 64, 2);
        let differs = (0..20u32).any(|esi| a.symbol(esi) != b.symbol(esi));
        assert!(differs);
    }
}
