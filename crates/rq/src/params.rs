//! Code parameters derived from the source-block size `K`.
//!
//! For a block of `K` source symbols the code uses
//! `L = K + S + H` *intermediate* symbols:
//!
//! * `S` sparse binary LDPC constraint symbols (RFC 5053 §5.4.2.3 recipe),
//! * `H` dense GF(256) HDPC constraint symbols (the RaptorQ-family
//!   improvement that buys the steep overhead-failure curve),
//! * the `K` source symbols themselves, tied to the intermediates by the
//!   systematic LT relation.
//!
//! **Substitution S1 (see DESIGN.md):** RFC 6330 ships a 477-entry table of
//! supported `K'` values with per-row constants. We instead *derive*
//! `(S, H)` from any `K` with the same structural recipe and validate the
//! overhead/failure contract empirically in tests and benches.

/// Hard upper bound on the number of source symbols in one block.
///
/// Keeps solver memory and time bounded; larger objects are split into
/// blocks by [`crate::block`].
pub const MAX_K: usize = 16_384;

/// Number of dense GF(256) HDPC constraint rows.
///
/// With random dense rows over GF(256) the probability that the dense
/// solve loses rank falls by ~2^-8 per extra row, so 12 rows put the
/// code-construction failure floor far below the per-decode failure rates
/// the paper cares about (10^-6 at two extra symbols).
pub const H_HDPC: usize = 12;

/// The code construction. There is one: the SCDP-style systematic
/// construction, whose intermediates *are*
/// `[source | LDPC parity | HDPC parity]` — computed directly, with no
/// linear solve at encode time — and whose decoder pins received source
/// symbols straight into the output, so only missing sources plus the
/// parity tail go through the inactivation solver (decode cost shrinks
/// with the loss count and a lossless block is a pure copy).
///
/// A one-variant enum because `bench_e2e/src/layers.rs` names
/// `CodeMode::Systematic` and the benchmark is edited only by
/// `benchmark` PRs (ROADMAP, "API the benchmark pins").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodeMode {
    /// Direct parity construction; no solve at encode, shrinking solve at
    /// decode.
    #[default]
    Systematic,
}

/// Minimum LT walk degree for repair symbols, as a function of the
/// intermediate-block size `L`.
///
/// The direct construction folds received source symbols out of the
/// decode system, so a repair row only contributes its columns that are
/// still unknown; with the plain degree distribution (mean ≈ 4.6) the
/// projected rows thin out to degree ≈ 2 at moderate loss and the reduced
/// system goes rank-deficient far more often than the code's
/// overhead-failure envelope allows. Flooring the walk degree — scaled
/// with `L` so the projection keeps enough weight as blocks grow — keeps
/// the reduced system's rank deficiency on the envelope (validated
/// empirically in `tests/systematic_battery.rs::loss_sweep_overhead_envelope`
/// and the benchmark's `rq.decode_fail_share`), at the cost of extra
/// symbol XORs per *repair* symbol — source symbols pay nothing.
pub fn sys_repair_min_degree(l: usize) -> u32 {
    (10 + l / 16) as u32
}

/// Parameters of a single source block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParams {
    /// Number of source symbols.
    pub k: usize,
    /// Number of LDPC constraint symbols.
    pub s: usize,
    /// Number of HDPC constraint symbols.
    pub h: usize,
    /// Number of intermediate symbols (`k + s + h`).
    pub l: usize,
    /// Smallest prime `>= l`; the LT tuple walk works modulo this.
    pub l_prime: usize,
    /// Number of permanently-inactive columns at the tail of the
    /// intermediate block: every LT row carries one extra column drawn
    /// from the last `pi` columns (RFC 6330's PI structure), which
    /// suppresses sparse binary dependencies that otherwise make the
    /// systematic construction fail at large `K`.
    pub pi: usize,
}

impl BlockParams {
    /// Derive parameters for a block of `k` source symbols.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > MAX_K`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "block must have at least one source symbol");
        assert!(k <= MAX_K, "K={k} exceeds MAX_K={MAX_K}");
        // X = smallest integer with X(X-1) >= 2K  (RFC 5053).
        let mut x = 1usize;
        while x * (x.saturating_sub(1)) < 2 * k {
            x += 1;
        }
        // S = smallest prime >= ceil(0.01 K) + X.
        let s = next_prime(k.div_ceil(100) + x);
        let h = H_HDPC;
        let l = k + s + h;
        let l_prime = next_prime(l);
        // PI range: grows slowly with K so the per-construction
        // dependency rate stays flat (birthday terms scale ~K/pi).
        let pi = (h + k / 512).min(l / 2).max(4);
        Self {
            k,
            s,
            h,
            l,
            l_prime,
            pi,
        }
    }
}

/// Smallest prime `>= n`.
pub fn next_prime(n: usize) -> usize {
    let mut candidate = n.max(2);
    loop {
        if is_prime(candidate) {
            return candidate;
        }
        candidate += 1;
    }
}

/// Deterministic trial-division primality test (inputs here are small).
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// RFC 6330 §4.4.1.2 partition function: split `i` items into `j` nearly
/// equal parts. Returns `(il, is, jl, js)`: `jl` parts of size `il` and
/// `js` parts of size `is`.
pub fn partition(i: usize, j: usize) -> (usize, usize, usize, usize) {
    assert!(j > 0, "partition into zero parts");
    let il = i.div_ceil(j);
    let is = i / j;
    let jl = i - is * j;
    let js = j - jl;
    (il, is, jl, js)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_basic() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(9));
        assert!(is_prime(7919));
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(11), 11);
    }

    #[test]
    fn params_small_k() {
        for k in 1..=64 {
            let p = BlockParams::new(k);
            assert!(p.s >= 2, "S too small for K={k}");
            assert!(is_prime(p.s));
            assert_eq!(p.l, p.k + p.s + p.h);
            assert!(p.l_prime >= p.l);
            assert!(is_prime(p.l_prime));
        }
    }

    #[test]
    fn params_monotone_overheadish() {
        // S grows sub-linearly: the proportional overhead of the precode
        // shrinks as K grows (S ~ 0.01K + sqrt(2K)).
        let p100 = BlockParams::new(100);
        let p10000 = BlockParams::new(10_000);
        let r100 = p100.s as f64 / 100.0;
        let r10000 = p10000.s as f64 / 10_000.0;
        assert!(r10000 < r100);
    }

    #[test]
    fn params_k_2913() {
        // The paper's 4 MB blocks at 1440-byte symbols → K = 2913.
        let p = BlockParams::new(2913);
        assert_eq!(p.k, 2913);
        // X: X(X-1) >= 5826 → X = 77 (77*76 = 5852).
        // S = next_prime(ceil(29.13) + 77) = next_prime(107) = 107.
        assert_eq!(p.s, 107);
        assert_eq!(p.h, H_HDPC);
        assert_eq!(p.l, 2913 + 107 + 12);
    }

    #[test]
    #[should_panic(expected = "at least one source symbol")]
    fn zero_k_panics() {
        BlockParams::new(0);
    }

    #[test]
    fn partition_covers_everything() {
        for i in [1usize, 5, 100, 2913, 100_000] {
            for j in [1usize, 2, 3, 7, 64] {
                let (il, is, jl, js) = partition(i, j);
                assert_eq!(jl + js, j, "part count");
                assert_eq!(il * jl + is * js, i, "items covered exactly");
                if jl > 0 && js > 0 {
                    assert_eq!(il, is + 1, "part sizes differ by at most 1");
                }
            }
        }
    }
}
