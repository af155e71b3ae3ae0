//! LT tuple generation: which intermediate symbols make up an encoding
//! symbol.
//!
//! Every encoding symbol is identified by its *encoding symbol id* (ESI).
//! The tuple generator maps an ESI to a triple
//! `(d, a, b)`; the symbol is then the XOR of `d` intermediate symbols
//! visited by the walk `b, b+a, b+2a, … (mod L')`, skipping positions
//! `>= L` — the RFC 5053/6330 construction. Because `L'` is prime the walk
//! visits every residue, so the columns of one symbol are distinct.

use crate::degree::{degree, DEGREE_DOMAIN};
use crate::params::BlockParams;
use crate::rand::{hash2, rand};

/// An LT tuple: degree and walk parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// Number of intermediate symbols XORed together.
    pub d: u32,
    /// Walk stride, `1 <= a < L'`.
    pub a: u32,
    /// Walk start, `0 <= b < L'`.
    pub b: u32,
}

/// Generate the tuple for encoding symbol `esi`.
pub fn tuple(params: &BlockParams, esi: u32) -> Tuple {
    let y = hash2(0xC0DE, u64::from(esi));
    let v = rand(y, 0, DEGREE_DOMAIN);
    let d = degree(v);
    let a = 1 + rand(y, 1, (params.l_prime - 1) as u32);
    let b = rand(y, 2, params.l_prime as u32);
    Tuple { d, a, b }
}

/// The intermediate-symbol columns of encoding symbol `esi`, with a
/// minimum walk degree.
///
/// Returns indices in `[0, L)`, all distinct: the LT walk plus one
/// *permanently-inactive* (PI) column from the last
/// [`BlockParams::pi`] columns — RFC 6330's PI structure. Without the
/// PI column, sparse dependencies (two degree-1 rows on the same
/// column; cycles in the degree-2 graph) accumulate linearly in `K`;
/// the PI column breaks binary cancellation patterns at the cost of
/// one extra XOR per symbol.
///
/// Repair symbols use a floored degree
/// ([`crate::params::sys_repair_min_degree`]): with received source
/// symbols folded out of the decode system, a repair row only
/// contributes the columns that remain unknown, and the plain LT degree
/// distribution (mean ≈ 4.6) leaves too few — the projected rows
/// degenerate to degree ≈ 2 at moderate loss and the reduced system goes
/// rank-deficient at rates far above the code's overhead-failure
/// envelope. Flooring the walk degree restores the envelope at the cost
/// of a few extra XORs per *repair* symbol (source symbols are emitted
/// verbatim and pay nothing). `min_d = 0` is the plain distribution.
pub fn lt_columns_with_floor(params: &BlockParams, esi: u32, min_d: u32) -> Vec<u32> {
    let Tuple { d, a, b } = tuple(params, esi);
    let l = params.l as u32;
    let lp = params.l_prime as u32;
    let d = d.max(min_d).min(l); // degree can't exceed the number of intermediates
    let mut cols = Vec::with_capacity(d as usize + 1);
    let mut b = b;
    while b >= l {
        b = (b + a) % lp;
    }
    cols.push(b);
    for _ in 1..d {
        b = (b + a) % lp;
        while b >= l {
            b = (b + a) % lp;
        }
        cols.push(b);
    }
    // PI column: one draw from the dense-handled tail range [L−P, L).
    let y = crate::rand::hash2(0xC0DE, u64::from(esi));
    let pi_col = l - params.pi as u32 + crate::rand::rand(y, 3, params.pi as u32);
    if !cols.contains(&pi_col) {
        cols.push(pi_col);
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(k: usize) -> BlockParams {
        BlockParams::new(k)
    }

    #[test]
    fn tuples_deterministic() {
        let p = params(100);
        for esi in 0..50 {
            assert_eq!(tuple(&p, esi), tuple(&p, esi));
        }
    }

    #[test]
    fn columns_distinct_and_in_range() {
        for k in [1usize, 2, 10, 100, 1000] {
            let p = params(k);
            for esi in 0..200u32 {
                let cols = lt_columns_with_floor(&p, esi, 0);
                assert!(!cols.is_empty());
                let mut sorted = cols.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    cols.len(),
                    "duplicate column for esi={esi} k={k}"
                );
                assert!(cols.iter().all(|&c| (c as usize) < p.l));
            }
        }
    }

    #[test]
    fn column_degree_matches_tuple() {
        // Walk degree plus the PI column (which dedups against the walk,
        // so the total is d or d+1).
        let p = params(500);
        for esi in 0..500u32 {
            let t = tuple(&p, esi);
            let cols = lt_columns_with_floor(&p, esi, 0);
            let d = t.d.min(p.l as u32);
            assert!(
                cols.len() as u32 == d || cols.len() as u32 == d + 1,
                "esi={esi}: {} cols vs walk degree {d}",
                cols.len()
            );
            // The PI column lands in the tail range.
            let pi_lo = (p.l - p.pi) as u32;
            assert!(
                cols.iter().any(|&c| c >= pi_lo),
                "esi={esi}: no PI-range column"
            );
        }
    }

    #[test]
    fn distinct_esis_mostly_distinct_tuples() {
        // Statistical uniqueness: the property multi-source senders rely
        // on. Among 10k ESIs the full column sets collide only with
        // birthday-bound probability.
        let p = params(1000);
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for esi in 0..10_000u32 {
            let mut cols = lt_columns_with_floor(&p, esi, 0);
            cols.sort_unstable();
            if !seen.insert(cols) {
                collisions += 1;
            }
        }
        // Degree-1/2 symbols collide occasionally; that is fine — the
        // decoder dedups by ESI, and collisions only waste a symbol.
        assert!(collisions < 300, "too many tuple collisions: {collisions}");
    }
}
