//! Inactivation decoding: the linear solver behind the decoder's
//! reduced solve.
//!
//! The solver runs the classic three-phase pipeline:
//!
//! 1. **Structural peeling with inactivation.** Working only on the sparse
//!    binary rows' column sets (no symbol arithmetic), repeatedly select a
//!    minimum-active-degree row; if its degree is 1 it pivots directly
//!    (belief-propagation peeling), otherwise all but one of its active
//!    columns are *inactivated* and it pivots on the survivor. Because a
//!    pivot row has exactly one active column at selection time, the pivot
//!    order triangularizes the active sub-matrix — no fill-in occurs and
//!    active-column membership never changes, which is what makes the
//!    structural phase purely combinatorial.
//! 2. **Forward elimination + dense solve.** Replay the pivots in order,
//!    now carrying symbol values and each row's dense projection onto the
//!    inactivated columns. A pivot's value is final once it has pivoted,
//!    so the dense GF(256) rows take all pivot values in one
//!    [`HdpcFold`] pass after the replay. The never-selected rows
//!    (including the dense rows) end up as a small dense system over the
//!    inactivated unknowns, solved by Gaussian elimination.
//! 3. **Back-substitution.** Each pivot row is, by construction, `pivot
//!    column + (inactive projection)`, so pivot unknowns fall out with one
//!    fused multiply-accumulate pass per row.
//!
//! Failure surfaces as [`SolveError::Singular`]: the decoder responds by
//! waiting for more symbols (the encoder never solves).

use crate::gf256::{self, Avx2};
use crate::hdpc::{HdpcFold, MAX_ROWS};
use crate::matrix::{ConstraintRow, RowKind};

/// Why a solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The system does not have full column rank — more (or different)
    /// rows are needed.
    Singular,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular => write!(f, "constraint matrix is rank deficient"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Column state during the structural phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    Active,
    Inactive(u32), // index into the inactive ordering
    Pivoted,
}

/// Solve `rows · C = values` for the `l` intermediate symbols.
///
/// Every returned symbol has `symbol_size` bytes. The rows may be any mix
/// of sparse binary and dense GF(256) rows; at least `l` independent rows
/// are required.
pub fn solve(
    l: usize,
    rows: Vec<ConstraintRow>,
    symbol_size: usize,
) -> Result<Vec<Vec<u8>>, SolveError> {
    if rows.len() < l {
        return Err(SolveError::Singular);
    }

    // Split rows: sparse binary rows participate in peeling; dense rows go
    // straight to the dense phase.
    let mut bin_cols: Vec<Vec<u32>> = Vec::new(); // column sets of binary rows
    let mut bin_values: Vec<Vec<u8>> = Vec::new();
    let mut dense_coefs: Vec<Vec<u8>> = Vec::new();
    let mut dense_values: Vec<Vec<u8>> = Vec::new();
    for row in rows {
        debug_assert_eq!(row.value.len(), symbol_size, "RHS size mismatch");
        match row.kind {
            RowKind::Binary { cols } => {
                debug_assert!(cols.iter().all(|&c| (c as usize) < l));
                bin_cols.push(cols);
                bin_values.push(row.value);
            }
            RowKind::Dense { coefs } => {
                debug_assert_eq!(coefs.len(), l);
                dense_coefs.push(coefs);
                dense_values.push(row.value);
            }
        }
    }
    let n_bin = bin_cols.len();

    // ---- Phase 1: structural peeling with inactivation -----------------
    let mut col_state = vec![ColState::Active; l];
    let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); l]; // binary rows touching each column
    for (r, cols) in bin_cols.iter().enumerate() {
        for &c in cols {
            col_rows[c as usize].push(r as u32);
        }
    }
    let mut degree: Vec<u32> = bin_cols.iter().map(|c| c.len() as u32).collect();
    let mut selected = vec![false; n_bin];

    // Degree buckets with lazy deletion: buckets[d] holds candidate rows
    // whose degree was d when pushed; stale entries are skipped on pop.
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 2];
    for (r, &d) in degree.iter().enumerate() {
        buckets[d as usize].push(r as u32);
    }

    let mut pivots: Vec<(u32, u32)> = Vec::new(); // (binary row, column)
    let mut elim_targets: Vec<Vec<u32>> = Vec::new(); // rows to eliminate per pivot
    let mut inactive_cols: Vec<u32> = Vec::new(); // inactive index -> column
    let mut n_inactive: u32 = 0;
    let mut active_remaining = l;

    // Re-bucket helper is inlined below (push row at its current degree).
    loop {
        // Pop the lowest-degree live row (degree >= 1).
        let mut chosen: Option<u32> = None;
        'outer: for (d, bucket) in buckets.iter_mut().enumerate().skip(1) {
            while let Some(&r) = bucket.last() {
                if selected[r as usize] || degree[r as usize] as usize != d {
                    bucket.pop();
                    continue;
                }
                chosen = Some(r);
                break 'outer;
            }
        }
        let Some(r) = chosen else {
            // No selectable row left: everything still active is solved
            // densely.
            for (c, state) in col_state.iter_mut().enumerate() {
                if *state == ColState::Active {
                    *state = ColState::Inactive(n_inactive);
                    inactive_cols.push(c as u32);
                    n_inactive += 1;
                }
            }
            break;
        };
        buckets[degree[r as usize] as usize].pop();
        selected[r as usize] = true;

        // The row's active columns.
        let active_cols: Vec<u32> = bin_cols[r as usize]
            .iter()
            .copied()
            .filter(|&c| col_state[c as usize] == ColState::Active)
            .collect();
        debug_assert_eq!(active_cols.len() as u32, degree[r as usize]);

        // Keep the heaviest column as the pivot (it will peel the most
        // other rows); inactivate the rest.
        let pivot_col = *active_cols
            .iter()
            .max_by_key(|&&c| col_rows[c as usize].len())
            .expect("row with degree >= 1 has an active column");
        for &c in &active_cols {
            if c == pivot_col {
                continue;
            }
            col_state[c as usize] = ColState::Inactive(n_inactive);
            inactive_cols.push(c);
            n_inactive += 1;
            active_remaining -= 1;
            for &other in &col_rows[c as usize] {
                if !selected[other as usize] {
                    degree[other as usize] -= 1;
                    let d = degree[other as usize] as usize;
                    if d > 0 {
                        buckets[d].push(other);
                    }
                }
            }
        }

        // Pivot: remove the column from play, collect elimination targets.
        col_state[pivot_col as usize] = ColState::Pivoted;
        active_remaining -= 1;
        let mut targets = Vec::new();
        for &other in &col_rows[pivot_col as usize] {
            if other != r && !selected[other as usize] {
                targets.push(other);
                degree[other as usize] -= 1;
                let d = degree[other as usize] as usize;
                if d > 0 {
                    buckets[d].push(other);
                }
            }
        }
        pivots.push((r, pivot_col));
        elim_targets.push(targets);

        if active_remaining == 0 {
            break;
        }
    }

    let n_inactive = n_inactive as usize;

    // ---- Phase 2: numeric forward elimination ---------------------------
    // Dense projection of every binary row onto the inactive columns.
    let inactive_index = |c: u32| -> Option<usize> {
        match col_state[c as usize] {
            ColState::Inactive(i) => Some(i as usize),
            _ => None,
        }
    };
    let mut bin_inact: Vec<Vec<u8>> = bin_cols
        .iter()
        .map(|cols| {
            let mut v = vec![0u8; n_inactive];
            for &c in cols {
                if let Some(i) = inactive_index(c) {
                    v[i] ^= 1;
                }
            }
            v
        })
        .collect();
    let mut dense_inact: Vec<Vec<u8>> = dense_coefs
        .iter()
        .map(|coefs| {
            let mut v = vec![0u8; n_inactive];
            for (c, &coef) in coefs.iter().enumerate() {
                if coef != 0 {
                    if let Some(i) = inactive_index(c as u32) {
                        v[i] = coef;
                    }
                }
            }
            v
        })
        .collect();

    for (&(prow, pcol), targets) in pivots.iter().zip(&elim_targets) {
        // The pivot row is read while its targets, in the same vectors,
        // are written; it is never its own target, so it steps out of
        // its slot meanwhile.
        let p_value = std::mem::take(&mut bin_values[prow as usize]);
        let p_inact = std::mem::take(&mut bin_inact[prow as usize]);
        for &t in targets {
            gf256::xor_assign(&mut bin_values[t as usize], &p_value);
            gf256::xor_assign(&mut bin_inact[t as usize], &p_inact);
        }
        for (d_coefs, d_inact) in dense_coefs.iter().zip(&mut dense_inact) {
            gf256::addmul(d_inact, &p_inact, d_coefs[pcol as usize]);
        }
        bin_values[prow as usize] = p_value;
        bin_inact[prow as usize] = p_inact;
    }
    // A pivot row's value is final once it has pivoted, and no dense
    // coefficient changes, so the dense rows take every pivot's value in
    // one fold after the replay instead of one `addmul` each.
    let pivot_values = pivots
        .iter()
        .map(|&(prow, pcol)| (pcol, &bin_values[prow as usize][..]));
    fold_pivots(
        &dense_coefs,
        &mut dense_values,
        pivot_values,
        symbol_size,
        Avx2::detect(),
    );

    // ---- Phase 3: dense solve over the inactive unknowns ----------------
    // Equations: never-selected binary rows (spares) + all dense rows.
    let mut eq_coefs: Vec<Vec<u8>> = Vec::new();
    let mut eq_values: Vec<Vec<u8>> = Vec::new();
    for r in 0..n_bin {
        if !selected[r] {
            eq_coefs.push(std::mem::take(&mut bin_inact[r]));
            eq_values.push(std::mem::take(&mut bin_values[r]));
        }
    }
    for (c, v) in dense_inact.into_iter().zip(dense_values) {
        eq_coefs.push(c);
        eq_values.push(v);
    }
    let inactive_solution = gaussian_solve(n_inactive, &mut eq_coefs, &mut eq_values)?;

    // ---- Back-substitution ----------------------------------------------
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); l];
    for (i, sol) in inactive_solution.into_iter().enumerate() {
        out[inactive_cols[i] as usize] = sol;
    }
    // Every pivot row is `pivot column + inactive projection = value`, so
    // each pivot unknown falls out directly (no ordering constraint).
    for &(prow, pcol) in &pivots {
        let mut val = std::mem::take(&mut bin_values[prow as usize]);
        let inact = &bin_inact[prow as usize];
        for (i, &coef) in inact.iter().enumerate() {
            if coef != 0 {
                gf256::addmul(&mut val, &out[inactive_cols[i] as usize], coef);
            }
        }
        out[pcol as usize] = val;
    }

    debug_assert!(out.iter().all(|s| s.len() == symbol_size));
    Ok(out)
}

/// Add `coefs[r][col] · value` of every `(col, value)` pivot to dense
/// row `r`'s right-hand side `values[r]`: one [`HdpcFold`] pass per group
/// of at most [`MAX_ROWS`] rows, with the AVX2 kernel or without it.
fn fold_pivots<'a>(
    coefs: &[Vec<u8>],
    values: &mut [Vec<u8>],
    pivots: impl Iterator<Item = (u32, &'a [u8])> + Clone,
    symbol_size: usize,
    avx2: Option<Avx2>,
) {
    let mut row = vec![0u8; symbol_size];
    for (coefs, values) in coefs.chunks(MAX_ROWS).zip(values.chunks_mut(MAX_ROWS)) {
        let mut columns = Vec::new();
        for (col, value) in pivots.clone() {
            let column: Vec<u8> = coefs.iter().map(|c| c[col as usize]).collect();
            if column.iter().any(|&c| c != 0) {
                columns.push((column, value));
            }
        }
        if columns.is_empty() {
            continue;
        }
        let mut fold = HdpcFold::with_kernel(coefs.len(), symbol_size, avx2);
        fold.fold_all(columns.iter().map(|(column, value)| (&column[..], *value)));
        for (h, value) in values.iter_mut().enumerate() {
            fold.write_row(h, &mut row);
            gf256::xor_assign(value, &row);
        }
    }
}

/// Dense Gaussian elimination over GF(256).
///
/// Solves for `n` unknowns given equation rows (`coefs[i].len() == n`)
/// with symbol-valued RHS. Returns the unknowns in index order.
fn gaussian_solve(
    n: usize,
    coefs: &mut [Vec<u8>],
    values: &mut [Vec<u8>],
) -> Result<Vec<Vec<u8>>, SolveError> {
    let m = coefs.len();
    if m < n {
        return Err(SolveError::Singular);
    }
    let mut pivot_row_of: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; m];
    for col in 0..n {
        // Find a row with a nonzero coefficient in this column.
        let Some(r) = (0..m).find(|&r| !used[r] && coefs[r][col] != 0) else {
            return Err(SolveError::Singular);
        };
        used[r] = true;
        pivot_row_of.push(r);
        // Normalize the pivot row.
        let p = coefs[r][col];
        if p != 1 {
            let pinv = gf256::inv(p);
            gf256::mul_slice(&mut coefs[r], pinv);
            gf256::mul_slice(&mut values[r], pinv);
        }
        // Eliminate the column from every other row.
        let (prow_coefs, prow_value) = (coefs[r].clone(), values[r].clone());
        for other in 0..m {
            if other == r {
                continue;
            }
            let beta = coefs[other][col];
            if beta != 0 {
                gf256::addmul(&mut coefs[other], &prow_coefs, beta);
                gf256::addmul(&mut values[other], &prow_value, beta);
            }
        }
    }
    Ok(pivot_row_of
        .into_iter()
        .map(|r| std::mem::take(&mut values[r]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RowKind;

    fn bin(cols: &[u32], value: Vec<u8>) -> ConstraintRow {
        ConstraintRow {
            kind: RowKind::Binary {
                cols: cols.to_vec(),
            },
            value,
        }
    }

    fn dense(coefs: Vec<u8>, value: Vec<u8>) -> ConstraintRow {
        ConstraintRow {
            kind: RowKind::Dense { coefs },
            value,
        }
    }

    #[test]
    fn identity_system() {
        // C[i] = i+1 via unit rows.
        let rows: Vec<_> = (0..4u32).map(|i| bin(&[i], vec![i as u8 + 1])).collect();
        let c = solve(4, rows, 1).unwrap();
        assert_eq!(c, vec![vec![1], vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn xor_chain_system() {
        // c0 = 5, c0^c1 = 6, c1^c2 = 10 → c1 = 3, c2 = 9.
        let rows = vec![
            bin(&[0], vec![5]),
            bin(&[0, 1], vec![6]),
            bin(&[1, 2], vec![10]),
        ];
        let c = solve(3, rows, 1).unwrap();
        assert_eq!(c, vec![vec![5], vec![3], vec![9]]);
    }

    #[test]
    fn dense_row_system() {
        // 2·c0 + 3·c1 = rhs, c0 = 7 → recover c1.
        let two_c0 = gf256::mul(2, 7);
        let c1 = 0x5A;
        let rhs = two_c0 ^ gf256::mul(3, c1);
        let rows = vec![bin(&[0], vec![7]), dense(vec![2, 3], vec![rhs])];
        let c = solve(2, rows, 1).unwrap();
        assert_eq!(c[0], vec![7]);
        assert_eq!(c[1], vec![c1]);
    }

    #[test]
    fn singular_reported() {
        // Two identical rows cannot pin down two unknowns.
        let rows = vec![bin(&[0, 1], vec![1]), bin(&[0, 1], vec![1])];
        assert_eq!(solve(2, rows, 1), Err(SolveError::Singular));
    }

    #[test]
    fn underdetermined_reported() {
        let rows = vec![bin(&[0], vec![1])];
        assert_eq!(solve(2, rows, 1), Err(SolveError::Singular));
    }

    #[test]
    fn random_dense_roundtrip() {
        // Random dense GF(256) systems of moderate size: solve and verify
        // by substitution.
        use crate::rand::Xorshift64;
        let n = 24;
        let t = 8;
        let mut rng = Xorshift64::new(0xBEEF);
        let secret: Vec<Vec<u8>> = (0..n)
            .map(|_| (0..t).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let mut rows = Vec::new();
        for _ in 0..n + 3 {
            let coefs: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            let mut value = vec![0u8; t];
            for (j, &cf) in coefs.iter().enumerate() {
                gf256::addmul(&mut value, &secret[j], cf);
            }
            rows.push(dense(coefs, value));
        }
        let solved = solve(n, rows, t).unwrap();
        assert_eq!(solved, secret);
    }

    #[test]
    fn mixed_sparse_dense_roundtrip() {
        use crate::rand::Xorshift64;
        let n = 40;
        let t = 16;
        let mut rng = Xorshift64::new(42);
        let secret: Vec<Vec<u8>> = (0..n)
            .map(|_| (0..t).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let mut rows = Vec::new();
        // Sparse rows covering random subsets.
        for _ in 0..n {
            let deg = 1 + (rng.next_below(4) as usize);
            let mut cols: Vec<u32> = Vec::new();
            while cols.len() < deg {
                let c = rng.next_below(n as u64) as u32;
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            let mut value = vec![0u8; t];
            for &c in &cols {
                gf256::xor_assign(&mut value, &secret[c as usize]);
            }
            rows.push(bin(&cols, value));
        }
        // A few dense rows to heal any rank gaps.
        for _ in 0..8 {
            let coefs: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            let mut value = vec![0u8; t];
            for (j, &cf) in coefs.iter().enumerate() {
                gf256::addmul(&mut value, &secret[j], cf);
            }
            rows.push(dense(coefs, value));
        }
        let solved = solve(n, rows, t).unwrap();
        assert_eq!(solved, secret);
    }

    #[test]
    fn deferred_dense_fold_matches_reference_at_unaligned_lengths() {
        use crate::gf256::tests::{bytes, kernels, mul_ref, KERNEL_LENGTHS};
        // 20 dense rows (one fold of 16 rows and one of 4) and 14 pivots
        // on columns 0..14. Row r has coefficient 13·r + c on column
        // c < 13, so all 256 scalars occur; column 13 is zero in the
        // second group, which skips it.
        let (n_rows, n_pivots) = (20, 14);
        let coefs: Vec<Vec<u8>> = (0..n_rows)
            .map(|r| {
                (0..n_pivots)
                    .map(|c| match c {
                        13 if r >= 16 => 0,
                        _ => (13 * r + c) as u8,
                    })
                    .collect()
            })
            .collect();
        for kernel in kernels() {
            for len in KERNEL_LENGTHS {
                let buffers: Vec<Vec<u8>> = (0..n_pivots)
                    .map(|c| bytes(c as u64 * 31 + len as u64, len + 1))
                    .collect();
                let pivots = buffers
                    .iter()
                    .enumerate()
                    .map(|(c, buf)| (c as u32, &buf[1..]));
                let base: Vec<Vec<u8>> = (0..n_rows).map(|r| bytes(!(r as u64), len)).collect();
                let mut values = base.clone();
                fold_pivots(&coefs, &mut values, pivots.clone(), len, kernel);
                for (r, (value, base)) in values.iter().zip(&base).enumerate() {
                    let expect: Vec<u8> = (0..len)
                        .map(|i| {
                            pivots.clone().fold(base[i], |acc, (c, v)| {
                                acc ^ mul_ref(coefs[r][c as usize], v[i])
                            })
                        })
                        .collect();
                    assert_eq!(value, &expect, "{kernel:?} len={len} row {r}");
                }
            }
        }
    }
}
