//! The one-pass dense-row fold against the row-by-row construction it
//! replaced: per column, one multiply-accumulate sweep into each row —
//! one column per pass ([`HdpcFold::fold`]) and two
//! ([`HdpcFold::fold_all`], whose last column goes alone when the count
//! is odd). The reference multiplies byte by byte with [`gf256::mul`],
//! never through a slice kernel.

use proptest::prelude::*;
use rq::gf256;
use rq::hdpc::{HdpcFold, MAX_ROWS};
use rq::params::H_HDPC;
use rq::rand::Xorshift64;

/// Symbol sizes around the `u128` and 32-byte AVX2 widths, plus the
/// wire size.
const SYMBOL_SIZES: [usize; 9] = [1, 15, 16, 17, 31, 32, 33, 100, 1440];
/// Column counts: degenerate, the K+S of the 512 KiB benchmark object
/// (402), and past the paper's 4 MB block (3 020).
const COLUMN_COUNTS: [usize; 5] = [1, 2, 53, 402, 3000];
/// Row counts: the HDPC rows, and the extremes the solver's dense fold
/// uses.
const ROW_COUNTS: [usize; 3] = [H_HDPC, 1, MAX_ROWS];

/// `row[i] ^= coef · symbol[i]`, one byte at a time.
fn addmul_ref(row: &mut [u8], symbol: &[u8], coef: u8) {
    for (r, &x) in row.iter_mut().zip(symbol) {
        *r ^= gf256::mul(coef, x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fused_fold_equals_row_by_row_addmul(seed in any::<u64>()) {
        let mut rng = Xorshift64::new(seed);
        for (i, t) in SYMBOL_SIZES.into_iter().enumerate() {
            for (j, columns) in COLUMN_COUNTS.into_iter().enumerate() {
                let rows = ROW_COUNTS[(i + j) % ROW_COUNTS.len()];
                let mut fold = HdpcFold::new(rows, t);
                let mut reference = vec![vec![0u8; t]; rows];
                let mut folded = Vec::with_capacity(columns);
                for _ in 0..columns {
                    // 0 and 1 are the solver's common coefficients; keep them common.
                    let coefs: Vec<u8> = (0..rows)
                        .map(|_| match rng.next_below(8) {
                            0 => 0,
                            1 => 1,
                            _ => rng.next_below(256) as u8,
                        })
                        .collect();
                    let symbol: Vec<u8> = (0..t).map(|_| rng.next_below(256) as u8).collect();
                    fold.fold(&coefs, &symbol);
                    for (row, &coef) in reference.iter_mut().zip(&coefs) {
                        addmul_ref(row, &symbol, coef);
                    }
                    folded.push((coefs, symbol));
                }
                let mut paired = HdpcFold::new(rows, t);
                paired.fold_all(folded.iter().map(|(coefs, symbol)| (&coefs[..], &symbol[..])));
                for (h, expect) in reference.iter().enumerate() {
                    let ctx = format!("T={t} columns={columns} rows={rows} row {h}");
                    let mut row = vec![0xAAu8; t];
                    fold.write_row(h, &mut row);
                    prop_assert_eq!(&row, expect, "{}", ctx);
                    paired.write_row(h, &mut row);
                    prop_assert_eq!(&row, expect, "{}, paired", ctx);
                }
            }
        }
    }
}
