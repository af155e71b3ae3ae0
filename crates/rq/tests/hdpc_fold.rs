//! The one-pass HDPC kernel against the row-by-row construction it
//! replaced: `H` independent `gf256::addmul` sweeps per column — one
//! column per pass ([`HdpcFold::fold`]) and two ([`HdpcFold::fold_all`],
//! whose last column goes alone when the count is odd).

use proptest::prelude::*;
use rq::gf256;
use rq::hdpc::HdpcFold;
use rq::params::H_HDPC;
use rq::rand::Xorshift64;

/// Symbol sizes around the `u128`/SIMD widths, plus the wire size.
const SYMBOL_SIZES: [usize; 6] = [1, 15, 16, 17, 100, 1440];
/// Column counts: degenerate, the K+S of the 512 KiB benchmark object
/// (402), and past the paper's 4 MB block (3 020).
const COLUMN_COUNTS: [usize; 5] = [1, 2, 53, 402, 3000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fused_fold_equals_row_by_row_addmul(seed in any::<u64>()) {
        let mut rng = Xorshift64::new(seed);
        for t in SYMBOL_SIZES {
            for columns in COLUMN_COUNTS {
                let mut fold = HdpcFold::new(t);
                let mut reference = vec![vec![0u8; t]; H_HDPC];
                let mut folded = Vec::with_capacity(columns);
                for _ in 0..columns {
                    // 0 and 1 take addmul's dedicated paths; keep them common.
                    let coefs: [u8; H_HDPC] = std::array::from_fn(|_| match rng.next_below(8) {
                        0 => 0,
                        1 => 1,
                        _ => rng.next_below(256) as u8,
                    });
                    let symbol: Vec<u8> = (0..t).map(|_| rng.next_below(256) as u8).collect();
                    fold.fold(&coefs, &symbol);
                    for (row, &coef) in reference.iter_mut().zip(&coefs) {
                        gf256::addmul(row, &symbol, coef);
                    }
                    folded.push((coefs, symbol));
                }
                let mut paired = HdpcFold::new(t);
                paired.fold_all(folded.iter().map(|(coefs, symbol)| (coefs, &symbol[..])));
                for (h, expect) in reference.iter().enumerate() {
                    let mut row = vec![0xAAu8; t];
                    fold.write_row(h, &mut row);
                    prop_assert_eq!(&row, expect, "T={} columns={} row {}", t, columns, h);
                    paired.write_row(h, &mut row);
                    prop_assert_eq!(&row, expect, "T={} columns={} row {}, paired", t, columns, h);
                }
            }
        }
    }
}
