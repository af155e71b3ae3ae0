//! The in-place decoder against its by-value forms: a symbol written
//! into its slot by [`Decoder::push_with`] and decoded where it lies by
//! [`Decoder::decode_in_place`] must be indistinguishable — in bytes, in
//! `Ok`/`Err`, in duplicate detection and in the symbol count — from
//! `push(Vec)` + `try_decode`, and from the forced solver.

use proptest::prelude::*;
use rq::rand::Xorshift64;
use rq::{Decoder, Encoder};

/// Block sizes around the 16-symbol storage chunk, plus the 512 KiB
/// benchmark object's K.
const KS: [usize; 6] = [1, 15, 16, 17, 40, 365];
/// Symbol sizes: one word, not a multiple of 8, the wire size.
const SYMBOL_SIZES: [usize; 3] = [8, 100, 1440];

/// A length of `k` symbols of `t` bytes that is a multiple of neither
/// `t` nor 8: the last symbol is padded and the object ends mid-word.
fn ragged_len(k: usize, t: usize, rng: &mut Xorshift64) -> usize {
    let mut cut = 1 + rng.next_below(t as u64 - 1) as usize;
    if (k * t - cut).is_multiple_of(8) {
        cut = if cut > 1 { cut - 1 } else { cut + 1 };
    }
    k * t - cut
}

/// Exactly `k` distinct ESIs — the sources that survive `loss_pct` %
/// loss, topped up from the repair stream — in arrival order: shuffled,
/// with a few arrivals delivered twice.
fn arrivals(k: usize, loss_pct: u64, rng: &mut Xorshift64) -> Vec<u32> {
    let mut esis: Vec<u32> = (0..k as u32)
        .filter(|_| rng.next_below(100) >= loss_pct)
        .collect();
    let first_repair = k as u32 + rng.next_below(1000) as u32;
    esis.extend((first_repair..).take(k - esis.len()));
    for i in (1..esis.len()).rev() {
        esis.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    for _ in 0..1 + k / 8 {
        let again = esis[rng.next_below(esis.len() as u64) as usize];
        let at = rng.next_below(esis.len() as u64 + 1) as usize;
        esis.insert(at, again);
    }
    esis
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn in_place_equals_by_value_equals_solver(seed in any::<u64>()) {
        let mut rng = Xorshift64::new(seed);
        for k in KS {
            for t in SYMBOL_SIZES {
                let len = ragged_len(k, t, &mut rng);
                prop_assert!(len.div_ceil(t) == k);
                prop_assert!(!len.is_multiple_of(t) && !len.is_multiple_of(8));
                let data: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
                let enc = Encoder::new(&data, t).unwrap();
                let loss_pct = rng.next_below(41);
                let ctx = format!("K={k} T={t} loss={loss_pct}%");

                let mut in_place = Decoder::new(enc.params());
                let mut by_value = Decoder::new(enc.params());
                let mut esis = arrivals(k, loss_pct, &mut rng);
                // At exactly K symbols a decode may fail; whether it
                // does is a property of the ESI set, not of the path.
                // Two more repairs and it must succeed.
                let more = esis.iter().max().unwrap() + 1;
                for round in 0..2 {
                    for &esi in &esis {
                        let fresh = in_place.push_with(esi, |slot| enc.symbol_into(esi, slot));
                        prop_assert_eq!(fresh, by_value.push(esi, enc.symbol(esi)), "{}", ctx);
                    }
                    prop_assert_eq!(in_place.symbols_received(), k + 2 * round);
                    prop_assert_eq!(by_value.symbols_received(), k + 2 * round);
                    let copied = by_value.try_decode();
                    let solved = by_value.try_decode_solver();
                    let here = in_place.decode_in_place().map(|object| object.to_vec());
                    prop_assert_eq!(&here, &copied, "{}: in place vs try_decode", ctx);
                    prop_assert_eq!(&here, &solved, "{}: in place vs solver", ctx);
                    prop_assert_eq!(in_place.symbols_received(), k + 2 * round);
                    if round == 1 || here.is_ok() {
                        prop_assert_eq!(here.as_ref(), Ok(&data), "{}", ctx);
                    }
                    esis = vec![more, more + 1];
                }
            }
        }
    }
}
