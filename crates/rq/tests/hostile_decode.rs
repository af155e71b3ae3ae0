//! Hostile but well-formed symbol multisets: whatever arrives, with the
//! right size under any ESI, [`Decoder::decode_in_place`] returns `Ok`
//! or a [`DecodeError`] and never panics, and every `Ok` is the object.
//! The multisets: repair symbols only (from anywhere in the ESI space),
//! one symbol over and over, `K − 1` sources and 1 000 repairs, and
//! exactly `K` symbols, including sets that are rank deficient — which
//! run the solver's dense rows through a singular system.

use proptest::prelude::*;
use rq::rand::Xorshift64;
use rq::{DecodeError, Decoder, Encoder};

/// Block sizes: the smallest blocks (where deficient sets are most
/// common), a middle one and the 512 KiB benchmark object's K.
const KS: [usize; 5] = [1, 2, 10, 40, 365];
/// Symbol sizes: one byte, one past the 32-byte vector chunk.
const SYMBOL_SIZES: [usize; 2] = [1, 33];

fn object(k: usize, t: usize, rng: &mut Xorshift64) -> Vec<u8> {
    (0..k * t).map(|_| rng.next_below(256) as u8).collect()
}

/// Push every ESI of `esis` (duplicates included) and decode in place:
/// an `Ok` must be `data`, and the distinct count must be what arrived.
fn decode(enc: &Encoder, esis: &[u32], data: &[u8]) -> Result<(), DecodeError> {
    let mut dec = Decoder::new(enc.params());
    for &esi in esis {
        dec.push_with(esi, |slot| enc.symbol_into(esi, slot));
    }
    let mut distinct = esis.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(dec.symbols_received(), distinct.len());
    let decoded = dec.decode_in_place().map(|object| object.to_vec());
    assert_eq!(dec.symbols_received(), distinct.len());
    match decoded {
        Ok(object) => {
            assert_eq!(object, data, "decoded the wrong object from {esis:?}");
            Ok(())
        }
        Err(e) => Err(e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hostile_multisets_decode_or_refuse(seed in any::<u64>()) {
        let mut rng = Xorshift64::new(seed);
        for k in KS {
            for t in SYMBOL_SIZES {
                let data = object(k, t, &mut rng);
                let enc = Encoder::new(&data, t).unwrap();
                let k32 = k as u32;

                // Repairs only, K to K + 2 of them, from anywhere in the
                // ESI space up to its very end.
                let extra = rng.next_below(3) as u32;
                let room = u64::from(u32::MAX - k32 - extra - k32);
                let start = k32 + rng.next_below(room) as u32;
                let repairs: Vec<u32> = (start..=start + k32 - 1 + extra).collect();
                let _ = decode(&enc, &repairs, &data);
                let last: Vec<u32> = (u32::MAX - k32 + 1..=u32::MAX).collect();
                let _ = decode(&enc, &last, &data);

                // One symbol, source or repair, K + 3 times.
                let esi = rng.next_below(u64::from(k32) * 2) as u32;
                let same = vec![esi; k + 3];
                match decode(&enc, &same, &data) {
                    Err(DecodeError::NeedMoreSymbols { have: 1, need }) => prop_assert_eq!(need, k),
                    Err(DecodeError::RankDeficient { have: 1 }) | Ok(()) => prop_assert_eq!(k, 1),
                    other => prop_assert!(false, "K={} one symbol {}: {:?}", k, esi, other),
                }

                // K − 1 sources and 1 000 repairs: far more than enough.
                let lost = rng.next_below(u64::from(k32)) as u32;
                let start = k32 + rng.next_below(1 << 20) as u32;
                let mut plenty: Vec<u32> = (0..k32).filter(|&e| e != lost).collect();
                plenty.extend(start..start + 1000);
                prop_assert_eq!(decode(&enc, &plenty, &data), Ok(()), "K={} T={}", k, t);

                // Exactly K: surviving sources topped up with repairs.
                let mut exact: Vec<u32> = (0..k32).filter(|_| rng.next_below(2) == 0).collect();
                let start = k32 + rng.next_below(1 << 20) as u32;
                exact.extend(start..start + (k - exact.len()) as u32);
                match decode(&enc, &exact, &data) {
                    Ok(()) | Err(DecodeError::RankDeficient { .. }) => {}
                    other => prop_assert!(false, "K={} exactly K: {:?}", k, other),
                }
            }
        }
    }
}

/// Rank-deficient sets of exactly `K` symbols exist — a window of `K`
/// consecutive repair ESIs is one about once in a few hundred — and
/// each must be refused, the failed attempt changing nothing: the same
/// decoder then decodes once two more repairs arrive, or refuses again.
#[test]
fn rank_deficient_sets_of_exactly_k_are_refused() {
    let mut rng = Xorshift64::new(0xDEF1C1E47);
    for k in [1usize, 2, 3, 4, 10] {
        let t = 33;
        let data = object(k, t, &mut rng);
        let enc = Encoder::new(&data, t).unwrap();
        let k32 = k as u32;
        let mut found = 0;
        for start in (k32..).step_by(k).take(20_000) {
            let mut dec = Decoder::new(enc.params());
            for esi in start..start + k32 {
                dec.push_with(esi, |slot| enc.symbol_into(esi, slot));
            }
            match dec.decode_in_place() {
                Ok(object) => assert_eq!(object.to_vec(), data, "K={k} start {start}"),
                Err(e) => {
                    assert_eq!(
                        e,
                        DecodeError::RankDeficient { have: k },
                        "K={k} start {start}"
                    );
                    found += 1;
                    let more = start + k32 + 1_000_000;
                    for esi in [more, more + 1] {
                        dec.push_with(esi, |slot| enc.symbol_into(esi, slot));
                    }
                    match dec.decode_in_place() {
                        Ok(object) => assert_eq!(object.to_vec(), data, "K={k} start {start} + 2"),
                        Err(e) => assert_eq!(e, DecodeError::RankDeficient { have: k + 2 }),
                    }
                    if found == 3 {
                        break;
                    }
                }
            }
        }
        assert_eq!(
            found, 3,
            "K={k}: fewer rank-deficient windows than expected"
        );
    }
}
