//! Property-based tests for the fountain code: round-trip correctness
//! under arbitrary data, sizes, and loss patterns.

use proptest::prelude::*;
use rq::{Decoder, Encoder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lossless systematic transfer reproduces the data for any payload
    /// and symbol size.
    #[test]
    fn lossless_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        symbol_size in 1usize..200,
    ) {
        let enc = Encoder::new(&data, symbol_size).unwrap();
        let mut dec = Decoder::new(enc.params());
        for esi in 0..enc.params().k as u32 {
            dec.push(esi, enc.symbol(esi));
        }
        prop_assert_eq!(dec.try_decode().unwrap(), data);
    }

    /// Any loss pattern with enough surviving symbols (k+3 incl. repair
    /// top-up) decodes to the original data.
    #[test]
    fn lossy_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 64..2048),
        symbol_size in 16usize..128,
        loss_seed in any::<u64>(),
        loss_pct in 0u32..60,
    ) {
        let enc = Encoder::new(&data, symbol_size).unwrap();
        let k = enc.params().k;
        let mut rng = rq::rand::Xorshift64::new(loss_seed);
        let mut dec = Decoder::new(enc.params());
        let mut have = 0usize;
        for esi in 0..k as u32 {
            if rng.next_below(100) >= u64::from(loss_pct) {
                dec.push(esi, enc.symbol(esi));
                have += 1;
            }
        }
        let mut esi = k as u32;
        while have < k + 3 {
            dec.push(esi, enc.symbol(esi));
            esi += 1;
            have += 1;
        }
        prop_assert_eq!(dec.try_decode().unwrap(), data);
    }

    /// Multi-source emulation: symbols arriving from independent strided
    /// ESI spaces (as Polyraptor replicas send them) never collide and
    /// decode together.
    #[test]
    fn strided_multi_sender_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 200..1500),
        senders in 1usize..5,
    ) {
        let symbol_size = 64usize;
        let enc = Encoder::new(&data, symbol_size).unwrap();
        let k = enc.params().k;
        let mut dec = Decoder::new(enc.params());
        // Each "sender" contributes repairs from its stride only.
        let mut have = 0usize;
        let mut j = 0u64;
        'outer: loop {
            for s in 0..senders as u64 {
                let esi = (k as u64 + s + j * senders as u64) as u32;
                prop_assert!(dec.push(esi, enc.symbol(esi)), "stride collision at {}", esi);
                have += 1;
                if have >= k + 2 {
                    break 'outer;
                }
            }
            j += 1;
        }
        prop_assert_eq!(dec.try_decode().unwrap(), data);
    }

    /// Decoding is invariant to symbol arrival order.
    #[test]
    fn order_invariance(shuffle_seed in any::<u64>()) {
        let data: Vec<u8> = (0..1000).map(|i| (i * 3) as u8).collect();
        let enc = Encoder::new(&data, 50).unwrap();
        let k = enc.params().k as u32;
        let mut esis: Vec<u32> = (2..k + 4).collect(); // drop 0 and 1, add repairs
        let mut rng = rq::rand::Xorshift64::new(shuffle_seed);
        for i in (1..esis.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            esis.swap(i, j);
        }
        let mut dec = Decoder::new(enc.params());
        for esi in esis {
            dec.push(esi, enc.symbol(esi));
        }
        prop_assert_eq!(dec.try_decode().unwrap(), data);
    }
}
