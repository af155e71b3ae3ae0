//! Test battery for the systematic-code fast path.
//!
//! Three pillars, matching the contracts the systematic code must hold:
//!
//! 1. **Round-trip equivalence** — for any data, symbol size, and loss
//!    pattern (zero loss, source-only loss, repair-only receipt,
//!    interleaved), the decode is byte-identical to the source.
//! 2. **Fast-path/solver equivalence** — any sufficient symbol subset
//!    decodes identically whether it takes the zero-copy fast path or is
//!    forced through the inactivation solver; and when all `K` source
//!    symbols arrive the solver is provably not invoked (decode-path
//!    counters).
//! 3. **Loss-sweep envelope** — decode overhead under 0–20% seeded loss
//!    stays on the code's overhead-failure envelope: zero failures at
//!    two extra symbols, near-zero at one.

use proptest::prelude::*;
use rq::rand::Xorshift64;
use rq::{DecodeError, Decoder, Encoder};

/// Decode `esis`, topping up with fresh repair ESIs on rank deficiency
/// so the property tests the code, not per-subset luck.
fn decode_with_topup(enc: &Encoder, esis: &[u32], mut next_repair: u32) -> Vec<u8> {
    let mut dec = Decoder::new(enc.params());
    for &esi in esis {
        dec.push(esi, enc.symbol(esi));
    }
    // Rank deficiency is healed by any fresh symbol with P ≈ 1 − 2⁻⁸;
    // sixteen retries put a persistent failure beyond reach of a test run.
    for _ in 0..16 {
        match dec.try_decode() {
            Ok(out) => return out,
            Err(e) => {
                assert!(
                    !matches!(e, DecodeError::NeedMoreSymbols { .. }),
                    "decoder under-fed: {e:?}"
                );
                dec.push(next_repair, enc.symbol(next_repair));
                next_repair += 1;
            }
        }
    }
    panic!("rank deficiency persisted through 16 top-up symbols");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 1: the round-trip is byte-identical to the source across
    /// random data, symbol sizes, and loss-pattern families.
    #[test]
    fn systematic_matches_source(
        data in proptest::collection::vec(any::<u8>(), 32..3000),
        symbol_size in 4usize..160,
        pattern in 0u32..4,
        loss_seed in any::<u64>(),
        loss_pct in 1u32..50,
    ) {
        let enc = Encoder::new(&data, symbol_size).unwrap();
        let k = enc.params().k as u32;

        let mut rng = Xorshift64::new(loss_seed);
        let mut esis: Vec<u32> = Vec::new();
        match pattern {
            // Zero loss: every source symbol arrives.
            0 => esis.extend(0..k),
            // Source-only loss: drop random sources, top up with repairs.
            1 => {
                for esi in 0..k {
                    if rng.next_below(100) >= u64::from(loss_pct) {
                        esis.push(esi);
                    }
                }
                let deficit = (k as usize + 2).saturating_sub(esis.len()) as u32;
                esis.extend(k..k + deficit);
            }
            // Repair-only: no source symbol survives.
            2 => esis.extend(k..2 * k + 2),
            // Interleaved: random mix of source and repair ESIs.
            _ => {
                let mut have = 0usize;
                let mut esi = 0u32;
                while have < k as usize + 2 {
                    if rng.next_below(2) == 0 {
                        esis.push(esi);
                        have += 1;
                    }
                    esi += 1;
                }
            }
        }
        let next_repair = esis.iter().max().unwrap() + 1;
        let out = decode_with_topup(&enc, &esis, next_repair);
        prop_assert_eq!(out, data, "decode diverged from source");
    }

    /// Satellite 2a: for any sufficient subset, the fast path (when
    /// eligible) and the forced solver produce identical bytes.
    #[test]
    fn fast_path_and_solver_agree(
        data in proptest::collection::vec(any::<u8>(), 64..2000),
        symbol_size in 8usize..100,
        loss_seed in any::<u64>(),
        loss_pct in 0u32..40,
    ) {
        let enc = Encoder::new(&data, symbol_size).unwrap();
        let k = enc.params().k;
        let mut rng = Xorshift64::new(loss_seed);
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
        let via_default = dec.try_decode();
        let via_solver = dec.try_decode_solver();
        match (via_default, via_solver) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b, "fast path and solver disagree");
                prop_assert_eq!(a, data);
            }
            // Statistical rank deficiency (≲10⁻³ at +1, lower at +3) is a
            // property of the symbol subset, not of the decode path: both
            // entry points must report it identically.
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            (a, b) => prop_assert!(false, "paths disagree on success: {:?} vs {:?}", a, b),
        }
    }

    /// Satellite 2b: when all `K` source symbols arrive, `try_decode`
    /// never touches the solver — the decode-path counters prove it.
    #[test]
    fn solver_not_invoked_on_complete_source(
        data in proptest::collection::vec(any::<u8>(), 16..2000),
        symbol_size in 1usize..120,
        extra_repairs in 0u32..8,
    ) {
        let enc = Encoder::new(&data, symbol_size).unwrap();
        let k = enc.params().k as u32;
        let mut dec = Decoder::new(enc.params());
        for esi in 0..k {
            dec.push(esi, enc.symbol(esi));
        }
        // Surplus repair symbols must not knock the decoder off the fast
        // path.
        for esi in k..k + extra_repairs {
            dec.push(esi, enc.symbol(esi));
        }
        prop_assert!(dec.systematic_complete());
        prop_assert_eq!(dec.try_decode().unwrap(), data);
        let stats = dec.decode_stats();
        prop_assert_eq!(stats.solver_decodes, 0, "solver ran on a lossless block");
        prop_assert_eq!(stats.fast_path_decodes, 1);

        // Forcing the solver afterwards works too, and is visible in the
        // counters.
        prop_assert_eq!(dec.try_decode_solver().unwrap(), data);
        let stats = dec.decode_stats();
        prop_assert_eq!(stats.solver_decodes, 1);
        prop_assert!(stats.last_solve_unknowns > 0);
    }
}

/// Satellite 3: seeded loss sweep 0–20% — decode failure rates stay on
/// the overhead envelope: **zero** failures at two extra symbols, at most
/// a stray one at one extra, and a loose bound at exactly `k` symbols (the
/// degree-floored repair distribution trades a little +0 performance for
/// the shrinking solve; the paper's claims live at +1/+2).
#[test]
fn loss_sweep_overhead_envelope() {
    let data: Vec<u8> = (0..256 * 16).map(|i| (i * 131 + 7) as u8).collect();
    let sys = Encoder::new(&data, 16).unwrap(); // k = 256
    let k = sys.params().k;

    const TRIALS: usize = 150;
    for loss_pct in [0u64, 5, 10, 15, 20] {
        // fails[o] = decode failures with exactly k + o received symbols.
        let mut fails = [0usize; 3];
        for trial in 0..TRIALS {
            let mut rng = Xorshift64::new(0x5EED_0000 + loss_pct * 1000 + trial as u64);
            let kept: Vec<u32> = (0..k as u32)
                .filter(|_| rng.next_below(100) >= loss_pct)
                .collect();
            for (o, f) in fails.iter_mut().enumerate() {
                let mut dec = Decoder::new(sys.params());
                for &esi in &kept {
                    dec.push(esi, sys.symbol(esi));
                }
                let mut esi = k as u32 + trial as u32 * 64; // fresh repair window per trial
                while dec.symbols_received() < k + o {
                    dec.push(esi, sys.symbol(esi));
                    esi += 1;
                }
                match dec.try_decode() {
                    Ok(out) => assert_eq!(out, data, "loss={loss_pct}% trial={trial} +{o}"),
                    Err(DecodeError::RankDeficient { .. }) => *f += 1,
                    Err(e) => panic!("unexpected decode error: {e}"),
                }
            }
        }
        // Envelope: +2 never fails in 150 trials (rate ≲ 10⁻⁴ ⇒ expected
        // 0.015 failures); +1 allows one stray (measured ≲ 10⁻³); +0 is
        // loose by design (measured ≈ 1–3% at these points).
        assert_eq!(
            fails[2], 0,
            "loss={loss_pct}%: +2 overhead failures {fails:?}"
        );
        assert!(
            fails[1] <= 1,
            "loss={loss_pct}%: +1 overhead failures {fails:?}"
        );
        assert!(
            fails[0] <= TRIALS / 10,
            "loss={loss_pct}%: +0 failure rate off the envelope {fails:?}"
        );
    }
}

/// The degree floor is what holds the envelope: systematic repair symbols
/// must carry at least `sys_repair_min_degree(L)` intermediate columns
/// on both the encoder and (implicitly, via decode success above) the
/// decoder side.
#[test]
fn systematic_repair_degree_floor_applied() {
    let p = rq::BlockParams::new(256);
    let floor = rq::params::sys_repair_min_degree(p.l);
    for esi in p.k as u32..p.k as u32 + 200 {
        let cols = rq::tuple::lt_columns_with_floor(&p, esi, floor);
        assert!(
            cols.len() as u32 >= floor,
            "esi={esi}: {} cols below floor {floor}",
            cols.len()
        );
    }
}
