//! Property tests for batch sweep recovery: however the fabric mangles
//! a session's arrivals, a recovery round's batched re-pulls never
//! request more symbols than the session still needs to decode, and the
//! sender-side write-off never mints credit beyond actual emissions.

use netsim::{Ctx, NodeId, SimTime};
use polyraptor::{PrConfig, ReceiverSession, SenderSession, SessionId, SessionSpec, SYMBOL_SIZE};
use proptest::prelude::*;

/// Replay an arbitrary arrival pattern into a receiver session and run
/// one full recovery round (every sender re-pulled, possibly several
/// times), returning (batch total, symbols needed at round start).
fn run_recovery_round(
    k_symbols: usize,
    n_senders: usize,
    arrivals: &[(u8, u32)],
    extra_pulls: &[u8],
    cap: u32,
    repull_rounds: usize,
) -> (u64, u64) {
    let cfg = PrConfig::paper_default();
    let spec = SessionSpec::multi_source(
        SessionId(77),
        k_symbols * SYMBOL_SIZE,
        (1..=n_senders as u32).map(NodeId).collect(),
        NodeId(0),
        SimTime::ZERO,
    );
    let mut rs = ReceiverSession::new(spec, NodeId(0), &cfg, 42);
    for &idx in extra_pulls {
        rs.note_pull_sent(usize::from(idx) % n_senders);
    }
    for &(idx, esi) in arrivals {
        if rs.done {
            break;
        }
        if rs.on_symbol(idx % n_senders as u8, esi, None, SimTime::ZERO) {
            rs.done = true;
        }
    }
    let needed = rs.symbols_needed();
    rs.begin_recovery_round();
    let mut total = 0u64;
    for _ in 0..repull_rounds {
        for idx in 0..n_senders {
            total += u64::from(rs.take_repull_batch(idx, cap));
        }
    }
    (total, needed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One recovery round — no matter how many senders it re-pulls or
    /// how often the pacer asks — never requests more symbols in total
    /// than the decode still needs, and no single batch exceeds the cap.
    #[test]
    fn recovery_round_never_exceeds_decode_need(
        k in 1usize..200,
        n_senders in 1usize..5,
        n_arrivals in 0usize..120,
        n_extra_pulls in 0usize..64,
        cap in 0u32..100,
        repull_rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = netsim::Pcg32::new(seed);
        let arrivals: Vec<(u8, u32)> = (0..n_arrivals)
            .map(|_| (rng.below(n_senders as u64) as u8, rng.below(4 * k as u64) as u32))
            .collect();
        let extra_pulls: Vec<u8> = (0..n_extra_pulls)
            .map(|_| rng.below(n_senders as u64) as u8)
            .collect();
        let (total, needed) =
            run_recovery_round(k, n_senders, &arrivals, &extra_pulls, cap, repull_rounds);
        prop_assert!(
            total <= needed,
            "round requested {} symbols but the decode needs only {}",
            total,
            needed
        );
    }

    /// A re-target round — opened when a host failure strands a sender —
    /// never re-pulls more symbols from the surviving replicas than the
    /// decode still needs *at the moment of stranding*: already-decoded
    /// symbols are reused, never re-fetched, and no credit is minted
    /// across replicas however many survivors the pacer re-pulls or how
    /// often.
    #[test]
    fn retarget_never_exceeds_symbols_needed_at_stranding(
        k in 1usize..200,
        n_senders in 2usize..5,
        n_arrivals in 0usize..120,
        dead in 0usize..4,
        cap in 1u32..600,
        repulls in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = PrConfig::paper_default();
        let spec = SessionSpec::multi_source(
            SessionId(78),
            k * SYMBOL_SIZE,
            (1..=n_senders as u32).map(NodeId).collect(),
            NodeId(0),
            SimTime::ZERO,
        );
        let mut rs = ReceiverSession::new(spec, NodeId(0), &cfg, 42);
        let mut rng = netsim::Pcg32::new(seed);
        for _ in 0..n_arrivals {
            if rs.done {
                break;
            }
            let idx = rng.below(n_senders as u64) as u8;
            let esi = rng.below(4 * k as u64) as u32;
            if rs.on_symbol(idx, esi, None, SimTime::ZERO) {
                rs.done = true;
            }
        }
        if rs.done {
            return Ok(());
        }
        let dead = NodeId(1 + (dead % n_senders) as u32);
        prop_assert!(rs.mark_sender_stranded(dead));
        let needed_at_stranding = rs.symbols_needed();
        rs.begin_recovery_round();
        let survivors: Vec<usize> = (0..n_senders)
            .filter(|&i| NodeId(1 + i as u32) != dead)
            .collect();
        let mut total = 0u64;
        for _ in 0..repulls {
            for &idx in &survivors {
                let batch = rs.take_retarget_batch(idx, cap);
                prop_assert!(batch <= cap, "single batch above the cap");
                total += u64::from(batch);
            }
        }
        prop_assert!(
            total <= needed_at_stranding,
            "re-target round requested {} symbols but the decode needed only {}",
            total,
            needed_at_stranding
        );
    }

    /// Across a strand → revive boundary no credit is minted: the
    /// write-off taken at stranding stands, the revived sender is
    /// re-admitted with a zero stranded estimate (its first probing
    /// re-pull is a pure nudge), and a recovery round over the full
    /// sender set — revived sender included — still never requests more
    /// symbols than the decode needs.
    #[test]
    fn revival_readmits_without_minting_credit(
        k in 1usize..200,
        n_senders in 2usize..5,
        n_arrivals in 0usize..120,
        dead in 0usize..4,
        cap in 1u32..600,
        repulls in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = PrConfig::paper_default();
        let spec = SessionSpec::multi_source(
            SessionId(79),
            k * SYMBOL_SIZE,
            (1..=n_senders as u32).map(NodeId).collect(),
            NodeId(0),
            SimTime::ZERO,
        );
        let mut rs = ReceiverSession::new(spec, NodeId(0), &cfg, 42);
        let mut rng = netsim::Pcg32::new(seed);
        for _ in 0..n_arrivals {
            if rs.done {
                break;
            }
            let idx = rng.below(n_senders as u64) as u8;
            let esi = rng.below(4 * k as u64) as u32;
            if rs.on_symbol(idx, esi, None, SimTime::ZERO) {
                rs.done = true;
            }
        }
        if rs.done {
            return Ok(());
        }
        let dead_idx = dead % n_senders;
        let dead = NodeId(1 + dead_idx as u32);
        prop_assert!(!rs.unstrand_sender(dead), "nothing to undo pre-strand");
        prop_assert!(rs.mark_sender_stranded(dead));
        let count_at_stranding = rs.report_count(dead_idx);
        prop_assert_eq!(
            rs.stranded_estimate(dead_idx), 0,
            "stranding writes the dead sender's debt off"
        );
        // The scripted repair lands: the sender is re-admitted, exactly
        // once, and the ledger is untouched — same reported count, still
        // nothing stranded, so the first probing re-pull carries a zero
        // batch (a pure liveness nudge).
        prop_assert!(rs.unstrand_sender(dead));
        prop_assert!(!rs.unstrand_sender(dead), "re-admission is idempotent");
        prop_assert!(!rs.sender_stranded(dead_idx));
        prop_assert!(rs.surviving_senders().contains(&dead));
        prop_assert_eq!(rs.report_count(dead_idx), count_at_stranding);
        prop_assert_eq!(rs.stranded_estimate(dead_idx), 0);
        rs.begin_recovery_round();
        prop_assert_eq!(
            rs.take_repull_batch(dead_idx, cap), 0,
            "revival must not mint recovery credit"
        );
        // A full recovery round over every sender — the revived one
        // included — stays bounded by the decode's remaining need.
        let needed = rs.symbols_needed();
        rs.begin_recovery_round();
        let mut total = 0u64;
        for _ in 0..repulls {
            for idx in 0..n_senders {
                total += u64::from(rs.take_repull_batch(idx, cap));
            }
        }
        prop_assert!(
            total <= needed,
            "post-revival round requested {} symbols but the decode needs only {}",
            total,
            needed
        );
    }

    /// The sender honors any (count, batch) sequence without ever
    /// believing more credit than it emitted: after arbitrary re-pull
    /// abuse, cumulative emissions stay bounded by what the pulls could
    /// legitimately license (initial window + per-pull refills).
    #[test]
    fn writeoff_never_mints_credit(
        batches in proptest::collection::vec(0u32..200, 1..12),
        seed in any::<u64>(),
    ) {
        let cfg = PrConfig::paper_default();
        let spec = SessionSpec::unicast(
            SessionId(9),
            500 * SYMBOL_SIZE,
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
        );
        let mut ss = SenderSession::new(spec, NodeId(0), &cfg);
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.start(NodeId(0), &cfg, &mut ctx);
        let w = ctx.queued_sends().len() as u64; // the initial window
        let mut rng = netsim::Pcg32::new(seed);
        let mut reported = 0u64;
        for &b in &batches {
            // Counts fold in loss write-offs, so an over-estimating
            // receiver can report more than was ever emitted; the
            // sender-side ceiling clamp must absorb that.
            reported = reported.max(rng.below(2 * ss.emitted() + 10));
            let mut c = Ctx::detached(SimTime::ZERO, NodeId(0));
            ss.on_pull(NodeId(1), reported, true, b, NodeId(0), &cfg, &mut c);
            // Each re-pull may refill at most one window beyond the
            // forced nudge: credit is written off, never minted.
            prop_assert!(
                (c.queued_sends().len() as u64) <= w + 1,
                "re-pull burst {} exceeds a window of {}",
                c.queued_sends().len(),
                w
            );
        }
    }
}
