//! Direct, timed calls into each layer's public functions, on the
//! workload's own fabric and object shape. These are the per-layer
//! numbers that cannot be read off the staged replay's spans.

use std::hint::black_box;
use std::time::Instant;

use netsim::{
    Dest, FaultAction, FaultMask, FaultPlan, FlowId, NodeId, NodeKind, Packet, Pcg32, PortQueue,
    QueueConfig, SimPayload, SimTime, Topology,
};
use polyraptor::{session_object, Oracle, SessionId};
use rq::{CodeMode, Decoder, Encoder};
use workload::fault::REROUTE_DELAY_NS;

use crate::stats::median;

/// Symbol size every workload uses (`PrConfig::paper_default`).
pub const SYMBOL_BYTES: usize = 1440;
/// The paper's object size, measured beside the workload's own.
pub const PAPER_OBJECT_BYTES: usize = 4 << 20;

/// Median wall time of `f` over `n` calls, in seconds, with untimed
/// preparation before each call.
fn median_secs_prepared<S>(n: usize, mut prepare: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let state = prepare();
            let t = Instant::now();
            f(state);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median wall time of `f` over `n` calls, in seconds.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    median_secs_prepared(n, || (), |()| f())
}

// ---------------------------------------------------------------------------
// rq
// ---------------------------------------------------------------------------

/// Codec throughput and decode behaviour at one object size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Codec {
    pub encode_mb_s: f64,
    pub symbol_mb_s: f64,
    pub decode_noloss_mb_s: f64,
    pub decode_loss10_mb_s: f64,
    pub decode_repair_only_mb_s: f64,
    /// Failed `try_decode` at exactly K symbols, over seeded 10 % loss
    /// patterns, as a share of the patterns tried.
    pub decode_fail_share: f64,
    pub fast_path_decodes: u64,
    pub solver_decodes: u64,
}

/// Seeded loss pattern: the ESIs a receiver holds after losing ~10 % of
/// the source symbols and topping up with `extra` symbols beyond K
/// from the repair stream.
fn lossy_esis(k: usize, extra: usize, rng: &mut Pcg32) -> Vec<u32> {
    let mut esis: Vec<u32> = (0..k as u32).filter(|_| rng.f64() >= 0.10).collect();
    let missing = k - esis.len();
    esis.extend((0..(missing + extra) as u32).map(|i| k as u32 + i));
    esis
}

/// Push `esis` and decode; returns whether the decode succeeded.
fn receive_and_decode(enc: &Encoder, symbols: Vec<(u32, Vec<u8>)>, codec: &mut Codec) -> bool {
    let mut dec = Decoder::new(enc.params());
    for (esi, body) in symbols {
        dec.push(esi, body);
    }
    let ok = black_box(dec.try_decode()).is_ok();
    let stats = dec.decode_stats();
    codec.fast_path_decodes += stats.fast_path_decodes;
    codec.solver_decodes += stats.solver_decodes;
    ok
}

const DECODE_REPEATS: usize = 3;
const FAIL_PATTERNS: usize = 200;

/// Measure the codec on the canonical session object of `bytes` bytes.
pub fn codec(bytes: usize, seed: u64) -> Codec {
    let mb = bytes as f64 / 1e6;
    let data = session_object(SessionId(0), bytes);
    let encode_s = median_secs(5, || {
        black_box(Encoder::new(black_box(&data), SYMBOL_BYTES).expect("non-empty object"));
    });
    let enc = Encoder::new(&data, SYMBOL_BYTES).expect("non-empty object");
    let k = enc.params().k;
    let mut out = Codec {
        encode_mb_s: mb / encode_s,
        ..Codec::default()
    };

    let repairs = 256u32;
    let per_call = median_secs(5, || {
        for i in 0..repairs {
            black_box(enc.symbol(k as u32 + i));
        }
    });
    out.symbol_mb_s = (repairs as usize * SYMBOL_BYTES) as f64 / 1e6 / per_call;

    let mut rng = Pcg32::new(seed ^ 0xC0DEC);
    let materialize = |esis: &[u32]| -> Vec<(u32, Vec<u8>)> {
        esis.iter().map(|&e| (e, enc.symbol(e))).collect()
    };
    let decode_mb_s = |esis: Vec<u32>, out: &mut Codec| {
        mb / median_secs_prepared(
            DECODE_REPEATS,
            || materialize(&esis),
            |symbols| {
                assert!(
                    receive_and_decode(&enc, symbols, out),
                    "decode of {} symbols for K = {k} failed",
                    esis.len()
                );
            },
        )
    };
    out.decode_noloss_mb_s = decode_mb_s((0..k as u32).collect(), &mut out);
    out.decode_loss10_mb_s = decode_mb_s(lossy_esis(k, 2, &mut rng), &mut out);
    out.decode_repair_only_mb_s =
        decode_mb_s((0..k as u32 + 2).map(|i| k as u32 + i).collect(), &mut out);

    // Whether K + 0 symbols decode depends on K and the ESI set, not on
    // the symbol size, so the failure share is measured on 16-byte
    // symbols of an object with the same K.
    let tiny = session_object(SessionId(1), k * 16);
    let tiny_enc = Encoder::new(&tiny, 16).expect("non-empty object");
    assert_eq!(tiny_enc.params().k, k);
    let mut failed = 0usize;
    let mut scratch = Codec::default();
    for _ in 0..FAIL_PATTERNS {
        let esis = lossy_esis(k, 0, &mut rng);
        let symbols = esis.iter().map(|&e| (e, tiny_enc.symbol(e))).collect();
        failed += usize::from(!receive_and_decode(&tiny_enc, symbols, &mut scratch));
    }
    out.decode_fail_share = failed as f64 / FAIL_PATTERNS as f64;
    out
}

/// Throughput of `gf256::addmul` over one symbol-sized slice, MB/s.
pub fn gf256_addmul_mb_s() -> f64 {
    let src: Vec<u8> = (0..SYMBOL_BYTES).map(|i| (i * 131 + 17) as u8).collect();
    let mut dst = vec![0u8; SYMBOL_BYTES];
    let rounds = 20_000usize;
    let secs = median_secs(5, || {
        for c in 0..rounds {
            rq::gf256::addmul(black_box(&mut dst), black_box(&src), (c % 255) as u8 + 1);
        }
    });
    black_box(&dst);
    (rounds * SYMBOL_BYTES) as f64 / 1e6 / secs
}

// ---------------------------------------------------------------------------
// polyraptor::oracle
// ---------------------------------------------------------------------------

/// Real-oracle costs at one object size.
#[derive(Debug, Clone, Copy)]
pub struct OracleCost {
    /// `Oracle::real` construction, ms.
    pub new_ms: f64,
    /// One `Oracle::add` under a 10 % loss replay, µs.
    pub add_us: f64,
    /// Codec work of one lossless three-sender read session, seconds:
    /// an encoder per sender, the receiver's oracle, every source
    /// symbol generated and added, one decode.
    pub session_s: f64,
}

pub fn oracle(bytes: usize, senders: usize, seed: u64) -> OracleCost {
    let session = SessionId(0);
    let new_ms = 1e3
        * median_secs(3, || {
            black_box(Oracle::real(
                session,
                bytes,
                SYMBOL_BYTES,
                CodeMode::Systematic,
            ));
        });
    let data = session_object(session, bytes);
    let enc = Encoder::new(&data, SYMBOL_BYTES).expect("non-empty object");
    let k = enc.params().k;
    let mut rng = Pcg32::new(seed ^ 0x0AC1E);
    // Endless repair tail: the oracle stops the replay when it decodes.
    let esis = lossy_esis(k, 64, &mut rng);
    let mut adds = 0usize;
    let add_s = median_secs_prepared(
        3,
        || {
            let symbols: Vec<(u32, Vec<u8>)> = esis.iter().map(|&e| (e, enc.symbol(e))).collect();
            (
                Oracle::real(session, bytes, SYMBOL_BYTES, CodeMode::Systematic),
                symbols,
            )
        },
        |(mut oracle, symbols)| {
            adds = 0;
            for (esi, body) in symbols {
                adds += 1;
                if oracle.add(esi, Some(body)) {
                    return;
                }
            }
            panic!("real oracle did not decode K + 64 symbols at 10 % loss");
        },
    );
    let session_s = median_secs(3, || {
        let encoders: Vec<Encoder> = (0..senders)
            .map(|_| {
                let data = session_object(session, bytes);
                Encoder::with_mode(&data, SYMBOL_BYTES, CodeMode::Systematic)
                    .expect("non-empty object")
            })
            .collect();
        let mut oracle = Oracle::real(session, bytes, SYMBOL_BYTES, CodeMode::Systematic);
        let mut done = false;
        for esi in 0..k as u32 {
            let body = encoders[esi as usize % senders].symbol(esi);
            done = oracle.add(esi, Some(body));
        }
        assert!(done, "lossless session must decode at K symbols");
    });
    OracleCost {
        new_ms,
        add_us: 1e6 * add_s / adds as f64,
        session_s,
    }
}

// ---------------------------------------------------------------------------
// netsim::topology, netsim::par
// ---------------------------------------------------------------------------

/// Route-table costs on one fabric under one policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Routes {
    pub compute_routes_ms: f64,
    /// Same call with `threads` workers ÷ serial (< 1 is faster).
    pub par_compute_routes_ratio: f64,
    pub repair_link_ms: f64,
    pub restore_link_ms: f64,
    pub repair_switch_ms: f64,
    pub lookup_ns: f64,
}

const VICTIMS: usize = 9;
const LOOKUPS: usize = 65_536;

/// Time the route layer's public entry points. `topo` must hold pristine
/// routes and is returned to them (every failure is repaired again).
pub fn routes(topo: &mut Topology, threads: usize, seed: u64) -> Routes {
    let mut rng = Pcg32::new(seed ^ 0x0207E5);
    let switches: Vec<NodeId> = (0..topo.node_count() as u32)
        .map(NodeId)
        .filter(|&n| topo.kind(n) == NodeKind::Switch)
        .collect();
    let links: Vec<(NodeId, u16)> = switches
        .iter()
        .flat_map(|&n| {
            let ports = topo.node_ports(n);
            (0..ports.len() as u16)
                .filter(|&p| {
                    let peer = ports[p as usize].peer;
                    topo.kind(peer) == NodeKind::Switch && peer.0 > n.0
                })
                .map(move |p| (n, p))
                .collect::<Vec<_>>()
        })
        .collect();

    let compute = |topo: &mut Topology| median_secs(3, || topo.compute_routes());
    let serial = compute(topo);
    topo.set_parallelism(threads);
    let parallel = compute(topo);
    topo.set_parallelism(1);

    let healthy = FaultMask::new();
    let timed_repair = |topo: &mut Topology, mask: &FaultMask| {
        let t = Instant::now();
        let outcome = topo.repair_routes(mask);
        let secs = t.elapsed().as_secs_f64();
        assert!(!outcome.full, "repair fell back to a full recompute");
        secs
    };
    let (mut down, mut up, mut switch_down) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..VICTIMS {
        let (node, port) = links[rng.below(links.len() as u64) as usize];
        let mut mask = FaultMask::new();
        mask.fail_link(topo, node, port);
        down.push(timed_repair(topo, &mask));
        up.push(timed_repair(topo, &healthy));

        let victim = switches[rng.below(switches.len() as u64) as usize];
        let mut mask = FaultMask::new();
        mask.fail_node(victim);
        switch_down.push(timed_repair(topo, &mask));
        topo.repair_routes(&healthy);
    }

    let n_hosts = topo.hosts().len();
    let layers = topo.layer_count();
    let decisions: Vec<(usize, NodeId, usize, usize)> = (0..LOOKUPS)
        .map(|_| {
            (
                rng.below(layers as u64) as usize,
                switches[rng.below(switches.len() as u64) as usize],
                rng.below(n_hosts as u64) as usize,
                rng.next_u32() as usize,
            )
        })
        .collect();
    let sweep = median_secs(5, || {
        let mut acc = 0u64;
        for &(layer, node, dst, flow) in &decisions {
            let ports = topo.try_next_ports_at(layer, node, dst);
            if !ports.is_empty() {
                acc += u64::from(ports[flow % ports.len()]);
            }
        }
        black_box(acc);
    });

    Routes {
        compute_routes_ms: 1e3 * serial,
        par_compute_routes_ratio: parallel / serial,
        repair_link_ms: 1e3 * median(&down),
        restore_link_ms: 1e3 * median(&up),
        repair_switch_ms: 1e3 * median(&switch_down),
        lookup_ns: 1e9 * sweep / LOOKUPS as f64,
    }
}

/// What replaying a fault plan's control plane cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RepairReplay {
    pub secs: f64,
    pub reroutes: u64,
    pub dests_rebuilt: u64,
}

/// Replay the control plane of a churn run outside the simulator: walk
/// the plan in time order, keep the fault mask, and call
/// `Topology::repair_routes` exactly when the simulator's deferred
/// reroute would (one pending reroute per convergence window). The
/// summed time is the route-repair share of the run, which no span
/// around `run_to_completion` can see.
pub fn repair_replay(topo: &mut Topology, plan: &FaultPlan) -> RepairReplay {
    let mut out = RepairReplay::default();
    let mut mask = FaultMask::new();
    let mut pending: Option<SimTime> = None;
    let reroute = |topo: &mut Topology, mask: &FaultMask, out: &mut RepairReplay| {
        let t = Instant::now();
        let outcome = topo.repair_routes(mask);
        out.secs += t.elapsed().as_secs_f64();
        out.reroutes += 1;
        out.dests_rebuilt += outcome.dests_rebuilt as u64;
    };
    // The plan lists events in insertion order (each failure followed
    // by its repair); the simulator runs them in time order.
    let mut events = plan.events().to_vec();
    events.sort_by_key(|ev| ev.at);
    for ev in &events {
        if pending.is_some_and(|at| at < ev.at) {
            reroute(topo, &mask, &mut out);
            pending = None;
        }
        match ev.action {
            FaultAction::LinkDown { node, port } => mask.fail_link(topo, node, port),
            FaultAction::LinkUp { node, port } => mask.restore_link(topo, node, port),
            FaultAction::SwitchDown { switch } => mask.fail_node(switch),
            FaultAction::SwitchUp { switch } => mask.restore_node(switch),
            FaultAction::RateChange { .. } => continue,
        }
        pending.get_or_insert(ev.at + REROUTE_DELAY_NS);
    }
    if pending.is_some() {
        reroute(topo, &mask, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// netsim::queue
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Probe {
    Data,
    Header,
}

impl SimPayload for Probe {
    fn is_control(&self) -> bool {
        matches!(self, Probe::Header)
    }
    fn trim(&self) -> Option<Self> {
        Some(Probe::Header)
    }
}

/// One `PortQueue::enqueue` + `dequeue` pair at a steady 8-deep
/// occupancy, ns.
pub fn queue_enq_deq_ns(config: QueueConfig) -> f64 {
    let packet = || Packet {
        src: NodeId(0),
        dst: Dest::Host(NodeId(1)),
        flow: FlowId(7),
        size: 1504,
        payload: Probe::Data,
    };
    let mut q: PortQueue<Probe> = PortQueue::new(config);
    for _ in 0..8 {
        q.enqueue(packet());
    }
    let pairs = 200_000usize;
    let secs = median_secs(5, || {
        for _ in 0..pairs {
            black_box(q.enqueue(packet()));
            black_box(q.dequeue());
        }
    });
    assert_eq!(q.len(), 8, "occupancy drifted");
    1e9 * secs / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Fabric;

    #[test]
    fn lossy_patterns_hold_k_plus_extra_distinct_symbols() {
        let mut rng = Pcg32::new(1);
        for extra in [0usize, 2] {
            let esis = lossy_esis(365, extra, &mut rng);
            assert_eq!(esis.len(), 365 + extra);
            let distinct: std::collections::BTreeSet<u32> = esis.iter().copied().collect();
            assert_eq!(distinct.len(), esis.len());
            assert!(esis.iter().any(|&e| e >= 365), "some source symbol lost");
        }
    }

    #[test]
    fn codec_measurements_decode_and_count_paths() {
        let c = codec(64 << 10, 1);
        assert!(c.encode_mb_s > 0.0 && c.decode_loss10_mb_s > 0.0);
        // No-loss decodes take the fast path; the lossy and repair-only
        // ones (and the K + 0 patterns) go through the solver.
        assert_eq!(c.fast_path_decodes, DECODE_REPEATS as u64);
        assert_eq!(c.solver_decodes, 2 * DECODE_REPEATS as u64);
        assert!((0.0..0.2).contains(&c.decode_fail_share));
    }

    #[test]
    fn route_timings_leave_the_tables_pristine() {
        let mut topo = Fabric::small().build();
        let before: Vec<Vec<u16>> = probe_all(&topo);
        let r = routes(&mut topo, 1, 3);
        assert!(r.compute_routes_ms > 0.0 && r.lookup_ns > 0.0);
        assert_eq!(probe_all(&topo), before);
    }

    fn probe_all(topo: &Topology) -> Vec<Vec<u16>> {
        let mut out = Vec::new();
        for n in 0..topo.node_count() as u32 {
            for dst in 0..topo.hosts().len() {
                out.push(topo.try_next_ports_at(0, NodeId(n), dst).to_vec());
            }
        }
        out
    }

    #[test]
    fn queue_probe_keeps_occupancy() {
        assert!(queue_enq_deq_ns(QueueConfig::NDP_DEFAULT) > 0.0);
        assert!(queue_enq_deq_ns(QueueConfig::DROPTAIL_DEFAULT) > 0.0);
    }
}
