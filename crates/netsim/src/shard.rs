//! Sharded event loop: conservative time-window parallel simulation.
//!
//! The fabric is partitioned into switch-group shards (hosts follow
//! their access switch; fat-tree pods fall out of seeded graph-growing
//! over the non-core switches; Jellyfish partitions the same way; core
//! switches are round-robined). Each shard owns its nodes' cells and a
//! private event queue, and shards run on scoped threads under
//! conservative synchronisation: every epoch, each shard executes its
//! events up to `horizon = min(all shard clocks) + lookahead`, where
//! lookahead is the minimum propagation delay over cross-shard links —
//! an event at time `t` can influence another shard no earlier than
//! `t + lookahead`, so everything below the horizon is safe to run
//! without seeing the neighbours' future. Cross-shard packets travel
//! through per-epoch mailboxes; global events (faults and reroutes,
//! which mutate fabric-wide state) execute serially at barriers, as do
//! telemetry bucket closes.
//!
//! Determinism is inherited, not re-proved: every event carries the
//! execution-order-independent key `(time, author rank, author seq)`
//! (see [`crate::sim`]), so each shard's queue pops its events in
//! exactly the order the serial loop would have reached them, each
//! node's RNG stream and sequence counter advance identically, and the
//! mailbox insertion order is irrelevant. A sharded run is therefore
//! byte-identical to the serial run at any shard count —
//! [`crate::FabricStats::shard_invariant`] masks only the three
//! counters describing the runner itself.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use crate::evq::{Ev, EventQueue};
use crate::packet::SimPayload;
use crate::sim::{
    apply_global_event, apply_local_op, dispatch_node, probe_cells, target_of, Agent, Control, Env,
    FabricStats, GlobalEvent, Lane, LocalOp, NodeEvent, Simulator,
};
use crate::telemetry::{FabricEvent, PortProbe, TelemetrySink};
use crate::time::SimTime;
use crate::topology::{NodeId, NodeKind, Topology};

/// A shard's private event queue: the same calendar queue the serial
/// loop runs on.
type ShardQueue<P> = EventQueue<NodeEvent<P>>;
/// `mailboxes[dst][src]`: cross-shard events posted during a window.
type Mailboxes<P> = Vec<Vec<Mutex<Vec<Ev<NodeEvent<P>>>>>>;
/// What each worker hands back at the end of the run: its remaining
/// queue, its lane (stats + buffered notes), events processed, and the
/// timestamp of the last event it executed.
type WorkerResult<P> = (ShardQueue<P>, Lane<P>, u64, u64);

/// A partition of a topology into event-loop shards (see the module
/// docs). Built once per simulator; purely a wall-clock knob — the
/// plan never influences simulated results.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards (≥ 1; a plan that collapses to 1 means the
    /// topology is too small to shard and the serial loop runs).
    pub shards: usize,
    /// Shard of every node, indexed by node id. Hosts always share
    /// their access switch's shard, so host↔ToR traffic never crosses
    /// a shard boundary.
    pub shard_of: Vec<u32>,
    /// The conservative lookahead: the minimum propagation delay over
    /// links whose endpoints live in different shards (≥ 1 ns). Within
    /// one epoch every shard may run `lookahead_ns` past the globally
    /// slowest shard without missing a cross-shard arrival.
    pub lookahead_ns: u64,
    /// Cell storage order: `order[slot]` is the node stored at `slot`,
    /// grouped by shard (ascending node id within each shard).
    pub(crate) order: Vec<u32>,
    /// Per-shard `(start, end)` slot ranges into `order`.
    pub(crate) ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Partition `topo` into up to `shards` shards.
    ///
    /// Switches with a directly attached host anchor the partition
    /// (distance-0 in a multi-source BFS over the switch graph); the
    /// switches at maximum host-distance with no attached host are the
    /// core tier and are round-robined across shards. The rest — the
    /// domain — is split by seeded graph-growing: seeds spread evenly
    /// over the domain in id order (pod-contiguous construction order
    /// makes fat-tree seeds land one per pod), then each shard claims
    /// its smallest-id unclaimed neighbour per round until the domain
    /// is exhausted, keeping shards balanced and connected. Hosts
    /// follow their access switch. Fully deterministic: same topology
    /// and count ⇒ same plan.
    pub fn build(topo: &Topology, shards: usize) -> ShardPlan {
        let n = topo.node_count();
        let is_switch: Vec<bool> = (0..n)
            .map(|i| topo.kind(NodeId(i as u32)) == NodeKind::Switch)
            .collect();
        // Multi-source BFS over the switch graph from host-attached
        // switches.
        let mut host_dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for i in 0..n {
            if !is_switch[i] {
                continue;
            }
            let direct = topo
                .node_ports(NodeId(i as u32))
                .iter()
                .any(|p| topo.kind(p.peer) == NodeKind::Host);
            if direct {
                host_dist[i] = 0;
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            for p in topo.node_ports(NodeId(i as u32)) {
                let j = p.peer.0 as usize;
                if is_switch[j] && host_dist[j] == u32::MAX {
                    host_dist[j] = host_dist[i] + 1;
                    queue.push_back(j);
                }
            }
        }
        let max_dist = (0..n)
            .filter(|&i| is_switch[i] && host_dist[i] != u32::MAX)
            .map(|i| host_dist[i])
            .max()
            .unwrap_or(0);
        let mut in_domain = vec![false; n];
        let mut core = Vec::new();
        let mut domain = Vec::new();
        for i in 0..n {
            if !is_switch[i] {
                continue;
            }
            let is_core = max_dist > 0 && host_dist[i] == max_dist;
            if is_core {
                core.push(i);
            } else {
                in_domain[i] = true;
                domain.push(i);
            }
        }
        if domain.is_empty() {
            // Degenerate fabric (e.g. switches only): partition the
            // "core" directly instead.
            std::mem::swap(&mut domain, &mut core);
            for &i in &domain {
                in_domain[i] = true;
            }
        }
        let k = shards.min(domain.len()).max(1);
        let mut shard_of = vec![u32::MAX; n];
        if k > 1 {
            // Seeds spread evenly over the domain in id order.
            let mut claimed: Vec<Vec<usize>> = Vec::with_capacity(k);
            for s in 0..k {
                let seed = domain[s * domain.len() / k];
                shard_of[seed] = s as u32;
                claimed.push(vec![seed]);
            }
            let mut unassigned = domain.len() - k;
            while unassigned > 0 {
                let mut progress = false;
                for (s, mine) in claimed.iter_mut().enumerate() {
                    // Claim the smallest-id unclaimed domain neighbour
                    // of anything this shard already holds.
                    let mut best: Option<usize> = None;
                    for &c in mine.iter() {
                        for p in topo.node_ports(NodeId(c as u32)) {
                            let j = p.peer.0 as usize;
                            if in_domain[j] && shard_of[j] == u32::MAX {
                                best = Some(best.map_or(j, |b| b.min(j)));
                            }
                        }
                    }
                    if let Some(j) = best {
                        shard_of[j] = s as u32;
                        mine.push(j);
                        unassigned -= 1;
                        progress = true;
                        if unassigned == 0 {
                            break;
                        }
                    }
                }
                if !progress && unassigned > 0 {
                    // Disconnected remainder (only reachable through
                    // the core tier): hand the smallest leftover to
                    // the smallest shard.
                    let j = domain
                        .iter()
                        .copied()
                        .find(|&i| shard_of[i] == u32::MAX)
                        .expect("unassigned > 0");
                    let s = (0..k)
                        .min_by_key(|&s| (claimed[s].len(), s))
                        .expect("k > 0");
                    shard_of[j] = s as u32;
                    claimed[s].push(j);
                    unassigned -= 1;
                }
            }
            for (i, &c) in core.iter().enumerate() {
                shard_of[c] = (i % k) as u32;
            }
        } else {
            for &i in domain.iter().chain(core.iter()) {
                shard_of[i] = 0;
            }
        }
        // Hosts follow their access switch; anything still unassigned
        // (isolated nodes) lands in shard 0.
        for i in 0..n {
            if is_switch[i] {
                continue;
            }
            shard_of[i] = topo
                .node_ports(NodeId(i as u32))
                .first()
                .map(|p| shard_of[p.peer.0 as usize])
                .unwrap_or(0);
        }
        for v in shard_of.iter_mut() {
            if *v == u32::MAX {
                *v = 0;
            }
        }
        // Conservative lookahead: the fastest cross-shard wire. Every
        // cross-shard influence is a packet arrival over a physical
        // link (hosts are single-homed onto their own shard's ToR), so
        // propagation alone bounds it; ≥ 1 keeps the window open even
        // in pathological zero-delay configs.
        let mut la = u64::MAX;
        for i in 0..n {
            for p in topo.node_ports(NodeId(i as u32)) {
                if shard_of[i] != shard_of[p.peer.0 as usize] {
                    la = la.min(p.prop_ns);
                }
            }
        }
        let lookahead_ns = if la == u64::MAX { 1 } else { la.max(1) };
        let mut order = Vec::with_capacity(n);
        let mut ranges = Vec::with_capacity(k);
        for s in 0..k as u32 {
            let start = order.len();
            for (i, &sh) in shard_of.iter().enumerate() {
                if sh == s {
                    order.push(i as u32);
                }
            }
            ranges.push((start, order.len()));
        }
        ShardPlan {
            shards: k,
            shard_of,
            lookahead_ns,
            order,
            ranges,
        }
    }
}

/// What each shard contributes to the serial synchronisation points:
/// buffered telemetry notes every epoch, plus (at bucket boundaries) a
/// cumulative stats snapshot and this shard's switch-port probes.
struct ShardBin {
    notes: Vec<(SimTime, u32, u64, FabricEvent)>,
    probes: Vec<PortProbe>,
    stats: FabricStats,
}

/// The fabric-global state shard workers share behind one `RwLock`:
/// read by every worker during windows (forwarding consults the fault
/// mask and routes), written only by worker 0 at global-event and
/// bucket-boundary barriers.
struct SharedCtx<'a, P, T> {
    topo: &'a mut Topology,
    control: &'a mut Control,
    telemetry: &'a mut T,
    gevents: &'a mut BinaryHeap<Reverse<Ev<GlobalEvent>>>,
    /// Per-node ops of the last applied global event, for workers to
    /// apply to their own cells (in list order) after the barrier.
    ops: Vec<LocalOp>,
    ops_at: SimTime,
    g_processed: u64,
    g_last_at: u64,
    _payload: std::marker::PhantomData<fn() -> P>,
}

/// Drain every bin's buffered notes and replay them to the sink in
/// `(time, rank, seq)` order — exactly the order the serial loop's
/// inline `record` calls would have made (serial processing order *is*
/// key order, and one author's notes are already key-sorted per bin).
fn flush_notes<T: TelemetrySink>(telemetry: &mut T, bins: &[Mutex<ShardBin>]) {
    let mut all = Vec::new();
    for bin in bins {
        all.append(&mut bin.lock().expect("bin lock").notes);
    }
    all.sort_by_key(|&(at, rank, seq, _)| (at, rank, seq));
    for (at, _, _, fe) in all {
        telemetry.record(at, fe);
    }
}

/// Run `sim` up to `deadline` on the sharded loop. Byte-identical to
/// [`Simulator::run_until`]'s serial path per seed; returns the number
/// of events processed across all shards plus global events.
pub(crate) fn run_sharded<P, A, T>(sim: &mut Simulator<P, A, T>, deadline: SimTime) -> u64
where
    P: SimPayload + Send,
    A: Agent<P> + Send,
    T: TelemetrySink + Send + Sync,
{
    let plan = sim.plan.clone().expect("sharded run without a plan");
    let k = plan.shards;
    let deadline_ns = deadline.as_nanos();
    let lookahead = plan.lookahead_ns;
    let tele_on = sim.telemetry.enabled();
    let entry_now = sim.now;
    let reroute_delay = sim.config.reroute_delay_ns;

    // Distribute the pending node events to per-shard queues.
    let mut queues: Vec<ShardQueue<P>> = (0..k).map(|_| EventQueue::default()).collect();
    for ev in std::mem::take(&mut sim.nevents).into_unordered() {
        let t = target_of(&ev.kind, &sim.topo);
        queues[plan.shard_of[t.0 as usize] as usize].push(ev);
    }

    let config = &sim.config;
    let cell_of = &sim.cell_of;
    let shared = RwLock::new(SharedCtx::<P, T> {
        topo: &mut sim.topo,
        control: &mut sim.control,
        telemetry: &mut sim.telemetry,
        gevents: &mut sim.gevents,
        ops: Vec::new(),
        ops_at: entry_now,
        g_processed: 0,
        g_last_at: entry_now.as_nanos(),
        _payload: std::marker::PhantomData,
    });

    // Disjoint per-shard cell slices (cells are stored shard-grouped).
    let mut slices: Vec<&mut [crate::sim::NodeCell<P, A>]> = Vec::with_capacity(k);
    let mut rest = &mut sim.cells[..];
    for &(s, e) in &plan.ranges {
        let (head, tail) = rest.split_at_mut(e - s);
        slices.push(head);
        rest = tail;
    }

    // mailboxes[dst][src]: cross-shard events posted during a window,
    // drained by the destination after the epoch barrier. Insertion
    // order is irrelevant — the queue's total key order re-serialises.
    let mailboxes: Mailboxes<P> = (0..k)
        .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let bins: Vec<Mutex<ShardBin>> = (0..k)
        .map(|_| {
            Mutex::new(ShardBin {
                notes: Vec::new(),
                probes: Vec::new(),
                stats: FabricStats::default(),
            })
        })
        .collect();
    let next_pub: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    let tg_pub = AtomicU64::new(u64::MAX);
    let tb_pub = AtomicU64::new(u64::MAX);
    let barrier = Barrier::new(k);

    let mut results: Vec<WorkerResult<P>> = Vec::with_capacity(k);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for (w, (mut queue, cells_w)) in queues.drain(..).zip(slices.drain(..)).enumerate() {
            let (plan, shared, barrier) = (&plan, &shared, &barrier);
            let (mailboxes, bins, next_pub) = (&mailboxes, &bins, &next_pub);
            let (tg_pub, tb_pub) = (&tg_pub, &tb_pub);
            handles.push(scope.spawn(move || {
                let slot_base = plan.ranges[w].0;
                let mut lane = Lane::<P>::default();
                let mut processed = 0u64;
                let mut last_at = entry_now.as_nanos();
                loop {
                    // Phase 1: hand buffered notes to the bin and
                    // publish this shard's clock; worker 0 publishes
                    // the global and bucket-boundary clocks.
                    if tele_on && !lane.notes.is_empty() {
                        bins[w]
                            .lock()
                            .expect("bin lock")
                            .notes
                            .append(&mut lane.notes);
                    }
                    let t_own = queue.peek().map_or(u64::MAX, |e| e.at.as_nanos());
                    next_pub[w].store(t_own, Ordering::SeqCst);
                    if w == 0 {
                        let g = shared.read().expect("shared read");
                        tg_pub.store(
                            g.gevents
                                .peek()
                                .map(|Reverse(e)| e.at.as_nanos())
                                .unwrap_or(u64::MAX),
                            Ordering::SeqCst,
                        );
                        tb_pub.store(g.telemetry.next_boundary().as_nanos(), Ordering::SeqCst);
                    }
                    barrier.wait();
                    // Phase 2: every worker computes the same branch
                    // from the published clocks.
                    let t_node = next_pub
                        .iter()
                        .map(|a| a.load(Ordering::SeqCst))
                        .min()
                        .expect("k >= 1");
                    let tg = tg_pub.load(Ordering::SeqCst);
                    let tb = tb_pub.load(Ordering::SeqCst);
                    let t_next = t_node.min(tg);
                    if t_next == u64::MAX {
                        break; // all queues drained
                    }
                    if t_next > deadline_ns {
                        break;
                    }
                    if w == 0 {
                        lane.stats.shard_epochs += 1;
                    }
                    if tb <= t_next {
                        // Bucket boundary: contribute probes and a
                        // cumulative stats snapshot, then worker 0
                        // closes buckets exactly as the serial loop
                        // would before executing the event at t_next.
                        {
                            let g = shared.read().expect("shared read");
                            let mut bin = bins[w].lock().expect("bin lock");
                            bin.stats = lane.stats;
                            bin.probes.clear();
                            probe_cells(g.topo, cells_w.iter(), &mut bin.probes);
                        }
                        barrier.wait();
                        if w == 0 {
                            let mut g = shared.write().expect("shared write");
                            let sh = &mut *g;
                            flush_notes(sh.telemetry, bins);
                            let mut probes = Vec::new();
                            let mut total = sh.control.stats;
                            for bin in bins {
                                let mut b = bin.lock().expect("bin lock");
                                probes.append(&mut b.probes);
                                total.absorb(&b.stats);
                            }
                            probes.sort_by_key(|p| (p.node, p.port));
                            let upto = SimTime::from_nanos(t_next);
                            while upto >= sh.telemetry.next_boundary() {
                                sh.telemetry.close_bucket(&total, &probes);
                            }
                        }
                        continue;
                    }
                    if tg <= t_node {
                        // Global event: worker 0 applies the shared
                        // part serially; everyone then applies its
                        // per-node ops to its own cells.
                        if w == 0 {
                            let mut g = shared.write().expect("shared write");
                            let sh = &mut *g;
                            if tele_on {
                                flush_notes(sh.telemetry, bins);
                            }
                            let Reverse(gev) =
                                sh.gevents.pop().expect("global clock from this heap");
                            debug_assert_eq!(gev.at.as_nanos(), tg);
                            sh.g_last_at = tg;
                            sh.g_processed += 1;
                            sh.ops.clear();
                            sh.ops_at = gev.at;
                            apply_global_event(
                                sh.topo,
                                sh.control,
                                sh.telemetry,
                                sh.gevents,
                                reroute_delay,
                                gev,
                                &mut sh.ops,
                            );
                        }
                        barrier.wait();
                        {
                            let g = shared.read().expect("shared read");
                            let at = g.ops_at;
                            // A cell another shard owns is that shard's
                            // to touch.
                            let slot_of = |n: NodeId| {
                                (plan.shard_of[n.0 as usize] as usize == w)
                                    .then(|| cell_of[n.0 as usize] as usize - slot_base)
                            };
                            for &op in &g.ops {
                                apply_local_op(
                                    cells_w,
                                    slot_of,
                                    &mut queue,
                                    &mut lane.stats,
                                    at,
                                    op,
                                );
                            }
                        }
                        continue;
                    }
                    // Window: run this shard's events strictly below
                    // the conservative horizon. Everything a window
                    // event can emit lands either back on this queue
                    // (own-node timers/dequeues, same-shard arrivals,
                    // possibly still inside the window) or at
                    // `t + cross-shard prop ≥ horizon` in a mailbox.
                    let horizon = t_node
                        .saturating_add(lookahead)
                        .min(tg)
                        .min(tb)
                        .min(deadline_ns.saturating_add(1));
                    let mut did = 0u64;
                    {
                        let g = shared.read().expect("shared read");
                        let env = Env {
                            topo: &*g.topo,
                            config,
                            control: &*g.control,
                            tele_on,
                        };
                        // The window test peeks: an event at or past
                        // the horizon stays put, cursor and all.
                        while queue.peek().is_some_and(|e| e.at.as_nanos() < horizon) {
                            let ev = queue.pop().expect("peeked");
                            last_at = ev.at.as_nanos();
                            let target = target_of(&ev.kind, env.topo);
                            let slot = cell_of[target.0 as usize] as usize - slot_base;
                            dispatch_node(
                                &env,
                                &mut cells_w[slot],
                                &mut lane,
                                ev.at,
                                ev.rank,
                                ev.seq,
                                ev.kind,
                            );
                            while let Some(oe) = lane.out.pop() {
                                let ot = target_of(&oe.kind, env.topo);
                                let os = plan.shard_of[ot.0 as usize] as usize;
                                if os == w {
                                    queue.push(oe);
                                } else {
                                    lane.stats.cross_shard_packets += 1;
                                    mailboxes[os][w].lock().expect("mailbox").push(oe);
                                }
                            }
                            did += 1;
                        }
                    }
                    if did == 0 && t_own != u64::MAX {
                        // Had work, but the horizon closed before any
                        // of it: the conservative window held this
                        // shard back a full epoch.
                        lane.stats.horizon_stalls += 1;
                    }
                    processed += did;
                    barrier.wait();
                    // Epoch close: collect what the neighbours mailed.
                    for slot in &mailboxes[w] {
                        let mut mb = slot.lock().expect("mailbox");
                        for ev in mb.drain(..) {
                            queue.push(ev);
                        }
                    }
                }
                lane.stats.events += processed;
                (queue, lane, processed, last_at)
            }));
        }
        for h in handles {
            results.push(h.join().expect("shard worker panicked"));
        }
    });

    // Reassemble: merge queues and lanes back into the simulator, flush
    // any notes buffered since the last synchronisation point, and
    // advance the clock to the last executed event.
    let mut node_processed = 0u64;
    let mut max_at = entry_now.as_nanos();
    let mut leftover: Vec<(SimTime, u32, u64, FabricEvent)> = Vec::new();
    for (queue, mut wl, p, la) in results {
        for ev in queue.into_unordered() {
            sim.nevents.push(ev);
        }
        leftover.append(&mut wl.notes);
        sim.lane.stats.absorb(&wl.stats);
        node_processed += p;
        max_at = max_at.max(la);
    }
    let sh = shared.into_inner().expect("shared poisoned");
    let (g_processed, g_last_at) = (sh.g_processed, sh.g_last_at);
    drop(sh);
    for bin in &bins {
        leftover.append(&mut bin.lock().expect("bin lock").notes);
    }
    if tele_on {
        leftover.sort_by_key(|&(at, rank, seq, _)| (at, rank, seq));
        for (at, _, _, fe) in leftover {
            sim.telemetry.record(at, fe);
        }
    }
    sim.control.stats.events += g_processed;
    sim.now = SimTime::from_nanos(max_at.max(g_last_at));
    node_processed + g_processed
}
