//! The event loop: conservative time-window simulation over one or
//! more shards.
//!
//! The fabric is partitioned into switch-group shards (hosts follow
//! their access switch; fat-tree pods fall out of seeded graph-growing
//! over the non-core switches; Jellyfish partitions the same way; core
//! switches are round-robined). Each shard owns its nodes' cells and a
//! private event queue, and shards run under conservative
//! synchronisation: every epoch, each shard executes its events up to
//! `horizon = min(all shard clocks) + lookahead`, where lookahead is
//! the minimum propagation delay over cross-shard links — an event at
//! time `t` can influence another shard no earlier than
//! `t + lookahead`, so everything below the horizon is safe to run
//! without seeing the neighbours' future. Dispatch pushes each event
//! it emits straight into its own shard's queue, or into an outbox when
//! it will run on another shard; outboxes are handed over once per
//! window, one mailbox lock per destination. Global events (faults and
//! reroutes, which mutate fabric-wide state) execute alone at barriers,
//! as do telemetry bucket closes.
//!
//! There is one driver. **One shard** — the default, or what a request
//! collapses to on a fabric that cannot be split — is its degenerate
//! case, not a second loop: the plan is the whole fabric in node-id
//! order, no link crosses a shard so the lookahead is unbounded, and
//! the single worker runs inline on the calling thread with the
//! simulator's lane, queue and all, moved in and out whole. Its windows
//! end only where something global happens — the next fault or
//! reroute, a telemetry bucket boundary, the deadline — so a run is one
//! window per such point and the per-event work is pop, then dispatch,
//! which pushes what the event emits. With more shards each worker is a
//! scoped thread.
//!
//! Determinism is inherited, not re-proved: every event carries the
//! execution-order-independent key `(time, author rank, author seq)`
//! (see [`crate::sim`]), so each shard's queue pops its events in
//! exactly the order one shard would have reached them, each node's RNG
//! stream and sequence counter advance identically, and the mailbox
//! insertion order is irrelevant. A run is therefore byte-identical at
//! any shard count — [`crate::FabricStats::shard_invariant`] masks only
//! the counters describing the runner itself, which count what happens
//! where two or more workers meet at a barrier and so stay 0 at one
//! shard.
//!
//! How well the work divides is itself counted, not timed:
//! [`crate::FabricStats::shard_critical_events`] sums, per window, the
//! events of the busiest shard (plus one per global event, which every
//! shard waits on). `events ÷ shard_critical_events` is the speed-up
//! ceiling of the partition — a pure function of seed and shard count,
//! the same on any machine at any core count.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock};

use crate::evq::Ev;
use crate::packet::SimPayload;
use crate::sim::{
    apply_global_event, apply_local_op, dispatch_node, probe_cells, target_of, Agent, Control, Env,
    FabricStats, GlobalEvent, Lane, LocalOp, NodeCell, NodeEvent, SimConfig, Simulator,
};
use crate::telemetry::{FabricEvent, PortProbe, TelemetrySink};
use crate::time::SimTime;
use crate::topology::{NodeId, NodeKind, Topology};

/// One shard's incoming mail: the cross-shard events the other shards
/// handed over at the end of a window, drained after the window's
/// barrier.
struct Mailbox<P> {
    events: Mutex<Vec<Ev<NodeEvent<P>>>>,
    /// Some shard handed events over since the last drain. Set before
    /// the barrier and cleared after it, so the barrier orders every
    /// read after the writes it must see.
    full: AtomicBool,
}

/// What each worker hands back at the end of the run: its lane (the
/// remaining queue, stats and the run's telemetry notes), events
/// processed, and the timestamp of the last event it executed.
type WorkerResult<P> = (Lane<P>, u64, u64);

/// A partition of a topology into event-loop shards (see the module
/// docs). Built once per simulator; purely a wall-clock knob — the
/// plan never influences simulated results.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    /// Number of shards (≥ 1). One shard — asked for, or what a request
    /// collapses to on a fabric too small to split — is the whole
    /// fabric in node-id order with an unbounded lookahead.
    pub(crate) shards: usize,
    /// Shard of every node, indexed by node id. Hosts always share
    /// their access switch's shard, so host↔ToR traffic never crosses
    /// a shard boundary.
    pub(crate) shard_of: Vec<u32>,
    /// The conservative lookahead: the minimum propagation delay over
    /// links whose endpoints live in different shards (≥ 1 ns), or
    /// `u64::MAX` when no link crosses shards — nothing a shard does
    /// can then reach another, so no window ever has to close for it.
    /// Within one epoch every shard may run `lookahead_ns` past the
    /// globally slowest shard without missing a cross-shard arrival.
    pub(crate) lookahead_ns: u64,
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
    pub(crate) fn build(topo: &Topology, shards: usize) -> ShardPlan {
        let n = topo.node_count();
        if shards <= 1 {
            return ShardPlan {
                shards: 1,
                shard_of: vec![0; n],
                lookahead_ns: u64::MAX,
                order: (0..n as u32).collect(),
                ranges: vec![(0, n)],
            };
        }
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
        // in pathological zero-delay configs. With no crossing link at
        // all it stays unbounded (the horizon saturates).
        let mut lookahead_ns = u64::MAX;
        for i in 0..n {
            for p in topo.node_ports(NodeId(i as u32)) {
                if shard_of[i] != shard_of[p.peer.0 as usize] {
                    lookahead_ns = lookahead_ns.min(p.prop_ns.max(1));
                }
            }
        }
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

#[cfg(test)]
thread_local! {
    /// Windows opened by workers on this thread — at one shard, where
    /// no epoch is counted, the tests' only view of how often the loop
    /// came up for air.
    static WINDOWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Resolve the user-facing shard count ([`SimConfig::shards`]): `0` =
/// one shard per available core (as the OS reports it — cgroup and
/// affinity limits included), anything else is taken literally.
pub(crate) fn resolve(shards: usize) -> usize {
    if shards == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        shards
    }
}

/// A sibling unwound: the run is over, and `run` resumes its panic.
#[derive(Debug)]
struct Poisoned;

/// The workers' meeting point: a barrier that a panicking worker
/// poisons, so its siblings return [`Poisoned`] instead of waiting for
/// it forever.
struct EpochBarrier {
    workers: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    /// The first worker that unwound.
    poisoned_by: Option<usize>,
}

impl EpochBarrier {
    fn new(workers: usize) -> Self {
        Self {
            workers,
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        // The state is never left half-written, so a poisoned mutex
        // holds a valid one.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block until every worker has arrived, or until one unwinds.
    fn wait(&self) -> Result<(), Poisoned> {
        let mut s = self.lock();
        if s.poisoned_by.is_some() {
            return Err(Poisoned);
        }
        s.arrived += 1;
        if s.arrived == self.workers {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let generation = s.generation;
        while s.generation == generation && s.poisoned_by.is_none() {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if s.generation == generation {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    /// Worker `w` is unwinding: release every waiter, now and later.
    fn poison(&self, w: usize) {
        self.lock().poisoned_by.get_or_insert(w);
        self.cv.notify_all();
    }
}

/// Poisons the barrier if its worker's thread unwinds past it.
struct PoisonOnPanic<'a>(&'a EpochBarrier, usize);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison(self.1);
        }
    }
}

/// What each shard contributes at a bucket boundary: a cumulative
/// stats snapshot and this shard's switch-port probes. (Telemetry notes
/// stay in the lane until the run ends.)
struct ShardBin {
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

/// Everything the workers of one run share: the plan, the read-only
/// simulator parts, the locked global state, and the per-epoch exchange
/// (mailboxes, bins, published clocks and counts, the barrier).
struct Epochs<'a, P, T> {
    plan: &'a ShardPlan,
    config: &'a SimConfig,
    cell_of: &'a [u32],
    shared: RwLock<SharedCtx<'a, P, T>>,
    /// `mailboxes[dst]`: cross-shard events handed over at the end of a
    /// window, drained by `dst` after the epoch barrier. Insertion
    /// order is irrelevant — the queue's total key order re-serialises.
    mailboxes: Vec<Mailbox<P>>,
    bins: Vec<Mutex<ShardBin>>,
    /// Each shard's next event time, published before the barrier.
    next_pub: Vec<AtomicU64>,
    /// Events each shard executed in the window just closed.
    did_pub: Vec<AtomicU64>,
    tg_pub: AtomicU64,
    tb_pub: AtomicU64,
    barrier: EpochBarrier,
    deadline_ns: u64,
    tele_on: bool,
    entry_now: SimTime,
}

/// Replay a run's telemetry notes, gathered from every lane, to the
/// sink in `(time, rank, seq)` order — execution order at one shard,
/// and the order one shard would have executed them in at any count.
/// The sink files each note after every annotation at or before its
/// instant, so the global events' annotations, recorded as they were
/// applied, keep their place.
fn flush_notes<T: TelemetrySink>(
    telemetry: &mut T,
    mut notes: Vec<(SimTime, u32, u64, FabricEvent)>,
) {
    notes.sort_by_key(|&(at, rank, seq, _)| (at, rank, seq));
    for (at, _, _, fe) in notes {
        telemetry.record(at, fe);
    }
}

/// Run `sim` up to `deadline`: [`Simulator::run_until`]'s body, the one
/// event loop. Returns the number of events processed across all
/// shards plus global events.
///
/// Shard 0 takes the simulator's own lane, queue and all, moved in and
/// out whole; with more shards the pending events are dealt out first
/// and merged back after. One shard runs on the calling thread.
pub(crate) fn run<P, A, T>(sim: &mut Simulator<P, A, T>, deadline: SimTime) -> u64
where
    P: SimPayload + Send,
    A: Agent<P> + Send,
    T: TelemetrySink + Send + Sync,
{
    let plan = &sim.plan;
    let k = plan.shards;
    let entry_now = sim.now;
    let tele_on = sim.telemetry.enabled();

    let mut lanes = vec![std::mem::take(&mut sim.lane)];
    lanes.extend((1..k).map(|w| Lane::new(w, k)));
    if k > 1 {
        for ev in std::mem::take(&mut lanes[0].queue).into_unordered() {
            let s = plan.shard_of[target_of(&ev.kind).0 as usize] as usize;
            lanes[s].queue.push(ev);
        }
    }

    // Disjoint per-shard cell slices (cells are stored shard-grouped).
    let mut slices: Vec<&mut [NodeCell<P, A>]> = Vec::with_capacity(k);
    let mut rest = &mut sim.cells[..];
    for &(s, e) in &plan.ranges {
        let (head, tail) = rest.split_at_mut(e - s);
        slices.push(head);
        rest = tail;
    }

    let epochs = Epochs::<P, T> {
        plan,
        config: &sim.config,
        cell_of: &sim.cell_of,
        shared: RwLock::new(SharedCtx {
            topo: &mut sim.topo,
            control: &mut sim.control,
            telemetry: &mut sim.telemetry,
            gevents: &mut sim.gevents,
            ops: Vec::new(),
            ops_at: entry_now,
            g_processed: 0,
            g_last_at: entry_now.as_nanos(),
            _payload: std::marker::PhantomData,
        }),
        mailboxes: (0..k)
            .map(|_| Mailbox {
                events: Mutex::new(Vec::new()),
                full: AtomicBool::new(false),
            })
            .collect(),
        bins: (0..k)
            .map(|_| {
                Mutex::new(ShardBin {
                    probes: Vec::new(),
                    stats: FabricStats::default(),
                })
            })
            .collect(),
        next_pub: (0..k).map(|_| AtomicU64::new(0)).collect(),
        did_pub: (0..k).map(|_| AtomicU64::new(0)).collect(),
        tg_pub: AtomicU64::new(u64::MAX),
        tb_pub: AtomicU64::new(u64::MAX),
        barrier: EpochBarrier::new(k),
        deadline_ns: deadline.as_nanos(),
        tele_on,
        entry_now,
    };

    let seats = lanes.into_iter().zip(slices).enumerate();
    let results: Vec<WorkerResult<P>> = if k == 1 {
        // No thread: an agent's panic unwinds to the caller as itself.
        seats
            .map(|(w, (lane, cells))| {
                worker(&epochs, w, lane, cells).expect("a lone worker has no sibling")
            })
            .collect()
    } else {
        let joined: Vec<_> = std::thread::scope(|scope| {
            let epochs = &epochs;
            let handles: Vec<_> = seats
                .map(|(w, (lane, cells))| scope.spawn(move || worker(epochs, w, lane, cells)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // A worker that unwound poisoned the barrier, and its siblings
        // left at their next wait: its panic is the run's.
        if let Some(w) = epochs.barrier.lock().poisoned_by {
            let mut joined = joined;
            match joined.swap_remove(w) {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(_) => unreachable!("worker {w} poisoned the barrier without unwinding"),
            }
        }
        joined
            .into_iter()
            .map(|r| {
                r.expect("no worker unwound")
                    .expect("an unpoisoned barrier never fails")
            })
            .collect()
    };

    // Reassemble: every lane's notes to the sink, lanes back into the
    // simulator, and the clock to the last executed event.
    let sh = epochs.shared.into_inner().expect("shared poisoned");
    let mut processed = sh.g_processed;
    let mut max_at = sh.g_last_at;
    sh.control.stats.events += sh.g_processed;
    let mut notes = Vec::new();
    for (w, (mut lane, did, last_at)) in results.into_iter().enumerate() {
        notes.append(&mut lane.notes);
        processed += did;
        max_at = max_at.max(last_at);
        if w == 0 {
            sim.lane = lane;
        } else {
            for ev in lane.queue.into_unordered() {
                sim.lane.queue.push(ev);
            }
            sim.lane.stats.absorb(&lane.stats);
        }
    }
    flush_notes(sh.telemetry, notes);
    sim.now = SimTime::from_nanos(max_at);
    processed
}

/// Shard `w`'s side of a run: epochs until every queue is drained or
/// the next event lies past the deadline.
///
/// Never inlined: it has two callers (inline and spawned), and one
/// copy of the loop with `dispatch_node` in it measured 5 % faster on
/// the k = 10 multicast-write benchmark, in a 100 KB smaller binary,
/// than a copy at each.
#[inline(never)]
fn worker<P, A, T>(
    run: &Epochs<'_, P, T>,
    w: usize,
    mut lane: Lane<P>,
    cells_w: &mut [NodeCell<P, A>],
) -> Result<WorkerResult<P>, Poisoned>
where
    P: SimPayload,
    A: Agent<P>,
    T: TelemetrySink,
{
    let &Epochs {
        plan,
        config,
        cell_of,
        ref shared,
        ref mailboxes,
        ref bins,
        ref next_pub,
        ref did_pub,
        ref tg_pub,
        ref tb_pub,
        ref barrier,
        deadline_ns,
        tele_on,
        entry_now,
    } = run;
    let _poison = PoisonOnPanic(barrier, w);
    let slot_base = plan.ranges[w].0;
    // The shard-machinery counters describe workers meeting at a
    // barrier: with one worker there is nothing to count.
    let meets = plan.shards > 1;
    let mut processed = 0u64;
    let mut last_at = entry_now.as_nanos();
    loop {
        // Phase 1: publish this shard's clock; worker 0 publishes the
        // global and bucket-boundary clocks.
        let t_own = lane.queue.peek().map_or(u64::MAX, |e| e.at.as_nanos());
        next_pub[w].store(t_own, Ordering::SeqCst);
        if w == 0 {
            let g = shared.read().expect("shared read");
            let tg = g
                .gevents
                .peek()
                .map_or(u64::MAX, |Reverse(e)| e.at.as_nanos());
            tg_pub.store(tg, Ordering::SeqCst);
            tb_pub.store(g.telemetry.next_boundary().as_nanos(), Ordering::SeqCst);
        }
        barrier.wait()?;
        // Phase 2: every worker computes the same branch from the
        // published clocks.
        let t_node = run
            .next_pub
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .min()
            .expect("k >= 1");
        let tg = tg_pub.load(Ordering::SeqCst);
        let tb = tb_pub.load(Ordering::SeqCst);
        let t_next = t_node.min(tg);
        // All queues drained (`u64::MAX`), or nothing left this side
        // of the deadline.
        if t_next == u64::MAX || t_next > deadline_ns {
            break;
        }
        if meets && w == 0 {
            lane.stats.shard_epochs += 1;
        }
        if tb <= t_next {
            // Bucket boundary: an event at or past the open bucket's
            // end closes it first, so a bucket never includes later
            // activity. Counters only change at events, so closing
            // lazily here equals an eager probe at each boundary
            // without a probe event in the queue (which would perturb
            // sequence numbers). Everyone contributes probes and a
            // cumulative stats snapshot, then worker 0 closes.
            {
                let g = shared.read().expect("shared read");
                let mut bin = bins[w].lock().expect("bin lock");
                bin.stats = lane.stats;
                bin.probes.clear();
                probe_cells(g.topo, cells_w.iter(), &mut bin.probes);
            }
            barrier.wait()?;
            if w == 0 {
                let mut g = shared.write().expect("shared write");
                let sh = &mut *g;
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
            // Global event (rank 0: it sorts before any node event of
            // its instant): worker 0 applies the shared part; everyone
            // then applies its per-node ops to its own cells.
            if w == 0 {
                let mut g = shared.write().expect("shared write");
                let sh = &mut *g;
                let Reverse(gev) = sh.gevents.pop().expect("global clock from this heap");
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
                    config.reroute_delay_ns,
                    gev,
                    &mut sh.ops,
                );
                if meets {
                    // Every shard waits on it.
                    lane.stats.shard_critical_events += 1;
                }
            }
            barrier.wait()?;
            {
                let g = shared.read().expect("shared read");
                let at = g.ops_at;
                // A cell another shard owns is that shard's to touch.
                let slot_of = |n: NodeId| {
                    (plan.shard_of[n.0 as usize] as usize == w)
                        .then(|| cell_of[n.0 as usize] as usize - slot_base)
                };
                for &op in &g.ops {
                    apply_local_op(cells_w, slot_of, &mut lane.queue, &mut lane.stats, at, op);
                }
            }
            continue;
        }
        // Window: run this shard's events strictly below the
        // conservative horizon. Everything a window event can emit
        // lands either straight back on this queue (own-node
        // timers/dequeues, same-shard arrivals, possibly still inside
        // the window) or at `t + cross-shard prop ≥ horizon` in an
        // outbox. One shard's lookahead is unbounded: its window ends
        // at the next global event, bucket boundary or the deadline.
        let horizon = t_node
            .saturating_add(plan.lookahead_ns)
            .min(tg)
            .min(tb)
            .min(deadline_ns.saturating_add(1));
        #[cfg(test)]
        WINDOWS.with(|c| c.set(c.get() + 1));
        let mut did = 0u64;
        {
            let g = shared.read().expect("shared read");
            let env = Env {
                topo: &*g.topo,
                shard_of: &plan.shard_of,
                config,
                control: &*g.control,
                tele_on,
            };
            // An event at or past the horizon stays put, cursor and all.
            while let Some(ev) = lane.queue.pop_before(horizon) {
                last_at = ev.at.as_nanos();
                let slot = cell_of[target_of(&ev.kind).0 as usize] as usize - slot_base;
                dispatch_node(
                    &env,
                    &mut cells_w[slot],
                    &mut lane,
                    ev.at,
                    ev.rank,
                    ev.seq,
                    ev.kind,
                );
                did += 1;
            }
        }
        processed += did;
        // Hand the window's cross-shard events over: one lock per shard
        // they go to, however many there are.
        for (outbox, mailbox) in lane.outboxes.iter_mut().zip(mailboxes) {
            if !outbox.is_empty() {
                lane.stats.cross_shard_packets += outbox.len() as u64;
                lane.stats.shard_lock_acquisitions += 1;
                mailbox.events.lock().expect("mailbox").append(outbox);
                mailbox.full.store(true, Ordering::SeqCst);
            }
        }
        if meets {
            if did == 0 && t_own != u64::MAX {
                // Had work, but the horizon closed before any of it:
                // the conservative window held this shard back a full
                // epoch.
                lane.stats.horizon_stalls += 1;
            }
            did_pub[w].store(did, Ordering::SeqCst);
        }
        barrier.wait()?;
        // Epoch close: the window cost its busiest shard's events (the
        // next publish is behind the next barrier, so this read cannot
        // race), and the neighbours' mail comes in.
        if meets && w == 0 {
            lane.stats.shard_critical_events += run
                .did_pub
                .iter()
                .map(|d| d.load(Ordering::SeqCst))
                .max()
                .expect("k >= 1");
        }
        if mailboxes[w].full.swap(false, Ordering::SeqCst) {
            lane.stats.shard_lock_acquisitions += 1;
            for ev in mailboxes[w].events.lock().expect("mailbox").drain(..) {
                lane.queue.push(ev);
            }
        }
    }
    lane.stats.events += processed;
    Ok((lane, processed, last_at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{probe_sim, Probe, P};
    use crate::telemetry::{NoTelemetry, Recorder, TelemetryConfig};
    use crate::topology::RoutingPolicy;
    use std::thread::ThreadId;

    const GLOBAL_EVENTS: u64 = 4;

    fn callback_threads<T: TelemetrySink>(sim: &Simulator<P, Probe, T>) -> Vec<ThreadId> {
        sim.agents()
            .flat_map(|(_, a)| a.threads.iter().copied())
            .collect()
    }

    #[test]
    fn resolve_zero_is_at_least_one() {
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(7), 7);
    }

    /// One shard, asked for or collapsed, is one inline worker: the plan
    /// is the whole fabric in node-id order, its lookahead is unbounded
    /// (a 1 ns lookahead would cut the run into 1 ns windows), and every
    /// agent callback runs on the thread that called `run_until`. Two
    /// shards run on threads of their own.
    #[test]
    fn one_shard_asked_for_or_collapsed_is_one_inline_worker() {
        let mut lone = Topology::new();
        let a = lone.add_node(NodeKind::Host);
        let s = lone.add_node(NodeKind::Switch);
        lone.connect(a, s, 1_000_000_000, 10_000);
        lone.compute_routes();
        let fat = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
        // (fabric, request): one switch cannot be split four ways.
        for (topo, request) in [(&fat, 1), (&lone, 4)] {
            let n = topo.node_count();
            let mut cfg = SimConfig::ndp(7);
            cfg.shards = request;
            let sim: Simulator<P, Probe> = Simulator::new(topo.clone(), cfg);
            assert_eq!(sim.plan.shards, 1);
            assert_eq!(sim.plan.lookahead_ns, u64::MAX);
            assert_eq!(sim.plan.ranges, [(0, n)]);
            assert!(sim.plan.shard_of.iter().all(|&s| s == 0));
            assert_eq!(sim.cell_of, (0..n as u32).collect::<Vec<_>>());
        }
        assert_eq!(ShardPlan::build(&fat, 2).lookahead_ns, 10_000);

        let here = std::thread::current().id();
        let mut one = probe_sim(1, NoTelemetry);
        one.run_to_completion();
        let threads = callback_threads(&one);
        assert!(threads.len() > 16, "timers and deliveries");
        assert!(threads.iter().all(|&t| t == here), "one shard is inline");
        let mut two = probe_sim(2, NoTelemetry);
        two.run_to_completion();
        let threads = callback_threads(&two);
        assert!(threads.iter().all(|&t| t != here), "two shards are spawned");
        assert_eq!(one.stats().shard_invariant(), two.stats().shard_invariant());
    }

    /// A one-shard run comes up for air only where something global
    /// happens: at most one window per global event, telemetry bucket
    /// and deadline. And the shard-machinery counters describe workers
    /// meeting at barriers, so they stay 0 — bucket boundaries or not.
    #[test]
    fn one_shard_run_opens_a_window_per_global_point_and_counts_no_shard_machinery() {
        let before = WINDOWS.get();
        let mut off = probe_sim(1, NoTelemetry);
        let events = off.run_to_completion();
        let windows = WINDOWS.get() - before;
        assert!(events > 16 * 30 * 6);
        assert!(
            (1..=GLOBAL_EVENTS + 2).contains(&windows),
            "{windows} windows for {GLOBAL_EVENTS} global events"
        );

        let rec = Recorder::new(TelemetryConfig { window_ns: 50_000 });
        let before = WINDOWS.get();
        let mut on = probe_sim(1, Some(rec));
        on.run_to_completion();
        let windows = WINDOWS.get() - before;
        let buckets = on.telemetry().as_ref().unwrap().buckets().len() as u64;
        assert!(buckets >= 10, "a ≥ 500 µs run in 50 µs buckets");
        assert!(
            windows > GLOBAL_EVENTS + 2 && windows <= GLOBAL_EVENTS + buckets + 2,
            "{windows} windows for {GLOBAL_EVENTS} global events and {buckets} buckets"
        );

        for stats in [off.stats(), on.stats()] {
            assert_eq!(stats, stats.shard_invariant());
        }
        assert_eq!(off.stats(), on.stats());
    }

    /// Cross-shard events change hands once per window, so mailbox
    /// locks count shards, not packets: none at one shard, and at 2 and
    /// 4 shards fewer than the packets that cross — per epoch at most
    /// one hand-over per ordered shard pair and one drain per shard,
    /// `k²` in all.
    #[test]
    fn shard_mailbox_locks_are_per_shard_pair_per_window_not_per_packet() {
        let mut one = probe_sim(1, NoTelemetry);
        one.run_to_completion();
        assert_eq!(one.stats().shard_lock_acquisitions, 0);
        for shards in [2u64, 4] {
            let mut sim = probe_sim(shards as usize, NoTelemetry);
            sim.run_to_completion();
            let stats = sim.stats();
            let (locks, crossed, epochs) = (
                stats.shard_lock_acquisitions,
                stats.cross_shard_packets,
                stats.shard_epochs,
            );
            assert!(
                0 < locks && locks < crossed,
                "shards={shards}: {locks} locks for {crossed} cross-shard packets"
            );
            assert!(
                locks <= shards * shards * epochs,
                "shards={shards}: {locks} locks over {epochs} epochs"
            );
            assert_eq!(stats.shard_invariant(), one.stats().shard_invariant());
        }
    }

    /// Run the probe fabric at `shards` with one agent primed to panic
    /// on its next timer.
    fn blow_up(shards: usize) {
        let mut sim = probe_sim(shards, NoTelemetry);
        let host = sim.topology().hosts()[3];
        sim.schedule_timer(host, SimTime::from_micros(40), 1);
        sim.run_to_completion();
    }

    #[test]
    #[should_panic(expected = "probe blew up on purpose")]
    fn panicking_agent_at_one_shard_unwinds_with_its_own_message() {
        blow_up(1);
    }

    /// With more shards the panic is a worker thread's. It must still
    /// reach the caller with its own message, and promptly: its siblings
    /// leave the barrier instead of waiting for it forever.
    #[test]
    fn panicking_agent_at_two_and_four_shards_unwinds_with_its_own_message_within_a_second() {
        for shards in [2, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| blow_up(shards));
                tx.send(outcome.map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                }))
                .expect("the test waits");
            });
            let outcome = rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("{shards} shards: still running after 1 s"));
            let message = outcome.expect_err("the probe panics");
            assert!(
                message.contains("probe blew up on purpose"),
                "{shards} shards: {message:?}"
            );
        }
    }

    /// The speed-up ceiling `events ÷ shard_critical_events` is counted,
    /// not timed: exact per (seed, shard count) on re-run, above 1 (the
    /// work divides) and at most the shard count (a window costs at
    /// least its busiest shard).
    #[test]
    fn shard_speedup_ceiling_is_exact_and_bounded_by_the_shard_count() {
        for shards in [2u64, 4] {
            let run = || {
                let mut sim = probe_sim(shards as usize, NoTelemetry);
                sim.run_to_completion();
                sim.stats()
            };
            let stats = run();
            assert_eq!(stats, run(), "shards={shards}: exact on re-run");
            assert!(stats.shard_epochs > 0);
            let (events, critical) = (stats.events, stats.shard_critical_events);
            assert!(
                critical < events && events <= shards * critical,
                "shards={shards}: {events} events over a critical path of {critical}"
            );
        }
    }
}
