//! Experiment runners: map logical scenarios onto Polyraptor or TCP
//! simulations, run them to completion, and aggregate per-session
//! goodput the way the paper plots it.

use std::collections::BTreeMap;

use netsim::{
    LayerAssign, NoTelemetry, NodeId, Pcg32, QueueConfig, RouteMode, RoutingPolicy, SimConfig,
    SimTime, Simulator, TelemetrySink, Topology,
};
use polyraptor::{start_token, PolyraptorAgent, PrConfig, PrPayload, SessionId, SessionSpec};
use tcpsim::{conn_start_token, ConnId, ConnSpec, TcpAgent, TcpConfig, TcpPayload};

use crate::scenario::{IncastScenario, LogicalSession, Pattern, StorageScenario};
use crate::telemetry::TelemetryOptions;

/// The simulated fabric: shape plus link parameters. The paper
/// evaluates on a fat-tree; leaf–spine and Jellyfish variants exist so
/// scenarios can probe transports on oversubscribed and low-diameter
/// random fabrics (where non-minimal routing matters).
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// k-ary fat-tree (paper: k = 10 → 250 hosts, 1 Gbps, 10 µs).
    FatTree {
        /// Fat-tree arity (even).
        k: usize,
        /// Link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
    },
    /// Two-tier leaf–spine with oversubscribed uplinks.
    LeafSpine {
        /// Leaf (top-of-rack) switches.
        leaves: usize,
        /// Spine switches (every leaf connects to every spine).
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Oversubscription ratio (1.0 = non-blocking, 4.0 = 4:1).
        oversub: f64,
        /// Host-link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
    },
    /// Jellyfish-style seeded random regular graph of switches.
    Jellyfish {
        /// Switch count.
        switches: usize,
        /// Inter-switch degree of the random regular graph.
        net_degree: usize,
        /// Hosts attached to each switch.
        hosts_per_switch: usize,
        /// Link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
        /// Wiring seed (same seed ⇒ identical graph).
        seed: u64,
    },
}

impl Fabric {
    /// The paper's 250-server fat-tree.
    pub fn paper() -> Self {
        Self::fat_tree(10)
    }

    /// A 16-host fat-tree for tests and quick runs.
    pub fn small() -> Self {
        Self::fat_tree(4)
    }

    /// A k-ary fat-tree at the paper's link parameters.
    pub fn fat_tree(k: usize) -> Self {
        Self::FatTree {
            k,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
        }
    }

    /// A 16-host, 2:1-oversubscribed leaf–spine for tests and quick
    /// runs (heterogeneous link rates: uplinks at 1 Gbps x 4 / 4).
    pub fn small_leaf_spine() -> Self {
        Self::LeafSpine {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 4,
            oversub: 2.0,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
        }
    }

    /// A 1024-host k=16 fat-tree — the large-fabric scale run the flat
    /// CSR route arenas make practical.
    pub fn large() -> Self {
        Self::fat_tree(16)
    }

    /// A 5000-host Jellyfish (250 switches x 20 hosts, network degree
    /// 12) — the random-graph counterpart of the large-fabric run.
    pub fn large_jellyfish() -> Self {
        Self::Jellyfish {
            switches: 250,
            net_degree: 12,
            hosts_per_switch: 20,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
            seed: 1,
        }
    }

    /// A 16-host Jellyfish fabric for tests and quick runs.
    pub fn small_jellyfish() -> Self {
        Self::Jellyfish {
            switches: 8,
            net_degree: 3,
            hosts_per_switch: 2,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
            seed: 1,
        }
    }

    /// Build the routed topology.
    pub fn build(&self) -> Topology {
        match *self {
            Self::FatTree {
                k,
                rate_bps,
                prop_ns,
            } => Topology::fat_tree(k, rate_bps, prop_ns),
            Self::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
                oversub,
                rate_bps,
                prop_ns,
            } => Topology::leaf_spine(leaves, spines, hosts_per_leaf, oversub, rate_bps, prop_ns),
            Self::Jellyfish {
                switches,
                net_degree,
                hosts_per_switch,
                rate_bps,
                prop_ns,
                seed,
            } => Topology::jellyfish(
                switches,
                net_degree,
                hosts_per_switch,
                rate_bps,
                prop_ns,
                seed,
            ),
        }
    }

    /// Build the routed topology under a layered routing policy
    /// (recomputes routes only when the policy differs from the builder
    /// default — single-layer minimal).
    pub fn build_with_policy(&self, policy: RoutingPolicy) -> Topology {
        let mut topo = self.build();
        if policy != RoutingPolicy::minimal() {
            topo.set_policy(policy);
            topo.compute_routes();
        }
        topo
    }

    /// Number of hosts the fabric will have.
    pub fn host_count(&self) -> usize {
        match *self {
            Self::FatTree { k, .. } => k * k * k / 4,
            Self::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            Self::Jellyfish {
                switches,
                hosts_per_switch,
                ..
            } => switches * hosts_per_switch,
        }
    }

    /// Human-readable shape summary for run banners.
    pub fn describe(&self) -> String {
        match *self {
            Self::FatTree { k, .. } => format!("k={k} fat-tree ({} hosts)", self.host_count()),
            Self::LeafSpine {
                leaves,
                spines,
                oversub,
                ..
            } => format!(
                "{leaves}x{spines} leaf-spine {oversub}:1 ({} hosts)",
                self.host_count()
            ),
            Self::Jellyfish {
                switches,
                net_degree,
                ..
            } => format!(
                "jellyfish {switches}sw/deg{net_degree} ({} hosts)",
                self.host_count()
            ),
        }
    }
}

/// One transport-flow result: the unit the paper's figures plot.
///
/// The paper ranks "transport sessions (flows)": in a replication write
/// with R replicas every sender→replica flow is its own point (R points
/// per op); a multi-source read is one flow at the client. The op-level
/// view (replication complete when the *last* replica holds the object)
/// is available via [`op_results`].
#[derive(Debug, Clone)]
pub struct TransferResult {
    /// Logical session index (shared by the flows of one op).
    pub session: u32,
    /// Bytes this flow delivered to its application endpoint.
    pub bytes: usize,
    /// Initiation time.
    pub start: SimTime,
    /// When this flow's endpoint finished.
    pub finish: SimTime,
    /// Background flag.
    pub background: bool,
}

impl TransferResult {
    /// Application goodput in Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        (self.bytes as f64 * 8.0) / (self.finish - self.start) as f64
    }
}

/// Foreground goodputs from a result set (what the figures show).
pub fn foreground_goodputs(results: &[TransferResult]) -> Vec<f64> {
    results
        .iter()
        .filter(|r| !r.background)
        .map(|r| r.goodput_gbps())
        .collect()
}

/// Collapse per-flow results into op-level results: an op starts with
/// its session and finishes when the last of its flows finishes; its
/// byte count is one object copy. This is the stricter "all replicas
/// durable" metric used by the ablation benches.
pub fn op_results(flows: &[TransferResult], object_bytes: usize) -> Vec<TransferResult> {
    let mut ops: BTreeMap<u32, TransferResult> = BTreeMap::new();
    for f in flows {
        let e = ops.entry(f.session).or_insert_with(|| TransferResult {
            session: f.session,
            bytes: object_bytes,
            start: f.start,
            finish: f.finish,
            background: f.background,
        });
        e.finish = e.finish.max(f.finish);
        e.start = e.start.min(f.start);
    }
    ops.into_values().collect()
}

// ---------------------------------------------------------------------------
// Polyraptor runner
// ---------------------------------------------------------------------------

/// Polyraptor-side knobs for a run.
#[derive(Debug, Clone, Copy)]
pub struct RqRunOptions {
    /// Protocol configuration.
    pub pr: PrConfig,
    /// Switch queue (default NDP trimming).
    pub switch_queue: QueueConfig,
    /// Path selection (default per-packet spraying).
    pub route: RouteMode,
    /// Layered routing policy (default single-layer minimal/ECMP;
    /// `RoutingPolicy::layered(n, seed)` adds FatPaths-style
    /// path-diversity layers, useful on Jellyfish fabrics where minimal
    /// path diversity is structurally low).
    pub policy: RoutingPolicy,
    /// Flow→layer assignment strategy (default hash-per-flow; only
    /// meaningful with a multi-layer policy).
    pub layer_assign: LayerAssign,
    /// Telemetry recording (default off). Honoured by the fault and
    /// churn runners, which attach a [`crate::RunTelemetry`] to their
    /// reports; enabling it also turns on the agents' flow spans.
    pub telemetry: TelemetryOptions,
    /// Accepted and ignored — route columns are rebuilt on the calling
    /// thread; pinned by `bench_e2e` until its next revision (ROADMAP
    /// 2(b)).
    pub parallelism: usize,
    /// Event-loop shards (0 = available cores, 1 = one shard, inline
    /// on the calling thread, the default). Byte-identical per seed at
    /// every setting — every shard count replays one schedule — so
    /// this is purely a wall-clock knob.
    pub shards: usize,
}

impl Default for RqRunOptions {
    fn default() -> Self {
        Self {
            pr: PrConfig::paper_default(),
            switch_queue: QueueConfig::NDP_DEFAULT,
            route: RouteMode::Spray,
            policy: RoutingPolicy::minimal(),
            layer_assign: LayerAssign::FlowHash,
            telemetry: TelemetryOptions::default(),
            parallelism: 1,
            shards: 1,
        }
    }
}

impl RqRunOptions {
    /// The simulator every Polyraptor runner drives: an NDP fabric over
    /// `topo` configured from these options — the one place they become
    /// a [`SimConfig`] — with an agent on every host, seeded in host
    /// order from `agent_seeds`. `sink` is the runner's telemetry sink
    /// ([`NoTelemetry`], or `self.telemetry.recorder()` where a report
    /// carries the recording); a recording sink also turns on the
    /// agents' flow spans.
    pub(crate) fn simulator<T: TelemetrySink>(
        &self,
        topo: Topology,
        sim_seed: u64,
        agent_seeds: &mut Pcg32,
        reroute_delay_ns: u64,
        sink: T,
    ) -> Simulator<PrPayload, PolyraptorAgent, T> {
        let mut cfg = SimConfig::ndp(sim_seed);
        cfg.switch_queue = self.switch_queue;
        cfg.route = self.route;
        cfg.layer_assign = self.layer_assign;
        cfg.reroute_delay_ns = reroute_delay_ns;
        cfg.parallelism = self.parallelism;
        cfg.shards = self.shards;
        let mut pr = self.pr;
        pr.record_spans |= sink.enabled();
        let mut sim = Simulator::with_telemetry(topo, cfg, sink);
        for h in sim.topology().hosts().to_vec() {
            let seed = agent_seeds.next_u64();
            sim.set_agent(h, PolyraptorAgent::new(h, pr, seed));
        }
        sim
    }
}

/// Run a storage scenario under Polyraptor and aggregate per-session
/// results. `pattern` Write ⇒ multicast replication; Read ⇒ multi-source
/// fetch. Background sessions are unicast writes to the session's first
/// replica.
pub fn run_storage_rq(
    scenario: &StorageScenario,
    fabric: &Fabric,
    opts: &RqRunOptions,
) -> Vec<TransferResult> {
    let topo = fabric.build_with_policy(opts.policy);
    let sessions = scenario.generate(&topo);
    let mut sim = opts.simulator(
        topo,
        scenario.seed ^ 0xFAB,
        &mut Pcg32::new(scenario.seed ^ 0xA6E27),
        0,
        NoTelemetry,
    );
    let specs = build_rq_specs(&mut sim, &sessions, scenario.pattern);
    for spec in &specs {
        install_rq(&mut sim, spec);
    }
    sim.run_to_completion();
    collect_rq_results(&sim, &sessions, scenario.pattern)
}

/// Trees registered per multicast session — symbols are sprayed across
/// them, the multicast analogue of NDP's per-packet multipath.
pub const MULTICAST_TREES: usize = 8;

/// Translate logical sessions into Polyraptor session specs (registering
/// multicast groups as needed).
pub fn build_rq_specs<A: netsim::Agent<polyraptor::PrPayload>, T: netsim::TelemetrySink>(
    sim: &mut Simulator<polyraptor::PrPayload, A, T>,
    sessions: &[LogicalSession],
    pattern: Pattern,
) -> Vec<SessionSpec> {
    sessions
        .iter()
        .map(|ls| {
            let id = SessionId(ls.index);
            let mut spec = if ls.background {
                // Background load: plain unicast push to the primary.
                SessionSpec::unicast(id, ls.bytes, ls.client, ls.replicas[0], ls.start)
            } else {
                match pattern {
                    Pattern::Write => {
                        if ls.replicas.len() == 1 {
                            SessionSpec::unicast(id, ls.bytes, ls.client, ls.replicas[0], ls.start)
                        } else {
                            // Several trees per group: symbols spray
                            // across them (multipath multicast).
                            let groups: Vec<_> = (0..MULTICAST_TREES)
                                .map(|_| sim.register_group(ls.client, &ls.replicas))
                                .collect();
                            SessionSpec::multicast(
                                id,
                                ls.bytes,
                                ls.client,
                                ls.replicas.clone(),
                                groups,
                                ls.start,
                            )
                        }
                    }
                    Pattern::Read => SessionSpec::multi_source(
                        id,
                        ls.bytes,
                        ls.replicas.clone(),
                        ls.client,
                        ls.start,
                    ),
                }
            };
            spec.background = ls.background;
            spec
        })
        .collect()
}

/// Install a Polyraptor session at every participant and schedule its
/// start timer everywhere (receivers need it to arm their keep-alive).
pub fn install_rq<T: netsim::TelemetrySink>(
    sim: &mut Simulator<polyraptor::PrPayload, PolyraptorAgent, T>,
    spec: &SessionSpec,
) {
    for &h in spec.senders.iter().chain(&spec.receivers) {
        sim.agent_mut(h).install(spec.clone());
        sim.schedule_timer(h, spec.start, start_token(spec.id));
    }
}

pub(crate) fn collect_rq_results<T: netsim::TelemetrySink>(
    sim: &Simulator<polyraptor::PrPayload, PolyraptorAgent, T>,
    sessions: &[LogicalSession],
    pattern: Pattern,
) -> Vec<TransferResult> {
    // One result per receiver-side record — the paper's "transport
    // session (flow)" unit: each replica of a write is its own flow.
    let mut flows: Vec<TransferResult> = Vec::new();
    let mut per_session: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, agent) in sim.agents() {
        for rec in &agent.records {
            *per_session.entry(rec.session.0).or_insert(0) += 1;
            flows.push(TransferResult {
                session: rec.session.0,
                bytes: rec.data_len,
                start: rec.start,
                finish: rec.finish,
                background: rec.background,
            });
        }
    }
    // Every session must have completed at every endpoint.
    for ls in sessions {
        let expected = expected_rq_records(ls, pattern);
        let got = per_session.get(&ls.index).copied().unwrap_or(0);
        assert_eq!(
            got, expected,
            "session {} incomplete ({got}/{expected})",
            ls.index
        );
    }
    assert_finish_after_start(&flows);
    flows.sort_by_key(|f| f.session);
    flows
}

/// Completion check shared by both collectors: a flow that finished at
/// or before its own start is a transport bug (and would underflow
/// [`TransferResult::goodput_gbps`]), never a result.
fn assert_finish_after_start(flows: &[TransferResult]) {
    for f in flows {
        assert!(
            f.finish > f.start,
            "session {} finished at {:?}, not after its start {:?}",
            f.session,
            f.finish,
            f.start
        );
    }
}

fn expected_rq_records(ls: &LogicalSession, pattern: Pattern) -> usize {
    if ls.background {
        return 1;
    }
    match pattern {
        // Write: one record per replica receiver.
        Pattern::Write => ls.replicas.len(),
        // Read: the client is the only receiver.
        Pattern::Read => 1,
    }
}

// ---------------------------------------------------------------------------
// TCP runner
// ---------------------------------------------------------------------------

/// TCP-side knobs for a run.
#[derive(Debug, Clone, Copy)]
pub struct TcpRunOptions {
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Switch queue (default deep drop-tail).
    pub switch_queue: QueueConfig,
    /// Path selection (default per-flow ECMP).
    pub route: RouteMode,
    /// Layered routing policy (default single-layer minimal/ECMP).
    pub policy: RoutingPolicy,
    /// Telemetry recording (default off). Honoured by the fault and
    /// churn runners, which attach a [`crate::RunTelemetry`] to their
    /// reports.
    pub telemetry: TelemetryOptions,
    /// Accepted and ignored — route columns are rebuilt on the calling
    /// thread; pinned by `bench_e2e` until its next revision (ROADMAP
    /// 2(b)).
    pub parallelism: usize,
    /// Event-loop shards (0 = available cores, 1 = one shard, inline
    /// on the calling thread, the default). Byte-identical per seed at
    /// every setting.
    pub shards: usize,
}

impl Default for TcpRunOptions {
    fn default() -> Self {
        Self {
            tcp: TcpConfig::paper_default(),
            switch_queue: QueueConfig::DROPTAIL_DEFAULT,
            route: RouteMode::EcmpFlow,
            policy: RoutingPolicy::minimal(),
            telemetry: TelemetryOptions::default(),
            parallelism: 1,
            shards: 1,
        }
    }
}

impl TcpRunOptions {
    /// The simulator every TCP runner drives: a classic fabric over
    /// `topo` configured from these options — the one place they become
    /// a [`SimConfig`] — with an agent on every host. `sink` as for
    /// [`RqRunOptions::simulator`].
    pub(crate) fn simulator<T: TelemetrySink>(
        &self,
        topo: Topology,
        sim_seed: u64,
        reroute_delay_ns: u64,
        sink: T,
    ) -> Simulator<TcpPayload, TcpAgent, T> {
        let mut cfg = SimConfig::classic(sim_seed);
        cfg.switch_queue = self.switch_queue;
        cfg.route = self.route;
        cfg.reroute_delay_ns = reroute_delay_ns;
        cfg.parallelism = self.parallelism;
        cfg.shards = self.shards;
        let mut sim = Simulator::with_telemetry(topo, cfg, sink);
        for h in sim.topology().hosts().to_vec() {
            sim.set_agent(h, TcpAgent::new(h, self.tcp));
        }
        sim
    }
}

/// Install every connection at both of its ends and schedule its start
/// timer at the sender.
pub(crate) fn install_tcp<T: TelemetrySink>(
    sim: &mut Simulator<TcpPayload, TcpAgent, T>,
    conns: &[ConnSpec],
) {
    for c in conns {
        sim.agent_mut(c.sender).install(c.clone());
        sim.agent_mut(c.receiver).install(c.clone());
        sim.schedule_timer(c.sender, c.start, conn_start_token(c.id));
    }
}

/// Sender retransmission timeouts summed over `conns`, after a run.
pub(crate) fn tcp_timeouts<T: TelemetrySink>(
    sim: &Simulator<TcpPayload, TcpAgent, T>,
    conns: &[ConnSpec],
) -> u64 {
    conns
        .iter()
        .map(|c| sim.agent(c.sender).sender(c.id).map_or(0, |s| s.timeouts))
        .sum()
}

/// Run a storage scenario under TCP, emulating the paper's baselines:
/// Write ⇒ multi-unicast (the client sends one full copy per replica);
/// Read ⇒ partitioned fetch (each replica returns `1/R` of the object,
/// no coordination). Background sessions are single connections.
pub fn run_storage_tcp(
    scenario: &StorageScenario,
    fabric: &Fabric,
    opts: &TcpRunOptions,
) -> Vec<TransferResult> {
    let topo = fabric.build_with_policy(opts.policy);
    let sessions = scenario.generate(&topo);
    let mut sim = opts.simulator(topo, scenario.seed ^ 0xFAB, 0, NoTelemetry);
    let conns = build_tcp_conns(&sessions, scenario.pattern);
    install_tcp(&mut sim, &conns);
    sim.run_to_completion();
    collect_tcp_results(&sim, &sessions)
}

/// Translate logical sessions into TCP connection sets.
pub fn build_tcp_conns(sessions: &[LogicalSession], pattern: Pattern) -> Vec<ConnSpec> {
    let mut conns = Vec::new();
    let mut next_id = 0u32;
    for ls in sessions {
        let mut add = |sender: NodeId, receiver: NodeId, bytes: u64| {
            conns.push(ConnSpec {
                id: ConnId(next_id),
                session: ls.index,
                bytes,
                sender,
                receiver,
                start: ls.start,
                background: ls.background,
            });
            next_id += 1;
        };
        if ls.background {
            add(ls.client, ls.replicas[0], ls.bytes as u64);
            continue;
        }
        match pattern {
            Pattern::Write => {
                // Multi-unicast: one full copy per replica.
                for &r in &ls.replicas {
                    add(ls.client, r, ls.bytes as u64);
                }
            }
            Pattern::Read => {
                // Partitioned fetch: replica i returns its stripe.
                let shares = stripe(ls.bytes as u64, ls.replicas.len());
                for (&r, &sh) in ls.replicas.iter().zip(&shares) {
                    add(r, ls.client, sh);
                }
            }
        }
    }
    conns
}

/// Split `bytes` into `n` near-equal positive stripes.
pub fn stripe(bytes: u64, n: usize) -> Vec<u64> {
    assert!(n >= 1 && bytes >= n as u64, "stripe too small");
    let base = bytes / n as u64;
    let extra = (bytes % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < extra)).collect()
}

pub(crate) fn collect_tcp_results<T: netsim::TelemetrySink>(
    sim: &Simulator<tcpsim::TcpPayload, TcpAgent, T>,
    sessions: &[LogicalSession],
) -> Vec<TransferResult> {
    // One result per connection — each copy/stripe is its own flow,
    // mirroring the Polyraptor accounting.
    let mut flows: Vec<TransferResult> = Vec::new();
    let mut per_session: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, agent) in sim.agents() {
        for rec in &agent.records {
            *per_session.entry(rec.session).or_insert(0) += 1;
            flows.push(TransferResult {
                session: rec.session,
                bytes: rec.bytes as usize,
                start: rec.start,
                finish: rec.finish,
                background: rec.background,
            });
        }
    }
    for ls in sessions {
        assert!(
            per_session.get(&ls.index).copied().unwrap_or(0) > 0,
            "TCP session {} never completed",
            ls.index
        );
    }
    assert_finish_after_start(&flows);
    flows.sort_by_key(|f| f.session);
    flows
}

// ---------------------------------------------------------------------------
// Incast runners (Figure 1c)
// ---------------------------------------------------------------------------

/// Run one Incast exchange under Polyraptor: a single multi-source
/// session striped over `senders` hosts. Returns goodput in Gbit/s.
pub fn run_incast_rq(scenario: &IncastScenario, fabric: &Fabric, opts: &RqRunOptions) -> f64 {
    let topo = fabric.build_with_policy(opts.policy);
    let (client, senders) = scenario.place(&topo);
    let mut sim = opts.simulator(
        topo,
        scenario.seed ^ 0x1C,
        &mut Pcg32::new(scenario.seed ^ 0xA6E27),
        0,
        NoTelemetry,
    );
    let spec = SessionSpec::multi_source(
        SessionId(0),
        scenario.block_bytes,
        senders,
        client,
        SimTime::ZERO,
    );
    install_rq(&mut sim, &spec);
    sim.run_to_completion();
    let rec = sim
        .agent(client)
        .records
        .first()
        .expect("incast session must complete");
    rec.goodput_gbps()
}

/// Run one Incast exchange under TCP: `senders` synchronized connections
/// each carrying one stripe. Returns goodput in Gbit/s over the whole
/// exchange (finish = last stripe).
pub fn run_incast_tcp(scenario: &IncastScenario, fabric: &Fabric, opts: &TcpRunOptions) -> f64 {
    let topo = fabric.build_with_policy(opts.policy);
    let (client, senders) = scenario.place(&topo);
    let mut sim = opts.simulator(topo, scenario.seed ^ 0x1C, 0, NoTelemetry);
    let shares = stripe(scenario.block_bytes as u64, senders.len());
    let conns: Vec<ConnSpec> = senders
        .iter()
        .zip(&shares)
        .enumerate()
        .map(|(i, (&s, &sh))| ConnSpec {
            id: ConnId(i as u32),
            session: 0,
            bytes: sh,
            sender: s,
            receiver: client,
            start: SimTime::ZERO,
            background: false,
        })
        .collect();
    install_tcp(&mut sim, &conns);
    sim.run_to_completion();
    let finish = sim
        .agent(client)
        .records
        .iter()
        .map(|r| r.finish)
        .max()
        .expect("incast connections must complete");
    (scenario.block_bytes as f64 * 8.0) / (finish - SimTime::ZERO) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_sums_and_balances() {
        for (bytes, n) in [(100u64, 3usize), (70 << 10, 7), (256 << 10, 64)] {
            let s = stripe(bytes, n);
            assert_eq!(s.iter().sum::<u64>(), bytes);
            let max = *s.iter().max().unwrap();
            let min = *s.iter().min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn small_write_scenario_rq_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Write,
            seed: 7,
        };
        let results = run_storage_rq(&sc, &Fabric::small(), &RqRunOptions::default());
        // One flow per replica receiver + one per background session.
        assert!(
            results.len() >= 30,
            "per-flow accounting yields >= one point per op"
        );
        for r in &results {
            assert!(r.finish > r.start);
            let g = r.goodput_gbps();
            assert!(g > 0.01 && g <= 1.0, "goodput {g} out of range");
        }
        // Op-level view covers every logical session exactly once.
        let ops = op_results(&results, sc.object_bytes);
        assert_eq!(ops.len(), 30);
    }

    #[test]
    fn small_read_scenario_rq_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Read,
            seed: 8,
        };
        let results = run_storage_rq(&sc, &Fabric::small(), &RqRunOptions::default());
        assert_eq!(results.len(), 30);
        assert!(foreground_goodputs(&results).iter().all(|&g| g > 0.0));
    }

    #[test]
    fn small_write_scenario_tcp_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Write,
            seed: 7,
        };
        let results = run_storage_tcp(&sc, &Fabric::small(), &TcpRunOptions::default());
        assert!(results.len() >= 30);
        // Multi-unicast replication: 3 copies share the 1 Gbps uplink, so
        // no flow of a foreground op can beat ~1/3 Gbps by much.
        for r in results.iter().filter(|r| !r.background) {
            assert!(
                r.goodput_gbps() < 0.45,
                "3-replica TCP can't exceed uplink/3"
            );
        }
        assert_eq!(op_results(&results, sc.object_bytes).len(), 30);
    }

    #[test]
    fn incast_runners_produce_goodput() {
        let sc = IncastScenario {
            senders: 8,
            block_bytes: 256 << 10,
            seed: 3,
        };
        let g_rq = run_incast_rq(&sc, &Fabric::small(), &RqRunOptions::default());
        let g_tcp = run_incast_tcp(&sc, &Fabric::small(), &TcpRunOptions::default());
        assert!(g_rq > 0.0 && g_rq <= 1.0);
        assert!(g_tcp > 0.0 && g_tcp <= 1.0);
    }
}
