//! Simulator-core benchmarks: raw event throughput of the fabric under
//! a saturating workload (bounds how large the figure runs can scale).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::{
    Agent, Ctx, Dest, FlowId, NodeKind, Packet, SimConfig, SimPayload, SimTime, Simulator, Topology,
};

#[derive(Debug, Clone)]
enum P {
    Data,
    Hdr,
}

impl SimPayload for P {
    fn is_control(&self) -> bool {
        matches!(self, P::Hdr)
    }
    fn trim(&self) -> Option<Self> {
        Some(P::Hdr)
    }
}

struct Blaster {
    dst: netsim::NodeId,
    n: u32,
    received: u64,
}

impl Agent<P> for Blaster {
    fn on_packet(&mut self, _p: Packet<P>, _ctx: &mut Ctx<P>) {
        self.received += 1;
    }
    fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<P>) {
        for i in 0..self.n {
            ctx.send(Packet {
                src: ctx.node,
                dst: Dest::Host(self.dst),
                flow: FlowId(u64::from(ctx.node.0) << 32 | u64::from(i)),
                size: 1500,
                payload: P::Data,
            });
        }
    }
}

fn event_throughput(c: &mut Criterion) {
    // The event queue's two shapes: the node queue is a calendar
    // queue (`netsim::evq`: an O(1) bucket push, one sort per 256 ns
    // slot, pops off the back of the sorted slot), and `Arrive` boxes
    // its packet so buckets hold a 40-byte key-plus-pointer instead of
    // the whole payload. The incast shape is push-pop interleaved
    // (deep queues at the victim, few events per slot); the all-pairs
    // shape below keeps many events in flight, so slots are full and
    // the per-slot sort does the work.
    let mut g = c.benchmark_group("netsim/event_throughput");
    g.sample_size(10);
    // 15 hosts blast 200 packets each at one victim across a k=4
    // fat-tree: heavy queueing, trimming, multipath.
    g.throughput(Throughput::Elements(15 * 200));
    g.bench_function("incast_burst_k4", |b| {
        b.iter(|| {
            let topo = Topology::fat_tree(4, 1_000_000_000, 10_000);
            let hosts = topo.hosts().to_vec();
            let victim = hosts[0];
            let mut sim: Simulator<P, Blaster> = Simulator::new(topo, SimConfig::ndp(7));
            for &h in &hosts {
                sim.set_agent(
                    h,
                    Blaster {
                        dst: victim,
                        n: 200,
                        received: 0,
                    },
                );
            }
            for &h in &hosts[1..] {
                sim.schedule_timer(h, SimTime::ZERO, 0);
            }
            sim.run_to_completion();
            std::hint::black_box(sim.stats().events)
        })
    });
    // Every host blasts its diagonal peer: no single victim, so many
    // events stay in flight and the loop spends its time in the event
    // queue's buckets and sorts rather than port-queue churn.
    g.throughput(Throughput::Elements(16 * 200));
    g.bench_function("all_pairs_burst_k4", |b| {
        b.iter(|| {
            let topo = Topology::fat_tree(4, 1_000_000_000, 10_000);
            let hosts = topo.hosts().to_vec();
            let n = hosts.len();
            let mut sim: Simulator<P, Blaster> = Simulator::new(topo, SimConfig::ndp(7));
            for (i, &h) in hosts.iter().enumerate() {
                sim.set_agent(
                    h,
                    Blaster {
                        dst: hosts[(i + n / 2) % n],
                        n: 200,
                        received: 0,
                    },
                );
            }
            for &h in &hosts {
                sim.schedule_timer(h, SimTime::ZERO, 0);
            }
            sim.run_to_completion();
            std::hint::black_box(sim.stats().events)
        })
    });
    g.finish();
}

fn fat_tree_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim/fat_tree_build");
    g.sample_size(10);
    for k in [4usize, 10] {
        g.bench_function(format!("k={k}_with_routes"), |b| {
            b.iter(|| Topology::fat_tree(std::hint::black_box(k), 1_000_000_000, 10_000))
        });
    }
    g.finish();
}

fn switch_kind(t: &Topology) -> usize {
    (0..t.node_count())
        .filter(|&n| t.kind(netsim::NodeId(n as u32)) == NodeKind::Switch)
        .count()
}

fn routing_lookup(c: &mut Criterion) {
    let t = Topology::fat_tree(10, 1_000_000_000, 10_000);
    assert_eq!(switch_kind(&t), 125);
    let hosts = t.hosts().to_vec();
    let edge = t.edge_switch(hosts[0]);
    let mut g = c.benchmark_group("netsim/routing");
    g.bench_function("next_ports_lookup", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % hosts.len();
            if hosts[i] != hosts[0] && t.edge_switch(hosts[i]) != edge {
                std::hint::black_box(t.next_ports(edge, hosts[i]).len())
            } else {
                0
            }
        })
    });
    g.finish();
}

fn forwarding_flat_vs_nested(c: &mut Criterion) {
    // One forwarding decision = route-table lookup + ECMP-style pick.
    // The CSR arena resolves it with two offset reads into one flat
    // buffer; the pre-refactor layout chased three pointers
    // (`Vec<Vec<Vec<u16>>>`). The nested baseline here is rebuilt from
    // the public accessors, so the comparison tracks whatever the
    // arenas currently advertise.
    let t = Topology::fat_tree(10, 1_000_000_000, 10_000);
    let hosts = t.hosts().to_vec();
    let switches: Vec<netsim::NodeId> = (0..t.node_count() as u32)
        .map(netsim::NodeId)
        .filter(|&n| t.kind(n) == NodeKind::Switch)
        .collect();
    let nested: Vec<Vec<Vec<u16>>> = (0..t.node_count() as u32)
        .map(|n| {
            hosts
                .iter()
                .map(|&h| t.try_next_ports_on(0, netsim::NodeId(n), h).to_vec())
                .collect()
        })
        .collect();
    // A shared pseudo-random (switch, destination, flow) visit order,
    // long enough that neither layout stays resident in L1.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let pairs: Vec<(usize, usize, usize)> = (0..65536)
        .map(|_| {
            (
                switches[next() % switches.len()].0 as usize,
                next() % hosts.len(),
                next(),
            )
        })
        .collect();
    let mut g = c.benchmark_group("netsim/forwarding");
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("decide_flat_k10", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(s, h, f) in &pairs {
                let ports = t.try_next_ports_at(0, netsim::NodeId(s as u32), h);
                if !ports.is_empty() {
                    acc += u64::from(ports[f % ports.len()]);
                }
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("decide_nested_k10", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(s, h, f) in &pairs {
                let ports = &nested[s][h];
                if !ports.is_empty() {
                    acc += u64::from(ports[f % ports.len()]);
                }
            }
            std::hint::black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    event_throughput,
    fat_tree_construction,
    routing_lookup,
    forwarding_flat_vs_nested
);
criterion_main!(benches);
