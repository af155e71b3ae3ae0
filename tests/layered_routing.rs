//! Integration tests for FatPaths-style layered routing end to end:
//! the Jellyfish link-fault scenario where minimal-only routing pays a
//! completion-tail penalty that ≥ 2 layers remove, plus the per-layer
//! fabric accounting.

use polyraptor_repro::netsim::{FaultMix, NodeId, RoutingPolicy, Topology};
use polyraptor_repro::workload::{ChurnScenario, Fabric, RqRunOptions, RunReport, Transport};

/// The sweep example's smoke shape (deg-4 Jellyfish) at a seed pair
/// whose links-only fault draw severs minimal-unique paths of
/// in-flight fetches — the low-path-diversity case layered routing
/// exists for. (The seeds pin the draw; the tie-break rekey and
/// per-node RNG streams of the sharded event loop moved the old
/// draw, so the pinned seeds moved with it.)
fn jellyfish() -> Fabric {
    Fabric::Jellyfish {
        switches: 12,
        net_degree: 4,
        hosts_per_switch: 2,
        rate_bps: 1_000_000_000,
        prop_ns: 10_000,
        seed: 7,
    }
}

fn link_churn() -> ChurnScenario {
    let mut sc = ChurnScenario::ten_event(6, 1 << 20, 15);
    sc.fault_events = 10;
    sc.mix = FaultMix::links_only();
    sc
}

fn run(layers: usize) -> RunReport {
    let opts = RqRunOptions {
        policy: if layers == 1 {
            RoutingPolicy::minimal()
        } else {
            RoutingPolicy::layered(layers, 7)
        },
        ..Default::default()
    };
    polyraptor_repro::workload::run(link_churn().build(&jellyfish(), Transport::Rq(opts)))
}

#[test]
fn layers_cut_the_link_fault_completion_tail_on_jellyfish() {
    // Minimal-only: a link failure blackholes flows whose only minimal
    // path crosses it for the whole convergence window, inflating the
    // completion tail. With >= 2 layers the forwarding plane holds live
    // alternatives (and flows re-assign away from dead layers), so the
    // same seeded fault plan completes measurably faster.
    let minimal = run(1).completion();
    for layers in [2usize, 3] {
        let layered = run(layers).completion();
        assert!(
            layered.max_ns < minimal.max_ns,
            "{layers} layers must beat minimal-only under link faults \
             ({} vs {} ns tail)",
            layered.max_ns,
            minimal.max_ns
        );
    }
    // The improvement is substantial at this draw, not marginal.
    let two = run(2).completion();
    assert!(
        minimal.max_ns as f64 / two.max_ns as f64 > 1.5,
        "expected a >1.5x tail cut ({} vs {} ns)",
        minimal.max_ns,
        two.max_ns
    );
}

#[test]
fn layered_run_accounts_utilisation_per_layer() {
    let rep = run(4);
    let used = rep
        .fabric
        .layer_forwarded
        .iter()
        .filter(|&&c| c > 0)
        .count();
    assert!(
        used >= 2,
        "flow hashing must spread fetches over >= 2 of 4 layers (used {used})"
    );
    assert_eq!(
        rep.fabric.layer_forwarded[4..].iter().sum::<u64>(),
        0,
        "slots past the policy's layer count stay empty"
    );
    // Minimal-only runs keep everything in slot 0.
    let minimal = run(1);
    assert_eq!(
        minimal.fabric.layer_forwarded[1..].iter().sum::<u64>(),
        0,
        "single-layer policy forwards only on layer 0"
    );
    assert_eq!(minimal.fabric.layer_reassignments, 0);
}

/// Every layer's answer from every node towards every host: the
/// advertised ports and the weighted distance.
type Answers = Vec<(Vec<u16>, Option<u32>)>;

fn answers(t: &Topology) -> Answers {
    let mut out = Vec::new();
    for layer in 0..t.layer_count() {
        for n in 0..t.node_count() as u32 {
            for &dst in t.hosts() {
                out.push((
                    t.try_next_ports_on(layer, NodeId(n), dst).to_vec(),
                    t.layer_distance(layer, NodeId(n), dst),
                ));
            }
        }
    }
    out
}

#[test]
fn build_with_policy_routes_a_layered_fabric_once() {
    let topo = Fabric::large_jellyfish().build_with_policy(RoutingPolicy::layered(2, 7));
    assert_eq!(topo.layer_count(), 2);
    assert_eq!(
        topo.weight_builds(),
        1,
        "one routing pass, under the asked policy"
    );
}

#[test]
fn build_with_policy_answers_as_generate_then_repolice() {
    let policy = RoutingPolicy::layered(3, 11);
    let once = jellyfish().build_with_policy(policy);
    // The sequence it replaces: route minimal, re-police, route again.
    let mut twice =
        Topology::jellyfish(12, 4, 2, 1_000_000_000, 10_000, 7, RoutingPolicy::minimal());
    twice.set_policy(policy);
    twice.compute_routes();
    assert_eq!(once.layer_count(), 3);
    assert!(answers(&once) == answers(&twice), "same answers either way");
}
