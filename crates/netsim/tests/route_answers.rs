//! Golden route answers: every `(layer, node, host)` answer of
//! `try_next_ports_on` and `layer_distance` on two layered fabrics,
//! pinned as hashes recorded from the node-keyed route arenas (the
//! layout before the tables were indexed by a dense switch row, when
//! `len`/`dist` strode over every node and each cell reserved room for
//! its node's host ports). The in-crate tests check repair against
//! recompute *within* one build; these constants check both against
//! the old layout's answers — healthy, after a link and a switch
//! failure are repaired, and after both are restored.

use netsim::{FaultMask, NodeId, NodeKind, RoutingPolicy, Topology};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Hash of every layer's answer from every node towards every host:
/// the advertised port list (length, then ports in order) and the
/// weighted distance (`u64::MAX` = unreachable).
fn answer_hash(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    h.word(t.layer_count() as u64);
    for layer in 0..t.layer_count() {
        for n in 0..t.node_count() as u32 {
            for &dst in t.hosts() {
                let ports = t.try_next_ports_on(layer, NodeId(n), dst);
                h.word(ports.len() as u64);
                for p in ports.iter() {
                    h.word(u64::from(p));
                }
                let d = t.layer_distance(layer, NodeId(n), dst);
                h.word(d.map_or(u64::MAX, u64::from));
            }
        }
    }
    h.0
}

/// The answer hash in three states: healthy; after `link` and `switch`
/// fail together and one `repair_routes` heals the tables; after both
/// are restored by a second repair (which must land back on the
/// healthy answers).
fn three_states(mut t: Topology, link: (NodeId, u16), switch: NodeId) -> [u64; 3] {
    let healthy = answer_hash(&t);
    let mut mask = FaultMask::new();
    mask.fail_link(&t, link.0, link.1);
    mask.fail_node(switch);
    assert!(!t.repair_routes(&mask).full, "failures repair in place");
    let failed = answer_hash(&t);
    mask.restore_link(&t, link.0, link.1);
    mask.restore_node(switch);
    assert!(!t.repair_routes(&mask).full, "restorations repair in place");
    let restored = answer_hash(&t);
    assert_eq!(restored, healthy, "restoring both heals every answer");
    [healthy, failed, restored]
}

/// The first switch-to-switch port of `sw`.
fn fabric_port(t: &Topology, sw: NodeId) -> u16 {
    t.node_ports(sw)
        .iter()
        .position(|p| t.kind(p.peer) == NodeKind::Switch)
        .expect("switch has a fabric port") as u16
}

#[test]
fn layered_jellyfish_answers_match_the_node_keyed_tables() {
    let t = Topology::jellyfish(
        12,
        4,
        3,
        1_000_000_000,
        10_000,
        5,
        RoutingPolicy::layered(2, 9),
    );
    let (sw, victim) = (NodeId(0), NodeId(7));
    let link = (sw, fabric_port(&t, sw));
    let got = three_states(t, link, victim);
    let golden = [
        0x9A99_FB5E_F0F5_FA67,
        0xAF5B_A3A6_575D_2D37,
        0x9A99_FB5E_F0F5_FA67,
    ];
    assert_eq!(got, golden, "jellyfish answers {got:#018x?}");
}

#[test]
fn layered_fat_tree_answers_match_the_node_keyed_tables() {
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::layered(2, 3));
    // An edge switch's first uplink (ids interleave edges, hosts, aggs
    // and cores, so row ≠ id here) and a core switch.
    let edge = t.edge_switch(t.hosts()[0]);
    let link = (edge, fabric_port(&t, edge));
    let core = NodeId(t.node_count() as u32 - 1);
    let got = three_states(t, link, core);
    let golden = [
        0xD88E_16E0_E5C9_C907,
        0x124E_9D20_529D_EA47,
        0xD88E_16E0_E5C9_C907,
    ];
    assert_eq!(got, golden, "fat-tree answers {got:#018x?}");
}

#[test]
fn swap_mixed_jellyfish_answers_match_the_bit_matrix_mixer() {
    // Degree 6: the graph comes from the double-edge-swap mixer, not
    // stub matching, so these answers pin the mixer's draws as well.
    let t = Topology::jellyfish(
        40,
        6,
        2,
        1_000_000_000,
        10_000,
        3,
        RoutingPolicy::layered(2, 9),
    );
    let (sw, victim) = (NodeId(5), NodeId(22));
    let link = (sw, fabric_port(&t, sw));
    let got = three_states(t, link, victim);
    let golden = [
        0x9540_BBB8_B347_DFE7,
        0x0B0D_DB7A_0A94_E527,
        0x9540_BBB8_B347_DFE7,
    ];
    assert_eq!(got, golden, "swap-mixed jellyfish answers {got:#018x?}");
}

#[test]
fn multi_block_jellyfish_answers_are_pinned() {
    // 130 access switches, so 130 route columns per layer: more than
    // one 64-bit word holds (the fabrics above stop at 40), so a search
    // that settles 64 columns per pass has full and partial blocks here.
    let t = Topology::jellyfish(
        130,
        6,
        1,
        1_000_000_000,
        10_000,
        3,
        RoutingPolicy::layered(2, 9),
    );
    let (sw, victim) = (NodeId(5), NodeId(77));
    let link = (sw, fabric_port(&t, sw));
    let got = three_states(t, link, victim);
    let golden = [
        0xE57E_955B_23A4_4FA1,
        0xFADA_5B1E_53AD_8A15,
        0xE57E_955B_23A4_4FA1,
    ];
    assert_eq!(got, golden, "multi-block jellyfish answers {got:#018x?}");
}
