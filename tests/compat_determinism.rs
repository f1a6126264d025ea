//! The compatibility graph is a pure function of its inputs: the same
//! rare events and PODEM configuration give the same vertices, cubes,
//! drop count and adjacency at every worker count, and the same graph
//! as the pinned digests below.

use htforge::atpg::PodemConfig;
use htforge::core::CompatGraph;
use htforge::netlist::Netlist;
use htforge::sim::{PatternSet, RareNodeExtractor, Tri};

/// Digests of the θ = 0.2, 10 000-vector, seed-1 justify-mode graphs.
///
/// Update a pin only when PODEM's search semantics change on purpose
/// (a different decision order, objective or backtrace rule). A speed-up
/// that changes a digest has changed which cubes PODEM finds.
const PINNED: [(&str, u64); 2] = [
    ("c2670", 0xe5dc_dca7_a4c8_7400),
    ("c3540", 0x001b_e80f_2bc0_436b),
];

fn graph(nl: &Netlist, threads: usize) -> CompatGraph {
    let patterns = PatternSet::random(nl.inputs().len(), 10_000, 1);
    let rare = RareNodeExtractor::new(0.2)
        .extract(nl, &patterns)
        .expect("valid netlist");
    CompatGraph::build_with_threads(nl, &rare, PodemConfig::justify(), threads)
        .expect("combinational")
}

/// FNV-1a over events (node, rare value, cube), `dropped` and every
/// adjacency bit.
fn digest(g: &CompatGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(g.len() as u64).to_le_bytes());
    eat(&(g.dropped() as u64).to_le_bytes());
    for e in g.events() {
        eat(&(e.node.index() as u64).to_le_bytes());
        eat(&[u8::from(e.rare_value)]);
        let bits: Vec<u8> = e
            .cube
            .bits()
            .iter()
            .map(|t| match t {
                Tri::Zero => b'0',
                Tri::One => b'1',
                Tri::X => b'x',
            })
            .collect();
        eat(&bits);
    }
    for i in 0..g.len() {
        for j in 0..g.len() {
            eat(&[u8::from(g.compatible(i, j))]);
        }
    }
    h
}

#[test]
fn graph_is_identical_across_thread_counts_and_pinned() {
    let mut digests = Vec::new();
    for (circuit, _) in PINNED {
        let nl = htforge::circuits::load(circuit).expect("known circuit");
        let serial = graph(&nl, 1);
        for threads in [2, 4] {
            let g = graph(&nl, threads);
            assert_eq!(g.events(), serial.events(), "{circuit} @ {threads} threads");
            assert_eq!(
                g.dropped(),
                serial.dropped(),
                "{circuit} @ {threads} threads"
            );
            for i in 0..g.len() {
                for j in 0..g.len() {
                    assert_eq!(
                        g.compatible(i, j),
                        serial.compatible(i, j),
                        "{circuit} @ {threads} threads: pair ({i}, {j})"
                    );
                }
            }
        }
        digests.push((circuit, digest(&serial)));
    }
    let show = |pins: &[(&str, u64)]| {
        pins.iter()
            .map(|(c, d)| format!("{c}={d:#018x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    assert_eq!(
        show(&digests),
        show(&PINNED),
        "graph digests differ from the pins"
    );
}
