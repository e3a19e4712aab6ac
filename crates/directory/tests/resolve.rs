//! Differential property test: the exact-name resolver
//! (`Directory::resolve`) must return exactly what the paper's regex
//! lookup returns for a literal service name and a single partition —
//! same ids, same order, same multiplicity — over arbitrary directory
//! histories.

use proptest::prelude::*;
use tamp_directory::{Directory, Provenance};
use tamp_wire::{NodeId, NodeRecord, PartitionSet, ServiceDecl};

/// Literal names only (no regex metacharacters), with a shared prefix so
/// a lookup that matched prefixes instead of full names would show.
const NAMES: [&str; 4] = ["index", "doc", "doc2", "cache"];
const PARTITIONS: u16 = 5;

/// One declared service: name index and hosted partitions.
type Decl = (usize, Vec<u16>);

#[derive(Debug, Clone)]
enum Op {
    Join {
        node: u8,
        inc: u8,
        relayer: Option<u8>,
        services: Vec<Decl>,
    },
    Leave {
        node: u8,
        inc: u8,
    },
    Remove {
        node: u8,
    },
    Expire {
        age: u8,
    },
    Purge {
        relayer: u8,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Up to four declarations per record, drawn with replacement from
    // four names: multi-service records and duplicate declarations of
    // one name are both common.
    let decl = (
        0usize..NAMES.len(),
        proptest::collection::vec(0u16..PARTITIONS, 0..4),
    );
    proptest::collection::vec(
        prop_oneof![
            (
                0u8..8,
                1u8..5,
                proptest::option::of(0u8..8),
                proptest::collection::vec(decl, 0..5)
            )
                .prop_map(|(node, inc, relayer, services)| Op::Join {
                    node,
                    inc,
                    relayer,
                    services
                }),
            (0u8..8, 1u8..5).prop_map(|(node, inc)| Op::Leave { node, inc }),
            (0u8..8).prop_map(|node| Op::Remove { node }),
            (1u8..40).prop_map(|age| Op::Expire { age }),
            (0u8..8).prop_map(|relayer| Op::Purge { relayer }),
        ],
        0..50,
    )
}

fn record(node: u8, inc: u8, services: &[Decl]) -> NodeRecord {
    let mut r = NodeRecord::new(NodeId(node as u32), inc as u64);
    for (name, parts) in services {
        r = r.with_service(ServiceDecl::new(
            NAMES[*name],
            PartitionSet::from_iter(parts.iter().copied()),
        ));
    }
    r
}

fn apply(dir: &mut Directory, op: &Op, now: u64) {
    match op {
        Op::Join {
            node,
            inc,
            relayer,
            services,
        } => {
            let prov = match relayer {
                Some(r) => Provenance::Relayed(NodeId(*r as u32)),
                None => Provenance::Direct,
            };
            dir.apply_join(record(*node, *inc, services), prov, now);
        }
        Op::Leave { node, inc } => {
            dir.apply_leave(NodeId(*node as u32), *inc as u64, now);
        }
        Op::Remove { node } => {
            dir.remove(NodeId(*node as u32));
        }
        Op::Expire { age } => {
            dir.expire(now, |_| *age as u64);
        }
        Op::Purge { relayer } => {
            dir.purge_relayed_by(NodeId(*relayer as u32));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn resolve_equals_literal_lookup(ops in arb_ops()) {
        let mut dir = Directory::new();
        let mut now = 0u64;
        for op in &ops {
            now += 1;
            apply(&mut dir, op, now);
            for name in NAMES {
                for p in 0..=PARTITIONS {
                    let resolved: Vec<NodeId> = dir.resolve(name, p).collect();
                    let looked_up: Vec<NodeId> = dir
                        .lookup_service(name, &p.to_string())
                        .unwrap()
                        .into_iter()
                        .map(|m| m.node)
                        .collect();
                    prop_assert_eq!(
                        resolved, looked_up,
                        "resolve({:?}, {}) after {:?}", name, p, op
                    );
                }
            }
        }
    }
}
