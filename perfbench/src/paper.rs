//! `paper-figs`: the Fig. 11 bandwidth runs and the Fig. 12/13 detection
//! runs at n ∈ {20, 40, 60, 80, 100} over all five protocol columns,
//! rebuilt from public constructors the way `tamp_harness::common::
//! build_cluster` builds them and driven as `bandwidth::measure` and
//! `detection::measure` drive them.

use crate::common::{mean, quantile, removals, step_to, Digest, Opts, Outcome, Work};
use crate::trace;
use std::time::Instant;
use tamp_baselines::{
    AllToAllConfig, AllToAllNode, GossipConfig, GossipNode, SwimConfig, SwimNode,
};
use tamp_harness::common::{paper_topology, SETTLE};
use tamp_harness::{bandwidth, detection, Scheme};
use tamp_membership::{MembershipConfig, MembershipNode, RemovalDiscipline};
use tamp_netsim::{Control, Engine, EngineConfig, SECS};
use tamp_topology::HostId;
use tamp_wire::{NodeId, PartitionSet, ServiceDecl};

const SEG_SIZE: usize = 20;
const BW_WINDOW: u64 = 30 * SECS;
const WATCH: u64 = 60 * SECS;

fn demo_services(h: HostId) -> Vec<ServiceDecl> {
    vec![ServiceDecl::new(
        "svc",
        PartitionSet::from_iter([(h.0 % 4) as u16]),
    )]
}

/// `common::build_cluster`, from the public constructors.
fn build(o: &Opts, scheme: Scheme, n: usize) -> Engine {
    let topo = trace::span("topology", "build", || paper_topology(n, SEG_SIZE));
    let mut engine = trace::span("netsim", "new", || {
        Engine::new(topo, o.engine_config(EngineConfig::default()), o.seed)
    });
    trace::span("setup", "actors", || {
        let seeds: Vec<NodeId> = engine.hosts().iter().map(|h| NodeId(h.0)).collect();
        for h in engine.hosts() {
            let (actor, layer): (Box<dyn tamp_netsim::Actor>, &'static str) = match scheme {
                Scheme::AllToAll => (
                    Box::new(AllToAllNode::new(
                        NodeId(h.0),
                        AllToAllConfig {
                            services: demo_services(h),
                            ..Default::default()
                        },
                    )),
                    "alltoall",
                ),
                Scheme::Gossip => (
                    Box::new(GossipNode::new(
                        NodeId(h.0),
                        GossipConfig {
                            expected_cluster_size: n,
                            seeds: seeds.clone(),
                            services: demo_services(h),
                            ..Default::default()
                        },
                    )),
                    "gossip",
                ),
                Scheme::Hierarchical | Scheme::Rapid => {
                    let removal_discipline = if scheme == Scheme::Rapid {
                        RemovalDiscipline::CutDetection
                    } else {
                        RemovalDiscipline::Timeout
                    };
                    (
                        Box::new(MembershipNode::new(
                            NodeId(h.0),
                            MembershipConfig {
                                services: demo_services(h),
                                removal_discipline,
                                ..Default::default()
                            },
                        )),
                        "membership",
                    )
                }
                Scheme::Swim => (
                    Box::new(SwimNode::new(
                        NodeId(h.0),
                        SwimConfig {
                            seeds: seeds.clone(),
                            services: demo_services(h),
                            ..Default::default()
                        },
                    )),
                    "swim",
                ),
            };
            o.install(&mut engine, h, actor, layer);
        }
        engine.start();
    });
    engine
}

fn cells() -> impl Iterator<Item = (usize, Scheme)> {
    bandwidth::PAPER_SIZES
        .into_iter()
        .flat_map(|n| Scheme::ALL.into_iter().map(move |s| (n, s)))
}

pub fn setup_only(o: &Opts) -> f64 {
    let t0 = Instant::now();
    for (n, scheme) in cells() {
        drop(build(o, scheme, n));
        drop(build(o, scheme, n));
    }
    t0.elapsed().as_secs_f64()
}

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut work = Work::default();
    let (mut bws, mut detects, mut converges, mut delays_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (n, scheme) in cells() {
        // Fig. 11: steady-state bandwidth.
        let t0 = Instant::now();
        let mut e = build(o, scheme, n);
        let t1 = Instant::now();
        step_to(&mut e, SETTLE, &mut out.steps_ms);
        work.add_traffic(&e.stats().totals());
        e.stats_mut().reset_traffic();
        step_to(&mut e, SETTLE + BW_WINDOW, &mut out.steps_ms);
        out.setup_s += (t1 - t0).as_secs_f64();
        out.wall_s += t1.elapsed().as_secs_f64();
        let bw = e.stats().totals().recv_bytes as f64 / (BW_WINDOW as f64 / 1e9) / n as f64;
        bws.push(bw);
        work.add_traffic(&e.stats().totals());
        out.digest.add_engine(&e);
        out.judged.push({
            let mut d = Digest::default();
            d.add("bw", bw.to_bits());
            d
        });

        // Figs. 12/13: kill the highest-id (leaf) member at steady state.
        let t0 = Instant::now();
        let mut e = build(o, scheme, n);
        let t1 = Instant::now();
        step_to(&mut e, SETTLE, &mut out.steps_ms);
        let victim = HostId(n as u32 - 1);
        e.schedule(SETTLE, Control::Kill(victim));
        step_to(&mut e, SETTLE + WATCH, &mut out.steps_ms);
        out.setup_s += (t1 - t0).as_secs_f64();
        out.wall_s += t1.elapsed().as_secs_f64();
        let rem = removals(&e, victim, SETTLE);
        let (first, last) = (rem.first(), rem.last());
        detects.push(first);
        converges.push(last);
        delays_ms.extend(rem.delays_s.iter().map(|s| s * 1e3));
        out.attempted += (n - 1) as u64;
        out.failed += (n - 1 - rem.delays_s.len()) as u64;
        work.add_traffic(&e.stats().totals());
        out.digest.add_engine(&e);
        out.judged.push({
            let mut d = Digest::default();
            d.add("det", (first.to_bits(), last.to_bits(), rem.delays_s.len()));
            d
        });
    }
    out.work = work;
    out.detect_s = mean(&detects);
    out.converge_s = mean(&converges);
    out.bw_bytes_per_node_s = mean(&bws);
    out.op_p50_ms = quantile(&delays_ms, 0.5);
    out.op_p99_ms = quantile(&delays_ms, 0.99);
    out.goodput = delays_ms.len() as f64 / (detects.len() as f64 * WATCH as f64 / 1e9);
    out
}

/// `bandwidth::measure` and `detection::measure` must reproduce the
/// rebuilt clusters' numbers bit for bit.
pub fn library_matches(o: &Opts, rebuilt: &Outcome) -> Result<(), String> {
    let mut judged = rebuilt.judged.iter();
    for (n, scheme) in cells() {
        let b = bandwidth::measure(scheme, n, SEG_SIZE, o.seed);
        let mut d = Digest::default();
        d.add("bw", b.per_node_bytes_per_s.to_bits());
        if judged.next() != Some(&d) {
            return Err(format!(
                "paper-figs fig11 {} n={n}: rebuilt bandwidth differs from library",
                scheme.name()
            ));
        }
        let r = detection::measure(scheme, n, SEG_SIZE, detection::Victim::Leaf, o.seed);
        let mut d = Digest::default();
        d.add(
            "det",
            (r.detect_s.to_bits(), r.converge_s.to_bits(), r.observers),
        );
        if judged.next() != Some(&d) {
            return Err(format!(
                "paper-figs fig12 {} n={n}: rebuilt detection differs from library",
                scheme.name()
            ));
        }
    }
    Ok(())
}
