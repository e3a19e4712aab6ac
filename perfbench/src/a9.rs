//! `a9-n3920`: the A9 warm-start pipeline at n=3920, rebuilt from public
//! constructors so every `run_until` step can be timed and every actor
//! wrapped. Mirrors `tamp_harness::scale::measure_with`: settle 8 s,
//! measure bandwidth over 10 s, kill the highest-id leaf member right
//! after its heartbeat, watch 12 s.

use crate::common::{check, quantile, step_to, Digest, Opts, Outcome, Work};
use crate::trace;
use std::collections::BTreeSet;
use std::time::Instant;
use tamp_analysis::{hierarchical, ModelParams};
use tamp_directory::{Directory, Provenance};
use tamp_harness::scale;
use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::{Engine, EngineConfig, SECS};
use tamp_topology::{HostId, SegmentId, Topology};
use tamp_wire::NodeId;

pub const NODES: usize = 3920;
const SETTLE: u64 = 8 * SECS;
const WINDOW: u64 = 10 * SECS;
const WATCH: u64 = 12 * SECS;
/// 228 B heartbeat + 28 B simulated UDP/IP header, as in the A9 model.
const WIRE_RECORD_BYTES: f64 = 256.0;

/// The A9 paper-mode configuration (immediate removal, no digests,
/// warm start).
fn scale_config() -> MembershipConfig {
    MembershipConfig {
        warm_start: true,
        suspicion_window: 0,
        quarantine_window: 0,
        anti_entropy_period: 0,
        ..Default::default()
    }
}

/// Per-segment warm-start directories: own segment direct, every leaf
/// leader plus the victim relayed by the segment's leader — the same
/// templates `scale::SizeSetup` builds.
fn templates(topo: &Topology) -> (Vec<u16>, Vec<Directory>) {
    let n = topo.num_hosts();
    let segments = topo.num_segments();
    let seg_of: Vec<u16> = topo.hosts().map(|h| topo.segment_of(h).0).collect();
    let leader_of: Vec<NodeId> = (0..segments)
        .map(|s| {
            NodeId(
                topo.hosts_on(SegmentId(s as u16))
                    .iter()
                    .map(|h| h.0)
                    .min()
                    .expect("empty segment"),
            )
        })
        .collect();
    let boot: Vec<_> = (0..n)
        .map(|i| MembershipNode::new(NodeId(i as u32), scale_config()).boot_record())
        .collect();
    let mut extras: Vec<usize> = leader_of.iter().map(|l| l.0 as usize).collect();
    extras.push(n - 1);
    extras.sort_unstable();
    extras.dedup();
    let mut hosts_in: Vec<Vec<usize>> = vec![Vec::new(); segments];
    for (i, &s) in seg_of.iter().enumerate() {
        hosts_in[s as usize].push(i);
    }
    let dirs = leader_of
        .iter()
        .enumerate()
        .map(|(seg, &my_leader)| {
            let mut d = Directory::new();
            let relevant: BTreeSet<usize> =
                hosts_in[seg].iter().chain(extras.iter()).copied().collect();
            for i in relevant {
                let prov = if seg_of[i] as usize == seg {
                    Provenance::Direct
                } else {
                    Provenance::Relayed(my_leader)
                };
                d.apply_join(boot[i].clone(), prov, 0);
            }
            d
        })
        .collect();
    (seg_of, dirs)
}

struct Built {
    engine: Engine,
    group_size: usize,
}

fn setup(o: &Opts) -> Built {
    let (topo, group_size) = trace::span("topology", "build", || scale::scale_topology(NODES));
    let (seg_of, dirs) = trace::span("setup", "templates", || templates(&topo));
    let n = topo.num_hosts();
    let mut engine = trace::span("netsim", "new", || {
        Engine::new(topo, o.engine_config(EngineConfig::default()), o.seed)
    });
    trace::span("setup", "actors", || {
        for i in 0..n {
            let mut m = MembershipNode::new(NodeId(i as u32), scale_config());
            m.preload_directory(&dirs[seg_of[i] as usize]);
            o.install(&mut engine, HostId(i as u32), Box::new(m), "membership");
        }
        engine.start();
    });
    Built { engine, group_size }
}

/// Build and drop the cluster; returns the setup seconds.
pub fn setup_only(o: &Opts) -> f64 {
    let t0 = Instant::now();
    let b = setup(o);
    let s = t0.elapsed().as_secs_f64();
    drop(b);
    s
}

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let Built {
        mut engine,
        group_size,
    } = setup(o);
    out.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let n = engine.topology().num_hosts();
    step_to(&mut engine, SETTLE, &mut out.steps_ms);
    let mut work = Work::default();
    work.add_traffic(&engine.stats().totals());
    engine.stats_mut().reset_traffic();
    step_to(&mut engine, SETTLE + WINDOW, &mut out.steps_ms);
    let totals = engine.stats().totals();
    let agg_bw = totals.recv_bytes as f64 / (WINDOW as f64 / 1e9);
    let victim = HostId(n as u32 - 1);
    let rem = crate::common::probe_kill(&mut engine, victim, WATCH, &mut out.steps_ms);
    out.wall_s = t1.elapsed().as_secs_f64();

    work.add_traffic(&engine.stats().totals());
    work.add_registry(&engine);
    out.work = work;

    let observers = rem.delays_s.len();
    out.detect_s = rem.first();
    out.converge_s = rem.last();
    out.bw_bytes_per_node_s = agg_bw / n as f64;
    let ms: Vec<f64> = rem.delays_s.iter().map(|s| s * 1e3).collect();
    out.op_p50_ms = quantile(&ms, 0.5);
    out.op_p99_ms = quantile(&ms, 0.99);
    out.goodput = observers as f64 / (WATCH as f64 / 1e9);
    out.attempted = (n - 1) as u64;
    out.failed = (n - 1 - observers) as u64;

    let model = hierarchical(&ModelParams {
        n,
        record_bytes: WIRE_RECORD_BYTES,
        group_size,
        ..Default::default()
    });
    let bw_ratio = agg_bw / model.bandwidth_bytes_per_s;
    let det_ratio = out.detect_s / model.detection_s;
    let c = &mut out.check_failures;
    check(c, observers == n - 1, || {
        format!("observers {observers} != n-1 = {}", n - 1)
    });
    check(c, (0.85..=1.15).contains(&bw_ratio), || {
        format!("bandwidth ratio {bw_ratio:.3} outside the 15% model envelope")
    });
    check(c, (0.85..=1.15).contains(&det_ratio), || {
        format!("detection ratio {det_ratio:.3} outside the 15% model envelope")
    });
    out.notes
        .push(("bw_model_ratio".into(), format!("{bw_ratio:.4}")));
    out.notes
        .push(("detect_model_ratio".into(), format!("{det_ratio:.4}")));

    let mut d = Digest::default();
    d.add_engine(&engine);
    d.add(
        "row",
        (
            agg_bw.to_bits(),
            out.detect_s.to_bits(),
            out.converge_s.to_bits(),
            observers,
        ),
    );
    out.digest = d;
    out
}

/// The library pipeline's row next to the rebuilt one: they must agree
/// bit for bit on every measured quantity.
pub fn library_matches(o: &Opts, rebuilt: &Outcome) -> Result<(), String> {
    let row = scale::measure_with(&scale::SizeSetup::new(NODES), o.seed);
    let lib = (
        (row.agg_recv_bytes_per_s / row.n as f64).to_bits(),
        row.detect_s.to_bits(),
        row.converge_s.to_bits(),
        row.observers as u64,
    );
    let ours = (
        rebuilt.bw_bytes_per_node_s.to_bits(),
        rebuilt.detect_s.to_bits(),
        rebuilt.converge_s.to_bits(),
        rebuilt.attempted - rebuilt.failed,
    );
    if lib == ours {
        Ok(())
    } else {
        Err(format!("a9 rebuilt {ours:?} != library {lib:?}"))
    }
}
