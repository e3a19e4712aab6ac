//! `churn-ring`: a 16×20 router ring under one generated adversarial
//! schedule (rack failure, gray partition, churn storm, router loss),
//! borrowed-wire delivery, metrics on, judged by the strict oracle —
//! once under `tamp` and once under `tamp-rapid`.
//!
//! The cluster is rebuilt from public constructors the way
//! `tamp_chaos::run_scenario` builds it, and driven through the public
//! `apply_schedule`. After the oracle has judged the schedule's horizon
//! the run goes on to a common 150 s horizon (so every seed simulates
//! the same length), heals the routers, lets the groups re-form for 15 s,
//! and measures 5 s of steady-state
//! bandwidth and then probe kills, watched for 20 s. Nothing after the
//! horizon feeds the oracle, so the judged outputs stay equal to the
//! library run's. The probe kills the highest-id live host of every
//! segment (each right after its own heartbeat): post-chaos detection
//! depends on which routers stayed down, so one victim per segment
//! averages over the ring instead of sampling one spot of it.

use crate::common::{
    check, probe_kills, quantile, step_to, summarize, Digest, Opts, Outcome, Work,
};
use crate::trace;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;
use tamp_chaos::oracle::{self, OracleConfig, Violation};
use tamp_chaos::{
    adversarial_schedule, apply_schedule, run_scenario, AdversarialConfig, GroundTruth, Protocol,
    ScenarioConfig, Schedule,
};
use tamp_directory::DirectoryClient;
use tamp_membership::{MembershipConfig, MembershipNode, Probe, RemovalDiscipline};
use tamp_netsim::telemetry::snapshot_to_csv;
use tamp_netsim::{Control, Engine, TraceLog, SECS};
use tamp_topology::{HostId, RouterId, SegmentId};
use tamp_wire::{CodecKind, NodeId};

const SEGMENTS: u16 = 16;
const HOSTS_PER_SEGMENT: u16 = 20;
const PROTOCOLS: [Protocol; 2] = [Protocol::Tamp, Protocol::TampRapid];
/// Every schedule the generator draws ends by then: events inside
/// [10 s, 80 s], recoveries at most 25 s later, 45 s of settle.
const HORIZON: u64 = 150 * SECS;
/// Re-formation time after the routers left down come back up.
const HEAL: u64 = 15 * SECS;
const BW_WINDOW: u64 = 5 * SECS;
const WATCH: u64 = 20 * SECS;

/// Six to ten fault events inside [10 s, 80 s]: enough that a seed
/// mixes several fault classes.
fn generator() -> AdversarialConfig {
    AdversarialConfig {
        num_segments: SEGMENTS,
        hosts_per_segment: HOSTS_PER_SEGMENT,
        min_events: 6,
        max_events: 10,
        active_window_secs: 80,
    }
}

/// The library's scenario configuration for this workload.
fn scenario_config(seed: u64, protocol: Protocol) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::ring(SEGMENTS as usize, HOSTS_PER_SEGMENT as usize, seed);
    cfg.strict = true;
    cfg.protocol = protocol;
    cfg.engine.wire_codec = Some(CodecKind::Borrowed);
    cfg
}

pub fn schedule(seed: u64) -> Schedule {
    let mut s = adversarial_schedule(seed, &generator());
    s.normalize();
    s
}

struct Cluster {
    engine: Engine,
    clients: Vec<DirectoryClient>,
    probes: Vec<Option<Probe>>,
}

fn build(o: &Opts, schedule: &Schedule, protocol: Protocol) -> Cluster {
    let cfg = scenario_config(o.seed, protocol);
    let topo = trace::span("topology", "build", || {
        schedule
            .topo
            .expect("adversarial schedules carry their ring")
            .build()
    });
    let mut engine_cfg = cfg.engine.clone();
    engine_cfg.metrics = true;
    let mut engine = trace::span("netsim", "new", || {
        Engine::new(topo, o.engine_config(engine_cfg), cfg.seed)
    });
    let mut clients = Vec::new();
    let mut probes = Vec::new();
    trace::span("setup", "actors", || {
        for h in engine.hosts() {
            let mut mcfg = cfg.membership.clone();
            if protocol == Protocol::TampRapid {
                mcfg.removal_discipline = RemovalDiscipline::CutDetection;
            }
            let node = MembershipNode::new(NodeId(h.0), mcfg);
            clients.push(node.directory_client());
            probes.push(Some(node.probe()));
            o.install(&mut engine, h, Box::new(node), "membership");
        }
        engine.start();
    });
    Cluster {
        engine,
        clients,
        probes,
    }
}

/// Hosts a violation implicates (segment-level ones implicate the
/// whole segment).
fn implicated(v: &Violation, topo: &tamp_topology::Topology, out: &mut BTreeSet<u32>) {
    match v {
        Violation::FalseRemoval { observer, .. }
        | Violation::RemovalWithoutSuspicion { observer, .. }
        | Violation::RefutedRemoval { observer, .. }
        | Violation::Resurrection { observer, .. } => {
            out.insert(observer.0);
        }
        Violation::ViewDivergence { host, .. } => {
            out.insert(host.0);
        }
        Violation::LeaderConflict { segment, .. } | Violation::DeadLeader { segment, .. } => {
            out.extend(topo.hosts_on(SegmentId(*segment)).iter().map(|h| h.0));
        }
        Violation::ProxyInconsistency { .. } => {}
    }
}

/// Digest of what the oracle judged: resolved actions, violations, the
/// live set, the telemetry snapshot and the trace at the horizon.
fn judged_digest(
    resolved: &[String],
    violations: &[Violation],
    live: &[u32],
    metrics_csv: &str,
    trace: &[String],
) -> Digest {
    let mut d = Digest::default();
    for r in resolved {
        let _ = writeln!(d, "resolved {r}");
    }
    for v in violations {
        let _ = writeln!(d, "violation {v}");
    }
    d.add("live", live);
    let _ = d.write_str(metrics_csv);
    for t in trace {
        let _ = writeln!(d, "{t}");
    }
    d
}

/// One protocol's run: returns the judged digest next to the outcome
/// fields it fills in.
struct ProtocolRun {
    setup_s: f64,
    wall_s: f64,
    judged: Digest,
    violations: usize,
    implicated: usize,
    hosts: usize,
    faults: u64,
    removal_ms: Vec<f64>,
    detect_s: f64,
    converge_s: f64,
    observers: usize,
    survivors: usize,
    bw_per_node: f64,
}

fn run_protocol(
    o: &Opts,
    schedule: &Schedule,
    protocol: Protocol,
    out: &mut Outcome,
    work: &mut Work,
) -> ProtocolRun {
    let t0 = Instant::now();
    let mut c = build(o, schedule, protocol);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let first = schedule.events.first().map_or(0, |e| e.at);
    step_to(&mut c.engine, first, &mut out.steps_ms);
    let mut truth = GroundTruth::new();
    let resolved = trace::span("chaos", "apply", || {
        apply_schedule(&mut c.engine, &c.probes, schedule, o.seed, 0.0, &mut truth)
    });
    let horizon = schedule.horizon();
    step_to(&mut c.engine, horizon, &mut out.steps_ms);

    let topo = c.engine.topology().clone();
    let violations = trace::span("chaos", "oracle", || {
        let membership = MembershipConfig::default();
        let max_level = (usize::BITS - topo.num_segments().leading_zeros()) as u8;
        let ocfg = match protocol {
            Protocol::TampRapid => OracleConfig::strict_for_cut_detection(&membership, max_level),
            _ => OracleConfig::strict_for_membership(&membership, max_level),
        };
        let mut v = oracle::check_removals(c.engine.stats().observations(), &truth, &topo, &ocfg);
        v.extend(oracle::check_convergence(&c.clients, &truth));
        let probes: Vec<Probe> = c.probes.iter().flatten().cloned().collect();
        v.extend(oracle::check_leaders(&probes, &truth, &topo));
        v
    });
    let hosts = topo.num_hosts();
    let live: Vec<u32> = (0..hosts as u32).filter(|&h| truth.is_alive(h)).collect();
    let trace_lines: Vec<String> = c
        .engine
        .trace_log()
        .records()
        .map(TraceLog::render)
        .collect();
    let csv = snapshot_to_csv(&c.engine.registry().snapshot());
    let judged = judged_digest(&resolved, &violations, &live, &csv, &trace_lines);
    work.telemetry_series += crate::common::export_telemetry(&c.engine, &mut out.digest);

    // Past the judged horizon: run on to the common horizon, bring back
    // any router the schedule left down (whether one stays down is a
    // coin flip per seed, and it reshapes every group), let the groups
    // re-form, then measure steady-state bandwidth and probe detection.
    step_to(&mut c.engine, horizon.max(HORIZON), &mut out.steps_ms);
    for r in 0..topo.num_routers() as u16 {
        if !c.engine.topology().router_is_up(RouterId(r)) {
            c.engine.control_now(Control::RouterUp(r));
        }
    }
    let healed = c.engine.now() + HEAL;
    step_to(&mut c.engine, healed, &mut out.steps_ms);
    work.add_traffic(&c.engine.stats().totals());
    c.engine.stats_mut().reset_traffic();
    step_to(&mut c.engine, healed + BW_WINDOW, &mut out.steps_ms);
    let bw_per_node =
        c.engine.stats().totals().recv_bytes as f64 / (BW_WINDOW as f64 / 1e9) / live.len() as f64;
    let victims: Vec<HostId> = (0..topo.num_segments() as u16)
        .filter_map(|seg| {
            topo.hosts_on(SegmentId(seg))
                .iter()
                .rev()
                .find(|h| truth.is_alive(h.0))
                .copied()
        })
        .collect();
    let rems = probe_kills(&mut c.engine, &victims, WATCH, &mut out.steps_ms);
    let (detect_s, converge_s, removal_ms) = summarize(&rems);
    let wall_s = t1.elapsed().as_secs_f64();

    work.add_traffic(&c.engine.stats().totals());
    work.add_registry(&c.engine);
    let mut hit = BTreeSet::new();
    for v in &violations {
        implicated(v, &topo, &mut hit);
    }
    let faults = resolved.iter().filter(|r| !r.contains("skipped")).count() as u64;
    out.digest.add_engine(&c.engine);
    let _ = writeln!(out.digest, "judged {judged}");
    ProtocolRun {
        setup_s,
        wall_s,
        judged,
        violations: violations.len(),
        implicated: hit.len(),
        hosts,
        faults,
        observers: rems.iter().map(|r| r.delays_s.len()).sum(),
        survivors: rems.iter().map(|r| r.survivors).sum(),
        removal_ms,
        detect_s,
        converge_s,
        bw_per_node,
    }
}

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut work = Work::default();
    let schedule = trace::span("chaos", "generate", || schedule(o.seed));
    let runs: Vec<ProtocolRun> = PROTOCOLS
        .iter()
        .map(|&p| run_protocol(o, &schedule, p, &mut out, &mut work))
        .collect();
    work.chaos_faults = runs.iter().map(|r| r.faults).sum();
    out.work = work;
    out.judged = runs.iter().map(|r| r.judged).collect();

    out.setup_s = runs.iter().map(|r| r.setup_s).sum();
    out.wall_s = runs.iter().map(|r| r.wall_s).sum();
    let all_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.removal_ms.iter().copied())
        .collect();
    out.detect_s = runs.iter().map(|r| r.detect_s).sum::<f64>() / runs.len() as f64;
    out.converge_s = runs.iter().map(|r| r.converge_s).sum::<f64>() / runs.len() as f64;
    out.op_p50_ms = quantile(&all_ms, 0.5);
    out.op_p99_ms = quantile(&all_ms, 0.99);
    out.goodput = all_ms.len() as f64 / (runs.len() as f64 * WATCH as f64 / 1e9);
    out.bw_bytes_per_node_s = runs.iter().map(|r| r.bw_per_node).sum::<f64>() / runs.len() as f64;
    out.attempted = runs.iter().map(|r| r.hosts as u64).sum();
    out.failed = runs.iter().map(|r| r.implicated as u64).sum();
    for (p, r) in PROTOCOLS.iter().zip(&runs) {
        let name = p.name();
        let verdict = if r.violations == 0 { "PASS" } else { "FAIL" };
        out.notes.push((format!("{name}.oracle"), verdict.into()));
        out.notes
            .push((format!("{name}.violations"), r.violations.to_string()));
        out.notes.push((
            format!("{name}.hosts_implicated"),
            format!("{}/{}", r.implicated, r.hosts),
        ));
        out.notes.push((
            format!("{name}.probe_observers"),
            format!("{}/{}", r.observers, r.survivors),
        ));
        check(&mut out.check_failures, r.observers > 0, || {
            format!("{name}: nobody recorded the probe kills")
        });
    }
    out
}

pub fn setup_only(o: &Opts) -> f64 {
    let t0 = Instant::now();
    let s = schedule(o.seed);
    for p in PROTOCOLS {
        drop(build(o, &s, p));
    }
    t0.elapsed().as_secs_f64()
}

/// The library's `run_scenario` must judge exactly what the rebuilt
/// cluster judged, for both protocols.
pub fn library_matches(o: &Opts, rebuilt: &Outcome) -> Result<(), String> {
    let s = schedule(o.seed);
    for (p, judged) in PROTOCOLS.iter().zip(&rebuilt.judged) {
        let lib = run_scenario(&scenario_config(o.seed, *p), &s);
        let lib_digest = judged_digest(
            &lib.resolved,
            &lib.violations,
            &lib.live,
            &snapshot_to_csv(&lib.metrics),
            &lib.trace_lines(),
        );
        if lib_digest != *judged {
            return Err(format!(
                "churn-ring {}: rebuilt judged digest {judged} != library {lib_digest}",
                p.name()
            ));
        }
    }
    Ok(())
}
