//! `load-3dc`: closed-loop Zipf(1.1) service traffic across 3
//! datacenters (generators, proxies, 4 index + 12 doc partitions with 2
//! replicas each), metrics on, no faults during the request window.
//!
//! The scenario is rebuilt from public constructors exactly as
//! `tamp_load::scenario::build` wires it, so every actor can be wrapped.
//! Requests are measured over [`WARMUP`, `WARMUP + WINDOW`); after the
//! window the highest-id provider of every segment is killed (each right
//! after its own heartbeat) and watched for 10 s, so detection is
//! measured on this workload too without a fault inside the request
//! window.

use crate::common::{check, probe_kills, summarize, Digest, Opts, Outcome, Work};
use crate::trace;
use std::time::Instant;
use tamp_load::{LoadGenConfig, LoadGenNode, LoadScenarioConfig, LoadTelemetry};
use tamp_membership::MembershipConfig;
use tamp_neptune::{ProviderConfig, ProviderNode};
use tamp_netsim::telemetry::HistogramSnapshot;
use tamp_netsim::{Engine, EngineConfig, SECS};
use tamp_proxy::{ProxyConfig, ProxyNode, RemoteView, VipTable};
use tamp_topology::{generators, HostId};
use tamp_wire::{DcId, NodeId, PartitionSet, ServiceDecl};

/// Users at the default 100 s think time: 10k requests per second.
const USERS: u64 = 1_000_000;
const WARMUP: u64 = 10 * SECS;
const WINDOW: u64 = 10 * SECS;
const WATCH: u64 = 10 * SECS;

fn config(seed: u64) -> LoadScenarioConfig {
    let mut cfg = LoadScenarioConfig {
        users: USERS,
        seed,
        ..Default::default()
    };
    cfg.workload.seed = seed;
    cfg
}

struct Built {
    engine: Engine,
    telemetry: LoadTelemetry,
    /// Hosts with an actor, per datacenter, in wiring order.
    wired: Vec<Vec<HostId>>,
}

/// The highest-id wired host of every segment: a provider, never a
/// segment leader (leaders are the lowest ids).
fn victims(topo: &tamp_topology::Topology, wired: &[Vec<HostId>]) -> Vec<HostId> {
    let mut last: std::collections::BTreeMap<u16, HostId> = std::collections::BTreeMap::new();
    for &h in wired.iter().flatten() {
        last.insert(topo.segment_of(h).0, h);
    }
    last.into_values().collect()
}

/// `tamp_load::scenario::build`, from the public constructors.
fn build(o: &Opts, cfg: &LoadScenarioConfig) -> Built {
    let per_segment = cfg.hosts_per_dc().div_ceil(2);
    let dcs: Vec<(usize, usize)> = (0..cfg.datacenters).map(|_| (2, per_segment)).collect();
    let (topo, dc_hosts) = trace::span("topology", "build", || {
        generators::multi_datacenter(&dcs, cfg.wan_one_way)
    });
    let engine_cfg = EngineConfig {
        series_bucket: SECS,
        metrics: true,
        sharding: cfg.sharding,
        ..Default::default()
    };
    let mut engine = trace::span("netsim", "new", || {
        Engine::new(topo, o.engine_config(engine_cfg), cfg.seed)
    });
    let telemetry = LoadTelemetry::new(engine.registry(), cfg.doc_partitions);
    let wired: Vec<Vec<HostId>> = dc_hosts
        .iter()
        .map(|d| d[..cfg.hosts_per_dc()].to_vec())
        .collect();
    trace::span("setup", "actors", || {
        let vips = VipTable::new();
        let membership = MembershipConfig {
            suspicion_window: 0,
            quarantine_window: 0,
            ..MembershipConfig::default()
        };
        let total_gens = (cfg.datacenters * cfg.generators_per_dc) as u64;
        let mut gen_idx = 0u64;
        for (dc_idx, hosts) in dc_hosts.iter().enumerate() {
            let dc = DcId(dc_idx as u16);
            let remote_dcs: Vec<DcId> = (0..cfg.datacenters)
                .filter(|&d| d != dc_idx)
                .map(|d| DcId(d as u16))
                .collect();
            let mut it = hosts.iter().copied();
            for _ in 0..cfg.generators_per_dc {
                let h = it.next().expect("not enough hosts for generators");
                let base = cfg.users / total_gens;
                let users = base + u64::from(gen_idx < cfg.users % total_gens);
                gen_idx += 1;
                let workload = tamp_load::WorkloadConfig {
                    users,
                    ..cfg.workload.clone()
                };
                let mut gc = LoadGenConfig::new(membership.clone(), workload);
                gc.index_partitions = cfg.index_partitions;
                gc.doc_partitions = cfg.doc_partitions;
                let node = LoadGenNode::new(NodeId(h.0), gc, telemetry.clone());
                o.install(&mut engine, h, Box::new(node), "load");
            }
            let remote_view = RemoteView::new();
            for i in 0..cfg.proxies_per_dc {
                let h = it.next().expect("not enough hosts for proxies");
                if i == 0 {
                    vips.set(dc, NodeId(h.0));
                }
                let p = ProxyNode::new(
                    NodeId(h.0),
                    ProxyConfig::new(dc, remote_dcs.clone(), membership.clone()),
                    vips.clone(),
                    remote_view.clone(),
                );
                o.install(&mut engine, h, Box::new(p), "proxy");
            }
            for (service, partitions, time) in [
                ("index", cfg.index_partitions, cfg.index_time),
                ("doc", cfg.doc_partitions, cfg.doc_time),
            ] {
                for part in 0..partitions {
                    for _ in 0..cfg.replicas {
                        let h = it.next().expect("not enough hosts for providers");
                        let mut m = membership.clone();
                        m.services =
                            vec![ServiceDecl::new(service, PartitionSet::from_iter([part]))];
                        let p = ProviderNode::new(NodeId(h.0), ProviderConfig::new(m, time));
                        o.install(&mut engine, h, Box::new(p), "neptune");
                    }
                }
            }
        }
        engine.start();
    });
    Built {
        engine,
        telemetry,
        wired,
    }
}

/// Linear interpolation inside the power-of-two bucket that holds the
/// `q`-quantile (bucket `k` holds values of bit width `k`). The
/// histogram itself only knows the bucket's upper bound.
pub fn interpolated_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return f64::NAN;
    }
    let rank = (q * h.count as f64).clamp(1.0, h.count as f64);
    let mut seen = 0u64;
    for (k, &c) in h.buckets.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= rank {
            let lo = if k == 0 {
                0.0
            } else {
                (1u64 << (k - 1)) as f64
            };
            let hi = if k == 0 {
                0.0
            } else {
                ((1u128 << k) - 1) as f64
            };
            return lo + (hi - lo) * (rank - seen as f64) / c as f64;
        }
        seen += c;
    }
    f64::NAN
}

/// Run the scenario to the end of the request window; returns the
/// built scenario for whatever comes after.
fn run_window(o: &Opts, out: &mut Outcome) -> Built {
    let cfg = config(o.seed);
    let t0 = Instant::now();
    let mut b = build(o, &cfg);
    out.setup_s = t0.elapsed().as_secs_f64();
    crate::common::step_to(&mut b.engine, WARMUP + WINDOW, &mut out.steps_ms);
    b
}

pub fn setup_only(o: &Opts) -> f64 {
    let t0 = Instant::now();
    drop(build(o, &config(o.seed)));
    t0.elapsed().as_secs_f64()
}

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let t1 = Instant::now();
    let mut b = run_window(o, &mut out);
    let setup_s = out.setup_s;
    let snap = b.engine.registry().snapshot();
    let issued = snap.counter_total("load", "issued");
    let completed = snap.counter_total("load", "completed");
    let failed = snap.counter_total("load", "failed");
    let retries = snap.counter_total("load", "errors.timeout")
        + snap.counter_total("load", "errors.routed_to_dead");
    let latency_samples = b.telemetry.latency.snapshot().count;
    let hosts = b.engine.topology().num_hosts() as f64;
    let bw = b.engine.stats().totals().recv_bytes as f64 / ((WARMUP + WINDOW) as f64 / 1e9) / hosts;
    let (win_done, win_failed, win_lat) = {
        let tl = b.telemetry.timeline.lock();
        let (from, to) = (
            (WARMUP / SECS) as usize,
            ((WARMUP + WINDOW) / SECS) as usize,
        );
        let failed: u64 = tl
            .cells()
            .iter()
            .take(to)
            .skip(from)
            .map(|c| c.failed)
            .sum();
        (
            tl.completed_in(from, to),
            failed,
            tl.merged_latency(from, to),
        )
    };
    let mut work = Work {
        load_issued: issued,
        load_retries: retries,
        ..Work::default()
    };
    work.telemetry_series = crate::common::export_telemetry(&b.engine, &mut out.digest);
    work.add_traffic(&b.engine.stats().totals());
    b.engine.stats_mut().reset_traffic();

    let victims = victims(b.engine.topology(), &b.wired);
    let rems = probe_kills(&mut b.engine, &victims, WATCH, &mut out.steps_ms);
    out.wall_s = t1.elapsed().as_secs_f64() - setup_s;
    work.add_traffic(&b.engine.stats().totals());
    work.add_registry(&b.engine);
    out.work = work;

    let (detect_s, converge_s, _) = summarize(&rems);
    out.detect_s = detect_s;
    out.converge_s = converge_s;
    out.bw_bytes_per_node_s = bw;
    out.op_p50_ms = interpolated_quantile(&win_lat, 0.5) / 1e6;
    out.op_p99_ms = interpolated_quantile(&win_lat, 0.99) / 1e6;
    out.goodput = win_done as f64 / (WINDOW as f64 / 1e9);
    out.attempted = win_done + win_failed;
    out.failed = win_failed;

    let in_flight = issued as i128 - completed as i128 - failed as i128;
    let c = &mut out.check_failures;
    check(c, (0..=USERS as i128).contains(&in_flight), || {
        format!("issued {issued} != completed {completed} + failed {failed} + in-flight (in-flight would be {in_flight})")
    });
    check(c, latency_samples == completed, || {
        format!("latency histogram holds {latency_samples} samples for {completed} completions")
    });
    // Each datacenter runs its own membership cluster: a victim's live
    // datacenter peers are the ones that must remove it.
    for (v, r) in victims.iter().zip(&rems) {
        let dc = b
            .wired
            .iter()
            .find(|d| d.contains(v))
            .expect("victims are wired");
        let peers = dc
            .iter()
            .filter(|&&h| h != *v && b.engine.is_alive(h))
            .count();
        check(c, r.delays_s.len() == peers, || {
            format!(
                "probe kill of host {}: {} of {peers} datacenter peers removed it",
                v.0,
                r.delays_s.len()
            )
        });
    }
    out.notes.push(("issued".into(), issued.to_string()));
    out.notes.push(("completed".into(), completed.to_string()));
    out.notes.push(("failed".into(), failed.to_string()));
    out.notes.push(("in_flight".into(), in_flight.to_string()));
    out.notes.push((
        "p50_bucket_upper_ms".into(),
        format!("{}", win_lat.quantile(0.5) as f64 / 1e6),
    ));
    out.notes.push((
        "p99_bucket_upper_ms".into(),
        format!("{}", win_lat.quantile(0.99) as f64 / 1e6),
    ));

    out.digest.add_engine(&b.engine);
    out.digest.add("window", (win_done, win_failed, &win_lat));
    let mut judged = Digest::default();
    judged.add_engine(&b.engine);
    out.judged = vec![judged];
    out
}

/// `tamp_load::scenario::build` driven the same way must leave the same
/// engine outputs as the rebuilt scenario.
pub fn library_matches(o: &Opts, rebuilt: &Outcome) -> Result<(), String> {
    let cfg = config(o.seed);
    let mut s = tamp_load::scenario::build(&cfg);
    s.engine.start();
    let mut steps = Vec::new();
    crate::common::step_to(&mut s.engine, WARMUP + WINDOW, &mut steps);
    let wired: Vec<Vec<HostId>> = s
        .dc_hosts
        .iter()
        .map(|d| d[..cfg.hosts_per_dc()].to_vec())
        .collect();
    let victims = victims(s.engine.topology(), &wired);
    s.engine.stats_mut().reset_traffic();
    probe_kills(&mut s.engine, &victims, WATCH, &mut steps);
    let mut lib = Digest::default();
    lib.add_engine(&s.engine);
    match rebuilt.judged.first() {
        Some(d) if *d == lib => Ok(()),
        other => Err(format!(
            "load-3dc rebuilt digest {other:?} != library {lib}"
        )),
    }
}
