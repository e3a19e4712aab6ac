//! Plumbing shared by the workloads: run options, stepping, the
//! removal probe, digests of deterministic outputs, and percentiles.

use crate::trace::{self, Timed};
use std::fmt::Write as _;
use std::time::Instant;
use tamp_netsim::telemetry::{events_to_jsonl, snapshot_to_csv};
use tamp_netsim::{Actor, Control, Engine, EngineConfig, HostStats, SimTime, TraceLog, MILLIS};
use tamp_topology::HostId;
use tamp_wire::NodeId;

/// Simulated length of one timed step (`Engine::run_until` call).
pub const STEP: SimTime = 100 * MILLIS;

/// How one repetition of a workload is run.
#[derive(Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Wrap every actor in [`Timed`] (traced run only).
    pub wrap: bool,
    /// Engine-config change for the alternate-path report; `None` runs
    /// the workload's own configuration.
    pub tweak: Option<fn(&mut EngineConfig)>,
}

impl Opts {
    pub fn engine_config(&self, mut cfg: EngineConfig) -> EngineConfig {
        if let Some(t) = self.tweak {
            t(&mut cfg);
        }
        cfg
    }

    /// Install `actor` on `host`, wrapped when this is the traced run.
    pub fn install(
        &self,
        engine: &mut Engine,
        host: HostId,
        actor: Box<dyn Actor>,
        layer: &'static str,
    ) {
        let actor = if self.wrap {
            Timed::wrap(actor, layer)
        } else {
            actor
        };
        engine.add_actor(host, actor);
    }
}

/// Everything one repetition of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds spent building topology, templates, engine and
    /// actors, up to the first simulated event.
    pub setup_s: f64,
    /// Host seconds spent running the simulated horizon.
    pub wall_s: f64,
    /// Host milliseconds of every full [`STEP`].
    pub steps_ms: Vec<f64>,
    /// Simulated seconds: first and last removal after the probe kill(s).
    pub detect_s: f64,
    pub converge_s: f64,
    /// Steady-state received bytes per node per simulated second.
    pub bw_bytes_per_node_s: f64,
    /// Latency of the workload's operations, simulated milliseconds.
    pub op_p50_ms: f64,
    pub op_p99_ms: f64,
    /// Completed operations per simulated second.
    pub goodput: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty when every check passed).
    pub check_failures: Vec<String>,
    /// Extra facts for the report line (oracle verdicts, counts, …).
    pub notes: Vec<(String, String)>,
    /// Digest of every deterministic output of the run.
    pub digest: Digest,
    /// Digests comparable with a library-built run of the same cluster.
    pub judged: Vec<Digest>,
    /// Work counters for the per-layer report.
    pub work: Work,
}

/// Deterministic work the simulator did, summed over every engine a
/// repetition ran (traffic counters are read before each reset).
#[derive(Default, Clone, Copy, Debug)]
pub struct Work {
    pub deliveries: u64,
    pub sends: u64,
    pub drops: u64,
    pub suspicions_raised: u64,
    pub suspicions_confirmed: u64,
    pub full_syncs_served: u64,
    pub backfills_served: u64,
    pub load_issued: u64,
    pub load_retries: u64,
    pub telemetry_series: u64,
    pub chaos_faults: u64,
}

impl Work {
    pub fn add_traffic(&mut self, t: &HostStats) {
        self.deliveries += t.recv_pkts;
        self.sends += t.sent_pkts;
        self.drops += t.dropped_pkts;
    }

    /// Fold in the registry counters of a finished engine.
    pub fn add_registry(&mut self, engine: &Engine) {
        let snap = engine.registry().snapshot();
        self.suspicions_raised += snap.counter_total("membership", "suspicions_raised");
        self.suspicions_confirmed += snap.counter_total("membership", "suspicions_confirmed");
        self.full_syncs_served += snap.counter_total("membership", "full_syncs_served");
        self.backfills_served += snap.counter_total("membership", "backfills_served");
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, s: &str) -> u64 {
    for b in s.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 over everything written into it, plus the byte count: a
/// compact stand-in for keeping the outputs themselves.
///
/// Observations recorded at the same instant enter in sorted order; the
/// order the engine recorded them in is hashed apart (`order`) and does
/// not take part in equality. The gossip baseline's failure sweep
/// iterates a `HashMap`, so two same-instant removals can swap places
/// from run to run while every measured value stays the same; runs
/// report that as a finding (`same_order`) instead of a mismatch.
#[derive(Clone, Copy, Debug)]
pub struct Digest {
    hash: u64,
    len: u64,
    order: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: FNV_OFFSET,
            len: 0,
            order: FNV_OFFSET,
        }
    }
}

impl PartialEq for Digest {
    fn eq(&self, other: &Self) -> bool {
        (self.hash, self.len) == (other.hash, other.len)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.hash = fnv(self.hash, s);
        self.len += s.len() as u64;
        Ok(())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/{}", self.hash, self.len)
    }
}

impl Digest {
    /// Fold in an engine's deterministic outputs: traffic totals, every
    /// observation, the trace log and (when metrics are on) the
    /// telemetry snapshot.
    pub fn add_engine(&mut self, engine: &Engine) {
        let t = engine.stats().totals();
        let _ = writeln!(
            self,
            "totals {} {} {} {} {} {}",
            t.sent_pkts, t.sent_bytes, t.recv_pkts, t.recv_bytes, t.dropped_pkts, t.cpu_ns
        );
        let obs = engine.stats().observations();
        for same_instant in obs.chunk_by(|a, b| a.time == b.time) {
            let mut lines: Vec<String> = same_instant
                .iter()
                .map(|o| format!("{} {} {:?}\n", o.time, o.observer.0, o.kind))
                .collect();
            for l in &lines {
                self.order = fnv(self.order, l);
            }
            lines.sort_unstable();
            for l in &lines {
                let _ = self.write_str(l);
            }
        }
        for r in engine.trace_log().records() {
            let _ = writeln!(self, "{}", TraceLog::render(r));
        }
        if engine.registry().is_enabled() {
            let _ = self.write_str(&snapshot_to_csv(&engine.registry().snapshot()));
        }
    }

    /// Did both runs record their observations in the same order?
    pub fn same_order(&self, other: &Digest) -> bool {
        self.order == other.order
    }

    pub fn add<T: std::fmt::Debug>(&mut self, label: &str, v: T) {
        let _ = writeln!(self, "{label} {v:?}");
    }
}

/// Run the engine to `until` in [`STEP`]s, timing each one. A shorter
/// last step counts towards the wall time but not the step samples.
pub fn step_to(engine: &mut Engine, until: SimTime, steps_ms: &mut Vec<f64>) {
    while engine.now() < until {
        let next = (engine.now() + STEP).min(until);
        let full = next - engine.now() == STEP;
        let t0 = Instant::now();
        trace::span("netsim", "step", || engine.run_until(next));
        if full {
            steps_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        crate::calib::tick();
    }
}

/// Removal times after one kill, as the harness measures them.
pub struct Removals {
    /// Simulated seconds from the kill to each survivor's first removal
    /// record, in observer order.
    pub delays_s: Vec<f64>,
    /// Seconds from the kill to the last removal record by anyone (an
    /// observer may remove the victim more than once).
    pub last_s: f64,
    pub survivors: usize,
}

impl Removals {
    pub fn first(&self) -> f64 {
        self.delays_s.iter().copied().fold(f64::NAN, f64::min)
    }

    pub fn last(&self) -> f64 {
        self.last_s
    }
}

/// Every survivor's first removal record of `victim` at or after
/// `kill_at` (the survivors are the hosts alive now, minus the victim).
pub fn removals(engine: &Engine, victim: HostId, kill_at: SimTime) -> Removals {
    let subject = NodeId(victim.0);
    let n = engine.topology().num_hosts();
    let mut first: Vec<Option<SimTime>> = vec![None; n];
    let mut last = None;
    for o in engine.stats().observations() {
        if o.time >= kill_at
            && o.observer != victim
            && o.kind == tamp_netsim::ObservationKind::Removed(subject)
        {
            let slot = &mut first[o.observer.index()];
            if slot.is_none() {
                *slot = Some(o.time);
            }
            last = Some(o.time);
        }
    }
    let survivors = (0..n)
        .filter(|&i| i != victim.index() && engine.is_alive(HostId(i as u32)))
        .count();
    Removals {
        delays_s: first
            .iter()
            .flatten()
            .map(|&t| (t - kill_at) as f64 / 1e9)
            .collect(),
        last_s: last.map_or(f64::NAN, |t| (t - kill_at) as f64 / 1e9),
        survivors,
    }
}

/// Kill `victim` right after its next heartbeat (the worst-case
/// alignment the A9 pipeline uses), then watch for `watch`. Returns the
/// removal records.
pub fn probe_kill(
    engine: &mut Engine,
    victim: HostId,
    watch: SimTime,
    steps_ms: &mut Vec<f64>,
) -> Removals {
    probe_kills(engine, &[victim], watch, steps_ms).remove(0)
}

/// [`probe_kill`] for several victims: each is killed right after its
/// own next heartbeat, in order, and the watch starts after the last
/// kill. One removal record per victim, relative to its own kill.
pub fn probe_kills(
    engine: &mut Engine,
    victims: &[HostId],
    watch: SimTime,
    steps_ms: &mut Vec<f64>,
) -> Vec<Removals> {
    let mut kills = Vec::with_capacity(victims.len());
    for &victim in victims {
        let base = engine.stats().host(victim).sent_pkts;
        while engine.stats().host(victim).sent_pkts == base {
            trace::span("netsim", "step", || engine.run_for(10 * MILLIS));
        }
        let kill_at = engine.now();
        engine.schedule(kill_at, Control::Kill(victim));
        kills.push(kill_at);
    }
    let end = engine.now() + watch;
    step_to(engine, end, steps_ms);
    victims
        .iter()
        .zip(kills)
        .map(|(&v, at)| removals(engine, v, at))
        .collect()
}

/// Mean first and last removal delay over several probe kills, and
/// every survivor's delay in milliseconds.
pub fn summarize(rems: &[Removals]) -> (f64, f64, Vec<f64>) {
    let firsts: Vec<f64> = rems.iter().map(Removals::first).collect();
    let lasts: Vec<f64> = rems.iter().map(Removals::last).collect();
    let ms = rems
        .iter()
        .flat_map(|r| r.delays_s.iter().map(|s| s * 1e3))
        .collect();
    (mean(&firsts), mean(&lasts), ms)
}

/// The telemetry export a metrics-on run ends with: registry snapshot,
/// CSV and JSONL. Returns the number of series in the snapshot.
pub fn export_telemetry(engine: &Engine, digest: &mut Digest) -> u64 {
    trace::span("telemetry", "export", || {
        let snap = engine.registry().snapshot();
        let csv = snapshot_to_csv(&snap);
        let records: Vec<_> = engine.trace_log().records().cloned().collect();
        let jsonl = events_to_jsonl(&records);
        digest.add("export", (csv.len(), jsonl.len()));
        snap.entries.len() as u64
    })
}

/// Linear-interpolated quantile of unsorted samples (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Record a failed check unless `ok`.
pub fn check(out: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        out.push(what());
    }
}
