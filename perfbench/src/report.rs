//! The three modes of the benchmark: the timed run (end-to-end
//! metrics), the traced run (per-layer metrics) and the alternate-path
//! report. Each prints one JSON object as its last stdout line.

use crate::calib;
use crate::common::{quantile, Opts, Outcome};
use crate::trace::{self, Agg, Recording};
use crate::{Args, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tamp_netsim::{EngineConfig, SchedulerKind, ShardingKind};
use tamp_wire::CodecKind;

/// Setup samples: every repetition gives one, and setup-only builds
/// fill `SETUP_SLICE_S` after each repetition (so the samples see the
/// machine as the repetitions do) and make up at least `MIN_SETUPS`.
/// Every host time of the timed run is scaled by the calibration
/// kernel's speed over the same stretch (see `calib`).
const SETUP_SLICE_S: f64 = 0.25;
const MIN_SETUPS: usize = 5;

/// Layers of the per-layer report, in the order the table prints them.
/// `bench` is the benchmark's own glue: traced wall time no span covers.
const LAYERS: [&str; 14] = [
    "netsim",
    "membership",
    "wire",
    "swim",
    "gossip",
    "alltoall",
    "load",
    "neptune",
    "proxy",
    "telemetry",
    "chaos",
    "topology",
    "setup",
    "bench",
];

/// Layers whose spans are actor callbacks.
const ACTOR_LAYERS: [&str; 7] = [
    "membership",
    "swim",
    "gossip",
    "alltoall",
    "load",
    "neptune",
    "proxy",
];

const MEMBERSHIP_KINDS: [&str; 7] = [
    "heartbeat",
    "update",
    "digest",
    "sync-req",
    "sync-resp",
    "election",
    "dir-exchange",
];

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric {
        name: name.into(),
        unit,
        value,
    });
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A finite number with every digit Rust prints for it.
fn json_num(v: f64) -> String {
    format!("{v:?}")
}

/// Print the result line; returns the exit code (0, or 1 when a metric
/// is not a finite number, which no valid run produces).
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> i32 {
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is {}", bad.name, bad.value);
        return 1;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    0
}

fn print_info(fields: &[(String, String)]) {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"info\": {{{}}}}}", body.join(", "));
}

/// A memory field of this process's status (`VmHWM:` is the peak
/// resident set size, `VmRSS:` the current one), MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn parallelism() -> String {
    std::thread::available_parallelism()
        .map_or_else(|e| format!("unknown ({e})"), |n| n.to_string())
}

fn failed_pct(o: &Outcome) -> f64 {
    100.0 * o.failed as f64 / o.attempted.max(1) as f64
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Mean step time of each run of ten consecutive steps (one simulated
/// second). Heartbeats land in about half of the 100 ms steps of every
/// period, so raw step times are bimodal and their median flips between
/// the two modes; the median of per-second means does not. The 95th
/// percentile of per-second means is the tail: the simulated seconds
/// that carry a stall (an expiry scan, an anti-entropy round, a fault
/// storm). Over raw steps the same percentile lands on single
/// heartbeat-heavy steps and moves with the machine more.
fn per_second(steps_ms: &[f64]) -> Vec<f64> {
    steps_ms
        .chunks_exact(10)
        .map(|c| c.iter().sum::<f64>() / 10.0)
        .collect()
}

/// Setup-only builds for at least `seconds` (at least one), each after
/// a calibration-kernel run, scaled by those runs.
fn setup_slice(w: Workload, o: &Opts, seconds: f64) -> Vec<f64> {
    let win = calib::window();
    let t0 = Instant::now();
    let mut raw = Vec::new();
    loop {
        calib::force();
        raw.push(w.setup_only(o));
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let scale = win.scale();
    raw.iter().map(|s| s * scale).collect()
}

/// `--trace 0`: repeat the workload until the time budget is spent,
/// report medians.
pub fn timed(a: &Args) -> i32 {
    let w = a.workload.expect("parse_args requires a workload");
    let o = Opts {
        seed: a.seed,
        wrap: false,
        tweak: None,
    };
    // The kernel's own pages count in the process's peak; measure them
    // so the reported peak is the workload's alone.
    let rss0 = status_mb("VmRSS:");
    calib::enable();
    let kernel_mb = status_mb("VmRSS:") - rss0;
    let start = Instant::now();
    let mut reps: Vec<Outcome> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut scales: Vec<f64> = Vec::new();
    let mut raw_walls: Vec<f64> = Vec::new();
    let mut rss_mb = f64::NAN;
    loop {
        let win = calib::window();
        let mut r = w.run(&o);
        // Every kernel run of a repetition sits inside its wall interval.
        let wall = r.wall_s - win.spent_s();
        let scale = win.scale();
        raw_walls.push(wall);
        scales.push(scale);
        r.wall_s = wall * scale;
        r.setup_s *= scale;
        for s in &mut r.steps_ms {
            *s *= scale;
        }
        reps.push(r);
        if reps.len() == 1 {
            // Later repetitions reuse the heap the first one grew; the
            // peak after one repetition is the workload's own.
            rss_mb = status_mb("VmHWM:") - kernel_mb;
        }
        setups.push(reps[reps.len() - 1].setup_s);
        setups.extend(setup_slice(w, &o, SETUP_SLICE_S));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / reps.len() as f64 > a.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.extend(setup_slice(w, &o, 0.0));
    }
    let first = &reps[0];
    let mut checks = first.check_failures.clone();
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.digest != first.digest {
            checks.push(format!(
                "repetition {i} digest {} != repetition 0 digest {}",
                r.digest, first.digest
            ));
        }
    }
    let order_varies = reps.iter().any(|r| !r.digest.same_order(&first.digest));
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let steps: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.steps_ms.iter().copied())
        .collect();
    let seconds: Vec<f64> = reps.iter().flat_map(|r| per_second(&r.steps_ms)).collect();

    let mut m = Vec::new();
    metric(&mut m, "setup_s", "s", median(&setups));
    metric(&mut m, "wall_s", "s", median(&walls));
    metric(&mut m, "step_ms_p50", "ms", quantile(&seconds, 0.5));
    metric(&mut m, "step_ms_p95", "ms", quantile(&seconds, 0.95));
    metric(&mut m, "peak_rss_mb", "MB", rss_mb);
    metric(&mut m, "detect_s", "sim_s", first.detect_s);
    metric(&mut m, "converge_s", "sim_s", first.converge_s);
    metric(
        &mut m,
        "bw_bytes_per_node_s",
        "B/sim_s",
        first.bw_bytes_per_node_s,
    );
    metric(&mut m, "req_p50_ms", "sim_ms", first.op_p50_ms);
    metric(&mut m, "req_p99_ms", "sim_ms", first.op_p99_ms);
    metric(&mut m, "goodput_rps", "1/sim_s", first.goodput);

    let mut info = vec![
        ("mode".to_string(), "timed".to_string()),
        ("workload".into(), w.name().into()),
        ("seed".into(), a.seed.to_string()),
        ("available_parallelism".into(), parallelism()),
        ("repetitions".into(), reps.len().to_string()),
        ("wall_s_each".into(), format!("{walls:?}")),
        ("wall_s_unscaled_each".into(), format!("{raw_walls:?}")),
        ("calib_scale_each".into(), format!("{scales:?}")),
        ("calib_kernel_mb".into(), format!("{kernel_mb}")),
        ("setup_samples".into(), setups.len().to_string()),
        ("steps".into(), steps.len().to_string()),
        ("step_seconds".into(), seconds.len().to_string()),
        (
            "step_ms_p95_all_steps".into(),
            format!("{}", quantile(&steps, 0.95)),
        ),
        (
            "step_ms_deciles".into(),
            format!(
                "{:.3?}",
                (1..10)
                    .map(|d| quantile(&steps, d as f64 / 10.0))
                    .collect::<Vec<_>>()
            ),
        ),
        ("failed_ops_pct".into(), format!("{}", failed_pct(first))),
        ("digest".into(), first.digest.to_string()),
        ("observation_order_varies".into(), order_varies.to_string()),
        ("check_failures".into(), format!("{checks:?}")),
    ];
    info.extend(first.notes.iter().cloned());
    print_info(&info);
    print_result(checks.is_empty(), first.attempted, first.failed, &m)
}

/// Totals over every span of `layer` (`n`, `self_ns`, `self_allocs`).
fn layer_sum(spans: &BTreeMap<String, Agg>, layer: &str) -> Agg {
    let prefix = format!("{layer}.");
    let mut sum = Agg::default();
    for a in spans
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(_, a)| a)
    {
        sum.n += a.n;
        sum.self_ns += a.self_ns;
        sum.self_allocs += a.self_allocs;
    }
    sum
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of one traced run. Every name is always present;
/// a layer the workload never enters reads 0.
fn layer_metrics(
    rec: &Recording,
    t: &Outcome,
    traced_total_ns: u64,
    untraced_wall_s: f64,
    total_allocs: (u64, u64),
) -> (Vec<Metric>, Vec<(String, f64)>) {
    let s = &rec.spans;
    let get = |name: &str| s.get(name).copied().unwrap_or_default();
    let count = |name: &str| rec.counts.get(name).copied().unwrap_or(0);
    let secs = |ns: u64| ns as f64 / 1e9;
    let events: u64 = ACTOR_LAYERS.iter().map(|l| layer_sum(s, l).n).sum();
    let timer_fires: u64 = s
        .iter()
        .filter(|(k, _)| k.ends_with(".timer"))
        .map(|(_, a)| a.n)
        .sum();
    let covered: u64 = s.values().map(|a| a.self_ns).sum();
    let glue_ns = traced_total_ns.saturating_sub(covered);
    let covered_allocs: u64 = s.values().map(|a| a.self_allocs).sum();

    let mut m = Vec::new();
    let w = &t.work;
    metric(&mut m, "netsim.deliveries", "count", w.deliveries as f64);
    metric(&mut m, "netsim.sends", "count", w.sends as f64);
    metric(&mut m, "netsim.drops", "count", w.drops as f64);
    metric(&mut m, "netsim.timer_fires", "count", timer_fires as f64);
    let netsim = layer_sum(s, "netsim");
    metric(&mut m, "netsim.self_s", "s", secs(netsim.self_ns));
    metric(
        &mut m,
        "netsim.ns_per_event",
        "ns",
        ratio(netsim.self_ns, events),
    );
    for kind in MEMBERSHIP_KINDS {
        let a = get(&format!("membership.{kind}"));
        metric(&mut m, format!("membership.{kind}_s"), "s", secs(a.self_ns));
        metric(&mut m, format!("membership.{kind}_n"), "count", a.n as f64);
    }
    let timer = get("membership.timer");
    metric(&mut m, "membership.timer_s", "s", secs(timer.self_ns));
    metric(&mut m, "membership.timer_n", "count", timer.n as f64);
    metric(
        &mut m,
        "membership.suspicions_raised",
        "count",
        w.suspicions_raised as f64,
    );
    metric(
        &mut m,
        "membership.suspicions_confirmed",
        "count",
        w.suspicions_confirmed as f64,
    );
    metric(
        &mut m,
        "membership.full_syncs_served",
        "count",
        w.full_syncs_served as f64,
    );
    metric(
        &mut m,
        "membership.backfills_served",
        "count",
        w.backfills_served as f64,
    );
    metric(
        &mut m,
        "membership.suspicion_precision",
        "ratio",
        ratio(w.suspicions_confirmed, w.suspicions_raised),
    );
    metric(
        &mut m,
        "wire.decode_s",
        "s",
        secs(get("wire.decode").self_ns),
    );
    metric(&mut m, "wire.frames", "count", count("wire.frames") as f64);
    metric(&mut m, "wire.bytes", "B", count("wire.bytes") as f64);
    metric(
        &mut m,
        "wire.reject_ratio",
        "ratio",
        ratio(count("wire.rejects"), count("wire.frames")),
    );
    for layer in ["swim", "gossip", "alltoall", "load", "neptune", "proxy"] {
        let sum = layer_sum(s, layer);
        metric(
            &mut m,
            format!("{layer}.callback_s"),
            "s",
            secs(sum.self_ns),
        );
        metric(&mut m, format!("{layer}.callback_n"), "count", sum.n as f64);
    }
    metric(
        &mut m,
        "load.retry_ratio",
        "ratio",
        ratio(w.load_retries, w.load_issued),
    );
    metric(
        &mut m,
        "telemetry.export_s",
        "s",
        secs(layer_sum(s, "telemetry").self_ns),
    );
    metric(
        &mut m,
        "telemetry.series",
        "count",
        w.telemetry_series as f64,
    );
    metric(
        &mut m,
        "chaos.apply_s",
        "s",
        secs(get("chaos.apply").self_ns),
    );
    metric(
        &mut m,
        "chaos.oracle_s",
        "s",
        secs(get("chaos.oracle").self_ns),
    );
    metric(&mut m, "chaos.faults", "count", w.chaos_faults as f64);
    metric(
        &mut m,
        "topology.build_s",
        "s",
        secs(layer_sum(s, "topology").self_ns),
    );
    metric(
        &mut m,
        "setup.templates_s",
        "s",
        secs(get("setup.templates").self_ns),
    );
    metric(
        &mut m,
        "setup.actors_s",
        "s",
        secs(get("setup.actors").self_ns),
    );
    metric(&mut m, "alloc.count", "count", total_allocs.0 as f64);
    metric(&mut m, "alloc.bytes", "B", total_allocs.1 as f64);
    metric(
        &mut m,
        "alloc.per_event",
        "allocs/event",
        ratio(total_allocs.0, events),
    );
    let mut shares = Vec::new();
    for layer in LAYERS {
        let (ns, n_allocs) = if layer == "bench" {
            (glue_ns, total_allocs.0.saturating_sub(covered_allocs))
        } else {
            let sum = layer_sum(s, layer);
            (sum.self_ns, sum.self_allocs)
        };
        let pct = 100.0 * ratio(ns, traced_total_ns);
        metric(
            &mut m,
            format!("alloc.{layer}.count"),
            "count",
            n_allocs as f64,
        );
        metric(&mut m, format!("share.{layer}_pct"), "%", pct);
        shares.push((layer.to_string(), pct));
    }
    metric(&mut m, "bench.glue_s", "s", secs(glue_ns));
    metric(&mut m, "trace.wall_s", "s", t.wall_s);
    metric(&mut m, "trace.untraced_wall_s", "s", untraced_wall_s);
    metric(
        &mut m,
        "trace.overhead_pct",
        "%",
        100.0 * (t.wall_s / untraced_wall_s - 1.0),
    );
    (m, shares)
}

/// Write every span and counter to `<out>/<workload>-seed<seed>-spans.tsv`.
fn write_spans(
    a: &Args,
    w: Workload,
    rec: &Recording,
    total_ns: u64,
) -> std::io::Result<Option<String>> {
    let Some(dir) = &a.out_dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}-spans.tsv", w.name(), a.seed));
    let mut text =
        String::from("span\tcalls\ttotal_ns\tself_ns\tself_pct\tself_allocs\tself_alloc_bytes\n");
    for (k, v) in &rec.spans {
        let _ = writeln!(
            text,
            "{k}\t{}\t{}\t{}\t{:.3}\t{}\t{}",
            v.n,
            v.total_ns,
            v.self_ns,
            100.0 * ratio(v.self_ns, total_ns),
            v.self_allocs,
            v.self_alloc_bytes
        );
    }
    for (k, v) in &rec.counts {
        let _ = writeln!(text, "count:{k}\t{v}\t\t\t\t\t");
    }
    std::fs::write(&path, text)?;
    Ok(Some(path.display().to_string()))
}

/// `--trace 1`: one untraced and one traced repetition, cross-checked
/// against each other and against the library-built run.
pub fn traced(a: &Args) -> i32 {
    let w = a.workload.expect("parse_args requires a workload");
    let plain = Opts {
        seed: a.seed,
        wrap: false,
        tweak: None,
    };
    let u = w.run(&plain);

    trace::enable();
    let allocs0 = trace::alloc_counts();
    let t0 = Instant::now();
    let t = w.run(&Opts {
        wrap: true,
        ..plain
    });
    let total_ns = t0.elapsed().as_nanos() as u64;
    let allocs1 = trace::alloc_counts();
    trace::disable();
    let rec = trace::take();

    let mut checks = u.check_failures.clone();
    checks.extend(t.check_failures.iter().map(|c| format!("traced: {c}")));
    if u.digest != t.digest || u.judged != t.judged {
        checks.push(format!(
            "traced digest {} != untraced digest {}",
            t.digest, u.digest
        ));
    }
    if let Err(e) = w.library_matches(&plain, &t) {
        checks.push(e);
    }
    let (m, shares) = layer_metrics(
        &rec,
        &t,
        total_ns,
        u.wall_s,
        (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
    );
    let self_sum: f64 = shares.iter().map(|(_, p)| p).sum();
    if (self_sum - 100.0).abs() > 1e-6 {
        checks.push(format!(
            "layer self times sum to {self_sum}% of the traced wall"
        ));
    }
    let spans_file = match write_spans(a, w, &rec, total_ns) {
        Ok(p) => p.unwrap_or_default(),
        Err(e) => {
            checks.push(format!("writing spans: {e}"));
            String::new()
        }
    };
    let mut table = String::new();
    for (layer, pct) in &shares {
        let _ = write!(table, "{layer} {pct:.1}%; ");
    }
    let largest = shares
        .iter()
        .filter(|(l, _)| l != "bench")
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .map(|(l, _)| l.clone())
        .unwrap_or_default();
    let mut info = vec![
        ("mode".to_string(), "traced".to_string()),
        ("workload".into(), w.name().into()),
        ("seed".into(), a.seed.to_string()),
        ("available_parallelism".into(), parallelism()),
        (
            "traced_total_s".into(),
            format!("{}", total_ns as f64 / 1e9),
        ),
        ("layer_share_of_traced_wall".into(), table),
        ("largest_layer".into(), largest),
        ("digest".into(), t.digest.to_string()),
        (
            "observation_order_varies".into(),
            (!t.digest.same_order(&u.digest)).to_string(),
        ),
        ("spans_file".into(), spans_file),
        ("failed_ops_pct".into(), format!("{}", failed_pct(&t))),
        ("check_failures".into(), format!("{checks:?}")),
    ];
    info.extend(t.notes.iter().cloned());
    print_info(&info);
    print_result(checks.is_empty(), t.attempted, t.failed, &m)
}

type Tweak = (&'static str, Option<fn(&mut EngineConfig)>);

/// `--alt-paths`: `a9-n3920` and `churn-ring` once under each engine
/// path the public `EngineConfig` can select, with each path's `wall_s`
/// against the workload's own configuration. Not a gated workload.
pub fn alt_paths(seed: u64) -> i32 {
    let a9: [Tweak; 6] = [
        (
            "default (TimerWheel, in-memory, metrics off, Sequential)",
            None,
        ),
        (
            "scheduler=ReferenceHeap",
            Some(|c| c.scheduler = SchedulerKind::ReferenceHeap),
        ),
        (
            "wire_codec=Owned",
            Some(|c| c.wire_codec = Some(CodecKind::Owned)),
        ),
        (
            "wire_codec=Borrowed",
            Some(|c| c.wire_codec = Some(CodecKind::Borrowed)),
        ),
        ("metrics=on", Some(|c| c.metrics = true)),
        (
            "sharding=Sharded(2)",
            Some(|c| c.sharding = ShardingKind::Sharded(2)),
        ),
    ];
    let churn: [Tweak; 6] = [
        (
            "default (TimerWheel, Borrowed, metrics on, Sequential)",
            None,
        ),
        (
            "scheduler=ReferenceHeap",
            Some(|c| c.scheduler = SchedulerKind::ReferenceHeap),
        ),
        ("wire_codec=None", Some(|c| c.wire_codec = None)),
        (
            "wire_codec=Owned",
            Some(|c| c.wire_codec = Some(CodecKind::Owned)),
        ),
        ("metrics=off", Some(|c| c.metrics = false)),
        (
            "sharding=Sharded(2)",
            Some(|c| c.sharding = ShardingKind::Sharded(2)),
        ),
    ];
    println!("available_parallelism {}", parallelism());
    println!("workload\tpath\twall_s\tdelta_vs_default\toutputs");
    let mut all_equal = true;
    for (w, tweaks) in [(Workload::A9, &a9), (Workload::ChurnRing, &churn)] {
        let mut base: Option<Outcome> = None;
        for &(name, tweak) in tweaks.iter() {
            let o = w.run(&Opts {
                seed,
                wrap: false,
                tweak,
            });
            let (delta, same) = match &base {
                None => ("base".to_string(), "base".to_string()),
                Some(b) => {
                    let same = o.attempted == b.attempted
                        && o.failed == b.failed
                        && o.detect_s.to_bits() == b.detect_s.to_bits()
                        && o.bw_bytes_per_node_s.to_bits() == b.bw_bytes_per_node_s.to_bits();
                    let full = o.digest == b.digest;
                    all_equal &= same;
                    (
                        format!(
                            "{:+.1}% (base {:.3} s)",
                            100.0 * (o.wall_s / b.wall_s - 1.0),
                            b.wall_s
                        ),
                        match (same, full) {
                            (true, true) => "identical".to_string(),
                            (true, false) => "same metrics, digest differs".to_string(),
                            _ => "METRICS DIFFER".to_string(),
                        },
                    )
                }
            };
            println!("{}\t{name}\t{:.3}\t{delta}\t{same}", w.name(), o.wall_s);
            if base.is_none() {
                base = Some(o);
            }
        }
    }
    if all_equal {
        0
    } else {
        1
    }
}
