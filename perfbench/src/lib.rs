//! End-to-end and per-layer benchmark for the tamp workspace.
//!
//! Two binaries share this library. `perfbench` runs the timed,
//! untraced measurement and prints the end-to-end metrics; with
//! `--alt-paths` it runs the alternate-engine-path report instead.
//! `perfbench-traced` (which installs the counting allocator) runs the
//! workload once untraced and once with every actor wrapped in a timing
//! span, checks that both runs and a library-built run agree, and
//! prints the per-layer metrics. See `perfbench/NOTES.md`.

mod a9;
mod calib;
mod churn;
mod common;
mod load;
mod paper;
mod report;
pub mod trace;

use common::{Opts, Outcome};

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    A9,
    ChurnRing,
    Load3dc,
    PaperFigs,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::A9,
        Workload::ChurnRing,
        Workload::Load3dc,
        Workload::PaperFigs,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::A9 => "a9-n3920",
            Workload::ChurnRing => "churn-ring",
            Workload::Load3dc => "load-3dc",
            Workload::PaperFigs => "paper-figs",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One repetition: set up, run the simulated horizon, check.
    fn run(self, o: &Opts) -> Outcome {
        match self {
            Workload::A9 => a9::run(o),
            Workload::ChurnRing => churn::run(o),
            Workload::Load3dc => load::run(o),
            Workload::PaperFigs => paper::run(o),
        }
    }

    /// Build everything the workload builds, drop it, return the
    /// seconds it took.
    fn setup_only(self, o: &Opts) -> f64 {
        match self {
            Workload::A9 => a9::setup_only(o),
            Workload::ChurnRing => churn::setup_only(o),
            Workload::Load3dc => load::setup_only(o),
            Workload::PaperFigs => paper::setup_only(o),
        }
    }

    /// Compare a rebuilt run with the same cluster built and run by the
    /// library's own entry points.
    fn library_matches(self, o: &Opts, rebuilt: &Outcome) -> Result<(), String> {
        match self {
            Workload::A9 => a9::library_matches(o, rebuilt),
            Workload::ChurnRing => churn::library_matches(o, rebuilt),
            Workload::Load3dc => load::library_matches(o, rebuilt),
            Workload::PaperFigs => paper::library_matches(o, rebuilt),
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    alt_paths: bool,
    out_dir: Option<std::path::PathBuf>,
}

/// The default workload seed; `NOTES.md` names the held-out seed.
const DEFAULT_SEED: u64 = 2005;

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        alt_paths: false,
        out_dir: None,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--alt-paths" => a.alt_paths = true,
            "--out" => a.out_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_none() && !a.alt_paths {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Entry point of both binaries. `traced_binary` is true for the one
/// with the counting allocator, which serves `--trace 1` only.
pub fn main(traced_binary: bool) {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace != traced_binary {
        eprintln!("perfbench: --trace 1 runs in perfbench-traced, --trace 0 in perfbench");
        std::process::exit(2);
    }
    let code = if args.alt_paths {
        report::alt_paths(args.seed)
    } else if args.trace {
        report::traced(&args)
    } else {
        report::timed(&args)
    };
    std::process::exit(code);
}
