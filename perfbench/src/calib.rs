//! Machine-speed calibration for the timed run.
//!
//! The benchmark runs on a shared host whose speed drifts by tens of
//! percent within seconds, for every program on it alike, and no steal
//! time shows it. Between simulation steps the timed run therefore runs
//! a fixed reference kernel at most every [`PERIOD_S`] of host time and
//! scales each repetition's host times by the kernel's speed over the
//! same repetition. The kernel is a small discrete-event simulation
//! written here, independent of the workspace: a binary-heap event
//! queue dispatching through trait objects to 4096 nodes that keep
//! hash-map views, B-tree route tables and shared records, with
//! allocation on the hot path, followed by random accesses to a table
//! larger than the caches — the kinds of work the simulator does, so a
//! slow host (a busy core sibling or a neighbour filling the memory
//! bus) slows both, while a program change moves only the workload.
//! Reported host times are seconds on a machine where one kernel run
//! takes [`NOMINAL_S`].

use crate::common::quantile;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Host seconds between two kernel runs, at least.
const PERIOD_S: f64 = 0.1;
/// The kernel time the reported host times are scaled to (about what
/// one kernel run takes on the 2-vCPU VM of `NOTES.md`).
pub const NOMINAL_S: f64 = 0.0055;
/// How far the workloads' host time follows the kernel's: fitted per
/// repetition over runs of all four workloads on the 2-vCPU VM, three
/// of them moved as the kernel's time to the power 0.5–0.75 (one at
/// 1.5); at 1 the kernel over-corrects on most. One exponent for all.
const ELASTICITY: f64 = 0.75;
/// Nodes of the kernel's simulation; every 16th is a router.
const NODES: u32 = 4096;
/// Events one kernel run processes (and random table accesses after
/// them).
const EVENTS: usize = 16_000;
/// The memory table: 2^23 words, 64 MiB.
const TABLE_BITS: u32 = 23;

/// (time, node, kind).
type Event = (u64, u32, u8);

trait Node {
    fn on_event(&mut self, now: u64, kind: u8, x: u64, out: &mut Vec<Event>) -> u64;
}

/// A member: a view of up to 256 peers with shared 40-byte records and
/// a short log of recent event times.
struct Peer {
    view: HashMap<u32, (u64, u64, Arc<[u8]>)>,
    log: Vec<u64>,
}

/// A router: a route table and a counter.
struct Router {
    routes: BTreeMap<u32, u32>,
    seen: u64,
}

impl Node for Peer {
    fn on_event(&mut self, now: u64, kind: u8, x: u64, out: &mut Vec<Event>) -> u64 {
        let key = (x >> 7) as u32 & 255;
        let mut acc = 0;
        match kind {
            // Heartbeat: refresh one record, reply later.
            0 => {
                let e = self
                    .view
                    .entry(key)
                    .or_insert_with(|| (0, 0, Arc::from(vec![0u8; 40])));
                e.0 = now;
                e.1 += 1;
                acc += e.2.len() as u64;
                out.push((now + 1000 + (x & 1023), (x >> 20) as u32 % NODES, 1));
            }
            // Update: read a few neighbouring records, log, forward.
            1 => {
                for k in 0..8u32 {
                    if let Some(e) = self.view.get(&(key ^ k)) {
                        acc += e.0 ^ e.1;
                    }
                }
                self.log.push(now);
                if self.log.len() > 64 {
                    self.log.drain(..32);
                }
                let kind = if x & 3 == 0 { 2 } else { 0 };
                out.push((now + 500 + (x & 511), (x >> 24) as u32 % NODES, kind));
            }
            // Digest: collect part of the view.
            _ => {
                let v: Vec<u64> = self.view.values().take(16).map(|e| e.0).collect();
                acc += v.iter().sum::<u64>();
                out.push((now + 2000, (x >> 28) as u32 % NODES, 0));
            }
        }
        acc
    }
}

impl Node for Router {
    fn on_event(&mut self, now: u64, _kind: u8, x: u64, out: &mut Vec<Event>) -> u64 {
        let k = (x >> 9) as u32 & 1023;
        *self.routes.entry(k).or_insert(0) += 1;
        self.seen += 1;
        let (&next, &hits) = self.routes.range(k..).next().expect("k was just inserted");
        out.push((
            now + 300,
            (next.wrapping_mul(2_654_435_761) >> 20) % NODES,
            1,
        ));
        self.seen ^ u64::from(hits)
    }
}

struct Kernel {
    nodes: Vec<Box<dyn Node>>,
    queue: BinaryHeap<Reverse<Event>>,
    out: Vec<Event>,
    /// A table larger than the caches, read and written at random
    /// after the events, so the kernel waits on memory as the larger
    /// workloads do.
    table: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let nodes = (0..NODES)
            .map(|i| -> Box<dyn Node> {
                if i % 16 == 0 {
                    Box::new(Router {
                        routes: BTreeMap::new(),
                        seen: 0,
                    })
                } else {
                    Box::new(Peer {
                        view: HashMap::new(),
                        log: Vec::new(),
                    })
                }
            })
            .collect();
        Kernel {
            nodes,
            queue: BinaryHeap::new(),
            out: Vec::new(),
            table: (0..1u64 << TABLE_BITS).collect(),
        }
    }

    /// One run: the same events from the same start every time. Where
    /// an event goes depends only on the event stream, so the first run
    /// fills the nodes' tables and later runs only update them.
    fn run(&mut self) -> u64 {
        self.queue.clear();
        self.queue
            .extend((0..NODES).map(|i| Reverse((u64::from(i) * 7, i, 0))));
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((t, n, k)) = self.queue.pop().expect("every event schedules one");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(self.nodes[n as usize].on_event(t, k, x, &mut self.out));
            self.queue.extend(self.out.drain(..).map(Reverse));
        }
        let mask = self.table.len() - 1;
        for _ in 0..EVENTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.table[i] = self.table[i].wrapping_add(x);
            acc = acc.wrapping_add(self.table[i.wrapping_mul(31).wrapping_add(7) & mask]);
        }
        acc
    }
}

struct State {
    kernel: Option<Kernel>,
    last: Option<Instant>,
    /// Host seconds of every kernel run, in order.
    runs: Vec<f64>,
    /// Host seconds spent in kernel runs so far.
    spent_s: f64,
}

thread_local! {
    static STATE: RefCell<State> = const {
        RefCell::new(State {
            kernel: None,
            last: None,
            runs: Vec::new(),
            spent_s: 0.0,
        })
    };
}

/// Turn calibration on for this thread (the timed run only) and warm
/// the kernel up.
pub fn enable() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let k = s.kernel.get_or_insert_with(Kernel::new);
        for _ in 0..5 {
            black_box(k.run());
        }
    });
}

/// Run the kernel if calibration is on and [`PERIOD_S`] has passed
/// since the last run. Called between timed steps.
pub fn tick() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let due = !s.last.is_some_and(|l| l.elapsed().as_secs_f64() < PERIOD_S);
        if s.kernel.is_some() && due {
            run_kernel(&mut s);
        }
    });
}

/// Run the kernel now, if calibration is on.
pub fn force() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.kernel.is_some() {
            run_kernel(&mut s);
        }
    });
}

fn run_kernel(s: &mut State) {
    let k = s.kernel.as_mut().expect("checked by the caller");
    let t0 = Instant::now();
    black_box(k.run());
    let end = Instant::now();
    let d = (end - t0).as_secs_f64();
    s.runs.push(d);
    s.spent_s += d;
    s.last = Some(end);
}

/// The kernel runs from here on, for scaling the host times measured
/// over the same stretch.
pub struct Window {
    first: usize,
    spent_s: f64,
}

pub fn window() -> Window {
    STATE.with(|s| {
        let s = s.borrow();
        Window {
            first: s.runs.len(),
            spent_s: s.spent_s,
        }
    })
}

impl Window {
    /// Host seconds spent in kernel runs since the window opened.
    pub fn spent_s(&self) -> f64 {
        STATE.with(|s| s.borrow().spent_s - self.spent_s)
    }

    /// The factor for host times measured since the window opened:
    /// [`NOMINAL_S`] over the median kernel time since then, to the
    /// power [`ELASTICITY`]. Runs the kernel once when it has not run
    /// since.
    pub fn scale(&self) -> f64 {
        if STATE.with(|s| s.borrow().runs.len()) == self.first {
            force();
        }
        let kernel_s = STATE.with(|s| quantile(&s.borrow().runs[self.first..], 0.5));
        (NOMINAL_S / kernel_s).powf(ELASTICITY)
    }
}
