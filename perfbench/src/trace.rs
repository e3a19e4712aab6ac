//! Host-time spans, work counters and the allocation counter of the
//! traced run.
//!
//! Spans are recorded from outside the program: around calls into each
//! crate's public functions and around every `Actor` callback (through
//! [`Timed`]). Each span's self time is its duration minus the time of
//! the spans nested inside it, so the self times of all spans plus the
//! untraced glue add up to the traced wall time. Everything is kept in
//! memory and handed out by [`take`] when the run ends.
//!
//! Recording is off unless [`enable`] was called, which only the traced
//! binary does; the timed binary never wraps an actor, so it pays one
//! relaxed atomic load per top-level span and nothing per event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use tamp_netsim::{Actor, Context, PacketMeta};
use tamp_wire::{codec, CodecKind, Message, MessageView};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` that counts allocations (and reallocations) and the
/// bytes they ask for, then defers to the system allocator. Installed
/// by the traced binary only.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data, so `Relaxed` is enough.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation count and requested bytes so far (both 0 in a binary
/// without [`CountingAlloc`]).
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Turn span recording on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Turn span recording off again.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub n: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub self_alloc_bytes: u64,
}

struct Frame {
    start: Instant,
    allocs: u64,
    bytes: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    spans: HashMap<(&'static str, &'static str), Agg>,
    counts: HashMap<&'static str, u64>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        stack: Vec::with_capacity(16),
        spans: HashMap::with_capacity(256),
        counts: HashMap::with_capacity(16),
    });
}

/// Run `f` inside the span `layer.what` (a plain call when recording is
/// off).
#[inline]
pub fn span<R>(layer: &'static str, what: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    STATE.with(|s| {
        let (allocs, bytes) = alloc_counts();
        s.borrow_mut().stack.push(Frame {
            start: Instant::now(),
            allocs,
            bytes,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
    });
    let r = f();
    let end = Instant::now();
    let (allocs, bytes) = alloc_counts();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let fr = s.stack.pop().expect("span stack underflow");
        let total = end.duration_since(fr.start).as_nanos() as u64;
        let all_allocs = allocs - fr.allocs;
        let all_bytes = bytes - fr.bytes;
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += total;
            parent.child_allocs += all_allocs;
            parent.child_bytes += all_bytes;
        }
        let a = s.spans.entry((layer, what)).or_default();
        a.n += 1;
        a.total_ns += total;
        a.self_ns += total.saturating_sub(fr.child_ns);
        a.self_allocs += all_allocs.saturating_sub(fr.child_allocs);
        a.self_alloc_bytes += all_bytes.saturating_sub(fr.child_bytes);
    });
    r
}

/// Add `n` to the work counter `name` (no-op when recording is off).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        STATE.with(|s| *s.borrow_mut().counts.entry(name).or_default() += n);
    }
}

/// Everything recorded on this thread so far, sorted by name; resets
/// the recorder.
pub struct Recording {
    pub spans: BTreeMap<String, Agg>,
    pub counts: BTreeMap<String, u64>,
}

pub fn take() -> Recording {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.stack.is_empty(), "take() inside an open span");
        let spans = s
            .spans
            .drain()
            .map(|((l, w), a)| (format!("{l}.{w}"), a))
            .collect();
        let counts = s.counts.drain().map(|(k, v)| (k.to_string(), v)).collect();
        Recording { spans, counts }
    })
}

/// Kinds that actors embedding a `MembershipNode` (membership, load
/// generators, providers, proxies) hand to that node.
const MEMBERSHIP_KINDS: [&str; 7] = [
    "heartbeat",
    "update",
    "dir-exchange",
    "sync-req",
    "sync-resp",
    "election",
    "digest",
];

/// Timing wrapper: delegates every callback to the wrapped actor inside
/// a span named after the actor's layer and the message kind.
pub struct Timed {
    inner: Box<dyn Actor>,
    layer: &'static str,
}

impl Timed {
    /// `layer` is the crate the actor comes from (`membership`, `swim`,
    /// `gossip`, `alltoall`, `load`, `neptune`, `proxy`).
    pub fn wrap(inner: Box<dyn Actor>, layer: &'static str) -> Box<dyn Actor> {
        Box::new(Timed { inner, layer })
    }

    /// The span layer for a packet of `kind`: membership traffic goes to
    /// `membership` on every actor that embeds the membership node;
    /// baselines keep their own layer.
    fn packet_layer(&self, kind: &'static str) -> &'static str {
        let embeds_membership = matches!(self.layer, "membership" | "load" | "neptune" | "proxy");
        if embeds_membership && MEMBERSHIP_KINDS.contains(&kind) {
            "membership"
        } else {
            self.layer
        }
    }
}

impl Actor for Timed {
    fn on_start(&mut self, ctx: &mut Context) {
        let inner = &mut self.inner;
        span(self.layer, "start", || inner.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        let kind = msg.kind();
        let layer = self.packet_layer(kind);
        let inner = &mut self.inner;
        span(layer, kind, || inner.on_packet(ctx, meta, msg));
    }

    fn on_packet_view(&mut self, ctx: &mut Context, meta: PacketMeta, view: &MessageView<'_>) {
        let kind = view.kind();
        let layer = self.packet_layer(kind);
        let inner = &mut self.inner;
        span(layer, kind, || inner.on_packet_view(ctx, meta, view));
    }

    /// Mirrors the trait default (which no actor in the workspace
    /// overrides), with the decode and the handler in separate spans.
    fn on_wire_packet(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        bytes: &[u8],
        kind: CodecKind,
    ) {
        count("wire.frames", 1);
        count("wire.bytes", bytes.len() as u64);
        match kind {
            CodecKind::Owned => match span("wire", "decode", || codec::decode(bytes)) {
                Ok(msg) => self.on_packet(ctx, meta, &msg),
                Err(_) => count("wire.rejects", 1),
            },
            CodecKind::Borrowed => match span("wire", "decode", || MessageView::parse(bytes)) {
                Ok(view) => self.on_packet_view(ctx, meta, &view),
                Err(_) => count("wire.rejects", 1),
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        let inner = &mut self.inner;
        span(self.layer, "timer", || inner.on_timer(ctx, token));
    }

    fn on_crash(&mut self) {
        let inner = &mut self.inner;
        span(self.layer, "crash", || inner.on_crash());
    }
}
