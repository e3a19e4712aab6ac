//! The load-generator node: one actor standing in for a slice of the
//! synthetic user population.
//!
//! Like the neptune gateway it embeds a [`MembershipNode`] and routes
//! every request through the live view (resolve replicas, retry on
//! another replica, fall back to the membership proxies when the local
//! DC has none). Unlike the gateway it scales to millions of users by
//! aggregating arrivals into a calendar of fixed-width ticks instead of
//! keeping one timer per user, and it records per-request telemetry
//! (latency histograms, throughput timeline, error taxonomy) instead of
//! per-query vectors.
//!
//! ## Request flow
//!
//! Each user request is the paper's Fig. 1 two-step workflow: one
//! `index` lookup at a uniformly random partition, then one `doc`
//! retrieval at a Zipf-distributed partition (hot documents are hot for
//! everyone). Each step is retried across replicas, then across the
//! proxies, before the request is declared failed.
//!
//! ## Error taxonomy
//!
//! * `errors.routed_to_dead` — an attempt timed out and the target had
//!   already vanished from the view (we raced a failure), or an instance
//!   rejected a request the view said it served.
//! * `errors.timeout` — an attempt timed out while the view still
//!   listed the target (overload or packet loss, not staleness).
//! * `errors.retry_exhausted` — a request ran out of replicas *and*
//!   proxy fallback; this is the only class that fails the request.

use crate::telemetry::LoadTelemetry;
use crate::workload::{ArrivalMode, WorkloadConfig, ZipfSampler};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use tamp_membership::{MembershipConfig, MembershipNode, Probe};
use tamp_netsim::{Actor, Context, Nanos, PacketMeta, MILLIS};
use tamp_proxy::PROXY_SERVICE;
use tamp_telemetry::ProtocolEvent;
use tamp_wire::{Message, NodeId, ServiceRequest, ServiceResponse};

/// Generator tunables.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    pub membership: MembershipConfig,
    pub workload: WorkloadConfig,
    /// Partition counts of the two workflow services.
    pub index_partitions: u16,
    pub doc_partitions: u16,
    /// Per-attempt timeout against a local instance.
    pub request_timeout: Nanos,
    /// Timeout for a proxied (remote DC) attempt.
    pub proxy_timeout: Nanos,
    /// Local replica attempts per step before proxy fallback.
    pub max_local_attempts: u32,
    pub payload_size: usize,
    /// Emit per-request [`ProtocolEvent`]s (off by default: at millions
    /// of users the event log, not the protocol, becomes the workload).
    pub emit_events: bool,
}

impl LoadGenConfig {
    pub fn new(membership: MembershipConfig, workload: WorkloadConfig) -> Self {
        LoadGenConfig {
            membership,
            workload,
            index_partitions: 4,
            doc_partitions: 12,
            request_timeout: 250 * MILLIS,
            proxy_timeout: 2_000 * MILLIS,
            max_local_attempts: 2,
            payload_size: 96,
            emit_events: false,
        }
    }
}

const T_TICK: u64 = 8 << 32;
const T_TIMEOUT: u64 = 9 << 32;
const LOAD_TOKEN_MASK: u64 = !0u64 << 32;

/// One in-flight user request.
#[derive(Debug)]
struct Req {
    started: Nanos,
    /// 0 = index step, 1 = doc step.
    step: u8,
    index_part: u16,
    doc_part: u16,
    attempts: u32,
    tried: Vec<NodeId>,
    /// Proxy fallback used for the *current* step.
    step_used_proxy: bool,
    /// Any step of this request went through a proxy.
    via_proxy: bool,
}

impl Req {
    fn target(&self) -> (&'static str, u16) {
        if self.step == 0 {
            ("index", self.index_part)
        } else {
            ("doc", self.doc_part)
        }
    }
}

/// The load-generator actor.
pub struct LoadGenNode {
    cfg: LoadGenConfig,
    me: NodeId,
    inner: MembershipNode,
    telemetry: LoadTelemetry,
    zipf: ZipfSampler,
    /// Private workload stream, decoupled from the engine's entropy so
    /// routing jitter never changes which partitions users ask for.
    rng: StdRng,
    warmed: bool,
    /// Arrival process seeded (one-shot after warm-up).
    started: bool,
    /// Closed loop: tick → number of users whose think time expires then.
    calendar: BTreeMap<u32, u32>,
    /// Open loop: (first tick after warm-up, requests issued so far).
    open_base: Option<(u32, u64)>,
    reqs: HashMap<u32, Req>,
    next_serial: u32,
    next_seq: u32,
    /// Attempt seq → (owning request, target, was a proxy attempt).
    inflight: HashMap<u32, (u32, NodeId, bool)>,
    crashed: bool,
}

impl LoadGenNode {
    pub fn new(me: NodeId, cfg: LoadGenConfig, telemetry: LoadTelemetry) -> Self {
        let inner = MembershipNode::new(me, cfg.membership.clone());
        let zipf = ZipfSampler::from_skew(cfg.doc_partitions, cfg.workload.skew);
        let rng = StdRng::seed_from_u64(
            cfg.workload
                .seed
                .wrapping_add((me.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        LoadGenNode {
            me,
            inner,
            telemetry,
            zipf,
            rng,
            warmed: false,
            started: false,
            calendar: BTreeMap::new(),
            open_base: None,
            reqs: HashMap::new(),
            next_serial: 0,
            next_seq: 0,
            inflight: HashMap::new(),
            crashed: false,
            cfg,
        }
    }

    pub fn directory_client(&self) -> tamp_directory::DirectoryClient {
        self.inner.directory_client()
    }

    /// Introspection handle (leader votes for chaos target resolution).
    pub fn probe(&self) -> Probe {
        self.inner.probe()
    }

    /// One-way latch: true once the view lists every service partition a
    /// request could touch. Later failures must not re-gate arrivals.
    fn warmed_up(&mut self) -> bool {
        if self.warmed {
            return true;
        }
        let client = self.inner.directory_client();
        self.warmed = (0..self.cfg.index_partitions)
            .all(|p| !client.resolve("index", p).is_empty())
            && (0..self.cfg.doc_partitions).all(|p| !client.resolve("doc", p).is_empty());
        self.warmed
    }

    /// First warm tick: seed the arrival process.
    fn begin(&mut self, tick: u32) {
        match self.cfg.workload.mode {
            ArrivalMode::Closed => {
                // Users start mid-think: each first arrival is a residual
                // think time drawn from the *equilibrium* distribution of
                // the U[m/2, 3m/2) think process — uniform below m/2, a
                // triangular tail above. Starting from the stationary
                // phase keeps the offered rate flat from the first tick
                // (a uniform spread over one window under-fills the tail
                // and ramps ~10% high before mixing). f64 sqrt is
                // IEEE-correctly-rounded, so the draws stay bit-stable.
                let m = self.cfg.workload.think_mean.max(1) as f64;
                let (a, b) = (m / 2.0, 1.5 * m);
                let tick_ns = self.cfg.workload.tick;
                for _ in 0..self.cfg.workload.users {
                    let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let r = if u < 0.5 {
                        2.0 * u * a
                    } else {
                        b - (b - a) * (2.0 - 2.0 * u).sqrt()
                    };
                    let off = (r as u64 / tick_ns) as u32;
                    *self.calendar.entry(tick + 1 + off).or_insert(0) += 1;
                }
            }
            ArrivalMode::Open => self.open_base = Some((tick, 0)),
        }
    }

    /// Arrivals due at `tick`.
    fn due_now(&mut self, tick: u32) -> u64 {
        match self.cfg.workload.mode {
            ArrivalMode::Closed => u64::from(self.calendar.remove(&tick).unwrap_or(0)),
            ArrivalMode::Open => {
                let Some((base, issued)) = self.open_base else {
                    return 0;
                };
                // Deterministic integer arrival schedule at the
                // population's steady rate, independent of completions.
                let elapsed = u128::from(tick - base);
                let target = elapsed
                    * u128::from(self.cfg.workload.users)
                    * u128::from(self.cfg.workload.tick)
                    / u128::from(self.cfg.workload.think_mean.max(1));
                let due = (target.min(u128::from(u64::MAX)) as u64).saturating_sub(issued);
                self.open_base = Some((base, issued + due));
                due
            }
        }
    }

    fn start_request(&mut self, ctx: &mut Context) {
        self.next_serial += 1;
        let serial = self.next_serial;
        let index_part = (self.rng.next_u64() % u64::from(self.cfg.index_partitions)) as u16;
        let doc_part = self.zipf.sample(&mut self.rng);
        ctx.count("load", "issued", 1);
        if self.cfg.emit_events {
            ctx.emit(ProtocolEvent::RequestIssued {
                partition: doc_part,
            });
        }
        self.reqs.insert(
            serial,
            Req {
                started: ctx.now(),
                step: 0,
                index_part,
                doc_part,
                attempts: 0,
                tried: Vec::new(),
                step_used_proxy: false,
                via_proxy: false,
            },
        );
        self.dispatch(ctx, serial);
    }

    /// Route the current step of `serial`: next untried replica, proxy
    /// fallback, or fail the request.
    fn dispatch(&mut self, ctx: &mut Context, serial: u32) {
        let Some(req) = self.reqs.get(&serial) else {
            return;
        };
        let (service, partition) = req.target();
        let mut candidates = self.inner.resolve_service(service, partition);
        candidates.retain(|n| !req.tried.contains(n));

        if !candidates.is_empty() && req.attempts < self.cfg.max_local_attempts {
            let i = (self.rng.next_u64() % candidates.len() as u64) as usize;
            let target = candidates[i];
            self.send_attempt(ctx, serial, target, service, partition, false);
            return;
        }

        // Proxy fallback (paper Fig. 6): route the step through a local
        // membership proxy to a remote data center.
        if !req.step_used_proxy {
            let proxies = self
                .inner
                .directory_client()
                .lookup_service(PROXY_SERVICE, "")
                .unwrap_or_default();
            if !proxies.is_empty() {
                let i = (self.rng.next_u64() % proxies.len() as u64) as usize;
                let proxy = proxies[i].node;
                self.reqs.get_mut(&serial).unwrap().step_used_proxy = true;
                self.send_attempt(ctx, serial, proxy, service, partition, true);
                return;
            }
        }
        self.fail_request(ctx, serial);
    }

    fn send_attempt(
        &mut self,
        ctx: &mut Context,
        serial: u32,
        target: NodeId,
        service: &str,
        partition: u16,
        proxied: bool,
    ) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let id = ((self.me.0 as u64) << 32) | u64::from(seq);
        let req = self.reqs.get_mut(&serial).unwrap();
        if !proxied {
            req.attempts += 1;
            req.tried.push(target);
        }
        self.inflight.insert(seq, (serial, target, proxied));
        ctx.send_unicast(
            target,
            Message::ServiceRequest(ServiceRequest {
                id,
                from: self.me,
                service: service.to_string(),
                partition,
                payload: vec![0u8; self.cfg.payload_size],
                hops_left: if proxied { 2 } else { 0 },
            }),
        );
        let timeout = if proxied {
            self.cfg.proxy_timeout
        } else {
            self.cfg.request_timeout
        };
        ctx.set_timer(timeout, T_TIMEOUT | u64::from(seq));
    }

    fn handle_response(&mut self, ctx: &mut Context, r: &ServiceResponse) {
        let seq = (r.id & 0xffff_ffff) as u32;
        let Some((serial, _target, proxied)) = self.inflight.remove(&seq) else {
            return; // Late response to a timed-out attempt.
        };
        let Some(req) = self.reqs.get_mut(&serial) else {
            return;
        };
        if r.ok {
            if proxied {
                req.via_proxy = true;
            }
            if req.step == 0 {
                // Index step done; start the doc step fresh.
                req.step = 1;
                req.attempts = 0;
                req.tried.clear();
                req.step_used_proxy = false;
                self.dispatch(ctx, serial);
            } else {
                self.complete_request(ctx, serial);
            }
        } else {
            // The view routed us somewhere that could not serve.
            ctx.count("load", "errors.routed_to_dead", 1);
            self.dispatch(ctx, serial);
        }
    }

    fn handle_timeout(&mut self, ctx: &mut Context, seq: u32) {
        let Some((serial, target, proxied)) = self.inflight.remove(&seq) else {
            return; // Attempt already answered.
        };
        let Some(req) = self.reqs.get(&serial) else {
            return;
        };
        let (service, partition) = req.target();
        // Classify: stale view (target already dropped) vs plain
        // timeout (target still believed alive: loss or overload).
        let stale = !proxied
            && !self
                .inner
                .resolve_service(service, partition)
                .contains(&target);
        if stale {
            ctx.count("load", "errors.routed_to_dead", 1);
        } else {
            ctx.count("load", "errors.timeout", 1);
        }
        self.dispatch(ctx, serial);
    }

    fn complete_request(&mut self, ctx: &mut Context, serial: u32) {
        let Some(req) = self.reqs.remove(&serial) else {
            return;
        };
        let now = ctx.now();
        let latency = now - req.started;
        ctx.count("load", "completed", 1);
        if req.via_proxy {
            ctx.count("load", "proxied", 1);
        }
        self.telemetry
            .record_completion(now, req.doc_part, latency, req.via_proxy);
        if self.cfg.emit_events {
            ctx.emit(ProtocolEvent::RequestCompleted {
                partition: req.doc_part,
                latency_us: (latency / 1_000).min(u64::from(u32::MAX)) as u32,
            });
        }
        if self.cfg.workload.mode == ArrivalMode::Closed {
            self.schedule_rearrival(now);
        }
    }

    fn fail_request(&mut self, ctx: &mut Context, serial: u32) {
        let Some(req) = self.reqs.remove(&serial) else {
            return;
        };
        let now = ctx.now();
        ctx.count("load", "failed", 1);
        ctx.count("load", "errors.retry_exhausted", 1);
        self.telemetry.record_failure(now);
        if self.cfg.emit_events {
            ctx.emit(ProtocolEvent::RequestFailed {
                partition: req.doc_part,
                reason: "retry-exhausted",
            });
        }
        // A failed user thinks and retries too (the page got an error).
        if self.cfg.workload.mode == ArrivalMode::Closed {
            self.schedule_rearrival(now);
        }
    }

    /// Closed loop: after a response the user thinks, then comes back.
    fn schedule_rearrival(&mut self, now: Nanos) {
        let mean = self.cfg.workload.think_mean.max(1);
        // Uniform in [mean/2, 3·mean/2): same mean, cheap, deterministic.
        let think = mean / 2 + self.rng.next_u64() % mean;
        let tick = ((now + think) / self.cfg.workload.tick + 1).min(u64::from(u32::MAX)) as u32;
        *self.calendar.entry(tick).or_insert(0) += 1;
    }
}

impl Actor for LoadGenNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            // A real crash loses the user population's state; ramp up
            // again from scratch.
            self.crashed = false;
            self.warmed = false;
            self.started = false;
            self.calendar.clear();
            self.open_base = None;
            self.reqs.clear();
            self.inflight.clear();
        }
        self.inner.on_start(ctx);
        let tick_ns = self.cfg.workload.tick;
        let next = ctx.now() / tick_ns + 1;
        ctx.set_timer(next * tick_ns - ctx.now(), T_TICK | (next & 0xffff_ffff));
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        self.inner.on_crash();
    }

    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        match msg {
            Message::ServiceResponse(r) => self.handle_response(ctx, r),
            Message::ServiceRequest(_) => {}
            other => self.inner.on_packet(ctx, meta, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        if token & LOAD_TOKEN_MASK == 0 {
            return self.inner.on_timer(ctx, token);
        }
        match token & LOAD_TOKEN_MASK {
            T_TICK => {
                let tick = (token & 0xffff_ffff) as u32;
                ctx.set_timer(
                    self.cfg.workload.tick,
                    T_TICK | u64::from(tick.wrapping_add(1)),
                );
                if !self.warmed_up() {
                    return;
                }
                if !self.started {
                    self.started = true;
                    self.begin(tick);
                }
                let due = self.due_now(tick);
                for _ in 0..due {
                    self.start_request(ctx);
                }
            }
            T_TIMEOUT => self.handle_timeout(ctx, (token & 0xffff_ffff) as u32),
            _ => {}
        }
    }
}
