//! Consumer gateway: the Neptune consumer module.
//!
//! A gateway turns each incoming user query into a multi-step workflow
//! over internal services (paper Fig. 1: contact an index partition,
//! then the document partitions). Each step is routed with the yellow
//! pages: pick an instance per partition, balance load by random polling
//! \[20\], shield failures by retrying on another replica, and — when no
//! local instance exists — fail over to a remote data center through the
//! membership proxies (paper Fig. 6).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::{Actor, Context, Nanos, PacketMeta, MILLIS};
use tamp_proxy::PROXY_SERVICE;
use tamp_wire::{Message, NodeId, ServiceRequest, ServiceResponse};

use crate::provider::POLL_PAYLOAD;

/// How a step addresses its service's partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Contact one randomly chosen partition (e.g. a cache shard).
    PickOne,
    /// Contact every partition in parallel and wait for all of them —
    /// the paper's Fig. 1 document-retrieval flow, where the gateway
    /// "contacts the document server partitions" (plural).
    AllPartitions,
}

/// One workflow step: call `service` on one or all of its
/// `partition_count` partitions.
#[derive(Debug, Clone)]
pub struct Step {
    pub service: String,
    pub partition_count: u16,
    pub payload_size: usize,
    pub mode: StepMode,
}

impl Step {
    /// A pick-one-partition step.
    pub fn new(service: impl Into<String>, partition_count: u16) -> Self {
        Step {
            service: service.into(),
            partition_count,
            payload_size: 96,
            mode: StepMode::PickOne,
        }
    }

    /// A fan-out step contacting every partition in parallel.
    pub fn fanout(service: impl Into<String>, partition_count: u16) -> Self {
        Step {
            mode: StepMode::AllPartitions,
            ..Step::new(service, partition_count)
        }
    }
}

/// An ordered list of steps executed per query.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    pub steps: Vec<Step>,
}

impl Workflow {
    /// The paper's search engine, simplified: one index lookup, one
    /// document retrieval (Fig. 1 steps 2–3).
    pub fn search_engine() -> Self {
        Workflow {
            steps: vec![Step::new("index", 2), Step::new("doc", 3)],
        }
    }

    /// The paper's search engine with full document fan-out: the gateway
    /// queries one index partition, then *all three* document partitions
    /// in parallel (Fig. 1 exactly).
    pub fn search_engine_fanout() -> Self {
        Workflow {
            steps: vec![Step::new("index", 2), Step::fanout("doc", 3)],
        }
    }
}

/// Instance selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Uniform random replica choice.
    Random,
    /// Random polling \[20\]: probe two random replicas for queue
    /// length, dispatch to the shorter queue.
    PollTwo,
}

/// Gateway tunables.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    pub membership: MembershipConfig,
    pub workflow: Workflow,
    /// Open-loop query inter-arrival time (0 disables generation; use
    /// [`GatewayNode`] handles to drive manually in tests).
    pub arrival_period: Nanos,
    /// Per-attempt timeout against a local instance.
    pub request_timeout: Nanos,
    /// Timeout for a proxied (remote DC) attempt.
    pub proxy_timeout: Nanos,
    /// Local replica attempts before falling back to the proxies.
    pub max_local_attempts: u32,
    pub lb: LoadBalance,
    /// How long to wait for poll answers before dispatching anyway.
    pub poll_timeout: Nanos,
}

impl GatewayConfig {
    pub fn new(membership: MembershipConfig, workflow: Workflow, arrival_period: Nanos) -> Self {
        GatewayConfig {
            membership,
            workflow,
            arrival_period,
            request_timeout: 500 * MILLIS,
            proxy_timeout: 2_000 * MILLIS,
            max_local_attempts: 2,
            lb: LoadBalance::Random,
            poll_timeout: 50 * MILLIS,
        }
    }
}

/// What the gateway measured; read it from the harness via
/// [`GatewayNode::metrics`].
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    pub issued: u64,
    /// `(completion_time, latency)` per successful query.
    pub completed: Vec<(Nanos, Nanos)>,
    /// Completion times of failed queries.
    pub failed: Vec<Nanos>,
    /// Successful queries that needed a remote data center.
    pub remote_served: u64,
}

impl GatewayMetrics {
    /// Mean latency of queries completing within `[from, to)`.
    pub fn mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let window: Vec<Nanos> = self
            .completed
            .iter()
            .filter(|(t, _)| (from..to).contains(t))
            .map(|&(_, l)| l)
            .collect();
        if window.is_empty() {
            None
        } else {
            Some(window.iter().sum::<Nanos>() / window.len() as u64)
        }
    }

    /// Completed-query count within `[from, to)`.
    pub fn throughput_in(&self, from: Nanos, to: Nanos) -> usize {
        self.completed
            .iter()
            .filter(|(t, _)| (from..to).contains(t))
            .count()
    }
}

pub type MetricsHandle = Arc<Mutex<GatewayMetrics>>;

const T_ARRIVE: u64 = 6 << 32;
const T_TIMEOUT: u64 = 7 << 32;
const GW_TOKEN_MASK: u64 = !0u64 << 32;

#[derive(Debug)]
enum Phase {
    /// Poll probes outstanding; collecting queue lengths.
    Polling {
        outstanding: u32,
        best: Option<(NodeId, u32)>,
    },
    /// Real request outstanding.
    Waiting,
    /// This sub-query already succeeded.
    Done,
}

/// One partition's progress within the current step.
#[derive(Debug)]
struct SubQuery {
    partition: u16,
    attempts: u32,
    tried: Vec<NodeId>,
    used_proxy: bool,
    phase: Phase,
}

#[derive(Debug)]
struct Query {
    started: Nanos,
    step: usize,
    subs: Vec<SubQuery>,
    /// Did any sub-query of any step go through the proxies?
    used_proxy: bool,
    /// Request sequence numbers still owned by this query.
    live_reqs: Vec<u32>,
}

/// A protocol-gateway node: generates queries and routes workflow steps.
pub struct GatewayNode {
    cfg: GatewayConfig,
    me: NodeId,
    inner: MembershipNode,
    metrics: MetricsHandle,
    queries: HashMap<u64, Query>,
    next_query: u64,
    next_req: u32,
    /// Request seq → (owning query, sub-query index).
    inflight: HashMap<u32, (u64, usize)>,
    /// One-way latch: set once the directory first listed every workflow
    /// service+partition. Later *failures* must not re-gate arrivals —
    /// that is exactly when proxy failover earns its keep.
    warmed: bool,
    crashed: bool,
}

impl GatewayNode {
    pub fn new(me: NodeId, cfg: GatewayConfig) -> Self {
        let inner = MembershipNode::new(me, cfg.membership.clone());
        GatewayNode {
            me,
            inner,
            metrics: Arc::new(Mutex::new(GatewayMetrics::default())),
            queries: HashMap::new(),
            next_query: 0,
            next_req: 0,
            inflight: HashMap::new(),
            warmed: false,
            crashed: false,
            cfg,
        }
    }

    pub fn directory_client(&self) -> tamp_directory::DirectoryClient {
        self.inner.directory_client()
    }

    /// Handle to the measurements (shared; clone before boxing).
    pub fn metrics(&self) -> MetricsHandle {
        Arc::clone(&self.metrics)
    }

    fn new_req_id(&mut self) -> (u32, u64) {
        self.next_req += 1;
        let seq = self.next_req;
        (seq, ((self.me.0 as u64) << 32) | seq as u64)
    }

    /// True once the directory lists at least one instance for every
    /// (service, partition) a query could touch.
    fn warmed_up(&mut self) -> bool {
        if self.warmed {
            return true;
        }
        let client = self.inner.directory_client();
        self.warmed = self
            .cfg
            .workflow
            .steps
            .iter()
            .all(|s| (0..s.partition_count).all(|p| !client.resolve(&s.service, p).is_empty()));
        self.warmed
    }

    fn start_query(&mut self, ctx: &mut Context) {
        self.next_query += 1;
        let qid = self.next_query;
        self.metrics.lock().issued += 1;
        self.queries.insert(
            qid,
            Query {
                started: ctx.now(),
                step: 0,
                subs: Vec::new(),
                used_proxy: false,
                live_reqs: Vec::new(),
            },
        );
        self.begin_step(ctx, qid);
    }

    fn begin_step(&mut self, ctx: &mut Context, qid: u64) {
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        let step = self.cfg.workflow.steps[q.step].clone();
        q.subs = match step.mode {
            StepMode::PickOne => {
                let p = ctx.rand_below(step.partition_count as u64) as u16;
                vec![SubQuery {
                    partition: p,
                    attempts: 0,
                    tried: Vec::new(),
                    used_proxy: false,
                    phase: Phase::Waiting,
                }]
            }
            StepMode::AllPartitions => (0..step.partition_count)
                .map(|p| SubQuery {
                    partition: p,
                    attempts: 0,
                    tried: Vec::new(),
                    used_proxy: false,
                    phase: Phase::Waiting,
                })
                .collect(),
        };
        let n_subs = self.queries[&qid].subs.len();
        for sub in 0..n_subs {
            self.dispatch(ctx, qid, sub);
        }
    }

    /// Route one sub-query: local replica, proxy fallback, or fail the
    /// whole query.
    fn dispatch(&mut self, ctx: &mut Context, qid: u64, sub: usize) {
        let Some(q) = self.queries.get(&qid) else {
            return;
        };
        let step = self.cfg.workflow.steps[q.step].clone();
        let s = &q.subs[sub];
        let mut candidates = self.inner.resolve_service(&step.service, s.partition);
        candidates.retain(|n| !s.tried.contains(n));

        let local_exhausted = candidates.is_empty() || s.attempts >= self.cfg.max_local_attempts;
        if !local_exhausted {
            match self.cfg.lb {
                LoadBalance::Random => {
                    let i = ctx.rand_below(candidates.len() as u64) as usize;
                    self.send_real(ctx, qid, sub, candidates[i], &step);
                }
                LoadBalance::PollTwo => {
                    if candidates.len() == 1 {
                        self.send_real(ctx, qid, sub, candidates[0], &step);
                    } else {
                        self.send_polls(ctx, qid, sub, &candidates);
                    }
                }
            }
            return;
        }

        // Proxy fallback (Fig. 6 step 1): ask a local membership proxy.
        let q = self.queries.get(&qid).unwrap();
        if !q.subs[sub].used_proxy {
            let proxies: Vec<NodeId> = self
                .inner
                .directory_client()
                .lookup_service(PROXY_SERVICE, "")
                .unwrap_or_default()
                .into_iter()
                .map(|m| m.node)
                .collect();
            if !proxies.is_empty() {
                let i = ctx.rand_below(proxies.len() as u64) as usize;
                let proxy = proxies[i];
                let (seq, id) = self.new_req_id();
                let q = self.queries.get_mut(&qid).unwrap();
                let s = &mut q.subs[sub];
                s.used_proxy = true;
                s.phase = Phase::Waiting;
                let partition = s.partition;
                q.used_proxy = true;
                q.live_reqs.push(seq);
                self.inflight.insert(seq, (qid, sub));
                ctx.send_unicast(
                    proxy,
                    Message::ServiceRequest(ServiceRequest {
                        id,
                        from: self.me,
                        service: step.service.clone(),
                        partition,
                        payload: vec![0u8; step.payload_size],
                        hops_left: 2,
                    }),
                );
                ctx.set_timer(self.cfg.proxy_timeout, T_TIMEOUT | seq as u64);
                return;
            }
        }
        self.fail_query(ctx, qid);
    }

    fn send_real(&mut self, ctx: &mut Context, qid: u64, sub: usize, target: NodeId, step: &Step) {
        let (seq, id) = self.new_req_id();
        let q = self.queries.get_mut(&qid).unwrap();
        let s = &mut q.subs[sub];
        s.attempts += 1;
        s.tried.push(target);
        s.phase = Phase::Waiting;
        let partition = s.partition;
        q.live_reqs.push(seq);
        self.inflight.insert(seq, (qid, sub));
        ctx.send_unicast(
            target,
            Message::ServiceRequest(ServiceRequest {
                id,
                from: self.me,
                service: step.service.clone(),
                partition,
                payload: vec![0u8; step.payload_size],
                hops_left: 0,
            }),
        );
        ctx.set_timer(self.cfg.request_timeout, T_TIMEOUT | seq as u64);
    }

    fn send_polls(&mut self, ctx: &mut Context, qid: u64, sub: usize, candidates: &[NodeId]) {
        // Probe two distinct random replicas.
        let mut pool = candidates.to_vec();
        let mut picks = Vec::new();
        for _ in 0..2.min(pool.len()) {
            let i = ctx.rand_below(pool.len() as u64) as usize;
            picks.push(pool.swap_remove(i));
        }
        let q = self.queries.get_mut(&qid).unwrap();
        q.subs[sub].phase = Phase::Polling {
            outstanding: picks.len() as u32,
            best: None,
        };
        for target in picks {
            let (seq, id) = self.new_req_id();
            let q = self.queries.get_mut(&qid).unwrap();
            q.live_reqs.push(seq);
            self.inflight.insert(seq, (qid, sub));
            ctx.send_unicast(
                target,
                Message::ServiceRequest(ServiceRequest {
                    id,
                    from: self.me,
                    service: String::new(),
                    partition: 0,
                    payload: POLL_PAYLOAD.to_vec(),
                    hops_left: 0,
                }),
            );
            ctx.set_timer(self.cfg.poll_timeout, T_TIMEOUT | seq as u64);
        }
    }

    fn fail_query(&mut self, ctx: &mut Context, qid: u64) {
        if let Some(q) = self.queries.remove(&qid) {
            for seq in q.live_reqs {
                self.inflight.remove(&seq);
            }
            self.metrics.lock().failed.push(ctx.now());
        }
    }

    /// One sub-query finished; advance the step / query when all have.
    fn sub_done(&mut self, ctx: &mut Context, qid: u64, sub: usize) {
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.subs[sub].phase = Phase::Done;
        if !q.subs.iter().all(|s| matches!(s.phase, Phase::Done)) {
            return;
        }
        q.step += 1;
        if q.step >= self.cfg.workflow.steps.len() {
            let q = self.queries.remove(&qid).unwrap();
            for seq in q.live_reqs {
                self.inflight.remove(&seq);
            }
            let now = ctx.now();
            let mut m = self.metrics.lock();
            m.completed.push((now, now - q.started));
            if q.used_proxy {
                m.remote_served += 1;
            }
        } else {
            self.begin_step(ctx, qid);
        }
    }

    fn handle_response(&mut self, ctx: &mut Context, r: &ServiceResponse) {
        let seq = (r.id & 0xffff_ffff) as u32;
        let Some(&(qid, sub)) = self.inflight.get(&seq) else {
            return;
        };
        self.inflight.remove(&seq);
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.live_reqs.retain(|&s| s != seq);

        match &mut q.subs[sub].phase {
            Phase::Polling { outstanding, best } => {
                if r.ok && r.payload.len() >= 4 {
                    let queue = u32::from_le_bytes([
                        r.payload[0],
                        r.payload[1],
                        r.payload[2],
                        r.payload[3],
                    ]);
                    if best.is_none_or(|(_, b)| queue < b) {
                        *best = Some((r.from, queue));
                    }
                }
                *outstanding -= 1;
                if *outstanding == 0 {
                    let choice = best.map(|(n, _)| n);
                    let step = self.cfg.workflow.steps[q.step].clone();
                    match choice {
                        Some(target) => self.send_real(ctx, qid, sub, target, &step),
                        None => self.dispatch(ctx, qid, sub),
                    }
                }
            }
            Phase::Waiting => {
                if r.ok {
                    self.sub_done(ctx, qid, sub);
                } else {
                    // Rejected (e.g. no remote DC offers the service):
                    // try the next option or give up.
                    self.dispatch(ctx, qid, sub);
                }
            }
            Phase::Done => {}
        }
    }

    fn handle_timeout(&mut self, ctx: &mut Context, seq: u32) {
        let Some(&(qid, sub)) = self.inflight.get(&seq) else {
            return;
        };
        self.inflight.remove(&seq);
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.live_reqs.retain(|&s| s != seq);
        match &mut q.subs[sub].phase {
            Phase::Polling { outstanding, best } => {
                *outstanding = outstanding.saturating_sub(1);
                if *outstanding == 0 {
                    let choice = best.map(|(n, _)| n);
                    let step = self.cfg.workflow.steps[q.step].clone();
                    match choice {
                        Some(target) => self.send_real(ctx, qid, sub, target, &step),
                        None => self.dispatch(ctx, qid, sub),
                    }
                }
            }
            Phase::Waiting => {
                // The attempt died (crashed instance, lost packet):
                // retry on another replica or escalate.
                self.dispatch(ctx, qid, sub);
            }
            Phase::Done => {}
        }
    }
}

impl Actor for GatewayNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            self.crashed = false;
            self.queries.clear();
            self.inflight.clear();
            self.warmed = false;
        }
        self.inner.on_start(ctx);
        if self.cfg.arrival_period > 0 {
            let phase = ctx.jitter(self.cfg.arrival_period);
            ctx.set_timer(phase + self.cfg.arrival_period, T_ARRIVE);
        }
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
        if token & GW_TOKEN_MASK == 0 {
            return self.inner.on_timer(ctx, token);
        }
        match token & GW_TOKEN_MASK {
            T_ARRIVE => {
                if self.warmed_up() {
                    self.start_query(ctx);
                }
                ctx.set_timer(self.cfg.arrival_period, T_ARRIVE);
            }
            T_TIMEOUT => self.handle_timeout(ctx, (token & 0xffff_ffff) as u32),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_windows() {
        let mut m = GatewayMetrics::default();
        m.completed.push((10, 5));
        m.completed.push((20, 15));
        m.completed.push((30, 25));
        assert_eq!(m.throughput_in(0, 25), 2);
        assert_eq!(m.mean_latency_in(0, 25), Some(10));
        assert_eq!(m.mean_latency_in(100, 200), None);
    }

    #[test]
    fn search_workflow_shape() {
        let w = Workflow::search_engine();
        assert_eq!(w.steps.len(), 2);
        assert_eq!(w.steps[0].service, "index");
        assert_eq!(w.steps[0].partition_count, 2);
        assert_eq!(w.steps[1].service, "doc");
        assert_eq!(w.steps[1].partition_count, 3);
        assert_eq!(w.steps[1].mode, StepMode::PickOne);
        let wf = Workflow::search_engine_fanout();
        assert_eq!(wf.steps[1].mode, StepMode::AllPartitions);
    }

    #[test]
    fn req_ids_embed_sender() {
        let mut g = GatewayNode::new(
            NodeId(9),
            GatewayConfig::new(MembershipConfig::default(), Workflow::search_engine(), 0),
        );
        let (seq, id) = g.new_req_id();
        assert_eq!(id >> 32, 9);
        assert_eq!((id & 0xffff_ffff) as u32, seq);
    }
}
