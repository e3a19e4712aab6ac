//! The hierarchical membership protocol state machine.
//!
//! One [`MembershipNode`] runs on every cluster host. It implements, as a
//! sans-io [`Actor`], all the sub-protocols of paper §3.1:
//!
//! * **Topology-aware group formation** — join the level-0 channel with
//!   TTL 1; when elected leader of level `k`, also join level `k+1` with
//!   TTL `k+2`, up to `MAX_TTL`. Group boundaries emerge purely from TTL
//!   scoping, so the tree adapts to the physical topology with zero
//!   configuration.
//! * **Failure detection** — every member independently declares a peer
//!   dead after `MAX_LOSS` heartbeat periods of silence, with larger
//!   timeouts at higher levels.
//! * **Leader election** — sticky bully (lowest id wins, an incumbent is
//!   never deposed by a lower-id newcomer) with a leader-designated
//!   backup for fast takeover.
//! * **Bootstrap** — a joining node pulls the directory from the first
//!   leader it hears, and symmetrically offers its own (it may be a
//!   lower-level leader bringing a subtree).
//! * **Update propagation** — leaders relay joins/leaves up the tree;
//!   members relay into the groups they lead, flooding the whole cluster
//!   in one up-pass and one down-pass.
//! * **Timeout protocol** — relayed entries live exactly as long as their
//!   relayer: when a leader heard at level > 0 dies, everything it relayed
//!   is purged (how switch/partition failures are detected quickly), while
//!   the longer high-level timeouts give lower groups time to re-elect.
//! * **Message-loss handling** — updates carry sequence numbers and
//!   piggyback the previous `piggyback_window - 1` events; a gap beyond
//!   the window triggers a full-directory resynchronization poll.

use crate::config::{MembershipConfig, RemovalDiscipline};
use crate::group::{Election, GroupState};
use parking_lot::Mutex;
use std::sync::Arc;
use tamp_directory::{Applied, Provenance, SharedDirectory};
use tamp_netsim::{Actor, ChannelId, Context, PacketMeta, ProtocolEvent};

use tamp_wire::piggyback::UpdateLog;
use tamp_wire::seqnum::SeqTracker;
use tamp_wire::{
    DigestEntry, DigestMsg, DirectoryExchange, ElectionMsg, Heartbeat, MemberEvent, Message,
    NodeId, NodeRecord, RelayedRecord, SyncRequest, SyncResponse, UpdateMsg,
};

/// The header fields of a heartbeat, copied out of either an owned
/// [`Heartbeat`] or a borrowed [`tamp_wire::HeartbeatView`] — the part
/// of the message the handler always needs, independent of whether the
/// sender's record ever gets materialized.
#[derive(Clone, Copy)]
struct HeartbeatHeader {
    from: NodeId,
    level: u8,
    is_leader: bool,
    backup: Option<NodeId>,
    latest_update_seq: u64,
    rec_node: NodeId,
    rec_incarnation: u64,
}

/// Timer tokens: kind in the low byte, group level in the next byte.
const T_HEARTBEAT: u64 = 1;
const T_SWEEP: u64 = 2;
const T_ELECTION: u64 = 3;
const T_DIGEST: u64 = 4;

fn election_token(level: u8) -> u64 {
    T_ELECTION | ((level as u64) << 8)
}

fn token_kind(token: u64) -> (u64, u8) {
    (token & 0xff, ((token >> 8) & 0xff) as u8)
}

/// Shared introspection snapshot, updated by the node as it runs. Lets
/// tests and the experiment harness observe protocol state without
/// reaching into the actor.
#[derive(Debug, Default, Clone)]
pub struct ProbeState {
    /// `leaders[ℓ]` = believed leader of our level-ℓ group (None when
    /// the level is inactive or leaderless).
    pub leaders: Vec<Option<NodeId>>,
    /// Levels this node currently participates in.
    pub active_levels: Vec<u8>,
    pub incarnation: u64,
    /// Live entries in the local directory.
    pub member_count: usize,
    /// Lifetime protocol-activity counters.
    pub counters: ProtocolCounters,
}

/// How often each sub-protocol has fired on this node — cheap
/// observability for operators and tests ("is this node electing in a
/// loop?", "how many full syncs did that outage cost?").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Election candidacies we announced.
    pub elections_started: u64,
    /// Times we claimed leadership (Coordinator sent).
    pub leaderships_claimed: u64,
    /// Sync polls we sent (loss-repair round trips).
    pub sync_polls_sent: u64,
    /// Sync requests we answered with a full directory image.
    pub full_syncs_served: u64,
    /// Sync requests we answered cheaply from the update-log window.
    pub backfills_served: u64,
    /// Anti-entropy digests we multicast.
    pub digests_sent: u64,
    /// Update messages we originated or re-originated.
    pub updates_sent: u64,
    /// Peers we declared dead.
    pub deaths_declared: u64,
    /// Suspicions we raised from our own failure detector (plus advisory
    /// suspicions adopted from relayed `Suspect` events).
    pub suspicions_raised: u64,
    /// Suspicions cancelled by proof of life before confirmation.
    pub suspicions_refuted: u64,
    /// Suspicions that survived the window and became removals.
    pub suspicions_confirmed: u64,
    /// Dead-leader subtrees we quarantined instead of purging.
    pub subtrees_quarantined: u64,
    /// Quarantines lifted because a successor re-vouched (or the leader
    /// itself returned) before the deadline.
    pub quarantines_lifted: u64,
    /// Entries purged at quarantine expiry (no successor re-attached).
    pub quarantine_purged: u64,
    /// Cut-detection mode: distinct (subject, reporter) votes recorded.
    pub cut_reports: u64,
    /// Cut-detection mode: batched view changes applied.
    pub cut_batches: u64,
}

/// Cloneable handle to a node's [`ProbeState`].
pub type Probe = Arc<Mutex<ProbeState>>;

/// One active suspicion held by this node (docs/ROBUSTNESS.md): the
/// subject timed out (or a `Suspect` event named it) but has not yet been
/// removed. A refutation — proof of life at `incarnation` or higher —
/// cancels it; only an unrefuted suspicion that survives its window is
/// confirmed as a `Leave`.
#[derive(Debug, Clone, Copy)]
struct Suspicion {
    /// The incarnation under suspicion. Evidence at a lower incarnation
    /// neither confirms nor refutes.
    incarnation: u64,
    /// Group level whose detector raised it (scales the window and picks
    /// the relay set on confirmation).
    level: u8,
    since: u64,
    /// Confirmation window (already flap-scaled; the loss-degradation
    /// stretch is applied at check time so it tracks *current* distress).
    window: u64,
    /// Adopted from a relayed `Suspect` event rather than our own
    /// detector: we track it for refutation bookkeeping but never confirm
    /// it ourselves — confirmation is the origin group's call.
    advisory: bool,
}

/// Aggregated failure reports for one subject in cut-detection mode
/// ([`RemovalDiscipline::CutDetection`]): who has voted the subject dead,
/// and at which incarnation. Nothing is removed until the whole report
/// pattern is stable — see [`MembershipNode::process_cuts`].
#[derive(Debug, Clone)]
struct CutState {
    /// Incarnation the reports accuse. Older-incarnation votes are
    /// discarded; a higher-incarnation vote resets the count.
    incarnation: u64,
    /// Detector level of our own observation, or the arrival level of
    /// the first Alert — picks the relay set and the subtree handling
    /// when the cut is confirmed.
    level: u8,
    /// Distinct reporters, each with the time its vote was last
    /// asserted (votes expire after `cut_report_ttl`).
    reporters: std::collections::BTreeMap<NodeId, u64>,
}

/// A dead relayer's subtree held in escrow: entries it vouched for stay
/// in the directory until `deadline`, waiting for a successor leader to
/// re-vouch (provenance re-stamp). Only what is *still* attributed to the
/// dead relayer at the deadline is purged.
#[derive(Debug, Clone)]
struct Quarantine {
    deadline: u64,
    /// Subtree snapshot at quarantine time (for refutation bookkeeping
    /// when the quarantine lifts).
    members: Vec<NodeId>,
}

/// A deferred mutation of this node's published record, applied on the
/// next sweep — how application code calls the paper's
/// `register_service` / `update_value` / `delete_value` *while the
/// daemon is running* (the node itself is owned by the driver).
#[derive(Debug, Clone)]
pub enum ServiceCommand {
    Register(tamp_wire::ServiceDecl),
    Unregister(String),
    UpdateValue(String, String),
    DeleteValue(String),
    /// Graceful departure: announce our own leave to every group before
    /// going quiet, so peers remove us immediately instead of waiting
    /// out the failure timeout (an extension — the paper handles
    /// departures by timeout only).
    GracefulLeave,
}

/// Cloneable command queue attached to a running node.
pub type ControlHandle = Arc<Mutex<Vec<ServiceCommand>>>;

/// One cluster node running the hierarchical membership protocol.
pub struct MembershipNode {
    cfg: MembershipConfig,
    me: NodeId,
    incarnation: u64,
    crashed: bool,
    record: NodeRecord,
    directory: SharedDirectory,
    /// Events this node originated, with its own sequence numbers.
    log: UpdateLog,
    /// Highest applied update seq per origin.
    seqs: SeqTracker<NodeId>,
    /// `groups[ℓ]` = state of our level-ℓ group, if active.
    groups: Vec<Option<GroupState>>,
    /// Last time we sync-polled each peer (suppresses duplicate polls
    /// while a response is in flight).
    sync_polls: std::collections::HashMap<NodeId, u64>,
    /// Active suspicions (subject → state). See [`Suspicion`].
    suspicions: std::collections::HashMap<NodeId, Suspicion>,
    /// Recent refutations: subject → (refuted-at incarnation, when). A
    /// relayed `Leave` at an incarnation we refuted this recently loses
    /// ("refutation always wins") — we answer it with a `Refute` instead
    /// of applying it.
    refuted: std::collections::HashMap<NodeId, (u64, u64)>,
    /// Flap damping à la Rapid: subject → (instability score, last bump).
    /// The score decays with `cfg.flap_half_life` and stretches the
    /// subject's next suspicion window.
    flap: std::collections::HashMap<NodeId, (f64, u64)>,
    /// Subtree quarantines keyed by the dead relayer.
    quarantine: std::collections::HashMap<NodeId, Quarantine>,
    /// Cut-detection vote aggregator, keyed by subject (BTreeMap so the
    /// batched view change executes in a pool-width-independent order).
    cuts: std::collections::BTreeMap<NodeId, CutState>,
    /// Last time the report pattern gained a vote; batched view changes
    /// wait out `cut_batch_delay` of quiescence after this instant.
    cut_last_change: u64,
    /// Distress latch: the loss-degradation stretch stays engaged until
    /// this instant even if the raw signal flickers off (see
    /// [`MembershipNode::distress_stretch`]).
    distress_until: u64,
    /// Next instant the catch-all directory expiry needs to scan. The
    /// scan is O(members); re-armed from the earliest surviving deadline
    /// (and forced by group-coverage changes) instead of running every
    /// sweep.
    next_catchall: u64,
    /// Deferred record mutations from application code.
    control: ControlHandle,
    counters: ProtocolCounters,
    probe: Probe,
}

impl MembershipNode {
    pub fn new(me: NodeId, cfg: MembershipConfig) -> Self {
        let levels = cfg.top_level() as usize + 1;
        let mut node = MembershipNode {
            record: NodeRecord::new(me, 0),
            me,
            incarnation: 0,
            crashed: false,
            directory: SharedDirectory::new(),
            log: UpdateLog::with_max_age(cfg.piggyback_window, cfg.effective_tombstone_ttl() / 2),
            seqs: SeqTracker::new(),
            groups: (0..levels).map(|_| None).collect(),
            sync_polls: std::collections::HashMap::new(),
            suspicions: std::collections::HashMap::new(),
            refuted: std::collections::HashMap::new(),
            flap: std::collections::HashMap::new(),
            quarantine: std::collections::HashMap::new(),
            cuts: std::collections::BTreeMap::new(),
            cut_last_change: 0,
            distress_until: 0,
            next_catchall: 0,
            control: Arc::new(Mutex::new(Vec::new())),
            counters: ProtocolCounters::default(),
            probe: Arc::new(Mutex::new(ProbeState::default())),
            cfg,
        };
        node.rebuild_record();
        node
    }

    /// Read-only handle to this node's yellow pages (the paper's
    /// `MClient` attach point). Valid before and after the node is boxed
    /// into a driver.
    pub fn directory_client(&self) -> tamp_directory::DirectoryClient {
        self.directory.client()
    }

    /// Introspection handle for tests/harness.
    pub fn probe(&self) -> Probe {
        Arc::clone(&self.probe)
    }

    /// Resolve `(service, partition)` through this node's live view:
    /// the node ids currently believed to host that service partition.
    /// The view-resolution entry point used by request routers (the
    /// `tamp-load` generator, neptune gateways, the proxy's backend
    /// pick). Same contract
    /// as [`tamp_directory::Directory::resolve`]: `service` is an exact
    /// name, ids come in directory order (node id ascending, then record
    /// order within a node), and an unknown service resolves to an
    /// empty set.
    pub fn resolve_service(&self, service: &str, partition: u16) -> Vec<NodeId> {
        self.directory
            .read(|d| d.resolve(service, partition).collect())
    }

    /// Command queue for mutating this node's published services and
    /// attributes at runtime (applied on the next sweep, announced on
    /// the heartbeat that follows).
    pub fn control_handle(&self) -> ControlHandle {
        Arc::clone(&self.control)
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.me
    }

    fn make_record(&self, incarnation: u64) -> NodeRecord {
        let mut r = NodeRecord::new(self.me, incarnation);
        r.services = self.cfg.services.clone();
        r.attrs = self.cfg.attrs.clone();
        if self.cfg.pad_heartbeat_to > 0 {
            r.pad_to_encoded_size(self.cfg.pad_heartbeat_to);
        }
        r
    }

    fn rebuild_record(&mut self) {
        self.record = self.make_record(self.incarnation);
    }

    /// Preview the record this node will announce on its first
    /// `on_start` (including the incarnation bump). A warm-starting
    /// harness captures every node's boot record before the run and
    /// [`preload`](MembershipNode::preload)s them into the others, so
    /// the cluster boots already converged.
    pub fn boot_record(&self) -> NodeRecord {
        self.make_record(self.incarnation + 1)
    }

    /// Pre-seed this node's directory before the simulation starts (the
    /// warm-start path; pair with [`MembershipConfig::warm_start`]).
    /// Records are inserted as-is with the given provenance and a
    /// last-refresh of t=0; entries covered by a group are kept alive by
    /// heartbeats, relayed entries by their relayer, exactly as if the
    /// cluster had converged the slow way.
    pub fn preload(
        &mut self,
        records: impl IntoIterator<Item = (NodeRecord, tamp_directory::Provenance)>,
    ) {
        self.directory.update(|d| {
            let mut changed = false;
            for (r, p) in records {
                if r.node == self.me {
                    continue; // `on_start` installs the Local self-entry
                }
                changed |= d.apply_join(r, p, 0).changed();
            }
            (changed, ())
        });
    }

    /// Bulk variant of [`preload`](MembershipNode::preload): replace the
    /// directory wholesale with a pre-built template. At 10k nodes the
    /// harness builds one template per segment and clones it into every
    /// member — O(clone) instead of 10k individual merges per node.
    ///
    /// A template self-entry is dropped, like [`Self::preload`] skips it:
    /// `on_start` must install the `Local` self-entry itself. Keeping a
    /// `Direct` one would be a time bomb — `on_start`'s equal-incarnation
    /// re-apply does not change provenance, and a `Direct` self-entry is
    /// covered by no group, so the catch-all expiry would remove it at
    /// `2·timeout(top)` and cascade to everything stamped
    /// `Relayed(self)` (on a leaf leader: the entire remote directory).
    pub fn preload_directory(&mut self, template: &tamp_directory::Directory) {
        let me = self.me;
        self.directory.update(|d| {
            *d = template.clone();
            d.remove(me);
            (true, ())
        });
    }

    /// Publish or update a service at runtime (the paper's
    /// `register_service`). Takes effect on the next heartbeat; peers
    /// pick up the change as a same-incarnation content update.
    pub fn register_service(&mut self, svc: tamp_wire::ServiceDecl) {
        self.cfg.services.retain(|s| s.name != svc.name);
        self.cfg.services.push(svc);
        self.rebuild_record();
    }

    /// Publish a key-value attribute (the paper's `update_value`).
    pub fn update_value(&mut self, key: &str, value: &str) {
        self.cfg.attrs.retain(|(k, _)| k != key);
        self.cfg.attrs.push((key.to_string(), value.to_string()));
        self.rebuild_record();
    }

    /// Remove a key (the paper's `delete_value`).
    pub fn delete_value(&mut self, key: &str) {
        self.cfg.attrs.retain(|(k, _)| k != key);
        self.rebuild_record();
    }

    // ----------------------------------------------------------- helpers

    fn level_of_channel(&self, ch: ChannelId) -> Option<u8> {
        let base = self.cfg.base_channel.0;
        if ch.0 < base {
            return None;
        }
        let level = (ch.0 - base) as u8;
        (level <= self.cfg.top_level()).then_some(level)
    }

    fn active_levels(&self) -> Vec<u8> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_some())
            .map(|(l, _)| l as u8)
            .collect()
    }

    fn am_leader(&self, level: u8) -> bool {
        self.groups[level as usize]
            .as_ref()
            .is_some_and(|g| g.leader == Some(self.me))
    }

    fn update_probe(&self) {
        let member_count = self.directory.read(|d| d.len());
        let mut p = self.probe.lock();
        // Reuse the probe's buffers: this runs every sweep on every node,
        // and fresh allocations here show up at 10k-node scale.
        p.leaders.clear();
        p.leaders.extend(
            self.groups
                .iter()
                .map(|g| g.as_ref().and_then(|g| g.leader)),
        );
        p.active_levels.clear();
        p.active_levels.extend(
            self.groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.is_some())
                .map(|(l, _)| l as u8),
        );
        p.incarnation = self.incarnation;
        p.member_count = member_count;
        p.counters = self.counters;
    }

    /// Apply a record heard *directly* (heartbeat from the node itself);
    /// returns whether the directory changed and whether the node is
    /// newly known. Routes through the directory's lazy-materialization
    /// join so borrowed wire views skip decoding on the dominant
    /// same-incarnation refresh path.
    fn apply_direct_with(
        &mut self,
        ctx: &mut Context,
        node: NodeId,
        incarnation: u64,
        make_record: &impl Fn() -> NodeRecord,
        same: &impl Fn(&NodeRecord) -> bool,
    ) -> (bool, bool) {
        let now = ctx.now();
        let (was_known, applied) = self.directory.update(|d| {
            let was = d.contains(node);
            let applied = d.apply_join_with(
                node,
                incarnation,
                Provenance::Direct,
                now,
                make_record,
                same,
            );
            (applied.changed(), (was, applied))
        });
        if applied == Applied::Changed && !was_known {
            ctx.observe_added(node);
        }
        (applied == Applied::Changed, !was_known)
    }

    /// Groups to relay an event into, given the level it arrived on
    /// (`arrival`): every group we lead, plus every higher-level group we
    /// participate in (upward path). `arrival` itself is excluded.
    fn relay_levels(&self, arrival: u8) -> Vec<u8> {
        self.active_levels()
            .into_iter()
            .filter(|&l| l != arrival && (self.am_leader(l) || l > arrival))
            .collect()
    }

    /// Relay set for information that arrived point-to-point (directory
    /// exchanges, sync responses) and therefore has no arrival group:
    /// every group we lead plus every higher-level group we sit in.
    fn relay_levels_all(&self) -> Vec<u8> {
        self.active_levels()
            .into_iter()
            .filter(|&l| self.am_leader(l) || l > 0)
            .collect()
    }

    /// Poll `peer` for a full directory image, at most once per two
    /// heartbeat periods (a response is probably already in flight).
    fn maybe_sync_poll(&mut self, ctx: &mut Context, peer: NodeId) {
        let now = ctx.now();
        let recently = self
            .sync_polls
            .get(&peer)
            .is_some_and(|&t| now.saturating_sub(t) < 2 * self.cfg.heartbeat_period);
        if recently {
            return;
        }
        self.sync_polls.insert(peer, now);
        self.counters.sync_polls_sent += 1;
        ctx.count("membership", "sync_polls_sent", 1);
        ctx.emit(ProtocolEvent::SyncPoll { peer: peer.0 });
        let since_seq = self.seqs.last_applied(peer).unwrap_or(0);
        ctx.send_unicast(
            peer,
            Message::SyncRequest(SyncRequest {
                from: self.me,
                since_seq,
            }),
        );
    }

    // ------------------------------------------- suspicion & quarantine

    /// Current flap-damping multiplier for `node`: `1 + min(score, cap)`,
    /// where the instability score decays exponentially with
    /// `flap_half_life` since its last bump.
    fn flap_multiplier(&self, node: NodeId, now: u64) -> f64 {
        let hl = self.cfg.flap_half_life;
        if hl == 0 {
            return 1.0;
        }
        match self.flap.get(&node) {
            None => 1.0,
            Some(&(score, at)) => {
                let decayed = score * 0.5f64.powf(now.saturating_sub(at) as f64 / hl as f64);
                1.0 + decayed.min(self.cfg.flap_score_cap)
            }
        }
    }

    /// One more refuted suspicion of `node`: it flapped. Future suspicion
    /// windows for it stretch accordingly.
    fn bump_flap(&mut self, node: NodeId, now: u64) {
        let hl = self.cfg.flap_half_life;
        if hl == 0 {
            return;
        }
        let e = self.flap.entry(node).or_insert((0.0, now));
        let decayed = e.0 * 0.5f64.powf(now.saturating_sub(e.1) as f64 / hl as f64);
        *e = (decayed + 1.0, now);
    }

    /// Graceful degradation under measured heavy loss: when at least half
    /// of a group's peers look late — by the EWMA inter-arrival estimate
    /// (the A7 detector signal) *or* by their current heartbeat silence,
    /// whichever is worse — beyond `degrade_stretch_threshold ×
    /// heartbeat_period`, the *network* is in distress, not the peers: a
    /// real crash makes exactly one peer late, a loss burst makes them
    /// all late. The current-silence term matters because the EWMA only
    /// updates on arrival: a burst that silences the whole group leaves
    /// the estimate frozen at its healthy value right when the signal is
    /// needed most. Timeouts and suspicion windows widen by
    /// `degrade_max_stretch` while the distress lasts.
    ///
    /// The signal is judged per group but applied host-wide: groups with
    /// fewer than three peers (typically the higher leader levels) carry
    /// no usable correlation signal of their own, yet share the same
    /// network as the well-populated level-0 group, so any distressed
    /// group stretches every level's windows.
    fn raw_distress(&self, now: u64) -> bool {
        let th = self.cfg.degrade_stretch_threshold;
        if th <= 0.0 {
            return false;
        }
        let period = self.cfg.heartbeat_period as f64;
        self.groups.iter().flatten().any(|g| {
            if g.peers.len() < 3 {
                return false;
            }
            let late = g
                .peers
                .values()
                .filter(|p| {
                    let silence = if p.last_heartbeat > 0 {
                        now.saturating_sub(p.last_heartbeat) as f64
                    } else {
                        0.0
                    };
                    p.ewma_interval.max(silence) > th * period
                })
                .count();
            late * 2 >= g.peers.len()
        })
    }

    /// Latched view of [`MembershipNode::raw_distress`]: the current
    /// stretch factor for timeouts and suspicion windows. The raw signal
    /// has a duty cycle under partial loss (heartbeats that do get
    /// through reset peers' silence), and the confirmation check runs
    /// every sweep — without a latch, the first sweep that catches the
    /// signal off would confirm a suspicion the stretched window should
    /// still be holding open. Each raw-positive reading arms the latch
    /// for three heartbeat periods.
    fn distress_stretch(&mut self, now: u64) -> f64 {
        if self.raw_distress(now) {
            self.distress_until = now + 3 * self.cfg.heartbeat_period;
        }
        if now < self.distress_until {
            self.cfg.degrade_max_stretch.max(1.0)
        } else {
            1.0
        }
    }

    /// Did we refute a suspicion of `node` at incarnation ≥ `inc`
    /// recently enough that a silence-based `Leave` at `inc` must lose?
    fn recently_refuted(&self, node: NodeId, inc: u64, now: u64) -> bool {
        let hold = self.cfg.timeout(self.cfg.top_level());
        self.refuted
            .get(&node)
            .is_some_and(|&(ri, at)| ri >= inc && now.saturating_sub(at) <= hold)
    }

    /// Resolve an active suspicion of `node` as refuted by proof of life
    /// at `inc`. Bumps the flap score for suspicions our own detector
    /// raised and returns whether there was a suspicion to clear.
    ///
    /// The refutation is recorded in the `refuted` map — so later stale
    /// `Leave`s at that incarnation lose — only when the proof is
    /// *fresh*: direct liveness, an explicit `Refute` event, or a
    /// strictly newer incarnation. Same-incarnation vouching (a replayed
    /// `Join` out of a peer's backfill log) may clear an advisory
    /// suspicion, but it is history, not proof of life: arming the
    /// Leave-blocker on it would let a stale join replay veto the
    /// genuine same-incarnation `Leave` travelling right behind it in
    /// the same backfill, leaving the dead node in the directory past
    /// every tombstone and resurrecting it cluster-wide.
    ///
    /// Cut-detection vote books follow the same rule: only fresh proof
    /// or a newer incarnation clears them. Every directory in the
    /// cluster still carries a just-died node's record at its last
    /// incarnation, so the Alert flood's own echo (sync-poll snapshots,
    /// piggyback backfill) re-vouches the subject within milliseconds
    /// of the votes landing — letting that wipe the aggregation would
    /// race every batch against its own dissemination. Genuinely alive
    /// subjects are cleared by the direct-liveness sweep, and votes
    /// nobody re-asserts expire via `cut_report_ttl`.
    fn refute_suspicion(&mut self, ctx: &mut Context, node: NodeId, inc: u64, fresh: bool) -> bool {
        let Some(s) = self.suspicions.get(&node).copied() else {
            return false;
        };
        if inc < s.incarnation {
            return false; // stale proof: an older incarnation's liveness
        }
        self.suspicions.remove(&node);
        if fresh || inc > s.incarnation {
            self.cuts.remove(&node);
        }
        self.counters.suspicions_refuted += 1;
        ctx.count("membership", "suspicions_refuted", 1);
        ctx.emit(ProtocolEvent::SuspicionRefuted { subject: node.0 });
        if fresh || inc > s.incarnation {
            self.refuted.insert(node, (inc, ctx.now()));
        }
        if !s.advisory {
            self.bump_flap(node, ctx.now());
        }
        ctx.observe_refuted(node);
        true
    }

    /// Our own failure detector timed out `peer` at `level`: enter the
    /// refutable `Suspect` state instead of removing (the tentpole of the
    /// suspicion extension). With `suspicion_window = 0` this degrades to
    /// the paper's immediate removal.
    fn raise_suspicion(&mut self, ctx: &mut Context, peer: NodeId, level: u8) {
        if self.suspicions.get(&peer).is_some_and(|s| !s.advisory) {
            return; // already suspected by our own detector
        }
        let Some(inc) = self
            .directory
            .read(|d| d.get(peer).map(|e| e.record.incarnation))
        else {
            // Nothing to suspect: the entry is already gone.
            self.seqs.forget(peer);
            return;
        };
        let now = ctx.now();
        let window = (self.cfg.suspicion(level) as f64 * self.flap_multiplier(peer, now)) as u64;
        self.suspicions.insert(
            peer,
            Suspicion {
                incarnation: inc,
                level,
                since: now,
                window,
                advisory: false,
            },
        );
        self.counters.suspicions_raised += 1;
        ctx.count("membership", "suspicions_raised", 1);
        ctx.emit(ProtocolEvent::SuspicionArmed { subject: peer.0 });
        ctx.observe_suspected(peer);
        let levels = self.relay_levels(level);
        self.relay_events(ctx, vec![MemberEvent::Suspect(peer, inc)], levels);
    }

    /// Cut-detection mode: our own failure detector timed out `peer`.
    /// We do not arm a removal of our own — we record and multicast one
    /// `Alert` vote (into the detecting group itself, so co-observers
    /// can aggregate it, plus the usual upward/led relay set) and leave
    /// the removal to [`MembershipNode::process_cuts`].
    fn report_cut(&mut self, ctx: &mut Context, peer: NodeId, level: u8) {
        let Some(inc) = self
            .directory
            .read(|d| d.get(peer).map(|e| e.record.incarnation))
        else {
            // Nothing to report: the entry is already gone.
            self.seqs.forget(peer);
            return;
        };
        let now = ctx.now();
        if self.record_cut_report(ctx, peer, inc, self.me, level, now) {
            let mut levels = self.relay_levels(level);
            levels.push(level);
            self.relay_events(
                ctx,
                vec![MemberEvent::Alert {
                    subject: peer,
                    incarnation: inc,
                    reporter: self.me,
                }],
                levels,
            );
        }
    }

    /// Record one cut-detection vote. Returns whether it was *new* —
    /// a (subject, reporter) pair not already on the books at this
    /// incarnation — which is what makes the corresponding `Alert`
    /// worth relaying (and what resets the batch-quiescence clock). A
    /// first vote against a subject also arms an advisory suspicion, so
    /// the strict oracle's suspect-before-remove ordering holds and the
    /// existing refutation machinery clears cut state on proof of life.
    fn record_cut_report(
        &mut self,
        ctx: &mut Context,
        subject: NodeId,
        inc: u64,
        reporter: NodeId,
        level: u8,
        now: u64,
    ) -> bool {
        let e = self.cuts.entry(subject).or_insert_with(|| CutState {
            incarnation: inc,
            level,
            reporters: std::collections::BTreeMap::new(),
        });
        if inc < e.incarnation {
            return false; // stale vote against an earlier life
        }
        if inc > e.incarnation {
            e.incarnation = inc;
            e.level = level;
            e.reporters.clear();
        }
        if e.reporters.insert(reporter, now).is_some() {
            return false; // refreshed an existing vote: no pattern change
        }
        self.cut_last_change = now;
        self.counters.cut_reports += 1;
        ctx.count("membership", "cut_reports", 1);
        let already = self
            .suspicions
            .get(&subject)
            .is_some_and(|s| s.incarnation >= inc);
        if !already {
            self.suspicions.insert(
                subject,
                Suspicion {
                    incarnation: inc,
                    level,
                    since: now,
                    window: 0,
                    advisory: true,
                },
            );
            self.counters.suspicions_raised += 1;
            ctx.count("membership", "suspicions_raised", 1);
            ctx.emit(ProtocolEvent::SuspicionArmed { subject: subject.0 });
            ctx.observe_suspected(subject);
        }
        true
    }

    /// Sweep-time cut-detection processing: refute subjects we can
    /// still hear, keep our own votes asserted, expire votes nobody
    /// re-asserts, and apply the batched view change once the report
    /// pattern is *stable* — every reported subject either reached the
    /// (observer-clamped) high watermark or fell below the low
    /// watermark, and no new vote has landed for `cut_batch_delay`.
    /// A lone reporter (e.g. the near side of a one-way gray cut) stays
    /// below the low watermark forever: it blocks nothing and removes
    /// nothing, which is the almost-everywhere-agreement safety story.
    fn process_cuts(&mut self, ctx: &mut Context) {
        if self.cuts.is_empty() {
            return;
        }
        let now = ctx.now();
        let ttl = self.cfg.cut_report_ttl;

        // Fresh direct liveness is counter-evidence, not a vote: clear
        // the subject's reports and refute on its behalf.
        let alive: Vec<(NodeId, u64)> = self
            .cuts
            .iter()
            .filter(|(n, _)| {
                self.groups.iter().flatten().any(|g| {
                    g.peers.get(n).is_some_and(|p| {
                        now.saturating_sub(p.last_heard) <= 2 * self.cfg.heartbeat_period
                    })
                })
            })
            .map(|(&n, s)| (n, s.incarnation))
            .collect();
        for (n, inc) in alive {
            self.cuts.remove(&n);
            if self.refute_suspicion(ctx, n, inc, true) {
                if let Some(rec) = self.directory.read(|d| d.get(n).map(|e| e.record.clone())) {
                    let levels = self.relay_levels_all();
                    self.relay_events(ctx, vec![MemberEvent::Refute(rec)], levels);
                }
            }
        }

        // Our own vote stays asserted while the silence lasts (re-flood
        // at half the TTL, so remote aggregators do not time it out
        // under loss); votes nobody re-asserts expire. A subject whose
        // last vote expires leaves the books without any removal.
        let mut reflood: Vec<(NodeId, u64, u8)> = Vec::new();
        for (&n, s) in self.cuts.iter_mut() {
            if let Some(t) = s.reporters.get_mut(&self.me) {
                if now.saturating_sub(*t) >= ttl / 2 {
                    *t = now;
                    reflood.push((n, s.incarnation, s.level));
                }
            }
            s.reporters.retain(|_, &mut t| now.saturating_sub(t) < ttl);
        }
        self.cuts.retain(|_, s| !s.reporters.is_empty());
        for (n, inc, level) in reflood {
            let mut levels = self.relay_levels(level);
            levels.push(level);
            self.relay_events(
                ctx,
                vec![MemberEvent::Alert {
                    subject: n,
                    incarnation: inc,
                    reporter: self.me,
                }],
                levels,
            );
        }

        if self.cfg.removal_discipline != RemovalDiscipline::CutDetection {
            return; // aggregation hygiene only; removal stays timeout-driven
        }
        if now.saturating_sub(self.cut_last_change) < self.cfg.cut_batch_delay {
            return; // reports still arriving: wait for quiescence
        }
        let mut ready: Vec<(NodeId, u8)> = Vec::new();
        for (&n, s) in self.cuts.iter() {
            // Small groups cannot muster H distinct observers: clamp to
            // the live observer count at the subject's level — but never
            // below the low watermark, so a single observer (a leader
            // watching a remote leader across a gray cut) can never
            // confirm a cut alone.
            let observers = 1 + self
                .groups
                .get(s.level as usize)
                .and_then(|g| g.as_ref())
                .map_or(0, |g| g.peers.len());
            let h = self
                .cfg
                .cut_high_watermark
                .min(observers.max(self.cfg.cut_low_watermark));
            let votes = s.reporters.len();
            if votes >= h {
                ready.push((n, s.level));
            } else if votes >= self.cfg.cut_low_watermark {
                return; // unstable: almost-everywhere agreement pending
            }
        }
        if ready.is_empty() {
            return;
        }
        // The stable cut executes as one batched view change, in
        // NodeId order (BTreeMap) for pool-width determinism.
        self.counters.cut_batches += 1;
        ctx.count("membership", "cut_batches", 1);
        for (n, level) in ready {
            self.cuts.remove(&n);
            self.suspicions.remove(&n);
            self.counters.suspicions_confirmed += 1;
            ctx.count("membership", "suspicions_confirmed", 1);
            ctx.emit(ProtocolEvent::SuspicionConfirmed { subject: n.0 });
            self.declare_peer_dead(ctx, n, level);
        }
    }

    /// Subtree quarantine: instead of purging everything a dead relayer
    /// vouched for (the paper's timeout protocol), mark the subtree
    /// suspect-as-a-unit and hold it until `quarantine_window` passes. A
    /// successor leader that re-attaches re-stamps the entries' provenance
    /// (directory `apply_join`) and thereby lifts the quarantine; only
    /// entries still attributed to the dead relayer at the deadline are
    /// purged.
    fn quarantine_subtree(&mut self, ctx: &mut Context, relayer: NodeId) {
        let members: Vec<(NodeId, u64)> = self.directory.read(|d| {
            d.entries()
                .filter(|e| e.provenance == Provenance::Relayed(relayer))
                .map(|e| (e.record.node, e.record.incarnation))
                .collect()
        });
        if members.is_empty() {
            return;
        }
        let now = ctx.now();
        self.counters.subtrees_quarantined += 1;
        ctx.count("membership", "subtrees_quarantined", 1);
        let mut events = Vec::with_capacity(members.len());
        for &(m, inc) in &members {
            ctx.observe_suspected(m);
            events.push(MemberEvent::Suspect(m, inc));
        }
        self.quarantine.insert(
            relayer,
            Quarantine {
                deadline: now + self.cfg.quarantine_window,
                members: members.iter().map(|&(m, _)| m).collect(),
            },
        );
        // Tell the rest of the tree the subtree is in doubt, so observers
        // that later apply our purge's `Leave`s saw the suspicion first.
        let levels = self.relay_levels_all();
        self.relay_events(ctx, events, levels);
    }

    /// Sweep-time quarantine processing: lift quarantines whose relayer
    /// returned, purge those whose deadline passed.
    fn process_quarantines(&mut self, ctx: &mut Context) {
        if self.quarantine.is_empty() {
            return;
        }
        let now = ctx.now();
        // Pin the processing order: hash-map iteration order is seeded
        // per thread, and lift/purge emit messages whose order must not
        // depend on which thread runs the simulation.
        let mut relayers: Vec<NodeId> = self.quarantine.keys().copied().collect();
        relayers.sort_unstable();
        for relayer in relayers {
            let back = self.directory.read(|d| d.contains(relayer));
            if back {
                // The "dead" relayer is alive again (false positive that
                // refuted, or a fast restart): the subtree was never
                // orphaned.
                let q = self.quarantine.remove(&relayer).unwrap();
                self.counters.quarantines_lifted += 1;
                ctx.count("membership", "quarantines_lifted", 1);
                for m in q.members {
                    if self.directory.read(|d| d.contains(m)) {
                        ctx.observe_refuted(m);
                    }
                }
                continue;
            }
            let q = self.quarantine.get(&relayer).unwrap();
            if now < q.deadline {
                continue;
            }
            let q = self.quarantine.remove(&relayer).unwrap();
            // Whatever a successor re-vouched for is no longer attributed
            // to the dead relayer; the rest is orphaned for real.
            let purged = self.directory.update(|d| {
                let v = d.purge_relayed_by(relayer);
                (!v.is_empty(), v)
            });
            let purged_ids: std::collections::HashSet<NodeId> =
                purged.iter().map(|r| r.node).collect();
            let mut events = Vec::new();
            for r in &purged {
                self.counters.quarantine_purged += 1;
                ctx.count("membership", "quarantine_purged", 1);
                ctx.observe_removed(r.node);
                events.push(MemberEvent::Leave(r.node, r.incarnation));
                self.seqs.forget(r.node);
                self.suspicions.remove(&r.node);
            }
            for m in q.members {
                if !purged_ids.contains(&m) && self.directory.read(|d| d.contains(m)) {
                    ctx.observe_refuted(m); // survived: somebody re-vouched
                }
            }
            if !events.is_empty() {
                let levels = self.relay_levels_all();
                self.relay_events(ctx, events, levels);
            }
        }
    }

    /// Sweep-time suspicion processing: confirm unrefuted suspicions
    /// whose (distress-stretched) window has passed; drop bookkeeping
    /// whose subject is gone.
    fn process_suspicions(&mut self, ctx: &mut Context) {
        if self.suspicions.is_empty() && self.refuted.is_empty() {
            return;
        }
        let now = ctx.now();
        // Refutation memory ages out after the longest detection span.
        let hold = self.cfg.timeout(self.cfg.top_level());
        self.refuted
            .retain(|_, &mut (_, at)| now.saturating_sub(at) <= hold);

        let stretch = self.distress_stretch(now);
        // Pin the resolution order: hash-map iteration order is seeded
        // per thread, and confirm/refute emit messages whose order must
        // not depend on which thread runs the simulation.
        let mut due: Vec<(NodeId, Suspicion)> = self
            .suspicions
            .iter()
            .filter(|(_, s)| !s.advisory)
            .filter(|(_, s)| now.saturating_sub(s.since) >= (s.window as f64 * stretch) as u64)
            .map(|(&n, &s)| (n, s))
            .collect();
        due.sort_unstable_by_key(|&(n, _)| n);
        for (peer, s) in due {
            let heard = self
                .groups
                .iter()
                .flatten()
                .any(|g| g.peers.contains_key(&peer));
            let dir_inc = self
                .directory
                .read(|d| d.get(peer).map(|e| e.record.incarnation));
            match dir_inc {
                None => {
                    // Already removed (a relayed Leave beat us to it).
                    self.suspicions.remove(&peer);
                }
                Some(inc) if heard || inc > s.incarnation => {
                    // Back among the living (or reborn at a higher
                    // incarnation): refutation wins.
                    self.refute_suspicion(ctx, peer, inc.max(s.incarnation), true);
                }
                Some(_) => {
                    self.suspicions.remove(&peer);
                    self.counters.suspicions_confirmed += 1;
                    ctx.count("membership", "suspicions_confirmed", 1);
                    ctx.emit(ProtocolEvent::SuspicionConfirmed { subject: peer.0 });
                    self.declare_peer_dead(ctx, peer, s.level);
                }
            }
        }
        // Advisory entries resolve via Refute/Join/Leave from the origin;
        // if none ever arrives (lost, or the origin died too), drop the
        // bookkeeping quietly after a generous hold.
        let advisory_hold = 6 * self.cfg.timeout(self.cfg.top_level());
        self.suspicions
            .retain(|_, s| !(s.advisory && now.saturating_sub(s.since) > advisory_hold));
    }

    /// Record freshly learned events in our log and multicast them to the
    /// given levels as one update message per level.
    fn relay_events(&mut self, ctx: &mut Context, events: Vec<MemberEvent>, levels: Vec<u8>) {
        if events.is_empty() || levels.is_empty() {
            return;
        }
        let now = ctx.now();
        // One batched log append returns the full piggyback window —
        // older fresh events (loss tolerance) followed by the new batch,
        // already deduped and seq-ordered.
        let window = self.log.push_batch(events, now);
        let n_events = window.len() as u32;
        let msg = Message::Update(UpdateMsg {
            origin: self.me,
            events: window,
        });
        for l in levels {
            self.counters.updates_sent += 1;
            ctx.count("membership", "updates_sent", 1);
            ctx.emit(ProtocolEvent::UpdateRelayed {
                level: l,
                events: n_events,
            });
            ctx.send_multicast(self.cfg.channel(l), self.cfg.ttl(l), msg.clone());
        }
    }

    fn send_heartbeats(&mut self, ctx: &mut Context) {
        for l in self.active_levels() {
            let g = self.groups[l as usize].as_mut().unwrap();
            g.hb_seq += 1;
            let msg = Message::Heartbeat(Heartbeat {
                from: self.me,
                level: l,
                seq: g.hb_seq,
                is_leader: g.leader == Some(self.me),
                backup: if g.leader == Some(self.me) {
                    g.backup
                } else {
                    None
                },
                latest_update_seq: self.log.latest_seq(),
                record: self.record.clone(),
            });
            ctx.count("membership", "heartbeats_sent", 1);
            ctx.emit(ProtocolEvent::HeartbeatSent { level: l });
            ctx.send_multicast(self.cfg.channel(l), self.cfg.ttl(l), msg);
        }
    }

    fn activate_level(&mut self, ctx: &mut Context, level: u8) {
        if self.groups[level as usize].is_some() {
            return;
        }
        let mut group = GroupState::new(level, ctx.now());
        // A warm-started node's directory was pre-seeded; pulling the
        // leader's snapshot would only re-fetch what it already holds.
        group.bootstrapped = self.cfg.warm_start;
        self.groups[level as usize] = Some(group);
        ctx.subscribe(self.cfg.channel(level));
        // Announce ourselves on the new channel immediately so existing
        // members learn of us within one heartbeat period.
        let latest = self.log.latest_seq();
        let g = self.groups[level as usize].as_mut().unwrap();
        g.hb_seq += 1;
        let msg = Message::Heartbeat(Heartbeat {
            from: self.me,
            level,
            seq: g.hb_seq,
            is_leader: false,
            backup: None,
            latest_update_seq: latest,
            record: self.record.clone(),
        });
        ctx.send_multicast(self.cfg.channel(level), self.cfg.ttl(level), msg);
    }

    /// Leave every level above `level` (used when we lose leadership of
    /// `level`'s lower group, or crash).
    fn deactivate_above(&mut self, ctx: &mut Context, level: u8) {
        for l in (level as usize + 1)..self.groups.len() {
            if self.groups[l].is_some() {
                self.groups[l] = None;
                ctx.unsubscribe(self.cfg.channel(l as u8));
            }
        }
    }

    fn become_leader(&mut self, ctx: &mut Context, level: u8) {
        let salt = ctx.rand_below(u64::MAX);
        let now = ctx.now();
        self.counters.leaderships_claimed += 1;
        ctx.count("membership", "leaderships_claimed", 1);
        ctx.emit(ProtocolEvent::LeadershipClaimed { level });
        let g = self.groups[level as usize].as_mut().unwrap();
        // An initial claim (no predecessor known on this channel) on a
        // warm-started node has nothing to re-stamp: every member was
        // pre-seeded with the same provenance this exchange would carry.
        // A takeover (the previous leader died) still does the full
        // §3.1.2 exchange.
        let takeover = g.leader.is_some_and(|l| l != self.me);
        g.leader = Some(self.me);
        g.election = Election::Idle;
        g.backup = g.pick_backup(salt);
        let backup = g.backup;
        ctx.send_multicast(
            self.cfg.channel(level),
            self.cfg.ttl(level),
            Message::Election(ElectionMsg::Coordinator {
                from: self.me,
                level,
                backup,
            }),
        );
        // Re-announce everything we know into the group so members
        // re-stamp the provenance of entries previously relayed by the
        // old leader ("the newly elected leader will join the same group
        // and exchange the membership information with other group
        // members", §3.1.2). reply_wanted: members answer with their own
        // snapshots — in overlapping-group topologies a member may hold
        // knowledge from its *other* group that this leader has never
        // seen, and the exchange must flow both ways.
        if !self.cfg.warm_start || takeover {
            let records = self.directory.read(|d| d.snapshot());
            if !records.is_empty() {
                ctx.send_multicast(
                    self.cfg.channel(level),
                    self.cfg.ttl(level),
                    Message::DirectoryExchange(DirectoryExchange {
                        from: self.me,
                        reply_wanted: true,
                        latest_seq: self.log.latest_seq(),
                        records,
                    }),
                );
            }
        }
        // Group leaders join the next level up (TTL grows by one).
        let next = level + 1;
        if next <= self.cfg.top_level() {
            self.activate_level(ctx, next);
        }
        let _ = now;
        self.update_probe();
    }

    /// A peer stopped being heard in our level-`level` group. With the
    /// suspicion layer on, this only *suspects* it; removal happens in
    /// [`MembershipNode::process_suspicions`] if no refutation arrives
    /// within the window.
    fn handle_peer_timeout(&mut self, ctx: &mut Context, peer: NodeId, level: u8) {
        // Still heard elsewhere? Then it is not dead, we just fell out of
        // one shared channel (e.g. it abdicated a leadership).
        let heard_elsewhere = self
            .groups
            .iter()
            .flatten()
            .any(|g| g.peers.contains_key(&peer));
        if heard_elsewhere {
            return;
        }
        // The peer just left group coverage: entries it covered may now be
        // catch-all eligible, so re-arm the throttled scan.
        self.next_catchall = 0;
        if self.cfg.removal_discipline == RemovalDiscipline::CutDetection {
            self.report_cut(ctx, peer, level);
        } else if self.cfg.suspicion_window == 0 {
            self.declare_peer_dead(ctx, peer, level);
        } else {
            self.raise_suspicion(ctx, peer, level);
        }
    }

    /// Confirmed death of `peer` (suspicion window expired unrefuted, or
    /// the suspicion layer is disabled): remove it, and deal with the
    /// subtree it may have been relaying.
    fn declare_peer_dead(&mut self, ctx: &mut Context, peer: NodeId, level: u8) {
        self.counters.deaths_declared += 1;
        ctx.count("membership", "deaths_declared", 1);

        let now = ctx.now();
        let mut events: Vec<MemberEvent> = Vec::new();

        // Direct death: remove from the directory.
        let inc = self
            .directory
            .read(|d| d.get(peer).map(|e| e.record.incarnation));
        if let Some(inc) = inc {
            let applied = self.directory.update(|d| {
                let a = d.apply_leave(peer, inc, now);
                (a.changed(), a)
            });
            if applied.changed() {
                ctx.observe_removed(peer);
                events.push(MemberEvent::Leave(peer, inc));
            }
        }

        // Timeout protocol: a dead node detected at level > 0 used to
        // take down everything it relayed to us (switch/partition
        // detection). With a quarantine window the subtree is instead
        // held in escrow for a successor to re-vouch; only an expired
        // quarantine purges. At level 0 the relayed entries survive
        // either way — the backup leader re-stamps them after takeover.
        if level > 0 {
            if self.cfg.quarantine_window > 0 {
                self.quarantine_subtree(ctx, peer);
            } else {
                let purged = self.directory.update(|d| {
                    let v = d.purge_relayed_by(peer);
                    (!v.is_empty(), v)
                });
                for r in purged {
                    ctx.observe_removed(r.node);
                    events.push(MemberEvent::Leave(r.node, r.incarnation));
                    self.seqs.forget(r.node);
                }
            }
        }

        self.seqs.forget(peer);
        let levels = self.relay_levels(level);
        self.relay_events(ctx, events, levels);
    }

    fn start_or_progress_election(&mut self, ctx: &mut Context, level: u8) {
        let now = ctx.now();
        let me = self.me;
        let cfg_listen = self.cfg.listen_period;
        let cfg_backup_grace = self.cfg.backup_grace;
        let cfg_election = self.cfg.election_timeout;

        let g = self.groups[level as usize].as_mut().unwrap();
        if g.leader_present(me) {
            return;
        }
        // Give a fresh channel time to reveal an existing leader first.
        if now < g.joined_at + cfg_listen {
            return;
        }
        match g.election {
            Election::Idle => {
                if g.backup == Some(me) {
                    // Fast path: the paper's backup takeover.
                    self.become_leader(ctx, level);
                } else if g.backup.is_some_and(|b| g.peers.contains_key(&b)) {
                    // A live backup exists; give it a grace period.
                    g.election = Election::AwaitingBackup {
                        deadline: now + cfg_backup_grace,
                    };
                    ctx.set_timer(cfg_backup_grace, election_token(level));
                } else if g.am_lowest(me) {
                    // Bully: the lowest id claims directly.
                    self.become_leader(ctx, level);
                } else {
                    // Wait for the lower-id member to claim; if it does
                    // not (it may be deaf or about to fail), escalate by
                    // announcing our own candidacy at the deadline.
                    self.counters.elections_started += 1;
                    ctx.count("membership", "elections_started", 1);
                    ctx.emit(ProtocolEvent::ElectionRound { level });
                    let g = self.groups[level as usize].as_mut().unwrap();
                    ctx.send_multicast(
                        self.cfg.channel(level),
                        self.cfg.ttl(level),
                        Message::Election(ElectionMsg::Election { from: me, level }),
                    );
                    g.election = Election::Candidate {
                        deadline: now + cfg_election,
                    };
                    ctx.set_timer(cfg_election, election_token(level));
                }
            }
            Election::AwaitingBackup { deadline } => {
                if now >= deadline {
                    // Backup never took over; strike it and retry.
                    g.backup = None;
                    g.election = Election::Idle;
                    self.start_or_progress_election(ctx, level);
                }
            }
            Election::Candidate { deadline } => {
                if now >= deadline {
                    // No objection from a lower id, no rival coordinator.
                    self.become_leader(ctx, level);
                }
            }
        }
    }

    fn sweep(&mut self, ctx: &mut Context) {
        let now = ctx.now();
        // Apply deferred application commands; an actual change is
        // announced immediately (peers apply it as a same-incarnation
        // content update and relay it on).
        let cmds: Vec<ServiceCommand> = std::mem::take(&mut *self.control.lock());
        if !cmds.is_empty() {
            for cmd in cmds {
                match cmd {
                    ServiceCommand::Register(svc) => self.register_service(svc),
                    ServiceCommand::Unregister(name) => {
                        self.cfg.services.retain(|s| s.name != name);
                        self.rebuild_record();
                    }
                    ServiceCommand::UpdateValue(k, v) => self.update_value(&k, &v),
                    ServiceCommand::DeleteValue(k) => self.delete_value(&k),
                    ServiceCommand::GracefulLeave => {
                        // Announce our own departure into every active
                        // group, then stop participating: peers apply the
                        // leave at once (no 5 s timeout) and the next
                        // restart's higher incarnation re-adds us cleanly.
                        let inc = self.incarnation;
                        let me = self.me;
                        let levels = self.active_levels();
                        self.relay_events(ctx, vec![MemberEvent::Leave(me, inc)], levels);
                        for l in self.active_levels() {
                            ctx.unsubscribe(self.cfg.channel(l));
                        }
                        for g in &mut self.groups {
                            *g = None;
                        }
                        self.directory.update(|d| {
                            *d = tamp_directory::Directory::new();
                            (true, ())
                        });
                        self.crashed = true; // a future on_start is a fresh life
                        self.update_probe();
                        return;
                    }
                }
            }
            let me_rec = self.record.clone();
            self.directory
                .update(|d| (d.apply_join(me_rec, Provenance::Local, now).changed(), ()));
            self.send_heartbeats(ctx);
        }
        // Graceful degradation: measured heavy loss widens the effective
        // timeout (in effect widening MAX_LOSS) while the distress lasts.
        // One evaluation covers every level in this sweep.
        let stretch = self.distress_stretch(now);
        for level in self.active_levels() {
            let timeout = (self.cfg.timeout(level) as f64 * stretch) as u64;
            let adaptive = self.cfg.adaptive_timeout;
            let max_loss = self.cfg.max_loss;
            let expired = {
                let g = self.groups[level as usize].as_mut().unwrap();
                let ex = if adaptive {
                    // Level scaling carries over: the fixed per-level
                    // timeout acts as the floor/fallback.
                    g.expired_peers_adaptive(now, max_loss, timeout)
                } else {
                    g.expired_peers(now, timeout)
                };
                for &p in &ex {
                    g.remove_peer(p);
                }
                ex
            };
            for peer in expired {
                self.handle_peer_timeout(ctx, peer, level);
            }
        }
        self.process_suspicions(ctx);
        self.process_cuts(ctx);
        self.process_quarantines(ctx);
        // Leadership invariant: we sit at level ℓ+1 only while leading ℓ.
        for level in self.active_levels() {
            if level > 0 && !self.am_leader(level - 1) {
                self.groups[level as usize] = None;
                ctx.unsubscribe(self.cfg.channel(level));
                // Entries only that group covered may now be catch-all
                // eligible: re-arm the throttled scan.
                self.next_catchall = 0;
            }
        }
        // Elections and backup maintenance.
        for level in self.active_levels() {
            self.start_or_progress_election(ctx, level);
            // A leader whose backup died picks a fresh one.
            if self.am_leader(level) {
                let salt = ctx.rand_below(u64::MAX);
                let g = self.groups[level as usize].as_mut().unwrap();
                let backup_alive = g.backup.is_some_and(|b| g.peers.contains_key(&b));
                if !backup_alive && !g.peers.is_empty() {
                    g.backup = g.pick_backup(salt);
                    let backup = g.backup;
                    ctx.send_multicast(
                        self.cfg.channel(level),
                        self.cfg.ttl(level),
                        Message::Election(ElectionMsg::Coordinator {
                            from: self.me,
                            level,
                            backup,
                        }),
                    );
                }
            }
        }
        // Catch-all expiry for direct entries no longer covered by any
        // group (rare; e.g. heard during a transient overlap). The scan
        // walks the whole directory, so it only runs when an entry could
        // actually have rotted: `next_catchall` is re-armed from the
        // earliest surviving deadline, capped by `top_timeout` (coverage
        // changes also force a rescan via `next_catchall = 0`).
        if now >= self.next_catchall {
            let top_timeout = 2 * self.cfg.timeout(self.cfg.top_level());
            let in_groups: std::collections::HashSet<NodeId> = self
                .groups
                .iter()
                .flatten()
                .flat_map(|g| g.peers.keys().copied())
                .collect();
            // Relayed entries must be re-vouched by *somebody's* digest
            // within a few anti-entropy periods, or they rot: the last line
            // of defense against ghost members that no live node actually
            // hears. Disabled together with anti-entropy (paper mode keeps
            // relayed lifetimes purely relayer-bound).
            let relayed_rot = if self.cfg.anti_entropy_period > 0 {
                6 * self.cfg.anti_entropy_period
            } else {
                u64::MAX
            };
            let (removed, next_due) = self.directory.update(|d| {
                let (v, next) = d.expire_with_next(now, |e| match e.provenance {
                    Provenance::Local => u64::MAX,
                    Provenance::Relayed(_) => relayed_rot,
                    Provenance::Direct => {
                        if in_groups.contains(&e.record.node) {
                            u64::MAX // group sweeps own this entry
                        } else {
                            top_timeout
                        }
                    }
                });
                (!v.is_empty(), (v, next))
            });
            self.next_catchall = next_due
                .min(now.saturating_add(top_timeout))
                .max(now.saturating_add(self.cfg.sweep_period));
            if !removed.is_empty() {
                let mut events = Vec::new();
                for r in removed {
                    ctx.observe_removed(r.node);
                    events.push(MemberEvent::Leave(r.node, r.incarnation));
                }
                let levels = self.relay_levels(u8::MAX); // lateral only: groups we lead
                self.relay_events(ctx, events, levels);
            }
        }
        self.update_probe();
    }

    fn own_digest_entries(&self) -> Vec<DigestEntry> {
        // The directory maintains this incrementally (sorted by node id);
        // per tick we only pay for the copy into the outgoing message.
        self.directory.read(|d| d.digest().to_vec())
    }

    /// Anti-entropy tick: multicast an (id, incarnation) digest into
    /// every group we lead.
    fn send_digests(&mut self, ctx: &mut Context) {
        let entries: Vec<DigestEntry> = self.own_digest_entries();
        for l in self.active_levels() {
            if self.am_leader(l) {
                self.counters.digests_sent += 1;
                ctx.count("membership", "digests_sent", 1);
                ctx.send_multicast(
                    self.cfg.channel(l),
                    self.cfg.ttl(l),
                    Message::Digest(DigestMsg {
                        from: self.me,
                        level: l,
                        entries: entries.clone(),
                    }),
                );
            }
        }
    }

    /// Reconcile against a leader's digest: pull what we miss, drop what
    /// this relayer no longer vouches for.
    fn handle_digest(&mut self, ctx: &mut Context, meta: PacketMeta, d: &DigestMsg) {
        self.handle_digest_generic(ctx, meta, d.from, d.level, d.entries.iter().copied());
    }

    /// The single digest implementation behind both the owned path and
    /// the borrowed wire view (whose entry iterator decodes 12-byte
    /// chunks in place — no `Vec<DigestEntry>` is ever allocated).
    fn handle_digest_generic(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        from: NodeId,
        level: u8,
        entries: impl Iterator<Item = DigestEntry> + Clone,
    ) {
        if from == self.me {
            return;
        }
        if let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) {
            g.heard(from, ctx.now(), false, 0);
        }
        let in_digest: std::collections::HashMap<NodeId, u64> =
            entries.clone().map(|e| (e.node, e.incarnation)).collect();
        // A digest is the leader vouching for everything it lists:
        // refresh matching entries so vouched-for relayed knowledge never
        // hits the staleness expiry below (sweep's relayed-entry rot).
        let now = ctx.now();
        self.directory.update(|dir| {
            for e in entries.clone() {
                if dir
                    .get(e.node)
                    .is_some_and(|have| have.record.incarnation == e.incarnation)
                {
                    dir.refresh(e.node, now);
                }
            }
            (false, ())
        });
        // Death knowledge must flow *against* the vouching direction
        // too: if the digest lists a node we hold a fresh tombstone for,
        // the digesting leader is advertising a ghost — push the death
        // back at it before our tombstone ages out and the ghost
        // re-infects us. (Presence propagates by pull; without this,
        // absence always loses the race after a partition of knowledge —
        // found by the `views_always_converge_to_live_set` property.)
        // Settling gate: a *young* tombstone may be a false positive
        // about to be refuted by the victim's own heartbeats — pushing
        // it would amplify a local mistake into a global one. After a
        // few heartbeat periods of continued silence, the death is
        // considered confirmed.
        let settled = 3 * self.cfg.heartbeat_period;
        let dead_listed: Vec<(NodeId, u64)> = self.directory.read(|dir| {
            entries
                .clone()
                .filter(|e| !dir.contains(e.node))
                .filter_map(|e| {
                    dir.tombstone_of(e.node).and_then(|(dead_inc, at)| {
                        let age = now.saturating_sub(at);
                        (dead_inc >= e.incarnation && age >= settled && age < dir.tombstone_ttl())
                            .then_some((e.node, dead_inc))
                    })
                })
                .collect()
        });
        if !dead_listed.is_empty() {
            let mut events = Vec::new();
            for (n, inc) in dead_listed {
                let window = self.log.push(MemberEvent::Leave(n, inc), now);
                events.push(window.into_iter().last().unwrap());
            }
            ctx.send_unicast(
                from,
                Message::Update(UpdateMsg {
                    origin: self.me,
                    events,
                }),
            );
        }

        // Anything the leader knows that we lack (or only know at an
        // older incarnation) is worth a full pull — ignoring nodes whose
        // death we just pushed back.
        let missing = self.directory.read(|dir| {
            entries.clone().any(|e| {
                e.node != self.me
                    && dir
                        .fresh_tombstone(e.node, now)
                        .is_none_or(|i| i < e.incarnation)
                    && dir
                        .get(e.node)
                        .is_none_or(|have| have.record.incarnation < e.incarnation)
            })
        });
        if missing {
            self.maybe_sync_poll(ctx, from);
        }
        // Entries we hold *on this leader's word* that it no longer
        // vouches for are orphans: drop them (no tombstone — the node may
        // be alive and will come back via the normal paths if so). The
        // freshness gate matters under heavy loss: an entry refreshed
        // since the digest was cut (a sync response or update racing the
        // digest) must not be dropped on the digest's older word.
        let stale_before = ctx.now().saturating_sub(self.cfg.anti_entropy_period / 2);
        let orphans: Vec<NodeId> = self.directory.read(|dir| {
            dir.entries()
                .filter(|e| {
                    e.provenance == Provenance::Relayed(from)
                        && !in_digest.contains_key(&e.record.node)
                        && e.last_refresh <= stale_before
                })
                .map(|e| e.record.node)
                .collect()
        });
        if !orphans.is_empty() {
            let mut events = Vec::new();
            for n in orphans {
                let removed = self.directory.update(|dir| {
                    let r = dir.remove(n);
                    (r.is_some(), r)
                });
                if let Some(rec) = removed {
                    ctx.observe_removed(n);
                    events.push(MemberEvent::Leave(n, rec.incarnation));
                }
            }
            let levels = self.relay_levels(level);
            self.relay_events(ctx, events, levels);
        }

        // Digests are bidirectional: a *multicast* digest from our group
        // leader gets a unicast digest echo, so the leader's entries are
        // vouched too (in particular the tree root, which no one else
        // digests to), and the death back-push above also fires in the
        // member → leader direction at the leader's side.
        if meta.channel.is_some() {
            ctx.send_unicast(
                from,
                Message::Digest(DigestMsg {
                    from: self.me,
                    level,
                    entries: self.own_digest_entries(),
                }),
            );
        }
        self.update_probe();
    }

    // ---------------------------------------------------------- handlers

    fn handle_heartbeat(&mut self, ctx: &mut Context, hb: &Heartbeat) {
        self.handle_heartbeat_generic(
            ctx,
            HeartbeatHeader {
                from: hb.from,
                level: hb.level,
                is_leader: hb.is_leader,
                backup: hb.backup,
                latest_update_seq: hb.latest_update_seq,
                rec_node: hb.record.node,
                rec_incarnation: hb.record.incarnation,
            },
            || hb.record.clone(),
            |e| *e == hb.record,
        );
    }

    /// Zero-copy heartbeat entry point: header fields come straight off
    /// the borrowed view; the record is only materialized when the
    /// directory actually stores it (first join, incarnation bump,
    /// content republish) or a refutation must carry it.
    fn handle_heartbeat_view(&mut self, ctx: &mut Context, hb: &tamp_wire::HeartbeatView<'_>) {
        self.handle_heartbeat_generic(
            ctx,
            HeartbeatHeader {
                from: hb.from,
                level: hb.level,
                is_leader: hb.is_leader,
                backup: hb.backup,
                latest_update_seq: hb.latest_update_seq,
                rec_node: hb.record.node,
                rec_incarnation: hb.record.incarnation,
            },
            || hb.record.to_record(),
            |e| hb.record.matches(e),
        );
    }

    /// The single heartbeat implementation behind both the owned and
    /// the borrowed paths. `make_record` materializes the sender's
    /// record (cheap Arc bump when owned, a decode when borrowed) and
    /// `same` answers content-equality against a stored record without
    /// materializing; a conservative `false` only costs one
    /// materialization.
    fn handle_heartbeat_generic(
        &mut self,
        ctx: &mut Context,
        hb: HeartbeatHeader,
        make_record: impl Fn() -> NodeRecord,
        same: impl Fn(&NodeRecord) -> bool,
    ) {
        if hb.from == self.me {
            return;
        }
        let Some(g) = self
            .groups
            .get_mut(hb.level as usize)
            .and_then(|g| g.as_mut())
        else {
            return;
        };
        let now = ctx.now();
        g.heard_heartbeat(hb.from, now, hb.is_leader, hb.rec_incarnation);

        // Leader adoption & rivalry resolution.
        let mut reassert = false;
        let mut lost_leadership = false;
        if hb.is_leader {
            match g.leader {
                Some(l) if l == self.me => {
                    if hb.from < self.me {
                        // Sticky rule does not protect us from a *lower*
                        // id that already considers itself leader (group
                        // merge after a partition heals): lowest wins.
                        g.leader = Some(hb.from);
                        g.backup = hb.backup;
                        g.election = Election::Idle;
                        lost_leadership = true;
                    } else {
                        reassert = true;
                    }
                }
                Some(l) => {
                    // Prefer the incumbent we already track if it is
                    // alive *and still claiming* (an incumbent that
                    // stopped claiming has abdicated — following it
                    // forever would wedge the group in disagreement);
                    // otherwise adopt the claimant. Two live claimants
                    // resolve to the lower id.
                    let incumbent_alive = g.peers.get(&l).is_some_and(|p| p.claims_leader);
                    if !incumbent_alive || hb.from < l {
                        g.leader = Some(hb.from);
                        g.backup = hb.backup;
                        g.election = Election::Idle;
                    }
                }
                None => {
                    g.leader = Some(hb.from);
                    g.backup = hb.backup;
                    g.election = Election::Idle;
                }
            }
        }
        let level = hb.level;
        let leader_now = g.leader;
        // Bootstrap pull, retried every two heartbeat periods until the
        // leader's reply arrives (the request or reply may be lost).
        let needs_bootstrap = !g.bootstrapped
            && hb.is_leader
            && leader_now == Some(hb.from)
            && (g.last_bootstrap_attempt == 0
                || now.saturating_sub(g.last_bootstrap_attempt) >= 2 * self.cfg.heartbeat_period);
        if needs_bootstrap {
            g.last_bootstrap_attempt = now;
        }

        if lost_leadership {
            self.deactivate_above(ctx, level);
        }
        if reassert {
            let g = self.groups[level as usize].as_ref().unwrap();
            let backup = g.backup;
            ctx.send_multicast(
                self.cfg.channel(level),
                self.cfg.ttl(level),
                Message::Election(ElectionMsg::Coordinator {
                    from: self.me,
                    level,
                    backup,
                }),
            );
        }

        // Yellow-page maintenance + join detection. On the dominant
        // same-incarnation refresh path the record is never built: the
        // directory's generic join only calls `make_record` when it
        // stores. A relayed Join reuses the freshly stored record (an
        // Arc bump) instead of materializing again.
        let (changed, _is_new) =
            self.apply_direct_with(ctx, hb.rec_node, hb.rec_incarnation, &make_record, &same);
        if changed {
            let stored = self
                .directory
                .read(|d| d.get(hb.rec_node).map(|e| e.record.clone()));
            if let Some(rec) = stored {
                let levels = self.relay_levels(level);
                self.relay_events(ctx, vec![MemberEvent::Join(rec)], levels);
            }
        }

        // Proof of life: a heartbeat from a node we (or the tree) suspect
        // refutes the suspicion. Relay the refutation to where the
        // suspicion travelled — for a plain member the relay set is
        // empty, so only leaders speak for their members upward (the
        // "group leader refutes on the suspect's behalf" path).
        if self.refute_suspicion(ctx, hb.from, hb.rec_incarnation, true) {
            let levels = self.relay_levels(level);
            self.relay_events(ctx, vec![MemberEvent::Refute(make_record())], levels);
        }

        // Bootstrap pull: first leader heard on this channel.
        if needs_bootstrap {
            let records = self.directory.read(|d| d.snapshot());
            ctx.send_unicast(
                hb.from,
                Message::DirectoryExchange(DirectoryExchange {
                    from: self.me,
                    reply_wanted: true,
                    latest_seq: self.log.latest_seq(),
                    records,
                }),
            );
        }

        // Loss repair: the heartbeat advertises how many updates its
        // sender has originated. If we have applied fewer, an update
        // multicast was lost — poll the sender for a resync.
        let advertised = hb.latest_update_seq;
        if advertised > self.seqs.last_applied(hb.from).unwrap_or(0) {
            self.maybe_sync_poll(ctx, hb.from);
        }
        self.update_probe();
    }

    fn apply_relayed_records(
        &mut self,
        ctx: &mut Context,
        relayer: NodeId,
        records: &[RelayedRecord],
    ) -> Vec<MemberEvent> {
        let now = ctx.now();
        let mut fresh = Vec::new();
        for rr in records {
            let node = rr.record.node;
            if node == self.me {
                continue;
            }
            let provenance = if node == relayer {
                Provenance::Direct
            } else {
                Provenance::Relayed(relayer)
            };
            let (was_known, applied) = self.directory.update(|d| {
                let was = d.contains(node);
                let a = d.apply_join(rr.record.clone(), provenance, now);
                (a.changed(), (was, a))
            });
            if applied == Applied::Changed {
                if !was_known {
                    ctx.observe_added(node);
                }
                fresh.push(MemberEvent::Join(rr.record.clone()));
            }
            // Snapshot records refute suspicions the same way Join events
            // do: a higher incarnation always, same incarnation only for
            // advisory suspicions (the relayer vouches; the origin group
            // keeps the confirmation call for its own suspicions).
            if let Some(s) = self.suspicions.get(&node).copied() {
                let inc = rr.record.incarnation;
                if inc > s.incarnation || (s.advisory && inc >= s.incarnation) {
                    self.refute_suspicion(ctx, node, inc.max(s.incarnation), false);
                }
            }
        }
        fresh
    }

    fn handle_exchange(&mut self, ctx: &mut Context, meta: PacketMeta, d: &DirectoryExchange) {
        if d.from == self.me {
            return;
        }
        // Adopt the sender's update baseline: its past updates are
        // subsumed by this snapshot and must not register as gaps.
        self.seqs.advance(d.from, d.latest_seq);
        // Only a *unicast* reply from our group leader completes the
        // bootstrap handshake. A leader's multicast snapshot (provenance
        // re-stamping after takeover) must not: the paper's bootstrap is
        // two-way — "the group leader also asks the new node for the
        // membership information that it is aware of" — and our offer has
        // not been made yet.
        if !d.reply_wanted && meta.channel.is_none() {
            for g in self.groups.iter_mut().flatten() {
                if g.leader == Some(d.from) {
                    g.bootstrapped = true;
                }
            }
        }
        let fresh = self.apply_relayed_records(ctx, d.from, &d.records);
        // Anything new travels onward: up the tree and into every group
        // we lead (the exchange was point-to-point, so no group already
        // carried it).
        let levels = self.relay_levels_all();
        self.relay_events(ctx, fresh, levels);
        if d.reply_wanted {
            let records = self.directory.read(|d| d.snapshot());
            ctx.send_unicast(
                d.from,
                Message::DirectoryExchange(DirectoryExchange {
                    from: self.me,
                    reply_wanted: false,
                    latest_seq: self.log.latest_seq(),
                    records,
                }),
            );
        }
        self.update_probe();
    }

    /// An accusation (leave / suspect / cut-detection alert) names us at
    /// a current-or-future incarnation — a false positive. Refute by
    /// re-incarnating (SWIM-style: the refutation must carry a strictly
    /// higher incarnation to beat the accusation everywhere, not just
    /// here) and return the `Refute` event to relay.
    fn refute_self_accusation(&mut self, ctx: &mut Context, inc: u64) -> Option<MemberEvent> {
        if inc < self.incarnation {
            return None;
        }
        self.incarnation = inc + 1;
        self.rebuild_record();
        let me_rec = self.record.clone();
        let now = ctx.now();
        self.directory
            .update(|d| (d.apply_join(me_rec, Provenance::Local, now).changed(), ()));
        self.send_heartbeats(ctx);
        Some(MemberEvent::Refute(self.record.clone()))
    }

    fn handle_update(&mut self, ctx: &mut Context, meta: PacketMeta, u: &UpdateMsg) {
        if u.origin == self.me || u.events.is_empty() {
            return;
        }
        let arrival = meta
            .channel
            .and_then(|c| self.level_of_channel(c))
            .unwrap_or(0);
        let now = ctx.now();
        let newest = u.events.iter().map(|e| e.seq).max().unwrap();
        let last = self.seqs.last_applied(u.origin);

        // Loss detection: if even the oldest piggybacked event leaves a
        // gap, the window cannot repair us — poll the origin for a full
        // directory image.
        if let Some(last) = last {
            let oldest = u.events.iter().map(|e| e.seq).min().unwrap();
            if oldest > last + 1 {
                self.maybe_sync_poll(ctx, u.origin);
            }
        }

        let relayer = NodeId(meta.src.0);
        let mut effective: Vec<MemberEvent> = Vec::new();
        for ev in &u.events {
            // No staleness gate here: relay paths of different lengths
            // (plus delivery jitter) can reorder messages from one
            // origin, so a sequence high-water mark must not suppress
            // events. Idempotence does the deduplication — the directory
            // is incarnation-ordered, a replayed event comes back
            // `Ignored`, and only *effective* events are forwarded, which
            // is what terminates the relay flood. The sequence numbers
            // exist for gap detection (sync polling) above.
            let mut cleared_suspicion = false;
            match &ev.event {
                // A leave or suspicion naming us with a current/future
                // incarnation is a false positive — refute by
                // re-incarnating.
                MemberEvent::Leave(n, inc) | MemberEvent::Suspect(n, inc) if *n == self.me => {
                    if let Some(refute) = self.refute_self_accusation(ctx, *inc) {
                        effective.push(refute);
                    }
                    continue;
                }
                MemberEvent::Alert {
                    subject,
                    incarnation,
                    ..
                } if *subject == self.me => {
                    if let Some(refute) = self.refute_self_accusation(ctx, *incarnation) {
                        effective.push(refute);
                    }
                    continue;
                }
                MemberEvent::Leave(n, inc) => {
                    // Refutation always wins: a silence-based removal at
                    // an incarnation we saw alive after suspecting is
                    // stale news — answer it with the proof instead of
                    // applying it.
                    if self.recently_refuted(*n, *inc, now) {
                        if let Some(rec) = self.directory.read(|d| {
                            d.get(*n)
                                .filter(|e| e.record.incarnation >= *inc)
                                .map(|e| e.record.clone())
                        }) {
                            effective.push(MemberEvent::Refute(rec));
                        }
                        continue;
                    }
                    // Fresh direct evidence beats a relayed removal, just
                    // as it beats a relayed suspicion below: under an
                    // asymmetric (gray) fabric fault, a remote group can
                    // "confirm" the death of a node we still hear
                    // heartbeating on the local segment. Applying that
                    // removal would be a false removal attributable to
                    // asymmetry alone — refute on the node's behalf
                    // instead, at an incarnation that beats the claim.
                    // Exception: the subject announcing its *own* leave
                    // (graceful departure) is definitive — heartbeats
                    // were fresh right up to the announcement.
                    let heard_recently = relayer != *n
                        && self.groups.iter().flatten().any(|g| {
                            g.peers.get(n).is_some_and(|p| {
                                now.saturating_sub(p.last_heard) <= 2 * self.cfg.heartbeat_period
                            })
                        });
                    if heard_recently {
                        if let Some(rec) = self.directory.read(|d| {
                            d.get(*n)
                                .filter(|e| e.record.incarnation >= *inc)
                                .map(|e| e.record.clone())
                        }) {
                            // Arm the Leave-blocker (fresh direct liveness
                            // is proof) so replays of this accusation are
                            // answered by the branch above instead of
                            // being re-relayed — that bounds the flood.
                            self.refuted.insert(*n, (rec.incarnation, now));
                            effective.push(MemberEvent::Refute(rec));
                            // Still relay the accusation itself: our
                            // same-incarnation proof cannot beat the
                            // death claim at observers with no direct
                            // evidence. Only the subject's own higher
                            // re-incarnation can, and the subject must
                            // see the claim to issue it.
                            effective.push(ev.event.clone());
                            continue;
                        }
                    }
                    // A removal consumes any open suspicion and any
                    // pending cut votes: the origin confirmed what we
                    // (or the tree) suspected.
                    self.suspicions.remove(n);
                    self.cuts.remove(n);
                }
                MemberEvent::Suspect(n, inc) => {
                    let n = *n;
                    let inc = *inc;
                    // Fresh direct evidence beats a relayed accusation:
                    // refute on the suspect's behalf (the group-leader
                    // path — we hear the node, the accuser cannot).
                    let heard_recently = self.groups.iter().flatten().any(|g| {
                        g.peers.get(&n).is_some_and(|p| {
                            now.saturating_sub(p.last_heard) <= 2 * self.cfg.heartbeat_period
                        })
                    });
                    if heard_recently || self.recently_refuted(n, inc, now) {
                        if let Some(rec) = self.directory.read(|d| {
                            d.get(n)
                                .filter(|e| e.record.incarnation >= inc)
                                .map(|e| e.record.clone())
                        }) {
                            effective.push(MemberEvent::Refute(rec));
                        }
                        continue;
                    }
                    // Adopt as an advisory suspicion (we never confirm it
                    // ourselves — the origin group does) so that a later
                    // relayed `Leave` finds the suspicion already
                    // observed here, and relay it onward exactly once.
                    let known_at = self
                        .directory
                        .read(|d| d.get(n).map(|e| e.record.incarnation));
                    let already = self
                        .suspicions
                        .get(&n)
                        .is_some_and(|s| s.incarnation >= inc);
                    if known_at.is_some_and(|k| k <= inc) && !already {
                        self.suspicions.insert(
                            n,
                            Suspicion {
                                incarnation: inc,
                                level: arrival,
                                since: now,
                                window: 0,
                                advisory: true,
                            },
                        );
                        self.counters.suspicions_raised += 1;
                        ctx.count("membership", "suspicions_raised", 1);
                        ctx.emit(ProtocolEvent::SuspicionArmed { subject: n.0 });
                        ctx.observe_suspected(n);
                        effective.push(ev.event.clone());
                    }
                    continue;
                }
                MemberEvent::Alert {
                    subject,
                    incarnation,
                    reporter,
                } => {
                    let (n, inc, rep) = (*subject, *incarnation, *reporter);
                    // Counter-evidence beats a vote exactly as it beats a
                    // relayed `Suspect`: fresh direct liveness (or a
                    // refutation we already hold) answers with proof
                    // instead of recording the report.
                    let heard_recently = self.groups.iter().flatten().any(|g| {
                        g.peers.get(&n).is_some_and(|p| {
                            now.saturating_sub(p.last_heard) <= 2 * self.cfg.heartbeat_period
                        })
                    });
                    if heard_recently || self.recently_refuted(n, inc, now) {
                        if let Some(rec) = self.directory.read(|d| {
                            d.get(n)
                                .filter(|e| e.record.incarnation >= inc)
                                .map(|e| e.record.clone())
                        }) {
                            effective.push(MemberEvent::Refute(rec));
                        }
                        continue;
                    }
                    // Aggregate the vote; a (subject, reporter) pair we
                    // had not seen travels onward exactly once, which
                    // terminates the flood.
                    let known_at = self
                        .directory
                        .read(|d| d.get(n).map(|e| e.record.incarnation));
                    if known_at.is_some_and(|k| k <= inc)
                        && self.record_cut_report(ctx, n, inc, rep, arrival, now)
                    {
                        effective.push(ev.event.clone());
                    }
                    continue;
                }
                MemberEvent::Refute(r) => {
                    // Proof of life: clears local suspicion state. The
                    // record itself flows into the directory below; the
                    // event stays effective (keeps relaying) as long as
                    // it is still clearing suspicions somewhere.
                    if r.node != self.me && self.refute_suspicion(ctx, r.node, r.incarnation, true)
                    {
                        cleared_suspicion = true;
                    }
                }
                MemberEvent::Join(r) => {
                    // A higher-incarnation join is a rebirth: it refutes
                    // any suspicion of an earlier life. (A same-
                    // incarnation join does not — piggyback windows
                    // replay recent joins routinely, and a stale echo
                    // must not mask a real death. Advisory suspicions
                    // accept same-incarnation vouching: the origin group
                    // owns that call.)
                    if let Some(s) = self.suspicions.get(&r.node).copied() {
                        if r.incarnation > s.incarnation
                            || (s.advisory && r.incarnation >= s.incarnation)
                        {
                            self.refute_suspicion(
                                ctx,
                                r.node,
                                r.incarnation.max(s.incarnation),
                                false,
                            );
                        }
                    }
                }
            }
            let provenance = match &ev.event {
                MemberEvent::Join(r) if r.node == relayer => Provenance::Direct,
                MemberEvent::Refute(r) if r.node == relayer => Provenance::Direct,
                _ => Provenance::Relayed(relayer),
            };
            let (changed, was_known) = self.directory.update(|d| {
                let was = d.contains(ev.event.subject());
                let a = d.apply_event(&ev.event, provenance, now);
                (a.changed(), (a.changed(), was))
            });
            if changed || cleared_suspicion {
                // Anything that changed the directory — joins, leaves,
                // *and* same-incarnation content updates (the paper's
                // update_value flow) — relays onward, as does a
                // refutation that cleared a suspicion here (it may still
                // have suspicions to clear further on). Observations
                // track membership transitions only.
                effective.push(ev.event.clone());
            }
            if changed {
                match &ev.event {
                    MemberEvent::Join(_) if !was_known => ctx.observe_added(ev.event.subject()),
                    MemberEvent::Leave(..) => ctx.observe_removed(ev.event.subject()),
                    MemberEvent::Refute(r) if !was_known => ctx.observe_added(r.node),
                    _ => {}
                }
            }
        }
        self.seqs.advance(u.origin, newest);

        if !effective.is_empty() {
            // Relay onward, *re-originated* under our own sequence
            // numbers: within every group, updates then carry the direct
            // sender's contiguous seqs, so the sender's heartbeat
            // (advertising its latest seq) detects losses and "the
            // receiver polls the sender". Only events that actually
            // changed our directory are relayed, which terminates the
            // flood (a cycle re-delivers them as no-ops).
            let levels = self.relay_levels(arrival);
            self.relay_events(ctx, effective, levels);
        }
        self.update_probe();
    }

    fn handle_sync_request(&mut self, ctx: &mut Context, q: &SyncRequest) {
        // Cheap path: if the requester's gap fits inside our retained
        // piggyback window, backfill with just those events — this is
        // what bounds the cost of ≤ window-1 consecutive losses (§3.1.2).
        // Only beyond-window gaps pay for a full directory image.
        let now = ctx.now();
        if q.since_seq < self.log.latest_seq() && self.log.can_backfill(q.since_seq, now) {
            let events = self.log.events_after(q.since_seq, now);
            if !events.is_empty() {
                self.counters.backfills_served += 1;
                ctx.count("membership", "backfills_served", 1);
                ctx.send_unicast(
                    q.from,
                    Message::Update(UpdateMsg {
                        origin: self.me,
                        events,
                    }),
                );
                return;
            }
        }
        self.counters.full_syncs_served += 1;
        ctx.count("membership", "full_syncs_served", 1);
        let records = self.directory.read(|d| d.snapshot());
        ctx.send_unicast(
            q.from,
            Message::SyncResponse(SyncResponse {
                from: self.me,
                latest_seq: self.log.latest_seq(),
                records,
            }),
        );
    }

    fn handle_sync_response(&mut self, ctx: &mut Context, r: &SyncResponse) {
        let fresh = self.apply_relayed_records(ctx, r.from, &r.records);
        self.seqs.advance(r.from, r.latest_seq);
        let levels = self.relay_levels_all();
        self.relay_events(ctx, fresh, levels);
        self.update_probe();
    }

    fn handle_election(&mut self, ctx: &mut Context, e: &ElectionMsg) {
        match *e {
            ElectionMsg::Election { from, level } => {
                if from == self.me {
                    return;
                }
                let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) else {
                    return;
                };
                g.heard(from, ctx.now(), false, 0);
                // Non-participation rule (§3.1.1): a node that already
                // follows a live leader at this level stays out of other
                // groups' elections on the same (channel, TTL) — in an
                // overlapping-group topology the candidate may simply be
                // unable to see our leader, and it must be allowed to win
                // its own group. The leader itself still objects.
                let follows_other_leader = g
                    .leader
                    .is_some_and(|l| l != self.me && g.peers.contains_key(&l));
                if follows_other_leader {
                    return;
                }
                if self.me < from {
                    // Objection: we outrank the candidate.
                    ctx.send_multicast(
                        self.cfg.channel(level),
                        self.cfg.ttl(level),
                        Message::Election(ElectionMsg::Alive {
                            from: self.me,
                            level,
                        }),
                    );
                    if self.am_leader(level) {
                        let backup = self.groups[level as usize].as_ref().unwrap().backup;
                        ctx.send_multicast(
                            self.cfg.channel(level),
                            self.cfg.ttl(level),
                            Message::Election(ElectionMsg::Coordinator {
                                from: self.me,
                                level,
                                backup,
                            }),
                        );
                    }
                } else {
                    // A lower-id candidate is running; stand down if we
                    // were one.
                    let g = self.groups[level as usize].as_mut().unwrap();
                    if matches!(g.election, Election::Candidate { .. }) {
                        g.election = Election::Idle;
                    }
                }
            }
            ElectionMsg::Alive { from, level } => {
                let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) else {
                    return;
                };
                g.heard(from, ctx.now(), false, 0);
                if from < self.me && matches!(g.election, Election::Candidate { .. }) {
                    g.election = Election::Idle;
                }
            }
            ElectionMsg::Coordinator {
                from,
                level,
                backup,
            } => {
                if from == self.me {
                    return;
                }
                let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) else {
                    return;
                };
                g.heard(from, ctx.now(), true, 0);
                let mut lost = false;
                match g.leader {
                    Some(l) if l == self.me => {
                        if from < self.me {
                            g.leader = Some(from);
                            g.backup = backup;
                            g.election = Election::Idle;
                            lost = true;
                        } else {
                            // We outrank the claimant; re-assert.
                            let my_backup = g.backup;
                            ctx.send_multicast(
                                self.cfg.channel(level),
                                self.cfg.ttl(level),
                                Message::Election(ElectionMsg::Coordinator {
                                    from: self.me,
                                    level,
                                    backup: my_backup,
                                }),
                            );
                        }
                    }
                    _ => {
                        g.leader = Some(from);
                        g.backup = backup;
                        g.election = Election::Idle;
                    }
                }
                if lost {
                    self.deactivate_above(ctx, level);
                }
                self.update_probe();
            }
        }
    }
}

impl Actor for MembershipNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            // A restart loses all soft state; the incarnation bump makes
            // the rebirth unambiguous to everyone else.
            self.crashed = false;
            // The directory was already cleared in place by `on_crash`
            // (clearing rather than replacing keeps externally held
            // DirectoryClient handles attached, like re-initializing the
            // same shm segment after a daemon restart).
            self.seqs = SeqTracker::new();
            self.log = UpdateLog::with_max_age(
                self.cfg.piggyback_window,
                self.cfg.effective_tombstone_ttl() / 2,
            );
            self.sync_polls.clear();
            self.suspicions.clear();
            self.refuted.clear();
            self.flap.clear();
            self.quarantine.clear();
            self.cuts.clear();
            self.cut_last_change = 0;
            for g in &mut self.groups {
                *g = None;
            }
        }
        self.incarnation += 1;
        self.rebuild_record();
        let me_rec = self.record.clone();
        let now = ctx.now();
        self.directory
            .update(|d| (d.apply_join(me_rec, Provenance::Local, now).changed(), ()));

        let ttl = self.cfg.effective_tombstone_ttl();
        self.directory.update(|d| {
            d.set_tombstone_ttl(ttl);
            (false, ())
        });

        self.activate_level(ctx, 0);
        let phase = ctx.jitter(self.cfg.startup_jitter);
        ctx.set_timer(phase + self.cfg.heartbeat_period, T_HEARTBEAT);
        ctx.set_timer(self.cfg.sweep_period, T_SWEEP);
        if self.cfg.anti_entropy_period > 0 {
            ctx.set_timer(phase + self.cfg.anti_entropy_period, T_DIGEST);
        }
        self.update_probe();
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        // Model the process dying: its published directory vanishes with
        // it. Clear in place so externally held clients see it empty.
        self.directory.update(|d| {
            *d = tamp_directory::Directory::new();
            (true, ())
        });
    }

    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        match msg {
            Message::Heartbeat(hb) => self.handle_heartbeat(ctx, hb),
            Message::Update(u) => self.handle_update(ctx, meta, u),
            Message::DirectoryExchange(d) => self.handle_exchange(ctx, meta, d),
            Message::SyncRequest(q) => self.handle_sync_request(ctx, q),
            Message::SyncResponse(r) => self.handle_sync_response(ctx, r),
            Message::Election(e) => self.handle_election(ctx, e),
            Message::Digest(d) => self.handle_digest(ctx, meta, d),
            // Proxy / gossip / RPC traffic is handled by other actors.
            _ => {}
        }
    }

    /// Zero-copy receive: heartbeats — the overwhelming share of packets
    /// — and digests are read straight off the wire bytes; both funnel
    /// into the same generic handlers as the owned path, so the two
    /// codec modes cannot diverge. Everything else materializes once and
    /// takes the owned dispatch.
    fn on_packet_view(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        view: &tamp_wire::MessageView<'_>,
    ) {
        if let Some(hb) = view.as_heartbeat() {
            self.handle_heartbeat_view(ctx, &hb);
        } else if let Some(d) = view.as_digest() {
            self.handle_digest_generic(ctx, meta, d.from, d.level, d.entries());
        } else {
            self.on_packet(ctx, meta, &view.to_owned());
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        let (kind, level) = token_kind(token);
        match kind {
            T_HEARTBEAT => {
                self.send_heartbeats(ctx);
                ctx.set_timer(self.cfg.heartbeat_period, T_HEARTBEAT);
            }
            T_SWEEP => {
                self.sweep(ctx);
                ctx.set_timer(self.cfg.sweep_period, T_SWEEP);
            }
            T_DIGEST => {
                self.send_digests(ctx);
                ctx.set_timer(self.cfg.anti_entropy_period, T_DIGEST);
            }
            T_ELECTION if self.groups.get(level as usize).is_some_and(|g| g.is_some()) => {
                self.start_or_progress_election(ctx, level);
                self.update_probe();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_encoding_roundtrip() {
        for level in [0u8, 1, 3, 255] {
            let t = election_token(level);
            assert_eq!(token_kind(t), (T_ELECTION, level));
        }
        assert_eq!(token_kind(T_HEARTBEAT), (T_HEARTBEAT, 0));
    }

    #[test]
    fn node_exposes_client_and_probe() {
        let node = MembershipNode::new(NodeId(4), MembershipConfig::default());
        assert_eq!(node.id(), NodeId(4));
        let c = node.directory_client();
        assert_eq!(c.member_count(), 0, "empty before start");
        let p = node.probe();
        assert_eq!(p.lock().incarnation, 0);
    }

    #[test]
    fn register_service_and_update_value_rebuild_record() {
        let mut node = MembershipNode::new(NodeId(1), MembershipConfig::default());
        node.register_service(tamp_wire::ServiceDecl::new(
            "cache",
            tamp_wire::PartitionSet::from_iter([1]),
        ));
        node.update_value("load", "0.3");
        assert!(node.record.services.iter().any(|s| s.name == "cache"));
        assert!(node
            .record
            .attrs
            .iter()
            .any(|(k, v)| k == "load" && v == "0.3"));
        node.update_value("load", "0.9");
        assert_eq!(
            node.record
                .attrs
                .iter()
                .filter(|(k, _)| k == "load")
                .count(),
            1,
            "update_value must replace, not append"
        );
        node.delete_value("load");
        assert!(!node.record.attrs.iter().any(|(k, _)| k == "load"));
    }

    #[test]
    fn heartbeat_is_padded_to_paper_size() {
        let cfg = MembershipConfig::default();
        let node = MembershipNode::new(NodeId(1), cfg);
        let msg = Message::Heartbeat(Heartbeat {
            from: node.me,
            level: 0,
            seq: 1,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: node.record.clone(),
        });
        assert_eq!(tamp_wire::codec::encoded_len(&msg), 228);
    }

    #[test]
    fn level_of_channel_maps_back() {
        let node = MembershipNode::new(NodeId(1), MembershipConfig::default());
        assert_eq!(node.level_of_channel(ChannelId(0)), Some(0));
        assert_eq!(node.level_of_channel(ChannelId(3)), Some(3));
        assert_eq!(node.level_of_channel(ChannelId(9)), None);
    }

    #[test]
    fn relay_levels_excludes_arrival_and_respects_roles() {
        let mut node = MembershipNode::new(NodeId(1), MembershipConfig::default());
        // Manually wire: active at 0 (member), 1 (leader of 0), leader at 1 too.
        node.groups[0] = Some(GroupState::new(0, 0));
        node.groups[0].as_mut().unwrap().leader = Some(NodeId(1));
        node.groups[1] = Some(GroupState::new(1, 0));
        node.groups[1].as_mut().unwrap().leader = Some(NodeId(0));
        // Event arrived at level 1: relay into level 0 (we lead it), not
        // level 1 (arrival), nothing above.
        assert_eq!(node.relay_levels(1), vec![0]);
        // Event arrived at level 0: we lead level 0? yes (but arrival) —
        // relay upward into level 1.
        assert_eq!(node.relay_levels(0), vec![1]);
    }
}
