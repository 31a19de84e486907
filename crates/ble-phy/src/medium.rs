//! The shared radio medium and simulation driver.
//!
//! [`World`] is a central arena: it owns the event queue, the node radios,
//! the set of in-flight transmissions *and every protocol state machine*
//! (as `Box<dyn Node>` keyed by [`NodeId`]). Frame delivery follows
//! first-lock-wins radio semantics: a receiver synchronises on the first
//! frame whose preamble it hears (passing its access-address filter), and
//! any frame overlapping the locked reception contributes interference. At
//! the end of the locked frame the [`crate::CaptureModel`] decides — from
//! the signal-to-interference ratio and the overlap duration — whether the
//! frame survived or was corrupted.
//!
//! This is precisely the mechanism the InjectaBLE race exploits: the
//! attacker's frame, transmitted at the start of the widened receive
//! window, arrives *first*, so the victim locks onto it; the legitimate
//! Master frame then only matters as interference.

use std::collections::VecDeque;

use ble_invariants::invariant;
use ble_telemetry::{
    DeliveryTracker, FaultKind, SpanId, SpanKind, Telemetry, TelemetryEvent, TelemetryRecord,
    TelemetrySink,
};
use simkit::{Duration, EventId, EventQueue, FaultPlan, Instant, SimRng};

use crate::access_address::AccessAddress;
use crate::channel::Channel;
use crate::fault::FaultState;
use crate::frame::{RawFrame, ReceivedFrame};
use crate::geometry::Position;
use crate::phy_mode::PhyMode;
use crate::propagation::Environment;
use crate::radio::{
    AccessFilter, Node, NodeConfig, NodeCtx, NodeId, RadioEvent, TimerHandle, TimerKey,
};

/// Frame-delivery scheduling strategy of the medium.
///
/// Both modes produce **event-for-event identical** simulations — the
/// sharded fast path only skips scheduling `RxStart` edges that the
/// broadcast path would have discarded without any state or RNG effect
/// (not listening on the channel, unlocked and filtered to another access
/// address or PHY, or mean power below the reachability cull). Every edge
/// of a frame to node *i* is keyed `(arrival, base + i)` from a block of
/// event ids the frame reserves, in both modes, so an edge queued late
/// sorts exactly where the broadcast edge sat. The equivalence is pinned by
/// the `sharding_equivalence` integration tests, which run the same seeded
/// world under both modes and compare their telemetry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Schedule `RxStart` only at nodes currently listening on the
    /// transmission's channel (per-channel listener index) that the edge
    /// can affect — locked, or filtered to accept the frame — and whose
    /// mean link budget clears the reachability cull. An elided edge is
    /// queued later, under its reserved key, if the receiver's radio
    /// changes before the frame arrives: `start_rx` (it opened, retuned
    /// or changed its filter) and `try_lock` (it locked on another frame)
    /// rescan the in-flight frames. The default.
    #[default]
    Sharded,
    /// Schedule `RxStart` at every other node for every frame, as the
    /// medium originally did — O(nodes) per transmission. Retained as the
    /// oracle for the sharded/broadcast equivalence tests and for
    /// apples-to-apples benchmarks.
    FullBroadcast,
}

/// Handle describing a transmission that was just started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxHandle {
    /// When the first preamble bit left the antenna.
    pub start: Instant,
    /// When the last bit will leave the antenna.
    pub end: Instant,
    pub(crate) id: u64,
}

#[derive(Debug)]
enum SimEvent {
    TxEnd {
        node: NodeId,
    },
    RxStart {
        node: NodeId,
        tx_id: u64,
        /// Mean received power of the link, computed when the edge was
        /// queued.
        mean_dbm: f64,
    },
    RxEnd {
        node: NodeId,
        tx_id: u64,
    },
    LateSync {
        node: NodeId,
        tx_id: u64,
    },
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    /// Pre-computed fault-episode boundary: index into the installed
    /// [`FaultState`]'s marker table (telemetry only — impairments are
    /// evaluated arithmetically per frame, not from these events).
    Fault {
        marker: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Interference {
    power_dbm: f64,
    overlap: Duration,
}

/// A short list whose first `N` entries live inline, so the common case
/// never touches the heap; longer lists spill into a `Vec` rather than
/// dropping entries.
#[derive(Debug, Clone)]
struct InlineList<T, const N: usize> {
    /// Occupied prefix of `inline`.
    len: usize,
    inline: [T; N],
    /// Overflow beyond the inline capacity; empty in steady state.
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> InlineList<T, N> {
    /// An empty list; `fill` only initialises the unused inline slots.
    fn new(fill: T) -> Self {
        InlineList {
            len: 0,
            inline: [fill; N],
            spill: Vec::new(),
        }
    }

    /// Appends an entry. Returns whether it spilled past the inline
    /// capacity onto the heap.
    fn push(&mut self, entry: T) -> bool {
        if let Some(slot) = self.inline.get_mut(self.len) {
            *slot = entry;
            self.len += 1;
            false
        } else {
            self.spill.push(entry);
            true
        }
    }

    /// Entries in push order (inline prefix, then spill).
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().take(self.len).chain(self.spill.iter())
    }

    fn count(&self) -> usize {
        self.len + self.spill.len()
    }

    /// Entries past the inline capacity.
    fn spilled(&self) -> usize {
        self.spill.len()
    }
}

/// Interferers observed during one locked reception. Almost every collision
/// involves one or two frames (the injection race is exactly two), so four
/// live inline; a spill emits [`TelemetryEvent::InterferenceSpill`] so
/// pathological pile-ups are observable.
type InterferenceBuf = InlineList<Interference, 4>;

impl InterferenceBuf {
    fn empty() -> Self {
        InlineList::new(Interference {
            power_dbm: 0.0,
            overlap: Duration::ZERO,
        })
    }
}

#[derive(Debug)]
struct RxLock {
    tx_id: u64,
    arrival: Instant,
    end: Instant,
    signal_dbm: f64,
    interference: InterferenceBuf,
}

#[derive(Debug)]
enum RadioState {
    Idle,
    Rx {
        channel: Channel,
        filter: AccessFilter,
        crc_init: u32,
        lock: Option<RxLock>,
    },
    Tx {
        until: Instant,
    },
}

struct NodeState {
    config: NodeConfig,
    rng: SimRng,
    radio: RadioState,
    /// The open `ChannelAirtime` span for this node's in-flight
    /// transmission ([`SpanId::DISABLED`] when idle or telemetry is off).
    tx_span: SpanId,
    /// Transmissions started by this node ([`NodeCtx::tx_start_count`]).
    tx_starts: u64,
}

impl NodeState {
    /// Whether an `RxStart` edge of a frame (`channel`, `aa`, `phy`) can
    /// change this radio's state if it arrives now: the radio listens on
    /// `channel` and is either locked (the frame interferes or steals the
    /// lock) or filtered to accept the frame. `handle_rx_start` drops every
    /// other edge without touching state or RNG, so sharded delivery need
    /// not queue it.
    fn edge_live(&self, channel: Channel, aa: AccessAddress, phy: PhyMode) -> bool {
        match &self.radio {
            RadioState::Rx {
                channel: rx_channel,
                filter,
                lock,
                ..
            } => {
                *rx_channel == channel
                    && (lock.is_some() || (self.config.phy == phy && filter.matches(aa)))
            }
            RadioState::Idle | RadioState::Tx { .. } => false,
        }
    }
}

/// Mean received power for the `from → to` link: log-distance path loss
/// and walls, no fading draw.
fn link_mean_dbm(env: &Environment, from: &NodeState, to: &NodeState) -> f64 {
    env.mean_received_power_dbm(
        from.config.tx_power_dbm,
        from.config.position,
        to.config.position,
    )
}

/// Receivers that already have an `RxStart` edge queued for an in-flight
/// transmission. A duplicate edge would make a receiver treat its own
/// locked frame as interference (an extra RNG draw and a phantom
/// collision), so the late scheduling in `start_rx` and `try_lock` dedups
/// against this list. Sharded delivery queues about one edge per frame in
/// dense worlds, so four inline entries keep the steady state heap-free.
type ScheduledSet = InlineList<NodeId, 4>;

struct ActiveTx {
    from: NodeId,
    channel: Channel,
    phy: PhyMode,
    frame: RawFrame,
    start: Instant,
    end: Instant,
    /// First of the event ids reserved for this frame's `RxStart` edges,
    /// one per node: the edge to node *i* is keyed `(arrival, edges + i)`.
    edges: EventId,
    /// Nodes in the world at `TxStart`: the size of the reserved block.
    edge_count: usize,
    /// Receivers with a queued `RxStart` for this frame (sharded delivery
    /// only; stays empty under [`DeliveryMode::FullBroadcast`], where
    /// every node gets exactly one edge by construction).
    scheduled: ScheduledSet,
    /// Tx id of the next frame on the same channel ([`NO_TX`] for the
    /// newest): the link of [`OnAir`]'s per-channel chain.
    next_on_channel: u64,
}

impl ActiveTx {
    /// The reserved event id of this frame's `RxStart` edge to `node`.
    /// `None` for a node added after `TxStart`: broadcast delivery gave it
    /// no edge, so it never hears the frame arrive.
    fn edge_id(&self, node: NodeId) -> Option<EventId> {
        let offset = u64::try_from(node.0).ok()?;
        (node.0 < self.edge_count).then(|| self.edges.offset(offset))
    }
}

/// Number of RF channels: the length of [`OnAir`]'s chain array.
const CHANNELS: usize = 40;
const _: () = assert!(CHANNELS as u64 == Channel::COUNT as u64);

/// No frame: the open end of a per-channel chain.
const NO_TX: u64 = u64::MAX;

/// One channel's frames in [`OnAir`]: the oldest and newest tx ids, linked
/// oldest to newest through [`ActiveTx::next_on_channel`]. Both ends are
/// [`NO_TX`] while the channel holds no frame.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: u64,
    last: u64,
}

const EMPTY_CHAIN: Chain = Chain {
    first: NO_TX,
    last: NO_TX,
};

/// The frames on the air, plus those off it that `gc` has not dropped yet,
/// in tx-id order. Every `transmit` takes the next tx id, so ids are dense
/// and frame `id` sits at `ring[id - base]`. Each channel's frames form an
/// ascending chain of ids through the ring, so a scan for one channel
/// visits only that channel's frames, in the ascending tx-id
/// (= transmission start) order that every fading-draw sequence depends
/// on. The chains live inline, so the table allocates nothing until the
/// first frame.
struct OnAir {
    /// Tx id of `ring[0]`; the next id to be taken while `ring` is empty.
    base: u64,
    ring: VecDeque<ActiveTx>,
    /// `chains[c]`: the frames in `ring` on channel `c`.
    chains: [Chain; CHANNELS],
}

impl OnAir {
    fn new() -> Self {
        OnAir {
            base: 0,
            ring: VecDeque::new(),
            chains: [EMPTY_CHAIN; CHANNELS],
        }
    }

    /// The tx id the next [`OnAir::push`] assigns.
    fn next_id(&self) -> u64 {
        self.base + self.ring.len() as u64
    }

    /// Position of frame `id` in a ring whose front is frame `base`.
    fn slot(base: u64, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(base)?).ok()
    }

    /// Stores a frame under [`OnAir::next_id`], at the end of its
    /// channel's chain, and returns that id.
    fn push(&mut self, mut tx: ActiveTx) -> u64 {
        let id = self.next_id();
        tx.next_on_channel = NO_TX;
        if let Some(chain) = self.chains.get_mut(usize::from(tx.channel.index())) {
            match Self::slot(self.base, chain.last).and_then(|i| self.ring.get_mut(i)) {
                Some(prev) => prev.next_on_channel = id,
                None => chain.first = id,
            }
            chain.last = id;
        }
        self.ring.push_back(tx);
        id
    }

    fn get(&self, id: u64) -> Option<&ActiveTx> {
        self.ring.get(Self::slot(self.base, id)?)
    }

    /// The frames on `channel`, in ascending tx-id order.
    fn on_channel(&self, channel: Channel) -> impl Iterator<Item = (u64, &ActiveTx)> {
        let chain = self.chains.get(usize::from(channel.index()));
        let mut next = chain.map_or(NO_TX, |c| c.first);
        std::iter::from_fn(move || {
            let id = next;
            let tx = self.get(id)?;
            next = tx.next_on_channel;
            Some((id, tx))
        })
    }

    /// Calls `f` on each frame on `channel`, in ascending tx-id order.
    fn for_each_on_channel_mut(&mut self, channel: Channel, mut f: impl FnMut(u64, &mut ActiveTx)) {
        let mut id = self
            .chains
            .get(usize::from(channel.index()))
            .map_or(NO_TX, |c| c.first);
        while let Some(tx) = Self::slot(self.base, id).and_then(|i| self.ring.get_mut(i)) {
            let next = tx.next_on_channel;
            f(id, tx);
            id = next;
        }
    }

    /// Drops frames from the front while the front has been off the air
    /// for longer than [`TX_RETENTION`] at `now`. A finished frame behind a
    /// longer-lived front stays until the front goes: every reader filters
    /// by time, so such a frame can neither interfere, late-lock nor get a
    /// late edge, and dropping it later changes nothing.
    fn gc(&mut self, now: Instant) {
        while let Some(front) = self.ring.front() {
            if front.end + TX_RETENTION >= now {
                return;
            }
            // The oldest frame heads its channel's chain.
            if let Some(chain) = self.chains.get_mut(usize::from(front.channel.index())) {
                debug_assert_eq!(chain.first, self.base, "channel chain out of step");
                if front.next_on_channel == NO_TX {
                    *chain = EMPTY_CHAIN;
                } else {
                    chain.first = front.next_on_channel;
                }
            }
            self.ring.pop_front();
            self.base += 1;
        }
    }
}

/// Internal simulation state shared between the driver and [`NodeCtx`].
pub(crate) struct SimInner {
    queue: EventQueue<SimEvent>,
    env: Environment,
    nodes: Vec<NodeState>,
    /// In-flight frames, indexed by tx id and by channel.
    on_air: OnAir,
    rng: SimRng,
    telemetry: Telemetry,
    faults: FaultState,
    delivery_mode: DeliveryMode,
    /// Per-channel listener index: `listeners[c]` holds, in ascending
    /// `NodeId` order, exactly the nodes whose radio is `Rx` on channel
    /// `c`. Maintained in **both** delivery modes (the upkeep is two
    /// binary searches per retune) so the mode can be chosen per world
    /// without index rebuilds. Update sites are the radio-state writes:
    /// `start_rx` (retune), `stop_rx` and `transmit` (abandoning a
    /// reception); `finish_tx` and `handle_rx_end` never enter or leave
    /// `Rx`, so they leave the index alone.
    listeners: Vec<Vec<NodeId>>,
    /// Per-packet delivery ledger ([`World::enable_delivery_tracker`]);
    /// `None` costs one branch per hook.
    delivery: Option<DeliveryTracker>,
}

/// How long finished transmissions are retained for interference accounting
/// before garbage collection.
const TX_RETENTION: Duration = Duration::from_millis(1);

impl SimInner {
    pub(crate) fn now(&self) -> Instant {
        self.queue.now()
    }

    /// Central node lookup. A `NodeId` is only minted by
    /// [`World::add_node`], so the table is non-empty whenever one exists
    /// and the modulo is an identity in correct programs; an out-of-range
    /// id is an internal bug caught by the invariant in debug builds.
    fn node_state(&self, node: NodeId) -> &NodeState {
        invariant!(
            node.0 < self.nodes.len(),
            "node-id",
            "NodeId({}) out of range ({} nodes)",
            node.0,
            self.nodes.len()
        );
        &self.nodes[node.0 % self.nodes.len()]
    }

    fn node_state_mut(&mut self, node: NodeId) -> &mut NodeState {
        invariant!(
            node.0 < self.nodes.len(),
            "node-id",
            "NodeId({}) out of range ({} nodes)",
            node.0,
            self.nodes.len()
        );
        let len = self.nodes.len();
        &mut self.nodes[node.0 % len]
    }

    pub(crate) fn node_label(&self, node: NodeId) -> &str {
        &self.node_state(node).config.label
    }

    pub(crate) fn node_clock(&self, node: NodeId) -> &simkit::DriftClock {
        &self.node_state(node).config.clock
    }

    pub(crate) fn node_phy(&self, node: NodeId) -> PhyMode {
        self.node_state(node).config.phy
    }

    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut SimRng {
        &mut self.node_state_mut(node).rng
    }

    /// Emits a typed event to the telemetry sinks. The closure only runs
    /// when a sink is attached, so disabled telemetry costs one branch.
    pub(crate) fn emit(
        &mut self,
        at: Instant,
        node: Option<NodeId>,
        build: impl FnOnce() -> TelemetryEvent,
    ) {
        let node = node.and_then(|n| u32::try_from(n.0).ok());
        self.telemetry.emit_with(at, node, build);
    }

    /// Opens a hierarchical span attributed to `node` (or the simulation
    /// when `None`). Branch-and-return ([`SpanId::DISABLED`]) when no
    /// telemetry sink is attached.
    #[inline]
    pub(crate) fn span_enter(
        &mut self,
        at: Instant,
        node: Option<NodeId>,
        kind: SpanKind,
        detail: u32,
    ) -> SpanId {
        let node = node.and_then(|n| u32::try_from(n.0).ok());
        self.telemetry.span_enter(at, node, kind, detail)
    }

    /// Closes a span opened by [`SimInner::span_enter`].
    #[inline]
    pub(crate) fn span_exit(&mut self, at: Instant, id: SpanId) {
        self.telemetry.span_exit(at, id);
    }

    /// Inserts `node` into the sorted listener list of `channel` (no-op if
    /// already present).
    fn listeners_insert(listeners: &mut [Vec<NodeId>], channel: Channel, node: NodeId) {
        if let Some(list) = listeners.get_mut(usize::from(channel.index())) {
            if let Err(i) = list.binary_search(&node) {
                list.insert(i, node);
            }
        }
    }

    /// Removes `node` from the sorted listener list of `channel` (no-op if
    /// absent).
    fn listeners_remove(listeners: &mut [Vec<NodeId>], channel: Channel, node: NodeId) {
        if let Some(list) = listeners.get_mut(usize::from(channel.index())) {
            if let Ok(i) = list.binary_search(&node) {
                list.remove(i);
            }
        }
    }

    /// One per-frame received-power realisation on top of a mean: a
    /// multipath fading draw, minus any fault-plan fading episode. `None`
    /// for a link the reachability cull drops — RNG-free and checked
    /// before the draw in both delivery modes, so a culled link consumes
    /// no randomness anywhere.
    fn received_power_from_mean(&mut self, mean: f64) -> Option<f64> {
        if !self.env.reachable_mean_dbm(mean) {
            return None;
        }
        let mut power = mean + self.env.fading_db(&mut self.rng);
        if self.faults.enabled() {
            // Fading episodes attenuate the whole medium symmetrically.
            power -= self.faults.fading_db(self.now());
        }
        Some(power)
    }

    pub(crate) fn transmit(&mut self, node: NodeId, channel: Channel, frame: RawFrame) -> TxHandle {
        let now = self.now();
        let phy = self.node_state(node).config.phy;
        // Half-duplex: transmitting abandons any reception in progress.
        // For a single protocol machine, starting a second transmission is
        // a bug — debug builds assert; release builds (and shared-radio
        // nodes, whose independent machines cannot globally schedule)
        // abandon the in-flight frame (it stays on the air as interference)
        // and retune to the new one.
        invariant!(
            self.node_state(node).config.shared_radio
                || !matches!(self.node_state(node).radio, RadioState::Tx { .. }),
            "half-duplex",
            "{}: transmit() while already transmitting",
            self.node_label(node)
        );
        // Abandoning a reception stops the node listening, so it leaves
        // the per-channel index before the radio flips to `Tx`.
        if let RadioState::Rx { channel: old, .. } = self.node_state(node).radio {
            Self::listeners_remove(&mut self.listeners, old, node);
        }
        self.node_state_mut(node).tx_starts += 1;
        let airtime = frame.airtime(phy);
        let end = now + airtime;
        self.node_state_mut(node).radio = RadioState::Tx { until: end };

        // Per-channel airtime span: one per transmission, closed by
        // `finish_tx`. A release-mode double-transmit abandons the previous
        // frame, so its span closes here instead.
        let stale = self.node_state(node).tx_span;
        self.span_exit(now, stale);
        let tx_span = self.span_enter(
            now,
            Some(node),
            SpanKind::ChannelAirtime,
            u32::from(channel.index()),
        );
        self.node_state_mut(node).tx_span = tx_span;

        let tx_id = self.on_air.next_id();
        let aa = frame.access_address;
        let pdu_len = u32::try_from(frame.pdu.len()).unwrap_or(u32::MAX);
        self.emit(now, Some(node), || TelemetryEvent::TxStart {
            channel: channel.index(),
            access_address: aa.value(),
            pdu_len,
            end,
        });
        self.queue.schedule_at(end, SimEvent::TxEnd { node });
        // One `RxStart` key per node, taken right after `TxEnd` in both
        // modes: wherever an edge is queued, it sorts where the broadcast
        // edge sits.
        let edges = self
            .queue
            .reserve(u64::try_from(self.nodes.len()).unwrap_or(u64::MAX));
        let mut tx = ActiveTx {
            from: node,
            channel,
            phy,
            frame,
            start: now,
            end,
            edges,
            edge_count: self.nodes.len(),
            scheduled: ScheduledSet::new(NodeId(0)),
            next_on_channel: NO_TX,
        };
        let mode = self.delivery_mode;
        // Split-field borrow: arrival times and the cull read
        // `env`/`nodes`, scheduling writes `queue` — disjoint, so no
        // intermediate collection needed.
        let SimInner {
            queue,
            env,
            nodes,
            listeners,
            delivery,
            ..
        } = self;
        let sender = &nodes[node.0 % nodes.len()];
        let mut scheduled: u32 = 0;
        let mut culled: u32 = 0;
        let mut elided: u32 = 0;
        match mode {
            DeliveryMode::FullBroadcast => {
                for (other, state) in nodes.iter().enumerate() {
                    let other = NodeId(other);
                    if other == node {
                        continue;
                    }
                    let Some(id) = tx.edge_id(other) else {
                        continue;
                    };
                    let arrival =
                        now + env.propagation_delay(sender.config.position, state.config.position);
                    queue.schedule_reserved(
                        arrival,
                        id,
                        SimEvent::RxStart {
                            node: other,
                            tx_id,
                            mean_dbm: link_mean_dbm(env, sender, state),
                        },
                    );
                    scheduled += 1;
                }
            }
            DeliveryMode::Sharded => {
                let listening = listeners.get(usize::from(channel.index()));
                for &other in listening.into_iter().flatten() {
                    let (Some(state), Some(id)) = (nodes.get(other.0), tx.edge_id(other)) else {
                        continue;
                    };
                    if !state.edge_live(channel, aa, phy) {
                        elided += 1;
                        continue;
                    }
                    // RNG-free reachability cull: a mean this far under
                    // the floor fails the sensitivity check for every
                    // realistic fading draw, and `handle_rx_start` applies
                    // the identical predicate before its draw — skipping
                    // here shifts no RNG stream.
                    let mean_dbm = link_mean_dbm(env, sender, state);
                    if !env.reachable_mean_dbm(mean_dbm) {
                        culled += 1;
                        continue;
                    }
                    let arrival =
                        now + env.propagation_delay(sender.config.position, state.config.position);
                    queue.schedule_reserved(
                        arrival,
                        id,
                        SimEvent::RxStart {
                            node: other,
                            tx_id,
                            mean_dbm,
                        },
                    );
                    tx.scheduled.push(other);
                    scheduled += 1;
                }
            }
        }
        if let Some(tracker) = delivery {
            let peers = u32::try_from(nodes.len().saturating_sub(1)).unwrap_or(u32::MAX);
            let suppressed = peers.saturating_sub(scheduled + culled + elided);
            tracker.on_tx(
                tx_id,
                channel.index(),
                scheduled,
                culled,
                elided,
                suppressed,
            );
        }
        let pushed = self.on_air.push(tx);
        debug_assert_eq!(pushed, tx_id, "tx ids are dense");
        TxHandle {
            start: now,
            end,
            id: tx_id,
        }
    }

    pub(crate) fn start_rx(
        &mut self,
        node: NodeId,
        channel: Channel,
        filter: AccessFilter,
        crc_init: u32,
    ) {
        let now = self.now();
        // Opening the receiver mid-transmission is a protocol-machine bug —
        // debug builds assert; release builds (and shared-radio nodes, where
        // overlapping requests from independent machines are expected) ignore
        // the request and let the transmission finish.
        if matches!(self.node_state(node).radio, RadioState::Tx { .. }) {
            invariant!(
                self.node_state(node).config.shared_radio,
                "half-duplex",
                "{}: start_rx() while transmitting",
                self.node_label(node)
            );
            return;
        }
        // Maintain the per-channel listener index across the retune. The
        // same-channel re-open (the reopen-after-frame hot path) skips the
        // sorted-Vec edits entirely, keeping steady-state delivery
        // allocation-free.
        let prev = match self.node_state(node).radio {
            RadioState::Rx { channel, .. } => Some(channel),
            _ => None,
        };
        if prev != Some(channel) {
            if let Some(old) = prev {
                Self::listeners_remove(&mut self.listeners, old, node);
            }
            Self::listeners_insert(&mut self.listeners, channel, node);
        }
        self.node_state_mut(node).radio = RadioState::Rx {
            channel,
            filter,
            crc_init,
            lock: None,
        };
        // The retune may make elided edges of in-flight frames live.
        self.schedule_live_edges(node);
        // Late lock: a frame whose preamble began moments ago can still be
        // caught — required for window semantics where a receiver opens
        // just in time.
        let phy = self.node_state(node).config.phy;
        let grace = phy.preamble_duration() / 4;
        let rx_pos = self.node_state(node).config.position;
        let mut best: Option<(u64, Instant, NodeId)> = None;
        for (tx_id, tx) in self.on_air.on_channel(channel) {
            if tx.from == node || tx.phy != phy {
                continue;
            }
            let from_pos = self.node_state(tx.from).config.position;
            let delay = self.env.propagation_delay(from_pos, rx_pos);
            let arrival = tx.start + delay;
            if arrival <= now
                && now <= arrival + grace
                && tx.end + delay > now
                && filter.matches(tx.frame.access_address)
                && best.is_none_or(|(_, a, _)| arrival < a)
            {
                best = Some((tx_id, arrival, tx.from));
            }
        }
        let Some((tx_id, arrival, from)) = best else {
            return;
        };
        let mean_dbm = link_mean_dbm(&self.env, self.node_state(from), self.node_state(node));
        if let Some(signal_dbm) = self.received_power_from_mean(mean_dbm) {
            if self.try_lock(node, tx_id, arrival, signal_dbm) {
                self.queue
                    .schedule_at(now, SimEvent::LateSync { node, tx_id });
            }
        }
    }

    /// Queues, under its reserved key, every `RxStart` edge of an in-flight
    /// frame that sharded delivery elided for `node` and that its radio
    /// can now act on ([`NodeState::edge_live`]). Called after each change
    /// that can make an edge live: `start_rx` (the node opened, retuned or
    /// changed its filter) and `try_lock` (it locked). Only keys still
    /// ahead of the event being processed are queued — an edge whose key
    /// already passed fired, under broadcast delivery, into a radio it
    /// could not affect. No-op under [`DeliveryMode::FullBroadcast`],
    /// which queued every edge at transmit time.
    fn schedule_live_edges(&mut self, node: NodeId) {
        if self.delivery_mode != DeliveryMode::Sharded {
            return;
        }
        let SimInner {
            on_air,
            env,
            nodes,
            queue,
            delivery,
            ..
        } = self;
        let Some(rx) = nodes.get(node.0) else {
            return;
        };
        // Only frames on the channel the radio listens on can be live.
        let RadioState::Rx { channel, .. } = rx.radio else {
            return;
        };
        on_air.for_each_on_channel_mut(channel, |tx_id, tx| {
            if tx.from == node
                || !rx.edge_live(tx.channel, tx.frame.access_address, tx.phy)
                || tx.scheduled.iter().any(|&n| n == node)
            {
                return;
            }
            let Some(sender) = nodes.get(tx.from.0) else {
                return;
            };
            let arrival =
                tx.start + env.propagation_delay(sender.config.position, rx.config.position);
            let Some(id) = tx.edge_id(node).filter(|&id| queue.is_ahead(arrival, id)) else {
                return;
            };
            let mean_dbm = link_mean_dbm(env, sender, rx);
            if !env.reachable_mean_dbm(mean_dbm) {
                return;
            }
            queue.schedule_reserved(
                arrival,
                id,
                SimEvent::RxStart {
                    node,
                    tx_id,
                    mean_dbm,
                },
            );
            tx.scheduled.push(node);
            if let Some(tracker) = delivery.as_mut() {
                tracker.on_late_scheduled(tx_id);
            }
        });
    }

    /// Attempts to lock `node`'s receiver onto transmission `tx_id` whose
    /// leading edge arrived at `arrival`, received at `signal_dbm` (one
    /// drawn per-frame realisation). Returns whether the lock happened.
    fn try_lock(&mut self, node: NodeId, tx_id: u64, arrival: Instant, signal_dbm: f64) -> bool {
        let (tx_start, tx_end) = {
            let Some(tx) = self.on_air.get(tx_id) else {
                invariant!(false, "tx-id", "try_lock on unknown transmission #{tx_id}");
                return false;
            };
            (tx.start, tx.end)
        };
        if signal_dbm < self.env.sensitivity_dbm {
            return false;
        }
        if self.faults.enabled() {
            // Frame-loss rules kill the preamble before sync: the receiver
            // never locks and keeps listening (its own window-close timers
            // handle the silence).
            let rx_channel = match &self.node_state(node).radio {
                RadioState::Rx { channel, .. } => Some(channel.index()),
                _ => None,
            };
            if let Some(ch) = rx_channel {
                if self.faults.draw_loss(arrival, ch) {
                    self.emit(arrival, Some(node), || TelemetryEvent::FaultFrame {
                        kind: FaultKind::Loss,
                        channel: ch,
                    });
                    return false;
                }
            }
        }
        let lock_end = arrival + (tx_end - tx_start);
        // Frames that started earlier and are still in the air interfere
        // from the very start of this lock.
        let interference = self.scan_existing_interference(node, tx_id, arrival, lock_end);
        let (channel, relock) = {
            let RadioState::Rx { lock, channel, .. } = &mut self.node_state_mut(node).radio else {
                return false;
            };
            let relock = lock.is_some();
            *lock = Some(RxLock {
                tx_id,
                arrival,
                end: lock_end,
                signal_dbm,
                interference,
            });
            (*channel, relock)
        };
        self.queue
            .schedule_at(lock_end, SimEvent::RxEnd { node, tx_id });
        // A locked radio reacts to every audible frame on its channel.
        // A relock changes nothing here: those edges are queued already.
        if !relock {
            self.schedule_live_edges(node);
        }
        self.emit(arrival, Some(node), || TelemetryEvent::RxLock {
            channel: channel.index(),
        });
        if let Some(tracker) = &mut self.delivery {
            tracker.on_heard(tx_id);
        }
        true
    }

    /// Interference from transmissions already on the air at lock time.
    fn scan_existing_interference(
        &mut self,
        node: NodeId,
        locked_tx: u64,
        window_start: Instant,
        window_end: Instant,
    ) -> InterferenceBuf {
        let mut out = InterferenceBuf::empty();
        let channel = match self.on_air.get(locked_tx) {
            Some(tx) => tx.channel,
            None => return out,
        };
        // Split-field borrow: candidate geometry reads `on_air`/`nodes`/`env`,
        // the fading draw needs `rng` — disjoint fields, single pass, no
        // intermediate collection. Fading is drawn per overlapping candidate
        // in the channel index's ascending tx-id (= transmission start)
        // order: the RNG draw sequence is a pure function of the simulation
        // history.
        let SimInner {
            on_air,
            env,
            nodes,
            rng,
            faults,
            ..
        } = self;
        let fault_fade_db = if faults.enabled() {
            faults.fading_db(window_start)
        } else {
            0.0
        };
        let Some(rx) = nodes.get(node.0) else {
            return out;
        };
        for (id, tx) in on_air.on_channel(channel) {
            if id == locked_tx || tx.from == node {
                continue;
            }
            let Some(tx_state) = nodes.get(tx.from.0) else {
                continue;
            };
            let delay = env.propagation_delay(tx_state.config.position, rx.config.position);
            let arrival = tx.start + delay;
            let end = tx.end + delay;
            if arrival <= window_start && end > window_start {
                let overlap = end.min(window_end) - window_start;
                let mean = link_mean_dbm(env, tx_state, rx);
                // Reachability cull, RNG-free and pre-draw: an inaudible
                // interferer is skipped before its fading realisation, in
                // both delivery modes alike.
                if !env.reachable_mean_dbm(mean) {
                    continue;
                }
                let power_dbm = mean + env.fading_db(rng) - fault_fade_db;
                out.push(Interference { power_dbm, overlap });
            }
        }
        for _ in 0..out.spilled() {
            self.emit(window_start, Some(node), || {
                TelemetryEvent::InterferenceSpill {
                    channel: channel.index(),
                }
            });
        }
        out
    }

    /// Processes the arrival of `tx_id`'s leading edge at `node`. Returns a
    /// sync notification to dispatch if the radio locked on.
    fn handle_rx_start(&mut self, node: NodeId, tx_id: u64, mean_dbm: f64) -> Option<RadioEvent> {
        let now = self.now();
        let (tx_channel, tx_aa, tx_phy, tx_len) = {
            let tx = self.on_air.get(tx_id)?;
            (
                tx.channel,
                tx.frame.access_address,
                tx.phy,
                tx.end - tx.start,
            )
        };
        let (already_locked, accepts) = {
            let state = self.node_state(node);
            let RadioState::Rx {
                channel,
                lock,
                filter,
                ..
            } = &state.radio
            else {
                return None;
            };
            if *channel != tx_channel {
                return None;
            }
            (
                lock.is_some(),
                state.config.phy == tx_phy && filter.matches(tx_aa),
            )
        };
        let sync = RadioEvent::SyncDetected {
            channel: tx_channel,
            access_address: tx_aa,
            at: now,
        };
        if already_locked {
            // Reachability cull — identical RNG-free predicate as the
            // sharded fan-out, checked *before* the power draw so both
            // delivery modes consume the same random stream.
            let power_dbm = self.received_power_from_mean(mean_dbm)?;
            // A dominant late arrival steals the lock (receiver
            // re-synchronisation): the previously locked frame is lost.
            let steals = {
                let RadioState::Rx {
                    lock: Some(lock), ..
                } = &self.node_state(node).radio
                else {
                    return None;
                };
                power_dbm >= lock.signal_dbm + self.env.capture.relock_threshold_db
            };
            if steals && accepts {
                self.emit(now, Some(node), || TelemetryEvent::Relock {
                    channel: tx_channel.index(),
                });
                return self.try_lock(node, tx_id, now, power_dbm).then_some(sync);
            }
            // Otherwise: interference on the locked reception.
            let RadioState::Rx {
                lock: Some(lock), ..
            } = &mut self.node_state_mut(node).radio
            else {
                return None;
            };
            let mut spilled = false;
            if now < lock.end {
                let overlap = (now + tx_len).min(lock.end) - now;
                spilled = lock.interference.push(Interference { power_dbm, overlap });
            }
            if spilled {
                self.emit(now, Some(node), || TelemetryEvent::InterferenceSpill {
                    channel: tx_channel.index(),
                });
            }
            return None;
        }
        // Unlocked: try to synchronise.
        if !accepts {
            return None;
        }
        let signal_dbm = self.received_power_from_mean(mean_dbm)?;
        self.try_lock(node, tx_id, now, signal_dbm).then_some(sync)
    }

    /// Completes a locked reception. Returns the frame to deliver.
    fn handle_rx_end(&mut self, node: NodeId, tx_id: u64) -> Option<ReceivedFrame> {
        let mut lock = {
            let RadioState::Rx { lock, .. } = &mut self.node_state_mut(node).radio else {
                return None;
            };
            match lock.take() {
                Some(l) if l.tx_id == tx_id => l,
                other => {
                    *lock = other;
                    return None;
                }
            }
        };
        let (channel, rx_crc_init) = match &self.node_state(node).radio {
            RadioState::Rx {
                channel, crc_init, ..
            } => (*channel, *crc_init),
            _ => return None,
        };
        let (tx_crc_init, aa, mut pdu) = {
            let tx = self.on_air.get(tx_id)?;
            // An inline-buffer clone: a stack memcpy, not a heap allocation.
            (
                tx.frame.crc_init,
                tx.frame.access_address,
                tx.frame.pdu.clone(),
            )
        };

        // Injected impairments: interference bursts overlapping the locked
        // reception join the interferer set (and so feed the capture model
        // below), and corruption rules force bit errors outright.
        let mut forced_corruption = false;
        if self.faults.enabled() {
            let ch = channel.index();
            let (arrival, end) = (lock.arrival, lock.end);
            let spill_before = lock.interference.spilled();
            self.faults
                .burst_interference(ch, arrival, end, |power_dbm, overlap| {
                    lock.interference.push(Interference { power_dbm, overlap });
                });
            for _ in 0..lock.interference.spilled().saturating_sub(spill_before) {
                self.emit(end, Some(node), || TelemetryEvent::InterferenceSpill {
                    channel: ch,
                });
            }
            if self.faults.draw_corruption(end, ch) {
                forced_corruption = true;
                self.emit(end, Some(node), || TelemetryEvent::FaultFrame {
                    kind: FaultKind::Corruption,
                    channel: ch,
                });
            }
        }

        // Collision resolution: the locked frame must survive every
        // interferer independently (capture effect). The lock is owned here
        // and the capture model is read straight from the environment — no
        // clones on the delivery path.
        let mut survived = true;
        for i in lock.interference.iter() {
            let sir_db = lock.signal_dbm - i.power_dbm;
            let p = self
                .env
                .capture
                .survival_probability(sir_db, i.overlap.as_micros_f64());
            if !self.rng.chance(p) {
                survived = false;
            }
        }
        if forced_corruption {
            survived = false;
        }
        if !survived && !pdu.is_empty() {
            // Corrupt a few bits so higher layers see garbage that fails CRC.
            let flips = 1 + self.rng.below(3);
            let bit_count = pdu.len() as u64 * 8;
            for _ in 0..flips {
                let bit = usize::try_from(self.rng.below(bit_count)).unwrap_or(0);
                if let Some(byte) = pdu.get_mut(bit / 8) {
                    *byte ^= 1 << (bit % 8);
                }
            }
        }
        let crc_ok = survived && rx_crc_init == tx_crc_init;
        let interferers = u32::try_from(lock.interference.count()).unwrap_or(u32::MAX);
        // `interferers > 0` always held before fault injection existed (a
        // frame only failed capture against at least one interferer); forced
        // corruption can now fail a clean frame, which is reported as
        // `FaultFrame` above rather than a phantom collision.
        if !survived && interferers > 0 {
            self.emit(lock.end, Some(node), || TelemetryEvent::Collision {
                channel: channel.index(),
                interferers,
            });
        }
        self.emit(lock.end, Some(node), || TelemetryEvent::RxEnd {
            channel: channel.index(),
            access_address: aa.value(),
            crc_ok,
            interferers,
        });
        if let Some(tracker) = &mut self.delivery {
            tracker.on_delivered(tx_id);
        }
        Some(ReceivedFrame {
            channel,
            access_address: aa,
            pdu,
            crc_ok,
            rssi_dbm: lock.signal_dbm,
            start: lock.arrival,
            end: lock.end,
        })
    }

    fn finish_tx(&mut self, node: NodeId) -> Option<RadioEvent> {
        let now = self.now();
        match self.node_state(node).radio {
            RadioState::Tx { until } if until <= now => {
                let state = self.node_state_mut(node);
                state.radio = RadioState::Idle;
                let tx_span = state.tx_span;
                state.tx_span = SpanId::DISABLED;
                self.span_exit(now, tx_span);
                self.emit(now, Some(node), || TelemetryEvent::TxEnd);
                Some(RadioEvent::TxDone { at: now })
            }
            _ => None,
        }
    }

    pub(crate) fn stop_rx(&mut self, node: NodeId) {
        let state = self.node_state_mut(node);
        if let RadioState::Rx { channel, .. } = state.radio {
            state.radio = RadioState::Idle;
            Self::listeners_remove(&mut self.listeners, channel, node);
        }
    }

    pub(crate) fn is_receiving(&self, node: NodeId) -> bool {
        matches!(self.node_state(node).radio, RadioState::Rx { .. })
    }

    pub(crate) fn is_transmitting(&self, node: NodeId) -> bool {
        matches!(self.node_state(node).radio, RadioState::Tx { .. })
    }

    pub(crate) fn tx_start_count(&self, node: NodeId) -> u64 {
        self.node_state(node).tx_starts
    }

    pub(crate) fn set_timer_local_from(
        &mut self,
        node: NodeId,
        reference: Instant,
        local_delay: Duration,
        key: TimerKey,
    ) -> TimerHandle {
        let local_delay = if self.faults.enabled() {
            // Drift excursions stretch (or shrink) this node's local clock
            // on top of its configured static drift.
            self.faults.drift_adjusted(node, reference, local_delay)
        } else {
            local_delay
        };
        let at = {
            let state = self.node_state_mut(node);
            let clock = state.config.clock.clone();
            clock.true_after_jittered(reference, local_delay, &mut state.rng)
        };
        TimerHandle(self.queue.schedule_at(at, SimEvent::Timer { node, key }))
    }

    pub(crate) fn set_timer_at(&mut self, node: NodeId, at: Instant, key: TimerKey) -> TimerHandle {
        TimerHandle(self.queue.schedule_at(at, SimEvent::Timer { node, key }))
    }

    pub(crate) fn cancel_timer(&mut self, handle: TimerHandle) {
        self.queue.cancel(handle.0);
    }

    /// Drops transmissions retained past `TX_RETENTION` ([`OnAir::gc`]).
    fn gc(&mut self) {
        let now = self.now();
        self.on_air.gc(now);
    }
}

/// A discrete-event BLE radio simulation: the arena that owns every node.
///
/// The `World` owns each protocol state machine as a `Box<dyn Node>` keyed
/// by the [`NodeId`] returned from [`World::add_node`]. Dispatch borrows
/// the node and the medium as two disjoint fields, so events are delivered
/// with plain `&mut` access — no shared ownership, no runtime borrow
/// checks. Because every node is [`Send`], a fully built world can be moved
/// to another thread wholesale.
///
/// See the crate-level documentation for the overall architecture.
pub struct World {
    inner: SimInner,
    nodes: Vec<Box<dyn Node>>,
}

impl World {
    /// Creates a world with the given environment and random seed source.
    pub fn new(env: Environment, rng: SimRng) -> Self {
        World {
            inner: SimInner {
                queue: EventQueue::new(),
                env,
                nodes: Vec::new(),
                on_air: OnAir::new(),
                rng,
                telemetry: Telemetry::default(),
                faults: FaultState::disabled(),
                delivery_mode: DeliveryMode::default(),
                listeners: vec![Vec::new(); usize::from(Channel::COUNT)],
                delivery: None,
            },
            nodes: Vec::new(),
        }
    }

    /// Selects the frame-delivery scheduling strategy. The two modes are
    /// event-for-event identical (pinned by the `sharding_equivalence`
    /// tests); pick one **before the first transmission** — switching with
    /// frames in flight leaves those frames scheduled under the old
    /// strategy.
    pub fn set_delivery_mode(&mut self, mode: DeliveryMode) {
        self.inner.delivery_mode = mode;
    }

    /// The active frame-delivery strategy.
    pub fn delivery_mode(&self) -> DeliveryMode {
        self.inner.delivery_mode
    }

    /// Attaches a per-packet delivery tracker retaining per-frame ledger
    /// rows for the most recent `capacity` transmissions (older rows are
    /// evicted; the run-wide totals keep counting regardless).
    pub fn enable_delivery_tracker(&mut self, capacity: usize) {
        self.inner.delivery = Some(DeliveryTracker::new(capacity));
    }

    /// The per-packet delivery tracker, when enabled.
    pub fn delivery_tracker(&self) -> Option<&DeliveryTracker> {
        self.inner.delivery.as_ref()
    }

    /// Installs a deterministic [`FaultPlan`] into the medium.
    ///
    /// Call after every [`World::add_node`] so drift excursions can resolve
    /// their node labels. The plan's impairments draw only from the plan's
    /// own seeded RNG; an **empty** plan is a strict no-op — nothing is
    /// scheduled, no RNG stream is touched, and simulation output stays
    /// byte-identical to a world where this was never called.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let state = FaultState::install(plan, |label| {
            self.inner
                .nodes
                .iter()
                .position(|s| s.config.label == label)
                .map(NodeId)
        });
        for (i, m) in state.markers().iter().enumerate() {
            self.inner
                .queue
                .schedule_at(m.at, SimEvent::Fault { marker: i });
        }
        self.inner.faults = state;
    }

    /// Attaches a telemetry sink. [`ble_telemetry::TelemetryEvent::NodeAdded`]
    /// records for nodes that joined *before* attachment are replayed into
    /// the sink first, so every sink can map node indices to labels.
    pub fn add_telemetry_sink(&mut self, mut sink: Box<dyn TelemetrySink>) {
        let now = self.inner.now();
        for (idx, state) in self.inner.nodes.iter().enumerate() {
            sink.emit(&TelemetryRecord {
                at: now,
                node: u32::try_from(idx).ok(),
                event: TelemetryEvent::NodeAdded {
                    label: state.config.label.clone(),
                },
            });
        }
        self.inner.telemetry.add_sink(sink);
    }

    /// Installs the wall clock used for span wall-time attribution — a
    /// monotonic-nanoseconds function injected by the harness (the bench
    /// crate's `wallclock` quarantine) so no protocol crate reads
    /// `std::time` itself. Without a clock, span wall durations read 0.
    pub fn set_span_clock(&mut self, clock: fn() -> u64) {
        self.inner.telemetry.set_span_clock(clock);
    }

    /// Opens a simulation-global span (`node: None`) — e.g. the bench
    /// harness's trial phases. Node-attributed spans are opened through
    /// [`NodeCtx::span_enter`] instead.
    pub fn span_enter(&mut self, kind: SpanKind, detail: u32) -> SpanId {
        let now = self.inner.now();
        self.inner.span_enter(now, None, kind, detail)
    }

    /// Closes a span opened by [`World::span_enter`].
    pub fn span_exit(&mut self, id: SpanId) {
        let now = self.inner.now();
        self.inner.span_exit(now, id);
    }

    /// Flushes every attached telemetry sink (call at end of run before
    /// reading artefacts). Still-open spans are closed first (topmost
    /// first) so sinks always see a balanced enter/exit stream.
    pub fn flush_telemetry(&mut self) {
        let now = self.inner.now();
        self.inner.telemetry.flush_at(now);
    }

    /// Current simulation time.
    pub fn now(&self) -> Instant {
        self.inner.now()
    }

    /// The environment (read-only).
    pub fn env(&self) -> &Environment {
        &self.inner.env
    }

    /// Mutable access to the environment (e.g. to move walls mid-run).
    pub fn env_mut(&mut self) -> &mut Environment {
        &mut self.inner.env
    }

    /// Adds a node to the arena; the world takes ownership and returns the
    /// node's identifier. The node is *not* bootstrapped yet — call
    /// [`World::start`] once every participant is in place.
    pub fn add_node<N: Node>(&mut self, config: NodeConfig, node: N) -> NodeId {
        self.add_boxed_node(config, Box::new(node))
    }

    /// [`World::add_node`] for an already type-erased node.
    pub fn add_boxed_node(&mut self, config: NodeConfig, node: Box<dyn Node>) -> NodeId {
        let rng = self.inner.rng.fork();
        let id = NodeId(self.inner.nodes.len());
        let label = config.label.clone();
        self.inner.nodes.push(NodeState {
            config,
            rng,
            radio: RadioState::Idle,
            tx_span: SpanId::DISABLED,
            tx_starts: 0,
        });
        self.nodes.push(node);
        let now = self.inner.now();
        self.inner
            .emit(now, Some(id), || TelemetryEvent::NodeAdded { label });
        id
    }

    /// Bootstraps one node by invoking its
    /// [`crate::RadioListener::on_start`] hook with a live [`NodeCtx`].
    /// Start order is part of a scenario's deterministic schedule: call
    /// this for every node, in a fixed order, after all `add_node` calls.
    pub fn start(&mut self, node: NodeId) {
        let Some(n) = self.nodes.get_mut(node.0) else {
            invariant!(false, "node-id", "start of unknown NodeId({})", node.0);
            return;
        };
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        n.on_start(&mut ctx);
    }

    /// Typed read access to an arena node. Returns `None` when the id is
    /// unknown or the node is not a `T`.
    pub fn node<T: std::any::Any>(&self, node: NodeId) -> Option<&T> {
        self.nodes.get(node.0)?.as_any().downcast_ref::<T>()
    }

    /// Typed mutable access to an arena node. Returns `None` when the id is
    /// unknown or the node is not a `T`.
    pub fn node_mut<T: std::any::Any>(&mut self, node: NodeId) -> Option<&mut T> {
        self.nodes.get_mut(node.0)?.as_any_mut().downcast_mut::<T>()
    }

    /// Runs a closure with typed mutable access to a node *and* a live
    /// [`NodeCtx`] for it — the arena replacement for the old pattern of
    /// borrowing an `Rc<RefCell<…>>` inside [`World::with_ctx`]. Returns
    /// `None` when the id is unknown or the node is not a `T`.
    pub fn with_node_ctx<T: std::any::Any, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx<'_>) -> R,
    ) -> Option<R> {
        let n = self
            .nodes
            .get_mut(node.0)?
            .as_any_mut()
            .downcast_mut::<T>()?;
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        Some(f(n, &mut ctx))
    }

    /// A node's position.
    pub fn node_position(&self, node: NodeId) -> Position {
        self.inner.node_state(node).config.position
    }

    /// Moves a node (used by the distance-sweep experiments). Move nodes
    /// only while no frame is in flight: the delivery modes stay identical
    /// only if no position changes between a frame's transmit and its
    /// arrivals.
    pub fn set_node_position(&mut self, node: NodeId, position: Position) {
        self.inner.node_state_mut(node).config.position = position;
    }

    /// Runs a closure with a [`NodeCtx`] for `node` — the way device state
    /// machines are bootstrapped (arming their first timer, opening RX).
    pub fn with_ctx<R>(&mut self, node: NodeId, f: impl FnOnce(&mut NodeCtx<'_>) -> R) -> R {
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        f(&mut ctx)
    }

    /// Processes the next pending event. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        self.inner.gc();
        let Some((at, event)) = self.inner.queue.pop() else {
            return false;
        };
        match event {
            SimEvent::Timer { node, key } => {
                self.dispatch(node, RadioEvent::Timer { key, at });
            }
            SimEvent::TxEnd { node } => {
                if let Some(ev) = self.inner.finish_tx(node) {
                    self.dispatch(node, ev);
                }
            }
            SimEvent::RxStart {
                node,
                tx_id,
                mean_dbm,
            } => {
                if let Some(ev) = self.inner.handle_rx_start(node, tx_id, mean_dbm) {
                    self.dispatch(node, ev);
                }
            }
            SimEvent::LateSync { node, tx_id } => {
                let pending = match &self.inner.node_state(node).radio {
                    RadioState::Rx {
                        lock: Some(lock),
                        channel,
                        ..
                    } if lock.tx_id == tx_id => Some((*channel, lock.arrival)),
                    _ => None,
                };
                if let Some((channel, arrival)) = pending {
                    let aa = match self.inner.on_air.get(tx_id) {
                        Some(tx) => tx.frame.access_address,
                        None => return true,
                    };
                    self.dispatch(
                        node,
                        RadioEvent::SyncDetected {
                            channel,
                            access_address: aa,
                            at: arrival,
                        },
                    );
                }
            }
            SimEvent::RxEnd { node, tx_id } => {
                if let Some(frame) = self.inner.handle_rx_end(node, tx_id) {
                    self.dispatch(node, RadioEvent::FrameReceived(frame));
                }
            }
            SimEvent::Fault { marker } => {
                if let Some(m) = self.inner.faults.markers().get(marker).cloned() {
                    self.inner.emit(at, m.node, || m.event);
                }
            }
        }
        true
    }

    /// Runs all events up to and including time `t`, then advances the
    /// clock to `t`.
    pub fn run_until(&mut self, t: Instant) {
        loop {
            match self.inner.queue.peek_time() {
                Some(next) if next <= t => {
                    self.step();
                }
                _ => break,
            }
        }
        self.inner.queue.advance_to(t);
    }

    /// Runs for a span of simulated time from *now*.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    fn dispatch(&mut self, node: NodeId, event: RadioEvent) {
        // Disjoint-field borrow: the node comes out of `self.nodes`, the
        // context wraps `self.inner` — plain `&mut` on the hot path.
        let Some(listener) = self.nodes.get_mut(node.0) else {
            invariant!(false, "node-id", "dispatch to unknown NodeId({})", node.0);
            return;
        };
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        listener.on_event(&mut ctx, event);
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("nodes", &self.inner.nodes.len())
            .field("pending_events", &self.inner.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

    use super::*;
    use crate::radio::RadioListener;

    const AA: AccessAddress = AccessAddress::new(0x50C2_33A1);
    const CRC_INIT: u32 = 0x00AB_CDEF;

    /// A node that ignores every event; tests drive it through `with_ctx`.
    struct Inert;

    impl RadioListener for Inert {
        fn on_event(&mut self, _ctx: &mut NodeCtx<'_>, _event: RadioEvent) {}
    }

    fn lock_of(world: &World, node: NodeId) -> Option<&RxLock> {
        match &world.inner.node_state(node).radio {
            RadioState::Rx { lock, .. } => lock.as_ref(),
            RadioState::Idle | RadioState::Tx { .. } => None,
        }
    }

    /// Asserts the per-channel chains hold exactly the ring's frames: each
    /// id once, on its own channel, ascending, ending at the chain's `last`.
    fn assert_index_matches_ring(on_air: &OnAir) {
        let mut listed = 0;
        for (c, chain) in on_air.chains.iter().enumerate() {
            let channel = Channel::new(u8::try_from(c).unwrap()).unwrap();
            let ids: Vec<u64> = on_air
                .on_channel(channel)
                .map(|(id, tx)| {
                    assert_eq!(tx.channel, channel, "#{id} chained on a wrong channel");
                    id
                })
                .collect();
            assert!(
                ids.iter().zip(ids.iter().skip(1)).all(|(a, b)| a < b),
                "channel {c}: ids not ascending: {ids:?}"
            );
            assert_eq!(ids.first().copied().unwrap_or(NO_TX), chain.first);
            assert_eq!(ids.last().copied().unwrap_or(NO_TX), chain.last);
            listed += ids.len();
        }
        assert_eq!(
            listed,
            on_air.ring.len(),
            "every ring frame is chained once"
        );
    }

    #[test]
    fn finished_frame_behind_a_long_front_is_inert() {
        let mut world = World::new(Environment::indoor_default(), SimRng::seed_from(7));
        world.enable_delivery_tracker(16);
        let coded = world.add_node(
            NodeConfig::new("coded", Position::new(0.0, 0.0)).with_phy(PhyMode::LeCodedS8),
            Inert,
        );
        let short = world.add_node(NodeConfig::new("short", Position::new(1.0, 0.0)), Inert);
        let rx = world.add_node(NodeConfig::new("rx", Position::new(2.0, 0.0)), Inert);
        let fresh_tx = world.add_node(NodeConfig::new("fresh", Position::new(3.0, 0.0)), Inert);
        let (busy, quiet) = (Channel::data_wrapped(3), Channel::data_wrapped(9));

        // A long LE Coded frame goes first, so it is the ring's front; a
        // short 1M frame on another channel follows it onto the air.
        let long = world.with_ctx(coded, |ctx| {
            ctx.transmit(busy, RawFrame::new(AA, vec![0xC0; 200], CRC_INIT))
        });
        let stale = world.with_ctx(short, |ctx| {
            ctx.transmit(quiet, RawFrame::new(AA, vec![0x5A; 4], CRC_INIT))
        });
        let open_at = stale.end + TX_RETENTION + Duration::from_micros(100);
        assert!(long.end > open_at, "the coded frame is still on the air");
        world.run_until(open_at);
        world.inner.gc();
        assert_eq!(
            world.inner.on_air.base, long.id,
            "the coded frame is the front"
        );
        assert!(
            world.inner.on_air.get(stale.id).is_some(),
            "the short frame, off the air for over TX_RETENTION, is stored behind the front"
        );

        // A receiver that accepts the short frame opens on its channel: no
        // late lock and no late edge.
        world.with_ctx(rx, |ctx| {
            ctx.start_rx(quiet, AccessFilter::One(AA), CRC_INIT)
        });
        assert!(
            lock_of(&world, rx).is_none(),
            "no late lock on a finished frame"
        );
        let stale_tx = world.inner.on_air.get(stale.id).expect("still stored");
        assert!(
            !stale_tx.scheduled.iter().any(|&n| n == rx),
            "no late edge for a finished frame"
        );

        // A fresh frame on the same channel locks the receiver, and the
        // finished frame does not count as interference.
        let fresh = world.with_ctx(fresh_tx, |ctx| {
            ctx.transmit(quiet, RawFrame::new(AA, vec![0x11; 4], CRC_INIT))
        });
        world.run_until(open_at + Duration::from_micros(1));
        let lock = lock_of(&world, rx).expect("locked on the fresh frame");
        assert_eq!(lock.tx_id, fresh.id);
        assert_eq!(lock.interference.count(), 0, "a finished frame interferes");
        let totals = world.delivery_tracker().expect("enabled").totals();
        assert_eq!(totals.late_scheduled, 0);
        assert_eq!(totals.frames_heard, 1);
    }

    /// Transmits, retunes or idles at random from its own RNG. One node in
    /// eight sends LE Coded S8, so long frames keep finished short ones
    /// stored behind them.
    struct Chatter {
        channels: u8,
    }

    /// Largest PDU a [`Chatter`] sends.
    const CHATTER_MAX_PDU: u64 = 40;

    impl RadioListener for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            let delay = 1 + ctx.rng().below(20_000);
            ctx.set_timer_local(Duration::from_micros(delay), TimerKey(0));
        }

        fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
            if !matches!(event, RadioEvent::Timer { .. }) {
                return;
            }
            let pick = ctx.rng().below(u64::from(self.channels));
            let channel = Channel::data_wrapped(u8::try_from(pick).unwrap());
            if !ctx.is_transmitting() {
                if ctx.rng().chance(0.5) {
                    let len = 1 + ctx.rng().below(CHATTER_MAX_PDU);
                    let pdu = vec![0xA5; usize::try_from(len).unwrap()];
                    ctx.transmit(channel, RawFrame::new(AA, pdu, CRC_INIT));
                } else {
                    ctx.start_rx(channel, AccessFilter::One(AA), CRC_INIT);
                }
            }
            let delay = 500 + ctx.rng().below(60_000);
            ctx.set_timer_local(Duration::from_micros(delay), TimerKey(0));
        }
    }

    #[test]
    fn ring_stays_within_one_longest_airtime_over_a_long_horizon() {
        let mut world = World::new(Environment::dense_hall(), SimRng::seed_from(41));
        let mut ids = Vec::new();
        for i in 0..128u32 {
            let position = Position::new(f64::from(i % 16) * 2.0, f64::from(i / 16) * 2.0);
            let mut config = NodeConfig::new(format!("n{i}"), position);
            if i % 8 == 0 {
                config = config.with_phy(PhyMode::LeCodedS8);
            }
            ids.push(world.add_node(config, Chatter { channels: 8 }));
        }
        for &id in &ids {
            world.start(id);
        }
        let longest = PhyMode::LeCodedS8.airtime_for_pdu(usize::try_from(CHATTER_MAX_PDU).unwrap());
        let window = longest + TX_RETENTION;
        let horizon = Instant::ZERO + Duration::from_secs(10);
        // Start times of the frames that began within `window` of the last
        // GC, in tx-id order, counted independently of the ring.
        let mut recent: VecDeque<Instant> = VecDeque::new();
        let mut started = 0u64;
        let (mut steps, mut most, mut stored_behind) = (0u64, 0usize, 0u64);
        while world.now() < horizon {
            // `step` runs the GC at the current time, then pops an event.
            let gc_at = world.now();
            if !world.step() {
                break;
            }
            steps += 1;
            let on_air = &world.inner.on_air;
            while started < on_air.next_id() {
                recent.push_back(world.now());
                started += 1;
            }
            let floor = gc_at.saturating_sub(window);
            while recent.front().is_some_and(|&s| s < floor) {
                recent.pop_front();
            }
            assert!(
                on_air.ring.len() <= recent.len(),
                "at {:?}: {} frames stored, {} started within {window:?}",
                world.now(),
                on_air.ring.len(),
                recent.len()
            );
            most = most.max(on_air.ring.len());
            if on_air.ring.iter().any(|tx| tx.end + TX_RETENTION < gc_at) {
                stored_behind += 1;
            }
            assert_index_matches_ring(on_air);
        }
        assert!(world.now() >= horizon, "the world ran the whole horizon");
        assert!(
            started > 10_000,
            "a dense world: {started} frames in {steps} steps"
        );
        assert!(
            most > 4,
            "frames overlapped on the air (at most {most} stored)"
        );
        assert!(
            stored_behind > 0,
            "finished frames waited behind a longer-lived front"
        );
    }
}
