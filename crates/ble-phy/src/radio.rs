//! Radio endpoints: node configuration, events and the listener context.

use std::fmt;

use simkit::{DriftClock, Duration, Instant, SimRng};

use crate::access_address::AccessAddress;
use crate::channel::Channel;
use crate::frame::{RawFrame, ReceivedFrame};
use crate::geometry::Position;
use crate::medium::{SimInner, TxHandle};
use crate::phy_mode::PhyMode;

/// Identifier of a node within a [`crate::World`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index within the simulation.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// User-chosen timer discriminator, echoed back in [`RadioEvent::Timer`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerKey(pub u64);

/// Receiver access-address filtering mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessFilter {
    /// Synchronise only on one access address (normal radio operation).
    One(AccessAddress),
    /// Synchronise on any detectable frame (promiscuous sniffer mode).
    Any,
}

impl AccessFilter {
    /// Whether a frame with the given access address passes the filter.
    pub fn matches(self, aa: AccessAddress) -> bool {
        match self {
            AccessFilter::One(want) => want == aa,
            AccessFilter::Any => true,
        }
    }
}

/// Events delivered to a [`RadioListener`].
///
/// `FrameReceived` carries the inline-PDU [`ReceivedFrame`] by value on
/// purpose: the event is built and consumed on the stack of a single
/// dispatch, and boxing it would put a heap allocation back on every
/// frame delivery (see `bench/tests/alloc_budget.rs`).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RadioEvent {
    /// The receiver synchronised on a frame's preamble and access address.
    /// Delivered at the frame's *start*; the body is still on the air.
    SyncDetected {
        /// Channel the synchronisation happened on.
        channel: Channel,
        /// Access address of the incoming frame.
        access_address: AccessAddress,
        /// Time the frame's leading edge arrived.
        at: Instant,
    },
    /// A complete frame was received (possibly with a failed CRC).
    FrameReceived(ReceivedFrame),
    /// A transmission started earlier has left the antenna.
    TxDone {
        /// Time the last bit left the antenna.
        at: Instant,
    },
    /// A timer armed through [`NodeCtx`] fired.
    Timer {
        /// The key passed when the timer was armed.
        key: TimerKey,
        /// Time the timer fired (true simulation time).
        at: Instant,
    },
}

/// A protocol state machine driving one radio.
///
/// Implementations react to [`RadioEvent`]s and act through the [`NodeCtx`]:
/// transmitting frames, tuning the receiver and arming timers. All BLE
/// roles in this workspace — advertiser, scanner, connection master/slave,
/// the InjectaBLE sniffer and injector — implement this trait.
pub trait RadioListener {
    /// Handles one radio event.
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent);

    /// Bootstraps the node: arm the first timer, open the receiver, send the
    /// first advertisement. Called by [`crate::World::start`] once — *after*
    /// every node has been added, so start order (and thus event-queue and
    /// RNG ordering) is an explicit, reproducible part of a scenario rather
    /// than a side effect of construction. The default does nothing.
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
}

/// An arena-owned simulation node.
///
/// [`crate::World`] stores every node as a `Box<dyn Node>` keyed by its
/// [`NodeId`]; the scheduler dispatches events with plain `&mut` access (no
/// `Rc<RefCell<…>>`, no runtime borrow checks on the per-frame hot path).
/// The `Any` supertrait lets callers recover the concrete type through
/// [`crate::World::node`] / [`crate::World::node_mut`], and the `Send`
/// supertrait keeps whole worlds movable across threads for process-level
/// trial fan-out.
///
/// Implemented automatically for every `RadioListener + Any + Send` type —
/// implement [`RadioListener`] and the arena takes care of the rest.
pub trait Node: RadioListener + std::any::Any + Send {
    /// Type-erased read access (for downcasting).
    fn as_any(&self) -> &dyn std::any::Any;
    /// Type-erased mutable access (for downcasting).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: RadioListener + std::any::Any + Send> Node for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Static configuration of a simulation node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    pub(crate) label: String,
    pub(crate) position: Position,
    pub(crate) tx_power_dbm: f64,
    pub(crate) clock: DriftClock,
    pub(crate) phy: PhyMode,
    pub(crate) shared_radio: bool,
}

impl NodeConfig {
    /// Creates a node at `position` with defaults: 0 dBm transmit power, an
    /// ideal clock and the LE 1M PHY.
    pub fn new(label: impl Into<String>, position: Position) -> Self {
        NodeConfig {
            label: label.into(),
            position,
            tx_power_dbm: 0.0,
            clock: DriftClock::ideal(),
            phy: PhyMode::Le1M,
            shared_radio: false,
        }
    }

    /// Declares the node's radio as time-multiplexed between several
    /// protocol state machines (e.g. a multi-connection Central running one
    /// Link Layer per connection slot).
    ///
    /// A single-machine node treats a transmit or receive request while
    /// already transmitting as a protocol bug (debug builds assert). A
    /// shared radio cannot globally schedule its independent machines, so
    /// overlapping requests are expected there: the in-flight frame is
    /// abandoned mid-air (it keeps interfering, like a real collision) and
    /// the radio retunes to the new request.
    pub fn with_shared_radio(mut self) -> Self {
        self.shared_radio = true;
        self
    }

    /// Sets the transmit power in dBm.
    pub fn with_tx_power(mut self, dbm: f64) -> Self {
        self.tx_power_dbm = dbm;
        self
    }

    /// Sets the node's sleep clock.
    pub fn with_clock(mut self, clock: DriftClock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the PHY mode used for transmissions.
    pub fn with_phy(mut self, phy: PhyMode) -> Self {
        self.phy = phy;
        self
    }
}

/// Handle to a pending timer, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle(pub(crate) simkit::EventId);

/// The capability handle a listener acts through while processing an event.
///
/// All methods operate on the listener's own node. The context exposes the
/// node's drifting sleep clock: `set_timer_local*` converts local delays to
/// true simulation time through that clock (with jitter), which is how clock
/// inaccuracy — the root cause of window widening — enters the simulation.
pub struct NodeCtx<'a> {
    pub(crate) node: NodeId,
    pub(crate) sim: &'a mut SimInner,
}

impl<'a> NodeCtx<'a> {
    /// Current true simulation time.
    pub fn now(&self) -> Instant {
        self.sim.now()
    }

    /// This node's identifier.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// This node's label.
    pub fn label(&self) -> &str {
        self.sim.node_label(self.node)
    }

    /// This node's sleep clock.
    pub fn clock(&self) -> &DriftClock {
        self.sim.node_clock(self.node)
    }

    /// This node's PHY mode.
    pub fn phy(&self) -> PhyMode {
        self.sim.node_phy(self.node)
    }

    /// This node's deterministic random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.sim.node_rng(self.node)
    }

    /// Starts transmitting `frame` on `channel` immediately.
    ///
    /// Any reception in progress is abandoned (the radio is half-duplex).
    /// Calling this while already transmitting is a protocol-machine bug:
    /// debug builds assert, release builds retune to the new frame.
    pub fn transmit(&mut self, channel: Channel, frame: RawFrame) -> TxHandle {
        self.sim.transmit(self.node, channel, frame)
    }

    /// Opens the receiver on `channel`, synchronising on frames that pass
    /// `filter`; `crc_init` is used for CRC validation of received frames.
    ///
    /// If a frame's preamble began no more than a quarter preamble ago, the
    /// receiver still locks onto it — opening the window "just in time"
    /// works, as it must for window-widening semantics.
    ///
    /// Calling this while transmitting is a protocol-machine bug: debug
    /// builds assert, release builds ignore the request.
    pub fn start_rx(&mut self, channel: Channel, filter: AccessFilter, crc_init: u32) {
        self.sim.start_rx(self.node, channel, filter, crc_init);
    }

    /// Closes the receiver.
    pub fn stop_rx(&mut self) {
        self.sim.stop_rx(self.node);
    }

    /// Whether the radio is currently in receive mode.
    pub fn is_receiving(&self) -> bool {
        self.sim.is_receiving(self.node)
    }

    /// Whether the radio is currently transmitting.
    pub fn is_transmitting(&self) -> bool {
        self.sim.is_transmitting(self.node)
    }

    /// How many transmissions this node has started since the simulation
    /// began. A multiplexer sharing the radio between several protocol
    /// machines compares this across a machine's event handling to learn
    /// which machine owns the in-flight transmission (and therefore the
    /// next `TxDone`) — an `is_transmitting()` edge misses a back-to-back
    /// replacement, where the flag reads `true` on both sides.
    pub fn tx_start_count(&self) -> u64 {
        self.sim.tx_start_count(self.node)
    }

    /// Arms a timer `local_delay` (by this node's clock) from *now*, with
    /// clock drift and wake-up jitter applied.
    pub fn set_timer_local(&mut self, local_delay: Duration, key: TimerKey) -> TimerHandle {
        let now = self.now();
        self.set_timer_local_from(now, local_delay, key)
    }

    /// Arms a timer `local_delay` (by this node's clock) from an arbitrary
    /// reference instant — typically an observed anchor point. This is the
    /// primitive BLE connection timing is built on.
    pub fn set_timer_local_from(
        &mut self,
        reference: Instant,
        local_delay: Duration,
        key: TimerKey,
    ) -> TimerHandle {
        self.sim
            .set_timer_local_from(self.node, reference, local_delay, key)
    }

    /// Arms a timer at an exact true simulation time (no drift or jitter).
    /// Intended for tests and for omniscient instrumentation.
    pub fn set_timer_at(&mut self, at: Instant, key: TimerKey) -> TimerHandle {
        self.sim.set_timer_at(self.node, at, key)
    }

    /// Cancels a pending timer. Cancelling one that already fired is a
    /// no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.sim.cancel_timer(handle);
    }

    /// Emits a typed telemetry event attributed to this node, timestamped
    /// *now*. The closure only runs when a sink is attached.
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> ble_telemetry::TelemetryEvent) {
        let now = self.now();
        self.sim.emit(now, Some(self.node), build);
    }

    /// Emits a typed telemetry event at an explicit timestamp (e.g. a
    /// received frame's on-air start rather than its processing time).
    #[inline]
    pub fn emit_at(&mut self, at: Instant, build: impl FnOnce() -> ble_telemetry::TelemetryEvent) {
        self.sim.emit(at, Some(self.node), build);
    }

    /// Opens a hierarchical span attributed to this node, timestamped
    /// *now*. Returns [`ble_telemetry::SpanId::DISABLED`] (making the
    /// matching exit a no-op) when no telemetry sink is attached — the
    /// disabled path is a branch-and-return like [`NodeCtx::emit`].
    #[inline]
    pub fn span_enter(
        &mut self,
        kind: ble_telemetry::SpanKind,
        detail: u32,
    ) -> ble_telemetry::SpanId {
        let now = self.now();
        self.sim.span_enter(now, Some(self.node), kind, detail)
    }

    /// Closes a span opened by [`NodeCtx::span_enter`], timestamped *now*.
    #[inline]
    pub fn span_exit(&mut self, id: ble_telemetry::SpanId) {
        let now = self.now();
        self.sim.span_exit(now, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_filter_matching() {
        let aa = AccessAddress::new(0x12345678);
        assert!(AccessFilter::One(aa).matches(aa));
        assert!(!AccessFilter::One(aa).matches(AccessAddress::ADVERTISING));
        assert!(AccessFilter::Any.matches(aa));
    }

    #[test]
    fn node_config_builder() {
        let cfg = NodeConfig::new("bulb", Position::new(1.0, 2.0))
            .with_tx_power(8.0)
            .with_phy(PhyMode::Le2M);
        assert_eq!(cfg.tx_power_dbm, 8.0);
        assert_eq!(cfg.phy, PhyMode::Le2M);
        assert_eq!(cfg.label, "bulb");
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "node#3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
