//! Sharded vs full-broadcast delivery equivalence.
//!
//! [`DeliveryMode::FullBroadcast`] schedules an `RxStart` at every node for
//! every frame — the medium's original O(nodes) behaviour, retained as the
//! oracle. [`DeliveryMode::Sharded`] only schedules edges the receiver can
//! act on — current listeners on the frame's channel that are locked or
//! filtered to accept the frame, and that clear the reachability cull — and
//! queues an elided edge late, under its reserved key, when the receiver
//! opens, retunes or locks before the frame arrives. The two must be
//! **event-for-event identical**: the sharded path may only skip edges the
//! broadcast path would have discarded without any state or RNG effect.
//!
//! The oracle check runs randomized dense worlds — nodes that transmit,
//! retune, and close their receivers at random times on random channels —
//! under both modes at fixed seeds and compares every telemetry record
//! plus every node's received-event log. Worlds use both the indoor
//! environment (cull never fires) and the dense hall at stadium scale (cull
//! active on far pairs), so equivalence is pinned on both sides of the
//! horizon. A 200-world corpus mixes access addresses and spreads nodes up
//! to 2 km apart so late scheduling fires. Directed worlds pin the cases
//! late scheduling must get exactly right: a foreign-address frame reaching
//! a receiver that locked after its `TxStart`, a late edge tied at one
//! instant with an edge queued at `TxStart`, a receiver opening at the
//! very instant a frame arrives, and a node added while a frame is in
//! flight.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_phy::{
    AccessAddress, AccessFilter, Channel, DeliveryMode, Environment, NodeConfig, NodeCtx, Position,
    RadioEvent, RadioListener, RawFrame, TimerKey, World,
};
use ble_telemetry::{DeliveryTotals, RingBufferSink, SharedRing};
use simkit::{Duration, Instant, SimRng};

const AA: AccessAddress = AccessAddress::new(0x50C2_33A1);
/// A second access address: frames carrying it are foreign to receivers
/// filtered to [`AA`], and vice versa.
const AA_OTHER: AccessAddress = AccessAddress::new(0x71A4_B2C6);
const CRC_INIT: u32 = 0xABCDEF;
/// Ring capacity well above any world's record count, so nothing is evicted.
const RING_CAPACITY: usize = 1 << 20;

/// Attaches a ring sink that captures every telemetry record of `sim`.
fn record_telemetry(sim: &mut World) -> SharedRing {
    let sink = RingBufferSink::new(RING_CAPACITY);
    let ring = sink.handle();
    sim.add_telemetry_sink(Box::new(sink));
    ring
}

/// Every captured record, rendered with `Debug` so each event field is
/// compared.
fn rendered(ring: &SharedRing) -> Vec<String> {
    let ring = ring.lock();
    assert_eq!(ring.evicted(), 0, "ring too small for the world");
    ring.iter().map(|r| format!("{r:?}")).collect()
}

/// A node that transmits, retunes, closes its receiver, or idles at random
/// (from its own forked RNG), recording every radio event it observes. The
/// action stream is a pure function of the event schedule and the node's
/// RNG, so any divergence between delivery modes cascades into the log.
struct Chatterbox {
    marker: u8,
    /// Access address of every frame this node sends.
    aa: AccessAddress,
    /// Receive filter of every `start_rx`.
    filter: AccessFilter,
    /// Actions pick a channel among the first `channels` data channels.
    channels: u8,
    log: Vec<String>,
}

impl RadioListener for Chatterbox {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        self.log.push(format!("{event:?}"));
        if let RadioEvent::Timer { .. } = event {
            let pick = ctx.rng().below(u64::from(self.channels));
            let channel = Channel::data_wrapped(u8::try_from(pick).unwrap());
            match ctx.rng().below(10) {
                0..=3 if !ctx.is_transmitting() => {
                    let frame = RawFrame::new(self.aa, vec![self.marker; 12], CRC_INIT);
                    ctx.transmit(channel, frame);
                }
                4..=7 if !ctx.is_transmitting() => {
                    ctx.start_rx(channel, self.filter, CRC_INIT);
                }
                8 => ctx.stop_rx(),
                _ => {}
            }
            let delay = 50 + ctx.rng().below(300);
            ctx.set_timer_local(Duration::from_micros(delay), TimerKey(1));
        }
    }
}

/// One randomized world: its seed, size and how long it runs.
struct Spec {
    seed: u64,
    nodes: usize,
    span_m: f64,
    env: Environment,
    run: Duration,
    /// Data channels the nodes spread over.
    channels: u8,
    /// Give each node one of two access addresses and either an open or a
    /// matching single-address filter, so sharded delivery elides edges of
    /// foreign-address frames. Otherwise every node sends [`AA`] and
    /// listens with [`AccessFilter::Any`].
    mixed_aa: bool,
}

impl Spec {
    fn new(seed: u64, nodes: usize, span_m: f64, env: Environment) -> Self {
        Spec {
            seed,
            nodes,
            span_m,
            env,
            run: Duration::from_millis(50),
            channels: 37,
            mixed_aa: false,
        }
    }
}

/// Builds and runs one randomized world; returns its telemetry records and
/// every node's event log, both rendered to strings.
fn run_world(spec: &Spec, mode: DeliveryMode) -> Vec<String> {
    run_world_tracked(spec, mode).0
}

/// [`run_world`], also returning the world's delivery-ledger totals.
fn run_world_tracked(spec: &Spec, mode: DeliveryMode) -> (Vec<String>, DeliveryTotals) {
    let mut sim = World::new(spec.env.clone(), SimRng::seed_from(spec.seed));
    sim.set_delivery_mode(mode);
    let ring = record_telemetry(&mut sim);
    sim.enable_delivery_tracker(1);
    // Positions come from a dedicated RNG so both modes build the same
    // geometry without touching the world's stream.
    let mut layout = SimRng::seed_from(spec.seed ^ 0x9E37_79B9);
    let mut ids = Vec::new();
    for i in 0..spec.nodes {
        let x = layout.below(1_000) as f64 / 1_000.0 * spec.span_m;
        let y = layout.below(1_000) as f64 / 1_000.0 * spec.span_m;
        let marker = u8::try_from(i % 251).unwrap();
        let (aa, filter) = if spec.mixed_aa {
            let aa = if layout.chance(0.5) { AA } else { AA_OTHER };
            let filter = if layout.chance(0.25) {
                AccessFilter::Any
            } else {
                AccessFilter::One(aa)
            };
            (aa, filter)
        } else {
            (AA, AccessFilter::Any)
        };
        ids.push(sim.add_node(
            NodeConfig::new(format!("n{i}"), Position::new(x, y)),
            Chatterbox {
                marker,
                aa,
                filter,
                channels: spec.channels,
                log: Vec::new(),
            },
        ));
    }
    // Staggered first ticks so transmissions overlap but never start in
    // lockstep.
    for (i, id) in ids.iter().enumerate() {
        sim.with_ctx(*id, |ctx| {
            ctx.set_timer_local(Duration::from_micros(10 + 7 * i as u64), TimerKey(1));
        });
    }
    sim.run_for(spec.run);
    let totals = sim.delivery_tracker().expect("tracker enabled").totals();
    let mut out = rendered(&ring);
    for id in ids {
        let node = sim.node::<Chatterbox>(id).expect("chatterbox");
        out.push(format!("--- node {}", node.marker));
        out.extend(node.log.iter().cloned());
    }
    (out, totals)
}

#[test]
fn sharded_delivery_matches_the_broadcast_oracle_indoors() {
    // Indoor scale: every pair is far inside the cull horizon, so this
    // pins pure scheduling equivalence (listener index + pending scan).
    for seed in [3u64, 41, 1234] {
        let spec = Spec::new(seed, 16, 30.0, Environment::indoor_default());
        let broadcast = run_world(&spec, DeliveryMode::FullBroadcast);
        let sharded = run_world(&spec, DeliveryMode::Sharded);
        assert!(
            broadcast
                .iter()
                .any(|l| l.contains("RxEnd") || l.contains("rx-end")),
            "world must actually deliver frames (seed {seed})"
        );
        assert_eq!(
            broadcast, sharded,
            "sharded delivery diverged from the broadcast oracle (seed {seed})"
        );
    }
}

#[test]
fn sharded_delivery_matches_the_broadcast_oracle_with_active_culling() {
    // Stadium scale in the dense hall: the ~300 m cull horizon cuts
    // through the node cloud, so both reachable and culled pairs are
    // exercised — the cull must fire identically in both modes.
    for seed in [7u64, 99] {
        let spec = Spec::new(seed, 24, 800.0, Environment::dense_hall());
        let broadcast = run_world(&spec, DeliveryMode::FullBroadcast);
        let sharded = run_world(&spec, DeliveryMode::Sharded);
        assert_eq!(
            broadcast, sharded,
            "culling diverged between delivery modes (seed {seed})"
        );
    }
}

#[test]
fn sharded_delivery_matches_the_broadcast_oracle_over_a_200_world_corpus() {
    // Mixed access addresses make sharded delivery elide edges of foreign
    // frames; a 2 km span puts up to 9 µs between a frame's `TxStart` and
    // its arrival, and three shared channels keep traffic co-channel, so
    // receivers open, retune and lock while frames are in flight and the
    // elided edges must be queued late.
    let mut late = 0;
    let mut elided = 0;
    for seed in 0..200u64 {
        let spec = Spec {
            run: Duration::from_millis(8),
            channels: 3,
            mixed_aa: true,
            ..Spec::new(seed, 10, 2_000.0, Environment::indoor_default())
        };
        let broadcast = run_world(&spec, DeliveryMode::FullBroadcast);
        let (sharded, totals) = run_world_tracked(&spec, DeliveryMode::Sharded);
        assert_eq!(
            broadcast, sharded,
            "sharded delivery diverged from the broadcast oracle (seed {seed})"
        );
        late += totals.late_scheduled;
        elided += totals.elided;
    }
    assert!(elided > 0, "the corpus must elide edges");
    assert!(late > 0, "the corpus must schedule elided edges late");
}

/// A scripted node: optionally listens on [`CH`] with a fixed filter —
/// from the start, or from `open_at` — re-opening after every reception,
/// transmits the listed frames at fixed times, and logs every radio event.
#[derive(Default)]
struct Scripted {
    listen: Option<AccessFilter>,
    /// When the receiver first opens (`None`: at start).
    open_at: Option<Instant>,
    /// `(µs, access address, PDU length)` of each transmission.
    sends: Vec<(u64, AccessAddress, usize)>,
    log: Vec<String>,
}

const CH: Channel = Channel::data_wrapped(5);
/// Timer key of [`Scripted::open_at`].
const OPEN: TimerKey = TimerKey(u64::MAX);

impl RadioListener for Scripted {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        match (self.listen, self.open_at) {
            (Some(_), Some(at)) => {
                ctx.set_timer_at(at, OPEN);
            }
            (Some(filter), None) => ctx.start_rx(CH, filter, CRC_INIT),
            (None, _) => {}
        }
        for (i, &(at, _, _)) in self.sends.iter().enumerate() {
            ctx.set_timer_at(Instant::from_micros(at), TimerKey(i as u64));
        }
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        self.log.push(format!("{event:?}"));
        match event {
            RadioEvent::Timer { key: OPEN, .. } => {
                if let Some(filter) = self.listen {
                    ctx.start_rx(CH, filter, CRC_INIT);
                }
            }
            RadioEvent::Timer { key, .. } => {
                let (_, aa, len) = self.sends[usize::try_from(key.0).unwrap()];
                ctx.transmit(CH, RawFrame::new(aa, vec![0x5A; len], CRC_INIT));
            }
            RadioEvent::FrameReceived(_) => {
                if let Some(filter) = self.listen {
                    ctx.start_rx(CH, filter, CRC_INIT);
                }
            }
            _ => {}
        }
    }
}

/// Runs a scripted world of `(label, position, tx power, node)` entries
/// under `mode`; returns the rendered records and every node's log, plus the
/// delivery-ledger totals.
fn run_scripted(
    seed: u64,
    nodes: Vec<(&str, Position, f64, Scripted)>,
    mode: DeliveryMode,
) -> (Vec<String>, DeliveryTotals) {
    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(seed));
    sim.set_delivery_mode(mode);
    let ring = record_telemetry(&mut sim);
    sim.enable_delivery_tracker(16);
    let ids: Vec<_> = nodes
        .into_iter()
        .map(|(label, pos, power, node)| {
            sim.add_node(NodeConfig::new(label, pos).with_tx_power(power), node)
        })
        .collect();
    for &id in &ids {
        sim.start(id);
    }
    sim.run_for(Duration::from_millis(3));
    let mut out = rendered(&ring);
    for id in ids {
        out.push(format!("--- node {id:?}"));
        out.extend(
            sim.node::<Scripted>(id)
                .expect("scripted")
                .log
                .iter()
                .cloned(),
        );
    }
    (
        out,
        sim.delivery_tracker().expect("tracker enabled").totals(),
    )
}

/// Asserts both delivery modes agree on a scripted world and returns the
/// sharded run's ledger totals and records.
fn scripted_in_both_modes(
    seed: u64,
    world: impl Fn() -> Vec<(&'static str, Position, f64, Scripted)>,
) -> (Vec<String>, DeliveryTotals) {
    let (broadcast, _) = run_scripted(seed, world(), DeliveryMode::FullBroadcast);
    let (sharded, totals) = run_scripted(seed, world(), DeliveryMode::Sharded);
    assert_eq!(
        broadcast, sharded,
        "sharded delivery diverged from the broadcast oracle (seed {seed})"
    );
    (sharded, totals)
}

#[test]
fn foreign_frame_reaching_a_listener_that_locked_after_its_tx_start_interferes() {
    // `far` (400 m, ~1.3 µs away) sends a frame carrying a foreign access
    // address at t = 100 µs: the unlocked listener, filtered to `AA`,
    // cannot react to it, so sharded delivery elides its edge. In the
    // same instant `near` (30 m away) sends an `AA` frame, which the
    // listener locks onto ~0.1 µs later — before the foreign frame
    // arrives. From then on the foreign frame is interference: its edge
    // must be queued at lock time, and its fading draw must come out of
    // the world's stream exactly where the broadcast edge drew it.
    let world = || {
        vec![
            (
                "far",
                Position::new(400.0, 0.0),
                20.0,
                Scripted {
                    sends: vec![(100, AA_OTHER, 30)],
                    ..Scripted::default()
                },
            ),
            (
                "near",
                Position::new(0.0, 30.0),
                0.0,
                Scripted {
                    sends: vec![(100, AA, 30)],
                    ..Scripted::default()
                },
            ),
            (
                "listener",
                Position::ORIGIN,
                0.0,
                Scripted {
                    listen: Some(AccessFilter::One(AA)),
                    ..Scripted::default()
                },
            ),
        ]
    };
    for seed in 0..20 {
        let (records, totals) = scripted_in_both_modes(seed, world);
        assert_eq!(
            totals.late_scheduled, 1,
            "the elided edge is queued at lock"
        );
        assert!(
            records
                .iter()
                .any(|l| l.contains("RxEnd {") && l.contains("interferers: 1")),
            "the foreign frame must interfere with the locked one (seed {seed})"
        );
    }
}

#[test]
fn late_edge_tied_with_an_edge_queued_at_tx_start_keeps_broadcast_order() {
    // `tx` sends a frame at t = 150 µs that reaches `a` and `b`, both 400 m
    // away, at the same instant. `a` is already locked (on `near_a`'s long
    // frame), so its edge is queued at `TxStart`; `b` is unlocked and
    // filtered to `AA`, foreign to both earlier frames, so its edge is
    // elided until `b` locks on `near_b`'s frame ~0.1 µs later. `b` has the lower node id, so the
    // broadcast oracle fires `b`'s edge first — the late edge must sort
    // ahead of the early one, not behind it, or the two fading draws swap.
    let world = || {
        vec![
            (
                "tx",
                Position::ORIGIN,
                20.0,
                Scripted {
                    sends: vec![(150, AA_OTHER, 30)],
                    ..Scripted::default()
                },
            ),
            (
                "b",
                Position::new(0.0, 400.0),
                0.0,
                Scripted {
                    listen: Some(AccessFilter::One(AA)),
                    ..Scripted::default()
                },
            ),
            (
                "a",
                Position::new(400.0, 0.0),
                0.0,
                Scripted {
                    listen: Some(AccessFilter::One(AA_OTHER)),
                    ..Scripted::default()
                },
            ),
            (
                "near_a",
                Position::new(430.0, 0.0),
                0.0,
                Scripted {
                    sends: vec![(100, AA_OTHER, 200)],
                    ..Scripted::default()
                },
            ),
            (
                "near_b",
                Position::new(0.0, 430.0),
                0.0,
                Scripted {
                    sends: vec![(150, AA, 30)],
                    ..Scripted::default()
                },
            ),
        ]
    };
    for seed in 0..20 {
        let (_, totals) = scripted_in_both_modes(seed, world);
        assert_eq!(totals.late_scheduled, 1, "b's edge is queued at lock");
    }
}

#[test]
fn receiver_opening_at_the_instant_a_frame_arrives_keeps_broadcast_order() {
    // `far` is 300 m away, so its frame sent at t = 100 µs arrives at
    // t = 101.001 µs — exactly when the listener's open timer fires. The
    // timer was queued before the frame's `TxStart`, so under broadcast
    // delivery it pops first: the listener opens, late-locks onto the
    // frame, and the frame's own edge then fires into the locked radio.
    // Sharded delivery never queued that edge (the listener was closed at
    // `TxStart`); `start_rx` must queue it because its key is still ahead.
    let world = || {
        vec![
            (
                "far",
                Position::new(300.0, 0.0),
                0.0,
                Scripted {
                    sends: vec![(100, AA, 30)],
                    ..Scripted::default()
                },
            ),
            (
                "listener",
                Position::ORIGIN,
                0.0,
                Scripted {
                    listen: Some(AccessFilter::One(AA)),
                    open_at: Some(Instant::from_nanos(101_001)),
                    ..Scripted::default()
                },
            ),
        ]
    };
    for seed in 0..5 {
        let (records, totals) = scripted_in_both_modes(seed, world);
        assert_eq!(totals.late_scheduled, 1, "the edge is queued at open");
        assert!(
            records
                .iter()
                .any(|l| l.contains("t=101.001µs") && l.contains("RxLock {")),
            "the listener late-locks at the arrival instant (seed {seed})"
        );
    }
}

#[test]
fn node_added_while_a_frame_is_in_flight_never_hears_it() {
    // The frame leaves `far` at t = 100 µs and needs ~1.3 µs to cover
    // 400 m. A listener joins the world and opens its receiver in between.
    // Broadcast delivery queued edges only for the nodes present at
    // `TxStart`, so the newcomer must not hear the frame under sharded
    // delivery either, however its radio changes before the arrival.
    let run = |mode: DeliveryMode| {
        let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(5));
        sim.set_delivery_mode(mode);
        let ring = record_telemetry(&mut sim);
        let far = sim.add_node(
            NodeConfig::new("far", Position::new(400.0, 0.0)).with_tx_power(20.0),
            Scripted {
                sends: vec![(100, AA, 30)],
                ..Scripted::default()
            },
        );
        sim.start(far);
        sim.run_until(Instant::from_nanos(100_500));
        let late = sim.add_node(
            NodeConfig::new("late", Position::ORIGIN),
            Scripted {
                listen: Some(AccessFilter::One(AA)),
                ..Scripted::default()
            },
        );
        sim.start(late);
        sim.run_for(Duration::from_millis(1));
        let log = sim.node::<Scripted>(late).expect("scripted").log.clone();
        (log, rendered(&ring))
    };
    let (broadcast_log, broadcast) = run(DeliveryMode::FullBroadcast);
    let (sharded_log, sharded) = run(DeliveryMode::Sharded);
    assert!(broadcast_log.is_empty(), "the newcomer hears nothing");
    assert_eq!(broadcast_log, sharded_log);
    assert_eq!(broadcast, sharded, "delivery modes diverged");
}

/// A listener pinned to one channel, re-opening after every frame.
struct PinnedListener {
    channel: Channel,
    received: u64,
}

impl RadioListener for PinnedListener {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.start_rx(self.channel, AccessFilter::Any, CRC_INIT);
    }
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(f) = event {
            if f.crc_ok {
                self.received += 1;
            }
            ctx.start_rx(self.channel, AccessFilter::Any, CRC_INIT);
        }
    }
}

/// A beacon hopping through the data channels, one frame per tick.
struct Hopper {
    next: u8,
}

impl RadioListener for Hopper {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer_local(Duration::from_micros(400), TimerKey(1));
    }
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            if !ctx.is_transmitting() {
                let frame = RawFrame::new(AA, vec![0xC3; 12], CRC_INIT);
                ctx.transmit(Channel::data_wrapped(self.next), frame);
                self.next = (self.next + 1) % 37;
            }
            ctx.set_timer_local(Duration::from_micros(400), TimerKey(1));
        }
    }
}

fn run_dense(mode: DeliveryMode, nodes: usize) -> ble_telemetry::DeliveryTotals {
    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(11));
    sim.set_delivery_mode(mode);
    sim.enable_delivery_tracker(64);
    let mut ids = Vec::new();
    for i in 0..nodes {
        let x = (i % 12) as f64 * 2.0;
        let y = (i / 12) as f64 * 2.0;
        let cfg = NodeConfig::new(format!("l{i}"), Position::new(x, y));
        ids.push(sim.add_node(
            cfg,
            PinnedListener {
                channel: Channel::data_wrapped(u8::try_from(i % 37).unwrap()),
                received: 0,
            },
        ));
    }
    let hopper = sim.add_node(
        NodeConfig::new("hopper", Position::new(5.0, 5.0)),
        Hopper { next: 0 },
    );
    ids.push(hopper);
    for id in ids {
        sim.start(id);
    }
    sim.run_for(Duration::from_millis(100));
    sim.delivery_tracker().expect("tracker enabled").totals()
}

#[test]
fn sharded_mode_schedules_an_order_of_magnitude_fewer_rx_starts() {
    // 128 listeners pinned across the 37 data channels plus one hopping
    // beacon: broadcast schedules 128 edges per frame, sharded only the
    // 3–4 listeners sharing the frame's channel. The issue's acceptance
    // floor is 5×; the measured ratio here is ~30×.
    let broadcast = run_dense(DeliveryMode::FullBroadcast, 128);
    let sharded = run_dense(DeliveryMode::Sharded, 128);
    assert_eq!(
        broadcast.frames_delivered, sharded.frames_delivered,
        "both modes must deliver the same frames"
    );
    assert!(sharded.frames_delivered > 0, "world must deliver frames");
    assert!(
        broadcast.scheduled_rx_starts >= 5 * sharded.scheduled_rx_starts,
        "sharding must cut scheduled RxStarts at least 5x \
         (broadcast {} vs sharded {})",
        broadcast.scheduled_rx_starts,
        sharded.scheduled_rx_starts
    );
}
