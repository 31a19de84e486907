//! Zero-allocation budget for the steady-state frame pipeline.
//!
//! A counting global allocator wraps `System`; after a warm-up window has
//! grown every queue and buffer to capacity, a steady stream of
//! Tx → medium → Rx deliveries (no collision, telemetry off) must perform
//! **zero** heap allocations. This pins the inline-`Pdu` rework: any future
//! `Vec`/`clone()` reintroduced on the delivery path trips this test.
//!
//! Kept as its own integration-test binary so the global allocator does not
//! leak into unrelated tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ble_host::gatt::props;
use ble_host::{GattServer, HostStack, Uuid};
use ble_link::{AddressType, DeviceAddress, LinkLayerDelegate};
use ble_phy::{
    AccessAddress, AccessFilter, Channel, Environment, NodeConfig, NodeCtx, Pdu, Position,
    RadioEvent, RadioListener, RawFrame, TimerKey, World,
};
use simkit::{Duration, FaultPlan, SimRng};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Armed only on the measuring thread, only across the steady-state
    // window. Counting process-wide instead makes the test flaky: the
    // libtest harness thread occasionally allocates (channel buffering)
    // concurrently with the measured window and the budget blames the
    // simulation for it.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Returns whether the current thread is inside a measured window.
///
/// `try_with` so a (de)allocation during thread teardown — after the TLS
/// slot is destroyed — is simply not counted instead of aborting.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// Counts every allocation and reallocation on the armed thread, then
/// defers to `System`.
struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Transmits a fixed 22-byte frame every 500 µs. With `spans` set it brackets
/// each transmission in a span enter/exit pair — with no sink attached both
/// calls must stay on the branch-and-return path.
struct Beacon {
    pdu: Pdu,
    sent: u64,
    spans: bool,
}

impl RadioListener for Beacon {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
            if !ctx.is_transmitting() {
                self.sent += 1;
                let span = if self.spans {
                    Some(ctx.span_enter(ble_telemetry::SpanKind::AttackerInject, 0))
                } else {
                    None
                };
                let frame = RawFrame::new(
                    AccessAddress::ADVERTISING,
                    self.pdu.clone(),
                    ble_phy::ADVERTISING_CRC_INIT,
                );
                ctx.transmit(Channel::advertising_wrapped(0), frame);
                if let Some(span) = span {
                    ctx.span_exit(span);
                }
            }
        }
    }
}

/// Counts good deliveries and re-opens the receive window.
struct Sink {
    received: u64,
}

impl RadioListener for Sink {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(frame) = event {
            if frame.crc_ok {
                self.received += 1;
            }
            ctx.start_rx(
                Channel::advertising_wrapped(0),
                AccessFilter::Any,
                ble_phy::ADVERTISING_CRC_INIT,
            );
        }
    }
}

/// Builds the beacon→sink scene, warms it up, then measures allocations
/// over a steady-state delivery window. `faults` (when given) is installed
/// before the warm-up; `spans` additionally installs a span clock and opens
/// a span pair around every transmission (disabled path: no sink attached).
fn measure_steady_state_with(faults: Option<FaultPlan>, spans: bool) -> (u64, u64) {
    let mut pdu = Pdu::new();
    pdu.try_extend_from_slice(&[0xC3; 22]).expect("22 B fits");

    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(5));
    if spans {
        // The clock must never be read on the disabled path; a counting
        // clock would not allocate anyway, but a constant keeps the test
        // honest about what the budget covers.
        fn fixed_clock() -> u64 {
            7
        }
        sim.set_span_clock(fixed_clock);
    }
    let tx = sim.add_node(
        NodeConfig::new("beacon", Position::new(0.0, 0.0)),
        Beacon {
            pdu,
            sent: 0,
            spans,
        },
    );
    let rx = sim.add_node(
        NodeConfig::new("sink", Position::new(2.0, 0.0)),
        Sink { received: 0 },
    );
    if let Some(plan) = faults {
        sim.install_faults(plan);
    }
    sim.with_ctx(tx, |ctx| {
        ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
    });
    sim.with_ctx(rx, |ctx| {
        ctx.start_rx(
            Channel::advertising_wrapped(0),
            AccessFilter::Any,
            ble_phy::ADVERTISING_CRC_INIT,
        );
    });

    // Warm-up: grow the event queue, tombstone set, and node scratch
    // buffers to their steady-state capacity.
    sim.run_for(Duration::from_millis(100));
    let received_before = sim.node::<Sink>(rx).expect("sink").received;
    assert!(received_before > 10, "warm-up must deliver frames");

    // Steady state: ~100 further deliveries must not touch the heap.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    sim.run_for(Duration::from_millis(50));
    COUNTING.with(|c| c.set(false));
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let received = sim.node::<Sink>(rx).expect("sink").received - received_before;
    (delta, received)
}

fn measure_steady_state(faults: Option<FaultPlan>) -> (u64, u64) {
    measure_steady_state_with(faults, false)
}

#[test]
fn steady_state_frame_delivery_allocates_nothing() {
    let (delta, received) = measure_steady_state(None);
    assert!(
        received >= 90,
        "steady state must keep delivering: {received}"
    );
    assert_eq!(
        delta, 0,
        "steady-state frame delivery must not allocate ({delta} allocations over {received} deliveries)"
    );

    // An installed-but-empty FaultPlan must stay on the same zero-allocation
    // budget: every hot-path fault query is a single branch when the plan is
    // empty, so the delivery pipeline may not touch the heap either.
    let (delta, received) = measure_steady_state(Some(FaultPlan::default()));
    assert!(
        received >= 90,
        "steady state with an empty plan must keep delivering: {received}"
    );
    assert_eq!(
        delta, 0,
        "an empty FaultPlan must not add allocations ({delta} over {received} deliveries)"
    );
}

/// Moves every queued outgoing fragment of `from` into `to`, reusing one
/// scratch buffer — exactly what the Link Layer does at connection events.
fn shuttle(from: &mut HostStack, to: &mut HostStack, scratch: &mut Vec<u8>) {
    while let Some(llid) = from.poll_outgoing(scratch) {
        to.on_data(llid, scratch);
    }
}

/// One round of duplex host traffic: an unacknowledged ATT Write Command
/// one way, a Handle Value Notification the other, application events
/// drained on both sides (returning their pooled value buffers).
fn host_round(a: &mut HostStack, b: &mut HostStack, handle: u16, scratch: &mut Vec<u8>) {
    a.write_command(handle, &[0x01, 0x99, 0, 0, 0]);
    shuttle(a, b, scratch);
    b.notify(handle, &[0x42; 5]);
    shuttle(b, a, scratch);
    while a.poll_event().is_some() {}
    while b.poll_event().is_some() {}
}

#[test]
fn steady_state_host_queuing_allocates_nothing() {
    // Two host stacks wired back-to-back through the `LinkLayerDelegate`
    // seam (no radio: the budget under test is the ATT/L2CAP queuing path
    // by itself). Buffers crossing the seam are borrowed from each stack's
    // `PacketPool`; after a warm-up has grown every queue, scratch buffer,
    // and attribute value to capacity, a sustained duplex write/notify
    // stream must never touch the heap.
    let mk = |seed: u8| {
        HostStack::new(
            DeviceAddress::new([seed; 6], AddressType::Public),
            GattServer::new(),
            SimRng::seed_from(u64::from(seed)),
        )
    };
    let mut a = mk(0xA1);
    let mut b = mk(0xB2);
    let handle = b
        .server_mut()
        .service(Uuid::short(0xFFE0))
        .characteristic(
            Uuid::short(0xFFE1),
            props::READ | props::WRITE | props::WRITE_WITHOUT_RESPONSE,
            vec![0],
        )
        .finish();

    let mut scratch = Vec::new();
    for _ in 0..50 {
        host_round(&mut a, &mut b, handle, &mut scratch);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..200 {
        host_round(&mut a, &mut b, handle, &mut scratch);
    }
    COUNTING.with(|c| c.set(false));
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state host queuing must not allocate ({delta} allocations over 200 duplex rounds)"
    );
    assert_eq!(
        b.server().value(handle),
        Some(&[0x01, 0x99, 0, 0, 0][..]),
        "the writes must actually land"
    );
    let stats = a.pool().stats();
    assert_eq!(
        stats.free, stats.capacity,
        "steady state must return every pooled buffer"
    );
}

#[test]
fn disabled_spans_with_an_installed_clock_allocate_nothing() {
    // The span layer's zero-cost claim: a span clock is installed (as the
    // experiment rig always does) but no sink is attached, so every
    // enter/exit pair on the delivery path must be a branch-and-return —
    // no id counter, no stack frame, no clock read, no heap.
    let (delta, received) = measure_steady_state_with(None, true);
    assert!(
        received >= 90,
        "steady state with spans must keep delivering: {received}"
    );
    assert_eq!(
        delta, 0,
        "disabled spans must not allocate ({delta} allocations over {received} deliveries)"
    );
}
