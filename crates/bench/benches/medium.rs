//! Medium hot-path benchmarks: the zero-allocation frame pipeline.
//!
//! `frame_delivery` prices one steady-state Tx → medium → Rx delivery
//! (the path the counting-allocator test in `tests/alloc_budget.rs` pins
//! at zero heap allocations). `broadcast_N` scales the same frame across
//! N open receivers — the per-receiver cost used to be a `Vec` clone per
//! listener before the inline `Pdu` rework. `dense_Nn_{sharded,broadcast}`
//! prices channel-sharded delivery against the full-broadcast oracle in a
//! dense multi-channel world (16 and 128 nodes), the workload the
//! listener-index rework targets. The `crc24`/`whitening` groups compare
//! the table-driven implementations against the retained bitwise
//! reference implementations they replaced.

use ble_phy::{
    crc24, crc24_bitwise, whiten_in_place, whiten_in_place_bitwise, AccessAddress, AccessFilter,
    Channel, DeliveryMode, Environment, NodeConfig, NodeCtx, Pdu, Position, RadioEvent,
    RadioListener, RawFrame, TimerKey, World,
};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::{Duration, SimRng};

/// Transmits a fixed frame whenever its timer fires.
struct Beacon {
    period: Duration,
    pdu: Pdu,
}

impl RadioListener for Beacon {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            ctx.set_timer_local(self.period, TimerKey(1));
            if !ctx.is_transmitting() {
                let frame = RawFrame::new(
                    AccessAddress::ADVERTISING,
                    self.pdu.clone(),
                    ble_phy::ADVERTISING_CRC_INIT,
                );
                ctx.transmit(Channel::advertising_wrapped(0), frame);
            }
        }
    }
}

/// Stays locked on the advertising channel and counts deliveries.
struct Sink;

impl RadioListener for Sink {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(frame) = event {
            std::hint::black_box(frame.pdu.len());
            ctx.start_rx(
                Channel::advertising_wrapped(0),
                AccessFilter::Any,
                ble_phy::ADVERTISING_CRC_INIT,
            );
        }
    }
}

fn payload_pdu(len: usize) -> Pdu {
    let mut pdu = Pdu::new();
    for i in 0..len {
        #[allow(clippy::cast_possible_truncation)]
        let byte = (i & 0xFF) as u8;
        pdu.try_push(byte).expect("bench payload fits");
    }
    pdu
}

fn broadcast_sim(receivers: usize) -> World {
    let mut sim = World::new(
        Environment::indoor_default(),
        SimRng::seed_from(11 + receivers as u64),
    );
    let tx = sim.add_node(
        NodeConfig::new("beacon", Position::new(0.0, 0.0)),
        Beacon {
            period: Duration::from_micros(500),
            pdu: payload_pdu(22),
        },
    );
    sim.with_ctx(tx, |ctx| {
        ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
    });
    for i in 0..receivers {
        let rx = sim.add_node(
            NodeConfig::new(format!("sink{i}"), Position::new(1.0 + i as f64 * 0.5, 0.0)),
            Sink,
        );
        sim.with_ctx(rx, |ctx| {
            ctx.start_rx(
                Channel::advertising_wrapped(0),
                AccessFilter::Any,
                ble_phy::ADVERTISING_CRC_INIT,
            );
        });
    }
    sim
}

fn bench_frame_delivery(c: &mut Criterion) {
    // One beacon, one receiver, frames every 500 µs → each run_for(10 ms)
    // delivers ~20 frames through the full pipeline.
    let mut sim = broadcast_sim(1);
    c.bench_function("medium/frame_delivery_10ms", |b| {
        b.iter(|| {
            sim.run_for(Duration::from_millis(10));
            std::hint::black_box(sim.now());
        });
    });
}

fn bench_broadcast(c: &mut Criterion) {
    for receivers in [2usize, 8] {
        let mut sim = broadcast_sim(receivers);
        c.bench_function(&format!("medium/broadcast_{receivers}rx_10ms"), |b| {
            b.iter(|| {
                sim.run_for(Duration::from_millis(10));
                std::hint::black_box(sim.now());
            });
        });
    }
}

/// Stays locked on one data channel and re-opens after every frame.
struct PinnedSink {
    channel: Channel,
}

impl RadioListener for PinnedSink {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(frame) = event {
            std::hint::black_box(frame.pdu.len());
            ctx.start_rx(self.channel, AccessFilter::Any, 0x55_5551);
        }
    }
}

/// Transmits on a rotating data channel whenever its timer fires.
struct HoppingBeacon {
    period: Duration,
    pdu: Pdu,
    next: u8,
}

impl RadioListener for HoppingBeacon {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            ctx.set_timer_local(self.period, TimerKey(1));
            if !ctx.is_transmitting() {
                let frame =
                    RawFrame::new(AccessAddress::new(0x50C2_33A1), self.pdu.clone(), 0x55_5551);
                ctx.transmit(Channel::data_wrapped(self.next), frame);
                self.next = (self.next + 1) % 37;
            }
        }
    }
}

/// A dense world: `nodes` pinned listeners spread over the 37 data
/// channels plus one channel-hopping beacon. Each frame concerns only the
/// handful of listeners sharing its channel — exactly the workload where
/// sharded delivery stops paying O(nodes) per transmission.
fn dense_sim(nodes: usize, mode: DeliveryMode) -> World {
    let mut sim = World::new(
        Environment::indoor_default(),
        SimRng::seed_from(23 + nodes as u64),
    );
    sim.set_delivery_mode(mode);
    for i in 0..nodes {
        #[allow(clippy::cast_possible_truncation)]
        let channel = Channel::data_wrapped((i % 37) as u8);
        let rx = sim.add_node(
            NodeConfig::new(
                format!("pin{i}"),
                Position::new((i % 12) as f64 * 2.0, (i / 12) as f64 * 2.0),
            ),
            PinnedSink { channel },
        );
        sim.with_ctx(rx, |ctx| {
            ctx.start_rx(channel, AccessFilter::Any, 0x55_5551);
        });
    }
    let tx = sim.add_node(
        NodeConfig::new("hopper", Position::new(5.0, 5.0)),
        HoppingBeacon {
            period: Duration::from_micros(500),
            pdu: payload_pdu(22),
            next: 0,
        },
    );
    sim.with_ctx(tx, |ctx| {
        ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
    });
    sim
}

fn bench_dense_delivery(c: &mut Criterion) {
    // Prices sharded vs full-broadcast scheduling head-to-head at 16 and
    // 128 nodes. The 128-node split is the headline number for the
    // channel-sharding PR: broadcast scales per frame with world size,
    // sharded with co-channel listener count.
    for nodes in [16usize, 128] {
        for (mode, tag) in [
            (DeliveryMode::Sharded, "sharded"),
            (DeliveryMode::FullBroadcast, "broadcast"),
        ] {
            let mut sim = dense_sim(nodes, mode);
            c.bench_function(&format!("medium/dense_{nodes}n_{tag}_10ms"), |b| {
                b.iter(|| {
                    sim.run_for(Duration::from_millis(10));
                    std::hint::black_box(sim.now());
                });
            });
        }
    }
}

fn bench_crc_table_vs_bitwise(c: &mut Criterion) {
    let payload: Vec<u8> = (0..=254u8).collect();
    c.bench_function("medium/crc24_table_255B", |b| {
        b.iter(|| std::hint::black_box(crc24(0x55_5551, std::hint::black_box(&payload))))
    });
    c.bench_function("medium/crc24_bitwise_255B", |b| {
        b.iter(|| std::hint::black_box(crc24_bitwise(0x55_5551, std::hint::black_box(&payload))))
    });
}

fn bench_whitening_table_vs_bitwise(c: &mut Criterion) {
    let ch = Channel::new(17).expect("valid channel");
    let mut buf: Vec<u8> = (0..=254u8).collect();
    c.bench_function("medium/whitening_table_255B", |b| {
        b.iter(|| {
            whiten_in_place(ch, std::hint::black_box(&mut buf));
            std::hint::black_box(buf[0]);
        })
    });
    c.bench_function("medium/whitening_bitwise_255B", |b| {
        b.iter(|| {
            whiten_in_place_bitwise(ch, std::hint::black_box(&mut buf));
            std::hint::black_box(buf[0]);
        })
    });
}

criterion_group!(
    benches,
    bench_frame_delivery,
    bench_broadcast,
    bench_dense_delivery,
    bench_crc_table_vs_bitwise,
    bench_whitening_table_vs_bitwise
);
criterion_main!(benches);
