//! Telemetry overhead microbenchmarks.
//!
//! `emit_disabled` is the number the zero-cost claim rests on: with no
//! sink attached, `NodeCtx::emit` must be a branch-and-return
//! that never builds the event. `emit_ring_sink` prices the enabled path
//! (event construction + ring push) for comparison.

use ble_phy::{Environment, NodeConfig, NodeCtx, Position, RadioEvent, RadioListener, World};
use ble_telemetry::{RingBufferSink, SpanKind, TelemetryEvent};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::SimRng;

/// A listener that never reacts: the benchmarks drive emits directly.
struct Idle;

impl RadioListener for Idle {
    fn on_event(&mut self, _ctx: &mut NodeCtx<'_>, _event: RadioEvent) {}
}

fn sim_with_one_node() -> (World, ble_phy::NodeId) {
    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(1));
    let id = sim.add_node(NodeConfig::new("bench", Position::new(0.0, 0.0)), Idle);
    (sim, id)
}

fn bench_emit_disabled(c: &mut Criterion) {
    let (mut sim, id) = sim_with_one_node();
    c.bench_function("telemetry/emit_disabled", |b| {
        sim.with_ctx(id, |ctx| {
            b.iter(|| {
                ctx.emit(|| TelemetryEvent::CrcFail {
                    channel: std::hint::black_box(7),
                })
            })
        });
    });
}

fn bench_emit_ring_sink(c: &mut Criterion) {
    let (mut sim, id) = sim_with_one_node();
    sim.add_telemetry_sink(Box::new(RingBufferSink::new(4_096)));
    c.bench_function("telemetry/emit_ring_sink", |b| {
        sim.with_ctx(id, |ctx| {
            b.iter(|| {
                ctx.emit(|| TelemetryEvent::CrcFail {
                    channel: std::hint::black_box(7),
                })
            })
        });
    });
}

/// The span zero-cost claim: with no sink attached, an enter/exit pair must
/// be two branch-and-returns — no id allocation, no stack push, and the
/// injected wall clock is never read (the clock below would poison the
/// numbers if it were).
fn bench_span_disabled(c: &mut Criterion) {
    fn clock() -> u64 {
        std::hint::black_box(7)
    }
    let (mut sim, id) = sim_with_one_node();
    sim.set_span_clock(clock);
    c.bench_function("telemetry/span_disabled", |b| {
        sim.with_ctx(id, |ctx| {
            b.iter(|| {
                let span = ctx.span_enter(SpanKind::ChannelAirtime, std::hint::black_box(7));
                ctx.span_exit(span);
            })
        });
    });
}

/// The enabled path for comparison: id allocation, stack push/remove, two
/// clock reads and two ring pushes per pair.
fn bench_span_ring_sink(c: &mut Criterion) {
    fn clock() -> u64 {
        std::hint::black_box(7)
    }
    let (mut sim, id) = sim_with_one_node();
    sim.set_span_clock(clock);
    sim.add_telemetry_sink(Box::new(RingBufferSink::new(4_096)));
    c.bench_function("telemetry/span_ring_sink", |b| {
        sim.with_ctx(id, |ctx| {
            b.iter(|| {
                let span = ctx.span_enter(SpanKind::ChannelAirtime, std::hint::black_box(7));
                ctx.span_exit(span);
            })
        });
    });
}

criterion_group!(
    benches,
    bench_emit_disabled,
    bench_emit_ring_sink,
    bench_span_disabled,
    bench_span_ring_sink
);
criterion_main!(benches);
