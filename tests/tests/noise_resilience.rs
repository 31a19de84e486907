//! Failure injection: hostile RF conditions. Channel hopping plus the
//! SN/NESN retransmission machinery must carry connections through
//! interference — the resilience the paper's noisy-lab experiments lean on
//! ("the experiment was conducted in a realistic environment, including
//! several other BLE devices and multiple WiFi routers").

use ble_devices::{bulb_payloads, Central, Lightbulb};
use ble_link::ConnectionParams;
use ble_phy::{
    AccessAddress, Channel, Environment, NodeConfig, NodeCtx, Position, RadioEvent, RadioListener,
    RawFrame, TimerKey, World,
};
use simkit::{DriftClock, Duration, SimRng};

/// A jammer blasting garbage frames on a fixed set of data channels, with a
/// duty cycle high enough to corrupt any victim frame it overlaps.
struct Jammer {
    channels: Vec<Channel>,
    next: usize,
    period: Duration,
}

impl Jammer {
    fn new(channel_indices: &[u8], period: Duration) -> Self {
        Jammer {
            channels: channel_indices
                .iter()
                .map(|&i| Channel::data(i).expect("data channel"))
                .collect(),
            next: 0,
            period,
        }
    }

    fn blast(&mut self, ctx: &mut NodeCtx<'_>) {
        let channel = self.channels[self.next % self.channels.len()];
        self.next += 1;
        // A long garbage frame on a bogus access address: pure interference.
        let frame = RawFrame::new(AccessAddress::new(0xDEAD_BEEF), vec![0x5A; 200], 0);
        ctx.transmit(channel, frame);
    }
}

impl RadioListener for Jammer {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        match event {
            RadioEvent::Timer { .. } => self.blast(ctx),
            RadioEvent::TxDone { .. } => {
                let period = self.period;
                ctx.set_timer_local(period, TimerKey(0x80));
            }
            _ => {}
        }
    }
}

#[test]
fn connection_survives_partial_band_jamming() {
    let mut rng = SimRng::seed_from(0xBAD);
    let mut sim = World::new(Environment::indoor_default(), rng.fork());
    let bulb = Lightbulb::new(0xB1, rng.fork());
    let control = bulb.control_handle();
    let bulb_addr = bulb.ll.address();
    let params = ConnectionParams::typical(&mut rng, 24);
    let central = Central::new(0xA0, bulb_addr, params, rng.fork());
    // Jam 8 of the 37 data channels continuously, right next to the victim.
    let jammer = Jammer::new(&[0, 5, 10, 15, 20, 25, 30, 35], Duration::from_micros(500));

    let b = sim.add_node(
        NodeConfig::new("bulb", Position::new(0.0, 0.0))
            .with_clock(DriftClock::realistic(50.0, &mut rng).with_jitter_us(1.0)),
        bulb,
    );
    let c = sim.add_node(
        NodeConfig::new("phone", Position::new(2.0, 0.0))
            .with_clock(DriftClock::realistic(50.0, &mut rng).with_jitter_us(1.0)),
        central,
    );
    let j = sim.add_node(
        NodeConfig::new("jammer", Position::new(0.5, 0.5)).with_tx_power(8.0),
        jammer,
    );
    sim.start(b);
    sim.start(c);
    sim.with_node_ctx::<Jammer, _>(j, |jammer, ctx| jammer.blast(ctx))
        .expect("jammer node");

    // Connection establishes despite the noise (advertising channels are
    // clean) and stays alive across jammed data channels.
    for _ in 0..100 {
        sim.run_for(Duration::from_millis(100));
        if sim.node::<Central>(c).unwrap().ll.is_connected() {
            break;
        }
    }
    assert!(
        sim.node::<Central>(c).unwrap().ll.is_connected(),
        "connects under jamming"
    );
    sim.run_for(Duration::from_secs(10));
    assert!(
        sim.node::<Central>(c).unwrap().ll.is_connected(),
        "survives 10 s of jamming"
    );
    assert!(sim.node::<Lightbulb>(b).unwrap().ll.is_connected());

    // Application traffic gets through via retransmissions.
    sim.node_mut::<Central>(c)
        .unwrap()
        .write(control, bulb_payloads::power_on());
    sim.run_for(Duration::from_secs(3));
    assert!(
        sim.node::<Lightbulb>(b).unwrap().app.on,
        "write survives the jammed channels"
    );
}

#[test]
fn full_band_jamming_kills_then_recovery_follows() {
    // A single BLE radio cannot blanket all 37 data channels (each garbage
    // frame parks it on one channel for its whole airtime) — which is *why*
    // the partial-band test above survives. Denial requires wideband
    // equipment; model it as one dedicated jammer per data channel. Once
    // the jammers quiet down, auto-reconnect must restore the connection.
    let mut rng = SimRng::seed_from(0xDEAD);
    let mut sim = World::new(Environment::indoor_default(), rng.fork());
    let bulb = Lightbulb::new(0xB1, rng.fork());
    let bulb_addr = bulb.ll.address();
    let params = ConnectionParams::typical(&mut rng, 24);
    let central = Central::new(0xA0, bulb_addr, params, rng.fork());

    let b = sim.add_node(
        NodeConfig::new("bulb", Position::new(0.0, 0.0))
            .with_clock(DriftClock::realistic(50.0, &mut rng).with_jitter_us(1.0)),
        bulb,
    );
    let c = sim.add_node(
        NodeConfig::new("phone", Position::new(2.0, 0.0))
            .with_clock(DriftClock::realistic(50.0, &mut rng).with_jitter_us(1.0)),
        central,
    );
    let mut jammers = Vec::new();
    for ch in 0..37u8 {
        let id = sim.add_node(
            NodeConfig::new(format!("jam{ch}"), Position::new(0.2, 0.2)).with_tx_power(20.0),
            Jammer::new(&[ch], Duration::from_micros(10)),
        );
        jammers.push(id);
    }
    sim.start(b);
    sim.start(c);
    // Let the connection establish first, then light up the band.
    for _ in 0..100 {
        sim.run_for(Duration::from_millis(100));
        if sim.node::<Central>(c).unwrap().ll.is_connected() {
            break;
        }
    }
    assert!(sim.node::<Central>(c).unwrap().ll.is_connected());
    for &id in &jammers {
        sim.with_node_ctx::<Jammer, _>(id, |jammer, ctx| jammer.blast(ctx))
            .expect("jammer node");
    }
    sim.run_for(Duration::from_secs(5));
    assert!(
        sim.node::<Central>(c).unwrap().disconnections >= 1,
        "full-band jamming must break the connection"
    );
    // Quiet the jammers (enormous idle period after the current frame).
    for &id in &jammers {
        sim.node_mut::<Jammer>(id).unwrap().period = Duration::from_secs(3600);
    }
    sim.run_for(Duration::from_secs(20));
    assert!(
        sim.node::<Central>(c).unwrap().ll.is_connected(),
        "auto-reconnect restores the connection after the jammers quiet"
    );
}
