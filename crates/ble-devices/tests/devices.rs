//! End-to-end device tests: a Central drives the three victim devices over
//! the simulated radio, exactly like the paper's legitimate traffic.

use ble_devices::{bulb_payloads, Central, Keyfob, Lightbulb, Smartwatch};
use ble_host::HostEvent;
use ble_link::ConnectionParams;
use ble_phy::{NodeConfig, Position};
use ble_scenario::{DeviceKind, ScenarioBuilder};
use simkit::{DriftClock, Duration, SimRng};

#[test]
fn central_turns_the_bulb_on_and_recolours_it() {
    let mut s = ScenarioBuilder::legit(1).world_seed(2).build();
    let control = s.victim_control_handle();
    s.central_mut().on_connect_writes = vec![
        (control, bulb_payloads::power_on(), true),
        (control, bulb_payloads::colour(255, 0, 0), true),
    ];
    s.run_for(Duration::from_secs(2));

    let bulb = s.victim::<Lightbulb>();
    assert!(bulb.app.on, "bulb turned on");
    assert_eq!(bulb.app.rgb, (255, 0, 0), "bulb recoloured");
    assert_eq!(bulb.connections, 1);
    let central = s.central();
    assert_eq!(central.connections, 1);
    assert!(
        central
            .event_log
            .iter()
            .filter(|e| matches!(e, HostEvent::WriteConfirmed))
            .count()
            >= 2
    );
}

#[test]
fn central_rings_the_keyfob() {
    let mut s = ScenarioBuilder::legit(3)
        .world_seed(4)
        .device(DeviceKind::Keyfob)
        .hop_interval(24)
        .central_distance(1.0)
        .build();
    let alert = s.victim_control_handle();
    s.central_mut().on_connect_writes = vec![(alert, vec![2], false)];
    s.run_for(Duration::from_secs(2));
    assert_eq!(s.victim::<Keyfob>().app.rings, 1);
    assert_eq!(s.victim::<Keyfob>().app.alert_level, 2);
}

#[test]
fn central_sends_sms_to_the_watch() {
    let mut s = ScenarioBuilder::legit(5)
        .world_seed(6)
        .device(DeviceKind::Smartwatch)
        .central_distance(1.5)
        .build();
    let msg = s.victim_control_handle();
    s.central_mut().on_connect_writes = vec![(msg, b"SMS: meeting at noon".to_vec(), true)];
    s.run_for(Duration::from_secs(2));
    assert_eq!(
        s.victim::<Smartwatch>().inbox_strings(),
        vec!["SMS: meeting at noon".to_string()]
    );
}

#[test]
fn central_reconnects_after_disconnection() {
    let mut s = ScenarioBuilder::legit(7)
        .world_seed(8)
        .hop_interval(24)
        .build();
    s.run_for(Duration::from_secs(1));
    assert_eq!(s.central().connections, 1);
    // Tear the connection down from the central side.
    s.central_mut().ll.request_disconnect(0x13);
    s.run_for(Duration::from_secs(2));
    let central = s.central();
    let bulb = s.victim::<Lightbulb>();
    assert!(
        central.connections >= 2,
        "reconnected ({})",
        central.connections
    );
    assert!(bulb.connections >= 2, "bulb re-advertised and reconnected");
    assert!(central.ll.is_connected() && bulb.ll.is_connected());
}

#[test]
fn pairing_and_encryption_through_real_devices() {
    let mut s = ScenarioBuilder::legit(9)
        .world_seed(10)
        .hop_interval(24)
        .build();
    let control = s.victim_control_handle();
    s.central_mut().pair_on_connect = true;
    s.run_for(Duration::from_secs(3));
    assert!(s.central().host.is_encrypted(), "central link encrypted");
    assert!(
        s.victim::<Lightbulb>().host.is_encrypted(),
        "bulb link encrypted"
    );
    // Application traffic still works over the encrypted link.
    s.central_mut().write(control, bulb_payloads::power_on());
    s.run_for(Duration::from_secs(1));
    assert!(s.victim::<Lightbulb>().app.on, "encrypted write applied");
}

#[test]
fn two_independent_connections_coexist() {
    // Two victim/central pairs in one room: this topology is beyond the
    // single-victim builder, so it drives the arena API directly.
    use ble_phy::{Environment, World};
    let mut rng = SimRng::seed_from(11);
    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(12));
    let clock = |rng: &mut SimRng| DriftClock::with_random_error(50.0, rng).with_jitter_us(1.0);
    let bulb = Lightbulb::new(0xB1, rng.fork());
    let fob = Keyfob::new(0xF0, rng.fork());
    let bulb_control = bulb.control_handle();
    let fob_alert = fob.alert_handle();
    let p1 = ConnectionParams::typical(&mut rng, 36);
    let p2 = ConnectionParams::typical(&mut rng, 24);
    let mut c1 = Central::new(0xA0, bulb.ll.address(), p1, rng.fork());
    c1.on_connect_writes = vec![(bulb_control, bulb_payloads::power_on(), true)];
    let mut c2 = Central::new(0xA1, fob.ll.address(), p2, rng.fork());
    c2.on_connect_writes = vec![(fob_alert, vec![1], false)];
    let b = sim.add_node(
        NodeConfig::new("bulb", Position::new(0.0, 0.0)).with_clock(clock(&mut rng)),
        bulb,
    );
    let f = sim.add_node(
        NodeConfig::new("fob", Position::new(5.0, 5.0)).with_clock(clock(&mut rng)),
        fob,
    );
    let n1 = sim.add_node(
        NodeConfig::new("phone1", Position::new(1.0, 0.0)).with_clock(clock(&mut rng)),
        c1,
    );
    let n2 = sim.add_node(
        NodeConfig::new("phone2", Position::new(5.0, 6.0)).with_clock(clock(&mut rng)),
        c2,
    );
    for id in [b, f, n1, n2] {
        sim.start(id);
    }
    sim.run_for(Duration::from_secs(3));
    assert!(sim.node::<Lightbulb>(b).unwrap().app.on);
    assert_eq!(sim.node::<Keyfob>(f).unwrap().app.rings, 1);
    assert!(sim.node::<Central>(n1).unwrap().ll.is_connected());
    assert!(sim.node::<Central>(n2).unwrap().ll.is_connected());
}
