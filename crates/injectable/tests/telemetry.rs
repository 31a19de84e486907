//! Telemetry integration: a scenario-A attack streams its typed events
//! into attached sinks in storyline order (sync → attempt → verdict), and
//! the metrics registry agrees with the attacker's own statistics. A
//! sniffer that can never re-acquire reports each failed resync campaign
//! and the final give-up as typed events.

use ble_devices::bulb_payloads;
use ble_host::att::AttPdu;
use ble_scenario::ScenarioBuilder;
use ble_telemetry::{Counter, Histogram, MetricsSink, RingBufferSink, TelemetryEvent, Verdict};
use injectable::{Mission, MissionState, ResyncPolicy};
use simkit::Duration;

#[test]
fn scenario_a_emits_attempt_then_verdict_into_sinks() {
    let mut s = ScenarioBuilder::attack_rig(1).hop_interval(36).build();
    let ring = RingBufferSink::new(1 << 16);
    let records = ring.handle();
    let metrics = MetricsSink::new();
    let registry = metrics.handle();
    s.world.add_telemetry_sink(Box::new(ring));
    s.world.add_telemetry_sink(Box::new(metrics));
    s.run_until_connected();

    let att = AttPdu::WriteRequest {
        handle: s.victim_control_handle(),
        value: bulb_payloads::power_off(),
    }
    .to_bytes();
    s.attacker_mut().arm(Mission::InjectAtt { att });
    s.run_for(Duration::from_secs(20));
    assert_eq!(s.attacker().mission_state(), MissionState::Complete);

    let ring = records.lock();
    // The attack storyline appears in order: the sniffer synchronises, an
    // injection attempt fires, a heuristic verdict confirms a success.
    let sync = ring
        .position(|r| matches!(r.event, TelemetryEvent::SnifferSync { .. }))
        .expect("sniffer sync event");
    let attempt = ring
        .position(|r| matches!(r.event, TelemetryEvent::InjectionAttempt { .. }))
        .expect("injection attempt event");
    let success = ring
        .position(|r| {
            matches!(
                r.event,
                TelemetryEvent::HeuristicVerdict {
                    verdict: Verdict::Success,
                    ..
                }
            )
        })
        .expect("confirmed-success verdict event");
    assert!(
        sync < attempt,
        "sync ({sync}) must precede attempt ({attempt})"
    );
    assert!(
        attempt < success,
        "attempt ({attempt}) must precede verdict ({success})"
    );

    // Every attempt received exactly one verdict.
    let attempts = ring.count_events(|e| matches!(e, TelemetryEvent::InjectionAttempt { .. }));
    let verdicts = ring.count_events(|e| matches!(e, TelemetryEvent::HeuristicVerdict { .. }));
    assert!(attempts >= 1);
    assert_eq!(attempts, verdicts);

    // The metrics sink classified the same stream consistently, and agrees
    // with the attacker's own statistics. (The sink buffers tallies until
    // the world flushes its sinks.) The ring guard must be released first:
    // flushing closes still-open spans, which emits records into every
    // attached sink — including the ring whose mutex the guard holds.
    drop(ring);
    s.world.flush_telemetry();
    let reg = registry.lock();
    let stats_attempts = u64::from(s.attacker().stats().attempts_total);
    assert_eq!(reg[Counter::AttackAttempts], stats_attempts);
    assert!(reg[Counter::AttackSuccess] >= 1);
    assert!(reg[Counter::LinkAnchor] > 0, "link-layer anchors recorded");
    assert!(reg[Counter::PhyTx] > 0, "PHY transmissions recorded");
    let lead = reg.histogram(Histogram::Lead).expect("lead histogram");
    assert_eq!(lead.count(), stats_attempts);
    let anchor_err = reg
        .histogram(Histogram::AnchorError)
        .expect("anchor error histogram");
    assert!(anchor_err.count() > 0);
}

#[test]
fn ring_buffer_attaches_mid_run_and_keeps_newest() {
    let mut s = ScenarioBuilder::attack_rig(2).hop_interval(36).build();
    s.run_until_connected();
    // Attach late, with a tiny capacity: the sink must replay node labels
    // and then keep only the newest records.
    let ring = RingBufferSink::new(16);
    let records = ring.handle();
    s.world.add_telemetry_sink(Box::new(ring));
    s.run_for(Duration::from_secs(2));
    let ring = records.lock();
    assert_eq!(ring.len(), 16);
    assert!(
        ring.evicted() > 0,
        "connection traffic must overflow 16 slots"
    );
}

#[test]
fn a_sniffer_that_never_acquires_reports_each_campaign_then_gives_up() {
    let policy = ResyncPolicy {
        campaign_hops: 10,
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(80),
        max_retries: 3,
    };
    // The Central sits far out of range, never hears the victim advertise
    // and so never sends the CONNECT_REQ the sniffer scans for.
    let mut s = ScenarioBuilder::attack_rig(3)
        .central_distance(10_000.0)
        .attacker_resync(policy.clone())
        .build();
    let ring = RingBufferSink::new(1 << 16);
    let records = ring.handle();
    let metrics = MetricsSink::new();
    let registry = metrics.handle();
    s.world.add_telemetry_sink(Box::new(ring));
    s.world.add_telemetry_sink(Box::new(metrics));
    s.run_for(Duration::from_secs(3));
    assert!(s.attacker().resync_exhausted());

    let ring = records.lock();
    let resync: Vec<&TelemetryEvent> = ring
        .iter()
        .map(|r| &r.event)
        .filter(|e| {
            matches!(
                e,
                TelemetryEvent::ResyncBackoff { .. } | TelemetryEvent::ResyncExhausted { .. }
            )
        })
        .collect();
    let (exhausted, backoffs) = resync.split_last().expect("resync events");
    // One backoff per retry, numbered from the first campaign, with the
    // policy's doubling delays; then exactly one give-up.
    assert_eq!(backoffs.len(), usize::try_from(policy.max_retries).unwrap());
    for (i, event) in backoffs.iter().enumerate() {
        let n = u32::try_from(i).unwrap();
        let delay = Duration::from_millis(20 << n).min(policy.backoff_cap);
        assert_eq!(
            **event,
            TelemetryEvent::ResyncBackoff {
                campaign: n + 1,
                delay
            }
        );
    }
    assert_eq!(
        **exhausted,
        TelemetryEvent::ResyncExhausted {
            campaigns: policy.max_retries + 1
        }
    );
    drop(ring);

    s.world.flush_telemetry();
    let reg = registry.lock();
    assert_eq!(
        reg[Counter::AttackResyncBackoff],
        u64::from(policy.max_retries)
    );
    assert_eq!(reg[Counter::AttackResyncExhausted], 1);
}
