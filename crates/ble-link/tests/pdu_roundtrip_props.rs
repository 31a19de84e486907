//! Property tests: every Link-Layer PDU must survive a serialize→parse
//! round trip bit-for-bit.
//!
//! These run in debug mode, so the `ble_invariants` macros wired through
//! the serialization helpers (`lsb8`, `len_u8`, …) are armed: a property
//! completing without a panic also certifies no invariant fired.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_link::pdu::ParseError;
use ble_link::{
    AddressType, AdvertisingPdu, ChannelMap, ConnectionParams, ControlPdu, DataPdu, DeviceAddress,
    Llid, SleepClockAccuracy,
};
use ble_phy::AccessAddress;
use proptest::collection::vec;
use proptest::prelude::*;

fn any_address() -> impl Strategy<Value = DeviceAddress> {
    (any::<[u8; 6]>(), any::<bool>()).prop_map(|(octets, random)| {
        let kind = if random {
            AddressType::Random
        } else {
            AddressType::Public
        };
        DeviceAddress::new(octets, kind)
    })
}

fn any_llid() -> impl Strategy<Value = Llid> {
    (0u8..3).prop_map(|v| match v {
        0 => Llid::ContinuationOrEmpty,
        1 => Llid::StartOrComplete,
        _ => Llid::Control,
    })
}

fn any_channel_map() -> impl Strategy<Value = ChannelMap> {
    any::<[u8; 5]>()
        .prop_map(ChannelMap::from_bytes)
        .prop_filter("need at least one data channel", |m| m.used_count() > 0)
}

fn any_connection_params() -> impl Strategy<Value = ConnectionParams> {
    (
        (any::<u32>(), 0u32..0x100_0000, any::<u8>(), any::<u16>()),
        (6u16..3200, any::<u16>(), any::<u16>()),
        (any_channel_map(), 5u8..17, 0u8..8),
    )
        .prop_map(
            |(
                (aa, crc_init, win_size, win_offset),
                (hop_interval, latency, timeout),
                (channel_map, hop_increment, sca),
            )| ConnectionParams {
                access_address: AccessAddress::new(aa),
                crc_init,
                win_size,
                win_offset,
                hop_interval,
                latency,
                timeout,
                channel_map,
                hop_increment,
                master_sca: SleepClockAccuracy::from_field(sca),
            },
        )
}

fn any_control_pdu() -> impl Strategy<Value = ControlPdu> {
    prop_oneof![
        (
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>()
        )
            .prop_map(
                |(win_size, win_offset, interval, latency, timeout, instant)| {
                    ControlPdu::ConnectionUpdateInd {
                        win_size,
                        win_offset,
                        interval,
                        latency,
                        timeout,
                        instant,
                    }
                }
            ),
        (any_channel_map(), any::<u16>()).prop_map(|(channel_map, instant)| {
            ControlPdu::ChannelMapInd {
                channel_map,
                instant,
            }
        }),
        any::<u8>().prop_map(|error_code| ControlPdu::TerminateInd { error_code }),
        (
            any::<[u8; 8]>(),
            any::<u16>(),
            any::<[u8; 8]>(),
            any::<[u8; 4]>()
        )
            .prop_map(|(rand, ediv, skd_m, iv_m)| ControlPdu::EncReq {
                rand,
                ediv,
                skd_m,
                iv_m
            }),
        (any::<[u8; 8]>(), any::<[u8; 4]>())
            .prop_map(|(skd_s, iv_s)| ControlPdu::EncRsp { skd_s, iv_s }),
        Just(ControlPdu::StartEncReq),
        Just(ControlPdu::StartEncRsp),
        any::<u8>().prop_map(|unknown_type| ControlPdu::UnknownRsp { unknown_type }),
        any::<[u8; 8]>().prop_map(|features| ControlPdu::FeatureReq { features }),
        any::<[u8; 8]>().prop_map(|features| ControlPdu::FeatureRsp { features }),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(version, company, subversion)| {
            ControlPdu::VersionInd {
                version,
                company,
                subversion,
            }
        }),
        any::<u8>().prop_map(|error_code| ControlPdu::RejectInd { error_code }),
        Just(ControlPdu::PingReq),
        Just(ControlPdu::PingRsp),
    ]
}

fn any_advertising_pdu() -> impl Strategy<Value = AdvertisingPdu> {
    prop_oneof![
        (any_address(), vec(any::<u8>(), 0..32))
            .prop_map(|(advertiser, data)| AdvertisingPdu::AdvInd { advertiser, data }),
        (any_address(), vec(any::<u8>(), 0..32))
            .prop_map(|(advertiser, data)| AdvertisingPdu::AdvNonconnInd { advertiser, data }),
        (any_address(), any_address()).prop_map(|(scanner, advertiser)| AdvertisingPdu::ScanReq {
            scanner,
            advertiser
        }),
        (any_address(), vec(any::<u8>(), 0..32))
            .prop_map(|(advertiser, data)| AdvertisingPdu::ScanRsp { advertiser, data }),
        (
            any_address(),
            any_address(),
            any_connection_params(),
            any::<bool>()
        )
            .prop_map(|(initiator, advertiser, params, ch_sel)| {
                AdvertisingPdu::ConnectReq {
                    initiator,
                    advertiser,
                    params,
                    ch_sel,
                }
            }),
    ]
}

/// Hostile over-the-air bytes: raw soup, plus frames whose length byte
/// matches the rest. Soup alone almost never passes the length check, so
/// the parsers' field decoding would go unexercised; the framed lengths
/// favour the sizes of real advertising PDUs (12 for SCAN_REQ, 34 for
/// CONNECT_IND) and reach the 255-byte maximum.
fn hostile_frame() -> impl Strategy<Value = Vec<u8>> {
    let framed =
        (any::<u8>(), 0u8..4, vec(any::<u8>(), 256..257)).prop_map(|(header, shape, mut body)| {
            let len = match shape {
                0 => 12,
                1 => 34,
                2 => body[0] % 40,
                _ => body[0],
            };
            body.truncate(usize::from(len));
            let mut frame = vec![header, len];
            frame.extend(body);
            frame
        });
    prop_oneof![vec(any::<u8>(), 0..300), framed]
}

proptest! {
    // 32 frames per case: with the shim's fixed case count, a single frame
    // per case would reach CONNECT_IND's type-and-length only by luck.
    #[test]
    fn data_pdu_parse_never_panics_and_accepts_only_what_reencodes(
        frames in vec(hostile_frame(), 32..33),
    ) {
        for bytes in &frames {
            if let Ok(pdu) = DataPdu::from_bytes(bytes) {
                let again = DataPdu::from_bytes(&pdu.to_bytes()).expect("re-encoding must parse");
                prop_assert_eq!(again, pdu);
            }
        }
    }

    #[test]
    fn advertising_pdu_parse_never_panics_and_accepts_only_what_reencodes(
        frames in vec(hostile_frame(), 32..33),
    ) {
        for bytes in &frames {
            if let Ok(adv) = AdvertisingPdu::from_bytes(bytes) {
                let again =
                    AdvertisingPdu::from_bytes(&adv.to_bytes()).expect("re-encoding must parse");
                prop_assert_eq!(again, adv);
            }
        }
    }
}

proptest! {
    #[test]
    fn data_pdu_roundtrips(
        llid in any_llid(),
        nesn in any::<bool>(),
        sn in any::<bool>(),
        md in any::<bool>(),
        payload in vec(any::<u8>(), 0..64),
    ) {
        let pdu = DataPdu::new(llid, nesn, sn, md, payload);
        let bytes = pdu.to_bytes();
        let parsed = DataPdu::from_bytes(&bytes).expect("serialized PDU must parse");
        prop_assert_eq!(parsed, pdu);
    }

    #[test]
    fn control_pdu_roundtrips(ctrl in any_control_pdu()) {
        let bytes = ctrl.to_bytes();
        let parsed = ControlPdu::from_bytes(&bytes).expect("serialized PDU must parse");
        prop_assert_eq!(parsed, ctrl);
    }

    #[test]
    fn advertising_pdu_roundtrips(adv in any_advertising_pdu()) {
        let bytes = adv.to_bytes();
        let parsed = AdvertisingPdu::from_bytes(&bytes).expect("serialized PDU must parse");
        prop_assert_eq!(parsed, adv);
    }

    #[test]
    fn connection_params_roundtrip(params in any_connection_params()) {
        let bytes = params.to_bytes();
        prop_assert_eq!(bytes.len(), ConnectionParams::ENCODED_LEN);
        let parsed = ConnectionParams::from_bytes(&bytes).expect("22 bytes must parse");
        prop_assert_eq!(parsed, params);
    }

    #[test]
    fn truncated_data_pdu_is_a_typed_error(
        llid in any_llid(),
        payload in vec(any::<u8>(), 1..32),
    ) {
        let pdu = DataPdu::new(llid, false, false, false, payload);
        let bytes = pdu.to_bytes();
        for cut in 0..bytes.len() {
            let err = DataPdu::from_bytes(&bytes[..cut])
                .expect_err("truncation must be rejected");
            prop_assert!(
                matches!(err, ParseError::Truncated { .. } | ParseError::LengthMismatch { .. }),
                "unexpected error {err:?} at cut {cut}"
            );
        }
    }

    #[test]
    fn control_parse_never_panics_on_random_bytes(bytes in vec(any::<u8>(), 0..40)) {
        // Any byte soup must produce Ok or a typed error — never a panic.
        let _ = ControlPdu::from_bytes(&bytes);
        let _ = AdvertisingPdu::from_bytes(&bytes);
        let _ = DataPdu::from_bytes(&bytes);
    }
}
