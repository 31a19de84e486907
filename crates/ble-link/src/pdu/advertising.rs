//! Advertising-channel PDUs.

use ble_invariants::{invariant, len_u8};
use ble_phy::Pdu;

use crate::address::{AddressType, DeviceAddress};
use crate::connect_params::ConnectionParams;
use crate::pdu::{take, ParseError};

/// An advertising-channel PDU (Core Spec Vol 6 Part B §2.3).
///
/// # Example
///
/// ```
/// use ble_link::{AddressType, AdvertisingPdu, DeviceAddress};
/// let adv = AdvertisingPdu::AdvInd {
///     advertiser: DeviceAddress::new([1, 2, 3, 4, 5, 6], AddressType::Public),
///     data: b"\x02\x01\x06".to_vec(),
/// };
/// let bytes = adv.to_bytes();
/// assert_eq!(AdvertisingPdu::from_bytes(&bytes).unwrap(), adv);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdvertisingPdu {
    /// Connectable undirected advertising.
    AdvInd {
        /// The advertiser's address.
        advertiser: DeviceAddress,
        /// Advertising data (flags, name, ...), up to 31 bytes.
        data: Vec<u8>,
    },
    /// Non-connectable undirected advertising.
    AdvNonconnInd {
        /// The advertiser's address.
        advertiser: DeviceAddress,
        /// Advertising data, up to 31 bytes.
        data: Vec<u8>,
    },
    /// Scan request from a scanner to an advertiser.
    ScanReq {
        /// The scanner's address.
        scanner: DeviceAddress,
        /// The advertiser being queried.
        advertiser: DeviceAddress,
    },
    /// Scan response.
    ScanRsp {
        /// The advertiser's address.
        advertiser: DeviceAddress,
        /// Scan response data, up to 31 bytes.
        data: Vec<u8>,
    },
    /// Connection request — the packet the InjectaBLE sniffer hunts for,
    /// since it carries every parameter needed to follow the connection.
    ConnectReq {
        /// The initiator's (future Master's) address.
        initiator: DeviceAddress,
        /// The advertiser's (future Slave's) address.
        advertiser: DeviceAddress,
        /// The connection parameters (paper Table II).
        params: ConnectionParams,
        /// The ChSel header bit: `true` selects Channel Selection
        /// Algorithm #2 (BLE 5) for the connection.
        ch_sel: bool,
    },
}

/// PDU type codes.
const TYPE_ADV_IND: u8 = 0b0000;
const TYPE_ADV_NONCONN_IND: u8 = 0b0010;
const TYPE_SCAN_REQ: u8 = 0b0011;
const TYPE_SCAN_RSP: u8 = 0b0100;
const TYPE_CONNECT_REQ: u8 = 0b0101;

/// The data field that follows the advertiser address in ADV_IND,
/// ADV_NONCONN_IND and SCAN_RSP: at most 31 bytes on the legacy PHY.
fn adv_data(payload: &[u8]) -> Result<Vec<u8>, ParseError> {
    let data = payload.get(6..).unwrap_or(&[]);
    if data.len() > 31 {
        return Err(ParseError::InvalidField("advertising data over 31 bytes"));
    }
    Ok(data.to_vec())
}

impl AdvertisingPdu {
    /// Serialises straight into an inline [`Pdu`] (2-byte header then
    /// payload) without touching the heap — advertising payloads top out at
    /// 37 bytes, far under the inline capacity.
    pub fn to_pdu(&self) -> Pdu {
        let mut out = Pdu::new();
        // Header placeholder, patched below once the payload length is known.
        let mut ok = out.try_extend_from_slice(&[0, 0]).is_ok();
        let (ty, tx_add, rx_add) = match self {
            AdvertisingPdu::AdvInd { advertiser, data } => {
                ok = ok
                    && out.try_extend_from_slice(&advertiser.octets).is_ok()
                    && out.try_extend_from_slice(data).is_ok();
                (TYPE_ADV_IND, advertiser.kind.bit(), 0)
            }
            AdvertisingPdu::AdvNonconnInd { advertiser, data } => {
                ok = ok
                    && out.try_extend_from_slice(&advertiser.octets).is_ok()
                    && out.try_extend_from_slice(data).is_ok();
                (TYPE_ADV_NONCONN_IND, advertiser.kind.bit(), 0)
            }
            AdvertisingPdu::ScanReq {
                scanner,
                advertiser,
            } => {
                ok = ok
                    && out.try_extend_from_slice(&scanner.octets).is_ok()
                    && out.try_extend_from_slice(&advertiser.octets).is_ok();
                (TYPE_SCAN_REQ, scanner.kind.bit(), advertiser.kind.bit())
            }
            AdvertisingPdu::ScanRsp { advertiser, data } => {
                ok = ok
                    && out.try_extend_from_slice(&advertiser.octets).is_ok()
                    && out.try_extend_from_slice(data).is_ok();
                (TYPE_SCAN_RSP, advertiser.kind.bit(), 0)
            }
            AdvertisingPdu::ConnectReq {
                initiator,
                advertiser,
                params,
                ch_sel,
            } => {
                ok = ok
                    && out.try_extend_from_slice(&initiator.octets).is_ok()
                    && out.try_extend_from_slice(&advertiser.octets).is_ok()
                    && out.try_extend_from_slice(&params.to_bytes()).is_ok();
                let mut ty_bits = TYPE_CONNECT_REQ;
                if *ch_sel {
                    ty_bits |= 1 << 5; // the spec's ChSel header bit
                }
                (ty_bits, initiator.kind.bit(), advertiser.kind.bit())
            }
        };
        let payload_len = out.len().saturating_sub(2);
        invariant!(
            ok && payload_len <= 255,
            "pdu-capacity",
            "advertising PDU exceeds inline capacity"
        );
        if let [h0, h1, ..] = out.as_mut_slice() {
            *h0 = ty | (tx_add << 6) | (rx_add << 7);
            *h1 = len_u8(payload_len);
        }
        out
    }

    /// Serialises to over-the-air bytes: 2-byte header then payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_pdu().as_slice().to_vec()
    }

    /// Parses over-the-air bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on truncation, length mismatch or an
    /// unsupported PDU type.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseError> {
        let [header0, len] = take::<2>(bytes, 0, "advertising header")?;
        let ty = header0 & 0x0F;
        let ch_sel = (header0 >> 5) & 1 == 1;
        let tx_add = (header0 >> 6) & 1;
        let rx_add = (header0 >> 7) & 1;
        let payload = bytes.get(2..).unwrap_or(&[]);
        if payload.len() != usize::from(len) {
            return Err(ParseError::LengthMismatch {
                declared: usize::from(len),
                actual: payload.len(),
            });
        }
        let addr = |offset: usize, kind_bit: u8| -> Result<DeviceAddress, ParseError> {
            let octets = take::<6>(payload, offset, "device address")?;
            Ok(DeviceAddress::new(octets, AddressType::from_bit(kind_bit)))
        };
        match ty {
            TYPE_ADV_IND => Ok(AdvertisingPdu::AdvInd {
                advertiser: addr(0, tx_add)?,
                data: adv_data(payload)?,
            }),
            TYPE_ADV_NONCONN_IND => Ok(AdvertisingPdu::AdvNonconnInd {
                advertiser: addr(0, tx_add)?,
                data: adv_data(payload)?,
            }),
            TYPE_SCAN_REQ => {
                if payload.len() != 12 {
                    return Err(ParseError::LengthMismatch {
                        declared: 12,
                        actual: payload.len(),
                    });
                }
                Ok(AdvertisingPdu::ScanReq {
                    scanner: addr(0, tx_add)?,
                    advertiser: addr(6, rx_add)?,
                })
            }
            TYPE_SCAN_RSP => Ok(AdvertisingPdu::ScanRsp {
                advertiser: addr(0, tx_add)?,
                data: adv_data(payload)?,
            }),
            TYPE_CONNECT_REQ => {
                if payload.len() != 12 + ConnectionParams::ENCODED_LEN {
                    return Err(ParseError::LengthMismatch {
                        declared: 12 + ConnectionParams::ENCODED_LEN,
                        actual: payload.len(),
                    });
                }
                Ok(AdvertisingPdu::ConnectReq {
                    initiator: addr(0, tx_add)?,
                    advertiser: addr(6, rx_add)?,
                    params: ConnectionParams::from_bytes(payload.get(12..).unwrap_or(&[]))
                        .ok_or(ParseError::InvalidField("connection parameters"))?,
                    ch_sel,
                })
            }
            other => Err(ParseError::UnknownAdvType(other)),
        }
    }

    /// The advertiser address carried by this PDU.
    pub fn advertiser(&self) -> &DeviceAddress {
        match self {
            AdvertisingPdu::AdvInd { advertiser, .. }
            | AdvertisingPdu::AdvNonconnInd { advertiser, .. }
            | AdvertisingPdu::ScanRsp { advertiser, .. }
            | AdvertisingPdu::ScanReq { advertiser, .. }
            | AdvertisingPdu::ConnectReq { advertiser, .. } => advertiser,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimRng;

    fn addr(seed: u8, kind: AddressType) -> DeviceAddress {
        DeviceAddress::new([seed; 6], kind)
    }

    #[test]
    fn adv_ind_roundtrip() {
        let pdu = AdvertisingPdu::AdvInd {
            advertiser: addr(0x11, AddressType::Random),
            data: vec![0x02, 0x01, 0x06, 0x05, 0x09, b'B', b'u', b'l', b'b'],
        };
        let bytes = pdu.to_bytes();
        assert_eq!(bytes[1] as usize, bytes.len() - 2);
        assert_eq!(AdvertisingPdu::from_bytes(&bytes).unwrap(), pdu);
    }

    #[test]
    fn scan_req_and_rsp_roundtrip() {
        let req = AdvertisingPdu::ScanReq {
            scanner: addr(0x22, AddressType::Public),
            advertiser: addr(0x33, AddressType::Random),
        };
        assert_eq!(AdvertisingPdu::from_bytes(&req.to_bytes()).unwrap(), req);
        let rsp = AdvertisingPdu::ScanRsp {
            advertiser: addr(0x33, AddressType::Random),
            data: vec![1, 2, 3],
        };
        assert_eq!(AdvertisingPdu::from_bytes(&rsp.to_bytes()).unwrap(), rsp);
    }

    #[test]
    fn connect_req_roundtrip_is_34_byte_pdu() {
        let mut rng = SimRng::seed_from(9);
        let pdu = AdvertisingPdu::ConnectReq {
            initiator: addr(0x44, AddressType::Public),
            advertiser: addr(0x55, AddressType::Random),
            params: ConnectionParams::typical(&mut rng, 36),
            ch_sel: false,
        };
        let bytes = pdu.to_bytes();
        assert_eq!(bytes.len(), 2 + 34);
        assert_eq!(AdvertisingPdu::from_bytes(&bytes).unwrap(), pdu);
    }

    #[test]
    fn address_type_bits_preserved() {
        let pdu = AdvertisingPdu::ConnectReq {
            initiator: addr(0x44, AddressType::Random),
            advertiser: addr(0x55, AddressType::Public),
            params: ConnectionParams::typical(&mut SimRng::seed_from(1), 24),
            ch_sel: true,
        };
        let parsed = AdvertisingPdu::from_bytes(&pdu.to_bytes()).unwrap();
        let AdvertisingPdu::ConnectReq {
            initiator,
            advertiser,
            ch_sel,
            ..
        } = parsed
        else {
            panic!("wrong type");
        };
        assert_eq!(initiator.kind, AddressType::Random);
        assert_eq!(advertiser.kind, AddressType::Public);
        assert!(ch_sel, "ChSel bit survives the roundtrip");
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(AdvertisingPdu::from_bytes(&[]).is_err());
        assert!(AdvertisingPdu::from_bytes(&[0x00]).is_err());
        // Bad length field.
        assert!(AdvertisingPdu::from_bytes(&[0x00, 10, 1, 2]).is_err());
        // Unknown type (0b1111).
        assert!(AdvertisingPdu::from_bytes(&[0x0F, 0]).is_err());
        // SCAN_REQ with wrong size.
        assert!(AdvertisingPdu::from_bytes(&[0x03, 3, 1, 2, 3]).is_err());
        // Oversized adv data.
        let mut big = vec![0x00, 38];
        big.extend(vec![0u8; 38]);
        assert!(AdvertisingPdu::from_bytes(&big).is_err());
    }

    #[test]
    fn oversized_data_is_rejected_for_every_data_bearing_type() {
        // 6 address bytes + 40 data bytes, typed ADV_IND, ADV_NONCONN_IND
        // and SCAN_RSP in turn: each is over the 31-byte data limit.
        for ty in [TYPE_ADV_IND, TYPE_ADV_NONCONN_IND, TYPE_SCAN_RSP] {
            let mut frame = vec![ty, 46];
            frame.extend([0u8; 46]);
            assert!(AdvertisingPdu::from_bytes(&frame).is_err(), "type {ty}");
            // At exactly 31 data bytes the same frame parses.
            frame[1] = 37;
            frame.truncate(2 + 37);
            assert!(AdvertisingPdu::from_bytes(&frame).is_ok(), "type {ty}");
        }
    }

    #[test]
    fn advertiser_accessor() {
        let pdu = AdvertisingPdu::AdvInd {
            advertiser: addr(0x66, AddressType::Public),
            data: vec![],
        };
        assert_eq!(pdu.advertiser().octets, [0x66; 6]);
    }
}
