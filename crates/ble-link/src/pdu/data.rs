//! Data-channel PDUs.
//!
//! The 16-bit data header carries the fields the InjectaBLE attack pivots
//! on: the **SN** / **NESN** acknowledgement bits (paper §III-B.6, forged
//! per eq. 6 and observed per eq. 7) and the **MD** (More Data) bit that
//! extends a connection event.

use ble_invariants::{invariant, len_u8};
use ble_phy::Pdu;

use crate::pdu::ParseError;

/// The LLID field: what kind of data PDU this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Llid {
    /// Continuation of an L2CAP message, or an empty PDU.
    ContinuationOrEmpty,
    /// Start of (or complete) L2CAP message.
    StartOrComplete,
    /// LL control PDU.
    Control,
}

impl Llid {
    /// The 2-bit encoding.
    pub fn bits(self) -> u8 {
        match self {
            Llid::ContinuationOrEmpty => 0b01,
            Llid::StartOrComplete => 0b10,
            Llid::Control => 0b11,
        }
    }

    /// Decodes the 2-bit field.
    ///
    /// # Errors
    ///
    /// `0b00` is reserved and returns [`ParseError::ReservedLlid`].
    pub fn from_bits(bits: u8) -> Result<Self, ParseError> {
        match bits & 0b11 {
            0b01 => Ok(Llid::ContinuationOrEmpty),
            0b10 => Ok(Llid::StartOrComplete),
            0b11 => Ok(Llid::Control),
            _ => Err(ParseError::ReservedLlid),
        }
    }
}

/// The decoded 2-byte data-channel PDU header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataHeader {
    /// PDU kind.
    pub llid: Llid,
    /// Next expected sequence number (acknowledgement bit).
    pub nesn: bool,
    /// Sequence number.
    pub sn: bool,
    /// More data: the sender wants to extend the connection event.
    pub md: bool,
    /// Payload length in bytes.
    pub length: u8,
}

impl DataHeader {
    /// Encodes the header's first byte (flags).
    pub fn flag_byte(&self) -> u8 {
        self.llid.bits()
            | (u8::from(self.nesn) << 2)
            | (u8::from(self.sn) << 3)
            | (u8::from(self.md) << 4)
    }
}

/// A data-channel PDU: header plus payload.
///
/// # Example
///
/// ```
/// use ble_link::{DataPdu, Llid};
/// let pdu = DataPdu::new(Llid::StartOrComplete, true, false, false, vec![1, 2, 3]);
/// let bytes = pdu.to_bytes();
/// let parsed = DataPdu::from_bytes(&bytes).unwrap();
/// assert_eq!(parsed.header.length, 3);
/// assert!(parsed.header.nesn);
/// assert!(!parsed.header.sn);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPdu {
    /// The decoded header.
    pub header: DataHeader,
    /// The payload bytes (possibly ciphertext + MIC when encryption is on).
    pub payload: Vec<u8>,
}

impl DataPdu {
    /// Creates a PDU, filling in the length field.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds 255 bytes.
    pub fn new(llid: Llid, nesn: bool, sn: bool, md: bool, payload: Vec<u8>) -> Self {
        assert!(payload.len() <= 255, "data payload too long");
        DataPdu {
            header: DataHeader {
                llid,
                nesn,
                sn,
                md,
                length: len_u8(payload.len()),
            },
            payload,
        }
    }

    /// An empty PDU (LLID 0b01, zero length) — what a device sends when it
    /// has nothing to say but must keep the event alive.
    pub fn empty(nesn: bool, sn: bool) -> Self {
        DataPdu::new(Llid::ContinuationOrEmpty, nesn, sn, false, Vec::new())
    }

    /// Whether this is an empty PDU.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty() && self.header.llid == Llid::ContinuationOrEmpty
    }

    /// Serialises straight into an inline [`Pdu`]: the 2-byte header plus a
    /// ≤255-byte payload always fits, so the frame path stays heap-free.
    pub fn to_pdu(&self) -> Pdu {
        DataPdu::encode_pdu(
            self.header.llid,
            self.header.nesn,
            self.header.sn,
            self.header.md,
            &self.payload,
        )
    }

    /// Encodes header fields plus a borrowed payload straight into an
    /// inline [`Pdu`], without building an owning `DataPdu` first — the
    /// per-attempt encoder for forge paths that reuse one payload buffer.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds 255 bytes, in every build profile,
    /// like [`DataPdu::new`].
    pub fn encode_pdu(llid: Llid, nesn: bool, sn: bool, md: bool, payload: &[u8]) -> Pdu {
        assert!(payload.len() <= 255, "data payload too long");
        let header = DataHeader {
            llid,
            nesn,
            sn,
            md,
            length: len_u8(payload.len()),
        };
        let mut out = Pdu::new();
        let ok = out.try_push(header.flag_byte()).is_ok()
            && out.try_push(header.length).is_ok()
            && out.try_extend_from_slice(payload).is_ok();
        invariant!(ok, "pdu-capacity", "data PDU exceeds inline PDU capacity");
        out
    }

    /// Serialises to over-the-air bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_pdu().as_slice().to_vec()
    }

    /// Parses over-the-air bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on truncation, length mismatch or reserved
    /// LLID.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseError> {
        let [flags, length] = crate::pdu::take::<2>(bytes, 0, "data header")?;
        let llid = Llid::from_bits(flags)?;
        let payload = bytes.get(2..).unwrap_or(&[]);
        if payload.len() != usize::from(length) {
            return Err(ParseError::LengthMismatch {
                declared: usize::from(length),
                actual: payload.len(),
            });
        }
        Ok(DataPdu {
            header: DataHeader {
                llid,
                nesn: flags & 0b0000_0100 != 0,
                sn: flags & 0b0000_1000 != 0,
                md: flags & 0b0001_0000 != 0,
                length,
            },
            payload: payload.to_vec(),
        })
    }

    /// Returns a copy with the NESN/SN bits replaced — used when the Link
    /// Layer retransmits a queued PDU under new acknowledgement state.
    pub fn with_seq(&self, nesn: bool, sn: bool) -> Self {
        let mut out = self.clone();
        out.header.nesn = nesn;
        out.header.sn = sn;
        out
    }

    /// Returns a copy with the MD bit set or cleared.
    pub fn with_md(&self, md: bool) -> Self {
        let mut out = self.clone();
        out.header.md = md;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_bit_layout_matches_spec() {
        let pdu = DataPdu::new(Llid::Control, true, true, true, vec![0x02]);
        let bytes = pdu.to_bytes();
        // LLID=0b11, NESN=1(bit2), SN=1(bit3), MD=1(bit4) → 0b0001_1111.
        assert_eq!(bytes[0], 0b0001_1111);
        assert_eq!(bytes[1], 1);
    }

    #[test]
    fn roundtrip_all_flag_combinations() {
        for nesn in [false, true] {
            for sn in [false, true] {
                for md in [false, true] {
                    for llid in [
                        Llid::ContinuationOrEmpty,
                        Llid::StartOrComplete,
                        Llid::Control,
                    ] {
                        let pdu = DataPdu::new(llid, nesn, sn, md, vec![7; 5]);
                        assert_eq!(DataPdu::from_bytes(&pdu.to_bytes()).unwrap(), pdu);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_pdu() {
        let pdu = DataPdu::empty(true, false);
        assert!(pdu.is_empty());
        assert_eq!(pdu.to_bytes(), vec![0b0000_0101, 0]);
    }

    #[test]
    fn reserved_llid_rejected() {
        assert!(DataPdu::from_bytes(&[0b0000_0000, 0]).is_err());
    }

    #[test]
    fn truncation_rejected() {
        assert!(DataPdu::from_bytes(&[0b10]).is_err());
        assert!(DataPdu::from_bytes(&[0b10, 3, 1, 2]).is_err());
        assert!(DataPdu::from_bytes(&[0b10, 1, 1, 2]).is_err());
    }

    #[test]
    fn with_seq_replaces_only_seq_bits() {
        let pdu = DataPdu::new(Llid::StartOrComplete, false, false, true, vec![1]);
        let re = pdu.with_seq(true, true);
        assert!(re.header.nesn && re.header.sn);
        assert!(re.header.md);
        assert_eq!(re.payload, pdu.payload);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn oversized_payload_panics() {
        let _ = DataPdu::new(Llid::StartOrComplete, false, false, false, vec![0; 256]);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn oversized_borrowed_payload_panics_in_every_profile() {
        let _ = DataPdu::encode_pdu(Llid::StartOrComplete, false, false, false, &[0; 256]);
    }
}
