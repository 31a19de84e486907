//! Minimal Security Manager: legacy *Just Works* pairing.
//!
//! Enough of SMP to provision a key for the paper's §VIII countermeasure
//! experiments: the confirm exchange built on `c1` and the STK derivation
//! via `s1` (both from `ble-crypto`). The derived STK is used directly as
//! the link key (the key-distribution phase is collapsed — a documented
//! simulation simplification that does not affect the Link-Layer behaviour
//! the attack interacts with).

use ble_crypto::pairing::{c1, s1};
use simkit::SimRng;

/// SMP PDU opcodes and encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmpPdu {
    /// Pairing Request (0x01).
    PairingRequest {
        /// Raw parameter bytes (io cap, oob, authreq, key size, key dist).
        params: [u8; 6],
    },
    /// Pairing Response (0x02).
    PairingResponse {
        /// Raw parameter bytes.
        params: [u8; 6],
    },
    /// Pairing Confirm (0x03).
    PairingConfirm {
        /// The 128-bit confirm value.
        value: [u8; 16],
    },
    /// Pairing Random (0x04).
    PairingRandom {
        /// The 128-bit random value.
        value: [u8; 16],
    },
    /// Pairing Failed (0x05).
    PairingFailed {
        /// Failure reason code.
        reason: u8,
    },
}

impl SmpPdu {
    /// Serialises to SMP channel bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            SmpPdu::PairingRequest { params } => {
                let mut v = vec![0x01];
                v.extend_from_slice(params);
                v
            }
            SmpPdu::PairingResponse { params } => {
                let mut v = vec![0x02];
                v.extend_from_slice(params);
                v
            }
            SmpPdu::PairingConfirm { value } => {
                let mut v = vec![0x03];
                v.extend_from_slice(value);
                v
            }
            SmpPdu::PairingRandom { value } => {
                let mut v = vec![0x04];
                v.extend_from_slice(value);
                v
            }
            SmpPdu::PairingFailed { reason } => vec![0x05, *reason],
        }
    }

    /// Parses SMP channel bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<SmpPdu> {
        let (&op, data) = bytes.split_first()?;
        match op {
            0x01 | 0x02 => {
                let params: [u8; 6] = data.try_into().ok()?;
                Some(if op == 0x01 {
                    SmpPdu::PairingRequest { params }
                } else {
                    SmpPdu::PairingResponse { params }
                })
            }
            0x03 | 0x04 => {
                let value: [u8; 16] = data.try_into().ok()?;
                Some(if op == 0x03 {
                    SmpPdu::PairingConfirm { value }
                } else {
                    SmpPdu::PairingRandom { value }
                })
            }
            0x05 => match data {
                &[reason] => Some(SmpPdu::PairingFailed { reason }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Default Just Works parameter block: NoInputNoOutput, no OOB, bonding,
/// 16-byte keys, no key distribution.
pub const JUST_WORKS_PARAMS: [u8; 6] = [0x03, 0x00, 0x01, 0x10, 0x00, 0x00];

/// Addressing context both sides need for `c1`.
#[derive(Debug, Clone, Copy)]
pub struct SmpContext {
    /// Initiator address (6 bytes, over-the-air order).
    pub ia: [u8; 6],
    /// Initiator address type bit.
    pub iat: u8,
    /// Responder address.
    pub ra: [u8; 6],
    /// Responder address type bit.
    pub rat: u8,
}

/// Outcome of a completed pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmpOutcome {
    /// Pairing succeeded with this Short-Term Key.
    Stk([u8; 16]),
    /// Pairing failed with this reason code.
    Failed(u8),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitiatorPhase {
    WaitResponse,
    WaitConfirm,
    WaitRandom,
    Done,
}

/// The pairing initiator (Central side).
#[derive(Debug)]
pub struct SmpInitiator {
    ctx: SmpContext,
    tk: [u8; 16],
    preq: [u8; 7],
    pres: [u8; 7],
    mrand: [u8; 16],
    sconfirm: [u8; 16],
    phase: InitiatorPhase,
}

impl SmpInitiator {
    /// Creates the initiator and the Pairing Request to send.
    pub fn start(ctx: SmpContext, rng: &mut SimRng) -> (Self, SmpPdu) {
        let req = SmpPdu::PairingRequest {
            params: JUST_WORKS_PARAMS,
        };
        let mut mrand = [0u8; 16];
        for b in &mut mrand {
            *b = rng.below(256) as u8;
        }
        let mut preq = [0u8; 7];
        preq.copy_from_slice(&req.to_bytes());
        (
            SmpInitiator {
                ctx,
                tk: [0; 16], // Just Works: TK = 0
                preq,
                pres: [0; 7],
                mrand,
                sconfirm: [0; 16],
                phase: InitiatorPhase::WaitResponse,
            },
            req,
        )
    }

    /// Feeds a received SMP PDU; returns a PDU to send and/or an outcome.
    pub fn on_pdu(&mut self, pdu: &SmpPdu) -> (Option<SmpPdu>, Option<SmpOutcome>) {
        match (self.phase, pdu) {
            (InitiatorPhase::WaitResponse, SmpPdu::PairingResponse { params }) => {
                self.pres[0] = 0x02;
                self.pres[1..].copy_from_slice(params);
                self.phase = InitiatorPhase::WaitConfirm;
                let mconfirm = c1(
                    &self.tk,
                    &self.mrand,
                    &self.preq,
                    &self.pres,
                    self.ctx.iat,
                    self.ctx.rat,
                    &self.ctx.ia,
                    &self.ctx.ra,
                );
                (Some(SmpPdu::PairingConfirm { value: mconfirm }), None)
            }
            (InitiatorPhase::WaitConfirm, SmpPdu::PairingConfirm { value }) => {
                self.sconfirm = *value;
                self.phase = InitiatorPhase::WaitRandom;
                (Some(SmpPdu::PairingRandom { value: self.mrand }), None)
            }
            (InitiatorPhase::WaitRandom, SmpPdu::PairingRandom { value: srand }) => {
                let expected = c1(
                    &self.tk,
                    srand,
                    &self.preq,
                    &self.pres,
                    self.ctx.iat,
                    self.ctx.rat,
                    &self.ctx.ia,
                    &self.ctx.ra,
                );
                self.phase = InitiatorPhase::Done;
                if expected == self.sconfirm {
                    let stk = s1(&self.tk, srand, &self.mrand);
                    (None, Some(SmpOutcome::Stk(stk)))
                } else {
                    (
                        Some(SmpPdu::PairingFailed { reason: 0x04 }),
                        Some(SmpOutcome::Failed(0x04)),
                    )
                }
            }
            (_, SmpPdu::PairingFailed { reason }) => (None, Some(SmpOutcome::Failed(*reason))),
            _ => (None, None),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResponderPhase {
    WaitRequest,
    WaitConfirm,
    WaitRandom,
    Done,
}

/// The pairing responder (Peripheral side).
#[derive(Debug)]
pub struct SmpResponder {
    ctx: SmpContext,
    tk: [u8; 16],
    preq: [u8; 7],
    pres: [u8; 7],
    srand: [u8; 16],
    mconfirm: [u8; 16],
    phase: ResponderPhase,
}

impl SmpResponder {
    /// Creates an idle responder.
    pub fn new(ctx: SmpContext, rng: &mut SimRng) -> Self {
        let mut srand = [0u8; 16];
        for b in &mut srand {
            *b = rng.below(256) as u8;
        }
        SmpResponder {
            ctx,
            tk: [0; 16],
            preq: [0; 7],
            pres: [0; 7],
            srand,
            mconfirm: [0; 16],
            phase: ResponderPhase::WaitRequest,
        }
    }

    /// Feeds a received SMP PDU; returns a PDU to send and/or an outcome.
    pub fn on_pdu(&mut self, pdu: &SmpPdu) -> (Option<SmpPdu>, Option<SmpOutcome>) {
        match (self.phase, pdu) {
            (ResponderPhase::WaitRequest, SmpPdu::PairingRequest { params }) => {
                self.preq[0] = 0x01;
                self.preq[1..].copy_from_slice(params);
                let rsp = SmpPdu::PairingResponse {
                    params: JUST_WORKS_PARAMS,
                };
                self.pres.copy_from_slice(&rsp.to_bytes());
                self.phase = ResponderPhase::WaitConfirm;
                (Some(rsp), None)
            }
            (ResponderPhase::WaitConfirm, SmpPdu::PairingConfirm { value }) => {
                self.mconfirm = *value;
                self.phase = ResponderPhase::WaitRandom;
                let sconfirm = c1(
                    &self.tk,
                    &self.srand,
                    &self.preq,
                    &self.pres,
                    self.ctx.iat,
                    self.ctx.rat,
                    &self.ctx.ia,
                    &self.ctx.ra,
                );
                (Some(SmpPdu::PairingConfirm { value: sconfirm }), None)
            }
            (ResponderPhase::WaitRandom, SmpPdu::PairingRandom { value: mrand }) => {
                let expected = c1(
                    &self.tk,
                    mrand,
                    &self.preq,
                    &self.pres,
                    self.ctx.iat,
                    self.ctx.rat,
                    &self.ctx.ia,
                    &self.ctx.ra,
                );
                self.phase = ResponderPhase::Done;
                if expected == self.mconfirm {
                    let stk = s1(&self.tk, &self.srand, mrand);
                    (
                        Some(SmpPdu::PairingRandom { value: self.srand }),
                        Some(SmpOutcome::Stk(stk)),
                    )
                } else {
                    (
                        Some(SmpPdu::PairingFailed { reason: 0x04 }),
                        Some(SmpOutcome::Failed(0x04)),
                    )
                }
            }
            (_, SmpPdu::PairingFailed { reason }) => (None, Some(SmpOutcome::Failed(*reason))),
            _ => (None, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SmpContext {
        SmpContext {
            ia: [0xA0; 6],
            iat: 0,
            ra: [0xB0; 6],
            rat: 0,
        }
    }

    /// Drives a full pairing between initiator and responder in-memory.
    fn run_pairing(tamper_confirm: bool) -> (Option<SmpOutcome>, Option<SmpOutcome>) {
        let mut rng_i = SimRng::seed_from(1);
        let mut rng_r = SimRng::seed_from(2);
        let (mut init, first) = SmpInitiator::start(ctx(), &mut rng_i);
        let mut resp = SmpResponder::new(ctx(), &mut rng_r);
        let mut to_resp = Some(first);
        let mut to_init: Option<SmpPdu> = None;
        let mut init_outcome = None;
        let mut resp_outcome = None;
        for _ in 0..10 {
            if let Some(pdu) = to_resp.take() {
                let (reply, outcome) = resp.on_pdu(&pdu);
                to_init = reply;
                resp_outcome = resp_outcome.or(outcome);
            }
            if let Some(mut pdu) = to_init.take() {
                if tamper_confirm {
                    if let SmpPdu::PairingConfirm { value } = &mut pdu {
                        value[0] ^= 0xFF;
                    }
                }
                let (reply, outcome) = init.on_pdu(&pdu);
                to_resp = reply;
                init_outcome = init_outcome.or(outcome);
            }
            if to_resp.is_none() && to_init.is_none() {
                break;
            }
        }
        (init_outcome, resp_outcome)
    }

    #[test]
    fn just_works_pairing_agrees_on_stk() {
        let (i, r) = run_pairing(false);
        let Some(SmpOutcome::Stk(stk_i)) = i else {
            panic!("initiator outcome {i:?}");
        };
        let Some(SmpOutcome::Stk(stk_r)) = r else {
            panic!("responder outcome {r:?}");
        };
        assert_eq!(stk_i, stk_r, "both sides derive the same STK");
    }

    #[test]
    fn tampered_confirm_fails_pairing() {
        let (i, _r) = run_pairing(true);
        assert!(matches!(i, Some(SmpOutcome::Failed(_))), "{i:?}");
    }

    #[test]
    fn pdu_roundtrips() {
        for pdu in [
            SmpPdu::PairingRequest {
                params: JUST_WORKS_PARAMS,
            },
            SmpPdu::PairingResponse {
                params: [1, 2, 3, 4, 5, 6],
            },
            SmpPdu::PairingConfirm { value: [7; 16] },
            SmpPdu::PairingRandom { value: [8; 16] },
            SmpPdu::PairingFailed { reason: 0x05 },
        ] {
            assert_eq!(SmpPdu::from_bytes(&pdu.to_bytes()), Some(pdu));
        }
    }

    #[test]
    fn malformed_pdus_rejected() {
        assert_eq!(SmpPdu::from_bytes(&[]), None);
        assert_eq!(SmpPdu::from_bytes(&[0x01, 1, 2]), None);
        assert_eq!(SmpPdu::from_bytes(&[0x03, 1]), None);
        assert_eq!(SmpPdu::from_bytes(&[0x09]), None);
        // Pairing Failed carries exactly one reason byte.
        assert_eq!(SmpPdu::from_bytes(&[0x05]), None);
        assert_eq!(SmpPdu::from_bytes(&[0x05, 0x08, 0xFF]), None);
        assert_eq!(
            SmpPdu::from_bytes(&[0x05, 0x08]),
            Some(SmpPdu::PairingFailed { reason: 0x08 })
        );
    }

    #[test]
    fn out_of_order_pdus_ignored() {
        let mut rng = SimRng::seed_from(5);
        let mut resp = SmpResponder::new(ctx(), &mut rng);
        let (reply, outcome) = resp.on_pdu(&SmpPdu::PairingRandom { value: [0; 16] });
        assert!(reply.is_none() && outcome.is_none());
    }
}
