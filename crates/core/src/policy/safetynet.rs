//! SafetyNet-style bicast buffering for vertical handovers.
//!
//! Petander et al.'s SafetyNet observes that across a make-before-break
//! vertical handover the old link often keeps working while the new one
//! comes up, so instead of *redirecting* traffic the previous router
//! *duplicates* it: one copy is delivered on the old link as if nothing
//! happened, one copy is tunneled to the new router's buffer as insurance.
//! Whichever copy reaches the host first wins; the loser is suppressed at
//! the host. Loss across the handover drops to zero even when signaling
//! is slow, at the price of duplicate airtime — which the conservation
//! ledger accounts explicitly as `duplicated`, never as fresh `sent`.

use super::{AdmissionLimit, Admit, AdmitCtx, Role};

/// Admission for SafetyNet bicast (`SAFETY`): the PAR multicasts every
/// redirected packet to the old link *and* the NAR's buffer; the NAR
/// parks the insurance copies until the host attaches. Class-blind.
pub(super) fn admit(role: Role, ctx: &AdmitCtx) -> Admit {
    match role {
        // Bicast while the NAR can still park the insurance copy;
        // once the peer reports BufferFull (or never granted space)
        // the duplicate would only burn tunnel bandwidth to be
        // tail-dropped, so degrade to a plain unbuffered tunnel —
        // the same fallback every other scheme uses.
        Role::Par => {
            if ctx.case.nar() && !ctx.nar_full {
                Admit::Multicast
            } else {
                Admit::Tunnel {
                    park_at_peer: false,
                }
            }
        }
        Role::Nar => {
            if ctx.case.nar() {
                Admit::Park(AdmissionLimit::Grant)
            } else {
                Admit::Forward
            }
        }
    }
}
