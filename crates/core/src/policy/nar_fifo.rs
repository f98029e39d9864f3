//! The original FMIPv6 baseline — buffer everything at the new access
//! router, first-in first-out.

use super::{AdmissionLimit, Admit, AdmitCtx, Role};

/// Admission for NAR-only FIFO buffering (RFC 4068's anticipated
/// handover): the PAR tunnels every packet; the NAR parks them until the
/// host attaches and tail-drops on overflow. Class-blind.
pub(super) fn admit(role: Role, ctx: &AdmitCtx) -> Admit {
    match role {
        Role::Par => Admit::Tunnel {
            park_at_peer: ctx.case.nar() && !ctx.nar_full,
        },
        Role::Nar => {
            if ctx.case.nar() {
                Admit::Park(AdmissionLimit::Grant)
            } else {
                Admit::Forward
            }
        }
    }
}
