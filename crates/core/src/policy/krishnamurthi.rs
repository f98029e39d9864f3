//! The smooth-handover draft baseline — buffer everything at the
//! previous access router.

use super::{AdmissionLimit, Admit, AdmitCtx, Role};

/// Admission for PAR-only buffering (Krishnamurthi et al.'s
/// smooth-handover draft): the previous router parks departing traffic
/// in its own pool and the new router delivers whatever reaches it
/// immediately. Class-blind.
pub(super) fn admit(role: Role, ctx: &AdmitCtx) -> Admit {
    match role {
        Role::Par => {
            if ctx.case.par() {
                if ctx.par_granted {
                    Admit::Park(AdmissionLimit::Grant)
                } else {
                    Admit::Park(AdmissionLimit::PoolOnly)
                }
            } else {
                Admit::Tunnel {
                    park_at_peer: false,
                }
            }
        }
        Role::Nar => Admit::Forward,
    }
}
