//! The no-buffering baseline — plain fast handover (`FH`): every
//! redirected packet is tunneled straight through and delivery is
//! attempted immediately — whatever arrives during the black-out is lost.

use super::{Admit, Role};

/// Admission for `FH`: never park anything.
pub(super) fn admit(role: Role) -> Admit {
    match role {
        Role::Par => Admit::Tunnel {
            park_at_peer: false,
        },
        Role::Nar => Admit::Forward,
    }
}
