//! The thesis' enhanced dual-router scheme — Table 3.3.
//!
//! Both routers' buffers cooperate, split half and half, with the
//! per-class operation matrix of Table 3.3 when `classify` is on
//! (`DUAL+class`) and class-blind fill-NAR-spill-PAR behavior when it is
//! off (`DUAL`).

use fh_net::ServiceClass;

use super::{AdmissionLimit, Admit, AdmitCtx, AvailabilityCase, Overflow, Role};

/// The local-park limit for a class-blind dual session: the grant when
/// one exists, otherwise whatever the pool will take.
fn blind_park(ctx: &AdmitCtx) -> Admit {
    if ctx.par_granted {
        Admit::Park(AdmissionLimit::Grant)
    } else {
        Admit::Park(AdmissionLimit::PoolOnly)
    }
}

/// Admission for `DUAL` (`classify == false`) and `DUAL+class`.
pub(super) fn admit(classify: bool, role: Role, ctx: &AdmitCtx) -> Admit {
    match role {
        Role::Par if !classify => match ctx.case {
            AvailabilityCase::BothAvailable => {
                if ctx.nar_full {
                    blind_park(ctx)
                } else {
                    Admit::Tunnel { park_at_peer: true }
                }
            }
            AvailabilityCase::NarOnly => Admit::Tunnel {
                park_at_peer: !ctx.nar_full,
            },
            AvailabilityCase::ParOnly => blind_park(ctx),
            AvailabilityCase::NoneAvailable => Admit::Tunnel {
                park_at_peer: false,
            },
        },
        Role::Par => match (ctx.case, ctx.class.effective()) {
            // Case 1: NAR yes, PAR yes.
            (AvailabilityCase::BothAvailable, ServiceClass::RealTime) => {
                Admit::Tunnel { park_at_peer: true }
            }
            (AvailabilityCase::BothAvailable, ServiceClass::HighPriority) => {
                if ctx.nar_full {
                    Admit::Park(AdmissionLimit::Grant)
                } else {
                    Admit::Tunnel { park_at_peer: true }
                }
            }
            (AvailabilityCase::BothAvailable, _) => {
                Admit::Park(AdmissionLimit::Threshold(ctx.threshold_a))
            }
            // Case 2: NAR yes, PAR no.
            (AvailabilityCase::NarOnly, ServiceClass::RealTime | ServiceClass::HighPriority) => {
                Admit::Tunnel { park_at_peer: true }
            }
            (AvailabilityCase::NarOnly, _) => Admit::Tunnel {
                park_at_peer: false,
            },
            // Case 3: NAR no, PAR yes.
            (AvailabilityCase::ParOnly, ServiceClass::RealTime) => Admit::Tunnel {
                park_at_peer: false,
            },
            (AvailabilityCase::ParOnly, ServiceClass::HighPriority) => {
                Admit::Park(AdmissionLimit::Grant)
            }
            (AvailabilityCase::ParOnly, _) => {
                Admit::Park(AdmissionLimit::Threshold(ctx.threshold_a))
            }
            // Case 4: NAR no, PAR no.
            (
                AvailabilityCase::NoneAvailable,
                ServiceClass::RealTime | ServiceClass::HighPriority,
            ) => Admit::Tunnel {
                park_at_peer: false,
            },
            (AvailabilityCase::NoneAvailable, _) => Admit::Drop,
        },
        Role::Nar => {
            if !ctx.case.nar() {
                return Admit::Forward;
            }
            if !classify {
                return Admit::Park(AdmissionLimit::Grant);
            }
            match ctx.class.effective() {
                ServiceClass::RealTime | ServiceClass::HighPriority => {
                    Admit::Park(AdmissionLimit::Grant)
                }
                _ => Admit::Forward,
            }
        }
    }
}

/// The NAR's reaction to a full pool: class-blind `DUAL` hands every
/// overflow to the PAR; with classification, stale real-time samples
/// make room for fresh ones and best effort tail-drops.
pub(super) fn nar_overflow(classify: bool, class: ServiceClass) -> Overflow {
    if !classify {
        return Overflow::NotifyPeer;
    }
    match class.effective() {
        ServiceClass::RealTime => Overflow::DropFrontRealtime,
        ServiceClass::HighPriority => Overflow::NotifyPeer,
        _ => Overflow::TailDrop,
    }
}
