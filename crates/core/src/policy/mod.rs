//! The buffer-policy layer: *what* to do with a packet, never *how*.
//!
//! This is the bottom layer of the refactored access-router stack
//! (policy ← datapath ← signaling). [`PolicyEngine`] holds the active
//! [`Scheme`] and answers, as a pure decision table,
//!
//! * [`PolicyEngine::admit`] — park, forward, tunnel, bicast or drop;
//! * [`PolicyEngine::overflow`] — what to do when the pool rejects a
//!   packet the policy wanted parked;
//! * [`PolicyEngine::on_grant`] — how a host's buffer request is split
//!   between the previous and the new access router;
//! * [`PolicyEngine::classify_batch`] — all of the above for every class
//!   at once, the form the datapath caches per session snapshot.
//!
//! Each scheme's admission table lives in its own file: `nar_fifo.rs`
//! (original FMIPv6), `krishnamurthi.rs` (smooth-handover draft),
//! `enhanced.rs` (the thesis' Table 3.3 matrix, with and without
//! classification, and its class-aware NAR overflow), `safetynet.rs`
//! (vertical-handover bicast with host-side duplicate suppression) and
//! `no_buffer.rs` (the no-op baseline). What every scheme shares — the
//! PAR-side overflow spill, the request split derived from
//! [`Scheme::uses_par_buffer`] / [`Scheme::uses_nar_buffer`], and the
//! shed ladder [`ShedRung::ALL`] — is written once here.
//!
//! Adding a scheme is one file with an `admit` function plus one arm per
//! [`PolicyEngine`] method. Nothing here may import signaling, datapath
//! or simulator types — the layering test (`tests/layering.rs`) keeps
//! this module free of actor concerns, so a policy stays a table you can
//! read against the thesis.
//!
//! The legacy pure functions ([`par_action`], [`nar_action`],
//! [`nar_overflow`] in [`matrix`]) remain the normative transcription of
//! Table 3.3; the golden-matrix test pins the engine against them,
//! exhaustively.

#![deny(missing_docs)]

pub mod matrix;

mod enhanced;
mod krishnamurthi;
mod nar_fifo;
mod no_buffer;
mod safetynet;

pub use matrix::{
    nar_action, nar_overflow, par_action, AvailabilityCase, NarAction, NarOverflow, ParAction,
};

use fh_net::ServiceClass;

use crate::scheme::Scheme;

/// Session-level admission rule for `BufferPool::try_buffer` — the
/// vocabulary a policy uses to bound how much a session may park.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionLimit {
    /// Admit while the session holds fewer packets than its grant.
    Grant,
    /// Admit while the pool's free space exceeds the threshold `a`
    /// (best-effort spill-over).
    Threshold(u32),
    /// Admit while the pool has any free space (class-blind schemes).
    PoolOnly,
}

/// Which end of the handover the decision is made at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The previous access router, redirecting departing traffic.
    Par,
    /// The new access router, receiving tunneled traffic.
    Nar,
}

/// Everything a policy may consult when admitting one packet.
///
/// Deliberately plain data: the datapath snapshots these from live
/// session state so policies never touch signaling or pool internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitCtx {
    /// Which routers granted buffer space (Table 3.2).
    pub case: AvailabilityCase,
    /// The packet's effective service class (Table 3.1).
    pub class: ServiceClass,
    /// `true` once the peer NAR reported BufferFull for this session.
    pub nar_full: bool,
    /// `true` if this router holds a non-zero grant for the session.
    pub par_granted: bool,
    /// The administrator constant `a` (best-effort spill threshold).
    pub threshold_a: u32,
}

/// A policy's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Park the packet in the local pool under the given admission limit.
    Park(AdmissionLimit),
    /// Forward toward the host immediately (radio delivery attempt —
    /// lost while the host is detached).
    Forward,
    /// Tunnel to the peer router. `park_at_peer` records what the peer
    /// is *expected* to do (Table 3.3's tunnel-and-buffer vs plain
    /// tunnel); the peer still runs its own [`PolicyEngine::admit`].
    Tunnel {
        /// `true` if the peer is expected to buffer the packet.
        park_at_peer: bool,
    },
    /// Bicast (SafetyNet): attempt delivery toward the host on the local
    /// link *and* tunnel a duplicate to the peer router, which is
    /// expected to park it. The duplicate must be accounted as
    /// `duplicated` in the conservation ledger — never as fresh `sent` —
    /// and the host suppresses whichever copy arrives second.
    Multicast,
    /// Drop by policy (Table 3.3 case 4, best effort).
    Drop,
}

/// What to do when the pool rejects a packet the policy wanted parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overflow {
    /// Evict the oldest buffered real-time packet and admit the new one
    /// (fresh media samples outrank stale ones — case 1.a / 2.a).
    DropFrontRealtime,
    /// Tell the peer router to take over (BufferFull) and bounce the
    /// overflowing packet back through the tunnel — case 1.b.
    NotifyPeer,
    /// Tunnel the overflowing packet to the peer unbuffered instead of
    /// dropping it (the PAR-side reaction for high-priority traffic).
    SpillPeer,
    /// Plain tail drop.
    TailDrop,
}

/// How a host's buffer request is split across the two routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSplit {
    /// Slots requested from the previous access router's pool.
    pub par: u32,
    /// Slots requested from the new access router (rides HI+BR).
    pub nar: u32,
}

/// One rung of the overload shed ladder — what the router sacrifices
/// next once parked bytes cross the high watermark.
///
/// Every scheme sheds in the one order of [`ShedRung::ALL`], so overload
/// degrades in a chosen order, not an accidental one, and the
/// `shed_order_respected` expectation can audit it after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedRung {
    /// Shed the oldest parked best-effort packet anywhere in the pool.
    BestEffort,
    /// Drop-front the oldest parked real-time packet (fresh media samples
    /// outrank stale ones, the same logic as `Overflow::DropFrontRealtime`).
    DropFrontRealtime,
    /// Force an early reactive flush of the oldest buffering session —
    /// its packets are delivered down the reactive path rather than shed.
    ForceFlushOldest,
}

impl ShedRung {
    /// The shed ladder: under sustained byte pressure the datapath tries
    /// these rungs strictly in order, moving to the next only when the
    /// current one has nothing left to give. It mirrors the Table 3.3
    /// priorities: best effort is sacrificial, real time tolerates
    /// drop-front, and a forced flush is the last resort.
    pub const ALL: [ShedRung; 3] = [
        ShedRung::BestEffort,
        ShedRung::DropFrontRealtime,
        ShedRung::ForceFlushOldest,
    ];

    /// The label traces and metrics use for this rung.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShedRung::BestEffort => "best-effort",
            ShedRung::DropFrontRealtime => "drop-front",
            ShedRung::ForceFlushOldest => "force-flush",
        }
    }
}

/// A policy's verdicts for every service class under one `(role,
/// session)` snapshot — the unit of work for batch classification.
///
/// Everything in an [`AdmitCtx`] except the packet class is session
/// state, constant across one flush: the availability case, the peer's
/// BufferFull flag, the local grant, and the spill threshold. So instead
/// of asking the [`PolicyEngine`] once per packet, a flush asks the
/// engine once per *batch* ([`PolicyEngine::classify_batch`]) and then
/// routes each packet through this table with a branch-free index on its
/// effective class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassVerdicts {
    admit: [Admit; 3],
    overflow: [Overflow; 3],
}

impl ClassVerdicts {
    /// The three effective classes, in index order (`Unspecified`
    /// collapses onto `BestEffort` before lookup).
    const CLASSES: [ServiceClass; 3] = [
        ServiceClass::RealTime,
        ServiceClass::HighPriority,
        ServiceClass::BestEffort,
    ];

    #[inline]
    fn index(class: ServiceClass) -> usize {
        match class.effective() {
            ServiceClass::RealTime => 0,
            ServiceClass::HighPriority => 1,
            _ => 2,
        }
    }

    /// The admission verdict for a packet of `class`.
    #[must_use]
    #[inline]
    pub fn admit(&self, class: ServiceClass) -> Admit {
        self.admit[Self::index(class)]
    }

    /// The overflow reaction for a packet of `class`.
    #[must_use]
    #[inline]
    pub fn overflow(&self, class: ServiceClass) -> Overflow {
        self.overflow[Self::index(class)]
    }
}

/// The decision surface of one [`Scheme`].
///
/// A plain copy of the scheme: every method is one `match` on it, so the
/// per-packet hot path is a jump table the optimizer can inline through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyEngine {
    scheme: Scheme,
}

impl PolicyEngine {
    /// The policy implementing a [`Scheme`].
    #[must_use]
    pub fn for_scheme(scheme: Scheme) -> Self {
        PolicyEngine { scheme }
    }

    /// Decide what happens to one packet at `role`.
    #[must_use]
    #[inline]
    pub fn admit(&self, role: Role, ctx: &AdmitCtx) -> Admit {
        match self.scheme {
            Scheme::NoBuffer => no_buffer::admit(role),
            Scheme::NarOnly => nar_fifo::admit(role, ctx),
            Scheme::ParOnly => krishnamurthi::admit(role, ctx),
            Scheme::Dual { classify } => enhanced::admit(classify, role, ctx),
            Scheme::SafetyNet => safetynet::admit(role, ctx),
        }
    }

    /// The reaction when the pool rejects a packet this policy parked.
    #[must_use]
    #[inline]
    pub fn overflow(&self, role: Role, class: ServiceClass) -> Overflow {
        match (role, self.scheme) {
            // Every scheme's PAR: a rejected high-priority packet is
            // spilled to the peer unbuffered (the drop-rate promise
            // matters most), anything else tail-drops.
            (Role::Par, _) => match class.effective() {
                ServiceClass::HighPriority => Overflow::SpillPeer,
                _ => Overflow::TailDrop,
            },
            (Role::Nar, Scheme::Dual { classify }) => enhanced::nar_overflow(classify, class),
            // Every other NAR tail-drops: a single-buffer scheme has
            // nobody to spill to, and SafetyNet's overflowing packet is
            // the insurance copy — the original still races down the old
            // link, so notifying the peer would only duplicate again.
            (Role::Nar, _) => Overflow::TailDrop,
        }
    }

    /// Split a host's buffer request between the two routers: a scheme
    /// buffering at both asks each for half (§3.1.2 "maximize buffer
    /// utilization", the odd slot going to the PAR); the baselines put
    /// everything on their single router.
    #[must_use]
    pub fn on_grant(&self, requested: u32) -> RequestSplit {
        let (par, nar) = match (self.scheme.uses_par_buffer(), self.scheme.uses_nar_buffer()) {
            (true, true) => (requested.div_ceil(2), requested / 2),
            (true, false) => (requested, 0),
            (false, true) => (0, requested),
            (false, false) => (0, 0),
        };
        RequestSplit { par, nar }
    }

    /// Precomputes the verdicts for every class at once.
    ///
    /// `ctx.class` is ignored — the returned [`ClassVerdicts`] covers all
    /// classes; the other `AdmitCtx` fields must hold for the whole
    /// batch. Equivalent, class by class, to calling
    /// [`PolicyEngine::admit`] / [`PolicyEngine::overflow`] per packet
    /// (pinned by the `classify_batch_matches_per_packet_dispatch` test).
    #[must_use]
    #[inline]
    pub fn classify_batch(&self, role: Role, ctx: &AdmitCtx) -> ClassVerdicts {
        ClassVerdicts {
            admit: ClassVerdicts::CLASSES
                .map(|class| self.admit(role, &AdmitCtx { class, ..*ctx })),
            overflow: ClassVerdicts::CLASSES.map(|class| self.overflow(role, class)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ladder lists each rung exactly once, best effort first and the
    /// forced flush last — the order `ArAgent`'s shed audit and the
    /// `shed_order_respected` expectation rely on.
    #[test]
    fn shed_ladder_lists_each_rung_once_in_priority_order() {
        for rung in ShedRung::ALL {
            assert_eq!(
                ShedRung::ALL.iter().filter(|&&r| r == rung).count(),
                1,
                "{rung:?} in {:?}",
                ShedRung::ALL
            );
        }
        assert_eq!(ShedRung::ALL[0], ShedRung::BestEffort);
        assert_eq!(ShedRung::ALL[2], ShedRung::ForceFlushOldest);
    }

    /// Batch classification must be a pure cache of the per-packet
    /// dispatch: for every scheme, role, availability case, session-flag
    /// combination and class (including `Unspecified`), the table lookup
    /// equals a fresh `admit` / `overflow` call.
    #[test]
    fn classify_batch_matches_per_packet_dispatch() {
        let engines = Scheme::ALL.map(PolicyEngine::for_scheme);
        let cases = [
            AvailabilityCase::BothAvailable,
            AvailabilityCase::NarOnly,
            AvailabilityCase::ParOnly,
            AvailabilityCase::NoneAvailable,
        ];
        for engine in engines {
            for role in [Role::Par, Role::Nar] {
                for case in cases {
                    for nar_full in [false, true] {
                        for par_granted in [false, true] {
                            for threshold_a in [0, 4] {
                                let base = AdmitCtx {
                                    case,
                                    class: ServiceClass::Unspecified,
                                    nar_full,
                                    par_granted,
                                    threshold_a,
                                };
                                let verdicts = engine.classify_batch(role, &base);
                                for class in ServiceClass::ALL {
                                    let ctx = AdmitCtx { class, ..base };
                                    assert_eq!(
                                        verdicts.admit(class),
                                        engine.admit(role, &ctx),
                                        "admit mismatch: {engine:?} {role:?} {ctx:?}"
                                    );
                                    assert_eq!(
                                        verdicts.overflow(class),
                                        engine.overflow(role, class),
                                        "overflow mismatch: {engine:?} {role:?} {class:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
