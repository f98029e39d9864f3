//! Artifact hash locks for the metro kernel under buffer pressure.
//!
//! The benchmark's `metro_city` workload never drops a packet, so it
//! never runs overflow or a paced flush of a full buffer. This
//! deployment does: a 400 ms blackout against a 40 ms packet interval
//! sends ten packets per handover into a 4-packet reservation (8 for
//! the dual scheme). Each `(scheme, domains)` artifact is pinned by its
//! FNV-1a hash, so any change to event order, admission or accounting
//! shows up here.
//!
//! Some locks repeat by design. SafetyNet's metro cap equals the NAR
//! cap. Metro has no class-aware eviction, because each host carries
//! one flow of one class, so its buffer never holds a best-effort
//! packet that a higher class could displace; `Dual` with and without
//! classification therefore produce the same artifact.

use fh_core::Scheme;
use fh_metro::{run, MetroConfig};
use fh_sim::{SimDuration, SimTime};
use fh_telemetry::report::fnv1a64_hex;

/// ~3k hosts under heavy handover churn with a small reservation.
fn pressured(scheme: Scheme, domains: u32) -> MetroConfig {
    MetroConfig {
        domains,
        hosts: 3_000,
        scheme,
        blackout: SimDuration::from_millis(400),
        mean_residence: SimDuration::from_millis(1_500),
        buffer_request: 4,
        traffic_stop: SimTime::from_secs(2),
        horizon: SimTime::from_millis(2_500),
        ..MetroConfig::default()
    }
}

/// `(scheme, domains, artifact_fnv1a)`, in `Scheme::ALL` order.
/// Recorded with `fh_sim::EventQueue` as each domain's queue, so they
/// check the FIFO-lane pending set against an independent ordering.
const LOCKS: [(Scheme, u32, &str); 12] = [
    (Scheme::NarOnly, 1, "0x46e189fc0f233cd0"),
    (Scheme::NarOnly, 4, "0x23520ef08d9c8b83"),
    (Scheme::ParOnly, 1, "0xa8d8ede18ddbd351"),
    (Scheme::ParOnly, 4, "0x0d8ddb6c1d9b284a"),
    (Scheme::Dual { classify: false }, 1, "0x1634d76d8ae23400"),
    (Scheme::Dual { classify: false }, 4, "0x6399fc35dbf1008f"),
    (Scheme::Dual { classify: true }, 1, "0x1634d76d8ae23400"),
    (Scheme::Dual { classify: true }, 4, "0x6399fc35dbf1008f"),
    (Scheme::NoBuffer, 1, "0x269d774225ee92f9"),
    (Scheme::NoBuffer, 4, "0x734ea062144db7fe"),
    (Scheme::SafetyNet, 1, "0x46e189fc0f233cd0"),
    (Scheme::SafetyNet, 4, "0x23520ef08d9c8b83"),
];

#[test]
fn artifacts_match_their_locks() {
    let mut mismatches = Vec::new();
    for (scheme, domains, want) in LOCKS {
        let r = run(&pressured(scheme, domains), 2);
        assert!(r.counts.conservation_violations().is_empty());
        assert!(r.leak_clean, "{scheme:?} x{domains}: a pool did not drain");
        let got = fnv1a64_hex(r.artifact().as_bytes());
        if got != want {
            mismatches.push(format!("{scheme:?} x{domains}: got {got}, locked {want}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn the_locked_deployment_overflows_and_drops_in_blackout() {
    let sum = |a: [u64; 3]| a.iter().sum::<u64>();
    let dual = run(&pressured(Scheme::PROPOSED, 4), 1).counts;
    assert!(sum(dual.dropped_overflow) > 0, "no overflow");
    assert_eq!(sum(dual.dropped_blackout), 0);
    let none = run(&pressured(Scheme::NoBuffer, 4), 1).counts;
    assert!(sum(none.dropped_blackout) > sum(dual.dropped_overflow));
}
