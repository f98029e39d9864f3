//! Property tests for the sharded metro kernel.
//!
//! Two invariants carry the whole design:
//!
//! 1. **Epoch safety.** No cross-domain message may arrive inside the
//!    epoch that sent it — the epoch executor *asserts* `arrival >=
//!    epoch_end` at every barrier and panics on a violation, so every
//!    green random run below is a proof over that topology and traffic
//!    that the boundary latency really is a conservative lookahead.
//! 2. **Schedule independence.** The sequential execution (one worker
//!    walking the shards) and the sharded one (many workers) must
//!    produce byte-identical artifacts and identical tallies.

use fh_core::Scheme;
use fh_metro::{run, MetroConfig};
use fh_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::NoBuffer),
        Just(Scheme::NarOnly),
        Just(Scheme::ParOnly),
        Just(Scheme::Dual { classify: false }),
        Just(Scheme::Dual { classify: true }),
        Just(Scheme::SafetyNet),
    ]
}

/// A random but valid metro deployment, kept small enough that a case
/// runs in milliseconds: up to 5 domains, up to 120 hosts, a boundary
/// latency from 1 to 20 ms, and a horizon of 1.2 simulated seconds.
fn arb_config() -> impl Strategy<Value = MetroConfig> {
    (
        (1u32..6, 1u32..121),
        (1u64..21, 0.0..0.6f64),
        (20u64..300, 200u64..1200),
        arb_scheme(),
        (1u32..33, 5u64..60),
    )
        .prop_map(
            |(
                (domains, hosts),
                (latency_ms, remote),
                (blackout_ms, residence_ms),
                scheme,
                (req, interval_ms),
            )| {
                MetroConfig {
                    domains,
                    hosts,
                    boundary_latency: SimDuration::from_millis(latency_ms),
                    remote_fraction: remote,
                    blackout: SimDuration::from_millis(blackout_ms),
                    mean_residence: SimDuration::from_millis(residence_ms),
                    scheme,
                    buffer_request: req,
                    packet_interval: SimDuration::from_millis(interval_ms),
                    traffic_start: SimTime::from_millis(50),
                    traffic_stop: SimTime::from_millis(900),
                    horizon: SimTime::from_millis(1_200),
                    ..MetroConfig::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Epoch safety over random topologies and traffic: the run
    /// completes (the barrier assert never fires), every boundary
    /// packet sent is received, and the packet-conservation equation
    /// balances in every class.
    #[test]
    fn random_deployments_respect_the_lookahead(cfg in arb_config()) {
        let r = run(&cfg, 4);
        let rx: u64 = r.domains.iter().map(|d| d.boundary_rx.0).sum();
        prop_assert_eq!(rx, r.boundary_packets, "every crossing is received");
        prop_assert_eq!(r.report.messages, r.boundary_packets);
        prop_assert!(
            r.counts.conservation_violations().is_empty(),
            "conservation: {:?}", r.counts.conservation_violations()
        );
        prop_assert!(r.leak_clean, "every domain pool must drain");
        if cfg.domains == 1 {
            prop_assert_eq!(r.boundary_packets, 0);
        }
    }

    /// Sequential vs sharded execution: identical artifacts and tallies
    /// at every thread count tried.
    #[test]
    fn sequential_and_sharded_runs_are_identical(cfg in arb_config()) {
        let seq = run(&cfg, 1);
        let par = run(&cfg, 8);
        prop_assert_eq!(seq.artifact(), par.artifact());
        prop_assert_eq!(seq.counts, par.counts);
        prop_assert_eq!(seq.events_processed, par.events_processed);
        prop_assert_eq!(seq.handovers, par.handovers);
    }
}
