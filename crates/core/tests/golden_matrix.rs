//! Golden-matrix pin: the pluggable policy engine must reproduce the
//! legacy Table 3.3 transcription — `par_action` / `nar_action` /
//! `nar_overflow` in `policy::matrix` — exactly, over the *entire*
//! decision surface, and that surface must match the committed snapshot
//! in `tests/golden/table_3_3.txt`.
//!
//! Three locks, one invariant:
//!
//! 1. engine == legacy functions (exhaustive equivalence below);
//! 2. engine == committed snapshot (`snapshot_matches_table_3_3`);
//! 3. legacy functions == the thesis (the exhaustive unit tests in
//!    `policy::matrix` itself).
//!
//! Regenerate the snapshot with `BLESS=1 cargo test -p fh-core --test
//! golden_matrix` after an *intentional* policy change — and say so in
//! the diff.

use fh_core::policy::{
    nar_action, nar_overflow, par_action, Admit, AdmitCtx, AvailabilityCase, NarAction,
    NarOverflow, ParAction, PolicyEngine, Role,
};
use fh_core::{AdmissionLimit, Scheme};
use fh_net::ServiceClass;

const CASES: [AvailabilityCase; 4] = [
    AvailabilityCase::BothAvailable,
    AvailabilityCase::NarOnly,
    AvailabilityCase::ParOnly,
    AvailabilityCase::NoneAvailable,
];

const CLASSES: [ServiceClass; 4] = [
    ServiceClass::Unspecified,
    ServiceClass::RealTime,
    ServiceClass::HighPriority,
    ServiceClass::BestEffort,
];

/// The admission limit the monolith attached to a `BufferLocal` verdict,
/// verbatim from the pre-refactor `ArAgent::redirect`.
fn legacy_par_limit(
    scheme: Scheme,
    class: ServiceClass,
    par_granted: bool,
    a: u32,
) -> AdmissionLimit {
    match (scheme.classifies(), class) {
        (true, ServiceClass::BestEffort | ServiceClass::Unspecified) => {
            AdmissionLimit::Threshold(a)
        }
        (true, _) => AdmissionLimit::Grant,
        (false, _) => {
            if par_granted {
                AdmissionLimit::Grant
            } else {
                AdmissionLimit::PoolOnly
            }
        }
    }
}

/// Every `AdmitCtx` the datapath can hand a policy, for one scheme.
fn contexts() -> Vec<AdmitCtx> {
    let mut out = Vec::new();
    for case in CASES {
        for class in CLASSES {
            for nar_full in [false, true] {
                for par_granted in [false, true] {
                    for threshold_a in [0, 7, 10] {
                        out.push(AdmitCtx {
                            case,
                            class,
                            nar_full,
                            par_granted,
                            threshold_a,
                        });
                    }
                }
            }
        }
    }
    out
}

#[test]
fn par_admission_reproduces_legacy_matrix() {
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        for ctx in contexts() {
            let got = engine.admit(Role::Par, &ctx);
            let want = par_action(scheme, ctx.case, ctx.class, ctx.nar_full);
            let tag = format!("{scheme:?} {ctx:?}");
            match (got, want) {
                (Admit::Tunnel { park_at_peer: true }, ParAction::TunnelBuffer)
                | (
                    Admit::Tunnel {
                        park_at_peer: false,
                    },
                    ParAction::TunnelUnbuffered,
                )
                | (Admit::Drop, ParAction::Drop)
                | (Admit::Multicast, ParAction::Bicast) => {}
                (Admit::Park(limit), ParAction::BufferLocal) => {
                    let want_limit =
                        legacy_par_limit(scheme, ctx.class, ctx.par_granted, ctx.threshold_a);
                    assert_eq!(limit, want_limit, "admission limit diverged: {tag}");
                }
                (got, want) => panic!("engine {got:?} != legacy {want:?}: {tag}"),
            }
        }
    }
}

#[test]
fn nar_admission_reproduces_legacy_matrix() {
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        for ctx in contexts() {
            let got = engine.admit(Role::Nar, &ctx);
            let want = nar_action(scheme, ctx.case, ctx.class);
            let tag = format!("{scheme:?} {ctx:?}");
            match (got, want) {
                // The monolith always parked NAR-side under the session
                // grant (`try_buffer(.., AdmissionLimit::Grant)`).
                (Admit::Park(AdmissionLimit::Grant), NarAction::Buffer) => {}
                (Admit::Forward, NarAction::Deliver) => {}
                (got, want) => panic!("engine {got:?} != legacy {want:?}: {tag}"),
            }
        }
    }
}

#[test]
fn overflow_reactions_reproduce_legacy_matrix() {
    use fh_core::policy::Overflow;
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        for class in CLASSES {
            let got = engine.overflow(Role::Nar, class);
            let want = nar_overflow(scheme, class);
            let tag = format!("{scheme:?} {class:?}");
            match (got, want) {
                (Overflow::DropFrontRealtime, NarOverflow::DropOldestRealtime)
                | (Overflow::NotifyPeer, NarOverflow::NotifyPar)
                | (Overflow::TailDrop, NarOverflow::TailDrop) => {}
                (got, want) => panic!("engine {got:?} != legacy {want:?}: {tag}"),
            }
            // PAR-side overflow, verbatim from the monolith: a rejected
            // high-priority packet spills to the peer unbuffered,
            // everything else tail-drops.
            let got = engine.overflow(Role::Par, class);
            let want = if class.effective() == ServiceClass::HighPriority {
                Overflow::SpillPeer
            } else {
                Overflow::TailDrop
            };
            assert_eq!(got, want, "PAR overflow diverged: {tag}");
        }
    }
}

#[test]
fn request_splits_reproduce_legacy_split() {
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        for requested in 0..=41 {
            let split = engine.on_grant(requested);
            // Verbatim from the monolith's `on_rtsolpr`.
            let (par, nar) = match (scheme.uses_par_buffer(), scheme.uses_nar_buffer()) {
                (true, true) => (requested.div_ceil(2), requested / 2),
                (true, false) => (requested, 0),
                (false, true) => (0, requested),
                (false, false) => (0, 0),
            };
            assert_eq!(
                (split.par, split.nar),
                (par, nar),
                "{scheme:?} req={requested}"
            );
        }
    }
}

/// Renders the full decision surface as stable text. The admit section
/// fixes `threshold_a = 10` (the `ProtocolConfig` default) so `Park`
/// limits print concretely; threshold independence is covered by the
/// exhaustive tests above.
fn render_matrix() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("# Table 3.3 decision surface — engine verdicts, all schemes.\n");
    out.push_str("# scheme | case | class | nar_full | par_granted -> PAR verdict | NAR verdict\n");
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        for case in CASES {
            for class in CLASSES {
                for nar_full in [false, true] {
                    for par_granted in [false, true] {
                        let ctx = AdmitCtx {
                            case,
                            class,
                            nar_full,
                            par_granted,
                            threshold_a: 10,
                        };
                        let par = engine.admit(Role::Par, &ctx);
                        let nar = engine.admit(Role::Nar, &ctx);
                        let _ = writeln!(
                            out,
                            "{} | {case:?} | {class:?} | nar_full={} | par_granted={} -> {par:?} | {nar:?}",
                            scheme.label(),
                            u8::from(nar_full),
                            u8::from(par_granted),
                        );
                    }
                }
            }
        }
    }
    out.push_str("# scheme | class -> PAR overflow | NAR overflow\n");
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        for class in CLASSES {
            let _ = writeln!(
                out,
                "{} | {class:?} -> {:?} | {:?}",
                scheme.label(),
                engine.overflow(Role::Par, class),
                engine.overflow(Role::Nar, class),
            );
        }
    }
    out.push_str("# scheme | requested -> par+nar split\n");
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        for requested in [0u32, 1, 7, 20] {
            let split = engine.on_grant(requested);
            let _ = writeln!(
                out,
                "{} | {requested} -> {}+{}",
                scheme.label(),
                split.par,
                split.nar,
            );
        }
    }
    out
}

#[test]
fn snapshot_matches_table_3_3() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/table_3_3.txt");
    let rendered = render_matrix();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &rendered).expect("write snapshot");
        return;
    }
    let committed = std::fs::read_to_string(path).expect(
        "missing tests/golden/table_3_3.txt — run with BLESS=1 once and commit the snapshot",
    );
    assert_eq!(
        rendered, committed,
        "policy surface diverged from the committed Table 3.3 snapshot; \
         if the change is intentional, re-bless with BLESS=1"
    );
}
