//! `Scheme::ALL`-driven exhaustiveness: every scheme variant is backed
//! by a policy implementation file on disk and a working engine. Adding
//! a variant without its one-file policy (the contract `policy/mod.rs`
//! documents) fails here by name instead of deep inside a scenario.

use std::path::Path;

use fh_core::policy::PolicyEngine;
use fh_core::Scheme;

/// The source file that holds each scheme's admission table.
fn policy_source(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::NoBuffer => "no_buffer.rs",
        Scheme::NarOnly => "nar_fifo.rs",
        Scheme::ParOnly => "krishnamurthi.rs",
        Scheme::Dual { .. } => "enhanced.rs",
        Scheme::SafetyNet => "safetynet.rs",
    }
}

#[test]
fn every_scheme_has_a_policy_file_on_disk() {
    let policy_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/policy");
    for scheme in Scheme::ALL {
        let file = policy_dir.join(policy_source(scheme));
        assert!(
            file.is_file(),
            "{scheme:?} ({}) names a missing policy file {}",
            scheme.label(),
            file.display()
        );
    }
}

#[test]
fn every_scheme_resolves_to_a_distinct_engine_and_label() {
    let (mut engines, mut labels) = (Vec::new(), Vec::new());
    for scheme in Scheme::ALL {
        let engine = PolicyEngine::for_scheme(scheme);
        assert!(!engines.contains(&engine), "{scheme:?} shares an engine");
        engines.push(engine);
        let label = scheme.label();
        assert!(!labels.contains(&label), "duplicate scheme label {label:?}");
        labels.push(label);
    }
    assert_eq!(labels.len(), Scheme::ALL.len());
}
