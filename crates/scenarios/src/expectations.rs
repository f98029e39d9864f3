//! Post-quiesce expectations for scenario plans.
//!
//! An [`Expectations`] block declares the invariants a plan's runs must
//! satisfy after quiesce: per-flow packet conservation, resource-leak
//! freedom, a flight recorder that never wrapped, per-class drop and p99
//! bounds, a ceiling on the failed-handover ratio, and a byte-hash lock
//! on the rendered artifact. Evaluation never panics — each violated
//! check becomes one [`fh_telemetry::ReportEntry`] so the driver can emit
//! a structured [`fh_telemetry::FailureReport`] and a nonzero exit code.
//!
//! The defaults are the universal battery: conservation and recorder
//! checks on, bounds off. Leak-freedom is opt-in because it is only
//! meaningful for plans that actually quiesce (a ping-pong host keeps
//! creating handover state right up to the horizon by design).

use fh_telemetry::report::{fnv1a64, fnv1a64_hex, ReportEntry};

/// Class labels used in expectation messages, in flow order (F1–F3).
pub const CLASS_LABELS: [&str; 3] = ["real-time", "high-priority", "best-effort"];

/// The audited outcome of one grid point, as the expectations engine
/// sees it. Filled by the plan runner from the run's stats, leak report
/// and flight recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointAudit {
    /// One message per flow whose conservation equation does not balance.
    pub conservation_violations: Vec<String>,
    /// Whether the post-quiesce leak report came back clean.
    pub leak_clean: bool,
    /// The leak report, rendered, when it was not clean.
    pub leak_detail: String,
    /// Flight-recorder events lost to ring wrap-around.
    pub recorder_overwritten: u64,
    /// Whether the flight recorder was on for this run (the recorder
    /// check is meaningless otherwise).
    pub telemetry_enabled: bool,
    /// Handover attempts that completed predictively.
    pub predictive: u64,
    /// Handover attempts that fell back to the reactive path.
    pub reactive: u64,
    /// Handover attempts still unresolved at the horizon.
    pub failed: u64,
    /// Per-class data drops (F1–F3), all reasons combined.
    pub class_drops: [u64; 3],
    /// Worst per-flow p99 end-to-end delay per class, in milliseconds.
    pub class_p99_ms: [f64; 3],
    /// Lifetime high-water mark of bytes parked at either router.
    pub peak_bytes_parked: usize,
    /// Sessions still holding parked packets after quiesce.
    pub wedged_sessions: usize,
    /// Sheds the ladder audit flagged as out of ladder order.
    pub shed_order_violations: u64,
}

/// The invariants a plan's runs must satisfy, evaluated per grid point
/// (plus one artifact-level hash lock).
#[derive(Debug, Clone, PartialEq)]
pub struct Expectations {
    /// Require `sent + duplicated == delivered + Σ drops` per flow.
    pub conservation: bool,
    /// Require a clean post-quiesce leak report (routers quiesced, no
    /// stale routes, no wedged hosts).
    pub no_leaks: bool,
    /// Require `overwritten() == 0` on the flight recorder (only checked
    /// when telemetry was on).
    pub recorder_clean: bool,
    /// Ceiling on `failed / (predictive + reactive + failed)`.
    pub max_failed_ratio: Option<f64>,
    /// Per-class ceilings on data drops (F1–F3).
    pub class_drop_max: Option<[u64; 3]>,
    /// Per-class ceilings on the worst p99 delay, in milliseconds.
    pub class_p99_max_ms: Option<[f64; 3]>,
    /// Ceiling on the byte high-water mark of either router's pool — the
    /// overload plans prove the byte budget actually bounds memory.
    pub max_bytes_parked: Option<usize>,
    /// Require zero sessions still holding parked packets post-quiesce
    /// (the watchdog's contract: no wedged state survives).
    pub zero_wedged_sessions: bool,
    /// Require the shed-order audit to have flagged nothing: every shed
    /// happened with all earlier ladder rungs exhausted.
    pub shed_order_respected: bool,
    /// FNV-1a content lock on the rendered artifact. Cleared
    /// automatically when the plan runs under a different seed than the
    /// one the lock was pinned for.
    pub artifact_fnv1a: Option<u64>,
}

impl Default for Expectations {
    fn default() -> Self {
        Expectations {
            conservation: true,
            no_leaks: false,
            recorder_clean: true,
            max_failed_ratio: None,
            class_drop_max: None,
            class_p99_max_ms: None,
            max_bytes_parked: None,
            zero_wedged_sessions: false,
            shed_order_respected: false,
            artifact_fnv1a: None,
        }
    }
}

impl Expectations {
    /// Evaluates every per-point check against one audited run. Returns
    /// one entry per violated check; empty means the point passed.
    #[must_use]
    pub fn check_point(&self, subject: &str, audit: &PointAudit) -> Vec<ReportEntry> {
        let mut entries = Vec::new();
        let mut fail = |check: &str, detail: String| {
            entries.push(ReportEntry {
                subject: subject.to_owned(),
                check: check.to_owned(),
                detail,
            });
        };
        if self.conservation {
            for v in &audit.conservation_violations {
                fail("conservation", v.clone());
            }
        }
        if self.no_leaks && !audit.leak_clean {
            fail("no_leaks", audit.leak_detail.clone());
        }
        if self.recorder_clean && audit.telemetry_enabled && audit.recorder_overwritten > 0 {
            fail(
                "recorder_clean",
                format!(
                    "flight recorder wrapped: {} events overwritten",
                    audit.recorder_overwritten
                ),
            );
        }
        if let Some(max) = self.max_failed_ratio {
            let total = audit.predictive + audit.reactive + audit.failed;
            if total > 0 {
                let ratio = audit.failed as f64 / total as f64;
                if ratio > max {
                    fail(
                        "max_failed_ratio",
                        format!(
                            "failed {}/{} handovers = {ratio:.4} > {max}",
                            audit.failed, total
                        ),
                    );
                }
            }
        }
        if let Some(bounds) = self.class_drop_max {
            for k in 0..3 {
                if audit.class_drops[k] > bounds[k] {
                    fail(
                        "class_drop_max",
                        format!(
                            "{} drops {} > {}",
                            CLASS_LABELS[k], audit.class_drops[k], bounds[k]
                        ),
                    );
                }
            }
        }
        if let Some(bounds) = self.class_p99_max_ms {
            for k in 0..3 {
                if audit.class_p99_ms[k] > bounds[k] {
                    fail(
                        "class_p99_max_ms",
                        format!(
                            "{} p99 {:.3} ms > {} ms",
                            CLASS_LABELS[k], audit.class_p99_ms[k], bounds[k]
                        ),
                    );
                }
            }
        }
        if let Some(max) = self.max_bytes_parked {
            if audit.peak_bytes_parked > max {
                fail(
                    "max_bytes_parked",
                    format!(
                        "peak {} bytes parked > {} allowed",
                        audit.peak_bytes_parked, max
                    ),
                );
            }
        }
        if self.zero_wedged_sessions && audit.wedged_sessions > 0 {
            fail(
                "zero_wedged_sessions",
                format!(
                    "{} sessions still hold parked packets after quiesce",
                    audit.wedged_sessions
                ),
            );
        }
        if self.shed_order_respected && audit.shed_order_violations > 0 {
            fail(
                "shed_order_respected",
                format!(
                    "{} sheds ran with an earlier ladder rung unexhausted",
                    audit.shed_order_violations
                ),
            );
        }
        entries
    }

    /// Evaluates the artifact hash lock against the rendered bytes.
    #[must_use]
    pub fn check_artifact(&self, artifact: &str) -> Option<ReportEntry> {
        let expected = self.artifact_fnv1a?;
        let got = fnv1a64(artifact.as_bytes());
        if got == expected {
            return None;
        }
        Some(ReportEntry {
            subject: "artifact".to_owned(),
            check: "artifact_fnv1a".to_owned(),
            detail: format!(
                "content hash {} != locked {:#018x}",
                fnv1a64_hex(artifact.as_bytes()),
                expected
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_audit() -> PointAudit {
        PointAudit {
            leak_clean: true,
            predictive: 9,
            reactive: 1,
            ..PointAudit::default()
        }
    }

    #[test]
    fn clean_audit_passes_the_default_battery() {
        let exp = Expectations::default();
        assert!(exp.check_point("p", &clean_audit()).is_empty());
    }

    #[test]
    fn each_check_fires_with_a_pointed_entry() {
        let exp = Expectations {
            no_leaks: true,
            max_failed_ratio: Some(0.05),
            class_drop_max: Some([10, 0, 100]),
            class_p99_max_ms: Some([50.0, 50.0, 50.0]),
            max_bytes_parked: Some(4_000),
            zero_wedged_sessions: true,
            shed_order_respected: true,
            ..Expectations::default()
        };
        let audit = PointAudit {
            conservation_violations: vec!["flow 1: sent 10, accounted 9".to_owned()],
            leak_clean: false,
            leak_detail: "par holds 2 reservations".to_owned(),
            recorder_overwritten: 3,
            telemetry_enabled: true,
            predictive: 5,
            reactive: 0,
            failed: 5,
            class_drops: [0, 4, 0],
            class_p99_ms: [10.0, 80.0, 0.0],
            peak_bytes_parked: 4_160,
            wedged_sessions: 2,
            shed_order_violations: 1,
        };
        let entries = exp.check_point("point[2]", &audit);
        let checks: Vec<&str> = entries.iter().map(|e| e.check.as_str()).collect();
        assert_eq!(
            checks,
            vec![
                "conservation",
                "no_leaks",
                "recorder_clean",
                "max_failed_ratio",
                "class_drop_max",
                "class_p99_max_ms",
                "max_bytes_parked",
                "zero_wedged_sessions",
                "shed_order_respected"
            ]
        );
        assert!(entries[4].detail.contains("high-priority"), "{entries:?}");
        assert!(entries[6].detail.contains("4160"), "{entries:?}");
        assert!(entries.iter().all(|e| e.subject == "point[2]"));
    }

    #[test]
    fn recorder_check_is_skipped_without_telemetry() {
        let exp = Expectations::default();
        let audit = PointAudit {
            recorder_overwritten: 100,
            telemetry_enabled: false,
            ..clean_audit()
        };
        assert!(exp.check_point("p", &audit).is_empty());
    }

    #[test]
    fn failed_ratio_uses_the_attempt_total() {
        let exp = Expectations {
            max_failed_ratio: Some(0.5),
            ..Expectations::default()
        };
        let mut audit = clean_audit();
        audit.failed = 10; // 10 / 20 = 0.5, not above the ceiling
        assert!(exp.check_point("p", &audit).is_empty());
        audit.failed = 11;
        assert_eq!(exp.check_point("p", &audit).len(), 1);
    }

    #[test]
    fn artifact_lock_compares_content_hashes() {
        let mut exp = Expectations::default();
        assert!(exp.check_artifact("anything").is_none());
        exp.artifact_fnv1a = Some(fnv1a64(b"expected bytes"));
        assert!(exp.check_artifact("expected bytes").is_none());
        let entry = exp.check_artifact("tampered").expect("violation");
        assert_eq!(entry.check, "artifact_fnv1a");
        assert!(entry.detail.contains("0x"), "{}", entry.detail);
    }
}
