//! `corpus_churn`: six corpus plans through `ScenarioPlan::from_toml` and
//! `run_plan`, plus the Fig 4.12–4.14 TCP handoff runs, at threads 1.
//!
//! The same datapath as `fig42_grid`, used the other way round: it sheds
//! and evicts under a byte budget instead of admitting and flushing, and
//! it adds keyed-timer churn (watchdog, soft state, retransmit), fault
//! injection, multi-homed MIH with SafetyNet bicast, fh-tcp, the flight
//! recorder with Chrome-trace export, and the expectations engine.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fh_net::FlowId;
use fh_scenarios::experiments::{tcp_l2_handoff, TcpHandoffResult, FLOW_CLASSES};
use fh_scenarios::plan::{run_plan, Axis, ClassPlan, HostSelector, ReportKind, ScenarioPlan};
use fh_scenarios::{HmipConfig, HmipScenario};
use fh_sim::derive_seed;
use fh_telemetry::{Cell, CsvTable};

use crate::fig42::{read, replay};
use crate::measure::{Checks, Layers, Metric, Pass, Workload};
use crate::spans::Tracer;
use crate::{Inputs, DEFAULT_SEED};

/// The corpus plans this workload runs, by file stem.
pub const PLANS: [&str; 6] = [
    "flashcrowd",
    "storm",
    "chaos",
    "scheme_ladder",
    "vertical",
    "timeline",
];

/// The seed the committed TCP golden was rendered at.
const TCP_SEED: u64 = 2003;

/// The corpus workload and the results of its last pass.
pub struct Corpus {
    /// `(stem, file name, TOML text)` per plan.
    texts: Vec<(&'static str, String, String)>,
    seed: u64,
    small: bool,
    tcp_seed: u64,
    tcp_golden: Option<String>,
    /// Plans as the last pass ran them, with their artifacts.
    last: Vec<(ScenarioPlan, String)>,
    tcp_artifact: String,
}

/// One grid point of a plan, as `run_plan` enumerates them.
struct Point {
    hosts: usize,
    loss: Option<f64>,
    scheme: fh_core::Scheme,
    seed: u64,
}

fn grid(plan: &ScenarioPlan) -> Vec<Point> {
    let axis: Vec<(Option<f64>, usize)> = match &plan.axis {
        Axis::None => vec![(None, plan.topology.hosts)],
        Axis::Loss(ps) => ps.iter().map(|&p| (Some(p), plan.topology.hosts)).collect(),
        Axis::Hosts(ns) => ns.iter().map(|&n| (None, n)).collect(),
    };
    let mut out = Vec::new();
    for (i, &(loss, hosts)) in axis.iter().enumerate() {
        for &scheme in &plan.schemes {
            out.push(Point {
                hosts,
                loss,
                scheme,
                seed: derive_seed(plan.seed, i as u64),
            });
        }
    }
    out
}

/// Builds one grid point's world exactly as `run_plan` builds it, so the
/// traced pass can step it event by event.
fn build_point(plan: &ScenarioPlan, p: &Point) -> (HmipScenario, Vec<FlowId>) {
    let mut protocol = plan.protocol;
    protocol.scheme = p.scheme;
    let (mut ar_link_fault, mut wireless_fault) = (plan.faults.ar_link, plan.faults.wireless);
    if let Some(loss) = p.loss {
        ar_link_fault.loss = loss;
        wireless_fault.loss = loss;
    }
    let t = &plan.topology;
    let mut scenario = HmipScenario::build(HmipConfig {
        protocol,
        n_mhs: p.hosts,
        buffer_capacity: t.buffer_capacity,
        ar_link_delay: t.ar_link_delay,
        l2_handoff_delay: t.l2_blackout,
        movement: t.movement,
        speed: t.speed,
        seed: p.seed,
        ar_link_fault,
        wireless_fault,
        par_fault: plan.faults.par,
        nar_fault: plan.faults.nar,
        mh_fault: plan.faults.mh,
        storm_stagger: t.stagger,
        cellular: t.cellular,
        interfaces: t.interfaces,
        trigger: t.trigger,
        ..HmipConfig::default()
    });
    if plan.run.telemetry_ring > 0 {
        scenario.enable_telemetry(plan.run.telemetry_ring);
    }
    let mut flows = Vec::new();
    for w in &plan.workloads {
        let hosts: Vec<usize> = match w.hosts {
            HostSelector::All => (0..p.hosts).collect(),
            HostSelector::One(i) => vec![i],
        };
        for h in hosts {
            let class = match w.class {
                ClassPlan::Fixed(c) => c,
                ClassPlan::RoundRobin => FLOW_CLASSES[h % 3],
            };
            flows.push(scenario.add_cbr_flow(h, class, w.packet_bytes, w.interval));
        }
    }
    scenario.set_traffic_window(plan.run.traffic_start, plan.run.traffic_stop);
    (scenario, flows)
}

/// Fig 4.14 as CSV: `t_s,buffered_mbps,unbuffered_mbps`.
fn render_tcp(with: &TcpHandoffResult, without: &TcpHandoffResult) -> String {
    let mut table = CsvTable::new(&["t_s", "buffered_mbps", "unbuffered_mbps"]);
    for (i, &(t, mbps)) in with.throughput.iter().enumerate() {
        let none = without.throughput.get(i).map_or(0.0, |&(_, m)| m);
        table.row(&[
            Cell::Fixed(t, 1),
            Cell::Fixed(mbps, 3),
            Cell::Fixed(none, 3),
        ]);
    }
    table.finish()
}

impl Corpus {
    /// The corpus at `inputs.seed`, reading plan files from
    /// `inputs.plans_dir`.
    #[must_use]
    pub fn new(inputs: &Inputs) -> Self {
        let texts = PLANS
            .iter()
            .map(|&stem| {
                let path: PathBuf = inputs.plans_dir.join(format!("{stem}.toml"));
                (stem, path.display().to_string(), read(&path))
            })
            .collect();
        let default = inputs.seed == DEFAULT_SEED;
        Corpus {
            texts,
            seed: inputs.seed,
            small: inputs.small,
            tcp_seed: if default { TCP_SEED } else { inputs.seed },
            tcp_golden: default.then(|| read(&inputs.golden_dir.join("fig4.14.csv"))),
            last: Vec::new(),
            tcp_artifact: String::new(),
        }
    }

    /// Parses one plan and turns it into this run's input: rebased onto
    /// the workload seed (which drops its byte lock and the bounds
    /// pinned for the plan's own seed) and, in a small run, cut to its
    /// first axis point.
    fn parse(&self, i: usize) -> Result<ScenarioPlan, String> {
        let (_, file, text) = &self.texts[i];
        let mut plan = ScenarioPlan::from_toml(text, file).map_err(|e| e.to_string())?;
        if self.seed != DEFAULT_SEED {
            plan = plan.with_seed(self.seed);
            let e = &mut plan.expectations;
            e.max_failed_ratio = None;
            e.class_drop_max = None;
            e.class_p99_max_ms = None;
        }
        if self.small {
            match &mut plan.axis {
                Axis::None => {}
                Axis::Loss(v) => v.truncate(1),
                Axis::Hosts(v) => v.truncate(1),
            }
            if plan.axis != Axis::None {
                plan.expectations.artifact_fnv1a = None;
            }
        }
        // Shed order is a runtime self-check that must hold on every plan.
        plan.expectations.shed_order_respected = true;
        Ok(plan)
    }

    fn tcp_runs(&self) -> (TcpHandoffResult, TcpHandoffResult) {
        (
            tcp_l2_handoff(true, self.tcp_seed),
            tcp_l2_handoff(false, self.tcp_seed),
        )
    }
}

impl Workload for Corpus {
    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let mut run = Duration::ZERO;
        let mut events = 0;
        self.last.clear();
        for i in 0..self.texts.len() {
            let plan = match self.parse(i) {
                Ok(plan) => plan,
                Err(e) => {
                    checks.points(1);
                    checks.expect(false, || format!("{}: {e}", self.texts[i].0));
                    continue;
                }
            };
            let t = Instant::now();
            let outcome = run_plan(&plan, 1);
            run += t.elapsed();
            events += outcome.events;
            checks.points(outcome.points.len());
            checks.expect(outcome.report.is_empty(), || outcome.report.to_json());
            self.last.push((plan, outcome.artifact));
        }
        let t = Instant::now();
        let (with, without) = self.tcp_runs();
        run += t.elapsed();
        events += with.events + without.events;
        checks.points(2);
        self.tcp_artifact = render_tcp(&with, &without);
        Pass {
            events,
            run,
            wall: start.elapsed(),
        }
    }

    fn setup(&mut self) -> Duration {
        let start = Instant::now();
        let mut built = Vec::new();
        for i in 0..self.texts.len() {
            if let Ok(plan) = self.parse(i) {
                built.extend(grid(&plan).iter().map(|p| build_point(&plan, p)));
            }
        }
        let took = start.elapsed();
        drop(built);
        took
    }

    fn verify(&mut self, checks: &mut Checks) {
        for (plan, artifact) in &self.last {
            let sharded = run_plan(plan, 2);
            checks.expect(sharded.artifact == *artifact, || {
                format!("{}: artifact differs at threads 1 and 2", plan.name)
            });
        }
        let (with, without) = self.tcp_runs();
        checks.expect(render_tcp(&with, &without) == self.tcp_artifact, || {
            "tcp: rerun at the same seed renders different bytes".to_owned()
        });
        checks.expect(with.blackout.is_some() && with.bytes_delivered > 0, || {
            "tcp: buffered run saw no handover or delivered nothing".to_owned()
        });
        if let Some(golden) = &self.tcp_golden {
            checks.expect(*golden == self.tcp_artifact, || {
                format!(
                    "tcp: differs from golden fig4.14.csv:\n{}",
                    self.tcp_artifact
                )
            });
        }
    }

    fn traced(&mut self, checks: &mut Checks, tracer: &mut Tracer, baseline: &Pass) -> Layers {
        let mut l = Layers::default();
        let mut events = Vec::new();
        let mut extras = Vec::new();
        tracer.span("corpus_churn", |tracer| {
            for i in 0..self.texts.len() {
                let stem = self.texts[i].0;
                let Ok(plan) = tracer.span("ScenarioPlan::from_toml", |_| self.parse(i)) else {
                    continue;
                };
                let span = format!("run_plan:{stem}");
                let outcome = tracer.span(&span, |_| run_plan(&plan, 1));
                extras.push(Metric::new(
                    &format!("scenarios.plan_ms.{stem}"),
                    "ms",
                    tracer.total_ms(&span),
                ));
                events.push((
                    plan,
                    outcome.points.iter().map(|p| p.events).collect::<Vec<_>>(),
                ));
            }
            tracer.span("tcp_l2_handoff", |_| self.tcp_runs());

            // The timeline plan's two storm points again with the
            // recorder off: the ratio of the two spans prices telemetry.
            if let Some((timeline, _)) = events
                .iter()
                .find(|(p, _)| p.report == ReportKind::Timeline)
            {
                let mut quiet = timeline.clone();
                quiet.run.telemetry_ring = 0;
                quiet.report = ReportKind::Storm;
                quiet.expectations.artifact_fnv1a = None;
                tracer.span("run_plan:timeline_recorder_off", |_| run_plan(&quiet, 1));
            }
        });

        // Replay every grid point event by event.
        let total: u64 = events.iter().flat_map(|(_, e)| e).sum();
        l.step_ns.reserve_exact(total as usize);
        let mut stepping = Duration::ZERO;
        tracer.span("replay", |tracer| {
            for (plan, point_events) in &events {
                for (p, &n) in grid(plan).iter().zip(point_events) {
                    let (mut scenario, flows) =
                        tracer.span("HmipScenario::build", |_| build_point(plan, p));
                    l.populations.flows = l.populations.flows.max(flows.len());
                    l.populations.sessions = l.populations.sessions.max(p.hosts);
                    let label = format!("{} replay hosts={}", plan.name, p.hosts);
                    stepping += replay(
                        &mut scenario,
                        n,
                        plan.run.horizon,
                        &label,
                        &mut l,
                        tracer,
                        checks,
                    );
                }
            }
        });
        l.pending_mean /= l.events.max(1) as f64;
        l.populations.pending = l.pending_mean.round() as usize;
        l.overhead_ratio = stepping.as_secs_f64() / baseline.run.as_secs_f64().max(1e-9);

        let parse = tracer.total_ms("ScenarioPlan::from_toml");
        let quiet = tracer.total_ms("run_plan:timeline_recorder_off");
        extras.extend([
            Metric::new("scenarios.parse_ms", "ms", parse),
            Metric::new(
                "scenarios.build_ms",
                "ms",
                tracer.total_ms("HmipScenario::build"),
            ),
            Metric::new("tcp.run_ms", "ms", tracer.total_ms("tcp_l2_handoff")),
            Metric::new(
                "telemetry.overhead_ratio",
                "ratio",
                tracer.total_ms("run_plan:timeline") / quiet.max(1e-9),
            ),
        ]);
        l.extras = extras;
        l
    }
}
