//! `fig42_grid`: the paper's Fig 4.2 buffer-utilization grid.
//!
//! Four schemes × 1–20 simultaneously handing-over hosts, CBR 64 kb/s,
//! one-way walk, threads 1, on the default (heap) event queue. The
//! benchmark builds and runs every point itself through
//! `HmipScenario::build` and `run_until`, with the point configuration
//! `experiments::buffer_utilization` uses, so the series it renders is
//! the Fig 4.2 CSV. This is the full-fidelity kernel's hot path at tiny
//! queue populations: actor dispatch, radio/L2, datapath admit+flush and
//! per-packet `NetStats` work, with no overload, faults, TCP or metro.

use std::path::Path;
use std::time::{Duration, Instant};

use fh_core::{ProtocolConfig, Scheme};
use fh_net::{FlowId, ServiceClass};
use fh_scenarios::experiments::{buffer_utilization, BufferUtilizationParams, SchemeSeries};
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan};
use fh_sim::{derive_seed, SimTime};
use fh_telemetry::{Cell, CsvTable};

use crate::layers::Populations;
use crate::measure::{Checks, Layers, Metric, Pass, Workload};
use crate::spans::Tracer;
use crate::{alloc, Inputs, DEFAULT_SEED};

/// The thesis' class-blind schemes, in Fig 4.2 column order.
const SCHEMES: [Scheme; 4] = [
    Scheme::NarOnly,
    Scheme::ParOnly,
    Scheme::Dual { classify: false },
    Scheme::NoBuffer,
];
const HORIZON: SimTime = SimTime::from_secs(16);

/// Events the full grid dispatches at the default seed.
pub const EVENTS_AT_DEFAULT_SEED: u64 = 2_412_855;

/// The Fig 4.2 workload and the results of its last pass.
pub struct Fig42 {
    params: BufferUtilizationParams,
    /// Expected CSV (the golden, cut to the grid size) at the default seed.
    golden: Option<String>,
    full_size: bool,
    /// Per-point `(drops, events)` of the last pass, in grid order.
    last: Vec<(u64, u64)>,
    artifact: String,
}

impl Fig42 {
    /// The grid at `inputs.seed`; reads the golden when it applies.
    #[must_use]
    pub fn new(inputs: &Inputs) -> Self {
        let params = BufferUtilizationParams {
            max_mhs: if inputs.small { 3 } else { 20 },
            seed: inputs.seed,
            ..BufferUtilizationParams::default()
        };
        let golden = (inputs.seed == DEFAULT_SEED).then(|| {
            let text = read(&inputs.golden_dir.join("fig4.2.csv"));
            let rows: Vec<&str> = text.lines().take(params.max_mhs + 1).collect();
            rows.join("\n") + "\n"
        });
        Fig42 {
            params,
            golden,
            full_size: !inputs.small,
            last: Vec::new(),
            artifact: String::new(),
        }
    }

    fn grid(&self) -> Vec<(Scheme, usize)> {
        SCHEMES
            .iter()
            .flat_map(|&s| (1..=self.params.max_mhs).map(move |n| (s, n)))
            .collect()
    }

    /// One point, configured as `buffer_utilization` configures it.
    fn build(&self, scheme: Scheme, n: usize) -> (HmipScenario, Vec<FlowId>) {
        let mut protocol = ProtocolConfig::with_scheme(scheme);
        protocol.buffer_request = self.params.buffer_request;
        let mut scenario = HmipScenario::build(HmipConfig {
            protocol,
            n_mhs: n,
            buffer_capacity: self.params.buffer_capacity,
            movement: MovementPlan::OneWay,
            seed: derive_seed(self.params.seed, (n - 1) as u64),
            ..HmipConfig::default()
        });
        let flows = (0..n)
            .map(|i| scenario.add_audio_64k(i, ServiceClass::Unspecified))
            .collect();
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        (scenario, flows)
    }

    fn series(&self) -> Vec<SchemeSeries> {
        let m = self.params.max_mhs;
        SCHEMES
            .iter()
            .enumerate()
            .map(|(s, scheme)| SchemeSeries {
                label: scheme.label().to_owned(),
                points: (1..=m).map(|n| (n, self.last[s * m + n - 1].0)).collect(),
            })
            .collect()
    }

    /// The Fig 4.2 CSV: `mhs,nar,par,dual,fh`.
    fn render(series: &[SchemeSeries]) -> String {
        let labels: Vec<String> = series.iter().map(|s| s.label.to_lowercase()).collect();
        let mut header = vec!["mhs"];
        header.extend(labels.iter().map(String::as_str));
        let mut table = CsvTable::new(&header);
        for i in 0..series[0].points.len() {
            let mut row: Vec<Cell<'_>> = vec![series[0].points[i].0.into()];
            row.extend(series.iter().map(|s| Cell::from(s.points[i].1)));
            table.row(&row);
        }
        table.finish()
    }
}

/// Conservation and the post-quiesce leak audit of one finished point.
///
/// The Fig 4.2 configuration has no host-route lifetime, so a scheme
/// that never tears down the old router's host route (FH) keeps one per
/// departed host by design; stale routes are therefore not counted here.
/// The corpus plans, which arm route lifetimes, audit them in full.
fn audit(scenario: &HmipScenario, label: &str, checks: &mut Checks) {
    let violations = scenario.sim.shared.stats.conservation_violations();
    checks.expect(violations.is_empty(), || {
        format!("{label}: conservation violated: {violations:?}")
    });
    let leak = scenario.leak_report();
    let clean = leak.par.quiesced() && leak.nar.quiesced() && leak.unresolved_hosts == 0;
    checks.expect(clean, || format!("{label}: leak: {leak:?}"));
}

pub(crate) fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| format!("unreadable {}: {e}", path.display()))
}

impl Workload for Fig42 {
    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let mut run = Duration::ZERO;
        let mut events = 0;
        self.last.clear();
        let grid = self.grid();
        for &(scheme, n) in &grid {
            let (mut scenario, flows) = self.build(scheme, n);
            let t = Instant::now();
            scenario.run_until(HORIZON);
            run += t.elapsed();
            let drops = flows.iter().map(|&f| scenario.flow_losses(f)).sum();
            let ev = scenario.sim.events_processed();
            audit(&scenario, &format!("{} n={n}", scheme.label()), checks);
            self.last.push((drops, ev));
            events += ev;
        }
        checks.points(grid.len());
        self.artifact = Self::render(&self.series());
        Pass {
            events,
            run,
            wall: start.elapsed(),
        }
    }

    fn setup(&mut self) -> Duration {
        let start = Instant::now();
        let built: Vec<_> = self
            .grid()
            .into_iter()
            .map(|(s, n)| self.build(s, n))
            .collect();
        let took = start.elapsed();
        drop(built);
        took
    }

    fn verify(&mut self, checks: &mut Checks) {
        let events: u64 = self.last.iter().map(|p| p.1).sum();
        let sharded = buffer_utilization(self.params, 2);
        checks.expect(Self::render(&sharded.series) == self.artifact, || {
            "fig42: series differs from buffer_utilization at threads 2".to_owned()
        });
        checks.expect(sharded.events == events, || {
            format!(
                "fig42: {events} events, buffer_utilization at threads 2 ran {}",
                sharded.events
            )
        });
        if let Some(golden) = &self.golden {
            checks.expect(*golden == self.artifact, || {
                format!(
                    "fig42: series differs from golden fig4.2.csv:\n{}",
                    self.artifact
                )
            });
            if self.full_size {
                checks.expect(events == EVENTS_AT_DEFAULT_SEED, || {
                    format!("fig42: {events} events, golden run has {EVENTS_AT_DEFAULT_SEED}")
                });
            }
        }
    }

    fn traced(&mut self, checks: &mut Checks, tracer: &mut Tracer, baseline: &Pass) -> Layers {
        let grid = self.grid();
        let total: u64 = self.last.iter().map(|p| p.1).sum();
        let mut l = Layers {
            step_ns: Vec::with_capacity(total as usize),
            populations: Populations {
                flows: self.params.max_mhs,
                sessions: self.params.max_mhs,
                ..Populations::default()
            },
            ..Layers::default()
        };
        let mut stepping = Duration::ZERO;
        tracer.span("fig42_grid", |tracer| {
            for (i, &(scheme, n)) in grid.iter().enumerate() {
                let (mut scenario, _) =
                    tracer.span("HmipScenario::build", |_| self.build(scheme, n));
                let label = format!("fig42 {} n={n}", scheme.label());
                stepping += replay(
                    &mut scenario,
                    self.last[i].1,
                    HORIZON,
                    &label,
                    &mut l,
                    tracer,
                    checks,
                );
            }
        });
        l.pending_mean /= l.events.max(1) as f64;
        l.populations.pending = l.pending_mean.round() as usize;
        l.overhead_ratio = stepping.as_secs_f64() / baseline.run.as_secs_f64().max(1e-9);
        l.extras = vec![Metric::new(
            "scenarios.build_ms",
            "ms",
            tracer.total_ms("HmipScenario::build"),
        )];
        l
    }
}

/// Steps a freshly built point through exactly the `events` its
/// untraced run dispatched, timing every `Simulator::step` and sampling
/// `events_pending` after it (summed into `l.pending_mean`; the caller
/// divides). Checks that no further event is due by `horizon`, so the
/// replay was the same run, and folds the point's `NetStats` and
/// `ArMetrics` counters into `l`. Returns the step loop's host time.
pub(crate) fn replay(
    scenario: &mut HmipScenario,
    events: u64,
    horizon: SimTime,
    label: &str,
    l: &mut Layers,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Duration {
    let start = Instant::now();
    let ((), allocs) = tracer.span("Simulator::step", |_| {
        alloc::count(|| {
            for _ in 0..events {
                let t = Instant::now();
                scenario.sim.step();
                l.step_ns.push(t.elapsed().as_nanos() as u32);
                let pending = scenario.sim.events_pending() as u64;
                l.pending_mean += pending as f64;
                l.pending_max = l.pending_max.max(pending);
            }
        })
    });
    let stepping = start.elapsed();
    let late = tracer.span("Simulator::run_until", |_| scenario.sim.run_until(horizon));
    checks.expect(late == 0, || {
        format!("{label}: {late} events past the untraced run's count")
    });
    l.events += events;
    l.allocs.allocs += allocs.allocs;
    l.allocs.bytes += allocs.bytes;
    let stats = &scenario.sim.shared.stats;
    l.control_msgs += stats.control_total();
    l.drops_total += stats.total_drops();
    for m in [scenario.par_agent().metrics, scenario.nar_agent().metrics] {
        l.flushes += m.flushes;
        l.sheds += m.pressure_sheds;
        l.watchdog_fired += m.watchdog_fired;
        l.buffer_full += m.buffer_full_sent;
    }
    stepping
}
