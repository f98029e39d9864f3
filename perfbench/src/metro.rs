//! `metro_city`: `fh_metro::run` with `MetroConfig::default()` at 50k
//! hosts across its 4 MAP domains.
//!
//! The sharded kernel: per-domain event queues (hard-coded heap) whose
//! pending sets and host tables outgrow the cache, the epoch barrier
//! exchange, and none of fh-core, fh-wireless or the actor fabric. The
//! queue runs here at large populations, the opposite of `fig42_grid`.

use std::time::{Duration, Instant};

use fh_metro::{run, Domain, MetroConfig, MetroResults};
use fh_sim::{run_epochs, Outbox, ShardState, SimTime};

use crate::layers::Populations;
use crate::measure::{Checks, Layers, Metric, Pass, Workload};
use crate::spans::Tracer;
use crate::{alloc, Inputs, DEFAULT_SEED};

/// Worker threads of the timed runs; the check compares against 1.
pub const THREADS: usize = 2;

/// The metro workload and the artifact of its last pass.
pub struct Metro {
    cfg: MetroConfig,
    artifact: String,
}

impl Metro {
    /// 50k hosts (2k in a small run) at `inputs.seed`; the default seed
    /// keeps `MetroConfig::default()`'s.
    #[must_use]
    pub fn new(inputs: &Inputs) -> Self {
        let base = MetroConfig::default();
        let cfg = MetroConfig {
            hosts: if inputs.small { 2_000 } else { 50_000 },
            seed: if inputs.seed == DEFAULT_SEED {
                base.seed
            } else {
                inputs.seed
            },
            ..base
        };
        Metro {
            cfg,
            artifact: String::new(),
        }
    }

    fn audit(&self, r: &MetroResults, checks: &mut Checks) {
        let violations = r.counts.conservation_violations();
        checks.expect(violations.is_empty(), || {
            format!("metro: conservation violated: {violations:?}")
        });
        checks.expect(r.leak_clean, || {
            "metro: a domain pool did not drain".to_owned()
        });
    }
}

/// A domain whose `advance` calls are timed: one sample of host
/// nanoseconds per event for every (shard, epoch) that dispatched any.
struct Timed {
    domain: Domain,
    samples: Vec<u32>,
}

impl ShardState for Timed {
    type Msg = <Domain as ShardState>::Msg;

    fn accept(&mut self, arrival: SimTime, msg: Self::Msg) {
        self.domain.accept(arrival, msg);
    }

    fn advance(&mut self, horizon: SimTime, outbox: &mut Outbox<Self::Msg>) {
        let before = self.domain.events_processed;
        let t = Instant::now();
        self.domain.advance(horizon, outbox);
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(per_event) = ns.checked_div(self.domain.events_processed - before) {
            self.samples.push(per_event as u32);
        }
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.domain.next_event_time()
    }
}

impl Workload for Metro {
    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let r = run(&self.cfg, THREADS);
        self.audit(&r, checks);
        self.artifact = r.artifact();
        checks.points(1);
        Pass {
            events: r.events_processed,
            run: r.elapsed,
            wall: start.elapsed(),
        }
    }

    fn setup(&mut self) -> Duration {
        let start = Instant::now();
        let domains: Vec<Domain> = (0..self.cfg.domains)
            .map(|i| Domain::new(i, &self.cfg))
            .collect();
        let took = start.elapsed();
        drop(domains);
        took
    }

    fn verify(&mut self, checks: &mut Checks) {
        let sequential = run(&self.cfg, 1);
        self.audit(&sequential, checks);
        checks.expect(sequential.artifact() == self.artifact, || {
            format!("metro: artifact differs at threads 1 and {THREADS}")
        });
    }

    fn single_threaded(&self) -> bool {
        THREADS == 1
    }

    fn traced(&mut self, checks: &mut Checks, tracer: &mut Tracer, baseline: &Pass) -> Layers {
        let cfg = &self.cfg;
        let (r, total_ms) = tracer.span("metro_city", |tracer| {
            let t = Instant::now();
            let r = tracer.span("fh_metro::run", |_| run(cfg, THREADS));
            (r, t.elapsed().as_secs_f64() * 1e3)
        });
        self.audit(&r, checks);

        // The same run with every domain's advance timed.
        let mut domains: Vec<Timed> = tracer.span("Domain::new", |_| {
            (0..cfg.domains)
                .map(|i| Timed {
                    domain: Domain::new(i, cfg),
                    samples: Vec::with_capacity(1 << 16),
                })
                .collect()
        });
        let t = Instant::now();
        let (report, allocs) = tracer.span("run_epochs", |_| {
            alloc::count(|| run_epochs(&mut domains, cfg.boundary_latency, cfg.horizon, THREADS))
        });
        let stepping = t.elapsed();
        let events: u64 = domains.iter().map(|d| d.domain.events_processed).sum();
        checks.expect(
            events == r.events_processed && report.messages == r.report.messages,
            || "metro: timed replay diverged from fh_metro::run".to_owned(),
        );

        // Each domain's standing queue population: one handover chain per
        // homed host and one generator chain per sourced flow.
        let chains: Vec<(usize, usize)> = (0..cfg.domains)
            .map(|d| {
                let homed = (0..cfg.hosts).filter(|&h| cfg.home_domain(h) == d).count();
                let sourced = (0..cfg.hosts)
                    .filter(|&h| cfg.source_domain(h) == d)
                    .count();
                (homed, sourced)
            })
            .collect();
        let pending: Vec<usize> = chains.iter().map(|&(h, s)| h + s).collect();
        let max_homed = chains.iter().map(|c| c.0).max().unwrap_or(0);
        // Hosts inside a handover at once: blackout share of residence.
        let sessions = (max_homed as f64 * cfg.blackout.as_secs_f64()
            / cfg.mean_residence.as_secs_f64())
        .ceil() as usize;

        let drops: u64 = (0..3).map(|k| r.counts.drops(k)).sum();
        let rep = &r.report;
        Layers {
            events: r.events_processed,
            pending_mean: pending.iter().sum::<usize>() as f64 / pending.len().max(1) as f64,
            pending_max: pending.iter().copied().max().unwrap_or(0) as u64,
            step_ns: domains.into_iter().flat_map(|d| d.samples).collect(),
            allocs,
            drops_total: drops,
            overhead_ratio: stepping.as_secs_f64() / baseline.run.as_secs_f64().max(1e-9),
            populations: Populations {
                pending: pending.iter().copied().max().unwrap_or(0),
                flows: chains.iter().map(|c| c.1).max().unwrap_or(0),
                sessions,
            },
            extras: vec![
                Metric::new("metro.busy_s", "s", rep.busy.as_secs_f64()),
                Metric::new("metro.critical_s", "s", rep.critical.as_secs_f64()),
                Metric::new("metro.exchange_s", "s", rep.exchange.as_secs_f64()),
                Metric::new(
                    "metro.critical_path_speedup",
                    "ratio",
                    rep.critical_path_speedup(),
                ),
                Metric::new("metro.epochs", "count", rep.epochs as f64),
                Metric::new("metro.messages", "count", rep.messages as f64),
                Metric::new("metro.boundary_packets", "count", r.boundary_packets as f64),
                Metric::new(
                    "metro.setup_ms",
                    "ms",
                    total_ms - r.elapsed.as_secs_f64() * 1e3,
                ),
            ],
            ..Layers::default()
        }
    }
}
