//! One MAP domain as a shard of the metro kernel.
//!
//! A [`Domain`] is a self-contained discrete-event loop over the hosts
//! homed in it: it owns its event queue, its RNG lineage (derived with
//! the domain salt so it can never collide with sweep-point or
//! fault-link streams), its [`PacketPool`], and its counters. The only
//! way anything enters or leaves is the epoch executor's mailbox — a
//! [`CrossPacket`] carries the few hot fields a packet needs to survive
//! the crossing (pools are per-domain, so handles cannot travel).
//!
//! Its event queue is a pending set: one FIFO lane per event kind
//! scheduled a fixed delay ahead (generator ticks, local arrivals,
//! handover ends) and a heap for the rest, popped in exactly the
//! `(time, seq)` order of [`fh_sim::EventQueue`].
//!
//! The event loop is deliberately leaner than the full protocol fabric:
//! metro-scale runs trade per-packet protocol fidelity for host count,
//! keeping exactly the behaviours the buffer-management comparison
//! needs — blackout windows, per-scheme admission (cap, dual cap), paced
//! flush, and per-class delay accounting.

use std::collections::VecDeque;

use fh_core::Scheme;
use fh_net::{doc_subnet, FlowId, Packet, PacketPool, ServiceClass};
use fh_sim::stats::Histogram;
use fh_sim::{derive_domain_seed, Outbox, Rng64, ShardState, SimDuration, SimTime};

use crate::pending::Pending;
use crate::MetroConfig;

/// Flow classes in F1–F3 order, shared with the scenario layer.
pub const CLASSES: [ServiceClass; 3] = [
    ServiceClass::RealTime,
    ServiceClass::HighPriority,
    ServiceClass::BestEffort,
];

/// Short class labels for artifact columns, in F1–F3 order.
pub const CLASS_LABELS: [&str; 3] = ["rt", "hp", "be"];

/// Fixed access-network latency between a domain's wired side and a
/// host's radio — the floor every delivered packet pays.
pub const ACCESS_LATENCY: SimDuration = SimDuration::from_millis(2);

/// Extra forwarding delay the PAR-only scheme pays per flush: buffered
/// packets sit one router further from the new attachment point, so the
/// smooth-handover draft re-tunnels them across the inter-AR path.
pub const PAR_FORWARD_DELAY: SimDuration = SimDuration::from_millis(8);

/// Upper edge of the per-class delay histograms, in milliseconds.
const DELAY_HI_MS: f64 = 2_000.0;
/// Bin count of the per-class delay histograms (1 ms bins).
const DELAY_BINS: usize = 2_000;

/// A packet in flight between domains: the hot fields only, because
/// pools — and therefore handles — do not cross shard boundaries.
#[derive(Debug, Clone, Copy)]
pub struct CrossPacket {
    /// Destination host (global index).
    pub host: u32,
    /// Flow class index (0..3, F1–F3).
    pub class: u8,
    /// On-wire size in bytes.
    pub size: u32,
    /// Per-flow sequence number.
    pub seq: u64,
    /// When the correspondent created the packet.
    pub created: SimTime,
}

/// The per-domain event vocabulary.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The correspondent of `host` emits packet `seq` of its flow.
    /// Scheduled in the *source* domain (the home domain for local
    /// flows, the correspondent domain for remote ones).
    Gen { host: u32, seq: u64 },
    /// A packet reaches `host`'s home domain and meets the buffer
    /// scheme (or the host directly).
    Arrive(CrossPacket),
    /// `host` begins a handover: radio goes dark.
    HandoverStart { host: u32 },
    /// `host` completes attachment: flush whatever was buffered.
    HandoverEnd { host: u32 },
    /// A flushed packet, re-paced by the flush spacing, reaches its
    /// host.
    Deliver { class: u8, created: SimTime },
}

/// Per-class deterministic tallies of one domain (or, summed, a run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Packets generated.
    pub generated: [u64; 3],
    /// Packets delivered to their host.
    pub delivered: [u64; 3],
    /// Dropped during a blackout with no buffer (or no admission).
    pub dropped_blackout: [u64; 3],
    /// Dropped because the scheme's buffer cap was reached.
    pub dropped_overflow: [u64; 3],
    /// Still queued or parked when the horizon fell.
    pub dropped_horizon: [u64; 3],
}

impl ClassCounts {
    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: &ClassCounts) {
        for k in 0..3 {
            self.generated[k] += other.generated[k];
            self.delivered[k] += other.delivered[k];
            self.dropped_blackout[k] += other.dropped_blackout[k];
            self.dropped_overflow[k] += other.dropped_overflow[k];
            self.dropped_horizon[k] += other.dropped_horizon[k];
        }
    }

    /// All drops of class `k`, every reason combined.
    #[must_use]
    pub fn drops(&self, k: usize) -> u64 {
        self.dropped_blackout[k] + self.dropped_overflow[k] + self.dropped_horizon[k]
    }

    /// Conservation violations: one message per class whose equation
    /// `generated == delivered + drops` does not balance.
    #[must_use]
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, label) in CLASS_LABELS.iter().enumerate() {
            let accounted = self.delivered[k] + self.drops(k);
            if self.generated[k] != accounted {
                out.push(format!(
                    "class {label}: generated {} != accounted {} (delivered {} + drops {})",
                    self.generated[k],
                    accounted,
                    self.delivered[k],
                    self.drops(k),
                ));
            }
        }
        out
    }
}

/// Lane of [`Ev::Gen`]: always `packet_interval` ahead.
const GEN: usize = 0;
/// Lane of a local [`Ev::Arrive`]: always [`ACCESS_LATENCY`] ahead.
const LOCAL_ARRIVE: usize = 1;
/// Lane of [`Ev::HandoverEnd`]: always `blackout` ahead.
const HANDOVER_END: usize = 2;

/// The mutable per-host state a domain tracks.
#[derive(Debug, Clone, Default)]
struct HostState {
    /// Radio dark (handover in progress).
    blackout: bool,
    /// Parked packets, oldest first, as pool handles.
    buffer: VecDeque<fh_net::PacketHandle>,
    /// Current access router within the domain (cosmetic rotation).
    ar: u32,
}

/// One MAP domain: an independent shard of the metro simulation.
#[derive(Debug)]
pub struct Domain {
    /// This domain's index (== its shard index).
    pub index: u32,
    cfg: MetroConfig,
    queue: Pending<Ev, 3>,
    rng: Rng64,
    pool: PacketPool,
    /// Dense per-host state of the hosts homed here, indexed by
    /// [`MetroConfig::home_slot`].
    state: Vec<HostState>,
    now: SimTime,
    /// Deterministic tallies.
    pub counts: ClassCounts,
    /// Per-class delivered-delay histograms (milliseconds).
    pub delay: [Histogram; 3],
    /// Events popped from this domain's queue.
    pub events_processed: u64,
    /// Handovers started by hosts homed here.
    pub handovers: u64,
    /// Packets / bytes this domain pushed across a boundary.
    pub boundary_tx: (u64, u64),
    /// Packets / bytes this domain received across a boundary.
    pub boundary_rx: (u64, u64),
}

impl Domain {
    /// Builds domain `index` of a metro deployment and seeds its event
    /// queue: one generator chain per flow sourced here, one handover
    /// chain per host homed here.
    #[must_use]
    pub fn new(index: u32, cfg: &MetroConfig) -> Self {
        let mut d = Domain {
            index,
            cfg: cfg.clone(),
            queue: Pending::new(),
            rng: Rng64::seed_from(derive_domain_seed(cfg.seed, index)),
            pool: PacketPool::new(),
            state: Vec::new(),
            now: SimTime::ZERO,
            counts: ClassCounts::default(),
            delay: [
                Histogram::new(0.0, DELAY_HI_MS, DELAY_BINS),
                Histogram::new(0.0, DELAY_HI_MS, DELAY_BINS),
                Histogram::new(0.0, DELAY_HI_MS, DELAY_BINS),
            ],
            events_processed: 0,
            handovers: 0,
            boundary_tx: (0, 0),
            boundary_rx: (0, 0),
        };
        for host in 0..cfg.hosts {
            if cfg.home_domain(host) == index {
                assert_eq!(cfg.home_slot(host), d.state.len(), "round-robin homing");
                d.state.push(HostState::default());
                // First residence interval, drawn from this domain's
                // stream in host order (deterministic).
                let residence = d.residence();
                if let Some(t) = SimTime::ZERO.checked_add(residence) {
                    if t < cfg.horizon {
                        d.queue.push(t, Ev::HandoverStart { host });
                    }
                }
            }
            if cfg.source_domain(host) == index {
                // Stagger first emissions so 100k hosts don't fire on
                // the same nanosecond.
                let phase = cfg.packet_interval * u64::from(host % 128) / 128;
                d.queue
                    .seed_lane(GEN, cfg.traffic_start + phase, Ev::Gen { host, seq: 0 });
            }
        }
        d.queue.sort_lanes();
        d
    }

    /// Number of hosts homed in this domain.
    #[must_use]
    pub fn homed_hosts(&self) -> u32 {
        self.state.len() as u32
    }

    /// Exponential residence time from this domain's RNG, floored at
    /// 1 ms so a pathological draw cannot wedge a host in a
    /// zero-length dwell loop.
    fn residence(&mut self) -> SimDuration {
        let ms = self
            .rng
            .gen_exp(self.cfg.mean_residence.as_millis_f64())
            .max(1.0);
        SimDuration::from_nanos((ms * 1e6) as u64)
    }

    /// The scheme's buffer cap per handover, in packets.
    fn buffer_cap(&self) -> usize {
        match self.cfg.scheme {
            Scheme::NoBuffer => 0,
            // SafetyNet parks its insurance copies at the NAR only, so
            // its cap matches the single-router schemes.
            Scheme::NarOnly | Scheme::ParOnly | Scheme::SafetyNet => {
                self.cfg.buffer_request as usize
            }
            // The proposed scheme aggregates both routers' reservations.
            Scheme::Dual { .. } => 2 * self.cfg.buffer_request as usize,
        }
    }

    fn deliver(&mut self, class: u8, created: SimTime) {
        let k = class as usize;
        self.counts.delivered[k] += 1;
        let delay_ms = self.now.saturating_since(created).as_millis_f64();
        self.delay[k].add(delay_ms);
    }

    /// A packet meets its host: delivered directly, parked, or dropped
    /// at the scheme's buffer cap.
    fn arrive(&mut self, cp: CrossPacket) {
        let slot = self.cfg.home_slot(cp.host);
        if !self.state[slot].blackout {
            self.deliver(cp.class, cp.created);
            return;
        }
        let cap = self.buffer_cap();
        let k = cp.class as usize;
        if cap == 0 {
            self.counts.dropped_blackout[k] += 1;
            return;
        }
        if self.state[slot].buffer.len() < cap {
            self.park(slot, cp);
            return;
        }
        // Full. A host's buffer holds only its own single-class flow, so
        // there is no lower-class packet to evict: the newcomer drops.
        self.counts.dropped_overflow[k] += 1;
    }

    /// Parks one packet in the pool and the host's FIFO.
    fn park(&mut self, slot: usize, cp: CrossPacket) {
        let host = cp.host;
        let pkt = Packet::data(
            FlowId(host),
            cp.seq,
            doc_subnet(self.cfg.source_domain(host) as u16).host(u64::from(host) + 1),
            doc_subnet(self.index as u16).host(u64::from(host) + 1),
            CLASSES[cp.class as usize],
            cp.size,
            cp.created,
        );
        let handle = self.pool.insert(pkt);
        self.state[slot].buffer.push_back(handle);
    }

    fn handle(&mut self, ev: Ev, outbox: &mut Outbox<CrossPacket>) {
        match ev {
            Ev::Gen { host, seq } => {
                if self.now >= self.cfg.traffic_stop {
                    return; // chain ends; no reschedule
                }
                let home = self.cfg.home_domain(host);
                let class = (host % 3) as u8;
                self.counts.generated[class as usize] += 1;
                let cp = CrossPacket {
                    host,
                    class,
                    size: self.cfg.packet_bytes,
                    seq,
                    created: self.now,
                };
                if home == self.index {
                    self.queue
                        .push_lane(LOCAL_ARRIVE, self.now + ACCESS_LATENCY, Ev::Arrive(cp));
                } else {
                    self.boundary_tx.0 += 1;
                    self.boundary_tx.1 += u64::from(cp.size);
                    outbox.send(home as usize, self.now + self.cfg.boundary_latency, cp);
                }
                self.queue.push_lane(
                    GEN,
                    self.now + self.cfg.packet_interval,
                    Ev::Gen { host, seq: seq + 1 },
                );
            }
            Ev::Arrive(cp) => self.arrive(cp),
            Ev::HandoverStart { host } => {
                let slot = self.cfg.home_slot(host);
                self.state[slot].blackout = true;
                self.state[slot].ar = (self.state[slot].ar + 1) % self.cfg.ars_per_domain.max(1);
                self.handovers += 1;
                self.queue.push_lane(
                    HANDOVER_END,
                    self.now + self.cfg.blackout,
                    Ev::HandoverEnd { host },
                );
            }
            Ev::HandoverEnd { host } => {
                let slot = self.cfg.home_slot(host);
                self.state[slot].blackout = false;
                // Flush, oldest first, paced by the flush spacing; the
                // PAR-only draft pays the inter-AR re-tunnel on top.
                let extra = if self.cfg.scheme == Scheme::ParOnly {
                    PAR_FORWARD_DELAY
                } else {
                    SimDuration::ZERO
                };
                let mut i = 0u64;
                while let Some(handle) = self.state[slot].buffer.pop_front() {
                    let pkt = self.pool.remove(handle).expect("parked handle is live");
                    let class = CLASSES
                        .iter()
                        .position(|&c| c == pkt.effective_class())
                        .unwrap_or(2) as u8;
                    let t = self.now + extra + self.cfg.flush_spacing * i;
                    self.queue.push(
                        t,
                        Ev::Deliver {
                            class,
                            created: pkt.created,
                        },
                    );
                    i += 1;
                }
                // Next dwell.
                let residence = self.residence();
                if let Some(t) = self.now.checked_add(residence) {
                    if t < self.cfg.horizon {
                        self.queue.push(t, Ev::HandoverStart { host });
                    }
                }
            }
            Ev::Deliver { class, created } => self.deliver(class, created),
        }
    }

    /// Drains everything still queued or parked after the horizon and
    /// books it as horizon drops, making conservation exact. Returns
    /// `true` if the pool came back empty (leak-clean).
    pub fn finalize(&mut self) -> bool {
        while let Some((_, ev)) = self.queue.pop() {
            match ev {
                Ev::Arrive(cp) => self.counts.dropped_horizon[cp.class as usize] += 1,
                Ev::Deliver { class, .. } => {
                    self.counts.dropped_horizon[class as usize] += 1;
                }
                Ev::Gen { .. } | Ev::HandoverStart { .. } | Ev::HandoverEnd { .. } => {}
            }
        }
        for slot in 0..self.state.len() {
            while let Some(handle) = self.state[slot].buffer.pop_front() {
                let pkt = self.pool.remove(handle).expect("parked handle is live");
                let k = CLASSES
                    .iter()
                    .position(|&c| c == pkt.effective_class())
                    .unwrap_or(2);
                self.counts.dropped_horizon[k] += 1;
            }
        }
        self.pool.is_empty()
    }
}

impl ShardState for Domain {
    type Msg = CrossPacket;

    fn accept(&mut self, arrival: SimTime, msg: CrossPacket) {
        self.boundary_rx.0 += 1;
        self.boundary_rx.1 += u64::from(msg.size);
        self.queue.push(arrival, Ev::Arrive(msg));
    }

    fn advance(&mut self, horizon: SimTime, outbox: &mut Outbox<CrossPacket>) {
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked event exists");
            self.now = t;
            self.events_processed += 1;
            self.handle(ev, outbox);
        }
        self.now = horizon;
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}
