//! Per-layer operation timings at a workload's measured populations.
//!
//! Each function times one crate's public operations in isolation, with
//! the population that matters to its cost (pending events, flows,
//! handover sessions) taken from the workload's traced pass. Inputs come
//! from the workload seed, so a rerun times the same operations.

use std::collections::VecDeque;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;

use fh_core::policy::{AdmitCtx, AvailabilityCase, PolicyEngine, Role};
use fh_core::{AdmissionLimit, BufferPool, Scheme};
use fh_net::{ControlMsg, DropReason, FlowId, NetStats, Packet, PacketPool, ServiceClass};
use fh_sim::{EventQueue, QueueKind, Rng64, SimDuration, SimTime};

use crate::alloc;
use crate::measure::{median, Metric};

/// The populations a workload's layer timings run at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Populations {
    /// Events pending in one event queue.
    pub pending: usize,
    /// Flows one `NetStats` tracks.
    pub flows: usize,
    /// Handover sessions one router's buffer pool holds at once.
    pub sessions: usize,
}

/// Packets each session reserves (the thesis' buffer request).
const REQUEST: u32 = 12;
/// Timed repetitions per operation; the median is reported.
const REPS: usize = 7;
/// Least host time one repetition measures.
const REP_NS: u128 = 8_000_000;

/// Median over [`REPS`] repetitions of host nanoseconds per operation.
/// `batch` runs some operations and returns how many.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch());
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut ops = 0u64;
            while start.elapsed().as_nanos() < REP_NS {
                ops += batch();
            }
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&mut reps)
}

/// Exponential hold increments with a 1 ms mean, from the seed.
fn increments(seed: u64) -> Vec<SimDuration> {
    let mut rng = Rng64::seed_from(seed);
    (0..4096)
        .map(|_| SimDuration::from_nanos(rng.gen_exp(1e6) as u64 + 1))
        .collect()
}

/// `EventQueue` hold cost: one pop plus one push, at `pending` events.
fn queue_hold_ns(kind: QueueKind, pending: usize, seed: u64) -> f64 {
    let inc = increments(seed);
    let mut q: EventQueue<u64> = EventQueue::with_kind(kind);
    for i in 0..pending.max(1) {
        q.push(SimTime::ZERO + inc[i % inc.len()], i as u64);
    }
    let mut k = 0usize;
    ns_per_op(|| {
        for _ in 0..4096 {
            let (t, e) = q.pop().expect("hold keeps the population constant");
            q.push(t + inc[k % inc.len()], e);
            k += 1;
        }
        4096
    })
}

/// `sim.queue.*`: hold cost of both queue backends at the workload's
/// pending population.
#[must_use]
pub fn queue_metrics(pop: &Populations, seed: u64) -> Vec<Metric> {
    vec![
        Metric::new(
            "sim.queue.heap_ns",
            "ns",
            queue_hold_ns(QueueKind::Heap, pop.pending, seed),
        ),
        Metric::new(
            "sim.queue.calendar_ns",
            "ns",
            queue_hold_ns(QueueKind::Calendar, pop.pending, seed),
        ),
    ]
}

fn addr(i: usize) -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, 0, 1, 0, 0, (i >> 16) as u16, i as u16)
}

fn packet(flow: usize, seq: u64, class: ServiceClass) -> Packet {
    Packet::data(
        FlowId(flow as u32 + 1),
        seq,
        addr(0),
        addr(flow + 1),
        class,
        160,
        SimTime::from_nanos(seq),
    )
}

const CLASSES: [ServiceClass; 3] = [
    ServiceClass::RealTime,
    ServiceClass::HighPriority,
    ServiceClass::BestEffort,
];

/// `PacketPool` insert plus remove, at `pending` parked packets.
fn pool_ns(pending: usize) -> f64 {
    let mut pool = PacketPool::new();
    let mut live: VecDeque<_> = (0..pending.max(1))
        .map(|i| pool.insert(packet(i, i as u64, CLASSES[i % 3])))
        .collect();
    ns_per_op(|| {
        for _ in 0..4096 {
            let h = live.pop_front().expect("population is constant");
            let pkt = pool.remove(h).expect("live handle");
            live.push_back(pool.insert(pkt));
        }
        4096
    })
}

/// `NetStats::record_*`: one sent, delivered, control and drop record
/// per flow in turn. Returns host ns per call and allocations per
/// `record_control`, counted after every flow has been seen once.
fn stats_record(flows: usize) -> (f64, f64) {
    const REASONS: [DropReason; 3] = [
        DropReason::BufferOverflow,
        DropReason::RadioDetached,
        DropReason::Policy,
    ];
    let flows = flows.max(1);
    let msg = ControlMsg::RouterSolicitation;
    let mut stats = NetStats::new();
    let mut i = 0usize;
    let mut round = |stats: &mut NetStats, n: usize| {
        for _ in 0..n {
            let flow = FlowId((i % flows) as u32 + 1);
            let now = SimTime::from_nanos(i as u64);
            stats.record_sent(flow);
            stats.record_delivered(flow);
            stats.record_control(now, &msg);
            stats.record_drop(now, flow, REASONS[i % 3]);
            i += 1;
        }
    };
    round(&mut stats, flows);
    let ns = ns_per_op(|| {
        round(&mut stats, 1024);
        4 * 1024
    });
    const CONTROLS: u64 = 1000;
    let ((), n) = alloc::count(|| {
        for k in 0..CONTROLS {
            stats.record_control(SimTime::from_nanos(k), &msg);
        }
    });
    black_box(stats.control_total());
    (ns, n.allocs as f64 / CONTROLS as f64)
}

/// `net.*`: `NetStats` recording at the workload's flow count and
/// `PacketPool` churn at its pending population.
#[must_use]
pub fn net_metrics(pop: &Populations) -> Vec<Metric> {
    let (record_ns, allocs) = stats_record(pop.flows);
    vec![
        Metric::new("net.stats_record_ns", "ns", record_ns),
        Metric::new("net.stats_allocs_per_control", "allocs/call", allocs),
        Metric::new("net.pool_ns", "ns", pool_ns(pop.pending)),
    ]
}

/// `BufferPool` admission: per session a grant, [`REQUEST`] admitted
/// packets and a drain, at `sessions` sessions. Host ns per packet.
fn admit_ns(sessions: usize) -> f64 {
    let sessions = sessions.max(1);
    let mut pool = BufferPool::new(sessions * REQUEST as usize);
    let mut seq = 0u64;
    ns_per_op(|| {
        for s in 0..sessions {
            let key = addr(s + 1);
            pool.grant(key, REQUEST);
            for j in 0..REQUEST as usize {
                seq += 1;
                let ok =
                    pool.try_buffer(key, packet(s, seq, CLASSES[j % 3]), AdmissionLimit::Grant);
                assert!(ok.is_ok(), "a granted session admits its request");
            }
            black_box(pool.drain(key));
        }
        sessions as u64 * u64::from(REQUEST)
    })
}

/// Shedding on a full pool: per operation one `shed_class_front` of the
/// oldest best-effort packet, its replacement, and one
/// `buffer_realtime_dropfront` into a full session. Host ns per
/// operation, at `sessions` full sessions.
fn shed_ns(sessions: usize) -> f64 {
    let sessions = sessions.max(1);
    let mut pool = BufferPool::new(sessions * REQUEST as usize);
    let mut seq = 0u64;
    for s in 0..sessions {
        pool.grant(addr(s + 1), REQUEST);
        for j in 0..REQUEST as usize {
            seq += 1;
            let ok = pool.try_buffer(
                addr(s + 1),
                packet(s, seq, CLASSES[j % 3]),
                AdmissionLimit::Grant,
            );
            assert!(ok.is_ok(), "a granted session admits its request");
        }
    }
    let mut s = 0usize;
    ns_per_op(|| {
        for _ in 0..64 {
            let (key, mut pkt) = pool
                .shed_class_front(ServiceClass::BestEffort)
                .expect("every session parks best-effort packets");
            seq += 1;
            pkt.seq = seq;
            pkt.created = SimTime::from_nanos(seq);
            let _ = black_box(pool.try_buffer(key, pkt, AdmissionLimit::PoolOnly));
            seq += 1;
            let rt = packet(s, seq, ServiceClass::RealTime);
            let _ = black_box(pool.buffer_realtime_dropfront(addr(s + 1), rt));
            s = (s + 1) % sessions;
        }
        64
    })
}

/// `PolicyEngine::classify_batch` over every scheme, role and admission
/// context. Host ns per call.
fn classify_ns() -> f64 {
    let cases = [
        AvailabilityCase::BothAvailable,
        AvailabilityCase::NarOnly,
        AvailabilityCase::ParOnly,
        AvailabilityCase::NoneAvailable,
    ];
    let mut grid = Vec::new();
    for scheme in Scheme::ALL {
        for case in cases {
            for nar_full in [false, true] {
                for par_granted in [false, true] {
                    let ctx = AdmitCtx {
                        case,
                        class: ServiceClass::Unspecified,
                        nar_full,
                        par_granted,
                        threshold_a: 10,
                    };
                    grid.push((PolicyEngine::for_scheme(scheme), ctx));
                }
            }
        }
    }
    ns_per_op(|| {
        for (engine, ctx) in &grid {
            black_box(engine.classify_batch(Role::Par, black_box(ctx)));
            black_box(engine.classify_batch(Role::Nar, black_box(ctx)));
        }
        2 * grid.len() as u64
    })
}

/// `core.*`: admission and shedding at the workload's session count,
/// and batch classification.
#[must_use]
pub fn core_metrics(pop: &Populations) -> Vec<Metric> {
    vec![
        Metric::new("core.admit_ns", "ns", admit_ns(pop.sessions)),
        Metric::new("core.shed_ns", "ns", shed_ns(pop.sessions)),
        Metric::new("core.classify_ns", "ns", classify_ns()),
    ]
}
