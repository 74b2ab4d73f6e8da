//! Same seed ⇒ bit-identical experiment.
//!
//! The whole reproduction rests on the simulator being deterministic:
//! every figure regenerates exactly, and every bug report replays. This
//! runs a full migration-under-load experiment twice per seed and
//! compares event counts plus latency-distribution digests.

mod common;

use rocksteady_cluster::scenarios::live_migration;
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig};
use rocksteady_common::{ServerId, MILLISECOND};
use rocksteady_simnet::SchedulerKind;

/// The full migration-under-load experiment, every recorder armed.
fn run(seed: u64, scheduler: SchedulerKind) -> Cluster {
    let cfg = ClusterConfig {
        seed,
        tracing: true,
        profiling: true,
        audit: true,
        scheduler,
        ..common::test_config()
    };
    let mut cluster = live_migration(ClusterBuilder::new(cfg), 5_000, 50_000.0, 5 * MILLISECOND);
    cluster.run_until(100 * MILLISECOND);
    cluster
}

#[allow(clippy::type_complexity)]
fn digest(seed: u64) -> (u64, u64, u64, u64, u64, String, String, String) {
    let cluster = run(seed, SchedulerKind::default());
    let reads = cluster.client_stats[0].borrow().read_latency.merged();
    let events = cluster.sim.events_processed();
    let replayed = cluster.server_stats[&ServerId(1)].records_replayed.get();
    cluster.finalize_profile();
    (
        events,
        reads.count(),
        reads.percentile(0.5),
        reads.percentile(0.999),
        replayed,
        cluster.export_folded(),
        cluster.export_audit_json(),
        cluster.export_journeys_json(),
    )
}

#[test]
fn identical_seeds_identical_traces() {
    assert_eq!(digest(1234), digest(1234));
}

/// Full-experiment digest under an explicit scheduler: event count plus
/// the byte-exact trace, profiler, and audit exports the swap must
/// preserve.
fn sched_digest(kind: SchedulerKind) -> (u64, String, String, String, String) {
    let cluster = run(1234, kind);
    cluster.finalize_profile();
    (
        cluster.sim.events_processed(),
        cluster.export_trace_json(),
        cluster.export_folded(),
        cluster.export_audit_json(),
        cluster.export_journeys_json(),
    )
}

/// The tentpole's non-negotiable: swapping the calendar-queue scheduler
/// for the reference binary heap changes nothing observable. Event
/// count, the full trace export, and the profiler's folded stacks must
/// be byte-identical.
#[test]
fn scheduler_swap_is_byte_identical() {
    let cal = sched_digest(SchedulerKind::Calendar);
    let heap = sched_digest(SchedulerKind::BinaryHeap);
    assert_eq!(cal.0, heap.0, "events_processed diverged across schedulers");
    assert_eq!(cal.1, heap.1, "trace export diverged across schedulers");
    assert_eq!(cal.2, heap.2, "folded profile diverged across schedulers");
    assert_eq!(cal.3, heap.3, "audit export diverged across schedulers");
    assert_eq!(cal.4, heap.4, "journeys export diverged across schedulers");
}

/// Equal-deadline events must be delivered in push (FIFO) order, on both
/// schedulers. A hub actor fans one timer tick out to many peers with
/// identical delays; every delivery is appended to a shared schedule log
/// which must come out in exactly the fan-out order, twice.
mod same_timestamp {
    use std::cell::RefCell;
    use std::rc::Rc;

    use rocksteady_common::wire::{SimMessage, WireSized};
    use rocksteady_common::Nanos;
    use rocksteady_simnet::{Actor, ActorId, Ctx, Event, NicConfig, SchedulerKind, Simulation};

    #[derive(Debug)]
    struct Ping(u32);
    impl WireSized for Ping {
        fn wire_size(&self) -> u64 {
            0 // zero wire bytes: all copies arrive at exactly the same ns
        }
    }
    impl SimMessage for Ping {}

    type Log = Rc<RefCell<Vec<(Nanos, ActorId, u32)>>>;

    struct Hub {
        peers: Vec<ActorId>,
        rounds: u32,
    }
    impl Actor<Ping> for Hub {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            ctx.timer(1_000, 0);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            if let Event::Timer { .. } = event {
                // Interleave two passes over the peers so the expected
                // FIFO order is not simply "actor id order".
                for pass in 0..2u32 {
                    for (i, &p) in self.peers.iter().enumerate() {
                        ctx.send(p, Ping(pass * self.peers.len() as u32 + i as u32));
                    }
                }
                self.rounds -= 1;
                if self.rounds > 0 {
                    ctx.timer(1_000, 0);
                }
            }
        }
    }

    struct Recorder {
        log: Log,
    }
    impl Actor<Ping> for Recorder {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            if let Event::Message { payload, .. } = event {
                self.log
                    .borrow_mut()
                    .push((ctx.now(), ctx.self_id(), payload.0));
            }
        }
    }

    fn schedule(kind: SchedulerKind) -> Vec<(Nanos, ActorId, u32)> {
        let nic = NicConfig {
            bytes_per_ns: 1.0,
            one_way_latency_ns: 500,
        };
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::with_scheduler(nic, 7, kind);
        let peers: Vec<ActorId> = (0..16)
            .map(|_| sim.add_actor(Box::new(Recorder { log: log.clone() })))
            .collect();
        sim.add_actor(Box::new(Hub { peers, rounds: 4 }));
        sim.run_to_idle();
        drop(sim);
        Rc::try_unwrap(log).expect("sim dropped").into_inner()
    }

    #[test]
    fn equal_deadline_events_pop_in_fifo_order() {
        let cal = schedule(SchedulerKind::Calendar);
        assert!(!cal.is_empty());
        // 4 rounds × 2 passes × 16 peers, all at 500 ns after each tick.
        assert_eq!(cal.len(), 4 * 2 * 16);
        for round in 0..4 {
            let tick = &cal[round * 32..(round + 1) * 32];
            let at = tick[0].0;
            for (i, &(t, _, tag)) in tick.iter().enumerate() {
                assert_eq!(t, at, "same-deadline batch split across times");
                assert_eq!(tag as usize, i, "delivery order != push order");
            }
        }
        // And the reference heap produces the identical schedule.
        assert_eq!(cal, schedule(SchedulerKind::BinaryHeap));
    }
}

#[test]
fn different_seeds_different_traces() {
    let a = digest(1);
    let b = digest(2);
    assert_ne!(a.0, b.0, "event counts identical across seeds: {a:?}");
}
