#![deny(missing_docs)]
//! Exact virtual-time profiling for the Rocksteady reproduction.
//!
//! The paper's headline claims are *attribution* claims: Fig 5
//! decomposes migration throughput into the cores and components that
//! bound it, and §4.4 argues that a core blocked on replication flush
//! is as costly as a busy one. A sampling profiler on real hardware can
//! only approximate that decomposition; under the simulator's virtual
//! clock we can make it exact. This crate provides two analyses:
//!
//! 1. **Per-core activity ledger** ([`Profiler`] / [`CoreLedger`]):
//!    every dispatch and worker core charges elapsed virtual time to a
//!    small [`Activity`] enum at the existing task-assignment and
//!    completion points in the server actor. The ledger maintains a
//!    *conservation invariant* — per core, the activity buckets
//!    (including idle) sum exactly to elapsed virtual time — so a
//!    dropped charge is a validation failure, not a silent skew. The
//!    result exports as Brendan-Gregg folded stacks
//!    (`server;core;activity N_ns`) ready for `flamegraph.pl`, and as
//!    gauges in the metrics registry.
//! 2. **Migration critical path** ([`critical_path`]): walks the trace
//!    buffer after a run and tiles the migration interval into the
//!    component that bounded completion at each instant — replay
//!    service, pull RTT (split into NIC serialization vs. the rest),
//!    priority pulls, control phases, or dispatch queueing — returning
//!    a ranked [`CriticalPathReport`].
//!
//! Determinism: all inputs are virtual-time integers recorded by the
//! deterministic simulation, state lives in `BTreeMap`s, and exports
//! format integers only — same seed, byte-identical output. Arming the
//! profiler must never perturb the simulation: charging is pure state
//! mutation (no timers, sends, or RNG draws), and a disarmed
//! [`Profiler`] is a `None` whose every call is a discriminant branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use rocksteady_common::Nanos;
use rocksteady_metrics::Registry;

mod critical_path;

pub use critical_path::{critical_path, CriticalPathComponent, CriticalPathReport};

/// What a core spends its time on. One bucket per variant in each
/// core's ledger; [`Activity::Idle`] is the slack that makes the
/// conservation invariant hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Activity {
    /// Dispatch core: receiving + demultiplexing one inbound message.
    DispatchRx,
    /// Dispatch core: serializing outbound messages onto the NIC queue.
    DispatchTx,
    /// Dispatch core: migration-manager poll (window checks, pull
    /// scheduling, re-replication bookkeeping).
    MigrationMgr,
    /// Worker core: normal-case read/write/index service.
    Service,
    /// Worker core on the source: gathering records for a bulk Pull.
    PullGather,
    /// Worker core on the source: servicing an on-demand priority pull.
    PriorityPull,
    /// Worker core on the target: replaying pulled or recovered log
    /// records into the hash table.
    Replay,
    /// Worker core blocked on a replication flush while holding a
    /// completed response (§4.4: a blocked core is a busy core).
    Hold,
    /// Worker core: background duty — replication appends on backups,
    /// segment fetch service, log cleaning, non-replay record pushes.
    Background,
    /// Nothing scheduled.
    Idle,
}

impl Activity {
    /// Number of activity buckets.
    pub const COUNT: usize = 10;

    /// Every activity, in ledger-bucket order.
    pub const ALL: [Activity; Activity::COUNT] = [
        Activity::DispatchRx,
        Activity::DispatchTx,
        Activity::MigrationMgr,
        Activity::Service,
        Activity::PullGather,
        Activity::PriorityPull,
        Activity::Replay,
        Activity::Hold,
        Activity::Background,
        Activity::Idle,
    ];

    /// Stable kebab-case label used in folded stacks, CSV rows, and
    /// metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Activity::DispatchRx => "dispatch-rx",
            Activity::DispatchTx => "dispatch-tx",
            Activity::MigrationMgr => "migration-mgr",
            Activity::Service => "service",
            Activity::PullGather => "pull-gather",
            Activity::PriorityPull => "priority-pull",
            Activity::Replay => "replay",
            Activity::Hold => "hold",
            Activity::Background => "background",
            Activity::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        Activity::ALL
            .iter()
            .position(|a| *a == self)
            .expect("activity in ALL")
    }
}

/// The activity ledger of one core: a cursor through virtual time plus
/// one bucket per [`Activity`].
///
/// Conservation invariant: after [`CoreLedger::finalize`], the buckets
/// (idle included) sum exactly to the cursor — every elapsed nanosecond
/// is attributed exactly once. [`CoreLedger::charge`] preserves it by
/// construction (gaps auto-fill as idle, overlaps are diverted to the
/// overcommit tally); [`CoreLedger::validate`] checks it, and the unit
/// tests prove it catches a deliberately dropped charge.
#[derive(Debug, Clone, Default)]
pub struct CoreLedger {
    cursor: Nanos,
    buckets: [Nanos; Activity::COUNT],
    overcommit_ns: Nanos,
    overcommit_events: u64,
}

impl CoreLedger {
    /// Charges `[start, start + dur)` to `act`. A gap since the last
    /// charge is filled as idle; any overlap with already-attributed
    /// time is counted as overcommit (the server model can double-book
    /// the dispatch core — see `node_dispatch_overcommit_total`) and
    /// excluded from the buckets so conservation still holds.
    pub fn charge(&mut self, act: Activity, start: Nanos, dur: Nanos) {
        let end = start + dur;
        if end <= self.cursor {
            if dur > 0 {
                self.overcommit_ns += dur;
                self.overcommit_events += 1;
            }
            return;
        }
        let (start, dur) = if start < self.cursor {
            self.overcommit_ns += self.cursor - start;
            self.overcommit_events += 1;
            (self.cursor, end - self.cursor)
        } else {
            (start, dur)
        };
        if start > self.cursor {
            self.buckets[Activity::Idle.index()] += start - self.cursor;
        }
        self.buckets[act.index()] += dur;
        self.cursor = end;
    }

    /// Fills idle up to `at` (no-op if the cursor is already past it).
    pub fn finalize(&mut self, at: Nanos) {
        if self.cursor < at {
            self.buckets[Activity::Idle.index()] += at - self.cursor;
            self.cursor = at;
        }
    }

    /// Elapsed virtual time accounted by this ledger.
    pub fn wall(&self) -> Nanos {
        self.cursor
    }

    /// Time charged to `act`.
    pub fn bucket(&self, act: Activity) -> Nanos {
        self.buckets[act.index()]
    }

    /// Sum of all non-idle buckets.
    pub fn busy_ns(&self) -> Nanos {
        self.cursor - self.bucket(Activity::Idle)
    }

    /// Time charged to [`Activity::Idle`].
    pub fn idle_ns(&self) -> Nanos {
        self.bucket(Activity::Idle)
    }

    /// Time that would have double-booked the core (diverted out of the
    /// buckets by [`CoreLedger::charge`]).
    pub fn overcommit_ns(&self) -> Nanos {
        self.overcommit_ns
    }

    /// Checks the conservation invariant: buckets (including idle) sum
    /// exactly to the cursor.
    pub fn validate(&self) -> Result<(), String> {
        let sum: Nanos = self.buckets.iter().sum();
        if sum == self.cursor {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: buckets sum to {sum} ns but {} ns elapsed \
                 (a charge was dropped or double-applied)",
                self.cursor
            ))
        }
    }
}

/// One core's finalized ledger, flattened for figure pipelines.
#[derive(Debug, Clone)]
pub struct CoreProfile {
    /// Owning server id.
    pub server: u32,
    /// Core index: 0 = dispatch, `1 + w` = worker `w`.
    pub core: u32,
    /// Activity buckets in [`Activity::ALL`] order.
    pub buckets: [Nanos; Activity::COUNT],
    /// Elapsed virtual time (the buckets' sum when conservation holds).
    pub wall: Nanos,
    /// Double-booked time diverted from the buckets.
    pub overcommit_ns: Nanos,
}

/// Validation summary across all cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Number of registered cores.
    pub cores: usize,
    /// Largest per-core elapsed time.
    pub wall_ns: Nanos,
    /// Total non-idle time across cores.
    pub busy_ns: Nanos,
    /// Total idle time across cores.
    pub idle_ns: Nanos,
    /// Total double-booked time across cores.
    pub overcommit_ns: Nanos,
    /// Number of overlapping charges observed.
    pub overcommit_events: u64,
}

/// Human-readable label for a core index: `dispatch` or `worker{w}`.
pub fn core_label(core: u32) -> String {
    if core == 0 {
        "dispatch".to_string()
    } else {
        format!("worker{}", core - 1)
    }
}

#[derive(Debug, Default)]
struct LedgerBuf {
    cores: BTreeMap<(u32, u32), CoreLedger>,
}

/// Shared handle to the activity ledgers of every core in the cluster,
/// mirroring `rocksteady_trace::Tracer`: a disarmed profiler is `None`
/// and every call on it is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Profiler(Option<Rc<RefCell<LedgerBuf>>>);

impl Profiler {
    /// A disarmed profiler: records nothing, costs one branch per call.
    pub fn off() -> Self {
        Profiler(None)
    }

    /// An armed profiler with an empty ledger.
    pub fn armed() -> Self {
        Profiler(Some(Rc::new(RefCell::new(LedgerBuf::default()))))
    }

    /// Whether charges are being recorded. Callers should guard any
    /// non-trivial bookkeeping behind this.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Registers a core so it appears in exports (as all-idle) even if
    /// it never runs a task.
    pub fn register_core(&self, server: u32, core: u32) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().cores.entry((server, core)).or_default();
        }
    }

    /// Charges `[start, start + dur)` on `(server, core)` to `act`.
    /// See [`CoreLedger::charge`] for gap/overlap semantics.
    pub fn charge(&self, server: u32, core: u32, act: Activity, start: Nanos, dur: Nanos) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut()
                .cores
                .entry((server, core))
                .or_default()
                .charge(act, start, dur);
        }
    }

    /// Fills idle on every registered core up to `at`. Call once the
    /// run is over, before validating or exporting.
    pub fn finalize(&self, at: Nanos) {
        if let Some(buf) = &self.0 {
            for ledger in buf.borrow_mut().cores.values_mut() {
                ledger.finalize(at);
            }
        }
    }

    /// Checks the conservation invariant on every core and returns a
    /// summary. `Err` names the first offending core.
    pub fn validate(&self) -> Result<ProfileSummary, String> {
        let Some(buf) = &self.0 else {
            return Ok(ProfileSummary {
                cores: 0,
                wall_ns: 0,
                busy_ns: 0,
                idle_ns: 0,
                overcommit_ns: 0,
                overcommit_events: 0,
            });
        };
        let buf = buf.borrow();
        let mut summary = ProfileSummary {
            cores: buf.cores.len(),
            wall_ns: 0,
            busy_ns: 0,
            idle_ns: 0,
            overcommit_ns: 0,
            overcommit_events: 0,
        };
        for ((server, core), ledger) in &buf.cores {
            ledger
                .validate()
                .map_err(|e| format!("server{server} {}: {e}", core_label(*core)))?;
            summary.wall_ns = summary.wall_ns.max(ledger.wall());
            summary.busy_ns += ledger.busy_ns();
            summary.idle_ns += ledger.idle_ns();
            summary.overcommit_ns += ledger.overcommit_ns;
            summary.overcommit_events += ledger.overcommit_events;
        }
        Ok(summary)
    }

    /// Flattens every core's ledger (deterministic order: by server,
    /// then core index).
    pub fn cores(&self) -> Vec<CoreProfile> {
        let Some(buf) = &self.0 else {
            return Vec::new();
        };
        buf.borrow()
            .cores
            .iter()
            .map(|((server, core), ledger)| CoreProfile {
                server: *server,
                core: *core,
                buckets: ledger.buckets,
                wall: ledger.cursor,
                overcommit_ns: ledger.overcommit_ns,
            })
            .collect()
    }

    /// Brendan-Gregg folded stacks: one `server;core;activity N_ns`
    /// line per non-empty bucket, ready for `flamegraph.pl`. Integer
    /// nanosecond sample weights; byte-identical across same-seed runs.
    pub fn export_folded(&self) -> String {
        let mut out = String::new();
        for core in self.cores() {
            for (act, ns) in Activity::ALL.iter().zip(core.buckets.iter()) {
                if *ns > 0 {
                    let _ = writeln!(
                        out,
                        "server{};{};{} {}",
                        core.server,
                        core_label(core.core),
                        act.label(),
                        ns
                    );
                }
            }
        }
        out
    }

    /// Publishes every non-empty bucket as a `profiler_activity_ns`
    /// gauge (labels: `server`, `core`, `activity`) in `registry`.
    /// Idempotent — gauges are set, not added.
    pub fn publish(&self, registry: &Registry) {
        for core in self.cores() {
            let server = core.server.to_string();
            let label = core_label(core.core);
            for (act, ns) in Activity::ALL.iter().zip(core.buckets.iter()) {
                if *ns > 0 {
                    registry
                        .gauge(
                            "profiler_activity_ns",
                            "virtual nanoseconds the core spent on the activity",
                            &[
                                ("server", server.clone()),
                                ("core", label.clone()),
                                ("activity", act.label().to_string()),
                            ],
                        )
                        .set(*ns as i64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_fills_gaps_as_idle_and_conserves() {
        let mut l = CoreLedger::default();
        l.charge(Activity::Service, 10, 5);
        l.charge(Activity::Replay, 30, 10);
        l.finalize(50);
        l.validate().expect("conservation holds");
        assert_eq!(l.bucket(Activity::Service), 5);
        assert_eq!(l.bucket(Activity::Replay), 10);
        assert_eq!(l.idle_ns(), 10 + 15 + 10);
        assert_eq!(l.wall(), 50);
        assert_eq!(l.busy_ns() + l.idle_ns(), l.wall());
    }

    #[test]
    fn overlapping_charges_count_as_overcommit_not_double_booking() {
        let mut l = CoreLedger::default();
        l.charge(Activity::DispatchRx, 0, 100);
        // Tx accrued off-dispatch at t=40 overlaps the scheduled rx
        // interval by 60 ns and extends it by 20.
        l.charge(Activity::DispatchTx, 40, 80);
        l.finalize(120);
        l.validate().expect("conservation holds");
        assert_eq!(l.overcommit_ns(), 60);
        assert_eq!(l.bucket(Activity::DispatchTx), 20);
        assert_eq!(l.wall(), 120);
        // A charge fully inside attributed time is pure overcommit.
        l.charge(Activity::DispatchTx, 10, 5);
        assert_eq!(l.overcommit_ns(), 65);
        l.validate().expect("conservation still holds");
    }

    #[test]
    fn dropped_charge_fails_validation() {
        // An instrumentation bug: the cursor skips the idle gap
        // [10, 20) without charging it, so 10 ns of wall-clock went
        // unattributed.
        let mut broken = CoreLedger::default();
        broken.charge(Activity::Service, 0, 10);
        broken.cursor = 20;
        broken.charge(Activity::Replay, 20, 5);
        let err = broken.validate().expect_err("dropped charge must fail");
        assert!(err.contains("conservation violated"), "{err}");

        // The same sequence through the gap-filling API conserves.
        let mut ok = CoreLedger::default();
        ok.charge(Activity::Service, 0, 10);
        ok.charge(Activity::Replay, 20, 5);
        ok.validate().expect("charge() conserves by construction");
    }

    #[test]
    fn profiler_validate_names_the_offending_core() {
        let p = Profiler::armed();
        p.register_core(3, 0);
        p.charge(3, 2, Activity::Replay, 0, 10);
        p.validate().expect("both cores conserve");
        // Corrupt worker 1's ledger: wall-clock nobody was charged for.
        if let Some(buf) = &p.0 {
            buf.borrow_mut().cores.get_mut(&(3, 2)).unwrap().cursor += 40;
        }
        let err = p.validate().expect_err("gap must fail");
        assert!(err.contains("server3 worker1"), "{err}");
    }

    #[test]
    fn folded_export_is_sorted_and_skips_empty_buckets() {
        let p = Profiler::armed();
        p.register_core(1, 0);
        p.charge(0, 1, Activity::Service, 5, 10);
        p.charge(0, 0, Activity::DispatchRx, 0, 3);
        p.finalize(20);
        let folded = p.export_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "server0;dispatch;dispatch-rx 3",
                "server0;dispatch;idle 17",
                "server0;worker0;service 10",
                "server0;worker0;idle 10",
                "server1;dispatch;idle 20",
            ]
        );
    }

    #[test]
    fn disarmed_profiler_is_inert() {
        let p = Profiler::off();
        p.register_core(0, 0);
        p.charge(0, 0, Activity::Service, 0, 10);
        p.finalize(100);
        assert!(!p.is_on());
        assert!(p.cores().is_empty());
        assert_eq!(p.export_folded(), "");
        assert_eq!(p.validate().unwrap().cores, 0);
    }
}
