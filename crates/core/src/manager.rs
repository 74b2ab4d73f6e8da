//! The target-side migration manager (§3.1.2).
//!
//! The source keeps no migration state, so a manager on the target
//! coordinates everything: it partitions the source's key-hash space,
//! scoreboards one Pull per partition, hands completed pulls to idle
//! workers for replay, runs the PriorityPull batcher, and decides when
//! the migration is complete.
//!
//! In RAMCloud the manager runs as an asynchronous continuation on the
//! dispatch core; here it is a pure state machine — the server actor
//! reports events (`on_*`) and then asks [`MigrationManager::poll`] what
//! to do next, executing the returned [`Action`]s (sending RPCs,
//! scheduling replay tasks on idle workers). Two properties of the
//! paper's design fall directly out of `poll`:
//!
//! - **Pipelining**: when a partition's pulled records are handed to a
//!   replay worker, the next Pull for that partition is issued in the
//!   same breath, so network round trips overlap source-side processing
//!   (§3.1.2).
//! - **Built-in flow control**: replay is only scheduled onto *idle*
//!   workers, and a partition with an unconsumed response never issues
//!   another Pull — if the target is busy serving clients, migration
//!   slows itself down instead of queueing unboundedly (§3.1.2).

use rocksteady_common::{HashRange, KeyHash, ScanCursor, ServerId, TableId};
use rocksteady_proto::Record;

use crate::config::{MigrationConfig, PriorityPulls, PRIORITY_PULL_BATCH};
use crate::priority::{MissAnswer, PriorityPullBatcher};

/// A batch of records ready to be replayed on an idle worker.
/// [`MigrationManager::poll`] hands out PriorityPull batches before bulk
/// ones (§3.3 — a client is actively waiting on them).
#[derive(Debug, Clone)]
pub struct ReplayBatch {
    /// Which pull partition produced it (`None` for PriorityPull
    /// records).
    pub partition: Option<usize>,
    /// The records.
    pub records: Vec<Record>,
}

/// What the server actor should do next.
#[derive(Debug, Clone)]
pub enum Action {
    /// Send `PrepareMigration` to the source.
    SendPrepare,
    /// Tell the coordinator ownership moved and register the lineage
    /// dependency on this target's log from `lineage_from_segment`
    /// (§3.4).
    NotifyStart {
        /// First segment id of the target log tail the source depends on.
        lineage_from_segment: u64,
    },
    /// Issue a Pull RPC for `partition` resuming at `cursor`.
    SendPull {
        /// Partition index (identifies the scoreboard slot).
        partition: usize,
        /// Resume cursor within the partition.
        cursor: ScanCursor,
    },
    /// Issue a PriorityPull RPC for these hashes.
    SendPriorityPull {
        /// De-duplicated key hashes.
        hashes: Vec<KeyHash>,
    },
    /// Replay this batch on an idle worker.
    Replay(ReplayBatch),
    /// Everything has arrived and been replayed: commit side logs,
    /// re-replicate them lazily, tell the coordinator to drop the
    /// lineage dependency (§3.4), and mark the tablet a normal owner.
    Finished,
}

/// Migration lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Waiting for the source to acknowledge `PrepareMigration`.
    Preparing,
    /// Waiting for the coordinator to record the ownership transfer.
    Registering,
    /// Pulls and replays in flight.
    Running,
    /// All data arrived and replayed; `Finished` has been emitted.
    Done,
}

impl MigrationPhase {
    /// Trace-span label for the phase that *ends* when this one begins
    /// (the server emits a phase span at each transition).
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Preparing => "mig:preparing",
            MigrationPhase::Registering => "mig:prepare",
            MigrationPhase::Running => "mig:ownership-flip",
            MigrationPhase::Done => "mig:run",
        }
    }
}

/// Running statistics for one migration.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationStats {
    /// Bulk Pull RPCs issued.
    pub pulls_sent: u64,
    /// Records received via bulk Pulls.
    pub pull_records: u64,
    /// PriorityPull RPCs issued.
    pub priority_pulls_sent: u64,
    /// Records received via PriorityPulls.
    pub priority_records: u64,
}

#[derive(Debug)]
struct Partition {
    range: HashRange,
    /// Resume point for the next Pull; `None` once exhausted.
    cursor: Option<ScanCursor>,
    /// A Pull RPC is outstanding.
    in_flight: bool,
    /// Completed pull response waiting for an idle worker.
    ready: Option<Vec<Record>>,
    /// Replay tasks currently executing on workers.
    replays_running: u32,
    /// First pull not yet issued.
    never_pulled: bool,
}

impl Partition {
    fn exhausted(&self) -> bool {
        self.cursor.is_none() && !self.never_pulled
    }

    fn done(&self) -> bool {
        self.exhausted() && !self.in_flight && self.ready.is_none() && self.replays_running == 0
    }
}

/// The migration manager itself.
#[derive(Debug)]
pub struct MigrationManager {
    /// Table being migrated.
    pub table: TableId,
    /// Tablet range being migrated.
    pub range: HashRange,
    /// Where the records are coming from.
    pub source: ServerId,
    /// Protocol knobs.
    pub config: MigrationConfig,
    /// Running statistics.
    pub stats: MigrationStats,
    phase: MigrationPhase,
    partitions: Vec<Partition>,
    /// PriorityPull responses waiting for a worker (replayed urgently).
    pp_ready: Vec<Vec<Record>>,
    batcher: PriorityPullBatcher,
    lineage_from_segment: u64,
}

impl MigrationManager {
    /// Creates a manager for migrating `(table, range)` from `source`.
    ///
    /// `lineage_from_segment` is the target's current log head segment id
    /// — everything the target writes during the migration lands at or
    /// after it, which is exactly the log tail the lineage dependency
    /// must cover (§3.4).
    pub fn new(
        table: TableId,
        range: HashRange,
        source: ServerId,
        lineage_from_segment: u64,
        config: MigrationConfig,
    ) -> Self {
        let partitions = range
            .split(config.partitions)
            .into_iter()
            .map(|range| {
                let empty = range.is_empty();
                Partition {
                    range,
                    cursor: if empty {
                        None
                    } else {
                        Some(ScanCursor::default())
                    },
                    in_flight: false,
                    ready: None,
                    replays_running: 0,
                    never_pulled: !empty,
                }
            })
            .collect();
        MigrationManager {
            table,
            range,
            source,
            config,
            stats: MigrationStats::default(),
            phase: MigrationPhase::Preparing,
            partitions,
            pp_ready: Vec::new(),
            batcher: PriorityPullBatcher::new(),
            lineage_from_segment,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> MigrationPhase {
        self.phase
    }

    /// Kick off: returns the `PrepareMigration` action.
    pub fn begin(&mut self) -> Action {
        Action::SendPrepare
    }

    /// The source acknowledged `PrepareMigration`; returns the
    /// coordinator notification (ownership + lineage registration).
    pub fn on_prepared(&mut self) -> Action {
        debug_assert_eq!(self.phase, MigrationPhase::Preparing);
        self.phase = MigrationPhase::Registering;
        Action::NotifyStart {
            lineage_from_segment: self.lineage_from_segment,
        }
    }

    /// The coordinator recorded the transfer; pulls may start. Call
    /// [`MigrationManager::poll`] next.
    pub fn on_registered(&mut self) {
        debug_assert_eq!(self.phase, MigrationPhase::Registering);
        self.phase = MigrationPhase::Running;
    }

    /// A Pull for `partition` returned `records` and the resume cursor.
    pub fn on_pull_response(
        &mut self,
        partition: usize,
        records: Vec<Record>,
        next: Option<ScanCursor>,
    ) {
        let p = &mut self.partitions[partition];
        debug_assert!(p.in_flight);
        p.in_flight = false;
        p.cursor = next;
        self.stats.pull_records += records.len() as u64;
        if records.is_empty() {
            // Nothing to replay (empty tail of the partition).
            debug_assert!(next.is_none(), "pulls only return empty at exhaustion");
        } else {
            debug_assert!(p.ready.is_none(), "flow control violated");
            p.ready = Some(records);
        }
    }

    /// A PriorityPull returned `records`; hashes of the batch sent that
    /// came back with none are absent at the source.
    pub fn on_priority_pull_response(&mut self, records: Vec<Record>) {
        self.batcher.on_response(records.iter().map(|r| r.key_hash));
        self.stats.priority_records += records.len() as u64;
        if !records.is_empty() {
            self.pp_ready.push(records);
        }
    }

    /// A replay task finished on a worker.
    pub fn on_replay_done(&mut self, partition: Option<usize>) {
        if let Some(i) = partition {
            let p = &mut self.partitions[i];
            debug_assert!(p.replays_running > 0);
            p.replays_running -= 1;
        }
    }

    /// A client read missed a record this target owns (§3.3). Decides
    /// between "retry later", "block on a PriorityPull" and "not found",
    /// queueing the hash for the next PriorityPull batch when batched.
    pub fn on_read_miss(&mut self, hash: KeyHash) -> MissAnswer {
        let mode = self.config.priority_pulls;
        // The naïve mode fetches before asking whether the key exists.
        if mode == PriorityPulls::Sync {
            return MissAnswer::Block;
        }
        // If the partition holding this hash has fully arrived and
        // replayed, a miss is authoritative: the key doesn't exist.
        if let Some(p) = self.partitions.iter().find(|p| p.range.contains(hash)) {
            if p.done() && self.pp_ready.is_empty() {
                return MissAnswer::NotFound;
            }
        }
        if self.phase == MigrationPhase::Done {
            return MissAnswer::NotFound;
        }
        if mode == PriorityPulls::Batched {
            return self.batcher.on_miss(hash);
        }
        MissAnswer::Retry(mode.retry_cause())
    }

    /// Whether every partition is drained and nothing is outstanding.
    fn complete(&self) -> bool {
        self.phase == MigrationPhase::Running
            && self.partitions.iter().all(Partition::done)
            && self.pp_ready.is_empty()
            && self.batcher.is_idle()
    }

    /// Asks the manager what to do next, given `idle_workers` workers
    /// with nothing better to do. Returns RPCs to send and replay tasks
    /// to schedule; emits [`Action::Finished`] exactly once, when the
    /// migration has fully drained.
    pub fn poll(&mut self, mut idle_workers: usize) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.phase != MigrationPhase::Running {
            return actions;
        }

        // Initial pulls: one per partition, all at once (§3.1.2).
        for (i, p) in self.partitions.iter_mut().enumerate() {
            if p.never_pulled && self.config.background_pulls {
                p.never_pulled = false;
                if let Some(cursor) = p.cursor {
                    p.in_flight = true;
                    self.stats.pulls_sent += 1;
                    actions.push(Action::SendPull {
                        partition: i,
                        cursor,
                    });
                }
            }
        }

        // PriorityPull batch (one outstanding at a time, §3.3).
        if self.config.priority_pulls == PriorityPulls::Batched {
            if let Some(hashes) = self.batcher.next_batch(PRIORITY_PULL_BATCH) {
                self.stats.priority_pulls_sent += 1;
                actions.push(Action::SendPriorityPull { hashes });
            }
        }

        // Replay scheduling: PriorityPull records first, then bulk
        // partitions; each scheduled bulk batch immediately pipelines the
        // partition's next Pull (§3.1.2).
        while idle_workers > 0 {
            if let Some(records) = self.pp_ready.pop() {
                idle_workers -= 1;
                actions.push(Action::Replay(ReplayBatch {
                    partition: None,
                    records,
                }));
                continue;
            }
            let Some(i) = self.partitions.iter().position(|p| p.ready.is_some()) else {
                break;
            };
            let p = &mut self.partitions[i];
            let records = p.ready.take().expect("position() said ready");
            p.replays_running += 1;
            idle_workers -= 1;
            actions.push(Action::Replay(ReplayBatch {
                partition: Some(i),
                records,
            }));
            if let Some(cursor) = p.cursor {
                if !p.in_flight {
                    p.in_flight = true;
                    self.stats.pulls_sent += 1;
                    actions.push(Action::SendPull {
                        partition: i,
                        cursor,
                    });
                }
            }
        }

        if self.complete() {
            self.phase = MigrationPhase::Done;
            actions.push(Action::Finished);
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryCause;
    use bytes::Bytes;

    const T: TableId = TableId(1);
    const SRC: ServerId = ServerId(1);
    /// A batched miss: retry after one PriorityPull round trip.
    const QUEUED: MissAnswer = MissAnswer::Retry(RetryCause::MissPriorityPull);

    fn rec(hash: KeyHash) -> Record {
        Record {
            table: T,
            key_hash: hash,
            version: 1,
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
            tombstone: false,
        }
    }

    fn running_manager(partitions: usize) -> MigrationManager {
        running_with(MigrationConfig {
            partitions,
            ..MigrationConfig::default()
        })
    }

    fn running_with(config: MigrationConfig) -> MigrationManager {
        let mut m = MigrationManager::new(T, HashRange::full(), SRC, 5, config);
        assert!(matches!(m.begin(), Action::SendPrepare));
        match m.on_prepared() {
            Action::NotifyStart {
                lineage_from_segment,
            } => assert_eq!(lineage_from_segment, 5),
            other => panic!("unexpected action {other:?}"),
        }
        m.on_registered();
        m
    }

    fn pulls_of(actions: &[Action]) -> Vec<usize> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::SendPull { partition, .. } => Some(*partition),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn initial_poll_issues_one_pull_per_partition() {
        let mut m = running_manager(8);
        let actions = m.poll(4);
        assert_eq!(pulls_of(&actions), (0..8).collect::<Vec<_>>());
        assert_eq!(m.stats.pulls_sent, 8);
        // Re-polling issues nothing new while pulls are in flight.
        assert!(m.poll(4).is_empty());
    }

    #[test]
    fn replay_goes_to_idle_workers_and_pipelines_next_pull() {
        let mut m = running_manager(2);
        m.poll(0);
        m.on_pull_response(0, vec![rec(1)], Some(ScanCursor { bucket: 9 }));
        // No idle workers: the response sits ready, no new pull (flow
        // control, §3.1.2).
        assert!(m.poll(0).is_empty());
        // A worker frees up: replay scheduled AND the next pull issued.
        let actions = m.poll(1);
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            &actions[0],
            Action::Replay(ReplayBatch {
                partition: Some(0),
                ..
            })
        ));
        match &actions[1] {
            Action::SendPull { partition, cursor } => {
                assert_eq!(*partition, 0);
                assert_eq!(cursor.bucket, 9);
            }
            other => panic!("expected pipelined pull, got {other:?}"),
        }
    }

    #[test]
    fn completes_only_after_replays_finish() {
        let mut m = running_manager(1);
        m.poll(0);
        m.on_pull_response(0, vec![rec(1), rec(2)], None);
        let actions = m.poll(4);
        assert_eq!(
            actions.len(),
            1,
            "no Finished while replay runs: {actions:?}"
        );
        assert!(matches!(actions[0], Action::Replay(_)));
        assert!(m.poll(4).is_empty());
        m.on_replay_done(Some(0));
        let actions = m.poll(4);
        assert!(matches!(actions[..], [Action::Finished]));
        assert_eq!(m.phase(), MigrationPhase::Done);
        // Finished fires exactly once.
        assert!(m.poll(4).is_empty());
    }

    #[test]
    fn empty_tablet_finishes_immediately() {
        let mut m = running_manager(4);
        for (i, a) in m.poll(0).into_iter().enumerate() {
            match a {
                Action::SendPull { partition, .. } => assert_eq!(partition, i),
                other => panic!("{other:?}"),
            }
        }
        for i in 0..4 {
            m.on_pull_response(i, Vec::new(), None);
        }
        let actions = m.poll(2);
        assert!(matches!(actions[..], [Action::Finished]));
    }

    #[test]
    fn priority_pull_roundtrip_and_urgent_replay() {
        let mut m = running_manager(1);
        m.poll(0);
        assert_eq!(m.on_read_miss(42), QUEUED);
        assert_eq!(m.on_read_miss(42), QUEUED);
        let actions = m.poll(0);
        match &actions[..] {
            [Action::SendPriorityPull { hashes }] => assert_eq!(hashes, &vec![42]),
            other => panic!("{other:?}"),
        }
        m.on_priority_pull_response(vec![rec(42)]);
        let actions = m.poll(1);
        assert!(matches!(
            &actions[0],
            Action::Replay(ReplayBatch {
                partition: None,
                ..
            })
        ));
        assert_eq!(m.stats.priority_records, 1);
    }

    #[test]
    fn urgent_replay_preempts_bulk_when_one_worker() {
        let mut m = running_manager(1);
        m.poll(0);
        m.on_pull_response(0, vec![rec(1)], Some(ScanCursor { bucket: 3 }));
        m.on_read_miss(42);
        let actions = m.poll(0);
        assert!(matches!(&actions[..], [Action::SendPriorityPull { .. }]));
        m.on_priority_pull_response(vec![rec(42)]);
        let actions = m.poll(1);
        // The single worker must take the PriorityPull records first.
        match &actions[0] {
            Action::Replay(b) => assert_eq!(b.partition, None),
            other => panic!("{other:?}"),
        }
    }

    /// A poll that both hands out a PriorityPull batch and pipelines a
    /// partition's next Pull emits the batch first, so it leaves on the
    /// link to the source ahead of the bulk Pull: a waiting read is never
    /// queued behind a background batch (PriorityPull > background Pull).
    #[test]
    fn priority_pull_batch_precedes_the_pipelined_pull() {
        let mut m = running_manager(1);
        m.poll(0);
        m.on_pull_response(0, vec![rec(1)], Some(ScanCursor { bucket: 3 }));
        m.on_read_miss(42);
        let actions = m.poll(1);
        match &actions[..] {
            [Action::SendPriorityPull { hashes }, Action::Replay(ReplayBatch {
                partition: Some(0), ..
            }), Action::SendPull { partition: 0, .. }] => assert_eq!(hashes, &vec![42]),
            other => panic!("expected the batch, then the replay and its Pull: {other:?}"),
        }
    }

    #[test]
    fn miss_after_partition_done_is_not_found() {
        let mut m = running_manager(1);
        m.poll(0);
        m.on_pull_response(0, vec![rec(1)], None);
        assert_eq!(m.on_read_miss(77), QUEUED, "replay still pending");
        let _ = m.poll(1);
        m.on_replay_done(Some(0));
        let _ = m.poll(1); // emits Finished
        assert_eq!(m.on_read_miss(77), MissAnswer::NotFound);
    }

    #[test]
    fn no_priority_pull_mode_never_sends_pp() {
        let mut m = running_with(MigrationConfig {
            partitions: 1,
            priority_pulls: PriorityPulls::Off,
            ..MigrationConfig::default()
        });
        m.poll(0);
        let bulk_only = MissAnswer::Retry(RetryCause::MissBulkOnly);
        assert_eq!(m.on_read_miss(5), bulk_only);
        let actions = m.poll(2);
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, Action::SendPriorityPull { .. })),
            "{actions:?}"
        );
        assert_eq!(m.stats.priority_pulls_sent, 0);
    }

    /// The naïve mode blocks the reader before asking whether the key
    /// exists: a miss on a drained partition still goes to the source,
    /// and nothing is ever batched.
    #[test]
    fn sync_mode_blocks_even_on_a_drained_partition() {
        let mut m = running_with(MigrationConfig {
            partitions: 1,
            priority_pulls: PriorityPulls::Sync,
            ..MigrationConfig::default()
        });
        m.poll(0);
        assert_eq!(m.on_read_miss(5), MissAnswer::Block);
        m.on_pull_response(0, Vec::new(), None);
        assert!(matches!(m.poll(1)[..], [Action::Finished]));
        assert_eq!(m.on_read_miss(5), MissAnswer::Block);
        assert_eq!(m.stats.priority_pulls_sent, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = running_manager(2);
        m.poll(1);
        m.on_pull_response(0, vec![rec(1), rec(2)], None);
        m.on_pull_response(1, vec![rec(3)], None);
        let _ = m.poll(2);
        assert_eq!(m.stats.pull_records, 3);
        assert_eq!(m.stats.pulls_sent, 2);
    }
}
