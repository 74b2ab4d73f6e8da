//! Cluster-wide protocol auditing: causal ownership timelines, online
//! invariant checking, and breach "explain" reports.
//!
//! Rocksteady's safety argument rests on a handful of protocol
//! invariants (§3): ownership flips atomically at the coordinator while
//! the source keeps serving until its prepare, version floors only
//! rise, every gathered record is replayed or superseded, and lineage
//! dependencies pin crash-recovery order. The trace and profiler layers
//! show *where time goes*; this crate continuously proves *the protocol
//! did the right thing*.
//!
//! Producers (coordinator actor, server nodes, the rebalancer) emit
//! [`AuditEvent`]s through a shared [`AuditSink`]. An [`AuditKind`]
//! carries only the facts the checker, the explain engine or an export
//! reads, and nothing another record already holds: a coordinator's
//! rejection shows as the target's `MigrationAbandoned`, and the
//! rebalancer's proposals and move outcomes are counts in its report,
//! not events. The sink is the
//! same zero-cost-when-disarmed handle shape as `Tracer`/`Profiler`: a
//! disarmed sink is `None` and every emit is one branch, no clock
//! reads, no allocation (callers guard payload construction with
//! [`AuditSink::is_on`]). An armed sink is pure state mutation on the
//! virtual clock, so arming can never perturb the event schedule —
//! `events_processed()` and all other exports stay byte-identical.
//!
//! The online [`InvariantAuditor`] consumes each event as it is
//! emitted, reconstructing per-tablet ownership timelines and checking
//! five invariant classes (see [`invariants`]):
//!
//! 1. **single-owner** — at most one server is authoritative for any
//!    key range at any instant, *modulo* the documented dual-serving
//!    migration window (target admission → source prepare flip), which
//!    must close before the migration commits;
//! 2. **version-floor** — each master's version floor is monotone;
//! 3. **conservation** — per migration, records gathered equals records
//!    fed to replay; applied + superseded accounts for all of them
//!    (none lost, none double-counted);
//! 4. **lineage** — a lineage dependency is created before the commit
//!    that uses it, dropped exactly once, and fully dropped when a
//!    participant crashes;
//! 5. **linearizable** — every key's client history is: YCSB clients
//!    report each completed operation ([`AuditSink::client_op`], not an
//!    event), and one invoked after another completed sees at least
//!    its version (a write, a greater one); answered writes' versions
//!    are unique; and, once the history ends ([`AuditSink::end_history`]),
//!    every version read was written or is the key's preload, below
//!    every answered write.
//!
//! On top of the recorded stream sits the **explain engine**: given a
//! migration id or an SLO-breach interval it walks the causal chain
//! (rebalancer decision → admission → pull/replay pressure → outcome)
//! and renders a ranked, deterministic JSON report. The full ownership-
//! transfer history is the JSON export's `timeline`: every transfer
//! opens a segment owned by the new owner. All exports are integer-only
//! and byte-identical across same-seed runs.

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rocksteady_common::json::JsonWriter;
use rocksteady_common::{
    FxHashMap, HashRange, KeyHash, MigrationId, Nanos, Ring, ServerId, TableId,
};
use rocksteady_metrics::{Counter, Registry};

/// The invariant catalog: index order is stable and shared by the
/// per-invariant counters and the metrics labels.
pub mod invariants {
    /// Single authoritative owner per key range (modulo the dual window).
    pub const SINGLE_OWNER: usize = 0;
    /// Per-master version floors only rise.
    pub const VERSION_FLOOR: usize = 1;
    /// Gathered == replayed + superseded per migration.
    pub const CONSERVATION: usize = 2;
    /// Lineage deps: created before use, dropped exactly once.
    pub const LINEAGE: usize = 3;
    /// Every key's client history is linearizable.
    pub const LINEARIZABLE: usize = 4;
    /// Stable names, indexed by the constants above.
    pub const NAMES: [&str; 5] = [
        "single-owner",
        "version-floor",
        "conservation",
        "lineage",
        "linearizable",
    ];
}

/// Why a server stopped claiming serving authority over a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseVia {
    /// The migration source executed PrepareMigration: the documented
    /// dual-serving window closes here.
    PrepareFlip,
    /// The range entered crash recovery (`Recovering` blocks clients).
    RecoveryBlock,
    /// A rejected migration dropped its provisional tablet.
    Abandon,
}

/// One audited protocol step. All payloads are plain integers/ids so
/// recording never allocates beyond the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    // ------------------------------------------------ coordinator-side --
    /// Setup: a tablet entered the coordinator map owned by `owner`.
    TabletCreated {
        /// Table the tablet belongs to.
        table: TableId,
        /// Covered hash range.
        range: HashRange,
        /// Initial owner.
        owner: ServerId,
    },
    /// Metadata-only split of the tablet containing `at` (§3).
    TabletSplit {
        /// Table being split.
        table: TableId,
        /// Split point: the old tablet becomes `[start, at)` + `[at, end]`.
        at: KeyHash,
    },
    /// The coordinator recorded a migration start: map ownership flipped
    /// atomically from `source` to `target` (§3).
    MigrationStart {
        /// Migration id.
        id: MigrationId,
        /// Table under migration.
        table: TableId,
        /// Range under migration.
        range: HashRange,
        /// The source master.
        source: ServerId,
        /// The target master (the new map owner).
        target: ServerId,
    },
    /// The coordinator recorded the migration's completion.
    MigrationCommit {
        /// Migration id.
        id: MigrationId,
        /// Table under migration.
        table: TableId,
        /// Range under migration.
        range: HashRange,
    },
    /// A baseline migration transferred ownership in one step (§2.3).
    BaselineFlip {
        /// Table transferred.
        table: TableId,
        /// Range transferred.
        range: HashRange,
        /// The old owner.
        source: ServerId,
        /// The new owner.
        target: ServerId,
    },
    /// A lineage dependency was recorded (§3.4).
    LineageAdded {
        /// Owning migration.
        id: MigrationId,
        /// The dependent (migration source).
        source: ServerId,
        /// Whose log tail is depended upon (migration target).
        target: ServerId,
    },
    /// A lineage dependency was dropped: its migration committed, or a
    /// participant crashed and the recovery plan dropped it.
    LineageDropped {
        /// Owning migration.
        id: MigrationId,
    },
    /// The coordinator processed a crash report for `server`. Emitted
    /// *after* the `LineageDropped` events of its recovery plan so the
    /// auditor can check the dead server's deps are fully gone.
    ServerCrashed {
        /// The dead server.
        server: ServerId,
    },
    /// One recovery assignment of the crash plan.
    RecoveryPlanned {
        /// Table to recover.
        table: TableId,
        /// Range to recover.
        range: HashRange,
        /// The surviving master that replays and takes ownership.
        recovery_master: ServerId,
    },

    // ------------------------------------------------------ master-side --
    /// A migration target admitted run `id` and became locally
    /// authoritative for the range (§3): the dual-serving window opens.
    MigrationAdmitted {
        /// Migration id.
        id: MigrationId,
        /// Table under migration.
        table: TableId,
        /// Range under migration.
        range: HashRange,
        /// The source it will pull from.
        source: ServerId,
        /// The admitting target.
        target: ServerId,
    },
    /// A crash recovery's replayed log is durable: the range reopened on
    /// `server`, which now claims serving authority over it.
    NodeClaim {
        /// The claiming server.
        server: ServerId,
        /// Table.
        table: TableId,
        /// Range.
        range: HashRange,
    },
    /// A server stopped claiming serving authority over a range.
    NodeRelease {
        /// The releasing server.
        server: ServerId,
        /// Table.
        table: TableId,
        /// Range.
        range: HashRange,
        /// Why it released.
        via: ReleaseVia,
    },
    /// A master raised (or restated) its version floor.
    VersionFloor {
        /// The master.
        server: ServerId,
        /// The floor after the raise.
        floor: u64,
    },
    /// The target received one batch of gathered records for run `id`.
    Gathered {
        /// Migration id.
        id: MigrationId,
        /// Records in the batch.
        records: u64,
        /// Whether this was a PriorityPull response.
        priority: bool,
    },
    /// The target replayed one batch for run `id`.
    Replayed {
        /// Migration id.
        id: MigrationId,
        /// Records handed to `replay_batch`.
        received: u64,
        /// Records actually applied (the rest were version-superseded).
        applied: u64,
    },
    /// The source serviced a PriorityPull (§3.3). No check reads it; the
    /// repo benchmark's `audit.emit_ns` probe emits it.
    PriorityServed {
        /// The serving source.
        server: ServerId,
        /// Hashes requested.
        requested: u64,
        /// Records returned (absent hashes are known-deleted).
        records: u64,
    },
    /// The target finished run `id`: side logs committed, role flipped
    /// to owner. Carries the manager's own gather totals so the auditor
    /// can cross-check its event-accumulated counts.
    MigrationFinished {
        /// Migration id.
        id: MigrationId,
        /// Records the manager counted from bulk pulls.
        pull_records: u64,
        /// Records the manager counted from priority pulls.
        priority_records: u64,
    },
    /// The target abandoned run `id` (source died, rejected, or a
    /// recovery plan superseded it).
    MigrationAbandoned {
        /// Migration id.
        id: MigrationId,
    },

    // ------------------------------------------------- rebalancer-side --
    /// Admission control admitted a move and issued `MigrateTablet`: the
    /// head of the migration's causal chain. The move's endpoints arrive
    /// with the target's `MigrationAdmitted`.
    RebalanceAdmitted {
        /// The assigned migration id (`>= 1 << 32`).
        id: MigrationId,
    },
}

impl AuditKind {
    /// Stable label for causal-chain rendering.
    pub fn label(&self) -> &'static str {
        match self {
            AuditKind::TabletCreated { .. } => "tablet-created",
            AuditKind::TabletSplit { .. } => "tablet-split",
            AuditKind::MigrationStart { .. } => "migration-start",
            AuditKind::MigrationCommit { .. } => "migration-commit",
            AuditKind::BaselineFlip { .. } => "baseline-flip",
            AuditKind::LineageAdded { .. } => "lineage-added",
            AuditKind::LineageDropped { .. } => "lineage-dropped",
            AuditKind::ServerCrashed { .. } => "server-crashed",
            AuditKind::RecoveryPlanned { .. } => "recovery-planned",
            AuditKind::MigrationAdmitted { .. } => "migration-admitted",
            AuditKind::NodeClaim { .. } => "node-claim",
            AuditKind::NodeRelease { .. } => "node-release",
            AuditKind::VersionFloor { .. } => "version-floor",
            AuditKind::Gathered { .. } => "gathered",
            AuditKind::Replayed { .. } => "replayed",
            AuditKind::PriorityServed { .. } => "priority-served",
            AuditKind::MigrationFinished { .. } => "migration-finished",
            AuditKind::MigrationAbandoned { .. } => "migration-abandoned",
            AuditKind::RebalanceAdmitted { .. } => "rebalance-admitted",
        }
    }
}

/// What a completed client operation returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A read returned, or a write was assigned, this version.
    Version(u64),
    /// A read found no object.
    Miss,
    /// A write that may or may not have applied: its attempt timed out,
    /// or it was still in flight when the run ended.
    Indeterminate,
}

/// The `client` of the end-of-run read-back's operations.
pub const READ_BACK: u64 = u64::MAX;

/// One completed client operation on one key: the unit of the
/// `linearizable` invariant ([`AuditSink::client_op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOp {
    /// Client actor id, or [`READ_BACK`].
    pub client: u64,
    /// Key hash (YCSB clients share the scenarios' one table).
    pub hash: KeyHash,
    /// A write (else a read).
    pub write: bool,
    /// When the client invoked the operation (before its first attempt).
    pub invoked: Nanos,
    /// When it completed.
    pub completed: Nanos,
    /// What it returned.
    pub outcome: Outcome,
}

impl ClientOp {
    /// The version the operation saw or wrote; a miss sees 0.
    fn seen(&self) -> u64 {
        match self.outcome {
            Outcome::Version(v) => v,
            _ => 0,
        }
    }
}

impl std::fmt::Display for ClientOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.client {
            READ_BACK => f.write_str("the read-back")?,
            client => write!(f, "client {client}")?,
        }
        f.write_str(if self.write { " wrote " } else { " read " })?;
        match self.outcome {
            Outcome::Miss => f.write_str("a miss")?,
            _ => write!(f, "v{}", self.seen())?,
        }
        write!(f, " [{}, {}]", self.invoked, self.completed)
    }
}

/// One recorded event: a kind stamped with virtual time. The sequence
/// number is its index in the stream (emission order is deterministic).
#[derive(Debug, Clone, Copy)]
pub struct AuditEvent {
    /// Virtual time of the step.
    pub at: Nanos,
    /// Stream position.
    pub seq: u64,
    /// The step itself.
    pub kind: AuditKind,
}

/// One invariant violation, detected online at ingest time.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke (a name from [`invariants::NAMES`]).
    pub invariant: &'static str,
    /// Virtual time of the violating event.
    pub at: Nanos,
    /// Sequence number of the violating event (for `linearizable`, the
    /// stream's length then: client operations are not events).
    pub seq: u64,
    /// Human-readable description (integers only; deterministic).
    pub detail: String,
    /// Causal chain: sequence numbers of the events that led here, in
    /// causal order, ending with the violating event (empty for
    /// `linearizable`, whose detail names both operations).
    pub chain: Vec<u64>,
}

/// Summary of what the auditor has seen and checked.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events ingested.
    pub events: u64,
    /// Migration runs observed (admitted at a target).
    pub migrations_tracked: u64,
    /// Runs that committed with conservation fully verified.
    pub migrations_verified: u64,
    /// Runs abandoned (source died, rejected, superseded).
    pub migrations_abandoned: u64,
    /// Total violations across all invariants.
    pub violations: u64,
    /// Per-invariant `(name, checks_performed, violations)`.
    pub per_invariant: Vec<(&'static str, u64, u64)>,
}

// ------------------------------------------------------- auditor state --

/// One map-level ownership segment of a tablet's timeline.
#[derive(Debug, Clone, Copy)]
struct OwnerSegment {
    from: Nanos,
    owner: ServerId,
    /// "normal" | "migrating" | "baseline" | "recovering".
    state: &'static str,
}

/// Per-tablet reconstruction: map-level owner history plus the live
/// node-level serving set.
#[derive(Debug, Clone)]
struct TabletTrack {
    table: TableId,
    range: HashRange,
    opened: Nanos,
    closed: Option<Nanos>,
    segments: Vec<OwnerSegment>,
    /// Servers currently claiming serving authority (sorted).
    serving: Vec<ServerId>,
    /// Open dual-serving window: `(migration, source, opened_seq)`.
    window: Option<(MigrationId, ServerId, u64)>,
}

impl TabletTrack {
    fn push_segment(&mut self, at: Nanos, owner: ServerId, state: &'static str) {
        if let Some(last) = self.segments.last() {
            if last.owner == owner && last.state == state {
                return;
            }
        }
        self.segments.push(OwnerSegment {
            from: at,
            owner,
            state,
        });
    }
}

/// Per-migration causal + conservation bookkeeping.
#[derive(Debug, Clone)]
struct MigTrack {
    table: TableId,
    range: HashRange,
    source: ServerId,
    target: ServerId,
    /// Whether a `MigrationAdmitted` (or `MigrationStart`) filled in the
    /// endpoint fields above.
    admitted: bool,
    admitted_at: Nanos,
    ended_at: Option<Nanos>,
    /// 0 in-flight, 1 committed, 2 abandoned.
    outcome: u8,
    verified: bool,
    gathered_bulk: u64,
    gathered_prio: u64,
    pulls: u64,
    priority_pulls: u64,
    replay_batches: u64,
    replay_received: u64,
    replay_applied: u64,
    // Causal-chain anchors (event seqs).
    rebalance_seq: Option<u64>,
    admitted_seq: u64,
    prepare_seq: Option<u64>,
    started_seq: Option<u64>,
    lineage_seq: Option<u64>,
    finished_seq: Option<u64>,
    abandoned_seq: Option<u64>,
    commit_seq: Option<u64>,
    drop_seq: Option<u64>,
}

impl Default for MigTrack {
    fn default() -> Self {
        MigTrack {
            table: TableId(0),
            range: HashRange::empty(),
            source: ServerId(u32::MAX),
            target: ServerId(u32::MAX),
            admitted: false,
            admitted_at: 0,
            ended_at: None,
            outcome: 0,
            verified: false,
            gathered_bulk: 0,
            gathered_prio: 0,
            pulls: 0,
            priority_pulls: 0,
            replay_batches: 0,
            replay_received: 0,
            replay_applied: 0,
            rebalance_seq: None,
            admitted_seq: 0,
            prepare_seq: None,
            started_seq: None,
            lineage_seq: None,
            finished_seq: None,
            abandoned_seq: None,
            commit_seq: None,
            drop_seq: None,
        }
    }
}

impl MigTrack {
    fn outcome_label(&self) -> &'static str {
        match self.outcome {
            1 => "committed",
            2 => "abandoned",
            _ => "in-flight",
        }
    }

    fn origin(&self) -> &'static str {
        if self.rebalance_seq.is_some() {
            "rebalancer"
        } else {
            "scripted"
        }
    }

    fn superseded(&self) -> u64 {
        self.replay_received.saturating_sub(self.replay_applied)
    }

    /// The control-plane chain (no data-plane noise), in causal order.
    fn chain(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut push = |s: Option<u64>| {
            if let Some(s) = s {
                out.push(s);
            }
        };
        push(self.rebalance_seq);
        push(Some(self.admitted_seq));
        push(self.prepare_seq);
        push(self.lineage_seq);
        push(self.started_seq);
        push(self.finished_seq);
        push(self.abandoned_seq);
        push(self.commit_seq);
        push(self.drop_seq);
        out
    }
}

/// Who did one operation and when: a [`ClientOp`] less what the entry
/// holding it already says (its key, its version, whether it wrote).
#[derive(Debug, Clone, Copy)]
struct Stamp {
    client: u64,
    invoked: Nanos,
    completed: Nanos,
}

impl Stamp {
    fn of(op: &ClientOp) -> Stamp {
        Stamp {
            client: op.client,
            invoked: op.invoked,
            completed: op.completed,
        }
    }

    /// The operation on `hash` that this stamp and `write`, `version`
    /// complete.
    fn op(self, hash: KeyHash, write: bool, version: u64) -> ClientOp {
        ClientOp {
            client: self.client,
            hash,
            write,
            invoked: self.invoked,
            completed: self.completed,
            outcome: Outcome::Version(version),
        }
    }
}

/// The answered write behind a version, once one is known.
#[derive(Debug, Clone, Copy)]
enum Writer {
    /// None yet: every operation with this version so far read it.
    Unknown,
    /// The version's first operation was its write.
    First,
    /// A later operation wrote it.
    Later(Stamp),
}

/// One version (never 0) a key's client history has seen.
#[derive(Debug, Clone, Copy)]
struct Seen {
    version: u64,
    /// The first operation to complete with this version.
    first: Stamp,
    writer: Writer,
}

impl Seen {
    /// The first operation to complete with this version.
    fn first(&self, hash: KeyHash) -> ClientOp {
        let write = matches!(self.writer, Writer::First);
        self.first.op(hash, write, self.version)
    }

    /// The answered write that produced this version, once one has.
    fn writer(&self, hash: KeyHash) -> Option<ClientOp> {
        match self.writer {
            Writer::Unknown => None,
            Writer::First => Some(self.first(hash)),
            Writer::Later(stamp) => Some(stamp.op(hash, true, self.version)),
        }
    }
}

/// A [`Seen`] whose writer, if known, is its first operation: all a key
/// that has seen one version usually needs, in 40 B rather than 64.
#[derive(Debug, Clone, Copy)]
struct Only {
    version: u64,
    first: Stamp,
    wrote: bool,
}

impl Only {
    /// The version `op` is the first to complete with.
    fn of(op: &ClientOp) -> Only {
        Only {
            version: op.seen(),
            first: Stamp::of(op),
            wrote: op.write,
        }
    }

    fn seen(self) -> Seen {
        Seen {
            version: self.version,
            first: self.first,
            writer: if self.wrote {
                Writer::First
            } else {
                Writer::Unknown
            },
        }
    }
}

/// One key's client history, folded to what `linearizable` needs: one
/// entry per version seen, so it grows with answered writes, not with
/// operations. Most keys only ever see one version, which their table
/// slot holds; a second version, a second writer or an indeterminate
/// write moves the history to the heap.
#[derive(Debug, Default)]
enum KeyHistory {
    #[default]
    Empty,
    One(Only),
    Many {
        /// By version.
        seen: Vec<Seen>,
        /// Writes that may have applied, each with a version nobody
        /// knows.
        indeterminate: usize,
    },
}

impl KeyHistory {
    /// The versions seen, by version; `one` is room for an only
    /// version's [`Seen`].
    fn seen<'a>(&'a self, one: &'a mut Option<Seen>) -> &'a [Seen] {
        match self {
            KeyHistory::Empty => &[],
            KeyHistory::One(only) => std::slice::from_ref(one.insert(only.seen())),
            KeyHistory::Many { seen, .. } => seen,
        }
    }

    fn indeterminate(&self) -> usize {
        match self {
            KeyHistory::Many { indeterminate, .. } => *indeterminate,
            _ => 0,
        }
    }

    /// The history's versions and indeterminate writes, moved to the
    /// heap first if the slot held them.
    fn many(&mut self) -> (&mut Vec<Seen>, &mut usize) {
        if let KeyHistory::Empty | KeyHistory::One(_) = self {
            let mut seen = Vec::with_capacity(2);
            if let KeyHistory::One(only) = self {
                seen.push(only.seen());
            }
            *self = KeyHistory::Many {
                seen,
                indeterminate: 0,
            };
        }
        let KeyHistory::Many {
            seen,
            indeterminate,
        } = self
        else {
            unreachable!("the history was just moved to the heap")
        };
        (seen, indeterminate)
    }
}

/// The online checker: ingests each event as it is emitted and records
/// violations immediately, with the causal chain that led there.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    tablets: Vec<TabletTrack>,
    /// Live tablet index by exact `(table, start, end)`.
    live: BTreeMap<(u64, u64, u64), usize>,
    migs: BTreeMap<u64, MigTrack>,
    /// Live lineage deps: id -> (source, target, added_seq).
    lineage: BTreeMap<u64, (ServerId, ServerId, u64)>,
    /// Last floor sample per server: (floor, seq).
    floors: BTreeMap<u32, (u64, u64)>,
    /// Client history per key hash: probed once per operation and
    /// walked once, in hash order, at [`InvariantAuditor::end_history`].
    keys: FxHashMap<KeyHash, KeyHistory>,
    /// Pending rebalancer admissions: migration id -> seq.
    rebalance_admits: BTreeMap<u64, u64>,
    checked: [u64; 5],
    violated: [u64; 5],
    violations: Vec<Violation>,
}

impl InvariantAuditor {
    fn live_idx(&self, table: TableId, range: HashRange) -> Option<usize> {
        self.live.get(&(table.0, range.start, range.end)).copied()
    }

    fn violate(&mut self, inv: usize, at: Nanos, seq: u64, detail: String, mut chain: Vec<u64>) {
        self.violated[inv] += 1;
        if chain.last() != Some(&seq) {
            chain.push(seq);
        }
        self.violations.push(Violation {
            invariant: invariants::NAMES[inv],
            at,
            seq,
            detail,
            chain,
        });
    }

    /// Enforces the serving-set cardinality rule on tablet `idx` after a
    /// mutation: more than one server is legal only inside an open dual
    /// window (and then exactly two).
    fn check_serving(&mut self, idx: usize, at: Nanos, seq: u64, extra_chain: Vec<u64>) {
        self.checked[invariants::SINGLE_OWNER] += 1;
        let t = &self.tablets[idx];
        let n = t.serving.len();
        let windowed = t.window.is_some();
        if n > 2 || (n == 2 && !windowed) {
            let servers: Vec<String> = t.serving.iter().map(|s| s.0.to_string()).collect();
            let (table, range) = (t.table, t.range);
            self.violate(
                invariants::SINGLE_OWNER,
                at,
                seq,
                format!(
                    "{} servers [{}] authoritative for table {} range [{:#x}, {:#x}] outside a dual-serving window",
                    n,
                    servers.join(" "),
                    table.0,
                    range.start,
                    range.end
                ),
                extra_chain,
            );
            // Reset to the most recent claimant so one bug does not
            // cascade into a violation per subsequent event.
            let keep = *self.tablets[idx].serving.last().expect("n > 0");
            self.tablets[idx].serving = vec![keep];
            self.tablets[idx].window = None;
        }
    }

    fn ingest(&mut self, ev: &AuditEvent) {
        let (at, seq) = (ev.at, ev.seq);
        match ev.kind {
            AuditKind::TabletCreated {
                table,
                range,
                owner,
            } => {
                let idx = self.tablets.len();
                self.tablets.push(TabletTrack {
                    table,
                    range,
                    opened: at,
                    closed: None,
                    segments: vec![OwnerSegment {
                        from: at,
                        owner,
                        state: "normal",
                    }],
                    serving: vec![owner],
                    window: None,
                });
                self.live.insert((table.0, range.start, range.end), idx);
            }
            AuditKind::TabletSplit { table, at: split } => {
                let found = self
                    .tablets
                    .iter()
                    .enumerate()
                    .find(|(i, t)| {
                        t.closed.is_none()
                            && t.table == table
                            && t.range.contains(split)
                            && t.range.start < split
                            && self.live.get(&(table.0, t.range.start, t.range.end)) == Some(i)
                    })
                    .map(|(i, _)| i);
                let Some(idx) = found else { return };
                let parent = self.tablets[idx].clone();
                self.tablets[idx].closed = Some(at);
                self.live
                    .remove(&(table.0, parent.range.start, parent.range.end));
                for range in [
                    HashRange {
                        start: parent.range.start,
                        end: split - 1,
                    },
                    HashRange {
                        start: split,
                        end: parent.range.end,
                    },
                ] {
                    let child = self.tablets.len();
                    let mut segs = Vec::new();
                    if let Some(last) = parent.segments.last() {
                        segs.push(OwnerSegment { from: at, ..*last });
                    }
                    self.tablets.push(TabletTrack {
                        table,
                        range,
                        opened: at,
                        closed: None,
                        segments: segs,
                        serving: parent.serving.clone(),
                        window: parent.window,
                    });
                    self.live.insert((table.0, range.start, range.end), child);
                }
            }
            AuditKind::MigrationAdmitted {
                id,
                table,
                range,
                source,
                target,
            } => {
                let rebalance_seq = self.rebalance_admits.get(&id.0).copied();
                self.migs.entry(id.0).or_default();
                let m = self.migs.get_mut(&id.0).expect("inserted above");
                m.table = table;
                m.range = range;
                m.source = source;
                m.target = target;
                m.admitted = true;
                m.admitted_at = at;
                m.admitted_seq = seq;
                m.rebalance_seq = rebalance_seq;
                if let Some(idx) = self.live_idx(table, range) {
                    let window_clash = self.tablets[idx].window;
                    if let Some((other, _, other_seq)) = window_clash {
                        self.violate(
                            invariants::SINGLE_OWNER,
                            at,
                            seq,
                            format!(
                                "migration {} admitted while migration {} still holds the dual-serving window on table {} range [{:#x}, {:#x}]",
                                id.0, other.0, table.0, range.start, range.end
                            ),
                            vec![other_seq],
                        );
                    }
                    let t = &mut self.tablets[idx];
                    if !t.serving.contains(&target) {
                        t.serving.push(target);
                        t.serving.sort();
                    }
                    if t.serving.len() >= 2 && t.window.is_none() {
                        t.window = Some((id, source, seq));
                    }
                    self.check_serving(idx, at, seq, vec![seq]);
                }
            }
            AuditKind::NodeRelease {
                server,
                table,
                range,
                via,
            } => {
                if let Some(idx) = self.live_idx(table, range) {
                    let t = &mut self.tablets[idx];
                    t.serving.retain(|s| *s != server);
                    if let Some((mid, src, _)) = t.window {
                        if src == server {
                            t.window = None;
                            if let Some(m) = self.migs.get_mut(&mid.0) {
                                if via == ReleaseVia::PrepareFlip {
                                    m.prepare_seq = Some(seq);
                                }
                            }
                        }
                    }
                    self.check_serving(idx, at, seq, vec![seq]);
                }
            }
            AuditKind::NodeClaim {
                server,
                table,
                range,
            } => {
                if let Some(idx) = self.live_idx(table, range) {
                    let t = &mut self.tablets[idx];
                    if !t.serving.contains(&server) {
                        t.serving.push(server);
                        t.serving.sort();
                    }
                    t.push_segment(at, server, "normal");
                    self.check_serving(idx, at, seq, vec![seq]);
                }
            }
            AuditKind::MigrationStart {
                id,
                table,
                range,
                source,
                target,
            } => {
                let m = self.migs.entry(id.0).or_default();
                m.started_seq = Some(seq);
                if !m.admitted {
                    m.table = table;
                    m.range = range;
                    m.source = source;
                    m.target = target;
                    m.admitted = true;
                    m.admitted_at = at;
                    m.admitted_seq = seq;
                }
                if let Some(idx) = self.live_idx(table, range) {
                    self.tablets[idx].push_segment(at, target, "migrating");
                }
            }
            AuditKind::MigrationCommit { id, table, range } => {
                let chain = self.migs.get(&id.0).map(|m| m.chain()).unwrap_or_default();
                if let Some(m) = self.migs.get_mut(&id.0) {
                    m.commit_seq = Some(seq);
                }
                // Lineage "created before use": the commit is the use.
                self.checked[invariants::LINEAGE] += 1;
                if !self.lineage.contains_key(&id.0) {
                    self.violate(
                        invariants::LINEAGE,
                        at,
                        seq,
                        format!(
                            "migration {} committed with no live lineage dependency",
                            id.0
                        ),
                        chain,
                    );
                }
                if let Some(idx) = self.live_idx(table, range) {
                    let owner = self.tablets[idx]
                        .segments
                        .last()
                        .map(|s| s.owner)
                        .unwrap_or(ServerId(0));
                    self.tablets[idx].push_segment(at, owner, "normal");
                }
            }
            AuditKind::BaselineFlip {
                table,
                range,
                source,
                target,
            } => {
                if let Some(idx) = self.live_idx(table, range) {
                    let t = &mut self.tablets[idx];
                    t.serving.retain(|s| *s != source);
                    if !t.serving.contains(&target) {
                        t.serving.push(target);
                        t.serving.sort();
                    }
                    t.push_segment(at, target, "normal");
                    self.check_serving(idx, at, seq, vec![seq]);
                }
            }
            AuditKind::LineageAdded { id, source, target } => {
                self.checked[invariants::LINEAGE] += 1;
                if self.lineage.contains_key(&id.0) {
                    let prior = self.lineage[&id.0].2;
                    self.violate(
                        invariants::LINEAGE,
                        at,
                        seq,
                        format!("lineage dependency for migration {} added twice", id.0),
                        vec![prior],
                    );
                }
                self.lineage.insert(id.0, (source, target, seq));
                if let Some(m) = self.migs.get_mut(&id.0) {
                    m.lineage_seq = Some(seq);
                }
            }
            AuditKind::LineageDropped { id } => {
                self.checked[invariants::LINEAGE] += 1;
                match self.lineage.remove(&id.0) {
                    Some(_) => {
                        if let Some(m) = self.migs.get_mut(&id.0) {
                            m.drop_seq = Some(seq);
                        }
                    }
                    None => {
                        let chain = self.migs.get(&id.0).map(|m| m.chain()).unwrap_or_default();
                        self.violate(
                            invariants::LINEAGE,
                            at,
                            seq,
                            format!(
                                "lineage dependency for migration {} dropped without being live (never created, or dropped twice)",
                                id.0
                            ),
                            chain,
                        );
                    }
                }
            }
            AuditKind::ServerCrashed { server } => {
                // Fully-dropped-on-crash: by the time the crash event
                // lands (it follows the plan's LineageDropped events), no
                // live dep may involve the dead server.
                self.checked[invariants::LINEAGE] += 1;
                let stale: Vec<(u64, u64)> = self
                    .lineage
                    .iter()
                    .filter(|(_, (s, t, _))| *s == server || *t == server)
                    .map(|(id, (_, _, added))| (*id, *added))
                    .collect();
                for (id, added) in stale {
                    self.violate(
                        invariants::LINEAGE,
                        at,
                        seq,
                        format!(
                            "lineage dependency for migration {} still live after crash of server {}",
                            id, server.0
                        ),
                        vec![added],
                    );
                    self.lineage.remove(&id);
                }
                // The dead server stops serving everything; windows it
                // participated in close with it.
                for idx in 0..self.tablets.len() {
                    if self.tablets[idx].closed.is_some() {
                        continue;
                    }
                    self.tablets[idx].serving.retain(|s| *s != server);
                    if let Some((mid, src, _)) = self.tablets[idx].window {
                        let target = self.migs.get(&mid.0).map(|m| m.target);
                        if src == server || target == Some(server) {
                            self.tablets[idx].window = None;
                        }
                    }
                }
            }
            AuditKind::RecoveryPlanned {
                table,
                range,
                recovery_master,
            } => {
                if let Some(idx) = self.live_idx(table, range) {
                    self.tablets[idx].push_segment(at, recovery_master, "recovering");
                }
            }
            AuditKind::VersionFloor { server, floor } => {
                self.checked[invariants::VERSION_FLOOR] += 1;
                if let Some(&(prev, prev_seq)) = self.floors.get(&server.0) {
                    if floor < prev {
                        self.violate(
                            invariants::VERSION_FLOOR,
                            at,
                            seq,
                            format!(
                                "version floor on server {} regressed from {} to {}",
                                server.0, prev, floor
                            ),
                            vec![prev_seq],
                        );
                    }
                }
                self.floors.insert(server.0, (floor, seq));
            }
            AuditKind::Gathered {
                id,
                records,
                priority,
            } => {
                let m = self.migs.entry(id.0).or_default();
                if priority {
                    m.gathered_prio += records;
                    m.priority_pulls += 1;
                } else {
                    m.gathered_bulk += records;
                    m.pulls += 1;
                }
            }
            AuditKind::Replayed {
                id,
                received,
                applied,
            } => {
                let m = self.migs.entry(id.0).or_default();
                m.replay_batches += 1;
                m.replay_received += received;
                m.replay_applied += applied;
            }
            AuditKind::PriorityServed { .. } => {}
            AuditKind::MigrationFinished {
                id,
                pull_records,
                priority_records,
            } => {
                // Conservation: everything gathered was fed to replay,
                // and the event-accumulated gather counts agree with the
                // manager's own totals.
                self.checked[invariants::CONSERVATION] += 1;
                let (detail, chain, ok) = {
                    let m = self.migs.entry(id.0).or_default();
                    m.finished_seq = Some(seq);
                    m.ended_at = Some(at);
                    m.outcome = 1;
                    let gathered = m.gathered_bulk + m.gathered_prio;
                    let ok = m.gathered_bulk == pull_records
                        && m.gathered_prio == priority_records
                        && m.replay_received == gathered
                        && m.replay_applied <= m.replay_received;
                    m.verified = ok;
                    (
                        format!(
                            "migration {}: gathered {} (bulk {} vs manager {}, priority {} vs manager {}) but replay received {} applied {}",
                            id.0,
                            gathered,
                            m.gathered_bulk,
                            pull_records,
                            m.gathered_prio,
                            priority_records,
                            m.replay_received,
                            m.replay_applied
                        ),
                        m.chain(),
                        ok,
                    )
                };
                if !ok {
                    self.violate(invariants::CONSERVATION, at, seq, detail, chain);
                }
                // The dual window must have closed before the commit: a
                // source that never stopped serving is a split brain.
                let (range, table, chain2) = {
                    let m = &self.migs[&id.0];
                    (m.range, m.table, m.chain())
                };
                if let Some(idx) = self.live_idx(table, range) {
                    self.checked[invariants::SINGLE_OWNER] += 1;
                    let open = self.tablets[idx].window.filter(|(mid, _, _)| *mid == id);
                    if let Some((_, src, wseq)) = open {
                        let mut chain = chain2;
                        chain.push(wseq);
                        self.violate(
                            invariants::SINGLE_OWNER,
                            at,
                            seq,
                            format!(
                                "migration {} committed while source {} never released table {} range [{:#x}, {:#x}]: dual-serving window still open",
                                id.0, src.0, table.0, range.start, range.end
                            ),
                            chain,
                        );
                        let t = &mut self.tablets[idx];
                        t.window = None;
                        t.serving.retain(|s| *s != src);
                    }
                }
            }
            AuditKind::MigrationAbandoned { id } => {
                let m = self.migs.entry(id.0).or_default();
                m.abandoned_seq = Some(seq);
                m.ended_at = Some(at);
                m.outcome = 2;
            }
            AuditKind::RebalanceAdmitted { id } => {
                self.rebalance_admits.insert(id.0, seq);
            }
        }
    }

    /// `linearizable`, per key, with operations arriving in completion
    /// order and versions as the read-mapping (so no search: Gibbons &
    /// Korach): an operation invoked after another completed sees at
    /// least that one's version — a write a greater one — and no two
    /// answered writes share a version. `seq` is the event stream's
    /// length: client operations are not events, so violations carry
    /// no chain and name both operations in their detail.
    fn client_op(&mut self, seq: u64, op: ClientOp) {
        self.checked[invariants::LINEARIZABLE] += 1;
        let h = self.keys.entry(op.hash).or_default();
        if op.outcome == Outcome::Indeterminate {
            *h.many().1 += 1;
            return;
        }
        let (v, mut found, mut one) = (op.seen(), Vec::new(), None);
        let seen = h.seen(&mut one);
        // The highest version some operation had completed with when this
        // one was invoked. From the top, the walk passes only versions
        // first seen while this operation was in flight.
        if let Some(prior) = seen.iter().rev().find(|p| p.first.completed <= op.invoked) {
            if v < prior.version || (op.write && v == prior.version) {
                found.push((op.hash, format!("{op} after {}", prior.first(op.hash))));
            }
        }
        match seen.binary_search_by_key(&v, |s| s.version) {
            Ok(i) if op.write => match seen[i].writer(op.hash) {
                Some(w) => found.push((op.hash, format!("{op} and {w} share a version"))),
                None => h.many().0[i].writer = Writer::Later(Stamp::of(&op)),
            },
            Err(i) if v > 0 => match h {
                KeyHistory::Empty => *h = KeyHistory::One(Only::of(&op)),
                _ => h.many().0.insert(i, Only::of(&op).seen()),
            },
            _ => {}
        }
        self.client_violations(op.completed, seq, found);
    }

    /// The rest of `linearizable`, once every operation is in (writes
    /// still in flight as indeterminate): each version a read returned
    /// was written by an answered or an indeterminate write, or is the
    /// key's one preloaded version, below every answered write's.
    fn end_history(&mut self, at: Nanos, seq: u64) {
        let mut found = Vec::new();
        for (&hash, h) in &self.keys {
            let mut one = None;
            let seen = h.seen(&mut one);
            let unwritten = seen.iter().filter(|s| matches!(s.writer, Writer::Unknown));
            let unwritten: Vec<ClientOp> = unwritten.map(|s| s.first(hash)).collect();
            // Indeterminate writes explain the highest of them; the
            // lowest is the one that may be preloaded.
            let left = &unwritten[..unwritten.len().saturating_sub(h.indeterminate())];
            match (left, seen.iter().find_map(|s| s.writer(hash))) {
                ([a, b, ..], _) => found.push((hash, format!("no write explains {a} or {b}"))),
                ([r], Some(w)) if r.seen() > w.seen() => {
                    found.push((hash, format!("no write explains {r}, above {w}")))
                }
                _ => {}
            }
        }
        // The table's order is its hasher's; the report's is the hash's.
        found.sort_unstable_by_key(|&(hash, _)| hash);
        self.client_violations(at, seq, found);
    }

    fn client_violations(&mut self, at: Nanos, seq: u64, found: Vec<(KeyHash, String)>) {
        for (hash, detail) in found {
            self.violated[invariants::LINEARIZABLE] += 1;
            self.violations.push(Violation {
                invariant: invariants::NAMES[invariants::LINEARIZABLE],
                at,
                seq,
                detail: format!("hash {hash:#x}: {detail}"),
                chain: Vec::new(),
            });
        }
    }
}

// ------------------------------------------------------------ the sink --

/// Per-invariant metrics published into the shared registry (armed
/// clusters only; see `ClusterConfig::audit`).
#[derive(Debug, Clone)]
struct AuditMetrics {
    events: Counter,
    verified: Counter,
    violations: [Counter; 5],
}

/// Everything behind an armed sink: the event log, the online checker,
/// and (optionally) registered summary counters.
#[derive(Debug, Default)]
struct AuditCore {
    /// In ring mode the log keeps a suffix; an event's `seq` is still
    /// its absolute position in the stream, so chains recorded by the
    /// online checker stay stable — an evicted event keeps its seq in
    /// chain output but loses its detail.
    events: Ring<AuditEvent>,
    auditor: InvariantAuditor,
    metrics: Option<AuditMetrics>,
}

impl AuditCore {
    fn report(&self) -> AuditReport {
        let a = &self.auditor;
        let migs = || a.migs.values();
        AuditReport {
            events: self.events.total(),
            migrations_tracked: a.migs.len() as u64,
            migrations_verified: migs().filter(|m| m.outcome == 1 && m.verified).count() as u64,
            migrations_abandoned: migs().filter(|m| m.outcome == 2).count() as u64,
            violations: a.violations.len() as u64,
            per_invariant: invariants::NAMES
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, a.checked[i], a.violated[i]))
                .collect(),
        }
    }

    fn write_chain(&self, w: &mut JsonWriter, chain: &[u64]) {
        w.arr();
        for seq in chain {
            w.obj().field("seq", seq);
            if let Some(ev) = self.events.get(*seq) {
                w.field("at", ev.at).field("event", ev.kind.label());
            }
            w.end_obj();
        }
        w.end_arr();
    }
}

/// Shared handle to the audit stream. Cloning shares the buffer; a
/// disarmed sink ([`AuditSink::off`]) is `None` and every call is one
/// branch.
#[derive(Debug, Clone, Default)]
pub struct AuditSink(Option<Rc<RefCell<AuditCore>>>);

impl AuditSink {
    /// A disarmed sink: every emit is a single branch.
    pub fn off() -> Self {
        AuditSink(None)
    }

    /// An armed sink with a fresh shared buffer and checker.
    pub fn armed() -> Self {
        AuditSink(Some(Rc::new(RefCell::new(AuditCore::default()))))
    }

    /// An armed sink in **ring mode**: the event buffer is a
    /// [`Ring::with_capacity`], evictions are counted in
    /// [`AuditSink::dropped`]. The online checker keeps its full state
    /// (it folds events as they arrive), so invariant checking is
    /// unaffected — only the forensic event detail of dropped events is
    /// lost.
    pub fn with_capacity(capacity: usize) -> Self {
        AuditSink(Some(Rc::new(RefCell::new(AuditCore {
            events: Ring::with_capacity(capacity),
            ..AuditCore::default()
        }))))
    }

    /// Events discarded by ring compaction (0 when unbounded or off).
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.borrow().events.dropped())
    }

    /// Whether the sink records. Guard payload construction with this.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Registers the summary counters (`audit_events_total`,
    /// `audit_violations_total{invariant=...}`,
    /// `audit_migrations_verified_total`) in `reg` and keeps updating
    /// them on every ingest. No-op when disarmed.
    pub fn register_metrics(&self, reg: &Registry) {
        let Some(core) = &self.0 else { return };
        let violations = std::array::from_fn(|i| {
            reg.counter(
                "audit_violations_total",
                "Protocol-invariant violations detected by the auditor",
                &[("invariant", invariants::NAMES[i].to_string())],
            )
        });
        core.borrow_mut().metrics = Some(AuditMetrics {
            events: reg.counter(
                "audit_events_total",
                "Audit events ingested by the invariant auditor",
                &[],
            ),
            verified: reg.counter(
                "audit_migrations_verified_total",
                "Migrations that committed with record conservation verified",
                &[],
            ),
            violations,
        });
    }

    /// Runs `check` on an armed sink and counts the violations it found
    /// into the metrics. A disarmed sink returns immediately.
    fn check(&self, check: impl FnOnce(&mut AuditCore)) {
        let Some(core) = &self.0 else { return };
        let mut core = core.borrow_mut();
        let before = core.auditor.violations.len();
        check(&mut core);
        if let Some(m) = &core.metrics {
            for v in &core.auditor.violations[before..] {
                let idx = invariants::NAMES
                    .iter()
                    .position(|n| *n == v.invariant)
                    .expect("known invariant");
                m.violations[idx].inc();
            }
        }
    }

    /// Records one event at virtual time `at` and runs the online checks.
    /// A disarmed sink returns immediately.
    pub fn emit(&self, at: Nanos, kind: AuditKind) {
        self.check(|core| {
            let seq = core.events.total();
            let ev = AuditEvent { at, seq, kind };
            core.events.push(ev);
            core.auditor.ingest(&ev);
            let verified = matches!(ev.kind, AuditKind::MigrationFinished { id, .. }
                if core.auditor.migs.get(&id.0).map(|m| m.verified) == Some(true));
            if let Some(m) = &core.metrics {
                m.events.inc();
                if verified {
                    m.verified.inc();
                }
            }
        });
    }

    /// Checks one completed client operation against its key's history
    /// (`linearizable`). Operations arrive in completion order and are
    /// not events: the stream and its ring never hold them.
    pub fn client_op(&self, op: ClientOp) {
        self.check(|core| core.auditor.client_op(core.events.total(), op));
    }

    /// Closes the client history at `at`, once every operation has been
    /// reported (writes still in flight as [`Outcome::Indeterminate`]):
    /// checks that each version a read returned was written.
    pub fn end_history(&self, at: Nanos) {
        self.check(|core| core.auditor.end_history(at, core.events.total()));
    }

    /// Number of events ingested so far, including any discarded by
    /// ring compaction (0 when disarmed).
    pub fn events_len(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.borrow().events.total())
    }

    /// All violations detected so far (empty when disarmed).
    pub fn violations(&self) -> Vec<Violation> {
        self.0
            .as_ref()
            .map(|c| c.borrow().auditor.violations.clone())
            .unwrap_or_default()
    }

    /// Summary of events, checks, and violations.
    pub fn report(&self) -> AuditReport {
        match &self.0 {
            Some(core) => core.borrow().report(),
            None => AuditCore::default().report(),
        }
    }

    /// Runs `f` over the recorded event stream (`None` when disarmed).
    pub fn with_events<R>(&self, f: impl FnOnce(&[AuditEvent]) -> R) -> Option<R> {
        self.0.as_ref().map(|c| f(c.borrow().events.as_slice()))
    }

    // ------------------------------------------------------ exporters --

    /// The full audit record as deterministic JSON (see
    /// `rocksteady_common::json`). `now` closes open timeline segments.
    pub fn export_json(&self, now: Nanos) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.obj().field("schema", "rocksteady-audit-v1");
        let Some(core) = &self.0 else {
            w.field("armed", 0u64).end_obj();
            return w.finish();
        };
        let core = core.borrow();
        let a = &core.auditor;
        let rep = core.report();
        w.field("armed", 1u64).field("now", now);
        w.key("summary")
            .obj()
            .field("events", rep.events)
            .field("migrations_tracked", rep.migrations_tracked)
            .field("migrations_verified", rep.migrations_verified)
            .field("migrations_abandoned", rep.migrations_abandoned)
            .field("violations", rep.violations)
            .field("dropped", core.events.dropped())
            .end_obj();
        w.key("invariants").arr();
        for (name, checked, violated) in &rep.per_invariant {
            w.obj()
                .field("name", name)
                .field("checked", checked)
                .field("violations", violated)
                .end_obj();
        }
        w.end_arr().key("migrations").arr();
        for (id, m) in &a.migs {
            w.obj()
                .field("id", id)
                .field("table", m.table.0)
                .field("start", m.range.start)
                .field("end", m.range.end)
                .field("source", m.source.0)
                .field("target", m.target.0)
                .field("admitted_at", m.admitted_at)
                .field("ended_at", m.ended_at.unwrap_or(0))
                .field("outcome", m.outcome_label())
                .field("origin", m.origin())
                .field("gathered", m.gathered_bulk + m.gathered_prio)
                .field("replay_received", m.replay_received)
                .field("replay_applied", m.replay_applied)
                .field("superseded", m.superseded())
                .field("verified", m.verified)
                .end_obj();
        }
        w.end_arr().key("timeline").arr();
        let mut order: Vec<&TabletTrack> = a.tablets.iter().collect();
        order.sort_by_key(|t| (t.table.0, t.range.start, t.opened, t.range.end));
        for t in order {
            w.obj()
                .field("table", t.table.0)
                .field("start", t.range.start)
                .field("end", t.range.end)
                .field("opened", t.opened)
                .field("closed", t.closed.unwrap_or(now))
                .key("segments")
                .arr();
            for (j, s) in t.segments.iter().enumerate() {
                let next = t.segments.get(j + 1).map(|n| n.from);
                w.obj()
                    .field("from", s.from)
                    .field("to", next.or(t.closed).unwrap_or(now))
                    .field("owner", s.owner.0)
                    .field("state", s.state)
                    .end_obj();
            }
            w.end_arr().end_obj();
        }
        w.end_arr().key("violations").arr();
        for v in &a.violations {
            w.obj()
                .field("invariant", v.invariant)
                .field("at", v.at)
                .field("seq", v.seq)
                .field("detail", &v.detail)
                .key("chain");
            core.write_chain(&mut w, &v.chain);
            w.end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }

    // -------------------------------------------------- explain engine --

    /// Walks migration `id`'s causal chain — rebalancer decision (if
    /// any), admission, prepare flip, lineage, registration, pull/replay
    /// pressure, and outcome — as deterministic JSON. `None` when the
    /// sink is disarmed or the id was never seen.
    pub fn explain_migration(&self, id: MigrationId) -> Option<String> {
        let core = self.0.as_ref()?.borrow();
        let m = core.auditor.migs.get(&id.0)?;
        let mut w = JsonWriter::new();
        w.obj()
            .field("kind", "migration")
            .field("id", id.0)
            .field("outcome", m.outcome_label())
            .field("origin", m.origin())
            .field("verified", m.verified)
            .field("source", m.source.0)
            .field("target", m.target.0)
            .key("chain");
        core.write_chain(&mut w, &m.chain());
        w.key("pressure")
            .obj()
            .field("pulls", m.pulls)
            .field("pull_records", m.gathered_bulk)
            .field("priority_pulls", m.priority_pulls)
            .field("priority_records", m.gathered_prio)
            .field("replay_batches", m.replay_batches)
            .field("replay_applied", m.replay_applied)
            .field("superseded", m.superseded())
            .end_obj()
            .end_obj();
        Some(w.finish())
    }

    /// Ranks the causes active during an SLO-breach interval `[from,
    /// to]`: migrations whose run overlapped the window (scored by
    /// overlap duration and replay pressure inside it, with their full
    /// causal chain back to the rebalancer decision that admitted them)
    /// and server crashes. Deterministic JSON; `None` when disarmed or
    /// when no audited cause overlapped the window at all.
    pub fn explain_slo_breach(&self, from: Nanos, to: Nanos) -> Option<String> {
        let core = self.0.as_ref()?.borrow();
        let (core, a) = (&*core, &core.auditor);
        let events = core.events.as_slice();
        // Ranked by (score desc, seq asc), all integer math; each cause
        // carries the writer of its own fields.
        type WriteCause<'a> = Box<dyn Fn(&mut JsonWriter) + 'a>;
        let mut causes: Vec<(u64, u64, WriteCause<'_>)> = Vec::new();
        for (&id, m) in &a.migs {
            let end = m.ended_at.unwrap_or(to);
            let begin = m.admitted_at;
            let overlap = end.min(to).saturating_sub(begin.max(from));
            if overlap == 0 || begin > to || end < from {
                continue;
            }
            let replayed_in_window: u64 = events
                .iter()
                .filter(|ev| ev.at >= from && ev.at <= to)
                .filter_map(|ev| match ev.kind {
                    AuditKind::Replayed {
                        id: rid, received, ..
                    } if rid.0 == id => Some(received),
                    _ => None,
                })
                .sum();
            // Replay pressure dominates; overlap breaks ties in µs.
            let score = replayed_in_window * 1_000 + overlap / 1_000;
            let write = move |w: &mut JsonWriter| {
                w.field("cause", "migration")
                    .field("id", id)
                    .field("origin", m.origin())
                    .field("overlap_ns", overlap)
                    .field("replayed_in_window", replayed_in_window)
                    .field("score", score)
                    .key("chain");
                core.write_chain(w, &m.chain());
            };
            causes.push((score, m.admitted_seq, Box::new(write)));
        }
        // A crash shortly before or inside the window dominates any
        // migration-pressure explanation.
        let margin = to.saturating_sub(from);
        for ev in events {
            if let AuditKind::ServerCrashed { server } = ev.kind {
                if ev.at >= from.saturating_sub(margin) && ev.at <= to {
                    let score = u64::MAX / 2;
                    let write = move |w: &mut JsonWriter| {
                        w.field("cause", "crash")
                            .field("server", server.0)
                            .field("at", ev.at)
                            .field("score", score)
                            .key("chain");
                        core.write_chain(w, &[ev.seq]);
                    };
                    causes.push((score, ev.seq, Box::new(write)));
                }
            }
        }
        if causes.is_empty() {
            return None;
        }
        causes.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        let mut w = JsonWriter::new();
        w.obj()
            .field("kind", "slo-breach")
            .field("from", from)
            .field("to", to)
            .key("causes")
            .arr();
        for (i, (_, _, write_cause)) in causes.iter().enumerate() {
            w.obj().field("rank", i + 1);
            write_cause(&mut w);
            w.end_obj();
        }
        w.end_arr().end_obj();
        Some(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);
    const FULL: HashRange = HashRange {
        start: 0,
        end: u64::MAX,
    };
    const M: MigrationId = MigrationId(7);
    const S0: ServerId = ServerId(0);
    const S1: ServerId = ServerId(1);
    const S2: ServerId = ServerId(2);

    fn clean_migration(sink: &AuditSink) {
        sink.emit(
            0,
            AuditKind::TabletCreated {
                table: T,
                range: FULL,
                owner: S0,
            },
        );
        sink.emit(
            10,
            AuditKind::MigrationAdmitted {
                id: M,
                table: T,
                range: FULL,
                source: S0,
                target: S1,
            },
        );
        sink.emit(
            20,
            AuditKind::NodeRelease {
                server: S0,
                table: T,
                range: FULL,
                via: ReleaseVia::PrepareFlip,
            },
        );
        sink.emit(
            25,
            AuditKind::LineageAdded {
                id: M,
                source: S0,
                target: S1,
            },
        );
        sink.emit(
            30,
            AuditKind::MigrationStart {
                id: M,
                table: T,
                range: FULL,
                source: S0,
                target: S1,
            },
        );
        sink.emit(
            40,
            AuditKind::Gathered {
                id: M,
                records: 90,
                priority: false,
            },
        );
        sink.emit(
            41,
            AuditKind::Gathered {
                id: M,
                records: 10,
                priority: true,
            },
        );
        sink.emit(
            50,
            AuditKind::Replayed {
                id: M,
                received: 10,
                applied: 10,
            },
        );
        sink.emit(
            55,
            AuditKind::Replayed {
                id: M,
                received: 90,
                applied: 85,
            },
        );
        sink.emit(
            60,
            AuditKind::MigrationFinished {
                id: M,
                pull_records: 90,
                priority_records: 10,
            },
        );
        sink.emit(
            70,
            AuditKind::MigrationCommit {
                id: M,
                table: T,
                range: FULL,
            },
        );
        sink.emit(70, AuditKind::LineageDropped { id: M });
    }

    #[test]
    fn clean_run_verifies_with_zero_violations() {
        let sink = AuditSink::armed();
        clean_migration(&sink);
        let rep = sink.report();
        assert_eq!(rep.violations, 0, "{:?}", sink.violations());
        assert_eq!(rep.migrations_verified, 1);
        assert_eq!(rep.migrations_tracked, 1);
        for (name, checked, violated) in &rep.per_invariant {
            assert_eq!(*violated, 0, "{name}");
            if *name != "version-floor" && *name != "linearizable" {
                assert!(*checked > 0, "{name} never checked");
            }
        }
    }

    #[test]
    fn ring_mode_bounds_buffer_but_keeps_checker_state() {
        let sink = AuditSink::with_capacity(4);
        clean_migration(&sink);
        assert!(sink.dropped() > 0, "ring never wrapped");
        sink.with_events(|e| assert!(e.len() <= 4)).unwrap();
        // Total-ingested accounting survives compaction...
        let unbounded = AuditSink::armed();
        clean_migration(&unbounded);
        assert_eq!(sink.events_len(), unbounded.events_len());
        // ...and so does the online checker: the migration still
        // verifies even though the early events were discarded.
        let rep = sink.report();
        assert_eq!(rep.violations, 0, "{:?}", sink.violations());
        assert_eq!(rep.migrations_verified, 1);
        // Seq numbers in the surviving suffix line up with the drop
        // offset, and the export declares the drops.
        sink.with_events(|e| {
            for (i, ev) in e.iter().enumerate() {
                assert_eq!(ev.seq, sink.dropped() + i as u64);
            }
        })
        .unwrap();
        let json = sink.export_json(100);
        assert!(
            json.contains(&format!("\"dropped\":{}", sink.dropped())),
            "{json}"
        );
    }

    #[test]
    fn chain_json_tolerates_dropped_prefix() {
        // A violation whose chain references dropped events must still
        // export (seq present, detail omitted).
        let sink = AuditSink::with_capacity(2);
        clean_migration(&sink);
        // Fabricate a chain spanning dropped and surviving seqs via the
        // explain path: exporting the full JSON exercises chain_json on
        // every migration chain.
        let json = sink.export_json(100);
        assert!(json.contains("\"schema\":\"rocksteady-audit-v1\""));
        assert!(json.contains("\"armed\":1"));
    }

    #[test]
    fn disarmed_sink_records_nothing() {
        let sink = AuditSink::off();
        clean_migration(&sink);
        assert!(!sink.is_on());
        assert_eq!(sink.events_len(), 0);
        assert_eq!(sink.report().violations, 0);
        assert!(sink.explain_migration(M).is_none());
    }

    #[test]
    fn single_owner_violation_when_source_never_flips() {
        let sink = AuditSink::armed();
        sink.emit(
            0,
            AuditKind::TabletCreated {
                table: T,
                range: FULL,
                owner: S0,
            },
        );
        sink.emit(
            10,
            AuditKind::MigrationAdmitted {
                id: M,
                table: T,
                range: FULL,
                source: S0,
                target: S1,
            },
        );
        // No PrepareFlip release: the dual window never closes.
        sink.emit(
            60,
            AuditKind::MigrationFinished {
                id: M,
                pull_records: 0,
                priority_records: 0,
            },
        );
        let v = sink.violations();
        assert!(
            v.iter().any(|v| v.invariant == "single-owner"),
            "no single-owner violation: {v:?}"
        );
        let so = v.iter().find(|v| v.invariant == "single-owner").unwrap();
        assert!(
            so.chain.len() >= 2,
            "causal chain too short: {:?}",
            so.chain
        );
    }

    #[test]
    fn single_owner_violation_on_third_claimant() {
        let sink = AuditSink::armed();
        sink.emit(
            0,
            AuditKind::TabletCreated {
                table: T,
                range: FULL,
                owner: S0,
            },
        );
        sink.emit(
            10,
            AuditKind::MigrationAdmitted {
                id: M,
                table: T,
                range: FULL,
                source: S0,
                target: S1,
            },
        );
        sink.emit(
            15,
            AuditKind::NodeClaim {
                server: S2,
                table: T,
                range: FULL,
            },
        );
        assert!(sink
            .violations()
            .iter()
            .any(|v| v.invariant == "single-owner"));
    }

    #[test]
    fn version_floor_regression_fires() {
        let sink = AuditSink::armed();
        sink.emit(
            1,
            AuditKind::VersionFloor {
                server: S0,
                floor: 100,
            },
        );
        sink.emit(
            2,
            AuditKind::VersionFloor {
                server: S0,
                floor: 100,
            },
        );
        sink.emit(
            3,
            AuditKind::VersionFloor {
                server: S1,
                floor: 5,
            },
        );
        assert_eq!(sink.report().violations, 0);
        sink.emit(
            4,
            AuditKind::VersionFloor {
                server: S0,
                floor: 99,
            },
        );
        let v = sink.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "version-floor");
        assert_eq!(v[0].chain, vec![1, 3]);
    }

    #[test]
    fn conservation_violation_on_lost_records() {
        let sink = AuditSink::armed();
        sink.emit(
            0,
            AuditKind::TabletCreated {
                table: T,
                range: FULL,
                owner: S0,
            },
        );
        sink.emit(
            10,
            AuditKind::MigrationAdmitted {
                id: M,
                table: T,
                range: FULL,
                source: S0,
                target: S1,
            },
        );
        sink.emit(
            20,
            AuditKind::NodeRelease {
                server: S0,
                table: T,
                range: FULL,
                via: ReleaseVia::PrepareFlip,
            },
        );
        sink.emit(
            40,
            AuditKind::Gathered {
                id: M,
                records: 100,
                priority: false,
            },
        );
        sink.emit(
            50,
            AuditKind::Replayed {
                id: M,
                received: 90,
                applied: 90,
            },
        );
        sink.emit(
            60,
            AuditKind::MigrationFinished {
                id: M,
                pull_records: 100,
                priority_records: 0,
            },
        );
        let v = sink.violations();
        assert!(v.iter().any(|v| v.invariant == "conservation"), "{v:?}");
        assert_eq!(sink.report().migrations_verified, 0);
    }

    #[test]
    fn lineage_lifecycle_violations_fire() {
        let sink = AuditSink::armed();
        // Dropped before created.
        sink.emit(5, AuditKind::LineageDropped { id: M });
        // Created, then still live at the owner's crash.
        sink.emit(
            10,
            AuditKind::LineageAdded {
                id: MigrationId(8),
                source: S0,
                target: S1,
            },
        );
        sink.emit(20, AuditKind::ServerCrashed { server: S1 });
        let v = sink.violations();
        assert_eq!(v.iter().filter(|v| v.invariant == "lineage").count(), 2);
        // Crash processing removed the stale dep: a later crash is clean.
        sink.emit(30, AuditKind::ServerCrashed { server: S0 });
        assert_eq!(sink.violations().len(), 2);
    }

    /// An operation of `client` on key 0xabc (preloaded at v3) over
    /// `[invoked, completed]` that saw `v`; 0 is a read's miss and a
    /// write's unknown version.
    fn op(client: u64, write: bool, invoked: Nanos, completed: Nanos, v: u64) -> ClientOp {
        let outcome = match (v, write) {
            (0, false) => Outcome::Miss,
            (0, true) => Outcome::Indeterminate,
            _ => Outcome::Version(v),
        };
        let hash = 0xabc;
        ClientOp {
            client,
            hash,
            write,
            invoked,
            completed,
            outcome,
        }
    }

    fn read(client: u64, invoked: Nanos, completed: Nanos, v: u64) -> ClientOp {
        op(client, false, invoked, completed, v)
    }

    fn write(client: u64, invoked: Nanos, completed: Nanos, v: u64) -> ClientOp {
        op(client, true, invoked, completed, v)
    }

    /// What `linearizable` says of `ops`, fed in completion order to a
    /// fresh sink, once the history ends.
    fn history(ops: &[ClientOp]) -> Vec<String> {
        let sink = AuditSink::armed();
        ops.iter().for_each(|op| sink.client_op(*op));
        sink.end_history(1_000);
        let v = sink.violations();
        assert!(v.iter().all(|v| v.invariant == "linearizable"));
        assert_eq!(
            sink.report().per_invariant[invariants::LINEARIZABLE],
            ("linearizable", ops.len() as u64, v.len() as u64)
        );
        let detail = |v: Violation| v.detail.strip_prefix("hash 0xabc: ").map(String::from);
        v.into_iter()
            .map(|v| detail(v).expect("names the key"))
            .collect()
    }

    #[test]
    fn a_stale_read_after_an_answered_write_fires() {
        let found = history(&[
            read(1, 0, 10, 3),
            write(1, 20, 30, 10),
            read(2, 40, 50, 3),
            read(2, 60, 70, 0),
            read(READ_BACK, 90, 90, 3),
        ]);
        assert_eq!(
            found,
            [
                "client 2 read v3 [40, 50] after client 1 wrote v10 [20, 30]",
                "client 2 read a miss [60, 70] after client 1 wrote v10 [20, 30]",
                "the read-back read v3 [90, 90] after client 1 wrote v10 [20, 30]",
            ]
        );
    }

    #[test]
    fn a_read_that_goes_backwards_after_another_read_fires() {
        // Both reads overlap the write; the second began after the first
        // had seen v10, so it may not see v3.
        let found = history(&[
            read(2, 10, 20, 10),
            read(3, 30, 40, 3),
            write(1, 0, 100, 10),
        ]);
        assert_eq!(
            found,
            ["client 3 read v3 [30, 40] after client 2 read v10 [10, 20]"]
        );
    }

    #[test]
    fn a_duplicate_write_version_fires() {
        let found = history(&[write(1, 0, 10, 10), write(2, 5, 15, 10)]);
        assert_eq!(
            found,
            ["client 2 wrote v10 [5, 15] and client 1 wrote v10 [0, 10] share a version"]
        );
    }

    #[test]
    fn write_versions_out_of_real_time_order_fire() {
        let found = history(&[
            write(1, 0, 10, 20),
            write(2, 20, 30, 15),
            read(3, 40, 50, 25),
            write(4, 60, 70, 25),
        ]);
        assert_eq!(
            found,
            [
                "client 2 wrote v15 [20, 30] after client 1 wrote v20 [0, 10]",
                "client 4 wrote v25 [60, 70] after client 3 read v25 [40, 50]",
            ]
        );
    }

    #[test]
    fn a_version_no_write_explains_fires() {
        let found = history(&[write(1, 0, 10, 10), read(2, 20, 30, 15)]);
        assert_eq!(
            found,
            ["no write explains client 2 read v15 [20, 30], above client 1 wrote v10 [0, 10]"]
        );
    }

    /// Keys found at the history's end are reported in hash order,
    /// whatever order their table holds them in.
    #[test]
    fn unexplained_versions_at_the_end_are_reported_by_hash() {
        let sink = AuditSink::armed();
        for hash in [0xf00, 0xabc, 0xdef] {
            sink.client_op(ClientOp {
                hash,
                ..read(1, 0, 10, 3)
            });
            sink.client_op(ClientOp {
                hash,
                ..read(2, 20, 30, 4)
            });
        }
        sink.end_history(1_000);
        let hashes: Vec<String> = sink
            .violations()
            .into_iter()
            .map(|v| v.detail[..10].to_string())
            .collect();
        assert_eq!(hashes, ["hash 0xabc", "hash 0xdef", "hash 0xf00"]);
    }

    #[test]
    fn a_second_unexplained_version_on_one_key_fires() {
        let found = history(&[read(1, 0, 10, 3), read(2, 20, 30, 4)]);
        assert_eq!(
            found,
            ["no write explains client 1 read v3 [0, 10] or client 2 read v4 [20, 30]"]
        );
    }

    #[test]
    fn overlapping_operations_may_return_either_version() {
        let found = history(&[
            read(2, 10, 20, 3),
            read(3, 15, 25, 10),
            read(4, 18, 30, 3),
            read(5, 50, 60, 10),
            write(2, 50, 70, 20),
            read(6, 60, 80, 10),
            write(1, 0, 100, 10),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    /// A key that has seen one version holds it in its table slot: 48 B
    /// in all, where a slot of 40 B pointed at 112 B on the heap; a
    /// second version moves the history to the heap, and the checks
    /// read the same either way.
    #[test]
    fn a_one_version_key_history_lives_in_its_slot() {
        assert_eq!(std::mem::size_of::<(KeyHash, KeyHistory)>(), 48);
        let mut auditor = InvariantAuditor::default();
        auditor.client_op(0, read(1, 0, 10, 3));
        auditor.client_op(0, read(2, 20, 30, 3));
        let h = &auditor.keys[&0xabc];
        assert!(matches!(h, KeyHistory::One(_)), "{h:?}");
        auditor.client_op(0, write(3, 40, 50, 10));
        auditor.client_op(0, read(4, 60, 70, 3));
        let h = &auditor.keys[&0xabc];
        assert!(
            matches!(h, KeyHistory::Many { seen, .. } if seen.len() == 2),
            "{h:?}"
        );
        assert_eq!(
            auditor.violations[0].detail,
            "hash 0xabc: client 4 read v3 [60, 70] after client 3 wrote v10 [40, 50]"
        );
    }

    #[test]
    fn a_timed_out_writes_version_may_be_read() {
        let found = history(&[
            read(3, 0, 5, 3),
            write(1, 0, 10, 0),
            read(2, 20, 30, 15),
            write(1, 40, 50, 20),
            // Still in flight when the run ended; the read-back sees it.
            write(4, 60, 90, 0),
            read(READ_BACK, 90, 90, 25),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn explain_migration_walks_the_chain() {
        let sink = AuditSink::armed();
        clean_migration(&sink);
        let j = sink.explain_migration(M).unwrap();
        assert!(j.contains("\"outcome\":\"committed\""));
        assert!(j.contains("\"verified\":1"));
        assert!(j.contains("migration-admitted"));
        assert!(j.contains("migration-commit"));
        assert!(j.contains("\"pull_records\":90"));
        assert!(sink.explain_migration(MigrationId(999)).is_none());
    }

    #[test]
    fn explain_breach_ranks_crash_over_migration() {
        let sink = AuditSink::armed();
        clean_migration(&sink);
        sink.emit(45, AuditKind::ServerCrashed { server: S2 });
        let j = sink.explain_slo_breach(35, 65).unwrap();
        let crash = j.find("\"cause\":\"crash\"").unwrap();
        let mig = j.find("\"cause\":\"migration\"").unwrap();
        assert!(crash < mig, "crash should rank first: {j}");
        assert!(j.contains("\"rank\":1"));
    }

    #[test]
    fn exports_are_deterministic_and_structured() {
        let build = || {
            let sink = AuditSink::armed();
            clean_migration(&sink);
            sink.export_json(100)
        };
        let j1 = build();
        assert_eq!(j1, build());
        assert!(j1.starts_with("{\"schema\":\"rocksteady-audit-v1\""));
        assert!(j1.contains("\"violations\":[]"));
        assert!(j1.contains("\"timeline\":["));
        assert!(j1.contains("\"source\":0,\"target\":1,"));
    }

    #[test]
    fn split_propagates_timeline_state() {
        let sink = AuditSink::armed();
        sink.emit(
            0,
            AuditKind::TabletCreated {
                table: T,
                range: FULL,
                owner: S0,
            },
        );
        let mid = u64::MAX / 2 + 1;
        sink.emit(5, AuditKind::TabletSplit { table: T, at: mid });
        let upper = HashRange {
            start: mid,
            end: u64::MAX,
        };
        sink.emit(
            10,
            AuditKind::MigrationAdmitted {
                id: M,
                table: T,
                range: upper,
                source: S0,
                target: S1,
            },
        );
        sink.emit(
            20,
            AuditKind::NodeRelease {
                server: S0,
                table: T,
                range: upper,
                via: ReleaseVia::PrepareFlip,
            },
        );
        sink.emit(
            60,
            AuditKind::MigrationFinished {
                id: M,
                pull_records: 0,
                priority_records: 0,
            },
        );
        assert_eq!(sink.report().violations, 0, "{:?}", sink.violations());
        let json = sink.export_json(100);
        // Three timeline entries: the parent (closed) and two children.
        assert_eq!(json.matches("\"opened\":").count(), 3);
    }

    #[test]
    fn metrics_counters_track_the_verdict() {
        let reg = Registry::new();
        let sink = AuditSink::armed();
        sink.register_metrics(&reg);
        clean_migration(&sink);
        sink.emit(
            80,
            AuditKind::VersionFloor {
                server: S0,
                floor: 10,
            },
        );
        sink.emit(
            81,
            AuditKind::VersionFloor {
                server: S0,
                floor: 9,
            },
        );
        let json = reg.snapshot(100).to_json();
        assert!(json.contains("audit_events_total"));
        assert!(json.contains(
            r#"{"name":"audit_violations_total","labels":{"invariant":"version-floor"},"type":"counter","value":1}"#
        ));
        assert!(json
            .contains(r#"{"name":"audit_migrations_verified_total","type":"counter","value":1}"#));
    }
}
