//! Rocksteady: fast live migration for low-latency in-memory storage.
//!
//! This crate is the paper's primary contribution (Kulkarni et al.,
//! SOSP '17, §3): a migration protocol for RAMCloud-style in-memory
//! key-value stores that is
//!
//! - **target-driven**: the target pulls records, so the (likely
//!   overloaded) source keeps *no* migration state and sheds load from
//!   the very first moment;
//! - **immediate**: tablet ownership transfers at migration *start*;
//!   writes are serviced by the target right away, and reads of
//!   not-yet-arrived records trigger batched, de-duplicated
//!   [`PriorityPull`](priority::PriorityPullBatcher)s (§3.3);
//! - **parallel and pipelined**: the source's key-hash space is split
//!   into disjoint partitions with one scoreboarded Pull outstanding
//!   each (§3.1.1–§3.1.2), and completed pulls are replayed on any idle
//!   worker core into per-core side logs (§3.1.3);
//! - **replication-free on the fast path**: instead of synchronously
//!   re-replicating migrated data, the source takes a lineage dependency
//!   on the target's recovery-log tail, registered at the coordinator,
//!   and side logs are re-replicated lazily at commit (§3.4).
//!
//! The protocol logic is pure state machinery ([`manager::
//! MigrationManager`] emits [`manager::Action`]s); the simulated server
//! actor executes the actions (sends RPCs, schedules replay on idle
//! workers), which keeps every protocol decision unit-testable without a
//! cluster.
//!
//! The crate also implements the **baselines** the paper measures
//! against: RAMCloud's pre-existing source-driven migration with the
//! Figure 5 phase levers ([`baseline`]), the no-PriorityPull and
//! synchronous-PriorityPull variants ([`PriorityPulls`]), and
//! source-retains-ownership (baseline with replay + synchronous
//! re-replication, §4.2c).

pub mod baseline;
pub mod config;
pub mod manager;
pub mod priority;
pub mod source;

pub use baseline::{BaselineAction, BaselineMigration};
pub use config::{MigrationConfig, PriorityPulls, RetryCause, PULL_BUDGET_BYTES};
pub use manager::{Action, MigrationManager, MigrationPhase, MigrationStats, ReplayBatch};
pub use priority::{MissAnswer, PriorityPullBatcher};
