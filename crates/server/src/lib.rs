//! The simulated RAMCloud server (Figure 1): dispatch core, worker
//! cores, priority queues, master + backup, and the migration hooks.
//!
//! [`node::ServerNode`] is one server of the simulated cluster. It
//! reproduces RAMCloud's threading model precisely, because that model is
//! what the paper's results hang on (§3.1):
//!
//! - **One dispatch core** polls the network. Every inbound message costs
//!   dispatch time ([`CostModel::dispatch_per_msg_ns`]); messages queue
//!   when the dispatch core is busy — this is the resource that saturates
//!   in Figure 3.
//! - **W worker cores** execute tasks non-preemptively. An arriving task
//!   runs immediately if a worker is idle; otherwise it waits in a strict
//!   priority FIFO (PriorityPull > client ops > replay > background
//!   Pulls, §3.1/§4.1).
//! - The **migration manager** runs as a dispatch continuation
//!   (§3.1.2): pull scoreboarding and replay scheduling charge dispatch
//!   time, and replay batches go only to idle workers (built-in flow
//!   control).
//! - The **replication manager** is a serialized resource with the
//!   ~380 MB/s ceiling measured in §2.3; the durable-write path holds its
//!   worker until all replicas ack, which is what makes writes 15 µs.
//!
//! The storage substrate underneath does real work; the node charges
//! virtual time for the [`Work`](rocksteady_master::Work) receipts.
//!
//! Approximations relative to real hardware, all of which bias
//! *against* Rocksteady or are timing-neutral:
//!
//! - A task's real data-structure work executes when the task is
//!   *assigned* to a worker; its outputs (responses, follow-up RPCs) are
//!   released when the modeled service time elapses. State is therefore
//!   never stale by more than one service time (≤ a few µs).
//! - A durable write may be acknowledged while a covering replication
//!   chunk that *another* write planned is still in flight. This is not
//!   harmless: if a backup crashes in that window, the acknowledged
//!   bytes are lost, which §3.4 rules out (durability gap 1 (a) in
//!   ROADMAP.md). A recovery master's answer waits only on chunks it
//!   planned itself: it commits the side logs holding what it replayed
//!   and plans their shipment in one step.
//! - A backup's death counts as an ack for every chunk in flight to it,
//!   so a write held for R acks can be answered on fewer, and its
//!   segments stay at R−1 replicas (gap 1 (c)).
//!
//! [`CostModel::dispatch_per_msg_ns`]: rocksteady_common::CostModel::dispatch_per_msg_ns

pub mod node;
mod recovery;
mod repl;
mod rpc;
mod sched;
pub mod stats;
mod telemetry;

use rocksteady_common::{CostModel, ServerId};
use rocksteady_master::MasterConfig;
use rocksteady_simnet::ActorId;

pub use node::ServerNode;
pub use stats::{MigrationRunStamps, NodeStats};

pub use rocksteady_simnet::Directory;

/// Configuration for one simulated server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server's id.
    pub id: ServerId,
    /// Worker cores (the paper's testbed uses 12; scaled-down tests use
    /// fewer).
    pub workers: usize,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// Master storage configuration.
    pub master: MasterConfig,
    /// Actor ids of the backups this master replicates to (normally the
    /// next `ClusterConfig::replicas` servers in the ring).
    pub backup_actors: Vec<ActorId>,
    /// Migration protocol knobs.
    pub migration: rocksteady::MigrationConfig,
    /// Run a log-cleaner pass this often as a background task (`None`
    /// disables cleaning). RAMCloud's cleaner runs continuously; §2.3
    /// stresses that migration must coexist with it.
    pub cleaner_interval: Option<rocksteady_common::Nanos>,
}

impl ServerConfig {
    /// A reasonable test configuration for server `id` with `workers`
    /// worker cores (backups must be wired afterwards).
    pub fn new(id: ServerId, workers: usize) -> Self {
        ServerConfig {
            id,
            workers,
            cost: CostModel::default(),
            master: MasterConfig {
                id,
                ..MasterConfig::default()
            },
            backup_actors: Vec::new(),
            migration: rocksteady::MigrationConfig::default(),
            cleaner_interval: None,
        }
    }
}
