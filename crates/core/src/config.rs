//! Migration protocol knobs.

use rocksteady_common::Nanos;

/// Configuration of one Rocksteady migration (defaults are the paper's
/// evaluation settings, §4.1).
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Number of disjoint source hash-space partitions, each with one
    /// Pull outstanding (§3.1.1). "A small constant factor more
    /// partitions than worker cores is sufficient"; the paper uses 8.
    pub partitions: usize,
    /// Bytes of records each Pull returns (§3.1.1; the paper uses 20 KB —
    /// small enough to keep source workers' tasks short, large enough to
    /// amortize RPC dispatch).
    pub pull_budget_bytes: u32,
    /// Maximum records per PriorityPull batch (§4.1 uses 16).
    pub priority_pull_batch: usize,
    /// Whether PriorityPulls are issued at all (`false` reproduces the
    /// Figure 9b/10b "No Priority Pulls" variant).
    pub priority_pulls: bool,
    /// Use the naïve synchronous single-key PriorityPull instead of the
    /// asynchronous batched one (the Figure 13b/14b comparison).
    pub sync_priority_pulls: bool,
    /// Issue bulk background Pulls at all. Figures 13/14 study
    /// PriorityPulls in isolation by disabling them.
    pub background_pulls: bool,
    /// Base back-off the target suggests to clients whose record hasn't
    /// arrived ("retry after randomly waiting a few tens of
    /// microseconds", §3); the server adds random jitter up to this
    /// amount again.
    pub retry_after_ns: Nanos,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            partitions: 8,
            pull_budget_bytes: 20_000,
            priority_pull_batch: 16,
            priority_pulls: true,
            sync_priority_pulls: false,
            background_pulls: true,
            retry_after_ns: 30_000,
        }
    }
}

/// Why a server is asking the client to come back later. Each cause
/// maps to a distinct base hint; keeping the mapping here (rather than
/// scattered through the server) is what guarantees every retry path
/// hints consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// Read missed a not-yet-migrated record and a PriorityPull is on
    /// its way: "retry after the time when the target expects it will
    /// have the value" (§3) — one PriorityPull round trip.
    MissPriorityPull,
    /// Read missed but PriorityPulls are disabled (Figure 9b/10b): the
    /// record only arrives with the bulk pulls, so the hint is
    /// correspondingly longer.
    MissBulkOnly,
    /// The range is mid crash-recovery; replaying the replicated log
    /// takes several pull round trips.
    Recovering,
    /// A peer the operation depended on just died; back off while the
    /// coordinator's recovery plan lands.
    SourceFailover,
}

impl MigrationConfig {
    /// Base retry hint for `cause`, before jitter. The server draws
    /// jitter uniformly in `[0, base/2)` and sends `base + jitter`, so
    /// the hint lands in `[base, 1.5·base)` — synchronized clients
    /// spread out without doubling the documented mean.
    pub fn retry_base(&self, cause: RetryCause) -> Nanos {
        match cause {
            RetryCause::MissPriorityPull => self.retry_after_ns,
            RetryCause::MissBulkOnly => self.retry_after_ns * 20,
            RetryCause::Recovering => self.retry_after_ns * 4,
            RetryCause::SourceFailover => self.retry_after_ns,
        }
    }
}
