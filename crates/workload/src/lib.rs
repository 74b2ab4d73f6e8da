//! Simulated clients: YCSB, multiget-spread, and index-scan workloads.
//!
//! The paper's evaluation drives the cluster with three client shapes,
//! all implemented here as simulation actors:
//!
//! - [`ycsb::YcsbClient`] — YCSB-B (95% reads / 5% writes, Zipfian keys,
//!   §4.1) offered as a *nearly open* load: arrivals are Poisson at a
//!   configured rate, with a bounded number outstanding so a stalled
//!   cluster backlogs rather than generating unbounded virtual state.
//!   Used by Figures 9–14.
//! - [`spread::SpreadClient`] — the Figure 3 microbenchmark: 7-key
//!   multigets split across a configurable number of servers,
//!   issued back-to-back (closed loop).
//! - [`scan::ScanClient`] — the Figure 4 workload: short secondary-index
//!   range scans (Zipfian start key, θ = 0.5) followed by multi-gets of
//!   the returned primary hashes.
//!
//! All clients share [`core::ClientCore`]: tablet-map caching with
//! refresh-on-`UnknownTablet` (exactly how RAMCloud clients chase a
//! migrated tablet, §3) and RPC-id allocation. [`ycsb::YcsbClient`]
//! adds back-off on `Retry` responses and RPC timeouts for crash tests;
//! [`stats::ClientStats`] records latencies into per-interval
//! [`TimeSeries`](rocksteady_common::TimeSeries).

pub mod core;
pub mod scan;
pub mod shape;
pub mod spread;
pub mod stats;
pub mod ycsb;

pub use crate::core::ClientCore;
pub use scan::{ScanClient, ScanConfig};
pub use shape::{hash_bucket, LoadShape};
pub use spread::{SpreadClient, SpreadConfig};
pub use stats::{client_stats, registered_client_stats, ClientStats, ClientStatsHandle};
pub use ycsb::{YcsbClient, YcsbConfig};
