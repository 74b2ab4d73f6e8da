//! Work receipts: the real work an operation performed.
//!
//! The storage substrate executes for real; the simulator charges virtual
//! time for what actually happened. Every master operation fills in a
//! [`Work`] receipt — hash-table probes, bytes memcpy'd, bytes
//! checksummed, log entries scanned — and the server actor converts it to
//! nanoseconds through the calibrated
//! [`CostModel`].

use rocksteady_common::{CostModel, Nanos};

/// Counters of real work performed by one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Hash-table slots examined.
    pub probes: u64,
    /// Bytes copied through memory (staging, copy-out, log appends).
    pub copied_bytes: u64,
    /// Bytes checksummed (log-entry CRCs).
    pub checksummed_bytes: u64,
    /// Secondary-index entries visited or modified.
    pub index_entries: u64,
    /// Log entries examined by a sequential log scan (baseline
    /// migration, recovery replay input).
    pub scanned_entries: u64,
}

impl Work {
    /// Accumulates another receipt into this one.
    pub fn add(&mut self, other: &Work) {
        self.probes += other.probes;
        self.copied_bytes += other.copied_bytes;
        self.checksummed_bytes += other.checksummed_bytes;
        self.index_entries += other.index_entries;
        self.scanned_entries += other.scanned_entries;
    }

    /// Converts the receipt into worker-core nanoseconds under `m`.
    ///
    /// Fixed per-operation costs (dispatch, op setup, per-object service)
    /// are charged separately by the server; this covers only the
    /// data-proportional work.
    pub fn service_ns(&self, m: &CostModel) -> Nanos {
        self.probes * m.hash_probe_ns
            + m.copy_ns(self.copied_bytes)
            + m.checksum_ns(self.checksummed_bytes)
            + self.index_entries * m.index_scan_per_entry_ns
            + self.scanned_entries * m.log_scan_per_entry_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_every_field() {
        let mut a = Work {
            probes: 1,
            copied_bytes: 2,
            checksummed_bytes: 3,
            index_entries: 4,
            scanned_entries: 5,
        };
        a.add(&a.clone());
        assert_eq!(
            a,
            Work {
                probes: 2,
                copied_bytes: 4,
                checksummed_bytes: 6,
                index_entries: 8,
                scanned_entries: 10,
            }
        );
    }

    #[test]
    fn service_time_scales_with_work() {
        let m = CostModel::default();
        let small = Work {
            probes: 1,
            copied_bytes: 100,
            ..Work::default()
        };
        let big = Work {
            probes: 10,
            copied_bytes: 10_000,
            ..Work::default()
        };
        assert!(big.service_ns(&m) > small.service_ns(&m));
        assert_eq!(Work::default().service_ns(&m), 0);
    }
}
