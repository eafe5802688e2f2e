//! The per-SSD virtual view (§3.7).
//!
//! Gimbal exposes a managed view of each SSD to its tenants: how much
//! read/write bandwidth headroom the device has and how many IOs the tenant
//! may keep outstanding (its credit). Applications build rate limiters, load
//! balancers, and IO schedulers on top — §4.3's RocksDB integration steers
//! reads to the replica whose SSD shows the most credit, and the blobstore
//! allocator picks the least-loaded backend the same way.
//!
//! No run path here reads the view (the blobstore and KV store read
//! headroom from their own limiters), so the module builds for its unit
//! tests only.

use gimbal_fabric::SsdId;

/// A snapshot of one SSD's virtual view as seen by one tenant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SsdVirtualView {
    /// The SSD this view describes.
    pub ssd: SsdId,
    /// Latest credit grant (outstanding-IO allowance) for this tenant.
    pub credit: u32,
    /// Estimated read bandwidth headroom, bytes/second.
    pub read_headroom_bps: f64,
    /// Estimated write bandwidth headroom, bytes/second.
    pub write_headroom_bps: f64,
    /// Current dynamic write cost.
    pub write_cost: f64,
}

impl SsdVirtualView {
    /// Construct a view from the switch's current control state.
    ///
    /// The target rate is the estimated total capacity; the dual token
    /// bucket splits it `wc/(1+wc)` : `1/(1+wc)` between reads and writes,
    /// so those shares are the per-direction headroom the client can plan
    /// against.
    pub(crate) fn from_control(ssd: SsdId, credit: u32, target_rate: f64, write_cost: f64) -> Self {
        let read_share = write_cost / (1.0 + write_cost);
        SsdVirtualView {
            ssd,
            credit,
            read_headroom_bps: target_rate * read_share,
            write_headroom_bps: target_rate * (1.0 - read_share),
            write_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headroom_splits_by_write_cost() {
        let v = SsdVirtualView::from_control(SsdId(0), 32, 1000.0, 3.0);
        assert!((v.read_headroom_bps - 750.0).abs() < 1e-9);
        assert!((v.write_headroom_bps - 250.0).abs() < 1e-9);
        assert_eq!(v.credit, 32);
    }

    #[test]
    fn parity_cost_splits_evenly() {
        let v = SsdVirtualView::from_control(SsdId(1), 8, 1000.0, 1.0);
        assert!((v.read_headroom_bps - v.write_headroom_bps).abs() < 1e-9);
    }
}
