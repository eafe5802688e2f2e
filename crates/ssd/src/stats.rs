//! Device-level statistics exposed by the SSD model.

use crate::ftl::FtlCounters;
use gimbal_sim::Digest;

/// Counters accumulated by a [`crate::FlashSsd`] since creation (or since the
/// last preconditioning, which resets them).
#[derive(Clone, Copy, Debug, Default)]
pub struct SsdStats {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Bytes of read payload returned.
    pub read_bytes: u64,
    /// Bytes of write payload accepted.
    pub write_bytes: u64,
    /// Read chunks served from the DRAM write buffer.
    pub buffer_read_hits: u64,
    /// Read chunks that required NAND access.
    pub nand_read_chunks: u64,
    /// Write IOs that had to wait for buffer space (buffer-full stalls).
    pub buffer_stalls: u64,
    /// Commands completed with an error status (injected transient faults
    /// plus everything after a permanent failure).
    pub failed_cmds: u64,
    /// Error completions caused by injected *transient* faults specifically.
    pub injected_transient_errors: u64,
    /// Commands whose service was deferred by an injected GC-storm stall
    /// window.
    pub stalled_cmds: u64,
    /// FTL counters (host/GC slot writes, erases, collections).
    pub ftl: FtlCounters,
}

impl SsdStats {
    /// Write amplification factor.
    pub fn write_amplification(&self) -> f64 {
        self.ftl.write_amplification()
    }

    /// Fold the traffic, buffer and FTL counters into a run digest, in
    /// declaration order. The fault counters (`failed_cmds`,
    /// `injected_transient_errors`, `stalled_cmds`) are not folded.
    pub fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.reads)
            .update_u64(self.writes)
            .update_u64(self.read_bytes)
            .update_u64(self.write_bytes)
            .update_u64(self.buffer_read_hits)
            .update_u64(self.nand_read_chunks)
            .update_u64(self.buffer_stalls)
            .update_u64(self.ftl.host_slot_writes)
            .update_u64(self.ftl.gc_slot_writes)
            .update_u64(self.ftl.erases)
            .update_u64(self.ftl.collections);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let mut s = SsdStats::default();
        s.ftl.host_slot_writes = 10;
        s.ftl.gc_slot_writes = 30;
        assert_eq!(s.write_amplification(), 4.0);
    }
}
