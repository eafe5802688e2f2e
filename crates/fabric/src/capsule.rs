//! NVMe-oF command and response capsules.
//!
//! A command capsule carries the NVMe submission-queue entry plus the
//! scatter-gather list; a response capsule carries the completion-queue
//! entry. Gimbal repurposes the completion's *first reservation field* to
//! piggyback credit grants back to the initiator (§3.6), so
//! [`NvmeCompletion`] carries an optional credit value.

use crate::types::{CmdId, IoType, Priority, SsdId, TenantId, BLOCK_SIZE};
use gimbal_sim::SimTime;

/// Wire size of a command capsule without inline data: 64 B SQE + 16 B SGL
/// descriptor + transport framing.
pub const CMD_CAPSULE_BYTES: u64 = 96;
/// Wire size of a response capsule: 16 B CQE + transport framing.
pub const RSP_CAPSULE_BYTES: u64 = 32;

/// An NVMe IO command as submitted by an initiator over the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmeCmd {
    /// Unique command identifier.
    pub id: CmdId,
    /// The tenant (qpair) this command belongs to.
    pub tenant: TenantId,
    /// Target SSD (namespace) behind the storage node.
    pub ssd: SsdId,
    /// Read or write.
    pub opcode: IoType,
    /// Starting logical block address (in [`BLOCK_SIZE`] units).
    pub lba: u64,
    /// Length in bytes; must be a positive multiple of [`BLOCK_SIZE`].
    pub len: u32,
    /// Client-assigned priority tag (§3.5).
    pub priority: Priority,
    /// Instant the initiator issued the command (for end-to-end latency).
    pub issued_at: SimTime,
    /// Write-ahead-log ordering tag: `Some(seq)` when this write carries
    /// LSM WAL data whose durability order matters. A write-back cache must
    /// flush WAL-tagged lines in `seq` order ahead of data lines; `None`
    /// for everything else (reads, data writes, schemes without an LSM).
    pub wal: Option<u64>,
}

impl NvmeCmd {
    /// Number of logical blocks spanned.
    #[inline]
    pub(crate) fn blocks(&self) -> u64 {
        debug_assert!(self.len > 0 && u64::from(self.len) % BLOCK_SIZE == 0);
        u64::from(self.len) / BLOCK_SIZE
    }

    /// Length in bytes as `u64`.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        u64::from(self.len)
    }

    /// One-past-the-end LBA.
    #[inline]
    pub fn lba_end(&self) -> u64 {
        self.lba + self.blocks()
    }
}

/// Completion status. The model has no media errors by default; failure
/// injection (flash die failure, §4.3 replication experiments) produces
/// [`CmdStatus::DeviceError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmdStatus {
    /// Command completed successfully.
    Success,
    /// Device-level failure (injected flash failure).
    DeviceError,
    /// The target rejected the command (e.g. credit protocol violation).
    Busy,
}

impl CmdStatus {
    /// Whether the command succeeded.
    pub fn is_success(self) -> bool {
        matches!(self, CmdStatus::Success)
    }
}

/// An NVMe completion travelling back to the initiator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NvmeCompletion {
    /// Identifier of the completed command.
    pub id: CmdId,
    /// Tenant the command belonged to.
    pub tenant: TenantId,
    /// SSD that executed it.
    pub ssd: SsdId,
    /// The original opcode.
    pub opcode: IoType,
    /// The original length in bytes.
    pub len: u32,
    /// Completion status.
    pub status: CmdStatus,
    /// Credit grant piggybacked in the CQE's first reservation field
    /// (§3.6). `None` for schemes without credit-based flow control.
    pub credit: Option<u32>,
    /// Instant the initiator issued the command.
    pub issued_at: SimTime,
    /// Instant the completion capsule was generated at the target.
    pub completed_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(len: u32) -> NvmeCmd {
        NvmeCmd {
            id: CmdId(1),
            tenant: TenantId(0),
            ssd: SsdId(0),
            opcode: IoType::Read,
            lba: 8,
            len,
            priority: Priority::NORMAL,
            issued_at: SimTime::from_micros(5),
            wal: None,
        }
    }

    #[test]
    fn block_math() {
        let c = cmd(128 * 1024);
        assert_eq!(c.blocks(), 32);
        assert_eq!(c.lba_end(), 40);
        assert_eq!(c.len_bytes(), 131072);
    }

    #[test]
    fn completion_latency() {
        let c = NvmeCompletion {
            id: CmdId(1),
            tenant: TenantId(0),
            ssd: SsdId(0),
            opcode: IoType::Write,
            len: 4096,
            status: CmdStatus::Success,
            credit: Some(16),
            issued_at: SimTime::from_micros(10),
            completed_at: SimTime::from_micros(95),
        };
        assert!(c.status.is_success());
    }
}
