//! Identifiers and primitive protocol types shared across the workspace.

use std::fmt;

/// Logical block size in bytes. The NVMe namespaces in this model are
/// formatted with 4 KiB sectors (the mapping granularity of the modeled FTL
/// and the paper's smallest IO unit).
pub const BLOCK_SIZE: u64 = 4096;

/// The de-facto maximum IO size of the NVMe-oF implementation (§4.2): 128 KiB.
/// Also the virtual-slot size of Gimbal's scheduler.
pub const MAX_IO_BYTES: u64 = 128 * 1024;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A tenant: one (RDMA qpair, NVMe qpair) pairing at the target, i.e. one
    /// remote storage client stream (§3.1).
    TenantId,
    u32
);
id_type!(
    /// An NVMe SSD behind a JBOF node.
    SsdId,
    u32
);
id_type!(
    /// A machine (client server or JBOF storage node).
    NodeId,
    u32
);
id_type!(
    /// A command identifier, unique per experiment run.
    CmdId,
    u64
);

/// NVMe IO opcode, restricted to the data-path commands the paper studies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoType {
    /// NVMe Read.
    Read,
    /// NVMe Write.
    Write,
}

impl IoType {
    /// Dense index for per-type state arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            IoType::Read => 0,
            IoType::Write => 1,
        }
    }

    /// Whether this is a read.
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, IoType::Read)
    }

    /// Whether this is a write.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, IoType::Write)
    }
}

impl fmt::Display for IoType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoType::Read => "read",
            IoType::Write => "write",
        })
    }
}

/// Client-assigned request priority carried over NVMe-oF (§3.5, "per-tenant
/// priority queues"). Lower value = more urgent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub u8);

impl Priority {
    /// Highest urgency (latency-sensitive requests).
    pub const HIGH: Priority = Priority(0);
    /// Normal urgency.
    pub const NORMAL: Priority = Priority(1);
    /// Lowest urgency (bulk/throughput-oriented requests).
    pub const LOW: Priority = Priority(2);
    /// Number of distinct priority levels.
    pub const LEVELS: usize = 3;
    /// Weight of each level, indexed by its value (HIGH, NORMAL, LOW): the
    /// weighted round-robin across a tenant's priority queues (§3.5), and
    /// the cost-weighted shares of the NIC-DRAM cache partitions.
    pub const WEIGHTS: [u32; Priority::LEVELS] = [4, 2, 1];
}

const _: () =
    assert!(Priority::WEIGHTS[0] > 0 && Priority::WEIGHTS[1] > 0 && Priority::WEIGHTS[2] > 0);

#[cfg(test)]
impl IoType {
    /// Iterate over both opcodes (handy for per-type state arrays).
    pub(crate) const BOTH: [IoType; 2] = [IoType::Read, IoType::Write];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_types_behave() {
        let t = TenantId(3);
        assert_eq!(t.index(), 3);
        assert_eq!(format!("{t}"), "3");
        assert_eq!(format!("{t:?}"), "TenantId(3)");
        assert_eq!(TenantId::from(3), t);
        assert!(TenantId(1) < TenantId(2));
    }

    #[test]
    fn io_type_indexing() {
        assert_eq!(IoType::Read.index(), 0);
        assert_eq!(IoType::Write.index(), 1);
        assert!(IoType::Read.is_read());
        assert!(IoType::Write.is_write());
        assert_eq!(IoType::BOTH.len(), 2);
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::HIGH < Priority::NORMAL);
        assert!(Priority::NORMAL < Priority::LOW);
    }
}
