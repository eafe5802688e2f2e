//! Message-level network model for the RDMA fabric.
//!
//! Each node owns a transmit [`Port`]: a serialization resource with a
//! byte rate (100 Gbps by default, the testbed's link speed) and a
//! busy-until horizon. Propagation plus NIC/PCIe traversal is a constant
//! one-way delay. [`RdmaDelays`] composes these into the five-step
//! NVMe-over-RDMA request flow of §2.1:
//!
//! 1. initiator sends the command capsule (`RDMA_SEND`), small write
//!    payloads inlined;
//! 2. for non-inlined writes the target fetches the payload (`RDMA_READ`,
//!    costing one extra round trip plus serialization at the *initiator's*
//!    port);
//! 3. the SSD executes the command (modeled by `gimbal-ssd`);
//! 4. for reads the target pushes the payload back (`RDMA_WRITE`);
//! 5. the target sends the completion capsule (`RDMA_SEND`), into which
//!    Gimbal piggybacks credits.

use crate::capsule::{NvmeCmd, CMD_CAPSULE_BYTES, RSP_CAPSULE_BYTES};
use crate::types::IoType;
use gimbal_sim::{SimDuration, SimTime};

/// Fabric configuration.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// One-way propagation + NIC/PCIe traversal delay.
    pub propagation: SimDuration,
    /// Port line rate in bytes/second (100 Gbps ≈ 12.5 GB/s).
    pub port_bandwidth: u64,
    /// Write payloads up to this size ride inline in the command capsule,
    /// skipping the `RDMA_READ` round trip (§2.1 notes 4 KB inlining).
    pub inline_threshold: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            // Calibrated so an unloaded 4 KB remote read lands near the
            // paper's 75–90 µs once device time (~70 µs) is added.
            propagation: SimDuration::from_micros(2),
            port_bandwidth: 12_500_000_000,
            inline_threshold: 4096,
        }
    }
}

/// A transmit port: serializes outgoing messages at line rate.
#[derive(Clone, Debug)]
pub struct Port {
    bandwidth: u64,
    busy_until: SimTime,
    /// Latest `now` seen by [`Port::transmit`]; guards against retrograde
    /// callers, which would silently reorder serialization.
    last_now: SimTime,
    bytes_sent: u64,
    messages_sent: u64,
}

impl Port {
    /// Create a port with the given line rate (bytes/second).
    pub fn new(bandwidth: u64) -> Self {
        assert!(bandwidth > 0);
        Port {
            bandwidth,
            busy_until: SimTime::ZERO,
            last_now: SimTime::ZERO,
            bytes_sent: 0,
            messages_sent: 0,
        }
    }

    /// Serialize `bytes` starting no earlier than `now`; returns the instant
    /// the last byte leaves the port. `now` must be monotone across calls —
    /// a message cannot be handed to the port in the caller's past.
    pub(crate) fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        debug_assert!(
            now >= self.last_now,
            "Port::transmit time went backwards: {now} < {}",
            self.last_now
        );
        self.last_now = now;
        self.enqueue(now, bytes)
    }

    /// Like [`Port::transmit`], but for messages that start serializing at a
    /// *future* instant relative to the caller's clock (the `RDMA_READ`
    /// payload serializes when the read request reaches the initiator, one
    /// propagation delay later). Skips the monotonic-`now` watermark, since
    /// present-time and future-time sends legitimately interleave.
    pub(crate) fn transmit_at(&mut self, earliest: SimTime, bytes: u64) -> SimTime {
        self.enqueue(earliest, bytes)
    }

    fn enqueue(&mut self, earliest: SimTime, bytes: u64) -> SimTime {
        let start = earliest.max(self.busy_until);
        if bytes == 0 {
            // A zero-byte message occupies no port time; refuse to model a
            // free message silently — no caller should ever send one.
            debug_assert!(bytes > 0, "Port asked to transmit zero bytes");
            return start;
        }
        let done = start + SimDuration::for_bytes(bytes, self.bandwidth);
        self.busy_until = done;
        self.bytes_sent += bytes;
        self.messages_sent += 1;
        done
    }

    /// Total bytes serialized since creation (telemetry gauge feed).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages serialized since creation.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

/// Composes [`Port`] serialization and propagation into NVMe-oF message
/// delays.
#[derive(Clone, Copy, Debug, Default)]
pub struct RdmaDelays {
    cfg: FabricConfig,
}

impl RdmaDelays {
    /// Build from a fabric configuration.
    pub fn new(cfg: FabricConfig) -> Self {
        RdmaDelays { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Whether a command's write payload rides inline in the capsule.
    pub(crate) fn is_inlined(&self, cmd: &NvmeCmd) -> bool {
        cmd.opcode == IoType::Write && cmd.len_bytes() <= self.cfg.inline_threshold
    }

    /// Step 1: the command capsule leaves the initiator at `now`; returns
    /// when it arrives at the target. Inline write data serializes with the
    /// capsule.
    pub fn command_arrival(&self, initiator_tx: &mut Port, now: SimTime, cmd: &NvmeCmd) -> SimTime {
        let mut bytes = CMD_CAPSULE_BYTES;
        if self.is_inlined(cmd) {
            bytes += cmd.len_bytes();
        }
        initiator_tx.transmit(now, bytes) + self.cfg.propagation
    }

    /// Step 2: for a non-inlined write, the target issues `RDMA_READ` at
    /// `now` (command arrival at target); returns when the full payload has
    /// landed in the target's buffer. Inlined writes return `now` unchanged.
    pub fn write_payload_fetched(
        &self,
        initiator_tx: &mut Port,
        now: SimTime,
        cmd: &NvmeCmd,
    ) -> SimTime {
        debug_assert!(cmd.opcode == IoType::Write);
        if self.is_inlined(cmd) {
            return now;
        }
        // RDMA_READ request travels target→initiator, payload serializes at
        // the initiator's port, then travels back. The serialization starts
        // in the caller's future, so it bypasses the monotonic-now check.
        let request_at_initiator = now + self.cfg.propagation;
        initiator_tx.transmit_at(request_at_initiator, cmd.len_bytes()) + self.cfg.propagation
    }

    /// Steps 4–5: the target finishes the command at `now` and returns data
    /// (for reads) plus the completion capsule; returns when the completion
    /// arrives at the initiator.
    pub fn completion_arrival(&self, target_tx: &mut Port, now: SimTime, cmd: &NvmeCmd) -> SimTime {
        let bytes = match cmd.opcode {
            IoType::Read => cmd.len_bytes() + RSP_CAPSULE_BYTES,
            IoType::Write => RSP_CAPSULE_BYTES,
        };
        target_tx.transmit(now, bytes) + self.cfg.propagation
    }

    /// Fixed per-IO fabric overhead for an unloaded read of `len` bytes —
    /// used by calibration tests and latency breakdowns.
    pub fn unloaded_read_overhead(&self, len: u64) -> SimDuration {
        SimDuration::for_bytes(CMD_CAPSULE_BYTES, self.cfg.port_bandwidth)
            + SimDuration::for_bytes(len + RSP_CAPSULE_BYTES, self.cfg.port_bandwidth)
            + self.cfg.propagation * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CmdId, Priority, SsdId, TenantId};

    fn cmd(opcode: IoType, len: u32) -> NvmeCmd {
        NvmeCmd {
            id: CmdId(0),
            tenant: TenantId(0),
            ssd: SsdId(0),
            opcode,
            lba: 0,
            len,
            priority: Priority::NORMAL,
            issued_at: SimTime::ZERO,
            wal: None,
        }
    }

    #[test]
    fn port_serializes_back_to_back() {
        let mut p = Port::new(1_000_000_000); // 1 GB/s
        let t1 = p.transmit(SimTime::ZERO, 1000);
        assert_eq!(t1.as_nanos(), 1000);
        // Second message queues behind the first.
        let t2 = p.transmit(SimTime::ZERO, 1000);
        assert_eq!(t2.as_nanos(), 2000);
        // A message after idle starts immediately.
        let t3 = p.transmit(SimTime::from_micros(10), 1000);
        assert_eq!(t3.as_nanos(), 11_000);
    }

    #[test]
    fn port_accounts_traffic() {
        let mut p = Port::new(1_000_000_000);
        p.transmit(SimTime::ZERO, 1000);
        p.transmit(SimTime::ZERO, 500);
        p.transmit_at(SimTime::from_micros(10), 250);
        assert_eq!(p.bytes_sent(), 1750);
        assert_eq!(p.messages_sent(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn retrograde_transmit_is_rejected_in_debug() {
        let mut p = Port::new(1_000_000_000);
        p.transmit(SimTime::from_micros(10), 100);
        p.transmit(SimTime::from_micros(5), 100);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero bytes")]
    fn zero_byte_transmit_is_rejected_in_debug() {
        let mut p = Port::new(1_000_000_000);
        p.transmit(SimTime::ZERO, 0);
    }

    #[test]
    fn future_scheduled_transmit_interleaves_with_present() {
        // transmit_at models the RDMA_READ payload fetch: a send scheduled in
        // the caller's future must not trip the watermark for a later
        // present-time send at an earlier instant.
        let mut p = Port::new(1_000_000_000);
        let done = p.transmit_at(SimTime::from_micros(100), 1000);
        assert_eq!(done.as_nanos(), 101_000);
        // A present-time capsule at t=50µs queues behind the future payload.
        let t = p.transmit(SimTime::from_micros(50), 1000);
        assert_eq!(t.as_nanos(), 102_000);
    }

    #[test]
    fn small_write_is_inlined() {
        let d = RdmaDelays::new(FabricConfig::default());
        assert!(d.is_inlined(&cmd(IoType::Write, 4096)));
        assert!(!d.is_inlined(&cmd(IoType::Write, 8192)));
        assert!(!d.is_inlined(&cmd(IoType::Read, 4096)));
    }

    #[test]
    fn inlined_write_skips_rdma_read() {
        let d = RdmaDelays::new(FabricConfig::default());
        let mut tx = Port::new(12_500_000_000);
        let now = SimTime::from_micros(100);
        let c = cmd(IoType::Write, 4096);
        assert_eq!(d.write_payload_fetched(&mut tx, now, &c), now);
        // Non-inlined write pays a round trip plus serialization.
        let c = cmd(IoType::Write, 131072);
        let fetched = d.write_payload_fetched(&mut tx, now, &c);
        let expected =
            now + d.config().propagation * 2 + SimDuration::for_bytes(131072, 12_500_000_000);
        assert_eq!(fetched, expected);
    }

    #[test]
    fn read_completion_carries_data() {
        let d = RdmaDelays::new(FabricConfig::default());
        let mut tx = Port::new(12_500_000_000);
        let now = SimTime::from_micros(50);
        let rd = d.completion_arrival(&mut tx, now, &cmd(IoType::Read, 131072));
        let mut tx2 = Port::new(12_500_000_000);
        let wr = d.completion_arrival(&mut tx2, now, &cmd(IoType::Write, 131072));
        assert!(rd > wr, "read completion serializes the payload");
        // 128 KB at 12.5 GB/s ≈ 10.5 µs.
        let data_us = (rd.since(wr)).as_micros();
        assert!((9..=12).contains(&data_us), "data_us={data_us}");
    }

    #[test]
    fn command_arrival_includes_propagation() {
        let cfg = FabricConfig::default();
        let d = RdmaDelays::new(cfg);
        let mut tx = Port::new(cfg.port_bandwidth);
        let at = d.command_arrival(&mut tx, SimTime::ZERO, &cmd(IoType::Read, 4096));
        assert!(at >= SimTime::ZERO + cfg.propagation);
        assert!(at.as_micros() < 10, "capsule should be cheap: {at}");
    }
}
