//! # gimbal-cache
//!
//! A deterministic, multi-tenant DRAM cache tier for the SmartNIC.
//!
//! Gimbal (§3) arbitrates *SSD* bandwidth among tenants but leaves the
//! Stingray's on-NIC DRAM unused as a data tier. This crate adds a read
//! cache with write staging that sits in the per-SSD switch pipeline ahead
//! of the scheduling policy:
//!
//! * **Read hits** complete from NIC DRAM. The pipeline charges hit-path
//!   CPU cycles and a small DRAM-copy latency; the SSD — and therefore
//!   Alg. 1's latency/rate accounting — is bypassed entirely.
//! * **Read misses** go to the device as before and *fill on completion*,
//!   subject to an admission controller coupled to a congestion classifier
//!   over observed device latency (NetCAS-style): admit aggressively while
//!   `Congested`/`Overloaded` to shed SSD load, admit only re-referenced
//!   (ghost-hit) lines in the avoidance band, and bypass entirely when the
//!   device is clean so the hit path costs nothing.
//! * **Writes** follow the configured [`WritePolicy`]. Under
//!   `WritePolicy::Through` (the default, bit-identical to the original
//!   tier): resident lines are updated in place and marked dirty until the
//!   device write completes. A failed device write with staged lines
//!   surfaces a typed [`StagedWriteLoss`] — never silent loss. Under
//!   `WritePolicy::Back`: writes that fit the tenant's partition ack at
//!   DRAM cost, their lines stay dirty until a deterministic flusher writes
//!   them back through the switch pipeline — opportunistically while the
//!   congestion classifier says the device is clean, under watermark/age
//!   pressure otherwise, with WAL-tagged lines drained in log order ahead
//!   of data lines. Every dirty-line transition is recorded as a
//!   [`DurabilityEvent`] in a [`DurabilityJournal`] — a delta-varint byte
//!   stream of about 6 B per event that decodes back to the same events —
//!   so the testbed's crash-consistency oracle can replay a shadow model
//!   and prove exact loss accounting on injected device death or power
//!   loss.
//!
//! A cache line is one 4 KiB block, so a command always covers every line
//! it touches. Capacity is partitioned per tenant with cost-weighted shares
//! ([`Priority::WEIGHTS`], the §3.5 WRR weights), so one tenant's working
//! set cannot evict everyone else's. Eviction is a deterministic segmented
//! FIFO (small probation segment + main segment with second chance) plus a
//! per-tenant ghost queue remembering recently evicted line ids. All state
//! lives in [`DetMap`]/[`DetSet`]/`VecDeque` — iteration order is insertion
//! order, so a run is a pure function of the submitted command sequence and
//! the cache folds into [`Digest`] for the double-run determinism checks.

use std::collections::VecDeque;

use gimbal_fabric::{NvmeCmd, Priority, SsdId, TenantId, BLOCK_SIZE};
use gimbal_sim::collections::{DetMap, DetSet};
use gimbal_sim::{Digest, SimDuration, SimTime};
use gimbal_telemetry::{CongState, EventKind, TraceHandle};

/// Miss-fill admission policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fill every read miss (classic cache).
    Always,
    /// Couple admission to the congestion classifier: fill everything while
    /// the device is `Congested`/`Overloaded`, fill only ghost-queue hits in
    /// the avoidance band, bypass when `Underutilized`.
    CongestionAware,
    /// Never fill (the cache only stages writes); hits can still occur on
    /// lines staged by writes of resident lines, i.e. effectively none.
    Never,
}

impl AdmissionPolicy {
    /// Interned label (CLI, exports).
    pub const fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Always => "always",
            AdmissionPolicy::CongestionAware => "congestion",
            AdmissionPolicy::Never => "never",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<AdmissionPolicy> {
        match s {
            "always" => Some(AdmissionPolicy::Always),
            "congestion" | "congestion-aware" => Some(AdmissionPolicy::CongestionAware),
            "never" | "bypass" => Some(AdmissionPolicy::Never),
            _ => None,
        }
    }
}

/// How writes interact with the cache tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-through (the original tier, and the default): every write goes
    /// to the device; covered resident lines are updated in place and stay
    /// dirty only until the device write completes.
    Through,
    /// Write-back: writes that fit the tenant's partition acknowledge at
    /// DRAM cost; dirty lines are pinned until the deterministic flusher
    /// drains them to flash through the switch pipeline.
    Back,
}

impl WritePolicy {
    /// Interned label (CLI, exports).
    pub const fn name(self) -> &'static str {
        match self {
            WritePolicy::Through => "through",
            WritePolicy::Back => "back",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<WritePolicy> {
        match s {
            "through" | "write-through" => Some(WritePolicy::Through),
            "back" | "write-back" => Some(WritePolicy::Back),
            _ => None,
        }
    }
}

/// Flush command ids live in their own high-bit space so they can never
/// collide with initiator command ids; the pipeline intercepts completions
/// carrying this bit and never emits capsules for them.
pub const FLUSH_ID_BASE: u64 = 1 << 63;

/// Whether `id` names a cache-flusher write rather than an initiator command.
#[inline]
pub const fn is_flush_id(id: u64) -> bool {
    id & FLUSH_ID_BASE != 0
}

/// DRAM-copy latency charged on a hit before completion CPU cycles.
pub const HIT_LATENCY: SimDuration = SimDuration::from_micros(2);
/// Target share of a tenant's partition held by the small (probation)
/// segment, in percent.
const SMALL_PERCENT: u64 = 10;
/// Ghost-queue capacity as a percentage of the tenant's line budget.
const GHOST_PERCENT: u64 = 100;
/// EWMA smoothing factor for the congestion classifier.
const EWMA_ALPHA: f64 = 0.125;
/// Classifier floor: EWMA device read latency below this is
/// `Underutilized`.
const THRESH_MIN: SimDuration = SimDuration::from_micros(250);
/// Classifier ceiling: EWMA at or above this is `Overloaded`.
const THRESH_MAX: SimDuration = SimDuration::from_micros(1500);
/// Write-back watermark: a tenant whose dirty lines reach this percent of
/// its partition budget is flushed under pressure regardless of the
/// congestion classifier.
const DIRTY_HIGH_PERCENT: u64 = 50;
/// Write-back age bound: a dirty line older than this is flushed under
/// pressure regardless of the congestion classifier.
const FLUSH_MAX_AGE: SimDuration = SimDuration::from_millis(2);
/// Maximum flush writes in flight at the device per SSD cache.
const FLUSH_BATCH: usize = 4;

const _: () = assert!(HIT_LATENCY.as_nanos() > 0);
const _: () = assert!(SMALL_PERCENT >= 1 && SMALL_PERCENT <= 90);
const _: () = assert!(
    GHOST_PERCENT <= 400,
    "ghost queue beyond 4x the partition is pointless"
);
const _: () = assert!(EWMA_ALPHA > 0.0 && EWMA_ALPHA <= 1.0);
const _: () = assert!(THRESH_MIN.as_nanos() < THRESH_MAX.as_nanos());
const _: () = assert!(DIRTY_HIGH_PERCENT >= 1 && DIRTY_HIGH_PERCENT <= 100);
const _: () = assert!(FLUSH_MAX_AGE.as_nanos() > 0);
const _: () = assert!(FLUSH_BATCH >= 1, "flusher needs at least one slot");

/// Cache configuration, carried by `PipelineConfig`/`TestbedConfig`.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Total NIC-DRAM capacity dedicated to this SSD's cache, in bytes.
    /// Zero means the pipeline constructs no cache at all, which is
    /// bit-identical to running without one.
    pub capacity_bytes: u64,
    /// Miss-fill admission policy.
    pub policy: AdmissionPolicy,
    /// Write handling mode. `Through` is bit-identical to the original tier.
    pub write_policy: WritePolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024 * 1024,
            policy: AdmissionPolicy::CongestionAware,
            write_policy: WritePolicy::Through,
        }
    }
}

impl CacheConfig {
    /// A default-policy cache of `mb` mebibytes (CLI convenience).
    pub fn for_mb(mb: u64) -> Self {
        CacheConfig {
            capacity_bytes: mb * 1024 * 1024,
            ..CacheConfig::default()
        }
    }

    /// Whether a pipeline should construct a cache at all.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Total line slots this configuration provides.
    pub(crate) fn capacity_lines(&self) -> u64 {
        self.capacity_bytes / BLOCK_SIZE
    }
}

/// A failed device write that had lines staged in the cache: the staged
/// copies were dropped and the initiator must treat the write as failed.
/// Typed so chaos tests can assert that no staged data is lost silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StagedWriteLoss {
    /// Raw id of the failed write command.
    pub cmd: u64,
    /// Tenant that issued the write.
    pub tenant: TenantId,
    /// SSD whose device write failed.
    pub ssd: SsdId,
    /// Dirty lines invalidated.
    pub lines_lost: u32,
    /// Virtual-time instant of the failed completion.
    pub at: SimTime,
    /// Whether the lines were write-back dirty — acknowledged to the
    /// initiator and awaiting flush — rather than write-through staged
    /// copies of an in-flight device write. Dirty losses are the enlarged
    /// blast radius the crash-consistency oracle accounts for exactly.
    pub dirty: bool,
}

/// Sentinel `cmd` id on [`StagedWriteLoss`] records produced by device death
/// or power loss, where no single initiator command failed.
pub const LOSS_EVENT_CMD: u64 = u64::MAX;

impl StagedWriteLoss {
    /// Fold into a digest, field order fixed.
    pub fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.cmd);
        d.update_u64(self.tenant.index() as u64);
        d.update_u64(self.ssd.index() as u64);
        d.update_u64(u64::from(self.lines_lost));
        d.update_u64(self.at.as_nanos());
        d.update_u64(u64::from(self.dirty));
    }
}

/// Write-back activity counters, kept apart from [`CacheStats`] so the
/// write-through digest stream is untouched; they fold into digests only
/// when the cache runs `WritePolicy::Back`.
///
/// Line conservation (the property the oracle also proves from the
/// journal): `acked_lines == flushed_lines + lost_lines + superseded_lines
/// + dirty_lines`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteBackStats {
    /// Write commands acknowledged at DRAM cost.
    pub acked: u64,
    /// Clean→dirty line transitions from acknowledged writes.
    pub acked_lines: u64,
    /// Flush writes submitted to the device.
    pub flush_ios: u64,
    /// Flush writes carrying WAL-tagged lines.
    pub wal_flush_ios: u64,
    /// Flush writes issued opportunistically (classifier `Underutilized`).
    pub opportunistic_flushes: u64,
    /// Flush writes issued under watermark or age pressure.
    pub pressure_flushes: u64,
    /// Dirty lines cleaned by a successful flush.
    pub flushed_lines: u64,
    /// Failed flushes whose lines were re-queued (transient device error).
    pub requeued_lines: u64,
    /// Dirty lines surfaced as [`StagedWriteLoss`] (device death, power
    /// loss).
    pub lost_lines: u64,
    /// Dirty lines whose data was superseded on flash by a later
    /// pass-through write from the initiator before the flusher got to them.
    pub superseded_lines: u64,
    /// Write commands that fell through to the device because the tenant's
    /// partition could not buffer them (the flusher's pressure valve).
    pub passthrough: u64,
    /// Power-loss events absorbed.
    pub power_losses: u64,
    /// Dirty lines resident at snapshot time.
    pub dirty_lines: u64,
}

impl WriteBackStats {
    /// Fold every counter into `d`, field order fixed.
    pub fn fold_into(&self, d: &mut Digest) {
        for v in [
            self.acked,
            self.acked_lines,
            self.flush_ios,
            self.wal_flush_ios,
            self.opportunistic_flushes,
            self.pressure_flushes,
            self.flushed_lines,
            self.requeued_lines,
            self.lost_lines,
            self.superseded_lines,
            self.passthrough,
            self.power_losses,
            self.dirty_lines,
        ] {
            d.update_u64(v);
        }
    }

    /// Exact line conservation: every acknowledged dirty transition is
    /// accounted for as flushed, lost, superseded, or still dirty.
    pub fn conservation_holds(&self) -> bool {
        self.acked_lines
            == self.flushed_lines + self.lost_lines + self.superseded_lines + self.dirty_lines
    }
}

/// One flush IO the pipeline submits to the device on the cache's behalf:
/// a whole dirty line written back to flash through the scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushIo {
    /// Command id from the disjoint [`FLUSH_ID_BASE`] space.
    pub id: u64,
    /// Tenant whose partition owns the line (DRR accounting).
    pub tenant: TenantId,
    /// Starting LBA (line-aligned).
    pub lba: u64,
    /// Length in bytes (one line).
    pub len: u32,
    /// WAL log-order tag when the line holds write-ahead-log data.
    pub wal: Option<u64>,
}

/// One entry of the write-back durability journal. The cache appends these
/// in virtual-time order; the testbed's crash-consistency oracle replays
/// them against a shadow dirty-set to prove no silent and no phantom loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityEvent {
    /// A write command acknowledged at DRAM cost.
    Acked {
        /// Raw initiator command id.
        cmd: u64,
        /// Issuing tenant.
        tenant: TenantId,
        /// Lines the command spans.
        lines: u32,
        /// Acknowledgement instant.
        at: SimTime,
    },
    /// A line transitioned clean→dirty (acked data now only in DRAM).
    Dirtied {
        /// Line id.
        line: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// WAL log-order tag, when the dirtying write carried one.
        wal: Option<u64>,
        /// Transition instant.
        at: SimTime,
    },
    /// The flusher submitted a write for this dirty line.
    FlushIssued {
        /// Flush command id ([`FLUSH_ID_BASE`] space).
        id: u64,
        /// Line id.
        line: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// WAL log-order tag carried by the line.
        wal: Option<u64>,
        /// Submission instant.
        at: SimTime,
    },
    /// A flush completed successfully and the line is durable on flash.
    Cleaned {
        /// Line id.
        line: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// Completion instant.
        at: SimTime,
    },
    /// A flush failed transiently (or raced a re-dirty); the line went back
    /// to the flush queue, still dirty.
    Requeued {
        /// Line id.
        line: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// WAL log-order tag carried by the line.
        wal: Option<u64>,
        /// Re-queue instant.
        at: SimTime,
    },
    /// A later pass-through write from the initiator reached flash and
    /// superseded this dirty line's data; nothing left to flush.
    Superseded {
        /// Line id.
        line: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// Completion instant of the superseding device write.
        at: SimTime,
    },
    /// A dirty line's acked-but-unflushed data was lost (device death or
    /// power loss) and surfaced in a [`StagedWriteLoss`].
    Lost {
        /// Line id.
        line: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// WAL log-order tag carried by the line.
        wal: Option<u64>,
        /// Loss instant.
        at: SimTime,
    },
    /// A write command fell through to the device (partition full or device
    /// dead); it is durably ordered by the device, not the cache.
    PassThrough {
        /// Raw initiator command id.
        cmd: u64,
        /// Issuing tenant.
        tenant: TenantId,
        /// Submission instant.
        at: SimTime,
    },
    /// Simulated power loss: NIC DRAM cleared cold; every dirty line was
    /// surfaced as `Lost` immediately after this marker.
    PowerLoss {
        /// Loss instant.
        at: SimTime,
    },
    /// The device died; every dirty line was surfaced as `Lost` immediately
    /// after this marker and the flusher stopped.
    DeviceDeath {
        /// Observation instant.
        at: SimTime,
    },
}

impl DurabilityEvent {
    /// Fold into a digest: the variant rank, then the variant's fields in
    /// [`EVENT_FIELDS`] order (a WAL tag as a presence flag, then its value).
    pub fn fold_into(&self, d: &mut Digest) {
        let f = self.fields();
        d.update_u64(u64::from(f.rank));
        for &field in f.layout() {
            if field != Field::Wal {
                d.update_u64(f.get(field));
            } else {
                d.update_u64(u64::from(f.has_wal));
                if f.has_wal {
                    d.update_u64(f.get(field));
                }
            }
        }
    }

    /// The instant the event happened.
    pub fn at(&self) -> SimTime {
        SimTime::from_nanos(self.fields().get(Field::At))
    }

    /// Flatten to the variant rank and its field values.
    fn fields(&self) -> EventFields {
        use Field::*;
        let base = |rank: u8, tenant: TenantId, at: SimTime| {
            EventFields::new(rank, at).with(Tenant, u64::from(tenant.0))
        };
        match *self {
            DurabilityEvent::Acked {
                cmd,
                tenant,
                lines,
                at,
            } => base(0, tenant, at)
                .with(Cmd, cmd)
                .with(Lines, u64::from(lines)),
            DurabilityEvent::Dirtied {
                line,
                tenant,
                wal,
                at,
            } => base(1, tenant, at).with(Line, line).with_wal(wal),
            DurabilityEvent::FlushIssued {
                id,
                line,
                tenant,
                wal,
                at,
            } => base(2, tenant, at)
                .with(Id, id)
                .with(Line, line)
                .with_wal(wal),
            DurabilityEvent::Cleaned { line, tenant, at } => base(3, tenant, at).with(Line, line),
            DurabilityEvent::Requeued {
                line,
                tenant,
                wal,
                at,
            } => base(4, tenant, at).with(Line, line).with_wal(wal),
            DurabilityEvent::Superseded { line, tenant, at } => {
                base(5, tenant, at).with(Line, line)
            }
            DurabilityEvent::Lost {
                line,
                tenant,
                wal,
                at,
            } => base(6, tenant, at).with(Line, line).with_wal(wal),
            DurabilityEvent::PassThrough { cmd, tenant, at } => base(7, tenant, at).with(Cmd, cmd),
            DurabilityEvent::PowerLoss { at } => EventFields::new(8, at),
            DurabilityEvent::DeviceDeath { at } => EventFields::new(9, at),
        }
    }
}

/// One field of a [`DurabilityEvent`], as the digest fold, the journal
/// encoder and its decoder visit it. The first [`DELTA_FIELDS`] are stored
/// as zigzag varints of the wrapping delta from the previous value of the
/// same field; the rest as plain varints, a WAL tag behind a presence byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Field {
    Cmd,
    Id,
    Line,
    At,
    Tenant,
    Lines,
    Wal,
}

/// `Field as usize` below this is delta-coded.
const DELTA_FIELDS: usize = 4;

/// Each variant's fields in digest order, indexed by variant rank. The one
/// per-variant table that `fold_into`, `push` and the decoder share.
const EVENT_FIELDS: [&[Field]; 10] = {
    use Field::*;
    [
        &[Cmd, Tenant, Lines, At],    // Acked
        &[Line, Tenant, Wal, At],     // Dirtied
        &[Id, Line, Tenant, Wal, At], // FlushIssued
        &[Line, Tenant, At],          // Cleaned
        &[Line, Tenant, Wal, At],     // Requeued
        &[Line, Tenant, At],          // Superseded
        &[Line, Tenant, Wal, At],     // Lost
        &[Cmd, Tenant, At],           // PassThrough
        &[At],                        // PowerLoss
        &[At],                        // DeviceDeath
    ]
};

/// A [`DurabilityEvent`] flattened to its variant rank and field values,
/// indexed by `Field as usize`; fields the variant lacks stay zero.
#[derive(Clone, Copy, Default)]
struct EventFields {
    rank: u8,
    vals: [u64; 7],
    has_wal: bool,
}

impl EventFields {
    fn new(rank: u8, at: SimTime) -> Self {
        EventFields {
            rank,
            ..EventFields::default()
        }
        .with(Field::At, at.as_nanos())
    }

    fn with(mut self, field: Field, v: u64) -> Self {
        self.vals[field as usize] = v;
        self
    }

    fn with_wal(mut self, wal: Option<u64>) -> Self {
        self.has_wal = wal.is_some();
        self.with(Field::Wal, wal.unwrap_or(0))
    }

    fn get(&self, field: Field) -> u64 {
        self.vals[field as usize]
    }

    fn layout(&self) -> &'static [Field] {
        EVENT_FIELDS[usize::from(self.rank)]
    }

    /// Rebuild the event. Tenant and line counts were `u32` when flattened.
    fn event(&self) -> DurabilityEvent {
        use Field::*;
        let (line, tenant) = (self.get(Line), TenantId(self.get(Tenant) as u32));
        let wal = self.has_wal.then(|| self.get(Wal));
        let at = SimTime::from_nanos(self.get(At));
        match self.rank {
            0 => DurabilityEvent::Acked {
                cmd: self.get(Cmd),
                tenant,
                lines: self.get(Lines) as u32,
                at,
            },
            1 => DurabilityEvent::Dirtied {
                line,
                tenant,
                wal,
                at,
            },
            2 => DurabilityEvent::FlushIssued {
                id: self.get(Id),
                line,
                tenant,
                wal,
                at,
            },
            3 => DurabilityEvent::Cleaned { line, tenant, at },
            4 => DurabilityEvent::Requeued {
                line,
                tenant,
                wal,
                at,
            },
            5 => DurabilityEvent::Superseded { line, tenant, at },
            6 => DurabilityEvent::Lost {
                line,
                tenant,
                wal,
                at,
            },
            7 => DurabilityEvent::PassThrough {
                cmd: self.get(Cmd),
                tenant,
                at,
            },
            8 => DurabilityEvent::PowerLoss { at },
            // Rank 9: `layout` has already rejected anything above it.
            _ => DurabilityEvent::DeviceDeath { at },
        }
    }
}

/// The write-back durability journal: every [`DurabilityEvent`] a cache
/// appended, in order, stored as a compact byte stream.
///
/// Each event is its variant rank in one byte, then its fields in
/// [`DurabilityEvent::fold_into`] order as LEB128 varints. `cmd`, the flush
/// `id`, `line` and `at` are zigzag-coded wrapping deltas from the previous
/// value of the same field, so the mostly increasing ids and timestamps take
/// one to three bytes instead of eight and any `u64` round-trips, including
/// one that goes backwards. The encoding is deterministic and [`Self::iter`]
/// inverts it, so two journals have equal bytes exactly when they hold
/// equal events: the derived `PartialEq` is event equality.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurabilityJournal {
    bytes: Vec<u8>,
    len: usize,
    /// Last value of each delta-coded field (encoder state).
    prev: [u64; DELTA_FIELDS],
}

impl DurabilityJournal {
    /// Append one event.
    pub fn push(&mut self, ev: DurabilityEvent) {
        let f = ev.fields();
        self.bytes.push(f.rank);
        for &field in f.layout() {
            let v = f.get(field);
            let i = field as usize;
            if i < DELTA_FIELDS {
                put_varint(&mut self.bytes, zigzag(v.wrapping_sub(self.prev[i])));
                self.prev[i] = v;
            } else if field != Field::Wal {
                put_varint(&mut self.bytes, v);
            } else {
                self.bytes.push(u8::from(f.has_wal));
                if f.has_wal {
                    put_varint(&mut self.bytes, v);
                }
            }
        }
        self.len += 1;
    }

    /// The events in append order, decoded.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DurabilityEvent> + '_ {
        Decoder {
            bytes: &self.bytes,
            pos: 0,
            prev: [0; DELTA_FIELDS],
            left: self.len,
        }
    }

    /// Events journaled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event was journaled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded stream in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Fold the event count, then every event, into `d`.
    pub fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.len as u64);
        for e in self.iter() {
            e.fold_into(d);
        }
    }
}

impl FromIterator<DurabilityEvent> for DurabilityJournal {
    fn from_iter<I: IntoIterator<Item = DurabilityEvent>>(events: I) -> Self {
        let mut j = DurabilityJournal::default();
        for e in events {
            j.push(e);
        }
        j
    }
}

/// Decoding cursor over a [`DurabilityJournal`]'s bytes.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev: [u64; DELTA_FIELDS],
    left: usize,
}

impl Decoder<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Iterator for Decoder<'_> {
    type Item = DurabilityEvent;

    fn next(&mut self) -> Option<DurabilityEvent> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut f = EventFields {
            rank: self.byte(),
            ..EventFields::default()
        };
        for &field in f.layout() {
            let i = field as usize;
            if i < DELTA_FIELDS {
                self.prev[i] = self.prev[i].wrapping_add(unzigzag(self.varint()));
                f.vals[i] = self.prev[i];
            } else if field != Field::Wal {
                f.vals[i] = self.varint();
            } else {
                f.has_wal = self.byte() != 0;
                if f.has_wal {
                    f.vals[i] = self.varint();
                }
            }
        }
        Some(f.event())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Decoder<'_> {}

/// Append `v` as an unsigned LEB128 varint (7 bits per byte, low first).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Map a wrapping delta to an unsigned value small for small |delta|.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Counters describing one SSD cache's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served entirely from DRAM.
    pub hits: u64,
    /// Reads sent to the device (at least one line missing).
    pub misses: u64,
    /// Lines filled on miss completions.
    pub fills: u64,
    /// Lines evicted for capacity (small-segment and main-segment).
    pub evictions: u64,
    /// Lines invalidated: a failed write-through write drops its staged
    /// lines.
    pub invalidations: u64,
    /// Lines updated in place by writes (write staging).
    pub staged: u64,
    /// Dirty lines dropped because the device write failed.
    pub staged_losses: u64,
    /// Fills whose line id was found in the ghost queue.
    pub ghost_hits: u64,
    /// Miss completions not admitted by the policy.
    pub bypassed: u64,
    /// Congestion-classifier regime changes (admission law toggles).
    pub admit_toggles: u64,
    /// Lines resident at snapshot time.
    pub resident_lines: u64,
}

impl CacheStats {
    /// Total read lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fold every counter into `d`, field order fixed.
    pub fn fold_into(&self, d: &mut Digest) {
        for v in [
            self.hits,
            self.misses,
            self.fills,
            self.evictions,
            self.invalidations,
            self.staged,
            self.staged_losses,
            self.ghost_hits,
            self.bypassed,
            self.admit_toggles,
            self.resident_lines,
        ] {
            d.update_u64(v);
        }
    }
}

/// Which FIFO segment a resident line belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    /// Probation: newly admitted lines; one touch promotes to main.
    Small,
    /// Protected: promoted or ghost-hit lines; evicted with second chance.
    Main,
}

/// One resident cache line.
#[derive(Clone, Copy, Debug)]
struct Line {
    tenant: TenantId,
    seg: Segment,
    /// Distinguishes this residency from stale FIFO entries left behind by
    /// an earlier life of the same line id (queues are cleaned lazily).
    incarnation: u64,
    accessed: bool,
    /// Write-through: staged by a write whose device copy has not completed
    /// yet. Write-back: acknowledged data not yet durable on flash.
    dirty: bool,
    /// Bumped on every dirtying; a flush (or pass-through write) only cleans
    /// the line if the epoch it snapshotted still matches, so a re-dirty
    /// racing an in-flight device write is never lost.
    dirty_epoch: u64,
    /// Instant of the clean→dirty transition (age-pressure flushing).
    dirtied_at: SimTime,
    /// A flush IO for this line is in flight (keeps it out of the queues).
    flushing: bool,
    /// WAL log-order tag of the dirtying write, when it carried one.
    wal: Option<u64>,
}

/// Per-tenant partition: budget, segment FIFOs, and the ghost queue.
#[derive(Debug)]
struct TenantPart {
    weight: u32,
    budget_lines: u64,
    resident_small: u64,
    resident_main: u64,
    /// (line id, incarnation); entries whose incarnation no longer matches
    /// the line table are stale and skipped on pop.
    small: VecDeque<(u64, u64)>,
    main: VecDeque<(u64, u64)>,
    ghost_set: DetSet<u64>,
    ghost_fifo: VecDeque<u64>,
    /// Dirty resident lines (write-back only; pinned against eviction).
    dirty: u64,
    /// Dirty WAL-tagged lines awaiting a flush slot, kept sorted by WAL tag
    /// so flush issue order is log order: `(line, enqueued_at, wal_tag)`.
    /// Entries are lazily invalidated (skipped when the line is no longer
    /// dirty, is already flushing, or changed identity).
    wal_q: VecDeque<(u64, SimTime, u64)>,
    /// Dirty data lines awaiting a flush slot, FIFO by first-dirty time:
    /// `(line, enqueued_at)`. Lazily invalidated like `wal_q`.
    data_q: VecDeque<(u64, SimTime)>,
}

impl TenantPart {
    fn resident(&self) -> u64 {
        self.resident_small + self.resident_main
    }

    /// Whether the dirty population crossed the pressure watermark.
    fn over_watermark(&self) -> bool {
        self.dirty * 100 >= self.budget_lines * DIRTY_HIGH_PERCENT
    }
}

/// A flush write in flight at the device.
#[derive(Clone, Copy, Debug)]
struct Flight {
    line: u64,
    /// Dirty epoch snapshotted at issue; a mismatch on completion means the
    /// line was re-dirtied (or superseded) while the flush was in flight.
    epoch: u64,
    /// Owner and WAL tag at issue; only the state digest reads them.
    #[cfg(test)]
    tenant: TenantId,
    #[cfg(test)]
    wal: Option<u64>,
}

/// The per-SSD cache: line table, per-tenant partitions, congestion
/// classifier, and counters. Owned by the switch pipeline.
#[derive(Debug)]
pub struct SsdCache {
    cfg: CacheConfig,
    ssd: SsdId,
    cap_lines: u64,
    lines: DetMap<u64, Line>,
    tenants: DetMap<TenantId, TenantPart>,
    total_weight: u64,
    next_incarnation: u64,
    // Congestion classifier over device read latency (µs).
    ewma_us: f64,
    thresh_us: f64,
    state: CongState,
    seen_sample: bool,
    stats: CacheStats,
    losses: Vec<StagedWriteLoss>,
    // Write-back machinery; all of it stays empty under WritePolicy::Through.
    wb: WriteBackStats,
    flights: DetMap<u64, Flight>,
    next_flush: u64,
    journal: DurabilityJournal,
    /// The device died: stop acking and flushing; pass every write through.
    dead: bool,
    trace: TraceHandle,
}

impl SsdCache {
    /// Build a cache for `ssd`. The configuration must be enabled
    /// (`capacity_bytes > 0`); the pipeline skips construction otherwise so
    /// a zero-capacity config is bit-identical to no cache at all.
    pub fn new(ssd: SsdId, cfg: CacheConfig) -> Self {
        assert!(cfg.enabled(), "construct no cache for zero capacity");
        let cap_lines = cfg.capacity_lines().max(1);
        let thresh_us = THRESH_MAX.as_micros_f64();
        SsdCache {
            cfg,
            ssd,
            cap_lines,
            lines: DetMap::new(),
            tenants: DetMap::new(),
            total_weight: 0,
            next_incarnation: 0,
            ewma_us: 0.0,
            thresh_us,
            state: CongState::Underutilized,
            seen_sample: false,
            stats: CacheStats::default(),
            losses: Vec::new(),
            wb: WriteBackStats::default(),
            flights: DetMap::new(),
            next_flush: 0,
            journal: DurabilityJournal::default(),
            dead: false,
            trace: TraceHandle::disabled(),
        }
    }

    /// Attach a telemetry handle; cache events are stamped with the SSD id.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Snapshot of the counters, with `resident_lines` filled in.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        s.resident_lines = self.lines.len() as u64;
        s
    }

    /// Typed records of staged data dropped on failed device writes.
    pub fn losses(&self) -> &[StagedWriteLoss] {
        &self.losses
    }

    /// Write-back counters, with `dirty_lines` filled in. All-zero under
    /// `WritePolicy::Through`.
    pub fn write_back_stats(&self) -> WriteBackStats {
        let mut s = self.wb;
        s.dirty_lines = self.tenants.values().map(|p| p.dirty).sum();
        s
    }

    /// The write-back durability journal so far (empty under
    /// `WritePolicy::Through`). The crash-consistency oracle replays this.
    pub fn journal(&self) -> &DurabilityJournal {
        &self.journal
    }

    /// Hand the durability journal over, leaving it empty: how a finished
    /// run moves it into its result without copying it.
    pub fn take_journal(&mut self) -> DurabilityJournal {
        std::mem::take(&mut self.journal)
    }

    /// The configured write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.cfg.write_policy
    }

    /// Per-tenant `(tenant, dirty lines, partition budget in lines)` in
    /// registration order. Dirty lines are pinned (unevictable), so the
    /// partition-capacity invariant is `dirty <= budget` at every instant;
    /// the property suite asserts it after every operation.
    pub fn tenant_dirty(&self) -> Vec<(TenantId, u64, u64)> {
        self.tenants
            .iter()
            .map(|(t, p)| (*t, p.dirty, p.budget_lines))
            .collect()
    }

    /// The line-id range `[start, end)` a command touches: a line is one
    /// block, so its id is the block's LBA.
    fn line_range(&self, cmd: &NvmeCmd) -> (u64, u64) {
        (cmd.lba, cmd.lba_end())
    }

    /// Lazily register a tenant and re-split capacity cost-weighted across
    /// all registered tenants (§3.5 weights). Shrinking an existing
    /// partition takes effect lazily at that tenant's next fill.
    fn register_tenant(&mut self, tenant: TenantId, prio: Priority) {
        if self.tenants.contains_key(&tenant) {
            return;
        }
        let idx = (prio.0 as usize).min(Priority::LEVELS - 1);
        let w = Priority::WEIGHTS[idx];
        self.total_weight += u64::from(w);
        self.tenants.insert(
            tenant,
            TenantPart {
                weight: w,
                budget_lines: 0,
                resident_small: 0,
                resident_main: 0,
                small: VecDeque::new(),
                main: VecDeque::new(),
                ghost_set: DetSet::new(),
                ghost_fifo: VecDeque::new(),
                dirty: 0,
                wal_q: VecDeque::new(),
                data_q: VecDeque::new(),
            },
        );
        let (cap, total) = (self.cap_lines, self.total_weight);
        for p in self.tenants.values_mut() {
            p.budget_lines = (cap * u64::from(p.weight) / total).max(1);
        }
    }

    /// Read lookup. On a full hit every touched line is marked accessed and
    /// the command can complete from DRAM; any missing line makes the whole
    /// read a miss (it goes to the device and may fill on completion).
    pub fn try_read_hit(&mut self, cmd: &NvmeCmd, now: SimTime) -> bool {
        self.register_tenant(cmd.tenant, cmd.priority);
        let (s, e) = self.line_range(cmd);
        let mut missing = 0u32;
        for l in s..e {
            match self.lines.get_mut(&l) {
                Some(line) => line.accessed = true,
                None => missing += 1,
            }
        }
        if missing == 0 {
            self.stats.hits += 1;
            self.trace.record(
                now,
                self.ssd,
                Some(cmd.tenant),
                EventKind::CacheHit {
                    lines: (e - s) as u32,
                },
            );
            true
        } else {
            self.stats.misses += 1;
            self.trace.record(
                now,
                self.ssd,
                Some(cmd.tenant),
                EventKind::CacheMiss {
                    lines_missing: missing,
                },
            );
            false
        }
    }

    /// A write is going to the device. Write-through: resident lines are
    /// updated in place and marked dirty until
    /// [`Self::on_write_completion`]. Writes never allocate lines.
    /// Write-back: this is the pass-through path (the write did not fit the
    /// partition, or the device is dead) — nothing is staged at submit
    /// time; resident lines are reconciled at completion.
    pub fn stage_write(&mut self, cmd: &NvmeCmd, now: SimTime) {
        self.register_tenant(cmd.tenant, cmd.priority);
        if self.cfg.write_policy == WritePolicy::Back {
            self.wb.passthrough += 1;
            self.journal.push(DurabilityEvent::PassThrough {
                cmd: cmd.id.0,
                tenant: cmd.tenant,
                at: now,
            });
            return;
        }
        let (s, e) = self.line_range(cmd);
        for l in s..e {
            if let Some(line) = self.lines.get_mut(&l) {
                line.dirty = true;
                line.accessed = true;
                self.stats.staged += 1;
            }
        }
    }

    /// Try to absorb a write at DRAM cost (write-back only). Every touched
    /// line becomes dirty and the command can complete at hit latency.
    /// Returns false (the caller must send the write to the device) when
    /// the policy is write-through, the device is dead, or the tenant's
    /// partition cannot pin the span: dirty lines are unevictable,
    /// so admission requires `dirty + newly_dirty <= budget`, where
    /// `newly_dirty` counts every span line that is not already dirty —
    /// absent lines allocate and pin, resident *clean* lines re-dirty and
    /// pin just the same.
    pub fn write_back_ack(&mut self, cmd: &NvmeCmd, now: SimTime) -> bool {
        if self.cfg.write_policy != WritePolicy::Back || self.dead {
            return false;
        }
        self.register_tenant(cmd.tenant, cmd.priority);
        let (s, e) = self.line_range(cmd);
        let newly_dirty = (s..e)
            .filter(|l| !self.lines.get(l).is_some_and(|line| line.dirty))
            .count() as u64;
        let p = self.tenants.get(&cmd.tenant).expect("registered");
        if p.dirty + newly_dirty > p.budget_lines {
            return false;
        }
        for l in s..e {
            if self.lines.contains_key(&l) {
                self.redirty_resident(l, cmd.wal, now);
            } else {
                self.alloc_dirty(cmd.tenant, l, cmd.wal, now);
            }
        }
        self.wb.acked += 1;
        self.trace.record(
            now,
            self.ssd,
            Some(cmd.tenant),
            EventKind::CacheWriteBackAck {
                cmd: cmd.id.0,
                lines: (e - s) as u32,
            },
        );
        self.journal.push(DurabilityEvent::Acked {
            cmd: cmd.id.0,
            tenant: cmd.tenant,
            lines: (e - s) as u32,
            at: now,
        });
        true
    }

    /// Dirty (or re-dirty) a resident line in place. The line keeps its
    /// current owner; cross-tenant writes to a shared region dirty the
    /// owner's partition, mirroring how residency is accounted.
    fn redirty_resident(&mut self, l: u64, wal: Option<u64>, now: SimTime) {
        let line = self.lines.get_mut(&l).expect("resident");
        line.accessed = true;
        line.dirty_epoch = line.dirty_epoch.saturating_add(1);
        let owner = line.tenant;
        let was_dirty = line.dirty;
        let was_queued = was_dirty && !line.flushing;
        let old_wal = line.wal;
        line.wal = wal;
        if !was_dirty {
            line.dirty = true;
            line.dirtied_at = now;
            self.wb.acked_lines += 1;
            let p = self.tenants.get_mut(&owner).expect("owner registered");
            p.dirty += 1;
            Self::enqueue_dirty(p, l, now, wal);
            self.journal.push(DurabilityEvent::Dirtied {
                line: l,
                tenant: owner,
                wal,
                at: now,
            });
            return;
        }
        // Already dirty: the DRAM copy absorbs the newer data; no new debt.
        // If the WAL tag changed while the line sits in a queue, the queue
        // entry's ordering key is stale — drop it and re-enqueue sorted.
        if was_queued && old_wal != wal {
            let p = self.tenants.get_mut(&owner).expect("owner registered");
            p.wal_q.retain(|&(ql, _, _)| ql != l);
            p.data_q.retain(|&(ql, _)| ql != l);
            Self::enqueue_dirty(p, l, now, wal);
        }
    }

    /// Allocate a fresh dirty line (write-allocate), evicting clean lines
    /// within the tenant's partition as needed. The caller verified the
    /// partition can pin it.
    fn alloc_dirty(&mut self, tenant: TenantId, l: u64, wal: Option<u64>, now: SimTime) {
        if !self.insert_line(tenant, l, false, now) {
            // Cannot happen: admission guaranteed a clean line is evictable.
            debug_assert!(false, "write-back allocation failed past admission");
            return;
        }
        let line = self.lines.get_mut(&l).expect("just inserted");
        line.dirty = true;
        line.dirty_epoch = line.dirty_epoch.saturating_add(1);
        line.dirtied_at = now;
        line.wal = wal;
        self.wb.acked_lines += 1;
        let p = self.tenants.get_mut(&tenant).expect("registered");
        p.dirty += 1;
        Self::enqueue_dirty(p, l, now, wal);
        self.journal.push(DurabilityEvent::Dirtied {
            line: l,
            tenant,
            wal,
            at: now,
        });
    }

    /// Put a dirty line into the owner's flush queue. WAL-tagged lines are
    /// inserted in tag order (scanning from the tail — re-dirties and retry
    /// re-queues carry tags near the maximum); data lines append FIFO.
    fn enqueue_dirty(p: &mut TenantPart, l: u64, at: SimTime, wal: Option<u64>) {
        match wal {
            Some(w) => {
                let mut idx = p.wal_q.len();
                while idx > 0 && p.wal_q[idx - 1].2 > w {
                    idx -= 1;
                }
                p.wal_q.insert(idx, (l, at, w));
            }
            None => p.data_q.push_back((l, at)),
        }
    }

    /// Whether a flush-queue entry still names the dirty residency it was
    /// enqueued for. Entries are lazily invalidated: a clean, flushing,
    /// re-owned, or re-tagged line makes the entry stale and it is skipped.
    fn queue_entry_valid(
        lines: &DetMap<u64, Line>,
        tenant: TenantId,
        l: u64,
        wal: Option<u64>,
    ) -> bool {
        lines.get(&l).is_some_and(|line| {
            line.tenant == tenant && line.dirty && !line.flushing && line.wal == wal
        })
    }

    /// Pop the next dirty line the flusher should write back, or `None`
    /// when nothing is eligible. WAL-tagged lines drain globally in log
    /// order ahead of data lines; data lines drain oldest-first. In
    /// `opportunistic` mode every queued line is eligible; otherwise a
    /// tenant's queues open only over the dirty watermark or once its
    /// oldest entry exceeds the age bound (the whole WAL queue opens with
    /// it — log order means the head must go first regardless of which
    /// entry aged out). Returns `(line, tenant, wal, under_pressure)`.
    fn pop_flushable(
        &mut self,
        now: SimTime,
        opportunistic: bool,
    ) -> Option<(u64, TenantId, Option<u64>, bool)> {
        // Purge stale heads so the candidate scan below sees live entries.
        let lines = &self.lines;
        for (t, p) in self.tenants.iter_mut() {
            while let Some(&(l, _, w)) = p.wal_q.front() {
                if Self::queue_entry_valid(lines, *t, l, Some(w)) {
                    break;
                }
                p.wal_q.pop_front();
            }
            while let Some(&(l, _)) = p.data_q.front() {
                if Self::queue_entry_valid(lines, *t, l, None) {
                    break;
                }
                p.data_q.pop_front();
            }
        }
        // (wal tag, tenant, pressure) / (enqueued_at, tenant, pressure);
        // strict < keeps ties on the earlier-registered tenant.
        let mut best_wal: Option<(u64, TenantId, bool)> = None;
        let mut best_data: Option<(SimTime, TenantId, bool)> = None;
        for (t, p) in self.tenants.iter() {
            if p.wal_q.is_empty() && p.data_q.is_empty() {
                continue;
            }
            let (eligible, pressure) = if opportunistic {
                (true, false)
            } else {
                let mut oldest: Option<SimTime> = None;
                for &(l, at, w) in &p.wal_q {
                    if Self::queue_entry_valid(&self.lines, *t, l, Some(w))
                        && oldest.is_none_or(|o| at < o)
                    {
                        oldest = Some(at);
                    }
                }
                if let Some(&(_, at)) = p.data_q.front() {
                    if oldest.is_none_or(|o| at < o) {
                        oldest = Some(at);
                    }
                }
                let due = p.over_watermark() || oldest.is_some_and(|o| o + FLUSH_MAX_AGE <= now);
                (due, true)
            };
            if !eligible {
                continue;
            }
            if let Some(&(_, _, w)) = p.wal_q.front() {
                if best_wal.is_none_or(|(bw, _, _)| w < bw) {
                    best_wal = Some((w, *t, pressure));
                }
            } else if let Some(&(_, at)) = p.data_q.front() {
                if best_data.is_none_or(|(ba, _, _)| at < ba) {
                    best_data = Some((at, *t, pressure));
                }
            }
        }
        if let Some((w, t, pressure)) = best_wal {
            let p = self.tenants.get_mut(&t).expect("candidate tenant");
            let (l, _, _) = p.wal_q.pop_front().expect("candidate head");
            return Some((l, t, Some(w), pressure));
        }
        if let Some((_, t, pressure)) = best_data {
            let p = self.tenants.get_mut(&t).expect("candidate tenant");
            let (l, _) = p.data_q.pop_front().expect("candidate head");
            return Some((l, t, None, pressure));
        }
        None
    }

    /// Take the flush writes the pipeline should submit now, bounded by the
    /// in-flight cap. Empty under write-through, after device death, or when
    /// no dirty line is eligible (see `Self::pop_flushable`).
    pub fn take_flushes(&mut self, now: SimTime) -> Vec<FlushIo> {
        let mut out = Vec::new();
        self.take_flushes_into(now, &mut out);
        out
    }

    /// [`Self::take_flushes`] without the allocation: append the flush
    /// writes to `out`. A caller that drains `out` and passes it back every
    /// poll allocates nothing in steady state.
    pub fn take_flushes_into(&mut self, now: SimTime, out: &mut Vec<FlushIo>) {
        if self.cfg.write_policy != WritePolicy::Back || self.dead {
            return;
        }
        let opportunistic = self.state == CongState::Underutilized;
        while self.flights.len() < FLUSH_BATCH {
            let Some((l, tenant, wal, pressure)) = self.pop_flushable(now, opportunistic) else {
                break;
            };
            let line = self.lines.get_mut(&l).expect("validated resident");
            line.flushing = true;
            let epoch = line.dirty_epoch;
            let id = FLUSH_ID_BASE | self.next_flush;
            self.next_flush += 1;
            self.flights.insert(
                id,
                Flight {
                    line: l,
                    epoch,
                    #[cfg(test)]
                    tenant,
                    #[cfg(test)]
                    wal,
                },
            );
            self.wb.flush_ios += 1;
            if wal.is_some() {
                self.wb.wal_flush_ios += 1;
            }
            if pressure {
                self.wb.pressure_flushes += 1;
            } else {
                self.wb.opportunistic_flushes += 1;
            }
            self.journal.push(DurabilityEvent::FlushIssued {
                id,
                line: l,
                tenant,
                wal,
                at: now,
            });
            self.trace.record(
                now,
                self.ssd,
                Some(tenant),
                EventKind::CacheFlushIssued { id, line: l },
            );
            out.push(FlushIo {
                id,
                tenant,
                lba: l,
                len: BLOCK_SIZE as u32,
                wal,
            });
        }
    }

    /// Earliest virtual time at which [`Self::take_flushes`] would produce
    /// work, given current classifier state — `None` when the flusher is
    /// idle, saturated, stopped, or write-through. A past instant means
    /// "due now"; the pipeline clamps to its current time. Pure: calling it
    /// never mutates the cache, so the pipeline can poll it when computing
    /// its next event time.
    pub fn next_flush_due(&self) -> Option<SimTime> {
        if self.cfg.write_policy != WritePolicy::Back || self.dead {
            return None;
        }
        if self.flights.len() >= FLUSH_BATCH {
            return None;
        }
        let opportunistic = self.state == CongState::Underutilized;
        let mut due: Option<SimTime> = None;
        for (t, p) in self.tenants.iter() {
            let mut oldest: Option<SimTime> = None;
            for &(l, at, w) in &p.wal_q {
                if Self::queue_entry_valid(&self.lines, *t, l, Some(w))
                    && oldest.is_none_or(|o| at < o)
                {
                    oldest = Some(at);
                }
            }
            for &(l, at) in &p.data_q {
                if Self::queue_entry_valid(&self.lines, *t, l, None)
                    && oldest.is_none_or(|o| at < o)
                {
                    oldest = Some(at);
                }
            }
            let Some(oldest) = oldest else { continue };
            let t_due = if opportunistic || p.over_watermark() {
                oldest
            } else {
                oldest + FLUSH_MAX_AGE
            };
            if due.is_none_or(|d| t_due < d) {
                due = Some(t_due);
            }
        }
        due
    }

    /// A flush write completed at the device. Success with an unchanged
    /// dirty epoch cleans the line (it is durable on flash); a transient
    /// failure or an epoch mismatch (the line was re-dirtied while the
    /// flush was in flight) re-queues it, still dirty. A line superseded or
    /// lost mid-flight just sheds its `flushing` pin.
    pub fn on_flush_completion(&mut self, id: u64, failed: bool, now: SimTime) {
        let Some(fl) = self.flights.remove(&id) else {
            // Power loss or device death already drained this flight.
            return;
        };
        let Some(line) = self.lines.get_mut(&fl.line) else {
            return;
        };
        line.flushing = false;
        if !line.dirty {
            return;
        }
        let owner = line.tenant;
        if !failed && line.dirty_epoch == fl.epoch {
            line.dirty = false;
            line.wal = None;
            self.tenants
                .get_mut(&owner)
                .expect("owner registered")
                .dirty -= 1;
            self.wb.flushed_lines += 1;
            self.journal.push(DurabilityEvent::Cleaned {
                line: fl.line,
                tenant: owner,
                at: now,
            });
            self.trace.record(
                now,
                self.ssd,
                Some(owner),
                EventKind::CacheFlushDone {
                    id,
                    line: fl.line,
                    requeued: false,
                },
            );
            return;
        }
        let wal = line.wal;
        let p = self.tenants.get_mut(&owner).expect("owner registered");
        Self::enqueue_dirty(p, fl.line, now, wal);
        self.wb.requeued_lines += 1;
        self.journal.push(DurabilityEvent::Requeued {
            line: fl.line,
            tenant: owner,
            wal,
            at: now,
        });
        self.trace.record(
            now,
            self.ssd,
            Some(owner),
            EventKind::CacheFlushDone {
                id,
                line: fl.line,
                requeued: true,
            },
        );
    }

    /// Surface every dirty line as a [`StagedWriteLoss`] (one aggregated
    /// record per tenant, `cmd` = [`LOSS_EVENT_CMD`], `dirty` = true) and
    /// journal a `Lost` entry per line. Lines become clean; flush queues
    /// drain. Returns the number of lines lost.
    fn surface_dirty_losses(&mut self, now: SimTime) -> u32 {
        let mut lost: Vec<(u64, TenantId, Option<u64>)> = Vec::new();
        for (l, line) in self.lines.iter_mut() {
            if line.dirty {
                lost.push((*l, line.tenant, line.wal));
                line.dirty = false;
                line.dirty_epoch = line.dirty_epoch.saturating_add(1);
                line.flushing = false;
                line.wal = None;
            }
        }
        for &(l, t, wal) in &lost {
            self.journal.push(DurabilityEvent::Lost {
                line: l,
                tenant: t,
                wal,
                at: now,
            });
        }
        let mut per_tenant: DetMap<TenantId, u32> = DetMap::new();
        for &(_, t, _) in &lost {
            match per_tenant.get_mut(&t) {
                Some(n) => *n += 1,
                None => {
                    per_tenant.insert(t, 1);
                }
            }
        }
        for (t, n) in per_tenant.iter() {
            self.wb.lost_lines += u64::from(*n);
            self.stats.staged_losses += u64::from(*n);
            self.losses.push(StagedWriteLoss {
                cmd: LOSS_EVENT_CMD,
                tenant: *t,
                ssd: self.ssd,
                lines_lost: *n,
                at: now,
                dirty: true,
            });
            self.trace.record(
                now,
                self.ssd,
                Some(*t),
                EventKind::CacheStagedLoss {
                    cmd: LOSS_EVENT_CMD,
                    lines: *n,
                },
            );
        }
        for p in self.tenants.values_mut() {
            p.dirty = 0;
            p.wal_q.clear();
            p.data_q.clear();
        }
        lost.len() as u32
    }

    /// The device died. Write-back only: every acked-but-unflushed line is
    /// surfaced as a dirty-tagged [`StagedWriteLoss`] (it can never reach
    /// flash), the flusher stops for good, and subsequent writes pass
    /// through (to fail at the device like every other command). The DRAM
    /// copies stay resident and clean — reads may still hit them.
    pub fn on_device_death(&mut self, now: SimTime) {
        if self.cfg.write_policy != WritePolicy::Back || self.dead {
            return;
        }
        self.dead = true;
        self.journal.push(DurabilityEvent::DeviceDeath { at: now });
        let lost = self.surface_dirty_losses(now);
        self.flights.clear();
        self.trace.record(
            now,
            self.ssd,
            None,
            EventKind::CacheDeviceDeath { lines_lost: lost },
        );
    }

    /// Simulated power loss: NIC DRAM goes cold. Under write-back every
    /// dirty line is first surfaced as a dirty-tagged [`StagedWriteLoss`]
    /// (marker-then-losses in the journal); under either policy the whole
    /// line table, segment FIFOs, and ghost queues clear. Counters are sim
    /// bookkeeping and survive. The device itself is unaffected.
    pub fn power_loss(&mut self, now: SimTime) {
        let mut lost = 0;
        if self.cfg.write_policy == WritePolicy::Back {
            self.wb.power_losses += 1;
            self.journal.push(DurabilityEvent::PowerLoss { at: now });
            lost = self.surface_dirty_losses(now);
            self.flights.clear();
        }
        self.lines.clear();
        for p in self.tenants.values_mut() {
            p.resident_small = 0;
            p.resident_main = 0;
            p.small.clear();
            p.main.clear();
            p.ghost_set.clear();
            p.ghost_fifo.clear();
            p.dirty = 0;
            p.wal_q.clear();
            p.data_q.clear();
        }
        self.trace.record(
            now,
            self.ssd,
            None,
            EventKind::CachePowerLoss { lines_lost: lost },
        );
    }

    /// A device write completed. Success commits staged lines (clears
    /// dirty); failure drops them and surfaces a typed [`StagedWriteLoss`].
    /// Under write-back this is a pass-through completion and reconciles
    /// resident lines instead: a successful write supersedes a dirty line
    /// (flash now holds newer data — nothing left to flush), a clean line
    /// absorbs it in place, and a failed write changes nothing.
    pub fn on_write_completion(&mut self, cmd: &NvmeCmd, failed: bool, now: SimTime) {
        if self.cfg.write_policy == WritePolicy::Back {
            self.reconcile_passthrough(cmd, failed, now);
            return;
        }
        let (s, e) = self.line_range(cmd);
        if !failed {
            for l in s..e {
                if let Some(line) = self.lines.get_mut(&l) {
                    line.dirty = false;
                }
            }
            return;
        }
        let mut lost = 0u32;
        for l in s..e {
            if self.lines.get(&l).is_some_and(|line| line.dirty) {
                self.invalidate_line(l, now);
                lost += 1;
            }
        }
        if lost > 0 {
            self.stats.staged_losses += u64::from(lost);
            self.losses.push(StagedWriteLoss {
                cmd: cmd.id.0,
                tenant: cmd.tenant,
                ssd: cmd.ssd,
                lines_lost: lost,
                at: now,
                dirty: false,
            });
            self.trace.record(
                now,
                self.ssd,
                Some(cmd.tenant),
                EventKind::CacheStagedLoss {
                    cmd: cmd.id.0,
                    lines: lost,
                },
            );
        }
    }

    /// Write-back reconciliation for a pass-through device write (see
    /// [`Self::on_write_completion`]).
    fn reconcile_passthrough(&mut self, cmd: &NvmeCmd, failed: bool, now: SimTime) {
        if failed {
            // The device rejected the write; resident copies (clean ones
            // match flash, dirty ones are still ahead of it) stay valid.
            return;
        }
        let (s, e) = self.line_range(cmd);
        for l in s..e {
            let Some(line) = self.lines.get_mut(&l) else {
                continue;
            };
            line.accessed = true;
            if line.dirty {
                // Flash now holds newer data than the acked DRAM copy: the
                // dirty line is superseded, nothing left to flush.
                line.dirty = false;
                line.dirty_epoch = line.dirty_epoch.saturating_add(1);
                line.wal = None;
                let owner = line.tenant;
                self.tenants
                    .get_mut(&owner)
                    .expect("owner registered")
                    .dirty -= 1;
                self.wb.superseded_lines += 1;
                self.journal.push(DurabilityEvent::Superseded {
                    line: l,
                    tenant: owner,
                    at: now,
                });
            }
            // A clean line absorbs the write in place.
        }
    }

    /// A device read completed: feed the congestion classifier and, if the
    /// admission law allows, fill the missing lines.
    pub fn on_read_completion(
        &mut self,
        cmd: &NvmeCmd,
        device_latency: SimDuration,
        failed: bool,
        now: SimTime,
    ) {
        if failed {
            return;
        }
        self.observe_device_latency(device_latency, cmd.tenant, now);
        let ghost_only = match self.cfg.policy {
            AdmissionPolicy::Never => {
                self.stats.bypassed += 1;
                return;
            }
            AdmissionPolicy::Always => false,
            AdmissionPolicy::CongestionAware => match self.state {
                // Device under pressure: shed load onto DRAM aggressively.
                CongState::Congested | CongState::Overloaded => false,
                // Middle band: only lines with proven reuse (ghost hits).
                CongState::CongestionAvoidance => true,
                // Clean device: the hit path would only add overhead.
                CongState::Underutilized => {
                    self.stats.bypassed += 1;
                    return;
                }
            },
        };
        let (s, e) = self.line_range(cmd);
        let mut filled = 0u32;
        let mut ghost_hits = 0u32;
        for l in s..e {
            if self.lines.contains_key(&l) {
                continue;
            }
            let ghost_hit = self
                .tenants
                .get_mut(&cmd.tenant)
                .is_some_and(|p| p.ghost_set.remove(&l));
            if ghost_only && !ghost_hit {
                continue;
            }
            if !self.insert_line(cmd.tenant, l, ghost_hit, now) {
                // Write-back: the partition is wall-to-wall dirty; a read
                // fill cannot displace pinned lines.
                continue;
            }
            filled += 1;
            if ghost_hit {
                ghost_hits += 1;
            }
        }
        if filled > 0 {
            self.stats.fills += u64::from(filled);
            self.stats.ghost_hits += u64::from(ghost_hits);
            self.trace.record(
                now,
                self.ssd,
                Some(cmd.tenant),
                EventKind::CacheFill {
                    lines: filled,
                    ghost_hits,
                },
            );
        } else {
            self.stats.bypassed += 1;
        }
    }

    /// Fold the EWMA and reclassify. The dynamic threshold drifts toward
    /// the observed latency while the device is clean, springs toward the
    /// ceiling midpoint while congested, and pins at the ceiling when
    /// overloaded — a simplified, deterministic cousin of Alg. 1 that keeps
    /// the admission law self-tuning without touching the policy's own
    /// monitors (which a hit never reaches).
    fn observe_device_latency(&mut self, lat: SimDuration, tenant: TenantId, now: SimTime) {
        let us = lat.as_micros_f64();
        if self.seen_sample {
            self.ewma_us = EWMA_ALPHA * us + (1.0 - EWMA_ALPHA) * self.ewma_us;
        } else {
            self.ewma_us = us;
            self.seen_sample = true;
        }
        let min = THRESH_MIN.as_micros_f64();
        let max = THRESH_MAX.as_micros_f64();
        let next = if self.ewma_us >= max {
            CongState::Overloaded
        } else if self.ewma_us >= self.thresh_us {
            CongState::Congested
        } else if self.ewma_us >= min {
            CongState::CongestionAvoidance
        } else {
            CongState::Underutilized
        };
        self.thresh_us = match next {
            CongState::Overloaded => max,
            CongState::Congested => (self.thresh_us + max) / 2.0,
            _ => (7.0 * self.thresh_us + self.ewma_us.max(min)) / 8.0,
        }
        .clamp(min, max);
        if next != self.state {
            self.stats.admit_toggles += 1;
            self.trace.record(
                now,
                self.ssd,
                Some(tenant),
                EventKind::CacheAdmitToggle {
                    from: self.state,
                    to: next,
                },
            );
            self.state = next;
        }
    }

    /// Insert a line into the tenant's partition, evicting within that
    /// partition first if it is at budget. Ghost hits land in the main
    /// segment (proven reuse); everything else starts in probation. Returns
    /// false without inserting when eviction cannot make room — possible
    /// only under write-back, where dirty lines are pinned; write-through
    /// partitions always hold an evictable line at budget.
    fn insert_line(&mut self, tenant: TenantId, l: u64, to_main: bool, now: SimTime) -> bool {
        loop {
            let at_budget = self
                .tenants
                .get(&tenant)
                .is_some_and(|p| p.resident() >= p.budget_lines);
            if !at_budget {
                break;
            }
            if !self.evict_one(tenant, now) {
                return false;
            }
        }
        let inc = self.next_incarnation;
        self.next_incarnation += 1;
        self.lines.insert(
            l,
            Line {
                tenant,
                seg: if to_main {
                    Segment::Main
                } else {
                    Segment::Small
                },
                incarnation: inc,
                accessed: false,
                dirty: false,
                dirty_epoch: 0,
                dirtied_at: now,
                flushing: false,
                wal: None,
            },
        );
        if let Some(p) = self.tenants.get_mut(&tenant) {
            if to_main {
                p.resident_main += 1;
                p.main.push_back((l, inc));
            } else {
                p.resident_small += 1;
                p.small.push_back((l, inc));
            }
        }
        true
    }

    /// Evict one line from `tenant`'s partition. The small segment is
    /// drained while it exceeds its share; otherwise the main segment goes
    /// first. Returns false when nothing evictable remains.
    fn evict_one(&mut self, tenant: TenantId, now: SimTime) -> bool {
        let prefer_small = self.tenants.get(&tenant).is_some_and(|p| {
            let small_share = (p.budget_lines * SMALL_PERCENT / 100).max(1);
            p.resident_small >= small_share || p.resident_main == 0
        });
        // Order matters: eviction mutates the segments, so the fallback is a
        // real second attempt, not a commutative `||`.
        let order: [fn(&mut Self, TenantId, SimTime) -> bool; 2] = if prefer_small {
            [Self::evict_from_small, Self::evict_from_main]
        } else {
            [Self::evict_from_main, Self::evict_from_small]
        };
        if order.into_iter().any(|seg| seg(self, tenant, now)) {
            return true;
        }
        // A failed small scan may still have *promoted* accessed clean lines
        // into main. When main ran first those promotions were never
        // considered, which under write-back can strand the only evictable
        // line (everything else dirty-pinned); one more main pass closes the
        // gap, and an all-dirty main still terminates its bounded scan.
        !prefer_small && Self::evict_from_main(self, tenant, now)
    }

    /// Pop the probation FIFO: a touched line is promoted to main, a cold
    /// line is evicted and remembered in the ghost queue.
    fn evict_from_small(&mut self, tenant: TenantId, now: SimTime) -> bool {
        let pinned_dirty = self.cfg.write_policy == WritePolicy::Back;
        let ghost_cap = self
            .tenants
            .get(&tenant)
            .map_or(1, |p| (p.budget_lines * GHOST_PERCENT / 100).max(1));
        // Dirty lines rotate to the tail rather than evict. A full lap of
        // *consecutive* dirty rotations means every live entry is pinned —
        // only then is giving up correct (a fixed rotation budget can be
        // exhausted re-visiting dirty lines that promotions or second
        // chances rotated back in front of an evictable one).
        let mut consec_dirty = 0usize;
        loop {
            let Some(p) = self.tenants.get_mut(&tenant) else {
                return false;
            };
            let Some((l, inc)) = p.small.pop_front() else {
                return false;
            };
            let Some(line) = self.lines.get_mut(&l) else {
                continue; // stale entry: the line was invalidated
            };
            if line.incarnation != inc {
                continue; // stale entry: the id was refilled later
            }
            if pinned_dirty && line.dirty {
                p.small.push_back((l, inc));
                consec_dirty += 1;
                if consec_dirty > p.small.len() {
                    return false;
                }
                continue;
            }
            consec_dirty = 0;
            if line.accessed {
                line.accessed = false;
                line.seg = Segment::Main;
                p.resident_small -= 1;
                p.resident_main += 1;
                p.main.push_back((l, inc));
                continue;
            }
            self.lines.remove(&l);
            p.resident_small -= 1;
            if p.ghost_set.insert(l) {
                p.ghost_fifo.push_back(l);
            }
            while p.ghost_set.len() as u64 > ghost_cap {
                match p.ghost_fifo.pop_front() {
                    Some(old) => {
                        p.ghost_set.remove(&old);
                    }
                    None => break,
                }
            }
            self.stats.evictions += 1;
            self.trace.record(
                now,
                self.ssd,
                Some(tenant),
                EventKind::CacheEvict {
                    line: l,
                    to_ghost: true,
                },
            );
            return true;
        }
    }

    /// Pop the main FIFO with second chance: a touched line goes back to
    /// the tail untouched-bit-cleared; chances are bounded by the queue
    /// length so the scan terminates even when everything is hot.
    fn evict_from_main(&mut self, tenant: TenantId, now: SimTime) -> bool {
        let pinned_dirty = self.cfg.write_policy == WritePolicy::Back;
        let mut chances = self.tenants.get(&tenant).map_or(0, |p| p.main.len());
        // See evict_from_small: only a full lap of consecutive dirty
        // rotations proves the queue holds nothing evictable.
        let mut consec_dirty = 0usize;
        loop {
            let Some(p) = self.tenants.get_mut(&tenant) else {
                return false;
            };
            let Some((l, inc)) = p.main.pop_front() else {
                return false;
            };
            let Some(line) = self.lines.get_mut(&l) else {
                continue;
            };
            if line.incarnation != inc {
                continue;
            }
            if pinned_dirty && line.dirty {
                p.main.push_back((l, inc));
                consec_dirty += 1;
                if consec_dirty > p.main.len() {
                    return false;
                }
                continue;
            }
            consec_dirty = 0;
            if line.accessed && chances > 0 {
                chances -= 1;
                line.accessed = false;
                p.main.push_back((l, inc));
                continue;
            }
            self.lines.remove(&l);
            p.resident_main -= 1;
            self.stats.evictions += 1;
            self.trace.record(
                now,
                self.ssd,
                Some(tenant),
                EventKind::CacheEvict {
                    line: l,
                    to_ghost: false,
                },
            );
            return true;
        }
    }

    /// Drop a resident line (staged loss of a failed write). Never
    /// reached for a write-back dirty line: those are pinned and only leave
    /// via flush, supersede, or surfaced loss.
    fn invalidate_line(&mut self, l: u64, now: SimTime) {
        let Some(line) = self.lines.remove(&l) else {
            return;
        };
        debug_assert!(
            !(self.cfg.write_policy == WritePolicy::Back && line.dirty),
            "invalidated an acked write-back line: silent loss"
        );
        if let Some(p) = self.tenants.get_mut(&line.tenant) {
            match line.seg {
                Segment::Small => p.resident_small -= 1,
                Segment::Main => p.resident_main -= 1,
            }
        }
        self.stats.invalidations += 1;
        self.trace.record(
            now,
            self.ssd,
            Some(line.tenant),
            EventKind::CacheEvict {
                line: l,
                to_ghost: false,
            },
        );
    }
}

#[cfg(test)]
impl SsdCache {
    /// Current congestion regime of the admission classifier.
    pub(crate) fn congestion_state(&self) -> CongState {
        self.state
    }

    /// Fold the full cache state — line table, partitions, classifier,
    /// counters, losses — into `d`. Joins the double-run identity checks.
    pub(crate) fn fold_into(&self, d: &mut Digest) {
        // Write-back state folds only when the policy is `Back`, keeping a
        // `Through` cache's digest stream bit-identical to the tier before
        // write-back existed ("off ≡ absent").
        let back = self.cfg.write_policy == WritePolicy::Back;
        d.update_u64(self.cfg.policy.rank());
        d.update_u64(self.cap_lines);
        d.update_u64(self.lines.len() as u64);
        for (l, line) in self.lines.iter() {
            d.update_u64(*l);
            d.update_u64(line.tenant.index() as u64);
            d.update_u64(match line.seg {
                Segment::Small => 0,
                Segment::Main => 1,
            });
            d.update_u64(line.incarnation);
            d.update_u64(u64::from(line.accessed));
            d.update_u64(u64::from(line.dirty));
            if back {
                d.update_u64(line.dirty_epoch);
                d.update_u64(line.dirtied_at.as_nanos());
                d.update_u64(u64::from(line.flushing));
                match line.wal {
                    Some(w) => {
                        d.update_u64(1);
                        d.update_u64(w);
                    }
                    None => {
                        d.update_u64(0);
                    }
                }
            }
        }
        d.update_u64(self.tenants.len() as u64);
        for (t, p) in self.tenants.iter() {
            d.update_u64(t.index() as u64);
            d.update_u64(u64::from(p.weight));
            d.update_u64(p.budget_lines);
            d.update_u64(p.resident_small);
            d.update_u64(p.resident_main);
            d.update_u64(p.ghost_fifo.len() as u64);
            for g in &p.ghost_fifo {
                d.update_u64(*g);
            }
            if back {
                d.update_u64(p.dirty);
                d.update_u64(p.wal_q.len() as u64);
                for &(l, at, w) in &p.wal_q {
                    d.update_u64(l);
                    d.update_u64(at.as_nanos());
                    d.update_u64(w);
                }
                d.update_u64(p.data_q.len() as u64);
                for &(l, at) in &p.data_q {
                    d.update_u64(l);
                    d.update_u64(at.as_nanos());
                }
            }
        }
        d.update_f64(self.ewma_us);
        d.update_f64(self.thresh_us);
        d.update_u64(u64::from(self.state.rank()));
        self.stats().fold_into(d);
        d.update_u64(self.losses.len() as u64);
        for loss in &self.losses {
            loss.fold_into(d);
        }
        if back {
            d.update_u64(WritePolicy::Back.rank());
            d.update_u64(u64::from(self.dead));
            d.update_u64(self.next_flush);
            self.write_back_stats().fold_into(d);
            d.update_u64(self.flights.len() as u64);
            for (id, f) in self.flights.iter() {
                d.update_u64(*id);
                d.update_u64(f.line);
                d.update_u64(f.tenant.index() as u64);
                d.update_u64(f.epoch);
                match f.wal {
                    Some(w) => {
                        d.update_u64(1);
                        d.update_u64(w);
                    }
                    None => {
                        d.update_u64(0);
                    }
                }
            }
            self.journal.fold_into(d);
        }
    }
}

#[cfg(test)]
impl WritePolicy {
    /// Stable rank for digest folding.
    const fn rank(self) -> u64 {
        match self {
            WritePolicy::Through => 0,
            WritePolicy::Back => 1,
        }
    }
}

#[cfg(test)]
impl AdmissionPolicy {
    /// Stable rank for digest folding.
    const fn rank(self) -> u64 {
        match self {
            AdmissionPolicy::Always => 0,
            AdmissionPolicy::CongestionAware => 1,
            AdmissionPolicy::Never => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::{CmdId, IoType};

    fn cmd(id: u64, tenant: u32, op: IoType, lba: u64, len: u32) -> NvmeCmd {
        NvmeCmd {
            id: CmdId(id),
            tenant: TenantId(tenant),
            ssd: SsdId(0),
            opcode: op,
            lba,
            len,
            priority: Priority::NORMAL,
            issued_at: SimTime::ZERO,
            wal: None,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn small_cache(lines: u64, policy: AdmissionPolicy) -> SsdCache {
        SsdCache::new(
            SsdId(0),
            CacheConfig {
                capacity_bytes: lines * 4096,
                policy,
                ..CacheConfig::default()
            },
        )
    }

    /// Read lba and let it fill unconditionally.
    fn read_and_fill(c: &mut SsdCache, id: u64, tenant: u32, lba: u64) -> bool {
        let r = cmd(id, tenant, IoType::Read, lba, 4096);
        let hit = c.try_read_hit(&r, t(id));
        if !hit {
            c.on_read_completion(&r, SimDuration::from_micros(80), false, t(id));
        }
        hit
    }

    #[test]
    fn eviction_is_fifo_over_cold_lines_and_promotes_hot_ones() {
        let mut c = small_cache(4, AdmissionPolicy::Always);
        for (i, lba) in [0u64, 1, 2, 3].into_iter().enumerate() {
            assert!(!read_and_fill(&mut c, i as u64, 0, lba));
        }
        // Touch line 0 so it is promoted instead of evicted.
        assert!(read_and_fill(&mut c, 10, 0, 0));
        // Two more distinct lines force two evictions: 1 then 2 (FIFO),
        // while 0 survives via promotion.
        assert!(!read_and_fill(&mut c, 11, 0, 4));
        assert!(!read_and_fill(&mut c, 12, 0, 5));
        assert!(read_and_fill(&mut c, 13, 0, 0), "hot line survived");
        let s = c.stats();
        assert!(s.evictions >= 2);
        // The evicted cold lines miss again.
        assert!(!read_and_fill(&mut c, 14, 0, 1));
    }

    #[test]
    fn ghost_hits_readmit_to_main() {
        let mut c = small_cache(2, AdmissionPolicy::Always);
        assert!(!read_and_fill(&mut c, 0, 0, 0));
        assert!(!read_and_fill(&mut c, 1, 0, 1));
        assert!(!read_and_fill(&mut c, 2, 0, 2)); // evicts 0 into the ghost queue
        assert!(!read_and_fill(&mut c, 3, 0, 0)); // ghost hit on refill
        assert!(c.stats().ghost_hits >= 1);
        assert!(read_and_fill(&mut c, 4, 0, 0), "ghost-hit line resident");
    }

    #[test]
    fn partitions_isolate_tenants() {
        // Equal priorities, 8 lines: each tenant owns 4. Tenant 1 flooding
        // must not evict tenant 0's resident lines.
        let mut c = small_cache(8, AdmissionPolicy::Always);
        for lba in 0..4u64 {
            read_and_fill(&mut c, lba, 0, lba);
        }
        for i in 0..64u64 {
            read_and_fill(&mut c, 100 + i, 1, 1000 + i);
        }
        for lba in 0..4u64 {
            assert!(
                read_and_fill(&mut c, 200 + lba, 0, lba),
                "tenant 0 line {lba} evicted by tenant 1's flood"
            );
        }
    }

    #[test]
    fn weighted_budgets_mirror_drr_weights() {
        let mut c = small_cache(70, AdmissionPolicy::Always);
        let mut hi = cmd(0, 0, IoType::Read, 0, 4096);
        hi.priority = Priority::HIGH;
        let mut lo = cmd(1, 1, IoType::Read, 10, 4096);
        lo.priority = Priority::LOW;
        c.try_read_hit(&hi, t(0));
        c.try_read_hit(&lo, t(1));
        let hi_budget = c.tenants.get(&TenantId(0)).unwrap().budget_lines;
        let lo_budget = c.tenants.get(&TenantId(1)).unwrap().budget_lines;
        assert_eq!(hi_budget, 70 * 4 / 5);
        assert_eq!(lo_budget, 70 / 5);
    }

    #[test]
    fn covering_write_stages_in_place() {
        let mut c = small_cache(16, AdmissionPolicy::Always);
        // Fill lines 0 and 1 via a miss completion.
        let r = cmd(0, 0, IoType::Read, 0, 8192);
        assert!(!c.try_read_hit(&r, t(0)));
        c.on_read_completion(&r, SimDuration::from_micros(80), false, t(0));
        assert!(c.try_read_hit(&r, t(1)));

        // A write stages in place: still a hit, marked dirty.
        let w = cmd(1, 0, IoType::Write, 0, 8192);
        c.stage_write(&w, t(2));
        assert_eq!(c.stats().staged, 2);
        assert!(c.try_read_hit(&r, t(3)));
        c.on_write_completion(&w, false, t(4));
        assert!(c.losses().is_empty());
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn failed_write_with_staged_lines_surfaces_typed_loss() {
        let mut c = small_cache(8, AdmissionPolicy::Always);
        read_and_fill(&mut c, 0, 0, 0);
        let w = cmd(1, 0, IoType::Write, 0, 4096);
        c.stage_write(&w, t(1));
        assert_eq!(c.stats().staged, 1);
        c.on_write_completion(&w, true, t(2));
        assert_eq!(c.losses().len(), 1);
        let loss = c.losses()[0];
        assert_eq!(loss.cmd, 1);
        assert_eq!(loss.tenant, TenantId(0));
        assert_eq!(loss.lines_lost, 1);
        assert_eq!(c.stats().staged_losses, 1);
        // The stale line is gone: the next read misses.
        assert!(!c.try_read_hit(&cmd(2, 0, IoType::Read, 0, 4096), t(3)));
    }

    #[test]
    fn congestion_aware_admission_follows_the_classifier() {
        let mut c = small_cache(64, AdmissionPolicy::CongestionAware);
        let r = cmd(0, 0, IoType::Read, 0, 4096);
        // Clean device (fast completions): bypass, no fill.
        assert!(!c.try_read_hit(&r, t(0)));
        c.on_read_completion(&r, SimDuration::from_micros(80), false, t(0));
        assert_eq!(c.congestion_state(), CongState::Underutilized);
        assert_eq!(c.stats().fills, 0);
        assert!(c.stats().bypassed >= 1);

        // Sustained slow completions push the classifier to Overloaded and
        // open admission.
        for i in 0..32u64 {
            let ri = cmd(10 + i, 0, IoType::Read, 100 + i, 4096);
            assert!(!c.try_read_hit(&ri, t(10 + i)));
            c.on_read_completion(&ri, SimDuration::from_micros(2000), false, t(10 + i));
        }
        assert_eq!(c.congestion_state(), CongState::Overloaded);
        assert!(c.stats().fills > 0, "congestion opened admission");
        assert!(c.stats().admit_toggles >= 1);
        // Admitted lines now hit.
        assert!(c.try_read_hit(&cmd(99, 0, IoType::Read, 131, 4096), t(99)));
    }

    #[test]
    fn double_run_digest_identity() {
        let run = || {
            let mut c = small_cache(8, AdmissionPolicy::CongestionAware);
            for i in 0..200u64 {
                let lba = (i * 7) % 16;
                let op = if i % 5 == 0 {
                    IoType::Write
                } else {
                    IoType::Read
                };
                let k = cmd(i, (i % 3) as u32, op, lba, 4096);
                match op {
                    IoType::Read => {
                        if !c.try_read_hit(&k, t(i)) {
                            let lat = SimDuration::from_micros(100 + (i % 9) * 300);
                            c.on_read_completion(&k, lat, false, t(i));
                        }
                    }
                    IoType::Write => {
                        c.stage_write(&k, t(i));
                        c.on_write_completion(&k, i % 17 == 0, t(i));
                    }
                }
            }
            let mut d = Digest::new();
            c.fold_into(&mut d);
            d.value()
        };
        assert_eq!(run(), run());
    }

    fn wb_cache(lines: u64) -> SsdCache {
        SsdCache::new(
            SsdId(0),
            CacheConfig {
                capacity_bytes: lines * 4096,
                policy: AdmissionPolicy::Always,
                write_policy: WritePolicy::Back,
            },
        )
    }

    fn wcmd(id: u64, tenant: u32, lba: u64, len: u32, wal: Option<u64>) -> NvmeCmd {
        let mut c = cmd(id, tenant, IoType::Write, lba, len);
        c.wal = wal;
        c
    }

    #[test]
    fn write_back_ack_then_flush_cleans_the_line() {
        let mut c = wb_cache(8);
        assert!(c.write_back_ack(&wcmd(0, 0, 0, 4096, None), t(0)));
        let wb = c.write_back_stats();
        assert_eq!((wb.acked, wb.acked_lines, wb.dirty_lines), (1, 1, 1));
        // Fresh classifier state is Underutilized ⇒ opportunistic flush.
        let out = c.take_flushes(t(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, FLUSH_ID_BASE);
        assert!(is_flush_id(out[0].id));
        assert_eq!((out[0].lba, out[0].len, out[0].wal), (0, 4096, None));
        // Saturating the in-flight cap: nothing more to take.
        assert!(c.take_flushes(t(1)).is_empty());
        c.on_flush_completion(out[0].id, false, t(2));
        let wb = c.write_back_stats();
        assert_eq!((wb.flushed_lines, wb.dirty_lines, wb.lost_lines), (1, 0, 0));
        assert_eq!(wb.opportunistic_flushes, 1);
        assert!(wb.conservation_holds(), "{wb:?}");
        // The flushed line stays resident and clean: reads hit it.
        assert!(c.try_read_hit(&cmd(9, 0, IoType::Read, 0, 4096), t(3)));
    }

    #[test]
    fn write_back_admission_respects_partition_budget() {
        // One tenant owns all 4 lines; a 5-line span cannot be pinned.
        let mut c = wb_cache(4);
        assert!(!c.write_back_ack(&wcmd(0, 0, 0, 5 * 4096, None), t(0)));
        assert_eq!(c.write_back_stats().acked, 0);
        // The caller falls back to pass-through, which is journaled.
        c.stage_write(&wcmd(0, 0, 0, 5 * 4096, None), t(0));
        assert_eq!(c.write_back_stats().passthrough, 1);
        // A 4-line span fits exactly.
        assert!(c.write_back_ack(&wcmd(1, 0, 0, 4 * 4096, None), t(1)));
        assert_eq!(c.write_back_stats().dirty_lines, 4);
        // Dirty lines are unevictable: a fifth line is refused until a flush.
        assert!(!c.write_back_ack(&wcmd(2, 0, 100, 4096, None), t(2)));
        let out = c.take_flushes(t(3));
        for io in &out {
            c.on_flush_completion(io.id, false, t(4));
        }
        assert!(c.write_back_ack(&wcmd(3, 0, 100, 4096, None), t(5)));
        assert!(c.write_back_stats().conservation_holds());
    }

    #[test]
    fn wal_lines_flush_in_tag_order_before_data_lines() {
        let mut c = wb_cache(16);
        // Enqueue out of tag order, plus an earlier-staged data line.
        assert!(c.write_back_ack(&wcmd(0, 0, 40, 4096, None), t(0)));
        assert!(c.write_back_ack(&wcmd(1, 0, 20, 4096, Some(5)), t(1)));
        assert!(c.write_back_ack(&wcmd(2, 0, 30, 4096, Some(4)), t(2)));
        let out = c.take_flushes(t(3));
        let wals: Vec<Option<u64>> = out.iter().map(|f| f.wal).collect();
        assert_eq!(
            wals,
            vec![Some(4), Some(5), None],
            "WAL-tagged lines must drain in tag order ahead of data lines"
        );
        assert_eq!(c.write_back_stats().wal_flush_ios, 2);
    }

    #[test]
    fn flush_epoch_mismatch_requeues_and_reflushes() {
        let mut c = wb_cache(8);
        assert!(c.write_back_ack(&wcmd(0, 0, 0, 4096, None), t(0)));
        let out = c.take_flushes(t(1));
        assert_eq!(out.len(), 1);
        // Re-dirty while the flush is in flight: the completion must not
        // clean the line (DRAM holds newer data than what hit flash).
        assert!(c.write_back_ack(&wcmd(1, 0, 0, 4096, None), t(2)));
        c.on_flush_completion(out[0].id, false, t(3));
        let wb = c.write_back_stats();
        assert_eq!(
            (wb.requeued_lines, wb.flushed_lines, wb.dirty_lines),
            (1, 0, 1)
        );
        // The requeued line flushes again and cleans this time.
        let again = c.take_flushes(t(4));
        assert_eq!(again.len(), 1);
        c.on_flush_completion(again[0].id, false, t(5));
        let wb = c.write_back_stats();
        assert_eq!((wb.flushed_lines, wb.dirty_lines), (1, 0));
        assert!(wb.conservation_holds(), "{wb:?}");
    }

    #[test]
    fn device_death_surfaces_dirty_losses_and_stops_the_flusher() {
        let mut c = wb_cache(8);
        for i in 0..3u64 {
            assert!(c.write_back_ack(&wcmd(i, 0, i, 4096, None), t(i)));
        }
        c.on_device_death(t(10));
        assert_eq!(c.losses().len(), 1);
        let loss = c.losses()[0];
        assert_eq!(loss.cmd, LOSS_EVENT_CMD);
        assert_eq!(loss.tenant, TenantId(0));
        assert_eq!(loss.lines_lost, 3);
        assert!(loss.dirty, "staged-write losses must carry the dirty tag");
        let wb = c.write_back_stats();
        assert_eq!((wb.lost_lines, wb.dirty_lines), (3, 0));
        assert!(wb.conservation_holds(), "{wb:?}");
        // Journal order: marker, then the per-line losses.
        let death = c
            .journal()
            .iter()
            .position(|e| matches!(e, DurabilityEvent::DeviceDeath { .. }))
            .expect("death marker journaled");
        let lost: Vec<usize> = c
            .journal()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, DurabilityEvent::Lost { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(lost.len(), 3);
        assert!(lost.iter().all(|&i| i > death));
        // Dead: no more flushes, no more DRAM acks; writes pass through.
        assert!(c.take_flushes(t(11)).is_empty());
        assert!(!c.write_back_ack(&wcmd(9, 0, 50, 4096, None), t(11)));
        // The DRAM copies stay resident and clean — reads may still hit.
        assert!(c.try_read_hit(&cmd(10, 0, IoType::Read, 0, 4096), t(12)));
    }

    #[test]
    fn power_loss_surfaces_losses_and_goes_cold() {
        let mut c = wb_cache(8);
        assert!(c.write_back_ack(&wcmd(0, 0, 0, 4096, None), t(0)));
        assert!(c.write_back_ack(&wcmd(1, 1, 100, 4096, None), t(1)));
        c.power_loss(t(5));
        // One aggregated record per tenant.
        assert_eq!(c.losses().len(), 2);
        assert!(c.losses().iter().all(|l| l.dirty && l.lines_lost == 1));
        let wb = c.write_back_stats();
        assert_eq!((wb.power_losses, wb.lost_lines, wb.dirty_lines), (1, 2, 0));
        assert!(wb.conservation_holds(), "{wb:?}");
        // DRAM is cold: everything misses.
        assert!(!c.try_read_hit(&cmd(9, 0, IoType::Read, 0, 4096), t(6)));
        // But the cache itself still works: acks resume post-restart.
        assert!(c.write_back_ack(&wcmd(10, 0, 0, 4096, None), t(7)));
    }

    #[test]
    fn power_loss_under_write_through_clears_without_losses() {
        let mut c = small_cache(8, AdmissionPolicy::Always);
        read_and_fill(&mut c, 0, 0, 0);
        c.power_loss(t(5));
        assert!(c.losses().is_empty());
        assert_eq!(c.write_back_stats().power_losses, 0);
        assert!(!c.try_read_hit(&cmd(9, 0, IoType::Read, 0, 4096), t(6)));
    }

    #[test]
    fn passthrough_success_supersedes_a_dirty_line() {
        let mut c = wb_cache(4);
        // Pin the whole partition dirty, then write one of those lbas again:
        // admission refuses (no headroom math changes — the span is resident
        // so new_lines = 0 and it would be accepted; use a fresh lba to force
        // pass-through instead).
        assert!(c.write_back_ack(&wcmd(0, 0, 0, 4 * 4096, None), t(0)));
        // Resident span re-ack is absorbed in DRAM (no new debt).
        assert!(c.write_back_ack(&wcmd(1, 0, 0, 4096, None), t(1)));
        assert_eq!(c.write_back_stats().acked_lines, 4);
        // A fully-covering pass-through write that succeeds at the device
        // supersedes the dirty DRAM copy: flash now holds newer data.
        let pw = wcmd(2, 0, 0, 4096, None);
        c.stage_write(&pw, t(2));
        c.on_write_completion(&pw, false, t(3));
        let wb = c.write_back_stats();
        assert_eq!(wb.superseded_lines, 1);
        assert_eq!(wb.dirty_lines, 3);
        assert!(wb.conservation_holds(), "{wb:?}");
    }

    #[test]
    fn write_back_double_run_digest_identity() {
        let run = || {
            let mut c = wb_cache(8);
            let mut inflight: Vec<u64> = Vec::new();
            for i in 0..300u64 {
                let lba = (i * 7) % 16;
                let wal = (i % 3 == 0).then_some(i);
                let w = wcmd(i, (i % 3) as u32, lba, 4096, wal);
                if !c.write_back_ack(&w, t(i)) {
                    c.stage_write(&w, t(i));
                    c.on_write_completion(&w, i % 17 == 0, t(i));
                }
                for io in c.take_flushes(t(i)) {
                    inflight.push(io.id);
                }
                if i % 4 == 0 {
                    for id in inflight.drain(..) {
                        c.on_flush_completion(id, i % 29 == 0, t(i));
                    }
                }
                if i == 233 {
                    c.power_loss(t(i));
                    inflight.clear();
                }
            }
            assert!(c.write_back_stats().conservation_holds());
            let mut d = Digest::new();
            c.fold_into(&mut d);
            d.value()
        };
        assert_eq!(run(), run());
    }
}
