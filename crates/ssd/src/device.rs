//! The event-driven flash SSD device.
//!
//! Each die is a two-priority op scheduler: **foreground** NAND reads and
//! **background** work (drain programs, GC copies, erase chunks). Reads
//! never wait behind more than the in-service background op — modeling the
//! program/erase *suspend-resume* of modern controllers, which is why a real
//! drive's read latency under GC shows millisecond tails rather than
//! tens-of-millisecond stalls. Background ops are chunked (≤ ~1 ms) to set
//! that preemption granularity.
//!
//! The channel buses and the controller/PCIe link remain non-preemptive
//! busy-until FIFO resources (their service times are microseconds).
//!
//! Writes are acknowledged from the DRAM write buffer and drained to NAND in
//! program-unit batches striped round-robin across dies. When a die's free
//! blocks fall to the GC watermark, greedy garbage collection work (copy
//! reads + copy programs + erase, all chunked) is queued behind that die's
//! background lane — write amplification thus surfaces as background-lane
//! occupancy, squeezing drain throughput and (mildly) read latency, exactly
//! the signals Gimbal's algorithms consume.
//!
//! One modeling shortcut: GC remaps pages *logically* at trigger time while
//! the copy work is paid asynchronously on the die; a read racing the copy
//! may be timed against the new location slightly early. This only shifts
//! sub-millisecond timing, never correctness, and keeps the FTL state
//! machine synchronous.

use crate::buffer::WriteBuffer;
use crate::config::SsdConfig;
use crate::ftl::Ftl;
use crate::stats::SsdStats;
use gimbal_fabric::{IoType, SsdId};
use gimbal_sim::collections::DetMap;
use gimbal_sim::{EventQueue, SimDuration, SimRng, SimTime, SsdFaultSpec};
use gimbal_telemetry::{EventKind, TraceHandle};
use std::collections::VecDeque;

/// A completed storage command, correlated by the caller-supplied tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsdCompletion {
    /// Caller-supplied identifier.
    pub tag: u64,
    /// The opcode.
    pub op: IoType,
    /// Payload length in bytes.
    pub len: u64,
    /// Instant the command was submitted to the device.
    pub submitted_at: SimTime,
    /// Instant the device finished it.
    pub completed_at: SimTime,
    /// Whether the command failed (injected flash failure).
    pub failed: bool,
}

impl SsdCompletion {
    /// Device service latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.since(self.submitted_at)
    }
}

/// The poll-based device interface shared by [`FlashSsd`] and
/// [`crate::NullDevice`]. The storage-switch pipeline drives devices through
/// this trait only.
pub trait StorageDevice {
    /// Submit a command. For writes the payload is assumed already resident
    /// at the target (the NVMe-oF pipeline fetches it before submitting).
    fn submit(&mut self, tag: u64, op: IoType, lba: u64, len: u64, now: SimTime);
    /// Retire internal events due at or before `now`; returns completions in
    /// completion-time order.
    fn poll(&mut self, now: SimTime) -> Vec<SsdCompletion>;
    /// [`Self::poll`] into a caller-recycled buffer (appending in the same
    /// order), so a pipeline polling millions of times does not allocate a
    /// fresh `Vec` per poll. The default delegates to [`Self::poll`];
    /// hot-path devices override both to share one allocation-free drain.
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<SsdCompletion>) {
        out.extend(self.poll(now));
    }
    /// The next instant at which [`Self::poll`] will have work, if any.
    fn next_event_at(&self) -> Option<SimTime>;
    /// Number of submitted-but-not-yet-completed commands.
    fn inflight(&self) -> usize;
    /// Attach a telemetry handle; `ssd` stamps this device's events.
    /// Devices without instrumentation ignore it (the default).
    fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        let _ = (trace, ssd);
    }
    /// Whether the device has permanently failed (injected death). Latches
    /// at the first submit past the fault point; devices without fault
    /// injection never fail (the default). The pipeline's write-back
    /// flusher stops — and surfaces its dirty lines as losses — the moment
    /// this turns true.
    fn is_failed(&self) -> bool {
        false
    }
}

enum Ev {
    /// The op in service on `die` finishes.
    DieOpDone(u32),
    /// A read (or buffered-write) command completes toward the host.
    IoDone(SsdCompletion),
}

enum DieOp {
    /// tR for one NAND page feeding read IO `tag`; `bytes` continue over the
    /// channel + link afterwards.
    ReadChunk { tag: u64, bytes: u64 },
    /// A drain program persisting the buffered pages of this batch of the
    /// program-batch arena.
    Program { batch: u32 },
    /// Chunked GC occupancy (copy reads, copy programs, erase slices).
    GcChunk,
}

struct QueuedOp {
    op: DieOp,
    ready: SimTime,
    dur: SimDuration,
}

#[derive(Default)]
struct Die {
    fg: VecDeque<QueuedOp>,
    bg: VecDeque<QueuedOp>,
    in_service: Option<DieOp>,
    busy: bool,
}

struct ReadIo {
    tag: u64,
    len: u64,
    submitted_at: SimTime,
    remaining_chunks: u32,
    latest_done: SimTime,
}

struct PendingWrite {
    tag: u64,
    lba: u64,
    len: u64,
    submitted_at: SimTime,
}

/// An armed fault profile: the per-SSD spec plus its dedicated draw stream
/// (see [`gimbal_sim::FaultPlan::device_rng`]), kept apart from the device's
/// timing RNG so injection never perturbs fault-free behaviour.
struct FaultState {
    spec: SsdFaultSpec,
    rng: SimRng,
}

/// The flash SSD model. See the crate docs for the behavioural inventory.
pub struct FlashSsd {
    cfg: SsdConfig,
    ftl: Ftl,
    buffer: WriteBuffer,
    dies: Vec<Die>,
    /// Per-channel bus busy horizon.
    chan_busy: Vec<SimTime>,
    /// Controller/PCIe link busy horizons, one per direction (PCIe is full
    /// duplex: device-to-host read data never queues behind host-to-device
    /// write payloads).
    link_out_busy: SimTime,
    link_in_busy: SimTime,
    events: EventQueue<Ev>,
    /// Reads with NAND chunks still in flight, by tag.
    reads: DetMap<u64, ReadIo>,
    /// Writes waiting for buffer space, FIFO.
    pending_writes: VecDeque<PendingWrite>,
    /// Pages admitted to the buffer but not yet batched into a program.
    drain_accum: Vec<u64>,
    /// Program-batch arena: batch `i` is the `slots_per_program` lpns at
    /// `batches[i * unit..][..unit]`. Every batch is exactly one program
    /// unit, so the arena grows by doubling to the buffer's in-flight
    /// high-water mark and never shrinks.
    batches: Vec<u64>,
    /// Indices of arena batches no program holds.
    free_batches: Vec<u32>,
    /// Recycled scratch for one read's NAND chunks, `(die, bytes)`; empty
    /// between submissions.
    read_chunks: Vec<(u32, u64)>,
    /// Recycled scratch for one GC victim's valid logical pages.
    gc_lpns: Vec<u32>,
    /// Round-robin die cursor for drain batches.
    next_die: u32,
    inflight: usize,
    /// Set by the first submission at or after the armed `fail_at` (§4.3's
    /// replication study): every later command completes quickly with an
    /// error.
    failed: bool,
    /// Deterministic fault profile, when armed.
    faults: Option<FaultState>,
    stats: SsdStats,
    rng: SimRng,
    trace: TraceHandle,
    /// SSD id stamped on telemetry events (set by [`StorageDevice::attach_trace`]).
    trace_ssd: SsdId,
}

impl FlashSsd {
    /// Create a device with nothing mapped (reads of unwritten LBAs return
    /// zeros at controller latency).
    pub fn new(cfg: SsdConfig, seed: u64) -> Self {
        cfg.validate();
        let dies = cfg.dies() as usize;
        let channels = cfg.channels as usize;
        let buffer_pages = cfg.write_buffer_bytes / cfg.logical_page_bytes;
        FlashSsd {
            ftl: Ftl::new(&cfg),
            buffer: WriteBuffer::new(buffer_pages),
            dies: (0..dies).map(|_| Die::default()).collect(),
            chan_busy: vec![SimTime::ZERO; channels],
            link_out_busy: SimTime::ZERO,
            link_in_busy: SimTime::ZERO,
            events: EventQueue::new(),
            reads: DetMap::new(),
            pending_writes: VecDeque::new(),
            drain_accum: Vec::new(),
            batches: Vec::new(),
            free_batches: Vec::new(),
            read_chunks: Vec::new(),
            gc_lpns: Vec::new(),
            next_die: 0,
            inflight: 0,
            failed: false,
            faults: None,
            stats: SsdStats::default(),
            rng: SimRng::with_stream(seed, 0x55d),
            trace: TraceHandle::disabled(),
            trace_ssd: SsdId(0),
            cfg,
        }
    }

    /// Device statistics.
    pub fn stats(&self) -> SsdStats {
        let mut s = self.stats;
        s.ftl = self.ftl.counters();
        s
    }

    /// Precondition as a clean drive (§5.1): everything mapped in sequential
    /// stripe order, ample free blocks, counters reset.
    pub fn precondition_clean(&mut self) {
        self.ftl.precondition_clean(self.cfg.slots_per_program());
        self.stats = SsdStats::default();
    }

    /// Precondition as a fragmented drive (§5.1): random placement, dead
    /// space interspersed, free blocks at the GC watermark, counters reset.
    pub fn precondition_fragmented(&mut self) {
        let free = self.cfg.gc_low_watermark;
        self.ftl.precondition_fragmented(free, &mut self.rng);
        self.stats = SsdStats::default();
    }

    /// Whether the armed permanent failure has struck: from then on every
    /// command errors out at controller latency (the scenario §4.3's
    /// replication tolerates).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Arm deterministic fault injection: transient IO errors, GC-storm
    /// stall windows, and scheduled permanent death per `spec`. `rng` should
    /// come from [`gimbal_sim::FaultPlan::device_rng`] so fault draws live on
    /// their own stream and fault-free behaviour is untouched.
    pub fn arm_faults(&mut self, spec: SsdFaultSpec, rng: SimRng) {
        spec.validate();
        self.faults = Some(FaultState { spec, rng });
    }

    /// The instant service of work submitted at `now` may begin: inside an
    /// injected GC-storm window everything defers to the window end. The
    /// device stays responsive — commands complete, just late — so the
    /// congestion controller sees a latency spike, not a black hole.
    fn service_start(&mut self, now: SimTime) -> SimTime {
        let Some(f) = &self.faults else { return now };
        match f.spec.stall_release(now) {
            Some(end) => {
                self.stats.stalled_cmds += 1;
                self.trace.record(
                    now,
                    self.trace_ssd,
                    None,
                    EventKind::SsdStall {
                        release_ns: end.as_nanos(),
                    },
                );
                end
            }
            None => now,
        }
    }

    /// Complete `tag` with an error at controller latency.
    fn fail_fast(&mut self, tag: u64, op: IoType, len: u64, now: SimTime) {
        self.stats.failed_cmds += 1;
        let done = now + self.cfg.controller_overhead;
        self.events.push(
            done,
            Ev::IoDone(SsdCompletion {
                tag,
                op,
                len,
                submitted_at: now,
                completed_at: done,
                failed: true,
            }),
        );
    }

    /// Whether the device is currently GC-busy: an injected GC-storm stall
    /// window covers `now`, or some die is executing or has queued garbage
    /// collection. This is the signal the rack's GC-aware replica chooser
    /// steers around (RackBlox-style routing co-designed with GC state) —
    /// a read sent here now will queue behind copyback/erase occupancy.
    pub fn gc_busy(&self, now: SimTime) -> bool {
        if let Some(f) = &self.faults {
            if f.spec.stall_release(now).is_some() {
                return true;
            }
        }
        self.dies.iter().any(|d| {
            matches!(d.in_service, Some(DieOp::GcChunk))
                || d.bg.iter().any(|q| matches!(q.op, DieOp::GcChunk))
        })
    }

    #[inline]
    fn channel_of(&self, die: u32) -> usize {
        (die / self.cfg.dies_per_channel) as usize
    }

    fn occupy_channel(&mut self, chan: usize, ready: SimTime, bytes: u64) -> SimTime {
        let start = ready.max(self.chan_busy[chan]);
        let done = start + SimDuration::for_bytes(bytes, self.cfg.channel_bandwidth);
        self.chan_busy[chan] = done;
        done
    }

    /// Device→host direction (read data).
    fn occupy_link_out(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        let start = ready.max(self.link_out_busy);
        let done = start + SimDuration::for_bytes(bytes, self.cfg.link_bandwidth);
        self.link_out_busy = done;
        done
    }

    /// Host→device direction (write payloads into the buffer).
    fn occupy_link_in(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        let start = ready.max(self.link_in_busy);
        let done = start + SimDuration::for_bytes(bytes, self.cfg.link_bandwidth);
        self.link_in_busy = done;
        done
    }

    // ------------------------------------------------------------------
    // Die op scheduling (two-priority lanes, preemption at op boundaries)
    // ------------------------------------------------------------------

    fn enqueue_fg(&mut self, die: u32, op: DieOp, ready: SimTime, dur: SimDuration, now: SimTime) {
        self.dies[die as usize]
            .fg
            .push_back(QueuedOp { op, ready, dur });
        self.kick_die(die, now);
    }

    fn enqueue_bg(&mut self, die: u32, op: DieOp, ready: SimTime, dur: SimDuration, now: SimTime) {
        self.dies[die as usize]
            .bg
            .push_back(QueuedOp { op, ready, dur });
        self.kick_die(die, now);
    }

    /// Start the next op on `die` if it is idle: foreground first.
    fn kick_die(&mut self, die: u32, now: SimTime) {
        let d = &mut self.dies[die as usize];
        if d.busy {
            return;
        }
        let Some(q) = d.fg.pop_front().or_else(|| d.bg.pop_front()) else {
            return;
        };
        let start = now.max(q.ready);
        d.busy = true;
        d.in_service = Some(q.op);
        self.events.push(start + q.dur, Ev::DieOpDone(die));
    }

    fn on_die_op_done(&mut self, die: u32, now: SimTime) {
        let d = &mut self.dies[die as usize];
        let op = d.in_service.take().expect("op in service");
        d.busy = false;
        match op {
            DieOp::ReadChunk { tag, bytes } => {
                let chan = self.channel_of(die);
                let chan_done = self.occupy_channel(chan, now, bytes);
                let link_done = self.occupy_link_out(chan_done, bytes);
                let io = self.reads.get_mut(&tag).expect("read in flight");
                io.remaining_chunks -= 1;
                io.latest_done = io.latest_done.max(link_done);
                if io.remaining_chunks == 0 {
                    let io = self.reads.remove(&tag).unwrap();
                    self.events.push(
                        io.latest_done,
                        Ev::IoDone(SsdCompletion {
                            tag: io.tag,
                            op: IoType::Read,
                            len: io.len,
                            submitted_at: io.submitted_at,
                            completed_at: io.latest_done,
                            failed: false,
                        }),
                    );
                }
            }
            DieOp::Program { batch } => self.on_program_done(batch, now),
            DieOp::GcChunk => {}
        }
        self.kick_die(die, now);
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    fn submit_read(&mut self, tag: u64, lba: u64, len: u64, now: SimTime) {
        let ready = self.service_start(now) + self.cfg.controller_overhead;
        let pages = len / self.cfg.logical_page_bytes;

        // Group consecutive logical pages by the physical NAND page they sit
        // on; each distinct NAND page costs one tR on its die.
        let mut chunks = std::mem::take(&mut self.read_chunks);
        let mut i = 0u64;
        while i < pages {
            let lpn = lba + i;
            if self.buffer.contains(lpn) || !self.ftl.is_mapped(lpn) {
                if self.buffer.contains(lpn) {
                    self.stats.buffer_read_hits += 1;
                }
                i += 1;
                continue;
            }
            let addr = self.ftl.translate(lpn).expect("checked mapped");
            let mut chunk_pages = 1u64;
            while i + chunk_pages < pages {
                match self.ftl.translate(lba + i + chunk_pages) {
                    Some(a)
                        if a.die == addr.die
                            && a.block == addr.block
                            && a.nand_page == addr.nand_page =>
                    {
                        chunk_pages += 1;
                    }
                    _ => break,
                }
            }
            chunks.push((addr.die, chunk_pages * self.cfg.logical_page_bytes));
            self.stats.nand_read_chunks += 1;
            i += chunk_pages;
        }

        self.stats.reads += 1;
        self.stats.read_bytes += len;
        if chunks.is_empty() {
            self.read_chunks = chunks;
            // Fully served from the controller (buffer hits / unmapped).
            let done = ready + self.cfg.buffer_read_latency;
            self.events.push(
                done,
                Ev::IoDone(SsdCompletion {
                    tag,
                    op: IoType::Read,
                    len,
                    submitted_at: now,
                    completed_at: done,
                    failed: false,
                }),
            );
            return;
        }
        self.reads.insert(
            tag,
            ReadIo {
                tag,
                len,
                submitted_at: now,
                remaining_chunks: chunks.len() as u32,
                latest_done: ready,
            },
        );
        let t_read = self.cfg.t_read;
        for (die, bytes) in chunks.drain(..) {
            self.enqueue_fg(die, DieOp::ReadChunk { tag, bytes }, ready, t_read, now);
        }
        self.read_chunks = chunks;
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    fn submit_write(&mut self, tag: u64, lba: u64, len: u64, now: SimTime) {
        self.stats.writes += 1;
        self.stats.write_bytes += len;
        let pages = len / self.cfg.logical_page_bytes;
        if self.pending_writes.is_empty() && self.buffer.has_space(pages) {
            self.admit_write(tag, lba, len, now, now);
        } else {
            self.stats.buffer_stalls += 1;
            self.pending_writes.push_back(PendingWrite {
                tag,
                lba,
                len,
                submitted_at: now,
            });
        }
    }

    /// Admit a write's pages into the buffer, schedule drain programs, and
    /// schedule its completion.
    fn admit_write(&mut self, tag: u64, lba: u64, len: u64, submitted_at: SimTime, now: SimTime) {
        let pages = len / self.cfg.logical_page_bytes;
        // Host payload crosses the controller link into the DRAM buffer.
        let ready = self.service_start(now) + self.cfg.controller_overhead;
        let link_done = self.occupy_link_in(ready, len);
        for p in 0..pages {
            self.buffer.admit(lba + p);
            self.drain_accum.push(lba + p);
        }
        self.schedule_full_batches(now);
        let done = link_done + self.cfg.buffer_write_latency;
        self.events.push(
            done,
            Ev::IoDone(SsdCompletion {
                tag,
                op: IoType::Write,
                len,
                submitted_at,
                completed_at: done,
                failed: false,
            }),
        );
    }

    /// Form and schedule as many full program batches as are available.
    fn schedule_full_batches(&mut self, now: SimTime) {
        let unit = self.cfg.slots_per_program() as usize;
        while self.drain_accum.len() >= unit {
            let batch = match self.free_batches.pop() {
                Some(b) => {
                    let at = b as usize * unit;
                    self.batches[at..at + unit].copy_from_slice(&self.drain_accum[..unit]);
                    b
                }
                None => {
                    let b = u32::try_from(self.batches.len() / unit).expect("batch index fits u32");
                    self.batches.extend_from_slice(&self.drain_accum[..unit]);
                    b
                }
            };
            self.drain_accum.drain(..unit);
            self.schedule_program(batch, now);
        }
    }

    fn schedule_program(&mut self, batch: u32, now: SimTime) {
        // Round-robin die choice with a safety invariant: every die keeps at
        // least one free block in reserve for GC's copy destination. A batch
        // may land on a die only if it fits the open block or the die can
        // take a fresh block while keeping that reserve; otherwise the batch
        // steers to the next die (a die's reclaimable space can transiently
        // live elsewhere under striped overwrites).
        let dies = self.cfg.dies();
        let batch_slots = self.cfg.slots_per_program();
        let mut chosen = None;
        for _ in 0..dies {
            let candidate = self.next_die % dies;
            self.next_die = self.next_die.wrapping_add(1);
            self.maybe_gc(candidate, now);
            let fits_open = self.ftl.host_open_space(candidate) >= batch_slots;
            let keeps_reserve = self.ftl.free_blocks(candidate) >= 2;
            if fits_open || keeps_reserve {
                chosen = Some(candidate);
                break;
            }
        }
        // Degraded fallback (cannot occur with sane overprovisioning, but
        // never wedge): the die with the most free blocks.
        let die = chosen.unwrap_or_else(|| {
            (0..dies)
                .max_by_key(|&d| self.ftl.free_blocks(d))
                .expect("at least one die")
        });
        let at = batch as usize * batch_slots as usize;
        for &lpn in &self.batches[at..at + batch_slots as usize] {
            self.ftl.write_to_die(lpn, die, false);
        }
        // The data transfer to the die rides inside the program op (channel
        // contention from writes is second-order; reads still pay it).
        let bytes = u64::from(batch_slots) * self.cfg.logical_page_bytes;
        let dur = self.cfg.t_program + SimDuration::for_bytes(bytes, self.cfg.channel_bandwidth);
        self.enqueue_bg(die, DieOp::Program { batch }, now, dur, now);
    }

    /// If `die` is at the GC watermark, queue greedy collection work on its
    /// background lane — at most one victim per trigger (plus an emergency
    /// loop if the die is about to run dry), chunked so foreground reads
    /// preempt at op boundaries.
    fn maybe_gc(&mut self, die: u32, now: SimTime) {
        loop {
            let free = self.ftl.free_blocks(die);
            if free > self.cfg.gc_low_watermark {
                break;
            }
            if !self.collect_one(die, now) {
                break; // no collectible victim: progress impossible here
            }
            if self.ftl.free_blocks(die) > 1 {
                break;
            }
        }
    }

    /// Collect one victim block on `die`; returns whether a victim was
    /// collected (false = nothing reclaimable on this die right now).
    fn collect_one(&mut self, die: u32, now: SimTime) -> bool {
        let Some(victim) = self.ftl.pick_victim(die) else {
            return false;
        };
        let work = self.ftl.gc_work_into(victim, &mut self.gc_lpns);
        // Copy reads: batches of 4 tRs per chunk.
        let mut reads_left = work.nand_reads;
        while reads_left > 0 {
            let n = reads_left.min(4);
            reads_left -= n;
            self.enqueue_bg(
                die,
                DieOp::GcChunk,
                now,
                self.cfg.t_read.saturating_mul(u64::from(n)),
                now,
            );
        }
        // Copy programs: one chunk per program unit.
        if !self.gc_lpns.is_empty() {
            let unit = self.cfg.slots_per_program() as u64;
            let programs = (self.gc_lpns.len() as u64).div_ceil(unit);
            for _ in 0..programs {
                self.enqueue_bg(die, DieOp::GcChunk, now, self.cfg.t_program, now);
            }
            for &lpn in &self.gc_lpns {
                self.ftl.write_to_die(u64::from(lpn), die, true);
            }
        }
        // Erase, sliced into ≤1 ms suspendable chunks.
        let mut erase_left = self.cfg.t_erase;
        let slice = SimDuration::from_micros(1000);
        while erase_left > SimDuration::ZERO {
            let d = erase_left.min(slice);
            erase_left -= d;
            self.enqueue_bg(die, DieOp::GcChunk, now, d, now);
        }
        // The block is logically free immediately; any program that uses it
        // is queued behind these chunks on the same background lane.
        self.ftl.erase(victim);
        self.ftl.note_collection();
        self.trace
            .record(now, self.trace_ssd, None, EventKind::SsdGc { die });
        true
    }

    fn on_program_done(&mut self, batch: u32, now: SimTime) {
        let unit = self.cfg.slots_per_program() as usize;
        let at = batch as usize * unit;
        for &lpn in &self.batches[at..at + unit] {
            self.buffer.release(lpn);
        }
        self.free_batches.push(batch);
        // Admit pending writes FIFO while space allows.
        while let Some(front) = self.pending_writes.front() {
            let pages = front.len / self.cfg.logical_page_bytes;
            if !self.buffer.has_space(pages) {
                break;
            }
            let w = self.pending_writes.pop_front().unwrap();
            self.admit_write(w.tag, w.lba, w.len, w.submitted_at, now);
        }
    }
}

impl StorageDevice for FlashSsd {
    fn submit(&mut self, tag: u64, op: IoType, lba: u64, len: u64, now: SimTime) {
        assert!(
            len > 0 && len.is_multiple_of(self.cfg.logical_page_bytes),
            "len {len}"
        );
        assert!(
            lba + len / self.cfg.logical_page_bytes <= self.cfg.logical_pages(),
            "IO beyond capacity: lba={lba} len={len}"
        );
        if let Some(f) = &self.faults {
            if !self.failed && f.spec.fail_at.is_some_and(|t| now >= t) {
                self.failed = true;
            }
        }
        self.inflight += 1;
        if self.failed {
            self.fail_fast(tag, op, len, now);
            return;
        }
        if let Some(f) = &mut self.faults {
            if f.spec.transient_error_prob > 0.0 && f.rng.gen_bool(f.spec.transient_error_prob) {
                self.stats.injected_transient_errors += 1;
                self.fail_fast(tag, op, len, now);
                return;
            }
        }
        match op {
            IoType::Read => self.submit_read(tag, lba, len, now),
            IoType::Write => self.submit_write(tag, lba, len, now),
        }
    }

    fn poll(&mut self, now: SimTime) -> Vec<SsdCompletion> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    fn poll_into(&mut self, now: SimTime, out: &mut Vec<SsdCompletion>) {
        while self.events.peek_time().is_some_and(|t| t <= now) {
            let (at, ev) = self.events.pop().unwrap();
            match ev {
                Ev::IoDone(c) => {
                    self.inflight -= 1;
                    out.push(c);
                }
                Ev::DieOpDone(die) => self.on_die_op_done(die, at),
            }
        }
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    fn inflight(&self) -> usize {
        self.inflight
    }

    fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.trace = trace;
        self.trace_ssd = ssd;
    }

    fn is_failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
impl FlashSsd {
    /// The configuration in use.
    pub(crate) fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Total number of logical blocks (LBAs) exported.
    pub(crate) fn capacity_blocks(&self) -> u64 {
        self.cfg.logical_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_sim::FaultWindow;

    fn small() -> FlashSsd {
        // Big enough that block-count rounding doesn't distort the
        // overprovisioning ratio, small enough for fast tests.
        let cfg = SsdConfig {
            logical_capacity: 512 * 1024 * 1024,
            ..SsdConfig::default()
        };
        FlashSsd::new(cfg, 1)
    }

    /// Drain the device fully, returning all completions.
    fn run_until_idle(ssd: &mut FlashSsd) -> Vec<SsdCompletion> {
        let mut out = Vec::new();
        while let Some(t) = ssd.next_event_at() {
            out.extend(ssd.poll(t));
        }
        out
    }

    #[test]
    fn gc_busy_follows_injected_storm_windows() {
        let mut ssd = small();
        ssd.precondition_clean();
        assert!(!ssd.gc_busy(SimTime::ZERO), "fresh device is not GC-busy");
        let spec = SsdFaultSpec {
            stall_windows: vec![FaultWindow::new(
                SimTime::from_micros(100),
                SimTime::from_micros(200),
            )],
            ..SsdFaultSpec::default()
        };
        ssd.arm_faults(spec, SimRng::with_stream(1, 0xFA17_0100));
        assert!(!ssd.gc_busy(SimTime::from_micros(99)));
        assert!(ssd.gc_busy(SimTime::from_micros(100)));
        assert!(ssd.gc_busy(SimTime::from_micros(199)));
        assert!(!ssd.gc_busy(SimTime::from_micros(200)), "half-open window");
    }

    #[test]
    fn unloaded_4k_read_latency_matches_calibration() {
        let mut ssd = small();
        ssd.precondition_clean();
        ssd.submit(1, IoType::Read, 0, 4096, SimTime::ZERO);
        let c = run_until_idle(&mut ssd);
        assert_eq!(c.len(), 1);
        let us = c[0].latency().as_micros();
        // controller (8) + tR (60) + channel (~3.4) + link (~1.3) ≈ 73 µs.
        assert!((60..=90).contains(&us), "4K read latency {us}us");
    }

    #[test]
    fn large_read_uses_parallel_dies() {
        let mut ssd = small();
        ssd.precondition_clean();
        // 128 KB sequential read spans 8 NAND pages on 4 dies (8-slot
        // program stripes → 2 NAND pages per die-visit).
        ssd.submit(1, IoType::Read, 0, 128 * 1024, SimTime::ZERO);
        let c = run_until_idle(&mut ssd);
        let us = c[0].latency().as_micros();
        // Far less than 8 serial tRs (~480 µs); parallel dies + pipelining.
        assert!(us < 350, "128K read latency {us}us");
    }

    #[test]
    fn buffered_write_is_fast() {
        let mut ssd = small();
        ssd.precondition_clean();
        ssd.submit(1, IoType::Write, 0, 4096, SimTime::ZERO);
        let c = ssd.poll(SimTime::from_millis(1));
        assert_eq!(c.len(), 1);
        let us = c[0].latency().as_micros();
        // controller + link + buffer ack ≈ 21 µs, far below tPROG (800 µs).
        assert!(us < 40, "buffered write latency {us}us");
    }

    #[test]
    fn read_after_buffered_write_hits_buffer() {
        let mut ssd = small();
        ssd.precondition_clean();
        ssd.submit(1, IoType::Write, 100, 4096, SimTime::ZERO);
        ssd.poll(SimTime::from_micros(50));
        // Page 100 is still in the buffer (no full program batch yet).
        ssd.submit(2, IoType::Read, 100, 4096, SimTime::from_micros(50));
        let c = run_until_idle(&mut ssd);
        let read = c.iter().find(|c| c.tag == 2).unwrap();
        assert!(
            read.latency().as_micros() < 30,
            "buffer-hit read latency {}us",
            read.latency().as_micros()
        );
        assert_eq!(ssd.stats().buffer_read_hits, 1);
    }

    #[test]
    fn reads_preempt_background_programs() {
        // Reads arriving during a heavy drain burst should wait at most
        // ~one program op, not the whole burst.
        let mut ssd = small();
        ssd.precondition_clean();
        // Kick off a large buffered write whose drain programs occupy
        // every die's background lane.
        ssd.submit(1, IoType::Write, 0, 8 * 1024 * 1024, SimTime::ZERO);
        ssd.poll(SimTime::from_micros(100));
        // Now a read against data far away (mapped by preconditioning).
        let target = 100_000u64;
        ssd.submit(2, IoType::Read, target, 4096, SimTime::from_micros(100));
        let c = run_until_idle(&mut ssd);
        let read = c.iter().find(|c| c.tag == 2).unwrap();
        let us = read.latency().as_micros();
        // One in-service program (~830 µs) + tR + transfer at worst.
        assert!(us < 1_200, "read under drain burst: {us}us");
    }

    #[test]
    fn sequential_write_throughput_near_program_bandwidth() {
        let mut ssd = small();
        ssd.precondition_clean();
        // Closed loop, QD 8, 128 KB sequential writes for 200 ms of device
        // time. Throughput should approach peak_program_bandwidth (~1.3GB/s).
        let io = 128 * 1024u64;
        let pages_per_io = io / 4096;
        let horizon = SimTime::from_millis(200);
        let mut lba = 0u64;
        let mut now = SimTime::ZERO;
        let mut tag = 0u64;
        let mut completed_bytes = 0u64;
        for _ in 0..8 {
            ssd.submit(tag, IoType::Write, lba, io, now);
            tag += 1;
            lba += pages_per_io;
        }
        while let Some(t) = ssd.next_event_at() {
            if t > horizon {
                break;
            }
            now = t;
            for c in ssd.poll(now) {
                completed_bytes += c.len;
                if lba + pages_per_io >= ssd.capacity_blocks() {
                    lba = 0; // wrap: keep the sequential stream going
                }
                ssd.submit(tag, IoType::Write, lba, io, now);
                tag += 1;
                lba += pages_per_io;
            }
        }
        let gbps = completed_bytes as f64 / horizon.as_secs_f64() / 1e9;
        let peak = ssd.config().peak_program_bandwidth() / 1e9;
        assert!(
            gbps > peak * 0.8 && gbps < peak * 1.35,
            "seq write {gbps:.2} GB/s vs peak {peak:.2}"
        );
    }

    #[test]
    fn random_read_throughput_is_die_limited() {
        let mut ssd = small();
        ssd.precondition_fragmented();
        let horizon = SimTime::from_millis(100);
        let cap = ssd.capacity_blocks();
        let mut rng = SimRng::new(3);
        let mut tag = 0u64;
        let mut now = SimTime::ZERO;
        let mut completed = 0u64;
        for _ in 0..128 {
            ssd.submit(tag, IoType::Read, rng.gen_below(cap), 4096, now);
            tag += 1;
        }
        while let Some(t) = ssd.next_event_at() {
            if t > horizon {
                break;
            }
            now = t;
            for _ in ssd.poll(now) {
                completed += 1;
                ssd.submit(tag, IoType::Read, rng.gen_below(cap), 4096, now);
                tag += 1;
            }
        }
        let kiops = completed as f64 / horizon.as_secs_f64() / 1e3;
        let peak = ssd.config().peak_small_read_iops() / 1e3;
        // Die load imbalance at QD128 keeps realized IOPS below the die
        // limit; the paper's DCT983 lands at ~400 KIOPS (1.6 GB/s).
        assert!(
            kiops > 340.0 && kiops < peak,
            "4K read {kiops:.0} KIOPS vs die limit {peak:.0}"
        );
    }

    #[test]
    fn fragmented_random_write_collapses_via_gc() {
        let mut ssd = small();
        ssd.precondition_fragmented();
        let horizon = SimTime::from_millis(400);
        let cap = ssd.capacity_blocks();
        let mut rng = SimRng::new(9);
        let mut tag = 0u64;
        let mut now = SimTime::ZERO;
        let mut completed_bytes = 0u64;
        for _ in 0..64 {
            ssd.submit(tag, IoType::Write, rng.gen_below(cap), 4096, now);
            tag += 1;
        }
        while let Some(t) = ssd.next_event_at() {
            if t > horizon {
                break;
            }
            now = t;
            for c in ssd.poll(now) {
                if c.op == IoType::Write {
                    completed_bytes += c.len;
                    ssd.submit(tag, IoType::Write, rng.gen_below(cap), 4096, now);
                    tag += 1;
                }
            }
        }
        let mbps = completed_bytes as f64 / horizon.as_secs_f64() / 1e6;
        // Paper: ~180 MB/s on a fragmented DCT983 (vs ~1300 clean).
        assert!(
            (100.0..400.0).contains(&mbps),
            "fragmented 4K write {mbps:.0} MB/s"
        );
        let wa = ssd.stats().write_amplification();
        assert!(wa > 2.0, "GC should amplify writes, wa={wa:.1}");
    }

    #[test]
    fn write_buffer_fills_under_sustained_load() {
        let mut ssd = small();
        ssd.precondition_fragmented();
        // Blast far more write bytes than the buffer holds, all at t=0.
        let io = 128 * 1024u64;
        let count = 2 * ssd.config().write_buffer_bytes / io;
        let mut rng = SimRng::new(4);
        let cap = ssd.capacity_blocks();
        for tag in 0..count {
            let lba = rng.gen_below(cap - 32);
            ssd.submit(tag, IoType::Write, lba, io, SimTime::ZERO);
        }
        let completions = run_until_idle(&mut ssd);
        assert_eq!(completions.len(), count as usize);
        let s = ssd.stats();
        assert!(s.buffer_stalls > 0, "buffer should have filled");
        // Early writes ack fast; stalled writes wait for NAND drain.
        let first = completions.iter().find(|c| c.tag == 0).unwrap();
        let last = completions.iter().find(|c| c.tag == count - 1).unwrap();
        assert!(last.latency() > first.latency() * 5);
    }

    #[test]
    fn reads_slow_down_when_mixed_with_writes() {
        // Fig 21/22's mechanism: program ops occupy dies.
        let run = |with_writes: bool| -> f64 {
            let mut ssd = small();
            ssd.precondition_fragmented();
            let cap = ssd.capacity_blocks();
            let mut rng = SimRng::new(11);
            let horizon = SimTime::from_millis(120);
            let mut now = SimTime::ZERO;
            let mut tag = 0u64;
            let mut lat_sum = 0u64;
            let mut lat_n = 0u64;
            for _ in 0..32 {
                ssd.submit(tag, IoType::Read, rng.gen_below(cap), 4096, now);
                tag += 1;
            }
            if with_writes {
                for _ in 0..16 {
                    ssd.submit(tag, IoType::Write, rng.gen_below(cap), 4096, now);
                    tag += 1;
                }
            }
            while let Some(t) = ssd.next_event_at() {
                if t > horizon {
                    break;
                }
                now = t;
                for c in ssd.poll(now) {
                    match c.op {
                        IoType::Read => {
                            lat_sum += c.latency().as_micros();
                            lat_n += 1;
                            ssd.submit(tag, IoType::Read, rng.gen_below(cap), 4096, now);
                        }
                        IoType::Write => {
                            ssd.submit(tag, IoType::Write, rng.gen_below(cap), 4096, now);
                        }
                    }
                    tag += 1;
                }
            }
            lat_sum as f64 / lat_n as f64
        };
        let read_only = run(false);
        let mixed = run(true);
        assert!(
            mixed > read_only * 1.2,
            "mixed {mixed:.0}us should exceed read-only {read_only:.0}us"
        );
    }

    #[test]
    fn armed_fail_at_kills_the_device_on_schedule() {
        let mut ssd = small();
        ssd.precondition_clean();
        let t = SimTime::from_millis(1);
        ssd.arm_faults(
            gimbal_sim::SsdFaultSpec {
                fail_at: Some(t),
                ..Default::default()
            },
            gimbal_sim::FaultPlan::device_rng(1, 0),
        );
        ssd.submit(1, IoType::Read, 0, 4096, SimTime::ZERO);
        assert!(!ssd.is_failed(), "alive before the instant");
        ssd.submit(2, IoType::Read, 0, 4096, t);
        ssd.submit(3, IoType::Write, 0, 4096, t + SimDuration::from_micros(1));
        let done = run_until_idle(&mut ssd);
        assert_eq!(done.len(), 3);
        // The pre-failure IO completes normally; later ones error fast.
        assert!(!done.iter().find(|c| c.tag == 1).unwrap().failed);
        for tag in [2, 3] {
            let c = done.iter().find(|c| c.tag == tag).unwrap();
            assert!(c.failed, "tag {tag} must fail");
            assert!(c.latency().as_micros() < 20, "fail fast");
        }
        assert!(ssd.is_failed());
        assert_eq!(ssd.stats().failed_cmds, 2);
    }

    #[test]
    fn transient_errors_fire_at_roughly_the_configured_rate() {
        let mut ssd = small();
        ssd.precondition_clean();
        ssd.arm_faults(
            gimbal_sim::SsdFaultSpec {
                transient_error_prob: 0.2,
                ..Default::default()
            },
            gimbal_sim::FaultPlan::device_rng(1, 0),
        );
        for tag in 0..500 {
            ssd.submit(tag, IoType::Read, tag % 1000, 4096, SimTime::ZERO);
        }
        let done = run_until_idle(&mut ssd);
        assert_eq!(done.len(), 500);
        let failed = done.iter().filter(|c| c.failed).count();
        assert!((60..=140).contains(&failed), "~20% errors: {failed}");
        assert_eq!(ssd.stats().injected_transient_errors, failed as u64);
        // Errors complete fast; the rest complete normally.
        assert!(done
            .iter()
            .filter(|c| c.failed)
            .all(|c| c.latency().as_micros() < 20));
    }

    #[test]
    fn gc_storm_stall_defers_service_to_window_end() {
        let mut ssd = small();
        ssd.precondition_clean();
        let w_start = SimTime::from_micros(100);
        let w_end = SimTime::from_millis(20);
        ssd.arm_faults(
            gimbal_sim::SsdFaultSpec {
                stall_windows: vec![gimbal_sim::FaultWindow::new(w_start, w_end)],
                ..Default::default()
            },
            gimbal_sim::FaultPlan::device_rng(1, 0),
        );
        // Submitted inside the window: latency absorbs the remaining stall.
        ssd.submit(1, IoType::Read, 0, 4096, SimTime::from_millis(1));
        // Submitted after the window: normal service.
        ssd.submit(2, IoType::Read, 0, 4096, w_end);
        let done = run_until_idle(&mut ssd);
        let stalled = done.iter().find(|c| c.tag == 1).unwrap();
        assert!(!stalled.failed, "stall is a delay, not an error");
        assert!(stalled.completed_at >= w_end);
        assert!(stalled.latency().as_micros() > 18_000);
        // The post-window read pays at most normal service plus one tR of
        // die contention behind the released read — never the stall itself.
        let clean = done.iter().find(|c| c.tag == 2).unwrap();
        assert!(clean.latency().as_micros() < 250);
        assert_eq!(ssd.stats().stalled_cmds, 1);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn rejects_out_of_range_io() {
        let mut ssd = small();
        let cap = ssd.capacity_blocks();
        ssd.submit(0, IoType::Read, cap, 4096, SimTime::ZERO);
    }
}
