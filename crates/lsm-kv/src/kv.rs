//! The LSM store state machine.
//!
//! All IO is emitted as [`TaggedIo`] plans and completed via
//! [`LsmKv::io_done`]; background work (WAL group-commit flushing, memtable
//! flush, leveled compaction) is advanced by [`LsmKv::pump`]. The store's
//! only time-driven work is closing a stale WAL batch, at
//! [`LsmKv::next_deadline`]; the engine pumps after every step and arms a
//! pump at that deadline, never on a periodic timer.

use crate::sstable::{SsTable, TableId};
use gimbal_blobstore::{BackendId, Blobstore, FileId, IoPlan, RateLimiter};
use gimbal_fabric::Priority;
use gimbal_sim::collections::{DetMap, DetSet};
use gimbal_sim::{SimDuration, SimRng, SimTime};
use gimbal_workload::KvOp;
use std::collections::VecDeque;

/// Target SSTable size.
const SSTABLE_TARGET_BYTES: u64 = 4 * 1024 * 1024;
/// L0 table count that triggers compaction.
const L0_LIMIT: usize = 4;
/// L1 capacity; level `n` holds `LEVEL_BASE_BYTES × LEVEL_MULTIPLIER^(n-1)`.
const LEVEL_BASE_BYTES: u64 = 16 * 1024 * 1024;
/// Per-level size multiplier.
const LEVEL_MULTIPLIER: u64 = 10;
/// Bloom filter false-positive rate.
const BLOOM_FP: f64 = 0.01;
/// WAL group-commit batch size.
const WAL_BATCH_BYTES: u64 = 16 * 1024;
/// WAL batch age that forces a flush: a batch that has not filled by size
/// closes exactly this long after its first update
/// ([`LsmKv::next_deadline`]).
const WAL_MAX_BATCH_AGE: SimDuration = SimDuration::from_micros(200);
/// WAL file size in blocks (appends wrap circularly).
const WAL_FILE_BLOCKS: u64 = 1024;

/// Store configuration (scaled-down RocksDB defaults; the fixed ones are
/// the constants above).
#[derive(Clone, Copy, Debug)]
pub struct LsmConfig {
    /// Value size (the paper uses 1 KB pairs).
    pub value_bytes: u64,
    /// Memtable flush threshold.
    pub memtable_bytes: u64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            value_bytes: 1024,
            memtable_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Capacity of level `level1_based` (L1 is 1).
fn level_cap_bytes(level1_based: usize) -> u64 {
    LEVEL_BASE_BYTES * LEVEL_MULTIPLIER.pow(level1_based.saturating_sub(1) as u32)
}

/// A block IO the engine must execute, correlated by `tag`.
#[derive(Clone, Copy, Debug)]
pub struct TaggedIo {
    /// Store-local IO tag.
    pub tag: u64,
    /// The planned IO.
    pub plan: IoPlan,
    /// WAL group-commit sequence for write-ahead-log writes: durability
    /// order matters for these, so the engine forwards the tag on the wire
    /// (`NvmeCmd::wal`) and a write-back cache flushes them in sequence
    /// order ahead of data. `None` for probes, flushes, and compaction.
    pub wal_seq: Option<u64>,
    /// Client priority tag (§3.5/§3.7): point-read probes are
    /// latency-sensitive (HIGH), WAL commits NORMAL, flush/compaction bulk
    /// traffic LOW — the RocksDB-style use of Gimbal's priority queues.
    pub priority: Priority,
}

/// Output of one state-machine step.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// New IOs to execute.
    pub ios: Vec<TaggedIo>,
    /// Operations that finished in this step.
    pub finished: Vec<u64>,
}

/// Running statistics for one store instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct LsmStats {
    /// Point reads served from the memtable (no IO).
    pub mem_hits: u64,
    /// SSTable probe reads issued.
    pub probe_reads: u64,
    /// Probe reads that missed (Bloom false positives).
    pub probe_misses: u64,
    /// WAL write IOs issued.
    pub wal_writes: u64,
    /// Memtable flushes completed.
    pub flushes: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Updates momentarily blocked by a write stall.
    pub write_stalls: u64,
    /// Probe reads retried on the surviving replica after a device error.
    pub failed_read_retries: u64,
    /// Write IOs lost to a failed replica (the surviving copy completed the
    /// logical write).
    pub degraded_writes: u64,
    /// Bytes written by flush + compaction (write amplification source).
    pub background_write_bytes: u64,
    /// Bytes read by compaction.
    pub background_read_bytes: u64,
}

enum OpState {
    /// Walking the probe candidate list for `key`.
    Probing {
        key: u64,
        candidates: Vec<TableId>,
        next: usize,
        rmw: bool,
    },
    /// Inserted into the memtable; completes with its WAL batch.
    WaitingWal,
}

#[derive(Clone, Copy)]
enum IoKind {
    Probe { op: u64, table: TableId },
    WalGroup { group: u64 },
    Flush,
    CompactionRead,
    CompactionWrite,
}

struct WalGroup {
    remaining: usize,
    ops: Vec<u64>,
}

struct FlushJob {
    /// The immutable memtable's keys, sorted.
    keys: Vec<u64>,
    file: FileId,
    size_blocks: u64,
    pending: usize,
}

enum CompactionPhase {
    Reading,
    Writing,
}

struct CompactionJob {
    phase: CompactionPhase,
    pending: usize,
    /// (level, table index ids) consumed by this job.
    input_tables: Vec<(usize, TableId)>,
    input_files: Vec<FileId>,
    merged_keys: Vec<u64>,
    /// Output files created during the write phase, with their key runs.
    outputs: Vec<(FileId, Vec<u64>, u64)>,
    target_level: usize,
}

/// Per-call context: the shared blobstore plus the client's credit view.
pub struct IoCtx<'a> {
    /// The (shared) blobstore.
    pub bs: &'a mut Blobstore,
    /// The instance's credit/limiter view, used for load-aware allocation
    /// and replica choice.
    pub lim: &'a RateLimiter,
    /// Whether the read load balancer is enabled (§4.3 / Fig 13).
    pub load_balance: bool,
}

impl IoCtx<'_> {
    fn choose(&self, replicas: &[BackendId; 2]) -> usize {
        if self.load_balance {
            // With every replica dead the plan targets the primary anyway:
            // the IO fails fast and `io_failed` recovers at the next layer.
            self.lim.choose_replica(replicas).unwrap_or(0)
        } else {
            0
        }
    }
}

/// One LSM key-value store instance.
pub struct LsmKv {
    cfg: LsmConfig,
    rng: SimRng,
    next_tag: u64,
    next_op: u64,
    next_table: u64,

    mem: DetSet<u64>,
    mem_bytes: u64,
    imm: bool,

    wal_file: Option<FileId>,
    wal_cursor: u64,
    batch_ops: Vec<u64>,
    batch_bytes: u64,
    batch_started: Option<SimTime>,
    next_group: u64,
    wal_groups: DetMap<u64, WalGroup>,

    l0: Vec<SsTable>,
    /// levels[0] is L1.
    levels: Vec<Vec<SsTable>>,

    ops: DetMap<u64, OpState>,
    io_kinds: DetMap<u64, IoKind>,
    stalled: VecDeque<(u64, u64)>, // (op id, key)

    flush: Option<FlushJob>,
    compaction: Option<CompactionJob>,

    /// Closed WAL batches whose plans have not yet been materialized
    /// against the blobstore, oldest first: `(file, cursor, blocks, group,
    /// ops)`. One step can close several (stall relief resumes every
    /// stalled update at once); `emit_pending_wal` resolves them all before
    /// the step returns.
    pending_wal: VecDeque<(FileId, u64, u64, u64, Vec<u64>)>,

    /// Recycled scratch for one blobstore planning call; empty between
    /// calls.
    plan_buf: Vec<IoPlan>,
    /// Emptied probe candidate lists, reused by the next probe walk.
    spare_candidates: Vec<Vec<TableId>>,
    /// Emptied WAL-group op lists, reused by the next WAL batch.
    spare_ops: Vec<Vec<u64>>,

    stats: LsmStats,
}

impl LsmKv {
    /// Create an instance; call [`LsmKv::load`] before serving operations.
    pub fn new(cfg: LsmConfig, seed: u64) -> Self {
        assert!(cfg.value_bytes > 0 && cfg.memtable_bytes >= cfg.value_bytes);
        LsmKv {
            cfg,
            rng: SimRng::with_stream(seed, 0x15a),
            next_tag: 0,
            next_op: 0,
            next_table: 0,
            mem: DetSet::new(),
            mem_bytes: 0,
            imm: false,
            wal_file: None,
            wal_cursor: 0,
            batch_ops: Vec::new(),
            batch_bytes: 0,
            batch_started: None,
            next_group: 0,
            wal_groups: DetMap::new(),
            l0: Vec::new(),
            levels: vec![Vec::new(); 6],
            ops: DetMap::new(),
            io_kinds: DetMap::new(),
            stalled: VecDeque::new(),
            flush: None,
            compaction: None,
            pending_wal: VecDeque::new(),
            plan_buf: Vec::new(),
            spare_candidates: Vec::new(),
            spare_ops: Vec::new(),
            stats: LsmStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    fn blocks_for_entries(&self, n: u64) -> u64 {
        (n * self.cfg.value_bytes).div_ceil(4096).max(1)
    }

    fn entries_per_table(&self) -> u64 {
        (SSTABLE_TARGET_BYTES / self.cfg.value_bytes).max(1)
    }

    fn alloc_tag(&mut self, kind: IoKind) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        self.io_kinds.insert(t, kind);
        t
    }

    fn make_table(&mut self, file: FileId, keys: Vec<u64>, size_blocks: u64) -> SsTable {
        let id = TableId(self.next_table);
        self.next_table += 1;
        SsTable::new(id, file, keys, size_blocks)
    }

    /// Preload `records` keys: creates the WAL file and fills the deepest
    /// level that holds the dataset with sorted, disjoint tables. No IO is
    /// emitted (preloading is setup, as in YCSB's load phase).
    pub fn load(&mut self, records: u64, ctx: &mut IoCtx<'_>) {
        assert!(self.wal_file.is_none(), "already loaded");
        let score = |b: BackendId| ctx.lim.headroom(b) as f64;
        self.wal_file = Some(
            ctx.bs
                .create_file(WAL_FILE_BLOCKS, score)
                .expect("wal allocation"),
        );
        // Choose the shallowest level whose capacity holds the dataset.
        let total_bytes = records * self.cfg.value_bytes;
        let mut level = 1usize;
        while level_cap_bytes(level) < total_bytes && level < self.levels.len() {
            level += 1;
        }
        let per = self.entries_per_table();
        let mut k = 0;
        while k < records {
            let hi = (k + per).min(records);
            let keys: Vec<u64> = (k..hi).collect();
            let blocks = self.blocks_for_entries(hi - k);
            let file = ctx
                .bs
                .create_file(blocks, score)
                .expect("preload allocation");
            let t = self.make_table(file, keys, blocks);
            self.levels[level - 1].push(t);
            k = hi;
        }
        self.levels[level - 1].sort_by_key(|t| t.key_min);
    }

    fn find_table(&self, id: TableId) -> Option<&SsTable> {
        self.l0
            .iter()
            .chain(self.levels.iter().flatten())
            .find(|t| t.id == id)
    }

    /// Build the newest-to-oldest probe candidate list for `key`, applying
    /// Bloom filters, in a recycled list.
    fn candidates(&mut self, key: u64) -> Vec<TableId> {
        let mut out = self.spare_candidates.pop().unwrap_or_default();
        // Work around split borrows: collect decisions with a local RNG ref.
        let rng = &mut self.rng;
        for t in &self.l0 {
            if t.bloom_maybe(key, BLOOM_FP, rng) {
                out.push(t.id);
            }
        }
        for level in &self.levels {
            // Disjoint ranges: at most one candidate per level.
            if let Some(t) = level.iter().find(|t| t.covers(key)) {
                if t.bloom_maybe(key, BLOOM_FP, rng) {
                    out.push(t.id);
                }
            }
        }
        out
    }

    fn recycle_candidates(&mut self, mut candidates: Vec<TableId>) {
        candidates.clear();
        self.spare_candidates.push(candidates);
    }

    /// Tag the plans in `plan_buf` as `kind` IOs and append them to `out`,
    /// allocating tags in plan order. Returns how many were appended.
    fn push_planned(
        &mut self,
        kind: IoKind,
        priority: Priority,
        wal_seq: Option<u64>,
        out: &mut Vec<TaggedIo>,
    ) -> usize {
        let plans = std::mem::take(&mut self.plan_buf);
        for &plan in &plans {
            let tag = self.alloc_tag(kind);
            out.push(TaggedIo {
                tag,
                plan,
                priority,
                wal_seq,
            });
        }
        let n = plans.len();
        self.plan_buf = plans;
        self.plan_buf.clear();
        n
    }

    fn issue_probe(&mut self, op: u64, key: u64, table: TableId, ctx: &mut IoCtx<'_>) -> TaggedIo {
        let t = self.find_table(table).expect("probe target exists");
        let block = t.block_of(key);
        let file = t.file;
        ctx.bs
            .plan_read_into(file, block, 1, |reps| ctx.choose(reps), &mut self.plan_buf);
        let plan = self.plan_buf[0];
        self.plan_buf.clear();
        self.stats.probe_reads += 1;
        let tag = self.alloc_tag(IoKind::Probe { op, table });
        TaggedIo {
            tag,
            plan,
            priority: Priority::HIGH,
            wal_seq: None,
        }
    }

    fn start_probing(
        &mut self,
        op: u64,
        key: u64,
        rmw: bool,
        ctx: &mut IoCtx<'_>,
        out: &mut StepOutput,
    ) {
        let candidates = self.candidates(key);
        if candidates.is_empty() {
            // Not found anywhere (possible for not-yet-loaded keys).
            self.recycle_candidates(candidates);
            out.finished.push(op);
            return;
        }
        let io = self.issue_probe(op, key, candidates[0], ctx);
        self.ops.insert(
            op,
            OpState::Probing {
                key,
                candidates,
                next: 1,
                rmw,
            },
        );
        out.ios.push(io);
    }

    fn memtable_full(&self) -> bool {
        self.mem_bytes >= self.cfg.memtable_bytes
    }

    /// Apply the write part of an update: memtable insert + WAL batch join,
    /// or a write stall while both memtables are full.
    fn apply_update(&mut self, op: u64, key: u64, now: SimTime) {
        if self.imm && self.memtable_full() {
            // Write stall: both memtables full; wait for the flush.
            self.stats.write_stalls += 1;
            self.stalled.push_back((op, key));
            return;
        }
        self.mem.insert(key);
        self.mem_bytes += self.cfg.value_bytes;
        self.batch_ops.push(op);
        self.batch_bytes += self.cfg.value_bytes + 32; // WAL record header
        self.batch_started.get_or_insert(now);
        self.ops.insert(op, OpState::WaitingWal);
        if self.batch_bytes >= WAL_BATCH_BYTES {
            self.flush_wal();
        }
    }

    /// Close the current WAL batch onto `pending_wal`; its plans need the
    /// blobstore, so `emit_pending_wal` materializes them before the step
    /// returns.
    fn flush_wal(&mut self) {
        if self.batch_ops.is_empty() {
            return;
        }
        let wal = self.wal_file.expect("loaded");
        let blocks = self.batch_bytes.div_ceil(4096).max(1);
        if self.wal_cursor + blocks > WAL_FILE_BLOCKS {
            self.wal_cursor = 0; // circular log
        }
        let spare = self.spare_ops.pop().unwrap_or_default();
        let ops = std::mem::replace(&mut self.batch_ops, spare);
        self.batch_bytes = 0;
        self.batch_started = None;
        let group = self.next_group;
        self.next_group += 1;
        self.pending_wal
            .push_back((wal, self.wal_cursor, blocks, group, ops));
        self.wal_cursor += blocks;
    }

    fn level_bytes(&self, level1_based: usize) -> u64 {
        self.levels[level1_based - 1]
            .iter()
            .map(|t| t.entries() as u64 * self.cfg.value_bytes)
            .sum()
    }

    /// Begin a client operation; returns its id and appends its initial
    /// IOs (and the op itself, if it finished at once) to `out`.
    pub fn begin_op_into(
        &mut self,
        op: KvOp,
        now: SimTime,
        ctx: &mut IoCtx<'_>,
        out: &mut StepOutput,
    ) -> u64 {
        assert!(self.wal_file.is_some(), "call load() first");
        let id = self.next_op;
        self.next_op += 1;
        match op {
            KvOp::Read(key) => {
                if self.mem.contains(&key) {
                    self.stats.mem_hits += 1;
                    out.finished.push(id);
                } else {
                    self.start_probing(id, key, false, ctx, out);
                }
            }
            KvOp::Update(key) | KvOp::Insert(key) => {
                self.apply_update(id, key, now);
            }
            KvOp::ReadModifyWrite(key) => {
                if self.mem.contains(&key) {
                    self.stats.mem_hits += 1;
                    self.apply_update(id, key, now);
                } else {
                    self.start_probing(id, key, true, ctx, out);
                }
            }
        }
        self.emit_pending_wal(ctx, out);
        id
    }

    /// [`Self::begin_op_into`] into a fresh [`StepOutput`].
    pub fn begin_op(&mut self, op: KvOp, now: SimTime, ctx: &mut IoCtx<'_>) -> (u64, StepOutput) {
        let mut out = StepOutput::default();
        let id = self.begin_op_into(op, now, ctx, &mut out);
        (id, out)
    }

    fn emit_pending_wal(&mut self, ctx: &mut IoCtx<'_>, out: &mut StepOutput) {
        while let Some((wal, cursor, blocks, group, ops)) = self.pending_wal.pop_front() {
            ctx.bs
                .plan_write_into(wal, cursor, blocks, &mut self.plan_buf);
            let remaining = self.plan_buf.len();
            self.wal_groups.insert(group, WalGroup { remaining, ops });
            self.stats.wal_writes += remaining as u64;
            self.push_planned(
                IoKind::WalGroup { group },
                Priority::NORMAL,
                Some(group),
                &mut out.ios,
            );
        }
    }

    /// The next instant at which [`Self::pump_into`] has time-driven work:
    /// the open WAL batch's deadline (its first update's instant plus
    /// `WAL_MAX_BATCH_AGE`), or `None` with no open batch.
    /// Everything else the pump starts — memtable flushes, compactions,
    /// stall relief — follows from a state change, so an engine that pumps
    /// after every step and at this instant misses nothing.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.batch_started.map(|t| t + WAL_MAX_BATCH_AGE)
    }

    /// Advance background work: close a WAL batch whose deadline has come
    /// ([`Self::next_deadline`]), start memtable flushes, resume stalled
    /// updates and start compactions, appending the IOs it starts to `out`.
    /// The engine calls this after every step and at the next deadline. It
    /// is idempotent: a pump with nothing due appends nothing and changes
    /// nothing, so an early or repeated pump cannot move a result.
    pub fn pump_into(&mut self, now: SimTime, ctx: &mut IoCtx<'_>, out: &mut StepOutput) {
        // Stale WAL batch.
        if let Some(started) = self.batch_started {
            if now.since(started) >= WAL_MAX_BATCH_AGE {
                self.flush_wal();
            }
        }
        self.emit_pending_wal(ctx, out);
        // Start a memtable flush.
        if !self.imm && self.memtable_full() {
            // Exact capacity, so the table's `Box<[u64]>` takes the buffer
            // as is; the memtable keeps its capacity for the next fill.
            let mut keys = Vec::with_capacity(self.mem.len());
            keys.extend(self.mem.iter().copied());
            keys.sort_unstable();
            self.mem.clear();
            self.mem_bytes = 0;
            self.imm = true;
            let blocks = self.blocks_for_entries(keys.len() as u64);
            let score = |b: BackendId| ctx.lim.headroom(b) as f64;
            let file = ctx.bs.create_file(blocks, score).expect("flush allocation");
            // Sequential writes in micro-blob chunks.
            let mut pending = 0;
            let mut off = 0;
            while off < blocks {
                let len = 64.min(blocks - off);
                ctx.bs.plan_write_into(file, off, len, &mut self.plan_buf);
                self.stats.background_write_bytes += len * 4096 * self.plan_buf.len() as u64;
                pending += self.push_planned(IoKind::Flush, Priority::LOW, None, &mut out.ios);
                off += len;
            }
            self.flush = Some(FlushJob {
                keys,
                file,
                size_blocks: blocks,
                pending,
            });
            // Stall relief: the active memtable is empty now. Resumed
            // updates can close WAL batches; emit them in this step.
            self.drain_stalled(now);
            self.emit_pending_wal(ctx, out);
        }
        // Start a compaction.
        if self.compaction.is_none() {
            self.maybe_start_compaction(ctx, &mut out.ios);
        }
    }

    /// [`Self::pump_into`] into a fresh [`StepOutput`].
    pub fn pump(&mut self, now: SimTime, ctx: &mut IoCtx<'_>) -> StepOutput {
        let mut out = StepOutput::default();
        self.pump_into(now, ctx, &mut out);
        out
    }

    /// Resume stalled updates in arrival order until the store stalls
    /// again.
    fn drain_stalled(&mut self, now: SimTime) {
        while !(self.imm && self.memtable_full()) {
            let Some((op, key)) = self.stalled.pop_front() else {
                break;
            };
            self.apply_update(op, key, now);
        }
    }

    /// The input tables and target level of the next compaction, if any
    /// level needs one.
    fn pick_compaction(&self) -> Option<(Vec<(usize, TableId)>, usize)> {
        // L0 → L1 when L0 is deep.
        if self.l0.len() > L0_LIMIT {
            let lo = self.l0.iter().map(|t| t.key_min).min().unwrap();
            let hi = self.l0.iter().map(|t| t.key_max).max().unwrap();
            let mut inputs: Vec<(usize, TableId)> = self.l0.iter().map(|t| (0, t.id)).collect();
            inputs.extend(
                self.levels[0]
                    .iter()
                    .filter(|t| t.overlaps(lo, hi))
                    .map(|t| (1, t.id)),
            );
            return Some((inputs, 1));
        }
        // Size-triggered compaction of the first over-cap level.
        for l in 1..self.levels.len() {
            if self.level_bytes(l) > level_cap_bytes(l) && !self.levels[l - 1].is_empty() {
                let victim = &self.levels[l - 1][0];
                let (lo, hi) = (victim.key_min, victim.key_max);
                let mut inputs = vec![(l, victim.id)];
                inputs.extend(
                    self.levels[l]
                        .iter()
                        .filter(|t| t.overlaps(lo, hi))
                        .map(|t| (l + 1, t.id)),
                );
                return Some((inputs, l + 1));
            }
        }
        None
    }

    fn maybe_start_compaction(&mut self, ctx: &mut IoCtx<'_>, out: &mut Vec<TaggedIo>) {
        let Some((input_tables, target_level)) = self.pick_compaction() else {
            return;
        };
        // Read phase: sequential reads of every input file.
        let mut pending = 0;
        let mut merged: Vec<u64> = Vec::new();
        let mut input_files = Vec::new();
        for &(_, tid) in &input_tables {
            let t = self.find_table(tid).expect("input exists");
            merged.extend_from_slice(t.keys());
            input_files.push(t.file);
            let blocks = t.size_blocks;
            let file = t.file;
            let mut off = 0;
            while off < blocks {
                let len = 64.min(blocks - off);
                ctx.bs
                    .plan_read_into(file, off, len, |reps| ctx.choose(reps), &mut self.plan_buf);
                self.stats.background_read_bytes += len * 4096 * self.plan_buf.len() as u64;
                pending += self.push_planned(IoKind::CompactionRead, Priority::LOW, None, out);
                off += len;
            }
        }
        merged.sort_unstable();
        merged.dedup();
        self.compaction = Some(CompactionJob {
            phase: CompactionPhase::Reading,
            pending,
            input_tables,
            input_files,
            merged_keys: merged,
            outputs: Vec::new(),
            target_level,
        });
    }

    fn compaction_write_phase(&mut self, ctx: &mut IoCtx<'_>, out: &mut Vec<TaggedIo>) {
        let per = self.entries_per_table();
        let value_bytes = self.cfg.value_bytes;
        let job = self.compaction.as_mut().expect("job");
        job.phase = CompactionPhase::Writing;
        let keys = std::mem::take(&mut job.merged_keys);
        let score = |b: BackendId| ctx.lim.headroom(b) as f64;
        let mut outputs = Vec::new();
        let mut pending = 0;
        for chunk in keys.chunks(per as usize) {
            let blocks = ((chunk.len() as u64) * value_bytes).div_ceil(4096).max(1);
            let file = ctx
                .bs
                .create_file(blocks, score)
                .expect("compaction output allocation");
            let mut off = 0;
            while off < blocks {
                let len = 64.min(blocks - off);
                ctx.bs.plan_write_into(file, off, len, &mut self.plan_buf);
                self.stats.background_write_bytes += len * 4096 * self.plan_buf.len() as u64;
                pending += self.push_planned(IoKind::CompactionWrite, Priority::LOW, None, out);
                off += len;
            }
            outputs.push((file, chunk.to_vec(), blocks));
        }
        let job = self.compaction.as_mut().expect("job");
        job.outputs = outputs;
        job.pending = pending;
    }

    fn finish_compaction(&mut self, ctx: &mut IoCtx<'_>) {
        let job = self.compaction.take().expect("job");
        // Remove inputs.
        for (level, tid) in &job.input_tables {
            if *level == 0 {
                self.l0.retain(|t| t.id != *tid);
            } else {
                self.levels[*level - 1].retain(|t| t.id != *tid);
            }
        }
        for f in job.input_files {
            ctx.bs.delete_file(f);
        }
        // Install outputs.
        let target = job.target_level;
        for (file, keys, blocks) in job.outputs {
            let t = self.make_table(file, keys, blocks);
            self.levels[target - 1].push(t);
        }
        self.levels[target - 1].sort_by_key(|t| t.key_min);
        self.stats.compactions += 1;
    }

    /// An IO failed (device error on its backend); appends the follow-on
    /// IOs and finished operations to `out`. Probe reads restart and
    /// re-plan — the replica chooser now avoids the dead backend — while
    /// write-side IOs complete *degraded*: the surviving replica carries the
    /// data (§4.3's failure tolerance).
    pub fn io_failed_into(
        &mut self,
        tag: u64,
        now: SimTime,
        ctx: &mut IoCtx<'_>,
        out: &mut StepOutput,
    ) {
        let kind = self.io_kinds.remove(&tag).expect("unknown IO tag");
        match kind {
            IoKind::Probe { op, .. } => {
                #[expect(
                    clippy::panic,
                    reason = "io_kinds/ops are private twins; a Probe tag with a non-Probing op is internal corruption, not tenant input"
                )]
                let Some(OpState::Probing {
                    key,
                    rmw,
                    candidates,
                    ..
                }) = self.ops.remove(&op)
                else {
                    panic!("probe for op not probing");
                };
                self.recycle_candidates(candidates);
                self.stats.failed_read_retries += 1;
                self.start_probing(op, key, rmw, ctx, out);
            }
            other => {
                self.stats.degraded_writes += 1;
                // Count the replica write as done so the logical operation
                // (group/flush/compaction) completes on the surviving copy.
                self.io_kinds.insert(tag, other);
                self.io_done_into(tag, now, ctx, out);
            }
        }
    }

    /// An IO completed. Appends follow-on IOs and finished operations to
    /// `out`.
    pub fn io_done_into(
        &mut self,
        tag: u64,
        now: SimTime,
        ctx: &mut IoCtx<'_>,
        out: &mut StepOutput,
    ) {
        let kind = self.io_kinds.remove(&tag).expect("unknown IO tag");
        match kind {
            IoKind::Probe { op, table } => {
                #[expect(
                    clippy::panic,
                    reason = "io_kinds/ops are private twins; a Probe tag with a non-Probing op is internal corruption, not tenant input"
                )]
                let Some(OpState::Probing {
                    key,
                    candidates,
                    next,
                    rmw,
                }) = self.ops.remove(&op)
                else {
                    panic!("probe for op not probing");
                };
                let found = self.find_table(table).map(|t| t.contains(key));
                match found {
                    Some(true) => {
                        self.recycle_candidates(candidates);
                        // Found. RMW continues into its write phase.
                        if rmw {
                            self.apply_update(op, key, now);
                        } else {
                            out.finished.push(op);
                        }
                    }
                    Some(false) if next < candidates.len() => {
                        self.stats.probe_misses += 1;
                        let io = self.issue_probe(op, key, candidates[next], ctx);
                        self.ops.insert(
                            op,
                            OpState::Probing {
                                key,
                                candidates,
                                next: next + 1,
                                rmw,
                            },
                        );
                        out.ios.push(io);
                    }
                    Some(false) => {
                        self.recycle_candidates(candidates);
                        self.stats.probe_misses += 1;
                        out.finished.push(op); // exhausted: not found
                    }
                    None => {
                        self.recycle_candidates(candidates);
                        // Table compacted away mid-probe: restart the walk.
                        self.start_probing(op, key, rmw, ctx, out);
                    }
                }
            }
            IoKind::WalGroup { group } => {
                let g = self.wal_groups.get_mut(&group).expect("group");
                g.remaining -= 1;
                if g.remaining == 0 {
                    let mut g = self.wal_groups.remove(&group).unwrap();
                    for &op in &g.ops {
                        self.ops.remove(&op);
                        out.finished.push(op);
                    }
                    g.ops.clear();
                    self.spare_ops.push(g.ops);
                }
            }
            IoKind::Flush => {
                let job = self.flush.as_mut().expect("flush job");
                job.pending -= 1;
                if job.pending == 0 {
                    let job = self.flush.take().unwrap();
                    let t = self.make_table(job.file, job.keys, job.size_blocks);
                    self.l0.insert(0, t); // newest first
                    self.imm = false;
                    self.stats.flushes += 1;
                    self.drain_stalled(now);
                }
            }
            IoKind::CompactionRead => {
                let job = self.compaction.as_mut().expect("compaction");
                job.pending -= 1;
                if job.pending == 0 {
                    self.compaction_write_phase(ctx, &mut out.ios);
                }
            }
            IoKind::CompactionWrite => {
                let job = self.compaction.as_mut().expect("compaction");
                job.pending -= 1;
                if job.pending == 0 {
                    self.finish_compaction(ctx);
                }
            }
        }
        self.pump_into(now, ctx, out);
    }

    /// [`Self::io_done_into`] into a fresh [`StepOutput`].
    pub fn io_done(&mut self, tag: u64, now: SimTime, ctx: &mut IoCtx<'_>) -> StepOutput {
        let mut out = StepOutput::default();
        self.io_done_into(tag, now, ctx, &mut out);
        out
    }
}

#[cfg(test)]
impl LsmKv {
    /// Current L0 depth (diagnostics).
    pub(crate) fn l0_len(&self) -> usize {
        self.l0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_blobstore::{HbaConfig, HierarchicalAllocator};

    fn make_ctx_parts(backends: usize) -> (Blobstore, RateLimiter) {
        let alloc = HierarchicalAllocator::new(HbaConfig::default(), &vec![1 << 20; backends]);
        (
            Blobstore::new(alloc, backends >= 2).expect("valid store config"),
            RateLimiter::new(backends, 64, true),
        )
    }

    /// Instantly execute all IOs, feeding completions back until quiescent.
    fn settle(
        kv: &mut LsmKv,
        bs: &mut Blobstore,
        lim: &RateLimiter,
        mut ios: Vec<TaggedIo>,
        now: SimTime,
    ) -> Vec<u64> {
        let mut finished = Vec::new();
        let mut guard = 0;
        while let Some(io) = ios.pop() {
            let mut ctx = IoCtx {
                bs,
                lim,
                load_balance: true,
            };
            let out = kv.io_done(io.tag, now, &mut ctx);
            ios.extend(out.ios);
            finished.extend(out.finished);
            guard += 1;
            assert!(guard < 1_000_000, "did not settle");
        }
        finished
    }

    fn loaded(records: u64, backends: usize) -> (LsmKv, Blobstore, RateLimiter) {
        loaded_with(LsmConfig::default(), records, backends)
    }

    fn loaded_with(
        cfg: LsmConfig,
        records: u64,
        backends: usize,
    ) -> (LsmKv, Blobstore, RateLimiter) {
        let (mut bs, lim) = make_ctx_parts(backends);
        let mut kv = LsmKv::new(cfg, 1);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        kv.load(records, &mut ctx);
        (kv, bs, lim)
    }

    #[test]
    fn load_places_dataset_in_levels() {
        let (kv, bs, _) = loaded(50_000, 2);
        assert!(bs.file_count() > 5);
        assert_eq!(kv.l0_len(), 0);
    }

    #[test]
    fn read_probes_one_table_and_finishes() {
        let (mut kv, mut bs, lim) = loaded(10_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let (id, out) = kv.begin_op(KvOp::Read(42), SimTime::ZERO, &mut ctx);
        assert_eq!(out.ios.len(), 1, "one probe read");
        assert!(out.finished.is_empty());
        let fin = settle(&mut kv, &mut bs, &lim, out.ios, SimTime::ZERO);
        assert_eq!(fin, vec![id]);
        assert_eq!(kv.stats().probe_reads, 1);
    }

    #[test]
    fn update_completes_via_wal_group_commit() {
        let (mut kv, mut bs, lim) = loaded(10_000, 2);
        let mut all_ios = Vec::new();
        let mut ids = Vec::new();
        // 16 × (1024+32) B crosses the 16 KiB batch threshold.
        for i in 0..16 {
            let mut ctx = IoCtx {
                bs: &mut bs,
                lim: &lim,
                load_balance: true,
            };
            let (id, out) = kv.begin_op(KvOp::Update(i), SimTime::ZERO, &mut ctx);
            ids.push(id);
            all_ios.extend(out.ios);
        }
        assert!(!all_ios.is_empty(), "batch flushed");
        // WAL writes are replicated: 2 plans.
        assert_eq!(all_ios.len(), 2);
        let fin = settle(&mut kv, &mut bs, &lim, all_ios, SimTime::ZERO);
        // All 16 updates complete together (group commit).
        let mut fin = fin;
        fin.sort_unstable();
        assert_eq!(fin, ids);
    }

    #[test]
    fn stale_wal_batch_flushes_on_pump() {
        let (mut kv, mut bs, lim) = loaded(1_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let (id, out) = kv.begin_op(KvOp::Update(5), SimTime::ZERO, &mut ctx);
        assert!(out.ios.is_empty(), "below batch threshold");
        let out = kv.pump(SimTime::from_micros(300), &mut ctx);
        assert!(!out.ios.is_empty(), "age-based flush");
        let fin = settle(&mut kv, &mut bs, &lim, out.ios, SimTime::from_micros(300));
        assert_eq!(fin, vec![id]);
    }

    #[test]
    fn resumed_stalled_updates_never_lose_a_wal_batch() {
        // A 64 KiB memtable holds 64 updates. 64 fill it, a pump turns it
        // immutable and starts its flush, 64 more fill the active one, and
        // 40 more stall. The flush's completion resumes all 40 in one step:
        // over two batches' worth (16 updates each), so that step closes
        // two batches, and both must reach the log.
        let cfg = LsmConfig {
            memtable_bytes: 64 * 1024,
            ..LsmConfig::default()
        };
        let (mut kv, mut bs, lim) = loaded_with(cfg, 10_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let mut out = StepOutput::default();
        let mut ids = Vec::new();
        for key in 0..168 {
            if key == 64 {
                kv.pump_into(SimTime::ZERO, &mut ctx, &mut out);
                assert_eq!(kv.stats().flushes, 0, "flush started, not done");
            }
            ids.push(kv.begin_op_into(KvOp::Update(key), SimTime::ZERO, &mut ctx, &mut out));
        }
        assert_eq!(kv.stats().write_stalls, 40);
        assert!(out.finished.is_empty());
        let mut fin = settle(&mut kv, &mut bs, &lim, out.ios, SimTime::ZERO);
        // Close the resumed updates' open tail batch.
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let late = SimTime::from_millis(1);
        let out = kv.pump(late, &mut ctx);
        fin.extend(settle(&mut kv, &mut bs, &lim, out.ios, late));
        fin.sort_unstable();
        assert_eq!(fin, ids, "every update commits exactly once");
    }

    #[test]
    fn deadline_is_none_without_an_open_batch() {
        let (kv, _, _) = loaded(1_000, 2);
        assert_eq!(kv.next_deadline(), None);
    }

    #[test]
    fn deadline_is_the_first_update_plus_the_batch_age() {
        let (mut kv, mut bs, lim) = loaded(1_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let first = SimTime::from_micros(5);
        let age = WAL_MAX_BATCH_AGE;
        kv.begin_op(KvOp::Update(1), first, &mut ctx);
        assert_eq!(kv.next_deadline(), Some(first + age));
        // Joining an open batch does not move its deadline.
        kv.begin_op(
            KvOp::Update(2),
            first + SimDuration::from_micros(50),
            &mut ctx,
        );
        assert_eq!(kv.next_deadline(), Some(first + age));
    }

    #[test]
    fn a_pump_closes_the_batch_exactly_at_its_deadline() {
        let (mut kv, mut bs, lim) = loaded(1_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        kv.begin_op(KvOp::Update(1), SimTime::from_micros(5), &mut ctx);
        let deadline = kv.next_deadline().expect("open batch");
        let early = kv.pump(deadline - SimDuration::from_nanos(1), &mut ctx);
        assert!(early.ios.is_empty(), "1 ns early leaves the batch open");
        assert_eq!(kv.next_deadline(), Some(deadline));
        let due = kv.pump(deadline, &mut ctx);
        assert_eq!(due.ios.len(), 2, "replicated WAL write at the deadline");
        assert_eq!(kv.next_deadline(), None);
    }

    #[test]
    fn a_batch_closed_by_size_clears_the_deadline() {
        let (mut kv, mut bs, lim) = loaded(1_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        for key in 0..15 {
            kv.begin_op(KvOp::Update(key), SimTime::ZERO, &mut ctx);
        }
        assert!(kv.next_deadline().is_some());
        // The 16th update crosses the 16 KiB batch threshold.
        let (_, out) = kv.begin_op(KvOp::Update(15), SimTime::ZERO, &mut ctx);
        assert_eq!(out.ios.len(), 2);
        assert_eq!(kv.next_deadline(), None);
    }

    #[test]
    fn memtable_hit_serves_reads_without_io() {
        let (mut kv, mut bs, lim) = loaded(1_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        kv.begin_op(KvOp::Update(7), SimTime::ZERO, &mut ctx);
        let (id, out) = kv.begin_op(KvOp::Read(7), SimTime::ZERO, &mut ctx);
        assert!(out.ios.is_empty());
        assert_eq!(out.finished, vec![id]);
        assert_eq!(kv.stats().mem_hits, 1);
    }

    #[test]
    fn sustained_updates_flush_and_compact() {
        let (mut kv, mut bs, lim) = loaded(10_000, 2);
        let mut now = SimTime::ZERO;
        let mut pending: Vec<TaggedIo> = Vec::new();
        // Push ~6 memtables' worth of updates.
        let per_mem = (4 * 1024 * 1024) / 1024;
        for i in 0..(6 * per_mem) {
            now += SimDuration::from_micros(5);
            let mut ctx = IoCtx {
                bs: &mut bs,
                lim: &lim,
                load_balance: true,
            };
            let (_, out) = kv.begin_op(KvOp::Update(i % 10_000), now, &mut ctx);
            pending.extend(out.ios);
            let out = kv.pump(now, &mut ctx);
            pending.extend(out.ios);
            // Execute instantly.
            let ios = std::mem::take(&mut pending);
            settle(&mut kv, &mut bs, &lim, ios, now);
        }
        let s = kv.stats();
        assert!(s.flushes >= 4, "flushes {}", s.flushes);
        assert!(s.compactions >= 1, "compactions {}", s.compactions);
        assert!(s.background_write_bytes > 0);
        assert!(kv.l0_len() <= 6, "L0 bounded: {}", kv.l0_len());
    }

    #[test]
    fn failed_probe_retries_on_the_other_replica() {
        let (mut kv, mut bs, mut lim) = loaded(10_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let (id, out) = kv.begin_op(KvOp::Read(42), SimTime::ZERO, &mut ctx);
        let first = out.ios[0];
        // The backend that served the probe dies; the client marks it.
        lim.mark_dead(first.plan.backend);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let mut retry = StepOutput::default();
        kv.io_failed_into(first.tag, SimTime::ZERO, &mut ctx, &mut retry);
        assert_eq!(retry.ios.len(), 1, "one replacement probe");
        assert_ne!(
            retry.ios[0].plan.backend, first.plan.backend,
            "retry must target the surviving replica"
        );
        assert_eq!(kv.stats().failed_read_retries, 1);
        let fin = settle(&mut kv, &mut bs, &lim, retry.ios, SimTime::ZERO);
        assert_eq!(fin, vec![id]);
    }

    #[test]
    fn degraded_write_completes_on_survivor() {
        let (mut kv, mut bs, lim) = loaded(1_000, 2);
        let mut ios = Vec::new();
        let mut ids = Vec::new();
        for i in 0..16 {
            let mut ctx = IoCtx {
                bs: &mut bs,
                lim: &lim,
                load_balance: true,
            };
            let (id, out) = kv.begin_op(KvOp::Update(i), SimTime::ZERO, &mut ctx);
            ids.push(id);
            ios.extend(out.ios);
        }
        assert_eq!(ios.len(), 2, "replicated WAL write");
        // One replica write fails, the other succeeds: the group commits.
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let mut out1 = StepOutput::default();
        kv.io_failed_into(ios[0].tag, SimTime::ZERO, &mut ctx, &mut out1);
        assert!(out1.finished.is_empty());
        let fin = settle(&mut kv, &mut bs, &lim, vec![ios[1]], SimTime::ZERO);
        let mut fin = fin;
        fin.sort_unstable();
        assert_eq!(fin, ids);
        assert_eq!(kv.stats().degraded_writes, 1);
    }

    #[test]
    fn rmw_reads_then_writes() {
        let (mut kv, mut bs, lim) = loaded(10_000, 2);
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let (id, out) = kv.begin_op(KvOp::ReadModifyWrite(9), SimTime::ZERO, &mut ctx);
        assert_eq!(out.ios.len(), 1, "read phase first");
        // Completing the probe puts it into the WAL batch (not finished yet).
        let fin = settle(&mut kv, &mut bs, &lim, out.ios, SimTime::ZERO);
        assert!(fin.is_empty());
        // Age out the batch.
        let mut ctx = IoCtx {
            bs: &mut bs,
            lim: &lim,
            load_balance: true,
        };
        let out = kv.pump(SimTime::from_millis(1), &mut ctx);
        let fin = settle(&mut kv, &mut bs, &lim, out.ios, SimTime::from_millis(1));
        assert_eq!(fin, vec![id]);
    }
}
