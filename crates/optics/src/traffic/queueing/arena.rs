//! The packet arena and intrusive channel queues — the queueing
//! engine's storage layer.
//!
//! The pre-arena engine kept one `VecDeque<Packet>` per (link, VC)
//! channel: hundreds of thousands of independently allocated ring
//! buffers whose blocks scatter packets across the heap, so every
//! drain touched allocator metadata and cold cache lines. Here all
//! packet state lives in structure-of-arrays slabs, indexed by a
//! `u32` packet id. A workload entry is **one record** from decode
//! until it retires: it waits on its source's pending FIFO, enters
//! its first-hop channel as itself, and is recycled when it is
//! delivered or dropped (a multicast group's record retires at
//! injection, its tree copies are records of their own):
//!
//! * ids are recycled through a free list, so a steady-state run's
//!   working set is its *live* records — pending entries plus
//!   packets in flight — not its packet count: a million-packet run
//!   with 10k live touches 10k slots;
//! * the slabs are **chunked** and lazily grown: a fixed-size chunk of
//!   every field materializes the first time an id in its range is
//!   touched, so resident memory tracks the run's live-record
//!   watermark, not the offered load. A ten-million-packet stream
//!   whose watermark is 2M records allocates 2M slots' worth of
//!   chunks (~28 bytes each), never the 280 MB a full-length slab
//!   would cost — and the free list's LIFO recycling keeps the
//!   watermark (and the chunk count) at the congestion peak;
//! * every FIFO — a source's pending entries, a channel's packets —
//!   is an intrusive singly linked list threaded through the `link`
//!   slab, so push/pop are two or three word writes and the queue
//!   nodes are the records themselves — no per-queue allocation,
//!   ever;
//! * slab fields are atomics (`Relaxed`) because the inject and drain
//!   phases shard packets across workers: every slot has exactly one
//!   writer per phase, and the phase barriers order everything else.
//!   On x86 a relaxed atomic is an ordinary `mov`. The *free list*
//!   lives apart in [`ArenaAllocator`] behind a mutex the parallel
//!   injection phase only touches to refill per-worker id batches, so
//!   the shared slabs stay `&self` all the way down.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// The null packet id / null cache / null queue link.
pub(super) const NONE: u32 = u32::MAX;

/// log2 of the chunk size: 64Ki slots ≈ 1.8 MiB per resident chunk.
const CHUNK_BITS: u32 = 16;
/// Packet slots per chunk.
const CHUNK_SLOTS: usize = 1 << CHUNK_BITS;
const OFFSET_MASK: u32 = (CHUNK_SLOTS - 1) as u32;

/// One resident chunk: every per-packet field for a contiguous
/// `CHUNK_SLOTS`-id range.
struct Slab {
    dst: Box<[AtomicU32]>,
    offered: Box<[AtomicU64]>,
    hops: Box<[AtomicU32]>,
    vc: Box<[AtomicU32]>,
    cached_next: Box<[AtomicU32]>,
    link: Box<[AtomicU32]>,
}

impl Slab {
    fn new() -> Self {
        let zeroed = || (0..CHUNK_SLOTS).map(|_| AtomicU32::new(0)).collect();
        Slab {
            dst: zeroed(),
            offered: (0..CHUNK_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            hops: zeroed(),
            vc: zeroed(),
            cached_next: zeroed(),
            link: zeroed(),
        }
    }
}

/// Chunked structure-of-arrays packet slabs, `u32`-indexed. The chunk
/// *table* is sized at construction (a run's live records are bounded
/// by its workload entries plus, for multicast, its tree arcs), but
/// chunks materialize on first touch — all access is `&self`, from
/// any phase's worker.
pub(super) struct PacketArena {
    chunks: Vec<OnceLock<Slab>>,
}

impl PacketArena {
    /// Slabs for at most `capacity` simultaneously live packets.
    /// Allocates only the chunk pointer table (one word per 64Ki
    /// ids); chunks themselves appear as the id watermark grows.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity < NONE as usize,
            "arena capacity {capacity} would overflow u32 packet ids"
        );
        PacketArena {
            chunks: (0..capacity.div_ceil(CHUNK_SLOTS))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The slot's chunk (materializing it on first touch — a benign
    /// race: `get_or_init` lets one initializer win and drops the
    /// loser) and the offset within it.
    #[inline]
    fn slot(&self, id: u32) -> (&Slab, usize) {
        let chunk = self.chunks[(id >> CHUNK_BITS) as usize].get_or_init(Slab::new);
        (chunk, (id & OFFSET_MASK) as usize)
    }

    /// Chunks resident right now — the memory the run actually
    /// touched, `CHUNK_SLOTS` packet slots each.
    #[cfg(test)]
    pub fn resident_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }

    /// Destination node of a unicast record ([`NONE`] when it lies
    /// off the fabric), group index of a pending multicast entry, or
    /// tree arc of a multicast copy.
    #[inline]
    pub fn dst(&self, id: u32) -> &AtomicU32 {
        let (chunk, offset) = self.slot(id);
        &chunk.dst[offset]
    }

    /// Cycle the packet's injection credit accrued (offer clock).
    #[inline]
    pub fn offered(&self, id: u32) -> &AtomicU64 {
        let (chunk, offset) = self.slot(id);
        &chunk.offered[offset]
    }

    /// Hops taken so far.
    #[inline]
    pub fn hops(&self, id: u32) -> &AtomicU32 {
        let (chunk, offset) = self.slot(id);
        &chunk.hops[offset]
    }

    /// Current dateline VC class (low 8 bits used).
    #[inline]
    pub fn vc(&self, id: u32) -> &AtomicU32 {
        let (chunk, offset) = self.slot(id);
        &chunk.vc[offset]
    }

    /// Cached next-hop arc at the packet's current node (a pending
    /// entry's: its first hop from the source), for stateless
    /// routers: [`NONE`] = not computed; invalidated on every move.
    /// This is what makes a blocked head — a channel's or a stalled
    /// source's — cost a word load per cycle instead of a router
    /// query.
    #[inline]
    pub fn cached_next(&self, id: u32) -> &AtomicU32 {
        let (chunk, offset) = self.slot(id);
        &chunk.cached_next[offset]
    }

    /// Intrusive FIFO link: the next record in this record's queue —
    /// its source's pending FIFO, then its channel's.
    #[inline]
    pub fn link(&self, id: u32) -> &AtomicU32 {
        let (chunk, offset) = self.slot(id);
        &chunk.link[offset]
    }

    /// Initialize a freshly claimed slot.
    pub fn init(&self, id: u32, dst: u32, offered: u64, vc: u8) {
        // ORDERING: Relaxed stores — the slot id was claimed from the
        // allocator (mutex or sequential phase), so this thread is the
        // slot's sole owner until it publishes the id into a source or
        // channel FIFO, and the FIFO's readers run in a later phase
        // beyond a Barrier::wait()/lock release that orders these
        // writes first.
        let (chunk, offset) = self.slot(id);
        chunk.dst[offset].store(dst, Relaxed);
        chunk.offered[offset].store(offered, Relaxed);
        chunk.hops[offset].store(0, Relaxed);
        chunk.vc[offset].store(vc as u32, Relaxed);
        chunk.cached_next[offset].store(NONE, Relaxed);
        chunk.link[offset].store(NONE, Relaxed);
    }
}

/// The arena's id supply: fresh slots up to capacity, recycled slots
/// LIFO (hot slots stay cache-hot). Sequential phases (decode, which
/// claims one record per workload entry) claim directly; the parallel
/// phases refill per-worker id batches for multicast copies through a
/// mutex around this allocator, one lock per [`Self::claim_batch`] —
/// not per packet.
pub(super) struct ArenaAllocator {
    free: Vec<u32>,
    allocated: u32,
    capacity: u32,
}

impl ArenaAllocator {
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < NONE as usize,
            "arena capacity {capacity} would overflow u32 packet ids"
        );
        ArenaAllocator {
            free: Vec::new(),
            allocated: 0,
            capacity: capacity as u32,
        }
    }

    /// Claim an id, recycling first.
    pub fn claim(&mut self) -> u32 {
        match self.free.pop() {
            Some(id) => id,
            None => {
                assert!(
                    self.allocated < self.capacity,
                    "arena overflow: {} live packets exceed capacity {}",
                    self.allocated,
                    self.capacity
                );
                let id = self.allocated;
                self.allocated += 1;
                id
            }
        }
    }

    /// Claim up to `want` ids into `out` (recycled first, then fresh);
    /// stops early only at capacity. Workers refill their local
    /// multicast-copy pools with this — one lock acquisition per
    /// batch.
    pub fn claim_batch(&mut self, out: &mut Vec<u32>, want: usize) {
        for _ in 0..want {
            if let Some(id) = self.free.pop() {
                out.push(id);
            } else if self.allocated < self.capacity {
                out.push(self.allocated);
                self.allocated += 1;
            } else {
                break;
            }
        }
    }

    /// Return a batch of slots (a cycle's retired records, or a
    /// worker pool's leftovers at run end).
    pub fn release_all(&mut self, ids: impl IntoIterator<Item = u32>) {
        self.free.extend(ids);
    }

    /// Live records = handed out minus recycled. The conservation
    /// invariant: after a run (with every worker pool returned) this
    /// must equal the copies still in flight plus the entries still
    /// pending at their sources.
    pub fn live(&self) -> usize {
        self.allocated as usize - self.free.len()
    }
}

/// Per-channel FIFO heads/tails plus the occupancy words the drain
/// phase's room checks read. One entry per (arc, VC) channel,
/// arc-major — the indexing of the engine's occupancy scoreboard,
/// which is what `len` borrows.
pub(super) struct ChannelQueues<'a> {
    /// First packet of the FIFO ([`NONE`] = empty).
    pub head: Vec<AtomicU32>,
    /// Last packet of the FIFO ([`NONE`] = empty).
    pub tail: Vec<AtomicU32>,
    /// Committed occupancy: the engine's occupancy scoreboard itself
    /// (what [`super::LinkOccupancy`] reads), so one store per push
    /// and pop serves both the room checks and adaptive routers.
    /// Stable during a drain phase (pops are batched to the phase
    /// boundary), which is what makes room checks order- and
    /// thread-count-independent: a slot freed this cycle becomes
    /// claimable next cycle.
    pub len: &'a [AtomicU32],
    /// Arrivals staged *this* cycle, counted toward room checks so a
    /// channel is never oversubscribed within the cycle. Written only
    /// by the worker owning the channel's source node.
    pub staged_len: Vec<AtomicU32>,
}

impl<'a> ChannelQueues<'a> {
    /// Empty FIFOs over one channel per `len` word, zeroing `len`.
    pub fn new(len: &'a [AtomicU32]) -> Self {
        // ORDERING: Relaxed — the queues are built before any worker
        // starts; the thread spawn publishes the zeroed counts.
        for count in len {
            count.store(0, Relaxed);
        }
        let channels = len.len();
        ChannelQueues {
            head: (0..channels).map(|_| AtomicU32::new(NONE)).collect(),
            tail: (0..channels).map(|_| AtomicU32::new(NONE)).collect(),
            len,
            staged_len: (0..channels).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Append `id` to `chan`'s FIFO, threading the intrusive link.
    /// Returns the new committed length. Callers hold per-channel
    /// ownership (injection: the channel's source node; apply: the
    /// main thread).
    pub fn push(&self, chan: usize, id: u32, arena: &PacketArena) -> u32 {
        // ORDERING: Relaxed throughout — every word touched here
        // (head/tail/len of `chan`, the pushed packet's link) is owned
        // by the calling worker for the duration of the phase: a
        // channel is pushed only by its source node's inject worker or
        // by the sequential apply step, never both in one phase. The
        // load+store on `len` is a plain RMW on a single-writer word.
        // Cross-phase readers (drain workers, room checks) are ordered
        // behind these writes by the engine's phase barrier.
        arena.link(id).store(NONE, Relaxed);
        let tail = self.tail[chan].load(Relaxed);
        if tail == NONE {
            self.head[chan].store(id, Relaxed);
        } else {
            arena.link(tail).store(id, Relaxed);
        }
        self.tail[chan].store(id, Relaxed);
        let len = self.len[chan].load(Relaxed) + 1;
        self.len[chan].store(len, Relaxed);
        len
    }

    /// Unlink `chan`'s current head `id`. Does **not** touch `len` —
    /// the drain phase batches its pop counts to the apply step so
    /// occupancy stays phase-stable. Caller owns the channel's
    /// downstream node.
    pub fn pop_head(&self, chan: usize, id: u32, arena: &PacketArena) {
        // ORDERING: Relaxed — a channel is drained only by the worker
        // owning its downstream node, so head/tail/link are
        // single-writer during the drain phase; the inject-side writes
        // they chain onto were ordered ahead by the phase barrier.
        debug_assert_eq!(self.head[chan].load(Relaxed), id);
        let next = arena.link(id).load(Relaxed);
        self.head[chan].store(next, Relaxed);
        if next == NONE {
            self.tail[chan].store(NONE, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_recycles_slots() {
        let arena = PacketArena::with_capacity(3);
        let mut ids = ArenaAllocator::new(3);
        let a = ids.claim();
        let b = ids.claim();
        arena.init(a, 7, 1, 0);
        arena.init(b, 8, 2, 1);
        assert_eq!((a, b), (0, 1));
        assert_eq!(ids.live(), 2);
        ids.release_all([a]);
        assert_eq!(ids.live(), 1);
        // The freed slot is reused before fresh slots, fully
        // reinitialized.
        let c = ids.claim();
        assert_eq!(c, a);
        arena.init(c, 9, 3, 2);
        assert_eq!(arena.dst(c).load(Relaxed), 9);
        assert_eq!(arena.hops(c).load(Relaxed), 0);
        assert_eq!(arena.cached_next(c).load(Relaxed), NONE);
        assert_eq!(ids.live(), 2);
        ids.release_all([b, c]);
        assert_eq!(ids.live(), 0);
    }

    #[test]
    fn batch_claims_stop_at_capacity() {
        let mut ids = ArenaAllocator::new(5);
        let a = ids.claim();
        let b = ids.claim();
        ids.release_all([a, b]);
        let mut pool = Vec::new();
        ids.claim_batch(&mut pool, 4);
        assert_eq!(pool, vec![1, 0, 2, 3], "recycled LIFO, then fresh");
        // Fresh ids stop at capacity instead of panicking — partial
        // batches are the worker pools' back-off signal.
        ids.claim_batch(&mut pool, 100);
        assert_eq!(pool, vec![1, 0, 2, 3, 4]);
        assert_eq!(ids.live(), 5);
    }

    #[test]
    #[should_panic(expected = "arena overflow")]
    fn arena_overflow_is_loud() {
        let mut ids = ArenaAllocator::new(1);
        ids.claim();
        ids.claim();
    }

    #[test]
    fn chunks_materialize_lazily_with_the_id_watermark() {
        // Capacity spans many chunks, but only touched chunks are
        // resident — the live-watermark memory model.
        let arena = PacketArena::with_capacity(5 * CHUNK_SLOTS + 7);
        assert_eq!(arena.resident_chunks(), 0);
        arena.init(0, 1, 2, 0);
        assert_eq!(arena.resident_chunks(), 1);
        arena.init((CHUNK_SLOTS - 1) as u32, 1, 2, 0);
        assert_eq!(arena.resident_chunks(), 1, "same chunk");
        let far = (3 * CHUNK_SLOTS + 5) as u32;
        arena.init(far, 42, 9, 1);
        assert_eq!(arena.resident_chunks(), 2, "only touched chunks");
        assert_eq!(arena.dst(far).load(Relaxed), 42);
        assert_eq!(arena.offered(far).load(Relaxed), 9);
        assert_eq!(arena.vc(far).load(Relaxed), 1);
        // The last, partial chunk's ids resolve too.
        let last = (5 * CHUNK_SLOTS + 6) as u32;
        arena.init(last, 7, 1, 0);
        assert_eq!(arena.dst(last).load(Relaxed), 7);
        assert_eq!(arena.resident_chunks(), 3);
    }

    #[test]
    fn channel_fifo_order() {
        let arena = PacketArena::with_capacity(4);
        let mut ids = ArenaAllocator::new(4);
        let len: Vec<AtomicU32> = (0..2).map(|_| AtomicU32::new(7)).collect();
        let queues = ChannelQueues::new(&len);
        assert_eq!(queues.len[0].load(Relaxed), 0, "new queues start empty");
        let handles: Vec<u32> = (0..4)
            .map(|i| {
                let id = ids.claim();
                arena.init(id, i, 0, 0);
                id
            })
            .collect();
        for &id in &handles[..3] {
            queues.push(0, id, &arena);
        }
        queues.push(1, handles[3], &arena);
        assert_eq!(queues.len[0].load(Relaxed), 3);
        assert_eq!(queues.len[1].load(Relaxed), 1);
        // FIFO: pop order equals push order, per channel.
        let mut order = Vec::new();
        while queues.head[0].load(Relaxed) != NONE {
            let id = queues.head[0].load(Relaxed);
            queues.pop_head(0, id, &arena);
            order.push(id);
        }
        assert_eq!(order, &handles[..3]);
        assert_eq!(queues.tail[0].load(Relaxed), NONE);
        assert_eq!(queues.head[1].load(Relaxed), handles[3]);
    }
}
