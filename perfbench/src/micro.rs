//! Layer micro-timings: router queries, chunk decoding, multicast tree
//! construction, and a replay of a run's own repair calls.
//!
//! Router queries cost tens of nanoseconds, so they are sampled along
//! the shortest paths of the workload's own packets (the distance mix
//! of the run), warmed up first, timed in batches, and passed through
//! [`black_box`].

use crate::stats::Summary;
use crate::workload::Load;
use otis_core::{MulticastTree, RankedCandidates, RouteRepair, RouteSnapshot, Router};
use otis_digraph::repair::RepairStats;
use otis_optics::{MulticastGroup, WorkloadSource};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Queries per timed batch.
const QUERY_BATCH: usize = 4096;
/// Timed batches per router.
const QUERY_BATCHES: usize = 400;
/// `(current, dst)` samples drawn per workload.
const HOP_SAMPLES: usize = 1 << 16;
/// Groups per timed multicast-tree batch.
const TREE_BATCH: usize = 64;
/// Timed chunks, and timed multicast-tree batches.
const SAMPLES: usize = 200;

/// `(current, dst)` pairs met along the shortest paths of the
/// workload's own packets (multicast: root → each destination), in
/// workload order, up to [`HOP_SAMPLES`].
pub fn hop_samples(router: &dyn Router, load: &Load) -> Vec<(u64, u64)> {
    let mut samples = Vec::with_capacity(HOP_SAMPLES);
    let walk = |src: u64, dst: u64, samples: &mut Vec<(u64, u64)>| {
        let mut current = src;
        let mut steps = 0;
        while current != dst && samples.len() < HOP_SAMPLES && steps <= router.node_count() {
            samples.push((current, dst));
            match router.next_hop(current, dst) {
                Some(next) => current = next,
                None => break,
            }
            steps += 1;
        }
    };
    match load {
        Load::Unicast(source) => {
            let mut pairs = Vec::new();
            for chunk in 0..source.chunk_count() {
                source.fill_chunk(chunk, &mut pairs);
                for &(src, dst) in &pairs {
                    walk(src, dst, &mut samples);
                }
                if samples.len() >= HOP_SAMPLES {
                    break;
                }
            }
        }
        Load::Groups(groups) => {
            for group in groups {
                for &dst in &group.dsts {
                    walk(group.root, dst, &mut samples);
                }
                if samples.len() >= HOP_SAMPLES {
                    break;
                }
            }
        }
    }
    samples
}

/// Nanoseconds per query of `query` over `samples`: one warm-up pass,
/// then [`QUERY_BATCHES`] batches of [`QUERY_BATCH`] queries.
pub fn ns_per_query(samples: &[(u64, u64)], query: impl Fn(u64, u64) -> Option<u64>) -> Summary {
    if samples.is_empty() {
        return Summary::of(&[]);
    }
    let mut sink = 0u64;
    for &(current, dst) in samples {
        sink = sink.wrapping_add(black_box(query(black_box(current), black_box(dst))).unwrap_or(0));
    }
    let mut per_query = Vec::with_capacity(QUERY_BATCHES);
    let mut cursor = 0;
    for _ in 0..QUERY_BATCHES {
        let start = Instant::now();
        for _ in 0..QUERY_BATCH {
            let (current, dst) = samples[cursor];
            sink = sink
                .wrapping_add(black_box(query(black_box(current), black_box(dst))).unwrap_or(0));
            cursor += 1;
            if cursor == samples.len() {
                cursor = 0;
            }
        }
        per_query.push(start.elapsed().as_nanos() as f64 / QUERY_BATCH as f64);
    }
    black_box(sink);
    Summary::of(&per_query)
}

/// Microseconds to decode one [`WorkloadSource::CHUNK`]-pair chunk
/// (partial chunks scaled up), cycling over the source's chunks.
pub fn fill_chunk_us(source: &WorkloadSource) -> Summary {
    let mut buf = Vec::new();
    let chunks = source.chunk_count().max(1);
    source.fill_chunk(0, &mut buf);
    let mut per_chunk = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let chunk = i % chunks;
        let start = Instant::now();
        source.fill_chunk(black_box(chunk), &mut buf);
        let elapsed = start.elapsed().as_secs_f64();
        black_box(&buf);
        let pairs = source.chunk_bounds(chunk).len().max(1);
        per_chunk.push(elapsed * 1e6 * WorkloadSource::CHUNK as f64 / pairs as f64);
    }
    Summary::of(&per_chunk)
}

/// Microseconds per group of [`MulticastTree::build`], in batches of
/// [`TREE_BATCH`] groups cycling over `groups`, after one warm-up
/// batch.
pub fn multicast_tree_us(router: &dyn Router, groups: &[MulticastGroup]) -> Summary {
    if groups.is_empty() {
        return Summary::of(&[]);
    }
    let build_batch = |first: usize| {
        for i in 0..TREE_BATCH {
            let group = &groups[(first + i) % groups.len()];
            black_box(MulticastTree::build(
                router,
                group.root,
                black_box(&group.dsts),
            ));
        }
    };
    build_batch(0);
    let mut per_group = Vec::with_capacity(SAMPLES);
    for b in 0..SAMPLES {
        let start = Instant::now();
        build_batch(b * TREE_BATCH);
        per_group.push(start.elapsed().as_secs_f64() * 1e6 / TREE_BATCH as f64);
    }
    Summary::of(&per_group)
}

/// One repair-side call a run made into its router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairCall {
    Event { from: u64, to: u64, alive: bool },
    Publish,
}

/// A router wrapper that forwards every query and repair call to its
/// inner router and logs the repair calls in order, with their start
/// and end, so a run's link events can be traced as spans and replayed
/// on a fresh table afterwards.
pub struct RepairRecorder<'a> {
    inner: &'a dyn Router,
    log: Mutex<Vec<(RepairCall, Instant, Instant)>>,
}

impl<'a> RepairRecorder<'a> {
    pub fn new(inner: &'a dyn Router) -> Self {
        RepairRecorder {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    fn repair(&self) -> &dyn RouteRepair {
        self.inner
            .as_repair()
            .expect("the recorder only offers repair when its inner router does")
    }

    /// Forward one repair call through `f`, logging it with its timing.
    fn record<T>(&self, call: RepairCall, f: impl FnOnce(&dyn RouteRepair) -> T) -> T {
        let start = Instant::now();
        let out = f(self.repair());
        let end = Instant::now();
        self.log
            .lock()
            .expect("no recorder call panics while holding the log")
            .push((call, start, end));
        out
    }

    pub fn into_log(self) -> Vec<(RepairCall, Instant, Instant)> {
        self.log
            .into_inner()
            .expect("no recorder call panics while holding the log")
    }
}

impl Router for RepairRecorder<'_> {
    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.inner.next_hop(current, dst)
    }

    fn next_hop_on_vc(&self, current: u64, dst: u64, vc: u8) -> Option<u64> {
        self.inner.next_hop_on_vc(current, dst, vc)
    }

    fn hops_are_stateless(&self) -> bool {
        self.inner.hops_are_stateless()
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        self.inner.ranked_candidates(current, dst)
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        self.inner.distance(src, dst)
    }

    fn as_repair(&self) -> Option<&dyn RouteRepair> {
        self.inner.as_repair().map(|_| self as &dyn RouteRepair)
    }
}

impl RouteRepair for RepairRecorder<'_> {
    fn apply_link_event(&self, from: u64, to: u64, alive: bool) -> RepairStats {
        let stats = self.apply_link_event_deferred(from, to, alive);
        self.publish_deferred();
        stats
    }

    fn apply_link_event_deferred(&self, from: u64, to: u64, alive: bool) -> RepairStats {
        self.record(RepairCall::Event { from, to, alive }, |repair| {
            repair.apply_link_event_deferred(from, to, alive)
        })
    }

    fn publish_deferred(&self) {
        self.record(RepairCall::Publish, |repair| repair.publish_deferred());
    }

    fn repair_table_runs(&self) -> usize {
        self.repair().repair_table_runs()
    }

    fn snapshot_epoch(&self) -> u64 {
        self.repair().snapshot_epoch()
    }

    fn published_snapshot(&self) -> Option<RouteSnapshot> {
        self.repair().published_snapshot()
    }
}

/// What replaying a run's repair calls on a fresh table cost.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per link event, microseconds in `apply_link_event_deferred`.
    pub event_us: Vec<f64>,
    /// Per publication that changed the snapshot, milliseconds in
    /// `publish_deferred`.
    pub publish_ms: Vec<f64>,
    /// Per link event, runs patched (the report's
    /// `repair_runs_patched`).
    pub runs_patched: Vec<u64>,
    /// Repair work summed over every event.
    pub total: RepairStats,
    pub publications: u64,
    /// Runs held by the table at each publication, summed (the
    /// report's `snapshot_runs_published`).
    pub runs_published: u64,
}

/// Replay `calls` through `fresh` (a newly built router of the same
/// fabric), timing every repair and publication.
pub fn replay(fresh: &dyn Router, calls: &[RepairCall]) -> Replay {
    let repair = fresh.as_repair().expect("replay needs a repairable router");
    let mut out = Replay::default();
    let mut epoch = repair.snapshot_epoch();
    for call in calls {
        match *call {
            RepairCall::Event { from, to, alive } => {
                let start = Instant::now();
                let stats = repair.apply_link_event_deferred(from, to, alive);
                out.event_us.push(start.elapsed().as_secs_f64() * 1e6);
                out.runs_patched.push(stats.runs_patched as u64);
                out.total.absorb(stats);
            }
            RepairCall::Publish => {
                let start = Instant::now();
                repair.publish_deferred();
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                let now = repair.snapshot_epoch();
                if now != epoch {
                    epoch = now;
                    out.publish_ms.push(elapsed);
                    out.publications += 1;
                    out.runs_published += repair.repair_table_runs() as u64;
                }
            }
        }
    }
    out
}
