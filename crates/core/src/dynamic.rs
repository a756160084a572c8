//! Online-repairable routing: the [`Router`] that tracks a fabric
//! whose links die and revive *mid-run*.
//!
//! Static tables ([`crate::RoutingTable`]) answer for the fabric they
//! were built over; when a free-space link fades to nothing the table
//! keeps steering packets into it until someone rebuilds — an `O(n·m)`
//! stall per event. [`DynamicRoutingTable`] instead wraps the
//! incrementally repairable table
//! ([`otis_digraph::repair::RepairableNextHopTable`]): a link event
//! patches only the per-source run rows whose min-first-hop actually
//! changed, and every routing query between events reads the patched
//! rows lock-cheaply.
//!
//! The engine-facing half is [`RouteRepair`]: a queueing engine with a
//! link-dynamics timeline asks its router for this capability
//! ([`Router::as_repair`]) and, when present, feeds each death/revival
//! through [`RouteRepair::apply_link_event_deferred`] on the
//! sequential slot of its cycle loop, then calls
//! [`RouteRepair::publish_deferred`] once per same-cycle batch —
//! workers are parked at a phase barrier, so the write lock is
//! uncontended in practice.
//!
//! Reads, by contrast, never touch that lock: every publication that
//! follows a row-changing repair swaps in an immutable
//! [`RouteSnapshot`] (a compact CSR view behind an `Arc`) and bumps an
//! epoch counter. The engine's drain/inject workers cache the snapshot
//! per thread, poll the epoch once per cycle, and re-fetch only when
//! it moved — so between link events every next-hop lookup is
//! lock-free and wait-free, at the same canonical answers the locked
//! path gives.

use crate::router::{rank_candidates, RankedCandidates, Router};
use crate::WitnessMap;
use otis_digraph::compressed::CompressedNextHopTable;
use otis_digraph::repair::{RepairStats, RepairableNextHopTable};
use otis_digraph::{Digraph, INFINITY};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The online-repair capability a dynamics-driving engine consumes.
///
/// A repair is two steps: [`Self::apply_link_event_deferred`] patches
/// the routing state for one link transition, and
/// [`Self::publish_deferred`] makes every patch since the last
/// publication visible to readers. Calls happen on the engine's
/// sequential slot (no routing queries in flight), once per link
/// transition across zero capacity, with one publication per
/// same-cycle batch.
pub trait RouteRepair: Sync {
    /// The link `from → to` died (`alive = false`) or revived
    /// (`alive = true`); patch the routing state and return what the
    /// patch cost, *without* refreshing the published read snapshot.
    /// An engine applying a batch of same-cycle events (a 16-beam
    /// storm crossing zero at once) calls this per event and
    /// [`Self::publish_deferred`] once at the end of the batch, paying
    /// one snapshot instead of sixteen. Routing queries must not run
    /// between a deferred event and its publication — the engine's
    /// sequential slot guarantees that. A no-op transition (unknown
    /// link, already in that state) costs [`RepairStats::default`].
    fn apply_link_event_deferred(&self, from: u64, to: u64, alive: bool) -> RepairStats;

    /// Publish whatever [`Self::apply_link_event_deferred`] left
    /// pending; a no-op when nothing patched since the last
    /// publication.
    fn publish_deferred(&self);

    /// One event, published at once: after the call returns, every
    /// query answers for the new survivor fabric.
    fn apply_link_event(&self, from: u64, to: u64, alive: bool) -> RepairStats {
        let stats = self.apply_link_event_deferred(from, to, alive);
        self.publish_deferred();
        stats
    }

    /// Total runs currently stored — the denominator a report quotes
    /// repair costs against (a full rebuild rewrites all of them).
    fn repair_table_runs(&self) -> usize;

    /// Monotone counter that moves exactly when the published snapshot
    /// changes. Engines poll this once per cycle (one atomic load) and
    /// call [`Self::published_snapshot`] only when it moved.
    fn snapshot_epoch(&self) -> u64;

    /// The current epoch-published snapshot, if this implementation
    /// offers lock-free reads (`None`: every read goes through the
    /// router itself). Fetching is cheap (`Arc` bumps plus one
    /// uncontended mutex), but callers should still gate fetches on
    /// [`Self::snapshot_epoch`] movement and cache the result.
    fn published_snapshot(&self) -> Option<RouteSnapshot>;
}

/// An immutable, epoch-stamped view of a repairable router's current
/// next-hop function — what a queueing engine's drain/inject workers
/// route through instead of taking the repairable table's lock on
/// every query.
///
/// Cloning is cheap (`Arc` bumps): workers cache one per thread and
/// refresh only when [`RouteRepair::snapshot_epoch`] moves, which
/// happens on the engine's sequential slot when a link event actually
/// changed a next-hop row. Between epochs every lookup is lock-free
/// and wait-free, and byte-identical to the owning router's locked
/// answers at the same epoch.
#[derive(Clone)]
pub struct RouteSnapshot {
    epoch: u64,
    table: Arc<CompressedNextHopTable>,
    /// Present when the snapshot serves a relabeled (isomorphic outer)
    /// fabric: `(to_inner, from_inner)` translate endpoints through
    /// the isomorphism witness — kill/revive and queries arrive in
    /// outer (H) numbering while the table speaks de Bruijn ranks.
    relabel: Option<WitnessPair>,
}

/// An isomorphism witness as a `(to_inner, from_inner)` pair of maps,
/// sharing their tables with the relabeled router that published it.
type WitnessPair = (WitnessMap, WitnessMap);

impl RouteSnapshot {
    /// The publication epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Next hop `current → dst` under this snapshot: `None` if
    /// `current == dst`, the destination is unreachable, or either
    /// endpoint is off-fabric — the same canonical answer the owning
    /// router's locked path gives at the same epoch.
    #[inline]
    pub fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        match &self.relabel {
            None => self.table.next_hop64(current, dst),
            Some((to_inner, from_inner)) => {
                let (c, d) = (to_inner.get(current)?, to_inner.get(dst)?);
                self.table.next_hop64(c, d).and_then(|v| from_inner.get(v))
            }
        }
    }

    /// Re-address this snapshot for an isomorphic outer fabric via a
    /// witness pair, or `None` if it is already relabeled (witness
    /// composition is not supported — nest routers, not snapshots).
    pub(crate) fn relabeled(
        &self,
        to_inner: WitnessMap,
        from_inner: WitnessMap,
    ) -> Option<RouteSnapshot> {
        if self.relabel.is_some() {
            return None;
        }
        Some(RouteSnapshot {
            epoch: self.epoch,
            table: Arc::clone(&self.table),
            relabel: Some((to_inner, from_inner)),
        })
    }
}

/// A [`Router`] over an incrementally repairable next-hop table.
///
/// Behaves exactly like the compressed [`crate::RoutingTable`] while
/// every arc is alive (same canonical minimum-first-hop answers); as
/// links die and revive it repairs in place and keeps answering for
/// the survivor fabric. [`Router::ranked_candidates`] enumerates only
/// *live* out-arcs, so an [`crate::AdaptiveRouter`] wrapped around
/// this never deroutes onto a dead beam.
///
/// Reports `hops_are_stateless() = true` even though answers change
/// at repair events: the contract engines rely on is stability
/// *between* events, and a dynamics-driving engine re-validates any
/// cached hop whose target arc has since died (that is the engine's
/// side of the bargain — see the dead-target requery in the queueing
/// engine's drain phase).
pub struct DynamicRoutingTable {
    inner: RwLock<RepairableNextHopTable>,
    /// The epoch-published immutable read view; replaced (never
    /// mutated) by [`RouteRepair::publish_deferred`] whenever a repair
    /// since the last publication patched at least one row. The mutex
    /// only guards the `Arc` swap — readers clone out and drop the
    /// guard immediately.
    published: Mutex<Arc<CompressedNextHopTable>>,
    /// Bumps with every publication; readers poll this to learn their
    /// cached snapshot went stale.
    epoch: AtomicU64,
    /// A repair patched rows since the last publication
    /// ([`RouteRepair::publish_deferred`] drains it).
    pending: AtomicBool,
    label: String,
}

impl DynamicRoutingTable {
    /// Build over `g` with every arc alive.
    pub fn new(g: &Digraph) -> Self {
        Self::with_label(g, format!("{} nodes", g.node_count()))
    }

    /// As [`DynamicRoutingTable::new`] with a fabric label for
    /// [`Router::name`].
    pub fn with_label(g: &Digraph, label: impl Into<String>) -> Self {
        Self::with_dead_arcs(g, &[], label)
    }

    /// Build with a set of arcs (arc indices of `g`) already down —
    /// how a hardware fault set enters the table (an OTIS fault set
    /// maps its dead beams to arcs through `FaultSet::dead_arcs`).
    pub fn with_dead_arcs(g: &Digraph, dead: &[usize], label: impl Into<String>) -> Self {
        let table = RepairableNextHopTable::with_dead_arcs(g, dead);
        let published = Mutex::new(Arc::new(table.snapshot()));
        DynamicRoutingTable {
            inner: RwLock::new(table),
            published,
            epoch: AtomicU64::new(1),
            pending: AtomicBool::new(false),
            label: label.into(),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, RepairableNextHopTable> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The current rows as a static compressed table — the
    /// differential hook (byte-identical to a from-scratch build of
    /// the survivor digraph).
    pub fn snapshot(&self) -> otis_digraph::compressed::CompressedNextHopTable {
        self.read().snapshot()
    }

    /// Arcs currently down.
    pub fn dead_arc_count(&self) -> usize {
        self.read().dead_arc_count()
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, RepairableNextHopTable> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Kill/revive one arc by *arc index* of the underlying digraph —
    /// the hook for hardware faults, where endpoint pairs are
    /// ambiguous (parallel beams implement distinct arcs between the
    /// same node pair). Publishes exactly like
    /// [`RouteRepair::apply_link_event`]. Panics on an out-of-range
    /// arc index.
    pub fn apply_arc_event(&self, arc: usize, alive: bool) -> RepairStats {
        let stats = self.write().set_arc_alive(arc, alive);
        self.mark_pending(&stats);
        self.publish_deferred();
        stats
    }

    /// Flag a repair that changed at least one row for the next
    /// [`RouteRepair::publish_deferred`].
    fn mark_pending(&self, stats: &RepairStats) {
        if stats.rows_patched > 0 {
            // ORDERING: Relaxed — set and drained on the engine's
            // sequential slot (no concurrent readers of the flag); the
            // eventual publication does the Release hand-off.
            self.pending.store(true, Ordering::Relaxed);
        }
    }
}

impl Router for DynamicRoutingTable {
    fn node_count(&self) -> u64 {
        self.read().node_count() as u64
    }

    fn name(&self) -> String {
        format!("dynamic-table({})", self.label)
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        let table = self.read();
        let n = table.node_count() as u64;
        if current >= n || dst >= n {
            return None;
        }
        table.next_hop(current as u32, dst as u32).map(u64::from)
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        let table = self.read();
        let n = table.node_count() as u64;
        if current >= n || dst >= n || current == dst {
            return RankedCandidates::new();
        }
        rank_candidates(
            current,
            table.live_out_arcs(current as u32).map(|(_, v)| v as u64),
            |v| {
                let dist = table.distance(v as u32, dst as u32);
                (dist != INFINITY).then_some(dist as u64)
            },
        )
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        let table = self.read();
        let n = table.node_count() as u64;
        if src >= n || dst >= n {
            return None;
        }
        let dist = table.distance(src as u32, dst as u32);
        (dist != INFINITY).then_some(dist as u64)
    }

    fn as_repair(&self) -> Option<&dyn RouteRepair> {
        Some(self)
    }
}

impl RouteRepair for DynamicRoutingTable {
    fn apply_link_event_deferred(&self, from: u64, to: u64, alive: bool) -> RepairStats {
        let stats = {
            let mut table = self.write();
            let n = table.node_count() as u64;
            if from >= n || to >= n {
                return RepairStats::default();
            }
            table
                .set_link_alive(from as u32, to as u32, alive)
                .unwrap_or_default()
        };
        self.mark_pending(&stats);
        stats
    }

    fn publish_deferred(&self) {
        // ORDERING: Relaxed — same sequential-slot discipline as the
        // store in `mark_pending`.
        if !self.pending.swap(false, Ordering::Relaxed) {
            return;
        }
        let fresh = Arc::new(self.read().snapshot());
        *self.published.lock().unwrap_or_else(|e| e.into_inner()) = fresh;
        // ORDERING: Release pairs with the Acquire load in
        // `snapshot_epoch` — a reader that sees the new epoch also
        // sees the snapshot swap above. (Engine callers repair on
        // their sequential slot with workers parked at a phase
        // barrier, which already orders this; Release keeps
        // standalone users correct too.)
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn repair_table_runs(&self) -> usize {
        self.read().run_count()
    }

    fn snapshot_epoch(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release bump in
        // `publish_deferred`: observing a new epoch implies the
        // matching published snapshot is visible.
        self.epoch.load(Ordering::Acquire)
    }

    fn published_snapshot(&self) -> Option<RouteSnapshot> {
        // Epoch first: should a publication race in between, the
        // snapshot carries an *older* epoch than its table and the
        // caller simply refreshes again on its next poll — benign.
        // The reverse order could stamp a stale table with a fresh
        // epoch and wedge the caller on pre-repair routes.
        let epoch = self.snapshot_epoch();
        let table = Arc::clone(&self.published.lock().unwrap_or_else(|e| e.into_inner()));
        Some(RouteSnapshot {
            epoch,
            table,
            relabel: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeBruijn, DigraphFamily, RoutingTable};

    #[test]
    fn matches_static_table_while_all_links_live() {
        let b = DeBruijn::new(2, 5);
        let g = b.digraph();
        let dynamic = DynamicRoutingTable::new(&g);
        let static_table = RoutingTable::new(&g);
        let n = g.node_count() as u64;
        for src in 0..n {
            for dst in 0..n {
                assert_eq!(dynamic.next_hop(src, dst), static_table.next_hop(src, dst));
                assert_eq!(dynamic.distance(src, dst), static_table.distance(src, dst));
                assert_eq!(
                    dynamic.ranked_candidates(src, dst).as_slice(),
                    static_table.ranked_candidates(src, dst).as_slice(),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn repair_reroutes_and_candidates_skip_dead_arcs() {
        let b = DeBruijn::new(2, 4);
        let g = b.digraph();
        let dynamic = DynamicRoutingTable::new(&g);
        // Node 1's out-neighbors in B(2,4) are 2 and 3. Kill 1 → 2.
        let before = dynamic.ranked_candidates(1, 2);
        assert!(before.iter().any(|&(_, v)| v == 2));
        let cost = dynamic.apply_link_event(1, 2, false);
        assert!(cost.rows_patched > 0);
        assert!(cost.runs_patched < dynamic.repair_table_runs());
        assert!(dynamic.ranked_candidates(1, 2).iter().all(|&(_, v)| v != 2));
        assert_ne!(
            dynamic.next_hop(1, 2),
            Some(2),
            "hop repaired off the dead beam"
        );
        // The engine's discovery hook finds the capability.
        assert!(dynamic.as_repair().is_some());
        assert!(RoutingTable::new(&g).as_repair().is_none());
        // Revive restores the original answers.
        dynamic.apply_link_event(1, 2, true);
        assert_eq!(dynamic.next_hop(1, 2), Some(2));
        assert_eq!(dynamic.dead_arc_count(), 0);
        // Unknown links are a costless no-op.
        assert_eq!(
            dynamic.apply_link_event(1, 9, false),
            RepairStats::default()
        );
    }

    #[test]
    fn published_snapshot_tracks_repairs_by_epoch() {
        let g = DeBruijn::new(2, 5).digraph();
        let dynamic = DynamicRoutingTable::new(&g);
        let n = g.node_count() as u64;
        let fresh = dynamic.published_snapshot().expect("always published");
        assert_eq!(fresh.epoch(), dynamic.snapshot_epoch());
        for src in 0..n {
            for dst in 0..n {
                assert_eq!(fresh.next_hop(src, dst), dynamic.next_hop(src, dst));
            }
        }
        assert_eq!(fresh.next_hop(n, 0), None, "off-fabric endpoints bound");

        // A row-changing repair bumps the epoch; the old snapshot is
        // immutable (still answers pre-repair), the re-fetched one
        // answers for the survivor fabric.
        let before_epoch = dynamic.snapshot_epoch();
        let stats = dynamic.apply_link_event(1, 2, false);
        assert!(stats.rows_patched > 0);
        assert_eq!(dynamic.snapshot_epoch(), before_epoch + 1);
        assert_eq!(fresh.next_hop(1, 2), Some(2), "old epoch view unchanged");
        let repaired = dynamic.published_snapshot().expect("published");
        assert_eq!(repaired.epoch(), before_epoch + 1);
        assert_ne!(repaired.next_hop(1, 2), Some(2));
        for src in 0..n {
            for dst in 0..n {
                assert_eq!(repaired.next_hop(src, dst), dynamic.next_hop(src, dst));
            }
        }

        // No-op transitions (unknown link, already-dead arc) publish
        // nothing — the epoch only moves when a row changed.
        let after = dynamic.snapshot_epoch();
        assert_eq!(
            dynamic.apply_link_event(1, 2, false),
            RepairStats::default()
        );
        assert_eq!(
            dynamic.apply_link_event(1, 9, false),
            RepairStats::default()
        );
        assert_eq!(dynamic.snapshot_epoch(), after);
    }

    #[test]
    fn adaptive_wrapper_delegates_repair() {
        let g = DeBruijn::new(2, 4).digraph();
        let adaptive =
            crate::AdaptiveRouter::new(DynamicRoutingTable::new(&g), crate::NoCongestion);
        let repair = adaptive.as_repair().expect("delegated through the wrap");
        assert!(repair.apply_link_event(1, 2, false).rows_patched > 0);
        assert!(adaptive
            .ranked_candidates(1, 2)
            .iter()
            .all(|&(_, v)| v != 2));
    }
}
