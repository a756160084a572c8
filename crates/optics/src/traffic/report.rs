//! Aggregate reports for the two traffic engines: the batched static
//! engine ([`TrafficReport`]) and the cycle-accurate queueing engine
//! ([`QueueingReport`]), plus the shared percentile arithmetic.

use serde::{Deserialize, Serialize};

/// Value at `fraction` (0.0..=1.0) of a **sorted** sample, by the
/// nearest-rank convention: the smallest sample with at least
/// `fraction` of the distribution at or below it, i.e. the 1-indexed
/// rank `⌈fraction · N⌉` (clamped to `1..=N`, so `fraction = 0`
/// reads the minimum). `0.0` for an empty sample.
///
/// Nearest-rank never interpolates and never over-reads: p99 of 100
/// samples is the 99th smallest (not the maximum), and p50 of 2
/// samples is the *lower* one (the old `.round()` rank read the
/// upper, overstating the median of small samples).
pub(crate) fn percentile_f64(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (fraction * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// As [`percentile_f64`] for integer samples (queueing delays in
/// cycles); `0` for an empty sample.
pub(crate) fn percentile_u64(sorted: &[u64], fraction: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (fraction * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A dense histogram of queueing waits, replacing the queueing
/// engine's per-packet wait vectors: a ten-million-packet run records
/// into `O(max wait)` counters instead of holding (and sorting) an
/// 80 MB sample vector. Nearest-rank percentiles over the histogram
/// are *exactly* the percentiles of the sorted sample — the rank
/// `⌈fraction · N⌉` (clamped to `1..=N`) lands on the smallest wait
/// whose cumulative count reaches it, which is the same element
/// [`percentile_u64`] indexes.
#[derive(Default)]
pub(crate) struct WaitHistogram {
    /// `counts[w]` = packets that waited exactly `w` cycles. Waits are
    /// bounded by the run's cycle count, so the dense index is tiny
    /// next to the sample it summarizes.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl WaitHistogram {
    pub fn record(&mut self, wait: u64) {
        self.record_n(wait, 1);
    }

    pub fn record_n(&mut self, wait: u64, n: u64) {
        if n == 0 {
            return;
        }
        let slot = wait as usize;
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += n;
        self.total += n;
        self.sum += wait * n;
        self.max = self.max.max(wait);
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded wait; `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, identical to [`percentile_u64`] over
    /// the sorted sample; `0` when empty.
    pub fn percentile(&self, fraction: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((fraction * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (wait, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return wait as u64;
            }
        }
        self.max
    }
}

/// Aggregate results of one batched (static, uncontended) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficReport {
    /// Router description (see [`otis_core::Router::name`]).
    pub router: String,
    /// Packets attempted.
    pub packets: usize,
    /// Packets that reached their destination.
    pub delivered: usize,
    /// Packets dropped (no route / routing loop).
    pub dropped: usize,
    /// Every link traversal, including hops a dropped packet took
    /// before dead-ending — always equals `sum(link_load)`.
    pub total_hops: u64,
    /// Sum of hops over *delivered* packets only.
    pub delivered_hops: u64,
    /// Longest delivered route, in hops.
    pub max_hops: u32,
    /// Packets carried per transceiver (index `u·d + k`): the link
    /// load vector.
    pub link_load: Vec<u64>,
    /// `max(link_load)` — the empirical forwarding index of the
    /// workload under this routing.
    pub max_link_load: u64,
    /// Mean end-to-end latency over delivered packets, ps.
    pub latency_mean_ps: f64,
    /// Median end-to-end latency, ps.
    pub latency_p50_ps: f64,
    /// 99th-percentile end-to-end latency, ps.
    pub latency_p99_ps: f64,
    /// Worst end-to-end latency, ps.
    pub latency_max_ps: f64,
    /// Total optical energy spent, pJ.
    pub energy_total_pj: f64,
    /// True iff every traversed link's power budget closed.
    pub all_budgets_close: bool,
}

impl TrafficReport {
    /// Fraction of packets delivered.
    pub fn delivery_rate(&self) -> f64 {
        if self.packets == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.packets as f64
    }

    /// Mean hops per delivered packet.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.delivered_hops as f64 / self.delivered as f64
    }

    /// Mean load over links that carried any traffic at all
    /// (traversals by dropped packets included — they loaded the
    /// link all the same).
    pub fn mean_link_load(&self) -> f64 {
        let used = self.link_load.iter().filter(|&&load| load > 0).count();
        if used == 0 {
            return 0.0;
        }
        self.total_hops as f64 / used as f64
    }

    /// Mean optical energy per *attempted* packet, pJ: the fabric
    /// spends energy on a packet's hops whether or not it ultimately
    /// arrives.
    pub fn mean_energy_pj(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.energy_total_pj / self.packets as f64
    }
}

/// Aggregate results of one batched multicast run
/// ([`super::TrafficEngine::run_multicast`]): each group routed as one
/// delivery tree, every tree arc charged **once** — the optical
/// replication story — with the **multicast forwarding index** (max
/// per-link tree count) reported against its unicast counterpart (max
/// per-link leaf load, what per-leaf replication would have cost).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticastReport {
    /// Router description (see [`otis_core::Router::name`]).
    pub router: String,
    /// One-to-many groups routed.
    pub groups: usize,
    /// Requested destination leaves over all groups (root
    /// self-requests included).
    pub leaves: usize,
    /// Leaves reached through their tree (self-requests delivered at
    /// the source included).
    pub delivered_leaves: usize,
    /// Leaves with no route from their root.
    pub dropped_leaves: usize,
    /// Tree arcs traversed — optical transmissions actually paid, each
    /// arc charged once however many leaves it serves.
    pub tree_arcs: u64,
    /// Link traversals a per-leaf unicast replication of the same
    /// workload would have paid (sum of root→leaf path lengths).
    /// `unicast_hops / tree_arcs` is the replication saving.
    pub unicast_hops: u64,
    /// Deepest delivery over all trees, in hops.
    pub max_depth: u32,
    /// Trees carried per transceiver (index `u·d + k`): the multicast
    /// link-load vector.
    pub link_load: Vec<u64>,
    /// `max(link_load)` — the **multicast forwarding index** of the
    /// workload under this routing (Wang et al., PAPERS.md).
    pub multicast_forwarding_index: u64,
    /// Max per-link *leaf* load — the forwarding index the same
    /// workload would show as unicast replication.
    pub unicast_forwarding_index: u64,
    /// Mean root→leaf latency over delivered leaves, ps.
    pub latency_mean_ps: f64,
    /// Median root→leaf latency, ps.
    pub latency_p50_ps: f64,
    /// 99th-percentile root→leaf latency, ps.
    pub latency_p99_ps: f64,
    /// Worst root→leaf latency, ps.
    pub latency_max_ps: f64,
    /// Total optical energy spent, pJ — per tree arc, not per leaf.
    pub energy_total_pj: f64,
    /// True iff every traversed link's power budget closed.
    pub all_budgets_close: bool,
}

impl MulticastReport {
    /// Fraction of requested leaves delivered.
    pub fn delivery_rate(&self) -> f64 {
        if self.leaves == 0 {
            return 1.0;
        }
        self.delivered_leaves as f64 / self.leaves as f64
    }

    /// Link traversals saved by tree replication: how many times more
    /// transmissions per-leaf unicast would have paid (`1.0` = no
    /// sharing; broadcast trees approach the fabric's mean distance).
    pub fn replication_saving(&self) -> f64 {
        if self.tree_arcs == 0 {
            return 1.0;
        }
        self.unicast_hops as f64 / self.tree_arcs as f64
    }

    /// Mean tree arcs per group.
    pub fn mean_tree_arcs(&self) -> f64 {
        if self.groups == 0 {
            return 0.0;
        }
        self.tree_arcs as f64 / self.groups as f64
    }
}

/// Aggregate results of one cycle-accurate queueing run
/// ([`super::QueueingEngine::run`]): where [`TrafficReport`] tallies
/// static link load, this report captures congestion *dynamics* —
/// queueing delay, drops by cause, buffer occupancy, and throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueingReport {
    /// Router description (see [`otis_core::Router::name`]).
    pub router: String,
    /// Injection rate the run offered, packets per cycle (fabric-wide).
    pub offered_per_cycle: f64,
    /// Cycles the run took (injection + drain).
    pub cycles: u64,
    /// Packets that entered the network (self-pairs and drops at the
    /// injection port included; workload left uninjected at the
    /// horizon is not).
    pub injected: usize,
    /// Packets that reached their destination.
    pub delivered: usize,
    /// Packets tail-dropped at a full buffer.
    pub dropped_full: usize,
    /// Packets with no (surviving) route, or misrouted off-fabric.
    pub dropped_unroutable: usize,
    /// Packets that exhausted their hop budget (routing loops or
    /// excessive adaptive deroutes).
    pub dropped_ttl: usize,
    /// Packets still buffered when the run ended (nonzero only at the
    /// cycle horizon or after a backpressure deadlock).
    pub in_flight: usize,
    /// True iff a backpressure cycle wedged: buffers full in a ring,
    /// no packet able to move. With a single virtual channel (`vcs =
    /// 1`) de Bruijn shortest-path routing is not deadlock-free under
    /// finite buffers; `vcs ≥ 2` dateline channels break those rings.
    pub deadlocked: bool,
    /// Virtual channels per directed link the run was configured with.
    pub vcs: usize,
    /// Packets promoted to a higher VC class while crossing the
    /// dateline (a wrap arc of the fabric's cycle decomposition). Each
    /// promotion is a channel dependency moved off the class it would
    /// otherwise have closed into a cycle — the evidence of deadlocks
    /// prevented rather than merely detected. Always `0` with
    /// `vcs = 1`.
    pub dateline_promotions: u64,
    /// Moves admitted past a full FIFO because a top-class packet
    /// crossed the dateline again (the deep-dateline-buffer escape
    /// valve; see `otis_core::Dateline::needs_relief`). These are the
    /// only moves that may push a wrap channel's top-class FIFO past
    /// `buffers` — `0` whenever `vcs` exceeds every route's wrap
    /// count, and always `0` with `vcs = 1` or under tail-drop
    /// (which never blocks, so it keeps its caps by dropping).
    pub dateline_relief: u64,
    /// Cycles some source spent stalled at its injection queue under
    /// backpressure (summed over sources). With per-source injection
    /// queues a stalled source blocks only itself; this counts how
    /// much stalling the fabric actually imposed.
    pub source_stall_cycles: u64,
    /// Sum of hops over delivered packets.
    pub delivered_hops: u64,
    /// Longest delivered walk, in hops (deroutes included).
    pub max_hops: u32,
    /// Mean queueing delay of delivered packets, cycles: time since
    /// the packet's injection credit accrued, beyond the one cycle per
    /// hop a contention-free packet would spend — source stalling
    /// under backpressure counts (the open-loop convention, so
    /// congestion cannot hide in an unmeasured source queue).
    pub wait_mean_cycles: f64,
    /// Median queueing delay, cycles.
    pub wait_p50_cycles: u64,
    /// 99th-percentile queueing delay, cycles.
    pub wait_p99_cycles: u64,
    /// Worst queueing delay, cycles.
    pub wait_max_cycles: u64,
    /// Peak buffer occupancy per directed link (arc order of the
    /// routed digraph): the deepest any of the link's VC FIFOs got.
    pub peak_occupancy: Vec<u32>,
    /// Peak buffer occupancy per VC class (length `vcs`): the deepest
    /// FIFO of that class across all links — shows how far up the
    /// class ladder the dateline actually pushed traffic.
    pub vc_peak_occupancy: Vec<u32>,
    /// `max(peak_occupancy)` — how close the worst FIFO came to its
    /// buffer cap.
    pub max_peak_occupancy: u32,
    /// Packets delivered per directed link (arc order): counts the
    /// final hop of each delivered packet. Under contention, drain
    /// arbitration must keep these balanced on symmetric fabrics —
    /// the fairness the rotating drain offset exists to provide.
    pub delivered_per_link: Vec<u64>,
    /// One-to-many groups the run injected; `0` for unicast runs. In
    /// a multicast run every leaf-unit counter (`injected`,
    /// `delivered`, drops, `in_flight`) is in *destination leaves*:
    /// conservation reads `injected_leaves = delivered + dropped +
    /// in_flight`.
    pub multicast_groups: usize,
    /// Packet copies spawned at tree branch nodes (beyond the copies
    /// injected at roots). `0` for unicast runs.
    pub replicated_copies: u64,
    /// Static multicast forwarding index of the workload's delivery
    /// trees — max per-link tree count, the congestion scalar of the
    /// BCube analysis. `0` for unicast runs.
    pub multicast_forwarding_index: u64,
    /// Hot-versus-background breakdown, present when the run was
    /// classified (see `QueueingEngine::run_streamed_classified`): the
    /// tree-saturation story made visible per traffic class.
    pub class_stats: Option<ClassBreakdown>,
    /// Link deaths applied (capacity transitions to zero). `0` for
    /// runs without a dynamics timeline.
    pub link_down_events: u64,
    /// Link revivals applied (capacity transitions from zero).
    pub link_up_events: u64,
    /// Every capacity transition applied, crossings or not (partial
    /// fades included) — always ≥ `link_down_events + link_up_events`.
    pub capacity_events: u64,
    /// Packets stranded by a link death and dropped — either by
    /// `StrandedPolicy::Drop`, or under `Reinject` when repair left
    /// their destination unreachable. Counted in [`QueueingReport::dropped`].
    pub dropped_stranded: usize,
    /// Stranded packets successfully re-placed onto a live out-channel
    /// of the node the death caught them at.
    pub stranded_reinjected: u64,
    /// Per link death, in event order: cycles from the death until the
    /// first packet committed onto an alternative out-link of the
    /// affected node (the event cycle counts as 1 — a same-cycle
    /// re-placement reroutes in one cycle). Deaths whose reroute never
    /// happened split into `reroute_unresolved` and
    /// `reroute_no_demand`, so `len() + reroute_unresolved +
    /// reroute_no_demand == link_down_events`.
    pub time_to_reroute_cycles: Vec<u64>,
    /// Link deaths where packets demonstrably wanted the dead beam
    /// (queued FIFO content stranded at the event, or a dead-target
    /// requery afterwards) but no alternative out-link of the node
    /// ever took a packet — real reroute failures, or the run ending
    /// first.
    pub reroute_unresolved: u64,
    /// Link deaths no packet ever asked about: nothing was queued on
    /// the beam and nothing requeried it, so the missing reroute is
    /// vacuous, not a failure.
    pub reroute_no_demand: u64,
    /// Per zero-crossing event fed to the router's online repair, in
    /// event order: CSR runs rewritten by the incremental patch. Empty
    /// when the router has no repair capability.
    pub repair_runs_patched: Vec<u64>,
    /// Next-hop rows rewritten across all repairs (the row count a
    /// full rebuild would rewrite per event is the node count).
    pub repair_rows_patched: u64,
    /// CSR runs the repairable table held after the run — the
    /// denominator `repair_runs_patched` entries compare against (a
    /// full rebuild rewrites all of them). `0` without repair.
    pub table_runs_total: u64,
    /// Immutable route snapshots the repairing router published during
    /// the run — one per same-cycle *batch* of zero-crossing events
    /// that actually patched the table (a 16-beam storm costs one
    /// publication; all-no-op batches republish nothing). The
    /// epoch-snapshot read path's entire write-side cost.
    pub snapshot_publications: u64,
    /// Total compressed-table runs across those publications: the
    /// itemized cost of rebuilding the immutable CSR view each time.
    pub snapshot_runs_published: u64,
}

/// Queueing statistics of one traffic class within a classified run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Packets of this class that entered the network (injection
    /// drops and self-pairs included).
    pub injected: usize,
    /// Packets of this class delivered.
    pub delivered: usize,
    /// Packets of this class dropped, all causes.
    pub dropped: usize,
    /// Mean queueing delay of this class's delivered packets, cycles.
    pub wait_mean_cycles: f64,
    /// Median queueing delay, cycles.
    pub wait_p50_cycles: u64,
    /// 99th-percentile queueing delay, cycles.
    pub wait_p99_cycles: u64,
    /// Worst queueing delay, cycles.
    pub wait_max_cycles: u64,
}

impl ClassStats {
    /// Fraction of this class's injected packets delivered.
    pub fn delivery_rate(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }
}

/// Per-class split of a classified queueing run: the packets aimed at
/// the hot destination versus everything else. Under tree saturation
/// the hot class queues at the hot node's in-tree while the background
/// class — 75% of a hotspot workload — suffers only head-of-line
/// collateral; this breakdown shows each side separately.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassBreakdown {
    /// Packets whose destination is the hot node.
    pub hot: ClassStats,
    /// All other packets.
    pub background: ClassStats,
}

impl QueueingReport {
    /// All drops, regardless of cause.
    pub fn dropped(&self) -> usize {
        self.dropped_full + self.dropped_unroutable + self.dropped_ttl + self.dropped_stranded
    }

    /// Fraction of injected packets delivered.
    pub fn delivery_rate(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    /// Fraction of injected packets dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.injected == 0 {
            return 0.0;
        }
        self.dropped() as f64 / self.injected as f64
    }

    /// Delivered throughput, packets per cycle (fabric-wide). Under
    /// saturation this plateaus while offered load keeps climbing.
    pub fn throughput_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.cycles as f64
    }

    /// Mean hops per delivered packet (deroutes included).
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.delivered_hops as f64 / self.delivered as f64
    }

    /// Packet conservation: everything injected is delivered, dropped,
    /// or still buffered. The queueing engine's core invariant.
    pub fn conserves_packets(&self) -> bool {
        self.injected == self.delivered + self.dropped() + self.in_flight
    }

    /// The dynamics counters' own conservation laws, on top of
    /// [`QueueingReport::conserves_packets`]: every link death is
    /// accounted a resolved reroute, a demanded-but-unresolved one, or
    /// a vacuous no-demand one (`time_to_reroute_cycles` +
    /// `reroute_unresolved` + `reroute_no_demand` ==
    /// `link_down_events`), zero-crossings never outnumber capacity
    /// transitions (`link_down_events` + `link_up_events` ≤
    /// `capacity_events`), stranded packets resolve to a reinjection
    /// or a stranded drop (`stranded_reinjected` and
    /// `dropped_stranded` are their partition, checked through the
    /// packet conservation above), repair cost vectors quote against a
    /// live denominator (`repair_runs_patched` entries need
    /// `table_runs_total` > 0), and snapshot publications trace to
    /// zero-crossings (`snapshot_publications` ≤ the crossing count,
    /// and `snapshot_runs_published` needs at least one publication).
    /// The lint report-field audit pins every dynamics counter to an
    /// appearance here.
    pub fn dynamics_consistent(&self) -> bool {
        self.conserves_packets()
            && self.time_to_reroute_cycles.len() as u64
                + self.reroute_unresolved
                + self.reroute_no_demand
                == self.link_down_events
            && self.link_down_events + self.link_up_events <= self.capacity_events
            && (self.repair_runs_patched.is_empty() || self.table_runs_total > 0)
            && (self.repair_rows_patched == 0 || !self.repair_runs_patched.is_empty())
            && self.snapshot_publications <= self.link_down_events + self.link_up_events
            && (self.snapshot_runs_published == 0 || self.snapshot_publications > 0)
            && (self.stranded_reinjected == 0 && self.dropped_stranded == 0
                || self.link_down_events > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_empty_samples_are_zero() {
        assert_eq!(percentile_f64(&[], 0.5), 0.0);
        assert_eq!(percentile_f64(&[], 0.99), 0.0);
        assert_eq!(percentile_u64(&[], 0.5), 0);
        assert_eq!(percentile_u64(&[], 1.0), 0);
    }

    #[test]
    fn percentiles_of_single_samples_are_that_sample() {
        for fraction in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_f64(&[42.5], fraction), 42.5);
            assert_eq!(percentile_u64(&[7], fraction), 7);
        }
    }

    #[test]
    fn percentiles_interior() {
        let sorted: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile_u64(&sorted, 0.5), 50);
        assert_eq!(percentile_u64(&sorted, 0.99), 99);
        assert_eq!(percentile_u64(&sorted, 1.0), 100);
        let f: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
        assert_eq!(percentile_f64(&f, 0.0), 0.0);
        assert_eq!(percentile_f64(&f, 1.0), 100.0);
    }

    /// The nearest-rank convention, pinned: rank `⌈q·N⌉` of the sorted
    /// sample, never interpolated, never over-read.
    #[test]
    fn percentiles_are_nearest_rank() {
        // p99 of 100 samples is the 99th smallest — not the max.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&hundred, 0.99), 99);
        assert_eq!(percentile_u64(&hundred, 0.50), 50);
        assert_eq!(percentile_u64(&hundred, 0.999), 100);
        // p50 of 2 samples is the lower one (the old rounded rank
        // read the upper, overstating small-sample medians).
        assert_eq!(percentile_u64(&[3, 9], 0.50), 3);
        assert_eq!(percentile_f64(&[3.0, 9.0], 0.50), 3.0);
        assert_eq!(percentile_u64(&[3, 9], 0.51), 9);
        // Rank clamps: fraction 0 reads the minimum.
        assert_eq!(percentile_u64(&[3, 9], 0.0), 3);
        // Monotone in the fraction, by construction.
        let sample: Vec<u64> = vec![1, 1, 2, 3, 5, 8, 13];
        let mut last = 0;
        for step in 0..=20 {
            let value = percentile_u64(&sample, step as f64 / 20.0);
            assert!(value >= last, "percentile must be monotone");
            last = value;
        }
    }

    /// The histogram is a drop-in replacement for the sorted sample
    /// vector: identical mean, max, and nearest-rank percentiles.
    #[test]
    fn wait_histogram_matches_sorted_sample_percentiles() {
        let empty = WaitHistogram::default();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.max(), 0);
        assert_eq!(empty.mean(), 0.0);

        let samples: Vec<u64> = vec![9, 3, 3, 0, 7, 9, 9, 1, 0, 13];
        let mut hist = WaitHistogram::default();
        for &wait in &samples {
            hist.record(wait);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for step in 0..=20 {
            let fraction = step as f64 / 20.0;
            assert_eq!(
                hist.percentile(fraction),
                percentile_u64(&sorted, fraction),
                "fraction {fraction}"
            );
        }
        assert_eq!(hist.max(), 13);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((hist.mean() - mean).abs() < 1e-12);

        // The pinned small-sample cases, via the histogram.
        let mut two = WaitHistogram::default();
        two.record_n(3, 1);
        two.record(9);
        assert_eq!(two.percentile(0.50), 3);
        assert_eq!(two.percentile(0.51), 9);
        assert_eq!(two.percentile(0.0), 3);
    }

    fn empty_traffic_report() -> TrafficReport {
        TrafficReport {
            router: "test".into(),
            packets: 0,
            delivered: 0,
            dropped: 0,
            total_hops: 0,
            delivered_hops: 0,
            max_hops: 0,
            link_load: vec![],
            max_link_load: 0,
            latency_mean_ps: 0.0,
            latency_p50_ps: 0.0,
            latency_p99_ps: 0.0,
            latency_max_ps: 0.0,
            energy_total_pj: 0.0,
            all_budgets_close: true,
        }
    }

    #[test]
    fn traffic_report_rates_on_empty_workload() {
        // The divide-by-zero-adjacent paths: every ratio must stay
        // finite and sensible with zero packets and zero loaded links.
        let report = empty_traffic_report();
        assert_eq!(report.delivery_rate(), 1.0, "vacuously delivered");
        assert_eq!(report.mean_hops(), 0.0);
        assert_eq!(report.mean_link_load(), 0.0);
        assert_eq!(report.mean_energy_pj(), 0.0);
    }

    #[test]
    fn traffic_report_rates_on_single_packet() {
        let report = TrafficReport {
            packets: 1,
            delivered: 1,
            total_hops: 3,
            delivered_hops: 3,
            max_hops: 3,
            link_load: vec![1, 1, 1, 0],
            max_link_load: 1,
            energy_total_pj: 6.0,
            ..empty_traffic_report()
        };
        assert_eq!(report.delivery_rate(), 1.0);
        assert_eq!(report.mean_hops(), 3.0);
        assert_eq!(report.mean_link_load(), 1.0);
        assert_eq!(report.mean_energy_pj(), 6.0);
    }

    #[test]
    fn queueing_report_rates_on_empty_run() {
        let report = QueueingReport {
            router: "test".into(),
            offered_per_cycle: 1.0,
            cycles: 0,
            injected: 0,
            delivered: 0,
            dropped_full: 0,
            dropped_unroutable: 0,
            dropped_ttl: 0,
            in_flight: 0,
            deadlocked: false,
            vcs: 1,
            dateline_promotions: 0,
            dateline_relief: 0,
            source_stall_cycles: 0,
            delivered_hops: 0,
            max_hops: 0,
            wait_mean_cycles: 0.0,
            wait_p50_cycles: 0,
            wait_p99_cycles: 0,
            wait_max_cycles: 0,
            peak_occupancy: vec![],
            vc_peak_occupancy: vec![],
            max_peak_occupancy: 0,
            delivered_per_link: vec![],
            multicast_groups: 0,
            replicated_copies: 0,
            multicast_forwarding_index: 0,
            class_stats: None,
            link_down_events: 0,
            link_up_events: 0,
            capacity_events: 0,
            dropped_stranded: 0,
            stranded_reinjected: 0,
            time_to_reroute_cycles: vec![],
            reroute_unresolved: 0,
            reroute_no_demand: 0,
            repair_runs_patched: vec![],
            repair_rows_patched: 0,
            table_runs_total: 0,
            snapshot_publications: 0,
            snapshot_runs_published: 0,
        };
        assert_eq!(report.delivery_rate(), 1.0);
        assert_eq!(report.drop_rate(), 0.0);
        assert_eq!(report.throughput_per_cycle(), 0.0);
        assert_eq!(report.mean_hops(), 0.0);
        assert!(report.conserves_packets());
        assert!(report.dynamics_consistent());
        // A death with no reroute accounting breaks dynamics
        // consistency; accounting it — demanded or vacuous — restores
        // it, and the two buckets trade off one-for-one.
        let mut dynamic = report.clone();
        dynamic.link_down_events = 1;
        dynamic.capacity_events = 1;
        assert!(!dynamic.dynamics_consistent());
        dynamic.reroute_unresolved = 1;
        assert!(dynamic.dynamics_consistent());
        dynamic.reroute_unresolved = 0;
        dynamic.reroute_no_demand = 1;
        assert!(dynamic.dynamics_consistent());
        // Snapshot publications must trace to zero-crossings, and run
        // totals to publications.
        dynamic.snapshot_runs_published = 4;
        assert!(!dynamic.dynamics_consistent());
        dynamic.snapshot_publications = 1;
        assert!(dynamic.dynamics_consistent());
        dynamic.snapshot_publications = 2;
        assert!(
            !dynamic.dynamics_consistent(),
            "one crossing, two publications"
        );
        dynamic.snapshot_publications = 1;
        // Stranded drops count as drops: conservation keeps holding.
        dynamic.injected = 1;
        dynamic.dropped_stranded = 1;
        assert_eq!(dynamic.dropped(), 1);
        assert!(dynamic.conserves_packets());
    }

    #[test]
    fn multicast_report_rates() {
        let empty = MulticastReport {
            router: "test".into(),
            groups: 0,
            leaves: 0,
            delivered_leaves: 0,
            dropped_leaves: 0,
            tree_arcs: 0,
            unicast_hops: 0,
            max_depth: 0,
            link_load: vec![],
            multicast_forwarding_index: 0,
            unicast_forwarding_index: 0,
            latency_mean_ps: 0.0,
            latency_p50_ps: 0.0,
            latency_p99_ps: 0.0,
            latency_max_ps: 0.0,
            energy_total_pj: 0.0,
            all_budgets_close: true,
        };
        assert_eq!(empty.delivery_rate(), 1.0, "vacuously delivered");
        assert_eq!(empty.replication_saving(), 1.0);
        assert_eq!(empty.mean_tree_arcs(), 0.0);
        let busy = MulticastReport {
            groups: 2,
            leaves: 10,
            delivered_leaves: 9,
            dropped_leaves: 1,
            tree_arcs: 12,
            unicast_hops: 30,
            ..empty
        };
        assert_eq!(busy.delivery_rate(), 0.9);
        assert_eq!(busy.replication_saving(), 2.5);
        assert_eq!(busy.mean_tree_arcs(), 6.0);
    }

    #[test]
    fn class_stats_rates() {
        let stats = ClassStats {
            injected: 0,
            delivered: 0,
            dropped: 0,
            wait_mean_cycles: 0.0,
            wait_p50_cycles: 0,
            wait_p99_cycles: 0,
            wait_max_cycles: 0,
        };
        assert_eq!(stats.delivery_rate(), 1.0, "vacuously delivered");
        let stats = ClassStats {
            injected: 4,
            delivered: 3,
            dropped: 1,
            ..stats
        };
        assert_eq!(stats.delivery_rate(), 0.75);
    }
}
