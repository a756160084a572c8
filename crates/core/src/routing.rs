//! Routing and broadcasting on `B(d, D)` — the distributed-computing
//! applications the paper's introduction motivates (refs [19], [28],
//! [3]).
//!
//! De Bruijn routing needs no tables and no search: the distance from
//! `x` to `y` is `D - ℓ` where `ℓ` is the longest suffix of `x` that
//! is a prefix of `y` (equivalently, the smallest `k` with
//! `⌊y / d^k⌋ = x mod d^{D-k}`), and the unique shortest path shifts
//! in the digits of `y` one per hop. Everything here is `O(D)` per
//! query, compared against BFS ground truth in the tests.

use crate::{DeBruijn, DigraphFamily, Kautz, Router};
use otis_util::digits;
use otis_words::Word;

/// Shortest-path distance from `x` to `y` in `B(d, D)`: the smallest
/// `k` such that the top `D-k` digits of `y` equal the bottom `D-k`
/// digits of `x`. Always `≤ D`.
pub fn distance(b: &DeBruijn, x: u64, y: u64) -> u32 {
    let n = b.node_count();
    assert!(x < n && y < n, "vertices out of range");
    let d = b.d() as u64;
    let dim = b.diameter();
    // Both powers run incrementally — no `pow` calls in the loop.
    let mut suffix_modulus = n; // d^{D-k}
    let mut prefix_divisor = 1u64; // d^k
    for k in 0..=dim {
        if y / prefix_divisor == x % suffix_modulus {
            return k;
        }
        suffix_modulus /= d;
        prefix_divisor = prefix_divisor.saturating_mul(d);
    }
    unreachable!("k = D always matches (both sides become the whole word)")
}

/// The shortest path from `x` to `y` (inclusive of both endpoints):
/// hop `t` shifts in digit `y_{k-t}` of the target. Length =
/// `distance(x, y) + 1` vertices.
pub fn shortest_path(b: &DeBruijn, x: u64, y: u64) -> Vec<u64> {
    let d = b.d() as u64;
    let n = b.node_count();
    let k = distance(b, x, y);
    let mut path = Vec::with_capacity(k as usize + 1);
    // d^t and d^{k-t} run incrementally across hops — one `pow` call
    // total instead of three per hop.
    let mut dt = 1u64; // d^t
    let mut dkt = digits::pow(d, k); // d^{k-t}
    for _ in 0..=k {
        // z_t = (x mod d^{D-t})·d^t + top-t digits of y's low-k block.
        let kept = x % (n / dt);
        let injected = (y / dkt) % dt;
        path.push(kept * dt + injected);
        dt = dt.saturating_mul(d);
        dkt /= d;
    }
    path
}

/// BFS levels from `root` computed arithmetically (no digraph
/// materialization): `levels[t]` lists the vertices first reached in
/// exactly `t` hops. `levels.len() - 1 == D` for any root.
pub fn broadcast_levels(b: &DeBruijn, root: u64) -> Vec<Vec<u64>> {
    let n = b.node_count();
    assert!(root < n);
    let mut level_of = vec![u32::MAX; n as usize];
    level_of[root as usize] = 0;
    let mut levels = vec![vec![root]];
    loop {
        let mut next = Vec::new();
        let t = levels.len() as u32;
        for &u in levels.last().expect("nonempty") {
            for k in 0..b.degree() {
                let v = b.out_neighbor(u, k);
                if level_of[v as usize] == u32::MAX {
                    level_of[v as usize] = t;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            return levels;
        }
        levels.push(next);
    }
}

/// Single-port broadcast schedule from `root`: per round, every
/// informed vertex forwards to at most **one** uninformed out-neighbor
/// (greedy over BFS levels). Returns the list of rounds, each a list
/// of `(sender, receiver)` pairs; all `n` vertices are informed after
/// `rounds.len()` rounds.
///
/// This is the single-port model of the broadcasting literature the
/// paper cites ([3], [28]); the greedy makespan is an upper bound on
/// the optimal broadcast time `b(B(d,D))`.
pub fn single_port_broadcast(b: &DeBruijn, root: u64) -> Vec<Vec<(u64, u64)>> {
    let n = b.node_count() as usize;
    let mut informed = vec![false; n];
    informed[root as usize] = true;
    let mut informed_list = vec![root];
    let mut rounds = Vec::new();
    while informed_list.len() < n {
        let mut round = Vec::new();
        let mut newly = Vec::new();
        for &u in &informed_list {
            for k in 0..b.degree() {
                let v = b.out_neighbor(u, k);
                if !informed[v as usize] {
                    informed[v as usize] = true;
                    newly.push(v);
                    round.push((u, v));
                    break; // single-port: one message per round
                }
            }
        }
        assert!(
            !round.is_empty(),
            "broadcast stalled with {} of {n} informed",
            informed_list.len()
        );
        informed_list.extend_from_slice(&newly);
        rounds.push(round);
    }
    rounds
}

// ----- multicast trees -------------------------------------------------------

/// Sentinel for "no parent arc" (the arc hangs off the root).
const NO_ARC: u32 = u32::MAX;

/// A multicast delivery tree: the union of a router's shortest-path
/// walks from one root to a set of destinations, greedily merged onto
/// shared prefixes.
///
/// Construction walks [`Router::next_hop`] from the root toward each
/// destination and adds only the arcs not already in the tree. Because
/// every subpath of a shortest path is itself shortest, a node's
/// position is the same in every walk that visits it — `d(root, v)` —
/// so merges are depth-consistent, each node gets exactly one parent,
/// and the tree's depth never exceeds the root's eccentricity (≤ the
/// fabric diameter). The full-fabric special case (every node a
/// destination) covers exactly the BFS levels of
/// [`broadcast_levels`]; [`MulticastTree::broadcast`] builds that case
/// directly from the level arithmetic, no router queries at all.
///
/// Arcs are indexed `0..arc_count()` with parents strictly before
/// children, so a single forward pass can propagate any root-to-leaf
/// quantity (depths, latencies). Per arc the tree records the child
/// endpoint's delivery flag (is it a requested destination?) and its
/// *leaf load* — how many requested destinations sit in the subtree
/// under it, i.e. how many unicast packets the arc would have carried
/// had each destination been served by its own shortest-path copy.
/// `max(trees per link)` over a workload is the **multicast forwarding
/// index** of the BCube analysis in PAPERS.md; `max(leaf load per
/// link)` is its unicast counterpart, and the gap between the two is
/// the replication the tree saved.
///
/// Child lists are one CSR over the arcs — [`MulticastTree::child_arcs`]
/// slices a single flat array, ascending — not a `Vec` per arc. A tree
/// is also reusable: [`MulticastTree::rebuild`] refills it in place
/// for a new root and destination set, keeping every buffer's capacity
/// and the dense node → incoming-arc table construction runs on. That
/// table is sized by the fabric but reset only at the previous tree's
/// own endpoints, so a run that builds thousands of trees on one
/// fabric allocates it once and clears `O(tree arcs)` per tree, not
/// `O(n)`. Every tree carries that table (4 bytes per fabric node) for
/// as long as it lives, so keep one tree per builder, not one per
/// group. `MulticastTree::default()` is the empty tree (root 0, no
/// requests) to rebuild from.
#[derive(Clone, Default)]
pub struct MulticastTree {
    root: u64,
    /// `(parent, child)` fabric arcs, parents before children.
    arcs: Vec<(u64, u64)>,
    /// Index of the arc into the parent endpoint ([`NO_ARC`] = root).
    parent_arc: Vec<u32>,
    /// Depth of the child endpoint (root = depth 0).
    depth: Vec<u32>,
    /// True iff the child endpoint is a requested destination.
    delivers: Vec<bool>,
    /// Requested destinations in the subtree under the arc.
    leaf_load: Vec<u64>,
    /// CSR child lists: `children[child_off[a]..child_off[a + 1]]` are
    /// arc `a`'s child arc indices, ascending.
    child_off: Vec<u32>,
    children: Vec<u32>,
    /// Arc indices hanging directly off the root.
    root_arcs: Vec<u32>,
    /// How many times the root itself was requested (delivered at the
    /// source, like a unicast self-pair).
    self_requests: usize,
    /// Requested destinations with no route from the root.
    unreachable: Vec<u64>,
    /// Construction scratch: node → index of its (unique) incoming
    /// tree arc ([`NO_ARC`] = not in the tree), dense over the largest
    /// fabric this tree was built on. Pure lookups, so a map would buy
    /// nothing but hashing, and the dense table keeps construction
    /// order-deterministic by construction. Entries are set only at
    /// child endpoints of [`Self::arcs`], which is what lets a rebuild
    /// clear exactly those.
    incoming: Vec<u32>,
}

impl std::fmt::Debug for MulticastTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The fabric-sized construction scratch is not part of the tree.
        f.debug_struct("MulticastTree")
            .field("root", &self.root)
            .field("arcs", &self.arcs)
            .field("parent_arc", &self.parent_arc)
            .field("depth", &self.depth)
            .field("delivers", &self.delivers)
            .field("leaf_load", &self.leaf_load)
            .field("child_off", &self.child_off)
            .field("children", &self.children)
            .field("root_arcs", &self.root_arcs)
            .field("self_requests", &self.self_requests)
            .field("unreachable", &self.unreachable)
            .finish_non_exhaustive()
    }
}

impl MulticastTree {
    /// Build the delivery tree for `root → dsts` over `router`'s
    /// shortest-path next hops. Duplicate destinations are delivered
    /// once per request (`leaf_load` counts requests); destinations
    /// the router cannot reach are recorded in
    /// [`MulticastTree::unreachable`]. An empty tree plus
    /// [`MulticastTree::rebuild`] — to build many trees, rebuild one.
    pub fn build(router: &dyn Router, root: u64, dsts: &[u64]) -> Self {
        let mut tree = MulticastTree::default();
        tree.rebuild(router, root, dsts);
        tree
    }

    /// Refill this tree in place as the delivery tree for `root →
    /// dsts` over `router`: the same tree [`MulticastTree::build`]
    /// returns, on every accessor. Every buffer is cleared and
    /// refilled, keeping its capacity; the node → incoming-arc table
    /// is reset only at the previous tree's endpoints (`O(previous
    /// arcs)`) and grown when `router` covers a larger fabric than any
    /// earlier build. Panics, leaving the tree untouched, when `root`
    /// is not a fabric node.
    pub fn rebuild(&mut self, router: &dyn Router, root: u64, dsts: &[u64]) {
        let n = router.node_count();
        assert!(
            root < n,
            "root {root} is not a fabric node (fabric has {n})"
        );
        self.reset(root, n);
        let hop_limit = n.max(64);
        'dst: for &dst in dsts {
            if dst == root {
                self.self_requests += 1;
                continue;
            }
            if dst >= n {
                // Off-fabric destination: unreachable by definition,
                // before any router is asked about it.
                self.unreachable.push(dst);
                continue;
            }
            if self.incoming[dst as usize] == NO_ARC {
                // Walk the router's shortest path, adding unseen arcs.
                let mut current = root;
                let mut hops = 0u64;
                while current != dst {
                    hops += 1;
                    if hops > hop_limit {
                        self.unreachable.push(dst); // routing loop
                        continue 'dst;
                    }
                    let Some(next) = router.next_hop(current, dst) else {
                        self.unreachable.push(dst);
                        continue 'dst;
                    };
                    if next >= n {
                        // Router proposed an off-fabric hop.
                        self.unreachable.push(dst);
                        continue 'dst;
                    }
                    if self.incoming[next as usize] == NO_ARC {
                        let parent = if current == root {
                            NO_ARC
                        } else {
                            self.incoming[current as usize]
                        };
                        self.push_arc(current, next, parent, false);
                    }
                    current = next;
                }
            }
            // Charge the request up the tree chain to the root.
            let arc = self.incoming[dst as usize];
            self.delivers[arc as usize] = true;
            let mut chain = arc;
            loop {
                self.leaf_load[chain as usize] += 1;
                if self.parent_arc[chain as usize] == NO_ARC {
                    break;
                }
                chain = self.parent_arc[chain as usize];
            }
        }
        self.link_children();
    }

    /// The full-fabric broadcast tree from `root` on `B(d, D)`,
    /// assembled directly from the [`broadcast_levels`] BFS — the
    /// special case of [`MulticastTree::build`] with every other node
    /// a destination, no router in sight.
    pub fn broadcast(b: &DeBruijn, root: u64) -> Self {
        let n = b.node_count();
        assert!(root < n, "root {root} is not a vertex of {}", b.name());
        let mut tree = MulticastTree::default();
        tree.reset(root, n);
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            let mut next_frontier = Vec::new();
            for &u in &frontier {
                for k in 0..b.degree() {
                    let v = b.out_neighbor(u, k);
                    if v == root || tree.incoming[v as usize] != NO_ARC {
                        continue;
                    }
                    let parent = if u == root {
                        NO_ARC
                    } else {
                        tree.incoming[u as usize]
                    };
                    tree.push_arc(u, v, parent, true);
                    next_frontier.push(v);
                }
            }
            frontier = next_frontier;
        }
        // Every non-root node is one delivery; leaf loads are subtree
        // sizes, accumulated children-before-parents.
        for arc in (0..tree.arcs.len()).rev() {
            tree.leaf_load[arc] += 1;
            let parent = tree.parent_arc[arc];
            if parent != NO_ARC {
                tree.leaf_load[parent as usize] += tree.leaf_load[arc];
            }
        }
        tree.link_children();
        tree
    }

    /// Empty the tree for `root` on an `n`-node fabric: clear the
    /// node → arc table at the previous tree's child endpoints (the
    /// only entries it holds), grow it to `n` nodes if it is smaller,
    /// and clear every per-arc buffer, keeping capacity.
    fn reset(&mut self, root: u64, n: u64) {
        for &(_, child) in &self.arcs {
            self.incoming[child as usize] = NO_ARC;
        }
        if self.incoming.len() < n as usize {
            self.incoming.resize(n as usize, NO_ARC);
        }
        self.root = root;
        self.arcs.clear();
        self.parent_arc.clear();
        self.depth.clear();
        self.delivers.clear();
        self.leaf_load.clear();
        self.root_arcs.clear();
        self.self_requests = 0;
        self.unreachable.clear();
    }

    /// Append the arc `from → to` under `parent` ([`NO_ARC`] = off the
    /// root) with zero leaf load, one level below its parent, and
    /// record it as `to`'s incoming arc.
    fn push_arc(&mut self, from: u64, to: u64, parent: u32, delivers: bool) {
        let index = self.arcs.len() as u32;
        let depth = if parent == NO_ARC {
            self.root_arcs.push(index);
            1
        } else {
            self.depth[parent as usize] + 1
        };
        self.arcs.push((from, to));
        self.parent_arc.push(parent);
        self.depth.push(depth);
        self.delivers.push(delivers);
        self.leaf_load.push(0);
        self.incoming[to as usize] = index;
    }

    /// Fill the child CSR by a counting sort over parent indices. Row
    /// sizes land two slots up, so the prefix sum leaves row `p`'s
    /// start in `child_off[p + 1]`; the ascending fill advances that
    /// slot to the row's end, which is row `p + 1`'s start — rows come
    /// out in ascending arc order with no cursor array.
    fn link_children(&mut self) {
        let arcs = self.arcs.len();
        self.child_off.clear();
        self.child_off.resize(arcs + 2, 0);
        for &parent in &self.parent_arc {
            if parent != NO_ARC {
                self.child_off[parent as usize + 2] += 1;
            }
        }
        for row in 2..arcs + 2 {
            self.child_off[row] += self.child_off[row - 1];
        }
        self.children.clear();
        self.children.resize(self.child_off[arcs + 1] as usize, 0);
        for (arc, &parent) in self.parent_arc.iter().enumerate() {
            if parent != NO_ARC {
                let slot = &mut self.child_off[parent as usize + 1];
                self.children[*slot as usize] = arc as u32;
                *slot += 1;
            }
        }
        self.child_off.truncate(arcs + 1);
    }

    /// The tree's root node.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Number of tree arcs (= nodes reached, root excluded).
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The `(parent, child)` endpoints of the `arc`-th tree arc.
    pub fn endpoints(&self, arc: usize) -> (u64, u64) {
        self.arcs[arc]
    }

    /// Depth of the `arc`-th arc's child endpoint (root = 0).
    pub fn arc_depth(&self, arc: usize) -> u32 {
        self.depth[arc]
    }

    /// Index of the arc into the `arc`-th arc's parent endpoint;
    /// `None` when the arc hangs off the root. Always `< arc` —
    /// parents precede children.
    pub fn parent_arc(&self, arc: usize) -> Option<usize> {
        let parent = self.parent_arc[arc];
        (parent != NO_ARC).then_some(parent as usize)
    }

    /// True iff the `arc`-th arc's child endpoint is a requested
    /// destination.
    pub fn delivers(&self, arc: usize) -> bool {
        self.delivers[arc]
    }

    /// Requested destinations in the subtree under the `arc`-th arc —
    /// the unicast packets this arc would carry without replication.
    pub fn leaf_load(&self, arc: usize) -> u64 {
        self.leaf_load[arc]
    }

    /// Child arc indices of the `arc`-th arc.
    pub fn child_arcs(&self, arc: usize) -> &[u32] {
        &self.children[self.child_off[arc] as usize..self.child_off[arc + 1] as usize]
    }

    /// Requests delivered at the `arc`-th arc's child endpoint: its
    /// leaf load minus what flows on to its children. Positive iff
    /// [`MulticastTree::delivers`]; counts duplicates per request, so
    /// deliveries summed over arcs equal [`MulticastTree::reached_leaves`].
    pub fn deliveries_at(&self, arc: usize) -> u64 {
        let downstream: u64 = self
            .child_arcs(arc)
            .iter()
            .map(|&child| self.leaf_load[child as usize])
            .sum();
        self.leaf_load[arc] - downstream
    }

    /// Arc indices hanging directly off the root.
    pub fn root_arcs(&self) -> &[u32] {
        &self.root_arcs
    }

    /// Requests for the root itself (delivered at the source).
    pub fn self_requests(&self) -> usize {
        self.self_requests
    }

    /// Requested destinations the router could not reach.
    pub fn unreachable(&self) -> &[u64] {
        &self.unreachable
    }

    /// Requested destinations reachable through the tree, duplicates
    /// counted per request (root self-requests excluded).
    pub fn reached_leaves(&self) -> u64 {
        self.root_arcs
            .iter()
            .map(|&arc| self.leaf_load[arc as usize])
            .sum()
    }

    /// Every requested leaf: reached + root self-requests +
    /// unreachable. The conservation total a multicast engine must
    /// account for.
    pub fn total_leaves(&self) -> u64 {
        self.reached_leaves() + self.self_requests as u64 + self.unreachable.len() as u64
    }

    /// Deepest arc of the tree, in hops from the root (`0` for an
    /// empty tree).
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

// ----- Kautz routing ---------------------------------------------------------

/// Shortest-path distance in `K(d, D)`: the same longest-overlap rule
/// as de Bruijn — the smallest `k` such that the top `D-k` letters of
/// `y` equal the bottom `D-k` letters of `x`.
///
/// No extra feasibility condition is needed: the letters shifted in
/// along the path are exactly `y_{k-1} … y_0`, and `y` being a Kautz
/// word makes every junction legal (`y_{k-1} ≠ y_k = x_0`).
pub fn kautz_distance(k: &Kautz, x: &Word, y: &Word) -> u32 {
    let space = k.space();
    assert!(
        space.contains(x) && space.contains(y),
        "not Kautz({},{}) words",
        k.d(),
        k.diameter()
    );
    let dim = k.diameter() as usize;
    'shift: for steps in 0..=dim {
        for position in 0..dim - steps {
            if y.digit(position + steps) != x.digit(position) {
                continue 'shift;
            }
        }
        return steps as u32;
    }
    unreachable!("steps = D always matches")
}

/// The shortest path from `x` to `y` in `K(d, D)` as words (inclusive
/// of both endpoints).
pub fn kautz_shortest_path(k: &Kautz, x: &Word, y: &Word) -> Vec<Word> {
    let steps = kautz_distance(k, x, y) as usize;
    let mut path = Vec::with_capacity(steps + 1);
    let mut current: Vec<u8> = x.positions().to_vec();
    path.push(x.clone());
    for t in 1..=steps {
        // Shift left (drop the top letter) and append y_{steps-t}.
        current.rotate_right(1);
        current[0] = y.digit(steps - t);
        path.push(Word::from_positions(current.clone()));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_digraph::bfs;
    use proptest::prelude::*;

    #[test]
    fn distance_matches_bfs_exhaustively() {
        for (d, dd) in [(2u32, 4u32), (3, 3), (4, 2)] {
            let b = DeBruijn::new(d, dd);
            let g = b.digraph();
            for x in 0..b.node_count() {
                let dist = bfs::distances(&g, x as u32);
                for y in 0..b.node_count() {
                    assert_eq!(
                        distance(&b, x, y),
                        dist[y as usize],
                        "d({x},{y}) in B({d},{dd})"
                    );
                }
            }
        }
    }

    #[test]
    fn paths_are_valid_walks_of_right_length() {
        let b = DeBruijn::new(3, 4);
        let g = b.digraph();
        for x in [0u64, 5, 17, 80] {
            for y in [0u64, 3, 44, 80] {
                let path = shortest_path(&b, x, y);
                assert_eq!(path[0], x);
                assert_eq!(*path.last().unwrap(), y);
                assert_eq!(path.len() as u32 - 1, distance(&b, x, y));
                for pair in path.windows(2) {
                    assert!(
                        g.has_arc(pair[0] as u32, pair[1] as u32),
                        "invalid hop {} -> {}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn self_distance_zero_unless_shift_needed() {
        let b = DeBruijn::new(2, 3);
        assert_eq!(distance(&b, 5, 5), 0);
        assert_eq!(shortest_path(&b, 5, 5), vec![5]);
    }

    #[test]
    fn broadcast_levels_reach_everything_in_diameter_rounds() {
        for (d, dd) in [(2u32, 4u32), (3, 3)] {
            let b = DeBruijn::new(d, dd);
            let levels = broadcast_levels(&b, 1);
            assert_eq!(levels.len() as u32 - 1, dd, "eccentricity = D");
            let total: usize = levels.iter().map(Vec::len).sum();
            assert_eq!(total as u64, b.node_count());
        }
    }

    #[test]
    fn single_port_broadcast_informs_all() {
        let b = DeBruijn::new(2, 4);
        let rounds = single_port_broadcast(&b, 0);
        let informed: usize = rounds.iter().map(Vec::len).sum();
        assert_eq!(informed as u64 + 1, b.node_count());
        // Single-port lower bound: log2(n) rounds.
        assert!(rounds.len() >= 4);
        // Every sender sends at most once per round.
        for round in &rounds {
            let mut senders: Vec<u64> = round.iter().map(|&(s, _)| s).collect();
            senders.sort_unstable();
            senders.dedup();
            assert_eq!(senders.len(), round.len());
        }
    }

    #[test]
    fn multicast_tree_merges_shared_prefixes() {
        let b = DeBruijn::new(2, 4);
        let g = b.digraph();
        let router = crate::DeBruijnRouter::new(b);
        let dsts = [3u64, 7, 11, 15, 15, 0];
        let tree = MulticastTree::build(&router, 0, &dsts);
        // Root requests deliver at the source.
        assert_eq!(tree.self_requests(), 1);
        assert!(tree.unreachable().is_empty());
        // Every requested leaf accounted: 4 distinct + 1 duplicate.
        assert_eq!(tree.reached_leaves(), 5);
        assert_eq!(tree.total_leaves(), dsts.len() as u64);
        // Tree arcs are fabric arcs, each child has one parent, and
        // arc depths match shortest distances (merge consistency).
        let mut seen_children = std::collections::HashSet::new();
        for arc in 0..tree.arc_count() {
            let (from, to) = tree.endpoints(arc);
            assert!(g.has_arc(from as u32, to as u32), "{from}->{to}");
            assert!(seen_children.insert(to), "child {to} has two parents");
            assert_eq!(tree.arc_depth(arc) as u64, distance(&b, 0, to) as u64);
        }
        assert!(tree.max_depth() <= b.diameter());
        // The tree is strictly smaller than per-leaf unicast: paths to
        // 3, 7, 15 share the prefix through 1.
        let unicast_hops: u64 = [3u64, 7, 11, 15, 15]
            .iter()
            .map(|&dst| distance(&b, 0, dst) as u64)
            .sum();
        let tree_hops = tree.arc_count() as u64;
        assert!(tree_hops < unicast_hops, "{tree_hops} vs {unicast_hops}");
        // Deliveries per arc sum to the reached leaves.
        let delivered: u64 = (0..tree.arc_count()).map(|a| tree.deliveries_at(a)).sum();
        assert_eq!(delivered, tree.reached_leaves());
    }

    #[test]
    fn broadcast_tree_equals_broadcast_levels() {
        for (d, dd) in [(2u32, 4u32), (3, 3)] {
            let b = DeBruijn::new(d, dd);
            for root in [0u64, 1, b.node_count() / 2] {
                let tree = MulticastTree::broadcast(&b, root);
                let levels = broadcast_levels(&b, root);
                assert_eq!(tree.arc_count() as u64 + 1, b.node_count());
                assert_eq!(tree.max_depth() as usize, levels.len() - 1);
                // Each node's tree depth is exactly its BFS level.
                let mut level_of = vec![0u32; b.node_count() as usize];
                for (level, nodes) in levels.iter().enumerate() {
                    for &v in nodes {
                        level_of[v as usize] = level as u32;
                    }
                }
                for arc in 0..tree.arc_count() {
                    let (_, to) = tree.endpoints(arc);
                    assert_eq!(tree.arc_depth(arc), level_of[to as usize]);
                    assert!(tree.delivers(arc));
                    assert_eq!(tree.deliveries_at(arc), 1);
                }
                // The router-built full-fanout tree covers the same
                // levels — broadcast is the special case it claims.
                let router = crate::DeBruijnRouter::new(b);
                let all: Vec<u64> = (0..b.node_count()).filter(|&v| v != root).collect();
                let routed = MulticastTree::build(&router, root, &all);
                assert_eq!(routed.arc_count(), tree.arc_count());
                assert_eq!(routed.reached_leaves(), tree.reached_leaves());
                for arc in 0..routed.arc_count() {
                    let (_, to) = routed.endpoints(arc);
                    assert_eq!(routed.arc_depth(arc), level_of[to as usize]);
                }
            }
        }
    }

    #[test]
    fn multicast_tree_records_unreachable_destinations() {
        // A fabric where node 2 is a sink: 0→1→0, 2 isolated.
        use otis_digraph::Digraph;
        let g = Digraph::from_fn(3, |u| if u < 2 { vec![(u + 1) % 2] } else { vec![] });
        let table = crate::RoutingTable::new(&g);
        let tree = MulticastTree::build(&table, 0, &[1, 2]);
        assert_eq!(tree.reached_leaves(), 1);
        assert_eq!(tree.unreachable(), &[2]);
        assert_eq!(tree.total_leaves(), 2);
        assert_eq!(tree.arc_count(), 1);
    }

    /// Every public accessor of a tree, arc by arc, for comparing two
    /// trees.
    type TreeView = (
        u64,
        Vec<((u64, u64), u32, Option<usize>, bool, u64, Vec<u32>, u64)>,
        Vec<u32>,
        usize,
        Vec<u64>,
        (u64, u64, u32),
    );

    fn view(tree: &MulticastTree) -> TreeView {
        let arcs = (0..tree.arc_count())
            .map(|arc| {
                (
                    tree.endpoints(arc),
                    tree.arc_depth(arc),
                    tree.parent_arc(arc),
                    tree.delivers(arc),
                    tree.leaf_load(arc),
                    tree.child_arcs(arc).to_vec(),
                    tree.deliveries_at(arc),
                )
            })
            .collect();
        (
            tree.root(),
            arcs,
            tree.root_arcs().to_vec(),
            tree.self_requests(),
            tree.unreachable().to_vec(),
            (tree.reached_leaves(), tree.total_leaves(), tree.max_depth()),
        )
    }

    /// The node → arc scratch holds an entry exactly at each tree
    /// arc's child endpoint, naming that arc, and nowhere else.
    fn scratch_matches_tree(tree: &MulticastTree) -> Result<(), String> {
        let mut expected = vec![NO_ARC; tree.incoming.len()];
        for (arc, &(_, child)) in tree.arcs.iter().enumerate() {
            expected[child as usize] = arc as u32;
        }
        prop_assert_eq!(&tree.incoming, &expected, "stale node → arc entries");
        Ok(())
    }

    /// Routers over fabrics of four sizes and two families: B(2,3)
    /// arithmetic, B(2,5) and K(2,3) tables, and B(2,4) behind a
    /// repairable table with every in-arc of `dead_node` and the
    /// `dead_extra` arcs killed, so `dead_node` is unreachable from
    /// every other root.
    fn rebuild_fabrics(dead_node: u64, dead_extra: &[usize]) -> Vec<Box<dyn Router>> {
        let b24 = DeBruijn::new(2, 4).digraph();
        let dead: Vec<usize> = (0..b24.arc_count())
            .filter(|&arc| u64::from(b24.arc_target(arc)) == dead_node || dead_extra.contains(&arc))
            .collect();
        vec![
            Box::new(crate::DeBruijnRouter::new(DeBruijn::new(2, 3))),
            Box::new(crate::RoutingTable::from_family(&DeBruijn::new(2, 5))),
            Box::new(crate::RoutingTable::from_family(&Kautz::new(2, 3))),
            Box::new(crate::DynamicRoutingTable::with_dead_arcs(
                &b24,
                &dead,
                "faulty B(2,4)",
            )),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reusing one tree is unobservable: over a random sequence of
        /// groups hopping between fabrics of different sizes and
        /// families, each `rebuild` agrees with a fresh `build` on
        /// every accessor, and leaves no node → arc entry outside the
        /// tree it just built. Destinations mix on-fabric nodes
        /// (duplicates come free on fabrics this small), the root,
        /// off-fabric ids, repeats of the previous pick and, on the
        /// faulty fabric, a node no other root can reach. A sequence
        /// may start from a broadcast tree, whose scratch a rebuild
        /// must clear too.
        #[test]
        fn rebuild_matches_a_fresh_build(
            dead_node in 0u64..16,
            dead_extra in proptest::collection::vec(0usize..32, 0..4),
            start_from_broadcast in any::<bool>(),
            groups in proptest::collection::vec(
                (0usize..4, any::<u64>(), proptest::collection::vec((0u8..8, any::<u64>()), 0..12)),
                1..10,
            ),
        ) {
            let fabrics = rebuild_fabrics(dead_node, &dead_extra);
            let mut tree = if start_from_broadcast {
                MulticastTree::broadcast(&DeBruijn::new(2, 4), dead_node)
            } else {
                MulticastTree::default()
            };
            scratch_matches_tree(&tree)?;
            for (fabric, root_pick, picks) in groups {
                let router = fabrics[fabric].as_ref();
                let n = router.node_count();
                let root = root_pick % n;
                let mut dsts: Vec<u64> = Vec::new();
                for (kind, raw) in picks {
                    dsts.push(match kind {
                        0 => root,
                        1 => n + raw % 8,
                        2 => dsts.last().copied().unwrap_or(root),
                        _ => raw % n,
                    });
                }
                if fabric == 3 {
                    dsts.push(dead_node);
                }
                tree.rebuild(router, root, &dsts);
                let fresh = MulticastTree::build(router, root, &dsts);
                prop_assert_eq!(view(&tree), view(&fresh));
                scratch_matches_tree(&tree)?;
                if fabric == 3 && root != dead_node {
                    prop_assert!(tree.unreachable().contains(&dead_node));
                }
            }
        }
    }

    #[test]
    fn kautz_distance_matches_bfs_exhaustively() {
        for (d, dd) in [(2u32, 3u32), (3, 2), (2, 4)] {
            let k = Kautz::new(d, dd);
            let g = k.digraph();
            let space = *k.space();
            for xr in 0..k.node_count() {
                let dist = bfs::distances(&g, xr as u32);
                let x = space.unrank(xr);
                for yr in 0..k.node_count() {
                    let y = space.unrank(yr);
                    assert_eq!(
                        kautz_distance(&k, &x, &y),
                        dist[yr as usize],
                        "d({x},{y}) in K({d},{dd})"
                    );
                }
            }
        }
    }

    #[test]
    fn kautz_paths_are_valid_kautz_walks() {
        let k = Kautz::new(2, 4);
        let g = k.digraph();
        let space = *k.space();
        for xr in (0..k.node_count()).step_by(5) {
            for yr in (0..k.node_count()).step_by(7) {
                let (x, y) = (space.unrank(xr), space.unrank(yr));
                let path = kautz_shortest_path(&k, &x, &y);
                assert_eq!(path[0], x);
                assert_eq!(*path.last().unwrap(), y);
                assert_eq!(path.len() as u32 - 1, kautz_distance(&k, &x, &y));
                for pair in path.windows(2) {
                    assert!(space.contains(&pair[1]), "{} is not a Kautz word", pair[1]);
                    assert!(
                        g.has_arc(space.rank(&pair[0]) as u32, space.rank(&pair[1]) as u32),
                        "invalid hop {} -> {}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn single_port_broadcast_upper_bound_reasonable() {
        // Known: b(B(2,D)) ≤ 2(D+1) roughly; greedy should stay within
        // a small factor of D for these sizes.
        for dd in 2..=6u32 {
            let b = DeBruijn::new(2, dd);
            let rounds = single_port_broadcast(&b, 0);
            assert!(
                (rounds.len() as u32) <= 3 * dd,
                "greedy broadcast used {} rounds at D = {dd}",
                rounds.len()
            );
        }
    }
}
