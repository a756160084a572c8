//! Synthetic workload generation: the traffic patterns of the
//! interconnection-network literature, reproducibly seeded.
//!
//! Pairs are *defined* chunk-wise: [`WorkloadSource`] derives an
//! independent RNG for every [`WorkloadSource::CHUNK`]-sized block of
//! workload indices, so any chunk can be (re)generated in isolation —
//! the queueing engine decodes blocks as their injection credit
//! accrues instead of materializing ten-million-pair vectors up front,
//! and a sharded consumer gets byte-identical traffic at any thread
//! count. [`generate_workload`] is the thin adapter that materializes
//! the whole stream for small runs and tests;
//! [`WorkloadSource::from_pairs`] goes the other way, serving an
//! explicit pair list through the same chunked interface.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{de::Error as _, Deserialize, Deserializer, Serialize, Value};
use std::sync::OnceLock;

/// Synthetic traffic patterns. The digit-structured patterns
/// (transpose, bit reversal) interpret node ids as length-`D` words
/// over `Z_d` — the same identification the de Bruijn fabric itself
/// uses — and therefore require `n = d^D` nodes. The one-to-many
/// patterns (broadcast, multicast, hotspot-rooted multicast) generate
/// [`MulticastGroup`]s through [`generate_multicast_workload`] instead
/// of `(src, dst)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Independent uniform `(src, dst)` pairs, `dst ≠ src`.
    Uniform,
    /// A fixed random permutation `π`; packet `i` goes `i mod n → π(i mod n)`.
    Permutation,
    /// Digit transpose: the high and low halves of the digit string
    /// swap (the classic matrix-transpose stressor).
    Transpose,
    /// Digit reversal: `x_{D-1}…x_0 → x_0…x_{D-1}` (FFT butterfly
    /// traffic).
    BitReversal,
    /// One node is hot: a quarter of all packets target node `n/2`,
    /// the rest are uniform.
    Hotspot,
    /// Every ordered pair `(src, dst)`, `src ≠ dst`, visited round-robin.
    AllToAll,
    /// One-to-all: group `i` is rooted at node `i mod n` and delivers
    /// to every other node (the full-fabric broadcast tree).
    Broadcast,
    /// One-to-many: each group has a uniform random root and `fanout`
    /// distinct uniform destinations (clamped to `n - 1`).
    Multicast { fanout: u32 },
    /// Hotspot-rooted multicast: every group is rooted at the hot node
    /// `n/2` with `fanout` distinct uniform destinations — the
    /// one-to-many mirror of [`TrafficPattern::Hotspot`]'s in-tree
    /// saturation. At `fanout ≥ n - 1` this is broadcast from the
    /// hotspot root.
    HotspotMulticast { fanout: u32 },
}

impl TrafficPattern {
    pub const ALL: [TrafficPattern; 9] = [
        TrafficPattern::Uniform,
        TrafficPattern::Permutation,
        TrafficPattern::Transpose,
        TrafficPattern::BitReversal,
        TrafficPattern::Hotspot,
        TrafficPattern::AllToAll,
        TrafficPattern::Broadcast,
        TrafficPattern::Multicast { fanout: 8 },
        TrafficPattern::HotspotMulticast { fanout: 8 },
    ];

    /// True iff the pattern needs the `n = d^D` digit structure.
    pub fn needs_digit_structure(&self) -> bool {
        matches!(
            self,
            TrafficPattern::Transpose | TrafficPattern::BitReversal
        )
    }

    /// True iff the pattern generates one-to-many groups
    /// ([`generate_multicast_workload`]) rather than `(src, dst)`
    /// pairs.
    pub fn is_multicast(&self) -> bool {
        matches!(
            self,
            TrafficPattern::Broadcast
                | TrafficPattern::Multicast { .. }
                | TrafficPattern::HotspotMulticast { .. }
        )
    }

    /// The hot destination of this pattern on an `n`-node fabric:
    /// `Some(n/2)` for [`TrafficPattern::Hotspot`] (the node a quarter
    /// of all packets target), `None` for every pattern without one.
    /// Feed it to `QueueingEngine::run_streamed_classified` to split
    /// the queueing report into hot and background classes.
    pub fn hot_node(&self, n: u64) -> Option<u64> {
        match self {
            TrafficPattern::Hotspot => Some(n / 2),
            _ => None,
        }
    }

    /// The valid pattern names, `|`-separated — the single source the
    /// CLI and the parse error both quote. The multicast entries show
    /// a concrete fanout (`multicast:8`); any `multicast:<k>` /
    /// `hotcast:<k>` with `k ≥ 1` parses.
    pub fn valid_names() -> String {
        let names: Vec<String> = Self::ALL.iter().map(|p| p.to_string()).collect();
        names.join("|")
    }
}

impl std::fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficPattern::Uniform => write!(f, "uniform"),
            TrafficPattern::Permutation => write!(f, "permutation"),
            TrafficPattern::Transpose => write!(f, "transpose"),
            TrafficPattern::BitReversal => write!(f, "bitrev"),
            TrafficPattern::Hotspot => write!(f, "hotspot"),
            TrafficPattern::AllToAll => write!(f, "alltoall"),
            TrafficPattern::Broadcast => write!(f, "broadcast"),
            TrafficPattern::Multicast { fanout } => write!(f, "multicast:{fanout}"),
            TrafficPattern::HotspotMulticast { fanout } => write!(f, "hotcast:{fanout}"),
        }
    }
}

impl std::str::FromStr for TrafficPattern {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, String> {
        let fanout_of = |spec: &str, name: &str| -> Result<u32, String> {
            let fanout: u32 = spec
                .parse()
                .map_err(|e| format!("bad {name} fanout {spec:?}: {e}"))?;
            if fanout == 0 {
                return Err(format!("{name} fanout must be at least 1"));
            }
            Ok(fanout)
        };
        if let Some(spec) = raw.strip_prefix("multicast:") {
            return Ok(TrafficPattern::Multicast {
                fanout: fanout_of(spec, "multicast")?,
            });
        }
        if let Some(spec) = raw.strip_prefix("hotcast:") {
            return Ok(TrafficPattern::HotspotMulticast {
                fanout: fanout_of(spec, "hotcast")?,
            });
        }
        match raw {
            "uniform" => Ok(TrafficPattern::Uniform),
            "permutation" | "perm" => Ok(TrafficPattern::Permutation),
            "transpose" => Ok(TrafficPattern::Transpose),
            "bitrev" | "bit-reversal" | "bitreversal" => Ok(TrafficPattern::BitReversal),
            "hotspot" => Ok(TrafficPattern::Hotspot),
            "alltoall" | "all-to-all" => Ok(TrafficPattern::AllToAll),
            "broadcast" => Ok(TrafficPattern::Broadcast),
            other => Err(format!(
                "unknown pattern {other:?} (valid patterns: {}; multicast:<k> and \
                 hotcast:<k> take any fanout ≥ 1)",
                TrafficPattern::valid_names()
            )),
        }
    }
}

// The vendored serde_derive shim cannot derive data-carrying enum
// variants, so the pattern serializes as its *display* name
// ("uniform", "multicast:8") and parses back through `FromStr`. This
// changes the wire format: the old unit-enum derive emitted variant
// identifiers ("Uniform", "BitReversal"), which no longer parse —
// nothing in this workspace ever persisted a pattern, so no stored
// data exists to migrate.
impl Serialize for TrafficPattern {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<'de> Deserialize<'de> for TrafficPattern {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Str(raw) => raw.parse().map_err(D::Error::custom),
            other => Err(D::Error::custom(format!(
                "expected a pattern name string, found {other:?}"
            ))),
        }
    }
}

/// One one-to-many request: a root and its destination set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MulticastGroup {
    /// The sending node (tree root).
    pub root: u64,
    /// Requested destinations, distinct and ≠ `root` for generated
    /// workloads (engines tolerate duplicates and self-requests).
    pub dsts: Vec<u64>,
}

/// Reverse the base-`d` digits of `value` (`digits` of them).
pub(crate) fn digit_reverse(value: u64, d: u64, digits: u32) -> u64 {
    let mut v = value;
    let mut out = 0;
    for _ in 0..digits {
        out = out * d + v % d;
        v /= d;
    }
    out
}

/// Swap the high `⌈D/2⌉` and low `⌊D/2⌋` digit blocks of `value`.
pub(crate) fn digit_transpose(value: u64, d: u64, digits: u32) -> u64 {
    let low_len = digits / 2;
    let low_modulus = d.pow(low_len);
    let high = value / low_modulus;
    let low = value % low_modulus;
    let high_modulus = d.pow(digits - low_len);
    low * high_modulus + high
}

/// A chunked unicast workload: the `i`-th `(src, dst)` pair, served
/// one [`WorkloadSource::CHUNK`]-sized block at a time — the single
/// feed every unicast queueing run decodes from.
///
/// A generated source ([`WorkloadSource::new`]) samples pattern ×
/// seed, and every chunk derives its own RNG from `(seed, chunk
/// index)`, so the pair sequence is a pure function of the workload
/// index — chunk 7 can be decoded without touching chunks 0–6,
/// decoded twice, or decoded on another thread, always yielding the
/// same pairs. This is what lets the queueing engine stream
/// ten-million-packet workloads (one live chunk buffer instead of a
/// 160 MB pair vector) while its reports stay byte-identical to the
/// explicit-pairs source ([`WorkloadSource::from_pairs`]) of the same
/// pairs at any thread count. The only whole-workload state is the
/// [`Permutation`] pattern's image table, built lazily once from the
/// base seed.
///
/// [`Permutation`]: TrafficPattern::Permutation
pub struct WorkloadSource {
    packets: usize,
    /// The largest source any pair may name (`None` for an empty
    /// stream): a generated feed's top node, or an explicit list's
    /// largest source.
    max_source: Option<u64>,
    feed: Feed,
}

/// Where a source's pairs come from.
enum Feed {
    Generated(Generator),
    Pairs(Vec<(u64, u64)>),
}

/// Pattern × seed, regenerated chunk by chunk.
struct Generator {
    pattern: TrafficPattern,
    n: u64,
    d: u64,
    seed: u64,
    /// Digit count for the digit-structured patterns (0 otherwise).
    digits: u32,
    /// The permutation pattern's image table, built on first use.
    images: OnceLock<Vec<u64>>,
}

impl WorkloadSource {
    /// Workload indices per chunk — the granularity of independent
    /// regeneration (64Ki pairs ≈ 1 MiB materialized).
    pub const CHUNK: usize = 1 << 16;

    /// An explicit pair list behind the chunked interface: chunk `c`
    /// is the slice at [`Self::chunk_bounds`]`(c)`. Endpoints are not
    /// checked here: both engines require every `src` to be a fabric
    /// node and drop off-fabric destinations as unroutable.
    pub fn from_pairs(pairs: impl Into<Vec<(u64, u64)>>) -> Self {
        let pairs = pairs.into();
        WorkloadSource {
            packets: pairs.len(),
            max_source: pairs.iter().map(|&(src, _)| src).max(),
            feed: Feed::Pairs(pairs),
        }
    }

    /// A `packets`-pair workload over `0..n` for a unicast pattern.
    /// `d` is the fabric's alphabet (used by the digit-structured
    /// patterns, which require `n = d^D`); `seed` makes the stream
    /// reproducible.
    pub fn new(pattern: TrafficPattern, n: u64, d: u64, packets: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two nodes for traffic");
        assert!(
            !pattern.is_multicast(),
            "{pattern} is one-to-many; use generate_multicast_workload"
        );
        let digits = if pattern.needs_digit_structure() {
            assert!(
                d >= 2,
                "{pattern} traffic needs an alphabet of size ≥ 2, got d = {d}"
            );
            let mut digits = 0u32;
            let mut size = 1u64;
            while size < n {
                size *= d;
                digits += 1;
            }
            assert!(
                size == n,
                "{pattern} traffic needs n = d^D nodes, got n = {n}, d = {d}"
            );
            digits
        } else {
            0
        };
        WorkloadSource {
            packets,
            max_source: (packets > 0).then_some(n - 1),
            feed: Feed::Generated(Generator {
                pattern,
                n,
                d,
                seed,
                digits,
                images: OnceLock::new(),
            }),
        }
    }

    /// Total pairs in the stream.
    pub fn len(&self) -> usize {
        self.packets
    }

    /// True iff the stream has no pairs.
    pub fn is_empty(&self) -> bool {
        self.packets == 0
    }

    /// Panic unless every source in the stream is a node of an
    /// `n`-node fabric, checked without decoding the stream. `what`
    /// names a source in the message ("workload source", "group
    /// root"). Both engines call this before routing anything.
    pub(crate) fn assert_sources_within(&self, n: u64, what: &str) {
        if let Some(max) = self.max_source {
            assert!(
                max < n,
                "{what} {max} is not a fabric node (fabric has {n})"
            );
        }
    }

    /// Number of chunks ([`Self::CHUNK`] indices each, last partial).
    pub fn chunk_count(&self) -> usize {
        self.packets.div_ceil(Self::CHUNK)
    }

    /// The workload-index range of `chunk`.
    pub fn chunk_bounds(&self, chunk: usize) -> std::ops::Range<usize> {
        let start = chunk * Self::CHUNK;
        let end = ((chunk + 1) * Self::CHUNK).min(self.packets);
        start..end.max(start)
    }

    /// Decode `chunk` into `out` (cleared first): the pairs at
    /// workload indices [`Self::chunk_bounds`], in index order.
    pub fn fill_chunk(&self, chunk: usize, out: &mut Vec<(u64, u64)>) {
        out.clear();
        let range = self.chunk_bounds(chunk);
        if range.is_empty() {
            return;
        }
        match &self.feed {
            Feed::Pairs(pairs) => out.extend_from_slice(&pairs[range]),
            Feed::Generated(generator) => generator.fill(chunk, range, out),
        }
    }

    /// Materialize the whole stream — the small-run/test adapter
    /// behind [`generate_workload`].
    pub fn materialize(&self) -> Vec<(u64, u64)> {
        let mut pairs = Vec::with_capacity(self.packets);
        let mut chunk_buf = Vec::new();
        for chunk in 0..self.chunk_count() {
            self.fill_chunk(chunk, &mut chunk_buf);
            pairs.extend_from_slice(&chunk_buf);
        }
        pairs
    }
}

impl Generator {
    /// The chunk's independent RNG: any injective map of
    /// `(seed, chunk)` works — SplitMix64 seeding scrambles it.
    fn chunk_rng(&self, chunk: usize) -> StdRng {
        let stride = (chunk as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        StdRng::seed_from_u64(self.seed.wrapping_add(stride))
    }

    fn permutation_images(&self) -> &[u64] {
        self.images.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut images: Vec<u64> = (0..self.n).collect();
            for i in (1..self.n as usize).rev() {
                let j = rng.gen_range(0..=i);
                images.swap(i, j);
            }
            images
        })
    }

    /// Append the pairs at workload indices `range` (chunk `chunk`'s
    /// bounds) to `out`.
    fn fill(&self, chunk: usize, range: std::ops::Range<usize>, out: &mut Vec<(u64, u64)>) {
        out.reserve(range.len());
        let n = self.n;
        let draw_other = |rng: &mut StdRng, src: u64| loop {
            let dst = rng.gen_range(0..n);
            if dst != src {
                return dst;
            }
        };
        match self.pattern {
            TrafficPattern::Uniform => {
                let mut rng = self.chunk_rng(chunk);
                out.extend(range.map(|_| {
                    let src = rng.gen_range(0..n);
                    let dst = draw_other(&mut rng, src);
                    (src, dst)
                }));
            }
            TrafficPattern::Permutation => {
                let images = self.permutation_images();
                out.extend(range.map(|i| {
                    let src = i as u64 % n;
                    (src, images[src as usize])
                }));
            }
            TrafficPattern::Transpose => {
                out.extend(range.map(|i| {
                    let src = i as u64 % n;
                    (src, digit_transpose(src, self.d, self.digits))
                }));
            }
            TrafficPattern::BitReversal => {
                out.extend(range.map(|i| {
                    let src = i as u64 % n;
                    (src, digit_reverse(src, self.d, self.digits))
                }));
            }
            TrafficPattern::Hotspot => {
                let hot = n / 2;
                let mut rng = self.chunk_rng(chunk);
                out.extend(range.map(|i| {
                    if i % 4 == 0 {
                        let src = loop {
                            let candidate = rng.gen_range(0..n);
                            if candidate != hot {
                                break candidate;
                            }
                        };
                        (src, hot)
                    } else {
                        let src = rng.gen_range(0..n);
                        (src, draw_other(&mut rng, src))
                    }
                }));
            }
            TrafficPattern::AllToAll => {
                let pairs = n * (n - 1);
                out.extend(range.map(|i| {
                    let index = i as u64 % pairs;
                    let src = index / (n - 1);
                    let mut dst = index % (n - 1);
                    if dst >= src {
                        dst += 1; // skip the diagonal
                    }
                    (src, dst)
                }));
            }
            TrafficPattern::Broadcast
            | TrafficPattern::Multicast { .. }
            | TrafficPattern::HotspotMulticast { .. } => {
                unreachable!("multicast patterns rejected at construction")
            }
        }
    }
}

/// Generate `packets` source/destination pairs over `0..n` for a
/// pattern. `d` is the fabric's alphabet (used by the digit-structured
/// patterns, which require `n = d^D`); `seed` makes workloads
/// reproducible. This materializes the chunk-defined stream of
/// [`WorkloadSource`] — large runs should hold the source and decode
/// chunks on demand instead.
pub fn generate_workload(
    pattern: TrafficPattern,
    n: u64,
    d: u64,
    packets: usize,
    seed: u64,
) -> Vec<(u64, u64)> {
    WorkloadSource::new(pattern, n, d, packets, seed).materialize()
}

/// Generate `groups` one-to-many requests over `0..n` for a multicast
/// pattern (destinations distinct, ≠ root); unicast patterns yield
/// their usual pairs as singleton groups, so every pattern flows
/// through the multicast engines. `seed` makes workloads
/// reproducible, same convention as [`generate_workload`].
pub fn generate_multicast_workload(
    pattern: TrafficPattern,
    n: u64,
    d: u64,
    groups: usize,
    seed: u64,
) -> Vec<MulticastGroup> {
    assert!(n >= 2, "need at least two nodes for traffic");
    let mut rng = StdRng::seed_from_u64(seed);
    // `fanout` distinct destinations ≠ root, by rejection — fine for
    // the sparse case and exact for the dense one (fanout near n).
    let draw_dsts = |rng: &mut StdRng, root: u64, fanout: u64| -> Vec<u64> {
        let fanout = fanout.min(n - 1);
        if fanout == n - 1 {
            return (0..n).filter(|&v| v != root).collect();
        }
        let mut dsts = Vec::with_capacity(fanout as usize);
        while (dsts.len() as u64) < fanout {
            let dst = rng.gen_range(0..n);
            if dst != root && !dsts.contains(&dst) {
                dsts.push(dst);
            }
        }
        dsts
    };
    match pattern {
        TrafficPattern::Broadcast => (0..groups)
            .map(|i| {
                let root = i as u64 % n;
                MulticastGroup {
                    root,
                    dsts: (0..n).filter(|&v| v != root).collect(),
                }
            })
            .collect(),
        TrafficPattern::Multicast { fanout } => (0..groups)
            .map(|_| {
                let root = rng.gen_range(0..n);
                let dsts = draw_dsts(&mut rng, root, fanout as u64);
                MulticastGroup { root, dsts }
            })
            .collect(),
        TrafficPattern::HotspotMulticast { fanout } => {
            let root = n / 2;
            (0..groups)
                .map(|_| MulticastGroup {
                    root,
                    dsts: draw_dsts(&mut rng, root, fanout as u64),
                })
                .collect()
        }
        unicast => generate_workload(unicast, n, d, groups, seed)
            .into_iter()
            .map(|(src, dst)| MulticastGroup {
                root: src,
                dsts: vec![dst],
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_generate_valid_pairs() {
        for pattern in TrafficPattern::ALL {
            if pattern.is_multicast() {
                continue; // covered by multicast_patterns_generate_valid_groups
            }
            let workload = generate_workload(pattern, 16, 2, 500, 11);
            assert_eq!(workload.len(), 500, "{pattern}");
            for &(src, dst) in &workload {
                assert!(src < 16 && dst < 16, "{pattern}: ({src}, {dst})");
            }
            // The random patterns avoid self-traffic by construction;
            // permutation fixed points and digit-palindromes are
            // legitimate self-pairs.
            if matches!(
                pattern,
                TrafficPattern::Uniform | TrafficPattern::Hotspot | TrafficPattern::AllToAll
            ) {
                assert!(
                    workload.iter().all(|&(src, dst)| src != dst),
                    "{pattern} should avoid self-traffic"
                );
            }
        }
    }

    #[test]
    fn chunks_are_independently_regenerable() {
        // The chunked stream is the definition: each chunk decoded in
        // isolation (any order, repeatedly) equals its slice of the
        // materialized workload.
        let n = 64u64;
        let packets = 2 * WorkloadSource::CHUNK + 1234;
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::Permutation,
            TrafficPattern::Hotspot,
            TrafficPattern::AllToAll,
        ] {
            let source = WorkloadSource::new(pattern, n, 2, packets, 0xBEEF);
            assert_eq!(source.len(), packets);
            assert_eq!(source.chunk_count(), 3, "{pattern}");
            let whole = source.materialize();
            assert_eq!(whole.len(), packets, "{pattern}");
            let mut buf = Vec::new();
            for chunk in [2usize, 0, 1, 2, 0] {
                source.fill_chunk(chunk, &mut buf);
                let bounds = source.chunk_bounds(chunk);
                assert_eq!(buf.len(), bounds.len(), "{pattern} chunk {chunk}");
                assert_eq!(buf[..], whole[bounds], "{pattern} chunk {chunk}");
            }
            // A fresh source with the same seed decodes identically;
            // a different seed moves the random patterns.
            let again = WorkloadSource::new(pattern, n, 2, packets, 0xBEEF);
            assert_eq!(again.materialize(), whole, "{pattern}");
            if matches!(pattern, TrafficPattern::Uniform | TrafficPattern::Hotspot) {
                let other = WorkloadSource::new(pattern, n, 2, packets, 0xBEF0);
                assert_ne!(other.materialize(), whole, "{pattern}");
            }
        }
        // An explicit pair list serves the same chunks: the chunk
        // straddling index CHUNK splits exactly at the boundary, and
        // past-the-end chunks decode empty.
        let pairs: Vec<(u64, u64)> = (0..WorkloadSource::CHUNK as u64 + 5)
            .map(|i| (i % n, i.wrapping_mul(7) % n))
            .collect();
        let explicit = WorkloadSource::from_pairs(&pairs[..]);
        assert_eq!(explicit.len(), pairs.len());
        assert_eq!(explicit.chunk_count(), 2);
        let mut buf = Vec::new();
        for chunk in [1usize, 0, 1] {
            explicit.fill_chunk(chunk, &mut buf);
            assert_eq!(
                buf[..],
                pairs[explicit.chunk_bounds(chunk)],
                "chunk {chunk}"
            );
        }
        assert_eq!(buf.len(), 5, "the partial tail chunk");
        explicit.fill_chunk(2, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(explicit.materialize(), pairs);
        assert!(WorkloadSource::from_pairs(Vec::new()).is_empty());
    }

    #[test]
    fn generate_workload_is_the_materialize_adapter() {
        let source = WorkloadSource::new(TrafficPattern::Uniform, 32, 2, 5000, 7);
        assert_eq!(
            source.materialize(),
            generate_workload(TrafficPattern::Uniform, 32, 2, 5000, 7)
        );
        // Degenerate stream: no pairs, no chunks.
        let empty = WorkloadSource::new(TrafficPattern::Uniform, 32, 2, 0, 7);
        assert!(empty.is_empty());
        assert_eq!(empty.chunk_count(), 0);
        assert_eq!(empty.materialize(), Vec::new());
    }

    #[test]
    fn transpose_and_bitrev_are_involutions() {
        for value in 0..256u64 {
            assert_eq!(digit_reverse(digit_reverse(value, 2, 8), 2, 8), value);
        }
        // Transpose swaps halves; applying it twice is the identity
        // when D is even.
        for value in 0..256u64 {
            assert_eq!(digit_transpose(digit_transpose(value, 2, 8), 2, 8), value);
        }
        for value in 0..27u64 {
            assert_eq!(digit_reverse(digit_reverse(value, 3, 3), 3, 3), value);
        }
    }

    #[test]
    fn hotspot_concentrates_on_hot_node() {
        let workload = generate_workload(TrafficPattern::Hotspot, 64, 2, 4000, 3);
        let hot = TrafficPattern::Hotspot
            .hot_node(64)
            .expect("hotspot is hot");
        assert_eq!(hot, 32);
        assert_eq!(TrafficPattern::Uniform.hot_node(64), None);
        let to_hot = workload.iter().filter(|&&(_, dst)| dst == hot).count();
        assert!(
            to_hot >= workload.len() / 4,
            "hotspot sends ≥ 25% to the hot node, got {to_hot}/4000"
        );
    }

    #[test]
    fn all_to_all_covers_every_pair() {
        let n = 8u64;
        let pairs = (n * (n - 1)) as usize;
        let workload = generate_workload(TrafficPattern::AllToAll, n, 2, pairs, 0);
        let mut seen = std::collections::HashSet::new();
        for &pair in &workload {
            assert!(
                seen.insert(pair),
                "duplicate pair {pair:?} within one sweep"
            );
        }
        assert_eq!(seen.len(), pairs);
    }

    #[test]
    #[should_panic(expected = "alphabet of size")]
    fn digit_pattern_rejects_degenerate_alphabet() {
        generate_workload(TrafficPattern::Transpose, 8, 1, 10, 0);
    }

    #[test]
    #[should_panic(expected = "one-to-many")]
    fn pair_generator_rejects_multicast_patterns() {
        generate_workload(TrafficPattern::Broadcast, 8, 2, 10, 0);
    }

    #[test]
    fn multicast_patterns_generate_valid_groups() {
        let n = 16u64;
        for pattern in [
            TrafficPattern::Broadcast,
            TrafficPattern::Multicast { fanout: 4 },
            TrafficPattern::HotspotMulticast { fanout: 4 },
            // Oversized fanout clamps to broadcast-sized groups.
            TrafficPattern::Multicast { fanout: 99 },
        ] {
            let groups = generate_multicast_workload(pattern, n, 2, 40, 11);
            assert_eq!(groups.len(), 40, "{pattern}");
            for group in &groups {
                assert!(group.root < n, "{pattern}");
                let expected = match pattern {
                    TrafficPattern::Broadcast => n - 1,
                    TrafficPattern::Multicast { fanout }
                    | TrafficPattern::HotspotMulticast { fanout } => (fanout as u64).min(n - 1),
                    _ => unreachable!(),
                };
                assert_eq!(group.dsts.len() as u64, expected, "{pattern}");
                let mut seen = std::collections::HashSet::new();
                for &dst in &group.dsts {
                    assert!(dst < n && dst != group.root, "{pattern}: {dst}");
                    assert!(seen.insert(dst), "{pattern}: duplicate dst {dst}");
                }
            }
        }
        // Hotspot-rooted groups all share the hot root.
        let hotcast = generate_multicast_workload(
            TrafficPattern::HotspotMulticast { fanout: 3 },
            n,
            2,
            10,
            5,
        );
        assert!(hotcast.iter().all(|g| g.root == n / 2));
        // Broadcast roots cycle round-robin.
        let broadcast = generate_multicast_workload(TrafficPattern::Broadcast, n, 2, 20, 5);
        assert!(broadcast
            .iter()
            .enumerate()
            .all(|(i, g)| g.root == i as u64 % n));
        // Unicast patterns flow through as singleton groups, matching
        // the pair generator exactly.
        let singles = generate_multicast_workload(TrafficPattern::Uniform, n, 2, 50, 9);
        let pairs = generate_workload(TrafficPattern::Uniform, n, 2, 50, 9);
        assert_eq!(singles.len(), pairs.len());
        for (group, &(src, dst)) in singles.iter().zip(&pairs) {
            assert_eq!((group.root, group.dsts.as_slice()), (src, &[dst][..]));
        }
    }

    #[test]
    fn multicast_patterns_parse_and_roundtrip() {
        assert_eq!(
            "broadcast".parse::<TrafficPattern>().unwrap(),
            TrafficPattern::Broadcast
        );
        assert_eq!(
            "multicast:8".parse::<TrafficPattern>().unwrap(),
            TrafficPattern::Multicast { fanout: 8 }
        );
        assert_eq!(
            "hotcast:255".parse::<TrafficPattern>().unwrap(),
            TrafficPattern::HotspotMulticast { fanout: 255 }
        );
        assert!("multicast:0".parse::<TrafficPattern>().is_err());
        assert!("multicast:".parse::<TrafficPattern>().is_err());
        assert!("hotcast:x".parse::<TrafficPattern>().is_err());
        // Display round-trips through FromStr for every pattern —
        // which is also the serde wire format.
        for pattern in TrafficPattern::ALL {
            assert_eq!(pattern.to_string().parse::<TrafficPattern>(), Ok(pattern));
            let json = serde_json::to_string(&pattern).unwrap();
            let back: TrafficPattern = serde_json::from_str(&json).unwrap();
            assert_eq!(back, pattern);
        }
    }

    #[test]
    fn parse_error_lists_valid_patterns() {
        let err = "zigzag".parse::<TrafficPattern>().unwrap_err();
        assert!(err.contains("unknown pattern"), "{err}");
        for pattern in TrafficPattern::ALL {
            assert!(err.contains(&pattern.to_string()), "{err}");
        }
    }
}
