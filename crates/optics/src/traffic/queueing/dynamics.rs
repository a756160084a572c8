//! Link-dynamics timelines: the scripted fades, flapping beams and
//! failure storms a queueing run replays against its fabric.
//!
//! Free-space optical links are not up-or-down bits on a service
//! schedule: scintillation fades a beam's usable wavelength count,
//! misalignment makes it *flap* with a duty cycle, and a shared
//! disturbance (a tracker reset, an obscured transceiver plane) takes
//! a correlated slice of links down at once. This module turns a
//! textual spec of those events into a deterministic, pre-compiled
//! [`Timeline`] of per-arc capacity transitions the engine applies at
//! cycle boundaries — same spec, same fabric, same run, bit for bit.
//!
//! # Spec grammar
//!
//! A spec is a comma-separated event list. Link endpoints are node
//! ids written `SRC>DST`; cycles, capacities and durations are plain
//! integers.
//!
//! | event | meaning |
//! |---|---|
//! | `fade@C:S>D` | link `S→D` dies (capacity 0) at cycle `C`, permanently |
//! | `fade@C:S>D:CAP` | capacity drops to `CAP` wavelengths at `C`, permanently |
//! | `fade@C:S>D:CAP:DUR` | …and restores to full after `DUR` cycles |
//! | `flap@C:S>D:UP:DOWN` | from `C`: dead `DOWN` cycles, alive `UP`, × 16 |
//! | `flap@C:S>D:UP:DOWN:N` | …repeated `N` times instead (`N` ≤ 2^20) |
//! | `storm@C:LO-HI:DUR` | every out-link of nodes `LO..=HI` dies at `C` for `DUR` |
//! | `randfades@SEED:N:WINDOW:DUR` | `N` (≤ 2^20) seed-split random full fades, start < `WINDOW`, each `DUR` long |
//!
//! Examples: `fade@100:0>1`, `fade@50:3>6:1:200`,
//! `flap@10:0>1:20:5`, `storm@500:0-63:250`,
//! `randfades@42:8:1000:100`.
//!
//! ## Rank addressing
//!
//! On a relabeled fabric (an OTIS layout routed through its de Bruijn
//! isomorphism witness), node ids in the spec default to the *outer*
//! (H-numbering) ids the fabric itself uses. Inserting `rank:` right
//! after the cycle addresses the event in **de Bruijn rank space**
//! instead: `fade@C:rank:S>D`, `flap@C:rank:S>D:UP:DOWN`,
//! `storm@C:rank:LO-HI:DUR`. Ranks are translated to outer nodes
//! through the witness at compile time, so an operator can script the
//! logical de Bruijn link `u → du+α` without knowing which physical
//! OTIS transceiver carries it. `rank:` on a fabric compiled without a
//! witness is an error.
//!
//! # Compilation
//!
//! [`DynamicsSpec::try_compile`] resolves every event against the
//! fabric (unknown links are an error — a dynamics script that names a
//! non-link is a bug, not a no-op; the error names the offending pair
//! in both numberings and lists the source node's actual out-links),
//! clamps capacities to the configured wavelength count, orders all
//! transitions by cycle (stable: same-cycle transitions apply in spec
//! order), and classifies each as a zero-crossing ([`Crossing::Death`]
//! / [`Crossing::Revival`]) or a plain capacity change by replaying
//! the per-arc capacity sequence. The engine consumes the
//! classification directly: deaths strand queued packets and open a
//! time-to-reroute watch, revivals (and deaths) wake parked state, and
//! both feed the router's online repair hook
//! ([`otis_core::RouteRepair`]).

use otis_digraph::Digraph;
use std::str::FromStr;

/// What the engine does with packets stranded on a link that faded to
/// zero (queued in the dead link's FIFOs, or blocked because their
/// router insists on the dead beam).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrandedPolicy {
    /// Stranded packets are pulled back to their current node and
    /// re-offered to the (repaired) routing each cycle until a live
    /// out-channel with room accepts them; packets that become
    /// unreachable drop as `dropped_stranded`. The lossless choice
    /// under backpressure.
    #[default]
    Reinject,
    /// Stranded packets drop immediately (`dropped_stranded`) — the
    /// optical-switch behavior when there is no electronic buffer to
    /// hold a beamless packet.
    Drop,
}

impl FromStr for StrandedPolicy {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, String> {
        match raw {
            "reinject" => Ok(StrandedPolicy::Reinject),
            "drop" => Ok(StrandedPolicy::Drop),
            other => Err(format!(
                "unknown stranded policy {other:?} (valid: reinject|drop)"
            )),
        }
    }
}

/// One scripted event, as parsed (fabric-independent).
#[derive(Debug, Clone, PartialEq, Eq)]
enum DynamicsEvent {
    Fade {
        cycle: u64,
        from: u64,
        to: u64,
        /// Node ids are de Bruijn ranks (translate through the
        /// witness), not outer fabric ids.
        rank: bool,
        /// Surviving wavelength count; `0` is a full fade (death).
        capacity: u64,
        /// Cycles until restoration; `None` = permanent.
        duration: Option<u64>,
    },
    Flap {
        start: u64,
        from: u64,
        to: u64,
        rank: bool,
        up: u64,
        down: u64,
        repeats: u64,
    },
    Storm {
        cycle: u64,
        lo: u64,
        hi: u64,
        rank: bool,
        duration: u64,
    },
    RandFades {
        seed: u64,
        count: u64,
        window: u64,
        duration: u64,
    },
}

/// A parsed link-dynamics script — see the module docs for the
/// grammar. Fabric-independent until [`DynamicsSpec::compile`]d.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicsSpec {
    events: Vec<DynamicsEvent>,
}

/// Flaps without an explicit repeat count run this many periods.
const DEFAULT_FLAP_REPEATS: u64 = 16;

/// The largest `flap` repeat count or `randfades` count a spec may ask
/// for. Each repeat or fade compiles to two transitions, so an
/// unbounded count would exhaust memory at compile time.
const MAX_EVENT_COUNT: u64 = 1 << 20;

fn parse_u64(raw: &str, what: &str, event: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|_| format!("{event}: {what} must be a non-negative integer, got {raw:?}"))
}

/// [`parse_u64`] for a count that expands into transitions, capped at
/// [`MAX_EVENT_COUNT`].
fn parse_count(raw: &str, what: &str, event: &str) -> Result<u64, String> {
    let count = parse_u64(raw, what, event)?;
    if count > MAX_EVENT_COUNT {
        return Err(format!(
            "{event}: {what} {count} exceeds the limit of {MAX_EVENT_COUNT}"
        ));
    }
    Ok(count)
}

/// `S>D` → `(S, D)`.
fn parse_link(raw: &str, event: &str) -> Result<(u64, u64), String> {
    let (from, to) = raw
        .split_once('>')
        .ok_or_else(|| format!("{event}: expected a link as SRC>DST, got {raw:?}"))?;
    Ok((
        parse_u64(from, "link source", event)?,
        parse_u64(to, "link target", event)?,
    ))
}

impl FromStr for DynamicsSpec {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, rest) = part.split_once('@').ok_or_else(|| {
                format!("{part:?}: expected KIND@ARGS (kinds: fade|flap|storm|randfades)")
            })?;
            let mut fields: Vec<&str> = rest.split(':').collect();
            // `KIND@CYCLE:rank:…` switches the event's node ids to de
            // Bruijn rank space; the marker sits between the cycle and
            // the link/range and is stripped before field matching.
            let rank = fields.get(1) == Some(&"rank");
            if rank {
                if kind == "randfades" {
                    return Err(format!(
                        "{part:?}: randfades draws arcs, not node ids — rank: does not apply"
                    ));
                }
                fields.remove(1);
            }
            let event = match (kind, fields.as_slice()) {
                ("fade", [cycle, link, ..]) => {
                    if fields.len() > 4 {
                        return Err(format!(
                            "{part:?}: fade takes at most CYCLE:SRC>DST:CAP:DUR"
                        ));
                    }
                    let (from, to) = parse_link(link, part)?;
                    DynamicsEvent::Fade {
                        cycle: parse_u64(cycle, "cycle", part)?,
                        from,
                        to,
                        rank,
                        capacity: match fields.get(2) {
                            Some(cap) => parse_u64(cap, "capacity", part)?,
                            None => 0,
                        },
                        duration: match fields.get(3) {
                            Some(dur) => Some(parse_u64(dur, "duration", part)?),
                            None => None,
                        },
                    }
                }
                ("flap", [start, link, up, down, ..]) => {
                    if fields.len() > 5 {
                        return Err(format!(
                            "{part:?}: flap takes at most CYCLE:SRC>DST:UP:DOWN:REPEATS"
                        ));
                    }
                    let (from, to) = parse_link(link, part)?;
                    let up = parse_u64(up, "up time", part)?;
                    let down = parse_u64(down, "down time", part)?;
                    if up == 0 || down == 0 {
                        return Err(format!("{part:?}: flap up/down times must be positive"));
                    }
                    if up.checked_add(down).is_none() {
                        return Err(format!("{part:?}: flap period UP+DOWN overflows u64"));
                    }
                    DynamicsEvent::Flap {
                        start: parse_u64(start, "start cycle", part)?,
                        from,
                        to,
                        rank,
                        up,
                        down,
                        repeats: match fields.get(4) {
                            Some(n) => parse_count(n, "repeat count", part)?,
                            None => DEFAULT_FLAP_REPEATS,
                        },
                    }
                }
                ("storm", [cycle, range, duration]) => {
                    let (lo, hi) = range
                        .split_once('-')
                        .ok_or_else(|| format!("{part:?}: expected a node range as LO-HI"))?;
                    let lo = parse_u64(lo, "range start", part)?;
                    let hi = parse_u64(hi, "range end", part)?;
                    if lo > hi {
                        return Err(format!("{part:?}: empty node range {lo}-{hi}"));
                    }
                    let duration = parse_u64(duration, "duration", part)?;
                    if duration == 0 {
                        return Err(format!("{part:?}: storm duration must be positive"));
                    }
                    DynamicsEvent::Storm {
                        cycle: parse_u64(cycle, "cycle", part)?,
                        lo,
                        hi,
                        rank,
                        duration,
                    }
                }
                ("randfades", [seed, count, window, duration]) => {
                    let window = parse_u64(window, "window", part)?;
                    let duration = parse_u64(duration, "duration", part)?;
                    if window == 0 || duration == 0 {
                        return Err(format!(
                            "{part:?}: randfades window/duration must be positive"
                        ));
                    }
                    DynamicsEvent::RandFades {
                        seed: parse_u64(seed, "seed", part)?,
                        count: parse_count(count, "count", part)?,
                        window,
                        duration,
                    }
                }
                _ => {
                    return Err(format!(
                        "{part:?}: unknown event (valid: fade@C:S>D[:CAP[:DUR]], \
                         flap@C:S>D:UP:DOWN[:N], storm@C:LO-HI:DUR, randfades@SEED:N:WINDOW:DUR)"
                    ))
                }
            };
            events.push(event);
        }
        if events.is_empty() {
            return Err("empty dynamics spec".into());
        }
        Ok(DynamicsSpec { events })
    }
}

/// How a transition relates to zero capacity — precomputed so the
/// engine's event application needs no state of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Crossing {
    /// Capacity changed without crossing zero.
    None,
    /// Capacity fell from positive to zero: the link died.
    Death,
    /// Capacity rose from zero: the link revived.
    Revival,
}

/// One compiled capacity transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transition {
    pub cycle: u64,
    pub arc: u32,
    /// New drain capacity in wavelengths (already clamped to the
    /// configured count).
    pub capacity: u32,
    pub crossing: Crossing,
}

/// A compiled dynamics timeline: every capacity transition of the
/// run, cycle-ordered, with zero-crossings classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Timeline {
    pub transitions: Vec<Transition>,
    /// Number of [`Crossing::Death`] transitions — one
    /// time-to-reroute watch each.
    pub deaths: usize,
}

/// splitmix64 — the seed-split generator behind `randfades`. Inline
/// (not the workload's `StdRng`) so a dynamics script's schedule never
/// changes under a rand-crate upgrade.
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DynamicsSpec {
    /// Does any event address its nodes in de Bruijn rank space?
    fn uses_rank(&self) -> bool {
        self.events.iter().any(|e| match *e {
            DynamicsEvent::Fade { rank, .. }
            | DynamicsEvent::Flap { rank, .. }
            | DynamicsEvent::Storm { rank, .. } => rank,
            DynamicsEvent::RandFades { .. } => false,
        })
    }

    /// Resolve the spec against fabric `g` with `wavelengths` full
    /// capacity into a cycle-ordered [`Timeline`].
    ///
    /// `node_rank` is the de Bruijn isomorphism witness of a relabeled
    /// fabric (`node_rank[outer_node] = rank`); `rank:`-addressed
    /// events translate through its inverse, and errors on such
    /// fabrics report offending links in both numberings. `None` on a
    /// fabric that routes its own numbering — any `rank:` event is
    /// then an error.
    ///
    /// # Errors
    ///
    /// On a link the fabric does not have, a node or storm range past
    /// the node count, or a `rank:` event without a witness — a
    /// dynamics script that names non-fabric structure is a
    /// configuration bug, surfaced with the offending pair in every
    /// numbering we know plus the source node's actual out-links.
    pub(crate) fn try_compile(
        &self,
        g: &Digraph,
        wavelengths: usize,
        node_rank: Option<&[u32]>,
    ) -> Result<Timeline, String> {
        let full = u32::try_from(wavelengths).unwrap_or(u32::MAX);
        let n = g.node_count() as u64;
        if let Some(w) = node_rank {
            assert_eq!(
                w.len(),
                g.node_count(),
                "witness length must match the fabric's node count"
            );
        }
        // rank → outer node, built once if any event needs it. The
        // witness is a verified permutation (prop_3_9_witness), so the
        // inverse is total.
        let rank_to_node: Option<Vec<u32>> = if self.uses_rank() {
            let w = node_rank.ok_or_else(|| {
                "dynamics spec uses rank: addressing, but the fabric routes its own numbering \
                 (no de Bruijn witness); rank: needs an OTIS layout"
                    .to_string()
            })?;
            let mut inv = vec![0u32; w.len()];
            for (node, &r) in w.iter().enumerate() {
                inv[r as usize] = node as u32;
            }
            Some(inv)
        } else {
            None
        };
        // Resolve one event-addressed node id to the outer numbering.
        let resolve = |node: u64, rank: bool, what: &str| -> Result<u64, String> {
            if node >= n {
                let space = if rank { "de Bruijn rank" } else { "node id" };
                return Err(format!(
                    "dynamics event {what} {space} {node} exceeds the fabric's {n} nodes"
                ));
            }
            if !rank {
                return Ok(node);
            }
            // uses_rank() guarantees the inverse exists here.
            Ok(u64::from(
                rank_to_node.as_ref().expect("rank map")[node as usize],
            ))
        };
        // Render a node id in every numbering we know, for errors.
        let describe = |outer: u64| -> String {
            match node_rank {
                Some(w) => format!("node {outer} (= de Bruijn rank {})", w[outer as usize]),
                None => format!("node {outer}"),
            }
        };
        let arc_between = |from: u64, to: u64, rank: bool| -> Result<u32, String> {
            let outer_from = resolve(from, rank, "link source")?;
            let outer_to = resolve(to, rank, "link target")?;
            match g.arc_between(outer_from as u32, outer_to as u32) {
                Some(arc) => Ok(arc as u32),
                None => {
                    let outs: Vec<String> = g
                        .out_neighbors(outer_from as u32)
                        .iter()
                        .map(|&v| describe(u64::from(v)))
                        .collect();
                    let addressed = if rank {
                        format!("rank link {from}>{to} = fabric link {outer_from}>{outer_to}")
                    } else {
                        format!("link {}>{}", describe(outer_from), describe(outer_to))
                    };
                    Err(format!(
                        "dynamics event names {addressed}, not a fabric link; \
                         {} has out-links to [{}]",
                        describe(outer_from),
                        outs.join(", ")
                    ))
                }
            }
        };
        // Raw (cycle, arc, capacity) ops, in spec emission order.
        let mut ops: Vec<(u64, u32, u32)> = Vec::new();
        for event in &self.events {
            match *event {
                DynamicsEvent::Fade {
                    cycle,
                    from,
                    to,
                    rank,
                    capacity,
                    duration,
                } => {
                    let arc = arc_between(from, to, rank)?;
                    let cap = u32::try_from(capacity).unwrap_or(u32::MAX).min(full);
                    ops.push((cycle, arc, cap));
                    if let Some(duration) = duration {
                        ops.push((cycle.saturating_add(duration), arc, full));
                    }
                }
                DynamicsEvent::Flap {
                    start,
                    from,
                    to,
                    rank,
                    up,
                    down,
                    repeats,
                } => {
                    let arc = arc_between(from, to, rank)?;
                    // The parser rejects a period that overflows.
                    let period = up + down;
                    for rep in 0..repeats {
                        let at = start.saturating_add(rep.saturating_mul(period));
                        ops.push((at, arc, 0));
                        ops.push((at.saturating_add(down), arc, full));
                    }
                }
                DynamicsEvent::Storm {
                    cycle,
                    lo,
                    hi,
                    rank,
                    duration,
                } => {
                    if hi >= n {
                        let space = if rank { "rank range" } else { "node range" };
                        return Err(format!(
                            "storm {space} {lo}-{hi} exceeds the fabric's {n} nodes"
                        ));
                    }
                    for addressed in lo..=hi {
                        let node = resolve(addressed, rank, "storm node")?;
                        for arc in g.arc_range(node as u32) {
                            ops.push((cycle, arc as u32, 0));
                            ops.push((cycle.saturating_add(duration), arc as u32, full));
                        }
                    }
                }
                DynamicsEvent::RandFades {
                    seed,
                    count,
                    window,
                    duration,
                } => {
                    let arcs = g.arc_count() as u64;
                    if arcs == 0 {
                        return Err("randfades on a fabric with no links".to_string());
                    }
                    for i in 0..count {
                        // Seed-split: each fade draws from its own
                        // stream, so adding a fade never reshuffles
                        // the ones before it.
                        let mut state =
                            seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        let arc = (splitmix64_next(&mut state) % arcs) as u32;
                        let at = splitmix64_next(&mut state) % window;
                        ops.push((at, arc, 0));
                        ops.push((at.saturating_add(duration), arc, full));
                    }
                }
            }
        }
        // Cycle order; stable, so same-cycle ops keep spec order (the
        // later op wins when both touch the same arc — appliers run
        // the list in sequence).
        ops.sort_by_key(|&(cycle, _, _)| cycle);
        // Classify crossings by replaying per-arc capacity.
        let mut cap_of = vec![full; g.arc_count()];
        let mut deaths = 0usize;
        let transitions = ops
            .into_iter()
            .map(|(cycle, arc, capacity)| {
                let old = cap_of[arc as usize];
                cap_of[arc as usize] = capacity;
                let crossing = match (old, capacity) {
                    (0, 0) => Crossing::None,
                    (_, 0) => Crossing::Death,
                    (0, _) => Crossing::Revival,
                    _ => Crossing::None,
                };
                if crossing == Crossing::Death {
                    deaths += 1;
                }
                Transition {
                    cycle,
                    arc,
                    capacity,
                    crossing,
                }
            })
            .collect();
        Ok(Timeline {
            transitions,
            deaths,
        })
    }

    /// Infallible [`Self::try_compile`] for witness-free test
    /// fixtures.
    #[cfg(test)]
    pub(crate) fn compile(&self, g: &Digraph, wavelengths: usize) -> Timeline {
        self.try_compile(g, wavelengths, None)
            .expect("test spec compiles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_core::{DeBruijn, DigraphFamily};

    fn b24() -> Digraph {
        DeBruijn::new(2, 4).digraph()
    }

    #[test]
    fn parses_every_event_kind() {
        let spec: DynamicsSpec =
            "fade@100:0>1, fade@50:1>2:1:200, flap@10:0>1:20:5:3, storm@500:0-3:250, \
             randfades@42:4:1000:100"
                .parse()
                .expect("valid spec");
        assert_eq!(spec.events.len(), 5);
        assert_eq!(
            spec.events[0],
            DynamicsEvent::Fade {
                cycle: 100,
                from: 0,
                to: 1,
                rank: false,
                capacity: 0,
                duration: None
            }
        );
        assert_eq!(
            spec.events[2],
            DynamicsEvent::Flap {
                start: 10,
                from: 0,
                to: 1,
                rank: false,
                up: 20,
                down: 5,
                repeats: 3
            }
        );
    }

    #[test]
    fn rank_prefix_parses_on_fade_flap_and_storm() {
        let spec: DynamicsSpec =
            "fade@100:rank:0>1:1:50, flap@10:rank:0>1:20:5, storm@500:rank:0-3:250"
                .parse()
                .expect("valid rank spec");
        assert_eq!(
            spec.events[0],
            DynamicsEvent::Fade {
                cycle: 100,
                from: 0,
                to: 1,
                rank: true,
                capacity: 1,
                duration: Some(50)
            }
        );
        assert!(matches!(
            spec.events[1],
            DynamicsEvent::Flap {
                rank: true,
                repeats: DEFAULT_FLAP_REPEATS,
                ..
            }
        ));
        assert!(matches!(
            spec.events[2],
            DynamicsEvent::Storm { rank: true, .. }
        ));
        assert!(
            "randfades@1:rank:2:10:5".parse::<DynamicsSpec>().is_err(),
            "randfades draws arcs, rank: is meaningless"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "fade@100",
            "fade@x:0>1",
            "fade@1:0-1",
            "flap@1:0>1:0:5",
            "flap@0:0>1:18446744073709551615:1:1",
            "flap@0:0>1:1:1:4000000000",
            "storm@1:5-2:10",
            "storm@1:0-3:0",
            "randfades@1:2:0:5",
            "randfades@1:4000000000:10:5",
            "blink@1:0>1",
            "fade@1:0>1:2:3:4",
        ] {
            assert!(bad.parse::<DynamicsSpec>().is_err(), "{bad:?} should fail");
        }
        // Counts that expand into transitions stop at a named limit.
        let err = "flap@0:0>1:1:1:1048577"
            .parse::<DynamicsSpec>()
            .unwrap_err();
        assert!(err.contains("limit of 1048576"), "{err}");
        assert!("randfades@1:1048576:10:5".parse::<DynamicsSpec>().is_ok());
    }

    #[test]
    fn stranded_policy_parses() {
        assert_eq!("reinject".parse(), Ok(StrandedPolicy::Reinject));
        assert_eq!("drop".parse(), Ok(StrandedPolicy::Drop));
        assert!("park".parse::<StrandedPolicy>().is_err());
        assert_eq!(StrandedPolicy::default(), StrandedPolicy::Reinject);
    }

    #[test]
    fn fade_with_duration_compiles_to_death_and_revival() {
        let g = b24();
        let spec: DynamicsSpec = "fade@100:0>1:0:50".parse().unwrap();
        let t = spec.compile(&g, 2);
        assert_eq!(t.transitions.len(), 2);
        assert_eq!(t.deaths, 1);
        assert_eq!(t.transitions[0].cycle, 100);
        assert_eq!(t.transitions[0].capacity, 0);
        assert_eq!(t.transitions[0].crossing, Crossing::Death);
        assert_eq!(t.transitions[1].cycle, 150);
        assert_eq!(t.transitions[1].capacity, 2);
        assert_eq!(t.transitions[1].crossing, Crossing::Revival);
        // Both name the same arc: 0's out-arc to 1.
        assert_eq!(t.transitions[0].arc, t.transitions[1].arc);
    }

    #[test]
    fn partial_fade_is_not_a_crossing_and_caps_clamp() {
        let g = b24();
        let spec: DynamicsSpec = "fade@10:0>1:9:5".parse().unwrap();
        let t = spec.compile(&g, 4);
        assert_eq!(t.deaths, 0);
        assert_eq!(t.transitions[0].capacity, 4, "clamped to wavelengths");
        assert_eq!(t.transitions[0].crossing, Crossing::None);
        assert_eq!(t.transitions[1].crossing, Crossing::None);
    }

    #[test]
    fn flap_alternates_death_and_revival() {
        let g = b24();
        let spec: DynamicsSpec = "flap@10:0>1:20:5:3".parse().unwrap();
        let t = spec.compile(&g, 1);
        assert_eq!(t.transitions.len(), 6);
        assert_eq!(t.deaths, 3);
        let cycles: Vec<u64> = t.transitions.iter().map(|tr| tr.cycle).collect();
        assert_eq!(cycles, vec![10, 15, 35, 40, 60, 65]);
        for (i, tr) in t.transitions.iter().enumerate() {
            let expect = if i % 2 == 0 {
                Crossing::Death
            } else {
                Crossing::Revival
            };
            assert_eq!(tr.crossing, expect, "transition {i}");
        }
    }

    #[test]
    fn storm_kills_every_out_arc_of_the_slice() {
        let g = b24();
        let spec: DynamicsSpec = "storm@500:0-3:250".parse().unwrap();
        let t = spec.compile(&g, 2);
        // Nodes 0..=3 in B(2,4) have 2 out-arcs each.
        assert_eq!(t.deaths, 8);
        assert_eq!(t.transitions.len(), 16);
        assert!(t
            .transitions
            .iter()
            .all(|tr| tr.cycle == 500 || tr.cycle == 750));
        // Transitions are cycle-ordered: all deaths before revivals.
        assert!(t.transitions[..8]
            .iter()
            .all(|tr| tr.crossing == Crossing::Death));
        assert!(t.transitions[8..]
            .iter()
            .all(|tr| tr.crossing == Crossing::Revival));
    }

    #[test]
    fn randfades_are_seed_stable_and_splittable() {
        let g = b24();
        let four: DynamicsSpec = "randfades@42:4:1000:100".parse().unwrap();
        let five: DynamicsSpec = "randfades@42:5:1000:100".parse().unwrap();
        let a = four.compile(&g, 2);
        let b = four.compile(&g, 2);
        assert_eq!(a, b, "same seed, same schedule");
        let wider = five.compile(&g, 2);
        // Seed-splitting: the first four fades' (arc, cycle) pairs are
        // unchanged by adding a fifth.
        let key = |t: &Timeline| {
            let mut ops: Vec<(u32, u64, u32)> = t
                .transitions
                .iter()
                .map(|tr| (tr.arc, tr.cycle, tr.capacity))
                .collect();
            ops.sort_unstable();
            ops
        };
        let a_ops = key(&a);
        let wider_ops = key(&wider);
        assert!(a_ops.iter().all(|op| wider_ops.contains(op)));
        assert_eq!(a.deaths, 4);
        assert_eq!(wider.deaths, 5);
    }

    #[test]
    fn unknown_link_is_a_loud_error() {
        let g = b24();
        let spec: DynamicsSpec = "fade@1:0>9".parse().unwrap();
        let err = spec.try_compile(&g, 1, None).unwrap_err();
        assert!(err.contains("not a fabric link"), "{err}");
        // The error teaches: it lists where node 0's links actually go
        // (B(2,4): 0 → 0 and 0 → 1).
        assert!(err.contains("out-links to [node 0, node 1]"), "{err}");
    }

    #[test]
    fn rank_addressing_translates_through_the_witness() {
        // A genuinely relabeled B(2,4): outer node u carries de Bruijn
        // rank rev(u) (4-bit reversal, an involution), so the outer
        // arc set is the de Bruijn arc set pushed through rev.
        let rev = |v: u32| v.reverse_bits() >> (32 - 4);
        let g = Digraph::from_fn(16, |u| {
            let r = rev(u);
            let mut out = [rev((2 * r) % 16), rev((2 * r + 1) % 16)];
            out.sort_unstable();
            out
        });
        let witness: Vec<u32> = (0u32..16).map(rev).collect();
        // De Bruijn arc rank 0 → rank 1 lives at outer rev(0) →
        // rev(1), i.e. 0 → 8.
        let spec: DynamicsSpec = "fade@100:rank:0>1:0:50".parse().unwrap();
        let t = spec.try_compile(&g, 2, Some(&witness)).expect("compiles");
        assert_eq!(t.deaths, 1);
        let arc_0_8 = g.arc_between(0, 8).expect("0→8 is a fabric link");
        assert_eq!(t.transitions[0].arc as usize, arc_0_8);
        // The outer address of the same beam names the same arc.
        let outer: DynamicsSpec = "fade@100:0>8:0:50".parse().unwrap();
        let t_outer = outer.try_compile(&g, 2, Some(&witness)).expect("compiles");
        assert_eq!(t_outer.transitions[0].arc as usize, arc_0_8);
        // rank: without a witness is a configuration error, not a
        // silent misroute.
        let err = spec.try_compile(&g, 2, None).unwrap_err();
        assert!(err.contains("rank:"), "{err}");
        // A rank pair that is no de Bruijn arc reports both
        // numberings plus the real out-links (rev(9) = 9).
        let bad: DynamicsSpec = "fade@1:rank:0>9".parse().unwrap();
        let err = bad.try_compile(&g, 2, Some(&witness)).unwrap_err();
        assert!(err.contains("rank link 0>9 = fabric link 0>9"), "{err}");
        assert!(err.contains("de Bruijn rank"), "{err}");
    }

    #[test]
    fn overlapping_events_classify_against_replayed_capacity() {
        let g = b24();
        // The second fade hits an already-dead link: not a new death.
        let spec: DynamicsSpec = "fade@10:0>1:0:100, fade@50:0>1".parse().unwrap();
        let t = spec.compile(&g, 2);
        assert_eq!(t.deaths, 1);
        assert_eq!(t.transitions[1].crossing, Crossing::None);
        // The restore at 110 revives (capacity was 0 since cycle 50).
        assert_eq!(t.transitions[2].crossing, Crossing::Revival);
    }
}
