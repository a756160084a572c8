//! The three OTIS-fabric workloads: their parameters, their set-up
//! (built the way `otis traffic` builds a run) and one simulated run.

use crate::trace::Tracer;
use otis_core::{
    DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, RelabeledRouter, Router,
    RoutingTable,
};
use otis_optics::{
    ContentionPolicy, MulticastGroup, QueueConfig, QueueingEngine, QueueingReport, StrandedPolicy,
    TrafficPattern, WorkloadSource,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    UniformTaildrop,
    DynamicsHotspot,
    Multicast,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::UniformTaildrop,
        WorkloadId::DynamicsHotspot,
        WorkloadId::Multicast,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::UniformTaildrop => "otis_uniform_taildrop_B_2_20",
            WorkloadId::DynamicsHotspot => "otis_dynamics_hotspot_B_2_14",
            WorkloadId::Multicast => "otis_multicast_B_2_10",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size is what the benchmark measures; tiny keeps every code path
/// of a workload at a size the smoke tests run in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Which router the fabric rides, as `otis traffic` builds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Dense `RoutingTable` over the H numbering (n ≤ 8192), the CLI's
    /// default at that size.
    DenseTable,
    /// `RelabeledRouter(DeBruijnRouter)` through the witness, as
    /// `otis traffic --arithmetic` routes (the CLI's default stays on
    /// the compressed table up to 2^20 nodes).
    Arithmetic,
    /// `RelabeledRouter(DynamicRoutingTable)` through the witness.
    Dynamic,
}

/// Every fabric here is binary: B(2, D) hosted on H(p, q, 2).
pub const DEGREE: u32 = 2;

/// Drain threads every engine is pinned to, explicitly rather than
/// automatically. One thread because at two, on a 2-vCPU host, run
/// times spread several times wider (see README.md).
pub const DRAIN_THREADS: usize = 1;

/// One workload's knobs at one scale.
#[derive(Debug, Clone)]
pub struct Params {
    /// `D` of B(2, D).
    pub diameter: u32,
    pub pattern: TrafficPattern,
    /// Unicast packets, or multicast groups.
    pub packets: usize,
    /// Offered load per node per cycle.
    pub load: f64,
    pub policy: ContentionPolicy,
    pub vcs: usize,
    pub buffers: usize,
    pub router: RouterKind,
    /// Nodes `0..=storm_hi` (de Bruijn ranks) fail together in the
    /// dynamics timeline; `None` for static workloads.
    pub storm_hi: Option<u64>,
}

impl Params {
    pub fn of(workload: WorkloadId, scale: Scale) -> Params {
        let tiny = scale == Scale::Tiny;
        match workload {
            WorkloadId::UniformTaildrop => Params {
                diameter: if tiny { 8 } else { 20 },
                pattern: TrafficPattern::Uniform,
                packets: if tiny { 4_000 } else { 200_000 },
                load: 0.05,
                policy: ContentionPolicy::TailDrop,
                vcs: 1,
                buffers: 16,
                router: RouterKind::Arithmetic,
                storm_hi: None,
            },
            WorkloadId::DynamicsHotspot => Params {
                diameter: if tiny { 8 } else { 14 },
                pattern: TrafficPattern::Hotspot,
                packets: if tiny { 6_000 } else { 400_000 },
                load: 0.2,
                policy: ContentionPolicy::TailDrop,
                vcs: 1,
                buffers: 16,
                router: RouterKind::Dynamic,
                storm_hi: Some(if tiny { 3 } else { 15 }),
            },
            WorkloadId::Multicast => Params {
                diameter: if tiny { 6 } else { 10 },
                pattern: TrafficPattern::Multicast { fanout: 8 },
                packets: if tiny { 300 } else { 16_000 },
                load: 0.015,
                policy: ContentionPolicy::Backpressure,
                vcs: 2,
                buffers: 16,
                router: RouterKind::DenseTable,
                storm_hi: None,
            },
        }
    }

    /// Node count `2^D`.
    pub fn node_count(&self) -> u64 {
        u64::from(DEGREE).pow(self.diameter)
    }

    /// The link-dynamics timeline for `seed`, in de Bruijn rank space:
    /// the link `n/4 → n/2` fades out, nodes `0..=storm_hi` lose every
    /// out-link together, and two seeded random fades land in the
    /// first forty cycles. Every link is back by cycle 60, inside the
    /// injection window, so each run hands the router back repaired to
    /// its pristine table and repeated runs stay byte-identical.
    pub fn dynamics_spec(&self, seed: u64) -> Option<String> {
        let storm_hi = self.storm_hi?;
        let n = self.node_count();
        Some(format!(
            "fade@10:rank:{}>{}:0:40,storm@20:rank:0-{storm_hi}:30,randfades@{seed}:2:40:20",
            n / 4,
            n / 2
        ))
    }
}

/// The router a fabric rides.
pub enum FabricRouter {
    Dense(RoutingTable),
    Arithmetic(RelabeledRouter<DeBruijnRouter>),
    Dynamic(Box<RelabeledRouter<DynamicRoutingTable>>),
}

impl FabricRouter {
    pub fn as_router(&self) -> &dyn Router {
        match self {
            FabricRouter::Dense(r) => r,
            FabricRouter::Arithmetic(r) => r,
            FabricRouter::Dynamic(r) => r.as_ref(),
        }
    }
}

/// The generated inputs of one run.
pub enum Load {
    Unicast(WorkloadSource),
    Groups(Vec<MulticastGroup>),
}

/// Everything set-up produces: the fabric, its router and engine, and
/// the generated load.
pub struct Fabric {
    pub params: Params,
    /// The layout's isomorphism witness, `witness[h_node]` = de Bruijn
    /// rank.
    pub witness: Vec<u32>,
    pub router: FabricRouter,
    pub engine: QueueingEngine,
    pub load: Load,
    /// Offered packets (or groups) per cycle, fabric-wide.
    pub offered: f64,
    pub hot: Option<u64>,
}

/// Build a workload's fabric, router, engine, timeline and load from
/// `seed`, recording one span per layer call into `tracer`.
pub fn set_up(params: &Params, seed: u64, tracer: &mut Tracer) -> Result<Fabric, String> {
    tracer.span("bench.setup", |t| {
        let (d, dd) = (DEGREE, params.diameter);
        let spec = t
            .span("layout.minimize_lenses", |_| {
                otis_layout::minimize_lenses(d, dd)
            })
            .ok_or_else(|| format!("no de Bruijn OTIS layout for B({d},{dd})"))?;
        let h = t.span("layout.h_digraph", |_| spec.h_digraph());
        let witness = t
            .span("layout.witness", |_| spec.debruijn_witness())
            .map_err(|e| format!("layout is not de Bruijn: {e}"))?;
        let router = match params.router {
            RouterKind::DenseTable => t.span("core.router.table_build", |_| {
                RoutingTable::try_from_family(&h)
                    .map(FabricRouter::Dense)
                    .map_err(|e| e.to_string())
            })?,
            RouterKind::Arithmetic => t.span("core.router.relabel_build", |_| {
                FabricRouter::Arithmetic(RelabeledRouter::new(
                    DeBruijnRouter::new(DeBruijn::new(d, dd)),
                    witness.clone(),
                ))
            }),
            RouterKind::Dynamic => t.span("core.dynamic.table_build", |_| {
                FabricRouter::Dynamic(Box::new(RelabeledRouter::new(
                    DynamicRoutingTable::new(&DeBruijn::new(d, dd).digraph()),
                    witness.clone(),
                )))
            }),
        };
        let config = QueueConfig {
            buffers: params.buffers,
            vcs: params.vcs,
            policy: params.policy,
            drain_threads: DRAIN_THREADS,
            ..QueueConfig::default()
        };
        let mut engine = t.span("optics.queueing.engine_new", |_| {
            QueueingEngine::from_family(&h, config)
        });
        if let Some(raw) = params.dynamics_spec(seed) {
            t.span("optics.queueing.dynamics_compile", |_| {
                engine.try_set_dynamics_relabeled(
                    raw.parse()?,
                    StrandedPolicy::Reinject,
                    Some(&witness),
                )
            })?;
        }
        let n = h.node_count();
        let load = t.span("optics.workload.generate", |_| {
            if params.pattern.is_multicast() {
                Load::Groups(otis_optics::traffic::generate_multicast_workload(
                    params.pattern,
                    n,
                    u64::from(d),
                    params.packets,
                    seed,
                ))
            } else {
                Load::Unicast(WorkloadSource::new(
                    params.pattern,
                    n,
                    u64::from(d),
                    params.packets,
                    seed,
                ))
            }
        });
        Ok(Fabric {
            params: params.clone(),
            witness,
            router,
            engine,
            load,
            offered: params.load * n as f64,
            hot: params.pattern.hot_node(n),
        })
    })
}

impl Fabric {
    /// One simulated run through `router` (the fabric's own router, or
    /// a wrapper around it).
    pub fn run(&self, router: &dyn Router) -> QueueingReport {
        match &self.load {
            Load::Unicast(source) => {
                self.engine
                    .run_streamed_classified(router, source, self.offered, self.hot)
            }
            Load::Groups(groups) => self.engine.run_multicast(router, groups, self.offered),
        }
    }
}

/// Packets (multicast: destination leaves) a run resolved.
pub fn resolved(report: &QueueingReport) -> usize {
    report.delivered + report.dropped()
}
