//! `otis` — command-line front-end for the de Bruijn / OTIS library.
//!
//! ```text
//! otis design <d> <D>                    lens-minimal OTIS layout of B(d,D)
//! otis search <d> <D> <n_min> <n_max>    Table-1 style degree–diameter rows
//! otis verify <d> <p'> <q'>              Corollary 4.2/4.5 layout check (+ witness)
//! otis route <d> <D> <from> <to>         shortest path between de Bruijn words
//! otis traffic <d> <D> <pattern> <n>     batched traffic over the simulated fabric
//! otis sequence <d> <k>                  a de Bruijn sequence dB(d,k)
//! otis dot <family> <d> <D>              DOT drawing (family: debruijn|kautz|ii|rrk)
//! ```
//!
//! Argument parsing is deliberately bare std (no CLI dependency); each
//! subcommand is a thin shell over the library crates.

#![forbid(unsafe_code)]

use otis_core::{routing, DeBruijn, DigraphFamily, ImaseItoh, Kautz, Rrk};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("design") => cmd_design(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("traffic") => cmd_traffic(&args[1..]),
        Some("sequence") => cmd_sequence(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
otis — de Bruijn isomorphisms and free-space optical networks (IPDPS 2000)

USAGE:
  otis design <d> <D>                  lens-minimal OTIS layout of B(d,D)
  otis search <d> <D> <n_min> <n_max>  degree-diameter search rows (Table 1)
  otis verify <d> <p'> <q'>            layout criterion + witness verification
  otis route <d> <D> <from> <to>       shortest de Bruijn path between words
  otis traffic <d> <D> <pattern> <n>   route n packets of a synthetic pattern
                                       (uniform|permutation|transpose|bitrev|
                                        hotspot|alltoall|broadcast|multicast:<k>|
                                        hotcast:<k>) over the lens-minimal
                                       OTIS fabric of B(d,D). The one-to-many
                                       patterns route n delivery trees (broadcast
                                       to all; multicast:<k> to k random leaves;
                                       hotcast:<k> rooted at the hot node n/2)
                                       and report the multicast forwarding index
                                       (max trees per link, each tree arc
                                       charged once) against its unicast
                                       equivalent.
    --buffers <B>      queueing: FIFO slots per virtual channel (default 16)
    --wavelengths <W>  queueing: channels drained per link per cycle (default 1)
    --vcs <V>          queueing: dateline virtual channels per link (default 1;
                       2+ makes backpressure deadlock-free by construction)
    --adaptive         route contention-aware (least-queued candidate hop,
                       scored per VC class when --vcs > 1)
    --arithmetic       route with the tableless de Bruijn shift router (no
                       per-node storage; chosen automatically past the
                       2^20-node compressed-table cap, and at B(2,20)
                       itself skips the minute-scale table build)
    --sweep            sweep offered load and report saturation throughput
    --load <L>         offered load, packets/node/cycle (default 0.2)
    --policy <P>       full-buffer behavior: taildrop (default) | backpressure
    --dynamics <spec>  queueing: replay a link-dynamics timeline — fades
                       (fade@C:S>D[:CAP[:DUR]]), flapping beams
                       (flap@C:S>D:UP:DOWN[:N]), correlated failure storms
                       (storm@C:LO-HI:DUR) and seed-split random fades
                       (randfades@SEED:N:WINDOW:DUR), comma-separated.
                       Links are named in the fabric's own numbering; a
                       rank: marker after the cycle (fade@C:rank:S>D,
                       storm@C:rank:LO-HI:DUR) names de Bruijn ranks
                       instead, translated through the layout's
                       isomorphism witness. Routing repairs online:
                       each link death/revival patches only the
                       next-hop table runs whose min-first-hop changed,
                       republishes an immutable route snapshot workers
                       read lock-free, and the report carries
                       time-to-reroute, per-event repair cost, and
                       snapshot publication cost.
    --stranded <S>     queueing: what a link death does to packets queued
                       on the dead beam: reinject (default; re-place via
                       the repaired routing) | drop
    --threads <T>      queueing: drain-phase worker threads (default auto;
                       results are byte-identical at every thread count)
                       any of these flags switches from the batched static
                       engine to the cycle-accurate queueing simulator;
                       hotspot queueing runs also report hot-vs-background
                       per-class statistics. Fabrics past the 8192-node dense
                       table ride the interval-compressed de Bruijn table
                       through the paper's isomorphism witness, and unicast
                       workloads stream chunk by chunk, so B(2,20)
                       (1,048,576 nodes) runs end to end at 10M+ packets.
  otis sequence <d> <k>                print a de Bruijn sequence dB(d,k)
  otis dot <family> <d> <D>            DOT drawing (debruijn|kautz|ii|rrk)
";

fn parse<T: std::str::FromStr>(args: &[String], index: usize, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = args
        .get(index)
        .ok_or_else(|| format!("missing argument <{name}>"))?;
    raw.parse()
        .map_err(|e| format!("bad <{name}> {raw:?}: {e}"))
}

fn cmd_design(args: &[String]) -> Result<(), String> {
    let d: u32 = parse(args, 0, "d")?;
    let dd: u32 = parse(args, 1, "D")?;
    if d < 2 {
        return Err("d must be at least 2".into());
    }
    let best = otis_layout::minimize_lenses(d, dd).expect("a layout always exists");
    println!("B({d},{dd}): {} nodes of degree {d}", best.node_count());
    println!(
        "lens-minimal layout: OTIS({}, {}) = (d^{}, d^{})",
        best.p(),
        best.q(),
        best.p_prime(),
        best.q_prime()
    );
    println!(
        "lenses: {}  (prior-art II layout: {})",
        best.lens_count(),
        otis_layout::ii_layout_lens_count(d, best.node_count())
    );
    let bench =
        otis_optics::geometry::Bench::with_defaults(otis_optics::Otis::new(best.p(), best.q()));
    println!(
        "bench: {:.0} mm long, lens apertures {:.2} / {:.2} mm",
        bench.bench_length(),
        bench.lens_apertures().0,
        bench.lens_apertures().1
    );
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let d: u32 = parse(args, 0, "d")?;
    let dd: u32 = parse(args, 1, "D")?;
    let n_min: u64 = parse(args, 2, "n_min")?;
    let n_max: u64 = parse(args, 3, "n_max")?;
    if n_min < 1 || n_min > n_max {
        return Err("need 1 <= n_min <= n_max".into());
    }
    for row in otis_layout::degree_diameter_search(d, dd, n_min, n_max) {
        let pairs: Vec<String> = row
            .pairs
            .iter()
            .map(|&(p, q)| format!("({p},{q})"))
            .collect();
        println!("n = {:>6}: {}", row.n, pairs.join(" "));
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let d: u32 = parse(args, 0, "d")?;
    let pp: u32 = parse(args, 1, "p'")?;
    let qq: u32 = parse(args, 2, "q'")?;
    if d < 2 || pp < 1 || qq < 1 {
        return Err("need d >= 2 and p', q' >= 1".into());
    }
    let spec = otis_layout::LayoutSpec::new(d, pp, qq);
    println!(
        "H({}, {}, {d}) — {} nodes, target diameter {}",
        spec.p(),
        spec.q(),
        spec.node_count(),
        spec.diameter()
    );
    println!("f_{{p',q'}} = {}", spec.permutation());
    if !spec.is_debruijn() {
        println!(
            "NOT a de Bruijn layout: f is not cyclic (cycle type {:?})",
            spec.permutation().cycle_type()
        );
        return Ok(());
    }
    println!("de Bruijn layout: f is cyclic (O(D) check, Corollary 4.5)");
    if spec.node_count() <= 1 << 16 {
        let witness = spec.debruijn_witness().expect("cyclic");
        let b = DeBruijn::new(d, spec.diameter()).digraph();
        otis_digraph::iso::check_witness(&spec.h_digraph().digraph(), &b, &witness)
            .map_err(|e| format!("witness verification failed: {e}"))?;
        println!("witness verified on all {} nodes", spec.node_count());
    } else {
        println!("witness check skipped (n too large to materialize)");
    }
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let d: u32 = parse(args, 0, "d")?;
    let dd: u32 = parse(args, 1, "D")?;
    let from: otis_words::Word = parse(args, 2, "from")?;
    let to: otis_words::Word = parse(args, 3, "to")?;
    let b = DeBruijn::new(d, dd);
    let space = *b.space();
    if !space.contains(&from) || !space.contains(&to) {
        return Err(format!("words must be length {dd} over Z_{d}"));
    }
    let (x, y) = (space.rank(&from), space.rank(&to));
    let path = routing::shortest_path(&b, x, y);
    println!("distance {} in B({d},{dd}):", path.len() - 1);
    for rank in path {
        println!("  {}", space.unrank(rank));
    }
    Ok(())
}

/// Queueing knobs parsed from `otis traffic` flags. Presence of any
/// flag switches from the batched static engine to the cycle-accurate
/// queueing simulator.
struct TrafficOptions {
    queueing: bool,
    adaptive: bool,
    /// Route arithmetically (the tableless de Bruijn shift router)
    /// instead of through a precomputed table. Chosen automatically
    /// past the compressed-table cap; at the cap itself (B(2,20))
    /// the flag skips a minute-scale million-row table build.
    arithmetic: bool,
    sweep: bool,
    load_per_node: f64,
    /// True iff `--load` was given explicitly (a sweep then includes
    /// that point alongside its default grid).
    load_set: bool,
    /// Link-dynamics timeline to replay during the run, if any.
    dynamics: Option<otis_optics::DynamicsSpec>,
    /// The layout's isomorphism witness (`witness[h_node]` = de
    /// Bruijn rank), resolved by `cmd_traffic` when a dynamics
    /// timeline is armed so `rank:`-addressed events translate to
    /// fabric links.
    rank_witness: Option<Vec<u32>>,
    /// What a link death does to packets queued on the dead beam.
    stranded: otis_optics::StrandedPolicy,
    /// True iff `--stranded` was given explicitly (meaningless, and
    /// rejected, without `--dynamics`).
    stranded_set: bool,
    config: otis_optics::QueueConfig,
}

/// Split `args` into positionals and [`TrafficOptions`].
fn parse_traffic_args(args: &[String]) -> Result<(Vec<String>, TrafficOptions), String> {
    let mut positionals = Vec::new();
    let mut options = TrafficOptions {
        queueing: false,
        adaptive: false,
        arithmetic: false,
        sweep: false,
        load_per_node: 0.2,
        load_set: false,
        dynamics: None,
        rank_witness: None,
        stranded: otis_optics::StrandedPolicy::default(),
        stranded_set: false,
        config: otis_optics::QueueConfig::default(),
    };
    let mut iter = args.iter();
    fn value<'a>(
        flag: &str,
        iter: &mut std::slice::Iter<'a, String>,
    ) -> Result<&'a String, String> {
        iter.next()
            .ok_or_else(|| format!("flag {flag} needs a value"))
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--buffers" => {
                options.config.buffers = value("--buffers", &mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --buffers: {e}"))?;
                if options.config.buffers == 0 {
                    return Err("--buffers must be at least 1".into());
                }
                options.queueing = true;
            }
            "--wavelengths" => {
                options.config.wavelengths = value("--wavelengths", &mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --wavelengths: {e}"))?;
                if options.config.wavelengths == 0 {
                    return Err("--wavelengths must be at least 1".into());
                }
                options.queueing = true;
            }
            "--vcs" => {
                options.config.vcs = value("--vcs", &mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --vcs: {e}"))?;
                if !(1..=255).contains(&options.config.vcs) {
                    return Err("--vcs must be 1..=255".into());
                }
                options.queueing = true;
            }
            "--load" => {
                options.load_per_node = value("--load", &mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --load: {e}"))?;
                // Finiteness first, so NaN cannot slip past the sign check.
                if !options.load_per_node.is_finite() || options.load_per_node <= 0.0 {
                    return Err("--load must be a positive finite number".into());
                }
                options.load_set = true;
                options.queueing = true;
            }
            "--policy" => {
                options.config.policy = value("--policy", &mut iter)?.parse()?;
                options.queueing = true;
            }
            "--dynamics" => {
                options.dynamics = Some(value("--dynamics", &mut iter)?.parse()?);
                options.queueing = true;
            }
            "--stranded" => {
                options.stranded = value("--stranded", &mut iter)?.parse()?;
                options.stranded_set = true;
                options.queueing = true;
            }
            "--threads" => {
                options.config.drain_threads = value("--threads", &mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                options.queueing = true;
            }
            "--adaptive" => {
                options.adaptive = true;
                options.queueing = true;
            }
            "--arithmetic" => {
                options.arithmetic = true;
            }
            "--sweep" => {
                options.sweep = true;
                options.queueing = true;
            }
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown flag {other:?} (want --buffers|--wavelengths|--vcs|--adaptive|--arithmetic|--sweep|--load|--policy|--dynamics|--stranded|--threads)"
                ));
            }
            _ => positionals.push(arg.clone()),
        }
    }
    Ok((positionals, options))
}

fn cmd_traffic(args: &[String]) -> Result<(), String> {
    let (positionals, mut options) = parse_traffic_args(args)?;
    let d: u32 = parse(&positionals, 0, "d")?;
    let dd: u32 = parse(&positionals, 1, "D")?;
    let pattern: otis_optics::TrafficPattern = parse(&positionals, 2, "pattern")?;
    let packets: usize = parse(&positionals, 3, "packets")?;
    if d < 2 {
        return Err("d must be at least 2".into());
    }
    if dd < 1 {
        return Err("D must be at least 1".into());
    }
    let n = otis_util::digits::checked_pow(d as u64, dd)
        .ok_or_else(|| format!("d^D overflows u64 (d = {d}, D = {dd})"))?;

    // Host the fabric on its lens-minimal OTIS layout.
    let spec = otis_layout::minimize_lenses(d, dd)
        .ok_or_else(|| format!("no de Bruijn OTIS layout found for B({d},{dd})"))?;
    let h = spec.h_digraph();
    println!(
        "fabric: {} ≅ B({d},{dd}) — {n} nodes, degree {d}, {} lenses",
        h.name(),
        spec.lens_count()
    );

    if pattern.is_multicast() && options.sweep {
        return Err("--sweep is not supported for one-to-many patterns".into());
    }
    if pattern.is_multicast() && options.adaptive {
        return Err(
            "--adaptive has no effect on one-to-many patterns: delivery trees are prebuilt \
             from shortest-path next hops"
                .into(),
        );
    }
    if options.stranded_set && options.dynamics.is_none() {
        return Err(
            "--stranded only matters under --dynamics (no link ever dies without one)".into(),
        );
    }
    if options.dynamics.is_some() {
        if pattern.is_multicast() {
            return Err(
                "--dynamics applies to unicast queueing runs only: multicast delivery trees \
                 are prebuilt and cannot reroute mid-flight"
                    .into(),
            );
        }
        if options.sweep {
            return Err(
                "--dynamics and --sweep are mutually exclusive: pick one load point so the \
                 timeline replays against a single run"
                    .into(),
            );
        }
        if options.arithmetic {
            return Err(
                "--dynamics needs the repairable next-hop table for online reroute; drop \
                 --arithmetic"
                    .into(),
            );
        }
        if n > otis_digraph::compressed::CompressedNextHopTable::MAX_NODES as u64 {
            return Err(format!(
                "--dynamics needs the repairable next-hop table, capped at {} nodes (n = {n})",
                otis_digraph::compressed::CompressedNextHopTable::MAX_NODES
            ));
        }
    }

    let build_start = std::time::Instant::now();
    let workload = if pattern.is_multicast() {
        Load::Groups(otis_optics::traffic::generate_multicast_workload(
            pattern, n, d as u64, packets, 0x0715,
        ))
    } else {
        // Unicast workloads stream: pairs are regenerated chunk by
        // chunk inside the engines, so a ten-million-packet run never
        // materializes its pair vector.
        Load::Unicast(otis_optics::WorkloadSource::new(
            pattern, n, d as u64, packets, 0x0715,
        ))
    };

    // Up to the dense-table cap, precompute the quadratic table over
    // the OTIS H-numbering directly. Past it — B(2,14) through
    // B(2,20) — the fabric rides the *interval-compressed* de Bruijn
    // table (runs derived arithmetically, no BFS) through the paper's
    // isomorphism witness: the H fabric is routed in de Bruijn rank
    // space, the witness evaluated both ways from a few byte tables
    // (one table lookup per direction when it does not factor). Past
    // the compressed cap (or under --arithmetic anywhere), the
    // tableless de Bruijn shift router takes over — no per-node
    // routing storage at all, any d^D.
    if options.dynamics.is_some() {
        // Link dynamics route through the repairable next-hop table,
        // built in de Bruijn rank space — where the shift rows come
        // from digit arithmetic instead of one BFS per source, and
        // compress into a handful of CSR runs — and carried to the H
        // numbering through the paper's isomorphism witness. The
        // engine feeds each death/revival to the online repair (the
        // relabeling translates endpoints to rank space), which
        // patches only the per-source runs whose min-first-hop
        // changed, then republishes the immutable snapshot workers
        // route by. The witness also resolves `rank:`-addressed
        // timeline events.
        let witness = spec
            .debruijn_witness()
            .map_err(|e| format!("layout is not de Bruijn: {e}"))?;
        options.rank_witness = Some(witness.clone());
        let router = otis_core::RelabeledRouter::new(
            otis_core::DynamicRoutingTable::new(&DeBruijn::new(d, dd).digraph()),
            witness,
        );
        return run_traffic_over(h, router, &workload, pattern, options, build_start);
    }
    if options.arithmetic || n > otis_digraph::compressed::CompressedNextHopTable::MAX_NODES as u64
    {
        let witness = spec
            .debruijn_witness()
            .map_err(|e| format!("layout is not de Bruijn: {e}"))?;
        let router = otis_core::RelabeledRouter::new(
            otis_core::DeBruijnRouter::new(DeBruijn::new(d, dd)),
            witness,
        );
        run_traffic_over(h, router, &workload, pattern, options, build_start)
    } else if n <= otis_digraph::bfs::NextHopTable::MAX_NODES as u64 {
        let router = otis_core::RoutingTable::try_from_family(&h).map_err(|e| e.to_string())?;
        run_traffic_over(h, router, &workload, pattern, options, build_start)
    } else {
        let witness = spec
            .debruijn_witness()
            .map_err(|e| format!("layout is not de Bruijn: {e}"))?;
        let b = DeBruijn::new(d, dd);
        let table = otis_core::RoutingTable::try_from_debruijn(&b).map_err(|e| e.to_string())?;
        let router = otis_core::RelabeledRouter::new(table, witness);
        run_traffic_over(h, router, &workload, pattern, options, build_start)
    }
}

/// A generated workload: a streamed unicast source or one-to-many
/// groups.
enum Load {
    Unicast(otis_optics::WorkloadSource),
    Groups(Vec<otis_optics::MulticastGroup>),
}

/// Traffic over one fabric with whichever router the scale picked:
/// queueing simulation when any queueing flag was given, the batched
/// static engine otherwise; unicast pairs or multicast trees per the
/// pattern.
fn run_traffic_over<R: otis_core::Router>(
    h: otis_optics::HDigraph,
    router: R,
    load: &Load,
    pattern: otis_optics::TrafficPattern,
    options: TrafficOptions,
    build_start: std::time::Instant,
) -> Result<(), String> {
    let source = match load {
        Load::Groups(groups) => {
            return if options.queueing {
                run_queueing_multicast(&h, router, groups, pattern, options, build_start)
            } else {
                run_batched_multicast(&h, router, groups, pattern, options, build_start)
            };
        }
        Load::Unicast(source) => source,
    };
    if options.queueing {
        return run_queueing_traffic(&h, router, source, pattern, options, build_start);
    }

    let sim = otis_optics::simulator::OtisSimulator::with_defaults(h);
    let engine = otis_optics::TrafficEngine::new(&sim);
    println!(
        "router: {} (table + physics precomputed in {:.1} ms)",
        otis_core::Router::name(&router),
        build_start.elapsed().as_secs_f64() * 1e3
    );

    let run_start = std::time::Instant::now();
    let report = engine.run(&router, source);
    let elapsed = run_start.elapsed();

    println!(
        "routed {} {pattern} packets in {:.1} ms ({:.2} Mpkt/s)",
        report.packets,
        elapsed.as_secs_f64() * 1e3,
        report.packets as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "  delivered         : {} ({:.2}%)",
        report.delivered,
        report.delivery_rate() * 100.0
    );
    println!(
        "  hops              : mean {:.2}, max {}",
        report.mean_hops(),
        report.max_hops
    );
    println!(
        "  link congestion   : max {} (empirical forwarding index), mean {:.1}",
        report.max_link_load,
        report.mean_link_load()
    );
    println!(
        "  latency           : mean {:.0} ps, p50 {:.0} ps, p99 {:.0} ps, max {:.0} ps",
        report.latency_mean_ps, report.latency_p50_ps, report.latency_p99_ps, report.latency_max_ps
    );
    println!(
        "  energy            : {:.1} pJ/packet, {:.2} nJ total",
        report.mean_energy_pj(),
        report.energy_total_pj / 1e3
    );
    println!(
        "  link budgets      : {}",
        if report.all_budgets_close {
            "all close"
        } else {
            "SOME DO NOT CLOSE"
        }
    );
    Ok(())
}

/// The queueing side of `otis traffic`: cycle-accurate simulation
/// with finite buffers and wavelength channels, optionally adaptive,
/// optionally sweeping offered load for the saturation curve.
fn run_queueing_traffic<R: otis_core::Router>(
    h: &otis_optics::HDigraph,
    router: R,
    source: &otis_optics::WorkloadSource,
    pattern: otis_optics::TrafficPattern,
    options: TrafficOptions,
    build_start: std::time::Instant,
) -> Result<(), String> {
    use otis_core::Router;

    let n = otis_core::DigraphFamily::node_count(h);
    let mut engine = otis_optics::QueueingEngine::from_family(h, options.config);
    if let Some(spec) = options.dynamics.clone() {
        engine.try_set_dynamics_relabeled(
            spec,
            options.stranded,
            options.rank_witness.as_deref(),
        )?;
    }
    let (oblivious, adaptive);
    let routed: &dyn Router = if options.adaptive {
        adaptive = otis_core::AdaptiveRouter::new(router, engine.occupancy())
            .with_dateline(engine.dateline());
        &adaptive
    } else {
        oblivious = router;
        &oblivious
    };
    print_queueing_header(&engine, &options, &routed.name(), build_start);

    if options.dynamics.is_some() {
        println!(
            "dynamics: timeline armed — stranded packets {}",
            match options.stranded {
                otis_optics::StrandedPolicy::Reinject => "reinject through the repaired routing",
                otis_optics::StrandedPolicy::Drop =>
                    "drop (no electronic buffer holds a beamless packet)",
            }
        );
    }

    if options.sweep {
        let mut loads = vec![0.02, 0.05, 0.1, 0.2, 0.4, 0.8];
        if options.load_set && !loads.contains(&options.load_per_node) {
            loads.push(options.load_per_node);
            loads.sort_by(|a, b| a.total_cmp(b));
        }
        let sweep = engine.saturation_sweep(routed, source, &loads);
        println!("offered-load sweep ({pattern}, packets/node/cycle):");
        println!("  offered  delivered  drop%   p99 wait");
        for point in &sweep.points {
            println!(
                "  {:>7.3}  {:>9.4}  {:>5.1}  {:>6} cy{}",
                point.offered_per_node,
                point.delivered_per_node,
                point.drop_rate * 100.0,
                point.wait_p99_cycles,
                if point.deadlocked { "  DEADLOCK" } else { "" }
            );
        }
        println!(
            "saturation throughput ≈ {:.4} packets/node/cycle",
            sweep.saturation_throughput_per_node()
        );
        return Ok(());
    }

    let offered = options.load_per_node * n as f64;
    let run_start = std::time::Instant::now();
    let report = engine.run_streamed_classified(routed, source, offered, pattern.hot_node(n));
    let elapsed = run_start.elapsed();
    check_conservation(&report)?;
    println!(
        "simulated {} {pattern} packets over {} cycles in {:.1} ms (offered {:.3}/node/cycle)",
        report.injected,
        report.cycles,
        elapsed.as_secs_f64() * 1e3,
        options.load_per_node
    );
    print_queueing_body(&report, &options, "packets");
    Ok(())
}

/// The header both queueing paths print: the router, the buffer and
/// channel configuration, and the dateline wrap set.
fn print_queueing_header(
    engine: &otis_optics::QueueingEngine,
    options: &TrafficOptions,
    router: &str,
    build_start: std::time::Instant,
) {
    println!(
        "router: {router} (built in {:.1} ms)",
        build_start.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "queueing: {} virtual channel(s) × {} buffers, {} wavelength(s) per link, {} on full buffers",
        options.config.vcs,
        options.config.buffers,
        options.config.wavelengths,
        match options.config.policy {
            otis_optics::ContentionPolicy::Backpressure => "backpressure",
            otis_optics::ContentionPolicy::TailDrop => "tail-drop",
        }
    );
    if options.config.vcs >= 2 {
        println!(
            "dateline: {} wrap arcs of {}{}",
            engine.dateline().wrap_arc_count(),
            engine.link_count(),
            match options.config.policy {
                otis_optics::ContentionPolicy::Backpressure =>
                    " — backpressure is deadlock-free by construction",
                otis_optics::ContentionPolicy::TailDrop => "",
            }
        );
    }
}

/// Refuse a report that breaks conservation (in packets or leaves) or
/// any dynamics counter law, so a queueing run exits non-zero on an
/// engine bug instead of printing it.
fn check_conservation(report: &otis_optics::QueueingReport) -> Result<(), String> {
    if report.dynamics_consistent() {
        return Ok(());
    }
    Err(format!(
        "conservation violated: {} injected ≠ {} delivered + {} dropped + {} in flight \
         (or a dynamics counter broke its law) — this is an engine bug",
        report.injected,
        report.delivered,
        report.dropped(),
        report.in_flight
    ))
}

/// The shared body of a queueing report printout; `unit` names what
/// the delivery counters count ("packets" or "leaves").
fn print_queueing_body(report: &otis_optics::QueueingReport, options: &TrafficOptions, unit: &str) {
    println!(
        "  delivered         : {} ({:.2}%), throughput {:.2} {unit}/cycle",
        report.delivered,
        report.delivery_rate() * 100.0,
        report.throughput_per_cycle()
    );
    println!(
        "  dropped           : {} full-buffer, {} unroutable, {} hop-budget",
        report.dropped_full, report.dropped_unroutable, report.dropped_ttl
    );
    if report.in_flight > 0 || report.deadlocked {
        println!(
            "  in flight         : {}{}",
            report.in_flight,
            if report.deadlocked {
                "  (backpressure DEADLOCK)"
            } else {
                "  (cycle horizon reached)"
            }
        );
    }
    println!(
        "  hops              : mean {:.2}, max {}",
        report.mean_hops(),
        report.max_hops
    );
    println!(
        "  queueing delay    : mean {:.1} cy, p50 {} cy, p99 {} cy, max {} cy",
        report.wait_mean_cycles,
        report.wait_p50_cycles,
        report.wait_p99_cycles,
        report.wait_max_cycles
    );
    println!(
        "  peak occupancy    : {} of {} buffer slots on the fullest link (per class: {}){}",
        report.max_peak_occupancy,
        options.config.buffers,
        report
            .vc_peak_occupancy
            .iter()
            .map(|peak| peak.to_string())
            .collect::<Vec<_>>()
            .join(" / "),
        if report.max_peak_occupancy as usize > options.config.buffers {
            "  [top class stretched by dateline relief]"
        } else {
            ""
        }
    );
    if report.vcs >= 2 {
        println!(
            "  dateline          : {} promotions, {} relief moves (deadlocks prevented, not detected)",
            report.dateline_promotions, report.dateline_relief
        );
    }
    if report.source_stall_cycles > 0 {
        println!(
            "  source stalls     : {} source-cycles (per-source queues: only congested sources stall)",
            report.source_stall_cycles
        );
    }
    if report.capacity_events > 0 {
        println!(
            "  link dynamics     : {} deaths, {} revivals, {} capacity transitions applied",
            report.link_down_events, report.link_up_events, report.capacity_events
        );
        if !report.time_to_reroute_cycles.is_empty() {
            let mut ttr = report.time_to_reroute_cycles.clone();
            ttr.sort_unstable();
            print!(
                "  time to reroute   : p50 {} cy, max {} cy ({} of {} deaths rerouted",
                ttr[ttr.len() / 2],
                ttr[ttr.len() - 1],
                ttr.len(),
                report.link_down_events,
            );
            if report.reroute_unresolved > 0 {
                print!("; {} unresolved despite demand", report.reroute_unresolved);
            }
            if report.reroute_no_demand > 0 {
                print!("; {} beams no packet wanted", report.reroute_no_demand);
            }
            println!(")");
        } else if report.link_down_events > 0 {
            println!(
                "  time to reroute   : none resolved — {} deaths with unmet demand, {} beams \
                 no packet wanted",
                report.reroute_unresolved, report.reroute_no_demand
            );
        }
        if report.stranded_reinjected > 0 || report.dropped_stranded > 0 {
            println!(
                "  stranded packets  : {} reinjected, {} dropped",
                report.stranded_reinjected, report.dropped_stranded
            );
        }
        if report.table_runs_total > 0 {
            let worst = report
                .repair_runs_patched
                .iter()
                .max()
                .copied()
                .unwrap_or(0);
            println!(
                "  online repair     : {} events, {} next-hop rows rewritten, worst event \
                 rewrote {} runs (healthy table holds {}; a full rebuild rewrites every row)",
                report.repair_runs_patched.len(),
                report.repair_rows_patched,
                worst,
                report.table_runs_total
            );
            if report.snapshot_publications > 0 {
                println!(
                    "  route snapshots   : {} published, {} compressed runs rebuilt across \
                     them — workers route lock-free between publications",
                    report.snapshot_publications, report.snapshot_runs_published
                );
            }
        }
    }
    if let Some(stats) = &report.class_stats {
        let show = |label: &str, class: &otis_optics::ClassStats| {
            println!(
                "  {label:<17} : {} injected, {:.1}% delivered, delay p50 {} cy, p99 {} cy",
                class.injected,
                class.delivery_rate() * 100.0,
                class.wait_p50_cycles,
                class.wait_p99_cycles
            );
        };
        show("hot class", &stats.hot);
        show("background class", &stats.background);
    }
}

/// The queueing side of a one-to-many `otis traffic` run: delivery
/// trees with in-fabric replication through the cycle-accurate
/// engine, reported in destination-leaf units plus the multicast
/// forwarding index.
fn run_queueing_multicast<R: otis_core::Router>(
    h: &otis_optics::HDigraph,
    router: R,
    groups: &[otis_optics::MulticastGroup],
    pattern: otis_optics::TrafficPattern,
    options: TrafficOptions,
    build_start: std::time::Instant,
) -> Result<(), String> {
    let n = otis_core::DigraphFamily::node_count(h);
    let engine = otis_optics::QueueingEngine::from_family(h, options.config);
    print_queueing_header(
        &engine,
        &options,
        &otis_core::Router::name(&router),
        build_start,
    );
    let offered = options.load_per_node * n as f64;
    let run_start = std::time::Instant::now();
    let report = engine.run_multicast(&router, groups, offered);
    let elapsed = run_start.elapsed();
    check_conservation(&report)?;
    println!(
        "simulated {} {pattern} trees ({} destination leaves) over {} cycles in {:.1} ms \
         (offered {:.3} trees/node/cycle)",
        report.multicast_groups,
        report.injected,
        report.cycles,
        elapsed.as_secs_f64() * 1e3,
        options.load_per_node
    );
    println!(
        "  multicast         : forwarding index {} (max trees per link, each tree arc charged \
         once), {} replicated copies",
        report.multicast_forwarding_index, report.replicated_copies
    );
    print_queueing_body(&report, &options, "leaves");
    Ok(())
}

/// The batched side of a one-to-many `otis traffic` run: static tree
/// routing, multicast versus unicast forwarding indices, per-leaf
/// latency and per-arc energy.
fn run_batched_multicast<R: otis_core::Router>(
    h: &otis_optics::HDigraph,
    router: R,
    groups: &[otis_optics::MulticastGroup],
    pattern: otis_optics::TrafficPattern,
    _options: TrafficOptions,
    build_start: std::time::Instant,
) -> Result<(), String> {
    let sim = otis_optics::simulator::OtisSimulator::with_defaults(*h);
    let engine = otis_optics::TrafficEngine::new(&sim);
    println!(
        "router: {} (table + physics precomputed in {:.1} ms)",
        otis_core::Router::name(&router),
        build_start.elapsed().as_secs_f64() * 1e3
    );
    let run_start = std::time::Instant::now();
    let report = engine.run_multicast(&router, groups);
    let elapsed = run_start.elapsed();
    println!(
        "routed {} {pattern} trees ({} destination leaves) in {:.1} ms ({:.2} Mleaf/s)",
        report.groups,
        report.leaves,
        elapsed.as_secs_f64() * 1e3,
        report.leaves as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "  delivered         : {} leaves ({:.2}%)",
        report.delivered_leaves,
        report.delivery_rate() * 100.0
    );
    println!(
        "  tree arcs         : {} ({:.1} per tree, depth ≤ {}), vs {} unicast hops — {:.2}× \
         replication saving",
        report.tree_arcs,
        report.mean_tree_arcs(),
        report.max_depth,
        report.unicast_hops,
        report.replication_saving()
    );
    println!(
        "  forwarding index  : multicast {} (max trees per link) vs unicast {}",
        report.multicast_forwarding_index, report.unicast_forwarding_index
    );
    println!(
        "  latency           : mean {:.0} ps, p50 {:.0} ps, p99 {:.0} ps, max {:.0} ps (per leaf)",
        report.latency_mean_ps, report.latency_p50_ps, report.latency_p99_ps, report.latency_max_ps
    );
    println!(
        "  energy            : {:.2} nJ total — charged per tree arc, not per leaf",
        report.energy_total_pj / 1e3
    );
    println!(
        "  link budgets      : {}",
        if report.all_budgets_close {
            "all close"
        } else {
            "SOME DO NOT CLOSE"
        }
    );
    Ok(())
}

fn cmd_sequence(args: &[String]) -> Result<(), String> {
    let d: u32 = parse(args, 0, "d")?;
    let k: u32 = parse(args, 1, "k")?;
    if d < 2 || k < 1 {
        return Err("need d >= 2 and k >= 1".into());
    }
    if otis_util::digits::checked_pow(d as u64, k).is_none_or(|n| n > 1 << 24) {
        return Err("sequence too long; keep d^k <= 2^24".into());
    }
    let seq = otis_core::sequences::debruijn_sequence(d, k);
    assert!(otis_core::sequences::is_debruijn_sequence(d, k, &seq));
    let text: String = seq
        .iter()
        .map(|&x| char::from_digit(x as u32 % 36, 36).expect("digit"))
        .collect();
    println!("{text}");
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let family = args.first().ok_or("missing <family>")?.as_str();
    let d: u32 = parse(args, 1, "d")?;
    let dd: u32 = parse(args, 2, "D")?;
    let (graph, label): (otis_digraph::Digraph, Box<dyn FnMut(u32) -> String>) = match family {
        "debruijn" => {
            let b = DeBruijn::new(d, dd);
            let space = *b.space();
            (
                b.digraph(),
                Box::new(move |u| space.unrank(u as u64).to_string()),
            )
        }
        "kautz" => {
            let k = Kautz::new(d, dd);
            let space = *k.space();
            (
                k.digraph(),
                Box::new(move |u| space.unrank(u as u64).to_string()),
            )
        }
        "ii" => {
            let n = otis_util::digits::pow(d as u64, dd);
            (ImaseItoh::new(d, n).digraph(), Box::new(|u| u.to_string()))
        }
        "rrk" => {
            let n = otis_util::digits::pow(d as u64, dd);
            (Rrk::new(d, n).digraph(), Box::new(|u| u.to_string()))
        }
        other => {
            return Err(format!(
                "unknown family {other:?} (want debruijn|kautz|ii|rrk)"
            ))
        }
    };
    if graph.node_count() > 4096 {
        return Err("graph too large for DOT output (max 4096 nodes)".into());
    }
    print!(
        "{}",
        otis_digraph::dot::to_dot_with_labels(&graph, family, label)
    );
    Ok(())
}
