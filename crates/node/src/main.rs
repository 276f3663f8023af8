//! `voronet-node`: a deployable VoroNet overlay process.
//!
//! ```text
//! voronet-node host  --peer N --hosts K --base-port P
//!                    [--transport udp|tcp] [--stats-every SECS]
//! voronet-node drive --hosts K --base-port P [--transport udp|tcp]
//!                    [--objects N] [--ops N] [--seed S] [--zipf A]
//!                    [--services]
//! voronet-node demo  [--hosts K] [--objects N] [--ops N] [--seed S]
//!                    [--zipf A] [--loss P] [--services]
//! ```
//!
//! Addressing is positional: peer `i` (0 is the driver) listens on
//! `127.0.0.1:(base-port + i)`, so a cluster needs nothing beyond a shared
//! base port.  `host` serves objects until the driver says shutdown,
//! printing a stats line (transport counters included) every few seconds.
//! `drive` joins as the controller: it builds the overlay, replays a
//! churn-heavy Zipf-skewed workload ([`OpMix::churn_zipf`]) against the
//! live cluster, then gathers every host's counters.  `demo` runs the
//! same show in one process on one thread, over the deterministic vnet
//! transport and its virtual clock — the in-memory twin of a socket
//! deployment, identical run to run but for its ops/s rate.
//! `--services` (drive/demo) switches the workload to the geo-scoped
//! service mix ([`OpMix::services`]): region pub/sub deliveries and
//! coordinate-keyed KV traffic ride the same cluster, with entries
//! migrating between hosts as churn moves the owning Voronoi cells.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use voronet_core::snapshot::RouteScratch;
use voronet_core::VoroNetConfig;
use voronet_net::cluster::{Driver, HostNode, HostReport, InlineCluster, OpOutcome, DRIVER_PEER};
use voronet_net::fault::{FaultCtl, FaultTransport, LinkFaults};
use voronet_net::tcp::TcpTransport;
use voronet_net::transport::Transport;
use voronet_net::udp::UdpTransport;
use voronet_net::vnet::VnetHub;
use voronet_sim::NetworkModel;
use voronet_workloads::{Distribution, OpBatchGenerator, OpMix, PointGenerator, WorkloadOp};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    Udp,
    Tcp,
}

#[derive(Debug)]
struct Args {
    command: String,
    peer: u64,
    hosts: u64,
    base_port: u16,
    transport: TransportKind,
    stats_every: u64,
    objects: usize,
    ops: usize,
    seed: u64,
    zipf: f64,
    loss: f64,
    nmax: usize,
    services: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing subcommand: host | drive | demo")?;
    let mut args = Args {
        command,
        peer: 1,
        hosts: 3,
        base_port: 7300,
        transport: TransportKind::Udp,
        stats_every: 5,
        objects: 64,
        ops: 200,
        seed: 2007,
        zipf: 1.0,
        loss: 0.0,
        nmax: 4096,
        services: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        macro_rules! parse {
            ($field:ident, $flag:literal) => {
                args.$field = value($flag)?
                    .parse()
                    .map_err(|e| format!("{}: {e}", $flag))?
            };
        }
        match flag.as_str() {
            "--peer" => parse!(peer, "--peer"),
            "--hosts" => parse!(hosts, "--hosts"),
            "--base-port" => parse!(base_port, "--base-port"),
            "--stats-every" => parse!(stats_every, "--stats-every"),
            "--objects" => parse!(objects, "--objects"),
            "--ops" => parse!(ops, "--ops"),
            "--seed" => parse!(seed, "--seed"),
            "--zipf" => parse!(zipf, "--zipf"),
            "--loss" => parse!(loss, "--loss"),
            "--nmax" => parse!(nmax, "--nmax"),
            "--services" => args.services = true,
            "--transport" => {
                args.transport = match value("--transport")?.as_str() {
                    "udp" => TransportKind::Udp,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("--transport: unknown kind {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.hosts == 0 {
        return Err("--hosts must be at least 1".into());
    }
    Ok(args)
}

fn addr_of(base_port: u16, peer: u64) -> String {
    format!("127.0.0.1:{}", base_port as u64 + peer)
}

/// Registers every cluster peer's positional address on this endpoint.
fn register_all<T: Transport>(t: &mut T, hosts: u64, base_port: u16) -> Result<(), String> {
    for peer in 0..=hosts {
        if peer != t.local_peer() {
            t.register(peer, &addr_of(base_port, peer))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn run_host<T: Transport>(mut t: T, args: &Args) -> Result<(), String> {
    register_all(&mut t, args.hosts, args.base_port)?;
    let mut node = HostNode::new(t, args.peer, args.hosts);
    let started = Instant::now();
    let mut last_stats = Instant::now();
    let every = Duration::from_secs(args.stats_every.max(1));
    let mut buf = Vec::new();
    println!(
        "[host {}] serving on {} ({} hosts)",
        args.peer,
        addr_of(args.base_port, args.peer),
        args.hosts
    );
    while !node.is_shutdown() {
        let worked = node.step(&mut buf).map_err(|e| e.to_string())?;
        if !worked {
            std::thread::sleep(Duration::from_micros(200));
        }
        if last_stats.elapsed() >= every {
            last_stats = Instant::now();
            println!(
                "[host {}] t={}s hosted={} ops={} | {}",
                args.peer,
                started.elapsed().as_secs(),
                node.hosted(),
                node.ops_served(),
                node.transport_stats()
            );
        }
    }
    println!(
        "[host {}] shutdown after {}s: hosted={} ops={} | {}",
        args.peer,
        started.elapsed().as_secs(),
        node.hosted(),
        node.ops_served(),
        node.transport_stats()
    );
    Ok(())
}

/// Tallies of one driven workload, printed at the end of a run.
#[derive(Debug, Default)]
struct Tally {
    inserts: u64,
    removes: u64,
    routes: u64,
    queries: u64,
    matches: u64,
    route_hops: u64,
    visited: u64,
    skipped: u64,
    subs: u64,
    pubs: u64,
    delivered: u64,
    kv_puts: u64,
    kv_gets: u64,
    kv_hits: u64,
    kv_deletes: u64,
}

impl Tally {
    fn record(&mut self, outcome: &OpOutcome) {
        match outcome {
            OpOutcome::Inserted(_) => self.inserts += 1,
            OpOutcome::Removed(_) => self.removes += 1,
            OpOutcome::Route { hops, .. } => {
                self.routes += 1;
                self.route_hops += u64::from(*hops);
            }
            OpOutcome::Matches {
                matches, visited, ..
            } => {
                self.queries += 1;
                self.matches += matches.len() as u64;
                self.visited += u64::from(*visited);
            }
            OpOutcome::Subscribed(_) | OpOutcome::Unsubscribed(_) => self.subs += 1,
            OpOutcome::Published(p) => {
                self.pubs += 1;
                self.delivered += p.delivered.len() as u64;
            }
            OpOutcome::KvStored { .. } => self.kv_puts += 1,
            OpOutcome::KvFetched { value, .. } => {
                self.kv_gets += 1;
                self.kv_hits += u64::from(value.is_some());
            }
            OpOutcome::KvDropped(_) => self.kv_deletes += 1,
            OpOutcome::Skipped => self.skipped += 1,
        }
    }
}

fn print_reports(reports: &[HostReport]) {
    for r in reports {
        println!(
            "[drive] host {} served {} ops | {}",
            r.peer, r.ops_served, r.stats
        );
    }
}

fn drive_workload<T: Transport>(driver: &mut Driver<T>, args: &Args) -> Result<Tally, String> {
    let mut points = PointGenerator::new(Distribution::Uniform, args.seed);
    print!("[drive] building {} objects...", args.objects);
    let mut built = 0usize;
    while built < args.objects {
        if driver
            .insert(points.next_point())
            .map_err(|e| e.to_string())?
            .is_some()
        {
            built += 1;
        }
    }
    println!(" done (population {})", driver.population());

    let mix = if args.services {
        // Service-heavy mix: pub/sub and coordinate-keyed KV traffic with
        // enough churn left in to exercise ownership handoff on the wire.
        OpMix::services(35, 35)
    } else {
        OpMix::churn_zipf()
    };
    let mut generator = OpBatchGenerator::new(Distribution::Uniform, args.seed, mix)
        .with_zipf_destinations(args.zipf);
    let batch = generator.batch(driver.population(), args.ops);
    let mut tally = Tally::default();
    let progress_every = (args.ops / 10).max(1);
    let started = Instant::now();
    // The driver cross-checks every distributed route answer against the
    // greedy walk over its own authoritative overlay — a free end-to-end
    // audit of the cluster protocol and the views it ships under churn.
    let mut scratch = RouteScratch::new();
    let mut verified = 0u64;
    let mut mismatched = 0u64;
    for (i, op) in batch.iter().enumerate() {
        let outcome = driver.apply(op).map_err(|e| e.to_string())?;
        tally.record(&outcome);
        if let (WorkloadOp::Route { from, to }, OpOutcome::Route { owner, hops }) = (op, &outcome) {
            let net = driver.net();
            let n = net.len();
            if n > 0 {
                let from_id = net.id_at(from % n).expect("index below len");
                let to_id = net.id_at(to % n).expect("index below len");
                let target = net.coords(to_id).expect("live object");
                scratch.delta.clear();
                match net.route_to_point_in(from_id, target, &mut scratch) {
                    Ok((o, h)) if o.0 == *owner && h == *hops => verified += 1,
                    _ => mismatched += 1,
                }
            }
        }
        if (i + 1) % progress_every == 0 {
            println!(
                "[drive] {}/{} ops, population {}, {:.1} ops/s | {}",
                i + 1,
                batch.len(),
                driver.population(),
                (i + 1) as f64 / started.elapsed().as_secs_f64().max(1e-9),
                driver.transport_stats()
            );
        }
    }
    let cluster = driver.cluster_stats();
    println!(
        "[drive] workload done: inserts={} removes={} routes={} (avg hops {:.2}) \
         queries={} (matches={} visited={}) skipped={} | views built={} pushed={}",
        tally.inserts,
        tally.removes,
        tally.routes,
        tally.route_hops as f64 / tally.routes.max(1) as f64,
        tally.queries,
        tally.matches,
        tally.visited,
        tally.skipped,
        cluster.view_builds,
        cluster.view_pushes,
    );
    if args.services {
        println!(
            "[drive] services: sub-ops={} publishes={} (delivered {}) \
             kv puts={} gets={} (hits {}) deletes={}",
            tally.subs,
            tally.pubs,
            tally.delivered,
            tally.kv_puts,
            tally.kv_gets,
            tally.kv_hits,
            tally.kv_deletes,
        );
    }
    println!(
        "[drive] cross-check: {verified} routes verified against the driver's own walk, \
         {mismatched} mismatched"
    );
    Ok(tally)
}

fn run_drive<T: Transport>(mut t: T, args: &Args) -> Result<(), String> {
    register_all(&mut t, args.hosts, args.base_port)?;
    let mut driver = Driver::new(
        t,
        args.hosts,
        VoroNetConfig::new(args.nmax).with_seed(args.seed),
    );
    drive_workload(&mut driver, args)?;
    let reports = driver.collect_stats().map_err(|e| e.to_string())?;
    print_reports(&reports);
    driver.shutdown_hosts().map_err(|e| e.to_string())?;
    println!("[drive] driver endpoint | {}", driver.transport_stats());
    Ok(())
}

fn run_demo(args: &Args) -> Result<(), String> {
    println!(
        "[demo] in-process cluster: {} hosts over vnet (loss {:.0}%), one thread, virtual clock",
        args.hosts,
        args.loss * 100.0
    );
    // `--loss` drops frames through the fault layer; at 0 its endpoints
    // pass every frame through.
    let hub = VnetHub::new(NetworkModel::ideal());
    let ctl = FaultCtl::new(LinkFaults {
        drop: args.loss,
        ..LinkFaults::default()
    });
    let config = VoroNetConfig::new(args.nmax).with_seed(args.seed);
    let mut cluster = InlineCluster::start_with(args.hosts, config, |peer| {
        FaultTransport::new(hub.endpoint(peer), ctl.clone(), args.seed)
    });
    let driver = cluster.driver();
    drive_workload(driver, args)?;
    let reports = driver.collect_stats().map_err(|e| e.to_string())?;
    print_reports(&reports);
    println!("[demo] driver endpoint | {}", driver.transport_stats());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        "host" => {
            if args.peer == 0 || args.peer > args.hosts {
                return Err(format!(
                    "--peer must be in 1..={} (0 is the driver)",
                    args.hosts
                ));
            }
            let addr = addr_of(args.base_port, args.peer);
            match args.transport {
                TransportKind::Udp => run_host(
                    UdpTransport::bind(args.peer, &addr).map_err(|e| e.to_string())?,
                    args,
                ),
                TransportKind::Tcp => run_host(
                    TcpTransport::bind(args.peer, &addr).map_err(|e| e.to_string())?,
                    args,
                ),
            }
        }
        "drive" => {
            let addr = addr_of(args.base_port, DRIVER_PEER);
            match args.transport {
                TransportKind::Udp => run_drive(
                    UdpTransport::bind(DRIVER_PEER, &addr).map_err(|e| e.to_string())?,
                    args,
                ),
                TransportKind::Tcp => run_drive(
                    TcpTransport::bind(DRIVER_PEER, &addr).map_err(|e| e.to_string())?,
                    args,
                ),
            }
        }
        "demo" => run_demo(args),
        other => Err(format!(
            "unknown subcommand {other:?}; expected host | drive | demo"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("voronet-node: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("voronet-node {}: {e}", args.command);
            ExitCode::FAILURE
        }
    }
}
