//! One workload, every engine: the same batched program runs unchanged on
//! the synchronous fast path and on the message-level cluster (a driver
//! and three hosts exchanging wire frames on one thread) — including a
//! lossy network, where frames are lost and the cluster resends them.
//!
//! ```text
//! cargo run --release --example engines
//! ```

use voronet::net::{FaultCtl, FaultTransport, LinkFaults, VnetHub};
use voronet::prelude::*;
use voronet::sim::{LatencyModel, NetworkModel};
use voronet_api::{resolve_workload, RouteOutcome};

const NMAX: usize = 2_000;
const WARMUP: usize = 600;
const BATCH: usize = 400;

fn run(label: &str, mut net: Box<dyn Overlay>) {
    // Warm the overlay up through the trait: plain inserts.
    let mut points = PointGenerator::new(Distribution::Uniform, 0x57A7);
    let warmup: Vec<Op> = (0..WARMUP)
        .map(|_| Op::Insert {
            position: points.next_point(),
        })
        .collect();
    let inserted = net
        .apply_batch(&warmup)
        .iter()
        .filter(|r| r.is_ok())
        .count();

    // A read-heavy op script from the workload layer, bound to this
    // engine's population at submission time.
    let mut gen = OpBatchGenerator::new(Distribution::Uniform, 0x10AD, OpMix::read_heavy());
    let script = gen.batch(net.len(), BATCH);
    let ops = resolve_workload(net.as_ref(), &script);
    let results = net.apply_batch(&ops);

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let lost = results
        .iter()
        .filter(|r| {
            matches!(
                r.err().map(VoronetError::kind),
                Some(ErrorKind::OperationLost | ErrorKind::Unavailable)
            )
        })
        .count();
    let routed: Vec<&RouteOutcome> = results.iter().filter_map(OpResult::as_routed).collect();
    let mean_hops = if routed.is_empty() {
        0.0
    } else {
        routed.iter().map(|r| f64::from(r.hops)).sum::<f64>() / routed.len() as f64
    };
    let stats = net.stats();

    println!("── {label} ─────────────────────────────────────");
    println!(
        "  warmup     {inserted}/{WARMUP} inserts ok, population {}",
        stats.population
    );
    println!(
        "  batch      {}/{} ops ok ({} lost to the network)",
        ok,
        results.len(),
        lost
    );
    println!(
        "  routes     {} completed in this batch, mean {:.2} hops",
        routed.len(),
        mean_hops
    );
    println!(
        "  engine     {} messages (sync) or frames (cluster), {} routes completed overall",
        stats.messages, stats.routes_completed
    );
    net.verify_invariants()
        .expect("overlay invariants hold on every engine");
}

fn main() {
    println!("the same {BATCH}-op read-heavy batch, submitted through `Box<dyn Overlay>`\n");

    let config = OverlayBuilder::new(NMAX).seed(2006).config();
    // The lossy cluster: heavy-tailed latency on the hub, and every
    // endpoint wrapped by the fault layer, which drops a fifth of the
    // frames it sends.
    let hub = VnetHub::new(NetworkModel::new(
        2006,
        LatencyModel::Skewed {
            min: 1,
            max: 40,
            alpha: 1.3,
        },
    ));
    let ctl = FaultCtl::new(LinkFaults {
        drop: 0.20,
        ..LinkFaults::default()
    });
    let lossy = InlineCluster::start_with(3, config, |peer| {
        FaultTransport::new(hub.endpoint(peer), ctl.clone(), 2006)
    });

    run("sync engine", Box::new(SyncEngine::new(config)));
    run(
        "cluster, 3 hosts (ideal network)",
        Box::new(InlineCluster::start(3, config)),
    );
    run(
        "cluster, 3 hosts (heavy-tailed latency, 20% loss)",
        Box::new(lossy),
    );

    println!("\nNo engine type appears in `run` — that is the point.");
}
