//! Networked failover benchmark: replication ack latency, steady-state
//! serving over real TCP loopback, and the client-observed outage when the
//! primary is killed and a warm standby promotes through full recovery.
//!
//! Four numbers bound what the replicated service costs and promises:
//!
//! 1. **Replicated append** — WAL fsync on the primary + ship over TCP +
//!    WAL fsync on the standby + ack round-trip. The synchronous
//!    durability cost per acknowledged label (`AckMode::Replicated`).
//! 2. **Replication lag** — the hub's measured watermark gap after a burst
//!    of asynchronous (`AckMode::Local`) appends, i.e. how far a warm
//!    standby trails a primary that isn't waiting for it.
//! 3. **Steady-state serving** — throughput and latency quantiles of the
//!    deterministic multi-client load generator against the primary.
//! 4. **Failover** — kill the primary under live probe traffic: time from
//!    kill to promotion (link-loss detection + recovery + validation) and
//!    the longest success-to-success gap any probe client observed.
//!
//! Run with `cargo bench --bench net` (release profile). Writes
//! `BENCH_net.json` at the workspace root in addition to printing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use warper_core::runner::ModelKind;
use warper_core::WarperConfig;
use warper_durable::MemVfs;
use warper_serve::net::{
    AckLevel, AckMode, EstimateClient, PrimaryNode, PrimarySpec, RetryPolicy, StandbyConfig,
    StandbyNode, TcpDialer,
};
use warper_serve::{run_net_loadgen, FleetConfig, NetLoadSpec};
use warper_storage::{generate, DatasetKind};

const REPL_APPENDS: usize = 300;
const ASYNC_APPENDS: usize = 500;
const LOAD_QUERIES: usize = 600;
const LOAD_CLIENTS: usize = 4;
const PROBE_CLIENTS: usize = 3;

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        op_deadline: Duration::from_millis(500),
    }
}

fn main() {
    let table = generate(DatasetKind::Prsa, 1_500, 7);
    let spec = PrimarySpec {
        n_train: 150,
        seed: 11,
        warper: WarperConfig {
            embed_dim: 6,
            hidden: 16,
            n_i: 4,
            pretrain_epochs: 1,
            gamma: 60,
            n_p: 30,
            ..Default::default()
        },
        service: FleetConfig {
            workers: 2,
            ..Default::default()
        },
        ack_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    let primary = PrimaryNode::start(&table, Arc::new(MemVfs::new()), "127.0.0.1:0", spec)
        .expect("primary starts");
    let primary_addr = primary.addr().to_string();
    let feature_dim = primary.fmap().dim();

    let standby = StandbyNode::start(
        Arc::new(MemVfs::new()),
        "127.0.0.1:0",
        primary_addr.clone(),
        StandbyConfig {
            connect_timeout: Duration::from_millis(200),
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(20),
            auto_promote: true,
            ..Default::default()
        },
    )
    .expect("standby starts");

    // -----------------------------------------------------------------
    // 1. Replicated append: fsync + ship + standby fsync + ack, per label.
    // -----------------------------------------------------------------
    let features: Vec<f64> = (0..feature_dim).map(|d| 0.1 + 0.01 * d as f64).collect();
    let t0 = Instant::now();
    for i in 0..REPL_APPENDS {
        let level = primary
            .append_label(&features, 50.0 + (i % 13) as f64, AckMode::Replicated)
            .expect("replicated append");
        assert_eq!(level, AckLevel::Replicated, "standby must ack label {i}");
    }
    let repl_append_ms = t0.elapsed().as_secs_f64() * 1e3 / REPL_APPENDS as f64;
    println!(
        "replicated append: {repl_append_ms:.3} ms/label ({REPL_APPENDS} labels, \
         fsync + ship + standby fsync + ack)"
    );

    // -----------------------------------------------------------------
    // 2. Replication lag: async burst, then measure how far behind the
    //    standby is and how long it takes to drain.
    // -----------------------------------------------------------------
    let t0 = Instant::now();
    for i in 0..ASYNC_APPENDS {
        primary
            .append_label(&features, 60.0 + (i % 7) as f64, AckMode::Local)
            .expect("local append");
    }
    let burst_lag = primary.lag();
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while primary.lag().ops_behind > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let drained = primary.lag();
    assert_eq!(
        drained.ops_behind, 0,
        "standby never caught up: {drained:?}"
    );
    println!(
        "replication lag: peak {} ops / {:.1} ms behind after {ASYNC_APPENDS} async appends; \
         drained in {drain_ms:.1} ms",
        burst_lag.ops_behind,
        burst_lag.secs_behind * 1e3,
    );

    // -----------------------------------------------------------------
    // 3. Steady-state serving: deterministic loadgen against the primary.
    // -----------------------------------------------------------------
    let load = NetLoadSpec {
        endpoints: vec![primary_addr.clone()],
        clients: LOAD_CLIENTS,
        n_queries: LOAD_QUERIES,
        mix: "w1".into(),
        model: ModelKind::LmMlp,
        seed: 77,
        policy: policy(),
        connect_timeout: Duration::from_millis(250),
        ..Default::default()
    };
    let steady = run_net_loadgen(&table, &load).expect("steady-state run");
    assert_eq!(
        steady.ok as usize, LOAD_QUERIES,
        "steady run dropped queries"
    );
    let qps = steady.ok as f64 / steady.elapsed.as_secs_f64();
    let (p50_us, p99_us) = (steady.latency.p50() / 1_000, steady.latency.p99() / 1_000);
    println!(
        "steady state: {qps:.0} qps over {LOAD_CLIENTS} clients, latency p50={p50_us}us \
         p99={p99_us}us, checksum={:016x}",
        steady.checksum
    );

    // -----------------------------------------------------------------
    // 4. Failover: probes hammer both endpoints; kill the primary; the
    //    standby promotes; measure promotion time and the longest
    //    success-to-success gap any probe observed.
    // -----------------------------------------------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let success_times: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let endpoints = vec![primary_addr.clone(), standby.addr().to_string()];
    let probes: Vec<_> = (0..PROBE_CLIENTS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let times = Arc::clone(&success_times);
            let endpoints = endpoints.clone();
            let features = features.clone();
            std::thread::spawn(move || {
                let dialer = TcpDialer {
                    endpoints,
                    connect_timeout: Duration::from_millis(200),
                };
                let mut client = EstimateClient::new(Box::new(dialer), policy(), 1000 + c as u64);
                while !stop.load(Ordering::Acquire) {
                    if client.estimate(&features).is_ok() {
                        times
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push((c, Instant::now()));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                client.stats()
            })
        })
        .collect();

    // Let the probes reach steady state, then crash the primary.
    std::thread::sleep(Duration::from_millis(400));
    let t_kill = Instant::now();
    primary.shutdown();
    assert!(
        standby.wait_promoted(Duration::from_secs(15)),
        "standby never promoted: {:?}",
        standby.state()
    );
    let promote_ms = t_kill.elapsed().as_secs_f64() * 1e3;
    // Keep probing on the promoted standby long enough to record recovery.
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Release);
    let mut probe_stats = Vec::new();
    for p in probes {
        probe_stats.push(p.join().expect("probe thread"));
    }

    // Longest success-to-success gap per probe client = the outage that
    // client actually observed across the failover.
    let times = success_times
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut max_gap = Duration::ZERO;
    let mut served_after_kill = 0u64;
    for c in 0..PROBE_CLIENTS {
        let mut prev: Option<Instant> = None;
        for &(pc, t) in times.iter().filter(|(pc, _)| *pc == c) {
            debug_assert_eq!(pc, c);
            if let Some(p) = prev {
                max_gap = max_gap.max(t - p);
            }
            if t >= t_kill {
                served_after_kill += 1;
            }
            prev = Some(t);
        }
    }
    assert!(
        served_after_kill > 0,
        "no probe was served by the promoted standby"
    );
    assert!(
        max_gap < Duration::from_secs(10),
        "client outage {max_gap:?} exceeds any reasonable failover bound"
    );
    let state = standby.state();
    println!(
        "failover: promoted in {promote_ms:.0} ms (watermark={} validated_seq={}), \
         client outage {:.0} ms, {served_after_kill} probe successes post-kill",
        state.watermark,
        state.validated_seq,
        max_gap.as_secs_f64() * 1e3
    );
    let rotations: u64 = probe_stats.iter().map(|s| s.rotations).sum();
    let reconnects: u64 = probe_stats.iter().map(|s| s.reconnects).sum();
    let standby_report = standby.shutdown();

    let mut out = serde_json::Map::new();
    out.insert(
        "bench".into(),
        serde_json::Value::String("crates/bench/benches/net.rs".into()),
    );
    out.insert(
        "config".into(),
        serde_json::json!({
            "dataset": "prsa",
            "rows": 1_500,
            "feature_dim": feature_dim,
            "repl_appends": REPL_APPENDS,
            "async_appends": ASYNC_APPENDS,
            "load_queries": LOAD_QUERIES,
            "load_clients": LOAD_CLIENTS,
            "probe_clients": PROBE_CLIENTS,
        }),
    );
    out.insert(
        "replicated_append".into(),
        serde_json::json!({
            "iterations": REPL_APPENDS,
            "mean_ms": repl_append_ms,
        }),
    );
    out.insert(
        "replication_lag".into(),
        serde_json::json!({
            "burst_ops_behind": burst_lag.ops_behind,
            "burst_ms_behind": burst_lag.secs_behind * 1e3,
            "drain_ms": drain_ms,
        }),
    );
    out.insert(
        "steady_state".into(),
        serde_json::json!({
            "qps": qps,
            "latency_p50_us": p50_us,
            "latency_p99_us": p99_us,
            "checksum": format!("{:016x}", steady.checksum),
        }),
    );
    out.insert(
        "failover".into(),
        serde_json::json!({
            "promote_ms": promote_ms,
            "client_outage_ms": max_gap.as_secs_f64() * 1e3,
            "served_after_kill": served_after_kill,
            "probe_rotations": rotations,
            "probe_reconnects": reconnects,
            "standby_watermark": state.watermark,
            "standby_validated_seq": state.validated_seq,
            "promoted_generation": standby_report.state.promoted_generation,
        }),
    );
    warper_bench::publish_bench("net", serde_json::Value::Object(out));
}
