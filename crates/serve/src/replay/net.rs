//! The TCP load generator: the replay's client driver pointed at networked
//! servers instead of an in-process fleet.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_core::runner::ModelKind;
use warper_core::{derive_seed, seed_stream, FeatureMap, WarperError};
use warper_metrics::LatencyHistogram;
use warper_storage::Table;

use super::client::{drive, query_stream, shard_assignment, ClientLog, Served};
use crate::net::{ClientError, ClientStats, EstimateClient, RetryPolicy, TcpDialer};

/// A networked load-generation run.
#[derive(Debug, Clone)]
pub struct NetLoadSpec {
    /// Server addresses, primary first; clients rotate on refusal/cut.
    pub endpoints: Vec<String>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total queries, striped round-robin across clients.
    pub n_queries: usize,
    /// Workload notation for the pre-generated query stream.
    pub mix: String,
    /// Model family (fixes the featurization).
    pub model: ModelKind,
    /// Master seed: queries from [`seed_stream::LOADGEN`], per-client
    /// retry jitter from [`seed_stream::NET`].
    pub seed: u64,
    /// Retry/backoff policy for every client.
    pub policy: RetryPolicy,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Multi-tenant mode: with `tenants > 1` every query is addressed to a
    /// shard (`Msg::EstimateReqShard`) drawn Zipf(`zipf_s`)-skewed from
    /// `0..tenants` on the [`seed_stream::SHARD`] stream — the wire-side
    /// counterpart of [`super::ReplaySpec::shards`]. `0` or `1` sends plain
    /// v1 `EstimateReq` frames (shard 0).
    pub tenants: u32,
    /// Zipf exponent of the tenant skew (only read when `tenants > 1`).
    pub zipf_s: f64,
}

impl Default for NetLoadSpec {
    fn default() -> Self {
        Self {
            endpoints: Vec::new(),
            clients: 2,
            n_queries: 200,
            mix: "w1".into(),
            model: ModelKind::LmMlp,
            seed: 11,
            policy: RetryPolicy::default(),
            connect_timeout: Duration::from_millis(250),
            tenants: 0,
            zipf_s: 1.1,
        }
    }
}

/// What a networked load run measured.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Queries attempted.
    pub n_queries: usize,
    /// Answered with an estimate.
    pub ok: u64,
    /// Shed by the server's admission control.
    pub shed: u64,
    /// Rejected (feature-dimension mismatch).
    pub rejected: u64,
    /// Refused everywhere (no endpoint serving) after rotation.
    pub unavailable: u64,
    /// Failed after exhausting bounded retries.
    pub disconnected: u64,
    /// Order-independent FNV checksum over `(query index, estimate bits)`
    /// of every answered query — equal across runs ⇒ the distributed run
    /// reproduced bit-for-bit (see `replay` module docs).
    pub checksum: u64,
    /// End-to-end wall clock.
    pub elapsed: Duration,
    /// Per-request latency across all clients (successful requests).
    pub latency: LatencyHistogram,
    /// Aggregated client transport counters.
    pub client: ClientStats,
    /// Longest gap between consecutive successful responses on any one
    /// client — during a failover run this upper-bounds the outage a
    /// client observed.
    pub max_success_gap: Duration,
}

/// Drive `spec.clients` concurrent [`EstimateClient`]s against
/// `spec.endpoints` with a pre-generated query stream.
///
/// Determinism: queries come from the `LOADGEN` stream of `spec.seed` and
/// are striped to clients by index; each client's retry jitter comes from
/// `derive_seed(derive_seed(seed, NET), client)`. Two runs with the same
/// seed against equivalent servers produce the same [`NetLoadReport::checksum`]
/// regardless of thread interleaving.
pub fn run_net_loadgen(table: &Table, spec: &NetLoadSpec) -> Result<NetLoadReport, WarperError> {
    if spec.endpoints.is_empty() {
        return Err(WarperError::InvalidState(
            "loadgen needs ≥ 1 endpoint".into(),
        ));
    }
    let clients = spec.clients.max(1);
    let fmap = FeatureMap::new(table, spec.model);
    let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::LOADGEN));
    let preds = query_stream(table, &spec.mix, spec.n_queries, &mut rng)?;
    let feats: Vec<Vec<f64>> = preds.iter().map(|p| fmap.featurize(p)).collect();

    // Multi-tenant addressing: shard assignments draw from their own
    // stream, exactly as the in-process replay does, so a networked run and
    // an in-process run of the same seed target the same shards.
    let assign: Option<Vec<u32>> = (spec.tenants > 1).then(|| {
        shard_assignment(
            spec.seed,
            spec.tenants as usize,
            spec.zipf_s,
            spec.n_queries,
        )
    });

    /// One networked client and what its refusals were.
    struct NetClient {
        client: EstimateClient,
        rejected: u64,
        unavailable: u64,
        disconnected: u64,
    }

    let t0 = Instant::now();
    let outcomes = drive(
        0..spec.n_queries,
        clients,
        None,
        |c| {
            let dialer = TcpDialer {
                endpoints: spec.endpoints.clone(),
                connect_timeout: spec.connect_timeout,
            };
            let seed = derive_seed(derive_seed(spec.seed, seed_stream::NET), c as u64);
            NetClient {
                client: EstimateClient::new(Box::new(dialer), spec.policy, seed),
                rejected: 0,
                unavailable: 0,
                disconnected: 0,
            }
        },
        |nc, idx| {
            let res = match &assign {
                Some(a) => nc.client.estimate_shard(a[idx], &feats[idx]),
                None => nc.client.estimate(&feats[idx]),
            };
            match res {
                Ok(est) => return Served::Ok(est.value),
                Err(ClientError::Shed) => return Served::Shed,
                Err(ClientError::Rejected { .. }) => nc.rejected += 1,
                Err(ClientError::Unavailable | ClientError::UnknownShard(_)) => nc.unavailable += 1,
                Err(ClientError::Disconnected(_) | ClientError::Protocol(_)) => {
                    nc.disconnected += 1
                }
            }
            Served::Failed
        },
        |_| {},
    );
    let elapsed = t0.elapsed();

    let (logs, net_clients): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let merged = ClientLog::merged(logs);
    let mut report = NetLoadReport {
        n_queries: spec.n_queries,
        ok: merged.results.len() as u64,
        shed: merged.shed as u64,
        rejected: 0,
        unavailable: 0,
        disconnected: 0,
        checksum: merged.checksum(),
        elapsed,
        latency: merged.latency,
        client: ClientStats::default(),
        max_success_gap: merged.max_gap,
    };
    for nc in net_clients {
        report.rejected += nc.rejected;
        report.unavailable += nc.unavailable;
        report.disconnected += nc.disconnected;
        report.client.merge(nc.client.stats());
    }
    Ok(report)
}
