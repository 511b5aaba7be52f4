//! The client side of a replay: the pre-generated stream and its shard
//! assignment, the striped multi-client driver, and the per-client log with
//! its order-independent checksum. Shared by the in-process replay and the
//! TCP load generator, so the two are comparable bit-for-bit.

use std::ops::Range;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_core::{derive_seed, seed_stream, WarperError};
use warper_metrics::LatencyHistogram;
use warper_query::RangePredicate;
use warper_storage::Table;
use warper_workload::{ArrivalProcess, QueryGenerator, ZipfSampler};

/// How one replayed request came back.
pub(crate) enum Served {
    /// Answered with this estimate.
    Ok(f64),
    /// Shed by admission control or the queue deadline.
    Shed,
    /// Failed for any other reason.
    Failed,
}

/// What one client thread collected — or, [`ClientLog::merged`], all of
/// them together.
#[derive(Default)]
pub(crate) struct ClientLog {
    pub(crate) latency: LatencyHistogram,
    /// Served `(request index, estimate bits)` pairs.
    pub(crate) results: Vec<(usize, u64)>,
    pub(crate) shed: usize,
    pub(crate) errors: usize,
    /// Longest gap between consecutive served responses.
    pub(crate) max_gap: Duration,
}

impl ClientLog {
    /// Folds client logs together, `results` sorted by request index.
    pub(crate) fn merged(logs: impl IntoIterator<Item = ClientLog>) -> ClientLog {
        let mut m = ClientLog::default();
        for log in logs {
            m.latency.merge(&log.latency);
            m.results.extend(log.results);
            m.shed += log.shed;
            m.errors += log.errors;
            m.max_gap = m.max_gap.max(log.max_gap);
        }
        m.results.sort_unstable_by_key(|&(idx, _)| idx);
        m
    }

    /// FNV-1a over the served `(index, bits)` pairs — of a merged log,
    /// independent of client striping and interleaving.
    pub(crate) fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(idx, bits) in &self.results {
            for b in (idx as u64)
                .to_le_bytes()
                .into_iter()
                .chain(bits.to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// The client driver: `clients` threads replay the request indices of
/// `range`, striped by index, each against its own `connect(c)` state.
/// `call` issues request `idx` (timed into the client's histogram when it
/// is served); `served` runs after that, off the latency clock. With
/// `pace`, request `idx` is not sent before `idx / rate` seconds after
/// `pace.1`.
pub(crate) fn drive<C: Send>(
    range: Range<usize>,
    clients: usize,
    pace: Option<(&ArrivalProcess, Instant)>,
    connect: impl Fn(usize) -> C + Sync,
    call: impl Fn(&mut C, usize) -> Served + Sync,
    served: impl Fn(usize) + Sync,
) -> Vec<(ClientLog, C)> {
    let clients = clients.max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (range, connect, call, served) = (range.clone(), &connect, &call, &served);
                s.spawn(move || {
                    let mut client = connect(c);
                    let mut log = ClientLog::default();
                    let mut last_ok = Instant::now();
                    for idx in range.filter(|i| i % clients == c) {
                        if let Some((p, start)) = pace {
                            let due =
                                Duration::from_secs_f64(idx as f64 / p.rate_per_sec.max(1e-9));
                            if let Some(wait) = due.checked_sub(start.elapsed()) {
                                std::thread::sleep(wait);
                            }
                        }
                        let t0 = Instant::now();
                        match call(&mut client, idx) {
                            Served::Ok(value) => {
                                log.latency.record_duration(t0.elapsed());
                                log.max_gap = log.max_gap.max(last_ok.elapsed());
                                last_ok = Instant::now();
                                log.results.push((idx, value.to_bits()));
                                served(idx);
                            }
                            Served::Shed => log.shed += 1,
                            Served::Failed => log.errors += 1,
                        }
                    }
                    (log, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// The replayed stream: `n` queries of `mix` over `table` drawn from `rng`
/// (the [`seed_stream::LOADGEN`] stream of the master seed).
pub(crate) fn query_stream(
    table: &Table,
    mix: &str,
    n: usize,
    rng: &mut StdRng,
) -> Result<Vec<RangePredicate>, WarperError> {
    Ok(QueryGenerator::try_from_notation(table, mix)?.generate_many(n, rng))
}

/// Zipf(`zipf_s`)-skewed shard assignment of `n` requests, drawn from the
/// [`seed_stream::SHARD`] stream so that changing the shard count or skew
/// never perturbs the queries themselves.
pub(crate) fn shard_assignment(seed: u64, shards: usize, zipf_s: f64, n: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, seed_stream::SHARD));
    let zipf = ZipfSampler::new(shards, zipf_s);
    (0..n).map(|_| zipf.sample(&mut rng) as u32).collect()
}
