//! Seed-determined inputs owned by the benchmark: the seed derivation, the
//! Zipf shard popularity and the per-client work lists. The system under
//! test receives only what these produce.

/// SplitMix64: the benchmark's own generator, so work lists do not change
/// when the repository changes its RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// An independent seed for the named purpose `stream` under `master`.
pub fn sub_seed(master: u64, stream: u64) -> u64 {
    SplitMix::new(master ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The drift scenarios every run goes through: each seeds a drift, the
/// post-drift arrivals, the held-out queries and the adaptation's own
/// randomness. The table, the trained model and the controller they start
/// from are seeded by [`BASE`] and shared, so one set-up serves all of them.
///
/// They are a small fixed set, not a draw from `--seed`, because of what the
/// scenario decides: in how many rounds the drift is still detected (each
/// costs a GAN + picker + annotation pass) and how accurate a model trained
/// on a few hundred queries ends up. Over twelve random scenarios
/// `adapt_s` spread 19–24 % and `adapt_gmq` 8–32 % (interquartile range
/// over median; README, "Why the scenarios are fixed"), more than any bound
/// this benchmark allows itself, and the acceptance check draws ten
/// *different* seeds. So every pass of every run covers all of them —
/// `adapt_s` is the mean and `adapt_gmq` the geometric mean over the
/// scenarios — and `--seed` draws the traffic (serve queries, work lists,
/// ingest batches, connection jitter), the order the scenarios are taken in,
/// and which one the traced run looks at.
pub const SCENARIOS: [u64; 3] = [0x5741_5250_4552, 0x0D52_1F7A_11CE, 0x5EED_0003_CA2D];

/// Seeds the pre-drift table, the trained model and the controller.
pub const BASE: u64 = SCENARIOS[0];

/// Indices into [`SCENARIOS`] in the order pass `pass` of run `seed` takes
/// them: every pass starts on another one, so each scenario is measured
/// early, in the middle and late in a process's life.
pub fn scenario_order(seed: u64, pass: usize) -> [usize; 3] {
    let n = SCENARIOS.len() as u64;
    std::array::from_fn(|i| ((seed + pass as u64 + i as u64) % n) as usize)
}

/// Named sub-seed streams, of [`BASE`] (`TABLE`, `PREPARE`), of a scenario
/// seed (`DRIFT`, `ARRIVALS`, `HELDOUT`, `ADAPT`) or of one run's `--seed`
/// (the rest).
pub mod stream {
    pub const TABLE: u64 = 1;
    pub const PREPARE: u64 = 2;
    pub const SERVE_QUERIES: u64 = 3;
    pub const WORKLIST: u64 = 4;
    pub const DRIFT: u64 = 5;
    pub const ARRIVALS: u64 = 6;
    pub const HELDOUT: u64 = 7;
    pub const INGEST: u64 = 8;
    pub const ADAPT: u64 = 9;
    pub const NET: u64 = 10;
}

/// Cumulative Zipf(`s`) distribution over `n` ranks; rank 0 is the hottest.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let n = n.max(1);
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 1..=n {
        total += (r as f64).powf(-s);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf[n - 1] = 1.0;
    cdf
}

/// One request of a client's work list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    pub shard: u32,
    /// Index into the run's serve-query set.
    pub query: u32,
}

/// The fixed, seed-determined request sequence of client `client`: shards by
/// Zipf rank, queries uniform over the serve-query set. A client walks its
/// list cyclically for as long as a repetition lasts, so every repetition of
/// a run starts with the same requests in the same order.
pub fn work_list(
    seed: u64,
    client: usize,
    len: usize,
    shards: usize,
    zipf_s: f64,
    queries: usize,
) -> Vec<WorkItem> {
    let cdf = zipf_cdf(shards, zipf_s);
    let mut rng = SplitMix::new(sub_seed(sub_seed(seed, stream::WORKLIST), client as u64));
    (0..len)
        .map(|_| {
            let u = rng.next_f64();
            let shard = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32;
            WorkItem {
                shard,
                query: rng.below(queries) as u32,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_work_lists() {
        let a = work_list(42, 3, 500, 64, 1.1, 1000);
        let b = work_list(42, 3, 500, 64, 1.1, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_and_clients_give_different_work_lists() {
        let a = work_list(42, 0, 500, 64, 1.1, 1000);
        assert_ne!(a, work_list(43, 0, 500, 64, 1.1, 1000));
        assert_ne!(a, work_list(42, 1, 500, 64, 1.1, 1000));
    }

    #[test]
    fn work_items_stay_in_range_and_follow_the_skew() {
        let list = work_list(7, 0, 20_000, 64, 1.1, 300);
        assert!(list.iter().all(|w| w.shard < 64 && w.query < 300));
        let hits = |s: u32| list.iter().filter(|w| w.shard == s).count();
        assert!(hits(0) > 2 * hits(3), "{} vs {}", hits(0), hits(3));
        assert!(hits(0) > 20 * hits(63).max(1) / 2);
        // One shard: everything lands on it.
        assert!(work_list(7, 0, 100, 1, 1.1, 10)
            .iter()
            .all(|w| w.shard == 0));
    }

    #[test]
    fn zipf_cdf_is_a_distribution() {
        let cdf = zipf_cdf(16, 1.1);
        assert_eq!(cdf.len(), 16);
        assert_eq!(*cdf.last().unwrap(), 1.0);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        // s = 0 is uniform.
        let flat = zipf_cdf(4, 0.0);
        assert!((flat[0] - 0.25).abs() < 1e-12 && (flat[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn every_pass_takes_every_scenario_once_and_starts_on_another() {
        for seed in 0..7 {
            let firsts: Vec<usize> = (0..3).map(|p| scenario_order(seed, p)[0]).collect();
            assert_eq!(firsts[0], (seed % 3) as usize);
            for pass in 0..3 {
                let mut order = scenario_order(seed, pass).to_vec();
                order.sort_unstable();
                assert_eq!(order, [0, 1, 2]);
            }
            let mut sorted = firsts.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2]);
        }
        assert_ne!(scenario_order(1, 0), scenario_order(2, 0));
    }

    #[test]
    fn sub_seeds_separate_streams() {
        assert_ne!(sub_seed(1, stream::TABLE), sub_seed(1, stream::PREPARE));
        assert_ne!(sub_seed(1, stream::TABLE), sub_seed(2, stream::TABLE));
        assert_eq!(sub_seed(9, stream::DRIFT), sub_seed(9, stream::DRIFT));
        let mut r = SplitMix::new(5);
        assert!((0..1000).all(|_| {
            let x = r.next_f64();
            (0.0..1.0).contains(&x)
        }));
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
