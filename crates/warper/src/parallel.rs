//! Seed derivation: one master seed, one named RNG stream per concurrent
//! component, so runs stay reproducible whichever thread gets there first.

/// Named RNG streams for [`derive_seed`]. Each concurrent component of a
/// run (strategy, model init, load generator, drift mutator, adaptation
/// worker, …) draws its seed from the master seed through its own stream,
/// so no component's RNG position depends on *when* another component runs
/// — the precondition for replay determinism once adaptation moves to a
/// background thread.
pub mod seed_stream {
    /// Adaptation-strategy internals (pool sampling, GAN noise, picker).
    pub const STRATEGY: u64 = 1;
    /// CE-model weight initialization.
    pub const MODEL: u64 = 2;
    /// Serving-side load generation / query replay.
    pub const LOADGEN: u64 = 3;
    /// Data-drift mutators.
    pub const DRIFT: u64 = 4;
    /// Background adaptation worker.
    pub const ADAPT: u64 = 5;
    /// Offline preparation (training-set generation).
    pub const PREPARE: u64 = 6;
    /// Dataset synthesis.
    pub const TABLE: u64 = 7;
    /// Network clients: per-connection retry jitter and query striping.
    /// Each connection `c` re-derives `derive_seed(derive_seed(master, NET), c)`
    /// so multi-client runs stay deterministic regardless of client count.
    pub const NET: u64 = 8;
    /// Multi-tenant fleet: shard assignment of the query stream (Zipf rank
    /// sampling) and per-shard component seeds. Shard `i` re-derives
    /// `derive_seed(derive_seed(master, SHARD), i)` so a fleet of any size
    /// stays deterministic and adding a shard never perturbs the others.
    pub const SHARD: u64 = 9;
}

/// Derives a per-component seed from a master seed and a [`seed_stream`]
/// tag via a SplitMix64 finalizer. Replaces the ad-hoc `seed ^ CONST`
/// scattering: streams are well-mixed (adjacent masters do not collide
/// across streams) and adding a stream never perturbs existing ones.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_stream_separated() {
        for master in [0u64, 7, u64::MAX] {
            assert_eq!(
                derive_seed(master, seed_stream::LOADGEN),
                derive_seed(master, seed_stream::LOADGEN)
            );
        }
        // Distinct streams of one master, and one stream across adjacent
        // masters, all decorrelate.
        let streams = [
            seed_stream::STRATEGY,
            seed_stream::MODEL,
            seed_stream::LOADGEN,
            seed_stream::DRIFT,
            seed_stream::ADAPT,
            seed_stream::PREPARE,
            seed_stream::TABLE,
            seed_stream::NET,
            seed_stream::SHARD,
        ];
        let mut seen = std::collections::HashSet::new();
        for master in 0..16u64 {
            for &s in &streams {
                assert!(
                    seen.insert(derive_seed(master, s)),
                    "collision at {master}/{s}"
                );
            }
        }
    }
}
