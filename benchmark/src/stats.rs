//! Order statistics, the per-run summary of a set of repetitions, and the
//! estimate checksum. Nothing here knows about the system under test.

/// Quartiles `(q1, median, q3)` by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so the
/// spreads this program prints are the ones the driver computes. One value
/// is its own quartiles; an empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `p`-th percentile (0..=100) of an ascending slice, nearest rank.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Which end of a set of repetitions is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// What one run reports for one metric measured over several repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The run's value: the fast quartile of the repetitions (q3 of rates,
    /// q1 of times). The shared host does two things to repetitions of the
    /// same work: a neighbour slows some of them, often many, and now and
    /// then a stretch runs a fifth *faster* than anything before or after it
    /// (a core that has its hardware to itself for a moment). The fast
    /// quartile stays put until three quarters of the repetitions are slowed
    /// or a quarter sped up; the median gives way to a slowed half, the mean
    /// of the fastest quarter to a single fast stretch.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64], better: Better) -> Self {
        let (q1, median, q3) = quartiles(values);
        Self {
            value: if better == Better::Higher { q3 } else { q1 },
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A metric whose repetitions are different work (one per drift
    /// scenario): the run's value is their mean.
    pub fn mean_of(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        Self {
            value: values.iter().sum::<f64>() / values.len().max(1) as f64,
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A metric measured once per run.
    pub fn single(value: f64) -> Self {
        Self {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Order-independent FNV-1a digest over `(index, bits)` pairs: the pairs are
/// sorted by index first, so client interleaving cannot change it.
pub fn fnv_checksum(pairs: &mut [(u64, u64)]) -> u64 {
    pairs.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(idx, bits) in pairs.iter() {
        for x in [idx, bits] {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([5,1,9,3,7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 5.0, 8.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[2.0, 8.0]), 5.0);
    }

    #[test]
    fn the_fast_quartile_is_taken_from_the_good_end() {
        let v = [100.0, 101.0, 99.0, 60.0, 102.0];
        let rate = Summary::of(&v, Better::Higher);
        assert_eq!((rate.value, rate.q3), (101.5, 101.5));
        assert!(rate.value > rate.median);
        let time = Summary::of(&v, Better::Lower);
        assert_eq!((time.value, time.n), (79.5, 5));
        // Nine repetitions of about 100: slowing six of them does not move
        // it, nor does one that runs a fifth faster.
        let quiet: Vec<f64> = (0..9).map(|i| 100.0 + f64::from(i) / 10.0).collect();
        let value = Summary::of(&quiet, Better::Higher).value;
        let mut slowed = quiet.clone();
        for x in &mut slowed[..6] {
            *x *= 0.6;
        }
        assert_eq!(Summary::of(&slowed, Better::Higher).value, value);
        let mut sped = quiet.clone();
        sped[0] *= 1.2;
        assert!((Summary::of(&sped, Better::Higher).value - value).abs() < 0.5);
        assert_eq!(Summary::of(&[7.0], Better::Lower).value, 7.0);
        assert_eq!(Summary::of(&[], Better::Lower).value, 0.0);
    }

    #[test]
    fn mean_of_keeps_the_quartiles_beside_the_mean() {
        let s = Summary::mean_of(&[1.0, 2.0, 6.0]);
        assert_eq!((s.value, s.median, s.n), (3.0, 2.0, 3));
        assert_eq!(Summary::mean_of(&[]).value, 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn checksum_ignores_arrival_order() {
        let mut a = vec![(0, 10), (1, 11), (2, 12)];
        let mut b = vec![(2, 12), (0, 10), (1, 11)];
        assert_eq!(fnv_checksum(&mut a), fnv_checksum(&mut b));
        let mut c = vec![(0, 10), (1, 11), (2, 13)];
        assert_ne!(fnv_checksum(&mut a), fnv_checksum(&mut c));
    }
}
