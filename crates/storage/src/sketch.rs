//! Mergeable per-block statistics: distinct-count and heavy-hitter sketches.
//!
//! Warper's c1 data-drift identification (paper §3.1) leans on
//! `ChangeLog::changed_fraction` plus canary-predicate rescans for ground
//! truth. Rescans do not scale: a fleet of shards (DESIGN.md §12) has no
//! cheap way to rank which shards drifted hardest under a global annotation
//! budget. Production systems keep learned estimators fresh with light,
//! incrementally-maintained statistics instead — this module provides them.
//!
//! Two sketches per column per 4096-row block (the zone-map block size):
//!
//! * [`DistinctSketch`] — an HLL++-style distinct-count sketch. A sparse
//!   representation (sorted `(register, rho)` codes) for low-cardinality
//!   blocks promotes to a dense register array (`2^p` one-byte registers)
//!   when it stops paying for itself. Merge is element-wise register max,
//!   which is associative, commutative **and** idempotent — a bounded
//!   semilattice, so re-merging a sketch is harmless.
//! * [`HeavyHitters`] — a SpaceSaving summary of the most frequent values.
//!   Insertion is capacity-bounded (evict-min, inherit its count); merge is
//!   an exact key-wise count sum with no truncation, so merging is
//!   associative and commutative with the empty summary as identity (a true
//!   commutative monoid — truncating merges would break associativity).
//!   Compaction to the top-k happens only explicitly, at ranking time.
//!
//! Because both merges are exact aggregations, block → table → shard →
//! fleet rollups commute: merging per-block sketches in any grouping yields
//! the same table-level state, and merging per-shard [`TableSketch`]s gives
//! the fleet controller an exact global view without touching any row.
//!
//! [`SketchIndex`] mirrors [`crate::zonemap::TableIndex`]: built lazily by
//! [`crate::table::Table::sketch_index`], invalidated block-granularly by the
//! `drift` mutators through the same `DirtySet` machinery, and refreshed by
//! recomputing exactly the dirty blocks (per-block sketches cannot unlearn a
//! deleted row, so a dirty block is resketched from its values — the same
//! contract the zone maps use, proptested as refresh == rebuild). A block is
//! sketched by [`ColumnSketch::from_values`], a one-pass kernel that ends in
//! the same state as folding the block through the per-value `insert` API.
//!
//! Serialization is compact: dense registers encode as a hex string (two
//! chars per register), sparse codes and heavy-hitter counters as integer
//! arrays. Everything is plain safe Rust.

use std::collections::BTreeMap;

use serde::json::{self, Parser};
use serde::{Deserialize, Serialize};
use warper_linalg::bulk::{Bulk, Runs};

use crate::column::Column;
use crate::zonemap::{DirtySet, BLOCK_ROWS};

/// Default HLL precision: `2^10` = 1024 registers ≈ 1 KiB per column per
/// block when dense, ~3% relative standard error.
pub const DEFAULT_PRECISION: u8 = 10;

/// Smallest supported precision (16 registers).
pub const MIN_PRECISION: u8 = 4;

/// Largest supported precision (2^16 registers; register indices fit `u16`).
pub const MAX_PRECISION: u8 = 16;

/// Default SpaceSaving capacity per block-level heavy-hitter summary.
pub const DEFAULT_HH_CAP: usize = 16;

/// Top-k size used when comparing heavy-hitter summaries for churn.
pub const HH_TOP_K: usize = 8;

/// Deterministic 64-bit mix of an `f64` value (splitmix64 over the
/// canonicalized bit pattern; `-0.0` folds onto `0.0` and every NaN onto one
/// canonical NaN so equal-comparing values hash identically).
#[inline]
pub fn hash_value(v: f64) -> u64 {
    mix_bits(key_bits(v))
}

/// splitmix64 finalizer over canonical key bits.
#[inline]
fn mix_bits(bits: u64) -> u64 {
    let mut z = bits.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `2^-r` built directly from the exponent bits (exact for every rho the
/// 64-bit hash can produce, since `r <= 61 < 1023`). The estimator sums this
/// over every register of every column on each drift probe; `powi` here is
/// measurably the hot spot.
#[inline]
fn inv_pow2(r: u8) -> f64 {
    f64::from_bits((1023 - u64::from(r)) << 52)
}

/// Canonical key bits: `-0.0` folds onto `0.0` and every NaN onto one
/// canonical NaN. [`HeavyHitters`] keys on these (keys must round-trip to
/// values) and [`hash_value`] mixes them.
#[inline]
fn key_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Register index and rho (1-based rank of the first set bit after the index
/// bits; an all-zero remainder ranks `64 - p + 1`) of one hash at precision
/// `p`.
#[inline]
fn register_of(h: u64, p: u8) -> (u32, u8) {
    let idx = (h >> (64 - p)) as u32;
    let rest = h << p;
    let rho = if rest == 0 {
        64 - u32::from(p) + 1
    } else {
        rest.leading_zeros() + 1
    };
    (idx, rho as u8)
}

/// An HLL++-style distinct-count sketch with sparse and dense
/// representations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    p: u8,
    repr: Repr,
}

/// Register storage. Sparse holds sorted codes `(idx << 8) | rho`, one per
/// occupied register (the maximum rho seen for that register); dense holds
/// one byte per register.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Sparse(Vec<u32>),
    Dense(Vec<u8>),
}

impl DistinctSketch {
    /// An empty sketch at precision `p` (the merge identity for that
    /// precision).
    ///
    /// # Panics
    /// Panics if `p` is outside `MIN_PRECISION..=MAX_PRECISION` (precision is
    /// a compile-site constant in this codebase, not user input).
    pub fn new(p: u8) -> Self {
        assert!(
            (MIN_PRECISION..=MAX_PRECISION).contains(&p),
            "precision {p} outside {MIN_PRECISION}..={MAX_PRECISION}"
        );
        Self {
            p,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// The precision `p`.
    pub fn precision(&self) -> u8 {
        self.p
    }

    /// Number of registers `m = 2^p`.
    pub fn registers(&self) -> usize {
        1 << self.p
    }

    /// `true` while the sketch is in its sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Records one hashed element.
    pub fn insert_hash(&mut self, h: u64) {
        let (idx, rho) = register_of(h, self.p);
        self.bump(idx, rho);
    }

    /// Records one `f64` value.
    pub fn insert_value(&mut self, v: f64) {
        self.insert_hash(hash_value(v));
    }

    fn bump(&mut self, idx: u32, rho: u8) {
        match &mut self.repr {
            Repr::Sparse(codes) => {
                let code = (idx << 8) | u32::from(rho);
                // Codes sort by (idx, rho); probe for the register's entry.
                match codes.binary_search_by(|c| (c >> 8).cmp(&idx)) {
                    Ok(i) => {
                        if codes[i] < code {
                            codes[i] = code;
                        }
                    }
                    Err(i) => codes.insert(i, code),
                }
                self.maybe_promote();
            }
            Repr::Dense(regs) => {
                let slot = &mut regs[idx as usize];
                *slot = (*slot).max(rho);
            }
        }
    }

    /// Promotes sparse → dense once the sparse encoding (4 bytes/entry)
    /// outgrows a quarter of the dense footprint (1 byte/register).
    fn maybe_promote(&mut self) {
        let m = self.registers();
        if let Repr::Sparse(codes) = &self.repr {
            if codes.len() * 4 >= m {
                let mut regs = vec![0u8; m];
                for &c in codes {
                    let idx = (c >> 8) as usize;
                    regs[idx] = regs[idx].max((c & 0xff) as u8);
                }
                self.repr = Repr::Dense(regs);
            }
        }
    }

    /// Merges `other` into `self` (element-wise register max). Associative,
    /// commutative, idempotent.
    ///
    /// # Panics
    /// Panics on precision mismatch (a construction bug, not data).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.p, other.p, "merging sketches of different precision");
        match &other.repr {
            Repr::Sparse(codes) => {
                for &c in codes {
                    self.bump(c >> 8, (c & 0xff) as u8);
                }
            }
            Repr::Dense(theirs) => {
                // Densify self first: merging a dense sketch in means at
                // least m/4 occupied registers on their side.
                let m = self.registers();
                if let Repr::Sparse(codes) = &self.repr {
                    let mut regs = vec![0u8; m];
                    for &c in codes {
                        let idx = (c >> 8) as usize;
                        regs[idx] = regs[idx].max((c & 0xff) as u8);
                    }
                    self.repr = Repr::Dense(regs);
                }
                if let Repr::Dense(mine) = &mut self.repr {
                    for (a, &b) in mine.iter_mut().zip(theirs) {
                        *a = (*a).max(b);
                    }
                }
            }
        }
    }

    /// Estimated distinct count: the standard HLL estimator with
    /// linear-counting small-range correction (the large-range correction is
    /// unnecessary with a 64-bit hash).
    pub fn estimate(&self) -> f64 {
        let m = self.registers() as f64;
        let alpha = match self.registers() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            mm => 0.7213 / (1.0 + 1.079 / mm as f64),
        };
        let (sum, zeros) = match &self.repr {
            Repr::Sparse(codes) => {
                let occupied = codes.len() as f64;
                let occupied_sum: f64 = codes.iter().map(|&c| inv_pow2((c & 0xff) as u8)).sum();
                (occupied_sum + (m - occupied), m - occupied)
            }
            Repr::Dense(regs) => {
                // One fused pass; drift probes call this on every column of
                // a dense rollup, so the register loop is the hot spot.
                let mut sum = 0.0;
                let mut zeros = 0usize;
                for &r in regs {
                    sum += inv_pow2(r);
                    zeros += usize::from(r == 0);
                }
                (sum, zeros as f64)
            }
        };
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0.0 {
            m * (m / zeros).ln()
        } else {
            raw
        }
    }

    /// Structural validation for sketches arriving from disk: precision in
    /// range, register indices in bounds, rho values within the hash width.
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&self.p) {
            return Err(format!("sketch precision {} out of range", self.p));
        }
        let max_rho = 64 - self.p + 1;
        match &self.repr {
            Repr::Sparse(codes) => {
                // A quarter-full sketch is always dense (`maybe_promote`); a
                // longer sparse list denotes the same set but compares
                // unequal to the sketch rebuilt from it.
                if codes.len() * 4 >= self.registers() {
                    return Err(format!(
                        "sparse list of {} codes should be dense at p={}",
                        codes.len(),
                        self.p
                    ));
                }
                let m = self.registers() as u32;
                let mut prev = None;
                for &c in codes {
                    let (idx, rho) = (c >> 8, (c & 0xff) as u8);
                    if idx >= m {
                        return Err(format!("sparse register {idx} out of bounds"));
                    }
                    if rho == 0 || rho > max_rho {
                        return Err(format!("sparse rho {rho} invalid for p={}", self.p));
                    }
                    if prev.is_some_and(|p: u32| p >= idx) {
                        return Err("sparse codes not strictly sorted by register".into());
                    }
                    prev = Some(idx);
                }
            }
            Repr::Dense(regs) => {
                if regs.len() != self.registers() {
                    return Err(format!(
                        "dense register array has {} slots, expected {}",
                        regs.len(),
                        self.registers()
                    ));
                }
                if let Some(r) = regs.iter().find(|&&r| r > max_rho) {
                    return Err(format!("dense rho {r} invalid for p={}", self.p));
                }
            }
        }
        Ok(())
    }
}

/// The dense register array is the sketch's one bulk run; sparse codes and
/// heavy-hitter counters are small and stay in the skeleton.
impl Bulk for DistinctSketch {
    fn runs(&mut self, v: &mut dyn Runs) {
        if let Repr::Dense(regs) = &mut self.repr {
            v.u8s(regs);
        }
    }
}

impl Bulk for ColumnSketch {
    fn runs(&mut self, v: &mut dyn Runs) {
        self.distinct.runs(v);
    }
}

impl Bulk for TableSketch {
    fn runs(&mut self, v: &mut dyn Runs) {
        self.cols.runs(v);
    }
}

// Compact JSON encodings: `{"p":10,"s":[codes...]}` (sparse) or
// `{"p":10,"d":"hex registers"}` (dense, two hex chars per register).
impl Serialize for DistinctSketch {
    fn serialize(&self, out: &mut String) {
        out.push_str("{\"p\":");
        self.p.serialize(out);
        match &self.repr {
            Repr::Sparse(codes) => {
                out.push_str(",\"s\":");
                codes.serialize(out);
            }
            Repr::Dense(regs) => {
                out.push_str(",\"d\":\"");
                for &r in regs {
                    let hex = b"0123456789abcdef";
                    out.push(hex[(r >> 4) as usize] as char);
                    out.push(hex[(r & 0xf) as usize] as char);
                }
                out.push('"');
            }
        }
        out.push('}');
    }
}

impl<'de> Deserialize<'de> for DistinctSketch {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        p.begin_object()?;
        let mut first = true;
        let mut precision: Option<u8> = None;
        let mut repr: Option<Repr> = None;
        while let Some(key) = p.object_key(&mut first)? {
            match key.as_str() {
                "p" => precision = Some(u8::deserialize(p)?),
                "s" => repr = Some(Repr::Sparse(Vec::deserialize(p)?)),
                "d" => {
                    let hex = String::deserialize(p)?;
                    if hex.len() % 2 != 0 {
                        return Err(p.error("odd-length register hex"));
                    }
                    let mut regs = Vec::with_capacity(hex.len() / 2);
                    let digit = |c: u8| -> Result<u8, json::Error> {
                        match c {
                            b'0'..=b'9' => Ok(c - b'0'),
                            b'a'..=b'f' => Ok(c - b'a' + 10),
                            _ => Err(p.error("invalid register hex digit")),
                        }
                    };
                    for pair in hex.as_bytes().chunks_exact(2) {
                        regs.push((digit(pair[0])? << 4) | digit(pair[1])?);
                    }
                    repr = Some(Repr::Dense(regs));
                }
                _ => p.skip_value()?,
            }
        }
        let precision = precision.ok_or_else(|| p.error("sketch missing precision"))?;
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(p.error("sketch precision out of range"));
        }
        let sk = Self {
            p: precision,
            repr: repr.unwrap_or(Repr::Sparse(Vec::new())),
        };
        Ok(sk)
    }
}

/// A SpaceSaving heavy-hitter summary over a column's values.
///
/// Insertion is capacity-bounded: at `cap` counters, the minimum-count entry
/// is evicted and the newcomer inherits its count (the classic SpaceSaving
/// overestimate; the evicted mass is tracked in `dropped`). **Merge never
/// truncates** — it is an exact key-wise sum, so merging summaries is
/// associative and commutative with the empty summary as identity, and
/// rollups across blocks/shards are exact aggregations of the per-block
/// states. Callers compact to the top-k only at ranking time via
/// [`HeavyHitters::top`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeavyHitters {
    cap: u32,
    counters: BTreeMap<u64, u64>,
    dropped: u64,
}

impl HeavyHitters {
    /// An empty summary with insertion capacity `cap`.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1) as u32,
            counters: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Records one value.
    pub fn insert(&mut self, v: f64) {
        let key = key_bits(v);
        if let Some(c) = self.counters.get_mut(&key) {
            *c += 1;
            return;
        }
        if self.counters.len() < self.cap as usize {
            self.counters.insert(key, 1);
            return;
        }
        // SpaceSaving eviction: replace the minimum-count entry
        // (deterministic tie-break: smallest key bits) and inherit its count.
        let Some((&victim, &min)) = self.counters.iter().min_by_key(|&(&k, &c)| (c, k)) else {
            return; // cap >= 1 makes this unreachable
        };
        self.counters.remove(&victim);
        self.counters.insert(key, min + 1);
        self.dropped += min;
    }

    /// Merges `other` in: exact key-wise count sum, no truncation.
    pub fn merge(&mut self, other: &Self) {
        for (&k, &c) in &other.counters {
            *self.counters.entry(k).or_insert(0) += c;
        }
        self.dropped += other.dropped;
        self.cap = self.cap.max(other.cap);
    }

    /// Number of tracked counters (may exceed `cap` after merges).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.dropped == 0
    }

    /// Total mass evicted by SpaceSaving insertion (an upper bound on how
    /// much any single count is overestimated).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The `k` heaviest `(key bits, count)` entries in rank order (count
    /// descending, key bits ascending — total, since keys are distinct).
    /// Merged summaries hold cap × blocks entries, so the cut is a selection,
    /// not a full sort.
    fn top_keys(&self, k: usize) -> Vec<(u64, u64)> {
        if k == 0 {
            return Vec::new();
        }
        let rank = |a: &(u64, u64), b: &(u64, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let mut entries: Vec<(u64, u64)> = self.counters.iter().map(|(&k, &c)| (k, c)).collect();
        if entries.len() > k {
            entries.select_nth_unstable_by(k - 1, rank);
            entries.truncate(k);
        }
        entries.sort_unstable_by(rank);
        entries
    }

    /// The top `k` values by count, deterministically ordered
    /// (count descending, value bits ascending).
    pub fn top(&self, k: usize) -> Vec<(f64, u64)> {
        self.top_keys(k)
            .into_iter()
            .map(|(bits, c)| (f64::from_bits(bits), c))
            .collect()
    }

    /// Top-k churn versus a baseline summary: the Jaccard distance between
    /// the two top-k key sets. 0 when the heavy hitters are unchanged, 1
    /// when they are disjoint.
    pub fn churn_vs(&self, baseline: &Self, k: usize) -> f64 {
        let a = baseline.top_keys(k);
        let b = self.top_keys(k);
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = b
            .iter()
            .filter(|(key, _)| a.iter().any(|(other, _)| other == key))
            .count();
        let union = a.len() + b.len() - inter;
        1.0 - inter as f64 / union.max(1) as f64
    }

    /// Structural validation for summaries arriving from disk.
    pub fn validate(&self) -> Result<(), String> {
        if self.cap == 0 {
            return Err("heavy-hitter capacity must be positive".into());
        }
        if self.counters.values().any(|&c| c == 0) {
            return Err("heavy-hitter counter with zero count".into());
        }
        Ok(())
    }
}

// `{"cap":16,"dropped":0,"k":[[bits,count],...]}` — counters as pairs so the
// BTreeMap round-trips through the array-only stand-in data model.
impl Serialize for HeavyHitters {
    fn serialize(&self, out: &mut String) {
        out.push_str("{\"cap\":");
        self.cap.serialize(out);
        out.push_str(",\"dropped\":");
        self.dropped.serialize(out);
        out.push_str(",\"k\":");
        let pairs: Vec<(u64, u64)> = self.counters.iter().map(|(&k, &c)| (k, c)).collect();
        pairs.serialize(out);
        out.push('}');
    }
}

impl<'de> Deserialize<'de> for HeavyHitters {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        p.begin_object()?;
        let mut first = true;
        let mut cap = 0u32;
        let mut dropped = 0u64;
        let mut counters = BTreeMap::new();
        while let Some(key) = p.object_key(&mut first)? {
            match key.as_str() {
                "cap" => cap = u32::deserialize(p)?,
                "dropped" => dropped = u64::deserialize(p)?,
                "k" => {
                    // The encoder writes the map in key order; anything else
                    // (a duplicate would silently lose a count) is not ours.
                    let pairs: Vec<(u64, u64)> = Vec::deserialize(p)?;
                    if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
                        return Err(p.error("heavy-hitter keys not strictly ascending"));
                    }
                    counters = pairs.into_iter().collect();
                }
                _ => p.skip_value()?,
            }
        }
        Ok(Self {
            cap: cap.max(1),
            counters,
            dropped,
        })
    }
}

// `SlotSummary::count_tracked` keeps one flag per slot in a `u32`.
const _: () = assert!(DEFAULT_HH_CAP <= 32);

/// SpaceSaving at capacity [`DEFAULT_HH_CAP`] in flat slots: the block
/// kernel's scratch form of [`HeavyHitters`], same transitions as
/// [`HeavyHitters::insert`].
struct SlotSummary {
    /// Tracked keys; a free slot holds a sentinel of its own — the NaN
    /// patterns `u64::MAX - slot`, which [`key_bits`] never returns (it folds
    /// every NaN onto `f64::NAN`) — so all 16 keys are always distinct.
    keys: [u64; DEFAULT_HH_CAP],
    /// Counts; 0 marks a free slot.
    counts: [u64; DEFAULT_HH_CAP],
    dropped: u64,
}

impl SlotSummary {
    fn new() -> Self {
        Self {
            keys: std::array::from_fn(|slot| u64::MAX - slot as u64),
            counts: [0; DEFAULT_HH_CAP],
            dropped: 0,
        }
    }

    /// Counts `key` if a slot tracks it; `false` when none does.
    #[inline]
    fn count_tracked(&mut self, key: u64) -> bool {
        // Branch-free equality flags over all slots (vectorizes); the keys
        // are distinct, so at most one flag is set.
        let mut hits = 0u32;
        for (i, &k) in self.keys.iter().enumerate() {
            hits |= u32::from(k == key) << i;
        }
        if hits == 0 {
            return false;
        }
        self.counts[hits.trailing_zeros() as usize] += 1;
        true
    }

    /// Records `key` by one rule: the slot to bump is the key's own, else
    /// the `(count, key)`-minimum; it takes the key and counts one more,
    /// and what an evicted key had counted is dropped. Free slots count 0,
    /// below every tracked count, so they fill first.
    #[inline]
    fn record(&mut self, key: u64) {
        // `count << 64 | key` orders slots by `(count, key)`; the key's own
        // slot ranks 0, below all of them (a tracked key counts at least 1
        // and no sentinel is 0).
        let ranks: [u128; DEFAULT_HH_CAP] = std::array::from_fn(|i| {
            let (k, c) = (self.keys[i], self.counts[i]);
            if k == key {
                0
            } else {
                (u128::from(c) << 64) | u128::from(k)
            }
        });
        let lowest = ranks.iter().fold(u128::MAX, |low, &r| low.min(r));
        for (i, &rank) in ranks.iter().enumerate() {
            let here = rank == lowest;
            let evicts = here & (self.keys[i] != key);
            self.dropped += if evicts { self.counts[i] } else { 0 };
            self.keys[i] = if here { key } else { self.keys[i] };
            self.counts[i] += u64::from(here);
        }
    }

    fn into_summary(self) -> HeavyHitters {
        HeavyHitters {
            cap: DEFAULT_HH_CAP as u32,
            counters: (self.keys.into_iter().zip(self.counts))
                .filter(|&(_, count)| count != 0)
                .collect(),
            dropped: self.dropped,
        }
    }
}

/// The mergeable statistics for one column (of one block, or rolled up over
/// any set of blocks/shards).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSketch {
    /// Distinct-count sketch.
    pub distinct: DistinctSketch,
    /// Heavy-hitter summary.
    pub heavy: HeavyHitters,
}

impl ColumnSketch {
    /// An empty column sketch (the merge identity).
    pub fn empty() -> Self {
        Self {
            distinct: DistinctSketch::new(DEFAULT_PRECISION),
            heavy: HeavyHitters::new(DEFAULT_HH_CAP),
        }
    }

    /// Sketches one block of values in a single pass over fixed scratch — a
    /// register array and `SlotSummary` — and emits the state the
    /// per-value fold (`distinct.insert_value` + `heavy.insert` on
    /// [`ColumnSketch::empty`]) ends in, `==` and byte-equal when serialized
    /// (DESIGN.md §13; proptested):
    ///
    /// * register occupancy only grows, so the fold has promoted to dense
    ///   iff the final occupancy reaches `m / 4`;
    /// * a sparse list is the per-register maximum rho in register order;
    /// * the SpaceSaving victim is the `(count, key)`-minimum, which does
    ///   not depend on how the counters are stored.
    pub fn from_values(values: &[f64]) -> Self {
        const M: usize = 1 << DEFAULT_PRECISION;
        let mut regs = [0u8; M];
        let mut slots = SlotSummary::new();
        for &v in values {
            let key = key_bits(v);
            // Until a 17th distinct key evicts one, a tracked key needs only
            // its count — it was hashed when it was admitted, and register
            // max is idempotent — so a dictionary-like block never hashes
            // or ranks. After that `record` finds the hits itself.
            if slots.dropped == 0 && slots.count_tracked(key) {
                continue;
            }
            let (idx, rho) = register_of(mix_bits(key), DEFAULT_PRECISION);
            let reg = &mut regs[idx as usize];
            *reg = (*reg).max(rho);
            slots.record(key);
        }
        let occupied = regs.iter().filter(|&&r| r != 0).count();
        let repr = if occupied * 4 >= M {
            Repr::Dense(regs.to_vec())
        } else {
            let codes = regs.iter().zip(0u32..).filter(|(&r, _)| r != 0);
            Repr::Sparse(codes.map(|(&r, idx)| (idx << 8) | u32::from(r)).collect())
        };
        Self {
            distinct: DistinctSketch {
                p: DEFAULT_PRECISION,
                repr,
            },
            heavy: slots.into_summary(),
        }
    }

    /// Merges `other` in (component-wise).
    pub fn merge(&mut self, other: &Self) {
        self.distinct.merge(&other.distinct);
        self.heavy.merge(&other.heavy);
    }

    /// Structural validation for sketches arriving from disk.
    pub fn validate(&self) -> Result<(), String> {
        self.distinct.validate()?;
        self.heavy.validate()
    }
}

/// Table-level (or shard-/fleet-level) rollup of per-block sketches, plus
/// the row/change counters the drift signals are normalized by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSketch {
    /// Rows covered by the rollup.
    pub rows: u64,
    /// The table's monotone change counter at rollup time.
    pub rows_changed: u64,
    /// Per-column merged sketches.
    pub cols: Vec<ColumnSketch>,
}

impl TableSketch {
    /// The empty rollup (the merge identity).
    pub fn empty() -> Self {
        Self {
            rows: 0,
            rows_changed: 0,
            cols: Vec::new(),
        }
    }

    /// Merges `other` in: counters sum, columns merge position-wise (a
    /// shorter operand behaves as if padded with empty column sketches, so
    /// the merge stays total and associative).
    pub fn merge(&mut self, other: &Self) {
        self.rows += other.rows;
        self.rows_changed += other.rows_changed;
        while self.cols.len() < other.cols.len() {
            self.cols.push(ColumnSketch::empty());
        }
        for (mine, theirs) in self.cols.iter_mut().zip(&other.cols) {
            mine.merge(theirs);
        }
    }

    /// Estimated distinct count of column `c` (0 if out of range).
    pub fn distinct(&self, c: usize) -> f64 {
        self.cols.get(c).map_or(0.0, |s| s.distinct.estimate())
    }

    /// Drift signals of `self` (the current state) versus `baseline` (the
    /// state when the model was last trained). All signals are ≥ 0 and
    /// exactly 0 when the states are identical.
    pub fn drift_vs(&self, baseline: &Self) -> SketchDrift {
        let changed = self.rows_changed.saturating_sub(baseline.rows_changed);
        let changed_fraction = changed as f64 / (baseline.rows.max(1)) as f64;
        let n = self.cols.len().max(baseline.cols.len());
        let empty = ColumnSketch::empty();
        let mut per_column = Vec::with_capacity(n);
        for c in 0..n {
            let now = self.cols.get(c).unwrap_or(&empty);
            let base = baseline.cols.get(c).unwrap_or(&empty);
            let (d_now, d_base) = (now.distinct.estimate(), base.distinct.estimate());
            let distinct_shift = (d_now - d_base).abs() / d_base.max(1.0);
            let hh_churn = now.heavy.churn_vs(&base.heavy, HH_TOP_K);
            per_column.push(ColumnDriftSignal {
                distinct_shift,
                hh_churn,
            });
        }
        SketchDrift {
            changed_fraction,
            rows_changed: changed,
            max_distinct_shift: per_column
                .iter()
                .map(|c| c.distinct_shift)
                .fold(0.0, f64::max),
            max_hh_churn: per_column.iter().map(|c| c.hh_churn).fold(0.0, f64::max),
            per_column,
        }
    }

    /// Structural validation for rollups arriving from disk.
    pub fn validate(&self) -> Result<(), String> {
        for (i, c) in self.cols.iter().enumerate() {
            c.validate().map_err(|e| format!("column {i}: {e}"))?;
        }
        Ok(())
    }
}

/// Per-column drift signals derived from sketch comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnDriftSignal {
    /// `|distinct_now − distinct_base| / max(distinct_base, 1)`.
    pub distinct_shift: f64,
    /// Jaccard distance between the top-k heavy-hitter sets.
    pub hh_churn: f64,
}

/// The sketch-derived drift summary of a table (or shard) versus a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchDrift {
    /// Changed rows since the baseline over the baseline row count — the
    /// same statistic `ChangeLog::changed_fraction` reports, derived from
    /// the sketch counters instead of a live `ChangeLog`.
    pub changed_fraction: f64,
    /// Raw changed-row count since the baseline.
    pub rows_changed: u64,
    /// Largest per-column distinct-count shift.
    pub max_distinct_shift: f64,
    /// Largest per-column heavy-hitter churn.
    pub max_hh_churn: f64,
    /// Per-column signals.
    pub per_column: Vec<ColumnDriftSignal>,
}

impl SketchDrift {
    /// Scalar drift score used for ranking shards: the sum of the three
    /// normalized signals. Deterministic for identical inputs.
    pub fn score(&self) -> f64 {
        self.changed_fraction + self.max_distinct_shift + self.max_hh_churn
    }
}

/// The lazily-built, incrementally-refreshed per-block sketch index of a
/// table — the sketch analogue of [`crate::zonemap::TableIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct SketchIndex {
    rows: usize,
    /// `cols[c][b]` is the sketch of block `b` of column `c`.
    cols: Vec<Vec<ColumnSketch>>,
}

impl SketchIndex {
    /// Sketches every block of every column from scratch.
    pub fn build(columns: &[Column]) -> Self {
        let rows = columns.first().map_or(0, Column::len);
        let nb = rows.div_ceil(BLOCK_ROWS);
        let cols = columns
            .iter()
            .map(|c| {
                let values = c.values();
                (0..nb)
                    .map(|b| {
                        let (s, e) = block_range(b, rows);
                        ColumnSketch::from_values(&values[s..e])
                    })
                    .collect()
            })
            .collect();
        Self { rows, cols }
    }

    /// Resketches only the blocks `dirty` covers (plus any block whose row
    /// span differs from build time) and copies every clean block. Per-block
    /// sketches cannot unlearn rows, so a dirty block is recomputed from its
    /// values — equivalent to [`SketchIndex::build`] at the cost of the
    /// changed blocks only (proptested refresh == rebuild).
    pub fn refresh(&self, columns: &[Column], dirty: &DirtySet) -> Self {
        let rows = columns.first().map_or(0, Column::len);
        let nb = rows.div_ceil(BLOCK_ROWS);
        let prev_nb = self.rows.div_ceil(BLOCK_ROWS);
        let cols = columns
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let values = c.values();
                (0..nb)
                    .map(|b| {
                        let (s, e) = block_range(b, rows);
                        let (ps, pe) = block_range(b, self.rows);
                        let reusable = !dirty.covers(b)
                            && b < prev_nb
                            && self.cols.len() == columns.len()
                            && (ps, pe) == (s, e);
                        if reusable {
                            self.cols[ci][b].clone()
                        } else {
                            ColumnSketch::from_values(&values[s..e])
                        }
                    })
                    .collect()
            })
            .collect();
        Self { rows, cols }
    }

    /// Rows covered by the index.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.rows.div_ceil(BLOCK_ROWS)
    }

    /// The sketch of block `b` of column `c`.
    pub fn block(&self, c: usize, b: usize) -> &ColumnSketch {
        &self.cols[c][b]
    }

    /// Rolls the per-block sketches up into one [`TableSketch`].
    /// `rows_changed` is the owning table's monotone change counter, stamped
    /// into the rollup so drift comparisons can derive a changed fraction.
    pub fn rollup(&self, rows_changed: u64) -> TableSketch {
        let cols = self
            .cols
            .iter()
            .map(|blocks| {
                let mut acc = ColumnSketch::empty();
                for b in blocks {
                    acc.merge(b);
                }
                acc
            })
            .collect();
        TableSketch {
            rows: self.rows as u64,
            rows_changed,
            cols,
        }
    }
}

#[inline]
fn block_range(b: usize, rows: usize) -> (usize, usize) {
    let s = b * BLOCK_ROWS;
    (s.min(rows), ((b + 1) * BLOCK_ROWS).min(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl IntoIterator<Item = f64>) -> DistinctSketch {
        let mut s = DistinctSketch::new(DEFAULT_PRECISION);
        for v in values {
            s.insert_value(v);
        }
        s
    }

    #[test]
    fn distinct_estimate_small_and_large() {
        let s = sketch_of((0..100).map(f64::from));
        let est = s.estimate();
        assert!((est - 100.0).abs() / 100.0 < 0.08, "est {est}");
        assert!(s.is_sparse());

        let s = sketch_of((0..50_000).map(f64::from));
        let est = s.estimate();
        assert!((est - 50_000.0).abs() / 50_000.0 < 0.10, "est {est}");
        assert!(!s.is_sparse(), "50k distincts must promote to dense");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = DistinctSketch::new(DEFAULT_PRECISION);
        for _ in 0..10 {
            for v in 0..20 {
                s.insert_value(f64::from(v));
            }
        }
        let est = s.estimate();
        assert!((est - 20.0).abs() <= 3.0, "est {est}");
    }

    #[test]
    fn negative_zero_and_nan_fold() {
        let mut s = DistinctSketch::new(DEFAULT_PRECISION);
        s.insert_value(0.0);
        s.insert_value(-0.0);
        s.insert_value(f64::NAN);
        s.insert_value(-f64::NAN);
        let est = s.estimate();
        assert!((est - 2.0).abs() < 0.5, "est {est}");
    }

    #[test]
    fn merge_is_max_and_idempotent() {
        let a = sketch_of((0..1000).map(f64::from));
        let b = sketch_of((500..1500).map(f64::from));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        let union = sketch_of((0..1500).map(f64::from));
        assert_eq!(ab, union, "merge equals sketching the union stream");
        let mut twice = ab.clone();
        twice.merge(&ab);
        assert_eq!(twice, ab, "idempotent");
    }

    #[test]
    fn sparse_dense_merges_agree() {
        let sparse = sketch_of((0..30).map(f64::from));
        assert!(sparse.is_sparse());
        let dense = sketch_of((0..20_000).map(f64::from));
        assert!(!dense.is_sparse());
        let mut sd = sparse.clone();
        sd.merge(&dense);
        let mut ds = dense.clone();
        ds.merge(&sparse);
        assert_eq!(sd, ds);
    }

    #[test]
    fn distinct_serde_roundtrip_both_reprs() {
        for s in [sketch_of((0..10).map(f64::from)), {
            sketch_of((0..30_000).map(f64::from))
        }] {
            let mut json = String::new();
            s.serialize(&mut json);
            let mut p = Parser::new(&json);
            let back = DistinctSketch::deserialize(&mut p).unwrap();
            p.end().unwrap();
            assert_eq!(back, s);
            back.validate().unwrap();
        }
    }

    #[test]
    fn heavy_hitters_find_the_heavy_value() {
        let mut hh = HeavyHitters::new(4);
        for i in 0..200 {
            hh.insert(f64::from(i % 40)); // uniform noise
            hh.insert(7.0); // the heavy one
        }
        let top = hh.top(1);
        assert_eq!(top[0].0, 7.0);
        assert!(top[0].1 >= 200);
        hh.validate().unwrap();
    }

    #[test]
    fn heavy_hitter_merge_is_exact_sum() {
        let mut a = HeavyHitters::new(4);
        let mut b = HeavyHitters::new(4);
        for _ in 0..10 {
            a.insert(1.0);
            b.insert(1.0);
            b.insert(2.0);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        assert_eq!(ab.top(1)[0], (1.0, 20));
        // Merge does not truncate: both keys survive.
        assert_eq!(ab.len(), 2);
    }

    #[test]
    fn top_is_the_prefix_of_the_full_ranking() {
        // A merged summary (more entries than any k asked for) with ties.
        let mut hh = HeavyHitters::new(8);
        for block in 0..6 {
            let mut part = HeavyHitters::new(8);
            for i in 0..40 {
                part.insert(f64::from((i * (block + 1)) % 23));
            }
            hh.merge(&part);
        }
        let mut ranked: Vec<(f64, u64)> = hh
            .counters
            .iter()
            .map(|(&k, &c)| (f64::from_bits(k), c))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.to_bits().cmp(&b.0.to_bits())));
        for k in 0..=ranked.len() + 1 {
            assert_eq!(hh.top(k), ranked[..k.min(ranked.len())], "k = {k}");
        }
    }

    #[test]
    fn heavy_hitter_churn() {
        let mut base = HeavyHitters::new(8);
        let mut same = HeavyHitters::new(8);
        let mut moved = HeavyHitters::new(8);
        for i in 0..5 {
            for _ in 0..10 {
                base.insert(f64::from(i));
                same.insert(f64::from(i));
                moved.insert(f64::from(i + 100));
            }
        }
        assert_eq!(same.churn_vs(&base, 4), 0.0);
        assert_eq!(moved.churn_vs(&base, 4), 1.0);
        assert_eq!(HeavyHitters::new(4).churn_vs(&HeavyHitters::new(4), 4), 0.0);
    }

    #[test]
    fn heavy_serde_roundtrip() {
        let mut hh = HeavyHitters::new(3);
        for v in [1.0, 1.0, 2.0, 3.0, 4.0, -0.0, f64::NAN] {
            hh.insert(v);
        }
        let mut json = String::new();
        hh.serialize(&mut json);
        let mut p = Parser::new(&json);
        let back = HeavyHitters::deserialize(&mut p).unwrap();
        p.end().unwrap();
        assert_eq!(back, hh);
    }

    #[test]
    fn table_sketch_monoid_identity_and_drift_zero() {
        let cols = [Column::new(
            "a",
            crate::column::ColumnType::Real,
            (0..1000).map(f64::from).collect(),
        )];
        let idx = SketchIndex::build(&cols);
        let ts = idx.rollup(0);
        let mut merged = TableSketch::empty();
        merged.merge(&ts);
        assert_eq!(merged, ts, "empty is a left identity");
        let mut right = ts.clone();
        right.merge(&TableSketch::empty());
        assert_eq!(right, ts, "empty is a right identity");

        let d = ts.drift_vs(&ts);
        assert_eq!(d.changed_fraction, 0.0);
        assert_eq!(d.max_distinct_shift, 0.0);
        assert_eq!(d.max_hh_churn, 0.0);
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn rollup_equals_single_sketch_of_column() {
        // Block → table rollup must be an exact aggregation: merging the
        // per-block sketches equals sketching the whole column in one pass.
        let values: Vec<f64> = (0..(2 * BLOCK_ROWS + 123))
            .map(|i| (i % 977) as f64)
            .collect();
        let cols = [Column::new(
            "a",
            crate::column::ColumnType::Real,
            values.clone(),
        )];
        let idx = SketchIndex::build(&cols);
        assert_eq!(idx.n_blocks(), 3);
        let rolled = idx.rollup(7);
        assert_eq!(rolled.rows_changed, 7);
        let mut whole = ColumnSketch::from_values(&values);
        // Heavy-hitter insertion is order/partition dependent by design
        // (SpaceSaving), but the distinct sketch must agree exactly.
        whole.distinct.merge(&rolled.cols[0].distinct);
        assert_eq!(whole.distinct, rolled.cols[0].distinct);
    }

    #[test]
    fn sketch_drift_signals_fire_on_distribution_change() {
        let base_vals: Vec<f64> = (0..5000).map(|i| (i % 100) as f64).collect();
        let new_vals: Vec<f64> = (0..5000).map(|i| 1000.0 + (i % 2000) as f64).collect();
        let base =
            SketchIndex::build(&[Column::new("a", crate::column::ColumnType::Real, base_vals)])
                .rollup(0);
        let cur =
            SketchIndex::build(&[Column::new("a", crate::column::ColumnType::Real, new_vals)])
                .rollup(5000);
        let d = cur.drift_vs(&base);
        assert!(d.changed_fraction > 0.9, "{}", d.changed_fraction);
        assert!(d.max_distinct_shift > 5.0, "{}", d.max_distinct_shift);
        assert_eq!(d.max_hh_churn, 1.0);
        assert!(d.score() > 7.0);
    }

    #[test]
    fn table_sketch_serde_roundtrip() {
        let values: Vec<f64> = (0..3000).map(|i| (i % 300) as f64).collect();
        let idx = SketchIndex::build(&[Column::new("a", crate::column::ColumnType::Real, values)]);
        let ts = idx.rollup(42);
        let mut json = String::new();
        ts.serialize(&mut json);
        let mut p = Parser::new(&json);
        let back = TableSketch::deserialize(&mut p).unwrap();
        p.end().unwrap();
        assert_eq!(back, ts);
        back.validate().unwrap();
        // Round-trip is byte-stable: re-serializing yields identical text.
        let mut again = String::new();
        back.serialize(&mut again);
        assert_eq!(again, json);
    }

    #[test]
    fn decode_rejects_duplicate_and_unsorted_counter_keys() {
        let decode = |json: &str| HeavyHitters::deserialize(&mut Parser::new(json));
        assert!(decode(r#"{"cap":4,"dropped":0,"k":[[1,2],[3,1]]}"#).is_ok());
        // A duplicate would silently keep only the later count.
        assert!(decode(r#"{"cap":4,"dropped":0,"k":[[1,2],[1,3]]}"#).is_err());
        assert!(decode(r#"{"cap":4,"dropped":0,"k":[[3,1],[1,2]]}"#).is_err());
    }

    #[test]
    fn validate_rejects_sparse_list_past_the_promotion_point() {
        // p = 4: 16 registers, dense from 4 occupied on. Three codes are a
        // legal sparse sketch, four denote one that must be dense.
        let decode = |json: &str| DistinctSketch::deserialize(&mut Parser::new(json)).unwrap();
        decode(r#"{"p":4,"s":[1,257,513]}"#).validate().unwrap();
        let long = decode(r#"{"p":4,"s":[1,257,513,769]}"#);
        assert!(long.validate().is_err());
        let mut rebuilt = DistinctSketch::new(4);
        for idx in 0..4 {
            rebuilt.bump(idx, 1);
        }
        assert!(!rebuilt.is_sparse());
        rebuilt.validate().unwrap();
    }

    #[test]
    fn validate_rejects_corrupt_sketches() {
        let mut s = sketch_of((0..10).map(f64::from));
        if let Repr::Sparse(codes) = &mut s.repr {
            codes.push(u32::MAX); // register way out of bounds
        }
        assert!(s.validate().is_err());
        let hh = HeavyHitters {
            cap: 0,
            counters: BTreeMap::new(),
            dropped: 0,
        };
        assert!(hh.validate().is_err());
    }
}
