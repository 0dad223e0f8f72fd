//! Deterministic quantile sketches for fleet-scale aggregation.
//!
//! [`QuantileSketch`] summarizes one per-device quantity (MAE, watch energy,
//! battery life) in O(capacity · log(devices / capacity)) memory instead of
//! O(devices) raw values, with a *surfaced* worst-case rank-error bound
//! ([`QuantileSketch::rank_error_bound`]).
//!
//! It is also the exact summary. A sketch whose first block never fills
//! compacts nothing: every value stays raw at weight 1, the bound is zero and
//! each percentile is the exact nearest-rank order statistic
//! ([`DistributionSummary::nearest_rank_index`]). [`crate::ReportMode::Exact`]
//! is such a sketch, of capacity `usize::MAX`, so both report modes share one
//! order-statistics path and exact mode keeps no separate sample vector.
//!
//! ## Why not a textbook KLL compactor
//!
//! A classic KLL sketch draws its keep offsets from a random source, so two
//! runs over the same values yield different (equally valid) states, and the
//! fleet's byte-identity guarantee dies.
//!
//! This sketch instead pins the compactor hierarchy to **fold position**
//! (a Munro–Paterson-style dyadic merge tree): the i-th inserted value has
//! position i, and
//!
//! * a level-0 node = one complete block of `capacity` values (block `b`
//!   covers positions `[b·k, (b+1)·k)` for capacity `k`),
//! * completed nodes sit on a stack of strictly decreasing level, like the
//!   digits of a binary counter: a new block carries into the top node while
//!   the two share a level. A combine merges the two sorted buffers and keeps
//!   every other element, starting at an offset derived from a **fixed
//!   seed** and the parent's absolute position (a SplitMix64 hash) — never
//!   from a random source,
//! * values of the unfinished block are held raw (weight 1, zero error).
//!
//! The state is therefore a pure function of the inserted sequence. Every
//! fleet aggregation path folds devices in id order from id 0 — a
//! single-process run, `fleet-merge` and the daemon's merge all go through
//! [`crate::merge::MergeAccumulator`], which accepts only a gap-free
//! ascending tiling — so fold position equals device id, and every shard
//! tiling of a fleet yields the same sketch byte for byte.
//!
//! ## Error accounting
//!
//! Combining two level-`ℓ` nodes discards every other element of their
//! merged weight-`2^ℓ` buffers, which perturbs any rank by at most `2^ℓ`.
//! Each node tracks the total perturbation of the combines that built it;
//! [`QuantileSketch::rank_error_bound`] is the sum over live nodes — a
//! worst-case bound `E` such that the value returned for target rank `r` has
//! true rank within `[r - E, r + E]`. For `n` values the bound works out to
//! roughly `(n / 2) · log2(n / k) / k`-ish absolute ranks, i.e. an
//! `≈ log2(n/k) / (2k)` rank *fraction* — capacity 256 summarizes a million
//! devices in a few thousand retained samples at ~2 % worst-case rank error.

use crate::report::DistributionSummary;
use crate::scenario::splitmix64;

/// Default per-quantity sketch capacity (`k`): the block size of the dyadic
/// hierarchy and the number of values every compacted node retains.
pub const DEFAULT_SKETCH_CAPACITY: usize = 256;

/// Series name of the sketch-compaction counter emitted when a sketch-mode
/// aggregation finalizes.
pub const SKETCH_COMPACTIONS_SERIES: &str = "chris_sketch_compactions_total";

/// Help text of [`SKETCH_COMPACTIONS_SERIES`].
pub const SKETCH_COMPACTIONS_HELP: &str =
    "Sketch compactions performed while aggregating fleet distributions";

/// Series name of the retained-sample gauge emitted when a sketch-mode
/// aggregation finalizes.
pub const SKETCH_RETAINED_SERIES: &str = "chris_sketch_retained_samples";

/// Help text of [`SKETCH_RETAINED_SERIES`].
pub const SKETCH_RETAINED_HELP: &str =
    "Samples retained across the fleet aggregation's quantile sketches";

/// Fixed seed of the deterministic keep-offset choice. Never configurable:
/// reports are only reproducible because every run agrees on it.
const COMPACTION_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One compacted node of the dyadic hierarchy: a sorted, fixed-size summary
/// of `2^level` consecutive blocks.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    /// Height in the merge tree; the node covers `2^level` blocks and each
    /// retained value represents `2^level` raw values.
    level: u32,
    /// Exactly `capacity` values, sorted by [`f64::total_cmp`].
    values: Vec<f64>,
    /// Sum of every raw value the node covers (level-0 sums are taken in
    /// insertion order; a combine adds `left.sum + right.sum`).
    sum: f64,
    /// Worst-case rank perturbation accumulated by the combines that built
    /// this node, in raw ranks.
    error: u64,
}

/// A deterministic, append-only quantile sketch (see the [module
/// docs](self) for the construction).
///
/// Two sketches fed the same values in the same order are equal. Exact
/// `min`/`max` and a position-ordered `mean` are tracked alongside the
/// compacted rank structure.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Block size `k` of the dyadic hierarchy, in values.
    block: usize,
    /// Total values inserted.
    count: u64,
    /// Exact smallest value (`total_cmp` order); meaningless when empty.
    min: f64,
    /// Exact largest value (`total_cmp` order); meaningless when empty.
    max: f64,
    /// Total combines performed over the sketch's history.
    compactions: u64,
    /// Raw values of the unfinished block, in insertion order (weight 1).
    partial: Vec<f64>,
    /// Completed blocks, compacted: strictly decreasing levels, in position
    /// order.
    nodes: Vec<Node>,
}

impl QuantileSketch {
    /// Creates an empty sketch with [`DEFAULT_SKETCH_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SKETCH_CAPACITY)
    }

    /// Creates an empty sketch with block size / node capacity `capacity`.
    ///
    /// Larger capacities retain more samples and tighten the rank-error
    /// bound (`≈ log2(n/k) / (2k)` of the population). At `usize::MAX` the
    /// first block never fills, so the sketch is exact. The partial block
    /// preallocates at most [`DEFAULT_SKETCH_CAPACITY`] values.
    ///
    /// # Panics
    ///
    /// Panics when `capacity < 2`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "sketch capacity must be at least 2");
        Self {
            block: capacity,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            compactions: 0,
            partial: Vec::with_capacity(capacity.min(DEFAULT_SKETCH_CAPACITY)),
            nodes: Vec::new(),
        }
    }

    /// Total values inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Values currently retained (the raw partial block plus compacted node
    /// buffers) — the sketch's memory footprint in samples. For `n` values
    /// this is O(capacity · log(n / capacity)), not O(n), once the first
    /// block has filled.
    pub fn retained(&self) -> usize {
        self.partial.len() + self.nodes.iter().map(|n| n.values.len()).sum::<usize>()
    }

    /// Total combines performed over the sketch's history.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Worst-case absolute rank error `E`, in raw ranks: the value returned
    /// by [`QuantileSketch::percentile`] for target rank `r` is guaranteed
    /// to have true (`total_cmp`) rank within `[r - E, r + E]`.
    pub fn rank_error_bound(&self) -> u64 {
        self.nodes.iter().map(|n| n.error).sum()
    }

    /// [`QuantileSketch::rank_error_bound`] as a fraction of the inserted
    /// population (zero when empty).
    pub fn rank_error_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.rank_error_bound() as f64 / self.count as f64
        }
    }

    /// Exact smallest inserted value; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest inserted value; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean: per-node sums in position order plus the partial block's sum
    /// in insertion order, divided by the count. Deterministic for a given
    /// insertion sequence; with nothing compacted it is `Σ values / n`.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // `Sum for f64` starts from −0.0, the additive identity: a leading
        // `0.0 +` would turn the mean of an all-−0.0 sample into +0.0.
        let nodes = self.nodes.iter().map(|node| node.sum).sum::<f64>();
        let total = nodes + self.partial.iter().sum::<f64>();
        Some(total / self.count as f64)
    }

    /// Estimated nearest-rank `p`th percentile: the first retained value (in
    /// `total_cmp` order) whose cumulative weight passes the exact rank
    /// [`DistributionSummary::nearest_rank_index`]. `None` when empty.
    ///
    /// The estimate's true rank is within [`QuantileSketch::rank_error_bound`]
    /// of the target.
    pub fn percentile(&self, p: u32) -> Option<f64> {
        self.percentiles([p]).map(|[value]| value)
    }

    /// [`QuantileSketch::percentile`] for each of the ascending `ps`, from
    /// one sort of the retained values.
    fn percentiles<const N: usize>(&self, ps: [u32; N]) -> Option<[f64; N]> {
        debug_assert!(ps.is_sorted(), "percentiles {ps:?} not ascending");
        if self.count == 0 {
            return None;
        }
        if self.nodes.is_empty() {
            // Every value is raw at weight 1: the rank indexes the sample.
            let mut sorted = self.partial.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            return Some(raw_percentiles(&sorted, ps));
        }
        let count = usize::try_from(self.count).unwrap_or(usize::MAX);
        let ranks = ps.map(|p| DistributionSummary::nearest_rank_index(p, count));
        let mut items: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        items.extend(self.partial.iter().map(|&v| (v, 1)));
        for node in &self.nodes {
            let weight = 1u64 << node.level;
            items.extend(node.values.iter().map(|&v| (v, weight)));
        }
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut walk = items.iter();
        let (mut value, mut cumulative) = (f64::NAN, 0u64);
        Some(ranks.map(|rank| {
            while cumulative <= rank as u64 {
                let Some(&(next, weight)) = walk.next() else {
                    break;
                };
                value = next;
                cumulative += weight;
            }
            value
        }))
    }

    /// The [`DistributionSummary`] of the sketched population: exact
    /// `min`/`max`, position-ordered `mean`, and sketched p50/p90/p99 (all
    /// exact while nothing has compacted). `None` when empty.
    pub fn summary(&self) -> Option<DistributionSummary> {
        let [p50, p90, p99] = self.percentiles([50, 90, 99])?;
        Some(DistributionSummary {
            min: self.min()?,
            mean: self.mean()?,
            p50,
            p90,
            p99,
            max: self.max()?,
        })
    }

    /// [`QuantileSketch::summary`], consuming the sketch: with nothing
    /// compacted it sorts the raw values in place instead of sorting a copy.
    pub fn into_summary(mut self) -> Option<DistributionSummary> {
        if !self.nodes.is_empty() {
            return self.summary();
        }
        // The mean sums in insertion order, so it is taken before the sort.
        // Values equal under `total_cmp` have equal bits, so an unstable
        // sort, which needs no scratch buffer, orders them as a stable one.
        let (min, mean, max) = (self.min()?, self.mean()?, self.max()?);
        self.partial.sort_unstable_by(f64::total_cmp);
        let [p50, p90, p99] = raw_percentiles(&self.partial, [50, 90, 99]);
        Some(DistributionSummary {
            min,
            mean,
            p50,
            p90,
            p99,
            max,
        })
    }

    /// Appends one value at the next position.
    pub fn insert(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            if value.total_cmp(&self.min).is_lt() {
                self.min = value;
            }
            if value.total_cmp(&self.max).is_gt() {
                self.max = value;
            }
        }
        self.count += 1;
        self.partial.push(value);
        if self.partial.len() == self.block {
            self.complete_block();
        }
    }

    /// Turns the full partial block into a level-0 node and carries it into
    /// the stack while the top node shares its level.
    fn complete_block(&mut self) {
        let next = Vec::with_capacity(self.block.min(DEFAULT_SKETCH_CAPACITY));
        let mut values = std::mem::replace(&mut self.partial, next);
        // The block's sum is taken in insertion order *before* sorting.
        let sum = values.iter().sum::<f64>();
        values.sort_by(f64::total_cmp);
        let mut node = Node {
            level: 0,
            values,
            sum,
            error: 0,
        };
        // Index of the first block the carried node covers.
        let mut base = self.count / self.block as u64 - 1;
        while self.nodes.last().is_some_and(|top| top.level == node.level) {
            let left = self.nodes.pop().expect("top node checked above");
            base -= 1u64 << left.level;
            node = self.combine(base, left, node);
        }
        self.nodes.push(node);
    }

    /// Combines two adjacent level-`ℓ` nodes into their level-`ℓ+1` parent
    /// starting at block `base`: merge the sorted buffers, keep every other
    /// element starting at the fixed-seed offset derived from the parent's
    /// absolute position.
    fn combine(&mut self, base: u64, left: Node, right: Node) -> Node {
        debug_assert_eq!(left.level, right.level, "siblings must share a level");
        let child_level = left.level;
        let level = child_level + 1;
        // Stable sort of two sorted runs is a linear merge; ties under
        // `total_cmp` are bit-identical, so the order among them is moot.
        let mut merged = left.values;
        merged.extend_from_slice(&right.values);
        merged.sort_by(f64::total_cmp);
        let offset = (splitmix64(COMPACTION_SEED ^ (u64::from(level) << 56) ^ base) & 1) as usize;
        let values: Vec<f64> = merged.iter().skip(offset).step_by(2).copied().collect();
        debug_assert_eq!(values.len(), self.block);
        self.compactions += 1;
        Node {
            level,
            values,
            sum: left.sum + right.sum,
            // Discarding every other weight-2^ℓ element perturbs any rank by
            // at most one such element.
            error: left.error + right.error + (1u64 << child_level),
        }
    }
}

/// The nearest-rank `ps` percentiles of `sorted`, a non-empty sample sorted
/// by `total_cmp`.
fn raw_percentiles<const N: usize>(sorted: &[f64], ps: [u32; N]) -> [f64; N] {
    ps.map(|p| sorted[DistributionSummary::nearest_rank_index(p, sorted.len())])
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-values for tests.
    fn value_for(id: u64) -> f64 {
        (splitmix64(id) % 100_000) as f64 / 100.0
    }

    fn sequential(capacity: usize, n: u64) -> QuantileSketch {
        let mut sketch = QuantileSketch::with_capacity(capacity);
        for id in 0..n {
            sketch.insert(value_for(id));
        }
        sketch
    }

    #[test]
    fn empty_sketch_reports_nothing() {
        let sketch = QuantileSketch::new();
        assert!(sketch.is_empty());
        assert_eq!(sketch.percentile(50), None);
        assert_eq!(sketch.mean(), None);
        assert_eq!(sketch.min(), None);
        assert_eq!(sketch.summary(), None);
        assert_eq!(sketch.rank_error_bound(), 0);
        assert_eq!(sketch.retained(), 0);
    }

    #[test]
    fn a_consumed_sketch_summarizes_as_a_borrowed_one() {
        let bits =
            |s: DistributionSummary| [s.min, s.mean, s.p50, s.p90, s.p99, s.max].map(f64::to_bits);
        // Exact (raw values sorted in place), compacting, and empty.
        for (capacity, n) in [(usize::MAX, 1000), (16, 1000), (16, 0)] {
            let sketch = sequential(capacity, n);
            let borrowed = sketch.summary();
            assert_eq!(
                sketch.into_summary().map(bits),
                borrowed.map(bits),
                "capacity {capacity}, {n} values"
            );
        }
    }

    #[test]
    fn under_one_block_the_sketch_is_exact() {
        let mut sketch = QuantileSketch::with_capacity(256);
        for v in [5.0, 1.0, 9.0, 3.0, 7.0] {
            sketch.insert(v);
        }
        assert_eq!(sketch.rank_error_bound(), 0);
        assert_eq!(sketch.compactions(), 0);
        assert_eq!(sketch.percentile(50), Some(5.0));
        assert_eq!(sketch.percentile(99), Some(9.0));
        assert_eq!(sketch.min(), Some(1.0));
        assert_eq!(sketch.max(), Some(9.0));
        assert!((sketch.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn compaction_keeps_the_node_count_logarithmic() {
        let sketch = sequential(4, 1024);
        // 256 blocks collapse into one level-8 node.
        assert_eq!(sketch.nodes.len(), 1);
        assert_eq!(sketch.nodes[0].level, 8);
        assert_eq!(sketch.retained(), 4);
        assert_eq!(sketch.compactions(), 255);
        // A full binary tree over 256 blocks accumulates 128 combines per
        // level times 2^l raw ranks each over 8 levels: 8 * 128 total. (The
        // bound is vacuous at capacity 4 — tiny capacities are for testing
        // structure, not accuracy.)
        assert_eq!(sketch.rank_error_bound(), 8 * 128);
    }

    #[test]
    fn node_levels_are_the_binary_digits_of_the_block_count() {
        // 45 values at capacity 4: 11 = 0b1011 complete blocks plus one raw
        // value. Each set bit is one node, highest level at the bottom.
        let sketch = sequential(4, 45);
        let levels: Vec<u32> = sketch.nodes.iter().map(|n| n.level).collect();
        assert_eq!(levels, [3, 1, 0]);
        assert_eq!(sketch.partial.len(), 1);
        assert_eq!(sketch.retained(), 3 * 4 + 1);
        // Each combine removes one node: 11 blocks - 3 nodes.
        assert_eq!(sketch.compactions(), 8);
    }

    #[test]
    fn keep_offset_is_a_pure_function_of_position() {
        // Two independently built sketches over the same data are equal —
        // in particular their compactions chose identical offsets.
        assert_eq!(sequential(8, 1000), sequential(8, 1000));
    }
}
