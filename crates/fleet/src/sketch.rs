//! Deterministic, mergeable quantile sketches for fleet-scale aggregation.
//!
//! [`QuantileSketch`] summarizes one per-device quantity (MAE, watch energy,
//! battery life) in O(capacity · log(devices / capacity)) memory instead of
//! the O(devices) sample vector exact aggregation keeps, with a *surfaced*
//! worst-case rank-error bound ([`QuantileSketch::rank_error_bound`]).
//!
//! ## Why not a textbook KLL compactor
//!
//! A classic KLL sketch compacts whenever a level buffer fills, so its
//! internal state depends on *arrival order*: merging shard A into shard B
//! and B into A yield different (equally valid) states, and the fleet's
//! byte-identity guarantee — the same report for any shard tiling — dies.
//!
//! This sketch instead pins the compactor hierarchy to the **absolute
//! device-id space** (a Munro–Paterson-style dyadic merge tree):
//!
//! * level-0 node = one complete id-aligned block of `capacity` values
//!   (block `b` covers ids `[b·k, (b+1)·k)` for capacity `k`),
//! * two sibling nodes at level `ℓ` (blocks `b` and `b + 2^ℓ` with
//!   `b % 2^(ℓ+1) == 0`) always combine into one level-`ℓ+1` node: the two
//!   sorted buffers are merged and every other element kept, starting at an
//!   offset derived from a **fixed seed** and the node's absolute position
//!   (a SplitMix64 hash) — never from arrival order or a random source,
//! * values whose ids do not yet fill an aligned block are held raw (weight
//!   1, zero error) in partial-block runs.
//!
//! Combining is forced whenever both siblings exist and the combining order
//! never changes the result (each combine is a pure function of the two
//! child states and the node's absolute position, and distinct combinable
//! pairs are disjoint), so the canonical state is a pure function of the
//! *multiset* of `(id, value)` insertions. [`QuantileSketch::merge`] is
//! therefore associative, commutative and merge-order invariant **by
//! construction** — not just up to rank error, but byte for byte.
//!
//! ## Error accounting
//!
//! Combining two level-`ℓ` nodes discards every other element of their
//! merged weight-`2^ℓ` buffers, which perturbs any rank by at most `2^ℓ`.
//! Each node tracks the total perturbation of the combines that built it;
//! [`QuantileSketch::rank_error_bound`] is the sum over live nodes — a
//! worst-case bound `E` such that the value returned for target rank `r` has
//! true rank within `[r - E, r + E]`. For ids `0..n` the bound works out to
//! roughly `(n / 2) · log2(n / k) / k`-ish absolute ranks, i.e. an
//! `≈ log2(n/k) / (2k)` rank *fraction* — capacity 256 summarizes a million
//! devices in a few thousand retained samples at ~2 % worst-case rank error.

use std::collections::BTreeMap;

use crate::report::DistributionSummary;

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
/// two sketches only canonicalize identically because they agree on it.
const COMPACTION_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a well-mixed pure function of its input, used to
/// derive each combine's keep-offset from the node's absolute position.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One compacted node of the dyadic hierarchy: a sorted, fixed-size summary
/// of the `2^level` consecutive blocks starting at its key.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    /// Height in the merge tree; the node covers `2^level` blocks and each
    /// retained value represents `2^level` raw values.
    level: u32,
    /// Exactly `capacity` values, sorted by [`f64::total_cmp`].
    values: Vec<f64>,
    /// Canonical sum of every raw value the node covers (level-0 sums are
    /// taken in id order; a combine adds `left.sum + right.sum`).
    sum: f64,
    /// Worst-case rank perturbation accumulated by the combines that built
    /// this node, in raw ranks.
    error: u64,
}

impl Node {
    /// Raw values each retained value stands for.
    fn weight(&self) -> u64 {
        1u64 << self.level
    }

    /// Blocks the node covers.
    fn span(&self) -> u64 {
        1u64 << self.level
    }
}

/// A deterministic, mergeable quantile sketch over `(device id, value)`
/// insertions (see the [module docs](self) for the construction).
///
/// Two sketches built from the same multiset of insertions are equal —
/// regardless of insertion order, of how the id range was tiled into
/// sub-sketches, or of the order those sub-sketches were [merged]. Exact
/// `min`/`max` and a canonical `mean` are tracked alongside the compacted
/// rank structure.
///
/// [merged]: QuantileSketch::merge
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Block size `k` of the dyadic hierarchy, in device ids.
    block: u64,
    /// Total values inserted.
    count: u64,
    /// Exact smallest value (`total_cmp` order); meaningless when empty.
    min: f64,
    /// Exact largest value (`total_cmp` order); meaningless when empty.
    max: f64,
    /// Total combines performed over the sketch's history (merge-order
    /// invariant: the canonical forest fixes how many combines build it).
    compactions: u64,
    /// Partial-block raw values: start id → values in id order (weight 1).
    runs: BTreeMap<u64, Vec<f64>>,
    /// Compacted nodes: start *block index* → node.
    nodes: BTreeMap<u64, Node>,
}

impl QuantileSketch {
    /// Creates an empty sketch with [`DEFAULT_SKETCH_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SKETCH_CAPACITY)
    }

    /// Creates an empty sketch with block size / node capacity `capacity`.
    ///
    /// Larger capacities retain more samples and tighten the rank-error
    /// bound (`≈ log2(n/k) / (2k)` of the population). All sketches that
    /// will ever be merged must share one capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity < 2`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "sketch capacity must be at least 2");
        Self {
            block: capacity as u64,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            compactions: 0,
            runs: BTreeMap::new(),
            nodes: BTreeMap::new(),
        }
    }

    /// The block size / node capacity the sketch was created with.
    pub fn capacity(&self) -> usize {
        self.block as usize
    }

    /// Total values inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Values currently retained (raw runs plus compacted node buffers) —
    /// the sketch's memory footprint in samples. For ids `0..n` this is
    /// O(capacity · log(n / capacity)), not O(n).
    pub fn retained(&self) -> usize {
        self.runs.values().map(Vec::len).sum::<usize>()
            + self.nodes.values().map(|n| n.values.len()).sum::<usize>()
    }

    /// Total combines performed over the sketch's history (including the
    /// history of sketches merged into it).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Worst-case absolute rank error `E`, in raw ranks: the value returned
    /// by [`QuantileSketch::percentile`] for target rank `r` is guaranteed
    /// to have true (`total_cmp`) rank within `[r - E, r + E]`.
    pub fn rank_error_bound(&self) -> u64 {
        self.nodes.values().map(|n| n.error).sum()
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

    /// Canonical mean: per-node sums folded in ascending id order, divided
    /// by the count. Deterministic for a given multiset of insertions (the
    /// fold order is the canonical decomposition, not the arrival order).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mut parts: Vec<(u64, f64)> = Vec::with_capacity(self.runs.len() + self.nodes.len());
        for (&start, values) in &self.runs {
            parts.push((start, values.iter().sum::<f64>()));
        }
        for (&base, node) in &self.nodes {
            parts.push((base * self.block, node.sum));
        }
        parts.sort_unstable_by_key(|&(start, _)| start);
        let total = parts.iter().fold(0.0, |acc, &(_, sum)| acc + sum);
        Some(total / self.count as f64)
    }

    /// Estimated nearest-rank `p`th percentile: the first retained value (in
    /// `total_cmp` order) whose cumulative weight reaches the exact target
    /// rank `ceil(p · count / 100)`. `None` when empty.
    ///
    /// The estimate's true rank is within [`QuantileSketch::rank_error_bound`]
    /// of the target.
    pub fn percentile(&self, p: u32) -> Option<f64> {
        debug_assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
        if self.count == 0 {
            return None;
        }
        let target = (u128::from(p) * u128::from(self.count))
            .div_ceil(100)
            .max(1);
        let mut items: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for values in self.runs.values() {
            items.extend(values.iter().map(|&v| (v, 1)));
        }
        for node in self.nodes.values() {
            let weight = node.weight();
            items.extend(node.values.iter().map(|&v| (v, weight)));
        }
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cumulative = 0u128;
        for &(value, weight) in &items {
            cumulative += u128::from(weight);
            if cumulative >= target {
                return Some(value);
            }
        }
        items.last().map(|&(value, _)| value)
    }

    /// The [`DistributionSummary`] of the sketched population: exact
    /// `min`/`max`, canonical `mean`, and sketched p50/p90/p99. `None` when
    /// empty.
    pub fn summary(&self) -> Option<DistributionSummary> {
        Some(DistributionSummary {
            min: self.min()?,
            mean: self.mean()?,
            p50: self.percentile(50)?,
            p90: self.percentile(90)?,
            p99: self.percentile(99)?,
            max: self.max()?,
        })
    }

    /// Inserts one `(device id, value)` observation.
    ///
    /// Each id must be inserted at most once across the sketch (and across
    /// every sketch later merged with it) — ids are the coordinates of the
    /// dyadic hierarchy. Insertion order is free; ascending order (the order
    /// every aggregation path already uses) is the cheapest.
    pub fn insert(&mut self, id: u64, value: f64) {
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
        match self.runs.range_mut(..=id).next_back() {
            Some((&start, run)) if start + run.len() as u64 == id => run.push(value),
            _ => {
                self.runs.insert(id, vec![value]);
            }
        }
        self.normalize();
    }

    /// Folds `other` into `self`.
    ///
    /// Associative, commutative and merge-order invariant: any merge order
    /// over any tiling of the id space yields a byte-identical sketch,
    /// because both sides re-canonicalize onto the same id-pinned hierarchy.
    ///
    /// # Panics
    ///
    /// Panics when the capacities differ or the two sketches cover
    /// overlapping device ids (each id may be inserted once, period).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.block, other.block,
            "cannot merge sketches of different capacities"
        );
        assert!(
            !self.overlaps(other),
            "cannot merge sketches covering overlapping device ids"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if other.min.total_cmp(&self.min).is_lt() {
            self.min = other.min;
        }
        if other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
        self.count += other.count;
        self.compactions += other.compactions;
        for (&start, values) in &other.runs {
            self.runs.insert(start, values.clone());
        }
        for (&base, node) in &other.nodes {
            self.nodes.insert(base, node.clone());
        }
        self.normalize();
    }

    /// The id intervals `[start, end)` the sketch covers, sorted.
    fn covered(&self) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> = self
            .runs
            .iter()
            .map(|(&start, values)| (start, start + values.len() as u64))
            .chain(
                self.nodes
                    .iter()
                    .map(|(&base, node)| (base * self.block, (base + node.span()) * self.block)),
            )
            .collect();
        spans.sort_unstable();
        spans
    }

    /// Whether any id is covered by both sketches.
    fn overlaps(&self, other: &Self) -> bool {
        let mut spans = self.covered();
        spans.extend(other.covered());
        spans.sort_unstable();
        spans.windows(2).any(|pair| pair[1].0 < pair[0].1)
    }

    /// Restores the canonical form: join adjacent runs, materialize every
    /// complete id-aligned block as a level-0 node, combine siblings to a
    /// fixpoint. Idempotent, and confluent because each combine is a pure
    /// function of the two child states and the node's absolute position.
    fn normalize(&mut self) {
        self.coalesce_runs();
        self.extract_blocks();
        self.combine_siblings();
    }

    /// Joins raw runs that have become id-adjacent (after a merge brought in
    /// a neighbouring shard's partial block).
    fn coalesce_runs(&mut self) {
        let mut rebuilt: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (start, values) in std::mem::take(&mut self.runs) {
            if let Some((&last_start, last)) = rebuilt.range_mut(..=start).next_back() {
                let last_end = last_start + last.len() as u64;
                debug_assert!(last_end <= start, "raw runs overlap");
                if last_end == start {
                    last.extend(values);
                    continue;
                }
            }
            rebuilt.insert(start, values);
        }
        self.runs = rebuilt;
    }

    /// Cuts every complete id-aligned block out of the raw runs into a
    /// level-0 node; partial prefixes/suffixes stay raw.
    fn extract_blocks(&mut self) {
        let block = self.block;
        let mut rebuilt: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (start, values) in std::mem::take(&mut self.runs) {
            let end = start + values.len() as u64;
            let first_block = start.div_ceil(block);
            let block_end = end / block;
            if first_block >= block_end {
                rebuilt.insert(start, values);
                continue;
            }
            let prefix_len = (first_block * block - start) as usize;
            if prefix_len > 0 {
                rebuilt.insert(start, values[..prefix_len].to_vec());
            }
            for b in first_block..block_end {
                let offset = (b * block - start) as usize;
                let raw = &values[offset..offset + block as usize];
                // The canonical sum is taken in id order *before* sorting.
                let sum = raw.iter().sum::<f64>();
                let mut sorted = raw.to_vec();
                sorted.sort_by(f64::total_cmp);
                let previous = self.nodes.insert(
                    b,
                    Node {
                        level: 0,
                        values: sorted,
                        sum,
                        error: 0,
                    },
                );
                debug_assert!(previous.is_none(), "block {b} materialized twice");
            }
            let suffix_offset = (block_end * block - start) as usize;
            if suffix_offset < values.len() {
                rebuilt.insert(block_end * block, values[suffix_offset..].to_vec());
            }
        }
        for (start, values) in rebuilt {
            self.runs.insert(start, values);
        }
    }

    /// Combines aligned same-level siblings until none remain.
    fn combine_siblings(&mut self) {
        while let Some((base, level)) = self.nodes.iter().find_map(|(&base, node)| {
            let span = node.span();
            if base % (span * 2) != 0 {
                return None;
            }
            let sibling = self.nodes.get(&(base + span))?;
            (sibling.level == node.level).then_some((base, node.level))
        }) {
            let span = 1u64 << level;
            let left = self.nodes.remove(&base).expect("sibling pair located");
            let right = self
                .nodes
                .remove(&(base + span))
                .expect("sibling pair located");
            let combined = self.combine(base, left, right);
            self.nodes.insert(base, combined);
        }
    }

    /// Combines two level-`ℓ` siblings into their level-`ℓ+1` parent: merge
    /// the sorted buffers, keep every other element starting at the
    /// fixed-seed offset derived from the parent's absolute position.
    fn combine(&mut self, base: u64, left: Node, right: Node) -> Node {
        debug_assert_eq!(left.level, right.level, "siblings must share a level");
        let child_level = left.level;
        let level = child_level + 1;
        let merged = merge_sorted(&left.values, &right.values);
        let offset = (splitmix64(COMPACTION_SEED ^ (u64::from(level) << 56) ^ base) & 1) as usize;
        let values: Vec<f64> = merged.iter().skip(offset).step_by(2).copied().collect();
        debug_assert_eq!(values.len(), self.block as usize);
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

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Merges two `total_cmp`-sorted slices into one sorted vector.
fn merge_sorted(left: &[f64], right: &[f64]) -> Vec<f64> {
    let mut merged = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if left[i].total_cmp(&right[j]).is_le() {
            merged.push(left[i]);
            i += 1;
        } else {
            merged.push(right[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&left[i..]);
    merged.extend_from_slice(&right[j..]);
    merged
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
            sketch.insert(id, value_for(id));
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
    fn under_one_block_the_sketch_is_exact() {
        let mut sketch = QuantileSketch::with_capacity(256);
        let values = [5.0, 1.0, 9.0, 3.0, 7.0];
        for (id, &v) in values.iter().enumerate() {
            sketch.insert(id as u64, v);
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
        assert_eq!(sketch.nodes[&0].level, 8);
        assert_eq!(sketch.retained(), 4);
        assert_eq!(sketch.compactions(), 255);
        // A full binary tree over 256 blocks accumulates 128 combines per
        // level times 2^l raw ranks each over 8 levels: 8 * 128 total. (The
        // bound is vacuous at capacity 4 — tiny capacities are for testing
        // structure, not accuracy.)
        assert_eq!(sketch.rank_error_bound(), 8 * 128);
    }

    #[test]
    fn split_streams_merge_to_the_sequential_sketch_byte_for_byte() {
        for cut in [1u64, 3, 8, 17, 100, 255] {
            let whole = sequential(8, 256);
            let mut left = QuantileSketch::with_capacity(8);
            for id in 0..cut {
                left.insert(id, value_for(id));
            }
            let mut right = QuantileSketch::with_capacity(8);
            for id in cut..256 {
                right.insert(id, value_for(id));
            }
            // Either merge direction reproduces the sequential state.
            let mut forward = left.clone();
            forward.merge(&right);
            assert_eq!(forward, whole, "forward merge at cut {cut}");
            let mut backward = right;
            backward.merge(&left);
            assert_eq!(backward, whole, "backward merge at cut {cut}");
        }
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let ascending = sequential(4, 64);
        let mut descending = QuantileSketch::with_capacity(4);
        for id in (0..64).rev() {
            descending.insert(id, value_for(id));
        }
        assert_eq!(ascending, descending);
    }

    #[test]
    #[should_panic(expected = "overlapping device ids")]
    fn overlapping_merges_are_rejected() {
        let a = sequential(4, 16);
        let mut b = QuantileSketch::with_capacity(4);
        b.insert(15, 1.0);
        b.merge(&a);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn capacity_mismatch_is_rejected() {
        let a = sequential(4, 4);
        let mut b = QuantileSketch::with_capacity(8);
        b.merge(&a);
    }

    #[test]
    fn keep_offset_is_a_pure_function_of_position() {
        // Two independently built sketches over the same data are equal —
        // in particular their compactions chose identical offsets.
        assert_eq!(sequential(8, 1000), sequential(8, 1000));
    }
}
