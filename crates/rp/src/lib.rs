//! Seeded random-projection candidate index for high-dimensional
//! Euclidean/embedding workloads, in the sDBSCAN mold (Xu & Pham).
//!
//! The grid index (`mdbscan_grid`) generates candidates by spatial
//! bucketing and is hard-gated to d ≤ 3; net-anchored triangle-inequality
//! pruning (the paper's §3 machinery) erodes as the doubling dimension
//! grows. This crate covers the remaining regime — ML embedding vectors
//! at d = 128–768 — with **K seeded random Gaussian directions**:
//!
//! 1. every direction is drawn from the shim-`rand` generator
//!    (Box–Muller, [`rand::distr::StandardNormal`]) seeded by
//!    [`RpConfig::seed`] and normalised to unit length;
//! 2. every point is projected onto every direction at build time
//!    (ascending-dimension accumulation, so the result is bit-identical
//!    regardless of batching); only the list entries below keep their
//!    values;
//! 3. per direction the index keeps the **top-m closest** list (largest
//!    dot products) and the **top-m furthest** list (smallest), ordered
//!    by (value, id) under [`f64::total_cmp`];
//! 4. every point's directions are ranked by its **list depth** — its
//!    position in the stored closest or furthest list, or the list
//!    length when it is in neither — and the [`RpConfig::probes`]
//!    shallowest ones are recorded with the end the point is nearer.
//!    One pass over the stored lists ranks every point at once, at
//!    every [`RpIndex::build`] and [`RpIndex::extend`];
//! 5. a query for point `id` returns the sorted, deduplicated union of
//!    its recorded lists (self always included), so it costs
//!    `probes · top_m` list reads and one sort of that many ids.
//!
//! Depth-ranked probing, rather than ranking directions by the raw
//! `|value|`, matters on real embedding tables: any direction component
//! shared by the whole table (a non-centered mean, a dominant principal
//! direction) shifts every point's value on a direction by a common
//! per-direction amount. Raw `|value|` ranking then probes the
//! directions with the largest *common* shift — the same lists for
//! every query, regardless of where the query actually sits. List depth
//! is invariant under any per-direction monotone shift, and guarantees
//! the query itself is inside every probed list whose depth is within
//! `top_m` — the precondition for its neighbours to be there too.
//!
//! # Determinism vs. quality
//!
//! The candidate sets are **deterministic for a fixed seed**: directions
//! depend only on `(seed, dim)`, projection values only on a point's own
//! coordinates, and [`RpIndex::extend`] is bit-identical to a fresh
//! [`RpIndex::build`] over the concatenated point set (top-m of a union
//! is contained in the union of per-part top-ms, so merging the stored
//! lists with the new points' values reproduces the fresh sort exactly,
//! and the recorded probes are a function of the lists alone).
//! Solvers built on this index therefore stay bit-identical across
//! thread counts, cache states, ingest-vs-fresh, and artifact round
//! trips. What the index does *not* promise is agreement with the exact
//! solver: a candidate set may miss true ε-neighbours, which shows up as
//! a *quality* score (measured against the exact solver via
//! `crates/eval`), not as nondeterminism. More projections, deeper
//! lists, and more probes buy quality with evaluation count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use rand::distr::StandardNormal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a random-projection index; part of the engine
/// configuration, so every artifact built from it is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RpConfig {
    /// Seed for the direction generator. Two indexes with the same seed
    /// and dimension share the exact same directions.
    pub seed: u64,
    /// Number of random directions `K`.
    pub projections: u32,
    /// List depth `m`: each direction keeps its `m` closest and `m`
    /// furthest points.
    pub top_m: u32,
    /// Directions consulted per query (clamped to `projections`).
    pub probes: u32,
}

impl RpConfig {
    /// A config with the given seed and the default shape
    /// (`projections = 32`, `top_m = 128`, `probes = 4`).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            projections: 32,
            top_m: 128,
            probes: 4,
        }
    }

    /// Sets the number of random directions.
    pub fn projections(mut self, projections: u32) -> Self {
        self.projections = projections.max(1);
        self
    }

    /// Sets the per-direction list depth.
    pub fn top_m(mut self, top_m: u32) -> Self {
        self.top_m = top_m.max(1);
        self
    }

    /// Sets the number of directions consulted per query.
    pub fn probes(mut self, probes: u32) -> Self {
        self.probes = probes.max(1);
        self
    }
}

impl Default for RpConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Work counters for random-projection candidate generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpStats {
    /// Projection lists consulted.
    pub projections: u64,
    /// Candidate ids handed to the caller (after dedup, self included).
    pub candidates_emitted: u64,
    /// Candidates discarded by the caller without a distance evaluation
    /// (duplicates across probed lists, or ids filtered out because they
    /// are not summary members / centers).
    pub candidates_rejected: u64,
}

impl RpStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RpStats) {
        self.projections += other.projections;
        self.candidates_emitted += other.candidates_emitted;
        self.candidates_rejected += other.candidates_rejected;
    }
}

/// One list entry: the point's projection value and its id. Values are
/// kept so [`RpIndex::extend`] can merge stored lists against new points
/// without re-projecting old ones.
type Entry = (f64, u32);

/// Ordering for the closest list: value descending, id ascending. Total
/// (via [`f64::total_cmp`]), so sorts are deterministic.
fn closest_cmp(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Ordering for the furthest list: value ascending, id ascending.
fn furthest_cmp(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Directions projected together: their coordinates are interleaved
/// dimension-major so one row value feeds a whole block of
/// accumulators.
const DIR_BLOCK: usize = 8;
/// Rows projected together against one direction block.
const ROW_GROUP: usize = 2;

/// The immutable index: build once per epoch, share behind an `Arc`,
/// query concurrently (queries take `&self`).
#[derive(Debug, Clone)]
pub struct RpIndex {
    cfg: RpConfig,
    dim: usize,
    len: usize,
    /// `projections × dim`, row per direction, unit-norm.
    dirs: Vec<f64>,
    /// Per direction: up to `top_m` entries, `closest_cmp` order.
    closest: Vec<Vec<Entry>>,
    /// Per direction: up to `top_m` entries, `furthest_cmp` order.
    furthest: Vec<Vec<Entry>>,
    /// Per point, its `probe_count()` shallowest directions as
    /// `direction << 1 | furthest` codes, shallowest first: the lists a
    /// query for the point reads.
    probes: Vec<u32>,
}

impl RpIndex {
    /// Builds the index over `coords` (row-major, `dim` values per
    /// point, point id = row position). Panics when `dim == 0` or
    /// `coords.len()` is not a multiple of `dim`.
    pub fn build(dim: usize, coords: &[f64], cfg: RpConfig) -> Self {
        assert!(dim > 0, "RpIndex requires dim >= 1");
        assert!(
            coords.len().is_multiple_of(dim),
            "coords length {} not a multiple of dim {dim}",
            coords.len()
        );
        let k = cfg.projections.max(1) as usize;
        let dirs = sample_directions(cfg.seed, k, dim);
        let mut index = Self {
            cfg,
            dim,
            len: 0,
            dirs,
            closest: vec![Vec::new(); k],
            furthest: vec![Vec::new(); k],
            probes: Vec::new(),
        };
        index.absorb(coords);
        index
    }

    /// A new index covering the old points plus `new_coords`, appended
    /// in order (ids continue from [`RpIndex::len`]). **Bit-identical**
    /// to a fresh build over the concatenated coordinates: directions
    /// depend only on the seed, values only on each point's own row, and
    /// the merged top-m lists equal the fresh ones because every entry a
    /// stored list dropped is dominated by `top_m` entries it kept.
    pub fn extend(&self, new_coords: &[f64]) -> Self {
        assert!(
            new_coords.len().is_multiple_of(self.dim),
            "coords length {} not a multiple of dim {}",
            new_coords.len(),
            self.dim
        );
        let mut next = self.clone();
        next.absorb(new_coords);
        next
    }

    /// Projects `coords` onto every direction, re-selects the
    /// per-direction lists from the stored entries plus the new
    /// values, and re-derives every point's probes.
    fn absorb(&mut self, coords: &[f64]) {
        let dim = self.dim;
        let added = coords.len() / dim;
        let k = self.closest.len();
        let m = self.cfg.top_m.max(1) as usize;
        // One direction block's values at a time, direction-major.
        let mut vals = vec![0.0f64; DIR_BLOCK * added];
        let mut pool: Vec<Entry> = Vec::with_capacity(m + added);
        for k0 in (0..k).step_by(DIR_BLOCK) {
            let block = DIR_BLOCK.min(k - k0);
            project_block(
                &self.dirs[k0 * dim..(k0 + block) * dim],
                coords,
                dim,
                &mut vals,
            );
            for (j, kk) in (k0..k0 + block).enumerate() {
                let col = &vals[j * added..(j + 1) * added];
                let fresh = col.iter().zip(self.len as u32..).map(|(&v, id)| (v, id));
                reselect(
                    &mut self.closest[kk],
                    fresh.clone(),
                    m,
                    closest_cmp,
                    &mut pool,
                );
                reselect(&mut self.furthest[kk], fresh, m, furthest_cmp, &mut pool);
            }
        }
        self.len += added;
        self.probes = self.derive_probes();
    }

    /// Directions a query consults: [`RpConfig::probes`] clamped to
    /// `1..=projections`.
    fn probe_count(&self) -> usize {
        (self.cfg.probes.max(1) as usize).min(self.closest.len())
    }

    /// Ranks every point's directions by (list depth, direction) in one
    /// pass over the stored lists and keeps the `probe_count()` first,
    /// each with the end the point is nearer (closest on equal depth).
    ///
    /// Both lists of a direction hold `min(len, top_m)` entries, and a
    /// point outside a list sorts after all of it, so its depth there is
    /// the list length: directions holding the point in neither list
    /// rank after every other, by index, closest end first.
    fn derive_probes(&self) -> Vec<u32> {
        let n = self.len;
        let p = self.probe_count();
        // Sort key per list hit: depth, then the probe code, so equal
        // depths rank by direction and a direction holding the point at
        // equal depth in both lists ranks its closest end first.
        let key = |depth: usize, code: usize| ((depth as u64) << 32) | code as u64;
        let mut start = vec![0usize; n + 1];
        for list in self.closest.iter().chain(&self.furthest) {
            for &(_, id) in list {
                start[id as usize + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut hits = vec![0u64; start[n]];
        for (kk, (close, far)) in self.closest.iter().zip(&self.furthest).enumerate() {
            for (end, list) in [close, far].into_iter().enumerate() {
                for (depth, &(_, id)) in list.iter().enumerate() {
                    let slot = &mut next[id as usize];
                    hits[*slot] = key(depth, kk << 1 | end);
                    *slot += 1;
                }
            }
        }
        let mut probes = Vec::with_capacity(n * p);
        for id in 0..n {
            let row_start = probes.len();
            let seg = &mut hits[start[id]..start[id + 1]];
            seg.sort_unstable();
            for &h in seg.iter() {
                let code = h as u32;
                // A direction's second hit is its deeper end.
                if !probes[row_start..].iter().any(|&c| c >> 1 == code >> 1) {
                    probes.push(code);
                    if probes.len() - row_start == p {
                        break;
                    }
                }
            }
            let mut kk = 0u32;
            while probes.len() - row_start < p {
                if !probes[row_start..].iter().any(|&c| c >> 1 == kk) {
                    probes.push(kk << 1);
                }
                kk += 1;
            }
        }
        probes
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes (for cache accounting): the
    /// directions, every list entry and the per-point probe codes.
    pub fn heap_bytes(&self) -> usize {
        let entries: usize = self
            .closest
            .iter()
            .chain(&self.furthest)
            .map(Vec::len)
            .sum();
        self.dirs.len() * std::mem::size_of::<f64>()
            + entries * std::mem::size_of::<Entry>()
            + self.probes.len() * std::mem::size_of::<u32>()
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configuration the index was built with.
    pub fn cfg(&self) -> RpConfig {
        self.cfg
    }

    /// Fills `out` with the candidate ids for indexed point `id`:
    /// the union of the [`RpConfig::probes`] *shallowest* directions'
    /// lists — shallowest by the point's own position in the stored
    /// list order (closest or furthest, whichever end the point is
    /// nearer), as ranked when the index was built or extended —
    /// sorted ascending, deduplicated, `id` itself always present.
    /// Dropped duplicates are charged to
    /// [`RpStats::candidates_rejected`].
    pub fn candidates_for(&self, id: u32, out: &mut Vec<u32>, stats: &mut RpStats) {
        assert!((id as usize) < self.len, "query id {id} out of range");
        let p = self.probe_count();
        out.clear();
        out.push(id);
        for &code in &self.probes[id as usize * p..(id as usize + 1) * p] {
            let kk = (code >> 1) as usize;
            let list = if code & 1 == 0 {
                &self.closest[kk]
            } else {
                &self.furthest[kk]
            };
            out.extend(list.iter().map(|&(_, pid)| pid));
        }
        stats.projections += p as u64;
        let raw = out.len();
        out.sort_unstable();
        out.dedup();
        stats.candidates_emitted += out.len() as u64;
        stats.candidates_rejected += (raw - out.len()) as u64;
    }
}

/// Replaces `list` with the first `m` entries of `list ∪ fresh` in
/// `cmp` order, using `pool` as scratch. (value, id) is a total order,
/// so selecting the first `m` and sorting only them yields exactly a
/// full sort's prefix.
fn reselect(
    list: &mut Vec<Entry>,
    fresh: impl Iterator<Item = Entry>,
    m: usize,
    cmp: impl Fn(&Entry, &Entry) -> std::cmp::Ordering + Copy,
    pool: &mut Vec<Entry>,
) {
    pool.clear();
    pool.extend_from_slice(list);
    pool.extend(fresh);
    if pool.len() > m {
        pool.select_nth_unstable_by(m - 1, cmp);
        pool.truncate(m);
    }
    pool.sort_unstable_by(cmp);
    list.clear();
    list.extend_from_slice(pool);
}

/// Projects every row of `coords` (row-major, `dim` values each) onto
/// the directions in `dirs` (at most [`DIR_BLOCK`] rows of `dim`) and
/// writes direction `j`'s value for row `i` to `out[j * rows + i]`.
///
/// Each (row, direction) value is one accumulator summed in ascending
/// dimension order from `0.0`, exactly as a one-row scalar loop sums
/// it, so blocking changes which values are computed together, never
/// their bits.
fn project_block(dirs: &[f64], coords: &[f64], dim: usize, out: &mut [f64]) {
    let rows = coords.len() / dim;
    let block = dirs.len() / dim;
    // Dimension-major copy of the block, zero-padded to DIR_BLOCK.
    let mut inter = vec![0.0f64; dim * DIR_BLOCK];
    for (j, dir) in dirs.chunks_exact(dim).enumerate() {
        for (d, &x) in dir.iter().enumerate() {
            inter[d * DIR_BLOCK + j] = x;
        }
    }
    let mut emit = |i: usize, acc: &[f64; DIR_BLOCK]| {
        for (j, &v) in acc[..block].iter().enumerate() {
            out[j * rows + i] = v;
        }
    };
    let full = rows - rows % ROW_GROUP;
    for i in (0..full).step_by(ROW_GROUP) {
        let accs = project_rows::<ROW_GROUP>(&inter, &coords[i * dim..(i + ROW_GROUP) * dim], dim);
        for (r, acc) in accs.iter().enumerate() {
            emit(i + r, acc);
        }
    }
    for i in full..rows {
        let [acc] = project_rows::<1>(&inter, &coords[i * dim..(i + 1) * dim], dim);
        emit(i, &acc);
    }
}

/// `R` consecutive rows against one interleaved direction block.
#[inline(always)]
fn project_rows<const R: usize>(inter: &[f64], rows: &[f64], dim: usize) -> [[f64; DIR_BLOCK]; R] {
    let mut acc = [[0.0f64; DIR_BLOCK]; R];
    for (d, lanes) in inter.chunks_exact(DIR_BLOCK).enumerate() {
        for (r, a) in acc.iter_mut().enumerate() {
            let x = rows[r * dim + d];
            for (aj, &t) in a.iter_mut().zip(lanes) {
                *aj += t * x;
            }
        }
    }
    acc
}

/// `k` unit-norm Gaussian directions of dimension `dim`, drawn in a
/// fixed order from a [`StdRng`] seeded with `seed`.
fn sample_directions(seed: u64, k: usize, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dirs = vec![0.0f64; k * dim];
    for kk in 0..k {
        let row = &mut dirs[kk * dim..(kk + 1) * dim];
        loop {
            for slot in row.iter_mut() {
                *slot = StandardNormal.sample(&mut rng);
            }
            let mut norm_sq = 0.0f64;
            for &x in row.iter() {
                norm_sq += x * x;
            }
            if norm_sq > 0.0 {
                let inv = 1.0 / norm_sq.sqrt();
                for slot in row.iter_mut() {
                    *slot *= inv;
                }
                break;
            }
            // All-zero draw: probability ~0, but resampling keeps the
            // direction well-defined without a panic.
        }
    }
    dirs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little two-cluster row-major dataset on the unit sphere of
    /// dimension `dim`: half the points hug +e0, half hug -e0.
    fn two_poles(n: usize, dim: usize) -> Vec<f64> {
        let mut coords = Vec::with_capacity(n * dim);
        for i in 0..n {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let wobble = 0.05 * (i as f64 / n as f64);
            let mut row = vec![0.0; dim];
            row[0] = sign;
            row[1] = wobble;
            let norm = (1.0 + wobble * wobble).sqrt();
            for x in row.iter_mut() {
                *x /= norm;
            }
            coords.extend_from_slice(&row);
        }
        coords
    }

    fn assert_index_eq(a: &RpIndex, b: &RpIndex) {
        assert_eq!(a.len, b.len);
        assert_eq!(a.dim, b.dim);
        assert_eq!(a.cfg, b.cfg);
        for (x, y) in a.dirs.iter().zip(&b.dirs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.probes, b.probes);
        for kk in 0..a.closest.len() {
            for (lists_a, lists_b) in [
                (&a.closest[kk], &b.closest[kk]),
                (&a.furthest[kk], &b.furthest[kk]),
            ] {
                assert_eq!(lists_a.len(), lists_b.len());
                for ((va, ia), (vb, ib)) in lists_a.iter().zip(lists_b.iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                    assert_eq!(ia, ib);
                }
            }
        }
    }

    /// The per-query ranking the probe codes replace, over lists and
    /// values recomputed here one row at a time.
    struct Reference {
        /// Per direction: one value per point, point order.
        values: Vec<Vec<f64>>,
        closest: Vec<Vec<Entry>>,
        furthest: Vec<Vec<Entry>>,
        probes: usize,
    }

    impl Reference {
        fn new(index: &RpIndex, coords: &[f64]) -> Self {
            let dim = index.dim;
            let m = index.cfg.top_m.max(1) as usize;
            let values: Vec<Vec<f64>> = index
                .dirs
                .chunks_exact(dim)
                .map(|dir| {
                    coords
                        .chunks_exact(dim)
                        .map(|row| {
                            let mut acc = 0.0f64;
                            for d in 0..dim {
                                acc += dir[d] * row[d];
                            }
                            acc
                        })
                        .collect()
                })
                .collect();
            let list = |vals: &[f64], cmp: fn(&Entry, &Entry) -> std::cmp::Ordering| {
                let mut all: Vec<Entry> = vals.iter().zip(0u32..).map(|(&v, i)| (v, i)).collect();
                all.sort_unstable_by(cmp);
                all.truncate(m);
                all
            };
            Self {
                closest: values.iter().map(|v| list(v, closest_cmp)).collect(),
                furthest: values.iter().map(|v| list(v, furthest_cmp)).collect(),
                probes: (index.cfg.probes.max(1) as usize).min(values.len()),
                values,
            }
        }

        /// Binary-searches both lists of every direction for `id`'s
        /// depth, sorts by (depth, direction) and keeps the shallowest.
        fn probe_codes(&self, id: u32) -> Vec<u32> {
            let mut ranked: Vec<(usize, usize, bool)> = (0..self.values.len())
                .map(|kk| {
                    let probe = (self.values[kk][id as usize], id);
                    let dc = self.closest[kk].partition_point(|e| closest_cmp(e, &probe).is_lt());
                    let df = self.furthest[kk].partition_point(|e| furthest_cmp(e, &probe).is_lt());
                    (dc.min(df), kk, dc <= df)
                })
                .collect();
            ranked.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            ranked
                .iter()
                .take(self.probes)
                .map(|&(_, kk, near_close)| (kk as u32) << 1 | u32::from(!near_close))
                .collect()
        }

        fn candidates_for(&self, id: u32, out: &mut Vec<u32>, stats: &mut RpStats) {
            out.clear();
            out.push(id);
            for code in self.probe_codes(id) {
                let kk = (code >> 1) as usize;
                let list = if code & 1 == 0 {
                    &self.closest[kk]
                } else {
                    &self.furthest[kk]
                };
                out.extend(list.iter().map(|&(_, pid)| pid));
            }
            stats.projections += self.probes as u64;
            let raw = out.len();
            out.sort_unstable();
            out.dedup();
            stats.candidates_emitted += out.len() as u64;
            stats.candidates_rejected += (raw - out.len()) as u64;
        }

        /// Asserts `index` holds exactly these lists (value bits and
        /// ids), these probe codes, and answers every query like the
        /// per-query ranking.
        fn assert_matches(&self, index: &RpIndex) {
            for (ours, theirs) in [
                (&index.closest, &self.closest),
                (&index.furthest, &self.furthest),
            ] {
                assert_eq!(ours.len(), theirs.len());
                for (a, b) in ours.iter().zip(theirs) {
                    let bits =
                        |l: &[Entry]| l.iter().map(|&(v, i)| (v.to_bits(), i)).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b));
                }
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for id in 0..index.len() as u32 {
                let p = self.probes;
                let codes = &index.probes[id as usize * p..(id as usize + 1) * p];
                assert_eq!(codes, self.probe_codes(id), "probes of point {id}");
                let (mut got_stats, mut want_stats) = (RpStats::default(), RpStats::default());
                index.candidates_for(id, &mut got, &mut got_stats);
                self.candidates_for(id, &mut want, &mut want_stats);
                assert_eq!(got, want, "candidates of point {id}");
                assert_eq!(got_stats, want_stats, "stats of point {id}");
            }
        }
    }

    /// `n` seeded Gaussian rows of dimension `dim`; with `copies > 1`
    /// every distinct row appears `copies` times in a row, so list
    /// order between equal values falls to the id.
    fn gaussian_rows(seed: u64, n: usize, dim: usize, copies: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords = Vec::with_capacity(n * dim);
        while coords.len() < n * dim {
            let row: Vec<f64> = (0..dim).map(|_| StandardNormal.sample(&mut rng)).collect();
            for _ in 0..copies {
                coords.extend_from_slice(&row);
            }
        }
        coords.truncate(n * dim);
        coords
    }

    #[test]
    fn build_is_deterministic_for_fixed_seed() {
        let coords = two_poles(200, 16);
        let cfg = RpConfig::new(42).projections(8).top_m(16).probes(3);
        let a = RpIndex::build(16, &coords, cfg);
        let b = RpIndex::build(16, &coords, cfg);
        assert_index_eq(&a, &b);
        let other = RpIndex::build(16, &coords, RpConfig::new(43).projections(8));
        assert_ne!(a.dirs[0].to_bits(), other.dirs[0].to_bits());
    }

    #[test]
    fn extend_is_bit_identical_to_fresh_build() {
        let dim = 24;
        let coords = two_poles(800, dim);
        let cfg = RpConfig::new(7).projections(6).top_m(32).probes(2);
        let fresh = RpIndex::build(dim, &coords, cfg);
        for splits in [vec![800usize], vec![500, 300], vec![100, 0, 350, 350]] {
            let mut index: Option<RpIndex> = None;
            let mut off = 0usize;
            for chunk in splits {
                let part = &coords[off * dim..(off + chunk) * dim];
                index = Some(match index {
                    None => RpIndex::build(dim, part, cfg),
                    Some(prev) => prev.extend(part),
                });
                off += chunk;
            }
            assert_index_eq(&fresh, &index.unwrap());
        }
    }

    #[test]
    fn candidates_are_sorted_deduped_and_contain_self() {
        let coords = two_poles(300, 8);
        let cfg = RpConfig::new(1).projections(5).top_m(40).probes(3);
        let index = RpIndex::build(8, &coords, cfg);
        let mut out = Vec::new();
        let mut stats = RpStats::default();
        for id in [0u32, 7, 299] {
            index.candidates_for(id, &mut out, &mut stats);
            assert!(out.binary_search(&id).is_ok(), "self id missing");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
            assert!(out.iter().all(|&q| (q as usize) < 300));
        }
        assert_eq!(stats.projections, 9);
        assert!(stats.candidates_emitted > 0);
    }

    #[test]
    fn same_pole_points_see_each_other() {
        // Tight clusters at opposite poles: a point's candidates must
        // cover its own pole (the aligned direction's closest list when
        // the value is positive, the furthest list when negative).
        let n = 120;
        let coords = two_poles(n, 12);
        let cfg = RpConfig::new(9).projections(16).top_m(n as u32).probes(4);
        let index = RpIndex::build(12, &coords, cfg);
        let mut out = Vec::new();
        let mut stats = RpStats::default();
        for id in 0..n as u32 {
            index.candidates_for(id, &mut out, &mut stats);
            let same_pole = out.iter().filter(|&&q| q % 2 == id % 2).count();
            assert!(
                same_pole >= n / 2,
                "point {id}: only {same_pole} same-pole candidates"
            );
        }
    }

    #[test]
    fn probes_clamp_to_projection_count() {
        let coords = two_poles(50, 4);
        let cfg = RpConfig::new(3).projections(2).top_m(10).probes(99);
        let index = RpIndex::build(4, &coords, cfg);
        let mut out = Vec::new();
        let mut stats = RpStats::default();
        index.candidates_for(0, &mut out, &mut stats);
        assert_eq!(stats.projections, 2);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RpStats {
            projections: 1,
            candidates_emitted: 2,
            candidates_rejected: 3,
        };
        let b = RpStats {
            projections: 10,
            candidates_emitted: 20,
            candidates_rejected: 30,
        };
        a.merge(&b);
        assert_eq!(
            a,
            RpStats {
                projections: 11,
                candidates_emitted: 22,
                candidates_rejected: 33,
            }
        );
    }

    #[test]
    fn derived_probes_and_values_match_the_per_query_ranking() {
        // (n, dim, copies, projections, top_m, probes): n below top_m
        // (every point in every list), n far above it (most points in
        // no list, so probes fall back to the lowest directions), probes
        // above projections, duplicated rows, and n and K that leave
        // remainders after the row groups and direction blocks.
        let cases = [
            (20, 5, 1, 9, 32, 3),
            (301, 7, 1, 19, 8, 4),
            (2001, 6, 1, 16, 8, 4),
            (150, 4, 1, 3, 10, 5),
            (90, 6, 3, 17, 12, 2),
            (300, 9, 1, 40, 24, 3),
        ];
        for (seed, &(n, dim, copies, k, m, probes)) in (11u64..).zip(&cases) {
            let coords = gaussian_rows(seed, n, dim, copies);
            let cfg = RpConfig::new(seed).projections(k).top_m(m).probes(probes);
            let fresh = RpIndex::build(dim, &coords, cfg);
            Reference::new(&fresh, &coords).assert_matches(&fresh);
            let third = n / 3;
            for splits in [vec![third, 0, n - third], vec![1, n - 1 - third, third]] {
                let mut index = RpIndex::build(dim, &coords[..splits[0] * dim], cfg);
                let mut off = splits[0];
                for &chunk in &splits[1..] {
                    index = index.extend(&coords[off * dim..(off + chunk) * dim]);
                    off += chunk;
                    let prefix = &coords[..off * dim];
                    Reference::new(&index, prefix).assert_matches(&index);
                }
                assert_index_eq(&fresh, &index);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = RpIndex::build(0, &[], RpConfig::new(0));
    }
}
