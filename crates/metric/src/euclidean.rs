//! Euclidean (L2) metric over flat point storage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::point::{PointId, PointSet};
use crate::simd;
use crate::soa::{f32_band_scale, SoaStorage, SpeedTier};
use crate::space::{self, KernelStats, MetricSpace};

/// Target footprint of one candidate tile in the multi-query kernels:
/// small enough to live in L1 alongside the query row and norm slices, so
/// each candidate row is streamed from DRAM once per tile and then reused
/// from cache across every query in the batch.
const TILE_BYTES: usize = 16 * 1024;

/// Candidate-tile length for `dim`-dimensional rows of `bytes_per_coord`-
/// byte coordinates: [`TILE_BYTES`] worth, floored so tiny tiles don't
/// drown in loop overhead. A function of the dimension and storage width
/// only — never of thread count or batch size — so tiling can't perturb
/// determinism (per-pair arithmetic is independent of tile boundaries
/// anyway). The f32 SoA tiers pass 4, doubling the rows per tile: the tile
/// streams f32 rows, so the same L1 budget covers twice as many
/// candidates, halving query-row restreaming.
fn tile_len(dim: usize, bytes_per_coord: usize) -> usize {
    (TILE_BYTES / (bytes_per_coord * dim.max(1))).clamp(16, 4096)
}

/// Minimum dimension for the Gram-estimate pair decision in the tiled
/// kernels. The estimate costs a fixed ~10 extra ops per pair (norm adds,
/// band, two compares) on top of the dot product; that amortizes over the
/// `dim` multiply-adds it saves only for wide rows. Below this, the tiled
/// scan keeps the plain diff evaluation — measured at d=4 the diff loop is
/// already ≈3× faster per pair than Gram + band (see DESIGN.md §6.2).
const GRAM_MIN_DIM: usize = 16;

/// The Euclidean metric `d(x, y) = ||x - y||_2` over a [`PointSet`].
///
/// **Threshold comparison.** Every threshold entry point — [`within`],
/// the single- and multi-query bulk kernels, at every [`SpeedTier`] —
/// decides adjacency as `dist_sq(u, v) <= τ²` (and `false` for `τ < 0`),
/// never as `dist(u, v) <= τ`. The two can differ by one ulp near the
/// boundary, so `within(u, v, dist(u, v))` is not guaranteed to hold.
///
/// [`within`]: MetricSpace::within
#[derive(Debug, Clone)]
pub struct EuclideanSpace {
    points: PointSet,
    /// `sq_norms[i] = ||x_i||²`, cached at construction for the Gram-trick
    /// multi-query kernels (`||u − v||² = ||u||² + ||v||² − 2⟨u, v⟩`).
    sq_norms: Vec<f64>,
    /// Which estimate layers the bulk threshold kernels may use (see
    /// [`SpeedTier`]); verdicts are bit-identical at every tier.
    tier: SpeedTier,
    /// Lazily built f32 mirror ([`SpeedTier::Soa`]). Derived purely from
    /// `points`, so cloning the cache with the space is sound.
    soa: OnceLock<SoaStorage>,
    /// Cumulative fast-path kernel hit counters ([`KernelStats`]).
    counters: KernelCounters,
}

/// Process-lifetime tallies behind [`KernelStats`]: relaxed atomics bumped
/// once per classified tile (never per pair), so observing them costs a
/// few adds per ~10³ floating-point ops. Observability only — no verdict,
/// and no output byte, ever depends on these.
#[derive(Debug, Default)]
struct KernelCounters {
    run_pairs: AtomicU64,
    indexed_pairs: AtomicU64,
    exact_fallbacks: AtomicU64,
}

impl Clone for KernelCounters {
    /// Clones the current snapshot — a cloned space starts its own tally
    /// from the original's counts, mirroring how its caches are cloned.
    fn clone(&self) -> Self {
        let s = self.snapshot();
        let c = Self::default();
        c.run_pairs.store(s.run_pairs, Ordering::Relaxed);
        c.indexed_pairs.store(s.indexed_pairs, Ordering::Relaxed);
        c.exact_fallbacks
            .store(s.exact_fallbacks, Ordering::Relaxed);
        c
    }
}

impl KernelCounters {
    fn snapshot(&self) -> KernelStats {
        KernelStats {
            run_pairs: self.run_pairs.load(Ordering::Relaxed),
            indexed_pairs: self.indexed_pairs.load(Ordering::Relaxed),
            exact_fallbacks: self.exact_fallbacks.load(Ordering::Relaxed),
            ..KernelStats::default()
        }
    }

    /// Folds one single-τ tile classification into the tally.
    fn record_single(&self, contiguous: bool, pairs: usize, exact: usize) {
        let ctr = if contiguous {
            &self.run_pairs
        } else {
            &self.indexed_pairs
        };
        ctr.fetch_add(pairs as u64, Ordering::Relaxed);
        if exact > 0 {
            self.exact_fallbacks
                .fetch_add(exact as u64, Ordering::Relaxed);
        }
    }
}

/// Per-kernel-call fast-path context: the f32 mirror, the f32 error-band
/// scale, and the space's kernel tallies, resolved once so the per-pair
/// loop only branches on data.
struct Fast<'a> {
    soa: &'a SoaStorage,
    band_scale: f64,
    counters: &'a KernelCounters,
}

/// One query's slice of the fast path: its exact f64 row (for band
/// fallbacks) and its f32 mirror row and norm.
struct FastQuery<'a> {
    a64: &'a [f64],
    a32: &'a [f32],
    na32: f64,
}

impl Fast<'_> {
    /// Binds query `q`'s rows and norm for repeated candidate tests.
    fn query<'a>(&'a self, q: usize, data: &'a [f64], dim: usize) -> FastQuery<'a> {
        FastQuery {
            a64: &data[q * dim..(q + 1) * dim],
            a32: self.soa.row(q),
            na32: self.soa.norm(q) as f64,
        }
    }

    /// Turns a batched class ([`simd::classify_f32_indexed`]) into the
    /// final verdict, **bit-identically** to the exact kernel: the f32
    /// estimate decides only outside its error band ([`simd::CLASS_KEEP`]
    /// / [`simd::CLASS_REJECT`]), band hits ([`simd::CLASS_EXACT`]) fall
    /// back to the exact f64 evaluation.
    #[inline]
    fn resolve(fq: &FastQuery<'_>, c: usize, class: u8, t2: f64, data: &[f64], dim: usize) -> bool {
        match class {
            simd::CLASS_KEEP => true,
            simd::CLASS_REJECT => false,
            _ => {
                let b = &data[c * dim..(c + 1) * dim];
                EuclideanSpace::row_dist_sq(fq.a64, b) <= t2
            }
        }
    }

    /// One batched call per (query, tile): SIMD dot + banded
    /// classification of every candidate in `tile` into `classes`.
    fn classify_tile(
        &self,
        fq: &FastQuery<'_>,
        classes: &mut Vec<u8>,
        tile: &[u32],
        t2: f64,
        dim: usize,
    ) {
        classes.resize(tile.len(), 0);
        let contiguous = is_contiguous_run(tile);
        if contiguous {
            // Contiguous candidates (the whole-set scan): the
            // dimension-major run kernel — no gathers, no horizontal sums.
            simd::classify_f32_run(
                fq.a32,
                self.soa.cols(),
                self.soa.col_stride(),
                self.soa.raw(),
                self.soa.norms(),
                dim,
                tile[0] as usize,
                fq.na32,
                t2,
                self.band_scale,
                classes,
            );
        } else {
            simd::classify_f32_indexed(
                fq.a32,
                self.soa.raw(),
                self.soa.norms(),
                dim,
                tile,
                fq.na32,
                t2,
                self.band_scale,
                classes,
            );
        }
        self.counters.record_single(
            contiguous,
            tile.len(),
            classes
                .iter()
                .filter(|&&cl| cl == simd::CLASS_EXACT)
                .count(),
        );
    }
}

/// Whether `ids` is `ids[0], ids[0]+1, …` — the access pattern the
/// dimension-major run kernel accepts. Short-circuits on the first gap, so
/// scattered candidate lists pay a handful of compares.
#[inline]
fn is_contiguous_run(ids: &[u32]) -> bool {
    ids.len() >= 8 && ids.windows(2).all(|w| w[1] == w[0] + 1)
}

impl EuclideanSpace {
    /// Wraps a point set with the L2 metric, caching per-point squared
    /// norms (one pass over the coordinates). The speed tier defaults to
    /// the process-wide `KCENTER_SPEED` setting ([`SpeedTier::from_env`]).
    pub fn new(points: PointSet) -> Self {
        let dim = points.dim();
        let sq_norms = points
            .raw()
            .chunks(dim.max(1))
            .map(|row| row.iter().map(|x| x * x).sum())
            .collect();
        Self {
            points,
            sq_norms,
            tier: SpeedTier::from_env(),
            soa: OnceLock::new(),
            counters: KernelCounters::default(),
        }
    }

    /// Overrides the speed tier for this space (builder-style). Tiers only
    /// move cycles around — verdicts, and therefore every downstream
    /// result, are bit-identical across tiers.
    pub fn with_speed_tier(mut self, tier: SpeedTier) -> Self {
        self.tier = tier;
        self
    }

    /// The speed tier this space's bulk kernels run at.
    pub fn speed_tier(&self) -> SpeedTier {
        self.tier
    }

    /// The underlying point set.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// Appends one point to the space in place, returning its id — the
    /// serving-index insert path (`mpc-serving`). All derived state is
    /// maintained incrementally, never rebuilt from scratch:
    ///
    /// * the f64 squared norm is folded in the same order as
    ///   [`EuclideanSpace::new`]'s batch pass;
    /// * a built f32 SoA mirror is **extended** via [`SoaStorage::push`]
    ///   (amortized O(dim) — geometric lane re-striding), yielding values
    ///   bit-identical to a from-scratch build over the extended set.
    ///
    /// Verdicts after an insert remain bit-identical across speed tiers,
    /// exactly as for batch-constructed spaces.
    pub fn push_point(&mut self, coords: &[f64]) -> PointId {
        let id = self.points.push(coords);
        self.sq_norms.push(coords.iter().map(|x| x * x).sum());
        if let Some(soa) = self.soa.get_mut() {
            soa.push(coords);
        }
        id
    }

    /// Resolves the fast-path context for a bulk kernel call, building the
    /// f32 mirror on first use. `None` when the tier is exact or
    /// the rows are too narrow to benefit (below [`GRAM_MIN_DIM`] the
    /// plain diff loop already wins — same gate as the f64 Gram path).
    /// Kernels call this **before** any parallel fan-out so the lazy
    /// builds run once, on the calling thread.
    fn fast(&self) -> Option<Fast<'_>> {
        let dim = self.points.dim();
        if dim < GRAM_MIN_DIM || !self.tier.uses_soa() {
            return None;
        }
        let soa = self.soa.get_or_init(|| SoaStorage::build(&self.points));
        Some(Fast {
            soa,
            band_scale: f32_band_scale(dim),
            counters: &self.counters,
        })
    }

    /// Squared distance; cheaper than [`MetricSpace::dist`] when only
    /// comparisons are needed. (Note: squared L2 is *not* itself a metric.)
    #[inline]
    pub fn dist_sq(&self, i: PointId, j: PointId) -> f64 {
        let a = self.points.coords(i);
        let b = self.points.coords(j);
        // Simple indexed loop: auto-vectorizes for the common small dims.
        let mut acc = 0.0;
        for d in 0..a.len() {
            let t = a[d] - b[d];
            acc += t * t;
        }
        acc
    }

    /// Exact squared distance between two raw rows — the same
    /// floating-point evaluation as [`EuclideanSpace::dist_sq`], used by
    /// the tiled kernels to resolve pairs the Gram estimate can't classify.
    #[inline]
    fn row_dist_sq(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b) {
            let t = x - y;
            acc += t * t;
        }
        acc
    }

    /// Resolves how a multi-query call over `candidates` decides its
    /// pairs — building the f32 mirror or packing the f64 panels — once,
    /// on the calling thread, before any parallel fan-out.
    fn tile_path(&self, candidates: &[u32]) -> TilePath<'_> {
        if let Some(fast) = self.fast() {
            TilePath::Soa(fast)
        } else if self.points.dim() >= GRAM_MIN_DIM {
            TilePath::Panels(Panels::pack(self, candidates))
        } else {
            TilePath::Diff
        }
    }

    /// Tiled multi-query threshold scan: for each query in `qs`, decides
    /// every candidate against `t2 = τ²` and folds the verdicts with
    /// `emit`. Candidates stream in tiles so a tile is loaded from memory
    /// once and reused from cache by all queries (the whole point — the
    /// one-query kernels are memory-bound at d=32, see DESIGN.md §6.2).
    ///
    /// For wide rows the pair decision is a Gram estimate `g` of the
    /// squared distance (`||u−v||² = ||u||² + ||v||² − 2⟨u,v⟩`, from
    /// cached norms and a SIMD dot). `g` rounds differently than the
    /// diff-based `dist_sq`, so it is only trusted outside a conservative
    /// error band around `t2`; pairs inside the band are re-decided with
    /// the exact [`EuclideanSpace::row_dist_sq`]. Decisions therefore
    /// match the scalar kernel bit-for-bit — including at exact-boundary
    /// thresholds — while the band (≈ ulp-scale, so re-computes are
    /// vanishingly rare on real data) keeps the fast path hot. Non-finite
    /// inputs fall into the band's "unclassified" branch and get the exact
    /// answer too.
    ///
    /// `emit` receives one call per (query, tile) with the tile's
    /// candidate ids and a keep mask over them (bit `j % 32` of word
    /// `j / 32` for candidate `j`), so counting consumers reduce with a
    /// popcount and filters walk the set bits.
    fn scan_tiles<R: Default>(
        &self,
        path: &TilePath<'_>,
        qs: &[u32],
        candidates: &[u32],
        t2: f64,
        mut emit: impl FnMut(&mut R, &[u32], &[u32]),
    ) -> Vec<R> {
        let dim = self.points.dim();
        let data = self.points.raw();
        let row = |c: u32| &data[c as usize * dim..c as usize * dim + dim];
        // |g − dist_sq| for same-pair inputs is bounded by the usual
        // γ-style accumulation-error analysis at ≈ (4d + 32)·ε·(‖u‖² +
        // ‖v‖² + τ²); anything closer to t2 than that is re-computed
        // exactly, so overshooting the constant only costs speed.
        let band_scale = (4.0 * dim as f64 + 32.0) * f64::EPSILON;
        let tile = match path {
            TilePath::Soa(_) => tile_len(dim, 4),
            TilePath::Panels(panels) => panels.panel_len,
            TilePath::Diff => tile_len(dim, 8),
        };
        let mut rows: Vec<R> = std::iter::repeat_with(R::default).take(qs.len()).collect();
        // Per-call scratch: keep / band-hit masks and the f32 classes.
        let mut keep: Vec<u32> = Vec::new();
        let mut exact: Vec<u32> = Vec::new();
        let mut classes: Vec<u8> = Vec::new();
        for (t, ids) in candidates.chunks(tile).enumerate() {
            let words = ids.len().div_ceil(simd::PANEL_BLOCK);
            keep.resize(words, 0);
            exact.resize(words, 0);
            for (out, &q) in rows.iter_mut().zip(qs) {
                let a = row(q);
                // Each path fills `keep` with its certified keeps and
                // `exact` with its band hits.
                match path {
                    TilePath::Panels(panels) => {
                        let (cols, norms) = panels.tile(t, ids.len());
                        let na = self.sq_norms[q as usize];
                        simd::classify_f64_panel(
                            a,
                            na,
                            cols,
                            norms,
                            ids.len(),
                            t2,
                            band_scale,
                            &mut keep,
                            &mut exact,
                        );
                    }
                    TilePath::Soa(fast) => {
                        // One batched SIMD dot + banded classification
                        // over the tile, then branch-free byte compares.
                        let fq = fast.query(q as usize, data, dim);
                        fast.classify_tile(&fq, &mut classes, ids, t2, dim);
                        class_masks(&classes, &mut keep, &mut exact);
                    }
                    // Narrow rows: the diff evaluation is as cheap as the
                    // dot product and needs no band — the tiles still
                    // deliver the cache reuse.
                    TilePath::Diff => {
                        pack_bits(&mut keep, ids.len(), |j| {
                            Self::row_dist_sq(a, row(ids[j])) <= t2
                        });
                        exact.fill(0);
                    }
                }
                for (w, (k, &e)) in keep.iter_mut().zip(&exact).enumerate() {
                    for j in set_bits(e) {
                        let c = ids[w * simd::PANEL_BLOCK + j];
                        if Self::row_dist_sq(a, row(c)) <= t2 {
                            *k |= 1 << j;
                        }
                    }
                }
                emit(out, ids, &keep);
            }
        }
        rows
    }
}

/// How one multi-query call decides its pairs ([`EuclideanSpace::tile_path`]).
enum TilePath<'a> {
    /// `soa` tier, wide rows: the f32 mirror's banded classifiers.
    Soa(Fast<'a>),
    /// `exact` tier, wide rows: packed f64 Gram panels.
    Panels(Panels),
    /// Narrow rows (below [`GRAM_MIN_DIM`]): the exact diff loop.
    Diff,
}

/// Candidates per packed f64 panel: [`tile_len`]'s f64 budget, rounded
/// down to whole [`simd::PANEL_BLOCK`]s so only a call's last panel has a
/// ragged tail.
fn panel_len(dim: usize) -> usize {
    (tile_len(dim, 8) / simd::PANEL_BLOCK).max(1) * simd::PANEL_BLOCK
}

/// One multi-query call's candidates as packed f64 panels: each
/// [`panel_len`]-candidate tile transposed to dimension-major order
/// (`cols[d * stride + j]`) with its squared norms alongside, `stride` the
/// tile length rounded up to a multiple of 4 (zero padding). Built once per
/// call before the query fan-out and shared read-only by every query chunk;
/// dropped with the call, so the space itself keeps no f64 mirror —
/// O(|candidates|·d) scratch, never O(n·d) state.
struct Panels {
    dim: usize,
    panel_len: usize,
    cols: AlignedF64,
    norms: AlignedF64,
}

impl Panels {
    fn pack(space: &EuclideanSpace, candidates: &[u32]) -> Self {
        let dim = space.points.dim();
        let data = space.points.raw();
        let per_panel = panel_len(dim);
        let lanes: usize = candidates
            .chunks(per_panel)
            .map(|ids| ids.len().next_multiple_of(4))
            .sum();
        let mut cols = AlignedF64::zeroed(lanes * dim);
        let mut norms = AlignedF64::zeroed(lanes);
        let (all_cols, all_norms) = (cols.as_mut_slice(), norms.as_mut_slice());
        let mut off = 0;
        for ids in candidates.chunks(per_panel) {
            let stride = ids.len().next_multiple_of(4);
            let panel = &mut all_cols[off * dim..(off + stride) * dim];
            for (j, &c) in ids.iter().enumerate() {
                let c = c as usize;
                for (d, &x) in data[c * dim..(c + 1) * dim].iter().enumerate() {
                    panel[d * stride + j] = x;
                }
                all_norms[off + j] = space.sq_norms[c];
            }
            off += stride;
        }
        Self {
            dim,
            panel_len: per_panel,
            cols,
            norms,
        }
    }

    /// Panel `t` (holding `len` candidates) and its norms.
    fn tile(&self, t: usize, len: usize) -> (&[f64], &[f64]) {
        let off = t * self.panel_len;
        let stride = len.next_multiple_of(4);
        (
            &self.cols.as_slice()[off * self.dim..(off + stride) * self.dim],
            &self.norms.as_slice()[off..off + stride],
        )
    }
}

/// A zeroed f64 buffer whose slice starts on a 32-byte boundary. Panel
/// strides are multiples of 4, so every 4-lane load of the panel kernel is
/// then aligned and none straddles a cache line. Against the allocator's
/// 16-byte alignment this measured ≈ 7% fewer ns per pair over the
/// threshold calls of a d=32, n=10⁴ k-center solve (2-vCPU Xeon host).
struct AlignedF64 {
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

impl AlignedF64 {
    fn zeroed(len: usize) -> Self {
        let buf = vec![0.0; len + 3];
        // At most 3 for an 8-byte-aligned pointer; the `min` only guards
        // the documented "may not align" escape, costing speed, not
        // correctness.
        let start = buf.as_ptr().align_offset(32).min(3);
        Self { buf, start, len }
    }

    fn as_slice(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// Writes `keep(j)` for `j < n` as bit `j % 32` of `words[j / 32]`.
#[inline]
fn pack_bits(words: &mut [u32], n: usize, mut keep: impl FnMut(usize) -> bool) {
    for (w, word) in words.iter_mut().enumerate() {
        let base = w * simd::PANEL_BLOCK;
        *word = (0..(n - base).min(simd::PANEL_BLOCK))
            .fold(0, |acc, j| acc | (keep(base + j) as u32) << j);
    }
}

/// Splits f32-tier classes into keep and band-hit masks without a branch
/// per candidate: with `CLASS_REJECT = 0`, `CLASS_KEEP = 1` and
/// `CLASS_EXACT = 2`, bits 0 and 1 of a class byte are its keep and
/// band-hit flags, and one multiply gathers the flags of eight bytes into
/// one mask byte.
fn class_masks(classes: &[u8], keep: &mut [u32], exact: &mut [u32]) {
    const _: () =
        assert!(simd::CLASS_REJECT == 0 && simd::CLASS_KEEP == 1 && simd::CLASS_EXACT == 2);
    const LSB: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let gather = |x: u64| ((x & LSB).wrapping_mul(GATHER) >> 56) as u32;
    let words = keep.iter_mut().zip(exact.iter_mut());
    for ((k, e), chunk) in words.zip(classes.chunks(simd::PANEL_BLOCK)) {
        let mut padded = [0u8; simd::PANEL_BLOCK];
        padded[..chunk.len()].copy_from_slice(chunk);
        (*k, *e) = (0, 0);
        for (q, lanes) in padded.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(lanes.try_into().expect("8-byte chunk"));
            *k |= gather(x) << (8 * q);
            *e |= gather(x >> 1) << (8 * q);
        }
    }
}

/// Positions of the set bits of `word`, lowest first.
#[inline]
fn set_bits(mut word: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let j = word.trailing_zeros() as usize;
            word &= word - 1;
            j
        })
    })
}

impl MetricSpace for EuclideanSpace {
    fn n(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.dist_sq(i, j).sqrt()
    }

    fn point_weight(&self) -> u64 {
        self.points.dim() as u64
    }

    #[inline]
    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        // Avoids the sqrt on the hot threshold-graph adjacency path.
        tau >= 0.0 && self.dist_sq(i, j) <= tau * tau
    }

    /// Batched kernel over the flat coordinate buffer: one slice borrow for
    /// the query row, direct row offsets for candidates (no `PointId`
    /// indirection or per-pair slice setup), squared-threshold comparison
    /// with no sqrt — the bulk extension of the [`EuclideanSpace::dist_sq`]
    /// trick above. The `zip` keeps the inner loop bounds-check-free so it
    /// vectorizes. Batches whose total work passes the weighted gate split
    /// into fixed candidate chunks across the worker pool; the integer
    /// chunk counts sum to exactly the sequential count.
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        if tau < 0.0 {
            return 0;
        }
        let t2 = tau * tau;
        let dim = self.points.dim();
        let data = self.points.raw();
        let a = &data[v.idx() * dim..(v.idx() + 1) * dim];
        let fast = self.fast();
        let scan = |chunk: &[u32]| {
            if let Some(fast) = &fast {
                let fq = fast.query(v.idx(), data, dim);
                let mut classes: Vec<u8> = Vec::new();
                let mut count = 0usize;
                for tile in chunk.chunks(tile_len(dim, 4)) {
                    fast.classify_tile(&fq, &mut classes, tile, t2, dim);
                    // Bulk keep count (vectorized byte compare); band hits
                    // are resolved exactly only when the tile has any.
                    count += classes.iter().filter(|&&cl| cl == simd::CLASS_KEEP).count();
                    if classes.contains(&simd::CLASS_EXACT) {
                        count += tile
                            .iter()
                            .zip(&classes)
                            .filter(|&(&c, &cl)| {
                                cl == simd::CLASS_EXACT
                                    && Fast::resolve(&fq, c as usize, cl, t2, data, dim)
                            })
                            .count();
                    }
                }
                return count;
            }
            chunk
                .iter()
                .filter(|&&c| {
                    let b = &data[c as usize * dim..c as usize * dim + dim];
                    Self::row_dist_sq(a, b) <= t2
                })
                .count()
        };
        if space::par_bulk_weighted(candidates.len(), dim) {
            space::par_count_chunks_weighted(candidates, dim, scan)
        } else {
            scan(candidates)
        }
    }

    /// Batched filter twin of [`MetricSpace::count_within`]; same kernel,
    /// collecting ids instead of counting. The parallel path concatenates
    /// per-chunk survivors in chunk order, so candidate order is preserved
    /// exactly as in the sequential filter.
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        out.clear();
        if tau < 0.0 {
            return;
        }
        let t2 = tau * tau;
        let dim = self.points.dim();
        let data = self.points.raw();
        let a = &data[v.idx() * dim..(v.idx() + 1) * dim];
        let fast = self.fast();
        let filter_chunk = |chunk: &[u32]| -> Vec<u32> {
            if let Some(fast) = &fast {
                let fq = fast.query(v.idx(), data, dim);
                let mut classes: Vec<u8> = Vec::new();
                let mut out = Vec::new();
                for tile in chunk.chunks(tile_len(dim, 4)) {
                    fast.classify_tile(&fq, &mut classes, tile, t2, dim);
                    out.extend(tile.iter().zip(&classes).filter_map(|(&c, &cl)| {
                        Fast::resolve(&fq, c as usize, cl, t2, data, dim).then_some(c)
                    }));
                }
                return out;
            }
            chunk
                .iter()
                .copied()
                .filter(|&c| {
                    let b = &data[c as usize * dim..c as usize * dim + dim];
                    Self::row_dist_sq(a, b) <= t2
                })
                .collect()
        };
        if space::par_bulk_weighted(candidates.len(), dim) {
            space::par_filter_chunks_weighted(candidates, dim, out, filter_chunk);
        } else {
            out.extend(filter_chunk(candidates));
        }
    }

    /// Tiled multi-query kernel (see `EuclideanSpace::scan_tiles`). Large
    /// query batches split into fixed query chunks across the worker pool,
    /// all sharing the one [`TilePath`] resolved up front; whole queries
    /// never straddle a chunk and rows concatenate in query order, so the
    /// output matches the sequential tile walk — which in turn matches the
    /// per-query scalar kernel bit-for-bit.
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        if tau < 0.0 {
            return vec![0; vs.len()];
        }
        let t2 = tau * tau;
        let path = self.tile_path(candidates);
        let run = |qs: &[u32]| {
            self.scan_tiles(&path, qs, candidates, t2, |count: &mut usize, _, keep| {
                *count += keep.iter().map(|w| w.count_ones() as usize).sum::<usize>();
            })
        };
        if space::par_bulk_pairs(vs.len(), candidates.len()) {
            space::par_query_chunks(vs, run)
        } else {
            run(vs)
        }
    }

    /// Filter twin of [`MetricSpace::count_within_many`] over the same
    /// tiled scan: tiles visit candidates in order and each query row
    /// appends the tile's kept ids in order, so every neighbor list
    /// preserves candidate order exactly.
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        if tau < 0.0 {
            return vec![Vec::new(); vs.len()];
        }
        let t2 = tau * tau;
        let path = self.tile_path(candidates);
        let run = |qs: &[u32]| {
            self.scan_tiles(
                &path,
                qs,
                candidates,
                t2,
                |row: &mut Vec<u32>, ids, keep| {
                    for (w, &bits) in keep.iter().enumerate() {
                        row.extend(set_bits(bits).map(|j| ids[w * simd::PANEL_BLOCK + j]));
                    }
                },
            )
        };
        if space::par_bulk_pairs(vs.len(), candidates.len()) {
            space::par_query_chunks(vs, run)
        } else {
            run(vs)
        }
    }

    /// Bulk distance fill over flat rows. Deliberately **not** the Gram
    /// trick: consumers of this method use the values themselves (GMM
    /// radii), so each entry is the exact
    /// `row_dist_sq(..).sqrt()` evaluation [`MetricSpace::dist`] performs —
    /// bit-identical, just without the per-pair `PointId` indirection.
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        out.clear();
        let dim = self.points.dim();
        let data = self.points.raw();
        let a = &data[v.idx() * dim..(v.idx() + 1) * dim];
        let fill = |chunk: &[u32]| -> Vec<f64> {
            chunk
                .iter()
                .map(|&c| {
                    let b = &data[c as usize * dim..c as usize * dim + dim];
                    Self::row_dist_sq(a, b).sqrt()
                })
                .collect()
        };
        if space::par_bulk_weighted(candidates.len(), dim) {
            use rayon::prelude::*;
            let parts: Vec<Vec<f64>> = candidates
                .par_chunks(space::par_chunk_size_weighted(candidates.len(), dim))
                .map(fill)
                .collect();
            for part in parts {
                out.extend(part);
            }
        } else {
            out.extend(candidates.iter().map(|&c| {
                let b = &data[c as usize * dim..c as usize * dim + dim];
                Self::row_dist_sq(a, b).sqrt()
            }));
        }
    }

    /// Flat-row minimum: folds the *squared* distances and takes one final
    /// `sqrt`. `x ↦ fl(√x)` is monotone non-decreasing, so the square root
    /// of the minimum squared distance equals the minimum of the per-pair
    /// square roots bit-for-bit — same result as the default per-pair fold,
    /// with |S| − 1 fewer square roots and no `PointId` indirection.
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        if set.is_empty() {
            return f64::INFINITY;
        }
        let dim = self.points.dim();
        let data = self.points.raw();
        let a = &data[p.idx() * dim..(p.idx() + 1) * dim];
        set.iter()
            .map(|s| {
                let b = &data[s.idx() * dim..s.idx() * dim + dim];
                Self::row_dist_sq(a, b)
            })
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }

    /// Snapshot of the cumulative fast-path kernel tallies (pairs routed
    /// through each SIMD classifier, exact band fallbacks) since this space
    /// was created.
    fn kernel_stats(&self) -> Option<KernelStats> {
        Some(self.counters.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> EuclideanSpace {
        EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![-3.0, -4.0],
        ]))
    }

    #[test]
    fn pythagoras() {
        let m = space();
        assert_eq!(m.dist(PointId(0), PointId(1)), 5.0);
        assert_eq!(m.dist(PointId(1), PointId(2)), 10.0);
    }

    #[test]
    fn identity_and_symmetry() {
        let m = space();
        assert_eq!(m.dist(PointId(1), PointId(1)), 0.0);
        assert_eq!(
            m.dist(PointId(0), PointId(2)),
            m.dist(PointId(2), PointId(0))
        );
    }

    #[test]
    fn within_avoids_sqrt_consistently() {
        let m = space();
        assert!(m.within(PointId(0), PointId(1), 5.0));
        assert!(!m.within(PointId(0), PointId(1), 4.999));
        assert!(!m.within(PointId(0), PointId(1), -1.0));
    }

    #[test]
    fn point_weight_is_dimension() {
        assert_eq!(space().point_weight(), 2);
    }

    #[test]
    fn cached_norms_match_rows() {
        let m = space();
        assert_eq!(m.sq_norms, vec![0.0, 25.0, 25.0]);
    }

    #[test]
    fn many_kernels_match_scalar_at_exact_boundaries() {
        // d(0,1) = d(0,2) = 5 exactly: τ = 5 must include both, τ just
        // below must not — the Gram estimate alone cannot make this call,
        // the band fallback must.
        let m = space();
        let vs = [0u32, 1, 2];
        let cands = [0u32, 1, 2, 1];
        for tau in [5.0, 4.999_999_999_999_999, 0.0, 10.0] {
            let want: Vec<usize> = vs
                .iter()
                .map(|&v| m.count_within(PointId(v), &cands, tau))
                .collect();
            assert_eq!(m.count_within_many(&vs, &cands, tau), want, "tau={tau}");
            let lists = m.neighbors_within_many(&vs, &cands, tau);
            for (i, &v) in vs.iter().enumerate() {
                let mut scalar = Vec::new();
                m.neighbors_within(PointId(v), &cands, tau, &mut scalar);
                assert_eq!(lists[i], scalar, "v={v} tau={tau}");
            }
        }
    }

    #[test]
    fn negative_tau_matches_scalar_kernels() {
        let m = space();
        assert_eq!(m.count_within_many(&[0, 1], &[0, 1, 2], -1.0), vec![0, 0]);
        assert_eq!(
            m.neighbors_within_many(&[0, 1], &[0, 1, 2], -1.0),
            vec![Vec::<u32>::new(), Vec::new()]
        );
    }

    #[test]
    fn dists_into_is_bitwise_dist() {
        let m = space();
        let cands = [2u32, 0, 1, 1];
        let mut out = Vec::new();
        m.dists_into(PointId(1), &cands, &mut out);
        let want: Vec<f64> = cands
            .iter()
            .map(|&c| m.dist(PointId(1), PointId(c)))
            .collect();
        assert_eq!(
            out.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dist_to_set_matches_per_pair_fold() {
        let m = space();
        let set = [PointId(1), PointId(2)];
        let want = m
            .dist(PointId(0), PointId(1))
            .min(m.dist(PointId(0), PointId(2)));
        assert_eq!(m.dist_to_set(PointId(0), &set).to_bits(), want.to_bits());
        assert_eq!(m.dist_to_set(PointId(0), &[]), f64::INFINITY);
    }
}
