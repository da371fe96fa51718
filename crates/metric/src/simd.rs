//! Runtime-dispatched SIMD dot products for the Euclidean kernels.
//!
//! This module is the **only** unsafe surface in the crate. Everything in
//! it computes a plain dot product — the building block of both the f64
//! Gram estimate (PR 4) and the f32 SoA estimate (the `soa` speed tier) —
//! under one discipline:
//!
//! * **Runtime detection, cached once.** The widest lane the host supports
//!   is probed with `is_x86_feature_detected!` on first use and cached in a
//!   `OnceLock`. The choice is a function of the host only — never of
//!   thread count, input, or call order — so it cannot perturb determinism.
//! * **Estimates only.** Wide accumulators and FMA round differently than
//!   a serial fold. Every caller feeds the result into a *banded* estimate
//!   whose error band covers accumulation-order slack (FMA's fused rounding
//!   is strictly tighter than mul-then-add), and re-decides band hits with
//!   the exact scalar evaluation. Exact distance-returning paths never call
//!   this module.
//! * **Debug-asserted scalar equivalence.** In debug builds every dispatch
//!   checks the lane result against a widened serial fold, to the γ-style
//!   accumulation bound. A failure means a broken kernel, not rounding.
//!
//! Lanes: AVX-512F (16×f32, behind the `avx512` cargo feature), AVX2+FMA
//! (8×f32 / 4×f64), and a multi-accumulator baseline that rustc
//! auto-vectorizes to SSE2 on the default `x86-64` target (plain scalar on
//! other architectures). f64 uses the AVX2 path even on AVX-512 hosts: the
//! f64 dot only feeds the Gram estimate for wide rows, where it is
//! memory-bound, so the extra lanes buy nothing.

use std::sync::OnceLock;

/// Which SIMD implementation the dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// 512-bit f32 FMA lanes (`avx512` cargo feature + runtime AVX-512F).
    Avx512,
    /// 256-bit FMA lanes (runtime AVX2 + FMA).
    Avx2Fma,
    /// Multi-accumulator loops; auto-vectorized SSE2 on x86-64, scalar
    /// elsewhere.
    Baseline,
}

impl Lane {
    /// Human-readable lane name for logs and bench annotations.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Avx512 => "avx512f",
            Lane::Avx2Fma => "avx2+fma",
            Lane::Baseline => "baseline",
        }
    }
}

fn detect() -> Lane {
    #[cfg(target_arch = "x86_64")]
    {
        #[cfg(feature = "avx512")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return Lane::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Lane::Avx2Fma;
        }
    }
    Lane::Baseline
}

/// One-time cpuid probe; a cached [`Lane`] thereafter.
#[inline]
pub fn lane() -> Lane {
    static LANE: OnceLock<Lane> = OnceLock::new();
    *LANE.get_or_init(detect)
}

/// f64 dot product on the widest available lane. Feeds the Gram
/// **estimate** only — see the module docs for why reordering is safe.
#[inline]
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dot = match lane() {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx512 | Lane::Avx2Fma => {
            // SAFETY: `lane()` only returns these after runtime detection
            // of AVX2 + FMA on this host.
            unsafe { x86::dot_f64_avx2_fma(a, b) }
        }
        _ => dot_f64_baseline(a, b),
    };
    #[cfg(debug_assertions)]
    assert_close_f64(dot, a, b);
    dot
}

/// f32 dot product on the widest available lane. Feeds the SoA f32
/// **estimate** only — verdicts inside the f32 error band are re-decided
/// with the exact f64 evaluation by the caller.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let dot = match lane() {
        #[cfg(all(target_arch = "x86_64", feature = "avx512"))]
        Lane::Avx512 => {
            // SAFETY: `lane()` only returns `Avx512` after runtime
            // detection of AVX-512F on this host.
            unsafe { x86::dot_f32_avx512(a, b) }
        }
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2Fma => {
            // SAFETY: `lane()` only returns `Avx2Fma` after runtime
            // detection of AVX2 + FMA on this host.
            unsafe { x86::dot_f32_avx2_fma(a, b) }
        }
        _ => dot_f32_baseline(a, b),
    };
    #[cfg(debug_assertions)]
    assert_close_f32(dot, a, b);
    dot
}

/// Batched indexed f64 dot products: `out[i] = ⟨q, rows[idx[i]]⟩` where
/// `rows` is a row-major slab of `dim`-wide rows. One dispatch and one
/// call-frame per **tile** instead of per pair — `#[target_feature]`
/// functions cannot be inlined into generic callers, so the per-pair
/// variant pays call + horizontal-sum overhead that dominates at d≈32.
/// Same estimate-only contract as [`dot_f64`].
#[inline]
pub fn dots_f64_indexed(q: &[f64], rows: &[f64], dim: usize, idx: &[u32], out: &mut [f64]) {
    debug_assert_eq!(idx.len(), out.len());
    match lane() {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx512 | Lane::Avx2Fma => {
            // SAFETY: `lane()` only returns these after runtime detection
            // of AVX2 + FMA on this host.
            unsafe { x86::dots_f64_indexed_avx2_fma(q, rows, dim, idx, out) }
        }
        _ => {
            for (o, &c) in out.iter_mut().zip(idx) {
                let r = &rows[c as usize * dim..c as usize * dim + dim];
                *o = dot_f64_baseline(q, r);
            }
        }
    }
    #[cfg(debug_assertions)]
    for (o, &c) in out.iter().zip(idx) {
        assert_close_f64(*o, q, &rows[c as usize * dim..c as usize * dim + dim]);
    }
}

/// Batched indexed f32 dot products — the f32 twin of
/// [`dots_f64_indexed`], and the SoA tiers' hot loop. The AVX2 path blocks
/// four candidates per iteration so each query-register load is reused
/// fourfold and the four independent FMA chains hide the FMA latency.
/// Same estimate-only contract as [`dot_f32`].
#[inline]
pub fn dots_f32_indexed(q: &[f32], rows: &[f32], dim: usize, idx: &[u32], out: &mut [f32]) {
    debug_assert_eq!(idx.len(), out.len());
    match lane() {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx512 | Lane::Avx2Fma => {
            // SAFETY: `lane()` only returns these after runtime detection
            // of AVX2 + FMA on this host.
            unsafe { x86::dots_f32_indexed_avx2_fma(q, rows, dim, idx, out) }
        }
        _ => {
            for (o, &c) in out.iter_mut().zip(idx) {
                let r = &rows[c as usize * dim..c as usize * dim + dim];
                *o = dot_f32_baseline(q, r);
            }
        }
    }
    #[cfg(debug_assertions)]
    for (o, &c) in out.iter().zip(idx) {
        assert_close_f32(*o, q, &rows[c as usize * dim..c as usize * dim + dim]);
    }
}

/// [`classify_f32_indexed`] verdict: the estimate certifies the pair is
/// within the threshold.
pub const CLASS_KEEP: u8 = 1;
/// [`classify_f32_indexed`] verdict: the estimate certifies the pair is
/// beyond the threshold.
pub const CLASS_REJECT: u8 = 0;
/// [`classify_f32_indexed`] verdict: inside the error band — the caller
/// must re-decide with the exact f64 evaluation.
pub const CLASS_EXACT: u8 = 2;

/// Batched banded classification — the SoA tiers' whole per-pair decision
/// in one tile call: for each candidate `c = idx[i]`, computes the f32 dot
/// `d`, widens, and classifies the Gram estimate
/// `est = (na + nb) − 2·d` against the band `band_scale · (na + nb + t2)`
/// exactly as the scalar judgment does (same f64 operation sequence, so
/// the verdicts are bit-identical to a scalar re-evaluation with the same
/// dot): `est ≤ t2 − band` → [`CLASS_KEEP`], `est > t2 + band` →
/// [`CLASS_REJECT`], else [`CLASS_EXACT`]. `na` is the query's f32 norm
/// widened to f64; `norms[c]` are the candidates' f32 norms.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn classify_f32_indexed(
    q: &[f32],
    rows: &[f32],
    norms: &[f32],
    dim: usize,
    idx: &[u32],
    na: f64,
    t2: f64,
    band_scale: f64,
    out: &mut [u8],
) {
    debug_assert_eq!(idx.len(), out.len());
    match lane() {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx512 | Lane::Avx2Fma => {
            // SAFETY: `lane()` only returns these after runtime detection
            // of AVX2 + FMA on this host.
            unsafe {
                x86::classify_f32_indexed_avx2_fma(
                    q, rows, norms, dim, idx, na, t2, band_scale, out,
                )
            }
        }
        _ => {
            for (o, &c) in out.iter_mut().zip(idx) {
                let r = &rows[c as usize * dim..c as usize * dim + dim];
                *o = classify_one(
                    dot_f32_baseline(q, r),
                    norms[c as usize],
                    na,
                    t2,
                    band_scale,
                );
            }
        }
    }
    #[cfg(debug_assertions)]
    {
        // The classes must equal a scalar re-judgment of the *same* dot
        // values (`dots_f32_indexed` reproduces them exactly: same lane,
        // same blocking by position).
        let mut dots = vec![0.0f32; idx.len()];
        dots_f32_indexed(q, rows, dim, idx, &mut dots);
        for ((&o, &d), &c) in out.iter().zip(&dots).zip(idx) {
            let want = classify_one(d, norms[c as usize], na, t2, band_scale);
            assert_eq!(
                o, want,
                "classify_f32_indexed diverged from scalar judgment (candidate {c})"
            );
        }
    }
}

/// [`classify_f32_indexed`] for a **contiguous** candidate run
/// `first..first + out.len()`, fed from the dimension-major mirror
/// (`cols[d * n + i]`). This is the fast path's fast path: the AVX2 kernel
/// broadcasts one query coordinate and FMA-accumulates 32 consecutive
/// candidates per step, so there are **no index gathers and no horizontal
/// sums** — the dots land vertically in the accumulators and the banded
/// classification itself runs eight candidates per iteration in f64
/// vectors. `rows` (the row-major mirror) serves the sub-8 tail.
///
/// The per-candidate dot here is a single FMA chain over ascending `d`
/// (vs. the multi-accumulator folds elsewhere); its error is below
/// `d·ε·Σ|aᵢbᵢ|`, comfortably inside the `(4d + 32)·ε` band that
/// [`crate::soa::f32_band_scale`] budgets (see that module's analysis),
/// so band-hit fallbacks still catch every undecidable pair.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn classify_f32_run(
    q: &[f32],
    cols: &[f32],
    n: usize,
    rows: &[f32],
    norms: &[f32],
    dim: usize,
    first: usize,
    na: f64,
    t2: f64,
    band_scale: f64,
    out: &mut [u8],
) {
    debug_assert!(first + out.len() <= n);
    match lane() {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx512 | Lane::Avx2Fma => {
            // SAFETY: `lane()` only returns these after runtime detection
            // of AVX2 + FMA on this host.
            unsafe {
                x86::classify_f32_run_avx2_fma(
                    q, cols, n, rows, norms, dim, first, na, t2, band_scale, out,
                )
            }
        }
        _ => {
            for (i, o) in out.iter_mut().enumerate() {
                let c = first + i;
                let r = &rows[c * dim..c * dim + dim];
                *o = classify_one(dot_f32_baseline(q, r), norms[c], na, t2, band_scale);
            }
        }
    }
    #[cfg(debug_assertions)]
    if matches!(lane(), Lane::Avx512 | Lane::Avx2Fma) {
        // Every lane of the run kernel — wide blocks and scalar tail alike
        // — is a single fused-multiply-add chain over ascending d, so a
        // scalar `mul_add` fold reproduces its dots (and hence classes)
        // bit-for-bit. (`f32::mul_add` is correctly rounded whether it
        // lowers to the FMA instruction or libm.)
        for (i, &o) in out.iter().enumerate() {
            let c = first + i;
            let r = &rows[c * dim..c * dim + dim];
            let dot = r
                .iter()
                .zip(q)
                .fold(0.0f32, |acc, (&x, &y)| x.mul_add(y, acc));
            let want = classify_one(dot, norms[c], na, t2, band_scale);
            assert_eq!(
                o, want,
                "classify_f32_run diverged from scalar judgment (candidate {c})"
            );
        }
    }
}

/// The scalar banded judgment shared by [`classify_f32_indexed`]'s
/// baseline path and debug assertions. Must mirror the vector path's f64
/// operation sequence exactly.
#[inline(always)]
fn classify_one(dot: f32, nb32: f32, na: f64, t2: f64, band_scale: f64) -> u8 {
    let nsum = na + nb32 as f64;
    let est = nsum - 2.0 * dot as f64;
    let band = band_scale * (nsum + t2);
    if est <= t2 - band {
        CLASS_KEEP
    } else if est > t2 + band {
        CLASS_REJECT
    } else {
        CLASS_EXACT
    }
}

/// Dot product with four independent f64 accumulators. A single-accumulator
/// loop is a serial FP add chain the compiler must not reorder (adds aren't
/// associative), capping it at one add per cycle; splitting the chain four
/// ways lets it vectorize on the SSE2 baseline. The order is a fixed
/// function of the slice, so determinism is untouched.
#[inline]
fn dot_f64_baseline(a: &[f64], b: &[f64]) -> f64 {
    let split = a.len() & !3;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        dot += x * y;
    }
    dot
}

/// Eight-accumulator f32 twin of [`dot_f64_baseline`] (two SSE2 registers'
/// worth of f32 lanes).
#[inline]
fn dot_f32_baseline(a: &[f32], b: &[f32]) -> f32 {
    let split = a.len() & !7;
    let mut acc = [0.0f32; 8];
    for (ca, cb) in a[..split].chunks_exact(8).zip(b[..split].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut dot = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        dot += x * y;
    }
    dot
}

/// Debug-only scalar-equivalence check: the lane result must match a serial
/// f64 fold to within the γ-style accumulation bound `(n + 8)·2ε·Σ|aᵢbᵢ|`.
/// Anything worse is a broken kernel, not rounding.
#[cfg(debug_assertions)]
fn assert_close_f64(dot: f64, a: &[f64], b: &[f64]) {
    let mut serial = 0.0f64;
    let mut mag = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let p = x * y;
        serial += p;
        mag += p.abs();
    }
    if !serial.is_finite() || !mag.is_finite() {
        return; // non-finite inputs: callers re-decide exactly anyway
    }
    let tol = (a.len() as f64 + 8.0) * 2.0 * f64::EPSILON * mag + f64::MIN_POSITIVE;
    assert!(
        (dot - serial).abs() <= tol,
        "SIMD f64 dot diverged from scalar: {dot} vs {serial} (tol {tol})"
    );
}

/// f32 twin of [`assert_close_f64`]; the serial reference accumulates in
/// f64 so the bound only has to cover the lane's own f32 rounding.
#[cfg(debug_assertions)]
fn assert_close_f32(dot: f32, a: &[f32], b: &[f32]) {
    let mut serial = 0.0f64;
    let mut mag = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let p = (*x as f64) * (*y as f64);
        serial += p;
        mag += p.abs();
    }
    if !serial.is_finite() || !mag.is_finite() || !dot.is_finite() {
        return;
    }
    let tol = (a.len() as f64 + 8.0) * 2.0 * f32::EPSILON as f64 * mag + f32::MIN_POSITIVE as f64;
    assert!(
        (dot as f64 - serial).abs() <= tol,
        "SIMD f32 dot diverged from scalar: {dot} vs {serial} (tol {tol})"
    );
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f64_avx2_fma(a: &[f64], b: &[f64]) -> f64 {
        use std::arch::x86_64::*;
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let a0 = _mm256_loadu_pd(a.as_ptr().add(i));
            let b0 = _mm256_loadu_pd(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_pd(a0, b0, acc0);
            let a1 = _mm256_loadu_pd(a.as_ptr().add(i + 4));
            let b1 = _mm256_loadu_pd(b.as_ptr().add(i + 4));
            acc1 = _mm256_fmadd_pd(a1, b1, acc1);
            i += 8;
        }
        if i + 4 <= n {
            let a0 = _mm256_loadu_pd(a.as_ptr().add(i));
            let b0 = _mm256_loadu_pd(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_pd(a0, b0, acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let pair = _mm_add_pd(lo, hi);
        let one = _mm_add_sd(pair, _mm_unpackhi_pd(pair, pair));
        let mut dot = _mm_cvtsd_f64(one);
        while i < n {
            dot += a.get_unchecked(i) * b.get_unchecked(i);
            i += 1;
        }
        dot
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32_avx2_fma(a: &[f32], b: &[f32]) -> f32 {
        use std::arch::x86_64::*;
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            let a1 = _mm256_loadu_ps(a.as_ptr().add(i + 8));
            let b1 = _mm256_loadu_ps(b.as_ptr().add(i + 8));
            acc1 = _mm256_fmadd_ps(a1, b1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        // Horizontal sum: 256 → 128 → 64 → 32 bits.
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let quad = _mm_add_ps(lo, hi);
        let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        let one = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01));
        let mut dot = _mm_cvtss_f32(one);
        while i < n {
            dot += a.get_unchecked(i) * b.get_unchecked(i);
            i += 1;
        }
        dot
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dots_f64_indexed_avx2_fma(
        q: &[f64],
        rows: &[f64],
        dim: usize,
        idx: &[u32],
        out: &mut [f64],
    ) {
        // `dot_f64_avx2_fma` inlines here (same target features), so the
        // whole tile runs in one call frame.
        for (o, &c) in out.iter_mut().zip(idx) {
            let r = &rows[c as usize * dim..c as usize * dim + dim];
            *o = dot_f64_avx2_fma(q, r);
        }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dots_f32_indexed_avx2_fma(
        q: &[f32],
        rows: &[f32],
        dim: usize,
        idx: &[u32],
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        // Four candidates per iteration: each 8-lane query load is reused
        // by four independent FMA chains, so the loop is FMA-throughput-
        // bound instead of latency- or load-bound. Remainders (tail of the
        // tile, or dim not a multiple of 8) fall back to the one-pair
        // kernel, which also inlines here.
        let mut i = 0;
        if dim >= 8 && dim.is_multiple_of(8) {
            while i + 4 <= idx.len() {
                let r0 = rows.as_ptr().add(idx[i] as usize * dim);
                let r1 = rows.as_ptr().add(idx[i + 1] as usize * dim);
                let r2 = rows.as_ptr().add(idx[i + 2] as usize * dim);
                let r3 = rows.as_ptr().add(idx[i + 3] as usize * dim);
                let mut a0 = _mm256_setzero_ps();
                let mut a1 = _mm256_setzero_ps();
                let mut a2 = _mm256_setzero_ps();
                let mut a3 = _mm256_setzero_ps();
                let mut d = 0;
                while d < dim {
                    let qv = _mm256_loadu_ps(q.as_ptr().add(d));
                    a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0.add(d)), qv, a0);
                    a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1.add(d)), qv, a1);
                    a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2.add(d)), qv, a2);
                    a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3.add(d)), qv, a3);
                    d += 8;
                }
                out[i] = hsum_ps(a0);
                out[i + 1] = hsum_ps(a1);
                out[i + 2] = hsum_ps(a2);
                out[i + 3] = hsum_ps(a3);
                i += 4;
            }
        }
        while i < idx.len() {
            let c = idx[i] as usize;
            out[i] = dot_f32_avx2_fma(q, &rows[c * dim..c * dim + dim]);
            i += 1;
        }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn classify_f32_indexed_avx2_fma(
        q: &[f32],
        rows: &[f32],
        norms: &[f32],
        dim: usize,
        idx: &[u32],
        na: f64,
        t2: f64,
        band_scale: f64,
        out: &mut [u8],
    ) {
        use std::arch::x86_64::*;
        let na_v = _mm256_set1_pd(na);
        let t2_v = _mm256_set1_pd(t2);
        let two = _mm256_set1_pd(2.0);
        let scale_v = _mm256_set1_pd(band_scale);
        let mut i = 0;
        if dim >= 8 && dim.is_multiple_of(8) {
            while i + 4 <= idx.len() {
                let c0 = idx[i] as usize;
                let c1 = idx[i + 1] as usize;
                let c2 = idx[i + 2] as usize;
                let c3 = idx[i + 3] as usize;
                let r0 = rows.as_ptr().add(c0 * dim);
                let r1 = rows.as_ptr().add(c1 * dim);
                let r2 = rows.as_ptr().add(c2 * dim);
                let r3 = rows.as_ptr().add(c3 * dim);
                let mut a0 = _mm256_setzero_ps();
                let mut a1 = _mm256_setzero_ps();
                let mut a2 = _mm256_setzero_ps();
                let mut a3 = _mm256_setzero_ps();
                let mut d = 0;
                while d < dim {
                    let qv = _mm256_loadu_ps(q.as_ptr().add(d));
                    a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0.add(d)), qv, a0);
                    a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1.add(d)), qv, a1);
                    a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2.add(d)), qv, a2);
                    a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3.add(d)), qv, a3);
                    d += 8;
                }
                // Widen the four dots and candidate norms to f64 and run
                // the *same* operation sequence as `super::classify_one`,
                // four lanes at once: nsum = na + nb; est = nsum − 2·dot;
                // band = scale · (nsum + t2). The ordered non-signaling
                // compares match scalar `<=` / `>` on NaNs (false → the
                // pair classifies EXACT and is re-decided exactly).
                let dots = _mm_set_ps(hsum_ps(a3), hsum_ps(a2), hsum_ps(a1), hsum_ps(a0));
                let nb = _mm_set_ps(norms[c3], norms[c2], norms[c1], norms[c0]);
                let dots_pd = _mm256_cvtps_pd(dots);
                let nsum = _mm256_add_pd(na_v, _mm256_cvtps_pd(nb));
                let est = _mm256_sub_pd(nsum, _mm256_mul_pd(two, dots_pd));
                let band = _mm256_mul_pd(scale_v, _mm256_add_pd(nsum, t2_v));
                let keep = _mm256_cmp_pd::<_CMP_LE_OQ>(est, _mm256_sub_pd(t2_v, band));
                let rej = _mm256_cmp_pd::<_CMP_GT_OQ>(est, _mm256_add_pd(t2_v, band));
                let km = _mm256_movemask_pd(keep) as u32;
                let rm = _mm256_movemask_pd(rej) as u32;
                for l in 0..4 {
                    let k = (km >> l) & 1;
                    let r = (rm >> l) & 1;
                    // keep → 1, reject → 0, unclassified → 2 (see the
                    // CLASS_* constants).
                    out[i + l] = (k + 2 * (1 - k) * (1 - r)) as u8;
                }
                i += 4;
            }
        }
        while i < idx.len() {
            let c = idx[i] as usize;
            let dot = dot_f32_avx2_fma(q, &rows[c * dim..c * dim + dim]);
            out[i] = super::classify_one(dot, norms[c], na, t2, band_scale);
            i += 1;
        }
    }

    /// Contiguous-run twin of [`classify_f32_indexed_avx2_fma`], fed from
    /// the dimension-major mirror. Outer blocks of 32 candidates: per
    /// query coordinate, one broadcast is reused by four 8-lane FMA
    /// chains over consecutive candidates; the dots stay vertical, so the
    /// banded classification is pure f64 vector code with no shuffles.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]), and that `first + out.len() <= n` with `cols` a
    /// `dim × n` dimension-major slab.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn classify_f32_run_avx2_fma(
        q: &[f32],
        cols: &[f32],
        n: usize,
        rows: &[f32],
        norms: &[f32],
        dim: usize,
        first: usize,
        na: f64,
        t2: f64,
        band_scale: f64,
        out: &mut [u8],
    ) {
        use std::arch::x86_64::*;
        let len = out.len();
        let na_v = _mm256_set1_pd(na);
        let t2_v = _mm256_set1_pd(t2);
        let two = _mm256_set1_pd(2.0);
        let scale_v = _mm256_set1_pd(band_scale);
        let mut i = 0;
        while i + 32 <= len {
            let base = first + i;
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for d in 0..dim {
                let qd = _mm256_broadcast_ss(q.get_unchecked(d));
                let col = cols.as_ptr().add(d * n + base);
                a0 = _mm256_fmadd_ps(_mm256_loadu_ps(col), qd, a0);
                a1 = _mm256_fmadd_ps(_mm256_loadu_ps(col.add(8)), qd, a1);
                a2 = _mm256_fmadd_ps(_mm256_loadu_ps(col.add(16)), qd, a2);
                a3 = _mm256_fmadd_ps(_mm256_loadu_ps(col.add(24)), qd, a3);
            }
            let outp = out.as_mut_ptr().add(i);
            let np = norms.as_ptr().add(base);
            classify8(a0, np, outp, na_v, t2_v, two, scale_v);
            classify8(a1, np.add(8), outp.add(8), na_v, t2_v, two, scale_v);
            classify8(a2, np.add(16), outp.add(16), na_v, t2_v, two, scale_v);
            classify8(a3, np.add(24), outp.add(24), na_v, t2_v, two, scale_v);
            i += 32;
        }
        while i + 8 <= len {
            let base = first + i;
            let mut a0 = _mm256_setzero_ps();
            for d in 0..dim {
                let qd = _mm256_broadcast_ss(q.get_unchecked(d));
                a0 = _mm256_fmadd_ps(_mm256_loadu_ps(cols.as_ptr().add(d * n + base)), qd, a0);
            }
            classify8(
                a0,
                norms.as_ptr().add(base),
                out.as_mut_ptr().add(i),
                na_v,
                t2_v,
                two,
                scale_v,
            );
            i += 8;
        }
        while i < len {
            // Scalar tail over the row-major mirror — the same single FMA
            // chain per candidate as the lanes above, so the debug
            // reference in the dispatcher covers every path.
            let c = first + i;
            let r = &rows[c * dim..c * dim + dim];
            let mut dot = 0.0f32;
            for d in 0..dim {
                dot = r[d].mul_add(q[d], dot);
            }
            out[i] = super::classify_one(dot, norms[c], na, t2, band_scale);
            i += 1;
        }
    }

    /// Banded classification of eight vertically-accumulated f32 dots:
    /// widens each 4-lane half to f64, runs `super::classify_one`'s exact
    /// operation sequence in vectors, and writes the eight `CLASS_*`
    /// bytes.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA, `nb` points at
    /// eight readable f32 norms, and `out` at eight writable bytes.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn classify8(
        dots: std::arch::x86_64::__m256,
        nb: *const f32,
        out: *mut u8,
        na_v: std::arch::x86_64::__m256d,
        t2_v: std::arch::x86_64::__m256d,
        two: std::arch::x86_64::__m256d,
        scale_v: std::arch::x86_64::__m256d,
    ) {
        use std::arch::x86_64::*;
        let nbv = _mm256_loadu_ps(nb);
        let mut km = 0u32;
        let mut rm = 0u32;
        for h in 0..2u32 {
            let (dp, nbp) = if h == 0 {
                (
                    _mm256_cvtps_pd(_mm256_castps256_ps128(dots)),
                    _mm256_cvtps_pd(_mm256_castps256_ps128(nbv)),
                )
            } else {
                (
                    _mm256_cvtps_pd(_mm256_extractf128_ps(dots, 1)),
                    _mm256_cvtps_pd(_mm256_extractf128_ps(nbv, 1)),
                )
            };
            let nsum = _mm256_add_pd(na_v, nbp);
            let est = _mm256_sub_pd(nsum, _mm256_mul_pd(two, dp));
            let band = _mm256_mul_pd(scale_v, _mm256_add_pd(nsum, t2_v));
            let keep = _mm256_cmp_pd::<_CMP_LE_OQ>(est, _mm256_sub_pd(t2_v, band));
            let rej = _mm256_cmp_pd::<_CMP_GT_OQ>(est, _mm256_add_pd(t2_v, band));
            km |= (_mm256_movemask_pd(keep) as u32) << (4 * h);
            rm |= (_mm256_movemask_pd(rej) as u32) << (4 * h);
        }
        for l in 0..8 {
            let k = (km >> l) & 1;
            let r = (rm >> l) & 1;
            *out.add(l) = (k + 2 * (1 - k) * (1 - r)) as u8;
        }
    }

    /// Horizontal sum of 8 f32 lanes: 256 → 128 → 64 → 32 bits.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 (see [`super::lane`]).
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_ps(acc: std::arch::x86_64::__m256) -> f32 {
        use std::arch::x86_64::*;
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let quad = _mm_add_ps(lo, hi);
        let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        _mm_cvtss_f32(_mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01)))
    }

    /// # Safety
    /// Caller must ensure the host supports AVX-512F (see [`super::lane`]).
    #[cfg(feature = "avx512")]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot_f32_avx512(a: &[f32], b: &[f32]) -> f32 {
        use std::arch::x86_64::*;
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            let a0 = _mm512_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm512_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm512_fmadd_ps(a0, b0, acc0);
            let a1 = _mm512_loadu_ps(a.as_ptr().add(i + 16));
            let b1 = _mm512_loadu_ps(b.as_ptr().add(i + 16));
            acc1 = _mm512_fmadd_ps(a1, b1, acc1);
            i += 32;
        }
        if i + 16 <= n {
            let a0 = _mm512_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm512_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm512_fmadd_ps(a0, b0, acc0);
            i += 16;
        }
        let mut dot = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
        while i < n {
            dot += a.get_unchecked(i) * b.get_unchecked(i);
            i += 1;
        }
        dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic, sign-mixed, magnitude-mixed inputs.
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761 % 1000) as f64 - 500.0) / 37.0)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 40503 % 1000) as f64 - 499.0) / 13.0)
            .collect();
        (a, b)
    }

    #[test]
    fn lane_is_stable() {
        assert_eq!(lane(), lane());
        assert!(!lane().name().is_empty());
    }

    #[test]
    fn dot_f64_matches_serial_fold() {
        for n in [0, 1, 3, 4, 7, 8, 15, 16, 33, 64, 100] {
            let (a, b) = rows(n);
            let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = dot_f64(&a, &b);
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let tol = (n as f64 + 8.0) * 2.0 * f64::EPSILON * mag;
            assert!((got - serial).abs() <= tol, "n={n}: {got} vs {serial}");
        }
    }

    #[test]
    fn dot_f32_matches_widened_serial_fold() {
        for n in [0, 1, 7, 8, 9, 16, 17, 31, 32, 33, 64, 100] {
            let (a64, b64) = rows(n);
            let a: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
            let b: Vec<f32> = b64.iter().map(|&x| x as f32).collect();
            let serial: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (*x as f64) * (*y as f64))
                .sum();
            let mag: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| ((*x as f64) * (*y as f64)).abs())
                .sum();
            let got = dot_f32(&a, &b) as f64;
            let tol = (n as f64 + 8.0) * 2.0 * f32::EPSILON as f64 * mag + f32::MIN_POSITIVE as f64;
            assert!((got - serial).abs() <= tol, "n={n}: {got} vs {serial}");
        }
    }

    #[test]
    fn empty_and_unit_dots() {
        assert_eq!(dot_f64(&[], &[]), 0.0);
        assert_eq!(dot_f32(&[], &[]), 0.0);
        assert_eq!(dot_f64(&[2.0], &[3.5]), 7.0);
        assert_eq!(dot_f32(&[2.0], &[3.5]), 7.0);
    }
}
