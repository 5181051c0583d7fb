//! Dense element-matrix storage and the vectorized EMV kernel.
//!
//! HYMV's central data structure is the array of locally-stored element
//! matrices, kept **column-major** so the elemental mat-vec
//! `ve = Σⱼ Ke[:,j] · ue[j]` (paper equation (4)) walks memory linearly and
//! vectorizes as a chain of axpy operations. The kernel is dispatched at
//! runtime: AVX-512F if the CPU has it, then AVX2+FMA, then a portable
//! chunked loop the autovectorizer handles well.
//!
//! All unchecked memory access in the SIMD kernels goes through the
//! [`lanes`] helpers, and every kernel carries a `prove-bounds` verify
//! marker: `hymv-verify effects` symbolically proves, from the
//! `debug_assert!` preconditions, that every lane access is in bounds
//! (tails included) for all `nd`/`bw`. Building with
//! `--features sanitize` swaps the helpers for checked shims that assert
//! the same bounds at runtime.

use std::sync::OnceLock;

/// Unchecked slice access at fixed SIMD lane widths — the only unsafe
/// memory primitives the EMV kernels may use (the bounds interpreter in
/// `hymv-verify` rejects anything else inside a `prove-bounds` kernel).
///
/// Each helper takes `(slice, at)` and touches `at..at + lanes`; the
/// caller owes the proof `at + lanes <= slice.len()`. Only *unaligned*
/// load/store forms exist, so the helpers have no alignment
/// preconditions. Under `--features sanitize` every call also asserts
/// its bounds at runtime (the CI sanitize job runs the la/core test
/// suites in this mode).
#[cfg(target_arch = "x86_64")]
pub(crate) mod lanes {
    use std::arch::x86_64::{
        __m256d, __m512d, _mm256_loadu_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm512_loadu_pd,
        _mm512_set1_pd, _mm512_storeu_pd,
    };

    #[cfg(feature = "sanitize")]
    #[inline(always)]
    fn check(len: usize, at: usize, lanes: usize, what: &str) {
        assert!(
            at + lanes <= len,
            "sanitize: {what} of {lanes} lane(s) at {at} overruns slice of len {len}"
        );
    }

    /// 4-lane unaligned load from `s[at..at + 4]`.
    ///
    /// SAFETY contract: `at + 4 <= s.len()`; the CPU supports AVX.
    #[inline]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn load4(s: &[f64], at: usize) -> __m256d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 4, "load4");
        debug_assert!(at + 4 <= s.len());
        _mm256_loadu_pd(s.as_ptr().add(at))
    }

    /// 4-lane unaligned store to `s[at..at + 4]`.
    ///
    /// SAFETY contract: `at + 4 <= s.len()`; the CPU supports AVX.
    #[inline]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn store4(s: &mut [f64], at: usize, v: __m256d) {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 4, "store4");
        debug_assert!(at + 4 <= s.len());
        _mm256_storeu_pd(s.as_mut_ptr().add(at), v);
    }

    /// 8-lane unaligned load from `s[at..at + 8]`.
    ///
    /// SAFETY contract: `at + 8 <= s.len()`; the CPU supports AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn load8(s: &[f64], at: usize) -> __m512d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 8, "load8");
        debug_assert!(at + 8 <= s.len());
        _mm512_loadu_pd(s.as_ptr().add(at))
    }

    /// 8-lane unaligned store to `s[at..at + 8]`.
    ///
    /// SAFETY contract: `at + 8 <= s.len()`; the CPU supports AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn store8(s: &mut [f64], at: usize, v: __m512d) {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 8, "store8");
        debug_assert!(at + 8 <= s.len());
        _mm512_storeu_pd(s.as_mut_ptr().add(at), v);
    }

    /// Broadcast-load: scalar `s[at]` splatted into all 4 lanes (the
    /// multivector kernels read one `Ke` entry and reuse it across the
    /// column dimension).
    ///
    /// SAFETY contract: `at < s.len()`; the CPU supports AVX.
    #[inline]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn bcast4(s: &[f64], at: usize) -> __m256d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "bcast4");
        debug_assert!(at < s.len());
        _mm256_set1_pd(*s.get_unchecked(at))
    }

    /// Broadcast-load: scalar `s[at]` splatted into all 8 lanes.
    ///
    /// SAFETY contract: `at < s.len()`; the CPU supports AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn bcast8(s: &[f64], at: usize) -> __m512d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "bcast8");
        debug_assert!(at < s.len());
        _mm512_set1_pd(*s.get_unchecked(at))
    }

    /// Unchecked scalar read `s[at]` (kernel remainder loops).
    ///
    /// SAFETY contract: `at < s.len()`.
    #[inline(always)]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn read1(s: &[f64], at: usize) -> f64 {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "read1");
        debug_assert!(at < s.len());
        *s.get_unchecked(at)
    }

    /// Unchecked scalar accumulate `s[at] += x` (kernel remainder loops).
    ///
    /// SAFETY contract: `at < s.len()`.
    #[inline(always)]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn add1(s: &mut [f64], at: usize, x: f64) {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "add1");
        debug_assert!(at < s.len());
        *s.get_unchecked_mut(at) += x;
    }
}

/// Contiguous storage of `n_elems` column-major `nd × nd` element matrices.
///
/// The operators keep their matrices in the batch-interleaved slabs of
/// `hymv_core::BlockPlan`; this element-major layout is the reference the
/// block-engine tests and the per-element benchmark baseline compare
/// against.
#[derive(Debug, Clone)]
pub struct ElementMatrixStore {
    nd: usize,
    n_elems: usize,
    data: Vec<f64>,
}

impl ElementMatrixStore {
    /// Zero-initialized storage.
    pub fn new(nd: usize, n_elems: usize) -> Self {
        assert!(nd > 0, "element matrix dimension must be positive");
        ElementMatrixStore {
            nd,
            n_elems,
            data: vec![0.0; nd * nd * n_elems],
        }
    }

    /// Element matrix dimension.
    pub fn nd(&self) -> usize {
        self.nd
    }

    /// Number of stored matrices.
    pub fn n_elems(&self) -> usize {
        self.n_elems
    }

    /// Bytes of matrix storage (the memory-footprint figure HYMV pays for
    /// its speed).
    pub fn bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Immutable view of element `e`'s matrix.
    pub fn ke(&self, e: usize) -> &[f64] {
        let sz = self.nd * self.nd;
        &self.data[e * sz..(e + 1) * sz]
    }

    /// Mutable view of element `e`'s matrix (the adaptive-update path:
    /// XFEM enrichment recomputes only these entries).
    pub fn ke_mut(&mut self, e: usize) -> &mut [f64] {
        let sz = self.nd * self.nd;
        &mut self.data[e * sz..(e + 1) * sz]
    }

    /// The whole storage as a flat slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// The per-element EMV kernel signature (`ke`, `ue`, `ve`).
pub type EmvKernel = fn(&[f64], &[f64], &mut [f64]);

/// The one batched EMV kernel signature (`keb`, `ue`, `ve`, `nd`, `bw`,
/// `nvec`): batch-interleaved matrices against `nd × bw × nvec` panels.
/// `nvec = 1` is the single-vector SPMV.
pub type EmvBatchKernel = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);

/// `ve = Ke · ue` for a column-major `nd × nd` matrix; `nd` inferred from
/// `ue.len()`. Runtime-dispatched to the best available SIMD variant.
///
/// Convenience wrapper for tests and one-off calls: the lookup costs an
/// atomic load per call. Hot loops should resolve [`select_kernel`] once
/// at loop entry and call through the function pointer.
#[inline]
pub fn emv(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    static KERNEL: OnceLock<EmvKernel> = OnceLock::new();
    let k = KERNEL.get_or_init(select_kernel);
    k(ke, ue, ve);
}

/// Name of the dispatched kernel variant (for experiment logs).
pub fn emv_kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2+fma";
        }
    }
    "portable"
}

/// Pick the best per-element EMV variant for this CPU. Resolve once per
/// SPMV (or cache in the operator) — not per element.
pub fn select_kernel() -> EmvKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return emv_avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return emv_avx2;
        }
    }
    emv_portable
}

/// Portable column-axpy variant; the inner loop autovectorizes.
// verify: kernel-entry
pub fn emv_portable(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    ve.fill(0.0);
    for (j, &u) in ue.iter().enumerate() {
        let col = &ke[j * nd..(j + 1) * nd];
        for (v, &k) in ve.iter_mut().zip(col) {
            *v += k * u;
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_avx2(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    // SAFETY: dispatch guarantees avx2+fma are available.
    unsafe { emv_avx2_impl(ke, ue, ve) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_avx2_impl(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    use std::arch::x86_64::*;
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    ve.fill(0.0);
    let chunks = nd / 4;
    for j in 0..nd {
        let u = lanes::read1(ue, j);
        let ub = _mm256_set1_pd(u);
        for c in 0..chunks {
            let k = lanes::load4(ke, j * nd + 4 * c);
            let v = lanes::load4(ve, 4 * c);
            lanes::store4(ve, 4 * c, _mm256_fmadd_pd(k, ub, v));
        }
        for i in 4 * chunks..nd {
            lanes::add1(ve, i, lanes::read1(ke, j * nd + i) * u);
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_avx512(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    // SAFETY: dispatch guarantees avx512f is available.
    unsafe { emv_avx512_impl(ke, ue, ve) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_avx512_impl(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    use std::arch::x86_64::*;
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    ve.fill(0.0);
    let chunks = nd / 8;
    for j in 0..nd {
        let u = lanes::read1(ue, j);
        let ub = _mm512_set1_pd(u);
        for c in 0..chunks {
            let k = lanes::load8(ke, j * nd + 8 * c);
            let v = lanes::load8(ve, 8 * c);
            lanes::store8(ve, 8 * c, _mm512_fmadd_pd(k, ub, v));
        }
        for i in 8 * chunks..nd {
            lanes::add1(ve, i, lanes::read1(ke, j * nd + i) * u);
        }
    }
}

// ---------------------------------------------------------------------------
// Batched EMV: `Ve = Ke_b · Ue` for a block of `bw` elements at once.
//
// Layouts (all contiguous, batch-minor):
//   keb[(j*nd + i)*bw + b]  — entry (i,j) of element b's matrix,
//   ue [j*bw + b]           — input panel, nd × bw,
//   ve [i*bw + b]           — output panel, nd × bw.
//
// Vectorization runs **across the batch dimension**: every load/store in
// the inner loop is unit-stride over `bw` lanes, so SIMD sees full vectors
// regardless of nd — unlike the per-element axpy, whose vector length is
// capped by nd and pays a remainder loop per column.
//
// These are the `nvec = 1` entries of the one `(bw, nvec)` dispatch table;
// every kernel takes the full `(keb, ue, ve, nd, bw, nvec)` signature.
// ---------------------------------------------------------------------------

/// Maximum supported batch width (bounds kernel register/stack usage).
pub const MAX_BATCH_WIDTH: usize = 64;

/// `Ve = Ke_b · Ue` over the panel layouts above and below.
///
/// Convenience wrapper for tests: dispatches on every call. Hot loops
/// should resolve [`select_batch_kernel`] once per apply.
#[inline]
pub fn emv_batch(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    select_batch_kernel(bw, nvec)(keb, ue, ve, nd, bw, nvec);
}

/// Pick the best batched-EMV variant for this CPU, batch width and vector
/// count.
///
/// * `nvec = 1`: the single-vector kernels, which vectorize across the
///   batch. `bw = 1` runs the per-element kernels through the width-1
///   adapters; the SIMD variants need `bw` a multiple of the vector width
///   (and small enough to keep per-row accumulators in registers); other
///   widths take the portable kernel, which autovectorizes well.
/// * `nvec > 1`: the multivector kernels, which vectorize across the
///   vector columns, so the SIMD variants need `nvec` a multiple of the
///   vector width; other counts take the portable kernel.
///
/// # Panics
/// If `bw` is outside `1..=MAX_BATCH_WIDTH` or `nvec` outside
/// `1..=MAX_NVEC_WIDTH`.
pub fn select_batch_kernel(bw: usize, nvec: usize) -> EmvBatchKernel {
    assert!(
        bw >= 1 && bw <= MAX_BATCH_WIDTH,
        "batch width {bw} outside 1..={MAX_BATCH_WIDTH}"
    );
    assert!(
        nvec >= 1 && nvec <= MAX_NVEC_WIDTH,
        "multivector width {nvec} outside 1..={MAX_NVEC_WIDTH}"
    );
    batch_dispatch(bw, nvec).0
}

/// Name of the dispatched batched-kernel variant (for experiment logs).
pub fn emv_batch_kernel_name(bw: usize, nvec: usize) -> &'static str {
    batch_dispatch(bw, nvec).1
}

/// The one dispatch table `(bw, nvec) → (kernel, name)` behind
/// [`select_batch_kernel`] and [`emv_batch_kernel_name`].
fn batch_dispatch(bw: usize, nvec: usize) -> (EmvBatchKernel, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        let avx512 = is_x86_feature_detected!("avx512f");
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        if nvec == 1 {
            if bw == 1 && avx512 {
                return (emv_batch1_avx512, "batch1-avx512f");
            }
            if bw == 1 && avx2 {
                return (emv_batch1_avx2, "batch1-avx2+fma");
            }
            if bw % 8 == 0 && bw <= 64 && avx512 {
                return (emv_batch_avx512, "batch-avx512f");
            }
            if bw % 4 == 0 && bw <= 32 && avx2 {
                return (emv_batch_avx2, "batch-avx2+fma");
            }
        } else {
            if nvec % 8 == 0 && nvec <= MAX_NVEC_WIDTH && avx512 {
                return (emv_batch_mv_avx512, "mv-avx512f");
            }
            if nvec % 4 == 0 && nvec <= MAX_NVEC_WIDTH && avx2 {
                return (emv_batch_mv_avx2, "mv-avx2+fma");
            }
        }
    }
    match (bw, nvec) {
        (1, 1) => (emv_batch1_portable, "batch1-portable"),
        (_, 1) => (emv_batch_portable, "batch-portable"),
        _ => (emv_batch_mv_portable, "mv-portable"),
    }
}

// Width-1 adapters. A `bw = 1` slab (`keb[idx·1 + 0] = ke[idx]`) is
// byte-for-byte the column-major `Ke` the per-element kernels read, and
// the `nd × 1` panels are plain element vectors, so B=1 runs on the
// per-element kernels unchanged. The batched contract at `bw = 1`
// (`keb.len() = nd²`, `ue.len() = ve.len() = nd`) is exactly their
// proved precondition.

// verify: kernel-entry
fn emv_batch1_portable(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    debug_assert!(bw == 1 && nvec == 1 && ue.len() == nd);
    emv_portable(keb, ue, ve);
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
fn emv_batch1_avx2(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    debug_assert!(bw == 1 && nvec == 1 && ue.len() == nd);
    emv_avx2(keb, ue, ve);
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
fn emv_batch1_avx512(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    debug_assert!(bw == 1 && nvec == 1 && ue.len() == nd);
    emv_avx512(keb, ue, ve);
}

/// Portable batched kernel: column-axpy order (`j` outer) so `keb` is
/// streamed linearly exactly once; the `ve` panel (nd·bw doubles) stays
/// cache-resident across columns. The lane loop autovectorizes.
// verify: kernel-entry
pub fn emv_batch_portable(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    debug_assert_eq!(nvec, 1);
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw);
    debug_assert_eq!(ve.len(), nd * bw);
    ve.fill(0.0);
    for j in 0..nd {
        let uej = &ue[j * bw..(j + 1) * bw];
        let col = &keb[j * nd * bw..(j + 1) * nd * bw];
        for i in 0..nd {
            let k = &col[i * bw..(i + 1) * bw];
            let v = &mut ve[i * bw..(i + 1) * bw];
            for b in 0..bw {
                v[b] += k[b] * uej[b];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_avx2(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    debug_assert_eq!(nvec, 1);
    // SAFETY: dispatch guarantees avx2+fma are available and bw % 4 == 0,
    // bw <= 32.
    unsafe { emv_batch_avx2_impl(keb, ue, ve, nd, bw) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_batch_avx2_impl(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    use std::arch::x86_64::*;
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw);
    debug_assert_eq!(ve.len(), nd * bw);
    debug_assert!(bw % 4 == 0 && bw <= 32);
    let chunks = bw / 4;
    // Row-outer with register accumulators: each output row `i` is reduced
    // over all columns `j` without touching memory, so `ve` is stored once
    // per row instead of read-modified-written per column. `keb` is still
    // single-touch: row i of column j is one contiguous bw-lane strip.
    for i in 0..nd {
        let mut acc = [_mm256_setzero_pd(); 8];
        for j in 0..nd {
            for c in 0..chunks {
                let k = lanes::load4(keb, (j * nd + i) * bw + 4 * c);
                let u = lanes::load4(ue, j * bw + 4 * c);
                acc[c] = _mm256_fmadd_pd(k, u, acc[c]);
            }
        }
        for c in 0..chunks {
            lanes::store4(ve, i * bw + 4 * c, acc[c]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_avx512(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    debug_assert_eq!(nvec, 1);
    // SAFETY: dispatch guarantees avx512f is available and bw % 8 == 0,
    // bw <= 64.
    unsafe { emv_batch_avx512_impl(keb, ue, ve, nd, bw) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_batch_avx512_impl(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    use std::arch::x86_64::*;
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw);
    debug_assert_eq!(ve.len(), nd * bw);
    debug_assert!(bw % 8 == 0 && bw <= 64);
    let chunks = bw / 8;
    for i in 0..nd {
        let mut acc = [_mm512_setzero_pd(); 8];
        for j in 0..nd {
            for c in 0..chunks {
                let k = lanes::load8(keb, (j * nd + i) * bw + 8 * c);
                let u = lanes::load8(ue, j * bw + 8 * c);
                acc[c] = _mm512_fmadd_pd(k, u, acc[c]);
            }
        }
        for c in 0..chunks {
            lanes::store8(ve, i * bw + 8 * c, acc[c]);
        }
    }
}

/// FLOPs of one batched EMV: `2·nd²·bw` (every lane does a full EMV).
pub fn emv_batch_flops(nd: usize, bw: usize) -> u64 {
    emv_flops(nd) * bw as u64
}

/// Interleave one element's column-major `nd × nd` matrix into lane `b` of
/// a batch-interleaved slab (`keb[idx*bw + b] = ke[idx]`).
pub fn interleave_ke(ke: &[f64], keb: &mut [f64], nd: usize, bw: usize, b: usize) {
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert!(b < bw);
    for (idx, &v) in ke.iter().enumerate() {
        keb[idx * bw + b] = v;
    }
}

// ---------------------------------------------------------------------------
// Multivector batched EMV (SpMM): `Ve = Ke_b · Ue` for `nvec` right-hand
// sides at once.
//
// Layouts (all contiguous, column-minor panels):
//   keb[(j*nd + i)*bw + b]      — the same batch-interleaved slab as the
//                                 single-vector kernels (no re-interleave),
//   ue [(j*bw + b)*nvec + c]    — input panel, nd × bw × nvec,
//   ve [(i*bw + b)*nvec + c]    — output panel, nd × bw × nvec.
//
// At `nvec = 1` these panels are byte for byte the single-vector panels,
// and the dispatch table hands that case to the single-vector kernels.
//
// Vectorization runs **across the vector columns `c`**: the `nvec` values
// of one (dof, lane) pair are contiguous, so the inner loop is unit-stride
// full vectors. Each `Ke` entry is loaded exactly once per SpMM — a single
// broadcast feeds all `nvec` columns — which is the whole point: the
// batched EMV pipeline is bandwidth-bound on `Ke` slab traffic, and the
// multivector product amortizes that traffic over `nvec` solves.
// ---------------------------------------------------------------------------

/// Maximum supported multivector width (bounds kernel register usage:
/// `nvec/4 ≤ 8` AVX2 accumulators per (row, lane) pair).
pub const MAX_NVEC_WIDTH: usize = 32;

/// Portable multivector kernel: column-axpy order (`j` outer) so `keb` is
/// streamed linearly exactly once per SpMM. Per vector column this is the
/// same multiply-add chain as [`emv_batch_portable`], so a width-`nvec`
/// product reproduces `nvec` sequential batched EMVs bitwise.
// verify: kernel-entry
pub fn emv_batch_mv_portable(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    ve.fill(0.0);
    for j in 0..nd {
        let col = &keb[j * nd * bw..(j + 1) * nd * bw];
        for i in 0..nd {
            let k = &col[i * bw..(i + 1) * bw];
            for b in 0..bw {
                let kb = k[b];
                let u = &ue[(j * bw + b) * nvec..(j * bw + b + 1) * nvec];
                let v = &mut ve[(i * bw + b) * nvec..(i * bw + b + 1) * nvec];
                for (vc, &uc) in v.iter_mut().zip(u) {
                    *vc += kb * uc;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_mv_avx2(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    // SAFETY: dispatch guarantees avx2+fma are available and nvec % 4 == 0,
    // nvec <= 32.
    unsafe { emv_batch_mv_avx2_impl(keb, ue, ve, nd, bw, nvec) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_batch_mv_avx2_impl(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    debug_assert!(nvec % 4 == 0 && nvec <= 32);
    let chunks = nvec / 4;
    // Row-outer with register accumulators per (row, lane): the nvec-wide
    // column tile of output (i, b) is reduced over all dof columns j
    // without touching memory. Each keb entry is read once (a scalar
    // broadcast) and amortized across all nvec vector columns — per
    // column, the reduction is the same fmadd chain as the single-vector
    // SIMD batch kernels, so results match them bitwise.
    for i in 0..nd {
        for b in 0..bw {
            let mut acc = [_mm256_setzero_pd(); 8];
            for j in 0..nd {
                let k = lanes::bcast4(keb, (j * nd + i) * bw + b);
                for c in 0..chunks {
                    let u = lanes::load4(ue, (j * bw + b) * nvec + 4 * c);
                    acc[c] = _mm256_fmadd_pd(k, u, acc[c]);
                }
            }
            for c in 0..chunks {
                lanes::store4(ve, (i * bw + b) * nvec + 4 * c, acc[c]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_mv_avx512(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    // SAFETY: dispatch guarantees avx512f is available and nvec % 8 == 0,
    // nvec <= 64.
    unsafe { emv_batch_mv_avx512_impl(keb, ue, ve, nd, bw, nvec) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_batch_mv_avx512_impl(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    debug_assert!(nvec % 8 == 0 && nvec <= 64);
    let chunks = nvec / 8;
    for i in 0..nd {
        for b in 0..bw {
            let mut acc = [_mm512_setzero_pd(); 8];
            for j in 0..nd {
                let k = lanes::bcast8(keb, (j * nd + i) * bw + b);
                for c in 0..chunks {
                    let u = lanes::load8(ue, (j * bw + b) * nvec + 8 * c);
                    acc[c] = _mm512_fmadd_pd(k, u, acc[c]);
                }
            }
            for c in 0..chunks {
                lanes::store8(ve, (i * bw + b) * nvec + 8 * c, acc[c]);
            }
        }
    }
}

/// FLOPs of one multivector batched EMV: `2·nd²·bw·nvec`.
pub fn emv_batch_mv_flops(nd: usize, bw: usize, nvec: usize) -> u64 {
    emv_batch_flops(nd, bw) * nvec as u64
}

/// The ablation variant: dot-product order over a column-major matrix —
/// stride-`nd` access, deliberately cache-hostile. Used by the kernel
/// ablation bench to show why equation (4) prescribes the axpy order.
pub fn emv_dot_strided(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    for (i, v) in ve.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &u) in ue.iter().enumerate() {
            acc += ke[j * nd + i] * u;
        }
        *v = acc;
    }
}

/// FLOPs of one EMV: `2·nd²` (multiply + add per matrix entry).
pub fn emv_flops(nd: usize) -> u64 {
    2 * (nd as u64) * (nd as u64)
}

/// Dense Gaussian-elimination solve with partial pivoting, used by tests
/// and tiny reference computations. `a` is column-major `n × n`, consumed.
pub fn solve_dense(mut a: Vec<f64>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    assert_eq!(a.len(), n * n);
    for k in 0..n {
        // Pivot.
        let piv = (k..n)
            .max_by(|&i, &j| {
                a[k * n + i]
                    .abs()
                    .partial_cmp(&a[k * n + j].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if piv != k {
            for j in 0..n {
                a.swap(j * n + k, j * n + piv);
            }
            b.swap(k, piv);
        }
        let d = a[k * n + k];
        assert!(d.abs() > 1e-300, "singular matrix in solve_dense");
        for i in k + 1..n {
            let f = a[k * n + i] / d;
            if f != 0.0 {
                for j in k..n {
                    a[j * n + i] -= f * a[j * n + k];
                }
                b[i] -= f * b[k];
            }
        }
    }
    for k in (0..n).rev() {
        let mut s = b[k];
        for j in k + 1..n {
            s -= a[j * n + k] * b[j];
        }
        b[k] = s / a[k * n + k];
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_system(nd: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ke: Vec<f64> = (0..nd * nd).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ue: Vec<f64> = (0..nd).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (ke, ue)
    }

    #[test]
    fn all_variants_agree() {
        for nd in [1, 3, 4, 8, 20, 24, 27, 60, 81] {
            let (ke, ue) = random_system(nd, nd as u64);
            let mut v_ref = vec![0.0; nd];
            emv_dot_strided(&ke, &ue, &mut v_ref);

            let mut v = vec![0.0; nd];
            emv_portable(&ke, &ue, &mut v);
            for i in 0..nd {
                assert!((v[i] - v_ref[i]).abs() < 1e-12, "portable nd={nd} i={i}");
            }

            let mut v = vec![0.0; nd];
            emv(&ke, &ue, &mut v);
            for i in 0..nd {
                assert!((v[i] - v_ref[i]).abs() < 1e-12, "dispatched nd={nd} i={i}");
            }

            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    let mut v = vec![0.0; nd];
                    emv_avx2(&ke, &ue, &mut v);
                    for i in 0..nd {
                        assert!((v[i] - v_ref[i]).abs() < 1e-12, "avx2 nd={nd} i={i}");
                    }
                }
                if is_x86_feature_detected!("avx512f") {
                    let mut v = vec![0.0; nd];
                    emv_avx512(&ke, &ue, &mut v);
                    for i in 0..nd {
                        assert!((v[i] - v_ref[i]).abs() < 1e-12, "avx512 nd={nd} i={i}");
                    }
                }
            }
        }
    }

    /// Reference for one lane of a batch: per-element EMV on de-interleaved
    /// data.
    fn batch_reference(keb: &[f64], ue: &[f64], nd: usize, bw: usize, b: usize) -> Vec<f64> {
        let ke: Vec<f64> = (0..nd * nd).map(|idx| keb[idx * bw + b]).collect();
        let u: Vec<f64> = (0..nd).map(|j| ue[j * bw + b]).collect();
        let mut v = vec![0.0; nd];
        emv_dot_strided(&ke, &u, &mut v);
        v
    }

    #[test]
    fn batch_variants_agree_with_per_element() {
        let mut rng = StdRng::seed_from_u64(9);
        for nd in [1usize, 3, 4, 8, 20, 24, 27, 60, 81] {
            for bw in [1usize, 2, 3, 4, 5, 8, 16, 32, 64] {
                let keb: Vec<f64> = (0..nd * nd * bw)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let ue: Vec<f64> = (0..nd * bw).map(|_| rng.gen_range(-1.0..1.0)).collect();

                let mut variants: Vec<(&str, EmvBatchKernel)> =
                    vec![("portable", emv_batch_portable as EmvBatchKernel)];
                #[cfg(target_arch = "x86_64")]
                {
                    if bw % 4 == 0
                        && bw <= 32
                        && is_x86_feature_detected!("avx2")
                        && is_x86_feature_detected!("fma")
                    {
                        variants.push(("avx2", emv_batch_avx2));
                    }
                    if bw % 8 == 0 && bw <= 64 && is_x86_feature_detected!("avx512f") {
                        variants.push(("avx512", emv_batch_avx512));
                    }
                }
                if bw == 1 {
                    variants.push(("batch1-portable", emv_batch1_portable as EmvBatchKernel));
                    #[cfg(target_arch = "x86_64")]
                    {
                        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                            variants.push(("batch1-avx2", emv_batch1_avx2));
                        }
                        if is_x86_feature_detected!("avx512f") {
                            variants.push(("batch1-avx512", emv_batch1_avx512));
                        }
                    }
                }
                variants.push(("dispatched", emv_batch as EmvBatchKernel));

                for (name, kern) in variants {
                    let mut ve = vec![9.0; nd * bw]; // must be overwritten
                    kern(&keb, &ue, &mut ve, nd, bw, 1);
                    for b in 0..bw {
                        let v_ref = batch_reference(&keb, &ue, nd, bw, b);
                        for i in 0..nd {
                            assert!(
                                (ve[i * bw + b] - v_ref[i]).abs() < 1e-12,
                                "{name} nd={nd} bw={bw} lane={b} row={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Extract one vector column of a multivector panel into the plain
    /// `nd × bw` panel layout.
    fn mv_column(panel: &[f64], nd: usize, bw: usize, nvec: usize, c: usize) -> Vec<f64> {
        (0..nd * bw).map(|s| panel[s * nvec + c]).collect()
    }

    #[test]
    fn mv_variants_agree_with_per_column_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for nd in [1usize, 3, 8, 20, 60] {
            for bw in [1usize, 3, 5, 8] {
                for nvec in [1usize, 2, 3, 4, 5, 8, 16, 32] {
                    let keb: Vec<f64> = (0..nd * nd * bw)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();
                    let ue: Vec<f64> = (0..nd * bw * nvec)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();

                    let mut variants: Vec<(&str, EmvBatchKernel)> = vec![
                        ("mv-portable", emv_batch_mv_portable as EmvBatchKernel),
                        ("dispatched", emv_batch as EmvBatchKernel),
                    ];
                    #[cfg(target_arch = "x86_64")]
                    {
                        if nvec % 4 == 0
                            && is_x86_feature_detected!("avx2")
                            && is_x86_feature_detected!("fma")
                        {
                            variants.push(("mv-avx2", emv_batch_mv_avx2));
                        }
                        if nvec % 8 == 0 && is_x86_feature_detected!("avx512f") {
                            variants.push(("mv-avx512", emv_batch_mv_avx512));
                        }
                    }

                    for (name, kern) in variants {
                        let mut ve = vec![9.0; nd * bw * nvec]; // must be overwritten
                        kern(&keb, &ue, &mut ve, nd, bw, nvec);
                        for c in 0..nvec {
                            let uc = mv_column(&ue, nd, bw, nvec, c);
                            for b in 0..bw {
                                let v_ref = batch_reference(&keb, &uc, nd, bw, b);
                                for i in 0..nd {
                                    let got = ve[(i * bw + b) * nvec + c];
                                    assert!(
                                        (got - v_ref[i]).abs() < 1e-12,
                                        "{name} nd={nd} bw={bw} nvec={nvec} col={c} lane={b} row={i}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Per vector column, the multivector kernels run the exact reduction
    /// order of the corresponding single-vector batch kernel (fmadd chain
    /// over j for the SIMD variants, mul+add chain for the portables), so
    /// an SpMM must reproduce `nvec` sequential batched EMVs **bitwise**
    /// when both sides dispatch to the same arithmetic class.
    #[test]
    fn mv_bitwise_matches_sequential_columns() {
        let mut rng = StdRng::seed_from_u64(33);
        for (nd, bw, nvec) in [(3usize, 3usize, 3usize), (8, 8, 5), (20, 5, 7), (60, 3, 2)] {
            let keb: Vec<f64> = (0..nd * nd * bw)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let ue: Vec<f64> = (0..nd * bw * nvec)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let mut ve = vec![0.0; nd * bw * nvec];
            emv_batch_mv_portable(&keb, &ue, &mut ve, nd, bw, nvec);
            for c in 0..nvec {
                let uc = mv_column(&ue, nd, bw, nvec, c);
                let mut vc = vec![0.0; nd * bw];
                emv_batch_portable(&keb, &uc, &mut vc, nd, bw, 1);
                for s in 0..nd * bw {
                    assert_eq!(
                        ve[s * nvec + c].to_bits(),
                        vc[s].to_bits(),
                        "portable nd={nd} bw={bw} nvec={nvec} col={c} slot={s}"
                    );
                }
            }
        }

        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            for (nd, bw, nvec) in [(8usize, 4usize, 4usize), (20, 8, 8), (60, 4, 16)] {
                let keb: Vec<f64> = (0..nd * nd * bw)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let ue: Vec<f64> = (0..nd * bw * nvec)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let mut ve = vec![0.0; nd * bw * nvec];
                emv_batch_mv_avx2(&keb, &ue, &mut ve, nd, bw, nvec);
                for c in 0..nvec {
                    let uc = mv_column(&ue, nd, bw, nvec, c);
                    let mut vc = vec![0.0; nd * bw];
                    emv_batch_avx2(&keb, &uc, &mut vc, nd, bw, 1);
                    for s in 0..nd * bw {
                        assert_eq!(
                            ve[s * nvec + c].to_bits(),
                            vc[s].to_bits(),
                            "avx2 nd={nd} bw={bw} nvec={nvec} col={c} slot={s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mv_flops_formula() {
        assert_eq!(emv_batch_mv_flops(10, 8, 4), 6400);
        assert_eq!(emv_batch_mv_flops(10, 8, 1), emv_batch_flops(10, 8));
    }

    #[test]
    fn mv_kernel_name_reports_something() {
        for nvec in [4usize, 8, 17] {
            let name = emv_batch_kernel_name(8, nvec);
            assert!(["mv-avx512f", "mv-avx2+fma", "mv-portable"].contains(&name));
        }
    }

    #[test]
    #[should_panic(expected = "multivector width")]
    fn mv_width_bounds_checked() {
        select_batch_kernel(8, MAX_NVEC_WIDTH + 1);
    }

    #[test]
    fn interleave_round_trips() {
        let nd = 4;
        let bw = 3;
        let mut rng = StdRng::seed_from_u64(11);
        let kes: Vec<Vec<f64>> = (0..bw)
            .map(|_| (0..nd * nd).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut keb = vec![0.0; nd * nd * bw];
        for (b, ke) in kes.iter().enumerate() {
            interleave_ke(ke, &mut keb, nd, bw, b);
        }
        for (b, ke) in kes.iter().enumerate() {
            for (idx, &v) in ke.iter().enumerate() {
                assert_eq!(keb[idx * bw + b], v);
            }
        }
    }

    #[test]
    fn batch_flops_formula() {
        assert_eq!(emv_batch_flops(10, 8), 1600);
        assert_eq!(emv_batch_flops(10, 1), emv_flops(10));
    }

    #[test]
    fn batch_kernel_name_reports_something() {
        for bw in [4usize, 8, 17] {
            let name = emv_batch_kernel_name(bw, 1);
            assert!(["batch-avx512f", "batch-avx2+fma", "batch-portable"].contains(&name));
        }
        // B=1 names the width-1 adapter onto the per-element kernel.
        let name = emv_batch_kernel_name(1, 1);
        assert!(["batch1-avx512f", "batch1-avx2+fma", "batch1-portable"].contains(&name));
        assert_eq!(name.strip_prefix("batch1-"), Some(emv_kernel_name()));
        // At nvec = 1 the one (bw, nvec) table keeps the single-vector
        // choice for bw = 8 on this host.
        let mut want8 = "batch-portable";
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                want8 = "batch-avx512f";
            } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                want8 = "batch-avx2+fma";
            }
        }
        assert_eq!(emv_batch_kernel_name(8, 1), want8);
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn batch_width_bounds_checked() {
        select_batch_kernel(MAX_BATCH_WIDTH + 1, 1);
    }

    #[test]
    fn identity_matrix() {
        let nd = 5;
        let mut ke = vec![0.0; nd * nd];
        for i in 0..nd {
            ke[i * nd + i] = 1.0;
        }
        let ue = vec![1.0, -2.0, 3.0, -4.0, 5.0];
        let mut ve = vec![9.0; nd]; // must be overwritten
        emv(&ke, &ue, &mut ve);
        assert_eq!(ve, ue);
    }

    #[test]
    fn store_layout_and_update() {
        let mut store = ElementMatrixStore::new(3, 4);
        assert_eq!(store.bytes(), 4 * 9 * 8);
        store.ke_mut(2)[4] = 7.0; // column 1, row 1 of element 2
        assert_eq!(store.ke(2)[4], 7.0);
        assert_eq!(store.ke(1)[4], 0.0);
        assert_eq!(store.as_slice()[2 * 9 + 4], 7.0);
        assert_eq!(store.nd(), 3);
        assert_eq!(store.n_elems(), 4);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(emv_flops(10), 200);
    }

    #[test]
    fn kernel_name_reports_something() {
        let name = emv_kernel_name();
        assert!(["avx512f", "avx2+fma", "portable"].contains(&name));
    }

    #[test]
    fn dense_solver_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 12;
        // SPD-ish: A = M + n·I keeps it well-conditioned.
        let mut a = vec![0.0; n * n];
        for v in a.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        for i in 0..n {
            a[i * n + i] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let mut b = vec![0.0; n];
        for j in 0..n {
            for i in 0..n {
                b[i] += a[j * n + i] * x_true[j];
            }
        }
        let x = solve_dense(a, b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_matrix_detected() {
        let _ = solve_dense(vec![0.0; 4], vec![1.0, 1.0]);
    }
}
