//! The evaluator of builds whose target has AVX-512F: one sub-group of
//! eight members per `zmm`, written with `core::arch` intrinsics, and the
//! list of partial entries each sub-group visits, eight masks per pass.
//!
//! LLVM's tuning for AVX-512 server cores prefers 256-bit vectors, so the
//! portable lane loop at eight lanes compiles to pairs of `ymm` and issues
//! the same work per lane as at four. Here the members' offsets, `r²`,
//! weights and sums are `f64` in `zmm`, and their eight `f32` `1/r³` share
//! one `ymm` sqrt and one divide. Per lane, the operations and their order
//! are exactly the portable `Lanes::apply`'s — `d = src − p`,
//! `fma(dz, dz, fma(dy, dy, fma(dx, dx, ε²)))`, one rounding to `f32`, the
//! floor, `1/(r²·√r²)`, `w·inv`, `acc = fma(d, s, acc)` — so every bit
//! equals the portable evaluator's, which the tests in `force.rs` check.

use std::arch::x86_64::*;

use super::{SubgroupSums, EVAL_LANES, R2_FLOOR, SUBGROUP_BITS};

/// The kernel's sub-group list builder on this build; the contract is the
/// portable `subgroup_entries`'s.
#[inline]
pub(super) fn subgroup_entries(masks: &[u64], shift: u32, out: &mut Vec<u32>) -> usize {
    if out.len() < masks.len() {
        out.resize(masks.len(), 0);
    }
    // SAFETY: `compress_entries` needs AVX-512F, and this module is
    // compiled only when the crate is built for AVX-512F.
    unsafe { compress_entries(masks, shift, &mut out[..masks.len()]) }
}

/// The portable `subgroup_entries`, eight masks per pass: one
/// `vptestmq` of eight masks against the sub-group's bits gives the
/// visited ranks as a mask byte, `vpcompressd` packs those ranks to the
/// bottom of a register, and all eight lanes are stored at `out[len..]`
/// while `len` advances by the byte's popcount — the scalar loop's
/// store-always, advance-if-set, eight entries at a time. The last
/// `masks.len() % 8` masks take the scalar loop. `out.len()` must equal
/// `masks.len()`.
///
/// `inline(never)` keeps it one symbol, which `check.sh` disassembles.
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn compress_entries(masks: &[u64], shift: u32, out: &mut [u32]) -> usize {
    assert_eq!(out.len(), masks.len());
    let bits = _mm512_set1_epi64((SUBGROUP_BITS << shift) as i64);
    let step = _mm512_set1_epi32(8);
    let mut ranks = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0);
    let mut len = 0;
    let body = masks.chunks_exact(8);
    let tail = body.remainder();
    for chunk in body {
        let m = |l: usize| chunk[l] as i64;
        let v = _mm512_set_epi64(m(7), m(6), m(5), m(4), m(3), m(2), m(1), m(0));
        let visited = _mm512_test_epi64_mask(v, bits);
        let packed = _mm512_maskz_compress_epi32(__mmask16::from(visited), ranks);
        // SAFETY: after `c` whole chunks at most `8c` ranks were kept, so
        // `len ≤ 8c`; this chunk is whole too, so `8c + 8 ≤ masks.len()`,
        // which the assert above makes `out.len()`: the eight `u32` at
        // `out[len..len + 8]` are in bounds. `storeu` needs no alignment.
        unsafe {
            _mm256_storeu_si256(
                out.as_mut_ptr().add(len).cast(),
                _mm512_castsi512_si256(packed),
            );
        }
        len += visited.count_ones() as usize;
        ranks = _mm512_add_epi32(ranks, step);
    }
    let first = masks.len() - tail.len();
    for (j, &mask) in (first..).zip(tail) {
        out[len] = j as u32;
        len += usize::from((mask >> shift) & SUBGROUP_BITS != 0);
    }
    len
}

/// The kernel's sub-group evaluator on this build; the contract is the
/// portable `eval_subgroup`'s.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(super) fn evaluate(
    dense: [&[f64]; 4],
    partial: [&[f64]; 4],
    masks: &[u64],
    idx: &[u32],
    shift: u32,
    pos: [[f64; EVAL_LANES]; 3],
    gravity: f64,
    eps2: f64,
) -> SubgroupSums {
    // SAFETY: `eval_subgroup` needs AVX-512F, and this module is compiled
    // only when `cfg(target_feature = "avx512f")` holds, which is when the
    // whole crate is built for AVX-512F: no CPU without it can run this call.
    unsafe { eval_subgroup(dense, partial, masks, idx, shift, pos, gravity, eps2) }
}

/// The portable `eval_subgroup`, eight lanes to a `zmm`. The dense half
/// takes the broadcast weight `G·m`; a partial entry takes it where the
/// sub-group's mask byte has a bit (`maskz_mov`, `+0.0` elsewhere, which
/// adds nothing) and counts one there (`mask_add`).
///
/// `inline(never)` keeps it one symbol, which `check.sh` disassembles.
#[target_feature(enable = "avx512f")]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn eval_subgroup(
    dense: [&[f64]; 4],
    partial: [&[f64]; 4],
    masks: &[u64],
    idx: &[u32],
    shift: u32,
    pos: [[f64; EVAL_LANES]; 3],
    gravity: f64,
    eps2: f64,
) -> SubgroupSums {
    let [px, py, pz] = pos.map(|p| _mm512_set_pd(p[7], p[6], p[5], p[4], p[3], p[2], p[1], p[0]));
    let eps2 = _mm512_set1_pd(eps2);
    let floor = _mm256_set1_ps(R2_FLOOR);
    let one = _mm256_set1_ps(1.0);
    let mut acc = [_mm512_setzero_pd(); 3];
    // One entry at `(x, y, z)` with per-lane weights `w`, in every lane.
    let mut apply = |x: f64, y: f64, z: f64, w: __m512d| {
        let d = [
            _mm512_sub_pd(_mm512_set1_pd(x), px),
            _mm512_sub_pd(_mm512_set1_pd(y), py),
            _mm512_sub_pd(_mm512_set1_pd(z), pz),
        ];
        let [dx, dy, dz] = d;
        let r2 = _mm512_fmadd_pd(dx, dx, eps2);
        let r2 = _mm512_fmadd_pd(dy, dy, r2);
        let r2 = _mm512_fmadd_pd(dz, dz, r2);
        let r2 = _mm256_max_ps(_mm512_cvtpd_ps(r2), floor);
        let inv = _mm256_div_ps(one, _mm256_mul_ps(r2, _mm256_sqrt_ps(r2)));
        let scale = _mm512_mul_pd(w, _mm512_cvtps_pd(inv));
        for (a, c) in acc.iter_mut().zip(d) {
            *a = _mm512_fmadd_pd(c, scale, *a);
        }
    };

    // One length per half: an index below it reads each of its columns.
    let n = dense[0].len();
    let [xs, ys, zs, ms] = dense.map(|c| &c[..n]);
    for k in 0..n {
        apply(xs[k], ys[k], zs[k], _mm512_set1_pd(gravity * ms[k]));
    }

    let n = masks.len();
    let [xs, ys, zs, ms] = partial.map(|c| &c[..n]);
    let mut count = _mm512_setzero_pd();
    let unit = _mm512_set1_pd(1.0);
    for &j in idx {
        let bits = ((masks[j as usize] >> shift) & SUBGROUP_BITS) as __mmask8;
        let k = n - 1 - j as usize;
        count = _mm512_mask_add_pd(count, bits, count, unit);
        let w = _mm512_maskz_mov_pd(bits, _mm512_set1_pd(gravity * ms[k]));
        apply(xs[k], ys[k], zs[k], w);
    }

    // Lane `l` of `v`, moved to lane 0 and read as a scalar.
    let lanes = |v: __m512d| -> [f64; EVAL_LANES] {
        std::array::from_fn(|l| {
            _mm512_cvtsd_f64(_mm512_permutexvar_pd(_mm512_set1_epi64(l as i64), v))
        })
    };
    let [ax, ay, az] = acc.map(lanes);
    (ax, ay, az, lanes(count).map(|c| c as u32))
}
