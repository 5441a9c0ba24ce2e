//! Arithmetic in GF(2^8).
//!
//! Elements are bytes; addition is XOR; multiplication is polynomial multiplication modulo
//! the primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`). Scalar multiplication and
//! division go through log/antilog tables built once at start-up, which is the standard
//! technique in storage erasure coders.
//!
//! # Slice kernels
//!
//! The encode/decode hot path is [`mul_acc_slice`] / [`mul_slice`]: multiply every byte of a
//! whole shard by one coefficient `c`. Three kernel tiers implement it:
//!
//! * **scalar** — the original byte-at-a-time log/exp loop, kept as the reference oracle
//!   in this module's tests; every other kernel is proptested to be byte-identical to it.
//! * **split** — the portable split-table kernel: two 16-entry tables per coefficient
//!   (`lo[x] = c·x` for the low nibble, `hi[x] = c·(x«4)` for the high nibble, so
//!   `c·s = lo[s & 0xF] ⊕ hi[s » 4]`), applied over 8-byte unrolled chunks. All 256
//!   coefficient table pairs are precomputed once into an 8 KiB static.
//! * **simd** — the same split-table algorithm vectorized with `pshufb` 16-lane table
//!   lookups (SSSE3: 16 B/iteration, AVX2: 32 B/iteration), detected at runtime on
//!   x86_64. This is the kernel that makes coding memory-bound rather than compute-bound
//!   (~20x the scalar loop on AVX2 hardware).

/// The primitive polynomial used to construct the field (without the leading x^8 term the
/// low byte is 0x1D).
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// Generator element whose powers enumerate all non-zero field elements.
pub const GENERATOR: u8 = 0x02;

/// Precomputed exp/log tables.
struct Tables {
    /// `exp[i] = GENERATOR^i` for `i in 0..510` (doubled to avoid a modulo in `mul`).
    exp: [u8; 512],
    /// `log[x]` = discrete log of `x` base GENERATOR; `log[0]` is unused.
    log: [u16; 256],
}

static TABLES: std::sync::OnceLock<Tables> = std::sync::OnceLock::new();

fn tables() -> &'static Tables {
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        for i in 255..512usize {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Per-coefficient split tables: `SPLIT[c][x] = c·x` for `x in 0..16` and
/// `SPLIT[c][16 + x] = c·(x << 4)`, so `c·s = SPLIT[c][s & 0xF] ⊕ SPLIT[c][16 + (s >> 4)]`.
/// 256 coefficients × 32 bytes = 8 KiB, built once.
static SPLIT: std::sync::OnceLock<Box<[[u8; 32]; 256]>> = std::sync::OnceLock::new();

fn split_tables() -> &'static [[u8; 32]; 256] {
    SPLIT.get_or_init(|| {
        let mut t = Box::new([[0u8; 32]; 256]);
        for (c, row) in t.iter_mut().enumerate() {
            for x in 0..16u8 {
                row[x as usize] = mul(c as u8, x);
                row[16 + x as usize] = mul(c as u8, x << 4);
            }
        }
        t
    })
}

/// Field addition (XOR). Subtraction is identical.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    let la = t.log[a as usize] as usize;
    let lb = t.log[b as usize] as usize;
    t.exp[la + lb]
}

/// Field division; panics on division by zero.
#[inline]
fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let la = t.log[a as usize] as usize;
    let lb = t.log[b as usize] as usize;
    t.exp[la + 255 - lb]
}

/// Multiplicative inverse; panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    div(1, a)
}

/// Exponentiation `a^p` in the field.
pub fn pow(a: u8, mut p: u32) -> u8 {
    if a == 0 {
        return if p == 0 { 1 } else { 0 };
    }
    let t = tables();
    let la = t.log[a as usize] as u64;
    p %= 255;
    let idx = (la * p as u64) % 255;
    t.exp[idx as usize]
}

// ---------------------------------------------------------------------------
// Portable split-table kernels
// ---------------------------------------------------------------------------

/// XOR `src` into `dst` over 8-byte unrolled chunks (the `c == 1` fast path; the unroll
/// lets LLVM lift it to full-width vector XORs).
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    let mut dc = dst.chunks_exact_mut(8);
    let mut sc = src.chunks_exact(8);
    for (d, s) in (&mut dc).zip(&mut sc) {
        for i in 0..8 {
            d[i] ^= s[i];
        }
    }
    for (d, s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *d ^= *s;
    }
}

fn mul_acc_slice_split(dst: &mut [u8], src: &[u8], c: u8) {
    let tbl = &split_tables()[c as usize];
    let mut dc = dst.chunks_exact_mut(8);
    let mut sc = src.chunks_exact(8);
    for (d, s) in (&mut dc).zip(&mut sc) {
        for i in 0..8 {
            d[i] ^= tbl[(s[i] & 0x0F) as usize] ^ tbl[16 + (s[i] >> 4) as usize];
        }
    }
    for (d, s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *d ^= tbl[(*s & 0x0F) as usize] ^ tbl[16 + (*s >> 4) as usize];
    }
}

fn mul_slice_split(dst: &mut [u8], c: u8) {
    let tbl = &split_tables()[c as usize];
    let mut dc = dst.chunks_exact_mut(8);
    for d in &mut dc {
        for i in 0..8 {
            d[i] = tbl[(d[i] & 0x0F) as usize] ^ tbl[16 + (d[i] >> 4) as usize];
        }
    }
    for d in dc.into_remainder().iter_mut() {
        *d = tbl[(*d & 0x0F) as usize] ^ tbl[16 + (*d >> 4) as usize];
    }
}

// ---------------------------------------------------------------------------
// SIMD split-table kernels (x86_64 pshufb; runtime-detected)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod simd {
    //! `pshufb`-based split-table kernels. `_mm_shuffle_epi8` performs sixteen (AVX2:
    //! 2×16) parallel lookups into a 16-entry byte table per instruction — exactly the
    //! low/high-nibble split-table algorithm of the portable kernel, 16/32 bytes at a
    //! time. Safety: the caller of each `unsafe fn` kernel must first have detected its
    //! CPUID feature with `is_x86_feature_detected!`; all memory access goes through unaligned
    //! load/store intrinsics on in-bounds offsets (`n` is rounded down to the vector
    //! width; the tail is handled by the caller's portable path).

    use std::arch::x86_64::*;

    /// `dst[i] ^= c·src[i]` for the longest prefix divisible by the vector width;
    /// returns the number of bytes processed.
    pub(super) fn mul_acc_prefix(dst: &mut [u8], src: &[u8], tbl: &[u8; 32]) -> usize {
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            unsafe { mul_acc_avx2(dst, src, tbl) }
        } else if is_x86_feature_detected!("ssse3") {
            // SAFETY: SSSE3 was just detected.
            unsafe { mul_acc_ssse3(dst, src, tbl) }
        } else {
            0
        }
    }

    /// `dst[i] = c·dst[i]` for the longest prefix divisible by the vector width;
    /// returns the number of bytes processed.
    pub(super) fn mul_prefix(dst: &mut [u8], tbl: &[u8; 32]) -> usize {
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            unsafe { mul_avx2(dst, tbl) }
        } else if is_x86_feature_detected!("ssse3") {
            // SAFETY: SSSE3 was just detected.
            unsafe { mul_ssse3(dst, tbl) }
        } else {
            0
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], tbl: &[u8; 32]) -> usize {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr() as *const __m128i));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i));
        let mask = _mm256_set1_epi8(0x0F);
        let n = dst.len().min(src.len()) / 32 * 32;
        let mut i = 0;
        while i < n {
            let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
            let r = _mm256_xor_si256(d, _mm256_xor_si256(l, h));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, r);
            i += 32;
        }
        n
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(dst: &mut [u8], src: &[u8], tbl: &[u8; 32]) -> usize {
        let lo = _mm_loadu_si128(tbl.as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let n = dst.len().min(src.len()) / 16 * 16;
        let mut i = 0;
        while i < n {
            let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            let l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
            let r = _mm_xor_si128(d, _mm_xor_si128(l, h));
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, r);
            i += 16;
        }
        n
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2(dst: &mut [u8], tbl: &[u8; 32]) -> usize {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr() as *const __m128i));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i));
        let mask = _mm256_set1_epi8(0x0F);
        let n = dst.len() / 32 * 32;
        let mut i = 0;
        while i < n {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(d, mask));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(d, 4), mask));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, _mm256_xor_si256(l, h));
            i += 32;
        }
        n
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3(dst: &mut [u8], tbl: &[u8; 32]) -> usize {
        let lo = _mm_loadu_si128(tbl.as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let n = dst.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            let l = _mm_shuffle_epi8(lo, _mm_and_si128(d, mask));
            let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(d, 4), mask));
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, _mm_xor_si128(l, h));
            i += 16;
        }
        n
    }
}

// ---------------------------------------------------------------------------
// Public dispatching kernels
// ---------------------------------------------------------------------------

/// Multiply-accumulate over byte slices: `dst[i] ^= c * src[i]`.
///
/// This is the inner loop of encoding and decoding. Dispatches to the fastest available
/// kernel tier (see the module docs); byte-identical to the scalar reference.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: u8) {
    debug_assert_eq!(dst.len(), src.len());
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(dst, src);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let (dst, src) = {
        let done = simd::mul_acc_prefix(dst, src, &split_tables()[c as usize]);
        (&mut dst[done..], &src[done..])
    };
    mul_acc_slice_split(dst, src, c);
}

/// Multiply a slice in place by a constant: `dst[i] = c * dst[i]`.
///
/// Dispatches like [`mul_acc_slice`]; byte-identical to the scalar reference.
pub fn mul_slice(dst: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let dst = {
        let done = simd::mul_prefix(dst, &split_tables()[c as usize]);
        &mut dst[done..]
    };
    mul_slice_split(dst, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference `dst[i] ^= c * src[i]`, byte-at-a-time through the log/exp tables.
    ///
    /// This is the original implementation, kept as the behavioral oracle for the fast
    /// kernels (see the proptests in this module).
    fn mul_acc_slice_scalar(dst: &mut [u8], src: &[u8], c: u8) {
        debug_assert_eq!(dst.len(), src.len());
        if c == 0 {
            return;
        }
        if c == 1 {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d ^= *s;
            }
            return;
        }
        let t = tables();
        let lc = t.log[c as usize] as usize;
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            if *s != 0 {
                *d ^= t.exp[lc + t.log[*s as usize] as usize];
            }
        }
    }

    /// Reference `dst[i] = c * dst[i]`, byte-at-a-time through the log/exp tables.
    fn mul_slice_scalar(dst: &mut [u8], c: u8) {
        if c == 1 {
            return;
        }
        if c == 0 {
            dst.fill(0);
            return;
        }
        let t = tables();
        let lc = t.log[c as usize] as usize;
        for d in dst.iter_mut() {
            if *d != 0 {
                *d = t.exp[lc + t.log[*d as usize] as usize];
            }
        }
    }

    #[test]
    fn small_multiplication_table_spot_checks() {
        assert_eq!(mul(0, 17), 0);
        assert_eq!(mul(1, 17), 17);
        assert_eq!(mul(2, 2), 4);
        // 0x80 * 2 wraps through the primitive polynomial: 0x100 ^ 0x11D = 0x1D.
        assert_eq!(mul(0x80, 2), 0x1D);
    }

    #[test]
    fn inverse_and_division() {
        for a in 1..=255u8 {
            let ia = inv(a);
            assert_eq!(mul(a, ia), 1, "a={a}");
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = div(3, 0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 7, 0x53, 0xFF] {
            let mut acc = 1u8;
            for p in 0..20u32 {
                assert_eq!(pow(a, p), acc, "a={a} p={p}");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // GENERATOR^i must enumerate all 255 non-zero elements before repeating.
        let mut seen = std::collections::HashSet::new();
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(seen.insert(x));
            x = mul(x, GENERATOR);
        }
        assert_eq!(x, 1);
        assert_eq!(seen.len(), 255);
    }

    #[test]
    fn mul_acc_slice_matches_scalar() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x1D, 0xFF] {
            let mut dst = vec![0xAAu8; 256];
            let mut expect = dst.clone();
            mul_acc_slice(&mut dst, &src, c);
            for (e, s) in expect.iter_mut().zip(src.iter()) {
                *e = add(*e, mul(c, *s));
            }
            assert_eq!(dst, expect, "c={c}");
        }
    }

    #[test]
    fn mul_slice_matches_scalar() {
        let mut v: Vec<u8> = (0..=255u8).collect();
        let orig = v.clone();
        mul_slice(&mut v, 0x37);
        for (o, n) in orig.iter().zip(v.iter()) {
            assert_eq!(*n, mul(*o, 0x37));
        }
        let mut z = orig.clone();
        mul_slice(&mut z, 0);
        assert!(z.iter().all(|b| *b == 0));
    }

    /// Every coefficient, on a buffer long enough to exercise the vector body and the
    /// scalar tail of every kernel tier.
    #[test]
    fn all_coefficients_all_tiers_match_the_oracle() {
        let src: Vec<u8> = (0..997).map(|i| (i * 131 + 17) as u8).collect();
        let base: Vec<u8> = (0..997).map(|i| (i * 37 + 5) as u8).collect();
        for c in 0..=255u8 {
            let mut expect = base.clone();
            mul_acc_slice_scalar(&mut expect, &src, c);
            let mut split = base.clone();
            mul_acc_slice_split(&mut split, &src, c);
            assert_eq!(split, expect, "split mul_acc c={c}");
            let mut dispatched = base.clone();
            mul_acc_slice(&mut dispatched, &src, c);
            assert_eq!(dispatched, expect, "dispatched mul_acc c={c}");

            let mut expect_m = base.clone();
            mul_slice_scalar(&mut expect_m, c);
            let mut split_m = base.clone();
            mul_slice_split(&mut split_m, c);
            assert_eq!(split_m, expect_m, "split mul c={c}");
            let mut dispatched_m = base.clone();
            mul_slice(&mut dispatched_m, c);
            assert_eq!(dispatched_m, expect_m, "dispatched mul c={c}");
        }
    }

    /// The dispatcher always prefers AVX2, so on an AVX2 host nothing else reaches the
    /// SSSE3 kernels: call every kernel the CPU supports directly, finish with the
    /// split-table tail as the dispatcher does, and compare with the scalar oracle.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_supported_kernel_matches_the_oracle() {
        type MulAcc = unsafe fn(&mut [u8], &[u8], &[u8; 32]) -> usize;
        type Mul = unsafe fn(&mut [u8], &[u8; 32]) -> usize;
        let mut kernels: Vec<(&str, MulAcc, Mul)> = Vec::new();
        if is_x86_feature_detected!("ssse3") {
            kernels.push(("ssse3", simd::mul_acc_ssse3, simd::mul_ssse3));
        }
        if is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", simd::mul_acc_avx2, simd::mul_avx2));
        }
        let src: Vec<u8> = (0..997).map(|i| (i * 131 + 17) as u8).collect();
        let base: Vec<u8> = (0..997).map(|i| (i * 37 + 5) as u8).collect();
        for (name, mul_acc, mul) in kernels {
            for c in 0..=255u8 {
                let tbl = &split_tables()[c as usize];
                for offset in 0..17 {
                    let (src, base) = (&src[offset..], &base[offset..]);
                    let mut expect = base.to_vec();
                    mul_acc_slice_scalar(&mut expect, src, c);
                    let mut got = base.to_vec();
                    // SAFETY: the kernel's CPU feature was detected above.
                    let done = unsafe { mul_acc(&mut got, src, tbl) };
                    mul_acc_slice_split(&mut got[done..], &src[done..], c);
                    assert_eq!(got, expect, "{name} mul_acc c={c} offset={offset}");

                    let mut expect_m = base.to_vec();
                    mul_slice_scalar(&mut expect_m, c);
                    let mut got_m = base.to_vec();
                    // SAFETY: the kernel's CPU feature was detected above.
                    let done = unsafe { mul(&mut got_m, tbl) };
                    mul_slice_split(&mut got_m[done..], c);
                    assert_eq!(got_m, expect_m, "{name} mul c={c} offset={offset}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn field_axioms(a: u8, b: u8, c: u8) {
            // Commutativity.
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(add(a, b), add(b, a));
            // Associativity.
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            prop_assert_eq!(add(add(a, b), c), add(a, add(b, c)));
            // Distributivity.
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
            // Identities.
            prop_assert_eq!(mul(a, 1), a);
            prop_assert_eq!(add(a, 0), a);
            // Additive inverse (characteristic 2).
            prop_assert_eq!(add(a, a), 0);
        }

        #[test]
        fn division_is_inverse_of_multiplication(a: u8, b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
        }

        /// The fast kernels are byte-identical to the scalar oracle for arbitrary
        /// coefficients, odd lengths, and unaligned slices (the `offset` strips a prefix
        /// so the kernel sees a pointer off any natural alignment).
        #[test]
        fn kernels_match_oracle_on_arbitrary_slices(
            c: u8,
            offset in 0usize..17,
            src in proptest::collection::vec(any::<u8>(), 0..300),
            seed: u64,
        ) {
            let offset = offset.min(src.len());
            let src = &src[offset..];
            // Deterministic but arbitrary dst contents.
            let mut s = seed;
            let base: Vec<u8> = (0..src.len())
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (s >> 33) as u8
                })
                .collect();

            let mut expect = base.clone();
            mul_acc_slice_scalar(&mut expect, src, c);
            let mut split = base.clone();
            mul_acc_slice_split(&mut split, src, c);
            prop_assert_eq!(&split, &expect);
            let mut dispatched = base.clone();
            mul_acc_slice(&mut dispatched, src, c);
            prop_assert_eq!(&dispatched, &expect);

            let mut expect_m = base.clone();
            mul_slice_scalar(&mut expect_m, c);
            let mut split_m = base.clone();
            mul_slice_split(&mut split_m, c);
            prop_assert_eq!(&split_m, &expect_m);
            let mut dispatched_m = base;
            mul_slice(&mut dispatched_m, c);
            prop_assert_eq!(&dispatched_m, &expect_m);
        }
    }
}
