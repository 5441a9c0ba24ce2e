//! From-scratch Reed–Solomon erasure coding over GF(2^8).
//!
//! The CAS protocol stores, at each of `n` data centers, one *codeword symbol* of size
//! `ceil(|value| / k)` such that the original value can be reconstructed from any `k`
//! symbols. This is exactly an `(n, k)` maximum-distance-separable (MDS) code; the paper's
//! prototype uses liberasurecode's Reed–Solomon backend, which we re-implement here so that
//! the repository has no native or external coding dependency.
//!
//! Layout of the crate:
//!
//! * [`gf256`] — arithmetic in the finite field GF(2^8) with the polynomial `0x11D`
//!   (the field used by most storage RS implementations). Bulk multiply-accumulate runs
//!   through tiered kernels — scalar log/exp oracle, portable split-table, and
//!   runtime-detected SSSE3/AVX2 `pshufb`.
//! * [`matrix`] — small dense matrices over GF(2^8) with Gauss–Jordan inversion.
//! * [`codec`] — the systematic Reed–Solomon encoder/decoder ([`ReedSolomon`]), with a
//!   process-wide `(n, k)` codec cache ([`ReedSolomon::cached`]) and per-codec memoized
//!   decode sub-matrix inverses.
//! * [`shares`] — conversion between application values and fixed-size shards, including
//!   the length header and padding handling ([`encode_value`], [`decode_value`]). Encoding
//!   produces all `n` symbols as zero-copy windows into one shared buffer.

pub mod codec;
pub mod gf256;
pub mod matrix;
pub mod shares;

pub use codec::{CodecError, ReedSolomon};
pub use shares::{decode_value, encode_value, shard_len, Shard};
