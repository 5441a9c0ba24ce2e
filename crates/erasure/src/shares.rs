//! Conversion between application values and CAS codeword symbols.
//!
//! A value of `L` bytes is split into `k` data shards of `ceil((L + 8) / k)` bytes (an
//! 8-byte little-endian length header is prepended so decoding can strip the padding), then
//! encoded into `n` codeword symbols with [`ReedSolomon`]. Each symbol is tagged with its
//! index so that the decoder can invert the right rows of the generator matrix regardless of
//! which `k` data centers respond.
//!
//! # Hot-path layout
//!
//! [`encode_value`] lays the whole codeword out in **one** contiguous allocation: header,
//! value, and padding fill the first `k·slen` bytes, parity is computed in place into the
//! remaining `(n-k)·slen`, and the buffer is converted to [`Bytes`] exactly once. Each
//! [`Shard`] is then a zero-copy [`Bytes::slice`] window into that buffer, so fanning the
//! `n` symbols out to `n` data centers clones refcounts, never bytes. [`decode_value`]
//! borrows shard bytes in place, reassembles into a pooled per-thread scratch buffer, and
//! performs a single exact-size copy out.

use crate::codec::{CodecError, ReedSolomon};
use bytes::Bytes;
use std::cell::RefCell;

/// One codeword symbol together with its index in the codeword.
///
/// The symbol bytes are a [`Bytes`] handle: cloning a shard (e.g. once per destination DC
/// in the quorum fan-out) bumps a refcount instead of copying the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Index of this symbol (0-based; equals the position of the hosting DC in the
    /// configuration's placement list).
    pub index: usize,
    /// Symbol bytes (shared, immutable).
    pub data: Bytes,
}

impl Shard {
    /// Creates a shard. Accepts anything convertible to [`Bytes`] (`Vec<u8>`, `Bytes`, …).
    pub fn new(index: usize, data: impl Into<Bytes>) -> Self {
        Shard {
            index,
            data: data.into(),
        }
    }

    /// Size of the symbol in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the symbol carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

const LEN_HEADER: usize = 8;

/// Pooled decode scratch buffers above this capacity are dropped instead of retained.
const MAX_POOLED_SCRATCH: usize = 1 << 22; // 4 MiB

thread_local! {
    /// Per-thread reassembly buffer reused across [`decode_value`] calls so steady-state
    /// decoding allocates only the returned value.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Size in bytes of each codeword symbol for a value of `value_len` bytes under an
/// `(_, k)` code. This is what the cost model charges per symbol transfer (`o/k` in the
/// paper, plus the negligible 8-byte header).
pub fn shard_len(value_len: usize, k: usize) -> usize {
    assert!(k > 0, "k must be positive");
    (value_len + LEN_HEADER).div_ceil(k)
}

/// Encodes `value` into `n` codeword symbols from which any `k` reconstruct the value.
///
/// All `n` symbols are views into one shared allocation (see the module docs); downstream
/// clones of the returned shards are refcount bumps.
pub fn encode_value(value: &[u8], n: usize, k: usize) -> Result<Vec<Shard>, CodecError> {
    let rs = ReedSolomon::cached(n, k)?;
    let slen = shard_len(value.len(), k);
    // One allocation for the whole codeword: [header | value | zero padding | parity].
    let mut buf = vec![0u8; n * slen];
    buf[..LEN_HEADER].copy_from_slice(&(value.len() as u64).to_le_bytes());
    buf[LEN_HEADER..LEN_HEADER + value.len()].copy_from_slice(value);
    let (data_part, parity_part) = buf.split_at_mut(k * slen);
    let data_refs: Vec<&[u8]> = data_part.chunks_exact(slen).collect();
    let mut parity_refs: Vec<&mut [u8]> = parity_part.chunks_exact_mut(slen).collect();
    rs.encode_parity(&data_refs, &mut parity_refs)?;
    let all = Bytes::from(buf);
    Ok((0..n)
        .map(|i| Shard::new(i, all.slice(i * slen..(i + 1) * slen)))
        .collect())
}

/// Reconstructs the original value from any `k` distinct shards of an `(n, k)` codeword.
///
/// Shard bytes are borrowed in place; the only allocation in steady state is the returned
/// value (reassembly happens in a pooled per-thread scratch buffer).
pub fn decode_value(shards: &[Shard], n: usize, k: usize) -> Result<Vec<u8>, CodecError> {
    let rs = ReedSolomon::cached(n, k)?;
    let pairs: Vec<(usize, &[u8])> = shards.iter().map(|s| (s.index, &s.data[..])).collect();
    SCRATCH.with(|cell| {
        let mut joined = cell.borrow_mut();
        joined.clear();
        rs.decode_into(&pairs, &mut joined)?;
        if joined.len() < LEN_HEADER {
            return Err(CodecError::ShardLengthMismatch);
        }
        let mut len_bytes = [0u8; LEN_HEADER];
        len_bytes.copy_from_slice(&joined[..LEN_HEADER]);
        // The header is network-supplied: compare without adding, so no value overflows.
        let value_len = usize::try_from(u64::from_le_bytes(len_bytes)).unwrap_or(usize::MAX);
        if value_len > joined.len() - LEN_HEADER {
            return Err(CodecError::ShardLengthMismatch);
        }
        let value = joined[LEN_HEADER..LEN_HEADER + value_len].to_vec();
        if joined.capacity() > MAX_POOLED_SCRATCH {
            *joined = Vec::new();
        }
        Ok(value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shard_len_covers_value_and_header() {
        assert_eq!(shard_len(0, 1), 8);
        assert_eq!(shard_len(1024, 1), 1032);
        assert_eq!(shard_len(1024, 3), 344); // ceil(1032/3)
        assert!(shard_len(1000, 4) * 4 >= 1008);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn shard_len_rejects_zero_k() {
        shard_len(10, 0);
    }

    #[test]
    fn round_trip_simple() {
        let value = b"the quick brown fox jumps over the lazy dog".to_vec();
        let shards = encode_value(&value, 5, 3).unwrap();
        assert_eq!(shards.len(), 5);
        let decoded = decode_value(&shards[1..4], 5, 3).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn round_trip_with_parity_only() {
        let value = vec![0xABu8; 4096];
        let shards = encode_value(&value, 6, 2).unwrap();
        // Decode from the last two (parity) symbols only.
        let decoded = decode_value(&shards[4..6], 6, 2).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn empty_value_round_trips() {
        let shards = encode_value(&[], 4, 2).unwrap();
        let decoded = decode_value(&shards[..2], 4, 2).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn insufficient_shards_fail() {
        let value = vec![1u8; 100];
        let shards = encode_value(&value, 5, 3).unwrap();
        assert!(matches!(
            decode_value(&shards[..2], 5, 3),
            Err(CodecError::NotEnoughShards { .. })
        ));
    }

    #[test]
    fn shard_sizes_are_uniform_and_expected() {
        let value = vec![7u8; 1000];
        let shards = encode_value(&value, 9, 4).unwrap();
        let expect = shard_len(1000, 4);
        for s in &shards {
            assert_eq!(s.len(), expect);
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn shards_share_one_allocation() {
        // All n symbols are windows into one contiguous buffer: symbol i+1 starts exactly
        // slen bytes after symbol i.
        let value = vec![3u8; 500];
        let shards = encode_value(&value, 5, 3).unwrap();
        let slen = shard_len(500, 3);
        let base = shards[0].data.as_ptr();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.data.as_ptr() as usize, base as usize + i * slen);
        }
        // Cloning a shard is a refcount bump onto the same storage.
        let c = shards[2].clone();
        assert_eq!(c.data.as_ptr(), shards[2].data.as_ptr());
    }

    #[test]
    fn hostile_length_header_is_an_error_not_a_panic() {
        // One k=1 shard whose 8-byte header claims 2^64-1 value bytes.
        assert_eq!(
            decode_value(&[Shard::new(0, vec![0xFF; 16])], 3, 1),
            Err(CodecError::ShardLengthMismatch)
        );
    }

    /// FNV-1a 64 over all shard bytes concatenated in index order.
    fn fingerprint(shards: &[Shard]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for s in shards {
            for &b in &s.data[..] {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    fn filler(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 256) as u8).collect()
    }

    #[test]
    fn golden_encode_fingerprints_unchanged() {
        // Fingerprints recorded from the pre-optimization implementation (per-call codec,
        // scalar GF kernels). Any codeword-level behavior change — generator matrix, header
        // layout, padding, shard order — shows up here.
        #[rustfmt::skip]
        const GOLDEN: &[((usize, usize), usize, u64)] = &[
            ((5, 3), 0, 0x2eb09ce4c4320587), ((5, 3), 1, 0x6b74dc347a360840),
            ((5, 3), 317, 0xc36720c3d5ce2cc1), ((5, 3), 4096, 0x6c6c5a6fc40a5c91),
            ((5, 3), 100000, 0xd4a921e996a080cf),
            ((4, 2), 0, 0x88201fb960ff6465), ((4, 2), 1, 0x290bd10689fa403d),
            ((4, 2), 317, 0x4b4c9852f1ca573d), ((4, 2), 4096, 0x48d6091cb4b7c915),
            ((4, 2), 100000, 0x4bd06e5805364ea5),
            ((6, 4), 0, 0x5467b0da1d106495), ((6, 4), 1, 0xc50d47f2ac150d46),
            ((6, 4), 317, 0x3c903451bfcaf661), ((6, 4), 4096, 0xd0b4648496eddafd),
            ((6, 4), 100000, 0xecbe56d6b519f45d),
            ((9, 6), 0, 0x77e875b1c7b6a32d), ((9, 6), 1, 0x2bb36ccd4d0c6edd),
            ((9, 6), 317, 0x14892a0ceb3a816e), ((9, 6), 4096, 0x368d21b0802bbedf),
            ((9, 6), 100000, 0x6cc5830aff6329b2),
            ((8, 1), 0, 0xb9b23f3a46fd0825), ((8, 1), 1, 0x4b2fb740e63e0545),
            ((8, 1), 317, 0x23069e16a554573d), ((8, 1), 4096, 0xa22d7bbd8e303025),
            ((8, 1), 100000, 0xf56d22c3e45aac35),
        ];
        for &((n, k), len, want) in GOLDEN {
            let value = filler(len);
            let fast = fingerprint(&encode_value(&value, n, k).unwrap());
            assert_eq!(fast, want, "fast encode fingerprint n={n} k={k} len={len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn arbitrary_values_round_trip(
            value in proptest::collection::vec(any::<u8>(), 0..2000),
            k in 1usize..6,
            extra in 2usize..5,
            pick_seed: u64,
        ) {
            let n = k + extra;
            let shards = encode_value(&value, n, k).unwrap();
            // Deterministically pick k distinct indices based on pick_seed.
            let mut indices: Vec<usize> = (0..n).collect();
            let mut s = pick_seed;
            for i in (1..indices.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                indices.swap(i, (s as usize) % (i + 1));
            }
            let chosen: Vec<Shard> = indices[..k].iter().map(|&i| shards[i].clone()).collect();
            let decoded = decode_value(&chosen, n, k).unwrap();
            prop_assert_eq!(decoded, value);
        }
    }
}
