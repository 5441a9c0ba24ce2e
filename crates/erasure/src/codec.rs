//! Systematic `(n, k)` Reed–Solomon codec.
//!
//! The encoding matrix is `V · V_top^{-1}` where `V` is an `n x k` Vandermonde matrix with
//! distinct evaluation points; this makes the first `k` codeword symbols equal to the data
//! shards (systematic) while preserving the MDS property that *any* `k` symbols suffice to
//! reconstruct the data.
//!
//! # Codec lifecycle
//!
//! Building a codec runs the Vandermonde construction plus a `k x k` matrix inversion, and
//! decoding from a symbol set that includes parity inverts another `k x k` sub-matrix.
//! Neither belongs on the per-operation hot path, so:
//!
//! * [`ReedSolomon::cached`] returns a process-wide shared codec per `(n, k)` — the CAS
//!   quorum loops hit the same handful of codes for every PUT/GET.
//! * Each codec memoizes decode sub-matrix inverses keyed on the chosen row set
//!   ([`ReedSolomon::decode_into`]), so steady-state decoding performs zero matrix math.

use crate::gf256;
use crate::matrix::Matrix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Errors returned by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Invalid code parameters (`k == 0`, `n < k`, or `n > 255`).
    InvalidParameters {
        /// Requested code length.
        n: usize,
        /// Requested code dimension.
        k: usize,
    },
    /// Fewer than `k` distinct symbols were supplied to the decoder.
    NotEnoughShards {
        /// Distinct symbols supplied.
        have: usize,
        /// Symbols required (`k`).
        need: usize,
    },
    /// Supplied shards disagree in length.
    ShardLengthMismatch,
    /// A shard index was out of range or repeated.
    BadShardIndex(usize),
    /// The wrong number of data shards was supplied to `encode`.
    WrongDataShardCount {
        /// Data shards supplied.
        have: usize,
        /// Data shards required (`k`).
        need: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::InvalidParameters { n, k } => write!(f, "invalid RS parameters n={n} k={k}"),
            CodecError::NotEnoughShards { have, need } => {
                write!(f, "not enough shards: have {have}, need {need}")
            }
            CodecError::ShardLengthMismatch => write!(f, "shards have differing lengths"),
            CodecError::BadShardIndex(i) => write!(f, "bad shard index {i}"),
            CodecError::WrongDataShardCount { have, need } => {
                write!(f, "expected {need} data shards, got {have}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Process-wide `(n, k)` → codec cache behind [`ReedSolomon::cached`].
type CodecMap = HashMap<(usize, usize), Arc<ReedSolomon>>;
static CODECS: OnceLock<Mutex<CodecMap>> = OnceLock::new();

/// Decode sub-matrix inverses are memoized per codec; the cache is bounded so an
/// adversarial sequence of row sets cannot grow it without limit (`C(n, k)` can be large).
const MAX_CACHED_INVERSES: usize = 128;

/// A systematic Reed–Solomon code with length `n` and dimension `k`.
#[derive(Debug)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// `n x k` encoding matrix whose top `k x k` block is the identity.
    encode_matrix: Matrix,
    /// Chosen-row-set → inverse of the corresponding encode sub-matrix. Shared across
    /// clones of this codec (an inverse is a pure function of the row set).
    inverse_cache: Arc<Mutex<HashMap<Vec<u8>, Arc<Matrix>>>>,
}

impl Clone for ReedSolomon {
    fn clone(&self) -> Self {
        ReedSolomon {
            n: self.n,
            k: self.k,
            encode_matrix: self.encode_matrix.clone(),
            inverse_cache: Arc::clone(&self.inverse_cache),
        }
    }
}

impl ReedSolomon {
    /// Creates an `(n, k)` code. `1 <= k <= n <= 255`.
    ///
    /// Construction is comparatively expensive (Vandermonde build + matrix inversion);
    /// per-operation callers should prefer [`ReedSolomon::cached`].
    pub fn new(n: usize, k: usize) -> Result<Self, CodecError> {
        if k == 0 || n < k || n > 255 {
            return Err(CodecError::InvalidParameters { n, k });
        }
        let vander = Matrix::vandermonde(n, k);
        let top = vander.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("top Vandermonde block is always invertible");
        let encode_matrix = vander.mul(&top_inv);
        Ok(ReedSolomon {
            n,
            k,
            encode_matrix,
            inverse_cache: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Returns the process-wide shared `(n, k)` codec, constructing it on first use.
    ///
    /// This is the per-operation entry point: every encode/decode of the same code reuses
    /// one codec (and its memoized decode inverses) instead of re-running the Vandermonde
    /// construction and matrix inversion per call.
    pub fn cached(n: usize, k: usize) -> Result<Arc<ReedSolomon>, CodecError> {
        let cache = CODECS.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(rs) = cache.lock().expect("codec cache poisoned").get(&(n, k)) {
            return Ok(Arc::clone(rs));
        }
        // Construct outside the lock; a racing construction of the same code is harmless
        // (last insert wins, both are identical).
        let rs = Arc::new(ReedSolomon::new(n, k)?);
        cache
            .lock()
            .expect("codec cache poisoned")
            .insert((n, k), Arc::clone(&rs));
        Ok(rs)
    }

    /// Code length (total number of codeword symbols).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Code dimension (number of data shards).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Computes the `n - k` parity symbols for `k` equal-length data shards, writing them
    /// into `parity` (which must hold `n - k` slices of the data shard length).
    ///
    /// This is the allocation-free encode primitive: callers that lay out the codeword in
    /// one contiguous buffer (see `shares::encode_value`) pass borrowed sub-slices and no
    /// intermediate shard vectors exist.
    pub fn encode_parity(
        &self,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
    ) -> Result<(), CodecError> {
        if data.len() != self.k {
            return Err(CodecError::WrongDataShardCount {
                have: data.len(),
                need: self.k,
            });
        }
        if parity.len() != self.n - self.k {
            return Err(CodecError::WrongDataShardCount {
                have: parity.len(),
                need: self.n - self.k,
            });
        }
        let len = data.first().map(|d| d.len()).unwrap_or(0);
        if data.iter().any(|d| d.len() != len) || parity.iter().any(|p| p.len() != len) {
            return Err(CodecError::ShardLengthMismatch);
        }
        for (p, out) in parity.iter_mut().enumerate() {
            let coeffs = self.encode_matrix.row(self.k + p);
            out.fill(0);
            for (j, d) in data.iter().enumerate() {
                gf256::mul_acc_slice(out, d, coeffs[j]);
            }
        }
        Ok(())
    }

    /// Encodes `k` equal-length data shards into `n` codeword symbols.
    ///
    /// The first `k` output symbols are byte-identical to the inputs (systematic code); the
    /// remaining `n - k` are parity.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodecError> {
        if data.len() != self.k {
            return Err(CodecError::WrongDataShardCount {
                have: data.len(),
                need: self.k,
            });
        }
        let len = data.first().map(|d| d.len()).unwrap_or(0);
        let mut out: Vec<Vec<u8>> = data.to_vec();
        out.resize(self.n, Vec::new());
        let (_, parity_part) = out.split_at_mut(self.k);
        for p in parity_part.iter_mut() {
            p.resize(len, 0);
        }
        let data_refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity_refs: Vec<&mut [u8]> =
            parity_part.iter_mut().map(|p| p.as_mut_slice()).collect();
        self.encode_parity(&data_refs, &mut parity_refs)?;
        Ok(out)
    }

    /// Validates `shards`, picking the first `k` distinct in-range symbols. Returns the
    /// chosen `(index, bytes)` pairs and the common shard length.
    #[allow(clippy::type_complexity)]
    fn choose<'a>(
        &self,
        shards: &[(usize, &'a [u8])],
    ) -> Result<(Vec<(usize, &'a [u8])>, usize), CodecError> {
        let mut chosen: Vec<(usize, &[u8])> = Vec::with_capacity(self.k);
        for &(idx, data) in shards {
            if idx >= self.n {
                return Err(CodecError::BadShardIndex(idx));
            }
            if !chosen.iter().any(|(i, _)| *i == idx) {
                chosen.push((idx, data));
            }
            if chosen.len() == self.k {
                break;
            }
        }
        if chosen.len() < self.k {
            return Err(CodecError::NotEnoughShards {
                have: chosen.len(),
                need: self.k,
            });
        }
        let len = chosen[0].1.len();
        if chosen.iter().any(|(_, d)| d.len() != len) {
            return Err(CodecError::ShardLengthMismatch);
        }
        Ok((chosen, len))
    }

    /// Returns the (memoized) inverse of the encode sub-matrix for the given row set.
    fn decode_inverse(&self, rows: &[usize]) -> Arc<Matrix> {
        let key: Vec<u8> = rows.iter().map(|&r| r as u8).collect();
        {
            let cache = self.inverse_cache.lock().expect("inverse cache poisoned");
            if let Some(inv) = cache.get(&key) {
                return Arc::clone(inv);
            }
        }
        let sub = self.encode_matrix.select_rows(rows);
        let inv = Arc::new(
            sub.inverse()
                .expect("any k rows of an MDS encode matrix are invertible"),
        );
        let mut cache = self.inverse_cache.lock().expect("inverse cache poisoned");
        if cache.len() >= MAX_CACHED_INVERSES {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&inv));
        inv
    }

    /// Recovers the `k` data shards from any `k` (or more) codeword symbols, appending
    /// them (in data order, concatenated) to `out`.
    ///
    /// `shards` maps codeword index → shard bytes; extra shards beyond `k` are ignored.
    /// This is the allocation-free decode primitive: when all `k` data shards are present
    /// the bytes are copied straight into `out` with no matrix math; otherwise the
    /// memoized sub-matrix inverse drives `k` multiply-accumulate passes per data shard.
    /// `out` is typically a pooled buffer (see `shares::decode_value`).
    pub fn decode_into(
        &self,
        shards: &[(usize, &[u8])],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let (mut chosen, len) = self.choose(shards)?;
        let base = out.len();
        // Fast path: all k data shards present — place each at its slot, no coding.
        if chosen.iter().all(|(i, _)| *i < self.k) {
            chosen.sort_unstable_by_key(|(i, _)| *i);
            for (_, d) in &chosen {
                out.extend_from_slice(d);
            }
            return Ok(());
        }
        // General path: invert the sub-matrix of encode rows for the chosen symbols.
        let rows: Vec<usize> = chosen.iter().map(|(i, _)| *i).collect();
        let inv = self.decode_inverse(&rows);
        out.resize(base + self.k * len, 0);
        let recovered = &mut out[base..];
        for (data_idx, out_shard) in recovered.chunks_exact_mut(len.max(1)).enumerate() {
            for (col, (_, sym)) in chosen.iter().enumerate() {
                gf256::mul_acc_slice(out_shard, sym, inv.get(data_idx, col));
            }
        }
        Ok(())
    }

    /// Recovers the `k` data shards from any `k` (or more) codeword symbols.
    ///
    /// Compatibility wrapper over [`ReedSolomon::decode_into`] returning owned shards.
    pub fn decode_data(&self, shards: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>, CodecError> {
        let borrowed: Vec<(usize, &[u8])> =
            shards.iter().map(|(i, d)| (*i, d.as_slice())).collect();
        let (_, len) = self.choose(&borrowed)?;
        let mut joined = Vec::with_capacity(self.k * len);
        self.decode_into(&borrowed, &mut joined)?;
        if len == 0 {
            return Ok(vec![Vec::new(); self.k]);
        }
        Ok(joined.chunks_exact(len).map(|c| c.to_vec()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
            .collect()
    }

    #[test]
    fn parameters_validated() {
        assert!(ReedSolomon::new(5, 0).is_err());
        assert!(ReedSolomon::new(3, 5).is_err());
        assert!(ReedSolomon::new(300, 3).is_err());
        assert!(ReedSolomon::new(5, 3).is_ok());
        assert!(ReedSolomon::new(1, 1).is_ok());
        assert!(ReedSolomon::cached(5, 0).is_err());
    }

    #[test]
    fn cached_codecs_are_shared() {
        let a = ReedSolomon::cached(5, 3).unwrap();
        let b = ReedSolomon::cached(5, 3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = ReedSolomon::cached(4, 2).unwrap();
        assert_eq!(c.n(), 4);
        assert_eq!(c.k(), 2);
        // The cached codec encodes identically to a fresh one.
        let data = random_data(3, 64, 9);
        assert_eq!(
            a.encode(&data).unwrap(),
            ReedSolomon::new(5, 3).unwrap().encode(&data).unwrap()
        );
    }

    #[test]
    fn systematic_prefix_is_the_data() {
        let rs = ReedSolomon::new(6, 3).unwrap();
        let data = random_data(3, 100, 1);
        let shards = rs.encode(&data).unwrap();
        assert_eq!(shards.len(), 6);
        assert_eq!(&shards[..3], &data[..]);
    }

    #[test]
    fn encode_parity_matches_encode() {
        let rs = ReedSolomon::new(7, 4).unwrap();
        let data = random_data(4, 53, 8);
        let all = rs.encode(&data).unwrap();
        let data_refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![vec![0xFFu8; 53]; 3];
        let mut parity_refs: Vec<&mut [u8]> =
            parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        rs.encode_parity(&data_refs, &mut parity_refs).unwrap();
        drop(parity_refs);
        assert_eq!(&parity[..], &all[4..]);
        // Shape errors.
        let mut parity_refs: Vec<&mut [u8]> =
            parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        assert!(rs.encode_parity(&data_refs[..3], &mut parity_refs).is_err());
        let mut short = vec![vec![0u8; 10]; 3];
        let mut short_refs: Vec<&mut [u8]> = short.iter_mut().map(|p| p.as_mut_slice()).collect();
        assert_eq!(
            rs.encode_parity(&data_refs, &mut short_refs),
            Err(CodecError::ShardLengthMismatch)
        );
    }

    #[test]
    fn decode_from_any_k_symbols() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = random_data(3, 64, 3);
        let shards = rs.encode(&data).unwrap();
        // Try every 3-subset of the 5 symbols.
        for a in 0..5 {
            for b in (a + 1)..5 {
                for c in (b + 1)..5 {
                    let subset = vec![
                        (a, shards[a].clone()),
                        (b, shards[b].clone()),
                        (c, shards[c].clone()),
                    ];
                    let decoded = rs.decode_data(&subset).unwrap();
                    assert_eq!(decoded, data, "subset {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn repeated_decodes_hit_the_inverse_cache() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = random_data(3, 32, 11);
        let shards = rs.encode(&data).unwrap();
        let subset: Vec<(usize, Vec<u8>)> =
            [2usize, 3, 4].iter().map(|&i| (i, shards[i].clone())).collect();
        for _ in 0..3 {
            assert_eq!(rs.decode_data(&subset).unwrap(), data);
        }
        assert_eq!(rs.inverse_cache.lock().unwrap().len(), 1);
        // A clone shares the cache.
        let clone = rs.clone();
        let other: Vec<(usize, Vec<u8>)> =
            [0usize, 3, 4].iter().map(|&i| (i, shards[i].clone())).collect();
        assert_eq!(clone.decode_data(&other).unwrap(), data);
        assert_eq!(rs.inverse_cache.lock().unwrap().len(), 2);
    }

    #[test]
    fn decode_fails_with_fewer_than_k() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = random_data(3, 16, 4);
        let shards = rs.encode(&data).unwrap();
        let subset = vec![(0usize, shards[0].clone()), (4, shards[4].clone())];
        assert_eq!(
            rs.decode_data(&subset),
            Err(CodecError::NotEnoughShards { have: 2, need: 3 })
        );
    }

    #[test]
    fn duplicate_shards_do_not_count_twice() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = random_data(3, 16, 5);
        let shards = rs.encode(&data).unwrap();
        let subset = vec![
            (0usize, shards[0].clone()),
            (0, shards[0].clone()),
            (1, shards[1].clone()),
        ];
        assert!(matches!(
            rs.decode_data(&subset),
            Err(CodecError::NotEnoughShards { .. })
        ));
    }

    #[test]
    fn data_shards_out_of_order_fast_path() {
        // The all-data fast path must reorder by index, not by arrival.
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = random_data(3, 24, 12);
        let shards = rs.encode(&data).unwrap();
        let subset = vec![
            (2usize, shards[2].clone()),
            (0, shards[0].clone()),
            (1, shards[1].clone()),
        ];
        assert_eq!(rs.decode_data(&subset).unwrap(), data);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = vec![vec![1u8; 8], vec![2u8; 9]];
        assert_eq!(rs.encode(&data), Err(CodecError::ShardLengthMismatch));
    }

    #[test]
    fn replication_degenerate_case_k1() {
        // k = 1 means every symbol equals the data; CAS(k=1) is "replication via CAS".
        let rs = ReedSolomon::new(4, 1).unwrap();
        let data = vec![vec![7u8, 8, 9]];
        let shards = rs.encode(&data).unwrap();
        for s in &shards {
            assert_eq!(*s, data[0]);
        }
        let decoded = rs.decode_data(&[(3, shards[3].clone())]).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn empty_shards_round_trip() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = vec![vec![], vec![], vec![]];
        let shards = rs.encode(&data).unwrap();
        assert!(shards.iter().all(|s| s.is_empty()));
        let decoded = rs
            .decode_data(&[(2, vec![]), (3, vec![]), (4, vec![])])
            .unwrap();
        assert_eq!(decoded, data);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_erasures_round_trip(
            k in 1usize..6,
            extra in 1usize..5,
            len in 0usize..200,
            seed: u64,
        ) {
            let n = k + extra;
            let rs = ReedSolomon::new(n, k).unwrap();
            let data = random_data(k, len, seed);
            let shards = rs.encode(&data).unwrap();
            // Pick a pseudo-random k-subset determined by the seed.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDEADBEEF);
            let mut indices: Vec<usize> = (0..n).collect();
            indices.shuffle(&mut rng);
            let subset: Vec<(usize, Vec<u8>)> =
                indices[..k].iter().map(|&i| (i, shards[i].clone())).collect();
            let decoded = rs.decode_data(&subset).unwrap();
            prop_assert_eq!(decoded, data);
        }
    }
}
