//! Dense matrices over GF(2^8) and the operations Reed–Solomon needs: multiplication,
//! Gauss–Jordan inversion and Vandermonde construction.

use crate::gf256;

/// A row-major dense matrix over GF(2^8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// `rows x cols` Vandermonde matrix with entry `(i, j) = i^j` (evaluation points
    /// `0, 1, 2, ...`). Any `cols` rows with distinct evaluation points are linearly
    /// independent, which is the property the RS construction relies on.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, gf256::pow(i as u8, j as u32));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in matrix multiply");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for kk in 0..self.cols {
                let a = self.get(i, kk);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = gf256::mul(a, rhs.get(kk, j));
                    out.set(i, j, gf256::add(out.get(i, j), prod));
                }
            }
        }
        out
    }

    /// Returns a new matrix containing the listed rows of `self`, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (dst, &src) in rows.iter().enumerate() {
            for c in 0..self.cols {
                out.set(dst, c, self.get(src, c));
            }
        }
        out
    }

    /// Gauss–Jordan inversion. Returns `None` if the matrix is singular or non-square.
    pub fn inverse(&self) -> Option<Matrix> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a.get(col, col);
            let pinv = gf256::inv(p);
            a.scale_row(col, pinv);
            inv.scale_row(col, pinv);
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor == 0 {
                    continue;
                }
                a.add_scaled_row(r, col, factor);
                inv.add_scaled_row(r, col, factor);
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            let t = self.get(r1, c);
            self.set(r1, c, self.get(r2, c));
            self.set(r2, c, t);
        }
    }

    fn scale_row(&mut self, r: usize, factor: u8) {
        let start = r * self.cols;
        gf256::mul_slice(&mut self.data[start..start + self.cols], factor);
    }

    /// `row[dst] ^= factor * row[src]`.
    fn add_scaled_row(&mut self, dst: usize, src: usize, factor: u8) {
        for c in 0..self.cols {
            let v = gf256::add(self.get(dst, c), gf256::mul(factor, self.get(src, c)));
            self.set(dst, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Matrix {
        /// Builds a matrix from nested vectors (rows of equal length).
        fn from_rows(rows: Vec<Vec<u8>>) -> Self {
            let r = rows.len();
            let c = rows.first().map(|x| x.len()).unwrap_or(0);
            assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
            Matrix {
                rows: r,
                cols: c,
                data: rows.into_iter().flatten().collect(),
            }
        }
    }

    #[test]
    fn identity_times_anything_is_identity_mapping() {
        let m = Matrix::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]);
        let i = Matrix::identity(3);
        assert_eq!(i.mul(&m), m);
        assert_eq!(m.mul(&i), m);
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let i = Matrix::identity(4);
        assert_eq!(i.inverse().unwrap(), i);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        // Two identical rows.
        let m = Matrix::from_rows(vec![vec![1, 2], vec![1, 2]]);
        assert!(m.inverse().is_none());
        // Non-square.
        let m = Matrix::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn vandermonde_square_submatrices_are_invertible() {
        let v = Matrix::vandermonde(8, 4);
        // Any 4 distinct rows must form an invertible matrix.
        let m = v.select_rows(&[0, 2, 5, 7]);
        let inv = m.inverse().expect("vandermonde rows independent");
        assert_eq!(m.mul(&inv), Matrix::identity(4));
    }

    #[test]
    fn select_rows_preserves_content() {
        let v = Matrix::vandermonde(5, 3);
        let s = v.select_rows(&[4, 1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), v.row(4));
        assert_eq!(s.row(1), v.row(1));
    }

    fn arbitrary_invertible(n: usize, seed: u64) -> Matrix {
        // Build a random-ish matrix from a seed and keep perturbing until invertible.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        loop {
            let mut m = Matrix::zero(n, n);
            for r in 0..n {
                for c in 0..n {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    m.set(r, c, (state >> 33) as u8);
                }
            }
            if m.inverse().is_some() {
                return m;
            }
        }
    }

    proptest! {
        #[test]
        fn inverse_round_trip(n in 1usize..6, seed: u64) {
            let m = arbitrary_invertible(n, seed);
            let inv = m.inverse().unwrap();
            prop_assert_eq!(m.mul(&inv), Matrix::identity(n));
            prop_assert_eq!(inv.mul(&m), Matrix::identity(n));
        }

        #[test]
        fn matrix_multiply_is_associative(seed: u64) {
            let a = arbitrary_invertible(3, seed);
            let b = arbitrary_invertible(3, seed.wrapping_add(1));
            let c = arbitrary_invertible(3, seed.wrapping_add(2));
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }
    }
}
