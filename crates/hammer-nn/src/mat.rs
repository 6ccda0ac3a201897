//! A dense row-major `f32` matrix.
//!
//! Sequences are `T × C` matrices: row `t` is the channel vector at time
//! step `t`.

use rand::Rng;

/// A dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Mat { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialisation for a `rows × cols` weight.
    pub(crate) fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub(crate) fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise sum (same shape).
    pub(crate) fn add(&self, other: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise difference (same shape).
    pub(crate) fn sub(&self, other: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise (Hadamard) product.
    pub(crate) fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds `other` in place.
    pub(crate) fn add_assign(&mut self, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by a scalar.
    pub(crate) fn scale(&self, k: f32) -> Mat {
        let data = self.data.iter().map(|a| a * k).collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` elementwise.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        let data = self.data.iter().map(|a| f(*a)).collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds a row vector (`1 × cols`) to every row.
    pub(crate) fn add_row_broadcast(&self, bias: &Mat) -> Mat {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Sums all rows into a `1 × cols` vector (bias-gradient reduction).
    pub(crate) fn sum_rows(&self) -> Mat {
        let mut out = Mat::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub(crate) fn hcat(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows);
        let cols = self.cols + other.cols;
        let mut out = Mat::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Column slice `[c0, c1)` as a new matrix.
    pub(crate) fn col_slice(&self, c0: usize, c1: usize) -> Mat {
        assert!(c0 <= c1 && c1 <= self.cols);
        let mut out = Mat::zeros(self.rows, c1 - c0);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }

    /// Reverses the row order (time reversal for the backward GRU).
    pub(crate) fn reverse_rows(&self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            out.row_mut(self.rows - 1 - r).copy_from_slice(self.row(r));
        }
        out
    }

    /// Frobenius norm.
    pub(crate) fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_identity() {
        let mut identity = Mat::zeros(3, 3);
        for i in 0..3 {
            identity.set(i, i, 1.0);
        }
        let a = Mat::from_vec(3, 3, (1..=9).map(|v| v as f32).collect());
        assert_eq!(a.matmul(&identity), a);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_bad_dims() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Mat::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.map(|v| v * v).data(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn broadcast_and_reduce() {
        let x = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let bias = Mat::from_vec(1, 2, vec![10.0, 20.0]);
        assert_eq!(x.add_row_broadcast(&bias).data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(x.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn hcat_and_slice_invert() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 1, vec![5.0, 6.0]);
        let cat = a.hcat(&b);
        assert_eq!(cat.cols(), 3);
        assert_eq!(cat.col_slice(0, 2), a);
        assert_eq!(cat.col_slice(2, 3), b);
    }

    #[test]
    fn reverse_rows_involution() {
        let a = Mat::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        assert_eq!(a.reverse_rows().data(), &[3.0, 2.0, 1.0]);
        assert_eq!(a.reverse_rows().reverse_rows(), a);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Mat::xavier(64, 32, &mut rng);
        let bound = (6.0 / 96.0f32).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        assert!(w.norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_checks_len() {
        let _ = Mat::from_vec(2, 2, vec![1.0]);
    }
}
