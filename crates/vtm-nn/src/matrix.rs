//! Dense row-major matrix type used throughout the neural-network substrate.
//!
//! The matrix is intentionally simple: an owned `Vec<f64>` in row-major order
//! with a `(rows, cols)` shape. All shape mismatches are reported through
//! [`ShapeError`] rather than panics so that callers composing layers can
//! surface configuration errors cleanly.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// Error returned when two matrices have incompatible shapes for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Operation that failed (e.g. `"matmul"`).
    pub op: &'static str,
    /// Shape of the left-hand operand.
    pub lhs: (usize, usize),
    /// Shape of the right-hand operand.
    pub rhs: (usize, usize),
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape mismatch in {}: lhs is {}x{}, rhs is {}x{}",
            self.op, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use vtm_nn::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, ShapeError> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(ShapeError {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a single-row matrix (row vector) from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a single-column matrix (column vector) from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the value at `(row, col)` or `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Returns a view of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable view of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Reshapes the matrix to `rows x cols`, reusing the backing allocation.
    ///
    /// Once the backing vector has grown to its steady-state capacity, further
    /// calls never allocate. Element contents after a resize are unspecified
    /// (the training kernels overwrite their outputs completely); use
    /// [`Matrix::fill`] when a defined value is required.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::default();
        self.transpose_into(&mut out);
        out
    }

    /// Matrix transpose written into a caller-owned buffer, resized in place.
    /// A copy, not arithmetic: the backward pass packs `Wᵀ` with it so that
    /// `dZ · Wᵀ` runs the same kernel as every other product.
    pub fn transpose_into(&self, out: &mut Self) {
        out.resize(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// This is the simple reference kernel (row-major `i/k/j` loops); the
    /// training hot path uses the register-tiled [`Matrix::matmul_into`],
    /// which produces bit-identical results because every output element
    /// accumulates its `k` terms in the same increasing order.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Self) -> Result<Self, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix multiplication `self * rhs` written into a caller-owned buffer.
    ///
    /// `out` is resized to `self.rows() x rhs.cols()`; when its backing vector
    /// already has enough capacity no allocation is performed, which makes
    /// this the building block of the allocation-free training kernels.
    /// It runs the register-tiled product kernel, bit-identical to
    /// [`Matrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) -> Result<(), ShapeError> {
        self.check_inner("matmul_into", self.cols, rhs)?;
        gemm(self, false, rhs, None, out);
        Ok(())
    }

    /// `self * rhs + bias` (the `1 x rhs.cols()` bias added to every row)
    /// into a caller-owned buffer: [`Matrix::matmul_into`] with the bias
    /// added to each element after its full `k` sum, so bit-identical to
    /// [`Matrix::matmul`] followed by [`Matrix::add_row_broadcast`].
    pub(crate) fn matmul_bias_into(
        &self,
        rhs: &Self,
        bias: &Self,
        out: &mut Self,
    ) -> Result<(), ShapeError> {
        self.check_inner("matmul_bias_into", self.cols, rhs)?;
        if bias.shape() != (1, rhs.cols) {
            return Err(ShapeError {
                op: "matmul_bias_into",
                lhs: rhs.shape(),
                rhs: bias.shape(),
            });
        }
        gemm(self, false, rhs, Some(&bias.data), out);
        Ok(())
    }

    /// Product `selfᵀ * rhs` written into a caller-owned buffer.
    ///
    /// Equivalent to `self.transpose().matmul(rhs)` without materialising the
    /// transpose: the product kernel reads `self` column-wise. The backward
    /// pass uses it for `xᵀ · dZ`. Results are bit-identical to
    /// transpose-then-multiply.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.rows() != rhs.rows()`.
    pub fn matmul_at_b_into(&self, rhs: &Self, out: &mut Self) -> Result<(), ShapeError> {
        self.check_inner("matmul_at_b_into", self.rows, rhs)?;
        gemm(self, true, rhs, None, out);
        Ok(())
    }

    /// The shape check of the products: the inner dimension `inner` of
    /// `self` must equal `rhs.rows()`.
    fn check_inner(&self, op: &'static str, inner: usize, rhs: &Self) -> Result<(), ShapeError> {
        if inner == rhs.rows {
            Ok(())
        } else {
            Err(ShapeError {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            })
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn add_elem(&self, rhs: &Self) -> Result<Self, ShapeError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn sub_elem(&self, rhs: &Self) -> Result<Self, ShapeError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn hadamard(&self, rhs: &Self) -> Result<Self, ShapeError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Element-wise (Hadamard) product written into a caller-owned buffer.
    ///
    /// `out` is resized to the operand shape; no allocation happens once the
    /// buffer has reached its steady-state capacity.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the operand shapes differ.
    pub fn hadamard_into(&self, rhs: &Self, out: &mut Self) -> Result<(), ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError {
                op: "hadamard_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.resize(self.rows, self.cols);
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(rhs.data.iter())
        {
            *o = a * b;
        }
        Ok(())
    }

    /// Applies a binary closure element-wise across two equally shaped matrices.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn zip_with<F>(&self, rhs: &Self, op: &'static str, f: F) -> Result<Self, ShapeError>
    where
        F: Fn(f64, f64) -> f64,
    {
        if self.shape() != rhs.shape() {
            return Err(ShapeError {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Applies a unary closure to every element, returning a new matrix.
    pub fn map<F>(&self, f: F) -> Self
    where
        F: Fn(f64) -> f64,
    {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies a unary closure to every element in place.
    pub fn map_inplace<F>(&mut self, f: F)
    where
        F: Fn(f64) -> f64,
    {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|x| x * s)
    }

    /// Adds `rhs` scaled by `alpha` into `self` in place (`self += alpha * rhs`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &Self) -> Result<(), ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Adds a row vector to every row of the matrix (broadcasting).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `bias` is not a `1 x cols` matrix.
    pub fn add_row_broadcast(&self, bias: &Self) -> Result<Self, ShapeError> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(ShapeError {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: bias.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] += bias.data[c];
            }
        }
        Ok(out)
    }

    /// Sums every row into a single `1 x cols` row vector.
    pub fn sum_rows(&self) -> Self {
        let mut out = Self::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// Sums every row into a caller-owned `1 x cols` row vector (resized as
    /// needed). Accumulation order matches [`Matrix::sum_rows`] exactly.
    pub fn sum_rows_into(&self, out: &mut Self) {
        out.resize(1, self.cols);
        out.data.fill(0.0);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Largest element. Returns negative infinity for an empty matrix.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element. Returns positive infinity for an empty matrix.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm (square root of the sum of squares of all elements).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Clamps every element into `[lo, hi]` in place.
    pub fn clamp_inplace(&mut self, lo: f64, hi: f64) {
        for x in &mut self.data {
            *x = x.clamp(lo, hi);
        }
    }

    /// Returns `true` when the element-wise absolute difference with `other`
    /// never exceeds `tol`. Shapes must match, otherwise `false`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// Rows of the product kernel's output tile.
const TILE_ROWS: usize = 4;
/// Columns of the output tile: two 4-lane `f64` registers per row in an
/// AVX2 build.
const TILE_COLS: usize = 8;

/// The left operand of [`gemm`]: element `(i, kk)` sits at
/// `data[i * rs + kk * ks]`, so one kernel reads a matrix (`rs = cols`,
/// `ks = 1`) or its transpose (`rs = 1`, `ks = cols`) without a copy.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f64],
    rs: usize,
    ks: usize,
}

/// The one `f64` product kernel: `out = A · b`, plus `bias` on every row when
/// given, where `A` is `a` or, with `a_t`, `aᵀ`. Shapes are checked by the
/// callers.
///
/// The output is cut into tiles of 4 rows × 8 columns (Goto & van de Geijn,
/// "Anatomy of High-Performance Matrix Multiplication", ACM TOMS 2008). A
/// tile's 32 sums stay in registers while `kk` runs, so each `kk` loads one
/// 8-wide slice of a row of `b` and four elements of `A`. Bands of 1–3 rows
/// and the columns past the last full tile run the same loop, narrowed.
/// Every element starts at `+0.0` and adds `A[i][kk] · b[kk][j]` in
/// increasing `kk`, then the bias, exactly as [`Matrix::matmul`] and
/// [`Matrix::add_row_broadcast`] do. The tile decides which elements share a
/// register, never the roundings of one element, so each row of an `m`-row
/// product equals the 1-row product of that row.
fn gemm(a: &Matrix, a_t: bool, b: &Matrix, bias: Option<&[f64]>, out: &mut Matrix) {
    let (m, rs, ks) = if a_t {
        (a.cols, 1, a.cols)
    } else {
        (a.rows, a.cols, 1)
    };
    let lhs = Lhs {
        data: &a.data,
        rs,
        ks,
    };
    out.resize(m, b.cols);
    let mut i = 0;
    while i < m {
        let rows = TILE_ROWS.min(m - i);
        match rows {
            1 => band::<1>(lhs, i, b, bias, &mut out.data),
            2 => band::<2>(lhs, i, b, bias, &mut out.data),
            3 => band::<3>(lhs, i, b, bias, &mut out.data),
            _ => band::<TILE_ROWS>(lhs, i, b, bias, &mut out.data),
        }
        i += rows;
    }
}

/// Output rows `i..i + R` of [`gemm`]: full 8-column tiles, then the
/// remaining columns one at a time.
fn band<const R: usize>(a: Lhs, i: usize, b: &Matrix, bias: Option<&[f64]>, out: &mut [f64]) {
    let n = b.cols;
    let mut j = 0;
    while j + TILE_COLS <= n {
        store(&tile::<R, TILE_COLS>(a, i, b, j), i, j, n, bias, out);
        j += TILE_COLS;
    }
    for j in j..n {
        store(&tile::<R, 1>(a, i, b, j), i, j, n, bias, out);
    }
}

/// The `R x C` sums of output rows `i..i + R`, columns `j..j + C`, each
/// accumulated from `+0.0` in increasing `kk`.
fn tile<const R: usize, const C: usize>(a: Lhs, i: usize, b: &Matrix, j: usize) -> [[f64; C]; R] {
    let mut acc = [[0.0; C]; R];
    for (kk, b_row) in b.data.chunks_exact(b.cols).enumerate() {
        let b_k = &b_row[j..j + C];
        for (r, sums) in acc.iter_mut().enumerate() {
            let x = a.data[(i + r) * a.rs + kk * a.ks];
            for (s, &y) in sums.iter_mut().zip(b_k) {
                *s += x * y;
            }
        }
    }
    acc
}

/// Writes a tile's sums, plus the bias when given, into `out` (`n` columns).
fn store<const R: usize, const C: usize>(
    acc: &[[f64; C]; R],
    i: usize,
    j: usize,
    n: usize,
    bias: Option<&[f64]>,
    out: &mut [f64],
) {
    for (r, sums) in acc.iter().enumerate() {
        let dst = &mut out[(i + r) * n + j..][..C];
        match bias {
            Some(bias) => {
                for ((o, &s), &b) in dst.iter_mut().zip(sums).zip(&bias[j..j + C]) {
                    *o = s + b;
                }
            }
            None => dst.copy_from_slice(sums),
        }
    }
}

impl Default for Matrix {
    /// The empty `0 x 0` matrix — the natural seed for reusable buffers that
    /// are later sized with [`Matrix::resize`] or the `_into` kernels.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_elem(rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_elem(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs).expect("matrix += shape mismatch");
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>10.4} ", self.data[r * self.cols + c])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_contents() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Matrix::ones(3, 2);
        assert_eq!(o.sum(), 6.0);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(err.op, "from_vec");
        assert!(err.to_string().contains("shape mismatch"));
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert_eq!(err.op, "from_rows");
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    /// Deterministic pseudo-random matrix for kernel equivalence tests
    /// (no RNG dependency in this crate's unit tests).
    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// Shapes that reach every path of the product kernel: bands of 1–4
    /// rows, 8-column tiles, 1-column tails, empty operands and the paper
    /// network's widths (12 inputs, 64 hidden units, 1 output, batch 20).
    const TILE_MS: [usize; 9] = [0, 1, 2, 3, 4, 5, 8, 20, 37];
    const TILE_KS: [usize; 5] = [0, 1, 7, 12, 64];
    const TILE_NS: [usize; 6] = [0, 1, 7, 8, 9, 64];

    /// Every `(m, k, n)` of the shape table, each with a finite operand pair
    /// and with one holding `−0.0`, NaN and `±∞`.
    fn tile_cases() -> impl Iterator<Item = (usize, usize, usize, bool)> {
        TILE_MS.into_iter().flat_map(|m| {
            TILE_KS.into_iter().flat_map(move |k| {
                TILE_NS
                    .into_iter()
                    .flat_map(move |n| [false, true].map(|special| (m, k, n, special)))
            })
        })
    }

    /// [`pseudo_random`] with, when `special`, `−0.0`, NaN, `+∞` and `−∞`
    /// at sparse positions, and one row that is all `−0.0` (a sum that
    /// starts from the first product instead of `+0.0` reads `−0.0` there).
    fn operand(rows: usize, cols: usize, seed: u64, special: bool) -> Matrix {
        let mut m = pseudo_random(rows, cols, seed);
        if special {
            for (idx, v) in m.as_mut_slice().iter_mut().enumerate() {
                match idx % 23 {
                    _ if idx / cols == 1 => *v = -0.0,
                    3 => *v = -0.0,
                    9 => *v = f64::NAN,
                    14 => *v = f64::INFINITY,
                    20 => *v = f64::NEG_INFINITY,
                    _ => {}
                }
            }
        }
        m
    }

    /// Bitwise equality, except that any NaN matches any NaN: which NaN
    /// payload survives `NaN + NaN` is the compiler's operand order, not a
    /// rounding.
    fn assert_same_bits(got: &Matrix, want: &Matrix, case: &str) {
        assert_eq!(got.shape(), want.shape(), "{case}: shape");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{case}: element {idx} is {g:e}, want {w:e}"
            );
        }
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        for (m, k, n, special) in tile_cases() {
            let case = format!("{m}x{k} * {k}x{n}, special {special}");
            let a = operand(m, k, 1 + m as u64, special);
            let b = operand(k, n, 2 + n as u64, special);
            let bias = operand(1, n, 3, special);
            let expected = a.matmul(&b).unwrap();
            // Deliberately mis-shaped and dirty buffer: the kernel must resize
            // and fully overwrite it.
            let mut out = Matrix::filled(2, 9, -7.5);
            a.matmul_into(&b, &mut out).unwrap();
            assert_same_bits(&out, &expected, &case);
            // Reuse without reallocation is transparent to the result.
            a.matmul_into(&b, &mut out).unwrap();
            assert_same_bits(&out, &expected, &case);
            // The bias variant adds the bias after the full sum.
            let mut with_bias = Matrix::filled(3, 1, -7.5);
            a.matmul_bias_into(&b, &bias, &mut with_bias).unwrap();
            let want = expected.add_row_broadcast(&bias).unwrap();
            assert_same_bits(&with_bias, &want, &case);
            // Batch slicing: each row equals the 1-row product of that row.
            let mut single = Matrix::zeros(0, 0);
            for i in 0..m {
                let row = Matrix::row_vector(a.row(i));
                row.matmul_bias_into(&b, &bias, &mut single).unwrap();
                assert_same_bits(&single, &Matrix::row_vector(want.row(i)), &case);
            }
        }
        let (a, mut out) = (pseudo_random(5, 7, 1), Matrix::zeros(0, 0));
        assert!(a.matmul_into(&Matrix::zeros(3, 3), &mut out).is_err());
        let bad_bias = Matrix::zeros(1, 3);
        assert!(a
            .matmul_bias_into(&Matrix::zeros(7, 4), &bad_bias, &mut out)
            .is_err());
    }

    #[test]
    fn matmul_at_b_into_matches_transpose_then_matmul() {
        for (m, k, n, special) in tile_cases() {
            let case = format!("({k}x{m})T * {k}x{n}, special {special}");
            let a = operand(k, m, 3 + m as u64, special);
            let b = operand(k, n, 4 + n as u64, special);
            let expected = a.transpose().matmul(&b).unwrap();
            let mut out = Matrix::filled(1, 3, -7.5);
            a.matmul_at_b_into(&b, &mut out).unwrap();
            assert_same_bits(&out, &expected, &case);
        }
        let (a, mut out) = (pseudo_random(6, 3, 3), Matrix::zeros(0, 0));
        assert!(a.matmul_at_b_into(&Matrix::zeros(5, 2), &mut out).is_err());
    }

    #[test]
    fn transpose_into_then_matmul_into_matches_matmul_with_transpose() {
        // `dZ · Wᵀ` in the backward pass: pack `bᵀ`, then the same kernel.
        let cases = tile_cases().map(|(m, k, n, special)| {
            let a = operand(m, k, 5 + m as u64, special);
            (a, operand(n, k, 6 + n as u64, special), special)
        });
        let old_case = (pseudo_random(4, 6, 5), pseudo_random(3, 6, 6), false);
        let (mut bt, mut out) = (Matrix::filled(2, 2, -7.5), Matrix::filled(1, 1, -7.5));
        for (a, b, special) in cases.chain([old_case]) {
            let case = format!("{:?} * ({:?})T, special {special}", a.shape(), b.shape());
            let expected = a.matmul(&b.transpose()).unwrap();
            b.transpose_into(&mut bt);
            assert_eq!(bt.shape(), (b.cols(), b.rows()), "{case}");
            a.matmul_into(&bt, &mut out).unwrap();
            assert_same_bits(&out, &expected, &case);
        }
    }

    #[test]
    fn matmul_does_not_skip_zero_rows() {
        // The old kernel skipped `a == 0.0` inner-loop entries, which silently
        // suppressed NaN/inf propagation (0.0 * inf = NaN must surface).
        let a = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[f64::INFINITY], &[2.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c[(0, 0)].is_nan(), "0 * inf must propagate NaN");
    }

    #[test]
    fn hadamard_into_matches_hadamard() {
        let a = pseudo_random(3, 4, 7);
        let b = pseudo_random(3, 4, 8);
        let expected = a.hadamard(&b).unwrap();
        let mut out = Matrix::zeros(0, 0);
        a.hadamard_into(&b, &mut out).unwrap();
        assert_eq!(out, expected);
        assert!(a.hadamard_into(&Matrix::zeros(4, 3), &mut out).is_err());
    }

    #[test]
    fn sum_rows_into_matches_sum_rows() {
        let a = pseudo_random(5, 3, 9);
        let mut out = Matrix::filled(2, 2, 1.0);
        a.sum_rows_into(&mut out);
        assert_eq!(out, a.sum_rows());
    }

    #[test]
    fn resize_and_fill_reuse_buffer() {
        let mut m = Matrix::zeros(4, 4);
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        m.fill(2.5);
        assert!(m.as_slice().iter().all(|&x| x == 2.5));
        m.resize(3, 3);
        assert_eq!(m.len(), 9);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_shape_and_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t[(0, 2)], 5.0);
        assert_eq!(t[(1, 0)], 2.0);
    }

    #[test]
    fn elementwise_ops_work() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]).unwrap();
        assert_eq!((&a + &b)[(1, 1)], 44.0);
        assert_eq!((&b - &a)[(0, 0)], 9.0);
        assert_eq!(a.hadamard(&b).unwrap()[(0, 1)], 40.0);
        assert_eq!((&a * 2.0)[(1, 0)], 6.0);
        assert_eq!((-&a)[(0, 0)], -1.0);
    }

    #[test]
    fn broadcast_bias_adds_to_every_row() {
        let a = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(&[1.0, -1.0]);
        let out = a.add_row_broadcast(&bias).unwrap();
        for r in 0..3 {
            assert_eq!(out[(r, 0)], 1.0);
            assert_eq!(out[(r, 1)], -1.0);
        }
    }

    #[test]
    fn broadcast_bias_rejects_wrong_width() {
        let a = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&bias).is_err());
    }

    #[test]
    fn sum_rows_collapses_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let s = a.sum_rows();
        assert_eq!(s.shape(), (1, 2));
        assert_eq!(s[(0, 0)], 9.0);
        assert_eq!(s[(0, 1)], 12.0);
    }

    #[test]
    fn reductions_and_norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::filled(2, 2, 3.0);
        a.axpy(2.0, &b).unwrap();
        assert!(a.as_slice().iter().all(|&x| (x - 7.0).abs() < 1e-12));
    }

    #[test]
    fn clamp_limits_values() {
        let mut a = Matrix::from_rows(&[&[-10.0, 0.5, 10.0]]).unwrap();
        a.clamp_inplace(-1.0, 1.0);
        assert_eq!(a.as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn rows_and_columns_views() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.column(0), vec![1.0, 3.0]);
        assert_eq!(a.get(1, 1), Some(4.0));
        assert_eq!(a.get(2, 0), None);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn into_vec_roundtrip() {
        let a = Matrix::from_rows(&[&[1.5, -2.5], &[0.0, 4.25]]).unwrap();
        let back = Matrix::from_vec(2, 2, a.clone().into_vec()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::ones(1, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.all_finite());
    }
}
