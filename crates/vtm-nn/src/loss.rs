//! The mean-squared-error loss with its analytic gradient.

use crate::matrix::{Matrix, ShapeError};

/// Mean squared error between `prediction` and `target`, averaged over all elements.
///
/// # Errors
///
/// Returns a [`ShapeError`] when the shapes differ.
pub fn mse(prediction: &Matrix, target: &Matrix) -> Result<f64, ShapeError> {
    let diff = prediction.sub_elem(target)?;
    Ok(diff.map(|d| d * d).mean())
}

/// Gradient of [`mse`] with respect to `prediction`.
///
/// # Errors
///
/// Returns a [`ShapeError`] when the shapes differ.
pub fn mse_grad(prediction: &Matrix, target: &Matrix) -> Result<Matrix, ShapeError> {
    let n = prediction.len().max(1) as f64;
    Ok(prediction.sub_elem(target)?.scale(2.0 / n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_matrices_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let t = Matrix::from_rows(&[&[0.0, 4.0]]).unwrap();
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((mse(&p, &t).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mse_grad_matches_finite_difference() {
        let p = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]).unwrap();
        let t = Matrix::from_rows(&[&[0.0, 1.0], &[1.5, 0.0]]).unwrap();
        let g = mse_grad(&p, &t).unwrap();
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let mut pp = p.clone();
                pp[(r, c)] += h;
                let mut pm = p.clone();
                pm[(r, c)] -= h;
                let numeric = (mse(&pp, &t).unwrap() - mse(&pm, &t).unwrap()) / (2.0 * h);
                assert!((numeric - g[(r, c)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(mse(&a, &b).is_err());
    }
}
