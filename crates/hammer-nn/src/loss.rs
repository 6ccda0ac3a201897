//! The training loss with its gradient: MAE (paper Eq. 8).

use crate::mat::Mat;

/// Mean absolute error and its gradient w.r.t. the prediction.
///
/// The paper trains with MAE: `L = (1/n) Σ |y_i - ŷ_i|`.
pub fn mae_loss(prediction: &Mat, target: &Mat) -> (f32, Mat) {
    assert_eq!(
        (prediction.rows(), prediction.cols()),
        (target.rows(), target.cols()),
        "shape mismatch"
    );
    let n = (prediction.rows() * prediction.cols()) as f32;
    let mut loss = 0.0;
    let mut grad = Mat::zeros(prediction.rows(), prediction.cols());
    for i in 0..prediction.data().len() {
        let diff = prediction.data()[i] - target.data()[i];
        loss += diff.abs();
        // Note: f32::signum(0.0) is 1.0, so spell out the subgradient.
        grad.data_mut()[i] = if diff > 0.0 {
            1.0 / n
        } else if diff < 0.0 {
            -1.0 / n
        } else {
            0.0
        };
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_value_and_grad() {
        let p = Mat::from_vec(1, 2, vec![3.0, 1.0]);
        let t = Mat::from_vec(1, 2, vec![1.0, 2.0]);
        let (loss, grad) = mae_loss(&p, &t);
        assert!((loss - 1.5).abs() < 1e-6); // (2 + 1)/2
        assert_eq!(grad.data(), &[0.5, -0.5]);
    }

    #[test]
    fn perfect_prediction_zero_loss() {
        let p = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let (mae, grad) = mae_loss(&p, &p);
        assert_eq!(mae, 0.0);
        // The subgradient at zero is 0, not signum(0) = 1.
        assert_eq!(grad.norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = mae_loss(&Mat::zeros(1, 2), &Mat::zeros(2, 1));
    }
}
