//! Plaintext logistic-regression training (the HELR algorithm structure): Nesterov-accelerated
//! gradient descent over mini-batches, with the same low-degree polynomial sigmoid that the
//! encrypted version evaluates. This is the accuracy reference for the encrypted trainer and
//! the source of the per-iteration operation structure costed by the accelerator model.

use crate::Dataset;

/// Linear coefficient of [`polynomial_sigmoid`].
pub(crate) const SIGMOID_A1: f64 = 0.15012;
/// Cubic coefficient of [`polynomial_sigmoid`].
pub(crate) const SIGMOID_A3: f64 = -0.001593;

/// The degree-3 least-squares sigmoid approximation used by HELR:
/// `σ(x) ≈ 0.5 + 0.15012·x − 0.001593·x³` on the interval `[-8, 8]`.
pub fn polynomial_sigmoid(x: f64) -> f64 {
    0.5 + SIGMOID_A1 * x + SIGMOID_A3 * x * x * x
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Number of passes (the HELR benchmark runs 30 iterations).
    pub iterations: usize,
    /// Mini-batch size (1,024 in the benchmark).
    pub batch_size: usize,
    /// Base learning rate.
    pub learning_rate: f64,
    /// Whether to use Nesterov acceleration (HELR does).
    pub nesterov: bool,
    /// Whether to use the polynomial sigmoid (matching the encrypted circuit) or the exact one.
    pub polynomial_sigmoid: bool,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            iterations: 30,
            batch_size: 1_024,
            learning_rate: 1.0,
            nesterov: true,
            polynomial_sigmoid: true,
        }
    }
}

/// Plaintext logistic-regression trainer.
#[derive(Debug, Clone)]
pub struct LogisticRegressionTrainer {
    config: TrainingConfig,
    weights: Vec<f64>,
    momentum: Vec<f64>,
    losses: Vec<f64>,
}

impl LogisticRegressionTrainer {
    /// Creates a trainer for `features` input dimensions (plus an implicit bias term).
    pub fn new(features: usize, config: TrainingConfig) -> Self {
        Self {
            config,
            weights: vec![0.0; features + 1],
            momentum: vec![0.0; features + 1],
            losses: Vec::new(),
        }
    }

    /// The current weights (bias last).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The recorded mini-batch losses, one entry per iteration.
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    fn sigmoid(&self, x: f64) -> f64 {
        if self.config.polynomial_sigmoid {
            polynomial_sigmoid(x.clamp(-8.0, 8.0))
        } else {
            1.0 / (1.0 + (-x).exp())
        }
    }

    fn margin(&self, row: &[f64], weights: &[f64]) -> f64 {
        let mut z = weights[weights.len() - 1];
        for (w, x) in weights.iter().zip(row) {
            z += w * x;
        }
        z
    }

    /// Runs the configured number of training iterations over the dataset, cycling through
    /// mini-batches. Returns the per-iteration losses.
    pub fn train(&mut self, data: &Dataset) -> Vec<f64> {
        let dim = self.weights.len();
        let batches: Vec<(Vec<&[f64]>, Vec<f64>)> = data.batches(self.config.batch_size).collect();
        for iter in 0..self.config.iterations {
            let (rows, labels) = &batches[iter % batches.len()];
            // Nesterov look-ahead point.
            let lookahead: Vec<f64> = if self.config.nesterov {
                self.weights
                    .iter()
                    .zip(&self.momentum)
                    .map(|(w, m)| w + 0.9 * m)
                    .collect()
            } else {
                self.weights.clone()
            };
            let mut gradient = vec![0.0; dim];
            let mut loss = 0.0;
            for (row, &label) in rows.iter().zip(labels) {
                let z = self.margin(row, &lookahead);
                let prediction = self.sigmoid(z);
                let error = prediction - label;
                for (g, x) in gradient.iter_mut().zip(row.iter()) {
                    *g += error * x;
                }
                gradient[dim - 1] += error;
                // Cross-entropy surrogate loss with clamping for numerical safety.
                let p = prediction.clamp(1e-6, 1.0 - 1e-6);
                loss -= label * p.ln() + (1.0 - label) * (1.0 - p).ln();
            }
            let scale = self.config.learning_rate / rows.len() as f64;
            for (i, &g) in gradient.iter().enumerate() {
                let step = -scale * g;
                self.momentum[i] = 0.9 * self.momentum[i] + step;
                self.weights[i] += if self.config.nesterov {
                    self.momentum[i]
                } else {
                    step
                };
            }
            self.losses.push(loss / rows.len() as f64);
            let _ = iter;
        }
        self.losses.clone()
    }

    /// Classification accuracy on a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let mut correct = 0usize;
        for i in 0..data.len() {
            let (row, label) = data.sample(i);
            let z = self.margin(row, &self.weights);
            let predicted = if self.sigmoid(z) >= 0.5 { 1.0 } else { 0.0 };
            if (predicted - label).abs() < 0.5 {
                correct += 1;
            }
        }
        correct as f64 / data.len() as f64
    }

    /// Number of multiplicative levels one encrypted iteration of this algorithm consumes:
    /// the inner product (1), the degree-3 sigmoid (2) and the scaled gradient update (1),
    /// plus the weight refresh — the "evaluation depth of 150 for 30 iterations" (5 per
    /// iteration) cited in Section 5.5.
    pub fn levels_per_iteration(&self) -> usize {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_mnist_like;

    #[test]
    fn polynomial_sigmoid_tracks_exact_sigmoid() {
        for i in -40..=40 {
            let x = i as f64 * 0.2;
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!(
                (polynomial_sigmoid(x) - exact).abs() < 0.12,
                "x = {x}: {} vs {exact}",
                polynomial_sigmoid(x)
            );
        }
        assert!((polynomial_sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn training_reduces_loss_and_learns_the_task() {
        let data = synthetic_mnist_like(4_000, 64, 5);
        let (train, test) = data.split(0.8);
        let mut trainer = LogisticRegressionTrainer::new(
            train.feature_count(),
            TrainingConfig {
                iterations: 30,
                batch_size: 512,
                learning_rate: 1.0,
                nesterov: true,
                polynomial_sigmoid: true,
            },
        );
        let losses = trainer.train(&train);
        assert_eq!(losses.len(), 30);
        let early: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = losses[25..].iter().sum::<f64>() / 5.0;
        assert!(late < early, "loss must decrease: {early} -> {late}");
        let accuracy = trainer.accuracy(&test);
        assert!(accuracy > 0.8, "test accuracy {accuracy}");
    }

    #[test]
    fn helr_benchmark_configuration_runs() {
        // Full benchmark shape (11,982 × 196, batch 1,024, 30 iterations), as in Section 5.5.
        let data = synthetic_mnist_like(11_982, 196, 1);
        let mut trainer =
            LogisticRegressionTrainer::new(data.feature_count(), TrainingConfig::default());
        trainer.train(&data);
        assert_eq!(trainer.losses().len(), 30);
        assert!(trainer.accuracy(&data) > 0.75);
        assert_eq!(trainer.levels_per_iteration(), 5);
    }

    #[test]
    fn nesterov_converges_at_least_as_fast_as_plain_gd() {
        let data = synthetic_mnist_like(2_000, 32, 9);
        let mut nesterov = LogisticRegressionTrainer::new(
            32,
            TrainingConfig {
                nesterov: true,
                iterations: 20,
                batch_size: 256,
                ..TrainingConfig::default()
            },
        );
        let mut plain = LogisticRegressionTrainer::new(
            32,
            TrainingConfig {
                nesterov: false,
                iterations: 20,
                batch_size: 256,
                ..TrainingConfig::default()
            },
        );
        let ln = nesterov.train(&data);
        let lp = plain.train(&data);
        assert!(ln.last().unwrap() <= &(lp.last().unwrap() + 0.05));
    }

    #[test]
    fn exact_sigmoid_option_also_trains() {
        let data = synthetic_mnist_like(1_000, 16, 13);
        let mut trainer = LogisticRegressionTrainer::new(
            16,
            TrainingConfig {
                polynomial_sigmoid: false,
                iterations: 15,
                batch_size: 200,
                ..TrainingConfig::default()
            },
        );
        trainer.train(&data);
        assert!(trainer.accuracy(&data) > 0.75);
    }
}
