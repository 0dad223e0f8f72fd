//! Sequential network container with SGD training.

use rand::Rng;

use crate::layers::Layer;
use crate::loss::Loss;
use crate::tensor::Tensor;
use crate::TinyDlError;

/// A feed-forward stack of layers executed in order.
///
/// # Examples
///
/// ```
/// use tinydl::layers::{Dense, Relu};
/// use tinydl::network::Sequential;
/// use tinydl::tensor::Tensor;
///
/// # fn main() -> Result<(), tinydl::TinyDlError> {
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 8)?);
/// net.push(Relu::new());
/// net.push(Dense::new(8, 1)?);
/// let y = net.forward(&Tensor::from_slice(&[0.1, 0.2, 0.3, 0.4]))?;
/// assert_eq!(y.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer to the end of the network.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Read-only access to the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Runs a forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Returns [`TinyDlError::EmptyNetwork`] for an empty network and
    /// propagates shape errors from individual layers.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, TinyDlError> {
        if self.layers.is_empty() {
            return Err(TinyDlError::EmptyNetwork);
        }
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Propagates a gradient from the output back to the input.
    ///
    /// # Errors
    ///
    /// Returns [`TinyDlError::EmptyNetwork`] for an empty network and
    /// propagates shape errors from individual layers.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TinyDlError> {
        if self.layers.is_empty() {
            return Err(TinyDlError::EmptyNetwork);
        }
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Applies one SGD step to every layer and clears gradients.
    pub fn apply_gradients(&mut self, learning_rate: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(learning_rate);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_gradients(&mut self) {
        for layer in &mut self.layers {
            layer.zero_gradients();
        }
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Total multiply-accumulate operations of one forward pass on an input of
    /// the given shape.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from individual layers.
    pub fn macs(&self, input_shape: &[usize]) -> Result<u64, TinyDlError> {
        let mut shape = input_shape.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.macs(&shape)?;
            shape = layer.output_shape(&shape)?;
        }
        Ok(total)
    }

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from individual layers.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, TinyDlError> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape)?;
        }
        Ok(shape)
    }

    /// One training step on a single sample: forward, loss, backward, SGD.
    ///
    /// Returns the loss value before the update.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers and the loss.
    pub fn train_step(
        &mut self,
        input: &Tensor,
        target: &Tensor,
        loss: Loss,
        learning_rate: f32,
    ) -> Result<f32, TinyDlError> {
        let prediction = self.forward(input)?;
        let (value, grad) = loss.evaluate(&prediction, target)?;
        self.backward(&grad)?;
        self.apply_gradients(learning_rate);
        Ok(value)
    }

    /// Trains for `epochs` passes over `(input, target)` pairs, shuffling the
    /// order each epoch with `rng`. Returns the mean loss of the final epoch.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; returns [`TinyDlError::EmptyNetwork`] when the
    /// network has no layers.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        samples: &[(Tensor, Tensor)],
        loss: Loss,
        learning_rate: f32,
        epochs: usize,
        rng: &mut R,
    ) -> Result<f32, TinyDlError> {
        if self.layers.is_empty() {
            return Err(TinyDlError::EmptyNetwork);
        }
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut last_epoch_loss = 0.0f32;
        for _ in 0..epochs {
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            for &idx in &order {
                let (input, target) = &samples[idx];
                epoch_loss += self.train_step(input, target, loss, learning_rate)?;
            }
            last_epoch_loss = if samples.is_empty() {
                0.0
            } else {
                epoch_loss / samples.len() as f32
            };
        }
        Ok(last_epoch_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv1d, Dense, Flatten, GlobalAvgPool, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_tcn() -> Sequential {
        let mut net = Sequential::new();
        net.push(Conv1d::new(1, 4, 3, 1, 1, true).unwrap());
        net.push(Relu::new());
        net.push(Conv1d::new(4, 4, 3, 2, 2, true).unwrap());
        net.push(Relu::new());
        net.push(GlobalAvgPool::new());
        net.push(Dense::new(4, 1).unwrap());
        net
    }

    #[test]
    fn empty_network_is_rejected() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        assert!(matches!(
            net.forward(&Tensor::from_slice(&[1.0])),
            Err(TinyDlError::EmptyNetwork)
        ));
        assert!(matches!(
            net.backward(&Tensor::from_slice(&[1.0])),
            Err(TinyDlError::EmptyNetwork)
        ));
    }

    #[test]
    fn forward_produces_scalar_output() {
        let mut net = toy_tcn();
        assert_eq!(net.len(), 6);
        let input = Tensor::from_vec(vec![0.5; 64], &[1, 64]).unwrap();
        let out = net.forward(&input).unwrap();
        assert_eq!(out.shape(), &[1]);
        assert!(out.as_slice()[0].is_finite());
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut net = toy_tcn();
        let input = Tensor::from_vec(vec![0.5; 64], &[1, 64]).unwrap();
        let out = net.forward(&input).unwrap();
        assert_eq!(net.output_shape(&[1, 64]).unwrap(), out.shape().to_vec());
    }

    #[test]
    fn macs_and_parameters_are_positive_and_consistent() {
        let net = toy_tcn();
        let macs = net.macs(&[1, 64]).unwrap();
        // conv1: 64*4*1*3 = 768, conv2: 32*4*4*3 = 1536, dense: 4.
        assert_eq!(macs, 768 + 1536 + 4);
        assert_eq!(
            net.parameter_count(),
            (4 * 3 + 4) + (4 * 4 * 3 + 4) + (4 + 1)
        );
    }

    #[test]
    fn flatten_variant_has_more_dense_parameters() {
        let mut net = Sequential::new();
        net.push(Conv1d::new(1, 2, 3, 1, 1, true).unwrap());
        net.push(Flatten::new());
        net.push(Dense::new(2 * 16, 1).unwrap());
        let out = net
            .forward(&Tensor::from_vec(vec![0.1; 16], &[1, 16]).unwrap())
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn training_reduces_loss_on_regression_task() {
        // Learn to predict the mean of the input window scaled by 2.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new();
        let mut c = Conv1d::new(1, 4, 3, 1, 1, true).unwrap();
        c.randomize(&mut rng);
        net.push(c);
        net.push(Relu::new());
        net.push(GlobalAvgPool::new());
        let mut d = Dense::new(4, 1).unwrap();
        d.randomize(&mut rng);
        net.push(d);

        let samples: Vec<(Tensor, Tensor)> = (0..32)
            .map(|i| {
                let level = (i as f32) / 16.0 - 1.0;
                let input = Tensor::from_vec(vec![level; 32], &[1, 32]).unwrap();
                let target = Tensor::from_slice(&[2.0 * level]);
                (input, target)
            })
            .collect();

        let initial: f32 = samples
            .iter()
            .map(|(x, t)| {
                let y = net.forward(x).unwrap();
                (y.as_slice()[0] - t.as_slice()[0]).powi(2)
            })
            .sum::<f32>()
            / samples.len() as f32;

        let final_loss = net
            .fit(&samples, Loss::MeanSquaredError, 0.05, 60, &mut rng)
            .unwrap();
        assert!(
            final_loss < initial * 0.2,
            "training should reduce loss substantially: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn zero_gradients_does_not_crash_and_layers_accessible() {
        let mut net = toy_tcn();
        net.zero_gradients();
        assert_eq!(net.layers().len(), 6);
    }

    #[test]
    fn fit_on_empty_network_fails() {
        let mut net = Sequential::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(net
            .fit(&[], Loss::MeanSquaredError, 0.1, 1, &mut rng)
            .is_err());
    }
}
