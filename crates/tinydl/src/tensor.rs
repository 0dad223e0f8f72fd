//! A small dense `f32` tensor.
//!
//! Signals are stored as `[channels, length]` and dense activations as
//! `[features]`. That is all the TimePPG architectures require, so the type
//! deliberately supports only rank 1 and rank 2.

use serde::{Deserialize, Serialize};

use crate::TinyDlError;

/// Dense row-major `f32` tensor of rank 1 or 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TinyDlError::ShapeMismatch`] when the product of the shape
    /// does not equal `data.len()`, and [`TinyDlError::InvalidShape`] for
    /// ranks other than 1 or 2.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TinyDlError> {
        if shape.is_empty() || shape.len() > 2 {
            return Err(TinyDlError::InvalidShape {
                op: "Tensor::from_vec",
                expected: "rank 1 or 2".to_string(),
                actual: shape.to_vec(),
            });
        }
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TinyDlError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a zero-filled tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TinyDlError::InvalidShape`] for ranks other than 1 or 2.
    pub fn zeros(shape: &[usize]) -> Result<Self, TinyDlError> {
        let n: usize = shape.iter().product();
        Self::from_vec(vec![0.0; n], shape)
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            data: data.to_vec(),
            shape: vec![data.len()],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the data (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `[row, col]` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of range.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "Tensor::at requires a rank-2 tensor");
        self.data[row * self.shape[1] + col]
    }

    /// Sets the element at `[row, col]` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert_eq!(self.shape.len(), 2, "Tensor::set requires a rank-2 tensor");
        let cols = self.shape[1];
        self.data[row * cols + col] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TinyDlError::ShapeMismatch`] when the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TinyDlError> {
        Self::from_vec(self.data.clone(), shape)
    }

    /// Number of rows (first dimension) — channels for a `[C, L]` signal.
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns (second dimension), or 1 for a rank-1 tensor.
    pub fn cols(&self) -> usize {
        *self.shape.get(1).unwrap_or(&1)
    }

    /// Element-wise maximum of the tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Largest absolute value of the tensor (0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TinyDlError::ShapeMismatch {
                expected: 6,
                actual: 5
            })
        ));
        assert!(Tensor::from_vec(vec![1.0; 6], &[1, 2, 3]).is_err());
        assert!(Tensor::from_vec(vec![], &[]).is_err());
    }

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(&[3, 4]).unwrap();
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
    }

    #[test]
    fn indexing_rank2() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(1, 2), 6.0);
        t.set(1, 0, 9.0);
        assert_eq!(t.at(1, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn at_requires_rank2() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        let _ = t.at(0, 1);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn from_slice_is_rank1() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(t.shape(), &[3]);
        assert_eq!(t.cols(), 1);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]).unwrap();
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.abs_max(), 3.0);
        assert!((t.mean() - 0.0).abs() < 1e-6);
        assert_eq!(Tensor::default().mean(), 0.0);
    }

    #[test]
    fn as_mut_slice_writes_through() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        t.as_mut_slice()[0] = 7.0;
        assert_eq!(t.as_slice(), &[7.0, 2.0]);
    }
}
