//! Logical tensor shapes.
//!
//! A [`Shape`] records the dimensionality of a tensor as published by a
//! model (for instance `[224, 224, 3]` for an image input). Sommelier's
//! input/output layer check (paper Section 4.1) compares these shapes to
//! filter out incomparable models before any expensive analysis runs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The logical shape of a tensor: an ordered list of dimension extents.
///
/// A scalar has rank 0 and one element. Zero-sized dimensions are allowed
/// (the tensor is then empty), matching conventional dataflow semantics.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// A scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// A rank-1 shape with `n` elements.
    pub fn vector(n: usize) -> Self {
        Shape(vec![n])
    }

    /// A rank-2 shape.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Total number of elements (product of all extents; 1 for a scalar).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// The flattened 1-D length used when this logical shape is executed as
    /// a feature vector, e.g. `[224, 224, 3]` flattens to `150528`.
    pub fn flattened(&self) -> usize {
        self.num_elements()
    }

    /// Whether two shapes are identical dimension-for-dimension.
    ///
    /// This is the strict comparison Sommelier's I/O check invokes "in the
    /// absence of preprocessing" (Section 4.1).
    pub fn strictly_matches(&self, other: &Shape) -> bool {
        self == other
    }

    /// Iterate over dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_rank_zero_and_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
    }

    #[test]
    fn vector_and_matrix_constructors() {
        assert_eq!(Shape::vector(7).dims(), &[7]);
        assert_eq!(Shape::matrix(2, 3).dims(), &[2, 3]);
        assert_eq!(Shape::matrix(2, 3).num_elements(), 6);
    }

    #[test]
    fn flattened_is_product_of_dims() {
        let s = Shape::from(vec![224, 224, 3]);
        assert_eq!(s.flattened(), 150_528);
    }

    #[test]
    fn strict_match_requires_identical_dims() {
        let a = Shape::from(vec![2, 6]);
        let b = Shape::from(vec![3, 4]);
        assert!(!a.strictly_matches(&b));
        assert!(a.strictly_matches(&a.clone()));
    }

    #[test]
    fn zero_dim_means_empty() {
        let s = Shape::from(vec![4, 0, 2]);
        assert_eq!(s.num_elements(), 0);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::from(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
