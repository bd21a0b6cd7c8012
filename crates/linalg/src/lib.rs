//! From-scratch complex linear algebra for silicon-photonic neural-network
//! simulation.
//!
//! This crate provides every numerical primitive used by the SPNN
//! reproduction of *"Modeling Silicon-Photonic Neural Networks under
//! Uncertainties"* (DATE 2021):
//!
//! - [`C64`]: a double-precision complex scalar with the full arithmetic and
//!   transcendental surface needed for photonic transfer matrices.
//! - [`CMatrix`]: a dense, row-major complex matrix with multiplication,
//!   adjoints, norms and slicing.
//! - [`qr`]: Householder QR factorization of complex matrices.
//! - [`svd`]: complex singular value decomposition via one-sided Jacobi
//!   rotations — used to split every neural weight matrix into
//!   `U · Σ · Vᴴ` before mapping onto MZI meshes.
//! - [`fft`]: radix-2 and planned Bluestein FFTs, 2-D transforms and `fftshift` —
//!   used by the MNIST-style feature pipeline (shifted 2-D FFT).
//! - [`random`]: Haar-distributed random unitaries and Gaussian sampling
//!   (Box–Muller) on top of [`rand`] uniforms.
//!
//! # Example
//!
//! ```
//! use spnn_linalg::{C64, CMatrix};
//! use spnn_linalg::random::haar_unitary;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let u = haar_unitary(4, &mut rng);
//! let id = u.mul(&u.adjoint());
//! assert!(id.is_identity(1e-10));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod c64;
pub mod fft;
pub mod matrix;
pub mod qr;
pub mod random;
pub mod svd;
pub mod vector;

pub use c64::C64;
pub use matrix::CMatrix;
pub use svd::Svd;

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes. Holds `(rows_a, cols_a, rows_b, cols_b)`.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: (usize, usize),
        /// Shape of the right-hand operand.
        right: (usize, usize),
    },
    /// An operation that requires a square matrix received a rectangular one.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// An iterative algorithm failed to converge within its sweep budget.
    NotConverged {
        /// Name of the algorithm that failed (e.g. `"jacobi-svd"`).
        algorithm: &'static str,
        /// Number of sweeps/iterations performed before giving up.
        iterations: usize,
    },
    /// A matrix dimension was zero where a non-empty matrix is required.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NotConverged {
                algorithm,
                iterations,
            } => write!(f, "{algorithm} did not converge after {iterations} sweeps"),
            LinalgError::Empty => write!(f, "matrix must be non-empty"),
        }
    }
}

impl Error for LinalgError {}

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
