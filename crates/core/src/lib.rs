//! Silicon-photonic neural network simulation under uncertainties — the
//! system level (§III-D) of the DATE 2021 paper and its experiment
//! framework.
//!
//! The pipeline this crate implements end to end:
//!
//! 1. Take a software-trained complex network (`spnn-neural`).
//! 2. Factor every weight matrix `M = U·Σ·Vᴴ` (`spnn-linalg::svd`) and map
//!    `U`, `Vᴴ` onto Clements MZI meshes and `Σ` onto a terminated-MZI line
//!    with global gain `β` (`spnn-mesh`) → [`network::PhotonicNetwork`].
//! 3. Describe *where* uncertainty strikes with a
//!    [`perturbation::PerturbationPlan`] (global / zonal / single-site) plus
//!    optional deterministic hardware effects (phase quantization, thermal
//!    crosstalk, per-MZI insertion loss).
//! 4. Estimate inference accuracy under that plan with the deterministic,
//!    multi-threaded [`monte_carlo`] engine.
//! 5. Reproduce the paper's experiments: [`exp1`] (global uncertainty sweep,
//!    Fig. 4), [`exp2`] (zonal perturbations, Fig. 5), and the
//!    [`criticality`] analysis framework (Fig. 3 and the paper's "identify
//!    critical components" deliverable). [`census`] reproduces the
//!    1374-phase-shifter architecture arithmetic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
pub mod calibration;
pub mod census;
pub mod criticality;
pub mod exp1;
pub mod exp2;
pub mod kernel;
pub mod monte_carlo;
pub mod network;
pub mod perturbation;

pub use batched::{BatchScratch, TestBatch};
pub use census::ComponentCensus;
pub use kernel::{detected_tier, KernelProfile, KernelTier};
pub use monte_carlo::{iteration_rng, iteration_seed, mc_accuracy, McResult};
pub use network::{MeshTopology, PhotonicNetwork, RealizationPlan, RealizeScratch};
pub use perturbation::{HardwareEffects, PerturbationPlan, SiteRef, Stage};
