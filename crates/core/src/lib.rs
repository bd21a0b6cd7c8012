//! Silicon-photonic neural network simulation under uncertainties — the
//! system level (§III-D) of the DATE 2021 paper.
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
//! 4. Evaluate accuracy under that plan: [`batched::TestBatch`] pushes the
//!    whole test set through one realized network per Monte-Carlo
//!    iteration, seeded per iteration by [`monte_carlo::iteration_rng`].
//!    [`monte_carlo::mc_accuracy`] is the single-threaded per-sample
//!    reference the batched engine is checked against bit for bit.
//! 5. Analyse the hardware: the [`criticality`] framework (Fig. 3 and the
//!    paper's "identify critical components" deliverable) and [`census`]
//!    (the 1374-phase-shifter architecture arithmetic).
//!
//! The paper's experiments (EXP 1 / Fig. 4, EXP 2 / Fig. 5) are scenario
//! specs run by `spnn-engine`, not loops in this crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
pub mod calibration;
pub mod census;
pub mod criticality;
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
