//! `spnn` — a full-system reproduction of *"Modeling Silicon-Photonic
//! Neural Networks under Uncertainties"* (Banerjee, Nikdast, Chakrabarty;
//! DATE 2021, arXiv:2012.10594).
//!
//! This façade crate re-exports the workspace so downstream users can
//! depend on one crate:
//!
//! - [`linalg`] — complex scalars/matrices, QR, SVD, FFT, random unitaries.
//! - [`photonics`] — phase shifters, beam splitters, MZIs, uncertainty and
//!   thermal-crosstalk models (paper Eqs. 1–5).
//! - [`mesh`] — Clements/Reck mesh synthesis, Σ lines, RVD, EXP 2 zones.
//! - [`neural`] — complex-valued networks with Wirtinger backprop.
//! - [`dataset`] — synthetic MNIST substitute + shifted-FFT features.
//! - [`core`] — the photonic network simulator: SVD → mesh mapping,
//!   perturbation plans, the batched forward path, the per-sample
//!   Monte-Carlo reference and the criticality analysis.
//! - [`engine`] — the batched, adaptive Monte-Carlo simulation engine with
//!   the declarative scenario-spec API and the `spnn` CLI; the paper's
//!   experiments (EXP 1 / Fig. 4, EXP 2 / Fig. 5) are its presets.
//!
//! # Quickstart
//!
//! ```
//! use spnn::prelude::*;
//!
//! // The paper's Fig. 4 scenario — synthetic MNIST-style digits, a trained
//! // 16-16-16-10 complex network mapped onto Clements meshes — scaled
//! // down for the doctest and narrowed to σ_PhS = σ_BeS ∈ {0, 0.05}.
//! let mut spec = spnn::engine::presets::fig4(&RunScale::tiny());
//! spec.sweep.modes = vec![PerturbTarget::Both];
//! spec.sweep.sigmas = vec![0.0, 0.05];
//!
//! // Dataset → training → photonic mapping → Monte-Carlo accuracy.
//! let report = run_scenario(&spec, &EngineConfig::default())?;
//! let nominal = report.topologies[0].nominal_accuracy;
//! assert_eq!(report.rows[0].mean, nominal); // σ = 0 is the ideal hardware
//! assert!(report.rows[1].mean <= 1.0);
//! # Ok::<(), spnn::engine::runner::EngineError>(())
//! ```

#![warn(missing_docs)]

pub use spnn_core as core;
pub use spnn_dataset as dataset;
pub use spnn_engine as engine;
pub use spnn_linalg as linalg;
pub use spnn_mesh as mesh;
pub use spnn_neural as neural;
pub use spnn_photonics as photonics;

/// Commonly used items, importable with `use spnn::prelude::*`.
pub mod prelude {
    pub use spnn_core::{
        ComponentCensus, HardwareEffects, MeshTopology, PerturbationPlan, PhotonicNetwork, SiteRef,
        Stage,
    };
    pub use spnn_dataset::{fft_features, DatasetConfig, GrayImage, ImageGenerator, SpnnDataset};
    pub use spnn_engine::{
        run_scenario, EngineConfig, EngineReport, RunScale, ScenarioSpec, TestBatch,
    };
    pub use spnn_linalg::{CMatrix, C64};
    pub use spnn_mesh::{clements, reck, DiagonalLine, UnitaryMesh, ZoneGrid};
    pub use spnn_neural::{train, ComplexNetwork, TrainConfig};
    pub use spnn_photonics::{BeamSplitter, Mzi, PerturbTarget, PhaseShifter, UncertaintySpec};
}
