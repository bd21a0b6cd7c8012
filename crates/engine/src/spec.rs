//! Declarative scenario specifications and their text format.
//!
//! A [`ScenarioSpec`] describes a whole simulation campaign — the dataset
//! and trained architecture, the mesh topologies, the perturbation-plan
//! sweep, the deterministic hardware-effects grid, and the Monte-Carlo
//! budget/stopping rule. It serializes to a small INI-style text format
//! (`*.scn`), so every experiment is a reviewable artifact instead of a
//! hard-coded loop:
//!
//! ```text
//! # Fig. 4 / EXP 1: global uncertainty sweep
//! name = fig4
//! plan = global
//! topology = clements
//! seed = 7
//! iterations = 1000
//! min_iterations = 100
//! target_moe = 0.0
//! round_size = 32
//!
//! [dataset]
//! n_train = 3000
//! n_test = 1000
//! crop = 4
//!
//! [train]
//! layers = 16, 16, 16, 10
//! epochs = 40
//! batch_size = 32
//! learning_rate = 0.01
//! shuffle_singular_values = true
//!
//! [sweep]
//! mode = phs_only, bes_only, both
//! sigma = 0.0, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15
//!
//! [effects]
//! quantization_bits = none
//! thermal_kappa = 0.0
//! thermal_decay_um = 60.0
//! mzi_loss_db = 0.0
//! ```
//!
//! Comma-separated values are sweep axes; the compiled work queue is the
//! cartesian product of every axis (see [`crate::queue::compile`]).

use spnn_core::{MeshTopology, Stage};
use spnn_dataset::{DatasetConfig, Samples, SpnnDataset};
use spnn_photonics::PerturbTarget;
use std::fmt;

/// The σ grid of Fig. 4 (normalized units, see
/// [`spnn_photonics::UncertaintySpec`]): 0 to 0.15.
pub const PAPER_SIGMAS: [f64; 9] = [0.0, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15];

/// Which perturbation-plan family the scenario sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// One global `UncertaintySpec` on every MZI including Σ lines (EXP 1).
    Global,
    /// Global uncertainty on the unitary meshes only, Σ error-free.
    GlobalNoSigma,
    /// EXP 2 zonal plans: a hot 2×2 zone at `hot_sigma`, everything else at
    /// `base_sigma`, Σ error-free. Sweeps every zone of the selected
    /// meshes; the `[sweep]` axes are ignored.
    Zonal,
}

impl PlanKind {
    fn as_str(&self) -> &'static str {
        match self {
            PlanKind::Global => "global",
            PlanKind::GlobalNoSigma => "global-no-sigma",
            PlanKind::Zonal => "zonal",
        }
    }
}

/// Dataset parameters (see `spnn_dataset::DatasetConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetParams {
    /// Training samples.
    pub n_train: usize,
    /// Test samples per accuracy evaluation.
    pub n_test: usize,
    /// Side of the central spectrum crop (features = `crop²`).
    pub crop: usize,
}

/// Software-training parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainParams {
    /// Layer widths, e.g. `[16, 16, 16, 10]` (first must equal `crop²`,
    /// last must equal the 10 dataset classes).
    pub layers: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Arrange singular values in seeded-random order (paper EXP 2).
    pub shuffle_singular_values: bool,
}

/// The `[sweep]` axes for global plans.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Perturbation targeting modes.
    pub modes: Vec<PerturbTarget>,
    /// Normalized σ values.
    pub sigmas: Vec<f64>,
}

/// The `[effects]` grid of deterministic hardware effects.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectsGrid {
    /// Phase-DAC resolutions; `None` = continuous phases.
    pub quantization_bits: Vec<Option<u32>>,
    /// Thermal-crosstalk coupling strengths (`0` disables the model).
    pub thermal_kappa: Vec<f64>,
    /// Crosstalk decay length in µm (scalar — not an axis).
    pub thermal_decay_um: f64,
    /// Excess insertion loss per MZI in dB.
    pub mzi_loss_db: Vec<f64>,
}

/// Which layers a zonal sweep covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSelect {
    /// Every linear layer of the network.
    All,
    /// An explicit list of layer indices.
    List(Vec<usize>),
}

/// The `[zonal]` parameters (EXP 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ZonalParams {
    /// σ outside the hot zone.
    pub base_sigma: f64,
    /// σ inside the hot zone.
    pub hot_sigma: f64,
    /// Which unitary multipliers to sweep (`UMesh` and/or `VMesh`).
    pub stages: Vec<Stage>,
    /// Which layers to sweep.
    pub layers: LayerSelect,
}

/// A complete, declarative simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and output file naming).
    pub name: String,
    /// Perturbation-plan family.
    pub plan: PlanKind,
    /// Mesh topologies to sweep.
    pub topologies: Vec<MeshTopology>,
    /// Master seed — the whole campaign is a pure function of the spec.
    pub seed: u64,
    /// Monte-Carlo iteration cap per sweep point (paper: 1000).
    pub iterations: usize,
    /// Iterations before adaptive early termination may trigger.
    pub min_iterations: usize,
    /// 95 % margin-of-error target; `0` disables early termination.
    pub target_moe: f64,
    /// Iterations per stopping-decision round. Stopping is only evaluated
    /// at round boundaries, which keeps results independent of the
    /// worker-thread count.
    pub round_size: usize,
    /// Dataset parameters.
    pub dataset: DatasetParams,
    /// Software-training parameters.
    pub train: TrainParams,
    /// Global-plan sweep axes.
    pub sweep: SweepParams,
    /// Deterministic hardware-effects grid.
    pub effects: EffectsGrid,
    /// Zonal parameters (used only when `plan = zonal`).
    pub zonal: ZonalParams,
}

impl Default for ScenarioSpec {
    /// The paper's EXP 1 configuration at full scale.
    fn default() -> Self {
        Self {
            name: "scenario".to_string(),
            plan: PlanKind::Global,
            topologies: vec![MeshTopology::Clements],
            seed: 7,
            iterations: 1000,
            min_iterations: 100,
            target_moe: 0.0,
            round_size: 32,
            dataset: DatasetParams {
                n_train: 3000,
                n_test: 1000,
                crop: 4,
            },
            train: TrainParams {
                layers: vec![16, 16, 16, 10],
                epochs: 40,
                batch_size: 32,
                learning_rate: 0.01,
                shuffle_singular_values: true,
            },
            sweep: SweepParams {
                modes: vec![
                    PerturbTarget::PhaseShiftersOnly,
                    PerturbTarget::BeamSplittersOnly,
                    PerturbTarget::Both,
                ],
                sigmas: PAPER_SIGMAS.to_vec(),
            },
            effects: EffectsGrid {
                quantization_bits: vec![None],
                thermal_kappa: vec![0.0],
                thermal_decay_um: 60.0,
                mzi_loss_db: vec![0.0],
            },
            zonal: ZonalParams {
                base_sigma: 0.05,
                hot_sigma: 0.1,
                stages: vec![Stage::UMesh, Stage::VMesh],
                layers: LayerSelect::All,
            },
        }
    }
}

/// Experiment-scale knobs read from the `SPNN_*` environment variables
/// (`spnn run --preset` and the figure examples honour them), plus
/// `SPNN_TARGET_MOE` for the engine's adaptive stopping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunScale {
    /// Monte-Carlo iteration cap per sweep point.
    pub mc: usize,
    /// Training samples.
    pub n_train: usize,
    /// Test samples.
    pub n_test: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// 95 % margin-of-error target (`0` = fixed iteration count).
    pub target_moe: f64,
}

impl RunScale {
    /// Reads `SPNN_MC`, `SPNN_NTRAIN`, `SPNN_NTEST`, `SPNN_EPOCHS`,
    /// `SPNN_SEED` and `SPNN_TARGET_MOE` with the seed harness defaults.
    /// The paper-scale run is `SPNN_MC=1000 SPNN_NTEST=10000`.
    pub fn from_env() -> Self {
        fn read<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        Self {
            mc: read("SPNN_MC", 60),
            n_train: read("SPNN_NTRAIN", 3000),
            n_test: read("SPNN_NTEST", 1000),
            epochs: read("SPNN_EPOCHS", 40),
            seed: read("SPNN_SEED", 7),
            target_moe: read("SPNN_TARGET_MOE", 0.0),
        }
    }

    /// A miniature scale for tests and doctests: paper architecture,
    /// tiny dataset and iteration budget.
    pub fn tiny() -> Self {
        Self {
            mc: 4,
            n_train: 60,
            n_test: 30,
            epochs: 2,
            seed: 7,
            target_moe: 0.0,
        }
    }
}

/// A parse failure with its (1-based) line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error was detected on (0 for end-of-input checks).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Canonical topology label shared by the spec format, queue labels
/// and reports.
pub(crate) fn topology_name(t: MeshTopology) -> &'static str {
    match t {
        MeshTopology::Clements => "clements",
        MeshTopology::Reck => "reck",
    }
}

/// Canonical perturbation-mode label shared by the spec format, queue
/// labels and reports.
pub(crate) fn mode_name(m: PerturbTarget) -> &'static str {
    match m {
        PerturbTarget::PhaseShiftersOnly => "phs_only",
        PerturbTarget::BeamSplittersOnly => "bes_only",
        PerturbTarget::Both => "both",
    }
}

fn stage_name(s: Stage) -> &'static str {
    match s {
        Stage::UMesh => "u",
        Stage::VMesh => "v",
        Stage::Sigma => "sigma",
    }
}

fn join<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(", ")
}

impl ScenarioSpec {
    /// Serializes to the canonical `*.scn` text form; parsing the result
    /// with [`ScenarioSpec::parse`] round-trips exactly.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("name = {}\n", self.name));
        s.push_str(&format!("plan = {}\n", self.plan.as_str()));
        s.push_str(&format!(
            "topology = {}\n",
            join(&self.topologies, |t| topology_name(*t).to_string())
        ));
        s.push_str(&format!("seed = {}\n", self.seed));
        s.push_str(&format!("iterations = {}\n", self.iterations));
        s.push_str(&format!("min_iterations = {}\n", self.min_iterations));
        s.push_str(&format!("target_moe = {}\n", self.target_moe));
        s.push_str(&format!("round_size = {}\n", self.round_size));

        s.push_str("\n[dataset]\n");
        s.push_str(&format!("n_train = {}\n", self.dataset.n_train));
        s.push_str(&format!("n_test = {}\n", self.dataset.n_test));
        s.push_str(&format!("crop = {}\n", self.dataset.crop));

        s.push_str("\n[train]\n");
        s.push_str(&format!(
            "layers = {}\n",
            join(&self.train.layers, |l| l.to_string())
        ));
        s.push_str(&format!("epochs = {}\n", self.train.epochs));
        s.push_str(&format!("batch_size = {}\n", self.train.batch_size));
        s.push_str(&format!("learning_rate = {}\n", self.train.learning_rate));
        s.push_str(&format!(
            "shuffle_singular_values = {}\n",
            self.train.shuffle_singular_values
        ));

        s.push_str("\n[sweep]\n");
        s.push_str(&format!(
            "mode = {}\n",
            join(&self.sweep.modes, |m| mode_name(*m).to_string())
        ));
        s.push_str(&format!(
            "sigma = {}\n",
            join(&self.sweep.sigmas, |x| x.to_string())
        ));

        s.push_str("\n[effects]\n");
        s.push_str(&format!(
            "quantization_bits = {}\n",
            join(&self.effects.quantization_bits, |b| match b {
                None => "none".to_string(),
                Some(bits) => bits.to_string(),
            })
        ));
        s.push_str(&format!(
            "thermal_kappa = {}\n",
            join(&self.effects.thermal_kappa, |x| x.to_string())
        ));
        s.push_str(&format!(
            "thermal_decay_um = {}\n",
            self.effects.thermal_decay_um
        ));
        s.push_str(&format!(
            "mzi_loss_db = {}\n",
            join(&self.effects.mzi_loss_db, |x| x.to_string())
        ));

        if self.plan == PlanKind::Zonal {
            s.push_str("\n[zonal]\n");
            s.push_str(&format!("base_sigma = {}\n", self.zonal.base_sigma));
            s.push_str(&format!("hot_sigma = {}\n", self.zonal.hot_sigma));
            s.push_str(&format!(
                "stage = {}\n",
                join(&self.zonal.stages, |st| stage_name(*st).to_string())
            ));
            s.push_str(&format!(
                "layer = {}\n",
                match &self.zonal.layers {
                    LayerSelect::All => "all".to_string(),
                    LayerSelect::List(v) => join(v, |l| l.to_string()),
                }
            ));
        }
        s
    }

    /// Parses the `*.scn` text format (see `docs/scenario-format.md` for
    /// the complete reference).
    ///
    /// Unknown keys and malformed values are errors (they are almost always
    /// typos that would otherwise silently fall back to defaults). Omitted
    /// keys keep their [`ScenarioSpec::default`] values — the paper's EXP 1
    /// configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use spnn_engine::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::parse(
    ///     "name = demo\n\
    ///      seed = 3\n\
    ///      [sweep]\n\
    ///      mode = both\n\
    ///      sigma = 0.0, 0.05\n",
    /// )?;
    /// assert_eq!(spec.name, "demo");
    /// assert_eq!(spec.sweep.sigmas, vec![0.0, 0.05]);
    /// // Serialization round-trips exactly.
    /// assert_eq!(ScenarioSpec::parse(&spec.to_text())?, spec);
    /// # Ok::<(), spnn_engine::ParseError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] carrying the offending line number.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut spec = ScenarioSpec::default();
        let mut section = String::new();
        let mut saw_zonal_section = false;

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(err(lineno, "unterminated section header"));
                };
                section = name.trim().to_lowercase();
                if !matches!(
                    section.as_str(),
                    "dataset" | "train" | "sweep" | "effects" | "zonal"
                ) {
                    return Err(err(lineno, format!("unknown section [{section}]")));
                }
                if section == "zonal" {
                    saw_zonal_section = true;
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(lineno, format!("expected `key = value`, got {line:?}")));
            };
            let key = key.trim().to_lowercase();
            let value = value.trim();
            apply_key(&mut spec, &section, &key, value, lineno)?;
        }

        if spec.plan == PlanKind::Zonal && !saw_zonal_section {
            // The defaults are the paper's, so this is allowed — but a
            // zonal run with an accidental missing section is more likely
            // a mistake when sweep axes were customized instead.
            if spec.sweep.sigmas != ScenarioSpec::default().sweep.sigmas {
                return Err(err(
                    0,
                    "plan = zonal ignores [sweep]; found customized [sweep] but no [zonal] section",
                ));
            }
        }
        spec.validate().map_err(|m| err(0, m))?;
        Ok(spec)
    }

    /// The spec's test split, sample by sample: the samples a run scores
    /// software and hardware accuracy on.
    pub fn test_samples(&self) -> Samples {
        SpnnDataset::test_samples(&DatasetConfig {
            n_train: 0,
            n_test: self.dataset.n_test,
            crop: self.dataset.crop,
            seed: self.seed,
        })
    }

    /// The singular-value shuffle seed of the spec's photonic mappings
    /// (`None` when `train.shuffle_singular_values` is off): the key a
    /// run's mappings are memoized under in its trained context.
    pub fn shuffle_seed(&self) -> Option<u64> {
        self.train
            .shuffle_singular_values
            .then_some(self.seed ^ 0x33)
    }

    /// Checks internal consistency (axis non-emptiness, architecture/crop
    /// agreement, stopping-rule sanity).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name must be non-empty".into());
        }
        if self.name.contains('#') || self.name.contains('\n') {
            // '#' starts a comment in the text format, so such a name
            // would not survive the to_text()/parse() round trip.
            return Err("name must not contain '#' or newlines".into());
        }
        if self.target_moe > 0.0 && self.min_iterations < 2 {
            return Err(
                "adaptive stopping (target_moe > 0) needs min_iterations >= 2 \
                 (one sample has no variance estimate)"
                    .into(),
            );
        }
        if self.topologies.is_empty() {
            return Err("topology list must be non-empty".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if self.round_size == 0 {
            return Err("round_size must be positive".into());
        }
        if self.target_moe < 0.0 {
            return Err("target_moe must be non-negative".into());
        }
        if self.dataset.n_train == 0 || self.dataset.n_test == 0 {
            return Err("dataset sizes must be positive".into());
        }
        if self.train.layers.len() < 2 {
            return Err("layers must list at least input and output widths".into());
        }
        let d = self.dataset.crop * self.dataset.crop;
        if self.train.layers[0] != d {
            return Err(format!(
                "layers[0] = {} must equal crop² = {d}",
                self.train.layers[0]
            ));
        }
        if *self.train.layers.last().unwrap() != 10 {
            return Err("last layer width must be 10 (dataset classes)".into());
        }
        // NaN/inf pass naive `< 0.0` checks and would poison every sweep
        // point (and break JSON emission), so demand finite non-negative.
        let finite_nonneg = |x: f64| x.is_finite() && x >= 0.0;
        if !self.target_moe.is_finite() {
            return Err("target_moe must be finite".into());
        }
        if !finite_nonneg(self.train.learning_rate) || self.train.learning_rate == 0.0 {
            return Err("learning_rate must be finite and positive".into());
        }
        match self.plan {
            PlanKind::Global | PlanKind::GlobalNoSigma => {
                if self.sweep.modes.is_empty() || self.sweep.sigmas.is_empty() {
                    return Err("global plans need non-empty [sweep] mode and sigma axes".into());
                }
                if !self.sweep.sigmas.iter().all(|&s| finite_nonneg(s)) {
                    return Err("sigma values must be finite and non-negative".into());
                }
            }
            PlanKind::Zonal => {
                if self.zonal.stages.is_empty() {
                    return Err("zonal plans need at least one stage (u/v)".into());
                }
                if self.zonal.stages.contains(&Stage::Sigma) {
                    return Err("zonal plans target unitary meshes only (u/v)".into());
                }
                if !finite_nonneg(self.zonal.base_sigma) || !finite_nonneg(self.zonal.hot_sigma) {
                    return Err("zonal sigmas must be finite and non-negative".into());
                }
                // The layer count is fixed by the architecture, so explicit
                // layer lists can be bounds-checked statically — a typo'd
                // index should fail validation, not panic mid-run.
                if let LayerSelect::List(layers) = &self.zonal.layers {
                    if layers.is_empty() {
                        return Err("zonal layer list must be non-empty".into());
                    }
                    let n_layers = self.train.layers.len() - 1;
                    if let Some(&bad) = layers.iter().find(|&&l| l >= n_layers) {
                        return Err(format!(
                            "zonal layer {bad} out of range (architecture has {n_layers} linear layers)"
                        ));
                    }
                }
            }
        }
        if self.effects.quantization_bits.is_empty()
            || self.effects.thermal_kappa.is_empty()
            || self.effects.mzi_loss_db.is_empty()
        {
            return Err("effects axes must be non-empty".into());
        }
        if !self.effects.thermal_kappa.iter().all(|&k| finite_nonneg(k)) {
            return Err("thermal_kappa must be finite and non-negative".into());
        }
        if !self.effects.thermal_decay_um.is_finite() || self.effects.thermal_decay_um <= 0.0 {
            return Err("thermal_decay_um must be finite and positive".into());
        }
        if !self.effects.mzi_loss_db.iter().all(|&l| finite_nonneg(l)) {
            return Err("mzi_loss_db must be finite and non-negative".into());
        }
        Ok(())
    }
}

fn parse_scalar<T: std::str::FromStr>(
    value: &str,
    lineno: usize,
    what: &str,
) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| err(lineno, format!("invalid {what}: {value:?}")))
}

fn parse_list<T: std::str::FromStr>(
    value: &str,
    lineno: usize,
    what: &str,
) -> Result<Vec<T>, ParseError> {
    let items: Result<Vec<T>, _> = value.split(',').map(|v| v.trim().parse()).collect();
    let items = items.map_err(|_| err(lineno, format!("invalid {what} list: {value:?}")))?;
    if items.is_empty() {
        return Err(err(lineno, format!("{what} list must be non-empty")));
    }
    Ok(items)
}

fn apply_key(
    spec: &mut ScenarioSpec,
    section: &str,
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<(), ParseError> {
    match (section, key) {
        ("", "name") => spec.name = value.to_string(),
        ("", "plan") => {
            spec.plan = match value {
                "global" => PlanKind::Global,
                "global-no-sigma" | "global_no_sigma" => PlanKind::GlobalNoSigma,
                "zonal" => PlanKind::Zonal,
                other => return Err(err(lineno, format!("unknown plan {other:?}"))),
            }
        }
        ("", "topology") => {
            spec.topologies = value
                .split(',')
                .map(|t| match t.trim() {
                    "clements" => Ok(MeshTopology::Clements),
                    "reck" => Ok(MeshTopology::Reck),
                    other => Err(err(lineno, format!("unknown topology {other:?}"))),
                })
                .collect::<Result<_, _>>()?
        }
        ("", "seed") => spec.seed = parse_scalar(value, lineno, "seed")?,
        ("", "iterations") => spec.iterations = parse_scalar(value, lineno, "iterations")?,
        ("", "min_iterations") => {
            spec.min_iterations = parse_scalar(value, lineno, "min_iterations")?
        }
        ("", "target_moe") => spec.target_moe = parse_scalar(value, lineno, "target_moe")?,
        ("", "round_size") => spec.round_size = parse_scalar(value, lineno, "round_size")?,

        ("dataset", "n_train") => spec.dataset.n_train = parse_scalar(value, lineno, "n_train")?,
        ("dataset", "n_test") => spec.dataset.n_test = parse_scalar(value, lineno, "n_test")?,
        ("dataset", "crop") => spec.dataset.crop = parse_scalar(value, lineno, "crop")?,

        ("train", "layers") => spec.train.layers = parse_list(value, lineno, "layers")?,
        ("train", "epochs") => spec.train.epochs = parse_scalar(value, lineno, "epochs")?,
        ("train", "batch_size") => {
            spec.train.batch_size = parse_scalar(value, lineno, "batch_size")?
        }
        ("train", "learning_rate") => {
            spec.train.learning_rate = parse_scalar(value, lineno, "learning_rate")?
        }
        ("train", "shuffle_singular_values") => {
            spec.train.shuffle_singular_values =
                parse_scalar(value, lineno, "shuffle_singular_values")?
        }

        ("sweep", "mode") => {
            spec.sweep.modes = value
                .split(',')
                .map(|m| match m.trim() {
                    "phs_only" | "phs" => Ok(PerturbTarget::PhaseShiftersOnly),
                    "bes_only" | "bes" => Ok(PerturbTarget::BeamSplittersOnly),
                    "both" => Ok(PerturbTarget::Both),
                    other => Err(err(lineno, format!("unknown mode {other:?}"))),
                })
                .collect::<Result<_, _>>()?
        }
        ("sweep", "sigma") => spec.sweep.sigmas = parse_list(value, lineno, "sigma")?,

        ("effects", "quantization_bits") => {
            spec.effects.quantization_bits = value
                .split(',')
                .map(|b| match b.trim() {
                    "none" | "off" => Ok(None),
                    other => other
                        .parse()
                        .map(Some)
                        .map_err(|_| err(lineno, format!("invalid bit count {other:?}"))),
                })
                .collect::<Result<_, _>>()?
        }
        ("effects", "thermal_kappa") => {
            spec.effects.thermal_kappa = parse_list(value, lineno, "thermal_kappa")?
        }
        ("effects", "thermal_decay_um") => {
            spec.effects.thermal_decay_um = parse_scalar(value, lineno, "thermal_decay_um")?
        }
        ("effects", "mzi_loss_db") => {
            spec.effects.mzi_loss_db = parse_list(value, lineno, "mzi_loss_db")?
        }

        ("zonal", "base_sigma") => {
            spec.zonal.base_sigma = parse_scalar(value, lineno, "base_sigma")?
        }
        ("zonal", "hot_sigma") => spec.zonal.hot_sigma = parse_scalar(value, lineno, "hot_sigma")?,
        ("zonal", "stage") => {
            spec.zonal.stages = value
                .split(',')
                .map(|s| match s.trim() {
                    "u" | "umesh" => Ok(Stage::UMesh),
                    "v" | "vmesh" | "vh" => Ok(Stage::VMesh),
                    other => Err(err(lineno, format!("unknown stage {other:?}"))),
                })
                .collect::<Result<_, _>>()?
        }
        ("zonal", "layer") => {
            spec.zonal.layers = if value == "all" {
                LayerSelect::All
            } else {
                LayerSelect::List(parse_list(value, lineno, "layer")?)
            }
        }

        (sec, k) => {
            let loc = if sec.is_empty() {
                "top level".to_string()
            } else {
                format!("section [{sec}]")
            };
            return Err(err(lineno, format!("unknown key {k:?} at {loc}")));
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // specs are built by mutating defaults
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert_eq!(ScenarioSpec::default().validate(), Ok(()));
    }

    #[test]
    fn text_round_trip_global() {
        let mut spec = ScenarioSpec::default();
        spec.name = "roundtrip".into();
        spec.topologies = vec![MeshTopology::Clements, MeshTopology::Reck];
        spec.target_moe = 0.015;
        spec.effects.quantization_bits = vec![None, Some(6), Some(4)];
        spec.effects.thermal_kappa = vec![0.0, 0.01];
        let text = spec.to_text();
        let parsed = ScenarioSpec::parse(&text).expect("parse own output");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn text_round_trip_zonal() {
        let mut spec = ScenarioSpec::default();
        spec.plan = PlanKind::Zonal;
        spec.zonal.stages = vec![Stage::UMesh];
        spec.zonal.layers = LayerSelect::List(vec![0, 2]);
        let text = spec.to_text();
        assert!(text.contains("[zonal]"));
        let parsed = ScenarioSpec::parse(&text).expect("parse own output");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# a scenario\nname = c  # trailing comment\n\n[sweep]\nmode = both\nsigma = 0.0, 0.05\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.name, "c");
        assert_eq!(spec.sweep.modes, vec![PerturbTarget::Both]);
        assert_eq!(spec.sweep.sigmas, vec![0.0, 0.05]);
    }

    #[test]
    fn unknown_key_is_an_error_with_line_number() {
        let e = ScenarioSpec::parse("name = x\nbogus = 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"), "{}", e.message);
    }

    #[test]
    fn unknown_section_and_values_are_errors() {
        assert!(ScenarioSpec::parse("[nope]\n").is_err());
        assert!(ScenarioSpec::parse("plan = sideways\n").is_err());
        assert!(ScenarioSpec::parse("topology = moebius\n").is_err());
        assert!(ScenarioSpec::parse("[sweep]\nmode = diagonal\n").is_err());
        assert!(ScenarioSpec::parse("seed = banana\n").is_err());
    }

    #[test]
    fn validation_catches_inconsistent_architecture() {
        let mut spec = ScenarioSpec::default();
        spec.train.layers = vec![9, 10];
        assert!(spec.validate().unwrap_err().contains("crop"));
        spec.train.layers = vec![16, 8];
        assert!(spec.validate().unwrap_err().contains("10"));
    }

    #[test]
    fn validation_catches_bad_budgets() {
        let mut spec = ScenarioSpec::default();
        spec.iterations = 0;
        assert!(spec.validate().is_err());
        let mut spec = ScenarioSpec::default();
        spec.round_size = 0;
        assert!(spec.validate().is_err());
        let mut spec = ScenarioSpec::default();
        spec.sweep.sigmas = vec![-0.1];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_out_of_range_zonal_layers() {
        let mut spec = ScenarioSpec::default();
        spec.plan = PlanKind::Zonal;
        // 16-16-16-10 has 3 linear layers: indices 0..=2.
        spec.zonal.layers = LayerSelect::List(vec![0, 3]);
        assert!(spec.validate().unwrap_err().contains("out of range"));
        spec.zonal.layers = LayerSelect::List(vec![2]);
        assert_eq!(spec.validate(), Ok(()));
        spec.zonal.layers = LayerSelect::List(vec![]);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_values() {
        // f64's FromStr accepts "NaN"/"inf", and NaN passes naive `< 0`
        // checks — validation must reject it explicitly.
        let spec = ScenarioSpec::parse("[sweep]\nsigma = NaN\n");
        assert!(spec.is_err(), "NaN sigma accepted");
        let spec = ScenarioSpec::parse("[sweep]\nsigma = inf\n");
        assert!(spec.is_err(), "inf sigma accepted");
        let spec = ScenarioSpec::parse("[effects]\nthermal_kappa = NaN\n");
        assert!(spec.is_err(), "NaN kappa accepted");
        let spec = ScenarioSpec::parse("target_moe = inf\n");
        assert!(spec.is_err(), "inf target_moe accepted");
    }

    #[test]
    fn zonal_with_custom_sweep_but_no_zonal_section_is_rejected() {
        let text = "plan = zonal\n[sweep]\nsigma = 0.2\n";
        assert!(ScenarioSpec::parse(text).is_err());
    }

    #[test]
    fn zonal_sigma_stage_is_rejected() {
        // The paper holds Σ error-free in EXP 2: zonal plans heat zones of
        // the unitary multipliers only, at parse time and at validation.
        let e = ScenarioSpec::parse("plan = zonal\n[zonal]\nstage = sigma\n").unwrap_err();
        assert!(e.message.contains("unknown stage"), "{}", e.message);
        let mut spec = ScenarioSpec::default();
        spec.plan = PlanKind::Zonal;
        spec.zonal.stages = vec![Stage::UMesh, Stage::Sigma];
        assert!(spec.validate().unwrap_err().contains("unitary meshes only"));
    }

    #[test]
    fn paper_sigma_grid_is_sorted_and_bounded() {
        assert_eq!(PAPER_SIGMAS[0], 0.0);
        assert_eq!(*PAPER_SIGMAS.last().unwrap(), 0.15);
        for w in PAPER_SIGMAS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn run_scale_tiny_is_small() {
        let s = RunScale::tiny();
        assert!(s.mc <= 8 && s.n_train <= 100 && s.n_test <= 50);
    }
}
