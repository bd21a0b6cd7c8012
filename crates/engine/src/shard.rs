//! Shard-and-merge execution: split a compiled work queue across
//! processes, recombine partial reports bit-identically.
//!
//! The paper's sweeps are embarrassingly parallel: iteration `k` of a
//! point with seed `s` depends only on `(s, k)` (see
//! [`spnn_core::monte_carlo::iteration_seed`]), so any slice of the work
//! can run anywhere and still produce the exact bits the unsharded run
//! would. This module provides the three pieces that turn that property
//! into distributed execution:
//!
//! - [`plan_shard`] — a deterministic planner that partitions the global
//!   queue's **round space** into `k` disjoint, contiguous, balanced
//!   slices. Every process computes the same plan from the same spec; no
//!   coordination is needed beyond collecting the outputs.
//!   [`plan_shard_weighted`] is the capacity-aware generalization
//!   (slices proportional to integer weights), and [`plan_span`] the
//!   shared primitive — any contiguous unit range of the round space is
//!   a valid dispatch, which is what lets a work-stealing coordinator
//!   re-dispatch sub-slices of a straggler's span.
//! - [`PartialReport`] — a versioned JSON format for one shard's output:
//!   the spec's queue fingerprint, the covered `(point, iteration-range)`
//!   blocks, each block's raw per-iteration samples and Welford state.
//!   Floats are emitted in Rust's shortest-round-trip decimal form and
//!   parsed back from the literal digits, so the format is bit-lossless.
//! - [`MergeState`] — an **incremental** merge: feed partials in any
//!   arrival order ([`MergeState::push`]), collect completed-prefix rows
//!   the moment their coverage is decidable, and
//!   [`MergeState::finalize`] into an [`EngineReport`] byte-for-byte
//!   identical to the unsharded run's. [`merge_partials`] is the batch
//!   convenience wrapper (push everything, finalize); the streaming
//!   coordinator in [`crate::exec`] feeds the same state machine one
//!   partial at a time, so distributed streams and batch merges cannot
//!   diverge. Validation (no gaps, no conflicting overlaps, no foreign
//!   fingerprints) is shared. Overlapping coverage with **identical
//!   bits** is deduplicated rather than rejected — iteration `k` of a
//!   point is a pure function of `(seed, k)`, so a speculative
//!   re-dispatch (work stealing, a straggler answering after its slice
//!   was re-planned) can only ever duplicate what the first computation
//!   produced; an overlap that *disagrees* at any iteration means a
//!   corrupt partial and is rejected outright.
//!
//! # Adaptive early termination under sharding
//!
//! A stopping decision at a round boundary needs the full sample prefix
//! of the point, which a shard that owns a later slice has not seen. The
//! engine therefore reworks adaptivity for sharded runs:
//!
//! 1. the shard owning a point's **prefix** (rounds from 0) applies the
//!    stop rule exactly as the unsharded run would and may stop early;
//! 2. shards owning later slices run their rounds unconditionally
//!    (bounded speculation — only points straddling a shard boundary are
//!    affected, at most `k − 1` of them);
//! 3. the merge replays the stop rule over the recombined stream in
//!    iteration order and discards everything past the first satisfied
//!    boundary — the same boundary the unsharded run stops at, because
//!    the replayed estimator sees the same samples in the same order.
//!
//! See `docs/sharding.md` for the CLI workflow and the format reference.

use crate::estimator::{StopRule, Welford};
use crate::json::{self, Json};
use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::report;
use crate::runner::{EngineReport, SweepRow, TopologySummary};
use crate::spec::ScenarioSpec;
use spnn_core::KernelProfile;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Format identifier stored in every partial report.
pub const PARTIAL_FORMAT: &str = "spnn-partial-report";
/// Partial-report format version; bump on any layout change. Merging
/// rejects other versions outright (unlike the trained-context cache,
/// a partial cannot be regenerated transparently).
pub const PARTIAL_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

/// A contiguous range of rounds of one sweep point, assigned to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBlock {
    /// Global queue index of the point.
    pub point: usize,
    /// First round of the range.
    pub first_round: usize,
    /// Number of rounds in the range (positive).
    pub rounds: usize,
}

/// Deterministically partitions the global round space into `shards`
/// slices and returns slice `index`.
///
/// The round space is the concatenation, in queue order, of every point's
/// rounds (`rounds_per_point[p]` rounds for point `p`). Shard `i` receives
/// the contiguous unit range `[⌊i·U/k⌋, ⌊(i+1)·U/k⌋)` of the `U` total
/// rounds — slices are disjoint, cover the space exactly, and differ in
/// size by at most one round. Points not straddling a slice boundary are
/// wholly owned by one shard; at most `k − 1` points are split.
///
/// # Panics
///
/// Panics if `shards == 0` or `index >= shards`.
pub fn plan_shard(rounds_per_point: &[usize], shards: usize, index: usize) -> Vec<ShardBlock> {
    assert!(shards > 0, "shards must be positive");
    assert!(index < shards, "shard index out of range");
    let (lo, hi) = Slice::Shard { shards, index }.span(rounds_per_point);
    plan_span(rounds_per_point, lo, hi)
}

/// The blocks covering the contiguous unit range `[lo, hi)` of the global
/// round space — the primitive under [`plan_shard`] and
/// [`plan_shard_weighted`], and the sub-slicing tool for work stealing
/// (re-dispatch any tail of a straggler's slice by planning its span).
///
/// Returns an empty plan for an empty span (`lo == hi`).
///
/// # Panics
///
/// Panics if `lo > hi` or `hi` exceeds the total round count.
pub fn plan_span(rounds_per_point: &[usize], lo: usize, hi: usize) -> Vec<ShardBlock> {
    let total: usize = rounds_per_point.iter().sum();
    assert!(lo <= hi, "span start past span end");
    assert!(hi <= total, "span end past the round space");

    let mut blocks = Vec::new();
    let mut cursor = 0usize; // first global unit of the current point
    for (point, &rounds) in rounds_per_point.iter().enumerate() {
        let begin = cursor.max(lo);
        let end = (cursor + rounds).min(hi);
        if begin < end {
            blocks.push(ShardBlock {
                point,
                first_round: begin - cursor,
                rounds: end - begin,
            });
        }
        cursor += rounds;
        if cursor >= hi {
            break;
        }
    }
    blocks
}

/// The unit range `[lo, hi)` of the global round space that
/// [`plan_shard_weighted`] assigns to peer `index` under `weights`.
///
/// Peer `i`'s range is `[⌊U·W_{<i}/W⌋, ⌊U·W_{≤i}/W⌋)` where `W_{<i}` is the
/// cumulative weight before `i` and `W` the weight total — the exact
/// weighted generalization of [`plan_shard`]'s `⌊i·U/k⌋` arithmetic, so
/// uniform weights reproduce the equal plan bit-for-bit (the shared factor
/// cancels inside the floor). Zero-weight peers receive empty ranges; an
/// all-zero vector carries no information and falls back to the equal
/// plan. Products are taken in `u128`, so any `u64` weights are exact.
///
/// # Panics
///
/// Panics if `weights` is empty or `index >= weights.len()`.
pub fn weighted_span(rounds_per_point: &[usize], weights: &[u64], index: usize) -> (usize, usize) {
    assert!(!weights.is_empty(), "weights must be non-empty");
    assert!(index < weights.len(), "peer index out of range");
    let total: usize = rounds_per_point.iter().sum();
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    if sum == 0 {
        let k = weights.len();
        return (index * total / k, (index + 1) * total / k);
    }
    let before: u128 = weights[..index].iter().map(|&w| w as u128).sum();
    let through = before + weights[index] as u128;
    let lo = (total as u128 * before / sum) as usize;
    let hi = (total as u128 * through / sum) as usize;
    (lo, hi)
}

/// Capacity-weighted variant of [`plan_shard`]: slices the global round
/// space proportionally to `weights` (one weight per peer) and returns
/// peer `index`'s blocks. See [`weighted_span`] for the arithmetic and
/// the degenerate cases (uniform, zeros, all-zero).
///
/// # Panics
///
/// Panics if `weights` is empty or `index >= weights.len()`.
pub fn plan_shard_weighted(
    rounds_per_point: &[usize],
    weights: &[u64],
    index: usize,
) -> Vec<ShardBlock> {
    let (lo, hi) = weighted_span(rounds_per_point, weights, index);
    plan_span(rounds_per_point, lo, hi)
}

/// The slice of a scenario's global round space one partial run covers,
/// from an executor's plan to `POST /shard` and back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slice {
    /// Shard `index` of the equal `shards`-way plan ([`plan_shard`]),
    /// which the worker plans itself (`POST /shard?shards=K&index=I`).
    Shard { shards: usize, index: usize },
    /// The explicit unit range `[lo, hi)` — the weighted and
    /// work-stealing dispatches (`POST /shard?span=LO-HI`). Overlapping
    /// spans deduplicate in the merge (see [`MergeState`]).
    Span { lo: usize, hi: usize },
}

impl Slice {
    /// Shard `index` of a `shards`-way plan, or why it is out of range.
    pub(crate) fn shard(shards: usize, index: usize) -> Result<Slice, String> {
        if index < shards {
            Ok(Slice::Shard { shards, index })
        } else {
            Err(format!(
                "shard index {index} out of range for {shards} shard(s)"
            ))
        }
    }

    /// Parses the slice of a `/shard` query, reading each parameter
    /// through `param`: `span=LO-HI`, else `shards=K&index=I` — the
    /// inverse of [`query`](Self::query) but for its `kernel`, which the
    /// caller parses. Errors name the bad parameter.
    pub(crate) fn from_query<'a>(param: impl Fn(&str) -> Option<&'a str>) -> Result<Slice, String> {
        if let Some(raw) = param("span") {
            let bounds = raw
                .split_once('-')
                .and_then(|(lo, hi)| Some((lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?)));
            return match bounds {
                Some((lo, hi)) if lo < hi => Ok(Slice::Span { lo, hi }),
                Some((lo, hi)) => Err(format!("span {lo}-{hi} is empty or reversed")),
                None => Err("span must be LO-HI with integer bounds".to_string()),
            };
        }
        let number = |key: &str| -> Result<usize, String> {
            param(key)
                .ok_or_else(|| format!("missing query parameter {key:?}"))?
                .parse()
                .map_err(|_| format!("query parameter {key:?} must be an integer"))
        };
        Slice::shard(number("shards")?, number("index")?)
    }

    /// The `/shard` query string for this slice under `kernel`. Reference
    /// adds no `kernel` parameter, so coordinator request lines (and any
    /// middleware matching on them) are byte-identical to earlier releases.
    pub(crate) fn query(self, kernel: KernelProfile) -> String {
        let coordinates = match self {
            Slice::Shard { shards, index } => format!("shards={shards}&index={index}"),
            Slice::Span { lo, hi } => format!("span={lo}-{hi}"),
        };
        match kernel {
            KernelProfile::Reference => coordinates,
            other => format!("{coordinates}&kernel={}", other.as_str()),
        }
    }

    /// The `(shards, shard_index)` a partial covering this slice carries:
    /// a span is labelled `(1, 0)`.
    pub(crate) fn coordinates(self) -> (usize, usize) {
        match self {
            Slice::Shard { shards, index } => (shards, index),
            Slice::Span { .. } => (1, 0),
        }
    }

    /// The slice's unit range of the global round space (a shard's is the
    /// equal plan's, [`plan_shard`]).
    pub(crate) fn span(self, rounds_per_point: &[usize]) -> (usize, usize) {
        match self {
            Slice::Shard { shards, index } => {
                let total: usize = rounds_per_point.iter().sum();
                (index * total / shards, (index + 1) * total / shards)
            }
            Slice::Span { lo, hi } => (lo, hi),
        }
    }

    /// The blocks this slice runs, or why a span is empty or overruns the
    /// round space.
    pub(crate) fn blocks(self, rounds_per_point: &[usize]) -> Result<Vec<ShardBlock>, String> {
        let total: usize = rounds_per_point.iter().sum();
        match self {
            Slice::Span { lo, hi } if lo >= hi || hi > total => Err(format!(
                "span {lo}..{hi} is empty or out of range for a {total}-round queue"
            )),
            _ => {
                let (lo, hi) = self.span(rounds_per_point);
                Ok(plan_span(rounds_per_point, lo, hi))
            }
        }
    }
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slice::Shard { shards, index } => write!(f, "shard {index}/{shards}"),
            Slice::Span { lo, hi } => write!(f, "span {lo}..{hi}"),
        }
    }
}

/// The queue fingerprint of a spec: a 128-bit FNV-1a key over the spec's
/// canonical text form, rendered as 32 lowercase hex characters.
///
/// [`ScenarioSpec::to_text`] round-trips exactly, so two specs share a
/// fingerprint iff they compile to the same work queue (same points, same
/// per-point seeds, same budgets). [`merge_partials`] refuses to combine
/// partials with differing fingerprints.
pub fn queue_fingerprint(spec: &ScenarioSpec) -> String {
    queue_fingerprint_with(spec, KernelProfile::Reference)
}

/// [`queue_fingerprint`] scoped to a [`KernelProfile`].
///
/// The kernel profile changes the Monte-Carlo sample bits, so two runs of
/// the same spec under different profiles are *different work* — their
/// partials must never merge and their cached rows must never mix. The
/// Reference profile hashes exactly the canonical text `queue_fingerprint`
/// always hashed (so every fingerprint ever written stays valid); the Fma
/// profile injects a `kernel=fma` component, yielding a disjoint
/// fingerprint space.
pub fn queue_fingerprint_with(spec: &ScenarioSpec, kernel: KernelProfile) -> String {
    let canonical = match kernel {
        KernelProfile::Reference => format!("spnn-queue-v1;{}", spec.to_text()),
        KernelProfile::Fma => format!("spnn-queue-v1;kernel=fma;{}", spec.to_text()),
    };
    crate::store::hex(&crate::store::content_key(&canonical))
}

// ---------------------------------------------------------------------------
// Partial-report model
// ---------------------------------------------------------------------------

/// One covered block of a partial report: a contiguous iteration range of
/// one sweep point, with its raw samples.
#[derive(Debug, Clone)]
pub struct PartialPoint {
    /// Global queue index of the point.
    pub index: usize,
    /// Topology the point ran on.
    pub topology: String,
    /// The point's labels (identical across every block of the point).
    pub labels: Vec<(String, String)>,
    /// The point's Monte-Carlo base seed (cross-checked at merge).
    pub seed: u64,
    /// First iteration the block covers (a multiple of `round_size`).
    pub first_iteration: usize,
    /// `true` when this block owned the point's prefix and the adaptive
    /// rule stopped inside it (informational — the merge replays the rule
    /// itself).
    pub stopped_early: bool,
    /// Welford state over exactly this block's samples (integrity check:
    /// the merge recomputes it from `samples` and demands bit equality).
    pub welford: Welford,
    /// Raw per-iteration accuracies, in iteration order.
    pub samples: Vec<f64>,
}

/// One shard's output: scenario identity, stop-rule parameters, topology
/// summaries, and the covered blocks. Serialized as versioned JSON
/// ([`PartialReport::to_json`] / [`PartialReport::parse`]).
#[derive(Debug, Clone)]
pub struct PartialReport {
    /// Scenario name.
    pub scenario: String,
    /// [`queue_fingerprint_with`] of the spec this shard executed.
    pub queue_fingerprint: String,
    /// Kernel profile the shard's samples were computed under. Serialized
    /// only when not [`KernelProfile::Reference`], so reference partials
    /// keep their historical bytes; merges reject mixed profiles.
    pub kernel: KernelProfile,
    /// Number of shards in the plan this partial belongs to.
    pub shards: usize,
    /// This shard's index within the plan.
    pub shard_index: usize,
    /// Total number of points in the global queue.
    pub total_points: usize,
    /// Iterations per stopping-decision round.
    pub round_size: usize,
    /// Per-point iteration cap.
    pub iterations: usize,
    /// Iterations before adaptive early termination may trigger.
    pub min_iterations: usize,
    /// 95 % margin-of-error target (`0` = fixed-count).
    pub target_moe: f64,
    /// Per-topology summaries (bit-identical across shards; validated).
    pub topologies: Vec<TopologySummary>,
    /// Covered blocks, in plan order.
    pub points: Vec<PartialPoint>,
}

impl PartialReport {
    /// The stop rule this partial's scenario ran under.
    pub fn stop_rule(&self) -> StopRule {
        StopRule {
            max_iterations: self.iterations,
            min_iterations: self.min_iterations,
            target_moe: self.target_moe,
        }
    }

    /// Serializes to the versioned partial-report JSON format.
    ///
    /// Bit-lossless: every float is written in Rust's shortest
    /// round-trip decimal form and [`PartialReport::parse`] recovers it
    /// from the literal digits; seeds are plain (64-bit-exact) integers.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"{PARTIAL_FORMAT}\",");
        let _ = writeln!(out, "  \"version\": {PARTIAL_VERSION},");
        let _ = writeln!(out, "  \"scenario\": \"{}\",", json::escape(&self.scenario));
        let _ = writeln!(
            out,
            "  \"queue_fingerprint\": \"{}\",",
            json::escape(&self.queue_fingerprint)
        );
        if self.kernel != KernelProfile::Reference {
            let _ = writeln!(out, "  \"kernel\": \"{}\",", self.kernel.as_str());
        }
        let _ = writeln!(out, "  \"shards\": {},", self.shards);
        let _ = writeln!(out, "  \"shard_index\": {},", self.shard_index);
        let _ = writeln!(out, "  \"total_points\": {},", self.total_points);
        let _ = writeln!(out, "  \"round_size\": {},", self.round_size);
        let _ = writeln!(out, "  \"iterations\": {},", self.iterations);
        let _ = writeln!(out, "  \"min_iterations\": {},", self.min_iterations);
        let _ = writeln!(out, "  \"target_moe\": {},", json::num(self.target_moe));
        out.push_str("  \"topologies\": [");
        for (i, t) in self.topologies.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            report::write_topology(&mut out, t);
            out.push('}');
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"index\": {}, \"topology\": \"{}\", ",
                if i == 0 { "" } else { "," },
                p.index,
                json::escape(&p.topology)
            );
            report::write_labels(&mut out, &p.labels);
            let (n, mean, m2) = p.welford.parts();
            let _ = write!(
                out,
                ",\n     \"seed\": {}, \"first_iteration\": {}, \"stopped_early\": {},\n     \
                 \"welford\": {{\"count\": {n}, \"mean\": {}, \"m2\": {}}},\n     \"samples\": [",
                p.seed,
                p.first_iteration,
                p.stopped_early,
                json::num(mean),
                json::num(m2)
            );
            for (j, &s) in p.samples.iter().enumerate() {
                let _ = write!(out, "{}{}", if j == 0 { "" } else { ", " }, json::num(s));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a partial report from its JSON form.
    ///
    /// Strict: unknown format identifiers, version skew, missing or
    /// mistyped fields and a zero `round_size` are [`MergeError::Format`]
    /// errors — unlike the trained-context cache, a partial cannot be
    /// regenerated silently.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::Format`] describing the first problem found.
    pub fn parse(text: &str) -> Result<Self, MergeError> {
        json::parse(text)
            .and_then(|doc| Self::read(&doc))
            .map_err(MergeError::Format)
    }

    fn read(doc: &Json) -> Result<Self, String> {
        if doc.field::<&str>("format")? != PARTIAL_FORMAT {
            return Err(format!("not a {PARTIAL_FORMAT} document"));
        }
        let version: usize = doc.field("version")?;
        if version != PARTIAL_VERSION as usize {
            return Err(format!(
                "unsupported partial-report version {version} (this build reads {PARTIAL_VERSION})"
            ));
        }
        // Optional for backward compatibility: partials written before the
        // kernel-profile tier existed are all Reference.
        let kernel = match doc.get("kernel") {
            None => KernelProfile::Reference,
            Some(_) => {
                let name = doc.field("kernel")?;
                KernelProfile::parse(name)
                    .ok_or_else(|| format!("unknown kernel profile {name:?}"))?
            }
        };
        let round_size = doc.field("round_size")?;
        if round_size == 0 {
            return Err("field \"round_size\" must be positive".into());
        }
        Ok(Self {
            scenario: doc.field("scenario")?,
            queue_fingerprint: doc.field("queue_fingerprint")?,
            kernel,
            shards: doc.field("shards")?,
            shard_index: doc.field("shard_index")?,
            total_points: doc.field("total_points")?,
            round_size,
            iterations: doc.field("iterations")?,
            min_iterations: doc.field("min_iterations")?,
            target_moe: doc.field("target_moe")?,
            topologies: doc
                .items("topologies")?
                .into_iter()
                .enumerate()
                .map(|(i, t)| report::read_topology(t).map_err(|e| format!("topology {i}: {e}")))
                .collect::<Result<_, _>>()?,
            points: doc
                .items("points")?
                .into_iter()
                .enumerate()
                .map(|(i, p)| read_point(p).map_err(|e| format!("point entry {i}: {e}")))
                .collect::<Result<_, _>>()?,
        })
    }
}

fn read_point(v: &Json) -> Result<PartialPoint, String> {
    let welford: &Json = v.field("welford")?;
    Ok(PartialPoint {
        index: v.field("index")?,
        topology: v.field("topology")?,
        labels: v.items("labels")?,
        seed: v.field("seed")?,
        first_iteration: v.field("first_iteration")?,
        stopped_early: v.field("stopped_early")?,
        welford: Welford::from_parts(
            welford.field("count")?,
            welford.field("mean")?,
            welford.field("m2")?,
        ),
        samples: v.items("samples")?,
    })
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// Why a set of partial reports could not be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// A document is not a readable partial report (bad JSON, wrong
    /// format identifier, version skew, missing fields).
    Format(String),
    /// The partials disagree on scenario identity — foreign queue
    /// fingerprint, differing budgets, or inconsistent point metadata.
    Mismatch(String),
    /// The covered blocks leave a gap, overlap, or miss a point entirely.
    Coverage(String),
    /// A block's internal state is inconsistent (its Welford summary does
    /// not match its samples, or the block exceeds the iteration cap).
    Corrupt(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Format(m) => write!(f, "unreadable partial report: {m}"),
            MergeError::Mismatch(m) => write!(f, "partials do not belong together: {m}"),
            MergeError::Coverage(m) => write!(f, "incomplete coverage: {m}"),
            MergeError::Corrupt(m) => write!(f, "corrupt partial report: {m}"),
        }
    }
}

impl std::error::Error for MergeError {}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// The outcome of replaying one point's blocks as collected so far.
enum PointReplay {
    /// Coverage is decidable: these are exactly the samples the unsharded
    /// run retains, plus its early-stop flag. Later-arriving blocks can
    /// only be discarded speculation — the row is final.
    Complete {
        /// Retained samples in iteration order.
        samples: Vec<f64>,
        /// Whether the stop rule fired before the cap.
        stopped_early: bool,
    },
    /// The blocks held so far leave a gap (or stop short of the cap with
    /// the stop rule unsatisfied); more partials may still arrive. The
    /// carried error is what [`MergeState::finalize`] reports if they
    /// never do.
    Pending(MergeError),
}

/// Validates and replays one point's sorted blocks: metadata agreement,
/// structural integrity (round alignment, Welford checks, bit-identical
/// overlap dedup), then the stop-rule replay at round boundaries —
/// exactly what the unsharded run computes.
///
/// Hard violations (conflicting overlaps, corrupt blocks, metadata
/// disagreement) are `Err`; incomplete-but-consistent coverage is
/// [`PointReplay::Pending`].
fn replay_blocks(
    index: usize,
    blocks: &[PartialPoint],
    stop: &StopRule,
    round_size: usize,
) -> Result<PointReplay, MergeError> {
    let cap = stop.max_iterations;

    let head = &blocks[0];
    for b in &blocks[1..] {
        if b.topology != head.topology || b.labels != head.labels || b.seed != head.seed {
            return Err(MergeError::Mismatch(format!(
                "point {index}: blocks disagree on topology, labels or seed"
            )));
        }
    }

    // Structural pass first: blocks must be round-aligned, non-empty,
    // in-bounds, and internally consistent (Welford matches samples).
    // Coverage is accumulated into contiguous runs `(first iteration,
    // samples)`; the blocks are sorted by first iteration, so a block can
    // only overlap or extend the last run, and memory stays bounded by
    // the samples the blocks hold, whatever cap they claim. Overlapping
    // coverage is legal **iff the overlapped iterations carry identical
    // bits**. Iteration `k` of a point is a pure function of `(seed, k)`,
    // so a speculative re-dispatch (work stealing, a retried straggler,
    // a duplicated shard) can only duplicate what the first computation
    // produced — identical duplicates are deduplicated here, while a
    // bit-level disagreement means one of the partials is corrupt and is
    // rejected outright.
    let mut runs: Vec<(usize, Vec<f64>)> = Vec::new();
    for b in blocks {
        if b.first_iteration % round_size != 0 {
            return Err(MergeError::Corrupt(format!(
                "point {index}: block starts at iteration {} (not a round boundary)",
                b.first_iteration
            )));
        }
        if b.samples.is_empty() {
            return Err(MergeError::Corrupt(format!("point {index}: empty block")));
        }
        if b.samples.len() > cap.saturating_sub(b.first_iteration) {
            return Err(MergeError::Corrupt(format!(
                "point {index}: blocks exceed the {cap}-iteration cap"
            )));
        }
        // The block's Welford summary must be exactly what its samples
        // produce — a cheap end-to-end integrity check on the JSON.
        let mut check = Welford::new();
        for &s in &b.samples {
            check.push(s);
        }
        let (cn, cm, cm2) = check.parts();
        let (wn, wm, wm2) = b.welford.parts();
        if cn != wn || bits(cm) != bits(wm) || bits(cm2) != bits(wm2) {
            return Err(MergeError::Corrupt(format!(
                "point {index}: Welford state does not match the samples"
            )));
        }
        match runs.last_mut() {
            Some((start, run)) if b.first_iteration <= *start + run.len() => {
                for (offset, &s) in b.samples.iter().enumerate() {
                    let k = b.first_iteration + offset;
                    match run.get(k - *start) {
                        None => run.push(s),
                        Some(&prev) if bits(prev) == bits(s) => {} // speculative duplicate
                        Some(_) => {
                            return Err(MergeError::Corrupt(format!(
                                "point {index}: iteration {k} is covered twice with different bits"
                            )));
                        }
                    }
                }
            }
            _ => runs.push((b.first_iteration, b.samples.clone())),
        }
    }

    // Replay: walk the run starting at iteration 0 in iteration order,
    // applying the stop rule at round boundaries — exactly the unsharded
    // run. Everything past the first satisfied boundary is discarded
    // speculation the unsharded run never executes.
    let prefix: &[f64] = match runs.first() {
        Some((0, run)) => run,
        _ => &[],
    };
    let mut est = Welford::new();
    let mut kept = prefix.len();
    let mut stopped = false;
    for (i, &s) in prefix.iter().enumerate() {
        est.push(s);
        let n = i + 1;
        if (n.is_multiple_of(round_size) || n == cap) && stop.should_stop(&est) {
            kept = n;
            stopped = true;
            break;
        }
    }

    if !stopped && kept < cap {
        let err = match runs.iter().find(|(start, _)| *start > kept) {
            Some((next, _)) => MergeError::Coverage(format!(
                "point {index}: iterations {kept}..{next} are missing"
            )),
            None => MergeError::Coverage(format!(
                "point {index}: only {kept} of {cap} iterations covered and the stop rule \
                 is not satisfied there"
            )),
        };
        return Ok(PointReplay::Pending(err));
    }
    Ok(PointReplay::Complete {
        samples: prefix[..kept].to_vec(),
        stopped_early: kept < cap,
    })
}

/// Checks that `p` (the `ordinal`-th partial fed to a merge) belongs to
/// the same run as `first`: same queue fingerprint, budgets, and
/// bit-identical topology summaries.
fn check_compatible(
    first: &PartialReport,
    p: &PartialReport,
    ordinal: usize,
) -> Result<(), MergeError> {
    if p.kernel != first.kernel {
        return Err(MergeError::Mismatch(format!(
            "partial {ordinal} was computed under the {} kernel profile but partial 0 under {} \
             — profiles produce different sample bits and must never mix",
            p.kernel, first.kernel
        )));
    }
    if p.queue_fingerprint != first.queue_fingerprint {
        return Err(MergeError::Mismatch(format!(
            "partial {ordinal} has queue fingerprint {} but partial 0 has {}",
            p.queue_fingerprint, first.queue_fingerprint
        )));
    }
    let same_meta = p.scenario == first.scenario
        && p.total_points == first.total_points
        && p.round_size == first.round_size
        && p.iterations == first.iterations
        && p.min_iterations == first.min_iterations
        && bits(p.target_moe) == bits(first.target_moe);
    if !same_meta {
        return Err(MergeError::Mismatch(format!(
            "partial {ordinal} disagrees on scenario metadata despite a matching fingerprint"
        )));
    }
    let same_topologies = p.topologies.len() == first.topologies.len()
        && p.topologies.iter().zip(&first.topologies).all(|(a, b)| {
            a.topology == b.topology
                && bits(a.software_accuracy) == bits(b.software_accuracy)
                && bits(a.nominal_accuracy) == bits(b.nominal_accuracy)
        });
    if !same_topologies {
        return Err(MergeError::Mismatch(format!(
            "partial {ordinal} reports different topology summaries"
        )));
    }
    Ok(())
}

/// Incremental shard merge: feed [`PartialReport`]s in **any arrival
/// order**, harvest completed rows in prefix order as their coverage
/// becomes decidable, and [`finalize`](Self::finalize) into the exact
/// batch report.
///
/// A sweep point's row is *final* as soon as its collected blocks form a
/// gap-free prefix on which the replayed stop rule fires (or that reaches
/// the iteration cap): any block still in flight can only be discarded
/// speculation or a bit-identical duplicate, because every iteration is a
/// pure function of `(seed, k)` and any overlap that disagrees is
/// rejected as corrupt. This is what lets a coordinator stream row `i`
/// the moment the shard owning it finishes, while shards owning later
/// slices (or work-stealing re-dispatches of the same span) are still
/// running — and why the streamed rows are byte-identical to the batch
/// merge: both are this state machine.
///
/// ```
/// use spnn_engine::shard::MergeState;
/// # use spnn_engine::prelude::*;
/// # let spec = {
/// #     let mut s = presets::fig4(&RunScale::tiny());
/// #     s.sweep.sigmas = vec![0.0, 0.1];
/// #     s.sweep.modes = vec![spnn_photonics::PerturbTarget::Both];
/// #     s.iterations = 4; s.min_iterations = 2; s.round_size = 2; s
/// # };
/// # let cache = ContextCache::in_memory();
/// # let config = EngineConfig::default();
/// let mut merge = MergeState::new();
/// let mut rows = Vec::new();
/// for index in [1, 0] {  // partials may arrive in any order
///     let partial = run_scenario_shard_with(&spec, &config, &cache, 2, index).unwrap();
///     rows.extend(merge.push(partial).unwrap()); // completed-prefix rows
/// }
/// let report = merge.finalize().unwrap();
/// assert_eq!(rows.len(), report.rows.len());
/// ```
#[derive(Debug, Default)]
pub struct MergeState {
    /// Header of the first partial (its `points` drained) — the identity
    /// every later partial is validated against.
    meta: Option<PartialReport>,
    /// Collected blocks per global point index, sorted by first iteration.
    blocks: BTreeMap<usize, Vec<PartialPoint>>,
    /// Finalized rows, keyed by point index.
    done: BTreeMap<usize, SweepRow>,
    /// Rows `0..emitted` have been handed out by [`Self::push`].
    emitted: usize,
    /// Partials fed so far (for error ordinals).
    seen: usize,
    /// Observability handles (detached no-ops for [`MergeState::new`];
    /// registered by [`MergeState::with_metrics`]). Purely observational.
    partials_metric: Counter,
    rows_metric: Counter,
    pending_metric: Gauge,
    /// Row cache (plus the spec's key context) to publish completed
    /// points into as they finalize — set by
    /// [`MergeState::publish_rows_to`], `None` otherwise.
    publish: Option<(
        std::sync::Arc<crate::rowcache::RowCache>,
        crate::rowcache::RowContext,
    )>,
}

impl MergeState {
    /// An empty merge; identical to `MergeState::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty merge whose progress is visible in `registry`:
    /// `spnn_merge_partials_total` (partials fed),
    /// `spnn_merge_rows_finalized_total` (rows emitted in prefix order),
    /// and the `spnn_merge_pending_points` gauge (rows finalized but
    /// held back by a coverage gap earlier in the queue).
    pub fn with_metrics(registry: &MetricsRegistry) -> Self {
        MergeState {
            partials_metric: registry.counter(
                "spnn_merge_partials_total",
                "Shard partials fed into the incremental merge.",
                &[],
            ),
            rows_metric: registry.counter(
                "spnn_merge_rows_finalized_total",
                "Rows emitted by the incremental merge, in prefix order.",
                &[],
            ),
            pending_metric: registry.gauge(
                "spnn_merge_pending_points",
                "Rows finalized but held back by a coverage gap.",
                &[],
            ),
            ..Self::default()
        }
    }

    /// Publishes every point this merge completes into `cache`, once,
    /// keyed by `ctx` — the merge sees the full recombined sample stream
    /// of each point (bit-lossless through the partial wire format), so
    /// the cached payload is the same whichever executor computed it.
    /// This is how every run ([`crate::exec::run_distributed`]) warms the
    /// row cache: the merge is the only publisher.
    pub fn publish_rows_to(
        &mut self,
        cache: std::sync::Arc<crate::rowcache::RowCache>,
        ctx: crate::rowcache::RowContext,
    ) {
        self.publish = Some((cache, ctx));
    }

    /// The scenario metadata adopted from the first pushed partial, if any.
    pub fn meta(&self) -> Option<&PartialReport> {
        self.meta.as_ref()
    }

    /// Rows already emitted by [`Self::push`] (the completed prefix).
    pub fn rows_emitted(&self) -> usize {
        self.emitted
    }

    /// `true` once every point of the queue has a final row.
    pub fn is_complete(&self) -> bool {
        self.meta
            .as_ref()
            .is_some_and(|m| self.emitted == m.total_points)
    }

    /// Feeds one partial and returns the rows whose indices newly joined
    /// the completed prefix, as `(index, row)` in index order — possibly
    /// empty (the partial extended coverage somewhere past the prefix),
    /// possibly several (it plugged the gap holding the prefix back).
    ///
    /// Rows are emitted exactly once across pushes, in strict prefix
    /// order: the concatenation over all pushes is `rows[0..n]` of the
    /// final report.
    ///
    /// # Errors
    ///
    /// Everything [`merge_partials`] rejects, the moment it becomes
    /// detectable: [`MergeError::Mismatch`] on foreign fingerprints or
    /// metadata, [`MergeError::Corrupt`] on inconsistent blocks or
    /// overlaps that disagree bit-for-bit, [`MergeError::Format`] on
    /// out-of-range point indices. Bit-identical overlapping coverage is
    /// deduplicated, not rejected. Gaps are *not* errors here — a later
    /// partial may fill them; they surface in [`Self::finalize`].
    pub fn push(&mut self, partial: PartialReport) -> Result<Vec<(usize, SweepRow)>, MergeError> {
        let ordinal = self.seen;
        self.seen += 1;
        let mut header = partial;
        let points = std::mem::take(&mut header.points);
        match &self.meta {
            None => self.meta = Some(header),
            Some(first) => check_compatible(first, &header, ordinal)?,
        }
        let meta = self.meta.as_ref().expect("meta adopted above");
        let (total_points, round_size, stop) =
            (meta.total_points, meta.round_size, meta.stop_rule());

        let mut touched: Vec<usize> = Vec::with_capacity(points.len());
        for block in points {
            if block.index >= total_points {
                return Err(MergeError::Format(format!(
                    "block references point {} of a {}-point queue",
                    block.index, total_points
                )));
            }
            touched.push(block.index);
            let held = self.blocks.entry(block.index).or_default();
            // An exact duplicate of a held block (same range, same bits)
            // adds no information — drop it so speculative re-dispatch
            // (work stealing) cannot grow memory without bound. Partial
            // overlaps are kept; `replay_blocks` dedups them slot-wise.
            let duplicate = held.iter().any(|b| {
                b.first_iteration == block.first_iteration
                    && b.samples.len() == block.samples.len()
                    && b.samples
                        .iter()
                        .zip(&block.samples)
                        .all(|(a, b)| bits(*a) == bits(*b))
            });
            if !duplicate {
                held.push(block);
            }
        }
        touched.sort_unstable();
        touched.dedup();

        for index in touched {
            let blocks = self.blocks.get_mut(&index).expect("touched point");
            blocks.sort_by_key(|b| b.first_iteration);
            match replay_blocks(index, blocks, &stop, round_size)? {
                // A point completes once: a speculative block arriving
                // later was validated above and replays to the same row.
                PointReplay::Complete { .. } if self.done.contains_key(&index) => {}
                PointReplay::Complete {
                    samples,
                    stopped_early,
                } => {
                    let head = &blocks[0];
                    if let Some((cache, ctx)) = &self.publish {
                        cache.put(
                            &ctx.key(&head.topology, &head.labels),
                            crate::rowcache::CachedPoint {
                                topology: head.topology.clone(),
                                labels: head.labels.clone(),
                                samples: samples.clone(),
                                stopped_early,
                            },
                        );
                    }
                    let row = SweepRow::from_samples(
                        head.topology.clone(),
                        head.labels.clone(),
                        samples,
                        stopped_early,
                    );
                    self.done.insert(index, row);
                }
                PointReplay::Pending(_) => {}
            }
        }

        let mut out = Vec::new();
        while let Some(row) = self.done.get(&self.emitted) {
            out.push((self.emitted, row.clone()));
            self.emitted += 1;
        }
        self.partials_metric.inc();
        self.rows_metric.add(out.len() as u64);
        // Finalized rows not yet emitted are blocked behind a gap.
        self.pending_metric
            .set((self.done.len() - self.emitted) as i64);
        Ok(out)
    }

    /// Validates that the fed partials cover the whole queue and returns
    /// the final [`EngineReport`] — byte-for-byte identical (through
    /// [`crate::report::to_json`] / [`crate::report::to_csv`]) to the
    /// unsharded run and to [`merge_partials`] over the same set.
    ///
    /// # Errors
    ///
    /// - [`MergeError::Format`] when no partial was ever pushed;
    /// - [`MergeError::Coverage`] when a point is uncovered, gapped, or
    ///   stops short of the cap with the stop rule unsatisfied.
    pub fn finalize(self) -> Result<EngineReport, MergeError> {
        let meta = self
            .meta
            .ok_or_else(|| MergeError::Format("no partial reports to merge".into()))?;
        if let Some(missing) = (0..meta.total_points).find(|i| !self.blocks.contains_key(i)) {
            return Err(MergeError::Coverage(format!(
                "point {missing} is covered by no partial"
            )));
        }
        for (index, blocks) in &self.blocks {
            if self.done.contains_key(index) {
                continue;
            }
            match replay_blocks(*index, blocks, &meta.stop_rule(), meta.round_size)? {
                PointReplay::Pending(e) => return Err(e),
                // push() finalizes every decidable point eagerly.
                PointReplay::Complete { .. } => unreachable!("complete point not in done"),
            }
        }
        Ok(EngineReport {
            scenario: meta.scenario,
            topologies: meta.topologies,
            rows: self.done.into_values().collect(),
        })
    }
}

/// Merges a set of partial reports into the final [`EngineReport`].
///
/// Accepts **any** set of partials whose blocks exactly cover the queue —
/// typically the `k` outputs of one `--shards k` plan, but e.g. a re-run
/// of one failed shard under a different split merges equally well. The
/// result is byte-for-byte identical (through [`crate::report::to_json`] /
/// [`crate::report::to_csv`]) to the unsharded run: per-point statistics
/// are recomputed from the recombined raw samples with the same
/// aggregation ([`spnn_core::McResult::from_samples`]), and adaptive stopping is
/// replayed in iteration order (see the module docs).
///
/// This is the batch wrapper over [`MergeState`]; order of `partials`
/// never affects the result.
///
/// # Errors
///
/// - [`MergeError::Mismatch`] when partials carry different queue
///   fingerprints, budgets, topology summaries, or point metadata;
/// - [`MergeError::Coverage`] on gaps, overlaps, or missing points;
/// - [`MergeError::Corrupt`] when a block's Welford state disagrees with
///   its samples or a block oversteps the iteration cap;
/// - [`MergeError::Format`] when called with no partials.
pub fn merge_partials(partials: &[PartialReport]) -> Result<EngineReport, MergeError> {
    let mut state = MergeState::new();
    for p in partials {
        state.push(p.clone())?;
    }
    state.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::arbitrary;
    use proptest::prelude::*;
    use spnn_core::McResult;

    /// Exhaustive (not sampled) planner coverage check for small spaces.
    #[test]
    fn plan_covers_every_round_exactly_once() {
        let spaces: Vec<Vec<usize>> = vec![
            vec![1],
            vec![4, 4, 4],
            vec![1, 7, 2, 5, 1, 1],
            vec![3; 10],
            vec![32],
        ];
        for rounds_per_point in spaces {
            let total: usize = rounds_per_point.iter().sum();
            for k in 1..=total + 3 {
                let mut seen = vec![0u32; total];
                for i in 0..k {
                    for b in plan_shard(&rounds_per_point, k, i) {
                        assert!(b.rounds > 0);
                        let base: usize = rounds_per_point[..b.point].iter().sum();
                        for r in 0..b.rounds {
                            seen[base + b.first_round + r] += 1;
                        }
                        assert!(
                            b.first_round + b.rounds <= rounds_per_point[b.point],
                            "block overruns its point"
                        );
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "{rounds_per_point:?} k={k}: coverage {seen:?}"
                );
            }
        }
    }

    #[test]
    fn plan_is_balanced_and_contiguous() {
        let rounds = vec![5usize; 8]; // 40 units
        for k in [1, 2, 3, 7, 40] {
            let sizes: Vec<usize> = (0..k)
                .map(|i| plan_shard(&rounds, k, i).iter().map(|b| b.rounds).sum())
                .collect();
            let lo = *sizes.iter().min().unwrap();
            let hi = *sizes.iter().max().unwrap();
            assert!(hi - lo <= 1, "k={k}: unbalanced {sizes:?}");
        }
    }

    #[test]
    fn plan_with_more_shards_than_rounds_leaves_empty_shards() {
        let rounds = vec![2usize, 1];
        let plans: Vec<_> = (0..7).map(|i| plan_shard(&rounds, 7, i)).collect();
        let non_empty = plans.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(non_empty, 3, "3 units → exactly 3 working shards");
    }

    #[test]
    fn weighted_plan_uniform_weights_match_the_equal_plan() {
        let rounds = vec![1usize, 7, 2, 5, 1, 1];
        for k in 1..=8 {
            for w in [1u64, 3, 1_000_000_007] {
                let weights = vec![w; k];
                for i in 0..k {
                    assert_eq!(
                        plan_shard_weighted(&rounds, &weights, i),
                        plan_shard(&rounds, k, i),
                        "k={k} w={w} i={i}: uniform weights must degenerate exactly"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_plan_handles_zeros_skews_and_tiny_spaces() {
        let rounds = vec![4usize, 4, 4]; // 12 units
                                         // A zero-weight peer receives an empty span; the rest partition.
        let weights = [2u64, 0, 1];
        assert_eq!(weighted_span(&rounds, &weights, 0), (0, 8));
        assert_eq!(weighted_span(&rounds, &weights, 1), (8, 8));
        assert_eq!(weighted_span(&rounds, &weights, 2), (8, 12));
        assert!(plan_shard_weighted(&rounds, &weights, 1).is_empty());

        // All-zero weights carry no information: equal-plan fallback.
        for i in 0..3 {
            assert_eq!(
                plan_shard_weighted(&rounds, &[0, 0, 0], i),
                plan_shard(&rounds, 3, i)
            );
        }

        // Huge skews stay exact (u128 products cannot overflow u64 sums):
        // floor arithmetic still hands the light peer its last unit.
        let skew = [u64::MAX, 1];
        assert_eq!(weighted_span(&rounds, &skew, 0), (0, 11));
        assert_eq!(weighted_span(&rounds, &skew, 1), (11, 12));

        // More peers than rounds: spans still partition [0, total).
        let tiny = vec![1usize, 1];
        let weights = [5u64, 1, 1, 1, 1];
        let mut cursor = 0;
        for i in 0..weights.len() {
            let (lo, hi) = weighted_span(&tiny, &weights, i);
            assert_eq!(lo, cursor, "spans must be contiguous");
            assert!(hi >= lo);
            cursor = hi;
        }
        assert_eq!(cursor, 2, "spans must end at the total");
    }

    #[test]
    fn plan_span_slices_any_contiguous_range() {
        let rounds = vec![1usize, 7, 2];
        let total = 10;
        for lo in 0..=total {
            for hi in lo..=total {
                let blocks = plan_span(&rounds, lo, hi);
                let covered: usize = blocks.iter().map(|b| b.rounds).sum();
                assert_eq!(covered, hi - lo, "span [{lo},{hi}) unit count");
                // Splitting a span at any midpoint re-plans to the same
                // coverage — the sub-slicing property stealing relies on.
                let mid = lo + (hi - lo) / 2;
                let rejoined: usize = plan_span(&rounds, lo, mid)
                    .iter()
                    .chain(plan_span(&rounds, mid, hi).iter())
                    .map(|b| b.rounds)
                    .sum();
                assert_eq!(rejoined, covered);
            }
        }
    }

    #[test]
    fn queue_fingerprint_tracks_the_spec() {
        let base = ScenarioSpec::default();
        let fp = queue_fingerprint(&base);
        assert_eq!(fp.len(), 32);
        assert_eq!(fp, queue_fingerprint(&base.clone()), "deterministic");
        let mut other = base.clone();
        other.seed ^= 1;
        assert_ne!(fp, queue_fingerprint(&other), "seed changes the queue");
        let mut renamed = base.clone();
        renamed.name = "other".into();
        assert_ne!(
            fp,
            queue_fingerprint(&renamed),
            "name is part of the report identity"
        );
    }

    fn block(index: usize, first_iteration: usize, samples: Vec<f64>) -> PartialPoint {
        let mut welford = Welford::new();
        for &s in &samples {
            welford.push(s);
        }
        PartialPoint {
            index,
            topology: "clements".into(),
            labels: vec![("sigma".into(), "0.05".into())],
            seed: 7,
            first_iteration,
            stopped_early: false,
            welford,
            samples,
        }
    }

    fn partial(points: Vec<PartialPoint>) -> PartialReport {
        PartialReport {
            scenario: "t".into(),
            queue_fingerprint: "00".repeat(16),
            kernel: KernelProfile::Reference,
            shards: 2,
            shard_index: 0,
            total_points: 1,
            round_size: 2,
            iterations: 6,
            min_iterations: 6,
            target_moe: 0.0,
            topologies: vec![TopologySummary {
                topology: "clements".into(),
                software_accuracy: 0.75,
                nominal_accuracy: 0.5,
            }],
            points,
        }
    }

    #[test]
    fn merge_recombines_split_points() {
        let a = partial(vec![block(0, 0, vec![0.5, 0.75])]);
        let b = partial(vec![block(0, 2, vec![0.25, 1.0, 0.5, 0.75])]);
        let report = merge_partials(&[a, b]).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].iterations, 6);
        let mc = McResult::from_samples(vec![0.5, 0.75, 0.25, 1.0, 0.5, 0.75]);
        assert_eq!(report.rows[0].mean.to_bits(), mc.mean.to_bits());
        assert_eq!(report.rows[0].std_dev.to_bits(), mc.std_dev.to_bits());
        assert!(!report.rows[0].stopped_early);
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_missing_points() {
        // Gap: iterations 2..4 missing.
        let gap = [
            partial(vec![block(0, 0, vec![0.5, 0.75])]),
            partial(vec![block(0, 4, vec![0.5, 0.75])]),
        ];
        assert!(matches!(merge_partials(&gap), Err(MergeError::Coverage(_))));

        // Conflicting overlap: iterations 0..2 covered twice with
        // different bits — one of the partials must be corrupt.
        let conflict = [
            partial(vec![block(0, 0, vec![0.5, 0.75, 0.25, 1.0])]),
            partial(vec![
                block(0, 0, vec![0.5, 0.875]),
                block(0, 4, vec![0.5, 0.75]),
            ]),
        ];
        assert!(matches!(
            merge_partials(&conflict),
            Err(MergeError::Corrupt(_))
        ));

        // Missing point: total_points says 1 but nothing covers it.
        let missing = [partial(vec![])];
        assert!(matches!(
            merge_partials(&missing),
            Err(MergeError::Coverage(_))
        ));

        // Short coverage with no stop rule satisfied.
        let short = [partial(vec![block(0, 0, vec![0.5, 0.75])])];
        assert!(matches!(
            merge_partials(&short),
            Err(MergeError::Coverage(_))
        ));
    }

    #[test]
    fn merge_rejects_foreign_fingerprints() {
        let a = partial(vec![block(0, 0, vec![0.5, 0.75])]);
        let mut b = partial(vec![block(0, 2, vec![0.25, 1.0, 0.5, 0.75])]);
        b.queue_fingerprint = "ff".repeat(16);
        assert!(matches!(
            merge_partials(&[a, b]),
            Err(MergeError::Mismatch(_))
        ));
    }

    #[test]
    fn merge_rejects_mixed_kernel_profiles() {
        // Same (forged) fingerprint, differing kernel: the typed Mismatch
        // must fire on the profile before anything else can mask it.
        let a = partial(vec![block(0, 0, vec![0.5, 0.75])]);
        let mut b = partial(vec![block(0, 2, vec![0.25, 1.0, 0.5, 0.75])]);
        b.kernel = KernelProfile::Fma;
        let err = merge_partials(&[a, b]).unwrap_err();
        match err {
            MergeError::Mismatch(msg) => {
                assert!(msg.contains("kernel profile"), "untyped message: {msg}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn kernel_profile_survives_json_round_trip() {
        let mut p = partial(vec![block(0, 0, vec![0.5, 0.75])]);
        p.kernel = KernelProfile::Fma;
        let parsed = PartialReport::parse(&p.to_json()).unwrap();
        assert_eq!(parsed.kernel, KernelProfile::Fma);

        // Reference partials omit the field entirely — their bytes are the
        // historical format, and absent means Reference on parse.
        let r = partial(vec![block(0, 0, vec![0.5, 0.75])]);
        let json = r.to_json();
        assert!(!json.contains("\"kernel\""), "reference bytes changed");
        assert_eq!(
            PartialReport::parse(&json).unwrap().kernel,
            KernelProfile::Reference
        );

        // An unknown profile name is a Format error, not a silent default.
        let bad = json.replace(
            "\"queue_fingerprint\"",
            "\"kernel\": \"turbo\",\n  \"queue_fingerprint\"",
        );
        assert!(matches!(
            PartialReport::parse(&bad),
            Err(MergeError::Format(_))
        ));
    }

    #[test]
    fn fingerprints_are_profile_scoped() {
        let spec = crate::presets::fig4(&crate::spec::RunScale::tiny());
        let reference = queue_fingerprint_with(&spec, KernelProfile::Reference);
        let fma = queue_fingerprint_with(&spec, KernelProfile::Fma);
        assert_ne!(reference, fma, "profiles must occupy disjoint spaces");
        assert_eq!(
            reference,
            queue_fingerprint(&spec),
            "reference fingerprints must be unchanged"
        );
    }

    #[test]
    fn merge_rejects_tampered_samples() {
        let a = partial(vec![block(0, 0, vec![0.5, 0.75])]);
        let mut b = partial(vec![block(0, 2, vec![0.25, 1.0, 0.5, 0.75])]);
        b.points[0].samples[1] = 0.9999; // Welford state now disagrees
        assert!(matches!(
            merge_partials(&[a, b]),
            Err(MergeError::Corrupt(_))
        ));
    }

    #[test]
    fn merge_replays_adaptive_stops_and_discards_speculation() {
        // Zero-variance samples satisfy any target at the first legal
        // boundary (min_iterations = 2 → boundary 2); blocks beyond are
        // speculative and must be discarded, gaps past the stop are fine.
        let mk = |points| {
            let mut p = partial(points);
            p.iterations = 8;
            p.min_iterations = 2;
            p.target_moe = 0.01;
            p
        };
        let a = mk(vec![block(0, 0, vec![0.5, 0.5])]);
        let b = mk(vec![block(0, 6, vec![0.5, 0.5])]); // speculative tail, gap before it
        let report = merge_partials(&[a, b]).unwrap();
        assert_eq!(report.rows[0].iterations, 2);
        assert!(report.rows[0].stopped_early);

        // The same stream mid-block: stop fires inside a block.
        let c = mk(vec![block(0, 0, vec![0.5, 0.5, 0.5, 0.6])]);
        let report = merge_partials(&[c]).unwrap();
        assert_eq!(report.rows[0].iterations, 2, "stop fires mid-block");
    }

    #[test]
    fn merge_state_emits_completed_prefix_rows_in_order() {
        // Two points, 6 fixed iterations each, round_size 2. Partial A
        // covers the tail of point 0 and all of point 1; the prefix of
        // point 0 arrives last.
        let mk = |points: Vec<PartialPoint>| {
            let mut p = partial(points);
            p.total_points = 2;
            p
        };
        let tail = mk(vec![
            block(0, 2, vec![0.25, 1.0, 0.5, 0.75]),
            block(1, 0, vec![0.5; 6]),
        ]);
        let head = mk(vec![block(0, 0, vec![0.5, 0.75])]);

        let mut st = MergeState::new();
        // Point 1 completes immediately, but row 0 is still pending — no
        // prefix rows yet.
        let rows = st.push(tail).unwrap();
        assert!(rows.is_empty(), "prefix must wait for point 0");
        assert_eq!(st.rows_emitted(), 0);
        assert!(!st.is_complete());
        // The head plugs the gap: both rows emit, in index order.
        let rows = st.push(head).unwrap();
        assert_eq!(rows.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1]);
        assert!(st.is_complete());
        let report = st.finalize().unwrap();
        assert_eq!(report.rows.len(), 2);
        for ((i, streamed), final_row) in rows.iter().zip(&report.rows) {
            assert_eq!(streamed, &report.rows[*i]);
            assert_eq!(streamed.mean.to_bits(), final_row.mean.to_bits());
        }
    }

    #[test]
    fn merge_state_surfaces_gaps_only_at_finalize() {
        let mut st = MergeState::new();
        st.push(partial(vec![block(0, 4, vec![0.5, 0.75])]))
            .expect("a gapped point is pending, not an error");
        let err = st.finalize().expect_err("gap must fail finalize");
        assert!(matches!(err, MergeError::Coverage(_)), "{err}");

        let empty = MergeState::new();
        assert!(matches!(empty.finalize(), Err(MergeError::Format(_))));
    }

    #[test]
    fn merge_state_rejects_conflicting_overlap_at_push_time() {
        let mut st = MergeState::new();
        st.push(partial(vec![block(0, 0, vec![0.5, 0.75, 0.25, 1.0])]))
            .unwrap();
        let err = st
            .push(partial(vec![block(0, 2, vec![0.375, 1.0, 0.5, 0.75])]))
            .expect_err("an overlap disagreeing bit-for-bit must fail immediately");
        assert!(matches!(err, MergeError::Corrupt(_)), "{err}");
    }

    #[test]
    fn merge_deduplicates_bit_identical_overlaps() {
        // A speculative re-dispatch (work stealing) re-covers iterations
        // 2..4 with the exact bits the first dispatch produced; the
        // overlap merges and the row matches the disjoint recombination.
        let reference = merge_partials(&[
            partial(vec![block(0, 0, vec![0.5, 0.75])]),
            partial(vec![block(0, 2, vec![0.25, 1.0, 0.5, 0.75])]),
        ])
        .unwrap();

        let mut st = MergeState::new();
        st.push(partial(vec![block(0, 0, vec![0.5, 0.75, 0.25, 1.0])]))
            .unwrap();
        let rows = st
            .push(partial(vec![block(0, 2, vec![0.25, 1.0, 0.5, 0.75])]))
            .expect("bit-identical overlap must be deduplicated");
        assert_eq!(rows.len(), 1, "the overlap completed the point");
        let report = st.finalize().unwrap();
        assert_eq!(report.rows[0].iterations, 6);
        assert_eq!(
            report.rows[0].mean.to_bits(),
            reference.rows[0].mean.to_bits(),
            "deduplicated overlap must replay to the disjoint merge's bits"
        );

        // An exact duplicate of a whole partial is likewise harmless.
        let dup = partial(vec![block(0, 0, vec![0.5, 0.75, 0.25, 1.0])]);
        let mut st = MergeState::new();
        st.push(dup.clone()).unwrap();
        st.push(dup).unwrap();
        st.push(partial(vec![block(0, 4, vec![0.5, 0.75])]))
            .unwrap();
        let report = st.finalize().unwrap();
        assert_eq!(
            report.rows[0].mean.to_bits(),
            reference.rows[0].mean.to_bits()
        );
    }

    #[test]
    fn partial_report_json_round_trips_bit_exactly() {
        let mut p = partial(vec![
            block(0, 0, vec![0.1, 1.0 / 3.0]),
            block(0, 2, vec![f64::MIN_POSITIVE, 0.49999999999999994]),
        ]);
        p.scenario = "weird \"name\"\twith\nescapes".into();
        p.target_moe = 0.0334;
        p.points[0].seed = u64::MAX - 3;
        let text = p.to_json();
        let back = PartialReport::parse(&text).unwrap();
        assert_eq!(back.scenario, p.scenario);
        assert_eq!(back.queue_fingerprint, p.queue_fingerprint);
        assert_eq!(back.target_moe.to_bits(), p.target_moe.to_bits());
        assert_eq!(back.points.len(), p.points.len());
        for (x, y) in back.points.iter().zip(&p.points) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.labels, y.labels);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.first_iteration, y.first_iteration);
            assert_eq!(x.welford.parts().0, y.welford.parts().0);
            assert_eq!(x.welford.parts().1.to_bits(), y.welford.parts().1.to_bits());
            let xb: Vec<u64> = x.samples.iter().map(|s| s.to_bits()).collect();
            let yb: Vec<u64> = y.samples.iter().map(|s| s.to_bits()).collect();
            assert_eq!(xb, yb, "samples must survive JSON bit-exactly");
        }
        // And the re-serialization is byte-stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(matches!(
            PartialReport::parse("{}"),
            Err(MergeError::Format(_))
        ));
        assert!(matches!(
            PartialReport::parse("not json"),
            Err(MergeError::Format(_))
        ));
        let wrong_version = partial(vec![])
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        assert!(matches!(
            PartialReport::parse(&wrong_version),
            Err(MergeError::Format(_))
        ));
    }

    /// A partial with every field drawn at random: wire strings, any
    /// finite float bit patterns, any seed.
    fn any_partial() -> impl Strategy<Value = PartialReport> {
        let point = (
            (0usize..1 << 40, arbitrary::text()),
            collection::vec((arbitrary::text(), arbitrary::text()), 0..3),
            (0u64..u64::MAX, 0usize..1 << 40, 0u8..2),
            (0u64..1 << 40, arbitrary::finite(), arbitrary::finite()),
            collection::vec(arbitrary::finite(), 0..6),
        )
            .prop_map(
                |((index, topology), labels, (seed, first, stopped), w, samples)| PartialPoint {
                    index,
                    topology,
                    labels,
                    seed,
                    first_iteration: first,
                    stopped_early: stopped == 1,
                    welford: Welford::from_parts(w.0, w.1, w.2),
                    samples,
                },
            );
        let topology = (arbitrary::text(), arbitrary::finite(), arbitrary::finite()).prop_map(
            |(topology, software_accuracy, nominal_accuracy)| TopologySummary {
                topology,
                software_accuracy,
                nominal_accuracy,
            },
        );
        (
            (arbitrary::text(), arbitrary::text(), 0u8..2),
            (0usize..1 << 40, 0usize..1 << 40, 0usize..1 << 40),
            (1usize..1 << 40, 0usize..1 << 40, 0usize..1 << 40),
            arbitrary::finite(),
            collection::vec(topology, 0..3),
            collection::vec(point, 0..4),
        )
            .prop_map(
                |(
                    (scenario, fingerprint, fma),
                    (shards, shard_index, total_points),
                    b,
                    moe,
                    topologies,
                    points,
                )| {
                    PartialReport {
                        scenario,
                        queue_fingerprint: fingerprint,
                        kernel: if fma == 1 {
                            KernelProfile::Fma
                        } else {
                            KernelProfile::Reference
                        },
                        shards,
                        shard_index,
                        total_points,
                        round_size: b.0,
                        iterations: b.1,
                        min_iterations: b.2,
                        target_moe: moe,
                        topologies,
                        points,
                    }
                },
            )
    }

    /// A mergeable partial: two points of accuracy-like samples whose
    /// Welford states match, each split into two round-aligned blocks.
    fn valid_partial() -> impl Strategy<Value = PartialReport> {
        (1usize..4, 1usize..4, collection::vec(0u32..41, 1..16)).prop_map(
            |(round_size, rounds, draws)| {
                let cap = round_size * rounds;
                let mut p = partial(vec![]);
                (p.round_size, p.iterations, p.min_iterations) = (round_size, cap, round_size);
                (p.total_points, p.target_moe) = (2, 0.05);
                let mut draws = draws.iter().cycle().map(|&d| d as f64 / 40.0);
                for index in 0..2 {
                    let samples: Vec<f64> = draws.by_ref().take(cap).collect();
                    let split = rounds / 2 * round_size;
                    for (first, part) in [(0, &samples[..split]), (split, &samples[split..])] {
                        if !part.is_empty() {
                            p.points.push(block(index, first, part.to_vec()));
                        }
                    }
                }
                p
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn partial_json_round_trips_any_partial(p in any_partial()) {
            let text = p.to_json();
            let back = PartialReport::parse(&text).unwrap();
            // `Debug` prints every float in its exact shortest form.
            prop_assert_eq!(format!("{back:?}"), format!("{p:?}"));
            prop_assert_eq!(back.to_json(), text);
        }

        #[test]
        fn damaged_partials_decode_and_merge_without_panicking(
            p in valid_partial(),
            damage in collection::vec(arbitrary::damage(), 4..5),
        ) {
            let text = p.to_json();
            merge_partials(std::slice::from_ref(&p)).unwrap();
            for d in damage {
                for mangled in arbitrary::mangle(&text, d) {
                    if let Ok(q) = PartialReport::parse(&mangled) {
                        let _ = merge_partials(std::slice::from_ref(&q));
                        let _ = merge_partials(&[p.clone(), q]);
                    }
                }
            }
        }
    }

    #[test]
    fn parse_rejects_a_zero_round_size() {
        let text = partial(vec![block(0, 0, vec![0.5])])
            .to_json()
            .replace("\"round_size\": 2", "\"round_size\": 0");
        assert_eq!(
            PartialReport::parse(&text).unwrap_err(),
            MergeError::Format("field \"round_size\" must be positive".into())
        );
    }

    #[test]
    fn merge_memory_follows_the_samples_not_the_claimed_cap() {
        let mut p = partial(vec![block(0, 0, vec![0.5])]);
        p.iterations = usize::MAX;
        p.min_iterations = usize::MAX;
        assert!(matches!(merge_partials(&[p]), Err(MergeError::Coverage(_))));
    }
}
