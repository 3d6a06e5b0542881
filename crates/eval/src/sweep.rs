//! The Section IV-A design-space sweep: every (model, input size) pair on
//! a CPU platform, producing the data behind Figs. 3 and 4.
//!
//! ## The FPS-vs-resolution response
//!
//! The sweep supports two frame-rate responses:
//!
//! * [`FpsResponse::Roofline`] — FPS follows the platform roofline model
//!   directly: compute scales with the square of the input size, so FPS at
//!   608 is roughly (352/608)² ≈ 0.34x of FPS at 352 (plus overhead
//!   flattening).
//! * [`FpsResponse::PaperFlat`] — FPS follows the response the paper
//!   *measured*: "the larger input size deteriorates performance with an
//!   average of 0.81x across the models" over the full 352→608 range.
//!   That is far flatter than compute scaling predicts (×2.98 more FLOPs
//!   over the same range) and is the reason the paper's weighted score
//!   peaks at 512 for DroNet: under a flat FPS response the accuracy gain
//!   of a larger input outweighs the small FPS penalty up to ~544, exactly
//!   as §IV-A states. We reproduce Fig. 4 under this response and record
//!   the discrepancy in `EXPERIMENTS.md`.

use crate::platform::{Platform, PlatformId};
use crate::response;
use dronet_core::{zoo, ModelId};
use dronet_metrics::score::score_candidates;
use dronet_metrics::{normalize_metrics, MetricVector, ScoreWeights};
use dronet_nn::summary::NetworkSummary;

/// Exponent of the paper's measured FPS-vs-size response:
/// `fps(r) = fps(416) * (416/r)^p` with `p = ln(0.81)/ln(352/608)`.
pub const PAPER_FPS_EXPONENT: f64 = 0.3856;

/// How FPS responds to input size in the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpsResponse {
    /// Pure roofline projection (physically consistent with FLOP scaling).
    Roofline,
    /// The paper's measured, much flatter response (x0.81 over 352→608),
    /// anchored to the roofline projection at 416.
    PaperFlat,
}

/// Platform whose performance model provides FPS.
const PLATFORM: PlatformId = PlatformId::IntelI5_2520M;

/// Sweep configuration. Every sweep evaluates all four models
/// ([`ModelId::ALL`]) on the i5-2520M.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Square input sizes to evaluate.
    pub inputs: Vec<usize>,
    /// Score weights for ranking (the paper's eq. 3 weights by default).
    pub weights: ScoreWeights,
    /// FPS-vs-resolution response.
    pub fps_response: FpsResponse,
}

impl SweepConfig {
    /// The paper's full Section IV-A sweep: 4 models × sizes 352–608 on
    /// the i5-2520M, with the paper's measured FPS response (reproduces
    /// Figs. 3–4 as published).
    pub fn paper() -> Self {
        SweepConfig {
            inputs: zoo::input_sizes_sorted(),
            weights: ScoreWeights::paper(),
            fps_response: FpsResponse::PaperFlat,
        }
    }

    /// The same sweep under the physically consistent roofline response.
    pub fn roofline() -> Self {
        SweepConfig {
            fps_response: FpsResponse::Roofline,
            ..SweepConfig::paper()
        }
    }

    /// A reduced sweep (3 sizes) for doctests and quick checks.
    pub fn quick() -> Self {
        SweepConfig {
            inputs: vec![352, 416, 512],
            weights: ScoreWeights::paper(),
            fps_response: FpsResponse::PaperFlat,
        }
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::paper()
    }
}

/// One point of the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The model evaluated.
    pub model: ModelId,
    /// The square input size.
    pub input: usize,
    /// Raw metrics (FPS per the configured response, accuracy from the
    /// response model).
    pub metrics: MetricVector,
    /// Metrics normalised across the whole sweep (Fig. 3's scheme).
    pub normalized: MetricVector,
    /// The weighted composite score (eq. 3) over the normalised metrics.
    pub score: f64,
    /// Model GFLOPs at this input size.
    pub gflops: f64,
    /// Projected per-frame latency in milliseconds (roofline, regardless
    /// of the FPS response used for scoring).
    pub latency_ms: f64,
}

/// Runs the sweep, returning one result per (model, input) pair in
/// model-major order.
///
/// # Panics
///
/// Panics if the zoo fails to build a model (embedded cfgs are
/// compile-time constants, so this indicates a corrupted build).
pub fn cpu_sweep(config: &SweepConfig) -> Vec<SweepResult> {
    let platform = Platform::preset(PLATFORM);
    let mut points: Vec<(ModelId, usize, MetricVector, f64, f64)> = Vec::new();
    for model in ModelId::ALL {
        // Build once and resize per sweep point (weights are irrelevant to
        // cost accounting, and construction dominates sweep time).
        let mut net = zoo::build(model, response::REFERENCE_INPUT)
            .unwrap_or_else(|e| panic!("embedded cfg for {model} failed to build: {e}"));
        // Anchor for the PaperFlat response: roofline FPS at 416.
        let fps_at_416 = platform.project(&net).fps.0;
        for &input in &config.inputs {
            net.set_input_size(input, input)
                .expect("sweep sizes are positive");
            let gflops = NetworkSummary::of(model.name(), &net).total_gflops();
            let projection = platform.project(&net);
            let fps = match config.fps_response {
                FpsResponse::Roofline => projection.fps.0,
                FpsResponse::PaperFlat => {
                    fps_at_416
                        * (response::REFERENCE_INPUT as f64 / input as f64).powf(PAPER_FPS_EXPONENT)
                }
            };
            let mut metrics = response::predict(model, input);
            metrics.fps = fps;
            points.push((
                model,
                input,
                metrics,
                gflops,
                projection.latency.as_secs_f64() * 1e3,
            ));
        }
    }
    let raw: Vec<MetricVector> = points.iter().map(|p| p.2).collect();
    let normalized = normalize_metrics(&raw);
    let scores = score_candidates(&raw, &config.weights);
    points
        .into_iter()
        .zip(normalized)
        .zip(scores)
        .map(
            |(((model, input, metrics, gflops, latency_ms), norm), score)| SweepResult {
                model,
                input,
                metrics,
                normalized: norm,
                score,
                gflops,
                latency_ms,
            },
        )
        .collect()
}

/// The best-scoring configuration per model (the paper's Fig. 4 bars).
pub fn best_per_model(results: &[SweepResult]) -> Vec<&SweepResult> {
    let mut best: Vec<&SweepResult> = Vec::new();
    let mut models: Vec<ModelId> = results.iter().map(|r| r.model).collect();
    models.dedup();
    for model in models {
        if let Some(b) = results
            .iter()
            .filter(|r| r.model == model)
            .max_by(|a, b| a.score.total_cmp(&b.score))
        {
            best.push(b);
        }
    }
    best
}

/// Finds the result for a specific (model, input) pair.
pub fn find(results: &[SweepResult], model: ModelId, input: usize) -> Option<&SweepResult> {
    results
        .iter()
        .find(|r| r.model == model && r.input == input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn paper_sweep() -> &'static [SweepResult] {
        static CACHE: OnceLock<Vec<SweepResult>> = OnceLock::new();
        CACHE.get_or_init(|| cpu_sweep(&SweepConfig::paper()))
    }

    fn roofline_sweep() -> &'static [SweepResult] {
        static CACHE: OnceLock<Vec<SweepResult>> = OnceLock::new();
        CACHE.get_or_init(|| cpu_sweep(&SweepConfig::roofline()))
    }

    #[test]
    fn sweep_covers_the_grid() {
        let results = paper_sweep();
        assert_eq!(results.len(), 4 * 9);
        assert!(find(results, ModelId::DroNet, 512).is_some());
        assert!(find(results, ModelId::DroNet, 500).is_none());
    }

    #[test]
    fn normalised_metrics_are_unit_bounded() {
        for r in paper_sweep() {
            assert!(r.normalized.fps <= 1.0 + 1e-9);
            assert!(r.normalized.iou <= 1.0 + 1e-6);
            assert!(r.normalized.sensitivity <= 1.0 + 1e-6);
            assert!(r.normalized.precision <= 1.0 + 1e-6);
            assert!(r.score > 0.0 && r.score <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn dronet_512_maximises_score_under_paper_fps_response() {
        // Paper: "a size of 512x512 maximizes the weighted score metric of
        // the DroNet model" — holds under the paper's measured (flat) FPS
        // response.
        let results = paper_sweep();
        let best = results
            .iter()
            .filter(|r| r.model == ModelId::DroNet)
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        // The score surface is a plateau over 480-608 (differences in the
        // 4th decimal); require the optimum to sit in the upper-size
        // region and 512 to be within 0.1% of it.
        assert!(
            best.input >= 448,
            "DroNet best input {} (paper: 512)",
            best.input
        );
        let at_512 = find(results, ModelId::DroNet, 512).unwrap();
        assert!(
            at_512.score >= 0.999 * best.score,
            "512 score {} vs best {} at {}",
            at_512.score,
            best.score,
            best.input
        );
    }

    #[test]
    fn roofline_response_prefers_small_inputs() {
        // Under physically consistent FLOP scaling the FPS term dominates
        // and the score peaks at the smallest input — documenting that the
        // paper's 512 selection hinges on its flat measured FPS response.
        let results = roofline_sweep();
        let best = results
            .iter()
            .filter(|r| r.model == ModelId::DroNet)
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        assert!(best.input <= 416, "roofline best input {}", best.input);
    }

    #[test]
    fn best_per_model_ranks_dronet_first() {
        for results in [paper_sweep(), roofline_sweep()] {
            let best = best_per_model(results);
            assert_eq!(best.len(), 4);
            let winner = best
                .iter()
                .max_by(|a, b| a.score.total_cmp(&b.score))
                .unwrap();
            assert_eq!(winner.model, ModelId::DroNet, "paper: DroNet wins Fig. 4");
        }
    }

    #[test]
    fn dronet_outscores_tinyyolovoc() {
        // Paper reports a 3% score edge; with a shared FPS normalisation
        // and a 30x raw FPS gap our margin is larger (see EXPERIMENTS.md).
        let results = paper_sweep();
        let best = |m: ModelId| {
            results
                .iter()
                .filter(|r| r.model == m)
                .map(|r| r.score)
                .fold(f64::MIN, f64::max)
        };
        assert!(best(ModelId::DroNet) > best(ModelId::TinyYoloVoc));
        // And TinyYoloVoc still beats the accuracy-poor SmallYoloV3 on the
        // accuracy metrics at every size.
        for input in [352usize, 416, 512] {
            let voc = find(results, ModelId::TinyYoloVoc, input).unwrap();
            let small = find(results, ModelId::SmallYoloV3, input).unwrap();
            assert!(voc.metrics.sensitivity > small.metrics.sensitivity);
        }
    }

    #[test]
    fn paper_fps_response_matches_081_over_full_range() {
        let results = paper_sweep();
        for model in ModelId::ALL {
            let lo = find(results, model, 352).unwrap().metrics.fps;
            let hi = find(results, model, 608).unwrap().metrics.fps;
            let ratio = hi / lo;
            assert!(
                (0.78..=0.84).contains(&ratio),
                "{model}: 352->608 FPS ratio {ratio} (paper: 0.81)"
            );
        }
    }

    #[test]
    fn fps_decreases_with_input_size_in_both_responses() {
        for results in [paper_sweep(), roofline_sweep()] {
            for model in ModelId::ALL {
                let mut per_model: Vec<&SweepResult> =
                    results.iter().filter(|r| r.model == model).collect();
                per_model.sort_by_key(|r| r.input);
                for pair in per_model.windows(2) {
                    assert!(
                        pair[0].metrics.fps > pair[1].metrics.fps,
                        "{model}: FPS should fall with input size"
                    );
                    assert!(pair[0].metrics.sensitivity < pair[1].metrics.sensitivity);
                }
            }
        }
    }

    #[test]
    fn latency_tracks_gflops_within_a_model() {
        let results = roofline_sweep();
        for model in ModelId::ALL {
            let mut per_model: Vec<&SweepResult> =
                results.iter().filter(|r| r.model == model).collect();
            per_model.sort_by_key(|r| r.input);
            for pair in per_model.windows(2) {
                assert!(pair[1].gflops > pair[0].gflops);
                assert!(pair[1].latency_ms > pair[0].latency_ms);
            }
        }
    }
}
