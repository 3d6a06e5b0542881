//! The model zoo: the four architectures of the paper's design-space
//! exploration, shipped as Darknet-style cfg files (embedded at compile
//! time) and built through the `dronet-nn` cfg parser.
//!
//! All four models detect one class (top-view vehicles) with 5 anchors and
//! follow the paper's structural constraints: 9 convolutional layers each,
//! 4–6 max-pooling layers, filter counts growing with depth.

use dronet_nn::{cfg, Network, NnError, Result};
use std::fmt;
use std::str::FromStr;

/// Identifier of one of the paper's four explored architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// The paper's proposed model (Fig. 2): cheapest accurate detector.
    DroNet,
    /// Tiny-YOLO-VOC adapted to one class: the accuracy baseline.
    TinyYoloVoc,
    /// Filter-halved Tiny-YOLO: the paper's mid-range trade-off point.
    TinyYoloNet,
    /// The thinnest exploration point: fastest, much lower sensitivity.
    SmallYoloV3,
}

impl ModelId {
    /// All four models, in the order the paper's figures list them.
    pub const ALL: [ModelId; 4] = [
        ModelId::TinyYoloVoc,
        ModelId::TinyYoloNet,
        ModelId::SmallYoloV3,
        ModelId::DroNet,
    ];

    /// The model's display name, matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::DroNet => "DroNet",
            ModelId::TinyYoloVoc => "TinyYoloVoc",
            ModelId::TinyYoloNet => "TinyYoloNet",
            ModelId::SmallYoloV3 => "SmallYoloV3",
        }
    }

    /// The embedded Darknet-style cfg text describing this model.
    pub fn cfg_text(self) -> &'static str {
        match self {
            ModelId::DroNet => include_str!("../cfgs/dronet.cfg"),
            ModelId::TinyYoloVoc => include_str!("../cfgs/tiny-yolo-voc.cfg"),
            ModelId::TinyYoloNet => include_str!("../cfgs/tiny-yolo-net.cfg"),
            ModelId::SmallYoloV3 => include_str!("../cfgs/small-yolo-v3.cfg"),
        }
    }

    /// The input size the paper ultimately selects for this model on the
    /// UAV platform (512 for DroNet via the Fig. 4 score maximisation; the
    /// baselines default to YOLO's canonical 416).
    pub fn default_input(self) -> usize {
        match self {
            ModelId::DroNet => 512,
            _ => 416,
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown model name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelIdError {
    name: String,
}

impl fmt::Display for ParseModelIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown model {:?} (expected one of DroNet, TinyYoloVoc, TinyYoloNet, SmallYoloV3)",
            self.name
        )
    }
}

impl std::error::Error for ParseModelIdError {}

impl FromStr for ModelId {
    type Err = ParseModelIdError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dronet" => Ok(ModelId::DroNet),
            "tinyyolovoc" | "tiny-yolo-voc" => Ok(ModelId::TinyYoloVoc),
            "tinyyolonet" | "tiny-yolo-net" => Ok(ModelId::TinyYoloNet),
            "smallyolov3" | "small-yolo-v3" => Ok(ModelId::SmallYoloV3),
            other => Err(ParseModelIdError {
                name: other.to_string(),
            }),
        }
    }
}

/// Builds a model at the given square input resolution.
///
/// The paper sweeps input sizes from 352 to 608; any positive multiple of
/// the model's total downsampling factor (32 for most, 16 for SmallYoloV3)
/// works, and other sizes simply yield a truncated final grid exactly as
/// Darknet would.
///
/// # Errors
///
/// Returns [`NnError::BadLayerConfig`] for a zero input size and propagates
/// cfg-parse errors (which would indicate a corrupted embedded cfg).
pub fn build(id: ModelId, input: usize) -> Result<Network> {
    if input == 0 {
        return Err(NnError::BadLayerConfig {
            layer: "net",
            msg: "input size must be positive".to_string(),
        });
    }
    let mut net = cfg::parse(id.cfg_text())?;
    net.set_input_size(input, input)?;
    Ok(net)
}

/// Builds **MicroDroNet**: a proportionally scaled-down DroNet for
/// laptop-scale end-to-end training on the synthetic dataset.
///
/// Same design rules as DroNet (3×3 backbone with a 1×1 bottleneck,
/// filters doubling with depth, batch-norm + leaky everywhere, linear 1×1
/// prediction head) but with 3 max-pools (8× downsampling — a 64-pixel
/// input yields an 8×8 grid) and a configurable anchor set, typically
/// estimated from the dataset with
/// `dronet_eval::realeval::estimate_anchors`. This is the model the
/// repository actually *trains* to produce measured accuracy numbers; the
/// full-size zoo models are used for cost/performance reproduction.
///
/// # Errors
///
/// Returns [`NnError::BadLayerConfig`] for a zero input size or an empty
/// anchor list.
pub fn micro_dronet(input: usize, anchors: Vec<(f32, f32)>) -> Result<Network> {
    micro_dronet_with_width(input, anchors, 1)
}

/// [`micro_dronet`] with a channel-width multiplier (1 = the default thin
/// model, 2 = four times the compute and markedly better localisation on
/// the synthetic benchmark).
///
/// # Errors
///
/// Returns [`NnError::BadLayerConfig`] for a zero input size, zero width
/// or an empty anchor list.
pub fn micro_dronet_with_width(
    input: usize,
    anchors: Vec<(f32, f32)>,
    width: usize,
) -> Result<Network> {
    micro_detector(input, anchors, 1, width)
}

/// The fully general MicroDroNet constructor: configurable class count
/// (the paper's §V future work adds pedestrians/motorbikes as extra
/// classes) and channel width.
///
/// # Errors
///
/// Returns [`NnError::BadLayerConfig`] for a zero input size, zero width,
/// zero classes or an empty anchor list.
pub fn micro_detector(
    input: usize,
    anchors: Vec<(f32, f32)>,
    classes: usize,
    width: usize,
) -> Result<Network> {
    use dronet_nn::{Activation, Conv2d, Layer, MaxPool2d, RegionConfig, RegionLayer};
    if input == 0 || width == 0 || classes == 0 {
        return Err(NnError::BadLayerConfig {
            layer: "net",
            msg: format!(
                "input size ({input}), width ({width}) and classes ({classes}) must be positive"
            ),
        });
    }
    let head = anchors.len() * (5 + classes);
    let w = |c: usize| c * width;
    let mut net = Network::new(3, input, input);
    net.push(Layer::conv(Conv2d::new(
        3,
        w(8),
        3,
        1,
        1,
        Activation::Leaky,
        true,
    )?));
    net.push(Layer::max_pool(MaxPool2d::new(2, 2)?));
    net.push(Layer::conv(Conv2d::new(
        w(8),
        w(16),
        3,
        1,
        1,
        Activation::Leaky,
        true,
    )?));
    net.push(Layer::max_pool(MaxPool2d::new(2, 2)?));
    net.push(Layer::conv(Conv2d::new(
        w(16),
        w(32),
        3,
        1,
        1,
        Activation::Leaky,
        true,
    )?));
    net.push(Layer::max_pool(MaxPool2d::new(2, 2)?));
    net.push(Layer::conv(Conv2d::new(
        w(32),
        w(32),
        3,
        1,
        1,
        Activation::Leaky,
        true,
    )?));
    net.push(Layer::conv(Conv2d::new(
        w(32),
        w(16),
        1,
        1,
        0,
        Activation::Leaky,
        true,
    )?));
    net.push(Layer::conv(Conv2d::new(
        w(16),
        w(32),
        3,
        1,
        1,
        Activation::Leaky,
        true,
    )?));
    net.push(Layer::conv(Conv2d::new(
        w(32),
        head,
        1,
        1,
        0,
        Activation::Linear,
        false,
    )?));
    net.push(Layer::region(RegionLayer::new(RegionConfig {
        anchors,
        classes,
    })?));
    Ok(net)
}

/// The input sizes the paper's Section IV sweep covers (352–608 in
/// Darknet's canonical 32-pixel steps).
pub const PAPER_INPUT_SIZES: [usize; 9] = [352, 384, 416, 448, 480, 512, 544, 608, 576];

/// Input sizes in ascending order (the unsorted constant preserves the
/// paper's table ordering quirk; use this for sweeps).
pub fn input_sizes_sorted() -> Vec<usize> {
    let mut sizes = PAPER_INPUT_SIZES.to_vec();
    sizes.sort_unstable();
    sizes
}

/// The paper's Section IV resolution sweep as a runtime degradation
/// ladder: ascending input sizes an overloaded deployment can walk down
/// (608 → … → 352) trading accuracy for throughput, and back up once the
/// load clears. This is the ladder `dronet-detect`'s degradation
/// controller shifts along.
pub fn resolution_ladder() -> Vec<usize> {
    input_sizes_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_nn::summary::NetworkSummary;

    #[test]
    fn all_models_build_and_have_nine_convs() {
        for id in ModelId::ALL {
            let net = build(id, 416).unwrap();
            let summary = NetworkSummary::of(id.name(), &net);
            assert_eq!(summary.conv_count(), 9, "{id}");
            let pools = summary.maxpool_count();
            assert!(
                (4..=6).contains(&pools),
                "{id} has {pools} maxpools, paper says 4-6"
            );
        }
    }

    #[test]
    fn flop_ratios_match_paper_shape() {
        let gflops =
            |id: ModelId| NetworkSummary::of(id.name(), &build(id, 416).unwrap()).total_gflops();
        let voc = gflops(ModelId::TinyYoloVoc);
        let net = gflops(ModelId::TinyYoloNet);
        let small = gflops(ModelId::SmallYoloV3);
        let dronet = gflops(ModelId::DroNet);

        // Tiny-YOLO-VOC is the published ~6.9 GFLOP model.
        assert!((voc - 6.9).abs() < 0.6, "TinyYoloVoc {voc} GFLOPs");
        // Paper: TinyYoloNet ~10x faster than TinyYoloVoc (we accept 6-12x
        // in pure FLOPs; fixed per-layer overheads push wall-clock higher).
        let r_net = voc / net;
        assert!((5.0..=13.0).contains(&r_net), "voc/net = {r_net}");
        // Paper: DroNet ~30x faster than TinyYoloVoc.
        let r_dronet = voc / dronet;
        assert!((20.0..=40.0).contains(&r_dronet), "voc/dronet = {r_dronet}");
        // SmallYoloV3 is the fastest model.
        assert!(small < dronet, "small {small} vs dronet {dronet}");
        // Ordering: voc > net > dronet > small.
        assert!(voc > net && net > dronet && dronet > small);
    }

    #[test]
    fn output_grids_at_paper_sizes() {
        // DroNet downsamples 32x: 512 -> 16x16 grid with 30 channels.
        let net = build(ModelId::DroNet, 512).unwrap();
        assert_eq!(net.output_chw(), (30, 16, 16));
        // SmallYoloV3 downsamples 16x: 416 -> 26x26.
        let net = build(ModelId::SmallYoloV3, 416).unwrap();
        assert_eq!(net.output_chw(), (30, 26, 26));
        // TinyYoloVoc at 416 gives the classic 13x13.
        let net = build(ModelId::TinyYoloVoc, 416).unwrap();
        assert_eq!(net.output_chw(), (30, 13, 13));
    }

    #[test]
    fn input_size_sweep_changes_cost_quadratically() {
        let gflops = |input| {
            NetworkSummary::of("DroNet", &build(ModelId::DroNet, input).unwrap()).total_gflops()
        };
        let (g352, g608) = (gflops(352), gflops(608));
        let ratio = g608 / g352;
        let expected = (608.0f64 / 352.0).powi(2);
        assert!(
            (ratio / expected - 1.0).abs() < 0.1,
            "ratio {ratio} vs {expected}"
        );
    }

    #[test]
    fn names_parse_roundtrip() {
        for id in ModelId::ALL {
            assert_eq!(id.name().parse::<ModelId>().unwrap(), id);
        }
        assert!("yolo9000".parse::<ModelId>().is_err());
        assert_eq!(
            "tiny-yolo-voc".parse::<ModelId>().unwrap(),
            ModelId::TinyYoloVoc
        );
    }

    #[test]
    fn defaults_match_paper_selection() {
        assert_eq!(ModelId::DroNet.default_input(), 512);
        let net = build(ModelId::DroNet, ModelId::DroNet.default_input()).unwrap();
        assert_eq!(net.input_chw(), (3, 512, 512));
    }

    #[test]
    fn zero_input_is_rejected() {
        assert!(build(ModelId::DroNet, 0).is_err());
    }

    #[test]
    fn paper_sweep_sizes_are_canonical() {
        let sorted = input_sizes_sorted();
        assert_eq!(sorted.first(), Some(&352));
        assert_eq!(sorted.last(), Some(&608));
        assert!(sorted.windows(2).all(|w| w[1] - w[0] == 32));
    }

    #[test]
    fn ladder_steps_walk_the_sweep() {
        assert_eq!(resolution_ladder(), input_sizes_sorted());
    }

    #[test]
    fn all_models_run_a_forward_pass_at_small_size() {
        use dronet_tensor::{Shape, Tensor};
        for id in ModelId::ALL {
            let mut net = build(id, 96).unwrap();
            let y = net
                .forward(&Tensor::zeros(Shape::nchw(1, 3, 96, 96)))
                .unwrap();
            assert_eq!(y.shape().channels(), 30, "{id}");
        }
    }
}
