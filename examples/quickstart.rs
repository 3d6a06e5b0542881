//! Quickstart: build the paper's models, inspect their cost, project
//! their frame rates on the paper's three platforms, and run a frame
//! through the detection pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dronet::core::{zoo, ModelId};
use dronet::data::scene::{SceneConfig, SceneGenerator};
use dronet::detect::DetectorBuilder;
use dronet::metrics::FpsMeter;
use dronet::nn::summary::NetworkSummary;
use dronet::platform::{Platform, PlatformId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build DroNet at the paper's selected 512x512 input.
    let net = zoo::build(ModelId::DroNet, 512)?;
    let summary = NetworkSummary::of("DroNet", &net);
    println!("{summary}");

    // 2. Project its frame rate on the paper's platforms.
    println!("projected performance of DroNet-512:");
    for id in PlatformId::EVALUATION {
        let projection = Platform::preset(id).project(&net);
        println!(
            "  {:16} {:>8.1} ms/frame  {:>6.2} FPS",
            id.name(),
            projection.latency.as_secs_f64() * 1e3,
            projection.fps.0
        );
    }

    // 3. Compare against the Tiny-YOLO-VOC baseline on the Odroid.
    let voc = zoo::build(ModelId::TinyYoloVoc, 512)?;
    let odroid = Platform::preset(PlatformId::OdroidXu4);
    let speedup = odroid.project(&net).fps.0 / odroid.project(&voc).fps.0;
    println!("\nDroNet vs TinyYoloVoc on the Odroid-XU4: {speedup:.0}x faster");

    // 4. Run a synthetic aerial frame through the detector (untrained
    //    weights — see the train_dronet example for real detections).
    let scene = SceneGenerator::new(SceneConfig::default(), 7).generate();
    println!(
        "\nsynthetic scene: {:?} with {} annotated vehicles",
        scene.kind,
        scene.annotations.len()
    );
    let mut detector = DetectorBuilder::new(zoo::build(ModelId::DroNet, 256)?).build()?;
    let frame = scene.image.resize(256, 256).to_tensor();
    let mut meter = FpsMeter::new();
    meter.start();
    let detections = detector.detect(&frame)?;
    meter.stop();
    println!(
        "untrained DroNet-256 inference: {} raw detections in {:.1} ms",
        detections.len(),
        meter.mean_latency().as_secs_f64() * 1e3
    );
    Ok(())
}
