//! End-to-end training demonstration: the paper's full pipeline — data
//! collection, training with the YOLO loss, and evaluation — executed for
//! real on the synthetic aerial dataset with the scaled MicroDroNet.
//!
//! Trains in ~3-4 minutes in release mode; pass `--quick` for a ~1 minute
//! run at reduced quality. Saves the trained weights next to the target
//! directory and a few detection visualisations as PPM images.
//!
//! ```text
//! cargo run --release --example train_dronet            # full demo
//! cargo run --release --example train_dronet -- --quick # fast smoke run
//! ```

use dronet::core::zoo;
use dronet::data::dataset::VehicleDataset;
use dronet::data::scene::SceneConfig;
use dronet::data::{ppm, Image};
use dronet::detect::DetectorBuilder;
use dronet::eval::realeval::{estimate_anchors, evaluate_detector};
use dronet::nn::weights;
use dronet::train::{LrSchedule, TrainConfig, Trainer, YoloLossConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (input, width, epochs, scenes) = if quick {
        (64usize, 2usize, 60usize, 100usize)
    } else {
        (96, 2, 60, 160)
    };

    // 1. "Data collection": the synthetic stand-in for the paper's 350
    //    aerial images (see DESIGN.md section 4).
    let config = SceneConfig {
        width: input,
        height: input,
        min_vehicles: 2,
        max_vehicles: 6,
        vehicle_len_frac: (0.12, 0.22),
        occlusion_prob: 0.05,
        ..SceneConfig::default()
    };
    let dataset = VehicleDataset::generate(config, scenes, 0.8, 42);
    println!(
        "dataset: {} scenes ({} train / {} test), {} annotated vehicles",
        dataset.scenes().len(),
        dataset.train().len(),
        dataset.test().len(),
        dataset.total_vehicles()
    );

    // 2. Anchor estimation (YOLOv2 practice; the paper inherits VOC
    //    anchors, which do not fit our much smaller synthetic vehicles).
    let grid = input / 8;
    let anchors = estimate_anchors(dataset.train(), grid, 3);
    println!("estimated anchors (grid cells): {anchors:?}");

    // 3. Training with the YOLO loss and Darknet-style SGD.
    let mut net = zoo::micro_dronet_with_width(input, anchors, width)?;
    println!(
        "MicroDroNet: {} parameters, {:.1} MFLOPs per frame",
        net.param_count(),
        dronet::nn::summary::NetworkSummary::of("MicroDroNet", &net).total_gflops() * 1e3
    );
    let t0 = Instant::now();
    let train_config = TrainConfig {
        epochs,
        batch_size: 8,
        schedule: LrSchedule::Steps {
            lr: 1.2e-3,
            steps: vec![(700, 0.2), (1000, 0.5)],
        },
        loss: YoloLossConfig { coord_scale: 2.5 },
        augment: false,
        seed: 1,
        ..TrainConfig::default()
    };
    Trainer::new(train_config).train_with(&mut net, &dataset, |epoch, loss| {
        if epoch % 10 == 0 {
            println!(
                "  epoch {epoch:>3}: loss {loss:>8.3}  ({:.0}s elapsed)",
                t0.elapsed().as_secs_f32()
            );
        }
    })?;
    println!("training finished in {:.0}s", t0.elapsed().as_secs_f32());

    // 4. Checkpoint the weights (Darknet-style binary format).
    let weights_path = std::env::temp_dir().join("microdronet.drnw");
    weights::save_to_path(&net, &weights_path)?;
    println!("weights saved to {}", weights_path.display());

    // 5. Evaluation: the paper's metrics, measured for real.
    let mut detector = DetectorBuilder::new(net)
        .confidence_threshold(0.4)
        .nms_threshold(0.45)
        .build()?;
    let outcome = evaluate_detector(&mut detector, dataset.test())?;
    println!(
        "\nmeasured on the held-out test split ({} scenes):",
        outcome.frames
    );
    println!("  sensitivity {:.3}", outcome.stats.sensitivity);
    println!("  precision   {:.3}", outcome.stats.precision);
    println!("  mean IoU    {:.3}", outcome.stats.mean_iou);
    println!("  accuracy    {:.3} (combined F1)", outcome.accuracy());
    println!("  host FPS    {:.1}", outcome.fps.0);

    // 6. Visualise detections vs ground truth on a few test scenes.
    let out_dir = std::env::temp_dir().join("dronet-detections");
    std::fs::create_dir_all(&out_dir)?;
    for (i, scene) in dataset.test().iter().take(3).enumerate() {
        let sample = VehicleDataset::sample(scene, input);
        let detections = detector.detect(&sample.image)?;
        let mut vis = Image::from_tensor(&sample.image);
        let (w, h) = (vis.width(), vis.height());
        for gt in &sample.boxes {
            let (x0, y0, x1, y1) = gt.to_pixels(w, h);
            vis.draw_rect_outline(x0, y0, x1, y1, [0.1, 0.9, 0.1]); // green = GT
        }
        for det in &detections {
            let (x0, y0, x1, y1) = det.bbox.to_pixels(w, h);
            vis.draw_rect_outline(x0, y0, x1, y1, [0.95, 0.2, 0.1]); // red = detection
        }
        let path = out_dir.join(format!("scene{i}.ppm"));
        ppm::write_to_path(&vis, &path)?;
        println!(
            "scene {i}: {} GT / {} detections -> {}",
            sample.boxes.len(),
            detections.len(),
            path.display()
        );
    }
    Ok(())
}
