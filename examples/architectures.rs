//! Reproduces Fig. 1 (baseline network structures) and Fig. 2 (the DroNet
//! architecture) as layer tables, together with the cost comparison that
//! motivates the paper's design choices.
//!
//! ```text
//! cargo run --release --example architectures
//! ```

use dronet::core::{zoo, ModelId};
use dronet::eval::figures;
use dronet::nn::summary::NetworkSummary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Fig. 1: baseline network structures (input 416) ===\n");
    for summary in figures::fig1_architectures() {
        println!("{summary}");
    }

    println!("=== Fig. 2: the proposed DroNet detector (input 512) ===\n");
    println!("{}", figures::fig2_dronet());

    println!("=== Cost comparison @416 (the design-space rationale) ===\n");
    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>12}",
        "model", "GFLOPs", "params", "weights (MB)", "vs DroNet"
    );
    let flops = |s: &NetworkSummary| s.rows.iter().map(|r| r.cost.flops).sum::<f64>();
    let dronet_flops = flops(&NetworkSummary::of(
        "DroNet",
        &zoo::build(ModelId::DroNet, 416)?,
    ));
    for id in ModelId::ALL {
        let s = NetworkSummary::of(id.name(), &zoo::build(id, 416)?);
        let weight_bytes: f64 = s.rows.iter().map(|r| r.cost.weight_bytes).sum();
        println!(
            "{:<14} {:>10.3} {:>12} {:>14.2} {:>11.1}x",
            id.name(),
            s.total_gflops(),
            s.total_params(),
            weight_bytes / (1024.0 * 1024.0),
            flops(&s) / dronet_flops
        );
    }
    Ok(())
}
