//! Regeneration of every figure/table in the paper's evaluation section
//! as text tables (and CSV via [`dronet_metrics::report::Table::to_csv`]).

use crate::platform::{Platform, PlatformId};
use crate::response;
use crate::sweep::{best_per_model, SweepResult};
use dronet_core::{zoo, ModelId};
use dronet_metrics::report::{fmt3, Table};
use dronet_nn::summary::NetworkSummary;

/// Fig. 1 — "Baseline Network Structures": one architecture summary per
/// model at the canonical 416 input.
pub fn fig1_architectures() -> Vec<NetworkSummary> {
    ModelId::ALL
        .iter()
        .map(|&id| {
            let net = zoo::build(id, 416).expect("embedded cfg");
            NetworkSummary::of(id.name(), &net)
        })
        .collect()
}

/// Fig. 2 — the DroNet architecture at its selected input (512).
pub fn fig2_dronet() -> NetworkSummary {
    let input = ModelId::DroNet.default_input();
    let net = zoo::build(ModelId::DroNet, input).expect("embedded cfg");
    NetworkSummary::of(format!("DroNet (Fig. 2, input {input})"), &net)
}

/// Fig. 3 — normalised metrics for every (model, input size) point of a
/// sweep.
pub fn fig3_table(results: &[SweepResult]) -> Table {
    let mut table = Table::new(
        "Fig. 3 — normalized metrics per model and input size (i5-2520M)",
        &[
            "model",
            "input",
            "FPS",
            "norm FPS",
            "norm IoU",
            "norm Sens",
            "norm Prec",
        ],
    );
    for r in results {
        table.push_row(vec![
            r.model.name().to_string(),
            r.input.to_string(),
            format!("{:.2}", r.metrics.fps),
            fmt3(r.normalized.fps),
            fmt3(f64::from(r.normalized.iou)),
            fmt3(f64::from(r.normalized.sensitivity)),
            fmt3(f64::from(r.normalized.precision)),
        ]);
    }
    table
}

/// Fig. 4 — the weighted composite score of the best configuration per
/// model.
pub fn fig4_table(results: &[SweepResult]) -> Table {
    let mut table = Table::new(
        "Fig. 4 — weighted Score (w = [0.4 FPS, 0.2 IoU, 0.2 Sens, 0.2 Prec]) of best configs",
        &["model", "best input", "FPS", "IoU", "Sens", "Prec", "Score"],
    );
    let mut best = best_per_model(results);
    best.sort_by(|a, b| b.score.total_cmp(&a.score));
    for r in best {
        table.push_row(vec![
            r.model.name().to_string(),
            r.input.to_string(),
            format!("{:.2}", r.metrics.fps),
            fmt3(f64::from(r.metrics.iou)),
            fmt3(f64::from(r.metrics.sensitivity)),
            fmt3(f64::from(r.metrics.precision)),
            fmt3(r.score),
        ]);
    }
    table
}

/// §IV-B / Fig. 5 — the UAV deployment table: DroNet-512 and TinyYoloVoc
/// on every evaluation platform.
pub fn fig5_table() -> Table {
    let mut table = Table::new(
        "Fig. 5 / Section IV-B — UAV platform deployment (projected)",
        &[
            "platform",
            "model",
            "input",
            "latency ms",
            "FPS",
            "sens",
            "accuracy",
        ],
    );
    for platform_id in PlatformId::EVALUATION {
        let platform = Platform::preset(platform_id);
        for (model, input) in [(ModelId::DroNet, 512usize), (ModelId::TinyYoloVoc, 512)] {
            let net = zoo::build(model, input).expect("embedded cfg");
            let projection = platform.project(&net);
            let acc = response::predict(model, input);
            table.push_row(vec![
                platform_id.name().to_string(),
                model.name().to_string(),
                input.to_string(),
                format!("{:.1}", projection.latency.as_secs_f64() * 1e3),
                format!("{:.2}", projection.fps.0),
                fmt3(f64::from(acc.sensitivity)),
                fmt3(f64::from(response::combined_accuracy(&acc))),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{cpu_sweep, SweepConfig};

    #[test]
    fn fig1_has_four_models_with_paper_structure() {
        let summaries = fig1_architectures();
        assert_eq!(summaries.len(), 4);
        for s in &summaries {
            assert_eq!(s.conv_count(), 9, "{}", s.name);
            assert!((4..=6).contains(&s.maxpool_count()));
        }
    }

    #[test]
    fn fig2_is_dronet_at_512() {
        let s = fig2_dronet();
        assert!(s.name.contains("DroNet"));
        assert_eq!(s.input, (3, 512, 512));
        // The text render mentions both 3x3 and 1x1 convolutions (the
        // paper's Fig. 2 caption).
        let text = s.to_string();
        assert!(text.contains("3x3/1"));
        assert!(text.contains("1x1/1"));
    }

    #[test]
    fn fig3_and_fig4_tables_render() {
        let results = cpu_sweep(&SweepConfig::quick());
        let f3 = fig3_table(&results);
        assert_eq!(f3.row_count(), results.len());
        assert!(f3.to_text().contains("DroNet"));
        assert!(f3.to_csv().lines().count() == results.len() + 1);

        let f4 = fig4_table(&results);
        assert_eq!(f4.row_count(), 4);
        // DroNet is the top row (highest score).
        assert!(f4.to_csv().lines().nth(1).unwrap().starts_with("DroNet"));
    }

    #[test]
    fn fig5_covers_three_platforms_and_two_models() {
        let t = fig5_table();
        assert_eq!(t.row_count(), 6);
        let text = t.to_text();
        assert!(text.contains("Odroid-XU4"));
        assert!(text.contains("Raspberry Pi 3"));
        assert!(text.contains("TinyYoloVoc"));
    }
}
