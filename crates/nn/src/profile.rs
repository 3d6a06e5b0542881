//! Runtime profiles: joins the telemetry recorded by an observed
//! [`Network`](crate::Network) with the static FLOP accounting of
//! [`NetworkSummary`] into a Darknet-style per-layer breakdown with
//! achieved GFLOP/s — the table the paper's efficiency argument (FPS per
//! platform at fixed accuracy) is made from.
//!
//! ```
//! use dronet_nn::profile::NetworkProfile;
//! use dronet_nn::summary::NetworkSummary;
//! use dronet_nn::{Activation, Conv2d, Layer, Network};
//! use dronet_obs::Registry;
//! use dronet_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), dronet_nn::NnError> {
//! let mut net = Network::new(3, 16, 16);
//! net.push(Layer::conv(Conv2d::new(3, 4, 3, 1, 1, Activation::Leaky, true)?));
//! let obs = Registry::new();
//! net.set_observability(&obs);
//! net.forward(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))?;
//! let profile = NetworkProfile::new(&NetworkSummary::of("demo", &net), &obs.snapshot());
//! assert_eq!(profile.rows[0].samples, 1);
//! println!("{profile}");
//! # Ok(())
//! # }
//! ```

use crate::summary::NetworkSummary;
use crate::LayerKind;
use dronet_obs::Snapshot;
use std::fmt;
use std::time::Duration;

/// Metric-name slug for a layer kind (also the per-layer trace-span name;
/// the layer index rides in the span's aux field).
pub fn kind_slug(kind: LayerKind) -> &'static str {
    match kind {
        LayerKind::Convolutional => "conv",
        LayerKind::MaxPool => "maxpool",
        LayerKind::Region => "region",
    }
}

/// Histogram name an observed network times layer `index`'s forward pass
/// into (e.g. `nn.forward.L03.conv`).
pub fn forward_metric_name(index: usize, kind: LayerKind) -> String {
    format!("nn.forward.L{index:02}.{}", kind_slug(kind))
}

/// Histogram name an observed network times layer `index`'s backward pass
/// into (e.g. `nn.backward.L03.conv`).
pub fn backward_metric_name(index: usize, kind: LayerKind) -> String {
    format!("nn.backward.L{index:02}.{}", kind_slug(kind))
}

/// One layer's joined static cost and measured runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Layer index in execution order.
    pub index: usize,
    /// Layer kind.
    pub kind: LayerKind,
    /// Forward FLOPs at the summarised input size.
    pub flops: f64,
    /// Recorded forward passes.
    pub samples: u64,
    /// Mean forward latency (zero when never recorded).
    pub forward_mean: Duration,
    /// 99th-percentile forward latency.
    pub forward_p99: Duration,
    /// Mean backward latency, when any backward pass was recorded.
    pub backward_mean: Option<Duration>,
    /// Achieved forward throughput, GFLOP/s: `None` without samples, and
    /// for a layer the summary marks
    /// [`absorbed`](crate::summary::SummaryRow::absorbed), whose samples
    /// time no work of its own.
    pub gflops_per_sec: Option<f64>,
}

/// A whole-network runtime profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Network name (from the summary).
    pub name: String,
    /// Per-layer rows, in execution order.
    pub rows: Vec<LayerProfile>,
    /// Mean whole-network forward latency (`nn.forward.total`), when
    /// recorded.
    pub forward_total: Option<Duration>,
    /// Mean whole-network backward latency (`nn.backward.total`), when
    /// recorded.
    pub backward_total: Option<Duration>,
    /// Total forward FLOPs of the network.
    pub total_flops: f64,
}

impl NetworkProfile {
    /// Joins `summary` (static costs) with `snapshot` (recorded timings).
    ///
    /// Layers the snapshot has no histogram for get zeroed timing columns,
    /// so a profile can be built from partial runs.
    pub fn new(summary: &NetworkSummary, snapshot: &Snapshot) -> Self {
        let rows = summary
            .rows
            .iter()
            .map(|row| {
                let fwd = snapshot.histogram(&forward_metric_name(row.index, row.kind));
                let bwd = snapshot.histogram(&backward_metric_name(row.index, row.kind));
                let samples = fwd.map_or(0, |h| h.count);
                let forward_mean = fwd.map_or(Duration::ZERO, |h| h.mean());
                let forward_p99 = Duration::from_nanos(fwd.map_or(0, |h| h.quantile_ns(0.99)));
                let secs = forward_mean.as_secs_f64();
                LayerProfile {
                    index: row.index,
                    kind: row.kind,
                    flops: row.cost.flops,
                    samples,
                    forward_mean,
                    forward_p99,
                    backward_mean: bwd.filter(|h| h.count > 0).map(|h| h.mean()),
                    gflops_per_sec: (secs > 0.0 && !row.absorbed)
                        .then(|| row.cost.flops / secs / 1e9),
                }
            })
            .collect();
        NetworkProfile {
            name: summary.name.clone(),
            rows,
            forward_total: snapshot
                .histogram("nn.forward.total")
                .filter(|h| h.count > 0)
                .map(|h| h.mean()),
            backward_total: snapshot
                .histogram("nn.backward.total")
                .filter(|h| h.count > 0)
                .map(|h| h.mean()),
            total_flops: summary.rows.iter().map(|r| r.cost.flops).sum(),
        }
    }

    /// Whole-network achieved forward throughput in GFLOP/s, when a total
    /// forward time was recorded.
    pub fn achieved_gflops(&self) -> Option<f64> {
        let secs = self.forward_total?.as_secs_f64();
        (secs > 0.0).then(|| self.total_flops / secs / 1e9)
    }

    /// Layer indices sorted by descending mean forward time — where the
    /// milliseconds go.
    pub fn hotspots(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| {
            self.rows[b]
                .forward_mean
                .cmp(&self.rows[a].forward_mean)
                .then(a.cmp(&b))
        });
        order
    }
}

/// Renders a duration with a unit fitting its magnitude.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        "-".to_string()
    } else if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

impl fmt::Display for NetworkProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} runtime profile", self.name)?;
        writeln!(
            f,
            "{:>3}  {:<14} {:>10} {:>12} {:>12} {:>9} {:>12}",
            "#", "layer", "MFLOPs", "fwd mean", "fwd p99", "GFLOP/s", "bwd mean"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>3}  {:<14} {:>10.2} {:>12} {:>12} {:>9} {:>12}",
                row.index,
                row.kind.as_str(),
                row.flops / 1e6,
                fmt_duration(row.forward_mean),
                fmt_duration(row.forward_p99),
                row.gflops_per_sec
                    .map_or_else(|| "-".to_string(), |g| format!("{g:.2}")),
                row.backward_mean
                    .map_or_else(|| "-".to_string(), fmt_duration),
            )?;
        }
        match (self.forward_total, self.achieved_gflops()) {
            (Some(total), Some(gflops)) => writeln!(
                f,
                "total: {} mean forward ({:.3} GFLOPs -> {:.2} GFLOP/s achieved)",
                fmt_duration(total),
                self.total_flops / 1e9,
                gflops
            ),
            _ => writeln!(
                f,
                "total: no recorded forward passes ({:.3} GFLOPs static)",
                self.total_flops / 1e9
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Conv2d, Layer, MaxPool2d, Network};
    use dronet_obs::Registry;
    use dronet_tensor::{Shape, Tensor};

    fn observed_net() -> (Network, Registry) {
        let mut net = Network::new(3, 16, 16);
        net.push(Layer::conv(
            Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(8, 4, 1, 1, 0, Activation::Linear, false).unwrap(),
        ));
        let obs = Registry::new();
        net.set_observability(&obs);
        (net, obs)
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(
            forward_metric_name(3, LayerKind::Convolutional),
            "nn.forward.L03.conv"
        );
        assert_eq!(
            backward_metric_name(12, LayerKind::MaxPool),
            "nn.backward.L12.maxpool"
        );
    }

    #[test]
    fn profile_joins_timings_with_flops() {
        let (mut net, obs) = observed_net();
        let x = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
        for _ in 0..3 {
            net.forward(&x).unwrap();
        }
        let summary = NetworkSummary::of("demo", &net);
        let profile = NetworkProfile::new(&summary, &obs.snapshot());
        assert_eq!(profile.rows.len(), 3);
        for row in &profile.rows {
            assert_eq!(row.samples, 3, "layer {} unsampled", row.index);
            assert!(row.forward_mean > Duration::ZERO);
        }
        // Conv layers do the FLOPs, so they report achieved throughput.
        assert!(profile.rows[0].gflops_per_sec.unwrap() > 0.0);
        assert!(profile.forward_total.is_some());
        assert!(profile.achieved_gflops().unwrap() > 0.0);
        assert!(profile.backward_total.is_none(), "no backward pass ran");
        assert_eq!(profile.hotspots().len(), 3);
    }

    #[test]
    fn profile_tolerates_missing_timings() {
        let (net, _obs) = observed_net();
        let summary = NetworkSummary::of("cold", &net);
        let profile = NetworkProfile::new(&summary, &Registry::new().snapshot());
        assert!(profile.rows.iter().all(|r| r.samples == 0));
        assert_eq!(profile.achieved_gflops(), None);
        let text = profile.to_string();
        assert!(text.contains("no recorded forward passes"));
    }

    #[test]
    fn display_renders_breakdown() {
        let (mut net, obs) = observed_net();
        net.forward(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
            .unwrap();
        let profile = NetworkProfile::new(&NetworkSummary::of("demo", &net), &obs.snapshot());
        let text = profile.to_string();
        assert!(text.contains("GFLOP/s"));
        assert!(text.contains("convolutional"));
        assert!(text.contains("achieved"));
    }

    #[test]
    fn fmt_duration_picks_units() {
        assert_eq!(fmt_duration(Duration::ZERO), "-");
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
