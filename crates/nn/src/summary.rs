//! Human-readable network summaries — the reproduction of the paper's
//! Fig. 1 ("Baseline Network Structures") and Fig. 2 (DroNet architecture)
//! layer tables.

use crate::cost::{layer_cost, LayerCost};
use crate::{Conv2d, Layer, LayerKind, Network};
use std::fmt;

/// One row of a network summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Layer index in execution order.
    pub index: usize,
    /// Layer kind.
    pub kind: LayerKind,
    /// Filter count (convolutions only).
    pub filters: Option<usize>,
    /// Kernel/window size and stride as `size/stride`.
    pub size_stride: String,
    /// Input dimensions `c x h x w`.
    pub input: (usize, usize, usize),
    /// Output dimensions `c x h x w`.
    pub output: (usize, usize, usize),
    /// Compute/memory cost at this input size.
    pub cost: LayerCost,
    /// Whether inference runs this layer, a downsampling max pool, in the
    /// store of the convolution ahead of it at this input size, so that
    /// the convolution's time covers both.
    pub absorbed: bool,
}

/// A whole-network summary: rows plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSummary {
    /// Network name (for table headers).
    pub name: String,
    /// Nominal input `c x h x w`.
    pub input: (usize, usize, usize),
    /// Per-layer rows.
    pub rows: Vec<SummaryRow>,
}

impl NetworkSummary {
    /// Builds the summary of `net`, labelled `name`.
    pub fn of(name: impl Into<String>, net: &Network) -> Self {
        let (mut c, mut h, mut w) = net.input_chw();
        let mut rows = Vec::with_capacity(net.len());
        let mut ahead: Option<(&Conv2d, usize, usize)> = None;
        for (index, layer) in net.layers().iter().enumerate() {
            let absorbed = match (ahead, layer) {
                (Some((conv, h, w)), Layer::MaxPool(pool)) => conv.pools_through(pool, h, w),
                _ => false,
            };
            ahead = match layer {
                Layer::Conv(conv) => Some((conv, h, w)),
                _ => None,
            };
            let cost = layer_cost(layer, c, h, w);
            let output = layer.output_chw(c, h, w);
            let (filters, size_stride) = match layer {
                Layer::Conv(conv) => (
                    Some(conv.out_channels()),
                    format!("{}x{}/{}", conv.kernel(), conv.kernel(), conv.stride()),
                ),
                Layer::MaxPool(p) => (None, format!("{}x{}/{}", p.size(), p.size(), p.stride())),
                Layer::Region(_) => (None, "-".to_string()),
            };
            rows.push(SummaryRow {
                index,
                kind: layer.kind(),
                filters,
                size_stride,
                input: (c, h, w),
                output,
                cost,
                absorbed,
            });
            c = output.0;
            h = output.1;
            w = output.2;
        }
        NetworkSummary {
            name: name.into(),
            input: net.input_chw(),
            rows,
        }
    }

    /// Total forward FLOPs in GFLOPs (Darknet "BFLOPs").
    pub fn total_gflops(&self) -> f64 {
        self.rows.iter().map(|r| r.cost.flops).sum::<f64>() / 1e9
    }

    /// Total parameter count.
    pub fn total_params(&self) -> usize {
        self.rows.iter().map(|r| r.cost.params).sum()
    }

    /// Number of convolutional layers.
    pub fn conv_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.kind == LayerKind::Convolutional)
            .count()
    }

    /// Number of max-pooling layers.
    pub fn maxpool_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.kind == LayerKind::MaxPool)
            .count()
    }
}

impl fmt::Display for NetworkSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (input {}x{}x{})",
            self.name, self.input.0, self.input.1, self.input.2
        )?;
        writeln!(
            f,
            "{:>3}  {:<14} {:>7} {:>8} {:>16} {:>16} {:>10} {:>10}",
            "#", "layer", "filters", "size", "input", "output", "MFLOPs", "params"
        )?;
        for row in &self.rows {
            let filters = row
                .filters
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".to_string());
            writeln!(
                f,
                "{:>3}  {:<14} {:>7} {:>8} {:>16} {:>16} {:>10.2} {:>10}",
                row.index,
                row.kind.as_str(),
                filters,
                row.size_stride,
                format!("{}x{}x{}", row.input.0, row.input.1, row.input.2),
                format!("{}x{}x{}", row.output.0, row.output.1, row.output.2),
                row.cost.flops / 1e6,
                row.cost.params,
            )?;
        }
        writeln!(
            f,
            "total: {:.3} GFLOPs, {} parameters, {} conv / {} maxpool layers",
            self.total_gflops(),
            self.total_params(),
            self.conv_count(),
            self.maxpool_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Conv2d, MaxPool2d, Network};

    fn net() -> Network {
        let mut n = Network::new(3, 32, 32);
        n.push(Layer::conv(
            Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        n.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        n.push(Layer::conv(
            Conv2d::new(8, 4, 1, 1, 0, Activation::Linear, false).unwrap(),
        ));
        n
    }

    #[test]
    fn rows_track_dimensions() {
        let summary = NetworkSummary::of("test", &net());
        assert_eq!(summary.rows.len(), 3);
        assert_eq!(summary.rows[0].input, (3, 32, 32));
        assert_eq!(summary.rows[0].output, (8, 32, 32));
        assert_eq!(summary.rows[1].output, (8, 16, 16));
        assert_eq!(summary.rows[2].output, (4, 16, 16));
        assert_eq!(summary.conv_count(), 2);
        assert_eq!(summary.maxpool_count(), 1);
    }

    #[test]
    fn totals_are_consistent() {
        let n = net();
        let summary = NetworkSummary::of("test", &n);
        assert_eq!(summary.total_params(), n.param_count());
        assert!(summary.total_gflops() > 0.0);
    }

    #[test]
    fn display_renders_table() {
        let text = NetworkSummary::of("demo", &net()).to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("convolutional"));
        assert!(text.contains("maxpool"));
        assert!(text.contains("total:"));
    }
}
