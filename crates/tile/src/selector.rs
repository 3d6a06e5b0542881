//! Attention-driven tile selection.
//!
//! Deciding *which* tiles to run must cost far less than running them, so
//! the selector never touches the CNN. It combines three signals:
//!
//! 1. **Hot tiles** — tiles intersecting a confirmed tracker box are
//!    always selected; an object being followed must not be dropped.
//! 2. **Saliency** — a stride-sampled luma grid is kept per frame. On the
//!    first frame each tile is scored by block variance (textured regions
//!    beat empty terrain); afterwards by mean absolute frame difference
//!    (motion). Tiles above threshold are taken best-first up to
//!    [`SelectorConfig::max_tiles`].
//! 3. **Round-robin revisit** — a seeded cursor walks the grid so every
//!    tile is re-examined at least once per
//!    [`SelectorConfig::revisit_period`] frames, bounding how long a new
//!    entrant can hide in a "boring" tile.
//!
//! All three signals are pure integer/f32 arithmetic over the same inputs,
//! so selection is bit-deterministic for a given frame sequence and seed.

use crate::grid::TileGrid;
use crate::{Result, TileError};
use dronet_metrics::BBox;
use dronet_tensor::Tensor;

/// Luma sampling stride in pixels; larger is cheaper but blurrier.
const SAMPLE_STRIDE: usize = 8;

/// Tuning knobs for [`TileSelector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorConfig {
    /// Block-variance gate used on the first frame (luma in `[0, 1]`).
    pub variance_threshold: f32,
    /// Mean-absolute-difference gate used on subsequent frames.
    pub diff_threshold: f32,
    /// Cap on saliency-selected tiles per frame (hot and revisited tiles
    /// do not count against it).
    pub max_tiles: usize,
    /// Every tile is revisited at least once per this many frames.
    pub revisit_period: u64,
    /// Seeds the revisit cursor's starting tile.
    pub seed: u64,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            variance_threshold: 5e-3,
            diff_threshold: 2e-3,
            max_tiles: 8,
            revisit_period: 8,
            seed: 0,
        }
    }
}

impl SelectorConfig {
    fn validate(&self) -> Result<()> {
        if self.revisit_period == 0 {
            return Err(TileError::BadConfig {
                param: "revisit_period",
                msg: "revisit period must be positive".to_string(),
            });
        }
        if !self.variance_threshold.is_finite() || self.variance_threshold < 0.0 {
            return Err(TileError::BadConfig {
                param: "variance_threshold",
                msg: format!(
                    "threshold {} must be finite and >= 0",
                    self.variance_threshold
                ),
            });
        }
        if !self.diff_threshold.is_finite() || self.diff_threshold < 0.0 {
            return Err(TileError::BadConfig {
                param: "diff_threshold",
                msg: format!("threshold {} must be finite and >= 0", self.diff_threshold),
            });
        }
        Ok(())
    }
}

/// The outcome of one selection pass: which tiles to run and why.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TileSelection {
    /// Union of all signals, sorted ascending and deduplicated. This is
    /// the micro-batch order, so it is stable by construction.
    pub tiles: Vec<usize>,
    /// Tiles holding a confirmed track.
    pub hot: Vec<usize>,
    /// Tiles passing the saliency gate (may overlap `hot`).
    pub salient: Vec<usize>,
    /// Tiles picked by the round-robin sweep.
    pub revisited: Vec<usize>,
}

/// Stateful tile chooser; one instance per frame stream.
pub struct TileSelector {
    config: SelectorConfig,
    /// Stride-sampled per-pixel luma of the previous frame, or `None`
    /// before the first frame (and after a geometry change).
    prev_luma: Option<Vec<f32>>,
    /// Frame geometry the luma buffer was computed for.
    luma_geom: (usize, usize),
    /// Next tile index the revisit sweep starts from.
    cursor: Option<usize>,
}

impl TileSelector {
    /// Creates a selector.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadConfig`] for a zero revisit period or
    /// negative or non-finite thresholds.
    pub fn new(config: SelectorConfig) -> Result<Self> {
        config.validate()?;
        Ok(TileSelector {
            config,
            prev_luma: None,
            luma_geom: (0, 0),
            cursor: None,
        })
    }

    /// The configuration this selector was built with.
    pub fn config(&self) -> &SelectorConfig {
        &self.config
    }

    /// Picks the tiles to run for one frame.
    ///
    /// `hot_boxes` are the frame-normalised boxes of currently confirmed
    /// tracks (the attention feedback loop); pass an empty slice when no
    /// tracker is attached.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadFrame`] when `frame` does not match the
    /// grid geometry.
    pub fn select(
        &mut self,
        grid: &TileGrid,
        frame: &Tensor,
        hot_boxes: &[BBox],
    ) -> Result<TileSelection> {
        grid.check_frame(frame)?;
        let geom = (grid.frame_width(), grid.frame_height());
        if self.luma_geom != geom {
            // Frame geometry changed under us: differencing against the
            // old buffer would be meaningless, start over.
            self.prev_luma = None;
            self.luma_geom = geom;
        }
        let cur = sample_luma(frame);

        let mut hot: Vec<usize> = hot_boxes
            .iter()
            .flat_map(|b| grid.tiles_overlapping(b))
            .collect();
        hot.sort_unstable();
        hot.dedup();

        let salient = self.salient_tiles(grid, &cur);
        let revisited = self.revisit_tiles(grid.len());

        self.prev_luma = Some(cur);

        let mut tiles = Vec::with_capacity(hot.len() + salient.len() + revisited.len());
        tiles.extend_from_slice(&hot);
        tiles.extend_from_slice(&salient);
        tiles.extend_from_slice(&revisited);
        tiles.sort_unstable();
        tiles.dedup();

        Ok(TileSelection {
            tiles,
            hot,
            salient,
            revisited,
        })
    }

    /// Scores every tile against the saliency gate and returns the best
    /// gated tiles (score descending, index ascending on ties), capped at
    /// `max_tiles`, re-sorted ascending for output stability.
    fn salient_tiles(&self, grid: &TileGrid, cur: &[f32]) -> Vec<usize> {
        let threshold = if self.prev_luma.is_some() {
            self.config.diff_threshold
        } else {
            self.config.variance_threshold
        };
        let mut scored: Vec<(f32, usize)> = Vec::new();
        for tile in grid.tiles() {
            let score = match &self.prev_luma {
                Some(prev) => tile_diff(grid, &tile, cur, prev),
                None => tile_variance(grid, &tile, cur),
            };
            if score > threshold {
                scored.push((score, tile.index));
            }
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(self.config.max_tiles);
        let mut out: Vec<usize> = scored.into_iter().map(|(_, i)| i).collect();
        out.sort_unstable();
        out
    }

    /// Takes the next `ceil(n / revisit_period)` tiles from the seeded
    /// cursor, wrapping around, so a full sweep completes every period.
    fn revisit_tiles(&mut self, n_tiles: usize) -> Vec<usize> {
        if n_tiles == 0 {
            return Vec::new();
        }
        let period = self.config.revisit_period as usize;
        let quota = n_tiles.div_ceil(period).max(1).min(n_tiles);
        let cursor = self
            .cursor
            .get_or_insert((self.config.seed % n_tiles as u64) as usize);
        let mut out: Vec<usize> = (0..quota).map(|k| (*cursor + k) % n_tiles).collect();
        *cursor = (*cursor + quota) % n_tiles;
        out.sort_unstable();
        out
    }
}

/// Samples mean-over-channels luma on a [`SAMPLE_STRIDE`]-spaced grid.
/// Returns `ceil(h/stride) * ceil(w/stride)` values in row-major order.
fn sample_luma(frame: &Tensor) -> Vec<f32> {
    let stride = SAMPLE_STRIDE;
    let s = frame.shape();
    let (c, h, w) = (s.channels(), s.height(), s.width());
    let data = frame.as_slice();
    let sw = w.div_ceil(stride);
    let sh = h.div_ceil(stride);
    let inv_c = 1.0 / c as f32;
    let mut out = Vec::with_capacity(sh * sw);
    for sy in 0..sh {
        let y = sy * stride;
        for sx in 0..sw {
            let x = sx * stride;
            let mut sum = 0.0f32;
            for ch in 0..c {
                sum += data[ch * h * w + y * w + x];
            }
            out.push(sum * inv_c);
        }
    }
    out
}

/// Iterates the sample indices falling inside a tile's pixel window
/// (clamped to the frame), invoking `f` with each flat sample index.
fn for_tile_samples(grid: &TileGrid, tile: &crate::grid::Tile, mut f: impl FnMut(usize)) -> usize {
    let stride = SAMPLE_STRIDE;
    let (fw, fh) = (grid.frame_width(), grid.frame_height());
    let sw = fw.div_ceil(stride);
    let t = grid.tile_size();
    let x_end = (tile.x0 + t).min(fw);
    let y_end = (tile.y0 + t).min(fh);
    let sx0 = tile.x0.div_ceil(stride);
    let sy0 = tile.y0.div_ceil(stride);
    let sx1 = x_end.div_ceil(stride);
    let sy1 = y_end.div_ceil(stride);
    let mut count = 0;
    for sy in sy0..sy1 {
        for sx in sx0..sx1 {
            f(sy * sw + sx);
            count += 1;
        }
    }
    count
}

/// Luma variance over a tile's samples (first-frame saliency).
fn tile_variance(grid: &TileGrid, tile: &crate::grid::Tile, cur: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    let n = for_tile_samples(grid, tile, |i| sum += cur[i]);
    if n == 0 {
        return 0.0;
    }
    let mean = sum / n as f32;
    let mut var = 0.0f32;
    for_tile_samples(grid, tile, |i| {
        let d = cur[i] - mean;
        var += d * d;
    });
    var / n as f32
}

/// Mean absolute luma difference over a tile's samples (motion saliency).
fn tile_diff(grid: &TileGrid, tile: &crate::grid::Tile, cur: &[f32], prev: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    let n = for_tile_samples(grid, tile, |i| sum += (cur[i] - prev[i]).abs());
    if n == 0 {
        0.0
    } else {
        sum / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_tensor::Shape;

    fn frame(w: usize, h: usize) -> Tensor {
        Tensor::zeros(Shape::nchw(1, 3, h, w))
    }

    /// Paints a solid bright square into every channel.
    fn paint(t: &mut Tensor, x0: usize, y0: usize, size: usize, value: f32) {
        let s = t.shape();
        let (c, h, w) = (s.channels(), s.height(), s.width());
        let data = t.as_mut_slice();
        for ch in 0..c {
            for y in y0..(y0 + size).min(h) {
                for x in x0..(x0 + size).min(w) {
                    data[ch * h * w + y * w + x] = value;
                }
            }
        }
    }

    #[test]
    fn first_frame_uses_variance() {
        let grid = TileGrid::new(100, 0, 200, 200).unwrap();
        let mut f = frame(200, 200);
        paint(&mut f, 20, 20, 40, 1.0); // texture only in tile 0
        let mut sel = TileSelector::new(SelectorConfig {
            revisit_period: 1000, // effectively disable the sweep's reach
            ..SelectorConfig::default()
        })
        .unwrap();
        let pick = sel.select(&grid, &f, &[]).unwrap();
        assert_eq!(pick.salient, vec![0]);
        assert!(pick.tiles.contains(&0));
    }

    #[test]
    fn motion_selects_the_changed_tile() {
        let grid = TileGrid::new(100, 0, 200, 200).unwrap();
        let f0 = frame(200, 200);
        let mut f1 = frame(200, 200);
        paint(&mut f1, 120, 120, 40, 0.8); // motion appears in tile 3
        let mut sel = TileSelector::new(SelectorConfig {
            revisit_period: 1000,
            ..SelectorConfig::default()
        })
        .unwrap();
        let first = sel.select(&grid, &f0, &[]).unwrap();
        assert!(first.salient.is_empty()); // flat frame, no variance
        let second = sel.select(&grid, &f1, &[]).unwrap();
        assert_eq!(second.salient, vec![3]);
    }

    #[test]
    fn hot_boxes_always_selected() {
        let grid = TileGrid::new(100, 0, 200, 200).unwrap();
        let f = frame(200, 200);
        let mut sel = TileSelector::new(SelectorConfig {
            revisit_period: 1000,
            ..SelectorConfig::default()
        })
        .unwrap();
        let hot = [BBox::new(0.75, 0.25, 0.1, 0.1)]; // inside tile 1
        let pick = sel.select(&grid, &f, &hot).unwrap();
        assert_eq!(pick.hot, vec![1]);
        assert!(pick.tiles.contains(&1));
    }

    #[test]
    fn revisit_sweeps_every_tile_within_a_period() {
        let grid = TileGrid::new(50, 0, 200, 200).unwrap(); // 16 tiles
        let f = frame(200, 200);
        let period = 8u64;
        let mut sel = TileSelector::new(SelectorConfig {
            revisit_period: period,
            variance_threshold: f32::MAX, // saliency never fires (MAX is finite)
            diff_threshold: f32::MAX,
            seed: 5,
            ..SelectorConfig::default()
        })
        .unwrap();
        let mut seen = vec![false; grid.len()];
        for _ in 0..period {
            let pick = sel.select(&grid, &f, &[]).unwrap();
            assert_eq!(pick.revisited.len(), 2); // ceil(16 / 8)
            for &i in &pick.revisited {
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "sweep missed a tile");
    }

    #[test]
    fn selection_is_deterministic_across_instances() {
        let grid = TileGrid::new(100, 20, 350, 260).unwrap();
        let mut frames = Vec::new();
        for k in 0..4 {
            let mut f = frame(350, 260);
            paint(&mut f, 30 * k + 10, 40, 35, 0.9);
            frames.push(f);
        }
        let config = SelectorConfig {
            seed: 42,
            ..SelectorConfig::default()
        };
        let mut a = TileSelector::new(config).unwrap();
        let mut b = TileSelector::new(config).unwrap();
        for f in &frames {
            let pa = a.select(&grid, f, &[]).unwrap();
            let pb = b.select(&grid, f, &[]).unwrap();
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn max_tiles_caps_saliency_not_hot() {
        let grid = TileGrid::new(50, 0, 200, 200).unwrap(); // 16 tiles
        let mut f = frame(200, 200);
        for tile in grid.tiles() {
            // Texture in every tile: all 16 pass the variance gate.
            paint(&mut f, tile.x0 + 10, tile.y0 + 10, 20, 1.0);
        }
        let mut sel = TileSelector::new(SelectorConfig {
            max_tiles: 3,
            revisit_period: 1000,
            ..SelectorConfig::default()
        })
        .unwrap();
        let hot = [BBox::new(0.95, 0.95, 0.05, 0.05)];
        let pick = sel.select(&grid, &f, &hot).unwrap();
        assert_eq!(pick.salient.len(), 3);
        assert_eq!(pick.hot, vec![15]);
        assert!(pick.tiles.contains(&15));
    }

    #[test]
    fn bad_configs_rejected() {
        let bad = SelectorConfig {
            revisit_period: 0,
            ..SelectorConfig::default()
        };
        assert!(TileSelector::new(bad).is_err());
        let bad = SelectorConfig {
            diff_threshold: f32::NAN,
            ..SelectorConfig::default()
        };
        assert!(TileSelector::new(bad).is_err());
    }
}
