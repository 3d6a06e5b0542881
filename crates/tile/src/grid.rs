//! Deterministic partitioning of a large frame into overlapping
//! detector-native tiles.
//!
//! The layout is a pure function of `(frame_w, frame_h, tile, overlap)`:
//! tile origins advance by `tile - overlap` and the final origin per axis
//! is clamped so the last tile ends exactly at the frame edge. Any frame
//! size is accepted — a frame smaller than one tile yields a single tile
//! whose overhang reads as zero — so the same grid code serves 352² unit
//! tests and 2816² wide-area frames.

use crate::{Result, TileError};
use dronet_metrics::BBox;
use dronet_tensor::Tensor;

/// One tile of the grid: a `tile × tile` pixel window into the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Index in row-major grid order (`row * cols + col`).
    pub index: usize,
    /// Column in the grid.
    pub col: usize,
    /// Row in the grid.
    pub row: usize,
    /// Left edge in frame pixels.
    pub x0: usize,
    /// Top edge in frame pixels.
    pub y0: usize,
}

/// The overlapping tile layout for one frame geometry.
///
/// # Example
///
/// ```
/// use dronet_tile::TileGrid;
/// // A 704x704 frame in 352-pixel tiles with 32 px of overlap needs a
/// // 3x3 grid (origins 0, 320 and the edge-clamped 352).
/// let grid = TileGrid::new(352, 32, 704, 704).unwrap();
/// assert_eq!((grid.cols(), grid.rows()), (3, 3));
/// assert_eq!(grid.len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    tile: usize,
    overlap: usize,
    frame_w: usize,
    frame_h: usize,
    xs: Vec<usize>,
    ys: Vec<usize>,
}

/// Tile origins along one axis: advance by `step`, clamp the last origin
/// so the final tile ends at the frame edge, never emit duplicates.
fn axis_origins(frame: usize, tile: usize, step: usize) -> Vec<usize> {
    let mut origins = Vec::new();
    let mut pos = 0usize;
    loop {
        // `pos + tile` cannot overflow: both are bounded by the frame
        // dimension plus one tile, validated at construction.
        if pos + tile >= frame {
            let last = frame.saturating_sub(tile);
            if origins.last() != Some(&last) {
                origins.push(last);
            }
            break;
        }
        origins.push(pos);
        pos += step;
    }
    origins
}

impl TileGrid {
    /// Builds the grid for `frame_w × frame_h` frames cut into
    /// `tile × tile` windows overlapping by `overlap` pixels.
    ///
    /// Choose `overlap` at least as large as the biggest expected object
    /// so every object is fully contained in at least one tile; smaller
    /// overlaps still work but lean harder on the merger's seam
    /// stitching.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadConfig`] when `tile` is zero, `overlap >=
    /// tile`, either frame dimension is zero, or the geometry is absurd
    /// enough to overflow tile arithmetic.
    pub fn new(tile: usize, overlap: usize, frame_w: usize, frame_h: usize) -> Result<Self> {
        if tile == 0 {
            return Err(TileError::BadConfig {
                param: "tile",
                msg: "tile size must be positive".to_string(),
            });
        }
        if overlap >= tile {
            return Err(TileError::BadConfig {
                param: "overlap",
                msg: format!("overlap {overlap} must be smaller than tile {tile}"),
            });
        }
        if frame_w == 0 || frame_h == 0 {
            return Err(TileError::BadFrame {
                msg: format!("frame {frame_w}x{frame_h} has a zero dimension"),
            });
        }
        // Checked geometry: reject frames whose tile count or pixel
        // arithmetic would overflow instead of panicking later.
        let too_big = frame_w
            .checked_add(tile)
            .and_then(|w| w.checked_mul(frame_h.checked_add(tile)?))
            .is_none();
        if too_big {
            return Err(TileError::BadFrame {
                msg: format!("frame {frame_w}x{frame_h} overflows tile arithmetic"),
            });
        }
        let step = tile - overlap;
        let xs = axis_origins(frame_w, tile, step);
        let ys = axis_origins(frame_h, tile, step);
        Ok(TileGrid {
            tile,
            overlap,
            frame_w,
            frame_h,
            xs,
            ys,
        })
    }

    /// Tile side length in pixels (the detector's native input size).
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Configured overlap between adjacent tiles, in pixels.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Frame width this grid was built for.
    pub fn frame_width(&self) -> usize {
        self.frame_w
    }

    /// Frame height this grid was built for.
    pub fn frame_height(&self) -> usize {
        self.frame_h
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.xs.len()
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.ys.len()
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.xs.len() * self.ys.len()
    }

    /// Whether the grid has no tiles (never true for a valid grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tile at `index` (row-major).
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn tile(&self, index: usize) -> Tile {
        assert!(index < self.len(), "tile index {index} out of range");
        let col = index % self.xs.len();
        let row = index / self.xs.len();
        Tile {
            index,
            col,
            row,
            x0: self.xs[col],
            y0: self.ys[row],
        }
    }

    /// Iterates over all tiles in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = Tile> + '_ {
        (0..self.len()).map(|i| self.tile(i))
    }

    /// Indices of every tile whose pixel window intersects `bbox`
    /// (frame-normalised coordinates), in ascending order.
    pub fn tiles_overlapping(&self, bbox: &BBox) -> Vec<usize> {
        let (w, h) = (self.frame_w as f32, self.frame_h as f32);
        let (bx0, bx1) = (bbox.x0() * w, bbox.x1() * w);
        let (by0, by1) = (bbox.y0() * h, bbox.y1() * h);
        let mut out = Vec::new();
        for tile in self.tiles() {
            let (tx0, ty0) = (tile.x0 as f32, tile.y0 as f32);
            let (tx1, ty1) = (tx0 + self.tile as f32, ty0 + self.tile as f32);
            if bx0 < tx1 && bx1 > tx0 && by0 < ty1 && by1 > ty0 {
                out.push(tile.index);
            }
        }
        out
    }

    /// Interior vertical tile edges in frame pixels — the x coordinates
    /// where a detection can be clipped by a tile boundary. The frame's
    /// own edges are excluded (nothing is split there).
    pub fn vertical_seams(&self) -> Vec<f32> {
        let mut seams = Vec::new();
        for &x in &self.xs {
            if x > 0 {
                seams.push(x as f32); // a non-first tile's left edge
            }
            let right = x + self.tile;
            if right < self.frame_w {
                seams.push(right as f32); // a non-last tile's right edge
            }
        }
        seams.sort_by(|a, b| a.total_cmp(b));
        seams.dedup();
        seams
    }

    /// Interior horizontal tile edges in frame pixels; see
    /// [`TileGrid::vertical_seams`].
    pub fn horizontal_seams(&self) -> Vec<f32> {
        let mut seams = Vec::new();
        for &y in &self.ys {
            if y > 0 {
                seams.push(y as f32);
            }
            let bottom = y + self.tile;
            if bottom < self.frame_h {
                seams.push(bottom as f32);
            }
        }
        seams.sort_by(|a, b| a.total_cmp(b));
        seams.dedup();
        seams
    }

    /// Copies `tile`'s pixel window out of `frame` (NCHW, batch 1) into
    /// `out` (`[1, c, tile, tile]`), zero-padding any overhang past the
    /// frame edge. [`crate::TiledDetector`] needs no copy — its first
    /// convolution reads the tiles in place — so this is for callers that
    /// want a tile as a tensor of its own.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadFrame`] when `frame` is not a batch-1 NCHW
    /// tensor of this grid's frame geometry, or `out` is not a batch-1
    /// tile-sized tensor with the same channel count.
    pub fn extract_into(&self, frame: &Tensor, tile: &Tile, out: &mut Tensor) -> Result<()> {
        let c = self.check_frame(frame)?;
        let os = out.shape();
        if os.rank() != 4
            || os.batch() != 1
            || os.channels() != c
            || os.height() != self.tile
            || os.width() != self.tile
        {
            return Err(TileError::BadFrame {
                msg: format!("scratch shape {os} != [1, {c}, {t}, {t}]", t = self.tile),
            });
        }
        let (fh, fw, t) = (self.frame_h, self.frame_w, self.tile);
        let (src, dst) = (frame.as_slice(), out.as_mut_slice());
        let valid_h = fh.saturating_sub(tile.y0).min(t);
        let valid_w = fw.saturating_sub(tile.x0).min(t);
        if valid_h < t || valid_w < t {
            dst.fill(0.0); // overhang past the frame edge stays black
        }
        for ch in 0..c {
            let src_plane = ch * fh * fw;
            let dst_plane = ch * t * t;
            for y in 0..valid_h {
                let src_row = src_plane + (tile.y0 + y) * fw + tile.x0;
                let dst_row = dst_plane + y * t;
                dst[dst_row..dst_row + valid_w].copy_from_slice(&src[src_row..src_row + valid_w]);
            }
        }
        Ok(())
    }

    /// Validates that `frame` is a batch-1 NCHW tensor matching this
    /// grid's geometry, returning its channel count.
    pub(crate) fn check_frame(&self, frame: &Tensor) -> Result<usize> {
        let s = frame.shape();
        if s.rank() != 4 || s.batch() != 1 {
            return Err(TileError::BadFrame {
                msg: format!("expected a [1, c, h, w] frame, got {s}"),
            });
        }
        if s.height() != self.frame_h || s.width() != self.frame_w {
            return Err(TileError::BadFrame {
                msg: format!(
                    "frame {}x{} does not match grid {}x{}",
                    s.width(),
                    s.height(),
                    self.frame_w,
                    self.frame_h
                ),
            });
        }
        Ok(s.channels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_tensor::Shape;

    #[test]
    fn layout_covers_the_frame_exactly() {
        for (fw, fh) in [(704, 704), (1408, 1056), (352, 352), (500, 353)] {
            let grid = TileGrid::new(352, 32, fw, fh).unwrap();
            // Every pixel is inside at least one tile, and every tile ends
            // within the frame.
            let mut covered_x = vec![false; fw];
            for tile in grid.tiles() {
                assert!(tile.x0 + 352 <= fw.max(352));
                let hi = (tile.x0 + 352).min(fw);
                covered_x[tile.x0..hi].fill(true);
            }
            assert!(covered_x.iter().all(|&c| c), "{fw}x{fh} leaves a gap");
        }
    }

    #[test]
    fn layout_is_deterministic_and_ordered() {
        let a = TileGrid::new(128, 16, 500, 400).unwrap();
        let b = TileGrid::new(128, 16, 500, 400).unwrap();
        assert_eq!(a, b);
        let origins: Vec<(usize, usize)> = a.tiles().map(|t| (t.x0, t.y0)).collect();
        for pair in origins.windows(2) {
            assert!(pair[0] < pair[1] || pair[0].1 < pair[1].1);
        }
    }

    #[test]
    fn small_frame_yields_single_padded_tile() {
        let grid = TileGrid::new(96, 16, 64, 48).unwrap();
        assert_eq!(grid.len(), 1);
        let mut frame = Tensor::zeros(Shape::nchw(1, 1, 48, 64));
        frame.as_mut_slice().fill(1.0);
        let mut out = Tensor::zeros(Shape::nchw(1, 1, 96, 96));
        out.as_mut_slice().fill(7.0); // stale scratch contents
        grid.extract_into(&frame, &grid.tile(0), &mut out).unwrap();
        let data = out.as_slice();
        // Valid region copied, overhang zero-padded (not stale).
        assert_eq!(data[0], 1.0);
        assert_eq!(data[47 * 96 + 63], 1.0);
        assert_eq!(data[47 * 96 + 64], 0.0);
        assert_eq!(data[48 * 96], 0.0);
    }

    #[test]
    fn extraction_matches_manual_indexing() {
        let (fw, fh) = (200, 150);
        let mut frame = Tensor::zeros(Shape::nchw(1, 3, fh, fw));
        for (i, v) in frame.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        let grid = TileGrid::new(64, 16, fw, fh).unwrap();
        let mut out = Tensor::zeros(Shape::nchw(1, 3, 64, 64));
        for tile in grid.tiles() {
            grid.extract_into(&frame, &tile, &mut out).unwrap();
            for ch in 0..3 {
                for y in 0..64 {
                    for x in 0..64 {
                        let expect = (ch * fh * fw + (tile.y0 + y) * fw + tile.x0 + x) as f32;
                        let got = out.as_slice()[ch * 64 * 64 + y * 64 + x];
                        assert_eq!(got, expect, "tile {} ({ch},{y},{x})", tile.index);
                    }
                }
            }
        }
    }

    #[test]
    fn seams_are_interior_only() {
        let grid = TileGrid::new(352, 32, 704, 704).unwrap();
        let seams = grid.vertical_seams();
        assert!(!seams.contains(&0.0));
        assert!(!seams.contains(&704.0));
        // Origins 0, 320, 352: interior edges at 320, 352, 672.
        assert_eq!(seams, vec![320.0, 352.0, 672.0]);
    }

    #[test]
    fn tiles_overlapping_finds_straddlers() {
        let grid = TileGrid::new(100, 0, 200, 200).unwrap();
        assert_eq!(grid.len(), 4);
        // A box centred on the middle cross touches all four tiles.
        let all = grid.tiles_overlapping(&BBox::new(0.5, 0.5, 0.1, 0.1));
        assert_eq!(all, vec![0, 1, 2, 3]);
        // A box well inside the top-left tile touches only it.
        let one = grid.tiles_overlapping(&BBox::new(0.2, 0.2, 0.1, 0.1));
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(TileGrid::new(0, 0, 100, 100).is_err());
        assert!(TileGrid::new(32, 32, 100, 100).is_err());
        assert!(TileGrid::new(32, 40, 100, 100).is_err());
        assert!(TileGrid::new(32, 8, 0, 100).is_err());
        assert!(TileGrid::new(usize::MAX / 2, 0, usize::MAX / 2, usize::MAX / 2).is_err());
    }
}
