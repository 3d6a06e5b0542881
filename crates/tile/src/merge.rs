//! Cross-tile merging of per-tile detections.
//!
//! Per-tile detections live in tile-local normalised coordinates and can
//! disagree about the same object three ways:
//!
//! * an object inside the overlap band is seen whole by two tiles —
//!   near-identical duplicates, removed by cross-tile NMS;
//! * an object is seen whole by one tile and *clipped* by a neighbour —
//!   the clipped fragment often has too little IoU with the full box for
//!   NMS, so a containment pass drops boxes mostly covered by a
//!   higher-scoring same-class box;
//! * an object wider than the overlap is clipped by *both* tiles — the
//!   fragments barely touch. Seam stitching unions fragments whose
//!   clipped edges sit on interior tile boundaries and whose transverse
//!   extents align. Stitching iterates to a fixed point so a box split
//!   across four tiles (a corner case, literally) reassembles: quarters →
//!   halves → whole.
//!
//! The passes run stitch → containment → NMS; every step is deterministic
//! for a deterministic input order.

use crate::grid::TileGrid;
use crate::{Result, TileError};
use dronet_detect::nms::non_max_suppression;
use dronet_detect::Detection;
use dronet_metrics::BBox;

/// Minimum transverse overlap fraction (`overlap / min(extent)`) for two
/// fragments to be considered the same object.
const STITCH_ALIGN: f32 = 0.5;
/// Drop a box when a higher-scoring same-class box covers at least this
/// fraction of its area.
const CONTAINMENT_THRESHOLD: f32 = 0.8;
/// How close (in frame pixels) a box edge must be to an interior tile seam
/// to count as "clipped", and the maximum gap bridged between two
/// fragments.
const STITCH_GAP_PX: f32 = 4.0;
/// Upper bound on stitch fixed-point iterations.
const MAX_STITCH_PASSES: usize = 4;

/// Tuning knobs for [`TileMerger`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeConfig {
    /// IoU threshold for the final cross-tile NMS pass.
    pub nms_threshold: f32,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            nms_threshold: 0.45,
        }
    }
}

impl MergeConfig {
    fn validate(&self) -> Result<()> {
        if !self.nms_threshold.is_finite() || !(0.0..=1.0).contains(&self.nms_threshold) {
            return Err(TileError::BadConfig {
                param: "nms_threshold",
                msg: format!("{} must be within [0, 1]", self.nms_threshold),
            });
        }
        Ok(())
    }
}

/// Merges per-tile detections into frame-space detections.
pub struct TileMerger {
    config: MergeConfig,
}

impl TileMerger {
    /// Creates a merger.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadConfig`] for an NMS threshold outside
    /// `[0, 1]`.
    pub fn new(config: MergeConfig) -> Result<Self> {
        config.validate()?;
        Ok(TileMerger { config })
    }

    /// The configuration this merger was built with.
    pub fn config(&self) -> &MergeConfig {
        &self.config
    }

    /// Merges `(tile_index, detections)` pairs — tile-local normalised
    /// boxes — into deduplicated frame-space detections.
    pub fn merge(&self, grid: &TileGrid, per_tile: &[(usize, Vec<Detection>)]) -> Vec<Detection> {
        let mut dets = self.reproject(grid, per_tile);
        for _ in 0..MAX_STITCH_PASSES {
            let merged_any = self.stitch_pass(grid, &mut dets);
            if !merged_any {
                break;
            }
        }
        let survivors = self.suppress_contained(dets);
        non_max_suppression(survivors, self.config.nms_threshold)
    }

    /// Maps tile-local boxes into frame-normalised coordinates, clamping
    /// to the unit square and dropping degenerate boxes.
    fn reproject(&self, grid: &TileGrid, per_tile: &[(usize, Vec<Detection>)]) -> Vec<Detection> {
        let t = grid.tile_size() as f32;
        let (fw, fh) = (grid.frame_width() as f32, grid.frame_height() as f32);
        let mut out = Vec::new();
        for (tile_index, dets) in per_tile {
            let tile = grid.tile(*tile_index);
            let (ox, oy) = (tile.x0 as f32, tile.y0 as f32);
            for d in dets {
                let bbox = BBox::new(
                    (ox + d.bbox.cx * t) / fw,
                    (oy + d.bbox.cy * t) / fh,
                    d.bbox.w * t / fw,
                    d.bbox.h * t / fh,
                )
                .clamp_unit();
                if !bbox.cx.is_finite() || !bbox.cy.is_finite() || bbox.w < 1e-6 || bbox.h < 1e-6 {
                    continue;
                }
                out.push(Detection { bbox, ..d.clone() });
            }
        }
        out
    }

    /// One greedy stitch sweep: unions every fragment pair that looks
    /// like two halves of a seam-split object. Returns whether anything
    /// merged (the fixed-point loop runs until it reports `false`).
    fn stitch_pass(&self, grid: &TileGrid, dets: &mut Vec<Detection>) -> bool {
        let v_seams = grid.vertical_seams();
        let h_seams = grid.horizontal_seams();
        let (fw, fh) = (grid.frame_width() as f32, grid.frame_height() as f32);
        let mut consumed = vec![false; dets.len()];
        let mut merged_any = false;
        for i in 0..dets.len() {
            if consumed[i] {
                continue;
            }
            for j in (i + 1)..dets.len() {
                if consumed[j] || dets[i].class != dets[j].class {
                    continue;
                }
                let stitched = self
                    .try_stitch_h(&dets[i], &dets[j], &v_seams, fw, fh)
                    .or_else(|| self.try_stitch_v(&dets[i], &dets[j], &h_seams, fw, fh));
                if let Some(bbox) = stitched {
                    dets[i] = Detection {
                        bbox,
                        objectness: dets[i].objectness.max(dets[j].objectness),
                        class: dets[i].class,
                        class_prob: dets[i].class_prob.max(dets[j].class_prob),
                    };
                    consumed[j] = true;
                    merged_any = true;
                }
            }
        }
        if merged_any {
            let mut k = 0;
            dets.retain(|_| {
                let keep = !consumed[k];
                k += 1;
                keep
            });
        }
        merged_any
    }

    /// Checks whether `a` and `b` are left/right fragments of one object
    /// clipped at vertical seams; returns the union box if so.
    fn try_stitch_h(
        &self,
        a: &Detection,
        b: &Detection,
        v_seams: &[f32],
        fw: f32,
        fh: f32,
    ) -> Option<BBox> {
        // Order so `l` is the left fragment.
        let (l, r) = if a.bbox.cx <= b.bbox.cx {
            (a, b)
        } else {
            (b, a)
        };
        let gap_px = (r.bbox.x0() - l.bbox.x1()) * fw;
        if gap_px > STITCH_GAP_PX {
            return None; // genuinely separated along x
        }
        // Both clipped edges must sit on interior tile boundaries —
        // otherwise these are just two nearby objects.
        if !near_seam(l.bbox.x1() * fw, v_seams) || !near_seam(r.bbox.x0() * fw, v_seams) {
            return None;
        }
        // `r` must actually extend the object rightward; a contained
        // fragment is the containment pass's job.
        if r.bbox.x1() <= l.bbox.x1() + 0.5 / fw {
            return None;
        }
        // Transverse (y) extents must align.
        let overlap_y = l.bbox.y1().min(r.bbox.y1()) - l.bbox.y0().max(r.bbox.y0());
        let min_h = l.bbox.h.min(r.bbox.h);
        if min_h <= 0.0 || overlap_y / min_h < STITCH_ALIGN {
            return None;
        }
        let _ = fh;
        Some(union_box(&l.bbox, &r.bbox))
    }

    /// Vertical analogue of [`TileMerger::try_stitch_h`]: top/bottom
    /// fragments clipped at horizontal seams.
    fn try_stitch_v(
        &self,
        a: &Detection,
        b: &Detection,
        h_seams: &[f32],
        fw: f32,
        fh: f32,
    ) -> Option<BBox> {
        let (t, btm) = if a.bbox.cy <= b.bbox.cy {
            (a, b)
        } else {
            (b, a)
        };
        let gap_px = (btm.bbox.y0() - t.bbox.y1()) * fh;
        if gap_px > STITCH_GAP_PX {
            return None;
        }
        if !near_seam(t.bbox.y1() * fh, h_seams) || !near_seam(btm.bbox.y0() * fh, h_seams) {
            return None;
        }
        if btm.bbox.y1() <= t.bbox.y1() + 0.5 / fh {
            return None;
        }
        let overlap_x = t.bbox.x1().min(btm.bbox.x1()) - t.bbox.x0().max(btm.bbox.x0());
        let min_w = t.bbox.w.min(btm.bbox.w);
        if min_w <= 0.0 || overlap_x / min_w < STITCH_ALIGN {
            return None;
        }
        let _ = fw;
        Some(union_box(&t.bbox, &btm.bbox))
    }

    /// Drops every box whose area is mostly covered by a higher-scoring
    /// same-class box — the clipped-fragment-vs-whole-box duplicates that
    /// survive NMS because their IoU is diluted by the full box's area.
    fn suppress_contained(&self, mut dets: Vec<Detection>) -> Vec<Detection> {
        dets.sort_by(|a, b| {
            b.score()
                .total_cmp(&a.score())
                .then(a.bbox.cx.total_cmp(&b.bbox.cx))
                .then(a.bbox.cy.total_cmp(&b.bbox.cy))
        });
        let mut kept: Vec<Detection> = Vec::with_capacity(dets.len());
        'outer: for d in dets {
            let area = d.bbox.area();
            if area > 0.0 {
                for k in &kept {
                    if k.class == d.class
                        && k.bbox.intersection(&d.bbox) / area >= CONTAINMENT_THRESHOLD
                    {
                        continue 'outer;
                    }
                }
            }
            kept.push(d);
        }
        kept
    }
}

/// Whether `edge_px` lies within [`STITCH_GAP_PX`] of any seam.
fn near_seam(edge_px: f32, seams: &[f32]) -> bool {
    seams.iter().any(|&s| (edge_px - s).abs() <= STITCH_GAP_PX)
}

/// Smallest box covering both inputs.
fn union_box(a: &BBox, b: &BBox) -> BBox {
    BBox::from_corners(
        a.x0().min(b.x0()),
        a.y0().min(b.y0()),
        a.x1().max(b.x1()),
        a.y1().max(b.y1()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(cx: f32, cy: f32, w: f32, h: f32, score: f32) -> Detection {
        Detection {
            bbox: BBox::new(cx, cy, w, h),
            objectness: score,
            class: 0,
            class_prob: 1.0,
        }
    }

    #[test]
    fn reprojection_maps_tile_to_frame() {
        let grid = TileGrid::new(100, 0, 200, 200).unwrap();
        let merger = TileMerger::new(MergeConfig::default()).unwrap();
        // Centre of tile 3 (origin 100,100) is frame (0.75, 0.75).
        let out = merger.merge(&grid, &[(3, vec![det(0.5, 0.5, 0.4, 0.4, 0.9)])]);
        assert_eq!(out.len(), 1);
        assert!((out[0].bbox.cx - 0.75).abs() < 1e-6);
        assert!((out[0].bbox.cy - 0.75).abs() < 1e-6);
        assert!((out[0].bbox.w - 0.2).abs() < 1e-6);
    }

    #[test]
    fn overlap_band_duplicates_collapse_to_one() {
        let grid = TileGrid::new(100, 40, 160, 100).unwrap(); // tiles at x=0 and x=60
        let merger = TileMerger::new(MergeConfig::default()).unwrap();
        // The same object at frame x≈80 seen whole by both tiles.
        let per_tile = vec![
            (0, vec![det(0.8, 0.5, 0.2, 0.2, 0.9)]),  // tile 0: px 80
            (1, vec![det(0.2, 0.5, 0.2, 0.2, 0.85)]), // tile 1: px 60+20=80
        ];
        let out = merger.merge(&grid, &per_tile);
        assert_eq!(out.len(), 1);
        assert!((out[0].bbox.cx - 0.5).abs() < 1e-5); // 80/160
    }

    #[test]
    fn clipped_fragment_is_contained_away() {
        let grid = TileGrid::new(100, 40, 160, 100).unwrap();
        let merger = TileMerger::new(MergeConfig::default()).unwrap();
        // Tile 1 sees the whole box; tile 0 clips it at its right edge
        // (frame px 100 — an interior seam). IoU(full, fragment) ≈ 0.33,
        // below NMS threshold, so only containment can remove it.
        let per_tile = vec![
            (0, vec![det(0.925, 0.5, 0.15, 0.2, 0.7)]), // px [85,100]
            (1, vec![det(0.425, 0.5, 0.45, 0.2, 0.9)]), // px [60+20, 60+65]=[80,125]
        ];
        let out = merger.merge(&grid, &per_tile);
        assert_eq!(out.len(), 1, "fragment survived: {out:?}");
        assert!(out[0].bbox.w > 0.25); // the full box won
    }

    #[test]
    fn seam_split_box_stitches_back_together() {
        let grid = TileGrid::new(100, 0, 200, 100).unwrap(); // seam at x=100
        let merger = TileMerger::new(MergeConfig::default()).unwrap();
        // One object spanning px [80, 120]: each tile sees its half.
        let per_tile = vec![
            (0, vec![det(0.9, 0.5, 0.2, 0.3, 0.8)]),  // px [80,100]
            (1, vec![det(0.1, 0.5, 0.2, 0.3, 0.75)]), // px [100,120]
        ];
        let out = merger.merge(&grid, &per_tile);
        assert_eq!(out.len(), 1, "halves did not stitch: {out:?}");
        let b = &out[0].bbox;
        assert!((b.x0() * 200.0 - 80.0).abs() < 1.0);
        assert!((b.x1() * 200.0 - 120.0).abs() < 1.0);
        assert!((out[0].objectness - 0.8).abs() < 1e-6); // max of fragments
    }

    #[test]
    fn far_apart_objects_do_not_stitch() {
        let grid = TileGrid::new(100, 0, 200, 100).unwrap();
        let merger = TileMerger::new(MergeConfig::default()).unwrap();
        // Two distinct objects, neither near the seam.
        let per_tile = vec![
            (0, vec![det(0.3, 0.5, 0.2, 0.3, 0.8)]),
            (1, vec![det(0.7, 0.5, 0.2, 0.3, 0.75)]),
        ];
        let out = merger.merge(&grid, &per_tile);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn different_classes_never_stitch() {
        let grid = TileGrid::new(100, 0, 200, 100).unwrap();
        let merger = TileMerger::new(MergeConfig::default()).unwrap();
        let mut right = det(0.1, 0.5, 0.2, 0.3, 0.75);
        right.class = 1;
        let per_tile = vec![(0, vec![det(0.9, 0.5, 0.2, 0.3, 0.8)]), (1, vec![right])];
        let out = merger.merge(&grid, &per_tile);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let grid = TileGrid::new(100, 0, 200, 100).unwrap();
        let merger = TileMerger::new(MergeConfig::default()).unwrap();
        assert!(merger.merge(&grid, &[]).is_empty());
        assert!(merger.merge(&grid, &[(0, vec![])]).is_empty());
    }

    #[test]
    fn bad_configs_rejected() {
        let bad = MergeConfig { nms_threshold: 1.5 };
        assert!(TileMerger::new(bad).is_err());
    }
}
