//! Output checking: a tolerant detection matcher, the reply parser, and
//! the golden files under `golden/`.
//!
//! Two kinds of rounding must not fail a correct program: a score that
//! sits within a hair of the confidence threshold, and a pair of boxes
//! whose IoU sits within a hair of the NMS threshold. Both are handled by
//! describing what is expected as two sets instead of one list:
//!
//! * `must` — detections scoring at least [`STRONG_MARGIN`] above the
//!   threshold that survive NMS at every IoU threshold in
//!   [`NMS_VARIANTS`]; each has to appear in the output;
//! * `may` — every detection any variant produced; each output detection
//!   scoring at least [`STRONG_MARGIN`] + [`TOLERANCE`] above the
//!   threshold has to be one of them.
//!
//! A lower-scoring box never suppresses a higher-scoring one, so weak
//! detections flipping in or out cannot disturb the strong ones.

use dronet_detect::Detection;
use dronet_obs::JsonValue;
use std::fmt::Write as _;

/// Score margin above the confidence threshold from which a detection is
/// held to be stable under FMA/SIMD rounding of the forward pass.
pub const STRONG_MARGIN: f32 = 0.02;
/// Absolute tolerance on box coordinates and score.
pub const TOLERANCE: f32 = 1e-3;
/// NMS IoU thresholds the reference is computed at; the middle one is the
/// workloads' own.
pub const NMS_VARIANTS: [f32; 3] = [0.448, 0.45, 0.452];

/// A detection as the checks see it, whether it came from
/// `Detector::detect` or from a `/detect` JSON reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Det {
    pub cx: f32,
    pub cy: f32,
    pub w: f32,
    pub h: f32,
    pub score: f32,
    pub class: usize,
}

impl From<&Detection> for Det {
    fn from(d: &Detection) -> Self {
        Det {
            cx: d.bbox.cx,
            cy: d.bbox.cy,
            w: d.bbox.w,
            h: d.bbox.h,
            score: d.score(),
            class: d.class,
        }
    }
}

/// Converts a detector result.
pub fn dets(detections: &[Detection]) -> Vec<Det> {
    detections.iter().map(Det::from).collect()
}

impl Det {
    fn close_to(&self, other: &Det) -> bool {
        self.class == other.class
            && [
                (self.cx, other.cx),
                (self.cy, other.cy),
                (self.w, other.w),
                (self.h, other.h),
                (self.score, other.score),
            ]
            .iter()
            .all(|(a, b)| (a - b).abs() <= TOLERANCE)
    }

    /// Finite fields, a score in `[0, 1]`, a non-negative size.
    pub fn is_sane(&self) -> bool {
        [self.cx, self.cy, self.w, self.h, self.score]
            .iter()
            .all(|v| v.is_finite())
            && (0.0..=1.0).contains(&self.score)
            && self.w >= 0.0
            && self.h >= 0.0
    }
}

/// What a frame's output is checked against (see the module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    pub must: Vec<Det>,
    pub may: Vec<Det>,
}

impl Expected {
    /// Builds the two sets from the reference outputs of one frame, one
    /// per NMS variant (a single variant is its own intersection).
    pub fn from_variants(variants: &[Vec<Det>], threshold: f32) -> Expected {
        let strong = threshold + STRONG_MARGIN;
        let (first, rest) = variants.split_first().expect("at least one variant");
        let must = first
            .iter()
            .filter(|d| d.score >= strong)
            .filter(|d| rest.iter().all(|v| v.iter().any(|o| o.close_to(d))))
            .copied()
            .collect();
        let mut may: Vec<Det> = Vec::new();
        for d in variants.iter().flatten() {
            if !may.contains(d) {
                may.push(*d);
            }
        }
        Expected { must, may }
    }

    /// Whether `actual` is an acceptable output for this frame.
    pub fn accepts(&self, actual: &[Det], threshold: f32) -> bool {
        let strong = threshold + STRONG_MARGIN + TOLERANCE;
        actual.iter().all(Det::is_sane)
            && self
                .must
                .iter()
                .all(|m| actual.iter().any(|a| a.close_to(m)))
            && actual
                .iter()
                .filter(|a| a.score >= strong)
                .all(|a| self.may.iter().any(|m| m.close_to(a)))
    }
}

/// Parses a `/detect` reply body into detections.
///
/// # Errors
///
/// Returns a message when the body is not the documented JSON shape.
pub fn dets_from_reply(body: &[u8]) -> Result<Vec<Det>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let json = JsonValue::parse(text).map_err(|e| format!("reply is not JSON: {e:?}"))?;
    let items = json
        .get("detections")
        .and_then(JsonValue::as_array)
        .ok_or("reply has no detections array")?;
    if json.get("count").and_then(JsonValue::as_u64) != Some(items.len() as u64) {
        return Err("reply count disagrees with its detections".to_string());
    }
    items
        .iter()
        .map(|item| {
            let num = |key: &str| -> Result<f32, String> {
                item.get(key)
                    .and_then(JsonValue::as_f64)
                    .map(|v| v as f32)
                    .ok_or_else(|| format!("detection lacks {key}"))
            };
            Ok(Det {
                cx: num("cx")?,
                cy: num("cy")?,
                w: num("w")?,
                h: num("h")?,
                score: num("score")?,
                class: item
                    .get("class")
                    .and_then(JsonValue::as_u64)
                    .ok_or("detection lacks class")? as usize,
            })
        })
        .collect()
}

/// A golden file: what the default-seed frames must produce, plus (for
/// `tile_1408`) the tile count of every replayed frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Golden {
    pub threshold: f32,
    pub frames: Vec<Expected>,
    pub tiles_per_frame: Vec<usize>,
}

fn write_dets(out: &mut String, key: &str, dets: &[Det]) {
    let _ = write!(out, "\"{key}\":[");
    for (i, d) in dets.iter().enumerate() {
        // `{}` prints the shortest text that parses back to the same f32.
        let _ = write!(
            out,
            "{}[{},{},{},{},{},{}]",
            if i == 0 { "" } else { "," },
            d.cx,
            d.cy,
            d.w,
            d.h,
            d.score,
            d.class
        );
    }
    out.push(']');
}

fn read_dets(frame: &JsonValue, key: &str) -> Result<Vec<Det>, String> {
    frame
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("golden frame lacks {key}"))?
        .iter()
        .map(|row| {
            let v: Vec<f64> = row
                .as_array()
                .ok_or("golden detection is not an array")?
                .iter()
                .map(|x| x.as_f64().ok_or("golden field is not a number"))
                .collect::<Result<_, _>>()?;
            if v.len() != 6 {
                return Err("golden detection needs 6 fields".to_string());
            }
            Ok(Det {
                cx: v[0] as f32,
                cy: v[1] as f32,
                w: v[2] as f32,
                h: v[3] as f32,
                score: v[4] as f32,
                class: v[5] as usize,
            })
        })
        .collect()
}

impl Golden {
    /// Renders the golden as JSON, one frame per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"threshold\":{},\"tiles_per_frame\":[",
            self.threshold
        );
        for (i, t) in self.tiles_per_frame.iter().enumerate() {
            let _ = write!(out, "{}{t}", if i == 0 { "" } else { "," });
        }
        out.push_str("],\"frames\":[\n");
        for (i, f) in self.frames.iter().enumerate() {
            out.push_str(if i == 0 { "{" } else { ",\n{" });
            write_dets(&mut out, "must", &f.must);
            out.push(',');
            write_dets(&mut out, "may", &f.may);
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses [`Golden::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(text: &str) -> Result<Golden, String> {
        let json = JsonValue::parse(text).map_err(|e| format!("golden is not JSON: {e:?}"))?;
        let threshold = json
            .get("threshold")
            .and_then(JsonValue::as_f64)
            .ok_or("golden lacks threshold")? as f32;
        let tiles_per_frame = json
            .get("tiles_per_frame")
            .and_then(JsonValue::as_array)
            .ok_or("golden lacks tiles_per_frame")?
            .iter()
            .map(|v| v.as_u64().map(|n| n as usize).ok_or("bad tile count"))
            .collect::<Result<_, _>>()?;
        let frames = json
            .get("frames")
            .and_then(JsonValue::as_array)
            .ok_or("golden lacks frames")?
            .iter()
            .map(|f| {
                Ok(Expected {
                    must: read_dets(f, "must")?,
                    may: read_dets(f, "may")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Golden {
            threshold,
            frames,
            tiles_per_frame,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const THR: f32 = 0.5;

    fn det(cx: f32, score: f32) -> Det {
        Det {
            cx,
            cy: 0.5,
            w: 0.1,
            h: 0.1,
            score,
            class: 0,
        }
    }

    #[test]
    fn rounding_sized_differences_pass() {
        let reference = vec![det(0.2, 0.9), det(0.4, 0.6), det(0.6, 0.505)];
        let exp = Expected::from_variants(std::slice::from_ref(&reference), THR);
        assert_eq!(exp.must.len(), 2, "the 0.505 detection is weak");
        assert!(exp.accepts(&reference, THR));
        // FMA-sized drift on every field.
        let drift: Vec<Det> = reference
            .iter()
            .map(|d| Det {
                cx: d.cx + 4e-4,
                score: d.score - 4e-4,
                ..*d
            })
            .collect();
        assert!(exp.accepts(&drift, THR));
        // The weak detection may vanish, and a new weak one may appear.
        assert!(exp.accepts(&[reference[0], reference[1]], THR));
        assert!(exp.accepts(&[reference[0], reference[1], det(0.8, 0.51)], THR));
    }

    #[test]
    fn real_differences_fail() {
        let reference = vec![det(0.2, 0.9), det(0.4, 0.6)];
        let exp = Expected::from_variants(std::slice::from_ref(&reference), THR);
        assert!(
            !exp.accepts(&[reference[0]], THR),
            "a strong one is missing"
        );
        assert!(
            !exp.accepts(&[reference[0], reference[1], det(0.8, 0.7)], THR),
            "an extra strong one appeared"
        );
        assert!(
            !exp.accepts(&[det(0.203, 0.9), reference[1]], THR),
            "a box moved by 3e-3"
        );
        assert!(
            !exp.accepts(&[reference[0], det(0.4, 0.61)], THR),
            "a score moved by 1e-2"
        );
        let mut other_class = reference.clone();
        other_class[0].class = 1;
        assert!(!exp.accepts(&other_class, THR));
        let mut nan = reference.clone();
        nan[1].cy = f32::NAN;
        assert!(!exp.accepts(&nan, THR));
    }

    #[test]
    fn nms_edge_flips_are_neither_required_nor_forbidden() {
        // The second box survives NMS at one IoU threshold only.
        let a = vec![det(0.2, 0.9), det(0.22, 0.8)];
        let b = vec![det(0.2, 0.9)];
        let exp = Expected::from_variants(&[a.clone(), b.clone(), b.clone()], THR);
        assert_eq!(exp.must, vec![det(0.2, 0.9)]);
        assert_eq!(exp.may.len(), 2);
        assert!(exp.accepts(&a, THR));
        assert!(exp.accepts(&b, THR));
    }

    #[test]
    fn reply_parser_reads_the_server_format() {
        let d = Detection {
            bbox: dronet_detect_bbox(0.25, 0.5, 0.125, 0.0625),
            objectness: 0.75,
            class: 0,
            class_prob: 1.0,
        };
        let body = dronet_serve::json::detections_json(9, std::slice::from_ref(&d));
        let parsed = dets_from_reply(body.as_bytes()).unwrap();
        assert_eq!(parsed, vec![Det::from(&d)]);
        assert!(dets_from_reply(b"{\"count\":1,\"detections\":[]}").is_err());
        assert!(dets_from_reply(b"not json").is_err());
    }

    fn dronet_detect_bbox(cx: f32, cy: f32, w: f32, h: f32) -> dronet_metrics::BBox {
        dronet_metrics::BBox { cx, cy, w, h }
    }

    #[test]
    fn golden_round_trips_exactly() {
        let g = Golden {
            threshold: 0.7,
            tiles_per_frame: vec![5, 7, 3],
            frames: vec![
                Expected {
                    must: vec![det(0.123_456_79, 0.912_345_6)],
                    may: vec![det(0.123_456_79, 0.912_345_6), det(1e-7, 0.71)],
                },
                Expected::default(),
            ],
        };
        assert_eq!(Golden::from_json(&g.to_json()).unwrap(), g);
        assert!(Golden::from_json("{}").is_err());
    }
}
