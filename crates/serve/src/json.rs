//! JSON rendering for detection responses.
//!
//! The body streams through obs's one [`JsonWriter`] (escaping, number
//! text, layout), self-checked in tests by round-tripping through
//! `obs::JsonValue::parse` and locked byte for byte.

use dronet_detect::Detection;
use dronet_obs::{json_object, JsonWriter};

/// Renders the `POST /detect` response body for one frame.
pub fn detections_json(frame_id: u64, detections: &[Detection]) -> String {
    let mut out = String::with_capacity(64 + detections.len() * 160);
    JsonWriter::new(&mut out).object(|w| {
        w.field("frame_id", frame_id)
            .field("count", detections.len());
        w.key("detections").array(|w| {
            for d in detections {
                json_object!(w, "cx" => d.bbox.cx, "cy" => d.bbox.cy, "w" => d.bbox.w,
                    "h" => d.bbox.h, "objectness" => d.objectness, "class" => d.class,
                    "class_prob" => d.class_prob, "score" => d.score());
            }
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_metrics::BBox;
    use dronet_obs::{format_f64, JsonValue};

    fn det(cx: f32, score: f32) -> Detection {
        Detection {
            bbox: BBox::new(cx, 0.5, 0.25, 0.125),
            objectness: score,
            class: 0,
            class_prob: 1.0,
        }
    }

    #[test]
    fn renders_valid_json_round_trip() {
        let body = detections_json(42, &[det(0.5, 0.9), det(0.75, 0.8)]);
        let v = JsonValue::parse(&body).expect("valid JSON");
        assert_eq!(v.get("frame_id").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(v.get("count").and_then(JsonValue::as_f64), Some(2.0));
        let dets = v.get("detections").and_then(JsonValue::as_array).unwrap();
        assert_eq!(dets.len(), 2);
        assert_eq!(dets[0].get("cx").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(dets[1].get("cx").and_then(JsonValue::as_f64), Some(0.75));
        assert_eq!(dets[0].get("class").and_then(JsonValue::as_f64), Some(0.0));
    }

    #[test]
    fn empty_detection_list_is_valid() {
        let body = detections_json(0, &[]);
        let v = JsonValue::parse(&body).expect("valid JSON");
        assert_eq!(v.get("count").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(
            v.get("detections")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn non_finite_values_degrade_to_zero() {
        let mut d = det(0.5, 0.9);
        d.objectness = f32::NAN;
        let body = detections_json(1, &[d]);
        assert!(body.contains("\"objectness\":0.0"));
        JsonValue::parse(&body).expect("still valid JSON");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(format_f64(1.0f32), "1.0");
        assert_eq!(format_f64(0.5f32), "0.5");
        assert_eq!(format_f64(-2.0f32), "-2.0");
    }

    /// The response bytes of a fixed detection list, captured before
    /// serve's own formatter was folded into obs's: integral, fractional,
    /// tiny, negative and non-finite values render exactly as they did.
    #[test]
    fn response_bytes_are_locked() {
        let d = |bbox: BBox, objectness: f32, class: usize, class_prob: f32| Detection {
            bbox,
            objectness,
            class,
            class_prob,
        };
        let dets = [
            d(BBox::new(0.5, 0.25, 1.0, 0.125), 1.0, 0, 1.0),
            d(BBox::new(0.1, 0.333_333_34, 0.2, 0.7), 0.9, 2, 0.55),
            d(
                BBox::new(1e-7, 3e-30, f32::MIN_POSITIVE, 0.0),
                1e-45,
                1,
                -2.0,
            ),
            d(
                BBox::new(f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 123456.0),
                f32::NAN,
                7,
                0.5,
            ),
        ];
        let expected = concat!(
            r#"{"frame_id":7,"count":4,"detections":["#,
            r#"{"cx":0.5,"cy":0.25,"w":1.0,"h":0.125,"objectness":1.0,"class":0,"class_prob":1.0,"score":1.0},"#,
            r#"{"cx":0.1,"cy":0.33333334,"w":0.2,"h":0.7,"objectness":0.9,"class":2,"class_prob":0.55,"score":0.495},"#,
            r#"{"cx":0.0000001,"cy":0.000000000000000000000000000003,"#,
            r#""w":0.000000000000000000000000000000000000011754944,"h":0.0,"#,
            r#""objectness":0.000000000000000000000000000000000000000000001,"class":1,"class_prob":-2.0,"#,
            r#""score":-0.000000000000000000000000000000000000000000003},"#,
            r#"{"cx":0.0,"cy":0.0,"w":0.0,"h":123456.0,"objectness":0.0,"class":7,"class_prob":0.5,"score":0.0}"#,
            "]}"
        );
        assert_eq!(detections_json(7, &dets), expected);
    }
}
