//! Hand-written JSON rendering for detection responses.
//!
//! The workspace is zero-dependency, so responses are assembled by hand:
//! a small `num` formatter plus string building, self-checked in tests by
//! round-tripping through `obs::JsonValue::parse`.

use dronet_detect::Detection;
use std::fmt::Write as _;

/// Renders a finite float as a JSON number; non-finite values (an untrained
/// or NaN-poisoned network) degrade to `0.0` rather than emitting invalid
/// JSON — the in-tree `JsonValue` reader, like strict JSON, has no NaN, and
/// the workspace schema convention avoids `null`.
fn num(v: f32) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` omits the decimal point for integral floats; keep it so
        // readers see a float-typed field.
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Renders the `POST /detect` response body for one frame.
pub fn detections_json(frame_id: u64, detections: &[Detection]) -> String {
    let mut out = String::with_capacity(64 + detections.len() * 160);
    let _ = write!(
        out,
        "{{\"frame_id\":{frame_id},\"count\":{},\"detections\":[",
        detections.len()
    );
    for (i, d) in detections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cx\":{},\"cy\":{},\"w\":{},\"h\":{},\"objectness\":{},\"class\":{},\"class_prob\":{},\"score\":{}}}",
            num(d.bbox.cx),
            num(d.bbox.cy),
            num(d.bbox.w),
            num(d.bbox.h),
            num(d.objectness),
            d.class,
            num(d.class_prob),
            num(d.score()),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_metrics::BBox;
    use dronet_obs::JsonValue;

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
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(-2.0), "-2.0");
    }
}
