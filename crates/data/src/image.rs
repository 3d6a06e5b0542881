use dronet_tensor::{Shape, Tensor};

/// An RGB colour with components in `[0, 1]`.
pub type Color = [f32; 3];

/// A small owned RGB image with interleaved `f32` pixels in `[0, 1]`.
///
/// This is the renderer's canvas and the detector's input carrier; it
/// converts to/from the NCHW [`Tensor`] layout the CNN engine consumes.
///
/// # Example
///
/// ```
/// use dronet_data::Image;
///
/// let mut img = Image::new(8, 8, [0.0, 0.0, 0.0]);
/// img.fill_rect(2.0, 2.0, 4.0, 4.0, [1.0, 0.0, 0.0]);
/// assert_eq!(img.pixel(3, 3), [1.0, 0.0, 0.0]);
/// let t = img.to_tensor();
/// assert_eq!(t.shape().dims(), &[1, 3, 8, 8]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates an image filled with `color`.
    pub fn new(width: usize, height: usize, color: Color) -> Self {
        let mut data = Vec::with_capacity(width * height * 3);
        for _ in 0..width * height {
            data.extend_from_slice(&color);
        }
        Image {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw interleaved RGB data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> Color {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets the pixel at `(x, y)`; out-of-bounds writes are ignored so
    /// drawing code can clip naturally.
    pub fn set_pixel(&mut self, x: isize, y: isize, color: Color) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        let i = (y as usize * self.width + x as usize) * 3;
        self.data[i..i + 3].copy_from_slice(&color);
    }

    /// Blends `color` over the pixel at `(x, y)` with opacity `alpha`.
    pub fn blend_pixel(&mut self, x: isize, y: isize, color: Color, alpha: f32) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        let i = (y as usize * self.width + x as usize) * 3;
        #[allow(clippy::needless_range_loop)] // c indexes both sides of the blend
        for c in 0..3 {
            self.data[i + c] = self.data[i + c] * (1.0 - alpha) + color[c] * alpha;
        }
    }

    /// Fills the axis-aligned rectangle `[x, x+w) x [y, y+h)` (pixel
    /// coordinates, clipped to the image).
    pub fn fill_rect(&mut self, x: f32, y: f32, w: f32, h: f32, color: Color) {
        let x0 = x.floor().max(0.0) as isize;
        let y0 = y.floor().max(0.0) as isize;
        let x1 = (x + w).ceil().min(self.width as f32) as isize;
        let y1 = (y + h).ceil().min(self.height as f32) as isize;
        for py in y0..y1 {
            for px in x0..x1 {
                self.set_pixel(px, py, color);
            }
        }
    }

    /// Fills a rectangle of size `len x wid` centred at `(cx, cy)` and
    /// rotated by `angle` radians.
    pub fn fill_rotated_rect(
        &mut self,
        cx: f32,
        cy: f32,
        len: f32,
        wid: f32,
        angle: f32,
        color: Color,
    ) {
        self.blend_rotated_rect(cx, cy, len, wid, angle, color, 1.0);
    }

    /// Like [`Image::fill_rotated_rect`] but alpha-blended.
    #[allow(clippy::too_many_arguments)] // geometry + colour + alpha, all scalar
    pub fn blend_rotated_rect(
        &mut self,
        cx: f32,
        cy: f32,
        len: f32,
        wid: f32,
        angle: f32,
        color: Color,
        alpha: f32,
    ) {
        let (sin, cos) = angle.sin_cos();
        let radius = 0.5 * (len * len + wid * wid).sqrt();
        let x0 = (cx - radius).floor() as isize;
        let x1 = (cx + radius).ceil() as isize;
        let y0 = (cy - radius).floor() as isize;
        let y1 = (cy + radius).ceil() as isize;
        for py in y0..=y1 {
            for px in x0..=x1 {
                // Transform into the rectangle's local frame.
                let dx = px as f32 + 0.5 - cx;
                let dy = py as f32 + 0.5 - cy;
                let lx = dx * cos + dy * sin;
                let ly = -dx * sin + dy * cos;
                if lx.abs() <= len / 2.0 && ly.abs() <= wid / 2.0 {
                    if alpha >= 1.0 {
                        self.set_pixel(px, py, color);
                    } else {
                        self.blend_pixel(px, py, color, alpha);
                    }
                }
            }
        }
    }

    /// Fills a disc of radius `r` centred at `(cx, cy)`.
    pub fn fill_circle(&mut self, cx: f32, cy: f32, r: f32, color: Color) {
        let x0 = (cx - r).floor() as isize;
        let x1 = (cx + r).ceil() as isize;
        let y0 = (cy - r).floor() as isize;
        let y1 = (cy + r).ceil() as isize;
        for py in y0..=y1 {
            for px in x0..=x1 {
                let dx = px as f32 + 0.5 - cx;
                let dy = py as f32 + 0.5 - cy;
                if dx * dx + dy * dy <= r * r {
                    self.set_pixel(px, py, color);
                }
            }
        }
    }

    /// Draws a 1-pixel rectangle outline (for visualising detections).
    pub fn draw_rect_outline(&mut self, x0: f32, y0: f32, x1: f32, y1: f32, color: Color) {
        let (ix0, iy0) = (x0.round() as isize, y0.round() as isize);
        let (ix1, iy1) = (x1.round() as isize, y1.round() as isize);
        for px in ix0..=ix1 {
            self.set_pixel(px, iy0, color);
            self.set_pixel(px, iy1, color);
        }
        for py in iy0..=iy1 {
            self.set_pixel(ix0, py, color);
            self.set_pixel(ix1, py, color);
        }
    }

    /// Multiplies every channel by `gain` (illumination change), clamping
    /// to `[0, 1]`.
    pub fn scale_brightness(&mut self, gain: f32) {
        for v in &mut self.data {
            *v = (*v * gain).clamp(0.0, 1.0);
        }
    }

    /// Adds per-pixel noise produced by `f(pixel_index) -> delta`.
    pub fn add_noise_with(&mut self, mut f: impl FnMut() -> f32) {
        for v in &mut self.data {
            *v = (*v + f()).clamp(0.0, 1.0);
        }
    }

    /// Bilinear resize to `new_w x new_h`.
    pub fn resize(&self, new_w: usize, new_h: usize) -> Image {
        assert!(new_w > 0 && new_h > 0, "resize target must be positive");
        let mut out = Image::new(new_w, new_h, [0.0; 3]);
        let sx = self.width as f32 / new_w as f32;
        let sy = self.height as f32 / new_h as f32;
        for y in 0..new_h {
            for x in 0..new_w {
                let fx = ((x as f32 + 0.5) * sx - 0.5).clamp(0.0, (self.width - 1) as f32);
                let fy = ((y as f32 + 0.5) * sy - 0.5).clamp(0.0, (self.height - 1) as f32);
                let x0 = fx.floor() as usize;
                let y0 = fy.floor() as usize;
                let x1 = (x0 + 1).min(self.width - 1);
                let y1 = (y0 + 1).min(self.height - 1);
                let tx = fx - x0 as f32;
                let ty = fy - y0 as f32;
                let p00 = self.pixel(x0, y0);
                let p10 = self.pixel(x1, y0);
                let p01 = self.pixel(x0, y1);
                let p11 = self.pixel(x1, y1);
                let mut c = [0.0f32; 3];
                for ch in 0..3 {
                    let top = p00[ch] * (1.0 - tx) + p10[ch] * tx;
                    let bot = p01[ch] * (1.0 - tx) + p11[ch] * tx;
                    c[ch] = top * (1.0 - ty) + bot * ty;
                }
                let i = (y * new_w + x) * 3;
                out.data[i..i + 3].copy_from_slice(&c);
            }
        }
        out
    }

    /// Converts to a `[1, 3, h, w]` NCHW tensor (values stay in `[0, 1]`,
    /// matching Darknet's input convention).
    pub fn to_tensor(&self) -> Tensor {
        let plane = self.width * self.height;
        let mut data = vec![0.0f32; 3 * plane];
        for i in 0..plane {
            for c in 0..3 {
                data[c * plane + i] = self.data[i * 3 + c];
            }
        }
        Tensor::from_vec(data, Shape::nchw(1, 3, self.height, self.width))
            .expect("image data matches tensor shape by construction")
    }

    /// Reconstructs an image from a `[1, 3, h, w]` tensor, clamping values
    /// to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not a single 3-channel NCHW image.
    pub fn from_tensor(t: &Tensor) -> Image {
        let s = t.shape();
        assert!(
            s.rank() == 4 && s.batch() == 1 && s.channels() == 3,
            "from_tensor expects [1, 3, h, w], got {s}"
        );
        let (h, w) = (s.height(), s.width());
        let plane = h * w;
        let src = t.as_slice();
        let mut img = Image::new(w, h, [0.0; 3]);
        for i in 0..plane {
            for c in 0..3 {
                img.data[i * 3 + c] = src[c * plane + i].clamp(0.0, 1.0);
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_pixels() {
        let mut img = Image::new(4, 3, [0.2, 0.4, 0.6]);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.pixel(0, 0), [0.2, 0.4, 0.6]);
        img.set_pixel(1, 1, [1.0, 0.0, 0.0]);
        assert_eq!(img.pixel(1, 1), [1.0, 0.0, 0.0]);
        // OOB writes are silently clipped.
        img.set_pixel(-1, 0, [0.5; 3]);
        img.set_pixel(10, 10, [0.5; 3]);
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = Image::new(4, 4, [0.0; 3]);
        img.fill_rect(-2.0, -2.0, 4.0, 4.0, [1.0; 3]);
        assert_eq!(img.pixel(0, 0), [1.0; 3]);
        assert_eq!(img.pixel(1, 1), [1.0; 3]);
        assert_eq!(img.pixel(2, 2), [0.0; 3]);
    }

    #[test]
    fn rotated_rect_at_zero_angle_matches_axis_aligned() {
        let mut a = Image::new(16, 16, [0.0; 3]);
        a.fill_rotated_rect(8.0, 8.0, 6.0, 4.0, 0.0, [1.0; 3]);
        // centre row/col inside
        assert_eq!(a.pixel(8, 8), [1.0; 3]);
        assert_eq!(a.pixel(6, 7), [1.0; 3]);
        // outside the half-extent
        assert_eq!(a.pixel(8, 12), [0.0; 3]);
        assert_eq!(a.pixel(12, 8), [0.0; 3]);
    }

    #[test]
    fn rotated_rect_90_degrees_swaps_extents() {
        let mut a = Image::new(16, 16, [0.0; 3]);
        a.fill_rotated_rect(8.0, 8.0, 8.0, 2.0, std::f32::consts::FRAC_PI_2, [1.0; 3]);
        // now tall and thin
        assert_eq!(a.pixel(8, 5), [1.0; 3]);
        assert_eq!(a.pixel(5, 8), [0.0; 3]);
    }

    #[test]
    fn circle_contains_center_not_corner() {
        let mut a = Image::new(10, 10, [0.0; 3]);
        a.fill_circle(5.0, 5.0, 3.0, [1.0; 3]);
        assert_eq!(a.pixel(5, 5), [1.0; 3]);
        assert_eq!(a.pixel(9, 9), [0.0; 3]);
    }

    #[test]
    fn brightness_clamps() {
        let mut img = Image::new(2, 2, [0.6; 3]);
        img.scale_brightness(2.0);
        assert_eq!(img.pixel(0, 0), [1.0; 3]);
        img.scale_brightness(0.5);
        assert_eq!(img.pixel(0, 0), [0.5; 3]);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut img = Image::new(5, 4, [0.1, 0.5, 0.9]);
        img.set_pixel(2, 1, [0.3, 0.2, 0.7]);
        let t = img.to_tensor();
        assert_eq!(t.shape().dims(), &[1, 3, 4, 5]);
        let back = Image::from_tensor(&t);
        assert_eq!(img, back);
    }

    #[test]
    fn resize_preserves_constant_images() {
        let img = Image::new(8, 8, [0.25, 0.5, 0.75]);
        let small = img.resize(3, 5);
        assert_eq!(small.width(), 3);
        assert_eq!(small.height(), 5);
        for y in 0..5 {
            for x in 0..3 {
                let p = small.pixel(x, y);
                for (c, &v) in p.iter().enumerate() {
                    assert!((v - img.pixel(0, 0)[c]).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn resize_upscale_interpolates() {
        let mut img = Image::new(2, 1, [0.0; 3]);
        img.set_pixel(1, 0, [1.0; 3]);
        let big = img.resize(4, 1);
        // Middle samples should be between the two endpoint colours.
        let mid = big.pixel(2, 0)[0];
        assert!(mid > 0.0 && mid < 1.0, "mid {mid}");
    }

    #[test]
    fn blend_pixel_mixes() {
        let mut img = Image::new(1, 1, [0.0; 3]);
        img.blend_pixel(0, 0, [1.0; 3], 0.25);
        assert!((img.pixel(0, 0)[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_oob_panics() {
        Image::new(2, 2, [0.0; 3]).pixel(2, 0);
    }
}
