//! Minimal binary PPM (P6) image I/O.
//!
//! Only dependency-free formats are allowed in this workspace, and PPM is
//! enough to inspect generated scenes and detector output with any common
//! image viewer.

use crate::Image;
use std::io::{self, Read, Write};

/// Writes `img` as a binary P6 PPM with 8-bit channels.
///
/// Pass `&mut writer` to keep ownership of the writer.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write<W: Write>(img: &Image, mut writer: W) -> io::Result<()> {
    write!(writer, "P6\n{} {}\n255\n", img.width(), img.height())?;
    let mut buf = Vec::with_capacity(img.width() * img.height() * 3);
    for v in img.as_slice() {
        buf.push((v.clamp(0.0, 1.0) * 255.0).round() as u8);
    }
    writer.write_all(&buf)
}

/// Convenience wrapper writing to a file path.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_to_path(img: &Image, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write(img, io::BufWriter::new(file))
}

/// Reads a binary P6 PPM with 8-bit channels.
///
/// # Errors
///
/// Returns `InvalidData` for malformed headers or truncated pixel data.
pub fn read<R: Read>(mut reader: R) -> io::Result<Image> {
    let mut content = Vec::new();
    reader.read_to_end(&mut content)?;
    let mut pos = 0usize;

    let mut token = || -> io::Result<String> {
        // Skip whitespace and comments.
        loop {
            while pos < content.len() && content[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < content.len() && content[pos] == b'#' {
                while pos < content.len() && content[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let start = pos;
        while pos < content.len() && !content[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected end of ppm header",
            ));
        }
        Ok(String::from_utf8_lossy(&content[start..pos]).into_owned())
    };

    let magic = token()?;
    if magic != "P6" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a binary ppm (magic {magic:?})"),
        ));
    }
    let parse = |s: String| -> io::Result<usize> {
        s.parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad ppm header number"))
    };
    let width = parse(token()?)?;
    let height = parse(token()?)?;
    let maxval = parse(token()?)?;
    if maxval != 255 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported ppm maxval {maxval}"),
        ));
    }
    pos += 1; // single whitespace after maxval
              // Checked arithmetic: attacker-sized headers (e.g. 2^32 x 2^32) must
              // produce InvalidData, not an overflow panic or a bogus tiny `need`
              // that lets a huge allocation through.
    let need = width
        .checked_mul(height)
        .and_then(|p| p.checked_mul(3))
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "ppm dimensions overflow usize")
        })?;
    let end = pos.checked_add(need).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "ppm dimensions overflow usize")
    })?;
    if content.len() < end {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "truncated ppm pixel data",
        ));
    }
    let mut img = Image::new(width, height, [0.0; 3]);
    for y in 0..height {
        for x in 0..width {
            let i = pos + (y * width + x) * 3;
            img.set_pixel(
                x as isize,
                y as isize,
                [
                    content[i] as f32 / 255.0,
                    content[i + 1] as f32 / 255.0,
                    content[i + 2] as f32 / 255.0,
                ],
            );
        }
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_pixels_to_8bit() {
        let mut img = Image::new(3, 2, [0.0; 3]);
        img.set_pixel(0, 0, [1.0, 0.5, 0.25]);
        img.set_pixel(2, 1, [0.1, 0.9, 0.3]);
        let mut buf = Vec::new();
        write(&img, &mut buf).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(back.width(), 3);
        assert_eq!(back.height(), 2);
        for y in 0..2 {
            for x in 0..3 {
                for c in 0..3 {
                    assert!(
                        (back.pixel(x, y)[c] - img.pixel(x, y)[c]).abs() <= 1.0 / 255.0,
                        "pixel ({x},{y}) channel {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn header_has_expected_shape() {
        let img = Image::new(4, 5, [0.5; 3]);
        let mut buf = Vec::new();
        write(&img, &mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n4 5\n255\n"));
        assert_eq!(buf.len(), b"P6\n4 5\n255\n".len() + 4 * 5 * 3);
    }

    #[test]
    fn comments_in_header_are_skipped() {
        let data = b"P6\n# a comment\n2 1\n255\n\x00\x00\x00\xff\xff\xff";
        let img = read(&data[..]).unwrap();
        assert_eq!(img.pixel(1, 0), [1.0, 1.0, 1.0]);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(read(&b"P5\n1 1\n255\n\x00"[..]).is_err());
        assert!(read(&b"P6\n2 2\n255\n\x00"[..]).is_err()); // truncated
        assert!(read(&b"P6\nx y\n255\n"[..]).is_err());
        assert!(read(&b"P6\n1 1\n65535\n\x00\x00"[..]).is_err());
        assert!(read(&b""[..]).is_err());
    }

    #[test]
    fn overflowing_dimensions_are_rejected_not_panicked() {
        // width * height * 3 would wrap around usize.
        let huge = format!("P6\n{} {}\n255\n", usize::MAX, usize::MAX);
        assert!(read(huge.as_bytes()).is_err());
        let huge = format!("P6\n{} 3\n255\nxxx", usize::MAX / 2);
        assert!(read(huge.as_bytes()).is_err());
        // Large-but-representable dimensions fail the length check (the
        // file obviously cannot contain the pixels) without allocating.
        assert!(read(&b"P6\n1000000 1000000\n255\n\x00"[..]).is_err());
    }

    #[test]
    fn path_roundtrip() {
        let dir = std::env::temp_dir().join("dronet-ppm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.ppm");
        let img = Image::new(2, 2, [0.2, 0.4, 0.6]);
        write_to_path(&img, &path).unwrap();
        let back = read(io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        assert_eq!(back.width(), 2);
        std::fs::remove_file(&path).ok();
    }
}
