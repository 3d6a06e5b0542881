//! Binary weight serialisation in the spirit of Darknet's `.weights` files.
//!
//! Layout (all values little-endian):
//!
//! ```text
//! magic   [u8; 4] = b"DRNW"
//! version u32     = 1
//! seen    u64             // training images seen
//! then, for every convolutional layer in order:
//!   bias   [f32; out_c]
//!   if batch_normalize:
//!     scales       [f32; out_c]
//!     rolling_mean [f32; out_c]
//!     rolling_var  [f32; out_c]
//!   weights [f32; out_c * in_c * k * k]
//! ```
//!
//! This matches Darknet's per-layer field order, so porting real Darknet
//! weights only requires swapping the header.

use crate::{Layer, Network, NnError, Result};
use std::io::{Read, Write};

const MAGIC: [u8; 4] = *b"DRNW";
const VERSION: u32 = 1;

/// Writes the weights of `net` to `writer`.
///
/// Functions are generic over `W: Write`; pass `&mut writer` to keep
/// ownership.
///
/// # Errors
///
/// Returns [`NnError::Io`] on write failure.
pub fn save<W: Write>(net: &Network, mut writer: W) -> Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&net.seen().to_le_bytes())?;
    for layer in net.layers() {
        if let Layer::Conv(conv) = layer {
            write_f32s(&mut writer, conv.bias())?;
            if let Some(bn) = conv.batch_norm() {
                write_f32s(&mut writer, bn.scales())?;
                write_f32s(&mut writer, bn.rolling_mean())?;
                write_f32s(&mut writer, bn.rolling_var())?;
            }
            write_f32s(&mut writer, conv.weights().as_slice())?;
        }
    }
    Ok(())
}

/// Loads weights from `reader` into `net`, which must have the same
/// architecture the weights were saved from.
///
/// # Errors
///
/// Returns [`NnError::WeightsFormat`] on a bad header or short file, and
/// [`NnError::Io`] on read failure.
pub fn load<R: Read>(net: &mut Network, mut reader: R) -> Result<()> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic).map_err(short_file)?;
    if magic != MAGIC {
        return Err(NnError::WeightsFormat(format!(
            "bad magic {:?}, expected {:?}",
            magic, MAGIC
        )));
    }
    let mut v = [0u8; 4];
    reader.read_exact(&mut v).map_err(short_file)?;
    let version = u32::from_le_bytes(v);
    if version != VERSION {
        return Err(NnError::WeightsFormat(format!(
            "unsupported version {version}, expected {VERSION}"
        )));
    }
    let mut s = [0u8; 8];
    reader.read_exact(&mut s).map_err(short_file)?;
    net.set_seen(u64::from_le_bytes(s));

    for (i, layer) in net.layers_mut().iter_mut().enumerate() {
        if let Layer::Conv(conv) = layer {
            read_f32s(&mut reader, conv.bias_mut()).map_err(|e| at_conv(e, i, "bias"))?;
            ensure_finite(conv.bias(), i, "bias")?;
            if conv.has_batch_norm() {
                let bn = conv.batch_norm_mut().expect("has_batch_norm checked");
                read_f32s(&mut reader, bn.scales_mut()).map_err(|e| at_conv(e, i, "scales"))?;
                read_f32s(&mut reader, bn.rolling_mean_mut())
                    .map_err(|e| at_conv(e, i, "rolling mean"))?;
                read_f32s(&mut reader, bn.rolling_var_mut())
                    .map_err(|e| at_conv(e, i, "rolling variance"))?;
                ensure_finite(bn.scales(), i, "scales")?;
                ensure_finite(bn.rolling_mean(), i, "rolling mean")?;
                ensure_finite(bn.rolling_var(), i, "rolling variance")?;
            }
            read_f32s(&mut reader, conv.weights_mut().as_mut_slice())
                .map_err(|e| at_conv(e, i, "weights"))?;
            ensure_finite(conv.weights().as_slice(), i, "weights")?;
        }
    }
    // A well-formed file ends exactly here.
    let mut probe = [0u8; 1];
    match reader.read(&mut probe)? {
        0 => Ok(()),
        _ => Err(NnError::WeightsFormat(
            "trailing bytes after final layer; architecture mismatch".to_string(),
        )),
    }
}

/// Saves weights to a file path **atomically** (see [`atomic_write`]).
///
/// # Errors
///
/// Returns [`NnError::Io`] on write failure.
pub fn save_to_path(net: &Network, path: impl AsRef<std::path::Path>) -> Result<()> {
    let mut bytes = Vec::new();
    save(net, &mut bytes)?;
    atomic_write(path.as_ref(), &bytes).map_err(NnError::Io)
}

/// Writes `bytes` to `path` **atomically**: they go to a temporary sibling
/// file, which is fsynced, then renamed over `path`. A crash at any byte of
/// the write leaves either the old file or no file — never a torn one. The
/// parent directory is fsynced best-effort so the rename itself is durable.
/// The weights and checkpoint writers both use it.
///
/// # Errors
///
/// Returns the I/O error; the temporary file is removed on failure.
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Durability of the rename, not correctness: ignore platforms
            // where directories cannot be opened/synced.
            let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_f32s<W: Write>(w: &mut W, values: &[f32]) -> Result<()> {
    // Buffer per slice to avoid per-value syscalls.
    let mut buf = Vec::with_capacity(values.len() * 4);
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

fn read_f32s<R: Read>(r: &mut R, out: &mut [f32]) -> Result<()> {
    let mut buf = vec![0u8; out.len() * 4];
    r.read_exact(&mut buf).map_err(short_file)?;
    for (i, chunk) in buf.chunks_exact(4).enumerate() {
        out[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    Ok(())
}

/// Rejects NaN/Inf in a freshly decoded field: corrupted or truncated
/// payloads must fail loudly at load time, not as silent NaN detections
/// frames later.
fn ensure_finite(values: &[f32], layer_index: usize, field: &'static str) -> Result<()> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(NnError::NonFiniteWeights { layer_index, field })
    }
}

fn short_file(e: std::io::Error) -> NnError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        NnError::WeightsFormat("file ended early; architecture mismatch".to_string())
    } else {
        NnError::Io(e)
    }
}

fn at_conv(e: NnError, index: usize, field: &str) -> NnError {
    match e {
        NnError::WeightsFormat(msg) => {
            NnError::WeightsFormat(format!("conv layer {index} {field}: {msg}"))
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Conv2d, MaxPool2d, Network};
    use rand::SeedableRng;

    fn make_net(seed: u64) -> Network {
        let mut net = Network::new(3, 16, 16);
        net.push(Layer::conv(
            Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(8, 4, 1, 1, 0, Activation::Linear, false).unwrap(),
        ));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        net.init_weights(&mut rng);
        net
    }

    fn weights_fingerprint(net: &Network) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in net.layers() {
            if let Layer::Conv(c) = layer {
                out.extend_from_slice(c.weights().as_slice());
                out.extend_from_slice(c.bias());
                if let Some(bn) = c.batch_norm() {
                    out.extend_from_slice(bn.scales());
                    out.extend_from_slice(bn.rolling_mean());
                    out.extend_from_slice(bn.rolling_var());
                }
            }
        }
        out
    }

    #[test]
    fn save_load_roundtrip() {
        let mut src = make_net(11);
        src.set_seen(12345);
        let mut buf = Vec::new();
        save(&src, &mut buf).unwrap();

        let mut dst = make_net(99); // different weights
        assert_ne!(weights_fingerprint(&src), weights_fingerprint(&dst));
        load(&mut dst, buf.as_slice()).unwrap();
        assert_eq!(weights_fingerprint(&src), weights_fingerprint(&dst));
        assert_eq!(dst.seen(), 12345);
    }

    #[test]
    fn loaded_network_produces_identical_outputs() {
        use dronet_tensor::{init, Shape};
        let mut src = make_net(3);
        let mut buf = Vec::new();
        save(&src, &mut buf).unwrap();
        let mut dst = make_net(4);
        load(&mut dst, buf.as_slice()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let x = init::uniform(Shape::nchw(1, 3, 16, 16), 0.0, 1.0, &mut rng);
        let a = src.forward(&x).unwrap();
        let b = dst.forward(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut net = make_net(1);
        let err = load(&mut net, &b"XXXX\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DRNW");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut net = make_net(1);
        let err = load(&mut net, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported version"));
    }

    #[test]
    fn short_file_is_architecture_mismatch() {
        let mut buf = Vec::new();
        save(&make_net(1), &mut buf).unwrap();
        buf.truncate(buf.len() - 8);
        let mut net = make_net(1);
        let err = load(&mut net, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("ended early"), "{err}");
    }

    #[test]
    fn non_finite_payload_is_rejected() {
        let mut buf = Vec::new();
        save(&make_net(1), &mut buf).unwrap();
        // First payload field is conv layer 0's bias, right after the
        // 16-byte header: poison its first value.
        buf[16..20].copy_from_slice(&f32::NAN.to_le_bytes());
        let mut net = make_net(1);
        let err = load(&mut net, buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                NnError::NonFiniteWeights {
                    layer_index: 0,
                    field: "bias"
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("non-finite"));

        // Infinity deeper in the file (the conv weights) is also caught.
        let mut buf = Vec::new();
        save(&make_net(1), &mut buf).unwrap();
        let len = buf.len();
        buf[len - 4..].copy_from_slice(&f32::INFINITY.to_le_bytes());
        let err = load(&mut make_net(1), buf.as_slice()).unwrap_err();
        assert!(matches!(err, NnError::NonFiniteWeights { .. }), "{err}");
    }

    #[test]
    fn trailing_bytes_are_architecture_mismatch() {
        let mut buf = Vec::new();
        save(&make_net(1), &mut buf).unwrap();
        buf.extend_from_slice(&[0u8; 16]);
        let mut net = make_net(1);
        let err = load(&mut net, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn path_roundtrip() {
        let dir = std::env::temp_dir().join("dronet-weights-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.drnw");
        let src = make_net(7);
        save_to_path(&src, &path).unwrap();
        let mut dst = make_net(8);
        load(&mut dst, std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(weights_fingerprint(&src), weights_fingerprint(&dst));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_save_leaves_no_temp_file_and_replaces_existing() {
        let dir = std::env::temp_dir().join("dronet-weights-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.drnw");
        // First write, then overwrite with different weights: the reader
        // must see one version or the other, and no *.tmp-* debris.
        save_to_path(&make_net(1), &path).unwrap();
        let src = make_net(2);
        save_to_path(&src, &path).unwrap();
        let mut dst = make_net(3);
        load(&mut dst, std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(weights_fingerprint(&src), weights_fingerprint(&dst));
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(debris.is_empty(), "temp files left behind: {debris:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_raw_file_still_loads() {
        // Files written by the old non-atomic writer are byte-identical to
        // the atomic writer's output; a raw `save` dump must keep loading.
        let dir = std::env::temp_dir().join("dronet-weights-legacy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.drnw");
        let src = make_net(5);
        let mut buf = Vec::new();
        save(&src, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let mut dst = make_net(6);
        load(&mut dst, std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(weights_fingerprint(&src), weights_fingerprint(&dst));
        std::fs::remove_file(&path).ok();
    }
}
