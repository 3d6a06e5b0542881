//! Durable, torn-write-safe training checkpoints.
//!
//! The paper trains for tens of thousands of Darknet batches before the
//! model ever reaches the UAV; on the Odroid/RPi-class hosts this project
//! targets, a multi-hour run must survive power blips and OOM kills. This
//! module provides the two halves of that guarantee:
//!
//! * [`Checkpoint`] — a versioned, sectioned binary bundle holding the
//!   network weights, the optimizer's moment buffers, the LR-schedule
//!   position and the loss history, where **every section carries a length
//!   and a CRC32 footer**, so truncation and bit flips are detected at load
//!   time as typed [`CheckpointError`]s instead of silently poisoned runs;
//! * [`CheckpointStore`] — a directory manager that writes bundles via
//!   temp-file → flush → fsync → atomic rename (a crash at *any* byte of a
//!   write never strands the run), rotates old snapshots (keep last-K plus
//!   best) and recovers the newest intact bundle with
//!   [`CheckpointStore::latest_valid`].
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic   [u8; 4] = b"DRCP"
//! version u32     = 1
//! then a sequence of sections, each:
//!   tag     u8        // 1 = META, 2 = WEIGHTS, 3 = OPTIMIZER, 0xFF = END
//!   len     u64       // payload length in bytes
//!   payload [u8; len]
//!   crc     u32       // CRC32 (IEEE) over tag || len || payload
//! ```
//!
//! A well-formed file contains exactly one META, WEIGHTS and OPTIMIZER
//! section followed by an END section (empty payload) and nothing after it.
//! The WEIGHTS payload is the `nn::weights` DRNW bundle, so the legacy raw
//! weight format stays loadable on its own.

use crate::SgdState;
use dronet_nn::{weights, Network, NnError};
use std::fmt;
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"DRCP";
const VERSION: u32 = 1;

const TAG_META: u8 = 1;
const TAG_WEIGHTS: u8 = 2;
const TAG_OPTIMIZER: u8 = 3;
const TAG_END: u8 = 0xFF;

/// File extension used by the store, without the dot.
pub const CHECKPOINT_EXT: &str = "drcp";

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 of `bytes` (IEEE 802.3, the zlib/PNG polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let state = bytes.iter().fold(0xFFFF_FFFF, |state: u32, &b| {
        CRC_TABLE[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8)
    });
    state ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure modes of checkpoint parsing, loading and storage.
///
/// Every possible byte stream either loads exactly or returns one of these;
/// no input panics (property-tested in `tests/checkpoint_props.rs`).
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O error while reading or writing a checkpoint file.
    Io(std::io::Error),
    /// The file does not start with the `DRCP` magic.
    BadMagic {
        /// The four bytes actually found (zero-padded when shorter).
        found: [u8; 4],
    },
    /// The format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The byte stream ended before a complete section could be read —
    /// the classic torn (partially written) file.
    Truncated {
        /// What was being parsed when the bytes ran out.
        section: &'static str,
        /// Bytes needed to finish that parse.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A section's CRC32 footer does not match its contents (bit rot or a
    /// torn write that happened to preserve the length fields).
    CrcMismatch {
        /// Section name.
        section: &'static str,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the bytes actually read.
        computed: u32,
    },
    /// A section tag this version does not define.
    UnknownSection {
        /// The offending tag byte.
        tag: u8,
    },
    /// A required section is absent.
    MissingSection {
        /// Section name.
        section: &'static str,
    },
    /// A section decoded structurally but its contents are inconsistent
    /// (duplicate sections, impossible counts, trailing bytes…).
    Malformed {
        /// Section name.
        section: &'static str,
        /// Description of the inconsistency.
        msg: String,
    },
    /// The embedded weight bundle failed to load into the target network.
    Weights(NnError),
    /// A crash was injected by the test harness (see [`crate::crash`])
    /// while writing — the write never completed.
    InjectedCrash {
        /// Byte offset at which the simulated power-loss struck.
        at_byte: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "bad magic {found:?}, expected {MAGIC:?}")
            }
            CheckpointError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported checkpoint version {found}, expected {expected}")
            }
            CheckpointError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "truncated checkpoint: {section} needs {needed} bytes, only {available} available"
            ),
            CheckpointError::CrcMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "CRC mismatch in {section} section: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::UnknownSection { tag } => {
                write!(f, "unknown section tag {tag:#04x}")
            }
            CheckpointError::MissingSection { section } => {
                write!(f, "missing required {section} section")
            }
            CheckpointError::Malformed { section, msg } => {
                write!(f, "malformed {section} section: {msg}")
            }
            CheckpointError::Weights(e) => write!(f, "checkpoint weights rejected: {e}"),
            CheckpointError::InjectedCrash { at_byte } => {
                write!(f, "injected crash killed the write at byte {at_byte}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Weights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<NnError> for CheckpointError {
    fn from(e: NnError) -> Self {
        CheckpointError::Weights(e)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint bundle
// ---------------------------------------------------------------------------

/// Optimizer state embedded in a checkpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum OptimizerState {
    /// No optimizer state (inference-only snapshot).
    #[default]
    None,
    /// SGD momentum buffers.
    Sgd(SgdState),
}

/// A complete training snapshot: everything needed to continue a run
/// bit-identically after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Global optimizer steps completed (doubles as the LR-schedule
    /// position: the next batch uses `lr_at(step)`).
    pub step: u64,
    /// Epoch the next batch belongs to (0-based).
    pub epoch: u64,
    /// Index within that epoch of the next batch to run.
    pub batch_in_epoch: u64,
    /// Images consumed so far (including augmented repeats).
    pub images_seen: u64,
    /// Best epoch-mean loss observed so far; `f32::INFINITY` before the
    /// first completed epoch.
    pub best_loss: f32,
    /// Cumulative sentry LR backoff multiplier (1.0 = none).
    pub lr_scale: f32,
    /// The divergence sentry's EWMA of the loss, if armed.
    pub ewma_loss: Option<f32>,
    /// Sentry rollbacks consumed from the retry budget.
    pub rollbacks: u64,
    /// Sentry trips observed (includes rollbacks and halts).
    pub trips: u64,
    /// Mean loss of every completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Running loss sum of the in-progress epoch.
    pub epoch_loss_partial: f32,
    /// Batches accumulated into [`Checkpoint::epoch_loss_partial`].
    pub epoch_batches_partial: u64,
    /// The network weights as a `nn::weights` DRNW bundle.
    pub weights: Vec<u8>,
    /// The optimizer's mutable state.
    pub optimizer: OptimizerState,
}

impl Default for Checkpoint {
    fn default() -> Self {
        Checkpoint {
            step: 0,
            epoch: 0,
            batch_in_epoch: 0,
            images_seen: 0,
            best_loss: f32::INFINITY,
            lr_scale: 1.0,
            ewma_loss: None,
            rollbacks: 0,
            trips: 0,
            epoch_losses: Vec::new(),
            epoch_loss_partial: 0.0,
            epoch_batches_partial: 0,
            weights: Vec::new(),
            optimizer: OptimizerState::None,
        }
    }
}

impl Checkpoint {
    /// Captures the current weights of `net` into a fresh checkpoint with
    /// all counters zeroed; the trainer fills the counters in.
    ///
    /// # Errors
    ///
    /// Propagates weight-serialisation failures.
    pub fn capture(net: &Network, optimizer: OptimizerState) -> Result<Self, CheckpointError> {
        let mut weights = Vec::new();
        weights::save(net, &mut weights)?;
        Ok(Checkpoint {
            weights,
            optimizer,
            ..Checkpoint::default()
        })
    }

    /// Loads the embedded weight bundle into `net` (which must match the
    /// architecture the checkpoint was captured from).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Weights`] when the bundle does not match.
    pub fn restore_network(&self, net: &mut Network) -> Result<(), CheckpointError> {
        weights::load(net, self.weights.as_slice())?;
        Ok(())
    }

    /// Serialises the checkpoint to its sectioned binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.weights.len() + 256);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        write_section(&mut out, TAG_META, &self.meta_payload());
        write_section(&mut out, TAG_WEIGHTS, &self.weights);
        write_section(&mut out, TAG_OPTIMIZER, &optimizer_payload(&self.optimizer));
        write_section(&mut out, TAG_END, &[]);
        out
    }

    /// Parses a checkpoint from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for any malformed input:
    /// truncation, bit flips (CRC), version/magic mismatches, duplicate or
    /// missing sections, trailing garbage. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated {
                section: "header",
                needed: 8,
                available: bytes.len() as u64,
            });
        }
        if bytes[..4] != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&bytes[..4]);
            return Err(CheckpointError::BadMagic { found });
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                expected: VERSION,
            });
        }

        let mut pos = 8usize;
        let mut meta: Option<Checkpoint> = None;
        let mut weights: Option<Vec<u8>> = None;
        let mut optimizer: Option<OptimizerState> = None;
        loop {
            let (tag, payload, next) = read_section(bytes, pos)?;
            pos = next;
            match tag {
                TAG_META => {
                    if meta.is_some() {
                        return Err(duplicate("META"));
                    }
                    meta = Some(parse_meta(payload)?);
                }
                TAG_WEIGHTS => {
                    if weights.is_some() {
                        return Err(duplicate("WEIGHTS"));
                    }
                    weights = Some(payload.to_vec());
                }
                TAG_OPTIMIZER => {
                    if optimizer.is_some() {
                        return Err(duplicate("OPTIMIZER"));
                    }
                    optimizer = Some(parse_optimizer(payload)?);
                }
                TAG_END => {
                    if !payload.is_empty() {
                        return Err(CheckpointError::Malformed {
                            section: "END",
                            msg: format!("END carries {} payload bytes", payload.len()),
                        });
                    }
                    break;
                }
                other => return Err(CheckpointError::UnknownSection { tag: other }),
            }
        }
        if pos != bytes.len() {
            return Err(CheckpointError::Malformed {
                section: "END",
                msg: format!("{} trailing bytes after END", bytes.len() - pos),
            });
        }
        let mut ckpt = meta.ok_or(CheckpointError::MissingSection { section: "META" })?;
        ckpt.weights = weights.ok_or(CheckpointError::MissingSection { section: "WEIGHTS" })?;
        ckpt.optimizer = optimizer.ok_or(CheckpointError::MissingSection {
            section: "OPTIMIZER",
        })?;
        Ok(ckpt)
    }

    fn meta_payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(96 + self.epoch_losses.len() * 4);
        p.extend_from_slice(&self.step.to_le_bytes());
        p.extend_from_slice(&self.epoch.to_le_bytes());
        p.extend_from_slice(&self.batch_in_epoch.to_le_bytes());
        p.extend_from_slice(&self.images_seen.to_le_bytes());
        p.extend_from_slice(&self.best_loss.to_le_bytes());
        p.extend_from_slice(&self.lr_scale.to_le_bytes());
        // NaN is the "unset" sentinel; a real EWMA is never NaN.
        p.extend_from_slice(&self.ewma_loss.unwrap_or(f32::NAN).to_le_bytes());
        p.extend_from_slice(&self.rollbacks.to_le_bytes());
        p.extend_from_slice(&self.trips.to_le_bytes());
        p.extend_from_slice(&(self.epoch_losses.len() as u64).to_le_bytes());
        for l in &self.epoch_losses {
            p.extend_from_slice(&l.to_le_bytes());
        }
        p.extend_from_slice(&self.epoch_loss_partial.to_le_bytes());
        p.extend_from_slice(&self.epoch_batches_partial.to_le_bytes());
        p
    }
}

fn duplicate(section: &'static str) -> CheckpointError {
    CheckpointError::Malformed {
        section,
        msg: "duplicate section".to_string(),
    }
}

fn write_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Reads the section starting at `pos`; returns `(tag, payload, next_pos)`.
fn read_section(bytes: &[u8], pos: usize) -> Result<(u8, &[u8], usize), CheckpointError> {
    let remaining = bytes.len() - pos;
    if remaining < 9 {
        return Err(CheckpointError::Truncated {
            section: "section header",
            needed: 9,
            available: remaining as u64,
        });
    }
    let tag = bytes[pos];
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&bytes[pos + 1..pos + 9]);
    let len = u64::from_le_bytes(len_bytes);
    let body_start = pos + 9;
    let needed = len.saturating_add(4); // payload + crc footer
    if ((bytes.len() - body_start) as u64) < needed {
        return Err(CheckpointError::Truncated {
            section: section_name(tag),
            needed,
            available: (bytes.len() - body_start) as u64,
        });
    }
    let len = len as usize;
    let payload = &bytes[body_start..body_start + len];
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&bytes[body_start + len..body_start + len + 4]);
    let stored = u32::from_le_bytes(crc_bytes);
    let computed = crc32(&bytes[pos..body_start + len]);
    if stored != computed {
        return Err(CheckpointError::CrcMismatch {
            section: section_name(tag),
            stored,
            computed,
        });
    }
    Ok((tag, payload, body_start + len + 4))
}

fn section_name(tag: u8) -> &'static str {
    match tag {
        TAG_META => "META",
        TAG_WEIGHTS => "WEIGHTS",
        TAG_OPTIMIZER => "OPTIMIZER",
        TAG_END => "END",
        _ => "unknown",
    }
}

/// Bounds-checked little-endian cursor over a section payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated {
                section: self.section,
                needed: n as u64,
                available: (self.buf.len() - self.pos) as u64,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(f32::from_le_bytes(b))
    }

    /// Reads a `count`-prefixed run of f32s; `count` is validated against
    /// the remaining bytes before any allocation, so a flipped length byte
    /// cannot demand a huge buffer.
    fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let count = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if count > remaining / 4 {
            return Err(CheckpointError::Malformed {
                section: self.section,
                msg: format!("claims {count} f32s but only {remaining} bytes remain"),
            });
        }
        let raw = self.take(count as usize * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn finish(&self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Malformed {
                section: self.section,
                msg: format!("{} trailing payload bytes", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

fn parse_meta(payload: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let mut c = Cursor::new(payload, "META");
    let step = c.u64()?;
    let epoch = c.u64()?;
    let batch_in_epoch = c.u64()?;
    let images_seen = c.u64()?;
    let best_loss = c.f32()?;
    let lr_scale = c.f32()?;
    let ewma_raw = c.f32()?;
    let rollbacks = c.u64()?;
    let trips = c.u64()?;
    let epoch_losses = c.f32s()?;
    let epoch_loss_partial = c.f32()?;
    let epoch_batches_partial = c.u64()?;
    c.finish()?;
    if !lr_scale.is_finite() || lr_scale <= 0.0 {
        return Err(CheckpointError::Malformed {
            section: "META",
            msg: format!("lr_scale {lr_scale} not in (0, inf)"),
        });
    }
    Ok(Checkpoint {
        step,
        epoch,
        batch_in_epoch,
        images_seen,
        best_loss,
        lr_scale,
        ewma_loss: if ewma_raw.is_nan() {
            None
        } else {
            Some(ewma_raw)
        },
        rollbacks,
        trips,
        epoch_losses,
        epoch_loss_partial,
        epoch_batches_partial,
        weights: Vec::new(),
        optimizer: OptimizerState::None,
    })
}

const OPT_NONE: u8 = 0;
const OPT_SGD: u8 = 1;

fn optimizer_payload(state: &OptimizerState) -> Vec<u8> {
    let mut p = Vec::new();
    match state {
        OptimizerState::None => p.push(OPT_NONE),
        OptimizerState::Sgd(s) => {
            p.push(OPT_SGD);
            write_groups(&mut p, &s.velocity);
        }
    }
    p
}

fn write_groups(p: &mut Vec<u8>, groups: &[Vec<f32>]) {
    p.extend_from_slice(&(groups.len() as u64).to_le_bytes());
    for g in groups {
        p.extend_from_slice(&(g.len() as u64).to_le_bytes());
        for v in g {
            p.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn read_groups(c: &mut Cursor<'_>) -> Result<Vec<Vec<f32>>, CheckpointError> {
    let n = c.u64()?;
    // Each group needs at least its 8-byte length prefix.
    let remaining = (c.buf.len() - c.pos) as u64;
    if n > remaining / 8 {
        return Err(CheckpointError::Malformed {
            section: c.section,
            msg: format!("claims {n} parameter groups but only {remaining} bytes remain"),
        });
    }
    let mut groups = Vec::with_capacity(n as usize);
    for _ in 0..n {
        groups.push(c.f32s()?);
    }
    Ok(groups)
}

fn parse_optimizer(payload: &[u8]) -> Result<OptimizerState, CheckpointError> {
    let mut c = Cursor::new(payload, "OPTIMIZER");
    let kind = c.u8()?;
    let state = match kind {
        OPT_NONE => OptimizerState::None,
        OPT_SGD => OptimizerState::Sgd(SgdState {
            velocity: read_groups(&mut c)?,
        }),
        other => {
            return Err(CheckpointError::Malformed {
                section: "OPTIMIZER",
                msg: format!("unknown optimizer kind {other}"),
            })
        }
    };
    c.finish()?;
    Ok(state)
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// What [`CheckpointStore::latest_valid`] found while scanning a directory.
#[derive(Debug)]
pub struct Recovery {
    /// The newest checkpoint that parsed and CRC-verified end to end, with
    /// the path it was read from. `None` when no file in the directory is
    /// intact.
    pub checkpoint: Option<(PathBuf, Checkpoint)>,
    /// Files that were rejected on the way (newest first) and why — torn
    /// writes, bit flips, version skew. Useful for telemetry/forensics.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

/// Directory-backed checkpoint manager with atomic writes and rotation.
///
/// Snapshot files are named `ckpt-<step, zero padded>.drcp` so
/// lexicographic order is step order; the best-so-far snapshot lives in
/// `best.drcp` and is exempt from rotation.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep_last: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store at `dir`, keeping the last 3
    /// snapshots by default. Stale temp files from crashed writers are
    /// swept on open.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the directory cannot be
    /// created or listed.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let store = CheckpointStore { dir, keep_last: 3 };
        store.sweep_temp_files()?;
        Ok(store)
    }

    /// Sets how many rotating snapshots to retain (minimum 1; `best.drcp`
    /// is kept in addition).
    pub fn keep_last(mut self, n: usize) -> Self {
        self.keep_last = n.max(1);
        self
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path a snapshot for `step` is stored at.
    pub fn snapshot_path(&self, step: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{step:012}.{CHECKPOINT_EXT}"))
    }

    /// Path of the best-so-far snapshot.
    pub fn best_path(&self) -> PathBuf {
        self.dir.join(format!("best.{CHECKPOINT_EXT}"))
    }

    /// Writes `ckpt` atomically as the snapshot for its step, then rotates
    /// old snapshots beyond the keep-last budget.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on write failure; a failed write
    /// never corrupts existing snapshots.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let path = self.snapshot_path(ckpt.step);
        weights::atomic_write(&path, &ckpt.to_bytes())?;
        self.rotate()?;
        Ok(path)
    }

    /// Writes `ckpt` atomically to `best.drcp` (exempt from rotation).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on write failure.
    pub fn save_best(&self, ckpt: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let path = self.best_path();
        weights::atomic_write(&path, &ckpt.to_bytes())?;
        Ok(path)
    }

    /// Loads and fully validates one checkpoint file.
    ///
    /// # Errors
    ///
    /// Any read or parse failure, as a typed [`CheckpointError`].
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
    }

    /// Loads `best.drcp` if present and intact.
    ///
    /// # Errors
    ///
    /// See [`CheckpointStore::load`].
    pub fn load_best(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        let path = self.best_path();
        if !path.exists() {
            return Ok(None);
        }
        Ok(Some(Self::load(path)?))
    }

    /// Scans snapshots newest-to-oldest and returns the first one that
    /// parses and CRC-verifies, together with every rejected (torn,
    /// bit-flipped, version-skewed) file on the way. Corrupt files are
    /// reported, never panicked on, and never block recovery of an older
    /// intact snapshot.
    ///
    /// # Errors
    ///
    /// Only directory-listing I/O failures; per-file corruption lands in
    /// [`Recovery::rejected`].
    pub fn latest_valid(&self) -> Result<Recovery, CheckpointError> {
        let mut rejected = Vec::new();
        for path in self.snapshots_desc()? {
            match Self::load(&path) {
                Ok(ckpt) => {
                    return Ok(Recovery {
                        checkpoint: Some((path, ckpt)),
                        rejected,
                    })
                }
                Err(e) => rejected.push((path, e)),
            }
        }
        Ok(Recovery {
            checkpoint: None,
            rejected,
        })
    }

    /// Rotating snapshot paths, oldest first (excludes `best.drcp`).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the directory cannot be read.
    pub fn snapshots(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut v = self.snapshots_desc()?;
        v.reverse();
        Ok(v)
    }

    fn snapshots_desc(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut named: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(step) = parse_snapshot_step(&path) {
                named.push((step, path));
            }
        }
        named.sort_by_key(|e| std::cmp::Reverse(e.0));
        Ok(named.into_iter().map(|(_, p)| p).collect())
    }

    fn rotate(&self) -> Result<(), CheckpointError> {
        let snapshots = self.snapshots_desc()?;
        for stale in snapshots.iter().skip(self.keep_last) {
            std::fs::remove_file(stale)?;
        }
        Ok(())
    }

    fn sweep_temp_files(&self) -> Result<(), CheckpointError> {
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp-"))
            {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }
}

fn parse_snapshot_step(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name
        .strip_prefix("ckpt-")?
        .strip_suffix(&format!(".{CHECKPOINT_EXT}"))?;
    stem.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_nn::{Activation, Conv2d, Layer};
    use rand::SeedableRng;

    fn make_net(seed: u64) -> Network {
        let mut net = Network::new(3, 16, 16);
        net.push(Layer::conv(
            Conv2d::new(3, 4, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::conv(
            Conv2d::new(4, 2, 1, 1, 0, Activation::Linear, false).unwrap(),
        ));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        net.init_weights(&mut rng);
        net
    }

    fn sample_checkpoint() -> Checkpoint {
        let net = make_net(7);
        let mut ckpt = Checkpoint::capture(
            &net,
            OptimizerState::Sgd(SgdState {
                velocity: vec![vec![0.5, -0.25], vec![1.0; 3]],
            }),
        )
        .unwrap();
        ckpt.step = 42;
        ckpt.epoch = 3;
        ckpt.batch_in_epoch = 2;
        ckpt.images_seen = 336;
        ckpt.best_loss = 1.25;
        ckpt.lr_scale = 0.5;
        ckpt.ewma_loss = Some(2.5);
        ckpt.rollbacks = 1;
        ckpt.trips = 2;
        ckpt.epoch_losses = vec![4.0, 3.0, 2.0];
        ckpt.epoch_loss_partial = 3.5;
        ckpt.epoch_batches_partial = 2;
        ckpt
    }

    fn store_in_fresh_dir(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("dronet-ckpt-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::open(&dir).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bytes_roundtrip_is_bit_exact() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ckpt, back);
        // And the weights restore into a different-seeded net.
        let mut net = make_net(9);
        back.restore_network(&mut net).unwrap();
        let mut expected = Vec::new();
        weights::save(&net, &mut expected).unwrap();
        assert_eq!(expected, back.weights);
    }

    #[test]
    fn the_retired_adam_optimizer_kind_is_a_typed_rejection() {
        // Kind 2 held Adam's timestep and two moment-group lists.
        let ckpt = sample_checkpoint();
        let mut optimizer = vec![2u8];
        optimizer.extend_from_slice(&17u64.to_le_bytes());
        write_groups(&mut optimizer, &[vec![0.125; 4]]);
        write_groups(&mut optimizer, &[vec![0.5; 4]]);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        write_section(&mut bytes, TAG_META, &ckpt.meta_payload());
        write_section(&mut bytes, TAG_WEIGHTS, &ckpt.weights);
        write_section(&mut bytes, TAG_OPTIMIZER, &optimizer);
        write_section(&mut bytes, TAG_END, &[]);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed {
                section: "OPTIMIZER",
                ..
            })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut])
                .expect_err(&format!("truncation at {cut} must fail"));
            // Must be a structural error, not Io/Weights.
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::CrcMismatch { .. }
                        | CheckpointError::BadMagic { .. }
                        | CheckpointError::MissingSection { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes.extend_from_slice(&[0u8; 7]);
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Malformed { .. } | CheckpointError::Truncated { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn store_saves_rotates_and_recovers() {
        let store = store_in_fresh_dir("rotate").keep_last(3);
        let mut ckpt = sample_checkpoint();
        for step in [10u64, 20, 30, 40, 50] {
            ckpt.step = step;
            store.save(&ckpt).unwrap();
        }
        let kept = store.snapshots().unwrap();
        assert_eq!(kept.len(), 3, "rotation keeps last 3: {kept:?}");
        assert_eq!(kept[0], store.snapshot_path(30));
        assert_eq!(kept[2], store.snapshot_path(50));
        let rec = store.latest_valid().unwrap();
        let (path, latest) = rec.checkpoint.unwrap();
        assert_eq!(path, store.snapshot_path(50));
        assert_eq!(latest.step, 50);
        assert!(rec.rejected.is_empty());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn best_is_exempt_from_rotation() {
        let store = store_in_fresh_dir("best").keep_last(1);
        let mut ckpt = sample_checkpoint();
        store.save_best(&ckpt).unwrap();
        for step in [1u64, 2, 3] {
            ckpt.step = step;
            store.save(&ckpt).unwrap();
        }
        assert_eq!(store.snapshots().unwrap().len(), 1);
        let best = store.load_best().unwrap().unwrap();
        assert_eq!(best.step, 42);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn latest_valid_skips_corrupt_newest_files() {
        let store = store_in_fresh_dir("skip-corrupt");
        let mut ckpt = sample_checkpoint();
        ckpt.step = 1;
        store.save(&ckpt).unwrap();
        // Newest snapshot is torn mid-file (simulating a non-atomic writer
        // or post-rename sector loss)…
        let torn = sample_checkpoint().to_bytes();
        std::fs::write(store.snapshot_path(2), &torn[..torn.len() / 2]).unwrap();
        // …and an even newer one is bit-flipped.
        let mut flipped = sample_checkpoint().to_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(store.snapshot_path(3), &flipped).unwrap();

        let rec = store.latest_valid().unwrap();
        let (path, recovered) = rec.checkpoint.unwrap();
        assert_eq!(path, store.snapshot_path(1));
        assert_eq!(recovered.step, 1);
        assert_eq!(rec.rejected.len(), 2, "{:?}", rec.rejected);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn open_sweeps_stale_temp_files() {
        let dir = std::env::temp_dir().join(format!("dronet-ckpt-sweep-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let debris = dir.join(format!("ckpt-000000000005.drcp.tmp-{}", 12345));
        std::fs::write(&debris, b"half a checkpoint").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(!debris.exists(), "crash debris must be swept");
        assert!(store.latest_valid().unwrap().checkpoint.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
