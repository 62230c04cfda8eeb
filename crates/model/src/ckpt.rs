//! The `vega-ckpt/v2` checkpoint file: the one way a CodeBE model's weights
//! leave or enter memory.
//!
//! The *header* is JSON (vocabulary, architecture, tensor shapes); the weight
//! data is a 64-byte-aligned little-endian `f32` region that is
//! memory-mapped read-only and used in place:
//!
//! ```text
//! bytes 0..8    magic  b"VEGACKP2"
//! bytes 8..16   u64 LE: header JSON length H
//! bytes 16..24  u64 LE: FNV-1a digest over bytes[24..end]
//! bytes 24..24+H   header JSON (vocab + model, tensors as {rows,cols,off})
//! ..data_base      zero padding to the next 64-byte boundary
//! data_base..end   tensor data region; each tensor 64-byte aligned,
//!                  offsets in the header are relative to data_base
//! ```
//!
//! [`CodeBe::load_file`] maps the file once, verifies the digest before
//! parsing anything, and hands every tensor a view into the mapping, so
//! cloning the model (a fine-tuning gradient shard's copy) copies
//! descriptors, not weights, and training on a loaded model copies tensors
//! out lazily (copy-on-write). Truncated, bit-flipped or otherwise damaged
//! files are rejected with a named [`CkptError`] instead of being decoded
//! into garbage weights; a file without the magic is [`CkptError::Corrupt`].
//!
//! [`CodeBe::save_file_v2`] writes `<path>.tmp` and renames it over `<path>`
//! only once every byte is flushed, so a crash mid-save (simulated by the
//! `ckpt.save.crash` fault site) leaves the previous checkpoint intact.

use crate::codebe::CodeBe;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use vega_nn::storage::DATA_ALIGN;
use vega_nn::{ByteRegion, TensorTable};
use vega_obs::json::Json;

/// The format tag, as reported in load logs and checkpoint metadata.
pub const CKPT_FORMAT_V2: &str = "vega-ckpt/v2";

/// The 8-byte magic opening every checkpoint file.
pub const V2_MAGIC: [u8; 8] = *b"VEGACKP2";

/// Bytes before the header JSON: magic + header length + digest.
const PROLOGUE: usize = 24;

/// Why a checkpoint file could not be saved or loaded. Each variant names a
/// distinct failure so callers (and tests) can tell corruption from version
/// skew from plain I/O trouble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The file could not be read or written.
    Io(String),
    /// The file is not a checkpoint (no `VEGACKP2` magic), or its header is
    /// not parseable JSON.
    Corrupt(String),
    /// The digest in the prologue does not match the bytes after it (bit
    /// flip, truncation, partial overwrite).
    DigestMismatch {
        /// Digest recorded in the prologue.
        expected: String,
        /// Digest recomputed over the bytes actually present.
        found: String,
    },
    /// The magic names another version of the format (`VEGACKP3`, …).
    VersionMismatch {
        /// The magic found in the file.
        found: String,
    },
    /// The file passed its digest check but does not decode as a CodeBE
    /// model.
    Payload(String),
    /// The `ckpt.save.crash` fault site fired mid-save; the temp file was
    /// abandoned and the original checkpoint (if any) is untouched.
    InjectedCrash,
    /// The file failed structural validation at a specific byte offset.
    Binary {
        /// The format tag (`vega-ckpt/v2`).
        format: String,
        /// Byte offset where validation failed.
        offset: usize,
        /// What was wrong there.
        msg: String,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(msg) => write!(f, "checkpoint io: {msg}"),
            CkptError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            CkptError::DigestMismatch { expected, found } => write!(
                f,
                "checkpoint digest mismatch: prologue says {expected}, file hashes to {found}"
            ),
            CkptError::VersionMismatch { found } => write!(
                f,
                "checkpoint version mismatch: found `{found}`, expected `VEGACKP2` \
                 ({CKPT_FORMAT_V2})"
            ),
            CkptError::Payload(msg) => write!(f, "checkpoint payload: {msg}"),
            CkptError::InjectedCrash => write!(
                f,
                "checkpoint save crashed (injected at fault site `ckpt.save.crash`); \
                 previous checkpoint left intact"
            ),
            CkptError::Binary {
                format,
                offset,
                msg,
            } => write!(
                f,
                "checkpoint binary ({format}) invalid at byte {offset}: {msg}"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

/// Renders a model as checkpoint bytes (no I/O). Equal bytes mean equal
/// vocabularies, architectures and weights, bit for bit.
pub fn encode_v2(model: &CodeBe) -> Vec<u8> {
    let mut table = TensorTable::new();
    let header = model.header_json_tabled(&mut table);
    let data = table.into_bytes();
    let data_base = (PROLOGUE + header.len()).next_multiple_of(DATA_ALIGN);
    let mut out = Vec::with_capacity(data_base + data.len());
    out.extend_from_slice(&V2_MAGIC);
    out.extend_from_slice(&(header.len() as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 8]); // digest, patched below
    out.extend_from_slice(header.as_bytes());
    out.resize(data_base, 0);
    out.extend_from_slice(&data);
    let digest = vega_fault::fnv1a_64(&out[PROLOGUE..]);
    out[16..PROLOGUE].copy_from_slice(&digest.to_le_bytes());
    out
}

impl CodeBe {
    /// Writes this model to `path` crash-safely: [`encode_v2`] bytes to
    /// `<path>.tmp`, flushed, then renamed over `path`. A failure at any
    /// point — including an injected `ckpt.save.crash` — leaves whatever
    /// was at `path` before untouched.
    ///
    /// # Errors
    /// [`CkptError::Io`] for filesystem failures, [`CkptError::InjectedCrash`]
    /// when the fault site fires.
    pub fn save_file_v2(&self, path: &Path) -> Result<(), CkptError> {
        write_crash_safe(path, &encode_v2(self))
    }

    /// Loads a checkpoint from `path`. The file is memory-mapped and the
    /// returned model borrows the mapping; the digest is verified before
    /// any weight decodes.
    ///
    /// # Errors
    /// A named [`CkptError`]: unreadable file, missing magic, digest
    /// mismatch, version mismatch, or undecodable payload; structural
    /// failures carry the byte offset of the problem.
    pub fn load_file(path: &Path) -> Result<CodeBe, CkptError> {
        let region = ByteRegion::from_file(path)
            .map_err(|e| CkptError::Io(format!("read {}: {e}", path.display())))?;
        let b = region.bytes();
        if b.len() >= 8 && b[..8] == V2_MAGIC {
            return load_v2(Arc::new(region));
        }
        if b.len() >= 7 && &b[..7] == b"VEGACKP" {
            // Right family, wrong version byte — a future (or mangled) rev.
            return Err(CkptError::VersionMismatch {
                found: String::from_utf8_lossy(&b[..8.min(b.len())]).into_owned(),
            });
        }
        Err(CkptError::Corrupt(format!(
            "{}: no {CKPT_FORMAT_V2} magic `VEGACKP2` at byte 0",
            path.display()
        )))
    }

    /// As [`CodeBe::load_file`], paired with the format tag
    /// ([`CKPT_FORMAT_V2`]) that load logs report.
    ///
    /// # Errors
    /// See [`CodeBe::load_file`].
    pub fn load_file_detect(path: &Path) -> Result<(CodeBe, &'static str), CkptError> {
        Self::load_file(path).map(|model| (model, CKPT_FORMAT_V2))
    }
}

/// Validates and decodes a mapped checkpoint. The digest is verified over
/// everything after the prologue before any parsing or weight decoding, so
/// truncation and bit flips are caught up front.
fn load_v2(region: Arc<ByteRegion>) -> Result<CodeBe, CkptError> {
    let bin = |offset: usize, msg: String| CkptError::Binary {
        format: CKPT_FORMAT_V2.to_string(),
        offset,
        msg,
    };
    let b = region.bytes();
    if b.len() < PROLOGUE {
        return Err(bin(
            b.len(),
            format!(
                "file is {} bytes, shorter than the {PROLOGUE}-byte prologue",
                b.len()
            ),
        ));
    }
    let header_len = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")) as usize;
    let expected = u64::from_le_bytes(b[16..PROLOGUE].try_into().expect("8 bytes"));
    let header_end = PROLOGUE
        .checked_add(header_len)
        .filter(|&end| end <= b.len())
        .ok_or_else(|| {
            bin(
                8,
                format!(
                    "header length {header_len} overruns the {}-byte file",
                    b.len()
                ),
            )
        })?;
    let found = vega_fault::fnv1a_64(&b[PROLOGUE..]);
    if found != expected {
        return Err(CkptError::DigestMismatch {
            expected: format!("{expected:016x}"),
            found: format!("{found:016x}"),
        });
    }
    let header = std::str::from_utf8(&b[PROLOGUE..header_end]).map_err(|e| {
        bin(
            PROLOGUE + e.valid_up_to(),
            "header is not UTF-8".to_string(),
        )
    })?;
    let v = Json::parse(header).map_err(|e| CkptError::Corrupt(format!("v2 header: {e}")))?;
    let data_base = header_end.next_multiple_of(DATA_ALIGN);
    CodeBe::from_header_tabled(&v, &region, data_base)
        .map_err(|e| CkptError::Payload(e.to_string()))
}

/// Writes `bytes` to `path` crash-safely: `<path>.tmp`, flushed, then
/// renamed over `path`, with the injectable `ckpt.save.crash` site between
/// the two halves of the write.
fn write_crash_safe(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let tmp = tmp_path(path);
    let io_err =
        |what: &str, e: std::io::Error| CkptError::Io(format!("{what} {}: {e}", tmp.display()));
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
    // Write in two halves with the crash site between them: a fired
    // fault abandons a deliberately truncated temp file, exactly the
    // state a real mid-write crash leaves behind.
    let mid = bytes.len() / 2;
    f.write_all(&bytes[..mid]).map_err(|e| io_err("write", e))?;
    if vega_fault::check(vega_fault::sites::CKPT_SAVE_CRASH).is_some() {
        let _ = f.sync_all();
        return Err(CkptError::InjectedCrash);
    }
    f.write_all(&bytes[mid..]).map_err(|e| io_err("write", e))?;
    f.sync_all().map_err(|e| io_err("sync", e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| {
        CkptError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// The temp file a save writes before the atomic rename.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}
