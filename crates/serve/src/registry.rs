//! Checkpoint loading with explicit validation.
//!
//! A checkpoint file is the `vega-ckpt/v2` file written by
//! `vega-experiments --save-model` (`CodeBe::save_file_v2`). The registry
//! separates the three ways loading can fail — unreadable file, a file that
//! is not a valid checkpoint, model/corpus mismatch — and reports each with
//! the offending path, instead of panicking half-way through startup.

use std::path::{Path, PathBuf};
use vega::{Vega, VegaConfig};
use vega_model::CodeBe;

use crate::engine::Engine;

/// What the registry learned about a checkpoint at load time.
#[derive(Debug, Clone)]
pub struct CheckpointMeta {
    /// Where the checkpoint was read from.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: usize,
    /// Model architecture (`transformer` / `gru`).
    pub arch: String,
    /// Vocabulary size in pieces.
    pub vocab_pieces: usize,
    /// Maximum sequence length the model was built for.
    pub max_len: usize,
    /// On-disk format tag (`vega-ckpt/v2`, the only format).
    pub format: String,
}

/// A checkpoint that could not be loaded or does not fit the corpus.
#[derive(Debug, Clone)]
pub struct RegistryError {
    /// Description naming the path and the failure.
    pub msg: String,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint registry: {}", self.msg)
    }
}

impl std::error::Error for RegistryError {}

/// A parsed-but-not-yet-validated checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    /// Load-time metadata.
    pub meta: CheckpointMeta,
    model: CodeBe,
}

/// Reads, verifies, and parses a checkpoint file.
///
/// The file is memory-mapped, so the model borrows its weights in place; its
/// digest is verified first, so truncated or bit-flipped files are rejected
/// before any weight decodes.
///
/// # Errors
/// [`RegistryError`] naming the path and the named [`vega_model::CkptError`]
/// when the file cannot be read, fails its digest, or does not parse.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, RegistryError> {
    let bytes = std::fs::metadata(path)
        .map(|m| m.len() as usize)
        .unwrap_or(0);
    let model = CodeBe::load_file(path).map_err(|e| RegistryError {
        msg: format!("{}: {e}", path.display()),
    })?;
    Ok(Checkpoint {
        meta: CheckpointMeta {
            path: path.to_path_buf(),
            bytes,
            arch: model.arch_name().to_string(),
            vocab_pieces: model.vocab.len(),
            max_len: model.max_len(),
            format: vega_model::CKPT_FORMAT_V2.to_string(),
        },
        model,
    })
}

impl Checkpoint {
    /// Validates the checkpoint against `config`'s corpus and scale (Stage 1
    /// runs, Stage 2 is the loaded model) and builds the serving engine.
    ///
    /// # Errors
    /// [`RegistryError`] when the checkpoint's vocabulary or sequence length
    /// does not match what `config` derives — the mismatch `Vega::with_model`
    /// detects, annotated with the checkpoint path.
    pub fn into_engine(
        self,
        config: VegaConfig,
    ) -> Result<(CheckpointMeta, Engine), RegistryError> {
        let vega = Vega::with_model(config, self.model).map_err(|e| RegistryError {
            msg: format!("{} rejected: {e}", self.meta.path.display()),
        })?;
        Ok((self.meta, Engine::new(vega)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_and_garbage_files_are_reported_with_their_path() {
        let err = load_checkpoint(Path::new("/nonexistent/ckpt.json")).unwrap_err();
        assert!(err.msg.contains("/nonexistent/ckpt.json"), "{}", err.msg);
        assert!(err.to_string().starts_with("checkpoint registry:"));

        let dir = std::env::temp_dir().join("vega-serve-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{\"vocab\": 12").unwrap();
        let err = load_checkpoint(&garbage).unwrap_err();
        assert!(err.msg.contains("garbage.json"), "{}", err.msg);
        assert!(err.msg.contains("checkpoint corrupt"), "{}", err.msg);
    }
}
