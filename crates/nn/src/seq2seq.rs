//! The common interface of the sequence-to-sequence models (transformer and
//! the RNN ablation baseline) plus a small training driver.

/// A trainable sequence-to-sequence model.
pub trait Seq2Seq {
    /// Teacher-forced loss on one `(source, shifted-target-in, target-out)`
    /// pair; gradients are accumulated (call [`Seq2Seq::step`] to apply).
    fn train_pair(&mut self, src: &[usize], tgt_in: &[usize], tgt_out: &[usize]) -> f32;

    /// Applies one optimizer step with learning rate `lr` and clears grads.
    fn step(&mut self, lr: f32);

    /// Moves the accumulated parameter gradients out of the model, zeroing
    /// its buffers — the worker side of data-parallel training (a cloned
    /// replica trains on its shard, then its gradients are merged back).
    fn take_grads(&mut self) -> Vec<crate::tensor::Tensor>;

    /// Accumulates a gradient set produced by [`Seq2Seq::take_grads`] on a
    /// replica. Merge shards in a fixed order for reproducible f32 sums.
    fn merge_grads(&mut self, grads: &[crate::tensor::Tensor]);

    /// Greedy decoding: starts from `bos`, stops at `eos` or `max_len`.
    /// Returns the generated ids (without `bos`/`eos`).
    fn greedy(&mut self, src: &[usize], bos: usize, eos: usize, max_len: usize) -> Vec<usize>;

    /// Serializes the model (architecture + weights) to JSON.
    fn save_json(&self) -> String;

    /// Teacher-forced log-probability of `tgt_out` given `src` and the
    /// shifted decoder input `tgt_in` (no gradients). Used for constrained
    /// decoding: scoring candidate realizations of a template.
    fn forced_logprob(&mut self, src: &[usize], tgt_in: &[usize], tgt_out: &[usize]) -> f32;

    /// Log-probability of emitting `tgt` (with BOS/EOS handling) given `src`.
    fn sequence_logprob(&mut self, src: &[usize], tgt: &[usize], bos: usize, eos: usize) -> f32 {
        let (tgt_in, tgt_out) = forced_pair(tgt, bos, eos);
        self.forced_logprob(src, &tgt_in, &tgt_out)
    }

    /// Teacher-forced training loss for `(src, tgt)` with BOS prepended.
    fn train_example(&mut self, src: &[usize], tgt: &[usize], bos: usize, eos: usize) -> f32 {
        let (tgt_in, tgt_out) = forced_pair(tgt, bos, eos);
        self.train_pair(src, &tgt_in, &tgt_out)
    }
}

/// Clamps a teacher-forced pair to its common length, capped at `max_len`.
pub(crate) fn clamp_forced<'a>(
    tgt_in: &'a [usize],
    tgt_out: &'a [usize],
    max_len: usize,
) -> (&'a [usize], &'a [usize]) {
    let n = tgt_in.len().min(tgt_out.len()).min(max_len);
    (&tgt_in[..n], &tgt_out[..n])
}

/// The teacher-forced pair for emitting `tgt`: the shifted decoder input
/// `bos, tgt..` and the target output `tgt.., eos`.
pub fn forced_pair(tgt: &[usize], bos: usize, eos: usize) -> (Vec<usize>, Vec<usize>) {
    let mut tgt_in = Vec::with_capacity(tgt.len() + 1);
    tgt_in.push(bos);
    tgt_in.extend_from_slice(tgt);
    let mut tgt_out = Vec::with_capacity(tgt.len() + 1);
    tgt_out.extend_from_slice(tgt);
    tgt_out.push(eos);
    (tgt_in, tgt_out)
}

/// NaN-safe argmax over a logits row, tie-breaking to the **lowest** token
/// id. Returns `None` for an empty or all-NaN row.
///
/// Both greedy decoders route through this one helper: the previous
/// per-model `max_by(partial_cmp().unwrap())` panicked on NaN logits and
/// tie-broke to the *last* index, which made token choice depend on vocab
/// order in a surprising way. Lowest-id tie-breaking is deterministic and
/// identical across the graph and incremental decode paths.
pub fn argmax(row: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in row.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Detects degenerate greedy decodes: the tail repeats a short cycle
/// (period 1–4) at least three times. Decoders break out early when this
/// fires instead of filling the budget with the loop.
pub fn looks_degenerate(out: &[usize]) -> bool {
    for period in 1..=4usize {
        let need = period * 3;
        if out.len() < need + 1 {
            continue;
        }
        let tail = &out[out.len() - need..];
        if (0..period * 2).all(|i| tail[i] == tail[i + period]) {
            return true;
        }
    }
    false
}

/// Trains on `(src, tgt)` pairs (one optimizer step per pair) for at most
/// `max_steps` passes over single pairs, returning the final running loss.
/// Stops early when the running loss drops below `target_loss`.
pub fn train_until<M: Seq2Seq>(
    model: &mut M,
    pairs: &[(Vec<usize>, Vec<usize>)],
    bos: usize,
    eos: usize,
    max_steps: usize,
    lr: f32,
    target_loss: f32,
) -> f32 {
    let mut running = f32::INFINITY;
    for step in 0..max_steps {
        let (src, tgt) = &pairs[step % pairs.len()];
        let loss = model.train_example(src, tgt, bos, eos);
        model.step(lr);
        running = if running.is_finite() {
            0.9 * running + 0.1 * loss
        } else {
            loss
        };
        if step >= pairs.len() && running < target_loss {
            break;
        }
    }
    running
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_ties_break_to_lowest_index() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[5.0, 5.0, 5.0]), Some(0));
        assert_eq!(argmax(&[-1.0, -0.5]), Some(1));
    }

    #[test]
    fn argmax_skips_nans_instead_of_panicking() {
        assert_eq!(argmax(&[f32::NAN, 2.0, 1.0]), Some(1));
        assert_eq!(argmax(&[1.0, f32::NAN, 9.0]), Some(2));
        assert_eq!(argmax(&[f32::NAN, f32::NAN]), None);
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_handles_infinities() {
        assert_eq!(argmax(&[f32::NEG_INFINITY, 0.0]), Some(1));
        assert_eq!(argmax(&[f32::INFINITY, f32::INFINITY]), Some(0));
    }

    #[test]
    fn degenerate_detects_short_cycles() {
        assert!(looks_degenerate(&[9, 1, 1, 1, 1]));
        assert!(looks_degenerate(&[5, 6, 1, 2, 1, 2, 1, 2]));
        assert!(looks_degenerate(&[0, 1, 2, 3, 1, 2, 3, 1, 2, 3]));
    }

    #[test]
    fn degenerate_ignores_normal_sequences() {
        assert!(!looks_degenerate(&[1, 2, 3, 4, 5, 6, 7]));
        assert!(!looks_degenerate(&[1, 2, 1, 3, 1, 4, 1, 5]));
        assert!(!looks_degenerate(&[1, 1])); // too short to call
        assert!(!looks_degenerate(&[]));
    }
}
