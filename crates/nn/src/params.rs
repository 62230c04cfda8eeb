//! Parameter storage and the Adam optimizer.

use crate::storage::{ByteRegion, TensorTable};
use crate::tensor::Tensor;
use std::sync::Arc;
use vega_obs::json::{Json, JsonError};

/// Handle to one parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Gradient and Adam moment buffers — allocated lazily on the first training
/// touch so inference replicas (which only ever read weights) never pay the
/// 3× model-size allocation.
#[derive(Debug, Clone)]
struct TrainState {
    grads: Vec<Tensor>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

/// A named collection of trainable tensors with gradients and Adam state.
/// Serialization keeps names, values, and the step count; gradient and Adam
/// buffers are transient — they are reset on load and **not cloned** (a clone
/// is a fresh replica: it reads the same weights, cheaply when they are
/// shared views, and grows its own zeroed training buffers on first use).
#[derive(Debug)]
pub struct ParamStore {
    names: Vec<String>,
    tensors: Vec<Tensor>,
    train: Option<Box<TrainState>>,
    step_count: u64,
}

impl Clone for ParamStore {
    fn clone(&self) -> Self {
        ParamStore {
            names: self.names.clone(),
            tensors: self.tensors.clone(),
            train: None,
            step_count: self.step_count,
        }
    }
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        ParamStore {
            names: Vec::new(),
            tensors: Vec::new(),
            train: None,
            step_count: 0,
        }
    }

    /// Registers a parameter tensor under `name`.
    pub fn add(&mut self, name: impl Into<String>, t: Tensor) -> ParamId {
        let id = ParamId(self.tensors.len());
        self.names.push(name.into());
        if let Some(tr) = &mut self.train {
            tr.grads.push(Tensor::zeros(t.rows, t.cols));
            tr.m.push(Tensor::zeros(t.rows, t.cols));
            tr.v.push(Tensor::zeros(t.rows, t.cols));
        }
        self.tensors.push(t);
        id
    }

    /// Allocates zeroed gradient/Adam buffers if missing.
    fn ensure_train(&mut self) -> &mut TrainState {
        if self.train.is_none() {
            let zeros: Vec<Tensor> = self
                .tensors
                .iter()
                .map(|t| Tensor::zeros(t.rows, t.cols))
                .collect();
            self.train = Some(Box::new(TrainState {
                grads: zeros.clone(),
                m: zeros.clone(),
                v: zeros,
            }));
        }
        self.train.as_mut().expect("just ensured")
    }

    /// Reads a parameter's current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access (tests, manual surgery). Copy-on-write for shared
    /// weights happens inside the tensor's mutating accessors, not here.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Accumulates `grad` into the parameter's gradient buffer.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: &Tensor) {
        let g = &mut self.ensure_train().grads[id.0];
        assert_eq!((g.rows, g.cols), (grad.rows, grad.cols), "grad shape");
        for (a, b) in g.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *a += b;
        }
    }

    /// Reads the accumulated gradient (tests).
    ///
    /// # Panics
    /// Panics if no gradient has been accumulated yet (training buffers are
    /// lazy).
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self
            .train
            .as_ref()
            .expect("no training state: no gradient was ever accumulated")
            .grads[id.0]
    }

    /// Moves the accumulated gradients out, leaving zeroed buffers behind —
    /// the worker side of data-parallel training: a cloned replica trains on
    /// its shard, then hands its gradients back for an ordered merge. An
    /// untouched store hands back zeros.
    pub fn take_grads(&mut self) -> Vec<Tensor> {
        let zeros: Vec<Tensor> = self
            .tensors
            .iter()
            .map(|t| Tensor::zeros(t.rows, t.cols))
            .collect();
        match &mut self.train {
            Some(tr) => std::mem::replace(&mut tr.grads, zeros),
            None => zeros,
        }
    }

    /// Accumulates a full gradient set (as produced by
    /// [`ParamStore::take_grads`] on a replica) into this store's buffers.
    /// Callers merge shards in a fixed order so the f32 sum is reproducible.
    ///
    /// # Panics
    /// Panics on tensor count or shape mismatch.
    pub fn merge_grads(&mut self, grads: &[Tensor]) {
        let tr = self.ensure_train();
        assert_eq!(grads.len(), tr.grads.len(), "grad tensor count");
        for (mine, theirs) in tr.grads.iter_mut().zip(grads) {
            assert_eq!(
                (mine.rows, mine.cols),
                (theirs.rows, theirs.cols),
                "grad shape"
            );
            for (a, b) in mine.as_mut_slice().iter_mut().zip(theirs.as_slice()) {
                *a += b;
            }
        }
    }

    /// Clears all gradient buffers.
    pub fn zero_grad(&mut self) {
        if let Some(tr) = &mut self.train {
            for g in &mut tr.grads {
                g.as_mut_slice().fill(0.0);
            }
        }
    }

    /// One Adam step (β₁=0.9, β₂=0.999, ε=1e-8) with gradient clipping at
    /// global norm 5, then clears gradients. Updating a shared (mapped)
    /// weight detaches it into owned storage first — the mapping itself is
    /// never written.
    pub fn adam_step(&mut self, lr: f32) {
        vega_obs::global().counter_add("nn.train_steps", 1);
        self.ensure_train();
        self.step_count += 1;
        let t = self.step_count as f32;
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let tr = self.train.as_mut().expect("ensured above");
        // Global-norm clip.
        let total: f32 = tr.grads.iter().map(Tensor::norm_sq).sum();
        let norm = total.sqrt();
        let clip = if norm > 5.0 { 5.0 / norm } else { 1.0 };
        for i in 0..self.tensors.len() {
            // Split the grads/m/v borrows explicitly — they are disjoint
            // fields, which the compiler can't see through repeated indexing
            // on `tr`.
            let TrainState { grads, m, v } = &mut **tr;
            let g = grads[i].as_slice();
            let m = m[i].as_mut_slice();
            let v = v[i].as_mut_slice();
            let p = self.tensors[i].as_mut_slice();
            for j in 0..g.len() {
                let gj = g[j] * clip;
                m[j] = b1 * m[j] + (1.0 - b1) * gj;
                v[j] = b2 * v[j] + (1.0 - b2) * gj * gj;
                let mhat = m[j] / (1.0 - b1.powf(t));
                let vhat = v[j] / (1.0 - b2.powf(t));
                p[j] -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
        self.zero_grad();
    }

    /// Number of parameters (scalar count across all tensors).
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Scalar count held in *owned* storage (the rest are views into a
    /// shared region). A freshly mapped model reports 0; after fine-tuning,
    /// every updated tensor has detached and counts here.
    pub fn owned_scalars(&self) -> usize {
        self.tensors
            .iter()
            .filter(|t| !t.is_shared())
            .map(|t| t.len())
            .sum()
    }

    /// Serializes names and the step count to a JSON value for the v2
    /// header; tensor values go to the data region `table` and the JSON
    /// keeps only their `{rows, cols, off}` descriptors.
    pub(crate) fn to_json_value_tabled(&self, table: &mut TensorTable) -> Json {
        Json::obj([
            (
                "names",
                Json::Arr(self.names.iter().map(Json::str).collect()),
            ),
            (
                "tensors",
                Json::Arr(
                    self.tensors
                        .iter()
                        .map(|t| t.to_table_entry(table))
                        .collect(),
                ),
            ),
            ("step_count", Json::num_u64(self.step_count)),
        ])
    }

    /// Restores a store whose tensors are shared views into `region` (the
    /// mapped v2 checkpoint), with the data section at byte `data_base`;
    /// optimizer state starts empty.
    pub(crate) fn from_json_value_tabled(
        v: &Json,
        region: &Arc<ByteRegion>,
        data_base: usize,
    ) -> Result<Self, JsonError> {
        let names = v
            .field("names")?
            .as_array()?
            .iter()
            .map(|n| Ok(n.as_str()?.to_string()))
            .collect::<Result<Vec<String>, JsonError>>()?;
        let tensors = v
            .field("tensors")?
            .as_array()?
            .iter()
            .map(|t| Tensor::from_table_entry(t, region, data_base))
            .collect::<Result<Vec<Tensor>, JsonError>>()?;
        if names.len() != tensors.len() {
            return Err(JsonError {
                msg: "names/tensors length mismatch".into(),
            });
        }
        Ok(ParamStore {
            names,
            tensors,
            train: None,
            step_count: v.field("step_count")?.as_u64()?,
        })
    }
}

/// A deterministic uniform initializer (Xavier/Glorot range) based on
/// splitmix64, so weights are identical across platforms.
#[derive(Debug, Clone)]
pub struct Init {
    state: u64,
}

impl Init {
    /// Creates an initializer from a seed.
    pub fn new(seed: u64) -> Self {
        Init {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_f32(&mut self) -> f32 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Uniform in [0, 1).
        (z >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Xavier-uniform tensor of the given shape.
    pub fn xavier(&mut self, rows: usize, cols: usize) -> Tensor {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| (self.next_f32() * 2.0 - 1.0) * bound)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// Zeros (for biases).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::zeros(rows, cols)
    }

    /// Ones (for layer-norm gains).
    pub fn ones(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, vec![1.0; rows * cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize f(w) = (w - 3)^2 elementwise.
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(1, 4));
        for _ in 0..400 {
            let w = store.value(id).clone();
            let grad =
                Tensor::from_vec(1, 4, w.as_slice().iter().map(|v| 2.0 * (v - 3.0)).collect());
            store.accumulate_grad(id, &grad);
            store.adam_step(0.05);
        }
        for v in store.value(id).as_slice() {
            assert!((v - 3.0).abs() < 0.05, "w = {v}");
        }
    }

    #[test]
    fn init_is_deterministic_and_bounded() {
        let a = Init::new(1).xavier(4, 4);
        let b = Init::new(1).xavier(4, 4);
        assert_eq!(a, b);
        let bound = (6.0 / 8.0f32).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(a.as_slice().iter().any(|v| v.abs() > 1e-4));
    }

    #[test]
    fn clone_drops_training_state_but_training_still_works() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(1, 2));
        store.accumulate_grad(id, &Tensor::from_vec(1, 2, vec![1.0, -1.0]));
        let mut replica = store.clone();
        // The clone starts with fresh (no) training buffers...
        assert_eq!(replica.take_grads()[0].as_slice(), &[0.0, 0.0]);
        // ...and can train independently.
        replica.accumulate_grad(id, &Tensor::from_vec(1, 2, vec![0.5, 0.5]));
        assert_eq!(replica.grad(id).as_slice(), &[0.5, 0.5]);
        // The original kept its accumulated gradient.
        assert_eq!(store.grad(id).as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn tabled_roundtrip_preserves_values_bit_for_bit() {
        let mut store = ParamStore::new();
        let mut init = Init::new(42);
        let a = store.add("a", init.xavier(4, 7));
        let b = store.add("b", init.xavier(1, 9));
        let mut table = TensorTable::new();
        let header = store.to_json_value_tabled(&mut table);
        let region = Arc::new(ByteRegion::from_bytes(&table.into_bytes()));
        let restored = ParamStore::from_json_value_tabled(&header, &region, 0).unwrap();
        assert_eq!(restored.num_scalars(), store.num_scalars());
        for id in [a, b] {
            assert!(restored
                .value(id)
                .as_slice()
                .iter()
                .zip(store.value(id).as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        #[cfg(target_endian = "little")]
        assert_eq!(restored.owned_scalars(), 0, "tabled load shares storage");
    }
}
