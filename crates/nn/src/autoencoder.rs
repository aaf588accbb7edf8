//! The DeepSqueeze autoencoder (§5.1 of the paper).
//!
//! Architecture, following the paper exactly:
//!
//! * **Input**: one node per column, irrespective of type (§5.3) — numeric
//!   values min-max scaled to [0,1], categorical values as normalized
//!   dictionary codes.
//! * **Encoder**: two hidden layers of width `hidden` (paper default: 2×
//!   the column count), ReLU, then a sigmoid code layer of `code_size`
//!   nodes — the learned representation that gets materialized.
//! * **Decoder trunk**: symmetric two ReLU hidden layers.
//! * **Numeric / binary heads**: one sigmoid node per column; MSE loss for
//!   numerics (closeness matters — failures store differences, §5.3), BCE
//!   for binary columns.
//! * **Categorical head with parameter sharing** (§5.1, Fig. 3): an
//!   auxiliary layer with one node per categorical column plus a *signal
//!   node* carrying the column index, followed by a single shared output
//!   layer of width `max(cardinality)`. Each categorical column is decoded
//!   by re-running the shared layer with its own signal value over only
//!   its first `card` output units, then a softmax over those. This bounds
//!   the final fully-connected layer by the *largest* dictionary instead of
//!   the sum of all dictionaries.
//!
//! The Fig. 7 ablation baseline ("single layer + linear activation") is
//! the same type with [`ModelSpec::linear_single_layer`] set.

use crate::dense::{sigmoid, Activation, Dense, DenseGrad};
use crate::mat::Mat;
use crate::{NnError, Result};
use rand::rngs::StdRng;

/// Per-column output-head kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Ordered value in [0,1]; sigmoid node + MSE.
    Numeric,
    /// Two-valued categorical; sigmoid node + binary cross-entropy, and
    /// the XOR failure encoding downstream (§6.3.1).
    Binary,
    /// Categorical with `card` distinct values; shared softmax output.
    Categorical {
        /// Number of distinct values (≥ 3; use [`Head::Binary`] for 2).
        card: usize,
    },
}

/// Architecture description for one autoencoder (one expert).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// One head per model-visible column, in input order.
    pub heads: Vec<Head>,
    /// Width of the representation (code) layer — hyperparameter #1 (§5.4).
    pub code_size: usize,
    /// Hidden-layer width; the paper uses 2× the column count.
    pub hidden: usize,
    /// Fig. 7 baseline: one linear layer each side, no nonlinearity.
    pub linear_single_layer: bool,
    /// Relative weight of numeric MSE terms vs categorical cross-entropy.
    pub numeric_loss_weight: f32,
    /// Auxiliary nodes per categorical column feeding the shared output
    /// layer. The paper draws one node per column (Fig. 3); a small block
    /// per column keeps the shared layer bounded by `max_card` while
    /// giving each column a usable class embedding.
    pub aux_width: usize,
}

impl ModelSpec {
    /// Spec with the paper's defaults for a given head layout.
    pub fn with_defaults(heads: Vec<Head>, code_size: usize) -> Self {
        let hidden = (heads.len() * 2).max(4);
        ModelSpec {
            heads,
            code_size,
            hidden,
            linear_single_layer: false,
            numeric_loss_weight: 1.0,
            aux_width: 4,
        }
    }

    /// Number of input nodes (= number of model-visible columns).
    pub fn input_dim(&self) -> usize {
        self.heads.len()
    }

    fn validate(&self) -> Result<()> {
        if self.heads.is_empty() {
            return Err(NnError::InvalidSpec("no columns"));
        }
        if self.code_size == 0 {
            return Err(NnError::InvalidSpec("code size must be >= 1"));
        }
        if self.hidden == 0 {
            return Err(NnError::InvalidSpec("hidden width must be >= 1"));
        }
        if self.aux_width == 0 {
            return Err(NnError::InvalidSpec("aux width must be >= 1"));
        }
        for h in &self.heads {
            if let Head::Categorical { card } = h {
                if *card < 2 {
                    return Err(NnError::InvalidSpec("categorical cardinality < 2"));
                }
            }
        }
        Ok(())
    }
}

/// Index bookkeeping derived from a spec.
#[derive(Debug, Clone)]
pub(crate) struct HeadLayout {
    /// (column index, is_binary) for each simple (1-node) head, in order.
    pub simple: Vec<(usize, bool)>,
    /// (column index, cardinality) for each categorical head, in order.
    pub cat: Vec<(usize, usize)>,
    /// Largest categorical cardinality (0 when there are none).
    pub max_card: usize,
}

impl HeadLayout {
    pub fn of(spec: &ModelSpec) -> Self {
        let mut simple = Vec::new();
        let mut cat = Vec::new();
        for (i, h) in spec.heads.iter().enumerate() {
            match h {
                Head::Numeric => simple.push((i, false)),
                Head::Binary => simple.push((i, true)),
                Head::Categorical { card } => cat.push((i, *card)),
            }
        }
        let max_card = cat.iter().map(|&(_, c)| c).max().unwrap_or(0);
        HeadLayout {
            simple,
            cat,
            max_card,
        }
    }
}

/// Decoded predictions for a batch.
#[derive(Debug, Clone)]
pub struct DecodedBatch {
    /// B × n_simple sigmoid outputs, ordered like the spec's simple heads.
    pub simple: Mat,
    /// Per categorical head (spec order): B × card softmax probabilities.
    pub cat_probs: Vec<Mat>,
}

/// Everything the backward pass needs from a forward pass.
struct ForwardCache {
    enc_acts: Vec<Mat>, // activations after each encoder layer
    code: Mat,
    trunk_acts: Vec<Mat>,
    simple_logits: Option<Mat>,
    simple_probs: Option<Mat>,
    aux_out: Option<Mat>,
    cat_probs: Vec<Mat>,
}

/// The autoencoder for a single expert.
#[derive(Debug, Clone)]
pub struct Autoencoder {
    spec: ModelSpec,
    layout: HeadLayout,
    enc: Vec<Dense>,
    trunk: Vec<Dense>,
    simple_head: Option<Dense>,
    aux: Option<Dense>,
    shared: Option<Dense>,
}

impl Autoencoder {
    /// Builds a randomly initialized model.
    pub fn new(spec: ModelSpec, rng: &mut StdRng) -> Result<Self> {
        spec.validate()?;
        let layout = HeadLayout::of(&spec);
        let d = spec.input_dim();
        let k = spec.code_size;
        let h = spec.hidden;

        let (enc, trunk, trunk_dim) = if spec.linear_single_layer {
            let enc = vec![Dense::xavier(d, k, Activation::Identity, rng)];
            (enc, Vec::new(), k)
        } else {
            let enc = vec![
                Dense::xavier(d, h, Activation::Relu, rng),
                Dense::xavier(h, h, Activation::Relu, rng),
                Dense::xavier(h, k, Activation::Sigmoid, rng),
            ];
            let trunk = vec![
                Dense::xavier(k, h, Activation::Relu, rng),
                Dense::xavier(h, h, Activation::Relu, rng),
            ];
            (enc, trunk, h)
        };

        let simple_head = if layout.simple.is_empty() {
            None
        } else {
            // Identity activation: sigmoid applied manually so binary BCE
            // gradients can use the stable (p - t) form.
            Some(Dense::xavier(
                trunk_dim,
                layout.simple.len(),
                Activation::Identity,
                rng,
            ))
        };
        let (aux, shared) = if layout.cat.is_empty() {
            (None, None)
        } else {
            let aux = Dense::xavier(
                trunk_dim,
                layout.cat.len() * spec.aux_width,
                Activation::Tanh,
                rng,
            );
            let shared = Dense::xavier(
                layout.cat.len() * spec.aux_width + 1,
                layout.max_card,
                Activation::Identity,
                rng,
            );
            (Some(aux), Some(shared))
        };

        Ok(Autoencoder {
            spec,
            layout,
            enc,
            trunk,
            simple_head,
            aux,
            shared,
        })
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Signal value fed to the shared layer for categorical column `j`:
    /// a distinct, bounded scalar per column.
    fn signal(&self, j: usize) -> f32 {
        (j + 1) as f32 / self.layout.cat.len() as f32
    }

    /// Maps input rows to codes (the representation layer).
    pub fn encode(&self, x: &Mat) -> Result<Mat> {
        if x.cols() != self.spec.input_dim() {
            return Err(NnError::ShapeMismatch("encode: wrong input width"));
        }
        let mut cur = x.clone();
        for layer in &self.enc {
            cur = layer.forward(&cur);
        }
        Ok(cur)
    }

    /// Reconstructs column predictions from codes.
    pub fn decode(&self, codes: &Mat) -> Result<DecodedBatch> {
        if codes.cols() != self.spec.code_size {
            return Err(NnError::ShapeMismatch("decode: wrong code width"));
        }
        let mut t = codes.clone();
        for layer in &self.trunk {
            t = layer.forward(&t);
        }

        let simple = match &self.simple_head {
            Some(head) => {
                let mut logits = head.forward(&t);
                logits.map_inplace(sigmoid);
                logits
            }
            None => Mat::zeros(codes.rows(), 0),
        };

        let cat_probs = match (&self.aux, &self.shared) {
            (Some(aux), Some(shared)) => self.cat_forward(shared, &aux.forward(&t)),
            _ => Vec::new(),
        };
        Ok(DecodedBatch { simple, cat_probs })
    }

    /// Softmax probabilities of every categorical head from the auxiliary
    /// layer's output: one B × `card` matrix per head, in spec order.
    fn cat_forward(&self, shared: &Dense, aux_out: &Mat) -> Vec<Mat> {
        let width = self.spec.aux_width;
        self.layout
            .cat
            .iter()
            .enumerate()
            .map(|(j, &(_, card))| {
                let logits = shared_forward_column(shared, aux_out, j, width, self.signal(j), card);
                softmax_rows(logits)
            })
            .collect()
    }

    /// Full forward pass keeping every intermediate activation.
    fn forward_cached(&self, x: &Mat) -> ForwardCache {
        let mut enc_acts = Vec::with_capacity(self.enc.len());
        let mut cur = x.clone();
        for layer in &self.enc {
            cur = layer.forward(&cur);
            enc_acts.push(cur.clone());
        }
        let code = enc_acts.last().expect("encoder nonempty").clone();

        let mut trunk_acts = Vec::with_capacity(self.trunk.len());
        let mut t = code.clone();
        for layer in &self.trunk {
            t = layer.forward(&t);
            trunk_acts.push(t.clone());
        }

        let (simple_logits, simple_probs) = match &self.simple_head {
            Some(head) => {
                let logits = head.forward(&t);
                let mut probs = logits.clone();
                probs.map_inplace(sigmoid);
                (Some(logits), Some(probs))
            }
            None => (None, None),
        };

        let (aux_out, cat_probs) = match (&self.aux, &self.shared) {
            (Some(aux), Some(shared)) => {
                let aux_out = aux.forward(&t);
                let cat_probs = self.cat_forward(shared, &aux_out);
                (Some(aux_out), cat_probs)
            }
            _ => (None, Vec::new()),
        };

        ForwardCache {
            enc_acts,
            code,
            trunk_acts,
            simple_logits,
            simple_probs,
            aux_out,
            cat_probs,
        }
    }

    /// One training pass over a batch: forward, per-tuple loss, backward.
    ///
    /// * `x` — B × input_dim batch; numeric/binary reconstruction targets
    ///   are the inputs themselves (autoencoding).
    /// * `cat_targets` — per categorical head (spec order), the true
    ///   dictionary codes, each of length B.
    /// * `row_weights` — optional per-tuple gradient scale (the mixture of
    ///   experts passes its gate probabilities here, §5.2/§5.3).
    ///
    /// Returns parameter gradients (in [`Autoencoder::layers`] order) and
    /// the unweighted per-tuple loss.
    pub fn train_pass(
        &self,
        x: &Mat,
        cat_targets: &[Vec<u32>],
        row_weights: Option<&[f32]>,
    ) -> Result<(Vec<DenseGrad>, Vec<f32>)> {
        if x.cols() != self.spec.input_dim() {
            return Err(NnError::ShapeMismatch("train: wrong input width"));
        }
        if cat_targets.len() != self.layout.cat.len() {
            return Err(NnError::ShapeMismatch("train: wrong cat target count"));
        }
        let b = x.rows();
        for t in cat_targets {
            if t.len() != b {
                return Err(NnError::ShapeMismatch("train: cat target length"));
            }
        }
        if let Some(w) = row_weights {
            if w.len() != b {
                return Err(NnError::ShapeMismatch("train: row weight length"));
            }
        }

        let cache = self.forward_cached(x);
        let mut per_tuple = vec![0.0f32; b];
        let weight_of = |r: usize| row_weights.map_or(1.0, |w| w[r]);

        // Gradient flowing into the trunk output (or code when linear).
        let trunk_dim = self.trunk_dim();
        let mut d_trunk = Mat::zeros(b, trunk_dim);
        let mut grads_rev: Vec<DenseGrad> = Vec::new();

        // ---- simple heads -------------------------------------------------
        if let Some(head) = &self.simple_head {
            let logits = cache.simple_logits.as_ref().expect("head implies logits");
            let probs = cache.simple_probs.as_ref().expect("head implies probs");
            let mut dz = Mat::zeros(b, self.layout.simple.len());
            let w_num = self.spec.numeric_loss_weight;
            for r in 0..b {
                let rw = weight_of(r);
                for (s, &(col, is_binary)) in self.layout.simple.iter().enumerate() {
                    let p = probs.get(r, s);
                    let t = x.get(r, col);
                    if is_binary {
                        // BCE with sigmoid: dL/dz = p - t.
                        let pc = p.clamp(1e-7, 1.0 - 1e-7);
                        per_tuple[r] += -(t * pc.ln() + (1.0 - t) * (1.0 - pc).ln());
                        dz.set(r, s, rw * (p - t));
                    } else {
                        let diff = p - t;
                        per_tuple[r] += w_num * diff * diff;
                        // MSE through sigmoid: dL/dz = 2w·diff·p(1-p).
                        dz.set(r, s, rw * w_num * 2.0 * diff * p * (1.0 - p));
                    }
                }
            }
            let trunk_out = self.trunk_output(&cache);
            let (dx, g) = head.backward(trunk_out, logits, dz);
            add_into(&mut d_trunk, &dx);
            grads_rev.push(g);
        }

        // ---- categorical heads (parameter sharing) ------------------------
        if let (Some(aux), Some(shared)) = (&self.aux, &self.shared) {
            let aux_out = cache.aux_out.as_ref().expect("aux implies output");
            let (shared_grad, d_aux) = self.cat_head_backward(
                shared,
                aux_out,
                &cache.cat_probs,
                cat_targets,
                row_weights,
                &mut per_tuple,
            )?;
            let trunk_out = self.trunk_output(&cache);
            let (dx, aux_grad) = aux.backward(trunk_out, aux_out, d_aux);
            add_into(&mut d_trunk, &dx);
            grads_rev.push(shared_grad);
            grads_rev.push(aux_grad);
        }

        // ---- decoder trunk -------------------------------------------------
        let mut dcur = d_trunk;
        for (i, layer) in self.trunk.iter().enumerate().rev() {
            let input = if i == 0 {
                &cache.code
            } else {
                &cache.trunk_acts[i - 1]
            };
            let (dx, g) = layer.backward(input, &cache.trunk_acts[i], dcur);
            grads_rev.push(g);
            dcur = dx;
        }

        // ---- encoder --------------------------------------------------------
        for (i, layer) in self.enc.iter().enumerate().rev() {
            let input = if i == 0 { x } else { &cache.enc_acts[i - 1] };
            let (dx, g) = layer.backward(input, &cache.enc_acts[i], dcur);
            grads_rev.push(g);
            dcur = dx;
        }

        grads_rev.reverse();
        Ok((grads_rev, per_tuple))
    }

    /// Backward pass through the shared categorical output stage: adds
    /// each tuple's cross-entropy to `per_tuple` and returns the shared
    /// layer's gradient and the gradient flowing into the auxiliary
    /// layer's output.
    ///
    /// Column `j` touches only its own `card` output units, its
    /// `aux_width` input block, the signal row and the bias. Units at or
    /// beyond `card` are outside the column's softmax, so their gradient
    /// is exactly zero and they are never visited.
    fn cat_head_backward(
        &self,
        shared: &Dense,
        aux_out: &Mat,
        cat_probs: &[Mat],
        cat_targets: &[Vec<u32>],
        row_weights: Option<&[f32]>,
        per_tuple: &mut [f32],
    ) -> Result<(DenseGrad, Mat)> {
        let b = aux_out.rows();
        let width = self.spec.aux_width;
        let sig_input = shared.input_dim() - 1;
        let mut d_aux = Mat::zeros(b, self.layout.cat.len() * width);
        let mut shared_grad = shared.zero_grad();
        for (j, &(_, card)) in self.layout.cat.iter().enumerate() {
            let probs = &cat_probs[j];
            // Softmax CE gradient: dz = p; dz[target] -= 1.
            let mut dz = Mat::zeros(b, card);
            for r in 0..b {
                let target = cat_targets[j][r] as usize;
                if target >= card {
                    return Err(NnError::ShapeMismatch("train: target code >= card"));
                }
                let rw = row_weights.map_or(1.0, |w| w[r]);
                let p_row = probs.row(r);
                per_tuple[r] += -p_row[target].max(1e-7).ln();
                for ((g, &p), c) in dz.row_mut(r).iter_mut().zip(p_row).zip(0..) {
                    let adj = if c == target { p - 1.0 } else { p };
                    *g = rw * adj;
                }
            }
            // Shared layer is Identity-activated; hand-rolled backward
            // exploits the masked structure: only the active block and
            // the signal row receive weight gradients, and the input
            // gradient is needed only for the active block (everything
            // else is zero by construction).
            let sig = self.signal(j);
            for r in 0..b {
                let dz_row = dz.row(r);
                for k in 0..width {
                    let c = j * width + k;
                    let a = aux_out.get(r, c);
                    if a != 0.0 {
                        for (dwv, &dzv) in shared_grad.dw.row_mut(c).iter_mut().zip(dz_row) {
                            *dwv += a * dzv;
                        }
                    }
                }
                for (dwv, &dzv) in shared_grad.dw.row_mut(sig_input).iter_mut().zip(dz_row) {
                    *dwv += sig * dzv;
                }
                for (dbv, &dzv) in shared_grad.db.iter_mut().zip(dz_row) {
                    *dbv += dzv;
                }
                // d_aux for the active block: dz · W[block]ᵀ.
                for k in 0..width {
                    let c = j * width + k;
                    let mut acc = 0.0f32;
                    for (&dzv, &w) in dz_row.iter().zip(shared.w.row(c)) {
                        acc += dzv * w;
                    }
                    let v = d_aux.get(r, c) + acc;
                    d_aux.set(r, c, v);
                }
            }
        }
        Ok((shared_grad, d_aux))
    }

    /// Per-tuple loss without computing gradients (gate assignment, eval).
    pub fn loss_per_tuple(&self, x: &Mat, cat_targets: &[Vec<u32>]) -> Result<Vec<f32>> {
        // Forward-only evaluation would duplicate the loss bookkeeping;
        // models here are small enough that reusing train_pass and
        // discarding gradients is simpler and still fast.
        let (_, losses) = self.train_pass(x, cat_targets, None)?;
        Ok(losses)
    }

    fn trunk_dim(&self) -> usize {
        self.trunk
            .last()
            .map(Dense::output_dim)
            .unwrap_or(self.spec.code_size)
    }

    fn trunk_output<'a>(&self, cache: &'a ForwardCache) -> &'a Mat {
        cache.trunk_acts.last().unwrap_or(&cache.code)
    }

    /// All layers in the fixed order matching [`Autoencoder::train_pass`]'s
    /// gradient vector: enc[0..], trunk[0..], aux?, shared?, simple?.
    pub fn layers_mut(&mut self) -> Vec<&mut Dense> {
        let mut v: Vec<&mut Dense> = Vec::new();
        v.extend(self.enc.iter_mut());
        v.extend(self.trunk.iter_mut());
        if let Some(a) = self.aux.as_mut() {
            v.push(a);
        }
        if let Some(s) = self.shared.as_mut() {
            v.push(s);
        }
        if let Some(h) = self.simple_head.as_mut() {
            v.push(h);
        }
        v
    }

    /// Immutable view matching [`Autoencoder::layers_mut`]'s order.
    pub fn layers(&self) -> Vec<&Dense> {
        let mut v: Vec<&Dense> = Vec::new();
        v.extend(self.enc.iter());
        v.extend(self.trunk.iter());
        if let Some(a) = self.aux.as_ref() {
            v.push(a);
        }
        if let Some(s) = self.shared.as_ref() {
            v.push(s);
        }
        if let Some(h) = self.simple_head.as_ref() {
            v.push(h);
        }
        v
    }

    /// Decoder-half layers in serialization order: trunk…, simple?, aux?,
    /// shared? — everything decompression needs (§6.1).
    pub(crate) fn decoder_layers(&self) -> Vec<&Dense> {
        let mut v: Vec<&Dense> = Vec::new();
        v.extend(self.trunk.iter());
        if let Some(h) = self.simple_head.as_ref() {
            v.push(h);
        }
        if let Some(a) = self.aux.as_ref() {
            v.push(a);
        }
        if let Some(s) = self.shared.as_ref() {
            v.push(s);
        }
        v
    }

    /// Builds a decoder-only model from spec + deserialized layers.
    pub(crate) fn from_decoder_parts(spec: ModelSpec, mut layers: Vec<Dense>) -> Result<Self> {
        spec.validate()?;
        let layout = HeadLayout::of(&spec);
        let n_trunk = if spec.linear_single_layer { 0 } else { 2 };
        // (input, output) width of every layer, in serialization order.
        // Checked before use: the heads index weight rows and columns by
        // the spec's widths and cardinalities.
        let trunk_dim = if n_trunk == 0 {
            spec.code_size
        } else {
            spec.hidden
        };
        let mut shapes = Vec::new();
        if n_trunk == 2 {
            shapes.push((spec.code_size, spec.hidden));
            shapes.push((spec.hidden, spec.hidden));
        }
        if !layout.simple.is_empty() {
            shapes.push((trunk_dim, layout.simple.len()));
        }
        if !layout.cat.is_empty() {
            let aux_dim = layout
                .cat
                .len()
                .checked_mul(spec.aux_width)
                .filter(|&d| d < usize::MAX)
                .ok_or(NnError::Corrupt("implausible aux width"))?;
            shapes.push((trunk_dim, aux_dim));
            shapes.push((aux_dim + 1, layout.max_card));
        }
        if layers.len() != shapes.len() {
            return Err(NnError::Corrupt("decoder layer count mismatch"));
        }
        if layers
            .iter()
            .zip(&shapes)
            .any(|(l, &shape)| (l.input_dim(), l.output_dim()) != shape)
        {
            return Err(NnError::Corrupt("decoder layer shape mismatch"));
        }
        let trunk: Vec<Dense> = layers.drain(..n_trunk).collect();
        let simple_head = if layout.simple.is_empty() {
            None
        } else {
            Some(layers.remove(0))
        };
        let (aux, shared) = if layout.cat.is_empty() {
            (None, None)
        } else {
            let aux = layers.remove(0);
            let shared = layers.remove(0);
            (Some(aux), Some(shared))
        };
        // The encoder is irrelevant for a decoder-only model, but the type
        // requires one; a 1-layer stub keeps `encode` well-defined (errors
        // are preferable, so the stub maps to the right shape but fresh
        // random weights are avoided by zeroing).
        let enc = vec![Dense {
            w: Mat::zeros(spec.input_dim(), spec.code_size),
            b: vec![0.0; spec.code_size],
            act: Activation::Identity,
        }];
        Ok(Autoencoder {
            spec,
            layout,
            enc,
            trunk,
            simple_head,
            aux,
            shared,
        })
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers().iter().map(|l| l.param_count()).sum()
    }
}

/// Applies the shared output layer for categorical column `j`, returning
/// a B × `card` matrix of logits.
///
/// Logically the shared layer sees the full auxiliary vector plus the
/// signal node, with every inactive column's block masked to zero — the
/// signal node "informs the shared layer how to interpret the values from
/// the auxiliary layer for a particular output" (§5.1). Masked inputs are
/// zero, so the computation reduces to the active `width`-node block, the
/// signal row, and the bias; this avoids materializing a B×(aux+1) matrix
/// per column per batch (the dominant training cost on wide categorical
/// tables otherwise). Only the column's own `card` output units are
/// evaluated: the layer is `max_card` wide so that one layer serves every
/// column, but units past `card` are outside this column's softmax.
fn shared_forward_column(
    shared: &Dense,
    aux: &Mat,
    j: usize,
    width: usize,
    signal: f32,
    card: usize,
) -> Mat {
    let b = aux.rows();
    let n_inputs = shared.input_dim();
    let mut logits = Mat::zeros(b, card);
    let sig_row: Vec<f32> = shared.w.row(n_inputs - 1)[..card]
        .iter()
        .zip(&shared.b)
        .map(|(&w, &bias)| signal * w + bias)
        .collect();
    for r in 0..b {
        let out_row = logits.row_mut(r);
        out_row.copy_from_slice(&sig_row);
        for k in 0..width {
            let c = j * width + k;
            let a = aux.get(r, c);
            if a != 0.0 {
                for (o, &w) in out_row.iter_mut().zip(shared.w.row(c)) {
                    *o += a * w;
                }
            }
        }
    }
    logits
}

/// Row-wise softmax, in place.
fn softmax_rows(mut m: Mat) -> Mat {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
    m
}

fn add_into(dst: &mut Mat, src: &Mat) {
    debug_assert_eq!(dst.rows(), src.rows());
    debug_assert_eq!(dst.cols(), src.cols());
    for (d, &s) in dst.data_mut().iter_mut().zip(src.data()) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::{AdamConfig, AdamState};
    use rand::Rng;
    use rand::SeedableRng;

    fn mixed_spec() -> ModelSpec {
        ModelSpec::with_defaults(
            vec![
                Head::Numeric,
                Head::Categorical { card: 4 },
                Head::Numeric,
                Head::Binary,
                Head::Categorical { card: 3 },
            ],
            2,
        )
    }

    #[test]
    fn construction_and_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let ae = Autoencoder::new(mixed_spec(), &mut rng).unwrap();
        let x = Mat::zeros(7, 5);
        let code = ae.encode(&x).unwrap();
        assert_eq!((code.rows(), code.cols()), (7, 2));
        let dec = ae.decode(&code).unwrap();
        assert_eq!(dec.simple.cols(), 3); // 2 numeric + 1 binary
        assert_eq!(dec.cat_probs.len(), 2);
        assert_eq!(dec.cat_probs[0].cols(), 4); // each head at its own card
        assert_eq!(dec.cat_probs[1].cols(), 3);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Autoencoder::new(ModelSpec::with_defaults(vec![], 2), &mut rng).is_err());
        assert!(
            Autoencoder::new(ModelSpec::with_defaults(vec![Head::Numeric], 0), &mut rng).is_err()
        );
        assert!(Autoencoder::new(
            ModelSpec::with_defaults(vec![Head::Categorical { card: 1 }], 1),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, -2.0, -3.0]);
        let p = softmax_rows(logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let mut rng = StdRng::seed_from_u64(2);
        let ae = Autoencoder::new(mixed_spec(), &mut rng).unwrap();
        assert!(ae.encode(&Mat::zeros(3, 4)).is_err());
        assert!(ae.decode(&Mat::zeros(3, 9)).is_err());
        let x = Mat::zeros(3, 5);
        // Wrong number of categorical target vectors.
        assert!(ae.train_pass(&x, &[vec![0; 3]], None).is_err());
        // Target code exceeding cardinality.
        let bad = [vec![9u32; 3], vec![0; 3]];
        assert!(ae.train_pass(&x, &bad, None).is_err());
    }

    /// A deserialized decoder whose layer widths disagree with its spec is
    /// rejected up front; the heads index weights by the spec's widths.
    #[test]
    fn decoder_parts_with_wrong_layer_shapes_are_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let ae = Autoencoder::new(mixed_spec(), &mut rng).unwrap();
        let layers: Vec<Dense> = ae.decoder_layers().into_iter().cloned().collect();
        assert!(Autoencoder::from_decoder_parts(mixed_spec(), layers.clone()).is_ok());
        // Shared output layer one unit narrower than the widest head.
        let mut narrow = layers.clone();
        let shared = narrow.last_mut().unwrap();
        let (rows, cols) = (shared.w.rows(), shared.w.cols() - 1);
        *shared = Dense {
            w: Mat::zeros(rows, cols),
            b: vec![0.0; cols],
            act: Activation::Identity,
        };
        assert!(Autoencoder::from_decoder_parts(mixed_spec(), narrow).is_err());
        // Trunk layers in the wrong order (code width 2, hidden 10).
        let mut swapped = layers;
        swapped.swap(0, 1);
        assert!(Autoencoder::from_decoder_parts(mixed_spec(), swapped).is_err());
    }

    /// End-to-end gradient check on the full mixed model.
    #[test]
    fn full_model_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = ModelSpec {
            numeric_loss_weight: 1.7,
            ..mixed_spec()
        };
        let ae = Autoencoder::new(spec, &mut rng).unwrap();
        let b = 3;
        let mut x = Mat::zeros(b, 5);
        for v in x.data_mut() {
            *v = rng.gen_range(0.0..1.0);
        }
        // Binary column must hold 0/1.
        for r in 0..b {
            let v = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
            x.set(r, 3, v);
        }
        let cat_targets = vec![
            (0..b).map(|r| (r % 4) as u32).collect::<Vec<_>>(),
            (0..b).map(|r| (r % 3) as u32).collect::<Vec<_>>(),
        ];

        let (grads, _) = ae.train_pass(&x, &cat_targets, None).unwrap();
        let layers = ae.layers();
        assert_eq!(grads.len(), layers.len());

        let total_loss = |model: &Autoencoder| -> f32 {
            model.loss_per_tuple(&x, &cat_targets).unwrap().iter().sum()
        };

        let eps = 1e-2f32;
        // Probe a couple of entries in every layer.
        for li in 0..layers.len() {
            let (rows, cols) = (layers[li].w.rows(), layers[li].w.cols());
            for &(r, c) in &[(0usize, 0usize), (rows - 1, cols - 1)] {
                let mut plus = ae.clone();
                {
                    let mut ls = plus.layers_mut();
                    let v = ls[li].w.get(r, c);
                    ls[li].w.set(r, c, v + eps);
                }
                let mut minus = ae.clone();
                {
                    let mut ls = minus.layers_mut();
                    let v = ls[li].w.get(r, c);
                    ls[li].w.set(r, c, v - eps);
                }
                let num = (total_loss(&plus) - total_loss(&minus)) / (2.0 * eps);
                let ana = grads[li].dw.get(r, c);
                assert!(
                    (num - ana).abs() < 0.08 * (1.0 + ana.abs().max(num.abs())),
                    "layer {li} dW[{r},{c}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    /// Training must overfit a tiny dataset (the paper *wants* overfitting).
    #[test]
    fn overfits_small_mixed_dataset() {
        let mut rng = StdRng::seed_from_u64(8);
        let spec = ModelSpec::with_defaults(
            vec![Head::Numeric, Head::Categorical { card: 3 }, Head::Binary],
            2,
        );
        let mut ae = Autoencoder::new(spec, &mut rng).unwrap();
        // 12 tuples with perfectly learnable structure: cat = bucket of
        // numeric, binary = numeric > 0.5.
        let b = 12;
        let mut x = Mat::zeros(b, 3);
        let mut cat = vec![0u32; b];
        for r in 0..b {
            let v = r as f32 / (b - 1) as f32;
            x.set(r, 0, v);
            let c = ((v * 2.999) as u32).min(2);
            cat[r] = c;
            x.set(r, 1, c as f32 / 2.0);
            x.set(r, 2, if v > 0.5 { 1.0 } else { 0.0 });
        }
        let cat_targets = vec![cat.clone()];

        let cfg = AdamConfig {
            lr: 5e-3,
            ..Default::default()
        };
        let mut states: Vec<AdamState> = ae
            .layers()
            .iter()
            .map(|l| AdamState::for_layer(l))
            .collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..2000 {
            let (grads, losses) = ae.train_pass(&x, &cat_targets, None).unwrap();
            let mean: f32 = losses.iter().sum::<f32>() / b as f32;
            if epoch == 0 {
                first = mean;
            }
            last = mean;
            let mut layers = ae.layers_mut();
            for ((layer, grad), st) in layers.iter_mut().zip(&grads).zip(states.iter_mut()) {
                st.step(layer, grad, &cfg);
            }
        }
        assert!(
            last < first * 0.3,
            "training failed to reduce loss: {first} → {last}"
        );
        // Reconstruction should now be decent: categorical argmax mostly
        // right.
        let code = ae.encode(&x).unwrap();
        let dec = ae.decode(&code).unwrap();
        let mut correct = 0;
        for r in 0..b {
            let probs = dec.cat_probs[0].row(r);
            let argmax = (0..3)
                .max_by(|&a, &c| probs[a].total_cmp(&probs[c]))
                .unwrap();
            if argmax as u32 == cat[r] {
                correct += 1;
            }
        }
        assert!(correct >= b * 2 / 3, "only {correct}/{b} correct");
    }

    #[test]
    fn row_weights_scale_gradients() {
        let mut rng = StdRng::seed_from_u64(9);
        let ae = Autoencoder::new(mixed_spec(), &mut rng).unwrap();
        let mut x = Mat::zeros(4, 5);
        for v in x.data_mut() {
            *v = 0.3;
        }
        let cats = vec![vec![0u32; 4], vec![1u32; 4]];
        let (g1, l1) = ae.train_pass(&x, &cats, None).unwrap();
        let (g0, l0) = ae.train_pass(&x, &cats, Some(&[0.0; 4])).unwrap();
        // Zero weights zero every gradient but not the reported loss.
        assert_eq!(l0, l1);
        for (a, b) in g0.iter().zip(&g1) {
            assert!(a.dw.data().iter().all(|&v| v == 0.0));
            assert!(b.dw.data().iter().any(|&v| v != 0.0));
        }
        // Half weights halve gradients.
        let (gh, _) = ae.train_pass(&x, &cats, Some(&[0.5; 4])).unwrap();
        for (h, f) in gh.iter().zip(&g1) {
            for (a, &bv) in h.dw.data().iter().zip(f.dw.data()) {
                assert!((a * 2.0 - bv).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn linear_single_layer_variant_runs() {
        let mut rng = StdRng::seed_from_u64(10);
        let spec = ModelSpec {
            linear_single_layer: true,
            ..mixed_spec()
        };
        let ae = Autoencoder::new(spec, &mut rng).unwrap();
        let x = Mat::zeros(3, 5);
        let code = ae.encode(&x).unwrap();
        assert_eq!(code.cols(), 2);
        let dec = ae.decode(&code).unwrap();
        assert_eq!(dec.simple.cols(), 3);
        let cats = vec![vec![0u32; 3], vec![0u32; 3]];
        let (grads, _) = ae.train_pass(&x, &cats, None).unwrap();
        assert_eq!(grads.len(), ae.layers().len());
    }

    #[test]
    fn param_count_reflects_parameter_sharing() {
        let mut rng = StdRng::seed_from_u64(11);
        // 6 categorical columns of cardinality 50: with sharing, the output
        // stage costs aux (h×6) + shared (7×50); without, it would cost
        // h×300. Verify the model is much smaller than the naive bound.
        let heads: Vec<Head> = (0..6).map(|_| Head::Categorical { card: 50 }).collect();
        let spec = ModelSpec::with_defaults(heads, 2);
        let h = spec.hidden;
        let ae = Autoencoder::new(spec, &mut rng).unwrap();
        let naive_final_layer = h * 300;
        let shared_stage = h * 6 + 6 + 7 * 50 + 50;
        assert!(ae.param_count() < naive_final_layer + 4 * h * h);
        assert!(shared_stage < naive_final_layer / 3);
    }

    /// The shared categorical stage evaluated the way it was before each
    /// head was sized to its own cardinality: every column at the full
    /// `max_card` width, the softmax masked to `card`, and the backward
    /// pass over all `max_card` units. The card-sized stage must match it
    /// bit for bit.
    mod padded_reference {
        use super::*;

        pub fn forward(ae: &Autoencoder, shared: &Dense, aux: &Mat) -> Vec<Mat> {
            let width = ae.spec.aux_width;
            let n_inputs = shared.input_dim();
            let mut out = Vec::new();
            for (j, &(_, card)) in ae.layout.cat.iter().enumerate() {
                let signal = ae.signal(j);
                let mut logits = Mat::zeros(aux.rows(), shared.output_dim());
                let sig_row: Vec<f32> = shared
                    .w
                    .row(n_inputs - 1)
                    .iter()
                    .zip(&shared.b)
                    .map(|(&w, &bias)| signal * w + bias)
                    .collect();
                for r in 0..aux.rows() {
                    let out_row = logits.row_mut(r);
                    out_row.copy_from_slice(&sig_row);
                    for k in 0..width {
                        let c = j * width + k;
                        let a = aux.get(r, c);
                        if a != 0.0 {
                            for (o, &w) in out_row.iter_mut().zip(shared.w.row(c)) {
                                *o += a * w;
                            }
                        }
                    }
                }
                let mut probs = Mat::zeros(logits.rows(), logits.cols());
                for r in 0..logits.rows() {
                    let row = logits.row(r);
                    let max = row[..card]
                        .iter()
                        .copied()
                        .fold(f32::NEG_INFINITY, f32::max);
                    let out_row = probs.row_mut(r);
                    let mut sum = 0.0;
                    for (o, &v) in out_row[..card].iter_mut().zip(&row[..card]) {
                        let e = (v - max).exp();
                        *o = e;
                        sum += e;
                    }
                    if sum > 0.0 {
                        let inv = 1.0 / sum;
                        for o in &mut out_row[..card] {
                            *o *= inv;
                        }
                    }
                }
                out.push(probs);
            }
            out
        }

        pub fn backward(
            ae: &Autoencoder,
            shared: &Dense,
            aux_out: &Mat,
            cat_probs: &[Mat],
            cat_targets: &[Vec<u32>],
            row_weights: Option<&[f32]>,
            per_tuple: &mut [f32],
        ) -> (DenseGrad, Mat) {
            let b = aux_out.rows();
            let width = ae.spec.aux_width;
            let n_inputs = shared.input_dim();
            let max_card = ae.layout.max_card;
            let mut d_aux = Mat::zeros(b, ae.layout.cat.len() * width);
            let mut shared_grad = shared.zero_grad();
            for (j, &(_, card)) in ae.layout.cat.iter().enumerate() {
                let probs = &cat_probs[j];
                let mut dz = Mat::zeros(b, max_card);
                for r in 0..b {
                    let target = cat_targets[j][r] as usize;
                    let rw = row_weights.map_or(1.0, |w| w[r]);
                    let p_row = probs.row(r);
                    let p_t = p_row[target].max(1e-7);
                    per_tuple[r] += -p_t.ln();
                    let dz_row = dz.row_mut(r);
                    for ((g, &p), c) in dz_row[..card].iter_mut().zip(&p_row[..card]).zip(0..) {
                        let adj = if c == target { p - 1.0 } else { p };
                        *g = rw * adj;
                    }
                }
                let sig = ae.signal(j);
                for r in 0..b {
                    let dz_row = dz.row(r);
                    for k in 0..width {
                        let c = j * width + k;
                        let a = aux_out.get(r, c);
                        if a != 0.0 {
                            let dw_row = shared_grad.dw.row_mut(c);
                            for (dwv, &dzv) in dw_row.iter_mut().zip(dz_row) {
                                *dwv += a * dzv;
                            }
                        }
                    }
                    let dw_row = shared_grad.dw.row_mut(n_inputs - 1);
                    for (dwv, &dzv) in dw_row.iter_mut().zip(dz_row) {
                        *dwv += sig * dzv;
                    }
                    for (dbv, &dzv) in shared_grad.db.iter_mut().zip(dz_row) {
                        *dbv += dzv;
                    }
                    for k in 0..width {
                        let c = j * width + k;
                        let w_row = shared.w.row(c);
                        let mut acc = 0.0f32;
                        for t in 0..max_card {
                            acc += dz_row[t] * w_row[t];
                        }
                        let v = d_aux.get(r, c) + acc;
                        d_aux.set(r, c, v);
                    }
                }
            }
            (shared_grad, d_aux)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Random mixed specs (cardinalities 2 through `max_card`, with and
    /// without row weights, at the detected and the scalar kernel level):
    /// the card-sized categorical stage gives the same probabilities,
    /// per-tuple losses and gradients as the padded reference, bit for
    /// bit.
    #[test]
    fn card_sized_head_matches_padded_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(40);
        for trial in 0..24 {
            let max_card = rng.gen_range(3..260usize);
            let mut heads = vec![
                Head::Categorical { card: 2 },
                Head::Categorical { card: max_card },
            ];
            for _ in 0..rng.gen_range(0..6usize) {
                heads.push(match rng.gen_range(0..3u32) {
                    0 => Head::Numeric,
                    1 => Head::Binary,
                    _ => Head::Categorical {
                        card: rng.gen_range(2..max_card + 1),
                    },
                });
            }
            // Mix the head order so categorical slots interleave.
            for i in (1..heads.len()).rev() {
                heads.swap(i, rng.gen_range(0..i + 1));
            }
            let spec = ModelSpec {
                aux_width: rng.gen_range(1..5usize),
                ..ModelSpec::with_defaults(heads.clone(), rng.gen_range(1..4usize))
            };
            let ae = Autoencoder::new(spec, &mut rng).unwrap();
            let b = rng.gen_range(1..10usize);
            let mut x = Mat::zeros(b, heads.len());
            let mut cat_targets = Vec::new();
            for (i, h) in heads.iter().enumerate() {
                match h {
                    Head::Numeric => (0..b).for_each(|r| x.set(r, i, rng.gen_range(0.0..1.0))),
                    Head::Binary => (0..b).for_each(|r| x.set(r, i, f32::from(rng.gen_bool(0.5)))),
                    Head::Categorical { card } => {
                        let t: Vec<u32> = (0..b).map(|_| rng.gen_range(0..*card as u32)).collect();
                        for (r, &c) in t.iter().enumerate() {
                            x.set(r, i, c as f32 / (*card - 1) as f32);
                        }
                        cat_targets.push(t);
                    }
                }
            }
            // Some weights exactly zero, so -0.0 gradient terms occur.
            let weights: Vec<f32> = (0..b)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let seed_loss: Vec<f32> = (0..b).map(|_| rng.gen_range(0.0..1.0)).collect();
            for level in [ds_simd::detected(), ds_simd::Level::Scalar] {
                for row_weights in [None, Some(weights.as_slice())] {
                    ds_simd::with_level(level, || {
                        let ctx = format!(
                            "trial {trial}, {level:?}, weights {}",
                            row_weights.is_some()
                        );
                        let cache = ae.forward_cached(&x);
                        let shared = ae.shared.as_ref().unwrap();
                        let aux = ae.aux.as_ref().unwrap();
                        let aux_out = cache.aux_out.as_ref().unwrap();
                        let padded = padded_reference::forward(&ae, shared, aux_out);
                        for (j, &(_, card)) in ae.layout.cat.iter().enumerate() {
                            assert_eq!(cache.cat_probs[j].cols(), card, "{ctx}");
                            for r in 0..b {
                                assert_eq!(
                                    bits(cache.cat_probs[j].row(r)),
                                    bits(&padded[j].row(r)[..card]),
                                    "{ctx}: head {j} row {r} probabilities"
                                );
                            }
                        }

                        let mut loss_new = seed_loss.clone();
                        let (g_new, d_new) = ae
                            .cat_head_backward(
                                shared,
                                aux_out,
                                &cache.cat_probs,
                                &cat_targets,
                                row_weights,
                                &mut loss_new,
                            )
                            .unwrap();
                        let mut loss_ref = seed_loss.clone();
                        let (g_ref, d_ref) = padded_reference::backward(
                            &ae,
                            shared,
                            aux_out,
                            &padded,
                            &cat_targets,
                            row_weights,
                            &mut loss_ref,
                        );
                        assert_eq!(bits(&loss_new), bits(&loss_ref), "{ctx}: per-tuple loss");
                        assert_eq!(bits(d_new.data()), bits(d_ref.data()), "{ctx}: d_aux");
                        assert_eq!(
                            bits(g_new.dw.data()),
                            bits(g_ref.dw.data()),
                            "{ctx}: shared dW"
                        );
                        assert_eq!(bits(&g_new.db), bits(&g_ref.db), "{ctx}: shared db");

                        // Through the full training pass: the shared and
                        // auxiliary layers' gradients equal the reference
                        // ones, and every earlier layer sees the same
                        // d_aux.
                        let (grads, _) = ae.train_pass(&x, &cat_targets, row_weights).unwrap();
                        let aux_idx = ae.enc.len() + ae.trunk.len();
                        let (_, aux_ref) = aux.backward(ae.trunk_output(&cache), aux_out, d_ref);
                        assert_eq!(
                            bits(grads[aux_idx].dw.data()),
                            bits(aux_ref.dw.data()),
                            "{ctx}: aux dW"
                        );
                        assert_eq!(bits(&grads[aux_idx].db), bits(&aux_ref.db), "{ctx}: aux db");
                        assert_eq!(
                            bits(grads[aux_idx + 1].dw.data()),
                            bits(g_ref.dw.data()),
                            "{ctx}: shared dW"
                        );
                        assert_eq!(
                            bits(&grads[aux_idx + 1].db),
                            bits(&g_ref.db),
                            "{ctx}: shared db"
                        );
                    });
                }
            }
        }
    }
}
