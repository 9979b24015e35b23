//! Dense feed-forward networks with manual backpropagation and Adam.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One fully-connected layer (`y = act(W·x + b)`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Output × input weight matrix, row-major.
    pub w: Vec<f64>,
    /// Bias per output.
    pub b: Vec<f64>,
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Apply ReLU after the affine transform.
    pub relu: bool,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, relu: bool, rng: &mut StdRng) -> Dense {
        // He initialization
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect();
        Dense {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            relu,
        }
    }

    /// Pre-activations `W·x + b` of `n` row-major input rows, returned
    /// row-major (`n × n_out`).
    ///
    /// Rows and outputs are blocked 2 × 4 into eight independent
    /// accumulators, so consecutive adds no longer wait on one another.
    /// Each output still runs `acc = b[o]; acc += w[o][i] * x[i]` in
    /// index order, so every row is bit-identical to computing it alone.
    pub fn forward_rows(&self, x: &[f64], n: usize) -> Vec<f64> {
        let n_in = self.n_in;
        assert_eq!(x.len(), n * n_in, "expected {n} rows of width {n_in}");
        let mut pre = vec![0.0; n * self.n_out];
        let mut r = 0;
        while r + 2 <= n {
            self.block_rows::<2>(x, r, &mut pre);
            r += 2;
        }
        if r < n {
            self.block_rows::<1>(x, r, &mut pre);
        }
        pre
    }

    /// Fills rows `r..r + R` of `pre`, four outputs at a time.
    fn block_rows<const R: usize>(&self, x: &[f64], r: usize, pre: &mut [f64]) {
        let (n_in, n_out) = (self.n_in, self.n_out);
        let xs: [&[f64]; R] = std::array::from_fn(|k| &x[(r + k) * n_in..][..n_in]);
        let mut store = |o: usize, acc: &[[f64; R]]| {
            for (j, a) in acc.iter().enumerate() {
                for (k, &v) in a.iter().enumerate() {
                    pre[(r + k) * n_out + o + j] = v;
                }
            }
        };
        let mut o = 0;
        while o + 4 <= n_out {
            store(o, &self.block::<R, 4>(&xs, o));
            o += 4;
        }
        while o < n_out {
            store(o, &self.block::<R, 1>(&xs, o));
            o += 1;
        }
    }

    /// Outputs `o..o + O` of the rows `xs`: `acc[j][k]` is output `o + j`
    /// of row `k`.
    #[inline(always)]
    fn block<const R: usize, const O: usize>(&self, xs: &[&[f64]; R], o: usize) -> [[f64; R]; O] {
        let n_in = self.n_in;
        // re-sliced to exactly `n_in` so the loop runs without bounds checks
        let ws: [&[f64]; O] = std::array::from_fn(|j| &self.w[(o + j) * n_in..][..n_in]);
        let xs: [&[f64]; R] = std::array::from_fn(|k| &xs[k][..n_in]);
        let mut acc: [[f64; R]; O] = std::array::from_fn(|j| [self.b[o + j]; R]);
        for i in 0..n_in {
            let xi: [f64; R] = std::array::from_fn(|k| xs[k][i]);
            for (a, w) in acc.iter_mut().zip(&ws) {
                let wi = w[i];
                for (ak, x) in a.iter_mut().zip(&xi) {
                    *ak += wi * x;
                }
            }
        }
        acc
    }

    /// Applies the layer's activation in place.
    fn activate(&self, v: &mut [f64]) {
        if self.relu {
            for y in v {
                if *y < 0.0 {
                    *y = 0.0;
                }
            }
        }
    }
}

/// Per-layer gradients.
#[derive(Debug, Clone)]
pub struct Grads {
    /// dL/dW per layer (same layout as the layer's `w`).
    pub dw: Vec<Vec<f64>>,
    /// dL/db per layer.
    pub db: Vec<Vec<f64>>,
}

impl Grads {
    fn zeros_like(mlp: &Mlp) -> Grads {
        Grads {
            dw: mlp.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            db: mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Accumulates `other` into `self`.
    pub fn add_assign(&mut self, other: &Grads) {
        for (a, b) in self.dw.iter_mut().zip(&other.dw) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.db.iter_mut().zip(&other.db) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales all gradients by `s` (e.g. `1/batch`).
    pub fn scale(&mut self, s: f64) {
        for a in self.dw.iter_mut().chain(self.db.iter_mut()) {
            for x in a {
                *x *= s;
            }
        }
    }
}

/// A multi-layer perceptron with ReLU hidden layers and a linear output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    /// The layers in order.
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[300, 128, 64, 34]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], seed: u64) -> Mlp {
        assert!(sizes.len() >= 2, "an MLP needs input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::new();
        for i in 0..sizes.len() - 1 {
            let relu = i + 2 < sizes.len();
            layers.push(Dense::new(sizes[i], sizes[i + 1], relu, &mut rng));
        }
        Mlp { layers }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.n_in).unwrap_or(0)
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(|l| l.n_out).unwrap_or(0)
    }

    /// Plain forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_rows(x, 1)
    }

    /// Forward pass over `n` row-major input rows (`n × input_dim`),
    /// returning `n × output_dim` row-major outputs.
    ///
    /// The rows share each layer's weight traversal, while every output
    /// keeps the per-row accumulation order of [`Dense::forward_rows`]: row
    /// `i` is bit-identical to `forward` of that row alone.
    pub fn forward_rows(&self, x: &[f64], n: usize) -> Vec<f64> {
        let mut cur: Option<Vec<f64>> = None;
        for layer in &self.layers {
            let mut y = layer.forward_rows(cur.as_deref().unwrap_or(x), n);
            layer.activate(&mut y);
            cur = Some(y);
        }
        cur.unwrap_or_else(|| x.to_vec())
    }

    /// Forward pass retaining the per-layer pre-activations and outputs
    /// needed for backprop.
    pub fn forward_cache(&self, x: &[f64]) -> ForwardCache {
        self.forward_rows_cache(x, 1)
    }

    /// [`Mlp::forward_rows`] retaining every layer's row-major inputs and
    /// pre-activations for [`Mlp::backward_rows`].
    pub fn forward_rows_cache(&self, x: &[f64], n: usize) -> ForwardCache {
        let mut inputs = vec![x.to_vec()];
        let mut pres = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let pre = layer.forward_rows(inputs.last().expect("starts with the input"), n);
            let mut out = pre.clone();
            layer.activate(&mut out);
            pres.push(pre);
            inputs.push(out);
        }
        ForwardCache {
            rows: n,
            inputs,
            pres,
        }
    }

    /// Backpropagates `dloss_dout` (gradient w.r.t. the network output)
    /// through a cached single-row forward pass.
    ///
    /// The gradient-checked reference that [`Mlp::backward_rows`] is
    /// tested against; the learner itself only runs `backward_rows`.
    pub fn backward(&self, cache: &ForwardCache, dloss_dout: &[f64]) -> Grads {
        debug_assert_eq!(cache.rows, 1, "backward takes a single-row cache");
        let mut grads = Grads::zeros_like(self);
        let mut delta = dloss_dout.to_vec();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            // ReLU derivative on the pre-activation
            if layer.relu {
                for (d, &p) in delta.iter_mut().zip(&cache.pres[li]) {
                    if p < 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let x = &cache.inputs[li];
            for (o, &d) in delta.iter().enumerate().take(layer.n_out) {
                grads.db[li][o] += d;
                let row = &mut grads.dw[li][o * layer.n_in..(o + 1) * layer.n_in];
                for (g, xi) in row.iter_mut().zip(x) {
                    *g += d * xi;
                }
            }
            if li > 0 {
                let mut prev = vec![0.0; layer.n_in];
                for (o, &d) in delta.iter().enumerate().take(layer.n_out) {
                    let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                    for (p, wi) in prev.iter_mut().zip(row) {
                        *p += d * wi;
                    }
                }
                delta = prev;
            }
        }
        grads
    }

    /// Backpropagates a batch: `dloss_dout` holds one output-gradient row
    /// per cached row (`rows × output_dim`, row-major), and the result is
    /// the sum of the per-row gradients.
    ///
    /// Bit-identical to `backward` on each row folded with
    /// [`Grads::add_assign`] in row order: every dW/db element collects
    /// its terms in row order, and each row's back-propagated delta sums
    /// its outputs in index order. Rows and outputs whose delta is exactly
    /// zero are skipped. With finite activations a zero delta only adds
    /// ±0.0, and an accumulator that starts at +0.0 never becomes -0.0
    /// (a sum is -0.0 only when both terms are), so the skipped add would
    /// have left it unchanged.
    pub fn backward_rows(&self, cache: &ForwardCache, dloss_dout: &[f64]) -> Grads {
        let mut grads = Grads::zeros_like(self);
        let mut delta = dloss_dout.to_vec();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let (n_in, n_out) = (layer.n_in, layer.n_out);
            if layer.relu {
                for (d, &p) in delta.iter_mut().zip(&cache.pres[li]) {
                    if p < 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let (dw, db) = (&mut grads.dw[li], &mut grads.db[li]);
            for (drow, x) in delta
                .chunks_exact(n_out)
                .zip(cache.inputs[li].chunks_exact(n_in))
            {
                for (o, &d) in drow.iter().enumerate().filter(|(_, &d)| d != 0.0) {
                    db[o] += d;
                    for (g, xi) in dw[o * n_in..][..n_in].iter_mut().zip(x) {
                        *g += d * xi;
                    }
                }
            }
            if li > 0 {
                let mut prev = vec![0.0; cache.rows * n_in];
                for (drow, p) in delta.chunks_exact(n_out).zip(prev.chunks_exact_mut(n_in)) {
                    for (o, &d) in drow.iter().enumerate().filter(|(_, &d)| d != 0.0) {
                        for (pi, wi) in p.iter_mut().zip(&layer.w[o * n_in..][..n_in]) {
                            *pi += d * wi;
                        }
                    }
                }
                delta = prev;
            }
        }
        grads
    }
}

/// Cached activations of one forward pass over `rows` input rows.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Number of input rows.
    pub rows: usize,
    /// `inputs[i]` is the input of layer `i` (`rows × n_in`, row-major);
    /// the last entry is the output.
    pub inputs: Vec<Vec<f64>>,
    /// Pre-activations per layer (`rows × n_out`, row-major).
    pub pres: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// The network output of this pass (`rows × output_dim`, row-major).
    pub fn output(&self) -> &[f64] {
        self.inputs.last().expect("cache has at least the input")
    }
}

/// The Adam optimizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    mw: Vec<Vec<f64>>,
    vw: Vec<Vec<f64>>,
    mb: Vec<Vec<f64>>,
    vb: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates an optimizer for `mlp` with learning rate `lr`.
    pub fn new(mlp: &Mlp, lr: f64) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            mw: mlp.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            vw: mlp.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            mb: mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            vb: mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Applies one Adam step with gradients `g`.
    pub fn step(&mut self, mlp: &mut Mlp, g: &Grads) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (li, layer) in mlp.layers.iter_mut().enumerate() {
            Self::update(
                &mut layer.w,
                &g.dw[li],
                &mut self.mw[li],
                &mut self.vw[li],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
            Self::update(
                &mut layer.b,
                &g.db[li],
                &mut self.mb[li],
                &mut self.vb[li],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn update(
        p: &mut [f64],
        g: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        lr: f64,
        b1: f64,
        b2: f64,
        eps: f64,
        bc1: f64,
        bc2: f64,
    ) {
        for i in 0..p.len() {
            m[i] = b1 * m[i] + (1.0 - b1) * g[i];
            v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
            let mh = m[i] / bc1;
            let vh = v[i] / bc2;
            p[i] -= lr * mh / (vh.sqrt() + eps);
        }
    }
}

/// Huber loss and its derivative w.r.t. the prediction.
pub fn huber(pred: f64, target: f64, delta: f64) -> (f64, f64) {
    let err = pred - target;
    if err.abs() <= delta {
        (0.5 * err * err, err)
    } else {
        (delta * (err.abs() - 0.5 * delta), delta * err.signum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[4, 8, 3], 1);
        let y = mlp.forward(&[0.1, 0.2, -0.3, 0.4]);
        assert_eq!(y.len(), 3);
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.output_dim(), 3);
    }

    #[test]
    fn forward_rows_is_bit_identical_to_solo_forward() {
        let mlp = Mlp::new(&[6, 16, 8, 4], 3);
        let xs: Vec<f64> = (0..13)
            .flat_map(|i| (0..6).map(move |j| ((i * 7 + j * 3) as f64).sin()))
            .collect();
        let rows = mlp.forward_rows(&xs, 13);
        assert_eq!(rows.len(), 13 * 4);
        for (x, y) in xs.chunks_exact(6).zip(rows.chunks_exact(4)) {
            assert_eq!(mlp.forward(x), y, "row output must be bitwise equal");
        }
        // block composition must not matter: a sub-block gives the same rows
        let sub = mlp.forward_rows(&xs[3 * 6..5 * 6], 2);
        assert_eq!(sub, rows[3 * 4..5 * 4]);
        assert!(mlp.forward_rows(&[], 0).is_empty());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut mlp = Mlp::new(&[3, 5, 2], 42);
        let x = [0.3, -0.7, 0.5];
        let target = [1.0, -0.5];
        // loss = 0.5 * sum (y - t)^2
        let loss_of = |mlp: &Mlp| -> f64 {
            let y = mlp.forward(&x);
            y.iter()
                .zip(&target)
                .map(|(a, b)| 0.5 * (a - b) * (a - b))
                .sum()
        };
        let cache = mlp.forward_cache(&x);
        let dout: Vec<f64> = cache
            .output()
            .iter()
            .zip(&target)
            .map(|(a, b)| a - b)
            .collect();
        let grads = mlp.backward(&cache, &dout);

        let eps = 1e-6;
        for li in 0..mlp.layers.len() {
            for wi in (0..mlp.layers[li].w.len()).step_by(3) {
                let orig = mlp.layers[li].w[wi];
                mlp.layers[li].w[wi] = orig + eps;
                let up = loss_of(&mlp);
                mlp.layers[li].w[wi] = orig - eps;
                let down = loss_of(&mlp);
                mlp.layers[li].w[wi] = orig;
                let fd = (up - down) / (2.0 * eps);
                let an = grads.dw[li][wi];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "layer {li} w[{wi}]: fd {fd} vs analytic {an}"
                );
            }
            for bi in 0..mlp.layers[li].b.len() {
                let orig = mlp.layers[li].b[bi];
                mlp.layers[li].b[bi] = orig + eps;
                let up = loss_of(&mlp);
                mlp.layers[li].b[bi] = orig - eps;
                let down = loss_of(&mlp);
                mlp.layers[li].b[bi] = orig;
                let fd = (up - down) / (2.0 * eps);
                let an = grads.db[li][bi];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "layer {li} b[{bi}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn adam_reduces_regression_loss() {
        let mut mlp = Mlp::new(&[2, 16, 1], 7);
        let mut opt = Adam::new(&mlp, 1e-2);
        // learn y = 2*a - b
        let data: Vec<([f64; 2], f64)> = (0..50)
            .map(|i| {
                let a = (i as f64 / 25.0) - 1.0;
                let b = ((i * 7 % 50) as f64 / 25.0) - 1.0;
                ([a, b], 2.0 * a - b)
            })
            .collect();
        let loss_now = |mlp: &Mlp| -> f64 {
            data.iter()
                .map(|(x, t)| {
                    let y = mlp.forward(x)[0];
                    0.5 * (y - t) * (y - t)
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let initial = loss_now(&mlp);
        for _ in 0..300 {
            let mut grads = Grads::zeros_like(&mlp);
            for (x, t) in &data {
                let cache = mlp.forward_cache(x);
                let dout = vec![cache.output()[0] - t];
                grads.add_assign(&mlp.backward(&cache, &dout));
            }
            grads.scale(1.0 / data.len() as f64);
            opt.step(&mut mlp, &grads);
        }
        let final_loss = loss_now(&mlp);
        assert!(
            final_loss < initial * 0.05,
            "loss {initial} -> {final_loss}"
        );
    }

    #[test]
    fn huber_is_quadratic_then_linear() {
        let (l1, g1) = huber(1.2, 1.0, 1.0);
        assert!((l1 - 0.02).abs() < 1e-12);
        assert!((g1 - 0.2).abs() < 1e-12);
        let (l2, g2) = huber(5.0, 1.0, 1.0);
        assert!((l2 - 3.5).abs() < 1e-12);
        assert_eq!(g2, 1.0);
        let (_, g3) = huber(-5.0, 1.0, 1.0);
        assert_eq!(g3, -1.0);
    }

    #[test]
    fn serialization_round_trip() {
        let mlp = Mlp::new(&[3, 4, 2], 5);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.1, 0.2, 0.3];
        assert_eq!(mlp.forward(&x), back.forward(&x));
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[4, 4, 4], 9);
        let b = Mlp::new(&[4, 4, 4], 9);
        assert_eq!(
            a.forward(&[1.0, 2.0, 3.0, 4.0]),
            b.forward(&[1.0, 2.0, 3.0, 4.0])
        );
        let c = Mlp::new(&[4, 4, 4], 10);
        assert_ne!(
            a.forward(&[1.0, 2.0, 3.0, 4.0]),
            c.forward(&[1.0, 2.0, 3.0, 4.0])
        );
    }
}
