//! `train_f2v` — the paper's Table VIII path: Force2Vec training
//! driven one minibatch per call. `core` kernels on small row slices
//! plus `apps`/`sparse` glue do all the work; `serve`, `cache` and
//! `rpc` do none.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fusedmm::apps::sampler::NegativeSampler;
use fusedmm::apps::{Backend as TrainBackend, Force2Vec, Force2VecConfig};
use fusedmm::ops::sigmoid;
use fusedmm::perf::{flops, memtrack};
use fusedmm::prelude::*;
use fusedmm::sparse::slice::{gather_rows, slice_rows};

use super::{close, graph, kernel_seconds, Bench, Counters, Params, SetupInfo, D};
use crate::harness::{median, median_us, Call, Timed, Workload};
use crate::inputs::{permutation, Fingerprint, Rng};
use crate::metrics::Metrics;
use crate::spans::{Recorder, Span};

const VERTICES: usize = 1 << 17;
const EDGES_PER_VERTEX: usize = 8;
const BATCH: usize = 256;
const NEGATIVES: usize = 5;
/// Converges within three epochs at both graph sizes and stays stable
/// (0.2 diverges), so the loss check holds under `--smoke` too.
const LEARNING_RATE: f32 = 0.1;
const WARMUP_EPOCHS: usize = 1;
/// Half an epoch, ≈ 0.4 s.
const SEGMENT_CALLS: usize = 256;

struct State {
    emb: Dense,
    sampler: NegativeSampler,
    /// Negatives for the traced pass's replayed step pieces; the
    /// trainer's own sampler is not disturbed.
    replay_sampler: NegativeSampler,
    /// Mean loss of each completed epoch; `[0]` is epoch 0.
    epoch_losses: Vec<f64>,
    epoch_sum: f64,
    epoch_calls: usize,
}

pub struct Train {
    trainer: Force2Vec,
    adj: Csr,
    batches: Vec<Vec<usize>>,
    state: Mutex<State>,
    first_gradient_ok: bool,
}

fn trainer_config(backend: TrainBackend, seed: u64) -> Force2VecConfig {
    Force2VecConfig {
        dim: D,
        batch_size: BATCH,
        epochs: 1,
        lr: LEARNING_RATE,
        negatives: NEGATIVES,
        seed,
        backend,
    }
}

/// The trainer's positive-term operator set, `(MUL, RSUM, σ(s)−1,
/// MUL, ASUM)`, rebuilt here because the trainer keeps its own private.
fn positive_ops() -> OpSet {
    OpSet::custom(
        VOp::Mul,
        ROp::Sum,
        SOp::Custom(Arc::new(|s, _| sigmoid(s) - 1.0)),
        MOp::Mul,
        AOp::Sum,
    )
}

impl Train {
    /// One minibatch through the trainer's own epoch loop.
    fn step(&self, state: &mut State, batch: usize) -> f64 {
        let State { emb, sampler, .. } = state;
        self.trainer.train_epoch(emb, sampler, &self.batches[batch..=batch])
    }

    fn epoch_calls(&self) -> usize {
        self.batches.len()
    }
}

impl Workload for Train {
    fn callers(&self) -> usize {
        1
    }

    fn segment_calls(&self) -> usize {
        SEGMENT_CALLS.min(self.epoch_calls())
    }

    fn call(&self, _caller: usize, index: usize, mut rec: Option<&mut Recorder>) -> Call {
        let at = index % self.batches.len();
        let batch = &self.batches[at];
        let mut guard = self.state.lock().expect("single caller");
        let state = &mut *guard;
        let request = index as u64;
        let start = Instant::now();
        let loss = match rec.as_deref_mut() {
            None => self.step(state, at),
            Some(rec) => rec.span("apps.train_step", 0, request, |_, _| self.step(state, at)),
        };
        let latency = start.elapsed();
        if let Some(rec) = rec {
            // The step's pieces, replayed on the same batch beside the
            // real step (the trainer's loop is one opaque call) and off
            // the call's clock.
            rec.span("replay", 0, request, |rec, parent| {
                let mb = rec.span("sparse.slice_rows", parent, request, |_, _| {
                    slice_rows(&self.adj, batch)
                });
                let neg = rec.span("apps.sample_batch", parent, request, |_, _| {
                    state.replay_sampler.sample_batch(batch)
                });
                let xb = rec.span("sparse.gather_rows", parent, request, |_, _| {
                    gather_rows(&state.emb, batch)
                });
                rec.span("core.fusedmm_opt", parent, request, |_, _| {
                    std::hint::black_box((
                        fusedmm_opt(&mb.adj, &xb, &state.emb, &positive_ops()),
                        fusedmm_opt(&neg, &xb, &state.emb, &OpSet::sigmoid_embedding(None)),
                    ));
                });
            });
        }
        state.epoch_sum += loss;
        state.epoch_calls += 1;
        if state.epoch_calls == self.epoch_calls() {
            state.epoch_losses.push(state.epoch_sum / state.epoch_calls as f64);
            (state.epoch_sum, state.epoch_calls) = (0.0, 0);
        }
        Call { latency, rows: batch.len(), failed: !loss.is_finite() }
    }
}

impl Bench for Train {
    const NAME: &'static str = "train_f2v";
    /// One epoch at full size.
    const TRACED_CALLS: usize = VERTICES / BATCH;
    const KERNEL_SHARE: &'static str = "core.kernel_share_train";

    fn ops() -> OpSet {
        OpSet::sigmoid_embedding(None)
    }

    fn setup(p: &Params, _tracer: Arc<Tracer>) -> (Train, SetupInfo) {
        let n = p.vertices(VERTICES);
        let t = Instant::now();
        let adj = graph(n, EDGES_PER_VERTEX, p.seed_for(1));
        let rmat_gen_s = t.elapsed().as_secs_f64();
        // The reference initialisation, uniform in ±0.5/√d.
        let emb = random_features(n, D, 0.5 / (D as f32).sqrt(), p.seed_for(2));
        // Minibatches over a seeded vertex order, fixed across epochs.
        let order = permutation(n, &mut Rng::new(p.seed_for(3)));
        let batches: Vec<Vec<usize>> =
            order.chunks(BATCH).map(|c| c.iter().map(|&v| v as usize).collect()).collect();

        let t = Instant::now();
        let mut fp = Fingerprint::default();
        fp.usizes(adj.rowptr()).usizes(adj.colidx()).f32s(adj.values()).f32s(emb.as_slice());
        fp.u32s(&order);
        // The first minibatch's gradient against the reference kernel,
        // before training moves the embedding.
        let mb = slice_rows(&adj, &batches[0]);
        let xb = gather_rows(&emb, &batches[0]);
        let first_gradient_ok = close(
            &fusedmm_opt(&mb.adj, &xb, &emb, &positive_ops()),
            &fusedmm_reference(&mb.adj, &xb, &emb, &positive_ops()),
        );
        let excluded = t.elapsed();

        let train = Train {
            trainer: Force2Vec::new(adj.clone(), trainer_config(TrainBackend::Fused, p.seed)),
            adj,
            batches,
            state: Mutex::new(State {
                emb,
                sampler: NegativeSampler::new(n, NEGATIVES, p.seed_for(4)),
                replay_sampler: NegativeSampler::new(n, NEGATIVES, p.seed_for(5)),
                epoch_losses: Vec::new(),
                epoch_sum: 0.0,
                epoch_calls: 0,
            }),
            first_gradient_ok,
        };
        let warmup_calls = WARMUP_EPOCHS * train.epoch_calls();
        for i in 0..warmup_calls {
            train.call(0, i, None);
        }
        let plan = format!("{:?}", Plan::prepare(&OpSet::sigmoid_embedding(None), D).blocking());
        let info = SetupInfo {
            excluded,
            rmat_gen_s,
            fingerprint: fp.hex(),
            plan,
            warmup_calls,
            layer: Vec::new(),
        };
        (train, info)
    }

    fn verify(&self) -> Vec<String> {
        let state = self.state.lock().expect("callers are done");
        let mut failures = Vec::new();
        if !self.first_gradient_ok {
            failures.push("first minibatch gradient is off the reference kernel".to_string());
        }
        let (first, last) = (state.epoch_losses[0], *state.epoch_losses.last().expect("warm-up"));
        if !(last.is_finite() && last <= 0.75 * first) {
            failures.push(format!("loss {last} is not 25 % below epoch 0's {first}"));
        }
        failures
    }

    fn layer_pass(&self, p: &Params, timed: &Timed, _counters: &Counters, out: &mut Metrics) {
        let n = self.adj.nrows();
        let nnz = self.adj.nnz();
        let slicing = median_us(self.batches.iter(), |b| {
            std::hint::black_box(slice_rows(&self.adj, b));
        });
        out.set("sparse.slice_rows_us", slicing);

        // Whole-graph kernels on this workload's graph, FLOPs by the
        // paper's count.
        let kernels: [(&str, OpSet, usize); 5] = [
            ("core.sigmoid_d32_gflops", OpSet::sigmoid_embedding(None), 32),
            ("core.sigmoid_d100_gflops", OpSet::sigmoid_embedding(None), 100),
            ("core.sigmoid_d128_gflops", OpSet::sigmoid_embedding(None), 128),
            ("core.fr_d128_gflops", OpSet::fr_model(1.0), 128),
            ("core.tdist_d128_gflops", OpSet::tdist_embedding(), 128),
        ];
        for (name, ops, d) in kernels {
            let x = random_features(n, d, 0.5, p.seed_for(10));
            let plan = Plan::prepare(&ops, d);
            std::hint::black_box(plan.execute(&self.adj, &x, &x, &ops));
            let secs = median_us(0..5, |_| {
                std::hint::black_box(plan.execute(&self.adj, &x, &x, &ops));
            }) / 1e6;
            out.set(name, flops::gflops(ops.pattern, d, nnz, secs));
        }

        // One unfused epoch against one fused epoch from the same
        // embedding: the paper's Table VIII and Fig. 10 claims.
        let start = self.state.lock().expect("callers are done").emb.clone();
        let epoch = |backend| {
            let trainer = Force2Vec::new(self.adj.clone(), trainer_config(backend, p.seed));
            let mut emb = start.clone();
            let mut sampler = NegativeSampler::new(n, NEGATIVES, p.seed_for(6));
            let t = Instant::now();
            let (_, peak) = memtrack::measure_peak(|| {
                trainer.train_epoch(&mut emb, &mut sampler, &self.batches)
            });
            (t.elapsed().as_secs_f64(), peak as f64)
        };
        let (fused_s, fused_peak) = epoch(TrainBackend::Fused);
        let (unfused_s, unfused_peak) = epoch(TrainBackend::Unfused);
        out.set("baseline.unfused_epoch_ratio", unfused_s / fused_s);
        out.set("baseline.unfused_peak_mem_ratio", unfused_peak / fused_peak.max(1.0));

        let epoch_calls = self.epoch_calls() as f64;
        let walls: Vec<f64> = timed.counted().iter().map(|s| s.wall).collect();
        out.set("apps.epoch_s", median(walls) * epoch_calls / self.segment_calls() as f64);
        let final_loss =
            *self.state.lock().expect("callers are done").epoch_losses.last().expect("warm-up");
        out.set("apps.final_loss", final_loss);

        // Kernel share over one epoch of calls.
        let kernel_before = kernel_seconds();
        let wall: f64 = (0..self.epoch_calls())
            .map(|i| self.call(0, timed.next_index + i, None).latency.as_secs_f64())
            .sum();
        out.set(Self::KERNEL_SHARE, (kernel_seconds() - kernel_before) / wall);
    }

    fn own_span_metrics(&self, spans: &[Span], out: &mut Metrics) {
        let durations = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect()
        };
        let (step, kernels) = (durations("apps.train_step"), durations("core.fusedmm_opt"));
        if !step.is_empty() && !kernels.is_empty() {
            out.set("apps.nonkernel_step_us", median(step) - median(kernels));
        }
    }

    fn exported(&self) -> MetricsSnapshot {
        MetricsRegistry::new().snapshot()
    }
}
