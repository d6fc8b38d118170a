//! `infer_full` — whole-graph GCN aggregation through `Engine`:
//! bandwidth-bound SpMM on matrices far larger than the caches, where
//! launch and dispatch cost vanish. Prefetch, non-temporal stores and
//! bytes-per-edge work show here and nowhere else.

use std::sync::Arc;
use std::time::Instant;

use fusedmm::perf::{flops, stream};
use fusedmm::prelude::*;

use super::{
    close, engine_config, fingerprint_of, kernel_seconds, reference_rows, serve_inputs, Bench,
    Counters, Params, SetupInfo, D,
};
use crate::harness::{median_us, Call, Timed, Workload};
use crate::inputs::Rng;
use crate::metrics::Metrics;
use crate::spans::Recorder;

const VERTICES: usize = 1 << 18;
const EDGES_PER_VERTEX: usize = 8;
/// ≈ 0.5 s at ≈ 170 ms a call.
const SEGMENT_CALLS: usize = 3;
const WARMUP_CALLS: usize = 3;
const CHECKED_ROWS: usize = 256;

pub struct Infer {
    engine: Engine,
    /// The engine owns its copy; this one feeds the reference check
    /// and the bare-plan comparison.
    a: Csr,
    check_rows: Vec<usize>,
    registry: MetricsRegistry,
}

/// Bytes one whole-graph SpMM moves, *computed* from array sizes with
/// no cache reuse assumed: per edge a column index, a value and one
/// neighbour row of `d` floats; per row a row pointer and the output
/// row.
fn spmm_bytes(a: &Csr, d: usize) -> f64 {
    let index = std::mem::size_of::<usize>();
    (a.nnz() * (index + 4 + 4 * d) + a.nrows() * (index + 4 * d)) as f64
}

impl Workload for Infer {
    fn callers(&self) -> usize {
        1
    }

    fn segment_calls(&self) -> usize {
        SEGMENT_CALLS
    }

    fn call(&self, _caller: usize, index: usize, rec: Option<&mut Recorder>) -> Call {
        let start = Instant::now();
        let z = match rec {
            None => self.engine.infer_full(),
            Some(rec) => {
                rec.span("serve.infer_full", 0, index as u64, |_, _| self.engine.infer_full())
            }
        };
        let latency = start.elapsed();
        let rows = z.nrows();
        Call { latency, rows, failed: rows != self.a.nrows() }
    }
}

impl Bench for Infer {
    const NAME: &'static str = "infer_full";
    const TRACED_CALLS: usize = 12;
    const KERNEL_SHARE: &'static str = "core.kernel_share_infer";

    fn ops() -> OpSet {
        OpSet::gcn()
    }

    fn setup(p: &Params, tracer: Arc<Tracer>) -> (Infer, SetupInfo) {
        let n = p.vertices(VERTICES);
        let (a, x, y, rmat_gen_s) = serve_inputs(p, n, EDGES_PER_VERTEX);
        let mut rng = Rng::new(p.seed_for(4));
        let check_rows: Vec<usize> = (0..CHECKED_ROWS).map(|_| rng.below(n)).collect();

        let t = Instant::now();
        let mut fp = fingerprint_of(&a, &x, &y);
        fp.usizes(&check_rows);
        let excluded = t.elapsed();

        let engine = Engine::new(a.clone(), x, y, OpSet::gcn(), engine_config(&tracer));
        let registry = MetricsRegistry::new();
        engine.register_metrics(&registry, &[]);
        let infer = Infer { engine, a, check_rows, registry };
        for i in 0..WARMUP_CALLS {
            infer.call(0, i, None);
        }
        let info = SetupInfo {
            excluded,
            rmat_gen_s,
            fingerprint: fp.hex(),
            plan: format!("{:?}", infer.engine.plan().blocking()),
            warmup_calls: WARMUP_CALLS,
            layer: Vec::new(),
        };
        (infer, info)
    }

    fn verify(&self) -> Vec<String> {
        let z = self.engine.infer_full();
        let epoch = self.engine.store().snapshot();
        let got = fusedmm::sparse::slice::gather_rows(&z, &self.check_rows);
        let want = reference_rows(&self.a, &self.check_rows, epoch.x(), epoch.y(), &OpSet::gcn());
        if close(&got, &want) {
            Vec::new()
        } else {
            vec![format!("{CHECKED_ROWS} sampled rows are off the reference kernel")]
        }
    }

    fn layer_pass(&self, p: &Params, _timed: &Timed, _counters: &Counters, out: &mut Metrics) {
        let n = self.a.nrows();
        let ops = OpSet::gcn();

        // The roof, measured in this run on arrays the size of X.
        let roof = stream::stream_triad(n * D, 5).gbytes_per_sec;
        out.set("perf.stream_gbps", roof);

        for d in [32, 100, 128] {
            let y = random_features(n, d, 0.5, p.seed_for(10));
            let plan = Plan::prepare(&ops, d);
            std::hint::black_box(plan.execute(&self.a, &y, &y, &ops));
            let secs = median_us(0..5, |_| {
                std::hint::black_box(plan.execute(&self.a, &y, &y, &ops));
            }) / 1e6;
            let gbps = spmm_bytes(&self.a, d) / secs / 1e9;
            out.set(
                &format!("core.spmm_d{d}_gflops"),
                flops::gflops(ops.pattern, d, self.a.nnz(), secs),
            );
            out.set(&format!("core.spmm_d{d}_gbps"), gbps);
            if d == D {
                out.set("core.bytes_per_edge_d128", spmm_bytes(&self.a, d) / self.a.nnz() as f64);
                out.set("core.spmm_d128_roof_frac", gbps / roof);
            }
        }

        // What the engine adds to the bare plan on the same operands.
        let epoch = self.engine.store().snapshot();
        let plan = self.engine.plan();
        let bare = median_us(0..7, |_| {
            std::hint::black_box(plan.execute(&self.a, epoch.x(), epoch.y(), &ops));
        });
        let kernel_before = kernel_seconds();
        let wall = Instant::now();
        let through_engine = median_us(0..7, |_| {
            std::hint::black_box(self.engine.infer_full());
        });
        let wall = wall.elapsed().as_secs_f64();
        out.set("serve.infer_overhead_frac", through_engine / bare - 1.0);
        out.set(Self::KERNEL_SHARE, (kernel_seconds() - kernel_before) / wall);
    }

    fn exported(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}
