//! `serve_point` — one uncached `Engine`, one caller, one vertex per
//! `embed`. The kernel is a small share; admit → enqueue → dispatcher
//! wake → coalesce sleep → launch → ticket is the rest. The "one-shard
//! batch-1 p50 must not regress" workload.

use std::sync::Arc;
use std::time::Instant;

use fusedmm::prelude::*;

use super::{
    close, embed_call, engine_config, fingerprint_of, kernel_seconds, low_degree_row,
    reference_rows, serve_inputs, Bench, Counters, Params, SetupInfo,
};
use crate::harness::{median, median_us, Call, Timed, Workload};
use crate::inputs::{batch_of, uniform_stream, Rng};
use crate::metrics::Metrics;
use crate::spans::Recorder;

const VERTICES: usize = 1 << 17;
const EDGES_PER_VERTEX: usize = 16;
/// ≈ 0.5 s at ≈ 200 µs a call.
const SEGMENT_CALLS: usize = 2500;
const WARMUP_CALLS: usize = 2000;
const STREAM_CALLS: usize = 1 << 17;
/// Every this-many-th response is compared with the reference kernel.
const CHECK_EVERY: usize = 1000;
/// Calls per layer-pass measurement.
const LAYER_CALLS: usize = 2000;

pub struct Point {
    engine: Engine,
    a: Csr,
    ids: Vec<u32>,
    registry: MetricsRegistry,
}

fn ops() -> OpSet {
    OpSet::sigmoid_embedding(None)
}

impl Point {
    fn matches_reference(&self, ids: &[usize], got: &Dense) -> bool {
        let epoch = self.engine.store().snapshot();
        close(got, &reference_rows(&self.a, ids, epoch.x(), epoch.y(), &ops()))
    }
}

impl Workload for Point {
    fn callers(&self) -> usize {
        1
    }

    fn segment_calls(&self) -> usize {
        SEGMENT_CALLS
    }

    fn call(&self, _caller: usize, index: usize, rec: Option<&mut Recorder>) -> Call {
        let ids = batch_of(&self.ids, 1, index);
        let request = index as u64;
        let start = Instant::now();
        let result =
            embed_call(rec, request, || self.engine.embed(&ids), || self.engine.embed_begin(&ids));
        let latency = start.elapsed();
        let ok = match &result {
            Ok(rows) if index.is_multiple_of(CHECK_EVERY) => self.matches_reference(&ids, rows),
            Ok(rows) => rows.nrows() == 1,
            Err(_) => false,
        };
        Call { latency, rows: 1, failed: !ok }
    }
}

impl Bench for Point {
    const NAME: &'static str = "serve_point";
    const TRACED_CALLS: usize = 2000;
    const KERNEL_SHARE: &'static str = "core.kernel_share_point";

    fn ops() -> OpSet {
        ops()
    }

    fn setup(p: &Params, tracer: Arc<Tracer>) -> (Point, SetupInfo) {
        let n = p.vertices(VERTICES);
        let (a, x, y, rmat_gen_s) = serve_inputs(p, n, EDGES_PER_VERTEX);
        let ids = uniform_stream(n, STREAM_CALLS, 1, &mut Rng::new(p.seed_for(4)));

        let t = Instant::now();
        let mut fp = fingerprint_of(&a, &x, &y);
        fp.u32s(&ids);
        let excluded = t.elapsed();

        let engine = Engine::new(a.clone(), x, y, ops(), engine_config(&tracer));
        let registry = MetricsRegistry::new();
        engine.register_metrics(&registry, &[]);
        let point = Point { engine, a, ids, registry };
        for i in 0..WARMUP_CALLS {
            point.call(0, i, None);
        }
        let info = SetupInfo {
            excluded,
            rmat_gen_s,
            fingerprint: fp.hex(),
            plan: format!("{:?}", point.engine.plan().blocking()),
            warmup_calls: WARMUP_CALLS,
            layer: Vec::new(),
        };
        (point, info)
    }

    fn verify(&self) -> Vec<String> {
        Vec::new()
    }

    fn layer_pass(&self, _p: &Params, timed: &Timed, _counters: &Counters, out: &mut Metrics) {
        let epoch = self.engine.store().snapshot();
        let (x, y) = (epoch.x(), epoch.y());
        let plan = self.engine.plan();
        let first = timed.next_index;
        let slice = || (first..first + LAYER_CALLS).map(|i| batch_of(&self.ids, 1, i));

        // The plan's fixed cost per launch: one row of degree ≤ 4.
        let tiny = [low_degree_row(&self.a, first as u64)];
        let launch = median_us(0..LAYER_CALLS, |_| {
            std::hint::black_box(plan.execute_rows(&self.a, &tiny, x, y, &ops()));
        });
        out.set("core.launch_overhead_us", launch);

        // The same rows through the bare plan, then through the engine
        // with the call split at the ticket.
        let bare = median_us(slice(), |ids| {
            std::hint::black_box(plan.execute_rows(&self.a, &ids, x, y, &ops()));
        });
        let kernel_before = kernel_seconds();
        let (mut begin, mut wait, mut whole) = (Vec::new(), Vec::new(), Vec::new());
        for ids in slice() {
            let t0 = Instant::now();
            let ticket = self.engine.embed_begin(&ids).expect("unlimited admission");
            let t1 = Instant::now();
            std::hint::black_box(ticket.wait().expect("embed"));
            let t2 = Instant::now();
            begin.push((t1 - t0).as_secs_f64() * 1e6);
            wait.push((t2 - t1).as_secs_f64() * 1e6);
            whole.push((t2 - t0).as_secs_f64() * 1e6);
        }
        let kernel_share = (kernel_seconds() - kernel_before) / (whole.iter().sum::<f64>() / 1e6);
        out.set(Self::KERNEL_SHARE, kernel_share);
        out.set("serve.begin_us", median(begin));
        out.set("serve.wait_us", median(wait));
        let engine_p50 = median(whole);
        out.set("serve.fixed_cost_us", engine_p50 - bare);

        // What the sharded front end adds when there is nothing to shard.
        let tracer = Tracer::disabled();
        let one_shard = ShardedEngine::new(
            self.a.clone(),
            x.clone(),
            y.clone(),
            ops(),
            1,
            engine_config(&tracer),
        );
        let sharded = median_us(slice(), |ids| {
            std::hint::black_box(one_shard.embed(&ids).expect("embed"));
        });
        out.set("serve.oneshard_delta_us", sharded - engine_p50);

        out.set("serve.point_p99_us", timed.latency_percentile(0.99));
    }

    fn exported(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}
