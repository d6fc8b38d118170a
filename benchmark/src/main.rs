//! The repo benchmark: five workloads from a Force2Vec epoch to remote
//! `embed`, each measured end to end and layer by layer.
//!
//! ```text
//! fusedmm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! fusedmm-benchmark --seed <n> [--seconds <s>] [--smoke]      # every workload
//! ```
//!
//! One run is one workload in a fresh process: the global tuner, the
//! plan cache and the allocator's peak never leak from one workload
//! into another's numbers. The last line of stdout is the result the
//! driver reads; the line before it is the full report. See
//! `benchmark/README.md` for what every number means.

mod harness;
mod inputs;
mod metrics;
mod spans;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm::perf::memtrack;
use fusedmm::prelude::*;

use harness::{median, percentile, run_calls, timed_pass, Budget, StealGate, Timed};
use metrics::{num, quote, result_line, Metrics, END_TO_END, PER_LAYER};
use spans::{chrome_json, self_time_per_request, self_times, Recorder, Span};
use workloads::{request_ledger, Bench, Counters, Params, D};

/// Peak live heap is an end-to-end metric, so the process counts it.
#[global_allocator]
static ALLOC: fusedmm::perf::CountingAllocator = fusedmm::perf::CountingAllocator;

const WORKLOADS: [&str; 5] =
    ["train_f2v", "infer_full", "serve_point", "serve_zipf_mixed", "serve_remote"];

/// Instances per run; every end-to-end metric is the median of theirs.
const INSTANCES: usize = 3;
/// An instance with fewer quiet segments than this keeps measuring,
/// for up to twice its share of `--seconds`…
const MIN_QUIET_PER_INSTANCE: usize = 2;
/// …but only while the run is younger than this: the driver's 114 runs
/// share one time budget, and steal that lasts minutes cannot be
/// waited out.
const EXTEND_WITHIN: Duration = Duration::from_secs(30);
/// Under `--smoke`: graphs shrink by this factor and a run is this
/// many segments.
const SMOKE_SHRINK: usize = 16;
const SMOKE_SEGMENTS: usize = 2;
/// Span slots per recording thread of the program's tracer: room for
/// the warm-up and the traced slice with every request sampled.
const TRACER_CAPACITY: usize = 1 << 16;
/// Where trace files and sockets go: git-ignored, inside the checkout.
const OUT_DIR: &str = "benchmark/out";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options { workload: None, seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = value()? != "0",
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match options.workload.as_deref() {
        None => run_all(&options),
        Some("train_f2v") => run::<workloads::train::Train>(&options, started),
        Some("infer_full") => run::<workloads::infer::Infer>(&options, started),
        Some("serve_point") => run::<workloads::point::Point>(&options, started),
        Some("serve_zipf_mixed") => run::<workloads::zipf::ZipfMixed>(&options, started),
        Some("serve_remote") => run::<workloads::remote::Remote>(&options, started),
        Some(other) => {
            eprintln!("error: unknown workload {other}; one of {WORKLOADS:?}");
            return ExitCode::from(2);
        }
    }
    // A wrong answer is reported in the result line, not by the exit
    // code: the run itself completed.
    ExitCode::SUCCESS
}

/// Every workload, each in a fresh child process, with the layer and
/// traced passes; prints each child's report and a closing summary.
fn run_all(o: &Options) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_correct = true;
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &o.seed.to_string(), "--trace", "1"]);
        cmd.args(["--seconds", &o.seconds.to_string()]);
        if o.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.stderr(Stdio::inherit()).output().expect("start a workload child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines = stdout.lines().rev();
        let result = lines.next().unwrap_or_default();
        let correct = out.status.success() && result.contains("\"correct\": true");
        if let Some(report) = lines.next() {
            println!("{report}");
        }
        if !correct {
            eprintln!("error: {name} did not complete correctly: {result}");
        }
        all_correct &= correct;
    }
    println!("{{\"all_correct\": {all_correct}}}");
}

fn run<W: Bench>(o: &Options, started: Instant) {
    let params = Params { seed: o.seed, shrink: if o.smoke { SMOKE_SHRINK } else { 1 } };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate = StealGate::system(nproc);
    let mut failures: Vec<String> = Vec::new();

    // The first plan of the process pays the autotuner's probes.
    let t = Instant::now();
    std::hint::black_box(Plan::prepare(&W::ops(), D));
    let plan_build_ms = t.elapsed().as_secs_f64() * 1e3;

    // A run is several instances, one after the other: each is set up
    // (timed), warmed, measured for its share of `--seconds`, checked
    // and dropped, so the peak sees one at a time. Every end-to-end
    // metric is the median of the instances' values. One instance per
    // run would report that instance's luck: how fast an instance
    // serves depends on where its memory landed, which for the first
    // instance of a process depends on what the machine ran before
    // (`serve_point` read 235 µs on a first instance against 180 µs on
    // the next two, for as long as each lived). The median of three is
    // a majority vote between such modes.
    let reps = if o.smoke { 1 } else { INSTANCES };
    let budget = match o.smoke {
        true => Budget::Segments(SMOKE_SEGMENTS),
        false => Budget::Seconds {
            seconds: o.seconds / reps as f64,
            min_quiet: MIN_QUIET_PER_INSTANCE,
            extend_until: started + EXTEND_WITHIN,
        },
    };
    let mut instances: Vec<Instance> = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        drop(kept.take());
        memtrack::reset_peak();
        let t = if rep == 0 { started } else { Instant::now() };
        let (w, info) = W::setup(&params, Tracer::disabled());
        let setup_s = (t.elapsed() - info.excluded).as_secs_f64();

        let before = w.exported();
        let timed = timed_pass(&w, info.warmup_calls, budget, &gate);
        let counters = Counters { before, after: w.exported() };
        // Read before the checks below allocate anything of their own.
        let peak_mem_mb = memtrack::peak_bytes() as f64 / (1 << 20) as f64;

        failures.extend(w.verify());
        let ledger = request_ledger(&counters.after);
        if let Err(e) = &ledger {
            failures.push(e.clone());
        }
        instances.push(Instance { setup_s, peak_mem_mb, timed });
        kept = Some((w, info, counters, ledger));
    }
    let (w, info, counters, ledger) = kept.expect("at least one instance");
    let last = &instances.last().expect("at least one instance").timed;

    let pinned = inputs::pinned(W::NAME, params.seed, params.shrink);
    if pinned.is_some_and(|pin| pin != info.fingerprint) {
        failures.push(format!(
            "inputs changed: fingerprint {} is pinned as {}",
            info.fingerprint,
            pinned.unwrap_or_default()
        ));
    }

    // An instance that met no quiet segment has nothing trustworthy to
    // say about calls; it votes only when none of them did.
    let mut voters: Vec<&Instance> =
        instances.iter().filter(|i| i.timed.quiet_segments() > 0).collect();
    if voters.is_empty() {
        voters = instances.iter().collect();
    }
    let over_voters = |f: &dyn Fn(&Instance) -> f64| median(voters.iter().map(|i| f(i)).collect());
    let mut e2e = Metrics::new(END_TO_END);
    e2e.set("setup_s", median(instances.iter().map(|i| i.setup_s).collect()));
    e2e.set("call_p50_us", over_voters(&|i| i.timed.latency_percentile(0.5)));
    e2e.set("call_p90_us", over_voters(&|i| i.timed.latency_percentile(0.9)));
    e2e.set("rows_per_s", over_voters(&|i| i.timed.rows_per_s()));
    // A high-water mark: interference (how the copies of a snapshot in
    // flight happen to overlap) only raises it, so the lowest repeats.
    e2e.set("peak_mem_mb", instances.iter().map(|i| i.peak_mem_mb).fold(f64::MAX, f64::min));

    let mut layer = Metrics::new(PER_LAYER);
    if o.trace {
        layer.set("core.plan_build_ms", plan_build_ms);
        layer.set("graph.rmat_gen_s", info.rmat_gen_s);
        for (name, value) in &info.layer {
            layer.set(name, *value);
        }
        if let Ok((begun, failed)) = ledger {
            layer.set("serve.requests_begun", begun);
            layer.set("serve.requests_failed", failed);
        }
        w.layer_pass(&params, last, &counters, &mut layer);
        failures.extend(traced_pass(&w, &params, last.next_index, o.smoke, &mut layer));
    }

    let all = Timed::pooled(instances.iter().map(|i| &i.timed));
    let (attempted, failed) = (all.attempted(), all.failed());
    let correct = failed == 0 && failures.is_empty();
    for f in &failures {
        eprintln!("check failed: {f}");
    }

    let quiet = all.quiet_segments();
    let report = [
        format!("\"workload\": {}", quote(W::NAME)),
        format!("\"seed\": {}, \"seconds\": {}, \"smoke\": {}", o.seed, num(o.seconds), o.smoke),
        format!("\"meta\": {}", meta(nproc)),
        format!("\"plan\": {}", quote(&info.plan)),
        format!("\"fingerprint\": {}, \"pinned\": {}", quote(&info.fingerprint), pinned.is_some()),
        format!(
            "\"steal_gate\": {}, \"quiet_segments\": {quiet}, \"dropped_segments\": {}, \
             \"steal_frac\": {}, \"noisy\": {}",
            if gate.enabled { "\"on\"" } else { "\"off\"" },
            all.segments.len() - quiet,
            all.steal_share().map_or("null".to_string(), num),
            all.noisy() && !o.smoke,
        ),
        format!(
            "\"calls\": {{\"attempted\": {attempted}, \"succeeded\": {}, \"failed\": {failed}}}",
            attempted - failed
        ),
        format!(
            "\"instances\": [{}]",
            instances.iter().map(Instance::to_json).collect::<Vec<_>>().join(", ")
        ),
        format!(
            "\"failures\": [{}]",
            failures.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", ")
        ),
        format!("\"end_to_end\": {}", e2e.to_json()),
        format!("\"per_layer\": {}", if o.trace { layer.to_json() } else { "null".to_string() }),
    ];
    println!("{{\"report\": {{{}}}}}", report.join(", "));
    println!("{}", result_line(correct, attempted, failed, if o.trace { &layer } else { &e2e }));
}

/// One instance of the workload: what its set-up cost and what its
/// share of the timed pass measured.
struct Instance {
    setup_s: f64,
    /// From the start of this set-up to the end of its timed pass.
    peak_mem_mb: f64,
    timed: Timed,
}

impl Instance {
    /// The instance's own values of the end-to-end metrics, how many
    /// latency samples stand behind its percentiles, and one object
    /// per segment: wall, the steal share the gate saw, p50/p90, rows.
    fn to_json(&self) -> String {
        let latencies = self.timed.latencies_us();
        let segments = self.timed.segments.iter().map(|s| {
            let mut sorted = s.latency_us.clone();
            sorted.sort_by(f64::total_cmp);
            let q = |q| if sorted.is_empty() { 0.0 } else { percentile(&sorted, q) };
            format!(
                "{{\"wall_s\": {}, \"steal\": {}, \"p50_us\": {}, \"p90_us\": {}, \"rows\": {}}}",
                num(s.wall),
                s.steal_share.map_or("null".to_string(), num),
                num(q(0.5)),
                num(q(0.9)),
                s.rows,
            )
        });
        format!(
            "{{\"setup_s\": {}, \"peak_mem_mb\": {}, \"call_p50_us\": {}, \"call_p90_us\": {}, \
             \"rows_per_s\": {}, \"latency_samples\": {}, \"samples_beyond_p90\": {}, \
             \"segments\": [{}]}}",
            num(self.setup_s),
            num(self.peak_mem_mb),
            num(self.timed.latency_percentile(0.5)),
            num(self.timed.latency_percentile(0.9)),
            num(self.timed.rows_per_s()),
            latencies.len(),
            latencies.len() - (0.9 * latencies.len() as f64).ceil() as usize,
            segments.collect::<Vec<_>>().join(", "),
        )
    }
}

/// Replay a fixed slice of calls on a twin built with the program's
/// tracer sampling every request, under the benchmark's own span
/// recorder; report self times per stage, what they leave
/// unattributed, and the tracing overhead; write the chrome trace.
fn traced_pass<W: Bench>(
    untraced: &W,
    params: &Params,
    first: usize,
    smoke: bool,
    out: &mut Metrics,
) -> Vec<String> {
    let calls = (if smoke { W::TRACED_CALLS / 10 } else { W::TRACED_CALLS }).max(2);
    let off = StealGate::off();
    let p50 = |latency_us: &[f64]| median(latency_us.to_vec());

    // The same number of calls, untraced, on the live instance.
    let untraced_p50 = p50(&run_calls(untraced, first, calls, &off, None).latency_us);

    let tracer = Tracer::new(1.0, TRACER_CAPACITY);
    let (twin, info) = W::setup(params, Arc::clone(&tracer));
    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> =
        (0..twin.callers()).map(|caller| Recorder::new(epoch, caller)).collect();
    let slice_start_ns = tracer.now();
    let traced = run_calls(&twin, info.warmup_calls, calls, &off, Some(&mut recorders));
    let traced_p50 = p50(&traced.latency_us);
    out.set("perf.trace_overhead_frac", traced_p50 / untraced_p50 - 1.0);

    // The program's spans of the traced slice, in the recorder's shape.
    let program: Vec<Span> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.start_ns >= slice_start_ns)
        .map(|s| Span {
            id: s.span,
            parent: s.parent,
            request: s.trace,
            name: s.kind.label().to_string(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            tid: s.thread,
        })
        .collect();
    let selfs = self_times(&program);
    let mut attributed = 0.0;
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.span.")) {
        let stage = name.trim_start_matches("serve.span.").trim_end_matches("_us");
        let per_request: Vec<f64> = self_time_per_request(&program, &selfs, stage)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        if !per_request.is_empty() {
            let stage_us = median(per_request);
            out.set(name, stage_us);
            attributed += stage_us;
        }
    }
    out.set("serve.unattributed_us", traced_p50 - attributed);

    let own: Vec<Span> = recorders.into_iter().flat_map(Recorder::into_spans).collect();
    twin.own_span_metrics(&own, out);

    let mut failures: Vec<String> = Vec::new();
    if traced.failed > 0 {
        failures.push(format!("{} of {} traced calls failed", traced.failed, traced.attempted));
    }
    let path = format!("{OUT_DIR}/trace_{}.json", W::NAME);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, chrome_json(&[(0, &own), (1, &program)])));
    if let Err(e) = written {
        failures.push(format!("could not write {path}: {e}"));
    }
    failures
}

/// What the numbers were measured on.
fn meta(nproc: usize) -> String {
    let read = |path: String| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let caches: Vec<String> = (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let kind = read(format!("{dir}/type"))?;
            let suffix = match kind.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            Some(format!(
                "L{}{suffix} {}",
                read(format!("{dir}/level"))?,
                read(format!("{dir}/size"))?
            ))
        })
        .collect();
    // HEAD is either a hash or `ref: <path>` to a file that holds one;
    // a checkout that is not a git repository has neither.
    let git_sha = read(".git/HEAD".to_string())
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(reference) => read(format!(".git/{reference}")),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"caches\": {}, \"backend\": {}, \"rustc\": {}, \"git_sha\": {}}}",
        quote(&caches.join(", ")),
        quote(&cpu_features().to_string()),
        quote(env!("BENCH_RUSTC")),
        quote(&git_sha),
    )
}
