//! RMAT skew sweep: the uniform launch vs the same launch on the
//! degree-sorted problem, across a sweep of quadrant skew — the
//! experiment behind ROADMAP item 3's "skewed graphs" claim.
//!
//! The sweep interpolates the RMAT quadrant probabilities from uniform
//! `(0.25, 0.25, 0.25, 0.25)` at `s = 0` (an Erdős–Rényi-like graph
//! with no hubs) to the sharp Graph500 parameterization
//! `(0.57, 0.19, 0.19, 0.05)` at `s = 1.5`. Two arms run per point,
//! both under `Blocking::Auto` with PART1D cut by nnz:
//!
//! * `uniform` — the graph as generated;
//! * `reordered` — the [`Reordering::DegreeSort`]-permuted problem
//!   (permutation applied once outside the timed region, as
//!   [`fusedmm_serve::Engine`] does at load time).
//!
//! Arms are timed in interleaved rounds (rotating the in-round order):
//! the `_ms` columns report each arm's fastest round, the speedup
//! column the **median of per-round ratios** — within a round the arms
//! run close together, so machine drift mostly cancels out of the
//! ratio. The binary exits nonzero unless the reordered arm's `z`,
//! unpermuted, is bit-identical to the uniform arm's at every skew:
//! reordering renumbers rows but keeps each row's neighbor order, so
//! any differing bit is a permutation bug — the gate CI enforces.
//!
//! Environment knobs: `FUSEDMM_SKEW_N` (vertices, default 20000),
//! `FUSEDMM_SKEW_DEG` (average degree, default 8), `FUSEDMM_SKEW_D`
//! (feature dimension, default 96),
//! `FUSEDMM_REPS`, `FUSEDMM_BENCH_JSON`.
//!
//! Run: `cargo run --release --bin skew-sweep`

use fusedmm_bench::report::{run_meta, JsonReport, Table};
use fusedmm_bench::workloads::{env_usize, reps};
use fusedmm_core::{Launch, Plan};
use fusedmm_graph::features::random_features;
use fusedmm_graph::rmat::{rmat, RmatConfig};
use fusedmm_graph::Reordering;
use fusedmm_ops::OpSet;
use fusedmm_sparse::{Csr, Dense};

/// Sweep points: `s = 0` is the unskewed arm; the paper-relevant
/// regime is `s >= 1.0`.
const SKEWS: [f64; 4] = [0.0, 0.5, 1.0, 1.5];

/// RMAT quadrant probabilities interpolated uniform → Graph500-sharp.
fn quadrants(s: f64) -> (f64, f64, f64, f64) {
    let t = (s / 1.5).clamp(0.0, 1.0);
    let lerp = |from: f64, to: f64| from + t * (to - from);
    (lerp(0.25, 0.57), lerp(0.25, 0.19), lerp(0.25, 0.19), lerp(0.25, 0.05))
}

fn skewed_rmat(n: usize, nedges: usize, s: f64) -> Csr {
    let mut cfg = RmatConfig::new(n, nedges).with_seed(0x5EED + (s * 10.0) as u64);
    (cfg.a, cfg.b, cfg.c, cfg.d) = quadrants(s);
    // Re-normalize exactly: the lerp is affine so the sum is already
    // ~1, but the generator asserts to 1e-6.
    let total = cfg.a + cfg.b + cfg.c + cfg.d;
    cfg.a /= total;
    cfg.b /= total;
    cfg.c /= total;
    cfg.d /= total;
    rmat(&cfg)
}

/// One comparison arm: a (possibly renumbered) problem.
struct Arm<'a> {
    a: &'a Csr,
    x: &'a Dense,
    y: &'a Dense,
}

/// Time every arm with interleaved rounds — arm 0, arm 1, repeat —
/// returning the per-round samples and the last output of each arm. A
/// shared machine drifts on a timescale of whole benchmark windows;
/// round-robin interleaving makes the noise hit all arms alike instead
/// of poisoning whichever arm owned the slow window, and keeping the
/// rounds lets the speedup compare arms *within* a round (back-to-back,
/// so drift cancels) rather than across the whole window.
fn time_arms(arms: &[Arm<'_>], ops: &OpSet, nreps: usize) -> (Vec<Vec<f64>>, Vec<Dense>) {
    // Every arm is the same `n × d` problem (renumbered or not), so one
    // plan serves them all and no round times an allocation.
    let (n, d) = (arms[0].a.nrows(), arms[0].x.ncols());
    let mut zs: Vec<Dense> = arms.iter().map(|_| Dense::zeros(n, d)).collect();
    let plan = Plan::prepare(ops, d);
    let mut run = |i: usize| {
        let (arm, z) = (&arms[i], &mut zs[i]);
        plan.launch(arm.a, arm.x, arm.y, ops, Launch::All { scores: None }, z.as_mut_slice());
        std::hint::black_box(z.as_slice());
    };
    for i in 0..arms.len() {
        run(i); // warm-up: page in operands
    }
    let mut samples = vec![vec![0f64; nreps]; arms.len()];
    for r in 0..nreps {
        // Rotate the order each round: a fixed order would hand every
        // arm a fixed *position*, and position is not neutral (an
        // AVX-heavy predecessor leaves frequency/thermal state behind).
        for k in 0..arms.len() {
            let i = (r + k) % arms.len();
            let t0 = std::time::Instant::now();
            run(i);
            samples[i][r] = t0.elapsed().as_secs_f64();
        }
    }
    (samples, zs)
}

fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of the per-round `num[r] / den[r]` ratios: the drift-robust
/// arm comparison (each round's pair ran back-to-back).
fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[m]
    } else {
        0.5 * (ratios[m - 1] + ratios[m])
    }
}

fn main() {
    let n = env_usize("FUSEDMM_SKEW_N", 20_000);
    let deg = env_usize("FUSEDMM_SKEW_DEG", 8);
    let d = env_usize("FUSEDMM_SKEW_D", 96);
    let nreps = reps();
    let nedges = (n * deg / 2).max(1);
    let ops = OpSet::sigmoid_embedding(None);

    println!("RMAT skew sweep — n={n}, avg deg≈{deg}, d={d}, reps={nreps}\n");
    let meta = run_meta();
    meta.print();
    println!();

    let mut table =
        Table::new(&["skew", "nnz", "max_deg", "uniform_ms", "reordered_ms", "reord_speedup"]);
    let mut mismatched = Vec::new();

    for s in SKEWS {
        let a = skewed_rmat(n, nedges, s);
        let x = random_features(a.nrows(), d, 0.5, 0xA11CE);
        let y = random_features(a.ncols(), d, 0.5, 0xB0B);

        // The reordered arm permutes once up front — load-time work in
        // the serving engine — and times the kernel on the renumbered
        // problem.
        let perm = Reordering::DegreeSort.compute(&a);
        let ap = perm.permute_csr(&a);
        let xp = perm.permute_rows(&x);
        let yp = perm.permute_rows(&y);

        let (times, zs) =
            time_arms(&[Arm { a: &a, x: &x, y: &y }, Arm { a: &ap, x: &xp, y: &yp }], &ops, nreps);
        let bits = |z: &Dense| z.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if bits(&perm.unpermute_rows(&zs[1])) != bits(&zs[0]) {
            mismatched.push(s);
        }

        table.row(vec![
            format!("{s:.1}"),
            a.nnz().to_string(),
            a.max_degree().to_string(),
            format!("{:.3}", min_of(&times[0]) * 1e3),
            format!("{:.3}", min_of(&times[1]) * 1e3),
            format!("{:.3}", 1.0 / median_ratio(&times[1], &times[0])),
        ]);
    }

    table.print();

    if let Some(path) = JsonReport::env_path() {
        let mut report = JsonReport::new();
        report.section("meta", &meta);
        report.section("skew_sweep", &table);
        report.write(&path).expect("write FUSEDMM_BENCH_JSON report");
        println!("\nwrote {}", path.display());
    }

    println!(
        "\nPaper shape to verify: reordered >= uniform as skew grows; both within noise at s=0."
    );
    if !mismatched.is_empty() {
        eprintln!(
            "GATE FAILED: the reordered arm's z, unpermuted, differs from the uniform arm's \
             at skew {mismatched:?}"
        );
        std::process::exit(1);
    }
}
