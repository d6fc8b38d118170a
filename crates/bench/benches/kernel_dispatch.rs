//! Shape-table printer: the offline tuning step behind
//! `KernelSpec::default_for`.
//!
//! The paper's generator emits one register-blocked kernel per pattern
//! and tunes one number — the blocking factor — offline. This bench is
//! that step for the kernel table: for every `(pattern, d)` cell it
//! times `Blocking::Auto` and every shape `candidate_specs` offers on
//! the active backend, **interleaved** (round `r` starts at arm `r`, so
//! no shape always runs first or always inherits a neighbour's cache
//! state), into one reused output, and prints each arm's median and
//! inter-quartile range. A cell's verdict compares the default shape
//! with the cell's best: the default is fine when it is not behind by
//! more than the rounds' own spread (the larger of the two IQRs). The
//! rule in `default_for` is whatever passes that verdict on both x86
//! backends; shapes that are never within spread of a cell's best are
//! listed at the end (listed, not chased — the grid is not tuned here).
//! The table compiles only the shapes the rule returns (main passes of
//! 4, 6 and 8 lane-widths), so a shape outside it is measured by adding
//! it to `MAIN_GRID` and the selector on a scratch tree; the pass that
//! retired 12- and 24-panel passes and 16- and 64-deep message chunks
//! is in `docs/ARCHITECTURE.md`, "The kernel table".
//!
//! A second section times rows no wider than an 8-lane register on the
//! 16-lane backend's entries against the same bodies' 8-lane entries —
//! the measurement behind `genkern::entry_backend`.
//!
//! A third section is the measurement behind `genkern::LOOKAHEAD`: the
//! SDDMM row kernels at the default shape with the look-ahead stream
//! shifted by {0 (off), 2, 4, 6, 8} positions, interleaved, on one
//! thread — over a whole RMAT graph whose `Y` outgrows the L2, and over
//! 256-row random slices of it (a training step's shape). A cell's
//! verdict compares the committed constant with the cell's best
//! distance, as for shapes.
//!
//! The header line records the detected CPU features and chosen
//! backend; set `FUSEDMM_FORCE_BACKEND=avx2` (or `scalar`) to print the
//! table for a narrower backend on the same machine. `FUSEDMM_REPS`
//! sets the rounds (default 9 here), `FUSEDMM_SCALE` scales the
//! 2¹⁵-vertex RMAT graph.
//!
//! Run: `cargo bench -p fusedmm-bench --bench kernel_dispatch`; append
//! `-- shapes`, `-- narrow` or `-- lookahead` to print one section.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fusedmm_bench::workloads::{env_usize, scale_factor};
use fusedmm_core::genkern::{
    candidate_specs, embed_spec_kernel, fr_spec_kernel, spmm_spec_kernel, tdist_spec_kernel,
    KernelSpec, SigmoidKind, LOOKAHEAD,
};
use fusedmm_core::{
    active_backend, cpu_features, specialize, Backend, Blocking, Launch, PartitionStrategy, Plan,
    Specialized,
};
use fusedmm_graph::features::random_features;
use fusedmm_graph::rmat::{rmat, RmatConfig};
use fusedmm_ops::OpSet;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::slice::{gather_rows, slice_rows};

/// The paper's Table VI dims (32–512 are powers of two), serving dims
/// that are not (96, 192, 384), one that ends in the masked tail (100)
/// and the narrow end (8, 16).
const DIMS: [usize; 10] = [8, 16, 32, 64, 96, 100, 128, 192, 256, 384];

/// `(q1, median, q3)` of one arm's rounds, in milliseconds.
fn quartiles(mut t: Vec<f64>) -> (f64, f64, f64) {
    t.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| t[((t.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

/// One warm-up launch per arm, then `rounds` interleaved rounds.
fn interleaved(rounds: usize, arms: usize, mut launch: impl FnMut(usize)) -> Vec<(f64, f64, f64)> {
    let mut t = vec![Vec::with_capacity(rounds); arms];
    (0..arms).for_each(&mut launch);
    for r in 0..rounds {
        for i in 0..arms {
            let k = (i + r) % arms;
            let t0 = Instant::now();
            launch(k);
            t[k].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    t.into_iter().map(quartiles).collect()
}

fn main() {
    println!("{}", cpu_features());
    let rounds = env_usize("FUSEDMM_REPS", 9).max(3);
    let n = ((1usize << 15) as f64 * scale_factor()) as usize;
    let a = rmat(&RmatConfig::new(n, 16 * n).with_seed(7));
    // `-- shapes`, `-- narrow`, `-- lookahead` (any subset) print only
    // those sections; no name prints all three.
    let named: Vec<String> = std::env::args().skip(1).filter(|s| !s.starts_with('-')).collect();
    let wants = |section: &str| named.is_empty() || named.iter().any(|s| s == section);
    if wants("shapes") {
        shape_table(&a, rounds);
    }
    if wants("narrow") {
        narrow_rows(&a, rounds);
    }
    if wants("lookahead") {
        lookahead_distances(rounds);
    }
}

/// `Blocking::Auto` and every candidate shape per `(pattern, d)` cell.
fn shape_table(a: &Csr, rounds: usize) {
    let n = a.nrows();
    let backend = active_backend();
    println!(
        "graph: RMAT n={} nnz={} | {rounds} interleaved rounds | cells: median ms ± IQR",
        a.nrows(),
        a.nnz()
    );
    // Per shape: cells it was a candidate in, cells it came within
    // spread of the best in.
    let mut standing: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for d in DIMS {
        let x = random_features(n, d, 0.5, 1);
        let y = random_features(n, d, 0.5, 2);
        let mut z = Dense::zeros(n, d);
        for (name, ops) in [
            ("spmm", OpSet::gcn()),
            ("embed", OpSet::sigmoid_embedding(None)),
            ("nce", OpSet::nce_gradient(None)),
            ("fr", OpSet::fr_model(0.4)),
            ("tdist", OpSet::tdist_embedding()),
        ] {
            let default = KernelSpec::default_for(d, backend);
            let specs = candidate_specs(backend.lanes(), d);
            let mut arms = vec![Blocking::Auto];
            arms.extend(specs.iter().copied().map(Blocking::Specialized));
            let nnz = PartitionStrategy::NnzBalanced;
            let plans: Vec<Plan> =
                arms.iter().map(|&b| Plan::with_blocking(&ops, d, b, nnz)).collect();
            let stats = interleaved(rounds, arms.len(), |k| {
                let all = Launch::All { scores: None };
                plans[k].launch(a, &x, &y, &ops, all, z.as_mut_slice());
                black_box(z.as_slice());
            });
            let iqr = |k: usize| stats[k].2 - stats[k].0;
            let best = (1..arms.len()).min_by(|&i, &j| stats[i].1.total_cmp(&stats[j].1)).unwrap();
            let dflt = 1 + specs.iter().position(|&s| s == default).expect("default ∈ candidates");
            print!("d={d:<3} {name:<5} auto {:.2}±{:.2}", stats[0].1, iqr(0));
            for (k, s) in specs.iter().enumerate() {
                let label = s.label().trim_start_matches("spec-");
                print!(" | {label} {:.2}±{:.2}", stats[k + 1].1, iqr(k + 1));
                let near = stats[k + 1].1 - stats[best].1 <= iqr(k + 1).max(iqr(best));
                let e = standing.entry(s.label()).or_default();
                e.0 += 1;
                e.1 += usize::from(near);
            }
            let (gap, spread) = (stats[dflt].1 - stats[best].1, iqr(dflt).max(iqr(best)));
            println!(
                "\n    default {} {:.2} | best {} {:.2} | gap {gap:.2} vs spread {spread:.2}: {}",
                default.label(),
                stats[dflt].1,
                specs[best - 1].label(),
                stats[best].1,
                if gap <= spread { "ok" } else { "BEHIND" },
            );
        }
    }
    println!("shapes never within spread of a cell's best (of the cells they were swept in):");
    for (label, (cells, near)) in &standing {
        if *near == 0 {
            println!("    {label}: 0 of {cells}");
        }
    }
}

/// Rows of `d ≤ 24` through the 16-lane entries vs the same bodies'
/// 8-lane entries, single-threaded, at the fallback shape (no main pass
/// fits these rows on either backend).
fn narrow_rows(a: &Csr, rounds: usize) {
    if !(Backend::Avx512.is_available() && Backend::Avx2Fma.is_available()) {
        return;
    }
    println!("narrow rows, 1 thread: 16-lane entry vs 8-lane entry, median ms ± IQR");
    let n = a.nrows();
    let backends = [Backend::Avx512, Backend::Avx2Fma];
    let spec = KernelSpec::FALLBACK;
    for d in [4usize, 8, 12, 16, 24] {
        let x = random_features(n, d, 0.5, 1);
        let y = random_features(n, d, 0.5, 2);
        let mut z = Dense::zeros(n, d);
        let spmm = interleaved(rounds, 2, |k| {
            let kern = spmm_spec_kernel(backends[k], spec);
            let zs = z.as_mut_slice();
            for u in 0..n {
                let (cols, vals) = a.row(u);
                kern(cols, vals, &y, &mut zs[u * d..(u + 1) * d]);
            }
            black_box(&zs);
        });
        let embed = interleaved(rounds, 2, |k| {
            let kern = embed_spec_kernel(backends[k], spec);
            let zs = z.as_mut_slice();
            for u in 0..n {
                let (cols, vals) = a.row(u);
                let zu = &mut zs[u * d..(u + 1) * d];
                kern(x.row(u), cols, vals, &[], &y, zu, None, &SigmoidKind::Exact);
            }
            black_box(&zs);
        });
        for (name, s) in [("spmm", spmm), ("embed", embed)] {
            println!(
                "    d={d:<2} {name:<5} avx512 {:.2}±{:.2} | avx2 {:.2}±{:.2} | ratio {:.2}",
                s[0].1,
                s[0].2 - s[0].0,
                s[1].1,
                s[1].2 - s[1].0,
                s[0].1 / s[1].1
            );
        }
    }
}

/// Distances the look-ahead section sweeps; 0 hands the kernels an
/// empty stream, which is the kernel without the prefetch.
const DISTANCES: [usize; 5] = [0, 2, 4, 6, 8];

/// The SDDMM row kernels at the default shape, the look-ahead stream
/// shifted by each of [`DISTANCES`], one thread: (1) every row of an
/// RMAT graph at the repo benchmark's training shape (2¹⁷ × 8 scaled by
/// `FUSEDMM_SCALE`; `Y` is 64 MiB at d = 128), (2) 32 random 256-row
/// slices of it, each run as one launch's worth of rows.
fn lookahead_distances(rounds: usize) {
    let n = (((1usize << 17) as f64 * scale_factor()) as usize).max(512);
    let a = rmat(&RmatConfig::new(n, 8 * n).with_seed(7));
    let backend = active_backend();
    println!(
        "lookahead, 1 thread, RMAT n={} nnz={}: distance {DISTANCES:?}, median ms ± IQR \
         (committed LOOKAHEAD = {LOOKAHEAD})",
        a.nrows(),
        a.nnz()
    );
    let committed = DISTANCES.iter().position(|&k| k == LOOKAHEAD).expect("LOOKAHEAD is swept");
    for d in [32usize, 100, 128] {
        let x = random_features(n, d, 0.5, 1);
        let y = random_features(n, d, 0.5, 2);
        // A step's shape: 256 batch vertices and their gathered rows.
        let slices: Vec<(Csr, Dense)> = (0..32usize)
            .map(|s| {
                let rows: Vec<usize> = (0..256).map(|i| (s * 7919 + i * 104_729) % n).collect();
                (slice_rows(&a, &rows).adj, gather_rows(&x, &rows))
            })
            .collect();
        let mut z = vec![0f32; n * d];
        for (name, ops) in [
            ("embed", OpSet::sigmoid_embedding(None)),
            ("nce", OpSet::nce_gradient(None)),
            ("fr", OpSet::fr_model(0.4)),
            ("tdist", OpSet::tdist_embedding()),
        ] {
            let pattern = specialize(&ops).expect("a recognized pattern");
            let spec = KernelSpec::default_for(d, backend);
            // One row through the pattern's kernel at the default shape.
            type Row<'a> = Box<dyn Fn(&[f32], &[usize], &[f32], &[usize], &mut [f32]) + 'a>;
            let y = &y;
            let row: Row<'_> = match &pattern {
                Specialized::Embed(sk) => {
                    let k = embed_spec_kernel(backend, spec);
                    Box::new(move |xu, cols, vals, ahead, zu| {
                        k(xu, cols, vals, ahead, y, zu, None, sk)
                    })
                }
                Specialized::Fr(alpha) => {
                    let (k, alpha) = (fr_spec_kernel(backend, spec), *alpha);
                    Box::new(move |xu, cols, vals, ahead, zu| {
                        k(xu, cols, vals, ahead, y, zu, None, alpha)
                    })
                }
                Specialized::TDist => {
                    let k = tdist_spec_kernel(backend, spec);
                    Box::new(move |xu, cols, vals, ahead, zu| k(xu, cols, vals, ahead, y, zu, None))
                }
                Specialized::Spmm => unreachable!("SpMM has no message fill"),
            };
            // All rows of `m`, storage order, stream shifted by `dist`
            // and running to the end of the matrix (one band).
            let sweep = |m: &Csr, xm: &Dense, z: &mut [f32], dist: usize| {
                let (rowptr, colidx) = (m.rowptr(), m.colidx());
                for u in 0..m.nrows() {
                    let (cols, vals) = m.row(u);
                    let ahead: &[usize] = match dist {
                        0 => &[],
                        k => &colidx[(rowptr[u] + k).min(colidx.len())..],
                    };
                    row(xm.row(u), cols, vals, ahead, &mut z[u * d..(u + 1) * d]);
                }
            };
            let whole = interleaved(rounds, DISTANCES.len(), |k| {
                sweep(&a, &x, &mut z, DISTANCES[k]);
                black_box(&z);
            });
            let steps = interleaved(rounds, DISTANCES.len(), |k| {
                for (m, xm) in &slices {
                    sweep(m, xm, &mut z, DISTANCES[k]);
                }
                black_box(&z);
            });
            for (what, stats) in [("graph", whole), ("steps", steps)] {
                let iqr = |k: usize| stats[k].2 - stats[k].0;
                print!("d={d:<3} {name:<5} {what}");
                for (k, dist) in DISTANCES.iter().enumerate() {
                    print!(" | {dist}: {:.2}±{:.2}", stats[k].1, iqr(k));
                }
                let best = (0..DISTANCES.len())
                    .min_by(|&i, &j| stats[i].1.total_cmp(&stats[j].1))
                    .unwrap();
                let gap = stats[committed].1 - stats[best].1;
                let spread = iqr(committed).max(iqr(best));
                println!(
                    "\n    {LOOKAHEAD} vs off {:.2}x | best {} | gap {gap:.2} vs spread {spread:.2}: {}",
                    stats[committed].1 / stats[0].1,
                    DISTANCES[best],
                    if gap <= spread { "ok" } else { "BEHIND" },
                );
            }
        }
    }
}
