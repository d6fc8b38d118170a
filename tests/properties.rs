//! Property-based tests on the substrate invariants DESIGN.md lists:
//! format round-trips, PART1D balance, SIMD-vs-scalar agreement, and
//! generator guarantees.

use proptest::prelude::*;

use fusedmm::kernel::part::{Partition, PartitionStrategy};
use fusedmm::kernel::simd;
use fusedmm::prelude::*;
use fusedmm::sparse::slice::slice_rows;

/// Strategy: a random COO matrix with shape up to 40×40.
fn arb_coo() -> impl Strategy<Value = Coo> {
    (2usize..40, 2usize..40).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, -5.0f32..5.0), 0..120)
            .prop_map(move |entries| Coo::from_entries(r, c, entries).unwrap())
    })
}

/// Strategy: a CSR matrix built straight from parts, so rows may hold
/// their columns in any order and the same column more than once.
fn arb_raw_csr() -> impl Strategy<Value = Csr> {
    (1usize..30, 1usize..30).prop_flat_map(|(r, c)| {
        let row = proptest::collection::vec((0..c, -5.0f32..5.0), 0..8);
        proptest::collection::vec(row, r..r + 1).prop_map(move |rows| {
            let mut rowptr = vec![0];
            let (mut colidx, mut values) = (Vec::new(), Vec::new());
            for row in rows {
                for (col, v) in row {
                    colidx.push(col);
                    values.push(v);
                }
                rowptr.push(colidx.len());
            }
            Csr::from_parts(r, c, rowptr, colidx, values).unwrap()
        })
    })
}

/// The transpose as a coordinate swap of every stored entry,
/// compressed with duplicates summed.
fn coo_transpose(m: &Csr) -> Csr {
    let swapped = m.to_coo().entries().iter().map(|&(r, c, v)| (c, r, v)).collect();
    Csr::from_coo(&Coo::from_entries(m.ncols(), m.nrows(), swapped).unwrap(), Dedup::Sum)
}

fn csr_bits(m: &Csr) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<u32>) {
    let values = m.values().iter().map(|v| v.to_bits()).collect();
    (m.nrows(), m.ncols(), m.rowptr().to_vec(), m.colidx().to_vec(), values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpose_is_the_coo_round_trip_bit_for_bit(m in arb_raw_csr(), coo in arb_coo()) {
        prop_assert_eq!(csr_bits(&m.transpose()), csr_bits(&coo_transpose(&m)));
        // A symmetric permutation keeps each row's original neighbour
        // order, so its rows come out unsorted.
        let n = coo.nrows().min(coo.ncols());
        let square: Vec<_> =
            coo.entries().iter().copied().filter(|&(r, c, _)| r < n && c < n).collect();
        let a = Coo::from_entries(n, n, square).unwrap().to_csr(Dedup::Sum);
        let reversed: Vec<usize> = (0..n).rev().collect();
        let p = a.permute_symmetric(&reversed, &reversed);
        prop_assert_eq!(csr_bits(&p.transpose()), csr_bits(&coo_transpose(&p)));
    }

    #[test]
    fn csr_coo_round_trip(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        let back = csr.to_coo().to_csr(Dedup::Sum);
        prop_assert_eq!(&csr, &back);
    }

    #[test]
    fn transpose_involutive(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        prop_assert_eq!(&csr.transpose().transpose(), &csr);
    }

    #[test]
    fn rows_sorted_and_in_range(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        for u in 0..csr.nrows() {
            let (cols, _) = csr.row(u);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {u} not strictly sorted");
            prop_assert!(cols.iter().all(|&c| c < csr.ncols()));
        }
    }

    #[test]
    fn dedup_sum_preserves_total_mass(coo in arb_coo()) {
        let raw_sum: f64 = coo.entries().iter().map(|&(_, _, v)| v as f64).sum();
        let csr = coo.to_csr(Dedup::Sum);
        let csr_sum: f64 = csr.values().iter().map(|&v| v as f64).sum();
        prop_assert!((raw_sum - csr_sum).abs() < 1e-3);
    }

    #[test]
    fn part1d_covers_rows_and_balances(
        coo in arb_coo(),
        parts in 1usize..12,
    ) {
        let csr = coo.to_csr(Dedup::Sum);
        let p = Partition::part1d(&csr, parts, PartitionStrategy::NnzBalanced);
        // coverage: contiguous, complete
        prop_assert_eq!(p.boundaries()[0], 0);
        prop_assert_eq!(*p.boundaries().last().unwrap(), csr.nrows());
        let covered: usize = (0..p.len()).map(|i| p.rows(i).len()).sum();
        prop_assert_eq!(covered, csr.nrows());
        // balance: each part within ideal + heaviest row
        if csr.nnz() > 0 {
            let ideal = csr.nnz() as f64 / p.len() as f64;
            for i in 0..p.len() {
                prop_assert!(
                    p.part_nnz(&csr, i) as f64 <= ideal + csr.max_degree() as f64 + 1.0
                );
            }
        }
    }

    #[test]
    fn row_slice_preserves_entries(coo in arb_coo(), pick in proptest::collection::vec(0usize..1000, 1..10)) {
        let csr = coo.to_csr(Dedup::Sum);
        let vertices: Vec<usize> = pick.into_iter().map(|p| p % csr.nrows()).collect();
        let mb = slice_rows(&csr, &vertices);
        for (i, &u) in vertices.iter().enumerate() {
            prop_assert_eq!(mb.adj.row(i), csr.row(u), "slice row {} != source row {}", i, u);
        }
    }

    #[test]
    fn simd_dot_axpy_sqdist_match_scalar(
        x in proptest::collection::vec(-3.0f32..3.0, 1..64),
        seed in 0u64..100,
    ) {
        let n = x.len();
        let y: Vec<f32> = (0..n).map(|i| ((i as u64 * 31 + seed) % 13) as f32 * 0.3 - 1.5).collect();
        let dot_scalar: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((simd::dot(&x, &y) - dot_scalar).abs() < 1e-2);

        let sq_scalar: f32 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        prop_assert!((simd::sqdist(&x, &y) - sq_scalar).abs() < 1e-2);

        let mut z = vec![0.5f32; n];
        let mut z_ref = z.clone();
        simd::axpy(0.7, &y, &mut z);
        for (zr, &yi) in z_ref.iter_mut().zip(&y) { *zr += 0.7 * yi; }
        for (a, b) in z.iter().zip(&z_ref) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn erdos_renyi_invariants(n in 4usize..60, seed in 0u64..50) {
        let m = n; // sparse enough
        let g = erdos_renyi(n, m, seed);
        prop_assert_eq!(g.nnz(), 2 * m);
        for (r, c, v) in g.iter() {
            prop_assert_ne!(r, c);
            prop_assert_eq!(v, 1.0);
            prop_assert_eq!(g.get(c, r), Some(1.0));
        }
    }

    #[test]
    fn rmat_respects_bounds(n in 16usize..200, seed in 0u64..50) {
        let g = rmat(&RmatConfig::new(n, 2 * n).with_seed(seed));
        prop_assert_eq!(g.nrows(), n);
        for (r, c, _) in g.iter() {
            prop_assert!(r < n && c < n && r != c);
        }
    }

    #[test]
    fn sigmoid_lut_error_bound(resolution in 64usize..4096) {
        let lut = SigmoidLut::new(8.0, resolution);
        // nearest-entry lookup error <= step * max-slope (1/4) + eps
        let step = 16.0 / (resolution - 1) as f32;
        prop_assert!(lut.max_error_within_bound() <= step * 0.25 + 1e-4);
    }
}

#[test]
fn matrix_market_round_trip_on_random_graph() {
    use fusedmm::sparse::io::{read_matrix_market, write_matrix_market};
    let g = rmat(&RmatConfig::new(64, 200).with_seed(8));
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &g).unwrap();
    let back = read_matrix_market(&buf[..]).unwrap().to_csr(Dedup::Sum);
    assert_eq!(back, g);
}

// ---------------------------------------------------------------------------
// SIMD backend and kernel shape agreement (the ISA dispatch sweep)
// ---------------------------------------------------------------------------

/// The dimensions the kernel sweeps run at: below every lane width
/// (1, 2, 7 — masked-tail-only rows), the widths themselves (8, 16),
/// panel-aligned serving dims (24 … 384) and 100, which ends in the
/// masked tail. On an AVX-512 machine the whole sweep runs with 16-lane
/// kernels as the active backend (8-lane ones at `d ≤ 8`).
const SWEEP_DIMS: [usize; 13] = [1, 2, 7, 8, 16, 24, 48, 64, 96, 100, 128, 192, 384];

/// Everything a launch can be asked to run at dimension `d`: the
/// default, every shape the table compiles for the active backend, and
/// the generic kernel.
fn sweep_blockings(d: usize) -> Vec<Blocking> {
    use fusedmm::kernel::genkern::candidate_specs;
    let lanes = fusedmm::kernel::active_backend().lanes();
    let mut blockings = vec![Blocking::Auto, Blocking::Generic];
    blockings.extend(candidate_specs(lanes, d).into_iter().map(Blocking::Specialized));
    blockings
}

/// Run `f` in a pool `width` threads wide: launches inside it cut one
/// PART1D part per thread.
fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap().install(f)
}

fn plan_for(ops: &OpSet, d: usize, blocking: Blocking) -> Plan {
    Plan::with_blocking(ops, d, blocking, PartitionStrategy::NnzBalanced)
}

/// `ops` under `blocking` over every row, at pool width `width`.
fn launch_at(
    width: usize,
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
) -> Dense {
    let mut z = Dense::zeros(a.nrows(), x.ncols());
    let plan = plan_for(ops, x.ncols(), blocking);
    at_width(width, || plan.launch(a, x, y, ops, Launch::All { scores: None }, z.as_mut_slice()));
    z
}

fn sweep_features(n: usize, d: usize, seed: u64) -> Dense {
    Dense::from_fn(n, d, |r, c| (((r * 131 + c * 17) as f32 + seed as f32) * 0.013).sin() * 0.3)
}

fn bits(z: &[f32]) -> Vec<u32> {
    z.iter().map(|v| v.to_bits()).collect()
}

/// Clamp an arbitrary COO into a 40×40 square with positive weights —
/// the graph shape the kernel-agreement sweeps run on.
fn square_graph(coo: &Coo) -> Csr {
    let mut square = Coo::new(40, 40);
    for &(r, c, v) in coo.entries() {
        if r < 40 && c < 40 {
            square.push(r, c, v.abs().clamp(0.1, 1.0));
        }
    }
    square.to_csr(Dedup::Sum)
}

/// What a kernel could get wrong, in 48 rows: zero-degree rows (must
/// become `+0.0`), rows longer than every message-chunk depth (first
/// chunk overwrites, later ones resume), unsorted rows, duplicate
/// columns, and edge values 0.0 and 1.0 among the rest.
fn hostile_graph() -> Csr {
    const N: usize = 48;
    let (mut rowptr, mut colidx, mut values) = (vec![0usize], Vec::new(), Vec::new());
    for u in 0..N {
        let degree = match u {
            1 => 100, // wraps the column space: duplicates, > 64
            7 => 70,
            _ if u % 6 == 0 => 0,
            _ => 1 + u % 5,
        };
        for k in 0..degree {
            colidx.push((u * 7 + k * 13) % N);
            values.push(0.25 * (k % 5) as f32);
        }
        if degree > 0 && u % 4 == 1 {
            colidx.push((u * 7) % N); // the first column again
            values.push(1.0);
        }
        rowptr.push(colidx.len());
    }
    let a = Csr::from_parts(N, N, rowptr, colidx, values).unwrap();
    assert!(a.max_degree() > 64 && (0..N).any(|u| a.row_nnz(u) == 0));
    a
}

/// Run `check(blocking, width, z)` for every [`sweep_blockings`] entry
/// at `d` at pool width 3, and for `Blocking::Auto` once more at pool
/// width `a.nrows()` (one row per PART1D part), having asserted that
/// every launch but the generic kernel's is `to_bits`-equal to the
/// width-3 `Blocking::Auto`.
fn sweep_launches(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    mut check: impl FnMut(Blocking, usize, &Dense),
) {
    let d = x.ncols();
    let auto = bits(launch_at(3, a, x, y, ops, Blocking::Auto).as_slice());
    let widths = sweep_blockings(d).into_iter().map(|b| (b, 3));
    for (blocking, width) in widths.chain([(Blocking::Auto, a.nrows())]) {
        let z = launch_at(width, a, x, y, ops, blocking);
        if blocking != Blocking::Generic {
            assert!(
                bits(z.as_slice()) == auto,
                "{:?}/{:?} {blocking:?} width={width} d={d}: differs from Auto in some bit",
                ops.pattern,
                ops.sop
            );
        }
        check(blocking, width, &z);
    }
}

/// [`sweep_launches`], with every launch — the generic kernel included
/// — also within `tol` (relative to the result's magnitude) of the
/// naive reference.
fn sweep_against_reference(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet, tol: f32) {
    let reference = fusedmm_reference(a, x, y, ops);
    let scale = 1.0 + reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    sweep_launches(a, x, y, ops, |blocking, width, z| {
        assert!(
            z.max_abs_diff(&reference) < tol * scale,
            "{:?}/{:?} {blocking:?} width={width} d={}: diff {}",
            ops.pattern,
            ops.sop,
            x.ncols(),
            z.max_abs_diff(&reference)
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simd_backends_match_scalar_within_1e5(seed in 0u64..500) {
        use fusedmm::kernel::simd::{axpy_with, dot_with, sqdist_with};
        for d in SWEEP_DIMS {
            let x: Vec<f32> =
                (0..d).map(|i| (((i as u64 * 29 + seed) % 97) as f32 * 0.01).sin() * 0.5).collect();
            let y: Vec<f32> =
                (0..d).map(|i| (((i as u64 * 43 + seed) % 89) as f32 * 0.011).cos() * 0.5).collect();
            let dot_ref = dot_with(Backend::Scalar, &x, &y);
            let sq_ref = sqdist_with(Backend::Scalar, &x, &y);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                prop_assert!((dot_with(b, &x, &y) - dot_ref).abs() < 1e-5, "dot {b} d={d}");
                prop_assert!((sqdist_with(b, &x, &y) - sq_ref).abs() < 1e-5, "sqdist {b} d={d}");
                let mut z = vec![0.1f32; d];
                let mut z_ref = vec![0.1f32; d];
                axpy_with(b, 0.8, &y, &mut z);
                axpy_with(Backend::Scalar, 0.8, &y, &mut z_ref);
                for k in 0..d {
                    prop_assert!((z[k] - z_ref[k]).abs() < 1e-5, "axpy {b} d={d} lane {k}");
                }
            }
        }
    }

    /// Every way of running a recognized pattern agrees: all shapes of
    /// the kernel table and a one-row-per-part launch with
    /// `Blocking::Auto` bit for bit ([`sweep_launches`]), and all of
    /// them — the generic kernel included — with the naive reference
    /// within tolerance, at every sweep dimension.
    #[test]
    fn blocking_levels_agree_across_serving_dims(coo in arb_coo(), seed in 0u64..100) {
        let a = square_graph(&coo);
        for d in SWEEP_DIMS {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            for (ops, tol) in [
                (OpSet::sigmoid_embedding(None), 1e-5f32),
                (OpSet::gcn(), 1e-5),
                (OpSet::tdist_embedding(), 1e-5),
                // sqrt amplifies association differences near zero
                (OpSet::fr_model(0.4), 1e-4),
            ] {
                sweep_against_reference(&a, &x, &y, &ops, tol);
            }
        }
    }

    /// The same sweep on a graph with empty rows, a hub and rows that
    /// outlast every message chunk ([`hostile_graph`]), with the
    /// table-lookup sigmoid among the patterns — including `d` below
    /// the lane width.
    #[test]
    fn specialized_table_and_hybrid_cover_odd_dims(seed in 0u64..100) {
        let a = hostile_graph();
        let lut = std::sync::Arc::new(SigmoidLut::default_table());
        for d in SWEEP_DIMS {
            let x = sweep_features(a.nrows(), d, seed);
            let y = sweep_features(a.nrows(), d, seed + 7);
            for (ops, tol) in [
                (OpSet::sigmoid_embedding(None), 1e-5f32),
                // A table lookup can land one entry off when the dot
                // product differs in its last bits: one table step of
                // slack per edge.
                (OpSet::sigmoid_embedding(Some(lut.clone())), 2e-3),
                (OpSet::gcn(), 1e-5),
                (OpSet::fr_model(0.4), 1e-4),
            ] {
                sweep_against_reference(&a, &x, &y, &ops, tol);
            }
        }
    }

    /// The labelled NCE-gradient SOP `σ(s) − a_uv` runs the recognized
    /// sigmoid kernels: every shape on the active backend agrees with
    /// the naive reference — on a
    /// step-matrix-shaped operand: mixed 0/1 edge values, unsorted
    /// rows, and the same column under both labels.
    #[test]
    fn nce_gradient_agrees_on_labelled_rows_with_duplicate_columns(
        coo in arb_coo(),
        seed in 0u64..100,
    ) {
        // Entries in arrival order, label by sign; every non-empty row
        // then repeats its first column under the opposite label.
        let mut rows: Vec<Vec<(usize, f32)>> = vec![Vec::new(); 40];
        for &(r, c, v) in coo.entries() {
            if r < 40 && c < 40 {
                rows[r].push((c, if v > 0.0 { 1.0 } else { 0.0 }));
            }
        }
        let (mut rowptr, mut colidx, mut labels) = (vec![0usize], Vec::new(), Vec::new());
        for row in &mut rows {
            if let Some(&(c, label)) = row.first() {
                row.push((c, 1.0 - label));
            }
            colidx.extend(row.iter().map(|e| e.0));
            labels.extend(row.iter().map(|e| e.1));
            rowptr.push(colidx.len());
        }
        let a = Csr::from_parts(40, 40, rowptr, colidx, labels).unwrap();
        let lut = std::sync::Arc::new(SigmoidLut::default_table());
        for d in SWEEP_DIMS {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            // One table step of slack per edge for the lookup, as above.
            for (ops, tol) in [
                (OpSet::nce_gradient(None), 1e-5f32),
                (OpSet::nce_gradient(Some(lut.clone())), 2e-3),
            ] {
                sweep_against_reference(&a, &x, &y, &ops, tol);
            }
        }
    }
}

/// The overwrite contract of [`Plan::launch`]: every row of a
/// caller-owned output is written on every call and nothing it held is
/// read. For every recognized pattern (and the generic fallback), every
/// sweep dimension and everything a launch can be asked to run — each
/// shape of the kernel table and one row per PART1D part included —
/// running into a NaN-filled `z` leaves exactly the bits of the
/// allocating call, on [`hostile_graph`]. Runs on whichever backend is
/// active, so each forced-backend CI arm checks its own.
#[test]
fn into_on_a_poisoned_output_equals_the_allocating_call_bit_for_bit() {
    let a = hostile_graph();
    let n = a.nrows();
    let lut = std::sync::Arc::new(SigmoidLut::default_table());
    let generic_only = {
        use fusedmm::ops::{AOp, MOp, ROp, SOp, VOp};
        OpSet::custom(VOp::Add, ROp::Max, SOp::Relu, MOp::Mul, AOp::Max)
    };
    let opsets = [
        OpSet::gcn(),
        OpSet::sigmoid_embedding(None),
        OpSet::sigmoid_embedding(Some(lut.clone())),
        OpSet::nce_gradient(None),
        OpSet::fr_model(0.4),
        OpSet::tdist_embedding(),
        generic_only,
    ];
    for d in SWEEP_DIMS {
        let x = sweep_features(n, d, 3);
        let y = sweep_features(n, d, 11);
        for ops in &opsets {
            sweep_launches(&a, &x, &y, ops, |blocking, width, want| {
                let mut z = vec![f32::NAN; n * d];
                let plan = plan_for(ops, d, blocking);
                at_width(width, || {
                    plan.launch(&a, &x, &y, ops, Launch::All { scores: None }, &mut z)
                });
                assert!(
                    bits(&z) == bits(want.as_slice()),
                    "{:?}/{:?} {blocking:?} d={d}: _into on a poisoned z differs",
                    ops.pattern,
                    ops.sop
                );
                for u in (0..n).filter(|&u| a.row_nnz(u) == 0) {
                    assert!(
                        z[u * d..(u + 1) * d].iter().all(|v| v.to_bits() == 0),
                        "{:?} {blocking:?} d={d}: empty row {u} is not +0.0",
                        ops.pattern
                    );
                }
            });
        }
    }
}

/// [`Launch::Rows`] reads a band in place, and each row it writes is
/// the [`Launch::All`] row: for every pattern (the generic kernel's
/// included), everything a launch can be asked to run and every sweep
/// dimension, rows of a band of [`hostile_graph`] at an offset —
/// requested unsorted and repeated, zero-degree rows and a 70-long row
/// among them — come out `to_bits`-equal to the whole-graph launch's
/// rows, into a NaN-poisoned `z`, whether `x` is the whole matrix
/// (`x_start = 0`) or exactly the band (`x_start = start`). At the
/// widest dimensions the id list is also repeated until the launch is
/// big enough for the pool, which cuts it by nonzeros. Runs on
/// whichever backend is active, so each forced-backend CI arm checks
/// its own.
#[test]
fn row_launches_read_the_band_in_place_and_equal_the_all_launch_bit_for_bit() {
    let a = hostile_graph();
    let n = a.nrows();
    let (lo, hi) = (5usize, 41usize);
    let band = a.row_band(lo..hi);
    let ids = [40usize, 7, 6, 7, 23, 5, 12, 33, 40, 18, 9];
    assert!(ids.iter().any(|&u| a.row_nnz(u) == 0) && ids.contains(&7));
    let lut = std::sync::Arc::new(SigmoidLut::default_table());
    let generic_only = {
        use fusedmm::ops::{AOp, MOp, ROp, SOp, VOp};
        OpSet::custom(VOp::Add, ROp::Max, SOp::Relu, MOp::Mul, AOp::Max)
    };
    let opsets = [
        OpSet::gcn(),
        OpSet::sigmoid_embedding(None),
        OpSet::sigmoid_embedding(Some(lut)),
        OpSet::nce_gradient(None),
        OpSet::fr_model(0.4),
        OpSet::tdist_embedding(),
        generic_only,
    ];
    for d in SWEEP_DIMS {
        let x = sweep_features(n, d, 5);
        let y = sweep_features(n, d, 13);
        let x_band = Dense::from_rows(hi - lo, d, &x.as_slice()[lo * d..hi * d]).unwrap();
        // Repeated until `nnz × d` is past the inline threshold.
        let pooled: Vec<usize> = ids.iter().copied().cycle().take(4096).collect();
        for ops in &opsets {
            for blocking in sweep_blockings(d) {
                let plan = plan_for(ops, d, blocking);
                let all = launch_at(3, &a, &x, &y, ops, blocking);
                let mut lists: Vec<&[usize]> = vec![&ids];
                if d >= 192 && blocking == Blocking::Auto {
                    lists.push(&pooled);
                }
                for (xs, x_start) in [(&x, 0), (&x_band, lo)] {
                    for &list in &lists {
                        let mut z = vec![f32::NAN; list.len() * d];
                        let rows = Launch::Rows { ids: list, start: lo, x_start, top_k: None };
                        at_width(3, || plan.launch(&band, xs, &y, ops, rows, &mut z));
                        for (i, &u) in list.iter().enumerate() {
                            assert!(
                                bits(&z[i * d..(i + 1) * d]) == bits(all.row(u)),
                                "{:?}/{:?} {blocking:?} d={d} x_start={x_start} \
                                 {} ids: row {u} differs from the All launch",
                                ops.pattern,
                                ops.sop,
                                list.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The score sink of [`Launch::All`]: for the SDDMM patterns,
/// at dimensions on both sides of every lane width, for everything a
/// launch can be asked to run and for one band, a few and one per row,
/// a NaN-filled `scores` comes back with every slot finite and the same
/// bits whatever the shape or the partition; the
/// generic kernel's scores (the oracle: `ROP(VOP(x_u, y_v))` computed
/// step by step) agree within the sweep's tolerance; and `z` is the
/// unscored launch's `z`, bit for bit. On [`hostile_graph`] as it is
/// (last row non-empty: its look-ahead stream is clamped at the end of
/// `colidx`) and with its last row emptied. The scalars themselves are
/// pinned by hash on the x86 backends, which is what makes AVX2 ≡
/// AVX-512 a checked statement across the forced-backend CI arms.
#[test]
fn scored_launches_overwrite_every_slot_and_leave_z_alone() {
    const DIMS: [usize; 7] = [1, 7, 8, 48, 100, 128, 384];
    // FNV of the scores at d = 100 on the unmodified graph, exact
    // binary-fraction features: the dot products, then the norms.
    const PINNED: [u64; 2] = [0x79d7781a2530e20d, 0x5c3f125e683632c0];
    let exact_features = |n: usize, d: usize, seed: usize| {
        Dense::from_fn(n, d, |r, c| ((r * 131 + c * 17 + seed * 29) % 257) as f32 / 256.0 - 0.5)
    };
    let lut = std::sync::Arc::new(SigmoidLut::default_table());
    let opsets = [
        (OpSet::sigmoid_embedding(None), 0usize, 1e-5f32),
        (OpSet::sigmoid_embedding(Some(lut.clone())), 0, 1e-5),
        (OpSet::nce_gradient(None), 0, 1e-5),
        // sqrt amplifies association differences near zero
        (OpSet::fr_model(0.4), 1, 1e-4),
        (OpSet::tdist_embedding(), 1, 1e-4),
    ];
    let last_row_empty = {
        let a = hostile_graph();
        let (mut rowptr, mut colidx, mut values) = a.clone().into_parts();
        let n = a.nrows();
        rowptr[n] = rowptr[n - 1];
        colidx.truncate(rowptr[n]);
        values.truncate(rowptr[n]);
        Csr::from_parts(n, n, rowptr, colidx, values).unwrap()
    };
    let backend = fusedmm::kernel::active_backend();
    let pinned = matches!(backend, Backend::Avx2Fma | Backend::Avx512);
    for (which, a) in [hostile_graph(), last_row_empty].iter().enumerate() {
        assert_eq!(a.row_nnz(a.nrows() - 1) == 0, which == 1);
        let n = a.nrows();
        for d in DIMS {
            let x = exact_features(n, d, 3);
            let y = exact_features(n, d, 11);
            for (ops, class, tol) in &opsets {
                let mut kernel_scores: Option<Vec<f32>> = None;
                let mut generic_scores: Option<Vec<f32>> = None;
                for blocking in sweep_blockings(d) {
                    let plan = plan_for(ops, d, blocking);
                    for parts in [1usize, 3, 300] {
                        let what = format!(
                            "{:?}/{:?} {blocking:?} d={d} parts={parts}",
                            ops.pattern, ops.sop
                        );
                        let plain = launch_at(parts, a, &x, &y, ops, blocking);
                        let mut z = vec![f32::NAN; n * d];
                        let mut scores = vec![f32::NAN; a.nnz()];
                        let scored = Launch::All { scores: Some(&mut scores) };
                        at_width(parts, || plan.launch(a, &x, &y, ops, scored, &mut z));
                        assert!(bits(&z) == bits(plain.as_slice()), "{what}: the sink moved z");
                        assert!(scores.iter().all(|s| s.is_finite()), "{what}: a slot was skipped");
                        let family = if blocking == Blocking::Generic {
                            &mut generic_scores
                        } else {
                            &mut kernel_scores
                        };
                        let first = family.get_or_insert_with(|| scores.clone());
                        assert!(bits(&scores) == bits(first), "{what}: scores moved");
                    }
                }
                let (kernel, generic) = (kernel_scores.unwrap(), generic_scores.unwrap());
                let scale = 1.0 + kernel.iter().fold(0.0f32, |m, s| m.max(s.abs()));
                for (e, (k, g)) in kernel.iter().zip(&generic).enumerate() {
                    assert!(
                        (k - g).abs() < tol * scale,
                        "{:?} d={d} edge {e}: {k} vs {g}",
                        ops.pattern
                    );
                }
                if pinned && which == 0 && d == 100 {
                    assert_eq!(fnv(&kernel), PINNED[*class], "{:?} on {backend}", ops.pattern);
                }
            }
        }
    }
}

/// A scored launch of a pattern with no ROP has nothing to hand back.
#[test]
#[should_panic(expected = "needs a scalar per edge")]
fn scored_launch_of_spmm_is_rejected() {
    let a = hostile_graph();
    let x = sweep_features(a.nrows(), 8, 1);
    let mut z = vec![0f32; a.nrows() * 8];
    let mut scores = vec![0f32; a.nnz()];
    let scored = Launch::All { scores: Some(&mut scores) };
    Plan::prepare(&OpSet::gcn(), 8).launch(&a, &x, &x, &OpSet::gcn(), scored, &mut z);
}

/// FNV-1a over the output's `to_bits`, little-endian.
fn fnv(z: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in z {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Bits pinned across the commit that deleted the const / strip / dyn
/// kernel levels. The hashes were recorded at its parent (2007abf) from
/// the strip-mined level's output — one table, because AVX2 and AVX-512
/// are bit-identical — on [`hostile_graph`] with features that are exact
/// binary fractions (no libm in the inputs), at d ∈ {48, 96, 128, 192}.
/// `Blocking::Auto` and every shape of the kernel table must still
/// produce them on either x86 backend; other backends (whose fused
/// multiply-add rounds differently) assert shape ≡ shape only.
#[test]
fn kernel_bits_are_stable_across_the_one_family_collapse() {
    use fusedmm::kernel::genkern::candidate_specs;

    const DIMS: [usize; 4] = [48, 96, 128, 192];
    let golden: [(OpSet, [u64; 4]); 5] = [
        (
            OpSet::gcn(),
            [0x0fa705f1cf876741, 0x31017f2838325f1e, 0x3793c0a783676194, 0xd14da74fa6197982],
        ),
        (
            OpSet::sigmoid_embedding(None),
            [0x1564e4ce30236ba3, 0xe97759b5cdc84ce8, 0x69361fb484eb5245, 0x1a8c43acd1fe5f1f],
        ),
        (
            OpSet::nce_gradient(None),
            [0x2d47ecdbcc62a2b9, 0x2c4ef76d4fa75612, 0x9d69b8b551d05942, 0xd276d503821a222c],
        ),
        (
            OpSet::fr_model(0.4),
            [0xf0abd3dbb71232aa, 0x9c7737958a83b9cb, 0xdd1b73f59af196ab, 0x39afeea379721d57],
        ),
        (
            OpSet::tdist_embedding(),
            [0x5f99cce78f19ec66, 0x90d35afb7eb95829, 0x6496cfe3cc97531d, 0x3788e93e677c8d54],
        ),
    ];
    let exact_features = |n: usize, d: usize, seed: usize| {
        Dense::from_fn(n, d, |r, c| ((r * 131 + c * 17 + seed * 29) % 257) as f32 / 256.0 - 0.5)
    };
    let a = hostile_graph();
    let backend = fusedmm::kernel::active_backend();
    let pinned = matches!(backend, Backend::Avx2Fma | Backend::Avx512);
    for (ops, hashes) in &golden {
        for (d, &want) in DIMS.into_iter().zip(hashes) {
            let x = exact_features(a.nrows(), d, 3);
            let y = exact_features(a.nrows(), d, 11);
            let run = |blocking| fnv(launch_at(3, &a, &x, &y, ops, blocking).as_slice());
            let auto = run(Blocking::Auto);
            if pinned {
                assert_eq!(auto, want, "{:?} d={d} on {backend}: Auto moved", ops.pattern);
            }
            for spec in candidate_specs(backend.lanes(), d) {
                let got = run(Blocking::Specialized(spec));
                assert_eq!(got, auto, "{:?} d={d} on {backend}: {}", ops.pattern, spec.label());
            }
        }
    }
}

/// The shape a launch runs is a rule, not a measurement: on every
/// backend (both lane widths) and at every `d`, the default is a grid
/// point and one of the candidates the shape-table bench sweeps.
#[test]
fn the_default_shape_is_a_candidate_at_every_dim_and_lane_width() {
    use fusedmm::kernel::genkern::{candidate_specs, KernelSpec};
    let mut lane_widths: Vec<usize> = Backend::ALL.iter().map(|b| b.lanes()).collect();
    lane_widths.sort_unstable();
    lane_widths.dedup();
    assert_eq!(lane_widths, [8, 16]);
    for &b in Backend::ALL.iter() {
        for d in 1..=520usize {
            let s = KernelSpec::default_for(d, b);
            assert_eq!(KernelSpec::new(s.main_panels() as u8), Some(s));
            assert!(
                candidate_specs(b.lanes(), d).contains(&s),
                "default {} is not a candidate on {b} at d={d}",
                s.label()
            );
        }
    }
}

/// The converse — the grid is the rule: the table compiles only shapes
/// the rule picks. Every grid point is the default at some `d` on an
/// 8-lane or a 16-lane backend, only grid points construct, each reads
/// `spec-m{M}`, and the bench sweeps the shapes whose main pass fits
/// `d` (the fallback alone where none does).
#[test]
fn every_compiled_shape_is_the_default_somewhere() {
    use fusedmm::kernel::genkern::table::MAIN_GRID;
    use fusedmm::kernel::genkern::{candidate_specs, KernelSpec};
    let defaults: std::collections::HashSet<KernelSpec> = [Backend::Avx2Fma, Backend::Avx512]
        .into_iter()
        .flat_map(|b| (1..=520usize).map(move |d| KernelSpec::default_for(d, b)))
        .collect();
    for m in 0..=u8::MAX {
        let spec = KernelSpec::new(m);
        assert_eq!(spec.is_some(), MAIN_GRID.contains(&m), "m{m}: grid membership");
        if let Some(s) = spec {
            assert!(defaults.contains(&s), "{} is compiled but no default", s.label());
            assert_eq!(s.label(), format!("spec-m{m}"));
        }
    }
    assert_eq!(KernelSpec::FALLBACK.label(), "spec-m4");
    for lanes in [8, 16] {
        for d in 1..=520usize {
            let fitting: Vec<usize> =
                MAIN_GRID.iter().map(|&m| m as usize).filter(|m| m * lanes <= d).collect();
            let swept: Vec<usize> =
                candidate_specs(lanes, d).iter().map(|s| s.main_panels()).collect();
            let want =
                if fitting.is_empty() { vec![KernelSpec::FALLBACK.main_panels()] } else { fitting };
            assert_eq!(swept, want, "lanes={lanes} d={d}");
        }
    }
}

#[test]
fn active_backend_is_reported_and_available() {
    let report = fusedmm::kernel::cpu_features();
    assert!(report.backend.is_available());
    assert_eq!(report.backend, fusedmm::kernel::active_backend());
    // FUSEDMM_FORCE_BACKEND must be honored when the CPU can run the
    // request (`scalar` always can; each name is a dedicated CI matrix
    // arm) and recorded as refused when it cannot.
    let request = std::env::var("FUSEDMM_FORCE_BACKEND").unwrap_or_default();
    let named = Backend::ALL
        .iter()
        .find(|b| b.label().trim_end_matches("+fma") == request.trim().to_ascii_lowercase());
    if let Some(&named) = named {
        if named.is_available() {
            assert_eq!(report.backend, named);
            assert_eq!(report.forced_unavailable, None);
        } else {
            assert_eq!(report.forced_unavailable, Some(named));
        }
    }
}
