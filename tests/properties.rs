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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_coo_round_trip(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        let back = csr.to_coo().to_csr(Dedup::Sum);
        prop_assert_eq!(&csr, &back);
    }

    #[test]
    fn csc_round_trip(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        prop_assert_eq!(&csr.to_csc().to_csr(), &csr);
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
// SIMD backend and kernel blocking agreement (the ISA dispatch sweep)
// ---------------------------------------------------------------------------

/// The dimensions the dispatch rework targets: generated const dims
/// (8), strip-minable serving dims (24/48/96/192/384) — all multiples
/// of 8 so every blocking level below is eligible. On an AVX-512
/// machine the whole sweep runs with 16-lane kernels as the active
/// backend, so these cases double as the AVX-512 agreement sweep.
const SWEEP_DIMS: [usize; 6] = [8, 24, 48, 96, 192, 384];

/// Odd dimensions the strip-mined family rejects; only the plan-time
/// specialized table (masked-tail panels) and the dyn/generic levels
/// accept them.
const ODD_DIMS: [usize; 2] = [7, 100];

fn sweep_features(n: usize, d: usize, seed: u64) -> Dense {
    Dense::from_fn(n, d, |r, c| (((r * 131 + c * 17) as f32 + seed as f32) * 0.013).sin() * 0.3)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simd_backends_match_scalar_within_1e5(seed in 0u64..500) {
        use fusedmm::kernel::simd::{axpy_with, dot_with, sqdist_with};
        for d in SWEEP_DIMS.into_iter().chain(ODD_DIMS) {
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

    #[test]
    fn blocking_levels_agree_across_serving_dims(coo in arb_coo(), seed in 0u64..100) {
        use fusedmm::kernel::fusedmm_opt_with;
        use fusedmm::kernel::genkern::GENERATED_DIMS;
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
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let scale = 1.0 + reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let mut blockings =
                    vec![Blocking::Auto, Blocking::DynStrips, Blocking::StripMined];
                if GENERATED_DIMS.contains(&d) {
                    blockings.push(Blocking::RegisterBlocked);
                }
                for blocking in blockings {
                    let z = fusedmm_opt_with(
                        &a, &x, &y, &ops, blocking, Some(3), PartitionStrategy::NnzBalanced,
                    );
                    prop_assert!(
                        z.max_abs_diff(&reference) < tol * scale,
                        "{:?} {:?} d={}: diff {}",
                        ops.pattern, blocking, d, z.max_abs_diff(&reference)
                    );
                }
            }
        }
    }

    /// The plan-time specialized table and the hybrid executor accept
    /// every dimension — including odd ones the strip family rejects —
    /// and agree with the naive reference for every candidate shape on
    /// the active (on this machine: widest available) backend.
    #[test]
    fn specialized_table_and_hybrid_cover_odd_dims(coo in arb_coo(), seed in 0u64..100) {
        use fusedmm::kernel::fusedmm_opt_with;
        use fusedmm::kernel::genkern::candidate_specs;
        use fusedmm::kernel::simd::active_backend;
        let a = square_graph(&coo);
        let lanes = active_backend().lanes();
        for d in SWEEP_DIMS.into_iter().chain(ODD_DIMS) {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            for (ops, tol) in [
                (OpSet::sigmoid_embedding(None), 1e-5f32),
                (OpSet::gcn(), 1e-5),
                (OpSet::fr_model(0.4), 1e-4),
            ] {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let scale = 1.0 + reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let mut blockings: Vec<Blocking> = candidate_specs(lanes, d, true)
                    .into_iter()
                    .map(Blocking::Specialized)
                    .collect();
                // Hybrid routes through the same specialized shapes per
                // degree class (short/strip/mega) at strip *and* dyn
                // resolved levels, so odd d exercises its masked tails.
                blockings.push(Blocking::Hybrid(HybridConfig::default()));
                for blocking in blockings {
                    let z = fusedmm_opt_with(
                        &a, &x, &y, &ops, blocking, Some(3), PartitionStrategy::NnzBalanced,
                    );
                    prop_assert!(
                        z.max_abs_diff(&reference) < tol * scale,
                        "{:?} {:?} d={}: diff {}",
                        ops.pattern, blocking, d, z.max_abs_diff(&reference)
                    );
                }
            }
        }
    }

    /// The labelled NCE-gradient SOP `σ(s) − a_uv` runs the recognized
    /// sigmoid kernels: every level the dimension admits, every
    /// candidate shape on the active backend and the hybrid executor
    /// (default thresholds, and thresholds low enough that a 40-row
    /// graph has short, strip *and* mega rows) agree with the naive
    /// reference — on a step-matrix-shaped operand: mixed 0/1 edge
    /// values, unsorted rows, and the same column under both labels.
    #[test]
    fn nce_gradient_agrees_on_labelled_rows_with_duplicate_columns(
        coo in arb_coo(),
        seed in 0u64..100,
    ) {
        use fusedmm::kernel::fusedmm_opt_with;
        use fusedmm::kernel::genkern::{candidate_specs, GENERATED_DIMS};
        use fusedmm::kernel::simd::active_backend;
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
        let lanes = active_backend().lanes();
        let lut = std::sync::Arc::new(SigmoidLut::default_table());
        // The mega threshold is `max(mega_floor, nnz / parts)`: only a
        // fine partition lets it come down to `mega_floor` here.
        let all_classes = HybridConfig { short_max: 3, mega_floor: 6 };
        for d in SWEEP_DIMS.into_iter().chain([128]).chain(ODD_DIMS) {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            let mut blockings = vec![
                Blocking::Auto,
                Blocking::DynStrips,
                Blocking::Hybrid(HybridConfig::default()),
                Blocking::Hybrid(all_classes),
            ];
            if d.is_multiple_of(8) {
                blockings.push(Blocking::StripMined);
            }
            if GENERATED_DIMS.contains(&d) {
                blockings.push(Blocking::RegisterBlocked);
            }
            blockings.extend(candidate_specs(lanes, d, true).into_iter().map(Blocking::Specialized));
            // A table lookup can land one entry off when the dot product
            // differs in its last bits: one table step of slack per edge.
            for (ops, tol) in [
                (OpSet::nce_gradient(None), 1e-5f32),
                (OpSet::nce_gradient(Some(lut.clone())), 2e-3),
            ] {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let scale = 1.0 + reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for &blocking in &blockings {
                    let parts = if blocking == Blocking::Hybrid(all_classes) { 40 } else { 3 };
                    let z = fusedmm_opt_with(
                        &a, &x, &y, &ops, blocking, Some(parts), PartitionStrategy::NnzBalanced,
                    );
                    prop_assert!(
                        z.max_abs_diff(&reference) < tol * scale,
                        "{:?} {:?} d={}: diff {}",
                        ops.sop, blocking, d, z.max_abs_diff(&reference)
                    );
                }
            }
        }
    }
}

/// The overwrite contract of the `_into` entry points: every row of a
/// caller-owned output is written on every call and nothing it held is
/// read. For every recognized pattern (and the generic fallback), every
/// dimension class, every blocking level the dimension admits — each
/// candidate shape of the specialized table and both hybrid
/// configurations included — running into a NaN-filled `z` leaves
/// exactly the bits of the allocating call. The matrix has what a
/// kernel could get wrong: zero-degree rows (must become `+0.0`), rows
/// longer than every message-chunk depth (first chunk overwrites, later
/// ones resume), unsorted rows and duplicate columns. Runs on whichever
/// backend is active, so each forced-backend CI arm checks its own.
#[test]
fn into_on_a_poisoned_output_equals_the_allocating_call_bit_for_bit() {
    use fusedmm::kernel::genkern::{candidate_specs, GENERATED_DIMS};
    use fusedmm::kernel::simd::active_backend;
    use fusedmm::kernel::{fusedmm_opt_into, fusedmm_opt_with};

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
            values.push(0.25 * (k % 5) as f32); // 0.0 and 1.0 among them
        }
        if degree > 0 && u % 4 == 1 {
            colidx.push((u * 7) % N); // the first column again
            values.push(1.0);
        }
        rowptr.push(colidx.len());
    }
    let a = Csr::from_parts(N, N, rowptr, colidx, values).unwrap();
    assert!(a.max_degree() > 64 && (0..N).any(|u| a.row_nnz(u) == 0));

    let lanes = active_backend().lanes();
    let lut = std::sync::Arc::new(SigmoidLut::default_table());
    let all_classes = HybridConfig { short_max: 3, mega_floor: 6 };
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
    let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for d in SWEEP_DIMS.into_iter().chain([128]).chain(ODD_DIMS) {
        let x = sweep_features(N, d, 3);
        let y = sweep_features(N, d, 11);
        let mut blockings = vec![
            Blocking::Auto,
            Blocking::DynStrips,
            Blocking::Generic,
            Blocking::Hybrid(HybridConfig::default()),
            Blocking::Hybrid(all_classes),
        ];
        if d.is_multiple_of(8) {
            blockings.push(Blocking::StripMined);
        }
        if GENERATED_DIMS.contains(&d) {
            blockings.push(Blocking::RegisterBlocked);
        }
        blockings.extend(candidate_specs(lanes, d, true).into_iter().map(Blocking::Specialized));
        for ops in &opsets {
            for &blocking in &blockings {
                // `nnz / parts` bounds the mega threshold from below.
                let parts = Some(if blocking == Blocking::Hybrid(all_classes) { N } else { 3 });
                let strategy = PartitionStrategy::NnzBalanced;
                let want = fusedmm_opt_with(&a, &x, &y, ops, blocking, parts, strategy);
                let mut z = vec![f32::NAN; N * d];
                fusedmm_opt_into(&a, &x, &y, ops, blocking, parts, strategy, &mut z);
                assert!(
                    bits(&z) == bits(want.as_slice()),
                    "{:?}/{:?} {blocking:?} d={d}: _into on a poisoned z differs",
                    ops.pattern,
                    ops.sop
                );
                for u in (0..N).filter(|&u| a.row_nnz(u) == 0) {
                    assert!(
                        z[u * d..(u + 1) * d].iter().all(|v| v.to_bits() == 0),
                        "{:?} {blocking:?} d={d}: empty row {u} is not +0.0",
                        ops.pattern
                    );
                }
            }
        }
    }
}

#[test]
fn active_backend_is_reported_and_available() {
    let report = fusedmm::kernel::cpu_features();
    assert!(report.backend.is_available());
    // FUSEDMM_FORCE_SCALAR must pin the scalar backend (exercised as a
    // dedicated CI matrix arm; here we only check consistency).
    if report.forced_scalar {
        assert_eq!(report.backend, Backend::Scalar);
    }
}
