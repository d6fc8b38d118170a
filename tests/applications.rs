//! Integration tests over the end-to-end applications: the paper's
//! §V-D claims at test scale — backends agree, training converges,
//! embeddings classify, GCN aggregates, layout separates.

use fusedmm::apps::classify::{ClassifierConfig, SoftmaxRegression};
use fusedmm::apps::force2vec::{Backend, Force2Vec, Force2VecConfig, SPLIT_STEP_WORK};
use fusedmm::apps::frlayout::{FrLayout, FrLayoutConfig};
use fusedmm::apps::gcn::{normalize_adjacency, Gcn2};
use fusedmm::apps::gnn_mlp::GnnMlpLayer;
use fusedmm::apps::metrics::{accuracy, f1_micro};
use fusedmm::prelude::*;

fn cfg(backend: Backend, epochs: usize) -> Force2VecConfig {
    Force2VecConfig { dim: 32, batch_size: 32, epochs, lr: 0.03, negatives: 4, seed: 11, backend }
}

#[test]
fn force2vec_backends_reach_identical_embeddings() {
    // The Table VIII setup at toy scale: same seed, three backends,
    // same trajectory.
    let g = planted_partition(80, 3, 6.0, 1.0, 2).adj;
    let fused = Force2Vec::new(g.clone(), cfg(Backend::Fused, 4)).train();
    let unfused = Force2Vec::new(g.clone(), cfg(Backend::Unfused, 4)).train();
    let dense = Force2Vec::new(g, cfg(Backend::DenseTensor, 4)).train();
    assert!(fused.embedding.max_abs_diff(&unfused.embedding) < 5e-3);
    assert!(fused.embedding.max_abs_diff(&dense.embedding) < 5e-3);
}

#[test]
fn fused_embedding_classifies_planted_communities() {
    // The accuracy experiment: embeddings -> logistic regression -> F1.
    let g = planted_partition(120, 3, 8.0, 1.0, 4);
    let result = Force2Vec::new(g.adj.clone(), cfg(Backend::Fused, 40)).train();
    let (train, test) = g.train_test_split(0.5, 9);
    let model = SoftmaxRegression::train(
        &result.embedding,
        &g.labels,
        &train,
        g.k,
        &ClassifierConfig::default(),
    );
    let pred = model.predict(&result.embedding, &test);
    let truth: Vec<usize> = test.iter().map(|&v| g.labels[v]).collect();
    let f1 = f1_micro(&truth, &pred, g.k);
    assert!(f1 > 0.6, "F1 {f1} too low for a strongly assortative graph");
    // single-label micro-F1 == accuracy
    assert!((f1 - accuracy(&truth, &pred)).abs() < 1e-12);
}

#[test]
fn fused_and_unfused_training_give_equal_f1() {
    // §V-D: "the original Force2Vec and FusedMM-based Force2Vec both
    // achieve the same F1-micro scores".
    let g = planted_partition(90, 3, 8.0, 1.0, 6);
    let (train, test) = g.train_test_split(0.5, 3);
    let truth: Vec<usize> = test.iter().map(|&v| g.labels[v]).collect();
    let mut scores = Vec::new();
    for backend in [Backend::Fused, Backend::Unfused] {
        let emb = Force2Vec::new(g.adj.clone(), cfg(backend, 20)).train().embedding;
        let model =
            SoftmaxRegression::train(&emb, &g.labels, &train, g.k, &ClassifierConfig::default());
        let pred = model.predict(&emb, &test);
        scores.push(f1_micro(&truth, &pred, g.k));
    }
    assert!(
        (scores[0] - scores[1]).abs() < 1e-9,
        "fused F1 {} != unfused F1 {}",
        scores[0],
        scores[1]
    );
}

#[test]
fn gcn_stack_runs_on_dataset_standin() {
    let adj = Dataset::Cora.standin_scaled(0.1);
    let a_norm = normalize_adjacency(&adj);
    let x = random_features(adj.nrows(), 16, 0.5, 3);
    let net = Gcn2::new(16, 8, 7, 21);
    let logits = net.forward(&a_norm, &x);
    assert_eq!(logits.nrows(), adj.nrows());
    assert_eq!(logits.ncols(), 7);
    assert!(logits.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn gnn_mlp_layer_stacks() {
    let adj = Dataset::Pubmed.standin_scaled(0.01);
    let layer = GnnMlpLayer::seeded(8, 16, 5);
    let x = random_features(adj.nrows(), 8, 0.5, 4);
    let h1 = layer.forward(&adj, &x);
    let h2 = layer.forward(&adj, &h1);
    assert_eq!(h2.nrows(), adj.nrows());
    assert!(h2.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn layout_converges_on_standin() {
    let adj = Dataset::Cora.standin_scaled(0.05);
    let cfg = FrLayoutConfig { iterations: 20, ..Default::default() };
    let r = FrLayout::new(adj, cfg).run();
    assert!(r.positions.as_slice().iter().all(|v| v.is_finite()));
    assert!(r.mean_displacement.last().unwrap() < r.mean_displacement.first().unwrap());
}

#[test]
fn training_loss_monotone_tendency() {
    // Not strictly monotone (SGD), but the tail must be below the head.
    let g = planted_partition(100, 2, 7.0, 1.0, 12).adj;
    let r = Force2Vec::new(g, cfg(Backend::Fused, 12)).train();
    let head: f64 = r.losses[..3].iter().sum::<f64>() / 3.0;
    let tail: f64 = r.losses[r.losses.len() - 3..].iter().sum::<f64>() / 3.0;
    assert!(tail < head, "loss head {head} -> tail {tail}");
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 32 fused steps at the repo benchmark's step shape scaled down to
/// 2¹² vertices (RMAT × 8, d = 128, batch 256, 5 negatives, batches
/// over a scattered vertex order, one step per `train_epoch` call as
/// the benchmark drives it): the hashes of the embedding and of the
/// per-step loss trace. The pinned values are those the trainer gave
/// when every step was one launch on the caller; every pool width must
/// reproduce them. They hold on the two x86 SIMD backends, which agree
/// bit for bit; elsewhere only the widths' agreement is checked.
#[test]
fn fused_training_bits_are_pinned_at_every_pool_width() {
    use fusedmm::apps::sampler::NegativeSampler;
    use fusedmm::kernel::Backend as Isa;
    const EMBEDDING: u64 = 0x7f38_7b0c_856f_b80b;
    const LOSSES: u64 = 0x3138_b542_bfc8_6418;
    let n = 1 << 12;
    let adj = rmat(&RmatConfig::new(n, 8 * n).with_seed(3));
    let order: Vec<usize> = (0..n).map(|i| i * 1237 % n).collect();
    let batches: Vec<Vec<usize>> = order.chunks(256).map(<[usize]>::to_vec).collect();
    // Past the split rule, so widths 2–4 cut every step into parts.
    assert!(256 * (adj.nnz() / n + 5) * 128 >= SPLIT_STEP_WORK);
    let cfg = Force2VecConfig {
        dim: 128,
        batch_size: 256,
        epochs: 1,
        lr: 0.1,
        negatives: 5,
        seed: 7,
        backend: Backend::Fused,
    };
    let run = |width: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        pool.install(|| {
            let trainer = Force2Vec::new(adj.clone(), cfg.clone());
            let mut emb = random_features(n, 128, 0.5 / (128f32).sqrt(), 2);
            let mut sampler = NegativeSampler::new(n, 5, 4);
            let losses: Vec<f64> = (0..32)
                .map(|i| trainer.train_epoch(&mut emb, &mut sampler, &batches[i % 16..=i % 16]))
                .collect();
            let embedding = fnv(emb.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()));
            (embedding, fnv(losses.iter().flat_map(|l| l.to_bits().to_le_bytes())))
        })
    };
    let one = run(1);
    for width in 2..=4 {
        assert_eq!(run(width), one, "pool width {width} moved a bit");
    }
    if matches!(fusedmm::kernel::active_backend(), Isa::Avx2Fma | Isa::Avx512) {
        assert_eq!(one, (EMBEDDING, LOSSES), "the trainer's bits moved");
    }
}
