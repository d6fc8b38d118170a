//! One equivalence matrix over every front end (the harness is
//! `tests/matrix/mod.rs`): a pairwise covering set of its axes, and the
//! full front end × cache × reordering product on RMAT and on a cut with
//! an empty band, each cell answering what a plain `Engine` answers, bit
//! for bit.

mod matrix;

use std::sync::Arc;

use fusedmm::kernel::Partition;
use fusedmm::prelude::*;

use matrix::{
    check_cells, config, covering_set, replicas, slice, Front, Graph, InProcess, Inputs, Latch,
};

#[test]
fn a_pairwise_covering_set_of_cells_answers_as_a_plain_engine() {
    check_cells(&covering_set());
}

/// Every front end × cache × reordering at d = 64 on finite features,
/// on RMAT and on the cut whose 4-way split leaves a band empty.
#[test]
fn every_front_end_cache_and_reordering_answers_alike_on_rmat_and_an_empty_band() {
    let cut = Partition::part1d(&Graph::EmptyBand.csr(), 4, PartitionStrategy::NnzBalanced);
    assert!(cut.boundaries().windows(2).any(|w| w[0] == w[1]), "{:?}", cut.boundaries());
    check_cells(&slice(|c| {
        c.d == 64 && matches!(c.graph, Graph::Rmat | Graph::EmptyBand) && !c.hostile
    }));
}

/// Two blocking callers at once on `Engine` and a two-shard
/// `ShardedEngine`, cache off and on: each runs its own parts — beside
/// the other on the same band — and with the cache, one caller's misses
/// wait on rows the other computes. Every answer is what a plain
/// `Engine` answers making the same calls one after the other, bit for
/// bit. (Every cell runs this step; this slice names it.)
#[test]
fn two_blocking_callers_at_once_answer_as_one_serial_engine() {
    check_cells(&slice(|c| {
        matches!(c.front, Front::Engine | Front::Sharded(2))
            && c.reordering.is_none()
            && c.d == 64
            && c.graph == Graph::Rmat
            && !c.hostile
    }));
}

/// `score_edges` asks every shard before it waits on any: the latch
/// holds each part until all are in flight, so a front end that waited
/// on shard 0's reply before asking shard 1 fails typed after 10 s
/// instead of matching.
#[test]
fn score_edges_fans_out_to_all_shards_before_waiting() {
    let inp = Inputs::new(Graph::Rmat, 7, false);
    let (workers, boundaries) = replicas(&inp.a, 3, inp.d, false);
    let latch = Latch::new(workers.len());
    let transport = Arc::new(InProcess { workers, boundaries, latch: Some(latch) });
    let remote =
        RemoteShardedEngine::new(inp.x.clone(), inp.y.clone(), transport, config(false, None));
    let engine = Engine::new(
        inp.a.clone(),
        inp.x,
        inp.y,
        OpSet::sigmoid_embedding(None),
        config(false, None),
    );
    // Sources span every band, so every latch slot fills.
    let n = inp.a.nrows();
    let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
    let bits = |s: Vec<f32>| s.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(remote.score_edges(&pairs).unwrap()),
        bits(engine.score_edges(&pairs).unwrap())
    );
}
