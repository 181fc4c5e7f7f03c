//! Randomized tests of the core data-structure invariants (seeded,
//! deterministic — see `tests/util/mod.rs`).

mod util;

use std::collections::BTreeMap;
use util::Rng;

use vibe_amr::field::{compute_buffer_spec, pack, unpack, Array4};
use vibe_amr::mesh::{
    enforce_proper_nesting, partition_by_cost, AmrFlag, BlockTree, IndexShape, LogicalLocation,
    MortonKey, NeighborOffset,
};
use vibe_amr::prof::json::{parse, Json};

/// Random refine sequences keep the tree tiling the domain.
#[test]
fn tree_tiles_after_random_refines() {
    let mut rng = Rng::new(0x1157_C001);
    for _case in 0..64 {
        let mut tree = BlockTree::new(2, [4, 4, 1], 3);
        let npicks = rng.usize_in(0, 20);
        for _ in 0..npicks {
            let leaves: Vec<LogicalLocation> = tree.leaves().collect();
            let loc = leaves[rng.usize_in(0, leaves.len())];
            // Refine may fail at max level: that must be the only failure.
            match tree.refine(&loc) {
                Ok(_) => {}
                Err(e) => assert!(
                    matches!(e, vibe_amr::mesh::MeshError::MaxLevelExceeded { .. }),
                    "unexpected error {e}"
                ),
            }
            tree.validate().expect("tree tiles the domain");
        }
    }
}

/// Refine-then-derefine returns the tree to its original leaf set.
#[test]
fn refine_derefine_roundtrip() {
    for p in 0..16 {
        let mut tree = BlockTree::new(2, [4, 4, 1], 2);
        let before: Vec<LogicalLocation> = tree.leaves().collect();
        let loc = before[p];
        tree.refine(&loc).expect("refinable");
        tree.derefine(&loc).expect("derefinable");
        let after: Vec<LogicalLocation> = tree.leaves().collect();
        assert_eq!(before, after);
    }
}

/// Nesting enforcement always produces a 2:1-legal plan: applying it
/// never leaves two neighboring leaves more than one level apart.
#[test]
fn nesting_enforcement_yields_legal_mesh() {
    let mut rng = Rng::new(0xAE5F_0002);
    for _case in 0..64 {
        let mut tree = BlockTree::new(2, [4, 4, 1], 3);
        // Pre-refine a couple of spots to create level structure.
        let l0: Vec<_> = tree.leaves().collect();
        tree.refine(&l0[5]).unwrap();
        tree.refine(&l0[10]).unwrap();

        let leaves: Vec<_> = tree.leaves().collect();
        let mut flags = BTreeMap::new();
        for _ in 0..rng.usize_in(0, 8) {
            flags.insert(leaves[rng.usize_in(0, leaves.len())], AmrFlag::Refine);
        }
        for _ in 0..rng.usize_in(0, 8) {
            flags
                .entry(leaves[rng.usize_in(0, leaves.len())])
                .or_insert(AmrFlag::Derefine);
        }
        let decision = enforce_proper_nesting(&tree, &flags);
        for loc in &decision.refine {
            tree.refine(loc).expect("plan must be applicable");
        }
        for parent in &decision.derefine_parents {
            tree.derefine(parent).expect("plan must be applicable");
        }
        tree.validate().expect("legal mesh after plan");
        for leaf in tree.leaves() {
            for nb in vibe_amr::mesh::neighbor::find_neighbors(&tree, &leaf) {
                assert!((nb.loc.level() - leaf.level()).abs() <= 1);
            }
        }
    }
}

/// Morton keys are unique and order ancestors before descendants.
#[test]
fn morton_keys_unique_and_hierarchical() {
    let mut rng = Rng::new(0x3030_7777);
    for _case in 0..64 {
        let level = rng.i64_in(1, 4) as i32;
        let extent = 1i64 << level;
        let lx = rng.i64_in(0, 8) % extent;
        let ly = rng.i64_in(0, 8) % extent;
        let loc = LogicalLocation::new(level, lx, ly, 0);
        let key = MortonKey::new(&loc, 6);
        let parent_key = MortonKey::new(&loc.parent(), 6);
        assert!(parent_key < key);
        // Sibling keys are distinct.
        for sib in loc.parent().children(2) {
            if sib != loc {
                assert_ne!(MortonKey::new(&sib, 6), key);
            }
        }
    }
}

/// Cost partitioning: contiguous, complete, bounded rank ids, and with
/// enough ranks no rank exceeds twice the fair share for unit costs.
#[test]
fn partition_properties() {
    let mut rng = Rng::new(0x9A91_44D1);
    for _case in 0..64 {
        let n = rng.usize_in(1, 200);
        let nranks = rng.usize_in(1, 32);
        let costs = vec![1.0f64; n];
        let a = partition_by_cost(&costs, nranks);
        assert_eq!(a.num_blocks(), n);
        for w in a.block_ranks().windows(2) {
            assert!(w[1] >= w[0] && w[1] - w[0] <= 1, "contiguous ranks");
        }
        assert!(*a.block_ranks().last().unwrap() < nranks);
        let per_rank = a.blocks_per_rank();
        let fair = n.div_ceil(nranks);
        for &c in &per_rank {
            assert!(c <= fair + 1, "rank holds {c} > fair {fair}+1");
        }
    }
}

/// Cost partitioning under *random* costs: every block assigned exactly
/// once, ranks contiguous along the SFC order, rank ids bounded, and the
/// measured imbalance is a true max/mean ratio (>= 1.0; == 1.0 when costs
/// are uniform and `nranks` divides the block count).
#[test]
fn partition_random_costs_properties() {
    let mut rng = Rng::new(0x5EED_BA1A);
    for _case in 0..128 {
        let n = rng.usize_in(1, 160);
        let nranks = rng.usize_in(1, 40);
        let costs = rng.vec_f64(n, 0.1, 50.0);
        let a = partition_by_cost(&costs, nranks);

        // Complete: every block has a rank, in the same order it came in.
        assert_eq!(a.num_blocks(), n);
        assert_eq!(a.block_ranks().len(), n);
        // Bounded: no rank id reaches nranks.
        assert!(a.block_ranks().iter().all(|&r| r < nranks));
        assert_eq!(a.nranks(), nranks);
        // Contiguous in SFC order: rank ids are non-decreasing and step by
        // at most one, so each rank owns one contiguous slab.
        for w in a.block_ranks().windows(2) {
            assert!(
                w[1] >= w[0] && w[1] - w[0] <= 1,
                "ranks not contiguous: {} then {}",
                w[0],
                w[1]
            );
        }
        // blocks_per_rank tallies the same assignment.
        assert_eq!(a.blocks_per_rank().iter().sum::<usize>(), n);
        // Imbalance is max/mean over per-rank cost: never below 1.
        let imb = a.imbalance(&costs);
        assert!(imb >= 1.0, "imbalance {imb} < 1");
    }
}

/// With at least as many ranks as blocks, every block gets its own rank
/// (one slab each) and the remaining ranks idle.
#[test]
fn partition_with_blocks_not_exceeding_ranks() {
    let mut rng = Rng::new(0x0DD0_BEEF);
    for _case in 0..64 {
        let n = rng.usize_in(1, 24);
        let nranks = rng.usize_in(n, n + 24);
        let costs = rng.vec_f64(n, 0.5, 10.0);
        let a = partition_by_cost(&costs, nranks);
        // One block per rank, ranks 0..n in order.
        let expect: Vec<usize> = (0..n).collect();
        assert_eq!(a.block_ranks(), expect.as_slice());
        assert_eq!(a.idle_ranks(), nranks - n);
    }
}

/// Uniform costs with nranks dividing n partition perfectly: equal slabs
/// and an imbalance of exactly 1.0.
#[test]
fn partition_uniform_divisible_is_perfect() {
    let mut rng = Rng::new(0x00FA_1157);
    for _case in 0..64 {
        let nranks = rng.usize_in(1, 16);
        let per = rng.usize_in(1, 12);
        let n = nranks * per;
        let costs = vec![3.5f64; n];
        let a = partition_by_cost(&costs, nranks);
        assert!(a.blocks_per_rank().iter().all(|&c| c == per));
        assert_eq!(a.imbalance(&costs), 1.0);
        assert_eq!(a.idle_ranks(), 0);
    }
}

/// Same-level ghost pack/unpack is exact for arbitrary sender data.
#[test]
fn copy_buffer_roundtrip() {
    let mut rng = Rng::new(0xB0F0_1E55);
    for _case in 0..64 {
        let values = rng.vec_f64(64, -1e6, 1e6);
        let shape = IndexShape::new([4, 4, 1], 2, 2);
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(0, 1, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        let mut sender = Array4::zeros([1, 1, 8, 8]);
        for (i, v) in values.iter().enumerate().take(64) {
            sender.as_mut_slice()[i] = *v;
        }
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let mut recv = Array4::zeros([1, 1, 8, 8]);
        unpack(&spec, &buf, &mut recv);
        // Each receiver ghost cell equals the mapped sender cell: ghost
        // (i=6+gi, j) maps to sender interior (2+gi, j).
        for gj in 0..4usize {
            for gi in 0..2usize {
                let got = recv.get(0, 0, 2 + gj, 6 + gi);
                let want = sender.get(0, 0, 2 + gj, 2 + gi);
                assert_eq!(got, want);
            }
        }
    }
}

/// Restriction before sending preserves the mean of the fine data.
#[test]
fn restrict_buffer_preserves_mean() {
    let mut rng = Rng::new(0xC3C3_0001);
    for _case in 0..64 {
        let values = rng.vec_f64(144, 0.0, 10.0);
        let shape = IndexShape::new([4, 4, 1], 2, 2);
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(1, 2, 0, 0); // fine neighbor across +x
        let off = NeighborOffset::new(1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        let mut sender = Array4::zeros([1, 1, 8, 8]);
        let n = sender.len();
        for i in 0..n {
            sender.as_mut_slice()[i] = values[i % values.len()];
        }
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        // Every packed value is an average of sender cells, hence within
        // the sender's value range.
        for &v in &buf {
            assert!((0.0..=10.0).contains(&v), "restriction is a mean: {v}");
        }
    }
}

/// A random JSON value: finite numbers across the whole exponent range
/// (integers included), strings with control characters, escapes and
/// non-BMP scalars, arrays and objects nested at most `depth` deep.
fn random_json(rng: &mut Rng, depth: usize) -> Json {
    let string = |rng: &mut Rng| -> String {
        const ALPHABET: [char; 12] = [
            'a', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '\u{ffff}', '😀',
        ];
        (0..rng.usize_in(0, 6))
            .map(|_| ALPHABET[rng.usize_in(0, ALPHABET.len())])
            .collect()
    };
    match rng.usize_in(0, if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.bool()),
        2 => Json::Num(rng.i64_in(-(1 << 53), (1 << 53) + 1) as f64),
        3 => loop {
            // Any finite bit pattern: subnormals, 1e308, -0.0, ...
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break Json::Num(x);
            }
        },
        4 => Json::Str(string(rng)),
        5 => Json::Arr(
            (0..rng.usize_in(0, 4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.usize_in(0, 4))
                .map(|_| (string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The one JSON writer and the one JSON parser are inverses on every
/// value the writer can be handed (non-finite numbers aside, which it
/// degrades to `null`).
#[test]
fn json_parse_inverts_render() {
    let mut rng = Rng::new(0x150_8259);
    for _case in 0..2000 {
        let v = random_json(&mut rng, 8);
        let text = v.render();
        assert_eq!(parse(&text).as_ref(), Ok(&v), "{text}");
    }
}
