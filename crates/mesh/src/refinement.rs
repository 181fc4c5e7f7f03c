//! Refinement flag aggregation, 2:1 proper-nesting enforcement, and
//! derefinement gating.
//!
//! Each cycle, packages tag every mesh block with an [`AmrFlag`]. The raw
//! tags are then reconciled against the structural rules:
//!
//! * **2:1 rule** — neighboring blocks may differ by at most one refinement
//!   level, so refinement cascades outward and derefinement is vetoed where
//!   it would create a 2-level jump.
//! * **Sibling completeness** — a block can only derefine together with all
//!   of its siblings.
//! * **Derefinement gap** — Parthenon-VIBE constrains successive
//!   derefinements of the same region by a minimum cycle gap (10 cycles in
//!   the paper's configuration); [`DerefGate`] implements this.

use std::collections::{BTreeMap, HashMap};

use crate::logical::LogicalLocation;
use crate::neighbor::{find_neighbors, NeighborBlock};
use crate::tree::BlockTree;

/// Per-block refinement request produced by tagging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AmrFlag {
    /// Split this block into children.
    Refine,
    /// Leave the block as is.
    #[default]
    Same,
    /// Merge this block (with its siblings) into the parent.
    Derefine,
}

/// Outcome of proper-nesting enforcement: the exact structural changes to
/// apply to the tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegridDecision {
    /// Leaves to split.
    pub refine: Vec<LogicalLocation>,
    /// Parents whose children will merge.
    pub derefine_parents: Vec<LogicalLocation>,
}

impl RegridDecision {
    /// `true` if no structural change is required.
    pub fn is_empty(&self) -> bool {
        self.refine.is_empty() && self.derefine_parents.is_empty()
    }
}

/// What the nesting rule reads of a leaf set, dense by leaf index: every
/// leaf's level, its neighbors' indices (CSR, in [`find_neighbors`] order)
/// and its sibling group. Built once per leaf set — [`crate::Mesh`] caches
/// one per generation, indexed by gid.
#[derive(Debug, Clone, Default)]
pub struct NestingTable {
    locs: Vec<LogicalLocation>,
    /// `neighbors[start[i]..start[i + 1]]` are leaf `i`'s neighbors.
    start: Vec<u32>,
    neighbors: Vec<u32>,
    /// Leaves with one parent share a group (level-0 leaves never merge;
    /// theirs is never read).
    group: Vec<u32>,
    groups: usize,
}

impl NestingTable {
    /// The table of the leaves `locs` from each one's neighbor list;
    /// `index_of` maps a neighbor's location to its position in `locs`.
    pub(crate) fn build(
        locs: &[LogicalLocation],
        lists: impl Iterator<Item = impl AsRef<[NeighborBlock]>>,
        index_of: impl Fn(&LogicalLocation) -> usize,
    ) -> Self {
        let mut parents: HashMap<LogicalLocation, u32> = HashMap::new();
        let group = locs
            .iter()
            .map(|loc| match loc.level() {
                0 => 0,
                _ => {
                    let next = parents.len() as u32;
                    *parents.entry(loc.parent()).or_insert(next)
                }
            })
            .collect();
        let (mut start, mut neighbors) = (vec![0u32], Vec::new());
        for list in lists {
            neighbors.extend(list.as_ref().iter().map(|nb| index_of(&nb.loc) as u32));
            start.push(neighbors.len() as u32);
        }
        assert_eq!(start.len(), locs.len() + 1, "one neighbor list per leaf");
        Self {
            locs: locs.to_vec(),
            start,
            neighbors,
            group,
            groups: parents.len().max(1),
        }
    }

    /// Indices of leaf `i`'s neighbors, in [`find_neighbors`] order.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Neighbor connections over all leaves.
    pub fn num_neighbors(&self) -> usize {
        self.neighbors.len()
    }

    /// The nesting rule: reconciles per-leaf `flags` (indexed like the
    /// table) into a [`RegridDecision`] satisfying the 2:1 rule, sibling
    /// completeness and the level range `0..=max_level` of a
    /// `dim`-dimensional tree.
    ///
    /// Iterates to a fixpoint: a leaf whose (prospective) neighbor would
    /// end up two levels finer first loses any derefine flag and is then
    /// promoted to refine. Every step only raises a prospective level, so
    /// the loop terminates, and — the steps being monotone — it reaches the
    /// same least fixpoint in whatever order the leaves are indexed.
    ///
    /// # Panics
    ///
    /// Panics unless `flags` holds one flag per leaf.
    pub fn enforce(&self, dim: usize, max_level: i32, flags: &[AmrFlag]) -> RegridDecision {
        assert_eq!(flags.len(), self.locs.len(), "one flag per leaf");
        let level = |i: usize| self.locs[i].level();
        let mut eff = flags.to_vec();
        for (i, f) in eff.iter_mut().enumerate() {
            let out_of_range = match *f {
                AmrFlag::Refine => level(i) >= max_level,
                AmrFlag::Derefine => level(i) == 0,
                AmrFlag::Same => false,
            };
            if out_of_range {
                *f = AmrFlag::Same;
            }
        }
        let target = |i: usize, f: AmrFlag| match f {
            AmrFlag::Refine => level(i) + 1,
            AmrFlag::Same => level(i),
            AmrFlag::Derefine => level(i) - 1,
        };
        let mut votes = vec![0usize; self.groups];
        loop {
            // Sibling completeness: derefinement requires every sibling to
            // be a leaf flagged Derefine. Re-run inside the fixpoint because
            // cancellations can break a previously complete sibling group.
            votes.fill(0);
            for (i, f) in eff.iter().enumerate() {
                votes[self.group[i] as usize] += usize::from(*f == AmrFlag::Derefine);
            }
            for (i, f) in eff.iter_mut().enumerate() {
                if *f == AmrFlag::Derefine && votes[self.group[i] as usize] < 1 << dim {
                    *f = AmrFlag::Same;
                }
            }
            let mut changed = false;
            for i in 0..eff.len() {
                for &nb in self.neighbors(i) {
                    let nb = nb as usize;
                    if target(nb, eff[nb]) > target(i, eff[i]) + 1 {
                        // Raise our prospective level by one step: first
                        // cancel a derefine, then promote to refine. Under
                        // the 2:1 invariant the promotion never exceeds
                        // max_level.
                        let new_flag = match eff[i] {
                            AmrFlag::Derefine => AmrFlag::Same,
                            _ => AmrFlag::Refine,
                        };
                        if new_flag == AmrFlag::Refine && level(i) >= max_level {
                            continue;
                        }
                        if eff[i] != new_flag {
                            eff[i] = new_flag;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let flagged = |want: AmrFlag| {
            let locs = self.locs.iter().zip(&eff);
            locs.filter(move |(_, f)| **f == want).map(|(loc, _)| *loc)
        };
        let mut refine: Vec<LogicalLocation> = flagged(AmrFlag::Refine).collect();
        refine.sort();
        let mut derefine_parents: Vec<LogicalLocation> =
            flagged(AmrFlag::Derefine).map(|loc| loc.parent()).collect();
        derefine_parents.sort();
        derefine_parents.dedup();
        RegridDecision {
            refine,
            derefine_parents,
        }
    }
}

/// [`NestingTable::enforce`] for a bare tree and flags keyed by location:
/// derives the table (every leaf's neighbors, once) and runs the rule over
/// the leaves in location order. Leaves absent from `flags` are treated as
/// [`AmrFlag::Same`]. A [`crate::Mesh`] has the table cached:
/// [`crate::Mesh::proper_nesting`].
pub fn enforce_proper_nesting(
    tree: &BlockTree,
    flags: &BTreeMap<LogicalLocation, AmrFlag>,
) -> RegridDecision {
    let mut locs: Vec<LogicalLocation> = tree.leaves().collect();
    locs.sort();
    let dense: Vec<AmrFlag> = locs
        .iter()
        .map(|loc| flags.get(loc).copied().unwrap_or_default())
        .collect();
    let lists = locs.iter().map(|loc| find_neighbors(tree, loc));
    let index_of = |loc: &LogicalLocation| locs.binary_search(loc).expect("neighbor is a leaf");
    let table = NestingTable::build(&locs, lists, index_of);
    table.enforce(tree.dim(), tree.max_level(), &dense)
}

/// Enforces a minimum number of cycles between successive derefinements of
/// the same region, and protects freshly created blocks from immediate
/// derefinement.
///
/// ```
/// use vibe_mesh::{DerefGate, LogicalLocation};
///
/// let mut gate = DerefGate::new(10);
/// let parent = LogicalLocation::new(0, 0, 0, 0);
/// gate.record_derefine(&parent, 5);
/// assert!(!gate.allows(&parent, 10)); // only 5 cycles elapsed
/// assert!(gate.allows(&parent, 15));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DerefGate {
    min_gap: u64,
    last_event: HashMap<LogicalLocation, u64>,
}

impl DerefGate {
    /// Creates a gate requiring at least `min_gap` cycles between
    /// derefinement events affecting the same parent region.
    pub fn new(min_gap: u64) -> Self {
        Self {
            min_gap,
            last_event: HashMap::new(),
        }
    }

    /// Configured minimum cycle gap.
    pub fn min_gap(&self) -> u64 {
        self.min_gap
    }

    /// `true` if derefining into `parent` is allowed at `cycle`.
    pub fn allows(&self, parent: &LogicalLocation, cycle: u64) -> bool {
        match self.last_event.get(parent) {
            Some(&last) => cycle >= last + self.min_gap,
            None => true,
        }
    }

    /// Removes parents whose derefinement is gated at `cycle`.
    pub fn filter(&self, parents: Vec<LogicalLocation>, cycle: u64) -> Vec<LogicalLocation> {
        parents
            .into_iter()
            .filter(|p| self.allows(p, cycle))
            .collect()
    }

    /// Records that `parent` was derefined into at `cycle`.
    pub fn record_derefine(&mut self, parent: &LogicalLocation, cycle: u64) {
        self.last_event.insert(*parent, cycle);
    }

    /// Records that `parent` was refined (children created) at `cycle`,
    /// protecting the new children from immediate re-merging.
    pub fn record_refine(&mut self, parent: &LogicalLocation, cycle: u64) {
        self.last_event.insert(*parent, cycle);
    }

    /// Gate state as `(parent, last_event_cycle)` pairs sorted by location —
    /// a deterministic serialization order for checkpoints.
    pub fn entries(&self) -> Vec<(LogicalLocation, u64)> {
        let mut out: Vec<(LogicalLocation, u64)> = self
            .last_event
            .iter()
            .map(|(loc, &cycle)| (*loc, cycle))
            .collect();
        out.sort();
        out
    }

    /// Rebuilds a gate from a checkpointed `(min_gap, entries)` pair.
    pub fn from_entries(min_gap: u64, entries: &[(LogicalLocation, u64)]) -> Self {
        Self {
            min_gap,
            last_event: entries.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn flags_of(pairs: &[(LogicalLocation, AmrFlag)]) -> BTreeMap<LogicalLocation, AmrFlag> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn no_flags_no_changes() {
        let tree = BlockTree::new(2, [4, 4, 1], 2);
        let d = enforce_proper_nesting(&tree, &BTreeMap::new());
        assert!(d.is_empty());
    }

    #[test]
    fn gate_entries_roundtrip_sorted() {
        let mut gate = DerefGate::new(7);
        let a = LogicalLocation::new(1, 3, 0, 0);
        let b = LogicalLocation::new(0, 1, 1, 0);
        gate.record_derefine(&a, 5);
        gate.record_refine(&b, 9);
        let entries = gate.entries();
        assert_eq!(entries, vec![(b, 9), (a, 5)]);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let restored = DerefGate::from_entries(gate.min_gap(), &entries);
        assert_eq!(restored.min_gap(), 7);
        assert!(!restored.allows(&a, 11));
        assert!(restored.allows(&a, 12));
        assert!(!restored.allows(&b, 15));
        assert!(restored.allows(&b, 16));
    }

    #[test]
    fn single_refine_passes_through() {
        let tree = BlockTree::new(2, [4, 4, 1], 2);
        let loc = LogicalLocation::new(0, 1, 1, 0);
        let d = enforce_proper_nesting(&tree, &flags_of(&[(loc, AmrFlag::Refine)]));
        assert_eq!(d.refine, vec![loc]);
        assert!(d.derefine_parents.is_empty());
    }

    #[test]
    fn refine_at_max_level_is_ignored() {
        let mut tree = BlockTree::new(2, [2, 2, 1], 1);
        let children = tree.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        let d = enforce_proper_nesting(&tree, &flags_of(&[(children[0], AmrFlag::Refine)]));
        assert!(d.refine.is_empty());
    }

    #[test]
    fn derefine_requires_all_siblings() {
        let mut tree = BlockTree::new(2, [2, 2, 1], 1);
        let parent = LogicalLocation::new(0, 0, 0, 0);
        let children = tree.refine(&parent).unwrap();
        // Only 3 of 4 siblings want to derefine.
        let flags = flags_of(
            &children[..3]
                .iter()
                .map(|c| (*c, AmrFlag::Derefine))
                .collect::<Vec<_>>(),
        );
        let d = enforce_proper_nesting(&tree, &flags);
        assert!(d.derefine_parents.is_empty());

        // All 4 agree.
        let flags = flags_of(
            &children
                .iter()
                .map(|c| (*c, AmrFlag::Derefine))
                .collect::<Vec<_>>(),
        );
        let d = enforce_proper_nesting(&tree, &flags);
        assert_eq!(d.derefine_parents, vec![parent]);
    }

    #[test]
    fn refinement_cascades_to_maintain_two_to_one() {
        // Refine a level-1 block so its level-0 neighbor must also refine.
        let mut tree = BlockTree::new(2, [4, 4, 1], 2);
        let coarse = LogicalLocation::new(0, 1, 1, 0);
        let children = tree.refine(&coarse).unwrap();
        // Child adjacent to the unrefined block at (0,0,1,0): the low-x children.
        let fine = children
            .iter()
            .copied()
            .find(|c| c.lx_d(0) == 2 && c.lx_d(1) == 2)
            .unwrap();
        let d = enforce_proper_nesting(&tree, &flags_of(&[(fine, AmrFlag::Refine)]));
        assert!(d.refine.contains(&fine));
        // The level-0 neighbors sharing a boundary with `fine` must refine too.
        assert!(
            d.refine.contains(&LogicalLocation::new(0, 0, 1, 0)) || d.refine.len() > 1,
            "cascade expected, got {:?}",
            d.refine
        );
    }

    #[test]
    fn derefine_vetoed_by_fine_neighbor_refinement() {
        // A fine group wants to merge while an adjacent block refines to a
        // level that would create a 2-level jump after the merge.
        let mut tree = BlockTree::new(2, [2, 2, 1], 2);
        let parent = LogicalLocation::new(0, 0, 0, 0);
        let children = tree.refine(&parent).unwrap();
        let neighbor_fine = children[3]; // (1,1) child, interior corner
        let mut pairs: Vec<(LogicalLocation, AmrFlag)> = children[..3]
            .iter()
            .map(|c| (*c, AmrFlag::Derefine))
            .collect();
        pairs.push((neighbor_fine, AmrFlag::Refine));
        let d = enforce_proper_nesting(&tree, &flags_of(&pairs));
        // The sibling group is incomplete (one sibling refines), so no merge.
        assert!(d.derefine_parents.is_empty());
        assert!(d.refine.contains(&neighbor_fine));
    }

    #[test]
    fn cascade_terminates_on_uniform_refine_everything() {
        let tree = BlockTree::new(2, [4, 4, 1], 3);
        let flags: BTreeMap<_, _> = tree.leaves().map(|l| (l, AmrFlag::Refine)).collect();
        let d = enforce_proper_nesting(&tree, &flags);
        assert_eq!(d.refine.len(), 16);
    }

    #[test]
    fn decision_is_deterministic() {
        let mut tree = BlockTree::new(2, [4, 4, 1], 2);
        tree.refine(&LogicalLocation::new(0, 2, 2, 0)).unwrap();
        let flags: BTreeMap<_, _> = tree
            .leaves()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, l)| (l, AmrFlag::Refine))
            .collect();
        let d1 = enforce_proper_nesting(&tree, &flags);
        let d2 = enforce_proper_nesting(&tree, &flags);
        assert_eq!(d1, d2);
    }

    /// The implementation this module had before the dense table, kept as
    /// the oracle: ordered maps keyed by location, `find_neighbors` for
    /// every leaf in every fixpoint pass. Also reports the passes it took.
    fn oracle_proper_nesting(
        tree: &BlockTree,
        flags: &BTreeMap<LogicalLocation, AmrFlag>,
    ) -> (RegridDecision, usize) {
        let dim = tree.dim();
        // Effective flag per leaf, clamped to the level range.
        let mut eff: BTreeMap<LogicalLocation, AmrFlag> = tree
            .leaves()
            .map(|loc| {
                let mut f = flags.get(&loc).copied().unwrap_or_default();
                if f == AmrFlag::Refine && loc.level() >= tree.max_level() {
                    f = AmrFlag::Same;
                }
                if f == AmrFlag::Derefine && loc.level() == 0 {
                    f = AmrFlag::Same;
                }
                (loc, f)
            })
            .collect();

        // Sibling completeness: derefinement requires every sibling to be a leaf
        // flagged Derefine. Re-run inside the fixpoint because cancellations can
        // break a previously complete sibling group.
        let cancel_incomplete_sibling_groups = |eff: &mut BTreeMap<LogicalLocation, AmrFlag>| {
            let deref_leaves: Vec<LogicalLocation> = eff
                .iter()
                .filter(|(_, f)| **f == AmrFlag::Derefine)
                .map(|(l, _)| *l)
                .collect();
            let mut cancel = Vec::new();
            for loc in &deref_leaves {
                let parent = loc.parent();
                let complete = parent
                    .children(dim)
                    .iter()
                    .all(|sib| eff.get(sib) == Some(&AmrFlag::Derefine));
                if !complete {
                    cancel.push(*loc);
                }
            }
            for loc in cancel {
                eff.insert(loc, AmrFlag::Same);
            }
        };

        let target = |loc: &LogicalLocation, f: AmrFlag| -> i32 {
            match f {
                AmrFlag::Refine => loc.level() + 1,
                AmrFlag::Same => loc.level(),
                AmrFlag::Derefine => loc.level() - 1,
            }
        };

        let mut passes = 0;
        loop {
            passes += 1;
            cancel_incomplete_sibling_groups(&mut eff);
            let mut changed = false;
            let snapshot: Vec<LogicalLocation> = eff.keys().copied().collect();
            for loc in &snapshot {
                for nb in find_neighbors(tree, loc) {
                    let my_target = target(loc, eff[loc]);
                    let nb_target = target(&nb.loc, eff[&nb.loc]);
                    if nb_target > my_target + 1 {
                        // Raise our prospective level by one step: first cancel a
                        // derefine, then promote to refine. Under the 2:1
                        // invariant the promotion never exceeds max_level.
                        let new_flag = match eff[loc] {
                            AmrFlag::Derefine => AmrFlag::Same,
                            _ => AmrFlag::Refine,
                        };
                        if new_flag == AmrFlag::Refine && loc.level() >= tree.max_level() {
                            continue;
                        }
                        if eff[loc] != new_flag {
                            eff.insert(*loc, new_flag);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut refine: Vec<LogicalLocation> = eff
            .iter()
            .filter(|(_, f)| **f == AmrFlag::Refine)
            .map(|(l, _)| *l)
            .collect();
        refine.sort();

        let mut parents: HashSet<LogicalLocation> = HashSet::new();
        for (loc, f) in &eff {
            if *f == AmrFlag::Derefine {
                parents.insert(loc.parent());
            }
        }
        let mut derefine_parents: Vec<LogicalLocation> = parents.into_iter().collect();
        derefine_parents.sort();

        let decision = RegridDecision {
            refine,
            derefine_parents,
        };
        (decision, passes)
    }

    /// Seeded xorshift64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            (self.next() >> 11) % n
        }
    }

    /// Holds the dense rule through `mesh`'s cached table and the tree
    /// adapter against the map-based oracle for one set of flags, applies
    /// the decision, and checks the rebuilt neighbor-gid table against
    /// `find_neighbors` + `gid_at`. Returns the oracle's pass count and
    /// whether anything regridded.
    fn regrid_checked(mesh: &mut crate::Mesh, flags: &[AmrFlag], what: &str) -> (usize, bool) {
        let locs = mesh.blocks().iter().map(|b| b.loc());
        let by_loc: BTreeMap<_, _> = locs.zip(flags.iter().copied()).collect();
        let (want, passes) = oracle_proper_nesting(mesh.tree(), &by_loc);
        assert_eq!(mesh.proper_nesting(flags), want, "{what}: cached table");
        let adapted = enforce_proper_nesting(mesh.tree(), &by_loc);
        assert_eq!(adapted, want, "{what}: adapter");
        mesh.regrid(&want).unwrap();
        for b in mesh.blocks() {
            let fresh: Vec<u32> = find_neighbors(mesh.tree(), &b.loc())
                .iter()
                .map(|nb| mesh.gid_at(&nb.loc).unwrap() as u32)
                .collect();
            assert_eq!(
                mesh.neighbor_gids(b.gid()),
                fresh,
                "{what}: block {}",
                b.gid()
            );
        }
        (passes, !want.is_empty())
    }

    fn build_mesh(dim: usize, base_blocks: [usize; 3], max_levels: u32) -> crate::Mesh {
        let mesh_size: [usize; 3] =
            std::array::from_fn(|d| if d < dim { 4 * base_blocks[d] } else { 1 });
        let params = crate::MeshParams::builder()
            .dim(dim)
            .mesh_size(mesh_size)
            .block_cells(4)
            .nghost(2)
            .max_levels(max_levels)
            .build()
            .unwrap();
        crate::Mesh::new(params).unwrap()
    }

    /// The dense rule through the mesh's cached table ≡ the tree adapter ≡
    /// the map-based oracle, on random 2:1 trees grown by random regrid
    /// sequences in 1/2/3-D under random flags —
    /// refine at the finest level, derefine at level 0, whole and broken
    /// sibling groups.
    #[test]
    fn dense_nesting_matches_the_map_oracle_on_random_trees() {
        let mut rng = Rng(0x5eed_0022_c0ff_ee11);
        let mut regrids = 0usize;
        for case in 0..320 {
            let dim = 1 + case % 3;
            let mut base = [1usize; 3];
            for b in base.iter_mut().take(dim) {
                *b = 1 + rng.below(if dim == 3 { 2 } else { 4 }) as usize;
            }
            let levels = 2 + rng.below(if dim == 3 { 2 } else { 4 }) as u32;
            let mut mesh = build_mesh(dim, base, levels);
            for round in 0..5 {
                // One coin per sibling group, then per-leaf noise that
                // breaks some groups and flags leaves at the range ends.
                let salt = rng.next();
                let flags: Vec<AmrFlag> = mesh
                    .blocks()
                    .iter()
                    .map(|b| {
                        let lx = b.loc().lx().map(|x| (x >> 1) as u64);
                        let group = (b.level() as u64) << 48 ^ lx[0] << 32 ^ lx[1] << 16 ^ lx[2];
                        let mut coin = Rng(salt ^ group.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
                        coin.next();
                        match (coin.below(3), rng.below(10)) {
                            (_, 0) | (2, 3..) => AmrFlag::Refine,
                            (_, 1) | (1, 3..) => AmrFlag::Same,
                            _ => AmrFlag::Derefine,
                        }
                    })
                    .collect();
                let what = format!("case {case} round {round}: {dim}-D, base {base:?}");
                regrids += usize::from(regrid_checked(&mut mesh, &flags, &what).1);
            }
        }
        assert!(regrids > 600, "most rounds regrid: {regrids}");
    }

    /// A cascade that runs against the visiting order: on a tree graded
    /// toward one corner, refining the finest leaf forces one coarser
    /// neighbor per fixpoint pass to follow, some of them out of a
    /// derefine request.
    #[test]
    fn dense_nesting_matches_the_map_oracle_on_long_chains() {
        for dim in [1, 2] {
            let levels = 6;
            let mut mesh = build_mesh(dim, [2; 3], levels);
            let what = format!("{dim}-D");
            // Refine the finest leaf at `lx`, flag every other leaf `rest`.
            let one = |mesh: &crate::Mesh, lx: [i64; 3], rest: AmrFlag| -> Vec<AmrFlag> {
                let finest = mesh.blocks().iter().map(|b| b.level()).max().unwrap();
                let chosen = |b: &crate::MeshBlock| b.level() == finest && b.loc().lx() == lx;
                let flag = |b| if chosen(b) { AmrFlag::Refine } else { rest };
                mesh.blocks().iter().map(flag).collect()
            };
            // Grade the tree toward the corner: levels - 2 refinements.
            for _ in 0..levels - 2 {
                let flags = one(&mesh, [0; 3], AmrFlag::Same);
                regrid_checked(&mut mesh, &flags, &what);
            }
            // The corner leaf's +x sibling borders the next coarser leaf,
            // that one the next, and so on down to level 0.
            let flags = one(&mesh, [1, 0, 0], AmrFlag::Derefine);
            let (passes, _) = regrid_checked(&mut mesh, &flags, &what);
            assert!(passes >= 4, "{what}: the chain took {passes} passes");
        }
    }

    #[test]
    fn deref_gate_blocks_within_gap() {
        let mut gate = DerefGate::new(10);
        let p = LogicalLocation::new(0, 0, 0, 0);
        assert!(gate.allows(&p, 0));
        gate.record_derefine(&p, 3);
        assert!(!gate.allows(&p, 12));
        assert!(gate.allows(&p, 13));
    }

    #[test]
    fn deref_gate_filter() {
        let mut gate = DerefGate::new(5);
        let a = LogicalLocation::new(0, 0, 0, 0);
        let b = LogicalLocation::new(0, 1, 0, 0);
        gate.record_refine(&a, 2);
        let kept = gate.filter(vec![a, b], 4);
        assert_eq!(kept, vec![b]);
    }

    #[test]
    fn deref_gate_zero_gap_always_allows() {
        let mut gate = DerefGate::new(0);
        let p = LogicalLocation::new(0, 0, 0, 0);
        gate.record_derefine(&p, 7);
        assert!(gate.allows(&p, 7));
    }
}
