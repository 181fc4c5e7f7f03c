//! Per-block variable containers and variable packs.
//!
//! Parthenon extracts variables from containers *by metadata flag* using
//! string-keyed lookups (`GetVariablesByFlag`), which the IISWC paper
//! identifies as a serial hotspot (§VIII-A): every extraction re-hashes and
//! re-compares variable names. The recommended fix is compile-time /
//! integer-based indexing with a centralized name→id map. [`BlockData`]
//! implements **both** paths — [`PackStrategy::StringKeyed`] and
//! [`PackStrategy::IntegerCached`] — so the difference is counted (the
//! recorder's string lookups) and costed by the serial cost model; the
//! `ablations` figure binary compares the two.

use std::collections::HashMap;

use vibe_mesh::IndexShape;

use crate::variable::{CellVariable, Metadata};

/// Integer variable identifier: the index of a variable within its
/// container's registration order. Identical across blocks that registered
/// the same package variables in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// How variable packs are assembled from a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PackStrategy {
    /// Re-scan variables and compare names/flags on every pack build —
    /// Parthenon's current behavior, with per-lookup string hashing.
    StringKeyed,
    /// Build the id list once per (flag, container-version) and reuse it —
    /// the paper's recommended integer indexing.
    #[default]
    IntegerCached,
}

/// A selection of variables (by id) matching a metadata flag, plus the total
/// component count — the unit that kernels iterate over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariablePack {
    ids: Vec<VarId>,
    total_components: usize,
}

impl VariablePack {
    /// Variable ids in registration order.
    pub fn ids(&self) -> &[VarId] {
        &self.ids
    }

    /// Sum of component counts over the packed variables.
    pub fn total_components(&self) -> usize {
        self.total_components
    }

    /// Number of variables in the pack.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the pack selects no variables.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// All variables for one mesh block.
///
/// ```
/// use vibe_field::{BlockData, Metadata};
/// use vibe_mesh::IndexShape;
///
/// let shape = IndexShape::new([8, 8, 8], 4, 3);
/// let mut data = BlockData::new(shape);
/// data.add_variable("u", 3, Metadata::INDEPENDENT | Metadata::FILL_GHOST);
/// data.add_variable("d", 1, Metadata::DERIVED);
/// let pack = data.pack_by_flag(Metadata::FILL_GHOST);
/// assert_eq!(pack.len(), 1);
/// assert_eq!(pack.total_components(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct BlockData {
    shape: IndexShape,
    vars: Vec<CellVariable>,
    by_name: HashMap<String, VarId>,
    strategy: PackStrategy,
    pack_cache: HashMap<u32, VariablePack>,
    /// Names already resolved once in `IntegerCached` mode (interned
    /// handles cost nothing after the first resolution).
    resolved_names: std::collections::HashSet<String>,
    version: u64,
    string_lookups: u64,
}

impl BlockData {
    /// Creates an empty container for blocks of the given shape.
    pub fn new(shape: IndexShape) -> Self {
        Self {
            shape,
            vars: Vec::new(),
            by_name: HashMap::new(),
            strategy: PackStrategy::default(),
            pack_cache: HashMap::new(),
            resolved_names: std::collections::HashSet::new(),
            version: 0,
            string_lookups: 0,
        }
    }

    /// Selects the pack-building strategy (default: integer-cached).
    pub fn set_pack_strategy(&mut self, strategy: PackStrategy) {
        self.strategy = strategy;
        self.pack_cache.clear();
        self.resolved_names.clear();
    }

    /// Current pack-building strategy.
    pub fn pack_strategy(&self) -> PackStrategy {
        self.strategy
    }

    /// The block shape all variables share.
    pub fn shape(&self) -> &IndexShape {
        &self.shape
    }

    /// Registers a variable; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a variable with the same name already exists.
    pub fn add_variable(
        &mut self,
        name: impl Into<String>,
        ncomp: usize,
        metadata: Metadata,
    ) -> VarId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate variable `{name}`"
        );
        let id = VarId(self.vars.len());
        self.by_name.insert(name.clone(), id);
        self.vars
            .push(CellVariable::new(name, ncomp, metadata, &self.shape));
        self.version += 1;
        self.pack_cache.clear();
        id
    }

    /// Number of registered variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// All variables in registration order.
    pub fn vars(&self) -> &[CellVariable] {
        &self.vars
    }

    /// All variables in registration order, mutably (disjoint borrows of
    /// several variables at once).
    pub fn vars_mut(&mut self) -> &mut [CellVariable] {
        &mut self.vars
    }

    /// Variable by integer id — the fast path.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn var(&self, id: VarId) -> &CellVariable {
        &self.vars[id.0]
    }

    /// Mutable variable by integer id.
    pub fn var_mut(&mut self, id: VarId) -> &mut CellVariable {
        &mut self.vars[id.0]
    }

    /// Simultaneous mutable access to two distinct variables.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is out of range.
    pub fn pair_mut(&mut self, a: VarId, b: VarId) -> (&mut CellVariable, &mut CellVariable) {
        assert_ne!(a, b, "pair_mut needs distinct variables");
        if a.0 < b.0 {
            let (lo, hi) = self.vars.split_at_mut(b.0);
            (&mut lo[a.0], &mut hi[0])
        } else {
            let (lo, hi) = self.vars.split_at_mut(a.0);
            (&mut hi[0], &mut lo[b.0])
        }
    }

    /// Simultaneous mutable access to `N` distinct variables.
    ///
    /// # Panics
    ///
    /// Panics if any two ids are equal or any id is out of range.
    pub fn disjoint_mut<const N: usize>(&mut self, ids: [VarId; N]) -> [&mut CellVariable; N] {
        self.vars
            .get_disjoint_mut(ids.map(|id| id.0))
            .expect("disjoint_mut needs distinct, in-range variables")
    }

    /// Counts one name resolution under the configured strategy:
    /// `StringKeyed` re-hashes the name on every call (Parthenon's
    /// per-launch `Get` path), while `IntegerCached` models interned
    /// handles resolved once per container and reused.
    fn count_name_resolution(&mut self, name: &str) {
        match self.strategy {
            PackStrategy::StringKeyed => self.string_lookups += 1,
            PackStrategy::IntegerCached => {
                if self.resolved_names.insert(name.to_string()) {
                    self.string_lookups += 1;
                }
            }
        }
    }

    /// Id of the variable named `name`, counting a string lookup per the
    /// configured strategy.
    pub fn id_of(&mut self, name: &str) -> Option<VarId> {
        self.count_name_resolution(name);
        self.by_name.get(name).copied()
    }

    /// Counts the name resolutions of a kernel launch that fetches the
    /// variables `ids` by name (Parthenon's per-launch `Get`), for kernels
    /// whose body runs on ids alone.
    pub fn count_resolutions(&mut self, ids: &[VarId]) {
        for id in ids {
            let name = self.vars[id.0].name().to_string();
            self.count_name_resolution(&name);
        }
    }

    /// Number of string-keyed lookups performed so far (consumed by the
    /// serial cost model).
    pub fn string_lookup_count(&self) -> u64 {
        self.string_lookups
    }

    /// Resets the string-lookup counter, returning the previous value.
    pub fn take_string_lookups(&mut self) -> u64 {
        std::mem::take(&mut self.string_lookups)
    }

    /// Builds (or fetches) the pack of variables whose metadata contains
    /// `flag`, honoring the configured [`PackStrategy`].
    pub fn pack_by_flag(&mut self, flag: Metadata) -> VariablePack {
        match self.strategy {
            PackStrategy::StringKeyed => {
                // Re-scan with per-variable name work, as Parthenon's
                // GetVariablesByFlag does: one string hash per variable.
                let mut ids = Vec::new();
                let mut total = 0usize;
                let names: Vec<String> = self.vars.iter().map(|v| v.name().to_string()).collect();
                for name in &names {
                    self.string_lookups += 1;
                    let id = self.by_name[name.as_str()];
                    let v = &self.vars[id.0];
                    if v.metadata().contains(flag) {
                        ids.push(id);
                        total += v.ncomp();
                    }
                }
                VariablePack {
                    ids,
                    total_components: total,
                }
            }
            PackStrategy::IntegerCached => {
                if let Some(p) = self.pack_cache.get(&flag.bits()) {
                    return p.clone();
                }
                let mut ids = Vec::new();
                let mut total = 0usize;
                for (i, v) in self.vars.iter().enumerate() {
                    if v.metadata().contains(flag) {
                        ids.push(VarId(i));
                        total += v.ncomp();
                    }
                }
                let pack = VariablePack {
                    ids,
                    total_components: total,
                };
                self.pack_cache.insert(flag.bits(), pack.clone());
                pack
            }
        }
    }

    /// Bytes of all variables on this block in Parthenon's layout (data +
    /// three face arrays per flux-bearing variable) — the Kokkos-attributed
    /// memory of the footprint model, see [`CellVariable::nbytes`].
    pub fn nbytes(&self) -> usize {
        self.vars.iter().map(CellVariable::nbytes).sum()
    }

    /// Bytes actually allocated for all variables on this block.
    pub fn resident_bytes(&self) -> usize {
        self.vars.iter().map(CellVariable::resident_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container() -> BlockData {
        let shape = IndexShape::new([8, 8, 8], 4, 3);
        let mut d = BlockData::new(shape);
        d.add_variable(
            "u",
            3,
            Metadata::INDEPENDENT | Metadata::FILL_GHOST | Metadata::WITH_FLUXES,
        );
        d.add_variable(
            "q",
            8,
            Metadata::INDEPENDENT | Metadata::FILL_GHOST | Metadata::WITH_FLUXES,
        );
        d.add_variable("d", 1, Metadata::DERIVED);
        d
    }

    #[test]
    fn ids_are_registration_order() {
        let mut d = container();
        assert_eq!(d.id_of("u"), Some(VarId(0)));
        assert_eq!(d.id_of("q"), Some(VarId(1)));
        assert_eq!(d.id_of("d"), Some(VarId(2)));
        assert_eq!(d.id_of("missing"), None);
    }

    #[test]
    fn pack_by_flag_selects_and_counts_components() {
        let mut d = container();
        let p = d.pack_by_flag(Metadata::FILL_GHOST);
        assert_eq!(p.ids(), &[VarId(0), VarId(1)]);
        assert_eq!(p.total_components(), 11);
        let derived = d.pack_by_flag(Metadata::DERIVED);
        assert_eq!(derived.len(), 1);
        let none = d.pack_by_flag(Metadata::TWO_STAGE);
        assert!(none.is_empty());
    }

    #[test]
    fn string_strategy_counts_lookups() {
        let mut d = container();
        d.set_pack_strategy(PackStrategy::StringKeyed);
        let before = d.string_lookup_count();
        d.pack_by_flag(Metadata::FILL_GHOST);
        d.pack_by_flag(Metadata::FILL_GHOST);
        // 3 variables scanned per call, twice.
        assert_eq!(d.string_lookup_count() - before, 6);
    }

    #[test]
    fn integer_strategy_caches() {
        let mut d = container();
        d.set_pack_strategy(PackStrategy::IntegerCached);
        let before = d.string_lookup_count();
        let p1 = d.pack_by_flag(Metadata::FILL_GHOST);
        let p2 = d.pack_by_flag(Metadata::FILL_GHOST);
        assert_eq!(p1, p2);
        assert_eq!(d.string_lookup_count(), before, "no string work");
    }

    #[test]
    fn cache_invalidated_by_new_variable() {
        let mut d = container();
        let p1 = d.pack_by_flag(Metadata::FILL_GHOST);
        d.add_variable("extra", 1, Metadata::FILL_GHOST);
        let p2 = d.pack_by_flag(Metadata::FILL_GHOST);
        assert_eq!(p2.len(), p1.len() + 1);
    }

    #[test]
    fn take_string_lookups_resets() {
        let mut d = container();
        d.id_of("u");
        d.id_of("q");
        assert_eq!(d.take_string_lookups(), 2);
        assert_eq!(d.string_lookup_count(), 0);
    }

    #[test]
    fn nbytes_sums_variables() {
        let d = container();
        let expected: usize = d.vars().iter().map(|v| v.nbytes()).sum();
        assert_eq!(d.nbytes(), expected);
        assert!(d.nbytes() > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_names_rejected() {
        let mut d = container();
        d.add_variable("u", 1, Metadata::NONE);
    }
}
