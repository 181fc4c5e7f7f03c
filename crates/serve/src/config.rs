//! Job configuration: the one description of a simulation run — what a
//! tenant submits and what every bench binary and test builds — with its
//! canonical form, the FNV-1a cache key derived from it, and the only
//! replica factory ([`JobConfig::replica`]).
//!
//! The `physics` field is a package *name* from the closed roster
//! [`vibe_physics::PACKAGES`] — the service accepts any name on it and
//! rejects others with a structured error carrying the roster. The cache
//! key deliberately EXCLUDES the execution geometry (`nranks`,
//! `threads`): the runtime's bitwise-reproducibility invariant means the
//! final solution fingerprint is identical for any rank/thread
//! decomposition of the same problem, so two jobs that differ only in
//! geometry are the *same* result and must share a cache entry. The physics name is part of the
//! canonical problem string, so two packages can never share an entry.

use std::fmt;
use std::sync::Arc;

use vibe_core::mesh::{Mesh, MeshParams};
use vibe_core::{restore_driver, Driver, DriverParams, DynPackage, Package, PackageSpec, Snapshot};
use vibe_ft::{FaultPlan, FaultPlanSpec, KillSpec};

use crate::json::{obj, Json};

/// The most cells, ghosts included, that [`JobConfig::validate`] lets a
/// fully refined mesh hold: those of the paper's workload
/// (`vibe_bench::paper_workload()`, 3-D Burgers Mesh 32/B8/L3, four ghosts).
const MAX_ALLOCATED_CELLS: u128 = 1 << 24;

/// A rejected configuration, structured so the HTTP layer can render a
/// machine-readable 4xx body instead of a bare message string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `physics` names no package of [`vibe_physics::PACKAGES`].
    UnknownPhysics {
        /// The name the tenant asked for.
        requested: String,
    },
    /// Any other malformed or out-of-bounds field.
    Invalid(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownPhysics { requested } => write!(
                f,
                "unknown physics package {requested:?} (registered: {})",
                vibe_physics::PACKAGES.join(", ")
            ),
            Self::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// The error as a structured JSON body: always `error` + `code`;
    /// unknown-physics rejections also carry `requested` and the roster
    /// as `registered` so a client can self-correct.
    pub fn to_json(&self) -> Json {
        match self {
            Self::UnknownPhysics { requested } => obj(vec![
                ("error", Json::Str(self.to_string())),
                ("code", Json::Str("unknown_physics".into())),
                ("requested", Json::Str(requested.clone())),
                (
                    "registered",
                    Json::Arr(vibe_physics::PACKAGES.map(|n| Json::Str(n.into())).into()),
                ),
            ]),
            Self::Invalid(msg) => obj(vec![
                ("error", Json::Str(msg.clone())),
                ("code", Json::Str("invalid_config".into())),
            ]),
        }
    }
}

impl From<String> for ConfigError {
    fn from(msg: String) -> Self {
        Self::Invalid(msg)
    }
}

impl From<&str> for ConfigError {
    fn from(msg: &str) -> Self {
        Self::Invalid(msg.to_string())
    }
}

/// One tenant-submitted simulation job.
///
/// The *problem* fields (everything except `nranks`/`threads`) define the
/// solution and form the cache key; the *geometry* fields only choose how
/// the work is decomposed and may be changed at resume time.
#[derive(Clone, Debug, PartialEq)]
pub struct JobConfig {
    /// Physics package name, one of [`vibe_physics::PACKAGES`].
    pub physics: String,
    /// Spatial dimension (1–3).
    pub dim: usize,
    /// Cells per side of the root mesh.
    pub mesh_cells: usize,
    /// Cells per side of one block.
    pub block_cells: usize,
    /// Maximum refinement levels.
    pub levels: usize,
    /// Cycles to advance.
    pub cycles: u64,
    /// Passive scalars (packages with a scalar bundle).
    pub num_scalars: usize,
    /// Refinement threshold.
    pub refine_tol: f64,
    /// CFL safety factor.
    pub cfl: f64,
    /// Derefinement gate cycles.
    pub deref_gap: u64,
    /// Virtual ranks to execute with (geometry, not identity).
    pub nranks: usize,
    /// Host threads per rank (geometry, not identity).
    pub threads: usize,
    /// Deterministic message-chaos seed; `0` disables fault injection.
    /// Like geometry, faults never change the answer (recovery replays
    /// to the bitwise-identical result), so this is not a problem field.
    pub fault_seed: u64,
    /// Rank to kill at the `kill_cycle` boundary (`None` = no kill).
    pub kill_rank: Option<usize>,
    /// Cycle boundary at which `kill_rank` dies.
    pub kill_cycle: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            physics: "advect".to_string(),
            dim: 2,
            mesh_cells: 32,
            block_cells: 8,
            levels: 2,
            cycles: 8,
            num_scalars: 1,
            refine_tol: 0.2,
            cfl: 0.3,
            deref_gap: 4,
            nranks: 1,
            threads: 1,
            fault_seed: 0,
            kill_rank: None,
            kill_cycle: 0,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl JobConfig {
    /// Canonical problem string: fixed field order, exact float bits
    /// (hex-encoded so `0.1` and any same-valued literal agree), geometry
    /// fields omitted. Equal canonical strings ⇒ bitwise-equal results;
    /// the physics name leads, so packages can never share a cache entry.
    pub fn canonical(&self) -> String {
        format!(
            "physics={};dim={};mesh={};block={};levels={};cycles={};scalars={};refine_tol={:016x};cfl={:016x};deref_gap={}",
            self.physics,
            self.dim,
            self.mesh_cells,
            self.block_cells,
            self.levels,
            self.cycles,
            self.num_scalars,
            self.refine_tol.to_bits(),
            self.cfl.to_bits(),
            self.deref_gap,
        )
    }

    /// FNV-1a over the canonical problem string: the result-cache key.
    pub fn cache_key(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for &b in self.canonical().as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Parses a job configuration from a submitted JSON object. Missing
    /// fields take the defaults; unknown fields are rejected so a typo'd
    /// field name cannot silently produce a different cache key.
    pub fn from_json(v: &Json) -> Result<Self, ConfigError> {
        let Json::Obj(m) = v else {
            return Err("config must be a JSON object".into());
        };
        const KNOWN: &[&str] = &[
            "physics",
            "dim",
            "mesh_cells",
            "block_cells",
            "levels",
            "cycles",
            "num_scalars",
            "refine_tol",
            "cfl",
            "deref_gap",
            "nranks",
            "threads",
            "fault_seed",
            "kill_rank",
            "kill_cycle",
        ];
        for k in m.keys() {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown config field '{k}'").into());
            }
        }
        let mut cfg = JobConfig::default();
        if let Some(p) = v.get("physics") {
            let name = p
                .as_str()
                .ok_or_else(|| ConfigError::from("physics must be a string"))?;
            cfg.physics = name.to_string();
            // Burgers defaults mirror the bench probe configuration.
            if cfg.physics == "burgers" {
                cfg.dim = 3;
                cfg.mesh_cells = 16;
                cfg.block_cells = 8;
                cfg.num_scalars = 2;
                cfg.refine_tol = 0.1;
                cfg.deref_gap = 10;
            }
        }
        let usize_field = |key: &str, dst: &mut usize| -> Result<(), ConfigError> {
            if let Some(x) = v.get(key) {
                *dst = x.as_u64().ok_or_else(|| {
                    ConfigError::from(format!("{key} must be a non-negative integer"))
                })? as usize;
            }
            Ok(())
        };
        usize_field("dim", &mut cfg.dim)?;
        usize_field("mesh_cells", &mut cfg.mesh_cells)?;
        usize_field("block_cells", &mut cfg.block_cells)?;
        usize_field("levels", &mut cfg.levels)?;
        usize_field("num_scalars", &mut cfg.num_scalars)?;
        usize_field("nranks", &mut cfg.nranks)?;
        usize_field("threads", &mut cfg.threads)?;
        if let Some(x) = v.get("cycles") {
            cfg.cycles = x.as_u64().ok_or("cycles must be a non-negative integer")?;
        }
        if let Some(x) = v.get("deref_gap") {
            cfg.deref_gap = x
                .as_u64()
                .ok_or("deref_gap must be a non-negative integer")?;
        }
        if let Some(x) = v.get("refine_tol") {
            cfg.refine_tol = x.as_f64().ok_or("refine_tol must be a number")?;
        }
        if let Some(x) = v.get("cfl") {
            cfg.cfl = x.as_f64().ok_or("cfl must be a number")?;
        }
        if let Some(x) = v.get("fault_seed") {
            cfg.fault_seed = x
                .as_u64()
                .ok_or("fault_seed must be a non-negative integer")?;
        }
        if let Some(x) = v.get("kill_rank") {
            cfg.kill_rank = Some(
                x.as_u64()
                    .ok_or("kill_rank must be a non-negative integer")? as usize,
            );
        }
        if let Some(x) = v.get("kill_cycle") {
            cfg.kill_cycle = x
                .as_u64()
                .ok_or("kill_cycle must be a non-negative integer")?;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Bounds-checks the configuration so a hostile submission cannot
    /// request an absurd mesh, a degenerate decomposition, or a physics
    /// package that does not exist.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !vibe_physics::PACKAGES.contains(&self.physics.as_str()) {
            return Err(ConfigError::UnknownPhysics {
                requested: self.physics.clone(),
            });
        }
        if !(1..=3).contains(&self.dim) {
            return Err("dim must be 1..=3".into());
        }
        if self.mesh_cells == 0 || self.mesh_cells > 256 {
            return Err("mesh_cells must be 1..=256".into());
        }
        if self.block_cells == 0 || !self.mesh_cells.is_multiple_of(self.block_cells) {
            return Err("block_cells must divide mesh_cells".into());
        }
        if self.levels == 0 || self.levels > 6 {
            return Err("levels must be 1..=6".into());
        }
        // Ghosts copy from the sender's interior; restricting a block onto
        // a coarser neighbour needs two ghost widths of it.
        let nghost = self.package()?.nghost();
        let need = if self.levels > 1 { 2 * nghost } else { nghost };
        if self.block_cells < need {
            return Err(format!(
                "block_cells must be >= {need} ({} has {nghost} ghost cells, levels {})",
                self.physics, self.levels
            )
            .into());
        }
        let cells = self.max_allocated_cells(nghost);
        if cells > MAX_ALLOCATED_CELLS {
            return Err(format!(
                "fully refined, the mesh holds {cells} cells with ghosts (limit {MAX_ALLOCATED_CELLS}): \
                 lower mesh_cells or levels, or raise block_cells"
            )
            .into());
        }
        if self.cycles == 0 || self.cycles > 100_000 {
            return Err("cycles must be 1..=100000".into());
        }
        if self.num_scalars > 16 {
            return Err("num_scalars must be <= 16".into());
        }
        if !(self.refine_tol.is_finite() && self.refine_tol > 0.0) {
            return Err("refine_tol must be finite and positive".into());
        }
        if !(self.cfl.is_finite() && self.cfl > 0.0 && self.cfl <= 1.0) {
            return Err("cfl must be in (0, 1]".into());
        }
        if self.nranks == 0 || self.nranks > 16 {
            return Err("nranks must be 1..=16".into());
        }
        if self.threads == 0 || self.threads > 16 {
            return Err("threads must be 1..=16".into());
        }
        if let Some(r) = self.kill_rank {
            if r >= self.nranks {
                return Err("kill_rank must name one of the job's ranks".into());
            }
            if self.kill_cycle >= self.cycles {
                return Err("kill_cycle must land inside the run".into());
            }
        }
        Ok(())
    }

    /// Cells, ghosts included, of the mesh refined everywhere to `levels`
    /// with `nghost`-deep ghost shells: the most a run of this config can
    /// allocate per variable component. The dimension and level bounds are
    /// checked first, so this cannot overflow.
    fn max_allocated_cells(&self, nghost: usize) -> u128 {
        let dim = self.dim as u32;
        let base = (self.mesh_cells / self.block_cells) as u128;
        let block = (self.block_cells + 2 * nghost) as u128;
        (base << (self.levels - 1)).pow(dim) * block.pow(dim)
    }

    /// Builds the package the physics name selects ([`vibe_physics::resolve`]),
    /// threading the problem-level fields through. Every package is built
    /// through this one type-erased path.
    pub fn package(&self) -> Result<DynPackage, String> {
        vibe_physics::resolve(
            &PackageSpec::named(&self.physics)
                .with_num_scalars(self.num_scalars)
                .with_tols(self.refine_tol, self.refine_tol * 0.25),
        )
        .ok_or_else(|| format!("unknown physics package {:?}", self.physics))
    }

    /// Builds the root mesh for a package needing `nghost` ghost layers.
    pub(crate) fn mesh(&self, nghost: usize) -> Result<Mesh, String> {
        let params = MeshParams::builder()
            .dim(self.dim)
            .mesh_cells(self.mesh_cells)
            .block_cells(self.block_cells)
            .max_levels(self.levels as u32)
            .nghost(nghost)
            .deref_gap(self.deref_gap)
            .build()
            .map_err(|e| e.to_string())?;
        Mesh::new(params).map_err(|e| e.to_string())
    }

    /// The driver parameters this configuration selects: its geometry and
    /// CFL, no observation. A caller that wants profiling, spans, the
    /// comm-event archive (`vibe-sim`'s input) or an ablation overrides
    /// fields: `DriverParams { prof_level: Full, ..cfg.driver_params() }`.
    pub fn driver_params(&self) -> DriverParams {
        DriverParams {
            nranks: self.nranks,
            host_threads: self.threads,
            cfl: self.cfl,
            ..DriverParams::default()
        }
    }

    /// Builds one replica of the run under `params`: the package's own
    /// initial condition on a fresh mesh, or `snapshot` restored — under
    /// any `(nranks, host_threads)`, which is how a checkpoint resumes on a
    /// new geometry and a dead rank's blocks are re-homed. An `RtSession`
    /// calls it once, on rank 0's thread, and hands each rank its blocks.
    ///
    /// # Panics
    ///
    /// Panics if the physics name is not on the roster, the mesh cannot be
    /// built, or `snapshot` does not belong to this problem; a service
    /// rules the first two out at submission.
    pub fn replica(&self, params: DriverParams, snapshot: Option<&Snapshot>) -> Driver<DynPackage> {
        let pkg = self.package().expect("physics on the roster");
        match snapshot {
            Some(snap) => restore_driver(snap, pkg, params).expect("restore own checkpoint"),
            None => {
                let mesh = self.mesh(pkg.nghost()).expect("constructible mesh");
                let mut d = Driver::new(mesh, pkg, params);
                d.initialize_package();
                d
            }
        }
    }

    /// The deterministic fault plan of the run, or `None` when chaos is
    /// off. A nonzero `fault_seed` turns on message faults at fixed modest
    /// rates (the seed schedules *which* messages); `kill_rank` arms a
    /// one-shot rank kill at the `kill_cycle` boundary.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if self.fault_seed == 0 && self.kill_rank.is_none() {
            return None;
        }
        let chaos = self.fault_seed != 0;
        Some(Arc::new(FaultPlan::new(FaultPlanSpec {
            seed: self.fault_seed,
            drop_per_mille: if chaos { 30 } else { 0 },
            delay_per_mille: if chaos { 60 } else { 0 },
            duplicate_per_mille: if chaos { 30 } else { 0 },
            delay_ticks: 2,
            kill: self.kill_rank.map(|rank| KillSpec {
                rank,
                cycle: self.kill_cycle,
            }),
        })))
    }

    /// Renders the full configuration (geometry included) as JSON for
    /// status responses. Fault fields appear only when chaos is on so
    /// the fault-free response stays byte-for-byte what it always was.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("physics", Json::Str(self.physics.clone())),
            ("dim", Json::Num(self.dim as f64)),
            ("mesh_cells", Json::Num(self.mesh_cells as f64)),
            ("block_cells", Json::Num(self.block_cells as f64)),
            ("levels", Json::Num(self.levels as f64)),
            ("cycles", Json::Num(self.cycles as f64)),
            ("num_scalars", Json::Num(self.num_scalars as f64)),
            ("refine_tol", Json::Num(self.refine_tol)),
            ("cfl", Json::Num(self.cfl)),
            ("deref_gap", Json::Num(self.deref_gap as f64)),
            ("nranks", Json::Num(self.nranks as f64)),
            ("threads", Json::Num(self.threads as f64)),
        ];
        if self.fault_seed != 0 {
            fields.push(("fault_seed", Json::Num(self.fault_seed as f64)));
        }
        if let Some(r) = self.kill_rank {
            fields.push(("kill_rank", Json::Num(r as f64)));
            fields.push(("kill_cycle", Json::Num(self.kill_cycle as f64)));
        }
        crate::json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn cache_key_ignores_geometry() {
        let a = JobConfig {
            nranks: 1,
            threads: 1,
            ..JobConfig::default()
        };
        let b = JobConfig {
            nranks: 4,
            threads: 2,
            ..JobConfig::default()
        };
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(a, b);
    }

    #[test]
    fn cache_key_sees_every_problem_field() {
        let base = JobConfig::default();
        let variants: Vec<JobConfig> = vec![
            JobConfig {
                physics: "burgers".into(),
                ..base.clone()
            },
            JobConfig {
                dim: 3,
                ..base.clone()
            },
            JobConfig {
                mesh_cells: 64,
                ..base.clone()
            },
            JobConfig {
                block_cells: 16,
                ..base.clone()
            },
            JobConfig {
                levels: 3,
                ..base.clone()
            },
            JobConfig {
                cycles: 9,
                ..base.clone()
            },
            JobConfig {
                num_scalars: 2,
                ..base.clone()
            },
            JobConfig {
                refine_tol: 0.25,
                ..base.clone()
            },
            JobConfig {
                cfl: 0.4,
                ..base.clone()
            },
            JobConfig {
                deref_gap: 7,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.cache_key(), base.cache_key(), "missed field: {v:?}");
        }
    }

    #[test]
    fn cache_key_separates_every_registered_package() {
        // Same problem geometry, different physics name: distinct keys,
        // so no package can ever be served another package's result.
        let keys: Vec<u64> = vibe_physics::PACKAGES
            .into_iter()
            .map(|physics| {
                JobConfig {
                    physics: physics.into(),
                    ..JobConfig::default()
                }
                .cache_key()
            })
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn from_json_equivalent_spellings_share_a_key() {
        // Different field order, defaulted vs explicit fields, different
        // geometry — one cache entry.
        let a =
            JobConfig::from_json(&parse(r#"{"cycles":8,"dim":2,"nranks":4}"#).unwrap()).unwrap();
        let b =
            JobConfig::from_json(&parse(r#"{"dim":2,"threads":2,"cycles":8,"cfl":0.3}"#).unwrap())
                .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn from_json_rejects_bad_input() {
        for bad in [
            r#"{"physics":"mhd"}"#,
            r#"{"physics":7}"#,
            r#"{"cycles":0}"#,
            r#"{"dim":4}"#,
            r#"{"mesh_cells":33}"#,
            r#"{"cfl":2.0}"#,
            r#"{"refine_tol":-1.0}"#,
            r#"{"nranks":99}"#,
            r#"{"typo_field":1}"#,
            r#"[1,2]"#,
            r#"{"cycles":1.5}"#,
        ] {
            assert!(
                JobConfig::from_json(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn the_fully_refined_mesh_is_bounded() {
        let cfg = |physics: &str, mesh_cells, block_cells, levels| JobConfig {
            physics: physics.to_string(),
            dim: 3,
            mesh_cells,
            block_cells,
            levels,
            ..JobConfig::default()
        };
        for bad in [
            cfg("diffusion", 256, 2, 1),
            cfg("advect", 256, 4, 1),
            cfg("advect", 64, 8, 6),
        ] {
            let err = bad.validate().expect_err("an oversized mesh");
            assert!(err.to_string().starts_with("fully refined"), "{err}");
        }
        // The paper's workload sits exactly at the limit.
        let paper = cfg("burgers", 32, 8, 3);
        assert_eq!(paper.max_allocated_cells(4), MAX_ALLOCATED_CELLS);
        assert_eq!(paper.validate(), Ok(()));
    }

    #[test]
    fn blocks_must_hold_the_ghost_width() {
        // advect and burgers keep 4 ghost layers, diffusion 2: one level
        // needs nghost cells a block, more levels 2 * nghost.
        let cfg = |json: &str| JobConfig::from_json(&parse(json).unwrap());
        for bad in [
            r#"{"block_cells":4,"cycles":2,"refine_tol":0.01}"#,
            r#"{"mesh_cells":16,"block_cells":2,"levels":1}"#,
            r#"{"physics":"burgers","block_cells":4,"levels":2}"#,
            r#"{"physics":"diffusion","mesh_cells":16,"block_cells":2,"levels":2}"#,
            r#"{"physics":"diffusion","mesh_cells":16,"block_cells":1,"levels":1}"#,
        ] {
            let err = cfg(bad).expect_err(bad);
            assert!(
                err.to_string().starts_with("block_cells must be >= "),
                "{err}"
            );
            assert_eq!(
                err.to_json().get("code").unwrap().as_str(),
                Some("invalid_config")
            );
        }
        for good in [
            r#"{"mesh_cells":16,"block_cells":4,"levels":1}"#,
            r#"{"mesh_cells":16,"block_cells":8,"levels":2}"#,
            r#"{"physics":"burgers","block_cells":8,"levels":2}"#,
            r#"{"physics":"diffusion","mesh_cells":16,"block_cells":4,"levels":2}"#,
            r#"{"physics":"diffusion","mesh_cells":16,"block_cells":2,"levels":1}"#,
        ] {
            cfg(good).unwrap_or_else(|e| panic!("rejected {good}: {e}"));
        }
    }

    #[test]
    fn unknown_physics_is_structured() {
        let err = JobConfig::from_json(&parse(r#"{"physics":"mhd"}"#).unwrap()).unwrap_err();
        let ConfigError::UnknownPhysics { requested } = &err else {
            panic!("expected UnknownPhysics, got {err:?}");
        };
        assert_eq!(requested, "mhd");
        let msg = err.to_string();
        assert!(
            msg.ends_with("(registered: advect, burgers, diffusion, euler)"),
            "{msg}"
        );
        let body = err.to_json();
        assert_eq!(body.get("code").unwrap().as_str(), Some("unknown_physics"));
        assert_eq!(body.get("requested").unwrap().as_str(), Some("mhd"));
    }

    #[test]
    fn every_registered_package_is_accepted() {
        for name in vibe_physics::PACKAGES {
            let cfg = JobConfig::from_json(&parse(&format!(r#"{{"physics":"{name}"}}"#)).unwrap())
                .unwrap_or_else(|e| panic!("rejected {name}: {e}"));
            assert_eq!(cfg.physics, name);
        }
    }

    #[test]
    fn burgers_defaults_mirror_bench_probe() {
        let c = JobConfig::from_json(&parse(r#"{"physics":"burgers"}"#).unwrap()).unwrap();
        assert_eq!(c.dim, 3);
        assert_eq!(c.mesh_cells, 16);
        assert_eq!(c.num_scalars, 2);
        assert_eq!(c.refine_tol, 0.1);
    }

    #[test]
    fn to_json_roundtrips_through_from_json() {
        let c = JobConfig {
            physics: "burgers".into(),
            dim: 3,
            mesh_cells: 16,
            block_cells: 8,
            levels: 2,
            cycles: 4,
            num_scalars: 2,
            refine_tol: 0.1,
            cfl: 0.3,
            deref_gap: 10,
            nranks: 2,
            threads: 1,
            fault_seed: 7,
            kill_rank: Some(1),
            kill_cycle: 2,
        };
        let back = JobConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.cache_key(), c.cache_key());
    }

    #[test]
    fn fault_fields_do_not_perturb_the_cache_key() {
        // Faults never change the answer — recovery replays to the
        // bitwise-identical result — so a chaos run and a clean run of
        // the same problem are the same cache entry.
        let clean = JobConfig::default();
        let chaotic = JobConfig {
            fault_seed: 0xBADC0DE,
            kill_rank: Some(0),
            kill_cycle: 3,
            ..JobConfig::default()
        };
        assert_eq!(clean.cache_key(), chaotic.cache_key());
        assert!(chaotic.validate().is_ok());
        // But a kill outside the job's geometry or run is rejected.
        assert!(JobConfig {
            kill_rank: Some(5),
            ..JobConfig::default()
        }
        .validate()
        .is_err());
        assert!(JobConfig {
            kill_rank: Some(0),
            kill_cycle: 99,
            ..JobConfig::default()
        }
        .validate()
        .is_err());
    }
}
