//! One simulation problem and the single way the harness builds a driver
//! for it — the same construct-and-initialise sequence whether the driver
//! is stepped directly, becomes a rank replica, or mirrors a service job.

use vibe_amr::core::{Driver, DriverParams, DynPackage, PackageSpec};
use vibe_amr::mesh::{Mesh, MeshParams};
use vibe_amr::prof::ProfLevel;
use vibe_amr::serve::JobConfig;

use crate::trace::Tracer;

#[derive(Clone, Debug)]
pub struct Problem {
    pub physics: String,
    pub mesh: usize,
    pub block: usize,
    pub levels: u32,
    pub scalars: usize,
    pub tol: f64,
    pub cfl: f64,
    /// `None` keeps the mesh builder's default, as the AMR probes do.
    pub deref_gap: Option<u64>,
}

/// How a problem is executed; never changes its result.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    pub nranks: usize,
    pub threads: usize,
    pub prof: ProfLevel,
    pub spans: bool,
}

impl Geometry {
    pub fn plain(nranks: usize, threads: usize) -> Self {
        Self {
            nranks,
            threads,
            prof: ProfLevel::Off,
            spans: false,
        }
    }

    pub fn profiled(self, on: bool) -> Self {
        Self {
            prof: if on { ProfLevel::Full } else { ProfLevel::Off },
            ..self
        }
    }
}

impl Problem {
    /// The paper's 3-D Burgers benchmark with 4 passive scalars at CFL 0.3
    /// — with `tol = 0.1` the configuration behind the repo's golden
    /// fingerprint `d7a226efd9726631` (Mesh 64 / B16 / L2, 3 cycles).
    pub fn burgers(mesh: usize, block: usize, levels: u32, tol: f64) -> Self {
        Self {
            physics: "burgers".into(),
            mesh,
            block,
            levels,
            scalars: 4,
            tol,
            cfl: 0.3,
            deref_gap: None,
        }
    }

    /// The problem a service job solves, built exactly as `vibe-serve`
    /// builds its replicas, so a direct run reproduces the job's
    /// fingerprint.
    pub fn of_job(cfg: &JobConfig) -> Self {
        Self {
            physics: cfg.physics.clone(),
            mesh: cfg.mesh_cells,
            block: cfg.block_cells,
            levels: cfg.levels as u32,
            scalars: cfg.num_scalars,
            tol: cfg.refine_tol,
            cfl: cfg.cfl,
            deref_gap: Some(cfg.deref_gap),
        }
    }

    pub fn cells_per_block(&self) -> u64 {
        (self.block as u64).pow(3)
    }

    pub fn package(&self) -> DynPackage {
        vibe_amr::physics::resolve(
            &PackageSpec::named(&self.physics)
                .with_num_scalars(self.scalars)
                .with_tols(self.tol, self.tol * 0.25),
        )
        .expect("the benchmark only names registered packages")
    }

    pub fn mesh_params(&self, nghost: usize) -> MeshParams {
        let mut b = MeshParams::builder();
        b.dim(3)
            .mesh_cells(self.mesh)
            .block_cells(self.block)
            .max_levels(self.levels)
            .nghost(nghost);
        if let Some(gap) = self.deref_gap {
            b.deref_gap(gap);
        }
        b.build().expect("the benchmark's meshes are valid")
    }

    pub fn driver_params(&self, geo: Geometry) -> DriverParams {
        DriverParams {
            nranks: geo.nranks,
            cfl: self.cfl,
            host_threads: geo.threads,
            prof_level: geo.prof,
            capture_spans: geo.spans,
            // A long run must not hold every message event it ever saw:
            // with the default (`true`) resident memory grows each cycle.
            capture_comm_events: false,
            ..DriverParams::default()
        }
    }

    /// Package resolve, mesh build, driver construction and the
    /// AMR-adapted initialisation, each inside its own span.
    pub fn build(&self, geo: Geometry, tr: &mut Tracer) -> Driver<DynPackage> {
        let s = tr.begin("physics.resolve");
        let pkg = self.package();
        tr.end(s);
        let s = tr.begin("mesh.new");
        let mesh = Mesh::new(self.mesh_params(pkg.nghost())).expect("constructible mesh");
        tr.end(s);
        let s = tr.begin("core.driver_new");
        let mut driver = Driver::new(mesh, pkg, self.driver_params(geo));
        tr.end(s);
        let s = tr.begin("core.initialize");
        driver.initialize_package();
        tr.end(s);
        driver
    }

    /// [`Problem::build`] off the harness thread (inside a rank thread).
    pub fn build_untraced(&self, geo: Geometry) -> Driver<DynPackage> {
        self.build(geo, &mut Tracer::off())
    }
}
