//! Rank sweep: find the best MPI rank count per GPU for a workload.
//!
//! Reproduces the experiment behind the paper's Fig. 8 for one
//! configuration, printing the FOM and time split at each rank count and
//! the memory feasibility of each point.
//!
//! ```text
//! cargo run --release --example rank_sweep
//! ```

use vibe_amr::hwmodel::MemoryModel;
use vibe_amr::prelude::*;
use vibe_amr::prof::MemSpace;

fn main() {
    let block = 8usize;
    println!("FOM vs ranks per GPU — Mesh=32 (scaled), B={block}, L=3\n");
    println!(
        "{:>5} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "ranks", "FOM", "kernel(s)", "serial(s)", "mem (GB)", "fits?"
    );
    let model = MemoryModel::default();
    let gpu = GpuSpec::H100;
    let mut best = (0usize, f64::MIN);
    for ranks in [1usize, 2, 4, 6, 8, 12, 16, 24] {
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(3)
                .mesh_cells(32)
                .block_cells(block)
                .max_levels(3)
                .build()
                .expect("valid mesh"),
        )
        .expect("mesh");
        let pkg = BurgersPackage::new(BurgersParams {
            num_scalars: 4,
            refine_tol: 0.06,
            ..Default::default()
        });
        let mut driver = Driver::new(
            mesh,
            pkg,
            DriverParams {
                nranks: ranks,
                ..Default::default()
            },
        );
        driver.initialize(ic::multi_blob(0.9, 0.003, 4));
        driver.run_cycles(2);
        let blocks = driver.mesh().num_blocks() as u64;
        let rec = driver.into_recorder();
        let rep = evaluate(&rec, &PlatformConfig::gpu(1, ranks, block));
        // Paper-scale memory feasibility for this rank count.
        let scale = 4096.0 / blocks as f64;
        let field = (rec.mem_current(MemSpace::Kokkos).max(0) as f64 * scale) as u64;
        let mem = model.report(&gpu, field, 4096, block, 4, 8, 3, ranks, 2 << 30);
        if rep.fom > best.1 && !mem.oom {
            best = (ranks, rep.fom);
        }
        println!(
            "{:>5} {:>12.3e} {:>10.4} {:>10.4} {:>10.1} {:>8}",
            ranks,
            rep.fom,
            rep.kernel_s,
            rep.serial_s + rep.comm_s,
            mem.total() as f64 / 1e9,
            if mem.oom { "OOM" } else { "yes" }
        );
    }
    println!(
        "\nbest feasible rank count: {} (paper: ~12 before collective",
        best.0
    );
    println!("overheads and the 80 GB HBM ceiling bite)");
}
