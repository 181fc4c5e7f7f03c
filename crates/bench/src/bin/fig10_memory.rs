//! Fig. 10 — GPU device memory breakdown: Kokkos-managed allocations vs.
//! MPI communication buffers + Open MPI driver overhead, as ranks grow.
//!
//! Kokkos data bytes and the block census come from the functional run; the
//! per-rank MPI terms come from the memory model. A paper-scale column
//! extrapolates the measured per-block footprint to the paper's ~4096-block
//! Mesh 128 / B8 / L3 census.

use vibe_bench::{format_table, paper_workload, run_workload};
use vibe_hwmodel::{GpuSpec, MemoryModel};
use vibe_prof::MemSpace;
use vibe_serve::JobConfig;

const GB: f64 = 1e9;

fn main() {
    println!("== Fig. 10: device memory vs ranks (Mesh=32 scaled, B=8, L=3) ==\n");
    let cfg = JobConfig {
        mesh_cells: 32,
        block_cells: 8,
        nranks: 1,
        cycles: 2,
        ..paper_workload()
    };
    let run = run_workload(&cfg, cfg.driver_params());
    let blocks = run.final_blocks as u64;
    let field_bytes = run.recorder.mem_current(MemSpace::Kokkos).max(0) as u64;
    let buffer_peak = run.recorder.mem_peak(MemSpace::MpiBuffers).max(0) as u64;
    // Extrapolate to the paper's census.
    let paper_blocks = 4096u64;
    let scale = paper_blocks as f64 / blocks as f64;
    let paper_field = (field_bytes as f64 * scale) as u64;
    let paper_buffers = (buffer_peak as f64 * scale) as u64;

    let gpu = GpuSpec::H100;
    let model = MemoryModel::default();
    let mut rows = Vec::new();
    for ranks in [1usize, 2, 4, 6, 8, 12, 16] {
        let rep = model.report(
            &gpu,
            paper_field,
            paper_blocks,
            8,
            4,
            8,
            3,
            ranks,
            paper_buffers,
        );
        rows.push(vec![
            format!("GPU-{ranks}R"),
            format!("{:.1}", rep.kokkos_total() as f64 / GB),
            format!("{:.1}", rep.mpi_total() as f64 / GB),
            format!("{:.1}", rep.total() as f64 / GB),
            if rep.oom { "OOM".into() } else { "ok".into() },
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Config",
                "Kokkos (GB)",
                "MPI (GB)",
                "Total (GB)",
                "80GB HBM"
            ],
            &rows
        )
    );
    println!(
        "\nMeasured functional run: {} blocks, Kokkos field data {:.2} GB,",
        blocks,
        field_bytes as f64 / GB
    );
    println!("extrapolated to the paper's census of ~{paper_blocks} blocks ({scale:.1}x).");
    println!("\nPaper shape: Kokkos-managed memory is a large, rank-independent");
    println!("share; MPI buffers + driver grow with ranks and push 12 ranks to");
    println!("75.5 GB of the 80 GB HBM, with OOM shortly beyond.");
}
