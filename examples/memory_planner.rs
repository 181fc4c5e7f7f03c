//! Memory planner: how many MPI ranks fit on one H100 before OOM?
//!
//! Applies the paper's device-memory model (Fig. 10 + §VIII-B): Kokkos mesh
//! allocations are rank-independent, while MPI communication buffers and
//! Open MPI driver overhead grow per rank. The §VIII-B auxiliary-buffer
//! restructuring frees gigabytes, admitting more ranks — the paper's main
//! lever against the serial bottleneck.
//!
//! ```text
//! cargo run --release --example memory_planner
//! ```

use vibe_amr::hwmodel::{GpuSpec, MemoryModel};

const GB: f64 = 1e9;

fn max_ranks(
    model: &MemoryModel,
    gpu: &GpuSpec,
    field_bytes: u64,
    blocks: u64,
    nx1: usize,
) -> usize {
    let mut last_ok = 0;
    for ranks in 1..=64 {
        let rep = model.report(gpu, field_bytes, blocks, nx1, 4, 8, 3, ranks, 1 << 30);
        if rep.oom {
            break;
        }
        last_ok = ranks;
    }
    last_ok
}

fn main() {
    let gpu = GpuSpec::H100;
    println!(
        "H100 HBM capacity: {:.1} GB\n",
        gpu.mem_capacity as f64 / GB
    );
    println!(
        "{:<34} {:>10} {:>12} {:>12}",
        "configuration (paper-scale)", "#blocks", "aux buffers", "max ranks"
    );
    for (label, blocks, nx1, field_gb) in [
        ("Mesh 128 / B32 / L3", 64u64, 32usize, 18.0f64),
        ("Mesh 128 / B16 / L3", 512, 16, 22.0),
        ("Mesh 128 / B8  / L3", 4096, 8, 26.0),
    ] {
        for optimized in [false, true] {
            let model = MemoryModel {
                aux_layout_optimized: optimized,
            };
            let rep = model.report(
                &gpu,
                (field_gb * GB) as u64,
                blocks,
                nx1,
                4,
                8,
                3,
                1,
                1 << 30,
            );
            let ranks = max_ranks(&model, &gpu, (field_gb * GB) as u64, blocks, nx1);
            println!(
                "{:<34} {:>10} {:>9.2} GB {:>12}",
                format!("{label}{}", if optimized { " +§VIII-B" } else { "" }),
                blocks,
                rep.kokkos_aux_bytes as f64 / GB,
                ranks
            );
        }
    }
    println!("\nThe §VIII-B kernel restructuring (3D per-block scratch → 2D");
    println!("per-thread-block segments) shrinks auxiliary storage by ~64x at");
    println!("B8, converting wasted HBM into additional ranks per GPU.");
}
