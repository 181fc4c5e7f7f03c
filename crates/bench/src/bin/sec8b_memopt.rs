//! §VIII-B — Reducing the memory footprint for more ranks: the
//! auxiliary-buffer restructuring from per-mesh-block 3D scratch to
//! per-thread-block 2D segments.
//!
//! Reproduces the paper's worked example (num_scalar = 8, nx1 = 8, ng = 4,
//! B = 8 bytes, 1024 thread blocks): 8.858 GB → 0.138 GB — and, over the
//! same block censuses, what the same restructuring did to this
//! repository's own host flux storage.

use vibe_bench::{format_table, paper_workload, run_workload};
use vibe_core::sweep::TILE_BUDGET_BYTES;
use vibe_hwmodel::memory::THREAD_BLOCKS;
use vibe_hwmodel::{aux_buffer_bytes, flux_storage_bytes, AuxBufferLayout, FluxStorage};
use vibe_serve::JobConfig;

fn main() {
    println!("== §VIII-B: auxiliary-buffer footprint optimization ==\n");

    // The restructured layout: 2-D segments over the concurrent thread blocks.
    let segments = AuxBufferLayout::PerThreadBlock {
        d: 2,
        thread_blocks: THREAD_BLOCKS,
    };

    // The paper's worked example at its own scale (~4096 blocks).
    let paper_blocks = 4096u64;
    let pre = aux_buffer_bytes(paper_blocks, 8, 4, 8, 3, AuxBufferLayout::PerMeshBlock3D);
    let post = aux_buffer_bytes(paper_blocks, 8, 4, 8, 3, segments);
    println!("Paper example (4096 mesh blocks, nx1=8, ng=4, num_scalar=8):");
    println!(
        "  pre-optimization : {:.3} GB   [paper 8.858 GB]",
        pre as f64 / 1e9
    );
    println!(
        "  post-optimization: {:.3} GB   [paper 0.138 GB]",
        post as f64 / 1e9
    );
    println!("  reduction        : {:.1}x\n", pre as f64 / post as f64);

    // The same formula over our measured block censuses.
    let (mut rows, mut host_rows) = (Vec::new(), Vec::new());
    for block in [8usize, 16] {
        let cfg = JobConfig {
            mesh_cells: 32,
            block_cells: block,
            cycles: 1,
            ..paper_workload()
        };
        let run = run_workload(&cfg, cfg.driver_params());
        let blocks = run.final_blocks as u64;
        let pre = aux_buffer_bytes(blocks, block, 4, 8, 3, AuxBufferLayout::PerMeshBlock3D);
        let post = aux_buffer_bytes(blocks, block, 4, 8, 3, segments);
        rows.push(vec![
            format!("B{block}"),
            blocks.to_string(),
            format!("{:.3}", pre as f64 / 1e9),
            format!("{:.3}", post as f64 / 1e9),
            format!("{:.1}x", pre as f64 / post as f64),
        ]);
        // This repository's host path: the flux storage of the evolved
        // variables before (three face arrays per block) and after (tile
        // scratch of two workers + divergence + outer face planes).
        let ncomp = 3 + cfg.num_scalars;
        let host = |layout| flux_storage_bytes(blocks, block, 4, ncomp, 3, layout);
        let pre = host(FluxStorage::PerBlockArrays);
        let post = host(FluxStorage::TileScratch {
            workers: 2,
            tile_budget_bytes: TILE_BUDGET_BYTES as u64,
        });
        host_rows.push(vec![
            format!("B{block}"),
            blocks.to_string(),
            format!("{:.1}", pre as f64 / 1e6),
            format!("{:.1}", post as f64 / 1e6),
            format!("{:.1}x", pre as f64 / post as f64),
        ]);
    }
    println!("Measured censuses (Mesh=32 scaled, L=3):");
    println!(
        "{}",
        format_table(
            &["Block", "#Blocks", "Pre (GB)", "Post (GB)", "Reduction"],
            &rows
        )
    );
    println!("The reduction frees HBM for additional MPI ranks per GPU, which");
    println!("§IV-E showed is the main lever against serial bottlenecks.\n");

    println!("This repository's host flux storage over the same censuses");
    println!("(3 + num_scalar = 7 components, 2 sweep workers):");
    println!(
        "{}",
        format_table(
            &["Block", "#Blocks", "Before (MB)", "After (MB)", "Reduction"],
            &host_rows
        )
    );
    println!("Before: three ghost-inclusive face arrays per variable per block.");
    println!("After: per-worker tile scratch, plus the divergence over the");
    println!("interior and the six outer face planes per block.");
}
