//! Integration tests of the platform model against real recorded
//! workloads: the paper's qualitative findings must emerge end-to-end.

use vibe_amr::prelude::*;

fn record(nranks: usize, block: usize, levels: u32) -> (Recorder, usize) {
    let mesh = Mesh::new(
        MeshParams::builder()
            .dim(3)
            .mesh_cells(16)
            .block_cells(block)
            .max_levels(levels)
            .build()
            .expect("valid mesh"),
    )
    .expect("mesh");
    let pkg = BurgersPackage::new(BurgersParams {
        num_scalars: 2,
        refine_tol: 0.05,
        deref_tol: 0.012,
        ..Default::default()
    });
    let mut d = Driver::new(
        mesh,
        pkg,
        DriverParams {
            nranks,
            ..Default::default()
        },
    );
    d.initialize(ic::gaussian_blob(1.0, 0.003));
    d.run_cycles(2);
    let blocks = d.mesh().num_blocks();
    (d.into_recorder(), blocks)
}

#[test]
fn single_rank_gpu_is_serial_dominated() {
    let (rec, _) = record(1, 8, 3);
    let rep = evaluate(&rec, &PlatformConfig::gpu(1, 1, 8));
    assert!(
        rep.serial_s + rep.comm_s > 3.0 * rep.kernel_s,
        "serial {} vs kernel {}",
        rep.serial_s + rep.comm_s,
        rep.kernel_s
    );
    assert!(rep.gpu_utilization < 0.35, "GPU mostly idle at 1 rank");
}

#[test]
fn ranks_per_gpu_improve_then_degrade() {
    let mut foms = Vec::new();
    for r in [1usize, 4, 12, 48] {
        let (rec, _) = record(r, 8, 3);
        let rep = evaluate(&rec, &PlatformConfig::gpu(1, r, 8));
        foms.push(rep.fom);
    }
    assert!(foms[1] > foms[0], "4 ranks beat 1: {foms:?}");
    assert!(foms[2] > foms[0], "12 ranks beat 1: {foms:?}");
    assert!(foms[3] < foms[2], "48 ranks roll over vs 12: {foms:?}");
}

#[test]
fn cpu_strong_scaling_holds() {
    let mut totals = Vec::new();
    for r in [4usize, 16, 48, 96] {
        let (rec, _) = record(r, 8, 3);
        let rep = evaluate(&rec, &PlatformConfig::cpu_only(r, 8));
        totals.push(rep.total_s);
    }
    for w in totals.windows(2) {
        assert!(w[1] < w[0], "more cores, less time: {totals:?}");
    }
}

#[test]
fn small_blocks_favor_cpu_large_blocks_favor_gpu() {
    // The Fig. 1(b)/Fig. 5 crossover, at reduced scale. B8 has hundreds of
    // blocks (serial-heavy); B16 only a handful of large ones.
    let (rec8, _) = record(12, 8, 3);
    let (rec8_cpu, _) = record(96, 8, 3);
    let gpu_b8 = evaluate(&rec8, &PlatformConfig::gpu(1, 12, 8));
    let cpu_b8 = evaluate(&rec8_cpu, &PlatformConfig::cpu_only(96, 8));
    let gpu_over_cpu_b8 = gpu_b8.fom / cpu_b8.fom;

    let (rec16, _) = record(12, 16, 3);
    let (rec16_cpu, _) = record(96, 16, 3);
    let gpu_b16 = evaluate(&rec16, &PlatformConfig::gpu(1, 12, 16));
    let cpu_b16 = evaluate(&rec16_cpu, &PlatformConfig::cpu_only(96, 16));
    let gpu_over_cpu_b16 = gpu_b16.fom / cpu_b16.fom;

    assert!(
        gpu_over_cpu_b16 > gpu_over_cpu_b8,
        "GPU advantage must shrink with smaller blocks: B16 {gpu_over_cpu_b16:.2} vs B8 {gpu_over_cpu_b8:.2}"
    );
}

#[test]
fn gpu_utilization_falls_with_smaller_blocks() {
    let (rec16, _) = record(1, 16, 3);
    let (rec8, _) = record(1, 8, 3);
    let u16 = evaluate(&rec16, &PlatformConfig::gpu(1, 1, 16)).gpu_utilization;
    let u8 = evaluate(&rec8, &PlatformConfig::gpu(1, 1, 8)).gpu_utilization;
    assert!(
        u8 < u16,
        "Fig. 1(c): utilization falls with block size: B16 {u16:.3} vs B8 {u8:.3}"
    );
}

#[test]
fn memory_model_limits_ranks_at_paper_scale() {
    use vibe_amr::hwmodel::MemoryModel;
    let gpu = GpuSpec::H100;
    let model = MemoryModel::default();
    // Paper-scale Mesh 128 / B8 / L3 census (~4 GB field data).
    let r12 = model.report(&gpu, 4 << 30, 4096, 8, 4, 8, 3, 12, 1 << 30);
    let r24 = model.report(&gpu, 4 << 30, 4096, 8, 4, 8, 3, 24, 1 << 30);
    assert!(
        !r12.oom,
        "12 ranks fit ({} GB)",
        r12.total() / 1_000_000_000
    );
    assert!(r24.oom, "24 ranks exceed HBM");
}

#[test]
fn two_nodes_help_cpu_more_than_gpu() {
    // Needs enough blocks to occupy 192 CPU ranks across two nodes; the
    // 16³ workload of `record` has too few, so build a larger one here.
    let record = |nranks: usize| -> (Recorder, usize) {
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(3)
                .mesh_cells(32)
                .block_cells(8)
                .max_levels(3)
                .build()
                .expect("valid mesh"),
        )
        .expect("mesh");
        let pkg = BurgersPackage::new(BurgersParams {
            num_scalars: 2,
            refine_tol: 0.05,
            deref_tol: 0.012,
            ..Default::default()
        });
        let mut d = Driver::new(
            mesh,
            pkg,
            DriverParams {
                nranks,
                ..Default::default()
            },
        );
        d.initialize(ic::multi_blob(0.9, 0.003, 4));
        d.run_cycles(2);
        let blocks = d.mesh().num_blocks();
        (d.into_recorder(), blocks)
    };
    let (rec_cpu, nblocks) = record(96);
    assert!(nblocks > 200, "workload large enough for 2-node CPU");
    let (rec_gpu, _) = record(8);
    let mut cpu1 = PlatformConfig::cpu_only(96, 8);
    let mut gpu1 = PlatformConfig::gpu(8, 1, 8);
    let cpu_s1 = evaluate(&rec_cpu, &cpu1).total_s;
    let gpu_s1 = evaluate(&rec_gpu, &gpu1).total_s;
    cpu1.nodes = 2;
    gpu1.nodes = 2;
    let cpu_s2 = evaluate(&rec_cpu, &cpu1).total_s;
    let gpu_s2 = evaluate(&rec_gpu, &gpu1).total_s;
    let cpu_speedup = cpu_s1 / cpu_s2;
    let gpu_speedup = gpu_s1 / gpu_s2;
    assert!(cpu_speedup > 1.0 && gpu_speedup > 0.5);
    assert!(
        cpu_speedup > gpu_speedup,
        "§V: CPU scales across nodes better: {cpu_speedup:.2} vs {gpu_speedup:.2}"
    );
}
