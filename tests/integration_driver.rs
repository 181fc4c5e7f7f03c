//! Cross-crate integration tests: the full driver + Burgers package +
//! communication + profiling stack on small 3D workloads.

use vibe_amr::prelude::*;

fn make_driver(nranks: usize, levels: u32) -> Driver<BurgersPackage> {
    let mesh = Mesh::new(
        MeshParams::builder()
            .dim(3)
            .mesh_cells(16)
            .block_cells(8)
            .max_levels(levels)
            .deref_gap(4)
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
            cfl: 0.25,
            ..Default::default()
        },
    );
    d.initialize(ic::gaussian_blob(1.0, 0.003));
    d
}

#[test]
fn amr_structure_stays_valid_across_cycles() {
    let mut d = make_driver(2, 3);
    for _ in 0..4 {
        d.step();
        // Tiling + level bound invariants.
        d.mesh().tree().validate().expect("tree valid");
        // 2:1 rule between every pair of neighbors.
        for b in d.mesh().blocks() {
            for nb in d.mesh().neighbors(b.gid()) {
                assert!(
                    (nb.loc.level() - b.level()).abs() <= 1,
                    "2:1 violated between {} and {}",
                    b.loc(),
                    nb.loc
                );
            }
        }
    }
}

#[test]
fn steepening_flow_triggers_refinement() {
    // Start *smooth and unrefined*: the initial sine gradient sits below the
    // refinement threshold. Burgers steepening must push it over, so the
    // hierarchy has to deepen at shock formation (t* = 1/(0.4·2π) ≈ 0.4).
    let mesh = Mesh::new(
        MeshParams::builder()
            .dim(3)
            .mesh_cells(16)
            .block_cells(8)
            .max_levels(2)
            .build()
            .expect("valid mesh"),
    )
    .expect("mesh");
    let pkg = BurgersPackage::new(BurgersParams {
        num_scalars: 1,
        refine_tol: 0.3,
        deref_tol: 0.0,
        ..Default::default()
    });
    let mut d = Driver::new(mesh, pkg, DriverParams::default());
    d.initialize(ic::sine_field(0.4));
    assert_eq!(d.mesh().num_blocks(), 8, "smooth IC must not refine");
    let mut saw_refine = false;
    for _ in 0..80 {
        if d.step().refined > 0 {
            saw_refine = true;
            break;
        }
    }
    assert!(
        saw_refine,
        "shock formation must refine the mesh (t={})",
        d.time()
    );
    assert!(d.mesh().num_blocks() > 8);
}

#[test]
fn scalar_mass_conserved_with_amr_and_flux_correction() {
    let mut d = make_driver(1, 2);
    d.run_cycles(5);
    let hist = d.history();
    let first = hist.first().expect("history recorded").1[0];
    let last = hist.last().expect("history recorded").1[0];
    assert!(
        ((first - last) / first).abs() < 1e-8,
        "mass drift: {first} -> {last}"
    );
}

#[test]
fn recorder_captures_every_pipeline_stage() {
    let mut d = make_driver(2, 2);
    d.run_cycles(2);
    let t = d.recorder().totals();
    let kernel_names: Vec<&str> = t.kernels.keys().map(|(_, n)| *n).collect();
    for required in [
        "CalculateFluxes",
        "WeightedSumData",
        "FluxDivergence",
        "SendBoundBufs",
        "SetBounds",
        "FirstDerivative",
        "Est.Time.Mesh",
        "MassHistory",
        "CalculateDerived",
    ] {
        assert!(kernel_names.contains(&required), "missing {required}");
    }
    assert!(t.serial.contains_key(&StepFunction::InitializeBufferCache));
    assert!(t.serial.contains_key(&StepFunction::RefinementTag));
    assert!(t.comm.contains_key(&StepFunction::SendBoundBufs));
    assert!(t.cell_updates > 0);
}

#[test]
fn rank_count_changes_message_locality_not_physics() {
    let mut d1 = make_driver(1, 2);
    let mut d4 = make_driver(4, 2);
    d1.run_cycles(3);
    d4.run_cycles(3);
    // Same physics: identical history (deterministic, rank-independent).
    let h1 = &d1.history().last().unwrap().1;
    let h4 = &d4.history().last().unwrap().1;
    assert!(
        (h1[0] - h4[0]).abs() < 1e-9,
        "mass must not depend on decomposition: {} vs {}",
        h1[0],
        h4[0]
    );
    // Different communication classification.
    let c1 = &d1.recorder().totals().comm[&StepFunction::SendBoundBufs];
    let c4 = &d4.recorder().totals().comm[&StepFunction::SendBoundBufs];
    assert_eq!(c1.p2p_remote_messages, 0);
    assert!(c4.p2p_remote_messages > 0);
    assert_eq!(
        c1.p2p_local_messages + c1.p2p_remote_messages,
        c4.p2p_local_messages + c4.p2p_remote_messages,
        "total message count is decomposition-independent"
    );
}

#[test]
fn solution_remains_finite_and_bounded() {
    let mut d = make_driver(2, 3);
    d.run_cycles(6);
    for slot in d.slots() {
        for var in slot.data.vars() {
            for &v in var.data().as_slice() {
                assert!(v.is_finite(), "non-finite value in {}", var.name());
                assert!(v.abs() < 10.0, "runaway value {v} in {}", var.name());
            }
        }
    }
}

/// FNV-1a over a canonical text rendering.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hashes of what `d` recorded: the `Recorder` totals per `StepFunction`
/// (kernel launches and cells, serial work by kind, p2p and collective
/// traffic, memory) and the sequenced `CommEvent` stream.
fn recorded_hashes(d: &Driver<BurgersPackage>) -> (u64, u64) {
    use std::fmt::Write;
    use vibe_amr::prof::MemSpace;
    let t = d.recorder().totals();
    let mut text = String::new();
    for ((func, name), k) in &t.kernels {
        writeln!(text, "kernel {func:?} {name} {} {}", k.launches, k.cells).unwrap();
    }
    for (func, s) in &t.serial {
        writeln!(
            text,
            "serial {func:?} {} {} {} {} {} {} {}",
            s.block_loop,
            s.boundary_loop,
            s.sorted_keys,
            s.string_lookups,
            s.allocations,
            s.host_copy_bytes,
            s.tree_ops
        )
        .unwrap();
    }
    for (func, c) in &t.comm {
        writeln!(
            text,
            "comm {func:?} {} {} {} {} {} {:?}",
            c.p2p_local_messages,
            c.p2p_remote_messages,
            c.p2p_local_bytes,
            c.p2p_remote_bytes,
            c.cells_communicated,
            c.collectives
        )
        .unwrap();
    }
    for space in [MemSpace::Kokkos, MemSpace::MpiBuffers] {
        let (now, peak) = (
            d.recorder().mem_current(space),
            d.recorder().mem_peak(space),
        );
        writeln!(text, "mem {space:?} {now} {peak}").unwrap();
    }
    let mut events = String::new();
    for e in d.comm_events() {
        writeln!(
            events,
            "{} {} {} {:?} {:?} {:?} {:?}",
            e.seq, e.rank, e.cycle, e.key, e.func, e.task, e.kind
        )
        .unwrap();
    }
    assert!(!d.comm_events().is_empty());
    (fnv(&text), fnv(&events))
}

/// The reference the platform model, the timeline simulator and every
/// figure binary hang off: what a `Driver` on a lone endpoint
/// *records* for a fixed Burgers Mesh 32/B8/L2 run, pinned by hash at
/// `nranks` {1, 4} x `host_threads` {1, 2}. The 2D run is ten cycles long
/// because it refines in cycle 0 and derefines in cycle 8 (three cycles of
/// the 3D problem cross no regrid, so it rides along once for its 26-way
/// neighbor lists). A refactor of the cycle must leave every constant
/// alone; a deliberate accounting change re-captures them.
#[test]
fn recorded_workload_is_pinned() {
    // (dim, cycles, nranks, host_threads, totals hash, event-stream hash)
    let pinned = [
        (
            2usize,
            10u64,
            1usize,
            1usize,
            0x7a2364cad524faec_u64,
            0x9464d4d509286bae_u64,
        ),
        (2, 10, 1, 2, 0x7a2364cad524faec, 0x9464d4d509286bae),
        (2, 10, 4, 1, 0x9e86c0a56f178734, 0xa7e22e030de283ff),
        (2, 10, 4, 2, 0x9e86c0a56f178734, 0xa7e22e030de283ff),
        (3, 3, 4, 2, 0x71bd48768e954e58, 0xb18ddbf7093760ba),
    ];
    for (dim, cycles, nranks, host_threads, want_totals, want_events) in pinned {
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(dim)
                .mesh_cells(32)
                .block_cells(8)
                .max_levels(2)
                .deref_gap(1)
                .build()
                .expect("valid mesh"),
        )
        .expect("mesh");
        let pkg = BurgersPackage::new(BurgersParams {
            num_scalars: 2,
            refine_tol: 0.5,
            deref_tol: 0.3,
            ..Default::default()
        });
        let params = DriverParams {
            nranks,
            host_threads,
            cfl: 0.4,
            capture_comm_events: true,
            ..Default::default()
        };
        let mut d = Driver::new(mesh, pkg, params);
        d.initialize(ic::gaussian_blob(3.0, 0.001));
        let summaries = d.run_cycles(cycles);
        if dim == 2 {
            assert!(
                summaries.iter().any(|s| s.refined > 0)
                    && summaries.iter().any(|s| s.derefined > 0),
                "the pinned run must refine and derefine"
            );
        }
        let got = recorded_hashes(&d);
        assert_eq!(
            got,
            (want_totals, want_events),
            "recorded workload moved at dim={dim} nranks={nranks} host_threads={host_threads}: \
             got ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}
