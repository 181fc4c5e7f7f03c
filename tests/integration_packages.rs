//! Per-package reproducibility gates over the closed roster: every
//! physics package must produce its pinned golden fingerprint
//! serially, reproduce it bitwise through the distributed runtime's shard
//! merge at every `(ranks, threads)` combination — fresh and restored from
//! a mid-run checkpoint — and pass the framework's trait-conformance
//! harness. Every driver here comes from the one replica factory,
//! `JobConfig::replica`. The goldens are asserted against `PACKAGES`, so
//! adding a package without extending them fails here.

use std::sync::Arc;

use vibe_amr::prelude::*;

/// The gate scenario: Mesh 16 / Block 8 / 2 levels / 1 scalar for 3
/// cycles, the scenario matrix of README.md whose fingerprints the
/// goldens below pin.
fn scenario(physics: &str, nranks: usize, threads: usize) -> JobConfig {
    JobConfig {
        physics: physics.to_string(),
        dim: 3,
        mesh_cells: 16,
        block_cells: 8,
        levels: 2,
        cycles: 3,
        num_scalars: 1,
        refine_tol: 0.1,
        cfl: 0.3,
        deref_gap: 10,
        nranks,
        threads,
        ..JobConfig::default()
    }
}

/// Golden state fingerprints of the gate scenario, one per package
/// (FNV-1a over every variable of every block in gid order, the same fold
/// `vibe-rt` uses to merge shards). Re-record deliberately from
/// the failure message of the serial test below if physics changes; an
/// unintended change here is a reproducibility regression.
const GOLDEN: &[(&str, u64)] = &[
    ("advect", 0x1482_1ceb_743d_6110),
    ("burgers", 0x35e1_c88c_df08_823b),
    ("diffusion", 0x093f_4790_4f92_558a),
    ("euler", 0xb2fa_c775_6763_9cb5),
];

#[test]
fn goldens_cover_exactly_the_registered_roster() {
    let pinned: Vec<&str> = GOLDEN.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        pinned, PACKAGES,
        "package roster changed: re-record the golden fingerprints"
    );
    // Each physics actually computes something different.
    let mut distinct: Vec<u64> = GOLDEN.iter().map(|&(_, fp)| fp).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), GOLDEN.len(), "two packages share a golden");
}

#[test]
fn every_package_reproduces_its_golden_fingerprint_serially() {
    for &(name, golden) in GOLDEN {
        let cfg = scenario(name, 1, 1);
        let mut d = cfg.replica(cfg.driver_params(), None);
        d.run_cycles(cfg.cycles);
        assert_eq!(
            fingerprint_slots(d.slots()),
            golden,
            "{name}: serial gate-scenario fingerprint changed"
        );
    }
}

#[test]
fn every_package_is_bitwise_identical_across_ranks_and_threads() {
    for &(name, golden) in GOLDEN {
        for nranks in [1usize, 2, 4, 8] {
            for threads in [1usize, 8] {
                let cfg = scenario(name, nranks, threads);
                let run = run_distributed(nranks, cfg.cycles, move || {
                    cfg.replica(cfg.driver_params(), None)
                });
                assert_eq!(
                    run.fingerprint, golden,
                    "{name}: merged fingerprint diverged at {nranks} ranks x {threads} threads"
                );
                assert_eq!(run.nranks, nranks);
            }
        }
    }
}

/// The fresh and the restored arm of the one factory land on the same
/// golden: a serial replica checkpointed after one cycle resumes as rank
/// shards on another `(nranks, threads)` geometry.
#[test]
fn every_package_resumes_a_checkpoint_on_a_new_geometry_to_its_golden() {
    for &(name, golden) in GOLDEN {
        let fresh = scenario(name, 1, 1);
        let mut d = fresh.replica(fresh.driver_params(), None);
        d.run_cycles(1);
        let snapshot = Arc::new(d.to_snapshot());
        for (nranks, threads) in [(2usize, 8usize), (4, 1)] {
            let cfg = scenario(name, nranks, threads);
            let snap = Arc::clone(&snapshot);
            let run = run_distributed(nranks, cfg.cycles - 1, move || {
                cfg.replica(cfg.driver_params(), Some(&snap))
            });
            assert_eq!(
                run.fingerprint, golden,
                "{name}: restored run diverged at {nranks} ranks x {threads} threads"
            );
        }
    }
}

#[test]
fn every_package_passes_the_conformance_harness() {
    for name in PACKAGES {
        let report = check_package(|threads| {
            let cfg = scenario(name, 1, threads);
            cfg.replica(cfg.driver_params(), None)
        })
        .unwrap_or_else(|e| panic!("{name} violates a framework invariant: {e}"));
        assert_eq!(report.package, name);
        assert!(report.num_vars >= 1);
        assert!(report.flux_vars >= 1);
    }
}

/// FNV-1a over a canonical text rendering.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hash of everything a driver's `Recorder` totals hold: per kernel its
/// launches, cells, FLOPs and bytes; serial work by kind, string lookups
/// included; point-to-point and collective traffic.
fn totals_hash(d: &Driver<DynPackage>) -> u64 {
    use std::fmt::Write;
    let t = d.recorder().totals();
    let mut text = String::new();
    for ((func, name), k) in &t.kernels {
        let (l, c, f, b) = (k.launches, k.cells, k.flops, k.bytes);
        writeln!(text, "kernel {func:?} {name} {l} {c} {f} {b}").unwrap();
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
    fnv(&text)
}

/// What every package's driver records over the gate scenario — the
/// platform model's and the timeline simulator's input — pinned by hash
/// at `nranks` {1, 4} (one endpoint playing every rank label) for
/// `host_threads` 1 and 2 alike.
#[test]
fn every_package_records_the_parent_workload() {
    const PINNED: &[(&str, [u64; 2])] = &[
        ("advect", [0xe355_2dd0_4bc5_3747, 0xbd73_dac3_afcf_65f2]),
        ("burgers", [0x3afc_c3cf_b587_c3e4, 0x8705_5996_b1ac_b00e]),
        ("diffusion", [0xc36c_b2b0_2e84_37fc, 0x6a0e_787f_1592_54e8]),
        ("euler", [0xfcda_5124_3e20_796a, 0xf3e9_534d_7a7e_26b9]),
    ];
    let pinned: Vec<&str> = PINNED.iter().map(|&(n, _)| n).collect();
    assert_eq!(pinned, PACKAGES, "pin every package of the roster");
    let mut failures = Vec::new();
    for &(name, want) in PINNED {
        for (nranks, want) in [1usize, 4].into_iter().zip(want) {
            for threads in [1usize, 2] {
                let cfg = scenario(name, nranks, threads);
                let mut d = cfg.replica(cfg.driver_params(), None);
                d.run_cycles(cfg.cycles);
                let got = totals_hash(&d);
                if got != want {
                    failures.push(format!(
                        "{name} nranks {nranks} threads {threads}: {got:#018x}"
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "recorded workload moved:\n{}",
        failures.join("\n")
    );
}
