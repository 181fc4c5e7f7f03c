#!/usr/bin/env bash
# Offline CI gate: tier-1 build+test, formatting, lints, and a dependency
# allowlist check. Must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

# The non-test lines of a source file, by the rule scripts/loc.sh counts with.
non_test() { awk -f scripts/non_test.awk "$1"; }

echo "==> dependency allowlist"
# Everything in the lockfile must be a workspace crate or on the allowlist
# (dev/bench-only: proptest + criterion and their transitive closure).
# Catches accidental `cargo add` of new external dependencies.
allowlist='^(vibe-[a-z]+|vibe_amr|vibe-amr)$'
dev_closure='^(proptest|criterion|criterion-plot|anes|autocfg|bitflags|bit-set|bit-vec|cast|cfg-if|ciborium|ciborium-io|ciborium-ll|clap|clap_builder|clap_lex|crossbeam|crossbeam-channel|crossbeam-deque|crossbeam-epoch|crossbeam-utils|crunchy|either|errno|fastrand|fnv|getrandom|half|hermit-abi|is-terminal|itertools|itoa|lazy_static|libc|libm|linux-raw-sys|log|memchr|num-traits|once_cell|oorandom|plotters|plotters-backend|plotters-svg|ppv-lite86|proc-macro2|quick-error|quote|rand|rand_chacha|rand_core|rand_xorshift|rayon|rayon-core|regex|regex-automata|regex-syntax|rustix|rusty-fork|ryu|same-file|serde|serde_derive|serde_json|syn|tempfile|unarray|unicode-ident|wait-timeout|walkdir|wasi|web-sys|wasm-bindgen.*|winapi.*|windows.*|js-sys|anstyle|aho-corasick|tinytemplate)$'
bad=$(grep '^name = ' Cargo.lock | sed 's/name = "\(.*\)"/\1/' |
    grep -Ev "$allowlist" | grep -Ev "$dev_closure" || true)
if [ -n "$bad" ]; then
    echo "unexpected dependencies in Cargo.lock:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> one implementation of the cycle"
# The cycle's task bodies and helpers (all `&mut self` methods, which tells
# `estimate_dt` from the Package hook of that name) each exist once under
# crates/core/src: a second definition is a fork of the cycle coming back.
for name in task_save_stage0 task_ghost_pack_send task_ghost_wait_unpack \
    task_flux task_fcorr_send task_fcorr_apply task_update task_fill_derived \
    task_history task_refinement_tag task_tree_update task_regrid \
    run_node step ensure_plan collect_tags estimate_dt; do
    count=$(grep -rhF "fn $name(&mut self" crates/core/src | wc -l)
    if [ "$count" -ne 1 ]; then
        echo "fn $name is defined $count times under crates/core/src" >&2
        exit 1
    fi
done
# The cycle is written once: one node table in driver.rs (CYCLE_NODES) is
# both the exported graph and what the driver sweeps, so every node name
# appears there and nowhere else in the driver; the second description, the
# general-purpose task list, the second task-kind enum, the graph sorter,
# the second view of the wall clock and the host-side key sort that nothing
# read stay deleted.
driver=crates/core/src/driver.rs
gone='build_cycle_list|STAGE_TASK_NAMES|last_cycle_timing|WallRegistry|fresh_recorder|div_and_planes_mut'
gone="$gone|TaskList|TaskId|add_task|execute_timed|execute_spanned|set_max_polls|SpanKind|span_kind|topo_order|GraphError|ExecStats|from_recorded_with_stages|cycle_task_list"
if grep -rnE "$gone" crates; then
    echo "a second cycle description or executor, a second timing view or dead code is back (see above)" >&2
    exit 1
fi
# One sweep with one call site: `fn execute` in tasks.rs, called (in
# non-test code) by Driver::step alone.
for file in crates/core/src/*.rs; do
    defs=$(grep -cE 'fn execute[<(]' "$file" || true)
    calls=$(non_test "$file" | grep -vF 'fn execute' | grep -cE '\bexecute\(' || true)
    want_defs=0 want_calls=0
    [ "$file" = crates/core/src/tasks.rs ] && want_defs=1
    [ "$file" = "$driver" ] && want_calls=1
    if [ "$defs" -ne "$want_defs" ] || [ "$calls" -ne "$want_calls" ]; then
        echo "$file: $defs definitions and $calls calls of the cycle sweep (want $want_defs and $want_calls)" >&2
        exit 1
    fi
done
# Comm events are stamped with a node's name in one place: Driver::run_node.
if non_test "$driver" | awk '/fn run_node\(/, /^    }$/ { next } /set_task\(/' | grep .; then
    echo "set_task( outside Driver::run_node in non-test $driver (see above)" >&2
    exit 1
fi
nodes='SaveStage0 MassHistory RefinementTag TreeUpdate Regrid EstimateTimeStep'
for stage in Stage0 Stage1; do
    for slot in PackSend InteriorFlux WaitUnpack ExteriorFlux FluxCorrSend FluxCorrApply Update FillDerived; do
        nodes="$nodes $stage::$slot"
    done
done
for name in $nodes; do
    count=$(non_test "$driver" | grep -cF "\"$name\"" || true)
    if [ "$count" -ne 1 ]; then
        echo "node name \"$name\" is written $count times in non-test $driver" >&2
        exit 1
    fi
done
if grep -n 'sort_unstable' crates/comm/src/cache.rs; then
    echo "crates/comm/src/cache.rs sorts boundary keys on the host again" >&2
    exit 1
fi

echo "==> one JSON implementation"
# crates/prof/src/json.rs is the only code under crates/ that escapes a
# string, formats a number or parses JSON; everything else builds `Json`
# values. A second parser, an escaped-key literal in a `format!`, or one of
# the deleted text-level helpers coming back fails here.
json=crates/prof/src/json.rs
for def in 'struct Parser' 'fn write_str' 'fn write_f64'; do
    where=$(grep -rlF "$def" crates --include='*.rs' | tr '\n' ' ')
    if [ "$where" != "$json " ] || [ "$(grep -cF "$def" "$json")" -ne 1 ]; then
        echo "'$def' must be defined exactly once, in $json (found in: $where)" >&2
        exit 1
    fi
done
for file in $(find crates/*/src -name '*.rs' ! -path "$json"); do
    if non_test "$file" | grep -nE '\\"[a-z_]+\\":'; then
        echo "$file writes JSON text by hand; build a Json value instead" >&2
        exit 1
    fi
done
gone='splice_attribution|splice_resilience|fn field\(|validate_json|validate_jsonl|rebadge_metrics|rt_gate|timing_probe'
if grep -rnE "$gone" crates scripts --include='*.rs' --include='*.sh' --include='*.toml' |
    grep -v '^scripts/ci.sh:'; then
    echo "a deleted JSON helper or binary is back (see above)" >&2
    exit 1
fi
if [ "$(grep -vE '^(//|$)' crates/serve/src/json.rs)" != 'pub use vibe_prof::json::*;' ]; then
    echo "crates/serve/src/json.rs must be only the re-export of vibe_prof::json" >&2
    exit 1
fi

echo "==> one run description"
# vibe_serve::JobConfig (crates/serve/src/config.rs) is the only description
# of a run and JobConfig::replica the only replica factory: in non-test code
# of the crates that launch runs, a package is resolved with its tolerances,
# a mesh is built and a driver is constructed there and nowhere else, and
# one closure in crates/rt/src/lib.rs turns a replica into a rank.
config=crates/serve/src/config.rs
for file in $(find crates/serve/src crates/bench/src crates/rt/src -name '*.rs' ! -path "$config"); do
    if non_test "$file" | grep -nE 'with_tols\(|MeshParams::builder\(\)|Driver::new\('; then
        echo "$file builds a replica by hand; use JobConfig::replica" >&2
        exit 1
    fi
done
# (`rank_thread(` occurs twice: its definition and its one call site.)
if [ "$(grep -c 'rank_thread(' crates/rt/src/lib.rs)" -ne 2 ]; then
    echo "crates/rt/src/lib.rs must spawn rank threads in exactly one place" >&2
    exit 1
fi
# The second spec type, the flux-backend knob, the two duplicate gates, the
# second launcher, the never-set driver options and the per-binary axis
# variables stay deleted.
gone='WorkloadSpec|build_workload_replica|FluxBackend|VIBE_FLUX_BACKEND|scalar-flux|package_matrix|simd_gate|try_run_distributed|remote_delivery_polls|history_every'
gone="$gone|VIBE_SCALE_(MESH|BLOCK|LEVELS|CYCLES)|VIBE_SIM_(MESH|BLOCK|LEVELS|CYCLES|PHYSICS)|VIBE_TRACE_(THREADS|CYCLES)|VIBE_SERVE_CYCLES"
if grep -rnE "$gone" crates tests examples scripts Cargo.toml --include='*.rs' --include='*.sh' --include='*.toml' |
    grep -v '^scripts/ci.sh:'; then
    echo "a deleted run description, knob, gate or launcher is back (see above)" >&2
    exit 1
fi

echo "==> one session per served job, no unwrapped service locks"
# A served job keeps its RtSession across slices, and the service builds one
# in one place (service::start_session). A poisoned lock under
# crates/serve/src is recovered (PoisonError::into_inner), never unwrapped,
# so one panic cannot take every later call down with it. (Whitespace and
# line breaks are dropped first, so a call split over lines still counts.)
service=crates/serve/src/service.rs
if [ "$(non_test "$service" | grep -cF 'RtSession::with_options')" -ne 1 ]; then
    echo "$service must build a job's session in exactly one place" >&2
    exit 1
fi
for file in crates/serve/src/*.rs; do
    joined=$(non_test "$file" | tr -d ' \n')
    if grep -qF '.lock().unwrap()' <<<"$joined" || grep -qF '.wait(st).unwrap()' <<<"$joined"; then
        echo "$file unwraps a lock or a condvar wait in non-test code" >&2
        exit 1
    fi
done

echo "==> one death signal"
# A dead rank is noticed one way: its endpoint leaves the fabric and every
# wait on a peer raises the typed payload vibe_comm::PeerLost, which only
# crates/comm/src raises; the conductor classifies failures by payload type,
# never by panic text. The gather timeout, the conductor's stall detector,
# the recovery options nobody set, the always-zero recovery bucket and every
# stall variant (the conductor's and the task sweep's) stay deleted.
gone='GatherTimeout|try_gather|channel_fabric_with_timeout|collective_timeout|detector_timeout|min_ranks|recovery_stall|is_cascade'
for file in $(find crates src/lib.rs tests examples -name '*.rs') README.md DESIGN.md; do
    case "$file" in
        *.rs) text=$(non_test "$file") ;;
        *) text=$(cat "$file") ;;
    esac
    if grep -nE "$gone" <<<"$text"; then
        echo "$file names a deleted failure-detection mechanism or option (see above)" >&2
        exit 1
    fi
done
for file in $(find crates/*/src -name '*.rs'); do
    if non_test "$file" | grep -nE '\bStalled\b'; then
        echo "$file has a stall variant" >&2
        exit 1
    fi
done
for file in crates/rt/src/*.rs; do
    if non_test "$file" | grep -nE 'contains\("(abandoned|Poison|disconnected)'; then
        echo "$file classifies a failure by its panic text" >&2
        exit 1
    fi
done
if grep -rlF 'panic_any(PeerLost' crates src tests examples | grep -v '^crates/comm/src/'; then
    echo "PeerLost is raised outside crates/comm/src (see above)" >&2
    exit 1
fi

echo "==> only a fabric waits"
# A driver fills every boundary between blocks it holds directly, whatever
# their rank labels, so only a message from a peer endpoint is ever waited
# for, and a wait on the only endpoint of a transport panics naming its node
# (Driver::yield_to_peers). The modeled progress-engine delay, the
# mailbox's overwriting second arrival path, the same-process mailbox
# route, the task sweep's poll budget and its error type, and the test-only
# probe counter stay deleted.
gone='REMOTE_DELIVERY_DELAY|set_remote_delivery_delay|arrival_delay|fn deliver\(|Route::Mailbox|TaskError|MAX_POLLS|max_polls|probe_calls'
if grep -rnE "$gone" crates; then
    echo "a simulated delivery delay, the same-process mailbox route or the poll budget is back (see above)" >&2
    exit 1
fi

echo "==> the comm layer keeps what is read"
# vibe-comm has one transport: a driver holding every block runs on a lone
# endpoint (endpoint 0 of channel_fabric(1), which Communicator::new builds),
# so the second transport and its loopback queue stay deleted. The event log
# holds only what a consumer reads (no posted-receive events), and one
# checker, validate_event_order(events, nranks), validates every log. In
# non-test code the only transports are ChannelTransport and ChaosTransport.
gone='SharedTransport|PostReceive|validate_multirank_event_order|loopback'
if grep -rnE "$gone" crates tests examples; then
    echo "a deleted transport, event kind or second event checker is back (see above)" >&2
    exit 1
fi
impls=$(for file in $(find crates src tests examples -name '*.rs'); do
    non_test "$file" | grep -oE 'impl ([a-z_]+::)*Transport for [A-Za-z]+' || true
done | sed -E 's/.* for //' | sort | tr '\n' ' ')
if [ "$impls" != "ChannelTransport ChaosTransport " ]; then
    echo "non-test code must implement Transport exactly for ChannelTransport and ChaosTransport, found: $impls" >&2
    exit 1
fi

echo "==> the workspace keeps what is read"
# The physics roster is a closed list: vibe_physics::PACKAGES names every
# package and vibe_physics::resolve builds one in a single match, so the
# runtime registry stays deleted. Public items whose only reader was their
# own unit test or doc-test stay deleted too.
unread='blocks_at_level|blocks_of_rank|level_boundary_count|ancestor_at|reversed|is_coarser|prune|leaf_rank'
unread+='|intersects|var_by_name|reduce_max|base_arithmetic_intensity|kernel_launches|disabled|is_noop'
unread+='|physical_flux_lanes|rebuild_count|in_flight|cycles_run|run_until|load_store|operational_intensity'
unread+='|stacked_bar|function_table|summary_line|resolve_name|standard_registry'
if grep -rnE --include='*.rs' "fn ($unread)\b" crates src/lib.rs tests examples ||
    grep -rnE --include='*.rs' 'PackageRegistry|RegistryError|BUCKET_NAMES|F64x4|F64x8|ProfLevel::parse' \
        crates src/lib.rs tests examples; then
    echo "a deleted registry or unread public item is back (see above)" >&2
    exit 1
fi

echo "==> one build per session"
# Rank 0's thread builds a session's whole replica once and cuts it
# (Driver::into_ranks); the other ranks receive their blocks. So in non-test
# crates/rt/src the replica factory is called at one site, and that call is
# the cut's input; Driver::with_transport moves a driver onto an endpoint
# and sheds nothing; and the per-rank factory bound stays gone.
rt_src=$(for file in crates/rt/src/*.rs; do non_test "$file"; done)
if [ "$(grep -cE '\bmake\(\)' <<<"$rt_src")" -ne 1 ] ||
    [ "$(grep -cF 'make().into_ranks()' <<<"$rt_src")" -ne 1 ]; then
    echo "crates/rt/src must call the replica factory once, as make().into_ranks()" >&2
    exit 1
fi
if non_test "$driver" | awk '/pub fn with_transport\(/, /^    }$/' | grep -n 'retain'; then
    echo "Driver::with_transport sheds blocks again; cut with Driver::into_ranks" >&2
    exit 1
fi
if grep -rnF 'Fn() -> Driver<P> + Send + Sync' crates/rt/src; then
    echo "a per-rank replica factory bound is back in crates/rt/src (see above)" >&2
    exit 1
fi

echo "==> the framework owns the pack"
# Packages supply per-block kernels (fill_derived, estimate_dt,
# refinement_indicator, history_contributions, fill_fluxes); the driver
# iterates the packs, records each launch (KernelDescriptor::record), folds
# the results and applies the refinement thresholds (RefinementPolicy::flag).
# So no package source names the pack machinery, and the Launcher wrapper
# stays deleted.
pkg_src=$(for file in crates/physics/src/*.rs crates/burgers/src/package.rs; do non_test "$file"; done)
if grep -nE 'ExecCtx|Recorder|Launcher|record_only|map_blocks|for_each_block|AmrFlag::Refine' <<<"$pkg_src"; then
    echo "a package iterates a pack, records a launch or tags by itself again (see above)" >&2
    exit 1
fi
if grep -rn --include='*.rs' --exclude-dir=target 'Launcher' crates src tests examples; then
    echo "the deleted Launcher wrapper is back (see above)" >&2
    exit 1
fi
if grep -nE 'vibe-(exec|prof)' crates/physics/Cargo.toml; then
    echo "vibe-physics depends on vibe-exec or vibe-prof again" >&2
    exit 1
fi

echo "==> the model is calibrated once"
# Every calibrated constant of the model is written once, in vibe-hwmodel,
# and both the analytic model (platform::evaluate) and the timeline
# simulator (vibe-sim) read it: the config types keep only what a caller
# varies and name no spec or cost table as a field. The simulator replays
# only recorded messages (no synthesized traffic, no launch-latency
# override), and the kernel catalog is the only kernel description (no
# generic fallback).
model_src=$(find crates/*/src -name '*.rs' | sort | while read -r file; do non_test "$file"; done)
if [ "$(grep -cF '0.6e-3' <<<"$model_src")" -ne 1 ] || grep -nF 'thread_blocks: 1024' <<<"$model_src"; then
    echo "a model constant is written twice: 0.6e-3 once, thread_blocks: 1024 nowhere in non-test crates/*/src" >&2
    exit 1
fi
if grep -rnE --include='*.rs' 'synth_comm|launch_latency_override|const GENERIC' crates; then
    echo "synthesized comm, the launch-latency override or the generic kernel is back (see above)" >&2
    exit 1
fi
field_type='^\s*(pub )?[a-z_]+: (SerialCosts|CommCosts|GpuSpec|CpuSpec)\b'
if non_test crates/sim/src/config.rs | grep -nE "$field_type" ||
    non_test crates/hwmodel/src/platform.rs | awk '/pub struct PlatformConfig/, /^}/' | grep -nE "$field_type"; then
    echo "SimConfig or PlatformConfig carries a spec or cost table again (see above)" >&2
    exit 1
fi

echo "==> the domain is the periodic unit cube"
# Every mesh is the periodic unit cube: no region type or setter, no
# periodicity flags, no physical boundary conditions and no per-block call
# for them in the stage visit. `fn region(` is matched only as the deleted
# MeshParams getter and builder setter; WallClock::region and a test
# helper of vibe-field keep the name.
cube_gone='RegionSize|apply_face_bc|BcKind|PHYSICAL_BC|physical_bcs|\.periodic\(\)'
cube_gone="$cube_gone|fn region\((&self\)|&mut self, region:)"
if grep -rnE --include='*.rs' --exclude-dir=target "$cube_gone" crates src tests examples ||
    [ -e crates/field/src/bc.rs ]; then
    echo "the open-boundary domain is back (see above, or crates/field/src/bc.rs exists)" >&2
    exit 1
fi

echo "==> one instrument, one gate"
# Wall-clock numbers come only from the repository benchmark
# (src/bin/benchmark) and pass/fail from the one `gate` binary: crates/bench
# is the 16 figure binaries plus `gate`, has no second timing loop
# (benches/), writes no BENCH document and reads no environment variable.
figures='ablations fig01_motivation fig04_mesh_size fig05_block_size fig06_amr_levels fig07_cpu_scaling fig08_gpu_ranks fig09_breakdown fig10_memory fig11_function_breakdown fig12_function_split fig13_opcodes paper_claims sec5_multinode sec8b_memopt tab3_microarch'
want=$(printf '%s.rs\n' $figures | cat - <(echo gate) | sort | tr '\n' ' ')
if [ "$(ls crates/bench/src/bin | sort | tr '\n' ' ')" != "$want" ]; then
    echo "crates/bench/src/bin must hold the 16 figure binaries and gate/, found:" >&2
    ls crates/bench/src/bin >&2
    exit 1
fi
if [ -e crates/bench/benches ] || [ -e BENCH_fom.json ]; then
    echo "crates/bench/benches or BENCH_fom.json is back" >&2
    exit 1
fi
if grep -rnE 'bench_fom|BENCH_fom|update_bench_json|env_or|std::env::var|VIBE_' crates/bench scripts |
    grep -v '^scripts/ci.sh:'; then
    echo "a deleted instrument, BENCH writer or environment knob is back (see above)" >&2
    exit 1
fi

echo "==> one flux storage, one sweep"
# Fluxes live in the sweep's per-worker tile scratch (crates/core/src/sweep.rs)
# and nowhere else: no per-block 3-D flux arrays or accessors to them, no
# face-band phase split, and one per-block sweep entry point that the stage
# sweep and the conformance harness go through.
gone='calculate_fluxes_phase|data_and_flux_mut|data_mut_and_fluxes|fluxes_mut|flux_mut|face_bands'
if grep -rnE "$gone" crates tests examples --include='*.rs'; then
    echo "a per-block flux array accessor or the face-band split is back (see above)" >&2
    exit 1
fi
if grep -rnF 'Option<[Array4; 3]>' crates/field; then
    echo "crates/field holds per-block 3-D flux arrays again (see above)" >&2
    exit 1
fi
count=$(grep -rhE 'fn sweep_block[<(]' crates/core/src | wc -l)
if [ "$count" -ne 1 ]; then
    echo "fn sweep_block is defined $count times under crates/core/src" >&2
    exit 1
fi

echo "==> one line walker"
# The framework owns the line loop (crates/core/src/sweep.rs: fill_lines ->
# flux_line -> flux_bundle) and packages supply pointwise kernels: no second
# walker, no per-face production path in a package, one lane width.
walker=crates/core/src/sweep.rs
for def in 'fn flux_line' 'fn flux_bundle' 'const LANES'; do
    where=$(grep -rlE "$def\b" crates --include='*.rs' | tr '\n' ' ')
    if [ "$where" != "$walker " ] || [ "$(grep -cE "$def\b" "$walker")" -ne 1 ]; then
        echo "'$def' must be defined exactly once, in $walker (found in: $where)" >&2
        exit 1
    fi
done
for file in $(find crates/burgers/src crates/physics/src -name '*.rs') crates/core/src/test_package.rs; do
    if non_test "$file" | grep -nE 'faces_to_fill\(|tile\.set\('; then
        echo "$file fills a tile face by face; call sweep::fill_lines" >&2
        exit 1
    fi
done

echo "==> each face once"
# The sweep evaluates every face flux exactly once per stage: the walker
# runs only full bundles along a row and bundles a row's remainder faces
# across rows, with no overlapped final bundle re-running faces already
# stored; and the stage update re-takes the divergence of the layers under
# flux-corrected faces from the fluxes the sweep kept (sweep::reduce_layers)
# with no re-sweep of them: no override mode for the planes, and no layer
# tiling, sweep entry point or flux fill in non-test update.rs (its tests
# sweep a block to have a divergence to update).
update=crates/core/src/update.rs
if grep -rnE 'Planes::Override|\bOverride\b' crates --include='*.rs'; then
    echo "the plane override of the correction re-sweep is back (see above)" >&2
    exit 1
fi
if non_test "$walker" | grep -niE 'overlap|bundle\(len - W\)'; then
    echo "$walker re-evaluates a row's last faces in an overlapped bundle (see above)" >&2
    exit 1
fi
if non_test "$update" | grep -nE 'sweep_slot|sweep_block|fill_fluxes|with_scratch|\.layer\(|\.tiles\('; then
    echo "$update re-sweeps the layers under corrected faces; re-reduce them (sweep::reduce_layers)" >&2
    exit 1
fi

echo "==> one visit per block, one nesting rule"
# A stage fills and sweeps a block in one visit (boundary::ghost_visit): the
# global fill, unpack and physical-boundary passes stay deleted. The nesting
# rule is NestingTable::enforce, fed by the mesh's cached table on the cycle
# path and by one derivation of the neighbour lists in the tree adapter.
for def in 'fn ghost_fill_direct' 'fn ghost_set_bounds' 'fn apply_physical_bcs'; do
    if grep -rnF "$def" crates --include='*.rs'; then
        echo "'$def' is back: the stage visit is the one fill path" >&2
        exit 1
    fi
done
for file in crates/core/src/*.rs; do
    if non_test "$file" | grep -nE 'enforce_proper_nesting\(|find_neighbors\('; then
        echo "$file searches the tree on the cycle path; use Mesh::proper_nesting / neighbor_gids" >&2
        exit 1
    fi
done
if [ "$(non_test crates/mesh/src/refinement.rs | grep -c 'find_neighbors(')" -gt 1 ]; then
    echo "crates/mesh/src/refinement.rs derives neighbour lists in more than one place" >&2
    exit 1
fi
# Lines that use the keyword, comment lines aside.
unsafe_sites=$(grep -rn 'unsafe' crates/*/src --include='*.rs' | grep -vcE '^[^:]+:[0-9]+:[[:space:]]*//')
if [ "$unsafe_sites" -gt 22 ]; then
    echo "$unsafe_sites unsafe sites under crates/*/src, at most 22 allowed" >&2
    exit 1
fi

echo "==> the halo is a stage property, not an option"
# Every stage but the last of a cycle fills only the stencil halo its sweep
# reads, and the last fills the whole ghost shell (boundary::GhostFill).
# That is chosen once, in Driver::task_flux: no run description or option
# carries a halo or shell field, and the ghost cells a fill writes are
# written by the row kernels of crates/field/src/buffer.rs alone (fluxcorr.rs
# writes face planes; boundary.rs's `Rows` is the storage they write into).
for spec in "$driver:DriverParams" crates/core/src/boundary.rs:ExchangeConfig \
    crates/serve/src/config.rs:JobConfig crates/rt/src/lib.rs:SessionOptions; do
    file=${spec%%:*} type=${spec##*:}
    if non_test "$file" | awk "/pub struct $type \\{/, /^}/" |
        grep -niE '^\s*(pub )?[a-z_]*(halo|shell|radius)[a-z_]*:'; then
        echo "$type in $file carries a halo or shell field (see above): which ghosts a stage fills is not an option" >&2
        exit 1
    fi
done
# Where a halo fill is asked for (comment lines and match arms aside).
halo_sites=$(for file in $(find crates -path '*/src/*.rs' | sort); do
    non_test "$file" | grep -vE '^\s*//|GhostFill::Halo\s*=>' | grep 'GhostFill::Halo' |
        sed "s|^.*|$file|" || true
done | uniq -c | awk '{ printf "%s:%s ", $2, $1 }')
if [ "$halo_sites" != "$driver:1 " ] ||
    ! non_test "$driver" | awk '/fn task_flux\(/, /^    }$/' | grep -q 'GhostFill::Halo'; then
    echo "the halo fill must be chosen once, in Driver::task_flux (found: $halo_sites)" >&2
    exit 1
fi
for file in $(find crates -path '*/src/*.rs' ! -name buffer.rs ! -name fluxcorr.rs); do
    if non_test "$file" | grep -nE '\.row_mut\(|fill\(SKIPPED\)'; then
        echo "$file writes transfer rows itself; ghost cells are written by crates/field/src/buffer.rs" >&2
        exit 1
    fi
done

echo "==> one trace"
# Every run writes one trace kind: a serial driver, a fabric session and the
# simulator all go through vibe_prof::TraceWriter (X spans on (pid, tid)
# tracks, M labels, s/f flow arrows), checked by the one validator, on the
# one clock (the process-wide span epoch). The async renderer, the
# multi-rank renderers, the second validator, the wall clock's private
# epoch and the trace a served job could never fill stay deleted.
writer=crates/prof/src/trace_export.rs
trace_gone='perfetto_async_trace_json|AsyncSpan|AsyncTraceStats|validate_async_trace'
trace_gone="$trace_gone|perfetto_multirank_trace_json|perfetto_multirank_trace_with_flows_json"
trace_gone="$trace_gone|validate_flow_events|FlowStats|to_async_spans|perfetto_trace_with_flows_json"
trace_gone="$trace_gone|measured_by_function|fn epoch\(|\.epoch\(\)|epoch: Instant"
if grep -rnE --include='*.rs' --exclude-dir=target "$trace_gone" crates tests examples ||
    grep -rnE 'trace_json|"trace"\]' crates/serve/src; then
    echo "a deleted trace renderer, validator, clock epoch or served trace is back (see above)" >&2
    exit 1
fi
for file in $(find crates -path '*/src/*.rs' ! -path "$writer"); do
    if non_test "$file" | grep -nF 'traceEvents'; then
        echo "$file writes a trace document itself; use vibe_prof::TraceWriter" >&2
        exit 1
    fi
done
validators=$(grep -rnE --include='*.rs' 'fn validate_[a-z_]*trace|fn validate_flow' crates src tests examples)
if [ "$(wc -l <<<"$validators")" -ne 1 ] || ! grep -q "^$writer:[0-9]*:pub fn validate_trace(" <<<"$validators"; then
    echo "fn validate_trace must be the one trace validator, in $writer (found: $validators)" >&2
    exit 1
fi
renderers=$(for file in crates/prof/src/*.rs; do non_test "$file"; done |
    grep -oE 'fn perfetto_[a-z_]*' | sort -u | tr '\n' ' ')
if [ "$renderers" != 'fn perfetto_trace_json ' ]; then
    echo "perfetto_trace_json must be the only perfetto_ fn in vibe-prof (found: $renderers)" >&2
    exit 1
fi

echo "==> one resampling implementation"
# Each inter-level operator exists once, as a vibe_field::RowProgram kernel:
# regrid refines and coarsens blocks with the ghost exchange's programs
# (RowProgram::refine / RowProgram::coarsen), so non-test amr.rs holds no
# slope limiter and no per-cell loop. The 1-D prolongation helper only its
# own tests read, the package CFL hook nothing applied and the two service
# retry settings nothing set stay deleted.
amr=crates/core/src/amr.rs
if non_test "$amr" | grep -nE 'minmod|\.get\(c,|\.set\(c,'; then
    echo "$amr resamples cell by cell again; run RowProgram::refine / coarsen" >&2
    exit 1
fi
if grep -rnE --exclude-dir=target 'prolongate_linear_1d|fn default_cfl|max_retries:|retry_backoff:' crates; then
    echo "a deleted resampling helper, package CFL hook or service retry setting is back (see above)" >&2
    exit 1
fi

echo "==> one receive queue"
# The mailbox keeps one FIFO queue of arrived messages per key and nothing
# else per key but the uid watermark: a receive pops the front of its
# key's queue, so the posted/in-flight/received slot state, its promotion
# step and its end-of-exchange reset stay deleted. ExecCtx is the one
# host-parallel entry point, so the free-function forms stay deleted too.
if grep -rnE --exclude-dir=target 'MessageStatus|mark_all_stale|fn promote\b' crates; then
    echo "the mailbox's slot state machine is back (see above); receive from the per-key FIFO" >&2
    exit 1
fi
if grep -rnE --exclude-dir=target 'pub fn (for_each_block_parallel|map_block_parallel)\b' crates; then
    echo "a second host-parallel entry point is back (see above); use ExecCtx" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (offline, deny warnings)"
cargo clippy --workspace --all-targets --offline -q -- -D warnings

echo "==> tier-1: release build"
cargo build --workspace --release --offline

echo "==> tier-1: tests"
cargo test -q --workspace --offline

echo "==> repository benchmark self-check"
# The benchmark (src/bin/benchmark) is a package of its own, pinned to
# public items of the workspace: building it and running its self-check
# (names equal to BENCHMARK.json, a miniature of every workload passes its
# fingerprint and cache-hit checks) makes a change to one of those items
# fail here instead of in the perf pipeline.
cargo run --release --offline --quiet --manifest-path src/bin/benchmark/Cargo.toml -- --check

# `gate <name> [job-config-json] [out-dir]` runs one self-checking scenario
# (strict JSON: an unknown field or an out-of-range value exits 2), prints
# its human tables and ends stdout with one verdict object; a failed check
# exits 1 with its message on stderr and in "failures". The simulator and
# attribution gates share this CI-sized Burgers problem.
ci_scale='{"physics":"burgers","mesh_cells":32,"block_cells":8,"levels":2,"cycles":2,"num_scalars":4}'
# Runs a gate, keeps its tables out of the log, and leaves the verdict line
# in $verdict for the caller's own assertions.
gate() {
    echo "==> gate $1"
    verdict=$(target/release/gate "$@" | tail -n 1) || true
    echo "$verdict"
    grep -q '"pass":true' <<<"$verdict"
}

# Full-profiling run: profiling must not perturb the state and the
# exporters must emit well-formed JSON.
gate trace \
    '{"physics":"burgers","mesh_cells":64,"block_cells":16,"levels":2,"cycles":2,"num_scalars":4,"threads":8}' \
    target/ci-trace
grep -q '"fingerprint":"9b9f0eb46a64f118"' <<<"$verdict"
# Independent offline sanity of the emitted artifacts.
grep -q '"traceEvents"' target/ci-trace/trace.json
grep -q '"displayTimeUnit"' target/ci-trace/trace.json
test "$(wc -l <target/ci-trace/metrics.jsonl)" -eq 2
grep -q '"pool"' target/ci-trace/metrics.jsonl

# Deterministic chaos + rank kill against real rank shards: a zero-rate
# fault plan must be byte-for-byte neutral, and killing a rank mid-run
# under seeded message faults must recover automatically — restore from
# the last periodic checkpoint, re-partition onto the survivors, replay —
# to the exact fault-free fingerprint within the bounded retry budget.
# (Expected-panic backtraces from the killed rank's cascade are routine on
# stderr.)
gate ft
grep -q '"kills":6[,}]' <<<"$verdict"
grep -q '"recoveries":6[,}]' <<<"$verdict"
grep -q '"fingerprint":"e0786d63ab143f55"' <<<"$verdict"

# Boots the HTTP front end on an ephemeral port and drives 8 jobs from 3
# tenants over real sockets: fails on a preempt/resume fingerprint mismatch
# (resumed under a different rank/thread geometry), a cache miss on an
# identical resubmission (or any recompute on a hit), tenant starvation
# (max/min mean turnaround > 3x), or a leaked thread after shutdown.
gate serve '{"cycles":10}'

# Fails on NaN/negative times, idle fractions outside [0,1], spans that
# overlap on one simulated track, calibration drift > 1%, a missing
# launch-bound regime at the smallest block size, or a trace that fails the
# offline validator.
gate sim "$ci_scale" target/ci-sim
grep -q '"traceEvents"' target/ci-sim/trace.json
grep -q '"ph":"X"' target/ci-sim/trace.json
grep -q '"thread_name"' target/ci-sim/trace.json

# Causal cross-rank attribution: fails if any fingerprint diverges with
# attribution on/off, any rank's buckets miss its wall by > 5%, < 90% of
# wall lands in named buckets, multi-rank runs match no cross-rank edges,
# or the exported flow trace fails the offline Perfetto validator.
gate attribution "$ci_scale" target/ci-scaling
grep -q '"dominant_loss_4rank":"' <<<"$verdict"
grep -q '"ph":"s"' target/ci-scaling/trace_flows.json
grep -q '"ph":"f"' target/ci-scaling/trace_flows.json

echo "==> code lines per crate (scripts/loc.sh)"
scripts/loc.sh

echo "==> results/ equals what the code prints (scripts/results.sh --check)"
scripts/results.sh --check

echo "CI green."
