//! Checkpoint/restart: binary snapshots of the full simulation state.
//!
//! Hero-class AMR runs take weeks to months (§I), so restartability is a
//! baseline framework requirement. A snapshot captures the mesh hierarchy
//! (leaf set), simulation clock, every variable's cell data, and — since
//! format version 2 — the AMR continuation state a *resumed* run needs to
//! make bitwise-identical decisions: the configured derefinement gap, the
//! [`DerefGate`]'s per-region last-event cycles (the gate keys decisions on
//! absolute cycle numbers), and the history series accumulated so far.
//! Fluxes, ghost zones, and stage copies are transient and recomputed
//! after restore.
//!
//! The format is a small self-describing little-endian binary layout with
//! a magic number and version, independent of any serialization crate.
//! Only the current version reads; any other is `InvalidData`.
//!
//! Parsing is hardened for untrusted input: truncated, oversized-length,
//! and corrupt-magic streams return [`io::Error`] — never a panic, and
//! never an allocation proportional to a length field that the stream has
//! not actually backed with bytes.

use std::io::{self, Read, Write};

use vibe_mesh::{DerefGate, LogicalLocation, Mesh, MeshParams};
use vibe_prof::StepFunction;

use crate::block::BlockSlot;
use crate::driver::{Driver, DriverParams};
use crate::package::Package;

const MAGIC: &[u8; 4] = b"VAMR";
const VERSION: u32 = 2;

/// Upper bound on any per-item count read from the wire (blocks, gate
/// entries, history rows). Far above anything this workspace produces, but
/// small enough that a bounded pre-reservation cannot OOM.
const MAX_COUNT: u64 = 10_000_000;
/// Upper bound on a single variable's flattened cell-data length.
const MAX_DATA_LEN: u64 = 1 << 32;
/// Pre-reservation clamp: collections reserve at most this many elements
/// up front and grow geometrically as bytes actually arrive, so a forged
/// length field cannot trigger a huge allocation on a truncated stream.
const MAX_PREALLOC: usize = 1 << 16;

/// One block's variables: `(name, ncomp, cell data)` per entry.
pub type BlockVars = Vec<(String, usize, Vec<f64>)>;

/// A deserialized snapshot, ready to be restored into a driver.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Spatial dimensionality.
    pub dim: usize,
    /// Base mesh cells per dimension.
    pub mesh_size: [usize; 3],
    /// Block cells per dimension.
    pub block_size: [usize; 3],
    /// Total AMR levels.
    pub max_levels: u32,
    /// Ghost layers.
    pub nghost: usize,
    /// Minimum cycle gap between derefinements of the same region.
    pub deref_gap: u64,
    /// Simulation time.
    pub time: f64,
    /// Timestep at checkpoint.
    pub dt: f64,
    /// Completed cycles.
    pub cycle: u64,
    /// Leaf locations in Morton order.
    pub leaves: Vec<LogicalLocation>,
    /// Per block, per variable: (name, ncomp, cell data).
    pub block_vars: Vec<BlockVars>,
    /// Derefinement-gate state: `(parent, last event cycle)` sorted by
    /// location. Absolute-cycle keyed, so a resumed run regrids exactly
    /// like the uninterrupted one.
    pub gate: Vec<(LogicalLocation, u64)>,
    /// History reductions accumulated before the checkpoint, as
    /// `(cycle, values)`.
    pub history: Vec<(u64, Vec<f64>)>,
}

impl Snapshot {
    /// Reconstructs the [`MeshParams`] this snapshot was taken with.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn mesh_params(&self) -> Result<MeshParams, vibe_mesh::MeshError> {
        MeshParams::builder()
            .dim(self.dim)
            .mesh_size(self.mesh_size)
            .block_size(self.block_size)
            .max_levels(self.max_levels)
            .nghost(self.nghost)
            .deref_gap(self.deref_gap)
            .build()
    }

    /// Serializes the snapshot in the current (version 2) wire format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w_u32(w, VERSION)?;
        w_u32(w, self.dim as u32)?;
        for d in 0..3 {
            w_u64(w, self.mesh_size[d] as u64)?;
        }
        for d in 0..3 {
            w_u64(w, self.block_size[d] as u64)?;
        }
        w_u32(w, self.max_levels)?;
        w_u32(w, self.nghost as u32)?;
        w_u64(w, self.deref_gap)?;
        w_f64(w, self.time)?;
        w_f64(w, self.dt)?;
        w_u64(w, self.cycle)?;
        w_u64(w, self.leaves.len() as u64)?;
        for (loc, vars) in self.leaves.iter().zip(&self.block_vars) {
            w_loc(w, loc)?;
            w_block_vars(w, vars)?;
        }
        w_u64(w, self.gate.len() as u64)?;
        for (loc, last) in &self.gate {
            w_loc(w, loc)?;
            w_u64(w, *last)?;
        }
        w_u64(w, self.history.len() as u64)?;
        for (cycle, values) in &self.history {
            w_u64(w, *cycle)?;
            w_u32(w, values.len() as u32)?;
            for &v in values {
                w_f64(w, v)?;
            }
        }
        Ok(())
    }

    /// Parses a snapshot from `r` (format version 2 only).
    ///
    /// # Errors
    ///
    /// I/O errors, a bad magic/version, or malformed structure. Never panics
    /// and never allocates proportionally to unbacked length fields.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a vibe-amr snapshot (bad magic)"));
        }
        let version = r_u32(r)?;
        if version != VERSION {
            return Err(bad(format!("unsupported snapshot version {version}")));
        }
        let dim = r_u32(r)? as usize;
        if !(1..=3).contains(&dim) {
            return Err(bad("invalid dimension"));
        }
        let mut mesh_size = [0usize; 3];
        for m in &mut mesh_size {
            let v = r_u64(r)?;
            if v > MAX_DATA_LEN {
                return Err(bad("implausible mesh size"));
            }
            *m = v as usize;
        }
        let mut block_size = [0usize; 3];
        for b in &mut block_size {
            let v = r_u64(r)?;
            if v > MAX_DATA_LEN {
                return Err(bad("implausible block size"));
            }
            *b = v as usize;
        }
        let max_levels = r_u32(r)?;
        let nghost = r_u32(r)? as usize;
        if nghost > 4096 {
            return Err(bad("implausible ghost layer count"));
        }
        let deref_gap = r_u64(r)?;
        let time = r_f64(r)?;
        let dt = r_f64(r)?;
        let cycle = r_u64(r)?;
        let nblocks = r_count(r, MAX_COUNT, "block")?;
        let mut leaves = Vec::with_capacity(nblocks.min(MAX_PREALLOC));
        let mut block_vars = Vec::with_capacity(nblocks.min(MAX_PREALLOC));
        for _ in 0..nblocks {
            leaves.push(r_loc(r)?);
            block_vars.push(r_block_vars(r)?);
        }
        let ngate = r_count(r, MAX_COUNT, "gate entry")?;
        let mut gate = Vec::with_capacity(ngate.min(MAX_PREALLOC));
        for _ in 0..ngate {
            let loc = r_loc(r)?;
            let last = r_u64(r)?;
            gate.push((loc, last));
        }
        let nhist = r_count(r, MAX_COUNT, "history row")?;
        let mut history = Vec::with_capacity(nhist.min(MAX_PREALLOC));
        for _ in 0..nhist {
            let hcycle = r_u64(r)?;
            let len = r_u32(r)? as usize;
            if len > MAX_PREALLOC {
                return Err(bad("implausible history row length"));
            }
            history.push((hcycle, r_f64_vec(r, len)?));
        }
        Ok(Self {
            dim,
            mesh_size,
            block_size,
            max_levels,
            nghost,
            deref_gap,
            time,
            dt,
            cycle,
            leaves,
            block_vars,
            gate,
            history,
        })
    }
}

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_i64<W: Write>(w: &mut W, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_loc<W: Write>(w: &mut W, loc: &LogicalLocation) -> io::Result<()> {
    w_u32(w, loc.level() as u32)?;
    for d in 0..3 {
        w_i64(w, loc.lx_d(d))?;
    }
    Ok(())
}
fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn r_i64<R: Read>(r: &mut R) -> io::Result<i64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}
fn r_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}
fn r_loc<R: Read>(r: &mut R) -> io::Result<LogicalLocation> {
    let level = r_u32(r)? as i32;
    let lx = [r_i64(r)?, r_i64(r)?, r_i64(r)?];
    // LogicalLocation::new asserts on negative values; corrupt input must
    // surface as an error instead.
    if level < 0 || lx.iter().any(|&x| x < 0) {
        return Err(bad("negative logical location"));
    }
    Ok(LogicalLocation::new(level, lx[0], lx[1], lx[2]))
}

/// Reads a `u64` count and validates it against `cap`.
fn r_count<R: Read>(r: &mut R, cap: u64, what: &str) -> io::Result<usize> {
    let n = r_u64(r)?;
    if n > cap {
        return Err(bad(format!("implausible {what} count {n}")));
    }
    Ok(n as usize)
}

/// Reads `len` f64 values with bounded pre-reservation: a forged length on
/// a truncated stream fails at the first missing byte instead of
/// allocating `len * 8` bytes up front.
fn r_f64_vec<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<f64>> {
    let mut data = Vec::with_capacity(len.min(MAX_PREALLOC));
    for _ in 0..len {
        data.push(r_f64(r)?);
    }
    Ok(data)
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The `(name, ncomp, cell data)` list of one block's variables.
fn block_vars_of(slot: &BlockSlot) -> BlockVars {
    let var = |v: &vibe_field::CellVariable| {
        (
            v.name().to_string(),
            v.ncomp(),
            v.data().as_slice().to_vec(),
        )
    };
    slot.data.vars().iter().map(var).collect()
}

impl<P: Package> Driver<P> {
    /// Captures the full restartable state as an in-memory [`Snapshot`].
    ///
    /// # Panics
    ///
    /// Panics on a driver that was moved onto a fabric and holds only its
    /// own rank's blocks; those checkpoint collectively
    /// ([`Self::checkpoint`]).
    pub fn to_snapshot(&self) -> Snapshot {
        assert_eq!(
            self.slots().len(),
            self.mesh().num_blocks(),
            "to_snapshot needs every block resident"
        );
        self.snapshot_with(self.slots().iter().map(block_vars_of).collect())
    }

    /// Collectively assembles a full-run checkpoint at a cycle boundary:
    /// every endpoint of the transport contributes its resident blocks'
    /// variable data over an AllGather, and every one returns the
    /// identical complete [`Snapshot`] — the replicated mesh tree and
    /// clock, the derefinement-gate and history continuation state, and
    /// the gathered per-block cell data. No ghost traffic is in flight
    /// between cycles, so the boundary state is exactly the restartable
    /// state. On the only endpoint of a transport this is
    /// [`Self::to_snapshot`]: a plain copy, nothing encoded or gathered.
    ///
    /// Collective: every endpoint must call this at the same point of its
    /// cycle loop.
    ///
    /// # Panics
    ///
    /// Panics if a peer's payload is malformed or leaves a block
    /// uncovered (both indicate rank divergence, which the deterministic
    /// runtime rules out).
    pub fn checkpoint(&mut self) -> Snapshot {
        if self.endpoints() == 1 {
            return self.to_snapshot();
        }
        let payload = encode_rank_blocks(self.slots());
        let parts = self.gather_across_endpoints(StepFunction::Other, payload);
        let nblocks = self.mesh().num_blocks();
        let mut block_vars: Vec<BlockVars> = vec![Vec::new(); nblocks];
        for part in &parts {
            let blocks = decode_rank_blocks(part).expect("malformed peer checkpoint payload");
            for (gid, vars) in blocks {
                assert!(gid < nblocks, "peer checkpoint refers to unknown gid {gid}");
                block_vars[gid] = vars;
            }
        }
        assert!(
            block_vars.iter().all(|v| !v.is_empty()),
            "checkpoint gather left a block uncovered"
        );
        self.snapshot_with(block_vars)
    }

    /// The snapshot of this driver's replicated state around `block_vars`
    /// (one entry per block of the mesh, gid order).
    fn snapshot_with(&self, block_vars: Vec<BlockVars>) -> Snapshot {
        let mesh = self.mesh();
        let mp = mesh.params();
        Snapshot {
            dim: mp.dim(),
            mesh_size: mp.mesh_size(),
            block_size: mp.block_size(),
            max_levels: mp.max_levels(),
            nghost: mp.nghost(),
            deref_gap: mp.deref_gap(),
            time: self.time(),
            dt: self.dt(),
            cycle: self.cycle(),
            leaves: mesh.blocks().iter().map(|b| b.loc()).collect(),
            block_vars,
            gate: self.gate().entries(),
            history: self.history().to_vec(),
        }
    }

    /// Writes a restartable snapshot of the current state.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.to_snapshot().write_to(w)
    }
}

/// Parses a snapshot from `r` ([`Snapshot::read_from`]).
///
/// # Errors
///
/// I/O errors, a bad magic/version, or malformed structure.
pub fn read_snapshot<R: Read>(r: &mut R) -> io::Result<Snapshot> {
    Snapshot::read_from(r)
}

/// Reads one block's variable list (shared between the full snapshot
/// format and the per-rank checkpoint payloads).
fn r_block_vars<R: Read>(r: &mut R) -> io::Result<BlockVars> {
    let nvars = r_u32(r)? as usize;
    if nvars > 4096 {
        return Err(bad("implausible variable count"));
    }
    let mut vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        let name_len = r_u32(r)? as usize;
        if name_len > 4096 {
            return Err(bad("implausible variable name length"));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| bad("non-UTF8 variable name"))?;
        let ncomp = r_u32(r)? as usize;
        if ncomp > 65_536 {
            return Err(bad("implausible component count"));
        }
        let len = r_u64(r)?;
        if len > MAX_DATA_LEN {
            return Err(bad("implausible variable data length"));
        }
        vars.push((name, ncomp, r_f64_vec(r, len as usize)?));
    }
    Ok(vars)
}

fn w_block_vars<W: Write>(w: &mut W, vars: &[(String, usize, Vec<f64>)]) -> io::Result<()> {
    w_u32(w, vars.len() as u32)?;
    for (name, ncomp, data) in vars {
        let name = name.as_bytes();
        w_u32(w, name.len() as u32)?;
        w.write_all(name)?;
        w_u32(w, *ncomp as u32)?;
        w_u64(w, data.len() as u64)?;
        for &v in data {
            w_f64(w, v)?;
        }
    }
    Ok(())
}

/// Encodes the blocks one endpoint holds as a checkpoint-collective
/// payload: `count, then per block (gid, variable list)` in gid order (see
/// [`Driver::checkpoint`]).
fn encode_rank_blocks(slots: &[BlockSlot]) -> Vec<u8> {
    let mut buf = Vec::new();
    w_u64(&mut buf, slots.len() as u64).expect("vec write");
    for slot in slots {
        w_u64(&mut buf, slot.info.gid as u64).expect("vec write");
        w_block_vars(&mut buf, &block_vars_of(slot)).expect("vec write");
    }
    buf
}

/// Decodes a peer's checkpoint payload (see [`encode_rank_blocks`]).
fn decode_rank_blocks(bytes: &[u8]) -> io::Result<Vec<(usize, BlockVars)>> {
    let mut r = bytes;
    let count = r_count(&mut r, MAX_COUNT, "owned block")?;
    let mut out = Vec::with_capacity(count.min(MAX_PREALLOC));
    for _ in 0..count {
        let gid = r_u64(&mut r)? as usize;
        out.push((gid, r_block_vars(&mut r)?));
    }
    Ok(out)
}

/// Restores a driver from `snapshot` with the given physics package and
/// driver parameters. The package must register the same variables the
/// snapshot carries. The restored driver resumes at the checkpoint's
/// clock, derefinement-gate, and history state; `params.nranks` may differ
/// from the checkpointing run's — the rebuilt mesh is re-partitioned for
/// the new rank count, and the bitwise-reproducibility invariant makes the
/// continued solution independent of that choice.
///
/// # Errors
///
/// Mesh parameters that do not build, a base grid with more blocks than
/// the snapshot has leaves (refused before any mesh is built), mesh
/// reconstruction failures and variable mismatches are reported as
/// `InvalidData` I/O errors.
pub fn restore_driver<P: Package>(
    snapshot: &Snapshot,
    package: P,
    params: DriverParams,
) -> io::Result<Driver<P>> {
    let mesh_params = snapshot
        .mesh_params()
        .map_err(|e| bad(format!("bad mesh parameters: {e}")))?;
    // Every base block holds at least one leaf: refuse a grid the leaves
    // cannot cover before building it.
    let base = mesh_params.base_blocks();
    if base.iter().map(|&b| b as u128).product::<u128>() > snapshot.leaves.len() as u128 {
        return Err(bad(format!(
            "base grid of {base:?} blocks exceeds the snapshot's {} leaves",
            snapshot.leaves.len()
        )));
    }
    let mesh = Mesh::from_leaf_set(mesh_params, &snapshot.leaves)
        .map_err(|e| bad(format!("cannot rebuild mesh: {e}")))?;
    let mut driver = Driver::new(mesh, package, params);
    if driver.slots().len() != snapshot.block_vars.len() {
        return Err(bad("block count mismatch after mesh rebuild"));
    }
    // Mesh::from_leaf_set orders blocks along the Morton curve, as does the
    // snapshot (written from a live driver), so blocks correspond 1:1 —
    // but verify locations to be safe.
    for (slot, loc) in driver.slots().iter().zip(&snapshot.leaves) {
        if slot.info.loc != *loc {
            return Err(bad(format!(
                "block order mismatch: {} vs {}",
                slot.info.loc, loc
            )));
        }
    }
    for (slot, vars) in driver.slots_mut().iter_mut().zip(&snapshot.block_vars) {
        for (name, ncomp, data) in vars {
            let id = slot
                .data
                .id_of(name)
                .ok_or_else(|| bad(format!("package does not register `{name}`")))?;
            let var = slot.data.var_mut(id);
            if var.ncomp() != *ncomp || var.data().len() != data.len() {
                return Err(bad(format!("shape mismatch for `{name}`")));
            }
            var.data_mut().as_mut_slice().copy_from_slice(data);
        }
        let _ = slot.data.take_string_lookups();
    }
    driver.restore_clock(snapshot.time, snapshot.dt, snapshot.cycle);
    driver.restore_amr_state(
        DerefGate::from_entries(snapshot.deref_gap, &snapshot.gate),
        snapshot.history.clone(),
    );
    Ok(driver)
}

/// A recorder-less summary of what a snapshot holds (for diagnostics).
pub fn describe(snapshot: &Snapshot) -> String {
    format!(
        "snapshot: dim={} mesh={:?} block={:?} levels={} t={:.6} cycle={} blocks={}",
        snapshot.dim,
        snapshot.mesh_size,
        snapshot.block_size,
        snapshot.max_levels,
        snapshot.time,
        snapshot.cycle,
        snapshot.leaves.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::fingerprint_slots;
    use crate::test_package::Advect;
    use vibe_field::BlockData;
    use vibe_mesh::MeshParams;

    fn driver_with(mesh_cells: usize, max_levels: u32) -> Driver<Advect> {
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(2)
                .mesh_cells(mesh_cells)
                .block_cells(8)
                .max_levels(max_levels)
                .nghost(2)
                .deref_gap(4)
                .build()
                .unwrap(),
        )
        .unwrap();
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let mut d = Driver::new(mesh, pkg, DriverParams::default());
        d.initialize(|info, data: &mut BlockData| {
            let shape = *data.shape();
            let qid = data.id_of("q").unwrap();
            let geom = info.geom;
            let var = data.var_mut(qid);
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let c = geom.cell_center(
                        i as i64 - shape.nghost_d(0) as i64,
                        j as i64 - shape.nghost_d(1) as i64,
                        0,
                    );
                    let r2 = (c[0] - 0.5).powi(2) + (c[1] - 0.5).powi(2);
                    var.data_mut().set(0, 0, j, i, (-r2 / 0.002).exp());
                }
            }
        });
        d
    }

    fn driver() -> Driver<Advect> {
        driver_with(32, 2)
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut d = driver();
        d.run_cycles(3);
        let mut buf = Vec::new();
        d.write_snapshot(&mut buf).unwrap();

        let snap = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(snap.cycle, 3);
        assert_eq!(snap.leaves.len(), d.mesh().num_blocks());
        assert!((snap.time - d.time()).abs() < 1e-15);
        assert_eq!(snap.deref_gap, 4);
        assert_eq!(snap.gate, d.to_snapshot().gate);
        assert_eq!(snap.history, d.history().to_vec());

        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let restored = restore_driver(&snap, pkg, DriverParams::default()).unwrap();
        assert_eq!(restored.mesh().num_blocks(), d.mesh().num_blocks());
        assert_eq!(restored.cycle(), d.cycle());
        assert_eq!(restored.history(), d.history());
        for (a, b) in restored.slots().iter().zip(d.slots()) {
            assert_eq!(a.info.loc, b.info.loc);
            for (va, vb) in a.data.vars().iter().zip(b.data.vars()) {
                assert_eq!(va.data().as_slice(), vb.data().as_slice(), "{}", va.name());
            }
        }
    }

    #[test]
    fn restored_driver_continues_bitwise_identically() {
        // Run 8 cycles straight vs 3 + snapshot/restore + 5: the final
        // state must be bitwise identical (same fingerprint), including
        // gate-driven derefinement decisions after the restore point.
        let mut straight = driver();
        straight.run_cycles(8);

        let mut first = driver();
        first.run_cycles(3);
        let mut buf = Vec::new();
        first.write_snapshot(&mut buf).unwrap();
        let snap = read_snapshot(&mut buf.as_slice()).unwrap();
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let mut resumed = restore_driver(&snap, pkg, DriverParams::default()).unwrap();
        resumed.run_cycles(5);

        assert_eq!(resumed.cycle(), straight.cycle());
        assert_eq!(resumed.time().to_bits(), straight.time().to_bits());
        assert_eq!(resumed.mesh().num_blocks(), straight.mesh().num_blocks());
        assert_eq!(
            fingerprint_slots(resumed.slots()),
            fingerprint_slots(straight.slots())
        );
        assert_eq!(resumed.history(), straight.history());
    }

    #[test]
    fn bad_magic_rejected() {
        let data = b"NOPE\x02\x00\x00\x00";
        let err = read_snapshot(&mut data.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unsupported_version_rejected() {
        // Version 1 (no gate/history sections) is refused like any other.
        for version in [0u32, 1, 3, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&[0u8; 64]);
            let err = read_snapshot(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
        }
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let mut d = driver();
        d.run_cycles(1);
        let mut buf = Vec::new();
        d.write_snapshot(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_snapshot(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncation_at_any_length_errors_without_panic() {
        let mut d = driver_with(16, 1);
        d.run_cycles(1);
        let mut buf = Vec::new();
        d.write_snapshot(&mut buf).unwrap();
        // Every prefix of a valid snapshot must fail cleanly. Step 3 keeps
        // the quadratic scan cheap while still hitting every field kind.
        for len in (0..buf.len()).step_by(3) {
            let res = std::panic::catch_unwind(|| read_snapshot(&mut &buf[..len]));
            assert!(res.expect("no panic on truncation").is_err(), "len {len}");
        }
    }

    #[test]
    fn mutated_snapshots_never_panic() {
        let mut d = driver_with(16, 1);
        d.run_cycles(1);
        let mut buf = Vec::new();
        d.write_snapshot(&mut buf).unwrap();
        // Fuzz-style sweep: corrupt single bytes (several patterns) across
        // the whole buffer — structure-bearing fields densely, bulk data
        // sparsely — and require a clean Ok/Err, never a panic or OOM.
        let dense = 600.min(buf.len());
        let positions: Vec<usize> = (0..dense).chain((dense..buf.len()).step_by(97)).collect();
        for &pos in &positions {
            for pattern in [0x00u8, 0xff, buf[pos] ^ 0x01, buf[pos].wrapping_add(64)] {
                let mut m = buf.clone();
                m[pos] = pattern;
                let res = std::panic::catch_unwind(|| {
                    let _ = read_snapshot(&mut m.as_slice());
                });
                assert!(res.is_ok(), "panicked at byte {pos} pattern {pattern:#x}");
            }
        }
    }

    #[test]
    fn oversized_length_fields_error_without_oom() {
        let mut d = driver_with(16, 1);
        d.run_cycles(1);
        let mut buf = Vec::new();
        d.write_snapshot(&mut buf).unwrap();
        // Block count lives at a fixed offset: magic(4) version(4) dim(4)
        // mesh(24) block(24) levels(4) nghost(4) deref_gap(8) time(8)
        // dt(8) cycle(8) = 100.
        let mut huge_blocks = buf.clone();
        huge_blocks[100..108].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_snapshot(&mut huge_blocks.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A forged per-variable data length inside the first block: find
        // it via the first variable's name length field at offset 108 +
        // loc(28) + nvars(4) = 140.
        let name_len = u32::from_le_bytes(buf[140..144].try_into().unwrap()) as usize;
        let len_off = 144 + name_len + 4;
        let mut huge_data = buf;
        huge_data[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_snapshot(&mut huge_data.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// The version-2 wire bytes of a fixed run, pinned by length and
    /// FNV-1a hash: the encoder may be refactored, its output may not move.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let mut d = driver();
        d.run_cycles(3);
        let mut buf = Vec::new();
        d.to_snapshot().write_to(&mut buf).unwrap();
        let hash = buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!((buf.len(), hash), (33_812, 0xc0dd_5855_0da1_177d));
    }

    /// A valid snapshot's bytes with `patch` applied, through
    /// `read_snapshot` into `restore_driver`.
    fn restore_patched(patch: impl Fn(&mut [u8])) -> io::Result<()> {
        let mut d = driver_with(16, 1);
        d.run_cycles(1);
        let mut buf = Vec::new();
        d.write_snapshot(&mut buf).unwrap();
        patch(&mut buf);
        let snap = read_snapshot(&mut buf.as_slice())?;
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        restore_driver(&snap, pkg, DriverParams::default()).map(drop)
    }

    /// A forged level count parses, then is refused by the mesh
    /// parameters instead of panicking in the tree.
    #[test]
    fn forged_level_count_is_refused() {
        // magic(4) version(4) dim(4) mesh(24) block(24) = 60.
        let forge = |b: &mut [u8]| b[60..64].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = restore_patched(forge).expect_err("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Four leaves that claim a 2048 x 2048 base grid are refused before
    /// the grid is built, naming it.
    #[test]
    fn base_grid_beyond_the_leaves_is_refused_before_building() {
        let cells = (2048u64 * 8).to_le_bytes();
        let forge = |b: &mut [u8]| {
            b[12..20].copy_from_slice(&cells);
            b[20..28].copy_from_slice(&cells);
        };
        let err = restore_patched(forge).expect_err("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("base grid of [2048, 2048, 1] blocks"),
            "{err}"
        );
    }

    #[test]
    fn rank_block_payload_roundtrip() {
        let mut d = driver_with(16, 1);
        d.run_cycles(1);
        let snap = d.to_snapshot();
        let owned: Vec<BlockSlot> = d.slots().iter().step_by(2).cloned().collect();
        let payload = encode_rank_blocks(&owned);
        let decoded = decode_rank_blocks(&payload).unwrap();
        assert_eq!(decoded.len(), owned.len());
        for (gid, vars) in &decoded {
            assert_eq!(*gid % 2, 0);
            assert_eq!(vars, &snap.block_vars[*gid]);
        }
        // Corrupt payloads error, never panic.
        let mut bad_payload = payload;
        bad_payload[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_rank_blocks(&bad_payload).is_err());
    }

    #[test]
    fn describe_mentions_shape() {
        let mut d = driver();
        d.run_cycles(1);
        let mut buf = Vec::new();
        d.write_snapshot(&mut buf).unwrap();
        let snap = read_snapshot(&mut buf.as_slice()).unwrap();
        let desc = describe(&snap);
        assert!(desc.contains("cycle=1"));
        assert!(desc.contains("dim=2"));
    }
}
