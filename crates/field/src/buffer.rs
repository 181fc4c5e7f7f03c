//! Ghost-zone boundary buffers: region computation, packing, and unpacking.
//!
//! For every (receiver block, neighbor) pair a [`BufferSpec`] describes
//! exactly which cells travel:
//!
//! * **Same level** — the sender's boundary-adjacent interior cells are
//!   copied verbatim into the receiver's ghost band ([`BufferMode::Copy`]).
//! * **Sender finer** — the sender *restricts* (averages) its fine cells to
//!   the receiver's resolution before packing, halving the per-dimension data
//!   volume ([`BufferMode::RestrictFromFine`]); this is Parthenon's
//!   restrict-before-send optimization.
//! * **Sender coarser** — the sender packs a coarse-resolution region
//!   (dilated by one cell for the interpolation stencil); the receiver
//!   performs slope-limited linear *prolongation* into its fine ghost cells
//!   ([`BufferMode::CoarseToFine`]).
//!
//! All index arithmetic is done in "unwrapped" global cell coordinates so
//! periodic wraparound needs no special cases.

use vibe_mesh::index::IndexDomain;
use vibe_mesh::{IndexRange, IndexShape, LogicalLocation, NeighborOffset};

use crate::array::Array4;
use crate::lanes::F64Lanes;
use crate::ops::{minmod, restrict_average};
use crate::region::Region;
use crate::variable::CellVariable;

/// Resampling relationship between sender and receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferMode {
    /// Sender at the same level: verbatim copy.
    Copy,
    /// Sender one level finer: averaged to receiver resolution on the sender.
    RestrictFromFine,
    /// Sender one level finer but *without* restrict-on-send: all fine cells
    /// ship and the receiver averages — the ablation of Parthenon's
    /// restriction-before-communication optimization (2^dim more data).
    FineUnrestricted,
    /// Sender one level coarser: coarse data shipped, prolongated on receive.
    CoarseToFine,
}

/// Complete description of one boundary buffer between a receiver block and
/// one of its neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSpec {
    mode: BufferMode,
    shape: IndexShape,
    /// Receiver storage indices to fill.
    recv_region: Region,
    /// Receiver block origin in receiver-level global cells.
    recv_origin: [i64; 3],
    /// Sender block origin in sender-level global cells (unwrapped).
    sender_origin: [i64; 3],
    /// For [`BufferMode::CoarseToFine`]: packed coarse global-index region.
    packed_region: Option<Region>,
}

impl BufferSpec {
    /// Resampling mode.
    pub fn mode(&self) -> BufferMode {
        self.mode
    }

    /// Receiver storage region filled by this buffer.
    pub fn recv_region(&self) -> &Region {
        &self.recv_region
    }

    /// Number of cells per component actually transmitted — the paper's
    /// "communicated cells" count. For restriction this is the *coarse*
    /// count; for coarse-to-fine it is the packed coarse region.
    pub fn cells_per_component(&self) -> usize {
        match self.mode {
            BufferMode::Copy | BufferMode::RestrictFromFine => self.recv_region.count(),
            BufferMode::FineUnrestricted => self.recv_region.count() << self.shape.dim(),
            BufferMode::CoarseToFine => self.packed_region.as_ref().map_or(0, Region::count),
        }
    }

    /// Total buffer length in `f64` elements for `ncomp` components.
    pub fn buffer_len(&self, ncomp: usize) -> usize {
        ncomp * self.cells_per_component()
    }
}

/// Computes the [`BufferSpec`] for data flowing from the neighbor leaf
/// `s_loc` into receiver `r_loc` across `offset` (direction receiver →
/// sender). `level_diff = s_loc.level() - r_loc.level()` must be −1, 0, or
/// +1 (the 2:1 rule).
///
/// # Panics
///
/// Panics if the level difference is outside ±1, or if restriction would
/// need fine cells beyond the sender's interior (`2·nghost > ncells`).
pub fn compute_buffer_spec(
    shape: &IndexShape,
    r_loc: &LogicalLocation,
    s_loc: &LogicalLocation,
    offset: &NeighborOffset,
) -> BufferSpec {
    compute_buffer_spec_with(shape, r_loc, s_loc, offset, true)
}

/// Like [`compute_buffer_spec`] but with restrict-on-send togglable:
/// `restrict_on_send = false` ships fine data at full resolution and
/// averages on the receiver (the paper's §II-C ablation; the buffer grows
/// by `2^dim`).
pub fn compute_buffer_spec_with(
    shape: &IndexShape,
    r_loc: &LogicalLocation,
    s_loc: &LogicalLocation,
    offset: &NeighborOffset,
    restrict_on_send: bool,
) -> BufferSpec {
    let level_diff = s_loc.level() - r_loc.level();
    assert!(
        (-1..=1).contains(&level_diff),
        "2:1 violation: level diff {level_diff}"
    );
    let dim = shape.dim();
    let off = offset.components();

    let mut recv_lo = [0i64; 3];
    let mut recv_hi = [0i64; 3];
    let mut recv_origin = [0i64; 3];
    let mut sender_origin = [0i64; 3];

    for d in 0..3 {
        let g = shape.nghost_d(d) as i64;
        let n = shape.ncells()[d] as i64;
        let o = off[d];
        recv_origin[d] = r_loc.lx_d(d) * n;

        // Receiver storage band.
        let (lo, hi) = if d >= dim || o == 0 {
            if level_diff == 1 && d < dim {
                // Sender (finer) covers only half the tangential span.
                let b = s_loc.lx_d(d) & 1;
                (g + b * n / 2, g + (b + 1) * n / 2 - 1)
            } else {
                (g, g + n - 1)
            }
        } else if o > 0 {
            (g + n, g + n + g - 1)
        } else {
            (0, g - 1)
        };
        recv_lo[d] = lo;
        recv_hi[d] = hi;

        // Unwrapped sender block coordinate at the sender's level.
        let candidate = r_loc.lx_d(d) + o;
        let u = match level_diff {
            0 => candidate,
            1 => {
                if d < dim {
                    2 * candidate + (s_loc.lx_d(d) & 1)
                } else {
                    candidate
                }
            }
            _ => {
                if d < dim {
                    candidate.div_euclid(2)
                } else {
                    candidate
                }
            }
        };
        sender_origin[d] = u * n;
        if level_diff == 1 && d < dim && o != 0 {
            assert!(
                2 * g <= n,
                "restriction needs 2*nghost <= block cells ({g} vs {n})"
            );
        }
    }

    let recv_region = Region::new([
        IndexRange::new(recv_lo[0], recv_hi[0]),
        IndexRange::new(recv_lo[1], recv_hi[1]),
        IndexRange::new(recv_lo[2], recv_hi[2]),
    ]);

    let (mode, packed_region) = match level_diff {
        0 => (BufferMode::Copy, None),
        1 if restrict_on_send => (BufferMode::RestrictFromFine, None),
        1 => (BufferMode::FineUnrestricted, None),
        _ => {
            // Coarse global region covering the receiver's ghost band,
            // dilated by one for the interpolation stencil, clamped to the
            // sender's interior.
            let mut ranges = [IndexRange::new(0, 0); 3];
            for d in 0..3 {
                if d >= dim {
                    ranges[d] = IndexRange::new(0, 0);
                    continue;
                }
                let g = shape.nghost_d(d) as i64;
                let n = shape.ncells()[d] as i64;
                let gmin = recv_origin[d] + recv_lo[d] - g;
                let gmax = recv_origin[d] + recv_hi[d] - g;
                let cmin = (gmin.div_euclid(2) - 1).max(sender_origin[d]);
                let cmax = (gmax.div_euclid(2) + 1).min(sender_origin[d] + n - 1);
                ranges[d] = IndexRange::new(cmin, cmax);
            }
            (BufferMode::CoarseToFine, Some(Region::new(ranges)))
        }
    };

    BufferSpec {
        mode,
        shape: *shape,
        recv_region,
        recv_origin,
        sender_origin,
        packed_region,
    }
}

/// Row-granular access to one block's cell storage (`(component, k, j, i)`
/// layout, `i` fastest): what a [`RowProgram`] reads from a sender and
/// writes into a receiver. Plain slices implement it by slicing; the ghost
/// exchange implements it over storage that several workers share, where
/// sender and receiver cannot both be ordinary references.
pub trait CellRows {
    /// The cells `start .. start + len`.
    fn row(&self, start: usize, len: usize) -> &[f64];
    /// The cells `start .. start + len`, writable.
    fn row_mut(&mut self, start: usize, len: usize) -> &mut [f64];
}

impl CellRows for [f64] {
    #[inline(always)]
    fn row(&self, start: usize, len: usize) -> &[f64] {
        &self[start..start + len]
    }

    #[inline(always)]
    fn row_mut(&mut self, start: usize, len: usize) -> &mut [f64] {
        &mut self[start..start + len]
    }
}

/// A compiled transfer between two blocks, as the exchange engine runs it:
/// a [`RowProgram`] moves ghost cells of a variable's data array, a
/// [`FluxProgram`](crate::FluxProgram) corrects one of its outer face
/// planes from a finer block's. `pack` then `unpack` is the wire path; `fill` moves the same
/// values straight from the sender's storage into the receiver's and yields
/// the same bits.
pub trait TransferProgram: Sync {
    /// How many arrays of a variable programs of this kind can address.
    const ARRAYS: usize;
    /// Those arrays.
    fn arrays(var: &CellVariable) -> &[Array4];
    /// The same arrays, mutably.
    fn arrays_mut(var: &mut CellVariable) -> &mut [Array4];
    /// Which of the sender's arrays this program reads.
    fn src_array(&self) -> usize;
    /// Which of the receiver's arrays this program writes.
    fn dst_array(&self) -> usize;
    /// Wire buffer length in `f64` for `ncomp` components.
    fn wire_len(&self, ncomp: usize) -> usize;
    /// One past the last storage index the program touches in an array of
    /// `ncomp` components (the bound a storage must satisfy).
    fn storage_span(&self, ncomp: usize) -> usize;
    /// Packs the sender's cells into `wire` (exactly `wire_len` long).
    fn pack<S: CellRows + ?Sized>(&self, ncomp: usize, src: &S, wire: &mut [f64]);
    /// Unpacks `wire` into the receiver's cells.
    fn unpack<D: CellRows + ?Sized>(&self, ncomp: usize, wire: &[f64], dst: &mut D);
    /// Moves the transfer's values from the sender's storage into the
    /// receiver's without a wire buffer where the mode allows; the other
    /// modes go through `scratch` (grown on demand, never shrunk).
    fn fill<S, D>(&self, ncomp: usize, src: &S, dst: &mut D, scratch: &mut Vec<f64>)
    where
        S: CellRows + ?Sized,
        D: CellRows + ?Sized;
}

/// A box of equal-length x-rows inside a cell storage: the first row's
/// start and the steps to the next row in j, in k and in the component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowBox {
    first: usize,
    step: [usize; 3],
}

impl RowBox {
    /// Rows of `len` cells stored back to back, `counts = [j, k]` of them
    /// per component — the layout of a wire buffer.
    fn dense(len: usize, counts: [usize; 2]) -> Self {
        Self {
            first: 0,
            step: [len, len * counts[0], len * counts[0] * counts[1]],
        }
    }

    #[inline(always)]
    fn at(&self, j: usize, k: usize, v: usize) -> usize {
        self.first + j * self.step[0] + k * self.step[1] + v * self.step[2]
    }
}

/// What a halo-only fill ([`RowProgram::fill_halo`]) writes, in debug
/// builds, into the ghost cells it skips: a NaN of fixed bits, so that a
/// read of the outer shell before the next full fill turns every result it
/// reaches into NaN, and two runs still compare bit for bit.
pub const SKIPPED: f64 = f64::from_bits(0x7ff8_0000_5ca1_ab1e);

/// The side of the receiver a face transfer fills: the normal axis and
/// whether it is the low side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Face {
    axis: u8,
    low: bool,
}

/// A [`BufferSpec`] compiled down to storage offsets: which sender rows are
/// read, which receiver rows are written, and how long they are. All the
/// global-index arithmetic of the spec is done once, here; running the
/// program is row moves and (for the resampling modes) row kernels.
///
/// [`RowProgram::pack`] followed by [`RowProgram::unpack`] is the wire path
/// ([`pack`] and [`unpack`] are exactly that); [`RowProgram::fill`] moves
/// the same values from sender to receiver storage without the wire buffer
/// and yields the same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct RowProgram {
    mode: BufferMode,
    /// Face transfers (one axis outside the receiver's interior): which
    /// face. `None` for edges and corners.
    face: Option<Face>,
    dim: usize,
    /// Receiver rows written: length and `[j, k]` counts.
    dst_len: usize,
    dst_counts: [usize; 2],
    dst: RowBox,
    /// Sender rows read (per fine sub-row for the restricting modes).
    src_len: usize,
    src_counts: [usize; 2],
    src: RowBox,
    /// Restricting modes: offsets of the `(ty, tz)` fine sub-rows covering
    /// one receiver row, from the first one, `tz` outer — the value order
    /// [`restrict_average`] folds.
    sub: [usize; 4],
    nsub: usize,
    /// [`BufferMode::CoarseToFine`]: global fine index of the first
    /// receiver cell and global coarse range of the packed region.
    fine0: [i64; 3],
    coarse: [IndexRange; 3],
}

impl RowProgram {
    /// Compiles `spec`, a ghost transfer.
    ///
    /// In debug builds, checks the invariant the direct fill of the ghost
    /// exchange rests on: every cell read lies in the sender's interior and
    /// every cell written lies in the receiver's ghost band.
    pub fn compile(spec: &BufferSpec) -> Self {
        let (prog, reads) = Self::lower(spec);
        // What lets the ghost exchange run the programs of different
        // receivers concurrently on shared storage: no program writes a
        // cell another one reads.
        let interior = |d| spec.shape.range(d, IndexDomain::Interior);
        debug_assert!(
            (0..3).all(|d| interior(d).contains(reads[d].s) && interior(d).contains(reads[d].e)),
            "{spec:?} reads outside the sender's interior"
        );
        let r = spec.recv_region.ranges();
        debug_assert!(
            (0..spec.shape.dim()).any(|d| r[d].e < interior(d).s || r[d].s > interior(d).e),
            "{spec:?} writes outside the receiver's ghost band"
        );
        prog
    }

    /// The regrid's prolongation from a block of `shape` into its child
    /// `child_index` (bit `d` of which picks the child's half along axis
    /// `d`): the slope-limited linear prolongation of the ghost exchange,
    /// from the parent's octant into the child's whole interior. The octant
    /// is read dilated by one cell, into the parent's ghosts where it meets
    /// the block edge, so every slope is two-sided. Parent and child are
    /// different containers, so [`RowProgram::compile`]'s check of a ghost
    /// transfer does not apply.
    pub fn refine(shape: &IndexShape, child_index: usize) -> Self {
        Self::octant(shape, child_index, BufferMode::CoarseToFine)
    }

    /// The regrid's restriction from child `child_index`'s interior into
    /// its octant of the parent's interior: the volume average of the
    /// ghost exchange's restrict-on-send.
    pub fn coarsen(shape: &IndexShape, child_index: usize) -> Self {
        Self::octant(shape, child_index, BufferMode::RestrictFromFine)
    }

    /// The regrid's transfer between a block of `shape` and its child
    /// `child_index` over the block's octant, in global cells with the
    /// parent's interior at the origin: the child's starts at `bit·n`, an
    /// even index, so a fine cell's parity is its child-local one.
    /// [`BufferMode::CoarseToFine`] fills the child's interior from the
    /// octant dilated by one cell; [`BufferMode::RestrictFromFine`] fills
    /// the octant from the child's interior.
    fn octant(shape: &IndexShape, child_index: usize, mode: BufferMode) -> Self {
        let refine = mode == BufferMode::CoarseToFine;
        let mut recv: [IndexRange; 3] =
            std::array::from_fn(|d| shape.range(d, IndexDomain::Interior));
        let mut packed = [IndexRange::new(0, 0); 3];
        let (mut recv_origin, mut sender_origin) = ([0i64; 3], [0i64; 3]);
        for d in 0..shape.dim() {
            let half = shape.ncells()[d] as i64 / 2;
            // The octant's first cell, counted from the parent's interior.
            let lo = ((child_index >> d) & 1) as i64 * half;
            if refine {
                recv_origin[d] = 2 * lo;
                packed[d] = IndexRange::new(lo - 1, lo + half);
            } else {
                sender_origin[d] = 2 * lo;
                recv[d] = IndexRange::new(recv[d].s + lo, recv[d].s + lo + half - 1);
            }
        }
        let spec = BufferSpec {
            mode,
            shape: *shape,
            recv_region: Region::new(recv),
            recv_origin,
            sender_origin,
            packed_region: refine.then(|| Region::new(packed)),
        };
        Self::lower(&spec).0
    }

    /// Compiles `spec` and returns the storage box it reads.
    fn lower(spec: &BufferSpec) -> (Self, [IndexRange; 3]) {
        let shape = &spec.shape;
        let dim = shape.dim();
        let (ex, ey) = (shape.entire_d(0), shape.entire_d(1));
        let storage = [ex, ex * ey, shape.entire_count()];
        let ng: [i64; 3] = std::array::from_fn(|d| shape.nghost_d(d) as i64);
        let r = spec.recv_region.ranges();
        let flat = |c: [i64; 3]| (c[2] as usize * ey + c[1] as usize) * ex + c[0] as usize;
        let fine0: [i64; 3] = std::array::from_fn(|d| spec.recv_origin[d] + r[d].s - ng[d]);
        let dst = RowBox {
            first: flat([r[0].s, r[1].s, r[2].s]),
            step: storage,
        };
        let outside: Vec<usize> = (0..dim)
            .filter(|&d| r[d].e < ng[d] || r[d].s >= ng[d] + shape.ncells()[d] as i64)
            .collect();
        let face = match outside[..] {
            [axis] => Some(Face {
                axis: axis as u8,
                low: r[axis].e < ng[axis],
            }),
            _ => None,
        };
        let mut prog = Self {
            mode: spec.mode,
            face,
            dim,
            dst_len: r[0].len(),
            dst_counts: [r[1].len(), r[2].len()],
            dst,
            src_len: r[0].len(),
            src_counts: [r[1].len(), r[2].len()],
            src: dst,
            sub: [0; 4],
            nsub: 1,
            fine0,
            coarse: [IndexRange::new(0, 0); 3],
        };
        // First sender cell read (storage indices) and cells read per axis.
        let (src_lo, src_n): ([i64; 3], [usize; 3]) = match spec.mode {
            BufferMode::Copy => (
                // Receiver and sender indices differ by a constant shift.
                std::array::from_fn(|d| r[d].s + spec.recv_origin[d] - spec.sender_origin[d]),
                std::array::from_fn(|d| r[d].len()),
            ),
            BufferMode::RestrictFromFine | BufferMode::FineUnrestricted => {
                // The 2^dim fine cells covering one receiver cell sit as
                // x-pairs in `nsub` sender rows.
                let t: [i64; 3] = std::array::from_fn(|d| if d < dim { 2 } else { 1 });
                prog.src.step = [t[1] as usize * ex, t[2] as usize * ex * ey, storage[2]];
                prog.src_len = 2 * prog.dst_len;
                prog.nsub = (t[1] * t[2]) as usize;
                for tz in 0..t[2] {
                    for ty in 0..t[1] {
                        prog.sub[(tz * t[1] + ty) as usize] = flat([0, ty, tz]);
                    }
                }
                (
                    std::array::from_fn(|d| fine0[d] * t[d] - spec.sender_origin[d] + ng[d]),
                    std::array::from_fn(|d| t[d] as usize * r[d].len()),
                )
            }
            BufferMode::CoarseToFine => {
                let packed = spec.packed_region.as_ref().expect("packed region present");
                let p = packed.ranges();
                prog.src_len = p[0].len();
                prog.src_counts = [p[1].len(), p[2].len()];
                prog.coarse = p;
                (
                    std::array::from_fn(|d| p[d].s - spec.sender_origin[d] + ng[d]),
                    std::array::from_fn(|d| p[d].len()),
                )
            }
        };
        prog.src.first = flat(src_lo);
        let reads =
            std::array::from_fn(|d| IndexRange::new(src_lo[d], src_lo[d] + src_n[d] as i64 - 1));
        (prog, reads)
    }

    fn dst_cells(&self) -> usize {
        self.dst_len * self.dst_counts[0] * self.dst_counts[1]
    }

    /// The part of this transfer that lies in the receiver's *stencil halo*
    /// of `radius` — the ghost cells with one coordinate outside the
    /// interior, at most `radius` deep — as a program of its own, or `None`
    /// for an edge or corner transfer, which writes none of it. The same
    /// row kernels run over a narrower box: an x-face's rows get shorter, a
    /// y- or z-face loses rows. A coarse→fine program keeps its packed
    /// region, so its slopes, and every value it writes, are unchanged.
    pub fn halo(&self, radius: usize) -> Option<Self> {
        let Face { axis, low } = self.face?;
        let a = usize::from(axis);
        let depth = [self.dst_len, self.dst_counts[0], self.dst_counts[1]][a];
        let keep = radius.min(depth);
        // Layers dropped in front of the kept ones: the outer ones of a
        // low face.
        let skip = if low { depth - keep } else { 0 };
        let mut prog = self.clone();
        let resampled = self.mode == BufferMode::CoarseToFine;
        if a == 0 {
            let ratio = self.src_len / self.dst_len;
            prog.dst_len = keep;
            prog.dst.first += skip;
            if !resampled {
                prog.src_len = keep * ratio;
                prog.src.first += skip * ratio;
            }
        } else {
            prog.dst_counts[a - 1] = keep;
            prog.dst.first += skip * self.dst.step[a - 1];
            if !resampled {
                prog.src_counts[a - 1] = keep;
                prog.src.first += skip * self.src.step[a - 1];
            }
        }
        prog.fine0[a] += skip as i64;
        Some(prog)
    }

    /// Fills the receiver's stencil halo of `radius` from this transfer
    /// ([`RowProgram::fill`] of [`RowProgram::halo`]) and leaves the rest
    /// of its cells — the *outer shell* — as they were. Debug builds write
    /// [`SKIPPED`] there first, so that nothing can read the shell before a
    /// full fill rewrites it.
    pub fn fill_halo<S, D>(
        &self,
        radius: usize,
        ncomp: usize,
        src: &S,
        dst: &mut D,
        scratch: &mut Vec<f64>,
    ) where
        S: CellRows + ?Sized,
        D: CellRows + ?Sized,
    {
        if cfg!(debug_assertions) {
            self.for_each_row(ncomp, |j, k, v| {
                dst.row_mut(self.dst.at(j, k, v), self.dst_len)
                    .fill(SKIPPED);
            });
        }
        if let Some(halo) = self.halo(radius) {
            halo.fill(ncomp, src, dst, scratch);
        }
    }

    /// Visits the receiver rows as `(j, k, component)`, in wire order.
    #[inline(always)]
    fn for_each_row(&self, ncomp: usize, mut f: impl FnMut(usize, usize, usize)) {
        for v in 0..ncomp {
            for k in 0..self.dst_counts[1] {
                for j in 0..self.dst_counts[0] {
                    f(j, k, v);
                }
            }
        }
    }

    /// Averages the sender's fine cells into the rows of `out`.
    fn restrict_rows<S, D>(&self, ncomp: usize, src: &S, out: &mut D, out_box: &RowBox)
    where
        S: CellRows + ?Sized,
        D: CellRows + ?Sized,
    {
        let (n, fine) = (self.dst_len, self.src_len);
        self.for_each_row(ncomp, |j, k, v| {
            let base = self.src.at(j, k, v);
            let row = out.row_mut(out_box.at(j, k, v), n);
            match self.nsub {
                1 => restrict_row([src.row(base, fine)], row),
                2 => restrict_row([0, 1].map(|g| src.row(base + self.sub[g], fine)), row),
                _ => restrict_row([0, 1, 2, 3].map(|g| src.row(base + self.sub[g], fine)), row),
            }
        });
    }

    /// Slope-limited linear prolongation of the packed coarse cells in
    /// `wire` into the receiver's fine ghost cells.
    ///
    /// A fine cell `g` prolongates from coarse cell `c = g.div_euclid(2)`:
    /// the coarse value plus, per dimension, a quarter of the coarse slope
    /// toward the fine cell's side. The eight (in 3-D) children of a coarse
    /// cell share its center and slopes, so the walk is over coarse cells:
    /// slopes once, then the children the receiver's range covers. Slopes
    /// are minmod-limited where both coarse neighbors are packed and
    /// one-sided at the packed region's edge (exact for linear fields,
    /// which always occurs on the face shared with the receiver).
    fn prolongate<D: CellRows + ?Sized>(&self, ncomp: usize, wire: &[f64], dst: &mut D) {
        let dim = self.dim;
        let [xr, yr, zr] = self.coarse;
        let ex = self.src_len;
        let exy = ex * self.src_counts[0];
        let per_comp = exy * self.src_counts[1];
        let fine_lo = self.fine0;
        let extent = [self.dst_len, self.dst_counts[0], self.dst_counts[1]];
        let fine_hi: [i64; 3] = std::array::from_fn(|d| fine_lo[d] + extent[d] as i64 - 1);
        let slope_of = |center: f64, left: Option<f64>, right: Option<f64>| -> f64 {
            match (left, right) {
                (Some(l), Some(r)) => minmod(r - center, center - l),
                (Some(l), None) => center - l,
                (None, Some(r)) => r - center,
                (None, None) => 0.0,
            }
        };
        // Quarter-slope offset of fine cell `g` from its coarse center: the
        // even child sits on the low side.
        let toward = |g: i64, slope: f64| {
            let sign = if g.rem_euclid(2) == 0 { -1.0 } else { 1.0 };
            0.25 * sign * slope
        };
        // The children of coarse index `c` inside the receiver's range.
        let children = |d: usize, c: i64| (2 * c).max(fine_lo[d])..=(2 * c + 1).min(fine_hi[d]);
        let coarse_of = |d: usize| fine_lo[d].div_euclid(2)..=fine_hi[d].div_euclid(2);
        for v in 0..ncomp {
            for ck in coarse_of(2) {
                let (zl, zh) = (dim > 2 && ck > zr.s, dim > 2 && ck < zr.e);
                for cj in coarse_of(1) {
                    let (yl, yh) = (dim > 1 && cj > yr.s, dim > 1 && cj < yr.e);
                    let crow =
                        v * per_comp + (ck - zr.s) as usize * exy + (cj - yr.s) as usize * ex;
                    for ci in coarse_of(0) {
                        let b = crow + (ci - xr.s) as usize;
                        let center = wire[b];
                        let left = (ci > xr.s).then(|| wire[b - 1]);
                        let right = (ci < xr.e).then(|| wire[b + 1]);
                        let slope_x = slope_of(center, left, right);
                        let slope_y = if dim > 1 {
                            slope_of(center, yl.then(|| wire[b - ex]), yh.then(|| wire[b + ex]))
                        } else {
                            0.0
                        };
                        let slope_z = if dim > 2 {
                            slope_of(center, zl.then(|| wire[b - exy]), zh.then(|| wire[b + exy]))
                        } else {
                            0.0
                        };
                        let xs = children(0, ci);
                        let (first, len) = (*xs.start(), (xs.end() - xs.start() + 1) as usize);
                        let mut along_x = [center + toward(first, slope_x); 2];
                        along_x[len - 1] = center + toward(*xs.end(), slope_x);
                        for gz in children(2, ck) {
                            let dz = toward(gz, slope_z);
                            for gy in children(1, cj) {
                                let dy = toward(gy, slope_y);
                                let (j, k) =
                                    ((gy - fine_lo[1]) as usize, (gz - fine_lo[2]) as usize);
                                let start = self.dst.at(j, k, v) + (first - fine_lo[0]) as usize;
                                for (x, out) in along_x.iter().zip(dst.row_mut(start, len)) {
                                    let mut value = *x;
                                    if dim > 1 {
                                        value += dy;
                                    }
                                    if dim > 2 {
                                        value += dz;
                                    }
                                    *out = value;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl TransferProgram for RowProgram {
    const ARRAYS: usize = 1;

    fn arrays(var: &CellVariable) -> &[Array4] {
        std::slice::from_ref(var.data())
    }

    fn arrays_mut(var: &mut CellVariable) -> &mut [Array4] {
        std::slice::from_mut(var.data_mut())
    }

    fn src_array(&self) -> usize {
        0
    }

    fn dst_array(&self) -> usize {
        0
    }

    /// Wire buffer length in `f64` for `ncomp` components — equal to
    /// [`BufferSpec::buffer_len`] of the compiled spec.
    fn wire_len(&self, ncomp: usize) -> usize {
        let cells = match self.mode {
            BufferMode::Copy | BufferMode::RestrictFromFine => self.dst_cells(),
            BufferMode::FineUnrestricted => self.dst_cells() << self.dim,
            BufferMode::CoarseToFine => self.src_len * self.src_counts[0] * self.src_counts[1],
        };
        ncomp * cells
    }

    fn storage_span(&self, ncomp: usize) -> usize {
        ncomp * self.dst.step[2]
    }

    /// Packs the sender's cells into `wire` (exactly
    /// [`RowProgram::wire_len`] long).
    fn pack<S: CellRows + ?Sized>(&self, ncomp: usize, src: &S, wire: &mut [f64]) {
        debug_assert_eq!(wire.len(), self.wire_len(ncomp));
        match self.mode {
            BufferMode::Copy | BufferMode::CoarseToFine => {
                let dense = RowBox::dense(self.src_len, self.src_counts);
                copy_rows(
                    self.src_len,
                    self.src_counts,
                    ncomp,
                    src,
                    &self.src,
                    wire,
                    &dense,
                );
            }
            BufferMode::RestrictFromFine => {
                let dense = RowBox::dense(self.dst_len, self.dst_counts);
                self.restrict_rows(ncomp, src, wire, &dense);
            }
            BufferMode::FineUnrestricted => {
                // Ship every fine cell covering the receiver's ghost band,
                // in (receiver cell, fine sub-cell) order.
                let mut idx = 0usize;
                self.for_each_row(ncomp, |j, k, v| {
                    let base = self.src.at(j, k, v);
                    for i in 0..self.dst_len {
                        for &sub in &self.sub[..self.nsub] {
                            wire[idx..idx + 2].copy_from_slice(src.row(base + sub + 2 * i, 2));
                            idx += 2;
                        }
                    }
                });
            }
        }
    }

    /// Unpacks `wire` into the receiver's ghost cells.
    ///
    /// For [`BufferMode::CoarseToFine`] this performs per-dimension
    /// slope-limited linear prolongation from the packed coarse region;
    /// slopes are one-sided where the stencil leaves the packed region.
    fn unpack<D: CellRows + ?Sized>(&self, ncomp: usize, wire: &[f64], dst: &mut D) {
        debug_assert!(wire.len() >= self.wire_len(ncomp));
        match self.mode {
            BufferMode::Copy | BufferMode::RestrictFromFine => {
                let dense = RowBox::dense(self.dst_len, self.dst_counts);
                copy_rows(
                    self.dst_len,
                    self.dst_counts,
                    ncomp,
                    wire,
                    &dense,
                    dst,
                    &self.dst,
                );
            }
            BufferMode::FineUnrestricted => {
                // Average each group of 2^dim shipped fine cells.
                let group = 1usize << self.dim;
                let mut idx = 0usize;
                self.for_each_row(ncomp, |j, k, v| {
                    for out in dst.row_mut(self.dst.at(j, k, v), self.dst_len) {
                        *out = restrict_average(&wire[idx..idx + group]);
                        idx += group;
                    }
                });
            }
            BufferMode::CoarseToFine => self.prolongate(ncomp, wire, dst),
        }
    }

    /// Moves the boundary's values straight from the sender's storage into
    /// the receiver's ghost cells: the same bits [`RowProgram::pack`] then
    /// [`RowProgram::unpack`] produce, without the wire buffer for the two
    /// modes that carry almost all the volume. The other modes go through
    /// `scratch` (grown on demand, never shrunk).
    fn fill<S, D>(&self, ncomp: usize, src: &S, dst: &mut D, scratch: &mut Vec<f64>)
    where
        S: CellRows + ?Sized,
        D: CellRows + ?Sized,
    {
        match self.mode {
            BufferMode::Copy => {
                copy_rows(
                    self.dst_len,
                    self.dst_counts,
                    ncomp,
                    src,
                    &self.src,
                    dst,
                    &self.dst,
                );
            }
            BufferMode::RestrictFromFine => self.restrict_rows(ncomp, src, dst, &self.dst),
            BufferMode::FineUnrestricted | BufferMode::CoarseToFine => {
                let len = self.wire_len(ncomp);
                if scratch.len() < len {
                    scratch.resize(len, 0.0);
                }
                self.pack(ncomp, src, &mut scratch[..len]);
                self.unpack(ncomp, &scratch[..len], dst);
            }
        }
    }
}

/// Copies a box of x-rows of `len` cells, `counts = [j, k]` rows per
/// component, from `src` to `dst`. The row lengths that occur (`nghost` and
/// the block edge) get a move of compile-time length.
fn copy_rows<S, D>(
    len: usize,
    counts: [usize; 2],
    ncomp: usize,
    src: &S,
    src_box: &RowBox,
    dst: &mut D,
    dst_box: &RowBox,
) where
    S: CellRows + ?Sized,
    D: CellRows + ?Sized,
{
    #[inline(always)]
    fn go<const N: usize, S: CellRows + ?Sized, D: CellRows + ?Sized>(
        len: usize,
        counts: [usize; 2],
        ncomp: usize,
        src: &S,
        src_box: &RowBox,
        dst: &mut D,
        dst_box: &RowBox,
    ) {
        let len = if N > 0 { N } else { len };
        for v in 0..ncomp {
            for k in 0..counts[1] {
                for j in 0..counts[0] {
                    dst.row_mut(dst_box.at(j, k, v), len)
                        .copy_from_slice(src.row(src_box.at(j, k, v), len));
                }
            }
        }
    }
    match len {
        2 => go::<2, S, D>(len, counts, ncomp, src, src_box, dst, dst_box),
        3 => go::<3, S, D>(len, counts, ncomp, src, src_box, dst, dst_box),
        4 => go::<4, S, D>(len, counts, ncomp, src, src_box, dst, dst_box),
        8 => go::<8, S, D>(len, counts, ncomp, src, src_box, dst, dst_box),
        16 => go::<16, S, D>(len, counts, ncomp, src, src_box, dst, dst_box),
        32 => go::<32, S, D>(len, counts, ncomp, src, src_box, dst, dst_box),
        _ => go::<0, S, D>(len, counts, ncomp, src, src_box, dst, dst_box),
    }
}

/// Restricts one receiver row: `out[i]` is the average of the x-pair
/// `2i, 2i + 1` of every fine row in `rows`, summed in row order, pair
/// order within a row — the add sequence of [`restrict_average`] over the
/// gathered `(tx, ty, tz)` values, so the bits are the same. Four output
/// cells advance together, one per lane; the cells after the last bundle
/// (all of a halo x-face's short rows) take the same adds one at a time.
/// The count `2R` is a power of two, so multiplying by its reciprocal
/// rounds exactly as dividing by it does.
#[inline(always)]
fn restrict_row<const R: usize>(rows: [&[f64]; R], out: &mut [f64]) {
    const W: usize = 4;
    let inv = 1.0 / (2 * R) as f64;
    let n = out.len();
    let mut i = 0usize;
    while i + W <= n {
        let pairs: [&[f64]; R] = rows.map(|row| &row[2 * i..2 * (i + W)]);
        let mut sum = F64Lanes::<W>::from_fn(|l| pairs[0][2 * l]);
        sum = sum + F64Lanes::from_fn(|l| pairs[0][2 * l + 1]);
        for pair in &pairs[1..] {
            sum = sum + F64Lanes::from_fn(|l| pair[2 * l]);
            sum = sum + F64Lanes::from_fn(|l| pair[2 * l + 1]);
        }
        (sum * inv).store(&mut out[i..i + W]);
        i += W;
    }
    for (i, out) in out.iter_mut().enumerate().skip(i) {
        let mut sum = rows[0][2 * i] + rows[0][2 * i + 1];
        for row in &rows[1..] {
            sum += row[2 * i];
            sum += row[2 * i + 1];
        }
        *out = sum * inv;
    }
}

/// Packs the sender-side data for `spec` into `out` (appending), covering
/// all components of `sender`.
///
/// # Panics
///
/// Panics if computed sender indices fall outside the sender's storage —
/// which indicates an inconsistent spec.
pub fn pack(spec: &BufferSpec, sender: &Array4, out: &mut Vec<f64>) {
    let ncomp = sender.ncomp();
    let start = out.len();
    out.resize(start + spec.buffer_len(ncomp), 0.0);
    RowProgram::compile(spec).pack(ncomp, sender.as_slice(), &mut out[start..]);
}

/// Unpacks `buf` into the receiver's ghost cells per `spec`.
///
/// For [`BufferMode::CoarseToFine`] this performs per-dimension
/// slope-limited linear prolongation from the packed coarse region; slopes
/// are zeroed where the stencil leaves the packed region.
///
/// # Panics
///
/// Panics if `buf` is shorter than the spec requires for `recv.ncomp()`
/// components.
pub fn unpack(spec: &BufferSpec, buf: &[f64], recv: &mut Array4) {
    let ncomp = recv.ncomp();
    assert!(
        buf.len() >= spec.buffer_len(ncomp),
        "buffer too short: {} < {}",
        buf.len(),
        spec.buffer_len(ncomp)
    );
    RowProgram::compile(spec).unpack(ncomp, buf, recv.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_mesh::{BlockTree, NeighborOffset};

    /// Fills a block's storage with a function of *global* (unwrapped) cell
    /// index at the block's own level, given the block origin.
    fn fill_global(
        shape: &IndexShape,
        origin: [i64; 3],
        f: impl Fn(i64, i64, i64) -> f64,
    ) -> Array4 {
        let mut a = Array4::zeros([1, shape.entire_d(2), shape.entire_d(1), shape.entire_d(0)]);
        for k in 0..shape.entire_d(2) {
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let g = [
                        origin[0] + i as i64 - shape.nghost_d(0) as i64,
                        origin[1] + j as i64 - shape.nghost_d(1) as i64,
                        origin[2] + k as i64 - shape.nghost_d(2) as i64,
                    ];
                    a.set(0, k, j, i, f(g[0], g[1], g[2]));
                }
            }
        }
        a
    }

    /// `restrict_row` — lane bundles and the one-at-a-time tail — equals
    /// `restrict_average` over the gathered fine values bit for bit, at
    /// every row length a block edge or a halo face gives it, on signed
    /// zeros, subnormals and cancelling magnitudes too.
    #[test]
    fn restrict_row_equals_restrict_average_bitwise() {
        fn check<const R: usize>(values: &[f64]) {
            for n in 1..=9 {
                let mut at = 0usize;
                let rows: [Vec<f64>; R] = std::array::from_fn(|_| {
                    (0..2 * n)
                        .map(|_| {
                            at += 1;
                            values[(at * 7 + at / values.len()) % values.len()]
                        })
                        .collect()
                });
                let mut out = vec![0.0; n];
                restrict_row(rows.each_ref().map(Vec::as_slice), &mut out);
                for (i, got) in out.iter().enumerate() {
                    let gathered: Vec<f64> = rows
                        .iter()
                        .flat_map(|row| [row[2 * i], row[2 * i + 1]])
                        .collect();
                    let want = restrict_average(&gathered);
                    assert_eq!(got.to_bits(), want.to_bits(), "R {R}, n {n}, cell {i}");
                }
            }
        }
        let tiny = f64::from_bits(1);
        let values = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            3.0 * tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 3.0,
            1.0,
            -1.0,
            1e308,
            -1e308,
            0.1,
            1.0 + f64::EPSILON,
            -7.25e-3,
        ];
        for len in 1..=values.len() {
            check::<1>(&values[..len]);
            check::<2>(&values[..len]);
            check::<4>(&values[..len]);
        }
        // Rows of nothing but negative zeros keep their sign.
        check::<4>(&[-0.0]);
    }

    #[test]
    fn same_level_face_copy_2d() {
        let shape = IndexShape::new([8, 8, 1], 2, 2);
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(0, 1, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        assert_eq!(spec.mode(), BufferMode::Copy);
        // Ghost band: 2 wide in x, 8 in y.
        assert_eq!(spec.cells_per_component(), 16);

        let sender = fill_global(&shape, [8, 0, 0], |x, y, _| (x * 100 + y) as f64);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        assert_eq!(buf.len(), 16);

        let mut recv = Array4::zeros([1, 1, 12, 12]);
        unpack(&spec, &buf, &mut recv);
        // Receiver ghost (i=10, j=2+jj) is global x=8, y=jj.
        for jj in 0..8i64 {
            let got = recv.get(0, 0, (jj + 2) as usize, 10);
            assert_eq!(got, (8 * 100 + jj) as f64);
        }
    }

    #[test]
    fn same_level_periodic_wrap_copy() {
        // Receiver at x=0, sender across the periodic -x boundary.
        let shape = IndexShape::new([4, 4, 1], 2, 2);
        let tree = BlockTree::new(2, [4, 4, 1], 1);
        let r = LogicalLocation::new(0, 0, 1, 0);
        let nbs = vibe_mesh::neighbor::find_neighbors(&tree, &r);
        let nb = nbs
            .iter()
            .find(|n| n.offset.components() == [-1, 0, 0])
            .unwrap();
        assert_eq!(nb.loc.lx_d(0), 3, "wrapped neighbor");
        let spec = compute_buffer_spec(&shape, &r, &nb.loc, &nb.offset);
        // Data: unwrapped x for sender origin computed as l_r - 1 = -1.
        let sender = fill_global(&shape, [-4, 4, 0], |x, _, _| x as f64);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let mut recv = Array4::zeros([1, 1, 8, 8]);
        unpack(&spec, &buf, &mut recv);
        // Receiver ghost i=0 is global x=-2; i=1 is x=-1.
        assert_eq!(recv.get(0, 0, 2, 0), -2.0);
        assert_eq!(recv.get(0, 0, 2, 1), -1.0);
    }

    #[test]
    fn restrict_from_fine_averages() {
        // 2D, sender one level finer across the +x face.
        let shape = IndexShape::new([8, 8, 1], 2, 2);
        let r = LogicalLocation::new(0, 0, 0, 0);
        // Fine neighbor: child (bit x = 0 facing us, bit y = 0) of (0,1,0,0).
        let s = LogicalLocation::new(1, 2, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        assert_eq!(spec.mode(), BufferMode::RestrictFromFine);
        // Tangential half-span: 4 coarse cells; depth 2 => 8 cells.
        assert_eq!(spec.cells_per_component(), 8);

        // Fine sender data = fine global x index; restriction of cells
        // 2X, 2X+1 gives 2X + 0.5.
        let sender = fill_global(&shape, [16, 0, 0], |x, _, _| x as f64);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let mut recv = Array4::zeros([1, 1, 12, 12]);
        unpack(&spec, &buf, &mut recv);
        // Receiver ghost i=10 => coarse global x=8 => fine 16,17 => 16.5.
        assert_eq!(recv.get(0, 0, 2, 10), 16.5);
        assert_eq!(recv.get(0, 0, 2, 11), 18.5);
    }

    #[test]
    fn restriction_halves_communicated_volume() {
        let shape = IndexShape::new([16, 16, 16], 4, 3);
        let r = LogicalLocation::new(0, 0, 0, 0);
        let fine = LogicalLocation::new(1, 2, 0, 0);
        let same = LogicalLocation::new(0, 1, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec_fine = compute_buffer_spec(&shape, &r, &fine, &off);
        let spec_same = compute_buffer_spec(&shape, &r, &same, &off);
        // Fine neighbor covers a quarter of the face; same-level covers all.
        assert_eq!(spec_same.cells_per_component(), 4 * 16 * 16);
        assert_eq!(spec_fine.cells_per_component(), 4 * 8 * 8);
    }

    #[test]
    fn coarse_to_fine_prolongates_linear_field_exactly() {
        // 2D: receiver fine at level 1, sender coarse at level 0 across -x.
        let shape = IndexShape::new([8, 8, 1], 2, 2);
        let r = LogicalLocation::new(1, 2, 0, 0); // fine block, parent (0,1,0,0)
        let s = LogicalLocation::new(0, 0, 0, 0);
        let off = NeighborOffset::new(-1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        assert_eq!(spec.mode(), BufferMode::CoarseToFine);

        // Coarse sender holds a linear field of *coarse* global x:
        // value = x_c. A fine ghost at fine global xf has coarse parent
        // xc = floor(xf/2) and exact linear value (xf - xc*2 == 0 ? -0.25 : +0.25) + xc.
        let sender = fill_global(&shape, [0, 0, 0], |x, _, _| x as f64);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        assert_eq!(buf.len(), spec.buffer_len(1));
        let mut recv = Array4::zeros([1, 1, 12, 12]);
        unpack(&spec, &buf, &mut recv);
        // Receiver fine ghosts i=0,1 are fine global x=14,15 (block origin 16).
        // x=14: coarse 7, even => 7 - 0.25; x=15: odd => 7 + 0.25.
        assert!((recv.get(0, 0, 2, 0) - 6.75).abs() < 1e-14);
        assert!((recv.get(0, 0, 2, 1) - 7.25).abs() < 1e-14);
    }

    #[test]
    fn coarse_to_fine_ships_fewer_cells_than_fine_ghosts() {
        let shape = IndexShape::new([16, 16, 16], 4, 3);
        let r = LogicalLocation::new(1, 2, 0, 0);
        let s = LogicalLocation::new(0, 0, 0, 0);
        let off = NeighborOffset::new(-1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        let fine_ghost_cells = spec.recv_region().count();
        assert_eq!(fine_ghost_cells, 4 * 16 * 16);
        assert!(spec.cells_per_component() < fine_ghost_cells);
    }

    #[test]
    fn corner_buffer_3d() {
        let shape = IndexShape::new([8, 8, 8], 4, 3);
        let r = LogicalLocation::new(0, 1, 1, 1);
        let s = LogicalLocation::new(0, 2, 2, 2);
        let off = NeighborOffset::new(1, 1, 1);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        assert_eq!(spec.cells_per_component(), 4 * 4 * 4);
        let sender = fill_global(&shape, [16, 16, 16], |x, y, z| (x + y + z) as f64);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let mut recv = Array4::zeros([1, 16, 16, 16]);
        unpack(&spec, &buf, &mut recv);
        // Ghost (12,12,12) is global (16,16,16): value 48.
        assert_eq!(recv.get(0, 12, 12, 12), 48.0);
    }

    #[test]
    fn multi_component_pack_order() {
        let shape = IndexShape::new([4, 4, 1], 2, 2);
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(0, 1, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        let mut sender = Array4::zeros([2, 1, 8, 8]);
        sender.comp_slice_mut(0).fill(1.0);
        sender.comp_slice_mut(1).fill(2.0);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        assert_eq!(buf.len(), spec.buffer_len(2));
        let per = spec.cells_per_component();
        assert!(buf[..per].iter().all(|&v| v == 1.0));
        assert!(buf[per..].iter().all(|&v| v == 2.0));
        let mut recv = Array4::zeros([2, 1, 8, 8]);
        unpack(&spec, &buf, &mut recv);
        assert_eq!(recv.get(0, 0, 2, 6), 1.0);
        assert_eq!(recv.get(1, 0, 2, 6), 2.0);
    }

    #[test]
    fn one_dimensional_buffers() {
        let shape = IndexShape::new([8, 1, 1], 2, 1);
        let r = LogicalLocation::new(0, 1, 0, 0);
        let s = LogicalLocation::new(0, 0, 0, 0);
        let off = NeighborOffset::new(-1, 0, 0);
        let spec = compute_buffer_spec(&shape, &r, &s, &off);
        assert_eq!(spec.cells_per_component(), 2);
        let sender = fill_global(&shape, [0, 0, 0], |x, _, _| x as f64);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let mut recv = Array4::zeros([1, 1, 1, 12]);
        unpack(&spec, &buf, &mut recv);
        assert_eq!(recv.get(0, 0, 0, 0), 6.0);
        assert_eq!(recv.get(0, 0, 0, 1), 7.0);
    }

    #[test]
    fn constant_field_roundtrip_all_modes() {
        let shape = IndexShape::new([8, 8, 1], 2, 2);
        let off = NeighborOffset::new(1, 0, 0);
        let cases = [
            (
                LogicalLocation::new(0, 0, 0, 0),
                LogicalLocation::new(0, 1, 0, 0),
                [8, 0, 0],
            ),
            (
                LogicalLocation::new(0, 0, 0, 0),
                LogicalLocation::new(1, 2, 0, 0),
                [16, 0, 0],
            ),
            (
                LogicalLocation::new(1, 1, 0, 0),
                LogicalLocation::new(0, 1, 0, 0),
                [8, 0, 0],
            ),
        ];
        for (r, s, origin) in cases {
            let spec = compute_buffer_spec(&shape, &r, &s, &off);
            let sender = fill_global(&shape, origin, |_, _, _| 3.25);
            let mut buf = Vec::new();
            pack(&spec, &sender, &mut buf);
            let mut recv = Array4::zeros([1, 1, 12, 12]);
            unpack(&spec, &buf, &mut recv);
            for (i, j, k) in spec.recv_region().iter() {
                assert_eq!(
                    recv.get(0, k as usize, j as usize, i as usize),
                    3.25,
                    "mode {:?} cell ({i},{j},{k})",
                    spec.mode()
                );
            }
        }
    }
}
