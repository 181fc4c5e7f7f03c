//! The flux sweep: every resident block is walked once per RK stage, tile
//! by tile, and what survives a tile is the flux divergence of its cells
//! and the fluxes on the block's outer faces — never a per-block flux
//! array.
//!
//! A tile is a box of interior cells (a z-slab of full rows, thinner or
//! cut into y-strips for blocks too large) whose face fluxes fit the
//! calling worker's scratch, [`TILE_BUDGET_BYTES`] of `thread_local`
//! memory whatever the block count. Per tile the package fills the fluxes
//! ([`Package::fill_fluxes`], its one flux primitive), the framework
//! reduces them to
//!
//! ```text
//! div = ((fxr − fxl)·inv₀ + (fyr − fyl)·inv₁) + (fzr − fzl)·inv₂
//! ```
//!
//! in exactly that order into the variable's compact `div` array, and the
//! faces lying on the block's surface are saved as dense planes — what
//! flux correction exchanges ([`vibe_field::FluxProgram`]). The z-plane two
//! consecutive slabs share is carried over in the scratch, not recomputed.
//!
//! Under each flux-corrected outer face the sweep also keeps the fluxes of
//! the one-cell layer beneath it ([`vibe_field::FluxOut::layers`]). Once
//! flux correction has overwritten planes, the stage update re-reduces
//! each such layer from its kept fluxes with the planes' values on the
//! block's surface ([`reduce_layers`]): uncorrected plane entries hold the
//! bits the sweep computed, corrected ones the restricted fine fluxes, so
//! the layer's `div` comes out as if the block had kept all its fluxes and
//! had them corrected in place — and no face flux is evaluated twice.
//!
//! # The line walker
//!
//! A package does not loop over faces. It picks a [`ReconKernel`], writes
//! one pointwise [`FaceFlux`] generic over the lane width, and its
//! `fill_fluxes` is one call of [`fill_lines`], which owns the loop nest
//! over each face plane of a tile (the faces of one direction at one `k`)
//! and evaluates every face exactly once:
//!
//! - **Along rows**: consecutive faces along `i` are unit-stride for every
//!   direction — x-faces along their row, y/z-faces across consecutive `i`
//!   of one face plane — so each stencil position is one contiguous
//!   [`LANES`]-wide load at a shifted offset, no gather or transpose. A row
//!   runs only full bundles.
//! - **Across rows**: the faces a row has left over (one per row at 8 or
//!   16 cells, where an x-row holds `n + 1` faces) are bundled along `j`,
//!   faces of consecutive rows gathered and scattered lane by lane. A box
//!   narrower than a bundle in `i` runs entirely this way.
//! - Where fewer than [`LANES`] rows remain (degenerate blocks), the
//!   leftover faces run the same kernels at `W = 1`: [`F64Lanes<1>`]
//!   executes the scalar operation sequence, so there is no second,
//!   hand-written scalar copy of any kernel.
//!
//! A kernel must give a face the same bits in any lane of any width: the
//! same per-lane operation sequence, branches as [`vibe_field::LaneMask`]
//! selects, no reduction across lanes.

use std::cell::RefCell;
use std::time::Instant;

use vibe_exec::{catalog, ExecCtx};
use vibe_field::{Array4, BlockData, F64Lanes, FluxOut, Metadata, VarId};
use vibe_mesh::IndexShape;
use vibe_prof::Recorder;

use crate::block::{BlockInfo, BlockSlot};
use crate::package::{FluxPhase, Package};

/// Flux scratch each worker thread owns, in bytes: large enough that a
/// 16³ block of the paper's Burgers problem sweeps in four slabs, small
/// enough to stay in a core's L2 beside the state it reads.
pub const TILE_BUDGET_BYTES: usize = 256 * 1024;

thread_local! {
    /// Per-worker tile scratch; pool workers are persistent, so it is
    /// allocated on a worker's first sweep and reused.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the calling worker's tile scratch.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.resize(TILE_BUDGET_BYTES / 8, 0.0);
        f(scratch)
    })
}

/// A box of interior cells: first cell and extent along `(i, j, k)`,
/// relative to the block's first interior cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellBox {
    /// First cell.
    pub lo: [usize; 3],
    /// Cells along each axis (1 along inactive ones).
    pub n: [usize; 3],
}

impl CellBox {
    /// The whole interior of a block of `shape`.
    pub fn interior(shape: &IndexShape) -> Self {
        Self {
            lo: [0; 3],
            n: shape.ncells(),
        }
    }

    /// The one-cell layer of `self` under its outer face `2 * d + side`.
    pub fn layer(&self, face: usize) -> Self {
        let (d, mut layer) = (face / 2, *self);
        layer.lo[d] += (face % 2) * (self.n[d] - 1);
        layer.n[d] = 1;
        layer
    }

    /// `f64`s a tile of this box holds for `ncomp` components in `dim`
    /// dimensions.
    pub fn tile_len(&self, dim: usize, ncomp: usize) -> usize {
        let faces =
            |d: usize| -> usize { (0..3).map(|a| self.n[a] + usize::from(a == d)).product() };
        ncomp * (0..dim).map(faces).sum::<usize>()
    }

    /// Cuts the box into tiles of at most `budget` `f64`s: equal z-slabs
    /// of full rows as thick as fit, or — when not even one layer fits —
    /// single layers cut into y-strips. In (k, j) order.
    ///
    /// # Panics
    ///
    /// Panics if one row of cells does not fit the budget.
    pub fn tiles(&self, dim: usize, ncomp: usize, budget: usize) -> Vec<CellBox> {
        let [nx, ny, nz] = self.n;
        let fits = |nj: usize, nk: usize| {
            let tile = CellBox {
                lo: self.lo,
                n: [nx, nj, nk],
            };
            tile.tile_len(dim, ncomp) <= budget
        };
        let (nj, nk) = match (1..=nz).rev().find(|&nk| fits(ny, nk)) {
            Some(nk) => (ny, nz.div_ceil(nz.div_ceil(nk))),
            None => {
                let nj = (1..=ny).rev().find(|&nj| fits(nj, 1));
                (nj.expect("one row of cells fits the tile budget"), 1)
            }
        };
        let mut tiles = Vec::new();
        for k in (0..nz).step_by(nk) {
            for j in (0..ny).step_by(nj) {
                tiles.push(CellBox {
                    lo: [self.lo[0], self.lo[1] + j, self.lo[2] + k],
                    n: [nx, nj.min(ny - j), nk.min(nz - k)],
                });
            }
        }
        tiles
    }
}

/// How [`fill_lines`] walks a tile: the production rule, or one of the two
/// references the conformance harness holds it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// Bundles of [`LANES`] faces along rows and, for a row's remainder,
    /// across rows; `W = 1` where fewer rows than that are left.
    Lanes,
    /// Every line at `W = 1`.
    Single,
    /// [`fill_faces_reference`].
    PerFace,
}

/// The face fluxes of one [`CellBox`]: per active direction `d` a dense
/// array over the faces bounding the box's cells (one more along `d` than
/// cells), every component of every flux-bearing variable in registration
/// order. Face `f` along `d` lies below cell `f`.
#[derive(Debug)]
pub struct FluxTile<'a> {
    cells: CellBox,
    dim: usize,
    ncomp: usize,
    /// Whether the lowest z-plane already holds its fluxes (carried over
    /// from the slab below).
    carried: bool,
    pub(crate) walk: Walk,
    /// Where each direction's array starts in `buf` (and the last one ends).
    start: [usize; 4],
    buf: &'a mut [f64],
}

impl<'a> FluxTile<'a> {
    /// A tile over `cells` in the front of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`CellBox::tile_len`].
    pub fn new(cells: CellBox, dim: usize, ncomp: usize, buf: &'a mut [f64]) -> Self {
        let start: [usize; 4] = std::array::from_fn(|d| cells.tile_len(d.min(dim), ncomp));
        let len = start[3];
        assert!(len <= buf.len(), "tile of {len} f64 exceeds its scratch");
        Self {
            cells,
            dim,
            ncomp,
            carried: false,
            walk: Walk::Lanes,
            start,
            buf: &mut buf[..len],
        }
    }

    /// The cells whose faces the tile holds.
    pub fn cells(&self) -> CellBox {
        self.cells
    }

    /// Active dimensions (directions the tile has faces for).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Flux components per face.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Faces of direction `d` along `(i, j, k)`.
    pub fn extent(&self, d: usize) -> [usize; 3] {
        let mut extent = self.cells.n;
        extent[d] += 1;
        extent
    }

    /// Steps of direction `d`'s array along `(i, j, k, component)`. Rows
    /// are contiguous in `i`; the z-array is plane-major, so that the
    /// plane two slabs share moves as one piece.
    pub fn steps(&self, d: usize) -> [usize; 4] {
        let [ni, nj, nk] = self.extent(d);
        if d == 2 {
            [1, ni, ni * nj * self.ncomp, ni * nj]
        } else {
            [1, ni, ni * nj, ni * nj * nk]
        }
    }

    /// The first face along `d` the package has to fill: 1 where the
    /// lowest plane was carried over, else 0.
    pub fn first_face(&self, d: usize) -> usize {
        usize::from(d == 2 && self.carried)
    }

    fn span(&self, d: usize) -> std::ops::Range<usize> {
        self.start[d]..self.start[d + 1]
    }

    /// Direction `d`'s fluxes, indexed by [`FluxTile::steps`].
    pub fn faces(&self, d: usize) -> &[f64] {
        &self.buf[self.span(d)]
    }

    /// Direction `d`'s fluxes, mutably.
    pub fn faces_mut(&mut self, d: usize) -> &mut [f64] {
        let span = self.span(d);
        &mut self.buf[span]
    }

    fn at(&self, d: usize, c: usize, [i, j, k]: [usize; 3]) -> usize {
        let [_, sj, sk, sc] = self.steps(d);
        i + j * sj + k * sk + c * sc
    }

    /// The flux of component `c` on face `(i, j, k)` of direction `d`.
    pub fn get(&self, d: usize, c: usize, face: [usize; 3]) -> f64 {
        self.faces(d)[self.at(d, c, face)]
    }

    /// Sets the flux of component `c` on face `(i, j, k)` of direction `d`.
    pub fn set(&mut self, d: usize, c: usize, face: [usize; 3], value: f64) {
        let at = self.at(d, c, face);
        self.faces_mut(d)[at] = value;
    }

    /// Every face of direction `d` the package has to fill, as
    /// `(face, cell)`: the face's tile index and the interior-relative
    /// index of the cell above it (the face lies between `cell - 1` and
    /// `cell` along `d`).
    pub fn faces_to_fill(&self, d: usize) -> impl Iterator<Item = ([usize; 3], [usize; 3])> {
        let ([ni, nj, nk], lo) = (self.extent(d), self.cells.lo);
        let mut first = [0; 3];
        first[d] = self.first_face(d);
        (first[2]..nk).flat_map(move |k| {
            (first[1]..nj).flat_map(move |j| {
                (first[0]..ni).map(move |i| ([i, j, k], [lo[0] + i, lo[1] + j, lo[2] + k]))
            })
        })
    }
}

/// Lane width of the line walker — and of every other lane-batched loop
/// of the workspace: one 256-bit register per bundle (WENO5 holds ~15
/// values live, which fits the 16-register ymm file without spills; W = 8
/// spills and measured slower).
pub const LANES: usize = 4;

/// Most flux components a tile may carry: the walker keeps a face's
/// left/right states and fluxes in stack scratch.
pub const MAX_COMPONENTS: usize = 32;

/// Widest stencil a [`ReconKernel`] may read.
const MAX_STENCIL: usize = 6;

/// One reconstruction scheme, written once for any lane width.
pub trait ReconKernel {
    /// Cells the stencil reaches to either side of the face.
    const RADIUS: usize;

    /// The left and right states at `W` faces; `stencil` holds
    /// `2 * RADIUS` bundles of cell averages ordered along the face normal,
    /// the face between the middle two.
    fn lanes<const W: usize>(stencil: &[F64Lanes<W>]) -> (F64Lanes<W>, F64Lanes<W>);
}

/// First order: the face states are the two adjacent cell averages.
#[derive(Debug, Clone, Copy)]
pub struct DonorCell;

impl ReconKernel for DonorCell {
    const RADIUS: usize = 1;

    #[inline(always)]
    fn lanes<const W: usize>(stencil: &[F64Lanes<W>]) -> (F64Lanes<W>, F64Lanes<W>) {
        (stencil[0], stencil[1])
    }
}

/// A package's pointwise flux function, written once for any lane width.
pub trait FaceFlux {
    /// The fluxes through `W` faces of direction `d` (cell spacing
    /// `1 / inv_dx` along it) from their reconstructed `left` and `right`
    /// states, one bundle per component of the tile in `left`, `right` and
    /// `out` alike.
    fn flux<const W: usize>(
        &self,
        d: usize,
        inv_dx: f64,
        left: &[F64Lanes<W>],
        right: &[F64Lanes<W>],
        out: &mut [F64Lanes<W>],
    );
}

/// SoA lane scratch reused across every bundle of a tile: one left/right
/// state bundle and one flux bundle per component, plus the stencil gather
/// buffer. Only the first `ncomp` components (resp. `2·RADIUS` stencil
/// slots) are ever written and read.
struct LaneScratch<const W: usize> {
    left: [F64Lanes<W>; MAX_COMPONENTS],
    right: [F64Lanes<W>; MAX_COMPONENTS],
    flux: [F64Lanes<W>; MAX_COMPONENTS],
    stencil: [F64Lanes<W>; MAX_STENCIL],
}

impl<const W: usize> LaneScratch<W> {
    fn new() -> Self {
        Self {
            left: [F64Lanes::splat(0.0); MAX_COMPONENTS],
            right: [F64Lanes::splat(0.0); MAX_COMPONENTS],
            flux: [F64Lanes::splat(0.0); MAX_COMPONENTS],
            stencil: [F64Lanes::splat(0.0); MAX_STENCIL],
        }
    }
}

/// What the lines of one direction of a tile share: the flux function, the
/// state as one slice per component of the tile, how far apart its stencil
/// cells lie, and the tile array's component stride.
struct Lines<'a, F> {
    flux: &'a F,
    comps: &'a [&'a [f64]],
    soff: usize,
    flux_comp: usize,
    d: usize,
    inv_dx: f64,
}

/// Evaluates one `W`-wide bundle of faces starting at line offset `k`:
/// stencil gather, reconstruction, flux, store — every component.
///
/// # Safety
///
/// [`flux_line`]'s contract for the faces `k..k + W`.
#[inline(always)]
unsafe fn flux_bundle<R: ReconKernel, F: FaceFlux, const W: usize, const ACROSS: bool>(
    lines: &Lines<'_, F>,
    out: &mut [f64],
    scratch: &mut LaneScratch<W>,
    (dbase, fbase): (usize, usize),
    (step, fstep): (usize, usize),
    k: usize,
) {
    let (sten, soff, ncomp) = (2 * R::RADIUS, lines.soff, lines.comps.len());
    let base = dbase + k * step - R::RADIUS * soff;
    for (comp, slice) in lines.comps.iter().enumerate() {
        for (j, s) in scratch.stencil[..sten].iter_mut().enumerate() {
            *s = match ACROSS {
                // In bounds by the caller's contract.
                false => F64Lanes::load_at(slice, base + j * soff),
                true => F64Lanes::from_fn(|l| slice[base + j * soff + l * step]),
            };
        }
        (scratch.left[comp], scratch.right[comp]) = R::lanes(&scratch.stencil[..sten]);
    }
    lines.flux.flux(
        lines.d,
        lines.inv_dx,
        &scratch.left[..ncomp],
        &scratch.right[..ncomp],
        &mut scratch.flux[..ncomp],
    );
    for (comp, fl) in scratch.flux[..ncomp].iter().enumerate() {
        let at = comp * lines.flux_comp + fbase + k * fstep;
        match ACROSS {
            // In bounds by the caller's contract.
            false => fl.store_at(out, at),
            true => (0..W).for_each(|l| out[at + l * fstep] = fl.lane(l)),
        }
    }
}

/// Fills one line of `len` faces, a multiple of `W`, in bundles of `W`;
/// the faces' data/flux indices advance by `steps` per face — both 1 along
/// a row, where lanes load and store contiguously; `ACROSS` rows they
/// gather and scatter. `bases` index the face-0 cell in a component's
/// state slice and in component 0 of `out`.
///
/// # Safety
///
/// For every face `k < len`, component slice and stencil slot
/// `j < 2·RADIUS`, `dbase + k·step − RADIUS·soff + j·soff` must index the
/// slice, and for every `c < ncomp`, `c·flux_comp + fbase + k·fstep` must
/// index `out`: the lane path along a row reads and writes unchecked.
#[inline(always)]
unsafe fn flux_line<R: ReconKernel, F: FaceFlux, const W: usize, const ACROSS: bool>(
    lines: &Lines<'_, F>,
    out: &mut [f64],
    scratch: &mut LaneScratch<W>,
    bases: (usize, usize),
    steps: (usize, usize),
    len: usize,
) {
    debug_assert!(
        len.is_multiple_of(W),
        "a line of {len} faces in bundles of {W}"
    );
    // Along a row the steps are compile-time ones in the hot loops.
    let steps = if ACROSS { steps } else { (1, 1) };
    // The bundles cover faces of this line only, so the caller's contract
    // is `flux_bundle`'s.
    let bundle = |k| flux_bundle::<R, F, W, ACROSS>(lines, out, scratch, bases, steps, k);
    (0..len).step_by(W).for_each(bundle);
}

/// The flux-bearing variables' arrays, in registration order: the
/// component order of a tile.
fn flux_state(data: &BlockData) -> impl Iterator<Item = &Array4> {
    let with_fluxes = |v: &&vibe_field::CellVariable| v.metadata().contains(Metadata::WITH_FLUXES);
    data.vars().iter().filter(with_fluxes).map(|v| v.data())
}

/// The per-face reference of [`fill_lines`]: the same faces of the same
/// tile through the same kernels, one face at a time at `W = 1` over
/// checked accessors. The oracle the conformance harness and the kernel
/// tests hold the walker against; no package calls it.
pub fn fill_faces_reference<R: ReconKernel, F: FaceFlux>(
    flux: &F,
    info: &BlockInfo,
    data: &BlockData,
    tile: &mut FluxTile<'_>,
) {
    let g: [usize; 3] = std::array::from_fn(|d| data.shape().nghost_d(d));
    let (inv_dx, ncomp) = (info.geom.dx().map(|dx| 1.0 / dx), tile.ncomp());
    let zero = [F64Lanes::<1>::splat(0.0); MAX_COMPONENTS];
    for d in 0..tile.dim() {
        for (face, cell) in tile.faces_to_fill(d) {
            let (mut left, mut right, mut out) = (zero, zero, zero);
            let comps = flux_state(data).flat_map(|a| (0..a.ncomp()).map(move |c| (a, c)));
            for (comp, (array, c)) in comps.enumerate() {
                let mut stencil = [F64Lanes::<1>::splat(0.0); MAX_STENCIL];
                for (j, s) in stencil[..2 * R::RADIUS].iter_mut().enumerate() {
                    let mut p: [usize; 3] = std::array::from_fn(|a| cell[a] + g[a]);
                    p[d] = p[d] + j - R::RADIUS;
                    *s = F64Lanes([array.get(c, p[2], p[1], p[0])]);
                }
                (left[comp], right[comp]) = R::lanes(&stencil[..2 * R::RADIUS]);
            }
            flux.flux(
                d,
                inv_dx[d],
                &left[..ncomp],
                &right[..ncomp],
                &mut out[..ncomp],
            );
            for (c, value) in out[..ncomp].iter().enumerate() {
                tile.set(d, c, face, value.lane(0));
            }
        }
    }
}

/// The line walker — the one way a package fills a tile: every face of
/// `tile` the framework asks for, exactly once, from the state in `data`,
/// through `R` and `flux`. Per face plane, [`LANES`] faces per bundle
/// along each row (unit-stride in `i`), the rows' remainder faces in
/// bundles across rows (along `j`), and what is left at `W = 1`. Returns
/// the faces filled as `(in lane bundles, at W = 1)`.
///
/// # Panics
///
/// Panics if the tile is empty, does not lie in the block's interior, carries other
/// components than the block's flux-bearing variables, or the ghost shell
/// is narrower than the stencil.
pub fn fill_lines<R: ReconKernel, F: FaceFlux>(
    flux: &F,
    info: &BlockInfo,
    data: &BlockData,
    tile: &mut FluxTile<'_>,
) -> (u64, u64) {
    // The faces of a run of `len` that go in lane bundles.
    let bundled: fn(usize) -> usize = match tile.walk {
        Walk::Lanes => |len| len - len % LANES,
        Walk::Single => |_| 0,
        Walk::PerFace => {
            fill_faces_reference::<R, F>(flux, info, data, tile);
            return (0, 0);
        }
    };
    let shape = *data.shape();
    let (cells, ncomp) = (tile.cells(), tile.ncomp());
    let g: [usize; 3] = std::array::from_fn(|d| shape.nghost_d(d));
    let (ex, ey, ez) = (shape.entire_d(0), shape.entire_d(1), shape.entire_d(2));
    let data_strides = [1usize, ex, ex * ey];
    // What the unchecked lane accesses rest on (see `flux_line`).
    assert!(
        (0..3).all(|d| cells.n[d] >= 1 && cells.lo[d] + cells.n[d] <= shape.ncells()[d])
            && (0..tile.dim()).all(|d| g[d] >= R::RADIUS)
            && 2 * R::RADIUS <= MAX_STENCIL
            && ncomp <= MAX_COMPONENTS
            && ncomp == flux_state(data).map(|a| a.ncomp()).sum::<usize>(),
        "tile {cells:?} of {ncomp} components is empty or does not fit the block's interior, \
         ghost shell and flux-bearing variables"
    );
    // One slice per component, each over the whole block, ghosts included.
    let mut comps: [&[f64]; MAX_COMPONENTS] = [&[]; MAX_COMPONENTS];
    let state = flux_state(data).flat_map(|a| a.as_slice().chunks_exact(ex * ey * ez));
    comps
        .iter_mut()
        .zip(state)
        .for_each(|(c, slice)| *c = slice);
    // First interior cell of the box in a component's slice.
    let origin: usize = (0..3).map(|d| (g[d] + cells.lo[d]) * data_strides[d]).sum();
    let inv_dx = info.geom.dx().map(|dx| 1.0 / dx);

    let mut faces = (0u64, 0u64);
    let mut wide = LaneScratch::<LANES>::new();
    let mut one = LaneScratch::<1>::new();
    for (d, &soff) in data_strides.iter().enumerate().take(tile.dim()) {
        let [ni, nj, nk] = tile.extent(d);
        let [_, sj, sk, flux_comp] = tile.steps(d);
        let lines = Lines {
            flux,
            comps: &comps[..ncomp],
            soff,
            flux_comp,
            d,
            inv_dx: inv_dx[d],
        };
        let first = tile.first_face(d);
        let out = tile.faces_mut(d);
        // Faces `..full` of every row in bundles along it; faces `full..`
        // of rows `..across` in bundles across them, the rest at W = 1.
        let (full, across) = (bundled(ni), bundled(nj));
        for k in first..nk {
            let plane = (origin + k * ex * ey, k * sk);
            // SAFETY: the box lies in the interior and the ghost shell is
            // at least RADIUS wide along `d` (asserted above), so the
            // stencils of the plane's faces stay inside each component's
            // slice; `out` is direction `d`'s array of the tile, which
            // holds `ncomp` components `flux_comp` apart over `ni` faces
            // per row and `nj` rows per plane.
            unsafe {
                for j in 0..nj {
                    let bases = (plane.0 + j * ex, plane.1 + j * sj);
                    flux_line::<R, F, LANES, false>(&lines, out, &mut wide, bases, (1, 1), full);
                }
                for i in full..ni {
                    let bases = (plane.0 + i, plane.1 + i);
                    let rest = (bases.0 + across * ex, bases.1 + across * sj);
                    let steps = (ex, sj);
                    flux_line::<R, F, LANES, true>(&lines, out, &mut wide, bases, steps, across);
                    flux_line::<R, F, 1, true>(&lines, out, &mut one, rest, steps, nj - across);
                }
            }
        }
        let planes = (nk - first) as u64;
        faces.0 += planes * (full * nj + (ni - full) * across) as u64;
        faces.1 += planes * ((ni - full) * (nj - across)) as u64;
    }
    faces
}

/// Pairs the rows of a tile's face plane `f` of direction `d` (the tile
/// over `cells`, its array stepped by `steps`) with the rows they cover of
/// a variable's outer face plane (`shape`d `[ncomp, e2, e1, e0]`, one thick
/// along `d`): `mv(tile offset, plane offset, row length)` per row, for the
/// variable whose first component is the tile's `c0`.
fn plane_rows(
    CellBox { lo, n }: CellBox,
    [_, sj, sk, sc]: [usize; 4],
    (d, f): (usize, usize),
    c0: usize,
    shape: [usize; 4],
    mut mv: impl FnMut(usize, usize, usize),
) {
    let mut rows = n;
    rows[d] = 1;
    for c in 0..shape[0] {
        for k in 0..rows[2] {
            for j in 0..rows[1] {
                let (mut face, mut cell) = ([0, j, k], [lo[0], lo[1] + j, lo[2] + k]);
                (face[d], cell[d]) = (f, 0);
                let tile = face[0] + face[1] * sj + face[2] * sk + (c0 + c) * sc;
                let plane = ((c * shape[1] + cell[2]) * shape[2] + cell[1]) * shape[3] + cell[0];
                mv(tile, plane, rows[0]);
            }
        }
    }
}

/// Takes the divergence of the tile's fluxes for the variable whose first
/// component is the tile's `c0`, into the rows of `div` its cells cover.
pub(crate) fn reduce(tile: &FluxTile<'_>, c0: usize, inv: [f64; 3], div: &mut Array4) {
    let CellBox { lo, n } = tile.cells();
    let [ncomp, nz, ny, nx] = div.shape();
    let div = div.as_mut_slice();
    let faces: [(&[f64], [usize; 4]); 3] = std::array::from_fn(|d| match d < tile.dim() {
        true => (tile.faces(d), tile.steps(d)),
        false => (&[][..], [0; 4]),
    });
    for c in 0..ncomp {
        for k in 0..n[2] {
            for j in 0..n[1] {
                let row = ((c * nz + lo[2] + k) * ny + lo[1] + j) * nx + lo[0];
                let out = &mut div[row..row + n[0]];
                // The lower and the upper face of every cell of the row.
                let pair = |d: usize| {
                    let (f, [_, sj, sk, sc]) = faces[d];
                    let at = j * sj + k * sk + (c0 + c) * sc;
                    let up = [1, sj, sk][d];
                    (&f[at..at + n[0]], &f[at + up..at + up + n[0]])
                };
                let (xl, xr) = pair(0);
                match tile.dim() {
                    1 => {
                        for q in 0..n[0] {
                            out[q] = (xr[q] - xl[q]) * inv[0];
                        }
                    }
                    2 => {
                        let (yl, yr) = pair(1);
                        for q in 0..n[0] {
                            out[q] = (xr[q] - xl[q]) * inv[0] + (yr[q] - yl[q]) * inv[1];
                        }
                    }
                    _ => {
                        let ((yl, yr), (zl, zr)) = (pair(1), pair(2));
                        for q in 0..n[0] {
                            out[q] = ((xr[q] - xl[q]) * inv[0] + (yr[q] - yl[q]) * inv[1])
                                + (zr[q] - zl[q]) * inv[2];
                        }
                    }
                }
            }
        }
    }
}

/// Copies the fluxes of the tile's faces that lie on the block's surface
/// (a block of `ncells`) into the variable's face `planes` (`save`), or the
/// planes' values over those faces (`!save`), for the variable whose first
/// component is the tile's `c0`.
pub(crate) fn copy_surface(
    tile: &mut FluxTile<'_>,
    c0: usize,
    planes: &mut [Array4],
    ncells: [usize; 3],
    save: bool,
) {
    let cells = tile.cells();
    for (face, plane) in planes.iter_mut().enumerate() {
        let (d, side) = (face / 2, face % 2);
        if cells.lo[d] + side * cells.n[d] != side * ncells[d] {
            continue;
        }
        let (shape, plane) = (plane.shape(), plane.as_mut_slice());
        let (steps, on_tile) = (tile.steps(d), (d, side * cells.n[d]));
        let fluxes = tile.faces_mut(d);
        plane_rows(cells, steps, on_tile, c0, shape, |t, p, len| match save {
            true => plane[p..p + len].copy_from_slice(&fluxes[t..t + len]),
            false => fluxes[t..t + len].copy_from_slice(&plane[p..p + len]),
        });
    }
}

/// Copies the faces `tile` shares with `kept`, a tile over another box of
/// the same block, into it: components `c0..` of `tile` become `kept`'s
/// components `0..`.
fn keep_shared(tile: &FluxTile<'_>, c0: usize, kept: &mut FluxTile<'_>) {
    let (t, l) = (tile.cells(), kept.cells());
    for d in 0..tile.dim() {
        // The faces both hold, in block face coordinates: `lo..hi` per axis.
        let lo: [usize; 3] = std::array::from_fn(|a| t.lo[a].max(l.lo[a]));
        let hi: [usize; 3] = std::array::from_fn(|a| {
            let up = usize::from(a == d);
            (t.lo[a] + t.n[a] + up).min(l.lo[a] + l.n[a] + up)
        });
        if (0..3).any(|a| lo[a] >= hi[a]) {
            continue;
        }
        let ([_, tj, tk, tc], [_, lj, lk, lc]) = (tile.steps(d), kept.steps(d));
        let (ncomp, len) = (kept.ncomp(), hi[0] - lo[0]);
        let (src, dst) = (tile.faces(d), kept.faces_mut(d));
        for c in 0..ncomp {
            for k in lo[2]..hi[2] {
                for j in lo[1]..hi[1] {
                    let from = lo[0] - t.lo[0] + (j - t.lo[1]) * tj + (k - t.lo[2]) * tk;
                    let to = lo[0] - l.lo[0] + (j - l.lo[1]) * lj + (k - l.lo[2]) * lk;
                    let (from, to) = (from + (c0 + c) * tc, to + c * lc);
                    dst[to..to + len].copy_from_slice(&src[from..from + len]);
                }
            }
        }
    }
}

/// Sweeps the tiles `boxes` of one block: fills each tile's fluxes in
/// `scratch` from the block's state, which it only borrows shared, saves
/// the surface planes, keeps the fluxes of the one-cell layers under the
/// outer faces in `keep` (bit `2 * d + side`), and takes the divergence
/// over the tile's cells — into `out`, the flux-bearing variables'
/// divergence arrays, planes and kept layers in registration order, moved
/// out of `data` ([`vibe_field::CellVariable::take_flux_out`]). A layer's
/// storage is sized here, so it exists only for the faces asked for. A
/// tile stacked on the previous one in z inherits the plane they share.
///
/// # Panics
///
/// Panics if a tile does not fit `scratch`.
pub fn sweep_block<P: Package>(
    pkg: &P,
    info: &BlockInfo,
    data: &BlockData,
    out: &mut [FluxOut],
    boxes: &[CellBox],
    keep: u8,
    scratch: &mut [f64],
) {
    let shape = *data.shape();
    let (dim, ncells) = (shape.dim(), shape.ncells());
    let ncomp: usize = out.iter().map(|o| o.div.shape()[0]).sum();
    let inv = info.geom.dx().map(|dx| 1.0 / dx);
    let layers: [CellBox; 6] = std::array::from_fn(|face| CellBox::interior(&shape).layer(face));
    for o in out.iter_mut() {
        let nc = o.div.shape()[0];
        o.layers.resize_with(2 * dim, Vec::new);
        for (face, kept) in o.layers.iter_mut().enumerate() {
            let len = match keep >> face & 1 {
                1 => layers[face].tile_len(dim, nc),
                _ => 0,
            };
            if kept.len() != len {
                *kept = vec![0.0; len];
            }
        }
    }
    let mut below: Option<CellBox> = None;
    for &cells in boxes {
        let stacked = |b: CellBox| {
            (b.lo[0], b.lo[1], b.lo[2] + b.n[2]) == (cells.lo[0], cells.lo[1], cells.lo[2])
                && b.n[..2] == cells.n[..2]
        };
        let carried = dim == 3 && below.is_some_and(stacked);
        if let (true, Some(below)) = (carried, below) {
            // The z-array is the tile's last and plane-major: its top plane
            // is the tile's tail, its bottom plane follows the x and y
            // arrays.
            let plane = ncomp * cells.n[0] * cells.n[1];
            let top = below.tile_len(dim, ncomp) - plane;
            scratch.copy_within(top..top + plane, cells.tile_len(2, ncomp));
        }
        let mut tile = FluxTile::new(cells, dim, ncomp, scratch);
        tile.carried = carried;
        pkg.fill_fluxes(info, data, &mut tile);
        let mut c0 = 0;
        for o in out.iter_mut() {
            let nc = o.div.shape()[0];
            copy_surface(&mut tile, c0, &mut o.planes, ncells, true);
            for (&layer, kept) in layers.iter().zip(&mut o.layers) {
                if !kept.is_empty() {
                    keep_shared(&tile, c0, &mut FluxTile::new(layer, dim, nc, kept));
                }
            }
            reduce(&tile, c0, inv, &mut o.div);
            c0 += nc;
        }
        below = Some(cells);
    }
}

/// [`sweep_block`] for a caller that holds the block exclusively: moves the
/// flux outputs of `ids` out of `slot` for the sweep and back.
pub fn sweep_slot<P: Package>(
    pkg: &P,
    slot: &mut BlockSlot,
    ids: &[VarId],
    boxes: &[CellBox],
    keep: u8,
    scratch: &mut [f64],
) {
    let take = |&id| slot.data.var_mut(id).take_flux_out();
    let mut out: Vec<FluxOut> = ids.iter().map(take).collect();
    sweep_block(pkg, &slot.info, &slot.data, &mut out, boxes, keep, scratch);
    for (&id, out) in ids.iter().zip(out) {
        slot.data.var_mut(id).put_flux_out(out);
    }
}

/// Re-takes the divergence of the one-cell layers under the outer faces
/// `faces` (bit `2 * d + side`) of `slot` for every variable `ids`, from
/// the fluxes the stage's sweep kept of them ([`sweep_block`]'s `keep`)
/// with the face planes' values, corrected or not, on the block's surface
/// — the sweep's own reduction over the layer's faces, so a layer whose
/// planes are as the sweep saved them gets its `div` back bit for bit.
///
/// # Panics
///
/// Panics if the sweep did not keep one of the layers.
pub fn reduce_layers(slot: &mut BlockSlot, ids: &[VarId], faces: u8) {
    let shape = *slot.data.shape();
    let (dim, ncells) = (shape.dim(), shape.ncells());
    let inv = slot.info.geom.dx().map(|dx| 1.0 / dx);
    for &id in ids {
        let var = slot.data.var_mut(id);
        let mut out = var.take_flux_out();
        let nc = out.div.shape()[0];
        for face in (0..2 * dim).filter(|face| faces >> face & 1 == 1) {
            let cells = CellBox::interior(&shape).layer(face);
            let kept = out
                .layers
                .get_mut(face)
                .map_or(&mut [][..], Vec::as_mut_slice);
            assert_eq!(
                kept.len(),
                cells.tile_len(dim, nc),
                "the sweep kept the layer under face {face}"
            );
            let mut tile = FluxTile::new(cells, dim, nc, kept);
            copy_surface(&mut tile, 0, &mut out.planes, ncells, false);
            reduce(&tile, 0, inv, &mut out.div);
        }
        var.put_flux_out(out);
    }
}

/// Runs `work` on every block of `pack` (ascending gid) under `exec`; with
/// a `cost` ledger indexed by gid, each block's own wall time is added to
/// its entry. The timing is observational only — the work is the same code
/// either way.
pub(crate) fn for_each_block_costed(
    pack: &mut [&mut BlockSlot],
    exec: ExecCtx,
    cost: Option<&mut [u64]>,
    work: impl Fn(&mut BlockSlot) + Sync,
) {
    let Some(mut rest) = cost else {
        return exec.for_each_block(pack, |_, slot| work(slot));
    };
    // Each block's own entry, split off the ledger in gid order.
    let mut next = 0;
    let mut items: Vec<(&mut &mut BlockSlot, &mut u64)> = Vec::with_capacity(pack.len());
    for slot in pack.iter_mut() {
        let (entry, tail) = rest[slot.info.gid - next..]
            .split_first_mut()
            .expect("a ledger entry per gid");
        (next, rest) = (slot.info.gid + 1, tail);
        items.push((slot, entry));
    }
    exec.for_each_block(&mut items, |_, (slot, ns)| {
        let t0 = Instant::now();
        work(slot);
        **ns += t0.elapsed().as_nanos() as u64;
    });
}

/// Records what one flux node of a stage launches over one rank's `pack`
/// in the platform model: its share of the `CalculateFluxes` launch — the
/// cells split by the x-faces whose stencils stay inside the interior —
/// and the per-launch resolution of the swept variables' names on every
/// block.
pub fn record_flux_launch<P: Package>(
    pkg: &P,
    pack: &mut [&mut BlockSlot],
    phase: FluxPhase,
    ids: &[VarId],
    rec: &mut Recorder,
) {
    let Some(first) = pack.first() else { return };
    let shape = *first.data.shape();
    let cells = pack.len() as u64 * shape.interior_count() as u64;
    let faces = shape.ncells()[0] as u64 + 1;
    let interior = cells * faces.saturating_sub(2 * pkg.stencil_radius() as u64) / faces;
    let share = match phase {
        FluxPhase::Interior => interior,
        FluxPhase::Exterior => cells - interior,
    };
    let mult = pkg.flux_byte_multiplier(&shape);
    catalog::CALCULATE_FLUXES.record(rec, share, mult);
    for slot in pack {
        slot.data.count_resolutions(ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, DriverParams};
    use crate::test_package::Advect;
    use vibe_mesh::{Mesh, MeshParams};

    /// Bytes of tile scratch the calling thread holds.
    fn scratch_bytes() -> usize {
        SCRATCH.with_borrow(|scratch| 8 * scratch.capacity())
    }

    /// The floor is a floor: however many blocks a worker sweeps, its flux
    /// scratch is one tile budget — so a run's flux scratch totals
    /// workers × budget at any block count. (Core ships no Burgers; the
    /// upwind test package sweeps through the same entry points.)
    #[test]
    fn flux_scratch_is_one_budget_per_worker_whatever_the_block_count() {
        let worker = || {
            assert_eq!(
                scratch_bytes(),
                0,
                "no scratch before a thread's first sweep"
            );
            [16, 64].map(|mesh_cells| {
                let params = MeshParams::builder()
                    .dim(2)
                    .mesh_cells(mesh_cells)
                    .block_cells(8)
                    .max_levels(1)
                    .nghost(2)
                    .build()
                    .unwrap();
                let mesh = Mesh::new(params).unwrap();
                let mut d = Driver::new(mesh, Advect::default(), DriverParams::default());
                d.initialize(|_, data| data.vars_mut()[0].data_mut().fill(1.0));
                d.run_cycles(2);
                (d.mesh().num_blocks(), scratch_bytes())
            })
        };
        let workers: Vec<_> = std::thread::scope(|s| {
            let spawned = [s.spawn(worker), s.spawn(worker)];
            spawned.map(|w| w.join().expect("worker ran")).to_vec()
        });
        for seen in workers {
            assert_eq!(seen, [(4, TILE_BUDGET_BYTES), (64, TILE_BUDGET_BYTES)]);
        }
    }

    /// A package whose flux records every face it is evaluated on, by the
    /// bits of the two cells beside it — every cell holds its own storage
    /// index, so that pair names one face.
    struct Counting {
        ncomp: usize,
        seen: std::sync::Mutex<Vec<(usize, u64, u64)>>,
    }

    impl FaceFlux for Counting {
        fn flux<const W: usize>(
            &self,
            d: usize,
            _inv_dx: f64,
            left: &[F64Lanes<W>],
            right: &[F64Lanes<W>],
            out: &mut [F64Lanes<W>],
        ) {
            let mut seen = self.seen.lock().expect("one sweep at a time");
            seen.extend((0..W).map(|l| (d, left[0].lane(l).to_bits(), right[0].lane(l).to_bits())));
            out.copy_from_slice(left);
        }
    }

    impl Package for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn register(&self, data: &mut BlockData) {
            data.add_variable(
                "q",
                self.ncomp,
                Metadata::INDEPENDENT | Metadata::WITH_FLUXES,
            );
        }

        fn nghost(&self) -> usize {
            1
        }

        fn stencil_radius(&self) -> usize {
            1
        }

        fn fill_fluxes(&self, info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>) {
            fill_lines::<DonorCell, _>(self, info, data, tile);
        }

        fn estimate_dt(&self, _info: &BlockInfo, _data: &mut BlockData) -> f64 {
            1.0
        }

        fn refinement_indicator(&self, _info: &BlockInfo, _data: &mut BlockData) -> f64 {
            0.0
        }
    }

    /// One stage sweep evaluates each face of a block in exactly one lane
    /// of one bundle — the remainder of a row is not re-run in an
    /// overlapped bundle, a slab's carried plane is not re-run — and the
    /// stage update's re-reduce of the layers under every outer face
    /// evaluates none: 8³ and 16³ blocks (one slab; four slabs at seven
    /// components) and a 2-D block of 5² (a W = 1 tail).
    #[test]
    fn a_stage_evaluates_each_face_once() {
        for (dim, n, ncomp) in [(3, 8, 1), (3, 16, 7), (2, 5, 1)] {
            let pkg = Counting {
                ncomp,
                seen: Default::default(),
            };
            let params = MeshParams::builder()
                .dim(dim)
                .mesh_cells(n)
                .block_cells(n)
                .max_levels(1)
                .nghost(1)
                .build()
                .unwrap();
            let mesh = Mesh::new(params).unwrap();
            let mut data = BlockData::new(mesh.index_shape());
            pkg.register(&mut data);
            let q = data.var_mut(VarId(0)).data_mut().as_mut_slice();
            q.iter_mut().enumerate().for_each(|(at, v)| *v = at as f64);
            let mut slot = BlockSlot::new(BlockInfo::from_mesh(&mesh, 0), data);
            let shape = mesh.index_shape();
            let tiles = CellBox::interior(&shape).tiles(dim, ncomp, TILE_BUDGET_BYTES / 8);
            let all = (1u8 << (2 * dim)) - 1;
            with_scratch(|s| sweep_slot(&pkg, &mut slot, &[VarId(0)], &tiles, all, s));
            let mut seen = pkg.seen.lock().unwrap().clone();
            let evaluated = seen.len();
            seen.sort_unstable();
            seen.dedup();
            let faces = dim * (n + 1) * n.pow(dim as u32 - 1);
            assert_eq!(
                (seen.len(), evaluated),
                (faces, faces),
                "{dim}-D, {n} cells, {} tiles: distinct faces and evaluations",
                tiles.len()
            );
            reduce_layers(&mut slot, &[VarId(0)], all);
            assert_eq!(
                pkg.seen.lock().unwrap().len(),
                faces,
                "the re-reduce evaluates no face"
            );
        }
    }

    #[test]
    fn tiles_partition_the_box_within_the_budget() {
        let whole = CellBox {
            lo: [0; 3],
            n: [16, 16, 16],
        };
        // Slabs, equalised: 7 components fit five layers, so four of four.
        let slabs = whole.tiles(3, 7, TILE_BUDGET_BYTES / 8);
        assert_eq!(slabs.len(), 4);
        assert!(slabs.iter().all(|t| t.n == [16, 16, 4]));
        // Not even one layer fits: y-strips of single layers.
        let one_layer = whole.tiles(3, 7, 7 * (17 * 16 + 16 * 17 + 2 * 256)).len();
        assert_eq!(one_layer, 16);
        let strips = whole.tiles(3, 7, 7 * (17 * 16 + 16 * 17 + 2 * 256) - 1);
        assert!(strips.len() > 16 && strips.iter().all(|t| t.n[2] == 1 && t.n[0] == 16));
        for tiles in [slabs, strips] {
            assert_eq!(
                tiles
                    .iter()
                    .map(|t| t.n.iter().product::<usize>())
                    .sum::<usize>(),
                4096
            );
        }
    }
}
