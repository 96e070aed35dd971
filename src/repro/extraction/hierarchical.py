"""Hierarchical block low-rank partial inductance (the 100k+ scale path).

The dense assembly in :mod:`repro.extraction.inductance` evaluates (or
at least stores) every pair, which caps end-to-end runs at a few
thousand filaments: O(N^2) memory for the block and O(N^2) pair work on
irregular geometries.  This module replaces the dense per-axis block
with a *hierarchical block low-rank* operator that is never
materialized:

- filaments are clustered by an axis-aligned bounding-box tree over
  their centerlines (recursive median bisection of the widest box
  dimension, so the tree is deterministic for a given geometry);
- *near-field* cluster pairs -- not well separated -- are evaluated
  exactly with the same Neumann/GMD kernels as the dense path, one
  dense block per leaf pair;
- *far-field* pairs satisfying the admissibility condition
  ``max(diam_a, diam_b) <= eta * dist(box_a, box_b)`` are compressed
  with partially pivoted adaptive cross approximation (ACA) under a
  user-set relative cutoff; blocks that refuse to compress fall back to
  dense evaluation, so the cutoff bounds the error but never the
  correctness.

Storage and build cost are O(N b^2 + N log N) instead of O(N^2); the
118k-filament runs in ``BENCH_extraction_scale.json`` fit in a few
hundred MB where the dense block alone would need tens of GB.

The result is exposed as a :class:`LazyInductance` operator with a
``gather(rows, cols)`` interface returning exact dense submatrices:
near-field entries verbatim (bit-identical to the pairwise dense path),
far-field entries re-expanded from their low-rank factors on demand.
``repro.vpec.windowing`` feeds its window solves and ``repro.noise``
its screening tier straight from the tree, so the full matrix never
exists at any point of the extract -> wVPEC -> noise-scan flow.

The operator is a plain bundle of flat numpy arrays (tree nodes, block
directory, two data pools), so it pickles compactly for the pipeline
cache and maps zero-copy through the shared-memory parasitics store.
"""

from __future__ import annotations

import atexit
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.extraction.inductance import (
    _COLLINEAR_TOL,
    _GMD_CUTOFF,
    _gmd_grouped,
    _mutual_collinear_vec,
    _mutual_parallel_vec,
    axis_geometry,
    self_inductance_bar,
)
from repro.geometry.filament import Axis
from repro.geometry.system import FilamentSystem
from repro.pipeline.parallel import parallel_map
from repro.pipeline.profiling import (
    active_profile,
    add_counter,
    collect,
    stage,
)

#: Block kinds in the block directory (column 2 of ``block_table``).
#: ``_KIND_DENSE_SPILL`` is a dense block that lives in the *factor*
#: pool: an admissible pair whose ACA refused to converge.  The
#: parallel builder reserves factor-pool space per admissible block
#: before the workers run, so a fallback block lands in the reservation
#: it already owns (or, when even that is too small, rides back to the
#: owner and is appended during compaction) instead of fighting the
#: dense pool's precomputed layout.
_KIND_DENSE = 0
_KIND_LOWRANK = 1
_KIND_DENSE_SPILL = 2


@dataclass(frozen=True)
class HierarchicalConfig:
    """Tuning knobs of the hierarchical builder: cluster-tree / ACA
    parameters; ``cutoff=0`` disables compression and reproduces the
    dense entries bit for bit.

    ``leaf_size`` bounds cluster leaves (near-field dense blocks are at
    most ``leaf_size`` square).  ``eta`` is the admissibility parameter:
    a cluster pair is compressible when ``max(diam) <= eta * dist``;
    larger values compress more aggressively, smaller values keep more
    of the matrix exact.  ``cutoff`` is the relative Frobenius tolerance
    of the ACA factorization (``0`` disables compression entirely --
    every block is then evaluated exactly and ``gather`` is
    bit-identical to the dense pairwise path).  ``max_rank`` caps the
    ACA rank; a block that has not converged by then is stored dense.
    """

    leaf_size: int = 64
    eta: float = 2.0
    cutoff: float = 1e-8
    max_rank: int = 64

    def __post_init__(self) -> None:
        if self.leaf_size < 2:
            raise ValueError("leaf_size must be >= 2")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")

    @property
    def compress(self) -> bool:
        return self.cutoff > 0.0


DEFAULT_CONFIG = HierarchicalConfig()


# ----------------------------------------------------------------------
# Exact pairwise evaluator (bit-identical to the dense general path)
# ----------------------------------------------------------------------
class _PairEvaluator:
    """Exact Neumann/GMD entries for arbitrary index pairs of one axis.

    Works in *tree* coordinates (the arrays are permuted into cluster
    order up front); ``orig`` maps tree slots back to axis-local
    positions so each unordered pair is canonicalized exactly the way
    ``_general_block`` orders its upper triangle (low axis-local index
    first).  Every float operation -- ``hypot`` distance, GMD cutoff
    test, the shared GMD LRU, the Neumann/collinear kernels -- is the
    same elementwise sequence as the dense path, so entries agree bit
    for bit with the general (non-lattice) dense assembly.
    """

    __slots__ = (
        "lengths",
        "widths",
        "thicknesses",
        "starts",
        "centers",
        "orig",
        "dims",
        "diagonal",
        "gmd_correction",
    )

    def __init__(
        self,
        lengths: np.ndarray,
        widths: np.ndarray,
        thicknesses: np.ndarray,
        starts: np.ndarray,
        centers: np.ndarray,
        orig: np.ndarray,
        gmd_correction: bool,
    ) -> None:
        self.lengths = lengths
        self.widths = widths
        self.thicknesses = thicknesses
        self.starts = starts
        self.centers = centers
        self.orig = orig
        self.dims = np.maximum(widths, thicknesses)
        self.diagonal = np.asarray(
            self_inductance_bar(lengths, widths, thicknesses), dtype=float
        ).reshape(lengths.size)
        self.gmd_correction = gmd_correction

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``L`` entries of pairs ``(i, j)`` (tree coordinates)."""
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        values = np.empty(i.size)
        diag = i == j
        if diag.any():
            values[diag] = self.diagonal[i[diag]]
        off = np.nonzero(~diag)[0]
        if off.size:
            values[off] = self._off_diagonal(i[off], j[off])
        return values

    def _off_diagonal(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # Canonical pair order: low axis-local position first, exactly
        # like the upper-triangle enumeration of the dense path.
        swap = self.orig[i] > self.orig[j]
        a = np.where(swap, j, i)
        b = np.where(swap, i, j)
        centers = self.centers
        dy = centers[a, 0] - centers[b, 0]
        dz = centers[a, 1] - centers[b, 1]
        distance = np.hypot(dy, dz)
        offset = self.starts[b] - self.starts[a]
        len_a = self.lengths[a]
        len_b = self.lengths[b]

        lateral = distance > _COLLINEAR_TOL
        eff = distance.copy()
        if self.gmd_correction:
            pair_dim = np.maximum(self.dims[a], self.dims[b])
            close = lateral & (distance < _GMD_CUTOFF * pair_dim)
            sel = np.nonzero(close)[0]
            if sel.size:
                eff[sel] = _gmd_grouped(
                    self.widths[a[sel]],
                    self.thicknesses[a[sel]],
                    self.widths[b[sel]],
                    self.thicknesses[b[sel]],
                    np.abs(dy[sel]),
                    np.abs(dz[sel]),
                )

        values = np.zeros(a.size)
        lat = np.nonzero(lateral)[0]
        if lat.size:
            values[lat] = _mutual_parallel_vec(
                len_a[lat], len_b[lat], eff[lat], offset[lat]
            )
        col = np.nonzero(~lateral)[0]
        if col.size:
            values[col] = _mutual_collinear_vec(
                len_a[col], len_b[col], offset[col]
            )
        return values

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), len(cols))`` block (tree coordinates)."""
        ii = np.repeat(np.asarray(rows, dtype=np.intp), len(cols))
        jj = np.tile(np.asarray(cols, dtype=np.intp), len(rows))
        add_counter("hier_kernel_entries", ii.size)
        return self.entries(ii, jj).reshape(len(rows), len(cols))

    def row(self, i: int, cols: np.ndarray) -> np.ndarray:
        cols = np.asarray(cols, dtype=np.intp)
        add_counter("hier_kernel_entries", cols.size)
        return self.entries(np.full(cols.size, i, dtype=np.intp), cols)

    def col(self, rows: np.ndarray, j: int) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        add_counter("hier_kernel_entries", rows.size)
        return self.entries(rows, np.full(rows.size, j, dtype=np.intp))


# ----------------------------------------------------------------------
# Cluster tree
# ----------------------------------------------------------------------
def _build_cluster_tree(
    box_min: np.ndarray, box_max: np.ndarray, leaf_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Median-bisection AABB tree over per-filament boxes.

    Returns ``(perm, node_lo, node_hi, node_left, node_right,
    node_box_min, node_box_max)``: ``perm[p]`` is the axis-local
    position stored at tree slot ``p``; each node covers the contiguous
    slot range ``[lo, hi)``; ``left/right`` are child node ids (-1 for
    leaves); the node boxes are unions of the member filament boxes.
    Splits bisect the widest dimension of the member centers at the
    median slot, with a stable argsort so the tree is deterministic.
    """
    n = box_min.shape[0]
    points = (box_min + box_max) / 2.0
    perm = np.arange(n, dtype=np.int64)
    lo_list: List[int] = []
    hi_list: List[int] = []
    left_list: List[int] = []
    right_list: List[int] = []
    # (lo, hi) ranges to process; parents patched once children exist.
    pending: List[Tuple[int, int, int]] = [(0, n, -1)]
    while pending:
        lo, hi, parent_slot = pending.pop()
        node = len(lo_list)
        lo_list.append(lo)
        hi_list.append(hi)
        left_list.append(-1)
        right_list.append(-1)
        if parent_slot >= 0:
            if left_list[parent_slot] == -1:
                left_list[parent_slot] = node
            else:
                right_list[parent_slot] = node
        if hi - lo <= leaf_size:
            continue
        members = perm[lo:hi]
        spread = np.ptp(points[members], axis=0)
        dim = int(np.argmax(spread))
        order = np.argsort(points[members, dim], kind="stable")
        perm[lo:hi] = members[order]
        mid = lo + (hi - lo) // 2
        # LIFO stack: push right first so the left child is numbered
        # first (pre-order), keeping the layout deterministic.
        pending.append((mid, hi, node))
        pending.append((lo, mid, node))
    node_lo = np.asarray(lo_list, dtype=np.int64)
    node_hi = np.asarray(hi_list, dtype=np.int64)
    node_left = np.asarray(left_list, dtype=np.int64)
    node_right = np.asarray(right_list, dtype=np.int64)
    m = node_lo.size
    node_box_min = np.empty((m, 3))
    node_box_max = np.empty((m, 3))
    sorted_min = box_min[perm]
    sorted_max = box_max[perm]
    # Children are numbered after their parent (pre-order), so a reverse
    # sweep can union child boxes; leaves reduce over their slot range.
    for node in range(m - 1, -1, -1):
        if node_left[node] == -1:
            node_box_min[node] = sorted_min[node_lo[node]:node_hi[node]].min(axis=0)
            node_box_max[node] = sorted_max[node_lo[node]:node_hi[node]].max(axis=0)
        else:
            left, right = node_left[node], node_right[node]
            node_box_min[node] = np.minimum(node_box_min[left], node_box_min[right])
            node_box_max[node] = np.maximum(node_box_max[left], node_box_max[right])
    return perm, node_lo, node_hi, node_left, node_right, node_box_min, node_box_max


def _box_distance(
    min_a: np.ndarray, max_a: np.ndarray, min_b: np.ndarray, max_b: np.ndarray
) -> float:
    gap = np.maximum(0.0, np.maximum(min_b - max_a, min_a - max_b))
    return float(np.sqrt(np.sum(gap * gap)))


def _box_diameter(min_box: np.ndarray, max_box: np.ndarray) -> float:
    extent = max_box - min_box
    return float(np.sqrt(np.sum(extent * extent)))


# ----------------------------------------------------------------------
# Adaptive cross approximation
# ----------------------------------------------------------------------
def _aca(
    evaluator: _PairEvaluator,
    rows: np.ndarray,
    cols: np.ndarray,
    tol: float,
    max_rank: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Partially pivoted ACA of one admissible block, or ``None``.

    Builds ``U (m, k)`` and ``V (k, n)`` with an estimated relative
    Frobenius error ``||A - U V||_F <= tol ||A||_F``.  Returns ``None``
    when the block refuses to converge within ``max_rank`` or the
    factors would not be smaller than the dense block -- the caller
    stores the exact dense block instead, so the tolerance only ever
    bounds the error of blocks that did compress.
    """
    m, n = rows.size, cols.size
    us: List[np.ndarray] = []
    vs: List[np.ndarray] = []
    used = np.zeros(m, dtype=bool)
    pivot_row = 0
    frob2 = 0.0
    converged = False
    steps = 0
    while steps < max_rank + m:
        steps += 1
        residual = evaluator.row(int(rows[pivot_row]), cols)
        for u, v in zip(us, vs):
            residual = residual - u[pivot_row] * v
        used[pivot_row] = True
        pivot_col = int(np.argmax(np.abs(residual)))
        pivot = residual[pivot_col]
        if pivot == 0.0:
            remaining = np.flatnonzero(~used)
            if remaining.size == 0:
                converged = True
                break
            pivot_row = int(remaining[0])
            continue
        v = residual / pivot
        u = evaluator.col(rows, int(cols[pivot_col]))
        for uu, vv in zip(us, vs):
            u = u - vv[pivot_col] * uu
        norm_u2 = float(u @ u)
        norm_v2 = float(v @ v)
        cross = 0.0
        for uu, vv in zip(us, vs):
            cross += float(u @ uu) * float(v @ vv)
        frob2 = max(frob2 + norm_u2 * norm_v2 + 2.0 * cross, norm_u2 * norm_v2)
        us.append(u)
        vs.append(v)
        if norm_u2 * norm_v2 <= tol * tol * frob2:
            converged = True
            break
        if len(us) >= max_rank:
            break
        candidates = np.abs(u)
        candidates[used] = -1.0
        pivot_row = int(np.argmax(candidates))
    if not converged or not us:
        return None
    rank = len(us)
    if rank * (m + n) >= m * n:
        return None
    return np.stack(us, axis=1), np.stack(vs, axis=0)


# ----------------------------------------------------------------------
# The operator
# ----------------------------------------------------------------------
class LazyInductance:
    """Hierarchical block low-rank view of one per-axis ``L`` block:
    ``gather(rows, cols)`` / ``gather_stack(windows)`` return exact dense
    submatrices, ``matvec()`` / ``matmat()`` apply it without
    materializing, plus ``diagonal()``, ``wire_sums(wire_of,
    num_wires)``, ``toarray()`` and ``compression_stats()``; picklable
    and shared-memory-columnable.

    Semantically a symmetric ``(n, n)`` matrix in the axis group's local
    index space, stored as a cluster tree plus a directory of dense
    near-field blocks and low-rank far-field factors over flat float
    pools -- the full matrix is never materialized unless
    :meth:`toarray` is explicitly asked for it.

    Everything lives in six flat numpy arrays plus a small config blob
    (see :meth:`columns`), which is what makes the operator pickle
    compactly for the pipeline cache and reconstruct zero-copy from
    shared-memory segments.
    """

    def __init__(
        self,
        n: int,
        perm: np.ndarray,
        node_lo: np.ndarray,
        node_hi: np.ndarray,
        node_left: np.ndarray,
        node_right: np.ndarray,
        block_table: np.ndarray,
        dense_data: np.ndarray,
        lr_data: np.ndarray,
        config: HierarchicalConfig,
    ) -> None:
        self.n = int(n)
        self.perm = perm
        self.node_lo = node_lo
        self.node_hi = node_hi
        self.node_left = node_left
        self.node_right = node_right
        self.block_table = block_table
        self.dense_data = dense_data
        self.lr_data = lr_data
        self.config = config
        self._rebuild_views()

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def _rebuild_views(self) -> None:
        self.inv_perm = np.empty(self.n, dtype=np.int64)
        self.inv_perm[self.perm] = np.arange(self.n, dtype=np.int64)
        self._blocks: Dict[Tuple[int, int], Tuple[int, Any, Any]] = {}
        for row in range(self.block_table.shape[0]):
            a, b, kind, offset, rank = (
                int(v) for v in self.block_table[row, :5]
            )
            ra = int(self.node_hi[a] - self.node_lo[a])
            rb = int(self.node_hi[b] - self.node_lo[b])
            if kind == _KIND_DENSE:
                data = self.dense_data[offset:offset + ra * rb]
                self._blocks[(a, b)] = (kind, data.reshape(ra, rb), None)
            elif kind == _KIND_DENSE_SPILL:
                # Dense payload stored in the factor pool; downstream
                # consumers only ever see the normalized dense kind.
                data = self.lr_data[offset:offset + ra * rb]
                self._blocks[(a, b)] = (
                    _KIND_DENSE,
                    data.reshape(ra, rb),
                    None,
                )
            else:
                u = self.lr_data[offset:offset + ra * rank]
                v = self.lr_data[offset + ra * rank:offset + ra * rank + rank * rb]
                self._blocks[(a, b)] = (
                    kind,
                    u.reshape(ra, rank),
                    v.reshape(rank, rb),
                )
        # Leaf id of each tree slot, for the single-leaf gather shortcut.
        self._leaf_of = np.empty(self.n, dtype=np.int64)
        for node in range(self.node_lo.size):
            if self.node_left[node] == -1:
                self._leaf_of[self.node_lo[node]:self.node_hi[node]] = node

    # ------------------------------------------------------------------
    # Shape protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        stats = self.compression_stats()
        return (
            f"LazyInductance(n={self.n}, blocks={len(self._blocks)}, "
            f"stored={stats['stored_bytes'] / 1e6:.1f}MB, "
            f"dense={stats['dense_bytes'] / 1e6:.1f}MB, "
            f"ratio={stats['compression_ratio']:.1f}x)"
        )

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def gather(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Exact dense submatrix ``L[rows, cols]`` (axis-local indices).

        Near-field entries come verbatim from the stored dense blocks;
        far-field entries are re-expanded from their low-rank factors.
        Cost is proportional to the touched blocks, not to ``n``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        rows_t = self.inv_perm[rows]
        cols_t = self.inv_perm[cols]
        out = np.zeros((rows.size, cols.size))
        if rows.size == 0 or cols.size == 0:
            return out
        # Single-leaf shortcut: a window of spatial neighbors almost
        # always lands inside one leaf's diagonal dense block.
        leaf = self._leaf_of[rows_t[0]]
        if (
            rows.size == cols.size
            and (self._leaf_of[rows_t] == leaf).all()
            and (self._leaf_of[cols_t] == leaf).all()
        ):
            entry = self._blocks.get((int(leaf), int(leaf)))
            if entry is not None and entry[0] == _KIND_DENSE:
                lo = self.node_lo[leaf]
                out[:, :] = entry[1][np.ix_(rows_t - lo, cols_t - lo)]
                return out
        r_order = np.argsort(rows_t, kind="stable")
        c_order = np.argsort(cols_t, kind="stable")
        rs = rows_t[r_order]
        cs = cols_t[c_order]
        self._descend(rs, r_order, cs, c_order, out)
        return out

    def gather_stack(self, windows: np.ndarray) -> np.ndarray:
        """Symmetric gathers of many windows: ``(K, w, w)`` stack."""
        windows = np.asarray(windows, dtype=np.int64)
        count, width = windows.shape
        out = np.empty((count, width, width))
        for k in range(count):
            out[k] = self.gather(windows[k], windows[k])
        return out

    # ------------------------------------------------------------------
    # Operator application
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``L @ x`` without materializing ``L`` (axis-local order).

        One pass over the block directory: dense blocks contribute a
        GEMV, low-rank blocks two skinny GEMVs (``U (V x)``), and every
        off-diagonal block also applies its transpose so symmetry costs
        no extra storage.  Cost is proportional to the stored entries --
        ``O(N b + sum(rank * (ra + rb)))`` -- not ``N^2``.

        The block iteration order is the block-table order, which the
        planner fixes before any worker runs, so repeated applications
        -- and applications through serial- vs parallel-built operators
        of the same geometry -- are bit-identical.  Against the *dense*
        ``L @ x`` the result agrees to a few ulp even at ``cutoff=0``
        (every entry is then exact but the per-block summation grouping
        differs from one long dot product), and to ~``cutoff`` when
        compression is on.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        return self._apply(x)

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """``L @ X`` for a column stack (see :meth:`matvec`); the block
        pass is shared across columns, so batched right-hand sides cost
        one traversal."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(
                f"expected shape ({self.n}, k), got {x.shape}"
            )
        return self._apply(x)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        xt = x[self.perm]
        yt = np.zeros_like(xt)
        node_lo, node_hi = self.node_lo, self.node_hi
        for (a, b), (kind, first, second) in self._blocks.items():
            lo_a, hi_a = node_lo[a], node_hi[a]
            lo_b, hi_b = node_lo[b], node_hi[b]
            if kind == _KIND_DENSE:
                yt[lo_a:hi_a] += first @ xt[lo_b:hi_b]
                if a != b:
                    yt[lo_b:hi_b] += first.T @ xt[lo_a:hi_a]
            else:
                yt[lo_a:hi_a] += first @ (second @ xt[lo_b:hi_b])
                if a != b:
                    yt[lo_b:hi_b] += second.T @ (first.T @ xt[lo_a:hi_a])
        out = np.empty_like(yt)
        out[self.perm] = yt
        return out

    def leaf_diagonal_blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """The exact near-field diagonal: ``(lo, hi, block)`` per leaf.

        Tree coordinates (``perm`` maps slots back to axis-local
        indices); each block is the leaf's stored dense self-coupling.
        This is the material of the block-Jacobi preconditioner in
        :mod:`repro.health.iterative`.
        """
        for node in range(self.node_lo.size):
            if self.node_left[node] == -1:
                _, first, _ = self._blocks[(node, node)]
                yield int(self.node_lo[node]), int(self.node_hi[node]), first

    def _descend(
        self,
        rs: np.ndarray,
        r_order: np.ndarray,
        cs: np.ndarray,
        c_order: np.ndarray,
        out: np.ndarray,
    ) -> None:
        node_lo, node_hi = self.node_lo, self.node_hi
        node_left, node_right = self.node_left, self.node_right
        blocks = self._blocks
        stack: List[Tuple[int, int]] = [(0, 0)]
        while stack:
            a, b = stack.pop()
            ra0, ra1 = np.searchsorted(rs, (node_lo[a], node_hi[a]))
            cb0, cb1 = np.searchsorted(cs, (node_lo[b], node_hi[b]))
            direct = ra1 > ra0 and cb1 > cb0
            mirror = False
            if a != b:
                rb0, rb1 = np.searchsorted(rs, (node_lo[b], node_hi[b]))
                ca0, ca1 = np.searchsorted(cs, (node_lo[a], node_hi[a]))
                mirror = rb1 > rb0 and ca1 > ca0
            if not direct and not mirror:
                continue
            entry = blocks.get((a, b))
            if entry is None:
                # No block stored at this pair: split exactly the way
                # the builder did, so the descent reproduces the stored
                # partition key for key (diverging here would skip
                # stored blocks and recurse forever at childless pairs).
                if a == b:
                    left, right = int(node_left[a]), int(node_right[a])
                    stack.append((left, left))
                    stack.append((left, right))
                    stack.append((right, right))
                else:
                    leaf_a = node_left[a] == -1
                    leaf_b = node_left[b] == -1
                    kids_a = (
                        [a] if leaf_a else [int(node_left[a]), int(node_right[a])]
                    )
                    kids_b = (
                        [b] if leaf_b else [int(node_left[b]), int(node_right[b])]
                    )
                    if not leaf_a and not leaf_b:
                        size_a = int(node_hi[a] - node_lo[a])
                        size_b = int(node_hi[b] - node_lo[b])
                        if size_a >= size_b:
                            kids_b = [b]
                        else:
                            kids_a = [a]
                    for ka in kids_a:
                        for kb in kids_b:
                            stack.append(
                                (ka, kb)
                                if node_lo[ka] <= node_lo[kb]
                                else (kb, ka)
                            )
                continue
            kind, first, second = entry
            lo_a, lo_b = node_lo[a], node_lo[b]
            if direct:
                local_r = rs[ra0:ra1] - lo_a
                local_c = cs[cb0:cb1] - lo_b
                if kind == _KIND_DENSE:
                    values = first[np.ix_(local_r, local_c)]
                else:
                    values = first[local_r] @ second[:, local_c]
                out[np.ix_(r_order[ra0:ra1], c_order[cb0:cb1])] = values
            if mirror:
                local_i = rs[rb0:rb1] - lo_b
                local_j = cs[ca0:ca1] - lo_a
                if kind == _KIND_DENSE:
                    values = first[np.ix_(local_j, local_i)].T
                else:
                    values = (first[local_j] @ second[:, local_i]).T
                out[np.ix_(r_order[rb0:rb1], c_order[ca0:ca1])] = values

    # ------------------------------------------------------------------
    # Whole-matrix views
    # ------------------------------------------------------------------
    def toarray(self) -> np.ndarray:
        """Materialize the dense block (compat path for small systems)."""
        tree = np.zeros((self.n, self.n))
        for (a, b), (kind, first, second) in self._blocks.items():
            lo_a, hi_a = self.node_lo[a], self.node_hi[a]
            lo_b, hi_b = self.node_lo[b], self.node_hi[b]
            values = first if kind == _KIND_DENSE else first @ second
            tree[lo_a:hi_a, lo_b:hi_b] = values
            if a != b:
                tree[lo_b:hi_b, lo_a:hi_a] = values.T
        out = np.empty((self.n, self.n))
        out[np.ix_(self.perm, self.perm)] = tree
        return out

    def __array__(self, dtype: Optional[np.dtype] = None, copy: Optional[bool] = None) -> np.ndarray:
        dense = self.toarray()
        return dense if dtype is None else dense.astype(dtype)

    def diagonal(self) -> np.ndarray:
        """The partial self inductances, axis-local order."""
        tree_diag = np.empty(self.n)
        for (a, b), (kind, first, _) in self._blocks.items():
            if a == b and kind == _KIND_DENSE:
                lo, hi = self.node_lo[a], self.node_hi[a]
                tree_diag[lo:hi] = np.diagonal(first)
        out = np.empty(self.n)
        out[self.perm] = tree_diag
        return out

    def wire_sums(self, wire_of: np.ndarray, num_wires: int) -> np.ndarray:
        """Wire-aggregated inductance ``sum_{i in w1, j in w2} L[i, j]``.

        Equivalent to ``G @ L @ G.T`` with the 0/1 wire gather matrix
        ``G``, computed block by block without materializing either the
        matrix or the gather: dense blocks scatter-add row then column
        sums, low-rank blocks aggregate their factors first (exact for
        the factorization, so no extra approximation enters).
        """
        wire_of = np.asarray(wire_of, dtype=np.int64)
        wire_tree = wire_of[self.perm]
        out = np.zeros((num_wires, num_wires))
        # Per-block scratch stays block-sized: a block touches at most
        # as many wires as it has rows/columns, so aggregation happens
        # over the block's *local* wire sets and only the final
        # scatter-add touches the (num_wires, num_wires) output.
        for (a, b), (kind, first, second) in self._blocks.items():
            wr = wire_tree[self.node_lo[a]:self.node_hi[a]]
            wc = wire_tree[self.node_lo[b]:self.node_hi[b]]
            local_r, inv_r = np.unique(wr, return_inverse=True)
            local_c, inv_c = np.unique(wc, return_inverse=True)
            if kind == _KIND_DENSE:
                row_agg = np.zeros((local_r.size, wc.size))
                np.add.at(row_agg, inv_r, first)
                contribution = np.zeros((local_c.size, local_r.size))
                np.add.at(contribution, inv_c, row_agg.T)
                contribution = contribution.T
            else:
                u_agg = np.zeros((local_r.size, first.shape[1]))
                np.add.at(u_agg, inv_r, first)
                v_agg = np.zeros((local_c.size, second.shape[0]))
                np.add.at(v_agg, inv_c, second.T)
                contribution = u_agg @ v_agg.T
            out[np.ix_(local_r, local_c)] += contribution
            if a != b:
                out[np.ix_(local_c, local_r)] += contribution.T
        return out

    # ------------------------------------------------------------------
    # Introspection / health
    # ------------------------------------------------------------------
    def compression_stats(self) -> Dict[str, Any]:
        kinds = self.block_table[:, 2] if self.block_table.size else np.zeros(0)
        stored = (
            self.dense_data.nbytes
            + self.lr_data.nbytes
            + self.block_table.nbytes
            + self.perm.nbytes
            + self.node_lo.nbytes * 4
        )
        dense = 8 * self.n * self.n
        return {
            "n": self.n,
            "blocks": int(self.block_table.shape[0]),
            "dense_blocks": int(
                np.sum((kinds == _KIND_DENSE) | (kinds == _KIND_DENSE_SPILL))
            ),
            "lowrank_blocks": int(np.sum(kinds == _KIND_LOWRANK)),
            "spill_blocks": int(np.sum(kinds == _KIND_DENSE_SPILL)),
            "stored_bytes": int(stored),
            "dense_bytes": int(dense),
            "compression_ratio": dense / max(stored, 1),
        }

    def validate_finite(self, name: str) -> None:
        """Raise the health taxonomy's non-finite error on bad factors."""
        from repro.health.solvers import require_finite

        require_finite(self.dense_data, name=f"{name} (near-field blocks)")
        require_finite(self.lr_data, name=f"{name} (low-rank factors)")

    def fingerprint_payload(self) -> Tuple[Any, ...]:
        """Content identity for :func:`stable_hash` (no materialization)."""
        return (
            "hierarchical",
            self.n,
            self.perm,
            self.node_lo,
            self.node_hi,
            self.node_left,
            self.node_right,
            self.block_table,
            self.dense_data,
            self.lr_data,
            self.config,
        )

    # ------------------------------------------------------------------
    # Serialization (pickle + shared-memory columns)
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """``(meta, arrays)`` split for the shared-memory column store."""
        meta = {
            "n": self.n,
            "config": {
                "leaf_size": self.config.leaf_size,
                "eta": self.config.eta,
                "cutoff": self.config.cutoff,
                "max_rank": self.config.max_rank,
            },
        }
        arrays = {
            "perm": self.perm,
            "node_lo": self.node_lo,
            "node_hi": self.node_hi,
            "node_left": self.node_left,
            "node_right": self.node_right,
            "block_table": self.block_table,
            "dense_data": self.dense_data,
            "lr_data": self.lr_data,
        }
        return meta, arrays

    @classmethod
    def from_columns(
        cls, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "LazyInductance":
        return cls(
            n=meta["n"],
            perm=arrays["perm"],
            node_lo=arrays["node_lo"],
            node_hi=arrays["node_hi"],
            node_left=arrays["node_left"],
            node_right=arrays["node_right"],
            block_table=arrays["block_table"],
            dense_data=arrays["dense_data"],
            lr_data=arrays["lr_data"],
            config=HierarchicalConfig(**meta["config"]),
        )

    def __getstate__(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        return self.columns()

    def __setstate__(
        self, state: Tuple[Dict[str, Any], Dict[str, np.ndarray]]
    ) -> None:
        meta, arrays = state
        rebuilt = LazyInductance.from_columns(meta, arrays)
        self.__dict__.update(rebuilt.__dict__)


def is_lazy_block(block: Any) -> bool:
    """True for hierarchical operator blocks (vs plain dense ndarrays)."""
    return isinstance(block, LazyInductance)


def dense_block(block: Any) -> np.ndarray:
    """A plain ndarray view of a block, materializing operators."""
    if isinstance(block, LazyInductance):
        return block.toarray()
    return np.asarray(block)


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def _filament_boxes(
    lengths: np.ndarray,
    widths: np.ndarray,
    thicknesses: np.ndarray,
    starts: np.ndarray,
    centers: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-filament AABBs in (width dir, thickness dir, axial) space."""
    n = lengths.size
    box_min = np.empty((n, 3))
    box_max = np.empty((n, 3))
    box_min[:, 0] = centers[:, 0] - widths / 2.0
    box_max[:, 0] = centers[:, 0] + widths / 2.0
    box_min[:, 1] = centers[:, 1] - thicknesses / 2.0
    box_max[:, 1] = centers[:, 1] + thicknesses / 2.0
    box_min[:, 2] = starts
    box_max[:, 2] = starts + lengths
    return box_min, box_max


#: Plan-row kinds (column 2 of a *plan* row, before evaluation): the
#: planner decides dense vs admissible; only the executed table knows
#: whether an admissible block actually compressed.
_PLAN_DENSE = 0
_PLAN_LOWRANK = 1


def _plan_blocks(
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_left: np.ndarray,
    node_right: np.ndarray,
    nbox_min: np.ndarray,
    nbox_max: np.ndarray,
    diam: np.ndarray,
    config: HierarchicalConfig,
) -> Tuple[np.ndarray, int, int]:
    """The geometry-only half of the build: the block list with offsets.

    Traverses the cluster tree exactly like the original single-pass
    builder, but evaluates *nothing* -- it only decides, per emitted
    pair, dense (near field) or admissible (far field), and assigns
    every block its pool offset up front:

    - dense blocks get exact ``ra * rb`` slices of the dense pool;
    - admissible blocks get a ``cap * (ra + rb)`` *reservation* in the
      factor pool, where ``cap = min(max_rank, ra, rb)`` is the largest
      rank ACA may return.

    With offsets fixed before any kernel work, evaluation of the rows
    is embarrassingly parallel: workers write disjoint slices of two
    preallocated pools and never ship block payloads back.  Returns
    ``(plan, dense_total, lr_total)`` with plan rows
    ``(a, b, plan_kind, offset, cap)``.
    """
    rows: List[Tuple[int, int, int, int, int]] = []
    dense_total = 0
    lr_total = 0
    stack: List[Tuple[int, int]] = [(0, 0)]
    while stack:
        a, b = stack.pop()
        size_a = int(node_hi[a] - node_lo[a])
        size_b = int(node_hi[b] - node_lo[b])
        leaf_a = node_left[a] == -1
        leaf_b = node_left[b] == -1
        if a == b:
            if leaf_a:
                rows.append((a, a, _PLAN_DENSE, dense_total, 0))
                dense_total += size_a * size_a
            else:
                left, right = int(node_left[a]), int(node_right[a])
                stack.append((left, left))
                stack.append((left, right))
                stack.append((right, right))
            continue
        admissible = False
        if config.compress and min(size_a, size_b) >= 8:
            dist = _box_distance(
                nbox_min[a], nbox_max[a], nbox_min[b], nbox_max[b]
            )
            admissible = max(diam[a], diam[b]) <= config.eta * dist
        if admissible:
            cap = min(config.max_rank, size_a, size_b)
            rows.append((a, b, _PLAN_LOWRANK, lr_total, cap))
            lr_total += cap * (size_a + size_b)
            continue
        if leaf_a and leaf_b:
            rows.append((a, b, _PLAN_DENSE, dense_total, 0))
            dense_total += size_a * size_b
            continue
        kids_a = [a] if leaf_a else [int(node_left[a]), int(node_right[a])]
        kids_b = [b] if leaf_b else [int(node_left[b]), int(node_right[b])]
        # Only split the larger side when both have children, keeping
        # block counts (and descent work) low for unbalanced pairs.
        if not leaf_a and not leaf_b:
            if size_a >= size_b:
                kids_b = [b]
            else:
                kids_a = [a]
        for ka in kids_a:
            for kb in kids_b:
                stack.append((ka, kb) if node_lo[ka] <= node_lo[kb] else (kb, ka))
    plan = np.asarray(rows, dtype=np.int64).reshape(len(rows), 5)
    return plan, dense_total, lr_total


def _execute_plan_rows(
    evaluator: _PairEvaluator,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    plan: np.ndarray,
    dense_data: np.ndarray,
    lr_data: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """Evaluate the blocks of ``plan`` into their preassigned slices.

    The one evaluation routine shared by the serial path (private
    arrays) and the pool workers (shared-memory pool views), which is
    what makes serial- and parallel-built operators bit-identical: the
    kernel call sequence per block is fixed by the plan row, regardless
    of which process runs it.

    Returns ``(kinds, ranks, spills)`` per plan row.  ``kinds`` uses
    the final block-table vocabulary; an admissible block whose ACA did
    not converge becomes :data:`_KIND_DENSE_SPILL` -- written into its
    factor-pool reservation when it fits (``ra * rb <= cap * (ra +
    rb)``, i.e. whenever ``min(ra, rb) <= cap``), otherwise returned in
    ``spills`` for the owner to append at compaction time.
    """
    count = plan.shape[0]
    kinds = np.empty(count, dtype=np.int64)
    ranks = np.zeros(count, dtype=np.int64)
    spills: Dict[int, np.ndarray] = {}
    for idx in range(count):
        a, b, plan_kind, offset, cap = (int(v) for v in plan[idx])
        rows = np.arange(node_lo[a], node_hi[a])
        cols = np.arange(node_lo[b], node_hi[b])
        if plan_kind == _PLAN_DENSE:
            block = evaluator.block(rows, cols)
            dense_data[offset:offset + block.size] = block.ravel()
            kinds[idx] = _KIND_DENSE
            add_counter("hier_dense_blocks")
            continue
        factors = _aca(evaluator, rows, cols, tol, cap)
        if factors is not None:
            u, v = factors
            lr_data[offset:offset + u.size] = u.ravel()
            lr_data[offset + u.size:offset + u.size + v.size] = v.ravel()
            kinds[idx] = _KIND_LOWRANK
            ranks[idx] = u.shape[1]
            add_counter("hier_lowrank_blocks")
            continue
        add_counter("hier_aca_fallbacks")
        block = evaluator.block(rows, cols)
        kinds[idx] = _KIND_DENSE_SPILL
        if block.size <= cap * (rows.size + cols.size):
            lr_data[offset:offset + block.size] = block.ravel()
        else:
            spills[idx] = block
            add_counter("hier_spill_blocks")
        add_counter("hier_dense_blocks")
    return kinds, ranks, spills


def _assemble_operator(
    n: int,
    perm: np.ndarray,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_left: np.ndarray,
    node_right: np.ndarray,
    config: HierarchicalConfig,
    plan: np.ndarray,
    kinds: np.ndarray,
    ranks: np.ndarray,
    spills: Dict[int, np.ndarray],
    dense_data: np.ndarray,
    lr_scratch: np.ndarray,
) -> LazyInductance:
    """Compact the executed plan into the final operator.

    The dense pool's planned layout is already exact, so ``dense_data``
    is adopted as-is (in the parallel path that is a zero-copy
    shared-memory view).  The factor pool is *reserved* per admissible
    block, so actual ranks leave gaps; those are squeezed out here into
    a private, tightly packed ``lr_data`` -- fingerprints hash the
    pools, and reservation gaps would otherwise hash nondeterministic
    garbage.  Spilled dense fallbacks are appended in plan order.
    """
    count = plan.shape[0]
    sizes_a = node_hi[plan[:, 0]] - node_lo[plan[:, 0]]
    sizes_b = node_hi[plan[:, 1]] - node_lo[plan[:, 1]]
    lr_sizes = np.where(
        kinds == _KIND_LOWRANK,
        ranks * (sizes_a + sizes_b),
        np.where(kinds == _KIND_DENSE_SPILL, sizes_a * sizes_b, 0),
    )
    lr_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lr_sizes)]
    )
    lr_data = np.empty(int(lr_offsets[-1]))
    block_table = np.zeros((count, 5), dtype=np.int64)
    block_table[:, 0] = plan[:, 0]
    block_table[:, 1] = plan[:, 1]
    block_table[:, 2] = kinds
    block_table[:, 4] = np.where(kinds == _KIND_LOWRANK, ranks, 0)
    for idx in range(count):
        if kinds[idx] == _KIND_DENSE:
            block_table[idx, 3] = plan[idx, 3]
            continue
        out_offset = int(lr_offsets[idx])
        size = int(lr_sizes[idx])
        block_table[idx, 3] = out_offset
        spilled = spills.get(idx)
        if spilled is not None:
            lr_data[out_offset:out_offset + size] = spilled.ravel()
        else:
            src = int(plan[idx, 3])
            lr_data[out_offset:out_offset + size] = lr_scratch[src:src + size]
    return LazyInductance(
        n=n,
        perm=perm,
        node_lo=node_lo,
        node_hi=node_hi,
        node_left=node_left,
        node_right=node_right,
        block_table=block_table,
        dense_data=dense_data,
        lr_data=lr_data,
        config=config,
    )


# ----------------------------------------------------------------------
# Parallel assembly through shared-memory pools
# ----------------------------------------------------------------------
#: Per-worker attachment cache, keyed by segment name: a pool worker
#: maps the geometry segment (and builds its evaluator) once, then
#: reuses both across every chunk it executes.  Flushed through the
#: deferred-close-safe ``close`` paths at interpreter exit so a worker
#: shutting down with live evaluator views never trips an unraisable
#: ``BufferError`` out of ``SharedMemory.__del__``.
_ASSEMBLY_CACHE: Dict[str, Any] = {}


def _clear_assembly_cache() -> None:
    for entry in _ASSEMBLY_CACHE.values():
        target = entry[0] if isinstance(entry, tuple) else entry
        target.close()
    _ASSEMBLY_CACHE.clear()


atexit.register(_clear_assembly_cache)


def _attach_geometry(name: str) -> Tuple[Any, np.ndarray, np.ndarray, float]:
    entry = _ASSEMBLY_CACHE.get(name)
    if entry is None:
        from repro.service.shm import SharedColumnBlock

        block = SharedColumnBlock.attach(name)
        columns = block.arrays()
        evaluator = _PairEvaluator(
            columns["lengths"],
            columns["widths"],
            columns["thicknesses"],
            columns["starts"],
            columns["centers"],
            columns["orig"],
            bool(block.meta["gmd_correction"]),
        )
        entry = (
            block,
            evaluator,
            columns["node_lo"],
            columns["node_hi"],
            float(block.meta["cutoff"]),
        )
        _ASSEMBLY_CACHE[name] = entry
    _, evaluator, node_lo, node_hi, tol = entry
    return evaluator, node_lo, node_hi, tol


def _attach_pool(name: str) -> Any:
    pool = _ASSEMBLY_CACHE.get(name)
    if pool is None:
        from repro.service.shm import SharedArrayPool

        pool = SharedArrayPool.attach(name)
        _ASSEMBLY_CACHE[name] = pool
    return pool


def _assembly_chunk_worker(
    task: Tuple[str, str, str, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, np.ndarray], Any]:
    """Evaluate one chunk of plan rows (module-level, hence picklable).

    Everything bulky travels by name: the worker attaches the geometry
    segment and both pools, evaluates its rows *in place* into the
    pools' shared mappings, and returns only the per-row outcome
    vectors (kind, rank), rare oversized spill blocks, and its stage
    profile -- never the factor payloads themselves.
    """
    geometry_name, dense_name, lr_name, indices, rows = task
    evaluator, node_lo, node_hi, tol = _attach_geometry(geometry_name)
    dense_pool = _attach_pool(dense_name)
    lr_pool = _attach_pool(lr_name)
    with collect() as profile:
        with stage("hier_build_workers"):
            kinds, ranks, spills = _execute_plan_rows(
                evaluator,
                node_lo,
                node_hi,
                rows,
                dense_pool.data,
                lr_pool.data,
                tol,
            )
    return indices, kinds, ranks, spills, profile


def _balanced_chunks(
    plan: np.ndarray,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    pieces: int,
) -> List[np.ndarray]:
    """Split plan rows into contiguous chunks of roughly equal cost.

    Cost model: a dense block evaluates ``ra * rb`` kernel entries; an
    admissible block's ACA touches about ``2 * cap * (ra + rb)`` (rows
    plus columns, with recompression overhead).  Contiguous splits keep
    the executor's pool writes sequential per worker.
    """
    count = plan.shape[0]
    if count == 0:
        return []
    sizes_a = (node_hi[plan[:, 0]] - node_lo[plan[:, 0]]).astype(float)
    sizes_b = (node_hi[plan[:, 1]] - node_lo[plan[:, 1]]).astype(float)
    cost = np.where(
        plan[:, 2] == _PLAN_LOWRANK,
        2.0 * plan[:, 4] * (sizes_a + sizes_b),
        sizes_a * sizes_b,
    )
    cumulative = np.cumsum(cost)
    pieces = max(1, min(int(pieces), count))
    targets = cumulative[-1] * np.arange(1, pieces) / pieces
    cuts = np.searchsorted(cumulative, targets) + 1
    edges = np.unique(np.concatenate([[0], cuts, [count]]))
    return [
        np.arange(edges[i], edges[i + 1])
        for i in range(edges.size - 1)
        if edges[i + 1] > edges[i]
    ]


def _release_pool(pool: Any) -> None:
    pool.close()
    pool.unlink()


def _parallel_assemble(
    evaluator_arrays: Dict[str, np.ndarray],
    gmd_correction: bool,
    n: int,
    perm: np.ndarray,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_left: np.ndarray,
    node_right: np.ndarray,
    config: HierarchicalConfig,
    plan: np.ndarray,
    dense_total: int,
    lr_total: int,
    jobs: int,
) -> LazyInductance:
    """Fan the plan out over a process pool writing shared-memory pools.

    The owner publishes the (tree-ordered) geometry as a read-only
    column segment and preallocates the two data pools at their planned
    sizes; workers attach by name and write their rows' factors
    straight into the pools, so with ``10^5+`` blocks nothing block-
    sized is ever pickled in either direction.  The owner then adopts
    the dense pool zero-copy as the operator's near-field storage (the
    segment is released when the operator is garbage-collected) and
    compacts the reserved factor pool into a private array.
    """
    from repro.service.shm import SharedArrayPool, SharedColumnBlock

    geometry = SharedColumnBlock.create(
        meta={"gmd_correction": gmd_correction, "cutoff": config.cutoff},
        arrays=evaluator_arrays,
    )
    dense_pool = SharedArrayPool.create(dense_total)
    lr_pool = SharedArrayPool.create(lr_total)
    try:
        chunks = _balanced_chunks(plan, node_lo, node_hi, jobs * 4)
        tasks = [
            (geometry.name, dense_pool.name, lr_pool.name, chunk, plan[chunk])
            for chunk in chunks
        ]
        results = parallel_map(
            _assembly_chunk_worker, tasks, jobs=jobs, serial_threshold=0
        )
        count = plan.shape[0]
        kinds = np.empty(count, dtype=np.int64)
        ranks = np.zeros(count, dtype=np.int64)
        spills: Dict[int, np.ndarray] = {}
        profiles = []
        for indices, chunk_kinds, chunk_ranks, chunk_spills, profile in results:
            kinds[indices] = chunk_kinds
            ranks[indices] = chunk_ranks
            for local, block in chunk_spills.items():
                spills[int(indices[local])] = block
            profiles.append(profile)
        owner_profile = active_profile()
        if owner_profile is not None:
            owner_profile.merge_workers(profiles)
        add_counter("hier_parallel_chunks", len(tasks))
        dense_view = dense_pool.data
        dense_view.flags.writeable = False
        lr_scratch = lr_pool.data
        operator = _assemble_operator(
            n,
            perm,
            node_lo,
            node_hi,
            node_left,
            node_right,
            config,
            plan,
            kinds,
            ranks,
            spills,
            dense_view,
            lr_scratch,
        )
        del lr_scratch
        # The operator's near-field blocks are views into the dense
        # pool; tie the segment's lifetime to the operator (the close
        # defers -- leaking one mapping -- if views somehow outlive it).
        weakref.finalize(operator, _release_pool, dense_pool)
    except BaseException:
        dense_pool.close()
        dense_pool.unlink()
        raise
    finally:
        geometry.close()
        geometry.unlink()
        lr_pool.close()
        lr_pool.unlink()
    return operator


def build_axis_operator(
    system: FilamentSystem,
    indices: List[int],
    axis: Axis,
    gmd_correction: bool = True,
    config: HierarchicalConfig = DEFAULT_CONFIG,
    jobs: Optional[int] = None,
) -> LazyInductance:
    """The hierarchical operator of one axis group.

    ``jobs`` controls block assembly: ``None`` or ``1`` evaluates the
    plan serially in-process; ``jobs > 1`` fans the plan out over a
    process pool writing shared-memory pools (see
    :func:`_parallel_assemble`).  Both paths execute the identical
    plan, so the resulting operators are bit-identical -- the
    equivalence tests assert exactly that.
    """
    lengths, widths, thicknesses, starts, centers = axis_geometry(
        system, indices, axis
    )
    n = lengths.size
    box_min, box_max = _filament_boxes(
        lengths, widths, thicknesses, starts, centers
    )
    (
        perm,
        node_lo,
        node_hi,
        node_left,
        node_right,
        nbox_min,
        nbox_max,
    ) = _build_cluster_tree(box_min, box_max, config.leaf_size)
    diam = np.array(
        [_box_diameter(nbox_min[k], nbox_max[k]) for k in range(node_lo.size)]
    )
    plan, dense_total, lr_total = _plan_blocks(
        node_lo, node_hi, node_left, node_right, nbox_min, nbox_max, diam, config
    )
    workers = 1 if jobs is None else max(int(jobs), 1)
    if workers > 1 and plan.shape[0] > 1:
        operator = _parallel_assemble(
            {
                "lengths": lengths[perm],
                "widths": widths[perm],
                "thicknesses": thicknesses[perm],
                "starts": starts[perm],
                "centers": centers[perm],
                "orig": perm,
                "node_lo": node_lo,
                "node_hi": node_hi,
            },
            gmd_correction,
            n,
            perm,
            node_lo,
            node_hi,
            node_left,
            node_right,
            config,
            plan,
            dense_total,
            lr_total,
            workers,
        )
    else:
        evaluator = _PairEvaluator(
            lengths[perm],
            widths[perm],
            thicknesses[perm],
            starts[perm],
            centers[perm],
            perm,
            gmd_correction,
        )
        dense_data = np.empty(dense_total)
        lr_scratch = np.empty(lr_total)
        kinds, ranks, spills = _execute_plan_rows(
            evaluator, node_lo, node_hi, plan, dense_data, lr_scratch,
            config.cutoff,
        )
        operator = _assemble_operator(
            n,
            perm,
            node_lo,
            node_hi,
            node_left,
            node_right,
            config,
            plan,
            kinds,
            ranks,
            spills,
            dense_data,
            lr_scratch,
        )
    stats = operator.compression_stats()
    add_counter("hier_stored_bytes", stats["stored_bytes"])
    return operator


def hierarchical_blocks(
    system: FilamentSystem,
    gmd_correction: bool = True,
    config: HierarchicalConfig = DEFAULT_CONFIG,
    jobs: Optional[int] = None,
) -> Dict[Axis, Tuple[List[int], LazyInductance]]:
    """Per-direction hierarchical operators ``{axis: (indices, op)}``,
    the lazy counterpart of ``inductance_blocks``; ``jobs`` fans the
    plan's kernel evaluation over the process pool through shared-memory
    pools.

    The drop-in counterpart of
    :func:`repro.extraction.inductance.inductance_blocks` for systems
    too large to hold dense: same axis grouping, same index lists, but
    each block is a :class:`LazyInductance` instead of an ndarray.
    ``jobs > 1`` assembles each axis operator through the shared-memory
    process pool (content-identical to the serial build).
    """
    with stage("hier_build"):
        blocks: Dict[Axis, Tuple[List[int], LazyInductance]] = {}
        for axis, indices in system.indices_by_axis().items():
            blocks[axis] = (
                indices,
                build_axis_operator(
                    system, indices, axis, gmd_correction, config, jobs=jobs
                ),
            )
        return blocks


def iter_axis_blocks(
    parasitics_blocks: Dict[Axis, Tuple[List[int], Any]],
) -> Iterator[Tuple[Axis, List[int], Any]]:
    """Uniform iteration over dense-or-hierarchical block dicts."""
    for axis, (indices, block) in parasitics_blocks.items():
        yield axis, indices, block
