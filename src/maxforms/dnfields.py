"""Harmonic fields on the disk driven by a partition of the boundary circle.

The boundary splits into K closed arcs (value-pinned) separated by open gaps
(natural).  For each arc there is one potential: 1 on that arc, 0 on the other
arcs, free in the gaps.  The potentials sum to the constant 1, so their
gradients span a space of dimension exactly K - 1; measuring that dimension
from the discrete energy Gram matrix is the point of this module.

Everything is variational: a P1 triangulation of the disk, assembled sparse
stiffness, pinned rows eliminated.  The free block is SPD, so it is factored
once under a symmetric ordering, in SuperLU's symmetric mode (diagonal
pivots), and that one factorization serves every arc.
The mesh is a web of concentric rings whose angular layout is anchored at the
first arc endpoint, so congruent partitions produce congruent meshes and the
spectrum is rotation invariant to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

TWO_PI = 2.0 * math.pi
_ANGLE_TOL = 1e-9


# ---------------------------------------------------------------------------
# boundary partition


@dataclass(frozen=True)
class ArcPartition:
    """Disjoint closed arcs (start, end) in radians, end > start, length < 2 pi."""

    arcs: tuple

    def __post_init__(self):
        arcs = tuple((float(a), float(b)) for a, b in self.arcs)
        if not arcs:
            raise ValueError("at least one arc is required")
        for a, b in arcs:
            if not b > a:
                raise ValueError("arc end must exceed arc start")
            if b - a >= TWO_PI:
                raise ValueError("an arc cannot wrap the full circle")
        # normalize starts into [0, 2 pi) and check pairwise separation
        norm = sorted(((a % TWO_PI, (a % TWO_PI) + (b - a)) for a, b in arcs))
        for (a1, b1), (a2, b2) in zip(norm, norm[1:]):
            if a2 <= b1 + _ANGLE_TOL:
                raise ValueError("arcs must be separated by open gaps")
        if norm[0][0] + TWO_PI <= norm[-1][1] + _ANGLE_TOL:
            raise ValueError("arcs must be separated by open gaps")
        object.__setattr__(self, "arcs", tuple(norm))

    @property
    def count(self) -> int:
        return len(self.arcs)

    @property
    def anchor(self) -> float:
        """Start of a canonically chosen arc.

        The choice looks only at the cyclic pattern of arc and gap lengths,
        so rotating the partition moves the anchor with it; a tie means the
        partition has a rotational self-symmetry and either choice yields a
        congruent mesh.
        """
        K = len(self.arcs)
        lengths = [b - a for a, b in self.arcs]
        gaps = [
            (self.arcs[(k + 1) % K][0] - self.arcs[k][1]) % TWO_PI
            for k in range(K)
        ]
        best, best_key = 0, None
        for k in range(K):
            key = tuple(
                round(x, 9)
                for i in range(K)
                for x in (lengths[(k + i) % K], gaps[(k + i) % K])
            )
            if best_key is None or key > best_key:
                best, best_key = k, key
        return self.arcs[best][0]

    def endpoints(self) -> np.ndarray:
        return np.array(sorted(x % TWO_PI for a, b in self.arcs for x in (a, b)))

    def arc_indices(self, theta) -> np.ndarray:
        """Per angle, the index of the first arc containing it, or -1 for a gap."""
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, -1)
        for k in reversed(range(len(self.arcs))):
            a, b = self.arcs[k]
            out[(theta - a) % TWO_PI <= (b - a) + _ANGLE_TOL] = k
        return out


def arcs_from_string(text: str) -> ArcPartition:
    """Parse 'a1:b1,a2:b2,...' (radians) into a partition."""
    arcs = []
    for chunk in text.split(","):
        a, _, b = chunk.partition(":")
        try:
            arcs.append((float(a), float(b)))
        except ValueError as exc:
            raise ValueError(f"bad arc chunk {chunk!r}") from exc
    return ArcPartition(tuple(arcs))


# ---------------------------------------------------------------------------
# anchored web mesh


@dataclass
class DiskMesh:
    points: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    boundary_angles: np.ndarray
    spacing: float


def _ring_angles(count: int, anchor: float) -> np.ndarray:
    return anchor + np.arange(count) * (TWO_PI / count)


def _boundary_angles(partition: ArcPartition, h: float) -> np.ndarray:
    """Arc endpoints exactly, gaps filled so no spacing exceeds h."""
    anchor = partition.anchor
    ends = np.sort((partition.endpoints() - anchor) % TWO_PI)
    ends = np.concatenate([ends, [TWO_PI]])
    out = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        gap = hi - lo
        # the small slack keeps the count stable when gap/h sits on an integer
        pieces = max(1, int(math.ceil(gap / h - 1e-9)))
        out.extend(lo + gap * np.arange(pieces) / pieces)
    return anchor + np.array(out)


def _stitch(inner_idx, inner_ang, outer_idx, outer_ang, anchor):
    """Triangulate the strip between two rings by merging angles.

    Comparison keys are quantized so that ties between rings break the same
    way for congruent inputs; this is what makes the mesh topology, and hence
    the spectrum, rotation invariant.
    """
    def rel(ang):
        return np.round((ang - anchor) % TWO_PI, 10)

    ia = np.argsort(rel(inner_ang))
    oa = np.argsort(rel(outer_ang))
    inner_idx, inner_ang = inner_idx[ia], rel(inner_ang[ia])
    outer_idx, outer_ang = outer_idx[oa], rel(outer_ang[oa])
    n, m = len(inner_idx), len(outer_idx)
    # each step advances the ring whose next angle comes first; listing the
    # inner keys first makes the stable sort give the inner ring every tie
    keys = np.concatenate([inner_ang[1:], [TWO_PI + inner_ang[0]],
                           outer_ang[1:], [TWO_PI + outer_ang[0]]])
    inner_step = np.argsort(keys, kind="stable") < n
    i = np.cumsum(inner_step) - inner_step
    j = np.arange(n + m) - i
    third = np.where(inner_step, inner_idx[(i + 1) % n], outer_idx[(j + 1) % m])
    return np.column_stack([inner_idx[i % n], outer_idx[j % m], third])


def disk_mesh(partition: ArcPartition, h: float) -> DiskMesh:
    if not 0 < h <= 0.5:
        raise ValueError("spacing must lie in (0, 0.5]")
    rings = max(3, int(round(1.0 / h)))
    step = 1.0 / rings
    anchor = partition.anchor

    radii = np.arange(1, rings + 1) * step
    ring_ang = [
        _ring_angles(max(6, math.ceil(TWO_PI * radius / step)), anchor)
        for radius in radii[:-1]
    ] + [_boundary_angles(partition, step)]
    sizes = [len(ang) for ang in ring_ang]
    ends = np.cumsum([1] + sizes)  # node 0 is the centre
    ring_idx = [np.arange(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    radius, ang = np.repeat(radii, sizes), np.concatenate(ring_ang)
    points = np.vstack([
        [0.0, 0.0], np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    ])

    first = ring_idx[0]
    fan = np.column_stack([np.zeros_like(first), first, np.roll(first, -1)])
    triangles = np.concatenate([fan] + [
        _stitch(ring_idx[j], ring_ang[j], ring_idx[j + 1], ring_ang[j + 1], anchor)
        for j in range(rings - 1)
    ])
    # enforce positive orientation triangle by triangle
    p = points[triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    flip = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return DiskMesh(
        points=points,
        triangles=triangles,
        boundary_nodes=ring_idx[-1],
        boundary_angles=np.asarray(ring_ang[-1]) % TWO_PI,
        spacing=step,
    )


# ---------------------------------------------------------------------------
# P1 assembly and pinned solves


def p1_stiffness(mesh: DiskMesh) -> sparse.csr_matrix:
    p = mesh.points[mesh.triangles]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    area2 = e2[:, 0] * (-e1)[:, 1] - e2[:, 1] * (-e1)[:, 0]  # twice the area
    if np.any(area2 <= 1e-14):
        raise ValueError("degenerate or inverted triangle in the mesh")
    grads = np.stack([e0, e1, e2], axis=1)[:, :, ::-1] * np.array([-1.0, 1.0])
    grads = grads / area2[:, None, None]
    local = np.einsum("tic,tjc->tij", grads, grads) * (0.5 * area2)[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    A = sparse.coo_matrix(
        (local.reshape(-1), (rows, cols)),
        shape=(len(mesh.points), len(mesh.points)),
    )
    return A.tocsr()


def solve_pinned(A: sparse.csr_matrix, pinned: np.ndarray, values: np.ndarray):
    """Solve A x = 0 with x[pinned] = values; returns x and the free residual.

    `values` of shape (n_pinned, K) holds K boundary data: the free block is
    factored once, x has shape (n, K) and each column gets its own residual.
    """
    n = A.shape[0]
    free = np.setdiff1d(np.arange(n), pinned)
    values = np.asarray(values, dtype=float)
    x = np.zeros((n,) + values.shape[1:])
    x[pinned] = values
    A_f = A[free]
    rhs = -A_f[:, pinned] @ values
    # A_ff is SPD: a symmetric ordering cuts the fill of COLAMD's by ~40%, and
    # symmetric mode pivots on the diagonal, so that ordering is kept
    lu = splu(A_f[:, free].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    x[free] = lu.solve(rhs)
    res = np.linalg.norm(A_f @ x, axis=0)
    scale = np.linalg.norm(rhs, axis=0)
    return x, res / np.where(scale > 0, scale, 1.0)


@dataclass
class DNBasis:
    partition: ArcPartition
    mesh: DiskMesh
    stiffness: sparse.csr_matrix
    potentials: np.ndarray  # column k: potential of arc k
    residuals: np.ndarray
    gram: np.ndarray


def build_basis(partition: ArcPartition, h: float = 0.05) -> DNBasis:
    mesh = disk_mesh(partition, h)
    A = p1_stiffness(mesh)
    membership = partition.arc_indices(mesh.boundary_angles)
    pinned = mesh.boundary_nodes[membership >= 0]
    pinned_arcs = membership[membership >= 0]
    K = partition.count
    if len(mesh.points) - len(pinned) < K:
        raise ValueError("mesh too coarse to carry the requested partition")

    potentials, residuals = solve_pinned(A, pinned, pinned_arcs[:, None] == np.arange(K))
    gram = potentials.T @ (A @ potentials)
    gram = 0.5 * (gram + gram.T)
    return DNBasis(
        partition=partition, mesh=mesh, stiffness=A,
        potentials=potentials, residuals=residuals, gram=gram,
    )


@dataclass
class DimensionReport:
    rank: int
    singular_values: np.ndarray
    threshold: float
    gap: float


def dimension_check(gram: np.ndarray) -> DimensionReport:
    """Numerical rank of the energy Gram matrix with the spectral-gap margin:
    singular values above 1e-8 of the largest count toward the rank."""
    s = np.linalg.svd(np.asarray(gram), compute_uv=False)
    top = s[0] if len(s) else 0.0
    if top <= 1e-12:
        return DimensionReport(0, s, 0.0, math.inf)
    threshold = top * 1e-8
    rank = int(np.sum(s > threshold))
    smallest_kept = s[rank - 1] if rank else top
    return DimensionReport(rank, s, threshold, smallest_kept / threshold)


def gradient_dimension(partition: ArcPartition, h: float = 0.05) -> DimensionReport:
    return dimension_check(build_basis(partition, h).gram)
