"""Harmonic fields on the disk driven by a partition of the boundary circle.

The boundary splits into K closed arcs (value-pinned) separated by open gaps
(natural).  For each arc there is one potential: 1 on that arc, 0 on the other
arcs, free in the gaps.  The potentials sum to the constant 1, so their
gradients span a space of dimension exactly K - 1; measuring that dimension
from the discrete energy Gram matrix is the point of this module.

Everything is variational: a P1 triangulation of the disk, assembled sparse
stiffness, pinned rows eliminated.  The free block is SPD, so it is factored
once with diagonal pivots, and that one factorization serves every arc.  The
elimination order is a nested dissection read off the mesh
(`dissection_order`): the free nodes are bisected in the anchored polar frame
until parts hold at most 16 nodes, each separator eliminated after the two
halves it separates.  SuperLU keeps that order as given.
The mesh is a web of concentric rings whose angular layout is anchored at the
first arc endpoint, so congruent partitions produce congruent meshes and
elimination orders, and the spectrum is rotation invariant to roundoff.
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
        """Per angle, the index of the first arc containing it, or -1 for a gap.

        An arc holds the angles from _ANGLE_TOL before its start to
        _ANGLE_TOL past its end: an angle a hair below the start wraps to
        just under 2 pi from it."""
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, -1)
        for k in reversed(range(len(self.arcs))):
            a, b = self.arcs[k]
            d = (theta - a) % TWO_PI
            out[(d <= (b - a) + _ANGLE_TOL) | (d >= TWO_PI - _ANGLE_TOL)] = k
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
    node_rings: np.ndarray  # ring of each node, 0 for the centre
    node_angles: np.ndarray  # anchor-relative angle of each node, as `_relative` rounds it


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


def _relative(ang, anchor):
    """Angles from the anchor in [0, 2 pi], quantized so that congruent inputs
    compare the same way."""
    return np.round((ang - anchor) % TWO_PI, 10)


def _stitch(sizes, rel) -> np.ndarray:
    """Triangulate the strips between consecutive rings by merging angles.

    `sizes` counts the nodes of each ring, outwards, numbered from 1 on
    (node 0 is the centre), and `rel` holds their anchor-relative angles,
    which never fall along a ring as the rings are laid out, so no ring is
    sorted.  In the strip between rings r and r + 1, each step advances the
    ring whose next angle comes first; a ring's first node comes again after
    its last, 2 pi on.  All strips are merged in one stable sort: per strip,
    the keys of its inner ring, then those of its outer ring, so the inner
    ring takes every tie, and the keys of strip s, which lie in [0, 4 pi],
    shifted by 16 s.  Keys are quantized by `_relative`, so that ties between
    rings break the same way for congruent inputs; this is what makes the
    mesh topology, and hence the spectrum, rotation invariant.  Keys that
    differ are about 1e-10 apart or more, far above the spacing of doubles
    below 16 times any ring count, so the shift keeps their order and their
    ties.
    """
    starts = np.cumsum(np.concatenate([[1], sizes]))
    # a node's key is the angle of the next node of its ring
    nxt = np.empty_like(rel)
    nxt[:-1] = rel[1:]
    nxt[starts[1:] - 2] = TWO_PI + rel[starts[:-1] - 1]
    n, m = sizes[:-1], sizes[1:]  # inner and outer ring of each strip
    length = n + m
    first = np.cumsum(length) - length  # each strip's first merge step
    # strip s reads the nodes of rings s and s + 1, which are numbered in a row
    node = np.arange(length.sum()) + np.repeat(starts[:-2] - first, length)
    strip = np.repeat(np.arange(len(n)), length)
    merged = np.argsort(nxt[node - 1] + 16.0 * strip, kind="stable")
    inner_step = merged - first[strip] < n[strip]
    # i counts the inner steps before each step of its strip, j the outer ones
    i = np.cumsum(inner_step) - inner_step - (starts[strip] - 1)
    j = np.arange(len(strip)) - first[strip] - i
    n, m, lo_in, lo_out = n[strip], m[strip], starts[strip], starts[strip + 1]
    third = np.where(inner_step, lo_in + (i + 1) % n, lo_out + (j + 1) % m)
    return np.column_stack([lo_in + i % n, lo_out + j % m, third])


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
    sizes = np.array([len(ang) for ang in ring_ang])
    radius, ang = np.repeat(radii, sizes), np.concatenate(ring_ang)
    rel = _relative(ang, anchor)
    points = np.vstack([
        [0.0, 0.0], np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    ])

    first = np.arange(1, sizes[0] + 1)
    fan = np.column_stack([np.zeros_like(first), first, np.roll(first, -1)])
    triangles = np.concatenate([fan, _stitch(sizes, rel)])
    # enforce positive orientation triangle by triangle
    p = points[triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    flip = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return DiskMesh(
        points=points,
        triangles=triangles,
        boundary_nodes=np.arange(len(points) - sizes[-1], len(points)),
        boundary_angles=np.asarray(ring_ang[-1]) % TWO_PI,
        spacing=step,
        node_rings=np.repeat(np.arange(rings + 1), np.concatenate([[1], sizes])),
        node_angles=np.concatenate([[0.0], rel]),
    )


# ---------------------------------------------------------------------------
# P1 assembly and pinned solves


def p1_stiffness(mesh: DiskMesh) -> sparse.csr_matrix:
    tri = mesh.triangles
    x, y = mesh.points[:, 0][tri], mesh.points[:, 1][tri]
    # edge i of a triangle is the one opposite its vertex i
    ex = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    ey = y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
    area2 = ex[:, 2] * -ey[:, 1] - ey[:, 2] * -ex[:, 1]  # twice the area
    if np.any(area2 <= 1e-14):
        raise ValueError("degenerate or inverted triangle in the mesh")
    # the gradient of hat function i is edge i turned a quarter, over twice the area
    gx, gy = -ey / area2[:, None], ex / area2[:, None]
    local = gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    local *= (0.5 * area2)[:, None, None]
    rows = np.repeat(tri, 3, axis=1).reshape(-1)
    cols = np.tile(tri, (1, 3)).reshape(-1)
    A = sparse.coo_matrix(
        (local.reshape(-1), (rows, cols)),
        shape=(len(mesh.points), len(mesh.points)),
    )
    return A.tocsr()


_LEAF = 16  # parts of at most this many nodes are not cut further


def _dissection_parts(mesh: DiskMesh, A: sparse.csr_matrix, pinned):
    """Dissection tree of the free nodes: each node's part, and the depth.

    Parts are numbered as in a heap: part 1 holds every free node, and a part
    p of more than `_LEAF` nodes is cut into 2p, below the cut, and 2p + 1,
    above it.  p keeps the separator: the nodes below the cut with a
    neighbour above it.  Pinned nodes get part 0.

    Every part is a box of the anchored polar frame, rings [r0, r1) by
    angles [a0, a1), so congruent partitions get congruent trees.  A box is cut at
    the ring that halves its nodes or at its middle angle, whichever cut
    severs fewer nodes; the first cut, of the full circle, also runs where
    the angle wraps.  All boxes of one depth are cut at once, and only the
    nodes within one edge of a cut are searched for the separator.
    """
    ring, angle = mesh.node_rings, mesh.node_angles
    sizes = np.bincount(ring)
    inside = np.concatenate([[0], np.cumsum(sizes)])  # nodes on the rings inside ring j
    # an edge at a node spans less than 1.5 spacings of the ring inside it in
    # angle; the centre reaches every angle
    reach = 1.5 * TWO_PI / sizes[np.maximum(ring - 1, 1)]
    reach[0] = np.inf
    part = np.ones(len(ring), dtype=np.int64)
    part[pinned] = 0
    # the nodes of parts still to cut, with their part, ring, angle and reach
    idx = np.flatnonzero(part)
    if len(idx) <= _LEAF:
        return part, 0
    p, rf, th, rw = part[idx], ring[idx].astype(float), angle[idx], reach[idx]
    # box p, rings [r0, r1) by angles [a0, a1), sits at index p (index 0 is
    # a copy of the root, so that each depth doubles the arrays)
    (r0, r1), (a0, a1) = np.array([[0, 0], [len(sizes)] * 2]), np.array([[0.0, 0.0], [TWO_PI] * 2])
    depth = 0
    while len(idx):
        rc = np.maximum(inside.searchsorted(0.5 * (inside[r0] + inside[r1]), "right") - 1, r0 + 1)
        tc = 0.5 * (a0 + a1)
        # across the rings a cut severs about (rc - 1)(a1 - a0) nodes of ring
        # rc - 1, across the angles about one node per ring
        radial = (rc < r1) & ((rc - 1) * (a1 - a0) < r1 - r0)
        across, cut = radial[p], np.where(radial, rc, tc)[p]
        coord = np.where(across, rf, th)
        above = coord >= cut
        near = (cut - coord < np.where(across, 1.5, rw)) > above
        if depth == 0:  # the root's cut also runs where the angle wraps
            near |= (th < rw) > above
        p = 2 * p + above
        part[idx] = p
        at = near.nonzero()[0]
        lo, hi = A.indptr[idx[at]], A.indptr[idx[at] + 1]
        k = hi - lo
        ends = np.cumsum(k)
        nb = A.indices[np.arange(k.sum()) + np.repeat(hi - ends, k)]
        crossing = part[nb] == np.repeat(p[at] + 1, k)
        sep = at[np.logical_or.reduceat(crossing, ends - k)]
        part[idx[sep]] = p[sep] >> 1
        count = np.bincount(p, minlength=4 << depth) - np.bincount(p[sep], minlength=4 << depth)
        keep = count[p] > _LEAF
        keep[sep] = False
        idx, p, rf, th, rw = idx[keep], p[keep], rf[keep], th[keep], rw[keep]
        # box b has children 2b, below the cut, and 2b + 1
        r0, r1, a0, a1 = np.repeat(r0, 2), np.repeat(r1, 2), np.repeat(a0, 2), np.repeat(a1, 2)
        r1[0::2] = np.where(radial, rc, r1[0::2])
        r0[1::2] = np.where(radial, rc, r0[1::2])
        a1[0::2] = np.where(radial, a1[0::2], tc)
        a0[1::2] = np.where(radial, a0[1::2], tc)
        depth += 1
    return part, depth


def dissection_order(mesh: DiskMesh, A: sparse.csr_matrix, pinned) -> np.ndarray:
    """The nodes not in `pinned`, in a nested-dissection elimination order.

    The mesh edges are read from the pattern of its stiffness `A`.  Each part
    of `_dissection_parts` comes after the parts below it, so a separator is
    eliminated after the two halves it separates, and the nodes of one part
    keep their mesh order.
    """
    part, depth = _dissection_parts(mesh, A, pinned)
    # post-order rank of every heap id: an id comes after its subtree, whose
    # last slot at the full depth it shares with its right child, so the ids
    # sort by that slot and then deeper first
    ids = np.arange(1, 2 << depth)
    height = depth + 1 - np.frexp(ids)[1]
    key = (((ids + 1) << height) - 1) * (depth + 1) + height
    # ranks of the smallest integer type, which the stable sort counts
    rank = np.zeros(len(ids) + 1, dtype=np.min_scalar_type(len(ids)))
    rank[ids[np.argsort(key)]] = np.arange(len(ids))
    free = np.flatnonzero(part)
    return free[np.argsort(rank[part[free]], kind="stable")]


def solve_pinned(A: sparse.csr_matrix, pinned: np.ndarray, values: np.ndarray,
                 order: np.ndarray):
    """Solve A x = 0 with x[pinned] = values; returns x and the free residual.

    `order` lists the other nodes once each, in the order they are
    eliminated (`dissection_order`).  `values` of shape (n_pinned, K) holds K
    boundary data: the free block is factored once, x has shape (n, K) and
    each column gets its own residual.
    """
    values = np.asarray(values, dtype=float)
    x = np.zeros((A.shape[0],) + values.shape[1:])
    x[pinned] = values
    A_f = A[order]
    rhs = -A_f[:, pinned] @ values
    # the free block is symmetric, so its transpose, which reads the CSR
    # arrays as CSC, is the block itself; it is SPD, so SuperLU keeps the
    # order as given and pivots on the diagonal
    lu = splu(A_f[:, order].T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    x[order] = lu.solve(rhs)
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

    order = dissection_order(mesh, A, pinned)
    potentials, residuals = solve_pinned(A, pinned, pinned_arcs[:, None] == np.arange(K), order)
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
