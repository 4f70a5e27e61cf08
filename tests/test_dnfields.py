import math

import numpy as np
import pytest
from formutil import einsum_p1_stiffness
from scipy.sparse.linalg import splu

from maxforms import dnfields
from maxforms.dnfields import (
    _ANGLE_TOL,
    _LEAF,
    TWO_PI,
    ArcPartition,
    DimensionReport,
    arcs_from_string,
    build_basis,
    dimension_check,
    disk_mesh,
    dissection_order,
    gradient_dimension,
    p1_stiffness,
    solve_pinned,
)

PART3 = ArcPartition(((0.2, 1.1), (1.9, 2.8), (4.0, 5.2)))


def arc_index(part: ArcPartition, theta: float) -> int:
    """Scalar oracle of `arc_indices`: the arc containing the angle, or -1 for a gap."""
    for k, (a, b) in enumerate(part.arcs):
        if (theta - a) % TWO_PI <= (b - a) + _ANGLE_TOL:
            return k
    return -1


def rotated(part: ArcPartition, alpha: float) -> ArcPartition:
    return ArcPartition(tuple((a + alpha, b + alpha) for a, b in part.arcs))


def interior_count(mesh) -> int:
    return len(mesh.points) - len(mesh.boundary_nodes)


def mesh_euler_characteristic(mesh) -> int:
    t = mesh.triangles
    edges = np.sort(t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    return len(mesh.points) - len(np.unique(edges, axis=0)) + len(t)


def equal_arcs(K: int, fill: float = 0.6) -> ArcPartition:
    starts = np.arange(K) * 2 * math.pi / K
    return ArcPartition(tuple((s, s + fill * 2 * math.pi / K) for s in starts))


def pinned_system(part: ArcPartition, h: float):
    """Mesh, stiffness and the nodes the partition's arcs pin, as `build_basis` makes them."""
    mesh = disk_mesh(part, h)
    pinned = mesh.boundary_nodes[part.arc_indices(mesh.boundary_angles) >= 0]
    return mesh, p1_stiffness(mesh), pinned


# -- partition ---------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        ArcPartition(())
    with pytest.raises(ValueError):
        ArcPartition(((1.0, 1.0),))  # empty arc
    with pytest.raises(ValueError):
        ArcPartition(((0.0, 7.0),))  # wraps the circle
    with pytest.raises(ValueError):
        ArcPartition(((0.0, 2.0), (1.5, 3.0)))  # overlap
    with pytest.raises(ValueError):
        ArcPartition(((0.0, 2.0), (2.0, 3.0)))  # touching, no open gap
    with pytest.raises(ValueError):
        ArcPartition(((0.5, 2.0), (3.0, 2 * math.pi + 0.5)))  # wraps onto first
    assert PART3.count == 3


def test_arc_membership():
    assert arc_index(PART3, 0.2) == 0  # closed arcs contain their endpoints
    assert arc_index(PART3, 1.1) == 0
    assert arc_index(PART3, 2.3) == 1
    assert arc_index(PART3, 1.5) == -1
    assert arc_index(PART3, 5.2 + 2 * math.pi) == 2  # wrapped query


@pytest.mark.parametrize("h", [0.05, 0.01, 0.005])
def test_vector_membership_matches_arc_index(h):
    parts = [PART3, rotated(PART3, 2.31), ArcPartition(((5.5, 7.0), (1.0, 2.0)))]
    parts += [equal_arcs(K) for K in (1, 2, 3, 4)]
    for part in parts:
        ends = part.endpoints()
        angles = np.concatenate([
            disk_mesh(part, h).boundary_angles,
            ends, ends + 1e-9, ends - 1e-9, ends + 2e-9, ends + 2 * math.pi, ends - 2 * math.pi,
        ])
        expected = [arc_index(part, t) for t in angles]
        assert part.arc_indices(angles).tolist() == expected


def test_arcs_from_string():
    part = arcs_from_string("0.2:1.1,1.9:2.8")
    assert part.count == 2
    with pytest.raises(ValueError):
        arcs_from_string("0.2:abc")


def test_rotation_moves_anchor_with_the_partition():
    for alpha in (0.7, 2.31, -1.4):
        turned = rotated(PART3, alpha)
        expected = (PART3.anchor + alpha) % (2 * math.pi)
        assert abs((turned.anchor - expected + math.pi) % (2 * math.pi) - math.pi) <= 1e-9


# -- mesh --------------------------------------------------------------------


def test_mesh_is_a_disk():
    mesh = disk_mesh(PART3, 0.1)
    assert mesh_euler_characteristic(mesh) == 1
    radii = np.linalg.norm(mesh.points[mesh.boundary_nodes], axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-12
    assert interior_count(mesh) > 0


def test_mesh_contains_arc_endpoints_exactly():
    mesh = disk_mesh(PART3, 0.1)
    angles = np.sort(mesh.boundary_angles)
    for e in PART3.endpoints():
        dev = np.abs(((angles - e + math.pi) % (2 * math.pi)) - math.pi)
        assert np.min(dev) <= 1e-12


def test_boundary_spacing_bounded():
    mesh = disk_mesh(PART3, 0.1)
    angles = np.sort(mesh.boundary_angles)
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    assert np.max(gaps) <= mesh.spacing * (1.0 + 1e-6)


def _stitch_by_walk(inner_idx, inner_ang, outer_idx, outer_ang, anchor):
    # oracle: walk both rings, advancing whichever next angle comes first and
    # the inner ring on ties
    def rel(ang):
        return np.round((ang - anchor) % (2 * math.pi), 10)

    ia = np.argsort(rel(inner_ang))
    oa = np.argsort(rel(outer_ang))
    inner_idx, inner_ang = inner_idx[ia], rel(inner_ang[ia])
    outer_idx, outer_ang = outer_idx[oa], rel(outer_ang[oa])
    n, m = len(inner_idx), len(outer_idx)
    tris = []
    i = j = 0
    while i < n or j < m:
        a_next = inner_ang[i + 1] if i + 1 < n else 2 * math.pi + inner_ang[0]
        b_next = outer_ang[j + 1] if j + 1 < m else 2 * math.pi + outer_ang[0]
        if j >= m or (i < n and a_next <= b_next):
            tris.append((inner_idx[i], outer_idx[j % m], inner_idx[(i + 1) % n]))
            i += 1
        else:
            tris.append((inner_idx[i % n], outer_idx[j], outer_idx[(j + 1) % m]))
            j += 1
    return np.array(tris, dtype=np.int64).reshape(-1, 3)


@pytest.mark.parametrize("n, m, shared", [(6, 6, 6), (6, 12, 6), (4, 8, 2), (7, 5, 1)])
def test_stitch_matches_the_ring_walk_on_equal_angles(n, m, shared):
    # rings that share angles force ties between the next-angle keys
    anchor = 0.9
    inner_ang = anchor + np.arange(n) * (2 * math.pi / n)
    outer_ang = np.concatenate([
        inner_ang[:shared], anchor + 2 * math.pi * (np.arange(m - shared) + 0.5) / m
    ])[::-1]
    inner_idx, outer_idx = np.arange(n), n + np.arange(m)
    args = (inner_idx, inner_ang, outer_idx, outer_ang, anchor)
    assert np.array_equal(dnfields._stitch(*args), _stitch_by_walk(*args))


@pytest.mark.parametrize("h", [0.05, 0.01])
@pytest.mark.parametrize(
    "part", [PART3, equal_arcs(4), rotated(PART3, 2.31)], ids=["part3", "equal4", "rotated"]
)
def test_mesh_triangles_match_the_ring_walk(part, h, monkeypatch):
    mesh = disk_mesh(part, h)
    monkeypatch.setattr(dnfields, "_stitch", _stitch_by_walk)
    walked = disk_mesh(part, h)
    assert np.array_equal(mesh.triangles, walked.triangles)


def test_mesh_spacing_validation():
    with pytest.raises(ValueError):
        disk_mesh(PART3, 0.0)
    with pytest.raises(ValueError):
        disk_mesh(PART3, 0.7)


# -- assembly and solves -----------------------------------------------------


def test_stiffness_symmetric_with_constant_kernel():
    mesh = disk_mesh(PART3, 0.1)
    A = p1_stiffness(mesh)
    assert abs(A - A.T).max() == 0.0
    assert np.max(np.abs(A @ np.ones(A.shape[0]))) <= 1e-12


@pytest.mark.parametrize("h", [0.1, 0.05, 0.01])
@pytest.mark.parametrize("part", [PART3, equal_arcs(4)], ids=["part3", "equal4"])
def test_stiffness_equals_the_einsum_assembly_bitwise(part, h):
    mesh = disk_mesh(part, h)
    A, oracle = p1_stiffness(mesh), einsum_p1_stiffness(mesh)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, name), getattr(oracle, name)), name


def test_linear_fields_are_reproduced_exactly():
    # P1 elements contain linears, so pinning x on the whole boundary must
    # return x everywhere up to solver roundoff
    mesh = disk_mesh(PART3, 0.1)
    A = p1_stiffness(mesh)
    values = mesh.points[mesh.boundary_nodes, 0]
    order = dissection_order(mesh, A, mesh.boundary_nodes)
    x, res = solve_pinned(A, mesh.boundary_nodes, values, order)
    assert np.max(np.abs(x - mesh.points[:, 0])) <= 1e-10
    assert res <= 1e-10


def test_block_solve_equals_column_solves():
    mesh = disk_mesh(PART3, 0.1)
    A = p1_stiffness(mesh)
    pinned = mesh.boundary_nodes
    values = np.stack([np.cos(k * mesh.boundary_angles) for k in range(4)], axis=1)
    order = dissection_order(mesh, A, pinned)
    x, res = solve_pinned(A, pinned, values, order)
    assert x.shape == (len(mesh.points), 4) and res.shape == (4,)
    for k in range(4):
        xk, rk = solve_pinned(A, pinned, values[:, k], order)
        assert np.max(np.abs(x[:, k] - xk)) <= 1e-13
        assert res[k] <= 1e-10 and rk <= 1e-10


def test_basis_factors_once(monkeypatch):
    calls, splu = [], dnfields.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(dnfields, "splu", counting_splu)
    basis = build_basis(equal_arcs(4), h=0.1)
    assert len(calls) == 1
    assert calls[0]["permc_spec"] == "NATURAL"  # the dissection order, kept as given
    assert basis.potentials.shape[1] == 4 and basis.residuals.shape == (4,)


# -- elimination order -------------------------------------------------------


def _related(a, b):
    """Heap ids: whether a equals b, or is its ancestor or descendant."""
    da, db = np.frexp(a)[1], np.frexp(b)[1]
    shift = np.abs(da - db)
    return np.where(da > db, a >> shift, a) == np.where(db > da, b >> shift, b)


# one to forty arcs, down to the benchmark's finest spacing
_SPACINGS = pytest.mark.parametrize("h", [0.3, 0.1, 0.05, 0.01])
_PARTITIONS = pytest.mark.parametrize(
    "part", [PART3, equal_arcs(1), equal_arcs(40, fill=0.3), ArcPartition(((0.0, 6.2),))],
    ids=["part3", "one", "forty", "wide"],
)


@_SPACINGS
@_PARTITIONS
def test_dissection_order_is_a_permutation_of_the_free_nodes(part, h):
    mesh, A, pinned = pinned_system(part, h)
    free = np.ones(len(mesh.points), dtype=bool)
    free[pinned] = False
    assert np.array_equal(np.sort(dissection_order(mesh, A, pinned)), np.flatnonzero(free))


@_SPACINGS
@_PARTITIONS
def test_separators_separate_and_leaves_are_small(part, h):
    # every edge between free nodes stays inside one part or joins a part to
    # an ancestor, so two halves share no edge once their separator is gone
    mesh, A, pinned = pinned_system(part, h)
    part_of, _ = dnfields._dissection_parts(mesh, A, pinned)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    a, b = part_of[rows], part_of[A.indices]
    both = (a > 0) & (b > 0)
    assert np.all(_related(a[both], b[both]))
    ids, sizes = np.unique(part_of[part_of > 0], return_counts=True)
    parents = {int(i) >> s for i in ids for s in range(1, int(i).bit_length())}
    assert max(n for i, n in zip(ids, sizes) if int(i) not in parents) <= _LEAF


@pytest.mark.parametrize("h", [0.05, 0.01])
@pytest.mark.parametrize(
    "part, turned",
    [(PART3, rotated(PART3, 2.31)), (equal_arcs(4), rotated(equal_arcs(4), 1.234))],
    ids=["part3", "equal4"],
)
def test_congruent_partitions_get_equal_orders(part, turned, h):
    orders = [dissection_order(*pinned_system(p, h)) for p in (part, turned)]
    assert np.array_equal(*orders)


def test_dissection_fills_less_than_minimum_degree():
    mesh, A, pinned = pinned_system(PART3, 0.01)
    order = dissection_order(mesh, A, pinned)
    free = np.setdiff1d(np.arange(A.shape[0]), pinned)
    fill = {}
    for spec, nodes in (("NATURAL", order), ("MMD_AT_PLUS_A", free)):
        lu = splu(A[nodes][:, nodes].tocsc(), permc_spec=spec, diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        fill[spec] = lu.L.nnz + lu.U.nnz
    assert fill["NATURAL"] < fill["MMD_AT_PLUS_A"]


def test_potentials_partition_unity_and_stay_in_range():
    basis = build_basis(PART3, h=0.05)
    assert np.max(np.abs(basis.potentials.sum(axis=1) - 1.0)) <= 1e-10
    assert basis.potentials.min() >= -1e-10
    assert basis.potentials.max() <= 1.0 + 1e-10
    assert np.max(basis.residuals) <= 1e-10


def test_potentials_hit_their_boundary_values():
    basis = build_basis(PART3, h=0.1)
    mesh = basis.mesh
    for k in range(3):
        for node, theta in zip(mesh.boundary_nodes, mesh.boundary_angles):
            idx = arc_index(PART3, theta)
            if idx >= 0:
                expected = 1.0 if idx == k else 0.0
                assert basis.potentials[node, k] == expected


def test_gram_kernel_is_the_constant_direction():
    basis = build_basis(PART3, h=0.05)
    ones = np.ones(3)
    s = np.linalg.svd(basis.gram, compute_uv=False)
    assert np.linalg.norm(basis.gram @ ones) <= 1e-12 * s[0]


# -- dimension ---------------------------------------------------------------


def test_dimension_check_unit_cases():
    rep = dimension_check(np.zeros((2, 2)))
    assert rep.rank == 0 and math.isinf(rep.gap)
    rep = dimension_check(np.eye(3))
    assert rep.rank == 3
    rep = dimension_check(np.diag([1.0, 1e-20]))
    assert rep.rank == 1


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_gradient_span_has_dimension_arcs_minus_one(K):
    rep = gradient_dimension(equal_arcs(K), h=0.1)
    assert rep.rank == K - 1
    if K == 1:
        assert math.isinf(rep.gap)
    else:
        assert rep.gap >= 1e6


def test_dimension_stable_under_refinement():
    s_coarse = np.linalg.svd(build_basis(PART3, h=0.1).gram, compute_uv=False)
    fine = build_basis(PART3, h=0.05)
    s_fine = np.linalg.svd(fine.gram, compute_uv=False)
    assert dimension_check(fine.gram).rank == 2
    assert np.max(np.abs(s_fine[:2] - s_coarse[:2]) / s_fine[:2]) <= 0.05


def test_spectrum_is_rotation_invariant():
    s1 = np.linalg.svd(build_basis(PART3, h=0.05).gram, compute_uv=False)
    for alpha in (2.31, -1.4):
        s2 = np.linalg.svd(
            build_basis(rotated(PART3, alpha), h=0.05).gram, compute_uv=False
        )
        assert np.max(np.abs(s1[:2] - s2[:2]) / s1[:2]) <= 1e-12


def test_symmetric_partition_rotates_cleanly():
    # equal arcs tie the anchor choice; any pick is congruent by symmetry
    part = equal_arcs(4, fill=0.45)
    s1 = np.linalg.svd(build_basis(part, h=0.05).gram, compute_uv=False)
    s2 = np.linalg.svd(build_basis(rotated(part, 1.234), h=0.05).gram, compute_uv=False)
    assert np.max(np.abs(s1[:3] - s2[:3]) / s1[:3]) <= 1e-12


def test_too_coarse_mesh_is_rejected():
    starts = np.arange(40) * 2 * math.pi / 40
    arcs = tuple((s, s + 0.5 * 2 * math.pi / 40) for s in starts)
    with pytest.raises(ValueError):
        build_basis(ArcPartition(arcs), h=0.3)
