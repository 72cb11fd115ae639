import random
from fractions import Fraction

import pytest

from rmlab.bttree import (
    INFINITY,
    CochainPatch,
    QpApprox,
    STANDARD,
    TEdge,
    act_vertex,
    check_harmonic,
    digit_ray_oracle,
    make_vertex,
    neighbors,
    next_toward,
    reduce_point,
    tree_distance,
    tree_path,
    vertex_matrix,
    vertex_parity,
    vertex_witness,
    vdp_residue,
)
from rmlab.errors import PrecisionExhausted
from rmlab.mat2 import mat, mat_det


def test_make_vertex_canonical():
    assert make_vertex(2, 0, 0) == STANDARD
    assert make_vertex(2, 3, 8) == make_vertex(2, 3, 0)
    assert make_vertex(2, 2, 7) == make_vertex(2, 2, 3)
    # prime-to-p denominators are p-adic units: 1/3 = 3^{-1} mod powers of 2
    v = make_vertex(2, 3, Fraction(1, 3))
    assert v == make_vertex(2, 3, 3)  # 1/3 = 3 mod 8
    assert make_vertex(3, -2, 5) == make_vertex(3, -2, 0)


def test_neighbors_count_and_symmetry():
    for p in (2, 3, 5):
        for v in (STANDARD, make_vertex(p, 2, 1), make_vertex(p, -1, 0)):
            ns = neighbors(v, p)
            assert len(ns) == p + 1
            assert len(set(ns)) == p + 1
            for w in ns:
                assert tree_distance(v, w, p) == 1
                assert v in neighbors(w, p)


def test_tree_path_and_distance():
    p = 2
    v = make_vertex(p, 3, 5)
    w = make_vertex(p, 2, 0)
    path = tree_path(v, w, p)
    assert path[0] == v and path[-1] == w
    for a, b in zip(path, path[1:]):
        assert tree_distance(a, b, p) == 1
    assert len(set(path)) == len(path)
    assert tree_distance(v, v, p) == 0
    # 5 = 1 mod 4: the paths split below level 2
    assert tree_distance(v, w, p) == len(path) - 1


def test_tree_path_matches_ball_bfs():
    # a ball of the tree is convex, so BFS inside it gives tree distances
    for p, radius in ((2, 4), (3, 3), (5, 2)):
        verts = CochainPatch.ball_vertices(p, radius)
        adj = {v: set(neighbors(v, p)).intersection(verts) for v in verts}
        for v in verts:
            dist = {v: 0}
            frontier = [v]
            while frontier:
                new = []
                for u in frontier:
                    for w in adj[u] - dist.keys():
                        dist[w] = dist[u] + 1
                        new.append(w)
                frontier = new
            for w in verts:
                path = tree_path(v, w, p)
                assert path[0] == v and path[-1] == w
                assert len(path) - 1 == dist[w]
                assert all(b in adj[a] for a, b in zip(path, path[1:]))


def test_next_toward_is_first_step_of_path_to_deep_ray_vertex():
    # the geodesic from v toward a ends in the line (j, a mod p^j), j -> oo;
    # its vertex two levels below v lies beyond the junction with that line
    for p, radius in ((2, 4), (3, 3), (5, 2)):
        points = [Fraction(n, d) for n in range(-8, 9) for d in (1, 2, 3, 5, p ** 3)]
        for v in CochainPatch.ball_vertices(p, radius):
            for a in points:
                deep = make_vertex(p, v.k + 2, a)
                assert next_toward(v, a, p) == tree_path(v, deep, p)[1]
            up = make_vertex(p, v.k - 2, v.u)
            assert next_toward(v, INFINITY, p) == tree_path(v, up, p)[1]


def test_reduce_point_standard_ends():
    for p in (2, 3, 5):
        ray = reduce_point(INFINITY, p, 4)
        assert ray == [make_vertex(p, -m, 0) for m in range(5)]
        ray0 = reduce_point(Fraction(0), p, 4)
        assert ray0 == [make_vertex(p, m, 0) for m in range(5)]


def test_reduce_point_matches_digit_oracle():
    rng = random.Random(41)
    for p in (2, 3, 5):
        for _ in range(100):
            num = rng.randint(0, 3 ** 6)
            den = rng.choice([1, 1, 5, 7, 11])
            if p in (5, 7, 11) and den % p == 0:
                den = 1
            a = Fraction(num, den)
            ray = reduce_point(a, p, 5)
            assert ray == digit_ray_oracle(a, p, 5)


def test_reduce_point_negative_valuation():
    p = 2
    ray = reduce_point(Fraction(1, 2), p, 3)
    assert ray[0] == STANDARD
    assert ray[1] == make_vertex(p, -1, 0)
    assert ray[2] == make_vertex(p, 0, Fraction(1, 2))
    # consecutive vertices stay adjacent
    for a, b in zip(ray, ray[1:]):
        assert tree_distance(a, b, p) == 1


def test_reduce_point_is_geodesic_ray():
    rng = random.Random(42)
    for p in (2, 3):
        for _ in range(50):
            a = Fraction(rng.randint(-40, 40), p ** rng.randint(0, 2) or 1)
            if a == 0:
                continue
            ray = reduce_point(a, p, 6)
            assert len(set(ray)) == 7
            for u, w in zip(ray, ray[1:]):
                assert tree_distance(u, w, p) == 1


def test_reduce_point_precision():
    a = QpApprox(Fraction(5), 3)
    assert len(reduce_point(a, 2, 3)) == 4
    with pytest.raises(PrecisionExhausted):
        reduce_point(a, 2, 6)


def test_equivariance_under_vertex_stabilizer():
    # integral determinant-one matrices fix the standard vertex, so rays
    # transform at the patch level
    rng = random.Random(43)
    mats = [mat(1, 1, 0, 1), mat(0, -1, 1, 0), mat(1, 0, 1, 1), mat(2, 1, 1, 1)]
    for p in (2, 3):
        for _ in range(40):
            a = Fraction(rng.randint(-20, 20), rng.choice([1, 1, 3, 5, 7]))
            g = rng.choice(mats)
            if p == 3 and a.denominator % 3 == 0:
                continue
            ga_den = a * g[1][0] + g[1][1]
            if ga_den == 0:
                ga = INFINITY
            else:
                ga = (a * g[0][0] + g[0][1]) / ga_den
            for m in range(4):
                lhs = act_vertex(g, reduce_point(a, p, 3)[m], p)
                rhs = reduce_point(ga, p, 3)[m]
                assert lhs == rhs


def test_vdp_residue_constant_and_path():
    p = 3
    for e_src in (STANDARD, make_vertex(p, 1, 0)):
        for e_tgt in neighbors(e_src, p):
            e = TEdge(e_src, e_tgt)
            assert vdp_residue([], e, p) == 0
    a, b = Fraction(0), INFINITY
    # the geodesic from 0 to infinity is the spine (k, 0); residues are the
    # oriented path indicator
    for k in range(-2, 3):
        e = TEdge(make_vertex(p, k, 0), make_vertex(p, k + 1, 0))
        r = vdp_residue([(a, 1), (b, -1)], e, p)
        assert r == 1  # toward a = 0
        assert vdp_residue([(a, 1), (b, -1)], e.reverse(), p) == -1
    # an edge hanging off the spine sees both points on the same side
    e = TEdge(make_vertex(p, 1, 1), make_vertex(p, 2, 1))
    assert vdp_residue([(a, 1), (b, -1)], e, p) == 0


def test_vdp_residue_additive():
    p = 2
    e = TEdge(STANDARD, make_vertex(p, 1, 1))
    f1 = [(Fraction(1), 1), (Fraction(0), -1)]
    f2 = [(Fraction(3), 2), (INFINITY, -2)]
    r = vdp_residue(f1 + f2, e, p)
    assert r == vdp_residue(f1, e, p) + vdp_residue(f2, e, p)
    with pytest.raises(ValueError):
        vdp_residue([(Fraction(1), 1)], e, p)


def patch_of_pair(p, radius, a, b):
    def fn(e):
        return vdp_residue([(a, 1), (b, -1)], e, p)

    return CochainPatch.from_function(p, radius, fn)


def test_vdp_harmonic_patches():
    rng = random.Random(44)
    for p in (2, 3, 5):
        for _ in range(12):
            a = Fraction(rng.randint(-12, 12))
            b = rng.choice([INFINITY, Fraction(rng.randint(-12, 12))])
            if a == b:
                continue
            patch = patch_of_pair(p, 3, a, b)
            assert check_harmonic(patch)


def test_check_harmonic_counterexample():
    p = 2
    patch = patch_of_pair(p, 2, Fraction(0), INFINITY)
    assert check_harmonic(patch)
    bad = dict(patch.values)
    e = TEdge(STANDARD, make_vertex(p, 1, 0))
    bad[e] = bad[e] + 1
    bad[e.reverse()] = -bad[e]
    assert not check_harmonic(CochainPatch(p, 2, bad))
    # zero patch is harmonic
    zero = CochainPatch.from_function(p, 2, lambda e: 0)
    assert check_harmonic(zero)


def test_three_orbits_on_radius_4_patch():
    for p in (2, 3):
        verts = CochainPatch.ball_vertices(p, 4)
        for v in verts:
            assert vertex_parity(v) == tree_distance(v, STANDARD, p) % 2
            g = vertex_witness(v, p)
            assert mat_det(g) == 1
            src = STANDARD if v.k % 2 == 0 else make_vertex(p, 1, 0)
            assert act_vertex(g, src, p) == v
        # parity is preserved by the group, so there are (at least) two
        # vertex orbits; the witnesses show exactly two
        from rmlab.mat2 import sl2zp_generators

        for g in sl2zp_generators(p):
            for v in verts[:12]:
                assert vertex_parity(act_vertex(g, v, p)) == vertex_parity(v)


def test_single_edge_orbit_witnesses():
    # map the standard edge to any edge of the patch via the group
    from rmlab.mat2 import mat_inv, mat_mul

    for p in (2, 3):
        verts = set(CochainPatch.ball_vertices(p, 3))
        count = 0
        for v in sorted(verts, key=lambda t: (t.k, t.u)):
            for w in neighbors(v, p):
                if w not in verts:
                    continue
                src, tgt = (v, w) if v.k % 2 == 0 else (w, v)
                g = vertex_witness(src, p)
                moved = act_vertex(mat_inv(g), tgt, p)
                # moved is an odd neighbor of the standard vertex; a
                # stabilizer element sends (1, 0) there
                assert tree_distance(moved, STANDARD, p) == 1
                if moved == make_vertex(p, -1, 0):
                    eta = mat(0, -1, 1, 0)
                else:
                    t = int(moved.u)
                    eta = mat(1, t, 0, 1)
                full = mat_mul(g, eta)
                assert act_vertex(full, STANDARD, p) == src
                assert act_vertex(full, make_vertex(p, 1, 0), p) == tgt
                count += 1
        assert count > 0


def test_dot_export():
    patch = patch_of_pair(2, 2, Fraction(0), INFINITY)
    dot = patch.to_dot()
    assert dot.startswith("digraph") and "->" in dot
