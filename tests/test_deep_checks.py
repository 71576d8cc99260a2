"""Independent cross-validation angles beyond the acceptance criteria."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coroots.ambient import add, datum, dot, mat, scale, zero_vec
from coroots.center import all_subgroups, orbit_data, parse_center
from coroots.diagrams import (
    AffineDiagram,
    classify,
    classify_finite_cartan,
    diagram_of,
    generated_group,
    is_affine_type,
    quotient,
)
from coroots.linalg import kernel_basis, primitive, transpose
from coroots.numerology import residue_cover
from coroots.moduli import catalog_types
from coroots.projection import (
    all_roots_of,
    projection_type,
    restricted_type,
)
from coroots.rootdata import SimpleType, parse_type
from oracles import close_under_reflections, int_rows


def positive_ray_count(t: SimpleType) -> int:
    n = t.rank
    if n == 0:
        return 0
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family in ("B", "C", "BC"):
        return n * n
    if t.family == "D":
        return n * (n - 1)
    if t.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if t.family == "F" else 6


@pytest.mark.parametrize(
    "spec", ["A5", "A7", "B4", "B6", "C5", "C6", "D5", "D6", "D7", "D8", "E6", "E7"]
)
def test_restricted_and_projected_systems_share_walls(spec):
    """The restricted and projection systems have the same reflection
    hyperplanes, so their positive-ray counts agree."""
    st_ = parse_type(spec)
    d = datum(st_)
    for sub in all_subgroups(st_):
        if sub.is_trivial or orbit_data(st_, sub).degenerate:
            continue
        # regenerate the closure the classifier uses
        orbits = orbit_data(st_, sub).orbits
        seeds = []
        cart = d.cartan_matrix()
        for o in orbits:
            avg = zero_vec(d.ambient_dim)
            for u in o.nodes:
                avg = add(avg, d.extended_roots[u])
            avg = scale(Q(1, o.size), avg)
            seeds.append(avg)
            if any(
                cart[u][v] != 0
                for i, u in enumerate(o.nodes)
                for v in o.nodes[i + 1 :]
            ):
                seeds.append(scale(2, avg))
        closure = close_under_reflections(seeds, d.gram)
        # primitive() fixes the sign, so each reflection hyperplane counts once
        rays = {primitive(ints) for ints in int_rows(closure)}
        assert len(rays) == positive_ray_count(projection_type(st_, sub)), (
            spec,
            sub.nodes,
        )
        assert restricted_type(st_, sub).rank == projection_type(st_, sub).rank


FOLDS = [
    ("A4", (4, 3, 2, 1)),
    ("A5", (5, 4, 3, 2, 1)),
    ("D5", (1, 2, 3, 5, 4)),
    ("D6", (1, 2, 3, 4, 6, 5)),
    ("E6", (6, 2, 5, 4, 3, 1)),
    ("D4", (3, 2, 4, 1)),
]


@pytest.mark.parametrize("spec,tau", FOLDS)
def test_folding_root_integers(spec, tau):
    """The extended restricted diagram of an outer folding carries the
    relation coefficients n_orbit * h."""
    st_ = parse_type(spec)
    d = datum(st_)
    tau = (0,) + tuple(tau)
    group = [tuple(range(d.rank + 1))]
    p = tau
    while p not in group:
        group.append(p)
        p = tuple(tau[i] for i in p)
    from coroots.diagrams import orbits_of

    orbits = orbits_of(group, d.rank + 1)
    restr = []
    weights = []
    for o in orbits:
        avg = zero_vec(d.ambient_dim)
        for u in o:
            avg = add(avg, d.extended_roots[u])
        restr.append(scale(Q(1, len(o)), avg))
        weights.append(len(o) * d.h[o[0]])
    cartan = mat(
        [
            [2 * dot(u, v, d.gram) / dot(v, v, d.gram) for v in restr]
            for u in restr
        ]
    )
    assert all(x.denominator == 1 for row in cartan for x in row)
    ker = kernel_basis(int_rows(transpose(cartan)))
    assert len(ker) == 1
    assert ker[0] == primitive(weights)


def test_dihedral_quotient_of_a3_cycle():
    """A 4-cycle quotiented by the dihedral group generated by the half
    rotation and a vertex-fixing flip collapses to the 2-node cycle."""
    d = diagram_of(parse_type("A3"))
    rot2 = (2, 3, 0, 1)
    flip = (0, 3, 2, 1)
    group = generated_group([rot2, flip], 4)
    assert len(group) == 4
    q = quotient(d, group)
    assert q.cartan == ((2, -2), (-2, 2))
    assert q.marks == (2, 2)
    res = classify(q)
    assert res.type == SimpleType("A", 1) and res.scale == 2


def test_outer_flip_quotient_of_a3_is_exceptional():
    """The edge-swapping flip of the 4-cycle has two exceptional orbits."""
    d = diagram_of(parse_type("A3"))
    flip = (1, 0, 3, 2)
    q = quotient(d, generated_group([flip], 4))
    res = classify(q)
    assert res is not None and res.type.rank == 1
    marks = is_affine_type(q.cartan)
    assert marks is not None


def brute_force_cover(residues, k):
    counts = {}
    for r in residues:
        counts[r % k] = counts.get(r % k, 0) + 1

    def punctured(d):
        return [k // d * j for j in range(1, d)]

    divisors = [d for d in range(2, k + 1) if k % d == 0]

    def recurse(counts):
        if not counts:
            return True
        for dd in divisors:
            need = {}
            for r in punctured(dd):
                need[r] = need.get(r, 0) + 1
            if all(counts.get(r, 0) >= c for r, c in need.items()):
                nxt = dict(counts)
                for r, c in need.items():
                    nxt[r] -= c
                    if nxt[r] == 0:
                        del nxt[r]
                if recurse(nxt):
                    return True
        return False

    return recurse(counts)


@given(
    st.integers(min_value=2, max_value=8),
    st.lists(st.integers(min_value=1, max_value=7), min_size=0, max_size=6),
)
def test_residue_cover_matches_brute_force(k, residues):
    residues = [r for r in residues if r % k != 0]
    got = residue_cover(residues, k)
    assert (got is not None) == brute_force_cover(residues, k)
    if got is not None:
        # the orders multiset reassembles the residue multiset
        rebuilt = []
        for d in got:
            rebuilt += [k // d * j for j in range(1, d)]
        assert sorted(r % k for r in rebuilt) == sorted(r % k for r in residues)


@pytest.mark.parametrize("spec", ["A4", "B5", "C4", "D6", "E7", "F4", "G2", "BC3"])
def test_classify_invariant_under_relabeling(spec):
    """Classification does not depend on the node numbering."""
    st_ = parse_type(spec)
    d = diagram_of(st_)
    rng = random.Random(7)
    n = d.n_nodes
    for _ in range(6):
        perm = list(range(n))
        rng.shuffle(perm)
        cartan = tuple(
            tuple(d.cartan[perm[i]][perm[j]] for j in range(n)) for i in range(n)
        )
        marks = tuple(d.marks[perm[i]] for i in range(n))
        lens = tuple(d.sq_lengths[perm[i]] for i in range(n))
        res = classify(AffineDiagram(cartan, marks, lens))
        assert res is not None and res.type == st_ and res.scale == 1


def _relabeled(m, perm):
    return tuple(tuple(m[perm[i]][perm[j]] for j in range(len(perm))) for i in range(len(perm)))


@pytest.mark.slow
@pytest.mark.parametrize(
    "st_", catalog_types(24) + [SimpleType("BC", n) for n in range(1, 25)], ids=str
)
def test_classification_invariant_under_relabeling_to_rank_24(st_):
    """classify on the extended diagram, and classify_finite_cartan on its
    finite part in both orientations, under three random relabelings."""
    d = diagram_of(st_)
    fin = tuple(row[1:] for row in d.cartan[1:])
    wants = [classify_finite_cartan(m) for m in (fin, transpose(fin))]
    if st_.family != "BC":
        assert wants[1] == st_  # the catalog stores the coroot-side matrix
    rng = random.Random(str(st_))
    for _ in range(3):
        perm = rng.sample(range(d.n_nodes), d.n_nodes)
        marks = tuple(d.marks[u] for u in perm)
        lens = tuple(d.sq_lengths[u] for u in perm)
        res = classify(AffineDiagram(_relabeled(d.cartan, perm), marks, lens))
        assert (res.type, res.scale) == (st_, 1)
        perm = rng.sample(range(st_.rank), st_.rank)
        for m, want in zip((fin, transpose(fin)), wants):
            assert classify_finite_cartan(_relabeled(m, perm)) == want


@pytest.mark.parametrize("spec,center", [("E7", "full"), ("D6", "full"), ("B5", "full"), ("C5", "full")])
def test_classify_node_map_is_a_witness(spec, center):
    """The bijection returned by classify carries the quotient Cartan
    matrix onto the catalog one and respects the scaled marks."""
    st_ = parse_type(spec)
    sub = parse_center(st_, center)
    q = quotient(diagram_of(st_), sub.perms())
    res = classify(q)
    cat = diagram_of(res.type)
    p = res.node_map
    for i in range(q.n_nodes):
        assert q.marks[i] == res.scale * cat.marks[p[i]]
        for j in range(q.n_nodes):
            assert q.cartan[i][j] == cat.cartan[p[i]][p[j]]


def test_all_roots_closed_under_reflection():
    for spec in ["B4", "F4", "G2", "BC2", "E6"]:
        st_ = parse_type(spec)
        d = datum(st_)
        roots = set(all_roots_of(st_))
        for u in list(roots)[:40]:
            uu = dot(u, u, d.gram)
            for v in roots:
                c = 2 * dot(v, u, d.gram) / uu
                w = tuple(a - c * b for a, b in zip(v, u))
                assert w in roots
