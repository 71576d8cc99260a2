import pytest
from hypothesis import given
from hypothesis import strategies as st

from coroots.center import all_subgroups
from coroots.derived import quotient_marked
from coroots.diagrams import diagram_of
from coroots.numerology import (
    I_set,
    check_assumption,
    clocked,
    counts,
    euler_phi,
    marked,
)
from coroots.rootdata import parse_type

SWEEP = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(3, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
    + [f"BC{n}" for n in range(1, 13)]
)


@given(st.integers(min_value=1, max_value=500))
def test_euler_phi_sum_over_divisors(n):
    assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def test_i_set_examples():
    e8 = marked(diagram_of(parse_type("E8")))
    odd = I_set(e8, 2)
    assert sorted(e8.n[v] for v in odd) == [1, 3, 3, 5]
    assert I_set(e8, 1) == ()
    with pytest.raises(ValueError):
        I_set(e8, 7)
    st_ = parse_type("E7")
    from coroots.center import center_group

    mq = quotient_marked(st_, center_group(st_))
    assert sorted(mq.n[v] for v in I_set(mq, 4)) == [2, 2, 6]


@pytest.mark.parametrize("spec", SWEEP)
def test_assumption_assigns_each_node_once(spec):
    """Each cover's witness assignment is a partition of I(n, k) whose block
    for order d holds the residues of the punctured subgroup of order d, on
    every marked diagram of a type and of its quotients."""
    st_ = parse_type(spec)
    ms = [marked(diagram_of(st_))]
    if st_.family != "BC":
        ms += [quotient_marked(st_, sub) for sub in all_subgroups(st_)]
    for m in ms:
        for k in range(2, max(m.n) + 1):
            if all(x % k for x in m.n):
                continue
            dec = check_assumption(m, k)
            flat = sorted(v for block in dec.assignment for v in block)
            assert flat == sorted(I_set(m, k)), (m.n, k)
            for d, block in zip(dec.subgroup_orders, dec.assignment):
                assert sorted(m.n[v] % k for v in block) == [k // d * j for j in range(1, d)]


def test_i_set_respects_n0_reduction():
    st_ = parse_type("E7")
    from coroots.center import center_group

    mq = quotient_marked(st_, center_group(st_))  # marks 2,4,6,4,2; n0 = 2
    base = marked(mq.diagram, mq.reduced())  # reduced marks 1,2,3,2,1
    assert I_set(mq, 4) == I_set(base, 2)
    assert I_set(mq, 6) == I_set(base, 3)


def test_check_assumption_examples():
    e8 = marked(diagram_of(parse_type("E8")))
    assert check_assumption(e8, 5).subgroup_orders == (5, 5)
    assert check_assumption(e8, 2).subgroup_orders == (2, 2, 2, 2)
    e6 = marked(diagram_of(parse_type("E6")))
    assert check_assumption(e6, 3).subgroup_orders == (3, 3, 3)
    dec = check_assumption(e8, 4)
    assert dec is not None
    flat = [v for block in dec.assignment for v in block]
    assert sorted(flat) == sorted(I_set(e8, 4))


def test_residue_cover_failure_value():
    from coroots.numerology import residue_cover

    # the N=5 pseudo-example counts i = (2,3,3,2,1): its nonzero residues
    # mod 5 admit no cover by punctured subgroups of Z/5
    residues = [1] * 2 + [2] * 3 + [3] * 3 + [4] * 2
    assert residue_cover(residues, 5) is None
    assert residue_cover([1, 2, 3, 4], 5) == (5,)
    assert residue_cover([1, 2, 2, 1], 4) is None
    assert residue_cover([2, 1, 2, 3], 4) == (2, 4)


def test_counts_e8():
    c = counts(marked(diagram_of(parse_type("E8"))))
    assert (c.N, c.g) == (6, 30)
    assert c.i == {1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}
    assert c.d == {1: 9, 2: 5, 3: 3, 4: 2, 5: 1, 6: 1}


def test_counts_a_family():
    for n in (1, 5, 12):
        c = counts(marked(diagram_of(parse_type(f"A{n}"))))
        assert (c.N, c.g) == (1, n + 1)
        assert c.d == {1: n + 1}


def test_counts_quotient_reduced():
    st_ = parse_type("E7")
    from coroots.center import center_group

    mq = quotient_marked(st_, center_group(st_))
    c = counts(mq)
    assert c.g == 18 and c.N == 6 and mq.n0 == 2
    assert c.d == {1: 5, 2: 5, 3: 1, 4: 2, 6: 1}


def test_clocked_g2():
    cp = clocked(marked(diagram_of(parse_type("G2"))))
    assert cp.windows[(1, 1)] == (6, 0, 2)
    assert cp.windows[(2, 1)] == (4,)
    assert cp.parity == "even"
    assert cp.union() == {0, 2, 4, 6}


def test_clocked_a1():
    cp = clocked(marked(diagram_of(parse_type("A1"))))
    assert set(cp.windows[(1, 1)]) == {1, 3}
    assert cp.parity == "odd"


def test_clocked_single_node():
    from coroots.diagrams import AffineDiagram
    from fractions import Fraction as Q

    one = AffineDiagram(((2,),), (5,), (Q(2),))
    cp = clocked(marked(one))
    assert cp.g == 5
    assert len(cp.union()) == 5


@pytest.mark.parametrize("spec", SWEEP)
def test_numerology_invariants_catalog(spec):
    m = marked(diagram_of(parse_type(spec)))
    c = counts(m)
    assert sum(euler_phi(x) * dx for x, dx in c.d.items()) == c.g
    clocked(m)
    for k in m.admissible_orders():
        if k > 1:
            assert check_assumption(m, k) is not None


@pytest.mark.parametrize("spec", [s for s in SWEEP if not s.startswith("BC")])
def test_numerology_invariants_quotients(spec):
    st_ = parse_type(spec)
    for sub in all_subgroups(st_):
        if sub.is_trivial:
            continue
        mq = quotient_marked(st_, sub)
        counts(mq)
        cp = clocked(mq)
        if mq.n0 > 1:
            shift = 2 * sum(mq.n) // mq.n0
            u = cp.union()
            assert {(p + shift) % (2 * sum(mq.n)) for p in u} == u
        for k in mq.admissible_orders():
            if k > 1:
                assert check_assumption(mq, k) is not None
