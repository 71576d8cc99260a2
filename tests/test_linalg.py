from fractions import Fraction as Q

import random
import tracemalloc
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coroots.ambient import add, dot, inverse, is_zero, mat, scale, sub, vec
from coroots.linalg import (
    _int_echelon,
    cartan_integers,
    det_int,
    kernel_basis,
    positive_kernel,
    primitive,
    scaled_inverse,
)
from oracles import (
    gauss_jordan_inverse,
    gram_of,
    in_lattice,
    int_rows,
    lattice_index,
    mat_vec,
    orthogonal_project,
    rank,
    row_echelon,
    row_scale,
    solve,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def matrices(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(mat)


def test_kernel_basis_identity_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_basis_zero_matrix_full():
    basis = kernel_basis([[0, 0, 0]])
    assert len(basis) == 3


def test_kernel_basis_affine_a1():
    basis = kernel_basis([[2, -2], [-2, 2]])
    assert basis == [(1, 1)]


def test_positive_kernel_needs_one_positive_line():
    assert positive_kernel([[2, -2], [-2, 2]]) == (1, 1)
    assert positive_kernel(int_rows([[Q(1, 2), Q(-1, 3)]])) == (2, 3)
    assert positive_kernel([[1, 1]]) is None  # spanned by (1, -1)
    assert positive_kernel([[1, 0, 0], [0, 1, 0]]) is None  # spanned by (0, 0, 1)
    assert positive_kernel([[1, 0], [0, 1]]) is None  # zero kernel
    assert positive_kernel([[1, -1, 0]]) is None  # two-dimensional


@given(matrices(3, 4))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(int_rows(m)):
        assert is_zero(mat_vec(m, v))
        assert all(x.denominator == 1 for x in v)


@given(matrices(3, 4))
@example(mat([[1, 1]]))
def test_kernel_vectors_are_primitive_with_positive_lead(m):
    from math import gcd

    for v in kernel_basis(int_rows(m)):
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0
    assert kernel_basis([[1, 1]]) == [(1, -1)]


@given(matrices(4, 3))
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(int_rows(m))) == 3


@given(st.lists(rationals, min_size=3, max_size=3))
def test_primitive_is_integral_coprime(entries):
    v = vec(entries)
    (ints,) = int_rows([v])
    p = primitive(ints)
    if is_zero(v):
        assert p == v
        return
    from math import gcd

    assert all(type(x) is int for x in p)
    assert gcd(*p) == 1
    assert next(x for x in p if x) > 0
    # p is parallel to v
    i = next(i for i, x in enumerate(v) if x != 0)
    assert scale(v[i] / p[i], p) == v


def test_project_inside_span_is_identity():
    span = [vec([1, 1, 0]), vec([0, 1, 1])]
    v = add(span[0], scale(3, span[1]))
    assert orthogonal_project(v, span) == v


def test_project_orthogonal_vector_is_zero():
    assert orthogonal_project(vec([1, -1]), [vec([1, 1])]) == vec([0, 0])


def test_project_hand_example():
    assert orthogonal_project(vec([1, 0]), [vec([1, 1])]) == vec([Q(1, 2), Q(1, 2)])


@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
def test_projection_idempotent_and_orthogonal(ventries, sentries):
    v, s = vec(ventries), vec(sentries)
    if is_zero(s):
        return
    p = orthogonal_project(v, [s])
    assert orthogonal_project(p, [s]) == p
    assert dot(sub(v, p), s) == 0


@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_projection_linear(a, b):
    span = [vec([2, 1])]
    va, vb = vec(a), vec(b)
    lhs = orthogonal_project(add(va, vb), span)
    rhs = add(orthogonal_project(va, span), orthogonal_project(vb, span))
    assert lhs == rhs


def test_gram_of_examples():
    assert gram_of([]) == ()
    assert gram_of([vec([1, 0]), vec([0, 1])]) == mat([[1, 0], [0, 1]])
    a1, a2 = vec([1, -1, 0]), vec([0, 1, -1])
    assert gram_of([a1, a2]) == mat([[2, -1], [-1, 2]])


def test_project_rejects_degenerate_gram():
    gram = mat([[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        orthogonal_project(vec([1, 1]), [vec([1, 0])], gram)


@given(matrices(3, 3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_solves(m, x):
    b = mat_vec(m, vec(x))
    got = solve(m, b)
    assert got is not None
    assert mat_vec(m, got) == b


def _mat_mul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)) for row in a)


@given(matrices(4, 4))
def test_inverse_is_two_sided(m):
    n = len(m)
    identity = mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    if rank(m) < n:
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(m)
        return
    inv = inverse(m)
    assert _mat_mul(inv, m) == identity
    assert _mat_mul(m, inv) == identity


@given(matrices(3, 4))
def test_inverse_rejects_dependent_rows(m):
    with pytest.raises(ValueError, match="singular matrix"):
        inverse(m + (add(m[0], m[1]),))


def test_inverse_examples():
    assert inverse(mat([[2, -1], [-1, 2]])) == mat([[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]])
    assert inverse(()) == ()
    with pytest.raises(ValueError, match="singular matrix"):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="singular matrix"):
        inverse(mat([[0, 0], [0, 0]]))


def test_lattice_index_and_membership():
    sup = [vec([1, 0]), vec([0, 1])]
    sub_ = [vec([2, 0]), vec([1, 3])]
    assert lattice_index(sub_, sup) == 6
    assert in_lattice(vec([3, 3]), sub_)
    assert not in_lattice(vec([1, 0]), sub_)


@st.composite
def echelon_inputs(draw):
    """Rational matrices up to 6x6, tall, wide or square, with zero rows,
    zero columns and rows that combine other rows."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    m = [draw(st.lists(rationals, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for i in draw(st.sets(st.integers(0, n_rows - 1), max_size=2)):
        m[i] = [Q(0)] * n_cols
    for j in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in m:
            row[j] = Q(0)
    for _ in range(draw(st.integers(0, n_rows - 1))):
        a, b, t = (draw(st.integers(0, n_rows - 1)) for _ in range(3))
        c = draw(rationals)
        m[t] = [x + c * y for x, y in zip(m[a], m[b])]
    return mat(m)


@settings(max_examples=150)
@given(echelon_inputs())
@example(mat([[Q(3, 4)]]))
@example(mat([[0]]))
@example(mat([[0, 0], [0, 0], [0, 0]]))
@example(mat([[1, 2, 3], [2, 4, 6]]))
@example(mat([[Q(1, 2), Q(-1, 3)], [Q(1, 4), Q(5, 6)], [1, 1]]))
def test_row_echelon_matches_fraction_gauss_jordan(m):
    """The fraction-free elimination's rows, each divided by its pivot, are
    the reduced row echelon form of the Fraction Gauss-Jordan oracle on the
    unscaled rows."""
    rows, pivots = _int_echelon(int_rows(m))
    assert all(type(x) is int for row in rows for x in row)
    dens = [rows[i][c] for i, c in enumerate(pivots)] + [1] * (len(rows) - len(pivots))
    reduced = [tuple(Q(x, d) for x in row) for row, d in zip(rows, dens)]
    assert (reduced, pivots) == row_echelon(m)
    n = len(m)
    if n == len(m[0]) and len(pivots) < n:
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(m)
    elif n == len(m[0]):
        identity = mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        assert _mat_mul(inverse(m), m) == identity


def test_row_echelon_entries_stay_small():
    """Each row is divided by its gcd after every elimination step.

    Without that, the integer entries of a fraction-free elimination double
    in size at every pivot; with it, eliminating a 16 x 16 integer matrix
    stays within a few tens of kB.
    """
    rng = random.Random(16)
    m = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
    tracemalloc.start()
    try:
        rows, pivots = _int_echelon(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pivots == list(range(16))
    assert peak < 150_000, f"_int_echelon peaked at {peak} bytes"


def _leibniz_det(m):
    """Determinant as the signed sum over permutations (independent oracle)."""
    from itertools import permutations

    n = len(m)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][p[i]]
        total += term
    return total


@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@example([])
@example([[0, 0], [0, 0]])
@example([[0, 1], [1, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
def test_det_int_matches_leibniz(m):
    d = det_int(m)
    assert type(d) is int
    assert d == _leibniz_det(m)


@given(matrices(4, 4))
@example(mat([[2, 0], [0, 3]]))
@example(mat([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 5)]]))
def test_scaled_inverse_is_the_inverse_over_its_lcm_denominator(m):
    """scaled_inverse of the int rows s_i m_i against the Fraction
    Gauss-Jordan inverse of m itself: (S m)^-1 = m^-1 S^-1, so column i of
    the oracle's inverse is divided by s_i."""
    ints = int_rows(m)
    oracle = gauss_jordan_inverse(m)
    try:
        rows, den = scaled_inverse(ints)
    except ValueError:
        assert oracle is None
        return
    scales = [row_scale(row) for row in m]
    inv = [tuple(x / s for x, s in zip(row, scales)) for row in oracle]
    assert den == lcm(*(x.denominator for row in inv for x in row))
    assert all(type(x) is int for row in rows for x in row)
    assert [tuple(x * den for x in row) for row in inv] == rows


def test_cartan_integers():
    # G2 simple roots (1, -1, 0) and (-2, 1, 1): dot products 2, -3, 6
    assert cartan_integers([[2, -3], [-3, 6]]) == ((2, -1), (-3, 2))
    with pytest.raises(AssertionError, match=r"non-integral Cartan integer at \(1,0\)"):
        cartan_integers([[4, -1], [-1, 2]])
