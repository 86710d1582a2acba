from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from etasphere import gf2
from etasphere.graded import (
    EXTERIOR,
    POLYNOMIAL,
    SQUARE,
    AlgebraError,
    AlgebraSpec,
    Derivation,
    F2,
    GeneratorSpec,
    IntegerRing,
    IntegersMod,
    KMTau,
    NonSquareZero,
    RationalRing,
    TruncationExceeded,
    add_term,
    apply_derivation,
    check_confluence_random,
    hilbert_dimension,
    homology_at_degree,
    normalize_product,
    rank_and_kernel_dim,
    rational_rank,
    terms_equal,
)


def poly_f2(names_degrees, truncation=24):
    return AlgebraSpec(
        [GeneratorSpec(n, d, POLYNOMIAL) for n, d in names_degrees],
        F2(),
        truncation,
    )


def test_product_basics():
    a = poly_f2([("xi1", 1), ("xi2", 3)])
    x = a.gen("xi1")
    assert (x * x).terms == {((0, 2),): 1}
    assert normalize_product(a.one(), x) == x
    assert (x * a.zero()).is_zero()


def test_truncation_enforced():
    a = poly_f2([("x", 10)], truncation=16)
    x = a.gen("x")
    with pytest.raises(TruncationExceeded):
        normalize_product(x, x)


def test_motivic_square_rewrite():
    # tau0^2 -> tau*xi1 + rho*tau0*xi1 + rho*tau1 over the rho-coefficient base
    km = KMTau("free")
    tau = km.monomial(0, 1)
    rho = km.monomial(1, 0)
    a = AlgebraSpec(
        [
            GeneratorSpec("tau0", 1, SQUARE, {"xi1": tau, "tau0*xi1": rho, "tau1": rho}),
            GeneratorSpec("xi1", 1, POLYNOMIAL),
            GeneratorSpec("tau1", 2, SQUARE, None),
        ],
        km,
        truncation=12,
    )
    t0 = a.gen("tau0")
    prod = t0 * t0
    xi1 = a.index_of["xi1"]
    tau0 = a.index_of["tau0"]
    tau1 = a.index_of["tau1"]
    assert prod.terms == {
        ((xi1, 1),): tau,
        ((tau0, 1), (xi1, 1)): rho,
        ((tau1, 1),): rho,
    }


def test_exterior_square_dies():
    a = AlgebraSpec([GeneratorSpec("e", 3, EXTERIOR)], F2(), 24)
    e = a.gen("e")
    assert (e * e).is_zero()


def ko_xi_model(truncation=12):
    """F2[xi1^2, xi2, xi3] with delta(xi2) = xi1^2, delta(xi3) = xi2^2."""
    a = poly_f2([("x1", 2), ("xi2", 3), ("xi3", 7)], truncation)
    delta = Derivation(
        a,
        -1,
        {
            "x1": a.zero(),
            "xi2": a.gen("x1"),
            "xi3": a.gen("xi2") * a.gen("xi2"),
        },
        name="delta",
    )
    return a, delta


def test_derivation_examples():
    # delta(xi2) = xi1^2 and Leibniz: delta(xi1 xi2) = xi2 + xi1^3 with xi0 = 1
    a = poly_f2([("xi1", 1), ("xi2", 3)])
    delta = Derivation(a, -1, {"xi1": a.one(), "xi2": a.gen("xi1") * a.gen("xi1")})
    assert apply_derivation(delta, a.one()).is_zero()
    assert apply_derivation(delta, a.gen("xi2")) == a.gen("xi1") * a.gen("xi1")
    prod = a.gen("xi1") * a.gen("xi2")
    image = apply_derivation(delta, prod)
    xi1, xi2 = a.gen("xi1"), a.gen("xi2")
    assert image == xi2 + xi1 * xi1 * xi1


def test_homology_of_ko_xi_model_vanishes_positively():
    # one degree of headroom so the boundary map into degree 12 is present
    a, delta = ko_xi_model(13)
    h0 = homology_at_degree(delta, 0)
    assert h0.homology_dim == 1
    assert h0.homology_basis[0] == a.one()
    for n in range(1, 13):
        h = homology_at_degree(delta, n)
        assert h.homology_dim == 0, f"H^{n} should vanish"


def test_homology_zero_derivation_gives_everything():
    a = poly_f2([("u", 1), ("v", 2)], truncation=8)
    zero = Derivation(a, -1, {})
    for n in range(0, 6):
        h = homology_at_degree(zero, n)
        assert h.homology_dim == hilbert_dimension(a, n)


def test_phi_model_degree4():
    # phi(x_i) = x_{i-1} on F2[x1..x4]: homology 0 in degree 4, kernel dim 2.
    # phi is not a differential (phi.phi(x4) = x2), so the strict call raises
    # and the ker/(ker meet im) variant carries the example.
    a = poly_f2([("x1", 1), ("x2", 2), ("x3", 3), ("x4", 4)], truncation=10)
    phi = Derivation(
        a,
        -1,
        {"x1": a.one(), "x2": a.gen("x1"), "x3": a.gen("x2"), "x4": a.gen("x3")},
        name="phi",
    )
    with pytest.raises(NonSquareZero):
        homology_at_degree(phi, 4)
    h = homology_at_degree(phi, 4, allow_non_differential=True)
    assert h.homology_dim == 0
    rank, kernel = rank_and_kernel_dim(phi, 4)
    assert kernel == 2  # partitions of 4 into parts >= 2: {4}, {2+2}


def test_rank_over_rationals():
    a = AlgebraSpec(
        [GeneratorSpec(f"x{i}", i) for i in range(1, 7)],
        RationalRing(),
        truncation=10,
    )
    images = {"x1": a.one()}
    for i in range(2, 7):
        images[f"x{i}"] = a.gen(f"x{i-1}")
    phi = Derivation(a, -1, images)
    # surjective in degree 5; kernel dim = partitions of 5 with parts >= 2
    rank, kernel = rank_and_kernel_dim(phi, 5)
    target_dim = hilbert_dimension(a, 4)
    assert rank == target_dim
    assert kernel == 2  # {5}, {3+2}


def test_hilbert_dimensions():
    a = poly_f2([("y2", 2), ("y3", 3), ("y4", 4)], truncation=12)
    # partitions of 4 into parts from {2,3,4}: {4}, {2,2}
    assert hilbert_dimension(a, 4) == 2
    assert hilbert_dimension(a, 0) == 1
    w = AlgebraSpec(
        [GeneratorSpec("y1", 2), GeneratorSpec("y2", 4)], IntegerRing(), 12
    )
    assert hilbert_dimension(w, 4) == 2  # y1^2, y2


def test_confluence_random_words():
    km = KMTau("free")
    tau = km.monomial(0, 1)
    rho = km.monomial(1, 0)
    a = AlgebraSpec(
        [
            GeneratorSpec("tau0", 1, SQUARE, {"xi1": tau, "tau0*xi1": rho, "tau1": rho}),
            GeneratorSpec("xi1", 1, POLYNOMIAL),
            GeneratorSpec("tau1", 2, SQUARE, {"xi2": tau, "tau0*xi2": rho, "tau2": rho}),
            GeneratorSpec("xi2", 3, POLYNOMIAL),
            GeneratorSpec("tau2", 4, SQUARE, None),
        ],
        km,
        truncation=20,
    )
    rng = random.Random(3)
    done = check_confluence_random(a, 10_000, rng)
    assert done > 0


def test_json_spec_loading():
    spec = {
        "generators": [
            {"name": "x", "degree": 2},
            {"name": "e", "degree": 3, "kind": "exterior"},
        ],
        "coefficients": "F2",
        "truncation": 10,
    }
    a = AlgebraSpec.from_json(spec)
    assert hilbert_dimension(a, 5) == 1  # x*e
    assert (a.gen("e") * a.gen("e")).is_zero()


def test_exterior_odd_degree_needs_f2():
    with pytest.raises(Exception):
        AlgebraSpec([GeneratorSpec("e", 3, EXTERIOR)], IntegerRing(), 10)
    # even-degree exterior generators are fine over Z
    AlgebraSpec([GeneratorSpec("e", 4, EXTERIOR)], IntegerRing(), 10)


def test_homology_rank_nullity_consistency():
    a, delta = ko_xi_model(13)
    for n in range(0, 13):
        h = homology_at_degree(delta, n)
        assert h.homology_dim == h.cycle_dim - h.boundary_dim


def test_rank_refuses_rings_without_a_rank():
    a = AlgebraSpec([GeneratorSpec("x", 2)], IntegersMod(4), truncation=6)
    d = Derivation(a, 0, {"x": a.gen("x").scale(2)})  # d(x) = 2x
    with pytest.raises(AlgebraError):
        rank_and_kernel_dim(d, 2)


def fraction_rank(matrix) -> int:
    """Reference: Gaussian elimination on a dense matrix of Fractions."""
    rows = [[Fraction(c) for c in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank]
        for row in rows[rank + 1:]:
            f = row[col] / head[col]
            for k in range(col, ncols):
                row[k] -= f * head[k]
        rank += 1
    return rank


entries = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
matrices = st.integers(0, 6).flatmap(
    lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6)
)


@given(matrices)
@example([])
@example([[0, 0, 0], [0, 0, 0]])  # zero rows and zero columns only
@example([[0, Fraction(1, 2), 0], [0, 0, 0], [0, Fraction(-3, 4), 0]])
@example([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), 1]])  # rank 2 over Q
@example([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), 1], [2, 4]])
def test_rational_rank_matches_fraction_elimination(matrix):
    ncols = len(matrix[0]) if matrix else 0
    # the kernel consumes columns; zero entries may or may not be stored
    columns = [{i: row[j] for i, row in enumerate(matrix) if row[j] or i % 2}
               for j in range(ncols)]
    assert rational_rank(columns) == fraction_rank(matrix)
    # rank of the transpose: the rows as vectors
    assert rational_rank(dict(enumerate(row)) for row in matrix) == fraction_rank(matrix)


@given(st.lists(st.integers(0, 255), max_size=8))
def test_gf2_transpose_against_bits(columns):
    rows = gf2.transpose(columns, 8)
    for i in range(8):
        for j, col in enumerate(columns):
            assert (rows[i] >> j) & 1 == (col >> i) & 1
    assert gf2.transpose(rows, len(columns)) == columns


def test_monomial_bases_are_not_aliased():
    a = poly_f2([("x", 1), ("y", 2)], truncation=8)
    first = a.monomials_of_degree(4)
    want = list(first)
    first.append(((0, 99),))
    first[0] = ()
    assert a.monomials_of_degree(4) == want


TERM_RINGS = {
    "F2": (F2(), st.integers(0, 1)),
    "Z/8": (IntegersMod(8), st.integers(0, 7)),
    "kM[tau]": (KMTau("free"), st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2)))),
}


def dense_sum(ring, pairs, keys):
    """Per-key sum of every coefficient, keys with a zero sum left out."""
    out = {}
    for k in keys:
        total = ring.zero
        for key, c in pairs:
            if key == k:
                total = ring.add(total, c)
        if not ring.is_zero(total):
            out[k] = total
    return out


@given(st.sampled_from(sorted(TERM_RINGS)), st.data())
def test_add_term_and_terms_equal_match_dense_sums(name, data):
    ring, coeff = TERM_RINGS[name]
    pairs = st.lists(st.tuples(st.integers(0, 4), coeff), max_size=12)
    a_pairs, b_pairs = data.draw(pairs), data.draw(pairs)
    a, b = {}, {}
    for key, c in a_pairs:
        add_term(ring, a, key, c)
    for key, c in b_pairs:
        add_term(ring, b, key, c)
    dense_a, dense_b = dense_sum(ring, a_pairs, range(5)), dense_sum(ring, b_pairs, range(5))
    assert a == dense_a and b == dense_b
    assert all(not ring.is_zero(c) for c in a.values())
    assert terms_equal(ring, a, b) == (dense_a == dense_b)
    assert terms_equal(ring, a, dict(a))
