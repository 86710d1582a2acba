from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from etasphere import gf2
from etasphere.filtered import FilteredRing
from etasphere.graded import (
    POLYNOMIAL,
    SQUARE,
    AlgebraError,
    AlgebraSpec,
    Derivation,
    F2,
    GeneratorSpec,
    GradedElement,
    IntegersMod,
    KMTau,
    NonSquareZero,
    RationalRing,
    Ring,
    TruncationExceeded,
    add_term,
    add_terms,
    apply_derivation,
    check_confluence_random,
    derivation_matrix,
    homology_at_degree,
    mon_from_dict,
    mon_mul,
    normalize_product,
    rank_and_kernel_dim,
    rational_rank,
    terms_equal,
)
from etasphere.kwcalc import msp_gr_model
from etasphere.steenrod import kgl_homology_model, ko_homology_model, steenrod_spec
from etasphere.witt import catalog_lookup


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
    km = KMTau()
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
        assert h.homology_dim == len(a.monomials_of_degree(n))


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
    target_dim = len(a.monomials_of_degree(4))
    assert rank == target_dim
    assert kernel == 2  # {5}, {3+2}


def test_hilbert_dimensions():
    a = poly_f2([("y2", 2), ("y3", 3), ("y4", 4)], truncation=12)
    # partitions of 4 into parts from {2,3,4}: {4}, {2,2}
    assert len(a.monomials_of_degree(4)) == 2
    assert len(a.monomials_of_degree(0)) == 1
    w = AlgebraSpec(
        [GeneratorSpec("y1", 2), GeneratorSpec("y2", 4)], RationalRing(), 12
    )
    assert len(w.monomials_of_degree(4)) == 2  # y1^2, y2


def test_confluence_random_words():
    km = KMTau()
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


def test_unknown_generator_kinds_are_refused():
    with pytest.raises(AlgebraError, match="unknown kind 'exterior'"):
        AlgebraSpec([GeneratorSpec("e", 3, "exterior")], F2(), 10)


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


def eliminated_rank(vectors) -> int:
    """Reference: fraction-free elimination alone, without the mod-2 shortcut."""
    pivots = {}
    for vec in vectors:
        den = math.lcm(*(c.denominator for c in vec.values()))
        row = {k: c.numerator * (den // c.denominator) for k, c in vec.items() if c}
        while row:
            g = math.gcd(*row.values())
            row = {k: v // g for k, v in row.items()}
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = math.gcd(row[lead], pivot[lead])
            a, b = row[lead] // g, pivot[lead] // g
            combined = {k: b * v for k, v in row.items()}
            for k, v in pivot.items():
                combined[k] = combined.get(k, 0) - a * v
            row = {k: v for k, v in combined.items() if v}
    return len(pivots)


def test_rational_rank_shortcut_matches_elimination():
    # the mod-2 rank falls short of the bound on each of these, so the
    # elimination decides: 2x has rank 1, (1, 1) and (1, -1) have rank 2
    for vectors in ([{0: 2}], [{0: 1, 1: 1}, {0: 1, 1: -1}], [{3: Fraction(2, 3)}, {}]):
        assert rational_rank(vectors) == eliminated_rank(vectors)
    assert rational_rank([]) == 0 and rational_rank([{}, {2: 0}]) == 0
    rng = random.Random(29)
    values = [0, 1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    for _ in range(2000):
        nidx = rng.randint(1, 8)
        vectors = [
            {k: rng.choice(values) for k in rng.sample(range(nidx), rng.randint(0, nidx))}
            for _ in range(rng.randint(0, 8))
        ]
        assert rational_rank(vectors) == eliminated_rank(vectors), vectors


@given(st.integers(0, 2**70))
def test_gf2_bits_lists_the_set_bits_ascending(mask):
    positions = gf2.bits(mask)
    assert positions == sorted(set(positions))
    assert sum(1 << j for j in positions) == mask


@given(st.lists(st.integers(0, 255), max_size=8))
def test_gf2_transpose_against_bits(columns):
    rows = gf2.transpose(columns, 8)
    for i in range(8):
        for j, col in enumerate(columns):
            assert (rows[i] >> j) & 1 == (col >> i) & 1
    assert gf2.transpose(rows, len(columns)) == columns


def _gf2_span(vectors):
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return span


def _gf2_dot(a, b):
    return bin(a & b).count("1") % 2


gf2_rows = st.lists(st.integers(0, 31), max_size=5)


@given(gf2_rows)
def test_gf2_rank_against_span_size(rows):
    assert 2 ** gf2.rank(rows) == len(_gf2_span(rows))


@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), max_size=4))))
def test_gf2_nullspace_against_brute_force(case):
    columns, rows = case
    kernel = {x for x in range(2**columns) if not any(_gf2_dot(r, x) for r in rows)}
    basis = gf2.nullspace(columns, rows)
    assert all(v in kernel for v in basis)
    assert gf2.rank(basis) == len(basis)
    assert len(_gf2_span(basis)) == len(kernel)


@given(gf2_rows, st.lists(st.integers(0, 31), max_size=4))
def test_gf2_solve_against_brute_force(columns, targets):
    sols = gf2.solve(columns, targets)
    assert len(sols) == len(targets)
    span = _gf2_span(columns)
    for target, sol in zip(targets, sols):
        reachable = target in span
        assert (sol is not None) == reachable
        if sol is not None:
            acc = 0
            for j, col in enumerate(columns):
                if (sol >> j) & 1:
                    acc ^= col
            assert acc == target


def test_gf2_solve_shares_one_elimination_across_targets():
    # several targets against one column set (the even-weight vectors of
    # F2^4), each answered on its own
    columns = [0b0011, 0b0110, 0b1100]
    targets = [0b0101, 0b1111, 0b0001, 0, 0b1001, 0b1000, 0b0101]
    assert gf2.solve(columns, targets) == [0b011, 0b101, None, 0, 0b111, None, 0b011]
    assert gf2.solve(columns, []) == []
    assert gf2.solve([], [0, 1]) == [0, None]


def test_monomial_bases_are_not_aliased():
    a = poly_f2([("x", 1), ("y", 2)], truncation=8)
    first = a.monomials_of_degree(4)
    want = list(first)
    first.append(((0, 99),))
    first[0] = ()
    assert a.monomials_of_degree(4) == want


def packed(km, pairs):
    """The k^M[tau] element sum of rho^r tau^t over (r, t) in pairs, built by the ring."""
    return functools.reduce(km.add, (km.monomial(r, t) for r, t in pairs), km.zero)


KM_FREE = KMTau()
W_Z_HALF = FilteredRing.from_witt_mod2k(catalog_lookup("Z_half"), 3)
TERM_RINGS = {
    "F2": (F2(), st.integers(0, 1)),
    "Z/8": (IntegersMod(8), st.integers(0, 7)),
    "kM[tau]": (KM_FREE, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=5)
                .map(lambda pairs: packed(KM_FREE, pairs))),
    "W(Z_half)/2^3": (W_Z_HALF, st.tuples(*(st.integers(0, d - 1) for d in W_Z_HALF.orders))),
}


def test_every_coefficient_ring_is_a_ring():
    # one base class holds the shared defaults; from_int is each ring's own
    for cls in (F2, RationalRing, IntegersMod, KMTau, FilteredRing):
        assert issubclass(cls, Ring)
    assert not hasattr(Ring, "from_int")
    assert (W_Z_HALF.zero, W_Z_HALF.describe(W_Z_HALF.one)) == ((0, 0), "[1, 0]")
    assert W_Z_HALF.is_zero((8, 2)) and not W_Z_HALF.is_zero((0, 1))


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
    # the batched form: scale * b added to a, each key framed as a tensor word
    scale = data.draw(coeff)
    batched = {(7, k, 8): c for k, c in a.items()}
    add_terms(ring, batched, {(k,): c for k, c in b.items()}, scale, prefix=(7,), suffix=(8,))
    want = dense_sum(ring, a_pairs + [(k, ring.mul(scale, c)) for k, c in b_pairs], range(5))
    assert batched == {(7, k, 8): c for k, c in want.items()}


@given(gf2_rows, gf2_rows)
def test_gf2_quotient_basis_against_brute_force(space, subspace):
    reps = gf2.quotient_basis(space, subspace)
    assert all(v in space for v in reps)
    # the representatives are independent modulo the subspace and fill the quotient
    sub = _gf2_span(subspace)
    assert 2 ** len(reps) * len(sub & _gf2_span(space)) == len(_gf2_span(space))
    assert len(_gf2_span(reps + subspace)) == len(_gf2_span(space + subspace))
    assert len(_gf2_span(reps + subspace)) == 2 ** len(reps) * len(sub)


@given(gf2_rows, gf2_rows)
def test_gf2_span_intersection_against_brute_force(a_rows, b_rows):
    basis = gf2.span_intersection(a_rows, b_rows)
    assert gf2.rank(basis) == len(basis)
    assert _gf2_span(basis) == _gf2_span(a_rows) & _gf2_span(b_rows)


# rho free, rho = 0, rho^2 = 0 and rho^3 = 0, the last beyond every named base
RHO_ORDERS = (None, 1, 2, 3)
RHO_ORDER_IDS = ("free", "zero", "square_zero", "cube_zero")


class FrozensetKMTau:
    """Reference k^M[tau]: frozensets of (rho_exp, tau_exp) pairs, multiplied pairwise."""

    def __init__(self, rho_order):
        self.rho_order = rho_order

    def admissible(self, a):
        return self.rho_order is None or a < self.rho_order

    def monomial(self, r, t):
        return frozenset({(r, t)}) if self.admissible(r) else frozenset()

    def mul(self, a, b):
        acc = set()
        for r1, t1 in a:
            for r2, t2 in b:
                if self.admissible(r1 + r2):
                    acc ^= {(r1 + r2, t1 + t2)}
        return frozenset(acc)

    def degrees(self, a):
        return {t for _, t in a} or {0}

    def describe(self, a):
        def term(r, t):
            bits = []
            if r:
                bits.append("rho" + (f"^{r}" if r > 1 else ""))
            if t:
                bits.append("tau" + (f"^{t}" if t > 1 else ""))
            return "*".join(bits) if bits else "1"
        return " + ".join(term(r, t) for r, t in sorted(a)) or "0"


km_pairs = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)), max_size=5)


@given(st.sampled_from(RHO_ORDERS), km_pairs, km_pairs, km_pairs)
def test_packed_kmtau_matches_frozenset_reference(mode, xs, ys, zs):
    km, ref = KMTau(mode), FrozensetKMTau(mode)
    fa, fb, fc = (functools.reduce(lambda acc, p: acc ^ ref.monomial(*p), ps, frozenset())
                  for ps in (xs, ys, zs))
    a, b, c = packed(km, fa), packed(km, fb), packed(km, fc)
    assert all(km.admissible(r) == ref.admissible(r) for r in range(5))
    assert list(km.terms(a)) == sorted(fa)
    assert km.is_zero(a) == (not fa)
    assert km.mul(a, b) == packed(km, ref.mul(fa, fb))
    assert km.mul(a, b) == km.mul(b, a)
    assert km.mul(km.mul(a, b), c) == km.mul(a, km.mul(b, c))
    assert km.mul(a, km.add(b, c)) == km.add(km.mul(a, b), km.mul(a, c))
    assert km.mul(km.one, a) == a == km.mul(a, km.one)
    assert km.add(a, km.zero) == a and km.is_zero(km.add(a, a))
    assert km.mul(a, km.zero) == km.zero
    assert km.describe(a) == ref.describe(fa)
    assert km.degrees(a) == ref.degrees(fa)


@pytest.mark.parametrize("mode", RHO_ORDERS, ids=RHO_ORDER_IDS)
def test_kmtau_tau_exponent_past_the_stride_raises(mode):
    km = KMTau(mode)
    top = KMTau.STRIDE - 1
    with pytest.raises(AlgebraError):
        km.monomial(0, KMTau.STRIDE)
    with pytest.raises(AlgebraError):
        km.monomial(-1, 0)
    with pytest.raises(AlgebraError):
        km.mul(km.monomial(0, top), km.monomial(0, 1))
    with pytest.raises(AlgebraError):
        km.mul(km.monomial(0, 40) ^ km.one, km.monomial(0, 30) ^ km.one)
    # the largest tau exponent that fits stays in its row
    assert list(km.terms(km.mul(km.monomial(0, top - 1), km.monomial(0, 1)))) == [(0, top)]
    if mode != 1:
        rho = km.monomial(1, 0)
        assert list(km.terms(km.mul(km.monomial(0, top), rho))) == [(1, top)]
        with pytest.raises(AlgebraError):
            km.mul(km.monomial(1, 40), km.monomial(0, 30))


@pytest.mark.parametrize("order", ["free", 0, -1, True, 2.0, "2"])
def test_kmtau_takes_only_a_positive_int_rho_order(order):
    with pytest.raises(AlgebraError, match="rho order"):
        KMTau(order)


# -- apply_derivation and monomial bases against independent references --------

def leibniz_per_term(d, a):
    """d(a) the per-term way: normalize each partial, multiply, then sum."""
    alg = d.algebra
    ring = alg.coefficients
    total = alg.zero()
    for mon, coeff in a.terms.items():
        for i, e in mon:
            img = d.images[i]
            if img.is_zero():
                continue
            rest = dict(mon)
            rest[i] -= 1
            scalar = ring.mul(coeff, ring.from_int(e))
            if ring.is_zero(scalar):
                continue
            partial = GradedElement(alg, alg.normalize({mon_from_dict(rest): scalar}))
            total = total + normalize_product(partial, img)
    return total


def phi_algebra(max_degree, ring):
    """phi(x_i) = x_(i-1) on ring[x_1, ..., x_max] (x_0 = 1), as in abstract_phi_report."""
    a = AlgebraSpec([GeneratorSpec(f"x{i}", i) for i in range(1, max_degree + 1)],
                    ring, max_degree + 1)
    images = {"x1": a.one()}
    for i in range(2, max_degree + 1):
        images[f"x{i}"] = a.gen(f"x{i - 1}")
    return a, Derivation(a, -1, images, name="phi")


def ko_square_derivation(base):
    """A degree +1 derivation of the ko model whose Leibniz terms hit tau2^2 = rho tau3."""
    a = ko_homology_model(base, truncation=16).algebra
    images = {"xi1sq": a.gen("xi2"), "xi2": a.gen("tau2"),
              "tau2": a.gen("xi1sq") * a.gen("xi2")}
    return a, Derivation(a, 1, images, name="d")


@functools.cache
def derivation_cases():
    cases = {}
    for base in ("real_closed", "quadratically_closed", "finite_field_3mod4"):
        cases[f"ko/{base}"] = ko_homology_model(base, truncation=16).delta
        cases[f"kgl/{base}"] = kgl_homology_model(base, truncation=16).delta
        cases[f"ko-square/{base}"] = ko_square_derivation(base)[1]
    cases["phi/F2"] = phi_algebra(9, F2())[1]
    cases["phi/Q"] = phi_algebra(9, RationalRing())[1]
    cases["msp"] = msp_gr_model(12)[1]
    return cases


def random_coefficient(ring, rng):
    if isinstance(ring, KMTau):
        return packed(ring, [(rng.randrange(4), 0) for _ in range(rng.randrange(1, 4))])
    if isinstance(ring, RationalRing):
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return ring.one


@pytest.mark.parametrize("name", sorted(derivation_cases()))
def test_apply_derivation_matches_the_per_term_leibniz_rule(name):
    d = derivation_cases()[name]
    alg, ring = d.algebra, d.algebra.coefficients
    top = min(alg.truncation, alg.truncation - d.degree_shift)
    rng = random.Random(name)
    checked = 0
    for _ in range(60):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            basis = alg.monomials_of_degree(rng.randrange(top + 1))
            if basis:
                add_term(ring, terms, rng.choice(basis), random_coefficient(ring, rng))
        el = GradedElement(alg, terms)
        got = apply_derivation(d, el)
        assert terms_equal(ring, got.terms, leibniz_per_term(d, el).terms), el
        checked += bool(got.terms)
    assert checked >= 20
    past = ((0, alg.truncation + 5),)
    with pytest.raises(TruncationExceeded):
        apply_derivation(d, GradedElement(alg, {past: ring.one}))


@pytest.mark.parametrize("ring", [F2(), RationalRing()], ids=["F2", "Q"])
def test_apply_derivation_cancels_across_leibniz_terms(ring):
    a, phi = phi_algebra(6, ring)
    x1, x2, x3 = a.gen("x1"), a.gen("x2"), a.gen("x3")
    two = ring.from_int(2)
    # phi(2 x1 x3 - x2^2) = 2 x3 + 2 x1 x2 - 2 x1 x2: the x1 x2 terms cancel
    el = (x1 * x3).scale(two) - x2 * x2
    want = x3.scale(two)
    assert apply_derivation(phi, el) == want == leibniz_per_term(phi, el)
    # phi(x1 x2 + x3) = x2 + x1^2 + x2: over F2 the x2 terms cancel
    el = x1 * x2 + x3
    want = x1 * x1 + (a.zero() if isinstance(ring, F2) else x2.scale(two))
    assert apply_derivation(phi, el) == want == leibniz_per_term(phi, el)


def monomials_by_exponent_vectors(algebra, n):
    """Every exponent vector of total degree n, squares capped at 1, in product order."""
    gens = algebra.generators
    ranges = [range(min(n // g.degree, 1 if g.kind == SQUARE else n) + 1) for g in gens]
    out = []
    for exps in itertools.product(*ranges):
        if sum(e * g.degree for e, g in zip(exps, gens)) == n:
            out.append(tuple((i, e) for i, e in enumerate(exps) if e))
    return out


@functools.cache
def monomial_basis_cases():
    cases = {}
    for base in ("real_closed", "quadratically_closed"):
        cases[f"ko/{base}"] = ko_homology_model(base, truncation=16).algebra
        cases[f"kgl/{base}"] = kgl_homology_model(base, truncation=16).algebra
    cases["steenrod/free/7"] = steenrod_spec(None, 7)
    cases["phi/F2"] = phi_algebra(9, F2())[0]
    cases["phi/Q"] = phi_algebra(9, RationalRing())[0]
    # degrees out of order, a generator above every small n, squares with no image
    cases["unsorted"] = AlgebraSpec(
        [GeneratorSpec("a", 3, SQUARE, None), GeneratorSpec("big", 9),
         GeneratorSpec("x", 2), GeneratorSpec("s", 1, SQUARE, None)], F2(), 12)
    return cases


@pytest.mark.parametrize("name", sorted(monomial_basis_cases()))
def test_monomials_of_degree_match_exponent_vectors_in_order(name):
    algebra = monomial_basis_cases()[name]
    for n in range(algebra.truncation + 1):
        assert algebra.monomials_of_degree(n) == monomials_by_exponent_vectors(algebra, n), n
    assert algebra.monomials_of_degree(-1) == []
    with pytest.raises(TruncationExceeded):
        algebra.monomials_of_degree(algebra.truncation + 1)


# -- ring-layer shortcuts against the plain versions they replace ----------------

def mon_mul_reference(a, b):
    """The product the dict-and-sort way, for every pair of factors."""
    exps = {}
    for i, e in itertools.chain(a, b):
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def normalize_reference(algebra, raw_terms):
    """The rewrite loop of `AlgebraSpec.normalize`, run whether or not a rule exists."""
    ring = algebra.coefficients
    out, work = {}, list(raw_terms.items())
    while work:
        mon, coeff = work.pop()
        if ring.is_zero(coeff):
            continue
        squares = [i for i, e in mon if e >= 2 and algebra.generators[i].kind == SQUARE]
        if not squares:
            add_term(ring, out, mon, coeff)
            continue
        rest = dict(mon)
        rest[min(squares)] -= 2
        image = algebra.square_images[min(squares)]
        if image is None:
            raise TruncationExceeded("square past the truncation")
        for im_mon, im_coeff in image.items():
            work.append((mon_mul_reference(mon_from_dict(rest), im_mon), ring.mul(coeff, im_coeff)))
    return out


class FractionRationals(RationalRing):
    """Q with every element a Fraction, as `RationalRing` once was."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)


def random_monomial(rng, ngens=8):
    """A sorted monomial on up to four of the first ngens generators; empty a fifth of the time."""
    chosen = sorted(rng.sample(range(ngens), rng.randint(0, 4)))
    return tuple((i, rng.randint(1, 3)) for i in chosen)


def test_mon_mul_matches_the_dict_and_sort_product():
    rng = random.Random(2201)
    for _ in range(3000):
        a, b = random_monomial(rng), random_monomial(rng)
        assert mon_mul(a, b) == mon_mul_reference(a, b), (a, b)
    assert mon_mul((), ()) == ()


@pytest.mark.parametrize("ring", [F2(), RationalRing(), IntegersMod(8), KM_FREE],
                         ids=["F2", "Q", "Z/8", "kM[tau]"])
def test_normalize_without_rewrite_rules_only_drops_zeros(ring):
    a = AlgebraSpec([GeneratorSpec(f"x{i}", i + 1) for i in range(8)], ring, 80)
    assert not a.square_images
    rng = random.Random(ring.name)
    coeffs = [ring.zero, ring.one, ring.from_int(2), ring.from_int(3)]
    if isinstance(ring, KMTau):
        coeffs += [packed(ring, [(1, 0), (0, 2)])]
    for _ in range(300):
        raw = {random_monomial(rng): rng.choice(coeffs) for _ in range(rng.randrange(6))}
        got = a.normalize(raw)
        assert got == normalize_reference(a, raw)
        assert got is not raw and all(not ring.is_zero(c) for c in got.values())


def test_normalize_still_rewrites_squares_and_raises_past_the_truncation():
    for mode, order in (("free", None), ("square_zero", 2)):
        a = steenrod_spec(order, 7)
        ngens, one = len(a.generators), a.coefficients.one
        top = ngens - 1  # tau3, whose square lies past the truncation
        assert a.generators[top].kind == SQUARE and a.square_images[top] is None
        rng = random.Random(mode)
        rewritten = 0
        for _ in range(200):
            mons = [random_monomial(rng, top) for _ in range(rng.randrange(1, 4))]
            raw = {mon: one for mon in mons if a.mon_degree(mon) <= a.truncation}
            got = a.normalize(raw)
            assert got == normalize_reference(a, raw)
            rewritten += got.keys() != raw.keys()
        assert rewritten >= 20
        with pytest.raises(TruncationExceeded):
            a.normalize({((top, 2),): one})


def test_rational_ring_keeps_integers_as_ints_and_fractions_exact():
    q, ref = RationalRing(), FractionRationals()
    assert [type(x) for x in (q.zero, q.one, q.from_int(-7))] == [int, int, int]
    rng = random.Random(2202)
    for _ in range(500):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        for op in ("add", "mul"):
            got = getattr(q, op)(a, b)
            assert type(got) is int and got == getattr(ref, op)(ref.from_int(a), ref.from_int(b))
        assert type(q.neg(a)) is int and q.is_zero(a) == ref.is_zero(Fraction(a))
        f = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        pairs = ((q.add(a, f), ref.add(Fraction(a), f)), (q.mul(f, b), ref.mul(f, Fraction(b))))
        for got, want in pairs:
            assert got == want and hash(got) == hash(want)
            assert q.describe(got) == ref.describe(want)
    assert q.mul(Fraction(3, 2), 2) == 3 and q.add(Fraction(1, 3), 2) == Fraction(7, 3)


@pytest.mark.parametrize("name", sorted(derivation_cases()))
def test_derivation_matrix_matches_apply_derivation_per_monomial(name):
    d = derivation_cases()[name]
    alg, ring = d.algebra, d.algebra.coefficients
    for n in range(max(0, -d.degree_shift), alg.truncation - max(0, d.degree_shift) + 1):
        source, target, cols = derivation_matrix(d, n)
        assert source == alg.monomials_of_degree(n)
        assert target == (alg.monomials_of_degree(n + d.degree_shift)
                          if n + d.degree_shift <= alg.truncation else [])
        for mon, col in zip(source, cols, strict=True):
            want = apply_derivation(d, GradedElement(alg, {mon: ring.one})).terms
            assert terms_equal(ring, col, want) and set(col) <= set(target), mon
            if isinstance(ring, RationalRing):
                assert all(type(c) is int for c in col.values())
    past = alg.truncation - d.degree_shift + 1
    if d.degree_shift > 0 and alg.monomials_of_degree(past):
        with pytest.raises(TruncationExceeded, match="derivation image exceeds truncation"):
            derivation_matrix(d, past)
