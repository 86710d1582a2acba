from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from etasphere import abelian, cli
from etasphere.abelian import (
    FinAbGroup,
    brute_force_ker_coker,
    counting_function,
    det_sign,
    identity_matrix,
    invert_unimodular,
    ker_coker_of_mul,
    lattice,
    mat_mul,
    smith_normal_form,
)


def mats_equal(a, b):
    return a == b


def check_snf(matrix):
    u, d, v = smith_normal_form(matrix)
    assert mats_equal(mat_mul(mat_mul(u, matrix), v), d)
    assert det_sign(u) in (1, -1)
    assert det_sign(v) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    nz = [x for x in diag if x != 0]
    assert all(x > 0 for x in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # off-diagonal must vanish
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_snf_diag_2_3():
    # hand row/column reduction: diag(2,3) ~ diag(1,6)
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_identity():
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]


def test_snf_1x1():
    assert check_snf([[8]]) == [8]


def test_snf_random_matrices():
    rng = random.Random(421)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_snf(m)


def test_snf_wide_entries():
    check_snf([[2**40, 3**25], [5**18, 7**12]])


small_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          min_size=1, max_size=4)
)


@given(small_matrices)
@example([[0, 0], [0, 0]])
@example([[6, 4], [4, 6], [2, 2]])
@example([[0, 2], [2, 3], [-3, 2]])  # U^{-1} needs a row swap above the pivot
def test_snf_invariants_hold(matrix):
    # U M V = D diagonal, d_i | d_{i+1}, U and V unimodular
    check_snf(matrix)
    u, _, v = smith_normal_form(matrix)
    for w in (u, v):
        assert mat_mul(w, invert_unimodular(w)) == identity_matrix(len(w))


def fraction_det(matrix):
    """The determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return det


def snf_diagonal_by_remainders(matrix):
    """D by the remainder-and-swap reduction that the extended-gcd steps replaced (no U, V)."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    d = [row[:] for row in matrix]
    t = 0
    while t < min(rows, cols):
        block = [(abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]]
        if not block:
            break
        _, pi, pj = min(block)
        d[t], d[pi] = d[pi], d[t]
        for row in d:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    if d[i][t]:  # remainder smaller than the pivot: swap up
                        d[t], d[i] = d[i], d[t]
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for row in d:
                        row[j] -= q * row[t]
                    if d[t][j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not (dirty or any(d[i][t] for i in range(t + 1, rows))
                    or any(d[t][j] for j in range(t + 1, cols))):
                break
        offender = next((i for i in range(t + 1, rows)
                         if any(x % d[t][t] for x in d[i][t + 1:])), None)
        if offender is not None:
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    return d


@pytest.mark.parametrize("matrix, det", [
    ([[-56, -19, 98, -65, 90], [73, 38, 67, -88, 40], [16, -14, 20, 100, 18],
      [100, 91, -46, 86, -13], [-8, -37, -84, -75, -70]], -3222197760),
    ([[1, 6, 3, 3, 7, 8], [-1, -6, 9, -8, 5, -1], [-3, -5, 5, 3, -1, 2],
      [-5, 7, -4, 4, -5, -1], [-2, -6, 8, -9, 4, -7], [-8, 5, 0, 9, 5, -7]], 132164),
], ids=["5x5", "6x6"])
def test_snf_is_fast_on_matrices_whose_transforms_once_grew_without_bound(matrix, det):
    start = time.perf_counter()
    diag = check_snf(matrix)
    assert time.perf_counter() - start < 1.0
    assert fraction_det(matrix) == det_sign(matrix) == det
    assert prod(diag) == abs(det)


def test_snf_random_matrices_up_to_6x6_with_entries_to_100():
    rng = random.Random(2203)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-100, 100) for _ in range(cols)] for _ in range(rows)]
        diag = check_snf(m)
        if rows == cols:
            assert prod(diag) == abs(fraction_det(m)) == abs(det_sign(m))
        u, _, v = smith_normal_form(m)
        assert max(abs(x) for w in (u, v) for row in w for x in row) < 2**512, m


def test_snf_diagonal_matches_the_remainder_reduction_on_small_matrices():
    rng = random.Random(2204)
    for _ in range(1500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m)[1] == snf_diagonal_by_remainders(m), m


def test_normal_form_rules():
    g = FinAbGroup.from_divisors(0, [2, 3])
    assert g.invariant_factors == (6,)
    g = FinAbGroup.from_divisors(1, [4, 6])
    assert g.free_rank == 1
    assert g.invariant_factors == (2, 12)
    assert FinAbGroup.from_divisors(0, [1, 1]).is_trivial()
    assert FinAbGroup(0, [2, 4]).describe() == "Z/2 + Z/4"


def test_ker_coker_trivial_cases():
    z = FinAbGroup(1, [])
    ker, coker = ker_coker_of_mul(z, 8)
    assert ker.is_trivial()
    assert coker == FinAbGroup(0, [8])

    z2 = FinAbGroup(0, [2])
    ker, coker = ker_coker_of_mul(z2, 0)
    assert ker == FinAbGroup(0, [2])
    assert coker == FinAbGroup(0, [2])


def test_ker_coker_mixed():
    # Z + Z/12, multiplication by 6: ker = Z/6, coker = Z/6 + Z/6
    g = FinAbGroup(1, [12])
    ker, coker = ker_coker_of_mul(g, 6)
    assert ker == FinAbGroup(0, [6])
    assert coker == FinAbGroup(0, [6, 6])


def test_ker_coker_against_enumeration_oracle():
    rng = random.Random(77)
    pools = [[2], [4], [2, 4], [3], [6], [2, 2, 2], [8, 2], [9, 3], [12], [5, 25]]
    for factors in pools:
        g = FinAbGroup.from_divisors(0, factors)
        order = g.order()
        assert order is not None and order <= 10**4
        for n in [0, 1, 2, 3, 4, 6, 8, rng.randint(0, 30)]:
            ker, coker = ker_coker_of_mul(g, n)
            ker_counts, coker_counts = brute_force_ker_coker(g, n)
            divisors = sorted(ker_counts)
            assert counting_function(ker, divisors) == ker_counts
            assert counting_function(coker, divisors) == coker_counts
        # free summands: n on Z has kernel 0 and cokernel Z/|n|, the cokernel of
        # n on Z/n^2, so Z^r + T is checked against (Z/n^2)^r + T and T
        for r in (1, 2):
            free = FinAbGroup.from_divisors(r, factors)
            assert ker_coker_of_mul(free, 0) == (free, free)
            for n in [1, 2, 3, -2, 4, rng.randint(1, 6)]:
                stand_in = FinAbGroup.from_divisors(0, factors + [n * n] * r)
                if stand_in.order() > 2000:
                    continue
                ker, coker = ker_coker_of_mul(free, n)
                ker_counts, _ = brute_force_ker_coker(g, n)
                _, coker_counts = brute_force_ker_coker(stand_in, n)
                assert counting_function(ker, sorted(ker_counts)) == ker_counts
                assert counting_function(coker, sorted(coker_counts)) == coker_counts


def test_completion_of_z12_matches_direct_limit():
    # lim_n (Z/12)/2^n stabilizes at Z/4: (Z/12)/2 = Z/2, /4 = Z/4, /8 = Z/4
    quotients = []
    g = FinAbGroup(0, [12])
    for n in (1, 2, 3):
        _, coker = ker_coker_of_mul(g, 2**n)
        quotients.append(coker)
    assert quotients[0] == FinAbGroup(0, [2])
    assert quotients[1] == FinAbGroup(0, [4])
    assert quotients[2] == FinAbGroup(0, [4])  # stabilized


def test_json_round_trip():
    g = FinAbGroup(2, [2, 6])
    assert FinAbGroup.from_json(g.to_json()) == g


# ---------------------------------------------------------------------------
# the factored lattice, against brute force on dims <= 3 with small entries
# ---------------------------------------------------------------------------

def _combine(generators, coeffs, dim):
    return [sum(c * g[i] for c, g in zip(coeffs, generators)) for i in range(dim)]


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _rank_and_minor_gcd(dim, generators):
    """Rank r of the generator matrix and the gcd of its r x r minors."""
    for r in range(min(dim, len(generators)), 0, -1):
        g = 0
        for rows in itertools.combinations(range(dim), r):
            for cols in itertools.combinations(generators, r):
                g = gcd(g, _det([[col[i] for col in cols] for i in rows]))
        if g:
            return r, g
    return 0, 1


def _brute_force_contains(dim, generators, vec):
    # L <= L + Z vec have the same rank and the index is the ratio of the
    # minor gcds, so vec is in L iff both agree
    return _rank_and_minor_gcd(dim, generators) == _rank_and_minor_gcd(
        dim, list(generators) + [vec])


lattice_cases = st.integers(0, 3).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim), max_size=3),
        st.lists(st.integers(-6, 6), min_size=dim, max_size=dim),
    )
)


@given(lattice_cases)
@example((2, [[2, 0], [0, 0], [4, 6]], [6, 6]))
@example((2, [[2, 4], [3, 6]], [1, 2]))  # gcd 1 along one line
@example((3, [[1, 1, 0], [0, 2, 2]], [1, 3, 2]))
def test_lattice_solve_and_membership_match_brute_force(case):
    dim, generators, target = case
    lat = lattice(dim, generators)
    box = list(itertools.product(range(-2, 3), repeat=len(generators)))
    # every combination in the coefficient box lies in the lattice
    for coeffs in box:
        vec = _combine(generators, coeffs, dim)
        assert vec in lat
        sol = lat.solve(vec)
        assert len(sol) == len(generators)
        assert _combine(generators, sol, dim) == vec
    # an arbitrary target: membership, solve and the brute-force index agree
    sol = lat.solve(target)
    assert (target in lat) == (sol is not None) == _brute_force_contains(dim, generators, target)
    if sol is not None:
        assert len(sol) == len(generators)
        assert _combine(generators, sol, dim) == target
    if any(_combine(generators, c, dim) == target for c in box):
        assert target in lat


@given(lattice_cases)
@example((3, [[0, 2, -3], [2, 3, 2]], [0, 0, 0]))
def test_lattice_basis_spans_and_equality_is_mutual_containment(case):
    dim, generators, target = case
    lat = lattice(dim, generators)
    basis = lat.basis()
    assert len(basis) == _rank_and_minor_gcd(dim, generators)[0]
    assert lattice(dim, basis) == lat
    bigger = lattice(dim, generators + [target])
    assert lat <= bigger
    assert (bigger == lat) == (target in lat)


def test_lattice_solve_keeps_zero_generators():
    lat = lattice(2, [[0, 0], [1, 2], [0, 0]])
    sol = lat.solve([3, 6])
    assert len(sol) == 3
    assert _combine([[0, 0], [1, 2], [0, 0]], sol, 2) == [3, 6]
    assert lat.solve([1, 1]) is None


def test_empty_lattice_contains_only_zero():
    for dim in range(4):
        lat = lattice(dim, [])
        assert lat.basis() == []
        assert lat.solve([0] * dim) == []
        assert lat == lattice(dim, [[0] * dim])
        for vec in itertools.product(range(-1, 2), repeat=dim):
            assert (list(vec) in lat) == (not any(vec))


def test_mutating_results_does_not_reach_the_cache():
    gens = [[2, 0], [0, 3]]
    basis = lattice(2, gens).basis()
    want = [list(b) for b in basis]
    basis[0][0] = 99
    basis.append([1, 1])
    sol = lattice(2, gens).solve([4, 9])
    sol[0] = 99
    assert lattice(2, gens).basis() == want
    assert lattice(2, gens).solve([4, 9]) == [2, 3]
    assert [1, 1] not in lattice(2, gens)


def test_kwhw_factors_each_lattice_once(monkeypatch, capsys):
    built = []  # (dim, generators) of each Lattice constructed
    inside = []  # SNF calls made by each of those constructors
    active = []
    snf, init = abelian.smith_normal_form, abelian.Lattice.__init__

    def recording_init(self, dim, generators):
        built.append((dim, generators))
        inside.append(0)
        active.append(True)
        try:
            init(self, dim, generators)
        finally:
            active.pop()

    def counting_snf(matrix):
        if active:
            inside[-1] += 1
        return snf(matrix)

    monkeypatch.setattr(abelian.Lattice, "__init__", recording_init)
    monkeypatch.setattr(abelian, "smith_normal_form", counting_snf)
    abelian._factored_lattice.cache_clear()
    try:
        assert cli.run(["kwhw", "--field", "F3", "--imax", "3"]) == 0
    finally:
        abelian._factored_lattice.cache_clear()
    capsys.readouterr()
    assert built
    assert inside == [1] * len(built)
    assert len(set(built)) == len(built)


def test_kernel_of_a_map_into_the_zero_group_is_everything():
    # a matrix with no rows: every source vector maps to 0
    assert abelian.preimage(0, [[]], []) == [[1]]
    assert lattice(0, [[], []]).kernel() == [[1, 0], [0, 1]]


kernel_cases = st.integers(0, 3).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim), max_size=3),
    )
)


@given(kernel_cases)
@example((2, [[2, 4], [1, 2], [0, 0]]))
@example((0, [[], []]))
def test_lattice_kernel_is_the_relations_among_the_generators(case):
    dim, generators = case
    kernel = lattice(dim, generators).kernel()
    # every kernel vector is a relation, and there are cols - rank of them
    for c in kernel:
        assert len(c) == len(generators)
        assert _combine(generators, c, dim) == [0] * dim
    assert len(kernel) == len(generators) - _rank_and_minor_gcd(dim, generators)[0]
    # and they generate every relation with small coefficients
    relations = lattice(len(generators), kernel)
    for coeffs in itertools.product(range(-2, 3), repeat=len(generators)):
        if _combine(generators, coeffs, dim) == [0] * dim:
            assert list(coeffs) in relations
