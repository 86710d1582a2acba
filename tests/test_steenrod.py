from __future__ import annotations

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from etasphere import cli, steenrod
from etasphere.graded import (
    BoundsExceeded,
    GradedElement,
    KMTau,
    TruncationExceeded,
    add_term,
    add_terms,
    by_coefficient,
    check_confluence_random,
    terms_equal,
)
from etasphere.steenrod import (
    HomologyModel,
    SteenrodAlgebra,
    SteenrodElement,
    UNIT_ID,
    UNIT_MON,
    UnknownOperator,
    _gen_coproduct,
    antipode,
    bockstein_pages,
    check_antipode_axiom,
    check_coassociativity_counit,
    combine_slots,
    conjugate_basis_triangularity,
    conjugate_weight,
    coproduct,
    coproduct_left,
    coproduct_right,
    dual_action,
    hopf_weight,
    kgl_homology_model,
    ko_homology_model,
    mon_bidegree,
    sphere_model,
    tau_monomial_homology_dims,
    tensor_mul,
)


def key_words(alg, t):
    """A tensor over alg with its words of monomial ids spelled as monomial keys."""
    return {tuple(alg.mono_keys[i] for i in word): c for word, c in t.items()}


def id_words(alg, t):
    """A tensor with its words of monomial keys spelled as monomial ids of alg."""
    return {tuple(alg.mono_id(key) for key in word): c for word, c in t.items()}


def mon_key(eps=(), E=()):
    """The key of tau^eps xi^E (eps indexed from tau_0, E from xi_1)."""
    return tuple(sorted(
        [(2 * i, e) for i, e in enumerate(eps) if e]
        + [(2 * j + 1, e) for j, e in enumerate(E) if e]
    ))


def test_bidegrees():
    # |tau_i| = (2^{i+1}-1, 2^i-1), |xi_i| = (2^{i+1}-2, 2^i-1)
    assert mon_bidegree(mon_key((1,), ())) == (1, 0)       # tau_0
    assert mon_bidegree(mon_key((0, 1), ())) == (3, 1)     # tau_1
    assert mon_bidegree(mon_key((0, 0, 1), ())) == (7, 3)  # tau_2
    assert mon_bidegree(mon_key((), (1,))) == (2, 1)       # xi_1
    assert mon_bidegree(mon_key((), (0, 1))) == (6, 3)     # xi_2
    assert mon_bidegree(mon_key((1,), (1,))) == (3, 1)     # tau_0 xi_1


def test_tau0_squared_real_closed():
    alg = SteenrodAlgebra("real_closed", weight=16)
    km = alg.coefficients
    prod = alg.tau(0) * alg.tau(0)
    expected = {
        mon_key((), (1,)): km.monomial(0, 1),       # tau . xi_1
        mon_key((1,), (1,)): km.monomial(1, 0),     # rho tau_0 xi_1
        mon_key((0, 1), ()): km.monomial(1, 0),     # rho tau_1
    }
    assert prod.terms == expected


def test_tau1_squared_quadratically_closed():
    alg = SteenrodAlgebra("quadratically_closed", weight=16)
    prod = alg.tau(1) * alg.tau(1)
    assert prod.terms == {mon_key((), (0, 1)): alg.coefficients.monomial(0, 1)}  # tau xi_2


def test_no_rewrite_product():
    alg = SteenrodAlgebra("real_closed", weight=16)
    prod = alg.xi(1) * alg.xi(2)
    assert prod.terms == {mon_key((), (1, 1)): alg.coefficients.one}


def test_truncation_error():
    alg = SteenrodAlgebra("real_closed", weight=7)
    with pytest.raises(TruncationExceeded):
        alg.tau(3) * alg.tau(3)  # needs tau_4 / xi_4
    # xi_1^8 is inside the spec's degree bound, so the weight check refuses it
    xi1_4 = alg.xi(1) * alg.xi(1) * alg.xi(1) * alg.xi(1)
    with pytest.raises(TruncationExceeded, match="monomial of weight 8 exceeds 7$"):
        xi1_4 * xi1_4
    one = alg.coefficients.one
    with pytest.raises(TruncationExceeded, match="monomial of weight 8 exceeds 7$"):
        SteenrodElement(alg, {mon_key((), (8,)): one}).scale(one)


def test_weight_zero_holds_only_tau0():
    alg = SteenrodAlgebra("real_closed", weight=0)
    assert (alg.max_tau, alg.max_xi) == (0, 0)
    assert alg.basis_monomials() == [(), ((0, 1),)]
    with pytest.raises(TruncationExceeded):
        alg.xi(1)
    with pytest.raises(ValueError, match="negative"):
        SteenrodAlgebra("real_closed", weight=-2)
    for weight in (1, 2, 3, 6, 7, 8, 31):
        alg = SteenrodAlgebra("real_closed", weight)
        assert alg.max_tau == alg.max_xi == max(i for i in range(64) if 2**i - 1 <= weight)


def test_coproduct_small():
    alg = SteenrodAlgebra("real_closed", weight=12)
    km = alg.coefficients
    d = coproduct(alg.tau(0))
    assert d == {
        (mon_key((1,), ()), UNIT_MON): km.one,
        (UNIT_MON, mon_key((1,), ())): km.one,
    }
    d1 = coproduct(alg.one())
    assert d1 == {(UNIT_MON, UNIT_MON): km.one}
    dx = coproduct(alg.xi(1))
    assert dx == {
        (mon_key((), (1,)), UNIT_MON): km.one,
        (UNIT_MON, mon_key((), (1,))): km.one,
    }


def test_coproduct_xi2():
    alg = SteenrodAlgebra("real_closed", weight=12)
    km = alg.coefficients
    dx = coproduct(alg.xi(2))
    assert dx == {
        (mon_key((), (0, 1)), UNIT_MON): km.one,
        (mon_key((), (2,)), mon_key((), (1,))): km.one,  # xi_1^2 (x) xi_1
        (UNIT_MON, mon_key((), (0, 1))): km.one,
    }


FULL_TABLE_BASES = ["real_closed", "quadratically_closed", "finite_field_3mod4"]


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_sums_negatives_and_multiples_are_steenrod_elements(base):
    # +, -, unary - and scale are GradedElement's and keep the class; over
    # k^M[tau]/2 a negative is the element itself
    alg = SteenrodAlgebra(base, weight=8)
    km = alg.coefficients
    one, rho, tau = km.one, km.monomial(1, 0), km.monomial(0, 1)
    t0, x1 = mon_key((1,)), mon_key((), (1,))
    x = alg.tau(0) + alg.xi(1).scale(tau)
    y = alg.one() + alg.xi(1)
    c = km.add(rho, tau)
    x_plus_y = {t0: one, x1: km.add(tau, one), UNIT_MON: one}
    cases = [
        (x + y, x_plus_y),
        (x - y, x_plus_y),
        (-x, {t0: one, x1: tau}),
        (x.scale(c), {t0: c, x1: km.mul(c, tau)}),
    ]
    for got, terms in cases:
        assert type(got) is SteenrodElement and isinstance(got, GradedElement)
        assert got == SteenrodElement(alg, terms) and got.terms == terms
    assert x - x == alg.zero() and (x - x).is_zero()


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_generators_have_their_stem_as_degree(base):
    # GradedElement.degree_set reads the algebra's term_degree: the stem,
    # with rho in stem 0 and the coefficient tau in stem 1
    alg = SteenrodAlgebra(base, weight=8)
    gens = [alg.tau(0), alg.xi(1), alg.tau(1), alg.xi(2)]
    assert [g.max_degree() for g in gens] == [1, 1, 2, 3]
    assert alg.one().max_degree() == 0 and alg.one().degree_set() == {0}
    assert alg.zero().degree_set() == set()


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_products_of_basis_monomials_are_homogeneous(base):
    # e.g. tau0^2 = rho tau0 xi1 + tau xi1 + rho tau1 over R: every term in stem 2
    alg = SteenrodAlgebra(base, weight=16)
    one = alg.coefficients.one
    mons = [SteenrodElement(alg, {key: one}) for key in alg.basis_monomials(4)]
    assert len(mons) == 30
    for a, b in itertools.product(mons, repeat=2):
        assert (a * b).degree_set() in (set(), {a.max_degree() + b.max_degree()})


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_action_table(base):
    """All twelve displayed action formulas, from coproduct contraction."""
    alg = SteenrodAlgebra(base, weight=16)
    taus = range(0, alg.max_tau + 1)
    xis = range(1, alg.max_xi + 1)
    # tau_0 dual, left
    assert dual_action("tau0_hat", "L", alg.tau(0)) == alg.one()
    for i in taus:
        if i > 0:
            assert dual_action("tau0_hat", "L", alg.tau(i)).is_zero()
    for i in xis:
        assert dual_action("tau0_hat", "L", alg.xi(i)).is_zero()
    # tau_1 dual, left
    assert dual_action("tau1_hat", "L", alg.tau(1)) == alg.one()
    for i in taus:
        if i != 1:
            assert dual_action("tau1_hat", "L", alg.tau(i)).is_zero()
    for i in xis:
        assert dual_action("tau1_hat", "L", alg.xi(i)).is_zero()
    # xi_1 dual, left
    assert dual_action("xi1_hat", "L", alg.tau(1)) == alg.tau(0)
    for i in taus:
        if i != 1:
            assert dual_action("xi1_hat", "L", alg.tau(i)).is_zero()
    assert dual_action("xi1_hat", "L", alg.xi(1)) == alg.one()
    for i in xis:
        if i != 1:
            assert dual_action("xi1_hat", "L", alg.xi(i)).is_zero()
    # right-side formulas
    for i in taus:
        assert dual_action("tau0_hat", "R", alg.tau(i)) == alg.xi(i)
    for i in xis:
        assert dual_action("tau0_hat", "R", alg.xi(i)).is_zero()
    for i in taus:
        assert dual_action("xi1_hat", "R", alg.tau(i)).is_zero()
    for i in xis:
        expected = alg.xi(i - 1) * alg.xi(i - 1) if i > 1 else alg.one()
        assert dual_action("xi1_hat", "R", alg.xi(i)) == expected


def test_xi1_left_on_xi1_squared_leibniz():
    # Leibniz gives 2 xi_1 . 1 = 0 over F2
    alg = SteenrodAlgebra("real_closed", weight=12)
    sq = alg.xi(1) * alg.xi(1)
    assert dual_action("xi1_hat", "L", sq).is_zero()


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_derivation_properties_on_generator_pairs(base):
    alg = SteenrodAlgebra(base, weight=12)
    gens = [alg.tau(i) for i in range(0, alg.max_tau + 1)] + [
        alg.xi(j) for j in range(1, alg.max_xi + 1)
    ]
    gens = [g for g in gens if max(
        mon_bidegree(k)[1] for k in g.terms) <= 5]

    def leibniz(op, a, b):
        lhs = dual_action(op, "L", a * b)
        rhs = dual_action(op, "L", a) * b + a * dual_action(op, "L", b)
        return lhs == rhs

    for a in gens:
        for b in gens:
            assert leibniz("tau0_hat", a, b)

    # xi1_hat is a derivation away from tau_0, tau_1
    sub = [alg.tau(i) for i in range(2, alg.max_tau + 1)] + [
        alg.xi(j) for j in range(1, alg.max_xi + 1)
    ]
    sub = [g for g in sub if max(mon_bidegree(k)[1] for k in g.terms) <= 5]
    for a in sub:
        for b in sub:
            assert leibniz("xi1_hat", a, b)
    # tau1_hat is a derivation away from tau_0
    sub1 = [alg.tau(i) for i in range(1, alg.max_tau + 1)] + [
        alg.xi(j) for j in range(1, alg.max_xi + 1)
    ]
    sub1 = [g for g in sub1 if max(mon_bidegree(k)[1] for k in g.terms) <= 5]
    for a in sub1:
        for b in sub1:
            assert leibniz("tau1_hat", a, b)


def test_unknown_operator():
    alg = SteenrodAlgebra("real_closed", weight=8)
    with pytest.raises(UnknownOperator):
        dual_action("sq2_hat", "L", alg.one())
    with pytest.raises(UnknownOperator):
        dual_action("tau0_hat", "M", alg.one())
    with pytest.raises(UnknownOperator, match="unknown motivic base"):
        SteenrodAlgebra("p_adic", weight=8)
    with pytest.raises(UnknownOperator, match="unknown motivic base"):
        ko_homology_model("p_adic")


def test_each_base_is_the_nilpotence_order_of_rho():
    orders = {"real_closed": None, "quadratically_closed": 1, "finite_field_3mod4": 2}
    assert steenrod.MOTIVIC_BASES == orders
    for base, order in orders.items():
        km = SteenrodAlgebra(base, weight=4).coefficients
        assert km.rho_order == order == ko_homology_model(base).algebra.coefficients.rho_order
        assert [km.admissible(a) for a in range(4)] == [order is None or a < order for a in range(4)]


def test_coassociativity_and_counit_weight8():
    for base in FULL_TABLE_BASES:
        alg = SteenrodAlgebra(base, weight=16)
        assert check_coassociativity_counit(alg, 8) > 0


# basis monomials of weight <= w, for w = 0, 1, ..., 8
HOPF_COUNTS = (2, 6, 10, 18, 30, 42, 58, 82, 110)


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_hopf_checks_run_in_the_algebra_their_weight_rule_gives(base, capsys, monkeypatch):
    for w, count in enumerate(HOPF_COUNTS):
        alg = SteenrodAlgebra(base, hopf_weight(w))
        assert check_coassociativity_counit(alg, w) == check_antipode_axiom(alg, w) == count
        assert cli.run(["--format", "json", "steenrod", "--base", base, "--weight", str(w)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificates"] == {"action_table": {"pass": True},
                                          "coassociativity_counit": {"pass": True}}
        assert report["results"]["monomials_checked"] == count

    # one weight less is refused before any coproduct is computed
    def no_coproduct(alg, key):
        raise AssertionError("a coproduct was computed")

    monkeypatch.setattr(steenrod, "_mono_coproduct", no_coproduct)
    for w in range(len(HOPF_COUNTS)):
        small = SteenrodAlgebra(base, hopf_weight(w) - 1)
        for check in (check_coassociativity_counit, check_antipode_axiom):
            with pytest.raises(TruncationExceeded, match=f"algebra of weight {hopf_weight(w)},"):
                check(small, w)


def test_hopf_weight_is_the_stem_bound():
    assert [hopf_weight(w) for w in (0, 4, 6, 7, 9, 12, 15)] == [1, 7, 9, 11, 13, 16, 20]
    assert all(hopf_weight(w) == steenrod.steenrod_spec(None, w).truncation for w in range(20))


def test_merged_check_names_the_axiom_that_fails(monkeypatch):
    alg = SteenrodAlgebra("real_closed", hopf_weight(3))
    # a dropped right side leaves the left side in the dict
    monkeypatch.setattr(steenrod, "coproduct_right", lambda alg, t, out=None: out)
    with pytest.raises(BoundsExceeded, match="coassociativity fails on 1$"):
        check_coassociativity_counit(alg, 3)
    monkeypatch.undo()
    # m (x) m is coassociative, but its counit is not m
    monkeypatch.setattr(steenrod, "_mono_coproduct",
                        lambda alg, mid: {(mid, mid): alg.coefficients.one})
    with pytest.raises(BoundsExceeded, match="counit axiom fails on tau0$"):
        check_coassociativity_counit(alg, 3)
    monkeypatch.undo()
    # one coefficient of the memoized Delta(tau_1) flipped: tau_1 (x) 1 gets rho tau_1 (x) 1 added
    alg = SteenrodAlgebra("real_closed", hopf_weight(3))
    km = alg.coefficients
    tau1 = alg.mono_id(alg.tau(1).terms.popitem()[0])
    memo = steenrod._mono_coproduct(alg, tau1)
    memo[(tau1, UNIT_ID)] = km.add(memo[(tau1, UNIT_ID)], km.monomial(1, 0))
    with pytest.raises(BoundsExceeded, match="coassociativity fails on tau0\\*tau1\\*xi1$"):
        check_coassociativity_counit(alg, 3)
    # the key-word oracle on the same memo fails first on the same monomial
    failing = [key for key in alg.basis_monomials(3) if not _oracle_holds(alg, key)]
    assert steenrod.describe_mon(failing[0]) == "tau0*tau1*xi1"
    assert tau1 in map(alg.mono_id, failing)


# -- the merged check against a key-word oracle -----------------------------------

def _delta(alg, key):
    """Delta of a monomial key, in key words, as the library translates it."""
    return coproduct(SteenrodElement(alg, {key: alg.coefficients.one}))


def _oracle_left(alg, t):
    """(Delta (x) id) on a key-word 2-tensor, one add_term per term."""
    km = alg.coefficients
    out = {}
    for (m1, m2), c in t.items():
        for (a, b), cc in _delta(alg, m1).items():
            add_term(km, out, (a, b, m2), km.mul(c, cc))
    return out


def _oracle_right(alg, t):
    """(id (x) Delta) on a key-word 2-tensor; cc crosses m1 as the product m1 eta_R(cc)."""
    km = alg.coefficients
    out = {}
    for (m1, m2), c in t.items():
        for (a, b), cc in _delta(alg, m2).items():
            crossed = SteenrodElement(alg, {m1: km.one}) * alg.eta_r_of_coeff(cc)
            for k1, c1 in crossed.terms.items():
                add_term(km, out, (k1, a, b), km.mul(c, c1))
    return out


def _oracle_holds(alg, key):
    """Coassociativity and the counit on one monomial key, in key words."""
    km = alg.coefficients
    d = _delta(alg, key)
    x = {key: km.one}
    return (terms_equal(km, _oracle_left(alg, d), _oracle_right(alg, d))
            and terms_equal(km, {m2: c for (m1, m2), c in d.items() if m1 == UNIT_MON}, x)
            and terms_equal(km, {m1: c for (m1, m2), c in d.items() if m2 == UNIT_MON}, x))


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_the_merged_check_agrees_with_a_key_word_oracle(base):
    alg = SteenrodAlgebra(base, hopf_weight(9))
    basis = alg.basis_monomials(9)
    assert check_coassociativity_counit(alg, 9) == len(basis) == 142
    for key in basis:
        assert _oracle_holds(alg, key), key
        d = _delta(alg, key)
        ids = id_words(alg, d)
        assert ids == steenrod._mono_coproduct(alg, alg.mono_id(key))
        assert key_words(alg, coproduct_left(alg, ids)) == _oracle_left(alg, d), key
        assert key_words(alg, coproduct_right(alg, ids)) == _oracle_right(alg, d), key


def test_a_product_the_base_masks_to_zero_is_dropped():
    # over F_q, rho^2 = 0: scale rho times a coefficient rho is zero, and so is its term
    alg = SteenrodAlgebra("finite_field_3mod4", 16)
    km = alg.coefficients
    rho = km.monomial(1, 0)
    assert km.mul(rho, rho) == 0
    (tau0,), (xi1,) = (map(alg.mono_id, el.terms) for el in (alg.tau(0), alg.xi(1)))
    out = {(xi1, tau0): km.one}
    add_terms(km, out, {(tau0,): rho, (xi1,): rho}, rho, suffix=(tau0,))
    assert out == {(xi1, tau0): km.one}
    out = {}
    tau = km.monomial(0, 1)
    y = {km.one: {(xi1,): km.one}, tau: {(tau0,): km.one}}
    steenrod.combine_slots(alg, out, rho, {(tau0,): rho}, y)
    steenrod.combine_slots(alg, out, km.one, {(tau0,): rho}, {rho: {(xi1,): km.one}})
    assert out == {}


def test_action_table_reports_its_own_count():
    # five dual actions per generator: tau_0, tau_1, xi_1 at weight 0 (algebra 1),
    # tau_0..tau_4 and xi_1..xi_4 at weight 12 (algebra 16)
    for base in FULL_TABLE_BASES:
        assert cli.action_table(base, 0) == (True, 15, None)
        assert cli.action_table(base, 12) == (True, 45, None)


def test_antipode():
    alg = SteenrodAlgebra("real_closed", weight=16)
    km = alg.coefficients
    # paper gives only conj(tau_0) = tau_0; the recursion must reproduce it
    assert antipode(alg.tau(0)) == alg.tau(0)
    chi_tau1 = antipode(alg.tau(1))
    assert chi_tau1 == alg.tau(1) + alg.xi(1) * alg.tau(0)
    chi_xi2 = antipode(alg.xi(2))
    xi1 = alg.xi(1)
    assert chi_xi2 == alg.xi(2) + xi1 * xi1 * xi1
    assert check_antipode_axiom(alg, 7) > 0


def test_conjugate_basis_triangularity_rejects_the_reversed_order(monkeypatch):
    # the check has teeth: the order read from the bottom of the chain fails
    order = steenrod._monomial_order_vector
    monkeypatch.setattr(steenrod, "_monomial_order_vector",
                        lambda alg, p, key: tuple(-x for x in order(alg, p, key)))
    with pytest.raises(BoundsExceeded, match="triangularity violated"):
        conjugate_basis_triangularity(SteenrodAlgebra("real_closed", 16), 0, 1)


def test_conjugate_basis_triangularity_weight8():
    alg = SteenrodAlgebra("real_closed", weight=16)
    checked = conjugate_basis_triangularity(alg, max_weight=8, max_tau_power=2)
    assert checked > 0


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_certificate_counts_are_pinned(base):
    # a grouping that skipped rows would lower these counts; the triangularity
    # counts hold in a weight-16 algebra and in the one its weight rule gives
    for w, want in ((5, 126), (8, 330)):
        for weight in (16, conjugate_weight(w, 2)):
            assert conjugate_basis_triangularity(SteenrodAlgebra(base, weight), w, 2) == want
    assert check_antipode_axiom(SteenrodAlgebra(base, 16), 7) == 82


def test_triangularity_refuses_an_algebra_below_the_conjugate_weight():
    assert [conjugate_weight(w, p) for w, p in ((0, 0), (5, 2), (8, 2))] == [1, 10, 14]
    for w, p in ((0, 0), (0, 2), (5, 2), (8, 1)):
        small = SteenrodAlgebra("real_closed", conjugate_weight(w, p) - 1)
        with pytest.raises(TruncationExceeded, match=f"algebra of weight {conjugate_weight(w, p)},"):
            conjugate_basis_triangularity(small, w, p)


def test_conjugate_basis_triangularity_rejects_dependent_columns(monkeypatch):
    # with chi = 1, pool monomials of equal bidegree give equal columns
    # (tau1 and tau0 xi1 both reach eta_R(tau)^2 through rho^3), so the
    # expansion would not be unique
    monkeypatch.setattr(steenrod, "_mono_antipode", lambda alg, key: alg.one())
    with pytest.raises(BoundsExceeded, match=r"dependent at bidegree \(0, -2\)"):
        conjugate_basis_triangularity(SteenrodAlgebra("real_closed", 16), 0, 2)


def test_antipode_axiom_fails_on_a_wrong_conjugate(monkeypatch):
    # chi(tau_1) = tau_1 + xi_1 tau_0 loses its second term
    alg = SteenrodAlgebra("real_closed", 16)
    (tau1,) = alg.tau(1).terms
    (xi1_tau0,) = (alg.xi(1) * alg.tau(0)).terms
    assert xi1_tau0 in steenrod._mono_antipode(SteenrodAlgebra("real_closed", 16), tau1).terms
    chi = steenrod._mono_antipode

    def broken(alg, key):
        out = chi(alg, key)
        if key != tau1:
            return out
        return SteenrodElement(alg, {k: c for k, c in out.terms.items() if k != xi1_tau0})

    monkeypatch.setattr(steenrod, "_mono_antipode", broken)
    with pytest.raises(BoundsExceeded, match="antipode axiom fails"):
        check_antipode_axiom(alg, 7)


def test_ko_model_delta():
    model = ko_homology_model("real_closed", truncation=16)
    a = model.algebra
    km = a.coefficients
    delta = model.delta
    from etasphere.graded import apply_derivation
    assert apply_derivation(delta, a.gen("xi2")) == a.gen("xi1sq")
    assert apply_derivation(delta, a.gen("tau2")).is_zero()
    assert apply_derivation(delta, a.gen("xi1sq")).is_zero()
    # tau_i^2 = rho tau_{i+1} in the model
    t2 = a.gen("tau2")
    sq = t2 * t2
    assert sq == a.gen("tau3").scale(km.monomial(1, 0))
    model.check_delta_squared(12)


def test_ko_model_homology_matches_tau_monomials():
    for base in ("real_closed", "quadratically_closed"):
        model = ko_homology_model(base, truncation=18)
        expected = tau_monomial_homology_dims(model, smax=16, wmin=-16, wmax=6)
        for s in range(0, 17):
            for w in range(-16, 7):
                dim = len(model.cell_homology(s, w)[1])
                assert dim == expected.get((s, w), 0), (base, s, w)


def test_kgl_model_homology_vanishes():
    model = kgl_homology_model("real_closed", truncation=12)
    model.check_delta_squared(10)
    for s in range(0, 10):
        for w in range(-10, 5):
            assert len(model.cell_homology(s, w)[1]) == 0, (s, w)


def test_sphere_pages_collapse():
    model = sphere_model("real_closed", truncation=8)
    e1, e2, report = bockstein_pages(model, smax=6, fmax=4)
    assert report["collapses"]
    # gr = k^M[h]: all classes in stem 0
    for (s, f, w), labels in e1.entries.items():
        assert s == 0
    # E1 = E2 on the f = 0 и f > 0 cells: same dimensions
    for (s, f, w), labels in e2.entries.items():
        assert s == 0
        assert len(labels) == len(e1.entries.get((s, f, w), ()))


def test_bockstein_pages_ko_real_closed():
    model = ko_homology_model("real_closed", truncation=18)
    e1, e2, report = bockstein_pages(model, smax=16, fmax=3, wmin=-18, wmax=2)
    assert report["f_positive_stems_mod_4"]
    assert report["collapses"]
    # f > 0 entries at s = 4 and s = 8 populated by tau_2-monomials
    tau2_cells = [
        (s, f, w) for (s, f, w), labels in e2.entries.items()
        if f > 0 and s == 4 and any("tau2" in lbl for lbl in labels)
    ]
    assert tau2_cells
    s8 = [
        (s, f, w) for (s, f, w), labels in e2.entries.items() if f > 0 and s == 8
    ]
    assert s8
    # E2 f=0 row equals the cycle space dimension
    for (s, f, w), labels in e2.entries.items():
        if f == 0:
            _, cycles = model.cell_cycles(s, w)
            from etasphere import gf2
            assert len(labels) == len(gf2.row_reduce(cycles))


def test_ko_and_kgl_models_differ_exactly_by_xi1_generator():
    ko = ko_homology_model("real_closed", truncation=12)
    kgl = kgl_homology_model("real_closed", truncation=12)
    ko_names = {g.name for g in ko.algebra.generators}
    kgl_names = {g.name for g in kgl.algebra.generators}
    assert ko_names - kgl_names == {"xi1sq"}
    assert kgl_names - ko_names == {"xi1"}


def brute_force_monomials(algebra, n):
    """Every exponent vector of degree n that normalization leaves fixed."""
    one = algebra.coefficients.one
    ranges = [range(n // g.degree + 1) for g in algebra.generators]
    out = []
    for exps in itertools.product(*ranges):
        if sum(e * g.degree for e, g in zip(exps, algebra.generators)) != n:
            continue
        mon = tuple((i, e) for i, e in enumerate(exps) if e)
        if algebra.normalize({mon: one}) == {mon: one}:
            out.append(mon)
    return out


@pytest.mark.parametrize("make_model", [ko_homology_model, kgl_homology_model])
@pytest.mark.parametrize("base", ["real_closed", "quadratically_closed"])
def test_model_monomials_match_brute_force(make_model, base):
    algebra = make_model(base, truncation=18).algebra
    for n in range(0, algebra.truncation + 1):
        got = algebra.monomials_of_degree(n)
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(brute_force_monomials(algebra, n)), n


@pytest.mark.parametrize("make_model", [ko_homology_model, kgl_homology_model])
def test_model_generators_follow_the_truncation(make_model):
    # xi1^2 (ko) or xi1 (kgl), then xi_j of stem 2^j - 1 while that is <= T,
    # then tau_i of stem 2^i while that is <= T; the weight is 1 - 2^k for
    # xi_k and tau_k, and -2 for xi1^2
    first = ("xi1sq", 2, -2) if make_model is ko_homology_model else ("xi1", 1, -1)
    for truncation in range(41):
        want = [first]
        j = 2
        while 2**j - 1 <= truncation:
            want.append((f"xi{j}", 2**j - 1, 1 - 2**j))
            j += 1
        i = 2
        while 2**i <= truncation:
            want.append((f"tau{i}", 2**i, 1 - 2**i))
            i += 1
        model = make_model("real_closed", truncation)
        got = [(g.name, g.degree, w)
               for g, w in zip(model.algebra.generators, model.gen_weights, strict=True)]
        assert got == want, truncation


def test_pages_solve_each_cell_once(monkeypatch):
    # one nullspace per distinct (s, w) cell, and none when the pages are asked again
    seen = set()
    cycles_of = steenrod.HomologyModel.cell_cycles
    nullspace = steenrod.gf2.nullspace
    calls = []

    def spy_cycles(model, s, w):
        seen.add((s, w))
        return cycles_of(model, s, w)

    def spy_nullspace(*args):
        calls.append(args)
        return nullspace(*args)

    monkeypatch.setattr(steenrod.HomologyModel, "cell_cycles", spy_cycles)
    monkeypatch.setattr(steenrod.gf2, "nullspace", spy_nullspace)
    model = ko_homology_model("real_closed", truncation=14)
    first = bockstein_pages(model, smax=12, fmax=4)
    assert 0 < len(calls) <= len(seen)
    made = len(calls)
    assert bockstein_pages(model, smax=12, fmax=4) == first
    assert len(calls) == made
    for s, w in seen:
        source, cycles = model.cell_cycles(s, w)
        assert isinstance(source, tuple) and isinstance(cycles, tuple)
        assert isinstance(model.cell_homology(s, w)[1], tuple)
        assert model.cell_cycles(s, w) is model.cell_cycles(s, w)
    assert len(calls) == made


def test_pages_weigh_each_monomial_once(monkeypatch):
    weigh = HomologyModel.monomial_weight
    weighed = Counter()

    def spy(model, mon):
        weighed[mon] += 1
        return weigh(model, mon)

    monkeypatch.setattr(HomologyModel, "monomial_weight", spy)
    model = ko_homology_model("real_closed", truncation=14)
    bockstein_pages(model, smax=12, fmax=4)
    # stems 0..13: the pages read each stem's cells and the boundaries from stem 13
    stems = [mon for s in range(14) for mon in model.algebra.monomials_of_degree(s)]
    assert weighed == Counter(stems)


def test_each_algebra_enumerates_its_basis_once(monkeypatch):
    enumerate_monomials = steenrod.AlgebraSpec._enumerate_monomials
    calls = Counter()

    def spy(algebra, *args):
        calls[id(algebra)] += 1
        return enumerate_monomials(algebra, *args)

    monkeypatch.setattr(steenrod.AlgebraSpec, "_enumerate_monomials", spy)
    model = ko_homology_model("real_closed", truncation=14)
    bockstein_pages(model, smax=12, fmax=4)
    assert calls == {id(model.algebra): 1}
    calls.clear()
    steenrod.steenrod_spec.cache_clear()  # a spec enumerated by another test counts nothing
    alg = SteenrodAlgebra("real_closed", conjugate_weight(4, 2))
    check_coassociativity_counit(alg, 4)
    check_antipode_axiom(alg, 4)
    conjugate_basis_triangularity(alg, 4, 2)
    assert calls == {id(alg.spec): 1}


@pytest.mark.parametrize("make_model", [ko_homology_model, kgl_homology_model, sphere_model])
@pytest.mark.parametrize("base", sorted(steenrod.MOTIVIC_BASES))
def test_pages_do_not_depend_on_the_model_truncation(make_model, base):
    pages = [bockstein_pages(make_model(base, truncation=9 + extra), smax=9, fmax=3)
             for extra in (2, 5, 10)]
    assert pages[1] == pages[0] and pages[2] == pages[0]


def test_basis_monomials_match_brute_force():
    # generator n (tau_i at n = 2i, xi_j at n = 2j - 1) has weight 2^((n + 1) // 2) - 1;
    # tau_0 weighs nothing, and the tau exponents are at most 1
    algebras = [SteenrodAlgebra(base, hopf_weight(16)) for base in sorted(steenrod.MOTIVIC_BASES)]
    for w in range(17):
        weights = [2 ** ((n + 1) // 2) - 1 for n in range(2 * steenrod.top_index(w) + 1)]
        ranges = [range(w // q + 1) if n % 2 else range(2) for n, q in enumerate(weights)]
        want = sorted(tuple((n, e) for n, e in enumerate(exps) if e)
                      for exps in itertools.product(*ranges)
                      if sum(q * e for q, e in zip(weights, exps)) <= w)
        for alg in algebras:
            assert alg.basis_monomials(w) == want, (alg, w)


def test_cell_basis_is_not_aliased():
    model = ko_homology_model("real_closed", truncation=10)
    first = model.cell_basis(4, -3)
    assert first
    want = list(first)
    first.clear()
    assert model.cell_basis(4, -3) == want
    source, _, _ = model.delta_matrix(4, -3)
    assert list(source) == want


# -- the per-algebra memos against cache-free references -----------------------

def test_an_algebra_is_freed_with_its_memos_without_the_cycle_collector():
    # the memos hold term dicts, not elements pointing back at the algebra
    gc.disable()
    try:
        alg = SteenrodAlgebra("real_closed", hopf_weight(5))
        assert check_antipode_axiom(alg, 5) == check_coassociativity_counit(alg, 5) == 42
        assert dual_action("xi1_hat", "L", alg.tau(1)) == alg.tau(0)
        assert alg._antipode_cache and alg._eta_cache and alg._eta_product_cache
        assert len(alg.mono_keys) > 42
        freed = weakref.ref(alg)
        del alg
        assert freed() is None
    finally:
        gc.enable()


def _generators(key):
    """(kind, index) of each generator factor of a monomial key, in fold order.

    Generator 2i is tau_i and generator 2j - 1 is xi_j.
    """
    return [("xi", (n + 1) // 2) if n % 2 else ("tau", n // 2)
            for n, e in key for _ in range(e)]


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_memoized_coproducts_match_generator_products(base):
    alg = SteenrodAlgebra(base, weight=16)
    ref = SteenrodAlgebra(base, weight=16)
    km = alg.coefficients
    etas = set()
    for key in alg.basis_monomials(9):
        want = {(UNIT_ID, UNIT_ID): km.one}
        for kind, i in _generators(key):
            want = tensor_mul(ref, want, _gen_coproduct(ref, kind, i))
        got = coproduct(SteenrodElement(alg, {key: km.one}))
        assert got == key_words(ref, want), key
        for (m1, m2), _ in got.items():
            etas.update((m1, cc) for cc in coproduct(SteenrodElement(ref, {m2: km.one})).values())
    assert any(cc != km.one for _, cc in etas)
    for m1, cc in etas:
        want = SteenrodElement(ref, {m1: km.one}) * ref.eta_r_of_coeff(cc)
        got = key_words(alg, alg.mono_times_eta(alg.mono_id(m1), cc))
        assert got == {(key,): c for key, c in want.terms.items()}, (m1, cc)


@pytest.mark.parametrize("base", FULL_TABLE_BASES)
def test_memoized_antipode_matches_a_fresh_algebra(base):
    alg = SteenrodAlgebra(base, weight=16)
    km = alg.coefficients
    coeffs = [km.one, km.monomial(0, 1), km.monomial(1, 1) | km.monomial(0, 2)]
    keys = alg.basis_monomials(9)
    for key in keys:  # warm the memo in one order ...
        antipode(SteenrodElement(alg, {key: km.one}))
    for key in reversed(keys):  # ... and check it against the generator fold
        fresh = SteenrodAlgebra(base, weight=16)
        chi = fresh.one()
        for kind, i in _generators(key):
            gen = fresh.tau(i) if kind == "tau" else fresh.xi(i)
            chi = chi * antipode(gen)
        for c in coeffs:
            got = antipode(SteenrodElement(alg, {key: c}))
            assert got == fresh.eta_r_of_coeff(c) * chi, (key, c)


def test_memoized_results_are_not_aliased():
    alg = SteenrodAlgebra("real_closed", weight=16)
    x = alg.tau(1) * alg.xi(1)
    for fn, terms in ((coproduct, lambda d: d), (antipode, lambda el: el.terms)):
        first = terms(fn(x))
        assert first
        want = dict(first)
        first.clear()
        assert terms(fn(x)) == want, fn.__name__
    d = id_words(alg, coproduct(x))
    left, right = coproduct_left(alg, d), coproduct_right(alg, d)
    for t in (left, right):
        t.clear()
    assert coproduct_left(alg, d) == coproduct_right(alg, d) and coproduct_left(alg, d)


def test_delta_matrix_memo_is_independent_of_cell_order():
    cells = [(s, w) for s in range(0, 11) for w in range(-12, 6)]
    forward = ko_homology_model("real_closed", truncation=10)
    backward = ko_homology_model("real_closed", truncation=10)
    got = {cell: forward.delta_matrix(*cell) for cell in cells}
    for cell in reversed(cells):
        assert backward.delta_matrix(*cell) == got[cell], cell
    assert any(cols for _, _, cols in got.values())


# -- properties of the shared rewriting core, on every base --------------------

# keys do not depend on the base, so one list serves all three algebras
SMALL_KEYS = st.sampled_from(SteenrodAlgebra("real_closed", weight=16).basis_monomials(6))
BASES = st.sampled_from(FULL_TABLE_BASES)


def _unless_truncated(check):
    try:
        check()
    except TruncationExceeded:
        reject()


@settings(max_examples=150, deadline=None)
@given(BASES, SMALL_KEYS, SMALL_KEYS, SMALL_KEYS)
def test_products_commute_and_associate(base, a, b, c):
    alg = SteenrodAlgebra(base, weight=16)
    x, y, z = (SteenrodElement(alg, {key: alg.coefficients.one}) for key in (a, b, c))

    def check():
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)

    _unless_truncated(check)


@settings(max_examples=100, deadline=None)
@given(BASES, SMALL_KEYS, SMALL_KEYS)
def test_coproduct_is_multiplicative(base, a, b):
    alg = SteenrodAlgebra(base, weight=16)
    x, y = (SteenrodElement(alg, {key: alg.coefficients.one}) for key in (a, b))

    def check():
        dx, dy = (id_words(alg, coproduct(el)) for el in (x, y))
        assert coproduct(x * y) == key_words(alg, tensor_mul(alg, dx, dy))

    _unless_truncated(check)


@settings(max_examples=20, deadline=None)
@given(BASES, st.integers(0, 2**32))
def test_steenrod_rewriting_is_confluent(base, seed):
    assert check_confluence_random(SteenrodAlgebra(base, weight=16).spec, 30, random.Random(seed)) > 0


class GenericTermsKMTau(KMTau):
    """The same ring, with term dicts compared by the generic `terms_equal` loop."""

    xor_terms = False


COEFF_PAIRS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3)
SUMMANDS = st.lists(st.tuples(SMALL_KEYS, COEFF_PAIRS), min_size=1, max_size=3)


def _coefficient(km, pairs):
    """The sum of rho^r tau^t over the pairs (r, t)."""
    out = km.zero
    for r, t in pairs:
        out = km.add(out, km.monomial(r, t))
    return out


def _element(alg, summands):
    """The sum of c . key over the summands (key, pairs of c)."""
    km, out = alg.coefficients, alg.zero()
    for key, pairs in summands:
        out = out + SteenrodElement(alg, {key: km.one}).scale(_coefficient(km, pairs))
    return out


@settings(max_examples=60, deadline=None)
@given(BASES, SUMMANDS, SUMMANDS, COEFF_PAIRS)
def test_term_dicts_never_store_a_zero_coefficient(base, xs, ys, cs):
    alg = SteenrodAlgebra(base, weight=16)
    km = alg.coefficients
    generic = GenericTermsKMTau(km.rho_order)

    def check():
        x, y, c = _element(alg, xs), _element(alg, ys), _coefficient(km, cs)
        outputs = [
            (x * y).terms, (y * x).terms, x.scale(c).terms, antipode(x).terms,
            coproduct(x), _combine_slots(alg, [x.terms, y.terms]),
            _combine_slots(alg, [y.terms, x.terms]),
        ]
        for terms in outputs:
            assert all(isinstance(v, int) and v != 0 for v in terms.values())
        for a, b in itertools.product(outputs, repeat=2):
            assert terms_equal(km, a, b) == terms_equal(generic, a, b)
        assert terms_equal(km, outputs[0], outputs[1])

    _unless_truncated(check)


# -- the crossing rule against the slot-product fold ---------------------------

def _combine_slots(alg, slots):
    """slots[0] (x) ... (x) slots[-1] in key words, folded right to left by `combine_slots`."""
    km, t = alg.coefficients, alg.slot(slots[-1])
    for el in reversed(slots[:-1]):
        out = {}
        combine_slots(alg, out, km.one, alg.slot(el), by_coefficient(km, t))
        t = out
    return key_words(alg, t)


def _reference_combine_slots(alg, slots):
    """Far-left normal form of slots[0] (x) ... (x) slots[-1], slot elements given.

    Folding right to left, the whole slot element is multiplied by eta_R of
    the coefficient waiting to its right, and each of the product's words is
    new.
    """
    state = {(): alg.coefficients.one}
    for el in reversed(slots):
        nxt = {}
        for suffix, pending in state.items():
            for key, c in (el * alg.eta_r_of_coeff(pending)).terms.items():
                nxt[(key,) + suffix] = c
        state = nxt
    return state


@settings(max_examples=80, deadline=None)
@given(BASES, st.lists(SUMMANDS, min_size=2, max_size=3))
def test_combine_slots_crosses_like_the_slot_product_fold(base, slot_summands):
    ref = SteenrodAlgebra(base, weight=16)
    try:
        slots = [_element(ref, summands) for summands in slot_summands]
        want = _reference_combine_slots(ref, slots)
    except TruncationExceeded:
        reject()
    # a fresh algebra, so that no memo is shared with the reference
    alg = SteenrodAlgebra(base, weight=16)
    assert _combine_slots(alg, [el.terms for el in slots]) == want


def test_combine_slots_crosses_non_unit_coefficients():
    # tau0^2 = tau xi1 + ...: its coefficient tau crosses every slot to its left
    alg = SteenrodAlgebra("real_closed", weight=16)
    sq = (alg.tau(0) * alg.tau(0)).terms
    assert any(c != alg.coefficients.one for c in sq.values())
    for slots in ([sq, sq], [sq, alg.tau(0).terms, sq]):
        want = _reference_combine_slots(alg, [SteenrodElement(alg, el) for el in slots])
        assert _combine_slots(alg, slots) == want
        assert any(len(word) == len(slots) for word in want)


def test_tensor_mul_rejects_tensors_of_different_slot_counts():
    alg = SteenrodAlgebra("real_closed", weight=8)
    d = id_words(alg, coproduct(alg.tau(0)))
    with pytest.raises(ValueError, match="unpack"):
        tensor_mul(alg, d, coproduct_left(alg, d))
    with pytest.raises(ValueError, match="unpack"):
        tensor_mul(alg, coproduct_right(alg, d), d)


# -- the benchmark tracer still wraps the tensor and filtered layers -------------

TRACE_SCRIPT = """
import json
import tracer
import etasphere.cli
from etasphere import kwcalc
from etasphere.steenrod import SteenrodAlgebra, check_coassociativity_counit

t = tracer.Tracer()
tracer.install(t)
t.on = True
check_coassociativity_counit(SteenrodAlgebra("real_closed", weight=7), 4)
kwcalc.kw_hw_generators_check("F3", 3)
print(json.dumps(t.layer_metrics()))
"""


def test_perfbench_tracer_installs_and_counts_the_tensor_layer():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", TRACE_SCRIPT], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    for layer in ("tensor_mul", "combine_slots", "coproduct_left", "coproduct_right"):
        assert metrics[f"steenrod.{layer}.calls"] > 0, layer
    assert metrics["steenrod.SteenrodElement.__mul__.calls"] > 0
    assert metrics["filtered.lift_free_basis.calls"] > 0
    assert metrics["filtered.FilteredRing.from_witt_mod2k.calls"] > 0
