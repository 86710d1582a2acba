from __future__ import annotations

import itertools

import pytest
from group_rings import laurent_tower_entry

from etasphere.abelian import FinAbGroup, identity_matrix, lattice, quotient_structure
from etasphere.witt import (
    BruteWittRing,
    GWElement,
    InvalidPresentation,
    RingMismatch,
    UnknownField,
    UnsupportedCharacteristic,
    WittPresentation,
    brute_force_witt_ring,
    catalog_lookup,
    catalog_names,
    find_ring_isomorphism,
    fundamental_ideal_power,
    is_unit_2local,
    n_epsilon,
    solve_2local_inverse,
)

ALL_FIELDS = ["quadratically_closed", "real_closed", "Z_half", "F3", "F5", "F7"]


def test_catalog_loads_and_validates():
    assert set(catalog_names()) == set(ALL_FIELDS)
    for name in ALL_FIELDS:
        ring = catalog_lookup(name)  # validation runs in the constructor
        assert ring.name == name


def test_unknown_field():
    with pytest.raises(UnknownField):
        catalog_lookup("non_existent_field")


def test_real_closed_presentation():
    ring = catalog_lookup("real_closed")
    assert ring.additive == FinAbGroup(1, [])
    assert ring.element(ring.minus_one) == ring.element([-1])
    # I = 2Z inside Z
    assert fundamental_ideal_power(ring, 1) == lattice(1, [[2]])


def test_z_half_relations():
    ring = catalog_lookup("Z_half")
    one = ring.one()
    g = ring.gen(1)
    assert (g * g).is_zero()       # g^2 = 0
    assert (2 * g).is_zero()       # 2g = 0
    assert (one + g) * (one - g) == one  # expand with g^2 = 0


def test_witt_mul_unit_law_and_mismatch():
    r1 = catalog_lookup("F3")
    r2 = catalog_lookup("F5")
    x = r1.element([3])
    assert r1.one() * x == x
    with pytest.raises(RingMismatch):
        x * r2.one()


def test_f3_is_cyclic_4():
    ring = catalog_lookup("F3")
    one = ring.one()
    assert not (2 * one).is_zero()
    assert (4 * one).is_zero()
    assert ring.element(ring.minus_one) == -one


def test_is_unit_2local_examples():
    rc = catalog_lookup("real_closed")
    assert is_unit_2local(rc.one())
    hyperbolic = rc.one() + rc.element(rc.minus_one)
    assert not is_unit_2local(hyperbolic)
    zh = catalog_lookup("Z_half")
    one_plus_g = zh.one() + zh.gen(1)
    assert is_unit_2local(one_plus_g)
    x, m = solve_2local_inverse(one_plus_g)
    assert one_plus_g * x == m * zh.one()
    assert m % 2 == 1
    # the explicit inverse of 1+g is 1-g
    assert x == zh.one() - zh.gen(1) or one_plus_g * (zh.one() - zh.gen(1)) == zh.one()


def test_unit_predicate_matches_solver_on_all_catalog_rings():
    for name in ALL_FIELDS:
        ring = catalog_lookup(name)
        n = ring.additive.ngens
        # sample a grid of elements (coefficients -2..2 on each generator)
        for coords in itertools.product(range(-2, 3), repeat=n):
            a = ring.element(list(coords))
            inv = solve_2local_inverse(a)
            if is_unit_2local(a):
                assert inv is not None, (name, coords)
            else:
                assert inv is None, (name, coords)


def test_fundamental_ideal_powers():
    rc = catalog_lookup("real_closed")
    assert fundamental_ideal_power(rc, 2) == lattice(1, [[4]])  # I^2 = 4Z
    qc = catalog_lookup("quadratically_closed")
    assert fundamental_ideal_power(qc, 1) == lattice(1, qc.additive.relation_columns())  # I = 0
    for name in ALL_FIELDS:
        ring = catalog_lookup(name)
        whole = fundamental_ideal_power(ring, 0)
        rel = ring.additive.relation_columns()
        assert quotient_structure(ring.additive.ngens, whole.basis(), rel)[0] == ring.additive


def multiset_product_span(ring, n):
    """I^n with the relations, as the span of every product of n ideal generators."""
    amb = ring.additive.ngens
    rel = ring.additive.relation_columns()
    if n == 0:
        return lattice(amb, identity_matrix(amb) + rel)
    products = []
    for combo in itertools.combinations_with_replacement(ring.ideal_generators, n):
        prod = ring.one()
        for g in combo:
            prod = prod * ring.element(g)
        products.append(prod.coords)
    return lattice(amb, products + rel)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_iterated_ideal_power_matches_the_multiset_products_on_the_catalog(name):
    ring = catalog_lookup(name)
    for n in range(ring.vcd2 + 3):
        assert fundamental_ideal_power(ring, n) == multiset_product_span(ring, n), n


@pytest.mark.parametrize("k", [1, 2])
def test_iterated_ideal_power_matches_the_multiset_products_on_group_rings(k):
    ring = WittPresentation.from_json(laurent_tower_entry(k))
    for n in range(5):
        assert fundamental_ideal_power(ring, n) == multiset_product_span(ring, n), n


@pytest.mark.parametrize("k", [1, 2, 3])
def test_group_ring_presentation_needs_its_vcd2(k):
    # I^k is not inside 2W in Z[(Z/2)^k], so vcd2 = k - 1 must be refused
    entry = dict(laurent_tower_entry(k), vcd2=k - 1)
    with pytest.raises(InvalidPresentation, match=r"I\^\(vcd2\+1\) not contained in 2W"):
        WittPresentation.from_json(entry)


def test_n_epsilon():
    for name in ALL_FIELDS:
        ring = catalog_lookup(name)
        e1 = n_epsilon(ring, 1)
        assert e1.witt_part == ring.one() and e1.rank == 1
        e3 = n_epsilon(ring, 3)
        assert e3.witt_part == ring.one() and e3.rank == 3
        for n in (5, 7, 9):
            assert n_epsilon(ring, n).witt_part == ring.one()
    qc = catalog_lookup("quadratically_closed")
    e2 = n_epsilon(qc, 2)
    assert e2.witt_part.is_zero() and e2.rank == 2


def test_gw_pullback_invariant():
    rc = catalog_lookup("real_closed")
    with pytest.raises(Exception):
        GWElement(rc.one(), 2)  # rank parity mismatch
    ok = GWElement(rc.one(), 3)
    sq = ok * ok
    assert sq.rank == 9 and sq.witt_part == rc.element([1])


def test_brute_force_oracle_small_fields():
    r3 = brute_force_witt_ring(3)
    assert r3.additive == FinAbGroup(0, [4])
    r5 = brute_force_witt_ring(5)
    assert r5.additive == FinAbGroup(0, [2, 2])
    r7 = brute_force_witt_ring(7)
    assert r7.additive == FinAbGroup(0, [4])


def test_brute_force_f5_square_zero_pattern():
    ring = brute_force_witt_ring(5)
    # t = <u> - <1> squares to zero: F2[t]/(t^2) pattern
    elems = [ring.element(list(c)) for c in ring.additive.elements()]
    nonunits = [e for e in elems if e.rank_mod2() == 0 and not e.is_zero()]
    assert len(nonunits) == 1
    t = nonunits[0]
    assert (t * t).is_zero()


def test_brute_force_matches_catalog():
    for q, name in [(3, "F3"), (5, "F5"), (7, "F7")]:
        brute = brute_force_witt_ring(q)
        catalog = catalog_lookup(name)
        assert find_ring_isomorphism(catalog, brute) is not None, name


def test_brute_force_rejects_even_characteristic():
    with pytest.raises(UnsupportedCharacteristic):
        BruteWittRing(4)


def test_vcd2_containment_on_catalog():
    # validation already checks I^(vcd2+1) <= 2W; re-derive it element-wise here
    for name in ALL_FIELDS:
        ring = catalog_lookup(name)
        if ring.vcd2 is None:
            continue
        power = fundamental_ideal_power(ring, ring.vcd2 + 1)
        two_w = lattice(ring.additive.ngens, ring.two_torsion_free_lattice())
        for coords in power.basis():
            assert coords in two_w


def test_json_round_trip_presentation():
    ring = catalog_lookup("Z_half")
    clone = type(ring).from_json(ring.to_json())
    assert clone.mult_table == ring.mult_table
    assert clone.unit == ring.unit
