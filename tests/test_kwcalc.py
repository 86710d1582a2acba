from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from etasphere.abelian import FinAbGroup
from etasphere.witt import catalog_lookup
from etasphere.kwcalc import (
    BoundsExceeded,
    DegreeOutOfRange,
    DividedPowerModel,
    EvenNotSupported,
    ParseError,
    UnitInversionFailed,
    adams_on_bott,
    check_9n_identity,
    cobordism_stems,
    divided_power_construct,
    eta_stems,
    hopf_constants,
    hw_hw_stems,
    kw_hw_algebra,
    kw_hw_generators_check,
    load_stable_stems,
    msp_phi_gr,
    normal_order,
    nu2,
    nu2_binomial,
    nu2_factorial,
    nu2_suite,
    phi_iterates_on_msl,
    phi_on_beta_power,
)


# -- valuations --------------------------------------------------------------

def test_nu2_basics():
    assert nu2(8) == 3
    assert nu2(9**1 - 1) == 3  # the n = 1 instance of the lemma
    assert nu2_factorial(4) == 3  # 4 - s_2(4)
    assert nu2_binomial(2, 1) == 1
    for i in range(1, 7):
        assert nu2_binomial(2 ** (i + 1), 2**i) == 1


def test_legendre_kummer_cross_check():
    rng = random.Random(9)
    for n in [1, 2, 3, 7, 64, 100, 2**10, 2**16] + [rng.randint(1, 2**16) for _ in range(50)]:
        assert nu2_factorial(n) == sum(n // 2**k for k in range(1, n.bit_length() + 1))


def test_check_9n_small():
    for n in range(1, 200):
        assert check_9n_identity(n)["agree"]


def test_nu2_suite_shape():
    out = nu2_suite(12)
    assert out["nu2"] == 2
    assert out["nu2_factorial"] == out["legendre_sum"]
    assert out["check_9n"]["agree"]


# -- operator ring -----------------------------------------------------------

def test_phi_beta_normal_order():
    result = normal_order(["phi", "beta"])
    assert result.terms == {(1, 1): 9, (0, 0): 8}


def test_beta_phi_already_normal():
    result = normal_order(["beta", "phi"])
    assert result.terms == {(1, 1): 1}


def test_phi_beta_squared():
    result = normal_order(["phi", "beta", "beta"])
    assert result.terms == {(2, 1): 81, (1, 0): 80}


def test_phi_beta_power_closed_form():
    for n in range(0, 51):
        word = ["phi"] + ["beta"] * n
        result = normal_order(word)
        if n == 0:
            assert result.terms == {(0, 1): 1}
        else:
            assert result.terms == {(n, 1): 9**n, (n - 1, 0): 9**n - 1}


def test_operator_associativity_random_words():
    rng = random.Random(17)
    for _ in range(1000):
        items = [rng.choice(["beta", "phi", 2, 3, Fraction(1, 3)]) for _ in range(rng.randint(1, 6))]
        cut = rng.randint(0, len(items))
        cut2 = rng.randint(cut, len(items))
        a, b, c = items[:cut], items[cut:cut2], items[cut2:]
        left = (normal_order(a) * normal_order(b)) * normal_order(c)
        right = normal_order(a) * (normal_order(b) * normal_order(c))
        assert left == right


def test_operator_rejects_even_denominator():
    with pytest.raises(ValueError):
        normal_order([Fraction(1, 2)])


def test_phi_on_beta():
    assert phi_on_beta_power(1)["coefficient"] == 8
    assert phi_on_beta_power(2)["coefficient"] == 80
    assert phi_on_beta_power(0)["coefficient"] == 0
    out = phi_on_beta_power(6)
    assert out["nu2"] == out["nu2_8n"]


def test_adams_on_bott():
    g = adams_on_bott(3, "real_closed")
    assert g.rank == 81
    assert g.witt_part.coords == (9,)
    g1 = adams_on_bott(1, "real_closed")
    assert g1.rank == 1 and g1.witt_part.coords == (1,)
    gq = adams_on_bott(3, "quadratically_closed")
    assert gq.witt_part.coords == (1,)  # 9 = 1 in W = F2
    with pytest.raises(EvenNotSupported):
        adams_on_bott(2, "real_closed")


# -- stems data --------------------------------------------------------------

def test_stable_stems_bundled():
    data = load_stable_stems()
    assert data.max_degree == 20
    assert data.group(0) == FinAbGroup(1, [])
    assert data.group(3) == FinAbGroup(0, [24])
    assert data.group(7) == FinAbGroup(0, [240])
    assert data.group(8) == FinAbGroup(0, [2, 2])


def test_stable_stems_gap_detection(tmp_path):
    bad = tmp_path / "stems.json"
    bad.write_text(
        '[{"degree": 0, "free_rank": 1, "torsion": []},'
        ' {"degree": 2, "free_rank": 0, "torsion": [2]}]'
    )
    with pytest.raises(ParseError):
        load_stable_stems(bad)


# -- eta stems ---------------------------------------------------------------

def test_eta_stems_quadratically_closed():
    table = eta_stems("quadratically_closed", 10)
    z2 = FinAbGroup(0, [2])
    for n in range(1, 11):
        entry = table.entries[n].group()
        if n % 4 in (0, 3):
            assert entry == z2, n
        else:
            assert entry.is_trivial(), n
    assert table.entries[0].summands[0][0].startswith("W(")


def test_eta_stems_real_closed():
    table = eta_stems("real_closed", 20)
    for n in range(1, 21):
        entry = table.entries[n]
        two_primary = entry.group().primary_part(2)
        if n % 4 == 3:
            m = (n + 1) // 4
            assert two_primary == FinAbGroup(0, [2 ** (3 + nu2(m))]), n
        else:
            assert not any("coker" in lbl for lbl, _ in entry.summands)
        # kernel summands vanish: multiplication by 8n is injective on Z_(2)
        assert not any(lbl.startswith("ker(") for lbl, _ in entry.summands), n
    assert table.entries[7].group() == FinAbGroup.from_divisors(0, [16, 15])
    # ker(8).coker: Z/8 plus the odd part Z/3 of pi_3^s = Z/24
    assert table.entries[3].group() == FinAbGroup.from_divisors(0, [8, 3])
    assert table.entries[3].group().primary_part(2) == FinAbGroup(0, [8])


def test_eta_stems_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        eta_stems("real_closed", 21)


def test_eta_stems_f3():
    # W(F_3) = Z/4 = W_(2): 8n acts as zero, so ker = coker = Z/4
    table = eta_stems("F3", 8)
    assert table.entries[3].group().primary_part(2) == FinAbGroup(0, [4])
    assert table.entries[4].group().primary_part(2) == FinAbGroup(0, [4])


def test_eta_stems_odd_parts_spread_by_signatures():
    qc = eta_stems("quadratically_closed", 7)
    rc = eta_stems("real_closed", 7)
    # pi_7^s = Z/240: odd part Z/15 appears only when W has a signature
    assert qc.entries[7].group().odd_part().is_trivial()
    assert rc.entries[7].group().odd_part() == FinAbGroup(0, [15])


# -- cobordism ----------------------------------------------------------------

def test_cobordism_ranks():
    msp = cobordism_stems("MSp", "real_closed", 8)
    assert msp.entries[0].summands[0][0].endswith("^1")
    assert msp.entries[2].summands[0][0].endswith("^1")   # y_1
    assert msp.entries[8].summands[0][0].endswith("^5")   # partitions of 8, even parts
    assert msp.entries[3].summands == []
    msl = cobordism_stems("MSL", "real_closed", 8)
    assert msl.entries[8].summands[0][0].endswith("^2")   # y_2^2, y_4
    assert msl.entries[4].summands[0][0].endswith("^1")


# -- gr-level phi -------------------------------------------------------------

def test_msp_phi_gr_surjective_with_polynomial_kernel():
    report = msp_phi_gr(14)
    assert report["surjective"]
    for degree, row in report["degrees"].items():
        assert row["kernel"] == row["expected_kernel"], degree
    # kernel generators appear once in each degree 2, 3, 4, ...
    abstract = report["abstract_model"]
    assert abstract["surjective"]
    degrees = abstract["kernel_generator_degrees"]
    assert degrees == list(range(2, 15))
    assert report["abstract_model_rational"]["surjective"]


def test_phi_iterates():
    for i in (1, 2, 3):
        out = phi_iterates_on_msl(i)
        assert out["reaches_unit"], i
    assert phi_iterates_on_msl(0)["reaches_unit"]


# -- hopf constants -----------------------------------------------------------

def test_hopf_constants_match_binomials():
    out = hopf_constants(12, 12)
    assert out["matches_binomials"]
    assert out["table"]["1,1"] == 2
    assert out["table"]["1,2"] == 3
    assert out["table"]["0,5"] == 1
    assert out["table"]["7,9"] == comb(16, 7) % 8


def test_hopf_constants_bound():
    with pytest.raises(BoundsExceeded):
        hopf_constants(40, 40)


# -- divided powers -----------------------------------------------------------

def test_divided_power_certificate_two_unit_choices():
    for units in [(1, 1, 1, 1, 1), (3, 5, 7, 9, 11)]:
        model = DividedPowerModel(modulus_bits=8, units=units, imax=5)
        out = divided_power_construct(model, 16)
        assert out["squares_normalized"], units
        assert out["certificate"], units
        assert out["x1_x1_equals_2_x2"], units


def test_divided_power_with_kummer_units():
    # w_i = binom(2^{i+1}, 2^i)/2: s_2^2 = 6 s_3 holds exactly mod 2^8
    units = tuple(comb(2 ** (i + 1), 2**i) // 2 for i in range(5))
    model = DividedPowerModel(modulus_bits=8, units=units, imax=5)
    out = divided_power_construct(model, 8)
    assert out["certificate"]


def test_divided_power_algebra_square_rule():
    # t_i^2 = 2 w_i t_{i+1} in the graded model; t_imax has no square rule
    model = DividedPowerModel(modulus_bits=8, units=(3, 5, 7), imax=3)
    alg = model.algebra
    assert alg.truncation == 15
    for i, w in enumerate(model.units):
        square = alg.gen(f"t{i}") * alg.gen(f"t{i}")
        assert square == alg.gen(f"t{i + 1}").scale(2 * w)
    assert alg.square_images[3] is None


def test_divided_power_rejects_bad_model():
    with pytest.raises(UnitInversionFailed):
        DividedPowerModel(modulus_bits=8, units=(2, 1, 1), imax=3)
    with pytest.raises(UnitInversionFailed):
        DividedPowerModel(modulus_bits=4, imax=3)


# -- hw smash hw ---------------------------------------------------------------

def test_hw_hw_stems():
    rc = hw_hw_stems("real_closed", 3)
    assert rc.entries[4].group() == FinAbGroup(0, [8])
    assert rc.entries[8].group() == FinAbGroup(0, [16])
    assert rc.entries[5].summands == []  # no kernel on Z_(2)
    qc = hw_hw_stems("quadratically_closed", 2)
    assert qc.entries[4].group() == FinAbGroup(0, [2])
    assert qc.entries[5].group() == FinAbGroup(0, [2])  # kernel of the cofiber


# -- kw smash HW generators -----------------------------------------------------

def test_kw_hw_generators_real_closed():
    out = kw_hw_generators_check("real_closed", imax=3, modulus_bits=8)
    assert out["r_in_I_squared"]
    assert out["squares_in_2_plus_I2"]
    assert out["binary_products_generate"]
    assert out["lift_certificate_ok"]


def test_kw_hw_generators_quadratically_closed():
    out = kw_hw_generators_check("quadratically_closed", imax=3, modulus_bits=8)
    assert out["squares_in_2_plus_I2"]
    assert out["binary_products_generate"]
    assert out["lift_certificate_ok"]


def test_kw_hw_algebra_uses_the_ideal_square_sample():
    # over a real closed field I^2 != 0: t_0 t_0 = (2 + r) t_1 with r != 0
    alg, r = kw_hw_algebra(catalog_lookup("real_closed"), imax=3, modulus_bits=8)
    finite = alg.coefficients
    two = finite.add(finite.one, finite.one)
    assert not finite.is_zero(r)
    t0 = alg.gen("t0")
    assert (t0 * t0).terms == {((1, 1),): finite.add(two, r)}
    assert t0 * t0 != alg.gen("t1").scale(two)


def test_kw_hw_generators_with_unit_twists():
    # scaling the t_i by odd units leaves the products generators
    pres_unit = (1,)
    out = kw_hw_generators_check(
        "real_closed", imax=3, modulus_bits=8,
        unit_twists=((3,), (5,), (7,), (9,)),
    )
    assert out["binary_products_generate"]
