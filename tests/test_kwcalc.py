from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import comb

import pytest
from group_rings import laurent_tower_entry

from etasphere import cli, filtered, gf2, graded, kwcalc
from etasphere.abelian import FinAbGroup, ker_coker_of_mul
from etasphere.filtered import FilteredRing
from etasphere.graded import (
    AlgebraSpec,
    Derivation,
    F2,
    GeneratorSpec,
    GradedElement,
    IntegersMod,
    RationalRing,
    f2_kernel,
    f2_masks,
)
from etasphere.witt import GWElement, WittPresentation, catalog_lookup, catalog_names
from etasphere.kwcalc import (
    AlgebraError,
    BoundsExceeded,
    DegreeOutOfRange,
    EvenNotSupported,
    ParseError,
    UnitInversionFailed,
    adams_on_bott,
    binary_product,
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
    nu2_factorial,
    phi_iterates_on_msl,
    phi_ker_coker,
    square_chain,
)


# -- valuations --------------------------------------------------------------

def test_nu2_basics():
    assert nu2(8) == 3
    assert nu2(9**1 - 1) == 3  # the n = 1 instance of the lemma
    assert nu2_factorial(4) == 3  # 4 - s_2(4)


def test_legendre_kummer_cross_check():
    rng = random.Random(9)
    for n in [1, 2, 3, 7, 64, 100, 2**10, 2**16] + [rng.randint(1, 2**16) for _ in range(50)]:
        assert nu2_factorial(n) == sum(n // 2**k for k in range(1, n.bit_length() + 1))


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


def rewrite_phi_beta(word) -> dict:
    """Normal form of a word by rewriting letter strings with phi beta -> 9 beta phi + 8.

    The coefficients of the word multiply out first; each string is rewritten
    at its first "pb" until none is left, so every letter b stands left of
    every p, and the string b^i p^j collects its coefficient under (i, j).
    """
    scale = Fraction(1)
    letters = ""
    for item in word:
        if item in ("beta", "phi"):
            letters += item[0]
        else:
            scale *= Fraction(item)
    pending, done = {letters: scale}, {}
    while pending:
        string, c = pending.popitem()
        k = string.find("pb")
        if k < 0:
            key = (string.count("b"), string.count("p"))
            done[key] = done.get(key, 0) + c
            continue
        for middle, factor in (("bp", 9), ("", 8)):
            rewritten = string[:k] + middle + string[k + 2:]
            pending[rewritten] = pending.get(rewritten, 0) + factor * c
    return {key: c for key, c in done.items() if c}


def test_normal_order_matches_the_word_rewriter():
    rng = random.Random(23)
    letters = ["beta", "phi", "beta", "phi", 0, 3, -2, Fraction(1, 3), Fraction(-5, 7)]
    several_phi = 0
    for _ in range(400):
        word = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
        several_phi += word.count("phi") >= 2
        assert normal_order(word).terms == rewrite_phi_beta(word), word
    assert several_phi >= 50


def test_operator_rejects_even_denominator():
    with pytest.raises(ValueError):
        normal_order([Fraction(1, 2)])


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
    for n in (0, -1, -2):
        with pytest.raises(ValueError, match="positive odd"):
            adams_on_bott(n, "real_closed")


@pytest.mark.parametrize("name", catalog_names())
def test_phi_ker_coker_matches_the_closed_form(name):
    # nu2(9^n - 1) = nu2(8n) = 3 + nu2(n) is the oracle, not the implementation
    ring = catalog_lookup(name)
    shadow = ring.additive.two_local_shadow()
    expected = [ker_coker_of_mul(shadow, 2 ** (3 + nu2(n))) for n in range(1, 65)]
    assert phi_ker_coker(ring, 64) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_phi_ker_coker_on_a_laurent_tower_is_2_to_the_k_copies_of_real_closed(k):
    # additively W(R((t_1))...((t_k))) is W(R)^(2^k) and phi acts by an integer
    ring = WittPresentation.from_json(laurent_tower_entry(k))
    copies = [[functools.reduce(FinAbGroup.direct_sum, [group] * 2**k) for group in entry]
              for entry in phi_ker_coker(catalog_lookup("real_closed"), 16)]
    assert [list(entry) for entry in phi_ker_coker(ring, 16)] == copies


def test_phi_ker_coker_takes_one_ker_coker_per_two_part(monkeypatch):
    # for n <= 64, nu2(9^n - 1) = 3 + nu2(n) takes 7 values
    calls = []

    def counted(group, n):
        calls.append(n)
        return ker_coker_of_mul(group, n)

    monkeypatch.setattr(kwcalc, "ker_coker_of_mul", counted)
    phi_ker_coker(catalog_lookup("real_closed"), 64)
    assert sorted(calls) == [2**k for k in range(3, 10)]


def test_a_psi3_that_disagrees_with_phi_raises_naming_the_field(monkeypatch):
    monkeypatch.setattr(kwcalc, "adams_on_bott", lambda n, ring: GWElement(3 * ring.one(), 3))
    with pytest.raises(AlgebraError, match="real_closed"):
        eta_stems("real_closed", 8)


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


def test_a_failed_phi_spot_check_fails_its_certificate_with_a_message(monkeypatch):
    # a raise, not a bare assert: it survives `python -O` and names the failure
    monkeypatch.setattr(kwcalc, "apply_derivation", lambda derivation, el: el.algebra.zero())
    cert, checked = cli.run_check(cli.msp_phi_surjective)
    assert cert == {"pass": False, "counterexample": "phi(e2) = 0, expected 1"}
    assert checked is None


def phi_model(max_degree):
    """phi(x_i) = x_(i-1) on F2[x_1, ..., x_max] (x_0 = 1), as in abstract_phi_report."""
    a = AlgebraSpec([GeneratorSpec(f"x{i}", i) for i in range(1, max_degree + 1)],
                    F2(), max_degree + 1)
    images = {"x1": a.one()}
    for i in range(2, max_degree + 1):
        images[f"x{i}"] = a.gen(f"x{i - 1}")
    return a, Derivation(a, -1, images, name="phi")


def kernel_indecomposables_all_pairs(algebra, kernels):
    """New generator degrees against every product of two lower kernel basis elements."""
    degrees, chosen = [], {}
    for degree, (source, ker_masks) in kernels.items():
        if not ker_masks:
            continue
        products = [a * b for d1 in range(1, degree // 2 + 1)
                    for a in chosen.get(d1, []) for b in chosen.get(degree - d1, [])]
        dec = gf2.row_reduce(f2_masks([p.terms for p in products], source))
        degrees += [degree] * len(gf2.quotient_basis(ker_masks, dec))
        chosen[degree] = [
            GradedElement(algebra, {source[j]: 1 for j in range(len(source)) if mask >> j & 1})
            for mask in ker_masks]
    return degrees


@pytest.mark.parametrize("max_degree", range(1, 19))
def test_kernel_indecomposables_match_all_pairs_of_kernel_elements(max_degree):
    algebra, phi = phi_model(max_degree)
    kernels = {n: f2_kernel(phi, n) for n in range(1, max_degree + 1)}
    got = kwcalc._kernel_indecomposables(algebra, kernels)
    assert got == kernel_indecomposables_all_pairs(algebra, kernels)
    assert got == list(range(2, max_degree + 1))


def test_the_phi_reports_multiply_no_graded_elements(monkeypatch):
    calls = {}
    for name in ("normalize_product", "apply_derivation"):
        def counting(*args, _fn=getattr(graded, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(graded, name, counting)
    f2 = kwcalc.abstract_phi_report(16, F2())
    q = kwcalc.abstract_phi_report(16, RationalRing())
    assert calls == {}
    assert f2["surjective"] and q["surjective"]
    assert f2["kernel_generator_degrees"] == list(range(2, 17))
    # the counters are live: a product of elements goes through them
    x = phi_model(2)[0].gen("x1")
    assert x * x == GradedElement(x.algebra, {((0, 2),): 1})
    assert calls == {"normalize_product": 1}


def test_phi_iterates():
    for i in (1, 2, 3):
        out = phi_iterates_on_msl(i)
        assert out["reaches_unit"], i
    assert phi_iterates_on_msl(0)["reaches_unit"]


@pytest.mark.parametrize("failing", [["abstract_model_rational"],
                                     ["abstract_model", "abstract_model_rational"]])
def test_msp_phi_certificate_requires_every_model(monkeypatch, failing):
    # msp_phi_gr also runs the abstract model over F2 and Q: each verdict counts
    report = kwcalc.abstract_phi_report

    def abstract(max_degree, ring):
        out = report(max_degree, ring)
        name = "abstract_model_rational" if isinstance(ring, RationalRing) else "abstract_model"
        return dict(out, surjective=name not in failing)

    monkeypatch.setattr(kwcalc, "abstract_phi_report", abstract)
    check = cli.verify_checks(None)["kwcalc"]["msp_phi_surjective"]
    assert cli.run_check(check) == ({"pass": False, "counterexample": ", ".join(failing)}, 15)


def test_a_failed_msl_iterate_fails_its_certificate_with_the_index(monkeypatch):
    monkeypatch.setattr(kwcalc, "apply_derivation", lambda derivation, el: el.algebra.zero())
    check = cli.verify_checks(None)["kwcalc"]["msl_phi_iterates_reach_unit"]
    assert cli.run_check(check) == ({"pass": False, "counterexample": 1}, 2)


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
        out, _ = divided_power_construct(16, modulus_bits=8, units=units, imax=5)
        assert out["squares_normalized"], units
        assert out["certificate"], units
        assert out["x1_x1_equals_2_x2"], units


def test_divided_power_with_kummer_units():
    # w_i = binom(2^{i+1}, 2^i)/2: s_2^2 = 6 s_3 holds exactly mod 2^8
    units = tuple(comb(2 ** (i + 1), 2**i) // 2 for i in range(5))
    out, _ = divided_power_construct(8, modulus_bits=8, units=units, imax=5)
    assert out["certificate"]


def test_divided_power_algebra_square_rule():
    # t_i^2 = 2 w_i t_{i+1} in the graded model; t_imax has no square rule
    alg = square_chain(IntegersMod(2**8), 1, [6, 10, 14])
    assert alg.truncation == 15
    for i, w in enumerate((3, 5, 7)):
        square = alg.gen(f"t{i}") * alg.gen(f"t{i}")
        assert square == alg.gen(f"t{i + 1}").scale(2 * w)
    assert alg.square_images[3] is None


@pytest.mark.parametrize("imax", [0, 1, 3])
def test_square_chain_builds_both_certificate_models(imax):
    # degree d . 2^i, truncation d . (2^(imax+1) - 1), one square rule per i < imax
    divided = square_chain(IntegersMod(2**8), 1, [6] * imax)
    kwhw, r = kw_hw_algebra(catalog_lookup("real_closed"), imax, 8)
    ring = kwhw.coefficients
    two_plus_r = ring.add(ring.add(ring.one, ring.one), r)
    for alg, degree, square in ((divided, 1, 6), (kwhw, 4, two_plus_r)):
        assert [g.degree for g in alg.generators] == [degree * 2**i for i in range(imax + 1)]
        assert alg.truncation == degree * (2 ** (imax + 1) - 1)
        rules = {i: {((i + 1, 1),): square} for i in range(imax)}
        assert alg.square_images == rules | {imax: None}


def test_binary_product_multiplies_over_the_binary_digits():
    alg = square_chain(IntegersMod(2**8), 1, [6, 10, 14])

    def t(i):
        return alg.gen(f"t{i}")

    assert binary_product(alg, 0, t) == alg.one()
    assert binary_product(alg, 0b1011, t) == t(0) * t(1) * t(3)


def test_the_generator_certificates_report_their_own_counts():
    # one case per square s_n^2 and per square t_i^2, n, i < imax (r in I^2
    # holds by choice); each product x_k and each lifted basis element, k <= 2^imax
    for imax in (0, 2, 5):
        _, checked = divided_power_construct(1, modulus_bits=8, imax=imax)
        assert checked == {"squares_normalized": imax}
    for imax in (1, 3):
        _, checked = kw_hw_generators_check("F3", imax, 6)
        assert checked == {"squares_in_2_plus_I2": imax,
                           "binary_products_generate": 2**imax + 1,
                           "lift_certificate_ok": 2**imax + 1}


def test_divided_power_rejects_bad_model():
    # K >= 6, then the first even unit, then n_max <= 2^imax
    for modulus_bits, units, error, message in [
        (4, (2, 1, 1), UnitInversionFailed, "modulus 2^K needs K >= 6"),
        (8, (3, 4, 6), UnitInversionFailed, "unit 4 is even"),
        (8, (3, 5), BoundsExceeded, "n_max 100 exceeds 2^imax = 8"),
    ]:
        with pytest.raises(error) as raised:
            divided_power_construct(100, modulus_bits, units, imax=3)
        assert str(raised.value) == message


@pytest.mark.parametrize("units, imax, echoed", [
    ((259, 5), 3, [3, 5, 1]),
    ((3, 5, 7), 3, [3, 5, 7]),
    ((3, 5, 7, 9, 11, 13, 15), 3, [3, 5, 7, 9, 11, 13, 15]),
    ((3, 5), 0, [3, 5]),
    ((), 5, [1, 1, 1, 1, 1]),
])
def test_divided_power_echoes_every_unit_given(units, imax, echoed):
    # padded with 1s to imax and reduced mod 2^K; a longer list is echoed whole
    out, _ = divided_power_construct(1, 8, units, imax)
    assert out["units"] == echoed


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
    out, _ = kw_hw_generators_check("real_closed", imax=3, modulus_bits=8)
    assert out["r_in_I_squared"]
    assert out["squares_in_2_plus_I2"]
    assert out["binary_products_generate"]
    assert out["lift_certificate_ok"]


def test_kw_hw_generators_quadratically_closed():
    out, _ = kw_hw_generators_check("quadratically_closed", imax=3, modulus_bits=8)
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


@pytest.mark.parametrize("name", catalog_names())
def test_kw_hw_generators_x0_is_the_unit(name):
    # the empty product x_0 is exactly the unit of W/2^K, not just some unit
    out, _ = kw_hw_generators_check(name, imax=2, modulus_bits=6)
    finite = FilteredRing.from_witt_mod2k(catalog_lookup(name), 6)
    assert out["x0_is_one"] is True
    assert out["unit_coefficients"][0] == list(finite.one)


def test_kw_hw_generators_x0_is_computed(monkeypatch):
    # an algebra whose empty product is 3, a unit but not 1, must report it
    def three(self):
        add, one = self.coefficients.add, self.coefficients.one
        return self.element({(): add(one, add(one, one))})

    monkeypatch.setattr(kwcalc.AlgebraSpec, "one", three)
    out, _ = kw_hw_generators_check("F3", imax=1, modulus_bits=4)
    assert out["x0_is_one"] is False
    assert out["unit_coefficients"][0] == [3]


def test_kw_hw_generators_with_unit_twists():
    # scaling the t_i by odd units leaves the products generators
    pres_unit = (1,)
    out, _ = kw_hw_generators_check(
        "real_closed", imax=3, modulus_bits=8,
        unit_twists=((3,), (5,), (7,), (9,)),
    )
    assert out["binary_products_generate"]


def test_kw_hw_generators_with_a_non_unit_twist_fail():
    # t_0 scaled by 2 makes x_1 = 2 t_0, whose coefficient is no unit
    out, _ = kw_hw_generators_check("real_closed", imax=2, modulus_bits=8,
                                    unit_twists=((2,), (1,), (1,)))
    assert out["unit_coefficients"][1] == [2]
    assert out["binary_products_generate"] is False


def test_kw_hw_lift_certificate_fails_on_a_non_unit_twist():
    # x_1 = 2 t_0, and multiplication by 2 is no filtered iso of W/2^8
    out, _ = kw_hw_generators_check("real_closed", imax=2, modulus_bits=8,
                                    unit_twists=((2,), (1,), (1,)))
    assert out["lift_certificate_ok"] is False


def test_kw_hw_lift_certificate_fails_on_a_vanishing_product():
    # t_0 scaled by 0 kills x_1 and x_3: they have no coefficient to lift
    out, _ = kw_hw_generators_check("real_closed", imax=2, modulus_bits=8,
                                    unit_twists=((0,), (1,), (1,)))
    assert sorted(out["unit_coefficients"]) == [0, 2, 4]
    assert out["lift_certificate_ok"] is False


def count_lemma_suites(monkeypatch) -> list:
    calls = []
    suite = filtered.filtered_lemma_suite

    def counted(src, tgt, mat):
        calls.append(mat)
        return suite(src, tgt, mat)

    monkeypatch.setattr(filtered, "filtered_lemma_suite", counted)
    return calls


def test_kw_hw_lift_certificate_lifts_each_product_coefficient(monkeypatch):
    # twisted t_i give 9 distinct unit coefficients for x_0..x_8: one suite each
    calls = count_lemma_suites(monkeypatch)
    out, _ = kw_hw_generators_check("real_closed", imax=3, modulus_bits=8,
                                    unit_twists=((3,), (5,), (7,), (9,)))
    assert len({tuple(c) for c in out["unit_coefficients"].values()}) == 9
    assert out["lift_certificate_ok"] is True
    assert len(calls) == 9


def test_kw_hw_check_builds_its_ring_once(monkeypatch):
    built, lifted, algebras = [], [], []
    init, lift, build = FilteredRing.__init__, kwcalc.lift_free_basis, kwcalc.kw_hw_algebra

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recorded_lift(ring, *args):
        lifted.append(ring)
        return lift(ring, *args)

    def recorded_build(*args):
        algebras.append(build(*args))
        return algebras[-1]

    monkeypatch.setattr(FilteredRing, "__init__", counted_init)
    monkeypatch.setattr(kwcalc, "lift_free_basis", recorded_lift)
    monkeypatch.setattr(kwcalc, "kw_hw_algebra", recorded_build)
    out, _ = kw_hw_generators_check("F5", imax=3, modulus_bits=5)
    assert out["lift_certificate_ok"] is True
    [(alg, _)] = algebras
    assert built == [alg.coefficients]
    assert lifted and all(ring is alg.coefficients for ring in lifted)


@pytest.mark.parametrize("name", ["F5", "Z_half"])
def test_finite_ring_units_match_an_inverse_search(name):
    finite = FilteredRing.from_witt_mod2k(catalog_lookup(name), 3)
    elements = list(finite.elements())
    verdicts = set()
    for c in elements:
        has_inverse = any(finite.mul(c, x) == finite.one for x in elements)
        assert finite.is_unit(c) == has_inverse, c
        verdicts.add(has_inverse)
    assert verdicts == {True, False}
