"""Acceptance suite: one criterion per test, one pass/fail line each.

Every assertion is exact (integer or F2 linear algebra); the stated wall
clock budgets are enforced with `time.perf_counter`.
"""

from __future__ import annotations

import time

from etasphere.abelian import FinAbGroup
from etasphere.kwcalc import (
    abstract_phi_report,
    divided_power_construct,
    eta_stems,
    hopf_constants,
    normal_order,
    nu2,
)
from etasphere.steenrod import (
    SteenrodAlgebra,
    action_table_ok,
    bockstein_pages,
    check_coassociativity_counit,
    hopf_weight,
    ko_homology_model,
    tau_monomial_homology_dims,
)
from etasphere.witt import brute_force_witt_ring, catalog_lookup, find_ring_isomorphism


def report(number: int, label: str, ok: bool, seconds: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label} ({seconds:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert seconds < budget, f"criterion {number} exceeded {budget}s: {seconds:.2f}s"


def test_criterion_1_eta_stems_quadratically_closed():
    started = time.perf_counter()
    table = eta_stems("quadratically_closed", 40)
    ok = table.entries[0].summands[0][0] == "W(quadratically_closed)"
    z2 = FinAbGroup(0, [2])
    for degree in range(1, 41):
        group = table.entries[degree].group()
        n, r = divmod(degree, 4)
        if degree > 0 and (r == 0 or r == 3):
            ok &= group == z2
        else:
            ok &= group.is_trivial()
    report(1, "eta-stems over a quadratically closed field, degrees <= 40",
           ok, time.perf_counter() - started, 1.0)


def test_criterion_2_eta_stems_real_closed():
    started = time.perf_counter()
    table = eta_stems("real_closed", 20)
    ok = True
    for degree in range(1, 21):
        entry = table.entries[degree]
        two = entry.group().primary_part(2)
        if degree % 4 == 3:
            n = (degree + 1) // 4
            ok &= two == FinAbGroup(0, [2 ** (3 + nu2(n))])
        else:
            ok &= two.is_trivial()
        ok &= not any(lbl.startswith("ker(") for lbl, _ in entry.summands)
    ok &= table.entries[7].group() == FinAbGroup.from_divisors(0, [16, 15])
    report(2, "eta-stems over a real closed field: 2-torsion Z/2^(3+nu2(n)), "
              "no kernels, odd parts from the table",
           ok, time.perf_counter() - started, 1.0)


def test_criterion_3_valuation_identity_to_2_16():
    started = time.perf_counter()
    ok = True
    power = 9  # 9^n tracked incrementally: one multiply per step
    for n in range(1, 2**16 + 1):
        value = power - 1
        if (value & -value).bit_length() - 1 != 3 + ((n & -n).bit_length() - 1):
            ok = False
            break
        power *= 9
    report(3, "nu2(9^n - 1) = nu2(8n) for all n <= 2^16 by exact bigints",
           ok, time.perf_counter() - started, 10.0)


def test_criterion_4_derivation_lemma_f2_and_rationals():
    from etasphere.graded import F2, RationalRing
    started = time.perf_counter()
    partitions_parts_ge_2 = {
        d: _partitions_min2(d) for d in range(1, 15)
    }
    ok = True
    for ring in (F2(), RationalRing()):
        out = abstract_phi_report(14, ring)
        ok &= out["surjective"]
        for d in range(1, 15):
            ok &= out["kernel_dims"][d] == partitions_parts_ge_2[d]
    report(4, "phi on A0[x1, ...] surjective (F2 and Q) with kernel dims = "
              "partitions into parts >= 2, degrees <= 14",
           ok, time.perf_counter() - started, 10.0)


def _partitions_min2(n: int) -> int:
    counts = [0] * (n + 1)
    counts[0] = 1
    for p in range(2, n + 1):
        for v in range(p, n + 1):
            counts[v] += counts[v - p]
    return counts[n]


def test_criterion_5_ko_model_delta_homology():
    started = time.perf_counter()
    ok = True
    for base in ("real_closed", "quadratically_closed"):
        model = ko_homology_model(base, truncation=18)
        model.check_delta_squared(16)
        expected = tau_monomial_homology_dims(model, smax=16, wmin=-16, wmax=4)
        for s in range(0, 17):
            for w in range(-16, 5):
                ok &= len(model.cell_homology(s, w)[1]) == expected.get((s, w), 0)
    # positive-degree homology of the pure-xi complex vanishes
    from etasphere.graded import (
        AlgebraSpec,
        Derivation,
        F2,
        GeneratorSpec,
        homology_at_degree,
    )
    algebra = AlgebraSpec(
        [GeneratorSpec("x1", 2), GeneratorSpec("xi2", 3), GeneratorSpec("xi3", 7)],
        F2(),
        13,
    )
    delta = Derivation(
        algebra,
        -1,
        {
            "x1": algebra.zero(),
            "xi2": algebra.gen("x1"),
            "xi3": algebra.gen("xi2") * algebra.gen("xi2"),
        },
    )
    for n in range(1, 13):
        ok &= homology_at_degree(delta, n).homology_dim == 0
    ok &= homology_at_degree(delta, 0).homology_dim == 1
    report(5, "ko-model delta-homology = k^M[tau_2, ...] cellwise, and the "
              "xi-part is acyclic in positive degrees (weight <= 16)",
           ok, time.perf_counter() - started, 30.0)


def test_criterion_6_action_table_coassoc_weight_12():
    started = time.perf_counter()
    ok = True
    for base in ("real_closed", "quadratically_closed", "finite_field_3mod4"):
        alg = SteenrodAlgebra(base, hopf_weight(12))
        ok &= action_table_ok(alg)[0]
        ok &= check_coassociativity_counit(alg, 12) > 0
        model = ko_homology_model(base, truncation=14)
        model.check_delta_squared(12)  # raises on failure
    report(6, "full dual-action table from contraction; delta^2 = 0; "
              "coassociativity and counit within weight 12",
           ok, time.perf_counter() - started, 120.0)


def test_criterion_7_operator_identity_n_50():
    started = time.perf_counter()
    ok = True
    for n in range(1, 51):
        result = normal_order(["phi"] + ["beta"] * n)
        ok &= result.terms == {(n, 1): 9**n, (n - 1, 0): 9**n - 1}
    report(7, "normal_order(phi beta^n) = 9^n beta^n phi + (9^n - 1) beta^(n-1), n <= 50",
           ok, time.perf_counter() - started, 5.0)


def test_criterion_8_hopf_recursion_mod_8():
    started = time.perf_counter()
    out = hopf_constants(24, 24)
    ok = out["matches_binomials"]
    from math import comb
    for i in range(25):
        for j in range(25):
            if i + j <= 24:
                ok &= out["table"][f"{i},{j}"] == comb(i + j, i) % 8
    report(8, "Hopf recursion a_ij = binom(i+j, i) mod 8 for i + j <= 24",
           ok, time.perf_counter() - started, 5.0)


def test_criterion_9_divided_powers_two_unit_choices():
    started = time.perf_counter()
    ok = True
    for units in [(1, 1, 1, 1, 1), (3, 5, 7, 9, 11)]:
        out, _ = divided_power_construct(16, modulus_bits=8, units=units, imax=5)
        ok &= out["certificate"] and out["squares_normalized"]
    report(9, "divided-power certificate x_m x_n = binom(m+n, n) x_(m+n) mod 2^8, "
              "m + n <= 16, two unit choices",
           ok, time.perf_counter() - started, 10.0)


def test_criterion_10_witt_oracle_and_bockstein_collapse():
    started = time.perf_counter()
    ok = True
    for q, name in ((3, "F3"), (5, "F5"), (7, "F7")):
        brute = brute_force_witt_ring(q)
        ok &= find_ring_isomorphism(catalog_lookup(name), brute) is not None
    model = ko_homology_model("real_closed", truncation=18)
    _, e2, collapse = bockstein_pages(model, smax=16, fmax=3, wmin=-18, wmax=2)
    ok &= collapse["f_positive_stems_mod_4"]
    ok &= collapse["collapses"]
    ok &= any(f > 0 and s % 4 == 0 for (s, f, w) in e2.entries)
    report(10, "brute-force Witt rings isomorphic to catalog (F3, F5, F7); "
               "E2 f > 0 cells only in stems = 0 mod 4 up to s = 16",
           ok, time.perf_counter() - started, 60.0)
