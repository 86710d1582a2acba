from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from etasphere.abelian import FinAbGroup
from etasphere.filtered import (
    FilteredComponent,
    FilteredModule,
    FilteredMorphism,
    FilteredRModule,
    FilteredRing,
    FiniteRing,
    HypothesisViolated,
    NotFree,
    filtered_lemma_suite,
    gr_of_filtration,
    lift_free_basis,
    solve_module_coefficients,
)
from etasphere.witt import catalog_lookup, catalog_names


def two_adic_component(bits: int) -> FilteredComponent:
    """Z/2^bits with the 2-adic chain 2^s."""
    chain = [[[2**s]] for s in range(bits)] + [[[2**bits]]]
    return FilteredComponent(1, [[2**bits]], chain)


def test_gr_of_two_adic_filtration():
    # W(real closed) = Z with the I-adic = 2-adic filtration: gr^s = Z/2,
    # modelled on the finite shadow Z/2^6
    comp = two_adic_component(6)
    module = FilteredModule({0: comp})
    pieces = gr_of_filtration(module)
    for s in range(6):
        group, gens = pieces[(0, s)]
        assert group == FinAbGroup(0, [2]), s
        assert gens[0] == [2**s]


def test_gr_trivial_filtration():
    # F^0 = M, F^1 = 0: gr^0 = M
    comp = FilteredComponent(2, [[3, 0], [0, 9]],
                             [[[1, 0], [0, 1]], [[3, 0], [0, 9]]])
    pieces = gr_of_filtration(FilteredModule({0: comp}))
    group, _ = pieces[(0, 0)]
    assert group == FinAbGroup(0, [3, 9])


def test_gr_augmentation_filtration_polynomial():
    # degree-1 part of Z[x] with the augmentation-ideal filtration:
    # F^0 = F^1 = Z{x}, F^2 = 0; gr^1 is free of rank 1 on x
    comp = FilteredComponent(1, [], [[[1]], [[1]], [[0]]])
    pieces = gr_of_filtration(FilteredModule({1: comp}))
    assert pieces[(1, 0)][0].is_trivial()
    assert pieces[(1, 1)][0] == FinAbGroup(1, [])


def test_gr_symmetric_powers_of_indecomposables():
    # dimension count for gr^s of the augmentation filtration on F2[u, v]:
    # the degree-d component (all generators in degree 1) has gr^s = Sym^s
    # concentrated in s = d, of dimension d+1
    for d in range(1, 5):
        monomials = [(i, d - i) for i in range(d + 1)]  # u^i v^(d-i)
        n = len(monomials)
        full = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        chain = [full] * (d + 1) + [[[0] * n]]
        comp = FilteredComponent(n, [], chain)
        pieces = gr_of_filtration(FilteredModule({d: comp}))
        for s in range(d + 1):
            group, _ = pieces[(d, s)]
            if s == d:
                assert group == FinAbGroup(n, [])
                assert n == d + 1
            else:
                assert group.is_trivial()


def test_validation_catches_bad_chains():
    with pytest.raises(HypothesisViolated):
        FilteredComponent(1, [[8]], [[[2]], [[8]]]).validate()  # F^0 proper
    with pytest.raises(HypothesisViolated):
        FilteredComponent(1, [[8]], [[[1]], [[2]], [[1]]]).validate()  # not descending
    with pytest.raises(HypothesisViolated):
        FilteredComponent(1, [[8]], [[[1]], [[4]]]).validate()  # not Hausdorff


def test_lemma_suite_identity():
    comp = two_adic_component(4)
    module = FilteredModule({0: comp})
    alpha = FilteredMorphism(module, module, {0: [[1]]})
    report = filtered_lemma_suite(alpha)
    assert report["gr_iso"]
    assert report["alpha_filtered_iso"]
    assert report["alpha_injective"]
    assert report["alpha_surjective_each_level"]


def test_lemma_suite_multiplication_by_two_shifted_target():
    # Z --2--> 2Z with the target filtration shifted: finite shadow on Z/2^8,
    # target modelled as the abstract group Z/2^8 with F'^s = <2^s . t>,
    # t = [2].  gr-iso must force a filtered iso.
    bits = 8
    src = two_adic_component(bits)
    tgt = two_adic_component(bits)
    module_s = FilteredModule({0: src})
    module_t = FilteredModule({0: tgt})
    alpha = FilteredMorphism(module_s, module_t, {0: [[1]]})
    report = filtered_lemma_suite(alpha)
    assert report["gr_iso"] and report["alpha_filtered_iso"]

    # the honest non-example: multiplication by 2 into the unshifted target
    # lands in one filtration step higher, so it vanishes on gr and neither
    # hypothesis applies
    beta = FilteredMorphism(module_s, module_t, {0: [[2]]})
    report2 = filtered_lemma_suite(beta)
    assert not report2["gr_surjective"]
    assert not report2["gr_injective"]


def test_lemma_suite_surjection_z8_to_z2():
    # Z/8 -> Z/2 with 2-adic filtrations: gr-surjection lifts to a
    # surjection and gr ker = ker gr, checked exhaustively by lattices
    src = two_adic_component(3)   # Z/8, chain 1,2,4,8
    tgt = two_adic_component(1)   # Z/2, chain 1,2
    alpha = FilteredMorphism(
        FilteredModule({0: src}), FilteredModule({0: tgt}), {0: [[1]]}
    )
    report = filtered_lemma_suite(alpha)
    assert report["gr_surjective"]
    assert report["alpha_surjective_each_level"]
    assert report["kernel_gr_matches"]


def z_mod_2k_ring(bits: int) -> FilteredRing:
    ring = FiniteRing([2**bits], [[[1]]], [1], name=f"Z/2^{bits}")
    chains = [[[2**s]] for s in range(1, bits + 1)]
    return FilteredRing(ring, chains)


def test_lift_free_basis_trivial():
    # gr basis {1} of the 2-adically filtered Z/2^K model lifts to basis {1}
    ring = z_mod_2k_ring(5)
    module = FilteredRModule(ring)
    module.add_component(0, [2**5], [[[1]]], [[[2**s]] for s in range(1, 6)])
    cert = lift_free_basis(module, [(0, 0, [1])])
    assert cert.ok
    assert cert.lifts == [(0, 0, [1])]


def test_lift_free_basis_rejects_non_basis():
    ring = z_mod_2k_ring(4)
    module = FilteredRModule(ring)
    module.add_component(0, [2**4], [[[1]]], [[[2**s]] for s in range(1, 5)])
    with pytest.raises(NotFree):
        lift_free_basis(module, [(0, 0, [2])])  # 2 is not a gr^0-generator


def test_two_lifts_differ_by_unit_triangular_transition():
    ring = z_mod_2k_ring(6)
    module = FilteredRModule(ring)
    module.add_component(4, [2**6], [[[1]]], [[[2**s]] for s in range(1, 7)])
    lift_a = [1]
    lift_b = [1 + 2]  # same gr^0 class modulo F^1? 1+2 = 3: 3 = 1 mod 2
    cert_a = lift_free_basis(module, [(4, 0, lift_a)])
    cert_b = lift_free_basis(module, [(4, 0, lift_b)])
    assert cert_a.ok and cert_b.ok
    coeffs = solve_module_coefficients(module, 4, [lift_a], lift_b)
    assert coeffs is not None
    c = coeffs[0][0]
    assert c % 2 == 1  # unit diagonal: the transition is 1 + (filtration >= 1)


def test_lift_free_basis_witt_mod_2k():
    # the same machinery over W(Z[1/2])/2^K with the I-adic chain
    pres = catalog_lookup("Z_half")
    ring = FilteredRing.from_witt_mod2k(pres, 5)
    module = FilteredRModule(ring)
    n = ring.ring.n
    action = [[list(pres.mult_table[i][j]) for j in range(n)] for i in range(n)]
    module.add_component(
        0,
        ring.ring.orders,
        action,
        [lvl[: len(lvl)] for lvl in (ring.chain[s] for s in range(1, len(ring.chain)))],
    )
    unit = list(pres.unit)
    cert = lift_free_basis(module, [(0, 0, unit)])
    assert cert.ok


def test_gr_tensor_of_filtered_f2_modules():
    """gr(M tensor M') = gr(M) tensor gr(M') for F2 coefficients."""
    rng = random.Random(11)

    def random_filtered_f2(dim: int, depth: int):
        rel = [[2 if i == j else 0 for i in range(dim)] for j in range(dim)]
        full = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)] + rel
        chain = [full]
        current = list(range(dim))
        for _ in range(depth):
            keep = [i for i in current if rng.random() < 0.6]
            chain.append([[1 if i == j else 0 for i in range(dim)] for j in keep] + rel)
            current = keep
        chain.append(rel)
        return FilteredComponent(dim, rel, chain)

    def gr_dims(comp):
        out = []
        for s in range(len(comp.chain) - 1):
            g, _ = comp.gr(s)
            order = g.order()
            out.append(0 if order is None else order.bit_length() - 1)
        return out

    for _ in range(10):
        m = random_filtered_f2(rng.randint(1, 3), rng.randint(1, 3))
        mp = random_filtered_f2(rng.randint(1, 3), rng.randint(1, 3))
        m.validate()
        mp.validate()
        dims_m, dims_mp = gr_dims(m), gr_dims(mp)
        # tensor component: generators e_i x f_j with the convolution filtration
        dim = m.ngens * mp.ngens
        rel = [[2 if i == j else 0 for i in range(dim)] for j in range(dim)]

        def kron(u, v):
            return [a * b for a in u for b in v]

        depth = len(m.chain) + len(mp.chain) - 1
        chain = []
        for s in range(depth):
            gens = list(rel)
            for a in range(min(s, len(m.chain) - 1), -1, -1):
                b = min(s - a, len(mp.chain) - 1)
                if a + b >= s:
                    for u in m.chain[a]:
                        for v in mp.chain[b]:
                            gens.append(kron(u, v))
            chain.append(gens)
        tensor = FilteredComponent(dim, rel, chain)
        tensor.validate()
        dims_t = gr_dims(tensor)
        expected = [0] * (len(dims_t))
        for a, da in enumerate(dims_m):
            for b, db in enumerate(dims_mp):
                if a + b < len(expected):
                    expected[a + b] += da * db
        assert dims_t == expected, (dims_m, dims_mp, dims_t, expected)


@given(st.sampled_from(catalog_names()), st.data())
def test_witt_mod_2k_ring_axioms(name, data):
    # the axioms AlgebraSpec relies on when W/2^6 is its coefficient ring
    ring = FiniteRing.from_witt_mod2k(catalog_lookup(name), 6)
    element = st.tuples(*(st.integers(0, d - 1) for d in ring.orders))
    x, y, z = data.draw(element), data.draw(element), data.draw(element)
    add, mul = ring.add, ring.mul
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(x, y) == mul(y, x)
    assert add(x, y) == add(y, x)
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(ring.one, x) == x
    assert add(ring.zero, x) == x
    assert mul(ring.zero, x) == ring.zero
    assert ring.is_zero(add(x, ring.neg(x)))
    assert ring.is_zero(ring.zero) and not ring.is_zero(ring.one)
