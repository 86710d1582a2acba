from __future__ import annotations

import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from etasphere import filtered
from etasphere.abelian import FinAbGroup, counting_function, quotient_structure
from etasphere.filtered import (
    FilteredComponent,
    FilteredRing,
    HypothesisViolated,
    NotFree,
    filtered_lemma_suite,
    lift_free_basis,
)
from etasphere.kwcalc import kw_hw_generators_check
from etasphere.witt import catalog_lookup, catalog_names


def gr(comp: FilteredComponent, s: int):
    """gr^s = F^s / F^(s+1) as a group and its generators."""
    return quotient_structure(comp.ngens, comp.level(s), comp.level(s + 1))


def two_adic_component(bits: int) -> FilteredComponent:
    """Z/2^bits with the 2-adic chain 2^s."""
    chain = [[[2**s]] for s in range(bits)] + [[[2**bits]]]
    return FilteredComponent(1, [[2**bits]], chain)


def test_gr_of_two_adic_filtration():
    # W(real closed) = Z with the I-adic = 2-adic filtration: gr^s = Z/2,
    # modelled on the finite shadow Z/2^6
    comp = two_adic_component(6)
    comp.validate()
    for s in range(6):
        group, gens = gr(comp, s)
        assert group == FinAbGroup(0, [2]), s
        assert gens[0] == [2**s]


def test_gr_trivial_filtration():
    # F^0 = M, F^1 = 0: gr^0 = M
    comp = FilteredComponent(2, [[3, 0], [0, 9]],
                             [[[1, 0], [0, 1]], [[3, 0], [0, 9]]])
    comp.validate()
    group, _ = gr(comp, 0)
    assert group == FinAbGroup(0, [3, 9])


def test_gr_augmentation_filtration_polynomial():
    # degree-1 part of Z[x] with the augmentation-ideal filtration:
    # F^0 = F^1 = Z{x}, F^2 = 0; gr^1 is free of rank 1 on x
    comp = FilteredComponent(1, [], [[[1]], [[1]], [[0]]])
    comp.validate()
    assert gr(comp, 0)[0].is_trivial()
    assert gr(comp, 1)[0] == FinAbGroup(1, [])


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
        comp.validate()
        for s in range(d + 1):
            group, _ = gr(comp, s)
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
    with pytest.raises(HypothesisViolated):
        FilteredComponent.finite([8], [[[2]]])  # F^last = 2Z/8 is not zero


def test_lemma_suite_identity():
    comp = two_adic_component(4)
    report = filtered_lemma_suite(comp, comp, [[1]])
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
    report = filtered_lemma_suite(src, tgt, [[1]])
    assert report["gr_iso"] and report["alpha_filtered_iso"]

    # the honest non-example: multiplication by 2 into the unshifted target
    # lands in one filtration step higher, so it vanishes on gr and neither
    # hypothesis applies
    report2 = filtered_lemma_suite(src, tgt, [[2]])
    assert not report2["gr_surjective"]
    assert not report2["gr_injective"]


def test_lemma_suite_surjection_z8_to_z2():
    # Z/8 -> Z/2 with 2-adic filtrations: gr-surjection lifts to a
    # surjection and gr ker = ker gr, checked exhaustively by lattices
    src = two_adic_component(3)   # Z/8, chain 1,2,4,8
    tgt = two_adic_component(1)   # Z/2, chain 1,2
    report = filtered_lemma_suite(src, tgt, [[1]])
    assert report["gr_surjective"]
    assert report["alpha_surjective_each_level"]
    assert report["kernel_gr_matches"]


def test_lemma_suite_checks_its_hypotheses_first():
    src = two_adic_component(3)  # Z/8, chain 1, 2, 4, 8
    coarse = FilteredComponent(1, [[8]], [[[1]], [[4]], [[8]]])
    bad_chain = FilteredComponent(1, [[8]], [[[1]], [[4]]])  # not Hausdorff
    with pytest.raises(HypothesisViolated, match="shape"):
        filtered_lemma_suite(src, src, [[1, 0]])
    with pytest.raises(HypothesisViolated, match="Hausdorff"):
        filtered_lemma_suite(src, bad_chain, [[1]])
    with pytest.raises(HypothesisViolated, match="level 1"):
        filtered_lemma_suite(src, coarse, [[1]])  # F^1 = 2Z/8 is not inside 4Z/8
    assert filtered_lemma_suite(coarse, src, [[1]])["gr_surjective"] is False


def z_mod_2k_ring(bits: int) -> FilteredRing:
    chains = [[[2**s]] for s in range(1, bits + 1)]
    return FilteredRing([2**bits], [[[1]]], [1], chains, name=f"Z/2^{bits}")


def test_lift_free_basis_trivial():
    # gr basis {1} of the 2-adically filtered Z/2^K model lifts to basis {1}
    ring = z_mod_2k_ring(5)
    module = FilteredComponent.finite([2**5], [[[2**s]] for s in range(1, 6)])
    assert lift_free_basis(ring, module, [[[1]]], [(0, [1])])


def test_lift_free_basis_rejects_non_basis():
    ring = z_mod_2k_ring(4)
    module = FilteredComponent.finite([2**4], [[[2**s]] for s in range(1, 5)])
    with pytest.raises(NotFree):
        lift_free_basis(ring, module, [[[1]]], [(0, [2])])  # 2 is not a gr^0-generator


def test_two_lifts_differ_by_unit_triangular_transition():
    ring = z_mod_2k_ring(6)
    module = FilteredComponent.finite([2**6], [[[2**s]] for s in range(1, 7)])
    lift_a = [1]
    lift_b = [1 + 2]  # same gr^0 class modulo F^1? 1+2 = 3: 3 = 1 mod 2
    cert_a = lift_free_basis(ring, module, [[[1]]], [(0, lift_a)])
    cert_b = lift_free_basis(ring, module, [[[1]]], [(0, lift_b)])
    assert cert_a and cert_b
    coeffs = [c for c in ring.elements() if ring.mul(c, lift_a) == tuple(lift_b)]
    assert coeffs == [(3,)]  # unit diagonal: the transition 3 is 1 + (filtration >= 1)


def test_lift_free_basis_returns_false_when_lifts_are_not_a_basis():
    # gr(Z/4) with the chain (2), (4) is F2[t]/t^2, which is no free module over
    # gr of the 2-adically filtered Z/16, F2[t]/t^4: gr^2 and gr^3 of the free
    # module on the class of 1 map to zero
    ring = z_mod_2k_ring(4)
    module = FilteredComponent.finite([4], [[[2]], [[4]]])
    with pytest.raises(NotFree):
        lift_free_basis(ring, module, [[[1]]], [(0, [1])])


@pytest.mark.parametrize("name", catalog_names())
def test_lift_free_basis_witt_mod_2k(name):
    # the same machinery over W(F)/2^K with the I-adic chain, as kwcalc builds it
    pres = catalog_lookup(name)
    ring = FilteredRing.from_witt_mod2k(pres, 5)
    assert lift_free_basis(ring, ring.filtration, ring.mult_table, [(0, list(pres.unit))])


@pytest.mark.parametrize("imax", [3, 5])
def test_kwhw_certificate_runs_the_lemma_suite_once(monkeypatch, imax):
    # the 2^imax + 1 components kwhw adds are identical, so one suite call
    # certifies all of them, whatever imax is
    calls = []
    suite = filtered.filtered_lemma_suite

    def counted(src, tgt, mat):
        calls.append(mat)
        return suite(src, tgt, mat)

    monkeypatch.setattr(filtered, "filtered_lemma_suite", counted)
    out, _ = kw_hw_generators_check("Z_half", imax, 8)
    assert out["lift_certificate_ok"] is True
    assert len(calls) == 1


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
            g, _ = gr(comp, s)
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
    ring = FilteredRing.from_witt_mod2k(catalog_lookup(name), 6)
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


# -- brute-force oracle for the lemma suite ------------------------------------

_DIVISORS = (1, 2, 4, 8)
_SMALL_GROUPS = [FinAbGroup(0, f) for f in
                 ([], [2], [4], [8], [2, 2], [2, 4], [2, 8], [4, 4], [4, 8], [8, 8])]


@st.composite
def _small_component(draw):
    """Z^g / diag(orders), g <= 2, orders in {2, 4, 8}, with a random
    descending chain: each level is spanned by combinations of the last."""
    g = draw(st.integers(1, 2))
    orders = draw(st.lists(st.sampled_from([2, 4, 8]), min_size=g, max_size=g))
    rel = [[d if i == j else 0 for i in range(g)] for j, d in enumerate(orders)]
    last = [[1 if i == j else 0 for i in range(g)] for j in range(g)]
    chain = [last + rel]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(last), max_size=len(last)),
                               min_size=1, max_size=2))
        last = [[sum(c * v[i] for c, v in zip(row, last)) for i in range(g)] for row in coeffs]
        chain.append(last + rel)
    chain.append(rel)
    return FilteredComponent(g, rel, chain), orders


def _subgroup(gens, orders) -> frozenset:
    """The subgroup of Z^g / diag(orders) generated by gens, by breadth-first search."""
    zero = tuple(0 for _ in orders)
    seen, frontier = {zero}, [zero]
    while frontier:
        new = []
        for x in frontier:
            for v in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, v, orders))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def _quotient_group(big, small, orders) -> FinAbGroup:
    """The group big / small, identified by counting elements killed by each m."""
    counts = {
        m: sum(1 for x in big if tuple(m * a % d for a, d in zip(x, orders)) in small) // len(small)
        for m in _DIVISORS
    }
    found = [g for g in _SMALL_GROUPS if counting_function(g, _DIVISORS) == counts]
    assert len(found) == 1, counts
    return found[0]


@settings(max_examples=150, deadline=None)
@given(_small_component(), _small_component(), st.data())
def test_lemma_suite_matches_element_enumeration(source, target, data):
    (src, src_orders), (tgt, tgt_orders) = source, target
    mat = data.draw(st.lists(
        st.lists(st.integers(0, 7), min_size=src.ngens, max_size=src.ngens),
        min_size=tgt.ngens, max_size=tgt.ngens,
    ))
    try:
        report = filtered_lemma_suite(src, tgt, mat)
    except HypothesisViolated:
        reject()

    def apply(x):
        return tuple(sum(r * c for r, c in zip(row, x)) % d for row, d in zip(mat, tgt_orders))

    depth = max(len(src.chain), len(tgt.chain)) - 1
    F = [_subgroup(src.level(s), src_orders) for s in range(depth + 2)]
    G = [_subgroup(tgt.level(s), tgt_orders) for s in range(depth + 2)]
    zero = tuple(0 for _ in tgt_orders)
    kernel = frozenset(x for x in F[0] if apply(x) == zero)
    # {x in F^s : alpha x in F'^(s+1)}, the kernel of gr^s(alpha) lifted to F^s
    lifted = [frozenset(x for x in F[s] if apply(x) in G[s + 1]) for s in range(depth)]
    surj = all(
        {tuple((a + b) % d for a, b, d in zip(apply(x), y, tgt_orders)) for x in F[s] for y in G[s + 1]}
        == G[s]
        for s in range(depth)
    )
    inj = all(lifted[s] <= F[s + 1] for s in range(depth))
    injective = kernel == {tuple(0 for _ in src_orders)}
    each_level = all({apply(x) for x in F[s]} == G[s] for s in range(depth + 1))
    kernel_match = all(
        _quotient_group(kernel & F[s], kernel & F[s + 1], src_orders)
        == _quotient_group(lifted[s], F[s + 1], src_orders)
        for s in range(depth)
    )
    expected = {
        "gr_iso": surj and inj,
        "gr_surjective": surj,
        "gr_injective": inj,
    }
    if surj:
        expected["alpha_surjective_each_level"] = each_level
        expected["kernel_gr_matches"] = kernel_match
    if inj:
        expected["alpha_injective"] = injective
    if surj and inj:
        expected["alpha_filtered_iso"] = injective and each_level
    assert report == expected
