"""Filtered modules at desk scale: gr, the comparison lemma suite, free lifts.

Every filtered object here is finite per degree in the following sense: a
degree component is Z^g modulo a relation lattice, and its filtration is a
finite descending chain of lattices that starts at everything and ends at
the relation lattice (so F^last = 0 in the quotient).  That finite shadow is
exactly what makes the gr-comparison lemmas checkable by direct computation:
complete/Hausdorff/exhaustive hold by construction and both sides of each
lemma reduce to exact lattice arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, prod

from .abelian import (
    FinAbGroup,
    _unit_vectors,
    lattice,
    lattice_intersection,
    mat_vec,
    preimage,
    quotient_structure,
)
from .witt import fundamental_ideal_power


class HypothesisViolated(ValueError):
    pass


class NotFree(ValueError):
    pass


# ---------------------------------------------------------------------------
# filtered modules over Z
# ---------------------------------------------------------------------------

@dataclass
class FilteredComponent:
    """One graded degree: Z^ngens / relations, filtered by a lattice chain."""

    ngens: int
    relations: list[list[int]]
    chain: list[list[list[int]]]  # chain[s] spans F^s (must contain relations)

    def validate(self):
        n = self.ngens
        full = _unit_vectors(n) + [list(r) for r in self.relations]
        if not self.chain:
            raise HypothesisViolated("empty filtration chain")
        if lattice(n, self.chain[0]) != lattice(n, full):
            raise HypothesisViolated("filtration not exhaustive: F^0 != everything")
        for s in range(len(self.chain) - 1):
            if not lattice(n, self.chain[s + 1]) <= lattice(n, self.chain[s]):
                raise HypothesisViolated(f"F^{s + 1} not contained in F^{s}")
        if lattice(n, self.chain[-1]) != lattice(n, self.relations):
            raise HypothesisViolated("filtration not Hausdorff within truncation")

    def level(self, s: int) -> list[list[int]]:
        """F^s, extending the chain constantly past its end."""
        if s < 0:
            s = 0
        return self.chain[min(s, len(self.chain) - 1)]

    def gr(self, s: int) -> tuple[FinAbGroup, list[list[int]]]:
        return quotient_structure(self.ngens, self.level(s), self.level(s + 1))

    def group(self) -> FinAbGroup:
        g, _ = quotient_structure(self.ngens, self.chain[0], self.relations)
        return g


@dataclass
class FilteredModule:
    components: dict[int, FilteredComponent] = field(default_factory=dict)

    def validate(self):
        for comp in self.components.values():
            comp.validate()

    def degrees(self):
        return sorted(self.components)


def gr_of_filtration(module: FilteredModule) -> dict:
    """Associated graded pieces: (degree, s) -> (FinAbGroup, generator coords)."""
    module.validate()
    out = {}
    for n, comp in module.components.items():
        for s in range(len(comp.chain) - 1):
            out[(n, s)] = comp.gr(s)
    return out


@dataclass
class FilteredMorphism:
    source: FilteredModule
    target: FilteredModule
    matrices: dict[int, list[list[int]]]

    def validate(self):
        self.source.validate()
        self.target.validate()
        for n, mat in self.matrices.items():
            src = self.source.components[n]
            tgt = self.target.components[n]
            if len(mat) != tgt.ngens or any(len(r) != src.ngens for r in mat):
                raise HypothesisViolated(f"matrix shape mismatch in degree {n}")
            depth = max(len(src.chain), len(tgt.chain))
            for s in range(depth):
                level = lattice(tgt.ngens, tgt.level(s))
                for g in src.level(s):
                    if mat_vec(mat, list(g)) not in level:
                        raise HypothesisViolated(
                            f"map does not respect filtration at degree {n}, level {s}"
                        )


def _image_lattice(mat, gens):
    return [mat_vec(mat, list(g)) for g in gens]


def _gr_map_surjective(mat, src: FilteredComponent, tgt: FilteredComponent, s: int) -> bool:
    img = _image_lattice(mat, src.level(s)) + [list(g) for g in tgt.level(s + 1)]
    return lattice(tgt.ngens, img) == lattice(tgt.ngens, tgt.level(s))


def _preimage_lattice(mat, tgt_lattice, src_dim, tgt_dim):
    """{x in Z^src : mat x in tgt_lattice} as a lattice."""
    images = [[mat[i][j] for i in range(tgt_dim)] for j in range(src_dim)]
    return [p for p in preimage(tgt_dim, images, tgt_lattice) if any(p)]


def _gr_map_injective(mat, src: FilteredComponent, tgt: FilteredComponent, s: int) -> bool:
    pre = _preimage_lattice(mat, tgt.level(s + 1), src.ngens, tgt.ngens)
    inside = lattice_intersection(src.ngens, pre, src.level(s)) if pre else []
    level = lattice(src.ngens, src.level(s + 1))
    return all(v in level for v in inside)


def filtered_lemma_suite(alpha: FilteredMorphism) -> dict:
    """Evaluate gr(alpha) degreewise and re-verify the lemma conclusions.

    Returns a report with, per lemma, whether the gr-hypothesis holds and
    whether the corresponding conclusion about alpha itself was verified by
    direct lattice computation.
    """
    alpha.validate()
    report = {
        "gr_iso": True,
        "gr_surjective": True,
        "gr_injective": True,
        "per_degree": {},
    }
    for n, mat in alpha.matrices.items():
        src = alpha.source.components[n]
        tgt = alpha.target.components[n]
        depth = max(len(src.chain), len(tgt.chain)) - 1
        surj = all(_gr_map_surjective(mat, src, tgt, s) for s in range(depth))
        inj = all(_gr_map_injective(mat, src, tgt, s) for s in range(depth))
        report["per_degree"][n] = {"gr_surjective": surj, "gr_injective": inj}
        report["gr_surjective"] &= surj
        report["gr_injective"] &= inj
    report["gr_iso"] = report["gr_surjective"] and report["gr_injective"]

    # conclusions, re-verified on alpha itself
    if report["gr_surjective"]:
        ok = True
        for n, mat in alpha.matrices.items():
            src = alpha.source.components[n]
            tgt = alpha.target.components[n]
            depth = max(len(src.chain), len(tgt.chain)) - 1
            for s in range(depth + 1):
                img = _image_lattice(mat, src.level(s)) + [list(g) for g in tgt.relations]
                if lattice(tgt.ngens, img) != lattice(tgt.ngens, tgt.level(s)):
                    ok = False
        report["alpha_surjective_each_level"] = ok

        # gr(ker) = ker(gr)
        kernel_match = True
        for n, mat in alpha.matrices.items():
            src = alpha.source.components[n]
            tgt = alpha.target.components[n]
            depth = max(len(src.chain), len(tgt.chain)) - 1
            ker = _preimage_lattice(mat, tgt.relations, src.ngens, tgt.ngens)
            ker_full = ker + [list(r) for r in src.relations]
            for s in range(depth):
                k_s = lattice_intersection(src.ngens, ker_full, src.level(s)) or []
                k_s1 = lattice_intersection(src.ngens, ker_full, src.level(s + 1)) or []
                gr_ker, _ = quotient_structure(src.ngens, k_s + k_s1, k_s1)
                pre = _preimage_lattice(mat, tgt.level(s + 1), src.ngens, tgt.ngens)
                num = lattice_intersection(src.ngens, pre, src.level(s)) if pre else []
                ker_gr, _ = quotient_structure(
                    src.ngens,
                    (num or []) + src.level(s + 1),
                    src.level(s + 1),
                )
                if gr_ker != ker_gr:
                    kernel_match = False
        report["kernel_gr_matches"] = kernel_match

    if report["gr_injective"]:
        ok = True
        for n, mat in alpha.matrices.items():
            src = alpha.source.components[n]
            tgt = alpha.target.components[n]
            ker = _preimage_lattice(mat, tgt.relations, src.ngens, tgt.ngens)
            rel = lattice(src.ngens, src.relations)
            if any(v not in rel for v in ker):
                ok = False
        report["alpha_injective"] = ok

    if report["gr_iso"]:
        ok = report.get("alpha_injective", False) and report.get(
            "alpha_surjective_each_level", False
        )
        # filtered iso also needs alpha(F^s) = F'^s on the nose
        for n, mat in alpha.matrices.items():
            src = alpha.source.components[n]
            tgt = alpha.target.components[n]
            depth = max(len(src.chain), len(tgt.chain))
            for s in range(depth):
                img = _image_lattice(mat, src.level(s)) + [list(g) for g in tgt.relations]
                if lattice(tgt.ngens, img) != lattice(tgt.ngens, tgt.level(s)):
                    ok = False
        report["alpha_filtered_iso"] = ok
    return report


# ---------------------------------------------------------------------------
# finite filtered rings and modules (for the free-lifting corollary)
# ---------------------------------------------------------------------------

class FiniteRing:
    """Finite commutative ring on generators with given additive orders.

    Elements are reduced coordinate tuples.  The ring is also a coefficient
    ring for `graded.AlgebraSpec` (W/2^K for the completed Witt models).
    """

    xor_terms = False

    def __init__(self, orders, mult_table, unit, name="R"):
        self.orders = list(orders)
        self.n = len(orders)
        self.mult_table = [
            [self.reduce(mult_table[i][j]) for j in range(self.n)] for i in range(self.n)
        ]
        self.zero = (0,) * self.n
        self.one = self.reduce(unit)
        self.name = name

    def reduce(self, coords):
        return tuple(c % d for c, d in zip(coords, self.orders))

    def neg(self, a):
        return self.reduce([-x for x in a])

    def is_zero(self, a):
        return not any(self.reduce(a))

    def degrees(self, a):
        return {0}

    def describe(self, a):
        return str(list(a))

    def relations(self):
        cols = []
        for i, d in enumerate(self.orders):
            col = [0] * self.n
            col[i] = d
            cols.append(col)
        return cols

    def elements(self):
        for tup in itertools.product(*[range(d) for d in self.orders]):
            yield tup

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def mul(self, a, b):
        out = [0] * self.n
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                for k, c in enumerate(self.mult_table[i][j]):
                    out[k] += x * y * c
        return self.reduce(out)

    def order(self) -> int:
        return prod(self.orders)

    @classmethod
    def from_witt_mod2k(cls, presentation, modulus_bits: int):
        """W/2^K as a finite ring, with generators in presentation order."""
        g = presentation.additive
        m = 1 << modulus_bits
        orders = [m] * g.free_rank + [gcd(d, m) for d in g.invariant_factors]
        return cls(
            orders,
            [[list(c) for c in row] for row in presentation.mult_table],
            list(presentation.unit),
            name=f"W({presentation.name})/2^{modulus_bits}",
        )


class FilteredRing:
    """Finite ring with a descending ideal chain ending at zero."""

    def __init__(self, ring: FiniteRing, chain_generators):
        # chain_generators[s] = coordinate list generating the s-th ideal
        self.ring = ring
        rel = ring.relations()
        chain = [_unit_vectors(ring.n) + rel]
        for gens in chain_generators:
            chain.append([list(g) for g in gens] + rel)
        # force termination at zero
        if lattice(ring.n, chain[-1]) != lattice(ring.n, rel):
            raise HypothesisViolated("ideal chain does not reach zero")
        self.chain = chain

    @property
    def depth(self) -> int:
        return len(self.chain)

    def level(self, s: int):
        if s < 0:
            s = 0
        return self.chain[min(s, len(self.chain) - 1)]

    def gr_order(self, s: int) -> int:
        group, _ = quotient_structure(self.ring.n, self.level(s), self.level(s + 1))
        order = group.order()
        if order is None:
            raise HypothesisViolated("infinite gr piece in a finite ring")
        return order

    @classmethod
    def from_witt_mod2k(cls, presentation, modulus_bits: int):
        ring = FiniteRing.from_witt_mod2k(presentation, modulus_bits)
        chains = []
        s = 1
        rel = ring.relations()
        while True:
            power = fundamental_ideal_power(presentation, s)
            gens = [list(v) for v in power.generator_coords]
            chains.append(gens)
            span = [list(g) for g in gens] + rel
            if lattice(ring.n, span) == lattice(ring.n, rel):
                break
            s += 1
            if s > 8 * max(1, modulus_bits):
                raise HypothesisViolated("ideal chain did not stabilize")
        return cls(ring, chains)


class FilteredRModule:
    """Finite module over a FilteredRing, one component per external degree."""

    def __init__(self, ring: FilteredRing):
        self.ring = ring
        self.components: dict[int, dict] = {}

    def add_component(self, degree: int, orders, action_table, chain_generators):
        """action_table[i][j]: coordinates of (ring gen i) . (module gen j)."""
        n = len(orders)
        rel = []
        for i, d in enumerate(orders):
            col = [0] * n
            col[i] = d
            rel.append(col)
        chain = [_unit_vectors(n) + rel]
        for gens in chain_generators:
            chain.append([list(g) for g in gens] + rel)
        if lattice(n, chain[-1]) != lattice(n, rel):
            raise HypothesisViolated("module chain does not reach zero")
        self.components[degree] = {
            "orders": list(orders),
            "ngens": n,
            "relations": rel,
            "action": action_table,
            "chain": chain,
        }

    def reduce(self, degree, coords):
        orders = self.components[degree]["orders"]
        return tuple(c % d for c, d in zip(coords, orders))

    def act(self, degree, ring_coords, mod_coords):
        comp = self.components[degree]
        out = [0] * comp["ngens"]
        for i, r in enumerate(ring_coords):
            if not r:
                continue
            for j, m in enumerate(mod_coords):
                if not m:
                    continue
                for k, c in enumerate(comp["action"][i][j]):
                    out[k] += r * m * c
        return self.reduce(degree, out)

    def level(self, degree, s):
        chain = self.components[degree]["chain"]
        if s < 0:
            s = 0
        return chain[min(s, len(chain) - 1)]

    def component_order(self, degree) -> int:
        return prod(self.components[degree]["orders"])


@dataclass
class LiftCertificate:
    lifts: list            # (degree, filtration, coords)
    gr_free: bool
    filtered_iso: bool
    details: dict

    @property
    def ok(self) -> bool:
        return self.gr_free and self.filtered_iso


def lift_free_basis(module: FilteredRModule, gr_basis) -> LiftCertificate:
    """Check gr-freeness on the stated basis and certify the lifted basis.

    `gr_basis` is a list of (degree, filtration s, coords) whose classes are
    claimed to form a gr(R)-basis of gr(M).  The coords themselves are taken
    as the lifts (any representative of the gr class is one).  Raises
    NotFree when the freeness hypothesis fails; the certificate records the
    degreewise filtered-isomorphism check for the induced map from the free
    filtered module on the lifts.
    """
    ring = module.ring
    by_degree: dict[int, list] = {}
    for (t, s, coords) in gr_basis:
        by_degree.setdefault(t, []).append((s, list(coords)))

    details: dict = {}
    # freeness of gr(M) over gr(R) on the claimed classes
    for t, comp in module.components.items():
        basis_here = by_degree.get(t, [])
        depth = len(comp["chain"]) - 1
        for sigma in range(depth):
            # expected order of gr^sigma(M_t)
            expected = 1
            spans = [list(g) for g in module.level(t, sigma + 1)]
            for (s_i, x_i) in basis_here:
                if s_i > sigma:
                    continue
                expected *= ring.gr_order(sigma - s_i)
                for rgen in ring.level(sigma - s_i):
                    spans.append(list(module.act(t, rgen, x_i)))
            group, _ = quotient_structure(
                comp["ngens"], module.level(t, sigma), module.level(t, sigma + 1)
            )
            actual = group.order()
            level = lattice(comp["ngens"], module.level(t, sigma))
            span_ok = lattice(comp["ngens"], spans) == level
            if actual != expected or not span_ok:
                raise NotFree(
                    f"gr(M) is not free on the stated basis at degree {t}, "
                    f"filtration {sigma}: order {actual} vs {expected}, "
                    f"span {'ok' if span_ok else 'proper'}"
                )
        details[t] = {"levels_checked": depth}

    # certificate: induced map from the free module is a filtered iso
    filtered_iso = True
    for t, comp in module.components.items():
        basis_here = by_degree.get(t, [])
        # orders match
        free_order = 1
        for (s_i, _) in basis_here:
            free_order *= ring.ring.order()
        if free_order != module.component_order(t):
            filtered_iso = False
        depth = len(comp["chain"])
        for sigma in range(depth):
            img = [list(g) for g in comp["relations"]]
            for (s_i, x_i) in basis_here:
                for rgen in ring.level(max(0, sigma - s_i)):
                    img.append(list(module.act(t, rgen, x_i)))
            if lattice(comp["ngens"], img) != lattice(comp["ngens"], module.level(t, sigma)):
                filtered_iso = False
        details[t]["order"] = module.component_order(t)

    return LiftCertificate(
        lifts=list(gr_basis), gr_free=True, filtered_iso=filtered_iso, details=details
    )


def solve_module_coefficients(module: FilteredRModule, degree: int, basis, target):
    """Write `target` as sum r_i . x_i over the ring: returns ring coords list.

    `basis` is a list of module coordinate vectors.  Solves the Z-linear
    system through the ring coordinates; returns None if no solution.
    """
    ring = module.ring.ring
    comp = module.components[degree]
    n = comp["ngens"]
    cols = []
    col_owner = []
    for b_idx, x in enumerate(basis):
        for i in range(ring.n):
            e = [0] * ring.n
            e[i] = 1
            cols.append(list(module.act(degree, e, x)))
            col_owner.append((b_idx, i))
    cols += [list(c) for c in comp["relations"]]
    sol = lattice(n, cols).solve(target)
    if sol is None:
        return None
    out = [[0] * ring.n for _ in basis]
    for coeff, (b_idx, i) in zip(sol, col_owner):
        out[b_idx][i] += coeff
    return [ring.reduce(v) for v in out]
