"""Filtered modules at desk scale: gr, the comparison lemma suite, free lifts.

There is one filtered-lattice type, `FilteredComponent`: a degree component
is Z^g modulo a relation lattice, and its filtration is a finite descending
chain of lattices that starts at everything and ends at the relation lattice
(so F^last = 0 in the quotient).  `level(s)` clamps s to the chain, so F^s
is everything for s <= 0 and the relations past the end.  A `FilteredRing`
is a finite ring with such a chain of ideals, and a module over it is one
`FilteredComponent` with an action table beside it;
`FilteredComponent.finite` builds both from additive orders and the
generators of each level.  That finite shadow is exactly what makes the
gr-comparison lemmas checkable by direct computation: complete, Hausdorff
and exhaustive hold by construction and both sides of each lemma reduce to
exact lattice arithmetic.  The lemma suite compares one component with
another along a matrix.  `lift_free_basis` runs it on the map from the
free filtered module on stated lifts to M: its gr_iso decides that gr(M) is
free on their classes, and its conclusion that the map is a filtered
isomorphism certifies the lifts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .abelian import (
    bilinear,
    identity_matrix,
    lattice,
    lattice_intersection,
    mat_vec,
    preimage,
    quotient_structure,
)
from .graded import Ring
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

    @classmethod
    def finite(cls, orders, chain_generators) -> "FilteredComponent":
        """Z^n / diag(orders) with F^0 everything and F^s spanned by
        `chain_generators[s - 1]` and the relations; the last level must be
        the relations."""
        n = len(orders)
        rel = [[d if i == j else 0 for i in range(n)] for j, d in enumerate(orders)]
        chain = [identity_matrix(n) + rel]
        chain += [[list(g) for g in gens] + rel for gens in chain_generators]
        if lattice(n, chain[-1]) != lattice(n, rel):
            raise HypothesisViolated("filtration chain does not reach zero")
        return cls(n, rel, chain)

    def validate(self):
        n = self.ngens
        full = identity_matrix(n) + [list(r) for r in self.relations]
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


def _check_hypotheses(src: FilteredComponent, tgt: FilteredComponent, mat) -> None:
    """Raise HypothesisViolated unless mat: src -> tgt is a filtered map.

    mat has one row per generator of tgt and one column per generator of
    src, both chains are valid, and mat sends F^s into F'^s at every level.
    """
    src.validate()
    tgt.validate()
    if len(mat) != tgt.ngens or any(len(r) != src.ngens for r in mat):
        raise HypothesisViolated("matrix shape mismatch")
    for s in range(max(len(src.chain), len(tgt.chain))):
        level = lattice(tgt.ngens, tgt.level(s))
        for g in src.level(s):
            if mat_vec(mat, list(g)) not in level:
                raise HypothesisViolated(f"map does not respect filtration at level {s}")


def _preimage(mat, targets, src_dim):
    """Nonzero generators of {x in Z^src_dim : mat x in the span of targets}."""
    columns = [[row[j] for row in mat] for j in range(src_dim)]
    return [p for p in preimage(len(mat), columns, targets) if any(p)]


def filtered_lemma_suite(src: FilteredComponent, tgt: FilteredComponent, mat) -> dict:
    """Evaluate gr(alpha) for alpha = mat: src -> tgt and re-verify the lemma conclusions.

    Returns a report with, per lemma, whether the gr-hypothesis holds and
    whether the corresponding conclusion about alpha itself was verified by
    direct lattice computation.  Each level's image, preimage and kernel
    intersection is computed once; a conclusion is reported only when its
    hypothesis holds.
    """
    _check_hypotheses(src, tgt, mat)
    m = src.ngens
    ker = _preimage(mat, tgt.relations, m)
    zero = lattice(m, src.relations)
    injective = all(v in zero for v in ker)
    ker_full = ker + [list(r) for r in src.relations]
    surj = inj = surjective_each_level = kernel_match = True
    depth = max(len(src.chain), len(tgt.chain)) - 1
    ker_above = lattice_intersection(m, ker_full, src.level(0))
    for s in range(depth + 1):
        image = [mat_vec(mat, list(g)) for g in src.level(s)]
        surjective_each_level &= (
            lattice(tgt.ngens, image + tgt.relations) == lattice(tgt.ngens, tgt.level(s))
        )
        if s == depth:
            break
        # gr^s(alpha) is onto: alpha(F^s) + F'^(s+1) = F'^s
        surj &= lattice(tgt.ngens, image + tgt.level(s + 1)) == lattice(tgt.ngens, tgt.level(s))
        # ker gr^s(alpha) = {x in F^s : alpha x in F'^(s+1)} / F^(s+1)
        above = src.level(s + 1)
        num = lattice_intersection(m, _preimage(mat, tgt.level(s + 1), m), src.level(s))
        above_lattice = lattice(m, above)
        inj &= all(v in above_lattice for v in num)
        ker_here, ker_above = ker_above, lattice_intersection(m, ker_full, above)
        gr_ker, _ = quotient_structure(m, ker_here + ker_above, ker_above)
        ker_gr, _ = quotient_structure(m, num + above, above)
        kernel_match &= gr_ker == ker_gr
    report = {"gr_iso": surj and inj, "gr_surjective": surj, "gr_injective": inj}

    # conclusions, re-verified on alpha itself
    if surj:
        report["alpha_surjective_each_level"] = surjective_each_level
        report["kernel_gr_matches"] = kernel_match  # gr(ker) = ker(gr)
    if inj:
        report["alpha_injective"] = injective
    if surj and inj:
        # a filtered iso is injective with alpha(F^s) = F'^s on the nose
        report["alpha_filtered_iso"] = injective and surjective_each_level
    return report


# ---------------------------------------------------------------------------
# finite filtered rings and modules (for the free-lifting corollary)
# ---------------------------------------------------------------------------

class FilteredRing(Ring):
    """Finite commutative ring with a descending ideal chain ending at zero.

    The ring is Z^n / diag(orders) with the product `mult_table` on its
    generators; elements are reduced coordinate tuples.  Its filtration is
    the `FilteredComponent` with F^s spanned by `chain_generators[s - 1]`.
    It is also a coefficient ring for `graded.AlgebraSpec` (W/2^K for the
    completed Witt models).
    """

    def __init__(self, orders, mult_table, unit, chain_generators, name="R"):
        self.orders = list(orders)
        self.n = len(orders)
        self.mult_table = [
            [self.reduce(mult_table[i][j]) for j in range(self.n)] for i in range(self.n)
        ]
        self.zero = (0,) * self.n
        self.one = self.reduce(unit)
        self.name = name
        self.filtration = FilteredComponent.finite(self.orders, chain_generators)

    def reduce(self, coords):
        return tuple(c % d for c, d in zip(coords, self.orders))

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def mul(self, a, b):
        return self.reduce(bilinear(self.mult_table, a, b))

    def neg(self, a):
        return self.reduce([-x for x in a])

    def is_zero(self, a):
        return not any(self.reduce(a))

    def describe(self, a):
        return str(list(a))

    def elements(self):
        return itertools.product(*[range(d) for d in self.orders])

    def is_unit(self, a) -> bool:
        """Whether a is invertible: in a finite ring, whether multiplication by a is onto."""
        image = [self.mul(a, e) for e in identity_matrix(self.n)]
        f = self.filtration
        return lattice(self.n, image + f.relations) == lattice(self.n, f.level(0))

    @classmethod
    def from_witt_mod2k(cls, presentation, modulus_bits: int):
        """W/2^K with its I-adic chain, generators in presentation order.

        The chain stops at the first I^s whose generators are all zero in W/2^K.
        """
        g = presentation.additive
        m = 1 << modulus_bits
        orders = [m] * g.free_rank + [gcd(d, m) for d in g.invariant_factors]
        chains = []
        for s in range(1, 8 * max(1, modulus_bits) + 1):
            chains.append(fundamental_ideal_power(presentation, s).basis())
            if all(c % d == 0 for gen in chains[-1] for c, d in zip(gen, orders)):
                break
        else:
            raise HypothesisViolated("ideal chain did not stabilize")
        return cls(
            orders,
            [[list(c) for c in row] for row in presentation.mult_table],
            list(presentation.unit),
            chains,
            name=f"W({presentation.name})/2^{modulus_bits}",
        )


def lift_free_basis(ring: FilteredRing, component: FilteredComponent, action, basis) -> bool:
    """Check gr-freeness on the stated basis and certify the lifted basis.

    `component` is a finite module over `ring` (`FilteredComponent.finite`),
    with action[i][j] the coordinates of (ring gen i) . (module gen j).
    `basis` is a list of (filtration s, coords) whose classes are claimed to
    form a gr(R)-basis of gr(M); the coords are the lifts, and a lift outside
    F^s raises HypothesisViolated.  The lemma suite runs on the map from the
    free filtered module on the lifts to M.  Raises NotFree unless gr of that
    map is an isomorphism on every level of both chains; otherwise returns
    whether the map is a filtered isomorphism.
    """
    orders = [rel[k] for k, rel in enumerate(component.relations)]

    def act(ring_coords, mod_coords):
        return [c % d for c, d in zip(bilinear(action, ring_coords, mod_coords), orders)]

    # the free module: R^k with R's chain shifted by each s_i, e_(i,j) -> (ring gen j) . x_i
    n, last, k = ring.n, len(ring.filtration.chain) - 1, len(basis)
    free = FilteredComponent.finite(ring.orders * k, [
        [[0] * (n * i) + list(g) + [0] * (n * (k - 1 - i))
         for i, (s_i, _) in enumerate(basis)
         for g in ring.filtration.level(s - s_i)]
        for s in range(1, last + max((s_i for s_i, _ in basis), default=0) + 1)
    ])
    columns = [act(e, x_i) for _, x_i in basis for e in identity_matrix(n)]
    mat = [[col[r] for col in columns] for r in range(component.ngens)]
    report = filtered_lemma_suite(free, component, mat)
    if not report["gr_iso"]:
        raise NotFree("gr(M) is not free on the stated basis: gr of the map from the "
                      "free filtered module on it is no isomorphism")
    return report["alpha_filtered_iso"]
