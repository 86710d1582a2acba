"""The mod-2 motivic dual Steenrod algebra over a presented base k^M[tau].

Elements are left k^M[tau]-linear combinations of Milnor monomials
tau^eps xi^E; the square of tau_i rewrites to (tau + rho tau_0) xi_{i+1}
+ rho tau_{i+1}.  The coproduct lives in the tensor square over the base,
where the two units differ by eta_R(tau) = tau + rho tau_0: coefficients are
normalized to the far left, migrating across tensor signs through eta_R.
Dual operations are obtained by contracting the coproduct against dual
basis monomials; the antipode is computed recursively and self-checked
against the algebroid axiom.  The eta-Bockstein pages for the ko- and
kgl-models are assembled from the delta-complex with the class h adjoined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import gf2
from .graded import (
    POLYNOMIAL,
    SQUARE,
    AlgebraSpec,
    BoundsExceeded,
    Derivation,
    GeneratorSpec,
    KMTau,
    TruncationExceeded,
    add_term,
    apply_derivation,
    terms_equal,
)


class UnknownOperator(KeyError):
    pass


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MotivicBase:
    """Mod-2 Milnor K-theory base: rho is the class of -1 in degree 1."""

    name: str
    rho_mode: str  # "free" | "zero" | "square_zero"

    def coefficient_ring(self) -> KMTau:
        return KMTau(self.rho_mode)


MOTIVIC_BASES = {
    "real_closed": MotivicBase("real_closed", "free"),
    "quadratically_closed": MotivicBase("quadratically_closed", "zero"),
    # k^M(F_q)/2 for q = 3 mod 4: one generator u = rho with u^2 = 0.  The
    # vanishing of products in degree 2 is standard for finite fields and is
    # recorded here as an external input.
    "finite_field_3mod4": MotivicBase("finite_field_3mod4", "square_zero"),
}


def motivic_base(name: str) -> MotivicBase:
    if name not in MOTIVIC_BASES:
        raise UnknownOperator(f"unknown motivic base {name!r}")
    return MOTIVIC_BASES[name]


# ---------------------------------------------------------------------------
# monomial keys: (eps tuple for tau_0.., E tuple for xi_1..), trailing zeros cut
# ---------------------------------------------------------------------------

def _trim(t):
    t = list(t)
    while t and t[-1] == 0:
        t.pop()
    return tuple(t)


def mon_key(eps=(), E=()):
    return (_trim(eps), _trim(E))


UNIT_MON = ((), ())


def mon_weight(key) -> int:
    eps, E = key
    return sum(e * (2**i - 1) for i, e in enumerate(eps)) + sum(
        e * (2 ** (j + 1) - 1) for j, e in enumerate(E)
    )


def mon_bidegree(key) -> tuple[int, int]:
    eps, E = key
    p = sum(e * (2 ** (i + 1) - 1) for i, e in enumerate(eps)) + sum(
        e * (2 ** (j + 2) - 2) for j, e in enumerate(E)
    )
    q = mon_weight(key)
    return p, q


def coeff_bidegree(a: int, t: int) -> tuple[int, int]:
    # rho has (p, q) = (-1, -1); the coefficient tau has (0, -1)
    return (-a, -a - t)


def mon_mul_raw(k1, k2):
    e1, x1 = k1
    e2, x2 = k2
    eps = [a + b for a, b in itertools.zip_longest(e1, e2, fillvalue=0)]
    E = [a + b for a, b in itertools.zip_longest(x1, x2, fillvalue=0)]
    return (_trim(eps), _trim(E))


def describe_mon(key) -> str:
    eps, E = key
    bits = []
    for i, e in enumerate(eps):
        if e:
            bits.append(f"tau{i}" + (f"^{e}" if e > 1 else ""))
    for j, e in enumerate(E):
        if e:
            bits.append(f"xi{j + 1}" + (f"^{e}" if e > 1 else ""))
    return "*".join(bits) if bits else "1"


@dataclass(frozen=True)
class MilnorMonomial:
    """Basis element tau^eps xi^E with a k^M[tau] coefficient."""

    eps: tuple
    E: tuple
    coeff: frozenset = frozenset({(0, 0)})

    @property
    def key(self):
        return mon_key(self.eps, self.E)

    def bidegree(self) -> tuple[int, int]:
        p, q = mon_bidegree(self.key)
        degs = {coeff_bidegree(a, t) for (a, t) in self.coeff}
        if len(degs) > 1:
            raise BoundsExceeded("coefficient is not bihomogeneous")
        if degs:
            cp, cq = degs.pop()
            p, q = p + cp, q + cq
        return p, q

    def stem_weight(self) -> tuple[int, int]:
        p, q = self.bidegree()
        return p - q, -q


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

class SteenrodAlgebra:
    def __init__(self, base: MotivicBase | str = "real_closed", weight: int = 16):
        if isinstance(base, str):
            base = motivic_base(base)
        self.base = base
        self.weight = weight
        self.km = base.coefficient_ring()
        self.max_tau = max(i for i in range(0, 64) if 2**i - 1 <= weight)
        self.max_xi = max(j for j in range(1, 64) if 2**j - 1 <= weight)
        self._coproduct_cache: dict = {}
        self._antipode_cache: dict = {}
        self._product_cache: dict = {}

    def mono_product(self, k1, k2) -> dict:
        """Cached normal form of the product of two basis monomials."""
        key = (k1, k2) if k1 <= k2 else (k2, k1)
        if key not in self._product_cache:
            self._product_cache[key] = self._normalize(
                {mon_mul_raw(k1, k2): self.km.one}
            )
        return self._product_cache[key]

    # -- element constructors ---------------------------------------------
    def element(self, terms: dict) -> "SteenrodElement":
        return SteenrodElement(self, self._normalize(terms))

    def zero(self):
        return SteenrodElement(self, {})

    def one(self):
        return SteenrodElement(self, {UNIT_MON: self.km.one})

    def tau(self, i: int) -> "SteenrodElement":
        if i > self.max_tau:
            raise TruncationExceeded(f"tau_{i} exceeds the weight bound {self.weight}")
        eps = [0] * (i + 1)
        eps[i] = 1
        return SteenrodElement(self, {mon_key(eps, ()): self.km.one})

    def xi(self, j: int) -> "SteenrodElement":
        if j == 0:
            return self.one()
        if j > self.max_xi:
            raise TruncationExceeded(f"xi_{j} exceeds the weight bound {self.weight}")
        E = [0] * j
        E[j - 1] = 1
        return SteenrodElement(self, {mon_key((), E): self.km.one})

    def monomial(self, eps=(), E=()) -> "SteenrodElement":
        return self.element({mon_key(eps, E): self.km.one})

    def scalar(self, coeff) -> "SteenrodElement":
        if self.km.is_zero(coeff):
            return self.zero()
        return SteenrodElement(self, {UNIT_MON: coeff})

    def rho_coeff(self):
        return self.km.monomial(1, 0)

    def tau_coeff(self):
        return self.km.monomial(0, 1)

    def eta_r_tau(self) -> "SteenrodElement":
        """eta_R(tau) = tau + rho tau_0."""
        out = self.scalar(self.tau_coeff())
        rho = self.rho_coeff()
        if not self.km.is_zero(rho):
            out = out + self.tau(0).scale(rho)
        return out

    def eta_r_of_coeff(self, coeff) -> "SteenrodElement":
        """eta_R on a k^M[tau] coefficient, as an algebra element."""
        cached = getattr(self, "_eta_cache", None)
        if cached is None:
            cached = self._eta_cache = {}
        if coeff in cached:
            return cached[coeff]
        km = self.km
        out = self.zero()
        eta = self.eta_r_tau()
        powers = {0: self.one()}
        for (a, t) in sorted(coeff):
            if t not in powers:
                p = powers[max(powers)]
                for _ in range(t - max(powers)):
                    p = p * eta
                powers[t] = p
            out = out + powers[t].scale(km.monomial(a, 0))
        cached[coeff] = out
        return out

    # -- weight bookkeeping ----------------------------------------------
    def basis_monomials(self, max_weight: int | None = None):
        """All normalized tau^eps xi^E keys of weight <= the bound."""
        bound = self.weight if max_weight is None else min(max_weight, self.weight)
        taus = [i for i in range(self.max_tau + 1) if 2**i - 1 <= bound]
        xis = [j for j in range(1, self.max_xi + 1) if 2**j - 1 <= bound]
        out = []

        def rec(idx, remaining, eps, E):
            if idx == len(taus) + len(xis):
                out.append(mon_key(eps, E))
                return
            if idx < len(taus):
                i = taus[idx]
                w = 2**i - 1
                rec(idx + 1, remaining, eps, E)
                if w <= remaining:
                    eps2 = eps + [0] * (i + 1 - len(eps))
                    eps2[i] = 1
                    rec(idx + 1, remaining - w, eps2, E)
            else:
                j = xis[idx - len(taus)]
                w = 2**j - 1
                cap = remaining // w
                for e in range(cap + 1):
                    E2 = E
                    if e:
                        E2 = E + [0] * (j - len(E))
                        E2[j - 1] = e
                    rec(idx + 1, remaining - e * w, eps, E2)

        rec(0, bound, [], [])
        return sorted(set(out))

    # -- normalization -----------------------------------------------------
    def _relation(self, i: int) -> dict:
        """tau_i^2 = (tau + rho tau_0) xi_{i+1} + rho tau_{i+1} as raw terms."""
        if i + 1 > self.max_tau or i + 1 > self.max_xi:
            raise TruncationExceeded(
                f"square of tau_{i} needs index {i + 1} past the weight bound"
            )
        km = self.km
        xi_next = [0] * (i + 1)
        xi_next[i] = 1
        eps_next = [0] * (i + 2)
        eps_next[i + 1] = 1
        out = {mon_key((), xi_next): km.monomial(0, 1)}        # tau . xi_{i+1}
        rho = km.monomial(1, 0)
        if not km.is_zero(rho):
            out[mon_key((1,), xi_next)] = rho                  # rho tau_0 xi_{i+1}
            out[mon_key(eps_next, ())] = rho                   # rho tau_{i+1}
        return out

    def _normalize(self, raw: dict) -> dict:
        km = self.km
        out: dict = {}
        work = list(raw.items())
        while work:
            key, coeff = work.pop()
            if km.is_zero(coeff):
                continue
            eps, E = key
            hot = next((i for i, e in enumerate(eps) if e >= 2), None)
            if hot is None:
                if mon_weight(key) > self.weight:
                    raise TruncationExceeded(
                        f"monomial of weight {mon_weight(key)} exceeds {self.weight}"
                    )
                add_term(km, out, key, coeff)
                continue
            rest_eps = list(eps)
            rest_eps[hot] -= 2
            rest = (_trim(rest_eps), E)
            for rel_key, rel_coeff in self._relation(hot).items():
                work.append((mon_mul_raw(rest, rel_key), km.mul(coeff, rel_coeff)))
        return out


class SteenrodElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: SteenrodAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = dict(terms)

    def __add__(self, other):
        km = self.algebra.km
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(km, out, key, coeff)
        return SteenrodElement(self.algebra, out)

    def __mul__(self, other):
        km = self.algebra.km
        raw: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_term(km, raw, mon_mul_raw(k1, k2), km.mul(c1, c2))
        return SteenrodElement(self.algebra, self.algebra._normalize(raw))

    def scale(self, coeff) -> "SteenrodElement":
        km = self.algebra.km
        raw = {}
        for key, c in self.terms.items():
            prod = km.mul(coeff, c)
            if not km.is_zero(prod):
                raw[key] = prod
        return SteenrodElement(self.algebra, self.algebra._normalize(raw))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SteenrodElement):
            return NotImplemented
        return terms_equal(self.algebra.km, self.terms, other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def monomials(self):
        return [MilnorMonomial(k[0], k[1], c) for k, c in sorted(self.terms.items())]

    def __repr__(self):
        if not self.terms:
            return "0"
        km = self.algebra.km
        bits = []
        for key in sorted(self.terms):
            c = km.describe(self.terms[key])
            m = describe_mon(key)
            bits.append(m if c == "1" else (c if m == "1" else f"({c})*{m}"))
        return " + ".join(bits)


def milnor_product(a: SteenrodElement, b: SteenrodElement) -> SteenrodElement:
    return a * b


# ---------------------------------------------------------------------------
# tensors over the base, coefficients normalized to the far left
# ---------------------------------------------------------------------------

class TensorElement:
    """Sum of c . (m_1 (x) ... (x) m_r): c in k^M[tau] at the far left."""

    __slots__ = ("algebra", "slots", "terms")

    def __init__(self, algebra: SteenrodAlgebra, slots: int, terms=None):
        self.algebra = algebra
        self.slots = slots
        self.terms = dict(terms or {})

    def __add__(self, other):
        out = TensorElement(self.algebra, self.slots, self.terms)
        for mons, coeff in other.terms.items():
            add_term(self.algebra.km, out.terms, mons, coeff)
        return out

    def __eq__(self, other):
        if not isinstance(other, TensorElement) or self.slots != other.slots:
            return NotImplemented
        return terms_equal(self.algebra.km, self.terms, other.terms)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        km = self.algebra.km
        bits = []
        for mons in sorted(self.terms):
            c = km.describe(self.terms[mons])
            word = " (x) ".join(describe_mon(k) for k in mons)
            bits.append(word if c == "1" else f"({c})*[{word}]")
        return " + ".join(bits)


def combine_slots(alg: SteenrodAlgebra, slot_elements) -> TensorElement:
    """Far-left normal form of el_1 (x) ... (x) el_r.

    Each slot element carries its own left coefficients; folding right to
    left, a coefficient crosses a tensor sign as eta_R of itself multiplied
    into the next slot.
    """
    km = alg.km
    # state: suffix word -> coefficient waiting to cross into the next slot
    state: dict[tuple, object] = {(): km.one}
    for r in range(len(slot_elements) - 1, -1, -1):
        el = slot_elements[r]
        nxt: dict[tuple, object] = {}
        for suffix, pending in state.items():
            # multiply this slot by eta_R(pending); the unit crosses freely
            if pending == km.one:
                slot_el = el
            else:
                slot_el = el * alg.eta_r_of_coeff(pending)
            for key, c in slot_el.terms.items():
                add_term(km, nxt, (key,) + suffix, c)
        if r == 0:
            return TensorElement(alg, len(slot_elements), nxt)
        # split each accumulated coefficient off as the new pending one
        state = nxt
    # zero slots: empty tensor product is the unit
    return TensorElement(alg, 0, {(): km.one})


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    alg = x.algebra
    km = alg.km
    if x.slots != y.slots:
        raise BoundsExceeded("tensor slot mismatch")
    out = TensorElement(alg, x.slots)
    for mons1, c1 in x.terms.items():
        for mons2, c2 in y.terms.items():
            base = km.mul(c1, c2)
            if km.is_zero(base):
                continue
            slot_elements = [
                SteenrodElement(alg, alg.mono_product(mons1[r], mons2[r]))
                for r in range(x.slots)
            ]
            combined = combine_slots(alg, slot_elements)
            for word, c in combined.terms.items():
                add_term(km, out.terms, word, km.mul(base, c))
    return out


def tensor_from_element(x: SteenrodElement, slots: int, position: int) -> TensorElement:
    """x placed in one slot, units elsewhere.  Coefficients migrate left."""
    alg = x.algebra
    km = alg.km
    out = TensorElement(alg, slots)
    for key, c in x.terms.items():
        slot_elements = []
        for r in range(slots):
            if r == position:
                slot_elements.append(SteenrodElement(alg, {key: km.one}))
            else:
                slot_elements.append(alg.one())
        combined = combine_slots(alg, slot_elements)
        # c is a left coefficient of slot `position`: if that is not the
        # global left, it must migrate.  Only slot 0 needs no migration.
        if position == 0 or km.is_zero(c) or c == km.one:
            for word, cc in combined.terms.items():
                add_term(km, out.terms, word, km.mul(c, cc))
        else:
            scaled = [alg.one()] * slots
            scaled[position] = SteenrodElement(alg, {key: c})
            combined2 = combine_slots(alg, scaled)
            for word, cc in combined2.terms.items():
                add_term(km, out.terms, word, cc)
    return out


# ---------------------------------------------------------------------------
# coproduct, counit, dual actions, antipode
# ---------------------------------------------------------------------------

def _tau_key(i: int):
    eps = [0] * (i + 1)
    eps[i] = 1
    return mon_key(eps, ())


def _xi_key(j: int):
    if j == 0:
        return UNIT_MON
    E = [0] * j
    E[j - 1] = 1
    return mon_key((), E)


def _gen_coproduct(alg: SteenrodAlgebra, kind: str, i: int) -> TensorElement:
    """Coproduct of tau_i or xi_i."""
    km = alg.km
    out = TensorElement(alg, 2)
    if kind == "tau":
        add_term(km, out.terms, (_tau_key(i), UNIT_MON), km.one)
        for j in range(0, i + 1):
            add_term(km, out.terms, (_power_key(alg, i - j, 2**j), _tau_key(j)), km.one)
    else:
        for j in range(0, i + 1):
            add_term(km, out.terms, (_power_key(alg, i - j, 2**j), _xi_key(j)), km.one)
    return out


def _power_key(alg: SteenrodAlgebra, xi_index: int, power: int):
    """Key of xi_{xi_index}^power (xi_0 = 1)."""
    if xi_index == 0:
        return UNIT_MON
    E = [0] * xi_index
    E[xi_index - 1] = power
    key = mon_key((), E)
    if mon_weight(key) > alg.weight:
        raise TruncationExceeded(
            f"xi_{xi_index}^{power} exceeds the weight bound {alg.weight}"
        )
    return key


def coproduct(x: SteenrodElement) -> TensorElement:
    """Delta in the left normal form (coefficients migrated to the far left).

    This presentation is the free left-module normal form on the monomial
    pairs; tensor equality checks (coassociativity, counit, the antipode
    axiom) use it.
    """
    alg = x.algebra
    km = alg.km
    out = TensorElement(alg, 2)
    for key, coeff in x.terms.items():
        if key in alg._coproduct_cache:
            delta_mon = alg._coproduct_cache[key]
        else:
            eps, E = key
            delta_mon = TensorElement(alg, 2, {(UNIT_MON, UNIT_MON): km.one})
            for i, e in enumerate(eps):
                for _ in range(e):
                    delta_mon = tensor_mul(delta_mon, _gen_coproduct(alg, "tau", i))
            for j, e in enumerate(E):
                for _ in range(e):
                    delta_mon = tensor_mul(delta_mon, _gen_coproduct(alg, "xi", j + 1))
            alg._coproduct_cache[key] = delta_mon
        for word, c in delta_mon.terms.items():
            add_term(km, out.terms, word, km.mul(coeff, c))
    return out


def counit(x: SteenrodElement):
    """k^M[tau]-valued counit: kills every tau_i, xi_j."""
    km = x.algebra.km
    return x.terms.get(UNIT_MON, km.zero)


def coproduct_left(t: TensorElement) -> TensorElement:
    """(Delta (x) id) on a 2-tensor, giving a 3-tensor."""
    alg = t.algebra
    km = alg.km
    out = TensorElement(alg, 3)
    for (m1, m2), c in t.terms.items():
        inner = coproduct(SteenrodElement(alg, {m1: c}))
        for (a, b), cc in inner.terms.items():
            # append m2 on the right: no coefficient crosses to the right
            add_term(km, out.terms, (a, b, m2), cc)
    return out


def coproduct_right(t: TensorElement) -> TensorElement:
    """(id (x) Delta) on a 2-tensor, giving a 3-tensor."""
    alg = t.algebra
    km = alg.km
    out = TensorElement(alg, 3)
    for (m1, m2), c in t.terms.items():
        inner = coproduct(SteenrodElement(alg, {m2: km.one}))
        for (a, b), cc in inner.terms.items():
            # cc sits left of slot a, which is slot 2 of 3: migrate across m1
            left = SteenrodElement(alg, {m1: km.mul(c, km.one)}) * alg.eta_r_of_coeff(cc)
            for key1, c1 in left.terms.items():
                add_term(km, out.terms, (key1, a, b), c1)
    return out


def check_coassociativity(alg: SteenrodAlgebra, max_weight: int) -> int:
    """(Delta x id)Delta = (id x Delta)Delta on all basis monomials."""
    count = 0
    for key in alg.basis_monomials(max_weight):
        x = SteenrodElement(alg, {key: alg.km.one})
        d = coproduct(x)
        if coproduct_left(d) != coproduct_right(d):
            raise BoundsExceeded(f"coassociativity fails on {describe_mon(key)}")
        count += 1
    return count


def check_counit(alg: SteenrodAlgebra, max_weight: int) -> int:
    km = alg.km
    count = 0
    for key in alg.basis_monomials(max_weight):
        x = SteenrodElement(alg, {key: km.one})
        d = coproduct(x)
        left = alg.zero()   # (eps x id)
        right = alg.zero()  # (id x eps)
        for (m1, m2), c in d.terms.items():
            if m1 == UNIT_MON:
                left = left + SteenrodElement(alg, {m2: c})
            if m2 == UNIT_MON:
                right = right + SteenrodElement(alg, {m1: c})
        if left != x or right != x:
            raise BoundsExceeded(f"counit axiom fails on {describe_mon(key)}")
        count += 1
    return count


_OPERATORS = {
    "tau0_hat": mon_key((1,), ()),
    "tau1_hat": mon_key((0, 1), ()),
    "xi1_hat": mon_key((), (1,)),
}


def dual_action(op_id: str, side: str, x: SteenrodElement) -> SteenrodElement:
    """Contract the coproduct against the dual of a basis monomial.

    alpha^R(x) = sum <y_i, alpha> x_i reads straight off the left normal
    form, whose right slots are pure monomials (the pairing is left-linear,
    matching the balancing on that side).  For alpha^L the pairing must be
    right-linear to be well defined on the balanced tensor, which the
    straight pairing is not; composing with the conjugation fixes it:
    alpha^L(x) = sum <chi(x_i), alpha> y_i.  On generators the two recipes
    agree, and only the conjugated one extends consistently to products
    (e.g. it makes the tau_0-dual a derivation on tau_0^2).
    """
    if op_id not in _OPERATORS:
        raise UnknownOperator(op_id)
    if side not in ("L", "R"):
        raise UnknownOperator(f"side must be L or R, got {side!r}")
    target = _OPERATORS[op_id]
    alg = x.algebra
    km = alg.km
    out = alg.zero()
    for (m1, m2), c in coproduct(x).terms.items():
        if side == "L":
            chi = alg.eta_r_of_coeff(c) * antipode(SteenrodElement(alg, {m1: km.one}))
            coeff = chi.terms.get(target, km.zero)
            if not km.is_zero(coeff):
                out = out + SteenrodElement(alg, {m2: coeff})
        elif m2 == target:
            out = out + SteenrodElement(alg, {m1: c})
    return out


def antipode(x: SteenrodElement) -> SteenrodElement:
    """The conjugation, computed recursively from the coproduct identities.

    chi swaps the two units, so a left coefficient rho^a tau^t becomes
    rho^a eta_R(tau)^t; the generators follow the recursive identities
    chi(xi_i) = sum_{j<i} xi_{i-j}^{2^j} chi(xi_j) and likewise with tau,
    starting from chi(tau_0) = tau_0.
    """
    alg = x.algebra
    out = alg.zero()
    for key, coeff in x.terms.items():
        eps, E = key
        piece = alg.eta_r_of_coeff(coeff)
        for i, e in enumerate(eps):
            for _ in range(e):
                piece = piece * _antipode_gen(alg, "tau", i)
        for j, e in enumerate(E):
            for _ in range(e):
                piece = piece * _antipode_gen(alg, "xi", j + 1)
        out = out + piece
    return out


def _antipode_gen(alg: SteenrodAlgebra, kind: str, i: int) -> SteenrodElement:
    cache_key = (kind, i)
    if cache_key in alg._antipode_cache:
        return alg._antipode_cache[cache_key]
    if kind == "xi":
        if i == 0:
            out = alg.one()
        else:
            out = alg.zero()
            for j in range(i):
                power = SteenrodElement(
                    alg, {_power_key(alg, i - j, 2**j): alg.km.one}
                )
                out = out + power * _antipode_gen(alg, "xi", j)
    else:
        out = alg.tau(i)
        for j in range(i):
            power = SteenrodElement(alg, {_power_key(alg, i - j, 2**j): alg.km.one})
            out = out + power * _antipode_gen(alg, "tau", j)
    alg._antipode_cache[cache_key] = out
    return out


def check_antipode_axiom(alg: SteenrodAlgebra, max_weight: int) -> int:
    """m(id (x) chi)Delta = (left unit).counit on basis monomials.

    The composite is well defined on the balanced tensor (chi carries
    eta_L to eta_R), so it may be evaluated termwise on the left normal
    form by plain algebra products.
    """
    km = alg.km
    count = 0
    for key in alg.basis_monomials(max_weight):
        x = SteenrodElement(alg, {key: km.one})
        acc = alg.zero()
        for (m1, m2), c in coproduct(x).terms.items():
            chi_m2 = antipode(SteenrodElement(alg, {m2: km.one}))
            acc = acc + SteenrodElement(alg, {m1: c}) * chi_m2
        expected = alg.scalar(counit(x))
        if acc != expected:
            raise BoundsExceeded(f"antipode axiom fails on {describe_mon(key)}")
        count += 1
    return count


def action_table_ok(alg: SteenrodAlgebra) -> bool:
    """The dual actions of tau0, tau1 and xi1 on the generators match the table.

    On the left each operation sends its own generator to 1, xi1_hat sends
    tau_1 to tau_0, and all other generators go to 0; on the right tau0_hat
    sends tau_i to xi_i and xi1_hat sends xi_i to xi_{i-1}^2.
    """
    taus = range(0, alg.max_tau + 1)
    xis = range(1, alg.max_xi + 1)
    ok = dual_action("tau0_hat", "L", alg.tau(0)) == alg.one()
    ok &= all(dual_action("tau0_hat", "L", alg.tau(i)).is_zero() for i in taus if i)
    ok &= all(dual_action("tau0_hat", "L", alg.xi(i)).is_zero() for i in xis)
    ok &= dual_action("tau1_hat", "L", alg.tau(1)) == alg.one()
    ok &= all(dual_action("tau1_hat", "L", alg.tau(i)).is_zero() for i in taus if i != 1)
    ok &= all(dual_action("tau1_hat", "L", alg.xi(i)).is_zero() for i in xis)
    ok &= dual_action("xi1_hat", "L", alg.tau(1)) == alg.tau(0)
    ok &= all(dual_action("xi1_hat", "L", alg.tau(i)).is_zero() for i in taus if i != 1)
    ok &= dual_action("xi1_hat", "L", alg.xi(1)) == alg.one()
    ok &= all(dual_action("xi1_hat", "L", alg.xi(i)).is_zero() for i in xis if i != 1)
    ok &= all(dual_action("tau0_hat", "R", alg.tau(i)) == alg.xi(i) for i in taus)
    ok &= all(dual_action("tau0_hat", "R", alg.xi(i)).is_zero() for i in xis)
    ok &= all(dual_action("xi1_hat", "R", alg.tau(i)).is_zero() for i in taus)
    ok &= all(
        dual_action("xi1_hat", "R", alg.xi(i))
        == (alg.xi(i - 1) * alg.xi(i - 1) if i > 1 else alg.one())
        for i in xis
    )
    return bool(ok)


# ---------------------------------------------------------------------------
# homology models for ko and kgl, and the eta-Bockstein pages
# ---------------------------------------------------------------------------

@dataclass
class HomologyModel:
    """A graded model for pi_**(E smash k^M) with its Bockstein derivation.

    The algebra is graded by the stem s; each generator also carries its
    motivic weight w, and coefficients are k^M (powers of rho, with w = +1
    each).  delta lowers s by 1 and raises w by 1.  Cell bases and delta
    columns are computed once per (s, w) cell and kept with the model.
    """

    name: str
    base: MotivicBase
    algebra: AlgebraSpec
    delta: Derivation
    gen_weights: list  # w per generator index
    _cells: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _deltas: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def monomial_weight(self, mon) -> int:
        return sum(self.gen_weights[i] * e for i, e in mon)

    def cell_basis(self, s: int, w: int):
        """F2-basis of the (stem, weight) cell: pairs (rho_exp, monomial).

        Callers get a fresh list.
        """
        cell = self._cells.get((s, w))
        if cell is None:
            out = []
            if 0 <= s <= self.algebra.truncation:
                km = self.algebra.coefficients
                for mon in self.algebra.monomials_of_degree(s):
                    a = w - self.monomial_weight(mon)
                    if a >= 0 and km._admissible(a):
                        out.append((a, mon))
            cell = self._cells[(s, w)] = tuple(sorted(out))
        return list(cell)

    def delta_matrix(self, s: int, w: int):
        """Columns of delta: C(s, w) -> C(s-1, w+1) as bitmasks.

        Returns the tuples (source basis, target basis, columns).
        """
        cached = self._deltas.get((s, w))
        if cached is not None:
            return cached
        source = self.cell_basis(s, w)
        target = self.cell_basis(s - 1, w + 1)
        tindex = {item: i for i, item in enumerate(target)}
        km = self.algebra.coefficients
        cols = []
        for (a, mon) in source:
            el = self.algebra.element({mon: km.one})
            image = apply_derivation(self.delta, el)
            mask = 0
            for mon2, coeff in image.terms.items():
                for (a2, t2) in coeff:
                    assert t2 == 0, "tau coefficient cannot appear in a k^M model"
                    key = (a + a2, mon2)
                    if key in tindex:
                        mask ^= 1 << tindex[key]
                    elif a + a2 >= 0 and km._admissible(a + a2):
                        raise BoundsExceeded(
                            f"delta image leaves the requested weight window at {key}"
                        )
            cols.append(mask)
        cached = self._deltas[(s, w)] = (tuple(source), tuple(target), tuple(cols))
        return cached

    def cell_cycles(self, s: int, w: int):
        source, target, cols = self.delta_matrix(s, w)
        if not source:
            return source, []
        return source, gf2.nullspace(len(source), gf2.transpose(cols, len(target)))

    def cell_homology(self, s: int, w: int):
        """Source basis of the cell and bitmask representatives of its delta-homology."""
        source, cycles = self.cell_cycles(s, w)
        _, _, incoming = self.delta_matrix(s + 1, w - 1)
        boundaries = gf2.row_reduce([c for c in incoming if c])
        return source, gf2.quotient_basis(cycles, boundaries)

    def cell_homology_dim(self, s: int, w: int) -> int:
        return len(self.cell_homology(s, w)[1])

    def check_delta_squared(self, smax: int) -> int:
        km = self.algebra.coefficients
        count = 0
        for s in range(0, min(smax, self.algebra.truncation) + 1):
            for mon in self.algebra.monomials_of_degree(s):
                el = self.algebra.element({mon: km.one})
                dd = apply_derivation(self.delta, apply_derivation(self.delta, el))
                if not dd.is_zero():
                    raise BoundsExceeded(f"delta^2 nonzero on {mon}")
                count += 1
        return count


def _model_generators(base: MotivicBase, truncation: int, xi1_squared: bool):
    km = base.coefficient_ring()
    rho = km.monomial(1, 0)
    gens = []
    weights = []
    if xi1_squared:
        gens.append(GeneratorSpec("xi1sq", 2, POLYNOMIAL))
        weights.append(-2)
    else:
        gens.append(GeneratorSpec("xi1", 1, POLYNOMIAL))
        weights.append(-1)
    max_xi = 0
    for j in range(2, 64):
        if 2**j - 1 <= truncation:
            gens.append(GeneratorSpec(f"xi{j}", 2**j - 1, POLYNOMIAL))
            weights.append(1 - 2**j)
            max_xi = j
    tau_indices = [i for i in range(2, 64) if 2**i <= truncation]
    for i in tau_indices:
        if i + 1 in tau_indices:
            image = {f"tau{i + 1}": rho}
        else:
            image = {}  # the square would leave the truncation window: it is
            # only reachable through products that the degree guard rejects,
            # and never through normalized monomials (exponents stay <= 1)
        gens.append(GeneratorSpec(f"tau{i}", 2**i, SQUARE, image))
        weights.append(1 - 2**i)
    return gens, weights, max_xi


def ko_homology_model(base: MotivicBase | str, truncation: int = 16) -> HomologyModel:
    """k^M[xi1^2, xi2, ..., tau2, tau3, ...]/(tau_i^2 - rho tau_{i+1}) + delta."""
    if isinstance(base, str):
        base = motivic_base(base)
    km = base.coefficient_ring()
    gens, weights, max_xi = _model_generators(base, truncation, xi1_squared=True)
    algebra = AlgebraSpec(gens, km, truncation)
    images = {"xi1sq": algebra.zero()}
    if max_xi >= 2:
        images["xi2"] = algebra.gen("xi1sq")
    for j in range(3, max_xi + 1):
        images[f"xi{j}"] = algebra.gen(f"xi{j - 1}") * algebra.gen(f"xi{j - 1}")
    delta = Derivation(algebra, -1, images, name="delta")
    return HomologyModel("ko", base, algebra, delta, weights)


def kgl_homology_model(base: MotivicBase | str, truncation: int = 16) -> HomologyModel:
    """Same with xi1 itself a generator: delta(xi1) = xi0^2 = 1."""
    if isinstance(base, str):
        base = motivic_base(base)
    km = base.coefficient_ring()
    gens, weights, max_xi = _model_generators(base, truncation, xi1_squared=False)
    algebra = AlgebraSpec(gens, km, truncation)
    images = {"xi1": algebra.one()}
    if max_xi >= 2:
        images["xi2"] = algebra.gen("xi1") * algebra.gen("xi1")
    for j in range(3, max_xi + 1):
        images[f"xi{j}"] = algebra.gen(f"xi{j - 1}") * algebra.gen(f"xi{j - 1}")
    delta = Derivation(algebra, -1, images, name="delta")
    return HomologyModel("kgl", base, algebra, delta, weights)


def sphere_model(base: MotivicBase | str, truncation: int = 16) -> HomologyModel:
    """The Witt K-theory sphere itself: k^M concentrated in stem 0."""
    if isinstance(base, str):
        base = motivic_base(base)
    km = base.coefficient_ring()
    algebra = AlgebraSpec([], km, truncation)
    delta = Derivation(algebra, -1, {}, name="delta")
    return HomologyModel("sphere", base, algebra, delta, [])


@dataclass
class BocksteinPage:
    """One page of the eta-Bockstein spectral sequence, as cell data."""

    page_number: int
    entries: dict  # (s, f, w) -> list of basis labels
    note: str = ""

    def dim(self, s: int, f: int, w: int) -> int:
        return len(self.entries.get((s, f, w), ()))

    def nonzero_cells(self):
        return sorted((k, len(v)) for k, v in self.entries.items() if v)


def _cell_labels(model: HomologyModel, items, f: int):
    labels = []
    for (a, mon) in items:
        bits = []
        if f:
            bits.append("h" + (f"^{f}" if f > 1 else ""))
        if a:
            bits.append("rho" + (f"^{a}" if a > 1 else ""))
        body = model.algebra.describe_monomial(mon)
        if body != "1" or not bits:
            bits.append(body)
        labels.append("*".join(bits))
    return labels


def bockstein_pages(
    model: HomologyModel,
    smax: int,
    fmax: int,
    wmin: int | None = None,
    wmax: int | None = None,
):
    """E1 and E2 of the eta-Bockstein spectral sequence plus collapse report.

    E1^{s,f,w} is the delta-complex at (s, w+f) with h^f adjoined
    (h has (s, f, w) = (0, 1, -1)); on E2 the f = 0 row holds the cycles and
    the rows f > 0 hold the delta-homology.  The collapse report verifies
    that every nonzero E2 cell with f > 0 sits in a stem divisible by 4 and
    records why no later differential can be nonzero.
    """
    if smax > model.algebra.truncation:
        raise BoundsExceeded(
            f"smax {smax} exceeds the model truncation {model.algebra.truncation}"
        )
    if wmin is None:
        wmin = -smax - fmax
    if wmax is None:
        wmax = smax
    model.check_delta_squared(smax)

    e1_entries = {}
    e2_entries = {}
    for s in range(0, smax + 1):
        for w in range(wmin, wmax + 1):
            for f in range(0, fmax + 1):
                cell = model.cell_basis(s, w + f)
                if cell:
                    e1_entries[(s, f, w)] = _cell_labels(model, cell, f)
            # E2: f = 0 row = cycles at (s, w), labelled by leading monomials
            source, cycles = model.cell_cycles(s, w)
            reduced = gf2.row_reduce(cycles)
            if reduced:
                leads = [source[mask.bit_length() - 1] for mask in reduced]
                e2_entries[(s, 0, w)] = _cell_labels(model, leads, 0)
    for s in range(0, smax + 1):
        for w in range(wmin, wmax + 1):
            for f in range(1, fmax + 1):
                source, reps = model.cell_homology(s, w + f)
                if reps:
                    leads = [source[mask.bit_length() - 1] for mask in reps]
                    e2_entries[(s, f, w)] = _cell_labels(model, leads, f)

    offenders = [
        (s, f, w)
        for (s, f, w), labels in e2_entries.items()
        if f > 0 and labels and s % 4 != 0
    ]
    collapse_report = {
        "f_positive_stems_mod_4": not offenders,
        "offending_cells": offenders,
        "argument": (
            "nonzero E2 cells with f > 0 lie in stems s = 0 mod 4; every "
            "differential d_r lowers s by 1 and raises f by r >= 2, so "
            "differentials out of f > 0 have source and target in stems "
            "divisible by 4 that differ by 1, hence vanish; differentials "
            "out of f = 0 are killed by h-multiplication: h is a permanent "
            "cycle detecting eta, multiplication by h is injective on the "
            "f > 0 part of E2 by construction, and h.d_r(x) = d_r(h.x) = 0."
        ),
        "collapses": not offenders,
    }
    e1 = BocksteinPage(1, e1_entries, note=f"model {model.name}/{model.base.name}")
    e2 = BocksteinPage(2, e2_entries, note=f"model {model.name}/{model.base.name}")
    return e1, e2, collapse_report


def tau_monomial_homology_dims(model: HomologyModel, smax: int, wmin: int, wmax: int):
    """Predicted delta-homology: monomial counts of k^M[tau_2, tau_3, ...].

    Independent of the homology computation: enumerates squarefree tau
    monomials with rho-powers filling each (s, w) cell.
    """
    km = model.algebra.coefficients
    tau_gens = [
        (i, model.algebra.index_of[f"tau{i}"])
        for i in range(2, 64)
        if f"tau{i}" in model.algebra.index_of
    ]
    out: dict = {}
    for bits in itertools.product([0, 1], repeat=len(tau_gens)):
        s = sum(b * 2**i for b, (i, _) in zip(bits, tau_gens))
        w = sum(b * (1 - 2**i) for b, (i, _) in zip(bits, tau_gens))
        if s > smax:
            continue
        for a in range(0, max(0, wmax - w) + 1):
            if not km._admissible(a):
                continue
            ww = w + a
            if wmin <= ww <= wmax:
                out[(s, ww)] = out.get((s, ww), 0) + 1
    return out


# ---------------------------------------------------------------------------
# conjugate-basis triangularity
# ---------------------------------------------------------------------------

def _monomial_order_vector(alg: SteenrodAlgebra, tau_power: int, key) -> tuple:
    """Exponents read from the top of the chain tau < tau0 < tau1 < xi1 < ...

    Comparing these tuples lexicographically realizes the monomial order in
    which a monomial with a higher top variable is larger.
    """
    eps, E = key
    vec = []
    for i in range(alg.max_tau, 0, -1):
        if i <= alg.max_xi:
            vec.append(E[i - 1] if i - 1 < len(E) else 0)
        vec.append(eps[i] if i < len(eps) else 0)
    vec.append(eps[0] if eps else 0)
    vec.append(tau_power)
    return tuple(vec)


def conjugate_basis_triangularity(alg: SteenrodAlgebra, max_weight: int = 8,
                                  max_tau_power: int = 2) -> int:
    """Expansions of eta_R(tau)^p . conj(m) in the basis {tau^q . conj(m')}.

    Verifies that the change-of-basis matrix is triangular with unit
    diagonal: the diagonal coefficient is exactly 1, and every other
    contribution involves a strictly larger (q, m') in the monomial order.
    Returns the number of pairs (p, m) checked.
    """
    km = alg.km
    mons = alg.basis_monomials(max_weight)
    # conjugation and eta_R(tau) factors cascade monomial weights upward
    # (tau-square rewrites), so candidates come from the full algebra window
    pool = alg.basis_monomials()
    conj: dict = {}

    def conjugate(key):
        if key not in conj:
            conj[key] = antipode(SteenrodElement(alg, {key: km.one}))
        return conj[key]

    def flatten(el: SteenrodElement) -> int:
        mask = 0
        for key, coeff in el.terms.items():
            for (a, t) in coeff:
                mask ^= 1 << _flat_index(a, t, key)
        return mask

    flat_cache: dict = {}

    def _flat_index(a, t, key):
        item = (a, t, key)
        if item not in flat_cache:
            flat_cache[item] = len(flat_cache)
        return flat_cache[item]

    checked = 0
    eta = alg.eta_r_tau()
    for p in range(0, max_tau_power + 1):
        for m in mons:
            x = conjugate(m)
            for _ in range(p):
                x = x * eta
            target_bidegree = _element_bidegree(x)
            if target_bidegree is None:
                continue
            # candidate conjugate basis elements rho^a tau^q conj(m')
            columns = []
            index = []
            for mp in pool:
                base_p, base_q = mon_bidegree(mp)
                # rho^a tau^q: (-a, -a-q): solve for a, q
                a = base_p - target_bidegree[0]
                q = (base_q - target_bidegree[1]) - a
                if a < 0 or q < 0 or not km._admissible(a):
                    continue
                el = conjugate(mp).scale(km.monomial(a, q))
                if el.is_zero():
                    continue
                columns.append(flatten(el))
                index.append((a, q, mp))
            sol = gf2.solve(columns, flatten(x))
            if sol is None:
                raise BoundsExceeded(
                    f"conjugate expansion failed for p={p}, m={describe_mon(m)}"
                )
            support = [index[j] for j in range(len(index)) if (sol >> j) & 1]
            own = _monomial_order_vector(alg, p, m)
            diagonal_seen = False
            for (a, q, mp) in support:
                if (q, mp) == (p, m):
                    if a != 0:
                        raise BoundsExceeded(
                            f"diagonal entry not a unit at p={p}, m={describe_mon(m)}"
                        )
                    diagonal_seen = True
                    continue
                other = _monomial_order_vector(alg, q, mp)
                if not other > own:
                    raise BoundsExceeded(
                        f"triangularity violated: tau^{q}*{describe_mon(mp)} "
                        f"is not above tau^{p}*{describe_mon(m)}"
                    )
            if not diagonal_seen:
                raise BoundsExceeded(
                    f"diagonal entry missing at p={p}, m={describe_mon(m)}"
                )
            checked += 1
    return checked


def _element_bidegree(el: SteenrodElement):
    degs = set()
    for key, coeff in el.terms.items():
        p, q = mon_bidegree(key)
        for (a, t) in coeff:
            cp, cq = coeff_bidegree(a, t)
            degs.add((p + cp, q + cq))
    if not degs:
        return None
    if len(degs) > 1:
        raise BoundsExceeded(f"element not bihomogeneous: {degs}")
    return degs.pop()
