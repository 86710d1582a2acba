"""The mod-2 motivic dual Steenrod algebra over a presented base k^M[tau].

Elements are left k^M[tau]-linear combinations of Milnor monomials
tau^eps xi^E; the square of tau_i rewrites to (tau + rho tau_0) xi_{i+1}
+ rho tau_{i+1}.  As a ring the algebra is a `graded.AlgebraSpec` (see
`steenrod_generators`), whose `normalize` applies that rewrite, and the
monomial keys are its monomials: tau_i is generator 2i and xi_j generator
2j - 1, so keys do not depend on the weight bound of the algebra.  An
element is a `graded.GradedElement` over the `SteenrodAlgebra`, which
answers to its `coefficients` and `normalize` (the spec's normal form,
refused past the weight bound); `SteenrodElement` adds only that bounded
product, equality across algebras and the Milnor-basis repr.  The
coproduct lives in the tensor square over the base, where the two units
differ by eta_R(tau) = tau + rho tau_0.  A tensor is a plain term dict
{word: c}: a word is a tuple of monomial ids, one per slot, and its
coefficient c in k^M[tau] sits at the far left.  Each algebra gives each
monomial key a small int id on first use (`SteenrodAlgebra.mono_id`), and
`coproduct`, `dual_action` and `check_antipode_axiom` spell ids as keys
again.  There is one crossing rule, `combine_slots`: a coefficient p left
of a slot crosses a monomial m of that slot as the cached normal form of
m eta_R(p) (`SteenrodAlgebra.mono_times_eta`).  Every tensor loop
accumulates through `graded.add_term` or its batched form
`graded.add_terms`, so only `graded` knows that k^M[tau] coefficients are
ints added by XOR.  Dual operations are obtained by contracting the
coproduct against dual basis monomials; the antipode is computed
recursively and self-checked against the algebroid axiom.  The
eta-Bockstein pages for the ko- and kgl-models are assembled from the
delta-complex with the class h adjoined.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import gf2
from .graded import (
    POLYNOMIAL,
    SQUARE,
    AlgebraError,
    AlgebraSpec,
    BoundsExceeded,
    Derivation,
    GeneratorSpec,
    GradedElement,
    KMTau,
    TruncationExceeded,
    add_term,
    add_terms,
    apply_derivation,
    by_coefficient,
    mon_mul,
    terms_equal,
)


class UnknownOperator(KeyError):
    pass


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------

# each base by the N with rho^N = 0 in k^M(F)/2 (None: rho is free)
MOTIVIC_BASES = {
    "real_closed": None,
    "quadratically_closed": 1,
    # k^M(F_q)/2 for q = 3 mod 4: one generator u = rho with u^2 = 0.  The
    # vanishing of products in degree 2 is standard for finite fields and is
    # recorded here as an external input.
    "finite_field_3mod4": 2,
}


def rho_order(base: str) -> int | None:
    if base not in MOTIVIC_BASES:
        raise UnknownOperator(f"unknown motivic base {base!r}")
    return MOTIVIC_BASES[base]


# ---------------------------------------------------------------------------
# generators and monomial keys: tau_i is generator 2i, xi_j is 2j - 1
# ---------------------------------------------------------------------------

# weight (2^i - 1 for both tau_i and xi_i) and stem (2^i for tau_i, 2^i - 1
# for xi_i) per generator index
_WEIGHT = tuple(2 ** ((n + 1) // 2) - 1 for n in range(128))
_STEM = tuple(w + (n % 2 == 0) for n, w in enumerate(_WEIGHT))


def _generator(n: int) -> tuple[str, int]:
    """("tau", i) or ("xi", j) for the generator of index n = 2i or 2j - 1."""
    return ("xi", (n + 1) // 2) if n % 2 else ("tau", n // 2)


def top_index(weight: int) -> int:
    """The largest k with 2^k - 1 <= weight: the top tau_k (and xi_k for k >= 1)."""
    if weight < 0:
        raise ValueError(f"weight {weight} is negative")
    return (weight + 1).bit_length() - 1


def hopf_weight(max_weight: int) -> int:
    """The algebra weight that the Hopf checks up to `max_weight` need.

    It is the largest stem of a monomial of weight <= max_weight, which has
    at most top_index + 1 tau factors, each of stem one more than its weight.
    Products, tau_i^2 rewrites and the crossing rule (m eta_R(p)) keep the
    bidegree, and a coefficient rho^a tau^t has stem t >= 0, so every monomial
    that a check meets has stem, hence weight, at most this.
    """
    return max_weight + top_index(max_weight) + 1


def conjugate_weight(max_weight: int, max_tau_power: int) -> int:
    """The algebra weight that `conjugate_basis_triangularity` up to these bounds needs.

    A candidate rho^a tau^q chi(m') matches eta_R(tau)^p chi(m) only when
    stem(m') <= stem(m) + p, and stem(m) <= hopf_weight(max_weight), so no
    monomial the check meets weighs more than this.
    """
    return hopf_weight(max_weight) + max_tau_power


def steenrod_generators(km, weight: int) -> list[GeneratorSpec]:
    """tau_0, xi_1, tau_1, ..., xi_k, tau_k with 2^k - 1 <= weight, by index.

    Each degree is the stem, so that every square image is homogeneous
    (KMTau gives the coefficient tau stem 1).  The square of the top tau_k
    needs tau_{k+1}, which is past the bound: its image is left unset, and
    normalizing it raises TruncationExceeded.
    """
    top = top_index(weight)
    tau, rho = km.monomial(0, 1), km.monomial(1, 0)
    gens = []
    for n in range(2 * top + 1):
        kind, i = _generator(n)
        if kind == "xi":
            gens.append(GeneratorSpec(f"xi{i}", _STEM[n], POLYNOMIAL))
            continue
        image = None
        if i < top:
            image = {f"xi{i + 1}": tau, f"tau0*xi{i + 1}": rho, f"tau{i + 1}": rho}
            image = {mon: c for mon, c in image.items() if not km.is_zero(c)}
        gens.append(GeneratorSpec(f"tau{i}", _STEM[n], SQUARE, image))
    return gens


@functools.lru_cache(maxsize=16)
def steenrod_spec(order: int | None, weight: int) -> AlgebraSpec:
    """The ring of `SteenrodAlgebra(base, weight)`, built once per (rho order, weight).

    Its truncation is the largest stem of a normal form, `hopf_weight(weight)`.
    """
    km = KMTau(order)
    return AlgebraSpec(steenrod_generators(km, weight), km, hopf_weight(weight))


UNIT_MON = ()
UNIT_ID = 0  # the id of UNIT_MON in every algebra


@functools.lru_cache(maxsize=None)
def mon_weight(key) -> int:
    return sum(_WEIGHT[n] * e for n, e in key)


@functools.lru_cache(maxsize=None)
def mon_bidegree(key) -> tuple[int, int]:
    """(stem + weight, weight) of a monomial key."""
    q = mon_weight(key)
    return sum(_STEM[n] * e for n, e in key) + q, q


def coeff_bidegree(a: int, t: int) -> tuple[int, int]:
    # rho has (p, q) = (-1, -1); the coefficient tau has (0, -1)
    return (-a, -a - t)


def describe_mon(key) -> str:
    """tau factors first, then xi factors, each by increasing index."""
    bits = []
    for n, e in sorted(key, key=lambda item: (item[0] % 2, item[0])):
        kind, i = _generator(n)
        bits.append(f"{kind}{i}" + (f"^{e}" if e > 1 else ""))
    return "*".join(bits) if bits else "1"


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

class SteenrodAlgebra:
    def __init__(self, base: str = "real_closed", weight: int = 16):
        self.weight = weight
        self.max_tau = self.max_xi = top_index(weight)  # no xi_0: max_xi is 0 at weight 0
        self.spec = steenrod_spec(rho_order(base), weight)
        self.coefficients = self.spec.coefficients
        self.term_degree = self.spec.term_degree  # the stem grading hopf_weight(weight) bounds
        # the tensor layer names each monomial key by a small int id, its
        # position in mono_keys
        self.mono_keys: list = [UNIT_MON]
        self._ids: dict = {UNIT_MON: UNIT_ID}
        # memos: Delta(m), also by coefficient, m*m' and m*eta_R(c) by monomial id,
        # chi(m) by key and eta_R(c) by coefficient; they hold term dicts, never elements, so
        # that no reference cycle keeps an algebra alive after its last element
        self._coproduct_cache: dict = {}
        self._coproduct_groups: dict = {}
        self._antipode_cache: dict = {}
        self._product_cache: dict = {}
        self._eta_product_cache: dict = {}
        self._eta_cache: dict = {}

    def normalize(self, raw: dict) -> dict:
        """`spec.normalize` of raw terms, whose result must respect the weight bound."""
        out = self.spec.normalize(raw)
        for key in out:
            if mon_weight(key) > self.weight:
                raise TruncationExceeded(
                    f"monomial of weight {mon_weight(key)} exceeds {self.weight}"
                )
        return out

    def mono_id(self, key) -> int:
        """The id of a monomial key, given on first use."""
        mid = self._ids.get(key)
        if mid is None:
            mid = self._ids[key] = len(self.mono_keys)
            self.mono_keys.append(key)
        return mid

    def slot(self, terms: dict) -> dict:
        """Key-keyed terms as a one-slot tensor {(id,): c}."""
        return {(self.mono_id(key),): c for key, c in terms.items()}

    def mono_product(self, i, j) -> dict:
        """Cached one-slot normal form of the product of the monomials with ids i, j."""
        memo = (i, j) if i <= j else (j, i)
        out = self._product_cache.get(memo)
        if out is None:
            keys = self.mono_keys
            out = self._product_cache[memo] = self.slot(
                self.normalize({mon_mul(keys[i], keys[j]): self.coefficients.one}))
        return out

    def mono_times_eta(self, i, coeff) -> dict:
        """Cached one-slot normal form of the monomial with id i times eta_R(coeff).

        The result is shared between callers and must not be modified.
        """
        memo = (i, coeff)
        out = self._eta_product_cache.get(memo)
        if out is None:
            mono = SteenrodElement(self, {self.mono_keys[i]: self.coefficients.one})
            out = self._eta_product_cache[memo] = self.slot(
                (mono * self.eta_r_of_coeff(coeff)).terms)
        return out

    # -- element constructors ---------------------------------------------
    def zero(self):
        return SteenrodElement(self, {})

    def one(self):
        return SteenrodElement(self, {UNIT_MON: self.coefficients.one})

    def tau(self, i: int) -> "SteenrodElement":
        if i > self.max_tau:
            raise TruncationExceeded(f"tau_{i} exceeds the weight bound {self.weight}")
        return SteenrodElement(self, {_tau_key(i): self.coefficients.one})

    def xi(self, j: int) -> "SteenrodElement":
        if j > self.max_xi:
            raise TruncationExceeded(f"xi_{j} exceeds the weight bound {self.weight}")
        return SteenrodElement(self, {_xi_key(j): self.coefficients.one})

    def eta_r_tau(self) -> "SteenrodElement":
        """eta_R(tau) = tau + rho tau_0."""
        tau, rho = self.coefficients.monomial(0, 1), self.coefficients.monomial(1, 0)
        return SteenrodElement(self, {UNIT_MON: tau}) + self.tau(0).scale(rho)

    def eta_r_of_coeff(self, coeff) -> "SteenrodElement":
        """eta_R on a k^M[tau] coefficient, as an algebra element."""
        cached = self._eta_cache
        if coeff in cached:
            return SteenrodElement(self, cached[coeff])
        km = self.coefficients
        out = self.zero()
        eta = self.eta_r_tau()
        powers = {0: self.one()}
        for a, t in km.terms(coeff):
            if t not in powers:
                p = powers[max(powers)]
                for _ in range(t - max(powers)):
                    p = p * eta
                powers[t] = p
            out = out + powers[t].scale(km.monomial(a, 0))
        cached[coeff] = out.terms
        return out

    # -- weight bookkeeping ----------------------------------------------
    def basis_monomials(self, max_weight: int | None = None):
        """The spec's basis keys (tau exponents <= 1) of weight <= max_weight, by default the
        bound; a check on them needs an algebra of weight >= hopf_weight(max_weight)."""
        if max_weight is None:
            max_weight = self.weight
        elif hopf_weight(max_weight) > self.weight:
            raise TruncationExceeded(f"checks to weight {max_weight} need an algebra of "
                                     f"weight {hopf_weight(max_weight)}, not {self.weight}")
        return sorted(key for s in range(hopf_weight(max_weight) + 1)
                      for key in self.spec.monomials_of_degree(s) if mon_weight(key) <= max_weight)


class SteenrodElement(GradedElement):
    __slots__ = ()

    def __mul__(self, other):
        km = self.algebra.coefficients
        raw: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_term(km, raw, mon_mul(k1, k2), km.mul(c1, c2))
        return SteenrodElement(self.algebra, self.algebra.normalize(raw))

    # unlike a GradedElement, equal to an element of another algebra with the same terms
    def __eq__(self, other):
        if not isinstance(other, SteenrodElement):
            return NotImplemented
        return terms_equal(self.algebra.coefficients, self.terms, other.terms)

    __hash__ = GradedElement.__hash__

    def __repr__(self):
        if not self.terms:
            return "0"
        km = self.algebra.coefficients
        bits = []
        for key in sorted(self.terms):
            c = km.describe(self.terms[key])
            m = describe_mon(key)
            bits.append(m if c == "1" else (c if m == "1" else f"({c})*{m}"))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# tensors over the base: term dicts {word: c}, a word a tuple of monomial ids
# ---------------------------------------------------------------------------

def combine_slots(alg: SteenrodAlgebra, out: dict, c, x: dict, y: dict) -> None:
    """Add c . x (x) y to out in the far-left normal form.

    x is a one-slot tensor and y a tensor of any number of slots, given by
    coefficient (`graded.by_coefficient`).  This is the crossing rule: a
    coefficient s of y waits left of y and crosses each monomial m of x as
    m eta_R(s), once for all the words of y with that coefficient.  x and y
    are read, never modified.
    """
    km = alg.coefficients
    one, mul, eta = km.one, km.mul, alg.mono_times_eta
    for xm, cx in x.items():
        scale = mul(c, cx)
        for s, tails in y.items():
            # the unit crosses m unchanged
            for k, s1 in (((xm, one),) if s == one else eta(xm[0], s).items()):
                add_terms(km, out, tails, mul(scale, s1), prefix=k)


def tensor_mul(alg: SteenrodAlgebra, x: dict, y: dict) -> dict:
    """Product of two 2-tensors."""
    km, product = alg.coefficients, alg.mono_product
    out: dict = {}
    for (a1, a2), c1 in x.items():
        for (b1, b2), c2 in y.items():
            c = km.mul(c1, c2)
            if c:
                combine_slots(alg, out, c, product(a1, b1), by_coefficient(km, product(a2, b2)))
    return out


# ---------------------------------------------------------------------------
# coproduct, counit, dual actions, antipode
# ---------------------------------------------------------------------------

def _tau_key(i: int):
    return ((2 * i, 1),)


def _xi_key(j: int, power: int = 1):
    """Key of xi_j^power (xi_0 = 1)."""
    return ((2 * j - 1, power),) if j else UNIT_MON


def _gen_coproduct(alg: SteenrodAlgebra, kind: str, i: int) -> dict:
    """Delta of tau_i or xi_i as a 2-tensor; xi_(i-j)^(2^j) weighs 2^i - 2^j < 2^i."""
    one, mid = alg.coefficients.one, alg.mono_id
    out = {(mid(_tau_key(i)), UNIT_ID): one} if kind == "tau" else {}
    lower = _tau_key if kind == "tau" else _xi_key
    for j in range(0, i + 1):
        out[(mid(_xi_key(i - j, 2**j)), mid(lower(j)))] = one
    return out


def _split_last(key):
    """(key / g, g) for the generator g of highest index in a non-unit monomial.

    Delta and chi of key are their values on key / g times one more
    generator factor.
    """
    *head, (n, e) = key
    rest = tuple(head) + (((n, e - 1),) if e > 1 else ())
    return rest, n


def _mono_coproduct(alg: SteenrodAlgebra, mid: int) -> dict:
    """Delta of the monomial with id mid, built as Delta(m / g) . Delta(g) and cached on alg.

    The result is shared between callers and must not be modified.
    """
    cached = alg._coproduct_cache.get(mid)
    if cached is None:
        if mid == UNIT_ID:
            cached = {(UNIT_ID, UNIT_ID): alg.coefficients.one}
        else:
            rest, n = _split_last(alg.mono_keys[mid])
            cached = tensor_mul(alg, _mono_coproduct(alg, alg.mono_id(rest)),
                                _gen_coproduct(alg, *_generator(n)))
        alg._coproduct_cache[mid] = cached
    return cached


def _coproduct_by_coefficient(alg: SteenrodAlgebra, mid: int) -> dict:
    """`graded.by_coefficient` of Delta of the monomial with id mid, cached on alg."""
    cached = alg._coproduct_groups.get(mid)
    if cached is None:
        cached = alg._coproduct_groups[mid] = by_coefficient(
            alg.coefficients, _mono_coproduct(alg, mid))
    return cached


def coproduct(x: SteenrodElement) -> dict:
    """Delta in the left normal form (coefficients migrated to the far left).

    This presentation is the free left-module normal form on the monomial
    pairs; tensor equality checks (coassociativity, counit, the antipode
    axiom) use it.  Its words are pairs of monomial keys, and the caller
    owns the returned term dict.
    """
    alg = x.algebra
    km, keys = alg.coefficients, alg.mono_keys
    out: dict = {}
    for key, coeff in x.terms.items():
        for (a, b), c in _mono_coproduct(alg, alg.mono_id(key)).items():
            add_term(km, out, (keys[a], keys[b]), km.mul(coeff, c))
    return out


def coproduct_left(alg: SteenrodAlgebra, t: dict, out: dict | None = None) -> dict:
    """(Delta (x) id) on a 2-tensor, added to out (a new dict by default), which it returns."""
    out = {} if out is None else out
    km = alg.coefficients
    for (m1, m2), c in t.items():
        # append m2 on the right: no coefficient crosses to the right
        for cc, words in _coproduct_by_coefficient(alg, m1).items():
            add_terms(km, out, words, km.mul(c, cc), suffix=(m2,))
    return out


def coproduct_right(alg: SteenrodAlgebra, t: dict, out: dict | None = None) -> dict:
    """(id (x) Delta) on a 2-tensor, added to out (a new dict by default), which it returns.

    The coefficients of Delta(m2) cross m1 by the crossing rule.
    """
    out = {} if out is None else out
    one = alg.coefficients.one
    for (m1, m2), c in t.items():
        combine_slots(alg, out, c, {(m1,): one}, _coproduct_by_coefficient(alg, m2))
    return out


def check_coassociativity_counit(alg: SteenrodAlgebra, max_weight: int) -> int:
    """Coassociativity, then the counit axiom, on each basis monomial; returns how many.

    (Delta x id)Delta = (id x Delta)Delta and (eps x id)Delta = id = (id x eps)Delta.
    """
    km = alg.coefficients
    keys = alg.basis_monomials(max_weight)
    for key in keys:
        mid = alg.mono_id(key)
        d = _mono_coproduct(alg, mid)
        # the two sides, one added with the opposite sign, must cancel
        if coproduct_right(alg, {w: km.neg(c) for w, c in d.items()}, coproduct_left(alg, d)):
            raise BoundsExceeded(f"coassociativity fails on {describe_mon(key)}")
        # eps keeps the words whose other slot is the unit, each once
        left = {m2: c for (m1, m2), c in d.items() if m1 == UNIT_ID}
        right = {m1: c for (m1, m2), c in d.items() if m2 == UNIT_ID}
        x = {mid: km.one}
        if not (terms_equal(km, left, x) and terms_equal(km, right, x)):
            raise BoundsExceeded(f"counit axiom fails on {describe_mon(key)}")
    return len(keys)


_OPERATORS = {
    "tau0_hat": _tau_key(0),
    "tau1_hat": _tau_key(1),
    "xi1_hat": _xi_key(1),
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
    km = alg.coefficients
    out = alg.zero()
    for (m1, m2), c in coproduct(x).items():
        if side == "L":
            coeff = antipode(SteenrodElement(alg, {m1: c})).terms.get(target, km.zero)
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
    starting from chi(tau_0) = tau_0.  chi is multiplicative, so
    chi(c m) = eta_R(c) chi(m) with chi(m) cached per basis monomial.
    """
    alg = x.algebra
    km = alg.coefficients
    out = alg.zero()
    for key, coeff in x.terms.items():
        chi = _mono_antipode(alg, key)
        out = out + (chi if coeff == km.one else alg.eta_r_of_coeff(coeff) * chi)
    return out


def _mono_antipode(alg: SteenrodAlgebra, key) -> SteenrodElement:
    """chi(key), cached on alg: chi(key / g) . chi(g) for the last generator g,
    and the recursive identities of `antipode` on a generator.

    The result is shared between callers and must not be modified.
    """
    cached = alg._antipode_cache.get(key)
    if cached is not None:
        return SteenrodElement(alg, cached)
    one = alg.coefficients.one
    if key == UNIT_MON:
        out = alg.one()
    else:
        rest, n = _split_last(key)
        if rest != UNIT_MON:
            out = _mono_antipode(alg, rest) * _mono_antipode(alg, ((n, 1),))
        else:
            kind, i = _generator(n)
            out = alg.tau(i) if kind == "tau" else alg.zero()
            for j in range(i):
                power = SteenrodElement(alg, {_xi_key(i - j, 2**j): one})
                lower = _tau_key(j) if kind == "tau" else _xi_key(j)
                out = out + power * _mono_antipode(alg, lower)
    alg._antipode_cache[key] = out.terms
    return out


def check_antipode_axiom(alg: SteenrodAlgebra, max_weight: int) -> int:
    """m(id (x) chi)Delta = (left unit).counit on basis monomials.

    The composite is well defined on the balanced tensor (chi carries
    eta_L to eta_R), so it may be evaluated termwise on the left normal
    form by plain algebra products; their raw sum is normalized once.
    """
    km = alg.coefficients
    mul = km.mul
    basis, keys = alg.basis_monomials(max_weight), alg.mono_keys
    for key in basis:
        raw: dict = {}
        for (a, b), c in _mono_coproduct(alg, alg.mono_id(key)).items():
            for k2, c2 in _mono_antipode(alg, keys[b]).terms.items():
                add_term(km, raw, mon_mul(keys[a], k2), mul(c, c2))
        expected = {UNIT_MON: km.one} if key == UNIT_MON else {}
        if not terms_equal(km, alg.normalize(raw), expected):
            raise BoundsExceeded(f"antipode axiom fails on {describe_mon(key)}")
    return len(basis)


_ACTION_COLUMNS = (("tau0_hat", "L"), ("tau1_hat", "L"), ("xi1_hat", "L"),
                   ("tau0_hat", "R"), ("xi1_hat", "R"))


def action_table_ok(alg: SteenrodAlgebra) -> tuple[bool, int]:
    """The dual actions of tau0, tau1 and xi1 on the generators match the table.

    On the left each operation sends its own generator to 1, xi1_hat sends
    tau_1 to tau_0, and all other generators go to 0; on the right tau0_hat
    sends tau_i to xi_i and xi1_hat sends xi_i to xi_{i-1}^2 (xi_0 = 1).
    Returns the verdict and the number of actions compared.
    """
    one, zero, xi = alg.one(), alg.zero(), alg.xi
    rows = [(alg.tau(i), (one if i == 0 else zero, one if i == 1 else zero,
                          alg.tau(0) if i == 1 else zero, xi(i), zero))
            for i in range(alg.max_tau + 1)]
    rows += [(xi(j), (zero, zero, one if j == 1 else zero, zero, xi(j - 1) * xi(j - 1)))
             for j in range(1, alg.max_xi + 1)]
    cases = [(dual_action(op, side, x), want)
             for x, wants in rows for (op, side), want in zip(_ACTION_COLUMNS, wants)]
    return all(got == want for got, want in cases), len(cases)


# ---------------------------------------------------------------------------
# homology models for ko and kgl, and the eta-Bockstein pages
# ---------------------------------------------------------------------------

# a per-model cache: a dict field left out of __init__, repr and ==
_memo = functools.partial(field, default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class HomologyModel:
    """A graded model for pi_**(E smash k^M) with its Bockstein derivation.

    The algebra is graded by the stem s; each generator also carries its
    motivic weight w, and coefficients are k^M (powers of rho, with w = +1
    each).  delta lowers s by 1 and raises w by 1.  Cell bases, delta
    columns, cycles and homology representatives are computed once per
    (s, w) cell and kept with the model as tuples; so are the weighted
    monomials of each stem, delta of each monomial, which every rho-multiple
    of it shares, and the label of each basis element (rho-power, monomial).
    """

    name: str
    base: str
    algebra: AlgebraSpec
    delta: Derivation
    gen_weights: list  # w per generator index
    _stems: dict = _memo()
    _cells: dict = _memo()
    _deltas: dict = _memo()
    _images: dict = _memo()
    _cycles: dict = _memo()
    _homology: dict = _memo()
    _labels: dict = _memo()

    def monomial_weight(self, mon) -> int:
        return sum(self.gen_weights[i] * e for i, e in mon)

    def cell_basis(self, s: int, w: int):
        """F2-basis of the (stem, weight) cell: pairs (rho_exp, monomial).

        Callers get a fresh list.
        """
        cell = self._cells.get((s, w))
        if cell is None:
            stem = self._stems.get(s)
            if stem is None:
                mons = (self.algebra.monomials_of_degree(s)
                        if s <= self.algebra.truncation else ())
                stem = self._stems[s] = tuple((self.monomial_weight(mon), mon) for mon in mons)
            km = self.algebra.coefficients
            cell = self._cells[(s, w)] = tuple(sorted(
                (w - q, mon) for q, mon in stem if w >= q and km.admissible(w - q)))
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
            image = self._images.get(mon)
            if image is None:
                el = self.algebra.element({mon: km.one})
                image = self._images[mon] = apply_derivation(self.delta, el).terms
            mask = 0
            for mon2, coeff in image.items():
                for a2, t2 in km.terms(coeff):
                    if t2:
                        raise AlgebraError(
                            f"delta of {mon} has a tau coefficient, impossible in a k^M model"
                        )
                    key = (a + a2, mon2)
                    if key in tindex:
                        mask ^= 1 << tindex[key]
                    elif a + a2 >= 0 and km.admissible(a + a2):
                        raise BoundsExceeded(
                            f"delta image leaves the requested weight window at {key}"
                        )
            cols.append(mask)
        cached = self._deltas[(s, w)] = (tuple(source), tuple(target), tuple(cols))
        return cached

    def cell_cycles(self, s: int, w: int):
        """Source basis of the cell and bitmasks spanning its delta-cycles."""
        cached = self._cycles.get((s, w))
        if cached is None:
            source, target, cols = self.delta_matrix(s, w)
            cycles = gf2.nullspace(len(source), gf2.transpose(cols, len(target))) if source else ()
            cached = self._cycles[(s, w)] = (source, tuple(cycles))
        return cached

    def cell_homology(self, s: int, w: int):
        """Source basis of the cell and bitmask representatives of its delta-homology."""
        cached = self._homology.get((s, w))
        if cached is None:
            source, cycles = self.cell_cycles(s, w)
            _, _, incoming = self.delta_matrix(s + 1, w - 1)
            reps = tuple(gf2.quotient_basis(cycles, incoming))
            cached = self._homology[(s, w)] = (source, reps)
        return cached

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


def _xi_tau_model(name: str, base: str, truncation: int) -> HomologyModel:
    """The ko model (first generator xi1^2) or the kgl model (first generator xi1).

    Then come xi_j of stem 2^j - 1 and tau_i of stem 2^i up to the
    truncation, of weight 1 - 2^j and 1 - 2^i; delta(xi_j) = xi_(j-1)^2.
    """
    km = KMTau(rho_order(base))
    rho = km.monomial(1, 0)
    ko = name == "ko"
    gens = [GeneratorSpec("xi1sq", 2, POLYNOMIAL) if ko else GeneratorSpec("xi1", 1, POLYNOMIAL)]
    weights = [-gens[0].degree]
    max_xi = top_index(truncation)
    for j in range(2, max_xi + 1):
        gens.append(GeneratorSpec(f"xi{j}", 2**j - 1, POLYNOMIAL))
        weights.append(1 - 2**j)
    tau_indices = range(2, truncation.bit_length())  # 2^i <= truncation
    for i in tau_indices:
        if i + 1 in tau_indices:
            image = {f"tau{i + 1}": rho}
        else:
            image = {}  # the square would leave the truncation window: it is
            # only reachable through products that the degree guard rejects,
            # and never through normalized monomials (exponents stay <= 1)
        gens.append(GeneratorSpec(f"tau{i}", 2**i, SQUARE, image))
        weights.append(1 - 2**i)
    algebra = AlgebraSpec(gens, km, truncation)
    # delta(xi1^2) = 0 on ko; delta(xi1) = xi0^2 = 1 on kgl
    images = {"xi1sq": algebra.zero()} if ko else {"xi1": algebra.one()}
    for j in range(2, max_xi + 1):
        if ko and j == 2:
            images["xi2"] = algebra.gen("xi1sq")
        else:
            images[f"xi{j}"] = algebra.gen(f"xi{j - 1}") * algebra.gen(f"xi{j - 1}")
    delta = Derivation(algebra, -1, images, name="delta")
    return HomologyModel(name, base, algebra, delta, weights)


def ko_homology_model(base: str, truncation: int = 16) -> HomologyModel:
    """k^M[xi1^2, xi2, ..., tau2, tau3, ...]/(tau_i^2 - rho tau_{i+1}) + delta."""
    return _xi_tau_model("ko", base, truncation)


def kgl_homology_model(base: str, truncation: int = 16) -> HomologyModel:
    """Same with xi1 itself a generator: delta(xi1) = xi0^2 = 1."""
    return _xi_tau_model("kgl", base, truncation)


def sphere_model(base: str, truncation: int = 16) -> HomologyModel:
    """The Witt K-theory sphere itself: k^M concentrated in stem 0."""
    km = KMTau(rho_order(base))
    algebra = AlgebraSpec([], km, truncation)
    delta = Derivation(algebra, -1, {}, name="delta")
    return HomologyModel("sphere", base, algebra, delta, [])


@dataclass
class BocksteinPage:
    """One page of the eta-Bockstein spectral sequence, as cell data."""

    page_number: int
    entries: dict  # (s, f, w) -> list of basis labels
    note: str = ""


def _cell_labels(model: HomologyModel, items, f: int):
    """Labels rho^a*m of the (a, m) items, each made once per model, times h^f."""
    h = "h" + (f"^{f}" if f > 1 else "")
    labels = []
    for item in items:
        label = model._labels.get(item)
        if label is None:
            a, mon = item
            bits = ["rho" + (f"^{a}" if a > 1 else "")] if a else []
            body = model.algebra.describe_monomial(mon)
            if body != "1" or not bits:
                bits.append(body)
            label = model._labels[item] = "*".join(bits)
        labels.append(label if not f else h if label == "1" else f"{h}*{label}")
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
    records why no later differential can be nonzero, and how many f > 0
    positions (s, f, w) it examined.
    """
    if smax >= model.algebra.truncation:
        # the cells at stem smax take their boundaries from stem smax + 1
        raise BoundsExceeded(
            f"smax {smax} must be below the model truncation {model.algebra.truncation}"
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
        "f_positive_cells": (smax + 1) * max(0, wmax - wmin + 1) * fmax,
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
    e1 = BocksteinPage(1, e1_entries, note=f"model {model.name}/{model.base}")
    e2 = BocksteinPage(2, e2_entries, note=f"model {model.name}/{model.base}")
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
            if not km.admissible(a):
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
    exps = dict(key)
    vec = []
    for i in range(alg.max_tau, 0, -1):
        vec.append(exps.get(2 * i - 1, 0))  # xi_i
        vec.append(exps.get(2 * i, 0))      # tau_i
    vec.append(exps.get(0, 0))
    vec.append(tau_power)
    return tuple(vec)


def conjugate_basis_triangularity(alg: SteenrodAlgebra, max_weight: int = 8,
                                  max_tau_power: int = 2) -> int:
    """Expansions of eta_R(tau)^p . conj(m) in the basis {tau^q . conj(m')}.

    Verifies that the change-of-basis matrix is triangular with unit
    diagonal: the diagonal coefficient is exactly 1, and every other
    contribution involves a strictly larger (q, m') in the monomial order.
    The candidate columns of each target bidegree are eliminated once for
    all pairs of that bidegree, and must be independent, so that the
    expansion is unique.  Returns the number of pairs (p, m) checked; an
    algebra below `conjugate_weight(max_weight, max_tau_power)` is refused.

    The expansion is triangular in both orders of tau_i and xi_i on the
    three bases for weights <= 8 and tau powers <= 2; the chain read from
    the bottom fails over R, where eta_R(tau) = tau + rho tau_0.
    """
    need = conjugate_weight(max_weight, max_tau_power)
    if need > alg.weight:
        raise TruncationExceeded(f"triangularity to weight {max_weight} and tau power "
                                 f"{max_tau_power} needs an algebra of weight {need}, not {alg.weight}")
    km = alg.coefficients
    mons = alg.basis_monomials(max_weight)
    # conjugation and eta_R(tau) factors cascade monomial weights upward
    # (tau-square rewrites), so candidates come from the full algebra window
    pool = alg.basis_monomials()

    flat_cache: dict = {}

    def flatten(el: SteenrodElement) -> int:
        mask = 0
        for key, coeff in el.terms.items():
            for a, t in km.terms(coeff):
                mask ^= 1 << flat_cache.setdefault((a, t, key), len(flat_cache))
        return mask

    # rows (p, m, x = conj(m) eta_R(tau)^p), grouped by the bidegree of x
    rows = []
    by_bidegree: dict = {}
    eta = alg.eta_r_tau()
    for p in range(0, max_tau_power + 1):
        for m in mons:
            x = _mono_antipode(alg, m)
            for _ in range(p):
                x = x * eta
            target_bidegree = _element_bidegree(x)
            if target_bidegree is not None:
                by_bidegree.setdefault(target_bidegree, []).append(len(rows))
                rows.append((p, m, x))

    # one set of candidate columns rho^a tau^q conj(m') per bidegree
    pool_bidegrees = [(mon_bidegree(mp), mp) for mp in pool]
    expansions = [None] * len(rows)
    for (tp, tq), members in by_bidegree.items():
        columns = []
        index = []
        for (base_p, base_q), mp in pool_bidegrees:
            # rho^a tau^q: (-a, -a-q): solve for a, q
            a = base_p - tp
            q = (base_q - tq) - a
            if a < 0 or q < 0 or not km.admissible(a):
                continue
            el = _mono_antipode(alg, mp).scale(km.monomial(a, q))
            if el.is_zero():
                continue
            columns.append(flatten(el))
            index.append((a, q, mp))
        if gf2.rank(columns) != len(columns):
            raise BoundsExceeded(f"conjugate basis columns dependent at bidegree {(tp, tq)}")
        sols = gf2.solve(columns, [flatten(rows[i][2]) for i in members])
        for i, sol in zip(members, sols):
            if sol is not None:
                expansions[i] = [index[j] for j in range(len(index)) if (sol >> j) & 1]

    for (p, m, _), support in zip(rows, expansions):
        if support is None:
            raise BoundsExceeded(
                f"conjugate expansion failed for p={p}, m={describe_mon(m)}"
            )
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
    return len(rows)


def _element_bidegree(el: SteenrodElement):
    degs = set()
    for key, coeff in el.terms.items():
        p, q = mon_bidegree(key)
        for a, t in el.algebra.coefficients.terms(coeff):
            cp, cq = coeff_bidegree(a, t)
            degs.add((p + cp, q + cq))
    if not degs:
        return None
    if len(degs) > 1:
        raise BoundsExceeded(f"element not bihomogeneous: {degs}")
    return degs.pop()
