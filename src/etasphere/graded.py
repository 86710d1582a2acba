"""Sparse weighted-graded commutative algebras with rewrite relations.

An algebra is a list of generators, each with a positive integer degree and
a kind: `polynomial` (free) or `square` (the square rewrites to a stated
element of twice the degree).  Elements are sparse monomial -> coefficient
maps; monomials are tuples of (generator index, exponent) sorted by index.
`GradedElement` is the one sparse element type: its sum, negative and scalar
multiple keep the element's class, and `steenrod.SteenrodElement` subclasses
it with a product bounded by weight instead of degree.
Homology is implemented over F2 only, with ranks over the rationals (by
fraction-free integer elimination) available for derivation matrices.  An
element of Q is an int, or a `Fraction` once a non-integer enters.

Coefficients live in a small pluggable ring: any object with the attributes
`name`, `zero`, `one` and `xor_terms` and the methods `add`, `neg`, `mul`,
`is_zero`, `degrees` (the set of internal degrees of an element, {0} for an
ungraded ring) and `describe`; derivations and the divided-power model
also call `from_int`.  `F2`, `RationalRing`, `IntegersMod` and `KMTau` live
here; `filtered.FiniteRing` is the W/2^K ring of the completed Witt models.
Every sparse term dict over such a ring is accumulated with `add_term` (or
`add_terms`, a batch of tensor words) and compared with `terms_equal`, and
never stores a zero coefficient.  A ring class whose elements are ints added
by XOR (`F2`, `KMTau`) sets `xor_terms`, which turns `add_term` and
`add_terms` into one `^` per term and `terms_equal` into dict equality.

Truncation degree D is mandatory: operations that would need a monomial of
degree beyond D raise TruncationExceeded instead of silently dropping it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from . import gf2


class TruncationExceeded(ValueError):
    pass


class BoundsExceeded(ValueError):
    """A request exceeds a stated bound, or a structural self-check failed."""


class NonSquareZero(ValueError):
    """d composed with d is nonzero where a differential was required."""


class AlgebraError(ValueError):
    pass


POLYNOMIAL = "polynomial"
SQUARE = "square"


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class F2:
    name = "F2"
    xor_terms = True
    zero = 0
    one = 1

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        return a & b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n % 2

    def degrees(self, a):
        return {0}

    def describe(self, a):
        return str(a)


class RationalRing:
    name = "Q"
    xor_terms = False
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def degrees(self, a):
        return {0}

    def describe(self, a):
        return str(a)


class IntegersMod:
    """Z/m, used with m = 2^K for the completed models."""

    xor_terms = False

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.name = f"Z/{modulus}"
        self.zero = 0
        self.one = 1 % modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_zero(self, a):
        return a % self.modulus == 0

    def from_int(self, n):
        return n % self.modulus

    def degrees(self, a):
        return {0}

    def describe(self, a):
        return str(a)


class KMTau:
    """F2-algebra on rho and tau: coefficients for the motivic models.

    An element is one int, an F2 sum of monomials rho^r tau^t packed as
    bits: bit r*S + t stands for rho^r tau^t, with the fixed stride
    S = `KMTau.STRIDE`.  Each rho exponent owns a row of S bits, so a tau
    exponent must stay below S: `monomial` raises AlgebraError for tau^S and
    beyond, and so does `mul` when the tau exponents of a term of each
    factor add up to S or more, rather than let tau^S alias into the next
    rho row.  Addition is XOR, the zero is 0 and the unit is 1; `terms`
    lists the (rho, tau) exponents in ascending order.  The base field
    enters only through `rho_order`, the N with rho^N = 0: None when rho is
    free (real closed, k^M = F2[rho]), 1 when rho = 0 (quadratically closed)
    and 2 for a finite field with q = 3 mod 4; products are masked to the
    rows below N.  The grading degree of rho^r tau^t is t (the stem of tau),
    matching the stem grading used by the motivic algebra specs.
    """

    STRIDE = 64
    xor_terms = True
    zero = 0
    one = 1

    def __init__(self, rho_order: int | None = None):
        if rho_order is not None and (type(rho_order) is not int or rho_order < 1):
            raise AlgebraError(f"rho order must be None or an int >= 1, not {rho_order!r}")
        self.rho_order = rho_order
        self.name = "kM[tau]" if rho_order is None else f"kM[tau]/rho^{rho_order}"
        self._mask = None if rho_order is None else (1 << rho_order * self.STRIDE) - 1

    def admissible(self, a: int) -> bool:
        """Whether rho^a is nonzero in this base."""
        return self.rho_order is None or a < self.rho_order

    def monomial(self, rho_exp: int = 0, tau_exp: int = 0):
        if rho_exp < 0 or not 0 <= tau_exp < self.STRIDE:
            raise AlgebraError(
                f"rho^{rho_exp} tau^{tau_exp} is outside 0 <= tau < {self.STRIDE}, 0 <= rho"
            )
        if not self.admissible(rho_exp):
            return 0
        return 1 << (rho_exp * self.STRIDE + tau_exp)

    @staticmethod
    def terms(x):
        """The (rho_exp, tau_exp) pairs of x, ascending."""
        stride = KMTau.STRIDE
        while x:
            low = x & -x
            yield divmod(low.bit_length() - 1, stride)
            x ^= low

    @staticmethod
    def _tau_top(x) -> int:
        """One more than the largest tau exponent of x (0 for x = 0)."""
        stride = KMTau.STRIDE
        row = (1 << stride) - 1
        top = 0
        while x:
            top = max(top, (x & row).bit_length())
            x >>= stride
        return top

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a == 1:
            return b
        if b == 1:
            return a
        if a.bit_count() > b.bit_count():
            a, b = b, a
        stride = self.STRIDE
        # tau^t1 times the top tau power of b must stay inside its row
        room = stride - self._tau_top(b)
        acc = 0
        while a:
            low = a & -a
            shift = low.bit_length() - 1
            if shift % stride > room:
                raise AlgebraError(f"a tau exponent of the product reaches {stride}")
            acc ^= b << shift
            a ^= low
        return acc if self._mask is None else acc & self._mask

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return n % 2

    def degrees(self, a):
        return {t for _, t in self.terms(a)} or {0}

    def describe(self, a):
        if not a:
            return "0"
        def term(r, t):
            bits = []
            if r:
                bits.append("rho" + (f"^{r}" if r > 1 else ""))
            if t:
                bits.append("tau" + (f"^{t}" if t > 1 else ""))
            return "*".join(bits) if bits else "1"
        return " + ".join(term(r, t) for r, t in self.terms(a))


# ---------------------------------------------------------------------------
# algebras and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    degree: int
    kind: str = POLYNOMIAL
    square_image: object = None  # raw terms, resolved by AlgebraSpec


Monomial = tuple  # tuple of (generator index, exponent), sorted by index


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def mon_from_dict(d: dict[int, int]) -> Monomial:
    return tuple(sorted((i, e) for i, e in d.items() if e))


class AlgebraSpec:
    def __init__(self, generators, coefficients=None, truncation: int = 24):
        self.coefficients = coefficients if coefficients is not None else F2()
        self.truncation = truncation
        self._bases: list[list] | None = None  # degree -> monomial basis, on first use
        self.generators: list[GeneratorSpec] = []
        self.index_of: dict[str, int] = {}
        for g in generators:
            if isinstance(g, GeneratorSpec):
                spec = g
            else:
                spec = GeneratorSpec(*g)
            if spec.degree <= 0:
                raise AlgebraError(f"generator {spec.name} must have positive degree")
            if spec.kind not in (POLYNOMIAL, SQUARE):
                raise AlgebraError(f"unknown kind {spec.kind!r}")
            if spec.name in self.index_of:
                raise AlgebraError(f"duplicate generator {spec.name}")
            self.index_of[spec.name] = len(self.generators)
            self.generators.append(spec)
        # resolve square images into monomial form
        self.square_images: dict[int, dict[Monomial, object] | None] = {}
        for idx, g in enumerate(self.generators):
            if g.kind != SQUARE:
                continue
            if g.square_image is None:
                self.square_images[idx] = None  # beyond truncation: fail loudly
                continue
            resolved: dict[Monomial, object] = {}
            for mon_spec, coeff in g.square_image.items():
                mon = self._resolve_monomial(mon_spec)
                resolved[mon] = coeff
            self._check_square_degree(idx, resolved)
            self.square_images[idx] = resolved
        self._check_confluence()

    # -- helpers ---------------------------------------------------------------
    def _resolve_monomial(self, mon_spec) -> Monomial:
        if isinstance(mon_spec, tuple) and all(
            isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], int) for p in mon_spec
        ):
            return tuple(sorted(mon_spec))
        if isinstance(mon_spec, str):
            if mon_spec in ("", "1"):
                return ()
            parts = mon_spec.split("*")
            exps: dict[int, int] = {}
            for part in parts:
                if "^" in part:
                    name, e = part.split("^")
                    e = int(e)
                else:
                    name, e = part, 1
                exps[self.index_of[name]] = exps.get(self.index_of[name], 0) + e
            return mon_from_dict(exps)
        raise AlgebraError(f"cannot resolve monomial spec {mon_spec!r}")

    def gen_degree(self, idx: int) -> int:
        return self.generators[idx].degree

    def mon_degree(self, mon: Monomial) -> int:
        return sum(self.generators[i].degree * e for i, e in mon)

    def term_degree(self, mon: Monomial, coeff) -> set[int]:
        base = self.mon_degree(mon)
        return {base + d for d in self.coefficients.degrees(coeff)}

    def _check_square_degree(self, idx: int, image: dict) -> None:
        want = 2 * self.generators[idx].degree
        for mon, coeff in image.items():
            degs = self.term_degree(mon, coeff)
            if degs and degs != {want}:
                raise AlgebraError(
                    f"square image of {self.generators[idx].name} is not homogeneous "
                    f"of degree {want}: got {degs}"
                )

    # -- normalization -----------------------------------------------------------
    def normalize(self, raw_terms: dict, strategy: str = "low") -> dict:
        """Apply rewrites until every monomial is in normal form."""
        ring = self.coefficients
        if not self.square_images:  # no rewrite applies: only the zeros go
            return {m: c for m, c in raw_terms.items() if not ring.is_zero(c)}
        out: dict[Monomial, object] = {}
        work = list(raw_terms.items())
        fuel = 10**6
        while work:
            fuel -= 1
            if fuel < 0:
                raise AlgebraError("rewriting did not terminate (non-confluent system?)")
            mon, coeff = work.pop()
            if ring.is_zero(coeff):
                continue
            target = None
            indices = [i for i, e in mon if e >= 2 and self.generators[i].kind == SQUARE]
            if indices:
                target = min(indices) if strategy == "low" else max(indices)
            if target is None:
                add_term(ring, out, mon, coeff)
                continue
            g = self.generators[target]
            rest = {i: e for i, e in mon}
            rest[target] -= 2
            rest_mon = mon_from_dict(rest)
            image = self.square_images[target]
            if image is None:
                raise TruncationExceeded(
                    f"square of {g.name} rewrites past the truncation degree"
                )
            for im_mon, im_coeff in image.items():
                work.append((mon_mul(rest_mon, im_mon), ring.mul(coeff, im_coeff)))
        return out

    def _check_confluence(self):
        """Normalize the critical-pair monomials under both strategies."""
        special = [i for i, g in enumerate(self.generators) if g.kind == SQUARE
                   and self.square_images[i] is not None]
        ring = self.coefficients
        pairs = [((i, 3),) for i in special if 3 * self.gen_degree(i) <= self.truncation]
        for i, j in itertools.combinations_with_replacement(special, 2):
            if i == j:
                continue
            if 2 * (self.gen_degree(i) + self.gen_degree(j)) <= self.truncation:
                pairs.append(tuple(sorted(((i, 2), (j, 2)))))
        for mon in pairs:
            low = self.normalize({mon: ring.one}, strategy="low")
            high = self.normalize({mon: ring.one}, strategy="high")
            if not terms_equal(ring, low, high):
                raise AlgebraError(f"rewrite system not confluent at {mon}")

    # -- element constructors ------------------------------------------------
    def element(self, terms: dict) -> "GradedElement":
        return GradedElement(self, self.normalize(terms))

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return GradedElement(self, {(): self.coefficients.one})

    def gen(self, name: str) -> "GradedElement":
        idx = self.index_of[name]
        return GradedElement(self, {((idx, 1),): self.coefficients.one})

    # -- monomial bases ---------------------------------------------------------
    def monomials_of_degree(self, n: int):
        """Normalized monomials of generator-degree n (coefficient part 1), none if n < 0.

        The first call enumerates every degree; callers get a fresh list.
        """
        if n > self.truncation:
            raise TruncationExceeded(f"degree {n} exceeds truncation {self.truncation}")
        if n < 0:
            return []
        if self._bases is None:
            self._bases = self._enumerate_monomials()
        return list(self._bases[n])

    def _enumerate_monomials(self) -> list[list]:
        """The basis of each degree 0..truncation, in one depth-first pass.

        A monomial is emitted, then extended by each generator of higher
        index, the highest first and its powers ascending (a square at most
        once), so each degree lists its exponent vectors in ascending order
        with generator 0 most significant.
        """
        top = self.truncation
        factors = [[(e * g.degree, ((j, e),))
                    for e in range(1, min(top // g.degree, 1 if g.kind == SQUARE else top) + 1)]
                   for j, g in enumerate(self.generators)]
        bases: list[list] = [[] for _ in range(top + 1)]

        def extend(mon, degree, start):
            bases[degree].append(mon)
            for j in range(len(factors) - 1, start - 1, -1):
                for d, pair in factors[j]:
                    if degree + d > top:
                        break
                    extend(mon + pair, degree + d, j + 1)

        extend((), 0, 0)
        return bases

    def describe_monomial(self, mon: Monomial) -> str:
        if not mon:
            return "1"
        bits = []
        for i, e in mon:
            name = self.generators[i].name
            bits.append(name if e == 1 else f"{name}^{e}")
        return "*".join(bits)


def add_term(ring, terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place; a key whose sum is zero is dropped."""
    if ring.xor_terms:
        acc = terms.get(key, 0) ^ coeff
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
        return
    acc = ring.add(terms.get(key, ring.zero), coeff)
    if ring.is_zero(acc):
        terms.pop(key, None)
    else:
        terms[key] = acc


def add_terms(ring, terms: dict, src: dict, scale, prefix=(), suffix=()) -> None:
    """terms[prefix + key + suffix] += scale * c for each key, c of src, in one loop.

    The keys are tuples, the words of a tensor.  A product that the ring sends
    to zero (a masked rho power) is dropped like any zero sum: it is never
    stored and never raises.
    """
    mul = ring.mul
    if not ring.xor_terms:
        for key, coeff in src.items():
            add_term(ring, terms, prefix + key + suffix, mul(scale, coeff))
        return
    get, pop, one = terms.get, terms.pop, ring.one
    unit = scale == one
    for key, coeff in src.items():
        key = prefix + key + suffix
        acc = get(key, 0) ^ (coeff if unit else scale if coeff == one else mul(scale, coeff))
        if acc:
            terms[key] = acc
        else:
            pop(key, None)


def by_coefficient(ring, terms: dict) -> dict:
    """The keys of a term dict grouped by their coefficient: {c: {key: one}}."""
    out: dict = {}
    for key, c in terms.items():
        out.setdefault(c, {})[key] = ring.one
    return out


def terms_equal(ring, a: dict, b: dict) -> bool:
    if ring.xor_terms:
        return a == b
    keys = set(a) | set(b)
    for k in keys:
        if not ring.is_zero(ring.add(a.get(k, ring.zero), ring.neg(b.get(k, ring.zero)))):
            return False
    return True


class GradedElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraSpec, terms: dict):
        self.algebra = algebra
        self.terms = dict(terms)

    def degree_set(self) -> set[int]:
        out: set[int] = set()
        for mon, coeff in self.terms.items():
            out |= self.algebra.term_degree(mon, coeff)
        return out

    def max_degree(self) -> int:
        degs = self.degree_set()
        return max(degs) if degs else 0

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GradedElement") -> "GradedElement":
        ring = self.algebra.coefficients
        out = dict(self.terms)
        for mon, coeff in other.terms.items():
            add_term(ring, out, mon, coeff)
        return type(self)(self.algebra, out)

    def __neg__(self):
        ring = self.algebra.coefficients
        return type(self)(self.algebra, {m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "GradedElement") -> "GradedElement":
        return normalize_product(self, other)

    def scale(self, coeff) -> "GradedElement":
        ring = self.algebra.coefficients
        raw = {}
        for mon, c in self.terms.items():
            prod = ring.mul(coeff, c)
            if not ring.is_zero(prod):
                raw[mon] = prod
        return type(self)(self.algebra, self.algebra.normalize(raw))

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.algebra is other.algebra
            and terms_equal(self.algebra.coefficients, self.terms, other.terms)
        )

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        ring = self.algebra.coefficients
        bits = []
        for mon in sorted(self.terms):
            c = ring.describe(self.terms[mon])
            m = self.algebra.describe_monomial(mon)
            bits.append(m if c == "1" else f"{c}*{m}")
        return " + ".join(bits)


def normalize_product(a: GradedElement, b: GradedElement) -> GradedElement:
    if a.algebra is not b.algebra:
        raise AlgebraError("elements from different algebras")
    alg = a.algebra
    ring = alg.coefficients
    if a.terms and b.terms:
        if a.max_degree() + b.max_degree() > alg.truncation:
            raise TruncationExceeded(
                f"product degree {a.max_degree() + b.max_degree()} exceeds "
                f"truncation {alg.truncation}"
            )
    raw: dict[Monomial, object] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            add_term(ring, raw, mon_mul(m1, m2), ring.mul(c1, c2))
    return GradedElement(alg, alg.normalize(raw))


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

class Derivation:
    def __init__(self, algebra: AlgebraSpec, degree_shift: int, images: dict,
                 name: str = "d"):
        self.algebra = algebra
        self.degree_shift = degree_shift
        self.name = name
        self.images: dict[int, GradedElement] = {}
        for gen_name, el in images.items():
            idx = algebra.index_of[gen_name]
            if not isinstance(el, GradedElement):
                el = algebra.element(el)
            want = algebra.gen_degree(idx) + degree_shift
            degs = el.degree_set()
            if degs and degs != {want}:
                raise AlgebraError(
                    f"image of {gen_name} under {name} has degrees {degs}, expected {want}"
                )
            self.images[idx] = el
        for idx in range(len(algebra.generators)):
            if idx not in self.images:
                self.images[idx] = algebra.zero()


def _leibniz(d: Derivation, raw: dict, mon: Monomial, coeff) -> None:
    """Add the unnormalized terms of d(coeff * mon) into raw, by the Leibniz rule."""
    ring = d.algebra.coefficients
    for pos, (i, e) in enumerate(mon):
        img = d.images[i].terms
        if not img:
            continue
        scalar = ring.mul(coeff, ring.from_int(e))
        if ring.is_zero(scalar):
            continue
        rest = mon[:pos] + (((i, e - 1),) if e > 1 else ()) + mon[pos + 1:]
        for m2, c2 in img.items():
            add_term(ring, raw, mon_mul(rest, m2), ring.mul(scalar, c2))


def apply_derivation(d: Derivation, a: GradedElement) -> GradedElement:
    """d(a) by the Leibniz rule: every term gathered raw, then one normal form.

    Each image has degree deg g + shift, so the check up front covers every product."""
    alg = d.algebra
    if a.terms and a.max_degree() + d.degree_shift > alg.truncation:
        raise TruncationExceeded("derivation image exceeds truncation")
    raw: dict[Monomial, object] = {}
    for mon, coeff in a.terms.items():
        _leibniz(d, raw, mon, coeff)
    return GradedElement(alg, alg.normalize(raw))


def derivation_matrix(d: Derivation, n: int):
    """Matrix of d: degree n -> degree n+shift on monomial bases.

    Returns (source basis, target basis, columns) where columns[j] is the
    dict mapping target monomial -> coefficient for the j-th source monomial.
    Every source monomial has degree n, so one truncation check covers them all.
    """
    alg = d.algebra
    source = alg.monomials_of_degree(n)
    m = n + d.degree_shift
    if source and m > alg.truncation:
        raise TruncationExceeded("derivation image exceeds truncation")
    target = alg.monomials_of_degree(m) if m <= alg.truncation else []
    cols = []
    one = alg.coefficients.one
    for mon in source:
        raw: dict[Monomial, object] = {}
        _leibniz(d, raw, mon, one)
        cols.append(alg.normalize(raw))
    return source, target, cols


def f2_masks(columns, basis) -> list[int]:
    """Sparse F2 columns (monomial -> 0/1 dicts) as bitmasks over `basis`."""
    index = {mon: i for i, mon in enumerate(basis)}
    masks = []
    for col in columns:
        mask = 0
        for mon, c in col.items():
            if c:
                mask |= 1 << index[mon]
        masks.append(mask)
    return masks


def f2_kernel(d: Derivation, n: int):
    """Source basis of degree n and bitmasks over it spanning ker d (F2 only)."""
    source, target, cols = derivation_matrix(d, n)
    masks = f2_masks(cols, target)
    return source, gf2.nullspace(len(source), gf2.transpose(masks, len(target)))


@dataclass
class HomologyAtDegree:
    degree: int
    cycle_dim: int
    boundary_dim: int
    homology_dim: int
    homology_basis: list  # GradedElements representing homology classes
    basis_monomials: list


def homology_at_degree(d: Derivation, n: int,
                       allow_non_differential: bool = False) -> HomologyAtDegree:
    """ker/im at degree n.  Requires d.d = 0 on the contributing degrees.

    With `allow_non_differential` the quotient ker/(ker intersect im) is
    computed instead of raising NonSquareZero; the two agree whenever
    d.d = 0 actually holds.
    """
    alg = d.algebra
    if not isinstance(alg.coefficients, F2):
        raise AlgebraError("homology is implemented over F2 only")
    shift = d.degree_shift
    # verify d . d = 0 out of degree n and into degree n
    if not allow_non_differential:
        for deg in (n, n - shift):
            if deg < 0 or deg > alg.truncation:
                continue
            if deg + 2 * shift < 0 or deg + 2 * shift > alg.truncation:
                continue
            for mon in alg.monomials_of_degree(deg):
                el = GradedElement(alg, {mon: 1})
                dd = apply_derivation(d, apply_derivation(d, el))
                if not dd.is_zero():
                    raise NonSquareZero(
                        f"d({d.name}) fails d.d = 0 on {alg.describe_monomial(mon)}"
                    )
    # kernel of the map out of degree n
    source, cycles = f2_kernel(d, n)
    # image of the map into degree n
    prev = n - shift
    boundaries = []
    if 0 <= prev <= alg.truncation:
        _, _, pcols = derivation_matrix(d, prev)
        boundaries = [mask for mask in f2_masks(pcols, source) if mask]
    boundary_basis = gf2.row_reduce(boundaries)
    if allow_non_differential:
        # quotient by boundaries that actually lie in the cycle space
        boundary_basis = gf2.span_intersection(gf2.row_reduce(cycles), boundary_basis)
    reps = gf2.quotient_basis(cycles, boundary_basis)
    basis_elements = []
    for mask in reps:
        terms = {source[j]: 1 for j in range(len(source)) if (mask >> j) & 1}
        basis_elements.append(GradedElement(alg, terms))
    return HomologyAtDegree(
        degree=n,
        cycle_dim=len(gf2.row_reduce(cycles)),
        boundary_dim=len(boundary_basis),
        homology_dim=len(reps),
        homology_basis=basis_elements,
        basis_monomials=source,
    )


def rank_and_kernel_dim(d: Derivation, n: int) -> tuple[int, int]:
    """Rank/kernel of d out of degree n over F2 or Q."""
    alg = d.algebra
    ring = alg.coefficients
    if not isinstance(ring, (F2, RationalRing)):
        raise AlgebraError(f"rank is implemented over F2 and Q only, not {ring.name}")
    source, target, cols = derivation_matrix(d, n)
    if isinstance(ring, F2):
        r = gf2.rank(f2_masks(cols, target))
    else:
        tindex = {mon: i for i, mon in enumerate(target)}
        r = rational_rank({tindex[mon]: c for mon, c in col.items()} for col in cols)
    return r, len(source) - r


def rational_rank(vectors) -> int:
    """Rank over Q of sparse vectors {index >= 0: int or Fraction}.

    Each vector's denominators are cleared first.  The rank of integer
    vectors over Q is at least their rank mod 2 and at most the number of
    nonzero vectors or of indices they touch; when the mod-2 rank reaches
    that bound it is the answer.  Otherwise fraction-free elimination: each
    vector is reduced against the pivot vectors found so far, whose pivot
    is their smallest index; each combination is divided by its gcd.
    """
    rows = []
    for vec in vectors:
        den = lcm(*(c.denominator for c in vec.values()))
        row = {k: c.numerator * (den // c.denominator) for k, c in vec.items() if c}
        if row:
            rows.append(row)
    mod2 = gf2.rank([sum(1 << k for k, v in row.items() if v & 1) for row in rows])
    if mod2 == min(len(rows), len(set().union(*rows))):
        return mod2
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            g = gcd(*row.values())
            if g != 1:
                row = {k: v // g for k, v in row.items()}
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = gcd(row[lead], pivot[lead])
            a, b = row[lead] // g, pivot[lead] // g
            combined = {k: b * v for k, v in row.items()}
            for k, v in pivot.items():
                combined[k] = combined.get(k, 0) - a * v
            row = {k: v for k, v in combined.items() if v}
    return len(pivots)


def check_confluence_random(algebra: AlgebraSpec, trials: int, rng) -> int:
    """Normalize random words under both strategies; returns trials executed."""
    ring = algebra.coefficients
    ngens = len(algebra.generators)
    done = 0
    for _ in range(trials):
        exps: dict[int, int] = {}
        degree = 0
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(ngens)
            d = algebra.gen_degree(i)
            if degree + d > algebra.truncation:
                continue
            exps[i] = exps.get(i, 0) + 1
            degree += d
        mon = mon_from_dict(exps)
        try:
            low = algebra.normalize({mon: ring.one}, strategy="low")
            high = algebra.normalize({mon: ring.one}, strategy="high")
        except TruncationExceeded:
            continue  # rewrite target past the truncation: not a confluence issue
        if not terms_equal(ring, low, high):
            raise AlgebraError(f"confluence failure on {mon}")
        done += 1
    return done
