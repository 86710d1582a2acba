"""Sparse weighted-graded commutative algebras with rewrite relations.

An algebra is a list of generators, each with a positive integer degree and
a kind: `polynomial` (free), `exterior` (square is zero), or `square`
(the square rewrites to a stated element of twice the degree).  Elements are
sparse monomial -> coefficient maps; monomials are tuples of
(generator index, exponent) sorted by index.  Homology is implemented over
F2 only, with ranks over the rationals (by fraction-free integer
elimination) available for derivation matrices.

Coefficients live in a small pluggable ring: any object with the attributes
`name`, `zero` and `one` and the methods `add`, `neg`, `mul`, `is_zero`,
`degrees` (the set of internal degrees of an element, {0} for an ungraded
ring) and `describe`; derivations and JSON specs also call `from_int`.
`F2`, `IntegerRing`, `RationalRing`, `IntegersMod` and `KMTau` live here;
`filtered.FiniteRing` is the W/2^K ring of the completed Witt models.
Every sparse term dict over such a ring is accumulated with `add_term` and
compared with `terms_equal`.

Truncation degree D is mandatory: operations that would need a monomial of
degree beyond D raise TruncationExceeded instead of silently dropping it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
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
EXTERIOR = "exterior"
SQUARE = "square"


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class F2:
    name = "F2"
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


class IntegerRing:
    name = "Z"
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


class RationalRing(IntegerRing):
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)


class IntegersMod:
    """Z/m, used with m = 2^K for the completed models."""

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

    Elements are frozensets of (rho_exponent, tau_exponent) pairs (F2 sums of
    monomials rho^a tau^p).  `rho_mode` controls the base field: "free"
    (real closed, k^M = F2[rho]), "zero" (quadratically closed), or
    "square_zero" (finite field with q = 3 mod 4, rho^2 = 0).  The grading
    degree of rho^a tau^p is p (the stem of tau), matching the stem grading
    used by the motivic algebra specs.
    """

    def __init__(self, rho_mode: str = "free"):
        if rho_mode not in ("free", "zero", "square_zero"):
            raise AlgebraError(f"unknown rho mode {rho_mode!r}")
        self.rho_mode = rho_mode
        self.name = f"kM[tau]({rho_mode})"
        self.zero = frozenset()
        self.one = frozenset({(0, 0)})

    def _admissible(self, a: int) -> bool:
        if a == 0:
            return True
        if self.rho_mode == "zero":
            return False
        if self.rho_mode == "square_zero":
            return a <= 1
        return True

    def monomial(self, rho_exp: int = 0, tau_exp: int = 0):
        if not self._admissible(rho_exp):
            return frozenset()
        return frozenset({(rho_exp, tau_exp)})

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        acc = set()
        for (r1, t1) in a:
            for (r2, t2) in b:
                r, t = r1 + r2, t1 + t2
                if self._admissible(r):
                    acc ^= {(r, t)}
        return frozenset(acc)

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return self.one if n % 2 else self.zero

    def degrees(self, a):
        return {t for (_, t) in a} or {0}

    def describe(self, a):
        if not a:
            return "0"
        def term(rt):
            r, t = rt
            bits = []
            if r:
                bits.append("rho" + (f"^{r}" if r > 1 else ""))
            if t:
                bits.append("tau" + (f"^{t}" if t > 1 else ""))
            return "*".join(bits) if bits else "1"
        return " + ".join(term(rt) for rt in sorted(a))


COEFFICIENT_RINGS = {
    "F2": F2,
    "Z": IntegerRing,
    "Q": RationalRing,
}


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
    exps: dict[int, int] = {}
    for i, e in itertools.chain(a, b):
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def mon_from_dict(d: dict[int, int]) -> Monomial:
    return tuple(sorted((i, e) for i, e in d.items() if e))


class AlgebraSpec:
    def __init__(self, generators, coefficients=None, truncation: int = 24):
        self.coefficients = coefficients if coefficients is not None else F2()
        self.truncation = truncation
        self._monomials: dict[int, tuple] = {}  # degree -> monomial basis
        self.generators: list[GeneratorSpec] = []
        self.index_of: dict[str, int] = {}
        for g in generators:
            if isinstance(g, GeneratorSpec):
                spec = g
            else:
                spec = GeneratorSpec(*g)
            if spec.degree <= 0:
                raise AlgebraError(f"generator {spec.name} must have positive degree")
            if spec.kind not in (POLYNOMIAL, EXTERIOR, SQUARE):
                raise AlgebraError(f"unknown kind {spec.kind!r}")
            if (
                spec.kind == EXTERIOR
                and spec.degree % 2 == 1
                and not isinstance(self.coefficients, F2)
            ):
                # the signed (Koszul) case is unimplemented: odd exterior
                # generators are only commutative in characteristic 2
                raise AlgebraError(
                    f"odd-degree exterior generator {spec.name} needs F2 coefficients"
                )
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
            indices = [i for i, e in mon if e >= 2 and self.generators[i].kind != POLYNOMIAL]
            if indices:
                target = min(indices) if strategy == "low" else max(indices)
            if target is None:
                add_term(ring, out, mon, coeff)
                continue
            g = self.generators[target]
            rest = {i: e for i, e in mon}
            rest[target] -= 2
            rest_mon = mon_from_dict(rest)
            if g.kind == EXTERIOR:
                continue  # square of an exterior generator vanishes
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

    def scalar(self, coeff) -> "GradedElement":
        if self.coefficients.is_zero(coeff):
            return self.zero()
        return GradedElement(self, {(): coeff})

    # -- monomial bases ---------------------------------------------------------
    def monomials_of_degree(self, n: int):
        """Normalized monomials of generator-degree n (coefficient part 1).

        Each degree is enumerated once per algebra; callers get a fresh list.
        """
        if n > self.truncation:
            raise TruncationExceeded(f"degree {n} exceeds truncation {self.truncation}")
        cached = self._monomials.get(n)
        if cached is None:
            cached = self._monomials[n] = tuple(self._enumerate_monomials(n))
        return list(cached)

    def _enumerate_monomials(self, n: int):
        gens = self.generators

        def rec(idx: int, remaining: int):
            if remaining == 0:
                yield ()
                return
            if idx == len(gens):
                return
            g = gens[idx]
            cap = remaining // g.degree
            if g.kind != POLYNOMIAL:
                cap = min(cap, 1)
            for e in range(cap + 1):
                for rest in rec(idx + 1, remaining - e * g.degree):
                    yield ((idx, e),) + rest if e else rest

        return (mon_from_dict({i: e for i, e in m}) for m in rec(0, n))

    def describe_monomial(self, mon: Monomial) -> str:
        if not mon:
            return "1"
        bits = []
        for i, e in mon:
            name = self.generators[i].name
            bits.append(name if e == 1 else f"{name}^{e}")
        return "*".join(bits)

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraSpec":
        coeff_name = obj.get("coefficients", "F2")
        if coeff_name in COEFFICIENT_RINGS:
            ring = COEFFICIENT_RINGS[coeff_name]()
        elif coeff_name.startswith("Z/"):
            ring = IntegersMod(int(coeff_name[2:]))
        else:
            raise AlgebraError(f"unknown coefficient ring {coeff_name!r}")
        gens = []
        for g in obj["generators"]:
            image = g.get("square_image")
            if image is not None:
                image = {m: ring.from_int(c) for m, c in image.items()}
            gens.append(GeneratorSpec(g["name"], int(g["degree"]),
                                      g.get("kind", POLYNOMIAL), image))
        return cls(gens, ring, int(obj.get("truncation", 24)))


def add_term(ring, terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place; a key whose sum is zero is dropped."""
    acc = ring.add(terms.get(key, ring.zero), coeff)
    if ring.is_zero(acc):
        terms.pop(key, None)
    else:
        terms[key] = acc


def terms_equal(ring, a: dict, b: dict) -> bool:
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
        return GradedElement(self.algebra, out)

    def __neg__(self):
        ring = self.algebra.coefficients
        return GradedElement(self.algebra, {m: ring.neg(c) for m, c in self.terms.items()})

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
        return GradedElement(self.algebra, self.algebra.normalize(raw))

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

    def of_gen(self, idx: int) -> GradedElement:
        return self.images[idx]


def apply_derivation(d: Derivation, a: GradedElement) -> GradedElement:
    alg = d.algebra
    if a.terms and a.max_degree() + d.degree_shift > alg.truncation:
        raise TruncationExceeded("derivation image exceeds truncation")
    ring = alg.coefficients
    total = alg.zero()
    for mon, coeff in a.terms.items():
        for pos, (i, e) in enumerate(mon):
            img = d.images[i]
            if img.is_zero():
                continue
            rest = {j: f for j, f in mon}
            rest[i] -= 1
            factor_scalar = ring.mul(coeff, ring.from_int(e))
            if ring.is_zero(factor_scalar):
                continue
            partial = GradedElement(alg, alg.normalize({mon_from_dict(rest): factor_scalar}))
            total = total + normalize_product(partial, img)
    return total


def derivation_matrix(d: Derivation, n: int):
    """Matrix of d: degree n -> degree n+shift on monomial bases.

    Returns (source basis, target basis, columns) where columns[j] is the
    dict mapping target monomial -> coefficient for the j-th source monomial.
    """
    source = d.algebra.monomials_of_degree(n)
    m = n + d.degree_shift
    target = d.algebra.monomials_of_degree(m) if 0 <= m <= d.algebra.truncation else []
    cols = []
    one = d.algebra.coefficients.one
    for mon in source:
        el = apply_derivation(d, GradedElement(d.algebra, {mon: one}))
        cols.append(dict(el.terms))
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
    """Rank/kernel of d out of degree n over F2, or over Q for Z and Q coefficients."""
    alg = d.algebra
    ring = alg.coefficients
    if not isinstance(ring, (F2, IntegerRing)):
        raise AlgebraError(f"rank is implemented over F2, Z and Q only, not {ring.name}")
    source, target, cols = derivation_matrix(d, n)
    if isinstance(ring, F2):
        r = gf2.rank(f2_masks(cols, target))
    else:
        tindex = {mon: i for i, mon in enumerate(target)}
        r = rational_rank({tindex[mon]: c for mon, c in col.items()} for col in cols)
    return r, len(source) - r


def rational_rank(vectors) -> int:
    """Rank over Q of sparse vectors {index: int or Fraction}.

    Fraction-free elimination: each vector is scaled to a primitive integer
    vector, then reduced against the pivot vectors found so far, whose
    pivot is their smallest index; each combination is divided by its gcd.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        den = lcm(*(c.denominator for c in vec.values()))
        row = {k: c.numerator * (den // c.denominator) for k, c in vec.items() if c}
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


def hilbert_dimension(algebra: AlgebraSpec, n: int) -> int:
    if n > algebra.truncation:
        raise TruncationExceeded(f"degree {n} exceeds truncation {algebra.truncation}")
    if n == 0:
        return 1
    return len(algebra.monomials_of_degree(n))


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


def load_algebra_spec(path: str) -> AlgebraSpec:
    with open(path) as fh:
        return AlgebraSpec.from_json(json.load(fh))
