"""Degree calculators: 2-adic valuations, the twisted operator ring, stems
tables, cobordism ranks, Hopf algebroid constants and divided powers.

Everything here is exact: valuations come from bigint arithmetic, operator
coefficients are integers or odd-denominator fractions, completed rings are
Z/2^K truncations with configurable K.  The stems tables are read off the
map phi: kw_(2) -> Sigma^4 kw_(2) of the main fiber sequence: the
beta^(n-1) coefficient c_n of phi beta^n is derived in the operator ring,
whose one rule phi beta = 9 beta phi + 8 rewrites phi beta^(n-1) times beta
once per n; c_n is cross-checked against psi^3 - 1 from `adams_on_bott`, and
its kernel/cokernel on the 2-local Witt ring gives the stems.
`phi_iterates_on_msl` is the gr-level witness for eta-periodic MSL that
`verify` carries.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import comb, factorial, prod

from . import gf2
from .abelian import FinAbGroup, ker_coker_of_mul, quotient_structure
from .filtered import FilteredRing, NotFree, lift_free_basis
from .graded import (
    POLYNOMIAL,
    SQUARE,
    AlgebraError,
    AlgebraSpec,
    BoundsExceeded,
    Derivation,
    F2,
    GeneratorSpec,
    GradedElement,
    IntegersMod,
    RationalRing,
    add_term,
    apply_derivation,
    f2_kernel,
    mon_mul,
    rank_and_kernel_dim,
)
from .witt import GWElement, WittPresentation, fundamental_ideal_power, n_epsilon, resolve_field


class DegreeOutOfRange(ValueError):
    pass


class EvenNotSupported(ValueError):
    pass


class UnitInversionFailed(ValueError):
    pass


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# 2-adic valuations
# ---------------------------------------------------------------------------

def nu2(n: int) -> int:
    if n == 0:
        raise ValueError("nu2(0) is infinite")
    n = abs(n)
    return (n & -n).bit_length() - 1


def digit_sum_base2(n: int) -> int:
    return bin(n).count("1")


def nu2_factorial(n: int) -> int:
    """Legendre: nu2(n!) = n - s_2(n)."""
    return n - digit_sum_base2(n)


# ---------------------------------------------------------------------------
# the twisted operator ring kw^*[[phi]] with phi beta = 9 beta phi + 8
# ---------------------------------------------------------------------------

def _as_coeff(c) -> Fraction:
    out = Fraction(c)
    if out.denominator % 2 == 0:
        raise ParseError(f"operator coefficient {out} must have an odd denominator")
    return out


_QQ = RationalRing()


class OperatorPolynomial:
    """Sum of c_{ij} beta^i phi^j in normal order (beta left of phi)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, int], Fraction] = {}
        for key, c in (terms or {}).items():
            add_term(_QQ, self.terms, key, _as_coeff(c))

    def times(self, letter) -> "OperatorPolynomial":
        """Right multiplication by one letter: 'beta', 'phi' or a coefficient."""
        out = OperatorPolynomial()
        if letter == "beta":
            # phi^j beta = 9^j beta phi^j + (9^j - 1) phi^(j-1): the relation j times
            for (i, j), c in self.terms.items():
                add_term(_QQ, out.terms, (i + 1, j), 9**j * c)
                if j:
                    add_term(_QQ, out.terms, (i, j - 1), (9**j - 1) * c)
        elif letter == "phi":
            out.terms = {(i, j + 1): c for (i, j), c in self.terms.items()}
        else:
            scale = _as_coeff(letter)
            for key, c in self.terms.items():
                add_term(_QQ, out.terms, key, scale * c)
        return out

    def __mul__(self, other):
        out = OperatorPolynomial()
        for (i, j), c in other.terms.items():
            part = self
            for letter in [c] + ["beta"] * i + ["phi"] * j:
                part = part.times(letter)
            for key, d in part.terms.items():
                add_term(_QQ, out.terms, key, d)
        return out

    def __eq__(self, other):
        return isinstance(other, OperatorPolynomial) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k)):
            c = self.terms[(i, j)]
            word = " ".join(
                (["beta^%d" % i] if i > 1 else ["beta"] * i)
                + (["phi^%d" % j] if j > 1 else ["phi"] * j)
            )
            if not word:
                bits.append(str(c))
            elif c == 1:
                bits.append(word)
            else:
                bits.append(f"{c} {word}")
        return " + ".join(bits)


def normal_order(word) -> OperatorPolynomial:
    """Normal-order a word: items are 'beta', 'phi', or coefficients."""
    out = OperatorPolynomial({(0, 0): 1})
    for item in word:
        out = out.times(item)
    return out


def adams_on_bott(n: int, field="real_closed"):
    """psi^n(beta) = n^2 . n_eps^2 . beta for odd n, as a GW coefficient.

    `field` is a `WittPresentation` or the name of a bundled catalog field.
    """
    if n < 1:
        raise ValueError("n must be a positive odd integer")
    if n % 2 == 0:
        raise EvenNotSupported("the image of n_eps^2 in W(k) vanishes for even n")
    ring = resolve_field(field)
    eps = n_epsilon(ring, n)
    eps_sq = eps * eps
    return GWElement((n * n) * eps_sq.witt_part, n * n * eps_sq.rank)


# ---------------------------------------------------------------------------
# stable stems data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableStemsData:
    table: tuple  # FinAbGroup per degree, contiguous from 0

    @property
    def max_degree(self) -> int:
        return len(self.table) - 1

    def group(self, n: int) -> FinAbGroup:
        if n < 0 or n > self.max_degree:
            raise DegreeOutOfRange(f"no stable stems data for degree {n}")
        return self.table[n]


def load_stable_stems(path=None) -> StableStemsData:
    """The stems table at `path`, read and validated on every call.

    With no path, the bundled table: it is read and validated once per
    process, and every caller shares the one frozen `StableStemsData`.
    """
    if path is None:
        return _bundled_stable_stems()
    with open(path) as fh:
        return _stems_from_rows(json.load(fh))


@functools.cache
def _bundled_stable_stems() -> StableStemsData:
    text = resources.files("etasphere").joinpath("data/stable_stems.json").read_text()
    return _stems_from_rows(json.loads(text))


def _stems_from_rows(rows) -> StableStemsData:
    entries = {}
    for row in rows:
        try:
            degree = int(row["degree"])
            group = FinAbGroup(int(row["free_rank"]), [int(x) for x in row["torsion"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad stable stems row {row!r}: {exc}") from exc
        if degree < 0:
            raise ParseError(f"stable stems degree {degree} is negative")
        if degree in entries:
            raise ParseError(f"stable stems degree {degree} appears twice")
        entries[degree] = group
    if 0 not in entries:
        raise ParseError("stable stems data must start at degree 0")
    top = max(entries)
    for n in range(top + 1):
        if n not in entries:
            raise ParseError(f"stable stems data has a gap at degree {n}")
    if entries[0] != FinAbGroup(1, []):
        raise ParseError("degree 0 of the stable stems must be Z")
    for n in range(1, top + 1):
        if entries[n].free_rank:
            raise ParseError(f"stable stems in degree {n} must be finite")
    return StableStemsData(tuple(entries[n] for n in range(top + 1)))


# ---------------------------------------------------------------------------
# stems tables
# ---------------------------------------------------------------------------

@dataclass
class StemEntry:
    degree: int
    summands: list  # (label, FinAbGroup or None for symbolic)

    def group(self) -> FinAbGroup:
        total = FinAbGroup(0, [])
        for _, g in self.summands:
            if g is not None:
                total = total.direct_sum(g)
        return total

    def describe(self) -> str:
        bits = []
        for label, g in self.summands:
            if g is None:
                bits.append(label)
            elif not g.is_trivial():
                bits.append(g.describe())
        return " + ".join(bits) if bits else "0"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "summands": [
                {"label": label, "group": (g.to_json() if g is not None else None)}
                for label, g in self.summands
            ],
            "pretty": self.describe(),
        }


@dataclass
class StemsTable:
    name: str
    field: str
    entries: dict  # degree -> StemEntry

    def to_json(self) -> dict:
        return {
            "table": self.name,
            "field": self.field,
            "entries": [self.entries[n].to_json() for n in sorted(self.entries)],
        }


def phi_ker_coker(ring: WittPresentation, n_max: int) -> list:
    """ker/coker of phi: pi_{4n} kw_(2) -> pi_{4n-4} kw_(2) for n = 1..n_max.

    pi_{4n} kw_(2) = W(k)_(2) beta^n, and phi multiplies it by the
    beta^{n-1} coefficient c of phi beta^n (c = 9^n - 1).  A running normal
    form of phi beta^n is multiplied by beta once per n in the operator
    ring, and c is read off it.  c is cross-checked against psi^3 - 1 on
    beta^n, with psi^3(beta) = w beta read off `adams_on_bott`: w^n - 1 must
    be c . 1 in W(k).  Odd factors of c act invertibly after
    2-localization, so the map is multiplication by 2^nu2(c) on the 2-local
    shadow (free part + 2-primary torsion).  Entry n - 1 of the list is the
    pair (ker, coker) for n.
    """
    shadow = ring.additive.two_local_shadow()
    psi3 = adams_on_bott(3, ring).witt_part
    one = ring.one()
    power = one
    phi_beta_n = normal_order(["phi"])  # the normal form of phi beta^n
    by_two_part: dict = {}  # 2^nu2(c) -> (ker, coker); few distinct values
    out = []
    for n in range(1, n_max + 1):
        phi_beta_n = phi_beta_n.times("beta")
        c = int(phi_beta_n.terms[(n - 1, 0)])
        power = power * psi3
        if power - one != c * one:
            raise AlgebraError(
                f"over {ring.name}, psi^3 - 1 on beta^{n} is {power - one!r}, "
                f"but phi beta^{n} has coefficient {c}"
            )
        two_part = 1 << nu2(c)
        if two_part not in by_two_part:
            by_two_part[two_part] = ker_coker_of_mul(shadow, two_part)
        out.append(by_two_part[two_part])
    return out


def eta_stems(
    field,
    max_degree: int,
    stems_data: StableStemsData | None = None,
) -> StemsTable:
    """Homotopy of the eta-periodic sphere, read off the fiber sequence
    1[eta^-1]_(2) -> kw_(2) -> Sigma^4 kw_(2) of phi: W at 0, ker(phi) in 4n
    and coker(phi) in 4n-1, plus the odd part of the classical stems spread
    over the signatures.  The summand labels `ker(8n)`/`coker(8n)` are kept
    for output compatibility: nu2(9^n - 1) = nu2(8n).

    `field` is a `WittPresentation` or the name of a bundled catalog field.
    """
    ring = resolve_field(field)
    field_id = ring.name
    data = stems_data if stems_data is not None else load_stable_stems()
    signature_rank = ring.additive.free_rank
    # the odd summand is W[1/2] (x) pi^s: when W[1/2] has no signatures the
    # summand vanishes identically and the table is not consulted, so fields
    # with finite Witt ring support arbitrary degrees
    if signature_rank > 0 and max_degree > data.max_degree:
        raise DegreeOutOfRange(
            f"degree {max_degree} beyond the stems table (max {data.max_degree})"
        )
    ker_coker = phi_ker_coker(ring, (max_degree + 1) // 4)
    entries = {}
    for degree in range(0, max_degree + 1):
        summands = []
        if degree == 0:
            summands.append((f"W({field_id})", None))
            entries[0] = StemEntry(0, summands)
            continue
        if degree % 4 == 3:
            n = (degree + 1) // 4
            _, coker = ker_coker[n - 1]
            if not coker.is_trivial():
                summands.append((f"coker(8n) n={n}", coker))
        elif degree % 4 == 0:
            n = degree // 4
            ker, _ = ker_coker[n - 1]
            if not ker.is_trivial():
                summands.append((f"ker(8n) n={n}", ker))
        if signature_rank > 0:
            odd = data.group(degree).odd_part()
            for _ in range(signature_rank):
                if not odd.is_trivial():
                    summands.append(("W[1/2] (x) pi^s", odd))
        entries[degree] = StemEntry(degree, summands)
    return StemsTable("eta_stems", field_id, entries)


def _partition_count(n: int, parts) -> int:
    counts = [0] * (n + 1)
    counts[0] = 1
    for p in parts:
        for v in range(p, n + 1):
            counts[v] += counts[v - p]
    return counts[n]


def cobordism_stems(theory: str, field_id: str, max_degree: int) -> StemsTable:
    """Free W-ranks of the eta-periodic MSp/MSL cobordism rings."""
    theory = theory.upper()
    if theory not in ("MSP", "MSL"):
        raise ParseError(f"unknown cobordism theory {theory!r}")
    step = 2 if theory == "MSP" else 4
    parts = list(range(step, max_degree + 1, step))
    entries = {}
    for degree in range(0, max_degree + 1):
        rank = _partition_count(degree, parts)
        label = f"W({field_id})^{rank}" if rank else "0"
        entries[degree] = StemEntry(degree, [(label, None)] if rank else [])
    return StemsTable(f"{theory.lower()}_stems", field_id, entries)


def hw_hw_stems(field, max_n: int) -> StemsTable:
    """HW smash HW: degree 4n holds coker(phi), 4n+1 the kernel summand.

    Both come from `phi_ker_coker`; the labels keep the names `coker(8n)` and
    `ker(8n)` for output compatibility.

    `field` is a `WittPresentation` or the name of a bundled catalog field.
    """
    ring = resolve_field(field)
    field_id = ring.name
    entries = {}
    entries[0] = StemEntry(0, [(f"W({field_id})_(2)", None)])
    for n, (ker, coker) in enumerate(phi_ker_coker(ring, max_n), 1):
        entries[4 * n] = StemEntry(
            4 * n, [(f"coker(8n) n={n}", coker)] if not coker.is_trivial() else []
        )
        entries[4 * n + 1] = StemEntry(
            4 * n + 1,
            [(f"ker(8n) n={n} (cofiber)", ker)] if not ker.is_trivial() else [],
        )
    return StemsTable("hw_hw", field_id, entries)


# ---------------------------------------------------------------------------
# the gr-level phi action on cobordism homology
# ---------------------------------------------------------------------------

def msp_gr_model(max_degree: int, odd_gens: bool = True):
    """F2[beta', e_1', e_2', ...] with phi(e_2k') = e_{2k-2}' (e_0' = 1)."""
    gens = [GeneratorSpec("beta", 4, POLYNOMIAL)]
    top = max_degree // 2
    start = 1 if odd_gens else 2
    stepped = range(start, top + 1) if odd_gens else range(2, top + 1, 2)
    for i in stepped:
        gens.append(GeneratorSpec(f"e{i}", 2 * i, POLYNOMIAL))
    algebra = AlgebraSpec(gens, F2(), max_degree + 4)
    images = {"beta": algebra.zero()}
    for i in stepped:
        if i % 2 == 1:
            images[f"e{i}"] = algebra.zero()
        elif i == 2:
            images["e2"] = algebra.one()
        else:
            images[f"e{i}"] = algebra.gen(f"e{i - 2}")
    phi = Derivation(algebra, -4, images, name="phi")
    return algebra, phi


def msp_phi_gr(max_degree: int = 14) -> dict:
    """Surjectivity and kernel bookkeeping for phi on gr kw_* MSp (W = F2).

    Verifies degreewise surjectivity, matches kernel dimensions against the
    Hilbert series of F2[y_1, y_2, ...] with |y_i| = 2i, runs the abstract
    one-variable-per-degree model over F2 and Q, and locates the kernel's
    indecomposable generators in degrees 2, 3, 4, ...
    """
    algebra, phi = msp_gr_model(max_degree)
    report = {"max_degree": max_degree, "surjective": True, "degrees": {}}
    for degree in range(0, max_degree + 1):
        rank, kernel_dim = rank_and_kernel_dim(phi, degree)
        expected_kernel = _partition_count(degree, list(range(2, degree + 1, 2)))
        surjective = rank == len(algebra.monomials_of_degree(degree - 4))
        report["degrees"][degree] = {
            "dim": len(algebra.monomials_of_degree(degree)),
            "rank": rank,
            "kernel": kernel_dim,
            "expected_kernel": expected_kernel,
            "surjective": surjective,
        }
        report["surjective"] &= surjective
        if kernel_dim != expected_kernel:
            report["surjective"] = False
    # spot checks of the displayed action
    image = apply_derivation(phi, algebra.gen("e2"))
    if image != algebra.one():
        raise AlgebraError(f"phi(e2) = {image!r}, expected 1")
    if "e1" in algebra.index_of:
        image = apply_derivation(phi, algebra.gen("e1"))
        if not image.is_zero():
            raise AlgebraError(f"phi(e1) = {image!r}, expected 0")
    report["abstract_model"] = abstract_phi_report(max_degree, F2())
    report["abstract_model_rational"] = abstract_phi_report(max_degree, RationalRing())
    return report


def abstract_phi_report(max_degree: int, ring) -> dict:
    """phi(x_i) = x_{i-1} on A_0[x_1, x_2, ...]: surjectivity + kernel."""
    gens = [GeneratorSpec(f"x{i}", i, POLYNOMIAL) for i in range(1, max_degree + 1)]
    algebra = AlgebraSpec(gens, ring, max_degree + 1)
    images = {"x1": algebra.one()}
    for i in range(2, max_degree + 1):
        images[f"x{i}"] = algebra.gen(f"x{i - 1}")
    phi = Derivation(algebra, -1, images, name="phi")
    out = {"surjective": True, "kernel_dims": {}, "kernel_generator_degrees": []}
    kernels: dict[int, tuple] = {}  # degree -> (source basis, kernel bitmasks), F2 only
    for degree in range(1, max_degree + 1):
        if isinstance(ring, F2):
            # one matrix per degree gives the rank and the kernel basis
            source, kernel = kernels[degree] = f2_kernel(phi, degree)
            rank, kernel_dim = len(source) - len(kernel), len(kernel)
        else:
            rank, kernel_dim = rank_and_kernel_dim(phi, degree)
        target = len(algebra.monomials_of_degree(degree - 1))
        expected = _partition_count(degree, list(range(2, degree + 1)))
        out["kernel_dims"][degree] = kernel_dim
        if rank != target or kernel_dim != expected:
            out["surjective"] = False
        out[f"expected_{degree}"] = expected
    # indecomposable count over F2 only (bitmask arithmetic)
    if isinstance(ring, F2):
        out["kernel_generator_degrees"] = _kernel_indecomposables(algebra, kernels)
    return out


def _kernel_indecomposables(algebra, kernels):
    """Degrees where the kernel needs a new polynomial generator (F2).

    `kernels` maps each degree, ascending, to its source basis and the
    bitmasks of a kernel basis over it.  The kernel K of a derivation is a
    subalgebra, generated by the fresh generators G found degree by degree,
    so its decomposables K+ * K+ are spanned by the products g * b of a
    lower-degree g in G with a kernel basis element b.  Each such product is
    formed on bitmasks, from the normal forms of the monomial products.
    """
    new_generator_degrees = []
    fresh: dict[int, list[int]] = {}  # degree -> bitmasks of its new generators
    for degree, (source, ker_masks) in kernels.items():
        if not ker_masks:
            continue
        index = {mon: j for j, mon in enumerate(source)}
        product_masks: dict = {}  # monomial product -> its normal form as a bitmask over source
        decomposable = []
        for dg, gens in fresh.items():
            src_g = kernels[dg][0]
            src_b, ker_b = kernels[degree - dg]
            for g in gens:
                row = [0] * len(src_b)  # row[j]: g times src_b[j]
                for i in gf2.bits(g):
                    for j, mon in enumerate(src_b):
                        prod = mon_mul(src_g[i], mon)
                        mask = product_masks.get(prod)
                        if mask is None:
                            mask = product_masks[prod] = sum(
                                1 << index[m] for m in algebra.normalize({prod: 1}))
                        row[j] ^= mask
                for b in ker_b:
                    acc = 0
                    for j in gf2.bits(b):
                        acc ^= row[j]
                    decomposable.append(acc)
        fresh[degree] = gf2.quotient_basis(ker_masks, decomposable)
        new_generator_degrees.extend([degree] * len(fresh[degree]))
    return new_generator_degrees


def phi_iterates_on_msl(i: int) -> dict:
    """In the MSL gr-model, phi applied i times to e_{2i} reaches 1.

    The filtration witness: at each step the gr-level image is exactly the
    next even generator, so the true value differs from it by beta-filtration
    >= 1; in the last step pi_{-4} MSL = 0 leaves no room for a beta-tail.
    """
    if i < 0:
        raise ValueError("i must be non-negative")
    if i == 0:
        return {"i": 0, "chain": ["e0 = 1"], "reaches_unit": True}
    algebra, phi = msp_gr_model(4 * i, odd_gens=False)
    current = algebra.gen(f"e{2 * i}")
    chain = [f"e{2 * i}"]
    for _ in range(i):
        current = apply_derivation(phi, current)
        chain.append(repr(current))
    return {
        "i": i,
        "chain": chain,
        "reaches_unit": current == algebra.one(),
        "note": "gr-level: phi(e_{2k}') = e_{2k-2}'; beta-tails vanish because "
        "pi_{-4} of the eta-periodic MSL is zero",
    }


# ---------------------------------------------------------------------------
# Hopf algebroid structure constants
# ---------------------------------------------------------------------------

def hopf_constants(imax: int, jmax: int) -> dict:
    """a_{ij} mod 8 by the comultiplication recursion, checked against
    binomials: a_{ij} = sum_m a_{i-m,m} a_{m,j-m} with a_{i0} = a_{0i} = 1."""
    if imax + jmax > 64:
        raise BoundsExceeded("table bounded by imax + jmax <= 64")
    table: dict[tuple[int, int], int] = {}
    for i in range(imax + 1):
        table[(i, 0)] = 1
    for j in range(jmax + 1):
        table[(0, j)] = 1
    for d in range(2, imax + jmax + 1):
        for i in range(1, d):
            j = d - i
            if i > imax or j > jmax or j < 1:
                continue
            acc = 0
            for m in range(0, min(i, j) + 1):
                acc += table[(i - m, m)] * table[(m, j - m)]
            table[(i, j)] = acc % 8
    mismatches = [
        (i, j)
        for (i, j) in table
        if table[(i, j)] != comb(i + j, i) % 8
    ]
    return {
        "imax": imax,
        "jmax": jmax,
        "table": {f"{i},{j}": v for (i, j), v in sorted(table.items())},
        "matches_binomials": not mismatches,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# divided powers in the completed model
# ---------------------------------------------------------------------------

def square_chain(ring, degree: int, squares) -> AlgebraSpec:
    """The ring-algebra on t_0..t_k, k = len(squares), with t_i^2 = squares[i] t_(i+1).

    t_i has degree degree . 2^i, so a product of distinct t_i has degree
    degree . n for the n whose binary digits it lists; t_k has no square
    rule, and the truncation degree . (2^(k+1) - 1) is the degree of
    t_0 t_1 ... t_k.
    """
    k = len(squares)
    gens = [GeneratorSpec(f"t{i}", degree * 2**i, SQUARE, {f"t{i + 1}": c} if i < k else None)
            for i, c in enumerate([*squares, None])]
    return AlgebraSpec(gens, ring, degree * (2 ** (k + 1) - 1))


def binary_product(alg: AlgebraSpec, n: int, factor) -> GradedElement:
    """The product of factor(i) over the binary digits i of n, ascending."""
    out = alg.one()
    for i in gf2.bits(n):
        out = out * factor(i)
    return out


def divided_power_construct(n_max: int, modulus_bits: int = 8, units=(),
                            imax: int = 5) -> tuple[dict, dict]:
    """Generators x_0..x_{n_max} with x_m x_n = binom(m+n, n) x_{m+n}.

    The model is the Z/2^K square chain on t_0..t_imax with t_i^2 = 2 w_i
    t_{i+1}, t_i of degree 2^i, for the odd `units` w_i padded with 1s to
    imax.  s_0 = t_0 and s_{n+1} = (v_n^{-1} a_n^2 w_n) t_{n+1} normalizes the
    squares to s_n^2 = binom(2^{n+1}, 2^n) s_{n+1}; then x_n is the odd
    rational delta_n = prod (2^i)!^{eps_i} / n! times prod s_i^{eps_i} over
    the binary expansion of n, and the certificate checks every product with
    m + n <= n_max exactly in Z/2^K.  Returns the report and the number of
    cases behind its `squares_normalized` verdict.
    """
    if modulus_bits < 6:
        raise UnitInversionFailed("modulus 2^K needs K >= 6")
    for w in units:
        if w % 2 == 0:
            raise UnitInversionFailed(f"unit {w} is even")
    if n_max > 2**imax:
        raise BoundsExceeded(f"n_max {n_max} exceeds 2^imax = {2**imax}")
    mod = 1 << modulus_bits
    units = [w % mod for w in units] + [1] * (imax - len(units))
    alg = square_chain(IntegersMod(mod), 1, [2 * w % mod for w in units[:imax]])

    # normalized square generators s_i = a_i t_i
    a: list[int] = [1]
    for n in range(0, imax):
        c = comb(2 ** (n + 1), 2**n)
        v = c // 2
        if c % 2 or v % 2 == 0:
            raise UnitInversionFailed(f"binom(2^{n + 1}, 2^n) is not twice an odd unit")
        a.append((pow(v, -1, mod) * a[n] * a[n] * units[n]) % mod)

    def s(i: int) -> GradedElement:
        return alg.gen(f"t{i}").scale(a[i])

    # verify s_n^2 = binom(2^{n+1}, 2^n) s_{n+1} exactly
    squares_ok = all(s(n) * s(n) == s(n + 1).scale(comb(2 ** (n + 1), 2**n)) for n in range(imax))

    def delta(n: int) -> int:
        d = Fraction(prod(factorial(2**i) for i in gf2.bits(n)), factorial(n))
        if nu2_fraction(d) != 0:
            raise UnitInversionFailed(f"delta_{n} is not a 2-adic unit")
        return (d.numerator * pow(d.denominator, -1, mod)) % mod

    xs = [binary_product(alg, n, s).scale(delta(n)) for n in range(n_max + 1)]
    if xs[0] != alg.one():
        raise AlgebraError(f"x_0 = {xs[0]!r} is not the unit")

    certificate = True
    failures = []
    for m in range(0, n_max + 1):
        for n in range(0, n_max + 1 - m):
            if xs[m] * xs[n] != xs[m + n].scale(comb(m + n, n)):
                certificate = False
                failures.append((m, n))
    return {
        "n_max": n_max,
        "modulus_bits": modulus_bits,
        "units": units,
        "squares_normalized": squares_ok,
        "certificate": certificate,
        "failures": failures,
        "x1_x1_equals_2_x2": xs[1] * xs[1] == xs[2].scale(2) if n_max >= 2 else None,
    }, {"squares_normalized": imax}


def nu2_fraction(f: Fraction) -> int:
    return nu2(f.numerator) - nu2(f.denominator)


# ---------------------------------------------------------------------------
# the kw smash HW generator certificate
# ---------------------------------------------------------------------------

def kw_hw_algebra(presentation: WittPresentation, imax: int, modulus_bits: int):
    """The W/2^K-algebra of the kw smash HW model, with its sample r in I^2.

    The square chain on t_0..t_imax of degree 4 . 2^i with t_i^2 = (2 + r)
    t_{i+1}, where r is the first normal-form generator of I(k)^2 (zero when
    I^2 = 0).  Returns the algebra and the coordinates of r.
    """
    if modulus_bits < 1:
        raise BoundsExceeded(f"modulus bits {modulus_bits} must be at least 1: W/2^0 is zero")
    ring = FilteredRing.from_witt_mod2k(presentation, modulus_bits)
    g = presentation.additive
    _, i2_gens = quotient_structure(g.ngens, fundamental_ideal_power(presentation, 2).basis(),
                                    g.relation_columns())
    r_coords = list(i2_gens[0]) if i2_gens else [0] * ring.n
    two_plus_r = ring.add(ring.add(ring.one, ring.one), r_coords)
    return square_chain(ring, 4, [two_plus_r] * imax), r_coords


def kw_hw_generators_check(
    field,
    imax: int = 3,
    modulus_bits: int = 8,
    unit_twists: tuple = (),
) -> tuple[dict, dict]:
    """Instantiate the W_I^-complete module model and verify the theorem's
    ring-level claims at desk scale.

    The model (`kw_hw_algebra`) is the free W/2^K-module on squarefree
    monomials in t_0..t_imax (degree of t_i is 4 . 2^i) with t_i^2 =
    (2 + r_i) t_{i+1} for a sample r_i in I(k)^2.  Checks: squares land in
    (2 + I^2) t_{i+1}; binary products x_i = prod t_n^{eps_n} generate each
    pi_{4i} up to an explicit unit (also under twisted unit choices);
    x_0 = 1; and the module is free on each lifted product in the filtered
    sense (lift_free_basis certificate, run once per distinct coefficient).
    `field` is a `WittPresentation` or the name of a bundled catalog field.
    Returns the report and, for each of its three certificates, the number
    of cases checked.
    """
    presentation = resolve_field(field)
    if presentation.vcd2 is None:
        raise BoundsExceeded("catalog field must have finite vcd2")
    alg, r_coords = kw_hw_algebra(presentation, imax, modulus_bits)
    ring = alg.coefficients
    # the coefficient 2 + r of every square rule (there is none when imax = 0)
    two_plus_r = alg.square_images[0][((1, 1),)] if imax else None

    # validate r in I^2 (against the exact presentation lattice)
    r_in_i2 = r_coords in fundamental_ideal_power(presentation, 2)

    def twist(i):
        return unit_twists[i] if i < len(unit_twists) else ring.one

    def t(i):
        # t_i scaled by the chosen unit twist
        return alg.element({((i, 1),): twist(i)})

    # t_i^2 = (2 + r) t_{i+1} verified in the model, twists squared: one
    # case per square, so imax = 0 checks nothing (r in I^2 holds by choice)
    squares_ok = all(t(i) * t(i) == alg.element(
        {((i + 1, 1),): ring.mul(two_plus_r, ring.mul(twist(i), twist(i)))}) for i in range(imax))

    # binary products generate: x_k = prod t_n^{eps_n}: coefficient must be a unit
    products_ok = True
    units_found = {}
    for k in range(0, 2**imax + 1):
        acc = binary_product(alg, k, t)
        if k == 0:
            x0_is_one = acc.terms == {(): ring.one}
        expected_mon = tuple((b, 1) for b in gf2.bits(k))
        if set(acc.terms) != {expected_mon}:
            products_ok = False
            continue
        coeff = acc.terms[expected_mon]
        units_found[k] = list(coeff)
        if not ring.is_unit(coeff):
            products_ok = False

    # filtered freeness certificate: the 2^imax + 1 degrees 4k, k <= 2^imax,
    # are one free module of rank one over the I-adically filtered ring, on
    # each product x_k: multiplication by its coefficient is a filtered iso
    # (a product off its monomial has no coefficient to lift, and fails)
    def lifts(coeff):
        try:
            return lift_free_basis(ring, ring.filtration, ring.mult_table, [(0, coeff)])
        except NotFree:
            return False

    lift_ok = len(units_found) == 2**imax + 1 and all(
        lifts(c) for c in sorted({tuple(c) for c in units_found.values()}))

    return {
        "field": presentation.name,
        "imax": imax,
        "modulus_bits": modulus_bits,
        "r_in_I_squared": r_in_i2,
        "squares_in_2_plus_I2": squares_ok and r_in_i2,
        "binary_products_generate": products_ok,
        "x0_is_one": x0_is_one,
        "unit_coefficients": units_found,
        "lift_certificate_ok": lift_ok,
    }, {"squares_in_2_plus_I2": imax, "binary_products_generate": 2**imax + 1,
        "lift_certificate_ok": 2**imax + 1}
