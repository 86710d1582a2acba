"""Presented Witt and Grothendieck-Witt rings.

A Witt ring enters as a finite presentation: additive group in Smith normal
form, structure constants for products of generators, the distinguished
classes of <1> and <-1>, the mod-2 rank map, generators of the fundamental
ideal, and the recorded virtual 2-cohomological dimension.  The bundled
catalog covers quadratically/real closed fields, W(Z[1/2]), and F_3/F_5/F_7;
a brute-force classification of diagonal forms over small finite fields
serves as the oracle for the finite-field entries.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from math import gcd

from .abelian import (
    FinAbGroup,
    _integer_kernel,
    _unit_vectors,
    lattice_contains,
    lattices_equal,
    quotient_structure,
    solve_in_lattice,
)


class UnknownField(KeyError):
    pass


class InvalidPresentation(ValueError):
    pass


class RingMismatch(ValueError):
    pass


class UnsupportedCharacteristic(ValueError):
    pass


class WittPresentation:
    def __init__(
        self,
        name: str,
        additive: FinAbGroup,
        mult_table,
        unit,
        minus_one,
        rank_mod2,
        ideal_generators,
        vcd2: int | None,
        validate: bool = True,
    ):
        self.name = name
        self.additive = additive
        n = additive.ngens
        self.mult_table = [[additive.reduce(mult_table[i][j]) for j in range(n)] for i in range(n)]
        self.unit = additive.reduce(unit)
        self.minus_one = additive.reduce(minus_one)
        self.rank_mod2 = tuple(int(b) % 2 for b in rank_mod2)
        self.ideal_generators = [additive.reduce(g) for g in ideal_generators]
        self.vcd2 = vcd2  # None means infinity
        if validate:
            self.validate()

    # -- elements -------------------------------------------------------------
    def element(self, coords) -> "WittElement":
        return WittElement(self, self.additive.reduce(list(coords)))

    def zero(self) -> "WittElement":
        return self.element([0] * self.additive.ngens)

    def one(self) -> "WittElement":
        return self.element(self.unit)

    def gen(self, i: int) -> "WittElement":
        coords = [0] * self.additive.ngens
        coords[i] = 1
        return self.element(coords)

    def rank_of(self, coords) -> int:
        return sum(b * c for b, c in zip(self.rank_mod2, coords)) % 2

    def two_torsion_free_lattice(self):
        """Lattice of coordinates of 2W inside Z^n (with relations)."""
        n = self.additive.ngens
        return [[2 * x for x in e] for e in _unit_vectors(n)] + self.additive.relation_columns()

    def kernel_lattice_of_rank(self):
        """Lattice {x in Z^n : rank(x) = 0 mod 2} (contains the relations)."""
        n = self.additive.ngens
        stacked = [list(self.rank_mod2) + [2]]
        cols = _integer_kernel(stacked)
        return [c[:n] for c in cols] + self.additive.relation_columns()

    # -- validation -----------------------------------------------------------
    def validate(self):
        g = self.additive
        n = g.ngens
        if len(self.mult_table) != n or any(len(row) != n for row in self.mult_table):
            raise InvalidPresentation("mult_table shape mismatch")
        if len(self.rank_mod2) != n:
            raise InvalidPresentation("rank_mod2 length mismatch")
        rel = g.relation_columns()

        # bilinearity is well defined: d_i * (g_i . g_j) must die
        for i, d in enumerate(g.invariant_factors):
            gi = g.free_rank + i
            for j in range(n):
                scaled = [d * x for x in self.mult_table[gi][j]]
                if not lattice_contains(n, rel if rel else [[0] * n], scaled):
                    raise InvalidPresentation(
                        f"product with torsion generator {gi} not well defined"
                    )

        gens = [self.gen(i) for i in range(n)]
        # commutativity and unit on generators
        for i in range(n):
            for j in range(n):
                if gens[i] * gens[j] != gens[j] * gens[i]:
                    raise InvalidPresentation("multiplication not commutative")
        one = self.one()
        for i in range(n):
            if one * gens[i] != gens[i]:
                raise InvalidPresentation("unit law fails on generators")
        # associativity on all generator triples
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if (gens[i] * gens[j]) * gens[k] != gens[i] * (gens[j] * gens[k]):
                        raise InvalidPresentation("multiplication not associative")

        # rank is a ring homomorphism onto Z/2
        if self.rank_of(self.unit) != 1:
            raise InvalidPresentation("rank of unit must be 1")
        for i, d in enumerate(g.invariant_factors):
            if (d * self.rank_mod2[g.free_rank + i]) % 2:
                raise InvalidPresentation("rank map not additive on torsion")
        for i in range(n):
            for j in range(n):
                if self.rank_of(self.mult_table[i][j]) != (
                    self.rank_mod2[i] * self.rank_mod2[j]
                ) % 2:
                    raise InvalidPresentation("rank map not multiplicative")

        # ideal generators have rank zero and generate the kernel
        for v in self.ideal_generators:
            if self.rank_of(v) != 0:
                raise InvalidPresentation("ideal generator with odd rank")
        span = [list(v) for v in self.ideal_generators] + rel
        if not lattices_equal(n, span if span else [[0] * n], self.kernel_lattice_of_rank()):
            raise InvalidPresentation("ideal generators do not generate ker(rank)")

        # I^(vcd2+1) inside 2W
        if self.vcd2 is not None:
            power = fundamental_ideal_power(self, self.vcd2 + 1)
            two_w = self.two_torsion_free_lattice()
            for v in power.generator_coords:
                if not lattice_contains(n, two_w, list(v)):
                    raise InvalidPresentation("I^(vcd2+1) not contained in 2W")

    # -- misc -----------------------------------------------------------------
    def __repr__(self):
        return f"WittPresentation({self.name!r}, {self.additive.describe()})"

    def __eq__(self, other):
        return isinstance(other, WittPresentation) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "additive": self.additive.to_json(),
            "mult_table": [[list(c) for c in row] for row in self.mult_table],
            "unit": list(self.unit),
            "minus_one": list(self.minus_one),
            "rank_mod2": list(self.rank_mod2),
            "ideal_generators": [list(v) for v in self.ideal_generators],
            "vcd2": self.vcd2,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WittPresentation":
        return cls(
            obj["name"],
            FinAbGroup.from_json(obj["additive"]),
            obj["mult_table"],
            obj["unit"],
            obj["minus_one"],
            obj["rank_mod2"],
            obj.get("ideal_generators", []),
            obj.get("vcd2"),
        )


class WittElement:
    __slots__ = ("ring", "coords")

    def __init__(self, ring: WittPresentation, coords):
        self.ring = ring
        self.coords = tuple(coords)

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring.name} vs {other.ring.name}")

    def __add__(self, other):
        self._check(other)
        return self.ring.element([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return self.ring.element([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self.ring.element([-a for a in self.coords])

    def __rmul__(self, k: int):
        return self.ring.element([k * a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        self._check(other)
        n = self.ring.additive.ngens
        out = [0] * n
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                prod = self.ring.mult_table[i][j]
                for k in range(n):
                    out[k] += a * b * prod[k]
        return self.ring.element(out)

    def __eq__(self, other):
        return (
            isinstance(other, WittElement)
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ring.name, self.coords))

    def __repr__(self):
        return f"<{self.ring.name}: {list(self.coords)}>"

    def rank_mod2(self) -> int:
        return self.ring.rank_of(self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def additive_order(self) -> int | None:
        """Order in the additive group (None = infinite)."""
        g = self.ring.additive
        if any(self.coords[: g.free_rank]):
            return None
        order = 1
        for a, d in zip(self.coords[g.free_rank:], g.invariant_factors):
            order = order * (d // gcd(d, a)) // gcd(order, d // gcd(d, a))
        return order


@dataclass(frozen=True)
class GWElement:
    """Element of GW presented through the pullback over W x_{Z/2} Z."""

    witt_part: WittElement
    rank: int

    def __post_init__(self):
        if self.witt_part.rank_mod2() != self.rank % 2:
            raise InvalidPresentation("rank parity does not match Witt part")

    def __mul__(self, other: "GWElement") -> "GWElement":
        return GWElement(self.witt_part * other.witt_part, self.rank * other.rank)

    def __add__(self, other: "GWElement") -> "GWElement":
        return GWElement(self.witt_part + other.witt_part, self.rank + other.rank)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def witt_mul(a: WittElement, b: WittElement) -> WittElement:
    return a * b


def is_unit_2local(a: WittElement) -> bool:
    return a.rank_mod2() == 1


def solve_2local_inverse(a: WittElement):
    """Explicit inverse of a in W_(2): (x, m) with a * x = m * 1, m odd.

    Returns None when no such pair exists (a is not a 2-local unit).
    """
    ring = a.ring
    g = ring.additive
    n = g.ngens
    mult = [[0] * n for _ in range(n)]  # matrix of multiplication by a
    for j in range(n):
        img = (a * ring.gen(j)).coords
        for i in range(n):
            mult[i][j] = img[i]
    image = [[mult[i][j] for i in range(n)] for j in range(n)]
    image += g.relation_columns()
    # order of the unit class in Z^n / image
    quotient, _ = quotient_structure(n, _unit_vectors(n), image)
    # smallest c > 0 with c * unit in image: compute via membership search on
    # the cyclic subgroup generated by the unit class
    c = _order_in_quotient(n, image, list(ring.unit))
    if c is None or c % 2 == 0:
        return None
    target = [c * x for x in ring.unit]
    sol = solve_in_lattice(n, [[mult[i][j] for i in range(n)] for j in range(n)]
                           + g.relation_columns(), target)
    if sol is None:
        return None
    x = ring.element(sol[:n])
    assert a * x == c * ring.one()
    return x, c


def _order_in_quotient(ambient, lattice_cols, vec):
    """Order of vec in Z^n / lattice (None = infinite)."""
    if lattice_contains(ambient, lattice_cols, vec):
        return 1
    # invariant factors of (lattice + vec)/lattice: cyclic, order = index
    group, _ = quotient_structure(
        ambient, lattice_cols + [vec], lattice_cols
    )
    if group.free_rank:
        return None
    order = 1
    for d in group.invariant_factors:
        order *= d
    return order


@dataclass
class IdealPower:
    """Subgroup I^n of W with generating products and normal-form data."""

    n: int
    group: FinAbGroup
    generator_coords: list  # products of n ideal generators (coordinates)
    normal_form_gen_coords: list  # one coordinate vector per invariant factor / free slot


def fundamental_ideal_power(ring: WittPresentation, n: int) -> IdealPower:
    amb = ring.additive.ngens
    rel = ring.additive.relation_columns()
    if n == 0:
        whole = _unit_vectors(amb)
        group, gens = quotient_structure(amb, whole + rel, rel)
        return IdealPower(0, group, [tuple(v) for v in whole], gens)
    products = []
    base = [ring.element(v) for v in ring.ideal_generators]
    for combo in itertools.combinations_with_replacement(range(len(base)), n):
        prod = ring.one()
        for k in combo:
            prod = prod * base[k]
        products.append(prod.coords)
    span = [list(v) for v in products] + rel
    group, gens = quotient_structure(amb, span, rel)
    return IdealPower(n, group, products, gens)


def n_epsilon(ring: WittPresentation, n: int) -> GWElement:
    """1 + <-1> + <1> + ... (n summands, starting at <1>), with rank n."""
    if n < 1:
        raise InvalidPresentation("n_epsilon needs n >= 1")
    total = ring.zero()
    for i in range(n):
        total = total + (ring.one() if i % 2 == 0 else ring.element(ring.minus_one))
    return GWElement(total, n)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _load_bundled_catalog() -> list[dict]:
    text = resources.files("etasphere").joinpath("data/field_catalog.json").read_text()
    return json.loads(text)


_CATALOG_CACHE: dict[str, WittPresentation] = {}


def catalog_names() -> list[str]:
    return [entry["name"] for entry in _load_bundled_catalog()]


def catalog_lookup(field_id: str, catalog_path=None) -> WittPresentation:
    if catalog_path is None:
        if field_id in _CATALOG_CACHE:
            return _CATALOG_CACHE[field_id]
        entries = _load_bundled_catalog()
    else:
        with open(catalog_path) as fh:
            entries = json.load(fh)
    for entry in entries:
        if entry["name"] == field_id:
            pres = WittPresentation.from_json(entry)
            if catalog_path is None:
                _CATALOG_CACHE[field_id] = pres
            return pres
    raise UnknownField(field_id)


# ---------------------------------------------------------------------------
# brute-force classification over small finite fields
# ---------------------------------------------------------------------------

class BruteWittRing:
    """Witt classes of diagonal forms over F_q, with the induced ring ops.

    Forms are multisets of square classes, written (n0, n1): n0 entries from
    the squares, n1 from the non-square class.  Isometry is detected by
    representation counts; Witt classes are the components of the graph whose
    edges are isometries and hyperbolic-pair insertions.
    """

    def __init__(self, q: int, bound: int = 4):
        if q % 2 == 0 or not 3 <= q <= 49:
            raise UnsupportedCharacteristic("q must be odd with 3 <= q <= 49 (desk scale)")
        if bound < 4:
            raise InvalidPresentation("dimension bound must be at least 4")
        self.q = q
        self.bound = bound
        squares = {(x * x) % q for x in range(1, q)}
        self.squares = squares
        self.nonsquare = next(a for a in range(2, q) if a not in squares)
        self.class_of_minus1 = 0 if (q - 1) in squares else 1
        self.forms = [
            (n0, n1)
            for dim in range(bound + 1)
            for n0 in range(dim + 1)
            for n1 in [dim - n0]
        ]
        self._dist_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._classify()

    # representation counts -------------------------------------------------
    def _entry_distribution(self, cls: int) -> list[int]:
        a = 1 if cls == 0 else self.nonsquare
        dist = [0] * self.q
        dist[0] = 1
        for x in range(1, self.q):
            dist[(a * x * x) % self.q] += 1
        return dist

    def distribution(self, form) -> tuple[int, ...]:
        if form in self._dist_cache:
            return self._dist_cache[form]
        n0, n1 = form
        dist = [0] * self.q
        dist[0] = 1
        for cls, count in ((0, n0), (1, n1)):
            entry = self._entry_distribution(cls)
            for _ in range(count):
                new = [0] * self.q
                for v, c in enumerate(dist):
                    if c:
                        for w, d in enumerate(entry):
                            new[(v + w) % self.q] += c * d
                dist = new
        out = tuple(dist)
        self._dist_cache[form] = out
        return out

    def isometric(self, f, g) -> bool:
        return sum(f) == sum(g) and self.distribution(f) == self.distribution(g)

    # Witt classes ------------------------------------------------------------
    def _classify(self):
        parent = {f: f for f in self.forms}

        def find(f):
            while parent[f] != f:
                parent[f] = parent[parent[f]]
                f = parent[f]
            return f

        def union(f, g):
            rf, rg = find(f), find(g)
            if rf != rg:
                parent[max(rf, rg)] = min(rf, rg)

        by_key: dict[tuple, list] = {}
        for f in self.forms:
            by_key.setdefault((sum(f), self.distribution(f)), []).append(f)
        for group in by_key.values():
            for g in group[1:]:
                union(group[0], g)
        hyp = (1, 1) if self.class_of_minus1 == 1 else (2, 0)
        for f in self.forms:
            g = (f[0] + hyp[0], f[1] + hyp[1])
            if sum(g) <= self.bound:
                union(f, g)
        self.find = find
        classes = sorted({find(f) for f in self.forms if sum(f) <= self.bound - 2})
        # restrict to classes reachable with two dimensions of slack so that
        # sums/products of representatives stay inside the bound
        self.classes = classes
        self.reps = {c: min((f for f in self.forms if find(f) == c), key=sum) for c in classes}

    def witt_class(self, form):
        return self.find(form)

    def add(self, c1, c2):
        f, g = self.reps[c1], self.reps[c2]
        return self.find((f[0] + g[0], f[1] + g[1]))

    def mul(self, c1, c2):
        (a0, a1), (b0, b1) = self.reps[c1], self.reps[c2]
        return self.find((a0 * b0 + a1 * b1, a0 * b1 + a1 * b0))

    @property
    def zero_class(self):
        return self.find((0, 0))

    @property
    def one_class(self):
        return self.find((1, 0))

    @property
    def minus_one_class(self):
        return self.find((1, 0) if self.class_of_minus1 == 0 else (0, 1))

    def neg(self, c):
        n0, n1 = self.reps[c]
        if self.class_of_minus1 == 0:
            return self.find((n0, n1))
        return self.find((n1, n0))

    def order_of(self, c) -> int:
        acc = c
        k = 1
        while acc != self.zero_class:
            acc = self.add(acc, c)
            k += 1
            if k > len(self.classes):
                raise InvalidPresentation("order search overflow")
        return k


def brute_force_witt_ring(q: int, bound: int = 4) -> WittPresentation:
    ring = BruteWittRing(q, bound)
    classes = ring.classes
    size = len(classes)

    # abstract invariant factors via order counting
    divisors = sorted({d for c in classes for d in [ring.order_of(c)]})
    exponent = 1
    for d in divisors:
        exponent = exponent * d // gcd(exponent, d)
    counts = {}
    for m in range(1, exponent + 1):
        if exponent % m:
            continue
        counts[m] = sum(
            1 for c in classes if _class_power(ring, c, m) == ring.zero_class
        )

    # search a generating tuple realizing a direct-sum decomposition
    decomposition = _find_decomposition(ring, classes, size, counts)
    gens, factors = decomposition

    coords_of = {}
    for tup in itertools.product(*[range(d) for d in factors]):
        c = ring.zero_class
        for a, g in zip(tup, gens):
            c = ring.add(c, _class_power_additive(ring, g, a))
        coords_of[c] = tup
    if len(coords_of) != size:
        raise InvalidPresentation("generator tuple does not decompose the group")

    additive = FinAbGroup(0, list(factors))
    n = len(gens)
    mult_table = [
        [list(coords_of[ring.mul(gens[i], gens[j])]) for j in range(n)] for i in range(n)
    ]
    unit = list(coords_of[ring.one_class])
    minus_one = list(coords_of[ring.minus_one_class])
    rank = [sum(ring.reps[g]) % 2 for g in gens]
    ideal_gens = [
        list(coords_of[c]) for c in classes if sum(ring.reps[c]) % 2 == 0 and c != ring.zero_class
    ]
    pres = WittPresentation(
        f"brute_F{q}", additive, mult_table, unit, minus_one, rank, ideal_gens, 1
    )
    return pres


def _class_power(ring, c, m):
    acc = ring.zero_class
    for _ in range(m):
        acc = ring.add(acc, c)
    return acc


def _class_power_additive(ring, c, m):
    return _class_power(ring, c, m)


def _find_decomposition(ring, classes, size, counts):
    """Invariant factors and matching generators, by exhaustive search."""
    # candidate invariant factor chains whose product is the group order and
    # whose counting function matches the element-order census
    for k in (1, 2, 3):
        for factors in itertools.combinations_with_replacement(
            [d for d in range(2, size + 1) if size % d == 0], k
        ):
            prod = 1
            for d in factors:
                prod *= d
            if prod != size:
                continue
            chain = sorted(factors)
            if any(b % a for a, b in zip(chain, chain[1:])):
                continue
            predicted = {
                m: _counting(chain, m) for m in counts
            }
            if predicted != counts:
                continue
            for gens in itertools.permutations(classes, k):
                if any(ring.order_of(g) != d for g, d in zip(gens, chain)):
                    continue
                seen = set()
                ok = True
                for tup in itertools.product(*[range(d) for d in chain]):
                    c = ring.zero_class
                    for a, g in zip(tup, gens):
                        c = ring.add(c, _class_power_additive(ring, g, a))
                    if c in seen:
                        ok = False
                        break
                    seen.add(c)
                if ok:
                    return list(gens), list(chain)
    raise InvalidPresentation("no decomposition found")


def _counting(chain, m):
    c = 1
    for d in chain:
        c *= gcd(m, d)
    return c


def find_ring_isomorphism(a: WittPresentation, b: WittPresentation):
    """Exhaustive generator matching between two finite presented rings.

    Returns the image coordinates of a's generators inside b, or None.
    """
    if a.additive != b.additive:
        return None
    if a.additive.free_rank:
        raise InvalidPresentation("isomorphism search needs finite rings")
    elements = [b.element(list(c)) for c in b.additive.elements()]
    gens_a = [a.gen(i) for i in range(a.additive.ngens)]
    orders_a = [a.additive.invariant_factors[i] for i in range(len(gens_a))]
    for images in itertools.permutations(elements, len(gens_a)):
        if any(
            im.additive_order() != order for im, order in zip(images, orders_a)
        ):
            continue

        def phi(x: WittElement) -> WittElement:
            out = b.zero()
            for coeff, im in zip(x.coords, images):
                out = out + coeff * im
            return out

        if phi(a.one()) != b.one():
            continue
        if phi(a.element(a.minus_one)) != b.element(b.minus_one):
            continue
        # bijectivity
        seen = set()
        bij = True
        for c in a.additive.elements():
            img = phi(a.element(list(c))).coords
            if img in seen:
                bij = False
                break
            seen.add(img)
        if not bij:
            continue
        # multiplicativity on generators
        good = True
        for i in range(len(gens_a)):
            for j in range(len(gens_a)):
                if phi(gens_a[i] * gens_a[j]) != images[i] * images[j]:
                    good = False
                    break
            if not good:
                break
        if not good:
            continue
        # rank compatibility
        if any(
            a.rank_of(a.gen(i).coords) != images[i].rank_mod2() for i in range(len(gens_a))
        ):
            continue
        return [im.coords for im in images]
    return None


# ---------------------------------------------------------------------------
# 2-localized elements
# ---------------------------------------------------------------------------

class Loc2Witt:
    """Element of W(k)_(2) as a pair (numerator, odd denominator)."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer: WittElement, denom: int = 1):
        if denom % 2 == 0 or denom == 0:
            raise InvalidPresentation("denominator must be odd")
        if denom < 0:
            numer, denom = -numer, -denom
        self.numer = numer
        self.denom = denom

    @property
    def ring(self):
        return self.numer.ring

    def __add__(self, other):
        return Loc2Witt(
            other.denom * self.numer + self.denom * other.numer,
            self.denom * other.denom,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return Loc2Witt(other * self.numer, self.denom)
        return Loc2Witt(self.numer * other.numer, self.denom * other.denom)

    def __neg__(self):
        return Loc2Witt(-self.numer, self.denom)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Loc2Witt):
            return NotImplemented
        diff = other.denom * self.numer - self.denom * other.numer
        order = diff.additive_order()
        return order is not None and order % 2 == 1

    def __repr__(self):
        return f"({self.numer!r})/{self.denom}"
