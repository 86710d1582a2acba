"""Finitely generated abelian groups in Smith normal form.

Groups are presented as Z^n / (column span of a relation matrix).  All
arithmetic is exact arbitrary-precision integer arithmetic; the Smith
reduction never touches floats.  The Witt-ring, filtered-module and kw^HW
code share the lattice tools: `lattice(n, generators)` returns a `Lattice`,
the span of the generators Smith-factored once (and built once per
generator tuple), which answers membership, `solve`, `basis`, span equality
and `kernel`, the relations among its generators, through which `preimage`
takes every kernel; `quotient_structure` reads L/L' off the factored L.
Kernel and cokernel of multiplication by n are read off a group's
invariant factors, with no matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd


class InvariantError(ValueError):
    """A structural invariant of a group presentation is violated."""


# ---------------------------------------------------------------------------
# integer matrices (lists of rows)
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(ra, col)) for col in cols] for ra in a]


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def bilinear(table, a, b) -> list[int]:
    """Unreduced sum of a_i b_j table[i][j] over the nonzero coordinates of a and b."""
    out = [0] * len(table[0][0])
    for i, x in enumerate(a):
        if not x:
            continue
        row = table[i]
        for j, y in enumerate(b):
            if not y:
                continue
            xy = x * y
            for k, c in enumerate(row[j]):
                out[k] += xy * c
    return out


def det_sign(mat: list[list[int]]) -> int:
    """Determinant of a small integer matrix (used only for +/-1 checks).

    Bareiss elimination: every division is exact, so entries stay minors of mat.
    """
    n = len(mat)
    m = [row[:] for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _unimodular_pair(p: int, q: int) -> tuple[int, int, int, int]:
    """(x, y, a, b) with x*p + y*q = gcd(p, q) (p != 0), a*p + b*q = 0 and x*b - y*a = 1.

    When p divides q this is the plain elimination (1, 0, -q/p, 1), which
    keeps p; otherwise y != 0.
    """
    if q % p == 0:
        return 1, 0, -(q // p), 1
    old_r, r, old_x, x, old_y, y = p, q, 1, 0, 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    g = old_r
    return old_x, old_y, -(q // g), p // g


def smith_normal_form(
    matrix: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with D = U * matrix * V diagonal and d_i | d_{i+1}.

    U and V are unimodular.  Total on integer matrices; the empty matrix is
    handled (D empty, U/V identity of the right size).  Each step replaces a
    pair of rows (or columns) by a 2x2 unimodular combination built from the
    extended gcd of the pivot and the entry it clears, so the pivot becomes
    their gcd in one step and U and V stay small.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    # the rows of [D | U] over the rows of V: a row operation on the first rows
    # acts on D and U at once, a column operation below cols on D and V at once
    a = [[*row, *u_row] for row, u_row in zip(matrix, identity_matrix(rows))]
    a += identity_matrix(cols)

    def clear_row(t, i):
        x, y, p, q = _unimodular_pair(a[t][t], a[i][t])
        rt, ri = a[t], a[i]
        if y:
            a[t] = [x * e + y * f for e, f in zip(rt, ri)]
        a[i] = [p * e + q * f for e, f in zip(rt, ri)]

    def clear_col(t, j):
        x, y, p, q = _unimodular_pair(a[t][t], a[t][j])
        for row in a:
            e, f = row[t], row[j]
            if y:
                row[t] = x * e + y * f
            row[j] = p * e + q * f

    for t in range(min(rows, cols)):
        # a pivot of minimal absolute value in the remaining block
        best = pi = pj = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
        if not best:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    clear_row(t, i)
            for j in range(t + 1, cols):
                if a[t][j]:
                    clear_col(t, j)
            # a column step that lowered the pivot may have refilled column t
            if any(row[t] for row in a[t + 1:rows]):
                continue
            # the pivot must divide the rest of the block
            pivot = a[t][t]
            offender = next((r for r in a[t + 1:rows]
                             if any(x % pivot for x in r[t + 1:cols])), None)
            if offender is None:
                break
            a[t] = [e + f for e, f in zip(a[t], offender)]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return [row[cols:] for row in a[:rows]], [row[:cols] for row in a[:rows]], a[rows:]


def invert_unimodular(u: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    n = len(u)
    aug = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(u)]
    for col in range(n):
        # Euclid on the rows from col down leaves their gcd, +/-1 because
        # det = +/-1, at the pivot; the rows above col are already reduced
        while True:
            piv = min((r for r in range(col, n) if aug[r][col]), key=lambda r: abs(aug[r][col]))
            aug[col], aug[piv] = aug[piv], aug[col]
            for r in range(col + 1, n):
                q = aug[r][col] // aug[col][col]
                if q:
                    aug[r] = [x - q * y for x, y in zip(aug[r], aug[col])]
            if not any(aug[r][col] for r in range(col + 1, n)):
                break
        if aug[col][col] < 0:
            aug[col] = [-x for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                q = aug[r][col]
                aug[r] = [x - q * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# lattices: sublattices of Z^n given by generating column vectors
# ---------------------------------------------------------------------------

class Lattice:
    """The sublattice of Z^dim spanned by generator columns, Smith-factored once.

    With M the dim x len(generators) matrix of the generators, U M V = D is
    kept as U, the nonzero diagonal d_0 | d_1 | ... and V, so each question
    about the lattice is a reduction of U*vec against the diagonal.  No
    generators is the zero lattice.  Build lattices with `lattice`, which
    factors each generator tuple once.
    """

    def __init__(self, dim: int, generators: tuple[tuple[int, ...], ...]):
        self.dim = dim
        self.generators = generators
        u, d, v = smith_normal_form([[g[i] for g in generators] for i in range(dim)])
        # a matrix with no rows does not tell smith_normal_form its column count
        self._u, self._v = u, v if dim else identity_matrix(len(generators))
        self._diag = [d[k][k] for k in range(min(dim, len(generators))) if d[k][k]]

    def _coordinates(self, vec) -> list[int] | None:
        """Coordinates of vec in `basis()`, or None when vec is not in the lattice."""
        rhs = mat_vec(self._u, list(vec))
        rank = len(self._diag)
        if any(rhs[rank:]):
            return None
        if any(x % d for x, d in zip(rhs, self._diag)):
            return None
        return [x // d for x, d in zip(rhs, self._diag)]

    @functools.cached_property
    def _u_inverse(self) -> list[list[int]]:
        return invert_unimodular(self._u)

    def basis(self) -> list[list[int]]:
        """A basis of the lattice: the columns d_k * U^{-1} e_k."""
        uinv = self._u_inverse
        return [[uinv[i][k] * d for i in range(self.dim)] for k, d in enumerate(self._diag)]

    def solve(self, vec) -> list[int] | None:
        """Integer c with sum c_k * generators[k] = vec (one c_k per generator), or None."""
        y = self._coordinates(vec)
        if y is None:
            return None
        return mat_vec(self._v, y + [0] * (len(self.generators) - len(y)))

    def kernel(self) -> list[list[int]]:
        """A basis of the relations among the generators: c with sum c_k * generators[k] = 0.

        These are the last columns of V, one per generator beyond the rank.
        """
        rank = len(self._diag)
        return [[row[j] for row in self._v] for j in range(rank, len(self.generators))]

    def __contains__(self, vec) -> bool:
        return self._coordinates(vec) is not None

    def __le__(self, other: "Lattice") -> bool:
        return self.dim == other.dim and all(g in other for g in self.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self is other or (self <= other and other <= self)


def lattice(dim: int, generators) -> Lattice:
    """The factored lattice spanned by `generators` (column vectors of length dim)."""
    return _factored_lattice(dim, tuple(tuple(g) for g in generators))


@functools.lru_cache(maxsize=256)
def _factored_lattice(dim: int, generators: tuple[tuple[int, ...], ...]) -> Lattice:
    return Lattice(dim, generators)


def preimage(dim: int, images, targets) -> list[list[int]]:
    """Generators of {x : sum_k x_k images[k] in the span of targets}, all in Z^dim."""
    return [c[:len(images)] for c in lattice(dim, list(images) + list(targets)).kernel()]


def lattice_intersection(
    ambient_dim: int, gens_a: list[list[int]], gens_b: list[list[int]]
) -> list[list[int]]:
    """Generators of the intersection of two sublattices of Z^n."""
    if not gens_a or not gens_b:
        return []
    out = []
    for u in preimage(ambient_dim, gens_a, [[-x for x in g] for g in gens_b]):
        vec = [sum(gens_a[k][i] * u[k] for k in range(len(gens_a))) for i in range(ambient_dim)]
        if any(vec):
            out.append(vec)
    return out


def quotient_structure(
    ambient_dim: int,
    big_generators: list[list[int]],
    small_generators: list[list[int]],
) -> tuple["FinAbGroup", list[list[int]]]:
    """Structure of L/L' for sublattices L' <= L of Z^n.

    Returns the group in normal form together with ambient coordinates of a
    generator for each listed invariant factor / free summand (torsion
    generators first, in the order of `invariant_factors`, then free ones).
    """
    big = lattice(ambient_dim, big_generators)
    basis = big.basis()
    if not basis:
        if small_generators and any(any(x) for x in small_generators):
            raise InvariantError("small lattice not contained in big lattice")
        return FinAbGroup(0, []), []
    t = len(basis)
    rel_cols = []
    for s in small_generators:
        c = big._coordinates(s)
        if c is None:
            raise InvariantError("small lattice not contained in big lattice")
        rel_cols.append(c)
    if not rel_cols:
        return FinAbGroup(t, []), basis
    # a basis of L adapted to the relations: columns of B * U^{-1}
    rel = lattice(t, rel_cols)
    uinv = rel._u_inverse
    torsion = []
    torsion_gens = []
    free_gens = []
    for i in range(t):
        e = rel._diag[i] if i < len(rel._diag) else 0
        newgen = [
            sum(basis[k][j] * uinv[k][i] for k in range(t)) for j in range(ambient_dim)
        ]
        if e == 0:
            free_gens.append(newgen)
        elif e > 1:
            torsion.append(e)
            torsion_gens.append(newgen)
    return FinAbGroup(len(free_gens), sorted(torsion)), (
        [g for _, g in sorted(zip(torsion, torsion_gens))] + free_gens
    )


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinAbGroup:
    """Z^free_rank + Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... and d_i >= 2."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __init__(self, free_rank: int, invariant_factors):
        factors = [int(d) for d in invariant_factors]
        if free_rank < 0:
            raise InvariantError("free rank must be non-negative")
        for d in factors:
            if d in (0, 1):
                raise InvariantError("invariant factors 0 and 1 are not allowed")
            if d < 0:
                raise InvariantError("invariant factors must be positive")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise InvariantError(f"divisibility chain broken: {a} does not divide {b}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", tuple(factors))

    # -- presentation data ---------------------------------------------------
    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    def relation_columns(self) -> list[list[int]]:
        """Columns spanning the relation lattice in generator coordinates."""
        n = self.ngens
        cols = []
        for i, d in enumerate(self.invariant_factors):
            col = [0] * n
            col[self.free_rank + i] = d
            cols.append(col)
        return cols

    def reduce(self, coords: list[int]) -> tuple[int, ...]:
        out = list(coords)
        for i, d in enumerate(self.invariant_factors):
            out[self.free_rank + i] %= d
        return tuple(out)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def elements(self):
        """Iterate all elements of a finite group as coordinate tuples."""
        if self.free_rank:
            raise InvariantError("cannot enumerate an infinite group")
        def rec(i):
            if i == len(self.invariant_factors):
                yield ()
                return
            for rest in rec(i + 1):
                for a in range(self.invariant_factors[i]):
                    yield (a,) + rest
        return rec(0)

    @classmethod
    def from_divisors(cls, free_rank: int, divisors: list[int]) -> "FinAbGroup":
        """Normalize an arbitrary direct sum of cyclic groups Z/d (d >= 1)."""
        primary: dict[int, list[int]] = {}
        for d in divisors:
            d = abs(int(d))
            if d == 0:
                free_rank += 1
                continue
            if d == 1:
                continue
            for p, e in _factorize(d).items():
                primary.setdefault(p, []).append(e)
        # the k-th largest exponents of every prime multiply together
        slots = max((len(v) for v in primary.values()), default=0)
        factors = []
        for k in range(slots):
            f = 1
            for p, exps in primary.items():
                exps_sorted = sorted(exps, reverse=True)
                if k < len(exps_sorted):
                    f *= p ** exps_sorted[k]
            factors.append(f)
        factors.reverse()  # ascending, d_i | d_{i+1}
        return cls(free_rank, factors)

    def primary_part(self, p: int) -> "FinAbGroup":
        parts = []
        for d in self.invariant_factors:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                parts.append(p ** e)
        return FinAbGroup(0, sorted(parts))

    def odd_part(self) -> "FinAbGroup":
        parts = []
        for d in self.invariant_factors:
            while d % 2 == 0:
                d //= 2
            if d > 1:
                parts.append(d)
        return FinAbGroup(0, sorted(parts))

    def two_local_shadow(self) -> "FinAbGroup":
        """Z_(2)-localization modelled as free part + 2-primary torsion."""
        return FinAbGroup(self.free_rank, self.primary_part(2).invariant_factors)

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.from_divisors(
            self.free_rank + other.free_rank,
            list(self.invariant_factors) + list(other.invariant_factors),
        )

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, obj: dict) -> "FinAbGroup":
        return cls(int(obj["free_rank"]), [int(x) for x in obj.get("torsion", [])])


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# the three spec operations
# ---------------------------------------------------------------------------

def ker_coker_of_mul(group: FinAbGroup, n: int) -> tuple[FinAbGroup, FinAbGroup]:
    """Kernel and cokernel of multiplication by n, read off the invariant factors.

    On Z/d both are Z/gcd(n, d); on Z, n != 0 has kernel 0 and cokernel Z/|n|.
    """
    if n == 0:
        return group, group
    cut = [gcd(n, d) for d in group.invariant_factors]
    return (FinAbGroup.from_divisors(0, cut),
            FinAbGroup.from_divisors(0, cut + [abs(n)] * group.free_rank))


def brute_force_ker_coker(group: FinAbGroup, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """Counting oracle for ker/coker of multiplication by n on a finite group.

    Returns, for kernel and cokernel, the map m -> number of elements x with
    m*x = 0, for every divisor m of the group exponent.  Two finite abelian
    groups are isomorphic iff these counting functions agree.
    """
    if group.free_rank:
        raise InvariantError("oracle only enumerates finite groups")
    elements = list(group.elements())
    factors = group.invariant_factors
    exponent = factors[-1] if factors else 1

    def smul(m, x):
        return tuple((m * a) % d for a, d in zip(x, factors))

    zero = tuple(0 for _ in factors)
    kernel = [x for x in elements if smul(n, x) == zero]
    image = {smul(n, x) for x in elements}

    divisors = [m for m in range(1, exponent + 1) if exponent % m == 0]
    ker_counts = {m: sum(1 for x in kernel if smul(m, x) == zero) for m in divisors}
    # elements of order dividing m in G/image: cosets c with m*c in image
    coker_counts = {
        m: sum(1 for x in elements if smul(m, x) in image) // len(image)
        for m in divisors
    }
    return ker_counts, coker_counts


def counting_function(group: FinAbGroup, divisors) -> dict[int, int]:
    """Number of elements killed by m, for each m, from the normal form."""
    out = {}
    for m in divisors:
        count = 1
        for d in group.invariant_factors:
            count *= gcd(m, d)
        out[m] = count
    return out
