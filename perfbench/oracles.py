"""Independent checks of request outputs by closed forms.

Each oracle takes the request and its parsed result (the JSON report of a
CLI request, the return value of a call) and returns None when the output
agrees, or a one-line reason when it does not.  These are the closed forms
of the acceptance suite, computed here without the library's own helpers
except `tau_monomial_homology_dims`, the enumeration the suite itself uses
as the oracle for the ko-model homology.
"""

from __future__ import annotations

import ast
from math import comb


def _nu2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _two_power(d: int) -> int:
    return d & -d


def _partitions_min2(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(2, n + 1):
        for v in range(part, n + 1):
            counts[v] += counts[v - part]
    return counts[n]


def _steenrod_monomial_count(weight: int, algebra_weight: int) -> int:
    """tau_i^(0|1) xi_j^(e >= 0) monomials of weight <= `weight`.

    tau_i has weight 2^i - 1 and xi_j has weight 2^j - 1; generators heavier
    than the algebra's own bound do not exist.
    """
    taus = [2**i - 1 for i in range(0, 64) if 2**i - 1 <= min(weight, algebra_weight)]
    xis = [2**j - 1 for j in range(1, 64) if 2**j - 1 <= min(weight, algebra_weight)]
    ways = [1] + [0] * weight
    for w in taus:  # exterior: each used at most once
        ways = [ways[v] + (ways[v - w] if v >= w else 0) for v in range(weight + 1)]
    for w in xis:  # polynomial
        for v in range(w, weight + 1):
            ways[v] += ways[v - w]
    return sum(ways)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _stems(argv, report):
    field = _flag(argv, "--field")
    for entry in report["results"]["entries"]:
        degree = entry["degree"]
        two = sorted(
            _two_power(d)
            for s in entry["summands"]
            if s["group"]
            for d in s["group"]["torsion"]
            if _two_power(d) > 1
        )
        if field == "real_closed" and degree % 4 == 3:
            want = [2 ** (3 + _nu2((degree + 1) // 4))]
        elif field == "quadratically_closed" and degree > 0 and degree % 4 in (0, 3):
            want = [2]
        elif field in ("real_closed", "quadratically_closed") and degree > 0:
            want = []
        else:
            continue
        if two != want:
            return f"2-torsion in degree {degree} is {two}, expected {want}"
    return None


def _hopf(argv, report):
    for key, value in report["results"]["table"].items():
        i, j = map(int, key.split(","))
        if value != comb(i + j, i) % 8:
            return f"a_{i},{j} = {value} but binom({i + j}, {i}) mod 8 = {comb(i + j, i) % 8}"
    return None


def _operator(argv, report):
    tokens = _flag(argv, "--word").split()
    n = len(tokens) - 1
    if n < 1 or tokens[0] != "phi" or any(t != "beta" for t in tokens[1:]):
        return None
    want = {f"beta^{n} phi^1": str(9**n), f"beta^{n - 1} phi^0": str(9**n - 1)}
    if report["results"]["terms"] != want:
        return f"phi beta^{n} = {report['results']['terms']}, expected {want}"
    return None


def _pages(argv, report):
    from etasphere.steenrod import ko_homology_model, tau_monomial_homology_dims

    model = _flag(argv, "--model", "ko")
    if model == "sphere":
        return None
    smax, fmax = int(_flag(argv, "--smax", 16)), int(_flag(argv, "--fmax", 4))
    e2 = {ast.literal_eval(k): len(v) for k, v in report["results"]["e2_cells"].items()}
    positive = {k: n for k, n in e2.items() if k[1] > 0 and n}
    if model == "kgl":
        # delta(xi1) = 1 makes xi1 a contracting homotopy: no f > 0 cells
        return f"kgl has f > 0 cells {sorted(positive)[:3]}" if positive else None
    wmin, wmax = -smax - fmax, smax
    ko = ko_homology_model(_flag(argv, "--base", "real_closed"), truncation=smax + 2)
    dims = tau_monomial_homology_dims(ko, smax, wmin + 1, wmax + fmax)
    for s in range(0, smax + 1):
        for f in range(1, fmax + 1):
            for w in range(wmin, wmax + 1):
                if e2.get((s, f, w), 0) != dims.get((s, w + f), 0):
                    return f"E2({s},{f},{w}) has dim {e2.get((s, f, w), 0)}, expected {dims.get((s, w + f), 0)}"
    return None


def _steenrod(argv, report):
    weight = int(_flag(argv, "--weight", 12))
    got = report["results"].get("monomials_checked")
    want = _steenrod_monomial_count(weight, max(16, weight + 4))
    return None if got == want else f"checked {got} monomials, expected {want}"


CLI_ORACLES = {
    "stems": _stems,
    "hopf": _hopf,
    "operator": _operator,
    "pages": _pages,
    "steenrod": _steenrod,
}


def check_cli(argv, code, report):
    """Oracle verdict for a CLI request that answered with exit code 0."""
    if argv[:2] == ["--format", "json"]:
        argv = argv[2:]
    oracle = CLI_ORACLES.get(argv[0]) if argv else None
    if code != 0 or report is None or oracle is None:
        return None
    return oracle(argv, report)


def check_call(fn, args, value):
    if fn == "abstract_phi_report":
        d = args[0]
        if not value["surjective"]:
            return "phi is not surjective"
        for n in range(1, d + 1):
            if value["kernel_dims"][n] != _partitions_min2(n):
                return f"kernel dim {value['kernel_dims'][n]} in degree {n}, expected {_partitions_min2(n)}"
        return None
    return None if value > 0 else f"{fn} checked nothing"
