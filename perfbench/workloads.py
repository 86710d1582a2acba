"""Seeded request lists for the three benchmark workloads.

A request is a JSON-ready dict.  `{"kind": "cli", "argv": [...]}` is passed
to `etasphere.cli.run`; `{"kind": "call", "fn": name, "args": [...]}` names
one of the public calculators listed in `client.CALLS`.  A request may carry
a `contract`: the outcome the README documents where the program is known to
differ from it today (ROADMAP item 4), so that the defect stays visible.

Each workload is a list of strata.  A stratum is either every candidate once
(`"all"`) or `count` draws from the candidates; the seed picks the draws and
the order of the whole list.  Expensive requests sit in `"all"` strata so
that every seed gets the same amount of work and runs with different seeds
are comparable; the seed varies the cheap requests and the order.
`parameter_space` lists every request a seed can produce, which is what
`record.py` records the expected outcomes for.
"""

from __future__ import annotations

import random
import shlex

BASES = ("real_closed", "quadratically_closed", "finite_field_3mod4")
FIELDS = ("quadratically_closed", "real_closed", "Z_half", "F3", "F5", "F7")


def cli(*argv, contract=None) -> dict:
    """A `--format json` CLI request (the flag goes before the subcommand)."""
    req = {"kind": "cli", "argv": ["--format", "json", *map(str, argv)]}
    if contract is not None:
        req["contract"] = contract
    return req


def call(fn: str, *args) -> dict:
    return {"kind": "call", "fn": fn, "args": list(args)}


def request_key(req: dict) -> str:
    if req["kind"] == "cli":
        return "cli " + shlex.join(req["argv"])
    return "call " + req["fn"] + " " + " ".join(map(str, req["args"]))


# -- hopf_certificates -------------------------------------------------------

HOPF_WEIGHT = 9


def _hopf_strata():
    heavy = [cli("steenrod", "--base", b, "--weight", HOPF_WEIGHT) for b in BASES]
    # the two checks `verify --module steenrod` adds on top of coassociativity
    heavy += [call("conjugate_basis_triangularity", b, 5) for b in BASES]
    heavy += [call("check_antipode_axiom", b, 7) for b in BASES]
    return [("all", heavy)]


# -- graded_homology ---------------------------------------------------------

PAGES_SMAX = 12
PAGES_FMAX = 4
PHI_DEGREE = 16


def _graded_strata():
    heavy = [
        cli("pages", "--model", m, "--base", b, "--smax", PAGES_SMAX, "--fmax", PAGES_FMAX)
        for m in ("ko", "kgl")
        for b in BASES
    ]
    heavy += [call("abstract_phi_report", PHI_DEGREE, ring) for ring in ("F2", "Q")]
    return [("all", heavy)]


# -- table_requests ----------------------------------------------------------

CHEAP_PER_ROUND = 240


def _operator_words():
    words = ["phi" + " beta" * n for n in range(1, 25)]
    tokens = ("beta", "phi", "3")
    level = [[]]
    for _ in range(4):
        level = [w + [t] for w in level for t in tokens]
        words += [" ".join(w) for w in level]
    return words


def _cheap_kinds():
    """Short requests, grouped by subcommand; a draw picks a kind, then a member."""
    units = (None, "3,5,7,9,11", "1,3,1,3,1")
    witt = [cli("witt")] + [cli("witt", "--field", f) for f in FIELDS]
    witt += [cli("witt", "--brute-force", q) for q in (3, 5, 7)]
    # F5 against F7 is a correct verdict with exit code 1
    witt += [cli("witt", "--field", f, "--brute-force", q) for f in FIELDS for q in (3, 5, 7)]
    return {
        "stems": [cli("stems", "--field", f, "--max", n) for f in FIELDS for n in range(0, 21)],
        "cobordism": [
            cli("cobordism", "--theory", t, "--field", f, "--max", n)
            for t in ("MSp", "MSL", "msp", "msl")
            for f in FIELDS
            for n in range(0, 17)
        ],
        "hwhw": [cli("hwhw", "--field", f, "--max", n) for f in FIELDS for n in range(0, 6)],
        "witt": witt,
        "hopf": [
            cli("hopf", "--imax", i, "--jmax", j) for i in range(0, 25) for j in range(0, 25)
        ],
        "divided": [
            cli("divided", "--nmax", n, *(("--units", u) if u else ()))
            for n in range(2, 17)
            for u in units
        ],
        "operator": [cli("operator", "--word", w) for w in _operator_words()],
        "verify": [
            cli("verify", "--module", m, "--seed", s) for m in ("abelian", "witt") for s in range(10)
        ],
    }


def _malformed():
    """ROADMAP item-4 cases with the README's outcome, plus usage errors handled today."""
    usage = {"exit": 2}
    return [
        cli("pages", "--base", "nosuch", contract=usage),
        cli("witt", "--brute-force", 4, contract=usage),
        cli("cobordism", "--theory", "MSp", "--field", "nosuch", contract=usage),
        cli("stems", "--field", "real_closed", "--max", -1, contract=usage),
        cli("hopf", "--imax", -3, contract=usage),
        cli("steenrod", "--weight", -5, contract=usage),
        # flags after the subcommand: the README runs exactly this line
        {
            "kind": "cli",
            "argv": ["stems", "--field", "real_closed", "--max", "20", "--format", "json"],
            "contract": {
                "exit": 0,
                "same_as": "cli --format json stems --field real_closed --max 20",
            },
        },
        cli("stems", "--field", "nosuch"),
        cli("operator", "--word", "phi gamma"),
        {"kind": "cli", "argv": ["verify", "--module", "nosuch"]},
        {"kind": "cli", "argv": []},
    ]


def _table_strata():
    heavy = [cli("kwhw", "--field", f, "--imax", i) for f in FIELDS for i in (3, 5)]
    heavy += [cli("steenrod", "--base", b, "--weight", w) for b in BASES for w in (4, 6)]
    heavy += [
        cli("pages", "--model", m, "--base", b, "--smax", 8, "--fmax", 3)
        for m in ("ko", "kgl", "sphere")
        for b in BASES
    ]
    return [("all", heavy), ("all", _malformed()), (CHEAP_PER_ROUND, _cheap_kinds())]


WORKLOADS = {
    "hopf_certificates": _hopf_strata,
    "graded_homology": _graded_strata,
    "table_requests": _table_strata,
}


def requests_for(workload: str, seed: int) -> list[dict]:
    """The request list of one round: same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for count, members in WORKLOADS[workload]():
        if count == "all":
            out.extend(members)
        else:
            kinds = sorted(members)
            for _ in range(count):
                out.append(rng.choice(members[rng.choice(kinds)]))
    rng.shuffle(out)
    return [dict(req, id=i) for i, req in enumerate(out)]


def parameter_space(workload: str) -> list[dict]:
    out = []
    for count, members in WORKLOADS[workload]():
        if count == "all":
            out.extend(members)
        else:
            for kind in sorted(members):
                out.extend(members[kind])
    return out
