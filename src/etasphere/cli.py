"""Command-line front end: table/chart emission and invariant verification.

Every subcommand assembles a RunReport (inputs echoed, results, timing,
certificate outcomes) and emits it as canonical JSON or as aligned ASCII.
Certificates come from named checks (`verify_checks` holds them at the
`verify` bounds; the subcommands run the same functions at their own bounds).
Exit codes: 0 success, 1 a certificate failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__, abelian, kwcalc, steenrod, witt
from .abelian import FinAbGroup
from .graded import AlgebraSpec, BoundsExceeded, KMTau, check_confluence_random
from .kwcalc import (
    cobordism_stems,
    divided_power_construct,
    eta_stems,
    hopf_constants,
    hw_hw_stems,
    kw_hw_generators_check,
    load_stable_stems,
    msp_phi_gr,
    normal_order,
    nu2,
    nu2_factorial,
)
from .steenrod import (
    SteenrodAlgebra,
    action_table_ok,
    bockstein_pages,
    check_antipode_axiom,
    check_coassociativity_counit,
    conjugate_basis_triangularity,
    conjugate_weight,
    hopf_weight,
    kgl_homology_model,
    ko_homology_model,
    sphere_model,
    steenrod_generators,
)
from .witt import brute_force_witt_ring, catalog_lookup, catalog_names, find_ring_isomorphism


class UsageError(ValueError):
    pass


def data_dir_override(name: str, explicit):
    """Resolve a data file: explicit flag, then ETASPHERE_DATA_DIR, then bundled."""
    if explicit:
        return explicit
    env = os.environ.get("ETASPHERE_DATA_DIR")
    if env:
        candidate = os.path.join(env, name)
        if os.path.exists(candidate):
            return candidate
    return None


def bundled_fields() -> dict:
    """The bundled catalog by field name, each presentation validated on first lookup."""
    return {name: catalog_lookup(name) for name in catalog_names()}


def load_config(catalog_path=None, stems_path=None):
    """Validated catalog and stems data; a bad data file is a usage error.

    The bundled files are parsed and validated once per process; a
    replacement file (`--catalog`, `--stems-data` or `ETASPHERE_DATA_DIR`)
    is read on every request.
    """
    catalog_path = data_dir_override("field_catalog.json", catalog_path)
    stems_path = data_dir_override("stable_stems.json", stems_path)
    try:
        if catalog_path is None:
            fields = bundled_fields()
        else:
            with open(catalog_path) as fh:
                presentations = map(witt.WittPresentation.from_json, json.load(fh))
                fields = {}
                for pres in presentations:
                    if fields.setdefault(pres.name, pres) is not pres:
                        raise ValueError(f"field {pres.name!r} appears twice")
        stems = load_stable_stems(stems_path)
    except OSError as exc:
        raise UsageError(f"cannot read data file: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"malformed data file: {exc}") from exc
    return fields, stems


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def make_report(command: str, inputs: dict, results, certificates: dict, started: float):
    failures = {
        name: info for name, info in certificates.items() if not info.get("pass", False)
    }
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "certificates": certificates,
        "all_passed": not failures,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }


def emit_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def emit_stems_chart(table) -> str:
    lines = [f"{table.name} over {table.field}"]
    degrees = sorted(table.entries)
    width = max((len(str(d)) for d in degrees), default=1)
    for d in degrees:
        lines.append(f"  {str(d).rjust(width)} | {table.entries[d].describe()}")
    return "\n".join(lines)


def emit_page_chart(page, smax: int, fmax: int) -> str:
    """ASCII grid: stems on the x-axis, filtration on the y-axis."""
    dims = {}
    for (s, f, w), labels in page.entries.items():
        dims[(s, f)] = dims.get((s, f), 0) + len(labels)
    lines = [f"E{page.page_number} page ({page.note}); cell = total dim over weights"]
    for f in range(fmax, -1, -1):
        row = [f"f={f}".rjust(5)]
        for s in range(0, smax + 1):
            d = dims.get((s, f), 0)
            row.append(str(d).rjust(3) if d else "  .")
        lines.append(" ".join(row))
    footer = ["s".rjust(5)] + [str(s).rjust(3) for s in range(0, smax + 1)]
    lines.append(" ".join(footer))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# certificates: named checks and the one runner
# ---------------------------------------------------------------------------
# A check is a plain function returning (ok, checked, counterexample): whether
# it held, how many cases it examined, and a failing case or None.

def certificate(ok, checked: int, counterexample=None) -> dict:
    """A report entry; a check that examined no case fails."""
    if not checked:
        return {"pass": False, "counterexample": "nothing checked"}
    if ok or counterexample is None:
        return {"pass": bool(ok)}
    return {"pass": False, "counterexample": counterexample}


def run_check(check, *args) -> tuple[dict, int | None]:
    """The certificate of check(*args) and its case count (None when it raised)."""
    try:
        ok, checked, counterexample = check(*args)
    except Exception as exc:  # a crash inside a check is a failed certificate
        return {"pass": False, "counterexample": str(exc)}, None
    return certificate(ok, checked, counterexample), checked


def first_failure(cases, holds) -> tuple:
    """The check that holds(case) for every case, stopping at the first that fails."""
    checked = 0
    for case in cases:
        checked += 1
        if not holds(case):
            return False, checked, case
    return True, checked, None


def smith_normal_form_random(rng) -> tuple:
    """U M V = D with U, V unimodular and d_1 | d_2 | ... on 300 random matrices."""
    for checked in range(1, 301):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = abelian.smith_normal_form(m)
        diag = [d[i][i] for i in range(min(rows, cols)) if d[i][i]]
        if (abelian.mat_mul(abelian.mat_mul(u, m), v) != d or abelian.det_sign(u) not in (1, -1)
                or abelian.det_sign(v) not in (1, -1) or any(b % a for a, b in zip(diag, diag[1:]))):
            return False, checked, m
    return True, 300, None


def ker_coker_oracle() -> tuple:
    """ker and coker of multiplication by n against brute-force element counts."""
    def holds(case):
        g = FinAbGroup.from_divisors(0, case[0])
        kc, cc = abelian.brute_force_ker_coker(g, case[1])
        return [abelian.counting_function(h, sorted(kc))
                for h in abelian.ker_coker_of_mul(g, case[1])] == [kc, cc]

    groups = ([2], [4, 2], [6], [8, 2], [9, 3], [12])
    return first_failure(itertools.product(groups, (0, 1, 2, 3, 6, 8)), holds)


def isomorphic_to_catalog(found: dict) -> tuple:
    """found maps a catalog field to an isomorphism onto its brute-force Witt ring, or None."""
    missing = [name for name, iso in found.items() if iso is None]
    return not missing, len(found), f"no isomorphism onto {missing[0]}" if missing else None


def brute_force_matches_catalog() -> tuple:
    return isomorphic_to_catalog({
        name: find_ring_isomorphism(catalog_lookup(name), brute_force_witt_ring(q))
        for q, name in ((3, "F3"), (5, "F5"), (7, "F7"))
    })


def unit_predicate_matches_solver() -> tuple:
    """`is_unit_2local` agrees with `solve_2local_inverse` on small coordinates."""
    rings = bundled_fields()

    def holds(case):
        a = rings[case[0]].element(list(case[1]))
        return (witt.solve_2local_inverse(a) is not None) == witt.is_unit_2local(a)

    cases = ((name, coords) for name, ring in rings.items()
             for coords in itertools.product(range(-1, 3), repeat=ring.additive.ngens))
    return first_failure(cases, holds)


def n_epsilon_odd_is_unit_class() -> tuple:
    rings = bundled_fields()
    return first_failure(itertools.product(rings, (1, 3, 5, 7, 9)), lambda case: (
        witt.n_epsilon(rings[case[0]], case[1]).witt_part == rings[case[0]].one()))


def rewrite_confluence_random(rng) -> tuple:
    km = KMTau()
    motivic = AlgebraSpec(steenrod_generators(km, 3), km, truncation=24)
    return True, check_confluence_random(motivic, 10_000, rng), None


def coassoc_counit(base: str, weight: int) -> tuple:
    alg = SteenrodAlgebra(base, hopf_weight(weight))
    return True, check_coassociativity_counit(alg, weight), None


def action_table(base: str, weight: int) -> tuple:
    """The dual actions of tau0, tau1 and xi1 on every generator."""
    return *action_table_ok(SteenrodAlgebra(base, hopf_weight(weight))), None


def normal_order_phi_beta_n() -> tuple:
    """phi beta^n = 9^n beta^n phi + (9^n - 1) beta^(n-1) for n <= 50."""
    return first_failure(range(1, 51), lambda n: normal_order(["phi"] + ["beta"] * n).terms
                         == {(n, 1): 9**n, (n - 1, 0): 9**n - 1})


def operator_associativity(rng) -> tuple:
    """(ab)c = a(bc) for normal-ordered random words a, b, c."""
    for checked in range(1, 1001):
        items = [rng.choice(["beta", "phi", 3]) for _ in range(rng.randint(1, 5))]
        cut = rng.randint(0, len(items))
        cut2 = rng.randint(cut, len(items))
        a, b, c = (normal_order(w) for w in (items[:cut], items[cut:cut2], items[cut2:]))
        if (a * b) * c != a * (b * c):
            return False, checked, items
    return True, 1000, None


def binomials_mod8(out: dict) -> tuple:
    """The a_ij of a `hopf_constants` table against binom(i+j, i) mod 8."""
    return out["matches_binomials"], len(out["table"]), out["mismatches"]


def eta_stems_valuations() -> tuple:
    """The 2-part of the eta-periodic stem 4n - 1 over R is Z/2^(3 + nu2(n))."""
    table = eta_stems("real_closed", 20)
    return first_failure(range(3, 20, 4), lambda s: table.entries[s].group().primary_part(2)
                         == FinAbGroup(0, [2 ** (3 + nu2((s + 1) // 4))]))


def msp_phi_surjective() -> tuple:
    """phi is onto on gr kw_* MSp and on the abstract model over F2 and over Q."""
    report = msp_phi_gr(14)
    models = {"msp": report, "abstract_model": report["abstract_model"],
              "abstract_model_rational": report["abstract_model_rational"]}
    failing = [name for name, model in models.items() if not model["surjective"]]
    return not failing, len(report["degrees"]), ", ".join(failing) or None


def divided_power_identities(*reports) -> tuple:
    """x_m x_n = binom(m+n, n) x_(m+n), m + n <= n_max, in `divided_power_construct` reports."""
    failures = [f for r in reports for f in r["failures"]]
    checked = sum((r["n_max"] + 1) * (r["n_max"] + 2) // 2 for r in reports)
    return all(r["certificate"] for r in reports), checked, failures


def divided_power_two_unit_choices() -> tuple:
    return divided_power_identities(*(
        divided_power_construct(16, modulus_bits=8, units=units, imax=5)[0]
        for units in ((1, 1, 1, 1, 1), (3, 5, 7, 9, 11))
    ))


def legendre_kummer_cross_check() -> tuple:
    """nu2(n!) against Legendre's formula for n <= 2^16."""
    return first_failure(range(1, 2**16 + 1), lambda n: nu2_factorial(n)
                         == sum(n // 2**k for k in range(1, n.bit_length() + 1)))


def verify_checks(rng) -> dict:
    """Each module's named checks at the `verify` bounds, as calls without arguments.

    The random checks draw from rng, and `verify` runs the modules in sorted
    order, so one seed fixes every case.
    """
    partial = functools.partial
    steenrod_checks = {}
    for base in steenrod.MOTIVIC_BASES:
        steenrod_checks[f"coassoc_counit_{base}"] = partial(coassoc_counit, base, 12)
        steenrod_checks[f"action_table_{base}"] = partial(action_table, base, 12)
    return {
        "abelian": {
            "smith_normal_form_random": partial(smith_normal_form_random, rng),
            "ker_coker_oracle": ker_coker_oracle,
        },
        "graded": {
            "rewrite_confluence_random": partial(rewrite_confluence_random, rng),
            "delta_squared_zero": lambda: (
                True, ko_homology_model("real_closed", truncation=14).check_delta_squared(12), None),
        },
        "kwcalc": {
            "normal_order_phi_beta_n": normal_order_phi_beta_n,
            "operator_associativity": partial(operator_associativity, rng),
            "hopf_constants_mod8": lambda: binomials_mod8(hopf_constants(32, 32)),
            "eta_stems_valuations": eta_stems_valuations,
            "msp_phi_surjective": msp_phi_surjective,
            "msl_phi_iterates_reach_unit": lambda: first_failure(
                range(4), lambda i: kwcalc.phi_iterates_on_msl(i)["reaches_unit"]),
            "divided_power_two_unit_choices": divided_power_two_unit_choices,
            "legendre_kummer_cross_check": legendre_kummer_cross_check,
        },
        "steenrod": {
            **steenrod_checks,
            "conjugate_triangularity": lambda: (True, conjugate_basis_triangularity(
                SteenrodAlgebra("real_closed", conjugate_weight(8, 2)), 8, 2), None),
            "antipode_axiom": lambda: (
                True, check_antipode_axiom(SteenrodAlgebra("real_closed", hopf_weight(7)), 7), None),
        },
        "witt": {
            # lookup validates each bundled presentation and raises on a bad one
            "catalog_validates": lambda: (True, len(bundled_fields()), None),
            "brute_force_matches_catalog": brute_force_matches_catalog,
            "unit_predicate_matches_solver": unit_predicate_matches_solver,
            "n_epsilon_odd_is_unit_class": n_epsilon_odd_is_unit_class,
        },
    }


VERIFY_MODULES = sorted(verify_checks(None))


def run_module(module: str, rng, certificates: dict) -> dict:
    """Run one module's checks into certificates; returns name -> pass."""
    passed = {}
    for name, check in verify_checks(rng)[module].items():
        info, checked = run_check(check)
        if name == "rewrite_confluence_random" and checked is not None:
            info["trials"] = checked  # the one certificate that reports its count
        certificates[f"{module}.{name}"] = info
        passed[name] = info["pass"]
    return passed


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
# Each subcommand is one function (args, fields, stems_data, certificates) ->
# (results, ascii_body) that adds its certificates in place.  It calls the
# library through this module's global names, so that a wrapper rebound over
# them (perfbench's tracer) sees every call.

def stems_command(args, fields, stems_data, certificates):
    table = eta_stems(fields[args.field], args.max, stems_data)
    return table.to_json(), emit_stems_chart(table)


def witt_command(args, fields, stems_data, certificates):
    out = {}
    if args.field:
        out["presentation"] = fields[args.field].to_json()
        # load_config validated every presentation it returned
        certificates["presentation_validates"] = certificate(True, 1)
    if args.brute_force is not None:
        brute = brute_force_witt_ring(args.brute_force)
        out["brute_force"] = brute.to_json()
        if args.field:
            iso = find_ring_isomorphism(fields[args.field], brute)
            certificates["ring_isomorphic_to_catalog"], _ = run_check(
                isomorphic_to_catalog, {args.field: iso})
            if iso is not None:
                out["isomorphism_images"] = [list(c) for c in iso]
    if not out:
        out["catalog"] = sorted(fields)
    return out, json.dumps(out, sort_keys=True, indent=2)


def steenrod_command(args, fields, stems_data, certificates):
    certificates["action_table"], _ = run_check(action_table, args.base, args.weight)
    certificates["coassociativity_counit"], checked = run_check(
        coassoc_counit, args.base, args.weight)
    results = {"base": args.base, "weight": args.weight}
    if checked is not None:
        results["monomials_checked"] = checked
    return results, json.dumps(results, sort_keys=True, indent=2)


def pages_command(args, fields, stems_data, certificates):
    builder = {"ko": ko_homology_model, "kgl": kgl_homology_model,
               "sphere": sphere_model}[args.model]
    model = builder(args.base, truncation=args.smax + 2)
    e1, e2, report = bockstein_pages(model, args.smax, args.fmax, args.wmin, args.wmax)
    cells = report["f_positive_cells"]
    certificates["f_positive_stems_mod_4"] = certificate(
        report["f_positive_stems_mod_4"], cells, report["offending_cells"])
    certificates["collapse"] = certificate(report["collapses"], cells)
    results = {
        "model": args.model,
        "base": args.base,
        "e1_cells": {f"{k}": v for k, v in sorted(e1.entries.items())},
        "e2_cells": {f"{k}": v for k, v in sorted(e2.entries.items())},
        "collapse_argument": report["argument"],
    }
    return results, emit_page_chart(e2, args.smax, args.fmax)


def operator_command(args, fields, stems_data, certificates):
    result = normal_order(_parse_word(args.word))
    results = {
        "word": args.word,
        "normal_form": repr(result),
        "terms": {f"beta^{i} phi^{j}": str(c) for (i, j), c in sorted(result.terms.items())},
    }
    return results, repr(result)


def hopf_command(args, fields, stems_data, certificates):
    out = hopf_constants(args.imax, args.jmax)
    certificates["matches_binomials"], _ = run_check(binomials_mod8, out)
    return out, f"a_ij = binom(i+j, i) mod 8 verified for i <= {args.imax}, j <= {args.jmax}"


def divided_command(args, fields, stems_data, certificates):
    try:
        units = tuple(int(u) for u in args.units.split(",")) if args.units else ()
    except ValueError as exc:
        raise UsageError(f"--units takes comma-separated integers: {args.units!r}") from exc
    out, checked = divided_power_construct(args.nmax, args.modulus_bits, units, args.imax)
    certificates["divided_power_identities"], _ = run_check(divided_power_identities, out)
    certificates["squares_normalized"] = certificate(
        out["squares_normalized"], checked["squares_normalized"])
    return out, (f"x_m x_n = binom(m+n, n) x_(m+n) mod 2^{args.modulus_bits} "
                 f"for m+n <= {args.nmax}: {'ok' if out['certificate'] else 'FAILED'}")


def cobordism_command(args, fields, stems_data, certificates):
    table = cobordism_stems(args.theory, args.field, args.max)
    return table.to_json(), emit_stems_chart(table)


def hwhw_command(args, fields, stems_data, certificates):
    table = hw_hw_stems(fields[args.field], args.max)
    return table.to_json(), emit_stems_chart(table)


def kwhw_command(args, fields, stems_data, certificates):
    out, checked = kw_hw_generators_check(fields[args.field], args.imax, args.modulus_bits)
    for key, count in checked.items():
        certificates[key] = certificate(out[key], count)
    return out, json.dumps(out, sort_keys=True, indent=2)


def verify_command(args, fields, stems_data, certificates):
    # each named module once, in sorted order, so one seed fixes every case
    rng = random.Random(args.seed)
    modules = sorted(set(args.module or VERIFY_MODULES))
    return {module: run_module(module, rng, certificates) for module in modules}, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it is most of the cost of a short request."""
    parser = argparse.ArgumentParser(
        prog="etasphere",
        description="Exact calculators for eta-periodic stems, Witt rings, and "
        "the motivic dual Steenrod algebra",
    )
    parser.add_argument("--format", choices=("json", "ascii"), default="ascii")
    parser.add_argument("--catalog", metavar="PATH", help="user field catalog JSON")
    parser.add_argument("--stems-data", metavar="PATH", help="stable stems JSON")
    parser.add_argument("--verify", action="store_true",
                        help="also run the module invariant suite")
    sub = parser.add_subparsers(dest="subcommand")

    # --format and --verify go on either side of the subcommand: every
    # subcommand takes a copy of these, which leaves the value unset unless
    # given after it.  Built once, for all the subcommands.
    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--format", choices=("json", "ascii"), default=argparse.SUPPRESS)
    output_flags.add_argument("--verify", action="store_true", default=argparse.SUPPRESS,
                              help="also run the module invariant suite")

    # each subcommand with its function and the module whose checks --verify adds
    def command(name, help, handler, verify_module):
        p = sub.add_parser(name, help=help, parents=[output_flags])
        p.set_defaults(handler=handler, verify_module=verify_module)
        return p

    p = command("stems", "eta-periodic stable stems table", stems_command, "kwcalc")
    p.add_argument("--field", required=True)
    p.add_argument("--max", type=int, default=8)

    p = command("witt", "catalog presentation summary and checks", witt_command, "witt")
    p.add_argument("--field")
    p.add_argument("--brute-force", type=int, metavar="Q",
                   help="classify diagonal forms over F_Q and compare")

    p = command("steenrod", "dual Steenrod algebra verification", steenrod_command, "steenrod")
    p.add_argument("--base", default="real_closed")
    p.add_argument("--weight", type=int, default=12)

    p = command("pages", "eta-Bockstein spectral sequence pages", pages_command, "steenrod")
    p.add_argument("--base", default="real_closed")
    p.add_argument("--model", choices=("ko", "kgl", "sphere"), default="ko")
    p.add_argument("--smax", type=int, default=16)
    p.add_argument("--fmax", type=int, default=4)
    p.add_argument("--wmin", type=int)
    p.add_argument("--wmax", type=int)

    p = command("operator", "normal-order a word in beta and phi", operator_command, "kwcalc")
    p.add_argument("--word", required=True,
                   help="space-separated tokens: beta, phi, integers, fractions")

    p = command("hopf", "Hopf algebroid constants a_ij mod 8", hopf_command, "kwcalc")
    p.add_argument("--imax", type=int, default=12)
    p.add_argument("--jmax", type=int, default=12)

    p = command("divided", "divided-power generator certificate", divided_command, "kwcalc")
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--modulus-bits", type=int, default=8)
    p.add_argument("--units", help="comma-separated odd units w_i")
    p.add_argument("--imax", type=int, default=5)

    p = command("cobordism", "eta-periodic cobordism ranks", cobordism_command, "kwcalc")
    p.add_argument("--theory", choices=("MSp", "MSL", "msp", "msl"), required=True)
    p.add_argument("--field", default="real_closed")
    p.add_argument("--max", type=int, default=12)

    p = command("hwhw", "HW smash HW summands", hwhw_command, "kwcalc")
    p.add_argument("--field", required=True)
    p.add_argument("--max", type=int, default=5)

    p = command("kwhw", "kw smash HW generator certificate", kwhw_command, "kwcalc")
    p.add_argument("--field", required=True)
    p.add_argument("--imax", type=int, default=3)
    p.add_argument("--modulus-bits", type=int, default=8)

    p = command("verify", "run invariant suites", verify_command, None)
    p.add_argument("--module", choices=VERIFY_MODULES, action="append")
    p.add_argument("--seed", type=int, default=421)

    return parser


# integer options that bound a computation: none of them may be negative
BOUND_OPTIONS = ("max", "weight", "smax", "fmax", "imax", "jmax", "nmax", "modulus_bits")


def check_arguments(args, fields) -> None:
    """Reject negative bounds and unknown fields or motivic bases up front."""
    negative = [f"--{name.replace('_', '-')}" for name in BOUND_OPTIONS
                if (getattr(args, name, None) or 0) < 0]
    if negative:
        raise UsageError(f"{', '.join(negative)} must be non-negative")
    field = getattr(args, "field", None)
    if field is not None and field not in fields:
        raise UsageError(f"unknown field {field!r}")
    base = getattr(args, "base", None)
    if base is not None and base not in steenrod.MOTIVIC_BASES:
        raise UsageError(f"unknown motivic base {base!r}")


def _parse_word(raw: str):
    out = []
    for token in raw.split():
        if token in ("beta", "phi"):
            out.append(token)
            continue
        try:
            out.append(Fraction(token) if "/" in token else int(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad operator token {token!r}") from exc
    return out


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2

    started = time.perf_counter()
    certificates: dict = {}
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("format", "handler", "verify_module") and v is not None}

    try:
        fields, stems_data = load_config(args.catalog, args.stems_data)
        check_arguments(args, fields)
        results, ascii_body = args.handler(args, fields, stems_data, certificates)
        if args.verify and args.verify_module:
            run_module(args.verify_module, random.Random(421), certificates)
    except (
        UsageError,
        witt.UnknownField,
        witt.UnsupportedCharacteristic,
        kwcalc.ParseError,
        kwcalc.DegreeOutOfRange,
        kwcalc.UnitInversionFailed,
        BoundsExceeded,
    ) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    report = make_report(args.subcommand, inputs, results, certificates, started)
    if args.format == "json":
        print(emit_json(report))
    else:
        if ascii_body:
            print(ascii_body)
        for name, info in sorted(certificates.items()):
            print(f"[{'pass' if info['pass'] else 'FAIL'}] {name}")
    return 0 if report["all_passed"] else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
