"""Command-line front end: table/chart emission and invariant verification.

Every subcommand assembles a RunReport (inputs echoed, results, timing,
certificate outcomes) and emits it as canonical JSON or as aligned ASCII.
Exit codes: 0 success, 1 a certificate failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__, kwcalc, steenrod, witt
from .abelian import FinAbGroup
from .graded import AlgebraSpec, BoundsExceeded, KMTau, check_confluence_random
from .kwcalc import (
    DividedPowerModel,
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
    check_coassociativity,
    check_counit,
    conjugate_basis_triangularity,
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


def load_config(catalog_path=None, stems_path=None):
    """Validated catalog and stems data (invariants enforced on load)."""
    catalog_path = data_dir_override("field_catalog.json", catalog_path)
    stems_path = data_dir_override("stable_stems.json", stems_path)
    if catalog_path is None:
        fields = {name: catalog_lookup(name) for name in catalog_names()}
    else:
        with open(catalog_path) as fh:
            entries = json.load(fh)
        fields = {}
        for entry in entries:
            pres = witt.WittPresentation.from_json(entry)
            fields[pres.name] = pres
    stems = load_stable_stems(stems_path)
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


def cert(ok: bool, counterexample=None) -> dict:
    out = {"pass": bool(ok)}
    if not ok and counterexample is not None:
        out["counterexample"] = counterexample
    return out


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
# invariant suites (run by `verify` and by --verify on subcommands)
# ---------------------------------------------------------------------------

def verify_abelian(rng: random.Random) -> dict:
    from .abelian import (
        brute_force_ker_coker,
        counting_function,
        det_sign,
        ker_coker_of_mul,
        mat_mul,
        smith_normal_form,
    )

    certs = {}
    bad = None
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        if mat_mul(mat_mul(u, m), v) != d or det_sign(u) not in (1, -1) or det_sign(v) not in (1, -1):
            bad = m
            break
        diag = [d[i][i] for i in range(min(rows, cols)) if d[i][i]]
        if any(b % a for a, b in zip(diag, diag[1:])):
            bad = m
            break
    certs["smith_normal_form_random"] = cert(bad is None, bad)

    bad = None
    for factors in ([2], [4, 2], [6], [8, 2], [9, 3], [12]):
        g = FinAbGroup.from_divisors(0, factors)
        for n in (0, 1, 2, 3, 6, 8):
            ker, coker = ker_coker_of_mul(g, n)
            kc, cc = brute_force_ker_coker(g, n)
            divisors = sorted(kc)
            if counting_function(ker, divisors) != kc or counting_function(coker, divisors) != cc:
                bad = (factors, n)
                break
    certs["ker_coker_oracle"] = cert(bad is None, bad)
    return certs


def verify_witt(rng: random.Random) -> dict:
    import itertools

    from .witt import is_unit_2local, n_epsilon, solve_2local_inverse

    certs = {}
    bad = None
    for name in catalog_names():
        try:
            catalog_lookup(name)
        except Exception as exc:  # validation failure carries the reason
            bad = (name, str(exc))
    certs["catalog_validates"] = cert(bad is None, bad)

    bad = None
    for q, name in ((3, "F3"), (5, "F5"), (7, "F7")):
        brute = brute_force_witt_ring(q, 4)
        if find_ring_isomorphism(catalog_lookup(name), brute) is None:
            bad = q
            break
    certs["brute_force_matches_catalog"] = cert(bad is None, bad)

    bad = None
    for name in catalog_names():
        ring = catalog_lookup(name)
        for coords in itertools.product(range(-1, 3), repeat=ring.additive.ngens):
            a = ring.element(list(coords))
            has_inverse = solve_2local_inverse(a) is not None
            if has_inverse != is_unit_2local(a):
                bad = (name, coords)
                break
    certs["unit_predicate_matches_solver"] = cert(bad is None, bad)

    bad = None
    for name in catalog_names():
        ring = catalog_lookup(name)
        for n in (1, 3, 5, 7, 9):
            if n_epsilon(ring, n).witt_part != ring.one():
                bad = (name, n)
    certs["n_epsilon_odd_is_unit_class"] = cert(bad is None, bad)
    return certs


def verify_graded(rng: random.Random, trials: int = 10_000) -> dict:
    km = KMTau("free")
    motivic = AlgebraSpec(steenrod_generators(km, 3), km, truncation=24)
    certs = {}
    try:
        done = check_confluence_random(motivic, trials, rng)
        certs["rewrite_confluence_random"] = cert(done > 0)
        certs["rewrite_confluence_random"]["trials"] = done
    except Exception as exc:
        certs["rewrite_confluence_random"] = cert(False, str(exc))

    model = ko_homology_model("real_closed", truncation=14)
    try:
        model.check_delta_squared(12)
        certs["delta_squared_zero"] = cert(True)
    except Exception as exc:
        certs["delta_squared_zero"] = cert(False, str(exc))
    return certs


def verify_steenrod(weight: int = 12) -> dict:
    certs = {}
    for base in ("real_closed", "quadratically_closed", "finite_field_3mod4"):
        alg = SteenrodAlgebra(base, weight=16)
        try:
            checked = check_coassociativity(alg, weight)
            counit_checked = check_counit(alg, weight)
            certs[f"coassoc_counit_{base}"] = cert(checked > 0 and counit_checked > 0)
        except Exception as exc:
            certs[f"coassoc_counit_{base}"] = cert(False, str(exc))
        certs[f"action_table_{base}"] = cert(action_table_ok(alg))
    alg = SteenrodAlgebra("real_closed", weight=16)
    try:
        checked = conjugate_basis_triangularity(alg, max_weight=8, max_tau_power=2)
        certs["conjugate_triangularity"] = cert(checked > 0)
    except Exception as exc:
        certs["conjugate_triangularity"] = cert(False, str(exc))
    try:
        checked = check_antipode_axiom(alg, 7)
        certs["antipode_axiom"] = cert(checked > 0)
    except Exception as exc:
        certs["antipode_axiom"] = cert(False, str(exc))
    return certs


def verify_kwcalc(rng: random.Random) -> dict:
    certs = {}
    bad = None
    for n in range(1, 51):
        result = normal_order(["phi"] + ["beta"] * n)
        if result.terms != {(n, 1): 9**n, (n - 1, 0): 9**n - 1}:
            bad = n
            break
    certs["normal_order_phi_beta_n"] = cert(bad is None, bad)

    bad = None
    for _ in range(1000):
        items = [rng.choice(["beta", "phi", 3]) for _ in range(rng.randint(1, 5))]
        cut = rng.randint(0, len(items))
        cut2 = rng.randint(cut, len(items))
        a, b, c = items[:cut], items[cut:cut2], items[cut2:]
        if (normal_order(a) * normal_order(b)) * normal_order(c) != normal_order(a) * (
            normal_order(b) * normal_order(c)
        ):
            bad = items
            break
    certs["operator_associativity"] = cert(bad is None, bad)

    out = hopf_constants(32, 32)
    certs["hopf_constants_mod8"] = cert(out["matches_binomials"], out["mismatches"])

    table = eta_stems("real_closed", 20)
    bad = None
    for n in range(1, 6):
        two = table.entries[4 * n - 1].group().primary_part(2)
        if two != FinAbGroup(0, [2 ** (3 + nu2(n))]):
            bad = 4 * n - 1
            break
    certs["eta_stems_valuations"] = cert(bad is None, bad)

    report = msp_phi_gr(14)
    certs["msp_phi_surjective"] = cert(report["surjective"])

    ok = True
    for units in [(1, 1, 1, 1, 1), (3, 5, 7, 9, 11)]:
        model = DividedPowerModel(modulus_bits=8, units=units, imax=5)
        out = divided_power_construct(model, 16)
        ok &= out["certificate"]
    certs["divided_power_two_unit_choices"] = cert(ok)

    bad = None
    for n in range(1, 2**16 + 1):
        if nu2_factorial(n) != sum(n // 2**k for k in range(1, n.bit_length() + 1)):
            bad = n
            break
    certs["legendre_kummer_cross_check"] = cert(bad is None, bad)
    return certs


VERIFY_SUITES = {
    "abelian": lambda rng: verify_abelian(rng),
    "witt": lambda rng: verify_witt(rng),
    "graded": lambda rng: verify_graded(rng),
    "steenrod": lambda rng: verify_steenrod(),
    "kwcalc": lambda rng: verify_kwcalc(rng),
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

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

    def command(name, help):
        return sub.add_parser(name, help=help, parents=[output_flags])

    p = command("stems", help="eta-periodic stable stems table")
    p.add_argument("--field", required=True)
    p.add_argument("--max", type=int, default=8)

    p = command("witt", help="catalog presentation summary and checks")
    p.add_argument("--field")
    p.add_argument("--brute-force", type=int, metavar="Q",
                   help="classify diagonal forms over F_Q and compare")

    p = command("steenrod", help="dual Steenrod algebra verification")
    p.add_argument("--base", default="real_closed")
    p.add_argument("--weight", type=int, default=12)

    p = command("pages", help="eta-Bockstein spectral sequence pages")
    p.add_argument("--base", default="real_closed")
    p.add_argument("--model", choices=("ko", "kgl", "sphere"), default="ko")
    p.add_argument("--smax", type=int, default=16)
    p.add_argument("--fmax", type=int, default=4)
    p.add_argument("--wmin", type=int)
    p.add_argument("--wmax", type=int)
    p.add_argument("--truncation", type=int)

    p = command("operator", help="normal-order a word in beta and phi")
    p.add_argument("--word", required=True,
                   help="space-separated tokens: beta, phi, integers, fractions")

    p = command("hopf", help="Hopf algebroid constants a_ij mod 8")
    p.add_argument("--imax", type=int, default=12)
    p.add_argument("--jmax", type=int, default=12)

    p = command("divided", help="divided-power generator certificate")
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--modulus-bits", type=int, default=8)
    p.add_argument("--units", help="comma-separated odd units w_i")
    p.add_argument("--imax", type=int, default=5)

    p = command("cobordism", help="eta-periodic cobordism ranks")
    p.add_argument("--theory", choices=("MSp", "MSL", "msp", "msl"), required=True)
    p.add_argument("--field", default="real_closed")
    p.add_argument("--max", type=int, default=12)

    p = command("hwhw", help="HW smash HW summands")
    p.add_argument("--field", required=True)
    p.add_argument("--max", type=int, default=5)

    p = command("kwhw", help="kw smash HW generator certificate")
    p.add_argument("--field", required=True)
    p.add_argument("--imax", type=int, default=3)
    p.add_argument("--modulus-bits", type=int, default=8)

    p = command("verify", help="run invariant suites")
    p.add_argument("--module", choices=sorted(VERIFY_SUITES), action="append")
    p.add_argument("--seed", type=int, default=421)

    return parser


# integer options that bound a computation: none of them may be negative
BOUND_OPTIONS = ("max", "weight", "smax", "fmax", "truncation", "imax", "jmax", "nmax",
                 "modulus_bits")


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
    results = None
    ascii_body = None
    inputs = {k: v for k, v in vars(args).items() if k not in ("format",) and v is not None}

    try:
        try:
            fields, stems_data = load_config(args.catalog, args.stems_data)
        except OSError as exc:
            raise UsageError(f"cannot read data file: {exc}") from exc
        check_arguments(args, fields)

        if args.subcommand == "stems":
            table = eta_stems(args.field, args.max, stems_data, args.catalog)
            results = table.to_json()
            ascii_body = emit_stems_chart(table)

        elif args.subcommand == "witt":
            out = {}
            if args.field:
                ring = fields[args.field]
                out["presentation"] = ring.to_json()
                certificates["presentation_validates"] = cert(True)
            if args.brute_force:
                brute = brute_force_witt_ring(args.brute_force, 4)
                out["brute_force"] = brute.to_json()
                if args.field:
                    iso = find_ring_isomorphism(fields[args.field], brute)
                    certificates["ring_isomorphic_to_catalog"] = cert(
                        iso is not None, f"no isomorphism onto {args.field}"
                    )
                    if iso is not None:
                        out["isomorphism_images"] = [list(c) for c in iso]
            if not out:
                out["catalog"] = sorted(fields)
            results = out
            ascii_body = json.dumps(out, sort_keys=True, indent=2)

        elif args.subcommand == "steenrod":
            alg = SteenrodAlgebra(args.base, weight=max(16, args.weight + 4))
            certificates["action_table"] = cert(action_table_ok(alg))
            try:
                n1 = check_coassociativity(alg, args.weight)
                n2 = check_counit(alg, args.weight)
                certificates["coassociativity_counit"] = cert(n1 > 0 and n2 > 0)
                results = {"base": args.base, "weight": args.weight,
                           "monomials_checked": n1}
            except Exception as exc:
                certificates["coassociativity_counit"] = cert(False, str(exc))
                results = {"base": args.base, "weight": args.weight}
            ascii_body = json.dumps(results, sort_keys=True, indent=2)

        elif args.subcommand == "pages":
            truncation = args.smax + 2 if args.truncation is None else args.truncation
            builder = {"ko": ko_homology_model, "kgl": kgl_homology_model,
                       "sphere": sphere_model}[args.model]
            model = builder(args.base, truncation=truncation)
            e1, e2, report = bockstein_pages(
                model, args.smax, args.fmax, args.wmin, args.wmax
            )
            certificates["f_positive_stems_mod_4"] = cert(
                report["f_positive_stems_mod_4"], report["offending_cells"]
            )
            certificates["collapse"] = cert(report["collapses"])
            results = {
                "model": args.model,
                "base": args.base,
                "e1_cells": {f"{k}": v for k, v in sorted(e1.entries.items())},
                "e2_cells": {f"{k}": v for k, v in sorted(e2.entries.items())},
                "collapse_argument": report["argument"],
            }
            ascii_body = emit_page_chart(e2, args.smax, args.fmax)

        elif args.subcommand == "operator":
            word = _parse_word(args.word)
            result = normal_order(word)
            results = {
                "word": args.word,
                "normal_form": repr(result),
                "terms": {f"beta^{i} phi^{j}": str(c) for (i, j), c in sorted(result.terms.items())},
            }
            ascii_body = repr(result)

        elif args.subcommand == "hopf":
            out = hopf_constants(args.imax, args.jmax)
            certificates["matches_binomials"] = cert(
                out["matches_binomials"], out["mismatches"]
            )
            results = out
            ascii_body = f"a_ij = binom(i+j, i) mod 8 verified for i <= {args.imax}, j <= {args.jmax}"

        elif args.subcommand == "divided":
            try:
                units = tuple(int(u) for u in args.units.split(",")) if args.units else ()
            except ValueError as exc:
                raise UsageError(f"--units takes comma-separated integers: {args.units!r}") from exc
            model = DividedPowerModel(args.modulus_bits, units, args.imax)
            out = divided_power_construct(model, args.nmax)
            certificates["divided_power_identities"] = cert(
                out["certificate"], out["failures"]
            )
            certificates["squares_normalized"] = cert(out["squares_normalized"])
            results = out
            ascii_body = (
                f"x_m x_n = binom(m+n, n) x_(m+n) mod 2^{args.modulus_bits} "
                f"for m+n <= {args.nmax}: {'ok' if out['certificate'] else 'FAILED'}"
            )

        elif args.subcommand == "cobordism":
            table = cobordism_stems(args.theory, args.field, args.max)
            results = table.to_json()
            ascii_body = emit_stems_chart(table)

        elif args.subcommand == "hwhw":
            table = hw_hw_stems(args.field, args.max, args.catalog)
            results = table.to_json()
            ascii_body = emit_stems_chart(table)

        elif args.subcommand == "kwhw":
            out = kw_hw_generators_check(
                args.field, args.imax, args.modulus_bits, catalog_path=args.catalog
            )
            for key in ("squares_in_2_plus_I2", "binary_products_generate",
                        "lift_certificate_ok"):
                certificates[key] = cert(out[key])
            results = out
            ascii_body = json.dumps(out, sort_keys=True, indent=2)

        elif args.subcommand == "verify":
            rng = random.Random(args.seed)
            modules = args.module or sorted(VERIFY_SUITES)
            results = {}
            for name in modules:
                suite = VERIFY_SUITES[name](rng)
                for cname, info in suite.items():
                    certificates[f"{name}.{cname}"] = info
                results[name] = {c: info["pass"] for c, info in suite.items()}
            ascii_body = "\n".join(
                f"[{'pass' if info['pass'] else 'FAIL'}] {name}"
                for name, info in sorted(certificates.items())
            )

        if args.verify and args.subcommand != "verify":
            module_for = {
                "stems": "kwcalc", "operator": "kwcalc", "hopf": "kwcalc",
                "divided": "kwcalc", "cobordism": "kwcalc", "hwhw": "kwcalc",
                "kwhw": "kwcalc", "witt": "witt", "steenrod": "steenrod",
                "pages": "steenrod",
            }
            name = module_for.get(args.subcommand)
            if name:
                rng = random.Random(421)
                for cname, info in VERIFY_SUITES[name](rng).items():
                    certificates[f"{name}.{cname}"] = info

    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
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
