"""Per-layer tracing from outside the library.

`install` replaces each public function or method named in `LAYERS` by a
wrapper.  A module-level function is rebound in every `etasphere` module
namespace that holds it (`cli` imports `check_coassociativity` from
`steenrod`, `kwcalc` imports `lift_free_basis` from `filtered`, ...), so no
call bypasses its wrapper.  A method is replaced once, on its class.

Two kinds of wrapper:

- a span records calls and self time: its duration minus the time covered
  by the spans it called.  With a `key` it also counts calls whose
  arguments were already seen in this interpreter (`repeat_frac`), which is
  the recomputation a memo could remove; argument keys are hashed, and the
  hashing time is excluded from every span's self time.
- a counter records calls only.  It is used for hot leaves, where timing
  would cost more than their work.

Spans are aggregated in memory per layer function and per request
(`begin_request`), and written out by the worker when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _terms(el):
    return frozenset(el.terms.items())


class Tracer:
    def __init__(self):
        self.on = False
        self.stack = [0.0]  # child time of the open spans; [0] is outside any span
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, repeats]
        self.gf2_bits = 0
        self._serials: dict[int, int] = {}
        self._keep: list = []  # keeps keyed objects alive so ids are not reused
        self.requests: dict = {}
        self._request = None
        self._mark: dict = {}

    def serial(self, obj) -> int:
        """Run-local identity of a library object (algebra, model)."""
        n = self._serials.get(id(obj))
        if n is None:
            n = self._serials[id(obj)] = len(self._keep)
            self._keep.append(obj)
        return n

    # -- wrappers ------------------------------------------------------------
    def span(self, name, fn, key=None, bits=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        seen = set()  # argument-key hashes
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if key is not None or bits is not None:
                t0 = clock()
                if key is not None:
                    h = hash(key(tracer, *args, **kwargs))
                    if h in seen:
                        stat[2] += 1
                    else:
                        seen.add(h)
                if bits is not None:
                    tracer.gf2_bits += bits(*args)
                stack[-1] += clock() - t0  # bookkeeping is nobody's self time
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - child

        return wrapper

    def counter(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-request aggregation ---------------------------------------------
    def begin_request(self, request_id):
        self.end_request()
        self._request = request_id
        self._mark = {name: (s[0], s[1]) for name, s in self.stats.items()}

    def end_request(self):
        if self._request is None:
            return
        spans = {}
        for name, s in self.stats.items():
            calls0, self0 = self._mark.get(name, (0, 0.0))
            if s[0] != calls0:
                spans[name] = [s[0] - calls0, s[1] - self0]
        self.requests[self._request] = spans
        self._request = None

    def layer_metrics(self) -> dict:
        """`<layer>.<function>.calls|self_s|repeat_frac` for every wrapper."""
        out = {}
        gf2_self = 0.0
        for layer, qualname, kind, key, _ in LAYERS:
            name = f"{layer}.{qualname}"
            calls, self_s, repeats = self.stats[name]
            out[f"{name}.calls"] = calls
            if kind == S and layer != "gf2":
                out[f"{name}.self_s"] = self_s
            if key is not None:
                out[f"{name}.repeat_frac"] = repeats / calls if calls else 0.0
            if layer == "gf2":
                gf2_self += self_s
        out["gf2.self_s"] = gf2_self
        out["gf2.bits"] = self.gf2_bits
        return out


# -- argument keys for repeat_frac ---------------------------------------------

def _key_coproduct(tr, x):
    return tr.serial(x.algebra), _terms(x)


def _key_mul(tr, a, b):
    return tr.serial(a.algebra), _terms(a), _terms(b)


def _key_cell(tr, model, s, w):
    return tr.serial(model), s, w


def _key_degree(tr, spec, n):
    return tr.serial(spec), n


def _gf2_bits(*args):
    """rows x widest row over the bitmask-list arguments (a computed work size)."""
    rows = width = 0
    for a in args:
        if isinstance(a, list):
            rows += len(a)
            width = max([width] + [v.bit_length() for v in a])
    return rows * width


def _gf2_nullspace_bits(columns, rows):
    return len(rows) * max([columns] + [v.bit_length() for v in rows])


S, C = "span", "count"

# (layer, qualified name, kind, repeat key, gf2 work size)
LAYERS = [
    ("cli", "run", S, None, None),
    ("cli", "load_config", S, None, None),
    ("cli", "emit_json", S, None, None),
    ("steenrod", "coproduct", S, _key_coproduct, None),
    ("steenrod", "coproduct_left", S, None, None),
    ("steenrod", "coproduct_right", S, None, None),
    ("steenrod", "tensor_mul", S, None, None),
    ("steenrod", "combine_slots", S, None, None),
    ("steenrod", "SteenrodElement.__mul__", S, _key_mul, None),
    ("steenrod", "SteenrodAlgebra.mono_product", C, None, None),
    ("steenrod", "SteenrodAlgebra.eta_r_of_coeff", C, None, None),
    ("steenrod", "antipode", S, None, None),
    ("steenrod", "dual_action", S, None, None),
    ("steenrod", "HomologyModel.cell_basis", S, _key_cell, None),
    ("steenrod", "HomologyModel.delta_matrix", S, _key_cell, None),
    ("steenrod", "HomologyModel.cell_cycles", S, None, None),
    ("steenrod", "HomologyModel.check_delta_squared", S, None, None),
    ("steenrod", "bockstein_pages", S, None, None),
    ("graded", "KMTau.mul", C, None, None),
    ("graded", "KMTau.add", C, None, None),
    ("graded", "AlgebraSpec.monomials_of_degree", S, _key_degree, None),
    ("graded", "AlgebraSpec.normalize", S, None, None),
    ("graded", "apply_derivation", S, None, None),
    ("graded", "normalize_product", S, None, None),
    ("graded", "derivation_matrix", S, None, None),
    ("graded", "homology_at_degree", S, None, None),
    ("graded", "rank_and_kernel_dim", S, None, None),
    ("gf2", "rank", S, None, _gf2_bits),
    ("gf2", "row_reduce", S, None, _gf2_bits),
    ("gf2", "nullspace", S, None, _gf2_nullspace_bits),
    ("gf2", "quotient_basis", S, None, _gf2_bits),
    ("gf2", "span_intersection", S, None, _gf2_bits),
    ("gf2", "solve", S, None, _gf2_bits),
    ("witt", "catalog_lookup", S, None, None),
    ("witt", "brute_force_witt_ring", S, None, None),
    ("witt", "find_ring_isomorphism", S, None, None),
    ("witt", "WittElement.__mul__", C, None, None),
    ("abelian", "smith_normal_form", S, None, None),
    ("abelian", "ker_coker_of_mul", S, None, None),
    ("filtered", "lift_free_basis", S, None, None),
    ("filtered", "FilteredRing.from_witt_mod2k", S, None, None),
    ("kwcalc", "eta_stems", S, None, None),
    ("kwcalc", "cobordism_stems", S, None, None),
    ("kwcalc", "hw_hw_stems", S, None, None),
    ("kwcalc", "normal_order", S, None, None),
    ("kwcalc", "hopf_constants", S, None, None),
    ("kwcalc", "divided_power_construct", S, None, None),
    ("kwcalc", "kw_hw_generators_check", S, None, None),
    ("kwcalc", "abstract_phi_report", S, None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every entry of LAYERS; idle until `tracer.on` is set."""
    packages = [m for n, m in sys.modules.items() if n == "etasphere" or n.startswith("etasphere.")]
    for layer, qualname, kind, key, bits in LAYERS:
        module = importlib.import_module(f"etasphere.{layer}")
        owner = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        name = f"{layer}.{qualname}"
        wrapper = tracer.span(name, fn, key, bits) if kind == S else tracer.counter(name, fn)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapper))
        elif owner is module:
            for mod in packages:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, bound, wrapper)
        else:
            setattr(owner, attr, wrapper)
