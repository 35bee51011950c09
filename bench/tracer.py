"""Outside-in tracer: wraps growthcap's public functions from the benchmark.

`install()` replaces, in every growthcap namespace that binds them, the
`__all__` functions of the five library modules and the public methods of
their `__all__` classes (for `Surd` also the constructor and the arithmetic
and comparison operators), plus `growthcap.cli.main`.  Each wrapper records a
span: calls, inclusive time and self time (span minus child spans) per
function, summed per layer (= module).  Spans are aggregated in memory and
written out when the run ends.  Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LIBRARY = ("exactnum", "halfplane", "profile", "average", "markoff")
LAYERS = LIBRARY + ("cli",)
SURD_OPERATORS = (
    "__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__eq__",
    "__lt__", "__le__", "__gt__", "__ge__", "__float__",
)


class Tracer:
    def __init__(self):
        self.paused = False
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.max_coeff_bits = 0
        self._stack: list = []
        self._in_cli = 0
        self._undo: list = []

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"growthcap.{name}") for name in LAYERS}
        hooks = {
            "exactnum.Surd.__init__": self._after_surd,
            "profile.humbert_is_hermite": self._after_humbert,
            "profile.build_profile": self._after_build,
        }
        replace = {}
        for layer in LIBRARY:
            mod = mods[layer]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    replace[id(obj)] = (obj, self._wrap(layer, key, obj, hooks.get(key)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, hooks)
        main = mods["cli"].main
        replace[id(main)] = (main, self._wrap_cli_main(main))
        namespaces = [importlib.import_module("growthcap")] + list(mods.values())
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, val))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def _wrap_class(self, layer, cls, hooks) -> None:
        for name, val in list(vars(cls).items()):
            if name.startswith("_") and not (cls.__name__ == "Surd" and name in SURD_OPERATORS):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(val, (staticmethod, classmethod)):
                new = type(val)(self._wrap(layer, key, val.__func__, hooks.get(key)))
            elif inspect.isfunction(val):
                new = self._wrap(layer, key, val, hooks.get(key))
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((cls, name, val))

    def _wrap(self, layer, key, fn, after=None):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                tracer.calls[key] += 1
                tracer.incl[key] += dur
                tracer.self_time[key] += own
                tracer.layer_self[layer] += own
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_cli_main(self, main):
        traced = self._wrap("cli", "cli.main", main)

        @functools.wraps(main)
        def wrapper(*args, **kwargs):
            self._in_cli += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._in_cli -= 1

        return wrapper

    # -- work counters read off arguments and results ----------------------------------

    def _after_surd(self, args, _):
        surd, b, d = args[0], args[2], args[4]
        self.counters["surd_new"] += 1
        if b != 0 and d not in (0, 1):
            self.counters["surd_new_irrational"] += 1
        bits = max(surd.a.bit_length(), surd.b.bit_length(), surd.c.bit_length())
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _after_humbert(self, _, result):
        self.counters["humbert_yes"] += bool(result)

    def _after_build(self, _, result):
        self.counters["pieces_built"] += len(result.pieces)
        if self._in_cli:
            self.counters["cli_builds"] += 1

    # -- per-op attribution --------------------------------------------------------------

    def begin_op(self) -> None:
        # an overrun raised inside a wrapper's own bookkeeping can leave a frame
        self._stack.clear()

    def layer_snapshot(self) -> dict:
        return dict(self.layer_self)

    def layer_delta(self, before: dict) -> dict:
        return {k: v - before.get(k, 0.0) for k, v in self.layer_self.items() if v - before.get(k, 0.0) > 0}

    # -- results ---------------------------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics, each normalized per op of the traced pass."""
        c, calls, incl = self.counters, self.calls, self.incl
        per = 1.0 / n_ops
        mains = calls["cli.main"]
        m = {f"{layer}.self_s": self.layer_self[layer] * per for layer in LAYERS}
        m.update(
            {
                "exactnum.surd_new": c["surd_new"] * per,
                "exactnum.surd_new_irrational": c["surd_new_irrational"] * per,
                "exactnum.max_coeff_bits": self.max_coeff_bits,
                "exactnum.to_mpf_calls": calls["exactnum.Surd.to_mpf"] * per,
                "exactnum.cf_expand_calls": calls["exactnum.cf_expand"] * per,
                "exactnum.cf_expand_s": incl["exactnum.cf_expand"] * per,
                "exactnum.lagrange_calls": calls["exactnum.lagrange_number_estimate"] * per,
                "exactnum.lagrange_s": incl["exactnum.lagrange_number_estimate"] * per,
                "halfplane.reduce_calls": calls["halfplane.reduce_to_fundamental"] * per,
                "halfplane.reduce_s": incl["halfplane.reduce_to_fundamental"] * per,
                "halfplane.gauss_calls": calls["halfplane.shortest_vector_sq"] * per,
                "halfplane.gauss_s": incl["halfplane.shortest_vector_sq"] * per,
                "profile.humbert_calls": calls["profile.humbert_is_hermite"] * per,
                "profile.humbert_yield": (
                    c["humbert_yes"] / calls["profile.humbert_is_hermite"]
                    if calls["profile.humbert_is_hermite"]
                    else 0.0
                ),
                "profile.pieces_built": c["pieces_built"] * per,
                "profile.oracle_calls": calls["profile.hermite_oracle_geodesic"] * per,
                "profile.oracle_s": incl["profile.hermite_oracle_geodesic"] * per,
                "average.piece_average_calls": calls["average.piece_average"] * per,
                "cli.out_bytes": c["cli.out_bytes"] / mains if mains else 0.0,
                "cli.builds_per_invocation": c["cli_builds"] / mains if mains else 0.0,
            }
        )
        return m

    def spans(self) -> list[dict]:
        """One aggregated span per traced function, busiest first."""
        rows = [
            {"name": k, "calls": self.calls[k], "incl_s": self.incl[k], "self_s": self.self_time[k]}
            for k in self.calls
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
