"""Per-layer spans recorded from outside the program.

A traced pass replaces selected latzeta functions by wrappers that time each
call and count the work it was given.  A function imported elsewhere with
``from .x import y`` is a separate name in each importing module, so every
latzeta module attribute bound to the original is replaced, and every one is
put back by :meth:`Tracer.restore`.  Calls run in one thread and nest
strictly, so the spans form a stack: a span's self time is its duration
minus the durations of the spans directly inside it, and a span nested in a
span of the same name adds no inclusive time of its own.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# name -> unit; the traced run reports exactly these, summed over a pass
LAYER_METRICS = {
    "exactdet.polymatrix_det.s": "s",
    "exactdet.polymatrix_det.self_s": "s",
    "exactdet.polymatrix_det.calls": "count",
    "exactdet.det_mod.s": "s",
    "exactdet.det_mod.calls": "count",
    "exactdet.det_mod.ops": "count",
    "exactdet.bound_bits": "bits",
    "exactdet.result_bits": "bits",
    "zeta.zeta_positive_det.s": "s",
    "zeta.ihara_bass.s": "s",
    "zeta.lfunction_with_deviation.s": "s",
    "zeta.lfunction.prec_bits": "bits",
    "zeta.zeta_positive_orders.s": "s",
    "zeta.enumerate_positive_geodesics.s": "s",
    "zeta.enumerate_backtrackless_cycles.s": "s",
    "zeta.cycle_classes": "count",
    "zeta.euler_truncation.s": "s",
    "cayley.build_graph.s": "s",
    "cayley.build_graph.calls": "count",
    "cayley.dense_matrix_bytes": "bytes",
    "selberg.selberg_series_translation.s": "s",
    "selberg.selberg_series_translation.calls": "count",
    "selberg.grid_points": "count",
    "selberg.series_terms": "count",
    "selberg.selberg_rational_translation.s": "s",
    "selberg.rational_pieces": "count",
    "selberg.affine_conjugacy_classes.s": "s",
    "selberg.affine_classes": "count",
    "selberg.comparison_check.s": "s",
    "polynomials.MultiRational.expand.s": "s",
    "polynomials.IntPolynomial.series_inverse.s": "s",
    "quotient.quotient_group.calls": "count",
    "quotient.characters.s": "s",
    "intmat.s": "s",
    "intmat.calls": "count",
    "lattice.length_vector.calls": "count",
    "lattice.cone_decompose.s": "s",
    "cli.run_config.s": "s",
    "cli.dumps_report.s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

# the metrics that must repeat exactly from run to run and seed to seed;
# report_bytes moves by a few bytes with the digits of the timings and of
# the echoed basis
COUNT_METRICS = tuple(k for k, u in LAYER_METRICS.items()
                      if u != "s" and k != "cli.report_bytes")


def _bits(x: int) -> int:
    return abs(int(x)).bit_length()


def _det_ops(t, a, r):
    size = a["matrix"].shape[0]
    t.add("exactdet.det_mod.ops", size ** 3)


def _graph_bytes(t, a, r):
    t.add("cayley.dense_matrix_bytes", (r.n - 1) * r.num_vertices ** 2 * 8)


def _grid_points(t, a, r):
    lattice = sys.modules["latzeta.lattice"]
    n = a["gamma"].n
    span = a["max_deg"] // lattice.scale_factor(n, a["scale"])
    t.add("selberg.grid_points", (span + 1) ** n)
    t.add("selberg.series_terms", len(r.terms))


# (module, attribute, span name, hook).  A hook runs after the call returns,
# outside the span, with the tracer, the bound arguments and the result.
# A span name of a layer alone ("intmat") sums all of its functions.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("exactdet", "polymatrix_det", "exactdet.polymatrix_det",
     lambda t, a, r: t.add("exactdet.result_bits",
                           max(map(_bits, r.coeffs), default=0))),
    ("exactdet", "det_mod", "exactdet.det_mod", _det_ops),
    ("exactdet", "coefficient_bound", "exactdet.coefficient_bound",
     lambda t, a, r: t.add("exactdet.bound_bits", _bits(r))),
    ("zeta", "zeta_positive_det", "zeta.zeta_positive_det", None),
    ("zeta", "ihara_bass", "zeta.ihara_bass", None),
    ("zeta", "lfunction_with_deviation", "zeta.lfunction_with_deviation",
     None),
    ("zeta", "_lfunction_precision_bits", "zeta.lfunction_precision_bits",
     lambda t, a, r: t.add("zeta.lfunction.prec_bits", r)),
    ("zeta", "zeta_positive_orders", "zeta.zeta_positive_orders", None),
    ("zeta", "enumerate_positive_geodesics",
     "zeta.enumerate_positive_geodesics", None),
    ("zeta", "enumerate_backtrackless_cycles",
     "zeta.enumerate_backtrackless_cycles",
     lambda t, a, r: t.add("zeta.cycle_classes", len(r))),
    ("zeta", "euler_product_truncation", "zeta.euler_truncation", None),
    ("zeta", "backtrackless_euler_truncation", "zeta.euler_truncation", None),
    ("cayley", "build_graph", "cayley.build_graph", _graph_bytes),
    ("selberg", "selberg_series_translation",
     "selberg.selberg_series_translation", _grid_points),
    ("selberg", "selberg_rational_translation",
     "selberg.selberg_rational_translation",
     lambda t, a, r: t.add("selberg.rational_pieces", len(r.pieces))),
    ("selberg", "affine_conjugacy_classes", "selberg.affine_conjugacy_classes",
     lambda t, a, r: t.add("selberg.affine_classes", len(r))),
    ("selberg", "comparison_check", "selberg.comparison_check", None),
    ("polynomials", "MultiRational.expand",
     "polynomials.MultiRational.expand", None),
    ("polynomials", "IntPolynomial.series_inverse",
     "polynomials.IntPolynomial.series_inverse", None),
    ("quotient", "quotient_group", "quotient.quotient_group", None),
    ("quotient", "characters", "quotient.characters", None),
    ("intmat", "*", "intmat", None),
    ("lattice", "length_vector", "lattice.length_vector", None),
    ("lattice", "cone_decompose", "lattice.cone_decompose", None),
    ("cli", "run_config", "cli.run_config", None),
    ("cli", "dumps_report", "cli.dumps_report",
     lambda t, a, r: t.add("cli.report_bytes", len(r.encode()))),
]

_MARK = "__perfbench_span__"


class Tracer:
    """Aggregates span times and work counts per panel member."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.member = ""
        self.stats: Dict[str, Counter] = {}
        self.missing: List[str] = []
        self._stack: List[List[float]] = []   # [start, child cover]
        self._depth: Counter = Counter()      # open spans per name
        self._patches: List[Tuple[object, str, object]] = []

    def add(self, metric: str, value) -> None:
        self.stats.setdefault(self.member, Counter())[metric] += value

    def wrap(self, fn: Callable, name: str,
             hook: Optional[Callable] = None) -> Callable:
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            frame = [self.clock(), 0.0]
            self._stack.append(frame)
            depth = self._depth[name]
            self._depth[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - frame[0]
                self._stack.pop()
                self._depth[name] = depth
                if self._stack:
                    self._stack[-1][1] += duration
                self.add(name + ".calls", 1)
                self.add(name + ".self_s", duration - frame[1])
                if depth == 0:
                    self.add(name + ".s", duration)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, fn)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever a latzeta module binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "latzeta" or k.startswith("latzeta."))
                   and m is not None]
        for mod_name, attr, span, hook in targets:
            home = sys.modules.get(f"latzeta.{mod_name}")
            if home is None:
                self.missing.append(f"latzeta.{mod_name}")
                continue
            if attr == "*":
                names = [k for k, v in vars(home).items()
                         if not k.startswith("_") and inspect.isfunction(v)
                         and v.__module__ == home.__name__]
            else:
                names = [attr]
            for name in names:
                owner_name, _, fn_name = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = vars(owner).get(fn_name) if owner else None
                if not callable(original):
                    self.missing.append(f"latzeta.{mod_name}.{name}")
                    continue
                traced = self.wrap(original, span, hook)
                if owner_name:
                    self._patch(owner, fn_name, traced)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Names in latzeta modules or their classes still bound to a wrapper."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "latzeta"
                               or mod_name.startswith("latzeta.")):
            continue
        for key, value in vars(mod).items():
            if inspect.isfunction(value) and hasattr(value, _MARK):
                found.append(f"{mod_name}.{key}")
            elif inspect.isclass(value) and value.__module__ == mod_name:
                found.extend(f"{mod_name}.{key}.{k}"
                             for k, v in vars(value).items()
                             if hasattr(v, _MARK))
    return found
