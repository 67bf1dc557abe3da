"""Batch front end: parse a JSON config, run the requested checks, emit a
machine-readable report plus a human summary.

Exit codes: 0 all requested verifications pass, 1 a verification failed,
2 invalid configuration, 3 a resource cap was hit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
import sys
import time
from typing import Optional, Sequence, Tuple, Union

from .errors import ResourceCapError, TypeZeroViolationError
from .cayley import (
    MAX_VERTICES,
    QuotientGraph,
    build_graph,
    export_edge_list,
    perturb_adjacency,
    typed_adjacency,
)
from .lattice import GEODESIC, FACTORIAL, Permutation
from .polynomials import IntPolynomial, first_difference
from .quotient import AffineSubgroup, TranslationSubgroup, characters, quotient_group
from .selberg import (
    PeriodTable,
    affine_conjugacy_classes,
    comparison_check,
    comparison_price,
    selberg_identity,
    selberg_rational_translation,
    selberg_series_translation,
)
from .value import Value
from .zeta import (
    backtrackless_cycle_product,
    direction_orders,
    enumerate_positive_geodesics,
    euler_product_truncation,
    ihara_bass,
    ihara_zeta_series,
    lfunction_with_deviation,
    zeta_positive_det,
    zeta_positive_orders,
)

class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _is_int(x) -> bool:
    # JSON true/false parse as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


# the keys a config may hold, at its root and in each object
_ROOT_KEYS = ("n", "gamma", "maxDegree", "scale", "checks", "caps",
              "perturb")
_GAMMA_KEYS = {"translation": ("kind", "basis"),
               "affine": ("kind", "lattice", "perms")}
_CAPS_KEYS = ("maxVertices", "acknowledgeLarge")
_PERTURB_KEYS = ("type", "row", "col", "delta")


def _reject_unknown(obj: dict, prefix: str, known: Sequence[str]) -> None:
    """Refuse the first key of obj outside known, named with its prefix;
    a misspelt key would otherwise leave its field at the default."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown key (expected one "
                              f"of: {', '.join(known)})")


def _parse_perturb(p, n: int, size: int) -> Tuple[int, int, int, int]:
    """(type, row, col, delta), range-checked against n and the number of
    vertices (the index) of the translation subgroup."""
    if not isinstance(p, dict):
        raise ConfigError("perturb", "must be an object with integer "
                          "type/row/col")
    _reject_unknown(p, "perturb.", _PERTURB_KEYS)
    values = []
    for key, default in (("type", None), ("row", None), ("col", None),
                         ("delta", 1)):
        x = p.get(key, default)
        if not _is_int(x):
            raise ConfigError(f"perturb.{key}", "must be an integer")
        values.append(x)
    t, row, col, delta = values
    if not 1 <= t <= n - 1:
        raise ConfigError("perturb.type", f"must be in 1..{n - 1}")
    for key, x in (("row", row), ("col", col)):
        if not 0 <= x < size:
            raise ConfigError(f"perturb.{key}", f"must be in 0..{size - 1}"
                              f" (the quotient has {size} vertices)")
    # the typed adjacency matrices are int64, and their entries are at most
    # binom(n, n//2) before the perturbation; the invariants check
    # multiplies two of them and sums rows, which stays below
    # N * (|delta| + binom(n, n//2))^2
    if size * (abs(delta) + math.comb(n, n // 2)) ** 2 >= 2 ** 63:
        raise ConfigError("perturb.delta", f"|delta| = {abs(delta)} "
                          f"overflows the int64 adjacency products on "
                          f"{size} vertices")
    return tuple(values)


class RunConfig(Value):
    """A parsed configuration.  Unlike the other values it is mutable and
    unhashable, and ``subgroup`` is not one of its compared fields."""

    _fields = ("n", "gamma_kind", "basis", "perms", "max_degree", "scale",
               "checks", "max_vertices", "acknowledge_large", "perturb")
    __slots__ = _fields + ("subgroup",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, n: int, gamma_kind: str,
                 basis: Tuple[Tuple[int, ...], ...],
                 perms: Tuple[Tuple[int, ...], ...] = (),
                 max_degree: int = 12, scale: str = GEODESIC,
                 checks: Optional[Tuple[str, ...]] = None,
                 max_vertices: int = MAX_VERTICES,
                 acknowledge_large: bool = False,
                 perturb: Optional[Tuple[int, int, int, int]] = None,
                 subgroup: Union[TranslationSubgroup, AffineSubgroup,
                                 None] = None):
        self._assign(n, gamma_kind, basis, perms, max_degree, scale,
                     TRANSLATION_CHECKS if checks is None else checks,
                     max_vertices, acknowledge_large, perturb)
        # the subgroup of n, gamma_kind, basis and perms, built once; the
        # parser passes the one it validated with
        self.subgroup = (_subgroup(n, gamma_kind, basis, perms)
                         if subgroup is None else subgroup)

    @classmethod
    def from_json_obj(cls, obj) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        _reject_unknown(obj, "", _ROOT_KEYS)
        n = obj.get("n")
        if not isinstance(n, int) or n < 2:
            raise ConfigError("n", "must be an integer >= 2")
        gamma = obj.get("gamma")
        if not isinstance(gamma, dict) or "kind" not in gamma:
            raise ConfigError("gamma", "must be an object with a 'kind'")
        kind = gamma["kind"]
        if kind not in ("translation", "affine"):
            raise ConfigError("gamma.kind", "must be 'translation' or 'affine'")
        basis_key = "basis" if kind == "translation" else "lattice"
        _reject_unknown(gamma, "gamma.", _GAMMA_KEYS[kind])
        basis = gamma.get(basis_key)
        k = n - 1
        if (not isinstance(basis, list) or len(basis) != k
                or any(not isinstance(r, list) or len(r) != k
                       or not all(map(_is_int, r)) for r in basis)):
            raise ConfigError(f"gamma.{basis_key}",
                              f"must be a {k}x{k} integer matrix")
        perms: Tuple[Tuple[int, ...], ...] = ()
        if kind == "affine":
            raw = gamma.get("perms", [])
            if not isinstance(raw, list):
                raise ConfigError("gamma.perms", "must be a list of 0-based "
                                  "image tuples")
            for p in raw:
                if (not isinstance(p, list) or not all(map(_is_int, p))
                        or sorted(p) != list(range(n))):
                    raise ConfigError("gamma.perms", f"{p!r} is not a list "
                                      f"of the integers 0..{n-1} in some order")
            perms = tuple(tuple(p) for p in raw)
        try:
            subgroup = _subgroup(n, kind, basis, perms)
        except TypeZeroViolationError as exc:
            raise ConfigError(f"gamma.{basis_key}", (
                f"generator {exc.generator} has type {exc.tau}: each "
                f"generator's coordinate sum must be divisible by n = {n}"
            )) from None
        except ValueError as exc:
            raise ConfigError(f"gamma.{basis_key}", str(exc)) from None
        max_degree = obj.get("maxDegree", 12)
        if not _is_int(max_degree) or max_degree < 0:
            raise ConfigError("maxDegree", "must be an integer >= 0")
        scale = obj.get("scale", GEODESIC)
        if scale not in (GEODESIC, FACTORIAL):
            raise ConfigError("scale", "must be 'geodesic' or 'factorial'")
        allowed = tuple(_CHECKS[kind])
        checks = obj.get("checks", "all")
        if checks == "all":
            checks = list(allowed)
        if not isinstance(checks, list) or not checks:
            raise ConfigError("checks", "must be a nonempty list or 'all'")
        for i, c in enumerate(checks):
            if c not in allowed:
                raise ConfigError(
                    "checks", f"{c!r} is not valid for a {kind} subgroup "
                    f"(allowed: {', '.join(allowed)})")
            if c in checks[:i]:
                raise ConfigError("checks", f"{c!r} is listed twice")
        caps = obj.get("caps", {})
        if not isinstance(caps, dict):
            raise ConfigError("caps", "must be an object")
        _reject_unknown(caps, "caps.", _CAPS_KEYS)
        max_vertices = caps.get("maxVertices", MAX_VERTICES)
        if not _is_int(max_vertices) or max_vertices < 1:
            raise ConfigError("caps.maxVertices", "must be an integer >= 1")
        acknowledge = caps.get("acknowledgeLarge", False)
        if not isinstance(acknowledge, bool):
            raise ConfigError("caps.acknowledgeLarge", "must be true or false")
        if max_vertices > MAX_VERTICES and not acknowledge:
            raise ConfigError("caps.maxVertices",
                              "raising the cap requires acknowledgeLarge=true")
        perturb = None
        if "perturb" in obj:
            if kind != "translation":
                raise ConfigError("perturb", "the adjacency perturbation "
                                  "applies only to translation subgroups")
            perturb = _parse_perturb(obj["perturb"], n, subgroup.index)
        return cls(
            n=n, gamma_kind=kind,
            basis=tuple(tuple(r) for r in basis),
            perms=perms, max_degree=max_degree, scale=scale,
            checks=tuple(checks), max_vertices=max_vertices,
            acknowledge_large=acknowledge,
            perturb=perturb, subgroup=subgroup,
        )

    def to_json_obj(self):
        gamma = {"kind": self.gamma_kind}
        key = "basis" if self.gamma_kind == "translation" else "lattice"
        gamma[key] = [list(r) for r in self.basis]
        if self.gamma_kind == "affine":
            gamma["perms"] = [list(p) for p in self.perms]
        out = {
            "n": self.n,
            "gamma": gamma,
            "maxDegree": self.max_degree,
            "scale": self.scale,
            "checks": list(self.checks),
            "caps": {"maxVertices": self.max_vertices,
                     "acknowledgeLarge": self.acknowledge_large},
        }
        if self.perturb is not None:
            out["perturb"] = {"type": self.perturb[0], "row": self.perturb[1],
                              "col": self.perturb[2], "delta": self.perturb[3]}
        return out


def _subgroup(n: int, kind: str, basis, perms):
    """The config's subgroup, a TranslationSubgroup or an AffineSubgroup;
    raises a ValueError on a singular basis, a generator of nonzero type, or
    a lattice not stable under the perms."""
    lattice = TranslationSubgroup(n, basis)
    if kind == "translation":
        return lattice
    return AffineSubgroup(lattice, [Permutation(p) for p in perms])


class _Lazy:
    """Shared per-run computations so checks do not repeat the heavy parts;
    ``gamma`` is the config's subgroup, of either kind."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.gamma = cfg.subgroup
        self._series = {}

    @functools.cached_property
    def graph(self) -> QuotientGraph:
        g = build_graph(self.gamma, max_vertices=self.cfg.max_vertices)
        if self.cfg.perturb is not None:
            t, r, c, d = self.cfg.perturb
            g = perturb_adjacency(g, t, r, c, d)
        return g

    @functools.cached_property
    def det_poly(self) -> IntPolynomial:
        return zeta_positive_det(self.graph)

    @functools.cached_property
    def orders_product(self) -> IntPolynomial:
        return zeta_positive_orders(self.gamma)

    def selberg_series(self, max_deg: int, scale: str) -> PeriodTable:
        # from the subgroup, never the graph, so a perturbation leaves it be
        key = (max_deg, scale)
        if key not in self._series:
            self._series[key] = selberg_series_translation(
                self.gamma, max_deg, scale)
        return self._series[key]


def _check_positive_zeta(lazy: _Lazy, cfg: RunConfig):
    det = lazy.det_poly
    orders = lazy.orders_product
    ok = det == orders
    return ok, {
        "determinant": det.to_json_coeffs(),
        "orders_product": orders.to_json_coeffs(),
        "equal": ok,
        "first_difference": first_difference(det, orders),
    }


def _check_lfunction(lazy: _Lazy, cfg: RunConfig):
    poly = lfunction_with_deviation(lazy.gamma)
    ok = poly == lazy.det_poly
    return ok, {
        "lfunction": poly.to_json_coeffs(),
        "equals_determinant": ok,
        "first_difference": first_difference(poly, lazy.det_poly),
    }


def _check_ihara(lazy: _Lazy, cfg: RunConfig):
    numerator, chi = ihara_bass(lazy.graph)
    result = {
        "numerator": numerator.to_json_coeffs(),
        "euler_characteristic": chi,
        "zeta_series_positive_exponent":
            ihara_zeta_series(numerator, chi, cfg.max_degree).to_json_coeffs(),
        "oracle": "skipped",
    }
    ok = True
    # the Hashimoto traces cost O(depth * edges * degree); the depth stays
    # at 8, where the acceptance checks run, because every entry of W^depth
    # must stay below 2^63
    oracle_deg = min(cfg.max_degree, 8)
    if lazy.graph.is_simple() and oracle_deg > 0:
        product, count = backtrackless_cycle_product(lazy.graph, oracle_deg)
        expected = ihara_zeta_series(numerator, chi, oracle_deg)
        ok = product == expected
        result["oracle"] = "match" if ok else "mismatch"
        result["oracle_degree"] = oracle_deg
        result["cycle_product"] = product.to_json_coeffs()
        result["primitive_cycle_count"] = count
    return ok, result


def _check_geodesic_oracle(lazy: _Lazy, cfg: RunConfig):
    n_vertices = lazy.graph.num_vertices
    # Z+ and the Euler product both have degree n N; degrees above it are
    # not checked, since there the check would only confirm that the
    # product of the enumerated classes cancels, and the classes of those
    # lengths are neither enumerated nor counted
    max_deg = min(cfg.max_degree, cfg.n * n_vertices)
    classes = enumerate_positive_geodesics(lazy.graph, max_deg)
    product = euler_product_truncation(classes, max_deg)
    expected = lazy.det_poly.truncate(max_deg)
    orders = direction_orders(lazy.gamma)
    counts_ok = True
    for i, m in enumerate(orders, start=1):
        if m <= max_deg:
            found = sum(1 for c in classes if c.direction == i)
            counts_ok = counts_ok and found == n_vertices // m
    ok = product == expected and counts_ok
    return ok, {
        "euler_truncated": product.to_json_coeffs(),
        "determinant_truncated": expected.to_json_coeffs(),
        "class_counts_match": counts_ok,
        "primitive_classes": len(classes),
        "direction_orders": orders,
    }


def _check_selberg_series(lazy: _Lazy, cfg: RunConfig):
    table = lazy.selberg_series(cfg.max_degree, cfg.scale)
    expected_constant = lazy.gamma.index * math.factorial(cfg.n)
    # the identity weight is the cell at the all-zero row
    ok = table.coeffs[~table.terms.any(axis=1)].tolist() == [expected_constant]
    return ok, {
        "series": table.to_json_obj(cfg.max_degree),
        "period": table.period,
        "identity_weight": expected_constant,
        "constant_term_matches_index": ok,
    }


def _check_selberg_rational(lazy: _Lazy, cfg: RunConfig):
    # the table first: its cap exits 3 before the cone sums run
    table = lazy.selberg_series(cfg.max_degree, cfg.scale)
    rational = selberg_rational_translation(lazy.gamma, cfg.scale)
    ok, first = selberg_identity(lazy.gamma, rational, table)
    return ok, {
        "rational": rational.to_json_obj(),
        "period": table.period,
        "identity_degree_free": table.complete,
        "identity_holds": ok,
        "identity_first_difference": first,
    }


def _check_comparison(lazy: _Lazy, cfg: RunConfig):
    # the identity concerns the subgroup alone: its Z+ is the orders product
    # that positive_zeta checks, priced before it is built, and read in full
    # on a complete table, else to max_deg + 1
    max_deg = max(cfg.max_degree, 1)
    table = lazy.selberg_series(max_deg, GEODESIC)
    comparison_price(lazy.gamma, max_deg, table)
    zeta = (lazy.orders_product if table.complete
            else zeta_positive_orders(lazy.gamma, max_deg + 1))
    return comparison_check(lazy.gamma, max_deg, zeta=zeta, series=table)


def _check_invariants(lazy: _Lazy, cfg: RunConfig):
    # only what reads the subgroup: the length function's own invariance
    # and integrality depend on n and the scale alone and are unit-tested
    import random

    rng = random.Random(20260809)
    n = cfg.n
    g = lazy.graph
    results = {}
    # typed adjacency identities
    commute = all(
        (g.mats[i] @ g.mats[j] == g.mats[j] @ g.mats[i]).all()
        for i in range(n - 1) for j in range(i + 1, n - 1))
    transpose_ok = all(
        (typed_adjacency(g, i).T == typed_adjacency(g, n - i)).all()
        for i in range(1, n))
    row_sums_ok = all(
        (typed_adjacency(g, i).sum(axis=1) == math.comb(n, i)).all()
        and (typed_adjacency(g, i).sum(axis=0) == math.comb(n, i)).all()
        for i in range(1, n))
    results["typed_adjacency_commute"] = bool(commute)
    results["typed_adjacency_transpose"] = bool(transpose_ok)
    results["typed_adjacency_row_sums"] = bool(row_sums_ok)
    # character identities, on the exponents of D-th roots of unity
    q = quotient_group(lazy.gamma)
    big = q.divisors[-1]
    satake_ok = True
    hom_ok = True
    chars = characters(q)
    results["character_count_equals_order"] = len(chars) == q.order
    for chi in chars:
        if sum(chi.satake_turns(q)) % big:
            satake_ok = False
    for _ in range(50):
        chi = rng.choice(chars)
        a = tuple(rng.randrange(d) for d in q.divisors)
        b = tuple(rng.randrange(d) for d in q.divisors)
        if (chi.turn(q.add(a, b)) - chi.turn(a) - chi.turn(b)) % big:
            hom_ok = False
    results["satake_product_is_one"] = satake_ok
    results["character_homomorphism"] = hom_ok
    ok = all(v for v in results.values() if isinstance(v, bool))
    return ok, results


def _check_affine_selberg_series(lazy: _Lazy, cfg: RunConfig):
    gamma = lazy.gamma
    classes = affine_conjugacy_classes(gamma, cfg.max_degree, cfg.scale)
    id_weight = classes.identity_weight()
    ok = id_weight == gamma.index_in_affine_group
    return ok, {
        "series": classes.to_json_obj(cfg.max_degree),
        "identity_class_weight": id_weight,
        "group_index": gamma.index_in_affine_group,
    }


# subgroup kind -> check name -> check
_CHECKS = {
    "translation": {
        "positive_zeta": _check_positive_zeta,
        "lfunction": _check_lfunction,
        "ihara": _check_ihara,
        "geodesic_oracle": _check_geodesic_oracle,
        "selberg_series": _check_selberg_series,
        "selberg_rational": _check_selberg_rational,
        "comparison": _check_comparison,
        "invariants": _check_invariants,
    },
    "affine": {
        "selberg_series": _check_affine_selberg_series,
    },
}
TRANSLATION_CHECKS = tuple(_CHECKS["translation"])
AFFINE_CHECKS = tuple(_CHECKS["affine"])


def run_config(cfg: RunConfig) -> Tuple[int, dict]:
    """Execute a parsed configuration; returns (exit_code, report)."""
    report = {"config": cfg.to_json_obj(), "results": {}, "pass": True}
    checks = _CHECKS[cfg.gamma_kind]
    try:
        lazy = _Lazy(cfg)
        for name in sorted(cfg.checks):
            t0 = time.monotonic()
            ok, result = checks[name](lazy, cfg)
            result = {"pass": ok, **result, "timing_s": time.monotonic() - t0}
            report["results"][name] = result
            report["pass"] = report["pass"] and ok
    except ResourceCapError as exc:
        report["pass"] = False
        report["error"] = str(exc)
        return 3, report
    return (0 if report["pass"] else 1), report


def _format_text(report: dict) -> str:
    lines = []
    cfg = report["config"]
    lines.append(f"n={cfg['n']} gamma={cfg['gamma']}")
    for name, result in report.get("results", {}).items():
        status = "PASS" if result.get("pass") else "FAIL"
        lines.append(f"  [{status}] {name} ({result.get('timing_s', 0):.3f}s)")
    if "error" in report:
        lines.append(f"  error: {report['error']}")
    lines.append(f"overall: {'PASS' if report.get('pass') else 'FAIL'}")
    return "\n".join(lines)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# exact type -> text of a JSON scalar, as json.dumps writes it
_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(obj, pad: str, out: list) -> None:
    """Append the text of obj, indented 2 per level below pad, to out."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(obj))
        return
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        f"serializable")
    if not obj:
        out.append("{}" if kind is dict else "[]")
        return
    if kind is not dict and type(obj[0]) is list:
        table = _term_table(obj, pad)
        if table is not None:
            out.append(table)
            return
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict:
        out.append("{\n" + inner)
        for i, key in enumerate(sorted(obj)):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not "
                                f"{type(key).__name__}")
            if i:
                out.append(sep)
            out.append(_SCALARS[str](key) + ": ")
            _write_json(obj[key], inner, out)
        out.append("\n" + pad + "}")
        return
    out.append("[\n" + inner)
    kinds = set(map(type, obj))
    scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if scalar is not None:
        out.append(sep.join(map(scalar, obj)))
    else:
        for i, item in enumerate(obj):
            if i:
                out.append(sep)
            _write_json(item, inner, out)
    out.append("\n" + pad + "]")


def _term_table(rows, pad: str) -> Optional[str]:
    """The text of rows at pad when every row is ``[[int, ...], str]``, the
    term rows of the series and rationals, formed one string per row by
    builtins alone, with no Python frame per row; None for any other
    shape."""
    if {*map(type, rows)} != {list} or {*map(len, rows)} != {2}:
        return None
    exps = [*map(operator.itemgetter(0), rows)]
    coeffs = [*map(operator.itemgetter(1), rows)]
    if ({*map(type, exps)} != {list} or {*map(type, coeffs)} != {str}
            or not all(exps)
            or {*map(type, itertools.chain.from_iterable(exps))} != {int}):
        return None
    inner = pad + "  "
    item = inner + "  "
    entry = item + "  "
    row_open = "[\n" + item + "[\n" + entry
    row_close = "\n" + inner + "]"
    exp_texts = map((",\n" + entry).join,
                    map(map, itertools.repeat(int.__repr__), exps))
    rows_text = map(("\n" + item + "],\n" + item).join,
                    zip(exp_texts, map(_SCALARS[str], coeffs)))
    return ("[\n" + inner + row_open
            + (row_close + ",\n" + inner + row_open).join(rows_text)
            + row_close + "\n" + pad + "]")


def dumps_report(report: dict) -> str:
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``
    for a tree of exact built-in types with str keys; any other type raises
    TypeError.  json's indent runs its pure-Python encoder, and this writer
    joins each list of one scalar type in a single call and writes each
    list of term rows ``[[int, ...], str]`` without a Python frame per
    row."""
    out: list = []
    _write_json(report, "", out)
    out.append("\n")
    return "".join(out)


DEMO_PANEL = (
    {"n": 2, "gamma": {"kind": "translation", "basis": [[2]]}},
    {"n": 2, "gamma": {"kind": "translation", "basis": [[4]]}},
    {"n": 3, "gamma": {"kind": "translation", "basis": [[1, 0], [-1, 3]]}},
    {"n": 3, "gamma": {"kind": "translation", "basis": [[3, 0], [0, 3]]}},
    {"n": 4, "gamma": {"kind": "translation",
                       "basis": [[1, 0, 1], [-1, 1, 1], [0, -1, 2]]}},
    {"n": 3, "gamma": {"kind": "affine", "lattice": [[3, 0], [0, 3]],
                       "perms": [[1, 2, 0]]}, "maxDegree": 4},
)


def demo_suite(*, perturb: Optional[Tuple[int, int, int, int]] = None,
               max_degree: int = 12) -> Tuple[int, dict]:
    """Run the built-in panel with every applicable check.

    ``perturb`` injects a unit perturbation into one adjacency entry of each
    translation panel member (negative control; the run must then fail).
    """
    members = []
    worst = 0
    for base in DEMO_PANEL:
        obj = dict(base)
        obj.setdefault("maxDegree", max_degree)
        obj["checks"] = "all"
        if perturb is not None and obj["gamma"]["kind"] == "translation":
            obj["perturb"] = {"type": perturb[0], "row": perturb[1],
                              "col": perturb[2], "delta": perturb[3]}
        cfg = RunConfig.from_json_obj(obj)
        code, report = run_config(cfg)
        worst = max(worst, code)
        members.append(report)
    overall = {"panel": members, "pass": all(m["pass"] for m in members)}
    return worst, overall


class _Unusable(Exception):
    """A command-line input that cannot be used; main exits 2 with the
    message."""


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    # ValueError covers undecodable bytes and malformed JSON, RecursionError
    # deeply nested JSON
    except (OSError, ValueError, RecursionError) as exc:
        raise _Unusable(f"cannot read config {path}: {exc}") from None
    try:
        return RunConfig.from_json_obj(obj)
    except ConfigError as exc:
        raise _Unusable(f"invalid config: {exc}") from None


def _open_out(path: Optional[str]):
    """The --out file opened for writing, before any work, or None."""
    if path is None:
        return None
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or exc
        raise _Unusable(f"cannot write --out {path}: {reason}") from None


def _emit(out, payload: str) -> None:
    """Write the payload to the --out file, or print it when there is none."""
    if out is None:
        print(payload, end="")
    else:
        out.write(payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # imported here, so that importing latzeta.cli for run_config does not
    # pay for it
    import argparse

    parser = argparse.ArgumentParser(
        prog="latzeta",
        description="zeta functions of abelian quotient Cayley graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run checks from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--format", choices=("json", "text"), default="text")

    p_demo = sub.add_parser("demo", help="run the built-in panel")
    p_demo.add_argument("--out")
    p_demo.add_argument("--format", choices=("json", "text"), default="text")
    p_demo.add_argument("--negative-control", action="store_true",
                        help="inject a unit adjacency perturbation; the run "
                             "is then expected to fail")

    p_export = sub.add_parser("export-graph",
                              help="write the quotient graph edge list")
    p_export.add_argument("--config", required=True)
    p_export.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        cfg = None if args.command == "demo" else _load_config(args.config)
        if args.command == "export-graph" and cfg.gamma_kind != "translation":
            raise _Unusable("invalid config: config field 'gamma.kind': "
                            "export-graph writes the graph of a translation "
                            "subgroup only")
        out = _open_out(args.out)
    except _Unusable as exc:
        print(exc, file=sys.stderr)
        return 2

    with out if out is not None else contextlib.nullcontext():
        if args.command == "export-graph":
            try:
                text = export_edge_list(_Lazy(cfg).graph)
            except ResourceCapError as exc:
                print(f"resource cap: {exc}", file=sys.stderr)
                return 3
            _emit(out, text)
            return 0
        if args.command == "run":
            code, report = run_config(cfg)
            summary = _format_text(report)
        else:
            code, report = demo_suite(
                perturb=(1, 0, 0, 1) if args.negative_control else None)
            verdict = "PASS" if report["pass"] else "FAIL"
            summary = "\n".join([*map(_format_text, report["panel"]),
                                 f"panel: {verdict}"])
        # the report is serialized only when something writes it
        if out is not None or args.format == "json":
            _emit(out, dumps_report(report))
        if out is not None or args.format == "text":
            print(summary)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
