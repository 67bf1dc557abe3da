"""Batch front end: parse a JSON config, run the requested checks, emit a
machine-readable report plus a human summary.

Exit codes: 0 all requested verifications pass, 1 a verification failed,
2 invalid configuration, 3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ResourceCapError
from .cayley import (
    QuotientGraph,
    build_graph,
    export_edge_list,
    perturb_adjacency,
    typed_adjacency,
)
from .intmat import det_bareiss
from .lattice import (
    AffineElement,
    GEODESIC,
    FACTORIAL,
    LatticeVector,
    Permutation,
    length_vector,
)
from .polynomials import IntPolynomial, MultiSeries
from .quotient import AffineSubgroup, TranslationSubgroup, characters, quotient_group
from .selberg import (
    affine_conjugacy_classes,
    comparison_check,
    selberg_rational_translation,
    selberg_series_translation,
)
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

TRANSLATION_CHECKS = (
    "positive_zeta",
    "lfunction",
    "ihara",
    "geodesic_oracle",
    "selberg_series",
    "selberg_rational",
    "comparison",
    "invariants",
)
AFFINE_CHECKS = ("selberg_series",)


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _is_int(x) -> bool:
    # JSON true/false parse as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_perturb(p, n: int, basis) -> Tuple[int, int, int, int]:
    """(type, row, col, delta), range-checked against n and, for a
    translation subgroup, its number of vertices |det basis|."""
    if not isinstance(p, dict):
        raise ConfigError("perturb", "must be an object with integer "
                          "type/row/col")
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
    size = abs(det_bareiss(basis)) if basis is not None else 0
    if size:
        for key, x in (("row", row), ("col", col)):
            if not 0 <= x < size:
                raise ConfigError(f"perturb.{key}", f"must be in 0..{size - 1}"
                                  f" (the quotient has {size} vertices)")
        # the typed adjacency matrices are int64, and their entries are at
        # most binom(n, n//2) before the perturbation; the invariants check
        # multiplies two of them and sums rows, which stays below
        # N * (|delta| + binom(n, n//2))^2
        if size * (abs(delta) + math.comb(n, n // 2)) ** 2 >= 2 ** 63:
            raise ConfigError("perturb.delta", f"|delta| = {abs(delta)} "
                              f"overflows the int64 adjacency products on "
                              f"{size} vertices")
    return tuple(values)


@dataclass
class RunConfig:
    n: int
    gamma_kind: str
    basis: Tuple[Tuple[int, ...], ...]
    perms: Tuple[Tuple[int, ...], ...] = ()
    max_degree: int = 12
    scale: str = GEODESIC
    tolerance: float = 1e-9
    checks: Tuple[str, ...] = TRANSLATION_CHECKS
    max_vertices: int = 4096
    acknowledge_large: bool = False
    perturb: Optional[Tuple[int, int, int, int]] = None

    @classmethod
    def from_json_obj(cls, obj) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("<root>", "config must be a JSON object")
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
            _subgroup(n, kind, basis, perms)
        except ValueError as exc:
            raise ConfigError(f"gamma.{basis_key}", str(exc)) from None
        max_degree = obj.get("maxDegree", 12)
        if not _is_int(max_degree) or max_degree < 0:
            raise ConfigError("maxDegree", "must be an integer >= 0")
        scale = obj.get("scale", GEODESIC)
        if scale not in (GEODESIC, FACTORIAL):
            raise ConfigError("scale", "must be 'geodesic' or 'factorial'")
        tolerance = obj.get("tolerance", 1e-9)
        # NaN would pass every deviation test, true would read as 1.0, and
        # an integer above the largest float would not convert
        if (isinstance(tolerance, bool)
                or not isinstance(tolerance, (int, float))
                or not 0 < tolerance <= sys.float_info.max):
            raise ConfigError("tolerance", "must be a finite positive number")
        allowed = tuple(_CHECKS[kind])
        checks = obj.get("checks", "all")
        if checks == "all":
            checks = list(allowed)
        if not isinstance(checks, list):
            raise ConfigError("checks", "must be a list or 'all'")
        for c in checks:
            if c not in allowed:
                raise ConfigError(
                    "checks", f"{c!r} is not valid for a {kind} subgroup "
                    f"(allowed: {', '.join(allowed)})")
        caps = obj.get("caps", {})
        if not isinstance(caps, dict):
            raise ConfigError("caps", "must be an object")
        max_vertices = caps.get("maxVertices", 4096)
        if not _is_int(max_vertices) or max_vertices < 1:
            raise ConfigError("caps.maxVertices", "must be an integer >= 1")
        acknowledge = caps.get("acknowledgeLarge", False)
        if not isinstance(acknowledge, bool):
            raise ConfigError("caps.acknowledgeLarge", "must be true or false")
        if max_vertices > 4096 and not acknowledge:
            raise ConfigError("caps.maxVertices",
                              "raising the cap requires acknowledgeLarge=true")
        perturb = None
        if "perturb" in obj:
            perturb = _parse_perturb(obj["perturb"], n,
                                     basis if kind == "translation" else None)
        return cls(
            n=n, gamma_kind=kind,
            basis=tuple(tuple(r) for r in basis),
            perms=perms, max_degree=max_degree, scale=scale,
            tolerance=float(tolerance), checks=tuple(checks),
            max_vertices=max_vertices, acknowledge_large=acknowledge,
            perturb=perturb,
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
            "tolerance": self.tolerance,
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
        self.gamma = _subgroup(cfg.n, cfg.gamma_kind, cfg.basis, cfg.perms)
        self._graph = None
        self._det = None
        self._series = {}

    @property
    def graph(self) -> QuotientGraph:
        if self._graph is None:
            g = build_graph(self.gamma, max_vertices=self.cfg.max_vertices)
            if self.cfg.perturb is not None:
                t, r, c, d = self.cfg.perturb
                g = perturb_adjacency(g, t, r, c, d)
            self._graph = g
        return self._graph

    @property
    def det_poly(self) -> IntPolynomial:
        if self._det is None:
            self._det = zeta_positive_det(self.graph)
        return self._det

    def selberg_series(self, max_deg: int, scale: str) -> MultiSeries:
        # from the subgroup, never the graph, so a perturbation leaves it be
        key = (max_deg, scale)
        if key not in self._series:
            self._series[key] = selberg_series_translation(
                self.gamma, max_deg, scale)
        return self._series[key]


def _first_difference(left: IntPolynomial, right: IntPolynomial):
    """None, or the lowest degree where the two polynomials differ with
    both coefficients there, as decimal strings like the coefficient lists."""
    for i in range(max(left.degree, right.degree) + 1):
        a, b = left.coefficient(i), right.coefficient(i)
        if a != b:
            return {"index": i, "left": str(a), "right": str(b)}
    return None


def _check_positive_zeta(lazy: _Lazy, cfg: RunConfig):
    det = lazy.det_poly
    orders = zeta_positive_orders(lazy.gamma)
    ok = det == orders
    return ok, {
        "determinant": det.to_json_coeffs(),
        "orders_product": orders.to_json_coeffs(),
        "equal": ok,
        "first_difference": _first_difference(det, orders),
    }


def _check_lfunction(lazy: _Lazy, cfg: RunConfig):
    poly, dev = lfunction_with_deviation(lazy.gamma, cfg.tolerance)
    ok = poly == lazy.det_poly
    return ok, {
        "lfunction": poly.to_json_coeffs(),
        "rounding_deviation": dev,
        "equals_determinant": ok,
        "first_difference": _first_difference(poly, lazy.det_poly),
    }


def _check_ihara(lazy: _Lazy, cfg: RunConfig):
    numerator, chi = ihara_bass(lazy.graph)
    result = {
        "numerator": numerator.to_json_coeffs(),
        "euler_characteristic": chi,
        "zeta_series_positive_exponent":
            ihara_zeta_series(numerator, chi, cfg.max_degree).to_json_coeffs(),
        "zeta_series_negative_exponent": None,
        "oracle": "skipped",
    }
    if chi <= 0:
        # the opposite exponent-sign convention, for the record
        alt = numerator.mul_truncated(
            IntPolynomial.one_minus_power(2, -chi).series_inverse(cfg.max_degree)
            if chi < 0 else IntPolynomial.one(), cfg.max_degree)
        result["zeta_series_negative_exponent"] = alt.to_json_coeffs()
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
    classes = enumerate_positive_geodesics(lazy.graph, cfg.max_degree)
    product = euler_product_truncation(classes, cfg.max_degree)
    expected = lazy.det_poly.truncate(cfg.max_degree)
    orders = direction_orders(lazy.gamma)
    n_vertices = lazy.graph.num_vertices
    counts_ok = True
    for i, m in enumerate(orders, start=1):
        if m <= cfg.max_degree:
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
    series = lazy.selberg_series(cfg.max_degree, cfg.scale)
    expected_constant = lazy.gamma.index * math.factorial(cfg.n)
    ok = series.get((0,) * (cfg.n - 1)) == expected_constant
    return ok, {
        "series": series.to_json_obj(),
        "identity_weight": expected_constant,
        "constant_term_matches_index": ok,
    }


def _check_selberg_rational(lazy: _Lazy, cfg: RunConfig):
    rational = selberg_rational_translation(lazy.gamma, cfg.scale)
    series = lazy.selberg_series(cfg.max_degree, cfg.scale)
    expansion = rational.expand(cfg.max_degree)
    series_ok = expansion == series
    poles_ok = True
    worst = 0.0
    for factor in rational.denominator_factors():
        j0 = next(i for i, x in enumerate(factor) if x)
        for k in range(1, factor[j0] + 1):
            point = [1.0 + 0j] * (cfg.n - 1)
            point[j0] = np.exp(2j * np.pi * k / factor[j0])
            value = 1 - np.prod([p ** e for p, e in zip(point, factor)])
            worst = max(worst, abs(value),
                        max(abs(abs(p) - 1.0) for p in point))
    poles_ok = worst <= 1e-9
    ok = series_ok and poles_ok
    return ok, {
        "rational": rational.to_json_obj(),
        "expansion_matches_series": series_ok,
        "pole_modulus_deviation": worst,
    }


def _check_comparison(lazy: _Lazy, cfg: RunConfig):
    # the identity concerns the subgroup, so a perturbed graph's determinant
    # is not the one to compare against; comparison_check then builds its own
    zeta = lazy.det_poly if cfg.perturb is None else None
    max_deg = max(cfg.max_degree, 1)
    report = comparison_check(lazy.gamma, max_deg, zeta=zeta,
                              series=lazy.selberg_series(max_deg, GEODESIC))
    return report.corrected_equal, report.to_json_obj()


def _check_invariants(lazy: _Lazy, cfg: RunConfig):
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
    # length invariance and integrality
    conj_ok = True
    integral_ok = True
    for _ in range(100):
        raw = [rng.randint(-10, 10) for _ in range(n)]
        v = LatticeVector.from_raw(raw)
        p = Permutation(tuple(rng.sample(range(n), n)))
        elem = AffineElement(v, p)
        hraw = [rng.randint(-10, 10) for _ in range(n)]
        h = AffineElement(LatticeVector.from_raw(hraw),
                          Permutation(tuple(rng.sample(range(n), n))))
        conj_ok = conj_ok and (length_vector(elem.conjugate_by(h), cfg.scale)
                               == length_vector(elem, cfg.scale))
        integral_ok = integral_ok and length_vector(elem, FACTORIAL).is_integral()
    results["length_conjugation_invariance"] = conj_ok
    results["length_factorial_integrality"] = integral_ok
    # character identities
    q = quotient_group(lazy.gamma)
    satake_ok = True
    hom_ok = True
    chars = characters(q)
    results["character_count_equals_order"] = len(chars) == q.order
    for chi in chars:
        if sum(chi.satake_turns(q)).denominator != 1:
            satake_ok = False
    for _ in range(50):
        chi = rng.choice(chars)
        a = tuple(rng.randrange(d) for d in q.divisors)
        b = tuple(rng.randrange(d) for d in q.divisors)
        if (chi.turn(q.add(a, b)) - chi.turn(a) - chi.turn(b)) % 1 != 0:
            hom_ok = False
    results["satake_product_is_one"] = satake_ok
    results["character_homomorphism"] = hom_ok
    ok = all(v for v in results.values() if isinstance(v, bool))
    return ok, results


def _check_affine_selberg_series(lazy: _Lazy, cfg: RunConfig):
    gamma = lazy.gamma
    classes = affine_conjugacy_classes(gamma, cfg.max_degree, cfg.scale)
    series = MultiSeries(cfg.n - 1, cfg.max_degree)
    for cls in classes:
        series.add_term(cls.lengths.exponent_tuple(), cls.weight)
    identity = AffineElement.identity(cfg.n)
    id_weight = next(
        (c.weight for c in classes if c.representative == identity), None)
    ok = id_weight == gamma.index_in_affine_group
    return ok, {
        "series": series.to_json_obj(),
        "identity_class_weight": id_weight,
        "group_index": gamma.index_in_affine_group,
    }


# subgroup kind -> check name -> check; TRANSLATION_CHECKS and AFFINE_CHECKS
# list the same names in the same order
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


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True,
                      default=_json_default) + "\n"


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


def main(argv: Optional[Sequence[str]] = None) -> int:
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

    if args.command == "run":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            cfg = RunConfig.from_json_obj(obj)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        code, report = run_config(cfg)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dumps_report(report))
        if args.format == "json" and not args.out:
            print(dumps_report(report), end="")
        else:
            print(_format_text(report))
        return code

    if args.command == "demo":
        perturb = (1, 0, 0, 1) if args.negative_control else None
        code, report = demo_suite(perturb=perturb)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dumps_report(report))
        if args.format == "json" and not args.out:
            print(dumps_report(report), end="")
        else:
            for member in report["panel"]:
                print(_format_text(member))
            print(f"panel: {'PASS' if report['pass'] else 'FAIL'}")
        return code

    if args.command == "export-graph":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            cfg = RunConfig.from_json_obj(obj)
            gamma = TranslationSubgroup(cfg.n, cfg.basis)
            graph = build_graph(gamma, max_vertices=cfg.max_vertices)
        except (OSError, json.JSONDecodeError, ConfigError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        except ResourceCapError as exc:
            print(f"resource cap: {exc}", file=sys.stderr)
            return 3
        text = export_edge_list(graph)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
