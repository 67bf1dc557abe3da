"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

import numpy as np
import pytest

from latzeta.cayley import build_graph, perturb_adjacency
from latzeta.cli import RunConfig, run_config
from latzeta.lattice import (
    AffineElement,
    FACTORIAL,
    GEODESIC,
    LatticeVector,
    Permutation,
    all_faces,
    cone_decompose,
    length_vector,
)
from latzeta.quotient import TranslationSubgroup
from latzeta.selberg import (
    comparison_check,
    selberg_rational_translation,
    selberg_series_translation,
)
from latzeta.zeta import (
    backtrackless_euler_truncation,
    direction_orders,
    enumerate_backtrackless_cycles,
    enumerate_positive_geodesics,
    euler_product_truncation,
    ihara_bass,
    ihara_zeta_series,
    lfunction_with_deviation,
    zeta_positive_det,
    zeta_positive_orders,
)

# translation panel: 15 type-zero subgroups spanning n = 2, 3, 4 with N <= 100
PANEL = [
    (2, [[2]]),
    (2, [[4]]),
    (2, [[6]]),
    (2, [[10]]),
    (2, [[40]]),
    (2, [[100]]),
    (3, [[1, 0], [-1, 3]]),
    (3, [[2, 1], [1, 2]]),
    (3, [[3, 0], [0, 3]]),
    (3, [[3, 0], [0, 6]]),
    (3, [[9, 0], [0, 3]]),
    (3, [[6, 0], [0, 6]]),
    (4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]]),
    (4, [[2, 0, 1], [-2, 2, 1], [0, -2, 2]]),
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]]),
]


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {name}: {detail}", flush=True)


@pytest.fixture(scope="module")
def panel():
    """Graphs, determinant and orders polynomials for the whole panel, with
    the wall time of the two zeta routes."""
    entries = []
    t0 = time.monotonic()
    for n, basis in PANEL:
        gamma = TranslationSubgroup(n, basis)
        graph = build_graph(gamma)
        det = zeta_positive_det(graph)
        orders = zeta_positive_orders(gamma)
        entries.append({"gamma": gamma, "graph": graph, "det": det,
                        "orders": orders})
    elapsed = time.monotonic() - t0
    return {"entries": entries, "det_orders_seconds": elapsed}


def test_criterion_1_determinant_equals_orders(panel):
    entries = panel["entries"]
    assert len(entries) >= 10
    assert {e["gamma"].n for e in entries} == {2, 3, 4}
    assert all(e["gamma"].index <= 100 for e in entries)
    ok = all(e["det"] == e["orders"] for e in entries)
    elapsed = panel["det_orders_seconds"]
    report_line(1, "determinant equals orders product", ok and elapsed < 60,
                f"{len(entries)} groups, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60


def test_criterion_2_lfunction_matches(panel):
    ok = all(lfunction_with_deviation(e["gamma"]) == e["det"]
             for e in panel["entries"])
    report_line(2, "character L-function matches", ok,
                f"{len(panel['entries'])} groups, exact modulo primes")
    assert ok


def test_criterion_3_geodesic_euler_product(panel):
    ok = True
    total_classes = 0
    for e in panel["entries"]:
        graph, det, gamma = e["graph"], e["det"], e["gamma"]
        classes = enumerate_positive_geodesics(graph, 12)
        total_classes += len(classes)
        ok = ok and euler_product_truncation(classes, 12) == det.truncate(12)
        for i, m in enumerate(direction_orders(gamma), start=1):
            if m <= 12:
                count = sum(1 for c in classes if c.direction == i)
                ok = ok and count == gamma.index // m
    report_line(3, "positive-geodesic Euler product to degree 12", ok,
                f"{total_classes} primitive classes across the panel")
    assert ok


def test_criterion_4_bass_ihara_on_simple_quotients():
    cases = [(2, [[m]]) for m in range(4, 11)] + [(3, [[5, 0], [0, 5]])]
    ok = True
    for n, basis in cases:
        gamma = TranslationSubgroup(n, basis, check_types=False)
        graph = build_graph(gamma)
        assert graph.is_simple()
        numerator, chi = ihara_bass(graph)
        ok = ok and chi == gamma.index * (2 - 2 ** (n - 1))
        classes = enumerate_backtrackless_cycles(graph, 8)
        ok = ok and (backtrackless_euler_truncation(classes, 8)
                     == ihara_zeta_series(numerator, chi, 8))
    report_line(4, "Bass determinant matches cycle enumeration to degree 8",
                ok, f"{len(cases)} simple quotients")
    assert ok


def test_criterion_5_selberg_rationality(panel):
    ok_series = True
    worst_pole = 0.0
    for e in panel["entries"]:
        gamma = e["gamma"]
        rational = selberg_rational_translation(gamma)
        series = selberg_series_translation(gamma, 20)
        ok_series = ok_series and rational.expand(20) == series
        for factor in rational.denominator_factors():
            j0 = next(i for i, x in enumerate(factor) if x)
            for k in range(1, factor[j0] + 1):
                point = [1.0 + 0j] * (gamma.n - 1)
                point[j0] = np.exp(2j * np.pi * k / factor[j0])
                residual = abs(1 - np.prod(
                    [p ** x for p, x in zip(point, factor)]))
                off_circle = max(abs(abs(p) - 1.0) for p in point)
                worst_pole = max(worst_pole, residual, off_circle)
    ok = ok_series and worst_pole <= 1e-9
    report_line(5, "Selberg rational form (degree 20, poles on the circle)",
                ok, f"pole deviation {worst_pole:.2e}")
    assert ok_series
    assert worst_pole <= 1e-9


def test_criterion_6_comparison_identity(panel):
    ok = True
    literal_discrepancies = 0
    for e in panel["entries"]:
        report = comparison_check(
            e["gamma"], 24, zeta=e["det"],
            series=selberg_series_translation(e["gamma"], 24, GEODESIC))
        ok = ok and report.corrected_equal
        # the literal form is evaluated and its discrepancy recorded
        assert report.rhs_literal is not None
        if not report.literal_equal:
            literal_discrepancies += 1
    report_line(6, "comparison identity to degree 24 (corrected form)", ok,
                f"literal form differs on {literal_discrepancies} groups")
    assert ok


def test_criterion_7_length_function_suite():
    rng = random.Random(20260810)
    conj_ok = True
    integral_ok = True
    for _ in range(1000):
        n = rng.randint(2, 5)
        v = LatticeVector.from_raw([rng.randint(-10, 10) for _ in range(n)])
        p = Permutation(tuple(rng.sample(range(n), n)))
        g = AffineElement(v, p)
        w = LatticeVector.from_raw([rng.randint(-10, 10) for _ in range(n)])
        q = Permutation(tuple(rng.sample(range(n), n)))
        h = AffineElement(w, q)
        conj_ok = conj_ok and (length_vector(g.conjugate_by(h), GEODESIC)
                               == length_vector(g, GEODESIC))
        g2 = AffineElement(
            LatticeVector.from_raw([rng.randint(-10, 10) for _ in range(n)]),
            Permutation(tuple(rng.sample(range(n), n))))
        integral_ok = integral_ok and length_vector(g2, FACTORIAL).is_integral()
    ok = conj_ok and integral_ok
    report_line(7, "length functions (1000 conjugations, 1000 integrality)",
                ok, f"conjugation={conj_ok} integrality={integral_ok}")
    assert ok


def _cone_points_box(k, box):
    out = set()
    for t in itertools.product(range(box + 1), repeat=k):
        if all(t[i] > t[i + 1] for i in range(k - 1)) and t[-1] > 0:
            out.add(t)
    return out


def _generated_points_box(dec, box):
    k = len(dec.generators)
    seen = {}
    duplicates = 0
    for base in dec.base_points:
        frontier = [base]
        visited = {base}
        while frontier:
            point = frontier.pop()
            if point in seen:
                duplicates += 1
            seen[point] = True
            for g in dec.generators:
                nxt = tuple(a + b for a, b in zip(point, g))
                if max(nxt, default=0) <= box and nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)
    return set(seen), duplicates


def test_criterion_8_cone_decomposition_bijectivity():
    box = 12
    faces_checked = 0
    ok = True
    for n in (2, 3, 4):
        for face in all_faces(n):
            if face.dim == 0:
                continue
            dec = cone_decompose(face)
            generated, duplicates = _generated_points_box(dec, box)
            expected = _cone_points_box(face.dim, box)
            inside = {p for p in generated if max(p) <= box}
            ok = ok and duplicates == 0 and inside == expected
            faces_checked += 1
    report_line(8, f"cone decompositions bijective on [0,{box}]^k boxes", ok,
                f"{faces_checked} faces, n <= 4")
    assert ok


def test_criterion_9_negative_control():
    # every single adjacency entry perturbation must change the determinant,
    # which breaks criteria 1 (orders), 2 (L-function), and 3 (enumeration)
    targets = [TranslationSubgroup(2, [[4]]),
               TranslationSubgroup(3, [[1, 0], [-1, 3]])]
    entries_checked = 0
    ok = True
    for gamma in targets:
        graph = build_graph(gamma)
        det = zeta_positive_det(graph)
        orders = zeta_positive_orders(gamma)
        size = graph.num_vertices
        for t in range(1, gamma.n):
            for r in range(size):
                for c in range(size):
                    perturbed = perturb_adjacency(graph, t, r, c, 1)
                    det_p = zeta_positive_det(perturbed)
                    ok = ok and det_p != det and det_p != orders
                    entries_checked += 1

    # full three-way breakage on one perturbed graph
    gamma = targets[0]
    graph = perturb_adjacency(build_graph(gamma), 1, 0, 1, 1)
    det_p = zeta_positive_det(graph)
    lf = lfunction_with_deviation(gamma)
    classes = enumerate_positive_geodesics(graph, 12)
    ok = ok and det_p != zeta_positive_orders(gamma)
    ok = ok and det_p != lf
    ok = ok and euler_product_truncation(classes, 12) != det_p.truncate(12)

    # and the CLI reports it as a failed verification (exit code 1)
    cfg = RunConfig.from_json_obj({
        "n": 2, "gamma": {"kind": "translation", "basis": [[4]]},
        "maxDegree": 8,
        "checks": ["positive_zeta", "lfunction", "geodesic_oracle"],
        "perturb": {"type": 1, "row": 0, "col": 1, "delta": 1},
    })
    code, report = run_config(cfg)
    ok = ok and code == 1 and report["pass"] is False
    report_line(9, "negative control (perturbed adjacency breaks 1-3)", ok,
                f"{entries_checked} single-entry perturbations, CLI exit {code}")
    assert ok
