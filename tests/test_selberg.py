import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latzeta import cli, lattice, selberg
from latzeta.cayley import build_graph
from latzeta.cli import RunConfig, main, run_config
from latzeta.errors import BoxExhaustionError, ResourceCapError
from latzeta.intmat import hnf_columns, mat_mul, mat_vec
from latzeta.lattice import (
    AffineElement,
    FACTORIAL,
    GEODESIC,
    LatticeVector,
    Permutation,
    all_permutations,
    cone_decompose,
    edge_multiples,
    length_vector,
    scale_factor,
)
from latzeta.polynomials import (IntPolynomial, MultiRational, MultiSeries,
                                 norm_exponent)
from latzeta.quotient import AffineSubgroup, TranslationSubgroup
from latzeta.selberg import (
    PeriodTable,
    affine_conjugacy_classes,
    comparison_check,
    selberg_identity,
    selberg_rational_translation,
    selberg_series_translation,
)
from latzeta.zeta import zeta_positive_det, zeta_positive_orders
import _oracles
from _oracles import (adjugate_membership, brute_force_translation_series,
                      class_list, combine, cube_coefficients, denominator_factors,
                      element_from_coords,
                      face_groups, find_conjugator,
                      fraction_free_coordinate_bounds,
                      naive_affine_classes, per_permutation_class_weights,
                      per_permutation_images, per_permutation_rational,
                      perm_from_cycles, periodic_extension, piece_dicts,
                      random_type_zero_subgroup, rational_from_pieces,
                      scan_translation_series,
                      series_from_json, series_log_derivative,
                      table_from_terms, table_terms)
from perfbench.workloads import (
    PANELS,
    _N4_N32,
    transform_columns,
    unimodular,
)


def test_series_translation_constant_term():
    for gam in [TranslationSubgroup(2, [[2]]),
                TranslationSubgroup(3, [[3, 0], [0, 3]]),
                TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]])]:
        s = selberg_series_translation(gam, 0)
        zero = (0,) * (gam.n - 1)
        assert table_terms(s) == {zero: gam.index * math.factorial(gam.n)}


def test_series_translation_n2_example():
    gam = TranslationSubgroup(2, [[2]])
    s = scan_translation_series(gam, 8)
    assert dict(s.terms) == {(0,): 4, (2,): 4, (4,): 4, (6,): 4, (8,): 4}
    # one period cell of two, period 2
    table = selberg_series_translation(gam, 8)
    assert (table.nvars, table.factor, table.divisor, table.size) == (
        1, 1, 2, 2)
    assert table_terms(table) == {(0,): 4}
    assert table.period == 2 and table.complete
    assert periodic_extension(table, 8) == s


def test_series_translation_index3_example():
    gam = TranslationSubgroup(3, [[1, 0], [-1, 3]])
    assert scan_translation_series(gam, 6).get((3, 0)) == 18
    # (3, 0) is the cell (0, 0) of the period 3
    assert table_terms(selberg_series_translation(gam, 6))[(0, 0)] == 18


def test_series_translation_matches_brute_force():
    cases = [
        (TranslationSubgroup(2, [[4]]), 8),
        (TranslationSubgroup(3, [[1, 0], [-1, 3]]), 8),
        (TranslationSubgroup(3, [[3, 0], [0, 6]]), 8),
        (TranslationSubgroup(4, [[2, 0, 1], [-2, 2, 1], [0, -2, 2]]), 8),
        (TranslationSubgroup(5, [[1, 0, 0, 1], [-1, 1, 0, 1], [0, -1, 1, 1],
                                 [0, 0, -1, 2]]), 6),
        (TranslationSubgroup(5, [[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0],
                                 [0, 0, 0, 5]]), 10),
        (TranslationSubgroup(5, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1],
                                 [0, 0, -1, 1]], check_types=False), 5),
    ]
    for gam, max_deg in cases:
        f = math.factorial(gam.n)
        # the geodesic scale; max_deg = 0; the factorial scale with span 2;
        # and the factorial scale with span 0 (max_deg < n!)
        for deg, scale in [(max_deg, GEODESIC), (0, GEODESIC),
                           (2 * f + 1, FACTORIAL), (f - 1, FACTORIAL)]:
            expected = brute_force_translation_series(gam, deg, scale)
            assert scan_translation_series(gam, deg, scale) == expected
            assert periodic_extension(selberg_series_translation(
                gam, deg, scale), deg) == expected


def test_series_translation_matches_brute_force_on_transformed_bases():
    # the benchmark's translation bases, rewritten by unimodular column
    # transforms: the subgroup, and so the series, must not change; at the
    # panel degree (too deep for brute force) the series is checked against
    # the expansion of the cone-sum rational form
    degree = {3: 24, 4: 10, 5: 6}
    rng = random.Random(43)
    bases = [m["config"] for m in PANELS["selberg_deep"]
             if m["config"]["gamma"]["kind"] == "translation"]
    for cfg in bases:
        n, deep = cfg["n"], cfg["maxDegree"]
        written = TranslationSubgroup(n, cfg["gamma"]["basis"])
        expected = brute_force_translation_series(written, degree[n])
        expected_deep = selberg_rational_translation(written).expand(deep)
        for _ in range(3):
            basis = transform_columns(cfg["gamma"]["basis"],
                                      unimodular(n - 1, rng))
            gam = TranslationSubgroup(n, basis)
            assert scan_translation_series(gam, degree[n]) == expected
            assert scan_translation_series(gam, deep) == expected_deep
            assert periodic_extension(selberg_series_translation(
                gam, deep), deep) == expected_deep


# the largest (span+1)^(n-1) sub-grid the equivalence tests let the scan
# allocate
_SCAN_CELLS = 1 << 17


def _equivalence_subgroups():
    """Six seeded subgroups for each n = 2..6, small enough that the scan
    reaches past f (n-1)(D-1): of type zero up to n = 5, and of any type
    at n = 6, where type zero forces D >= 6 and a sub-grid of 27^5."""
    rng = random.Random(2032)
    out = []
    for n in range(2, 7):
        found = 0
        while found < 6:
            if n < 6:
                gam = random_type_zero_subgroup(
                    rng, n, bound={2: 12, 3: 6, 4: 3, 5: 2}[n])
            else:
                basis = [[rng.randint(-1, 1) for _ in range(n - 1)]
                         for _ in range(n - 1)]
                if np.linalg.matrix_rank(np.array(basis)) < n - 1:
                    continue
                gam = TranslationSubgroup(n, basis, check_types=False)
            # the sub-grid at f ((n-1)(D-1) + 1) + 1
            top = (n - 1) * (gam.image.diag[-1] - 1) + 3
            if top ** (n - 1) <= _SCAN_CELLS and gam.index > 1:
                out.append(gam)
                found += 1
    return out


def _assert_table_extends_to_the_scan(gam, spans, scales=(GEODESIC,
                                                           FACTORIAL)):
    """The periodic extension of the table equals the scan at each degree
    f s - 1, f s and f s + 1 whose sub-grid fits; returns the degrees
    compared at each scale."""
    compared = {}
    for scale in scales:
        f = lattice.scale_factor(gam.n, scale)
        compared[scale] = []
        for deg in sorted({d for s in spans for d in (f * s - 1, f * s,
                                                      f * s + 1) if d >= 0}):
            if (deg // f + 1) ** (gam.n - 1) > _SCAN_CELLS:
                continue
            table = selberg_series_translation(gam, deg, scale)
            assert table.size == min(table.divisor, deg // f + 1)
            assert periodic_extension(table, deg) == scan_translation_series(
                gam, deg, scale), (gam.basis, deg, scale)
            compared[scale].append(deg)
    return compared


def test_table_extends_to_the_scan_on_seeded_subgroups():
    # below, at and above f (D-1), where the table becomes complete, and
    # f (n-1)(D-1), the degree of the cell's far corner, at both scales
    gammas = _equivalence_subgroups()
    assert len(gammas) == 30
    for gam in gammas:
        n, d = gam.n, gam.image.diag[-1]
        compared = _assert_table_extends_to_the_scan(
            gam, (d - 1, d, (n - 1) * (d - 1), (n - 1) * (d - 1) + 1))
        for scale, degrees in compared.items():
            f = lattice.scale_factor(n, scale)
            assert f * (d - 1) - 1 in degrees
            assert f * ((n - 1) * (d - 1) + 1) + 1 in degrees


def test_table_extends_to_the_scan_on_the_panels():
    configs = {(m["config"]["n"], tuple(map(tuple,
                                            m["config"]["gamma"]["basis"])),
                m["config"]["maxDegree"])
               for panel in PANELS.values() for m in panel
               if m["config"]["gamma"]["kind"] == "translation"}
    assert len(configs) == 11
    for n, basis, max_degree in sorted(configs):
        gam = TranslationSubgroup(n, basis)
        d = gam.image.diag[-1]
        compared = _assert_table_extends_to_the_scan(
            gam, (max_degree, d - 1, d), (GEODESIC,))
        assert max_degree in compared[GEODESIC]


def test_series_translation_adds_one_term_per_sorted_pattern(monkeypatch):
    gam = TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]])
    max_deg = 9
    contains = adjugate_membership(gam)
    members = [p for p in itertools.product(range(max_deg + 1), repeat=4)
               if min(p) == 0 and contains([p[i] - p[-1] for i in range(3)])]
    patterns = {tuple(sorted(p)) for p in members}
    calls = []
    original = MultiSeries.add_term
    monkeypatch.setattr(MultiSeries, "add_term",
                        lambda self, exp, coeff: (calls.append(exp),
                                                  original(self, exp, coeff)))
    series = scan_translation_series(gam, max_deg)
    # the terms are built in bulk, one per pattern, with no add_term call
    assert calls == []
    assert len(series.terms) == len(patterns) < len(members)
    assert series == brute_force_translation_series(gam, max_deg)


def test_series_translation_n2_deep_slab_blocks():
    # at n = 2 every slab x_1 > 0 has one floor cell, so the slabs run in
    # blocks of many slabs; 100,000 slabs against the closed form
    gam = TranslationSubgroup(2, [[2]])
    series = scan_translation_series(gam, 100000)
    assert len(series.terms) == 50001
    assert series == selberg_rational_translation(gam).expand(100000)


def test_series_translation_slab_blocks_do_not_change_the_series(
        monkeypatch):
    # one slab a block, and blocks that split the slabs unevenly, give the
    # series of the default blocks
    cases = [(TranslationSubgroup(2, [[6]]), 40),
             (TranslationSubgroup(3, [[1, 0], [-1, 3]]), 30),
             (TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]]), 9)]
    for gam, max_deg in cases:
        expected = scan_translation_series(gam, max_deg)
        for block in (1, 7, 500):
            monkeypatch.setattr(_oracles, "_SLAB_BLOCK", block)
            assert scan_translation_series(gam, max_deg) == expected
        monkeypatch.undo()
        assert expected == selberg_rational_translation(gam).expand(max_deg)


def test_series_translation_memory_on_the_n5_benchmark_subgroup():
    # the n = 5 selberg_deep subgroup at maxDegree 30: its period 5 gives a
    # table of 5^4 = 625 cells, where the scan held a sub-grid of 31^4
    # cells in 7.4 MB of residues
    cfg, = [m["config"] for m in PANELS["selberg_deep"]
            if m["name"] == "n5_N5_D16"]
    gam = TranslationSubgroup(5, cfg["gamma"]["basis"])
    tracemalloc.start()
    try:
        table = selberg_series_translation(gam, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert table.size == 5 and table.complete
    assert periodic_extension(table, 30) == selberg_rational_translation(
        gam).expand(30)


def _translation_guard_peak(gam, max_deg, match):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=match):
            selberg_series_translation(gam, max_deg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_series_translation_residue_guard_raises_before_allocating():
    # the cyclic lattice x_1 + k x_2 = 0 mod N, N = 3^39, k = (N - 1) / 2:
    # its one Smith row (1, k) is already reduced, so at span 1000 each
    # residue could leave int64, while one slab of the sub-grid would hold
    # 1001^2 points
    big = 3 ** 39
    gam = TranslationSubgroup(3, [[big, -(big - 1) // 2], [0, 1]])
    slab_bytes = 1001 ** 2 * 2 * 8
    peak = _translation_guard_peak(gam, 1000, r"residue.*2\^63")
    assert peak < slab_bytes // 100
    # the same subgroup is fine while the residues stay below 2^63
    assert table_terms(selberg_series_translation(gam, 2))[(0, 0)] == big * 6


def test_series_translation_pattern_code_guard_raises_before_allocating():
    # the scan's (2^32 + 1)^2 pattern codes overflow int64; the slab would be
    # 32 GB
    gam = TranslationSubgroup(2, [[2]])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"pattern code.*2\^63"):
            scan_translation_series(gam, 2 ** 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the period table has two cells at any degree
    assert table_terms(selberg_series_translation(gam, 2 ** 32)) == {(0,): 4}
def test_series_and_rational_at_a_huge_degree_allocate_little():
    # n = 2 [[2]] at maxDegree 10^9: a 2-cell table, and the identity runs
    # on the whole cell with no degree bound
    cfg = RunConfig.from_json_obj({
        "n": 2, "gamma": {"kind": "translation", "basis": [[2]]},
        "maxDegree": 10 ** 9,
        "checks": ["selberg_series", "selberg_rational"]})
    tracemalloc.start()
    try:
        code, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1 << 20
    series, rational = (report["results"][k]
                        for k in ("selberg_series", "selberg_rational"))
    assert series["period"] == rational["period"] == 2
    assert series["series"]["terms"] == [[[0], "4"]]
    assert rational["identity_degree_free"] and rational["identity_holds"]


def test_series_factorial_scale_rescales_exponents():
    gam = TranslationSubgroup(3, [[1, 0], [-1, 3]])
    geo = selberg_series_translation(gam, 4, GEODESIC)
    fact = selberg_series_translation(gam, 24, FACTORIAL)
    rescaled = {tuple(6 * e for e in exp): c
                for exp, c in table_terms(geo).items()}
    assert table_terms(fact) == rescaled


def test_period_table_holds_int64_arrays():
    # the complete n = 4 index-64 table of 14,896 nonzero cells holds one
    # int64 exponent row and one int64 coefficient a cell, 32 bytes; a dict
    # of exponent tuples held about 127
    gam = TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 62]])
    selberg_series_translation(gam, 200)   # the subgroup's cached forms
    tracemalloc.start()
    try:
        table = selberg_series_translation(gam, 200)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.complete and len(table.terms) == 14896
    assert table.terms.dtype == table.coeffs.dtype == np.int64
    assert held < 48 * len(table.terms)


def test_table_writes_the_rows_of_its_series():
    # the array writer against MultiSeries.to_json_obj of the same terms,
    # on seeded subgroups at both scales, complete and partial tables, below
    # the build degree, at it and at the table's own cutoff, and on
    # coefficients beyond int64, byte for byte
    rng = random.Random(38)
    tables = []
    for n in (2, 3, 4, 5):
        for _ in range(3):
            gam = random_type_zero_subgroup(rng, n, bound=9 if n < 4 else 2)
            divisor = gam.image.diag[-1]
            for scale in (GEODESIC, FACTORIAL):
                f = scale_factor(n, scale)
                for size in {min(divisor, 8), min(divisor, 3)}:
                    tables.append((selberg_series_translation(
                        gam, f * (size - 1), scale), f * (size - 1)))
    big = 3 ** 39
    gam = TranslationSubgroup(3, [[big, -(big - 1) // 2], [0, 1]])
    tables.append((selberg_series_translation(gam, 2), 2))
    assert tables[-1][0].coeffs.dtype == object
    assert {t.complete for t, _ in tables} == {True, False}
    for table, max_deg in tables:
        top = table.factor * table.nvars * (table.size - 1)
        for d in {max_deg // 2, max_deg, top}:
            got = table.to_json_obj(d)
            expected = MultiSeries(table.nvars, d,
                                   table_terms(table)).to_json_obj()
            assert got == expected
            assert cli.dumps_report(got) == cli.dumps_report(expected)


def test_rational_translation_n2_closed_form():
    r = selberg_rational_translation(TranslationSubgroup(2, [[2]]))
    num, den = combine(r)
    assert num == {(0,): 4}
    assert den == ((2,),)


def test_rational_translation_expansion_matches_series():
    cases = [
        TranslationSubgroup(2, [[6]]),
        TranslationSubgroup(3, [[1, 0], [-1, 3]]),
        TranslationSubgroup(3, [[3, 0], [0, 3]]),
        TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]]),
    ]
    for gam in cases:
        r = selberg_rational_translation(gam)
        s = scan_translation_series(gam, 12)
        assert r.expand(12) == s
        assert selberg_identity(gam, r, selberg_series_translation(
            gam, 12)) == (True, None)


def test_selberg_rational_catches_a_wrong_exponent_above_max_degree(
        monkeypatch):
    """A blind spot of the expansion check, closed by the identity.  The
    n = 5 rational is one piece, 600 times the 125 monomials u^g, g in
    [0, 5)^4, over one factor 1 - u_i^5 per variable.  With the terms of
    total degree 4 and more moved to a second piece whose factor
    1 - u^(0,0,0,5) is tampered to 1 - u^(1,0,0,5), those terms' multiples
    of u^(0,0,0,5) fall at degree 10, 15, .. instead of 9, 14, .., so
    every term the tampering changes lies above degree 8, and the
    expansion to degree 8 still equals the series.  The identity needs no
    degree: the factor lies on two axes, so it fails at maxDegree 8 as at
    16."""
    basis = [[1, 0, 0, 1], [-1, 1, 0, 1], [0, -1, 1, 1], [0, 0, -1, 2]]
    gamma = TranslationSubgroup(5, basis)
    rational = selberg_rational_translation(gamma)
    (den, num), = piece_dicts(rational).items()
    assert den == tuple(tuple(5 * (i == j) for i in range(4))
                        for j in (3, 2, 1, 0))
    assert len(num) == 125 and set(num.values()) == {600}
    tampered = rational_from_pieces(rational.nvars, [
        ({e: c for e, c in num.items() if sum(e) < 4}, den),
        ({e: c for e, c in num.items() if sum(e) >= 4},
         ((1, 0, 0, 5),) + den[1:])])
    assert tampered.expand(8) == scan_translation_series(gamma, 8)
    assert tampered.expand(16) != scan_translation_series(gamma, 16)
    monkeypatch.setattr(cli, "selberg_rational_translation",
                        lambda gamma, scale: tampered)
    cfg = {"n": 5, "gamma": {"kind": "translation", "basis": basis},
           "maxDegree": 8, "checks": ["selberg_rational"]}
    for max_degree in (8, 16):
        cfg["maxDegree"] = max_degree
        code, report = run_config(RunConfig.from_json_obj(cfg))
        result = report["results"]["selberg_rational"]
        assert code == 1 and not result["pass"]
        assert result["identity_degree_free"] and result["period"] == 5
        assert result["identity_first_difference"] == {
            "denominator_factor": [1, 0, 0, 5]}


def test_the_route_holds_under_64_bytes_a_numerator_term():
    # the n = 4 index-62 cone route, 7,448 numerator terms: int64 exponent
    # and coefficient arrays hold 32 bytes a term, where a dict of exponent
    # tuples held about 140
    gamma = TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 62]])
    # once first, so that caches filled on the way are not counted
    selberg_rational_translation(gamma)
    tracemalloc.start()
    try:
        rational = selberg_rational_translation(gamma)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    terms = sum(len(piece["numerator"])
                for piece in rational.to_json_obj()["pieces"])
    assert terms == 7448 and held < 64 * terms


def test_identity_names_the_first_failure():
    gamma = TranslationSubgroup(3, [[3, 0], [0, 3]])
    rational = selberg_rational_translation(gamma)
    # 54 / ((1 - u_1^3)(1 - u_2^3))
    (den, num), = piece_dicts(rational).items()
    assert (den, num) == (((0, 3), (3, 0)), {(0, 0): 54})
    table = selberg_series_translation(gamma, 6)
    assert selberg_identity(gamma, rational, table) == (True, None)
    # a period that does not annihilate the quotient
    wrong = PeriodTable(2, 1, 2, 2, table.terms, table.coeffs)
    assert selberg_identity(gamma, rational, wrong) == (False, {"period": 2})
    # a tampered cell, and below it in term order a tampered numerator
    table = table_from_terms(table, table_terms(table), {(2, 1): 1})
    assert selberg_identity(gamma, rational, table) == (
        False, {"exponent": [2, 1]})
    tampered = rational_from_pieces(2, [({**num, (1, 1): 1}, den)])
    assert selberg_identity(gamma, tampered, table) == (
        False, {"exponent": [1, 1]})
    # on the cube of an incomplete table, only the terms inside it count
    small = selberg_series_translation(gamma, 1)
    assert not small.complete
    assert selberg_identity(gamma, tampered, small) == (
        False, {"exponent": [1, 1]})
    tampered = rational_from_pieces(2, [({**num, (2, 0): 1}, den)])
    assert selberg_identity(gamma, tampered, small) == (True, None)


def test_table_blocks_do_not_change_the_results(monkeypatch):
    # one cell a block, and blocks that split the cells unevenly
    for n, basis, max_deg in [(3, [[1, 0], [-1, 3]], 7),
                              (4, _N4_N32, 6),
                              (5, [[1, 0, 0, 1], [-1, 1, 0, 1],
                                   [0, -1, 1, 1], [0, 0, -1, 2]], 8)]:
        gamma = TranslationSubgroup(n, basis)
        table = selberg_series_translation(gamma, max_deg)
        rational = selberg_rational_translation(gamma)
        # +1 at u^(1, .., 1) of the first piece
        one = (1,) * (n - 1)
        tampered = rational_from_pieces(rational.nvars, [
            ({**num, one: num.get(one, 0) + 1} if i == 0 else num, den)
            for i, (den, num) in enumerate(piece_dicts(rational).items())])
        expected = selberg_identity(gamma, tampered, table)
        assert not expected[0]
        for block in (1, 7, 500):
            monkeypatch.setattr(selberg, "_TABLE_BLOCK", block)
            assert table_terms(selberg_series_translation(
                gamma, max_deg)) == table_terms(table)
            assert selberg_identity(gamma, rational, table) == (True, None)
            assert selberg_identity(gamma, tampered, table) == expected
        monkeypatch.undo()


def _piece_tamperings(rational: MultiRational):
    """(den, new numerator, new den) for every change of one piece by +1 or
    +2 on one exponent of one denominator factor, or by +1 on one of the
    first five or the last five numerator coefficients in term order."""
    for den, num in piece_dicts(rational).items():
        for j, factor in enumerate(den):
            for i, k in itertools.product(range(len(factor)), (1, 2)):
                new = tuple(a + k * (i == m) for m, a in enumerate(factor))
                yield den, num, den[:j] + (new,) + den[j + 1:]
        order = sorted(num, key=lambda e: (sum(e), e))
        for exp in order[:5] + order[-5:]:
            yield den, {**num, exp: num[exp] + 1}, den


def _replace_piece(rational: MultiRational, den, new_num, new_den
                   ) -> MultiRational:
    # the other pieces keep their arrays; the changed one merges into the
    # piece with its new denominator, in that piece's place, else goes last
    key, nvars = tuple(sorted(new_den)), rational.nvars
    pieces = {other: piece for other, piece in rational.pieces.items()
              if other != den}
    same = piece_dicts(MultiRational(
        nvars, {key: pieces[key]} if key in pieces else {}))
    new = rational_from_pieces(nvars, [(num, key) for num in
                                       (*same.values(), new_num)])
    pieces.update(new.pieces)
    if not new.pieces:
        pieces.pop(key, None)
    return MultiRational(nvars, pieces)


def _single_tamperings(rational: MultiRational):
    """Every rational that differs from this one by one
    :func:`_piece_tamperings` change."""
    for change in _piece_tamperings(rational):
        yield _replace_piece(rational, *change)


def test_identity_fails_every_single_tampering_of_the_n5_rational():
    # the rational of the blind-spot test at maxDegree 8, one piece with
    # four factors: the five numerator tamperings at total degree 15 and
    # 16 still expand to the series to degree 8, but its period 5 is
    # below the table's span, so the identity runs on the whole cell and
    # none of its 42 single tamperings passes
    gamma = TranslationSubgroup(5, [[1, 0, 0, 1], [-1, 1, 0, 1],
                                    [0, -1, 1, 1], [0, 0, -1, 2]])
    rational = selberg_rational_translation(gamma)
    table = selberg_series_translation(gamma, 8)
    assert table.complete
    assert selberg_identity(gamma, rational, table) == (True, None)
    series = scan_translation_series(gamma, 8)
    expansion_passes = identity_passes = count = 0
    for tampered in _single_tamperings(rational):
        count += 1
        expansion_passes += tampered.expand(8) == series
        identity_passes += selberg_identity(gamma, tampered, table)[0]
    assert (count, expansion_passes, identity_passes) == (42, 5, 0)


def _box_form(nvars: int, den, num, f: int, divisor: int) -> bool:
    """Whether the piece is num / prod_i (1 - u_i^(f m_i)), one factor on
    each variable and m_i dividing D, with every numerator exponent f alpha,
    0 <= alpha_i < m_i."""
    steps = {}
    for factor in den:
        axes = [i for i, a in enumerate(factor) if a]
        if len(axes) != 1 or axes[0] in steps:
            return False
        steps[axes[0]] = factor[axes[0]]
    if len(steps) < nvars or any(a <= 0 or a % f or divisor % (a // f)
                                 for a in steps.values()):
        return False
    exps = np.array(list(num)).reshape(-1, nvars)
    return bool(((exps % f == 0) & (exps >= 0)
                 & (exps < [steps[i] for i in range(nvars)])).all())


def _cube(nvars: int, den, num, table: PeriodTable) -> np.ndarray:
    """The piece's coefficients on the table's cube, by the running sums
    of :func:`_oracles.cube_coefficients`."""
    return cube_coefficients(rational_from_pieces(nvars, [(num, den)]),
                             table.factor, table.size - 1)


def _reference_identity(cube: np.ndarray, cells: np.ndarray, f: int):
    """The identity's verdict for a box-form rational with these
    coefficients on the table's cube, whose cells are given: the least
    differing exponent in term order, or none."""
    diff = np.argwhere(cube != cells).tolist()
    if not diff:
        return True, None
    first = min(diff, key=lambda g: (sum(g), g))
    return False, {"exponent": [f * x for x in first]}


def _assert_identity_matches_the_reference(gam):
    """For the route's rational and each :func:`_piece_tamperings` change
    of it, and +1 at u^(f m_i e_i) just outside a box, at both scales and
    at a complete and an incomplete table: a box-form rational passes
    exactly when its cube equals the table, and every other one fails.
    Returns the counts of the two kinds of tamperings."""
    n1, divisor = gam.n - 1, gam.image.diag[-1]
    counts = [0, 0]
    for scale in (GEODESIC, FACTORIAL):
        f = scale_factor(gam.n, scale)
        rational = selberg_rational_translation(gam, scale)
        changes = list(_piece_tamperings(rational)) + [
            (den, {**num, factor: num.get(factor, 0) + 1}, den)
            for den, num in piece_dicts(rational).items() for factor in den]
        tables = [selberg_series_translation(gam, f * (divisor - 1), scale)]
        if divisor > 1:
            tables.append(selberg_series_translation(
                gam, f * (divisor // 2 - 1), scale))
        for table in tables:
            assert table.complete == (table is tables[0])
            cubes = {den: _cube(n1, den, num, table)
                     for den, num in piece_dicts(rational).items()}
            whole = sum(cubes.values())
            cells = np.zeros(whole.shape, dtype=np.int64)
            for e, c in table_terms(table).items():
                cells[tuple(x // f for x in e)] = c
            assert all(_box_form(n1, den, num, f, divisor)
                       for den, num in piece_dicts(rational).items())
            assert _reference_identity(whole, cells, f) == (True, None)
            assert selberg_identity(gam, rational, table) == (True, None)
            for den, new_num, new_den in changes:
                got = selberg_identity(gam, _replace_piece(
                    rational, den, new_num, new_den), table)
                if _box_form(n1, new_den, new_num, f, divisor):
                    assert got == _reference_identity(
                        whole - cubes[den] + _cube(n1, new_den, new_num,
                                                   table), cells, f), (
                        gam.basis, scale, table.size)
                    counts[0] += 1
                else:
                    assert not got[0], (gam.basis, scale, table.size)
                    counts[1] += 1
    return counts


def test_identity_matches_the_cube_reference_on_the_panels():
    # every tampering in box form is judged by the running sums, and every
    # other one fails
    counts = np.sum([_assert_identity_matches_the_reference(gam)
                     for gam in _panel_subgroups()], axis=0)
    assert counts.min() > 100


def test_identity_matches_the_cube_reference_on_seeded_subgroups():
    counts = np.sum([_assert_identity_matches_the_reference(gam)
                     for gam in _seeded_subgroups()[:30]], axis=0)
    assert counts.min() > 100


def test_identity_fails_wrong_terms_beyond_a_small_cube():
    # at maxDegree 1 the cube of 3I's table is [0, 2)^2, but a numerator
    # exponent outside the box [0, 3)^2 and a missing factor are wrong on
    # the rest of the orthant, and the identity names them
    gamma = TranslationSubgroup(3, [[3, 0], [0, 3]])
    rational = selberg_rational_translation(gamma)
    (den, num), = piece_dicts(rational).items()
    table = selberg_series_translation(gamma, 1)
    assert table.size == 2 and not table.complete
    assert selberg_identity(gamma, rational, table) == (True, None)
    for exp in ((7, 0), (3, 0)):
        tampered = rational_from_pieces(2, [({**num, exp: 1}, den)])
        assert selberg_identity(gamma, tampered, table) == (
            False, {"exponent": list(exp)})
    short = rational_from_pieces(2, [(num, den[:1])])
    assert selberg_identity(gamma, short, table) == (
        False, {"denominator_factors": [[0, 3]]})


def test_identity_names_a_piece_short_of_an_axis_and_a_wrong_multiple():
    gamma = TranslationSubgroup(3, [[1, 0], [-1, 3]])
    rational = selberg_rational_translation(gamma, FACTORIAL)
    table = selberg_series_translation(gamma, 24, FACTORIAL)
    assert selberg_identity(gamma, rational, table) == (True, None)
    # a second piece with a factor on the first variable only
    short = rational_from_pieces(2, [*((num, den) for den, num in
                                       piece_dicts(rational).items()),
                                     ({(0, 0): 1}, [(18, 0)])])
    assert selberg_identity(gamma, short, table) == (
        False, {"denominator_factors": [[18, 0]]})
    # 9 divides the period f D = 18 but is not a multiple of f = 6
    (den, num), = piece_dicts(rational).items()
    assert den == ((0, 18), (18, 0))
    wrong = rational_from_pieces(2, [(num, [(0, 9), (18, 0)])])
    assert selberg_identity(gamma, wrong, table) == (
        False, {"denominator_factor": [0, 9]})


@pytest.mark.parametrize("n, basis", [
    (3, [[1, 0], [2, 576]]),
    (4, [[1, 0, 0], [0, 1, 0], [3, 3, 24]]),
    # thousands of cone base points on one face; minutes with a greedy walk
    pytest.param(4, [[1, 0, 0], [0, 1, 0], [3, 3, 64]],
                 marks=pytest.mark.slow),
    pytest.param(3, [[1, 0], [2, 2304]], marks=pytest.mark.slow),
])
def test_rational_translation_matches_series_on_skewed_lattices(n, basis):
    gam = TranslationSubgroup(n, basis)
    r = selberg_rational_translation(gam)
    assert r.expand(8) == scan_translation_series(gam, 8)
    assert selberg_identity(gam, r, selberg_series_translation(gam, 8)) \
        == (True, None)


@pytest.mark.parametrize("n, basis, images", [
    (5, [[1, 0, 0, 1], [-1, 1, 0, 1], [0, -1, 1, 1], [0, 0, -1, 2]], 1),
    (4, _N4_N32, 12),
    (3, [[1, 0], [2, 576]], 3),
])
def test_rational_grouped_by_image_lattice_matches_per_permutation(
        n, basis, images):
    rng = random.Random(47)
    for _ in range(3):
        gam = TranslationSubgroup(
            n, transform_columns(basis, unimodular(n - 1, rng)))
        distinct = {tuple(map(tuple, hnf_columns(
            mat_mul(q.basis_matrix(), gam.basis)))) for q in all_permutations(n)}
        assert len(distinct) == images
        _assert_equal_on_the_period_cube(gam, GEODESIC)
    _assert_equal_on_the_period_cube(gam, FACTORIAL)


def test_stacked_image_walk_matches_the_hnf_loop():
    # 160 seeded subgroups, n = 2..5: the images, their order and their
    # counts equal those of one HNF per permutation, over stabilizers of
    # orders 1 (every image distinct) up to 24
    rng = random.Random(2027)
    orders = set()
    for i in range(160):
        gam = random_type_zero_subgroup(rng, 2 + i % 4,
                                        bound=(2, 3, 5)[i % 3])
        images = selberg._image_lattices(gam)
        assert (list(images.items())
                == list(per_permutation_images(gam).items())), gam.basis
        orders.add(next(iter(images.values())))
    assert {1, 2, 4, 6, 24} <= orders


# n = 5 subgroups whose cone routes hold 2,385,000 (index 60) and
# 3,080,685,000 (index 295) base points
_INDEX_60 = [[-2, -3, -3, -3], [2, 3, -2, 0], [2, 5, -3, -1], [-2, -5, 3, 4]]
_INDEX_295 = [[-1, 5, -1, -4], [3, -1, -2, -1], [-2, -1, -4, 3],
              [0, 2, -3, 2]]


def test_cone_route_counts_its_base_points_before_decomposing(monkeypatch):
    gam = TranslationSubgroup(5, _INDEX_60)
    assert gam.index == 60

    def refuse(basis, edges=None):
        raise AssertionError("a cone was decomposed")

    monkeypatch.setattr(selberg, "cone_decompose", refuse)
    monkeypatch.setattr(selberg, "SERIES_GRID_CELLS", 2384999)
    with pytest.raises(ResourceCapError,
                       match=r"cone route.* 2385000 base points"):
        selberg_rational_translation(gam)
    # at a cap of exactly the count the route goes on to decompose
    monkeypatch.setattr(selberg, "SERIES_GRID_CELLS", 2385000)
    with pytest.raises(AssertionError, match="decomposed"):
        selberg_rational_translation(gam)


def test_cone_route_over_the_cap_exits_3(tmp_path, capsys):
    # 3.1e9 base points after a series of 9^4 cells: exit 3 from the count,
    # before any cone is decomposed
    path = tmp_path / "index295.json"
    path.write_text(json.dumps({
        "n": 5, "gamma": {"kind": "translation", "basis": _INDEX_295},
        "maxDegree": 8, "checks": ["selberg_rational"]}))
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    printed = capsys.readouterr()
    assert "cone route" in printed.out
    assert "3080685000 base points" in printed.out
    assert "Traceback" not in printed.err
    assert peak < 4 << 20


def _cyclic_basis(n):
    """Columns e_1 - e_2, .., e_(n-2) - e_(n-1) and n e_(n-1): a cyclic
    subgroup of index n and a period table of 2^(n-1) cells at maxDegree
    1."""
    return [[n if i == j == n - 2 else (i == j) - (i == j + 1)
             for j in range(n - 1)] for i in range(n - 1)]


def test_cone_route_prices_its_permuted_bases_before_listing_them(
        monkeypatch):
    # at n = 9 the stack of 9! permuted bases would hold 9! * 8^2 =
    # 23,224,320 entries: the route raises before any permutation is
    # listed, and the run exits 3 after its table of 2^8 cells
    gam = TranslationSubgroup(9, _cyclic_basis(9))

    def refuse(n):
        raise AssertionError("the permutations were listed")

    monkeypatch.setattr(selberg, "all_permutations", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError,
                           match=r"cone route.* 23224320 entries"):
            selberg_rational_translation(gam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    code, report = run_config(RunConfig.from_json_obj({
        "n": 9, "gamma": {"kind": "translation", "basis": _cyclic_basis(9)},
        "maxDegree": 1, "checks": ["selberg_rational"]}))
    assert code == 3 and not report["pass"]
    assert "cone route" in report["error"]
    # n = 8 is under the cap: 8! * 7^2 = 1,975,680 entries
    monkeypatch.setattr(selberg, "SERIES_GRID_CELLS", 1975679)
    with pytest.raises(ResourceCapError, match="1975680 entries"):
        selberg._image_lattices(TranslationSubgroup(8, _cyclic_basis(8)))


def test_period_table_weights_match_the_permutation_loop(monkeypatch):
    # the distinct arrangements of the Smith columns mod d, each counted
    # prod_c m_c! times, against all n! permutations one at a time, on the
    # panels and on seeded subgroups with n = 2..7: equal weights and equal
    # tables
    rng = random.Random(4141)
    gammas = _panel_subgroups() + [random_type_zero_subgroup(rng, n, bound=3)
                                   for n in range(2, 8) for _ in range(4)]
    for gamma in gammas:
        rows = [(list(row) + [-sum(row)], d) for row, d in
                zip(gamma.image.u, gamma.image.diag) if d > 1]
        assert (selberg._permuted_weights(rows, gamma.n)
                == _oracles.permutation_loop_weights(rows, gamma.n))
    tables = [selberg_series_translation(gamma, 3) for gamma in gammas]
    monkeypatch.setattr(selberg, "_permuted_weights",
                        _oracles.permutation_loop_weights)
    for gamma, table in zip(gammas, tables):
        ref = selberg_series_translation(gamma, 3)
        fields = ("nvars", "factor", "divisor", "size", "complete")
        assert ([getattr(table, k) for k in fields]
                == [getattr(ref, k) for k in fields])
        assert table.coeffs.dtype == ref.coeffs.dtype
        assert np.array_equal(table.terms, ref.terms)
        assert np.array_equal(table.coeffs, ref.coeffs)


def test_cyclic_period_table_reads_one_arrangement():
    # n = 10: the Smith row (1, .., 1, -9) is one column mod 10, so the
    # table reads one arrangement for all 10! permutations, and the check
    # passes; the n! cap is unchanged, so n = 11 is refused
    gamma = TranslationSubgroup(10, _cyclic_basis(10))
    assert gamma.image.diag[-1] == 10 and gamma.image.u[-1] == [1] * 9
    assert selberg._permuted_weights([([1] * 9 + [-9], 10)], 10) == {
        (1, 2, 3, 4, -5, -4, -3, -2, -1): math.factorial(10)}
    code, report = run_config(RunConfig.from_json_obj({
        "n": 10, "gamma": {"kind": "translation",
                           "basis": _cyclic_basis(10)},
        "maxDegree": 1, "checks": ["selberg_series"]}))
    assert code == 0 and report["results"]["selberg_series"]["pass"]
    with pytest.raises(ResourceCapError, match="11! permutations"):
        selberg_series_translation(TranslationSubgroup(11, _cyclic_basis(11)),
                                   1)


def _seeded_subgroups():
    """30 type-zero subgroups with n = 2..5 and then 2 with n = 6, each
    basis rewritten by a seeded unimodular column transform.  The index is
    capped by n, because the face reference's numerators grow fast with it
    at n = 5: index 25 gave 90,360 terms and index 60 gave 2,084,689.  At
    n = 6 its face groups take one kernel per distinct image (0.06 s at
    index 12, against 2 s with one per permutation), but its floor shift
    still takes seconds at index 18, so the cap there is 12."""
    rng = random.Random(2026)
    max_index = {2: 200, 3: 200, 4: 40, 5: 12, 6: 12}
    out = []
    while len(out) < 32:
        n = 2 + len(out) % 4 if len(out) < 30 else 6
        gam = random_type_zero_subgroup(rng, n, bound=3)
        if gam.index <= max_index[n]:
            out.append(TranslationSubgroup(n, transform_columns(
                gam.basis, unimodular(n - 1, rng))))
    return out


def _panel_subgroups():
    """The distinct translation subgroups of the three benchmark panels."""
    bases = {(base["config"]["n"], tuple(map(tuple,
                                             base["config"]["gamma"]["basis"])))
             for panel in PANELS.values() for base in panel
             if base["config"]["gamma"]["kind"] == "translation"}
    return [TranslationSubgroup(n, basis) for n, basis in sorted(bases)]


def _assert_one_factor_per_variable(rational, period):
    """Every piece has exactly one factor 1 - u_i^a on each variable, a
    dividing the period, and numerator exponents below a: the periodic form
    whose coefficients on the period cube fix it."""
    for den, num in piece_dicts(rational).items():
        steps = [max(factor) for factor in den[::-1]]
        assert [tuple(a * (i == j) for i in range(rational.nvars))
                for j, a in enumerate(steps)] == list(den[::-1])
        assert all(period % a == 0 for a in steps)
        assert all(x < a for e in num for x, a in zip(e, steps))


def _assert_equal_on_the_period_cube(gam, scale, groups=None):
    """The route and the face reference have equal coefficients at every
    exponent f g, g in [0, D]^(n-1), which proves them equal
    (:func:`_oracles.cube_coefficients`)."""
    f, divisor = scale_factor(gam.n, scale), gam.image.diag[-1]
    rational = selberg_rational_translation(gam, scale)
    _assert_one_factor_per_variable(rational, f * divisor)
    reference = per_permutation_rational(gam, scale, groups)
    assert np.array_equal(cube_coefficients(rational, f, divisor),
                          cube_coefficients(reference, f, divisor)), (
        gam.basis, scale)


def _assert_matches_per_permutation(gam):
    groups = face_groups(gam)
    for scale in (GEODESIC, FACTORIAL):
        _assert_equal_on_the_period_cube(gam, scale, groups)


def test_rational_matches_per_permutation_on_seeded_subgroups():
    for gam in _seeded_subgroups():
        _assert_matches_per_permutation(gam)


def test_rational_matches_per_permutation_on_the_panels():
    gammas = _panel_subgroups()
    assert len(gammas) == 10
    for gam in gammas:
        _assert_matches_per_permutation(gam)


def _gap_hnfs(gam):
    """The column HNF of the gap rows of each image lattice, in the order
    of :func:`_oracles.per_permutation_images`."""
    return [hnf_columns([[a - b for a, b in zip(row, nxt)] for row, nxt in
                         zip(image, image[1:] + ((0,) * (gam.n - 1),))])
            for image in per_permutation_images(gam)]


def test_one_cone_decomposition_per_image_lattice(monkeypatch):
    calls = []

    def spy(basis, edges=None):
        calls.append(basis)
        return cone_decompose(basis, edges)

    monkeypatch.setattr(selberg, "cone_decompose", spy)
    counts = {}
    for gam in _panel_subgroups():
        calls.clear()
        selberg_rational_translation(gam)
        assert sorted(calls) == sorted(_gap_hnfs(gam)), gam.basis
        counts[gam.basis] = len(calls)
    # det_ladder's n4_N32 member
    assert counts[tuple(map(tuple, _N4_N32))] == 12


def test_one_set_of_edge_multiples_per_image_lattice(monkeypatch):
    # the base point count and the cone decomposition share them
    calls = []

    def spy(basis):
        calls.append(basis)
        return edge_multiples(basis)

    monkeypatch.setattr(selberg, "edge_multiples", spy)
    monkeypatch.setattr(lattice, "edge_multiples", spy)
    for gam in _panel_subgroups():
        calls.clear()
        selberg_rational_translation(gam)
        assert sorted(calls) == sorted(_gap_hnfs(gam)), gam.basis


def test_rational_translation_factorial_scale():
    gam = TranslationSubgroup(2, [[2]])
    r = selberg_rational_translation(gam, FACTORIAL)
    s = scan_translation_series(gam, 12, FACTORIAL)
    assert r.expand(12) == s
    assert selberg_identity(gam, r, selberg_series_translation(
        gam, 12, FACTORIAL)) == (True, None)


def test_rational_denominator_factors_are_monomial():
    r = selberg_rational_translation(TranslationSubgroup(3, [[3, 0], [0, 6]]))
    for factor in denominator_factors(r):
        assert any(e > 0 for e in factor)
        assert all(e >= 0 for e in factor)
    # and each piece has one on every variable, on the panels at both
    # scales
    for gam in _panel_subgroups():
        for scale in (GEODESIC, FACTORIAL):
            _assert_one_factor_per_variable(
                selberg_rational_translation(gam, scale),
                scale_factor(gam.n, scale) * gam.image.diag[-1])


def affine_series(aff, max_deg, scale=GEODESIC):
    """The series of the affine selberg_series check, run through
    run_config and read back from its report."""
    cfg = RunConfig.from_json_obj({
        "n": aff.n,
        "gamma": {"kind": "affine",
                  "lattice": [list(r) for r in aff.lattice.basis],
                  "perms": [list(p.images) for p in aff.perms]},
        "maxDegree": max_deg, "scale": scale, "checks": ["selberg_series"]})
    code, report = run_config(cfg)
    assert code == 0
    return series_from_json(report["results"]["selberg_series"]["series"])


def test_affine_trivial_permutation_part_reduces_to_translation():
    gam = TranslationSubgroup(3, [[1, 0], [-1, 3]])
    aff = AffineSubgroup(gam, [])
    assert affine_series(aff, 6) == scan_translation_series(gam, 6)


def test_affine_n2_swap_classes():
    gam = TranslationSubgroup(2, [[2]])
    aff = AffineSubgroup(gam, [Permutation((1, 0))])
    classes = class_list(affine_conjugacy_classes(aff, 4))
    identity = Permutation.identity(2)
    swap_classes = [c for c in classes if c.representative.p != identity]
    assert len(swap_classes) == 2
    for c in swap_classes:
        assert c.weight == 1
        assert c.lengths.values == (0,)
    zero_swap = [c for c in swap_classes
                 if c.representative.v == LatticeVector.zero(2)]
    assert len(zero_swap) == 1
    # translations fold under the flip: one class of weight 2 per pair
    trans = [c for c in classes if c.representative.p == identity
             and c.representative.v != LatticeVector.zero(2)]
    assert all(c.weight == 2 for c in trans)
    identity_cls = [c for c in classes if c.representative == AffineElement.identity(2)]
    assert identity_cls[0].weight == aff.index_in_affine_group == 2


def test_affine_n3_cycle_example():
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    aff = AffineSubgroup(gam, [perm_from_cycles(3, [(0, 1, 2)])])
    assert aff.index_in_affine_group == 18
    classes = class_list(affine_conjugacy_classes(aff, 0))
    identity = [c for c in classes if c.representative == AffineElement.identity(3)]
    assert identity[0].weight == 18
    torsion = [c for c in classes
               if c.representative.p != Permutation.identity(3)]
    assert len(torsion) == 6
    assert all(c.weight == 1 for c in torsion)
    series = affine_series(aff, 0)
    assert series.get((0, 0)) == 18 + 6


def brute_force_class_weight(aff, elem, box=6):
    """Count centralizer cosets directly: enumerate centralizing (x, q) with
    x in a box and count them modulo the subgroup's centralizer.  The box
    must be wide enough to reach every coset; doubling it must not change
    the answer."""
    n = aff.n

    def in_gamma_centralizer(h):
        return (aff.lattice.contains(h.v.to_basis_coords())
                and any(h.p.images == p.images for p in aff.perms))

    def count(b):
        reps = []
        for q in all_permutations(n):
            for raw in itertools.product(range(-b, b + 1), repeat=n - 1):
                h = AffineElement(LatticeVector.from_basis_coords(n, raw), q)
                if h * elem != elem * h:
                    continue
                if not any(in_gamma_centralizer(g * h.inverse()) for g in reps):
                    reps.append(h)
        return len(reps)

    first = count(box)
    assert count(2 * box) == first, "coset count not box-stable"
    return first


def test_affine_weights_against_brute_force():
    gam = TranslationSubgroup(2, [[2]])
    aff = AffineSubgroup(gam, [Permutation((1, 0))])
    for cls in class_list(affine_conjugacy_classes(aff, 4)):
        brute = brute_force_class_weight(aff, cls.representative, box=8)
        assert brute == cls.weight


def test_affine_weights_against_brute_force_full_s3():
    # covers every permutation conjugacy type: identity, transposition, 3-cycle
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    aff = AffineSubgroup(gam, [perm_from_cycles(3, [(0, 1)]),
                               perm_from_cycles(3, [(0, 1, 2)])])
    assert aff.index_in_affine_group == 9
    classes = class_list(affine_conjugacy_classes(aff, 3))
    assert len(classes) == 11
    for cls in classes:
        brute = brute_force_class_weight(aff, cls.representative, box=6)
        assert brute == cls.weight


def test_affine_box_doubling_self_check_runs():
    gam = TranslationSubgroup(2, [[4]])
    aff = AffineSubgroup(gam, [Permutation((1, 0))])
    affine_conjugacy_classes(aff, 6)


def test_affine_box_doubling_catches_a_short_box(monkeypatch):
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    aff = AffineSubgroup(gam, [perm_from_cycles(3, [(0, 1)])])
    original = selberg._free_coordinate_bounds

    def centre_only(data, torsion, max_spread):
        los, his = original(data, torsion, max_spread)
        mids = [(lo + hi) // 2 for lo, hi in zip(los, his)]
        return mids, mids

    monkeypatch.setattr(selberg, "_free_coordinate_bounds", centre_only)
    with pytest.raises(BoxExhaustionError, match="doubling"):
        affine_conjugacy_classes(aff, 6)


AFFINE_FILTER_CASES = [
    (3, [[3, 0], [0, 3]], (0, 1, 2)),          # identity
    (3, [[3, 0], [0, 3]], (1, 2, 0)),          # rotation
    (3, [[3, 0], [0, 3]], (1, 0, 2)),          # transposition: halves
    (3, [[1, 0], [-1, 3]], (0, 2, 1)),
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]], (1, 2, 3, 0)),
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]], (1, 0, 2, 3)),
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]], (1, 0, 3, 2)),
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]], (0, 2, 3, 1)),
]


@pytest.mark.parametrize("n, lattice, images", AFFINE_FILTER_CASES)
@pytest.mark.parametrize("scale, max_deg",
                         [(GEODESIC, 3), (GEODESIC, 5), (FACTORIAL, 0),
                          (FACTORIAL, 57)])
def test_affine_integer_filter_keeps_exactly_the_short_points(
        n, lattice, images, scale, max_deg):
    # all the boxes of a part in one pass, each widened by 2 so that it
    # holds points on both sides of the cut: the short points in box order,
    # each marked by whether it lies in its plain box
    aff = AffineSubgroup(TranslationSubgroup(n, lattice),
                         [Permutation(images)])
    f = math.factorial(n) if scale == FACTORIAL else 1
    for p in aff.perms:
        data = selberg._PermCosetData(aff, p)
        torsion_ranges = [range(data.divisors[i]) for i in data.torsion_idx]
        boxes = [(torsion, *selberg._free_coordinate_bounds(
            data, torsion, Fraction(max_deg, f)))
            for torsion in itertools.product(*torsion_ranges)]
        expected = []
        for torsion, los, his in boxes:
            for free in itertools.product(
                    *[range(lo - 2, hi + 3) for lo, hi in zip(los, his)]):
                coords = [0] * len(data.divisors)
                for pos, idx in enumerate(data.torsion_idx):
                    coords[idx] = torsion[pos]
                for pos, idx in enumerate(data.free_idx):
                    coords[idx] = free[pos]
                elem = AffineElement(LatticeVector.from_basis_coords(
                    n, element_from_coords(data, coords)), p)
                if sum(length_vector(elem, scale).values) <= max_deg:
                    expected.append((coords, all(
                        lo <= x <= hi for x, lo, hi in zip(free, los, his))))
        kept = [(c, plain) for coords, plains in selberg._box_points(
                    data, boxes, 2, f, max_deg)
                for c, plain in zip(coords.T.tolist(), plains.tolist())]
        assert kept == expected


def test_affine_scan_guards_raise_before_allocating():
    aff = AffineSubgroup(TranslationSubgroup(3, [[3, 0], [0, 3]]),
                         [Permutation((1, 2, 0))])
    identity = selberg._PermCosetData(aff, Permutation.identity(3))
    rotation = selberg._PermCosetData(aff, Permutation((1, 2, 0)))
    assert identity.free_idx == [0, 1] and rotation.free_idx == []
    cases = [
        (identity, [0, 0], [2 ** 32, 2 ** 31], 3, "point count"),
        (identity, [-2 ** 61] * 2, [-2 ** 61] * 2, 3, "spread"),
        (rotation, [], [], 2 ** 62, r"max_deg \* L"),
    ]
    tracemalloc.start()
    try:
        for data, los, his, max_deg, match in cases:
            torsion = [0] * len(data.torsion_idx)
            with pytest.raises(ResourceCapError, match=match + r".*2\^63"):
                next(selberg._box_points(data, [(torsion, los, his)], 0, 1,
                                         max_deg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ResourceCapError, match=r"affine class scan"):
        affine_conjugacy_classes(aff, 2 ** 40)


@pytest.mark.parametrize("n, lattice, images", AFFINE_FILTER_CASES)
@pytest.mark.parametrize("scale, max_deg", [(GEODESIC, 5), (FACTORIAL, 57)])
def test_integer_box_bounds_match_the_fraction_reference(n, lattice, images,
                                                          scale, max_deg):
    aff = AffineSubgroup(TranslationSubgroup(n, lattice),
                         [Permutation(images)])
    max_spread = Fraction(max_deg, math.factorial(n) if scale == FACTORIAL
                          else 1)
    for p in aff.perms:
        data = selberg._PermCosetData(aff, p)
        torsion_ranges = [range(data.divisors[i]) for i in data.torsion_idx]
        for torsion in itertools.product(*torsion_ranges):
            assert (selberg._free_coordinate_bounds(data, torsion, max_spread)
                    == fraction_free_coordinate_bounds(data, torsion,
                                                       max_spread))


# two generators each: Klein four-groups (on the second lattice the
# membership tests in (1-p)Lambda and (1-p)M count differently), and two
# non-abelian groups (S_3, the dihedral group of the square), where the
# conjugates q p q^-1 differ
_TWO_GENERATORS = [
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]], [(1, 0, 2, 3), (0, 1, 3, 2)]),
    (4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]], [(1, 0, 2, 3), (0, 1, 3, 2)]),
    (3, [[3, 0], [0, 3]], [(1, 0, 2), (1, 2, 0)]),
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]], [(1, 2, 3, 0), (3, 2, 1, 0)]),
]


@pytest.mark.parametrize(
    "n, lattice, gens",
    [(n, lattice, [images]) for n, lattice, images in AFFINE_FILTER_CASES]
    + _TWO_GENERATORS)
@pytest.mark.parametrize("scale, max_deg", [(GEODESIC, 6), (FACTORIAL, 60)])
def test_affine_classes_match_the_naive_scan(n, lattice, gens, scale,
                                             max_deg):
    aff = AffineSubgroup(TranslationSubgroup(n, lattice),
                         [Permutation(images) for images in gens])
    classes = class_list(affine_conjugacy_classes(aff, max_deg, scale))
    naive = naive_affine_classes(aff, max_deg, scale)
    assert len(classes) == len(naive) > 1
    for cls, ref in zip(classes, naive):
        assert cls.representative == ref.representative
        assert cls.weight == ref.weight
        assert cls.lengths == ref.lengths


@pytest.mark.parametrize("name", ["n3_affine_rot_D36", "n4_affine_rot_D12",
                                  "n4_affine_swap_D12"])
def test_affine_benchmark_members_match_the_naive_scan(name):
    cfg, = [m["config"] for m in PANELS["selberg_deep"] if m["name"] == name]
    gamma = cfg["gamma"]
    aff = AffineSubgroup(TranslationSubgroup(cfg["n"], gamma["lattice"]),
                         [Permutation(tuple(p)) for p in gamma["perms"]])
    classes = class_list(affine_conjugacy_classes(aff, cfg["maxDegree"]))
    assert classes == naive_affine_classes(aff, cfg["maxDegree"])


# fractional geodesic exponents: a transposition on 3I gives 3/2, and a
# 3-cycle on 4I and on 5I gives 4/3 and 5/3
_FRACTIONAL_AFFINE = [(3, (1, 0, 2), "3/2"), (4, (0, 2, 3, 1), "4/3"),
                      (5, (1, 2, 0, 3, 4), "5/3")]
_AFFINE_REPORTS = [
    ({"n": n, "gamma": {"kind": "affine",
                        "lattice": [[n * (i == j) for j in range(n - 1)]
                                    for i in range(n - 1)],
                        "perms": [list(images)]},
      "maxDegree": max_deg, "scale": scale},
     fraction if scale == GEODESIC and max_deg > 1 else None)
    for n, images, fraction in _FRACTIONAL_AFFINE
    for max_deg in (1, 5, 9) for scale in (GEODESIC, FACTORIAL)
] + [(m["config"], None) for m in PANELS["selberg_deep"]
     if m["config"]["gamma"]["kind"] == "affine"]


@pytest.mark.parametrize("obj, fraction", _AFFINE_REPORTS)
def test_affine_series_report_matches_the_class_objects(obj, fraction):
    # the report's bytes against a series built one class object at a
    # time, as a MultiSeries adds and writes it
    cfg = RunConfig.from_json_obj({**obj, "checks": ["selberg_series"]})
    code, report = run_config(cfg)
    assert code == 0
    naive = naive_affine_classes(cfg.subgroup, cfg.max_degree, cfg.scale)
    expected = MultiSeries(cfg.n - 1, cfg.max_degree)
    for cls in naive:
        expected.add_term(norm_exponent(cls.lengths.values), cls.weight)
    result = report["results"]["selberg_series"]
    assert (cli.dumps_report(result["series"])
            == cli.dumps_report(expected.to_json_obj()))
    assert result["identity_class_weight"] == next(
        c.weight for c in naive
        if c.representative == AffineElement.identity(cfg.n))
    if fraction:
        assert fraction in {e for row, _ in result["series"]["terms"]
                            for e in row}


def test_affine_series_leaves_int64_exactly_beyond_its_bounds():
    # two classes of equal lengths whose weights sum to 2^63, and a
    # maxDegree whose gaps over the common denominator 2 reach 2^63: the
    # weights and the exponents merge as exact object arrays
    identity, swap = Permutation((0, 1, 2)), Permutation((1, 0, 2))
    parts = [(identity, np.array([[0, 0], [3, 0]]),
              np.array([2 ** 62, 2 ** 62]), np.array([[1, 0], [1, 0]]), 1),
             (swap, np.array([[0, 0]]), np.array([1]), np.array([[3, 0]]),
              2)]
    classes = selberg.AffineClasses(3, GEODESIC, parts)
    expected = MultiSeries(2, 2 ** 62)
    for exps, weight in [((1, 0), 2 ** 62), ((1, 0), 2 ** 62),
                         ((Fraction(3, 2), 0), 1)]:
        expected.add_term(exps, weight)
    assert classes.to_json_obj(2 ** 62) == expected.to_json_obj() == {
        "variables": 2, "cutoff": 2 ** 62,
        "terms": [[[1, 0], str(2 ** 63)], [["3/2", 0], "1"]]}
    assert len(classes) == 3 and classes.identity_weight() == 2 ** 62


def _all_images(n):
    return np.array(list(itertools.permutations(range(n))))


@pytest.mark.parametrize("n, lattice, images", AFFINE_FILTER_CASES)
def test_stacked_class_weights_match_the_per_permutation_loop(n, lattice,
                                                              images):
    aff = AffineSubgroup(TranslationSubgroup(n, lattice),
                         [Permutation(images)])
    rng = random.Random(f"weights-{n}-{images}")
    for p in aff.perms:
        data = selberg._PermCosetData(aff, p)
        # 40 points of M, then the class representatives of p
        reps = [mat_vec(data.m_basis, [rng.randint(-6, 6)
                                       for _ in range(n - 1)])
                for _ in range(40)]
        reps += [list(c.representative.v.to_basis_coords())
                 for c in class_list(affine_conjugacy_classes(aff, 6))
                 if c.representative.p == p]
        assert (selberg._class_weights(data, reps, "affine", _all_images(n))
                == per_permutation_class_weights(data, reps))


def test_affine_key_and_weight_guards_raise_before_allocating():
    aff = AffineSubgroup(TranslationSubgroup(3, [[3, 0], [0, 3]]),
                         [Permutation((1, 2, 0))])
    data_by_perm = {p.images: selberg._PermCosetData(aff, p)
                    for p in aff.perms}
    identity = data_by_perm[(0, 1, 2)]
    data2, maps = selberg._key_maps(aff.lattice, data_by_perm)[(0, 1, 2)]
    assert max(abs(x) for k in maps for row in k for x in row) == 1
    coords = np.array([[2 ** 62], [0]], dtype=np.int64)
    sym = _all_images(3)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"conjugate key.*2\^63"):
            selberg._key_columns(coords, maps, data2.divisors, "affine")
        with pytest.raises(ResourceCapError, match=r"membership.*2\^63"):
            selberg._class_weights(identity, [[2 ** 61, 0]], "affine", sym)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_conjugate_key_maps_refuse_an_inexact_division():
    aff = AffineSubgroup(TranslationSubgroup(3, [[3, 0], [0, 3]]),
                         [Permutation((1, 2, 0))])
    data_by_perm = {p.images: selberg._PermCosetData(aff, p)
                    for p in aff.perms}
    # a translation lattice that M^-1 Q M would not keep integral: the
    # solve runs in the index-4 sublattice 6 Z^2 of M = 3 Z^2
    with pytest.raises(ArithmeticError, match="translation part"):
        selberg._key_maps(TranslationSubgroup(3, [[6, 0], [0, 6]]),
                          data_by_perm)


def test_affine_transposition_half_integer_lengths():
    # a transposition averages two coordinates, so geodesic lengths can be
    # half-integers; the factorial scale clears them
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    aff = AffineSubgroup(gam, [perm_from_cycles(3, [(0, 1)])])
    assert aff.index_in_affine_group == 27
    s = affine_series(aff, 2)
    assert dict(s.terms) == {
        (0, 0): 30,  # identity class 27 plus the torsion class (0, swap)
        (Fraction(3, 2), 0): 3,
        (0, Fraction(3, 2)): 3,
    }
    s_fact = affine_series(aff, 12, FACTORIAL)
    assert all(isinstance(x, int) for e in s_fact.terms for x in e)
    assert s_fact.get((9, 0)) == 3 and s_fact.get((0, 9)) == 3


def test_affine_weights_positive_integers():
    cases = [
        AffineSubgroup(TranslationSubgroup(2, [[4]]), [Permutation((1, 0))]),
        AffineSubgroup(TranslationSubgroup(3, [[3, 0], [0, 3]]),
                       [perm_from_cycles(3, [(0, 1, 2)])]),
        AffineSubgroup(TranslationSubgroup(3, [[3, 0], [0, 3]]),
                       [perm_from_cycles(3, [(0, 1)]),
                        perm_from_cycles(3, [(0, 1, 2)])]),
    ]
    for aff in cases:
        for cls in class_list(affine_conjugacy_classes(aff, 4)):
            assert isinstance(cls.weight, int)
            assert cls.weight >= 1


def test_conjugate_elements_share_class_and_conjugator_is_found():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 4)
        v = LatticeVector.from_raw([rng.randint(-4, 4) for _ in range(n)])
        p = Permutation(tuple(rng.sample(range(n), n)))
        g1 = AffineElement(v, p)
        w = LatticeVector.from_raw([rng.randint(-4, 4) for _ in range(n)])
        q = Permutation(tuple(rng.sample(range(n), n)))
        h = AffineElement(w, q)
        g2 = h * g1 * h.inverse()
        conj = find_conjugator(g1, g2)
        assert conj is not None
        assert conj * g1 * conj.inverse() == g2
        assert length_vector(g1) == length_vector(g2)


def test_boxed_subgroup_elements_with_equal_pattern_are_conjugate():
    # equal canonical data within the group implies an explicit conjugator
    # exists inside the group itself, not just in its real form
    gam = TranslationSubgroup(3, [[3, 0], [0, 6]])
    by_pattern = {}
    for a in range(-2, 3):
        for b in range(-2, 3):
            coords = (3 * a, 6 * b)
            v = LatticeVector.from_basis_coords(3, coords)
            assert gam.contains(coords)
            by_pattern.setdefault(tuple(sorted(v.coords)), []).append(
                AffineElement.translation(v))
    pairs_checked = 0
    for elems in by_pattern.values():
        for g1, g2 in zip(elems, elems[1:]):
            h = find_conjugator(g1, g2)
            assert h is not None
            assert h * g1 * h.inverse() == g2
            pairs_checked += 1
    assert pairs_checked > 0

    # affine flavor: two cosets folded by the transposition
    swap = perm_from_cycles(3, [(0, 1)])
    g1 = AffineElement(LatticeVector.from_basis_coords(3, (3, 0)), swap)
    g2 = AffineElement(LatticeVector.from_basis_coords(3, (0, 3)), swap)
    h = find_conjugator(g1, g2)
    assert h is not None and h * g1 * h.inverse() == g2


def test_find_conjugator_rejects_nonconjugate():
    g1 = AffineElement.translation(LatticeVector.from_raw((1, 0, 0)))
    g2 = AffineElement.translation(LatticeVector.from_raw((2, 0, 0)))
    assert find_conjugator(g1, g2) is None


def _comparison(gamma, max_deg):
    return comparison_check(
        gamma, max_deg, zeta_positive_det(build_graph(gamma)),
        selberg_series_translation(gamma, max_deg, GEODESIC))


def test_comparison_check_n2():
    # D = 2, so the table at maxDegree 10 is complete and the report holds
    # one period, s_0 = 0, s_1 and s_2 = the cell 0
    ok, result = _comparison(TranslationSubgroup(2, [[2]]), 10)
    assert ok and result["corrected_equal"]
    assert not result["literal_equal"]
    assert result["period"] == 2 and result["comparison_degree_free"]
    assert result["first_difference"] is None
    assert result["selberg_specialized"] == ["0", "0", "4"]


def test_comparison_check_index3_coefficient():
    ok, result = _comparison(TranslationSubgroup(3, [[1, 0], [-1, 3]]), 9)
    assert ok
    assert result["selberg_specialized"][3] == "18"


def test_comparison_below_girth_is_zero():
    # below the girth 3 the specialized series vanishes; at it the cell
    # (0, 0) is N n! = 54 = -2! * 3 z_3 for Z+ = (1 - u^3)^9, z_3 = -9
    ok, result = _comparison(TranslationSubgroup(3, [[3, 0], [0, 3]]), 2)
    assert ok and result["first_difference"] is None
    assert result["selberg_specialized"] == ["0", "0", "0", "54"]


def _assert_comparison_verdict_is_the_series_inverse(gamma, max_deg, zeta,
                                                     series):
    # the periodic table against -(n-1)! x Z'/Z from the dense series
    # inverse, to deg Z + D on a complete table (the degree of both sides
    # of the identity) and to maxDegree otherwise: the verdict and the
    # first differing degree are the identity's
    ok, result = comparison_check(gamma, max_deg, zeta, series)
    top = zeta.degree + series.period if series.complete else max_deg
    x_log, _ = series_log_derivative(zeta, top)
    # S(x, 0, .., 0) with 0^0 = 1: a cell counts iff its later exponents
    # vanish
    first = {e[0]: c for e, c in table_terms(series).items() if not any(e[1:])}
    factor = math.factorial(gamma.n - 1)
    differ = [k for k in range(1, top + 1)
              if first.get(k % series.period, 0) != -factor * x_log[k]]
    assert ok == (not differ) == result["corrected_equal"]
    assert result["comparison_degree_free"] == series.complete
    assert (result["first_difference"] or {}).get("index") == (
        differ[0] if differ else None)
    return ok


def test_comparison_verdict_equals_the_series_inverse_on_the_panels():
    # the benchmark and demo panels, with the orders product read as the
    # comparison check reads it: in full on a complete table, else to
    # maxDegree + 1
    configs = [m["config"] for members in PANELS.values() for m in members]
    configs += [{**base, "maxDegree": 12} for base in cli.DEMO_PANEL]
    complete = set()
    for cfg in configs:
        if cfg["gamma"]["kind"] != "translation":
            continue
        gamma = TranslationSubgroup(cfg["n"], cfg["gamma"]["basis"])
        deg = cfg["maxDegree"]
        table = selberg_series_translation(gamma, deg, GEODESIC)
        complete.add(table.complete)
        assert _assert_comparison_verdict_is_the_series_inverse(
            gamma, deg, zeta_positive_orders(
                gamma, None if table.complete else deg + 1), table)
    assert complete == {True, False}


def test_comparison_verdict_equals_the_series_inverse_on_sparse_zetas():
    # constant term 1, signed coefficients with gaps, and degrees on both
    # sides of maxDegree + 1; D = 3, so the table is complete from
    # maxDegree 2 on
    rng = random.Random(20261020)
    gamma = TranslationSubgroup(3, [[1, 0], [-1, 3]])
    tables = {}
    above = below = 0
    for _ in range(200):
        max_deg = rng.randint(1, 30)
        degree = rng.randint(1, 2 * max_deg + 4)
        coeffs = [1] + [rng.choice([0, 0, 0, rng.randint(-9, 9)])
                        for _ in range(degree)]
        coeffs[-1] = coeffs[-1] or rng.choice([-1, 1])
        zeta = IntPolynomial(coeffs)
        above += zeta.degree > max_deg + 1
        below += zeta.degree <= max_deg + 1
        if max_deg not in tables:
            tables[max_deg] = selberg_series_translation(gamma, max_deg,
                                                         GEODESIC)
        _assert_comparison_verdict_is_the_series_inverse(gamma, max_deg, zeta,
                                                         tables[max_deg])
    assert above > 50 and below > 50
    assert {t.complete for t in tables.values()} == {True, False}


def _sweep_subgroups():
    """The translation members of the benchmark and demo panels, and 60
    seeded subgroups with n = 2..5, each with a period table of at most
    4,096 cells."""
    configs = [m["config"] for members in PANELS.values() for m in members]
    configs += list(cli.DEMO_PANEL)
    out = {}
    for cfg in configs:
        if cfg["gamma"]["kind"] == "translation":
            out[cfg["n"], str(cfg["gamma"]["basis"])] = TranslationSubgroup(
                cfg["n"], cfg["gamma"]["basis"])
    panel = list(out.values())
    rng = random.Random(20261021)
    seeded = []
    for n in (2, 3, 4, 5):
        while len(seeded) < 15 * (n - 1):
            gamma = random_type_zero_subgroup(rng, n, bound=9 if n < 4 else 2)
            if gamma.image.diag[-1] ** (n - 1) <= 4096:
                seeded.append(gamma)
    return panel, seeded


def _bumped_cell(table, k):
    return table_from_terms(table, table_terms(table),
                            {(k,) + (0,) * (table.nvars - 1): 1})


def test_comparison_holds_and_catches_every_single_tampering():
    # on complete tables the identity reads all of Z+ and all of one
    # period: it holds on every subgroup, and +1 on any coefficient of Z+,
    # up to two above its degree, or on any period cell of the first axis
    # fails it at that degree (a cell k at x^k, the cell 0 at x^D)
    panel, seeded = _sweep_subgroups()
    assert len(panel) >= 12 and len(seeded) == 60
    tamperings = 0
    for gamma in panel + seeded:
        max_deg = max(gamma.image.diag[-1] - 1, 1)
        table = selberg_series_translation(gamma, max_deg, GEODESIC)
        zeta = zeta_positive_orders(gamma)
        assert table.complete
        assert comparison_check(gamma, max_deg, zeta, table)[0]
        for j in range(1, zeta.degree + 3):
            coeffs = zeta.coeffs + [0, 0]
            coeffs[j] += 1
            ok, result = comparison_check(gamma, max_deg,
                                          IntPolynomial(coeffs), table)
            assert not ok and result["first_difference"]["index"] == j
            tamperings += 1
        for k in range(table.period):
            ok, result = comparison_check(gamma, max_deg, zeta,
                                          _bumped_cell(table, k))
            assert not ok
            assert result["first_difference"]["index"] == (
                k or table.period)
            tamperings += 1
    assert tamperings > 2000


def test_comparison_needs_constant_term_1():
    gamma = TranslationSubgroup(2, [[2]])
    with pytest.raises(ValueError, match="constant term"):
        comparison_check(gamma, 4, IntPolynomial([-1, 0, 1]),
                         selberg_series_translation(gamma, 4, GEODESIC))
