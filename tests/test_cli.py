import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta import cli, selberg
from latzeta.cli import (
    AFFINE_CHECKS,
    TRANSLATION_CHECKS,
    _CHECKS,
    ConfigError,
    RunConfig,
    demo_suite,
    dumps_report,
    main,
    run_config,
)
from latzeta.cayley import build_graph, export_edge_list, perturb_adjacency
from latzeta.lattice import GEODESIC
from latzeta.polynomials import IntPolynomial
from latzeta.quotient import TranslationSubgroup
from latzeta.selberg import comparison_check, selberg_series_translation
from latzeta.zeta import zeta_positive_orders
from perfbench import spans, workloads
from _oracles import (piece_dicts, rational_from_pieces, table_from_terms,
                      table_terms)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


BASIC = {"n": 2, "gamma": {"kind": "translation", "basis": [[2]]},
         "maxDegree": 12, "checks": "all"}


def test_run_all_checks_n2(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--config", write_config(tmp_path, BASIC),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    expected = IntPolynomial.one_minus_power(2, 2).to_json_coeffs()
    results = report["results"]
    assert results["positive_zeta"]["determinant"] == expected
    assert results["positive_zeta"]["orders_product"] == expected
    assert results["lfunction"]["lfunction"] == expected
    assert results["geodesic_oracle"]["euler_truncated"] == expected


def test_invalid_config_type_violation_names_generator(tmp_path, capsys):
    cfg = {"n": 2, "gamma": {"kind": "translation", "basis": [[1]]},
           "checks": ["positive_zeta"]}
    code = main(["run", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "(1,)" in err and "type 1" in err


@pytest.mark.parametrize("n, basis, generator", [
    (2, [[1]], "(1,)"),
    (3, [[1, 0], [-1, 1]], "(0, 1)"),
])
def test_type_violation_message_states_the_rule(tmp_path, capsys, n, basis,
                                                generator):
    # the rule a config can meet, not the API's check_types argument,
    # which no config key reaches
    cfg = {"n": n, "gamma": {"kind": "translation", "basis": basis}}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'gamma.basis'" in err and generator in err
    assert (f"each generator's coordinate sum must be divisible by n = {n}"
            in err)
    assert "check_types" not in err


def test_invalid_config_shapes(tmp_path, capsys):
    bad = [
        {"n": 1, "gamma": {"kind": "translation", "basis": []}},
        {"n": 2, "gamma": {"kind": "translation", "basis": [[1, 0]]}},
        {"n": 2, "gamma": {"kind": "nonsense", "basis": [[2]]}},
        {"n": 2, "gamma": {"kind": "translation", "basis": [[2]]},
         "checks": ["no_such_check"]},
        {"n": 2, "gamma": {"kind": "translation", "basis": [[2]]},
         "tolerance": -1},
    ]
    for obj in bad:
        assert main(["run", "--config", write_config(tmp_path, obj)]) == 2


def _config_with(basis=([3, 0], [0, 3]), **fields):
    return {"n": 3, "gamma": {"kind": "translation", "basis": list(basis)},
            "checks": ["positive_zeta"], **fields}


@pytest.mark.parametrize("changes, field", [
    ({"basis": [[3.7, 0], [0, 3]]}, "gamma.basis"),
    ({"basis": [["a", 0], [0, 3]]}, "gamma.basis"),
    ({"caps": []}, "caps"),
    ({"caps": {"maxVertices": "10"}}, "caps.maxVertices"),
    ({"perturb": {"type": 1, "row": 99, "col": 0}}, "perturb.row"),
    ({"perturb": {"type": 1, "row": -1, "col": 0}}, "perturb.row"),
    ({"perturb": {"type": 1, "row": 0, "col": 0, "delta": 10 ** 30}},
     "perturb.delta"),
    # 9 vertices, entries of at most binom(3, 1) = 3: 9 * (10^9 + 3)^2 < 2^63
    ({"perturb": {"type": 1, "row": 0, "col": 0, "delta": -2 * 10 ** 9}},
     "perturb.delta"),
    # keys no field names: refused rather than left at the default
    ({"maxVertices": 4}, "maxVertices"),
    ({"maxdegree": 4}, "maxdegree"),
    # the former L-function rounding tolerance, whatever its value
    ({"tolerance": float("nan")}, "tolerance"),
    ({"tolerance": float("inf")}, "tolerance"),
    ({"tolerance": True}, "tolerance"),
    ({"tolerance": 10 ** 400}, "tolerance"),
    ({"caps": {"maxVertices": 9, "acknowledgelarge": True}},
     "caps.acknowledgelarge"),
    ({"perturb": {"type": 1, "row": 0, "col": 1, "Delta": 5}},
     "perturb.Delta"),
    # a run that verifies nothing, or one check twice
    ({"checks": []}, "checks"),
    ({"checks": ["ihara", "positive_zeta", "ihara"]}, "checks"),
], ids=["basis_float", "basis_string", "caps_list", "max_vertices_string",
        "perturb_row_too_large", "perturb_row_negative", "perturb_delta_huge",
        "perturb_delta_overflows_int64", "unknown_root_max_vertices",
        "unknown_root_misspelt", "tolerance_nan", "tolerance_infinite",
        "tolerance_bool", "tolerance_above_float", "unknown_caps_key",
        "unknown_perturb_key",
        "checks_empty", "checks_duplicate"])
def test_bad_config_field_exits_2_and_names_it(tmp_path, capsys, changes,
                                                field):
    path = write_config(tmp_path, _config_with(**changes))
    assert main(["run", "--config", path]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("gamma, field", [
    ({"kind": "translation", "basis": [[3, 0], [0, 3]], "perms": [[1, 2, 0]]},
     "gamma.perms"),
    ({"kind": "translation", "basis": [[3, 0], [0, 3]],
      "lattice": [[3, 0], [0, 3]]}, "gamma.lattice"),
    ({"kind": "affine", "lattice": [[3, 0], [0, 3]], "perms": [],
      "basis": [[3, 0], [0, 3]]}, "gamma.basis"),
], ids=["perms_on_translation", "lattice_on_translation", "basis_on_affine"])
def test_unknown_gamma_key_exits_2_and_names_it(tmp_path, capsys, gamma,
                                                 field):
    path = write_config(tmp_path, {"n": 3, "gamma": gamma})
    assert main(["run", "--config", path]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


def _affine_config_with(lattice=([3, 0], [0, 3]), perms=([1, 2, 0],),
                        **fields):
    return {"n": 3, "gamma": {"kind": "affine", "lattice": list(lattice),
                              "perms": list(perms)}, "maxDegree": 4, **fields}


@pytest.mark.parametrize("changes, field", [
    ({"perms": [5]}, "gamma.perms"),
    ({"perms": [[1.0, 2, 0]]}, "gamma.perms"),
    ({"perms": [[True, 2, 0]]}, "gamma.perms"),
    ({"lattice": [[3, 0], [0, 6]]}, "gamma.lattice"),
    # the perturbation acts on a translation quotient's graph; an affine
    # run has none, so it is refused rather than ignored
    ({"perturb": {"type": 1, "row": 99, "col": 0, "delta": 5}}, "perturb"),
], ids=["perm_not_a_list", "perm_float_entry", "perm_bool_entry",
        "lattice_not_perm_stable", "perturb_on_affine"])
def test_bad_affine_config_field_exits_2_and_names_it(tmp_path, capsys,
                                                       changes, field):
    path = write_config(tmp_path, _affine_config_with(**changes))
    assert main(["run", "--config", path]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("obj, field, message", [
    ({"n": 2, "gamma": {"kind": "translation", "basis": [[1]]}},
     "gamma.basis", "type 1"),
    ({"n": 2, "gamma": {"kind": "translation", "basis": [[0]]}},
     "gamma.basis", "singular"),
    (_affine_config_with(lattice=[[1, 0], [0, 1]]), "gamma.lattice",
     "type 1"),
], ids=["translation_type_violation", "translation_singular",
        "affine_type_violation"])
def test_invalid_subgroup_is_refused_at_parse_time(tmp_path, capsys, obj,
                                                    field, message):
    with pytest.raises(ConfigError, match=message) as info:
        RunConfig.from_json_obj(obj)
    assert info.value.field_name == field
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and message in err


def test_check_tuples_list_the_registry():
    assert TRANSLATION_CHECKS == tuple(_CHECKS["translation"])
    assert AFFINE_CHECKS == tuple(_CHECKS["affine"])


# the cyclic subgroup of index D = 2049: from maxDegree 2048 on, its period
# table has 2049^2 cells, above the 2^22 cap
_WIDE_PERIOD = ([1, 0], [-1, 2049])


def test_translation_series_grid_cap_exits_3_before_allocating():
    # maxDegree 100000 on this subgroup would need a 2049 x 2049 table
    cfg = RunConfig.from_json_obj(_config_with(
        basis=_WIDE_PERIOD, maxDegree=100000, checks=["selberg_series"]))
    tracemalloc.start()
    try:
        code, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and not report["pass"]
    assert "sub-grid" in report["error"]
    assert peak < 1 << 20


def test_affine_scan_cell_cap_exits_3_before_allocating():
    # the identity coset box alone has about (2 * 10^6 / 3)^2 cells
    cfg = RunConfig.from_json_obj(_affine_config_with(maxDegree=10 ** 6))
    tracemalloc.start()
    try:
        code, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and not report["pass"]
    assert "affine class scan" in report["error"]
    assert "cells" in report["error"]
    assert peak < 1 << 20


def test_graph_edge_cap_exits_3_before_building_the_generators(tmp_path,
                                                               capsys):
    # the index-30 type-zero subgroup of rank 30, with columns
    # e_1 - e_2, .., e_28 - e_29 and 30 e_29, would need 2^30 - 2 generators;
    # with every check, comparison runs first and the cell cap of the
    # series' period table exits 3 before any graph is built
    n = 30
    basis = [[n if i == j == n - 2 else (i == j) - (i == j + 1)
              for j in range(n - 1)] for i in range(n - 1)]
    for checks in (["positive_zeta"], "all"):
        path = write_config(tmp_path, {"n": n, "checks": checks,
                                       "gamma": {"kind": "translation",
                                                 "basis": basis}})
        tracemalloc.start()
        try:
            code = main(["run", "--config", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        captured = capsys.readouterr()
        assert ("rank 30" in captured.out) == (checks != "all")
        assert "Traceback" not in captured.out + captured.err
        assert peak < 1 << 20


def test_perturbed_comparison_reads_the_subgroup_only(monkeypatch):
    # the comparison identity concerns the subgroup, so a perturbed config
    # builds no graph and no determinant for it, and the vertex cap, which
    # guards the graph, does not apply
    def never(*args, **kwargs):
        raise AssertionError("the comparison read the graph")

    obj = {"n": 2, "gamma": {"kind": "translation", "basis": [[200]]},
           "checks": ["comparison"], "caps": {"maxVertices": 100}}
    plain_code, plain = run_config(RunConfig.from_json_obj(obj))
    monkeypatch.setattr(cli, "build_graph", never)
    monkeypatch.setattr(cli, "zeta_positive_det", never)
    code, report = run_config(RunConfig.from_json_obj(
        {**obj, "perturb": {"type": 1, "row": 0, "col": 1, "delta": 1}}))
    assert code == plain_code == 0 and report["pass"]
    result, expected = (dict(r["results"]["comparison"])
                        for r in (report, plain))
    del result["timing_s"], expected["timing_s"]
    assert result == expected


@pytest.mark.parametrize("checks, code", [("all", 3), (["comparison"], 0)])
def test_comparison_reads_a_truncated_orders_product_above_the_vertex_cap(
        checks, code):
    # the orders product of N = 10^9 has N + 1 coefficients, but the
    # comparison reads it only to maxDegree + 1; with all checks it runs
    # first and passes, and the next check exits 3 on the vertex cap
    cfg = RunConfig.from_json_obj(
        {"n": 2, "gamma": {"kind": "translation", "basis": [[10 ** 9]]},
         "checks": checks})
    tracemalloc.start()
    try:
        got, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == code and peak < 1 << 20
    assert report["results"]["comparison"]["pass"]
    if code == 3:
        assert report["error"] == ("quotient has 1000000000 vertices, "
                                   "above the cap 4096")


def test_a_dense_orders_product_prices_the_comparison_before_it_spins(
        monkeypatch):
    # direction orders 6, 600 and 600 give Z+ 1,801 nonzero coefficients,
    # and the period is 600: the table is complete, so the identity reads
    # Z+ in full and one period whatever the maxDegree, and passes at
    # 4,000,000; its price comes before Z+ is built, so one word-pair below
    # it the run exits 3 without calling the orders product
    obj = {"n": 3, "gamma": {"kind": "translation",
                             "basis": [[6, 0], [0, 600]]},
           "maxDegree": 4_000_000, "checks": ["comparison"]}
    tracemalloc.start()
    try:
        code, report = run_config(RunConfig.from_json_obj(obj))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = report["results"]["comparison"]
    assert code == 0 and peak < 4 << 20
    assert result["comparison_degree_free"] and result["period"] == 600
    assert len(result["selberg_specialized"]) == 601
    gamma = TranslationSubgroup(3, [[6, 0], [0, 600]])
    price = selberg.comparison_price(gamma, 4_000_000,
                                     selberg_series_translation(
                                         gamma, 4_000_000, GEODESIC))
    monkeypatch.setattr(selberg, "COMPARISON_STEPS", price - 1)
    monkeypatch.setattr(cli, "zeta_positive_orders", _never)
    code, report = run_config(RunConfig.from_json_obj(obj))
    assert code == 3
    assert report["error"] == (f"comparison to degree 4000000: its products "
                               f"take {price} word-pairs, above the cap of "
                               f"{price - 1}")


def _never(*args, **kwargs):
    raise AssertionError("Z+ was built")


def test_the_comparison_step_cap_is_exact(monkeypatch):
    # 3I at maxDegree 12: a complete table of size 3, and Z+ = (1 - u^3)^9,
    # read to degree t = 27, has at most 27/3 + 1 = 10 terms of one word;
    # each of its three factors (1 - u^3)^3 has 4 terms, so the pairs are
    # 10 * (12 + 3 + 4) = 190, and the 27 + 3 dense slots count 128 each
    gamma = TranslationSubgroup(3, [[3, 0], [0, 3]])
    table = selberg_series_translation(gamma, 12, GEODESIC)
    assert selberg.comparison_price(gamma, 12, table) == 190 + 128 * 30
    cfg = RunConfig.from_json_obj(_config_with(maxDegree=12,
                                               checks=["comparison"]))
    monkeypatch.setattr(selberg, "COMPARISON_STEPS", 4030)
    assert run_config(cfg)[0] == 0
    monkeypatch.setattr(selberg, "COMPARISON_STEPS", 4029)
    code, report = run_config(cfg)
    assert code == 3 and "take 4030 word-pairs" in report["error"]


def test_a_comparison_over_its_price_exits_3_before_building_z(monkeypatch):
    # 2046 I at maxDegree 2045: the table is complete (2046^2 cells, under
    # the cell cap), but Z+ = (1 - u^2046)^6138 has degree 12,558,348 and
    # 6,139 coefficients of about 6,132 bits
    monkeypatch.setattr(cli, "zeta_positive_orders", _never)
    cfg = RunConfig.from_json_obj(
        {"n": 3, "gamma": {"kind": "translation",
                           "basis": [[2046, 0], [0, 2046]]},
         "maxDegree": 2045, "checks": ["comparison"]})
    tracemalloc.start()
    try:
        code, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 4 << 20
    assert report["error"].startswith("comparison to degree 2045: ")


@pytest.mark.parametrize("n, basis, max_degree", [
    (2, [[2]], 1), (2, [[4]], 3), (3, [[1, 0], [-1, 3]], 2),
    (3, [[3, 0], [0, 3]], 5), (3, [[6, 0], [0, 600]], 5),
])
def test_comparison_report_equals_the_full_orders_product(n, basis,
                                                          max_degree):
    # the check reads Z+ in full on a complete table, and to maxDegree + 1
    # on the incomplete one of period 600, where the literal form reads Z'
    # to maxDegree and the coefficient of Z+ at maxDegree + 1 is nonzero
    gamma = TranslationSubgroup(n, basis)
    code, report = run_config(RunConfig.from_json_obj(
        {"n": n, "gamma": {"kind": "translation", "basis": basis},
         "maxDegree": max_degree, "checks": ["comparison"]}))
    result = report["results"]["comparison"]
    del result["timing_s"], result["pass"]
    ok, expected = comparison_check(
        gamma, max_degree, zeta=zeta_positive_orders(gamma),
        series=selberg_series_translation(gamma, max_degree, GEODESIC))
    assert zeta_positive_orders(gamma).coefficient(max_degree + 1) != 0
    assert code == 0 and ok and result == expected
    assert result["comparison_degree_free"] == (basis != [[6, 0], [0, 600]])


def test_rational_check_exits_3_before_building_the_cone_form(monkeypatch):
    # the period table's cap must fire before the cone sums start, so a
    # table that can never finish exits at once
    def never(*args, **kwargs):
        raise AssertionError("the cone form was built")

    monkeypatch.setattr(cli, "selberg_rational_translation", never)
    cfg = RunConfig.from_json_obj(_config_with(
        basis=_WIDE_PERIOD, maxDegree=2048, checks=["selberg_rational"]))
    code, report = run_config(cfg)
    assert code == 3 and not report["pass"]
    assert "sub-grid" in report["error"]


def test_perturb_in_range_is_accepted(tmp_path):
    obj = _config_with(perturb={"type": 2, "row": 8, "col": 0})
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 1
    obj = _config_with(perturb={"type": 1, "row": 0, "col": 0,
                                "delta": 10 ** 9},
                       checks=["invariants"])
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 1


def test_disagreeing_routes_report_the_first_differing_coefficient():
    # the benchmark's negative control: +1 on a diagonal type-1 entry moves
    # the u^1 coefficient of the determinant and nothing below it
    cfg = {"n": 4, "gamma": {"kind": "translation",
                             "basis": [[4, 0, 1], [-4, 2, 1], [0, -2, 2]]},
           "maxDegree": 6, "checks": ["positive_zeta", "lfunction"],
           "perturb": {"type": 1, "row": 5, "col": 5, "delta": 1}}
    code, report = run_config(RunConfig.from_json_obj(cfg))
    assert code == 1
    zeta_diff = report["results"]["positive_zeta"]["first_difference"]
    lfun_diff = report["results"]["lfunction"]["first_difference"]
    assert zeta_diff["index"] == lfun_diff["index"] == 1
    # determinant against orders, L-function against determinant
    assert zeta_diff["left"] == lfun_diff["right"]
    assert zeta_diff["right"] == lfun_diff["left"] != zeta_diff["left"]
    del cfg["perturb"]
    code, report = run_config(RunConfig.from_json_obj(cfg))
    assert code == 0
    assert report["results"]["positive_zeta"]["first_difference"] is None
    assert report["results"]["lfunction"]["first_difference"] is None


def test_affine_config_restricted_checks(tmp_path):
    cfg = {"n": 2, "gamma": {"kind": "affine", "lattice": [[2]],
                             "perms": [[1, 0]]},
           "maxDegree": 6, "checks": ["selberg_series"]}
    code = main(["run", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    cfg["checks"] = ["positive_zeta"]
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2


def test_importing_the_cli_leaves_argparse_out():
    # run_config callers, the benchmark's set-up among them, import the
    # module; only main builds a parser
    code = "import sys, latzeta.cli; print('argparse' in sys.modules)"
    package_root = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.strip() == "False"


def test_importing_the_cli_leaves_dataclasses_out():
    # the value types are plain slotted classes, so no class is generated
    # at import
    code = "import sys, latzeta.cli; print('dataclasses' in sys.modules)"
    package_root = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.strip() == "False"


def test_benchmark_panels_import_nothing_on_first_call():
    # each benchmark pass runs in a fresh process, so a numpy routine that
    # imports a submodule on its first call (np.unique and np.isin pull in
    # numpy.ma, about 15 ms) costs every workload; one run of every member
    # of the three panels must leave sys.modules as the import left it
    code = "\n".join([
        "import sys",
        "import latzeta.cli as cli",
        "from perfbench.workloads import PANELS, members",
        "before = set(sys.modules)",
        "for workload in PANELS:",
        "    for member in members(workload, 1):",
        "        cfg = cli.RunConfig.from_json_obj(member['config'])",
        "        cli.dumps_report(cli.run_config(cfg)[1])",
        "print(sorted(set(sys.modules) - before))"])
    package_root = str(Path(cli.__file__).resolve().parents[1])
    repo_root = str(Path(package_root).parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             [package_root, repo_root])})
    assert out.stdout.strip() == "[]"


def test_resource_cap_exit_code(tmp_path):
    cfg = {"n": 3, "gamma": {"kind": "translation", "basis": [[3, 0], [0, 3]]},
           "checks": ["positive_zeta"], "caps": {"maxVertices": 4}}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 3


def test_raising_cap_needs_acknowledgement(tmp_path):
    cfg = {"n": 2, "gamma": {"kind": "translation", "basis": [[2]]},
           "checks": ["positive_zeta"], "caps": {"maxVertices": 10000}}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    cfg["caps"]["acknowledgeLarge"] = True
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0


def test_perturbation_fails_run(tmp_path):
    cfg = dict(BASIC)
    cfg["checks"] = ["positive_zeta", "lfunction", "geodesic_oracle"]
    cfg["perturb"] = {"type": 1, "row": 0, "col": 1, "delta": 1}
    out = tmp_path / "r.json"
    code = main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert not report["results"]["positive_zeta"]["pass"]
    assert not report["results"]["lfunction"]["pass"]
    assert not report["results"]["geodesic_oracle"]["pass"]


def test_off_diagonal_perturbation_breaks_the_adjacency_identities():
    # +1 on one off-diagonal type-1 entry at n = 3: A_1^T no longer equals
    # A_2 and A_1 no longer commutes with A_2
    cfg = {"n": 3, "gamma": {"kind": "translation",
                             "basis": [[3, 0], [0, 3]]},
           "maxDegree": 4, "checks": ["invariants"],
           "perturb": {"type": 1, "row": 0, "col": 1, "delta": 1}}
    code, report = run_config(RunConfig.from_json_obj(cfg))
    assert code == 1
    flags = report["results"]["invariants"]
    assert flags["pass"] is False
    assert flags["typed_adjacency_transpose"] is False
    assert flags["typed_adjacency_commute"] is False
    # the characters do not see the graph, and the length self-test, which
    # depends on n and the scale only, is in the unit tests
    assert "length_conjugation_invariance" not in flags
    assert "length_factorial_integrality" not in flags
    assert flags["satake_product_is_one"] is True
    del cfg["perturb"]
    code, report = run_config(RunConfig.from_json_obj(cfg))
    assert code == 0
    assert report["results"]["invariants"]["typed_adjacency_transpose"] is True
    assert report["results"]["invariants"]["typed_adjacency_commute"] is True


def test_clean_run_builds_graph_and_determinant_once(monkeypatch):
    import latzeta.cayley
    import latzeta.cli
    import latzeta.selberg
    import latzeta.zeta

    homes = {"build_graph": latzeta.cayley,
             "zeta_positive_det": latzeta.zeta}
    calls = dict.fromkeys(homes, 0)
    for name, home in homes.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (latzeta.cli, latzeta.selberg, latzeta.zeta):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, report = run_config(RunConfig.from_json_obj(BASIC))
    assert code == 0
    assert "comparison" in report["results"]
    assert calls == {"build_graph": 1, "zeta_positive_det": 1}


def test_parse_and_run_build_the_subgroup_once(monkeypatch):
    from latzeta import intmat

    calls = []
    original = intmat.snf_with_transforms
    monkeypatch.setattr(intmat, "snf_with_transforms",
                        lambda m: calls.append(m) or original(m))
    cfg = RunConfig.from_json_obj(
        _config_with(checks=["positive_zeta", "lfunction", "invariants"]))
    code, report = run_config(cfg)
    assert code == 0 and report["pass"]
    assert len(calls) == 1


def test_tolerance_key_exits_2_without_a_traceback(tmp_path, capsys):
    # the L-function is exact, so there is no rounding left to tolerate
    cfg = {"n": 3, "gamma": {"kind": "translation", "basis": [[3, 0], [0, 6]]},
           "tolerance": 1e-80, "checks": ["positive_zeta", "lfunction"]}
    out = tmp_path / "report.json"
    code = main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "tolerance" in err and "Traceback" not in err
    assert not out.exists()


def test_run_never_lists_backtrackless_cycles(monkeypatch):
    import latzeta.zeta

    def refuse(*args, **kwargs):
        raise AssertionError("the cycle oracle listed cycles")

    for name in ("enumerate_backtrackless_cycles",
                 "backtrackless_euler_truncation"):
        monkeypatch.setattr(latzeta.zeta, name, refuse)
    cfg = {"n": 3, "gamma": {"kind": "translation",
                             "basis": [[3, 0], [0, 3]]},
           "maxDegree": 8, "checks": ["ihara"]}
    code, report = run_config(RunConfig.from_json_obj(cfg))
    assert code == 0
    ihara = report["results"]["ihara"]
    assert ihara["oracle"] == "match" and ihara["oracle_degree"] == 8
    assert ihara["primitive_cycle_count"] == 64242


def test_report_round_trip_and_determinism(tmp_path):
    cfg = RunConfig.from_json_obj(BASIC)
    code1, report1 = run_config(cfg)
    code2, report2 = run_config(cfg)
    assert code1 == code2 == 0
    text1 = dumps_report(report1)
    # parsing and re-serializing is byte-identical
    assert dumps_report(json.loads(text1)) == text1

    def strip_timings(r):
        out = json.loads(dumps_report(r))
        for result in out["results"].values():
            result.pop("timing_s", None)
        return out

    assert strip_timings(report1) == strip_timings(report2)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_STRINGS = st.text(st.characters(max_codepoint=0x1F)
                   | st.characters(min_codepoint=0x80)) | st.text()
_SCALARS = st.one_of(
    _STRINGS,
    st.integers() | st.sampled_from([2 ** 64, -(10 ** 300)]),
    st.booleans(),
    st.none(),
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                   1e300]),
)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_STRINGS, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(obj=_TREES)
def test_dumps_report_writes_the_bytes_of_json_dumps(obj):
    assert dumps_report(obj) == _json_dumps(obj)


# the term rows of the series and rationals, [[int, ...], str], which the
# writer forms without the recursive path
_EXPONENT_ROWS = st.lists(
    st.integers(0, 40) | st.sampled_from([0, -1, 2 ** 64, -(10 ** 300)]),
    min_size=1, max_size=5)
_COEFFICIENTS = st.integers(-10 ** 30, 10 ** 30).map(str) | _STRINGS
_TERM_ROWS = st.tuples(_EXPONENT_ROWS, _COEFFICIENTS).map(list)
_TERM_TABLES = st.lists(_TERM_ROWS, min_size=1, max_size=8)


def _near_miss(row):
    exps, coeff = row
    return st.sampled_from([
        [[*exps[:-1], True], coeff],
        [[*exps, "1/2"], coeff],
        [[], coeff],
        (exps, coeff),
        [exps, coeff, coeff],
        [exps],
        [exps, len(coeff)],
        [[exps], coeff],
        [[*exps[:-1], [exps[-1]]], coeff],
        [tuple(exps), coeff],
        [exps, None],
        "odd row",
    ])


# a table with one row of another shape among its term rows, at any place
_NEAR_MISS_TABLES = st.tuples(_TERM_TABLES, _TERM_ROWS.flatmap(_near_miss),
                              st.integers(0, 8)).map(
    lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=_TERM_TABLES, key=_STRINGS)
def test_term_tables_take_the_row_path_with_the_bytes_of_json_dumps(
        table, key):
    assert cli._term_table(table, "") is not None
    for obj in (table, {key: table}, {"a": [{"terms": table}, 1]}):
        assert dumps_report(obj) == _json_dumps(obj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=_NEAR_MISS_TABLES, key=_STRINGS)
def test_near_miss_tables_take_the_recursive_path(table, key):
    assert cli._term_table(table, "") is None
    for obj in (table, {key: table}, {"a": [{"terms": table}, 1]}):
        assert dumps_report(obj) == _json_dumps(obj)


@pytest.mark.parametrize("value", [
    {1: "int key"}, [1, b"bytes"], {"a": {1.5}}, [IntPolynomial([1])],
    [[[1, 2], "3"], [[1, {2}], "3"]], [[[1, 2], b"3"]]])
def test_dumps_report_refuses_other_types(value):
    with pytest.raises(TypeError):
        dumps_report(value)


@pytest.mark.parametrize("workload", sorted(workloads.PANELS))
def test_dumps_report_matches_json_dumps_on_the_panels(workload):
    for seed in (1, 2, 7):
        for member in workloads.members(workload, seed):
            _, report = run_config(RunConfig.from_json_obj(member["config"]))
            assert dumps_report(report) == _json_dumps(report)


@pytest.mark.parametrize("perturb", [None, (1, 0, 0, 1)])
def test_dumps_report_matches_json_dumps_on_the_demo(perturb):
    _, report = demo_suite(perturb=perturb)
    assert dumps_report(report) == _json_dumps(report)


def test_export_graph_cli(tmp_path, capsys):
    path = write_config(tmp_path, BASIC)
    assert main(["export-graph", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == sorted(lines)
    assert all(len(line.split(" ")) == 4 for line in lines)


def test_export_graph_applies_the_perturbation(tmp_path, capsys):
    obj = dict(BASIC, perturb={"type": 1, "row": 0, "col": 1, "delta": 5})
    assert main(["export-graph", "--config", write_config(tmp_path, obj)]) == 0
    perturbed = capsys.readouterr().out
    graph = build_graph(TranslationSubgroup(2, [[2]]))
    assert perturbed == export_edge_list(perturb_adjacency(graph, 1, 0, 1, 5))
    assert perturbed != export_edge_list(graph)


def test_export_graph_refuses_an_affine_config(tmp_path, capsys):
    path = write_config(tmp_path, _affine_config_with())
    assert main(["export-graph", "--config", path]) == 2
    captured = capsys.readouterr()
    assert "config field 'gamma.kind'" in captured.err and not captured.out


@pytest.mark.parametrize("command", ["run", "demo", "export-graph"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys,
                                                monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_config", "demo_suite", "export_edge_list"):
        monkeypatch.setattr(cli, name, never)
    out = str(tmp_path / "missing" / "report.json")
    argv = [command, "--out", out]
    if command != "demo":
        argv += ["--config", write_config(tmp_path, BASIC)]
    assert main(argv) == 2
    assert out in capsys.readouterr().err


@pytest.mark.parametrize("data, command", [
    (b'{"n": 2, "gamma": "\xff"}', "run"),
    (b"[" * 100000, "run"),
    (b'{"n": 2, "gamma": "\xff"}', "export-graph"),
    (b"[" * 100000, "export-graph"),
], ids=["non_utf8_run", "deeply_nested_run", "non_utf8_export",
        "deeply_nested_export"])
def test_unreadable_config_exits_2(tmp_path, capsys, data, command):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main([command, "--config", str(path)]) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err


def test_series_divisor_above_int64_exits_3(tmp_path, capsys):
    # Z / 2^64: the one Smith row is (1), but the modulus leaves int64
    obj = {"n": 2, "gamma": {"kind": "translation", "basis": [[2 ** 64]]},
           "maxDegree": 4, "checks": ["selberg_series"]}
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 3
    assert "largest elementary divisor" in capsys.readouterr().out


def test_demo_suite_passes():
    code, report = demo_suite(max_degree=8)
    assert code == 0
    assert report["pass"] is True


def test_module_demo_imports_the_cli_once(tmp_path):
    # the package exports run_config lazily, so running latzeta.cli as a
    # module does not import it a second time (a RuntimeWarning, here an
    # error)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "latzeta.cli",
         "demo"], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root})
    assert out.returncode == 0, out.stderr
    assert out.stdout.rstrip().endswith("panel: PASS")


def test_demo_negative_control_fails():
    code, report = demo_suite(perturb=(1, 0, 0, 1), max_degree=8)
    assert code == 1
    assert report["pass"] is False


def test_config_json_round_trip():
    cfg = RunConfig.from_json_obj(BASIC)
    again = RunConfig.from_json_obj(cfg.to_json_obj())
    assert again == cfg


def test_every_written_config_parses():
    """The configs the package and its benchmark write, and the README's
    example, carry only known keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme[readme.index("### Config format"):]
    written = [json.loads(re.search(r"```json\n(.*?)```", block, re.S)
                          .group(1))]
    for base in cli.DEMO_PANEL:
        written.append(dict(base))
        if base["gamma"]["kind"] == "translation":
            written.append({**base, "perturb": {"type": 1, "row": 0,
                                                "col": 0, "delta": 1}})
    for workload in workloads.PANELS:
        written += [m["config"] for m in workloads.members(workload, 1)]
    for obj in written:
        cfg = RunConfig.from_json_obj(obj)
        assert RunConfig.from_json_obj(cfg.to_json_obj()) == cfg


def test_geodesic_oracle_stops_at_the_degree_of_the_zeta():
    # Z+ and the Euler product have degree n N = 27 here, so a maxDegree of
    # 10^12 gives the result of 27 without allocating a list that long
    def geodesic_result(max_degree):
        cfg = RunConfig.from_json_obj(_config_with(
            maxDegree=max_degree, checks=["geodesic_oracle"]))
        code, report = run_config(cfg)
        result = report["results"]["geodesic_oracle"]
        del result["timing_s"]
        return code, result

    expected = geodesic_result(27)
    tracemalloc.start()
    try:
        huge = geodesic_result(10 ** 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert huge == expected and expected[0] == 0
    assert peak < 1 << 20


def test_traced_run_finds_every_span_target_and_counts_the_table():
    # the benchmark's tracer wraps its targets from outside the program, so
    # each must still be found once latzeta.cli is imported, and its
    # series_terms counter reads len(table.terms): one per nonzero cell,
    # and its affine_classes counter len() of the class scan's result
    gamma = TranslationSubgroup(3, [[3, 0], [0, 6]])
    affine = {m["name"]: m["config"]
              for m in workloads.PANELS["selberg_deep"]
              if m["config"]["gamma"]["kind"] == "affine"}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        tracer.member = "m"
        code, _ = cli.run_config(RunConfig.from_json_obj(
            {"n": 3, "gamma": {"kind": "translation",
                               "basis": [[3, 0], [0, 6]]},
             "maxDegree": 8, "checks": "all"}))
        for name, config in affine.items():
            tracer.member = name
            assert cli.run_config(RunConfig.from_json_obj(config))[0] == 0
    finally:
        tracer.restore()
    assert code == 0
    assert spans.leftover_wrappers() == []
    stats = tracer.stats["m"]
    assert stats["selberg.selberg_series_translation.calls"] == 1
    cells = table_terms(selberg_series_translation(gamma, 8))
    assert stats["selberg.series_terms"] == len(cells) > 1
    assert all(cells.values())
    assert {name: tracer.stats[name]["selberg.affine_classes"]
            for name in affine} == {"n3_affine_rot_D36": 163,
                                    "n4_affine_rot_D12": 68,
                                    "n4_affine_swap_D12": 173}


def _tampered_classes(classes, fault, max_deg):
    """The affine classes with the first class other than the identity
    dropped, or with its weight + 1; the series they give must differ."""
    parts = list(classes.parts)
    for i, (p, reps, weights, gaps, lcm) in enumerate(parts):
        other = np.flatnonzero(reps.any(axis=1)
                               | (p.images != tuple(range(classes.n))))
        if len(other):
            break
    j = other[0]
    if fault == "drop":
        keep = np.arange(len(reps)) != j
        parts[i] = (p, reps[keep], weights[keep], gaps[keep], lcm)
    else:
        weights = weights.copy()
        weights[j] += 1
        parts[i] = (p, reps, weights, gaps, lcm)
    out = selberg.AffineClasses(classes.n, classes.scale, parts)
    assert out.to_json_obj(max_deg) != classes.to_json_obj(max_deg)
    return out


def _faulty(route, fault):
    """The route of latzeta.cli with one fault: +1 on the coefficient
    ``fault`` of the polynomial or series it returns, or for a class list
    one class dropped or, for the affine classes, one weight + 1
    (:func:`_tampered_classes`)."""
    original = getattr(cli, route)

    def bump(poly):
        coeffs = poly.coeffs + [0] * (fault + 1 - len(poly.coeffs))
        coeffs[fault] += 1
        return IntPolynomial(coeffs)

    def faulty(*args, **kwargs):
        out = original(*args, **kwargs)
        if route in ("ihara_bass", "backtrackless_cycle_product"):
            return (bump(out[0]), *out[1:])
        if route == "enumerate_positive_geodesics":
            return out[1:]
        if route == "selberg_series_translation":
            return table_from_terms(out, table_terms(out), {fault: 1})
        if route == "selberg_rational_translation":
            # +1 on the numerator term u^arg of each piece, or the first of
            # each piece's n - 1 factors with its exponent times arg
            kind, arg = fault
            pieces = []
            for den, num in piece_dicts(out).items():
                if kind == "numerator":
                    num = {**num, arg: num.get(arg, 0) + 1}
                else:
                    den = (tuple(arg * a for a in den[0]), *den[1:])
                pieces.append((num, den))
            return rational_from_pieces(out.nvars, pieces)
        if route == "affine_conjugacy_classes":
            return _tampered_classes(out, fault, args[1])
        return bump(out)

    return faulty


_FAULT_CONFIGS = {
    "simple": {"n": 3, "gamma": {"kind": "translation",
                                 "basis": [[3, 0], [0, 3]]}, "maxDegree": 6},
    "multigraph": {"n": 3, "gamma": {"kind": "translation",
                                     "basis": [[1, 0], [-1, 3]]},
                   "maxDegree": 6},
    "affine": {"n": 3, "gamma": {"kind": "affine",
                                 "lattice": [[3, 0], [0, 3]],
                                 "perms": [[1, 2, 0]]}, "maxDegree": 12},
}
_ZETA_ROUTES = {"zeta_positive_det", "zeta_positive_orders",
                "lfunction_with_deviation"}
_READS_DET = {"geodesic_oracle", "lfunction", "positive_zeta"}
_SHARED_ROWS = [
    ("zeta_positive_det", 1, _READS_DET),
    ("zeta_positive_det", 5, _READS_DET),
    ("zeta_positive_det", 20, {"lfunction", "positive_zeta"}),
    ("zeta_positive_det", 27, {"lfunction", "positive_zeta"}),
    ("zeta_positive_orders", 1, {"comparison", "positive_zeta"}),
    ("zeta_positive_orders", 20, {"comparison", "positive_zeta"}),
    ("zeta_positive_orders", 27, {"comparison", "positive_zeta"}),
    ("lfunction_with_deviation", 1, {"lfunction"}),
    ("lfunction_with_deviation", 20, {"lfunction"}),
    ("lfunction_with_deviation", 27, {"lfunction"}),
    ("enumerate_positive_geodesics", "drop", {"geodesic_oracle"}),
    # the table's cell (0, 0) is also the coefficient of x^3 and x^6 in
    # S(x, 0), which comparison reads with period D = 3
    ("selberg_series_translation", (0, 0),
     {"comparison", "selberg_rational", "selberg_series"}),
    ("selberg_series_translation", (1, 0),
     {"comparison", "selberg_rational"}),
    ("selberg_series_translation", (0, 2), {"selberg_rational"}),
]
FAULT_MATRIX = [
    *[("simple", *row) for row in _SHARED_ROWS],
    *[("multigraph", *row) for row in _SHARED_ROWS],
    ("simple", "ihara_bass", 1, {"ihara"}),
    ("simple", "backtrackless_cycle_product", 2, {"ihara"}),
    ("simple", "backtrackless_cycle_product", 6, {"ihara"}),
    # tamperings of the rational 54 / ((1 - u^(0, 3)) (1 - u^(3, 0))): +1
    # on u^(7, 0), above maxDegree 6, and the factor 1 - u^(0, 3) made
    # 1 - u^(0, 9), whose exponent does not divide the period 3
    ("simple", "selberg_rational_translation", ("numerator", (7, 0)),
     {"selberg_rational"}),
    ("simple", "selberg_rational_translation", ("denominator", 3),
     {"selberg_rational"}),
    # blind spots: the Bass numerator is checked only by the Hashimoto
    # oracle, to depth min(maxDegree, 8) and on simple graphs, and an affine
    # subgroup only by its identity weight; ROADMAP items 1 and 2 flip these
    # rows to failing checks
    ("simple", "ihara_bass", 12, set()),
    ("simple", "ihara_bass", 18, set()),
    ("multigraph", "ihara_bass", 1, set()),
    ("multigraph", "ihara_bass", 12, set()),
    ("multigraph", "ihara_bass", 18, set()),
    ("multigraph", "backtrackless_cycle_product", 2, set()),
    ("multigraph", "backtrackless_cycle_product", 6, set()),
    ("affine", "affine_conjugacy_classes", "weight", set()),
    ("affine", "affine_conjugacy_classes", "drop", set()),
    # no fault
    ("simple", None, None, set()),
    ("multigraph", None, None, set()),
    ("affine", None, None, set()),
]


@pytest.mark.parametrize(
    "config, route, fault, fails", FAULT_MATRIX,
    ids=[f"{c}-{r or 'clean'}-{f}" for c, r, f, _ in FAULT_MATRIX])
def test_single_fault_fails_exactly_these_checks(monkeypatch, config, route,
                                                fault, fails):
    if route is not None:
        monkeypatch.setattr(cli, route, _faulty(route, fault))
    code, report = run_config(RunConfig.from_json_obj(
        {**_FAULT_CONFIGS[config], "checks": "all"}))
    failed = {name for name, r in report["results"].items()
              if not r["pass"]}
    assert failed == fails
    assert code == (1 if fails else 0)
    # the polynomial checks, and the comparison's identity, name the
    # coefficient that the fault moved; a dropped geodesic class of length
    # 3 first shows at u^3
    if route in _ZETA_ROUTES:
        for name in fails & {"comparison", "positive_zeta", "lfunction",
                             "geodesic_oracle"}:
            assert report["results"][name]["first_difference"]["index"] \
                == fault
    if route == "enumerate_positive_geodesics":
        assert report["results"]["geodesic_oracle"]["first_difference"][
            "index"] == 3
    geodesic = report["results"].get("geodesic_oracle")
    if geodesic is not None and "geodesic_oracle" not in fails:
        assert geodesic["first_difference"] is None
    # and the identity names the term or the factor
    if route == "selberg_rational_translation":
        assert report["results"]["selberg_rational"][
            "identity_first_difference"] == (
                {"exponent": [7, 0]} if fault[0] == "numerator"
                else {"denominator_factor": [0, 9]})


@pytest.mark.parametrize("check, expected", [("ihara", 0), ("comparison", 0)])
def test_a_huge_max_degree_on_a_small_quotient_allocates_little(check,
                                                                expected):
    # maxDegree 10^9 on the 9-vertex quotient: the Ihara series is a
    # polynomial of degree 54, and the comparison's identity reads the
    # 9-cell period table, one period of 3 and the orders product, which
    # has degree 27
    cfg = RunConfig.from_json_obj(
        _config_with(maxDegree=10 ** 9, checks=[check]))
    tracemalloc.start()
    try:
        code, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == expected and peak < 1 << 20
    if check == "ihara":
        result = report["results"]["ihara"]
        assert len(result["zeta_series_positive_exponent"]) == 55
        assert result["oracle"] == "match"
    else:
        result = report["results"]["comparison"]
        assert result["comparison_degree_free"]
        assert result["selberg_specialized"] == ["0", "0", "0", "54"]


def test_an_all_zero_period_writes_no_cells():
    # n = 2 [[10^9]] at maxDegree 400,000: the table is incomplete and its
    # cells to that degree are all zero, so R = 0 is written as no cells,
    # not as 400,001 "0" strings (a 5.2 MB report), with the same verdict
    code, report = run_config(RunConfig.from_json_obj(
        {"n": 2, "gamma": {"kind": "translation", "basis": [[10 ** 9]]},
         "maxDegree": 400_000, "checks": ["comparison"]}))
    result = report["results"]["comparison"]
    assert code == 0 and result["pass"]
    assert result["corrected_equal"] and result["literal_equal"]
    assert not result["comparison_degree_free"]
    assert result["selberg_specialized"] == []
    assert len(dumps_report(report)) < 2000


def test_the_report_is_serialized_only_when_something_writes_it(
        tmp_path, capsys, monkeypatch):
    # a still clock, so that the timings, and with them the bytes, repeat
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: 0.0))
    _, report = run_config(RunConfig.from_json_obj(BASIC))
    _, panel = demo_suite()
    summaries = {"run": cli._format_text(report),
                 "demo": "\n".join([*map(cli._format_text, panel["panel"]),
                                    "panel: PASS"])}
    payloads = {"run": dumps_report(report), "demo": dumps_report(panel)}
    calls = []

    def spy(obj):
        calls.append(obj)
        return dumps_report(obj)

    monkeypatch.setattr(cli, "dumps_report", spy)
    config = ["--config", write_config(tmp_path, BASIC)]
    out = tmp_path / "report.json"
    for command in ("run", "demo"):
        args = [command, *config] if command == "run" else [command]
        for extra, serialized in (([], 0), (["--format", "json"], 1),
                                  (["--out", str(out)], 1),
                                  (["--format", "json", "--out", str(out)],
                                   1)):
            calls.clear()
            out.unlink(missing_ok=True)
            assert main([*args, *extra]) == 0
            assert len(calls) == serialized, (command, extra)
            printed = capsys.readouterr().out
            if extra == ["--format", "json"]:
                assert printed == payloads[command]
            else:
                assert printed == summaries[command] + "\n"
            if "--out" in extra:
                assert out.read_text(encoding="utf-8") == payloads[command]
            else:
                assert not out.exists()
