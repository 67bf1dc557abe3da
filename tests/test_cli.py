import json
import re
import tracemalloc
from pathlib import Path

import pytest

from latzeta import cli
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
from latzeta.polynomials import IntPolynomial
from latzeta.quotient import TranslationSubgroup
from perfbench import workloads


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


def test_translation_series_grid_cap_exits_3_before_allocating():
    # maxDegree 100000 would need a 100001 x 100001 int64 sub-grid
    cfg = RunConfig.from_json_obj(
        _config_with(maxDegree=100000, checks=["selberg_series"]))
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


def test_perturbed_comparison_keeps_the_vertex_cap():
    # the comparison builds the unperturbed determinant itself, and must
    # build it under the config's cap, not the library default
    cfg = RunConfig.from_json_obj(
        {"n": 2, "gamma": {"kind": "translation", "basis": [[200]]},
         "checks": ["comparison"], "caps": {"maxVertices": 100},
         "perturb": {"type": 1, "row": 0, "col": 1, "delta": 1}})
    tracemalloc.start()
    try:
        code, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and not report["pass"]
    assert peak < 1 << 20


def test_rational_check_exits_3_before_building_the_cone_form(monkeypatch):
    # the series grid cap must fire before the cone sums start, so a
    # maxDegree that can never finish exits at once
    def never(*args, **kwargs):
        raise AssertionError("the cone form was built")

    monkeypatch.setattr(cli, "selberg_rational_translation", never)
    cfg = RunConfig.from_json_obj(
        _config_with(maxDegree=100000, checks=["selberg_rational"]))
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
    # the lengths and the characters do not see the graph
    assert flags["length_conjugation_invariance"] is True
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
