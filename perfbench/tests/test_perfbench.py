"""Tests for the benchmark harness: seeded inputs, span arithmetic, wrapping
and restoring, and seed invariance on a small panel."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import reference, run, spans, workloads  # noqa: E402
from latzeta.cli import RunConfig, run_config  # noqa: E402
from latzeta.quotient import TranslationSubgroup  # noqa: E402

SEEDS = range(40)


def _translation_members():
    """(panel entry, member as written under a seed) for every seed."""
    for seed in SEEDS:
        for workload, panel in workloads.PANELS.items():
            for base, member in zip(panel, workloads.members(workload, seed)):
                if base["config"]["gamma"]["kind"] == "translation":
                    yield base, member


def test_generated_bases_are_type_zero_and_span_the_same_subgroup():
    for base, member in _translation_members():
        n = base["config"]["n"]
        written = TranslationSubgroup(n, base["config"]["gamma"]["basis"])
        # the constructor rejects any generator of nonzero type
        moved = TranslationSubgroup(n, member["config"]["gamma"]["basis"])
        assert moved.index == written.index
        assert workloads.index_of(moved.basis) == written.index
        # inside the written subgroup with the same index: the same subgroup
        assert all(written.contains(col) for col in moved.generators())


def test_seed_changes_how_a_basis_is_written():
    bases = {str(workloads.members("det_ladder", s)[1]["config"]["gamma"])
             for s in SEEDS}
    assert len(bases) > 1


def test_perturbed_entry_is_in_range():
    for _, member in _translation_members():
        perturb = member["config"].get("perturb")
        if perturb is None:
            continue
        cfg = RunConfig.from_json_obj(member["config"])
        size = TranslationSubgroup(cfg.n, cfg.basis).index
        assert 1 <= perturb["type"] <= cfg.n - 1
        assert 0 <= perturb["row"] < size and 0 <= perturb["col"] < size
        assert member["expect_code"] == 1


def test_self_time_is_inclusive_minus_child_cover():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = tracer.wrap(lambda: tick(2.0), "leaf")

    def mid_body():
        tick(1.0)
        leaf()
        tick(0.5)

    mid = tracer.wrap(mid_body, "mid")

    def outer_body():
        tick(3.0)
        mid()
        mid()
        leaf()

    tracer.wrap(outer_body, "outer")()
    s = tracer.stats[""]
    assert s["outer.s"] == 12.0 and s["outer.self_s"] == 3.0
    assert s["mid.s"] == 7.0 and s["mid.self_s"] == 3.0 and s["mid.calls"] == 2
    assert s["leaf.s"] == 6.0 and s["leaf.self_s"] == 6.0
    assert s["leaf.calls"] == 3


def test_nested_span_of_the_same_name_counts_its_time_once():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def body(k):
        now[0] += 1.0
        if k:
            rec(k - 1)

    rec = tracer.wrap(body, "rec")
    rec(3)
    s = tracer.stats[""]
    assert s["rec.s"] == 4.0 and s["rec.self_s"] == 4.0 and s["rec.calls"] == 4


def _latzeta_functions():
    import inspect

    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("latzeta"):
            continue
        for key, value in vars(mod).items():
            if inspect.isfunction(value):
                out[f"{name}.{key}"] = value
            elif inspect.isclass(value) and value.__module__ == name:
                out.update((f"{name}.{key}.{k}", v)
                           for k, v in vars(value).items()
                           if inspect.isfunction(v))
    return out


def test_traced_pass_wraps_every_import_and_restores_it():
    import latzeta.cli as cli

    before = _latzeta_functions()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = _latzeta_functions()
        # every name bound to a target, in whichever module imported it,
        # now calls the wrapper of that target
        imported = []
        for mod_name, attr, _, _ in spans.TARGETS:
            if attr == "*" or "." in attr:
                continue
            original = before.get(f"latzeta.{mod_name}.{attr}")
            if original is None:
                continue
            for name, fn in before.items():
                if fn is original:
                    assert getattr(wrapped[name], "__perfbench_span__",
                                   None) is original, name
                    if not name.startswith(f"latzeta.{mod_name}."):
                        imported.append(name)
        assert imported, "no target is imported into another module"
        tracer.member = "m"
        cfg = RunConfig.from_json_obj(
            {"n": 2, "gamma": {"kind": "translation", "basis": [[4]]},
             "maxDegree": 4})
        code, _ = cli.run_config(cfg)
    finally:
        tracer.restore()
    assert code == 0
    assert tracer.stats["m"]["cli.run_config.calls"] == 1
    assert spans.leftover_wrappers() == []
    assert _latzeta_functions() == before
    assert run_config is cli.run_config


def test_a_target_that_is_not_found_fails_the_traced_pass():
    import latzeta.zeta  # noqa: F401

    tracer = spans.Tracer()
    tracer.install([("zeta", "no_such_function", "zeta.none", None),
                    ("no_such_module", "f", "none.f", None)])
    tracer.restore()
    assert tracer.missing == ["latzeta.zeta.no_such_function",
                              "latzeta.no_such_module"]
    members = [{"name": "a"}, {"name": "b"}]
    traced = {"members": [{"name": "a", "problems": []},
                          {"name": "b", "problems": []}],
              "missing": tracer.missing, "leftover": []}
    attempted, failed, problems = run.judge([traced], members)
    assert (attempted, failed) == (2, 2)
    assert "not found" in problems[0]


def test_times_are_scaled_by_the_reference_kernel_next_to_them():
    unit = reference.REFERENCE_S
    p = {"setup_s": 0.3, "setup_ref": (2 * unit, unit), "peak_rss_mb": 40.0,
         # the host runs at half speed during the first member and at full
         # speed during the second
         "members": [
             {"wall_s": 4.0, "cpu_s": 3.0,
              "ref_wall_s": 2 * unit, "ref_cpu_s": 2 * unit},
             {"wall_s": 1.0, "cpu_s": 1.0,
              "ref_wall_s": unit, "ref_cpu_s": unit}]}
    t = run.pass_totals(p)
    assert (t["wall_s"], t["cpu_s"], t["slowest_member_s"]) == (3.0, 2.5, 2.0)
    assert (t["setup_s"], t["peak_rss_mb"]) == (0.15, 40.0)
    raw = run.pass_totals(p, scale=False)
    assert (raw["wall_s"], raw["slowest_member_s"], raw["setup_s"]) == (
        5.0, 4.0, 0.3)


def test_probe_takes_its_own_time_off_the_region():
    import time

    probe = reference.Probe()
    probe.sample()
    probe.start()
    w0 = time.perf_counter()
    while time.perf_counter() - w0 < 0.35:
        pass
    probe.stop()
    wall = time.perf_counter() - w0
    probe.sample()
    # about three samples fire inside the region, one before, one after
    assert 4 <= len(probe.samples) <= 6
    inside = probe.samples[1:-1]
    assert abs(probe.spent[0] - sum(w for w, _ in inside)) < 1e-12
    assert 0 < probe.spent[0] < wall


def test_reference_kernel_is_the_benchmarks_own_and_computes_its_answer():
    assert reference.kernel() == 1
    wall, cpu = reference.measure()
    assert wall > 0 and cpu > 0
    assert not any(m == "latzeta" or m.startswith("latzeta.")
                   for m in vars(reference))


def test_two_seeds_give_the_same_counts_and_outputs(monkeypatch):
    monkeypatch.setitem(workloads.PANELS, "tiny", [
        workloads._translation("n2_N6", 2, [[6]], 4),
        workloads._translation("n3_N9", 3, [[3, 0], [0, 3]], 4),
        workloads._translation("n3_N9_control", 3, [[3, 0], [0, 3]], 4,
                               control=True),
        workloads._affine("n3_affine", 3, [[3, 0], [0, 3]], [[1, 2, 0]], 4),
    ])
    seen = []
    for seed in (0, 1):
        members = workloads.members("tiny", seed)
        result = run.call_worker(members, trace=True)
        attempted, failed, problems = run.judge([result], members)
        assert (attempted, failed, problems) == (4, 0, [])
        seen.append((run.member_counts(result),
                     [r["seed_free_digest"] for r in result["members"]],
                     [r["failing"] for r in result["members"]]))
    assert seen[0] == seen[1]
    assert seen[0][2][2] == sorted(workloads.CONTROL_FAILS)


def test_benchmark_json_names_what_the_harness_reports():
    import json

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.PANELS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in doc["per_layer"]}
            == spans.LAYER_METRICS)
