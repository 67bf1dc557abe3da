"""One benchmark process: set up latzeta, run one pass, report.

Reads a job as JSON on stdin and writes one JSON line on stdout.  A job is
``{"members": [...], "trace": bool}``; members come from
:func:`perfbench.workloads.members`.  Set-up is the import of latzeta plus
``RunConfig.from_json_obj`` for every member, the work ``latzeta run`` does
before its first check.  The pass then makes the calls ``latzeta run``
makes, ``run_config`` and ``dumps_report``, for each member in turn, and
checks each report outside the timed region.  A :class:`reference.Probe`
times the reference kernel around and, in an untraced pass, during each
member; ``ref_wall_s`` and ``ref_cpu_s`` are its mean times, and the time the
kernel took inside the member is already taken off ``wall_s`` and ``cpu_s``.
``setup_ref`` is the kernel's time right after set-up.

Run as ``python3 -m perfbench.worker`` from the root of a checkout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from perfbench import spans

ROOT = Path(__file__).resolve().parents[1]


def _strip(obj, keys):
    if isinstance(obj, dict):
        return {k: _strip(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [_strip(v, keys) for v in obj]
    return obj


def digests(text: str):
    """Two digests of a report.  The first leaves out the timings.  The
    second also leaves out the echoed basis, the perturbed entry and the
    L-function's rounding deviation, a float near 1e-50 whose last digits
    follow the order of the characters, which follows the basis; it is the
    same on every seed."""
    obj = _strip(json.loads(text), {"timing_s"})

    def h(o):
        return hashlib.sha256(json.dumps(o, sort_keys=True).encode()).hexdigest()

    config = obj["config"]
    seed_free = _strip({**obj, "config": {
        **{k: v for k, v in config.items() if k != "perturb"},
        "gamma": {k: v for k, v in config["gamma"].items()
                  if k not in ("basis", "lattice")}}}, {"rounding_deviation"})
    return h(obj), h(seed_free)


def check_report(member, code, report, text, dumps_report, all_checks):
    """Problems with one member's result; an empty list means it passed."""
    problems = []
    if code != member["expect_code"]:
        problems.append(f"exit code {code}, expected {member['expect_code']}")
    results = report.get("results", {})
    if "error" in report:
        problems.append(f"error: {report['error']}")
    if set(results) != set(all_checks):
        problems.append(f"checks run {sorted(results)}, expected "
                        f"{sorted(all_checks)}")
    failed = sorted(k for k, r in results.items() if not r["pass"])
    if failed != sorted(member["expect_fail"]):
        problems.append(f"failing checks {failed}, expected "
                        f"{sorted(member['expect_fail'])}")
    pz = results.get("positive_zeta")
    if pz is not None and code == 0 and pz["determinant"] != pz["orders_product"]:
        problems.append("determinant != orders_product")
    if dumps_report(report) != text:
        problems.append("re-serialising the report changed its bytes")
    if dumps_report(json.loads(text)) != text:
        problems.append("the report does not survive a JSON round trip")
    return problems


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import latzeta.cli as cli
    cfgs = [cli.RunConfig.from_json_obj(m["config"]) for m in job["members"]]
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"latzeta was imported from {cli.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    # imports numpy, so only after set-up is timed
    from perfbench import reference

    out = {"setup_s": setup_s, "setup_ref": reference.measure()}

    # the checks use the functions as they are before any wrapping
    dumps_report = cli.dumps_report
    checks = {"translation": cli.TRANSLATION_CHECKS,
              "affine": cli.AFFINE_CHECKS}
    tracer = spans.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    results = []
    try:
        for member, cfg in zip(job["members"], cfgs):
            if tracer is not None:
                tracer.member = member["name"]
            row = {"name": member["name"], "problems": ["raised an exception"]}
            probe = reference.Probe()
            probe.sample()
            if tracer is None:
                probe.start()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                code, report = cli.run_config(cfg)
                text = cli.dumps_report(report)
            except Exception:
                traceback.print_exc()
                text = None
            finally:
                if tracer is None:
                    probe.stop()
                row.update(wall_s=time.perf_counter() - w0 - probe.spent[0],
                           cpu_s=time.process_time() - c0 - probe.spent[1])
            probe.sample()
            row["ref_wall_s"], row["ref_cpu_s"] = probe.mean()
            if text is not None:
                row["problems"] = check_report(
                    member, code, report, text, dumps_report,
                    checks[cfg.gamma_kind])
                row["digest"], row["seed_free_digest"] = digests(text)
                row["failing"] = sorted(
                    k for k, r in report["results"].items() if not r["pass"])
            results.append(row)
    finally:
        if tracer is not None:
            tracer.restore()
    out["members"] = results
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = {k: dict(v) for k, v in tracer.stats.items()}
        out["missing"] = tracer.missing
        out["leftover"] = spans.leftover_wrappers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
