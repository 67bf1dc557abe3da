"""latzeta benchmark: verified reports for panels of subgroups.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload det_ladder --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh process that runs only that pass (one caller,
closed loop, no threads), so its set-up time, CPU time and peak RSS belong
to the pass.  Passes repeat until ``--seconds`` have gone by, at least two
of them, and each end-to-end metric is the median over passes.

The host's speed drifts in phases of a second to minutes.  So every
end-to-end time is scaled to a fixed host speed with the reference kernel
of ``reference.py``: the worker runs it every 0.1 s during each member of
an untraced pass and once before and after, takes the kernel's own time
off the member's, and the member's time is then multiplied by
``reference.REFERENCE_S`` over the mean kernel time (wall time by wall
time, CPU time by CPU time; set-up by the kernel's time right after it).
The text lines also print the unscaled medians.  Per-layer times are not
scaled.

With ``--trace 1`` each round is one plain pass followed by one traced
pass, and the per-layer metrics come from the traced passes.  Any wrong
verdict, exit code or output check, any report that differs between
passes, any exception, and in a traced pass any target not found or left
wrapped counts against the member run; the command then exits 1.
``error_rate`` (failed member runs over member runs attempted) is printed
with the metrics and carried by the ``attempted`` and ``failed`` fields of
the JSON result, the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import reference, spans, workloads  # noqa: E402

WORKER_TIMEOUT_S = 150
# name -> unit of the metrics an untraced run reports
END_TO_END = {"wall_s": "s", "cpu_s": "s", "slowest_member_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(RuntimeError):
    pass


def call_worker(members, *, trace: bool = False) -> dict:
    """Start one worker process for one pass, wait for it and return its
    result."""
    job = json.dumps({"members": members, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker"], input=job,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ran over {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def judge(passes, members):
    """(attempted, failed, problem lines) over all passes of one run.

    A member run fails on any problem its worker reported, or when its
    report (timings removed) differs from the same member's in the first
    pass.  A pass whose worker failed fails every member.
    """
    attempted = failed = 0
    problems = []
    first = {}
    for i, p in enumerate(passes):
        attempted += len(members)
        if "error" in p:
            failed += len(members)
            problems.append(f"pass {i}: {p['error']}")
            continue
        if p.get("missing"):
            failed += len(members)
            problems.append(f"pass {i}: not traced (not found): "
                            f"{p['missing']}")
            continue
        if p.get("leftover"):
            failed += len(members)
            problems.append(f"pass {i}: still wrapped: {p['leftover']}")
            continue
        for row in p["members"]:
            issues = list(row["problems"])
            ref = first.setdefault(row["name"], row.get("digest"))
            if row.get("digest") != ref:
                issues.append("report differs from the first pass")
            if issues:
                failed += 1
                problems.extend(f"pass {i} {row['name']}: {x}" for x in issues)
    return attempted, failed, problems


def _pass(members, trace: bool) -> dict:
    try:
        return call_worker(members, trace=trace)
    except (WorkerError, json.JSONDecodeError) as exc:
        return {"error": str(exc)}


def pass_totals(p, scale: bool = True) -> dict:
    """The end-to-end figures of one pass, scaled unless ``scale`` is off."""
    def s(seconds, ref_s):
        # seconds at the host speed at which the reference kernel takes
        # REFERENCE_S, given that it took ref_s next to them
        return seconds * reference.REFERENCE_S / ref_s if scale else seconds

    rows = p["members"]
    wall = [s(r["wall_s"], r["ref_wall_s"]) for r in rows]
    return {"wall_s": sum(wall),
            "cpu_s": sum(s(r["cpu_s"], r["ref_cpu_s"]) for r in rows),
            "slowest_member_s": max(wall),
            "peak_rss_mb": p["peak_rss_mb"],
            "setup_s": s(p["setup_s"], p["setup_ref"][0])}


def layer_totals(p) -> dict:
    total = {}
    for per_member in p["layers"].values():
        for k, v in per_member.items():
            total[k] = total.get(k, 0) + v
    return total


def member_counts(p) -> dict:
    """The exact per-member counts of one traced pass."""
    return {m: {k: v.get(k, 0) for k in spans.COUNT_METRICS}
            for m, v in p["layers"].items()}


def end_to_end(plain, scale: bool = True) -> dict:
    totals = [pass_totals(p, scale) for p in plain]
    return {k: (statistics.median(t[k] for t in totals), unit)
            for k, unit in END_TO_END.items()}


def count_mismatches(traced) -> list:
    """Counts that differ between traced passes."""
    layers = [layer_totals(p) for p in traced]
    return [f"count {k} differs between traced passes"
            for later in layers[1:] for k in spans.COUNT_METRICS
            if later.get(k, 0) != layers[0].get(k, 0)]


def per_layer(rounds) -> dict:
    """Per-layer metrics of the traced passes.  ``rounds`` are (plain,
    traced) pairs; the tracing overhead is the median over rounds of the
    traced pass's scaled wall time minus the plain pass's."""
    traced = [t for _, t in rounds]
    layers = [layer_totals(p) for p in traced]
    out = {}
    for k, unit in spans.LAYER_METRICS.items():
        values = [layer.get(k, 0) for layer in layers]
        out[k] = (statistics.median(values) if unit == "s" else values[0],
                  unit)
    out["trace.overhead_s"] = (statistics.median(
        pass_totals(t)["wall_s"] - pass_totals(p)["wall_s"]
        for p, t in rounds), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PANELS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latzeta" / "__init__.py").is_file():
        print(f"no latzeta sources under {ROOT / 'src'}; run this from the "
              f"root of a latzeta checkout", file=sys.stderr)
        return 2
    members = workloads.members(args.workload, args.seed)
    trace = bool(args.trace)

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(_pass(members, trace=False))
        if trace:
            traced.append(_pass(members, trace=True))
        if len(plain) >= (1 if trace else 2) and \
                time.perf_counter() - start >= args.seconds:
            break

    attempted, failed, problems = judge(plain + traced, members)
    ok_plain = [p for p in plain if "error" not in p]
    rounds = [(p, t) for p, t in zip(plain, traced)
              if "error" not in p and "error" not in t]
    if not ok_plain or (trace and not rounds):
        for line in problems:
            print(line, file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer(rounds)
        mismatches = count_mismatches([t for _, t in rounds])
        if mismatches:
            failed = min(attempted, failed + len(members))
            problems += mismatches
        for name, counts in member_counts(rounds[0][1]).items():
            print(f"counts {name} {json.dumps(counts, sort_keys=True)}")
    else:
        metrics = end_to_end(ok_plain)
        for name, (value, unit) in end_to_end(ok_plain, scale=False).items():
            if unit == "s":
                print(f"unscaled {name} = {value:.6g} {unit}")
        ref = statistics.median(r["ref_wall_s"] for p in ok_plain
                                for r in p["members"])
        print(f"reference kernel = {ref:.6g} s (scaled to "
              f"{reference.REFERENCE_S} s)")
    for line in problems:
        print(line, file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced passes of {len(members)} members")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} member runs)")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
