"""Record the exact per-member work counts and check that they and the
outputs do not depend on the seed.

Usage, from the root of a checkout:

    python3 perfbench/record_counts.py --seeds 0 1

Runs one traced pass of every workload under each seed.  Exits 1 if any
member fails its checks, or if two seeds give different counts, different
outputs (timings, the echoed basis and the L-function's rounding deviation
left out) or different verdicts.  Otherwise writes the counts of the first
seed, with the share of determinant time spent in ``det_mod``, to
``perfbench/baseline_counts.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402

OUT = ROOT / "perfbench" / "baseline_counts.json"


def traced_pass(workload: str, seed: int):
    members = workloads.members(workload, seed)
    result = run.call_worker(members, trace=True)
    problems = run.judge([result], members)[2]
    outputs = {r["name"]: (r.get("seed_free_digest"), r.get("failing"))
               for r in result["members"]}
    return result, problems, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=[0, 1])
    args = parser.parse_args(argv)

    record = {"seeds": args.seeds, "workloads": {}, "det_mod_share": {}}
    bad = []
    for workload in workloads.PANELS:
        seen = []
        for seed in args.seeds:
            result, problems, outputs = traced_pass(workload, seed)
            bad += problems
            seen.append((run.member_counts(result), outputs))
            if seed == args.seeds[0]:
                layers = run.layer_totals(result)
                det = layers.get("exactdet.polymatrix_det.s", 0)
                record["det_mod_share"][workload] = (
                    layers.get("exactdet.det_mod.s", 0) / det if det else None)
        (counts, outputs), (counts2, outputs2) = seen
        for member in counts:
            for k, v in counts[member].items():
                if counts2[member][k] != v:
                    bad.append(f"{workload} {member} {k}: {v} on seed "
                               f"{args.seeds[0]}, {counts2[member][k]} on "
                               f"seed {args.seeds[1]}")
            if outputs[member] != outputs2[member]:
                bad.append(f"{workload} {member}: output or verdicts differ "
                           f"between seeds")
        record["workloads"][workload] = counts
        print(f"{workload}: {len(counts)} members compared", flush=True)
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
