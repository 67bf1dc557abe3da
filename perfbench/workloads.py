"""Workload panels and their seeded inputs.

Each workload is a fixed panel of subgroups, written as the JSON configs that
``latzeta run`` accepts.  The seed changes only how a subgroup is written: it
applies a random unimodular column transform to every translation basis
(the columns generate the same subgroup, so the outputs and the work are the
same) and picks the adjacency entry that the negative control perturbs.
Affine lattices are left as written, because the box that the affine class
scan searches is derived from the lattice basis.

This module does not import latzeta, so the harness process stays small.
"""

from __future__ import annotations

import random
from typing import Dict, List

# The control adds 1 to a diagonal entry (v, v) of the type-1 matrix, which
# moves the u^1 coefficient of the determinant by -1 whatever v is.  So the
# determinant disagrees with the orders product, the L-function and the
# degree-6 geodesic Euler product on every seed, and the row sums
# (invariants) break.  An off-diagonal entry can leave the degree-6
# truncation unchanged, which would make the geodesic_oracle verdict depend
# on the seed.  The Selberg routes and the comparison check use the
# unperturbed subgroup; the cycle oracle skips a graph with a loop.
CONTROL_FAILS = ("geodesic_oracle", "invariants", "lfunction", "positive_zeta")

_N4_N32 = [[4, 0, 1], [-4, 2, 1], [0, -2, 2]]


def _translation(name: str, n: int, basis, max_degree: int,
                 control: bool = False) -> Dict:
    return {"name": name, "control": control, "config": {
        "n": n, "gamma": {"kind": "translation", "basis": basis},
        "maxDegree": max_degree, "checks": "all"}}


def _affine(name: str, n: int, lattice, perms, max_degree: int) -> Dict:
    return {"name": name, "control": False, "config": {
        "n": n, "gamma": {"kind": "affine", "lattice": lattice,
                          "perms": perms},
        "maxDegree": max_degree, "checks": "all"}}


def _scalar(n: int, k: int) -> List[List[int]]:
    return [[k if i == j else 0 for j in range(n - 1)] for i in range(n - 1)]


# Why each panel: see BENCHMARK.json and NOTES.md.  Each panel also has a
# tiny member (well under 0.1 s) for any layer it would otherwise never
# call, so that every traced time is measured on every workload.
_TINY_AFFINE = _affine("n3_affine_rot_D4", 3, _scalar(3, 3), [[1, 2, 0]], 4)

PANELS = {
    # exact determinants are about 90% of a pass; n spans 2..4
    "det_ladder": [
        _translation("n2_N64", 2, [[64]], 6),
        _translation("n3_N54", 3, [[6, 0], [0, 9]], 6),
        _translation("n4_N32", 4, _N4_N32, 6),
        _translation("n4_N32_control", 4, _N4_N32, 6, control=True),
        _TINY_AFFINE,
    ],
    # the depth-8 backtrackless-cycle oracle is about 75% of a pass
    "oracle_deep": [
        _translation("n3_N9", 3, [[3, 0], [0, 3]], 12),
        _translation("n3_N18", 3, [[6, 0], [0, 3]], 12),
        _translation("n3_N27", 3, [[9, 0], [0, 3]], 12),
        _translation("n3_N36", 3, [[6, 0], [0, 6]], 12),
        _TINY_AFFINE,
    ],
    # Selberg series, cone sums, expansion, affine scan, large reports
    "selberg_deep": [
        _translation("n5_N5_D16", 5, [[1, 0, 0, 1], [-1, 1, 0, 1],
                                      [0, -1, 1, 1], [0, 0, -1, 2]], 16),
        _translation("n4_N4_D28", 4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]], 28),
        _translation("n3_N3_D90", 3, [[1, 0], [-1, 3]], 90),
        _affine("n3_affine_rot_D36", 3, _scalar(3, 3), [[1, 2, 0]], 36),
        _affine("n4_affine_rot_D12", 4, _scalar(4, 4), [[1, 2, 3, 0]], 12),
        _affine("n4_affine_swap_D12", 4, _scalar(4, 4), [[1, 0, 2, 3]], 12),
        # a simple quotient, so the cycle oracle runs (to depth 4)
        _translation("n3_N9_D4", 3, [[3, 0], [0, 3]], 4),
    ],
}


def unimodular(k: int, rng: random.Random) -> List[List[int]]:
    """A random k x k integer matrix of determinant +-1, built from column
    swaps, sign flips and elementary column additions."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        op = rng.randrange(3)
        i, j = rng.randrange(k), rng.randrange(k)
        if op == 0 or i == j:
            for row in u:
                row[i] = -row[i]
        elif op == 1:
            for row in u:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice((-1, 1))
            for row in u:
                row[j] += c * row[i]
    return u


def transform_columns(basis, u) -> List[List[int]]:
    """basis @ u: every new column is an integer combination of the old."""
    k = len(basis)
    return [[sum(basis[i][t] * u[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)]


def index_of(basis) -> int:
    """|det| of a square integer matrix (Laplace expansion; k <= 4 here)."""
    return abs(_signed_det(basis))


def _signed_det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * _signed_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def members(workload: str, seed: int) -> List[Dict]:
    """The workload's panel as written under ``seed``.

    Each member is ``{"name", "config", "expect_code", "expect_fail"}``;
    ``expect_fail`` lists the checks whose verdict must be FAIL.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for base in PANELS[workload]:
        cfg = {**base["config"], "gamma": dict(base["config"]["gamma"])}
        gamma = cfg["gamma"]
        member = {"name": base["name"], "config": cfg, "expect_code": 0,
                  "expect_fail": []}
        if gamma["kind"] == "translation":
            k = cfg["n"] - 1
            gamma["basis"] = transform_columns(gamma["basis"],
                                               unimodular(k, rng))
            if base["control"]:
                v = rng.randrange(index_of(gamma["basis"]))
                cfg["perturb"] = {"type": 1, "row": v, "col": v, "delta": 1}
                member["expect_code"] = 1
                member["expect_fail"] = list(CONTROL_FAILS)
        out.append(member)
    return out
