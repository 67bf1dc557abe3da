"""Property test of the config contract: a small valid config with one field
mutated never raises out of ``latzeta run``, and the run exits 0, 1, 2 or 3.

A mutation either deletes one key or list item, or puts one bad value in its
place: a wrong type, an out-of-range integer, NaN or an infinity, a nested
list, or one of the two gamma kinds.
"""

import copy
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latzeta.cli import TRANSLATION_CHECKS, main

TRANSLATION = {
    "n": 3,
    "gamma": {"kind": "translation", "basis": [[3, 0], [0, 3]]},
    "maxDegree": 4,
    "scale": "geodesic",
    "checks": list(TRANSLATION_CHECKS),
    "caps": {"maxVertices": 64, "acknowledgeLarge": False},
    "perturb": {"type": 1, "row": 0, "col": 1, "delta": 1},
}
AFFINE = {
    "n": 3,
    "gamma": {"kind": "affine", "lattice": [[3, 0], [0, 3]],
              "perms": [[1, 2, 0]]},
    "maxDegree": 4,
    "checks": ["selberg_series"],
}

BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "3", "", "all", 2.5, {}, []]),
    st.integers(-6, 6),
    st.sampled_from([2 ** 63, 10 ** 30, -10 ** 30]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([[[1]], [[[1, 2]]], [1, [2]], [[3, 0], [0, 3]],
                     [[1, 2, 0]]]),
    st.sampled_from(["translation", "affine"]),
)


def _paths(obj, prefix=()):
    """The path of every key and list item inside a nested config."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


BASES = {"translation": TRANSLATION, "affine": AFFINE}
CASES = [(name, path) for name, base in BASES.items() for path in _paths(base)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), delete=st.booleans(), value=BAD_VALUES)
@example(case=("translation", ("perturb", "delta")), delete=False,
         value=10 ** 30)
def test_one_mutated_field_exits_with_a_contract_code(tmp_path_factory, case,
                                                      delete, value):
    name, path = case
    cfg = copy.deepcopy(BASES[name])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    config = tmp_path_factory.getbasetemp() / "mutated_config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(config)]) in (0, 1, 2, 3)
