"""Golden digests of the generic sheaf engine on fans: per fan and per
element x, the section space of the closed star {y >= x} and the
annihilators the engine stored at x, in every degree up to the bound,
both spread out to dense rows over the element's layout.  The digests in
data/sheafengine_digests.json were computed by the engine that moved
dense lists between its eliminations; any change in how vectors are
represented must leave every basis vector and every annihilator, entry
by entry and in order, unchanged.

Regenerate them only on purpose:  python tests/test_sheafengine_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from klsc.fans import Fan, build_fan_sheaf, cone_over_polytope
from klsc.validate import CUBE, PRISM, PYRAMID, SQUARE, simplex

from helpers import dense

DIGESTS = Path(__file__).resolve().parent / "data" / "sheafengine_digests.json"

CROSS_POLYTOPE_4 = [[s if i == j else 0 for j in range(4)] for i in range(4) for s in (1, -1)]

FANS = {
    "square": lambda: cone_over_polytope(SQUARE),
    "simplex3": lambda: cone_over_polytope(simplex(3)),
    "simplex4": lambda: cone_over_polytope(simplex(4)),
    "pyramid": lambda: cone_over_polytope(PYRAMID),
    "prism": lambda: cone_over_polytope(PRISM),
    "cube": lambda: cone_over_polytope(CUBE),
    "four-orthant": lambda: Fan.from_max_cones(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    ),
    "16-cell": lambda: cone_over_polytope(CROSS_POLYTOPE_4),
}


def _strings(v, n):
    return [str(a) for a in dense(v, n)]


def digests(name):
    """{element name: digest} of the fan's sheaf."""
    poset, sheaf = build_fan_sheaf(FANS[name]())
    out = {}
    for x in poset.elements():
        mask = poset.up[x]
        data = []
        for d in range(sheaf.bound + 1):
            n = len(sheaf.layout(sheaf._sorted_upper(mask), d))
            data.append(
                {
                    "sections": [_strings(v, n) for v in sheaf.section_space(mask, d)],
                    "annihilators": [_strings(f, n) for f in sheaf.annihilators[x][d]],
                }
            )
        blob = json.dumps(data, sort_keys=True).encode()
        out[poset.names[x]] = hashlib.sha256(blob).hexdigest()[:16]
    return out


def test_every_fan_has_digests():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(FANS)


@pytest.mark.parametrize("name", list(FANS))
def test_engine_matches_golden_digests(name):
    assert digests(name) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":  # pragma: no cover
    DIGESTS.write_text(
        json.dumps({name: digests(name) for name in FANS}, indent=1, sort_keys=True) + "\n"
    )
