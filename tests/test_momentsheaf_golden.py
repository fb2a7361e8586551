"""Golden digests of the moment-graph sheaf: per interval, the stalk
degrees at every vertex, the generator degrees of the global sections and
every stalk's Poincare polynomial.  The B2 and A3 digests in
data/momentsheaf_digests.json were computed by the implementation that
eliminated each degree of a boundary module twice (an untagged sweep for
the generators, then a tagged span of psi images); the G2 and C3 digests
by the one that eliminated it once, in a tagged RowSpace whose rows were
dense and kept fully reduced.  G2 and C3 have edge labels that lead with
a 2, so their eliminations clear denominators.  Any change in how the
sheaf is built must leave all of this unchanged.

Regenerate them only on purpose:  python tests/test_momentsheaf_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from klsc.coxeter import CartanDatum, CoxeterGroup, bruhat_graph, enumerate_interval
from klsc.field import GF, QQ
from klsc.momentsheaf import compute_sheaf

DIGESTS = Path(__file__).resolve().parent / "data" / "momentsheaf_digests.json"


def intervals():
    """(key, group, v, w, field): every B2 interval over QQ and GF(5),
    every A3 interval [e, w] over QQ, every G2 interval [e, w] over QQ and
    GF(5), and [e, w0] in A3 over GF(5) and in C3 over QQ."""
    out = []
    for name, lowers, fields in (
        ("B2", True, (QQ, GF(5))), ("A3", False, (QQ,)), ("G2", False, (QQ, GF(5))),
    ):
        W = CoxeterGroup(CartanDatum.from_type(name))
        for w in range(W.size):
            below = enumerate_interval(W, W.identity, w).elements if lowers else [W.identity]
            for v in below:
                for field in fields:
                    out.append((_key(W, name, v, w, field), W, v, w, field))
    for name, field in (("A3", GF(5)), ("C3", QQ)):
        W = CoxeterGroup(CartanDatum.from_type(name))
        w0 = W.longest_element()
        out.append((_key(W, name, W.identity, w0, field), W, W.identity, w0, field))
    return out


def _key(W, name, v, w, field):
    v_word, w_word = ("".join(map(str, W.words[x])) or "e" for x in (v, w))
    return f"{name}/[{v_word},{w_word}]/{field!r}"


def digest(W, v, w, field):
    iv = enumerate_interval(W, v, w)
    sheaf = compute_sheaf(bruhat_graph(W, iv), field)
    n = len(iv)
    data = {
        "stalks": [list(sheaf.stalks[i]) for i in range(n)],
        "sections": list(sheaf.section_generator_degrees().degrees),
        "kl": [sheaf.kl_from_sheaf(i).coeff_list() for i in range(n)],
    }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


CASES = intervals()


def test_every_interval_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(key for key, *_ in CASES)


@pytest.mark.parametrize("key, W, v, w, field", CASES, ids=[c[0] for c in CASES])
def test_sheaf_matches_golden_digest(key, W, v, w, field):
    assert digest(W, v, w, field) == json.loads(DIGESTS.read_text())[key]


if __name__ == "__main__":  # pragma: no cover
    DIGESTS.write_text(
        json.dumps({key: digest(W, v, w, f) for key, W, v, w, f in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
