"""Correctness of one item's output.

Every output is compared with the stored reference answer of its item,
after removing what legitimately depends on the presentation (the input
digest, the timings, and for relabelled matroids the flat names).  On top
of that, checks that do not trust the references:

* over QQ, the two routes must agree (``routes_agree``) and no other
  check the CLI reports may be false;
* over GF(p), the stalks are all trivial exactly when
  ``p_trivial_criterion`` says so, Z is palindromic and Z equals the sum
  of the stalk polynomials shifted by rank;
* over GF(65521), stalks and Z equal the QQ answers;
* closed forms: g_1 = f_0 - (d + 1) for polytopes, P(U(3,4)) = 1 + 2t and
  P(Fano) = 1 + 8t + t^2 over GF(2).
"""

from __future__ import annotations

import json
import re

from workloads import canonical_flat

_TIMINGS = re.compile(r'\n  "timings_ms": \{[^{}]*\},?')

CLOSED_FORMS = {
    "matroid-qq/U(3,4)": [1, 2],
    "matroid-modp/fano/p2": [1, 8, 1],
}


def strip_timings(text):
    """The output bytes that must not depend on tracing."""
    return _TIMINGS.sub("", text)


def canonical(report, item):
    out = {k: v for k, v in report.items() if k not in ("input_digest", "timings_ms")}
    if item.relabel is not None and "stalks" in out:
        out["stalks"] = {
            canonical_flat(name, item.relabel): poly for name, poly in out["stalks"].items()
        }
    return out


def _coeffs(poly):
    return poly["coeffs"]


def _false_checks(checks, prefix=""):
    out = []
    for key, value in checks.items():
        if isinstance(value, dict):
            out += _false_checks(value, f"{prefix}{key}.")
        elif value is False:
            out.append(prefix + key)
    return out


def independent_problems(item, answer, references):
    """Problems found without trusting the item's own reference."""
    problems = [f"check {name} is false" for name in _false_checks(answer.get("checks", {}))]
    char = item.meta.get("char", 0)
    if char == 0 and item.argv[0] in ("matroid", "coxeter", "fan"):
        if answer.get("checks", {}).get("routes_agree") is not True:
            problems.append("routes_agree missing or false")
    if item.argv[0] == "matroid" and char:
        stalks = [_coeffs(p) for p in answer["stalks"].values()]
        trivial = all(c == [1] for c in stalks)
        if trivial != answer["p_trivial_criterion"]:
            problems.append(f"trivial stalks {trivial} but p_trivial_criterion "
                            f"{answer['p_trivial_criterion']}")
        z = _coeffs(answer["Z"])
        rank = answer["rank"]
        padded = z + [0] * (rank + 1 - len(z))
        if padded != padded[::-1]:
            problems.append(f"Z {z} is not palindromic in rank {rank}")
        ranks = _flat_ranks(answer)
        total = [0] * (rank + 1 + max(map(len, stalks)))
        for name, poly in answer["stalks"].items():
            for i, c in enumerate(_coeffs(poly)):
                total[i + ranks[name]] += c
        while total and total[-1] == 0:
            total.pop()
        if total != z:
            problems.append(f"Z {z} is not the rank-shifted sum of stalks {total}")
        if char == 65521:
            qq = references.get(f"matroid-qq/{item.meta['matroid']}")
            if qq is None or (qq["stalks"], qq["Z"]) != (answer["stalks"], answer["Z"]):
                problems.append("GF(65521) answer differs from the QQ answer")
    expected = CLOSED_FORMS.get(item.id)
    if expected is not None and _coeffs(answer["stalks"]["{}"]) != expected:
        problems.append(f"P = {_coeffs(answer['stalks']['{}'])}, expected {expected}")
    if item.argv[0] == "fan":
        g = _coeffs(answer["g"])
        g1 = g[1] if len(g) > 1 else 0
        f0, d = item.meta["n_vertices"], item.meta["dim"]
        if g1 != f0 - (d + 1):
            problems.append(f"g_1 = {g1}, expected f_0 - (d + 1) = {f0 - (d + 1)}")
    return problems


def _flat_ranks(answer):
    """Rank of each flat, by name: the output does not state it, but the
    lattice of flats is graded, so it is the length of the longest chain
    of flats below."""
    sets = {name: frozenset(int(x) for x in name.strip("{}").split(",") if x)
            for name in answer["stalks"]}
    ranks = {}
    for name in sorted(sets, key=lambda n: len(sets[n])):
        below = [ranks[m] for m in ranks if sets[m] < sets[name]]
        ranks[name] = 1 + max(below) if below else 0
    return ranks


def problems(item, stdout, references):
    """Everything wrong with the output of an item that exited with 0;
    empty when it is correct."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        answer = canonical(report, item)
        found = independent_problems(item, answer, references)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"output lacks expected fields: {type(exc).__name__}: {exc}"]
    if answer != references.get(item.id):
        found.append("output differs from the reference answer")
    return found
