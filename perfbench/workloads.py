"""The benchmark's workloads: fixed items, seeded presentations.

An item is one ``klsc`` CLI invocation.  Its mathematical input is fixed;
the seed only changes how the input is presented, in ways that leave the
answer unchanged:

* the order in which a run visits its items;
* for matroids given by bases: a relabelling of the ground set, the order
  of the bases and the order of the elements inside each basis;
* for polytopes: the order of the vertices;
* for Bruhat intervals: which reduced word is passed for w and for v.

Every item has a seed-independent id, under which ``references.json``
stores its answer.  Nothing here imports ``klsc``: inputs are generated
independently of the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field

# One pass over a workload must stay about two seconds long, so that a run
# of --seconds times every item about ten times or more: timings on a
# shared machine need that many samples (see README.md, "Spread").  That
# rules out the heaviest desk items; see README.md ("Excluded anchors").
DESK_UNIFORM_EXCLUDED = {(4, 7), (5, 6), (5, 7), (6, 7)}
MODP_PRIMES = (2, 65521)
# over GF(65521) only the three largest inputs, to keep the pass short
LARGE_PRIME_INPUTS = ("K5", "K5-e", "W4")

SQUARE = [[0, 0], [1, 0], [0, 1], [1, 1]]

WORKLOADS = ("matroid-qq", "matroid-modp", "fan-qq", "bruhat")

# the item whose time is reported as anchor_s: the heaviest item of each
# workload at the commit that defined the benchmark
ANCHORS = {
    "matroid-qq": "matroid-qq/K5",
    "matroid-modp": "matroid-modp/K5/p2",
    "fan-qq": "fan-qq/simplex3",
    "bruhat": "bruhat/A3/[e,121321]",
}


@dataclass
class Item:
    """One CLI invocation: ``argv`` plus an optional JSON input file."""

    id: str
    argv: list
    input: dict | None = None
    # maps a flat name in the presented labels back to the canonical one
    relabel: dict | None = field(default=None, repr=False)
    meta: dict = field(default_factory=dict)


# -- matroid inputs ---------------------------------------------------------------


def _graphic_bases(n_vertices, edges):
    """Spanning forests of maximal size, as sorted edge-index lists."""

    def rank(subset):
        parent = list(range(n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        r = 0
        for i in subset:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a != b:
                parent[a] = b
                r += 1
        return r

    full = rank(range(len(edges)))
    return [
        list(s)
        for s in itertools.combinations(range(len(edges)), full)
        if rank(s) == full
    ]


def _fano_bases():
    """Independent triples of the seven nonzero vectors of GF(2)^3, with
    element i standing for the vector with bits of i + 1."""
    return [
        [a, b, c]
        for a, b, c in itertools.combinations(range(7), 3)
        if (a + 1) ^ (b + 1) ^ (c + 1) != 0
    ]


def matroid_inputs():
    """(name, canonical JSON input), in desk order: the desk corpus
    without U(4,7), U(5,6), U(5,7) and U(6,7), plus K5, K5-e and W4."""
    out = []
    for n in range(2, 8):
        for k in range(1, n):
            if (k, n) not in DESK_UNIFORM_EXCLUDED:
                out.append((f"U({k},{n})", {"uniform": [k, n]}))
    for n in range(1, 6):
        out.append((f"B{n}", {"ground_set": n, "bases": [list(range(n))]}))
    k4 = list(itertools.combinations(range(4), 2))
    out.append(("K4", {"ground_set": 6, "bases": _graphic_bases(4, k4)}))
    out.append(("fano", {"ground_set": 7, "bases": _fano_bases()}))
    k5 = list(itertools.combinations(range(5), 2))
    out.append(("K5", {"ground_set": 10, "bases": _graphic_bases(5, k5)}))
    out.append(("K5-e", {"ground_set": 9, "bases": _graphic_bases(5, k5[:-1])}))
    w4 = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    out.append(("W4", {"ground_set": 8, "bases": _graphic_bases(5, w4)}))
    return out


def _present_matroid(data, rng):
    """Relabel the ground set and shuffle bases; returns (input, map from
    presented flat names to canonical flat names) or (input, None)."""
    if "bases" not in data or rng is None:
        return data, None
    n = data["ground_set"]
    perm = list(range(n))
    rng.shuffle(perm)  # canonical element e is presented as perm[e]
    bases = [[perm[e] for e in b] for b in data["bases"]]
    for b in bases:
        rng.shuffle(b)
    rng.shuffle(bases)
    inverse = {p: e for e, p in enumerate(perm)}
    return {"ground_set": n, "bases": bases}, inverse


_FLAT = re.compile(r"^\{([0-9,]*)\}$")


def canonical_flat(name, inverse):
    body = _FLAT.match(name).group(1)
    elems = sorted(inverse[int(x)] for x in body.split(",") if x)
    return "{" + ",".join(map(str, elems)) + "}"


# -- polytope inputs ---------------------------------------------------------------


def polytope_inputs():
    """(name, vertices): simplices 1..3 and the square, in the desk
    corpus's coordinates."""
    out = []
    for d in (1, 2, 3):
        verts = [[0] * d]
        for i in range(d):
            v = [0] * d
            v[i] = 1
            verts.append(v)
        out.append((f"simplex{d}", verts))
    out.append(("square", SQUARE))
    return out


# -- Coxeter groups ------------------------------------------------------------------


def _a3_generators():
    """S4 acting on one-line permutations; s_a swaps the values a, a+1."""

    def gen(a):
        def act(x):
            return tuple(a + 1 if v == a else a if v == a + 1 else v for v in x)

        return act

    return [gen(a) for a in (1, 2, 3)], (1, 2, 3, 4)


def _b2_generators():
    """Signed permutations of {1, 2}: s1 swaps |1| and |2|, s2 negates 2."""

    def s1(x):
        return tuple((2 if abs(v) == 1 else 1) * (1 if v > 0 else -1) for v in x)

    def s2(x):
        return tuple(-v if abs(v) == 2 else v for v in x)

    return [s1, s2], (1, 2)


GROUPS = {"A3": _a3_generators, "B2": _b2_generators}


def coxeter_catalogue(group_type):
    """All elements with every reduced word (1-based generator tuples), and
    the Bruhat order as a map element -> set of elements below it."""
    gens, identity = GROUPS[group_type]()
    length = {identity: 0}
    words = {identity: [()]}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for a, g in enumerate(gens):
                y = g(x)
                if y not in length:
                    length[y] = length[x] + 1
                    words[y] = []
                    nxt.append(y)
                if length[y] == length[x] + 1:
                    words[y].extend((a + 1,) + w for w in words[x])
        frontier = nxt
    below = {}
    for w, ws in words.items():
        # products of subwords of one reduced word are exactly the lower interval
        word = ws[0]
        elems = set()
        for mask in range(1 << len(word)):
            x = identity
            for i in reversed(range(len(word))):
                if mask >> i & 1:
                    x = gens[word[i] - 1](x)
            elems.add(x)
        below[w] = elems
    return {w: sorted(set(ws)) for w, ws in words.items()}, below, length


def _word_name(word):
    return "".join(map(str, word)) or "e"


def _word_arg(word):
    return ",".join(map(str, word)) or "e"


def bruhat_specs():
    """(group, reduced words of v, reduced words of w, char) per item:
    every interval of B2 over QQ (with the recursion cross-check) and over
    GF(5), and every [e, w] of A3 over QQ."""
    out = []
    for group in ("B2", "A3"):
        words, below, length = coxeter_catalogue(group)
        elems = sorted(words, key=lambda x: (length[x], words[x][0]))
        for w in elems:
            for v in elems:
                if v not in below[w]:
                    continue
                if group == "A3" and length[v] != 0:
                    continue
                for char in (0, 5) if group == "B2" else (0,):
                    out.append((group, words[v], words[w], char))
    return out


# -- items -------------------------------------------------------------------------


def _suffix(char):
    return "" if char == 0 else f"/p{char}"


def build_items(workload, seed=None):
    """The workload's items in run order.  With seed None, every input is
    in its canonical presentation and the order is the definition order;
    that is how the reference answers are produced."""
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    items = []
    if workload in ("matroid-qq", "matroid-modp"):
        chars = (0,) if workload == "matroid-qq" else MODP_PRIMES
        for char in chars:
            for name, data in matroid_inputs():
                if char == 65521 and name not in LARGE_PRIME_INPUTS:
                    continue
                presented, inverse = _present_matroid(data, rng)
                argv = ["matroid", "z", "--all-flats"]
                argv += ["--compare-recursion"] if char == 0 else ["--char", str(char)]
                items.append(
                    Item(
                        f"{workload}/{name}{_suffix(char)}",
                        argv,
                        presented,
                        inverse,
                        {"matroid": name, "char": char},
                    )
                )
    elif workload == "fan-qq":
        for name, verts in polytope_inputs():
            verts = [list(v) for v in verts]
            if rng is not None:
                rng.shuffle(verts)
            items.append(
                Item(
                    f"fan-qq/{name}",
                    ["fan", "g"],
                    {"polytope_vertices": verts},
                    meta={"n_vertices": len(verts), "dim": len(verts[0])},
                )
            )
    elif workload == "bruhat":
        for group, v_words, w_words, char in bruhat_specs():
            v = v_words[0] if rng is None else rng.choice(v_words)
            w = w_words[0] if rng is None else rng.choice(w_words)
            argv = ["coxeter", "kl", "--type", group, "--w", _word_arg(w), "--v", _word_arg(v)]
            argv += ["--compare-recursion"] if char == 0 else ["--char", str(char)]
            key = f"[{_word_name(v_words[0])},{_word_name(w_words[0])}]"
            items.append(Item(f"bruhat/{group}/{key}{_suffix(char)}", argv, meta={"char": char}))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if rng is not None:
        rng.shuffle(items)
    return items


def write_inputs(items, workdir):
    """Write each item's input file and append --input to its argv."""
    for i, item in enumerate(items):
        if item.input is None:
            continue
        path = workdir / f"{i}.json"
        path.write_text(json.dumps(item.input))
        item.argv = item.argv + ["--input", str(path)]
