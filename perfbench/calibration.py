"""A fixed pure-Python workload that measures the machine's speed.

It imports nothing from klsc, so no change to klsc moves it.  Its work
mimics the kinds of work that dominate the benchmark's items: dense
elimination over QQ, a dense mostly-zero rational matrix times a vector,
and dict and tuple churn.
"""

import random
from fractions import Fraction


def calibration_kernel():
    rng = random.Random(7)
    # dense elimination over QQ, as in RowSpace.add
    n = 18
    basis = {}
    for _ in range(n):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.6 else Fraction(0)
             for _ in range(n)]
        for c, r in basis.items():
            a = v[c]
            if a:
                v = [x - a * y if y else x for x, y in zip(v, r)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            continue
        inv = 1 / v[piv]
        v = [x * inv for x in v]
        for c in list(basis):
            a = basis[c][piv]
            if a:
                basis[c] = [x - a * y if y else x for x, y in zip(basis[c], v)]
        basis[piv] = v
    # a dense matrix of mostly zero rationals times a vector, as in matvec
    zero = Fraction(0)
    rows = [[Fraction(i + j, 3) if (i * 31 + j * 17) % 97 == 0 else zero for j in range(400)]
            for i in range(400)]
    x = [Fraction(j, 5) for j in range(400)]
    out = []
    for r in rows:
        acc = zero
        for a, b in zip(r, x):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    # dict and tuple churn, as in layouts and memo tables
    d = {}
    for i in range(40000):
        d[(i % 997, i // 997)] = (i, i + 1)
    return len(basis), len(out), len(d)
