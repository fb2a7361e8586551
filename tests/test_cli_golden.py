"""Golden digests of CLI reports on the commands that cross-check the
recursion against a sheaf: `matroid z --all-flats --compare-recursion` on
the 27 matroids of the matroid-qq benchmark workload, `coxeter kl
--compare-recursion` on every QQ interval of the bruhat workload, and
`fan g` and `fan ih` (at every cone) on the fan-qq polytopes.  Each digest
is a sha256 of the report without `timings_ms`, the only field allowed to
change from run to run.  The digests in data/cli_digests.json were
computed by the implementation that solved the whole KLS table for every
command, before these commands solved only the column of the top element;
any change to how the recursion or the sheaves are computed must leave
them unchanged.

The inputs come from perfbench/workloads.py in their canonical
presentation; that module imports nothing from klsc.

Regenerate them only on purpose:  python tests/test_cli_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from klsc.cli import parse_args
from klsc.fans import cone_over_polytope

from helpers import load_workloads

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"


def calls():
    """(key, argv, input JSON or None) per call."""
    workloads = load_workloads()
    out = []
    for name, data in workloads.matroid_inputs():
        argv = ["matroid", "z", "--all-flats", "--compare-recursion"]
        out.append((f"matroid/{name}", argv, data))
    for group, v_words, w_words, char in workloads.bruhat_specs():
        if char:
            continue
        v, w = (",".join(map(str, words[0])) or "e" for words in (v_words, w_words))
        argv = ["coxeter", "kl", "--type", group, "--w", w, "--v", v, "--compare-recursion"]
        key = "[" + ",".join("".join(map(str, ws[0])) or "e" for ws in (v_words, w_words)) + "]"
        out.append((f"coxeter/{group}/{key}", argv, None))
    for name, verts in workloads.polytope_inputs():
        data = {"polytope_vertices": verts}
        out.append((f"fan/g/{name}", ["fan", "g"], data))
        for cone in range(cone_over_polytope(verts).n_cones()):
            out.append((f"fan/ih/{name}/{cone}", ["fan", "ih", "--cone", str(cone)], data))
    return out


def digest(argv, data, workdir):
    if data is not None:
        path = Path(workdir) / "input.json"
        path.write_text(json.dumps(data))
        argv = argv + ["--input", str(path)]
    args = parse_args(argv)
    report, code = args.fn(args)
    assert code == 0
    report.pop("timings_ms", None)
    text = json.dumps(report, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CASES = calls()


def test_every_call_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(key for key, *_ in CASES)


@pytest.mark.parametrize("key, argv, data", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_digest(key, argv, data, tmp_path):
    assert digest(argv, data, tmp_path) == json.loads(DIGESTS.read_text())[key]


if __name__ == "__main__":  # pragma: no cover
    with tempfile.TemporaryDirectory() as workdir:
        digests = {key: digest(argv, data, workdir) for key, argv, data in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
