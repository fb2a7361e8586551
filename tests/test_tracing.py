"""The benchmark's traced run still finds every klsc name it wraps and
moves every counter it predicts."""

import contextlib
import importlib.util
import itertools
import json
import os
import traceback
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    """perfbench/tracing.py wraps klsc functions and methods by name; a
    refactor that renames one (RowSpace.add, EdgeRing.reduce,
    MatroidIHSheaf.__init__, ...) makes check_targets raise."""
    _load_tracing().check_targets()


def _traced_run(workload, argvs):
    """Run the CLI calls under perfbench/tracing.py's Tracer and return
    their exit codes, the predicted counters that read 0 on their union,
    and the per-layer metrics.  The tracer is installed for good, so the
    calls run in a forked child, which first clears the sheaf memo that
    earlier tests in this process filled, as a benchmark item starts from
    an empty one."""
    tracing = _load_tracing()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        code = 70
        try:
            os.close(read_end)
            from klsc import matroid_ih
            from klsc.cli import main

            matroid_ih._MEMO.clear()

            tracer = tracing.Tracer()
            tracer.install()
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                exits = [main(argv) for argv in argvs]
            metrics = tracing.layer_metrics(tracer.summary())
            report = {
                "exits": exits,
                "zero": tracing.check_predictions(workload, metrics),
                "metrics": metrics,
            }
            with os.fdopen(write_end, "w") as out:
                json.dump(report, out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as src:
        raw = src.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, raw
    return json.loads(raw)


def test_traced_matroid_run_moves_every_predicted_counter(tmp_path):
    """A traced `matroid z --all-flats --compare-recursion` on U(2,4), the
    matroid-qq item kind, moves every counter the benchmark predicts
    non-zero there, so an untagged QQ elimination that bypasses
    RowSpace.add fails here and not only in a traced benchmark run."""
    bases = [list(b) for b in itertools.combinations(range(4), 2)]
    path = tmp_path / "u24.json"
    path.write_text(json.dumps({"ground_set": 4, "bases": bases}))
    argv = ["matroid", "z", "--all-flats", "--compare-recursion", "--input", str(path)]
    report = _traced_run("matroid-qq", [argv])
    assert report["exits"] == [0]
    assert report["zero"] == [] and report["metrics"]["linalg.add.qq.calls"] > 0


def test_traced_bruhat_run_moves_every_predicted_counter():
    """Two traced bruhat items, A3 [e, 2132] over QQ with the recursion
    cross-check and B2 [e, w0] over GF(5), move every counter the
    benchmark predicts non-zero on bruhat, so a moment-graph sheaf that
    bypasses EdgeRing.reduce, MultiPoly.__mul__ or the tagged RowSpace
    fails here and not only in a traced benchmark run."""
    argvs = [
        ["coxeter", "kl", "--type", "A3", "--w", "2,1,3,2", "--compare-recursion"],
        ["coxeter", "kl", "--type", "B2", "--w", "1,2,1,2", "--char", "5"],
    ]
    report = _traced_run("bruhat", argvs)
    assert report["exits"] == [0, 0]
    assert report["zero"] == []
