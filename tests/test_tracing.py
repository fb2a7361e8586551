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


def test_traced_matroid_run_moves_every_predicted_counter(tmp_path):
    """A traced `matroid z --all-flats --compare-recursion` on U(2,4), the
    matroid-qq item kind, moves every counter the benchmark predicts
    non-zero there, so an untagged QQ elimination that bypasses
    RowSpace.add fails here and not only in a traced benchmark run.  The
    tracer is installed for good, so it runs in a forked child, and the
    child clears the sheaf memo that earlier tests in this process filled."""
    tracing = _load_tracing()
    bases = [list(b) for b in itertools.combinations(range(4), 2)]
    path = tmp_path / "u24.json"
    path.write_text(json.dumps({"ground_set": 4, "bases": bases}))
    argv = ["matroid", "z", "--all-flats", "--compare-recursion", "--input", str(path)]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        code = 70
        try:
            os.close(read_end)
            from klsc import matroid_ih
            from klsc.cli import main

            # start from the empty memo a benchmark item starts from
            matroid_ih._MEMO.clear()

            tracer = tracing.Tracer()
            tracer.install()
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                exit_code = main(argv)
            metrics = tracing.layer_metrics(tracer.summary())
            report = {
                "exit": exit_code,
                "zero": tracing.check_predictions("matroid-qq", metrics),
                "qq_adds": metrics["linalg.add.qq.calls"],
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
    report = json.loads(raw)
    assert report["exit"] == 0
    assert report["zero"] == [] and report["qq_adds"] > 0
