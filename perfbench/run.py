"""The klsc benchmark: one client, closed loop, one klsc CLI call per item.

    python3 perfbench/run.py --workload fan-qq --seed 1 --seconds 30 --trace 0

Run from the root of a klsc checkout; klsc is imported from its ``src/``.
Each item is ``klsc.cli.main(argv)`` in a child forked after the import,
so it starts from fresh package state as a new ``klsc`` process would, and
the next item starts only when the previous one has been reaped.  A run
repeats passes over the workload's items while another pass fits in
--seconds (and makes at least MIN_PASSES passes), checks every output,
writes a result file to ``perfbench/results/`` and prints one JSON line
last.  Each time is scaled by the machine speed that calibration.py
measured just before it, and reported times are medians over the run.

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced passes and reports the per-layer metrics (see tracing.py).
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 10
ITEM_CAP_S = 60.0  # an item running longer counts as hung and failed
RUN_LIMIT_S = 150.0  # no item starts later than this after process start
CALIBRATE_EVERY_S = 1.0  # time the calibration workload this often between items
REFERENCE_CALIBRATION_S = 0.1  # times are scaled to a machine that runs it this fast
END_TO_END_UNITS = {"wall_s": "s", "anchor_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    pass


def import_klsc():
    """Import klsc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "klsc" / "__init__.py").is_file():
        raise SetupError(f"no klsc package under {src}")
    # items fork after this import; keep BLAS from starting a thread pool
    # that the children could not use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import klsc.cli

    if Path(klsc.__file__).resolve().parent != (src / "klsc").resolve():
        raise SetupError(f"klsc imported from {klsc.__file__}, not from {src}")
    return klsc.cli


def load_references():
    path = HERE / "references.json"
    try:
        return json.loads(path.read_text())["answers"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read reference answers {path}: {exc}") from exc


def setup(workload, seed):
    """Import klsc, build the seeded inputs and load the references."""
    cli = import_klsc()
    references = load_references()
    items = workloads.build_items(workload, seed)
    missing = [item.id for item in items if item.id not in references]
    if missing:
        raise SetupError(f"no reference answer for {missing[:3]}")
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(items, workdir)
    return cli, items, references, workdir


# -- one item ------------------------------------------------------------------------


def _child(cli, item, traced, out_w, err_w, summary_path):
    code = 70
    try:
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            code = cli.main(item.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        sys.stdout.flush()
        if tracer is not None:
            summary_path.write_text(json.dumps(tracer.summary()))
    except BaseException:
        traceback.print_exc()
        code = 70
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def run_item(cli, item, traced, cap, workdir):
    """Run one item in a forked child; returns a result dict with the exit
    code, output, wall time, peak RSS and (traced) the span summary."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    summary_path = workdir / f"summary-{item.id.replace('/', '_')}.json"
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(out_r)
        os.close(err_r)
        _child(cli, item, traced, out_w, err_w, summary_path)
    os.close(out_w)
    os.close(err_w)
    chunks = {out_r: [], err_r: []}
    open_fds = [out_r, err_r]
    hung = False
    try:
        while open_fds:
            remaining = start + cap - time.perf_counter()
            if remaining <= 0:
                hung = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select(open_fds, [], [], remaining)
            for fd in ready:
                data = os.read(fd, 1 << 16)
                if data:
                    chunks[fd].append(data)
                else:
                    open_fds.remove(fd)
    finally:
        for fd in (out_r, err_r):
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    result = {
        "id": item.id,
        "code": "hung" if hung else os.waitstatus_to_exitcode(status),
        "stdout": b"".join(chunks[out_r]).decode(errors="replace"),
        "stderr": b"".join(chunks[err_r]).decode(errors="replace")[-2000:],
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "summary": None,
    }
    if traced and summary_path.exists():
        result["summary"] = json.loads(summary_path.read_text())
        summary_path.unlink()
    return result


def _not_run(item):
    return {"id": item.id, "code": "not run before the run limit", "stdout": "",
            "stderr": "", "wall_s": 0.0, "rss_mb": 0.0, "summary": None}


def run_pass(cli, items, traced, workdir, around=None):
    """One pass over the items; returns (wall seconds, item results).
    ``around(item, run)``, if given, runs each item by calling ``run()``
    and returns its result."""
    results = []
    start = time.perf_counter()
    for item in items:
        left = RUN_LIMIT_S - (time.perf_counter() - _PROCESS_T0)
        if left <= 0:
            results.append(_not_run(item))
            continue
        run = functools.partial(run_item, cli, item, traced, min(ITEM_CAP_S, left + 10.0), workdir)
        results.append(run() if around is None else around(item, run))
    return time.perf_counter() - start, results


def time_calibration():
    """Seconds the calibration workload takes in a forked child."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            calibration.calibration_kernel()
            code = 0
        finally:
            os._exit(code)
    _, status, _ = os.wait4(pid, 0)
    if status:
        raise SetupError("the calibration workload failed")
    return time.perf_counter() - start


def item_problems(item, result, references):
    if result["code"] == 0:
        return checks.problems(item, result["stdout"], references)
    detail = result["stderr"].strip().splitlines()[-1:] or [""]
    return [f"exit {result['code']}: {detail[0]}"]


# -- environment --------------------------------------------------------------------


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return out.stdout.strip() or None


def environment(seed):
    import numpy
    import klsc.field

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "klsc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rational_backend": type(klsc.field.QQ.one).__module__.split(".")[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- runs -----------------------------------------------------------------------------


def setup_sample(args):
    """(set-up seconds, calibration seconds): the time from spawning a
    fresh process to the end of its set-up, and the calibration workload's
    time just before it, which says how fast the machine was then."""
    calibration_s = time_calibration()
    t0 = time.time()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if out.returncode != 0:
        raise SetupError(f"set-up process failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip().splitlines()[-1]) - t0, calibration_s


def _another_fits(start, done, seconds):
    """Whether one more pass, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def measure(cli, items, references, workdir, args):
    """Untraced passes; returns (end-to-end metrics, passes, failures,
    set-up samples).

    Load from other tenants of a shared machine changes its speed from
    one second to the next, so every time is scaled by how fast the
    machine was just then: by REFERENCE_CALIBRATION_S over the time of the
    calibration workload, timed about once every CALIBRATE_EVERY_S between
    items, just before each set-up sample and on both sides of the anchor,
    which is long enough for the speed to change under it.  Set-ups are
    sampled SETUP_SAMPLES times spread evenly over the run, so that they
    meet the same load as the items.  See README.md, "Why scaled
    times and small items"."""
    anchor = workloads.ANCHORS[args.workload]
    passes, failures, samples = [], [], []
    start = time.perf_counter()
    due = {"calibration": start, "setup": start}
    latest = [None]  # seconds of the latest calibration

    def calibrate():
        latest[0] = time_calibration()
        due["calibration"] = time.perf_counter() + CALIBRATE_EVERY_S
        return latest[0]

    def around(item, run):
        if time.perf_counter() >= due["setup"]:
            samples.append(setup_sample(args))
            due["setup"] += args.seconds / SETUP_SAMPLES
        if item.id == anchor or time.perf_counter() >= due["calibration"]:
            calibrate()
        calibration_s = latest[0]
        result = run()
        if item.id == anchor:
            calibration_s = (calibration_s + calibrate()) / 2
        result["calibration_s"] = calibration_s
        return result

    while len(passes) < MIN_PASSES or _another_fits(start, len(passes), args.seconds):
        if time.perf_counter() - _PROCESS_T0 > RUN_LIMIT_S:
            break
        wall, results = run_pass(cli, items, False, workdir, around)
        passes.append({"wall_s": wall, "items": results})
        for item, result in zip(items, results):
            found = item_problems(item, result, references)
            if found:
                failures.append({"pass": len(passes), "item": item.id, "problems": found})
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(args))
    per_item = {}
    for p in passes:
        for r in p["items"]:
            if "calibration_s" in r:
                scaled = r["wall_s"] * REFERENCE_CALIBRATION_S / r["calibration_s"]
                per_item.setdefault(r["id"], []).append(scaled)
    item_s = {item_id: statistics.median(times) for item_id, times in per_item.items()}
    metrics = {
        "wall_s": sum(item_s.values()),
        "anchor_s": item_s.get(anchor, 0.0),
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p["items"]),
        "setup_s": statistics.median(s * REFERENCE_CALIBRATION_S / c for s, c in samples),
    }
    return metrics, passes, failures, samples


def measure_traced(cli, items, references, workdir, args):
    """Pairs of plain and traced passes; returns (per-layer metrics,
    passes, failures).  Traced outputs must match the plain ones byte for
    byte outside timings_ms."""
    passes, failures, layer_runs = [], [], []
    start = time.perf_counter()
    while not layer_runs or _another_fits(start, len(layer_runs), args.seconds):
        if time.perf_counter() - _PROCESS_T0 > RUN_LIMIT_S:
            break
        plain_wall, plain = run_pass(cli, items, False, workdir)
        traced_wall, traced = run_pass(cli, items, True, workdir)
        passes.append({"wall_s": plain_wall, "traced": False, "items": plain})
        passes.append({"wall_s": traced_wall, "traced": True, "items": traced})
        for item, p, t in zip(items, plain, traced):
            found = item_problems(item, p, references)
            if found:
                failures.append({"pass": len(passes) - 1, "item": item.id, "problems": found})
            found = item_problems(item, t, references)
            if not found and checks.strip_timings(t["stdout"]) != checks.strip_timings(p["stdout"]):
                found = ["traced output differs from the plain output"]
            if not found and t["summary"] is None:
                found = ["traced item returned no span summary"]
            if found:
                failures.append({"pass": len(passes), "item": item.id, "problems": found})
        summaries = [t["summary"] for t in traced if t["summary"] is not None]
        layer = tracing.layer_metrics(tracing.merge(summaries))
        layer["trace.overhead_s"] = traced_wall - plain_wall
        layer_runs.append(layer)
    metrics = {name: statistics.median([run[name] for run in layer_runs]) for name in tracing.METRIC_UNITS}
    return metrics, passes, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = None
    try:
        cli, items, references, workdir = setup(args.workload, args.seed)
        if args.setup_only:
            print(time.time())
            return 0
        if args.trace:
            tracing.check_targets()
        env = environment(args.seed)
        if args.trace:
            metrics, passes, failures = measure_traced(cli, items, references, workdir, args)
            samples, units = [], tracing.METRIC_UNITS
        else:
            metrics, passes, failures, samples = measure(cli, items, references, workdir, args)
            units = END_TO_END_UNITS
    except (SetupError, tracing.TraceTargetError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["items"]) for p in passes)
    outcome = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "setup_samples_s": [s for s, _ in samples],
        "setup_calibrations_s": [c for _, c in samples],
        "passes": [
            {"wall_s": p["wall_s"], "traced": p.get("traced", False),
             "items": [{key: r[key] for key in ("id", "wall_s", "calibration_s", "rss_mb")
                        if key in r} for r in p["items"]]}
            for p in passes
        ],
        "failures": failures[:100],
        **outcome,
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for f in failures[:10]:
        print(f"FAILED pass {f['pass']} {f['item']}: {'; '.join(f['problems'])}", file=sys.stderr)

    if args.trace:
        missing = tracing.check_predictions(args.workload, metrics)
        if missing:
            print(f"perfbench: counters predicted non-zero on {args.workload} read 0: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 3
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
