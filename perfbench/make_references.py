"""Regenerate references.json: the answer of every benchmark item.

    python3 perfbench/make_references.py

Runs each item once, in its canonical presentation, exactly as run.py
does, and stores the output without the input digest and timings.  It
refuses to write the file if any item fails or any check in checks.py
that does not rely on the references finds a problem.  Only rerun it when
an intended change of the CLI output makes the stored answers stale.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main():
    cli = run.import_klsc()
    workdir = run.HERE / ".work" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    answers, bad = {}, []
    try:
        # matroid-qq first: the GF(65521) check compares against its answers
        for workload in workloads.WORKLOADS:
            items = workloads.build_items(workload)
            workloads.write_inputs(items, workdir)
            for item in items:
                result = run.run_item(cli, item, False, run.ITEM_CAP_S, workdir)
                if result["code"] != 0:
                    bad.append((item.id, f"exit {result['code']}: {result['stderr'][-300:]}"))
                    continue
                answer = checks.canonical(json.loads(result["stdout"]), item)
                found = checks.independent_problems(item, answer, answers)
                if found:
                    bad.append((item.id, "; ".join(found)))
                answers[item.id] = answer
                print(f"{item.id}: {result['wall_s']:.2f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        for item_id, why in bad:
            print(f"FAILED {item_id}: {why}", file=sys.stderr)
        return 1
    # one answer per line, so a changed answer shows as a one-line diff
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in answers.items()]
    env = json.dumps(run.environment(None), sort_keys=True)
    text = '{"env": ' + env + ',\n"answers": {\n' + ",\n".join(lines) + "\n}}\n"
    (run.HERE / "references.json").write_text(text)
    print(f"wrote {len(answers)} answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
