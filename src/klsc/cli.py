"""Command-line entry point: the `klsc` tool.

Subcommands
-----------
kls       solve the kernel recursion on a poset/matroid/Bruhat input
fan       g-polynomials and sheaf stalks of fans and polytopes
matroid   KL- and Z-polynomials of matroids, over QQ or GF(p)
coxeter   KL-polynomials of Bruhat intervals via the moment-graph sheaf
validate  run the desk validation suite

All configuration is by flags, read by one table (COMMANDS) that also
prints --help.  Flags are spelled in full, as --name value or --name=value;
argparse's abbreviations (--all for --all-flats) are refused.  Reports are
JSON (deterministic up to the timings field) with --pretty for a
human-readable table.  Exit codes: 0 success, 1 a check or route comparison
failed, 2 malformed input or a usage error, 3 a compute limit was hit (a
truncation or degree bound; stderr starts with "compute limit:").
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time
import types

from klsc.coxeter import (
    CartanDatum,
    CoxeterGroup,
    bruhat_graph,
    element_from_json,
    enumerate_interval,
    group_from_json,
    word_from_permutation,
)
from klsc.errors import DegreeBoundError, KlscError, TruncationBoundError
from klsc.fans import Fan, build_fan_sheaf, cone_over_polytope
from klsc.field import GF, QQ
from klsc.kls import (
    coxeter_R_kernel,
    eulerian_kernel,
    kalai_check,
    matroid_kernel,
    monotonicity_check,
    solve_kls,
    verify_kernel,
    z_polynomial,
)
from klsc.matroids import Matroid, p_trivial_criterion
from klsc.matroid_ih import matroid_sheaf
from klsc.momentsheaf import compute_sheaf
from klsc.poset import RankedPoset
from klsc.poly import UniPoly


def _poly_json(p: UniPoly):
    return {"convention": "half-degree", "coeffs": p.coeff_list()}


def _digest(data):
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _field_of(char):
    return QQ if char in (None, 0) else GF(char)


def _load_input(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read input {path}: {exc}") from exc


class _InputError(Exception):
    pass


def _matroid_from_json(data) -> Matroid:
    try:
        if "bases" in data:
            return Matroid.from_bases(data["ground_set"], data["bases"])
        if "flats" in data:
            return Matroid.from_flats(data["ground_set"], data["flats"])
        if "matrix" in data:
            cols = [list(col) for col in data["matrix"]]
            return Matroid.from_matrix(cols)
        if "uniform" in data:
            k, n = data["uniform"]
            return Matroid.uniform(k, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad matroid JSON: {exc!r}") from exc
    raise _InputError("matroid JSON needs 'bases', 'flats', 'matrix' or 'uniform'")


def _fan_from_json(data) -> Fan:
    try:
        if "polytope_vertices" in data:
            return cone_over_polytope(data["polytope_vertices"])
        if "rays" in data and "max_cones" in data:
            return Fan.from_max_cones(data["dim"], data["rays"], data["max_cones"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad fan JSON: {exc!r}") from exc
    raise _InputError("fan JSON needs 'polytope_vertices' or 'rays'+'max_cones'")


def _parse_pair(spec, poset):
    """Split 'x,y' into two element names; names may themselves contain
    commas (e.g. '{0,1}'), so try every split point."""
    if ":" in spec:
        left, right = spec.split(":", 1)
        candidates = [(left, right)]
    else:
        candidates = [
            (spec[:i], spec[i + 1 :])
            for i, ch in enumerate(spec)
            if ch == ","
        ]
    for left, right in candidates:
        if left in poset.names and right in poset.names:
            x, y = poset.names.index(left), poset.names.index(right)
            if not poset.leq(x, y):
                raise _InputError(f"bad --pair {spec!r}: {left} is not below {right}")
            return x, y
    raise _InputError(f"bad --pair {spec!r}: element names not found")


def _parse_word(spec, group):
    """A word like '1,2,1', the identity 'e', or (type A) a one-line
    permutation such as '3412'."""
    if spec in (None, "", "e"):
        return group.identity
    if "," in spec:
        return element_from_json(group, [s for s in spec.split(",") if s])
    if spec.isdigit():
        digits = [int(c) for c in spec]
        if sorted(digits) == list(range(1, len(digits) + 1)) and len(digits) == group.rank + 1:
            return group.from_word(word_from_permutation(digits))
        return element_from_json(group, list(spec))
    raise _InputError(f"cannot parse word {spec!r}")


def _emit(report, args):
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.pretty:
        text = _pretty(report)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _InputError(f"cannot write report {args.output}: {exc}") from exc
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader went away (say `| head`); send the rest, and the
            # flush at exit, to devnull, so the command ends with its own
            # exit code and no traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _pretty(report, indent=0):
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            if set(val) == {"convention", "coeffs"}:
                lines.append(f"{pad}{key}: {_poly_str(val['coeffs'])}")
            else:
                lines.append(f"{pad}{key}:")
                lines.append(_pretty(val, indent + 1))
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def _poly_str(coeffs):
    return repr(UniPoly(coeffs))


def _checks_passed(checks):
    def walk(v):
        if isinstance(v, dict):
            return all(walk(x) for x in v.values())
        return v is not False

    return walk(checks)


# -- subcommands ------------------------------------------------------------------


def _cmd_kls(args):
    data = _load_input(args.input)
    if args.kernel == "eulerian":
        poset = RankedPoset.from_json(data)
        kernel = eulerian_kernel(poset)
    elif args.kernel == "matroid":
        matroid = _matroid_from_json(data)
        poset = matroid.lattice()
        kernel = matroid_kernel(poset)
    elif args.kernel == "coxeter":
        group = group_from_json(data)
        w = element_from_json(group, data.get("w", "e"))
        v = element_from_json(group, data.get("v", "e"))
        interval = enumerate_interval(group, v, w)
        poset = interval.poset
        kernel = coxeter_R_kernel(interval)
    else:  # pragma: no cover - the flag table restricts --kernel
        raise _InputError(f"unknown kernel {args.kernel}")

    ok, witness = verify_kernel(kernel)
    table = solve_kls(kernel)
    mono, _ = monotonicity_check(table)
    checks = {"kernel_axioms": ok, "monotonicity": mono}

    if args.pair:
        pairs = [_parse_pair(args.pair, poset)]
    else:
        pairs = sorted(table.pairs())
    f_table = {
        f"{poset.names[x]},{poset.names[y]}": _poly_json(table[(x, y)])
        for x, y in pairs
    }
    z_table = {
        f"{poset.names[x]},{poset.names[y]}": _poly_json(z_polynomial(table, x, y))
        for x, y in pairs
    }
    report = {
        "command": "kls",
        "kernel": args.kernel,
        "input_digest": _digest(data),
        "f": f_table,
        "Z": z_table,
        "checks": checks,
    }
    return report, 0 if _checks_passed(checks) else 1


def _cmd_fan(args):
    data = _load_input(args.input)
    fan = _fan_from_json(data)
    t0 = time.time()
    poset, sheaf = build_fan_sheaf(fan)
    bottom, top = poset.bottom(), poset.top()
    # the recursion route runs on the face poset of a single cone, which is
    # bounded and Eulerian; complete fans have several maximal cones
    table = None
    if bottom is not None and top is not None:
        table = solve_kls(eulerian_kernel(poset))
    checks = {}
    report = {
        "command": f"fan {args.action}",
        "input_digest": _digest(data),
        "cones_by_dimension": fan.counts_by_dimension(),
    }
    if args.action == "g":
        if table is None:
            raise _InputError("the g-polynomial needs a polytope or single-cone input")
        g_sheaf = sheaf.stalk_poincare(bottom)
        g_rec = table[(bottom, top)]
        checks["routes_agree"] = g_sheaf == g_rec
        kal, _ = kalai_check(table)
        checks["kalai"] = kal
        report["g"] = _poly_json(g_sheaf)
        report["g_recursion"] = _poly_json(g_rec)
    else:  # ih
        idx = args.cone if args.cone is not None else (bottom or 0)
        if not 0 <= idx < fan.n_cones():
            raise _InputError(f"cone index {idx} out of range")
        report["cone"] = list(fan.cones[idx])
        report["stalk"] = _poly_json(sheaf.stalk_poincare(idx))
        if table is not None:
            checks["matches_recursion"] = (
                sheaf.stalk_poincare(idx) == table[(idx, top)]
            )
    report["checks"] = checks
    report["timings_ms"] = {"total": round((time.time() - t0) * 1000)}
    return report, 0 if _checks_passed(checks) else 1


def _cmd_matroid(args):
    data = _load_input(args.input)
    matroid = _matroid_from_json(data)
    field = _field_of(args.char)
    t0 = time.time()
    sheaf = matroid_sheaf(matroid, field)
    L = matroid.lattice()
    checks = {}
    report = {
        "command": f"matroid {args.action}",
        "input_digest": _digest(data),
        "characteristic": field.characteristic,
        "rank": matroid.rank,
        "n_flats": len(matroid.flats()),
    }
    if args.action == "kl":
        report["P"] = _poly_json(sheaf.kl_polynomial())
    else:
        report["Z"] = _poly_json(sheaf.z_polynomial())
        checks["palindromic"] = sheaf.z_polynomial().reverse_check(matroid.rank)
    if args.all_flats:
        report["stalks"] = {
            L.names[j]: _poly_json(sheaf.stalk_poincare(j)) for j in L.elements()
        }
    if field.characteristic:
        report["p_trivial_criterion"] = p_trivial_criterion(
            matroid, field.characteristic
        )
    if args.compare_recursion:
        if field.characteristic:
            checks["compare_recursion"] = "skipped (recursion is characteristic 0)"
        else:
            table = solve_kls(matroid_kernel(L))
            agree = all(
                sheaf.stalk_poincare(j) == table[(j, L.top())] for j in L.elements()
            )
            agree = agree and sheaf.z_polynomial() == z_polynomial(
                table, L.bottom(), L.top()
            )
            checks["routes_agree"] = agree
    report["checks"] = checks
    report["timings_ms"] = {"total": round((time.time() - t0) * 1000)}
    return report, 0 if _checks_passed(checks) else 1


def _cmd_coxeter(args):
    if args.type:
        group = CoxeterGroup(CartanDatum.from_type(args.type))
    elif args.cartan:
        try:
            rows = json.loads(args.cartan)
        except json.JSONDecodeError as exc:
            raise _InputError(f"bad --cartan {args.cartan!r}: {exc}") from exc
        group = CoxeterGroup(CartanDatum.from_matrix(rows))
    else:
        raise _InputError("need --type or --cartan")
    if args.degree_bound is not None and args.degree_bound < 0:
        raise _InputError("--degree-bound must be >= 0")
    w = _parse_word(args.w, group)
    v = _parse_word(args.v, group)
    field = _field_of(args.char)
    t0 = time.time()
    interval = enumerate_interval(group, v, w)
    graph = bruhat_graph(group, interval)
    sheaf = compute_sheaf(graph, field, degree_bound=args.degree_bound)
    checks = {}
    report = {
        "command": "coxeter kl",
        "input_digest": _digest(
            {"type": args.type, "cartan": args.cartan, "w": args.w, "v": args.v}
        ),
        "characteristic": field.characteristic,
        "interval_size": len(interval),
        "P": _poly_json(sheaf.kl_from_sheaf(interval.pos[v])),
        "stalks": {
            interval.poset.names[i]: _poly_json(sheaf.kl_from_sheaf(i))
            for i in range(len(interval))
        },
    }
    if args.compare_recursion:
        if field.characteristic:
            checks["compare_recursion"] = "skipped (recursion is characteristic 0)"
        else:
            table = solve_kls(coxeter_R_kernel(interval))
            top = interval.pos[w]
            checks["routes_agree"] = all(
                sheaf.kl_from_sheaf(i) == table[(i, top)]
                for i in range(len(interval))
            )
    report["checks"] = checks
    report["timings_ms"] = {"total": round((time.time() - t0) * 1000)}
    return report, 0 if _checks_passed(checks) else 1


def _cmd_validate(args):
    from klsc.validate import run_desk_suite

    if args.suite != "desk":
        raise _InputError(f"unknown suite {args.suite!r}")
    log = print if not args.quiet else (lambda s: None)
    report = run_desk_suite(log=log)
    return report.to_json(), 0 if report.passed else 1


# -- the command line -------------------------------------------------------------


def _flag(kind="str", default=None, *, required=False, choices=None, help=""):
    """One flag of the table.  kind is "str", "int" (read with int()) or
    "switch" (takes no value; False unless given)."""
    return kind, False if kind == "switch" else default, required, choices, help


_OUTPUT_FLAGS = {
    "--output": _flag(help="write the report to a file"),
    "--pretty": _flag("switch", help="human-readable output"),
}
# the sheaf commands that take a field and a second route
_FIELD_FLAGS = {
    "--char": _flag("int", 0, help="0 for QQ, a prime p < 2^25 for GF(p)"),
    "--compare-recursion": _flag(
        "switch", help="also solve the kernel recursion and check that both routes agree"
    ),
}

# command: (help line, action choices, flags, handler)
COMMANDS = {
    "kls": ("solve the kernel recursion", (), {
        "--kernel": _flag(required=True, choices=("eulerian", "matroid", "coxeter"),
                          help="the kernel, which also fixes how --input is read"),
        "--input": _flag(required=True, help="poset, matroid or Coxeter JSON"),
        "--pair": _flag(help="restrict output to one pair, e.g. 'x,y' by element name"),
        **_OUTPUT_FLAGS,
    }, _cmd_kls),
    "fan": ("fans and polytopes", ("g", "ih"), {
        "--input": _flag(required=True, help="fan or polytope JSON"),
        "--cone": _flag("int", help="cone index for 'ih'"),
        **_OUTPUT_FLAGS,
    }, _cmd_fan),
    "matroid": ("matroid KL- and Z-polynomials", ("kl", "z"), {
        "--input": _flag(required=True, help="matroid JSON"),
        "--all-flats": _flag("switch", help="also report the stalk at every flat"),
        **_FIELD_FLAGS,
        **_OUTPUT_FLAGS,
    }, _cmd_matroid),
    "coxeter": ("Kazhdan-Lusztig polynomials of intervals", ("kl",), {
        "--type": _flag(help="Cartan type, e.g. A3"),
        "--cartan": _flag(help="Cartan matrix as JSON, e.g. '[[2,-1],[-1,2]]'"),
        "--w": _flag(required=True, help="word '1,2,1', permutation '3412', or 'e'"),
        "--v": _flag(default="e", help="lower end of the interval, written as --w"),
        "--degree-bound": _flag("int", help="truncation degree of the moment-graph sheaf"),
        **_FIELD_FLAGS,
        **_OUTPUT_FLAGS,
    }, _cmd_coxeter),
    "validate": ("run the validation suite", (), {
        "--suite": _flag(default="desk", help="the suite to run: desk"),
        "--quiet": _flag("switch", help="do not log the criteria as they run"),
        **_OUTPUT_FLAGS,
    }, _cmd_validate),
}
_HELP_FLAGS = ("-h", "--help")
# argparse's test for a negative number, which is a value and not a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(name):
    return name[2:].replace("-", "_")


def _reads_as_flag(token, flags):
    """Whether argparse would read token as a flag rather than as a value:
    it starts with '-', and it names a flag (or a prefix of one, which
    argparse would expand) or is not a negative number and has no space."""
    if len(token) < 2 or token[0] != "-":
        return False
    head = token.split("=", 1)[0] if token[1] == "-" else token[:2]
    if any(name.startswith(head) for name in (*_HELP_FLAGS, *flags)):
        return True
    return not _NEGATIVE_NUMBER.match(token) and " " not in token


def _usage(command):
    if command is None:
        return "usage: klsc {" + ",".join(COMMANDS) + "} ..."
    _, actions, flags, _ = COMMANDS[command]
    parts = ["usage: klsc", command]
    if actions:
        parts.append("{" + ",".join(actions) + "}")
    for name, (kind, _, required, choices, _) in flags.items():
        if kind != "switch":
            name += " {" + ",".join(choices) + "}" if choices else " " + _dest(name).upper()
        parts.append(name if required else f"[{name}]")
    return " ".join(parts)


def _help(command):
    if command is None:
        lines = [_usage(None), "",
                 "KLS-polynomials by kernel recursion and by sheaves on posets.", "",
                 "commands:"]
        lines += [f"  {name:<10}{spec[0]}" for name, spec in COMMANDS.items()]
        lines += ["", "'klsc <command> --help' lists a command's flags."]
    else:
        lines = [_usage(command), "", COMMANDS[command][0] + ".", "", "flags:"]
        for name, (kind, default, _, _, text) in COMMANDS[command][2].items():
            if default not in (None, False):
                text += f" (default {default})"
            lines.append(f"  {name:<21}{text}")
    lines += ["",
              "Flags are spelled in full, as --name value or --name=value; a flag",
              "given twice takes the last value.  Exit codes: 0 success, 1 a check",
              "failed, 2 malformed input or usage, 3 a compute limit was hit."]
    return "\n".join(lines)


def _usage_error(command, reason):
    prog = "klsc" if command is None else f"klsc {command}"
    print(f"{_usage(command)}\n{prog}: error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    """Read argv by the COMMANDS table, accepting what argparse accepted
    apart from abbreviated flags.  Returns a namespace holding the command,
    its handler ``fn``, the action (commands that take one) and one
    attribute per flag.  --help prints and exits 0; a usage error prints
    the reason to stderr and exits 2."""
    argv = list(argv)
    if argv[:1] in (["-h"], ["--help"]):
        print(_help(None))
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(None, f"invalid command {argv[0]!r}" if argv else "a command is required")
    command, tokens = argv[0], argv[1:]
    _, actions, flags, fn = COMMANDS[command]
    args = {"command": command, "fn": fn}
    args.update((_dest(name), spec[1]) for name, spec in flags.items())
    if actions:
        args["action"] = None
    action_at = None  # the index of the action among tokens
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--":
            # argparse takes the separator only right after the action, or
            # right before it as the last token
            rest = tokens[i:]
            if not rest and action_at == i - 2:
                break
            if not (actions and action_at is None and len(rest) == 1):
                _usage_error(command, "unrecognized arguments: " + " ".join(tokens[i - 1 :]))
            token = rest[0]
            i += 1
        elif _reads_as_flag(token, flags):
            if token in _HELP_FLAGS:
                print(_help(command))
                raise SystemExit(0)
            name, value = token, None
            if token not in flags:
                name, eq, value = token.partition("=")
                if not eq or name not in flags:
                    near = [f for f in flags if f.startswith(name)]
                    hint = f" (flags are not abbreviated: {', '.join(near)})" if near else ""
                    _usage_error(command, f"unrecognized arguments: {token}{hint}")
            kind, _, _, choices, _ = flags[name]
            if kind == "switch":
                if value is not None:
                    _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
                value = True
            elif value is None:
                if i == len(tokens) or _reads_as_flag(tokens[i], flags):
                    _usage_error(command, f"argument {name}: expected one argument")
                value = tokens[i]
                i += 1
            if kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(command, f"argument {name}: invalid int value: {value!r}")
            if choices and value not in choices:
                _usage_error(command, f"argument {name}: invalid choice: {value!r}")
            args[_dest(name)] = value
            continue
        if not actions or action_at is not None:
            _usage_error(command, f"unrecognized arguments: {token}")
        if token not in actions:
            _usage_error(command, f"argument action: invalid choice: {token!r}")
        args["action"], action_at = token, i - 1
    missing = ["action"] if actions and action_at is None else []
    missing += [name for name, spec in flags.items() if spec[2] and args[_dest(name)] is None]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    return types.SimpleNamespace(**args)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, code = args.fn(args)
        _emit(report, args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (TruncationBoundError, DegreeBoundError) as exc:
        print(f"compute limit: {exc}", file=sys.stderr)
        return 3
    except KlscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
