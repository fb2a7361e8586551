"""The klsc command line: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import build_parser
from klsc.cli import COMMANDS, main, parse_args


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


U34 = {"ground_set": 4, "bases": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
SQUARE = {"polytope_vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}


class TestMatroidCommand:
    def test_kl_u34(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        code = main(["matroid", "kl", "--input", path, "--compare-recursion"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["P"]["coeffs"] == [1, 2]
        assert out["P"]["convention"] == "half-degree"
        assert out["checks"]["routes_agree"] is True

    def test_z_all_flats(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        code = main(["matroid", "z", "--input", path, "--all-flats"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["Z"]["coeffs"] == [1, 6, 6, 1]
        assert len(out["stalks"]) == 12

    def test_char_p(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        code = main(["matroid", "kl", "--input", path, "--char", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["characteristic"] == 2
        assert out["p_trivial_criterion"] is False

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["matroid", "kl", "--input", str(path)]) == 2

    def test_missing_fields_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.json", {"ground_set": 3})
        assert main(["matroid", "kl", "--input", path]) == 2

    def test_char_above_cap_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        assert main(["matroid", "kl", "--input", path, "--char", "3037000493"]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_non_integer_ground_set_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"ground_set": "x", "bases": [[0]]})
        assert main(["matroid", "kl", "--input", path]) == 2
        assert "bad matroid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"ground_set": 3.5, "bases": [[0, 1, 2]]},
            {"uniform": [2.5, 4]},
            {"uniform": [True, 3]},
            {"ground_set": 2, "flats": [{"set": [], "rank": 0}, {"set": [0, 1], "rank": 1.5}]},
            {"ground_set": 2, "flats": [{"set": [], "rank": 0}, {"set": [0, 1], "rank": "1"}]},
            {"ground_set": 2, "bases": [[0, 1.0]]},
        ],
        ids=["float-ground-set", "float-uniform", "bool-uniform", "float-flat-rank",
             "string-flat-rank", "float-basis-element"],
    )
    def test_non_integer_value_exits_2(self, tmp_path, capsys, data):
        # int() would have read each of these as a different matroid
        path = write(tmp_path, "bad.json", data)
        assert main(["matroid", "kl", "--input", path]) == 2
        assert "bad matroid JSON" in capsys.readouterr().err

    def test_non_numeric_matrix_entry_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"matrix": [[1, "a"], [0, 1]]})
        assert main(["matroid", "kl", "--input", path]) == 2
        assert "bad matroid JSON" in capsys.readouterr().err

    def test_boolean_matrix_entry_exits_2(self, tmp_path, capsys):
        # true was read as 1, and the identity matrix's answer printed
        path = write(tmp_path, "bad.json", {"matrix": [[True, 0], [0, 1]]})
        assert main(["matroid", "kl", "--input", path]) == 2
        assert "cannot parse rational from True" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix",
        [[[1, 0], [0, 1, 1]], [[1, 0, 5], [0, 1], [1, 1]]],
        ids=["long-last-column", "short-middle-column"],
    )
    def test_ragged_matrix_exits_2(self, tmp_path, capsys, matrix):
        # the first was computed as if the columns were padded, the second
        # crashed in the elimination
        path = write(tmp_path, "bad.json", {"matrix": matrix})
        assert main(["matroid", "kl", "--input", path]) == 2
        assert "unequal length" in capsys.readouterr().err

    def test_char_p_comparison_does_not_solve_the_recursion(self, tmp_path, capsys, monkeypatch):
        def refuse(kernel):
            raise AssertionError("the recursion is characteristic 0 only")

        monkeypatch.setattr("klsc.cli.solve_kls", refuse)
        path = write(tmp_path, "u34.json", U34)
        code = main(["matroid", "kl", "--input", path, "--char", "2", "--compare-recursion"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["checks"]["compare_recursion"].startswith("skipped")

    def test_degree_bound_is_coxeter_only(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        with pytest.raises(SystemExit) as exc:
            main(["matroid", "kl", "--input", path, "--degree-bound", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_field_flags_are_matroid_and_coxeter_only(self, tmp_path, capsys):
        square = write(tmp_path, "square.json", SQUARE)
        u34 = write(tmp_path, "u34.json", U34)
        for argv in (
            ["fan", "g", "--input", square, "--char", "6"],
            ["fan", "ih", "--input", square, "--compare-recursion"],
            ["kls", "--kernel", "matroid", "--input", u34, "--compare-recursion"],
            ["kls", "--kernel", "matroid", "--input", u34, "--char", "2"],
            ["validate", "--char", "5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        capsys.readouterr()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        # this raised FileNotFoundError (exit 1 with a traceback)
        path = write(tmp_path, "u34.json", U34)
        report = str(tmp_path / "missing" / "report.json")
        assert main(["matroid", "kl", "--input", path, "--output", report]) == 2
        captured = capsys.readouterr()
        assert "cannot write report" in captured.err and captured.out == ""

    def test_flats_input(self, tmp_path, capsys):
        data = {
            "ground_set": 3,
            "flats": [
                {"set": [], "rank": 0},
                {"set": [0], "rank": 1},
                {"set": [1], "rank": 1},
                {"set": [2], "rank": 1},
                {"set": [0, 1, 2], "rank": 2},
            ],
        }
        path = write(tmp_path, "u23.json", data)
        code = main(["matroid", "kl", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["P"]["coeffs"] == [1]

    def test_matrix_input(self, tmp_path, capsys):
        data = {"matrix": [["1", "0"], ["0", "1"], ["1/2", "1/3"]]}
        path = write(tmp_path, "pts.json", data)
        code = main(["matroid", "z", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["Z"]["coeffs"] == [1, 3, 1]


class TestFanCommand:
    def test_g_square(self, tmp_path, capsys):
        path = write(tmp_path, "square.json", SQUARE)
        code = main(["fan", "g", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["g"]["coeffs"] == [1, 1]
        assert out["checks"]["routes_agree"] is True

    def test_g_point(self, tmp_path, capsys):
        path = write(tmp_path, "pt.json", {"polytope_vertices": [[]]})
        code = main(["fan", "g", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["g"]["coeffs"] == [1]

    def test_ih_at_cone(self, tmp_path, capsys):
        path = write(tmp_path, "square.json", SQUARE)
        code = main(["fan", "ih", "--input", path, "--cone", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["checks"]["matches_recursion"] is True

    def test_max_cone_fan_input(self, tmp_path, capsys):
        data = {
            "dim": 2,
            "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
        }
        path = write(tmp_path, "orth.json", data)
        code = main(["fan", "ih", "--input", path, "--cone", "0"])
        assert code == 0
        capsys.readouterr()

    def test_boolean_vertex_coordinate_exits_2(self, tmp_path, capsys):
        # false and true were read as the segment [0, 1]
        path = write(tmp_path, "bad.json", {"polytope_vertices": [[False], [True]]})
        assert main(["fan", "g", "--input", path]) == 2
        assert "cannot parse rational from False" in capsys.readouterr().err

    def test_non_integer_dimension_exits_2(self, tmp_path, capsys):
        data = {"dim": "x", "rays": [[1, 0]], "max_cones": [[0]]}
        path = write(tmp_path, "bad.json", data)
        assert main(["fan", "g", "--input", path]) == 2
        assert "bad fan JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"dim": 2, "rays": [[1.5, 0], [0, 1]], "max_cones": [[0, 1]]},
            {"dim": 2.7, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]},
            {"dim": 2, "rays": [[True, 0], [0, 1]], "max_cones": [[0, 1]]},
        ],
        ids=["float-ray-entry", "float-dim", "boolean-ray-entry"],
    )
    def test_non_integer_fan_exits_2(self, tmp_path, capsys, data):
        # int() used to truncate these to a valid fan and exit 0
        path = write(tmp_path, "bad.json", data)
        assert main(["fan", "ih", "--input", path, "--cone", "0"]) == 2
        assert "bad fan JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rays, cone, message",
        [
            ([[1, 0], [0, 1]], [0, 5], "out of range"),
            ([[1, 0], [0, 1], [1, 1]], [0, -1], "out of range"),
            ([[1, 0], [0, 1]], [0, True], "expected an integer"),
        ],
        ids=["index-past-the-rays", "negative-index", "boolean-index"],
    )
    def test_bad_cone_index_exits_2(self, tmp_path, capsys, rays, cone, message):
        # these used to raise IndexError (exit 1), or to read -1 as the
        # last ray and True as ray 1 (exit 0)
        path = write(tmp_path, "bad.json", {"dim": 2, "rays": rays, "max_cones": [cone]})
        assert main(["fan", "ih", "--input", path, "--cone", "0"]) == 2
        assert message in capsys.readouterr().err


class TestCoxeterCommand:
    def test_a3_3412(self, capsys):
        code = main(
            ["coxeter", "kl", "--type", "A3", "--w", "3412", "--v", "e",
             "--compare-recursion"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["P"]["coeffs"] == [1, 1]
        assert out["interval_size"] == 14
        assert out["checks"]["routes_agree"] is True

    def test_word_form(self, capsys):
        code = main(["coxeter", "kl", "--type", "A2", "--w", "1,2,1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["P"]["coeffs"] == [1]

    def test_degree_bound(self, capsys):
        code = main(["coxeter", "kl", "--type", "A2", "--w", "1,2,1", "--degree-bound", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["P"]["coeffs"] == [1]

    def test_bad_type_exits_2(self, capsys):
        assert main(["coxeter", "kl", "--type", "H3", "--w", "1"]) == 2
        capsys.readouterr()

    def test_unparsable_cartan_exits_2(self, capsys):
        assert main(["coxeter", "kl", "--cartan", "[[2,-1]", "--w", "1"]) == 2
        assert "bad --cartan" in capsys.readouterr().err

    def test_non_matrix_cartan_exits_2(self, capsys):
        assert main(["coxeter", "kl", "--cartan", "5", "--w", "1"]) == 2
        assert "Cartan matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cartan",
        ["[[2,-1.5],[-1,2]]", "[[2,-1],[-1,2.0]]", "[[2,false],[false,2]]"],
        ids=["float-entry", "float-diagonal", "boolean-entry"],
    )
    def test_non_integer_cartan_exits_2(self, capsys, cartan):
        # int() used to truncate these to a valid Cartan matrix and exit 0
        assert main(["coxeter", "kl", "--cartan", cartan, "--w", "1,2"]) == 2
        assert "Cartan matrix" in capsys.readouterr().err

    def test_negative_degree_bound_exits_2(self, capsys):
        argv = ["coxeter", "kl", "--type", "A2", "--w", "1,2", "--degree-bound", "-1"]
        assert main(argv) == 2
        assert "--degree-bound" in capsys.readouterr().err

    def test_compute_limit_exits_3(self, capsys):
        argv = ["coxeter", "kl", "--type", "A2", "--w", "1,2", "--degree-bound", "0"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("compute limit:") and captured.out == ""


class TestKlsCommand:
    def test_matroid_kernel_pair(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        code = main(
            ["kls", "--kernel", "matroid", "--input", path, "--pair", "{},{0,1,2,3}"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        key = "{},{0,1,2,3}"
        assert out["f"][key]["coeffs"] == [1, 2]
        assert out["Z"][key]["coeffs"] == [1, 6, 6, 1]
        assert out["checks"]["kernel_axioms"] is True

    def test_eulerian_kernel_on_poset(self, tmp_path, capsys):
        # face poset of a segment's cone: bottom, two rays, origin
        data = {
            "elements": ["sigma", "r0", "r1", "0"],
            "rank": [0, 1, 1, 2],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
        }
        path = write(tmp_path, "poset.json", data)
        code = main(["kls", "--kernel", "eulerian", "--input", path,
                     "--pair", "sigma,0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["f"]["sigma,0"]["coeffs"] == [1]

    @pytest.mark.parametrize("field, value", [
        ("rank", ["x", 1]),
        ("rank", [0, 1.5]),
        ("covers", [["a"]]),
    ])
    def test_malformed_poset_exits_2(self, tmp_path, capsys, field, value):
        data = {"elements": ["a", "b"], "rank": [0, 1], "covers": [[0, 1]]}
        data[field] = value
        path = write(tmp_path, "poset.json", data)
        assert main(["kls", "--kernel", "eulerian", "--input", path]) == 2
        assert "bad poset JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("rank", [False, True]),
        ("covers", [[0, True]]),
    ], ids=["boolean-ranks", "boolean-cover"])
    def test_boolean_poset_index_exits_2(self, tmp_path, capsys, field, value):
        # operator.index read False and True as 0 and 1, and exited 0
        data = {"elements": ["a", "b"], "rank": [0, 1], "covers": [[0, 1]]}
        data[field] = value
        path = write(tmp_path, "poset.json", data)
        assert main(["kls", "--kernel", "eulerian", "--input", path]) == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pair, left, right",
        [("{0},{1}", "{0}", "{1}"), ("{0,1,2,3},{}", "{0,1,2,3}", "{}")],
        ids=["incomparable", "reversed"],
    )
    def test_pair_not_in_order_exits_2(self, tmp_path, capsys, pair, left, right):
        # these raised KeyError from the KLS table (exit 1 with a traceback)
        path = write(tmp_path, "u34.json", U34)
        assert main(["kls", "--kernel", "matroid", "--input", path, "--pair", pair]) == 2
        assert f"{left} is not below {right}" in capsys.readouterr().err

    def test_coxeter_kernel(self, tmp_path, capsys):
        path = write(tmp_path, "cox.json", {"type": "A2", "w": [1, 2, 1]})
        code = main(["kls", "--kernel", "coxeter", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["checks"]["kernel_axioms"] is True

    def test_coxeter_kernel_reads_a_digit_string_word(self, tmp_path, capsys):
        path = write(tmp_path, "cox.json", {"type": "A2", "w": "121"})
        assert main(["kls", "--kernel", "coxeter", "--input", path]) == 0
        assert main(["coxeter", "kl", "--type", "A2", "--w", "121"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "A2", "w": [1.9, 2.2]},
            {"type": "A2", "w": [True, 2]},
            {"type": "A2", "w": [1, 2], "v": [1.0]},
        ],
        ids=["float-word", "boolean-word", "float-lower-word"],
    )
    def test_non_integer_coxeter_word_exits_2(self, tmp_path, capsys, data):
        # int() used to truncate these to a valid word and exit 0
        path = write(tmp_path, "cox.json", data)
        assert main(["kls", "--kernel", "coxeter", "--input", path]) == 2
        assert "bad word" in capsys.readouterr().err


# index fields as malformed JSON writes them: negative and out-of-range
# ints, booleans, floats and strings, among valid small indices
_INDICES = st.one_of(
    st.integers(0, 3),
    st.integers(-5, 8),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text("0123-x", max_size=2),
)
_RAYS_2D = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]]


@st.composite
def _fuzzed_fans(draw):
    rays = draw(st.lists(st.sampled_from(_RAYS_2D), min_size=1, max_size=4, unique_by=tuple))
    cones = draw(st.lists(st.lists(_INDICES, min_size=1, max_size=3), min_size=1, max_size=3))
    return {"dim": 2, "rays": rays, "max_cones": cones}


@st.composite
def _fuzzed_posets(draw):
    n = draw(st.integers(1, 4))
    ranks = draw(st.lists(_INDICES, min_size=n, max_size=n))
    covers = draw(st.lists(st.lists(_INDICES, min_size=2, max_size=2), max_size=5))
    return {"elements": [str(i) for i in range(n)], "rank": ranks, "covers": covers}


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just(["fan", "ih"]), _fuzzed_fans()),
    st.tuples(st.just(["kls", "--kernel", "eulerian"]), _fuzzed_posets()),
))
def test_fuzzed_index_fields_exit_cleanly(tmp_path_factory, command):
    """Whatever the index fields of a small fan or poset JSON hold, the CLI
    answers with an exit code and lets no exception escape."""
    argv, data = command
    path = write(tmp_path_factory.mktemp("fuzz"), "input.json", data)
    assert main(argv + ["--input", path]) in (0, 1, 2, 3)


class TestParsing:
    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"  {command}  " in out for command in COMMANDS)
        with pytest.raises(SystemExit) as exc:
            main(["matroid", "kl", "-h"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  --all-flats          also report the stalk at every flat" in lines

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["matroid", "kl", "--input", "u34.json", "--all"],
             "unrecognized arguments: --all (flags are not abbreviated: --all-flats)"),
            (["matroid", "kl", "--input", "--pretty"], "argument --input: expected one argument"),
            (["matroid", "kl"], "required: --input"),
            (["matroid", "--input", "u34.json"], "required: action"),
            (["fan", "g", "--input", "sq.json", "--cone", "x"], "invalid int value: 'x'"),
            (["mat"], "invalid command 'mat'"),
        ],
        ids=["abbreviation", "flag-as-value", "missing-flag", "missing-action", "bad-int",
             "bad-command"],
    )
    def test_usage_error_exits_2(self, capsys, argv, reason):
        # abbreviations, which argparse expanded, are refused on purpose
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith(f"usage: klsc {argv[0]}" if argv[0] in COMMANDS else "usage: klsc")
        assert error.startswith("klsc") and ": error: " in error and reason in error


_FLAG_NAMES = sorted({name for _, _, flags, _ in COMMANDS.values() for name in flags})
# values: actions, choices, ints, negative numbers and words that argparse
# reads as values ('-', '- 1'); junk: what it reads as unknown flags, and the
# separator '--'.  None is '-h' or a prefix of a flag, which argparse expands.
_VALUES = st.one_of(
    st.sampled_from(["g", "ih", "kl", "z", "eulerian", "matroid", "coxeter", "desk", "x", "",
                     "-", "- 1", "a b", "-1.5", "-.5"]),
    st.integers(-12, 12).map(str),
)
# '--' is junk and never a value: argparse reads '--name=--' as an empty
# list, which no command can use, and the table as the string '--'
_JUNK = st.sampled_from(["-x", "--nope", "--nope=1", "-1e3", "--"])
_MOSTLY = st.sampled_from([True, True, True, False])
_REFERENCE = build_parser()


@st.composite
def _argvs(draw):
    """A command (or a junk word) and a shuffle of its flags with values,
    in both the --name value and --name=value forms, the action, and junk."""
    command = draw(st.sampled_from([*COMMANDS, *COMMANDS, "nope", "--input", "-1"]))
    _, actions, flags, _ = COMMANDS.get(command, COMMANDS["coxeter"])

    def given_flag(name):
        kind, _, _, choices, _ = flags[name]
        if kind == "switch":
            return st.just([name])
        if choices:
            value = st.sampled_from([*choices, *choices, "x"])
        else:
            value = st.one_of(st.integers(-12, 12).map(str), _VALUES) if kind == "int" else _VALUES
        return st.one_of(value.map(lambda v: [name, v]), value.map(lambda v: [f"{name}={v}"]))

    pieces = draw(st.lists(st.sampled_from(sorted(flags)).flatmap(given_flag), max_size=6))
    pieces += draw(st.lists(st.one_of(_JUNK, _VALUES, st.sampled_from(_FLAG_NAMES)).map(
        lambda word: [word]), max_size=1))
    if draw(_MOSTLY):  # the required flags, so that parses succeed
        pieces += [[name, spec[3][0] if spec[3] else "x"]
                   for name, spec in flags.items() if spec[2]]
    pieces = draw(st.permutations(pieces))
    tail = []
    if actions and draw(st.booleans()):
        action = draw(st.sampled_from(actions))
        at = draw(st.integers(-2, len(pieces)))
        if at >= 0:
            pieces.insert(at, [action])
        else:  # argparse accepts '--' right before or after a last action
            tail = ["--", action] if at == -1 else [action, "--"]
    return [command] + [token for piece in pieces for token in piece] + tail


def _parsed(parse, argv):
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_flag_table_parses_as_argparse_did(argv):
    """The flag table's parser gives argparse's namespace for every argv
    argparse accepted, and exits 2 wherever argparse did."""
    assert _parsed(parse_args, argv) == _parsed(_REFERENCE.parse_args, argv)


# cheap inputs and values for every flag: the paths are filled in per test
_FUZZ_VALUES = {
    "--output": ["report", "unwritable"],
    "--kernel": ["eulerian", "matroid", "coxeter", "x"],
    "--pair": ["{},{0,1,2,3}", "{0},{1}", "{0,1,2,3},{}", "x,y", "sigma:0"],
    "--cone": ["0", "3", "9", "-1", "x"],
    "--char": ["0", "2", "3", "4", "-1", "x"],
    "--type": ["A1", "A2", "B2", "H3"],
    "--cartan": ["[[2,-1],[-1,2]]", "[[2]]", "[[2,-1]", "5"],
    "--w": ["1", "1,2", "121", "21", "e", "3412", "x"],
    "--v": ["e", "1", "2,1", "x"],
    "--degree-bound": ["0", "1", "4", "-1", "x"],
    "--suite": ["nope"],
}
_FUZZ_INPUT_VALUES = {
    "kls": ["u34", "poset", "cox", "missing"],
    "fan": ["square", "square", "u34", "missing"],
    "matroid": ["u34", "u34", "square", "missing"],
}
_FUZZ_INPUTS = {
    "u34": U34,
    "square": SQUARE,
    "poset": {"elements": ["sigma", "r0", "r1", "0"], "rank": [0, 1, 1, 2],
              "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]},
    "cox": {"type": "A2", "w": [1, 2, 1]},
}


@st.composite
def _fuzzed_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, actions, flags, _ = COMMANDS[command]
    values = {**_FUZZ_VALUES, "--input": _FUZZ_INPUT_VALUES.get(command)}
    flag = st.sampled_from(sorted(values.keys() & flags.keys()))
    pieces = draw(st.lists(st.one_of(
        flag.flatmap(lambda name: st.sampled_from(values[name]).map(lambda v: [name, v])),
        st.sampled_from([name for name in flags if flags[name][0] == "switch"]).map(
            lambda name: [name]),
    ), max_size=5))
    if draw(_MOSTLY):  # the action and the required flags, so that most calls run
        pieces += [[name, draw(st.sampled_from(values[name]))]
                   for name, spec in flags.items() if spec[2] or name == "--type"]
        pieces.append(list(actions[:1]))
    if not draw(_MOSTLY):
        pieces.append([draw(st.sampled_from([*actions, "--help", "x", "-x"]))])
    argv = [command] + [token for piece in draw(st.permutations(pieces)) for token in piece]
    # validate runs only with an unknown suite, which the last --suite sets
    return argv + ["--suite", "nope"] if command == "validate" else argv


@settings(max_examples=60, deadline=None)
@given(_fuzzed_argvs())
def test_fuzzed_argv_exits_cleanly(tmp_path_factory, argv):
    """Whatever flags, values and words a subcommand's argv holds, main
    returns an exit code or exits 0 (--help) or 2 (a usage error), and
    lets no other exception escape."""
    tmp = tmp_path_factory.mktemp("argv")
    paths = {name: write(tmp, f"{name}.json", data) for name, data in _FUZZ_INPUTS.items()}
    paths.update(missing=str(tmp / "missing.json"), report=str(tmp / "report.json"),
                 unwritable=str(tmp / "missing" / "report.json"))
    argv = [paths.get(token, token) for token in argv]
    try:
        assert main(argv) in (0, 1, 2, 3)
    except SystemExit as exc:
        assert exc.code in (0, 2)


class TestDeterminism:
    def test_identical_output_modulo_timings(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        outs = []
        for _ in range(2):
            assert main(["matroid", "kl", "--input", path]) == 0
            data = json.loads(capsys.readouterr().out)
            data.pop("timings_ms", None)
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_output_file_and_pretty(self, tmp_path, capsys):
        path = write(tmp_path, "u34.json", U34)
        out_path = tmp_path / "report.txt"
        code = main(
            ["matroid", "kl", "--input", path, "--pretty", "--output", str(out_path)]
        )
        assert code == 0
        text = out_path.read_text()
        assert "P: 1 + 2*t" in text


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported at the first GF(p) computation, not with the CLI; the
    # flag table needs neither argparse nor the gettext and locale it loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import contextlib, io, sys, klsc.cli\n"
        "lazy = ('numpy', 'argparse', 'gettext', 'locale')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    klsc.cli.main(['coxeter', 'kl', '--type', 'A2', '--w', '121'])\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]
