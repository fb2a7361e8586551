"""The klsc command line: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from klsc.cli import main


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
    # numpy is imported at the first GF(p) computation, not with the CLI
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, klsc.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
