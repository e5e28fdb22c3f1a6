"""Command-line interface behaviour."""

import json

import pytest
from helpers import refuse_enumeration

from beilinson import properties, reps
from beilinson.cli import main
from beilinson.kronecker import e_lambda
from beilinson.reps import (
    BeilinsonRep, m_module, projective, w_module, x_module, ProjPoint,
)


@pytest.fixture()
def x_file(tmp_path):
    path = tmp_path / "x.json"
    rep = x_module(5, 2, 3, ProjPoint(5, (1, 0, 0)), 0, 1)
    path.write_text(rep.to_json())
    return str(path)


@pytest.fixture()
def w_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(w_module(5, 2, 3, 3, 2).to_json())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestConstruct:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _ = run(capsys, [
            "construct", "m", "--p", "5", "--n", "3", "--r", "3",
            "--m", "3", "--d", "2", "--out", str(out),
        ])
        assert code == 0
        rep = BeilinsonRep.from_json(out.read_text())
        assert rep == m_module(5, 3, 3, 3, 2)

    def test_stdout_json(self, capsys):
        code, out = run(capsys, [
            "construct", "e", "--p", "5", "--r", "3", "--lam", "1,1,1",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["dims"] == [1, 1]

    @pytest.mark.parametrize("family, build", [
        ("injective", reps.injective), ("simple", reps.simple)])
    def test_vertex_families(self, family, build, capsys):
        code, out = run(capsys, [
            "construct", family, "--p", "5", "--n", "3", "--r", "3", "--i", "1",
        ])
        assert code == 0
        assert out == build(5, 3, 3, 1).to_json() + "\n"

    def test_missing_config_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["construct", "x", "--p", "5", "--r", "3", "--i", "0"])


class TestCheck:
    def test_exit_code_reflects_verdict(self, w_file, x_file, capsys):
        code, _ = run(capsys, ["check", "eip", "--rep", w_file])
        assert code == 0
        code, _ = run(capsys, ["check", "ekp", "--rep", w_file])
        assert code == 1

    def test_json_format(self, w_file, capsys):
        code, out = run(capsys, [
            "check", "eip", "--rep", w_file, "--format", "json",
        ])
        doc = json.loads(out)
        assert doc["property"] == "EIP" and doc["verdict"] is True

    def test_broken_relations_exit_3(self, tmp_path, capsys):
        doc = json.loads(projective(5, 3, 3, 0).to_json())
        doc["maps"][1][0][1] = (doc["maps"][1][0][1] + 1) % 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as info:
            main(["check", "eip", "--rep", str(path)])
        assert info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "arrows 1 and 2" in captured.err

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "cut.json"
        path.write_text('{"p": 5, "n": 2')
        with pytest.raises(SystemExit) as info:
            main(["iso", str(path), str(path)])
        assert info.value.code == 3
        assert capsys.readouterr().err.startswith("beilinson: invalid representation")

    def test_missing_file_exit_3(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        with pytest.raises(SystemExit) as info:
            main(["check", "eip", "--rep", missing])
        assert info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"beilinson: cannot read {missing}")

    def test_family_construction_inline(self, capsys):
        code, _ = run(capsys, [
            "check", "ekp", "--family", "m", "--p", "5", "--n", "2",
            "--r", "3", "--m", "3", "--d", "2",
        ])
        assert code == 0


def status(argv):
    """The exit status of one CLI run, returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


M_FLAGS = ["--family", "m", "--n", "2", "--r", "3", "--m", "3", "--d", "2"]


P0_FLAGS = ["--family", "projective", "--p", "5", "--n", "2", "--r", "3", "--i", "0"]
ZERO_REP = '{"p": 5, "n": 2, "r": 3, "dims": [0, 0], "maps": [[[], [], []]]}'


def assert_one_line_refusal(code, capsys):
    captured = capsys.readouterr()
    if code >= 2:
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("beilinson: ")


def assert_usage_error(message, capsys):
    """argparse's refusal: nothing on stdout, the message on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


class TestExitStatus:
    """0 done or true, 1 false, 2 usage, 3 invalid input, 4 internal error."""

    @pytest.mark.parametrize("argv, code", [
        (["jordan-type", "--p", "5"] + M_FLAGS, 0),
        (["check", "ekp", "--p", "5", "--family", "w", "--r", "3", "--m", "3", "--d", "2"], 1),
        (["jordan-type", "--p", "5"], 2),
        (["check", "eip", "--family", "m", "--p", "5", "--r", "3"], 2),
        (["jordan-type", "--p", "4"] + M_FLAGS, 3),
        (["jordan-type", "--p", "5", "--alpha", "0,0"] + M_FLAGS, 3),
        (["jordan-type", "--p", "5", "--alpha", "1,0"] + M_FLAGS, 3),
        (["tau-orbit", "--p", "5", "--family", "projective", "--n", "3", "--r", "3"], 3),
        (["tau-orbit"] + P0_FLAGS + ["--i", "5"], 3),
        (["width"] + P0_FLAGS + ["--k-max", "-1"], 3),
    ])
    def test_status(self, argv, code, capsys):
        assert status(argv) == code
        assert_one_line_refusal(code, capsys)

    @pytest.mark.parametrize("argv", [
        ["tau-orbit"] + P0_FLAGS + ["--k-max", "3"],
        ["end-ring", "--seed", "1"] + M_FLAGS + ["--p", "5"],
        ["iso", "{0}", "{0}", "--seed", "1"],
    ], ids=["tau-orbit-k-max", "end-ring-seed", "iso-seed"])
    def test_removed_options_are_usage_errors(self, argv, w_file, capsys):
        assert status([arg.format(w_file) for arg in argv]) == 2
        assert_usage_error("unrecognized arguments", capsys)

    @pytest.mark.parametrize("command", ["tau-orbit", "width"])
    def test_off_two_vertices_exits_3(self, command, capsys):
        argv = [command, "--p", "5", "--family", "projective", "--n", "3", "--r", "3"]
        assert status(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "beilinson: translates are implemented for two vertices only, not 3\n"

    def test_unknown_format_exits_2(self, w_file, capsys):
        for value in ("", "xml"):
            assert status(["check", "eip", "--rep", w_file, "--format", value]) == 2
            assert_usage_error(f"argument --format: invalid choice: {value!r}", capsys)

    def test_tau_orbit_of_zero_rep_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(ZERO_REP)
        assert status(["tau-orbit", "--rep", str(path)]) == 3
        assert_one_line_refusal(3, capsys)

    def test_width_of_zero_rep_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(ZERO_REP)
        assert status(["width", "--rep", str(path)]) == 3
        assert_one_line_refusal(3, capsys)

    def test_modulus_past_2_to_31_exits_3(self, tmp_path, capsys):
        doc = json.loads(w_module(5, 2, 3, 3, 2).to_json())
        doc["p"] = 2**31 + 11
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert status(["check", "eip", "--rep", str(path)]) == 3
        assert "2^31" in capsys.readouterr().err

    @pytest.mark.parametrize("right, flags, code", [
        (e_lambda(3, 2, (1, 2)), [], 3),
        (e_lambda(3, 2, (1, 2)), ["--as-modules"], 3),
        (m_module(5, 3, 3, 3, 2), [], 3),
        (m_module(5, 3, 3, 3, 2), ["--as-modules"], 1),
    ], ids=["reps-other-p", "modules-other-p", "reps-other-n", "modules-other-n"])
    def test_iso_over_different_configs(self, x_file, tmp_path, right, flags, code, capsys):
        path = tmp_path / "right.json"
        path.write_text(right.to_json())
        assert status(["iso", x_file, str(path)] + flags) == code
        captured = capsys.readouterr()
        if code == 3:
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "are over different" in captured.err

    @pytest.mark.parametrize("field, value, message", [
        ("entry", 10**30 + 1, None),  # 1 mod 5: reduced exactly, the same verdict
        ("entry", 1.5, "maps[0][0] must hold integers"),
        ("dims", [1.9, 2], "dims must hold integers"),
        # its one level twice: more levels than dims allows
        ("maps", json.loads(w_module(5, 2, 3, 3, 2).to_json())["maps"] * 2,
         "n - 1 = 1 levels of maps"),
    ], ids=["huge-entry", "float-entry", "float-dims", "extra-level"])
    def test_hostile_json(self, tmp_path, field, value, message, capsys):
        rep = w_module(5, 2, 3, 3, 2)
        doc = json.loads(rep.to_json())
        if field == "entry":
            assert doc["maps"][0][0][0] == 1
            doc["maps"][0][0][0] = value
        else:
            doc[field] = value
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        assert status(["check", "eip", "--rep", str(path)]) == (0 if message is None else 3)
        captured = capsys.readouterr()
        if message:
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert message in captured.err
        else:
            assert BeilinsonRep.from_json(path.read_text()) == rep

    @pytest.mark.parametrize("field, value", [("n", 2.0), ("n", 3.0), ("r", 3.0), ("r", True)])
    @pytest.mark.parametrize("command", [["check", "eip"], ["tau-orbit"]])
    def test_non_integer_header_exits_3(self, tmp_path, command, field, value, capsys):
        # n and r are read as strictly as dims: a float or bool is refused
        # before any construction, by every subcommand that loads the file
        doc = json.loads(w_module(5, 2, 3, 3, 2).to_json())
        doc[field] = value
        path = tmp_path / "header.json"
        path.write_text(json.dumps(doc))
        assert status(command + ["--rep", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{field} must hold integers" in captured.err

    @pytest.mark.parametrize("command", [["check", "eip", "--rep", "{}"], ["iso", "{}", "{}"]])
    def test_deeply_nested_json_exits_3(self, tmp_path, command, capsys):
        # json.loads raises RecursionError, not ValueError, past its nesting limit
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert status([arg.format(path) for arg in command]) == 3
        assert_one_line_refusal(3, capsys)

    @pytest.mark.parametrize("family", ["projective", "injective"])
    @pytest.mark.parametrize("r", ["0", "-2"])
    def test_projective_family_without_variables_exits_3(self, family, r, capsys):
        assert status(["construct", family, "--p", "5", "--n", "2", "--r", r]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"beilinson: invalid parameters for the {family} family: "
                                f"need r >= 1 variables, got r={r}\n")

    def test_internal_error_exits_4_with_traceback(self, w_file, monkeypatch, capsys):
        def crash(rep):
            raise RuntimeError("boom")

        monkeypatch.setattr(properties, "is_eip_def", crash)
        assert status(["check", "eip", "--rep", w_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert "RuntimeError: boom" in captured.err


class TestJordanType:
    def test_all_points(self, x_file, capsys):
        code, out = run(capsys, [
            "jordan-type", "--rep", x_file, "--all-alpha", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == (5 ** 3 - 1) // 4

    def test_single_point(self, x_file, capsys):
        code, out = run(capsys, [
            "jordan-type", "--rep", x_file, "--alpha", "0,1,0",
            "--format", "json",
        ])
        doc = json.loads(out)
        assert doc["alpha"] == [0, 1, 0]
        assert sum((i + 1) * c for i, c in enumerate(doc["blocks"])) == 3

    def test_default_point_never_enumerates_the_space(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "big.json"
        path.write_text(x_module(65521, 2, 3, ProjPoint(65521, (1, 2, 3)), 0, 1).to_json())
        refuse_enumeration(monkeypatch)
        code, out = run(capsys, ["jordan-type", "--rep", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["alpha"] == [0, 0, 1]


class TestTauOrbitAndWidth:
    def test_tau_orbit_regular(self, w_file, capsys):
        code, out = run(capsys, [
            "tau-orbit", "--rep", w_file, "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"dims": [6, 3], "kind": "regular", "exponent": None, "tits_form": -9}

    def test_width_with_dot(self, x_file, tmp_path, capsys):
        # stdout is the JSON document alone; the note on the DOT file goes to stderr
        dot = tmp_path / "orbit.dot"
        code = main(["width", "--rep", x_file, "--dot", str(dot), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["width"] == 2 and doc["k_max"] == 8
        assert "assumptions" not in doc
        assert captured.err == f"wrote {dot}\n"
        assert dot.read_text().startswith("digraph")


class TestEndRingAndIso:
    def test_end_ring(self, w_file, capsys):
        code, out = run(capsys, [
            "end-ring", "--rep", w_file, "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["commutative"] is True and doc["local"] is True

    def test_iso_self(self, x_file, capsys):
        code, out = run(capsys, [
            "iso", x_file, x_file, "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["verdict"] == "yes"

    def test_iso_distinct(self, x_file, w_file, capsys):
        code, _ = run(capsys, ["iso", x_file, w_file])
        assert code == 1


class TestEnvOverrides:
    """No environment variable stands in for a flag: every setting is read
    from the command line only."""

    def test_environment_changes_nothing(self, w_file, x_file, monkeypatch, capsys):
        # output and status are those of a clean environment
        argvs = [["check", "eip", "--rep", w_file], ["jordan-type", "--rep", x_file],
                 ["width", "--rep", x_file]]
        clean = [(status(argv), capsys.readouterr()) for argv in argvs]
        for name, value in [("BNR_FORMAT", "xml"), ("BNR_LAM", ""),
                            ("BNR_ALPHA", "0,1,0"), ("BNR_K_MAX", "-1")]:
            monkeypatch.setenv(name, value)
        assert [(status(argv), capsys.readouterr()) for argv in argvs] == clean

    @pytest.mark.parametrize("env", [None, "1,0,0"])
    def test_empty_alpha_exits_2(self, x_file, env, monkeypatch, capsys):
        # a value that does not parse is a usage error, like --k-max x;
        # a stray BNR_ALPHA neither supplies nor masks it
        if env is not None:
            monkeypatch.setenv("BNR_ALPHA", env)
        assert status(["jordan-type", "--rep", x_file, "--alpha", ""]) == 2
        assert_usage_error("argument --alpha: invalid value ''", capsys)

    def test_empty_lam_exits_2(self, capsys):
        assert status(["construct", "e", "--p", "5", "--r", "3", "--lam", ""]) == 2
        assert_usage_error("argument --lam: invalid value ''", capsys)

    def test_non_integer_alpha_exits_2(self, x_file, capsys):
        assert status(["jordan-type", "--rep", x_file, "--alpha", "1,x"]) == 2
        assert_usage_error("argument --alpha: invalid value '1,x'", capsys)
