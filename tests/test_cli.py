"""Command line driver: exit codes, text output, JSON payloads, the
interactive loop, and definition loading."""

import importlib.resources
import io
import json
import os
import random
import subprocess
import sys

import pytest

import basislam
from basislam.cli import _build_parser, main
from basislam.core import get_settings, local_settings
from basislam.syntax import parse_type
from basislam.typesem import type_eq
import test_golden_cli as golden


Z = "1" + "0" * 300
OVERFLOW = f"(\\x:B. {Z}*x) ((\\x:B. {Z}*x) |0>)"


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.fixture(scope="module")
def gates_path():
    return str(
        importlib.resources.files("basislam") / "corpus" / "gates.lb"
    )


class TestEval:
    def test_normal_form(self, capsys, gates_path):
        code = main(["eval", "NOT |0>", "--def", gates_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "normal form: |1>" in out
        assert "steps: 2" in out
        assert "phase: 1" in out

    def test_global_phase_reported(self, capsys, gates_path):
        code = main(["eval", "Z |1>", "--def", gates_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "normal form: |1>" in out
        assert "phase: -1" in out

    def test_leading_minus_after_double_dash(self, capsys):
        code = main(["eval", "--", "-|1>"])
        out = capsys.readouterr().out
        assert code == 0
        assert "normal form: |1>" in out
        assert "phase: -1" in out

    @pytest.mark.parametrize(
        "argv, after_dashes",
        [
            (["eval", "-|1>"], ["eval", "--", "-|1>"]),
            (["eval", "-|1>", "--json"], ["eval", "--json", "--", "-|1>"]),
            (["check", "-|0>", "#[B]"], ["check", "--", "-|0>", "#[B]"]),
            (["eval", "-0.5*|0>"], ["eval", "--", "-0.5*|0>"]),
        ],
    )
    def test_leading_minus_is_a_term(self, capsys, argv, after_dashes):
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out) == (main(after_dashes), capsys.readouterr().out)
        assert code == 0

    def test_trace_lists_rules(self, capsys, gates_path):
        code = main(["eval", "NOT |0>", "--trace", "--def", gates_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "   1. Beta" in out
        assert "CaseMatch" in out

    def test_stuck_term(self, capsys):
        code = main(["eval", "|0> |1>"])
        out = capsys.readouterr().out
        assert code == 1
        assert "stuck: non-value in value position" in out
        assert "at: |0>" in out

    def test_json_normal_form(self, capsys, gates_path):
        code = main(["eval", "NOT |0>", "--json", "--def", gates_path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["normal_form"] == "|1>"
        assert payload["steps"] == 2
        assert payload["phase"] == [1.0, 0.0]

    # Z*Z overflows while evaluating: before, this printed
    # `(nan+nan*i)*|0>` with exit 0, and NaN (not JSON) under --json
    @pytest.mark.parametrize("json_flag", [False, True])
    def test_non_finite_coefficient_is_stuck(self, capsys, json_flag):
        code = main(["eval", *(["--json"] if json_flag else []), OVERFLOW])
        out = capsys.readouterr().out
        assert code == 1
        if json_flag:
            payload = json.loads(out, parse_constant=_reject_constant)
            assert payload == {
                "stuck": "coefficient is not finite", "at": None, "steps": 1
            }
        else:
            assert out.startswith("stuck: coefficient is not finite\n")

    def test_json_stuck_with_trace(self, capsys):
        code = main(["eval", "|0> |1>", "--json", "--trace"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["stuck"] == "non-value in value position"
        assert payload["at"] == "|0>"
        assert payload["trace"] == []


class TestCheck:
    def test_well_typed(self, capsys):
        code = main(["check", r"\x:B. x", "[B] -> [B]"])
        out = capsys.readouterr().out
        assert code == 0
        assert "well-typed: [B] -> [B]" in out
        assert "rule: UnitLam" in out

    def test_ill_typed(self, capsys):
        code = main(["check", r"\x:B. (x, x)", "#[B] -> #([B] * [B])"])
        out = capsys.readouterr().out
        assert code == 1
        assert "type error: linear variable duplicated: x" in out

    def test_json(self, capsys):
        code = main(["check", "|0>", "[B]", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {"ok": True, "rule": "Lit"}

    def test_non_finite_coefficient_is_a_type_error(self, capsys):
        code = main(["check", OVERFLOW, "#[B]"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.startswith("type error:")
        assert err == ""

    @pytest.mark.parametrize(
        "term, goal",
        [
            # the binder's type leaves its annotation's span
            (r"(\x:{|0>}. x) |1>", "[B]"),
            # the context value |1> of x : [B] leaves the span of {|0>}
            (r"\x:{|0>}. case x of {|0> -> |0> | |1> -> (|0>, |0>)}",
             "[B] -> [B]"),
            (r"\x:{|0>}. case |+> of {|0> -> x | |1> -> x}", "[B] -> #[B]"),
        ],
    )
    def test_value_outside_annotation_span_is_a_type_error(
        self, capsys, term, goal
    ):
        code = main(["check", term, goal])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.startswith("type error:")
        assert err == ""

    def test_double_sharp_goal_echoes_normal(self, capsys):
        code = main(["check", "|0>", "##[B]"])
        assert code == 0
        assert "well-typed: #[B]\n" in capsys.readouterr().out

    def test_diagnostic_names_anonymous_basis(self, capsys, gates_path):
        # ZX's case patterns form an unnamed basis; the error prints its
        # elements, in a form the type parser reads back
        code = main(["check", "ZX |+>", "[B]", "--def", gates_path])
        out = capsys.readouterr().out
        basis = (
            "[{(1/sqrt2)*|0> + (1/sqrt2)*|1>, (1/sqrt2)*|0> - (1/sqrt2)*|1>}]"
        )
        assert code == 1
        assert f"subtype check failed #[B] ≤ {basis}" in out
        assert type_eq(parse_type(basis), parse_type("[X]"))

    def test_unbound_variable_is_the_same_under_every_hash_seed(self):
        # the free names form a set; the diagnostic names the smallest
        src = os.path.dirname(os.path.dirname(basislam.__file__))
        lines = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-m", "basislam.cli",
                 "check", "(a, b)", "[B] * [B]"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 1
            lines.add(proc.stdout.strip())
        assert lines == {"type error: unbound variable: a"}


class TestOrtho:
    def test_orthogonal(self, capsys):
        code = main(["ortho", "|0>", "|1>", "[B]"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "orthogonal"

    def test_overlapping(self, capsys):
        plus = "(1/sqrt2)*|0> + (1/sqrt2)*|1>"
        code = main(["ortho", "|0>", plus, "#[B]"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "not orthogonal"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["x", "|0>", "[B]"], "unbound variable: x"),
            (
                ["|0>", "|1>", "#([B] -> [B])"],
                "rule not applicable (membership undecidable for this domain)",
            ),
        ],
    )
    def test_both_sides_are_checked_at_the_type(self, capsys, argv, error):
        assert main(["ortho", *argv]) == 1
        assert capsys.readouterr().out == f"type error: {error}\n"
        assert main(["ortho", "--json", *argv]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"orthogonal": False, "error": error}


class TestUnitary:
    def test_json_payload(self, capsys, gates_path):
        code = main(["unitary", "Hd", "--json", "--def", gates_path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["label"] == "unitary"
        assert payload["unitary"] is True
        assert payload["square"] is True
        assert payload["basis"] == "B"
        assert payload["uncurried_over"] is None
        assert len(payload["matrix"]) == 2
        assert all(len(row) == 2 for row in payload["matrix"])
        root_half = 2.0 ** -0.5
        assert payload["matrix"][0][0] == pytest.approx([root_half, 0.0])

    def test_curried_gate_wrapped(self, capsys, gates_path):
        code = main(["unitary", "CNOT", "--def", gates_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "uncurried over B x B" in out
        assert "unitary (deviation" in out

    def test_violation_reports_witness(self, capsys, gates_path):
        code = main(["unitary", "Cloner", "--def", gates_path])
        out = capsys.readouterr().out
        assert code == 1
        assert "not unitary (deviation 1)" in out
        assert "witness: gram entry (0,1)" in out

    def test_non_gate_input(self, capsys):
        code = main(["unitary", "|0>"])
        out = capsys.readouterr().out
        assert code == 1
        assert "error: matrix extraction needs a single abstraction" in out

    # The images are finite, but their gram matrix overflows: before,
    # `--json` printed `Infinity` and NaN, and numpy warned on stderr.
    # Run as a process, so a warning would reach the real stderr.
    @pytest.mark.parametrize("json_flag", [False, True])
    def test_overflowing_gram_is_an_error(self, json_flag):
        src = os.path.dirname(os.path.dirname(basislam.__file__))
        env = dict(os.environ, PYTHONWARNINGS="default")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "basislam.cli", "unitary",
             *(["--json"] if json_flag else []), f"\\x:B. {Z}*x"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = "gram matrix of the images is not finite"
        if json_flag:
            payload = json.loads(proc.stdout, parse_constant=_reject_constant)
            assert payload == {"error": error}
        else:
            assert proc.stdout == f"error: {error}\n"


class TestParse:
    def test_term_canonical_form(self, capsys):
        code = main(["parse", "(1/sqrt2)*|0> + (1/sqrt2)*|1>"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "(1/sqrt2)*|0> + (1/sqrt2)*|1>"

    def test_type_mode(self, capsys):
        code = main(["parse", "--type", "#[B]->#([B]*[B])"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "#[B] -> #([B] * [B])"

    def test_type_mode_double_sharp_is_sharp(self, capsys):
        # ##A is #A by construction, so the canonical form has one #
        code = main(["parse", "--type", "##[B]"])
        assert code == 0
        assert capsys.readouterr().out == "#[B]\n"

    def test_json(self, capsys):
        code = main(["parse", "|01>", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"term": "|01>"}


class TestUsage:
    def test_parse_error_is_usage(self, capsys):
        code = main(["eval", "(|0>"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "expected ')'" in err

    def test_abstract_basis_in_a_type_is_usage(self, capsys):
        code = main(["check", "|0>", "[@fun]"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 1:2: a basis literal is required here\n"
        )

    def test_missing_definition_file(self, capsys):
        code = main(["eval", "|0>", "--def", "/nonexistent/defs.lb"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval", "A"], ["repl"]])
    def test_definition_file_not_utf8(self, capsys, tmp_path, command):
        # the decoding error was a ValueError, so it escaped as a traceback
        path = tmp_path / "bad.lb"
        path.write_bytes(b"def A = |0>\n\xff\n")
        code = main([*command, "--def", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}:2:1: not UTF-8 text\n"
        )

    def test_invalid_tolerance(self, capsys):
        code = main(["eval", "|0>", "--eps", "-1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_tolerance(self, capsys, eps):
        # inf pruned every coefficient; nan made no two scalars equal
        code = main(["eval", "|0> + |1>", "--eps", eps])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deep_term_is_usage_error(self, capsys):
        code = main(["eval", "|" + "0" * 1200 + ">"])
        assert code == 2
        assert "error: term too deep" in capsys.readouterr().err

    # Each of these failed before non-finite scalars were rejected: the
    # literal and the product printed `(nan+nan*i)*|0>` with exit 0 (and
    # `"phase": [NaN, NaN]`, not JSON, under --json); the pair overflowed
    # the same way in its product; the division and the exponential
    # raised a traceback; 1/<the literal> parsed as 0.  The nested product
    # overflows inside a constructor, which the parser locates at the
    # enclosing term; the complex scalar raised a traceback from abs().
    @pytest.mark.parametrize(
        "term, where",
        [
            ("1" + "0" * 320 + " * |0>", "1:1: scalar is not finite"),
            (
                "1" + "0" * 200 + " * 1" + "0" * 200 + " * |0>",
                "1:203: scalar is not finite",
            ),
            (
                "(1" + "0" * 200 + "*|0>, 1" + "0" * 200 + "*|1>)",
                "1:1: coefficient is not finite",
            ),
            (
                "1" + "0" * 200 + " * (1" + "0" * 200 + " * |0>)",
                "1:1: coefficient is not finite",
            ),
            (
                "(15" + "0" * 307 + " + 15" + "0" * 307 + "*i) * |0>",
                "1:1: coefficient is not finite",
            ),
            ("2/0 * |0>", "1:2: division by zero"),
            ("e^(1000) * |0>", "1:1: scalar is not finite"),
            ("1e999*|0>", "1:1: scalar is not finite"),
            # 1/inf is 0, but the literal itself is already unusable
            ("1/1" + "0" * 320 + " * |0> + |1>", "1:3: scalar is not finite"),
        ],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_non_finite_scalar_is_usage(self, capsys, term, where, json_flag):
        code = main(["eval", *json_flag, "--", term])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {where}\n"

    # The printer writes small and large magnitudes in exponent form,
    # which the lexer once split into a number and an identifier: the
    # printed normal form failed with `expected a term`, exit 2.
    @pytest.mark.parametrize(
        "term, printed",
        [
            ("(0.00001)*|0> + (0.99999999995)*|1>", "1e-05*|0> + |1>"),
            ("(1000000000000)*|0>", "1e+12*|0>"),
            # the normal form is divided by its leading phase, -i here
            (
                "-0.5*i*|0> + (1 + 0.0000001*i)*|1>",
                "(1/2)*|0> + (-1e-07+1*i)*|1>",
            ),
        ],
    )
    def test_printed_exponent_reads_back(self, capsys, term, printed):
        assert main(["eval", term]) == 0
        line = f"normal form: {printed}\n"
        assert capsys.readouterr().out.startswith(line)
        assert main(["eval", printed]) == 0
        assert capsys.readouterr().out.startswith(line)

    def test_negative_fuel(self, capsys):
        code = main(["eval", "|0>", "--max-steps", "-3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert main(["eval", "|0>", "--max-steps", "0"]) == 0

    def test_tolerance_applies(self, capsys):
        # squared coefficients sum to 0.9881: rejected at the default
        # tolerance, accepted once the tolerance absorbs the deficit
        argv = ["check", "0.8*|0> + 0.59*|1>", "#[B]"]
        assert main(argv) == 1
        capsys.readouterr()
        assert main(argv + ["--eps", "0.02"]) == 0

    def test_tolerance_prunes_input(self, capsys):
        # eps is also the pruning threshold: a coefficient within it of
        # zero is dropped when the input is built
        assert main(["eval", "--eps", "0.05", "|00> + 0.01*|01>"]) == 0
        assert "normal form: |00>\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, out",
        [
            (
                ["check", "--eps", "1e-16", "|+>", "[X]"],
                "well-typed: [X]\nrule: Lit\n",
            ),
            (
                ["ortho", "--eps", "1e-300", "|+>", "|->", "[X]"],
                "orthogonal\n",
            ),
        ],
    )
    def test_tiny_tolerance_keeps_exact_members(self, capsys, argv, out):
        # |<+|+>| rounds to 1.0000000000000002, which only an eps of
        # 1e-15 or more accepts as 1; the ket is a basis element itself
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_fuel_bounds_membership(self, capsys, gates_path):
        # membership of the arrow type evaluates Hd on each basis ket,
        # two steps each, under the same fuel as eval
        argv = ["check", "(\\f:@fun. f) Hd", "#[B] -> #[B]"]
        argv += ["--def", gates_path]
        assert main(argv + ["--max-steps", "1"]) == 1
        assert main(argv + ["--max-steps", "2"]) == 0

    def test_settings_restored(self, capsys):
        runs = [
            (["|0>", "--eps", "0.02", "--max-steps", "5"], 0),
            (["(|0>", "--eps", "0.02", "--max-steps", "5"], 2),
            (["|" + "0" * 1200 + ">", "--eps", "0.02", "--max-steps", "5"], 2),
            (["|0>", "--eps", "nan"], 2),
            (["|0>", "--max-steps", "-3"], 2),
        ]
        with local_settings(eps=1e-7, max_steps=77) as found:
            for argv, code in runs:
                assert main(["eval", *argv]) == code
                assert get_settings() == found

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["bogus"])
        assert e.value.code == 2


class TestCorpus:
    def test_table_passes(self, capsys):
        code = main(["corpus", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["rows"]) > 0
        row = payload["rows"][0]
        assert set(row) == {"section", "name", "ok", "detail"}


class TestRepl:
    def _run(self, monkeypatch, capsys, script, argv=()):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["repl", *argv])
        return code, capsys.readouterr().out

    def test_session(self, monkeypatch, capsys, gates_path):
        script = "\n".join(
            [
                ":h",
                "NOT |1>",
                ":t Hd : #[B] -> #[B]",
                ":u Hd",
                ":u CNOT",
                "(|0>",
                ":q",
            ]
        )
        code, out = self._run(
            monkeypatch, capsys, script + "\n", ["--def", gates_path]
        )
        assert code == 0
        assert "commands:" in out
        assert "|0>  [steps 2, phase 1]" in out
        assert "well-typed via UnitLam" in out
        assert out.count("unitary (deviation") == 2
        assert "error:" in out

    def test_type_errors_do_not_exit(self, monkeypatch, capsys):
        script = ":t |0> : [X]\n|1>\n:q\n"
        code, out = self._run(monkeypatch, capsys, script)
        assert code == 0
        assert "type error:" in out
        assert "|1>" in out

    def test_deep_term_does_not_exit(self, monkeypatch, capsys):
        script = "|" + "0" * 1200 + ">\n|1>\n:q\n"
        code, out = self._run(monkeypatch, capsys, script)
        assert code == 0
        assert "error: term too deep" in out
        assert "|1>  [steps 0, phase 1]" in out

    def test_non_finite_scalar_does_not_exit(self, monkeypatch, capsys):
        # failed before: the REPL printed `(nan+nan*i)*|0>`
        script = "1" + "0" * 320 + " * |0>\n|1>\n:q\n"
        code, out = self._run(monkeypatch, capsys, script)
        assert code == 0
        assert "error: 1:1: scalar is not finite" in out
        assert "nan" not in out
        assert "|1>  [steps 0, phase 1]" in out

    def test_eof_terminates(self, monkeypatch, capsys):
        code, out = self._run(monkeypatch, capsys, ":h\n")
        assert code == 0
        assert "commands:" in out


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports the package
    from the tree under test."""
    src = os.path.dirname(os.path.dirname(basislam.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


class TestSharedParser:
    """main builds its parser once per process and keeps no other state
    between calls, so a call prints what it prints in a fresh process."""

    def test_built_once_and_not_at_import(self):
        assert _build_parser() is _build_parser()
        proc = subprocess.run(
            [sys.executable, "-c",
             "import basislam.cli as c; "
             "print(c._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, env=_fresh_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def test_calls_do_not_carry_over(self, capsys, gates_path):
        g = ["--def", gates_path]
        runs = [
            ["eval", "--json", *g, "NOT |0>"],
            ["eval", "--json", "NOT |0>"],
            ["eval", "--eps", "1e-3", "|0> + 0.0005*|1>"],
            ["eval", "|0> + 0.0005*|1>"],
            ["eval", "--max-steps", "2", *g, "Hd (Hd |0>)"],
            ["eval"],
            ["eval", *g, "Hd (Hd |0>)"],
            ["eval", "--trace", *g, "NOT |1>"],
            ["eval", *g, "NOT |1>"],
            ["eval", "--trace", "--json", "--max-steps", "2", *g, "Hd |0>"],
            ["eval", "--json", "Hd |0>"],
            ["eval", *g, "--def", gates_path, "NOT (NOT |0>)"],
            ["eval", "NOT (NOT |0>)"],
        ]
        env = _fresh_env()
        for argv in runs:
            fresh = subprocess.run(
                [sys.executable, "-m", "basislam.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects the command line
                code = e.code
            got = (code, capsys.readouterr().out)
            assert got == (fresh.returncode, fresh.stdout), argv

    def test_golden_commands_in_shuffled_order(self):
        want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
        random.Random(0).shuffle(want)
        for w in want:
            got = golden.run(w["program"], w["argv"])
            assert got == {"code": w["code"], "stdout": w["stdout"]}, (
                w["program"],
                w["argv"],
            )
