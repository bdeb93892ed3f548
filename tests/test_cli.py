"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqrac
from seqrac import canonical_strategy
from seqrac.cli import BOUNDARY_POINTS_MAX, build_parser, main
from seqrac.documents import document_text, read_strategy_file, write_strategy_file
from seqrac.sequence import CHAIN_PARTIES_MAX


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seqrac.cli", "certify", "--wab", "0.7138", "--wac", "0.7826"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[0.6047, 0.8010]" in proc.stdout


def test_import_does_not_load_scipy():
    """The runtime needs numpy only; scipy is a test dependency."""
    src = str(Path(seqrac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, seqrac, seqrac.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture
def half_sharp_file(tmp_path):
    path = tmp_path / "half_sharp.json"
    write_strategy_file(canonical_strategy(1 / np.sqrt(2)), path)
    return str(path)


class TestEvaluate:
    def test_reports_witnesses(self, half_sharp_file, capsys):
        assert main(["evaluate", half_sharp_file]) == 0
        out = capsys.readouterr().out
        assert "w_ab = 0.750000" in out
        assert "w_ac = 0.801777" in out
        assert "quantum set:   True" in out

    def test_prints_full_distribution(self, half_sharp_file, capsys):
        main(["evaluate", half_sharp_file])
        out = capsys.readouterr().out
        rows = 0
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 7 and all(p in "01" for p in parts[:6]):
                rows += 1
                total = float(parts[6])
                assert 0.0 <= total <= 1.0
        assert rows == 64

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        doc = json.loads(document_text(canonical_strategy(0.5)))
        doc["instruments"][0]["kraus"][1] = [[1.0, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps(doc))
        assert main(["evaluate", str(path)]) == 2
        assert "instruments[0].kraus[1]" in capsys.readouterr().err

    def test_invariant_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        doc = json.loads(document_text(canonical_strategy(0.5)))
        del doc["preparations"][0]["matrix"]
        doc["preparations"][0]["bloch"] = [0.0, 0.0, 1.5]
        path.write_text(json.dumps(doc))
        assert main(["evaluate", str(path)]) == 3
        assert "preparations[0]" in capsys.readouterr().err

    def test_trace_error_prints_a_python_float(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        doc = json.loads(document_text(canonical_strategy(0.5)))
        del doc["preparations"][0]["bloch"]
        doc["preparations"][0]["matrix"] = [[[0.6, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        path.write_text(json.dumps(doc))
        assert main(["evaluate", str(path)]) == 3
        assert capsys.readouterr().err == "error: preparations[0]: trace 1.1 != 1\n"

    def test_probability_beyond_tolerance_exits_3(self, tmp_path, capsys):
        # Every entry passes its own 1e-9 check, but a probability leaves [0, 1]
        # by about 1.8e-9 once preparation and effect tolerances add up.
        tip = [[[1 + 0.9e-9, 0], [0, 0]], [[0, 0], [-0.9e-9, 0]]]
        doc = {
            "schema_version": 1,
            "preparations": [{"matrix": tip} for _ in range(4)],
            "instruments": [
                {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]}
            ] * 2,
            "measurements": [{"effects": [tip, [[[-0.9e-9, 0], [0, 0]], [[0, 0], [1 + 0.9e-9, 0]]]]}] * 2,
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: probability ")
        assert err.rstrip().endswith("outside [0, 1] beyond tolerance")
        assert "Traceback" not in err

    def test_classical_relay_document(self, tmp_path, capsys):
        # relay_first_bit, then every Bob code whose embedding has one Kraus operator per outcome
        from classical_model import EMBEDDABLE_BOB_CODES, ClassicalStrategy, embed, witness_pair_classical

        path = tmp_path / "relay.json"
        strategies = [ClassicalStrategy.relay_first_bit()] + [
            ClassicalStrategy.from_codes(e, b, r, c)
            for b in EMBEDDABLE_BOB_CODES for e, r, c in ((10, 5, 3), (6, 0, 9), (0, 15, 12))
        ]
        for cs in strategies:
            write_strategy_file(embed(cs), path)
            first = path.read_bytes()
            write_strategy_file(read_strategy_file(path), path)
            assert path.read_bytes() == first
            assert main(["evaluate", str(path)]) == 0
            exact = witness_pair_classical(cs)
            out = capsys.readouterr().out
            assert f"w_ab = {exact.w_ab:.6f}\nw_ac = {exact.w_ac:.6f}\nclassical set: True\n" in out, cs


class TestBoundary:
    def test_reference_rows_present(self, tmp_path):
        out = tmp_path / "boundary.csv"
        assert main(["boundary", "--points", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,wac_closed_form,wac_numeric,gap,theta,phi"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert "0.5" in rows
        assert "0.75" in rows
        closed = float(rows["0.75"][1])
        assert closed == pytest.approx(0.801777, abs=5e-7)
        endpoint = rows["0.85355339059327373"]
        assert float(endpoint[1]) == pytest.approx(0.676777, abs=5e-7)

    def test_gap_column_small(self, tmp_path):
        out = tmp_path / "boundary.csv"
        main(["boundary", "--points", "7", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) <= 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["boundary", "--points", "4", "--seed", "5", "--out", str(first)])
        main(["boundary", "--points", "4", "--seed", "5", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_with_seesaw_columns(self, tmp_path):
        out = tmp_path / "boundary.csv"
        assert main([
            "boundary", "--points", "2", "--with-seesaw", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",wac_seesaw,seesaw_gap")
        for line in lines[1:]:
            assert float(line.split(",")[7]) <= 1e-3

    def test_with_seesaw_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["boundary", "--points", "2", "--with-seesaw", "--seed", "11"]
        main(args + ["--out", str(first)])
        main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


    @pytest.mark.parametrize("points", [BOUNDARY_POINTS_MAX + 1, 10**12])
    def test_points_above_maximum_maps_to_2(self, capsys, points):
        assert main(["boundary", "--points", str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--points = {points}" in captured.err


class TestCertify:
    def test_published_interval(self, capsys):
        assert main(["certify", "--wab", "0.7138", "--wac", "0.7826"]) == 0
        out = capsys.readouterr().out
        assert "[0.6047, 0.8010]" in out

    def test_trivial_interval(self, capsys):
        assert main(["certify", "--wab", "0.5", "--wac", "0.5"]) == 0
        assert "[0.0000, 1.0000]" in capsys.readouterr().out

    def test_infeasible_exit_code(self, capsys):
        assert main(["certify", "--wab", "0.86", "--wac", "0.85"]) == 5

    def test_wab_above_quantum_maximum_is_infeasible(self, capsys):
        assert main(["certify", "--wab", "0.86", "--wac", "0.8"]) == 5
        assert "requires sharpness" in capsys.readouterr().err

    def test_out_of_range_rejected(self, capsys):
        assert main(["certify", "--wab", "1.2", "--wac", "0.5"]) == 2


class TestNoise:
    def test_reproduces_published_example(self, capsys):
        code = main([
            "noise", "--eta", "0.70710678",
            "--va", "0.95", "--vb", "0.90", "--vc", "0.95",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(0.7138, 0.7826)" in out
        assert "[0.6047, 0.8010]" in out

    def test_clean_run_certifies_degenerate_interval(self, capsys):
        assert main([
            "noise", "--eta", "0.70710678",
            "--va", "1", "--vb", "1", "--vc", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "(0.7500, 0.8018)" in out


class TestSequence:
    def test_sharp_chain_csv(self, tmp_path):
        out = tmp_path / "chain.csv"
        assert main(["sequence", "--parties", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,witness,radius,closed_form,diff"
        assert len(lines) == 5
        for line in lines[1:]:
            assert abs(float(line.split(",")[4])) <= 1e-12

    def test_profile_flag(self, tmp_path):
        out = tmp_path / "chain.csv"
        assert main([
            "sequence", "--parties", "3", "--eta-profile", "1,0,1",
            "--out", str(out),
        ]) == 0
        rows = out.read_text().splitlines()[1:]
        assert float(rows[1].split(",")[1]) == pytest.approx(0.5, abs=1e-12)

    def test_chain_longer_than_float_exponent_range(self, tmp_path):
        out = tmp_path / "chain.csv"
        assert main(["sequence", "--parties", "1100", "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert last[0] == "1100"
        assert float(last[3]) == 0.5


    @pytest.mark.parametrize("parties", [CHAIN_PARTIES_MAX + 1, 10**12])
    def test_parties_above_maximum_maps_to_2(self, capsys, parties):
        assert main(["sequence", "--parties", str(parties)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parties = {parties}" in captured.err


class TestClassicalCommand:
    def test_prints_exact_maxima(self, capsys):
        assert main(["classical"]) == 0
        out = capsys.readouterr().out
        assert "max W_AB = 0.750000" in out
        assert "max W_AC = 0.750000" in out
        assert "(0.750000, 0.750000)" in out


class TestChecks:
    def test_clean_run(self, capsys):
        assert main(["checks", "--samples", "200", "--grid", "25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "trig inequality maximum" in out

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQRAC_SEED", "17")
        assert main(["checks", "--samples", "50", "--grid", "10"]) == 0

    @pytest.mark.parametrize(
        "flags", [["--samples", "0"], ["--samples", "-5"], ["--grid", "0"], ["--grid", "-2"]]
    )
    def test_nonpositive_counts_map_to_2(self, capsys, flags):
        assert main(["checks", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flags[0][2:]} = {flags[1]} outside [1, " in captured.err

    def test_grid_above_maximum_maps_to_2(self, capsys):
        assert main(["checks", "--samples", "1", "--grid", "2000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid = 2000000" in captured.err

    @pytest.mark.parametrize(
        "argv, env_seed",
        [
            (["checks", "--samples", "3", "--grid", "2", "--seed", "-1"], None),
            (["boundary", "--points", "2", "--with-seesaw", "--seed", "-5"], None),
            (["checks", "--samples", "3", "--grid", "2"], "abc"),
            (["checks", "--samples", "3", "--grid", "2"], "-3"),
        ],
    )
    def test_bad_seed_maps_to_2(self, capsys, monkeypatch, argv, env_seed):
        if env_seed is None:
            monkeypatch.delenv("SEQRAC_SEED", raising=False)
        else:
            monkeypatch.setenv("SEQRAC_SEED", env_seed)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in captured.err.lower()


class TestErrorExitCodes:
    def test_missing_file_maps_to_2(self, capsys, tmp_path):
        assert main(["evaluate", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_profile_maps_to_2(self, capsys):
        assert main(["sequence", "--parties", "2", "--eta-profile", "1,x"]) == 2

    @pytest.mark.parametrize("profile", ["", " ", "0.5,,0.5"])
    def test_empty_profile_maps_to_2(self, capsys, profile):
        # Given but empty is malformed: it does not fall back to sharp parties.
        assert main(["sequence", "--parties", "3", "--eta-profile", profile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad --eta-profile {profile!r}" in captured.err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_not_an_int_maps_to_2(self, capsys, tmp_path, version):
        doc = json.loads(document_text(canonical_strategy(1 / np.sqrt(2))))
        doc["schema_version"] = version  # written as true and 1.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema_version" in captured.err

    def test_unwritable_output_maps_to_2(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["sequence", "--parties", "2", "--out", str(target)]) == 2

    def test_convergence_failure_maps_to_4(self, tmp_path, capsys, monkeypatch):
        from seqrac import cli
        from seqrac.errors import ConvergenceFailure

        def stall(alphas, cfg=None):  # trace_boundary's signature
            raise ConvergenceFailure("stalled")

        monkeypatch.setattr(cli, "trace_boundary", stall)
        out = tmp_path / "boundary.csv"
        assert main(["boundary", "--points", "3", "--out", str(out)]) == 4
        rows = out.read_text().splitlines()[1:]
        assert all("nan" in row for row in rows)

    def test_seesaw_failure_maps_to_4(self, tmp_path, capsys, monkeypatch):
        from seqrac import cli
        from seqrac.errors import ConvergenceFailure

        real_seesaw = cli.seesaw

        def fail_at_reference(alpha, cfg=None):  # seesaw's signature
            if alpha == 0.75:
                raise ConvergenceFailure(f"all restarts failed at alpha = {alpha!r}")
            return real_seesaw(alpha, cfg)

        monkeypatch.setattr(cli, "seesaw", fail_at_reference)
        out = tmp_path / "boundary.csv"
        assert main(["boundary", "--points", "2", "--with-seesaw", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "seesaw: all restarts failed at alpha = 0.75\n"
        rows = {row.split(",")[0]: row.split(",") for row in out.read_text().splitlines()[1:]}
        assert rows["0.75"][-2:] == ["nan", "nan"]
        assert all("nan" not in cells for alpha, cells in rows.items() if alpha != "0.75")

    def test_inequality_violation_maps_to_6(self, capsys, monkeypatch):
        from seqrac import cli
        from seqrac.errors import InequalityViolation

        def violate(samples, grid, seed):
            raise InequalityViolation("bound exceeded")

        monkeypatch.setattr(cli, "inequality_report", violate)
        assert main(["checks", "--samples", "10", "--grid", "5"]) == 6


def _run(argv, call=main) -> tuple:
    """``(exit code, stdout, stderr)`` of one in-process call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh(argv):
    """Parse with a newly built parser, the reference for ``main``'s shared one."""
    return build_parser().parse_args(argv)


class TestSharedParser:
    """``main`` parses with one parser per process and dispatches at call time."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_rebound_command_runs(self, capsys, monkeypatch):
        from seqrac import cli

        assert main(["classical"]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "cmd_classical", lambda args: calls.append(args.command) or 7)
        assert main(["classical"]) == 7
        assert calls == ["classical"]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["certify", "--wab", "x"],
        ["certify", "--wab", "0.7"],
        ["boundary", "--points", "1.5"],
        ["nope"],
        [],
    ])
    def test_parse_errors_repeat_byte_for_byte(self, argv):
        first, second = _run(argv), _run(argv)
        assert first == second == _run(argv, _fresh)
        assert first[0] == 2 and first[1] == "" and first[2].startswith("usage: seqrac")

    @pytest.mark.parametrize("argv", [["--help"], ["evaluate", "--help"], ["checks", "-h"]])
    def test_help_repeats_byte_for_byte(self, argv):
        first, second = _run(argv), _run(argv)
        assert first == second == _run(argv, _fresh)
        assert first[0] == 0 and first[1].startswith("usage: seqrac") and first[2] == ""

    def test_usage_width_follows_columns_on_each_call(self, monkeypatch):
        outputs = []
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            outputs.append(_run(["--help"]))
            assert outputs[-1] == _run(["--help"], _fresh)
        assert outputs[0] == outputs[2] != outputs[1]
        # The description wraps at 40 columns and fits on one line at 200.
        assert "codes: evaluate" in outputs[1][1] and "codes: evaluate" not in outputs[0][1]


DOCUMENT = Path(__file__).parent / "data" / "noisy_canonical.json"


def _numeric_leaves(node, path=()):
    """Paths to the numbers of a parsed JSON document."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path
    elif isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _numeric_leaves(child, path + (key,))


# Invalid extremes of a flag value.  No valid --samples, --points or
# --parties above a small value is drawn, and neither --samples nor --points
# is left to its default: a valid ``checks --samples 10**12`` runs for days,
# which is not an exit-code defect.  Every other flag may also take HUGE.
EXTREMES = ["-1", "0", "nan", "inf", "-inf", "1e400", "abc", ""]
HUGE = str(10**12)


def _flag(name, valid, required=False, extremes=EXTREMES):
    """``["--name=value"]`` with a small valid value or an extreme; ``[]`` when absent."""
    value = st.sampled_from(valid + extremes).map(lambda v: [f"--{name}={v}"])
    return value if required else st.just([]) | value


def _command(name, *flags):
    return st.tuples(*flags).map(lambda parts: [name] + [arg for part in parts for arg in part])


WITNESS = ["0.5", "0.7138", "0.7826", "0.85", "1", HUGE]
# --out takes no extreme but the empty value (stdout), so that every file an
# example writes lies in its temporary directory.
OUT_FLAG = _flag("out", ["{dir}/out.csv", "{dir}", "{dir}/missing/out.csv", "{dir}/nan"], extremes=[""])
ARGV = st.one_of(
    _command("boundary", _flag("points", ["2", HUGE], True), _flag("seed", ["0", "3", HUGE]),
             OUT_FLAG, st.sampled_from([[], ["--with-seesaw"]])),
    _command("certify", _flag("wab", WITNESS, True), _flag("wac", WITNESS, True)),
    _command("noise", *(_flag(v, ["0.7", "0.95", "1", HUGE], True) for v in ("eta", "va", "vb", "vc"))),
    _command("sequence", _flag("parties", ["1", "2", "3", HUGE], True),
             _flag("eta-profile", ["1,0.5", "0.8", "1,,1", "2,1", "nan,1"]), OUT_FLAG),
    _command("classical"),
    _command("checks", _flag("samples", ["1", "3"], True), _flag("grid", ["1", "5", "3501", HUGE]),
             _flag("seed", ["0", "7", HUGE])),
    st.just(["evaluate", "{dir}/missing.json"]),
)
MUTATION = st.tuples(
    st.sampled_from(list(_numeric_leaves(json.loads(DOCUMENT.read_text())))),
    st.sampled_from([10**400, -(10**400), float("nan"), float("inf"), "0.5", [], [1, 2], None, {}]),
)
CASES = ARGV.map(lambda argv: (argv, [])) | st.tuples(
    st.just(["evaluate", "{dir}/doc.json"]), st.lists(MUTATION, min_size=1, max_size=3)
)


class TestExitCodes:
    """Whatever the flags or the document, the CLI exits with a documented code."""

    @settings(max_examples=120, deadline=None)
    @given(CASES)
    @example((["evaluate", "{dir}/doc.json"], [(("preparations", 0, "bloch", 1), 10**400)]))
    @example((["evaluate", "{dir}/doc.json"], [(("instruments", 1, "kraus", 0, 1, 0, 1), -(10**400))]))
    @example((["boundary", f"--points={10**12}"], []))
    @example((["sequence", f"--parties={10**12}"], []))
    def test_exit_code_is_documented(self, case):
        argv, mutations = case
        doc = json.loads(DOCUMENT.read_text())
        for path, value in mutations:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "doc.json").write_text(json.dumps(doc))
            argv = [arg.replace("{dir}", tmp) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the flags
                    code = exc.code
        assert code in {0, 2, 3, 4, 5, 6}
