import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from decaycert import cli, dynamics, maps
from decaycert.cli import main

REPO_SPECS = Path(__file__).resolve().parents[1] / "mapspecs"
README = REPO_SPECS.parent / "README.md"


def readme_commands():
    """The argument lists of the ``decaycert`` commands in README's "Command line" block,
    with its continuation lines joined."""
    block = README.read_text().split("## Command line\n", 1)[1].split("```bash\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("decaycert ")]


def write_spec(tmp_path, obj, name="map.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def result_fields(capsys):
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("RESULT: ")]
    assert len(lines) == 1
    fields = {}
    for part in lines[0][len("RESULT: "):].split():
        key, value = part.split("=", 1)
        fields[key] = value
    return fields


class TestFind:
    def test_chain_success(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "chain", "n": 2})
        code = main(["find", "--map", spec, "-r", "10", "--epsilon", "0.1"])
        fields = result_fields(capsys)
        assert code == 0
        assert fields["success"] == "1"
        assert abs(sum(float(v) for v in fields["s_star"].split(",")) - 10.0) < 1e-8
        assert float(fields["margin"]) >= 0.1

    def test_identity_map_exits_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[1, 0], [0, 1]]})
        code = main(["find", "--map", spec, "-r", "1"])
        fields = result_fields(capsys)
        assert code == 1
        assert fields["success"] == "0"
        assert fields["failure"] in ("label_none", "iteration_cap")

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "chain", "n": }')
        code = main(["find", "--map", str(path), "-r", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_semantic_error_exits_two(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[-1]]})
        code = main(["find", "--map", spec, "-r", "1"])
        assert code == 2
        assert "negative entry" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["find", "--map", str(tmp_path / "nope.json"), "-r", "1"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["-r", "inf"], ["-r", "nan"], ["-r", "10", "--epsilon", "nan"],
    ], ids=["r-inf", "r-nan", "epsilon-nan"])
    def test_nonfinite_solver_input_exits_two(self, tmp_path, capsys, flags):
        spec = write_spec(tmp_path, {"kind": "chain", "n": 2})
        code = main(["find", "--map", spec] + flags)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["find", "verify"])
    def test_a_radius_whose_uniform_point_underflows_exits_two(self, capsys, command):
        code = main([command, "--map", str(REPO_SPECS / "scaled_swap.json"), "-r", "5e-324",
                     "--epsilon", "5e-324"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: r = 5e-324 is too small for dimension 2: "
                                "r/n underflows to 0\n")
        assert "nan" not in captured.err and "RESULT:" not in captured.out

    def test_nonfinite_map_value_exits_one(self, tmp_path, capsys):
        # T overflows to inf at the pre-phase's first iterate, w0 = (2, 2)
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[0, 1e308], [1e308, 0]]})
        code = main(["find", "--map", spec, "-r", "10", "--epsilon", "2"])
        fields = result_fields(capsys)
        assert code == 1
        assert fields["success"] == "0"
        assert fields["failure"] == "nonfinite"
        assert fields["iterations"] == "1"

    @pytest.mark.parametrize("command,spec,flags", [
        ("verify", "flipflop.json", ["-r", "1e300", "--epsilon", "1e-3"]),
        ("find", "chain5.json", ["-r", "1e308", "--epsilon", "0.1"]),
        ("find", "chain5.json", ["-r", "1e308"]),
    ], ids=["flipflop-verify", "chain5-find", "chain5-find-default-epsilon"])
    def test_overflowing_map_is_named_without_a_warning(self, capsys, command, spec, flags):
        # the maps' powers overflow at the pre-phase's iterates; at the default
        # epsilon the slack ladder climbs over 2,000 rungs towards r/(2n)
        code = main([command, "--map", str(REPO_SPECS / spec)] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert "failure=nonfinite" in captured.out

    def test_overflowing_diagonal_gain_reports_a_result(self, tmp_path, capsys):
        # t^200 is Kinf; it overflows a float near t = 35, which the exact check never evaluates
        spec = write_spec(tmp_path, {"kind": "diagonal", "functions": ["t^200", "t"]})
        code = main(["find", "--map", spec, "-r", "10"])
        fields = result_fields(capsys)
        assert code == 1
        assert fields["success"] == "0"

    def test_deep_composition_exits_two(self, tmp_path, capsys):
        half = {"kind": "linear", "matrix": [[0.5, 0], [0, 0.5]]}
        obj = half
        for _ in range(330):
            obj = {"kind": "composition", "maps": [obj, half]}
        code = main(["find", "--map", write_spec(tmp_path, obj), "-r", "10"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_long_flat_composition_solves(self, tmp_path, capsys):
        swap = {"kind": "linear", "matrix": [[0, 1], [1, 0]]}
        half = {"kind": "linear", "matrix": [[0.5, 0], [0, 0.5]]}
        obj = {"kind": "composition", "maps": [swap] * 1999 + [half]}
        code = main(["find", "--map", write_spec(tmp_path, obj), "-r", "10"])
        fields = result_fields(capsys)
        assert code == 0
        assert fields["success"] == "1"
        assert fields["s_star"] == "5.0,5.0"

    def test_overflowing_max_preserving_gain_reports_a_result(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "maxpreserving",
                                     "gains": [["0", "t^200"], ["0.5*t", "0"]]})
        code = main(["find", "--map", spec, "-r", "10"])
        fields = result_fields(capsys)
        assert code == 1
        assert fields["success"] == "0"

class TestVerify:
    def test_chain_certificate(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "chain", "n": 3})
        code = main(["verify", "--map", spec, "-r", "10"])
        fields = result_fields(capsys)
        assert code == 0
        assert fields["certified"] == "1"
        assert int(fields["steps"]) <= 10_000

    def test_flipflop_certificate(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "flipflop", "lambda": 0.5})
        code = main(["verify", "--map", spec, "-r", "1", "--epsilon", "1e-3"])
        fields = result_fields(capsys)
        assert code == 0
        assert fields["certified"] == "1"

    @pytest.mark.parametrize("stop_tol", ["inf", "nan"])
    def test_nonfinite_stop_tol_exits_two(self, tmp_path, capsys, stop_tol):
        # the trajectory from s* = (10, 10) converges to (4, 4), not to 0,
        # so stop_tol = inf would certify falsely and nan would never stop
        spec = write_spec(tmp_path, {"kind": "diagonal", "functions": ["2*t^0.5", "2*t^0.5"]})
        code = main(["verify", "--map", spec, "-r", "20", "--epsilon", "0.1",
                     "--stop-tol", stop_tol])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "certified=1" not in captured.out

    @pytest.mark.parametrize("flag,value", [("--stop-tol", "nan"), ("--stop-tol", "0"),
                                            ("--k-max", "0")])
    def test_bad_trajectory_limits_exit_two_before_the_search(self, tmp_path, capsys,
                                                             monkeypatch, flag, value):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(dynamics, "find_decay_point", no_search)
        spec = write_spec(tmp_path, {"kind": "chain", "n": 3})
        code = main(["verify", "--map", spec, "-r", "10", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "RESULT:" not in captured.out

    def test_each_gain_is_checked_once(self, tmp_path, capsys, monkeypatch):
        # parsing checks the spec by building its map, whose table coerces each present gain
        # once; the search reuses that map
        coerced = []
        coerce_gain = maps.coerce_gain
        monkeypatch.setattr(maps, "coerce_gain", lambda g: coerced.append(g) or coerce_gain(g))
        spec = write_spec(tmp_path, {"kind": "maxpreserving",
                                     "gains": [[None, "0.5*t"], ["0.5*t", None]]})
        code = main(["verify", "--map", spec, "-r", "1", "--epsilon", "1e-3"])
        assert code == 0
        assert [g.render() for g in coerced] == ["0.5*t", "0.5*t"]  # a null gain is absent

    @pytest.mark.parametrize("gain,name", [("t^1e400", "exponent"), ("1e400*t", "coefficient")])
    def test_overflowing_number_in_a_gain_exits_two(self, tmp_path, capsys, gain, name):
        spec = write_spec(tmp_path, {"kind": "maxpreserving", "gains": [[gain, None], [None, None]]})
        code = main(["verify", "--map", spec, "-r", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: gain (1,1): Term {name} must be real, finite and >= 0, "
                                f"got inf in {gain!r}\n")
        assert "Traceback" not in captured.err
        assert "RESULT:" not in captured.out

    @pytest.mark.parametrize("gain, term", [("1e-13*t^0", "1e-13*t^0"), ("0.5", "0.5*t^0")],
                             ids=["constant-part", "bare-constant"])
    def test_constant_gain_part_exits_two(self, tmp_path, capsys, gain, term):
        # 1e-13*t^0 would make T(0) = (1e-13, 0); Term refuses any constant, however small
        spec = write_spec(tmp_path, {"kind": "maxpreserving",
                                     "gains": [[gain, "0.5*t"], ["0.5*t", None]]})
        code = main(["verify", "--map", spec, "-r", "1", "--epsilon", "1e-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: gain (1,1): Term {term} is a constant, which violates "
                                f"g(0)=0 in {gain!r}\n")
        assert "RESULT:" not in captured.out

    @pytest.mark.parametrize("command", ["find", "verify"])
    @pytest.mark.parametrize("obj", [{"kind": "linear", "matrix": [[0.5]]},
                                     {"kind": "diagonal", "functions": ["0.5*t"]}])
    def test_a_one_dimensional_map_names_its_dimension(self, tmp_path, capsys, command, obj):
        # the solver's own message names its argument n, which the CLI has no flag for
        code = main([command, "--map", write_spec(tmp_path, obj), "-r", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: map dimension must be >= 2, got 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["find", "verify"])
    @pytest.mark.parametrize("obj, message", [
        ({"kind": "linear", "matrix": [[10**400, 0], [0, 0.5]]},
         f"matrix entry at (1,1) is not a number: {10**400}"),
        ({"kind": "flipflop", "lambda": 10**400},
         f"flipflop lambda must be positive and finite, got {10**400}"),
    ], ids=["matrix", "lambda"])
    def test_an_integer_beyond_float_range_is_named(self, tmp_path, capsys, command, obj, message):
        # float() of this JSON integer raises OverflowError; the number rule refuses it first
        code = main([command, "--map", write_spec(tmp_path, obj), "-r", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_non_contractive_linear_exits_one(self, tmp_path, capsys):
        # spectral radius exactly 1: the identity; the solver cannot label corners
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[1, 0], [0, 1]]})
        code = main(["verify", "--map", spec, "-r", "1"])
        assert code == 1
        assert result_fields(capsys)["certified"] == "0"

    def test_found_point_whose_trajectory_stalls_exits_one(self, tmp_path, capsys):
        # s -> 2*sqrt(s) decays at s* = (10, 10), but every nonzero orbit tends to the fixed point 4
        spec = write_spec(tmp_path, {"kind": "diagonal", "functions": ["2*t^0.5", "2*t^0.5"]})
        code = main(["verify", "--map", spec, "-r", "20", "--epsilon", "0.1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "did NOT converge within 10000 steps (final sup-norm 4); no certificate" in out
        result = [line for line in out.splitlines() if line.startswith("RESULT: ")]
        assert result == [
            "RESULT: command=verify certified=0 success=1 iterations=1 "
            "margin=3.675444679663241 steps=10000 final_sup_norm=4.0 s_star=10.0,10.0"
        ]


    # T fixes (1e-8, 1e-8), inside [0, s*], yet the trajectory from s* stops near it
    # with a sup-norm below the stop tolerance, and verify prints certified=1 steps=3
    SUBLINEAR = {"kind": "maxpreserving", "gains": [["1e-4*t^0.5", None], [None, "1e-4*t^0.5"]]}

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_a_map_with_a_fixed_point_inside_the_interval_is_not_certified(self, tmp_path,
                                                                          capsys):
        spec = write_spec(tmp_path, self.SUBLINEAR)
        main(["verify", "--map", spec, "--radius", "10", "--epsilon", "1e-3"])
        assert result_fields(capsys)["certified"] != "1"

    def test_the_sublinear_spec_has_degree_one_half(self):
        # its degree proves neither lo >= 1 nor (1, 1): the verdict must come from elsewhere
        assert maps.make_max_preserving(self.SUBLINEAR["gains"]).degree == (0.5, 0.5)


class TestSweep:
    def test_chain_sweep_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "chain", "--dims", "2,3", "--epsilons", "0.1,0.01",
            "-r", "10", "--max-iterations", "100000", "--out", str(out),
        ])
        assert code == 0
        raw = out.read_bytes().decode()
        assert "\r" not in raw
        lines = raw.splitlines()
        assert lines[0] == "family,n,epsilon,r,seed,iterations,success,ms"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            family, n, eps, r, seed, iters, success, ms = line.split(",")
            assert family == "chain"
            assert seed == ""
            assert success == "1"
            assert int(iters) <= 100000
            float(ms)

    def test_failed_rows_are_counted_and_exit_one(self, tmp_path, capsys):
        # no point of the sphere of radius 10 decays with margin 6
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "chain", "--dims", "2,3", "--epsilons", "0.1,6",
            "-r", "10", "--out", str(out),
        ])
        assert code == 1
        fields = result_fields(capsys)
        assert (fields["rows"], fields["failures"]) == ("4", "2")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(n, eps, success) for _, n, eps, _, _, _, success, _ in rows] == [
            ("2", "0.1", "1"), ("2", "6.0", "0"), ("3", "0.1", "1"), ("3", "6.0", "0"),
        ]

    def test_linear_random_records_seeds(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "linear-random", "--dims", "3", "--epsilons", "0.1",
            "-r", "10", "--instances", "4", "--seed", "100", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        seeds = [line.split(",")[4] for line in lines[1:]]
        assert seeds == ["100", "101", "102", "103"]

    def test_empty_dims_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "chain", "--dims", " , ", "--epsilons", "0.1",
            "--out", str(out),
        ])
        assert code == 2

    @pytest.mark.parametrize("flag, items, message", [
        ("--dims", "2,2.5", "--dims item '2.5' is not a valid int"),
        ("--epsilons", "0.1,abc", "--epsilons item 'abc' is not a valid float"),
    ])
    def test_a_bad_list_item_is_named_with_its_flag(self, tmp_path, capsys, flag, items, message):
        out = tmp_path / "sweep.csv"
        args = {"--dims": "2", "--epsilons": "0.1", flag: items}
        code = main(["sweep", "--family", "chain", "--dims", args["--dims"],
                     "--epsilons", args["--epsilons"], "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("family", ["chain", "linear-random"])
    @pytest.mark.parametrize("dims, item", [("2,1", 1), ("0", 0)])
    def test_a_dimension_below_two_is_named_with_its_flag(self, tmp_path, capsys, family, dims,
                                                          item):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", family, "--dims", dims, "--epsilons", "0.1",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --dims item must be >= 2, got {item}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--out", "missing/sweep.csv", "--out '{tmp}/missing/sweep.csv' cannot be created"),
        ("--out", "", "--out '{tmp}/' cannot be created"),
        ("--out", "file/sweep.csv", "--out '{tmp}/file/sweep.csv' cannot be created"),
        ("--epsilons", "0.1,-1", "epsilon must be positive and finite, got -1.0"),
        ("--epsilons", "0.1,inf", "epsilon must be positive and finite, got inf"),
        ("-r", "0", "r must be positive and finite, got 0.0"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),  # read only by linear-random
    ], ids=["missing-directory", "a-directory", "under-a-file", "negative-last-epsilon",
            "inf-last-epsilon", "zero-radius", "negative-seed"])
    def test_a_bad_flag_is_refused_before_the_first_solve(self, tmp_path, capsys, monkeypatch,
                                                          flag, value, message):
        (tmp_path / "file").write_text("")  # a writable parent that is no directory
        calls = []
        monkeypatch.setattr(cli, "find_decay_point", lambda *args: calls.append(args))
        args = {"--dims": "2,3", "--epsilons": "0.1", "-r": "10", "--out": "sweep.csv"}
        args[flag] = value
        args["--out"] = f"{tmp_path}/{args['--out']}"
        code = main(["sweep", "--family", "chain", *[x for item in args.items() for x in item]])
        assert (code, calls) == (2, [])
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == [tmp_path / "file"]

    def test_a_radius_too_small_for_a_later_dimension_is_refused_before_the_first_solve(
            self, tmp_path, capsys, monkeypatch):
        calls, solve = [], cli.find_decay_point
        monkeypatch.setattr(cli, "find_decay_point",
                            lambda *args: calls.append(args) or solve(*args))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", "chain", "--dims", "2,5", "--epsilons", "0.1",
                     "-r", "1e-323", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, len(calls)) == (2, 0)  # r/2 is the least subnormal; r/5 underflows
        assert captured.err == ("error: r = 1e-323 is too small for dimension 5: "
                                "r/n underflows to 0\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_instances_below_one_is_usage_error(self, tmp_path, capsys, instances):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "linear-random", "--dims", "2", "--epsilons", "0.1",
            "--instances", instances, "--out", str(out),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--family", "cubic", "--dims", "2", "--epsilons", "0.1",
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2


class TestSpectral:
    def test_contractive_matrix(self, capsys):
        code = main(["spectral", "--map", str(REPO_SPECS / "swap_half.json")])
        fields = result_fields(capsys)
        assert code == 0
        assert float(fields["rho"]) == pytest.approx(0.5, rel=1e-6)
        assert fields["contractive"] == "1"
        direction = [float(v) for v in fields["direction"].split(",")]
        assert direction == pytest.approx([0.5, 0.5])
        # the new key comes after the pinned ones: r / 1'(I - A)^-1 1 at r = 1
        assert list(fields)[-1] == "eps_max"
        assert float(fields["eps_max"]) == pytest.approx(0.25, rel=1e-12)

    def test_a_defective_root_has_a_direction(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [
            [0.4, 0.8, 0, 0], [0.5, 0.4, 0, 0], [0.7, 0.9, 0.4, 0.5], [0.2, 0.1, 0.8, 0.4]]})
        code = main(["spectral", "--map", spec])
        fields = result_fields(capsys)
        assert code == 1 and fields["contractive"] == "0"
        direction = [float(v) for v in fields["direction"].split(",")]
        assert direction == pytest.approx([0.0, 0.0, 0.4415184, 0.5584816], abs=1e-6)

    def test_unavailable_direction_is_named_and_left_out(self, capsys, monkeypatch):
        def no_direction(A):
            raise ValueError("no dominant eigenvector")

        monkeypatch.setattr(cli, "perron_direction", no_direction)
        code = main(["spectral", "--map", str(REPO_SPECS / "swap_half.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "dominant direction unavailable: no dominant eigenvector\n" in out
        result = [line for line in out.splitlines() if line.startswith("RESULT: ")]
        assert len(result) == 1
        keys = [part.split("=", 1)[0] for part in result[0].split()[1:]]
        assert keys == ["command", "rho", "contractive", "eps_max"]

    def test_scalar(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[0.8]]})
        code = main(["spectral", "--map", spec])
        assert code == 0
        assert float(result_fields(capsys)["rho"]) == pytest.approx(0.8)

    def test_expanding_matrix_exits_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[1.5]]})
        code = main(["spectral", "--map", spec])
        fields = result_fields(capsys)
        assert code == 1
        assert fields["contractive"] == "0"
        assert fields["eps_max"] == "0.0"

    def test_nonlinear_spec_exits_two(self, capsys):
        code = main(["spectral", "--map", str(REPO_SPECS / "chain5.json")])
        assert code == 2

    def test_nonlinear_spec_is_one_error_line(self, capsys):
        code = main(["spectral", "--map", str(REPO_SPECS / "chain5.json")])
        printed = capsys.readouterr()
        assert code == 2
        assert printed.out == ""
        assert printed.err == "error: spectral needs a linear map spec, got kind 'chain'\n"

    def test_defective_matrix_reports_its_radius(self, tmp_path, capsys):
        # a contractive Jordan block: one eigenvector for a double eigenvalue
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[0.5, 1], [0, 0.5]]})
        code = main(["spectral", "--map", spec])
        fields = result_fields(capsys)
        assert code == 0
        assert float(fields["rho"]) == pytest.approx(0.5, rel=1e-12)
        assert fields["direction"] == "1.0,0.0"

    def test_overflowing_matrix_is_not_contractive(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "linear", "matrix": [[1e308, 1e308], [1e308, 1e308]]})
        code = main(["spectral", "--map", spec])
        fields = result_fields(capsys)
        assert code == 1
        assert fields["contractive"] == "0"
        assert fields["eps_max"] == "0.0"


class TestRepoExamples:
    @pytest.mark.parametrize("command", ["find", "verify"])
    def test_the_sum_table_example_certifies(self, capsys, command):
        code = main([command, "--map", str(REPO_SPECS / "sum" / "sumtable.json"), "-r", "1",
                     "--epsilon", "1e-3"])
        fields = result_fields(capsys)
        assert code == 0
        assert fields["success"] == "1"
        assert fields.get("certified") == ("1" if command == "verify" else None)

    def test_all_example_specs_load_and_run(self, capsys):
        for path in sorted(REPO_SPECS.glob("*.json")):
            for argv in (["find", "-r", "10", "--epsilon", "0.01", "--max-iterations", "100000"],
                         ["verify", "-r", "1", "--epsilon", "1e-3"]):
                assert main([*argv, "--map", str(path)]) == 0, (path.name, argv[0])
            capsys.readouterr()

    def test_the_module_entry_point_prints_what_main_prints(self, capsys):
        """``python -m decaycert`` runs ``cli.main`` and exits with its code."""
        argv = ["find", "--map", str(REPO_SPECS / "chain5.json"), "-r", "10", "--epsilon", "0.1"]
        path = os.pathsep.join(filter(None, [str(REPO_SPECS.parent / "src"),
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "decaycert", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}, check=False)
        assert run.returncode == main(argv) == 0
        shown = [line for line in run.stdout.splitlines() if line.startswith("RESULT: ")]
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("RESULT: ")]
        assert len(shown) == 1 and shown == printed

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_each_readme_command_exits_zero(self, tmp_path, monkeypatch, capsys, argv):
        """Each ``decaycert`` command of README's "Command line" block, run from the
        repository root with its ``--out`` under ``tmp_path``; a sweep's CSV has exactly
        the pinned columns."""
        monkeypatch.chdir(REPO_SPECS.parent)
        argv = list(argv)
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0
        if argv[0] == "sweep":
            header = Path(argv[at]).read_text().splitlines()[0]
            assert header == ",".join(cli.CSV_COLUMNS)

    def test_the_readme_library_example_prints_what_its_comments_show(self, capsys):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        exec(blocks[0], {})
        assert capsys.readouterr().out.splitlines() == ["[5. 5.] 2.5", "True"]

    def test_the_readme_find_example_prints_the_result_line_shown(self, capsys):
        """README's ``decaycert find`` command prints the ``RESULT:`` line that README shows:
        each value equal, or, where it ends in ``...``, a prefix (per ``s_star`` component)."""
        lines = README.read_text().splitlines()
        argv = next(line for line in lines if line.startswith("decaycert find ")).split()[1:]
        shown = next(line for line in lines if line.startswith("RESULT: command=find "))
        spec = argv.index("--map") + 1
        argv[spec] = str(REPO_SPECS.parent / argv[spec])
        assert main(argv) == 0
        printed = result_fields(capsys)
        for key, value in (part.split("=", 1) for part in shown[len("RESULT: "):].split()):
            for want, got in zip(value.split(","), printed[key].split(","), strict=True):
                assert got == want or (want.endswith("...") and got.startswith(want[:-3])), key


def test_only_main_prints_to_stderr():
    """``cli.main`` is the one door for a refusal: only ``cli.py`` prints, and only ``main``
    passes ``file=`` to ``print`` or names ``sys.stderr``."""
    printing, stderr = set(), set()
    for path in sorted((REPO_SPECS.parent / "src" / "decaycert").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> name of its innermost function; ast.walk visits outer ones first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                printing.add(path.name)
                if any(keyword.arg == "file" for keyword in node.keywords):
                    stderr.add((path.name, owner.get(node)))
            if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                    and getattr(node.value, "id", None) == "sys"):
                stderr.add((path.name, owner.get(node)))
    assert printing == {"cli.py"}
    assert stderr == {("cli.py", "main")}
