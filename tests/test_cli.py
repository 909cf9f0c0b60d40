import json

import numpy as np
import pytest

from coagchain import LatticeState, run, save_chain
from coagchain.cli import main
from coagchain.sweeps import impurity_gap_sweep, quench_gap_sweep
from conftest import impurity_chain, make_impurity_spec, make_quench_spec


@pytest.fixture
def impurity_file(tmp_path):
    path = tmp_path / "impurity.json"
    save_chain(make_impurity_spec(L=2), path)
    return str(path)


@pytest.fixture
def quench_file(tmp_path):
    path = tmp_path / "quench.json"
    save_chain(make_quench_spec(L=3), path)
    return str(path)


class TestSpectrumCommand:
    def test_json_report(self, quench_file, capsys):
        assert main(["spectrum", "--spec", quench_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parity"] == "even"
        labels = [e["label"] for e in doc["one_particle"]]
        assert labels[0] == "zero"
        assert "edge1" in labels and "edge2" in labels

    def test_one_particle_csv_and_brute_force(self, quench_file, tmp_path):
        prefix = str(tmp_path / "out_")
        assert main(["spectrum", "--spec", quench_file, "--one-particle",
                     "--full", "--out", prefix]) == 0
        report = json.loads((tmp_path / "out_spectrum.json").read_text())
        assert len(report["full_spectrum"]) == 64
        csv_lines = (tmp_path / "out_one_particle.csv").read_text().splitlines()
        assert csv_lines[0] == "label,lambda,route"
        assert len(csv_lines) == 1 + 6 + 2  # header + zero + edges + bulks

    def test_full_size_guard_exit_code(self, tmp_path):
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "big.json"
        save_chain(homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 11, 11), path)
        assert main(["spectrum", "--spec", str(path), "--full"]) == 3

    def test_one_particle_count_homogeneous_ten_sites(self, tmp_path, capsys):
        # L + 2 labeled energies: zero, two edges, L - 1 secular roots
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "hom10.json"
        save_chain(homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 5, 5), path)
        assert main(["spectrum", "--spec", str(path), "--one-particle"]) == 0
        out = capsys.readouterr().out
        csv_start = out.index("label,lambda")
        lines = out[csv_start:].strip().splitlines()
        assert len(lines) == 1 + 12
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds.count("zero") == 1
        assert kinds.count("edge1") == 1 and kinds.count("edge2") == 1
        assert kinds.count("bulk") == 9

    def test_one_particle_csv_long_chain(self, tmp_path):
        # N = 2000 impurity chain theta = 0.6, s = 1: every energy is
        # listed and nothing overflows
        path = tmp_path / "impurity2000.json"
        save_chain(make_impurity_spec(L=1000, theta=0.6, s=1.0), path)
        prefix = str(tmp_path / "long_")
        assert main(["spectrum", "--spec", str(path), "--one-particle",
                     "--out", prefix]) == 0
        lines = (tmp_path / "long_one_particle.csv").read_text().splitlines()
        assert lines[0] == "label,lambda,route"
        assert len(lines) == 1 + 2002

    def test_missing_spec_validation_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "L1": 2, "L2": 2,
            "seg1": {"p": 0.5, "q": 3.0, "delta": 1.0},
            "seg2": {"p": 0.5, "q": 3.0, "delta": 1.0},
            "junction": {"p_bar": 0.5, "q_bar": 3.0, "Q_bar": -50.0},
        }))
        assert main(["spectrum", "--spec", str(bad)]) == 1

    def test_frozen_chain_exit_code(self, tmp_path, capsys):
        # p = q = 0 in both segments: every excitation is 0, so there is no
        # gap; a consistency error, exit 2, and no traceback
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "frozen.json"
        save_chain(homogeneous_chain(RateTriple(0.0, 0.0, 1.0), 3, 3), path)
        assert main(["spectrum", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("internal consistency error")
        assert "Traceback" not in captured.out + captured.err

    def test_zero_hopping_gets_its_spectrum(self, tmp_path, capsys):
        # p = 0 passes the rate bounds, and the Jacobi matrix needs no more
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "p0.json"
        save_chain(homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3), path)
        assert main(["spectrum", "--spec", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["gap"] == -3.0


class TestVerifyZeroHopping:
    def test_sign_check_skipped_and_battery_passes(self, tmp_path, capsys):
        from coagchain import RateTriple
        path = tmp_path / "q0.json"
        save_chain(impurity_chain(RateTriple(2.0, 0.0, 1.0), 2, 0.5), path)
        assert main(["verify", "--spec", str(path), "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "[skipped] secular sign alternation" in out
        assert "[ok] simulator stationarity" in out

    def test_no_validation_error_or_traceback(self, tmp_path, capsys):
        # the float checks of the defective generator fail (exit 2), but
        # the battery runs to its end
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "p0.json"
        save_chain(homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3), path)
        main(["verify", "--spec", str(path), "--level", "full"])
        captured = capsys.readouterr()
        assert "validation error" not in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err
        assert "[ok] simulator stationarity" in captured.out


class TestMalformedChainFile:
    GOOD = {"L1": 2, "L2": 2,
            "seg1": {"p": 0.5, "q": 3.0, "delta": 1.0},
            "seg2": {"p": 0.5, "q": 3.0, "delta": 1.0},
            "junction": {"p_bar": 0.5, "q_bar": 3.0, "Q_bar": 1.75}}

    def exits_one(self, path, capsys, command="spectrum"):
        code = main([command, "--spec", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("validation error: ")
        assert "Traceback" not in err
        return err

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "no_seg1.json"
        doc = dict(self.GOOD)
        del doc["seg1"]
        path.write_text(json.dumps(doc))
        assert "seg1" in self.exits_one(path, capsys)
        assert "seg1" in self.exits_one(path, capsys, "simulate")

    def test_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "bad_type.json"
        path.write_text(json.dumps({**self.GOOD, "seg2": 5}))
        self.exits_one(path, capsys)
        path.write_text(json.dumps({**self.GOOD, "L1": "two"}))
        self.exits_one(path, capsys)

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(self.GOOD)[:-5])
        self.exits_one(path, capsys)

    def test_missing_file(self, tmp_path, capsys):
        assert "nowhere.json" in self.exits_one(tmp_path / "nowhere.json",
                                                capsys, "verify")


class TestUsageErrors:
    """argparse misuse exits 1 like any validation failure, never 2."""

    @pytest.mark.parametrize("command, option, value", [
        ("spectrum", "--seed", "3"),
        ("spectrum", "--length", "3"),
        ("gap-impurity", "--spec", "x.json"),
        ("gap-impurity", "--seed", "3"),
        ("gap-quench", "--spec", "x.json"),
        ("gap-quench", "--seed", "3"),
        ("verify", "--out", "x_"),
        ("verify", "--seed", "3"),
        ("verify", "--length", "3"),
        ("simulate", "--length", "3"),
        ("spectrum", "--brute-force", "--full"),  # a flag: no value
    ])
    def test_removed_option(self, command, option, value, impurity_file,
                            capsys):
        argv = [command, option, value, "--points", "3"] \
            if command.startswith("gap") \
            else [command, "--spec", impurity_file, option, value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {option}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", ids=" ".join, argvalues=[
        ["gap-impurity", "--points", "-1"],
        ["gap-quench", "--points", "-1"],
        ["gap-impurity", "--points", "0"],
        ["gap-impurity", "--length", "0", "--points", "3"],
        ["gap-quench", "--length", "0", "--points", "3"],
        ["gap-quench", "--length", "2.5", "--points", "3"],
        ["simulate", "--events", "abc"],
        ["simulate", "--events", "1e400"],
        ["simulate", "--events", "2.5"],
        ["simulate", "--events", "-3"],
        ["simulate", "--initial", "0a10"],
        ["simulate", "--t-max", "-1"],
        ["simulate", "--t-max", "0"],
        ["simulate", "--t-max", "nan"],
    ])
    def test_bad_value(self, argv, impurity_file, capsys):
        if argv[0] == "simulate":
            argv = argv + ["--spec", impurity_file]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert argv[1] in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["gap-impurity", "spectrum"])
    def test_out_in_missing_directory(self, command, impurity_file,
                                      tmp_path, capsys):
        out = str(tmp_path / "missing" / "dir") + "/"
        argv = ["gap-impurity", "--points", "2", "--length", "2"] \
            if command == "gap-impurity" else ["spectrum", "--spec",
                                                impurity_file]
        assert main(argv + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert out in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, work", [
        (["spectrum"], "cli.spectrum_report"),
        (["gap-impurity", "--points", "2"], "cli.impurity_gap_sweep"),
        (["gap-quench", "--points", "2"], "cli.quench_gap_sweep"),
        (["simulate", "--events", "10"], "cli.run_simulation"),
    ])
    def test_unwritable_out_fails_before_work(self, argv, work, impurity_file,
                                              tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before the --out check")

        monkeypatch.setattr("coagchain." + work, refuse)
        if argv[0] in ("spectrum", "simulate"):
            argv = argv + ["--spec", impurity_file]
        out = str(tmp_path / "missing" / "dir") + "/"
        assert main(argv + ["--out", out]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_out_check_leaves_no_file(self, tmp_path):
        # the size guard fails after the --out check; nothing is left behind
        from coagchain import RateTriple, homogeneous_chain
        spec_path = tmp_path / "big.json"
        save_chain(homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 11, 11),
                   spec_path)
        prefix = str(tmp_path / "out_")
        assert main(["spectrum", "--spec", str(spec_path), "--full",
                     "--one-particle", "--out", prefix]) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["big.json"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["gap-quench", "--help"]) == 0
        assert "--d2-lo-factor" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "Traceback" not in capsys.readouterr().err


class TestVerifyCommand:
    def test_good_spec_passes(self, quench_file, capsys):
        assert main(["verify", "--spec", quench_file, "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_skipped_oracle_is_not_reported_as_passed(self, tmp_path,
                                                       capsys):
        # N = 20 is past the dense oracle's size: the check did not run
        path = tmp_path / "quench20.json"
        save_chain(make_quench_spec(L=10), path)
        assert main(["verify", "--spec", str(path), "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "[skipped] oracle multiset equivalence" in out
        assert "[ok] oracle" not in out
        assert "all checks passed" not in out
        assert out.splitlines()[-1] == (
            "all checks that ran passed; not run: oracle multiset "
            "equivalence")

    def test_homogeneous_full_battery(self, tmp_path, capsys):
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "hom.json"
        save_chain(homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 3, 3), path)
        assert main(["verify", "--spec", str(path), "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "simulator stationarity" in out
        assert "FAIL" not in out

    def test_long_chain_passes_without_the_oracle(self, tmp_path, capsys):
        # N = 40: the block matrix's eigenvalues come out complex here, and
        # no check reads them; the wall check covers the reduction
        path = tmp_path / "impurity40.json"
        save_chain(make_impurity_spec(L=20, theta=0.6, s=1.0), path)
        assert main(["verify", "--spec", str(path), "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in ("[ok] wall operator vs Jacobi matrix",
                     "[ok] secular sign alternation",
                     "[ok] eigenvector residuals",
                     "[skipped] oracle multiset equivalence"):
            assert name in out
        assert out.splitlines()[-1] == (
            "all checks that ran passed; not run: oracle multiset "
            "equivalence")

    def test_invalid_spec_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "L1": 2, "L2": 2,
            "seg1": {"p": 0.5, "q": 3.0, "delta": 1.0},
            "seg2": {"p": 0.5, "q": 3.0, "delta": 1.0},
            "junction": {"p_bar": 0.5, "q_bar": 3.0, "Q_bar": -50.0},
        }))
        assert main(["verify", "--spec", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] validation" in out
        # remaining checks are skipped after a validation failure
        assert "oracle" not in out


class TestSimulateCommand:
    def test_histogram_deterministic(self, impurity_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["simulate", "--spec", impurity_file,
                         "--events", "2e4", "--seed", "11",
                         "--initial", "full", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "config,weight"
        assert all(len(line.split(",")[0]) == 4 for line in lines[1:])

    def test_profile_output(self, quench_file, capsys):
        assert main(["simulate", "--spec", quench_file, "--events", "5e3",
                     "--seed", "2", "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "site,density"
        assert len(lines) == 1 + 6

    def test_absorbed_run_reports_its_final_state(self, tmp_path, capsys):
        # p = 0: this run is absorbed in 100000 after 26 of 1000 events
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "p0.json"
        save_chain(homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3), path)
        assert main(["simulate", "--spec", str(path), "--events", "1000",
                     "--seed", "1"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == ["config,weight", "100000,1"]
        assert err == "# absorbed after 26 events\n"
        assert main(["simulate", "--spec", str(path), "--events", "1000",
                     "--seed", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == ["1,1", "2,0", "3,0", "4,0", "5,0",
                                        "6,0"]

    def test_stop_reason_on_stderr(self, impurity_file, capsys):
        # a run that spends its event budget says nothing; one cut by
        # --t-max says so, with the events it ran
        assert main(["simulate", "--spec", impurity_file, "--events", "100",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["simulate", "--spec", impurity_file, "--events", "1e9",
                     "--seed", "3", "--t-max", "2"]) == 0
        res = run(make_impurity_spec(L=2), LatticeState.full(4), 10 ** 9,
                  seed=3, t_max=2.0)
        assert res.stop == "t_max" and res.n_events > 0
        assert capsys.readouterr().err == (
            f"# t_max reached after {res.n_events} events\n")

    def test_bad_initial_state(self, impurity_file):
        assert main(["simulate", "--spec", impurity_file,
                     "--initial", "01"]) == 1


class TestSweepCommands:
    def test_gap_impurity_csv(self, tmp_path):
        prefix = str(tmp_path / "imp_")
        assert main(["gap-impurity", "--theta", "0.5", "--length", "6",
                     "--points", "12", "--out", prefix]) == 0
        lines = (tmp_path / "imp_gap_impurity_theta0.5.csv").read_text() \
            .splitlines()
        assert lines[0] == "s,gap,omega,pair,route"
        assert len(lines) == 13
        gaps = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(g < 0 for g in gaps)

    def test_gap_quench_csv(self, tmp_path):
        prefix = str(tmp_path / "qu_")
        assert main(["gap-quench", "--delta1", "1.0", "--length", "6",
                     "--points", "10", "--out", prefix]) == 0
        lines = (tmp_path / "qu_gap_quench_delta1_1.csv").read_text() \
            .splitlines()
        assert lines[0] == "delta2,gap,omega,pair,route"
        assert len(lines) == 11
        assert all(line.split(",")[3] for line in lines[1:])  # pair labels

    def test_steep_angle_sweep_skips_nothing(self, capsys):
        # theta = 0.78 puts delta near 8.6e3, where an absolute rate
        # tolerance rejected most grid points as rounding noise
        assert main(["gap-impurity", "--theta", "0.78", "--points",
                     "20"]) == 0
        captured = capsys.readouterr()
        assert "# skipped" not in captured.err
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 20 and all(row.split(",")[1] for row in rows)

    def test_bad_length_fails_the_sweep(self, capsys):
        # one validation error for the whole sweep, not a skipped row per point
        for command in ("gap-impurity", "gap-quench"):
            assert main([command, "--length", "-2", "--points", "3"]) == 1
            captured = capsys.readouterr()
            assert "--length must be >= 1" in captured.err
            assert captured.out == ""

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a_"
        b = tmp_path / "b_"
        for prefix in (a, b):
            main(["gap-impurity", "--theta", "0.3", "--length", "4",
                  "--points", "7", "--out", str(prefix)])
        name = "gap_impurity_theta0.3.csv"
        assert (tmp_path / ("a_" + name)).read_bytes() \
            == (tmp_path / ("b_" + name)).read_bytes()


class TestSweepHelpers:
    def test_invalid_points_reported_not_dropped(self):
        # delta2 below delta1*p1/p2 violates quench positivity
        points = quench_gap_sweep(0.6, 6.0, 6.0, 0.2, 1.0, 4,
                                  np.linspace(0.01, 0.5, 6))
        assert len(points) == 6
        bad = [pt for pt in points if pt.error]
        good = [pt for pt in points if not pt.error]
        assert bad and good
        assert all("q_bar*delta2 - Q2 >= Q_bar" in pt.error for pt in bad)

    def test_zero_hopping_points_get_gaps(self):
        from coagchain import RateTriple
        points = impurity_gap_sweep(RateTriple(0.0, 3.0, 1.0), 3, [0.0, 0.5])
        assert [pt.error for pt in points] == [None, None]
        assert [f"{pt.gap:.12g}" for pt in points] == ["-3", "-1.86254139118"]
