import json
import sys

import numpy as np
import pytest

from coagchain import generator, save_chain
from coagchain.cli import main
from coagchain.sweeps import impurity_gap_sweep, quench_gap_sweep
from conftest import make_impurity_spec, make_quench_spec


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
        assert doc["checks"]["root_count_ok"]
        labels = [e["label"] for e in doc["one_particle"]]
        assert labels[0] == "zero"
        assert "edge1" in labels and "edge2" in labels

    def test_one_particle_csv_and_brute_force(self, quench_file, tmp_path):
        prefix = str(tmp_path / "out_")
        assert main(["spectrum", "--spec", quench_file, "--one-particle",
                     "--brute-force", "--full", "--out", prefix]) == 0
        report = json.loads((tmp_path / "out_spectrum.json").read_text())
        assert report["checks"]["multisets_match"] is True
        assert len(report["full_spectrum"]) == 64
        csv_lines = (tmp_path / "out_one_particle.csv").read_text().splitlines()
        assert csv_lines[0] == "label,lambda,route"
        assert len(csv_lines) == 1 + 6 + 2  # header + zero + edges + bulks
        bf_lines = (tmp_path / "out_brute_force.csv").read_text().splitlines()
        assert len(bf_lines) == 1 + 64

    def test_brute_force_diagonalises_once(self, quench_file, tmp_path,
                                           monkeypatch):
        calls = []
        real = generator.brute_force_spectrum

        def counted(gen):
            calls.append(gen.shape)
            return real(gen)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "coagchain"
                    and hasattr(module, "brute_force_spectrum")):
                monkeypatch.setattr(module, "brute_force_spectrum", counted)
        prefix = str(tmp_path / "out_")
        assert main(["spectrum", "--spec", quench_file, "--brute-force",
                     "--out", prefix]) == 0
        assert calls == [(64, 64)]
        bf_lines = (tmp_path / "out_brute_force.csv").read_text().splitlines()
        assert len(bf_lines) == 1 + 64

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

    def test_zero_hopping_validation_exit(self, tmp_path, capsys):
        # p = 0 passes the rate bounds but has no free-fermion spectrum
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "p0.json"
        save_chain(homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3), path)
        assert main(["spectrum", "--spec", str(path)]) == 1
        assert "p, q > 0" in capsys.readouterr().err


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
    ])
    def test_removed_option(self, command, option, value, impurity_file,
                            capsys):
        argv = [command, option, value, "--points", "3"] \
            if command.startswith("gap") \
            else [command, "--spec", impurity_file, option, value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert option in captured.err
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
    ])
    def test_bad_value(self, argv, impurity_file, capsys):
        if argv[0] == "simulate":
            argv = argv + ["--spec", impurity_file]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert argv[1] in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

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

    def test_homogeneous_full_battery(self, tmp_path, capsys):
        from coagchain import RateTriple, homogeneous_chain
        path = tmp_path / "hom.json"
        save_chain(homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 3, 3), path)
        assert main(["verify", "--spec", str(path), "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "simulator stationarity" in out
        assert "FAIL" not in out

    def test_complex_block_spectrum_is_a_failed_check(self, tmp_path, capsys):
        # the block-matrix eigenvalues of this valid chain come out complex;
        # that fails one check, and the rest of the battery still runs
        path = tmp_path / "impurity40.json"
        save_chain(make_impurity_spec(L=20, theta=0.6, s=1.0), path)
        assert main(["verify", "--spec", str(path), "--level", "quick"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] one-particle set vs matrix" in out
        assert "complex eigenvalues" in out
        for name in ("secular sign alternation", "vacuum dual computation",
                     "[ok] eigenvector residuals",
                     "oracle multiset equivalence"):
            assert name in out

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
        assert all("delta2*p2" in pt.error for pt in bad)

    def test_zero_hopping_points_recorded(self):
        from coagchain import RateTriple
        points = impurity_gap_sweep(RateTriple(0.0, 3.0, 1.0), 3, [0.0, 0.5])
        assert len(points) == 2
        for pt in points:
            assert pt.gap is None and "p, q > 0" in pt.error
