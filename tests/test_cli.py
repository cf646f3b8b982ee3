"""Command-line interface: config precedence, exit codes, artifacts."""
import json
import os

import pytest

from cfslab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from cfslab.core import usable_cpus
from cfslab.models import FAMILIES


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModelsCommand:
    def test_lists_all_tags_alphabetically(self, capsys):
        code, out, _ = run(["models"], capsys)
        assert code == EXIT_OK
        listed = [line.split()[0] for line in out.splitlines()
                  if line and not line.startswith("presets")]
        tags = sorted(f.tag for f in FAMILIES)
        assert listed == tags


class TestSmallballCommand:
    def test_writes_single_row_csv(self, tmp_path, capsys):
        code, out, _ = run(
            ["smallball", "--seed", "5", "--reps", "1000",
             "--out", str(tmp_path), "--model", "brownian",
             "--epsilon", "1.0", "--config", _cfg(tmp_path, "n_steps = 128\n")],
            capsys)
        assert code == EXIT_OK
        target = tmp_path / "brownian_smallball_5.csv"
        assert target.exists()
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("model,t_frac")
        assert lines[1].split(",")[0] == "brownian"

    def test_missing_seed_names_the_key(self, tmp_path, capsys):
        code, _, err = run(["smallball", "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "seed" in err

    def test_unknown_model_is_config_error(self, tmp_path, capsys):
        code, _, err = run(
            ["smallball", "--seed", "1", "--out", str(tmp_path),
             "--model", "nope"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [
        ("--epsilon", "nan"), ("--epsilon", "inf"), ("--t-frac", "nan")])
    def test_nonfinite_flag_rejected(self, tmp_path, capsys, flag, value):
        code, _, err = run(
            ["smallball", "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path), "--model", "brownian", flag, value,
             "--config", _cfg(tmp_path, "n_steps = 128\n")], capsys)
        assert code == EXIT_CONFIG
        assert flag[2:].replace("-", "_") in err
        assert not (tmp_path / "brownian_smallball_1.csv").exists()

    def test_nonfinite_config_value_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "n_steps = 128\namplitude = inf\n")
        code, _, err = run(
            ["smallball", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "amplitude" in err

    def test_workers_help_describes_threads(self, capsys):
        with pytest.raises(SystemExit):
            main(["smallball", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "threads for the replication chunks" in out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        code, _, err = run(
            ["smallball", "--seed", "1", "--reps", "1000",
             "--workers", workers, "--out", str(tmp_path),
             "--config", _cfg(tmp_path, "n_steps = 128\n")], capsys)
        assert code == EXIT_CONFIG
        assert "workers must be >= 1" in err
        assert not (tmp_path / "brownian_smallball_1.csv").exists()

    @pytest.mark.usefixtures("two_cpus")
    def test_csv_bytes_match_across_workers(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "n_steps = 128\n")
        csv = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            out.mkdir()
            code, summary, _ = run(
                ["smallball", "--config", cfg, "--seed", "4", "--reps", "2100",
                 "--workers", workers, "--out", str(out)], capsys)
            assert code == EXIT_OK
            assert f"on {workers} thread(s), {workers} requested" in summary
            csv.append((out / "brownian_smallball_4.csv").read_bytes())
        assert csv[0] == csv[1]

    def test_summary_caps_threads_at_chunks(self, tmp_path, capsys):
        code, out, _ = run(
            ["smallball", "--seed", "3", "--reps", "1000", "--workers", "4",
             "--out", str(tmp_path),
             "--config", _cfg(tmp_path, "n_steps = 128\n")], capsys)
        assert code == EXIT_OK
        assert "1000 replications in" in out
        assert "on 1 thread(s), 4 requested" in out

    @pytest.mark.usefixtures("two_cpus")
    def test_chunk_error_exits_numerical(self, tmp_path, capsys, fail_chunk):
        fail_chunk(2048)
        code, _, err = run(
            ["smallball", "--seed", "1", "--reps", "5000", "--workers", "2",
             "--out", str(tmp_path),
             "--config", _cfg(tmp_path, "n_steps = 128\n")], capsys)
        assert code == EXIT_NUMERICAL
        assert "chunk at 2048 overflowed" in err
        assert not (tmp_path / "brownian_smallball_1.csv").exists()

    def test_format_flag_rejected(self, tmp_path, capsys):
        # smallball writes one CSV row; --format belongs to battery only
        with pytest.raises(SystemExit) as exc:
            main(["smallball", "--seed", "1", "--reps", "200",
                  "--out", str(tmp_path), "--format", "json"])
        assert exc.value.code == EXIT_CONFIG
        assert "--format" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_format_config_key_rejected(self, tmp_path, capsys):
        # the config-file key is refused like the flag
        cfg = _cfg(tmp_path, "n_steps = 128\nformat = json\n")
        code, _, err = run(
            ["smallball", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "format" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "model = doleans\nn_steps = 128\nreps = 500\n")
        code, out, _ = run(
            ["smallball", "--config", cfg, "--seed", "2",
             "--out", str(tmp_path), "--model", "brownian"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "brownian_smallball_2.csv").exists()


class TestBatteryCommand:
    CFG = ("models = doleans,bridge\n"
           "n_steps = 128\n"
           "pilot_reps = 200\n"
           "# a comment line\n")

    def test_writes_csv_and_json(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self.CFG)
        code, out, _ = run(
            ["battery", "--config", cfg, "--seed", "9", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        csv_path = tmp_path / "multi_battery_9.csv"
        json_path = tmp_path / "multi_battery_9.json"
        assert csv_path.exists() and json_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["seed"] == 9
        assert payload["verdicts"]["doleans"] == "NOT-FULL-SUPPORT"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self.CFG)
        args = ["battery", "--config", cfg, "--seed", "9", "--reps", "1000",
                "--out", str(tmp_path)]
        run(args, capsys)
        first = (tmp_path / "multi_battery_9.csv").read_bytes()
        run(args, capsys)
        assert (tmp_path / "multi_battery_9.csv").read_bytes() == first

    def test_nonexistent_out_dir(self, tmp_path, capsys):
        code, _, err = run(
            ["battery", "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path / "missing")], capsys)
        assert code == EXIT_CONFIG
        assert "out" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "bogus_key = 1\n")
        code, _, err = run(
            ["battery", "--config", cfg, "--seed", "1",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "bogus_key" in err

    def test_malformed_config_line_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "just some words\n")
        code, _, err = run(
            ["battery", "--config", cfg, "--seed", "1",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG

    def test_pilot_reps_below_two_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "models = doleans\nn_steps = 128\npilot_reps = 0\n")
        code, _, err = run(
            ["battery", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "pilot_reps" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        cfg = _cfg(tmp_path, self.CFG)
        code, _, err = run(
            ["battery", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--workers", workers, "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "workers" in err
        assert not (tmp_path / "multi_battery_1.csv").exists()

    def test_nonfinite_eps_scale_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self.CFG + "eps_scales = nan,1.0\n")
        code, _, err = run(
            ["battery", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "eps_scales" in err
        assert not (tmp_path / "multi_battery_1.csv").exists()

    def test_summary_names_workers_used_and_requested(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self.CFG)
        code, out, _ = run(
            ["battery", "--config", cfg, "--seed", "9", "--reps", "1000",
             "--workers", "3", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        used = min(3, usable_cpus())
        assert f"on {used} worker(s), 3 requested" in out

    def test_plotdata_format_adds_file(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "models = doleans\nn_steps = 128\npilot_reps = 200\n")
        code, _, _ = run(
            ["battery", "--config", cfg, "--seed", "3", "--reps", "1000",
             "--out", str(tmp_path), "--format", "plotdata"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "doleans_battery_3.plotdata").exists()


def _cfg(tmp_path, text):
    path = os.path.join(str(tmp_path), "run.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
