"""Command-line interface: config precedence, exit codes, artifacts."""
import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from cfslab import cli
from cfslab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from cfslab.core import usable_cpus
from cfslab.models import FAMILIES
from cfslab.suite import BatteryTemplate


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

    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--t-frac", "1.0", "t_frac: 1.0 does not restart at a "
                     "node in [0, n_steps = 128)", id="t_frac-last-node"),
        pytest.param("--epsilon", "0", "epsilon must be positive, got 0.0",
                     id="epsilon-zero"),
        pytest.param("--reps", "0", "reps must be >= 1", id="reps-zero"),
        pytest.param("--workers", "0", "workers must be >= 1, got 0",
                     id="workers-zero"),
    ])
    def test_bad_value_names_the_key(self, tmp_path, capsys, monkeypatch,
                                     flag, value, message):
        # rejected before the history is simulated
        monkeypatch.setattr(cli, "simulate", _no_simulate)
        code, _, err = run(
            ["smallball", "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path), "--model", "brownian", flag, value,
             "--config", _cfg(tmp_path, "n_steps = 128\n")], capsys)
        assert code == EXIT_CONFIG
        assert message in err
        assert not (tmp_path / "brownian_smallball_1.csv").exists()

    @pytest.mark.parametrize("line, message", [
        pytest.param("amplitude = -1", "amplitude: need >= 0, got -1.0",
                     id="amplitude"),
        pytest.param("n_segments = 0", "n_segments: need >= 1, got 0",
                     id="n_segments"),
    ])
    def test_bad_target_key_is_named(self, tmp_path, capsys, monkeypatch,
                                     line, message):
        monkeypatch.setattr(cli, "simulate", _no_simulate)
        code, _, err = run(
            ["smallball", "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path), "--model", "brownian",
             "--config", _cfg(tmp_path, f"n_steps = 128\n{line}\n")], capsys)
        assert code == EXIT_CONFIG
        assert message in err
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
        # smallball writes one CSV row, and no command reads a format
        with pytest.raises(SystemExit) as exc:
            main(["smallball", "--seed", "1", "--reps", "200",
                  "--out", str(tmp_path), "--format", "json"])
        assert exc.value.code == EXIT_CONFIG
        assert "--format" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("line, key", [
        ("n_steps = 0", "n_steps"), ("n_steps = -4", "n_steps"),
        ("t_end = 0.0", "t_end"), ("t_end = -1.0", "t_end")])
    def test_bad_grid_key_is_named(self, tmp_path, capsys, line, key):
        # rejected before any cell runs, under the key's own name rather
        # than as a restart that t_fracs cannot make
        cfg = _cfg(tmp_path, "models = doleans\npilot_reps = 200\n"
                   f"{line}\n")
        code, out, err = run(
            ["battery", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert key in err and "t_fracs" not in err
        assert out == ""
        assert not list(tmp_path.glob("*_battery_*"))

    def test_summary_names_workers_used_and_requested(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self.CFG)
        code, out, _ = run(
            ["battery", "--config", cfg, "--seed", "9", "--reps", "1000",
             "--workers", "3", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        used = min(3, usable_cpus())
        assert f"on {used} worker(s), 3 requested" in out

    def test_repeated_model_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "models = doleans,bridge,doleans\nn_steps = 128\n")
        code, out, err = run(
            ["battery", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "models" in err and "doleans" in err
        assert out == ""
        assert not list(tmp_path.glob("*_battery_*"))

    def test_default_battery_writes_every_format(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "models = doleans\nn_steps = 128\npilot_reps = 200\n")
        code, _, _ = run(
            ["battery", "--config", cfg, "--seed", "3", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        stem = tmp_path / "doleans_battery_3"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{stem.name}.{ext}" for ext in ("csv", "json", "plotdata")
        ] + ["run.cfg"]
        rows = list(csv.DictReader(
            stem.with_suffix(".csv").read_text().splitlines()))
        payload = json.loads(stem.with_suffix(".json").read_text())
        # each block is headed by its model, and the seed is fixed
        header, *lines = stem.with_suffix(".plotdata").read_text().splitlines()
        assert header == "# doleans"
        plot_columns = [c for c in rows[0] if c not in ("model", "seed")]
        assert len(rows) == len(payload["rows"]) == len(lines) == 40
        for row, record, line in zip(rows, payload["rows"], lines):
            assert list(row) == list(record)
            for column, text in row.items():
                assert type(record[column])(text) == record[column]
            assert row["model"] == "doleans" and row["seed"] == "3"
            assert line.split() == [row[c] for c in plot_columns]

    def test_format_key_rejected(self, tmp_path, capsys):
        # every battery writes every report format: there is nothing to pick
        cfg = _cfg(tmp_path, self.CFG + "format = csv\n")
        code, out, err = run(
            ["battery", "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "unknown key 'format' for battery" in err
        assert out == ""
        with pytest.raises(SystemExit) as exc:
            main(["battery", "--seed", "1", "--reps", "1000",
                  "--out", str(tmp_path), "--format", "plotdata"])
        assert exc.value.code == EXIT_CONFIG
        assert "--format" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestConfigKeys:
    # each key that only the other command reads, with a value it would take
    OTHER = {
        ("smallball", "models"): "brownian",
        ("smallball", "format"): "json",
        ("smallball", "t_fracs"): "0.5",
        ("smallball", "amp_scale"): "0.3",
        ("smallball", "eps_scales"): "0.5",
        ("smallball", "pilot_reps"): "10",
        ("battery", "model"): "doleans",
        ("battery", "t_frac"): "0.5",
        ("battery", "style"): "zigzag",
        ("battery", "amplitude"): "0.3",
        ("battery", "epsilon"): "0.3",
    }
    BASE = {"smallball": "n_steps = 128\n",
            "battery": "models = doleans\nn_steps = 128\npilot_reps = 200\n"}

    @pytest.mark.parametrize("command, key", OTHER)
    def test_other_commands_key_rejected(self, tmp_path, capsys, command, key):
        value = self.OTHER[command, key]
        cfg = _cfg(tmp_path, f"{self.BASE[command]}{key} = {value}\n")
        code, out, err = run(
            [command, "--config", cfg, "--seed", "1", "--reps", "1000",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert f"unknown key {key!r} for {command}" in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_key_set_twice_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "n_steps = 128\nreps = 1000\nn_steps = 64\n")
        code, _, err = run(
            ["smallball", "--config", cfg, "--seed", "1",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert f"{cfg}:3: key 'n_steps' already set on line 1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("field", dataclasses.fields(BatteryTemplate),
                             ids=lambda f: f.name)
    def test_template_field_is_a_battery_key(self, tmp_path, monkeypatch,
                                             field):
        # a field added to the template is a battery key with no CLI edit
        if isinstance(field.default, tuple):
            value = field.default[1:]
            text = ",".join(map(str, value))
        else:
            value = (field.default + 1 if isinstance(field.default, int)
                     else field.default / 2)
            text = str(value)
        seen = []

        def stop(models, template, reps, seed, workers):
            seen.append(template)
            raise _Stop

        monkeypatch.setattr(cli, "run_battery", stop)
        cfg = _cfg(tmp_path, f"models = doleans\n{field.name} = {text}\n")
        with pytest.raises(_Stop):
            main(["battery", "--config", cfg, "--seed", "1",
                  "--out", str(tmp_path)])
        assert seen == [BatteryTemplate(**{field.name: value})]
        assert seen[0] != BatteryTemplate()


class TestImports:
    def test_fbm_battery_imports_numpy_alone(self, tmp_path):
        # a fresh interpreter, so that no other test's imports count: the CLI
        # and a REDRAW fBm battery (history factor, conditional mean and
        # triangular multiply) load no scipy module
        cfg = _cfg(tmp_path, "models = mixed_fbm_h025\nn_steps = 64\n"
                             "pilot_reps = 100\n")
        code = ("import sys\n"
                "import cfslab.cli\n"
                "rc = cfslab.cli.main(sys.argv[1:])\n"
                "print(rc, sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code, "battery", "--config", cfg,
             "--seed", "3", "--reps", "1000", "--workers", "1",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"
        assert (tmp_path / "mixed_fbm_h025_battery_3.csv").exists()


class TestBlasThreads:
    def test_fbm_battery_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # fresh interpreters, so that OpenBLAS reads each environment: the
        # library sets numpy's BLAS to one thread before its first multiply
        cfg = _cfg(tmp_path, "models = mixed_fbm_h075\nt_fracs = 0.5\n"
                             "n_steps = 2048\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        outputs = []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            out.mkdir()
            extra = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "cfslab.cli", "battery", "--config", cfg,
                 "--seed", "1003", "--reps", "1000", "--workers", "1",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=120,
                env={**env, "PYTHONPATH": src, **extra})
            assert proc.returncode == 0, proc.stderr
            outputs.append(sorted((p.name, p.read_bytes())
                                  for p in out.iterdir()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) == 3  # CSV, JSON and PLOTDATA


class _Stop(Exception):
    pass


def _no_simulate(*args, **kwargs):
    raise AssertionError("simulate ran")


def _cfg(tmp_path, text):
    path = os.path.join(str(tmp_path), "run.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
