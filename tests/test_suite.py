"""Target families, battery runs, and report rendering."""
import json
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import pytest

from cfslab import catalog
from cfslab.catalog import get_preset
from cfslab.cli import EXIT_NUMERICAL, EXIT_OK, main
from cfslab.core import (
    BadParams,
    Classification,
    CovarianceNotPD,
    EmptyBattery,
    make_grid,
    usable_cpus,
)
from cfslab.models import ModelSpec, WienerIntegral, chunk_threads
from cfslab.suite import (
    CSV_HEADER,
    BatteryTemplate,
    ReportFormat,
    TargetStyle,
    build_targets,
    render_report,
    run_battery,
    single_target,
)

TAIL = make_grid(0.5, 1.0, 64)
SMALL = BatteryTemplate(n_steps=256, pilot_reps=200)


class TestTargets:
    def test_family_size_and_start(self):
        fam = build_targets(TAIL, 1.0)
        assert len(fam.members) == 10  # 5 styles x 2 amplitudes
        for _, _, p in fam.members:
            assert p.values[0] == 0.0
            assert p.values.shape == (TAIL.n_nodes,)

    def test_styles_hit_their_amplitudes(self):
        fam = {(s, a): p for s, a, p in build_targets(TAIL, 2.0).members}
        assert np.max(fam[(TargetStyle.RAMP_UP, 2.0)].values) == pytest.approx(2.0)
        assert np.min(fam[(TargetStyle.RAMP_DOWN, 2.0)].values) == pytest.approx(-2.0)
        assert np.max(fam[(TargetStyle.SPIKE, 1.0)].values) == pytest.approx(1.0)
        assert np.all(fam[(TargetStyle.FLAT, 2.0)].values == 0.0)
        zig = fam[(TargetStyle.ZIGZAG, 2.0)].values
        assert np.max(zig) == pytest.approx(2.0)
        assert np.min(zig) == pytest.approx(-2.0)

    def test_piecewise_linear(self):
        fam = build_targets(TAIL, 1.0, n_segments=4)
        for _, _, p in fam.members:
            # second differences vanish except at the (at most) interior knots
            dd = np.abs(np.diff(p.values, 2))
            assert np.sum(dd > 1e-12) <= 4

    def test_bad_args(self):
        with pytest.raises(BadParams):
            build_targets(TAIL, 0.0)
        with pytest.raises(BadParams):
            build_targets(TAIL, 1.0, n_segments=0)

    def test_single_target_zero_amplitude(self):
        p = single_target(TAIL, TargetStyle.FLAT, 0.0)
        assert np.all(p.values == 0.0)


class TestBattery:
    def test_empty_models_rejected(self):
        with pytest.raises(EmptyBattery):
            run_battery([], SMALL, 1000, 0)

    def test_low_reps_rejected(self):
        with pytest.raises(BadParams):
            run_battery([get_preset("brownian")], SMALL, 10, 0)

    def test_row_accounting(self):
        rep = run_battery([get_preset("brownian")], SMALL, 1000, 1)
        # 2 restart fractions x 10 targets x 2 radii
        assert len(rep.rows) == 40
        assert rep.total_reps == 2 * 1000
        assert rep.seed == 1

    def test_brownian_all_positive(self):
        rep = run_battery([get_preset("brownian")], SMALL, 2000, 2)
        assert rep.verdicts["brownian"] == "POSITIVE-ALL"
        for r in rep.rows:
            assert r.estimate.classification is Classification.POSITIVE

    def test_counterexamples_rejected_every_seed(self):
        for seed in range(5):
            rep = run_battery(
                [get_preset("doleans"), get_preset("bridge")], SMALL, 1000, seed)
            assert rep.verdicts["doleans"] == "NOT-FULL-SUPPORT"
            assert rep.verdicts["bridge"] == "NOT-FULL-SUPPORT"
            for r in rep.rows:
                if r.estimate.classification is Classification.ANALYTIC_ZERO:
                    assert r.estimate.hits == 0

    def test_worker_count_does_not_change_bytes(self):
        models = [get_preset("brownian"), get_preset("doleans")]
        a = render_report(run_battery(models, SMALL, 1000, 3, workers=1),
                          ReportFormat.CSV)
        b = render_report(run_battery(models, SMALL, 1000, 3, workers=8),
                          ReportFormat.CSV)
        assert a == b


@dataclass(frozen=True, kw_only=True)
class NotPd(ModelSpec):
    """A family whose history factorisation always fails."""

    tag = "NOT_PD"
    summary = "test only: the history raises CovarianceNotPD"

    def history(self, grid, rng):
        raise CovarianceNotPD("test covariance is not positive definite")


@pytest.mark.usefixtures("two_cpus")
class TestProcessPool:
    def test_cell_error_reaches_caller_and_no_child_survives(self):
        models = [get_preset("brownian"), NotPd(name="not_pd")]
        with pytest.raises(CovarianceNotPD):
            run_battery(models, SMALL, 1000, 5, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cli_exits_numerical_on_cell_error(self, tmp_path, capsys,
                                               monkeypatch, workers):
        monkeypatch.setitem(catalog._PRESETS, "not_pd", NotPd(name="not_pd"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("models = brownian,not_pd\nn_steps = 128\n"
                       "pilot_reps = 200\n", encoding="utf-8")
        code = main(["battery", "--config", str(cfg), "--seed", "1",
                     "--reps", "1000", "--workers", workers,
                     "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert "not positive definite" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_lambda_integrand_bytes_match_across_workers(self):
        models = [WienerIntegral(name="lambda_k", k_fn=lambda t: 1.0 + 0.5 * t),
                  get_preset("doleans")]
        reports = [run_battery(models, SMALL, 1000, 6, workers=w)
                   for w in (1, 2)]
        assert [r.workers_used for r in reports] == [1, 2]
        assert multiprocessing.active_children() == []
        a, b = (render_report(r, ReportFormat.CSV) for r in reports)
        assert a == b

    def test_workers_capped_at_cells(self):
        rep = run_battery([get_preset("brownian")],
                          BatteryTemplate(n_steps=256, pilot_reps=200,
                                          t_fracs=(0.0,)), 1000, 7, workers=2)
        assert rep.workers_used == 1


@pytest.fixture(scope="module")
def report():
    return run_battery([get_preset("brownian"), get_preset("doleans")],
                       SMALL, 1000, 4)


class TestCpuAffinity:
    """Threads and processes are capped at the CPUs this process may run
    on, not at the host's CPU count."""

    @pytest.fixture
    def one_cpu(self, monkeypatch):
        # an affinity mask of one CPU on an eight-CPU host, as under
        # `taskset -c 0`
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_one_cpu_runs_one_thread_and_one_process(self, one_cpu, tmp_path,
                                                      capsys):
        assert usable_cpus() == 1
        assert chunk_threads(2, 2100) == 1
        models = [get_preset("brownian"), get_preset("doleans")]
        assert run_battery(models, SMALL, 1000, 3, workers=2).workers_used == 1
        code = main(["smallball", "--seed", "3", "--reps", "3000",
                     "--workers", "2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "on 1 thread(s), 2 requested" in capsys.readouterr().out

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestRender:
    def test_csv_header_and_shape(self, report):
        text = render_report(report, ReportFormat.CSV).decode()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        assert all(len(line.split(",")) == 12 for line in lines[1:])
        assert text.endswith("\n")
        assert "\r" not in text

    def test_json_round_trip_bit_exact(self, report):
        payload = json.loads(render_report(report, ReportFormat.JSON))
        assert len(payload["rows"]) == len(report.rows)
        for row, rec in zip(report.rows, payload["rows"]):
            assert rec["p_hat"] == row.estimate.p_hat
            assert rec["ci_low"] == row.estimate.ci_low
            assert rec["ci_high"] == row.estimate.ci_high
            assert rec["amplitude"] == row.amplitude
            assert rec["hits"] == row.estimate.hits

    def test_plotdata_block_per_model(self, report):
        text = render_report(report, ReportFormat.PLOTDATA).decode()
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == 2
        assert blocks[0].startswith("# brownian")
        assert blocks[1].startswith("# doleans")

    def test_csv_floats_survive_parsing(self, report):
        lines = render_report(report, ReportFormat.CSV).decode().splitlines()
        first = lines[1].split(",")
        assert float(first[7]) == report.rows[0].estimate.p_hat
