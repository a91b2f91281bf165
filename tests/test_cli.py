"""Command line interface: subcommands, formats, exit codes, determinism."""
import ast
import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swpemux import cli, engine, figures, geometry
from swpemux.analysis import (
    CANONICAL_BELL, project_physical, tomo_reconstruct, tomography_setting_pairs,
)
from swpemux.cli import DEFAULT_SEED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from swpemux.config import ExperimentConfig
from swpemux.engine import run_coincidence_batch
from swpemux.geometry import MAX_BEAMS
from swpemux.io import (
    COINCIDENCE_COLUMNS, read_coincidence_csv, rho_payload, write_coincidence_csv,
)

CFG = ExperimentConfig()


def run_cli(*argv):
    return main(list(argv))


def load(path):
    with open(path) as handle:
        return json.load(handle)


class TestSimulate:
    def test_csv_output(self, tmp_path):
        out = str(tmp_path / "counts.csv")
        code = run_cli("simulate", "--out", out, "--trials", "20000", "--seed", "5")
        assert code == EXIT_OK
        table = read_coincidence_csv(out)
        assert len(table.pairs) == 4
        assert table.counts[0, 6] == 20000

    def test_json_output(self, tmp_path):
        out = str(tmp_path / "batch.json")
        code = run_cli(
            "simulate", "--out", out, "--trials", "20000", "--seed", "5",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = load(out)
        assert payload["seed"] == 5
        assert payload["n_trials_total"] == 4 * 20000

    def test_hv_and_tomo_presets(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert run_cli("simulate", "--out", out, "--trials", "5000",
                       "--settings", "hv") == EXIT_OK
        assert len(read_coincidence_csv(out).pairs) == 1
        assert run_cli("simulate", "--out", out, "--trials", "5000",
                       "--settings", "tomo") == EXIT_OK
        assert len(read_coincidence_csv(out).pairs) == 9

    def test_thread_count_gives_identical_bytes(self, tmp_path):
        files = []
        for threads in ("1", "4", "16"):
            out = str(tmp_path / f"t{threads}.csv")
            assert run_cli(
                "simulate", "--out", out, "--trials", "60000", "--seed", "99",
                "--threads", threads,
            ) == EXIT_OK
            files.append(Path(out).read_bytes())
        assert files[0] == files[1] == files[2]

    def test_same_seed_same_bytes(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run_cli("simulate", "--out", a, "--trials", "10000", "--seed", "123")
        run_cli("simulate", "--out", b, "--trials", "10000", "--seed", "123")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_config_file(self, tmp_path):
        config_path = str(tmp_path / "cfg.json")
        ExperimentConfig(m=3).save(config_path)
        out = str(tmp_path / "c.json")
        assert run_cli(
            "simulate", "--config", config_path, "--out", out, "--trials", "5000",
            "--format", "json",
        ) == EXIT_OK
        assert len(load(out)["herald_bin_histogram"]) == 3


class TestBell:
    def test_bell_from_sampled_counts(self, tmp_path):
        counts = str(tmp_path / "counts.csv")
        table = run_coincidence_batch(CFG, 0.7, CANONICAL_BELL.setting_pairs(), 200_000, 8)
        write_coincidence_csv(table, counts)
        out = str(tmp_path / "bell.json")
        assert run_cli("bell", "--counts", counts, "--out", out) == EXIT_OK
        payload = load(out)
        assert abs(payload["s"] - 2.2986) < 4.0 * payload["s_err"] + 1e-9
        assert len(payload["correlations"]) == 4

    def test_custom_angles(self, tmp_path):
        counts = str(tmp_path / "counts.csv")
        settings_pairs = CANONICAL_BELL.setting_pairs()
        write_coincidence_csv(
            run_coincidence_batch(CFG, 0.7, settings_pairs, 50_000, 8), counts
        )
        out = str(tmp_path / "bell.json")
        assert run_cli(
            "bell", "--counts", counts, "--out", out,
            "--angles", "0,45,22.5,67.5",
        ) == EXIT_OK

    def test_wrong_angle_count_is_usage_error(self, tmp_path):
        counts = str(tmp_path / "counts.csv")
        write_coincidence_csv(
            run_coincidence_batch(CFG, 0.7, CANONICAL_BELL.setting_pairs(), 1000, 8), counts
        )
        assert run_cli(
            "bell", "--counts", counts, "--out", str(tmp_path / "x.json"),
            "--angles", "0,45",
        ) == EXIT_USAGE

    def test_missing_rows_is_usage_error(self, tmp_path):
        counts = str(tmp_path / "counts.csv")
        write_coincidence_csv(
            run_coincidence_batch(CFG, 0.7, CANONICAL_BELL.setting_pairs()[:2], 1000, 8),
            counts,
        )
        assert run_cli(
            "bell", "--counts", counts, "--out", str(tmp_path / "x.json")
        ) == EXIT_USAGE


class TestTomo:
    def test_reconstruction(self, tmp_path):
        counts = str(tmp_path / "counts.csv")
        write_coincidence_csv(
            run_coincidence_batch(CFG, 0.7, tomography_setting_pairs(), 100_000, 4), counts
        )
        out = str(tmp_path / "tomo.json")
        assert run_cli("tomo", "--counts", counts, "--out", out) == EXIT_OK
        payload = load(out)
        assert 0.80 < payload["fidelity_vs_target"] < 0.90
        assert min(payload["eigenvalues"]) >= -1e-12
        assert len(payload["rho"]["re"]) == 4

    def test_wrong_bases_is_usage_error(self, tmp_path):
        counts = str(tmp_path / "counts.csv")
        write_coincidence_csv(
            run_coincidence_batch(CFG, 0.7, CANONICAL_BELL.setting_pairs(), 1000, 4), counts
        )
        assert run_cli(
            "tomo", "--counts", counts, "--out", str(tmp_path / "x.json")
        ) == EXIT_USAGE


class TestDecay:
    def test_fit_from_csv(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("tau,s\n0.7,2.30\n30.0,2.03\n")
        out = str(tmp_path / "fit.json")
        assert run_cli("decay", "--points", str(points), "--out", out) == EXIT_OK
        payload = load(out)
        assert payload["tau_c"] == pytest.approx(234.63777275600924, rel=1e-12)
        assert payload["lifetime_chsh"] == pytest.approx(33.49343087496093, rel=1e-12)

    def test_fig3_endpoints_with_errors(self, tmp_path):
        # the fit of fig3's endpoints with errors, as recorded before the
        # decay fit was taken about the weighted mean storage time
        points = tmp_path / "pts.csv"
        points.write_text("tau,s,s_err\n0.7,2.30,0.01\n30.0,2.03,0.01\n")
        out = str(tmp_path / "fit.json")
        assert run_cli("decay", "--points", str(points), "--out", out) == EXIT_OK
        payload = load(out)
        assert payload["tau_ref"] == 0.7
        assert payload["tau_c"] == pytest.approx(234.6377727560092, rel=1e-12)
        assert payload["v_ref"] == pytest.approx(0.8131727983645295, rel=1e-12)
        assert payload["lifetime_chsh"] == pytest.approx(33.49343087496093, rel=1e-12)
        np.testing.assert_allclose(payload["covariance"], [
            [1.8903591682419665e-05, 6.451737775569852e-07],
            [6.451737775569851e-07, 5.0286124938669264e-08],
        ], rtol=1e-12, atol=0.0)

    def test_single_point_is_usage_error(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("tau,s\n0.7,2.30\n")
        assert run_cli(
            "decay", "--points", str(points), "--out", str(tmp_path / "x.json")
        ) == EXIT_USAGE

    def test_non_finite_point_is_usage_error(self, tmp_path, capsys):
        points = tmp_path / "pts.csv"
        points.write_text("tau,s\n0.7,nan\n5.0,2.0\n")
        out = tmp_path / "x.json"
        assert run_cli("decay", "--points", str(points), "--out", str(out)) == EXIT_USAGE
        assert "S values" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_tau_ref_is_usage_error(self, tmp_path, capsys):
        points = tmp_path / "pts.csv"
        points.write_text("tau,s\n0.7,2.30\n30.0,2.03\n")
        out = tmp_path / "x.json"
        assert run_cli(
            "decay", "--points", str(points), "--out", str(out), "--tau-ref", "nan"
        ) == EXIT_USAGE
        assert "tau_ref" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_tau_ref_is_usage_error(self, tmp_path, capsys):
        # v_ref = exp(a) overflows at -1e6 and underflows at 1e6 and 1e10:
        # each is refused by name, with no traceback or warning
        points = tmp_path / "pts.csv"
        points.write_text("tau,s\n0.7,2.30\n30.0,2.03\n")
        out = tmp_path / "x.json"
        for tau_ref in ("1e300", "-1e6", "1e6", "1e10"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli(
                    "decay", "--points", str(points), "--out", str(out), f"--tau-ref={tau_ref}"
                ) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == (f"error: tau_ref = {float(tau_ref)} is too far from the storage "
                           "times for a finite decay fit\n")
            assert not out.exists()

    @pytest.mark.parametrize("name, text, message", [
        ("pts.json", "[1, 2]", "each decay point must be an object, got 1"),
        ("pts.json", '[{"tau": null, "s": 2.3}, {"tau": 30.0, "s": 2.03}]',
         "decay point tau must be a number, got None"),
        ("pts.csv", "tau,s\n0.7,2.30\n30.0\n", "line 3: expected at least 2 fields"),
        # float(True) is 1.0: read as a number, this point set tau_ref to 1.0
        ("pts.json", '[{"tau": true, "s": 2.3}, {"tau": 30.0, "s": 2.03}]',
         "decay point tau must be a number, got True"),
        ("pts.json", '[{"tau": 0.7, "s": 2.3, "s_err": true},'
                     ' {"tau": 30.0, "s": 2.03, "s_err": 0.05}]',
         "decay point s_err must be a number, got True"),
    ], ids=["not-an-object", "null-tau", "one-field-row", "boolean-tau", "boolean-s_err"])
    def test_malformed_points_are_usage_errors(self, tmp_path, capsys, name, text, message):
        points = tmp_path / name
        points.write_text(text)
        out = tmp_path / "x.json"
        assert run_cli("decay", "--points", str(points), "--out", str(out)) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPmc:
    def test_default_fan(self, tmp_path):
        out = str(tmp_path / "pmc.json")
        assert run_cli("pmc", "--out", out) == EXIT_OK
        payload = load(out)
        assert len(payload["residuals"]) == 19
        assert payload["cross_directional_fraction"] == 0.0

    def test_explicit_angles_with_collection_axis_beam(self, tmp_path):
        out = str(tmp_path / "pmc.json")
        assert run_cli("pmc", "--out", out, "--angles", "0,1,-1") == EXIT_OK
        payload = load(out)
        assert payload["cross_directional_fraction"] > 0.0

    def test_csv_format(self, tmp_path):
        out = str(tmp_path / "pmc.csv")
        assert run_cli("pmc", "--out", out, "--m", "3", "--format", "csv") == EXIT_OK
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 4  # angle header plus three residual rows

    def test_duplicate_angles_is_usage_error(self, tmp_path):
        assert run_cli(
            "pmc", "--out", str(tmp_path / "x.json"), "--angles", "1,1"
        ) == EXIT_USAGE

    def test_fan_size_beyond_float_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run_cli("pmc", "--out", str(out), "--m", "1" + "0" * 400) == EXIT_USAGE
        assert "fan does not fit inside (-90, 90) degrees" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--m", str(MAX_BEAMS + 1), "--spacing", "0.01"),
        ("--angles", ",".join(str(0.01 * (k + 1)) for k in range(MAX_BEAMS + 1))),
    ], ids=["m", "angles"])
    def test_fan_above_the_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_scan(*args, **kwargs):
            raise AssertionError("an oversized fan reached scan_geometry")

        monkeypatch.setattr(geometry, "scan_geometry", no_scan)
        out = tmp_path / "x.json"
        assert run_cli("pmc", "--out", str(out), *argv) == EXIT_USAGE
        assert f"at most {MAX_BEAMS}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, tolerance):
        out = tmp_path / "x.json"
        assert run_cli("pmc", "--out", str(out), "--tolerance", tolerance) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()


class TestLink:
    def test_default_report(self, tmp_path):
        out = str(tmp_path / "link.json")
        assert run_cli("link", "--out", out) == EXIT_OK
        payload = load(out)
        assert payload["communication_time_us"] == 300.0
        assert payload["speedup_exact"] == pytest.approx(18.829965135600922, rel=1e-12)
        assert payload["feedback_n_deterministic"] == pytest.approx(200.0, rel=1e-14)

    def test_feedback_equals_multiplexed_at_matched_rate(self, tmp_path):
        # eta chi = p1 makes the retry loop and the mode train the same series
        out = str(tmp_path / "link.json")
        assert run_cli(
            "link", "--out", out, "--eta", "0.1", "--chi", "0.01", "--p1", "1e-3"
        ) == EXIT_OK
        payload = load(out)
        assert payload["feedback_p_exact"] == payload["p_link_exact"]

    def test_mode_grid(self, tmp_path):
        out = str(tmp_path / "grid.json")
        assert run_cli("link", "--out", out, "--m-grid", "1,5,19") == EXIT_OK
        payload = load(out)
        assert [row["m"] for row in payload] == [1, 5, 19]

    def test_mode_grid_csv_matches_json(self, tmp_path):
        json_out = str(tmp_path / "grid.json")
        csv_out = str(tmp_path / "grid.csv")
        assert run_cli("link", "--out", json_out, "--m-grid", "1,5,19") == EXIT_OK
        assert run_cli("link", "--out", csv_out, "--m-grid", "1,5,19",
                       "--format", "csv") == EXIT_OK
        with open(csv_out, newline="") as handle:
            csv_rows = list(csv.DictReader(handle))
        json_rows = load(json_out)
        assert len(csv_rows) == len(json_rows) == 3
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert csv_row.keys() == json_row.keys()
            assert all(float(csv_row[k]) == json_row[k] for k in json_row)

    def test_bad_parameters_are_usage_errors(self, tmp_path):
        assert run_cli(
            "link", "--out", str(tmp_path / "x.json"), "--p1", "2.0"
        ) == EXIT_USAGE

    @pytest.mark.parametrize("flag, name", [
        ("--l0", "l0_km"), ("--c-fiber", "c_fiber_km_s"), ("--delta-t", "delta_t"),
    ])
    def test_infinite_parameter_is_named(self, tmp_path, capsys, flag, name):
        out = tmp_path / "x.json"
        assert run_cli("link", "--out", str(out), flag, "inf") == EXIT_USAGE
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestCalibrate:
    def test_published_targets(self, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([
            {"m": 1, "tau": 0.7, "s": 2.65},
            {"m": 19, "tau": 0.7, "s": 2.30},
            {"m": 19, "tau": 30.0, "s": 2.03},
        ]))
        out = str(tmp_path / "cal.json")
        assert run_cli("calibrate", "--targets", str(targets), "--out", out) == EXIT_OK
        payload = load(out)
        assert payload["v1"] == pytest.approx(0.9369164850721754, rel=1e-12)
        assert payload["beta"] == pytest.approx(0.8454106280193238, rel=1e-12)
        assert payload["tau_c"] == pytest.approx(234.63777275600935, rel=1e-12)

    @pytest.mark.parametrize("text", ['NaN', '"nan"'])
    def test_nan_target_is_usage_error(self, tmp_path, capsys, text):
        targets = tmp_path / "targets.json"
        targets.write_text(
            '[{"m": 1, "tau": 0.7, "s": 2.65}, {"m": 19, "tau": 0.7, "s": 2.30},'
            f' {{"m": 19, "tau": 30.0, "s": {text}}}]'
        )
        out = tmp_path / "x.json"
        assert run_cli("calibrate", "--targets", str(targets), "--out", str(out)) == EXIT_USAGE
        assert "target S" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_tau_is_usage_error(self, tmp_path, capsys):
        # float(True) is 1.0: read as a number, this target had tau = 1
        targets = tmp_path / "targets.json"
        targets.write_text(
            '[{"m": 1, "tau": 0.7, "s": 2.65}, {"m": 19, "tau": 0.7, "s": 2.30},'
            ' {"m": 19, "tau": true, "s": 2.03}]'
        )
        out = tmp_path / "x.json"
        assert run_cli("calibrate", "--targets", str(targets), "--out", str(out)) == EXIT_USAGE
        assert "target tau must be a number, got True" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_mode_count_is_usage_error(self, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([
            {"m": 1.9, "tau": 0.7, "s": 2.65},
            {"m": 19, "tau": 0.7, "s": 2.30},
            {"m": 19, "tau": 30.0, "s": 2.03},
        ]))
        out = tmp_path / "x.json"
        assert run_cli("calibrate", "--targets", str(targets), "--out", str(out)) == EXIT_USAGE
        assert "target mode count" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_target_is_usage_error(self, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        targets.write_text("[1, 2, 3]")
        out = tmp_path / "x.json"
        assert run_cli("calibrate", "--targets", str(targets), "--out", str(out)) == EXIT_USAGE
        assert "calibration target must be an object, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_list_targets_is_usage_error(self, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"m": 1}))
        assert run_cli(
            "calibrate", "--targets", str(targets), "--out", str(tmp_path / "x.json")
        ) == EXIT_USAGE


class TestReproduce:
    def test_tomography_preset_passes(self, tmp_path):
        out = str(tmp_path / "fig4.json")
        assert run_cli(
            "reproduce", "--figure", "fig4", "--out", out, "--trials", "30000"
        ) == EXIT_OK
        payload = load(out)
        assert payload["passed"] is True
        assert payload["checks"][0]["name"] == "tomography_fidelity"

    def test_failing_check_exits_1_but_writes_file(self, tmp_path):
        config_path = str(tmp_path / "bad.json")
        ExperimentConfig(v1=0.5).save(config_path)
        out = str(tmp_path / "fig4.json")
        code = run_cli(
            "reproduce", "--figure", "fig4", "--out", out,
            "--config", config_path, "--trials", "30000",
        )
        assert code == EXIT_RUNTIME
        payload = load(out)
        assert payload["passed"] is False

    def test_tomography_samples_at_the_configured_tau_ref(self, tmp_path):
        # a tau_ref away from the default 0.7 us: sampling at any other time changes the state
        config = ExperimentConfig(tau_ref=30.0)
        config.save(str(tmp_path / "cfg.json"))
        out = str(tmp_path / "fig4.json")
        run_cli("reproduce", "--figure", "fig4", "--out", out,
                "--config", str(tmp_path / "cfg.json"), "--trials", "30000")
        table = run_coincidence_batch(config, 30.0, tomography_setting_pairs(), 30000,
                                      DEFAULT_SEED)
        rho = project_physical(tomo_reconstruct(table))
        assert load(out)["data"][0]["rho"] == rho_payload(rho)

    def test_fig2_rows_draw_from_distinct_seeds(self, tmp_path, monkeypatch):
        calls = []
        herald_fractions = engine.herald_fractions

        def recording_herald_fractions(config, n_trials, seeds):
            calls.append((n_trials, list(seeds)))
            return herald_fractions(config, n_trials, seeds)

        monkeypatch.setattr(engine, "herald_fractions", recording_herald_fractions)
        run_cli("reproduce", "--figure", "fig2", "--out", str(tmp_path / "fig2.json"),
                "--trials", "20000")
        [(n_trials, seeds)] = calls
        assert n_trials == 20000
        assert len(seeds) == len(set(seeds)) == CFG.m

    def test_fig2_rows_are_the_law_at_each_mode_count(self):
        rows, _ = figures.herald_gain(CFG, DEFAULT_SEED, 20000)
        for row in rows:
            law = engine.analytic_p_s(CFG.replace(m=row["m"]))
            assert (row["p_s_exact"].hex(), row["p_s_linear"].hex()) == (
                law.exact.hex(), law.linear.hex())

    @pytest.mark.parametrize("argv, n_trials", [([], 10**9), (["--trials", "2000000"], 2_000_000)],
                             ids=["default", "trials-2000000"])
    def test_fig2_rows_all_draw_the_endpoint_count(self, tmp_path, argv, n_trials):
        out = str(tmp_path / "fig2.json")
        run_cli("reproduce", "--figure", "fig2", "--out", out, *argv)
        rows = load(out)["data"]
        assert [row["m"] for row in rows] == list(range(1, CFG.m + 1))
        assert all(row["trials"] == n_trials for row in rows)

    def test_fig2_rows_build_no_config_or_plan(self, tmp_path, monkeypatch):
        # a row is one law evaluation, one re-key and one binomial
        def not_built(*args, **kwargs):
            raise AssertionError("a fig2 row must not build a configuration or a run plan")

        monkeypatch.setattr(ExperimentConfig, "replace", not_built)
        monkeypatch.setattr(engine.RunPlan, "__new__", not_built)
        next(engine._setting_streams((0,), 0, 1))  # builds the thread's generator
        bit_generator, *parts = engine._THREAD.parts
        keys = []

        class RecordingBitGenerator:
            """Records the key of each state write before passing it on."""

            @property
            def state(self):
                return bit_generator.state

            @state.setter
            def state(self, value):
                keys.append(value["state"]["key"])
                bit_generator.state = value

        monkeypatch.setattr(engine._THREAD, "parts", (RecordingBitGenerator(), *parts))
        out = tmp_path / "fig2.json"
        run_cli("reproduce", "--figure", "fig2", "--out", str(out), "--trials", "20000")
        assert out.exists()
        # one re-key per row, in the trials domain, each to its own seed
        assert len(keys) == CFG.m
        assert len({seed for seed, _ in keys}) == CFG.m
        assert {domain for _, domain in keys} == {0}

    def test_fig2_without_m1_heralds_fails_cleanly(self, tmp_path):
        # at 100 trials the m = 1 row draws no heralds, so there is no ratio
        out = str(tmp_path / "fig2.json")
        code = run_cli("reproduce", "--figure", "fig2", "--out", out, "--trials", "100")
        assert code == EXIT_RUNTIME
        payload = load(out)
        assert payload["data"][0]["p_s_hat"] == 0.0
        ratio_check = payload["checks"][0]
        assert ratio_check["name"] == "p_s_ratio_m19_vs_m1"
        assert ratio_check["passed"] is False

    @pytest.mark.parametrize("rise, monotone", [(1e-6, False), (1e-10, True), (0.0, True)])
    def test_fig5_monotonicity_tolerates_rounding_only(self, tmp_path, monkeypatch, rise,
                                                       monotone):
        # S falls by 0.01 per mode, except that m = 5 rises above m = 4 by rise
        def falling_s(config, tau, n_coincidences, seed):
            m = config.m - 1 if config.m == 5 else config.m
            return 2.65 - 0.01 * m + (rise if config.m == 5 else 0.0), 0.001

        monkeypatch.setattr(figures, "_simulated_s", falling_s)
        out = str(tmp_path / "fig5.json")
        run_cli("reproduce", "--figure", "fig5", "--out", out, "--trials", "100")
        checks = {check["name"]: check for check in load(out)["checks"]}
        assert checks["s_monotone_nonincreasing"]["passed"] is monotone

    @pytest.mark.parametrize("changes, nan_checks", [
        ({"gamma": 0.0}, ("p_sas_ratio", "p_sas_linearity_r2")),  # p_sas is 0 at every m
        ({"eta_as": 0.0}, ("p_sas_ratio", "p_sas_linearity_r2")),
        ({"m": 1}, ("p_sas_linearity_r2",)),  # a one-point curve has no spread
    ])
    def test_fig5_without_a_p_sas_curve_fails_cleanly(self, tmp_path, capsys, changes,
                                                       nan_checks):
        # no ratio or no r^2 is NaN, with no numpy warning: the checks fail,
        # the file is written and the run exits 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(changes))
        out = str(tmp_path / "fig5.json")
        code = run_cli("reproduce", "--figure", "fig5", "--config", str(config), "--out", out,
                       "--trials", "1000")
        assert code == EXIT_RUNTIME
        checks = {check["name"]: check for check in load(out)["checks"]}
        for name in nan_checks:
            assert math.isnan(checks[name]["value"]) and checks[name]["passed"] is False
        err = capsys.readouterr().err
        assert err.startswith("failure: reproduction checks failed: ")
        assert all(name in err for name in nan_checks)

    def test_fig2_endpoints_and_checks_are_pinned(self, tmp_path):
        # fig2 at the default seed, as recorded before every row drew the
        # endpoints' trial count: the m = 1 and m = 19 rows and every check
        out = str(tmp_path / "fig2.json")
        assert run_cli("reproduce", "--figure", "fig2", "--out", out) == EXIT_OK
        payload = load(out)
        assert [payload["data"][0], payload["data"][-1]] == [
            {"m": 1, "p_s_exact": 0.001, "p_s_hat": 0.00099961, "p_s_linear": 0.001,
             "trials": 1_000_000_000},
            {"m": 19, "p_s_exact": 0.01882996513560092, "p_s_hat": 0.018835297,
             "p_s_linear": 0.019, "trials": 1_000_000_000},
        ]
        assert payload["checks"] == [
            {"high": 19.0, "low": 18.5, "name": "p_s_ratio_m19_vs_m1", "passed": True,
             "value": 18.8426456317964},
            {"high": 0.0010039979994997499, "low": 0.0009960020005002502,
             "name": "p_s_hat_m1_within_4se", "passed": True, "value": 0.00099961},
            {"high": 0.018847158342421566, "low": 0.018812771928780274,
             "name": "p_s_hat_m19_within_4se", "passed": True, "value": 0.018835297},
        ]

    def test_fig3_rows_and_fit_are_pinned(self, tmp_path):
        # fig3 at the default seed, as recorded before the decay fit was taken
        # about the weighted mean storage time: the rows exactly, the fit to
        # 1e-12 relative
        out = str(tmp_path / "fig3.json")
        assert run_cli("reproduce", "--figure", "fig3", "--out", out) == EXIT_OK
        *rows, last = load(out)["data"]
        assert rows == [
            {"s": 2.299586, "s_err": 0.0016364520681853166, "tau": 0.7},
            {"s": 2.255706, "s_err": 0.0016516485126018793, "tau": 5.0},
            {"s": 2.210304, "s_err": 0.0016669246315487692, "tau": 10.0},
            {"s": 2.1637180000000003, "s_err": 0.0016821356251824641, "tau": 15.0},
            {"s": 2.120362, "s_err": 0.0016958814457608763, "tau": 20.0},
            {"s": 2.072076, "s_err": 0.0017107369773732024, "tau": 25.0},
            {"s": 2.027308, "s_err": 0.0017240934640395803, "tau": 30.0},
        ]
        fit = last["fit"]
        assert fit["tau_ref"] == 0.7
        assert fit["tau_c"] == pytest.approx(234.17480280072877, rel=1e-12)
        assert fit["v_ref"] == pytest.approx(0.8129522700219223, rel=1e-12)
        assert fit["lifetime_chsh"] == pytest.approx(33.36520966183476, rel=1e-12)
        np.testing.assert_allclose(fit["covariance"], [
            [2.423566116060098e-07, 1.1837197155405976e-08],
            [1.1837197155405972e-08, 8.945612772031944e-10],
        ], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig5"])
    def test_largest_seed_is_accepted(self, tmp_path, figure):
        # per-row seeds seed + k wrap around instead of leaving [0, 2^64)
        out = str(tmp_path / f"{figure}.json")
        code = run_cli("reproduce", "--figure", figure, "--out", out,
                       "--seed", str(2**64 - 1), "--trials", "20000")
        assert code != EXIT_USAGE
        assert load(out)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "fig5"])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, capsys, figure, seed):
        out = tmp_path / f"{figure}.json"
        code = run_cli("reproduce", "--figure", figure, "--out", str(out),
                       "--seed", str(seed), "--trials", "100")
        assert code == EXIT_USAGE
        assert f"seed must lie in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run_cli(
            "simulate", "--out", str(tmp_path / "x.csv"),
            "--config", str(tmp_path / "absent.json"), "--trials", "10",
        ) == EXIT_USAGE

    @pytest.mark.parametrize("name, content, code, message", [
        ("absent.json", None, EXIT_USAGE, "configuration file not found: {path}"),
        ("dir.json", "dir", EXIT_RUNTIME, "[Errno 21] Is a directory: {path!r}"),
        ("bad.json", b'\xff{"m": 3}', EXIT_USAGE,
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        # the position names characters after newline translation
        ("crlf.json", b'{\r\n  "m": 3,\r\n  "chi" 0.02\r\n}\r\n', EXIT_USAGE,
         "Expecting ':' delimiter: line 3 column 9 (char 20)"),
        ("cr.json", b'{\r  "m": 3,\r  "chi" 0.02\r}\r', EXIT_USAGE,
         "Expecting ':' delimiter: line 3 column 9 (char 20)"),
    ])
    def test_unreadable_config_file(self, tmp_path, capsys, name, content, code, message):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--out", str(out), "--config", str(path),
                       "--trials", "10") == code
        assert capsys.readouterr().err == f"error: {message.format(path=str(path))}\n"
        assert not out.exists()

    # every input file is read as the configuration is: same exit codes and messages
    @pytest.mark.parametrize("option, name", [
        ("bell --counts", "in.csv"), ("tomo --counts", "in.csv"),
        ("decay --points", "in.csv"), ("decay --points", "in.json"),
        ("calibrate --targets", "in.json"),
    ], ids=["bell", "tomo", "decay-csv", "decay-json", "calibrate"])
    @pytest.mark.parametrize("content, code, message", [
        (None, EXIT_USAGE, "[Errno 2] No such file or directory: {path!r}"),
        ("dir", EXIT_RUNTIME, "[Errno 21] Is a directory: {path!r}"),
        (b'\xff[{"tau": 1}]', EXIT_USAGE,
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_input_file(self, tmp_path, capsys, option, name, content, code,
                                   message):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        out = tmp_path / "x.json"
        assert run_cli(*option.split(), str(path), "--out", str(out)) == code
        assert capsys.readouterr().err == f"error: {message.format(path=str(path))}\n"
        assert not out.exists()

    # a failed write names --out, not the temporary file beside it, and leaves none behind
    @pytest.mark.parametrize("argv, target, code, message", [
        (["reproduce", "--figure", "fig2", "--trials", "1000"], "missing/f2.json", EXIT_USAGE,
         "[Errno 2] No such file or directory: {path!r}"),
        (["simulate", "--trials", "100"], "dir", EXIT_RUNTIME,
         "[Errno 21] Is a directory: {path!r}"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_output_names_out(self, tmp_path, capsys, argv, target, code, message):
        (tmp_path / "dir").mkdir()
        path = tmp_path / target
        assert run_cli(*argv, "--out", str(path)) == code
        assert capsys.readouterr().err == f"error: {message.format(path=str(path))}\n"
        for directory in (tmp_path, tmp_path / "dir"):
            assert not list(directory.glob(".tmp.*~"))

    @pytest.mark.parametrize("option", ["decay --points", "calibrate --targets"])
    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_malformed_json_input_names_line_and_column(self, tmp_path, capsys, option,
                                                        newline):
        path = tmp_path / "in.json"
        path.write_bytes(newline.join([b"[", b'  {"tau": 1.0,', b'   "s" 2.3}', b"]", b""]))
        out = tmp_path / "x.json"
        assert run_cli(*option.split(), str(path), "--out", str(out)) == EXIT_USAGE
        # the position names characters after newline translation
        assert capsys.readouterr().err == (
            "error: Expecting ':' delimiter: line 3 column 8 (char 24)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, pairs", [
        ("bell", CANONICAL_BELL.setting_pairs()), ("tomo", tomography_setting_pairs()),
    ])
    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_counts_with_any_line_end_give_the_same_bytes(self, tmp_path, command, pairs,
                                                         newline):
        counts = tmp_path / "counts.csv"
        write_coincidence_csv(run_coincidence_batch(CFG, 0.7, pairs, 5000, 8), str(counts))
        other = tmp_path / "other.csv"
        other.write_bytes(counts.read_bytes().replace(b"\n", newline))
        outputs = []
        for path in (counts, other):
            outputs.append(tmp_path / f"{path.stem}.json")
            assert run_cli(command, "--counts", str(path), "--out", str(outputs[-1])) == EXIT_OK
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    @pytest.mark.parametrize("option, text", [
        ("bell --counts", ",".join(COINCIDENCE_COLUMNS) + "\n{field},0,0,0,0,0,0,0,1\n"),
        ("decay --points", "tau,s\n0.7,2.3\n{field},2.0\n"),
    ], ids=["bell", "decay"])
    def test_field_over_csv_limit_is_usage_error(self, tmp_path, capsys, option, text):
        path = tmp_path / "in.csv"
        lines = text.format(field="0" * 200_000)
        path.write_text(lines)
        out = tmp_path / "x.json"
        assert run_cli(*option.split(), str(path), "--out", str(out)) == EXIT_USAGE
        line = lines.count("\n")
        assert capsys.readouterr().err == (
            f"error: line {line}: field larger than field limit (131072)\n")
        assert not out.exists()

    @pytest.mark.parametrize("option, text, message", [
        ("decay --points", "tau,s\n0.7,2.3\n30.0,abc\n",
         "line 3: could not convert string to float: 'abc'"),
        ("bell --counts", ",".join(COINCIDENCE_COLUMNS) + "\n0.0,22.5,1,0,0,0,1,0,1\n"
                          "foo,22.5,1,0,0,0,1,0,1\n",
         "line 3: cannot parse analyzer setting token 'foo'"),
        ("bell --counts", ",".join(COINCIDENCE_COLUMNS) + "\n0.0,22.5,1,0,0,0,1,0,1\n"
                          "0.0,67.5,-1,0,0,0,1,0,10\n",
         "line 3: coincidence counts must be non-negative"),
        ("bell --counts", ",".join(COINCIDENCE_COLUMNS) + "\n0.0,22.5,1,0,0,0,1,0,1\n"
                          "0.0,67.5,5,0,0,0,1,0,10\n",
         "line 3: D1 coincidences exceed D1 herald singles"),
    ], ids=["decay-value", "bell-setting", "bell-negative-count", "bell-d1-coincidences"])
    def test_bad_value_names_its_line(self, tmp_path, capsys, option, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out = tmp_path / "x.json"
        assert run_cli(*option.split(), str(path), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bell", "tomo"])
    def test_count_beyond_float_range_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "counts.csv"
        write_coincidence_csv(
            run_coincidence_batch(CFG, 0.7, tomography_setting_pairs(), 1000, 8), str(path))
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[2:] = ["0", "0", "0", "0", "0", "0", str(10**400)]
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.json"
        assert run_cli(command, "--counts", str(path), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 3: counts must be float-range integers\n"
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"m": 19, "bogus": 1}))
        assert run_cli(
            "simulate", "--out", str(tmp_path / "x.csv"),
            "--config", str(config_path), "--trials", "10",
        ) == EXIT_USAGE

    @pytest.mark.parametrize("key, value", [
        ("beta", math.nan), ("tau_ref", math.nan),
    ])
    def test_non_finite_config_value_is_named(self, tmp_path, capsys, key, value):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({key: value}))  # written as NaN or Infinity
        assert run_cli(
            "simulate", "--out", str(tmp_path / "x.csv"),
            "--config", str(config_path), "--trials", "10",
        ) == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["delta_t_train", "rep_rate"])
    def test_removed_config_key_is_usage_error(self, tmp_path, capsys, key):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({key: 7.0}))
        out = tmp_path / "x.csv"
        assert run_cli(
            "simulate", "--out", str(out), "--config", str(config_path), "--trials", "10",
        ) == EXIT_USAGE
        assert f"unknown configuration keys: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, tmp_path):
        assert run_cli(
            "simulate", "--out", str(tmp_path / "x.csv"),
            "--trials", "10", "--seed", "-4",
        ) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("simulate", "--trials", "10"),
        ("reproduce", "--figure", "fig2"),
        ("reproduce", "--figure", "fig3"),
        ("reproduce", "--figure", "fig4"),
        ("reproduce", "--figure", "fig5"),
    ], ids=["simulate", "fig2", "fig3", "fig4", "fig5"])
    def test_zero_threads(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "x"), "--threads", "0") == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("simulate",),
        ("reproduce", "--figure", "fig2"),
        ("reproduce", "--figure", "fig3"),
        ("reproduce", "--figure", "fig4"),
        ("reproduce", "--figure", "fig5"),
    ], ids=["simulate", "fig2", "fig3", "fig4", "fig5"])
    def test_zero_trials(self, tmp_path, argv):
        out = tmp_path / "x"
        assert run_cli(*argv, "--out", str(out), "--trials", "0") == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "fig5"])
    def test_coincidence_count_beyond_int64_is_named(self, tmp_path, capsys, monkeypatch,
                                                     figure):
        # fig2 draws herald counts out of n_trials, the others coincidences
        count = "n_trials" if figure == "fig2" else "n_coincidences"

        def no_draws(*args):
            raise AssertionError("a rejected count must not reach the draws")

        monkeypatch.setattr(engine, "_setting_streams", no_draws)
        out = tmp_path / "x.json"
        for trials in (2**63, -1):
            assert run_cli("reproduce", "--figure", figure, "--out", str(out),
                           "--trials", str(trials)) == EXIT_USAGE
            assert f"{count} must lie in [1, 2^63)" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_subcommand_is_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_omitted_option_takes_its_default_again(self, tmp_path):
        argv = ["simulate", "--settings", "hv", "--format", "json"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run_cli(*argv, "--tau", "5.0", "--out", str(first)) == EXIT_OK
        assert run_cli(*argv, "--out", str(second)) == EXIT_OK
        assert load(first)["tau"] == 5.0
        assert load(second)["tau"] == CFG.tau_ref

    def test_usage_error_repeats(self):
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(["simulate"])
            assert excinfo.value.code == 2

    def test_other_subcommand_between_calls_changes_nothing(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli("simulate", "--out", str(first)) == EXIT_OK
        assert run_cli("bell", "--counts", str(first), "--out", str(tmp_path / "s.json")) == EXIT_OK
        assert run_cli("simulate", "--out", str(second)) == EXIT_OK
        assert second.read_bytes() == first.read_bytes()


SUBPARSERS = cli._parsers()[1]
# option values of every kind: valid and invalid choices, numbers in the forms
# int and float read, the empty string, and values that start with "-"
OPTION_VALUES = ["fig2", "fig9", "json", "csv", "bell", "hv", "out.json", "", "3", "2.5",
                 "nan", "1_0", "0x10", "-1", "-x", "--", "--out"]


def _option_tokens(parser, *, valid: bool) -> list:
    """--option value for each required option, or each store option when
    valid is False, with a value its action accepts."""
    tokens = []
    for action in parser._actions:
        if action.option_strings and action.nargs is None and (action.required or not valid):
            value = action.choices[-1] if action.choices else "3" if action.type else "x.out"
            tokens += [action.option_strings[-1], value]
    return tokens


def _accepted_values(parser, option):
    """Values that option's action accepts, some of them starting with "-"."""
    action = parser._option_string_actions.get(option)
    if action is None or action.choices:
        return st.sampled_from(action.choices if action else OPTION_VALUES)
    if action.type is int:
        return st.integers(-10, 10**20).map(str)
    if action.type is float:
        return st.floats().map(repr)
    return st.sampled_from(["out.json", "", "a b", "x=y", "fig2"])


class TestStoreOptionParse:
    """cli._parse_store_options reads an argv of plain "--option value" pairs
    from a subcommand parser's option table: it gives argparse's namespace
    or None, which leaves the argv to argparse."""

    @pytest.mark.parametrize("command", sorted(SUBPARSERS))
    @pytest.mark.parametrize("every_option", [False, True])
    def test_plain_pairs_give_argparse_namespace(self, command, every_option):
        parser = SUBPARSERS[command]
        tokens = _option_tokens(parser, valid=not every_option)
        args = cli._parse_store_options(parser, tokens)
        assert args is not None
        assert vars(args) == vars(parser.parse_args(tokens))

    def test_benchmark_argv_is_read_from_the_table(self, tmp_path):
        tokens = ["--figure", "fig2", "--threads", "1", "--seed", "12", "--config",
                  str(tmp_path / "c.json"), "--out", str(tmp_path / "f.json"), "--trials", "50000"]
        args = cli._parse_store_options(SUBPARSERS["reproduce"], tokens)
        assert vars(args) == vars(SUBPARSERS["reproduce"].parse_args(tokens))

    @pytest.mark.parametrize("tokens", [
        ["--figure", "fig9", "--out", "o"],  # not a choice
        ["--out", "o"],  # a required option missing
        ["--figure", "fig2", "--out", "o", "--seed", "x"],  # not an int
        ["--figure", "fig2", "--out", "-o"],  # a value starting with "-"
        ["--figure", "fig2", "--out", "o", "--seed", "-5"],
        ["--figure", "fig2", "--out"],  # no value
        ["--fig", "fig2", "--out", "o"],  # an abbreviation
        ["--figure=fig2", "--out", "o"],
        ["--figure", "fig2", "--out", "o", "extra"],
        ["--figure", "fig2", "--out", "o", "-h"],
    ])
    def test_other_argvs_are_left_to_argparse(self, tokens):
        assert cli._parse_store_options(SUBPARSERS["reproduce"], tokens) is None

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_result_is_argparse_namespace_or_none(self, data):
        command = data.draw(st.sampled_from(sorted(SUBPARSERS)))
        parser = SUBPARSERS[command]
        tokens = list(data.draw(st.sampled_from([()] + [_option_tokens(parser, valid=True)] * 3)))
        options = sorted(parser._option_string_actions)
        for _ in range(data.draw(st.integers(0, 4))):
            option = data.draw(st.sampled_from(options + ["--fig", "--out=o", "--nope", "x"]))
            tokens += [option, data.draw(st.one_of(_accepted_values(parser, option),
                                                   st.sampled_from(OPTION_VALUES)))]
        if tokens and data.draw(st.integers(0, 3)) == 0:
            tokens.pop()  # an option without its value, or a stray value
        args = cli._parse_store_options(parser, tokens)
        if args is not None:
            # repr, so that a NaN value compares equal to itself
            assert repr(vars(args)) == repr(vars(parser.parse_args(tokens)))


# (argv, exit code, sha256 prefix of stdout, sha256 prefix of stderr), recorded
# with COLUMNS=80 before main parsed a subcommand's arguments with its own
# parser alone; the help texts and usage errors must not change.
PARSER_OUTCOMES = [
    ([], 2, "e3b0c44298fc1c14", "fd44578eb50b4c55"),
    (["--help"], 0, "6d0231c70dc3bc8e", "e3b0c44298fc1c14"),
    (["-h"], 0, "6d0231c70dc3bc8e", "e3b0c44298fc1c14"),
    (["bogus"], 2, "e3b0c44298fc1c14", "72b415bd4d39dbef"),
    (["--", "reproduce"], 2, "e3b0c44298fc1c14", "940c44bf2fefce14"),
    (["reproduce"], 2, "e3b0c44298fc1c14", "85920408369369fd"),
    (["reproduce", "-h"], 0, "c341b93ea57016c9", "e3b0c44298fc1c14"),
    (["reproduce", "--figure", "fig9", "--out", "out.json"],
     2, "e3b0c44298fc1c14", "7b163302958aa35e"),
    (["reproduce", "--figure", "fig2", "--out", "out.json", "--nope"],
     2, "e3b0c44298fc1c14", "adf91f7f1d50d226"),
    (["reproduce", "--figure", "fig2", "--out", "out.json", "extra", "more"],
     2, "e3b0c44298fc1c14", "163ee887c34c60c0"),
    (["reproduce", "--fig", "fig2", "--trials", "1000", "--out", "out.json"],
     1, "e3b0c44298fc1c14", "5c09a6b3c019b69d"),
    (["reproduce", "--figure", "fig2", "--out", "out.json", "--trials", "x"],
     2, "e3b0c44298fc1c14", "032b00dcd129bbd1"),
    (["reproduce", "--figure=fig2", "--trials=1000", "--seed=7", "--out=out.json"],
     1, "e3b0c44298fc1c14", "5c09a6b3c019b69d"),
    (["reproduce", "--figure=fig9", "--out=out.json"], 2, "e3b0c44298fc1c14", "7b163302958aa35e"),
    (["simulate", "--trials", "100", "--out", "out.csv", "--", "extra"],
     2, "e3b0c44298fc1c14", "b5341b7935761686"),
    (["simulate", "--", "--out", "out.csv"], 2, "e3b0c44298fc1c14", "42e423a71cbdf5bf"),
    (["link", "--out", "out.json", "--he"], 0, "bf5fe63f8976b1d5", "e3b0c44298fc1c14"),
]


@pytest.mark.parametrize("argv, code, stdout_sha, stderr_sha", PARSER_OUTCOMES,
                         ids=[" ".join(case[0]) or "empty" for case in PARSER_OUTCOMES])
def test_parser_outcome_is_pinned(tmp_path, capsys, monkeypatch, argv, code, stdout_sha, stderr_sha):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (got, digest(out), digest(err)) == (code, stdout_sha, stderr_sha), (out, err)


def test_default_seed_is_stable_constant():
    assert DEFAULT_SEED == 1905


def _imported_names(tree) -> set:
    """Every dotted part of every module and name that tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


class TestFigureLayering:
    """The figure presets live in figures.py, which the CLI imports and which
    never imports the CLI; cli.py only parses, reads the configuration and
    writes the payload."""

    def test_cli_defines_no_figure_code(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        figure_code = {"_check", "_row_seed", "_simulated_s", "_rho_payload",
                       *(build.__name__ for build in figures.FIGURES.values())}
        assert sorted(name for name in defined if name.startswith("_reproduce_")) == []
        assert sorted(defined & figure_code) == []

    def test_figures_does_not_import_cli(self):
        tree = ast.parse(Path(figures.__file__).read_text(encoding="utf-8"))
        assert "cli" not in _imported_names(tree)

    def test_figure_choices_are_the_registry(self):
        action = SUBPARSERS["reproduce"]._option_string_actions["--figure"]
        assert action.choices == tuple(figures.FIGURES) == ("fig2", "fig3", "fig4", "fig5")
        assert "--figure {fig2,fig3,fig4,fig5}" in SUBPARSERS["reproduce"].format_usage()
