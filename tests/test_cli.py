"""Command line interface: subcommands, formats, exit codes, determinism."""
import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from swpemux import cli, engine, geometry
from swpemux.analysis import CANONICAL_BELL, tomography_setting_pairs
from swpemux.cli import DEFAULT_SEED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from swpemux.config import ExperimentConfig
from swpemux.engine import run_coincidence_batch
from swpemux.geometry import MAX_BEAMS
from swpemux.io import COINCIDENCE_COLUMNS, read_coincidence_csv, write_coincidence_csv

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
        points = tmp_path / "pts.csv"
        points.write_text("tau,s\n0.7,2.30\n30.0,2.03\n")
        out = tmp_path / "x.json"
        assert run_cli(
            "decay", "--points", str(points), "--out", str(out), "--tau-ref", "1e300"
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "tau_ref" in err and "Warning" not in err
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

    def test_fig2_rows_draw_from_distinct_seeds(self, tmp_path, monkeypatch):
        seeds = []
        herald_fraction = engine.herald_fraction

        def recording_herald_fraction(p_herald, n_trials, seed):
            seeds.append(seed)
            return herald_fraction(p_herald, n_trials, seed)

        monkeypatch.setattr(engine, "herald_fraction", recording_herald_fraction)
        run_cli("reproduce", "--figure", "fig2", "--out", str(tmp_path / "fig2.json"),
                "--trials", "20000")
        assert len(seeds) == CFG.m
        assert len(set(seeds)) == CFG.m

    def test_fig2_rows_build_no_config_or_plan(self, tmp_path, monkeypatch):
        # a row is one law evaluation, one re-key and one binomial
        def not_built(*args, **kwargs):
            raise AssertionError("a fig2 row must not build a configuration or a run plan")

        monkeypatch.setattr(ExperimentConfig, "replace", not_built)
        monkeypatch.setattr(engine.RunPlan, "__new__", not_built)
        rekeys = []
        setting_streams = engine._setting_streams

        def counting_setting_streams(seed, domain, count):
            rekeys.append(count)
            return setting_streams(seed, domain, count)

        monkeypatch.setattr(engine, "_setting_streams", counting_setting_streams)
        out = tmp_path / "fig2.json"
        run_cli("reproduce", "--figure", "fig2", "--out", str(out), "--trials", "20000")
        assert out.exists()
        assert rekeys == [1] * CFG.m

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

        monkeypatch.setattr(cli, "_simulated_s", falling_s)
        out = str(tmp_path / "fig5.json")
        run_cli("reproduce", "--figure", "fig5", "--out", out, "--trials", "100")
        checks = {check["name"]: check for check in load(out)["checks"]}
        assert checks["s_monotone_nonincreasing"]["passed"] is monotone

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
    ], ids=["decay-value", "bell-setting"])
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
