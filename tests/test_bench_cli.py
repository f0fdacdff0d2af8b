"""Command-line harness: parsing, exit codes, report files, determinism."""
import dataclasses
import json
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridcoord
from gridcoord import adp_coordinator
from gridcoord import bench_cli as bc
from gridcoord import grid_model as gm
from gridcoord.adp_coordinator import CoordinationError
from gridcoord.projection import RowExplosion
from suite_helpers import genless_dso_case, toy_tso_case


def toy_dso_case():
    # reactive-quiet feeder keeps consensus runs fast (no flat-valley crawl)
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.5, 0.0))
    lines = (gm.Line(1, 2, 0.02, 0.04),)
    gens = (gm.Generator(2, 0.0, 2.0, -1.0, 1.0, 1.0, 0.5, 20.0),)
    return gm.GridCase(100.0, buses, lines, gens)


def forced_export_dso_case():
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.5, 0.2))
    lines = (gm.Line(1, 2, 0.05, 0.05),)
    gens = (gm.Generator(2, 10.0, 10.0, -3.0, 3.0, 0.0, 1.0),)
    return gm.GridCase(100.0, buses, lines, gens)


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_cases")
    tso = root / "tso.json"
    dso = root / "dso.json"
    bad = root / "bad_dso.json"
    genless = root / "genless_dso.json"
    tso.write_text(gm.serialize_case(toy_tso_case()))
    dso.write_text(gm.serialize_case(toy_dso_case()))
    bad.write_text(gm.serialize_case(forced_export_dso_case()))
    genless.write_text(gm.serialize_case(genless_dso_case()))
    return {"tso": str(tso), "dso": str(dso), "bad": str(bad),
            "genless": str(genless)}


def toy_args(toy_files, *extra):
    return ["--tso", toy_files["tso"], "--dso", f"2={toy_files['dso']}",
            *extra]


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stripped_bytes(path):
    doc = load_json(path)
    del doc["timing"]
    return json.dumps(doc, sort_keys=True).encode()


class TestParsing:
    @pytest.mark.parametrize("method,flag", [
        ("centralized", "--rho=5"),
        ("centralized", "--value-fn=quadratic"),
        ("centralized", "--seed=1"),
        ("admm", "--samples=10"),
        ("admm", "--value-fn=none"),
        ("admm", "--weight=1.0"),
        ("adp", "--rho=1"),
        ("adp", "--tol=1e-5"),
        ("adp", "--max-iter=5"),
    ])
    def test_flag_rejected_for_method(self, method, flag, capsys):
        code = bc.main(["run", method, "--benchmark", flag])
        assert code == bc.EXIT_ERROR
        assert "not valid for method" in capsys.readouterr().err

    # every flag with a value and the RunConfig field it sets, and the
    # flags each subcommand accepts
    FLAGS = {"--benchmark": ((), "benchmark", True),
             "--tso": (("t.json",), "tso", "t.json"),
             "--dso": (("2=d.json",), "dsos", ("2=d.json",)),
             "--out": (("o",), "out", "o"),
             "--for-model": (("ldf",), "for_model", "lindistflow"),
             "--value-fn": (("none",), "value_fn", "none"),
             "--samples": (("7",), "samples", 7),
             "--seed": (("3",), "seed", 3),
             "--weight": (("2.5",), "weight", 2.5),
             "--rho": (("5",), "rho", 5.0),
             "--tol": (("1e-5",), "tol", 1e-5),
             "--max-iter": (("9",), "max_iter", 9),
             "--nu": (("1.02",), "nu", 1.02)}
    CASE = ("--benchmark", "--tso", "--dso", "--out")
    ACCEPTS = {
        ("run", "centralized"): CASE + ("--for-model",),
        ("run", "admm"): CASE + ("--for-model", "--rho", "--tol",
                                 "--max-iter"),
        ("run", "adp"): CASE + ("--for-model", "--value-fn", "--samples",
                                "--seed", "--weight"),
        ("compare",): CASE + ("--samples", "--seed", "--weight", "--rho",
                              "--tol", "--max-iter"),
        ("project-for",): CASE + ("--for-model", "--nu"),
    }

    @pytest.mark.parametrize("command", list(ACCEPTS), ids=" ".join)
    @pytest.mark.parametrize("flag", list(FLAGS))
    def test_accepted_flags(self, command, flag):
        values, field, expected = self.FLAGS[flag]
        argv = [*command, flag, *values]
        if flag not in self.ACCEPTS[command]:
            with pytest.raises((SystemExit, ValueError)) as exc:
                bc._to_config(bc._build_parser().parse_args(argv))
            if exc.type is SystemExit:
                assert exc.value.code == bc.EXIT_ERROR
            else:
                assert "not valid for method" in str(exc.value)
            return
        cfg = bc._to_config(bc._build_parser().parse_args(argv))
        assert getattr(cfg, field) == expected

    @pytest.mark.parametrize("command", list(ACCEPTS), ids=" ".join)
    def test_unset_flags_keep_the_config_defaults(self, command):
        cfg = bc._to_config(bc._build_parser().parse_args(list(command)))
        assert cfg == bc.RunConfig(command=command[0],
                                   method="".join(command[1:]))

    def test_invalid_method_choice_exits_with_error_code(self):
        with pytest.raises(SystemExit) as exc:
            bc.main(["run", "bogus", "--benchmark"])
        assert exc.value.code == bc.EXIT_ERROR

    def test_compare_has_no_model_selector(self):
        with pytest.raises(SystemExit) as exc:
            bc.main(["compare", "--benchmark", "--for-model", "ldf"])
        assert exc.value.code == bc.EXIT_ERROR

    def test_missing_case_source(self, capsys):
        code = bc.main(["run", "admm"])
        assert code == bc.EXIT_ERROR
        assert "--benchmark" in capsys.readouterr().err

    def test_dso_without_tso(self, toy_files, capsys):
        code = bc.main(["run", "centralized", "--dso", toy_files["dso"]])
        assert code == bc.EXIT_ERROR

    def test_unknown_log_level_warns_and_runs(self, toy_files, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.setenv("GRIDCOORD_LOG", "chatty")
        code = bc.main(["run", "centralized",
                        *toy_args(toy_files, "--out", str(tmp_path))])
        assert code == bc.EXIT_OK
        assert "GRIDCOORD_LOG" in capsys.readouterr().err

    def test_model_aliases_accepted(self, toy_files, tmp_path):
        for alias in ("ldf", "lindistflow"):
            code = bc.main(["run", "centralized",
                            *toy_args(toy_files, "--for-model", alias,
                                      "--out", str(tmp_path))])
            assert code == bc.EXIT_OK
        doc = load_json(tmp_path / "run_centralized.json")
        assert doc["result"]["model"] == "lindistflow"

    def test_missing_file_is_plain_error(self, tmp_path, capsys):
        code = bc.main(["run", "centralized", "--tso", "/nonexistent.json",
                        "--dso", "whatever.json", "--out", str(tmp_path)])
        assert code == bc.EXIT_ERROR


class TestRunConfig:
    def test_frozen(self):
        cfg = bc.RunConfig(command="run", method="admm")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.rho = 3.0

    def test_public_dict_lists_dsos(self):
        cfg = bc.RunConfig(command="run", method="adp", dsos=("a", "b"))
        doc = cfg.public_dict()
        assert doc["dsos"] == ["a", "b"]
        assert doc["method"] == "adp"
        json.dumps(doc)


class TestRunSubcommand:
    def test_centralized_result_document(self, toy_files, tmp_path):
        code = bc.main(["run", "centralized",
                        *toy_args(toy_files, "--out", str(tmp_path))])
        assert code == bc.EXIT_OK
        doc = load_json(tmp_path / "run_centralized.json")
        assert set(doc) == {"config", "result", "timing"}
        res = doc["result"]
        assert res["feasible"] is True
        assert res["operations"] == 1
        assert res["total_cost"] > 0
        assert res["interfaces"][0]["dso"] == 1
        assert doc["timing"]["solve_s"] >= 0
        assert "generated_at" in doc["timing"]

    def test_admm_matches_centralized_and_writes_history(self, toy_files,
                                                         tmp_path):
        out_c = tmp_path / "c"
        out_a = tmp_path / "a"
        assert bc.main(["run", "centralized",
                        *toy_args(toy_files, "--out", str(out_c))]) == 0
        assert bc.main(["run", "admm",
                        *toy_args(toy_files, "--out", str(out_a))]) == 0
        central = load_json(out_c / "run_centralized.json")["result"]
        admm = load_json(out_a / "run_admm.json")["result"]
        assert admm["converged"] is True
        rel = abs(admm["total_cost"] - central["total_cost"]) \
            / abs(central["total_cost"])
        assert rel < 1e-6
        history = (out_a / "admm_history.csv").read_text().splitlines()
        assert history[0] == "iter,primal_tau,primal_delta,dual,cost"
        assert len(history) == admm["iterations"] + 1

    def test_adp_run_document(self, toy_files, tmp_path):
        code = bc.main(["run", "adp",
                        *toy_args(toy_files, "--value-fn", "none",
                                  "--seed", "3", "--out", str(tmp_path))])
        assert code == bc.EXIT_OK
        doc = load_json(tmp_path / "run_adp.json")
        res = doc["result"]
        assert res["value_mode"] == "zero"
        assert res["feasible"] is True
        assert 2 <= res["operations"] <= 4
        assert doc["config"]["seed"] == 3
        assert "stages" in doc["timing"]

    def test_adp_repeat_is_deterministic(self, toy_files, tmp_path):
        args = ["run", "adp", *toy_args(toy_files, "--seed", "11",
                                        "--out", str(tmp_path))]
        assert bc.main(args) == bc.EXIT_OK
        first = stripped_bytes(tmp_path / "run_adp.json")
        assert bc.main(args) == bc.EXIT_OK
        assert stripped_bytes(tmp_path / "run_adp.json") == first

    def test_declared_infeasibility_exits_2(self, toy_files, tmp_path,
                                            capsys):
        code = bc.main(["run", "admm", "--tso", toy_files["tso"],
                        "--dso", f"2={toy_files['bad']}",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_DECLARED
        assert "declared failure" in capsys.readouterr().err

    def test_empty_region_is_declared(self, toy_files, tmp_path, capsys):
        code = bc.main(["run", "adp", "--tso", toy_files["tso"],
                        "--dso", f"2={toy_files['bad']}",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_DECLARED
        assert "declared failure: dso 1: interface region is empty" \
            in capsys.readouterr().err

    def test_row_explosion_is_declared(self, toy_files, tmp_path,
                                       monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise RowExplosion("99 rows would exceed cap 1")

        monkeypatch.setattr(adp_coordinator, "coupling_region", explode)
        code = bc.main(["run", "adp",
                        *toy_args(toy_files, "--out", str(tmp_path))])
        assert code == bc.EXIT_DECLARED
        assert "declared failure: dso 1: 99 rows" in capsys.readouterr().err

    def test_declared_failure_exit_status_of_the_process(self, toy_files,
                                                         tmp_path):
        src = os.path.dirname(os.path.dirname(gridcoord.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "gridcoord.bench_cli", "run", "adp",
             "--tso", toy_files["tso"], "--dso", f"2={toy_files['bad']}",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == bc.EXIT_DECLARED
        assert "declared failure: dso 1:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_infeasible_centralized_writes_null_cost(self, toy_files,
                                                     tmp_path):
        code = bc.main(["run", "centralized", "--tso", toy_files["tso"],
                        "--dso", f"2={toy_files['bad']}",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_DECLARED
        doc = load_json(tmp_path / "run_centralized.json")
        assert doc["result"]["feasible"] is False
        assert doc["result"]["total_cost"] is None

    def test_declared_exception_writes_flagged_report(self, toy_files,
                                                      tmp_path, capsys):
        # The same shape as compare's flagged row, in the run's report.
        code = bc.main(["run", "adp", "--tso", toy_files["tso"],
                        "--dso", f"2={toy_files['bad']}",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_DECLARED
        assert "declared failure: dso 1:" in capsys.readouterr().err
        doc = load_json(tmp_path / "run_adp.json")
        assert set(doc) == {"config", "result", "timing"}
        assert doc["result"] == {
            "algorithm": "adp", "total_cost": None, "operations": None,
            "feasible": False,
            "error": "dso 1: interface region is empty"}
        assert doc["config"]["method"] == "adp"
        assert "generated_at" in doc["timing"]

    def test_explicit_link_spec_matches_bare(self, toy_files, tmp_path):
        out1 = tmp_path / "bare"
        out2 = tmp_path / "full"
        assert bc.main(["run", "centralized", "--tso", toy_files["tso"],
                        "--dso", toy_files["dso"],
                        "--out", str(out1)]) == 0
        assert bc.main(["run", "centralized", "--tso", toy_files["tso"],
                        "--dso", f"1:1={toy_files['dso']}",
                        "--out", str(out2)]) == 0
        c1 = load_json(out1 / "run_centralized.json")["result"]["total_cost"]
        c2 = load_json(out2 / "run_centralized.json")["result"]["total_cost"]
        assert c1 == pytest.approx(c2, rel=1e-9)

    def test_matpower_tso_loads(self, toy_files, tmp_path):
        code = bc.main(["run", "centralized", "--tso", "tests/data/case9.m",
                        "--dso", f"8={toy_files['dso']}",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_OK
        doc = load_json(tmp_path / "run_centralized.json")
        assert doc["result"]["feasible"] is True


@pytest.fixture(scope="module")
def compare_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    code = bc.main(["compare", "--benchmark", "--seed", "7",
                    "--out", str(out)])
    return code, out


class TestCompare:
    def test_exit_ok(self, compare_out):
        code, _ = compare_out
        assert code == bc.EXIT_OK

    def test_csv_shape(self, compare_out):
        _, out = compare_out
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "algorithm,total_cost,operations,comp_time_s," \
                           "feasible"
        assert len(lines) == 7
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["centralized", "admm", "adp_ll_none",
                         "adp_ll_quadratic", "adp_ldf_none",
                         "adp_ldf_quadratic"]
        for ln in lines[1:]:
            parts = ln.split(",")
            float(parts[1])
            int(parts[2])
            float(parts[3])
            assert parts[4] == "true"

    def test_json_rows_carry_no_wall_times(self, compare_out):
        _, out = compare_out
        doc = load_json(out / "compare.json")
        assert set(doc) == {"config", "rows", "timing"}
        assert len(doc["rows"]) == 6
        for row in doc["rows"]:
            assert set(row) == {"algorithm", "total_cost", "operations",
                                "feasible"}
        assert "generated_at" in doc["timing"]
        for row in doc["rows"]:
            assert row["algorithm"] in doc["timing"]

    def test_known_benchmark_costs(self, compare_out):
        _, out = compare_out
        rows = {r["algorithm"]: r for r in
                load_json(out / "compare.json")["rows"]}
        assert rows["centralized"]["total_cost"] == pytest.approx(
            1111.804022, rel=1e-6)
        assert rows["adp_ldf_quadratic"]["total_cost"] == pytest.approx(
            1110.496319, rel=1e-6)
        assert rows["centralized"]["operations"] == 1
        assert rows["admm"]["operations"] >= 10
        for name in ("adp_ll_none", "adp_ll_quadratic", "adp_ldf_none",
                     "adp_ldf_quadratic"):
            assert 2 <= rows[name]["operations"] <= 4

    def test_value_function_improves_dispatch(self, compare_out):
        _, out = compare_out
        rows = {r["algorithm"]: r["total_cost"] for r in
                load_json(out / "compare.json")["rows"]}
        assert rows["adp_ll_quadratic"] < rows["adp_ll_none"]
        assert rows["adp_ldf_quadratic"] < rows["adp_ldf_none"]
        slack = 1e-6 * abs(rows["centralized"])
        assert rows["centralized"] <= rows["admm"] + slack
        assert rows["admm"] <= rows["adp_ll_quadratic"] + slack

    def test_table_lists_all_rows(self, toy_files, tmp_path, capsys):
        code = bc.main(["compare", *toy_args(toy_files,
                                             "--out", str(tmp_path))])
        assert code == bc.EXIT_OK
        text = capsys.readouterr().out
        for name in ("Algorithm", "Total Cost", "# Operations", "Comp. Time",
                     "centralized", "admm", "adp_ll_none",
                     "adp_ldf_quadratic"):
            assert name in text

    def test_rows_equal_single_runs(self, toy_files, tmp_path):
        # each row is the run of its method, model and value function
        assert bc.main(["compare", *toy_args(toy_files, "--seed", "5",
                                             "--out", str(tmp_path))]) == 0
        rows = load_json(tmp_path / "compare.json")["rows"]
        assert [r["algorithm"] for r in rows] == \
            [name for name, *_ in bc.COMPARE_ROWS]
        for row, (name, method, model, value_fn) in zip(rows,
                                                        bc.COMPARE_ROWS):
            extra = ("--value-fn", value_fn, "--seed", "5") \
                if method == "adp" else ()
            out = tmp_path / name
            assert bc.main(["run", method, *toy_args(
                toy_files, "--for-model", model, *extra,
                "--out", str(out))]) == 0
            result = load_json(out / f"run_{method}.json")["result"]
            for key in ("total_cost", "operations", "feasible"):
                assert row[key] == result[key], (name, key)

    def test_repeat_byte_identical_modulo_timing(self, tmp_path):
        args = ["compare", "--benchmark", "--seed", "7",
                "--out", str(tmp_path)]
        assert bc.main(args) == bc.EXIT_OK
        first = stripped_bytes(tmp_path / "compare.json")
        assert bc.main(args) == bc.EXIT_OK
        assert stripped_bytes(tmp_path / "compare.json") == first

    def test_partial_failure_flags_row(self, toy_files, tmp_path,
                                       monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise CoordinationError("admm", "consensus broke")

        monkeypatch.setattr(bc, "run_admm", boom)
        code = bc.main(["compare", *toy_args(toy_files,
                                             "--out", str(tmp_path))])
        assert code == bc.EXIT_DECLARED
        doc = load_json(tmp_path / "compare.json")
        rows = {r["algorithm"]: r for r in doc["rows"]}
        assert rows["admm"]["feasible"] is False
        assert rows["admm"]["total_cost"] is None
        assert "consensus broke" in rows["admm"]["error"]
        assert rows["centralized"]["feasible"] is True
        admm_line = [ln for ln in
                     (tmp_path / "compare.csv").read_text().splitlines()
                     if ln.startswith("admm,")][0]
        assert admm_line.split(",")[1] == ""
        assert admm_line.split(",")[4] == "false"
        assert "failed" in capsys.readouterr().out

    def test_degenerate_value_samples_flag_the_quadratic_rows(
            self, toy_files, tmp_path):
        code = bc.main(["compare", "--tso", toy_files["tso"],
                        "--dso", f"2={toy_files['genless']}",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_DECLARED
        rows = {r["algorithm"]: r
                for r in load_json(tmp_path / "compare.json")["rows"]}
        assert list(rows) == ["centralized", "admm", "adp_ll_none",
                              "adp_ll_quadratic", "adp_ldf_none",
                              "adp_ldf_quadratic"]
        for name in ("adp_ll_quadratic", "adp_ldf_quadratic"):
            assert rows[name]["feasible"] is False
            assert rows[name]["total_cost"] is None
            assert rows[name]["error"].startswith("dso 1 value fit: ")
        for name in ("centralized", "admm", "adp_ll_none", "adp_ldf_none"):
            assert rows[name]["feasible"] is True
            assert rows[name]["total_cost"] is not None


class TestProjectFor:
    def test_benchmark_polygons(self, tmp_path, capsys):
        code = bc.main(["project-for", "--benchmark", "--for-model", "ldf",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_OK
        out = capsys.readouterr().out
        assert "dso 1" in out and "dso 2" in out
        for index in (1, 2):
            csv_path = tmp_path / f"for_dso{index}_ldf.csv"
            sidecar = load_json(tmp_path / f"for_dso{index}_ldf.json")
            assert sidecar["dso_index"] == index
            assert sidecar["nu_value"] == 1.0
            assert sidecar["model_kind"] == "lindistflow"
            lines = csv_path.read_text().splitlines()
            assert lines[0] == "p_if,q_if"
            verts = np.array([[float(v) for v in ln.split(",")]
                              for ln in lines[1:]])
            assert len(verts) >= 3
            # convex and counter-clockwise: every cross product non-negative
            n = len(verts)
            for i in range(n):
                a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
                cross = ((b[0] - a[0]) * (c[1] - a[1])
                         - (b[1] - a[1]) * (c[0] - a[0]))
                assert cross >= -1e-9

    def test_ll_default_nu(self, tmp_path):
        code = bc.main(["project-for", "--benchmark", "--for-model", "ll",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_OK
        assert (tmp_path / "for_dso1_ll.csv").exists()
        assert (tmp_path / "for_dso2_ll.csv").exists()

    def test_nu_outside_bounds_reports_empty(self, tmp_path, capsys):
        code = bc.main(["project-for", "--benchmark", "--nu", "9.9",
                        "--out", str(tmp_path)])
        assert code == bc.EXIT_DECLARED
        out = capsys.readouterr().out
        assert "empty region" in out

    def test_toy_feeder_polygon(self, toy_files, tmp_path):
        code = bc.main(["project-for",
                        *toy_args(toy_files, "--out", str(tmp_path))])
        assert code == bc.EXIT_OK
        assert (tmp_path / "for_dso1_ll.csv").exists()


class TestExportReport:
    def test_round_trip(self, tmp_path):
        rows = [{"algorithm": "centralized", "total_cost": 8.7814,
                 "operations": 1, "feasible": True},
                {"algorithm": "admm", "total_cost": None,
                 "operations": None, "feasible": False, "error": "x"}]
        timing = {"centralized": {"comp_s": 0.2}, "admm": {"comp_s": 0.0}}
        csv_path, json_path = bc.export_report(rows, timing, str(tmp_path),
                                               {"seed": 0})
        lines = open(csv_path).read().splitlines()
        assert lines[0] == bc.CSV_HEADER
        assert len(lines) == 3
        assert lines[2].startswith("admm,,,")
        doc = load_json(json_path)
        assert doc["rows"] == rows
        assert doc["config"] == {"seed": 0}


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestMakeBenchmarkScript:
    def test_help_writes_nothing(self, monkeypatch, tmp_path, capsys):
        script = load_script("make_benchmark")
        monkeypatch.setattr(script, "OUT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as stop:
            script.main(["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")
        assert not any(tmp_path.iterdir())

    def test_packaged_benchmark_meets_its_tuning_targets(self, capsys):
        # the check main runs after writing the fixture, on the packaged one
        script = load_script("make_benchmark")
        assert script.verify(gm.load_builtin_benchmark())
        assert "FAIL" not in capsys.readouterr().out


class TestRhoSweepScript:
    def test_default_sweep_passes(self, capsys):
        script = load_script("rho_sweep")
        assert script.main([]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "relative cost spread" in out
        assert "final rho" in out


class TestLadderScript:
    def test_nine_generator_rung(self):
        # the smallest tall rung, in this process: the FOR of the deep
        # workload's feeder 1 as the ladder records it
        script = load_script("ladder")
        row = script.rung(9)
        assert row["generators"] == 9 and row["runs"] >= 1
        assert row["for_rows"] == 34 and row["max_rows"] == 156
        assert 0 < row["exact_lps"] <= 100
        assert 0.0 < row["seconds"] < script.CAP_S

    def test_nine_generator_admm_rung(self):
        # the smallest ADMM rung, in this process: the deep workload
        script = load_script("ladder")
        row = script.admm_rung(9)
        assert row["generators"] == 9 and row["runs"] >= 1
        assert row["converged"] and row["rounds"] == 36
        assert row["gap"] <= 1e-6
        assert 0.0 < row["seconds"] < script.CAP_S

    def test_fourteen_feeder_broad_rung(self):
        # the smallest broad rung, in this process: the wide workload's
        # shape, fourteen copies of the packaged feeder
        script = load_script("ladder")
        row = script.broad_rung(14)
        assert row["feeders"] == 14 and row["runs"] >= 1
        assert [name for name, *_ in bc.COMPARE_ROWS] == list(row["rows"])
        assert all(r["feasible"] and r["total_s"] > 0.0
                   for r in row["rows"].values())
        assert row["admm_rounds"] == row["rows"]["admm"]["operations"] > 0
        central = row["centralized"]
        assert central["n"] > central["p"] > central["k"] > 0
        assert central["m"] > 0
        assert row["peak_rss_mb"] > 0.0
        assert 0.0 < row["seconds"] < script.CAP_S

    def test_degenerate_rung(self, capsys):
        # the genless partition: a feeder without generators, whose FOR is
        # a segment, so no quadratic fits its value samples
        script = load_script("ladder")
        row = script.degenerate_rung()
        assert row["generators"] == 0
        assert row["exit_code"] == bc.EXIT_DECLARED
        assert row["flagged"] == {"adp_ll_quadratic": "dso 1 value fit",
                                  "adp_ldf_quadratic": "dso 1 value fit"}
