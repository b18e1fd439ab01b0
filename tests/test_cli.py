"""Command line behavior: validation, artifacts, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from optdes.cli import CONFIG_SCHEMA, main

C_STAR = 1.5434046384182085


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def canon_config(tmp_path):
    return _write_config(
        tmp_path / "run.json",
        {
            "task": "closed-form",
            "seed": 0,
            "options": {"rule": "canonical-logistic"},
            "output": {"dir": str(tmp_path / "out"), "prefix": "canon"},
        },
    )


def test_version_prints_package_version(capsys):
    assert main(["version"]) == 0
    from optdes import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_schema_emits_valid_json(capsys):
    assert main(["schema"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed == CONFIG_SCHEMA
    assert set(parsed["properties"]) == {
        "task", "seed", "model", "prior", "design", "reference", "options", "output",
    }


def test_run_writes_design_report_and_summary(canon_config, tmp_path, capsys):
    assert main(["run", canon_config]) == 0
    out = capsys.readouterr().out
    assert "canon.design.csv" in out and "canon.report.json" in out
    csv = (tmp_path / "out" / "canon.design.csv").read_text()
    assert csv.splitlines()[0] == "x_1,weight"
    assert f"{C_STAR:.17g}" in csv
    report = json.loads((tmp_path / "out" / "canon.report.json").read_text())
    assert report["task"] == "closed-form"
    assert report["equivalence"]["is_optimal"] is True
    assert sorted(report["artifacts"]) == report["artifacts"]


def test_rerun_is_byte_identical(canon_config, tmp_path):
    main(["run", canon_config])
    first = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
    }
    main(["run", canon_config])
    second = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
    }
    assert first == second


def test_threads_flag_does_not_change_artifacts(canon_config, tmp_path):
    main(["run", canon_config])
    base = (tmp_path / "out" / "canon.report.json").read_bytes()
    main(["run", canon_config, "--threads", "1"])
    assert (tmp_path / "out" / "canon.report.json").read_bytes() == base


def test_set_overrides_nested_config(canon_config, tmp_path, capsys):
    code = main(
        [
            "run",
            canon_config,
            "--set",
            f'output.dir="{tmp_path / "other"}"',
            "--set",
            'output.prefix="alt"',
        ]
    )
    assert code == 0
    assert (tmp_path / "other" / "alt.design.csv").exists()


def test_missing_config_file_exits_2(capsys):
    assert main(["run", "/nonexistent/nope.json"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        {"task": "closed-form", "options": {"rule": "canonical-logistic"}, "extra": 1},
    )
    assert main(["run", cfg]) == 2
    assert "config invalid" in capsys.readouterr().err


def test_unknown_task_option_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        {"task": "closed-form", "options": {"rule": "canonical-logistic", "bogus": 1}},
    )
    assert main(["run", cfg]) == 2


def test_invalid_design_weights_exit_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "task": "check",
            "model": {
                "family": {"kind": "binomial"},
                "link": {"kind": "logistic"},
                "basis": {"k": 1, "order": 1},
                "region": {"bounds": [None]},
            },
            "prior": {"kind": "point", "theta": [0.0, 1.0]},
            "design": {
                "kind": "continuous",
                "points": [[-1.5], [1.5]],
                "weights": [0.5, 0.4],
            },
        },
    )
    assert main(["run", cfg]) == 2
    assert "sum" in capsys.readouterr().err


def _free_axis_check(tmp_path, prior, options=None):
    config = {
        "task": "check",
        "model": {
            "family": {"kind": "binomial"},
            "link": {"kind": "logistic"},
            "basis": {"k": 1, "order": 1},
            "region": {"bounds": [None]},
        },
        "prior": prior,
        "design": {"kind": "continuous", "points": [[-1.0], [1.0]], "weights": [0.5, 0.5]},
        "output": {"dir": str(tmp_path), "prefix": "chk"},
    }
    if options is not None:
        config["options"] = options
    # written by hand: 1e400 parses as inf, which json.dumps cannot write
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config).replace('"INF"', "1e400"))
    return str(path)


@pytest.mark.parametrize("window", [[1.0, -1.0], ["INF", 1.0]], ids=["reversed", "inf"])
def test_bad_window_exits_2(tmp_path, capsys, window):
    prior = {"kind": "point", "theta": [0.0, 1.0]}
    assert main(["run", _free_axis_check(tmp_path, prior, {"window": window})]) == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "chk.report.json").exists()


@pytest.mark.parametrize(
    "prior",
    [
        {"kind": "sample", "draws": [[0.0, 1.0], [0.0]]},
        {"kind": "sample", "draws": [[0.0, 1.0], [0.0, "INF"]]},
        {"kind": "sample", "draws": [[0.0, 1.0], [0.5, 1.0]], "weights": [1.0, "INF"]},
    ],
    ids=["ragged-draws", "inf-draw", "inf-weight"],
)
def test_bad_sample_prior_exits_2(tmp_path, capsys, prior):
    assert main(["run", _free_axis_check(tmp_path, prior)]) == 2
    assert "sample" in capsys.readouterr().err
    assert not (tmp_path / "chk.report.json").exists()


def test_check_reports_suboptimal_design_without_failing(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "task": "check",
            "model": {
                "family": {"kind": "binomial"},
                "link": {"kind": "logistic"},
                "basis": {"k": 1, "order": 1},
                "region": {"bounds": [None]},
            },
            "prior": {"kind": "point", "theta": [0.0, 1.0]},
            "design": {
                "kind": "continuous",
                "points": [[-0.5], [0.5]],
                "weights": [0.5, 0.5],
            },
            "output": {"dir": str(tmp_path), "prefix": "chk"},
        },
    )
    assert main(["run", cfg]) == 0
    report = json.loads((tmp_path / "chk.report.json").read_text())
    assert report["equivalence"]["is_optimal"] is False
    assert "FAIL" in capsys.readouterr().out


def test_closed_form_precondition_exits_4(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "task": "closed-form",
            "model": {
                "family": {"kind": "gamma"},
                "link": {"kind": "power", "shape": 1.0},
                "basis": {"k": 2, "order": 1},
                "region": {"bounds": [[0, 1], [0, 1]]},
            },
            "prior": {"kind": "point", "theta": [5.0, 1.0, 1.0]},
            "options": {"rule": "gamma-ofaat"},
            "output": {"dir": str(tmp_path), "prefix": "gam"},
        },
    )
    assert main(["run", cfg]) == 4
    report = json.loads((tmp_path / "gam.report.json").read_text())
    assert report["closed_form"]["condition_satisfied"] is False


POISSON_2D = {
    "family": {"kind": "poisson"},
    "link": {"kind": "log"},
    "basis": {"k": 2, "order": 1},
    "region": {"bounds": [[-1, 1], [-1, 1]]},
}


@pytest.mark.parametrize(
    "rule, model, prior",
    [
        (
            "factorial-bracket",
            {
                "family": {"kind": "binomial"},
                "link": {"kind": "logistic"},
                "basis": {"k": 2, "order": 1},
                "region": {"bounds": [[-1, 1], None]},
            },
            {"kind": "point", "theta": [0.3, -0.8, 1.5]},
        ),
        ("poisson-step", POISSON_2D, {"kind": "point", "theta": [0.2, 2.0, -3.0]}),
        (
            "poisson-bayes-minimal",
            POISSON_2D,
            {"kind": "uniform_box", "bounds": [[0, 0], [1, 3], [-3, -1]]},
        ),
    ],
)
def test_closed_form_rules_with_list_intermediates(tmp_path, capsys, rule, model, prior):
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "task": "closed-form",
            "model": model,
            "prior": prior,
            "options": {"rule": rule},
            "output": {"dir": str(tmp_path), "prefix": "cf"},
        },
    )
    assert main(["run", cfg]) == 0
    report = json.loads((tmp_path / "cf.report.json").read_text())
    inter = report["closed_form"]["intermediates"]
    assert any(isinstance(v, list) for v in inter.values())
    assert all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in inter.values())


def test_effdist_writes_ecdf(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "task": "effdist",
            "seed": 7,
            "model": {
                "family": {"kind": "poisson"},
                "link": {"kind": "log"},
                "basis": {"k": 2, "order": 1},
                "region": {"bounds": [[-1, 1], [-1, 1]]},
            },
            "prior": {"kind": "uniform_box", "bounds": [[0, 0], [1, 3], [-3, -1]]},
            "design": {
                "kind": "continuous",
                "points": [[1, -1], [-1, -1], [1, 1]],
                "weights": [0.3334, 0.3333, 0.3333],
            },
            "options": {"n_draws": 50, "competitor": {"rule": "poisson-step"}},
            "output": {"dir": str(tmp_path), "prefix": "ed"},
        },
    )
    assert main(["run", cfg]) == 0
    lines = (tmp_path / "ed.ecdf.csv").read_text().splitlines()
    assert lines[0] == "draw,efficiency"
    assert len(lines) == 51
    report = json.loads((tmp_path / "ed.report.json").read_text())
    assert report["ecdf"]["n"] == 50
    assert 0 < report["ecdf"]["min"] <= report["ecdf"]["median"] <= 1.0


def test_effdist_error_names_the_first_failing_draw(tmp_path, capsys):
    gamma_power = {
        "family": {"kind": "gamma"},
        "link": {"kind": "power", "shape": 1.0},
        "basis": {"k": 1, "order": 1},
        "region": {"bounds": [[0, 1]]},
    }
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "task": "effdist",
            "seed": 7,
            "model": gamma_power,
            "prior": {"kind": "uniform_box", "bounds": [[-0.5, 0.5], [0.5, 1.5]]},
            "design": {"kind": "continuous", "points": [[0], [1]], "weights": [0.5, 0.5]},
            "options": {
                "n_draws": 100,
                "competitor": {
                    "design": {"kind": "continuous", "points": [[0.5], [1]], "weights": [0.5, 0.5]}
                },
            },
            "output": {"dir": str(tmp_path), "prefix": "ed"},
        },
    )
    assert main(["run", cfg]) == 3
    assert (
        "linear predictor -0.3412492165903077 outside the domain of link 'power' "
        "(design point index 0)" in capsys.readouterr().err
    )


POISSON_QUADRATIC_1D = {
    "family": {"kind": "poisson"},
    "link": {"kind": "log"},
    "basis": {"k": 1, "order": 2},
    "region": {"bounds": [[-1, 1]]},
}
BLOCK_OPTS = {"m": 2, "sigma2": 0.5, "method": "ql"}
BLOCK_DESIGN = {"kind": "block", "blocks": [[[-1], [1]], [[0.5], [1]]], "weights": [0.5, 0.5]}


def _block_config(tmp_path, task, options, design=BLOCK_DESIGN):
    config = {
        "task": task,
        "model": POISSON_QUADRATIC_1D,
        "prior": {"kind": "point", "theta": [0, 5, 1]},
        "options": {**BLOCK_OPTS, **options},
        "output": {"dir": str(tmp_path), "prefix": "blk"},
    }
    if task == "block-check":
        config["design"] = design
    return _write_config(tmp_path / "c.json", config)


@pytest.mark.parametrize(
    "task, design, field",
    [
        (
            "check",
            {"kind": "continuous", "points": [[-1], [1, 0.5]], "weights": [0.5, 0.5]},
            "points",
        ),
        (
            "block-check",
            {"kind": "block", "blocks": [[[-1], [1]], [[0.5]]], "weights": [0.5, 0.5]},
            "blocks",
        ),
    ],
)
def test_ragged_design_exits_2(tmp_path, capsys, task, design, field):
    if task == "check":
        cfg = _write_config(
            tmp_path / "c.json",
            {
                "task": "check",
                "model": POISSON_QUADRATIC_1D,
                "prior": {"kind": "point", "theta": [0, 1, 1]},
                "design": design,
            },
        )
    else:
        cfg = _block_config(tmp_path, task, {}, design)
    assert main(["run", cfg]) == 2
    assert field in capsys.readouterr().err


def test_block_optimize_applies_tol_and_grid_step(tmp_path):
    assert main(["run", _block_config(tmp_path, "block-optimize", {"tol": 0.1, "grid_step": 0.5})]) == 0
    eq = json.loads((tmp_path / "blk.report.json").read_text())["equivalence"]
    assert eq["tol"] == 0.1
    # 5 lattice points give 15 blocks of 2 runs, plus the design's own blocks
    assert eq["n_grid"] == 15 + eq["support_size"]


@pytest.mark.parametrize("task", ["block-optimize", "block-check"])
def test_block_tasks_reject_window(tmp_path, capsys, task):
    assert main(["run", _block_config(tmp_path, task, {"window": [-1, 1]})]) == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "blk.report.json").exists()


@pytest.mark.parametrize("task", ["optimize-exact", "block-check"])
def test_grid_step_above_the_size_cap_exits_2(tmp_path, capsys, task):
    if task == "block-check":
        cfg = _block_config(tmp_path, task, {"grid_step": 1e-300})
    else:
        cfg = _write_config(
            tmp_path / "c.json",
            {
                "task": task,
                "model": POISSON_QUADRATIC_1D,
                "prior": {"kind": "point", "theta": [0, 1, 1]},
                "options": {"n": 4, "grid_step": 1e-300},
            },
        )
    assert main(["run", cfg]) == 2
    assert "grid step" in capsys.readouterr().err


def test_reproduce_writes_three_artifacts(tmp_path, capsys):
    code = main(["reproduce", "logistic-1d-efficiency", "--out", str(tmp_path)])
    assert code == 0
    for suffix in (".computed.csv", ".golden.csv", ".diff.json"):
        assert (tmp_path / f"logistic-1d-efficiency{suffix}").exists()
    diff = json.loads((tmp_path / "logistic-1d-efficiency.diff.json").read_text())
    assert diff["passed"] is True and diff["n_failed"] == 0
    assert "all cells match" in capsys.readouterr().out


def test_reproduce_unknown_id_exits_2(tmp_path, capsys):
    assert main(["reproduce", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown table id" in capsys.readouterr().err


def test_reproduce_list(capsys):
    assert main(["reproduce", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "poisson-beta" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "optdes.cli", "version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    proc2 = subprocess.run(["optdes", "version"], capture_output=True, text=True)
    assert proc2.returncode == 0
    assert proc2.stdout == proc.stdout
