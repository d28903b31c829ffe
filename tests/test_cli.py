"""CLI subcommands, exit codes, and output artifacts."""
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from mirrormfld.cli import _load_run_config, build_parser, main
from mirrormfld.config import PAPER_PARTICLES, PRESETS, figure1_config, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_run_preset(tmp_path, capsys):
    code = main(["run", "--preset", "dirichlet", "--particles", "200",
                 "--steps", "3", "--out-dir", str(tmp_path), "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "final_objective" in out
    assert (tmp_path / "mmfld_seed7_metrics.csv").exists()
    assert (tmp_path / "mmfld_seed7_summary.json").exists()


def test_run_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(figure1_config(beta=0.0, particles=32, steps=2,
                                             out_dir=str(tmp_path))))
    assert main(["run", str(cfg)]) == 0


def _exit_code(argv):
    """``main``'s return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_paper_scale_applies_to_every_preset(command, preset):
    """``run`` scales every preset; ``oracle`` runs no sampler and rejects
    the flag."""
    if command == "oracle":
        assert _exit_code(["oracle", "--preset", preset, "--paper-scale"]) == 2
        return
    args = build_parser().parse_args(["run", "--preset", preset, "--paper-scale"])
    assert _load_run_config(args).sampler.particles == PAPER_PARTICLES
    args = build_parser().parse_args(["run", "--preset", preset, "--paper-scale",
                                      "--particles", "123"])
    assert _load_run_config(args).sampler.particles == 123


def test_paper_scale_applies_to_a_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(figure1_config(particles=32)))
    args = build_parser().parse_args(["run", str(cfg), "--paper-scale"])
    assert _load_run_config(args).sampler.particles == PAPER_PARTICLES


def test_run_dirichlet_at_paper_scale(tmp_path):
    assert main(["run", "--preset", "dirichlet", "--paper-scale", "--steps", "0",
                 "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "mmfld_seed0_summary.json").read_text())
    assert summary["particles"] == PAPER_PARTICLES


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exits_2(tmp_path, capsys, command, workers):
    """``run`` rejects the value; ``oracle`` rejects the flag itself."""
    steps = ["--steps", "0"] if command == "run" else []
    assert _exit_code([command, "--preset", "dirichlet", *steps, "--workers", workers,
                       "--out-dir", str(tmp_path)]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [["--seed", "4"], ["--particles", "10"], ["--steps", "0"],
                                  ["--paper-scale"], ["--dump-particles"], ["--workers", "3"]],
                         ids=lambda flag: flag[0].lstrip("-"))
def test_oracle_rejects_sampler_flags(tmp_path, capsys, flag):
    assert _exit_code(["oracle", "--preset", "figure1-beta0", "--out-dir", str(tmp_path),
                       *flag]) == 2
    assert flag[0] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_needs_exactly_one_source(tmp_path):
    assert main(["run"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["run", str(cfg), "--preset", "dirichlet"]) == 2


def test_run_invalid_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"domain": {"kind": "simplex", "dim": 3}}))
    assert main(["run", str(cfg)]) == 2


def test_run_missing_file_exits_2():
    assert main(["run", "/nope/missing.json"]) == 2


def test_oracle_subcommand(tmp_path, capsys):
    code = main(["oracle", "--preset", "figure1-beta0", "--out-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["residual"] < 1e-6
    assert len(payload["weights"]) == 64 * 64
    assert sum(payload["mean"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("domain", [{"kind": "box", "bounds": [[0.1, 1.0]] * 3},
                                    {"kind": "simplex", "dim": 4}], ids=["box", "simplex4"])
def test_oracle_rejects_domain_other_than_the_2_simplex(tmp_path, capsys, domain):
    # the grid lives on the 2-simplex; a box or a larger simplex must not be
    # solved there as if it were one
    alpha = [2.0] * (3 if domain["kind"] == "box" else 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": domain,
        "objective": {"kind": "linear-potential", "alpha": alpha,
                      "reference_temperature": 0.1},
        "sampler": {"kind": "mmfld", "eta": 0.01, "lambda": 0.1, "steps": 50,
                    "particles": 200},
        "output": {"dir": str(tmp_path / "out")}}))
    assert main(["oracle", str(cfg)]) == 2
    assert "'domain.kind'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bounds_subcommand(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--c1", "1", "--c2", "4", "--diameter", "1",
                 "--gap0", "1", "--alpha", "1", "--iterations", "1000",
                 "--particles", "50000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["stability_factor"]["deterministic"] == pytest.approx(2.718281828,
                                                                         rel=1e-6)
    assert payload["envelopes"]["particle_gap"] == pytest.approx(1e-5)
    assert payload["objective_gap_bound"] > 0


@pytest.mark.parametrize("flags, code, message", [
    (["--c1", "1", "--c2", "0"], 3, "c2 must be positive"),
    (["--c1", "1000", "--c2", "1e-6"], 3, "2 c1 diameter / sqrt(c2) = 2.000e+06 overflows"),
    (["--eta", "nan"], 2, "argument --eta: must be a finite number"),
    (["--m2", "1e100"], 3, "the term M2^4 = (1.000e+100)^4 overflows"),
])
def test_bounds_bad_flags_exit_with_a_message(capsys, flags, code, message):
    assert _exit_code(["bounds", *flags]) == code
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, nulls", [
    (["--eta", "1e200"], ["step_bias", "objective_gap_bound"]),
    (["--c1", "1", "--eta", "1e200"], ["step_bias", "objective_gap_bound", "expectation"]),
])
def test_bounds_writes_strict_json(tmp_path, capsys, flags, nulls):
    # an infinite bound, or the NaN expectation outside the small-step
    # regime, is written as null: strict JSON readers accept the output
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = tmp_path / "bounds.json"
    assert main(["bounds", *flags, "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert json.loads(out.read_text(), parse_constant=refuse) == printed
    values = {**printed, **printed["stability_factor"]}
    assert all(values[key] is None for key in nulls)
    assert printed["stability_factor"]["regime"] == (
        "deterministic-only" if "--c1" in flags else "convention")


def test_bounds_window_defaults_to_one_step(capsys):
    def payload(*flags):
        assert main(["bounds", "--c1", "1", "--c2", "4", *flags]) == 0
        return json.loads(capsys.readouterr().out)

    assert payload("--eta", "1e-2") == payload("--eta", "1e-2", "--window", "1e-2")
    assert payload("--eta", "1e-2") != payload("--eta", "1e-2", "--window", "3e-3")
    assert payload() == payload("--window", "3e-3")


@pytest.mark.parametrize("domain, sampler, oracle, keys", [
    ([[0.0, 1.0], [0.0, 1.0]], "mfld", {}, ["sampler.kind"]),
    ([[-1.0, 1.0], [0.0, 1.0]], "mmfld", {}, ["domain.bounds", "objective.alpha"]),
    ([[0.0, 1.0], [0.0, 1.0]], "mmfld", {"resolution": 4000},
     ["oracle.margin", "oracle.resolution"]),
])
def test_config_that_cannot_run_exits_2(tmp_path, capsys, domain, sampler, oracle, keys):
    # each config passes every per-key check but cannot run (or build the
    # oracle grid); the config boundary must reject it, naming its keys
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "box", "bounds": domain},
        "objective": {"kind": "linear-potential", "alpha": [2.0, 2.0],
                      "reference_temperature": 0.1},
        "sampler": {"kind": sampler, "eta": 0.01, "lambda": 0.1, "steps": 50,
                    "particles": 200},
        "output": {"dir": str(tmp_path / "out")}, "oracle": oracle}))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert all(f"'{key}'" in err for key in keys)
    assert not (tmp_path / "out").exists()


def test_compare_subcommand(tmp_path, capsys):
    from mirrormfld.runner import run_experiment

    a = run_experiment(parse_config(json.dumps(
        figure1_config(beta=0.0, particles=32, steps=2, out_dir=str(tmp_path)))))
    b = run_experiment(parse_config(json.dumps(
        figure1_config(beta=0.0, particles=32, steps=2, sampler="projected-mfld",
                       out_dir=str(tmp_path)))))
    code = main(["compare", str(a.summary_path), str(b.summary_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "winner_final_objective" in report


@pytest.mark.parametrize("payload", [{"a": 1}, [1, 2]])
def test_compare_non_summary_exits_3(tmp_path, capsys, payload):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(payload))
    assert main(["compare", str(path), str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "missing key 'sampler'" in err


@pytest.mark.parametrize("key", ["final_objective", "final_boundary_fraction"])
@pytest.mark.parametrize("value", ["oops", None, True, float("nan"), float("inf"),
                                   float("-inf")])
def test_compare_non_numeric_summary_exits_3(tmp_path, capsys, key, value):
    summary = {"sampler": "mmfld", "seed": 0, "final_objective": 0.5,
               "final_boundary_fraction": 0.1, "config": {"objective": {}}}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(summary))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**summary, key: value}))
    assert main(["compare", str(good), str(bad)]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and f"{key!r} is not a finite number" in err


def test_compare_non_json_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    assert main(["compare", str(path), str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "not JSON" in err


def test_compare_mismatched_exits_3(tmp_path):
    from mirrormfld.runner import run_experiment

    a = run_experiment(parse_config(json.dumps(
        figure1_config(beta=0.0, particles=32, steps=2,
                       out_dir=str(tmp_path / "a")))))
    b = run_experiment(parse_config(json.dumps(
        figure1_config(beta=1e-4, particles=32, steps=2,
                       out_dir=str(tmp_path / "b")))))
    assert main(["compare", str(a.summary_path), str(b.summary_path)]) == 3


def test_selfcheck(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck geometry: PASS" in out
    assert "selfcheck oracle: PASS" in out
    assert "selfcheck streams: PASS" in out


def _readme_cli_lines():
    """Every ``mirrormfld ...`` command of README's CLI block, continuation
    lines joined."""
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mirrormfld ")]


def test_readme_cli_block_parses(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_lines()
    assert {argv[0] for argv in commands} == {"run", "oracle", "bounds", "compare",
                                               "selfcheck"}
    for argv in commands:
        args = build_parser().parse_args(argv)
        if argv[0] in ("run", "oracle"):
            if args.config:  # a config file the block names but does not ship
                Path(args.config).write_text(json.dumps(figure1_config()))
            cfg = _load_run_config(args)
            if argv[0] == "run" and args.paper_scale:
                assert cfg.sampler.particles == PAPER_PARTICLES
    assert time.perf_counter() - t0 < 1.0


def test_readme_config_schema_block_is_canonical():
    """README's ``jsonc`` schema block, comments stripped, parses and is its
    own canonical form."""
    block = re.search(r"```jsonc\n(.*?)```", README.read_text(), re.S).group(1)
    raw = json.loads(re.sub(r"//[^\n]*", "", block))
    assert parse_config(raw).to_dict() == raw
