"""Config parsing, validation completeness, presets, round trips."""
import json

import pytest

from mirrormfld.cli import main
from mirrormfld.config import (
    FIGURE1_TARGET,
    PAPER_PARTICLES,
    build_mirror_map,
    build_objective,
    dirichlet_config,
    figure1_config,
    parse_config,
    preset_config,
)
from mirrormfld.dynamics import SamplerConfig
from mirrormfld.errors import ConfigError


def minimal_raw(**over):
    raw = {
        "domain": {"kind": "simplex", "dim": 3},
        "objective": {"kind": "mean-match-barrier", "q": [0.5, 0.3, 0.2],
                      "beta": 0.0},
        "sampler": {"kind": "mmfld", "eta": 3e-3, "lambda": 0.1,
                    "steps": 10, "particles": 100},
    }
    raw.update(over)
    return raw


def test_parse_minimal():
    cfg = parse_config(json.dumps(minimal_raw()))
    assert cfg.sampler.eta == 3e-3
    assert cfg.sampler.temperature == 0.1
    assert cfg.seed == 0
    assert cfg.every == 1
    assert cfg.boundary_epsilon == 1e-3
    assert cfg.oracle.resolution == 64


def test_parse_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_raw()))
    assert parse_config(path).sampler.steps == 10


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/config.json")


def test_round_trip_idempotent():
    cfg = parse_config(json.dumps(figure1_config(beta=1e-4)))
    again = parse_config(json.dumps(cfg.to_dict()))
    assert again == cfg
    assert json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())


ORACLE_ECHO = {"resolution": 64, "margin": 1e-4, "damping": 0.5, "tol": 1e-8,
               "max_iter": 10000}


@pytest.mark.parametrize("raw, echo", [
    (preset_config("figure1-barrier"), {
        "domain": {"kind": "simplex", "dim": 3},
        "objective": {"kind": "mean-match-barrier", "q": [0.5, 0.3, 0.2], "beta": 1e-4},
        "sampler": {"kind": "mmfld", "eta": 3e-3, "lambda": 0.1, "substeps": 1,
                    "steps": 2000, "particles": 10000},
        "seed": 0,
        "output": {"dir": "out", "dump_particles": False},
        "diagnostics": {"every": 1, "boundary_epsilon": 1e-3},
        "oracle": ORACLE_ECHO}),
    (preset_config("dirichlet"), {
        "domain": {"kind": "simplex", "dim": 3},
        "objective": {"kind": "linear-potential", "alpha": [2.0, 2.0, 2.0],
                      "reference_temperature": 0.1},
        "sampler": {"kind": "mmfld", "eta": 1e-3, "lambda": 0.1, "substeps": 1,
                    "steps": 5000, "particles": 50000},
        "seed": 0,
        "output": {"dir": "out", "dump_particles": False},
        "diagnostics": {"every": 50, "boundary_epsilon": 1e-3},
        "oracle": ORACLE_ECHO}),
    # no preset runs the network objective; a minimal config of it fills in
    # every default
    ({"domain": {"kind": "box", "bounds": [[-3, 3]] * 3},
      "objective": {"kind": "mf-network-risk", "dataset": "net.csv"},
      "sampler": {"kind": "projected-mfld", "eta": 0.1, "lambda": 0.1, "steps": 3,
                  "particles": 40}}, {
        "domain": {"kind": "box", "bounds": [[-3.0, 3.0]] * 3},
        "objective": {"kind": "mf-network-risk", "dataset": "net.csv",
                      "parameter_bound": 3.0},
        "sampler": {"kind": "projected-mfld", "eta": 0.1, "lambda": 0.1, "substeps": 1,
                    "steps": 3, "particles": 40},
        "seed": 0,
        "output": {"dir": "out", "dump_particles": False},
        "diagnostics": {"every": 1, "boundary_epsilon": 1e-3},
        "oracle": ORACLE_ECHO}),
], ids=["mean-match-barrier", "linear-potential", "mf-network-risk"])
def test_summary_config_echo_pinned(raw, echo):
    """The summary's config echo, key order and number types included: run
    comparison and the benchmark read it by these names."""
    cfg = parse_config(raw)
    assert isinstance(cfg.sampler, SamplerConfig)
    assert json.dumps(cfg.to_dict()) == json.dumps(echo)
    assert list(cfg.to_dict()["sampler"]) == ["kind", "eta", "lambda", "substeps", "steps",
                                              "particles"]


def test_mapping_parses_like_its_json_text():
    for raw in (minimal_raw(), figure1_config(beta=1e-4), dirichlet_config()):
        assert parse_config(raw) == parse_config(json.dumps(raw))


@pytest.mark.parametrize("key, value", [
    (("sampler", "eta"), float("nan")),
    (("sampler", "lambda"), float("inf")),
    (("objective", "q"), [float("nan"), 0.5, 0.5]),
    (("diagnostics", "boundary_epsilon"), float("inf")),
    (("domain", "bounds"), [[0.0, float("inf")], [-1.0, 1.0]]),
])
def test_non_finite_number_names_key(key, value):
    raw = minimal_raw(diagnostics={})
    if key == ("domain", "bounds"):
        raw["domain"] = {"kind": "box", "bounds": value}
        raw["objective"] = {"kind": "linear-potential", "alpha": [2.0, 2.0],
                            "reference_temperature": 0.1}
    else:
        raw[key[0]][key[1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert any(".".join(key) in e and "finite" in e for e in err.value.errors)


def _box_linear(bounds, alpha, sampler):
    return minimal_raw(domain={"kind": "box", "bounds": bounds},
                       objective={"kind": "linear-potential", "alpha": alpha,
                                  "reference_temperature": 0.1},
                       sampler={"kind": sampler, "eta": 1e-2, "lambda": 0.1,
                                "steps": 10, "particles": 100})


def test_domain_rejects_the_other_kinds_key():
    # the box takes its dimension from its bounds, the simplex has no bounds:
    # a key of the other kind is an error naming it, never silently dropped
    raw = _box_linear([[0.1, 1.0]] * 3, [2.0, 2.0, 2.0], "mmfld")
    raw["domain"]["dim"] = 7
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.errors == ["'domain.dim' does not apply to the box domain: "
                                "'domain.bounds' sets its dimension"]
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_raw(domain={"kind": "simplex", "dim": 3,
                                         "bounds": [[0.0, 1.0]] * 3}))
    assert err.value.errors == ["'domain.bounds' does not apply to the simplex domain"]


def test_mfld_rejected_where_objective_needs_positive_coordinates():
    barrier = figure1_config(beta=1e-4, sampler="mfld")
    dirichlet = dirichlet_config()
    dirichlet["sampler"]["kind"] = "mfld"
    box = _box_linear([[0.0, 1.0], [0.0, 1.0]], [2.0, 2.0], "mfld")
    for raw in (barrier, dirichlet, box):
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert any("sampler.kind" in e for e in err.value.errors)
    # without a barrier the unconstrained sampler stays available
    assert parse_config(figure1_config(beta=0.0, sampler="mfld")).sampler.kind == "mfld"
    flat = dirichlet_config(alpha=(1.0, 1.0, 1.0))
    flat["sampler"]["kind"] = "mfld"
    assert parse_config(flat).sampler.kind == "mfld"
    flat = parse_config(_box_linear([[-1.0, 1.0]], [1.0], "mfld"))
    assert flat.sampler.kind == "mfld"


def test_linear_potential_box_must_not_reach_below_zero():
    # mmfld and projected-mfld stay inside the box, which must not reach
    # below 0 where alpha_c != 1
    for sampler in ("mmfld", "projected-mfld"):
        with pytest.raises(ConfigError) as err:
            parse_config(_box_linear([[0.0, 1.0], [-1.0, 1.0], [-2.0, 0.5]],
                                     [2.0, 0.5, 1.0], sampler))
        assert err.value.errors == ["'domain.bounds' reach below 0 at coordinates [1], "
                                    "where 'objective.alpha' != 1 needs strictly "
                                    "positive coordinates"]
        # a switched-off coordinate may be negative; a bound at 0 is fine
        cfg = parse_config(_box_linear([[0.0, 1.0], [-1.0, 1.0]], [2.0, 1.0], sampler))
        assert cfg.domain.bounds == ((0.0, 1.0), (-1.0, 1.0))


def test_oracle_margin_must_clear_every_centroid():
    # build_grid needs margin < 1/(3 R); at R = 4000 the default 1e-4 does not
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_raw(oracle={"resolution": 4000}))
    assert err.value.errors == ["'oracle.margin' must be < 1/(3 * 'oracle.resolution') "
                                "= 8.33333e-05 (got 0.0001)"]
    assert parse_config(minimal_raw(oracle={"resolution": 3000})).oracle.margin == 1e-4
    ok = parse_config(minimal_raw(oracle={"resolution": 4000, "margin": 8e-5}))
    assert ok.oracle.resolution == 4000


def test_range_error_names_key():
    raw = minimal_raw()
    raw["sampler"]["eta"] = -1
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert any("sampler.eta" in e for e in err.value.errors)


def test_sampler_kind_and_seed_range_messages():
    raw = minimal_raw()
    raw["sampler"]["kind"] = "langevin"
    raw["seed"] = 1 << 64
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert ("'sampler.kind' must be mmfld, projected-mfld or mfld (got 'langevin')"
            in err.value.errors)
    assert any(e.startswith("'seed' must be <= ") for e in err.value.errors)
    raw = minimal_raw()
    raw["seed"] = (1 << 64) - 1
    assert parse_config(raw).seed == (1 << 64) - 1


def test_every_bad_sampler_key_is_one_config_error():
    raw = minimal_raw()
    raw["sampler"] = {"kind": "langevin", "eta": -1, "lambda": "hot", "substeps": 0,
                      "steps": 1.5, "particles": 0}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert len(err.value.errors) == 6
    for key in ("kind", "eta", "lambda", "substeps", "steps", "particles"):
        assert any(f"'sampler.{key}'" in e for e in err.value.errors), key


def test_unknown_key_suggestion():
    raw = minimal_raw()
    raw["sampler"]["lamda"] = 0.1
    del raw["sampler"]["lambda"]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    joined = " | ".join(err.value.errors)
    assert "lamda" in joined and "'lambda'" in joined


def test_all_errors_reported_not_just_first():
    raw = minimal_raw()
    raw["sampler"]["eta"] = -1
    raw["sampler"]["steps"] = -5
    raw["objective"]["q"] = [0.5, 0.3]  # wrong length for dim 3
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert len(err.value.errors) >= 3


def test_q_must_be_interior_simplex_point():
    raw = minimal_raw()
    raw["objective"]["q"] = [0.9, 0.3, 0.2]
    with pytest.raises(ConfigError):
        parse_config(json.dumps(raw))


def test_network_requires_box():
    raw = minimal_raw()
    raw["objective"] = {"kind": "mf-network-risk", "dataset": "d.csv"}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert any("box" in e for e in err.value.errors)


def test_bool_not_accepted_as_number():
    raw = minimal_raw()
    raw["sampler"]["eta"] = True
    with pytest.raises(ConfigError):
        parse_config(json.dumps(raw))


def test_unknown_top_level_key():
    raw = minimal_raw()
    raw["smapler"] = {}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(raw))
    assert any("smapler" in e and "sampler" in e for e in err.value.errors)


def test_builders(tmp_path, rng):
    cfg = parse_config(json.dumps(minimal_raw()))
    mm = build_mirror_map(cfg)
    assert mm.kind == "simplex-entropy" and mm.ambient_dim == 3
    obj = build_objective(cfg)
    assert obj.kind == "mean-match-barrier"

    data = tmp_path / "net.csv"
    rows = rng.normal(size=(5, 3))
    data.write_text("\n".join(",".join(repr(float(v)) for v in r) for r in rows))
    raw = {
        "domain": {"kind": "box", "bounds": [[-3, 3]] * 3},
        "objective": {"kind": "mf-network-risk", "dataset": str(data)},
        "sampler": {"kind": "mmfld", "eta": 0.05, "lambda": 0.05,
                    "steps": 5, "particles": 10},
    }
    cfg = parse_config(json.dumps(raw))
    assert build_mirror_map(cfg).kind == "box-log-barrier"
    assert build_objective(cfg).n_examples == 5


def test_network_box_must_be_the_parameter_bound_box(tmp_path):
    raw = {
        "domain": {"kind": "box", "bounds": [[-3, 3], [-0.5, 0.5], [-3, 3]]},
        "objective": {"kind": "mf-network-risk", "dataset": "d.csv",
                      "parameter_bound": 0.5},
        "sampler": {"kind": "mmfld", "eta": 0.05, "lambda": 0.05,
                    "steps": 5, "particles": 10},
        "output": {"dir": str(tmp_path)},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.errors == ["'domain.bounds' must be [-0.5, 0.5] at every coordinate, "
                                "the box that 'objective.parameter_bound' = 0.5 sets "
                                "(coordinates [0, 2] differ)"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    raw["domain"]["bounds"] = [[-0.5, 0.5]] * 3
    assert parse_config(raw).domain.bounds == ((-0.5, 0.5),) * 3


def test_network_bounds_must_match_feature_count(tmp_path):
    data = tmp_path / "net.csv"
    data.write_text("0.1,0.2,0.3,1.0\n0.2,0.1,0.0,0.5\n")
    raw = {
        "domain": {"kind": "box", "bounds": [[-3, 3]] * 3},  # needs 4
        "objective": {"kind": "mf-network-risk", "dataset": str(data)},
        "sampler": {"kind": "mmfld", "eta": 0.05, "lambda": 0.05,
                    "steps": 5, "particles": 10},
    }
    with pytest.raises(ConfigError):
        build_objective(parse_config(json.dumps(raw)))


def test_non_finite_dataset_is_a_config_error(tmp_path):
    data = tmp_path / "net.csv"
    data.write_text("0.1,0.2,1.0\n0.2,nan,0.5\n")
    raw = {
        "domain": {"kind": "box", "bounds": [[-3, 3]] * 3},
        "objective": {"kind": "mf-network-risk", "dataset": str(data)},
        "sampler": {"kind": "mmfld", "eta": 0.05, "lambda": 0.05,
                    "steps": 5, "particles": 10},
    }
    cfg = parse_config(json.dumps(raw))
    with pytest.raises(ConfigError) as err:
        build_objective(cfg)
    assert str(data) in str(err.value) and "row 2, column 2" in str(err.value)


# -- presets ------------------------------------------------------------------

def test_figure1_paper_scale_matches_experiment_settings():
    cfg = parse_config(json.dumps(figure1_config(beta=0.0, particles=PAPER_PARTICLES)))
    assert cfg.sampler.particles == 50_000
    assert cfg.sampler.eta == pytest.approx(3e-3)
    assert cfg.sampler.temperature == pytest.approx(0.1)
    assert cfg.objective.q == FIGURE1_TARGET
    barrier = parse_config(json.dumps(figure1_config(beta=1e-4, particles=PAPER_PARTICLES)))
    assert barrier.objective.beta == pytest.approx(1e-4)


def test_figure1_desk_scale_default():
    cfg = parse_config(json.dumps(figure1_config(beta=0.0)))
    assert cfg.sampler.particles == 10_000
    assert cfg.sampler.steps == 2000


def test_dirichlet_preset():
    cfg = parse_config(json.dumps(dirichlet_config()))
    assert cfg.objective.kind == "linear-potential"
    assert cfg.objective.alpha == (2.0, 2.0, 2.0)
    assert cfg.sampler.eta == pytest.approx(1e-3)
    assert cfg.sampler.particles == 50_000


def test_preset_lookup():
    assert preset_config("figure1-barrier")["objective"]["beta"] == 1e-4
    assert preset_config("figure1-beta0-projected")["sampler"]["kind"] == "projected-mfld"
    with pytest.raises(ConfigError):
        preset_config("nope")
