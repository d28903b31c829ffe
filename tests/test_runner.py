"""Experiment driver: files, schema, determinism, comparison."""
import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormfld.config import dirichlet_config, figure1_config, parse_config
from mirrormfld.errors import MismatchedObjectiveError
from mirrormfld.geometry import SimplexEntropyMap
from mirrormfld.runner import (
    boundary_fraction,
    compare_runs,
    load_summary,
    metrics_header,
    run_experiment,
)


def small_config(tmp_path, **over):
    raw = figure1_config(beta=0.0, particles=64, steps=6, out_dir=str(tmp_path))
    for key, val in over.items():
        section, _, name = key.partition(".")
        if name:
            raw[section][name] = val
        else:
            raw[section] = val
    return parse_config(json.dumps(raw))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- boundary fraction ---------------------------------------------------------

def test_boundary_fraction_interior_cloud(simplex3):
    pts = np.tile([1 / 3, 1 / 3, 1 / 3], (10, 1))
    assert boundary_fraction(pts, simplex3, 1e-3) == 0.0


def test_boundary_fraction_counts_vertex(simplex3):
    pts = np.array([[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    assert boundary_fraction(pts, simplex3, 1e-3) == 0.5


def test_boundary_fraction_uniform_margin_area(simplex3):
    # P(min coordinate < eps) for the uniform law is 6 eps - O(eps^2)
    rng = np.random.default_rng(3)
    pts = rng.dirichlet((1.0, 1.0, 1.0), size=1_000_000)
    frac = boundary_fraction(pts, simplex3, 1e-3)
    expect = 6e-3
    assert abs(frac - expect) <= 0.2 * expect


def test_boundary_fraction_box():
    from mirrormfld.geometry import BoxLogBarrierMap
    box = BoxLogBarrierMap(bounds=((0.0, 1.0), (0.0, 2.0)))
    pts = np.array([[0.5, 1.0], [0.0005, 1.0], [0.9999, 0.5]])
    assert boundary_fraction(pts, box, 1e-3) == pytest.approx(2 / 3)


@pytest.mark.parametrize("kind", ["simplex", "box"])
def test_boundary_fraction_column_minimum_matches_reduction(kind, simplex3):
    # the running column minimum equals np.min along the last axis bit for
    # bit, NaN rows included, on rows near a face or on and near a wall; the
    # box's gaps taken column by column equal the broadcast gaps reduced
    from mirrormfld.geometry import BoxLogBarrierMap
    from mirrormfld.runner import _row_min
    rng = np.random.default_rng(11)
    if kind == "simplex":
        mm = simplex3
        pts = rng.dirichlet((0.05, 0.05, 0.05), size=4000)
    else:
        mm = BoxLogBarrierMap(bounds=((-3.0, 3.0), (0.0, 1.0), (-1.0, 2.0)))
        pts = mm.lower + rng.beta(0.05, 0.05, size=(4000, 3)) * (mm.upper - mm.lower)
        pts[:40] = np.where(rng.random((40, 3)) < 0.5, mm.lower, mm.upper)
    pts[7, 1] = np.nan
    pts[60] = np.nan
    gaps = pts if kind == "simplex" else np.minimum(pts - mm.lower, mm.upper - pts)
    reduced = np.min(gaps, axis=-1)
    assert 0.0 < np.mean(reduced < 1e-3) < 1.0
    assert np.array_equal(_row_min(gaps), reduced, equal_nan=True)
    if kind == "box":
        walls = _row_min(pts, (mm.lower, mm.upper))
        assert np.array_equal(walls.view(np.uint64), reduced.view(np.uint64))
    assert boundary_fraction(pts, mm, 1e-3) == float(np.mean(reduced < 1e-3))


_signed_floats = st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
                           st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0),
                           st.integers(-300, 299))


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 16, 50]), n=st.integers(1, 50_000),
       seed=st.integers(0, 2 ** 32 - 1), spread=st.integers(0, 300),
       pinned=st.lists(_signed_floats, max_size=8))
def test_column_mean_equals_numpy_mean(d, n, seed, spread, pinned):
    # the tick's column mean against np.mean(a, axis=0) as uint64 words:
    # signed values spanning 10^-spread to 10^spread, with a few hand-drawn
    # ones, whose sums depend on the order they are taken in
    from mirrormfld.runner import _column_mean
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-spread, spread + 1, (n, d))
    cells = gen.integers(0, a.size, len(pinned))
    a.flat[cells] = pinned
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.mean(a, axis=0)
        got = _column_mean(a)
    assert got.shape == (d,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# -- run_experiment --------------------------------------------------------------

def test_run_writes_expected_files(tmp_path):
    res = run_experiment(small_config(tmp_path))
    assert res.metrics_path.exists()
    assert res.summary_path.exists()
    assert res.particles_path is None
    summary = load_summary(res.summary_path)
    assert summary["iterations"] == 6
    assert summary["config"]["sampler"]["particles"] == 64
    assert summary["final_objective"] == pytest.approx(res.metrics[-1].objective_value)


@pytest.mark.parametrize("workers", [0, -4])
def test_run_experiment_rejects_workers_below_one(tmp_path, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_experiment(small_config(tmp_path), workers=workers)
    assert not any(tmp_path.iterdir())


def test_load_summary_names_file_and_missing_key(tmp_path):
    res = run_experiment(small_config(tmp_path))
    summary = json.loads(res.summary_path.read_text())
    for payload, key in (({"a": 1}, "sampler"), ([1, 2], "sampler"), (7, "sampler"),
                         ({**summary, "config": {}}, "config.objective")):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="missing key") as err:
            load_summary(path)
        assert str(path) in str(err.value) and repr(key) in str(err.value)
    summary.pop("final_boundary_fraction")
    path.write_text(json.dumps(summary))
    with pytest.raises(ValueError, match="'final_boundary_fraction'"):
        load_summary(path)


def test_metrics_csv_schema(tmp_path):
    res = run_experiment(small_config(tmp_path))
    rows = read_rows(res.metrics_path)
    assert rows[0] == metrics_header(3)
    assert rows[0] == ["iteration", "objective", "boundary_fraction",
                       "mean_0", "mean_1", "mean_2",
                       "coord_min", "coord_max", "wall_ms"]
    assert len(rows) == 1 + 7  # header + iterations 0..6
    assert [r[0] for r in rows[1:]] == [str(k) for k in range(7)]


def test_metrics_golden_file(tmp_path):
    # pinned-schema golden: columns exact, values reproduced within 1e-12
    res = run_experiment(small_config(tmp_path, seed=7))
    got = read_rows(res.metrics_path)
    golden = read_rows("tests/data/golden_metrics.csv")
    assert got[0] == golden[0]
    assert len(got) == len(golden)
    for grow, row in zip(golden[1:], got[1:]):
        assert row[0] == grow[0]
        for g, v in zip(grow[1:-1], row[1:-1]):  # wall_ms excluded
            assert float(v) == pytest.approx(float(g), abs=1e-12)


# sha256 of the metrics CSV minus its wall_ms column, seed 0.  The golden file
# covers d = 3 within 1e-12; these pin every byte at d = 50 (alpha = 0.5
# drives particles into the near-face redraw), on the network-risk box, and
# for the Euclidean samplers: figure-1 with the barrier, d = 10 with alpha =
# 0.5 (the projection lands on faces and the nudge runs), and the box.
# Bit-exactness is promised per platform and build, like the golden file.
PINNED_DIGESTS = {
    "simplex-d50": "202853d5990d1e0f2c9aec53324c4434066da8335f30e4fb5397e559d303822e",
    "simplex-d50-faces": "eb97da5f2bed8df4bbf56b72ea8003c81fa52c453377fd9c3b5fc538e22dce9c",
    "netrisk-box": "ebf6ff510a0acee9e7b7dbf888fec5dfce10e940be7d37d890e9f62b0a353a9c",
    "figure1-barrier-projected": "afdfca1cef555eacb595cfb0a3757e3c86254f3bbbcbf0bf6d03dae9d5ebac34",
    "simplex-d10-faces-projected": "fe491ee23385df5b417ff6a25c84ac33c1cd8870fdaf08822622ed837d853908",
    "netrisk-box-projected": "4e31f62860462dfe99668cf897851796b2e0374e0d226d089ed1456449c6ee7b",
    "netrisk-box-mfld": "3c1276495d2ddae561237dd73862d118c48183240b45be6a5c3aeba89031f30a",
}


def _pinned_config(name, tmp_path):
    if name.startswith("figure1"):
        return figure1_config(beta=1e-4, sampler="projected-mfld", particles=500,
                              steps=40, seed=0, out_dir=str(tmp_path))
    if name.startswith("simplex"):
        d = 10 if "-d10-" in name else 50
        alpha = 0.5 if "faces" in name else 2.0
        raw = dirichlet_config(alpha=(alpha,) * d, particles=500, steps=40, seed=0,
                               out_dir=str(tmp_path))
        raw["diagnostics"]["every"] = 5
        if name.endswith("projected"):
            raw["sampler"]["kind"] = "projected-mfld"
        return raw
    # criterion 8's problem: a tanh network on two rings of 8 points
    theta = np.arange(8) * np.pi / 4
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    data = tmp_path / "two_rings.csv"
    data.write_text("z0,z1,y\n" + "".join(f"{float(a)!r},{float(b)!r},0.0\n"
                                          for a, b in np.concatenate([0.7 * ring, 1.4 * ring])))
    kind = {"netrisk-box-projected": "projected-mfld",
            "netrisk-box-mfld": "mfld"}.get(name, "mmfld")
    return {"domain": {"kind": "box", "bounds": [[-3.0, 3.0]] * 3},
            "objective": {"kind": "mf-network-risk", "dataset": str(data),
                          "parameter_bound": 3.0},
            "sampler": {"kind": kind, "eta": 0.1, "lambda": 0.1, "substeps": 1,
                        "steps": 100, "particles": 500},
            "seed": 0, "output": {"dir": str(tmp_path), "dump_particles": False},
            "diagnostics": {"every": 1, "boundary_epsilon": 1e-3}}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_metrics_csv_pinned_bytes(tmp_path, name):
    res = run_experiment(parse_config(json.dumps(_pinned_config(name, tmp_path))))
    text = res.metrics_path.read_text(encoding="utf-8")
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    assert hashlib.sha256(stripped.encode()).hexdigest() == PINNED_DIGESTS[name]


def test_dump_particles(tmp_path):
    res = run_experiment(small_config(tmp_path, **{"output.dump_particles": True}))
    rows = read_rows(res.particles_path)
    assert rows[0] == ["x_0", "x_1", "x_2"]
    assert len(rows) == 1 + 64
    pts = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("sampler", ["mmfld", "projected-mfld"])
def test_final_outputs_come_from_carried_state(tmp_path, sampler):
    res = run_experiment(small_config(tmp_path, **{"output.dump_particles": True,
                                                   "sampler.kind": sampler}))
    rows = read_rows(res.particles_path)
    pts = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.array_equal(pts, res.ensemble.points)
    assert res.summary["variance"] == np.var(res.ensemble.points, axis=0).tolist()


def test_identical_runs_byte_identical_excluding_wall_clock(tmp_path):
    a = run_experiment(small_config(tmp_path / "a", seed=5))
    b = run_experiment(small_config(tmp_path / "b", seed=5))

    def stripped(path):
        return [row[:-1] for row in read_rows(path)]

    assert stripped(a.metrics_path) == stripped(b.metrics_path)
    sa, sb = a.summary, b.summary
    for volatile in ("runtime_s",):
        sa = {k: v for k, v in sa.items() if k != volatile}
        sb = {k: v for k, v in sb.items() if k != volatile}
    sa["config"]["output"].pop("dir"), sb["config"]["output"].pop("dir")
    assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)


def test_worker_count_does_not_change_metrics(tmp_path):
    a = run_experiment(small_config(tmp_path / "w1", seed=3), workers=1)
    b = run_experiment(small_config(tmp_path / "w8", seed=3), workers=8)
    rows_a = [row[:-1] for row in read_rows(a.metrics_path)]
    rows_b = [row[:-1] for row in read_rows(b.metrics_path)]
    assert rows_a == rows_b


def test_projected_run_and_compare(tmp_path):
    mm = run_experiment(small_config(tmp_path, seed=1))
    pr = run_experiment(small_config(tmp_path, seed=1, **{"sampler.kind":
                                                          "projected-mfld"}))
    report = compare_runs(mm.summary, pr.summary)
    assert {r["label"] for r in report["runs"]} == {"mmfld_seed1",
                                                    "projected-mfld_seed1"}
    assert report["winner_final_objective"] in ("mmfld_seed1", "projected-mfld_seed1")
    identical = compare_runs(mm.summary, mm.summary)
    assert identical["runs"][1]["objective_delta"] == 0.0


def test_compare_rejects_mismatched_objectives(tmp_path):
    a = run_experiment(small_config(tmp_path / "x"))
    raw = figure1_config(beta=1e-4, particles=64, steps=3,
                         out_dir=str(tmp_path / "y"))
    b = run_experiment(parse_config(json.dumps(raw)))
    with pytest.raises(MismatchedObjectiveError):
        compare_runs(a.summary, b.summary)
