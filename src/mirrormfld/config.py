"""Run configuration: schema, validation, presets.

Configs are JSON (a file path or inline text) or an already-loaded mapping.
Validation is strict -- unknown keys are rejected with a suggestion, every
error is reported (not just the first), every number must be finite -- and
the parsed config converts back to the identical canonical dictionary
(``RunConfig.to_dict``), which ``runner`` echoes into run summaries for
provenance.

Schema (defaults in brackets)::

    {
      "domain":      {"kind": "simplex", "dim": 3}
                   | {"kind": "box", "bounds": [[a, b], ...]},
      "objective":   {"kind": "mean-match-barrier", "q": [...], "beta": 0.0}
                   | {"kind": "linear-potential", "alpha": [...],
                      "reference_temperature": ...}
                   | {"kind": "mf-network-risk", "dataset": "path.csv",
                      "parameter_bound": 3.0},
      "sampler":     {"kind": "mmfld" | "projected-mfld" | "mfld",
                      "eta": ..., "lambda": ..., "substeps": [1],
                      "steps": ..., "particles": ...},
      "seed":        [0],
      "output":      {"dir": ["out"], "dump_particles": [false]},
      "diagnostics": {"every": [1], "boundary_epsilon": [1e-3]},
      "oracle":      {"resolution": [64], "margin": [1e-4], "damping": [0.5],
                      "tol": [1e-8], "max_iter": [10000]}
    }

The network dataset CSV holds feature columns followed by one label column;
its parameters live in the box [-parameter_bound, parameter_bound]^(p+1),
which every ``domain.bounds`` pair must equal.  The ``sampler`` section
parses to ``dynamics.SamplerConfig``, ``lambda`` to its ``temperature``;
``particles`` is the ensemble size that ``runner.run_experiment`` draws.

``PRESETS`` build raw dictionaries of the paper's experiments at desk
scale.  The paper's scale is one override, ``PAPER_PARTICLES``, which the
CLI's ``--paper-scale`` applies after any preset or file is loaded.
"""
from __future__ import annotations

import difflib
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import rngstream
from .dynamics import SAMPLERS, SamplerConfig
from .errors import ConfigError
from .geometry import BoxLogBarrierMap, SimplexEntropyMap
from .objectives import LinearPotential, MeanMatchBarrier, NetworkRisk, load_dataset


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    dim: int | None = None
    bounds: tuple | None = None


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str
    q: tuple | None = None
    beta: float | None = None
    alpha: tuple | None = None
    reference_temperature: float | None = None
    dataset: str | None = None
    parameter_bound: float | None = None


@dataclass(frozen=True)
class OracleSpec:
    resolution: int = 64
    margin: float = 1e-4
    damping: float = 0.5
    tol: float = 1e-8
    max_iter: int = 10_000


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    objective: ObjectiveSpec
    sampler: SamplerConfig
    seed: int
    out_dir: str
    dump_particles: bool
    every: int
    boundary_epsilon: float
    oracle: OracleSpec

    def to_dict(self) -> dict:
        """Canonical dictionary form; ``parse_config(cfg.to_dict()) == cfg``."""
        obj = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in asdict(self.objective).items() if v is not None}
        domain = {"kind": self.domain.kind}
        if self.domain.dim is not None:
            domain["dim"] = self.domain.dim
        if self.domain.bounds is not None:
            domain["bounds"] = [list(b) for b in self.domain.bounds]
        return {
            "domain": domain,
            "objective": obj,
            "sampler": {("lambda" if k == "temperature" else k): v
                        for k, v in asdict(self.sampler).items()},
            "seed": self.seed,
            "output": {"dir": self.out_dir, "dump_particles": self.dump_particles},
            "diagnostics": {"every": self.every, "boundary_epsilon": self.boundary_epsilon},
            "oracle": asdict(self.oracle),
        }


class _Checker:
    """Collects every validation problem instead of stopping at the first."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, msg):
        self.errors.append(msg)

    def section(self, raw, where, known):
        if not isinstance(raw, Mapping):
            self.fail(f"{where}: expected an object")
            return {}
        for key in raw:
            if key not in known:
                hint = difflib.get_close_matches(key, known, n=1)
                suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
                self.fail(f"unknown key '{where}.{key}'{suffix}" if where else
                          f"unknown key '{key}'{suffix}")
        return raw

    def value(self, raw, where, key, kind, *, required=False, default=None,
              minimum=None, exclusive_minimum=None, maximum=None):
        name = f"{where}.{key}" if where else key
        if key not in raw:
            if required:
                self.fail(f"missing required key '{name}'")
            return default
        v = raw[key]
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if kind in (int, float) and isinstance(v, bool):
            self.fail(f"'{name}' must be a {kind.__name__}, got a bool")
            return default
        if not isinstance(v, kind):
            self.fail(f"'{name}' must be a {kind.__name__}, got {type(v).__name__}")
            return default
        if kind is float and not math.isfinite(v):
            self.fail(f"'{name}' must be finite (got {v})")
            return default
        if minimum is not None and v < minimum:
            self.fail(f"'{name}' must be >= {minimum} (got {v})")
            return default
        if exclusive_minimum is not None and v <= exclusive_minimum:
            self.fail(f"'{name}' must be > {exclusive_minimum} (got {v})")
            return default
        if maximum is not None and v > maximum:
            self.fail(f"'{name}' must be <= {maximum} (got {v})")
            return default
        return v

    def vector(self, raw, where, key, *, required=False, positive=False):
        name = f"{where}.{key}"
        if key not in raw:
            if required:
                self.fail(f"missing required key '{name}'")
            return None
        v = raw[key]
        if (not isinstance(v, list) or not v
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
            self.fail(f"'{name}' must be a nonempty list of numbers")
            return None
        if not all(math.isfinite(x) for x in v):
            self.fail(f"'{name}' entries must be finite")
            return None
        if positive and any(x <= 0 for x in v):
            self.fail(f"'{name}' entries must be positive")
            return None
        return tuple(float(x) for x in v)


TOP_KEYS = ("domain", "objective", "sampler", "seed", "output", "diagnostics", "oracle")


def _parse_domain(chk, raw):
    raw = chk.section(raw, "domain", ("kind", "dim", "bounds"))
    kind = chk.value(raw, "domain", "kind", str, required=True)
    if kind == "simplex":
        dim = chk.value(raw, "domain", "dim", int, required=True, minimum=2)
        if "bounds" in raw:
            chk.fail("'domain.bounds' does not apply to the simplex domain")
        return DomainSpec(kind="simplex", dim=dim)
    if kind == "box":
        if "dim" in raw:
            chk.fail("'domain.dim' does not apply to the box domain: 'domain.bounds' "
                     "sets its dimension")
        bounds = raw.get("bounds")
        ok = (isinstance(bounds, list) and bounds
              and all(isinstance(b, list) and len(b) == 2
                      and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                              and math.isfinite(x) for x in b)
                      and b[0] < b[1] for b in bounds))
        if not ok:
            chk.fail("'domain.bounds' must be a nonempty list of finite [a, b] pairs "
                     "with a < b")
            return DomainSpec(kind="box")
        return DomainSpec(kind="box", bounds=tuple((float(a), float(b)) for a, b in bounds))
    if kind is not None:
        chk.fail(f"'domain.kind' must be 'simplex' or 'box' (got {kind!r})")
    return DomainSpec(kind="simplex", dim=3)


def _parse_objective(chk, raw):
    kinds = ("mean-match-barrier", "linear-potential", "mf-network-risk")
    keys_by_kind = {
        "mean-match-barrier": ("kind", "q", "beta"),
        "linear-potential": ("kind", "alpha", "reference_temperature"),
        "mf-network-risk": ("kind", "dataset", "parameter_bound"),
    }
    kind = raw.get("kind") if isinstance(raw, Mapping) else None
    if kind not in kinds:
        chk.fail(f"'objective.kind' must be one of {kinds} (got {kind!r})")
        chk.section(raw, "objective", ("kind",) + sum(keys_by_kind.values(), ()))
        return ObjectiveSpec(kind="mean-match-barrier")
    raw = chk.section(raw, "objective", keys_by_kind[kind])
    if kind == "mean-match-barrier":
        q = chk.vector(raw, "objective", "q", required=True, positive=True)
        if q is not None and abs(sum(q) - 1.0) > 1e-9:
            chk.fail(f"'objective.q' must sum to 1 (got {sum(q)!r})")
            q = None
        beta = chk.value(raw, "objective", "beta", float, default=0.0, minimum=0.0)
        return ObjectiveSpec(kind=kind, q=q, beta=beta)
    if kind == "linear-potential":
        alpha = chk.vector(raw, "objective", "alpha", required=True, positive=True)
        ref = chk.value(raw, "objective", "reference_temperature", float,
                        required=True, exclusive_minimum=0.0)
        return ObjectiveSpec(kind=kind, alpha=alpha, reference_temperature=ref)
    dataset = chk.value(raw, "objective", "dataset", str, required=True)
    bound = chk.value(raw, "objective", "parameter_bound", float, default=3.0,
                      exclusive_minimum=0.0)
    return ObjectiveSpec(kind=kind, dataset=dataset, parameter_bound=bound)


def _parse_sampler(chk, raw):
    raw = chk.section(raw, "sampler",
                      ("kind", "eta", "lambda", "substeps", "steps", "particles"))
    kind = chk.value(raw, "sampler", "kind", str, default="mmfld")
    if kind not in SAMPLERS:
        chk.fail(f"'sampler.kind' must be {', '.join(SAMPLERS[:-1])} or {SAMPLERS[-1]} "
                 f"(got {kind!r})")
        kind = "mmfld"
    eta = chk.value(raw, "sampler", "eta", float, required=True, exclusive_minimum=0.0)
    lam = chk.value(raw, "sampler", "lambda", float, required=True, minimum=0.0)
    substeps = chk.value(raw, "sampler", "substeps", int, default=1, minimum=1)
    steps = chk.value(raw, "sampler", "steps", int, required=True, minimum=0)
    particles = chk.value(raw, "sampler", "particles", int, required=True, minimum=1)
    parsed = {"kind": kind, "eta": eta, "temperature": lam, "substeps": substeps,
              "steps": steps, "particles": particles}
    # a value reported above is None; the dataclass default stands in for it
    return SamplerConfig(**{k: v for k, v in parsed.items() if v is not None})


def _cross_checks(chk, domain, objective, sampler):
    if objective.kind == "mean-match-barrier":
        if domain.kind != "simplex":
            chk.fail("mean-match-barrier requires the simplex domain")
        elif objective.q is not None and domain.dim != len(objective.q):
            chk.fail(f"'objective.q' length {len(objective.q)} != domain.dim {domain.dim}")
    if objective.kind == "linear-potential" and objective.alpha is not None:
        expect = domain.dim if domain.kind == "simplex" else (
            len(domain.bounds) if domain.bounds else None)
        if expect is not None and len(objective.alpha) != expect:
            chk.fail(f"'objective.alpha' length {len(objective.alpha)} "
                     f"!= domain ambient dimension {expect}")
        elif negative := [c for c, (a, (lo, _)) in
                          enumerate(zip(objective.alpha, domain.bounds or ()))
                          if a != 1.0 and lo < 0.0]:
            chk.fail(f"'domain.bounds' reach below 0 at coordinates {negative}, where "
                     "'objective.alpha' != 1 needs strictly positive coordinates")
    if objective.kind == "mf-network-risk" and domain.kind != "box":
        chk.fail("mf-network-risk requires a box domain over the network parameters")
    elif (b := objective.parameter_bound) and (
            off := [c for c, pair in enumerate(domain.bounds or ()) if pair != (-b, b)]):
        chk.fail(f"'domain.bounds' must be [-{b}, {b}] at every coordinate, the box that "
                 f"'objective.parameter_bound' = {b} sets (coordinates {off} differ)")
    if sampler.kind == "mfld" and (
            (objective.kind == "mean-match-barrier" and (objective.beta or 0.0) > 0)
            or any(a != 1.0 for a in objective.alpha or ())):
        chk.fail(f"'sampler.kind' mfld leaves the {domain.kind}, where {objective.kind} "
                 "needs strictly positive coordinates; use mmfld or projected-mfld")


def parse_config(source) -> RunConfig:
    """Parse and validate a config given as a mapping, a file path or inline JSON text.

    Raises ``ConfigError`` whose ``errors`` list names every offending key
    with the expected type or range.
    """
    if isinstance(source, Mapping):
        raw = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            path = Path(text)
            if not path.exists():
                raise ConfigError([f"config file not found: {path}"])
            text = path.read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, Mapping):
        raise ConfigError(["config must be a JSON object"])

    chk = _Checker()
    chk.section(raw, "", TOP_KEYS)
    for key in ("domain", "objective", "sampler"):
        if key not in raw:
            chk.fail(f"missing required section '{key}'")
    domain = _parse_domain(chk, raw.get("domain", {}))
    objective = _parse_objective(chk, raw.get("objective", {}))
    sampler = _parse_sampler(chk, raw.get("sampler", {}))
    _cross_checks(chk, domain, objective, sampler)

    seed = chk.value(raw, "", "seed", int, default=0, minimum=0, maximum=rngstream.MAX_SEED)
    out = chk.section(raw.get("output", {}), "output", ("dir", "dump_particles"))
    out_dir = chk.value(out, "output", "dir", str, default="out")
    dump = chk.value(out, "output", "dump_particles", bool, default=False)
    diag = chk.section(raw.get("diagnostics", {}), "diagnostics",
                       ("every", "boundary_epsilon"))
    every = chk.value(diag, "diagnostics", "every", int, default=1, minimum=1)
    eps = chk.value(diag, "diagnostics", "boundary_epsilon", float, default=1e-3,
                    exclusive_minimum=0.0)
    limits = {"resolution": {"minimum": 8}, "margin": {"exclusive_minimum": 0.0},
              "damping": {"exclusive_minimum": 0.0, "maximum": 1.0},
              "tol": {"exclusive_minimum": 0.0}, "max_iter": {"minimum": 1}}
    orc = chk.section(raw.get("oracle", {}), "oracle", tuple(limits))
    # the defaults, and with them each value's type, are OracleSpec's
    oracle = OracleSpec(**{f.name: chk.value(orc, "oracle", f.name, type(f.default),
                                             default=f.default, **limits[f.name])
                           for f in fields(OracleSpec)})
    if not oracle.margin < 1.0 / (3.0 * oracle.resolution):
        chk.fail(f"'oracle.margin' must be < 1/(3 * 'oracle.resolution') = "
                 f"{1.0 / (3.0 * oracle.resolution):.6g} (got {oracle.margin})")

    if chk.errors:
        raise ConfigError(chk.errors)
    return RunConfig(domain=domain, objective=objective, sampler=sampler, seed=seed,
                     out_dir=out_dir, dump_particles=dump, every=every,
                     boundary_epsilon=eps, oracle=oracle)


def build_mirror_map(config: RunConfig):
    if config.domain.kind == "simplex":
        return SimplexEntropyMap(ambient_dim=config.domain.dim)
    return BoxLogBarrierMap(bounds=config.domain.bounds)


def build_objective(config: RunConfig):
    spec = config.objective
    if spec.kind == "mean-match-barrier":
        return MeanMatchBarrier(target=spec.q, beta=spec.beta)
    if spec.kind == "linear-potential":
        return LinearPotential(alpha=spec.alpha,
                               reference_temperature=spec.reference_temperature)
    try:
        features, labels = load_dataset(spec.dataset)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    expected = features.shape[1] + 1
    if config.domain.bounds is None or len(config.domain.bounds) != expected:
        raise ConfigError([
            f"network dataset has {features.shape[1]} features; domain.bounds must "
            f"list {expected} parameter intervals"])
    return NetworkRisk(features=features, labels=labels)


# ---------------------------------------------------------------------------
# presets

FIGURE1_TARGET = (0.5, 0.3, 0.2)
DESK_PARTICLES = 10_000
PAPER_PARTICLES = 50_000


def figure1_config(beta: float = 0.0, *, sampler: str = "mmfld", seed: int = 0,
                   particles: int = DESK_PARTICLES, steps: int = 2000,
                   out_dir: str = "out") -> dict:
    """Simplex mean-matching experiment preset (raw config dictionary).

    Desk scale runs 10k particles; the paper's full scale is
    ``particles=PAPER_PARTICLES`` (50k), which ``mirrormfld run
    --paper-scale`` sets on any preset or config file.
    """
    return {
        "domain": {"kind": "simplex", "dim": 3},
        "objective": {"kind": "mean-match-barrier", "q": list(FIGURE1_TARGET),
                      "beta": beta},
        "sampler": {"kind": sampler, "eta": 3e-3, "lambda": 0.1, "substeps": 1,
                    "steps": steps, "particles": particles},
        "seed": seed,
        "output": {"dir": out_dir, "dump_particles": False},
        "diagnostics": {"every": 1, "boundary_epsilon": 1e-3},
    }


def dirichlet_config(*, alpha=(2.0, 2.0, 2.0), steps: int = 5000,
                     particles: int = 50_000, seed: int = 0, out_dir: str = "out") -> dict:
    """Linear potential whose stationary law is Dirichlet(alpha): lambda
    equals the potential's reference temperature."""
    return {
        "domain": {"kind": "simplex", "dim": len(alpha)},
        "objective": {"kind": "linear-potential", "alpha": list(alpha),
                      "reference_temperature": 0.1},
        "sampler": {"kind": "mmfld", "eta": 1e-3, "lambda": 0.1,
                    "substeps": 1, "steps": steps, "particles": particles},
        "seed": seed,
        "output": {"dir": out_dir, "dump_particles": False},
        "diagnostics": {"every": 50, "boundary_epsilon": 1e-3},
    }


PRESETS = {
    "figure1-beta0": lambda **kw: figure1_config(beta=0.0, **kw),
    "figure1-beta0-projected": lambda **kw: figure1_config(
        beta=0.0, sampler="projected-mfld", **kw),
    "figure1-barrier": lambda **kw: figure1_config(beta=1e-4, **kw),
    "figure1-barrier-projected": lambda **kw: figure1_config(
        beta=1e-4, sampler="projected-mfld", **kw),
    "dirichlet": lambda **kw: dirichlet_config(**kw),
}


def preset_config(name: str, **overrides) -> dict:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; available: {sorted(PRESETS)}"])
    return PRESETS[name](**overrides)
