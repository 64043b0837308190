"""Run configuration: JSON schema, validation, canonical hashing.

Configs are plain JSON objects. Parsing is strict: unknown keys and
missing required fields raise ConfigError with the offending field name,
and the resolved config (defaults filled in, observation times expanded)
is what gets echoed into every output file together with its hash.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

from . import models, oracles, psi
from .errors import ConfigError
from .proposal import MODE_TILTED, PROPOSALS, supports_tilted
from .smc import RESAMPLING_SCHEMES, FilterConfig, check_observation_times


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass(frozen=True)
class BenchConfig:
    x_a: float
    x_b: float
    a: float
    b: float
    inner_points_grid: tuple[int, ...]
    replications: int
    modes: tuple[str, ...]
    kappa_cap: int = psi.PsiConfig.rqmc_kappa_cap
    randomization: str = psi.PsiConfig.randomization


@dataclass(frozen=True)
class RunConfig:
    model_name: str
    model_params: dict
    x0: float
    observation_times: tuple[float, ...]
    noise_sd: float
    seed: int
    n_particles: int = 256
    psi_cfg: psi.PsiConfig = field(default_factory=psi.PsiConfig)
    proposal: str = FilterConfig.proposal
    resampling: str = FilterConfig.resampling
    ess_threshold: float = FilterConfig.ess_threshold
    euler_steps_per_unit: int = 2000
    store_fine_path: bool = False
    bench: BenchConfig | None = None
    oracle: dict | None = None

    def build_model(self) -> models.DriftModel:
        try:
            return models.builtin(self.model_name, **self.model_params)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from None

    def resolved(self) -> dict:
        """Normalized config dict embedded in outputs and hashed."""
        out = {
            "model": {"name": self.model_name, **self.model_params},
            "x0": self.x0,
            "observation_times": list(self.observation_times),
            "noise_sd": self.noise_sd,
            "seed": self.seed,
            "particles": self.n_particles,
            "psi": {
                "mode": self.psi_cfg.mode,
                "inner_points": self.psi_cfg.inner_points,
                "kappa_cap": self.psi_cfg.rqmc_kappa_cap,
                "randomization": self.psi_cfg.randomization,
            },
            "proposal": self.proposal,
            "resampling": {"scheme": self.resampling,
                           "ess_threshold": self.ess_threshold},
            "euler_steps_per_unit": self.euler_steps_per_unit,
            "store_fine_path": self.store_fine_path,
        }
        if self.bench is not None:
            out["bench"] = {
                "x_a": self.bench.x_a, "x_b": self.bench.x_b,
                "a": self.bench.a, "b": self.bench.b,
                "inner_points_grid": list(self.bench.inner_points_grid),
                "replications": self.bench.replications,
                "modes": list(self.bench.modes),
                "kappa_cap": self.bench.kappa_cap,
                "randomization": self.bench.randomization,
            }
        if self.oracle is not None:
            out["oracle"] = self.oracle
        return out

    def config_hash(self) -> str:
        return content_hash(self.resolved())

    def dataset_hash(self) -> str:
        """Hash of the generation-relevant fields; binds datasets to configs."""
        return content_hash({
            "model": {"name": self.model_name, **self.model_params},
            "x0": self.x0,
            "observation_times": list(self.observation_times),
            "noise_sd": self.noise_sd,
            "seed": self.seed,
            "euler_steps_per_unit": self.euler_steps_per_unit,
        })


def _finite(val, name: str) -> float | None:
    """``val`` as a finite float, None when it is no number; JSON's NaN and
    Infinity and integers past the float range are errors."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return None
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{name}: expected a finite number, got {out!r}")
    return out


def _take(raw: dict, key: str, kind, required=False, default=None, where=""):
    name = where + key
    if key not in raw:
        if required:
            raise ConfigError(f"{name}: required field is missing")
        return default
    val = raw.pop(key)
    if kind is float and (num := _finite(val, name)) is not None:
        return num
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if kind is float or not isinstance(val, kind):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _obs_times(raw: dict) -> tuple[float, ...]:
    given = raw.pop("observation_times", None)
    if given is None:
        raise ConfigError("observation_times: required field is missing")
    if isinstance(given, list):
        times = [_finite(t, f"observation_times[{i}]") for i, t in enumerate(given)]
        if None in times:
            raise ConfigError(f"observation_times[{times.index(None)}]: expected a number")
    elif isinstance(given, dict):
        unknown = sorted(set(given) - {"count", "spacing"})
        if unknown:
            raise ConfigError(f"observation_times: unknown fields {unknown}")
        count, spacing = given.get("count"), given.get("spacing")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError("observation_times.count: expected positive integer")
        if (_finite(spacing, "observation_times.spacing") or 0.0) <= 0:
            raise ConfigError("observation_times.spacing: expected positive number")
        times = [spacing * (k + 1) for k in range(count)]
        _finite(times[-1], f"observation_times[{count - 1}]")
    else:
        raise ConfigError("observation_times: expected a list or {count, spacing}")
    try:
        check_observation_times(times)
    except ValueError as exc:
        raise ConfigError(f"observation_times: {exc}") from None
    return tuple(times)


def _canon_mode(mode: str) -> str:
    # bare "rqmc" selects the default point-set layout
    return psi.MODE_RQMC_TIMES_VALUES if mode == "rqmc" else mode


def _psi_config(raw: dict) -> psi.PsiConfig:
    sub = raw.pop("psi", {})
    if not isinstance(sub, dict):
        raise ConfigError("psi: expected an object")
    sub = dict(sub)
    d = psi.PsiConfig  # its field defaults are the config defaults
    kwargs = {
        "mode": _canon_mode(_take(sub, "mode", str, default=d.mode)),
        "inner_points": _take(sub, "inner_points", int, default=d.inner_points),
        "rqmc_kappa_cap": _take(sub, "kappa_cap", int, default=d.rqmc_kappa_cap),
        "randomization": _take(sub, "randomization", str, default=d.randomization),
    }
    if sub:
        raise ConfigError(f"psi: unknown fields {sorted(sub)}")
    try:
        return psi.PsiConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"psi: {exc}") from None


def _bench_config(raw: dict) -> BenchConfig | None:
    sub = raw.pop("bench", None)
    if sub is None:
        return None
    if not isinstance(sub, dict):
        raise ConfigError("bench: expected an object")
    sub = dict(sub)
    grid = _take(sub, "inner_points_grid", list, required=True)
    if not grid or any(not isinstance(m, int) or isinstance(m, bool) or m < 1
                       for m in grid):
        raise ConfigError("bench.inner_points_grid: expected positive integers")
    modes = _take(sub, "modes", list, default=["mc", "rqmc-times-values"])
    if not all(isinstance(m, str) for m in modes):
        raise ConfigError(f"bench.modes: expected mode names, got {modes}")
    modes = [_canon_mode(m) for m in modes]
    if len(set(modes)) != len(modes):
        raise ConfigError(f"bench.modes: duplicate entries in {modes} "
                          "(\"rqmc\" is rqmc-times-values)")
    cfg = BenchConfig(
        x_a=_take(sub, "x_a", float, required=True),
        x_b=_take(sub, "x_b", float, required=True),
        a=_take(sub, "a", float, required=True),
        b=_take(sub, "b", float, required=True),
        inner_points_grid=tuple(grid),
        replications=_take(sub, "replications", int, required=True),
        modes=tuple(modes),
        kappa_cap=_take(sub, "kappa_cap", int, default=BenchConfig.kappa_cap),
        randomization=_take(sub, "randomization", str, default=BenchConfig.randomization),
    )
    if sub:
        raise ConfigError(f"bench: unknown fields {sorted(sub)}")
    if cfg.b <= cfg.a:
        raise ConfigError("bench: need b > a")
    if cfg.replications < 2:
        raise ConfigError("bench.replications: need at least 2")
    for mode in cfg.modes:  # the rule every run_bench estimate is held to
        for m in cfg.inner_points_grid:
            try:
                psi.PsiConfig(mode=mode, inner_points=m, rqmc_kappa_cap=cfg.kappa_cap,
                              randomization=cfg.randomization)
            except ValueError as exc:
                raise ConfigError(f"bench: {exc}") from None
    return cfg


# oracle kind -> {field: (type, default)}; a default of None marks a required field
_ORACLES = {
    "psi-bruteforce": {"x_a": (float, None), "x_b": (float, None), "a": (float, None),
                       "b": (float, None), "n_steps": (int, 2000), "n_paths": (int, 100_000)},
    "kalman": {"dataset": (str, None)},
    "grid-filter": {"dataset": (str, None), "grid": (dict, None)},
    "transition-histogram": {"x_a": (float, None), "t": (float, None), "grid": (dict, None),
                             "n_steps": (int, 2000), "n_paths": (int, 100_000)},
}


def oracle_settings(section: dict) -> dict:
    """The oracle section's fields, typed and with defaults filled in, and
    its grid as a GridSpec; ConfigError names the offending field."""
    sub = dict(section)
    kind = _take(sub, "kind", str, required=True, where="oracle.")
    if kind not in _ORACLES:
        raise ConfigError(f"oracle.kind: must be one of {' | '.join(_ORACLES)}")
    out = {"kind": kind}
    for key, (typ, default) in _ORACLES[kind].items():
        out[key] = _take(sub, key, typ, required=default is None, default=default,
                         where="oracle.")
    if sub:
        raise ConfigError(f"oracle: unknown fields {sorted(sub)}")
    if "grid" in out:
        grid = dict(out["grid"])
        spec = [_take(grid, key, typ, required=True, where="oracle.grid.")
                for key, typ in (("lo", float), ("hi", float), ("n_cells", int))]
        if grid:
            raise ConfigError(f"oracle.grid: unknown fields {sorted(grid)}")
        try:
            out["grid"] = oracles.GridSpec(*spec)
        except ValueError as exc:
            raise ConfigError(f"oracle.grid: {exc}") from None
    return out


def parse_config(raw: dict) -> RunConfig:
    """Validate a JSON config object; raises ConfigError with field names."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    raw = dict(raw)
    d = RunConfig  # its field defaults are the config defaults

    model_spec = _take(raw, "model", dict, required=True)
    model_spec = dict(model_spec)
    name = model_spec.pop("name", None)
    if not isinstance(name, str):
        raise ConfigError("model.name: required string")
    for key, val in model_spec.items():
        if _finite(val, f"model.{key}") is None:
            raise ConfigError(f"model.{key}: expected a number")

    seed = _take(raw, "seed", int, required=True)

    resampling = raw.pop("resampling", {})
    if not isinstance(resampling, dict):
        raise ConfigError("resampling: expected an object")
    resampling = dict(resampling)
    scheme = _take(resampling, "scheme", str, default=d.resampling)
    ess_threshold = _take(resampling, "ess_threshold", float, default=d.ess_threshold)
    if resampling:
        raise ConfigError(f"resampling: unknown fields {sorted(resampling)}")
    if scheme not in RESAMPLING_SCHEMES:
        raise ConfigError(f"resampling.scheme: must be one of {RESAMPLING_SCHEMES}")
    if not 0.0 <= ess_threshold <= 1.0:
        raise ConfigError("resampling.ess_threshold: must be in [0, 1]")

    proposal = _take(raw, "proposal", str, default=d.proposal)
    if proposal not in PROPOSALS:
        raise ConfigError(f"proposal: must be one of {PROPOSALS}")

    n_particles = _take(raw, "particles", int, default=d.n_particles)
    if n_particles < 1:
        raise ConfigError("particles: must be >= 1")

    noise_sd = _take(raw, "noise_sd", float, required=True)
    if noise_sd < 0:
        raise ConfigError("noise_sd: must be >= 0")

    euler = _take(raw, "euler_steps_per_unit", int, default=d.euler_steps_per_unit)
    if euler < 100:
        raise ConfigError("euler_steps_per_unit: must be >= 100")

    cfg = RunConfig(
        model_name=name,
        model_params=model_spec,
        x0=_take(raw, "x0", float, required=True),
        observation_times=_obs_times(raw),
        noise_sd=noise_sd,
        seed=seed,
        n_particles=n_particles,
        psi_cfg=_psi_config(raw),
        proposal=proposal,
        resampling=scheme,
        ess_threshold=ess_threshold,
        euler_steps_per_unit=euler,
        store_fine_path=_take(raw, "store_fine_path", bool, default=False),
        bench=_bench_config(raw),
        oracle=_take(raw, "oracle", dict, default=None),
    )
    if raw:
        raise ConfigError(f"config: unknown fields {sorted(raw)}")
    if cfg.oracle is not None:
        oracle_settings(cfg.oracle)   # checked here, echoed as given

    model = cfg.build_model()  # validates name + params
    if cfg.proposal == MODE_TILTED and not supports_tilted(model):
        raise ConfigError(
            f"proposal: model {name!r} lacks a tilted sampler or normalizer; use \"gaussian\""
        )
    return cfg


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if seed_override is not None:
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        raw = {**raw, "seed": int(seed_override)}
    return parse_config(raw)
