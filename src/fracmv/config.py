"""Run configuration: one YAML file describing a whole experiment.

Loading builds every component once.  This module checks key names,
YAML types and the few rules no component owns (noise shape and
envelope, initial state, seed, output and verify settings); every other
rule lives in the component that uses the value, and ``_at`` adds the
key path to its message.  The normalized document (defaults filled in,
key order fixed) is hashed so that output manifests pin down exactly
what produced them.

The noise family is generated from compact rules rather than listing
fields: mode ``k`` (1-based) gets the shape
``amp * k^(-decay) * exp(-|x|^2/width^2) * cos((k-1) pi x_1 / L)`` and
scalar weights ``beta_k = amp_b * k^(-decay_b)`` (same for gamma),
unless explicit per-mode lists are given.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .coefficients import CoefficientSet, DriftF, DriftG, NoiseSigma, PsiField, TimeProfile
from .dynamics import TimeGrid, _check_epsilon, stable_seed_key
from .errors import ValidationError
from .grid import GridFunction, SpatialGrid
from .mckean_vlasov import MeanFieldProblem, PicardConfig
from .rate_function import RateProblem

__all__ = ["RunConfig", "load_config", "canonical_dict"]


def canonical_dict() -> dict:
    """The canonical experiment, also shipped as ``configs/canonical.yaml``."""
    return {
        "seed": 20260814,
        "workers": 1,
        "grid": {"dim": 1, "half_width": 8.0, "points_per_dim": 128},
        "time": {"horizon": 0.5, "steps": 200},
        "model": {"alpha": 0.6, "c_v": 1.0, "epsilon": 0.01},
        "drift_f": {
            "p": 4,
            "lambda_f": 1.0,
            "h_cap": 1.0,
            "phi": {"kind": "gaussian", "amp": 0.5, "width": 1.0},
        },
        "drift_g": {
            "c0": 0.3,
            "c1": 0.5,
            "c2": 0.4,
            "psi": {"kind": "gaussian", "amp": 0.5, "width": 2.0},
        },
        "noise": {
            "n_modes": 4,
            "shape": {"amp": 0.3, "width": 1.5, "decay": 1.0},
            "profile": {"offset": 1.0, "amp": 0.0, "freq": 1.0, "phase": 0.0},
            "kappa": {"amp": 0.4, "width": 2.0},
            "beta": {"amp": 0.2, "decay": 1.0},
            "gamma": {"amp": 0.2, "decay": 1.0},
        },
        "initial": {"kind": "gaussian", "amp": 1.0, "width": 1.0, "jitter": 0.0},
        "picard": {
            "n_particles": 64,
            "tol": 1.0e-6,
            "max_iters": 20,
            "lambda_weight": "auto",
        },
        "rate": {
            "eta": 1.0e-6,
            "max_iters": 100,
            "gap_tol": 1.0e-3,
        },
        "output": {"trajectory_format": "blob"},
        "verify": {
            "tail_delta": 1.0e-6,
            "domain_margin_delta": 1.0e-2,
            "strong_dissipativity": True,
        },
    }


# keys whose rule-mapping default may be replaced by an explicit list
_LIST_OK = {"noise.beta", "noise.gamma"}


def _merge_defaults(raw: dict, defaults: dict, path: str) -> dict:
    """Overlay ``raw`` on ``defaults``, rejecting unknown keys."""
    out = copy.deepcopy(defaults)
    for key, val in raw.items():
        if key not in defaults:
            raise ValidationError(f"config: unknown key {path}{key}")
        if isinstance(defaults[key], dict):
            if isinstance(val, list) and f"{path}{key}" in _LIST_OK:
                out[key] = val
            elif not isinstance(val, dict):
                raise ValidationError(f"config: {path}{key} must be a mapping")
            else:
                out[key] = _merge_defaults(val, defaults[key], f"{path}{key}.")
        else:
            out[key] = val
    return out


@contextmanager
def _at(block: str):
    """Prefix a component's ``ValidationError`` with its key path.

    Component messages start with the bare field name, so ``p must be
    ...`` raised under ``_at("drift_f")`` reads ``config: drift_f.p must
    be ...``.  Messages this module wrote already carry their path.
    """
    try:
        yield
    except ValidationError as exc:
        if str(exc).startswith("config: "):
            raise
        raise type(exc)(f"config: {block}.{exc}") from None


def _get(cfg: dict, path: str):
    node = cfg
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def _num(cfg: dict, path: str, lo=None, strict_lo=False) -> float:
    node = _get(cfg, path)
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"config: {path} must be a number, got {node!r}")
    v = float(node)
    if not np.isfinite(v):
        raise ValidationError(f"config: {path} must be finite, got {node!r}")
    if lo is not None and (v <= lo if strict_lo else v < lo):
        op = ">" if strict_lo else ">="
        raise ValidationError(f"config: {path} must be {op} {lo}, got {node!r}")
    return v


def _numbers(cfg: dict, path: str) -> list[float]:
    node = _get(cfg, path)
    if not isinstance(node, list):
        raise ValidationError(f"config: {path} must be a list of numbers, got {node!r}")
    return [_num(cfg, f"{path}.{j}") for j in range(len(node))]


def _int(cfg: dict, path: str, lo=None, hi=None) -> int:
    node = _get(cfg, path)
    if isinstance(node, bool) or not isinstance(node, int):
        raise ValidationError(f"config: {path} must be an integer, got {node!r}")
    if lo is not None and node < lo:
        raise ValidationError(f"config: {path} must be >= {lo}, got {node!r}")
    if hi is not None and node > hi:
        raise ValidationError(f"config: {path} must be <= {hi}, got {node!r}")
    return int(node)


def _choice(cfg: dict, path: str, allowed: tuple) -> str:
    node = _get(cfg, path)
    if node not in allowed:
        raise ValidationError(
            f"config: {path} must be one of {allowed}, got {node!r}"
        )
    return node


def _mode_weights(cfg: dict, block: str, n_modes: int) -> np.ndarray:
    node = cfg["noise"][block]
    if isinstance(node, list):
        return np.asarray(_numbers(cfg, f"noise.{block}"))
    if not isinstance(node, dict):
        raise ValidationError(
            f"config: noise.{block} must be a rule mapping or a list of {n_modes} numbers"
        )
    amp = _num(cfg, f"noise.{block}.amp")
    decay = _num(cfg, f"noise.{block}.decay", lo=0.0)
    ks = np.arange(1, n_modes + 1, dtype=float)
    return amp * ks ** (-decay)


def _psi_field(cfg: dict, path: str) -> PsiField:
    with _at(path):
        kind = _get(cfg, f"{path}.kind")
        return PsiField(kind, _num(cfg, f"{path}.amp"), _num(cfg, f"{path}.width"))


def _initial_values(grid: SpatialGrid, kind: str, amp: float, width: float) -> np.ndarray:
    r = grid.radius()
    if kind == "gaussian":
        return amp * np.exp(-(r**2) / width**2)
    # compactly supported bump, value amp at the origin, zero for r >= width
    vals = np.zeros(grid.shape)
    inside = r < width
    rr = r[inside]
    vals[inside] = amp * np.exp(-(rr**2) / (width**2 - rr**2))
    return vals


@dataclass
class RunConfig:
    """Validated configuration with every component already constructed."""

    raw: dict = field(default_factory=dict)
    grid: SpatialGrid = field(init=False)
    tgrid: TimeGrid = field(init=False)
    coeffs: CoefficientSet = field(init=False)
    u0: GridFunction = field(init=False)
    epsilon: float = field(init=False)
    _picard: PicardConfig = field(init=False, repr=False)
    _rate: RateProblem = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.raw, dict):
            raise ValidationError("config: top level must be a mapping")
        cfg = _merge_defaults(self.raw, canonical_dict(), "")
        self.raw = cfg

        with _at("grid"):
            self.grid = SpatialGrid(
                dim=_int(cfg, "grid.dim"),
                half_width=_num(cfg, "grid.half_width"),
                points_per_dim=_int(cfg, "grid.points_per_dim"),
            )
        L = self.grid.half_width
        with _at("time"):
            self.tgrid = TimeGrid(horizon=_num(cfg, "time.horizon"), steps=_int(cfg, "time.steps"))

        with _at("drift_f"):
            f = DriftF(
                p=_int(cfg, "drift_f.p"),
                lambda_f=_num(cfg, "drift_f.lambda_f"),
                h_cap=_num(cfg, "drift_f.h_cap"),
                phi=_psi_field(cfg, "drift_f.phi"),
            )
        with _at("drift_g"):
            g = DriftG(
                c0=_num(cfg, "drift_g.c0"),
                c1=_num(cfg, "drift_g.c1"),
                c2=_num(cfg, "drift_g.c2"),
                psi=_psi_field(cfg, "drift_g.psi"),
            )

        K = _int(cfg, "noise.n_modes")
        s_amp = _num(cfg, "noise.shape.amp", lo=0.0)
        s_width = _num(cfg, "noise.shape.width", lo=0.0, strict_lo=True)
        s_decay = _num(cfg, "noise.shape.decay", lo=0.0)
        r = self.grid.radius()
        x1 = self.grid.coordinates()[0]
        envelope = np.exp(-(r**2) / s_width**2)
        shapes = tuple(
            GridFunction(
                self.grid,
                s_amp * k ** (-s_decay) * envelope * np.cos((k - 1) * np.pi * x1 / L),
            )
            for k in range(1, K + 1)
        )
        k_amp = _num(cfg, "noise.kappa.amp", lo=0.0)
        k_width = _num(cfg, "noise.kappa.width", lo=0.0, strict_lo=True)
        kappa = GridFunction(self.grid, k_amp * np.exp(-(r**2) / k_width**2))
        profile = TimeProfile(
            offset=_num(cfg, "noise.profile.offset"),
            amp=_num(cfg, "noise.profile.amp"),
            freq=_num(cfg, "noise.profile.freq"),
            phase=_num(cfg, "noise.profile.phase"),
        )
        with _at("noise"):
            sigma = NoiseSigma(
                shapes=shapes,
                kappa=kappa,
                beta=_mode_weights(cfg, "beta", K),
                gamma=_mode_weights(cfg, "gamma", K),
                profile=profile,
            )
        with _at("model"):
            self.coeffs = CoefficientSet(
                f=f, g=g, sigma=sigma, alpha=_num(cfg, "model.alpha"), c_v=_num(cfg, "model.c_v")
            )
            self.epsilon = _check_epsilon(_num(cfg, "model.epsilon"))

        kind = _choice(cfg, "initial.kind", ("gaussian", "bump"))
        i_amp = _num(cfg, "initial.amp")
        i_width = _num(cfg, "initial.width", lo=0.0, strict_lo=True)
        _num(cfg, "initial.jitter", lo=0.0)
        if kind == "bump" and i_width >= L:
            raise ValidationError(
                f"config: initial.width must be below grid.half_width for a bump, got {i_width}"
            )
        self.u0 = GridFunction(self.grid, _initial_values(self.grid, kind, i_amp, i_width))

        _int(cfg, "seed", lo=0, hi=2**64 - 1)
        # retired keys, read by nothing; kept so old configs and hashes stay valid
        _int(cfg, "workers", lo=1)
        _int(cfg, "picard.max_iters", lo=1)
        if cfg["picard"]["lambda_weight"] != "auto":
            _num(cfg, "picard.lambda_weight", lo=0.0)
        with _at("picard"):
            self._picard = PicardConfig(
                n_particles=_int(cfg, "picard.n_particles"), tol=_num(cfg, "picard.tol")
            )
        with _at("rate"):
            # a settings template; rate_problem() supplies the target
            self._rate = RateProblem(
                None,
                eta=_num(cfg, "rate.eta"),
                max_iters=_int(cfg, "rate.max_iters"),
                gap_tol=_num(cfg, "rate.gap_tol"),
            )
        _choice(cfg, "output.trajectory_format", ("blob", "csv"))
        _num(cfg, "verify.tail_delta", lo=0.0, strict_lo=True)
        _num(cfg, "verify.domain_margin_delta", lo=0.0, strict_lo=True)
        if not isinstance(cfg["verify"]["strong_dissipativity"], bool):
            raise ValidationError(
                "config: verify.strong_dissipativity must be true or false"
            )

    # -- derived accessors -------------------------------------------

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def output_format(self) -> str:
        return self.raw["output"]["trajectory_format"]

    def picard_config(self) -> PicardConfig:
        return self._picard

    def rate_problem(self, target) -> RateProblem:
        return replace(self._rate, target=target)

    def initial_ensemble(self, n_particles: int) -> np.ndarray | None:
        """Per-particle initial states when jitter is on, else None."""
        blk = self.raw["initial"]
        jitter = float(blk["jitter"])
        if jitter == 0.0:
            return None
        rng = np.random.Generator(
            np.random.Philox(key=stable_seed_key(self.seed, "init", 0))
        )
        xi = rng.standard_normal(n_particles)
        amps = float(blk["amp"]) * (1.0 + jitter * xi)
        return np.stack(
            [
                _initial_values(self.grid, blk["kind"], a, float(blk["width"]))
                for a in amps
            ]
        )

    def problem(self) -> MeanFieldProblem:
        return MeanFieldProblem(
            grid=self.grid,
            tgrid=self.tgrid,
            coeffs=self.coeffs,
            u0=self.u0,
            epsilon=self.epsilon,
            master_seed=self.seed,
            initial_states=self.initial_ensemble(self._picard.n_particles),
        )

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def with_overrides(self, **sections) -> "RunConfig":
        """New config with whole or partial sections replaced.

        ``sections`` maps top-level keys to replacement mappings (merged
        one level deep) or scalars.
        """
        raw = copy.deepcopy(self.raw)
        for key, val in sections.items():
            if isinstance(val, dict) and isinstance(raw.get(key), dict):
                raw[key] = {**raw[key], **val}
            else:
                raw[key] = val
        return RunConfig(raw)


class _Loader(yaml.SafeLoader):
    """``SafeLoader`` that also reads YAML 1.2 floats such as ``1e-6``."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path: str | Path | None) -> RunConfig:
    """Read a YAML config; ``None`` gives the canonical experiment."""
    if path is None:
        return RunConfig(canonical_dict())
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config: file not found: {p}")
    with open(p) as fh:
        try:
            doc = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ValidationError(f"config: {p} is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    return RunConfig(doc)
