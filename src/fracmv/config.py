"""Run configuration: one YAML file describing a whole experiment.

Loading builds every component once.  Types are checked once, where
``_merge_defaults`` overlays the file on the canonical defaults: an
unknown key is refused, and each leaf must have its default's type (a
finite number for a float, so an integer too large for a float is
refused by name).  Each range is checked once: ``_rule`` checks the few
that no component owns (noise shape and envelope, the weight rules'
decay, initial state, seed, retired keys, output and verify settings),
and every other lives in the component that takes the block, with
``_at`` adding the key path to its message.  The normalized document
(defaults filled in, key order fixed) is hashed so that output manifests
pin down exactly what produced them.

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
import math
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


# keys whose rule-mapping default may be replaced by an explicit list of numbers
_LIST_OK = {"noise.beta", "noise.gamma"}


def _is_number(val) -> bool:
    """A finite int or float, not a bool; an int too large for a float is not one."""
    try:
        return not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)
    except OverflowError:
        return False


def _check_leaf(val, default, key: str) -> None:
    """Refuse ``val`` at ``key`` unless it has the type of its canonical
    ``default``: a bool for a bool, an integer (not a bool) for an integer, a
    finite number for a float, a string for a string.  The retired
    ``picard.lambda_weight`` takes ``auto`` or a finite number."""
    if key == "picard.lambda_weight":
        ok, kind = val == "auto" or _is_number(val), "auto or a finite number"
    elif isinstance(default, bool):
        ok, kind = isinstance(val, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = isinstance(val, int) and not isinstance(val, bool), "an integer"
    elif isinstance(default, float):
        ok, kind = _is_number(val), "a finite number"
    else:
        ok, kind = isinstance(val, str), "a string"
    if not ok:
        raise ValidationError(f"config: {key} must be {kind}, got {val!r}")


def _merge_defaults(raw: dict, defaults: dict, path: str) -> dict:
    """Overlay ``raw`` on ``defaults``, rejecting unknown keys and checking
    each leaf's type against its default (``_check_leaf``)."""
    out = copy.deepcopy(defaults)
    for key, val in raw.items():
        where = f"{path}{key}"
        if key not in defaults:
            raise ValidationError(f"config: unknown key {where}")
        if isinstance(val, list) and where in _LIST_OK:
            for j, entry in enumerate(val):
                _check_leaf(entry, 0.0, f"{where}.{j}")
        elif isinstance(defaults[key], dict):
            if not isinstance(val, dict):
                raise ValidationError(f"config: {where} must be a mapping")
            val = _merge_defaults(val, defaults[key], f"{where}.")
        else:
            _check_leaf(val, defaults[key], where)
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


_POSITIVE = (lambda v: v > 0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
# a width enters squared, and the square must be a float
_WIDTH = (lambda v: v > 0 and float(v) * float(v) < math.inf, "> 0, with a finite square")


def _rule(cfg: dict, key: str, ok, rule: str):
    """The value at the dotted ``key``, refused unless ``ok(value)``: a rule
    that no component owns, which the message states as ``must be {rule}``."""
    val = cfg
    for part in key.split("."):
        val = val[part]
    if not ok(val):
        raise ValidationError(f"config: {key} must be {rule}, got {val!r}")
    return val


def _mode_weights(cfg: dict, block: str, n_modes: int):
    node = cfg["noise"][block]
    if isinstance(node, list):
        return node
    decay = _rule(cfg, f"noise.{block}.decay", *_NON_NEGATIVE)
    return node["amp"] * np.arange(1, n_modes + 1, dtype=float) ** (-decay)


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
            self.grid = SpatialGrid(**cfg["grid"])
        L = self.grid.half_width
        with _at("time"):
            self.tgrid = TimeGrid(**cfg["time"])

        with _at("drift_f.phi"):
            phi = PsiField(**cfg["drift_f"]["phi"])
        with _at("drift_f"):
            f = DriftF(**{**cfg["drift_f"], "phi": phi})
        with _at("drift_g.psi"):
            psi = PsiField(**cfg["drift_g"]["psi"])
        with _at("drift_g"):
            g = DriftG(**{**cfg["drift_g"], "psi": psi})

        noise = cfg["noise"]
        K = noise["n_modes"]
        s_amp = _rule(cfg, "noise.shape.amp", *_NON_NEGATIVE)
        s_width = _rule(cfg, "noise.shape.width", *_WIDTH)
        s_decay = _rule(cfg, "noise.shape.decay", *_NON_NEGATIVE)
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
        k_amp = _rule(cfg, "noise.kappa.amp", *_NON_NEGATIVE)
        k_width = _rule(cfg, "noise.kappa.width", *_WIDTH)
        kappa = GridFunction(self.grid, k_amp * np.exp(-(r**2) / k_width**2))
        with _at("noise"):
            sigma = NoiseSigma(shapes, kappa, _mode_weights(cfg, "beta", K),
                               _mode_weights(cfg, "gamma", K), TimeProfile(**noise["profile"]))
        model = cfg["model"]
        with _at("model"):
            self.coeffs = CoefficientSet(f, g, sigma, model["alpha"], model["c_v"])
            self.epsilon = _check_epsilon(model["epsilon"])

        kind = _rule(cfg, "initial.kind", lambda v: v in ("gaussian", "bump"), "gaussian or bump")
        i_width = _rule(cfg, "initial.width",
                        lambda v: _WIDTH[0](v) and (kind == "gaussian" or v < L),
                        f"{_WIDTH[1]}, and below grid.half_width for a bump")
        _rule(cfg, "initial.jitter", *_NON_NEGATIVE)
        u0 = _initial_values(self.grid, kind, cfg["initial"]["amp"], i_width)
        self.u0 = GridFunction(self.grid, u0)

        _rule(cfg, "seed", lambda v: 0 <= v <= 2**64 - 1, "in [0, 2**64 - 1]")
        # retired keys, read by nothing; kept so old configs and hashes stay valid
        _rule(cfg, "workers", lambda v: v >= 1, ">= 1")
        _rule(cfg, "picard.max_iters", lambda v: v >= 1, ">= 1")
        _rule(cfg, "picard.lambda_weight", lambda v: v == "auto" or v >= 0, "auto or >= 0")
        with _at("picard"):
            self._picard = PicardConfig(cfg["picard"]["n_particles"], cfg["picard"]["tol"])
        with _at("rate"):
            # a settings template; rate_problem() supplies the target
            self._rate = RateProblem(None, **cfg["rate"])
        # the key's one value: trajectories are blob files, csv directories are retired
        _rule(cfg, "output.trajectory_format", lambda v: v == "blob", "blob")
        _rule(cfg, "verify.tail_delta", *_POSITIVE)
        _rule(cfg, "verify.domain_margin_delta", *_POSITIVE)

    # -- derived accessors -------------------------------------------

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

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
    try:
        with open(p, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {p}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"config: {p} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config: {p} is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    return RunConfig(doc)
