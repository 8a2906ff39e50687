"""Shared builders for small test instances.

Everything here is sized for speed: coarse grids, short horizons, few
noise modes.  The defaults are deliberately *not* the canonical config
so that unit tests stay cheap; acceptance checks run at canonical scale
through the verify suites instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fracmv.coefficients import (
    CoefficientSet,
    DriftF,
    DriftG,
    NoiseSigma,
    PsiField,
    TimeProfile,
)
from fracmv.dynamics import TimeGrid, _collect, _step_nodes
from fracmv.grid import GridFunction, SpatialGrid
from fracmv.measure import MeasureFlow, wasserstein2


def build_grid(dim: int = 1, half_width: float = 4.0, points: int = 32) -> SpatialGrid:
    return SpatialGrid(dim=dim, half_width=half_width, points_per_dim=points)


def build_u0(grid: SpatialGrid, amp: float = 1.0, width: float = 1.0) -> GridFunction:
    return GridFunction(grid, amp * np.exp(-(grid.radius() ** 2) / width**2))


def build_coeffs(
    grid: SpatialGrid,
    n_modes: int = 2,
    alpha: float = 0.6,
    lambda_f: float = 1.0,
    phi_amp: float = 0.5,
    c2: float = 0.4,
    sigma_amp: float = 0.3,
    beta_amp: float = 0.2,
    gamma_amp: float = 0.2,
    kappa_amp: float = 0.4,
) -> CoefficientSet:
    """Small analogue of the canonical coefficient family.

    The noise shapes are radial bumps modulated by cosines of
    increasing frequency with 1/k decaying amplitudes, so the modes
    are genuinely distinct fields.
    """
    L = grid.half_width
    r = grid.radius()
    x1 = grid.coordinates()[0]
    f = DriftF(p=4, lambda_f=lambda_f, h_cap=1.0, phi=PsiField("gaussian", phi_amp, 1.0))
    g = DriftG(c0=0.3, c1=0.5, c2=c2, psi=PsiField("gaussian", 0.5, 2.0))
    shapes = tuple(
        GridFunction(
            grid,
            sigma_amp / k * np.exp(-(r**2) / 1.5**2) * np.cos((k - 1) * np.pi * x1 / L),
        )
        for k in range(1, n_modes + 1)
    )
    kappa = GridFunction(grid, kappa_amp * np.exp(-(r**2) / 2.0**2))
    ks = np.arange(1, n_modes + 1, dtype=float)
    sigma = NoiseSigma(
        shapes=shapes,
        kappa=kappa,
        beta=beta_amp / ks,
        gamma=gamma_amp / ks,
        profile=TimeProfile(),
    )
    return CoefficientSet(f=f, g=g, sigma=sigma, alpha=alpha)


def build_tgrid(horizon: float = 0.25, steps: int = 40) -> TimeGrid:
    return TimeGrid(horizon=horizon, steps=steps)


def run_kernel(grid, coeffs, starts, tg, law, theta=None) -> np.ndarray:
    """The paths of the step kernel, collected, shape ``(S+1, N, *grid.shape)``."""
    return _collect(_step_nodes(grid, coeffs, starts, tg, law, theta), tg.steps + 1)


def random_field(grid: SpatialGrid, rng: np.random.Generator, scale: float = 1.0) -> GridFunction:
    return GridFunction(grid, scale * rng.standard_normal(grid.shape))


def full_sweep_sup(mu: MeasureFlow, nu: MeasureFlow, lam: float) -> float:
    """Oracle for the flow metric: solve every node, then take the weighted max."""
    curve = np.array([wasserstein2(mu.measure(s), nu.measure(s)) for s in range(mu.n_times)])
    return float(np.max(np.exp(-float(lam) * mu.times) * curve, initial=0.0))


_PRELUDE = (
    "import sys\n"
    "def scipy_modules():\n"
    "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
)


def run_fresh(script: str, *args) -> dict:
    """Run ``script`` in a new interpreter that imports ``fracmv`` from this
    checkout, and return the JSON object it prints on its last line.

    ``script`` may call ``scipy_modules()``: the scipy modules loaded so far.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _PRELUDE + script,
                           *map(str, args)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
