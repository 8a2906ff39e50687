"""Periodic spatial grids, spectral fractional operators, and norms.

Fields live on a uniform grid over the periodic box ``[-L, L)^dim``
(``dim`` is 1 or 2).  The fractional Laplacian ``(-lap)^alpha`` acts as
the Fourier multiplier ``|xi|^(2*alpha)`` with discrete wavenumbers
``xi_j = pi * j / L`` for ``j = -M/2 .. M/2 - 1``, so single Fourier
modes are exact eigenfunctions up to FFT round-off.  All norms are
discrete quadratures weighted by the cell volume, standing in for their
whole-space counterparts when the field mass is concentrated well away
from the boundary.  Each norm has one implementation, over fields
stacked on leading axes ``(..., *grid.shape)``; ``l2_norm`` is the
single-field view of ``sq_norms``.

Grid functions serialize to CSV (one row per cell, coordinate columns
then the value) with a small JSON sidecar recording the grid geometry.
Trajectories and particle ensembles serialize to one blob layout, written
and checked here: a magic line, a JSON header with sorted keys, then raw
little-endian float64.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it lazily; load it here, not in the first transform

from .errors import GridMismatchError, InvalidFieldError, ValidationError

__all__ = [
    "SpatialGrid",
    "GridFunction",
    "check_fractional_order",
    "apply_fractional_laplacian",
    "sq_norms",
    "sq_seminorms",
    "sq_v_norms",
    "tail_masses",
    "l2_norm",
    "save_grid_function",
    "load_grid_function",
]


def check_fractional_order(alpha: float, *, allow_one: bool = False) -> float:
    """Validate a fractional diffusion order.

    The model restricts the order to the open interval (0, 1).  The raw
    spectral operators remain well defined at ``alpha = 1`` (the
    classical Laplacian multiplier ``xi^2``), which the oracle tests
    use, so ``allow_one=True`` widens the check to (0, 1].
    """
    a = float(alpha)
    hi_ok = a < 1.0 or (allow_one and a == 1.0)
    if not (0.0 < a and hi_ok):
        rng = "(0, 1]" if allow_one else "(0, 1)"
        raise ValidationError(f"alpha must lie in {rng}, got {alpha!r}")
    return a


def _check_count(name: str, value, least: int = 1) -> None:
    """Refuse ``value`` for the field ``name`` unless it is an integer ``>= least``;
    a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_positive(name: str, value, rule: str = "must be a finite positive number") -> None:
    """Refuse ``value`` for the field ``name``, saying it ``rule``, unless it is a finite
    positive real; a bool or a string is not one."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not 0.0 < value < math.inf):
        raise ValidationError(f"{name} {rule}, got {value!r}")


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on ``[-L, L)^dim``.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    half_width : float
        Box half width ``0 < L < inf``.
    points_per_dim : int
        Number of cells per axis ``M``; must be even so the wavenumber
        set ``{-M/2, ..., M/2 - 1}`` is symmetric apart from the
        Nyquist mode.
    """

    dim: int
    half_width: float
    points_per_dim: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        d, m = self.dim, self.points_per_dim
        if isinstance(d, bool) or not (isinstance(d, (int, np.integer)) and d in (1, 2)):
            raise ValidationError(f"dim must be the integer 1 or 2, got {d!r}")
        _check_positive("half_width", self.half_width)
        object.__setattr__(self, "half_width", float(self.half_width))
        _check_count("points_per_dim", m, 4)
        if m % 2 != 0:
            raise ValidationError(f"points_per_dim must be even, got {m}")
        # the norms weigh by the cell volume, the operators by |xi|^2 up to its largest,
        # and the tail masses by the radius, whose square is largest at a corner
        xi_max = math.pi * m / (2.0 * self.half_width)
        sizes = (math.prod([self.spacing] * d), d * xi_max * xi_max,
                 d * self.half_width * self.half_width)
        if not all(np.finfo(float).tiny <= size < math.inf for size in sizes):
            raise ValidationError(
                "half_width must be a width whose cell volume (2L/M)^dim, largest squared "
                "wavenumber dim (pi M / 2L)^2 and squared corner radius dim L^2 are finite, "
                f"positive, normal floats, got {self.half_width!r} (they are {sizes!r})"
            )

    # -- geometry ------------------------------------------------------

    def geometry(self) -> dict:
        """The fields that define the grid, as every output file records them."""
        return {"dim": self.dim, "half_width": self.half_width, "points_per_dim": self.points_per_dim}

    @classmethod
    def from_geometry(cls, meta: dict) -> "SpatialGrid":
        """Inverse of :meth:`geometry`, for a mapping read back from JSON; a ``dim`` or
        ``points_per_dim`` that is not an integer, or a ``half_width`` that is not a
        number, is refused, not converted."""
        return cls(meta["dim"], meta["half_width"], meta["points_per_dim"])

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.points_per_dim**self.dim

    @property
    def spacing(self) -> float:
        """Cell width ``dx = 2L / M`` (same along every axis)."""
        return 2.0 * self.half_width / self.points_per_dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def axis_coordinates(self) -> np.ndarray:
        """The 1-d coordinate array ``x_j = -L + j dx``."""
        key = "axis"
        if key not in self._cache:
            j = np.arange(self.points_per_dim)
            self._cache[key] = -self.half_width + j * self.spacing
        return self._cache[key]

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinate arrays, one per axis, each of ``self.shape``."""
        key = "mesh"
        if key not in self._cache:
            axes = (self.axis_coordinates,) * self.dim
            self._cache[key] = np.meshgrid(*axes, indexing="ij")
        return self._cache[key]

    def radius(self) -> np.ndarray:
        """Euclidean distance of each cell from the origin."""
        key = "radius"
        if key not in self._cache:
            coords = self.coordinates()
            self._cache[key] = np.sqrt(sum(c**2 for c in coords))
        return self._cache[key]

    # -- spectral data -------------------------------------------------

    def symbol_sq(self) -> np.ndarray:
        """``|xi|^2`` laid out like :meth:`spectrum` (half spectrum on the last axis)."""
        key = "symbol_sq"
        if key not in self._cache:
            m, dx = self.points_per_dim, self.spacing
            k_full = 2.0 * np.pi * np.fft.fftfreq(m, d=dx)
            k_half = 2.0 * np.pi * np.fft.rfftfreq(m, d=dx)
            if self.dim == 1:
                sym = k_half**2
            else:
                sym = k_full[:, None] ** 2 + k_half[None, :] ** 2
            self._cache[key] = sym
        return self._cache[key]

    def fractional_symbol(self, alpha: float) -> np.ndarray:
        """Multiplier of ``(-lap)^alpha``, i.e. ``|xi|^(2 alpha)``."""
        key = ("frac", float(alpha))
        if key not in self._cache:
            self._cache[key] = self.symbol_sq() ** float(alpha)
        return self._cache[key]

    def resolvent_multiplier(self, alpha: float, tau: float) -> np.ndarray:
        """Multiplier of ``(I + tau (-lap)^alpha)^(-1)``."""
        key = ("resolvent", float(alpha), float(tau))
        if key not in self._cache:
            self._cache[key] = 1.0 / (1.0 + float(tau) * self.fractional_symbol(alpha))
        return self._cache[key]

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """The half spectrum of each field in ``values``, laid out like :meth:`symbol_sq`:
        numpy's ``rfft`` on the last axis, then in 2-d its ``fft`` over axis -2 in place,
        which are ``rfftn``'s passes and bits without its n-d argument handling."""
        spec = np.fft.rfft(values)
        if self.dim == 2:
            np.fft.fft(spec, axis=-2, out=spec)
        return spec

    def apply_multiplier(self, values: np.ndarray, mult: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
        """Apply a real Fourier multiplier to a real field array, into ``out`` (a
        contiguous array shaped like ``values``) if given.

        The transform runs over the last ``dim`` axes, so ``values`` may
        be one field or a batch of fields stacked on leading axes.  The
        inverse mirrors :meth:`spectrum` unscaled, then scales once by
        ``1 / n_cells``, as scipy's ``irfftn`` does: scaling each pass by its
        own axis length would round twice wherever ``M`` is not a power of two.
        """
        spec = self.spectrum(values)
        spec *= mult
        if self.dim == 2:
            np.fft.ifft(spec, axis=-2, norm="forward", out=spec)
        out = np.fft.irfft(spec, n=self.points_per_dim, norm="forward", out=out)
        out *= 1.0 / self.n_cells
        return out


def _field_array(what: str, values, grid: SpatialGrid, lead=(), by_node=False) -> np.ndarray:
    """``values`` as a float array of shape ``(*lead, *grid.shape)``, every entry
    finite: the one check of every container of fields, which it names ``what``.

    An int in ``lead`` fixes that axis's length; a name (a str) lets it take
    any.  ``by_node`` scans the first axis entry by entry, since one scan over a
    flow would build a mask an eighth its size; a stride of 0 repeats one entry,
    which is then scanned once.
    """
    arr = np.asarray(values, dtype=float)
    # a named axis takes the length it has; a missing axis leaves the shapes unequal
    sized = tuple(m if isinstance(n, str) else n for n, m in zip(lead, arr.shape))
    if arr.shape != sized + grid.shape:
        want = ", ".join(map(str, tuple(lead) + grid.shape))
        raise ValidationError(f"{what} has shape {arr.shape}, expected ({want})")
    nodes = (arr[:1] if arr.strides[0] == 0 else arr) if by_node else (arr,)
    if not all(np.isfinite(node).all() for node in nodes):
        raise InvalidFieldError(f"{what} contains non-finite values")
    return arr


def _time_nodes(what: str, times) -> np.ndarray:
    """``times`` as a float array, refused naming ``what`` unless it is 1-d,
    non-empty, finite and strictly increasing."""
    t = np.asarray(times, dtype=float)
    # a NaN fails every comparison, so an increasing array is finite once its ends are
    if t.ndim != 1 or t.size < 1 or not (
        math.isfinite(t[0]) and math.isfinite(t[-1]) and np.all(np.diff(t) > 0.0)
    ):
        raise ValidationError(
            f"{what} times must be 1-d, non-empty, finite and strictly increasing"
        )
    return t


def _check_nodes(what: str, obj, grid: SpatialGrid, nodes: np.ndarray | None = None) -> None:
    """Refuse ``obj`` (a flow, path or field) unless it lives on ``grid`` and,
    when ``nodes`` is given, is sampled at exactly those times."""
    if obj.grid != grid:
        raise GridMismatchError(f"{what} lives on a different grid")
    if nodes is not None and not np.array_equal(obj.times, nodes):
        raise GridMismatchError(f"{what} is not sampled on the solver's time nodes")


@dataclass(frozen=True)
class GridFunction:
    """A real scalar field sampled on a :class:`SpatialGrid`.

    ``values`` has shape ``grid.shape`` and must be entirely finite
    (checked by :func:`_field_array`).
    """

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _field_array("grid function", self.values, self.grid))


def apply_fractional_laplacian(u: GridFunction, alpha: float) -> GridFunction:
    """Apply ``(-lap)^alpha`` spectrally.

    Single Fourier modes ``cos(xi x + phase)`` are exact eigenfunctions
    with eigenvalue ``|xi|^(2 alpha)``; a random field matches the dense
    DFT application of the same multiplier to round-off.
    """
    a = check_fractional_order(alpha, allow_one=True)
    out = u.grid.apply_multiplier(u.values, u.grid.fractional_symbol(a))
    return GridFunction(u.grid, out)


def _rows(values: np.ndarray, grid: SpatialGrid) -> tuple[np.ndarray, tuple[int, ...]]:
    """Fields stacked on leading axes as C-contiguous flat rows, and the
    stack shape.

    Every norm reduces each row on its own and does its arithmetic on
    whole arrays, so each entry of a stack equals the value of that
    field taken alone, bit for bit.
    """
    lead = values.shape[: values.ndim - grid.dim]
    return np.ascontiguousarray(values).reshape(-1, grid.n_cells), lead


def sq_norms(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Squared discrete L2 norms ``cell_volume * sum(values^2)``.

    ``values`` has shape ``(..., *grid.shape)``; the result has shape
    ``(...)``.
    """
    rows, lead = _rows(values, grid)
    return (grid.cell_volume * np.sum(rows**2, axis=1)).reshape(lead)


def sq_seminorms(values: np.ndarray, grid: SpatialGrid, alpha: float) -> np.ndarray:
    """Squared seminorms ``|| (-lap)^(alpha/2) u ||^2`` via Parseval.

    Computed directly from the spectrum of each field in ``values``,
    shape ``(..., *grid.shape)``; agrees with applying the half-order
    operator and taking the squared L2 norm.
    """
    a = check_fractional_order(alpha, allow_one=True)
    rows, lead = _rows(values, grid)
    spec = grid.spectrum(rows.reshape((-1,) + grid.shape))
    # a half-spectrum column counts twice in the full spectrum, bar the self-conjugate
    # zero and Nyquist columns (M is even)
    weights = np.full(grid.points_per_dim // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    power = weights * ((np.abs(spec) ** 2) * grid.fractional_symbol(a))
    total = np.sum(power.reshape(len(rows), -1), axis=1) * grid.cell_volume / grid.n_cells
    return total.reshape(lead)


def sq_v_norms(values: np.ndarray, grid: SpatialGrid, alpha: float, c_v: float = 1.0) -> np.ndarray:
    """Squared energy-space norms ``||u||^2 + c_v * |u|_alpha^2``.

    ``c_v`` weights the seminorm part; the normalization constant of the
    whole-space fractional Dirichlet form is not pinned here, so it is a
    configuration knob with default 1.
    """
    if not (float(c_v) > 0.0):
        raise ValidationError(f"c_v must be positive, got {c_v!r}")
    return sq_norms(values, grid) + float(c_v) * sq_seminorms(values, grid, alpha)


def tail_masses(values: np.ndarray, grid: SpatialGrid, m: float) -> np.ndarray:
    """Squared L2 mass of each field sitting at cells with ``|x| >= m``.

    ``m`` must lie in ``[0, L]``.  At ``m = 0`` this is the full squared
    norm; the quantity is non-increasing in ``m``.
    """
    mm = float(m)
    if not (0.0 <= mm <= grid.half_width):
        raise ValidationError(
            f"tail radius m must lie in [0, L] = [0, {grid.half_width}], got {m!r}"
        )
    rows, lead = _rows(values, grid)
    # np.take writes C-contiguous rows; a boolean or index gather would not,
    # and its row sums would differ from the single-field sums in the last bit
    outside = np.take(rows, np.flatnonzero(grid.radius() >= mm), axis=1)
    return (grid.cell_volume * np.sum(outside**2, axis=1)).reshape(lead)


def l2_norm(u: GridFunction) -> float:
    """Discrete L2 norm of one field: the root of its :func:`sq_norms` entry."""
    return float(np.sqrt(sq_norms(u.values, u.grid)))


# -- serialization -----------------------------------------------------


def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def save_grid_function(u: GridFunction, path: str | Path) -> Path:
    """Write a field as CSV plus a JSON geometry sidecar.

    The CSV holds one row per cell with coordinate columns followed by
    the value, printed with 17 significant digits so float64 round trips
    exactly.
    """
    path, g = Path(path), u.grid
    data = np.column_stack([c.ravel() for c in g.coordinates()] + [u.values.ravel()])
    # np.savetxt's bytes in one formatting pass, not one per row
    rows = ("%.17g," * g.dim + "%.17g\n") * len(data) % tuple(data.ravel().tolist())
    path.write_text("".join(map("x{},".format, range(1, g.dim + 1))) + "value\n" + rows)
    _meta_path(path).write_text(json.dumps(g.geometry(), sort_keys=True) + "\n")
    return path


def load_grid_function(path: str | Path) -> GridFunction:
    """Read a field written by :func:`save_grid_function`."""
    path = Path(path)
    meta_path = _meta_path(path)
    if not meta_path.is_file():
        raise ValidationError(f"{path}: geometry sidecar {meta_path} not found")
    try:
        grid = SpatialGrid.from_geometry(json.loads(meta_path.read_text()))
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError, ValidationError too
        raise ValidationError(
            f"{path}: malformed geometry sidecar {meta_path}: {type(exc).__name__} {exc}"
        ) from None
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: unreadable grid function values ({exc})") from None
    if data.shape != (grid.n_cells, grid.dim + 1):
        raise ValidationError(
            f"{path}: expected {grid.n_cells} rows x {grid.dim + 1} cols, got {data.shape}"
        )
    stored = [c.ravel() for c in grid.coordinates()]
    for i, col in enumerate(stored):
        if not np.allclose(data[:, i], col, rtol=0.0, atol=1e-9):
            raise ValidationError(f"{path}: coordinate column x{i + 1} does not match grid")
    try:
        return GridFunction(grid, data[:, -1].reshape(grid.shape))
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# -- blobs ---------------------------------------------------------------


def _le_f8(values) -> memoryview:
    """The bytes of ``values`` as little-endian float64, flat, without a copy where
    they already are."""
    return memoryview(np.ascontiguousarray(values, dtype="<f8").reshape(-1).view(np.uint8))


def _write_blob(path: str | Path, magic: bytes, header: dict, data) -> Path:
    """Write a blob file: ``magic``, then ``header`` with its ``dtype`` as one line of
    JSON with sorted keys, then ``data``, the bytes of its first values (:func:`_le_f8`).
    The bytes are a pure function of the payload, so equal payloads give equal files."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(magic + json.dumps({**header, "dtype": "<f8"}, sort_keys=True).encode() + b"\n")
        fh.write(data)
    return path


def _load_blob(path: str | Path, magic: bytes, what: str, count: str, lead: int, build):
    """``build(grid, n, data)`` of a ``what`` blob written by :func:`_write_blob`: its
    header's grid, its ``count`` field ``n`` and its ``n * (lead + cells)`` float64 values.

    The magic, the header, its ``dtype``, ``n`` (an integer >= 1) and the file's size are
    checked here, and ``build`` checks the values; every refusal names the file.
    """
    path = Path(path)
    if not path.is_file():
        why = f"is a directory; a {what} is one blob file" if path.is_dir() else "not found"
        raise ValidationError(f"{path}: {why}")
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValidationError(f"{path}: not a {what} blob")
        try:
            header = json.loads(fh.readline().decode())
            grid = SpatialGrid.from_geometry(header["grid"])
            n, dtype = header[count], header["dtype"]
        except (ValueError, KeyError, TypeError) as exc:  # ValidationError too
            raise ValidationError(f"{path}: malformed {what} header ({exc})") from exc
        if dtype != "<f8":
            raise ValidationError(f"{path}: header field dtype must be '<f8', got {dtype!r}")
        if type(n) is not int or n < 1:  # JSON's true is an int to isinstance
            raise ValidationError(f"{path}: header field {count} must be an integer >= 1, got {n!r}")
        want = 8 * n * (lead + grid.n_cells)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != want:
            raise ValidationError(
                f"{path}: {size} data bytes, but header fields {count} = {n} and grid "
                f"({grid.n_cells} cells) make {want}"
            )
        data = np.frombuffer(fh.read(size), dtype="<f8")
    try:
        return build(grid, n, data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
