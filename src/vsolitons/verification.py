"""Grid-based certification: PDE residuals, boundary residuals, asymptotics.

The exact fields are available pointwise, so finite differences are used
deliberately: truncation is then the only error and its observed order is
itself a test statistic (second order for the stencils used here).  On
sign-pattern boundaries the Neumann boundary residual decays as h^3 instead:
the mirror field is exactly reflection-symmetric, R(-x,t) = M R(x,t), so those
components are even in x and the stencil's h^2 term vanishes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import beta_in, beta_out
from .dressing import reconstruct_field
from .errors import ValidationError, WindowError
from .mirror import HalfLineData, halfline_field
from .soldata import Polarization, SolitonData


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Sampled complex vector field on a uniform rectangular (x, t) lattice."""

    x0: float
    x1: float
    t0: float
    t1: float
    nx: int
    nt: int
    values: np.ndarray  # (nx, nt, n) complex
    provenance: str = ""

    def __post_init__(self):
        if self.nx < 5 or self.nt < 5:
            raise ValidationError("grids need nx, nt >= 5 for the difference stencils")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 3 or vals.shape[:2] != (self.nx, self.nt):
            raise ValidationError(
                f"values must have shape (nx, nt, n), got {vals.shape}"
            )
        if not (self.x1 > self.x0 and self.t1 > self.t0):
            raise ValidationError("grid bounds must satisfy x1 > x0 and t1 > t0")
        object.__setattr__(self, "values", vals)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.nt)

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def ht(self) -> float:
        return (self.t1 - self.t0) / (self.nt - 1)

    @property
    def n(self) -> int:
        return self.values.shape[2]


def sample_grid(
    field_fn: Callable,
    x0: float,
    x1: float,
    t0: float,
    t1: float,
    nx: int,
    nt: int,
    provenance: str = "",
) -> FieldGrid:
    """Evaluate a vectorized field function on the lattice."""
    xs = np.linspace(x0, x1, nx)
    ts = np.linspace(t0, t1, nt)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    values = np.asarray(field_fn(X, T), dtype=np.complex128)
    return FieldGrid(x0, x1, t0, t1, nx, nt, values, provenance)


def grid_for_data(data: SolitonData, x0, x1, t0, t1, nx, nt, provenance="") -> FieldGrid:
    return sample_grid(
        lambda X, T: reconstruct_field(data, X, T), x0, x1, t0, t1, nx, nt, provenance
    )


def pde_residual(grid: FieldGrid) -> float:
    """Max interior residual of i R_t + R_xx + 2 (R^dag R) R, second order."""
    V = grid.values
    hx, ht = grid.hx, grid.ht
    Vi = V[1:-1, 1:-1]
    Rt = (V[1:-1, 2:] - V[1:-1, :-2]) / (2.0 * ht)
    Rxx = (V[2:, 1:-1] - 2.0 * Vi + V[:-2, 1:-1]) / (hx * hx)
    density = np.sum(np.abs(Vi) ** 2, axis=-1, keepdims=True)
    res = 1j * Rt + Rxx + 2.0 * density * Vi
    return float(np.max(np.abs(res))) if res.size else 0.0


def boundary_residual(hl: HalfLineData, times: Sequence[float], h: float = 0.005) -> float:
    """Boundary-condition residual at x = 0 over the given times.

    The boundary spec reads its condition off R(0,t) and R_x(0,t): Robin
    gives max |R_x(0,t) - 2 alpha R(0,t)|; sign patterns give the max of
    |R_p(0,t)| on the +1 components and |R_q,x(0,t)| on the -1 components.
    R_x uses the one-sided second-order stencil (-3R0 + 4R1 - R2)/(2h),
    whose error is -(h^2/3) R_xxx(0) - (h^3/4) R_xxxx(0) + O(h^4).  On sign
    patterns the mirror field is exactly reflection-symmetric, so the -1
    components are even in x, R_xxx(0) = 0, and their residual decays as h^3.
    """
    ts = np.asarray(list(times), dtype=np.float64)
    xs = np.array([0.0, h, 2.0 * h])
    F = halfline_field(hl, xs[:, None], ts[None, :])  # (3, nt, n)
    Rx0 = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * h)
    return hl.spec.boundary_residual(F[0], Rx0)


#: Points per bracket-zoom round of the envelope-peak refinement.
ZOOM_POINTS = 33


def _zoom_max(data: SolitonData, t: float, a: float, b: float, xtol: float) -> float:
    """Envelope maximizer on [a, b] by bracket zoom to position tolerance xtol.

    Each round samples ZOOM_POINTS points in one field call and keeps the two
    neighbours of the maximum; it stops once the bracket is within xtol or
    stops shrinking (float spacing at large |x|).
    """
    while b - a > xtol:
        xs = np.linspace(a, b, ZOOM_POINTS)
        i = int(np.argmax(np.linalg.norm(reconstruct_field(data, xs, t), axis=-1)))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, ZOOM_POINTS - 1)]
        if hi - lo >= b - a:
            break
        a, b = lo, hi
    return 0.5 * (a + b)


def extract_asymptotic_polarization(
    data: SolitonData,
    j: int,
    t: float,
    window: Optional[float] = None,
    coarse_factor: float = 0.1,
) -> Tuple[Polarization, float]:
    """Polarization and envelope peak position of soliton j at large |t|.

    Scans the field along x around the ballistic position w_j * t (coarse
    spacing ~ 1/(10 v_j)), then refines the envelope maximum by bracket zoom
    (`_zoom_max`) to 1e-10 and reads the component ratios at the refined peak.
    """
    j = int(j)
    point = data.points[j][0]
    v, w = point.v, point.velocity
    center = w * float(t)
    if window is None:
        shifts = [abs(math.log(data.points[j][1].norm)) / v]
        if data.N > 1:
            try:
                shifts.append(abs(beta_in(j, data).position_shift(point)))
                shifts.append(abs(beta_out(j, data).position_shift(point)))
            except ValidationError:
                shifts.append(shifts[0] + 4.0 / v)  # unsorted data: widen instead
        window = max(shifts) + 10.0 / v
        if data.N > 1:
            sep = min(
                abs(pt.velocity - w) * abs(float(t))
                for i, (pt, _) in enumerate(data.points)
                if i != j
            )
            window = min(window, 0.45 * sep)
    xs = np.arange(center - window, center + window, coarse_factor / v)
    if xs.size < 5:
        raise WindowError("scan window is too narrow for the coarse pass")
    env = np.linalg.norm(reconstruct_field(data, xs, float(t)), axis=-1)
    imax = int(np.argmax(env))
    if imax == 0 or imax == xs.size - 1:
        raise WindowError(
            f"envelope peak of soliton {j} not interior to the scan window at t={t}"
        )
    peak = _zoom_max(data, float(t), xs[imax - 1], xs[imax + 1], 1e-10)
    return Polarization(reconstruct_field(data, peak, float(t))), float(peak)


def convergence_order(residual_fn: Callable[[float], float], h_sequence) -> float:
    """Least-squares slope of log residual against log h.

    Needs at least three roughly geometric spacings; warns when the residuals
    are not monotone in h.
    """
    hs = [float(h) for h in h_sequence]
    if len(hs) < 3:
        raise ValidationError("convergence_order needs at least three spacings")
    ratios = [a / b for a, b in zip(hs, hs[1:])]
    if max(ratios) / min(ratios) > 1.5:
        raise ValidationError(f"spacings {hs} are not close to geometric")
    rs = [float(residual_fn(h)) for h in hs]
    if any(r <= 0.0 for r in rs):
        raise ValidationError("residuals must be positive to fit an order")
    decreasing = all(b < a for a, b in zip(rs, rs[1:]))
    increasing = all(b > a for a, b in zip(rs, rs[1:]))
    if not (decreasing or increasing):
        warnings.warn("non-monotone residual sequence; fitted order is unreliable")
    slope = np.polyfit(np.log(hs), np.log(rs), 1)[0]
    return float(slope)
