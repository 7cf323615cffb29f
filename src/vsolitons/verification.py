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
from typing import Callable, Sequence

import numpy as np

from .asymptotics import beta_in, beta_out
from .dressing import reconstruct_field
from .errors import ValidationError, WindowError
from .mirror import HalfLineData, halfline_field
from .soldata import Polarization, SolitonData, _norms


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
) -> FieldGrid:
    """Evaluate a field function on the nx x nt lattice.

    field_fn gets the grid lines as broadcastable operands, x of shape
    (nx, 1) and t of shape (1, nt), and must return the (nx, nt, n) field at
    broadcast(x, t); the field functions of this package do, and evaluate
    the seed phase once per grid line.
    """
    xs = np.linspace(x0, x1, nx)
    ts = np.linspace(t0, t1, nt)
    values = np.asarray(field_fn(xs[:, None], ts[None, :]), dtype=np.complex128)
    return FieldGrid(x0, x1, t0, t1, nx, nt, values)


#: pde_residual evaluates the stencil over blocks of this many interior rows.
PDE_ROW_BLOCK = 32


@np.errstate(over="ignore", invalid="ignore")
def pde_residual(grid: FieldGrid) -> float:
    """Max interior residual of i R_t + R_xx + 2 (R^dag R) R, second order.

    Every interior cell gets the bits of the whole-grid complex expression

        1j * (V[:, 2:] - V[:, :-2]) / (2 ht) + (V[2:] - 2.0 * V + V[:-2]) / hx^2
            + 2.0 * sum(|V|^2, axis=-1) * V,

    nan and inf included, from the same complex operations with two changes:
    - z / c for a real c is numpy's Smith division, (re + im*0) * (1/c) and
      (im - re*0) * (1/c); z * (1/c) is numpy's complex multiply by 1/c + 0j,
      re * (1/c) - im*0 and im * (1/c) + re*0: the same bits, and the same nan
      from the x*0 terms in the part beside an infinite one.
    - The squared moduli (np.abs of the complex values, not np.hypot of the
      parts, whose last bit differs) are summed in numpy's own order without
      its slow reduction over a short trailing axis: numpy sums a trailing
      axis of length 2-7 one component at a time and from length 8 on
      pairwise, so n = 1 and n >= 8 keep np.add.reduce.
    The density factor multiplies one component at a time, as a complex
    2|V|^2 + 0j like numpy's cast of the real density.  The interior rows
    (fixed x) go PDE_ROW_BLOCK at a time through work arrays reused across
    blocks, so the temporaries stay in cache; np.max keeps a nan from any
    block.  A residual past the float range reads inf (nan where an
    inf - inf meets it) without a numpy warning.
    """
    V = grid.values
    n = grid.n
    scale_t = 1.0 / (2.0 * grid.ht)
    scale_x = 1.0 / (grid.hx * grid.hx)
    shape = (min(PDE_ROW_BLOCK, grid.nx - 2), grid.nt - 2, n)
    res_buf = np.empty(shape, dtype=np.complex128)
    term_buf = np.empty(shape, dtype=np.complex128)
    mod_buf = np.empty(shape)
    dens_buf = np.empty(shape[:2])
    factor_buf = np.zeros(shape[:2], dtype=np.complex128)  # imaginary parts stay 0
    bufs = (res_buf, term_buf, mod_buf, dens_buf, factor_buf)
    peaks = []
    for lo in range(1, grid.nx - 1, PDE_ROW_BLOCK):
        hi = min(lo + PDE_ROW_BLOCK, grid.nx - 1)
        res, term, mod, density, factor = (a[: hi - lo] for a in bufs)
        Vi = V[lo:hi, 1:-1]
        np.subtract(V[lo:hi, 2:], V[lo:hi, :-2], out=res)
        res *= scale_t
        res *= 1j
        np.multiply(Vi, 2.0, out=term)
        np.subtract(V[lo + 1 : hi + 1, 1:-1], term, out=term)
        term += V[lo - 1 : hi - 1, 1:-1]
        term *= scale_x
        res += term
        np.abs(Vi, out=mod)
        mod *= mod
        if 2 <= n <= 7:
            np.add(mod[..., 0], mod[..., 1], out=density)
            for c in range(2, n):
                density += mod[..., c]
        else:
            np.add.reduce(mod, axis=-1, out=density)
        np.multiply(density, 2.0, out=factor.real)
        for c in range(n):
            np.multiply(Vi[..., c], factor, out=term[..., c])
        res += term
        np.abs(res, out=mod)
        peaks.append(mod.max(initial=0.0))
    return float(np.max(peaks))


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


def _envelopes(data: SolitonData, scans, ts) -> list:
    """|R(x, t)| along each scan xs at its time t: one field call per distinct
    time, over the group's scans with that time as a single t line, so the
    seed's t factors are formed once per group, not once per point.  A
    point's value does not depend on its call, so each scan gets the bits
    of one flat call over all scans."""
    groups = {}
    for i, tt in enumerate(ts):
        groups.setdefault(tt, []).append(i)
    out = [None] * len(scans)
    for tt, members in groups.items():
        sizes = [scans[i].size for i in members]
        field = reconstruct_field(data, np.concatenate([scans[i] for i in members]), tt)
        for i, part in zip(members, np.split(field, np.cumsum(sizes)[:-1])):
            out[i] = _norms(part)
    return out


def _zoom_max(data: SolitonData, ts, a, b, xtol: float) -> list:
    """Envelope maximizers on the brackets [a_i, b_i] at times t_i, in lockstep,
    each to position tolerance xtol.

    Each round samples ZOOM_POINTS points in every bracket still in play, all
    in one field call over the rows of brackets with each row's time as its
    t line, and keeps the two neighbours of each maximum; a bracket leaves
    play once it is within xtol or stops shrinking (float spacing at large
    |x|).  Returns the final bracket midpoints.
    """
    a, b = list(a), list(b)
    live = [i for i in range(len(a)) if b[i] - a[i] > xtol]
    while live:
        scans = np.stack([np.linspace(a[i], b[i], ZOOM_POINTS) for i in live])
        rows = np.array([ts[i] for i in live], dtype=np.float64)[:, None]
        envs = _norms(reconstruct_field(data, scans, rows))
        still = []
        for i, xs, env in zip(live, scans, envs):
            top = int(np.argmax(env))
            lo, hi = xs[max(top - 1, 0)], xs[min(top + 1, ZOOM_POINTS - 1)]
            if hi - lo < b[i] - a[i]:
                a[i], b[i] = lo, hi
                if hi - lo > xtol:
                    still.append(i)
        live = still
    return [0.5 * (lo + hi) for lo, hi in zip(a, b)]


def _coarse_scan(data: SolitonData, j: int, t: float) -> np.ndarray:
    """Scan points around the ballistic position of soliton j at time t."""
    point = data.points[j][0]
    v, w = point.v, point.velocity
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
            abs(pt.velocity - w) * abs(t)
            for i, (pt, _) in enumerate(data.points)
            if i != j
        )
        window = min(window, 0.45 * sep)
    return np.arange(w * t - window, w * t + window, 0.1 / v)


def extract_asymptotic_polarization(data: SolitonData, js, ts) -> list:
    """(Polarization, envelope peak position) of soliton j at large |t|, for
    each target (j, t) of the equal-length sequences js and ts.

    Scans the field along x around the ballistic position w_j * t (spacing
    1/(10 v_j), half-width the largest envelope shift plus 10/v_j, capped by
    the other solitons), then refines the envelope maximum by bracket zoom
    (`_zoom_max`) to 1e-10 and reads the component ratios at the refined peak.

    The targets go in lockstep: the coarse scans take one field call per
    distinct time (`_envelopes`), and each zoom round and the peak read-out
    one field call each over the targets still in play.  A point's field
    value does not depend on its batch, so each target gets the bits of its
    one-element call, and the first target whose scan fails raises that
    call's WindowError.
    """
    targets = list(zip(js, ts, strict=True))
    ts = [float(tt) for _, tt in targets]
    scans = []
    for (jj, _), tt in zip(targets, ts):
        xs = _coarse_scan(data, int(jj), tt)
        if xs.size < 5:
            break
        scans.append(xs)
    envs = _envelopes(data, scans, ts[: len(scans)]) if scans else []
    a, b = [], []
    for (jj, tt), xs, env in zip(targets, scans, envs):
        imax = int(np.argmax(env))
        if imax == 0 or imax == xs.size - 1:
            raise WindowError(
                f"envelope peak of soliton {int(jj)} not interior to the scan window at t={tt}"
            )
        a.append(xs[imax - 1])
        b.append(xs[imax + 1])
    if len(scans) < len(targets):
        raise WindowError("scan window is too narrow for the coarse pass")
    peaks = _zoom_max(data, ts, a, b, 1e-10)
    rows = reconstruct_field(data, peaks, ts)
    return [(Polarization(row), float(peak)) for row, peak in zip(rows, peaks)]


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
