"""Seeded property suites: the table of the fourteen suites, their runner and
the check model they append to.  A suite reads a parsed `cli.RunConfig` and
appends `ReportCheck`s to a `cli.ReportDocument`; this module imports nothing
from `cli`."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .asymptotics import (
    check_velocity_ordered,
    collision_pair_residuals,
    intermediate_gamma,
    min_relative_velocity,
)
from .dressing import (
    _blaschke,
    _product,
    build_reduced_chain,
    eval_chain,
    one_soliton_field,
    permutation_residuals,
    reconstruct_field,
)
from .errors import VsolitonsError
from .maps import (
    involution_residuals,
    reflection_equation_residuals,
    reversibility_residuals,
    s_twist_residuals,
    transfer_commutators,
    yb_schedule,
    ybe_residuals,
)
from .mirror import (
    CONSTRAINT_TOL,
    HalfLineData,
    halfline_field,
    mirror_polarization_residual,
    solve_mirror_norming,
)
from .sampling import (
    BOUNDARY_KINDS,
    SampleLog,
    boundaries,
    boundary_spec,
    draw_boundary,
    draw_unit_vectors,
    draw_unitary,
    random_map_parameters,
    random_soliton_data,
    uniforms,
    unit_vectors,
    unitaries,
)
from .soldata import (
    Mixed,
    NormingVector,
    Robin,
    SolitonData,
    SolitonStack,
    _polarizations,
    projective_distance,
)
from .verification import (
    FieldGrid,
    boundary_residual,
    convergence_order,
    extract_asymptotic_polarization,
    pde_residual,
    sample_grid,
)



#: Default tolerances by check family; suite.tolerances overrides them by family.
DEFAULT_TOLERANCES = {
    "algebraic": 1e-10,
    "involution": 1e-12,
    "mirror_constraint": CONSTRAINT_TOL,
    "asymptotic": 1e-4,
}


@dataclass
class ReportCheck:
    """One executed check: a residual compared against its tolerance."""

    name: str
    residual: float
    tolerance: Optional[float]
    comparison: str = "<="
    informational: bool = False
    elapsed: float = 0.0  # console display only, never serialized

    @property
    def passed(self) -> Optional[bool]:
        if self.informational or self.tolerance is None:
            return None
        if self.comparison == "<=":
            return self.residual <= self.tolerance
        return self.residual >= self.tolerance

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "comparison": self.comparison,
            "informational": self.informational,
            "passed": self.passed,
        }


def _check(
    report: ReportDocument,
    cfg: RunConfig,
    name: str,
    residual: float,
    family: str = "algebraic",
    tolerance: Optional[float] = None,
    comparison: str = "<=",
    informational: bool = False,
) -> None:
    tol = tolerance
    if tol is None and not informational:
        tol = cfg.tolerances.get(family, DEFAULT_TOLERANCES[family])
    report.checks.append(ReportCheck(name, float(residual), tol, comparison, informational))


# --- property suites -------------------------------------------------------------


@dataclass(frozen=True)
class _Sampled:
    """A sampled suite, or one part of a `_Parts` suite: draw every variant's
    instances, keep each check's worst per variant.

    ``draw(cfg, rng, log, i, variant)`` draws instance i of a variant and
    returns one residual per check: (name template, family[, settings]), the
    settings being `_check` keywords the check fixes for itself.  ``{}`` in a
    name takes the variant label.  A ``>=`` check keeps its least residual,
    any other its largest (from 0.0); either keeps a nan.  ``variants(cfg)``
    lists (label, payload) pairs, each run over all samples.

    With ``stacked``, a draw returns the instance as drawn instead.  After
    every variant's draws, in variant order, the instances are grouped by the
    shapes of their members that have one (ndarrays, and `SolitonData` as its
    (N, n)), and ``stacked(instances)`` evaluates one group per call, the
    groups in order of their first sample.  It returns one sequence of
    per-sample residuals per check, scattered into the suite's one residual
    array in sample order, each row with the bits of its own S = 1 call.  An
    evaluation error names the first failing sample of the first group that
    raises: a group that raises is evaluated again one sample at a time, so
    the error is that sample's own S = 1 error.

    Each variant's checks share, evenly, its own draw time plus its sample
    share of the stacked call and the folds, so the check times sum to the
    part's time (console only).
    """

    default: int  # samples when suite.samples is unset or the part is fixed
    checks: tuple
    draw: Callable
    variants: Callable = lambda cfg: [("", None)]
    stacked: Optional[Callable] = None
    fixed: bool = False

    def __call__(self, cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
        samples = self.default if self.fixed else cfg.suite_params.get("samples", self.default)
        variants = self.variants(cfg)
        drawn, drew, start = [], [], report.clock
        for variant in variants:
            drawn += [self.draw(cfg, rng, log, i, variant) for i in range(samples)]
            drew.append(time.perf_counter())
        residuals = self._evaluate(drawn) if self.stacked else np.array(drawn, dtype=np.float64)
        # per variant and check, the largest residual (from 0.0) and the least:
        # np.max and np.min keep a nan, where Python's max would drop it
        folds = residuals.reshape(len(variants), samples, len(self.checks))
        most = folds.max(axis=1, initial=0.0).tolist()
        least = folds.min(axis=1).tolist()
        first = len(report.checks)
        for variant, highs, lows in zip(variants, most, least):
            for (name, family, *settings), hi, lo in zip(self.checks, highs, lows):
                settings = dict(*settings)
                worst = lo if settings.get("comparison") == ">=" else hi
                _check(report, cfg, name.format(variant[0]), worst, family, **settings)
        report.clock = time.perf_counter()
        shared = (report.clock - drew[-1]) / len(variants)
        count = len(self.checks)
        for v, end in enumerate(drew):
            own = (end - (drew[v - 1] if v else start) + shared) / count
            for chk in report.checks[first + v * count:first + (v + 1) * count]:
                chk.elapsed = own

    def _evaluate(self, instances) -> np.ndarray:
        """The (instances, checks) residuals, rows in sample order: one
        stacked call per group of instances whose shaped members have the same
        shapes, its columns scattered into the group's rows.  A suite's
        instances share their layout, so the first one shows which members
        have a shape; the shapes are read column by column, at about a third
        of the cost of one key built per instance."""
        shapes = [[a.shape for a in column] for column in zip(*instances)
                  if hasattr(column[0], "shape")]
        groups: Dict[tuple, List[int]] = {}
        for i, key in enumerate(zip(*shapes)):
            groups.setdefault(key, []).append(i)
        rows = np.empty((len(instances), len(self.checks)))
        for idx in groups.values():
            group = [instances[i] for i in idx]
            try:
                residuals = self.stacked(group)
            except VsolitonsError:
                for instance in group:  # the first sample that raises alone raises here
                    self.stacked([instance])
                raise
            rows[idx] = np.transpose(residuals)
        return rows


def _map_state(evaluate: Callable) -> Callable:
    """A `_Sampled.stacked` for map-suite draws (parameters,
    `draw_unit_vectors` draws, extra) of one component count: derives their
    unit vectors and parameters as one (P, K) state and returns
    evaluate(P, K, extras)."""
    def stacked(instances):
        ks, draws, extras = zip(*instances)
        return evaluate(unit_vectors(np.array(draws)), np.array(ks, dtype=np.complex128), extras)
    return stacked


def _worst(residuals) -> float:
    """Worst of one instance's residuals, folded from 0.0 as the runner folds:
    a nan residual is the worst."""
    return float(np.max([0.0, *residuals]))


def _suite_ns(cfg: RunConfig) -> list:
    return [cfg.suite_params["n"]] if "n" in cfg.suite_params else [2, 3]


def _n_variants(cfg: RunConfig):
    return [(f"n={n}", n) for n in _suite_ns(cfg)]


def _boundary_kinds(cfg: RunConfig):
    if cfg.boundary is not None:
        return [("given", cfg.boundary)]
    return [(label, None) for label in BOUNDARY_KINDS]


def _variant_boundary(rng, variant, n: int):
    """The given spec or a `draw_boundary` of the variant's kind, and its n."""
    label, fixed = variant
    if fixed is not None:
        return fixed, fixed.n or n
    return draw_boundary(rng, label, n), n


def _draw_one_soliton(cfg, rng, log, i, variant):
    data = random_soliton_data(rng, 1, (2, 3, 1)[i % 3], log=log)
    xs = rng.uniform(-6, 6, 50)
    ts = rng.uniform(-3, 3, 50)
    exact = one_soliton_field(data.points[0][0], data.points[0][1], xs, ts)
    return (float(np.max(np.abs(exact - reconstruct_field(data, xs, ts)))),)


#: Lower and upper bounds of the determinant suite's 20 spectral samples, each
#: (Re k, Im k), and of a permutation draw's 20 samples and then 5 points (x, t).
_DETERMINANT_BOUNDS = np.array([[[-3.0, 0.0]] * 20, [[3.0, 2.5]] * 20])
_PERMUTATION_BOUNDS = np.array([[[-2.0, 0.0]] * 20 + [[-3.0, -2.0]] * 5,
                                [[2.0, 2.0]] * 20 + [[3.0, 2.0]] * 5])


def _draw_determinant(cfg, rng, log, i, variant):
    data = random_soliton_data(rng, 2 + i % 3, 2 + i % 2, log=log)
    chain = build_reduced_chain(data)
    # Im k >= 0 keeps every sample 0.1 or more from the poles k_j* (Im = -v_j/2)
    ks = uniforms(rng, *_DETERMINANT_BOUNDS).view(np.complex128)[:, 0]
    prod = _product(_blaschke(data.ks, ks[:, None]))
    return (_worst(abs(np.linalg.det(eval_chain(chain, ks)) - prod) / abs(prod)),)


def _permutation_variants(cfg: RunConfig):
    N, n = cfg.suite_params.get("N", 3), cfg.suite_params.get("n", 2)
    return [(f"N={N},n={n}", (N, n))]


def _draw_permutation(cfg, rng, log, i, variant):
    N, n = variant[1]
    data = random_soliton_data(rng, N, n, log=log)
    draws = uniforms(rng, *_PERMUTATION_BOUNDS)
    return data, draws[:20].view(np.complex128)[:, 0], draws[20:]


def _permutation_stack(instances):
    """Permutation draws of one (N, n) as one stack: per sample, the worst
    disagreement of every other factor order with the identity order."""
    datasets, ks, xts = zip(*instances)
    stack = SolitonStack(tuple(data.points for data in datasets))
    reference = tuple(range(stack.N))
    orders = [order for order in itertools.permutations(reference) if order != reference]
    residuals = permutation_residuals(stack, reference, orders, np.array(ks), np.array(xts))
    return (np.max([np.zeros(len(datasets)), *residuals], axis=0),)


def _map_draw(slots: int, with_boundary: bool) -> Callable:
    """A map-suite draw: slots parameters, then slots unit vectors.  With a
    boundary, the boundary comes first and gives n, and the parameters are
    pole-safe under k -> -k*; without, n is the variant's."""
    def draw(cfg, rng, log, i, variant):
        drawn, n = None, variant[1]
        if with_boundary:
            ns = _suite_ns(cfg)
            drawn, n = _variant_boundary(rng, variant, ns[i % len(ns)])
        ks = random_map_parameters(rng, slots, mirrored=with_boundary, log=log)
        return ks, draw_unit_vectors(rng, slots, n, log), drawn
    return draw


def _draw_yb_structure(cfg, rng, log, i, variant):
    n = (2, 3)[i % 2]
    ks = random_map_parameters(rng, 2, mirrored=True, log=log)
    return ks, draw_unit_vectors(rng, 2, n, log), draw_unitary(rng, n)


def _yb_structure(P, K, draws):
    """Unitary-diagonal invariance and parameter-twist residuals per sample."""
    V = unitaries(np.array(draws))
    rotated_after = np.einsum("sab,sjb->sja", V, yb_schedule(P, K, ((0, 1),)))
    after_rotated = yb_schedule(np.einsum("sab,sjb->sja", V, P), K, ((0, 1),))
    unitary = projective_distance(rotated_after, after_rotated).max(axis=1)
    return unitary, s_twist_residuals(P, K)


def _draw_collision(cfg, rng, log, i, variant):
    return (random_soliton_data(rng, 2 + i % 2, (2, 3)[i % 2], log=log),)


def _collision_stack(instances):
    """Collision draws of one (N, n) as one stack, each gamma built once: per
    sample, its worst pair residuals and its pipeline residual."""
    stack = SolitonStack(tuple(data.points for data, in instances))
    pols = _in_out(stack)  # first: it names a sample with unordered velocities
    return (*_pair_residuals(stack), _pipeline_residuals(pols, stack.ks))


def _pair_residuals(data) -> tuple:
    """Per sample, the worst collision_pair_residuals over the pairs j < l,
    the first other index a spectator: (relations, norm-ratio asymmetry)."""
    stack = data.stack
    out = [np.zeros((2, len(stack.points)))]
    for j, l in collision_orders(stack.N)[0]:
        others = tuple(m for m in range(stack.N) if m not in (j, l))
        out.append(collision_pair_residuals(j, l, others[:1], stack))
    return tuple(np.max(out, axis=0))


def collision_orders(N: int):
    """Two maximal collision schedules: lexicographic and reversed."""
    pairs = [(j, l) for j in range(N) for l in range(j + 1, N)]
    return pairs, list(reversed(pairs))


def _in_out(data) -> np.ndarray:
    """(S, 2, N, n): every soliton's unit in- and out-polarization per sample,
    each as `Polarization` makes it from `beta_in` or `beta_out`."""
    stack = data.stack
    check_velocity_ordered(stack)
    N = stack.N
    ins = [intermediate_gamma(j, range(j + 1, N), stack) for j in range(N)]
    outs = [intermediate_gamma(j, range(j), stack) for j in range(N)]
    pols = _polarizations(np.concatenate(ins + outs)).reshape(2, N, -1, ins[0].shape[-1])
    return np.ascontiguousarray(pols.transpose(2, 0, 1, 3))


def _pipeline_residuals(pols, K) -> np.ndarray:
    """Per sample of an (S, 2, N, n) stack of `_in_out` polarizations and their
    (S, N) parameters, the worst distance of either collision schedule's output
    from the out-polarizations: one `yb_schedule` per schedule, one distance call."""
    schedules = collision_orders(K.shape[1])
    got = np.concatenate([yb_schedule(pols[:, 0], K, s) for s in schedules])
    dist = projective_distance(got, np.concatenate([pols[:, 1]] * len(schedules))).max(axis=-1)
    return dist.reshape(len(schedules), len(K)).max(axis=0)


def _mirror_kinds(cfg: RunConfig):
    # the mirror suites draw the unrotated kinds only
    return _boundary_kinds(cfg)[:2]


def _draw_mirror(cfg, rng, log, i: int, variant) -> tuple:
    # a given sign pattern gives n; a drawn boundary comes after the data
    N, n = 1 + i % 3, getattr(variant[1], "n", None) or (2, 3)[i % 2]
    data = random_soliton_data(rng, N, n, positive=True, log=log)
    return data, _variant_boundary(rng, variant, n)[0]


def _mirror_solve(instances) -> tuple:
    """Mirror draws of one (N, n) solved as one stack (`solve_mirror_norming`)."""
    datasets, drawn = zip(*instances)
    return solve_mirror_norming(datasets, [boundary_spec(d) for d in drawn])


def _draw_mirror_detector(cfg, rng, log, i, variant):
    """Detector sanity: a corrupted mirror norming vector must be flagged.  It
    draws from its own stream of the suite seed, not after the sampled rows,
    so its row does not move with suite.samples."""
    own = np.random.SeedSequence(cfg.suite_params.get("seed", 0)).spawn(1)[0]
    data = random_soliton_data(np.random.default_rng(own), 2, 2, positive=True, log=log)
    hl_bad = _perturb_halfline(solve_mirror_norming(data, Mixed((1, -1))), 1e-3)
    return (hl_bad.constraint_residual,)


def _perturb_halfline(hl: HalfLineData, size: float) -> HalfLineData:
    pts = list(hl.combined.points)
    pt, nv = pts[hl.N]
    bumped = nv.beta.copy()
    bumped[0] += size * nv.norm
    pts[hl.N] = (pt, NormingVector(bumped))
    return HalfLineData(SolitonData(hl.n, tuple(pts)), hl.spec)


def _draw_transfer(n: int) -> Callable:
    """A transfer draw: the variant's boundary (which gives n; none for the
    unlabelled variant, the identity), then an N = 2 and an N = 3 state, each
    as parameters and `draw_unit_vectors` draws."""
    def draw(cfg, rng, log, i, variant):
        drawn, m = _variant_boundary(rng, variant, n) if variant[0] else (None, n)
        states = [state for N in (2, 3) for state in (
            random_map_parameters(rng, N, mirrored=True, log=log),
            draw_unit_vectors(rng, N, m, log))]
        if not variant[0]:
            # the draw of a retired n = 1 check, which read 0 by construction:
            # kept, so every later row keeps its draws
            random_map_parameters(rng, 2, mirrored=True, log=log)
        return (*states, drawn)
    return draw


def _transfer_stack(both: bool) -> Callable:
    """A `_Sampled.stacked` for transfer draws: per sample, the worst
    commutator of its N = 2 and N = 3 states, one `transfer_commutators` call
    per N, with the sample's boundary (None: the identity) in the b_plus slot
    and, if both, in the b_minus slot too."""
    def stacked(instances):
        *states, drawn = zip(*instances)
        stack = None if drawn[0] is None else boundaries(drawn, states[1][0].shape[-1])
        worst = 0.0
        for ks, raw in zip(states[::2], states[1::2]):
            rows = transfer_commutators(unit_vectors(np.array(raw)), np.array(ks),
                                        stack, stack if both else None)
            worst = np.maximum(worst, rows.max(axis=0))
        return (worst,)
    return stacked


def _pde_order(field_fn, x0: float, x1: float, hs) -> float:
    """Fitted convergence order of the PDE residual on [x0, x1] x [-1, 1].

    The field is sampled once, at the finest spacing hs[-1]; spacing h reads
    the strided view values[::s, ::s], s = round(h / hs[-1]), so every h must
    be an integer multiple of hs[-1].  The view's nodes are exactly the nodes
    of the grid sampled at h: linspace puts node i at start + i * step, and
    when s is a power of two (as for 0.04, 0.02, 0.01) the fine step is the
    coarse step divided by s without rounding, so fine node i * s and coarse
    node i round the same real number.
    """
    nx, nt = int(round((x1 - x0) / hs[-1])) + 1, int(round(2 / hs[-1])) + 1
    fine = sample_grid(field_fn, x0, x1, -1, 1, nx, nt)

    def residual(h):
        s = int(round(h / hs[-1]))
        # a contiguous copy: the same bits, and a faster stencil than the strided view
        values = np.ascontiguousarray(fine.values[::s, ::s])
        return pde_residual(FieldGrid(x0, x1, -1, 1, *values.shape[:2], values))

    return convergence_order(residual, hs)


def _draw_pde(cfg, rng, log, i, variant):
    """PDE orders of a line and a half-line (Mixed) field; boundary orders."""
    hs = [0.04, 0.02, 0.01]
    data = random_soliton_data(rng, 2, 2, log=log)
    line = _pde_order(lambda X, T: reconstruct_field(data, X, T), -4, 4, hs)
    hdata = random_soliton_data(rng, 2, 2, positive=True, log=log)
    mixed, robin = (solve_mirror_norming(hdata, spec) for spec in (Mixed((1, -1)), Robin(0.8)))
    half = _pde_order(lambda X, T: halfline_field(mixed, X, T), 0, 6, hs)
    ts = np.linspace(-1.0, 1.0, 9)
    return (abs(line - 2.0), abs(half - 2.0), *[
        convergence_order(lambda h: boundary_residual(hl, ts, h=h), hs) for hl in (robin, mixed)])


def _draw_factorization(cfg, rng, log, i, variant):
    data = _moderate_collision_data(rng, 2 + i % 2, (2, 3)[i % 2], log)
    T = 18.0 / (min(pt.v for pt, _ in data.points) * min_relative_velocity(data))
    js, ts, sides = zip(*[(j, t, side) for j in range(data.N) for side, t in enumerate((-T, T))])
    found = extract_asymptotic_polarization(data, js, ts)
    pols = _in_out(data)
    dist = projective_distance(np.array([pol.p for pol, _ in found]), pols[0, sides, js])
    return _worst(dist), _pipeline_residuals(pols, data.ks[None])[0]


def _moderate_collision_data(rng, N: int, n: int, log) -> SolitonData:
    """Random data with v and velocity gaps bounded away from zero.

    Keeps the asymptotic extraction times modest so field scans stay cheap.
    """
    while True:
        data = random_soliton_data(rng, N, n, log=log)
        vmin = min(pt.v for pt, _ in data.points)
        if vmin >= 0.5 and min_relative_velocity(data) >= 0.8:
            return data
        log.resamples += 1


class _Parts(tuple):
    """A suite of ordered `_Sampled` parts that share rng, report and sample log."""

    def __call__(self, *args):
        for part in self:
            part(*args)


#: Every suite is a callable (cfg, rng, report, log): a
#: _Sampled(default samples, checks, draw[, variants][, stacked][, fixed]), or
#: a _Parts of them when its checks' names or settings differ between groups.
_SUITES: Dict[str, Callable] = {
    "one-soliton": _Sampled(20, (("one-soliton-oracle", "involution"),), _draw_one_soliton),
    "determinant": _Sampled(10, (("determinant-blaschke-product", "involution"),),
                            _draw_determinant),
    "permutation": _Sampled(5, (("permutation-factorization[{}]", "algebraic"),),
                            _draw_permutation, _permutation_variants, _permutation_stack),
    "ybe": _Sampled(100, (("yang-baxter-equation[{}]", "algebraic"),), _map_draw(3, False),
                    _n_variants,
                    stacked=_map_state(lambda P, K, _: (ybe_residuals(P, K),))),
    "reversibility": _Sampled(100, (("reversibility[{}]", "involution"),),
                              _map_draw(2, False), _n_variants,
                              stacked=_map_state(lambda P, K, _: (reversibility_residuals(P, K),))),
    "yb-structure": _Sampled(50, (("unitary-diagonal-invariance", "involution"),
                                  ("parameter-twist-transpose", "involution")),
                             _draw_yb_structure, stacked=_map_state(_yb_structure)),
    "reflection-equation": _Sampled(
        100, (("reflection-equation[{}]", "algebraic"),), _map_draw(2, True), _boundary_kinds,
        stacked=_map_state(lambda P, K, drawn: (
            reflection_equation_residuals(P, K, boundaries(drawn, P.shape[-1])),)),
    ),
    "involution": _Sampled(
        100, (("reflection-involution[{}]", "involution"),), _map_draw(1, True), _boundary_kinds,
        stacked=_map_state(lambda P, K, drawn: (
            involution_residuals(P, K, boundaries(drawn, P.shape[-1])),)),
    ),
    "collision": _Sampled(20, (("pairwise-collision-relations", "algebraic"),
                               ("norm-ratio-symmetry", "involution"),
                               ("factorization-pipeline", "algebraic")), _draw_collision,
                          stacked=_collision_stack),
    "mirror-constraint": _Parts((
        _Sampled(10, (("mirror-constraint[{}]", "mirror_constraint"),), _draw_mirror,
                 _mirror_kinds, lambda group: (
                     [hl.constraint_residual for hl in _mirror_solve(group)[0]],)),
        _Sampled(1, (("mirror-constraint-detector", "asymptotic",
                      {"tolerance": 1e-4, "comparison": ">="}),),
                 _draw_mirror_detector, fixed=True),
    )),
    "mirror-polarization": _Sampled(
        10, (("mirror-polarization[{}]", "algebraic"),), _draw_mirror, _mirror_kinds,
        stacked=lambda group: (mirror_polarization_residual(_mirror_solve(group)),),
    ),
    "transfer": _Parts((
        _Sampled(1, (("transfer-commutator[identity-boundary]", "involution"),),
                 _draw_transfer(2), stacked=_transfer_stack(False), fixed=True),
        # exploratory: both boundary slots filled with the concrete reflection
        # map; the measured residual is recorded, not asserted (the b_minus
        # slot needs a dual map that is not derived yet)
        _Sampled(1, (("transfer-commutator[vnls-reflection:{}]", "algebraic",
                      {"informational": True}),),
                 _draw_transfer(2), _boundary_kinds, _transfer_stack(True), fixed=True),
        # the concrete reflection map is a valid b_plus with the identity as b_minus
        _Sampled(1, (("transfer-commutator[b-plus-reflection:{}]", "involution"),),
                 _draw_transfer(3), _boundary_kinds, _transfer_stack(False), fixed=True),
    )),
    "pde": _Sampled(
        1, (("pde-order[line-2-soliton]", "asymptotic", {"tolerance": 0.3}),
            ("pde-order[half-line-2-soliton]", "asymptotic", {"tolerance": 0.3}),
            ("boundary-order[robin]", "asymptotic", {"tolerance": 1.7, "comparison": ">="}),
            ("boundary-order[mixed]", "asymptotic", {"tolerance": 1.7, "comparison": ">="})),
        _draw_pde, fixed=True),
    "factorization": _Sampled(2, (("asymptotic-polarization-match", "asymptotic"),
                                  ("factorization-pipeline", "algebraic")),
                              _draw_factorization),
}


#: The suites that read suite.n and suite.N; any other suite refuses them.
_SIZE_READERS = {"n": ("ybe", "reversibility", "reflection-equation", "involution", "permutation"),
                 "N": ("permutation",)}
