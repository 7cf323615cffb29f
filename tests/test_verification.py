import math

import numpy as np
import pytest

from vsolitons import (
    Mixed,
    NormingVector,
    Polarization,
    Robin,
    SolitonData,
    SpectralPoint,
    ValidationError,
    WindowError,
    boundary_residual,
    convergence_order,
    extract_asymptotic_polarization,
    pde_residual,
    projective_distance,
    sample_grid,
    solve_mirror_norming,
)
from vsolitons import cli
from vsolitons.asymptotics import beta_in, beta_out, min_relative_velocity
from vsolitons.dressing import reconstruct_field
from vsolitons.sampling import SampleLog, random_soliton_data
from vsolitons import verification
from vsolitons.verification import FieldGrid, _zoom_max

E1 = np.array([1.0, 0.0])

TWO_SOLITON = SolitonData.from_arrays(
    [-0.5, 0.5], [1.0, 1.2], [[1.0, 0.5 + 0.5j], [0.3 - 0.2j, 1.0]]
)


def grid_for_data(data, x0, x1, t0, t1, nx, nt):
    return sample_grid(lambda X, T: reconstruct_field(data, X, T), x0, x1, t0, t1, nx, nt)


def one_soliton_grid(h):
    data = SolitonData(2, ((SpectralPoint(0.4, 1.0), NormingVector([1.0, 0.5j])),))
    nx = int(round(6 / h)) + 1
    nt = int(round(2 / h)) + 1
    return grid_for_data(data, -3, 3, -1, 1, nx, nt)


class TestFieldGrid:
    def test_stencil_minimum(self):
        with pytest.raises(ValidationError):
            FieldGrid(0, 1, 0, 1, 4, 8, np.zeros((4, 8, 1), complex))

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            FieldGrid(0, 1, 0, 1, 5, 5, np.zeros((5, 6, 1), complex))

    def test_spacing(self):
        g = FieldGrid(0, 1, 0, 2, 11, 21, np.zeros((11, 21, 2), complex))
        assert g.hx == pytest.approx(0.1)
        assert g.ht == pytest.approx(0.1)
        assert g.n == 2


class TestPdeResidual:
    def test_zero_field_is_exact(self):
        g = FieldGrid(0, 1, 0, 1, 7, 7, np.zeros((7, 7, 2), complex))
        assert pde_residual(g) == 0.0

    def test_one_soliton_truncation_scale(self):
        g = one_soliton_grid(0.01)
        peak = float(np.max(np.abs(g.values)))
        assert pde_residual(g) < 1e-2 * peak

    def test_halving_h_quarters_residual(self):
        r1 = pde_residual(one_soliton_grid(0.02))
        r2 = pde_residual(one_soliton_grid(0.01))
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)

    def test_second_order_convergence(self):
        order = convergence_order(lambda h: pde_residual(one_soliton_grid(h)), [0.04, 0.02, 0.01])
        assert abs(order - 2.0) <= 0.3


def _whole_grid_residual(grid):
    """pde_residual's expression over the whole interior at once."""
    V = grid.values
    hx, ht = grid.hx, grid.ht
    Vi = V[1:-1, 1:-1]
    Rt = (V[1:-1, 2:] - V[1:-1, :-2]) / (2.0 * ht)
    Rxx = (V[2:, 1:-1] - 2.0 * Vi + V[:-2, 1:-1]) / (hx * hx)
    density = np.sum(np.abs(Vi) ** 2, axis=-1, keepdims=True)
    res = 1j * Rt + Rxx + 2.0 * density * Vi
    return float(np.max(np.abs(res))) if res.size else 0.0


ROWS = verification.PDE_ROW_BLOCK


class TestPdeResidualRowBlocks:
    @pytest.mark.parametrize("nx", [5, ROWS + 3, 3 * ROWS + 7])
    def test_equals_whole_grid_evaluation(self, nx):
        # n = 8 is where numpy's component sum turns from sequential to pairwise
        assert (nx - 2) % ROWS != 0
        for n in range(1, 10):
            data = random_soliton_data(np.random.default_rng(3 + n), 2, n)
            g = grid_for_data(data, -3, 3, -1, 1, nx, 23)
            assert g.n == n
            assert pde_residual(g) == _whole_grid_residual(g)

    def test_strided_views(self):
        for n in (1, 2, 3, 8):
            data = TWO_SOLITON if n == 2 else random_soliton_data(np.random.default_rng(n), 2, n)
            fine = grid_for_data(data, -4, 4, -1, 1, 4 * ROWS + 21, 41)
            for s in (2, 4):
                values = fine.values[::s, ::s]
                g = FieldGrid(-4, 4, -1, 1, *values.shape[:2], values)
                assert (g.nx - 2) % ROWS != 0
                assert pde_residual(g) == _whole_grid_residual(g)

    def test_nan_in_last_row_block(self):
        nx = 2 * ROWS + 7
        g = grid_for_data(TWO_SOLITON, -3, 3, -1, 1, nx, 11)
        values = g.values.copy()
        values[nx - 2, 5, 1] = np.nan  # an interior cell of the last row block
        assert math.isnan(pde_residual(FieldGrid(-3, 3, -1, 1, nx, 11, values)))

    @pytest.mark.parametrize(
        "value",
        [np.inf, -np.inf, complex(0.5, np.inf), complex(-np.inf, np.inf), np.nan],
        ids=["inf", "-inf", "inf-imag", "inf-both", "nan"],
    )
    @pytest.mark.parametrize(
        "cell",
        [(ROWS + 4, 5), (1, 1), (0, 5), (2 * ROWS + 6, 5), (ROWS, 0), (ROWS + 1, 10)],
        ids=["interior", "corner-interior", "first-row", "last-row", "first-col", "last-col"],
    )
    @pytest.mark.parametrize("component", [0, 1])
    def test_non_finite_cell(self, value, cell, component):
        # numpy's complex division and 1j * z make a nan of an infinite part
        # through their x*0 terms; the stencil must keep those nans, and the
        # infs of the edge rows, whose cells enter only R_xx
        nx = 2 * ROWS + 7
        values = grid_for_data(TWO_SOLITON, -3, 3, -1, 1, nx, 11).values.copy()
        values[cell + (component,)] = value
        g = FieldGrid(-3, 3, -1, 1, nx, 11, values)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _whole_grid_residual(g)
            got = pde_residual(g)
        assert not math.isfinite(expected)
        assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestPdeResidualContiguousCopy:
    """`cli._pde_order` hands pde_residual contiguous copies of its coarse
    strided views: the copy must give the view's bits, nan and inf included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_strided_view_and_its_copy_agree(self, n):
        data = TWO_SOLITON if n == 2 else random_soliton_data(np.random.default_rng(40 + n), 2, n)
        nx, nt = 4 * ROWS + 21, 41
        values = grid_for_data(data, -4, 4, -1, 1, nx, nt).values.copy()
        cells = {"nan": (8, 12), "inf": (4 * ROWS + 3, 21)}  # the inf in an edge row at s = 2
        values[cells["nan"] + (0,)] = np.nan
        values[cells["inf"] + (n - 1,)] = complex(np.inf, 0.5)
        seen = set()
        for s in (2, 4):
            for a in range(s):
                for b in range(s):
                    view = values[a::s, b::s]
                    copy = np.ascontiguousarray(view)
                    assert not view.flags.c_contiguous and copy.flags.c_contiguous
                    with np.errstate(invalid="ignore", over="ignore"):
                        got, want = (pde_residual(FieldGrid(-4, 4, -1, 1, *v.shape[:2], v))
                                     for v in (copy, view))
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    held = tuple(name for name, (r, c) in cells.items()
                                 if r % s == a and c % s == b)
                    assert math.isfinite(got) == (not held)
                    seen.add(held)
        assert seen == {(), ("nan",), ("inf",)}


class TestBoundaryResidual:
    def test_mixed_eigenvector_dirichlet_component_silent(self):
        real = SolitonData(2, ((SpectralPoint(0.8, 1.0), NormingVector(E1)),))
        hl = solve_mirror_norming(real, Mixed((1, -1)))
        # beta = e1 is an eigenvector of the boundary matrix: the sigma=-1
        # (Dirichlet) component is identically zero, so only the Neumann
        # derivative contributes FD noise
        assert boundary_residual(hl, np.linspace(-1, 1, 7), h=1e-3) < 1e-6

    def test_robin_second_order(self):
        real = SolitonData(
            2, ((SpectralPoint(0.7, 1.0), NormingVector([0.4 - 0.2j, 0.7 + 0.3j])),)
        )
        hl = solve_mirror_norming(real, Robin(0.9))
        ts = np.linspace(-1, 1, 7)
        order = convergence_order(lambda h: boundary_residual(hl, ts, h=h), [0.04, 0.02, 0.01])
        assert abs(order - 2.0) <= 0.3

    def test_generic_two_soliton_bounds(self):
        from vsolitons import RotatedMixed
        from vsolitons.sampling import draw_unitary, unitaries

        real = SolitonData.from_arrays(
            [0.5, 1.0], [1.0, 1.1], [[0.8, 0.5 + 0.4j], [1.0, -0.3 + 0.2j]]
        )
        ts = np.linspace(-0.8, 0.8, 5)
        rotated = RotatedMixed(unitaries(draw_unitary(np.random.default_rng(0), 2)), (1, -1))
        for spec in (Robin(0.6), Mixed((1, -1)), rotated):
            hl = solve_mirror_norming(real, spec)
            assert boundary_residual(hl, ts, h=1e-3) < 1e-4

    def test_mixed_superconverges(self):
        # sign-pattern boundaries give an exactly reflection-symmetric field;
        # the h^2 stencil term cancels and the Neumann residual decays ~ h^3
        real = SolitonData.from_arrays(
            [0.5, 1.0], [1.0, 1.1], [[0.8, 0.5 + 0.4j], [1.0, -0.3 + 0.2j]]
        )
        hl = solve_mirror_norming(real, Mixed((1, -1)))
        ts = np.linspace(-1, 1, 7)
        order = convergence_order(lambda h: boundary_residual(hl, ts, h=h), [0.04, 0.02, 0.01])
        assert order == pytest.approx(3.0, abs=0.3)


class TestExtraction:
    def test_one_soliton_recovers_polarization_and_position(self):
        pt = SpectralPoint(0.3, 1.1)
        nv = NormingVector([0.5, 1.2j])
        data = SolitonData(2, ((pt, nv),))
        [(pol, pos)] = extract_asymptotic_polarization(data, [0], [12.0])
        assert projective_distance(pol, Polarization(nv.beta)) < 1e-10
        assert pos == pytest.approx(pt.velocity * 12.0 + nv.position_shift(pt), abs=1e-6)

    @pytest.mark.parametrize("tsign,which", [(-1.0, beta_in), (1.0, beta_out)])
    def test_two_soliton_in_out(self, tsign, which):
        t = 16.0 * tsign
        for j in range(2):
            [(pol, pos)] = extract_asymptotic_polarization(TWO_SOLITON, [j], [t])
            b = which(j, TWO_SOLITON)
            assert projective_distance(pol, Polarization(b.beta)) < 1e-4
            pt = TWO_SOLITON.points[j][0]
            assert abs(pos - (pt.velocity * t + b.position_shift(pt))) < 1e-3

    def test_window_error_when_peak_outside(self):
        # |beta_0| = 1e8 shifts soliton 0 by ln(1e8) ~ 18 past the window's
        # cap, 0.45 of the distance to soliton 1 at t = 10
        data = SolitonData(2, ((SpectralPoint(0.3, 1.0), NormingVector([1e8, 0.0])),
                               (SpectralPoint(1.3, 1.0), NormingVector([0.0, 1.0]))))
        with pytest.raises(WindowError, match="envelope peak of soliton 0 not interior"):
            extract_asymptotic_polarization(data, [0], [10.0])


def _golden_max(fn, a, b, xtol):
    """Golden-section maximizer on [a, b], the refinement _zoom_max replaced."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


class TestPeakRefinement:
    # Within ~sqrt(eps)/v of the peak the envelope is flat to rounding, so no
    # refinement resolves the position better than that.  Here v * |zoom -
    # golden| reaches 3.0e-8 and v * |zoom - exact one-soliton peak| 1.8e-8;
    # the bounds are 1e-7/v.

    def test_zoom_matches_golden_section(self):
        rng = np.random.default_rng(60)
        for N in (1, 2, 3) * 4:
            data = random_soliton_data(rng, N, 2)
            pt = data.points[0][0]
            t = float(rng.uniform(-5, 5))
            xs = np.arange(pt.velocity * t - 20, pt.velocity * t + 20, 0.1 / pt.v)
            i = int(np.argmax(np.linalg.norm(reconstruct_field(data, xs, t), axis=-1)))
            if i in (0, xs.size - 1):
                continue
            a, b = xs[i - 1], xs[i + 1]
            [zoom] = _zoom_max(data, [t], [a], [b], 1e-10)
            golden = _golden_max(
                lambda x: float(np.linalg.norm(reconstruct_field(data, x, t))), a, b, 1e-10
            )
            assert a <= zoom <= b
            assert abs(zoom - golden) <= 1e-7 / pt.v

    def test_zoom_finds_exact_one_soliton_peak(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            pt = SpectralPoint(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            nv = NormingVector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            data = SolitonData(2, ((pt, nv),))
            t = float(rng.uniform(-5, 5))
            exact = pt.velocity * t + nv.position_shift(pt)
            h = 0.1 / pt.v
            for xtol in (1e-4, 1e-10):
                [zoom] = _zoom_max(data, [t], [exact - 0.7 * h], [exact + 1.3 * h], xtol)
                assert abs(zoom - exact) <= max(0.5 * xtol, 1e-7 / pt.v)

    def test_terminates_when_bracket_cannot_shrink(self):
        data = SolitonData(2, ((SpectralPoint(0.5, 1.0), NormingVector([0.5, 1.2j])),))
        # float spacing at 1e12 is 1.2e-4: the bracket never reaches 1e-10
        a, b = 1e12, 1e12 + 1e-3
        assert a <= _zoom_max(data, [0.0], [a], [b], 1e-10)[0] <= b

    def test_extraction_terminates_at_large_x(self):
        # peak near x = 2e6, where float spacing (1.2e-10) exceeds the 1e-10 goal
        pt = SpectralPoint(0.5, 1.0)
        nv = NormingVector([0.5, 1.2j])
        data = SolitonData(2, ((pt, nv),))
        t = -2e6
        [(pol, pos)] = extract_asymptotic_polarization(data, [0], [t])
        assert projective_distance(pol, Polarization(nv.beta)) < 1e-10
        assert pos == pytest.approx(pt.velocity * t + nv.position_shift(pt), abs=1e-6)


def _one_at_a_time(data, js, ts):
    """extract_asymptotic_polarization of each target alone, in order; the
    first error's message instead if one fails."""
    try:
        return [extract_asymptotic_polarization(data, [j], [t])[0] for j, t in zip(js, ts)]
    except WindowError as exc:
        return str(exc)


def _lockstep(data, js, ts):
    try:
        return extract_asymptotic_polarization(data, js, ts)
    except WindowError as exc:
        return str(exc)


def _assert_same_targets(together, alone):
    assert len(together) == len(alone)
    for (pol, peak), (pol1, peak1) in zip(together, alone):
        assert pol.p.tobytes() == pol1.p.tobytes()
        assert type(peak) is float and np.float64(peak).tobytes() == np.float64(peak1).tobytes()


class TestLockstepExtraction:
    """Several targets in one call get the bits of their one-target calls."""

    def test_factorization_targets_match_one_target_calls(self):
        rng = np.random.default_rng(71)
        for draw in range(50):
            N, n = 2 + draw % 2, 2 + draw // 2 % 2
            data = cli._moderate_collision_data(rng, N, n, SampleLog())
            T = 18.0 / (min(pt.v for pt, _ in data.points) * min_relative_velocity(data))
            targets = [(j, t) for j in range(N) for t in (-T, T)]
            if draw % 3 == 0:
                targets += [(j, 1.5 * t) for j, t in targets[:2]]
            rng.shuffle(targets)
            js, ts = zip(*targets)
            _assert_same_targets(extract_asymptotic_polarization(data, js, ts),
                                 _one_at_a_time(data, js, ts))

    def test_stalled_bracket_next_to_normal_targets(self):
        # at t = -2e6 the peak sits near x = 2e6, where float spacing (2.3e-10)
        # exceeds the 1e-10 goal: that bracket stops shrinking and leaves the
        # zoom while the targets at moderate t go on to 1e-10
        pt = SpectralPoint(0.5, 1.0)
        nv = NormingVector([0.5, 1.2j])
        data = SolitonData(2, ((pt, nv),))
        ts = [4.0, -2e6, -7.0, -2e6 + 3.0, 11.0]
        js = [0] * len(ts)
        together = extract_asymptotic_polarization(data, js, ts)
        _assert_same_targets(together, _one_at_a_time(data, js, ts))
        for (pol, peak), t in zip(together, ts):
            assert projective_distance(pol, Polarization(nv.beta)) < 1e-10
            assert peak == pytest.approx(pt.velocity * t + nv.position_shift(pt), abs=1e-6)

    @pytest.mark.parametrize("js,ts", [
        ((1, 0, 1), (10.0, 10.0, -10.0)),  # soliton 0's peak is outside its window
        ((1, 1, 0), (-10.0, 10.0, 10.0)),
        ((0, 1), (10.0, 0.01)),  # the first failure wins over a later narrow window
        ((1, 1), (10.0, 0.01)),  # a narrow window after a good target
        ((1, 0), (0.01, 10.0)),
    ])
    def test_first_failing_target_raises_its_own_error(self, js, ts):
        # |beta_0| = 1e8 shifts soliton 0 past its window's cap at |t| = 10
        data = SolitonData(2, ((SpectralPoint(0.3, 1.0), NormingVector([1e8, 0.0])),
                               (SpectralPoint(1.3, 1.0), NormingVector([0.0, 1.0]))))
        message = _one_at_a_time(data, js, ts)
        assert isinstance(message, str)
        assert _lockstep(data, js, ts) == message


class TestEnvelopeGroups:
    """_envelopes makes one field call per distinct scan time, with that time
    as a single t line, and gives each scan the bits of one flat call."""

    def test_grouped_calls_match_the_flat_concatenated_call(self, monkeypatch):
        rng = np.random.default_rng(81)
        for draw in range(6):
            data = random_soliton_data(rng, 1 + draw % 3, (1, 2, 8)[draw % 3])
            T = 12.0 + draw
            ts = [-T, T, 0.5, -T, T, T]
            scans = [np.sort(rng.uniform(-40, 40, size)) for size in (33, 1, 60, 7, 2, 33)]
            sizes = [xs.size for xs in scans]
            flat = reconstruct_field(data, np.concatenate(scans), np.repeat(ts, sizes))
            want = [np.array([np.linalg.norm(row) for row in part])
                    for part in np.split(flat, np.cumsum(sizes)[:-1])]
            calls = []

            def spy(data, x, t):
                calls.append((np.shape(x), np.shape(t)))
                return reconstruct_field(data, x, t)

            with monkeypatch.context() as m:
                m.setattr(verification, "reconstruct_field", spy)
                got = verification._envelopes(data, scans, ts)
            assert calls == [((sum(sizes[i] for i in group),), ())
                             for group in ((0, 3), (1, 4, 5), (2,))]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConvergenceOrder:
    def test_synthetic_quadratic(self):
        assert convergence_order(lambda h: 3.0 * h * h, [0.1, 0.05, 0.025]) == pytest.approx(2.0)

    def test_needs_three_spacings(self):
        with pytest.raises(ValidationError):
            convergence_order(lambda h: h, [0.1, 0.05])

    def test_geometric_spacings_enforced(self):
        with pytest.raises(ValidationError):
            convergence_order(lambda h: h, [0.1, 0.09, 0.002])

    def test_non_monotone_warns(self):
        vals = {0.1: 1.0, 0.05: 2.0, 0.025: 0.5}
        with pytest.warns(UserWarning, match="non-monotone"):
            convergence_order(lambda h: vals[h], [0.1, 0.05, 0.025])
