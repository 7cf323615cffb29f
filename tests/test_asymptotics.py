import numpy as np
import pytest

from vsolitons import (
    NormingVector,
    Polarization,
    SolitonData,
    SpectralPoint,
    ValidationError,
    beta_in,
    beta_out,
    blaschke_factor,
    collision_pair_residuals,
    intermediate_gamma,
    one_soliton_field,
    projective_distance,
    reconstruct_field,
    yb_schedule,
)
from vsolitons import asymptotics, cli
from vsolitons.asymptotics import _xi, check_velocity_ordered
from vsolitons.dressing import _blaschke
from vsolitons.soldata import _unit

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def xi_factor(j, l, spectators, data):
    """Positive norm ratio |gamma_{j,rho}| / |gamma_{j, l rho}| in closed form,
    from the two intermediate gammas it needs."""
    p_l_rho = _unit(intermediate_gamma(l, spectators, data))
    p_j_lrho = _unit(intermediate_gamma(j, tuple(spectators) + (l,), data))
    return _xi(j, l, p_l_rho[None], p_j_lrho[None], data.stack)[0]


def asymptotic_profile(data, x, t, direction):
    """Sum of one-soliton profiles with the in/out norming vectors.

    Approximates the exact field up to O(e^{-v w |t|}) terms; direction is
    "in" or "out".
    """
    if direction not in ("in", "out"):
        raise ValidationError('direction must be "in" or "out"')
    check_velocity_ordered(data)
    pick = beta_in if direction == "in" else beta_out
    xs = np.asarray(x, dtype=np.float64)
    ts = np.asarray(t, dtype=np.float64)
    total = np.zeros(np.broadcast(xs, ts).shape + (data.n,), dtype=np.complex128)
    for j in range(data.N):
        total = total + one_soliton_field(data.points[j][0], pick(j, data), xs, ts)
    return total


def ordered_data(rng, N, n):
    while True:
        us = np.sort(rng.uniform(-2.0, 2.0, N))
        if N == 1 or np.min(np.diff(us)) > 0.15:
            break
    pts = tuple(
        (
            SpectralPoint(u, rng.uniform(0.3, 1.8)),
            NormingVector(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        )
        for u in us
    )
    return SolitonData(n, pts)


class TestInOutNorming:
    def test_single_soliton_trivial(self):
        data = SolitonData(2, ((SpectralPoint(0.2, 1.0), NormingVector([1.0, 2.0j])),))
        assert np.allclose(beta_in(0, data).beta, [1.0, 2.0j])
        assert np.allclose(beta_out(0, data).beta, [1.0, 2.0j])

    def test_last_soliton_in_is_scalar_multiple(self):
        rng = np.random.default_rng(0)
        data = ordered_data(rng, 3, 2)
        j = data.N - 1
        expected = np.prod(
            [
                blaschke_factor(data.points[p][0], data.points[j][0].k.conjugate())
                for p in range(j)
            ]
        ) * data.points[j][1].beta
        assert np.allclose(beta_in(j, data).beta, expected, atol=1e-13)

    def test_first_soliton_out_is_scalar_multiple(self):
        rng = np.random.default_rng(1)
        data = ordered_data(rng, 3, 2)
        expected = np.prod(
            [
                blaschke_factor(data.points[p][0], data.points[0][0].k.conjugate())
                for p in range(1, data.N)
            ]
        ) * data.points[0][1].beta
        assert np.allclose(beta_out(0, data).beta, expected, atol=1e-13)

    def test_requires_velocity_ordering(self):
        data = SolitonData.from_arrays([1.0, -1.0], [1.0, 1.0], [E1, E2])
        with pytest.raises(ValidationError, match="strictly increasing"):
            beta_in(0, data)


class TestIntermediateGamma:
    def test_empty_spectators_single(self):
        data = SolitonData(2, ((SpectralPoint(0.1, 0.9), NormingVector([0.3, 1.0])),))
        assert np.allclose(intermediate_gamma(0, (), data), [0.3, 1.0])

    def test_in_state_coincides_with_full_spectator_set(self):
        rng = np.random.default_rng(2)
        data = ordered_data(rng, 3, 3)
        for j in range(3):
            g = intermediate_gamma(j, range(j + 1, 3), data)
            assert np.allclose(g, beta_in(j, data).beta, atol=1e-13)

    def test_frozen_brute_force_value(self):
        # N=3, n=2 fixed data; gamma_{0,{2}} evaluated independently from the
        # single-spectator chain formula
        data = SolitonData.from_arrays(
            [-1.0, 0.2, 1.1],
            [0.8, 1.3, 0.6],
            [[0.6, -0.2 + 0.4j], [1.0, 0.5j], [-0.3, 0.9]],
        )
        expected = np.array(
            [0.14941674070642424 + 0.9579712570164394j,
             -0.8174809797374199 + 0.17224007026126042j]
        )
        assert np.allclose(intermediate_gamma(0, (2,), data), expected, atol=1e-12)

    def test_spectator_validation(self):
        data = ordered_data(np.random.default_rng(3), 2, 2)
        with pytest.raises(ValidationError):
            intermediate_gamma(0, (0,), data)


class TestCollisionRelations:
    def test_random_two_soliton(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            data = ordered_data(rng, 2, 2)
            assert collision_pair_residuals(0, 1, (), data)[0] < 1e-10

    def test_orthogonal_polarizations_reduce_to_scalars(self):
        data = SolitonData.from_arrays([-0.6, 0.8], [1.0, 1.2], [E1, E2])
        assert collision_pair_residuals(0, 1, (), data)[0] < 1e-12
        # vanishing overlap: the norm ratio collapses to |f_j(k_l*)|
        expected = abs(
            blaschke_factor(data.points[0][0], data.points[1][0].k.conjugate())
        )
        assert xi_factor(0, 1, (), data) == pytest.approx(expected, abs=1e-13)

    def test_three_soliton_with_spectator(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            data = ordered_data(rng, 3, 3)
            assert collision_pair_residuals(0, 2, (1,), data)[0] < 1e-10
            assert collision_pair_residuals(0, 1, (2,), data)[0] < 1e-10
            assert collision_pair_residuals(1, 2, (0,), data)[0] < 1e-10

    def test_norm_ratio_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            data = ordered_data(rng, 3, 2)
            a = xi_factor(0, 2, (1,), data)
            b = xi_factor(2, 0, (1,), data)
            assert abs(a - b) < 1e-12

    def test_velocity_order_enforced(self):
        data = ordered_data(np.random.default_rng(7), 2, 2)
        with pytest.raises(ValidationError):
            collision_pair_residuals(1, 0, (), data)


def _reference_relations(j, l, sp, data):
    """The two relations' residual, every gamma built where it is used, each
    scalar a one-element array."""

    def unit(m, spect):
        g = intermediate_gamma(m, spect, data)
        return g / np.linalg.norm(g)

    kj, kl = data.ks[[j]], data.ks[[l]]
    p_l_rho, p_j_lrho = unit(l, sp), unit(j, sp + (l,))
    p_l_jrho, p_j_rho = unit(l, sp + (j,)), unit(j, sp)
    fjl, flj = _blaschke(kj, kl.conj()), _blaschke(kl, kj.conj())
    xi = np.array([xi_factor(j, l, sp, data)])
    cj = fjl.conj()
    rhs_l = (cj / xi) * (p_l_rho + (cj - 1.0) * np.vdot(p_j_lrho, p_l_rho)[None] * p_j_lrho)
    rhs_j = (flj / xi) * (p_j_lrho + (flj - 1.0) * np.vdot(p_l_rho, p_j_lrho)[None] * p_l_rho)
    return max(float(np.max(np.abs(p_l_jrho - rhs_l))), float(np.max(np.abs(p_j_rho - rhs_j))))


class TestCollisionPairResiduals:
    @pytest.mark.parametrize("N, n", [(2, 2), (3, 3), (4, 2)])
    def test_equal_to_separate_builds(self, N, n):
        rng = np.random.default_rng(8)
        for _ in range(5):
            data = ordered_data(rng, N, n)
            for j in range(N):
                for l in range(j + 1, N):
                    sp = tuple(m for m in range(N) if m not in (j, l))[:1]
                    rel, asym = collision_pair_residuals(j, l, sp, data)
                    assert rel == _reference_relations(j, l, sp, data)
                    xi_jl, xi_lj = xi_factor(j, l, sp, data), xi_factor(l, j, sp, data)
                    assert asym == abs(xi_jl - xi_lj) / max(xi_jl, xi_lj)

    def test_four_gammas_per_pair(self, monkeypatch):
        calls = []
        build = asymptotics.intermediate_gamma
        monkeypatch.setattr(
            asymptotics, "intermediate_gamma", lambda *a: calls.append(a[:2]) or build(*a)
        )
        collision_pair_residuals(0, 2, (1,), ordered_data(np.random.default_rng(9), 3, 2))
        assert sorted(calls) == [(0, (1,)), (0, (1, 2)), (2, (1,)), (2, (1, 0))]


class TestNormRatioSymmetryIsRelative:
    """norm-ratio-symmetry compares the two roots Xi_jl and Xi_lj relative to
    the larger: Xi grows as the velocities close, and an absolute gap with it."""

    @staticmethod
    def _check(seed):
        cfg = cli.parse_run_config({"mode": "verify", "suite": {"name": "collision", "seed": seed}})
        return {c.name: c for c in cli.run_property_suite(cfg).checks}["norm-ratio-symmetry"]

    def test_a_large_ratio_passes(self):
        # close velocities put Xi near 211; the absolute gap read 1.5e-12
        check = self._check(1649181705)
        assert check.passed and check.residual <= 1e-13

    def test_a_relative_defect_of_1e_9_fails(self, monkeypatch):
        xi = asymptotics._xi  # the second root of each pair is the one with j > l
        monkeypatch.setattr(asymptotics, "_xi",
                            lambda j, l, *a: xi(j, l, *a) * (1.0 + 1e-9 if j > l else 1.0))
        for seed in (0, 1649181705):
            check = self._check(seed)
            assert not check.passed
            assert 0.5e-9 <= check.residual <= 2e-9


class TestAsymptoticProfile:
    def test_single_soliton_exact(self):
        data = SolitonData(2, ((SpectralPoint(0.3, 1.0), NormingVector([1.0, 1.0j])),))
        xs = np.linspace(-4, 4, 9)
        a = asymptotic_profile(data, xs, 0.5, "in")
        b = one_soliton_field(data.points[0][0], data.points[0][1], xs, 0.5)
        assert np.allclose(a, b, atol=1e-14)

    @pytest.mark.parametrize("direction,tsign", [("in", -1.0), ("out", 1.0)])
    def test_matches_field_at_large_time(self, direction, tsign):
        data = SolitonData.from_arrays(
            [-0.5, 0.5],
            [1.0, 1.2],
            [[1.0, 0.5 + 0.5j], [0.3 - 0.2j, 1.0]],
        )
        t = 30.0 * tsign  # v * w_rel * |t| = 1 * 2 * 30, tail ~ e^-60
        xs = np.linspace(-80.0, 80.0, 321)
        dev = np.max(
            np.abs(
                reconstruct_field(data, xs, t)
                - asymptotic_profile(data, xs, t, direction)
            )
        )
        assert dev < 1e-8

    def test_direction_validated(self):
        data = SolitonData(1, ((SpectralPoint(0.0, 1.0), NormingVector([1.0])),))
        with pytest.raises(ValidationError):
            asymptotic_profile(data, 0.0, 0.0, "sideways")


class TestFactorizationAcrossOrders:
    def test_beta_out_from_yb_pipeline(self):
        from vsolitons.suites import collision_orders

        rng = np.random.default_rng(8)
        for N, n in [(2, 2), (3, 2), (3, 3)]:
            data = ordered_data(rng, N, n)
            ins = np.array([[Polarization(beta_in(j, data).beta).p for j in range(N)]])
            outs = [Polarization(beta_out(j, data).beta) for j in range(N)]
            for schedule in collision_orders(N):
                got = yb_schedule(ins, data.ks[None], schedule)[0]
                for a, b in zip(got, outs):
                    assert projective_distance(a, b) < 1e-10
