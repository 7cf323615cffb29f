import itertools
import math

import numpy as np
import pytest

from vsolitons import (
    NormingVector,
    Polarization,
    PoleError,
    SolitonData,
    SpectralPoint,
    blaschke_factor,
    build_reduced_chain,
    eval_chain,
    one_soliton_field,
    permutation_residuals,
    reconstruct_field,
    solve_mirror_norming,
)
from vsolitons import DomainError, halfline_field, sample_grid
from vsolitons import cli, dressing
from vsolitons.dressing import _chain_product, _full_directions
from vsolitons.errors import DegeneracyError
from vsolitons.sampling import SampleLog, boundary_spec, draw_boundary, random_soliton_data
from vsolitons.soldata import SolitonStack

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def columns(chain):
    """(k, z, conj(z)) triples with z of shape (d, 1), of a one-dataset reduced
    chain (its factors' ks one-element, z one (1, n) row) or a one-point full
    chain laid out as one (`full_chain`)."""
    return [(k[0], z.T, zc.T) for k, z, zc in chain]


def direction(chain, i):
    """Unit direction of factor i of a reduced or one-point full chain."""
    return columns(chain)[i][1][:, 0]


def full_chain(data, x, t, order=None):
    """The full chain at the single point (x, t), laid out as a one-dataset
    reduced chain, which `eval_chain` takes: (ks, z, conj(z)), z one row."""
    order = range(data.N) if order is None else order
    dirs = _full_directions(data, order, np.array([float(x)]), np.array([float(t)]))
    return [(k, z.T, zc.T) for k, z, zc in dirs]


def permutation_residual(data, order_a, order_b, ks, xts=()):
    return permutation_residuals(data, order_a, [order_b], ks, xts)[0]


def random_data(rng, N, n, positive=False):
    while True:
        us = np.sort(rng.uniform(0.1 if positive else -2.0, 2.0, N))
        if N == 1 or np.min(np.diff(us)) > 0.1:
            break
    pts = tuple(
        (
            SpectralPoint(u, rng.uniform(0.2, 2.0)),
            NormingVector(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        )
        for u in us
    )
    return SolitonData(n, pts)


class TestBlaschke:
    def test_at_origin(self):
        assert blaschke_factor(SpectralPoint(0.0, 1.0), 0.0) == pytest.approx(-1.0)

    def test_zero_at_eigenvalue(self):
        pt = SpectralPoint(0.7, 0.9)
        assert blaschke_factor(pt, pt.k) == 0.0

    def test_direct_value(self):
        assert blaschke_factor(SpectralPoint(1.0, 1.0), 1.0) == pytest.approx(-1j)

    def test_unit_modulus_on_real_axis(self):
        pt = SpectralPoint(-0.4, 1.3)
        for k in (-2.0, 0.3, 5.0):
            assert abs(blaschke_factor(pt, k)) == pytest.approx(1.0)

    def test_pole_error(self):
        pt = SpectralPoint(0.0, 1.0)
        with pytest.raises(PoleError):
            blaschke_factor(pt, pt.k.conjugate())


class TestReducedChain:
    def test_single_factor_direction_is_polarization(self):
        data = SolitonData(2, ((SpectralPoint(0.5, 1.0), NormingVector([3.0, 4.0j])),))
        chain = build_reduced_chain(data)
        expected = Polarization(data.points[0][1].beta).p
        ratio = direction(chain, 0)[0] / expected[0]
        assert np.allclose(direction(chain, 0), ratio * expected)
        assert abs(abs(ratio) - 1.0) < 1e-14

    def test_two_factor_recursion_frozen_oracle(self):
        # k1=(1+i)/2, k2=(-1+i)/2, beta1=e1, beta2=(e1+e2)/sqrt2:
        # xi2 = (I + (conj(f1(k2)) - 1) e1 e1^dag) beta2, evaluated directly
        data = SolitonData.from_arrays(
            [1.0, -1.0], [1.0, 1.0], [E1, (E1 + E2) / np.sqrt(2.0)]
        )
        chain = build_reduced_chain(data, (0, 1))
        expected = np.array([0.35355339059327373 - 0.35355339059327373j, 0.7071067811865476])
        got = direction(chain, 1) * np.linalg.norm(expected)
        phase = expected[1] / got[1]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.allclose(got * phase, expected, atol=1e-12)

    def test_orthogonal_norming_vectors_passthrough(self):
        data = SolitonData.from_arrays([0.4, 1.2], [1.0, 0.7], [E1, E2])
        chain = build_reduced_chain(data)
        assert np.allclose(np.abs(direction(chain, 1)), E2)

    def test_empty_chain_is_identity(self):
        data = random_data(np.random.default_rng(0), 2, 2)
        chain = build_reduced_chain(data, ())
        assert chain == ()
        product = _chain_product(chain, np.array([0.3 + 0.1j, -1.0]), 2, [])
        assert product.shape == (1, 2, 2, 2)
        assert np.array_equal(product[0], [np.eye(2)] * 2)

    def test_determinant_is_blaschke_product(self):
        rng = np.random.default_rng(1)
        data = random_data(rng, 3, 2)
        chain = build_reduced_chain(data)
        for _ in range(20):
            k = complex(rng.uniform(-3, 3), rng.uniform(0, 2))
            det = np.linalg.det(eval_chain(chain, k))
            prod = np.prod([blaschke_factor(pt, k) for pt, _ in data.points])
            assert abs(det - prod) <= 1e-12 * abs(prod)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_inverse_is_adjoint_at_conjugate(self, N):
        # each factor obeys d(k)^-1 = d(k*)^dag, so the whole chain does too;
        # the mirror solve recovers its betas through this identity
        rng = np.random.default_rng(40 + N)
        for n in (1, 2, 3):
            chain = build_reduced_chain(random_data(rng, N, n))
            for _ in range(20):
                k = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
                prod = eval_chain(chain, [k])[0] @ eval_chain(chain, [k.conjugate()])[0].conj().T
                assert np.max(np.abs(prod - np.eye(n))) <= 1e-13

    def test_large_real_k_tends_to_identity(self):
        data = random_data(np.random.default_rng(2), 3, 3)
        chain = build_reduced_chain(data)
        dev = np.max(np.abs(eval_chain(chain, 1e8) - np.eye(3)))
        assert dev < 1e-7

    def test_chain_inverse_is_dagger_at_conjugate(self):
        # d^-1(k) = d(k*)^dag for the whole chain, at stacked k: the identity
        # behind a_matrix's factored form
        rng = np.random.default_rng(3)
        for N, n in [(1, 2), (2, 2), (3, 3), (5, 4)]:
            chain = build_reduced_chain(random_data(rng, N, n))
            ks = rng.uniform(-1, 1, 6) + 1j * rng.uniform(0.1, 1.0, 6)
            prod = eval_chain(chain, ks) @ eval_chain(chain, ks.conj()).conj().transpose(0, 2, 1)
            assert np.max(np.abs(prod - np.eye(n))) < 1e-12

    def test_amplitude_below_the_pole_tolerance_builds(self):
        # v = 5e-14 puts k within POLE_EVAL_TOL of its own conjugate; a chain
        # never evaluates a factor at its own point, so every order builds
        data = SolitonData.from_arrays([0.3, 0.9], [5e-14, 0.8], [[1.0, 0.5j], [0.2, 1.0]])
        for order in ((0, 1), (1, 0)):
            chain = build_reduced_chain(data, order)
            for i in order:
                z = direction(chain, i)
                assert np.isfinite(z).all() and abs(np.linalg.norm(z) - 1.0) < 1e-15
        first = direction(build_reduced_chain(data, (0, 1)), 0)
        assert np.array_equal(first, Polarization(data.points[0][1].beta).p)

    def test_degenerate_chain_impossible_for_distinct_poles(self):
        # orthogonal beta annihilated by the projector still leaves |xi| = |beta|
        data = SolitonData.from_arrays([0.3, 0.9], [1.0, 1.0], [E1, E2])
        chain = build_reduced_chain(data)
        assert len(chain) == 2


class TestChainApply:
    @pytest.mark.parametrize("N,n", [(1, 2), (3, 2), (4, 5)])
    def test_matches_explicit_products(self, N, n):
        rng = np.random.default_rng(20 + N + n)
        chain = build_reduced_chain(random_data(rng, N, n))
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for k in rng.uniform(-2, 2, 3) + 1j * rng.uniform(0.1, 2, 3):
            prod = _ref_product(chain, k)
            got = dressing._chain_apply(chain, [k], vec[None])[0]
            assert np.allclose(got, prod @ vec, atol=1e-13)
            got = dressing._chain_apply(chain, [k], vec[None], dagger=True)[0]
            assert np.allclose(got, prod.conj().T @ vec, atol=1e-13)
        assert dressing._chain_apply((), 0.5j, vec) is vec

    def test_unit_is_shared_and_raises_on_zero(self):
        from vsolitons import asymptotics, maps, sampling, soldata
        from vsolitons.errors import DegeneracyError

        assert all(module._unit is soldata._unit for module in (asymptotics, dressing, maps, sampling))
        assert np.allclose(soldata._unit(np.array([3.0, 4.0j])), [0.6, 0.8j], rtol=0, atol=1e-15)
        with pytest.raises(DegeneracyError):
            soldata._unit(np.zeros(2, dtype=complex))


class TestFullChain:
    def test_origin_direction(self):
        data = SolitonData(2, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))
        z = direction(full_chain(data, 0.0, 0.0), 0)
        expected = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        phase = z[0] / expected[0]
        assert np.allclose(z, phase * expected, atol=1e-14)

    def test_exponent_profile_matches_phase(self):
        # Im phi(x, 0, k*) = -x/2 for k = i/2, so the seed direction is
        # proportional to (e^{-x/2}, 0, -e^{x/2}); ratios verified at x=1.3
        data = SolitonData(2, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))
        z = direction(full_chain(data, 1.3, 0.0), 0)
        assert z[0] / z[2] == pytest.approx(-np.exp(-1.3), abs=1e-12)
        assert abs(z[1]) == 0.0

    def test_projector_is_rank_one_orthogonal(self):
        rng = np.random.default_rng(4)
        data = random_data(rng, 3, 2)
        chain = full_chain(data, 0.7, -0.4)
        for i in range(len(chain)):
            P = np.outer(direction(chain, i), direction(chain, i).conj())
            assert np.max(np.abs(P @ P - P)) < 1e-12
            assert np.max(np.abs(P - P.conj().T)) < 1e-12

    def test_inverse_is_dagger_at_conjugate_point(self):
        rng = np.random.default_rng(5)
        data = random_data(rng, 2, 2)
        chain = full_chain(data, 0.2, 0.1)
        k = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.5))
        M = eval_chain(chain, k)
        Mdag = eval_chain(chain, k.conjugate()).conj().T
        assert np.max(np.abs(M @ Mdag - np.eye(3))) < 1e-12

    def test_extreme_exponents_stay_finite(self):
        data = SolitonData(2, ((SpectralPoint(1.5, 2.0), NormingVector([1.0, 1.0])),))
        chain = full_chain(data, 800.0, 100.0)
        assert np.all(np.isfinite(direction(chain, 0).view(np.float64)))


class TestReconstruction:
    def test_sech_soliton_at_origin(self):
        data = SolitonData(2, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))
        val = reconstruct_field(data, 0.0, 0.0)
        assert np.allclose(val, E1, atol=1e-14)

    def test_sech_profile_and_phase(self):
        data = SolitonData(2, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))
        xs = np.linspace(-3, 3, 11)
        val = reconstruct_field(data, xs, 0.7)
        expect = np.exp(0.7j) / np.cosh(xs)
        assert np.allclose(val[:, 0], expect, atol=1e-12)
        assert np.allclose(val[:, 1], 0.0)

    def test_matches_closed_form_over_random_sample(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-5, 5, 50)
        ts = rng.uniform(-3, 3, 50)
        for n in (1, 2, 3):
            pt = SpectralPoint(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            nv = NormingVector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            data = SolitonData(n, ((pt, nv),))
            dev = np.max(
                np.abs(reconstruct_field(data, xs, ts) - one_soliton_field(pt, nv, xs, ts))
            )
            assert dev < 1e-12

    @pytest.mark.parametrize("size", [1.1e-170, 1.1e170])
    def test_closed_form_at_extreme_beta_scales(self, size):
        # |beta| outside _SAFE_NORM, where its squares underflow or overflow;
        # the envelope sits at ln|beta|/v = +-391.5
        pt = SpectralPoint(0.5, 1.0)
        nv = NormingVector(size * np.array([0.6, 0.8j]))
        data = SolitonData(2, ((pt, nv),))
        xs = np.sign(math.log(size)) * 390.0 + np.linspace(-3.0, 3.0, 13)
        want = reconstruct_field(data, xs, 0.0)
        assert np.max(np.linalg.norm(want, axis=-1)) > 0.7  # the peak is in the window
        for beta in (nv, nv.beta):
            assert np.max(np.abs(one_soliton_field(pt, beta, xs, 0.0) - want)) < 1e-12

    def test_beta_phase_scales_field(self):
        pt = SpectralPoint(0.4, 1.1)
        b = np.array([0.6, 0.3 - 0.2j])
        theta = 0.83
        a = one_soliton_field(pt, b, 1.2, -0.4)
        c = one_soliton_field(pt, np.exp(1j * theta) * b, 1.2, -0.4)
        assert np.allclose(c, np.exp(1j * theta) * a, atol=1e-14)

    def test_peak_position_log_beta(self):
        data = SolitonData(1, ((SpectralPoint(0.0, 1.0), NormingVector([2.0])),))
        xs = np.linspace(0.0, 1.5, 30001)
        env = np.abs(reconstruct_field(data, xs, 0.0))[:, 0]
        assert xs[np.argmax(env)] == pytest.approx(np.log(2.0), abs=1e-4)

    def test_two_orders_agree(self):
        rng = np.random.default_rng(7)
        data = random_data(rng, 2, 2)
        xs = rng.uniform(-3, 3, 20)
        ts = rng.uniform(-2, 2, 20)
        a = reconstruct_field(data, xs, ts)
        b = dressing._field(data, (1, 0), _full_directions(data, (1, 0), xs, ts)).T
        assert np.max(np.abs(a - b)) < 1e-10


class TestPermutationResidual:
    def test_identical_orders_zero(self):
        data = random_data(np.random.default_rng(8), 3, 2)
        ks = [0.3 + 0.2j, -1.0 + 0.5j]
        assert permutation_residual(data, (0, 1, 2), (0, 1, 2), ks) == 0.0

    def test_requires_same_index_set(self):
        data = random_data(np.random.default_rng(9), 3, 2)
        with pytest.raises(ValueError):
            permutation_residual(data, (0, 1), (1, 2), [0.5j])

    @pytest.mark.parametrize("N,n", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_all_orders_agree(self, N, n):
        rng = np.random.default_rng(10 + N + n)
        data = random_data(rng, N, n)
        ks = [complex(rng.uniform(-2, 2), rng.uniform(0, 2)) for _ in range(8)]
        xts = [(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(3)]
        ref = tuple(range(N))
        for order in itertools.permutations(range(N)):
            assert permutation_residual(data, ref, order, ks, xts) < 1e-10


# --- batched kernel against the row-major per-point kernel it replaced ------------


def _ref_blaschke(k0, k):
    den = k - k0.conjugate()
    if abs(den) < 1e-13:
        raise PoleError(f"evaluation point {k} hits the pole at conj({k0})")
    return (k - k0) / den


def _ref_seed_batch(beta, k, x, t):
    ph = k.conjugate() * x + (2.0 * k.conjugate() ** 2) * t
    a = np.real(ph)
    b = np.imag(ph)
    s = np.abs(b)
    top = np.exp(-1j * a + (b - s))
    bot = -np.exp(1j * a + (-b - s))
    out = np.empty(x.shape + (beta.size + 1,), dtype=np.complex128)
    out[..., : beta.size] = top[..., None] * beta
    out[..., beta.size] = bot
    return out


def _ref_full_directions(data, idx, x_flat, t_flat):
    dirs = []
    for i in idx:
        point, nv = data.points[i]
        k = point.k
        w = _ref_seed_batch(nv.beta, k, x_flat, t_flat)
        for k_prev, z_prev in dirs:
            c = _ref_blaschke(k_prev, k).conjugate()
            inner = np.einsum("mc,mc->m", z_prev.conj(), w)
            w = w + (c - 1.0) * inner[:, None] * z_prev
        mag = np.max(np.abs(w), axis=1, keepdims=True)
        w = w / mag
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        dirs.append((k, w))
    return dirs


def _reference_field(data, x, t, order=None):
    xs, ts = np.broadcast_arrays(
        np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)
    )
    xf = xs.reshape(-1)
    tf = ts.reshape(-1)
    idx = tuple(range(data.N)) if order is None else order
    field = np.zeros((xf.size, data.n), dtype=np.complex128)
    for i, (k, z) in zip(idx, _ref_full_directions(data, idx, xf, tf)):
        v = data.points[i][0].v
        field += (-2.0 * v) * z[:, : data.n] * z[:, data.n].conj()[:, None]
    return field.reshape(xs.shape + (data.n,))


def _assert_matches_reference(data, x, t):
    """Batched field within 1e-12 of the reference, relative to max(1, |R|).

    Where the chain is ill-conditioned both kernels round away from the exact
    field by more than that (seen up to 5e-11 against an extended-precision
    closed form, the two equally far).  The reference's own disagreement
    between the forward and reversed factor orders measures that rounding,
    so twice it widens the bound; on most data it is far below 1e-12.
    """
    ref = _reference_field(data, x, t)
    rev = _reference_field(data, x, t, order=tuple(reversed(range(data.N))))
    got = reconstruct_field(data, x, t)
    assert got.shape == ref.shape
    scale = np.maximum(1.0, np.abs(ref))
    spread = np.max(np.abs(rev - ref) / scale)
    assert spread <= 1e-10
    assert np.max(np.abs(got - ref) / scale) <= 1e-12 + 2.0 * spread
    return got


def _ref_product(chain, k):
    """The chain's product at k from explicit factor matrices."""
    chain = columns(chain)
    out = np.eye(chain[0][1].shape[0], dtype=np.complex128)
    for k0, z, zc in chain:
        out = out @ (np.eye(z.shape[0]) + (_ref_blaschke(k0, k) - 1.0) * (z @ zc.T))
    return out


@pytest.mark.numpy_floor
class TestBatchedKernel:
    @pytest.mark.parametrize("points", [1, 2047, 2048, 2049])
    def test_matches_reference_kernel(self, points):
        rng = np.random.default_rng(points)
        for N in range(1, 9):
            for n in (1, 2, 3, 8):
                data = random_data(rng, N, n)
                x = rng.uniform(-50, 50, points)
                t = rng.uniform(-20, 20, points)
                assert _assert_matches_reference(data, x, t).shape == (points, n)

    def test_block_boundaries_keep_grid_shape(self):
        data = random_data(np.random.default_rng(30), 3, 2)
        X, T = np.meshgrid(np.linspace(-4, 4, 97), np.linspace(-1, 1, 43), indexing="ij")
        assert _assert_matches_reference(data, X, T).shape == (97, 43, 2)

    def test_extreme_points_and_tiny_beta_stay_finite(self):
        # A tiny |beta| puts soliton j near x = ln|beta_j|/v_j, where both seed
        # blocks are ~|beta|; below |beta| ~ 1e-154 their squares underflow
        # (1e-160 is near the smallest norm NormingVector accepts), and the
        # max |re|, |im| scale guard before the 2-norm keeps the field exact.
        rng = np.random.default_rng(31)
        for N, n in [(1, 2), (3, 2), (4, 3), (2, 8)]:
            data = random_data(rng, N, n)
            for size in (None, 1e-150, 1e-160):
                d = data if size is None else SolitonData(
                    n, tuple((pt, NormingVector(size * nv.beta / nv.norm)) for pt, nv in data.points)
                )
                centers = [nv.position_shift(pt) for pt, nv in d.points]
                x = np.array([800.0, -800.0, 800.0, -800.0, 0.0, *centers])
                t = np.array([100.0, 100.0, -100.0, -100.0, 0.0, *([0.0] * N)])
                got = _assert_matches_reference(d, x, t)
                assert np.all(np.isfinite(got.view(np.float64)))
                assert size is None or np.max(np.abs(got)) > 0.1

    def test_stacked_products_match_per_k_products(self):
        rng = np.random.default_rng(32)
        data = random_data(rng, 4, 3)
        ks = np.array([complex(rng.uniform(-2, 2), rng.uniform(0, 2)) for _ in range(7)])
        reduced = build_reduced_chain(data, (2, 0, 3, 1))
        stacked = eval_chain(reduced, ks)
        assert stacked.shape == (7, 3, 3)
        full = full_chain(data, 0.4, -0.3)
        stacked_full = eval_chain(full, ks)
        assert stacked_full.shape == (7, 4, 4)
        for k, a, b in zip(ks, stacked, stacked_full):
            assert np.max(np.abs(a - _ref_product(reduced, k))) <= 1e-13
            assert np.max(np.abs(b - _ref_product(full, k))) <= 1e-13
        assert np.max(np.abs(eval_chain(reduced, ks[0]) - stacked[0])) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2])
    def test_leading_ks_keep_their_bits(self, n):
        # at n = 1 numpy rounds a one-k product its own way; eval_chain sends
        # a lone k as two, so every k gets the bits it has inside a longer call
        rng = np.random.default_rng(33 + n)
        for c in range(100):
            chain = build_reduced_chain(random_data(rng, 1 + c % 4, n))
            ks = [complex(rng.uniform(-3, 3), rng.uniform(0, 2.5)) for _ in range(8)]
            full = eval_chain(chain, ks)
            for K in range(1, 8):
                assert eval_chain(chain, ks[:K]).tobytes() == full[:K].tobytes()
            assert eval_chain(chain, ks[0]).tobytes() == full[0].tobytes()


def _scaled_data(data, size):
    """data with every |beta_j| set to size, its polarizations kept."""
    return SolitonData(data.n, tuple((pt, NormingVector(size * nv.beta / nv.norm))
                                     for pt, nv in data.points))


def _fallback_grid():
    """A 121 x 41 grid with x = -800, 800 and t = -100, 100 among its lines."""
    xs, ts = np.linspace(-6.0, 6.0, 121), np.linspace(-2.0, 2.0, 41)
    xs[[30, 90]] = -800.0, 800.0
    ts[[10, 30]] = -100.0, 100.0
    return xs, ts


def _seed_fallback_points(data, xs, ts):
    """How many (point, soliton) pairs have both line exponents |q_x|, |q_t|
    past the seed's limit ln(1e150) - |ln|beta||/2."""
    count = 0
    for pt, nv in data.points:
        kc = pt.k.conjugate()
        limit = -math.log(1e-150) - 0.5 * abs(math.log(nv.norm))
        count += np.sum(np.abs(kc.imag * xs) > limit) * np.sum(np.abs((2 * kc * kc).imag * ts) > limit)
    return count


@pytest.mark.numpy_floor
class TestPerPointFallbacks:
    """The kernel's two safety fallbacks, the per-point stabilized seed and the
    scaled normalisation, are chosen per point from the point's own values:
    extreme points mixed into ordinary grid blocks get the bits of their
    lone-point calls at any blocking, and stay within the reference bound."""

    @pytest.mark.parametrize("size,N,n,seed", [(1e-160, 3, 2, 170), (1e150, 2, 8, 150)])
    def test_extreme_points_in_grid_blocks(self, monkeypatch, size, N, n, seed):
        data = _scaled_data(random_data(np.random.default_rng(seed), N, n), size)
        xs, ts = _fallback_grid()
        assert _seed_fallback_points(data, xs, ts) > 0
        rescaled, real_rescale = [], dressing._rescale

        def rescale(w, sq):
            rescaled.append(sq.size)
            return real_rescale(w, sq)

        want = reconstruct_field(data, xs[:, None], ts[None, :])
        with monkeypatch.context() as m:
            m.setattr(dressing, "_rescale", rescale)
            for cells in (dressing.FIELD_BLOCK_CELLS, 45, 31, 1):
                m.setattr(dressing, "FIELD_BLOCK_CELLS", cells)
                _assert_same_bytes(reconstruct_field(data, xs[:, None], ts[None, :]), want)
        assert rescaled  # some points took the scaled normalisation
        for i, j in itertools.product(range(xs.size), range(ts.size)):
            _assert_same_bytes(reconstruct_field(data, xs[i], ts[j]), want[i, j])
        X, T = np.meshgrid(xs, ts, indexing="ij")
        _assert_same_bytes(_assert_matches_reference(data, X, T), want)
        _assert_same_bytes(_complex_field(data, X.ravel(), T.ravel()), want.reshape(-1, n))

    def test_stack_rows_take_their_own_fallbacks(self):
        # three samples of one shape whose |beta| (1e150, 1, 1e-160) set three
        # seed limits: each row of the stacked seeds, directions and field has
        # the bits of its sample alone, at extreme and ordinary points alike
        rng = np.random.default_rng(180)
        datasets = [_scaled_data(random_data(rng, 3, 2), size) for size in (1e150, 1.0, 1e-160)]
        x, t = (a.ravel() for a in np.meshgrid([-3000.0, 3000.0, -400.0, 400.0, 0.3, -1.2],
                                               [-400.0, 400.0, 0.7], indexing="ij"))
        order = np.array([rng.permutation(x.size) for _ in datasets])
        X, T = x[order], t[order]  # (S, P): each sample's points in its own order

        def fallbacks(data, x, t):
            """Points where both line exponents pass one soliton's seed limit."""
            count = 0
            for pt, nv in data.points:
                lim = -math.log(1e-150) - 0.5 * abs(math.log(nv.norm))
                past = (np.abs(pt.k.imag * x) > lim) & (np.abs((2 * pt.k ** 2).imag * t) > lim)
                count += int(np.sum(past))
            return count

        counts = [fallbacks(d, x, t) for d, x, t in zip(datasets, X, T)]
        assert len(set(counts)) > 1 and max(counts) > 0
        stack = SolitonStack(tuple(data.points for data in datasets))
        idx = (2, 0, 1)
        seeds = list(dressing._seed_batch(stack, idx, X, T))
        dirs = _full_directions(stack, idx, X, T)
        field = dressing._field(stack, idx, dirs).reshape(2, 3, -1)
        for s, data in enumerate(datasets):
            one = _full_directions(data, idx, X[s], T[s])
            cols = slice(s * X.shape[1], (s + 1) * X.shape[1])
            for a, b in zip(seeds, dressing._seed_batch(data, idx, X[s], T[s])):
                _assert_same_bytes(a[:, cols], b)
            for (ka, za, _), (kb, zb, _) in zip(dirs, one):
                assert ka[s] == kb[0]
                _assert_same_bytes(za[:, cols], zb)
            _assert_same_bytes(field[:, s], dressing._field(data, idx, one))


def _reference_permutation_residual(data, order_a, order_b, ks, xts):
    """Per-k, per-point loop over explicit factor matrices."""
    ca = build_reduced_chain(data, order_a)
    cb = build_reduced_chain(data, order_b)
    res = 0.0
    for k in ks:
        res = max(res, np.max(np.abs(_ref_product(ca, k) - _ref_product(cb, k))))
    for x, t in xts:
        fa, fb = full_chain(data, x, t, order_a), full_chain(data, x, t, order_b)
        for k in ks[:3]:
            diff = _ref_product(fa, k) - _ref_product(fb, k)
            res = max(res, np.max(np.abs(diff)))
        ra = _reference_field(data, x, t, order=order_a)
        rb = _reference_field(data, x, t, order=order_b)
        res = max(res, np.max(np.abs(ra - rb)))
    return float(res)


class TestBatchedPermutationResidual:
    @pytest.mark.parametrize("N,n", [(2, 2), (3, 3), (4, 2)])
    def test_matches_per_point_reference(self, N, n):
        rng = np.random.default_rng(40 + N + n)
        data = random_data(rng, N, n)
        ks = [complex(rng.uniform(-2, 2), rng.uniform(0, 2)) for _ in range(20)]
        xts = [(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(5)]
        ref = tuple(range(N))
        for order in itertools.permutations(range(N)):
            got = permutation_residual(data, ref, order, ks, xts)
            expected = _reference_permutation_residual(data, ref, order, ks, xts)
            assert got < 1e-10 and expected < 1e-10
            assert abs(got - expected) <= 1e-12

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_suite_reference_once_per_draw(self, N):
        # the permutation suite's draw compares every other order with the
        # reference images computed once; each value must be the two-order one
        n = 2
        draw_rng = np.random.default_rng(50 + N)
        instance = cli._draw_permutation(None, draw_rng, SampleLog(), 0, ("", (N, n)))
        worst = cli._permutation_stack([instance])[0][0]
        rng = np.random.default_rng(50 + N)
        data = random_soliton_data(rng, N, n, log=SampleLog())
        ks = [complex(rng.uniform(-2, 2), rng.uniform(0.0, 2.0)) for _ in range(20)]
        xts = [(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(5)]
        ref = tuple(range(N))
        orders = [o for o in itertools.permutations(range(N)) if o != ref]
        each = permutation_residuals(data, ref, orders, ks, xts)
        assert each == [permutation_residual(data, ref, o, ks, xts) for o in orders]
        assert worst == max([0.0, *each])

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_shared_seeds_and_coefficients_match_per_order_oracle(self, N):
        # each factor's seed and coefficients are computed once per call and
        # shared by every order; the oracle computes them afresh per order
        rng = np.random.default_rng(60 + N)
        for n in (1, 2, 3):
            data = random_data(rng, N, n)
            ks = [complex(rng.uniform(-2, 2), rng.uniform(0.0, 2.0)) for _ in range(20)]
            xts = [(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(5)]
            orders = list(itertools.permutations(range(N)))[:8]
            got = permutation_residuals(data, orders[0], orders[1:], ks, xts)
            assert got == _oracle_permutation_residuals(data, orders[0], orders[1:], ks, xts)

    def test_residuals_require_same_index_set(self):
        data = random_data(np.random.default_rng(47), 3, 2)
        with pytest.raises(ValueError):
            permutation_residuals(data, (0, 1, 2), [(2, 1, 0), (0, 1)], [0.5j])

    def test_identical_orders_exactly_zero_with_points(self):
        rng = np.random.default_rng(45)
        data = random_data(rng, 4, 3)
        ks = [complex(rng.uniform(-2, 2), rng.uniform(0, 2)) for _ in range(20)]
        xts = [(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(5)]
        assert permutation_residual(data, (3, 1, 0, 2), (3, 1, 0, 2), ks, xts) == 0.0

    def test_pole_sample_raises(self):
        data = random_data(np.random.default_rng(46), 3, 2)
        ks = [0.3 + 0.2j, data.points[1][0].k.conjugate(), -1.0 + 0.5j]
        with pytest.raises(PoleError):
            permutation_residual(data, (0, 1, 2), (2, 1, 0), ks, [(0.1, 0.2)])


def _oracle_permutation_residuals(data, reference, orders, ks, xts):
    """permutation_residuals with every order's seeds and update coefficients
    computed afresh, inside `_full_directions` and `_chain_product`."""
    ks = np.array(ks, dtype=np.complex128)
    x, t = np.array(xts, dtype=np.float64).reshape(-1, 2).T

    def images(idx):
        dirs = _full_directions(data, idx, x, t)
        reduced = build_reduced_chain(data, idx)
        return [_chain_product(reduced, ks, data.n,
                               [dressing._blaschke(k[0], ks) - 1.0 for k, _, _ in reduced]),
                _chain_product([(k, z.T, zc.T) for k, z, zc in dirs], ks[:3], data.n + 1,
                               [dressing._blaschke(k[0], ks[:3]) - 1.0 for k, _, _ in dirs]),
                dressing._field(data, idx, dirs)]

    ref = images(reference)
    return [float(np.max([np.max(np.abs(a - b)) for a, b in zip(ref, images(idx))]))
            for idx in orders]


# --- permutation residuals: the one-dataset call and every stack row against a pin ---
# A frozen copy of the one-dataset permutation residuals before they were stacked:
# each full-chain update coefficient and field scale a Python number, one (K,) row
# of reduced-chain coefficients per factor.  The seeds are the kernel's own, whose
# bits `TestFieldBytes` pins.


def _frozen_permutation_residuals(data, reference, orders, ks, xts):
    ks = np.array([complex(k) for k in ks], dtype=np.complex128)
    x, t = np.array(list(xts), dtype=np.float64).reshape(-1, 2).T
    build_reduced_chain(data, reference)
    seeds = dict(zip(reference, dressing._seed_batch(data, reference, x, t)))
    coeffs = dict(zip(reference, dressing._blaschke(data.ks[list(reference), None], ks) - 1.0))

    def product(dirs, kk, d, rows):
        out = np.broadcast_to(np.eye(d, dtype=np.complex128), (len(dirs[0][1]), kk.size, d, d))
        out = out.copy()
        for (_, z, zc), c in zip(dirs, rows):
            out += (out @ z[:, None, :, None]) * (c[:, None, None] * zc[:, None, None, :])
        return out

    def images(idx):
        dirs = []
        for i in idx:
            w, k = seeds[i].copy(), data.points[i][0].k
            for k_prev, z, zc in dirs:
                inner = np.add.reduce(zc * w, axis=0)
                inner *= dressing._blaschke(k_prev, k).conjugate() - 1.0
                w += inner * z
            sq = dressing._squared_norms(w)
            lo, hi = dressing._SAFE_SQUARES
            if not (lo <= sq.min() and sq.max() <= hi):
                dressing._rescale(w, sq)
            w *= 1.0 / np.sqrt(sq)
            dirs.append((k, w, w.conj()))
        field = np.zeros((data.n, x.size), dtype=np.complex128)
        for i, (_, z, zc) in zip(idx, dirs):
            field += z[: data.n] * ((-2.0 * data.points[i][0].v) * zc[data.n])
        return [product(build_reduced_chain(data, idx), ks, data.n, [coeffs[i] for i in idx]),
                product([(k, z.T, zc.T) for k, z, zc in dirs], ks[:3], data.n + 1,
                        [coeffs[i][:3] for i in idx]),
                field]

    ref = images(reference)
    return [float(np.max([np.max(np.abs(a - b), initial=0.0) for a, b in zip(ref, images(idx))]))
            for idx in orders]


def _permutation_case(seed, N, n, S, K=20, P=5):
    """S random datasets of one shape with their (S, K) ks and (S, P, 2) points,
    drawn as the suite draws them, and the orders the suite compares."""
    rng = np.random.default_rng(seed)
    datasets = [random_soliton_data(rng, N, n, log=SampleLog()) for _ in range(S)]
    ks = rng.uniform(-2, 2, (S, K)) + 1j * rng.uniform(0.0, 2.0, (S, K))
    xts = np.stack([rng.uniform(-3, 3, (S, P)), rng.uniform(-2, 2, (S, P))], axis=-1)
    ref = tuple(range(N))
    return datasets, ks, xts, ref, [o for o in itertools.permutations(ref) if o != ref]


def _assert_permutation_rows_match_pin(seed, N, n, S, **sizes):
    datasets, ks, xts, ref, orders = _permutation_case(seed, N, n, S, **sizes)
    stack = SolitonStack(tuple(data.points for data in datasets))
    rows = permutation_residuals(stack, ref, orders, ks, xts)
    assert rows.shape == (len(orders), S)
    for s, data in enumerate(datasets):
        one = permutation_residuals(data, ref, orders, ks[s], xts[s])
        assert np.array(one).tobytes() == rows[:, s].tobytes()
        if sizes.get("P", 5) > 1 and sizes.get("K", 20) > 1:
            assert one == _frozen_permutation_residuals(data, ref, orders, ks[s], xts[s])


@pytest.mark.numpy_floor
class TestPermutationPin:
    """The one-dataset call keeps the bits of the per-dataset computation it
    replaced, and each row of a stacked call the bits of its one-dataset call."""

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_the_frozen_one_dataset_call(self, N, n):
        _assert_permutation_rows_match_pin(70 + 10 * N + n, N, n, S=(1, 3, 5)[n - 1])

    @pytest.mark.parametrize("K,P", [(1, 5), (20, 1), (1, 1), (2, 2), (20, 0), (0, 5)])
    def test_few_ks_and_points(self, K, P):
        # a lone k or point goes as two, so a stack of such samples keeps each
        # one's bits; the pin holds from two of each
        for n in (1, 2):
            _assert_permutation_rows_match_pin(90 + K + P + n, 3, n, S=4, K=K, P=P)

    def test_one_dataset_returns_a_list(self):
        datasets, ks, xts, ref, orders = _permutation_case(99, 3, 2, 1)
        got = permutation_residuals(datasets[0], ref, orders, ks[0].tolist(), xts[0].tolist())
        assert type(got) is list and all(type(r) is float for r in got) and len(got) == 5

    @pytest.mark.slow
    def test_rows_match_the_frozen_one_dataset_call_on_every_seed(self):
        for seed in range(100):
            _assert_permutation_rows_match_pin(seed, 2 + seed % 4, 1 + seed % 3, S=1 + seed % 6)


# --- field bytes against the complex-arithmetic kernel ------------------------------
# A frozen copy of the component-major kernel before its seed phase was formed in
# real arithmetic and its normalisations became products with reciprocals: the
# exponent through complex temporaries, and complex division by the real divisors.
# Its seed is the product of an x factor and a t factor, damping and unit phase
# alike, as the kernel's, and each direction is divided by the square root of its
# unscaled squared norm.  The kernel's two per-point fallbacks are selected with
# np.where: points whose |q_x| and |q_t| both pass ln(1e150) - |ln|beta||/2 take the
# per-point stabilized seed, and points whose squared norm lies outside
# [1e-150^2, 1e150^2] are first divided by their largest |re| or |im|.


def _complex_line_factors(c, a, sign):
    """One operand's top and bottom seed factors, its unit phase and its q."""
    q = (c * np.asarray(a)).imag
    e = np.empty(q.shape, dtype=np.complex128)
    np.cos(c.real * np.asarray(a), out=e.real)
    np.sin(c.real * np.asarray(a), out=e.imag)
    damp = np.exp(-2.0 * np.abs(q))
    neg = q < 0.0
    top, bot = np.empty_like(e), np.empty_like(e)
    top.real = e.real * np.where(neg, damp, 1.0)
    top.imag = -e.imag * np.where(neg, damp, 1.0)
    bot.real = sign * e.real * np.where(neg, 1.0, damp)
    bot.imag = sign * e.imag * np.where(neg, 1.0, damp)
    return top, bot, e, q


def _complex_seed_batch(nv, k, x, t):
    kc = k.conjugate()
    top_x, bot_x, ex, qx = _complex_line_factors(kc, x, -1.0)
    top_t, bot_t, et, qt = _complex_line_factors(2.0 * kc * kc, t, 1.0)
    out = np.empty((nv.n + 1, np.size(x)), dtype=np.complex128)
    np.multiply(nv.beta[:, None], top_x * top_t, out=out[: nv.n])
    out[nv.n] = bot_x * bot_t
    # the per-point stabilized seed: the block with the larger exponent gets scale 1
    cos, sin = (ex * et).real, (ex * et).imag
    b = qx + qt
    damp = np.exp(-2.0 * np.abs(b))
    neg = b < 0.0
    top = np.empty(b.size, dtype=np.complex128)
    top.real = cos * np.where(neg, damp, 1.0)
    top.imag = -sin * np.where(neg, damp, 1.0)
    point = np.empty_like(out)
    np.multiply(nv.beta[:, None], top, out=point[: nv.n])
    point[nv.n].real = -cos * np.where(neg, 1.0, damp)
    point[nv.n].imag = -sin * np.where(neg, 1.0, damp)
    limit = -math.log(1e-150) - 0.5 * abs(math.log(nv.norm))
    return np.where((np.abs(qx) > limit) & (np.abs(qt) > limit), point, out)


def _complex_field(data, x, t):
    """The frozen kernel's (M, n) field at the 1-D points x, t, in one batch."""
    dirs = []
    for point, nv in data.points:
        k = point.k
        w = _complex_seed_batch(nv, k, x, t)
        for k_prev, z, zc in dirs:
            inner = (zc * w).sum(axis=0)
            inner *= _ref_blaschke(k_prev, k).conjugate() - 1.0
            w += inner * z
        parts = w.view(np.float64)
        sq = np.square(parts).sum(axis=0)
        sq = sq[0::2] + sq[1::2]
        mag = np.abs(parts).max(axis=0)
        mag = np.maximum(mag[0::2], mag[1::2])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = w / mag
            sq_scaled = np.square(scaled.view(np.float64)).sum(axis=0)
            scaled /= np.sqrt(sq_scaled[0::2] + sq_scaled[1::2])
            w = np.where((sq >= 1e-150 ** 2) & (sq <= 1e150 ** 2), w / np.sqrt(sq), scaled)
        dirs.append((k, w, w.conj()))
    field = np.zeros((data.n, x.size), dtype=np.complex128)
    for (point, _), (_, z, zc) in zip(data.points, dirs):
        field += z[: data.n] * ((-2.0 * point.v) * zc[data.n])
    return field.T


def _seeded_data(seed):
    """N = 1..4 and n in {2, 3, 4, 8} by seed; odd seeds give the combined data
    of a half-line mirror image (2N solitons), even seeds line data."""
    rng = np.random.default_rng(seed)
    N, n = 1 + seed % 4, (2, 3, 4, 8)[seed // 4 % 4]
    data = random_soliton_data(rng, N, n, positive=bool(seed % 2))
    if seed % 2:
        kind = ("robin", "mixed", "rotated_mixed")[seed % 3]
        spec = boundary_spec(draw_boundary(rng, kind, n))
        data = solve_mirror_norming(data, spec).combined
    return data


def _grid_points(seed):
    """A 121 x 41 grid with nodes on x = 0 and t = 0 (x >= 0 for odd seeds),
    then 300 scattered points."""
    rng = np.random.default_rng(1000 + seed)
    x0 = 0.0 if seed % 2 else -6.0
    X, T = np.meshgrid(np.linspace(x0, 8.0 if seed % 2 else 6.0, 121), np.linspace(-2, 2, 41),
                       indexing="ij")
    x = np.concatenate([X.ravel(), rng.uniform(-30, 30, 300)])
    t = np.concatenate([T.ravel(), rng.uniform(-5, 5, 300)])
    return x, t


def _assert_same_bytes(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.numpy_floor
class TestFieldBytes:
    """reconstruct_field reproduces the frozen kernel's whole-array call bit
    for bit, whatever the blocking.

    The frozen kernel called on one point can round differently: numpy sums
    an (n+1, 1) stack of components along its only long axis, pairwise, and
    multiplies length-1 arrays by its own path.  reconstruct_field evaluates
    a lone point as two, so one-point blocks keep the whole-array bits.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_default_blocks(self, seed):
        data = _seeded_data(seed)
        x, t = _grid_points(seed)
        _assert_same_bytes(reconstruct_field(data, x, t), _complex_field(data, x, t))
        X, T = x[:4961].reshape(121, 41), t[:4961].reshape(121, 41)
        got = reconstruct_field(data, X, T)
        assert got.shape == (121, 41, data.n)
        _assert_same_bytes(got.reshape(-1, data.n), _complex_field(data, X.ravel(), T.ravel()))

    def test_several_full_blocks(self):
        rng = np.random.default_rng(50)
        for n in (2, 8):
            data = random_data(rng, 3, n)
            block = dressing.FIELD_BLOCK_CELLS // (n + 1)
            x, t = rng.uniform(-20, 20, (2, 2 * block + 5))
            _assert_same_bytes(reconstruct_field(data, x, t), _complex_field(data, x, t))

    @pytest.mark.parametrize("cells", [10**7, 5 * 9, 3 * 9 + 4])
    def test_block_size_does_not_change_bytes(self, monkeypatch, cells):
        monkeypatch.setattr(dressing, "FIELD_BLOCK_CELLS", cells)
        for seed in (1, 6, 13):  # n = 2, 3, 8
            data = _seeded_data(seed)
            x, t = _grid_points(seed)
            x, t = x[-300:], t[-300:]
            _assert_same_bytes(reconstruct_field(data, x, t), _complex_field(data, x, t))

    @pytest.mark.parametrize("cells", ["one", "below-n+1"])
    def test_one_point_blocks_match_single_points(self, monkeypatch, cells):
        for seed in (1, 6, 13):
            data = _seeded_data(seed)
            monkeypatch.setattr(dressing, "FIELD_BLOCK_CELLS", 1 if cells == "one" else data.n)
            x, t = _grid_points(seed)
            x, t = x[-60:], t[-60:]
            _assert_same_bytes(reconstruct_field(data, x, t), _complex_field(data, x, t))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_scalar_call_matches_its_batches(self, N, n):
        rng = np.random.default_rng(10 * N + n)
        data = random_data(rng, N, n)
        x, t = rng.uniform(-10, 10, 100), rng.uniform(-3, 3, 100)
        batch = reconstruct_field(data, x, t)
        for i in range(100):
            one = reconstruct_field(data, x[i], t[i])
            _assert_same_bytes(one, batch[i])
            _assert_same_bytes(one, reconstruct_field(data, x[[i, i - 1]], t[[i, i - 1]])[0])
            _assert_same_bytes(one, reconstruct_field(data, x[i : i + 1], t[i : i + 1])[0])

    def test_empty_input(self):
        data = _seeded_data(5)
        for shape in ((0,), (0, 3)):
            got = reconstruct_field(data, np.empty(shape), np.empty(shape))
            assert got.shape == shape + (data.n,)
        _assert_same_bytes(reconstruct_field(data, np.empty(0), np.empty(0)),
                           _complex_field(data, np.empty(0), np.empty(0)))

    @pytest.mark.slow
    def test_sweep_of_seeded_datasets(self):
        for seed in range(200):
            data = _seeded_data(seed)
            x, t = _grid_points(seed)
            _assert_same_bytes(reconstruct_field(data, x, t), _complex_field(data, x, t))


# --- one seed formula for every caller ------------------------------------------------


def _one_path_field(rng, N, n, half):
    """The field function of random line data, or of the half-line dataset of
    N real solitons (2N points) with a drawn mixed boundary."""
    data = random_soliton_data(rng, N, n, positive=half, log=SampleLog())
    if not half:
        return lambda x, t: reconstruct_field(data, x, t)
    hl = solve_mirror_norming(data, boundary_spec(draw_boundary(rng, "mixed", n)))
    return lambda x, t: halfline_field(hl, x, t)


def _three_ways(field_fn, xs, ts):
    """field_fn on the grid lines (nx, 1) and (1, nt), on the same grid as
    meshgrid arrays, and on its nodes as scattered points."""
    X, T = np.meshgrid(xs, ts, indexing="ij")
    return field_fn(xs[:, None], ts[None, :]), field_fn(X, T), field_fn(X.ravel(), T.ravel())


ONE_PATH_XS = np.linspace(0.0, 6.0, 13)
ONE_PATH_TS = np.linspace(-2.0, 2.0, 7)


@pytest.mark.numpy_floor
class TestOnePath:
    """A point's field bytes do not depend on whether it comes as a grid line, a
    meshgrid array or a scattered point, nor on the blocking: the seed's x and
    t phase factors go through one formula for every caller."""

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("N", [1, 3, 6])
    @pytest.mark.parametrize("half", [False, True], ids=["line", "half-line"])
    def test_lines_meshgrid_and_points_agree(self, N, n, half):
        field_fn = _one_path_field(np.random.default_rng(100 + 10 * N + n), N, n, half)
        xs, ts = ONE_PATH_XS - (0.0 if half else 3.0), ONE_PATH_TS
        lines, mesh, flat = _three_ways(field_fn, xs, ts)
        assert lines.shape == (xs.size, ts.size, n)
        _assert_same_bytes(mesh, lines)
        _assert_same_bytes(flat, lines.reshape(-1, n))
        _assert_same_bytes(field_fn(xs[None, :], ts[:, None]), lines.transpose(1, 0, 2))
        for i, j in [(0, 0), (6, 3), (12, 6)]:  # lone points, one line, one column
            _assert_same_bytes(field_fn(xs[i], ts[j]), lines[i, j])
            _assert_same_bytes(field_fn(xs[i : i + 1, None], ts[None, :]), lines[i : i + 1])
            _assert_same_bytes(field_fn(xs, ts[j]), lines[:, j])

    @pytest.mark.parametrize("points", [1, 2, 6, 7, 8, 15, 90])
    def test_block_boundaries(self, monkeypatch, points):
        # blocks of whole rows (7 points each), of pieces of one row, and of
        # rows plus a remainder
        rng = np.random.default_rng(120 + points)
        for N, n, half in [(1, 1, False), (3, 2, True), (6, 8, False)]:
            field_fn = _one_path_field(rng, N, n, half)
            xs = ONE_PATH_XS - (0.0 if half else 3.0)
            want = field_fn(xs[:, None], ONE_PATH_TS[None, :])
            with monkeypatch.context() as m:
                m.setattr(dressing, "FIELD_BLOCK_CELLS", points * (n + 1))
                lines, mesh, flat = _three_ways(field_fn, xs, ONE_PATH_TS)
            _assert_same_bytes(lines, want)
            _assert_same_bytes(mesh, want)
            _assert_same_bytes(flat, want.reshape(-1, n))

    def test_other_broadcast_shapes(self):
        field_fn = _one_path_field(np.random.default_rng(130), 3, 2, False)
        rng = np.random.default_rng(131)
        for xshape, tshape in [((2, 3, 1), (1, 1, 4)), ((4,), (3, 1)), ((), (5,)), ((2, 1, 3), (3,))]:
            x, t = rng.uniform(-4, 4, xshape), rng.uniform(-2, 2, tshape)
            got = field_fn(x, t)
            X, T = np.broadcast_arrays(x, t)
            assert got.shape == X.shape + (2,)
            _assert_same_bytes(got.reshape(-1, 2), field_fn(X.ravel(), T.ravel()))

    def test_sample_grid_hands_field_fn_grid_lines(self):
        field_fn = _one_path_field(np.random.default_rng(140), 2, 2, True)
        seen = []

        def spy(x, t):
            seen.append((x.shape, t.shape))
            return field_fn(x, t)

        grid = sample_grid(spy, 0.0, 2.0, -1.0, 1.0, 9, 5)
        assert seen == [((9, 1), (1, 5))]
        X, T = np.meshgrid(grid.xs, grid.ts, indexing="ij")
        _assert_same_bytes(grid.values, field_fn(X, T))

    def test_halfline_field_rejects_negative_x_in_a_column(self):
        rng = np.random.default_rng(150)
        hl = solve_mirror_norming(random_soliton_data(rng, 2, 2, positive=True, log=SampleLog()),
                                  boundary_spec(draw_boundary(rng, "robin", 2)))
        with pytest.raises(DomainError):
            halfline_field(hl, np.array([0.0, -0.5, 1.0])[:, None], ONE_PATH_TS[None, :])

    @pytest.mark.slow
    def test_sweep_of_seeded_datasets(self):
        # grid lines against the frozen kernel at the grid's nodes, and the
        # transposed grid, on the line and half-line data of _seeded_data
        for seed in range(100):
            data = _seeded_data(seed)
            xs = np.linspace(0.0 if seed % 2 else -6.0, 8.0, 61)
            ts = np.linspace(-2.0, 2.0, 41)
            X, T = np.meshgrid(xs, ts, indexing="ij")
            got = reconstruct_field(data, xs[:, None], ts[None, :])
            _assert_same_bytes(got.reshape(-1, data.n), _complex_field(data, X.ravel(), T.ravel()))
            _assert_same_bytes(reconstruct_field(data, xs[None, :], ts[:, None]), got.transpose(1, 0, 2))


def _uncached(data, order):
    """build_reduced_chain of order on a copy of data with nothing built yet."""
    return build_reduced_chain(SolitonData(data.n, data.points), order)


def _chain_bytes(chain):
    return [(k, z.shape, z.tobytes(), zc.tobytes()) for k, z, zc in chain]


class TestChainCache:
    """build_reduced_chain builds each prefix of an order once per dataset."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_every_prefix_of_every_order_matches_an_uncached_build(self, N):
        rng = np.random.default_rng(90 + N)
        data = random_data(rng, N, 1 + N % 3)
        orders = [p for size in range(N + 1) for p in itertools.permutations(range(N), size)]
        rng.shuffle(orders)  # long orders before their prefixes, and after
        chains = {order: build_reduced_chain(data, order) for order in orders}
        for order in orders:
            assert _chain_bytes(chains[order]) == _chain_bytes(_uncached(data, order))
            assert build_reduced_chain(data, order) is chains[order]  # built once
            assert build_reduced_chain(data, list(order)) is chains[order]

    def test_canonical_default_order_shares_the_cache(self):
        data = random_data(np.random.default_rng(96), 4, 2)
        assert build_reduced_chain(data) is build_reduced_chain(data, range(4))
        assert build_reduced_chain(data, (0, 1)) == build_reduced_chain(data)[:2]

    def test_cached_arrays_are_read_only(self):
        data = random_data(np.random.default_rng(97), 3, 2)
        for _, z, zc in build_reduced_chain(data):
            for arr in (z, zc):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.0

    def test_degenerate_factor_raises_on_every_call(self):
        # poles 1.5e-12 apart (past POLE_MERGE_TOL) with equal betas: the
        # second direction is conj(f_0(k_1)) beta_1, |f_0(k_1)| = 7.5e-14
        data = SolitonData.from_arrays([0.3, 0.3 + 3e-12], [20.0, 20.0], [[1.0, 0.5j]] * 2)
        for _ in range(3):
            with pytest.raises(DegeneracyError, match="direction for index 1 collapsed"):
                build_reduced_chain(data)
        assert _chain_bytes(build_reduced_chain(data, (0,))) == _chain_bytes(
            _uncached(data, (0,)))
        with pytest.raises(DegeneracyError, match="direction for index 0 collapsed"):
            build_reduced_chain(data, (1, 0))
