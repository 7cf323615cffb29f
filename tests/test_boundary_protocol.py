"""Boundary specs against the per-kind dispatch they replaced.

The reference functions below are the earlier module-level implementations
(`mirror.big_m`, `mirror._big_m_inv`, `maps.boundary_small_m`, the branch in
`verification.boundary_residual` and `config.boundary_to_json`), kept
verbatim apart from names, so every method can be held to the exact arrays
and error paths they produced.
"""

import numpy as np
import pytest

from vsolitons import Mixed, PoleError, Robin, RotatedMixed, ValidationError
from vsolitons.config import _complex_pair, parse_boundary
from vsolitons.sampling import BOUNDARY_KINDS, random_boundary, random_signs, random_unitary
from vsolitons.soldata import PAIR_POLE_TOL


def ref_big_m(k, spec, n=None):
    k = complex(k)
    if isinstance(spec, Robin):
        if n is None:
            raise ValidationError("Robin M(k) needs the component count n")
        den = k - 1j * spec.alpha
        if abs(den) < 1e-13:
            raise PoleError(f"M(k) has a pole at k = i*alpha = {1j * spec.alpha}")
        return ((k + 1j * spec.alpha) / den) * np.eye(int(n), dtype=np.complex128)
    if isinstance(spec, Mixed):
        return np.diag(-np.asarray(spec.signs, dtype=np.complex128))
    if isinstance(spec, RotatedMixed):
        sigma = np.diag(-np.asarray(spec.signs, dtype=np.complex128))
        U = spec.unitary
        m = U.conj().T @ sigma @ U
        if n is not None and m.shape != (int(n), int(n)):
            raise ValidationError(
                f"boundary spec acts on {m.shape[0]} components, expected {n}"
            )
        return m
    raise ValidationError(f"unknown boundary spec {spec!r}")


def ref_big_m_inv(k, spec, n):
    if isinstance(spec, Robin):
        num = k + 1j * spec.alpha
        if abs(num) < 1e-13:
            raise PoleError(f"M(k) is singular at k = -i*alpha = {-1j * spec.alpha}")
        return ((k - 1j * spec.alpha) / num) * np.eye(int(n), dtype=np.complex128)
    # sign-pattern boundary matrices are involutions
    return ref_big_m(k, spec, n)


def ref_small_m(k, spec, n=None):
    k = complex(k)
    if isinstance(spec, Robin):
        if n is None:
            raise ValidationError("Robin boundary matrix needs the component count n")
        den = k + 1j * spec.alpha
        if abs(den) < PAIR_POLE_TOL:
            raise PoleError(f"boundary matrix has a pole at k = -i*alpha = {-1j * spec.alpha}")
        h = (k - 1j * spec.alpha) / den
        if abs(h) < PAIR_POLE_TOL:
            raise PoleError(f"boundary matrix vanishes at k = i*alpha = {1j * spec.alpha}")
        return (h / abs(h)) * np.eye(int(n), dtype=np.complex128)
    if isinstance(spec, Mixed):
        m = np.diag(np.asarray(spec.signs, dtype=np.complex128))
    elif isinstance(spec, RotatedMixed):
        sigma = np.diag(np.asarray(spec.signs, dtype=np.complex128))
        U = spec.unitary
        m = U.conj().T @ sigma @ U
    else:
        raise ValidationError(f"unknown boundary spec {spec!r}")
    if n is not None and m.shape != (int(n), int(n)):
        raise ValidationError(
            f"boundary spec acts on {m.shape[0]} components, expected {n}"
        )
    return m


def ref_boundary_residual(spec, R0, Rx0):
    if isinstance(spec, Robin):
        return float(np.max(np.abs(Rx0 - 2.0 * spec.alpha * R0)))
    # Mixed is tested first: it is now a RotatedMixed subclass
    if isinstance(spec, Mixed):
        signs = spec.signs
    elif isinstance(spec, RotatedMixed):
        # the sign pattern applies in the rotated component basis
        R0 = R0 @ spec.unitary.T
        Rx0 = Rx0 @ spec.unitary.T
        signs = spec.signs
    else:
        raise ValidationError(f"unknown boundary spec {spec!r}")
    plus = [i for i, s in enumerate(signs) if s == 1]
    minus = [i for i, s in enumerate(signs) if s == -1]
    res = 0.0
    if plus:
        res = max(res, float(np.max(np.abs(R0[:, plus]))))
    if minus:
        res = max(res, float(np.max(np.abs(Rx0[:, minus]))))
    return res


def ref_boundary_to_json(spec):
    if isinstance(spec, Robin):
        return {"kind": "robin", "alpha": spec.alpha}
    if isinstance(spec, Mixed):
        return {"kind": "mixed", "signs": list(spec.signs)}
    if isinstance(spec, RotatedMixed):
        return {
            "kind": "rotated_mixed",
            "signs": list(spec.signs),
            "unitary": [[_complex_pair(z) for z in row] for row in spec.unitary],
        }
    raise ValidationError(f"unknown boundary spec {spec!r}")


NS = (1, 2, 3, 8)


def _specs():
    rng = np.random.default_rng(20261018)
    specs = [Robin(0.0), Robin(0.8), Robin(-1.3)]
    for n in NS:
        specs.append(Mixed(random_signs(rng, n)))
        specs.append(RotatedMixed(np.eye(n), random_signs(rng, n)))
        specs.append(RotatedMixed(random_unitary(rng, n), random_signs(rng, n)))
    return specs


SPECS = _specs()


def _ks():
    rng = np.random.default_rng(7)
    ks = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(12)]
    # Robin poles and zeros for alpha = 0.8 and -1.3, and the origin (alpha = 0)
    ks += [0.8j, -0.8j, -1.3j, 1.3j, 0j]
    return ks + [np.complex128(k) for k in ks]


KS = _ks()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PoleError, ValidationError) as exc:
        return type(exc)


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{type(s).__name__}-{s.n}")
class TestAgainstReference:
    def test_small_m(self, spec):
        for n in NS + (None,):
            for k in KS:
                assert _same(_outcome(spec.small_m, k, n), _outcome(ref_small_m, k, spec, n))

    def test_big_m(self, spec):
        for n in NS + (None,):
            for k in KS:
                got = _outcome(spec.big_m, k, n)
                want = _outcome(ref_big_m, k, spec, n)
                if type(spec) is Mixed and n is not None and n != spec.n:
                    # the reference ignored n for Mixed and returned a matrix of
                    # the wrong size, which its callers could not multiply
                    assert got is ValidationError and want.shape == (spec.n, spec.n)
                    continue
                assert _same(got, want)

    def test_big_m_inv(self, spec):
        for n in NS:
            for k in KS:
                got = _outcome(spec.big_m_inv, k, n)
                want = _outcome(ref_big_m_inv, k, spec, n)
                if type(spec) is Mixed and n != spec.n:
                    assert got is ValidationError and want.shape == (spec.n, spec.n)
                    continue
                assert _same(got, want)

    def test_boundary_residual(self, spec):
        rng = np.random.default_rng(3)
        n = spec.n or 3
        for _ in range(5):
            R0, Rx0 = (
                rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
                for _ in range(2)
            )
            assert spec.boundary_residual(R0, Rx0) == ref_boundary_residual(spec, R0, Rx0)

    def test_wire_form_round_trip(self, spec):
        doc = spec.to_json()
        assert doc == ref_boundary_to_json(spec)
        back = parse_boundary(doc)
        assert type(back) is type(spec) and back.to_json() == doc
        n = spec.n or 2
        assert np.array_equal(back.small_m(0.3 + 0.7j, n), spec.small_m(0.3 + 0.7j, n))
        assert np.array_equal(back.big_m(0.3 + 0.7j, n), spec.big_m(0.3 + 0.7j, n))


@pytest.mark.parametrize("n", NS)
def test_mixed_is_rotated_mixed_with_identity(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        signs = random_signs(rng, n, proper=False)
        mixed, rotated = Mixed(signs), RotatedMixed(np.eye(n), signs)
        assert isinstance(mixed, RotatedMixed)
        assert np.array_equal(mixed.unitary, rotated.unitary)
        for k in KS:
            for name in ("small_m", "big_m", "big_m_inv"):
                assert np.array_equal(getattr(mixed, name)(k, n), getattr(rotated, name)(k, n))
        R0, Rx0 = rng.standard_normal((2, 7, n)) + 1j * rng.standard_normal((2, 7, n))
        assert mixed.boundary_residual(R0, Rx0) == rotated.boundary_residual(R0, Rx0)
        assert mixed.to_json() == {"kind": "mixed", "signs": list(signs)}


def test_sign_pattern_matrices_are_involutions():
    for spec in SPECS:
        if spec.n is None:
            continue
        m, M = spec.small_m(0.4 + 0.9j, None), spec.big_m(0.4 + 0.9j, None)
        eye = np.eye(spec.n)
        assert np.max(np.abs(m @ m - eye)) < 1e-12
        assert np.max(np.abs(M @ spec.big_m_inv(0.1 + 0.2j, spec.n) - eye)) < 1e-12
        assert not m.flags.writeable


def test_every_drawn_kind_round_trips():
    rng = np.random.default_rng(11)
    for kind in BOUNDARY_KINDS:
        spec = random_boundary(rng, kind, 3)
        assert spec.to_json()["kind"] == kind
        assert parse_boundary(spec.to_json()).to_json() == spec.to_json()
