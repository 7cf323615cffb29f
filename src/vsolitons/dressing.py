"""Rank-one dressing chains and multi-soliton field reconstruction.

Chains of degree-1 factors I + (f(k) - 1) z z^dag, with f the Blaschke factor
of an eigenvalue and z a unit direction, build the reduced (n x n) and full
((n+1) x (n+1)) dressing matrices.  A chain is a sequence of (k, z, conj(z))
triples with z of shape (d, M): d = n and M = 1 for a reduced chain, d = n + 1
and one column per point (x, t) for the full chain of the field kernel.  The
ordered product over any permutation of the eigenvalues yields the same
degree-N factor, which is what `permutation_residuals` certifies numerically.

The field kernel forms each soliton's seed from per-line factors, phase and
damping alike: one cos/sin pair and one exp pair per x line and per t line,
then n + 2 complex products per point (`_seed_batch`).  It normalises each
direction in one squared-norm pass (`_full_directions`).  Two safety
fallbacks are chosen per point from that point's own values: a point whose
two line exponents are both too large for the product takes the per-point
stabilized seed, and a point whose squared norm leaves the range of
`soldata._SAFE_NORM` squared is first scaled by its largest |re| or |im|.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegeneracyError, PoleError, ValidationError
from .soldata import (_SAFE_NORM, POLE_EVAL_TOL, NormingVector, SolitonData, SpectralPoint,
                      _first, _indices, _norms, _scaled, _unit)

#: An intermediate chain direction below this fraction of |beta| is degenerate.
DEGENERATE_DIRECTION_TOL = 1e-13


def _blaschke(k0, k):
    """f_{k0}(k) = (k - k0)/(k - k0*): of two Python complex numbers in
    Python's arithmetic (the field kernel's), elementwise over arrays that
    broadcast in numpy's.  PoleError names the first k within POLE_EVAL_TOL
    of its pole."""
    den = k - k0.conjugate()
    gap = abs(den)
    if (gap if isinstance(gap, float) else gap.min(initial=math.inf)) < POLE_EVAL_TOL:
        i = np.argmax(np.ravel(gap) < POLE_EVAL_TOL)  # the first, in C order
        k0, k = (complex(np.broadcast_to(a, np.shape(den)).flat[i]) for a in (k0, k))
        raise PoleError(f"evaluation point {k} hits the pole at conj({k0})")
    return (k - k0) / den


def _product(f: np.ndarray) -> np.ndarray:
    """The product over the last axis of f, in its order from 1, one
    elementwise product per factor: np.prod would multiply a stack of one in
    its scalar reduction loop, which rounds otherwise."""
    out = np.ones(f.shape[:-1], dtype=np.complex128)
    for i in range(f.shape[-1]):
        out = out * f[..., i]
    return out


def blaschke_factor(point: SpectralPoint, k: complex) -> complex:
    """Blaschke factor (k - k0)/(k - k0*); unit modulus for real k."""
    return _blaschke(point.k, complex(k))


def _chain_apply(chain, ks, vecs: np.ndarray, dagger: bool = False) -> np.ndarray:
    """(F_1 ... F_m)(k_s) v_s, F_m acting first, for each sample s of a chain
    with one k_s per sample and vecs (S, n); with dagger, (F_1 ... F_m)(k_s)^dag
    v_s, F_1^dag acting first.  Never forms a matrix; every factor's update
    coefficients f(k_s) - 1 (conjugated with dagger) are taken in one pass, in
    the order of action.  R rows, ks (R, S) and vecs (R, S, n), are one sweep:
    row q joins after q steps, and no coefficient is taken for a row before it
    joins, so a sweep of a chain's own points never meets a factor's own pole.
    """
    steps = chain if dagger else chain[::-1]
    if not steps:
        return vecs
    ks = np.asarray(ks)
    one = ks.ndim == 1  # one row: a row axis of one
    ks, out = (ks[None], vecs[None]) if one else (ks, vecs.copy())
    rows = len(ks)
    k0s = np.array([k0s for k0s, _, _ in steps])
    if rows > 1:  # the (step, row) pairs q <= t, in the order of action
        t, q = _sweep_pairs(len(steps), rows)
        k0s, ks = k0s[t], ks[q]
    coeffs = _blaschke(k0s, ks) - 1.0
    coeffs = coeffs.conj() if dagger else coeffs
    # z[None]: the factors of a one-element product have one shape, as (S, 1) * (S, 1)
    # have for one row alone; numpy rounds a one-element broadcast its own way
    for i, (_, z, _) in enumerate(steps[: rows - 1]):  # rows 0..i act, the rest wait
        c = coeffs[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]
        out[: i + 1] += (c * np.vecdot(z, out[: i + 1]))[..., None] * z[None]
    joined = rows * (rows - 1) // 2  # from here on every row acts
    for (_, z, _), c in zip(steps[rows - 1 :], coeffs[joined:].reshape(-1, *out.shape[:2])):
        out = out + (c * np.vecdot(z, out))[..., None] * z[None]
    return out[0] if one else out


#: (t, q) of every (step, row) pair q <= t of a sweep, in the order of action
_sweep_pairs = functools.lru_cache(maxsize=None)(lambda m, rows: np.tril_indices(m, 0, rows))


def build_reduced_chain(data, order=None) -> tuple:
    """Recursively build the reduced chain of a dataset, or of each sample of a
    `SolitonStack`, for the given index order.

    The direction of factor i_j is the unit vector along
    d^dag_{i_1..i_{j-1}}(k_{i_j}) beta_{i_j}.  Returns (ks, z, conj(z)) per
    factor: the S samples' k_{i_j} and (S, n) unit directions; S = 1 for data.

    A factor depends only on the indices before it, so each prefix of an
    order is built once per stack: a call extends the longest prefix of its
    order already built and keeps every prefix it adds (`SolitonStack.chains`).
    Calls share the triples, whose arrays are read-only.  A degenerate factor
    is never kept, so it raises DegeneracyError on every call.
    """
    stack = data.stack
    idx = tuple(range(stack.N)) if order is None else _indices(stack.N, order)
    built = stack.chains
    done = len(idx)
    while idx[:done] not in built:
        done -= 1
    chain = built[idx[:done]]
    for end in range(done + 1, len(idx) + 1):
        chain += (_reduced_factor(stack, idx[end - 1], chain),)
        built[idx[:end]] = chain
    return chain


def _reduced_factor(stack, i: int, prefix) -> tuple:
    """(ks, z, conj(z)) of factor i after the chain prefix, arrays read-only."""
    ks = stack.ks[:, i]
    v, nrm, size = _scaled(_chain_apply(prefix, ks, stack.betas[:, i], dagger=True))
    if (s := _first(size < DEGENERATE_DIRECTION_TOL * stack.norms[:, i])) < len(size):
        raise DegeneracyError(
            f"degenerate chain: direction for index {i} collapsed ({size[s]:.3e})")
    z = v / nrm[:, None]
    zc = z.conj()
    z.flags.writeable = zc.flags.writeable = False
    return ks, z, zc


def _dressed_beta(stack, j: int, sub) -> np.ndarray:
    """d_sub(k_j)^dag beta_j: beta_j dressed by the reduced chain on indices sub."""
    chain = build_reduced_chain(stack, sub)
    return _chain_apply(chain, stack.ks[:, j], stack.betas[:, j], dagger=True)


def eval_chain(chain, k) -> np.ndarray:
    """Ordered product d_{i_1}(k) ... d_{i_N}(k) of one dataset's chain of at
    least one factor, one per entry of k."""
    ks = np.asarray(k, dtype=np.complex128)
    d = chain[0][1].shape[1]
    # a lone k goes as two: at d = 1 numpy rounds the broadcast product of
    # `_chain_product` for a one-k stack its own way
    flat = np.repeat(ks.reshape(-1), 2) if ks.size == 1 else ks.reshape(-1)
    coeffs = _blaschke(np.array([k0s[0] for k0s, _, _ in chain])[:, None], flat) - 1.0
    return _chain_product(chain, flat, d, coeffs)[0, : ks.size].reshape(ks.shape + (d, d))


def _chain_product(dirs, ks: np.ndarray, d: int, coeffs) -> np.ndarray:
    """Ordered factor products at stacked points x spectral parameters.

    dirs holds (k_j, z_j, conj(z_j)) with unit directions z_j of shape (*M, d);
    returns the (*M, K, d, d) products F_1(k) ... F_m(k) for the K entries of
    the last axis of ks (the identity for an empty chain, with M = (1,)).
    coeffs holds each factor's update coefficients f_j(k) - 1 at ks, in chain
    order, each of a shape that broadcasts to (*M, K): one row for every
    point, or one row per sample.
    """
    m = dirs[0][1].shape[:-1] if dirs else (1,)
    out = np.broadcast_to(np.eye(d, dtype=np.complex128), (*m, ks.shape[-1], d, d)).copy()
    for (_, z, zc), coeff in zip(dirs, coeffs):
        # out F(k) = out + (f(k) - 1) (out z) z^dag
        out += (out @ z[..., None, :, None]) * (coeff[..., None, None] * zc[..., None, None, :])
    return out


def _unit_phase(a: np.ndarray) -> np.ndarray:
    """e^{ia} over the elements of a, from numpy's cos and sin."""
    e = np.empty(a.shape, dtype=np.complex128)
    np.cos(a, out=e.real)
    np.sin(a, out=e.imag)
    return e


def _seed_batch(data, idx, x: np.ndarray, t: np.ndarray):
    """Yield the stabilized seed exp(-i phi(x,t,k_i*) Sigma3) (beta_i; -1), scaled
    projectively, of each soliton i of idx in turn, at the M points of
    broadcast(x, t) in C order: shape (n+1, M), component-major.  Of a
    `SolitonStack` of S datasets, x and t hold S equal parts in C order, the
    part s of each (its row s, when they are (S, P)) the points of sample s,
    which take that sample's k and beta.

    The exponent phi = k* x + 2 k*^2 t = a + ib is the sum of an x-term
    p_x + i q_x and a t-term p_t + i q_t, so the seed is a product of line
    factors: the top block beta (e^{-ip_x} e^{q_x-|q_x|}) (e^{-ip_t} e^{q_t-|q_t|})
    and the bottom (-e^{ip_x} e^{-q_x-|q_x|}) (e^{ip_t} e^{-q_t-|q_t|}), the
    minus sign on the x factor.  Each factor is evaluated over the elements
    of its own operand, for every soliton of idx in one (len(idx), x.size +
    t.size) array: grid lines x (nx, 1) and t (1, nt) cost nx + nt cos/sin
    pairs and exp pairs per soliton, not nx * nt, and a point costs n + 2
    complex products.  numpy multiplies a broadcast factor by the same rule
    as a full array's, so a point gets the same bits whether its
    coordinates come as grid lines, as full arrays or as scattered points,
    and whether its sample comes alone or in a stack.

    The product damps both blocks by e^{-(|q_x|+|q_t|)}: e^{-|b|}, times
    e^{-2 min(|q_x|, |q_t|)} where q_x and q_t differ in sign.  While one of
    |q_x|, |q_t| is at most ln(1/_SAFE_NORM[0]) - |ln|beta||/2, the larger
    block's largest |re| or |im| stays above _SAFE_NORM[0]^2 / sqrt(2n), and
    so far above an underflowed factor's error, even times beta.  A point
    where both pass that limit (chosen from its own q_x and q_t) takes the
    per-point stabilized seed instead: e^{ia} = e^{ip_x} e^{ip_t}, and the
    block with the larger exponent gets scale 1, the other exp(-2|b|).
    Either way the directions (all that enter projectors) are exact.

    A complex array times a real one (numpy multiplies by s + 0i) gives
    re * s and im * s, up to the sign of a zero part.
    """
    stack = data.stack
    samples = stack.points
    rows, cut = len(samples), x.size
    parts = (cut // rows,) * rows + (t.size // rows,) * rows  # each sample's x, then t
    coef = []
    for i in idx:
        for p in samples:
            kc = p[i][0].k.conjugate()
            k2 = 2.0 * kc * kc
            coef.append((complex(kc.real, 2.0 * kc.imag), complex(k2.real, 2.0 * k2.imag)))
    coef = np.array(coef, dtype=np.complex128).reshape(len(idx), rows, 2)
    # p + 2iq over x's elements, then t's: the phase and twice the damping exponent
    pq = (np.repeat(coef.transpose(0, 2, 1).reshape(len(idx), -1), parts, axis=1)
          * np.concatenate((x.reshape(-1), t.reshape(-1))))
    e = _unit_phase(pq.real)
    top = np.conjugate(e)
    top *= np.exp(np.minimum(pq.imag, 0.0))
    bot = e * np.exp(-np.maximum(pq.imag, 0.0))
    np.negative(bot[:, :cut], out=bot[:, :cut])
    far = np.abs(pq.imag)
    peaks = np.fmax.reduce(far, axis=1, initial=0.0).tolist()  # fmax: a nan hides no point
    for j, i in enumerate(idx):
        beta = stack.betas[:, i].T[..., None]  # (n, S, 1): one column per sample
        n = len(beta)
        seed = top[j, :cut].reshape(x.shape) * top[j, cut:].reshape(t.shape)
        shape = seed.shape
        out = np.empty((n + 1, seed.size), dtype=np.complex128)
        np.multiply(beta, seed.reshape(rows, -1), out=out[:n].reshape(n, rows, -1))
        np.multiply(bot[j, :cut].reshape(x.shape), bot[j, cut:].reshape(t.shape),
                    out=out[n].reshape(shape))
        limits = [2.0 * (-math.log(_SAFE_NORM[0]) - 0.5 * abs(math.log(p[i][1].norm)))
                  for p in samples]  # on 2|q|, per sample
        if peaks[j] > min(limits):
            both = far[j] > np.repeat(limits * 2, parts)  # each element's sample's limit
            at = np.flatnonzero(both[:cut].reshape(x.shape) & both[cut:].reshape(t.shape))
            where = np.unravel_index(at, shape)

            def pick(v):
                """Line array v's x and t values at the fallback points."""
                return (np.broadcast_to(v[j, :cut].reshape(x.shape), shape)[where],
                        np.broadcast_to(v[j, cut:].reshape(t.shape), shape)[where])

            (e_x, e_t), (b_x, b_t) = pick(e), pick(pq.imag)
            phase = e_x * e_t
            b2 = b_x + b_t  # 2b, exactly
            damp = np.exp(-np.abs(b2))
            neg = b2 < 0.0
            seed = np.conjugate(phase)
            seed *= np.where(neg, damp, 1.0)
            out[:n, at] = beta[:, at // (out.shape[1] // rows), 0] * seed
            out[n, at] = phase * np.where(neg, -1.0, -damp)
        yield out


#: The squares of _SAFE_NORM: a squared norm between them is summed without
#: underflow or overflow that could change its digits.
_SAFE_SQUARES = (_SAFE_NORM[0] ** 2, _SAFE_NORM[1] ** 2)


def _full_directions(data, idx, x: np.ndarray, t: np.ndarray, seeds=None):
    """Unit full-chain directions for every factor, batched over the M points
    of broadcast(x, t), of a dataset or of each sample of a `SolitonStack`
    (its points as `_seed_batch` takes them).

    Returns (ks, z_i, conj(z_i)) with the S samples' k_i and z_i
    component-major, shape (n+1, M).  seeds, if given, maps each index to its
    seed from `_seed_batch` at (x, t); it is read, not written.

    Each direction is normalised in one pass, by the reciprocal square root
    of its squared norm, wherever that lies inside _SAFE_SQUARES; only the
    points outside (`_rescale`) are first scaled by their largest |re| or
    |im|, as `soldata._scaled` scales a vector out of _SAFE_NORM.
    """
    stack = data.stack
    rows = len(stack.points)
    dirs = []
    fresh = _seed_batch(data, idx, x, t) if seeds is None else (seeds[i].copy() for i in idx)
    for i, w in zip(idx, fresh):
        for j, (_, z, zc) in zip(idx, dirs):
            inner = np.add.reduce(zc * w, axis=0)
            each = inner.reshape(rows, -1)  # a view: each sample's points, times its coefficient
            each *= _update(stack, j, i)
            w += inner * z
        sq = _squared_norms(w)
        if not (_SAFE_SQUARES[0] <= sq.min() and sq.max() <= _SAFE_SQUARES[1]):
            _rescale(w, sq)
        # the bits of w /= s up to the sign of a zero part: numpy divides by
        # a real s as (re + im*0) * (1/s) and (im - re*0) * (1/s)
        w *= 1.0 / np.sqrt(sq)
        dirs.append((np.array([p[i][0].k for p in stack.points]), w, w.conj()))
    return dirs


def _update(stack, j: int, i: int):
    """conj(f_j(k_i)) - 1 of each sample, in Python's complex arithmetic, as
    `_rows`, taken once per stack (`SolitonStack.updates`)."""
    coeff = stack.updates.get((j, i))
    if coeff is None:
        coeff = stack.updates[j, i] = _rows(
            [_blaschke(p[j][0].k, p[i][0].k).conjugate() - 1.0 for p in stack.points])
    return coeff


def _rows(values):
    """S per-sample numbers as one factor of an (S, P) view of the points,
    each sample's row: the number itself for one sample (numpy's faster
    scalar product, which a one-dataset field call takes per factor), else an
    (S, 1) array.  numpy multiplies an array by a number with the bits of the
    product by a broadcast array of it, so a sample keeps its bits in a stack."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _squared_norms(w: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each column of a component-major (d, M) stack."""
    sq = np.add.reduce(np.square(w.view(np.float64)), axis=0)
    return sq[0::2] + sq[1::2]


def _rescale(w: np.ndarray, sq: np.ndarray) -> None:
    """Scale each column of w whose squared norm sq lies outside _SAFE_SQUARES
    (nan included) by its largest |re| or |im|, and put its new squared norm
    in sq; both in place.  A zero column raises DegeneracyError."""
    far = np.flatnonzero(~((sq >= _SAFE_SQUARES[0]) & (sq <= _SAFE_SQUARES[1])))
    # a lone column goes as two: numpy reduces a (d, 1) stack its own way
    part = w.take(far if far.size > 1 else far.repeat(2), axis=1)
    mag = np.maximum.reduce(np.abs(part.view(np.float64)), axis=0)
    mag = np.maximum(mag[0::2], mag[1::2])
    if not mag.all():
        raise DegeneracyError("full-chain direction collapsed to zero")
    part *= 1.0 / mag
    w[:, far] = part[:, : far.size]
    sq[far] = _squared_norms(part)[: far.size]


def _field(data, idx, dirs) -> np.ndarray:
    """Component-major (n, M) field sum_j -2 v_j z_j[:n] conj(z_j[n]), each
    sample's v_j on its own points."""
    samples = data.stack.points
    d, m = dirs[0][1].shape
    field = np.zeros((d - 1, m), dtype=np.complex128)
    for i, (_, z, zc) in zip(idx, dirs):
        scale = _rows([-2.0 * p[i][0].v for p in samples])
        field += z[:-1] * (scale * zc[-1].reshape(len(samples), -1)).reshape(-1)
    return field


#: reconstruct_field evaluates the chain over blocks of this many cells, a
#: cell being one of the n+1 components at one point (at least one point).
FIELD_BLOCK_CELLS = 9 * 2048


def _lines(a: np.ndarray, shape: tuple) -> np.ndarray:
    """Operand a of the broadcast shape as a 2-D operand of its (rows, columns)
    view: shape[0] rows (one for a scalar shape) of prod(shape[1:]) points.  An
    axis along which a broadcasts keeps length 1, so grid lines stay lines."""
    a = a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
    rows = a.shape[0] if a.ndim else 1
    if a.size == rows:
        return a.reshape(rows, 1)
    if a.shape[1:] != shape[1:]:
        a = np.broadcast_to(a, a.shape[:1] + shape[1:])
    return a.reshape(rows, -1)


def _piece(a: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """The part of a `_lines` operand under rows x cols; an axis of length 1
    broadcasts and is kept whole."""
    return a[rows if a.shape[0] > 1 else slice(None), cols if a.shape[1] > 1 else slice(None)]


def reconstruct_field(data: SolitonData, x, t):
    """Multi-soliton field R(x,t) from the full dressing chain.

    The value is the top-right block of sum_j i(k_j - k_j*) [Sigma3, P_j];
    the theorem behind `permutation_residuals` makes it independent of the
    internal factor order.  Accepts scalars or broadcastable arrays for x, t
    and returns shape broadcast(x, t).shape + (n,).

    The points go through the chain in blocks of at most FIELD_BLOCK_CELLS
    cells: whole rows of the broadcast shape (its first axis) or, where a row
    is longer, pieces of one row.  Each block hands `_seed_batch` the parts
    of x and t it covers without broadcasting them, so grid lines x (nx, 1)
    and t (1, nt) cost one cos/sin pair and one exp pair per line and
    soliton, not one per point.  A point's value does not depend on the
    blocking, on the other points, or on whether it comes as a grid line, a
    full array or a scattered point.
    """
    idx = tuple(range(data.N))
    xs = np.asarray(x, dtype=np.float64)
    ts = np.asarray(t, dtype=np.float64)
    shape = np.broadcast(xs, ts).shape
    out = np.empty(shape + (data.n,), dtype=np.complex128)
    if not out.size:
        return out
    xs, ts = _lines(xs, shape), _lines(ts, shape)
    grid = out.reshape(max(len(xs), len(ts)), -1, data.n)
    rows, cols = grid.shape[:2]
    block = max(1, FIELD_BLOCK_CELLS // (data.n + 1))
    step = max(1, block // cols)
    for r in range(0, rows, step):
        for c in range(0, cols, block):
            piece = slice(r, r + step), slice(c, c + block)
            part = grid[piece]
            xb, tb = _piece(xs, *piece), _piece(ts, *piece)
            if xb.shape == tb.shape:  # nothing to broadcast: flat is numpy's fast path
                xb, tb = xb.reshape(-1), tb.reshape(-1)
            m = part.shape[0] * part.shape[1]
            if m == 1:
                # a lone point goes as two: numpy rounds length-1 arrays its own way
                xb, tb = xb.repeat(2), tb.repeat(2)
            # unnamed, so one block's directions are freed before the next is built
            vals = _field(data, idx, _full_directions(data, idx, xb, tb))
            part[...] = vals[:, :m].T.reshape(part.shape)
    return out


def one_soliton_field(point: SpectralPoint, beta, x, t):
    """Closed-form one-soliton p * v * e^{-i(ux+(u^2-v^2)t)} sech(v(x+2ut-dx)).

    dx = ln|beta|/v positions the envelope; the raw phase of beta is kept
    (the field scales by the same unit scalar as beta).
    """
    b = beta.beta if isinstance(beta, NormingVector) else np.asarray(beta, np.complex128)
    nrm = beta.norm if isinstance(beta, NormingVector) else float(_norms(b))
    if nrm == 0.0:
        raise ValidationError("beta must be nonzero")
    pol = _unit(b)
    u, v = point.u, point.v
    dx = math.log(nrm) / v
    xs = np.asarray(x, dtype=np.float64)
    ts = np.asarray(t, dtype=np.float64)
    arg = v * (xs + 2.0 * u * ts - dx)
    sech = 2.0 * np.exp(-np.abs(arg)) / (1.0 + np.exp(-2.0 * np.abs(arg)))
    q = v * np.exp(-1j * (u * xs + (u * u - v * v) * ts)) * sech
    return np.asarray(q)[..., None] * pol


def permutation_residuals(data, reference, orders, sample_ks, sample_xts=()):
    """Max entrywise disagreement of each of the orders with the reference.

    Compares the reduced chain at every sample k and, at the supplied (x, t),
    both the full-chain products at the first three k and the field.  The
    reference order's images are computed once, and so are each factor's seed
    at (x, t) and update coefficients at the ks, which every order shares.

    Of a `SolitonStack` of S datasets, sample_ks is (S, K) and sample_xts
    (S, P, 2), each sample's own, and the residuals are one (len(orders), S)
    array in which each sample has the bits of its own S = 1 call; of one
    dataset, a list.
    """
    stack = data.stack
    rows = len(stack.points)
    ref = _indices(stack.N, reference)
    idxs = [_indices(stack.N, order) for order in orders]
    if any(set(idx) != set(ref) for idx in idxs):
        raise ValidationError(f"orders must permute the reference's soliton indices {ref}")
    ks = np.array(list(sample_ks), dtype=np.complex128).reshape(rows, -1)
    xts = np.array(list(sample_xts), dtype=np.float64).reshape(rows, -1, 2)
    # a lone k or point per sample goes as two: numpy rounds a length-1 array
    # its own way, and a stack of such samples is no longer of length 1
    ks, xts = (a.repeat(2, axis=1) if a.shape[1] == 1 else a for a in (ks, xts))
    x, t = xts[..., 0], xts[..., 1]
    build_reduced_chain(stack, ref)  # first, so a degenerate chain raises before a pole sample
    coeffs = _blaschke(stack.ks[:, list(ref), None], ks[:, None]) - 1.0  # (S, N, K)
    coeffs = dict(zip(ref, coeffs.swapaxes(0, 1)))
    seeds = dict(zip(ref, _seed_batch(stack, ref, x, t))) if x.size else {}

    def images(idx) -> list:
        """Per sample, the reduced chain at every k and, if there are points
        (x, t), the full-chain products at the first three k and the field
        there, each flattened."""
        out = [_chain_product(build_reduced_chain(stack, idx), ks, stack.betas.shape[-1],
                              [coeffs[i] for i in idx])]
        if x.size:
            dirs = _full_directions(stack, idx, x, t, seeds)
            full = [(k, z.T.reshape(*x.shape, -1), zc.T.reshape(*x.shape, -1)) for k, z, zc in dirs]
            out += [_chain_product(full, ks[:, :3], len(dirs[0][1]),
                                   [coeffs[i][:, None, :3] for i in idx]),
                    _field(stack, idx, dirs).T]
        return [a.reshape(rows, -1) for a in out]

    reference_images = images(ref)
    worst = np.array([np.max([np.abs(a - b).max(axis=1, initial=0.0)
                              for a, b in zip(reference_images, images(idx))], axis=0)
                      for idx in idxs]).reshape(len(idxs), rows)
    return worst if data is stack else worst[:, 0].tolist()
