"""Circle coherent states |p, q> and the numerical resolution of unity.

A coherent state is produced from the fiducial state by a momentum boost
followed by a rigid rotation,

    |p, q> = e^{-i q P / hbar} e^{i p Q / hbar} |eta>,

with labels (p, q) on the cylinder R x [-pi, pi).  In the twisted lattice
the rotation is a pure phase e^{-i (n + alpha) q} while the boost mixes
slots through the band-limited projection kernel

    f_k(p) = sum_n c_n sinc(n - k + p/hbar),      sinc(x) = sin(pi x)/(pi x),

which is the exact value of the defining projection integral, evaluated
term by term against the fiducial coefficients c_n (a direct quadrature
of the same integral is kept in the tests as an independent oracle).
The kernel depends on n - k only, so it is Toeplitz: every row of boosted
coefficients is a correlation of c with one run of kernel values over the
lags n - k.  A coherent state is that one correlation.  The unity sweep
needs a whole table of momenta, a product of the runs with the Hankel
matrix of c; each column of that matrix holds only the D coefficients, so
the product goes by blocks of b slots, each against the D + b - 1 lags it
meets, and no (P, S) table is ever held.  With
p/hbar = m + r, m = rint(p/hbar),
sinc(n - k + p/hbar) = (-1)^(n + k + m) sin(pi r) / (pi (n - k + p/hbar)):
one sine per momentum, with the signs folded into c and into the slots.

The resolution of unity integrates f_m(p) f_n(p) e^{i (m - n) q} over
the cylinder.  The integrand factorizes, and an equispaced rule of Q
angle nodes sums e^{i d q} to the aliasing vector A[d] = 2 pi delta_d0
for every lag |d| < Q: the phases of a nonzero lag are Q-th roots of unity
whose sum vanishes.  A lattice of half-width N has lags |d| <= 2N, so
any rule with Q > 2N, the exact angle integral among them, leaves only
the diagonal and a single momentum sweep; the tests keep the literal
double sum over momentum and angle nodes as the oracle of that identity.
c_n is even, so f_k(-p) = f_{-k}(p): the sweep boosts only the momenta
p >= 0 of each Gauss-Legendre rule and mirrors the diagonal, and one sweep
serves every cutoff of a command, in memory O(P (D + b)).  The result is
that diagonal alone, one row per cutoff; a defect against the identity is
a maximum of |diag - 1| over whichever slots the caller reads.

For p/hbar not an integer the boosted function leaves the twisted domain
(the boundary phase defect is nonzero) and its lattice tail decays only
like |f_k| ~ e^{-2r/hbar} / |k|.  The state is still in the Hilbert
space; the weight a basis of half-width N fails to capture scales like
e^{-4r/hbar} / N, which is the accuracy floor quoted on normalization
checks below.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fiducial import FiducialSpec, momentum_coefficients, default_basis
from .hilbert import MAX_LATTICE_DIM, MomentumState, ResolutionError, TwistedBasis
from .specfun import gauss_legendre

# out-of-basis spectral weight above this triggers a truncation diagnostic
EDGE_WEIGHT_LIMIT = 1e-8
# slots per column block of the boost: a block meets D + 511 lags
_BLOCK = 512
# half-rule nodes per unity sweep: half the largest rule a config admits
# (MAX_LATTICE_DIM nodes), so a sweep holds no more than that rule alone
_SWEEP_NODES = MAX_LATTICE_DIM // 2


def _signed_support(spec: FiducialSpec) -> tuple[np.ndarray, np.ndarray]:
    """(s, n): the signed fiducial coefficients s = (-1)^n c_n on the slots n
    of the central run of coefficients c_n >= the smallest normal double.
    The ones past it are zero or subnormal, add nothing a double can hold to
    any boosted entry, and make the boost crawl."""
    support = default_basis(spec)
    c = momentum_coefficients(spec, support)
    # c_n is even in n and falls off monotonically from n = 0
    normal = np.flatnonzero(c >= np.finfo(float).tiny)
    run = slice(normal[0], normal[-1] + 1)
    n_src = support.n_values()[run]
    return c[run] * (-1.0) ** n_src, n_src


def _boost_blocks(spec: FiducialSpec, shifts: np.ndarray, basis: TwistedBasis):
    """Boosted fiducial coefficients f[i, k] = sum_n c_n sinc(n - k + shifts[i])
    on the slots k of ``basis``, one row per shift p/hbar, yielded as column
    blocks f[:, k0:k0 + b] in slot order.

    A row s = m + r needs the run of values 1 / (n - k + s) over the lags
    n - k, or the unit run at n - k = -m if r = 0; the sum over n is the
    correlation of that run with (-1)^n c, scaled by (-1)^(k + m) sin(pi r) / pi
    with r = s - m exact, so |pi r| <= pi / 2.  A block of b slots meets only
    D + b - 1 lags, against the (D + b - 1, b) Hankel matrix
    H[l, j] = c[l + j - (b - 1)] of the zero-padded coefficients, the same for
    every block, read as a strided view with no copy; a single row sums in
    lag order, the same sum bit for bit as over all D + S - 1 lags at once.
    The coefficients are those of :func:`_signed_support`.  Memory is
    O(P (D + b)).
    """
    signed, n_src = _signed_support(spec)
    slots = basis.n_values()
    b = min(_BLOCK, slots.size)
    hankel = sliding_window_view(np.pad(signed, b - 1), b)
    whole = np.rint(shifts)
    at_whole = shifts == whole
    rows = (-1.0) ** whole * np.where(at_whole, 1.0, np.sin(math.pi * (shifts - whole)) / math.pi)
    for k0 in range(0, slots.size, b):
        block = slots[k0: k0 + b]
        lags = np.arange(n_src[0] - block[-1], n_src[-1] - block[0] + 1)
        kernel = np.add.outer(shifts, lags)
        np.divide(1.0, kernel, out=kernel, where=kernel != 0.0)  # zero only where r = 0
        kernel[at_whole] = lags == -whole[at_whole, None]
        f = kernel @ hankel[: lags.size, b - block.size:]  # a short last block: H's right end
        f *= rows[:, None]
        f *= (-1.0) ** block
        yield f


def coherent_state(spec: FiducialSpec, basis: TwistedBasis, p: float, q: float) -> MomentumState:
    """The unit vector |p, q>: coefficients d_n = e^{-i (n + alpha) q} f_n(p)
    divided by their norm; q + 2 pi gives the state times e^{-2 pi i alpha}.

    Boost first, rotation second.  The boost is one correlation of the
    signed coefficients with the kernel run over all D + S - 1 lags, as in
    :func:`_boost_blocks`; an integer p/hbar = m takes the unit run at lag
    -m, so the state is the fiducial shifted by m slots bit for bit.  The
    rotation phase multiplies the boosted coefficients exactly, so
    d_n(p, q) = e^{-i (n+alpha) q} d_n(p, 0) holds by construction.  Raises
    ResolutionError when the boost leaks more than ``EDGE_WEIGHT_LIMIT`` of
    its weight past the basis, before dividing by the norm.
    """
    if basis.alpha != spec.alpha or basis.hbar != spec.hbar:
        raise ValueError("basis and fiducial spec disagree on alpha or hbar")
    signed, n_src = _signed_support(spec)
    slots = basis.n_values()
    shift = p / spec.hbar
    whole = np.rint(shift)
    lags = np.arange(n_src[0] - slots[-1], n_src[-1] - slots[0] + 1)
    if shift == whole:
        kernel, row = (lags == -whole).astype(float), (-1.0) ** whole
    else:
        kernel = 1.0 / (shift + lags)
        row = (-1.0) ** whole * np.sin(math.pi * (shift - whole)) / math.pi
    # entry i sums kernel[i + j] signed[j], the lags n - k of slot k = slots[-1] - i
    f = np.correlate(kernel, signed, "valid")[::-1] * row * (-1.0) ** slots
    deficit = 1.0 - float(f @ f)
    if deficit > EDGE_WEIGHT_LIMIT:
        raise ResolutionError(
            f"boosted state leaks {deficit:.3e} of its weight outside the "
            f"lattice |n| <= {basis.cutoff_n}; enlarge the cutoff"
        )
    d = np.exp(-1j * (slots + basis.alpha) * q) * f
    return MomentumState(basis, d / math.sqrt(np.vdot(d, d).real))


def legendre_node_count(p_cutoff: float, hbar: float) -> int:
    """Gauss-Legendre nodes :func:`verify_unity` puts on |p| <= p_cutoff.

    The integrand oscillates with unit wavelength in p/hbar, so the count
    scales with the window and the rule stays resolved at every cutoff.
    """
    return max(64, int(math.ceil(3.5 * p_cutoff / hbar)) + 32)


def verify_unity(spec: FiducialSpec, basis: TwistedBasis, p_cutoffs) -> np.ndarray:
    """The diagonal of the phase-space integral of |p,q><p,q| dp dq / (2 pi hbar)
    over each momentum window |p| <= p_cutoff, on the
    :func:`legendre_node_count` Gauss-Legendre nodes of that window, as a
    float64 array of shape (len(p_cutoffs), basis.dimension): row i for
    ``p_cutoffs[i]``, in the slot order of ``basis``.

    The angle integral contributes A[m - n] = 2 pi delta_mn exactly (see
    the module docstring), so the off-diagonal entries vanish identically
    and the diagonal is one Gauss-Legendre sweep over the momentum window,
    diag[k] = sum_i (w_i / hbar) f_k(p_i)^2, with f the boosted coefficients.
    c_n is even and the slots run over -N..N, so f_k(-p) = f_{-k}(p): only
    the nodes x >= 0 are boosted, an odd rule's node x = 0 at half weight,
    and diag = d + d reversed.  Consecutive cutoffs share one sweep while
    their half-rules hold at most ``_SWEEP_NODES`` nodes (one sweep holds
    the default ladder up to r/hbar = 900), and the boost goes by column
    blocks: memory is O(P (D + b)) for the P nodes of a sweep, a fiducial
    support of D slots and blocks of b = min(_BLOCK, S) of the S
    lattice slots.  The entries increase monotonically toward 1 with the
    cutoff.

    The sweep touches no shared mutable state, so independent calls may
    run concurrently.
    """
    p_cutoffs = [float(cutoff) for cutoff in p_cutoffs]
    if not p_cutoffs or min(p_cutoffs) <= 0.0:
        raise ValueError(f"p_cutoffs must be nonempty and > 0, got {p_cutoffs}")
    sweeps, room = [], 0
    for cutoff in p_cutoffs:
        n = legendre_node_count(cutoff, spec.hbar)
        if (n + 1) // 2 > room:
            sweeps.append([])
            room = _SWEEP_NODES
        sweeps[-1].append((cutoff, n))
        room -= (n + 1) // 2
    diagonals = []
    for sweep in sweeps:
        cutoffs, counts = zip(*sweep)
        shifts, weights = [], []
        for cutoff, n, (x, w) in zip(cutoffs, counts, gauss_legendre(counts)):
            shifts.append(cutoff * x[n // 2:] / spec.hbar)
            weights.append(cutoff * w[n // 2:] / spec.hbar)
            weights[-1][0] *= 0.5 ** (n % 2)  # x = 0 of an odd rule serves both halves
        owner = np.repeat(np.arange(len(cutoffs)), [w.size for w in weights])
        weights = np.where(owner == np.arange(len(cutoffs))[:, None], np.concatenate(weights), 0.0)
        blocks = _boost_blocks(spec, np.concatenate(shifts), basis)
        d = np.concatenate([weights @ np.square(f, out=f) for f in blocks], axis=1)
        diagonals.append(d + d[:, ::-1])
    return np.concatenate(diagonals)
