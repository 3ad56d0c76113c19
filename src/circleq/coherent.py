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
coefficients is a correlation of c with one run of sinc values over the
lags n - k, and a whole table of momenta is a single product of those
runs with the Hankel matrix of c.

The resolution of unity integrates f_m(p) f_n(p) e^{i (m - n) q} over
the cylinder.  The integrand factorizes, so the momentum sum is the Gram
matrix of the boosted table and the angle sum is the q rule's aliasing
vector A[m - n] = sum_j w_j e^{i (m - n) q_j}; the literal double sum is
their entrywise product, and the tests keep the per-node double loop as
its oracle.

For p/hbar not an integer the boosted function leaves the twisted domain
(the boundary phase defect is nonzero) and its lattice tail decays only
like |f_k| ~ e^{-2r/hbar} / |k|.  The state is still in the Hilbert
space; the weight a basis of half-width N fails to capture scales like
e^{-4r/hbar} / N, which is the accuracy floor quoted on normalization
checks below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import TWO_PI
from .fiducial import FiducialSpec, momentum_coefficients, default_basis
from .hilbert import MomentumState, ResolutionError, TwistedBasis, wrap_angle

# out-of-basis spectral weight above this triggers a truncation diagnostic
EDGE_WEIGHT_LIMIT = 1e-8


@dataclass(frozen=True)
class CoherentLabel:
    """Phase-space label: momentum p (unrestricted) and angle q."""

    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", float(wrap_angle(self.q)))


def _boost_table(spec: FiducialSpec, shifts: np.ndarray, basis: TwistedBasis) -> np.ndarray:
    """Boosted fiducial coefficients f[i, k] = sum_n c_n sinc(n - k + shifts[i])
    on the slots k of ``basis``, one row per shift p/hbar.

    Over the lags n - k in [n_min - k_max, n_max - k_min] each row needs one
    run of D + S - 1 sinc values; the sum over n is the correlation of that
    run with c, taken for all rows at once against the (D + S - 1, S) Hankel
    view H[m, k] = c[m + k - (S - 1)] of the zero-padded coefficients.
    The support keeps only the central run of coefficients |c_n| >= the
    smallest normal double: the ones past it are zero or subnormal, add
    nothing a double can hold to any entry, and make the product crawl.
    Memory is O(P (D + S)).
    """
    support = default_basis(spec)
    c = momentum_coefficients(spec, support).coeffs.real
    # c_n is even in n and falls off monotonically from n = 0
    normal = np.flatnonzero(c >= np.finfo(float).tiny)
    run = slice(normal[0], normal[-1] + 1)
    c, n_src, slots = c[run], support.n_values()[run], basis.n_values()
    lags = np.arange(n_src[0] - slots[-1], n_src[-1] - slots[0] + 1)
    hankel = sliding_window_view(np.pad(c, slots.size - 1), slots.size)
    return np.sinc(lags[None, :] + shifts[:, None]) @ hankel


def coherent_state(
    label: CoherentLabel, spec: FiducialSpec, basis: TwistedBasis
) -> MomentumState:
    """Coefficients d_n = e^{-i (n + alpha) q} f_n(p) of |p, q>.

    Boost first, rotation second; the rotation phase multiplies the
    boosted coefficients exactly, so d_n(p, q) = e^{-i (n+alpha) q} d_n(p, 0)
    holds by construction.  Raises ResolutionError when the basis is too
    narrow to hold the boosted state.
    """
    if basis.alpha != spec.alpha or basis.hbar != spec.hbar:
        raise ValueError("basis and fiducial spec disagree on alpha or hbar")
    f = _boost_table(spec, np.array([label.p / spec.hbar]), basis)[0]
    deficit = 1.0 - float(f @ f)
    if deficit > EDGE_WEIGHT_LIMIT:
        raise ResolutionError(
            f"boosted state leaks {deficit:.3e} of its weight outside the "
            f"lattice |n| <= {basis.cutoff_n}; enlarge the cutoff"
        )
    phases = np.exp(-1j * (basis.n_values() + basis.alpha) * label.q)
    return MomentumState(basis, phases * f)


@dataclass(eq=False)
class UnityReport:
    """Defects of the phase-space integral of |p,q><p,q| dp dq / (2 pi hbar)
    against the identity, on a momentum window |p| <= p_cutoff."""

    p_cutoff: float
    diag_defect: float
    offdiag_defect: float
    quadrature_meta: dict = field(default_factory=dict)
    diag_entries: np.ndarray | None = None
    ns: np.ndarray | None = None


def legendre_node_count(p_cutoff: float, hbar: float, p_nodes: int) -> int:
    """Gauss-Legendre nodes :func:`verify_unity` puts on |p| <= p_cutoff.

    The integrand oscillates with unit wavelength in p/hbar, so the count
    scales with the window and the rule stays resolved at every cutoff.
    """
    return max(p_nodes, int(math.ceil(3.5 * p_cutoff / hbar)) + 32)


def verify_unity(
    spec: FiducialSpec,
    basis: TwistedBasis,
    p_cutoff: float,
    p_nodes: int = 64,
    full_2d: bool = False,
) -> UnityReport:
    """Measure how far the truncated coherent-state integral sits from
    the identity on the lattice.

    The angle integral of e^{-i (m - n) q} is 2 pi delta_mn, so by default
    only the diagonal survives and a single Gauss-Legendre sweep over the
    momentum window remains; the diagonal entries then increase
    monotonically toward 1 with the cutoff.  With ``full_2d`` the entire
    matrix of the literal two-dimensional quadrature is assembled, which
    measures the off-diagonal defect instead of asserting it.  Its
    integrand factorizes as f_m f_n e^{i (m - n) q}, so the double sum is
    the Gram matrix G = f^T W f of the boosted table (W the momentum
    weights) times the q rule's aliasing vector A[m - n], computed from
    the same q nodes; the Gram matrix is one real O(P S^2) product.
    Memory is O(P (D + S) + S Q) for a lattice of S slots, a fiducial
    support of D slots and Q angle nodes.

    The sweep touches no shared mutable state, so independent calls may
    run concurrently.
    """
    if p_cutoff <= 0.0:
        raise ValueError("p_cutoff must be > 0")
    if p_nodes < 64:
        raise ValueError("p_nodes must be >= 64")

    slots = basis.n_values()
    p_count = legendre_node_count(p_cutoff, spec.hbar, p_nodes)
    x, w = np.polynomial.legendre.leggauss(p_count)
    p_values, p_weights = p_cutoff * x, p_cutoff * w
    f = _boost_table(spec, p_values / spec.hbar, basis)  # f[i, k] = f_k(p_i)

    meta = {"p_nodes": p_count, "mode": "analytic-q"}
    if not full_2d:
        diag = (p_weights / spec.hbar) @ (f * f)
        diag_defect = float(np.max(np.abs(diag - 1.0)))
        # off-diagonal entries vanish identically under the analytic
        # angle integral
        offdiag_defect = 0.0
    else:
        q_nodes = max(64, 4 * basis.cutoff_n + 4)
        q_values = -math.pi + TWO_PI * np.arange(q_nodes) / q_nodes
        meta = {"p_nodes": p_count, "mode": "full-2d", "q_nodes": q_nodes}
        gram = f.T @ (p_weights[:, None] * f)
        # A[d] for d = 0..S-1; A[-d] = conj(A[d]) holds exactly in floating
        # point (cos is even, sin odd), so the negative lags are mirrored
        lags = np.arange(slots.size)
        half = (TWO_PI / q_nodes) * np.exp(1j * np.outer(lags, q_values)).sum(axis=1)
        aliasing = np.concatenate([half[:0:-1].conj(), half])  # A[d] at d + S - 1
        matrix = gram * aliasing[np.subtract.outer(lags, lags) + slots.size - 1]
        matrix /= TWO_PI * spec.hbar
        diag = matrix.diagonal().real.copy()
        diag_defect = float(np.max(np.abs(diag - 1.0)))
        np.fill_diagonal(matrix, 0.0)
        offdiag_defect = float(np.max(np.abs(matrix)))

    return UnityReport(
        p_cutoff=float(p_cutoff),
        diag_defect=diag_defect,
        offdiag_defect=offdiag_defect,
        quadrature_meta=meta,
        diag_entries=np.asarray(diag, dtype=float),
        ns=slots.copy(),
    )
