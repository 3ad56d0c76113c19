"""Reference implementations the tests compare the package against.

None of these has a caller in ``src/``: the uniform trapezoidal rule on
[-pi, pi) (``QuadratureGrid`` and ``integrate_periodic``), position-space
synthesis and analysis, the action along a trajectory with its surface term,
the force V'(q) of a trigonometric potential, the boundary-condition defect
of a function of the angle (``boundary_defect``) and of a lattice state
(``check_boundary_phase``), the spread of the enhanced flow across twists
(``alpha_invariance_check``), Dekker's split of the CSV formatter's powers
of ten in integers and their exact rounding residuals, the Gauss-Legendre
rule of one count by its own recurrence, the boost of one momentum over the
whole lattice, the unity diagonal in closed form by sine and cosine
integrals, the circle moment of a free coherent state in closed form, the
leapfrog step loop with its force as a closure, and the Miller recurrence
on a numpy array.
Each is a literal transcription of its formula.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from circleq.dynamics import Trajectory, evolve
from circleq.enhanced import EnhancedHamiltonian, TrigPotential
from circleq.fiducial import FiducialSpec, default_basis, momentum_coefficients
from circleq.hilbert import MomentumState, ResolutionError, TwistedBasis, default_cutoff
from circleq.specfun import TWO_PI
from numpy.lib.stride_tricks import sliding_window_view

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Uniform angular grid theta_j = -pi + 2 pi j / M, j = 0..M-1.

    The node at -pi sits on the chart seam; weight * node_count = 2 pi.
    """

    node_count: int
    nodes: np.ndarray
    weight: float

    @classmethod
    def make(cls, node_count: int = 512) -> "QuadratureGrid":
        if node_count < 16 or node_count % 2 != 0:
            raise ValueError(
                f"node_count must be even and >= 16, got {node_count}"
            )
        nodes = -math.pi + TWO_PI * np.arange(node_count) / node_count
        return cls(node_count=node_count, nodes=nodes, weight=TWO_PI / node_count)


def integrate_periodic(values: np.ndarray, grid: QuadratureGrid):
    """Trapezoidal integral over [-pi, pi) of the samples ``values`` at the
    grid nodes.

    Exact (to roundoff) for trigonometric polynomials of degree < M/2 and
    geometrically convergent for analytic periodic integrands.  For
    integrands that jump at the chart seam theta = +/-pi the accuracy
    degrades; the error is then proportional to the seam jump.
    """
    return grid.weight * values.sum()


class PositionWavefunction:
    """Samples psi(theta_j) on a quadrature grid."""

    def __init__(self, grid: QuadratureGrid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=complex)
        if self.values.shape != grid.nodes.shape:
            raise ValueError("sample count does not match the grid")

    def norm_sq(self) -> float:
        return float(self.grid.weight * np.vdot(self.values, self.values).real)


def synthesize(state: MomentumState, grid: QuadratureGrid) -> PositionWavefunction:
    """psi(theta_j) = sum_n c_n e^{i (n + alpha) theta_j} / sqrt(2 pi)."""
    k = state.basis.n_values() + state.basis.alpha
    phases = np.exp(1j * np.outer(grid.nodes, k))
    return PositionWavefunction(grid, phases @ state.coeffs / SQRT_2PI)


def analyze(psi: PositionWavefunction, basis: TwistedBasis) -> MomentumState:
    """Trapezoidal c_n = integral e^{-i (n + alpha) theta} psi(theta) / sqrt(2 pi)
    d theta, exact for band-limited psi once the grid resolves 2 (N + 1) modes."""
    if psi.grid.node_count < 2 * (basis.cutoff_n + 1):
        raise ResolutionError(
            f"grid with {psi.grid.node_count} nodes cannot resolve "
            f"cutoff {basis.cutoff_n}; need at least {2 * (basis.cutoff_n + 1)}"
        )
    k = basis.n_values() + basis.alpha
    kernel = np.exp(-1j * np.outer(k, psi.grid.nodes))
    return MomentumState(basis, psi.grid.weight * (kernel @ psi.values) / SQRT_2PI)


def boundary_defect(psi, alpha: float) -> float:
    """|psi(pi) - e^{2 pi i alpha} psi(-pi)| for a callable psi of the angle."""
    return float(abs(psi(math.pi) - np.exp(2j * math.pi * alpha) * psi(-math.pi)))


def check_boundary_phase(state: MomentumState) -> float:
    """Defect |psi(pi) - e^{2 pi i alpha} psi(-pi)| of the twisted boundary
    condition, with the state's Fourier series evaluated exactly at the
    endpoints and alpha taken from its basis; 0 means the state lies in
    the twisted domain.  Each e^{i (n + alpha) theta} meets the condition
    exactly, so on a lattice state this measures roundoff."""
    alpha = state.basis.alpha
    k = state.basis.n_values() + alpha
    at_plus = np.sum(state.coeffs * np.exp(1j * math.pi * k)) / SQRT_2PI
    at_minus = np.sum(state.coeffs * np.exp(-1j * math.pi * k)) / SQRT_2PI
    return float(abs(at_plus - np.exp(2j * math.pi * alpha) * at_minus))


def potential_derivative(potential: TrigPotential, q):
    """V'(q) = sum_n n [-a_n sin nq + b_n cos nq], elementwise."""
    total = np.zeros_like(np.asarray(q, dtype=float))
    for n, (an, bn) in enumerate(zip(potential.a, potential.b), start=1):
        total = total + n * (-an * np.sin(n * q) + bn * np.cos(n * q))
    return total if total.ndim else float(total)


def phase_point(trajectory: Trajectory, i: int) -> tuple[float, float]:
    """Sample i of a trajectory as the (p0, q0) that ``evolve`` continues it from."""
    return float(trajectory.p[i]), float(trajectory.q_unwrapped[i])


def winding_number(trajectory: Trajectory) -> int:
    """Net number of full turns accumulated by the unwrapped angle."""
    return int(round((trajectory.q_unwrapped[-1] - trajectory.q_unwrapped[0]) / (2.0 * math.pi)))


def surface_term(alpha: float, hbar: float, qdot: float) -> float:
    """Total-derivative power hbar alpha qdot split off the restricted action.

    Along a trajectory it integrates to hbar alpha (q(T) - q(0)) with the
    unwrapped angle, i.e. 2 pi hbar alpha per winding; it never enters the
    equations of motion.
    """
    return hbar * alpha * qdot


def action_along(
    trajectory: Trajectory, model: EnhancedHamiltonian, include_surface: bool = False
) -> float:
    """Midpoint-rule value of the integral of [p qdot - H] dt, optionally
    adding the boundary value hbar alpha (q(T) - q(0)) of the surface term
    (winding aware through the unwrapped angle)."""
    dq = np.diff(trajectory.q_unwrapped)
    p_mid = 0.5 * (trajectory.p[1:] + trajectory.p[:-1])
    e_mid = 0.5 * (trajectory.energies[1:] + trajectory.energies[:-1])
    dt = np.diff(trajectory.times)
    action = float(p_mid @ dq - e_mid @ dt)
    if include_surface:
        hbar, alpha = model.spec.hbar, model.spec.alpha
        action += hbar * alpha * (trajectory.q_unwrapped[-1] - trajectory.q_unwrapped[0])
    return action



def alpha_invariance_check(
    model: EnhancedHamiltonian,
    p0: float,
    q0: float,
    alphas,
    dt: float,
    steps: int,
    compensated: bool = True,
) -> float:
    """Maximum pairwise deviation of the enhanced flow across twists.

    Each run keeps r, hbar and the potential and replaces the twist; with
    ``compensated`` the initial momentum is shifted to p0 - hbar alpha so
    every run represents the same physical state, and the flows compared
    in the variable p(t) + hbar alpha are algebraically identical.
    Without compensation the runs start at distinct physical momenta and
    drift apart (negative control).
    """
    hbar = model.spec.hbar
    tracks = []
    for alpha in alphas:
        spec_a = replace(model.spec, alpha=alpha)
        model_a = EnhancedHamiltonian.build(model.potential, spec_a)
        p_a = p0 - hbar * float(spec_a.alpha) if compensated else p0
        traj = evolve("enhanced", model_a, p_a, q0, dt, steps)
        tracks.append((traj.q_unwrapped, traj.p + hbar * spec_a.alpha))
    worst = 0.0
    for i in range(len(tracks)):
        for j in range(i + 1, len(tracks)):
            dq = np.max(np.abs(tracks[i][0] - tracks[j][0]))
            dp = np.max(np.abs(tracks[i][1] - tracks[j][1]))
            worst = max(worst, float(dq), float(dp))
    return worst


def dekker_split(h: float) -> tuple:
    """Dekker's split h = h1 + h2, 26 significant bits each, in integers (no overflow)."""
    m, e = math.frexp(h)
    mantissa = int(m * 2**53)
    top = (mantissa + 2**26) >> 27 << 27
    return math.ldexp(top, e - 53), math.ldexp(mantissa - top, e - 53)


def power_of_ten_splits(k_lo: int, k_hi: int) -> tuple:
    """``dekker_split`` of fl(10^(16-k)) for k = k_lo..k_hi as two arrays,
    NaN below k = -292 where 10^(16-k) overflows."""
    rows = [(math.nan, math.nan) if k < -292
            else dekker_split(10 ** max(16 - k, 0) / 10 ** max(k - 16, 0))  # rounds correctly
            for k in range(k_lo, k_hi + 1)]
    return tuple(np.array(rows).T)


def power_of_ten_residuals(k_lo: int, k_hi: int) -> np.ndarray:
    """l = 10^(16-k) - fl(10^(16-k)) correctly rounded, for k = k_lo..k_hi,
    NaN below k = -292 where 10^(16-k) overflows: one exact rational
    (a d - n b) / (b d) per k, with a / b = 10^(16-k) and n / d = fl(a / b)."""
    out = []
    for k in range(k_lo, k_hi + 1):
        if k < -292:
            out.append(math.nan)
            continue
        a, b = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        n, d = (a / b).as_integer_ratio()
        out.append((a * d - n * b) / (b * d))
    return np.array(out)


def gauss_legendre_alone(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule by Newton's method on its own
    three-term recurrence, one temporary per step, from Tricomi's guess."""

    def legendre_pair(x):
        prev, last = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, last = last, ((2 * j - 1) * (x * last) - (j - 1) * prev) / j
        return last, prev

    theta = math.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
    x[n // 2:] = 0.0
    for _ in range(10):
        p, q = legendre_pair(x)
        dx = (x - 1.0) * (x + 1.0) * p / (n * (x * p - q))
        x -= dx
        if np.all(dx * dx <= 0.25 * np.finfo(float).eps * (1.0 - x) * (1.0 + x)):
            break
    p, q = legendre_pair(x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (x * p - q)) ** 2
    return np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])


def whole_lattice_boost(spec: FiducialSpec, shift: float, basis: TwistedBasis) -> np.ndarray:
    """f_k = sum_n c_n sinc(n - k + shift) on every slot k at once: one run of
    D + S - 1 kernel values against the (D + S - 1, S) Hankel view of the
    normal coefficients, signs folded as in the production boost."""
    c = momentum_coefficients(spec, default_basis(spec))
    n_src = default_basis(spec).n_values()
    keep = c >= np.finfo(float).tiny
    c, n_src, slots = c[keep], n_src[keep], basis.n_values()
    lags = np.arange(n_src[0] - slots[-1], n_src[-1] - slots[0] + 1)
    hankel = sliding_window_view(np.pad(c * (-1.0) ** n_src, slots.size - 1), slots.size)
    m = np.rint(shift)
    if shift == m:
        kernel, row = (lags == -m).astype(float), (-1.0) ** m
    else:
        kernel, row = 1.0 / (shift + lags), (-1.0) ** m * np.sin(math.pi * (shift - m)) / math.pi
    return (kernel[None, :] @ hankel)[0] * row * (-1.0) ** slots


def closed_form_unity_diagonal(spec: FiducialSpec, basis: TwistedBasis, p_cutoff: float) -> np.ndarray:
    """diag_k = int_{-L}^{L} f_k(x)^2 dx, L = p_cutoff/hbar, on every slot k, with
    no momentum nodes.  Lag differences are integers, so sin pi(x+a) sin pi(x+b)
    = (-1)^(a-b) sin^2 pi(x+a), and partial fractions in 1/((x+a)(x+b)) give

        diag_k = sum_n c_n^2 G(n-k) + (2/pi^2) sum_n (-1)^n c_n u_n J(n-k)
        G(a) = S(a+L) - S(a-L),  S(y) = Si(2 pi y)/pi - sin^2(pi y)/(pi^2 y)
        J(a) = [Cin(2 pi |a+L|) - Cin(2 pi |a-L|)] / 2
        u_n = sum_{m != n} (-1)^m c_m / (m - n)

    with Cin(x) = gamma + ln x - Ci(x), over the normal coefficients the
    production boost keeps."""
    from scipy.special import sici

    def cin(x):
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, np.euler_gamma + np.log(safe) - sici(safe)[1], 0.0)

    def s(y):
        safe = np.where(y != 0.0, y, 1.0)
        return np.where(y != 0.0, sici(2.0 * np.pi * y)[0] / np.pi
                        - np.sin(np.pi * y) ** 2 / (np.pi**2 * safe), 0.0)

    c = momentum_coefficients(spec, default_basis(spec))
    n_src = default_basis(spec).n_values()
    keep = c >= np.finfo(float).tiny
    c, n_src, slots = c[keep], n_src[keep], basis.n_values()
    half = p_cutoff / spec.hbar
    signed = (-1.0) ** n_src * c
    gaps = (n_src[None, :] - n_src[:, None]).astype(float)  # m - n, row n
    u = np.divide(signed[None, :], gaps, out=np.zeros_like(gaps), where=gaps != 0.0).sum(axis=1)
    # G and J on the D + S - 1 lags a = n - k, then read at every (k, n)
    lags = np.arange(n_src[0] - slots[-1], n_src[-1] - slots[0] + 1, dtype=float)
    g = s(lags + half) - s(lags - half)
    j = 0.5 * (cin(2.0 * np.pi * np.abs(lags + half)) - cin(2.0 * np.pi * np.abs(lags - half)))
    at = n_src[None, :] - slots[:, None] - (n_src[0] - slots[-1])  # row k, column n
    return g[at] @ (c * c) + j[at] @ (2.0 / np.pi**2 * signed * u)


def free_circle_moment(spec: FiducialSpec, q0: float, p0: float, times) -> np.ndarray:
    """<e^{iQ}>(t) of |p0, q0> under the free Hamiltonian P^2, for an integer
    m = p0/hbar:

        <e^{iQ}>(t) = e^{i q0} sum_k c_{k+1} c_k e^{i hbar t (2(k+m) + 2 alpha + 1)}

    The boost shifts the fiducial coefficients c by m slots, slot n turns as
    e^{-i hbar (n + alpha)^2 t}, and e^{iQ} raises n by one.  c_k is
    e^{-z} I_k(z) from ``scipy.special.ive``, z = r/hbar, normalized over
    |k| <= default_cutoff(z)."""
    from scipy.special import ive

    m = p0 / spec.hbar
    if m != round(m):
        raise ValueError(f"p0/hbar = {m} is not an integer")
    k = np.arange(-default_cutoff(spec.localization), default_cutoff(spec.localization) + 1)
    c = ive(k, spec.localization)
    c /= np.sqrt(c @ c)
    weights = c[1:] * c[:-1]
    rates = spec.hbar * (2.0 * (k[:-1] + m) + 2.0 * spec.alpha + 1.0)
    times = np.asarray(times, dtype=float)
    total = np.empty(times.shape, dtype=complex)
    for start in range(0, times.size, 1024):  # (1024, 2K) phases at a time
        total[start: start + 1024] = np.exp(1j * np.outer(times[start: start + 1024], rates)) @ weights
    return np.exp(1j * q0) * total


def leapfrog_loop(h_kind: str, model: EnhancedHamiltonian, p0: float, q0: float, dt: float,
                  steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(q_unwrapped, p) of the kick-drift-kick flow: one ``force`` call per
    step, shared by the closing kick of a step and the opening kick of the
    next, the generic harmonic sum for every potential, and each sample
    stored by numpy item assignment."""
    if h_kind == "enhanced":
        shift, potential = model.spec.hbar * model.spec.alpha, model.effective_potential()
    else:
        shift, potential = 0.0, model.potential
    harmonics = enumerate(zip(potential.a, potential.b), start=1)
    terms = [(float(n), an, bn) for n, (an, bn) in harmonics]

    def force(q):
        f = 0.0
        for n, an, bn in terms:
            f += n * (an * math.sin(n * q) - bn * math.cos(n * q))
        return f

    qs = np.empty(steps + 1)
    ps = np.empty(steps + 1)
    q, p = q0, p0
    qs[0], ps[0] = q, p
    half = 0.5 * dt
    f = force(q)
    for i in range(1, steps + 1):
        p_half = p + half * f
        q = q + dt * 2.0 * (p_half + shift)
        f = force(q)
        p = p_half + half * f
        qs[i], ps[i] = q, p
    return qs, ps


def miller_indexed(max_order: int, z: float) -> tuple[np.ndarray, int]:
    """(e^{-z} I_n(z) for n = 0..max_order, number of rescales): the backward
    recurrence I_{k-1} = I_{k+1} + (2k/z) I_k on a numpy array, item by item,
    from the start order max(max_order, 1.2 z + 12 sqrt(z)) + 40; each value
    over 1e250 scales the array from it up by 1e-250 in place.  Normalized by
    I_0 + 2 sum_{k>=1} I_k = e^z."""
    start = int(max(max_order, 1.2 * z + 12.0 * math.sqrt(z)) + 40)
    b = np.zeros(start + 2)
    b[start] = 1.0
    rescales = 0
    for k in range(start, 0, -1):
        b[k - 1] = b[k + 1] + (2.0 * k / z) * b[k]
        if b[k - 1] > 1e250:
            b[k - 1:] *= 1e-250
            rescales += 1
    total = b[0] + 2.0 * b[1:].sum()
    return b[: max_order + 1] / total, rescales
