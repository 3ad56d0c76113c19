"""Full quantum time evolution in the truncated twisted basis, and the
side-by-side comparison against the coherent-state-restricted flow.

The Hamiltonian P^2 + V(e^{iQ}, e^{-iQ}) is a banded Hermitian matrix:
kinetic terms on the diagonal, the k-th potential harmonic on the k-th
bands through cos kQ = (S^k + S^{-k})/2 and sin kQ = (S^k - S^{-k})/(2i)
with S the unit lattice shift.  With no sine terms the matrix is real
symmetric and is stored as float64, so the eigendecomposition takes the
real LAPACK path.  Propagation goes through that one-time
eigendecomposition -- at desk-scale dimensions this removes all
integrator error from the quantum side, so any discrepancy with the
enhanced trajectory is physics (dispersion), not numerics.

A coherent state occupies a small run of the lattice, so the
eigendecomposition runs on a principal block of contiguous slots around
it, and only the block's eigenmodes that carry the state are propagated:
the weakest are dropped while their summed weight sum |a_j|^2 stays
within ``WINDOW_TAIL``.  The block's coupling to the rest of the lattice
gives each mode's exact residual, and with it a bound on the amplitude
error over the whole horizon; the block grows until that bound is at most
sqrt(WINDOW_TAIL) = 1e-12, and the trace reports the slots and modes kept,
the weight dropped and the bound.  States are rebuilt in blocks of
``TIME_CHUNK`` sample times, so memory does not grow with the step count,
and the energy is measured on every state through the banded matvec
rather than assumed from the spectrum.

The circle position is reported through <e^{iQ}>, never a bare <Q>: the
chart [-pi, pi) makes <Q> jump under rotation, while the complex moment
is chart-free.  This choice of tracking observable is ours; nothing
canonical forces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import CoherentLabel, coherent_state
from .dynamics import PhasePoint, Trajectory, evolve
from .enhanced import EnhancedHamiltonian, TrigPotential
from .hilbert import MomentumState, TwistedBasis, default_cutoff

# largest summed weight sum |a_j|^2 of the eigenmodes left out of a propagation
WINDOW_TAIL = 1e-24
# sample times rebuilt per block of evolve_quantum
TIME_CHUNK = 128
# evolve_quantum pads the initial state's span by 1/MARGIN_DIVISOR of it on each side
MARGIN_DIVISOR = 4
# largest lattice comparison_basis builds; r/hbar = 200 at p = 0 needs 3227
MAX_LATTICE_DIM = 8192


@dataclass(eq=False)
class HamiltonianMatrix:
    basis: TwistedBasis
    potential: TrigPotential
    matrix: np.ndarray
    bandwidth: int


def potential_band_value(potential: TrigPotential, k: int) -> complex:
    """Fourier coefficient (1/2 pi) integral V(theta) e^{-i k theta} d theta."""
    if k == 0:
        return complex(potential.a0)
    n = abs(k)
    if n > potential.degree:
        return 0.0j
    v = 0.5 * (potential.a[n - 1] - 1j * potential.b[n - 1])
    return v if k > 0 else np.conj(v)


def build_hamiltonian(potential: TrigPotential, basis: TwistedBasis) -> HamiltonianMatrix:
    """Assemble the banded Hermitian matrix of P^2 + V in the twisted basis.

    The matrix is float64 when the potential has no sine terms (it is then
    real symmetric) and complex otherwise.
    """
    m = potential.degree
    if basis.cutoff_n <= m:
        raise ValueError(
            f"cutoff {basis.cutoff_n} must exceed the potential degree {m}"
        )
    dim = basis.dimension
    momenta = basis.momenta()
    real = not any(potential.b)
    matrix = np.diag((momenta * momenta + potential.a0).astype(float if real else complex))
    for k in range(1, m + 1):
        band = potential_band_value(potential, k)
        if real:
            band = band.real
        idx = np.arange(dim - k)
        matrix[idx + k, idx] += band
        matrix[idx, idx + k] += np.conj(band)
    return HamiltonianMatrix(basis=basis, potential=potential, matrix=matrix, bandwidth=m)


@dataclass(eq=False)
class ExpectationTrace:
    """Expectation values at each sample time.

    The eigenmodes were solved on a block of ``slots_kept`` contiguous
    lattice slots; ``modes_kept`` of them were propagated and the ones
    left out carried the summed weight ``discarded_weight`` of the
    initial state.  ``truncation_bound`` bounds the amplitude error
    ||psi(t) - psi_exact(t)|| the block and the window make over the
    whole horizon (floating-point roundoff aside).
    """

    times: np.ndarray
    cos_q: np.ndarray
    sin_q: np.ndarray
    mean_p: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    modes_kept: int
    discarded_weight: float
    slots_kept: int
    truncation_bound: float

    def circle_moment(self) -> np.ndarray:
        """Complex moment <e^{iQ}>(t); its modulus measures coherence."""
        return self.cos_q + 1j * self.sin_q


def _apply(matrix: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``matrix @ coeffs`` for complex ``coeffs``; a real matrix multiplies
    the interleaved real and imaginary parts in one real product instead
    of being promoted to complex."""
    if np.iscomplexobj(matrix):
        return matrix @ coeffs
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    pairs = coeffs.view(np.float64).reshape(coeffs.shape[0], -1)
    out = (matrix @ pairs).view(complex)
    return out.reshape(matrix.shape[0], *coeffs.shape[1:])


def _spectral_window(weights: np.ndarray) -> tuple:
    """(kept indices in ascending order, weight of the dropped ones): the
    weakest entries go while their summed weight is <= WINDOW_TAIL."""
    order = np.argsort(weights)
    tail = np.cumsum(weights[order])
    dropped = int(np.searchsorted(tail, WINDOW_TAIL, side="right"))
    discarded = float(tail[dropped - 1]) if dropped else 0.0
    return np.sort(order[dropped:]), discarded


def _banded_apply(ham: HamiltonianMatrix, block: slice, states: np.ndarray) -> np.ndarray:
    """H[block, block] @ states through the diagonal and the ``bandwidth``
    band pairs."""
    out = np.diagonal(ham.matrix)[block, None] * states
    for k in range(1, ham.bandwidth + 1):
        band = potential_band_value(ham.potential, k)
        out[k:] += band * states[:-k]
        out[:-k] += np.conj(band) * states[k:]
    return out


def _edge_residuals(ham: HamiltonianMatrix, block: slice, modes: np.ndarray) -> np.ndarray:
    """||(H - E_j) v_j|| for the eigenvectors v_j of H[block, block], taken
    as zero outside the block: inside it the residual vanishes, and outside
    only the ``bandwidth`` slots on either side couple to the block."""
    m = ham.bandwidth
    below = ham.matrix[max(block.start - m, 0):block.start, block]
    above = ham.matrix[block.stop:block.stop + m, block]
    leak = np.concatenate([below, above]) @ modes
    # hypot never squares, so huge couplings cannot overflow the norm
    return np.hypot.reduce(np.abs(leak), axis=0)


def evolve_quantum(
    ham: HamiltonianMatrix, initial: MomentumState, dt: float, steps: int
) -> ExpectationTrace:
    """Expectation traces of |psi(t)> = e^{-i H t / hbar} |psi(0)>.

    The eigendecomposition runs on the principal block H[lo:hi, lo:hi] of
    the slots that hold all but ``WINDOW_TAIL`` of the initial weight plus
    a margin, and exact phases at every sample time drive the modes inside
    the spectral window.  Over the horizon T = |dt| steps the amplitude
    error is at most

        sqrt(weight outside the block) + sqrt(discarded weight)
            + (T / hbar) sum_j |a_j| ||(H - E_j) v_j||

    (a Duhamel estimate per kept mode); while that exceeds
    sqrt(WINDOW_TAIL) the margin doubles and the block is solved again.
    On the whole lattice the bound is the window's alone, so the loop
    ends.  The bound covers truncation only: roundoff, as for any
    eigendecomposition, grows like eps ||H|| T / hbar.  A failed
    decomposition raises numpy's LinAlgError untouched.
    """
    if initial.basis is not ham.basis and (
        initial.basis.alpha != ham.basis.alpha
        or initial.basis.hbar != ham.basis.hbar
        or initial.basis.cutoff_n != ham.basis.cutoff_n
    ):
        raise ValueError("initial state and Hamiltonian use different bases")
    if abs(initial.norm_sq() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")

    hbar, dim = ham.basis.hbar, ham.basis.dimension
    psi = initial.coeffs
    slot_weights = psi.real**2 + psi.imag**2
    held, _ = _spectral_window(slot_weights)
    first, last = int(held[0]), int(held[-1]) + 1
    margin = max(1, (last - first) // MARGIN_DIVISOR)
    horizon = abs(dt) * steps / hbar
    while True:
        block = slice(max(first - margin, 0), min(last + margin, dim))
        energies, modes = np.linalg.eigh(ham.matrix[block, block])
        # a = modes^H psi, arranged so that a real ``modes`` is never copied
        amps = np.conj(_apply(modes.T, np.conj(psi[block])))
        kept, discarded = _spectral_window(amps.real**2 + amps.imag**2)
        energies, modes, amps = energies[kept], modes[:, kept], amps[kept]
        outside = slot_weights[: block.start].sum() + slot_weights[block.stop:].sum()
        bound = (
            math.sqrt(outside)
            + math.sqrt(discarded)
            + horizon * float(np.abs(amps) @ _edge_residuals(ham, block, modes))
        )
        if bound <= math.sqrt(WINDOW_TAIL) or block.stop - block.start == dim:
            break
        margin *= 2

    momenta = ham.basis.momenta()[block]
    times = dt * np.arange(steps + 1)
    cos_q, sin_q, mean_p, norm, energy = np.empty((5, steps + 1))
    for start in range(0, steps + 1, TIME_CHUNK):
        chunk = slice(start, start + TIME_CHUNK)
        phases = np.exp(-1j * np.outer(energies, times[chunk]) / hbar)
        states = _apply(modes, phases * amps[:, None])  # (block length, chunk length)
        weights = states.real**2 + states.imag**2
        norm[chunk] = weights.sum(axis=0)
        mean_p[chunk] = momenta @ weights
        moment = np.sum(np.conj(states[1:]) * states[:-1], axis=0)
        cos_q[chunk], sin_q[chunk] = moment.real, moment.imag
        energy[chunk] = np.sum(np.conj(states) * _banded_apply(ham, block, states), axis=0).real
    return ExpectationTrace(
        times=times,
        cos_q=cos_q,
        sin_q=sin_q,
        mean_p=mean_p,
        norm=norm,
        energy=energy,
        modes_kept=int(kept.size),
        discarded_weight=discarded,
        slots_kept=block.stop - block.start,
        truncation_bound=bound,
    )


@dataclass(eq=False)
class ComparisonReport:
    """Quantum vs enhanced-classical deviation time series.

    ``phase_deviation`` is the Euclidean gap between the unit vectors
    (cos q, sin q) of the enhanced angle and the normalized quantum
    moment <e^{iQ}>/|<e^{iQ}>|; ``momentum_deviation`` compares the
    quantum <P> against the shifted classical momentum p + hbar alpha.
    ``ehrenfest_window`` is the time the phase deviation first reaches
    0.1 (the full horizon if it never does).
    """

    times: np.ndarray
    momentum_deviation: np.ndarray
    phase_deviation: np.ndarray
    coherence: np.ndarray
    ehrenfest_window: float
    quantum: ExpectationTrace
    enhanced: Trajectory


def comparison_basis(model: EnhancedHamiltonian, label: CoherentLabel) -> TwistedBasis:
    """Default lattice: fiducial support, potential bandwidth, boost margin.

    Raises ValueError when the lattice would exceed ``MAX_LATTICE_DIM``
    slots, before anything of that size is built.
    """
    spec = model.spec
    margin = abs(label.p) / spec.hbar
    support = default_cutoff(spec.localization, model.potential.degree)
    if support + margin > (MAX_LATTICE_DIM - 1) // 2:
        raise ValueError(
            f"a boost of |p|/hbar = {margin:.6g} needs a lattice wider than "
            f"MAX_LATTICE_DIM = {MAX_LATTICE_DIM} slots"
        )
    return TwistedBasis(spec.alpha, spec.hbar, support + int(math.ceil(margin)))


def compare_restricted(
    model: EnhancedHamiltonian,
    label: CoherentLabel,
    total_time: float,
    dt: float,
    basis: TwistedBasis | None = None,
) -> ComparisonReport:
    """Run the true quantum evolution from |p, q> and the enhanced flow
    from (p, q) and report their deviation traces."""
    spec = model.spec
    if basis is None:
        basis = comparison_basis(model, label)
    steps = max(1, int(round(total_time / dt)))

    initial = coherent_state(label, spec, basis).normalized()
    ham = build_hamiltonian(model.potential, basis)
    quantum = evolve_quantum(ham, initial, dt, steps)

    start = PhasePoint.start(label.q, label.p)
    classical = evolve("enhanced", model, start, dt, steps)

    shift = spec.hbar * spec.alpha
    momentum_dev = np.abs(quantum.mean_p - (classical.p + shift))
    coherence = np.abs(quantum.circle_moment())
    safe = np.where(coherence > 1e-12, coherence, 1.0)
    cos_n = np.where(coherence > 1e-12, quantum.cos_q / safe, np.nan)
    sin_n = np.where(coherence > 1e-12, quantum.sin_q / safe, np.nan)
    phase_dev = np.hypot(np.cos(classical.q) - cos_n, np.sin(classical.q) - sin_n)
    # a fully dispersed moment carries no phase; count that as maximal
    phase_dev = np.where(np.isnan(phase_dev), 2.0, phase_dev)

    crossed = np.nonzero(phase_dev >= 0.1)[0]
    window = float(quantum.times[crossed[0]]) if crossed.size else float(quantum.times[-1])
    return ComparisonReport(
        times=quantum.times,
        momentum_deviation=momentum_dev,
        phase_deviation=phase_dev,
        coherence=coherence,
        ehrenfest_window=window,
        quantum=quantum,
        enhanced=classical,
    )
