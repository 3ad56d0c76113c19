"""Full quantum time evolution in the truncated twisted basis, and the
side-by-side comparison against the coherent-state-restricted flow.

The Hamiltonian P^2 + V(e^{iQ}, e^{-iQ}) is stored as its bands: kinetic
terms on the diagonal, the k-th potential harmonic on the k-th bands
through cos kQ = (S^k + S^{-k})/2 and sin kQ = (S^k - S^{-k})/(2i) with S
the unit lattice shift.  Only the block being solved is formed densely,
as float64 when there are no sine terms (the real LAPACK path).
Propagation goes through that one-time eigendecomposition -- at
desk-scale dimensions this removes all integrator error from the quantum
side, so any discrepancy with the enhanced trajectory is physics
(dispersion), not numerics.

A coherent state occupies a small run of the lattice, so the
eigendecomposition runs on a principal block of contiguous slots around
it, and only the block's eigenmodes that carry the state are propagated:
the weakest are dropped while their summed weight sum |a_j|^2 stays
within ``WINDOW_TAIL``.  The block's coupling to the rest of the lattice
gives each mode's exact residual, and with it a bound on the amplitude
error over the whole horizon; the block grows until that bound is at most
sqrt(WINDOW_TAIL) = 1e-12, and the trace reports the slots and modes kept,
the weight dropped and the bound.  States are rebuilt in blocks of
``TIME_CHUNK`` sample times, so memory does not grow with the step count.
The energy is measured on every state rather than assumed from the
spectrum, from the sums sum_i conj(psi_{i+k}) psi_i over the bandwidth
that the circle moment needs for k = 1 anyway.

The circle position is reported through <e^{iQ}>, never a bare <Q>: the
chart [-pi, pi) makes <Q> jump under rotation, while the complex moment
is chart-free.  This choice of tracking observable is ours; nothing
canonical forces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import coherent_state
from .dynamics import Trajectory, evolve
from .enhanced import EnhancedHamiltonian, TrigPotential
from .hilbert import (
    MAX_CUTOFF, MAX_LATTICE_DIM, MomentumState, TwistedBasis, default_cutoff, wrap_angle,
)

# largest summed weight sum |a_j|^2 of the eigenmodes left out of a propagation
WINDOW_TAIL = 1e-24
# sample times rebuilt per block of evolve_quantum
TIME_CHUNK = 128
# evolve_quantum pads the initial state's span by 1/MARGIN_DIVISOR of it on each side
MARGIN_DIVISOR = 4


@dataclass(eq=False)
class HamiltonianMatrix:
    """P^2 + V in the twisted basis, stored as the data it has: ``diagonal``
    holds P^2 + a0 on each slot and ``bands[k - 1]`` the value h_k on the
    k-th band below it (its conjugate on the k-th band above)."""

    basis: TwistedBasis
    potential: TrigPotential
    diagonal: np.ndarray
    bands: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The whole dense matrix: O(dim^2) memory, for oracles and checks
        only (``selftest``'s free spectrum and perfbench's operation counts)."""
        return self.block(slice(None), slice(None))

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """Dense H[rows, cols], each range clipped to [0, dim) as slicing clips it."""
        dim = self.diagonal.size
        (r0, r1, _), (c0, c1, _) = rows.indices(dim), cols.indices(dim)
        out = np.zeros((max(r1 - r0, 0), max(c1 - c0, 0)), self.diagonal.dtype)
        for k in range(-len(self.bands), len(self.bands) + 1):
            # H[i, i - k] sits at local column = local row + shift
            shift = r0 - c0 - k
            local = np.arange(max(-shift, 0), min(out.shape[0], out.shape[1] - shift))
            out[local, local + shift] += (self.diagonal[r0 + local] if k == 0 else
                                          self.bands[k - 1] if k > 0 else np.conj(self.bands[-k - 1]))
        return out


def build_hamiltonian(potential: TrigPotential, basis: TwistedBasis) -> HamiltonianMatrix:
    """The banded Hermitian P^2 + V in the twisted basis: float64 when the
    potential has no sine terms (it is then real symmetric), else complex."""
    m = potential.degree
    if basis.cutoff_n <= m:
        raise ValueError(f"cutoff {basis.cutoff_n} must exceed the potential degree {m}")
    momenta = basis.momenta()
    diagonal = momenta * momenta + potential.a0
    bands = 0.5 * (np.array(potential.a) - 1j * np.array(potential.b))
    if any(potential.b):
        return HamiltonianMatrix(basis, potential, diagonal.astype(complex), bands)
    return HamiltonianMatrix(basis, potential, diagonal, bands.real)


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


def _edge_residuals(ham: HamiltonianMatrix, block: slice, modes: np.ndarray) -> list:
    """The parts below and above the block of ||(H - E_j) v_j|| (their
    hypot) for the eigenvectors v_j of H[block, block], taken as zero
    outside the block: inside it the residual vanishes, and outside only
    the m = len(ham.bands) slots on either side couple to the block."""
    m = len(ham.bands)
    rows = (slice(max(block.start - m, 0), block.start), slice(block.stop, block.stop + m))
    # hypot never squares, so huge couplings cannot overflow the norm
    return [np.hypot.reduce(np.abs(ham.block(edge, block) @ modes), axis=0) for edge in rows]


def evolve_quantum(
    ham: HamiltonianMatrix, initial: MomentumState, dt: float, steps: int
) -> ExpectationTrace:
    """Expectation traces of |psi(t)> = e^{-i H t / hbar} |psi(0)>.

    The eigendecomposition runs on the principal block H[lo:hi, lo:hi] of
    the slots that hold all but ``WINDOW_TAIL`` of the initial weight plus
    a margin, and exact phases drive the modes inside the spectral window:
    each chunk of sample times multiplies the phases at its first sample by
    one table of phases over a chunk's offsets.  Over the horizon
    T = |dt| steps the amplitude error is at most

        sqrt(weight outside the block) + sqrt(discarded weight)
            + (T / hbar) sum_j |a_j| ||(H - E_j) v_j||

    (a Duhamel estimate per kept mode); while that exceeds
    sqrt(WINDOW_TAIL) the block is solved again with the margin doubled on
    each side whose own leak keeps the bound over (on both when neither
    does alone); a side within the bandwidth of the lattice edge reaches it.
    On the whole lattice the bound is the window's alone, so the loop ends.
    The bound covers truncation only (roundoff grows like eps ||H|| T / hbar,
    as for any eigendecomposition); a failed one raises LinAlgError untouched.
    """
    if initial.basis != ham.basis:
        raise ValueError("initial state and Hamiltonian use different bases")
    if abs(initial.norm_sq() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")

    hbar, dim = ham.basis.hbar, ham.basis.dimension
    psi = initial.coeffs
    slot_weights = psi.real**2 + psi.imag**2
    held, _ = _spectral_window(slot_weights)
    first, last = int(held[0]), int(held[-1]) + 1
    margins = [max(1, (last - first) // MARGIN_DIVISOR)] * 2
    horizon, limit = abs(dt) * steps / hbar, math.sqrt(WINDOW_TAIL)
    while True:
        block = slice(max(first - margins[0], 0), min(last + margins[1], dim))
        energies, modes = np.linalg.eigh(ham.block(block, block))
        # a = modes^H psi, arranged so that a real ``modes`` is never copied
        amps = np.conj(_apply(modes.T, np.conj(psi[block])))
        kept, discarded = _spectral_window(amps.real**2 + amps.imag**2)
        energies, modes, amps = energies[kept], modes[:, kept], amps[kept]
        outside = (slot_weights[: block.start].sum(), slot_weights[block.stop:].sum())
        leaks, sizes = _edge_residuals(ham, block, modes), np.abs(amps)
        leak = horizon * float(sizes @ np.hypot(*leaks))
        bound = math.sqrt(sum(outside)) + math.sqrt(discarded) + leak
        if bound <= limit or block.stop - block.start == dim:
            break
        # a side grows when its leak alone keeps the bound over the limit, both
        # when neither does
        over = [math.sqrt(w) + math.sqrt(discarded) + horizon * float(sizes @ side) > limit
                for w, side in zip(outside, leaks)]
        margins = [2 * margin if grow or not any(over) else margin
                   for margin, grow in zip(margins, over)]
        # a side stopping within the bandwidth of the lattice edge takes those
        # slots too: the solve costs the same, and no whole-lattice copy follows
        margins = [room if room - margin <= len(ham.bands) else margin
                   for margin, room in zip(margins, (first, dim - last))]

    momenta = ham.basis.momenta()[block]
    diagonal, bands = ham.diagonal[block].real, ham.bands
    times = dt * np.arange(steps + 1)
    # phases of one chunk's offsets from its first sample; each chunk scales
    # them by the exact phases at that sample, so no error accumulates
    table = np.exp(-1j * np.outer(energies, times[:TIME_CHUNK]) / hbar)
    cos_q, sin_q, mean_p, norm, energy = np.empty((5, steps + 1))
    for start in range(0, steps + 1, TIME_CHUNK):
        chunk = slice(start, start + TIME_CHUNK)
        head = np.exp(-1j * (energies * times[start]) / hbar) * amps
        states = _apply(modes, head[:, None] * table[:, : len(times[chunk])])  # (slots, times)
        weights = states.real**2 + states.imag**2
        norm[chunk] = weights.sum(axis=0)
        mean_p[chunk] = momenta @ weights
        # s_k = sum_i conj(psi_{i+k}) psi_i: s_1 is <e^{iQ}>, and
        # <H> = diagonal . weights + 2 sum_k Re(h_k s_k)
        shifted = [np.sum(np.conj(states[k:]) * states[:-k], axis=0)
                   for k in range(1, max(len(bands), 1) + 1)]
        cos_q[chunk], sin_q[chunk] = shifted[0].real, shifted[0].imag
        energy[chunk] = diagonal @ weights + 2.0 * sum((h * s).real for h, s in zip(bands, shifted))
    return ExpectationTrace(
        times=times, cos_q=cos_q, sin_q=sin_q, mean_p=mean_p, norm=norm, energy=energy,
        modes_kept=int(kept.size), discarded_weight=discarded,
        slots_kept=block.stop - block.start, truncation_bound=bound,
    )


@dataclass(eq=False)
class ComparisonReport:
    """The three flows from one phase-space point, and how far the
    enhanced flow strays from the quantum one.

    ``quantum`` is the exact evolution of |p, q>, ``enhanced`` the leapfrog
    flow of H_cs and ``classical`` the leapfrog flow of p^2 + V(q); each
    carries the one time grid as ``times``, and the deviations are taken at
    its samples.  ``phase_deviation`` is the Euclidean gap between the unit
    vectors (cos q, sin q) of the enhanced angle and the normalized quantum
    moment <e^{iQ}>/|<e^{iQ}>|; ``momentum_deviation`` compares the quantum
    <P> against the shifted enhanced momentum p + hbar alpha.
    ``ehrenfest_window`` is the time the phase deviation first reaches 0.1
    (the full horizon if it never does).
    """

    momentum_deviation: np.ndarray
    phase_deviation: np.ndarray
    coherence: np.ndarray
    ehrenfest_window: float
    quantum: ExpectationTrace
    enhanced: Trajectory
    classical: Trajectory


def comparison_basis(model: EnhancedHamiltonian, p0: float) -> TwistedBasis:
    """Default lattice: fiducial support, potential bandwidth, boost margin |p0|/hbar.

    Raises ValueError when the lattice would exceed ``MAX_LATTICE_DIM``
    slots, before anything of that size is built.
    """
    spec = model.spec
    margin = abs(p0) / spec.hbar
    support = default_cutoff(spec.localization, model.potential.degree)
    if support + margin > MAX_CUTOFF:
        raise ValueError(
            f"a boost of |p|/hbar = {margin:.6g} needs a lattice wider than "
            f"MAX_LATTICE_DIM = {MAX_LATTICE_DIM} slots"
        )
    return TwistedBasis(spec.alpha, spec.hbar, support + int(math.ceil(margin)))


def compare_restricted(
    model: EnhancedHamiltonian,
    p0: float,
    q0: float,
    dt: float,
    steps: int,
) -> ComparisonReport:
    """Run the true quantum evolution from |p0, q0> on the
    :func:`comparison_basis` lattice, and the enhanced and classical flows
    from (p0, q0), all over ``steps`` steps of ``dt``, and report their
    deviation traces.  All three start from q0 wrapped into [-pi, pi)."""
    spec = model.spec
    basis = comparison_basis(model, p0)
    q0 = float(wrap_angle(q0))

    initial = coherent_state(spec, basis, p0, q0)
    ham = build_hamiltonian(model.potential, basis)
    quantum = evolve_quantum(ham, initial, dt, steps)

    enhanced = evolve("enhanced", model, p0, q0, dt, steps)
    classical = evolve("classical", model, p0, q0, dt, steps)

    shift = spec.hbar * spec.alpha
    momentum_dev = np.abs(quantum.mean_p - (enhanced.p + shift))
    coherence = np.abs(quantum.cos_q + 1j * quantum.sin_q)  # |<e^{iQ}>|
    safe = np.where(coherence > 1e-12, coherence, 1.0)
    cos_n = np.where(coherence > 1e-12, quantum.cos_q / safe, np.nan)
    sin_n = np.where(coherence > 1e-12, quantum.sin_q / safe, np.nan)
    phase_dev = np.hypot(np.cos(enhanced.q) - cos_n, np.sin(enhanced.q) - sin_n)
    # a fully dispersed moment carries no phase; count that as maximal
    phase_dev = np.where(np.isnan(phase_dev), 2.0, phase_dev)

    crossed = np.nonzero(phase_dev >= 0.1)[0]
    window = float(quantum.times[crossed[0]]) if crossed.size else float(quantum.times[-1])
    return ComparisonReport(
        momentum_deviation=momentum_dev,
        phase_deviation=phase_dev,
        coherence=coherence,
        ehrenfest_window=window,
        quantum=quantum,
        enhanced=enhanced,
        classical=classical,
    )
