"""Output verification for benchmark jobs.

Every job is checked after its pass, outside the timed section:

* exit code 0 and no exception;
* every CSV the command must write exists, parses, carries its schema line
  and holds only finite values;
* the invariants of the acceptance battery at tolerances no looser than
  there: quantum norm within 1e-10 of 1, exact-propagation energy constant
  to 1e-9, leapfrog energy error inside its explicit O(dt^2) bound, unity
  off-diagonal defect <= 1e-10 and interior diagonal defect <= 1e-3 at the
  largest cutoff, and the H_cs surface equal to an independent closed form
  to 1e-8;
* for a sample of ``compare`` jobs, <P> and <e^{iQ}> at a few times agree
  with an independent numpy-only propagation (see ``reference_moments``).

Nothing here imports circleq: the reference is built from the model's
definition (the fiducial wave function, the sinc boost, P^2 + V on the
twisted lattice), so an error that circleq makes consistently everywhere
still shows.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

NORM_TOL = 1e-10
QUANTUM_ENERGY_TOL = 1e-9
UNITY_OFFDIAG_TOL = 1e-10
UNITY_INTERIOR_TOL = 1e-3
SURFACE_TOL = 1e-8
REFERENCE_TOL = 1e-10

_SCHEMA = re.compile(r"# schema: circleq/[a-z0-9-]+ v\d+$")

EXPECTED_CSV = {
    "compare": (
        "compare_classical.csv", "compare_enhanced.csv", "compare_quantum.csv",
        "compare_deviation.csv", "compare_summary.csv",
    ),
    "unity": ("unity_defects.csv",),
    "hamiltonian": ("hamiltonian_grid.csv", "hamiltonian_meta.csv"),
}


class VerificationError(AssertionError):
    pass


def _check(ok: bool, message: str):
    if not ok:
        raise VerificationError(message)


def read_csv(path: Path) -> dict:
    """{column: float array} of a circleq CSV, after the format checks."""
    with open(path) as handle:
        schema = handle.readline().rstrip("\n")
        generated = handle.readline()
        header = handle.readline().rstrip("\n").split(",")
        _check(bool(_SCHEMA.match(schema)), f"{path.name}: bad schema line {schema!r}")
        _check(generated.startswith("# generated:"), f"{path.name}: no generated line")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    _check(data.shape[0] >= 1, f"{path.name}: no data rows")
    _check(data.shape[1] == len(header), f"{path.name}: {data.shape[1]} values, {len(header)} columns")
    _check(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")
    return {name: data[:, i] for i, name in enumerate(header)}


def _potential(model: dict):
    a = [float(x) for x in model.get("model.potential.a", "").split(",") if x.strip()]
    b = [float(x) for x in model.get("model.potential.b", "").split(",") if x.strip()]
    m = max(len(a), len(b))
    return np.array(a + [0.0] * (m - len(a))), np.array(b + [0.0] * (m - len(b)))


def _spec(model: dict):
    r = float(model.get("model.r", "1.0"))
    hbar = float(model.get("model.hbar", "1.0"))
    alpha = float(model.get("model.alpha", "0.0")) % 1.0
    return r, hbar, alpha


def attenuations_by_quadrature(z2: float, degree: int) -> np.ndarray:
    """rho_n = I_n(z2)/I_0(z2), n = 0..degree, as ratios of periodic
    trapezoid integrals of e^{z2 (cos t - 1)} cos(n t) (spectrally exact)."""
    t = 2.0 * math.pi * np.arange(4096) / 4096
    weight = np.exp(z2 * (np.cos(t) - 1.0))
    return np.array([weight @ np.cos(n * t) for n in range(degree + 1)]) / weight.sum()


def leapfrog_bound(dt: float, a: np.ndarray, b: np.ndarray, p_max: float) -> float:
    """Explicit bound on the energy error of kick-drift-kick leapfrog for
    H = T(p) + V(q), T = (p + s)^2.

    The modified Hamiltonian is H + dt^2 (T'^2 V''/12 - T'' V'^2/24) + O(dt^4),
    so |E(t) - E(0)| <= 2 dt^2 (P^2 G / 3 + F^2 / 12) to leading order, with
    P = max |p + s|, F >= max |V'| and G >= max |V''|.  A factor 2 covers the
    higher orders.
    """
    n = np.arange(1, len(a) + 1)
    force = float(np.sum(n * (np.abs(a) + np.abs(b))))
    curvature = float(np.sum(n * n * (np.abs(a) + np.abs(b))))
    return 4.0 * dt * dt * (p_max * p_max * curvature / 3.0 + force * force / 12.0)


def _check_flow(table: dict, model: dict, kind: str, steps: int, name: str):
    _check(len(table["t"]) == steps + 1, f"{name}: {len(table['t'])} rows, expected {steps + 1}")
    _, hbar, alpha = _spec(model)
    a, b = _potential(model)
    dt = float(table["t"][1] - table["t"][0])
    shift = hbar * alpha if kind == "enhanced" else 0.0
    p_max = float(np.max(np.abs(table["p"] + shift)))
    drift = float(np.max(np.abs(table["energy"] - table["energy"][0])))
    bound = leapfrog_bound(dt, a, b, p_max)
    _check(drift <= bound, f"{name}: leapfrog energy error {drift:.3e} > bound {bound:.3e}")
    wrapped = (table["q_unwrapped"] + math.pi) % (2.0 * math.pi) - math.pi
    _check(float(np.max(np.abs(wrapped - table["q"]))) <= 1e-9, f"{name}: q != wrap(q_unwrapped)")


def _check_quantum(table: dict, steps: int, name: str):
    _check(len(table["t"]) == steps + 1, f"{name}: {len(table['t'])} rows, expected {steps + 1}")
    norm_err = float(np.max(np.abs(table["norm"] - 1.0)))
    _check(norm_err <= NORM_TOL, f"{name}: max |norm - 1| = {norm_err:.3e}")
    drift = float(np.max(np.abs(table["energy"] - table["energy"][0])))
    _check(drift <= QUANTUM_ENERGY_TOL, f"{name}: quantum energy drift {drift:.3e}")


def reference_moments(model: dict, run: dict, times: np.ndarray):
    """(<P>, <e^{iQ}>) at ``times`` from |p0, q0> under P^2 + V, numpy only.

    Fiducial coefficients come from an FFT of e^{z (cos t - 1)} (not from
    Bessel functions), the boost from the exact sinc projection, the
    Hamiltonian bands from an FFT of V, and propagation from one
    eigendecomposition evaluated only at the requested times.  The lattice
    is wider than circleq's, so its truncation cannot hide in both.
    """
    r, hbar, alpha = _spec(model)
    a, b = _potential(model)
    z = r / hbar
    q0, p0 = float(run["run.q0"]), float(run["run.p0"])
    # fiducial coefficients c_n, n in [-M/2, M/2)
    m_fft = 4096
    t = 2.0 * math.pi * np.arange(m_fft) / m_fft
    c_all = np.fft.fft(np.exp(z * (np.cos(t) - 1.0))).real / m_fft
    n_src = np.arange(-int(8 * max(z, 1.0)) - 16, int(8 * max(z, 1.0)) + 17)
    c = c_all[n_src % m_fft]
    c /= np.linalg.norm(c)
    cutoff = int(math.ceil(8.0 * max(z, 1.0))) + len(a) + 24 + int(math.ceil(abs(p0) / hbar))
    k = np.arange(-cutoff, cutoff + 1)
    boosted = np.sinc(n_src[None, :] - k[:, None] + p0 / hbar) @ c
    psi0 = np.exp(-1j * (k + alpha) * q0) * boosted
    psi0 /= np.linalg.norm(psi0)
    # P^2 + V on the lattice
    a0 = float(model.get("model.potential.a0", "0.0"))
    v_fft = np.fft.fft(a0 + _potential_values(a, b, t)) / m_fft
    diff = k[:, None] - k[None, :]
    ham = v_fft[diff % m_fft]
    ham[np.abs(diff) > len(a)] = 0.0
    ham = ham + np.diag((hbar * (k + alpha)) ** 2)
    if not np.any(b):
        energies, modes = np.linalg.eigh(ham.real)
    else:
        energies, modes = np.linalg.eigh(ham)
    amps = modes.conj().T @ psi0
    states = modes @ (np.exp(-1j * np.outer(energies, times) / hbar) * amps[:, None])
    weights = np.abs(states) ** 2
    mean_p = (hbar * (k + alpha)) @ weights
    moment = np.sum(np.conj(states[1:]) * states[:-1], axis=0)
    return mean_p, moment


def _potential_values(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    total = np.zeros_like(t)
    for n, (an, bn) in enumerate(zip(a, b), start=1):
        total += an * np.cos(n * t) + bn * np.sin(n * t)
    return total


def _check_reference(quantum: dict, model: dict, run: dict, name: str):
    rows = len(quantum["t"])
    picks = np.unique([0, rows // 3, (2 * rows) // 3, rows - 1])
    mean_p, moment = reference_moments(model, run, quantum["t"][picks])
    gap_p = float(np.max(np.abs(mean_p - quantum["mean_p"][picks])))
    gap_q = float(np.max(np.abs(moment - (quantum["cos_q"][picks] + 1j * quantum["sin_q"][picks]))))
    _check(
        max(gap_p, gap_q) <= REFERENCE_TOL,
        f"{name}: reference propagation differs (<P> {gap_p:.2e}, <e^iQ> {gap_q:.2e})",
    )


def _check_unity(table: dict, params: dict):
    factors = params["factors"]
    _check(len(table["p_cutoff"]) == len(factors), "unity_defects.csv: wrong row count")
    offdiag = float(np.max(table["offdiag_defect"]))
    _check(offdiag <= UNITY_OFFDIAG_TOL, f"unity off-diagonal defect {offdiag:.3e}")
    interior = float(table["interior_diag_defect"][-1])
    _check(interior <= UNITY_INTERIOR_TOL, f"unity interior diagonal defect {interior:.3e}")
    _check(bool(np.all(table["p_nodes"] >= 64)), "unity used fewer than 64 p nodes")


def _check_surface(grid: dict, meta: dict, model: dict):
    r, hbar, alpha = _spec(model)
    a, b = _potential(model)
    a0 = float(model.get("model.potential.a0", "0.0"))
    rho = attenuations_by_quadrature(2.0 * r / hbar, len(a))
    var_p = 0.5 * hbar * r * rho[1]  # sum n^2 I_n(z)^2 / sum I_n(z)^2 = z I_1(2z) / (2 I_0(2z))
    p, q = grid["p"], grid["q"]
    v_bare = a0 + _potential_values(a, b, q)
    v_rho = a0 + _potential_values(rho[1:] * a, rho[1:] * b, q)
    expected = {
        "h_coherent": (p + hbar * alpha) ** 2 + var_p + v_rho,
        "h_coherent_shifted": p**2 + var_p + v_rho,
        "h_classical": p**2 + v_bare,
        "residual": v_rho - v_bare,
    }
    for column, values in expected.items():
        gap = float(np.max(np.abs(grid[column] - values)))
        _check(gap <= SURFACE_TOL, f"hamiltonian_grid.csv: {column} off by {gap:.3e}")
    gap = abs(float(meta["kinetic_offset"][0]) - var_p)
    _check(gap <= SURFACE_TOL, f"hamiltonian_meta.csv: kinetic_offset off by {gap:.3e}")
    for j in range(1, len(a) + 1):
        gap = abs(float(meta[f"rho_{j}"][0]) - rho[j])
        _check(gap <= SURFACE_TOL, f"hamiltonian_meta.csv: rho_{j} off by {gap:.3e}")


def verify_job(params: dict, outdir: Path, printed: list, reference: bool = False) -> None:
    """Check one job's outputs; raises VerificationError on the first
    violated check.  ``printed`` is what the command wrote to stdout."""
    command = params["command"]
    model, run = params["model"], params["run"]
    outdir = Path(outdir)
    for path in printed:
        _check(Path(path).is_file(), f"printed path {path} does not exist")
    tables = {}
    for name in EXPECTED_CSV[command]:
        path = outdir / name
        _check(path.is_file(), f"{name} was not written")
        _check(str(path) in printed, f"{name} written but not printed")
        tables[name] = read_csv(path)
    if command == "compare":
        steps = params["steps"]
        _check_flow(tables["compare_classical.csv"], model, "classical", steps, "compare_classical.csv")
        _check_flow(tables["compare_enhanced.csv"], model, "enhanced", steps, "compare_enhanced.csv")
        _check_quantum(tables["compare_quantum.csv"], steps, "compare_quantum.csv")
        if reference:
            _check_reference(tables["compare_quantum.csv"], model, run, "compare_quantum.csv")
    elif command == "unity":
        _check_unity(tables["unity_defects.csv"], params)
    elif command == "hamiltonian":
        _check_surface(tables["hamiltonian_grid.csv"], tables["hamiltonian_meta.csv"], model)
