"""Modified Bessel functions of integer order and Gauss-Legendre rules.

Everything else in the package sits on two primitives: the overflow-safe
sequence e^{-z} I_n(z), n = 0..m, and the Gauss-Legendre rules on [-1, 1]
for the momentum integrals, as many node counts as a caller needs from one
Legendre recurrence.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# below this argument e^{-z} I_n(z) = (z/2)^n / n! to double precision
_TINY_ARG = 1e-20
# highest start order of the Miller recurrence (z up to about 8e5); past it
# the Python loop would run for seconds to years
_MAX_START_ORDER = 1_000_000
_NEWTON_STEPS = 10  # from Tricomi's guess Newton settles in 2 or 3 steps


class ConvergenceError(ArithmeticError):
    """An iteration did not reach double precision within its step cap."""


def _miller_scaled(max_order: int, z: float) -> np.ndarray:
    """e^{-z} I_n(z) for n = 0..max_order by backward (Miller) recurrence.

    The recurrence I_{k-1} = I_{k+1} + (2k/z) I_k is run downward from a
    start order far enough above both max_order and the turning point
    k ~ z that the arbitrary seed is damped below machine precision, and
    the result is normalized with I_0(z) + 2 sum_{k>=1} I_k(z) = e^z.
    Raises ValueError, before allocating, when the start order exceeds
    ``_MAX_START_ORDER``.
    """
    start = max(max_order, 1.2 * z + 12.0 * math.sqrt(z)) + 40
    if start > _MAX_START_ORDER:
        raise ValueError(
            f"I_n({z:.6g}) needs a Miller recurrence from order {start:.6g}, "
            f"beyond the limit {_MAX_START_ORDER}"
        )
    start = int(start)
    # Python floats: a numpy item access per step costs more than the step
    b = [0.0] * (start + 2)
    b[start] = 1.0
    for k in range(start, 0, -1):
        b[k - 1] = value = b[k + 1] + (2.0 * k / z) * b[k]
        if value > 1e250:
            b[k - 1:] = [x * 1e-250 for x in b[k - 1:]]
    b = np.array(b)
    total = b[0] + 2.0 * b[1:].sum()
    return b[: max_order + 1] / total


def bessel_i_scaled_sequence(max_order: int, z: float) -> np.ndarray:
    """Array of exponentially scaled values e^{-z} I_n(z), n = 0..max_order."""
    if not isinstance(max_order, (int, np.integer)):
        raise ValueError(f"Bessel order must be an integer, got {max_order!r}")
    if max_order < 0:
        raise ValueError(f"Bessel order must be >= 0, got {max_order}")
    if z < 0.0:
        raise ValueError(f"Bessel argument must be >= 0, got {z}")
    if z < _TINY_ARG:  # also z = 0; the recurrence's 2k/z would overflow
        terms = np.full(max_order + 1, 0.5 * z) / np.maximum(np.arange(max_order + 1), 1)
        terms[0] = 1.0
        return np.cumprod(terms)
    return _miller_scaled(max_order, z)


def _legendre_pairs(xs: list, ns: list) -> list:
    """[(P_n(x), P_{n-1}(x))] for each x in ``xs`` with its n in ``ns``, n
    descending: one three-term recurrence up to ns[0] over the nodes whose n
    is still ahead, in place with float coefficients."""
    x = np.concatenate(xs)
    prev, last, work = np.ones_like(x), x.copy(), np.empty_like(x)
    ends = np.cumsum([part.size for part in xs])
    pairs, start = [], 2
    for n, lo, hi in reversed(list(zip(ns, [0, *ends[:-1]], ends))):  # ascending n
        nodes, prev, last, work = x[:hi], prev[:hi], last[:hi], work[:hi]
        for j in map(float, range(start, n + 1)):
            np.multiply(nodes, last, out=work)
            work *= 2.0 * j - 1.0
            prev *= j - 1.0
            np.subtract(work, prev, out=prev)
            prev /= j
            prev, last = last, prev
        start = n + 1
        pairs.append((last[lo:], prev[lo:]))  # no later stage reaches past lo
    return pairs[::-1]


def gauss_legendre(counts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on
    [-1, 1], one (x, w) per n in ``counts``.

    Newton's method on the recurrence from Tricomi's guess, for all x >= 0 of
    every rule at once, costs O(max(n) sum(n)).  A rule stops when Newton's
    error dx^2 x / (1 - x^2) is below eps x / 4 at all its nodes, else raises
    ConvergenceError; one more pass gives the weights
    2 / ((1 - x^2) P_n'(x)^2).  Each rule is bit for bit the rule of its n
    alone, and a repeated n shares its arrays.  P_n(0) = 0 exactly for odd
    n: x = 0 stays.
    """
    counts = list(counts)
    ns = sorted(set(counts), reverse=True)
    if not ns or ns[-1] < 1:
        raise ValueError(f"Gauss-Legendre rules need counts n >= 1, got {counts}")
    nodes = {}
    for n in ns:
        theta = math.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
        x = (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
        x[n // 2:] = 0.0  # the middle node of odd n
        nodes[n] = x
    active = ns
    for _ in range(_NEWTON_STEPS):
        unconverged = []
        for n, (p, q) in zip(active, _legendre_pairs([nodes[n] for n in active], active)):
            x = nodes[n]
            # P_n / P_n' with P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), and 1 - x^2 = (1 - x)(1 + x)
            dx = (x - 1.0) * (x + 1.0) * p / (n * (x * p - q))
            x -= dx
            if not np.all(dx * dx <= 0.25 * np.finfo(float).eps * (1.0 - x) * (1.0 + x)):
                unconverged.append(n)
        active = unconverged
        if not active:
            break
    else:
        raise ConvergenceError(f"Gauss-Legendre rules of {', '.join(map(str, active))} nodes "
                               f"unconverged after {_NEWTON_STEPS} steps")
    rules = {}
    for n, (p, q) in zip(ns, _legendre_pairs([nodes[n] for n in ns], ns)):
        x = nodes[n]
        w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (x * p - q)) ** 2
        rules[n] = np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])
    return [rules[n] for n in counts]
