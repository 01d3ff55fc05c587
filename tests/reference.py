"""Reference implementations that the tests hold the package to.

No subcommand runs these, so they live with the tests: the generator that
the RK4 step is held bit-equal to, the state check, the mean blackening
law, a typed CSV reader, the two basis states, and the scalar no-click
state that ``dynamics.no_jump_series`` is compared with, and the per-time
closed form that ``dynamics.no_click_populations`` is held bit-equal to.
"""

import cmath
import csv
import math

from nullshadow.core import DensityMatrix2, QubitState, normalize

GROUND = QubitState(1.0 + 0.0j, 0.0j)
EXCITED = QubitState(0.0j, 1.0 + 0.0j)


def reference_no_jump(state, params, t):
    """Scalar reference: free phases, damping e^(-gamma t / 2), then normalize."""
    a0 = state.a0 * cmath.exp(-1j * params.e0 * t)
    a1 = state.a1 * cmath.exp(-1j * params.e1 * t) * math.exp(-0.5 * params.gamma * t)
    return normalize(QubitState(a0, a1))


def no_click_populations_at(p0, p1, gamma, t):
    """rho11, rho00 and S at one time t, one IEEE operation after another.

    x = p1 e^(-gamma t), S = x + p0, rho11 = x / S and rho00 = p0 / S; a
    pure excited state (p0 == 0) gives 1.0 and 0.0 with S = x.
    """
    x = math.exp(-gamma * t) * p1
    if p0 == 0.0:
        return 1.0, 0.0, x
    survival = x + p0
    return x / survival, p0 / survival, survival


def lindblad_rhs(rho, params):
    """Time derivative of the density matrix (traceless by construction).

    This is the generator in the ``nullshadow.master`` docstring, as
    ``DensityMatrix2`` values; ``master._step_rk4`` repeats its IEEE
    operations in the same order.
    """
    flow = params.gamma * rho.rho11
    return DensityMatrix2(
        rho00=+flow,
        rho11=-flow,
        rho01=(1j * params.omega - 0.5 * params.gamma) * rho.rho01,
    )


def check_state(rho, atol=1e-9):
    """Assert trace one within ``atol``, nonnegative populations, and positivity."""
    trace = rho.rho00 + rho.rho11
    assert abs(trace - 1.0) <= atol, f"trace {trace} differs from 1 beyond {atol}"
    assert rho.rho00 >= -1e-12 and rho.rho11 >= -1e-12, f"negative population: {rho}"
    assert abs(rho.rho01) ** 2 <= rho.rho00 * rho.rho11 + atol, f"coherence exceeds positivity bound: {rho}"


def expected_blackened(n, p1, gamma, t):
    """Mean number of cells blackened by time t: n * p1 * (1 - e^(-gamma t))."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"excited probability must be in [0, 1], got {p1}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return n * p1 * -math.expm1(-gamma * t)


def read_csv_table(path):
    """Parse a CSV written by ``output.write_record`` back into typed cells."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_parse_cell(v) for v in row] for row in reader]
    return header, rows


def _parse_cell(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
