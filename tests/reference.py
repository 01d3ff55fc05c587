"""Reference implementations that the tests hold the package to.

No subcommand runs these, so they live with the tests: one density
matrix and the projector onto a pure state, the generator and the staged
RK4 step built from it, which the package's step is held within rounding
of, the state check, the mean blackening law, a typed CSV reader, the
loader of the record schema, the two basis states, and the scalar
no-click state that ``dynamics.no_jump_series`` is compared with, the
per-time closed form that ``dynamics.no_click_populations`` is held
bit-equal to, and the JSON and CSV formats of a record, byte for byte
(``reference_json`` and ``reference_csv``).
"""

import cmath
import csv
import io
import json
import math
from importlib import resources
from typing import NamedTuple

from nullshadow import __version__
from nullshadow.core import QubitState, normalize


class DensityMatrix2(NamedTuple):
    """2x2 density matrix as its two populations and the coherence of ``DensitySeries.rho01``.

    The mirror element is the conjugate of ``rho01``.  No invariant (unit
    trace, positivity) is enforced; ``check_state`` asserts them.  The
    package's ``integrate_master`` takes one as its start.
    """

    rho00: float
    rho11: float
    rho01: complex


def density_from_state(state):
    """Projector onto a pure state: the same three expressions as ``master-check``'s oracle start."""
    return DensityMatrix2(
        rho00=abs(state.a0) ** 2,
        rho11=abs(state.a1) ** 2,
        rho01=state.a0 * state.a1.conjugate(),
    )


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
    ``DensityMatrix2`` values.
    """
    flow = params.gamma * rho.rho11
    return DensityMatrix2(
        rho00=+flow,
        rho11=-flow,
        rho01=(1j * params.omega - 0.5 * params.gamma) * rho.rho01,
    )


def reference_step_rk4(rho, params, dt):
    """Classical RK4 step staged from four calls of lindblad_rhs, k1 to k4.

    ``master._step_rk4`` takes the same step as one multiply-add by the
    stability polynomial's increment, so the two agree within rounding,
    not bit for bit.
    """
    k1 = lindblad_rhs(rho, params)
    k2 = lindblad_rhs(reference_shift(rho, k1, 0.5 * dt), params)
    k3 = lindblad_rhs(reference_shift(rho, k2, 0.5 * dt), params)
    k4 = lindblad_rhs(reference_shift(rho, k3, dt), params)
    sixth = dt / 6.0
    return DensityMatrix2(
        rho00=rho.rho00 + sixth * (k1.rho00 + 2.0 * k2.rho00 + 2.0 * k3.rho00 + k4.rho00),
        rho11=rho.rho11 + sixth * (k1.rho11 + 2.0 * k2.rho11 + 2.0 * k3.rho11 + k4.rho11),
        rho01=rho.rho01 + sixth * (k1.rho01 + 2.0 * k2.rho01 + 2.0 * k3.rho01 + k4.rho01),
    )


def reference_shift(rho, d, h):
    """The RK4 stage point rho + h * d."""
    return DensityMatrix2(rho.rho00 + h * d.rho00, rho.rho11 + h * d.rho11, rho.rho01 + h * d.rho01)


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


SCHEMA_RESOURCE = "output_record.schema.json"


def load_schema():
    """The JSON schema that every JSON record must satisfy, from the data of the package under test."""
    return json.loads(resources.files("nullshadow.schemas").joinpath(SCHEMA_RESOURCE).read_text("utf-8"))


def reference_json(record):
    """The JSON format, byte for byte: json.dumps of the record at indent 2."""
    data = {
        "scenario": record.scenario,
        "version": __version__,
        "seed": record.seed,
        "config": record.config,
        "summary": record.summary,
        "columns": list(record.columns),
        "rows": record.rows[:],
    }
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def reference_csv(record):
    """The CSV format, byte for byte: one csv.writer over the header and every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    writer.writerows(record.rows[:])
    return buf.getvalue()


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
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
