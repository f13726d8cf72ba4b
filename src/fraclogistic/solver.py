"""Time marching for the fractional logistic equation and its comparison problems.

The logistic initial-value problem with a Caputo derivative of order
``alpha`` in (0, 1),

    D^alpha u(t) = -u(t) (1 - u(t)),    u(0) = u0 > 0,

is equivalent to a Volterra integral equation whose kernel is the
decay-branch convolution kernel and whose forcing is the squared history:

    u(t) = u0 E_a(-t^a) + int_0^t (t-s)^(a-1) E_{a,a}(-(t-s)^a) u(s)^2 ds.

Substituting w = u - 1 turns decay into growth (``ShiftedLogistic``), and
dropping the linear part entirely gives the two pure-power comparison
problems ``Square`` (D^alpha w = w^2) and ``ShiftedSquare``
(D^alpha w = (w + 1/2)^2), whose integral forms use the plain fractional
integral (Riemann-Liouville branch) and a constant homogeneous term.

Discretization: backward-Euler convolution quadrature on a uniform grid
t_n = n h.  The update is semi-implicit — the forcing history squares
*previous* iterates only, and the implicit linear part is absorbed into a
(1 - w_0)^(-1) factor:

    u_n = (hom_n + sum_{j=0}^{n-1} w_{n-j} g(u_j)) / (1 - w_0),

where ``hom_n`` is the homogeneous term at t_n, ``w_j`` are the branch
weights from :mod:`fraclogistic.quadrature`, and ``g`` is the squared
forcing.  The j = 0 term enters the sum with weight w_n.  A Picard-corrected
variant (re-evaluating g at the new node until a fixed point, tolerance
1e-12, at most 25 iterations, falling back to the semi-implicit value when
the iteration diverges or fails to settle) is available behind the
``picard`` flag for accuracy studies.

The history sum is tiled, not formed node by node (the block-triangular
scheme of Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 1985).
Nodes are grouped in base blocks of B = ``_BLOCK`` = 64.  A node takes the
forcing of its own block by a direct dot product; everything older reaches
it through a far-history accumulator seeded with ``hom_n``.  When block q
opens at node m, one tile convolves the last s = B 2^ctz(q) forcing values
with the weights and adds the result to the accumulators of nodes m to
m + s - 1 (directly up to ``_DIRECT_TILE`` values, by FFT above that).
Every pair j < n is counted once, so N steps cost O(N log^2 N) instead of
the O(N^2) of a direct sum, and the sum agrees with the direct one to
rounding.

Weight tables and the homogeneous term are sized from the paper's
dichotomy.  ``Logistic`` starts in (0, 1] exist globally, so their run
builds one table for the whole horizon.  Every other start blows up in
finite time: its run starts with a table of ``_FIRST_TABLE`` steps and,
whenever the march reaches the end of the table, builds one twice as long
(capped at the horizon) and evaluates the homogeneous term for the new
nodes only, so a run pays for the steps it reaches.  A doubling restarts the
tiling at the last marched node, with all older forcing convolved against
the new table in one FFT, so every node after it uses the new table only.
A later table or homogeneous chunk that fails to certify ends the run as an
accuracy failure at the last marched node.

Blow-up is detected when a value exceeds the configured threshold after
strictly increasing over the preceding three steps (a confirmation window
that suppresses one-off rounding spikes).  Blow-up is a trajectory *status*,
never an exception; the same holds for mid-run accuracy failures reported by
the special-function or weight layers.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .quadrature import KernelBranch, KernelSpec, cq_weights
from .special import AccuracyError, mittag_leffler, ml_grid

__all__ = [
    "Nonlinearity",
    "ProblemSpec",
    "TrajectoryStatus",
    "Trajectory",
    "BlowUpReport",
    "solve",
    "detect_blowup",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "write_csv",
    "read_csv",
]


class Nonlinearity(enum.Enum):
    """Right-hand sides understood by the marcher.

    LOGISTIC
        u' = -u(1-u) in Caputo form, solved in the decay-kernel integral
        form with forcing u^2.
    SHIFTED_LOGISTIC
        w' = w(1+w) for w = u-1, growth kernel, forcing w^2.
    SQUARE
        w' = w^2, plain fractional-integral kernel, constant homogeneous
        term (lower comparison problem).
    SHIFTED_SQUARE
        w' = (w+1/2)^2, plain fractional-integral kernel (upper comparison
        problem).
    """

    LOGISTIC = "logistic"
    SHIFTED_LOGISTIC = "shifted-logistic"
    SQUARE = "square"
    SHIFTED_SQUARE = "shifted-square"


class TrajectoryStatus(enum.Enum):
    """Terminal state of a marched trajectory."""

    COMPLETED = "completed"
    BLEW_UP = "blew-up"
    ACCURACY_FAILURE = "accuracy-failure"


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """Problem definition for :func:`solve`.

    ``u0`` is the initial value of whichever unknown the chosen
    nonlinearity evolves (u itself for ``Logistic``, the shifted variable w
    otherwise).  Any positive initial value is accepted; the solver covers
    both the decaying and the blowing-up regime.

    Invariants enforced at construction: ``0 < alpha < 1``, ``u0 > 0``,
    ``0 < step <= t_max < inf``, ``blowup_threshold > max(1, u0)``.
    """

    alpha: float
    u0: float
    nonlinearity: Nonlinearity = Nonlinearity.LOGISTIC
    step: float = 1e-3
    t_max: float = 10.0
    blowup_threshold: float = 1e10

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly inside (0, 1), got %r" % (self.alpha,))
        if not (self.u0 > 0.0 and math.isfinite(self.u0)):
            raise ValueError("u0 must be a positive finite real, got %r" % (self.u0,))
        if not (0.0 < self.step <= self.t_max < math.inf):
            raise ValueError(
                "need 0 < step <= t_max < inf, got step=%r, t_max=%r" % (self.step, self.t_max)
            )
        if not self.blowup_threshold > max(1.0, self.u0):
            raise ValueError(
                "blowup_threshold must exceed max(1, u0), got %r" % (self.blowup_threshold,)
            )
        if not isinstance(self.nonlinearity, Nonlinearity):
            raise TypeError("nonlinearity must be a Nonlinearity member")


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """A marched solution: uniform times, finite values, terminal status.

    ``status_index`` is the index the status refers to (the confirmed
    blow-up node or the last trustworthy node before an accuracy failure);
    it is ``None`` for completed runs.
    """

    times: np.ndarray
    values: np.ndarray
    status: TrajectoryStatus = TrajectoryStatus.COMPLETED
    status_index: Optional[int] = None

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(np.asarray(self.times, dtype=float))
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size == 0:
            raise ValueError("a trajectory holds at least its initial node")
        if not np.all(np.isfinite(values)):
            raise ValueError("trajectory values must be finite at every recorded index")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if self.status is not TrajectoryStatus.COMPLETED:
            if self.status_index is None:
                raise ValueError("%s requires a status_index" % self.status.value)
            if not 0 <= self.status_index < times.size:
                raise ValueError("status_index out of range")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.status is other.status
            and self.status_index == other.status_index
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def step(self) -> float:
        """Grid spacing (the trajectory is recorded on a uniform grid)."""
        if self.times.size < 2:
            return 0.0
        return float(self.times[1] - self.times[0])


@dataclasses.dataclass
class BlowUpReport:
    """Where a run blew up, optionally enriched with analytic context.

    :func:`detect_blowup` fills only ``t_detected``; the analysis layer may
    attach the closed-form bracket and the profile-fit estimates
    (``refined_T``, ``coeff_est``) afterwards.
    """

    t_detected: float
    bracket: Optional[object] = None
    refined_T: Optional[float] = None
    coeff_est: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.t_detected > 0.0:
            raise ValueError("t_detected must be positive")


_FORCING: Dict[Nonlinearity, Callable[[float], float]] = {
    Nonlinearity.LOGISTIC: lambda u: u * u,
    Nonlinearity.SHIFTED_LOGISTIC: lambda w: w * w,
    Nonlinearity.SQUARE: lambda w: w * w,
    Nonlinearity.SHIFTED_SQUARE: lambda w: (w + 0.5) * (w + 0.5),
}

_BRANCH: Dict[Nonlinearity, KernelBranch] = {
    Nonlinearity.LOGISTIC: KernelBranch.DECAY,
    Nonlinearity.SHIFTED_LOGISTIC: KernelBranch.GROWTH,
    Nonlinearity.SQUARE: KernelBranch.RIEMANN_LIOUVILLE,
    Nonlinearity.SHIFTED_SQUARE: KernelBranch.RIEMANN_LIOUVILLE,
}


# Steps covered by the first weight table of a run expected to blow up.
_FIRST_TABLE = 1024

# Base block of the tiled history sum (a power of two).  A node reaches the
# forcing inside its own block by a direct dot product and everything older
# through the dyadic tiles added to its far-history accumulator.
_BLOCK = 64

# Tiles carrying at most this much history convolve directly; longer ones
# go through an FFT.
_DIRECT_TILE = 512


def _tile(history: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Contribution of a stretch of forcing history to the nodes after it.

    ``history`` holds f_{m-s}, ..., f_{m-1}.  Entry r of the result is
    sum_{j=m-s}^{m-1} w_{m+r-j} f_j for r in [0, count): the share of
    node m + r's history sum that this stretch carries.  ``weights`` must
    hold w_0, ..., w_{s+count-1}.
    """
    s = history.size
    w = weights[1 : s + count]
    if s <= _DIRECT_TILE:
        return np.convolve(history, w, "valid")
    # a period of at least s + count - 1 keeps the wrap-around out of the
    # entries s - 1, ..., s + count - 2 that are kept
    n = 1 << (s + count - 1).bit_length()
    # an overflowed (inf) forcing value comes out as NaN, which the march
    # treats like the inf a direct sum would give
    with np.errstate(invalid="ignore"):
        full = np.fft.irfft(np.fft.rfft(history, n) * np.fft.rfft(w, n), n)
    return full[s - 1 : s - 1 + count]


def _recent_increase(values: np.ndarray, k: int) -> bool:
    """True when values strictly increased over the window [k-3, k].

    For k < 3 the available prefix [0, k] is used; a lone initial node never
    confirms.
    """
    if k < 1:
        return False
    start = max(0, k - 3)
    window = values[start : k + 1]
    return bool(np.all(np.diff(window) > 0.0))


def _first_detection(values: np.ndarray, threshold: float) -> Optional[int]:
    """First index above ``threshold`` with a confirming increase window."""
    candidates = np.nonzero(values > threshold)[0]
    for k in candidates:
        if _recent_increase(values, int(k)):
            return int(k)
    return None


def _homogeneous(spec: ProblemSpec, times: np.ndarray) -> Tuple[np.ndarray, int]:
    """Homogeneous term at the nodes ``times`` (the whole grid or a new chunk of it).

    Returns ``(hom, valid)`` where entries ``hom[:valid]`` are usable.  An
    overflowed growth-branch Mittag-Leffler value comes back as the +inf
    sentinel (certified by the evaluator for same-sign series) and is
    handled by the marcher, not treated as a failure.
    """
    n = times.size
    if _BRANCH[spec.nonlinearity] is KernelBranch.RIEMANN_LIOUVILLE:
        return np.full(n, float(spec.u0)), n
    sign = -1.0 if spec.nonlinearity is Nonlinearity.LOGISTIC else 1.0
    z = sign * np.power(times, spec.alpha)
    try:
        return spec.u0 * ml_grid(spec.alpha, z), n
    except AccuracyError:
        pass
    # Vectorized pass refused to certify somewhere; fall back to per-node
    # evaluation and report how far we got.
    out = np.empty(n)
    for i in range(n):
        try:
            out[i] = spec.u0 * mittag_leffler(spec.alpha, float(z[i]))
        except AccuracyError:
            return out, i
    return out, n


def _finalize(
    times: np.ndarray,
    values: np.ndarray,
    last: int,
    threshold: float,
    accuracy_failed: bool,
) -> Trajectory:
    """Truncate to ``last`` (inclusive) and classify the terminal status."""
    t = times[: last + 1].copy()
    v = values[: last + 1].copy()
    k = _first_detection(v, threshold)
    if k is not None:
        return Trajectory(t[: k + 1], v[: k + 1], TrajectoryStatus.BLEW_UP, k)
    if accuracy_failed:
        return Trajectory(t, v, TrajectoryStatus.ACCURACY_FAILURE, last)
    return Trajectory(t, v, TrajectoryStatus.COMPLETED, None)


def solve(spec: ProblemSpec, picard: bool = False) -> Trajectory:
    """March the convolution-quadrature recurrence for ``spec``.

    Marching stops at ``t_max``, on a confirmed threshold crossing
    (status ``BLEW_UP``), or when a kernel-weight or Mittag-Leffler
    evaluation refuses to certify accuracy mid-run (status
    ``ACCURACY_FAILURE`` — reported in the trajectory, never raised).  A
    value that overflows the floating-point range before a confirmed
    crossing (possible only with a threshold near or above the largest
    double) also ends the run as ``ACCURACY_FAILURE``, at the last finite
    node.

    ``Logistic`` runs with ``u0 <= 1`` build their weight table and
    homogeneous term for all of ``t_max`` at once.  Every other run starts
    with ``_FIRST_TABLE`` steps and doubles the table, capped at ``t_max``,
    each time the march reaches its end.  If a table or the homogeneous
    term on its new nodes fails to certify, the run ends as
    ``ACCURACY_FAILURE`` at the last node it marched (node 0 when the first
    table fails).

    With ``picard=True`` each step is corrected to the fixed point of
    u = base + w_0 g(u) (tolerance 1e-12, at most 25 iterations) instead of
    the default semi-implicit division by (1 - w_0).  Steps where the
    iteration diverges or fails to settle keep the semi-implicit value.
    """
    h = float(spec.step)
    n_steps = max(1, int(math.floor(spec.t_max / h + 1e-9)))
    times = h * np.arange(n_steps + 1, dtype=float)
    kernel = KernelSpec(_BRANCH[spec.nonlinearity], spec.alpha, h)
    global_start = spec.nonlinearity is Nonlinearity.LOGISTIC and spec.u0 <= 1.0
    n_table = n_steps if global_start else min(_FIRST_TABLE, n_steps)

    g = _FORCING[spec.nonlinearity]
    try:
        table = cq_weights(kernel, n_table)
    except AccuracyError:
        return Trajectory(
            times[:1], np.array([float(spec.u0)]), TrajectoryStatus.ACCURACY_FAILURE, 0
        )
    weights = table.weights
    w0 = float(weights[0])
    denom = 1.0 - w0

    hom, valid = _homogeneous(spec, times[: n_table + 1])
    if valid == 0:
        return Trajectory(
            times[:1], np.array([float(spec.u0)]), TrajectoryStatus.ACCURACY_FAILURE, 0
        )

    values = np.empty(n_steps + 1)
    forcing = np.empty(n_steps + 1)
    # far[m]: hom_m plus the history sum of node m over every forcing value
    # older than m's base block, filled in by the tiles.
    far = np.empty(n_steps + 1)
    far[:valid] = hom[:valid]
    values[0] = float(spec.u0)
    forcing[0] = g(values[0])
    threshold = float(spec.blowup_threshold)

    # near[i] = (w_i, ..., w_1): the weights a node i steps into its base
    # block applies to the forcing before it in that block
    near = [weights[i:0:-1] for i in range(_BLOCK)]
    origin = 0
    m = 1
    while m <= n_steps:
        if m > n_table:
            # The march reached the end of the table: double it, evaluate
            # the homogeneous term on the new nodes only, and restart the
            # tiling at origin = m - 1 with the older history convolved
            # against the new weights in one piece.
            n_table = min(2 * n_table, n_steps)
            try:
                weights = cq_weights(kernel, n_table).weights
            except AccuracyError:
                return _finalize(times, values, m - 1, threshold, accuracy_failed=True)
            near = [weights[i:0:-1] for i in range(_BLOCK)]
            more, more_valid = _homogeneous(spec, times[m : n_table + 1])
            origin = m - 1
            valid = m + more_valid
            far[m:valid] = more[:more_valid] + _tile(
                forcing[:origin], weights, more_valid + 1
            )[1:]
        end = min(n_table + 1, valid)
        if m >= end:
            return _finalize(times, values, m - 1, threshold, accuracy_failed=True)
        k = m - origin
        if k % _BLOCK == 0:
            # m opens base block q = k / B: the tile of size B * 2^ctz(q)
            # carries the forcing just before m to the nodes from m on.
            q = k // _BLOCK
            s = _BLOCK * (q & -q)
            count = min(s, end - m)
            far[m : m + count] += _tile(forcing[m - s : m], weights, count)
        start = m - k % _BLOCK
        stop = min(start + _BLOCK, end)
        for m in range(m, stop):
            base = float(far[m]) + float(near[m - start].dot(forcing[start:m]))
            u = base / denom
            if picard and math.isfinite(u):
                # Fixed-point correction of u = base + w0 g(u).  The iteration
                # only contracts while the step stays small; once the history
                # drives base past the fold at 1/(4 w0) (square forcing) there
                # is no real fixed point and the iterates run away.  Keeping
                # the semi-implicit value in that case lets the march proceed
                # into the blow-up regime instead of stalling below it.
                prev = u
                for _ in range(25):
                    cur = base + w0 * g(prev)
                    if not math.isfinite(cur):
                        break
                    if abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
                        u = cur
                        break
                    prev = cur
            if not math.isfinite(u):
                # The forcing history overflowed the representable range
                # before a confirmed threshold crossing: the values past here
                # cannot be trusted, so the run ends at the last finite node.
                return _finalize(times, values, m - 1, threshold, accuracy_failed=True)
            values[m] = u
            fw = g(u)
            forcing[m] = fw if math.isfinite(fw) else math.inf
            if u > threshold and _recent_increase(values, m):
                return Trajectory(
                    times[: m + 1], values[: m + 1].copy(), TrajectoryStatus.BLEW_UP, m
                )
        m = stop

    return Trajectory(times, values, TrajectoryStatus.COMPLETED, None)


def detect_blowup(traj: Trajectory, threshold: float) -> Optional[BlowUpReport]:
    """Locate the first confirmed threshold crossing in a trajectory.

    Returns a :class:`BlowUpReport` with only ``t_detected`` populated (the
    first index whose value exceeds ``threshold`` after strictly increasing
    over the preceding three steps), or ``None`` when no index qualifies.
    """
    k = _first_detection(traj.values, float(threshold))
    if k is None:
        return None
    return BlowUpReport(t_detected=float(traj.times[k]))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------
#
# External format: UTF-8, comma separator, "\n" line endings, header "t,u",
# one row per node with 17-significant-digit decimals (lossless for double
# precision), and a footer comment "# blowup_at=<t>" on blow-up runs.
# Accuracy failures carry the analogous "# accuracy_failure_at=<t>" footer so
# the file round-trips to an equal Trajectory.  Lines starting with "#" are
# comments; unknown comments are ignored on parse.

_BLOWUP_PREFIX = "blowup_at="
_ACCFAIL_PREFIX = "accuracy_failure_at="


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory to the canonical CSV text."""
    lines = ["t,u"]
    for t, u in zip(traj.times, traj.values):
        lines.append("%.17g,%.17g" % (t, u))
    if traj.status is TrajectoryStatus.BLEW_UP:
        lines.append("# %s%.17g" % (_BLOWUP_PREFIX, traj.times[traj.status_index]))
    elif traj.status is TrajectoryStatus.ACCURACY_FAILURE:
        lines.append("# %s%.17g" % (_ACCFAIL_PREFIX, traj.times[traj.status_index]))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    """Parse CSV text produced by :func:`trajectory_to_csv`."""
    ts = []
    us = []
    status = TrajectoryStatus.COMPLETED
    marker: Optional[float] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith(_BLOWUP_PREFIX):
                status = TrajectoryStatus.BLEW_UP
                marker = float(body[len(_BLOWUP_PREFIX) :])
            elif body.startswith(_ACCFAIL_PREFIX):
                status = TrajectoryStatus.ACCURACY_FAILURE
                marker = float(body[len(_ACCFAIL_PREFIX) :])
            continue
        if line == "t,u":
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError("malformed trajectory row: %r" % (raw,))
        ts.append(float(fields[0]))
        us.append(float(fields[1]))
    times = np.asarray(ts, dtype=float)
    values = np.asarray(us, dtype=float)
    status_index: Optional[int] = None
    if status is not TrajectoryStatus.COMPLETED:
        hits = np.nonzero(times == marker)[0]
        status_index = int(hits[-1]) if hits.size else int(times.size - 1)
    return Trajectory(times, values, status, status_index)


def write_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory CSV file (UTF-8, ``\\n`` line endings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(trajectory_to_csv(traj))


def read_csv(path: str) -> Trajectory:
    """Read a trajectory CSV file written by :func:`write_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        return trajectory_from_csv(fh.read())
