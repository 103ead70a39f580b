"""Instance constructors: bundled worked examples and seeded random families.

Random families are deterministic in the seed (PCG64): the same
``GeneratorSpec`` always produces bit-identical instances.  Kinds:

- ``tensor-product``: measurement i acts on its own subsystem of a product
  state, so every event is exactly independent of the others (d_min = 0).
- ``sliding-window``: measurement i acts on subsystems i..i+window-1 in a
  product basis (one random local basis per slot).  Product-basis dephasing
  factorizes into local channels, so conditioning at distance >= window
  cannot move a later marginal; adjacent windows share a subsystem, giving
  dependence radius window - 1.
- ``dependent-chain``: all measurements on one subsystem, basis stepped by
  pi/8 per slot; conditioning on any prefix complements shifts every later
  outcome probability, so s_i = 0 and d_min = n - 1.
- ``random-projective`` / ``random-povm``: unstructured measurements on a
  single space (Haar basis projectors, or Gaussian operators normalized via
  S^{-1/2}).
- ``paper-examples``: the fixed two-measurement reference instance used by
  the worked examples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .events import Event, Measurement, complement, complete_event
from .independence import _PrefixWalk
from .linalg import DEFAULT_TOL, DensityOperator, ToleranceConfig, check_dimension, validate_density
from .lll import LLLInstance, _assumption_row
from .probability import (
    Test,
    TestEventAssignment,
    _integer,
    pr_state,
    pr_state_cond,
    pr_test_cond,
    pr_test_marginal,
)

EXAMPLE_TOL = 1e-9
# Kraus entries (slots x outcomes per slot x dim**2) a generated instance may
# hold at the most: 160 MB of complex128, refused before any draw
MAX_KRAUS_ENTRIES = 10**7


# ---------------------------------------------------------------------------
# fixed building blocks


def computational_measurement(dim: int = 2, name: str = "Z") -> Measurement:
    return rotated_qubit_measurement(0.0, name, dim)


def rotated_qubit_measurement(theta: float, name: str, dim: int = 2) -> Measurement:
    """Projective measurement in the computational basis rotated by *theta*
    in the (0, 1) plane; basis vectors beyond the plane stay fixed."""
    r = np.eye(dim, dtype=complex)
    r[0, 0] = math.cos(theta)
    r[0, 1] = -math.sin(theta)
    r[1, 0] = math.sin(theta)
    r[1, 1] = math.cos(theta)
    kraus = {}
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j, j] = 1.0
        kraus[str(j)] = r @ e @ r.conj().T
    return Measurement(name, kraus)


def zx_measurement_pair() -> tuple[Measurement, Measurement]:
    """The standard incompatible qubit pair: computational basis and the
    half-turn-rotated basis built from |+> and |->."""
    m1 = computational_measurement(2, "M1")
    m2 = rotated_qubit_measurement(math.pi / 4, "M2")
    return m1, m2


def plus_state() -> DensityOperator:
    return validate_density(np.full((2, 2), 0.5, dtype=complex))


def minus_state() -> DensityOperator:
    m = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return validate_density(m)


# ---------------------------------------------------------------------------
# seeded random building blocks


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return rho


def ginibre_state(dim: int, rng: np.random.Generator) -> DensityOperator:
    return validate_density(_ginibre(dim, rng))


def random_projective_measurement(
    dim: int, k: int, rng: np.random.Generator, name: str
) -> Measurement:
    """Haar-random orthonormal basis, grouped into *k* projectors."""
    return Measurement(name, _projectors(dim, k, rng))


def _projectors(dim: int, k: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Label -> projector of `random_projective_measurement`, drawn without building the measurement."""
    if not (2 <= k <= dim):
        raise ValidationError(f"need 2 <= outcomes <= dim, got {k} with dim {dim}")
    u = haar_unitary(dim, rng)
    sizes = [1] * k
    for _ in range(dim - k):
        sizes[int(rng.integers(k))] += 1
    kraus = {}
    col = 0
    for m, size in enumerate(sizes):
        block = u[:, col : col + size]
        col += size
        kraus[str(m)] = block @ block.conj().T
    return kraus


def random_povm_measurement(
    dim: int, k: int, rng: np.random.Generator, name: str
) -> Measurement:
    """Gaussian operators A_m normalized by S^{-1/2}, S = sum A_m^dagger A_m.

    Redraws when S has an eigenvalue below 1e-12 (practically never)."""
    if k < 2:
        raise ValidationError(f"need at least 2 outcomes, got {k}")
    while True:
        ops = [
            (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            / math.sqrt(2)
            for _ in range(k)
        ]
        s = sum(a.conj().T @ a for a in ops)
        w, v = np.linalg.eigh(s)
        if float(w.min()) >= 1e-12:
            break
    s_inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Measurement(name, {str(m): a @ s_inv_sqrt for m, a in enumerate(ops)})


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices: the same products, by one broadcast."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _embed(op: np.ndarray, start: int, width: int, count: int, local_dim: int) -> np.ndarray:
    left = np.eye(local_dim**start)
    right = np.eye(local_dim ** (count - start - width))
    return _kron(_kron(left, op), right)


def _random_proper_subset(spectrum: Sequence[str], rng: np.random.Generator) -> frozenset[str]:
    size = int(rng.integers(1, len(spectrum)))
    picked = rng.choice(len(spectrum), size=size, replace=False)
    return frozenset(spectrum[int(j)] for j in picked)


# ---------------------------------------------------------------------------
# generator specs


class GeneratorKind(str, Enum):
    PAPER_EXAMPLES = "paper-examples"
    TENSOR_PRODUCT = "tensor-product"
    SLIDING_WINDOW = "sliding-window"
    RANDOM_PROJECTIVE = "random-projective"
    RANDOM_POVM = "random-povm"
    DEPENDENT_CHAIN = "dependent-chain"


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of a random instance family.

    ``outcomes`` fixes the spectrum size for the kinds that read it; when
    None a seeded choice of 2..3 is made per measurement.  ``_READS`` lists
    the fields each kind reads.
    """

    kind: GeneratorKind
    n: int = 2
    local_dim: int = 2
    window: int = 2
    seed: int = 0
    outcomes: int | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", GeneratorKind(self.kind))
        except ValueError:
            kinds = ", ".join(kind.value for kind in GeneratorKind)
            raise ValidationError(f"unknown generator kind {self.kind!r}; the kinds are {kinds}") from None
        for name, low in (("n", 1), ("local_dim", 2), ("window", 1), ("seed", 0), ("outcomes", 2)):
            value = getattr(self, name)
            if value is not None or name != "outcomes":  # outcomes=None: a seeded size per slot
                object.__setattr__(self, name, _integer(value, name, low))


def _spectrum_size(spec: GeneratorSpec, rng: np.random.Generator, maximum: int) -> int:
    if spec.outcomes is not None:
        if spec.outcomes > maximum:
            raise ValidationError(
                f"outcomes={spec.outcomes} impossible at dimension {maximum}"
            )
        return spec.outcomes
    return int(rng.integers(2, min(3, maximum) + 1))


def _reference_instance() -> TestEventAssignment:
    m1, m2 = zx_measurement_pair()
    test = Test(plus_state(), (m1, m2))
    return TestEventAssignment(
        test, {1: Event(m1, {"0"}), 2: Event(m2, {"0"})}
    )


def _product_state(count: int, local_dim: int, rng: np.random.Generator) -> DensityOperator:
    state = np.array([[1.0]], dtype=complex)
    for _ in range(count):
        state = _kron(state, _ginibre(local_dim, rng))
    return validate_density(state)


# Each builder returns the measurement at slot i of a family whose state
# lives on *sites* subsystems of dimension ``spec.local_dim``.


def _tensor_slot(spec: GeneratorSpec, rng: np.random.Generator, i: int, sites: int) -> Measurement:
    k = _spectrum_size(spec, rng, spec.local_dim)
    kraus = _projectors(spec.local_dim, k, rng)
    return Measurement(f"M{i}", {lab: _embed(op, i - 1, 1, sites, spec.local_dim) for lab, op in kraus.items()})


def _window_slot(spec: GeneratorSpec, rng: np.random.Generator, i: int, sites: int) -> Measurement:
    bases = [haar_unitary(spec.local_dim, rng) for _ in range(spec.window)]
    kraus = {}
    for combo in itertools.product(range(spec.local_dim), repeat=spec.window):
        op = np.array([[1.0]], dtype=complex)
        for w, c in enumerate(combo):
            vec = bases[w][:, c : c + 1]
            op = _kron(op, vec @ vec.conj().T)
        label = "".join(str(c) for c in combo)
        kraus[label] = _embed(op, i - 1, spec.window, sites, spec.local_dim)
    return Measurement(f"M{i}", kraus)


def _chain_slot(spec: GeneratorSpec, rng: np.random.Generator, i: int, sites: int) -> Measurement:
    return rotated_qubit_measurement((i - 1) * math.pi / 8, f"M{i}", spec.local_dim)


def _projective_slot(spec: GeneratorSpec, rng: np.random.Generator, i: int, sites: int) -> Measurement:
    k = _spectrum_size(spec, rng, spec.local_dim)
    return random_projective_measurement(spec.local_dim, k, rng, f"M{i}")


def _povm_slot(spec: GeneratorSpec, rng: np.random.Generator, i: int, sites: int) -> Measurement:
    k = _spectrum_size(spec, rng, math.inf)
    return random_povm_measurement(spec.local_dim, k, rng, f"M{i}")


_SLOTS = {
    GeneratorKind.TENSOR_PRODUCT: _tensor_slot,
    GeneratorKind.SLIDING_WINDOW: _window_slot,
    GeneratorKind.DEPENDENT_CHAIN: _chain_slot,
    GeneratorKind.RANDOM_PROJECTIVE: _projective_slot,
    GeneratorKind.RANDOM_POVM: _povm_slot,
}

# the GeneratorSpec fields each kind reads; every other field leaves its
# instances unchanged
_READS = {
    GeneratorKind.PAPER_EXAMPLES: frozenset(),
    GeneratorKind.TENSOR_PRODUCT: frozenset({"n", "local_dim", "seed", "outcomes"}),
    GeneratorKind.SLIDING_WINDOW: frozenset({"n", "local_dim", "window", "seed"}),
    GeneratorKind.DEPENDENT_CHAIN: frozenset({"n", "local_dim", "seed"}),
    GeneratorKind.RANDOM_PROJECTIVE: frozenset({"n", "local_dim", "seed", "outcomes"}),
    GeneratorKind.RANDOM_POVM: frozenset({"n", "local_dim", "seed", "outcomes"}),
}


def _check_entries(spec: GeneratorSpec, dim: int) -> None:
    """Refuse *spec* before any draw when its Kraus operators could exceed ``MAX_KRAUS_ENTRIES`` entries."""
    k = spec.outcomes or 3  # a seeded size per slot is at most 3
    outcomes = {
        GeneratorKind.TENSOR_PRODUCT: min(k, spec.local_dim),
        GeneratorKind.SLIDING_WINDOW: spec.local_dim**spec.window,
        GeneratorKind.DEPENDENT_CHAIN: spec.local_dim,
        GeneratorKind.RANDOM_PROJECTIVE: min(k, spec.local_dim),
    }.get(spec.kind, k)
    entries = spec.n * outcomes * dim**2
    if entries > MAX_KRAUS_ENTRIES:
        raise ValidationError(
            f"{spec.kind.value} with n={spec.n} and up to {outcomes} outcomes at dimension {dim} "
            f"holds up to {entries} Kraus entries, above the limit {MAX_KRAUS_ENTRIES}"
        )


def generate(spec: GeneratorSpec) -> TestEventAssignment:
    """Build the instance described by *spec* (deterministic in ``spec.seed``).

    Every random family draws its measurements slot by slot, then a product
    state over its subsystems (one for the single-space kinds), then one
    event per slot: a single outcome for ``dependent-chain``, a random
    proper subset of the spectrum otherwise.
    """
    if spec.kind is GeneratorKind.PAPER_EXAMPLES:
        return _reference_instance()
    if spec.kind is GeneratorKind.SLIDING_WINDOW and spec.local_dim > 9:
        raise ValidationError("sliding-window labels need local_dim <= 9")
    sites = {
        GeneratorKind.TENSOR_PRODUCT: spec.n,
        GeneratorKind.SLIDING_WINDOW: spec.n + spec.window - 1,
    }.get(spec.kind, 1)
    check_dimension(spec.local_dim, sites)
    _check_entries(spec, spec.local_dim**sites)
    rng = np.random.default_rng(spec.seed)
    measurements = [_SLOTS[spec.kind](spec, rng, i, sites) for i in range(1, spec.n + 1)]
    state = _product_state(sites, spec.local_dim, rng)
    events = {}
    for i, m in enumerate(measurements, start=1):
        if spec.kind is GeneratorKind.DEPENDENT_CHAIN:
            outcomes = {m.spectrum[int(rng.integers(len(m.spectrum)))]}
        else:
            outcomes = _random_proper_subset(m.spectrum, rng)
        events[i] = Event(m, outcomes)
    return TestEventAssignment(Test(state, tuple(measurements)), events)


# ---------------------------------------------------------------------------
# assumption-satisfying instances


def _drop_outcome(
    a: TestEventAssignment, slot: int, rng: np.random.Generator
) -> TestEventAssignment:
    """Remove one uniformly drawn outcome from the event at *slot*."""
    outcomes = a.event(slot).sorted_outcomes()
    dropped = outcomes[int(rng.integers(len(outcomes)))]
    return a.with_event(slot, Event(a.event(slot).measurement, set(outcomes) - {dropped}))


def generate_assumption_satisfying(
    spec: GeneratorSpec,
    x: Sequence[float],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[LLLInstance, int]:
    """Produce an instance of *spec*'s family whose measured profile satisfies
    the general hypothesis for the weights *x*.

    Starts from ``generate(spec)`` and, while a hypothesis row fails, drops a
    random outcome from the first failing slot's event.  An empty event has
    probability zero and satisfies any bound, so the search terminates.
    Returns the instance and the number of rejected candidates.

    Row i reads only slots 1..i, and a drop changes only its row's slot, so
    rows are settled in slot order, row i re-read after each drop at slot i
    until it holds.  It reads slot i's marginal and its pairs (i, l), l = 1, 2,
    ..., up to the first that is not negatively independent (``s_i``), from
    one ``_PrefixWalk`` for the whole search.
    """
    a = generate(spec)
    inst = LLLInstance(a, tuple(x))
    rng = np.random.default_rng(spec.seed + 7919)
    rejections = 0
    walk = _PrefixWalk(a)
    for i in range(1, a.n + 1):
        while not _assumption_row(i, *walk.row(a, tol), inst.x, tol)["ok"]:
            rejections += 1
            a = _drop_outcome(a, i, rng)
        if i < a.n:
            walk.advance(a)
    return LLLInstance(a, inst.x), rejections


# ---------------------------------------------------------------------------
# worked examples


@dataclass(frozen=True)
class Check:
    label: str
    expected: float
    actual: float

    @property
    def passed(self) -> bool:
        return abs(self.actual - self.expected) <= EXAMPLE_TOL

    def to_json(self) -> dict:
        return {**asdict(self), "pass": self.passed}


@dataclass(frozen=True)
class WorkedExample:
    name: str
    description: str
    checks: tuple[Check, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "checks": [c.to_json() for c in self.checks],
            "all_pass": all(c.passed for c in self.checks),
        }


def worked_examples(tol: ToleranceConfig = DEFAULT_TOL) -> list[WorkedExample]:
    """The fixed example suite with expected values attached.

    Checks are evaluated eagerly, so the returned objects carry actual
    values ready for comparison or serialization.
    """
    m1, m2 = zx_measurement_pair()
    m3 = computational_measurement(2, "M3")
    plus = plus_state()
    minus = minus_state()

    e1 = Event(m1, {"0"})
    e2 = Event(m2, {"0"})
    e2p = Event(m2, {"1"})
    e3 = Event(m3, {"1"})
    m1_is_1 = Event(m1, {"1"})

    out = []

    out.append(
        WorkedExample(
            name="reordering",
            description=(
                "Sequence probability is order dependent: swapping two events "
                "of incompatible qubit bases turns 1/4 into 0."
            ),
            checks=(
                Check("Pr[M1=1 then M2=0]", 0.25, pr_state(minus, [m1_is_1, e2], tol)),
                Check("Pr[M2=0 then M1=1]", 0.0, pr_state(minus, [e2, m1_is_1], tol)),
            ),
        )
    )

    marg_test = Test(plus, (m1, m2))
    a_e2 = TestEventAssignment(marg_test, {1: complete_event(m1), 2: e2})
    a_e2p = TestEventAssignment(marg_test, {2: e2p})
    out.append(
        WorkedExample(
            name="marginal-vs-state",
            description=(
                "A marginal in a test pads earlier slots with complete "
                "events, whose super-operators still disturb the state; the "
                "bare state probability has no such padding."
            ),
            checks=(
                Check("state Pr[M2=0]", 1.0, pr_state(plus, [e2], tol)),
                Check("test Pr[E2], E2=(M2=0)", 0.5, pr_test_marginal(a_e2, (2,), tol)),
                Check("state Pr[M2=1]", 0.0, pr_state(plus, [e2p], tol)),
                Check("test Pr[E2'], E2'=(M2=1)", 0.5, pr_test_marginal(a_e2p, (2,), tol)),
                Check("joint Pr[full(M1), M2=0]", 0.5, pr_test_marginal(a_e2, (1, 2), tol)),
            ),
        )
    )

    out.append(
        WorkedExample(
            name="conditional-reversal",
            description=(
                "Adding an intermediate event can raise a conditional "
                "probability from 0 to 1/4: conditioning lacks the classical "
                "monotonicity in the head of the sequence."
            ),
            checks=(
                Check(
                    "Pr[M2=0, M3=1 | M1=0]",
                    0.25,
                    pr_state_cond(plus, [e1], [e2, e3], tol),
                ),
                Check("Pr[M3=1 | M1=0]", 0.0, pr_state_cond(plus, [e1], [e3], tol)),
            ),
        )
    )

    out.append(
        WorkedExample(
            name="total-probability-failure",
            description=(
                "Summing over an intermediate measurement's outcomes does not "
                "recover the probability without it: inserting M2 changes "
                "what M3 sees."
            ),
            checks=(
                Check("Pr[M1=0, M3=1]", 0.0, pr_state(plus, [e1, e3], tol)),
                Check(
                    "Pr[M1=0, M2=0, M3=1] + Pr[M1=0, M2=1, M3=1]",
                    0.25,
                    pr_state(plus, [e1, e2, e3], tol)
                    + pr_state(plus, [e1, complement(e2), e3], tol),
                ),
            ),
        )
    )

    out.append(
        WorkedExample(
            name="independence-reading",
            description=(
                "Relative to a test, conditioning on the complete first event "
                "changes nothing: both sides of the independence equation are "
                "the padded marginal 1/2 (the unpadded state value 1 is a "
                "different quantity)."
            ),
            checks=(
                Check("Pr[E2 | full(M1)]", 0.5, pr_test_cond(a_e2, (1,), (2,), tol)),
                Check("Pr[E2]", 0.5, pr_test_marginal(a_e2, (2,), tol)),
            ),
        )
    )

    return out
