"""Randomized property suites shared by the unit and acceptance tests.

Each suite walks the whole instance pool, draws a few randomized checks per
instance, and returns a SuiteResult. Equalities are asserted at 1e-9 and
inequalities with 1e-9 slack; draws whose conditioning mass falls under a
floor are redrawn or skipped so ratio rounding stays well inside that budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from helpers import complemented, rand_subset, split_indices, split_two, suite_rng
from qlll.errors import ConditionOnZeroError
from qlll.events import Event, complement, complete_event, empty_event, union
from qlll.generate import computational_measurement
from qlll.independence import is_independent
from qlll.probability import (
    Test,
    TestEventAssignment,
    pr_state,
    pr_state_cond,
    pr_test_cond,
    pr_test_marginal,
)

EQ = 1e-9
INEQ = 1e-9
FLOOR = 1e-4        # conditioning mass floor for plain ratio identities
CHAIN_FLOOR = 1e-6  # chain rules telescope, so a smaller floor is safe
IND_FLOOR = 1e-3    # independence suites divide by two different masses
PREMISE = 1e-10     # implication premise filter (complement/union suites)
PREMISE_FLIP = 1e-11  # flipped-condition suite amplifies by the mass ratio
RATIO_CAP_FLIP = 5.0


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    checks: int = 0
    hits: int = 0
    skips: int = 0
    violations: list = field(default_factory=list)

    def check(self, ok: bool, detail: str) -> None:
        self.checks += 1
        if not ok:
            self.violations.append(f"{self.name}: {detail}")

    def eq(self, lhs: float, rhs: float, detail: str) -> None:
        self.check(abs(lhs - rhs) <= EQ, f"{detail}: |{lhs!r} - {rhs!r}| > {EQ}")

    def le(self, lhs: float, rhs: float, detail: str) -> None:
        self.check(lhs <= rhs + INEQ, f"{detail}: {lhs!r} > {rhs!r} + {INEQ}")

    def bump(self, before: int) -> None:
        if self.checks > before:
            self.instances += 1


def _first_projective(a: TestEventAssignment):
    for m in a.test.measurements:
        if m.projective:
            return m
    return computational_measurement(a.test.rho.dim)


def _random_event(rng, m, allow_empty=False, allow_full=True) -> Event:
    lo = 0 if allow_empty else 1
    hi = len(m.spectrum) if allow_full else len(m.spectrum) - 1
    return Event(m, rand_subset(rng, m.spectrum, lo, hi))


def _context(rng, a, max_len=2) -> list[Event]:
    """A short random sequence of events over the instance's measurements."""
    out = []
    for _ in range(int(rng.integers(0, max_len + 1))):
        m = a.test.measurements[int(rng.integers(0, a.test.n))]
        out.append(_random_event(rng, m, allow_empty=False))
    return out


def _slots(a) -> tuple[int, ...]:
    return tuple(sorted(a.events))


def _cond_or_none(a, K, i):
    try:
        return pr_test_cond(a, K, (i,))
    except ConditionOnZeroError:
        return None


# ---------------------------------------------------------------- state level


def suite_state_permutation(pool) -> SuiteResult:
    """Same-projective-measurement sequences are permutation invariant."""
    r = SuiteResult("state-permutation")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(31, t)
        m = _first_projective(a)
        rho = a.test.rho
        for _ in range(3):
            k = int(rng.integers(2, 5))
            seq = [_random_event(rng, m, allow_empty=True) for _ in range(k)]
            perm = [seq[j] for j in rng.permutation(k)]
            r.eq(pr_state(rho, seq), pr_state(rho, perm), f"t={t}")
        r.bump(before)
    return r


def suite_state_empty(pool) -> SuiteResult:
    """Any sequence containing an impossible event has probability zero."""
    r = SuiteResult("state-empty-event")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(32, t)
        rho = a.test.rho
        for _ in range(3):
            m = a.test.measurements[int(rng.integers(0, a.test.n))]
            seq = _context(rng, a) + [empty_event(m)] + _context(rng, a)
            r.eq(pr_state(rho, seq), 0.0, f"t={t}")
        r.bump(before)
    return r


def suite_state_complete_tail(pool) -> SuiteResult:
    """Trailing complete events never change a sequence probability."""
    r = SuiteResult("state-complete-tail")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(33, t)
        rho = a.test.rho
        for _ in range(3):
            seq = _context(rng, a, max_len=3)
            tail = [
                complete_event(a.test.measurements[int(rng.integers(0, a.test.n))])
                for _ in range(int(rng.integers(1, 4)))
            ]
            r.eq(pr_state(rho, seq + tail), pr_state(rho, seq), f"t={t}")
            r.eq(pr_state(rho, tail), 1.0, f"t={t} bare")
        r.bump(before)
    return r


def suite_state_complement(pool) -> SuiteResult:
    """Appending a complemented event subtracts the uncomplemented run."""
    r = SuiteResult("state-complement")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(34, t)
        rho = a.test.rho
        for _ in range(3):
            seq = _context(rng, a, max_len=3)
            m = a.test.measurements[int(rng.integers(0, a.test.n))]
            ev = _random_event(rng, m, allow_empty=True)
            lhs = pr_state(rho, seq + [complement(ev)])
            rhs = pr_state(rho, seq) - pr_state(rho, seq + [ev])
            r.eq(lhs, rhs, f"t={t}")
        r.bump(before)
    return r


def suite_state_additivity(pool) -> SuiteResult:
    """Disjoint unions split additively at any position in a sequence."""
    r = SuiteResult("state-additivity")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(35, t)
        rho = a.test.rho
        for _ in range(3):
            m = a.test.measurements[int(rng.integers(0, a.test.n))]
            universe = rand_subset(rng, m.spectrum, 2)
            part1, part2 = split_two(rng, universe)
            e1, e2 = Event(m, part1), Event(m, part2)
            pre, post = _context(rng, a), _context(rng, a)
            lhs = pr_state(rho, pre + [union(e1, e2)] + post)
            rhs = pr_state(rho, pre + [e1] + post) + pr_state(rho, pre + [e2] + post)
            r.eq(lhs, rhs, f"t={t}")
        r.bump(before)
    return r


def suite_cond_projective_repeat(pool) -> SuiteResult:
    """Conditioning a projective event on itself gives probability one."""
    r = SuiteResult("state-cond-projective-repeat")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(41, t)
        m = _first_projective(a)
        rho = a.test.rho
        done = 0
        for _ in range(12):
            if done == 3:
                break
            ev = _random_event(rng, m)
            if pr_state(rho, [ev]) < FLOOR:
                r.skips += 1
                continue
            r.eq(pr_state_cond(rho, [ev], [ev]), 1.0, f"t={t}")
            done += 1
        if done == 0:
            ev = complete_event(m)
            r.eq(pr_state_cond(rho, [ev], [ev]), 1.0, f"t={t} fallback")
        r.bump(before)
    return r


def suite_cond_monotone(pool) -> SuiteResult:
    """Dropping a tail never lowers a conditional sequence probability."""
    r = SuiteResult("state-cond-monotone")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(42, t)
        rho = a.test.rho
        done = 0
        for _ in range(12):
            if done == 3:
                break
            given = _context(rng, a)
            if pr_state(rho, given) < FLOOR:
                r.skips += 1
                continue
            head = _context(rng, a, max_len=2) or [_random_event(rng, a.test.measurements[0])]
            tail = _context(rng, a, max_len=2) or [_random_event(rng, a.test.measurements[-1])]
            r.le(
                pr_state_cond(rho, given, head + tail),
                pr_state_cond(rho, given, head),
                f"t={t}",
            )
            done += 1
        if done == 0:
            m = a.test.measurements[0]
            given = [complete_event(m)]
            ev = _random_event(rng, m)
            r.le(pr_state_cond(rho, given, [ev, ev]), pr_state_cond(rho, given, [ev]), f"t={t} fb")
        r.bump(before)
    return r


def suite_cond_additivity(pool) -> SuiteResult:
    """Conditional disjoint-union additivity, plus complement summing to one."""
    r = SuiteResult("state-cond-additivity")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(43, t)
        rho = a.test.rho
        done = 0
        for _ in range(12):
            if done == 3:
                break
            given = _context(rng, a)
            if pr_state(rho, given) < FLOOR:
                r.skips += 1
                continue
            m = a.test.measurements[int(rng.integers(0, a.test.n))]
            universe = rand_subset(rng, m.spectrum, 2)
            part1, part2 = split_two(rng, universe)
            e1, e2 = Event(m, part1), Event(m, part2)
            pre, post = _context(rng, a), _context(rng, a)
            lhs = pr_state_cond(rho, given, pre + [union(e1, e2)] + post)
            rhs = pr_state_cond(rho, given, pre + [e1] + post) + pr_state_cond(
                rho, given, pre + [e2] + post
            )
            r.eq(lhs, rhs, f"t={t}")
            f = _random_event(rng, m, allow_empty=True)
            r.eq(
                pr_state_cond(rho, given, [f]) + pr_state_cond(rho, given, [complement(f)]),
                1.0,
                f"t={t} complement",
            )
            done += 1
        if done == 0:
            m = a.test.measurements[0]
            given = [complete_event(m)]
            f = _random_event(rng, m)
            r.eq(
                pr_state_cond(rho, given, [f]) + pr_state_cond(rho, given, [complement(f)]),
                1.0,
                f"t={t} fb",
            )
        r.bump(before)
    return r


def suite_cond_chain(pool) -> SuiteResult:
    """Conditional probabilities factor through the chain rule."""
    r = SuiteResult("state-cond-chain")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(44, t)
        rho = a.test.rho
        done = 0
        for _ in range(16):
            if done == 3:
                break
            given = _context(rng, a)
            steps = _context(rng, a, max_len=3)
            if not steps or pr_state(rho, given + steps) < CHAIN_FLOOR:
                r.skips += 1
                continue
            product = 1.0
            for i, step in enumerate(steps):
                product *= pr_state_cond(rho, given + steps[:i], [step])
            r.eq(pr_state_cond(rho, given, steps), product, f"t={t}")
            done += 1
        if done == 0:
            m = a.test.measurements[0]
            steps = [complete_event(m), complete_event(m)]
            product = pr_state_cond(rho, [], steps[:1]) * pr_state_cond(rho, steps[:1], [steps[1]])
            r.eq(pr_state_cond(rho, [], steps), product, f"t={t} fb")
        r.bump(before)
    return r


# ----------------------------------------------------------------- test level


def suite_test_projective_repeat(pool) -> SuiteResult:
    """A repeated projective slot is certain given its first occurrence."""
    r = SuiteResult("test-projective-repeat")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(51, t)
        m = _first_projective(a)
        n = a.test.n
        for front in (False, True):
            if front:
                test2 = Test(a.test.rho, (m, m) + a.test.measurements)
                events = {j + 2: ev for j, ev in a.events.items()}
                i = 1
            else:
                test2 = Test(a.test.rho, a.test.measurements + (m, m))
                events = dict(a.events)
                i = n + 1
            placed = False
            for _ in range(8):
                ev = _random_event(rng, m)
                events[i], events[i + 1] = ev, ev
                a2 = TestEventAssignment(test2, events)
                if pr_test_marginal(a2, (i,)) < FLOOR:
                    r.skips += 1
                    continue
                r.eq(pr_test_cond(a2, (i,), (i + 1,)), 1.0, f"t={t} front={front}")
                placed = True
                break
            if not placed:
                ev = complete_event(m)
                events[i], events[i + 1] = ev, ev
                a2 = TestEventAssignment(test2, events)
                r.eq(pr_test_cond(a2, (i,), (i + 1,)), 1.0, f"t={t} front={front} fb")
        r.bump(before)
    return r


def suite_test_monotone(pool) -> SuiteResult:
    """Conditional test probability only drops when more slots are kept."""
    r = SuiteResult("test-monotone")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(52, t)
        slots = _slots(a)
        done = 0
        for _ in range(16):
            if done == 3:
                break
            flip = rand_subset(rng, slots, 0)
            b = complemented(a, flip) if flip else a
            cut = int(rng.integers(0, len(slots)))
            K = rand_subset(rng, slots[:cut], 0)
            L = rand_subset(rng, slots[cut:], 1)
            if not L:
                r.skips += 1
                continue
            J = rand_subset(rng, L, 1)
            if pr_test_marginal(b, K) < FLOOR:
                r.skips += 1
                continue
            r.le(pr_test_cond(b, K, L), pr_test_cond(b, K, J), f"t={t}")
            done += 1
        if done == 0:
            L = slots
            J = rand_subset(rng, L, 1)
            r.le(pr_test_cond(a, (), L), pr_test_cond(a, (), J), f"t={t} fb")
        r.bump(before)
    return r


def suite_test_additivity(pool) -> SuiteResult:
    """Slot-level disjoint additivity under earlier conditioning."""
    r = SuiteResult("test-additivity")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(53, t)
        slots = _slots(a)
        done = 0
        for _ in range(16):
            if done == 3:
                break
            i = int(rng.choice(slots))
            below = rand_subset(rng, [s for s in slots if s < i], 0)
            J, K = split_indices(rng, below, 2)
            L = rand_subset(rng, [s for s in slots if s > i], 0)
            if J and pr_test_marginal(a, J) < FLOOR:
                r.skips += 1
                continue
            m = a.test.measurements[i - 1]
            universe = rand_subset(rng, m.spectrum, 2)
            part1, part2 = split_two(rng, universe)
            both = a.with_event(i, Event(m, part1 + part2))
            one = a.with_event(i, Event(m, part1))
            two = a.with_event(i, Event(m, part2))
            mid = K + (i,) + L
            r.eq(
                pr_test_cond(both, J, mid),
                pr_test_cond(one, J, mid) + pr_test_cond(two, J, mid),
                f"t={t} union",
            )
            bar = a.with_event(i, complement(a.event(i)))
            r.eq(
                pr_test_cond(a, J, mid) + pr_test_cond(bar, J, mid),
                pr_test_cond(a, J, K + L),
                f"t={t} complement",
            )
            j = int(rng.choice([s for s in slots if not J or s > max(J)]))
            r.eq(
                pr_test_cond(a, J, (j,))
                + pr_test_cond(a.with_event(j, complement(a.event(j))), J, (j,)),
                1.0,
                f"t={t} one",
            )
            done += 1
        if done == 0:
            i = slots[0]
            m = a.test.measurements[i - 1]
            universe = rand_subset(rng, m.spectrum, 2)
            part1, part2 = split_two(rng, universe)
            both = a.with_event(i, Event(m, part1 + part2))
            one = a.with_event(i, Event(m, part1))
            two = a.with_event(i, Event(m, part2))
            r.eq(
                pr_test_marginal(both, (i,)),
                pr_test_marginal(one, (i,)) + pr_test_marginal(two, (i,)),
                f"t={t} fb",
            )
        r.bump(before)
    return r


def suite_test_chain(pool) -> SuiteResult:
    """The test-level chain rule telescopes over any later slot selection."""
    r = SuiteResult("test-chain")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(54, t)
        slots = _slots(a)
        done = 0
        for _ in range(20):
            if done == 3:
                break
            flip = rand_subset(rng, slots, 0)
            b = complemented(a, flip) if flip else a
            cut = int(rng.integers(0, len(slots)))
            L = rand_subset(rng, slots[:cut], 0)
            chain = rand_subset(rng, slots[cut:], 1)
            if not chain or pr_test_marginal(b, L + chain) < CHAIN_FLOOR:
                r.skips += 1
                continue
            product = 1.0
            for l in range(len(chain)):
                product *= pr_test_cond(b, L + chain[:l], (chain[l],))
            r.eq(pr_test_cond(b, L, chain), product, f"t={t}")
            done += 1
        if done == 0:
            i = slots[0]
            b = a.with_event(i, complete_event(a.test.measurements[i - 1]))
            r.eq(pr_test_cond(b, (), (i,)), pr_test_marginal(b, (i,)), f"t={t} fb")
        r.bump(before)
    return r


def suite_test_total_probability(pool) -> SuiteResult:
    """Total probability over a partition of one slot's outcome set."""
    r = SuiteResult("test-total-probability")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(55, t)
        slots = _slots(a)
        done = 0
        for _ in range(16):
            if done == 3:
                break
            i = int(rng.choice(slots[:-1]))
            J = rand_subset(rng, [s for s in slots if s < i], 0)
            after = tuple(s for s in slots if s > i)
            K, L = split_indices(rng, after, 2)
            if not L:
                K, L = (), after
            m = a.test.measurements[i - 1]
            labels = list(m.spectrum)
            rng.shuffle(labels)
            blocks = [blk for blk in split_indices(rng, tuple(labels), 2) if blk]
            terms = []
            ambiguous = False
            for blk in blocks:
                ai = a.with_event(i, Event(m, blk))
                w = pr_test_marginal(ai, J + (i,) + K)
                if w <= 1e-12:
                    continue
                if w <= 1e-9:
                    ambiguous = True
                    break
                terms.append(w * pr_test_cond(ai, J + (i,) + K, L))
            if ambiguous:
                r.skips += 1
                continue
            r.eq(pr_test_marginal(a, J + K + L), sum(terms), f"t={t}")
            done += 1
        if done == 0:
            i, L = slots[0], slots[-1:]
            ai = a.with_event(i, complete_event(a.test.measurements[i - 1]))
            w = pr_test_marginal(ai, (i,))
            term = w * pr_test_cond(ai, (i,), L)
            r.eq(pr_test_marginal(a, L), term, f"t={t} fb")
        r.bump(before)
    return r


# --------------------------------------------------------------- independence


def _k_j_pairs(rng, below, limit=10):
    """Sampled (K, J) pairs with J a nonempty subsequence of nonempty K."""
    if not below:
        return []
    seen = set()
    for _ in range(limit * 3):
        K = rand_subset(rng, below, 1)
        if not K:
            continue
        J = rand_subset(rng, K, 1)
        if (K, J) in seen:
            continue
        seen.add((K, J))
        if len(seen) == limit:
            break
    return sorted(seen)


def suite_ind_complete(pool) -> SuiteResult:
    """A complete event is independent of anything that came before."""
    r = SuiteResult("ind-complete")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(61, t)
        for i in _slots(a):
            ac = a.with_event(i, complete_event(a.test.measurements[i - 1]))
            below = [s for s in _slots(a) if s < i]
            pairs = [((), ())] + _k_j_pairs(rng, below)
            for K, J in pairs:
                try:
                    if K and pr_test_marginal(ac, K) < 1e-5:
                        r.skips += 1
                        continue
                    lhs = pr_test_cond(ac, K, (i,))
                    rhs = pr_test_cond(ac, tuple(s for s in K if s not in J), (i,))
                except ConditionOnZeroError:
                    r.skips += 1
                    continue
                r.eq(lhs, rhs, f"t={t} i={i} K={K} J={J}")
                r.check(
                    is_independent(ac, i, K, J),
                    f"t={t} i={i} K={K} J={J} flagged dependent",
                )
                r.hits += 1
        r.bump(before)
    return r


def suite_ind_complement_target(pool) -> SuiteResult:
    """Independence of an event passes to its complement."""
    r = SuiteResult("ind-complement-target")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(62, t)
        slots = _slots(a)
        # guaranteed premise: a complete target, whose complement is empty
        i = slots[-1]
        below = [s for s in slots if s < i]
        mi = a.test.measurements[i - 1]
        for K, J in _k_j_pairs(rng, below, limit=3) + [((), ())]:
            ac = a.with_event(i, complete_event(mi))
            rest = tuple(s for s in K if s not in J)
            lhs = _cond_or_none(ac, K, i)
            rhs = _cond_or_none(ac, rest, i)
            if lhs is None or rhs is None or abs(lhs - rhs) > PREMISE:
                continue
            ae = a.with_event(i, empty_event(mi))
            clhs = _cond_or_none(ae, K, i)
            crhs = _cond_or_none(ae, rest, i)
            if clhs is None or crhs is None:
                continue
            r.eq(clhs, crhs, f"t={t} complete/empty K={K}")
            break
        # natural premises among the instance's own events
        for i in slots[1:]:
            below = [s for s in slots if s < i]
            for K, J in _k_j_pairs(rng, below, limit=6):
                rest = tuple(s for s in K if s not in J)
                if pr_test_marginal(a, K) < IND_FLOOR:
                    r.skips += 1
                    continue
                if rest and pr_test_marginal(a, rest) < IND_FLOOR:
                    r.skips += 1
                    continue
                lhs = _cond_or_none(a, K, i)
                rhs = _cond_or_none(a, rest, i)
                if lhs is None or rhs is None or abs(lhs - rhs) > PREMISE:
                    continue
                r.hits += 1
                bar = a.with_event(i, complement(a.event(i)))
                r.eq(
                    _cond_or_none(bar, K, i),
                    _cond_or_none(bar, rest, i),
                    f"t={t} i={i} K={K} J={J}",
                )
        r.bump(before)
    return r


def suite_ind_flip_condition(pool) -> SuiteResult:
    """Independence survives complementing one conditioning event."""
    r = SuiteResult("ind-flip-condition")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(63, t)
        slots = _slots(a)
        # guaranteed premise via a complete target event
        i = slots[-1]
        below = [s for s in slots if s < i]
        ac = a.with_event(i, complete_event(a.test.measurements[i - 1]))
        for _ in range(12):
            j = int(rng.choice(below))
            K = tuple(sorted(set(rand_subset(rng, below, 0)) | {j}))
            rest = tuple(s for s in K if s != j)
            premise_lhs = _cond_or_none(ac, K, i)
            premise_rhs = _cond_or_none(ac, rest, i)
            if premise_lhs is None or premise_rhs is None:
                continue
            if abs(premise_lhs - premise_rhs) > PREMISE:
                continue
            flipped = ac.with_event(j, complement(ac.event(j)))
            lhs = _cond_or_none(flipped, K, i)
            if lhs is None:
                continue
            r.eq(lhs, premise_rhs, f"t={t} complete target j={j}")
            break
        # natural premises
        for i in slots[1:]:
            below = [s for s in slots if s < i]
            for K, _ in _k_j_pairs(rng, below, limit=6):
                j = int(rng.choice(K))
                rest = tuple(s for s in K if s != j)
                flipped = a.with_event(j, complement(a.event(j)))
                d1 = pr_test_marginal(a, K)
                d2 = pr_test_marginal(flipped, K)
                d0 = pr_test_marginal(a, rest) if rest else 1.0
                if min(d1, d2, d0) < IND_FLOOR or d1 > RATIO_CAP_FLIP * d2:
                    r.skips += 1
                    continue
                lhs = _cond_or_none(a, K, i)
                rhs = _cond_or_none(a, rest, i)
                if lhs is None or rhs is None or abs(lhs - rhs) > PREMISE_FLIP:
                    continue
                r.hits += 1
                r.eq(_cond_or_none(flipped, K, i), rhs, f"t={t} i={i} K={K} j={j}")
        r.bump(before)
    return r


def suite_ind_union(pool) -> SuiteResult:
    """Two disjoint independent events have an independent union."""
    r = SuiteResult("ind-union")
    for t, a in enumerate(pool):
        before = r.checks
        rng = suite_rng(64, t)
        slots = _slots(a)
        # guaranteed premise: complete and empty targets, union complete
        i = slots[-1]
        m = a.test.measurements[i - 1]
        below = [s for s in slots if s < i]
        for K, J in _k_j_pairs(rng, below, limit=3) + [((), ())]:
            rest = tuple(s for s in K if s not in J)
            parts = (complete_event(m), empty_event(m))
            ok = True
            for ev in parts:
                ai = a.with_event(i, ev)
                lhs = _cond_or_none(ai, K, i)
                rhs = _cond_or_none(ai, rest, i)
                if lhs is None or rhs is None or abs(lhs - rhs) > PREMISE:
                    ok = False
                    break
            if not ok:
                continue
            au = a.with_event(i, union(*parts))
            lhs = _cond_or_none(au, K, i)
            rhs = _cond_or_none(au, rest, i)
            if lhs is None or rhs is None:
                continue
            r.eq(lhs, rhs, f"t={t} complete/empty union K={K}")
            break
        # natural premises with genuinely disjoint outcome sets
        for i in slots[1:]:
            m = a.test.measurements[i - 1]
            below = [s for s in slots if s < i]
            for K, J in _k_j_pairs(rng, below, limit=4):
                rest = tuple(s for s in K if s not in J)
                if pr_test_marginal(a, K) < IND_FLOOR:
                    r.skips += 1
                    continue
                if rest and pr_test_marginal(a, rest) < IND_FLOOR:
                    r.skips += 1
                    continue
                universe = rand_subset(rng, m.spectrum, 2)
                part1, part2 = split_two(rng, universe)
                e1, e2 = Event(m, part1), Event(m, part2)
                good = True
                for ev in (e1, e2):
                    ai = a.with_event(i, ev)
                    lhs = _cond_or_none(ai, K, i)
                    rhs = _cond_or_none(ai, rest, i)
                    if lhs is None or rhs is None or abs(lhs - rhs) > PREMISE:
                        good = False
                        break
                if not good:
                    continue
                r.hits += 1
                au = a.with_event(i, union(e1, e2))
                r.eq(
                    _cond_or_none(au, K, i),
                    _cond_or_none(au, rest, i),
                    f"t={t} i={i} K={K} J={J}",
                )
        r.bump(before)
    return r


ALL_SUITES = (
    suite_state_permutation,
    suite_state_empty,
    suite_state_complete_tail,
    suite_state_complement,
    suite_state_additivity,
    suite_cond_projective_repeat,
    suite_cond_monotone,
    suite_cond_additivity,
    suite_cond_chain,
    suite_test_projective_repeat,
    suite_test_monotone,
    suite_test_additivity,
    suite_test_chain,
    suite_test_total_probability,
    suite_ind_complete,
    suite_ind_complement_target,
    suite_ind_flip_condition,
    suite_ind_union,
)
