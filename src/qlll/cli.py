"""Command line interface.

Verbs: prob, cond, indep, profile, check, sample, paper-examples, gen.
Each verb returns its JSON document and exit code; a verb with
``--instance`` is handed the file's ``(test, assignment, x)``.  ``main``
prints the document (compact by default, ``--pretty`` to indent); ``gen
--out`` writes what ``gen`` would print, plus a newline, and prints nothing.
A flag that the chosen mode, variant or generator kind does not read is a
validation error.
Exit codes: 0 success / bounds hold; 1 conditioning on a zero-probability
sequence or a failed hypothesis; 2 parse, validation or internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConditionOnZeroError,
    EnumerationCapError,
    ParseError,
    QlllError,
    ValidationError,
)
from .events import parse_event_seq, resolve_event_spec
from .generate import _READS, GeneratorKind, GeneratorSpec, generate, worked_examples
from .independence import _difference, _neg_difference, compute_profile
from .linalg import DEFAULT_TOL
from .lll import LLLInstance, check_general, check_symmetric
from .oracle import enumerate_probability, sample_trajectories
from .probability import pr_state, pr_state_cond, pr_test_cond, pr_test_marginal
from .serialize import instance_to_dict, load_path

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_ERROR = 2


def _indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}")


def _weights(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError:
        raise ParseError(f"expected comma-separated numbers, got {text!r}")


def _need_events(assignment, what: str):
    if assignment is None:
        raise ValidationError(f"{what} needs an 'events' array in the instance file")
    return assignment


def _state_events(test, text: str):
    return [resolve_event_spec(test.measurements, i, spec) for i, spec in parse_event_seq(text)]


def _event_docs(seq) -> list[dict]:
    return [{"measurement": e.measurement.name, "in": e.sorted_outcomes()} for e in seq]


def _unread(value, flag: str, context: str) -> None:
    """A flag that *context* does not read is an error, not a silent no-op."""
    if value is not None:
        raise ValidationError(f"{flag} is not read by {context}")


def cmd_prob(args, test, assignment, _x) -> tuple[dict, int]:
    if args.mode == "state":
        _unread(args.K, "--K", "prob --mode state")
        if args.seq is None:
            raise ValidationError("state mode needs --seq")
        seq = _state_events(test, args.seq)
        value = pr_state(test.rho, seq)
        query = {"seq": _event_docs(seq)}
    else:
        _unread(args.seq, "--seq", "prob --mode test")
        if args.K is None:
            raise ValidationError("test mode needs --K")
        a = _need_events(assignment, "test mode")
        K = _indices(args.K)
        value = pr_test_marginal(a, K)
        query = {"K": list(K)}
    return {"command": "prob", "mode": args.mode, "query": query, "value": value}, EXIT_OK


def cmd_cond(args, test, assignment, _x) -> tuple[dict, int]:
    if args.K is None or args.L is None:
        raise ValidationError("cond needs --K (conditioning) and --L (target)")
    if args.mode == "state":
        given = _state_events(test, args.K) if args.K.strip() else []
        then = _state_events(test, args.L)
        value = pr_state_cond(test.rho, given, then)
        query = {"given": _event_docs(given), "then": _event_docs(then)}
    else:
        a = _need_events(assignment, "test mode")
        K, L = _indices(args.K), _indices(args.L)
        value = pr_test_cond(a, K, L)
        query = {"K": list(K), "L": list(L)}
    return {"command": "cond", "mode": args.mode, "query": query, "value": value}, EXIT_OK


def cmd_indep(args, _test, assignment, _x) -> tuple[dict, int]:
    a = _need_events(assignment, "indep")
    if args.neg:
        _unread(args.J, "--J", "indep --neg")
    K = _indices(args.K)
    J = _indices(args.J) if args.J is not None else K
    tol = DEFAULT_TOL
    if args.neg:
        difference, result = _neg_difference(a, args.i, K, tol)
    else:
        difference, result = _difference(a, args.i, K, J, tol)
    doc = {
        "command": "indep",
        "query": {"i": args.i, "K": list(K), "J": list(J), "negated": bool(args.neg)},
        "independent": result,
        "difference": difference,
        "tolerance": tol.ind,
    }
    return doc, EXIT_OK


def cmd_profile(args, _test, assignment, _x) -> tuple[dict, int]:
    a = _need_events(assignment, "profile")
    profile = compute_profile(a)
    doc = {"command": "profile", **profile.to_json()}
    entries = list(profile.table.values())
    if entries and all(v is None for v in entries):
        return doc, EXIT_ERROR
    return doc, EXIT_OK


def cmd_check(args, _test, assignment, x_file) -> tuple[dict, int]:
    a = _need_events(assignment, "check")
    if args.variant == "general":
        _unread(args.p, "--p", "check --variant general")
        x = _weights(args.x) if args.x is not None else x_file
        if x is None:
            raise ValidationError("general check needs weights: --x or an 'x' array in the file")
        report = check_general(LLLInstance(a, x))
        ok = all(report.assumption_ok) and report.bound_ok
        doc = {"command": "check", "variant": "general", "report": report.to_json(), "ok": ok}
        if not all(report.assumption_ok):
            return doc, EXIT_HYPOTHESIS
        if not report.bound_ok:
            return doc, EXIT_ERROR  # hypothesis held but a proven bound failed
        return doc, EXIT_OK
    _unread(args.x, "--x", "check --variant symmetric")
    report = check_symmetric(a, args.p)
    ok = report.verdict == "pass"
    doc = {"command": "check", "variant": "symmetric", "report": report.to_json(), "ok": ok}
    return doc, EXIT_OK if ok else EXIT_HYPOTHESIS


def cmd_sample(args, _test, assignment, _x) -> tuple[dict, int]:
    a = _need_events(assignment, "sample")
    K = _indices(args.K) if args.K is not None else a.assigned()
    est = sample_trajectories(a, K, args.n, args.seed)
    exact = None
    try:
        exact = enumerate_probability(a, K)
    except EnumerationCapError:
        if args.exact:
            raise
    doc = {"command": "sample", **est.to_json(), "exact": exact}
    doc["discrepancy_sigma"] = (
        None
        if exact is None or est.std_error == 0.0
        else abs(est.estimate - exact) / est.std_error
    )
    return doc, EXIT_OK


def cmd_paper_examples(args) -> tuple[dict, int]:
    results = worked_examples()
    doc = {
        "command": "paper-examples",
        "results": [ex.to_json() for ex in results],
        "all_pass": all(c.passed for ex in results for c in ex.checks),
    }
    return doc, EXIT_OK if doc["all_pass"] else EXIT_ERROR


def cmd_gen(args) -> tuple[dict, int]:
    """Return the instance document; ``main`` prints it or writes it to ``--out``.

    Only the flags given reach ``GeneratorSpec``, which holds the defaults;
    a flag that the kind does not read is an error.
    """
    context = f"gen --kind {args.kind}"
    reads = _READS[GeneratorKind(args.kind)]
    given = {}
    for field in ("n", "local_dim", "window", "seed", "outcomes"):
        value = getattr(args, field)
        if field not in reads:
            _unread(value, "--" + field.replace("_", "-"), context)
        elif value is not None:
            given[field] = value
    if "seed" in reads and "seed" not in given:
        raise ValidationError(f"{context} needs --seed")
    a = generate(GeneratorSpec(kind=args.kind, **given))
    # validated as a check would take them: one weight per slot, each in (0, 1]
    x = LLLInstance(a, _weights(args.x)).x if args.x is not None else None
    return instance_to_dict(a, x), EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlll",
        description=(
            "Probabilities of ordered quantum measurement sequences, "
            "independence relative to a test, and local-lemma bound checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, help, instance=True):
        p = sub.add_parser(name, help=help)
        if instance:
            p.add_argument("--instance", required=True, help="path to an instance JSON file")
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
        # the CLI's one reader: loading is the first thing an instance verb can fail on
        p.set_defaults(func=(lambda args: func(args, *load_path(args.instance))) if instance else func)
        return p

    p = verb("prob", cmd_prob, "sequence or marginal probability")
    p.add_argument("--mode", choices=["state", "test"], default="test")
    p.add_argument("--seq", help="state mode: event sequence, e.g. 'M1=1;M2=0'")
    p.add_argument("--K", help="test mode: slot indices, e.g. '1,3'")

    p = verb("cond", cmd_cond, "conditional probability")
    p.add_argument("--mode", choices=["state", "test"], default="test")
    p.add_argument("--K", help="conditioning: events (state mode) or slots (test mode)")
    p.add_argument("--L", help="target: events (state mode) or slots (test mode)")

    p = verb("indep", cmd_indep, "independence of one event from earlier ones")
    p.add_argument("--i", type=int, required=True, help="target slot")
    p.add_argument("--K", required=True, help="conditioning slots, e.g. '1,2'")
    p.add_argument("--J", help="slots to drop from K (default: all of K)")
    p.add_argument("--neg", action="store_true", help="negative independence (condition on complements)")

    verb("profile", cmd_profile, "negative-independence profile, s and d_min")

    p = verb("check", cmd_check, "local-lemma bound check")
    p.add_argument("--variant", choices=["general", "symmetric"], default="general")
    p.add_argument("--x", help="general: comma-separated weights (overrides the file)")
    p.add_argument("--p", type=float, help="symmetric: probability bound (default: measured max)")

    p = verb("sample", cmd_sample, "Monte Carlo estimate of a marginal")
    p.add_argument("--K", help="slot indices (default: all assigned slots)")
    p.add_argument("--n", type=int, required=True, help="number of trajectories")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="fail if exact enumeration is infeasible")

    verb("paper-examples", cmd_paper_examples, "run the bundled worked examples", instance=False)

    p = verb("gen", cmd_gen, "generate an instance file", instance=False)
    p.add_argument("--kind", required=True, choices=[k.value for k in GeneratorKind])
    p.add_argument("--n", type=int)
    p.add_argument("--local-dim", type=int, dest="local_dim")
    p.add_argument("--window", type=int)
    p.add_argument("--seed", type=int, help="required by the random kinds")
    p.add_argument("--outcomes", type=int)
    p.add_argument("--x", help="embed weights into the file")
    p.add_argument("--out", help="write to a file instead of stdout")

    return parser


def _emit(doc: dict, pretty: bool, path: str | None = None) -> None:
    """Print *doc* as JSON, or write it plus a newline to *path*: the CLI's one writer."""
    text = json.dumps(doc, indent=2) if pretty else json.dumps(doc, separators=(",", ":"))
    if path is None:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write instance file {path!r}: {exc}")


def main(argv=None) -> int:
    """Run one verb and emit its JSON document, or print the error document."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.func(args)
        _emit(doc, args.pretty, getattr(args, "out", None))
        return code
    except QlllError as exc:
        _emit({"error": exc.to_json()}, args.pretty)
        return EXIT_HYPOTHESIS if isinstance(exc, ConditionOnZeroError) else EXIT_ERROR


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
