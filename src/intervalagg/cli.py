"""Command-line front end, JSON file formats, and external-rule adapters.

Subcommands: ``aggregate`` (evaluate a rule on a profile), ``audit``
(sampled axiom campaign with a JSON report), ``identify`` (order-statistic
quota recovery probe), ``manipulate`` (misreport search for one agent) and
``sweep`` (tabulate every admissible quota pair on one profile).

Exit codes are a stable contract: 0 success/compliant, 1 axiom failures or
a found manipulation, 2 input errors, 3 invalid rule parameters.

JSON is the single interchange format.  A profile document is
``{"agents": [{"lo": 2, "hi": 4}, ...], "labels": [...]?}``; a phantom
file is ``{"phantoms": [{"lo": "-inf", "hi": 5}, ...]}`` where infinite
bounds are spelled as the strings "-inf"/"inf"; audit reports follow the
schema produced by AuditReport.to_json_dict (documented in the README).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import reprlib
import shlex
import subprocess
import sys
from typing import Optional, Sequence

from .audit import (
    ALL_AXIOM_IDS,
    AuditConfig,
    audit,
    identify_endpoint_rule,
    staircase_profile,
)
from .core import ExtendedInterval, Interval, Profile
from .preferences import (
    GridConfig,
    PenaltyPreference,
    Preference,
    WeightedL1Preference,
    find_manipulation,
)
from .rules import (
    PhantomVector,
    RuleEvaluationError,
    RuleHandle,
    averaging_rule_handle,
    endpoint_rule,
    EndpointRuleParams,
    endpoint_rule_handle,
    maximal_rule_handle,
    median_rule_handle,
    phantom_rule_handle,
    valid_quota_pairs,
)

__all__ = [
    "CommandError",
    "load_profile_document",
    "profile_to_document",
    "load_phantom_file",
    "parse_rule_spec",
    "extern_rule_adapter",
    "main",
]

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INPUT = 2
EXIT_RULE_PARAMS = 3


class CommandError(Exception):
    """CLI-level error carrying the exit code for its diagnostic."""

    def __init__(self, message: str, exit_code: int = EXIT_INPUT):
        super().__init__(message)
        self.exit_code = exit_code


@contextlib.contextmanager
def _rule_errors():
    """Map what building or evaluating a rule raises to an exit code.

    A ``ValueError`` means the rule's parameters do not fit (quotas or
    phantoms against the profile size): code 3.  A
    :class:`RuleEvaluationError` means an external rule failed: code 2.
    """
    try:
        yield
    except ValueError as error:
        raise CommandError(str(error), EXIT_RULE_PARAMS) from error
    except RuleEvaluationError as error:
        raise CommandError(f"rule evaluation failed: {error}") from error


def _json_number(value: float):
    # Integral floats print as JSON integers; round trips only promise
    # identity up to number formatting.
    if float(value).is_integer():
        return int(value)
    return value


def _number_from_json(raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"bound must be a number: {reprlib.repr(raw)}")
    return float(raw)


def _bound_from_json(raw) -> float:
    if isinstance(raw, str):
        text = raw.strip().lower()
        if text in ("-inf", "-infinity"):
            return float("-inf")
        if text in ("inf", "+inf", "infinity", "+infinity"):
            return float("inf")
        raise ValueError(f"unrecognised bound string: {reprlib.repr(raw)}")
    return _number_from_json(raw)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise CommandError(f"cannot read {path}: {error}") from error
    # ValueError also covers bad UTF-8 and integers past the digit limit.
    except (ValueError, RecursionError) as error:
        raise CommandError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise CommandError(f"{path}: top-level JSON value must be an object")
    return data


def _load_intervals(path: str, key: str, noun: str, kind, bound) -> tuple:
    """``(data, entries)`` of a ``{key: [{"lo": .., "hi": ..}, ...]}`` file,
    each entry ``kind(bound(lo), bound(hi))``."""
    data = _load_json_file(path)
    items = data.get(key)
    if not isinstance(items, list) or not items:
        raise CommandError(f"{path}: '{key}' must be a nonempty list")
    entries = []
    for pos, item in enumerate(items):
        if not isinstance(item, dict) or "lo" not in item or "hi" not in item:
            raise CommandError(
                f"{path}: {noun} {pos} must be an object with 'lo' and 'hi'"
            )
        try:
            entries.append(kind(bound(item["lo"]), bound(item["hi"])))
        except (ValueError, OverflowError) as error:
            raise CommandError(f"{path}: {noun} {pos}: {error}") from error
    return data, entries


def load_profile_document(path: str) -> Profile:
    """Read a profile document; labels, when present, must be unique."""
    data, entries = _load_intervals(
        path, "agents", "agent", Interval, _number_from_json
    )
    labels = data.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != len(entries)
            or not all(isinstance(label, str) for label in labels)
        ):
            raise CommandError(
                f"{path}: 'labels' must be a list of {len(entries)} strings"
            )
        if len(set(labels)) != len(labels):
            raise CommandError(f"{path}: labels must be unique")
    return Profile(entries)


def profile_to_document(
    profile: Profile, labels: Optional[Sequence[str]] = None
) -> dict:
    """Inverse of :func:`load_profile_document` up to number formatting."""
    document = {
        "agents": [
            {"lo": _json_number(entry.lo), "hi": _json_number(entry.hi)}
            for entry in profile
        ]
    }
    if labels is not None:
        document["labels"] = list(labels)
    return document


def load_phantom_file(path: str) -> PhantomVector:
    """Read a phantom vector; bounds may be numbers or "-inf"/"inf"."""
    _, entries = _load_intervals(
        path, "phantoms", "phantom", ExtendedInterval, _bound_from_json
    )
    return PhantomVector(tuple(entries))


# subprocess waits in whole milliseconds held in a C int (about 24.8 days)
# and raises OverflowError past that; a day is far beyond any rule call.
_MAX_TIMEOUT_S = 86400.0


def extern_rule_adapter(command: str, timeout: float = 5.0) -> RuleHandle:
    """Wrap a subprocess as a rule: profile JSON in, {"lo", "hi"} out.

    One subprocess per evaluation, fed the profile document on standard
    input.  Spawn failures, nonzero exits, timeouts and malformed output
    all surface as :class:`RuleEvaluationError`, which audits tally
    separately from axiom failures.  The reply's bounds must be JSON
    numbers, as in a profile document; extra keys are ignored.
    ``timeout`` is in seconds, positive and at most a day.
    """
    try:
        argv = shlex.split(command)
    except ValueError as error:
        raise CommandError(f"cannot parse extern rule command: {error}") from error
    if not argv:
        raise CommandError("extern rule command is empty")
    if not 0 < timeout <= _MAX_TIMEOUT_S:
        raise CommandError(
            f"--timeout must be positive and at most {_MAX_TIMEOUT_S:g} s, "
            f"got {timeout}"
        )

    def evaluate(profile: Profile) -> Interval:
        payload = json.dumps(profile_to_document(profile))
        try:
            proc = subprocess.run(
                argv,
                input=payload.encode("utf-8"),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as error:
            raise RuleEvaluationError(
                f"rule process timed out after {timeout} s"
            ) from error
        except OSError as error:
            raise RuleEvaluationError(
                f"cannot launch {argv[0]!r}: {error}"
            ) from error
        if proc.returncode != 0:
            raise RuleEvaluationError(
                f"rule process exited {proc.returncode}: "
                f"{proc.stderr.decode('utf-8', 'replace').strip()[:200]}"
            )
        text = proc.stdout.decode("utf-8", "replace")
        try:
            reply = json.loads(text)
        # ValueError also covers integers past the digit limit.
        except (ValueError, RecursionError) as error:
            raise RuleEvaluationError(
                f"rule process wrote invalid JSON: {text.strip()[:200]!r}"
            ) from error
        if (
            not isinstance(reply, dict)
            or "lo" not in reply
            or "hi" not in reply
        ):
            raise RuleEvaluationError(
                "rule reply must be an object with 'lo' and 'hi': "
                f"{reprlib.repr(reply)}"
            )
        try:
            return Interval(
                _number_from_json(reply["lo"]), _number_from_json(reply["hi"])
            )
        except (ValueError, OverflowError) as error:
            raise RuleEvaluationError(
                f"rule reply is not an interval: {reprlib.repr(reply)}: {error}"
            ) from error

    return RuleHandle(f"extern:{command}", evaluate)


def parse_rule_spec(text: str, timeout: float = 5.0) -> RuleHandle:
    """Parse a rule selector string into a handle.

    Forms: ``endpoint:p,q``, ``median``, ``maximal``, ``averaging``,
    ``phantoms:<file>``, ``extern:<command>``.  Quotas below 1 exit with
    code 3 here; quota and phantom constraints that depend on the profile
    size are enforced when the rule is evaluated, also with code 3.
    """
    text = text.strip()
    if text == "median":
        return median_rule_handle()
    if text == "maximal":
        return maximal_rule_handle()
    if text == "averaging":
        return averaging_rule_handle()
    if text.startswith("endpoint:"):
        body = text[len("endpoint:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise CommandError(
                f"endpoint rule spec needs 'endpoint:p,q', got {text!r}"
            )
        try:
            lower_quota = int(parts[0])
            upper_quota = int(parts[1])
        except ValueError as error:
            raise CommandError(
                f"endpoint quotas must be integers, got {text!r}"
            ) from error
        with _rule_errors():
            return endpoint_rule_handle(lower_quota, upper_quota)
    if text.startswith("phantoms:"):
        return phantom_rule_handle(load_phantom_file(text[len("phantoms:"):]))
    if text.startswith("extern:"):
        return extern_rule_adapter(text[len("extern:"):], timeout=timeout)
    raise CommandError(f"unrecognised rule spec: {text!r}")


def _print_interval(interval: Interval) -> None:
    print(
        json.dumps(
            {"lo": _json_number(interval.lo), "hi": _json_number(interval.hi)}
        )
    )


def _cmd_aggregate(args: argparse.Namespace) -> int:
    profile = load_profile_document(args.profile)
    rule = parse_rule_spec(args.rule, timeout=args.timeout)
    with _rule_errors():
        outcome = rule(profile)
    _print_interval(outcome)
    return EXIT_OK


def _parse_axioms(text: Optional[str]) -> Optional[tuple[str, ...]]:
    if text is None:
        return None
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise CommandError("empty --axioms list")
    return names


def _cmd_audit(args: argparse.Namespace) -> int:
    rule = parse_rule_spec(args.rule, timeout=args.timeout)
    axioms = _parse_axioms(args.axioms)
    try:
        config = AuditConfig(
            n_agents=args.n,
            samples=args.samples,
            seed=args.seed,
            **({"axioms": axioms} if axioms is not None else {}),
        )
    except ValueError as error:
        raise CommandError(str(error)) from error
    with _rule_errors():
        report = audit(rule, config)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.write("\n")
    except OSError as error:
        raise CommandError(f"cannot write {args.out}: {error}") from error
    for line in report.summary_lines():
        print(line)
    print(f"report written to {args.out}")
    if report.aborted:
        print(
            f"audit aborted: {report.abort_reason}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    if report.total_failures > 0:
        return EXIT_FAILURES
    return EXIT_OK


def _cmd_identify(args: argparse.Namespace) -> int:
    rule = parse_rule_spec(args.rule, timeout=args.timeout)
    if args.n < 1 or args.samples < 1:
        raise CommandError("--n and --samples must be >= 1 for identify")
    probe = staircase_profile(args.n)
    print(f"staircase profile: {json.dumps(_plain_profile(probe))}")
    with _rule_errors():
        quotas = identify_endpoint_rule(
            rule, args.n, confirmations=args.samples, seed=args.seed
        )
    if quotas is None:
        print("not an endpoint rule")
    else:
        print(f"({quotas[0]},{quotas[1]})")
    return EXIT_OK


def _plain_profile(profile: Profile) -> list:
    return [[_json_number(e.lo), _json_number(e.hi)] for e in profile]


def _parse_pref(text: str, peak: Interval) -> Preference:
    text = text.strip()
    if text in ("weighted", "weighted:"):
        return WeightedL1Preference(peak)
    if text.startswith("weighted:"):
        parts = text[len("weighted:"):].split(",")
        if len(parts) != 2:
            raise CommandError(
                f"weighted preference spec needs 'weighted:a,b', got {text!r}"
            )
        try:
            lower_weight = float(parts[0])
            upper_weight = float(parts[1])
        except ValueError as error:
            raise CommandError(
                f"weighted preference weights must be numbers: {text!r}"
            ) from error
        try:
            return WeightedL1Preference(peak, lower_weight, upper_weight)
        except ValueError as error:
            raise CommandError(str(error)) from error
    if text.startswith("penalty:"):
        parts = text[len("penalty:"):].split(",")
        if len(parts) != 2:
            raise CommandError(
                f"penalty preference spec needs 'penalty:lo,hi', got {text!r}"
            )
        try:
            reference = Interval(float(parts[0]), float(parts[1]))
        except ValueError as error:
            raise CommandError(
                f"penalty reference interval invalid: {error}"
            ) from error
        return PenaltyPreference(peak, reference)
    raise CommandError(f"unrecognised preference spec: {text!r}")


def _cmd_manipulate(args: argparse.Namespace) -> int:
    profile = load_profile_document(args.profile)
    rule = parse_rule_spec(args.rule, timeout=args.timeout)
    if not 1 <= args.agent <= len(profile):
        raise CommandError(
            f"agent index {args.agent} out of range 1..{len(profile)}"
        )
    agent_index = args.agent - 1
    preference = _parse_pref(args.pref, profile[agent_index])
    grid = GridConfig(seed=args.seed)
    with _rule_errors():
        result = find_manipulation(rule, profile, agent_index, preference, grid)
    print(f"truthful outcome: {json.dumps(_plain_interval(result.truthful_outcome))}")
    if not result.found:
        print("no manipulation found")
        return EXIT_OK
    print(f"found manipulation for agent {args.agent}")
    print(f"  misreport:  {json.dumps(_plain_interval(result.misreport))}")
    print(f"  outcome:    {json.dumps(_plain_interval(result.manipulated_outcome))}")
    print(f"  cost drop:  {result.cost_drop:.12g}")
    return EXIT_FAILURES


def _plain_interval(interval: Interval) -> list:
    return [_json_number(interval.lo), _json_number(interval.hi)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    profile = load_profile_document(args.profile)
    n = len(profile)
    rows = []
    for lower_quota, upper_quota in valid_quota_pairs(n):
        params = EndpointRuleParams(lower_quota, upper_quota, n)
        rows.append((lower_quota, upper_quota, endpoint_rule(params, profile)))
    print(f"{'p':>3} {'q':>3}  interval")
    for lower_quota, upper_quota, interval in rows:
        print(
            f"{lower_quota:>3} {upper_quota:>3}  "
            f"({_json_number(interval.lo)}, {_json_number(interval.hi)})"
        )
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["lower_quota", "upper_quota", "lo", "hi"])
            for lower_quota, upper_quota, interval in rows:
                writer.writerow([lower_quota, upper_quota, interval.lo, interval.hi])
    except OSError as error:
        raise CommandError(f"cannot write {args.out}: {error}") from error
    print(f"csv written to {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalagg",
        description=(
            "Aggregate interval judgments, audit aggregation rules against "
            "axioms, identify order-statistic rules, and search for "
            "strategic manipulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--rule",
            required=True,
            help=(
                "rule selector: endpoint:p,q | median | maximal | averaging "
                "| phantoms:<file> | extern:<command>"
            ),
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=5.0,
            help="per-call timeout in seconds for extern rules (default 5)",
        )

    p_agg = sub.add_parser("aggregate", help="evaluate a rule on a profile")
    add_rule(p_agg)
    p_agg.add_argument("--profile", required=True, help="profile JSON file")
    p_agg.set_defaults(func=_cmd_aggregate)

    p_audit = sub.add_parser("audit", help="sampled axiom campaign")
    add_rule(p_audit)
    p_audit.add_argument("--n", type=int, required=True, help="number of agents")
    p_audit.add_argument(
        "--samples", type=int, default=1000, help="samples per axiom (default 1000)"
    )
    p_audit.add_argument("--seed", type=int, default=0, help="master seed")
    p_audit.add_argument(
        "--axioms",
        default=None,
        help=(
            "comma-separated axiom ids (default: all except StrongNeutrality "
            "and Manipulation); known ids: " + ", ".join(ALL_AXIOM_IDS)
        ),
    )
    p_audit.add_argument(
        "--out", default="audit_report.json", help="report file path"
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_ident = sub.add_parser(
        "identify", help="probe whether a rule is an order-statistic rule"
    )
    add_rule(p_ident)
    p_ident.add_argument("--n", type=int, required=True, help="number of agents")
    p_ident.add_argument(
        "--samples",
        type=int,
        default=200,
        help="confirmation profiles (default 200)",
    )
    p_ident.add_argument("--seed", type=int, default=0, help="confirmation seed")
    p_ident.set_defaults(func=_cmd_identify)

    p_man = sub.add_parser(
        "manipulate", help="search misreports for one agent"
    )
    add_rule(p_man)
    p_man.add_argument("--profile", required=True, help="profile JSON file")
    p_man.add_argument(
        "--agent", type=int, required=True, help="agent index, 1-based"
    )
    p_man.add_argument(
        "--pref",
        default="weighted:1,1",
        help=(
            "preference spec: weighted:a,b (weighted endpoint distance) or "
            "penalty:lo,hi (penalty preference with that reference interval); "
            "the peak is always the agent's truthful judgment"
        ),
    )
    p_man.add_argument(
        "--seed", type=int, default=0, help="seed for the random candidate cloud"
    )
    p_man.set_defaults(func=_cmd_manipulate)

    p_sweep = sub.add_parser(
        "sweep", help="tabulate every admissible quota pair on a profile"
    )
    p_sweep.add_argument("--profile", required=True, help="profile JSON file")
    p_sweep.add_argument(
        "--out", default="sweep.csv", help="CSV output path (default sweep.csv)"
    )
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
