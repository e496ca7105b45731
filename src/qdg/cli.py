"""Command-line front end: run the verification suite, compute normal
forms, and emit graded-dimension tables.

Exit codes: 0 all checks pass, 1 check failure, 2 usage or parse error,
or standard output that cannot be written, 3 resource budget exceeded,
central-exponent overflow, a power refused for the size of its
coefficient, or a coefficient or an exponent of q, a or b too large to
print.  QDG_TERM_BUDGET and QDG_WORD_CAP override the engine limits.

Each command imports the modules it runs when it starts, so a process
compiles only those: `dims` loads `freealg`, `nf` loads `expr` and
`boxtilde`, and `verify` loads `identities` and `gradings` with those
two.  At module level only `limits` and `qcoeff` are imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .limits import LIMITS, EngineLimits, ReductionBudgetError, TermBudgetError
from .qcoeff import DEFAULT_RING, CoefficientTooLargeError, NotInvertibleError

DEFAULT_SEED = 20260810


def build_checks(seed: int = DEFAULT_SEED) -> dict:
    """The full named check registry, name -> thunk returning a CheckResult."""
    from . import gradings, identities

    return dict(identities.checks(seed) + gradings.gradings_checks(seed))


def run_checks(names: List[str], registry) -> list:
    """Runs the named checks one at a time, in sorted order, and times each
    alone; returns (name, CheckResult, ms) rows.  A check that exceeds an
    engine budget is reported with status `error` and the budget message
    as its witness."""
    import time

    from .identities import CheckResult

    rows = []
    for name in sorted(names):
        start = time.perf_counter()
        try:
            result = registry[name]()
        except (ReductionBudgetError, TermBudgetError) as exc:
            result = CheckResult("error", exc)
        rows.append((name, result, (time.perf_counter() - start) * 1000.0))
    return rows


def _report(rows, seed: int) -> dict:
    checks = []
    passed = failed = 0
    for name, result, ms in rows:
        entry = {"name": name, "status": result.status, "ms": round(ms, 3)}
        if result.witness is not None:
            entry["witness"] = str(result.witness)
        checks.append(entry)
        if result.ok:
            passed += 1
        else:
            failed += 1
    return {
        "version": __version__,
        "config": {
            "ring": list(DEFAULT_RING.symbols),
            "term_budget": LIMITS.term_budget,
            "word_cap": LIMITS.word_cap,
            "seed": seed,
        },
        "checks": checks,
        "summary": {"pass": passed, "fail": failed},
    }


def cmd_verify(args) -> int:
    import fnmatch

    registry = build_checks(args.seed)
    names = list(registry)
    if args.check is not None:
        names = [n for n in names if fnmatch.fnmatchcase(n, args.check)]
        if not names:
            print("no check matches %r" % args.check, file=sys.stderr)
            return 2
    rows = run_checks(names, registry)
    report = _report(rows, args.seed)
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        width = max(len(n) for n in names)
        for entry in report["checks"]:
            line = "%-*s  %-4s  %8.1f ms" % (width, entry["name"], entry["status"], entry["ms"])
            print(line)
            if "witness" in entry:
                print("    witness: %s" % entry["witness"])
        print(
            "%d checks: %d pass, %d fail"
            % (len(names), report["summary"]["pass"], report["summary"]["fail"])
        )
    if any(entry["status"] == "error" for entry in report["checks"]):
        return 3
    return 0 if report["summary"]["fail"] == 0 else 1


def cmd_nf(args) -> int:
    from .boxtilde import CentralOverflowError
    from .expr import ParseError, eval_text, render

    try:
        text = render(eval_text(args.expr))
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except NotInvertibleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (CentralOverflowError, CoefficientTooLargeError) as exc:
        print("overflow: %s" % exc, file=sys.stderr)
        return 3
    print(text)
    return 0


def cmd_dims(args) -> int:
    from . import freealg

    if not 0 <= args.max <= freealg.DEGREE_CAP:
        print(
            "max degree %d is outside 0..%d (the cap)" % (args.max, freealg.DEGREE_CAP),
            file=sys.stderr,
        )
        return 2
    import random
    from itertools import islice

    def agree(leads, n, irreducible):
        # as many leads as words a rule rewrites, all of length n over x
        # and y, and none irreducible: so exactly the words a rule rewrites
        return (
            len(leads) == 2 ** n - len(irreducible)
            and set(map(len, leads)) <= {n}
            and not "".join(leads).encode().translate(None, b"xy")
            and leads.isdisjoint(irreducible)
        )

    rng = random.Random(args.seed)
    rules: list = []
    walks: list = []  # the span's leads at each point drawn, one degree a step
    rows = []
    for n in range(args.max + 1):
        freealg.add_serre_rules(rules, n)
        irreducible = freealg.irreducible_words(rules, n)
        rank = 2 ** n - len(irreducible)  # the words a rule rewrites
        # every walk takes its step; on a disagreement a new point is
        # walked from degree 0 to n, up to _POINTS points in all
        agrees = any([agree(next(walk), n, irreducible) for walk in walks])
        while not agrees and len(walks) < freealg._POINTS:
            walks.append(freealg.span_leads_mod_p(freealg.random_residue_point(rng)))
            agrees = agree(next(islice(walks[-1], n, None)), n, irreducible)
        rows.append(
            {
                "n": n,
                "words": 2 ** n,
                "rank": rank,
                "dim": 2 ** n - rank,
                "specialization_agrees": agrees,
            }
        )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "version": __version__,
                    "config": {"ring": list(DEFAULT_RING.symbols), "seed": args.seed},
                    "rows": rows,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print("%4s %8s %6s %6s %s" % ("n", "words", "rank", "dim", "spec-check"))
        for row in rows:
            print(
                "%4d %8d %6d %6d %s"
                % (
                    row["n"],
                    row["words"],
                    row["rank"],
                    row["dim"],
                    "ok" if row["specialization_agrees"] else "MISMATCH",
                )
            )
    if not all(row["specialization_agrees"] for row in rows):
        return 1
    return 0


def _apply_env_limits() -> Optional[str]:
    """Applies QDG_TERM_BUDGET and QDG_WORD_CAP to the engine limits, and the
    `EngineLimits` default for a variable that is unset or empty, so no
    limit outlives the call that set it; returns a message for a value
    that is not a positive integer."""
    for var, field in (("QDG_TERM_BUDGET", "term_budget"), ("QDG_WORD_CAP", "word_cap")):
        text = os.environ.get(var)
        if not text:
            setattr(LIMITS, field, getattr(EngineLimits, field))
            continue
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value <= 0:
            return "%s must be a positive integer, not %r" % (var, text)
        setattr(LIMITS, field, value)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qdg", description="exact verification kernel for the box-algebra identity suite"
    )
    parser.add_argument("--version", action="version", version="qdg %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every check (default)")
    group.add_argument("--check", metavar="GLOB", help="run checks matching a name glob")
    p_verify.add_argument("--json", action="store_true", help="emit a JSON report")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.set_defaults(func=cmd_verify)

    p_nf = sub.add_parser("nf", help="print the normal form of an expression")
    p_nf.add_argument("expr")
    p_nf.set_defaults(func=cmd_nf)

    p_dims = sub.add_parser("dims", help="graded dimension table")
    p_dims.add_argument("--max", type=int, required=True)
    p_dims.add_argument("--json", action="store_true")
    p_dims.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_dims.set_defaults(func=cmd_dims)

    args = parser.parse_args(argv)
    error = _apply_env_limits()
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (ReductionBudgetError, TermBudgetError) as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        # a closed pipe or a full device: stdout is pointed at devnull, so
        # the interpreter's flush at exit writes what is left without a
        # second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
