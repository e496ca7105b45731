"""Output checks of the benchmark, independent of the code they check, and
the percentile rule it reports latencies by.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

from qdg import expr
from qdg.boxtilde import BoxElem, NormalMono
from qdg.qcoeff import DEFAULT_RING as RING, LaurentPoly

# candidate tail percentiles, highest last
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_SAMPLES = 10


def pbw_dims(n_max: int) -> List[int]:
    """Coefficients of prod_{d odd} (1-t^d)^-2 prod_{d even} (1-t^d)^-1 up
    to t^n_max: the PBW count of U_q^+ (two root vectors in each odd degree,
    one in each even degree; Damiani 1993, Beck 1994)."""
    series = [1] + [0] * n_max
    for d in range(1, n_max + 1):
        for _ in range(2 if d % 2 else 1):
            for k in range(d, n_max + 1):
                series[k] += series[k - d]
    return series


def _rank(n: int, p: float) -> int:
    # exact, so that 99.9% of 10000 is rank 9990 and not 9991
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples past the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if beyond(n, p) >= TAIL_SAMPLES:
            best = p
    if best is None:
        raise ValueError("%d samples leave no tail percentile" % n)
    return best


def check_verify(code: int, report: dict, registry: Sequence[str]) -> List[str]:
    """`qdg verify --all --json`: exit 0, one passing entry per registered
    check, and every negative control caught its perturbation."""
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    names = [c["name"] for c in report.get("checks", [])]
    if sorted(names) != sorted(registry):
        problems.append("reported checks differ from the registry")
    summary = report.get("summary", {})
    if summary.get("pass") != len(registry) or summary.get("fail") != 0:
        problems.append("summary %r for %d registered checks" % (summary, len(registry)))
    for c in report.get("checks", []):
        if c["status"] != "pass":
            problems.append("%s: %s" % (c["name"], c["status"]))
    if not any(n.startswith("negative.") for n in names):
        problems.append("no negative control ran")
    return problems


def check_dims(code: int, report: dict, n_max: int) -> List[str]:
    """`qdg dims --max n --json`: each dim is the PBW count, rank and dim
    add up to the number of words, and every specialization agrees."""
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    rows = report.get("rows", [])
    if [r["n"] for r in rows] != list(range(n_max + 1)):
        problems.append("degrees %r" % [r["n"] for r in rows])
    pbw = pbw_dims(n_max)
    for r in rows:
        n = r["n"]
        if n <= n_max and r["dim"] != pbw[n]:
            problems.append("n=%d: dim %d, PBW count %d" % (n, r["dim"], pbw[n]))
        if r["rank"] + r["dim"] != 2 ** n or r["words"] != 2 ** n:
            problems.append("n=%d: rank %d + dim %d != 2^n" % (n, r["rank"], r["dim"]))
        if r["specialization_agrees"] is not True:
            problems.append("n=%d: specialization disagrees" % n)
    return problems


def _summands(node):
    """Signed summands of a parsed sum."""
    stack = [(node, 1)]
    out = []
    while stack:
        n, sign = stack.pop()
        if isinstance(n, expr.Add):
            stack += [(n.right, sign), (n.left, sign)]
        elif isinstance(n, expr.Sub):
            stack += [(n.right, -sign), (n.left, sign)]
        elif isinstance(n, expr.Neg):
            stack.append((n.arg, -sign))
        else:
            out.append((n, sign))
    return out


def _coefficient(node) -> dict:
    """A parsed coefficient as a map from (q, a, b) exponents to integers."""
    if isinstance(node, expr.Lit):
        return {(0, 0, 0): node.value}
    if isinstance(node, (expr.Sym, expr.Pow)):
        sym, power = (node, 1) if isinstance(node, expr.Sym) else (node.base, node.exponent)
        if not isinstance(sym, expr.Sym):
            raise ValueError("not a coefficient power: %r" % (node,))
        exps = [0, 0, 0]
        exps[RING.symbols.index(sym.name)] = power
        return {tuple(exps): 1}
    if isinstance(node, expr.Neg):
        return {e: -c for e, c in _coefficient(node.arg).items()}
    if isinstance(node, (expr.Add, expr.Sub)):
        out = dict(_coefficient(node.left))
        sign = 1 if isinstance(node, expr.Add) else -1
        for e, c in _coefficient(node.right).items():
            out[e] = out.get(e, 0) + sign * c
        return out
    if isinstance(node, expr.Mul):
        out = {}
        right = _coefficient(node.right)
        for e1, c1 in _coefficient(node.left).items():
            for e2, c2 in right.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out
    raise ValueError("not a coefficient: %r" % (node,))


def parse_back(text: str) -> BoxElem:
    """Parse a rendering with `expr.parse`, and read the tree as a sum of
    `coefficient * [monomial]` summands without `expr.evaluate`.

    The zero element renders as `0`; a rendering of any other shape is
    rejected.  `expr.evaluate` would take
    time quadratic in the number of terms, and would work the coefficients
    through algebra elements, which dominates the check on large normal forms.
    """
    terms: dict = {}
    tree = expr.parse(text, "box")
    if tree == expr.Lit(0):
        return BoxElem(RING, terms)
    for node, sign in _summands(tree):
        coeff = {(0, 0, 0): 1}
        if isinstance(node, expr.Mul):
            coeff, node = _coefficient(node.left), node.right
        if not isinstance(node, expr.Mono):
            raise ValueError("not a normal-form summand: %r" % (node,))
        acc = terms.setdefault(NormalMono(node.even, node.odd, node.central), {})
        for e, c in coeff.items():
            acc[e] = acc.get(e, 0) + sign * c
    return BoxElem(RING, {m: LaurentPoly(RING, c) for m, c in terms.items()})


def check_nf(text: str, expected: BoxElem) -> List[str]:
    """One `qdg nf` output: the printed text parses back to the oracle-route
    value."""
    try:
        value = parse_back(text)
    except (expr.ParseError, ValueError) as exc:
        return ["output does not parse back: %s" % exc]
    if value != expected:
        return ["output parses back to another element than the oracle route gives"]
    return []
