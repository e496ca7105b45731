"""One workload of the benchmark, run in this (fresh) process.

    python3 perfbench/workloads.py --workload {verify,dims,nf} --seed N
        [--seconds S] [--trace 0|1] [--setup-only]

Run from the repository root.  The process sets up (imports `qdg` from
`src/` and builds its inputs), runs whole rounds of the workload until
`--seconds` have passed, then checks every output outside the timed phase.
On `verify` and `dims`, a probe runs `qdg nf` on the seeded stream in the
gaps after rounds; it gives those workloads the `nf` latency pair.  With
`--trace 1` the process runs one round with the layer wrappers of
`tracer.py` installed instead.  Every time reported is scaled to reference
seconds by the speed meter of `speed.py`, which samples the machine all
through.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIMS_MAX = 11
NF_COUNT = 4800
# the probe makes PROBE_PASSES passes over PROBE_COUNT expressions: its p99
# was as unsteady over 4800 distinct expressions as over 2400, and checking
# them took half of a run, while a second pass only has to print the same
PROBE_COUNT = 2400
PROBE_PASSES = 2
PROBE_CHUNKS = 4
SETUP_SLICES = 5
# a latency is scaled by the slices up to this many before and after it
LOCAL_SLICES = 10
# group of each verify check, by name prefix, for the traced run
IDENTITY_GROUPS = ("tables", "s_commutation", "qdg_error_terms", "general_qdg", "presentation_maps", "engine")
CHECK_SPANS = (
    "gradings.spread.n6",
    "gradings.spread.n7",
    "gradings.spread.n8",
    "engine.confluence",
    "engine.oracle_equivalence",
    "engine.associativity",
    "engine.scale_inverse",
)
RANK_DEGREES = (10, 11)


def setup(workload: str, seed: int):
    """Import the program and build the workload's inputs, the `nf` stream
    on `nf` and none on the others; returns (inputs, scaled seconds).

    The machine's speed is sampled with SETUP_SLICES slices just before
    set-up and as many just after it, past one slice of warm-up."""
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    import speed

    speed.slice_s()
    slices = [speed.slice_s() for _ in range(SETUP_SLICES)]
    start = time.perf_counter()
    import qdg.cli  # noqa: F401  (the import is part of set-up)

    if not os.path.abspath(qdg.cli.__file__).startswith(os.path.join(os.getcwd(), "src")):
        raise ImportError("qdg was not imported from ./src")
    inputs = None
    if workload == "nf":
        import nfstream

        inputs = nfstream.stream(seed, NF_COUNT)
    took = time.perf_counter() - start
    slices += [speed.slice_s() for _ in range(SETUP_SLICES)]
    return inputs, took * speed.REF_SLICE_S * len(slices) / sum(slices)


def _cli(argv):
    from qdg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _nf_pass(stream, latencies, meter=None):
    """`qdg nf` on every expression, as the command does it minus argparse;
    returns the printed texts, None where the command would fail.  With a
    meter, a speed slice runs between expressions when one is due, and each
    latency is recorded with the number of slices before it."""
    from qdg import expr
    from qdg.boxtilde import ReductionBudgetError, TermBudgetError
    from qdg.qcoeff import NotInvertibleError

    clock = time.perf_counter
    outputs = []
    for text, _ in stream:
        if meter is not None:
            meter.tick()
        start = clock()
        try:
            printed = expr.render(expr.eval_text(text, mode="box"))
        except (expr.ParseError, NotInvertibleError, ReductionBudgetError, TermBudgetError):
            printed = None
        latencies.append((clock() - start, meter.mark() if meter is not None else 0))
        outputs.append(printed)
    return outputs


def timed_rounds(workload: str, seed: int, inputs, seconds: float):
    """Whole rounds until their summed wall time reaches `seconds`, and at
    least one.  On `verify` and `dims` the `nf` probe makes PROBE_PASSES
    passes over the seeded stream, in PROBE_CHUNKS chunks a pass, in the
    gaps outside the rounds: one chunk after each round that another
    follows, the rest after the last, so that its samples span the run.  The probe's stream is built only after
    the peak resident memory has been read at the end of the first round,
    so that memory is the workload's own.

    A speed meter (`speed.py`) samples the machine all through: on a timer
    during a `verify` or `dims` round, between expressions in `nf`.

    Returns the per-round (wall, cpu, scale) with the slices' own time left
    out, the round outputs, the meter, the `nf` latencies with their slice
    marks, the probe's stream and outputs, and the peak resident memory in
    MB at the end of the first round."""
    import nfstream
    import speed

    meter = speed.Meter()
    latencies = []
    if workload == "verify":
        def one_round():
            return _cli(["verify", "--all", "--json", "--seed", str(seed)])
    elif workload == "dims":
        def one_round():
            return _cli(["dims", "--max", str(DIMS_MAX), "--json", "--seed", str(seed)])
    else:
        def one_round():
            return _nf_pass(inputs, latencies, meter)
    probe_stream = []
    chunks = []
    probe_outputs = []

    def probe():
        if chunks:
            probe_outputs.extend(_nf_pass(chunks.pop(0), latencies, meter))

    times = []
    outputs = []
    while True:
        mark, spent = meter.mark(), meter.spent
        with meter.timer() if workload != "nf" else contextlib.nullcontext():
            wall, cpu = time.perf_counter(), time.process_time()
            outputs.append(one_round())
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        spent = meter.spent - spent
        times.append((wall - spent, cpu - spent, meter.scale(mark)))
        if len(times) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if workload != "nf":
                probe_stream = nfstream.stream(seed, PROBE_COUNT)
                size = len(probe_stream) // PROBE_CHUNKS
                chunks = [probe_stream[i:i + size] for i in range(0, len(probe_stream), size)] * PROBE_PASSES
        if sum(w for w, _, _ in times) >= seconds:
            break
        probe()
    while chunks:
        probe()
    return times, outputs, meter, latencies, (probe_stream, probe_outputs), peak_rss_mb


def check_command(workload: str, seed: int, outputs):
    """Checks `verify` or `dims` rounds; returns (attempted, failed, problems)."""
    import checks

    attempted = failed = 0
    problems = []
    registry = None
    for code, text in outputs:
        report = json.loads(text)
        if workload == "verify":
            if registry is None:
                from qdg import cli

                registry = list(cli.build_checks(seed))
            attempted += len(report["checks"])
            failed += report["summary"]["fail"]
            problems += checks.check_verify(code, report, registry)
        else:
            attempted += len(report["rows"])
            failed += sum(1 for r in report["rows"] if not r["specialization_agrees"])
            problems += checks.check_dims(code, report, DIMS_MAX)
    return attempted, failed, problems


def check_nf(stream, passes):
    """Checks `nf` passes over the stream; returns (attempted, failed, problems).
    The first pass is checked against the oracle route; later passes must
    print the same texts."""
    import checks
    import nfstream

    first = passes[0]
    memo: dict = {}
    problems = []
    for (text, structure), printed in zip(stream, first):
        if printed is not None:
            expected = nfstream.expected_value(structure, memo)
            problems += ["%s: %s" % (text, p) for p in checks.check_nf(printed, expected)]
    attempted = failed = 0
    for outputs in passes:
        attempted += len(outputs)
        failed += outputs.count(None)
        if outputs != first:
            problems.append("a later pass printed other texts than the first")
    return attempted, failed, problems


def traced_round(workload: str, seed: int, inputs):
    """One round with every layer wrapper installed, and the speed meter on
    its timer.  Returns the tracer, the per-check spans, the outputs in
    the untraced shape, the wall time with the slices' own time left out,
    and the meter's scale."""
    import speed
    import tracer
    from qdg import boxtilde, cli, expr, freealg, gradings, qcoeff

    t = tracer.Tracer()

    def multiply_sizes(args, result):
        t.counts["boxtilde.multiply_term_pairs"] += len(args[0].terms) * len(args[1].terms)
        t.counts["boxtilde.result_terms"] += len(result.terms)

    def span_rows(args, result):
        t.counts["freealg.span_rows"] += len(result)

    def degree(args):
        return "n%d" % args[1]

    poly = qcoeff.LaurentPoly
    t.count(poly.__init__, "qcoeff.polys_made")
    t.time(poly.__add__, "qcoeff.add")
    t.time(poly.__mul__, "qcoeff.mul")
    for method in (poly.__sub__, poly.__rsub__, poly.__neg__, poly.__pow__):
        t.time(method, "qcoeff.other")
    t.time(boxtilde.reduce_word, "boxtilde.reduce_word")
    t.time(boxtilde.multiply, "boxtilde.multiply", after=multiply_sizes)
    t.time(boxtilde.module_action_oracle, "boxtilde.oracle")
    t.time(boxtilde.rho, "boxtilde.rho")
    t.time(gradings.sharp_lift, "gradings.sharp_lift")
    t.time(freealg.relation_span, "freealg.relation_span", after=span_rows)
    t.time(freealg.rank_over_fraction_field, "freealg.rank_exact", split=degree)
    t.time(freealg.rank_by_specialization, "freealg.rank_spec", split=degree)
    t.time(expr.parse, "expr.parse")
    t.time(expr.evaluate, "expr.evaluate")
    t.time(expr.render, "expr.render")

    spans = []
    meter = speed.Meter()
    try:
        with meter.timer():
            start = time.perf_counter()
            if workload == "verify":
                registry = cli.build_checks(seed)
                spans.append(("cli.build_checks", 0.0, time.perf_counter() - start))
                rows = []
                for name in sorted(registry):
                    begin = time.perf_counter() - start
                    status = registry[name]().status
                    spans.append((name, begin, time.perf_counter() - start))
                    rows.append({"name": name, "status": status})
                fail = sum(1 for r in rows if r["status"] != "pass")
                report = {"checks": rows, "summary": {"pass": len(rows) - fail, "fail": fail}}
                outputs = [(1 if fail else 0, json.dumps(report))]
            elif workload == "dims":
                outputs = [_cli(["dims", "--max", str(DIMS_MAX), "--json", "--seed", str(seed)])]
            else:
                outputs = [_nf_pass(inputs, [])]
            run_s = time.perf_counter() - start
    finally:
        t.remove()
    return t, spans, outputs, run_s - meter.spent, meter.scale()


def is_time(name: str) -> bool:
    return name.endswith("_s") or "_s." in name


def layer_metrics(t, spans, run_s: float, scale: float) -> dict:
    """The per-layer metrics of a traced round; idle layers read 0.  Times
    are multiplied by the meter's scale."""
    stats = t.stats
    span_s = {name: end - begin for name, begin, end in spans}

    def group(prefix):
        return sum((s for name, s in span_s.items() if name.split(".")[0] == prefix), 0.0)

    def gradings_check(name):
        return name.startswith("gradings.") or name.startswith("negative.gradings.")

    values = {
        "qcoeff.mul_calls": stats["qcoeff.mul"].calls,
        "qcoeff.add_calls": stats["qcoeff.add"].calls,
        "qcoeff.polys_made": t.counts["qcoeff.polys_made"],
        "qcoeff.self_s": sum(stats[k].self_time for k in ("qcoeff.add", "qcoeff.mul", "qcoeff.other")),
        "boxtilde.reduce_word_calls": stats["boxtilde.reduce_word"].calls,
        "boxtilde.reduce_word_self_s": stats["boxtilde.reduce_word"].self_time,
        "boxtilde.multiply_calls": stats["boxtilde.multiply"].calls,
        "boxtilde.multiply_self_s": stats["boxtilde.multiply"].self_time,
        "boxtilde.multiply_term_pairs": t.counts["boxtilde.multiply_term_pairs"],
        "boxtilde.result_terms": t.counts["boxtilde.result_terms"],
        "boxtilde.oracle_s": stats["boxtilde.oracle"].total,
        "boxtilde.rho_s": stats["boxtilde.rho"].total,
        "gradings.sharp_lift_calls": stats["gradings.sharp_lift"].calls,
        "gradings.sharp_lift_s": stats["gradings.sharp_lift"].total,
        "gradings.other_s": sum(
            (s for name, s in span_s.items() if gradings_check(name) and name not in CHECK_SPANS),
            0.0,
        ),
        "identities.negative_s": sum(
            (s for name, s in span_s.items() if name.startswith("negative.") and not gradings_check(name)),
            0.0,
        ),
        "cli.build_checks_s": span_s.get("cli.build_checks", 0.0),
        "freealg.relation_span_s": stats["freealg.relation_span"].total,
        "freealg.span_rows": t.counts["freealg.span_rows"],
        "expr.parse_s": stats["expr.parse"].total,
        "expr.evaluate_self_s": stats["expr.evaluate"].self_time,
        "expr.render_s": stats["expr.render"].total,
        "trace.run_s": run_s,
    }
    for prefix in IDENTITY_GROUPS:
        values["identities.%s_s" % prefix] = group(prefix)
    for name in CHECK_SPANS:
        values["check.%s_s" % name] = span_s.get(name, 0.0)
    for key in ("freealg.rank_exact", "freealg.rank_spec"):
        values[key + "_s"] = stats[key].total
        for n in RANK_DEGREES:
            values["%s_s.n%d" % (key, n)] = stats["%s.n%d" % (key, n)].total
    return {name: value * scale if is_time(name) else value for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("verify", "dims", "nf"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs, setup_s = setup(args.workload, args.seed)
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    import checks

    if args.trace:
        t, spans, outputs, run_s, scale = traced_round(args.workload, args.seed, inputs)
        result["layers"] = layer_metrics(t, spans, run_s, scale)
        result["trace"] = {
            "scale": scale,
            "stats": {k: [s.calls, s.total, s.self_time] for k, s in sorted(t.stats.items())},
            "counts": dict(sorted(t.counts.items())),
            "spans": spans,
        }
        nf_passes = outputs if args.workload == "nf" else []
    else:
        times, outputs, meter, latencies, (probe_stream, probe_outputs), peak_rss_mb = timed_rounds(
            args.workload, args.seed, inputs, args.seconds
        )
        result["rounds"] = times
        result["peak_rss_mb"] = peak_rss_mb
        if args.workload != "nf":
            inputs = probe_stream
        if args.workload == "nf":
            nf_passes = outputs
        else:
            n = len(probe_stream)
            nf_passes = [probe_outputs[i:i + n] for i in range(0, len(probe_outputs), n)]
        result["latency_samples"] = len(latencies)
        if checks.tail_percentile(len(latencies)) < 99.0:
            raise RuntimeError("too few samples for a p99")
        scaled = sorted(s * meter.scale(max(0, m - LOCAL_SLICES), m + LOCAL_SLICES) for s, m in latencies)
        raw = sorted(s for s, _ in latencies)
        for p in (50, 99):
            result["nf_p%d_ms" % p] = checks.percentile(scaled, p) * 1e3
            result["unscaled_nf_p%d_ms" % p] = checks.percentile(raw, p) * 1e3
        result["slices"] = len(meter.slices)
    attempted = failed = 0
    problems = []
    if args.workload != "nf":
        attempted, failed, problems = check_command(args.workload, args.seed, outputs)
    if nf_passes:
        more = check_nf(inputs, nf_passes)
        attempted += more[0]
        failed += more[1]
        problems += more[2]
    result.update(attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
