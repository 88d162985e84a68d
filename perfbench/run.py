"""hodocusp benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload pack-build --seed 1 --seconds 18 --trace 0

Workloads (see BENCHMARK.json for why each exists):

  pack-build   generic order-16 instances through `normalform` (exact) and
               `solve --mode float`, via hodocusp.cli.main in-process
  field-eval   reconstruct / curves / branch_field / system_residual on a
               canonical and a generic order-10 pack built in set-up
  korobeinik   the `korobeinik` command on the shipped Catalan config and
               generated seeds with one to three poles

With --trace 0 the run measures the end-to-end metrics with no tracing
installed. With --trace 1 it traces one set-up and a fixed amount of work,
and reports per-layer metrics, the tracing overhead and the share of
profiled time spent in exact rational arithmetic.

stdout ends with two JSON lines: a detail record (every metric of the
workload by name and unit, with median, tail percentile and sample count,
the failures by kind, and provenance), then the result line
{"correct", "attempted", "failed", "metrics"}. Exit code 2 when the
checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import statistics
import sys
import time

import harness
import tracing
import workloads

SETUP_REPEATS = 3


def _units(section):
    """(name, unit) pairs of one metric list in BENCHMARK.json."""
    spec = harness.ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise harness.SetupError(f"missing {spec}")
    return [(m["name"], m["unit"]) for m in json.loads(spec.read_text())[section]]


def _result(tally, values, units):
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def _detail(wl, seed, tally, extra):
    failed_share = tally.failed / tally.attempted if tally.attempted else None
    named = {
        name: {"unit": unit, **summary} for name, (unit, summary) in wl.metrics(tally).items()
    }
    return {
        "detail": True,
        "provenance": harness.provenance(wl.name, seed),
        "metrics": named,
        "failed_share": failed_share,
        "failures": dict(tally.failures),
        "executions": tally.executions,
        "unexpected_failures": tally.unexpected,
        "failure_notes": tally.notes,
        **extra,
    }


def untraced(wl, seed, seconds):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t_import = harness.subprocess_import_s()
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_s.append(t_import + time.perf_counter() - t0)

    tally = workloads.Tally()
    deadline = time.perf_counter() + seconds
    while True:
        tally.requests.append(wl.request(state, tally))
        if time.perf_counter() >= deadline:
            break
    wl.finish(state, tally)

    m = {
        "request_s": statistics.median(tally.requests),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    extra = {
        "request_s": {"unit": "s", **harness.summarize(tally.requests)},
        "setup_s": {"unit": "s", **harness.summarize(setup_s), "samples": setup_s},
        "peak_rss_mb": m["peak_rss_mb"],
    }
    return tally, m, extra


def _fraction_share(fn):
    """Share of profiled self time in fractions.py and hodocusp/scalars.py."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    total = exact = 0.0
    for (path, _, _), (_, _, tottime, _, _) in pstats.Stats(prof).stats.items():
        total += tottime
        if path.endswith("fractions.py") or path.endswith(os.path.join("hodocusp", "scalars.py")):
            exact += tottime
    return exact / total if total else 0.0, total


def traced(wl, seed, import_s):
    tr = tracing.Tracer()
    tr.begin_op()
    with tr:
        state = wl.setup(seed)

    # tracing overhead: the same calibration slice untraced and traced, each
    # the faster of two alternating passes so that warm-up favours neither
    plain, with_trace = [], []
    for _ in range(2):
        plain.append(wl.calibrate(state))
        with tracing.Tracer():
            with_trace.append(wl.calibrate(state))
    plain_s, traced_s = min(plain), min(with_trace)
    share, profiled_s = _fraction_share(lambda: wl.calibrate(state))

    tally = workloads.Tally(quiet=tr.pause)
    with tr:
        for _ in range(wl.traced_requests):
            tr.begin_op()
            tally.requests.append(wl.request(state, tally))
        tr.begin_op()
        wl.finish(state, tally)
    path = harness.OUT / "trace" / f"{wl.name}-{seed}.jsonl"
    tr.dump(path)

    m = _layers(tr, import_s)
    m["trace_overhead"] = traced_s / plain_s
    m["scalars.fraction_share"] = share
    m["failed_share"] = tally.failed / tally.attempted
    extra = {
        "trace_file": str(path.relative_to(harness.ROOT)),
        "spans": len(tr.spans),
        "trace_overhead_base": {"slice": wl.calibration, "untraced_s": plain_s, "traced_s": traced_s},
        "fraction_share_base": {"slice": wl.calibration, "profiled_s": profiled_s},
    }
    return tally, m, extra


def _layers(tr, import_s):
    L = tr.layer_totals()

    def s(name):
        return L[name]["s"] if name in L else 0.0

    def calls(name):
        return L[name]["calls"] if name in L else 0

    def info(name):
        return L[name]["info"] if name in L else []

    sizes = info("normal_form.build")
    taus = sum(info("cusp.curves"))
    branches = info("cusp.reconstruct")
    return {
        "scalars.radical_ops": tr.scalar_n["scalars.radical"],
        "scalars.radical_s": tr.scalar_s["scalars.radical"],
        "scalars.max_coeff_bits": max((b for _, b in sizes), default=0),
        "scalars.qcomplex_ops": tr.scalar_n["scalars.qcomplex"],
        "scalars.qcomplex_s": tr.scalar_s["scalars.qcomplex"],
        "series.mul_calls": calls("series.mul"),
        "series.mul_s": s("series.mul"),
        "series.compose_calls": calls("series.compose"),
        "series.compose_s": s("series.compose"),
        "series.implicit_solve.h_s": s("series.implicit_solve.h"),
        "series.implicit_solve.W_s": s("series.implicit_solve.W"),
        "series.implicit_solve.passes": tr.passes_per_solve(),
        "series.cube_root_normalize_s": s("series.cube_root_normalize"),
        "series.evaluate_calls": calls("series.evaluate"),
        "series.evaluate_s": s("series.evaluate"),
        "series.validity_radius_calls": calls("series.validity_radius"),
        "series.validity_radius_s": s("series.validity_radius"),
        "series.max_terms": max((t for t, _ in sizes), default=0),
        "pde.expand_s": s("pde.expand"),
        "pde.seed_series_s": s("pde.seed_series"),
        "pde.bridge_s": s("pde.bridge"),
        "hodograph.map_s": s("hodograph.map"),
        "normal_form.build_s": s("normal_form.build"),
        "normal_form.self_s": L["normal_form.build"]["series_self_s"] if "normal_form.build" in L else 0.0,
        "normal_form.save_pack_s": s("normal_form.save_pack"),
        "cusp.reconstruct_calls": calls("cusp.reconstruct"),
        "cusp.reconstruct_self_us": L["cusp.reconstruct"]["self_s"] / calls("cusp.reconstruct") * 1e6
        if "cusp.reconstruct" in L else 0.0,
        "cusp.roots_calls": calls("cusp.roots"),
        "cusp.branches_per_probe": sum(branches) / len(branches) if branches else 0.0,
        "cusp.curves_self_us": L["cusp.curves"]["self_s"] / taus * 1e6 if taus else 0.0,
        "verify.nodes": sum(info("verify.branch_field")),
        "verify.branch_field_s": s("verify.branch_field"),
        "verify.system_residual_s": s("verify.system_residual"),
        "korobeinik.radius_probe_s": s("korobeinik.radius_probe"),
        "korobeinik.bidisc_s": s("korobeinik.bidisc"),
        "korobeinik.witness_terms": sum(info("korobeinik.bidisc")),
        "korobeinik.cauchy_s": s("korobeinik.cauchy"),
        "korobeinik.alpha_probe_s": s("korobeinik.alpha_probe"),
        "cli.import_s": import_s,
        "cli.load_config_s": s("cli.load_config"),
        "cli.write_s": s("cli.write"),
        "cli.bytes_written": sum(info("cli.write")) + sum(info("normal_form.save_pack")),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="hodocusp benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    harness.pin_threads()
    harness.pin_cpu()
    try:
        units = _units("per_layer" if ns.trace else "end_to_end")
        import_s = harness.import_package()
        if ns.workload not in workloads.WORKLOADS:
            raise harness.SetupError(
                f"unknown workload {ns.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
            )
        wl = workloads.WORKLOADS[ns.workload]
        if ns.trace:
            tally, m, extra = traced(wl, ns.seed, import_s)
        else:
            tally, m, extra = untraced(wl, ns.seed, ns.seconds)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_detail(wl, ns.seed, tally, extra)))
    print(json.dumps(_result(tally, m, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
