"""The three workloads: pack-build, field-eval and korobeinik.

Each workload is a closed loop with one client. `setup(seed)` makes the
inputs (and, for field-eval, the packs) and may be called several times;
`request(state, tally)` performs one request, times only the calls into the
program, and checks their outputs afterwards. A failed operation is a
nonzero CLI exit, a raised HodocuspError, or a failed output check. Each
failure is recorded with a kind; the kinds in KNOWN_FAILURES are defects of
the program at the commit the baseline was recorded at, kept in the inputs
on purpose so that their repair shows.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import shutil
import time
from collections import Counter, defaultdict

import harness
import inputs

PREIMAGE_TOL = 1e-9
ROWS_TOL = 1e-9

KNOWN_FAILURES = {
    # float construction: xi(0, 0) ~ 1e-16 after x - x* - v* tau (UsageError)
    # or a failed cube normalization (DegeneracyError); CLI exit 2
    "float-construction",
    # probes with small |lambda1| (all generic-pack probes, which the gate
    # keeps at |lambda1| <= 1e-6): cusp_roots floors its discriminant scale
    # at 1 and reports a spurious double root instead of the simple root
    "spurious-double-root",
}


# a repeat of an operation did not reproduce its first outcome
IRREPRODUCIBLE = "irreproducible"


class Tally:
    """Per-run outcomes and per-kind timing samples (seconds).

    An operation is one input through one call: a probe on a pack, a config
    through the CLI, a sheet through system_residual. The timed loop repeats
    operations until the run's time is up. `attempted` and `failed` count
    each distinct operation once, so they depend on the seed alone and not
    on how many repeats fit into the run. Every repeat is checked too, and
    must reproduce the operation's first outcome; one that does not turns
    the operation into an IRREPRODUCIBLE failure.
    """

    def __init__(self, quiet=contextlib.nullcontext):
        self.samples = defaultdict(list)
        self.requests = []
        self.outcomes = {}  # operation key -> None (passed) or failure kind
        self.executions = 0
        self.notes = []
        # checks call into the program too; a traced run keeps them out of
        # the spans by passing the tracer's pause here
        self.quiet = quiet

    def op(self, key, ok, kind=None, note=None):
        self.executions += 1
        outcome = None if ok else kind
        if key not in self.outcomes:
            self.outcomes[key] = outcome
            if outcome:
                self._note(outcome, note)
        elif self.outcomes[key] not in (outcome, IRREPRODUCIBLE):
            first = self.outcomes[key] or "passed"
            self._note(IRREPRODUCIBLE, f"{key}: {first}, then {outcome or 'passed'}")
            self.outcomes[key] = IRREPRODUCIBLE

    def _note(self, kind, note):
        if note and len(self.notes) < 20:
            self.notes.append(f"{kind}: {note}")

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failures(self):
        return Counter(kind for kind in self.outcomes.values() if kind)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def unexpected(self):
        return sum(n for k, n in self.failures.items() if k not in KNOWN_FAILURES)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # HodocuspError and anything unexpected
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, result


def _hodocusp_error(exc):
    from hodocusp.errors import HodocuspError

    return isinstance(exc, HodocuspError)


# -- pack-build ---------------------------------------------------------------------


def exact_normalform(index, cfg):
    """`normalform` in exact mode; returns (seconds, exit code, pack, out dir)."""
    from hodocusp import cli

    out = harness.OUT / "pack" / f"exact_{index}"
    shutil.rmtree(out, ignore_errors=True)
    with harness.capture(cli, "build_normal_form") as seen:
        dt, res = _timed(harness.run_cli, ["normalform", "--config", str(cfg), "--out", str(out)])
    code = res[0] if isinstance(res, tuple) else None
    pack = seen[-1] if seen and not isinstance(seen[-1], BaseException) else None
    return dt, code, pack, out


def float_solve(index, cfg):
    """`solve --mode float`; returns (seconds, exit code, rows, error class)."""
    from hodocusp import cli

    out = harness.OUT / "pack" / f"float_{index}"
    shutil.rmtree(out, ignore_errors=True)
    with harness.capture(cli, "build_normal_form") as seen:
        dt, res = _timed(
            harness.run_cli,
            ["solve", "--config", str(cfg), "--mode", "float", "--out", str(out)],
        )
    code = res[0] if isinstance(res, tuple) else None
    error = type(seen[-1]).__name__ if seen and isinstance(seen[-1], BaseException) else None
    rows = None
    if code == 0:
        rows = [
            line
            for line in (out / "branches.csv").read_text().splitlines()[2:]
            if line
        ]
    return dt, code, rows, error


def reference_rows(cfg, pack):
    """The `solve` rows of an exact pack at the config's points."""
    import yaml

    from hodocusp.cusp import reconstruct
    from hodocusp.scalars import parse_exact

    rows = []
    for entry in yaml.safe_load(cfg.read_text())["solve"]["points"]:
        t, x = (float(parse_exact(v)) for v in entry)
        for idx, br in enumerate(reconstruct(t, x, pack)):
            rows.append(
                f"{t!r},{x!r},{idx},{br.h!r},{br.v!r},"
                f"{br.multiplicity},{int(br.inside_wedge)}"
            )
    return rows


def rows_agree(got, want, tol=ROWS_TOL):
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        gf, wf = g.split(","), w.split(",")
        if gf[2] != wf[2] or gf[5:] != wf[5:]:
            return False
        if any(abs(float(a) - float(b)) > tol for a, b in zip(gf[:5], wf[:5])):
            return False
    return True


def _pack_baseline():
    if not harness.BASELINE.is_file():
        raise harness.SetupError(f"missing recorded outputs {harness.BASELINE}")
    return json.loads(harness.BASELINE.read_text())["pack_build"]


class PackBuild:
    name = "pack-build"
    calibration = "exact normalform at order 10 plus float solve of the first instance"
    traced_requests = 1

    def setup(self, seed):
        """Configs of the fixed set. Requests take instance 0 first; the
        seed shuffles the order in which the rest are solved in float mode.

        One exact order-16 build (~45 s) is all a run can afford, and its
        cost differs by +-20% between instances, so letting the seed pick
        the instance would spread the runs wider than the gate's bound.
        For the same reason a repeated request builds instance 0 again.
        """
        base = _pack_baseline()
        cfgs = [
            harness.write_config(f"generic_{i}.yaml", inputs.generic_config(i))
            for i in range(inputs.POOL_SIZE)
        ]
        rest = list(range(1, inputs.POOL_SIZE))
        random.Random(f"pack-build:{seed}").shuffle(rest)
        return {"cfgs": cfgs, "order": [0] + rest, "base": base}

    def request(self, state, tally):
        """Instance 0 through exact `normalform` and float `solve`."""
        i = state["order"][0]
        dt_exact, code, pack, out = exact_normalform(i, state["cfgs"][i])
        tally.samples["pack_exact"].append(dt_exact)
        dt_float = self._float(i, state, tally)
        self._check_exact(i, code, pack, out, state["base"][str(i)], tally)
        return dt_exact + dt_float

    def finish(self, state, tally):
        """Float `solve` on every other instance of the fixed set."""
        for i in state["order"][1:]:
            self._float(i, state, tally)

    def calibrate(self, state):
        i = state["order"][0]
        cfg = harness.write_config(f"generic_{i}_order10.yaml", inputs.generic_config(i, order=10))
        return exact_normalform(i, cfg)[0] + float_solve(i, state["cfgs"][i])[0]

    def _float(self, i, state, tally):
        dt, code, rows, error = float_solve(i, state["cfgs"][i])
        rec = state["base"][str(i)]
        if code == 0:
            tally.samples["pack_float"].append(dt)
            want = rec["float_rows"] or rec["exact_rows"]
            ok = rows_agree(rows, want)
            tally.op(("float", i), ok, "float-rows", f"instance {i}: {rows} vs {want}")
        elif code == 2 and rec["float_exit"] == 2:
            tally.op(("float", i), False, "float-construction", f"instance {i}: {error}")
        else:
            tally.op(("float", i), False, "float-exit", f"instance {i}: exit {code} ({error})")
        return dt

    def _check_exact(self, i, code, pack, out, rec, tally):
        from hodocusp.normal_form import verify_miniversal

        if code != 0 or pack is None:
            tally.op(("exact", i), False, "exact-exit", f"instance {i}: exit {code}")
            return
        digest = harness.dir_digest(out)
        with tally.quiet():
            miniversal_zero = verify_miniversal(pack).is_zero()
        if digest != rec["digest"]:
            tally.op(("exact", i), False, "exact-digest", f"instance {i}: {digest}")
        elif not miniversal_zero:
            tally.op(("exact", i), False, "exact-miniversal", f"instance {i}")
        else:
            tally.op(("exact", i), True)

    def metrics(self, tally):
        return {
            "pack_exact_s": ("s", harness.summarize(tally.samples["pack_exact"])),
            "pack_float_s": ("s", harness.summarize(tally.samples["pack_float"])),
        }


# -- field-eval ----------------------------------------------------------------------

PROBES_PER_ROUND = 100
TAUS_PER_ROUND = 12
# A request is many rounds (~2 s) so that each request time averages over
# the seconds-long swings in CPU speed seen on shared hosts; the median of
# short rounds would jump between the fast and the slow mode.
ROUNDS_PER_REQUEST = 40


def _pack_from(problem, order):
    from hodocusp import build_normal_form, expand_potential, hodograph_map

    m = hodograph_map(expand_potential(problem, order))
    return m, build_normal_form(m)


def _gate_scale(pack):
    """Smallest finite validity radius over the series reconstruct uses."""
    radii = [
        s.validity_radius()
        for s in (pack.lambda1, pack.lambda2, pack.w_of_tau_u, pack.v_of_w, pack.h_of_tau_v)
    ]
    return min((r for r in radii if math.isfinite(r)), default=math.inf)


def _probes(rng, m, pack, count):
    """Hodograph-side probes pushed forward: [((t, x), (h, V))].

    On a pack whose series all terminate the probes fill |t - t*| <~ 1e-3,
    like acceptance criterion 6. Otherwise V stays within a quarter of the
    smallest validity radius and h within its square, so every branch of
    the cubic (|U| ~ sqrt|lambda1| ~ |V|) passes the gate.
    """
    scale = _gate_scale(pack)
    v_max = 0.05 if math.isinf(scale) else 0.25 * scale
    h_max = (5e-4 if math.isinf(scale) else v_max * v_max) / max(1.0, abs(float(pack.b11)))
    t_s, x_s = m.t.to_float(), m.x.to_float()
    return [
        ((t_s.evaluate(h, v, check=False), x_s.evaluate(h, v, check=False)), (h, v))
        for h, v in inputs.hodograph_probes(rng, count, v_max, h_max)
    ]


def _sheet_grid(rng, side):
    """A criterion-7 sized grid (101 x 101 nodes) on one side of the cusp."""
    from hodocusp.verify import GridSpec

    return GridSpec((side * (0.5 + 0.05 * rng.uniform(-1.0, 1.0)), 0.0), 1e-3, 2e-5)


def _double_root(pack, t, x):
    """Whether cusp_roots reports a repeated root at the physical point."""
    from hodocusp.cusp import cusp_roots
    from hodocusp.scalars import scalar_float

    p = pack.problem
    tau = t - scalar_float(p.t_star)
    xi = x - scalar_float(p.x_star) - scalar_float(p.v_star) * tau
    lam1 = pack.lambda1.evaluate(tau, check=False)
    lam2 = pack.lambda2.evaluate(tau, check=False)
    return any(m > 1 for _, m in cusp_roots(lam1, lam2 - xi))


class FieldEval:
    name = "field-eval"
    calibration = "one field-eval request"
    traced_requests = 2

    def setup(self, seed):
        from hodocusp import ProblemData, canonical_problem

        rng = random.Random(f"field-eval:{seed}")
        cm, canon = _pack_from(canonical_problem(), inputs.FIELD_ORDER)
        # the generic pack is fixed (instance 0 of the pack-build set): its
        # evaluation cost differs by ~20% between instances, which would
        # swamp the seed-to-seed comparison; the seed moves the probes
        g = inputs.pool_problem(0)
        gm, generic = _pack_from(
            ProblemData(b0=g["b0"], alpha=g["alpha"], v_star=g["v_star"], b0_polynomial=True),
            inputs.FIELD_ORDER,
        )
        side = canon.multivalued_halfplane()
        state = {
            "canon": canon,
            "generic": generic,
            "probes": _probes(rng, cm, canon, PROBES_PER_ROUND),
            "generic_probes": _probes(rng, gm, generic, PROBES_PER_ROUND),
            "taus": [side * t for t in inputs.tau_list(rng, TAUS_PER_ROUND)],
            "sheets": [(_sheet_grid(rng, -side), None), (_sheet_grid(rng, side), 0)],
        }
        # warm the per-series float caches outside the timed region
        from hodocusp.cusp import reconstruct

        for key, probes in (("canon", state["probes"]), ("generic", state["generic_probes"])):
            (t, x), _ = probes[0]
            _timed(reconstruct, t, x, state[key])
        return state

    def request(self, state, tally):
        return sum(self._round(state, tally) for _ in range(ROUNDS_PER_REQUEST))

    def _round(self, state, tally):
        """Every probe, the tau list, and both sheets, once."""
        from hodocusp.cusp import fold_curves, reconstruct, zero_curves
        from hodocusp.verify import branch_field, system_residual

        import numpy as np

        total = 0.0
        for key, pkey, kind in (
            ("canon", "probes", "reconstruct"),
            ("generic", "generic_probes", "reconstruct_generic"),
        ):
            pack = state[key]
            for n, ((t, x), pre) in enumerate(state[pkey]):
                dt, res = _timed(reconstruct, t, x, pack)
                total += dt
                tally.samples[kind].append(dt)
                self._check_probe((key, n), res, (t, x), pre, pack, tally)

        taus = state["taus"]
        dt_f, folds = _timed(fold_curves, state["canon"], taus)
        dt_z, zeros = _timed(zero_curves, state["canon"], taus)
        total += dt_f + dt_z
        tally.samples["curves"].append((dt_f + dt_z) / len(taus))
        self._check_curves(folds, zeros, taus, tally)

        for n, (grid, branch) in enumerate(state["sheets"]):
            t_ax, x_ax = grid.axis(0), grid.axis(1)
            T, X = np.meshgrid(t_ax, x_ax, indexing="ij")
            dt, res = _timed(branch_field, state["canon"], T, X, branch)
            total += dt
            tally.samples["field_per_node"].append(dt / T.size)
            ok = not isinstance(res, Exception) and bool(np.isfinite(res[0]).all())
            tally.op(("branch-field", n), ok, "branch-field", repr(res) if not ok else None)

            dt, rep = _timed(system_residual, state["canon"], grid, branch)
            total += dt
            tally.samples["verify"].append(dt)
            ok = not isinstance(rep, Exception) and all(
                1.8 <= o <= 2.2 for o in (rep.order1, rep.order2)
            )
            tally.op(("system-residual", n), ok, "system-residual", repr(rep) if not ok else None)
        return total

    def finish(self, state, tally):
        pass

    def calibrate(self, state):
        return self.request(state, Tally())

    @staticmethod
    def _check_probe(op, res, point, pre, pack, tally):
        key = op[0]
        if isinstance(res, Exception):
            with tally.quiet():
                double = _double_root(pack, *point)
            if not _hodocusp_error(res):
                tally.op(op, False, "probe-crash", repr(res))
            elif double:
                # the spurious pair's far root lands outside the gate
                tally.op(op, False, "spurious-double-root", f"{key} pack: {res}")
            else:
                tally.op(op, False, "probe-error", f"{key} pack: {res}")
            return
        h, v = pre
        err = min((max(abs(b.h - h), abs(b.V - v)) for b in res), default=math.inf)
        if err <= PREIMAGE_TOL:
            tally.op(op, True)
        elif any(b.multiplicity > 1 for b in res):
            tally.op(op, False, "spurious-double-root", f"{key} pack, error {err:.3g}")
        else:
            tally.op(op, False, "probe-preimage", f"{key} pack, error {err:.3g}")

    @staticmethod
    def _check_curves(folds, zeros, taus, tally):
        for res in (folds, zeros):
            if isinstance(res, Exception):
                tally.op("curves", False, "curves-error", repr(res))
                return
        ok = len(folds) == len(zeros) == 2 * len(taus)
        for i in range(len(taus)) if ok else ():
            fp, fm = folds[2 * i].xi, folds[2 * i + 1].xi
            zs = sorted((zeros[2 * i].xi, zeros[2 * i + 1].xi))
            # the fold sits strictly inside the zero-curve bracket
            ok &= zs[0] < fm < fp < zs[1]
        tally.op("curves", ok, "curves-bracket", f"taus {taus}" if not ok else None)

    def metrics(self, tally):
        s = tally.samples
        return {
            "reconstruct_us": ("us", harness.summarize(s["reconstruct"], 1e6)),
            "reconstruct_generic_us": ("us", harness.summarize(s["reconstruct_generic"], 1e6)),
            "curves_us": ("us", harness.summarize(s["curves"], 1e6)),
            "field_ns_per_node": ("ns", harness.summarize(s["field_per_node"], 1e9)),
            "verify_s": ("s", harness.summarize(s["verify"])),
        }


# -- korobeinik ------------------------------------------------------------------------

GENERATED_CONFIGS = 10
CALIBRATION_CONFIGS = 3


def _witness_expected(cfg):
    """R + 2 sqrt(R1) clears the distance from u* to the nearest pole."""
    from hodocusp.pde import SeedFunction
    from hodocusp.scalars import parse_exact, parse_point

    k = cfg["korobeinik"]
    seed = SeedFunction.from_config(k["g1"])
    u = parse_point(k.get("u_star", 0)).to_complex()
    d = min(abs(complex(a.to_complex()) - u) for a in seed.poles())
    R = float(parse_exact(k["bidisc"]["R"]))
    R1 = float(parse_exact(k["bidisc"]["R1"]))
    reach = R + 2.0 * math.sqrt(R1)
    if abs(reach - d) < 1e-9:
        raise harness.SetupError("bidisc reach ties the pole distance")
    return reach > d


class Korobeinik:
    name = "korobeinik"
    calibration = "the first three korobeinik configs"
    traced_requests = 1

    def setup(self, seed):
        import yaml

        shipped = harness.ROOT / "configs" / "catalan.yaml"
        # threads: 1 for the shipped config too
        texts = [shipped.read_text().rstrip("\n") + "\nthreads: 1\n"]
        rng = random.Random(f"korobeinik:{seed}")
        texts += [inputs.korobeinik_config(rng, k) for k in range(GENERATED_CONFIGS)]
        cfgs = []
        for k, text in enumerate(texts):
            path = harness.write_config(f"korobeinik_{k}.yaml", text)
            cfgs.append((path, _witness_expected(yaml.safe_load(text))))
        return {"cfgs": cfgs}

    def request(self, state, tally, configs=None):
        """One round: every config once through the `korobeinik` CLI."""
        total = 0.0
        for k, (cfg, witness) in enumerate(state["cfgs"][:configs]):
            out = harness.OUT / "korobeinik" / f"cfg_{k}"
            dt, res = _timed(
                harness.run_cli, ["korobeinik", "--config", str(cfg), "--out", str(out)]
            )
            total += dt
            tally.samples["korobeinik"].append(dt)
            self._check(res, witness, k, tally)
        return total

    def finish(self, state, tally):
        pass

    def calibrate(self, state):
        return self.request(state, Tally(), configs=CALIBRATION_CONFIGS)

    @staticmethod
    def _check(res, witness, k, tally):
        if isinstance(res, Exception):
            tally.op(("korobeinik", k), False, "korobeinik-crash", f"config {k}: {res!r}")
            return
        code, out, err = res
        if code != 0:
            tally.op(("korobeinik", k), False, "korobeinik-exit", f"config {k}: exit {code} {err.strip()}")
            return
        lines = [line.strip() for line in out.splitlines()]

        def line(prefix):
            return next((text for text in lines if text.startswith(prefix)), "")

        problems = []
        confirmed = line("divergence witness").endswith(", confirmed")
        if confirmed != witness:
            problems.append(f"witness confirmed={confirmed}, expected {witness}")
        if not line("series bridge").endswith("PASS"):
            problems.append("bridge not PASS")
        if not line("cauchy bound").endswith("PASS"):
            problems.append("cauchy not PASS")
        tally.op(("korobeinik", k), not problems, "korobeinik-verdict", f"config {k}: {problems}")

    def metrics(self, tally):
        return {"korobeinik_s": ("s", harness.summarize(tally.samples["korobeinik"]))}


WORKLOADS = {w.name: w for w in (PackBuild(), FieldEval(), Korobeinik())}
