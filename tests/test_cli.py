"""End-to-end CLI runs: every subcommand, exit codes, and deterministic output."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hodocusp import canonical_problem, cli, expand_potential, hodograph_map
from hodocusp.errors import UsageError

REPO = Path(__file__).resolve().parent.parent
CANONICAL = REPO / "configs" / "canonical.yaml"
CATALAN = REPO / "configs" / "catalan.yaml"
DIGESTS = REPO / "tests" / "golden" / "cli" / "digests.py"

PROBLEM = """\
problem:
  b0: [0, 0, 0, 1/12]
  polynomial: true
  alpha: []
  v_star: 0
order: 6
mode: exact
"""


def write_cfg(tmp_path, body, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(body)
    return p


def digest_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def first_line(path):
    return Path(path).read_text().splitlines()[0]


# -- expand ---------------------------------------------------------------------


def test_expand_writes_tables_and_relations(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PROBLEM)
    out = tmp_path / "out"
    assert cli.main(["expand", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("B.txt", "t.txt", "x.txt", "tau.txt", "xi.txt",
                 "jacobian.txt", "relations.txt"):
        assert (out / name).exists()
        assert first_line(out / name) == f"# config sha256: {digest_of(cfg)}"
    relations = (out / "relations.txt").read_text().splitlines()[1:]
    assert relations
    assert all(line.startswith("PASS ") for line in relations)
    assert "relations.txt" in capsys.readouterr().out


def test_expand_requires_exact_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PROBLEM)
    rc = cli.main(["expand", "--config", str(cfg), "--mode", "float",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "use mode exact" in capsys.readouterr().err


# -- normalform -------------------------------------------------------------------


def test_normalform_writes_pack(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PROBLEM)
    out = tmp_path / "pack"
    assert cli.main(["normalform", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == digest_of(cfg)
    assert manifest["order"] == 6
    assert len(manifest["files"]) == 8
    for name in manifest["files"]:
        assert first_line(out / name) == f"# config sha256: {digest_of(cfg)}"
    text = capsys.readouterr().out
    assert "b11 = 1" in text
    assert "sign(tau) = +1" in text


def test_normalform_requires_exact_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PROBLEM + "mode: float\n")
    rc = cli.main(["normalform", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "use mode exact" in capsys.readouterr().err


# -- solve ------------------------------------------------------------------------


def test_solve_at_base_point(tmp_path):
    cfg = write_cfg(tmp_path, PROBLEM + "solve:\n  points:\n    - [0, 0]\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "branches.csv").read_text().splitlines()
    assert lines[1] == "t,x,branch,h,v,mult,inside_wedge"
    assert len(lines) == 3
    t, x, branch, h, v, mult, inside = lines[2].split(",")
    assert float(h) == 0.0
    assert float(v) == 0.0
    assert mult == "3"
    assert inside == "0"


def test_solve_wedge_point_three_rows(tmp_path):
    cfg = write_cfg(
        tmp_path, PROBLEM + "solve:\n  points:\n    - [0.01, 0.0003]\n"
    )
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "branches.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    assert all(row.split(",")[-1] == "1" for row in rows)


def test_solve_at_t_star_off_the_base_point_is_one_branch(tmp_path, capsys):
    # tau == 0 gives lambda1 == 0 exactly: the cubic U**3 + q, one simple root
    cfg = write_cfg(tmp_path, PROBLEM + "solve:\n  points:\n    - [0, 1e-8]\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "branches.csv").read_text().splitlines()[2:]
    assert len(rows) == 1
    t, x, branch, h, v, mult, inside = rows[0].split(",")
    assert (t, x, branch, mult, inside) == ("0.0", "1e-08", "0", "1", "0")


def test_solve_next_to_the_cusp_point_maps_back(tmp_path):
    # lambda1 ~ 1e-12 and q ~ -1e-8 sit inside the absolute fold band; the
    # canonical config used to write a double-root pair there, two branches
    # with h = -5.6e7 and -2.25e8
    cfg = write_cfg(
        tmp_path,
        PROBLEM.replace("order: 6", "order: 10") + "solve:\n  points:\n    - [1e-12, 1e-8]\n",
    )
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "branches.csv").read_text().splitlines()[2:]
    assert len(rows) == 1
    t, x, branch, h, v, mult, inside = rows[0].split(",")
    assert (t, x, branch, mult, inside) == ("1e-12", "1e-08", "0", "1", "0")
    assert abs(float(h) + 2.08e-6) < 1e-8 and abs(float(v) - 0.002884) < 1e-6
    m = hodograph_map(expand_potential(canonical_problem(), order=10))
    # v* = 0, so V = v
    assert abs(m.t.evaluate(float(h), float(v)) - 1e-12) <= 1e-9
    assert abs(m.x.evaluate(float(h), float(v)) - 1e-8) <= 1e-9


def test_solve_float_mode_allowed(tmp_path):
    cfg = write_cfg(tmp_path, PROBLEM + "solve:\n  points:\n    - [0, 0]\n")
    rc = cli.main(["solve", "--config", str(cfg), "--mode", "float",
                   "--out", str(tmp_path / "o")])
    assert rc == 0


# -- curves ------------------------------------------------------------------------


def test_curves_twelve_rows(tmp_path):
    cfg = write_cfg(
        tmp_path, PROBLEM + "curves:\n  tau: [0.01, 0.001, 0.0001]\n"
    )
    out = tmp_path / "out"
    assert cli.main(["curves", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[1] == "tau,xi,kind"
    rows = lines[2:]
    assert len(rows) == 12
    kinds = [r.split(",")[2] for r in rows[:4]]
    assert kinds == ["fold-plus", "fold-minus", "zero-plus", "zero-minus"]


def test_curves_wrong_side_is_domain_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PROBLEM + "curves:\n  tau: [-0.001]\n")
    rc = cli.main(["curves", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "single-valued side" in capsys.readouterr().err


# -- verify ------------------------------------------------------------------------


def test_verify_command(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        PROBLEM
        + "verify:\n"
        + "  grid:\n"
        + "    center: [-0.5, 0]\n"
        + "    half_width: 0.001\n"
        + "    step: 0.0001\n"
        + "  roundtrip:\n"
        + "    count: 20\n"
        + "    radius: 1/1000\n"
        + "    seed: 0\n",
    )
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[1] == cli.RESIDUAL_HEADER
    assert len(lines[2].split(",")) == 10
    text = capsys.readouterr().out
    assert "mass residual" in text
    assert "momentum residual" in text
    assert "roundtrip max error over 20 points" in text


def test_verify_branch_validation(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        PROBLEM
        + "verify:\n"
        + "  grid: {center: [0.5, 0], half_width: 0.001, step: 0.0001}\n"
        + "  branch: 7\n",
    )
    rc = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'verify.branch' must be 0, 1 or 2" in capsys.readouterr().err


def test_verify_branch_refuses_a_float(tmp_path, capsys):
    """1.0 equals branch 1 but is not an integer, like every other integer key."""
    cfg = write_cfg(
        tmp_path,
        PROBLEM
        + "verify:\n"
        + "  grid: {center: [0.5, 0], half_width: 0.001, step: 0.0001}\n"
        + "  branch: 1.0\n",
    )
    rc = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'verify.branch' must be 0, 1 or 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# -- korobeinik ---------------------------------------------------------------------


def test_korobeinik_full_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["korobeinik", "--config", str(CATALAN), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "radius probe u = 0+0j: estimated 0.250267" in text
    assert "NOT analytic" in text
    assert "divergence witness at u = 0.45+0j" in text
    assert "confirmed" in text
    assert "cauchy bound: C(eps) = 10" in text
    assert "series bridge at order 6: " in text and "PASS" in text
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[1] == cli.CONVERGENCE_HEADER
    assert len(lines) == 2 + 3 + 1  # header line, 3 probes, 1 witness


@pytest.mark.parametrize(
    "name", ["korobeinik_catalan", "korobeinik_3pole", "korobeinik_poly", "korobeinik_onpole"]
)
def test_korobeinik_matches_golden(name, tmp_path, monkeypatch, capsys):
    # the pole-only goldens were recorded with the closed-form term
    # magnitudes (one KorobeinikSeries.coefficient per n), the polynomial
    # one with one reduced Fraction per term, and the on-pole one (whose
    # sampler seed draws a point on the pole, drawn again) with the float
    # sample verdicts; stdout names the output path, so the run uses a
    # relative --out from a fixed cwd
    golden = REPO / "tests" / "golden" / name
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["korobeinik", "--config", str(golden / "config.yaml"), "--out", "out"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out.encode() == (golden / "stdout.txt").read_bytes()
    assert (tmp_path / "out" / "convergence.csv").read_bytes() == (
        golden / "convergence.csv"
    ).read_bytes()


CAUCHY = """\
korobeinik:
  g1:
    - pole: {{a: 1, c: 1}}
  cauchy:
    r: {r}
    r0: 1/2
    eps: {eps}
    n_max: 20
"""


def test_korobeinik_cauchy_accepts_rational_strings(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CAUCHY.format(r="9/10", eps='"1/20"'))
    rc = cli.main(["korobeinik", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "cauchy bound: " in capsys.readouterr().out


def test_korobeinik_cauchy_rejects_malformed_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CAUCHY.format(r="9/10", eps="0.1.5"))
    rc = cli.main(["korobeinik", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "eps: cannot parse rational" in capsys.readouterr().err


def test_korobeinik_needs_a_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "korobeinik:\n  g1:\n    - poly: [0, 1]\n")
    rc = cli.main(["korobeinik", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "at least one of" in capsys.readouterr().err


# -- exit codes and config validation -------------------------------------------------


def test_degenerate_b03_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "problem:\n  b0: [0, 0, 0, 0, 1]\n  polynomial: true\norder: 4\n"
        "curves:\n  tau: [0.001]\n",
    )
    rc = cli.main(["curves", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "b03 must be nonzero" in capsys.readouterr().err


def test_degenerate_b02_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "problem:\n  b0: [0, 0, 1, 1/12]\n  polynomial: true\norder: 4\n"
        "solve:\n  points:\n    - [0, 0]\n",
    )
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "b02 must be 0" in capsys.readouterr().err


@pytest.mark.parametrize("order", [2, 17])
def test_order_out_of_range(tmp_path, capsys, order):
    cfg = write_cfg(
        tmp_path,
        f"problem:\n  b0: [0, 0, 0, 1/12]\n  polynomial: true\norder: {order}\n"
        "curves:\n  tau: [0.001]\n",
    )
    rc = cli.main(["curves", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'order' must be in [3, 16]" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["expand", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_malformed_yaml(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem: [unclosed\n  - ")
    rc = cli.main(["expand", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not valid YAML" in capsys.readouterr().err


SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.yaml")) + sorted(
    (REPO / "tests" / "golden").glob("*/config.yaml")
)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.parent.name + "/" + p.name)
def test_config_loaders_agree(path):
    """libyaml, when installed, parses every shipped config as PyYAML does."""
    import yaml

    raw = path.read_bytes()
    want = yaml.safe_load(raw)
    assert cli._load_config(path) == (want, hashlib.sha256(raw).hexdigest())
    if yaml.__with_libyaml__:
        assert yaml.load(raw, Loader=yaml.CSafeLoader) == want


@pytest.mark.parametrize(
    "body", ["problem: [unclosed\n  - ", "a: b: c\n", "a:\n\t- 1\n", "{a: 1", "a: *x\n"]
)
def test_malformed_yaml_message_is_pure_python_text(tmp_path, body):
    """The refusal quotes PyYAML's pure-Python error (line, column and caret
    snippet); libyaml words the same errors differently."""
    import yaml

    cfg = write_cfg(tmp_path, body)
    with pytest.raises(yaml.YAMLError) as want:
        yaml.safe_load(cfg.read_bytes())
    with pytest.raises(UsageError) as got:
        cli._load_config(cfg)
    assert str(got.value) == f"config {cfg} is not valid YAML: {want.value}"


def test_missing_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PROBLEM)
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing required section 'solve'" in capsys.readouterr().err


# -- determinism -----------------------------------------------------------------------


def run_twice(tmp_path, command, cfg):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    return outs


def test_normalform_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, PROBLEM)
    a, b = run_twice(tmp_path, "normalform", cfg)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_curves_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, PROBLEM + "curves:\n  tau: [0.01, 0.001]\n")
    a, b = run_twice(tmp_path, "curves", cfg)
    assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()


def test_float_mode_outputs_equal_exact_on_canonical(tmp_path):
    # the float-built canonical pack has the bits of the rounded exact pack,
    # so both modes write the same bytes
    outputs = {"solve": "branches.csv", "curves": "curves.csv", "verify": "residuals.csv"}
    for command, name in outputs.items():
        files = []
        for mode in ("exact", "float"):
            out = tmp_path / f"{command}-{mode}"
            argv = [command, "--config", str(CANONICAL), "--mode", mode, "--out", str(out)]
            assert cli.main(argv) == 0
            files.append((out / name).read_bytes())
        assert files[0] == files[1], command


def _digest_table():
    spec = importlib.util.spec_from_file_location("cli_digests", DIGESTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_cli_digest_table_is_unchanged(tmp_path):
    """Every command in both modes on the six shipped configs exits with
    the code, and writes the stdout, stderr and file bytes, recorded in
    tests/golden/cli/digests.txt. A row that moves must be explained, and
    the table regenerated with the script beside it."""
    table = _digest_table()
    want = table.recorded_rows()
    got = table.table_rows(tmp_path)
    assert len(want) == len(table.CONFIGS) * len(table.COMMANDS) * len(table.MODES)
    moved = [f"recorded {w}\n     now {g}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not moved, "\n".join(moved)


def test_digest_tracks_config_bytes(tmp_path):
    body = PROBLEM + "curves:\n  tau: [0.01]\n"
    cfg1 = write_cfg(tmp_path, body, "one.yaml")
    cfg2 = write_cfg(tmp_path, "# comment\n" + body, "two.yaml")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["curves", "--config", str(cfg1), "--out", str(out1)]) == 0
    assert cli.main(["curves", "--config", str(cfg2), "--out", str(out2)]) == 0
    l1 = (out1 / "curves.csv").read_text().splitlines()
    l2 = (out2 / "curves.csv").read_text().splitlines()
    assert l1[0] != l2[0]           # different config bytes, different digests
    assert l1[1:] == l2[1:]         # same semantic content


def test_threads_do_not_change_output(tmp_path):
    base = (
        "korobeinik:\n"
        "  g1:\n"
        "    - pole: {a: 1, c: 1}\n"
        "  probes:\n"
        "    u: [0, 0.5, -0.5, 0.25]\n"
        "    terms: 40\n"
    )
    cfg1 = write_cfg(tmp_path, base + "threads: 1\n", "t1.yaml")
    cfg4 = write_cfg(tmp_path, base + "threads: 4\n", "t4.yaml")
    out1, out4 = tmp_path / "o1", tmp_path / "o4"
    assert cli.main(["korobeinik", "--config", str(cfg1), "--out", str(out1)]) == 0
    assert cli.main(["korobeinik", "--config", str(cfg4), "--out", str(out4)]) == 0
    body1 = (out1 / "convergence.csv").read_text().splitlines()[1:]
    body4 = (out4 / "convergence.csv").read_text().splitlines()[1:]
    assert body1 == body4


# -- module entry -----------------------------------------------------------------------


def test_module_invocation(tmp_path):
    cfg = write_cfg(tmp_path, PROBLEM + "curves:\n  tau: [0.01]\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "hodocusp", "curves",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "curves.csv").exists()
    assert "4 rows" in proc.stdout


# -- argument parser ----------------------------------------------------------------


def test_parser_is_built_once_and_keeps_help_and_usage_errors(tmp_path, capsys, monkeypatch):
    import argparse

    def run(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setenv("COLUMNS", "80")
    first = [run(["--help"]), run(["korobeinik", "--help"]), run(["solve"]), run(["nope"])]
    assert len(built) == 1 + len(cli._COMMANDS)  # the parser and its subparsers
    rc = cli.main(["korobeinik", "--config", str(CATALAN), "--out", str(tmp_path / "k")])
    assert rc == 0
    rc = cli.main(["curves", "--config", str(CANONICAL), "--out", str(tmp_path / "c")])
    assert rc == 0
    capsys.readouterr()
    again = [run(["--help"]), run(["korobeinik", "--help"]), run(["solve"]), run(["nope"])]
    assert len(built) == 1 + len(cli._COMMANDS)
    assert again == first
    (rc_help, help_out, _), (rc_sub, sub_out, _) = first[:2]
    assert rc_help == rc_sub == 0
    assert help_out.startswith("usage: hodocusp [-h] command ...")
    assert sub_out.startswith("usage: hodocusp korobeinik [-h] --config CONFIG")
    for rc, out, err in first[2:]:
        assert rc == 2 and out == "" and err.startswith("usage: hodocusp")
    assert "the following arguments are required: --config" in first[2][2]
    assert "invalid choice: 'nope'" in first[3][2]


def test_korobeinik_cauchy_pole_on_the_circle_runs(tmp_path, capsys):
    # |27/35 + 36/35 i| = 9/7 = r: the pole is on the circle, outside |z| < r
    cfg = write_cfg(
        tmp_path,
        "korobeinik:\n  g1:\n    - pole: {a: [27/35, 36/35], c: 1}\n"
        "  cauchy:\n    r: 9/7\n    r0: 1/2\n    eps: 1/7\n    n_max: 12\n",
    )
    rc = cli.main(["korobeinik", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
