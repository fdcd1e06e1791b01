"""Self-tests of the benchmark: checker, span arithmetic, reporting rule,
and the tracer's handling of functions the program no longer has.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import shutil
import sys
import textwrap
from pathlib import Path

import pytest

from checker import Checker
from run import summarize
from spans import GROUP_METRICS, Span, Tracer, layer_metrics, self_times
from workloads import DEFAULT_SEED, WARMUP_N, WORKLOADS, time_grid, warmup_grid

BENCH = Path(__file__).resolve().parents[1]


def _perturb(path, column: str, rel: float) -> None:
    """Scale the largest-magnitude entry of ``column`` by 1 + rel."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    i = rows[0].index(column)
    row = max(rows[1:], key=lambda r: abs(float(r[i])))
    row[i] = repr(float(row[i]) * (1.0 + rel))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, dialect="excel").writerows(rows)


def _failed(curves):
    return {(c.file, c.column) for c in curves if not c.ok}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_rejects_reference_perturbation(tmp_path, name):
    w = WORKLOADS[name]
    ref = BENCH / "reference" / name
    grid = time_grid(DEFAULT_SEED, w.points, w.t_max_us)
    checker = Checker(w, grid, warmup_grid(DEFAULT_SEED), ref)
    out = tmp_path / "out"
    shutil.copytree(ref, out)
    assert _failed(checker.check_run(out)) == set()

    file, cols = next(iter(w.expected_files(w.n_values).items()))
    column = cols[-1]
    _perturb(out / file, column, rel=1e-8)
    assert _failed(checker.check_run(out)) == {(file, column)}


def test_checker_rejects_oracle_perturbation(tmp_path):
    from starbath.cli import main as cli_main

    w = WORKLOADS["simulate_full"]
    grid = warmup_grid(DEFAULT_SEED)
    config = tmp_path / "warmup.json"
    config.write_text('{"times_us": %s}' % grid)
    out = tmp_path / "warmup"
    assert cli_main(w.argv((WARMUP_N,), str(config), str(out))) == 0
    checker = Checker(w, [], grid, None)
    assert _failed(checker.check_warmup(out)) == set()

    _perturb(out / "simulate.csv", "sigma11_exact[1]", rel=1e-8)
    assert _failed(checker.check_warmup(out)) == {("simulate.csv", "sigma11_exact[1]")}


def test_checker_counts_every_curve_of_a_failed_run():
    w = WORKLOADS["fig1_multi_n"]
    curves = Checker(w, [1.0], [1.0], None).failed_run(w.n_values, "exit code 2")
    assert len(curves) == 2 * (len(w.n_values) + 1) and not any(c.ok for c in curves)


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has child [6, 8]
    # and an overlapping pair [2, 3] / [2.5, 3.5] under [1, 4].
    spans = [
        Span(0, None, "root", "harness", 0.0, 10.0),
        Span(1, 0, "a", "model", 1.0, 4.0),
        Span(2, 0, "b", "kernels", 5.0, 9.0),
        Span(3, 2, "c", "thermo", 6.0, 8.0),
        Span(4, 1, "d", "gksl", 2.0, 3.0),
        Span(5, 1, "e", "gksl", 2.5, 3.5),
    ]
    st = self_times(spans)
    assert st == pytest.approx({0: 3.0, 1: 1.5, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0})
    values, _ = layer_metrics(spans, {"model", "kernels", "thermo", "gksl"})
    assert values["harness.self_s"] == pytest.approx(3.0)
    assert values["kernels.s"] == pytest.approx(2.0)
    assert values["gksl.calls"] == 2


def test_summarize_reporting_rule():
    s = summarize([3.0, 1.0, 2.0])
    assert (s["n"], s["median"], s["tail"]) == (3, 2.0, None)
    assert summarize([5.0])["q1"] == summarize([5.0])["q3"] == 5.0
    assert summarize(list(range(39)))["tail"] is None  # p75 would leave 9.75 beyond
    assert summarize(list(range(40)))["tail"][0] == 75.0
    assert summarize(list(range(100)))["tail"][0] == 90.0
    assert summarize(list(range(999)))["tail"][0] == 95.0
    s = summarize([float(i) for i in range(1000)])
    assert s["tail"] == (99.0, 989.0)
    assert (s["q1"], s["median"], s["q3"]) == (249.25, 499.5, 749.75)


def test_missing_function_gives_absent_metric(tmp_path, monkeypatch):
    pkg = tmp_path / "fakebath"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "evolve.py").write_text(
        textwrap.dedent(
            """
            __all__ = ["mode_basis"]

            def mode_basis(n):
                return sum(range(n))
            """
        )
    )
    (pkg / "harness.py").write_text(
        textwrap.dedent(
            """
            from .evolve import mode_basis
            __all__ = ["run_job"]

            def run_job(n):
                return mode_basis(n)
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakebath.harness

    tracer = Tracer(package="fakebath")
    tracer.install()
    try:
        assert tracer.trace(fakebath.harness.run_job, 10) == 45
    finally:
        tracer.uninstall()
    for name in [n for n in sys.modules if n.startswith("fakebath")]:
        del sys.modules[name]

    values, absent = layer_metrics(tracer.spans, tracer.present)
    assert [s.name for s in tracer.spans] == ["harness.cli_main", "harness.run_job", "evolve.mode_basis"]
    assert values["evolve.mode_basis_calls"] == 1
    assert {"kernels.s", "kernels.gflop", "model.s", "table.bytes"} <= absent
    assert values["kernels.s"] == 0.0 and "evolve.mode_basis_s" not in absent


def test_traced_job_self_times_add_up(tmp_path):
    import starbath.harness
    from starbath.cli import main as cli_main

    w = WORKLOADS["fig5_window"]
    config = tmp_path / "c.json"
    config.write_text('{"times_us": %s}' % warmup_grid(1))
    original = starbath.evolve.mode_basis
    tracer = Tracer()
    tracer.install()
    try:
        assert starbath.harness.mode_basis is not original  # bound by a direct import
        assert starbath.evolve.mode_basis is not original
        assert tracer.trace(cli_main, w.argv((WARMUP_N,), str(config), str(tmp_path / "o"))) == 0
    finally:
        tracer.uninstall()
    assert starbath.harness.mode_basis is original
    values, absent = layer_metrics(tracer.spans, tracer.present)
    wall = tracer.spans[0].duration
    total = sum(values[m] for m, (_, field, _) in GROUP_METRICS.items() if field == "s")
    assert total == pytest.approx(wall, abs=1e-9)
    assert absent == set()
    assert values["evolve.mode_basis_calls"] == 1
    assert values["evolve.series_calls"] == 2  # window rows and cross terms
    assert values["kernels.calls"] == len(warmup_grid(1))
    assert values["table.rows"] > 0 and values["table.bytes"] > 0
