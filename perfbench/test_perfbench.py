"""Self-tests of the benchmark: seeded inputs, output checks, the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracer as tracer_module
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def geomfreq():
    package, mods = run.import_geomfreq()
    return package, mods, type("GF", (), mods)


def test_inputs_depend_only_on_the_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = workloads.make_ops("numeric_csv", 7, str(dirs[0]))
    b = workloads.make_ops("numeric_csv", 7, str(dirs[1]))
    c = workloads.make_ops("numeric_csv", 8, str(dirs[2]))
    for op_a, op_b in zip(a, b):
        with open(op_a.input_path, "rb") as fa, open(op_b.input_path, "rb") as fb:
            assert fa.read() == fb.read()
        assert op_a.meta == op_b.meta
    assert [op.samples for op in a] == [op.samples for op in b]
    assert [op.samples for op in a] != [op.samples for op in c]
    x = workloads.make_ops("analytic_fm", 3, str(dirs[0]))
    y = workloads.make_ops("analytic_fm", 3, str(dirs[1]))
    assert [op.meta for op in x] == [op.meta for op in y]


def _drop_a_row(op):
    with open(op.out) as fh:
        lines = fh.readlines()
    del lines[len(lines) // 2]
    with open(op.out, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("workload", ["numeric_csv", "analytic_fm"])
def test_each_op_is_checked(tmp_path, geomfreq, workload):
    _, _, gf = geomfreq
    ops = workloads.make_ops(workload, 1, str(tmp_path))
    shortest = min(ops[:3], key=lambda op: op.samples)
    assert run.run_op(shortest, gf)["error"] is None
    bad = run.run_op(shortest, gf, tamper=_drop_a_row)
    assert bad["error"] and "rows" in bad["error"]


def test_validate_check_needs_every_property(geomfreq):
    _, mods, _ = geomfreq
    assert set(workloads.VALIDATE_SUITES) == set(mods["validate"]._SUITES) - {"numdiff"}
    assert sum(workloads.VALIDATE_SUITES.values()) == 27 - 3
    check = workloads._validate_check(9)
    lines = [f"[PASS] frenet_core: p{k} (worst 0, tol 0)" for k in range(9)]
    good = "\n".join(lines + ["9/9 properties passed"]) + "\n"
    assert check(0, good, None)[0] is None
    bad = good.replace("[PASS] frenet_core: p3", "[FAIL] frenet_core: p3")
    assert check(1, bad.replace("9/9", "8/9"), None)[0]
    assert check(0, bad, None)[0]


def test_op_times_are_scaled_by_the_host_factor(tmp_path, geomfreq, monkeypatch):
    _, _, gf = geomfreq
    op = min(workloads.make_ops("validate_all", 1, str(tmp_path)), key=lambda o: o.samples)
    monkeypatch.setattr(run, "calibrate", lambda loops=run.CALIB_LOOPS: 3 * run.REF_CALIB_S)
    result = run.run_op(op, gf)
    assert result["error"] is None
    assert result["host"] == pytest.approx(3.0)
    assert result["ref_wall"] == pytest.approx(result["wall"] / 3.0)
    assert run.throughput([result]) == pytest.approx(3 * run.throughput([result], "wall"))


def test_corrupted_outputs_count_as_failed_ops():
    result, _, _ = run.run("analytic_fm", 1, 0.3, 0, tamper=_drop_a_row)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_tracer_patches_every_binding(geomfreq, tmp_path):
    package, mods, gf = geomfreq
    originals = (mods["frenet"].invariants, mods["signals"].three_phase_model,
                 dict(mods["validate"]._SUITES))
    tracer = Tracer(mods)
    tracer.install(extra_namespaces=(package,))
    try:
        assert mods["hilbert"].invariants is mods["frenet"].invariants
        assert mods["hilbert"].invariants is not originals[0]
        assert mods["signals"]._PRESETS["E0"][0] is mods["signals"].three_phase_model
        assert all(f is not originals[2][k] for k, f in mods["validate"]._SUITES.items())
        out = str(tmp_path / "h.csv")
        tracer.active = True
        rc = gf.cli.main(["hilbert", "--freq", "50", "--t1", "0.01", "--out", out])
        tracer.active = False
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert rc == 0
    assert mods["frenet"].invariants is originals[0]
    assert mods["signals"].three_phase_model is originals[1]
    assert mods["validate"]._SUITES == originals[2]
    rows = 100 - 2 * workloads.TRIM
    assert tracer.stats["frenet.invariants"][0] == rows
    assert tracer.stats["numdiff.stencil_derivatives"][0] == 2
    # self times add up exactly to the root span, and spans name their parents
    assert sum(s[2] for s in tracer.stats.values()) == tracer.stats["cli.main"][1]
    ids = {span[0] for span in tracer.spans}
    assert all(parent in ids for _, parent, *_ in tracer.spans if parent)


def test_span_cap_keeps_whole_ops(monkeypatch):
    mod = types.ModuleType("fake")
    exec("def leaf():\n    return 1\ndef root():\n    return leaf() + leaf()\n", vars(mod))
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 5)
    tracer = Tracer({"fake": mod})
    tracer.install()
    try:
        for op_id in range(3):  # three spans an op; only the first op fits
            tracer.op_id = op_id
            tracer.active = True
            mod.root()
            tracer.active = False
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert [span[3] for span in tracer.spans] == ["fake.leaf", "fake.leaf", "fake.root"]
    assert tracer.spans_dropped == 6
    assert tracer.stats["fake.leaf"][0] == 6


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numeric_csv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
