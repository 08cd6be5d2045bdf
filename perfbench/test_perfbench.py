"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

The last two tests run the benchmark on the deep workload, about a
minute in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def test_same_seed_same_inputs():
    for name in workloads.NAMES:
        assert workloads.items(name, 7) == workloads.items(name, 7)
    for name in ("wide", "deep"):
        assert workloads.items(name, 7) != workloads.items(name, 8)


def test_seed_changes_no_size_and_no_hd_place():
    def shape(name, seed):
        wires = workloads.items(name, seed)
        if name == "wide":
            wires = [w for item in wires for w in item]
        return [[g == "Hd" for g in gates] for _, gates in wires]

    for name in ("wide", "deep"):
        assert shape(name, 1) == shape(name, 2)
    assert all(sum(w) == 1 for w in shape("wide", 3))


def test_reference_rejects_perturbed_vector_and_wrong_steps():
    wires = [(0, ["Hd"]), (1, ["NOT", "Hd"]), (0, ["Z", "Hd"])]
    v = reference.product_state(wires)
    assert reference.check_state(v.copy(), v)
    bad = v.copy()
    bad[3] += 1e-6
    assert not reference.check_state(bad, v)
    steps = reference.predicted_steps(wires)
    assert reference.check_steps(steps, steps)
    assert not reference.check_steps(steps + 1, steps)


def test_predicted_steps_closed_forms():
    for n in range(1, 9):
        assert reference.predicted_steps([(0, ["Hd"])] * n) == 2 ** (n + 1) - 2
    assert reference.predicted_steps([(1, ["Hd", "Z", "NOT"] * 10)]) == 60


def test_reference_agrees_with_package_on_small_items():
    import passes

    from basislam.corpus import load_corpus

    programs = load_corpus()
    wide = [[(1, ["Hd"]), (0, ["Z", "Hd"]), (1, ["Hd", "NOT"])]]
    w = passes.Wide()
    _, out = w.run(w.prepare(ROOT, programs, wide), wide, None)
    assert w.verify(wide, out)[0] == [True]
    # a wrong prediction is caught
    assert w.verify([[(1, ["Hd"]), (0, ["Z"]), (1, ["Hd", "NOT"])]], out)[0] == [False]

    deep = [(1, ["Hd", "Z", "NOT", "Hd", "Hd"])]
    d = passes.Deep()
    _, out = d.run(d.prepare(ROOT, programs, deep), deep, None)
    assert d.verify(deep, out)[0] == [True]
    assert d.verify([(0, deep[0][1])], out)[0] == [False]


def test_failing_item_counts_and_pass_goes_on():
    import passes

    from basislam.corpus import load_corpus

    programs = load_corpus()
    items = [(0, ["Hd"]), (0, ["NOT"])]
    d = passes.Deep()
    inputs = d.prepare(ROOT, programs, items)
    inputs[0] = ["eval", "NOT (", "--json"]  # parse error: exit code 2
    ic, out = d.run(inputs, items, None)
    assert len(ic.times) == 2 and len(ic.samples) == 3
    assert d.verify(items, out)[0] == [False, True]


def test_rescale_to_reference_speed():
    ref = speed.REF_S
    assert speed.rescale([1.0, 2.0], [2 * ref] * 3) == pytest.approx([0.5, 1.0])
    # one stray slow sample does not move short items
    samples = [ref, ref, 5 * ref, ref, ref]
    assert speed.rescale([1.0] * 4, samples) == pytest.approx([1.0] * 4)


def test_tracer_self_times_add_up_and_uninstall_restores():
    import basislam
    from basislam import core, reduction
    from basislam.corpus import load_corpus

    gates = load_corpus()["gates"]
    term = basislam.parse_term("Hd (Hd |1>)", gates.all_bases(), gates.defs)
    originals = (core.add, reduction.evaluate, basislam.evaluate, reduction.eval)
    t = tracer.Tracer()
    t.install()
    try:
        assert core.add is not originals[0]
        assert reduction.evaluate is reduction.eval is basislam.evaluate
        t.call(tracer.PASS_SPAN, reduction.evaluate, term)
    finally:
        t.uninstall()
    assert (core.add, reduction.evaluate, basislam.evaluate, reduction.eval) == originals
    m = t.metrics()
    layers = sum(m[f"{x}.self_s"][0] for x in tracer.LAYERS)
    assert layers == pytest.approx(m["trace.pass_s"][0], rel=1e-9)
    assert m["reduction.evaluate_calls"][0] == 1
    assert m["core.term_eq_calls"][0] > 0


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _bench("--workload", "deep", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("end_to_end" if trace == "0" else "per_layer")
    if trace == "1":
        # the traced pass checks its outputs too, with the same verdict
        line = next(x for x in proc.stdout.splitlines() if "ok_ratio:" in x)
        ok, _, attempted = line.split(":")[1].split()[:3]
        assert result["metrics"]["trace.ok_ratio"]["value"] == int(ok) / int(attempted)
