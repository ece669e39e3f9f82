"""Self-test of the benchmark; not part of the tier-1 suite.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN = inputs.load_golden()
MODELS = {label: GOLDEN["catalog"][label]["model"] for label in inputs.CATALOG_LABELS}


def test_same_seed_gives_byte_identical_catalog_inputs():
    assert inputs.catalog_inputs(MODELS, 7) == inputs.catalog_inputs(MODELS, 7)


def test_second_seed_gives_other_inputs_that_still_classify():
    first, second = inputs.catalog_inputs(MODELS, 7), inputs.catalog_inputs(MODELS, 8)
    assert all(a != b for (_, a), (_, b) in zip(first, second))
    prep = workloads.setup_catalog(8, GOLDEN)
    classify = [op for op in prep.ops if op.command == "classify"]
    assert len(classify) == len(inputs.CATALOG_LABELS) * inputs.TRANSPORTS_PER_LABEL
    for op in classify:
        assert op.gate(op.run()) is None, op.key


def test_traced_ops_give_the_untraced_outputs_and_wrappers_are_restored():
    # Each set-up imports phq afresh, so each workload is traced on its own.
    cheap = {workloads.setup_ladder: ("L42", "TstarTheta3K"), workloads.setup_catalog: ("L(4,2) #0", "R(2,2) #24")}
    commands, calls = set(), {}
    for setup, keys in cheap.items():
        ops = [op for op in setup(0, GOLDEN).ops if op.key in keys]
        commands |= {op.command for op in ops}
        untraced = [op.run() for op in ops]
        tracer = spans.Tracer()
        tracer.install()
        patched = tracer.patched()
        try:
            tracer.active = True
            traced = [op.run() for op in ops]
            tracer.active = False
        finally:
            tracer.restore()
        assert traced == untraced
        for name, (n, _) in tracer.snapshot["spans"].items():
            calls[name] = calls.get(name, 0) + n
        # Re-exported bindings (phq.classify, phq.cli.classify, ...) were
        # patched as well as the defining modules; each holds its original again.
        assert len(patched) > sum(len(quals) for quals in spans.SPANS.values())
        for owner, attr, original in patched:
            assert vars(owner)[attr] is original, (owner, attr)
    assert commands == set(run.COMMANDS)
    assert all(calls[name] > 0 for name in ("catalog.classify", "catalog.build", "fileformat.Recipe.evaluate"))


def test_traced_child_gives_the_untraced_stdout():
    prep = workloads.setup_cli(0, GOLDEN)
    pick = [i for i, op in enumerate(prep.ops) if op.key == "fixtures/R22.alg"]
    for i in pick:
        plain, traced = prep.ops[i].run(), prep.traced_ops[i].run()
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
        assert prep.ops[i].gate(plain) is None
        snapshot = workloads.child_spans(traced.stderr)
        assert snapshot["spans"]["cli.main"][0] == 1
        assert snapshot["spans"][spans.IMPORT_SPAN][0] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
