"""The CI workflow's gates: the checker they call compiles and rejects a
run that breaks any condition, and each metric a gate reads is one the
benchmark's traced pass reports."""

import importlib.util
import json
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
CHECKER = ROOT / ".github" / "check_results.py"


def _load(name, path, monkeypatch):
    """The module at path, loaded from the file (dataclasses look their
    module up in sys.modules while it runs)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _gates():
    """(count, conditions) of every checker call in the workflow, with its
    shell line continuations joined."""
    text = WORKFLOW.read_text().replace("\\\n", " ")
    gates = []
    for line in text.splitlines():
        if line.lstrip().startswith("python .github/check_results.py "):
            words = shlex.split(line)
            gates.append((int(words[3]), words[4:]))
    return gates


def test_gate_scripts_compile():
    compile(CHECKER.read_text(), str(CHECKER), "exec")
    assert "<<'PY'" not in WORKFLOW.read_text()
    assert [count for count, _ in _gates()] == [4, 4, 1, 1, 1, 1]


def test_gates_read_only_reported_metrics(monkeypatch):
    checker = _load("_workflow_checker", CHECKER, monkeypatch)
    read = {checker.parse(c)[0] for _, conditions in _gates()
            for c in conditions}
    assert read == {"keygen.digest_bytes.blake3-256.calls",
                    "diffusion.perturb.calls",
                    "walk.generate_walk.calls",
                    "fractal.box_count.calls"}
    spans = _load("_workflow_spans", ROOT / "perfbench" / "spans.py",
                  monkeypatch)
    assert read <= {name for name, _ in spans.LAYER_METRICS}


def _breaks(count, conditions, parse):
    """A passing run for a gate, then each run that breaks one of its
    conditions, as (what is broken, result lines)."""
    good = {"correct": True, "attempted": 5, "failed": 0, "metrics": {}}
    for name, op, value in map(parse, conditions):
        good["metrics"][name] = {"value": value if op == "==" else value + 1}
    yield None, [good] * count
    yield "results, expected", [good] * (count + 1)
    for key, bad in (("correct", False), ("failed", 1), ("attempted", 0)):
        yield key, [{**good, key: bad}] + [good] * (count - 1)
    for name, op, value in map(parse, conditions):
        # ==0.25 broken by 0.5, ==1 by 2.0, >0 by 0
        metric = {"value": 2 * value if op == "==" else value}
        yield name, [{**good, "metrics": {**good["metrics"],
                                          name: metric}}] * count


@pytest.mark.parametrize("gate", range(6))
def test_checker_fails_a_run_that_breaks_any_condition(gate, tmp_path,
                                                       monkeypatch):
    checker = _load("_workflow_checker", CHECKER, monkeypatch)
    count, conditions = _gates()[gate]
    results = tmp_path / "results.txt"
    for broken, lines in _breaks(count, conditions, checker.parse):
        results.write_text("timing 1.0 s\n" + "".join(
            json.dumps(line) + "\n" for line in lines))
        if broken is None:
            checker.main([str(results), str(count), *conditions])
            continue
        with pytest.raises(SystemExit) as exc:
            checker.main([str(results), str(count), *conditions])
        assert exc.value.code and broken in exc.value.code
