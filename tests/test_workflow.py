"""The CI workflow's gate scripts: each compiles, and each metric a gate
reads is one the benchmark's traced pass reports."""

import importlib.util
import re
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _gate_scripts():
    """The Python of every `python - FILE <<'PY'` heredoc in the workflow,
    dedented as the shell passes it on."""
    scripts, body = [], None
    for line in WORKFLOW.read_text().splitlines():
        if body is None:
            if line.rstrip().endswith("<<'PY'"):
                body = []
        elif line.strip() == "PY":
            scripts.append(textwrap.dedent("\n".join(body)) + "\n")
            body = None
        else:
            body.append(line)
    assert body is None, "a heredoc without its closing PY line"
    return scripts


def _layer_metrics(monkeypatch):
    """perfbench/spans.py's LAYER_METRICS names, loaded from the file (its
    dataclasses look their module up in sys.modules while it runs)."""
    spec = importlib.util.spec_from_file_location(
        "_workflow_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return {name for name, _ in spans.LAYER_METRICS}


def test_gate_scripts_compile():
    scripts = _gate_scripts()
    assert len(scripts) == 7
    for i, script in enumerate(scripts):
        compile(script, f"tests.yml heredoc {i}", "exec")


def test_gates_read_only_reported_metrics(monkeypatch):
    read = {name for script in _gate_scripts()
            for name in re.findall(r'\["metrics"\]\s*\["([^"]+)"\]', script)}
    assert read == {"keygen.digest_bytes.blake3-256.calls",
                    "diffusion.perturb.calls",
                    "walk.generate_walk.calls",
                    "fractal.box_count.calls"}
    assert read <= _layer_metrics(monkeypatch)
