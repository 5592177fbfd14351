"""perfbench's tracer still finds what it wraps.

``perfbench/spans.py`` wraps domlab functions by module and name, and the
harness's theorem entries by id. A rename under ``src/`` would otherwise
surface only as a failed ``--trace 1`` run. The tracer patches modules in
place, so it runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spans import TARGETS, THEOREM_IDS, Tracer
from domlab import cli, domination, gadgets, graph, harness, recognizers, spanning

modules = {"graph": graph, "domination": domination, "recognizers": recognizers,
           "gadgets": gadgets, "spanning": spanning, "harness": harness, "cli": cli}
missing = [f"{mod}.{name}" for mod, name in TARGETS if not hasattr(modules[mod], name)]
tracer = Tracer()
tracer.install()
harness.run_verification(sorted(harness.THEOREMS), harness.CorpusSpec.parse("exhaustive:4"))
layers = tracer.layers()
print(json.dumps({
    "missing": missing,
    "theorem_ids": sorted(THEOREM_IDS),
    "theorems": sorted(harness.THEOREMS),
    "checked": {k: v for k, v in layers.items() if k.endswith(".checked")},
}))
"""


def test_tracer_targets_resolve_and_count_checks():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["missing"] == []
    assert out["theorem_ids"] == out["theorems"]
    expected = {f"harness.{tid}.checked" for tid in out["theorems"]}
    assert set(out["checked"]) == expected
    assert all(v > 0 for v in out["checked"].values()), out["checked"]
