"""docs/OBSERVABILITY.md's "Metric inventory" checked against the registry.

A fresh interpreter imports every ``repro`` module, so the registry
holds exactly the metrics created at import (not the per-backend or
federated series other tests create at run time).  The inventory table
must name each registered metric's first dotted component as a
``prefix.*`` row, and every row must match at least one registered
metric.  A metric added without a row, or a row left behind by a
deleted metric, fails here.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
_IMPORT_ALL = """
import importlib, json, pkgutil, repro
from repro.observability import metrics
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print(json.dumps(metrics.get_registry().names()))
"""


def _inventory_prefixes():
    text = _DOC.read_text(encoding="utf-8")
    table = text.split("### Metric inventory", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([a-z_.]+)\.\*` \|", table, flags=re.MULTILINE)


@pytest.fixture(scope="module")
def registered():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_inventory_table_parses():
    prefixes = _inventory_prefixes()
    assert "engine" in prefixes and "errors_absorbed" in prefixes
    assert len(prefixes) == len(set(prefixes))


def test_every_registered_metric_has_a_row(registered):
    prefixes = set(_inventory_prefixes())
    missing = sorted({name.split(".")[0] for name in registered} - prefixes)
    assert missing == [], f"metrics with no inventory row: {missing}"


def test_every_row_has_a_registered_metric(registered):
    stale = [
        prefix
        for prefix in _inventory_prefixes()
        if not any(name.startswith(prefix + ".") for name in registered)
    ]
    assert stale == [], f"inventory rows with no registered metric: {stale}"
