"""Import hygiene: ``import pe3d``, config parsing and a manufactured-solution
case load neither scipy nor sympy, so a fresh process starts in a fraction
of a second; both are used only by the tests and the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pe3d

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """\
import json, sys
import pe3d
for path in sys.argv[1:]:
    with open(path) as fh:
        pe3d.parse_config(fh.read())
heavy = sorted(m for m in ("scipy", "sympy") if m in sys.modules)
from pe3d.grid import GridSpec
from pe3d.verification import _run_case
err = _run_case(GridSpec(n1=8, n2=8, nz=8), 1.0, 0.01, 0.0025)
print(json.dumps({"heavy": heavy, "err": err,
                  "heavy_after": sorted(m for m in ("scipy", "sympy")
                                        if m in sys.modules)}))
"""


def test_import_and_parse_load_no_scipy_or_sympy():
    configs = sorted(str(p) for p in (ROOT / "bench" / "configs").glob("*.cfg"))
    assert configs
    env = dict(os.environ)
    src = str(Path(pe3d.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *configs], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["heavy"] == []
    # four steps of a ladder case at 8^3 ran and loaded neither either
    assert out["heavy_after"] == []
    assert 0.0 < out["err"] < 0.1
