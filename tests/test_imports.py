"""Import hygiene: ``import pe3d`` and config parsing load neither scipy nor
sympy, so a fresh process starts in a fraction of a second; sympy is
imported only where the manufactured solution is built."""

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
from pe3d.verification import AnalyticSolutionSpec
spec = AnalyticSolutionSpec.default()
print(json.dumps({"heavy": heavy, "v1": str(spec.v1),
                  "sympy_after": "sympy" in sys.modules}))
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
    # the symbolic solution still builds with sympy imported on demand
    assert out["sympy_after"]
    assert "sin(pi*x)" in out["v1"]
