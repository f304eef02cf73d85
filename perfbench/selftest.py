"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

* The calibration yardstick (``calib.py``) imports nothing but a few
  standard-library modules, and in particular never the program under
  test, so no change to the program can move it.
* Span self time is duration minus the children's durations.
* The churn oracle accepts a write applied a cycle late and a crashed
  writer's lost writes, and rejects a gap, a duplicate and a phantom.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CALIB = os.path.join(HERE, "calib.py")
#: The only modules the yardstick may import.
ALLOWED_IMPORTS = {"__future__", "dataclasses", "statistics", "time", "typing"}


def reference_is_isolated(path: str = CALIB) -> Optional[str]:
    """``None`` when ``path`` imports only :data:`ALLOWED_IMPORTS`, else
    a description of the first offending import."""
    with open(path, encoding="utf-8") as source:
        tree = ast.parse(source.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                return f"line {node.lineno}: relative import"
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "__import__":
            return f"line {node.lineno}: dynamic import"
        else:
            continue
        for name in names:
            if name.split(".")[0] not in ALLOWED_IMPORTS:
                return f"line {node.lineno}: imports {name}"
    return None


def _loaded_modules_after_import() -> set:
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import calib; calib.reference_sample(1); "
            "print('\\n'.join(sorted(set(sys.modules) - before)))" % HERE)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    return set(out.stdout.split())


def _churn_oracle_failures() -> list:
    from des import ChurnWrites, OracleFailure, check_consistent

    writes = ChurnWrites()
    for writer in ("n0", "n0", "n0", "n1", "n1"):
        value = writes.next_value(writer).encode()
        writes.cast[value] = 0.0
    writes.note_recovery("n0")  # n0.2 was lost with the crashed n0
    value = writes.next_value("n0").encode()
    writes.cast[value] = 0.0
    # n1.0 was cast in an earlier cycle and applied in this one.
    late = [b"n0.0", b"n0.1", b"n1.0", b"n1.1", b"n0.3"]
    bad = {
        "gap": [b"n0.0", b"n0.2"],
        "duplicate": [b"n0.0", b"n0.1", b"n0.1"],
        "reordered": [b"n1.1", b"n1.0"],
    }
    failures = []
    try:
        check_consistent({"n2": late, "n3": late[:3]}, writes.cast, "selftest")
        writes.check_order("n2", late, "selftest")
    except OracleFailure as exc:
        failures.append(f"churn oracle rejects valid deliveries: {exc}")
    for what, sequence in bad.items():
        try:
            writes.check_order("n2", sequence, "selftest")
            failures.append(f"churn oracle accepts a {what}")
        except OracleFailure:
            pass
    try:
        check_consistent({"n2": [b"n1.9"]}, writes.cast, "selftest")
        failures.append("churn oracle accepts a phantom")
    except OracleFailure:
        pass
    return failures


def main() -> int:
    failures = []
    problem = reference_is_isolated()
    if problem:
        failures.append(f"calib.py is not isolated: {problem}")
    loaded = _loaded_modules_after_import()
    if any(m == "repro" or m.startswith("repro.") for m in loaded):
        failures.append(f"importing calib loaded the program: {sorted(loaded)}")
    if reference_is_isolated(os.path.join(HERE, "des.py")) is None:
        failures.append("the isolation check accepts a module importing repro")

    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    from tracing import Tracer

    tracer = Tracer()
    # root [0, 10] with children [1, 4] and [5, 6]; the first has [2, 3].
    tracer.spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
                    ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    agg = tracer.aggregate()
    expected = {"root": 6.0, "a": 3.0, "b": 1.0}
    for name, self_s in expected.items():
        if abs(agg[name]["self_s"] - self_s) > 1e-12:
            failures.append(f"self time of {name}: {agg[name]['self_s']} != {self_s}")
    failures += _churn_oracle_failures()
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
