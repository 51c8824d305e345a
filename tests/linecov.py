"""Line coverage of src/crfidsim under Tier-1, with the stdlib only.

Runs ``python -m trace --count --missing`` over ``pytest -q tests`` with
PYTHONPATH=src and prints every executable src line that no test ran.
ALLOWED names the lines that may stay unrun, as (module, stripped line
text): only the ``python -m crfidsim.cli`` entry, which a test cannot run
in-process. tests/test_linecov.py checks that each entry matches exactly
one src line, so an entry cannot hide a second line of the same text.

    python tests/linecov.py

Exits 1 if a line outside ALLOWED is unrun, 2 if the suite fails. trace
swallows pytest's exit status, so the suite's result is read from a JUnit
XML report. Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crfidsim"

ALLOWED = {
    ("cli", "sys.exit(run())"),
    ("cli", "main()"),
}

# trace writes each executed line as "%5d: text", each unrun executable line
# as ">>>>>> text" and every other line as seven blanks before the text
MISSING_MARK = ">>>>>> "


def unrun_lines(coverdir: Path) -> list[tuple[str, int, str]]:
    """(module, line number, stripped text) of every unrun src line."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        cover = coverdir / f"crfidsim.{module}.cover"
        if not cover.exists():
            # trace writes no file for a module with no executable line
            # run, so the module was never imported or is empty
            if path.read_text().strip():
                out.append((module, 0, "(module never imported)"))
            continue
        for lineno, line in enumerate(cover.read_text().splitlines(), start=1):
            if line.startswith(MISSING_MARK):
                out.append((module, lineno, line[len(MISSING_MARK):].strip()))
    return out


def suite_failures(report: Path) -> str:
    """An empty string if the JUnit report shows that every test passed,
    else what went wrong."""
    if not report.exists():
        return "no test report"
    root = ET.parse(report).getroot()
    suites = [root] if root.tag == "testsuite" else list(root)
    bad = sum(int(s.get("failures", 0)) + int(s.get("errors", 0)) for s in suites)
    ran = sum(int(s.get("tests", 0)) for s in suites)
    return f"{bad} of {ran} tests failed" if bad or not ran else ""


def main() -> int:
    paths = sysconfig.get_paths()
    ignore = {paths["stdlib"], paths["platstdlib"], paths["purelib"],
              paths["platlib"], str(ROOT / "tests"), str(ROOT / "bench")}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="crfidsim-linecov-") as tmp:
        coverdir, report = Path(tmp) / "cover", Path(tmp) / "junit.xml"
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        subprocess.run(
            [sys.executable, "-m", "trace", "--count", "--missing",
             f"--coverdir={coverdir}", f"--ignore-dir={os.pathsep.join(sorted(ignore))}",
             "--module", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junit-xml={report}", "tests"],
            cwd=ROOT, env=env, check=False,
        )
        failure = suite_failures(report)
        unrun = unrun_lines(coverdir)
    seconds = time.perf_counter() - start
    if failure:
        print(f"suite failed under trace: {failure}", file=sys.stderr)
        return 2
    strays = 0
    for module, lineno, text in unrun:
        allowed = (module, text) in ALLOWED
        strays += not allowed
        print(f"{'allowed' if allowed else 'UNRUN  '}  src/crfidsim/{module}.py:{lineno}  {text}")
    print(f"{len(unrun)} unrun src lines, {strays} not allowed, {seconds:.0f} s")
    return 1 if strays else 0


if __name__ == "__main__":
    sys.exit(main())
