"""Plant one-line bugs (mutants) in a copy of the package and show that a
test catches each one.

    python tools/mutants.py

Run it from the root of a checkout.  Each row of ``MUTANTS`` names a module
of ``src/bsscale``, a text that occurs exactly once in it, the text that
replaces it, and the test file expected to kill the mutant.  For each row
the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` to a temporary directory, applies the mutant there and runs
the test file with ``pytest -x -W error``, as CI runs tier-1.  The
checkout is never changed.

A row with a reason is an equivalent mutant: it changes no answer, for the
reason given, and its test file is expected to pass.  It prints
``equivalent`` when it passes.  Any other row prints ``killed`` when its
test file fails.  A mutant that its test file does not kill is then run
against all of tier-1, and prints ``survived`` only when every test
passes; one that tier-1 kills needs its row to name the test that does.
The exit code is 1 when any row came out otherwise than the table says.

This is a tool, not a CI gate: each row costs a test file's run, and a
survivor a full tier-1 run (about 45 s).  A surviving mutant gets a new
test; no test is loosened to kill one.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

# (module, old text, new text, test file that kills it, reason it is
# equivalent or "")
MUTANTS = [
    # the letter check of the decoder lets T through
    ("words.py", 'if b.translate(None, b"aAtT"):', 'if b.translate(None, b"aAt"):',
     "tests/test_words.py", ""),
    # random words never draw T
    ("sampling.py", "_LETTERS.encode()[k % 4]", "_LETTERS.encode()[k % 3]",
     "tests/test_sampling.py", ""),
    # selfcheck's square drops z's first a run at the junction
    ("selfcheck.py", "exps[-1] + exps[0]", "exps[-1]", "tests/test_conjugacy.py", ""),
    # the coset index scan keeps x / m where the pinch leaves x / m * n
    ("cosets.py", "a = a // mod * mul", "a = a // mod", "tests/test_acceptance.py", ""),
    # the fold skips the lcm for h = 2
    ("graph.py", "if h > 1:", "if h > 2:", "tests/test_graph.py", ""),
    # the distance law takes the longer way round
    ("graph.py", "(l2 - l1) + min(", "(l2 - l1) + max(", "tests/test_graph.py", ""),
    # the Moller ratios checked from k = 2 instead of k = 1
    ("invariants.py", "zip(seq, seq[1:])", "zip(seq[1:], seq[2:])", "tests/test_invariants.py",
     "no sign word has a wrong first ratio and a right second one"
     " (TestMoller::test_first_ratio_never_decides_alone)"),
]

ROOT = pathlib.Path.cwd()


def pytest_passes(tree: pathlib.Path, *args: str) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def run_row(module: str, old: str, new: str, test: str, reason: str) -> tuple[str, bool]:
    """(outcome, whether it is the outcome the table expects)."""
    text = (ROOT / "src" / "bsscale" / module).read_text()
    if text.count(old) != 1:
        return f"stale row: {old!r} occurs {text.count(old)} times in {module}", False
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):  # the pytest settings; test_readme
            shutil.copy(ROOT / part, tree)
        (tree / "src" / "bsscale" / module).write_text(text.replace(old, new))
        if not pytest_passes(tree, test):
            return ("killed, though listed as equivalent" if reason else "killed"), not reason
        if reason:
            return f"equivalent: {reason}", True
        if not pytest_passes(tree, "--continue-on-collection-errors"):
            return f"killed by tier-1, not by {test}", False
        return "survived", False


def main() -> int:
    as_expected = True
    for module, old, new, test, reason in MUTANTS:
        outcome, ok = run_row(module, old, new, test, reason)
        as_expected &= ok
        print(f"{module}: {old!r} -> {new!r} ({test}): {outcome}", flush=True)
    return 0 if as_expected else 1


if __name__ == "__main__":
    sys.exit(main())
