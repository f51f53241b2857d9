"""Compare the bundled configs' outputs of two dimerbath source trees.

    python3 .github/compare_outputs.py BASE_TREE HEAD_TREE

Every config under BASE_TREE/configs is run through the CLI of each tree,
from that tree's own copy of the config, with ``--threads 1`` and in a
fresh directory per tree. The comparison fails (exit 1) when an exit code
differs, when the set of output files differs, or when a token of an output
file differs: a number by more than 1e-10 + 1e-8 |base|, the golden
tolerance of the benchmark, and any other token at all. Standard output and
standard error count as output files, with each tree's path replaced by a
placeholder. The summary counts the files that are byte-identical and
those that match only within the tolerance. Exit 0 when everything matches.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ATOL, RTOL = 1e-10, 1e-8
#: a file's text splits into tokens and these separators; the separators
#: must match exactly
SEPARATORS = re.compile(r"([\s,=()\[\]]+)")
#: mismatches printed per file
SHOWN = 5


def run_configs(tree: Path, names: list[str], out: Path) -> dict[str, int]:
    """Exit code per config name; outputs, stdout and stderr land in out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    codes = {}
    for name in names:
        with open(out / f"{name}.stdout", "w") as so, \
                open(out / f"{name}.stderr", "w") as se:
            codes[name] = subprocess.run(
                [sys.executable, "-m", "dimerbath.cli",
                 str(tree / "configs" / f"{name}.cfg"), "--threads", "1"],
                cwd=out, env=env, stdout=so, stderr=se).returncode
    return codes


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _close(base: str, head: str) -> bool:
    a, b = _number(base), _number(head)
    if a is None or b is None:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= ATOL + RTOL * abs(a)


def compare_text(base: str, head: str) -> list[str]:
    """One message per line whose tokens differ beyond the tolerance."""
    base_lines, head_lines = base.splitlines(), head.splitlines()
    if len(base_lines) != len(head_lines):
        return [f"{len(base_lines)} lines against {len(head_lines)}"]
    problems = []
    for number, (a, b) in enumerate(zip(base_lines, head_lines), 1):
        if a == b:
            continue
        pa, pb = SEPARATORS.split(a), SEPARATORS.split(b)
        if len(pa) != len(pb) or any(
                x != y and (i % 2 or not _close(x, y))
                for i, (x, y) in enumerate(zip(pa, pb))):
            problems.append(f"line {number}: {a!r} against {b!r}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, head = (Path(p).resolve() for p in argv)
    names = sorted(p.stem for p in (base / "configs").glob("*.cfg"))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        outs = {tree: Path(tmp) / label
                for tree, label in ((base, "base"), (head, "head"))}
        codes = {}
        for tree, out in outs.items():
            out.mkdir()
            codes[tree] = run_configs(tree, names, out)
        for name in names:
            print(f"{name}: exit {codes[base][name]} (base), "
                  f"{codes[head][name]} (head)")
            if codes[base][name] != codes[head][name]:
                failed = True
        files = {tree: sorted(p.name for p in out.iterdir())
                 for tree, out in outs.items()}
        if files[base] != files[head]:
            print("output files differ: only in base "
                  f"{sorted(set(files[base]) - set(files[head]))}, only in "
                  f"head {sorted(set(files[head]) - set(files[base]))}")
            failed = True
        identical = close = 0
        for name in sorted(set(files[base]) & set(files[head])):
            base_bytes, head_bytes = (
                (outs[tree] / name).read_bytes().replace(
                    str(tree).encode(), b"<tree>") for tree in (base, head))
            if base_bytes == head_bytes:
                identical += 1
                continue
            problems = compare_text(base_bytes.decode(), head_bytes.decode())
            if not problems:
                close += 1
            else:
                failed = True
                print(f"{name}: {len(problems)} lines differ")
                for problem in problems[:SHOWN]:
                    print(f"  {problem}")
    print(f"{len(names)} configs, {len(files[base])} base output files, "
          f"{identical} byte-identical, {close} equal only within tolerance: "
          + ("outputs differ" if failed else "outputs match"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
