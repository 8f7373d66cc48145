"""Diff the deterministic columns of re-recorded figure tables.

    python benchmarks/diff_figure_tables.py benchmarks/results/fig16a_selection_scalability.txt ...

A figure bench rewrites its table under ``benchmarks/results/``.  Its
timing columns move from run to run; the columns below do not (they
depend only on the seeded corpus and the query semantics).  For each
named file this compares those columns of the working copy with the
committed one (``git show HEAD:<file>``), prints every row that differs
and exits non-zero on any difference.
"""

from __future__ import annotations

import re
import subprocess
import sys

DETERMINISTIC = {
    "papers",
    "bytes",
    "system",
    "ontology",
    "epsilon",
    "operation",
    "results",
    "ont.accesses",
}


def columns(text):
    """The table's deterministic columns: (header, rows of cells)."""
    lines = text.splitlines()
    rule = next(index for index, line in enumerate(lines) if line.startswith("-"))
    spans = [match.span() for match in re.finditer(r"-+", lines[rule])]

    def cells(line):
        return [line[start:end].strip() for start, end in spans]

    header = cells(lines[rule - 1])
    keep = [index for index, name in enumerate(header) if name in DETERMINISTIC]
    rows = [cells(line) for line in lines[rule + 1 :] if line.strip()]
    return [header[i] for i in keep], [[row[i] for i in keep] for row in rows]


def main(paths) -> int:
    differs = 0
    for path in paths:
        committed = subprocess.run(
            ["git", "show", f"HEAD:{path}"], capture_output=True, text=True, check=True
        ).stdout
        with open(path, "r", encoding="utf-8") as handle:
            recorded = handle.read()
        (names, old), (_, new) = columns(committed), columns(recorded)
        if old == new:
            continue
        differs += 1
        print(f"{path}: {' '.join(names)}")
        for index in range(max(len(old), len(new))):
            before = old[index] if index < len(old) else None
            after = new[index] if index < len(new) else None
            if before != after:
                print(f"  row {index}: committed {before} recorded {after}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
