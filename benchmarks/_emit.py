"""Shared result emission for the standalone benchmark scripts.

The standalone bench (``bench_serving_faults``) writes its payload
twice: the canonical machine-readable copy under ``benchmarks/results/``
and a trajectory copy at the repo root (``BENCH_<name>.json``).  This
module is the single place that knows the layout.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Version of the emitted payload layout.  Bump when the shape every
#: benchmark shares changes (e.g. the ``meta`` block itself), so readers
#: of committed ``BENCH_*.json`` files can tell old records apart.
SCHEMA_VERSION = 2


def default_output_paths(name, smoke=False):
    """(canonical, trajectory) paths for a benchmark called ``name``.

    Smoke runs keep only the canonical copy — CI artefacts come from
    ``benchmarks/results/``, and the repo-root trajectory files are
    reserved for full sweeps.
    """
    out = RESULTS_DIR / (f"{name}_smoke.json" if smoke else f"{name}.json")
    trajectory = None if smoke else REPO_ROOT / f"BENCH_{name}.json"
    return out, trajectory


def _git_describe():
    """``git describe --always --dirty`` for the repo, or None.

    Best-effort provenance: benchmarks must run (and emit) fine from a
    tarball or a container without git.
    """
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def bench_meta():
    """The provenance block every emitted payload carries.

    One place defines it so the committed ``BENCH_*.json`` files
    cannot drift apart on what a record says about the machine
    and tree that produced it.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "cpu_count": os.cpu_count(),
        "git_describe": _git_describe(),
    }


def emit_results(results, out_path=None, trajectory_path=None):
    """Write ``results`` as pretty JSON to every non-None path given.

    Both copies are rendered from the same string, so they are
    byte-identical by construction.  A shared :func:`bench_meta`
    provenance block is stamped onto the payload (without mutating the
    caller's dict) unless the caller already supplied one.  Returns the
    list of paths written.
    """
    if isinstance(results, dict) and "meta" not in results:
        results = {**results, "meta": bench_meta()}
    text = json.dumps(results, indent=2) + "\n"
    written = []
    for path in (out_path, trajectory_path):
        if path is None:
            continue
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written

