"""Whole-system persistence: save a built TossSystem, reload it for queries.

Combines the two lower-level persistence layers — the XML database
(:mod:`repro.xmldb.storage`) and the similarity enhanced ontologies
(:mod:`repro.similarity.persistence`) — plus the system configuration into
one directory:

    root/
      system.json          measure, epsilon, DBA constraints, Ontology Maker
      database/            one checksummed segment per collection + manifest
      seo/<relation>.json  one persisted SEO per relation (compact JSON)

A loaded system is immediately queryable (its SEOs are restored verbatim,
not rebuilt) and writable (its Ontology Maker — lexicon, content tags,
DBA rules — is restored from ``system.json``; each instance's ontology is
extracted with it on first use).  Loading derives no build state.  The
first write or :meth:`~repro.core.system.TossSystem.build` afterwards
adopts the restored SEOs as the build ladder's state once it has proven
them the build of the restored documents under the saved maker,
constraints, epsilon and measure (order-safe mode), so that build is a
``patch`` or ``reuse`` like any other; otherwise it names why it refused
and recomputes from the restored documents — which is also how
constraint edits are applied after loading.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from ..errors import ReproError, SimilarityError, TossError
from ..ioutils import atomic_write_text
from ..ontology.constraints import parse_constraint
from ..ontology.hierarchy import Ontology
from ..ontology.maker import OntologyMaker
from ..similarity.persistence import dump_seo, read_seo
from ..xmldb.storage import load_database, save_database
from .build_report import BuildReport
from .system import TossSystem

_SYSTEM_FILE = "system.json"
#: ``system.json`` format.  2 added the ``maker`` block (the Ontology
#: Maker's lexicon, content tags, rules and term cap); format 1 files,
#: which a load silently paired with a default maker, are refused.
SYSTEM_FORMAT = 2
_DATABASE_DIR = "database"
_SEO_DIR = "seo"
_BUILD_REPORT_FILE = "build_report.json"


def save_system(system: TossSystem, root_dir: str) -> None:
    """Persist a *built* system (database, SEOs, configuration)."""
    if system.context is None:
        raise TossError("build() the system before saving it")
    if not system.measure.name:
        raise TossError(
            "only registry measures can be persisted; register the custom "
            "measure with repro.similarity.register_measure first"
        )
    os.makedirs(root_dir, exist_ok=True)
    save_database(system.database, os.path.join(root_dir, _DATABASE_DIR))
    seo_dir = os.path.join(root_dir, _SEO_DIR)
    os.makedirs(seo_dir, exist_ok=True)
    for relation, seo in system.context.seos.items():
        # Compact: an SEO is machine-read cache, and indentation is a third
        # of its bytes (``repro.cli seo --out`` still pretty-prints one).
        atomic_write_text(os.path.join(seo_dir, f"{relation}.json"), dump_seo(seo))
    if system.build_report is not None:
        atomic_write_text(
            os.path.join(root_dir, _BUILD_REPORT_FILE),
            json.dumps(system.build_report.to_dict(), sort_keys=True),
        )

    constraints: Dict[str, List[str]] = {
        relation: [repr(c) for c in items]
        for relation, items in system._constraints.items()
    }
    payload = {
        "format": SYSTEM_FORMAT,
        "measure": system.measure.name,
        "epsilon": system.epsilon,
        "instances": sorted(system.instances),
        "constraints": constraints,
        "relations": sorted(system.context.seos),
        "maker": system.maker.to_dict(),
    }
    # The system file is written last and atomically: a crash anywhere in
    # save_system leaves either the previous complete system or the new one.
    # Compact, like the SEO files: with the maker's lexicon aboard,
    # indentation would be a third of its bytes.
    atomic_write_text(
        os.path.join(root_dir, _SYSTEM_FILE), json.dumps(payload, sort_keys=True)
    )


def load_build_report(root_dir: str) -> "BuildReport | None":
    """The persisted build report of a saved system, or None.

    Best-effort: the report is diagnostics, so a missing or damaged file
    never blocks loading the system itself.
    """
    path = os.path.join(root_dir, _BUILD_REPORT_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return BuildReport.from_dict(json.load(handle))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def load_system(root_dir: str, on_corruption: str = "raise") -> TossSystem:
    """Restore a system saved with :func:`save_system`, ready to query.

    ``on_corruption`` is forwarded to
    :func:`~repro.xmldb.storage.load_database`; in ``"quarantine"`` mode
    damaged document files are moved aside instead of aborting the load
    (see ``system.database.recovery_report``), and unreadable SEO files
    are recomputed from the restored documents via
    :meth:`~repro.core.system.TossSystem.build` rather than raised.
    """
    path = os.path.join(root_dir, _SYSTEM_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise TossError(f"no saved system at {root_dir}") from None
    except json.JSONDecodeError as exc:
        raise TossError(f"corrupt system file at {path}: {exc}") from exc
    if payload.get("format") != SYSTEM_FORMAT:
        raise TossError(
            f"unsupported system format {payload.get('format')!r} at {path} "
            f"(this version reads format {SYSTEM_FORMAT}, which records the "
            "Ontology Maker; save the system again from its sources)"
        )
    try:
        maker = OntologyMaker.from_dict(payload["maker"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TossError(f"system file {path}: cannot restore {exc}") from exc

    system = TossSystem(
        measure=payload["measure"], epsilon=float(payload["epsilon"]), maker=maker
    )
    system.database = load_database(
        os.path.join(root_dir, _DATABASE_DIR), on_corruption=on_corruption
    )
    system.build_report = load_build_report(root_dir)

    # The restored SEOs below carry the queried state; an instance's own
    # ontology is only consulted by a future build or write, and is
    # extracted then (with the restored maker), not here.
    for name in payload.get("instances", ()):
        if on_corruption == "quarantine" and name not in system.database:
            continue  # the whole collection was lost to quarantine
        system.restore_instance(name)

    for relation, texts in payload.get("constraints", {}).items():
        for text in texts:
            system._constraints.setdefault(relation, []).append(
                parse_constraint(text)
            )

    seos = {}
    damaged: List[str] = []
    for relation in payload.get("relations", ()):
        seo_path = os.path.join(root_dir, _SEO_DIR, f"{relation}.json")
        try:
            seos[relation] = read_seo(seo_path)
        except (OSError, SimilarityError, KeyError, TypeError, ValueError) as exc:
            if on_corruption != "quarantine":
                raise TossError(
                    f"corrupt or missing SEO file {seo_path}: {exc}"
                ) from exc
            damaged.append(relation)
    if damaged and system.instances:
        # The saved SEOs are expensive but recomputable: rebuild all
        # relations from the restored documents instead of failing.
        system.build(
            relations=tuple(payload.get("relations", ())), on_failure="degrade"
        )
        return system
    if Ontology.ISA not in seos:
        if on_corruption == "quarantine":
            # nothing left to rebuild from (documents were quarantined
            # too): hand back an exact-match system rather than nothing
            system.degrade()
            return system
        raise TossError("saved system lacks an isa SEO")
    system.install_restored(seos)
    return system
