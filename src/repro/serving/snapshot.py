"""Snapshots of a built TossSystem for worker processes.

One state format, two ways for a worker to boot, chosen by platform
capability:

``fork`` (the default wherever available)
    The worker pool forks, so every worker shares the parent's built
    system — database, search indexes, SEOs, compiled caches — through
    copy-on-write pages.  Nothing is serialized; snapshot capture is
    O(1).

``pickle`` (spawn-only platforms, or forced for tests)
    A :class:`TossSystem` is not picklable (its type system carries
    closures), so a worker boots from the snapshot's **genesis**
    (:meth:`SystemSnapshot.genesis`): the :class:`SnapshotDelta` from an
    empty system to the live one — every collection shipped whole in
    scan order, every SEO in its persisted-dict form
    (:func:`repro.similarity.persistence.seo_to_dict`), plus the measure
    name and the degraded flag a bare system lacks.  :func:`boot`
    replays it into a bare system with the same
    :func:`apply_snapshot_delta` a live worker runs on a refresh
    (ontology re-extraction skipped: the SEOs carry the queried state).

Either way the snapshot records the database's **generation signature**
(per-collection mutation counters) at capture time; the serving layer
compares signatures before dispatch and raises
:class:`~repro.errors.SnapshotStaleError` when the live system has
moved on, so a pool can never silently answer from outdated data.

**Delta refresh.**  A mutated system does not force a full re-capture:
:meth:`SystemSnapshot.delta` replays each collection's changelog
(:meth:`~repro.xmldb.collection.Collection.changes_since`) into a
compact :class:`SnapshotDelta` — the ordered mutation ops, the final
text of each surviving upserted document, and, per relation whose SEO
object identity moved since capture (the system's incremental build
keeps unchanged SEO objects alive precisely so this comparison works),
either the chain of *enhancement patches* the patched builds recorded
(when every build since capture took the
:func:`~repro.similarity.sea.extend_enhancement` path, whether terms
came or went — the payload is then sized to the writes, not the
ontology) or the full serialized SEO as the fallback.  :func:`apply_snapshot_delta` replays a delta inside
a live worker, converging its inherited/booted system to the target
generation signature bit-for-bit; the supervised pool broadcasts it
between batches instead of respawning the fleet.  A truncated
changelog, a vanished collection or an unbuilt system makes ``delta``
return None and the caller falls back to the full re-capture path.
"""

from __future__ import annotations

import multiprocessing
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Separator between documents inside one compressed collection segment.
#: NUL can never appear in serialized XML text.
_DOC_SEPARATOR = "\x00"

from ..errors import ServingError

#: Transport modes a snapshot can use.
FORK = "fork"
PICKLE = "pickle"


def default_mode() -> str:
    """``fork`` where the platform supports it, else ``pickle``."""
    return FORK if FORK in multiprocessing.get_all_start_methods() else PICKLE


@dataclass
class SnapshotDelta:
    """The compact difference between a snapshot and the live system.

    Plain picklable data, shipped to workers over their request queues
    (or, as a genesis, as a spawn argument).  ``collections`` maps each
    mutated collection to its ordered op list (``(op, key)`` pairs
    replayed exactly as the changelog recorded them, so worker-side scan
    order matches the parent's), the surviving upserted keys, and one
    compressed segment holding those keys' final texts.  ``seos`` carries
    one entry per relation whose SEO changed since capture:
    ``{"patches": [...]}`` with the ordered
    :func:`~repro.similarity.persistence.seo_patch_to_dict` chain when
    every build in between patched its predecessor (workers replay them
    in place, preserving all unaffected structure), else the relation's
    full persisted-dict form.  ``measure`` names the system's registry
    measure (None for a custom one) and ``degraded`` says the system
    serves exact matches only — what :func:`boot` needs beyond the
    documents and SEOs.
    """

    base_signature: Tuple[Tuple[str, int], ...]
    target_signature: Tuple[Tuple[str, int], ...]
    collections: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    seos: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    epsilon: float = 0.0
    measure: Optional[str] = None
    degraded: bool = False

    @property
    def documents_shipped(self) -> int:
        return sum(
            len(segment["upsert_keys"]) for segment in self.collections.values()
        )


@dataclass
class SystemSnapshot:
    """An immutable capture of a built system for worker processes."""

    mode: str
    #: The live system (parent-side planning and, under fork, the object
    #: the workers inherit copy-on-write).
    system: Any
    #: Database generation signature at capture time.
    signature: Tuple[Tuple[str, int], ...]
    #: The SEO objects the snapshot served at capture time, per relation.
    #: Deltas compare object identity against the live context: the
    #: system's no-op build path returns the same objects, so an
    #: unchanged relation ships nothing.
    seo_refs: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: The genesis delta pickle-mode workers boot from, built on first
    #: use and dropped by :meth:`advance`.
    _genesis: Optional[SnapshotDelta] = field(default=None, init=False, repr=False)

    @classmethod
    def capture(cls, system, mode: Optional[str] = None) -> "SystemSnapshot":
        """Snapshot ``system`` for serving.

        The system must be queryable — built, or explicitly degraded to
        exact matching — since workers answer queries, not builds.
        """
        if system.executor is None:
            raise ServingError("build() the system before serving it")
        mode = mode if mode is not None else default_mode()
        if mode not in (FORK, PICKLE):
            raise ServingError(f"unknown snapshot mode {mode!r}")
        if mode == FORK and FORK not in multiprocessing.get_all_start_methods():
            raise ServingError("fork snapshots are unavailable on this platform")
        return cls(
            mode=mode,
            system=system,
            signature=system.database.generation_signature(),
            seo_refs=(
                dict(system.context.seos) if system.context is not None else {}
            ),
        )

    def stale(self, system=None) -> bool:
        """Whether the (given or captured) system changed since capture."""
        system = system if system is not None else self.system
        return system.database.generation_signature() != self.signature

    def delta(self, system=None) -> Optional[SnapshotDelta]:
        """The :class:`SnapshotDelta` from this snapshot to the live
        system, or None when a full re-capture is required.

        None means: the system is not queryable (mutated but not yet
        rebuilt), a collection's changelog no longer reaches back to the
        snapshot generation, or a collection disappeared.  A non-stale
        system yields an empty-but-valid delta.
        """
        system = system if system is not None else self.system
        if system.context is None:
            return None
        return _diff(system, self.signature, self.seo_refs)

    def advance(self, delta: SnapshotDelta) -> None:
        """Move this snapshot's bookkeeping to the delta's target state.

        Called by the pool once a delta is being applied: the signature
        jumps to the target (so freshness checks pass), the SEO identity
        refs re-anchor on the live context, and any genesis is dropped —
        :meth:`genesis` rebuilds it lazily on the next respawn, keeping
        the delta path free of full re-serialization.
        The SEOs now anchored on forget their patch provenance: the
        links behind them have been shipped, so dropping them frees the
        superseded SEOs and restarts the :data:`~repro.similarity.seo
        .MAX_PATCH_CHAIN` count — a server that refreshes after every
        write never reaches the cap.
        """
        self.signature = delta.target_signature
        if self.system.context is not None:
            self.seo_refs = dict(self.system.context.seos)
            for seo in self.seo_refs.values():
                seo.patch = None
                seo.patch_depth = 0
        self._genesis = None

    def genesis(self) -> Optional[SnapshotDelta]:
        """The delta from an empty system to the live one, which a
        pickle-mode worker boots from (see :func:`boot`); rebuilt if
        :meth:`advance` dropped it.

        Fork snapshots have no genesis (returns None); respawned fork
        workers inherit the live parent and are current by construction.
        """
        if self.mode != PICKLE:
            return None
        if self._genesis is None:
            if not self.system.measure.name:
                raise ServingError(
                    "only registry measures can be pickle-snapshotted; "
                    "register the custom measure with "
                    "repro.similarity.register_measure or serve with fork "
                    "snapshots"
                )
            # From an empty signature no changelog is consulted and no
            # collection can vanish, so the diff always exists.
            self._genesis = _diff(self.system, (), {})
        return self._genesis


def _diff(
    system,
    signature: Tuple[Tuple[str, int], ...],
    seo_refs: Dict[str, Any],
) -> Optional[SnapshotDelta]:
    """The :class:`SnapshotDelta` taking a worker at ``signature``
    serving ``seo_refs`` to ``system``'s state, or None when a
    collection's changelog no longer reaches back or a captured
    collection no longer exists."""
    from ..similarity.persistence import seo_patch_to_dict, seo_to_dict
    from ..xmldb.serializer import serialize

    base = dict(signature)
    collections: Dict[str, Dict[str, Any]] = {}
    for collection in system.database.collections():
        base_generation = base.pop(collection.name, None)
        if base_generation == collection.generation:
            continue
        if base_generation is None:
            # A collection the worker lacks ships whole, in scan order
            # (its changelog may already have wrapped).
            ops = [("add", key) for key in collection.keys()]
        else:
            changes = collection.changes_since(base_generation)
            if changes is None:
                return None  # changelog truncated or foreign
            ops = [(op, key) for op, key in changes]
        upsert_keys: List[str] = []
        seen = set()
        for op, key in ops:
            if op != "remove" and key in collection and key not in seen:
                seen.add(key)
                upsert_keys.append(key)
        texts = [serialize(collection.get_document(key)) for key in upsert_keys]
        collections[collection.name] = {
            "ops": ops,
            "upsert_keys": upsert_keys,
            "texts_z": zlib.compress(_DOC_SEPARATOR.join(texts).encode("utf-8"), 6),
            "generation": collection.generation,
        }
    if base:
        return None  # a captured collection no longer exists
    seos: Dict[str, Dict[str, Any]] = {}
    live = system.context.seos if system.context is not None else {}
    for relation, seo in live.items():
        served = seo_refs.get(relation)
        if served is seo:
            continue
        chain = _seo_patch_chain(seo, served)
        if chain is not None:
            # Every build since capture patched its predecessor, and
            # the chain bottoms out at the SEO this snapshot served:
            # ship the patches (sized to the writes) instead of the
            # whole SEO, and let workers replay them in place.
            seos[relation] = {
                "patches": [
                    seo_patch_to_dict(previous, current, removed, added)
                    for previous, current, removed, added in chain
                ]
            }
        else:
            seos[relation] = seo_to_dict(seo)
    return SnapshotDelta(
        base_signature=tuple(signature),
        target_signature=system.database.generation_signature(),
        collections=collections,
        seos=seos,
        epsilon=system.epsilon,
        measure=system.measure.name,
        degraded=system.degraded,
    )


def _seo_patch_chain(seo, base):
    """The patch links leading from ``base`` to ``seo``, oldest first.

    Each link is ``(previous, current, removed, added)`` as recorded by
    the patched build path (:attr:`SimilarityEnhancedOntology.patch`).
    Returns None when the chain does not reach ``base`` — some build in
    between ran from scratch, more than
    :data:`~repro.similarity.seo.MAX_PATCH_CHAIN` patched builds piled
    up since the last refresh, another snapshot already advanced past
    ``base``, or the snapshot never served this relation — and the
    caller ships the full SEO instead.
    """
    if base is None:
        return None
    links = []
    cursor = seo
    while cursor is not base:
        patch = getattr(cursor, "patch", None)
        if patch is None:
            return None
        previous, removed, added = patch
        links.append((previous, cursor, removed, added))
        cursor = previous
    links.reverse()
    return links


def boot(genesis: SnapshotDelta):
    """A bare queryable :class:`~repro.core.system.TossSystem` replaying
    a :meth:`SystemSnapshot.genesis` delta (the pickle-mode worker boot).

    The booted system answers queries identically to the original: same
    documents in the same collection order and generations, same SEOs,
    same epsilon and measure, same degraded flag.
    """
    from ..core.system import TossSystem

    system = TossSystem(measure=genesis.measure)
    apply_snapshot_delta(system, genesis)
    return system


def apply_snapshot_delta(system, delta: SnapshotDelta):
    """Replay ``delta`` onto a worker's system; returns the resulting
    generation signature (the caller's ack compares it to the target).

    Runs inside a worker, against the fork-inherited system copy, a
    genesis-booted one, or (from :func:`boot`) a bare one.  Document
    ops replay in changelog order — an upsert applies the key's *final*
    text at each occurrence (the last occurrence fixes its scan
    position, matching the parent's replace-moves-to-end semantics),
    and ops on keys that did not survive to the target state are
    skipped, which cannot perturb the relative order of surviving
    documents.  Changed SEOs converge by replaying their shipped
    enhancement-patch chain against the live SEO (copy-on-write,
    delta-sized work) or, for full-form entries, by deserializing the
    replacement; either way the result is installed through
    :meth:`~repro.core.system.TossSystem.install_seos`, whose executor
    keeps its compiled plans and invalidates them per context epoch.  A
    delta with no SEOs from a degraded system degrades the worker too.
    """
    from ..similarity.persistence import apply_seo_patch, seo_from_dict

    database = system.database
    for name, segment in delta.collections.items():
        collection = (
            database.get_collection(name)
            if name in database
            else database.create_collection(name)
        )
        blob = zlib.decompress(segment["texts_z"]).decode("utf-8")
        keys = segment["upsert_keys"]
        texts = blob.split(_DOC_SEPARATOR) if keys else []
        if len(texts) != len(keys):
            raise ServingError(
                f"delta segment corrupt: {len(keys)} keys for "
                f"{len(texts)} documents"
            )
        final = dict(zip(keys, texts))
        for op, key in segment["ops"]:
            if op == "remove":
                if key in collection:
                    collection.remove_document(key)
                continue
            text = final.get(key)
            if text is None:
                continue  # upserted then removed before the target state
            if key in collection:
                collection.replace_document(key, text)
            else:
                collection.add_document(key, text)
        collection.generation = segment["generation"]
    system.epsilon = float(delta.epsilon)
    if delta.seos:
        seos = dict(system.context.seos) if system.context is not None else {}
        for relation, entry in delta.seos.items():
            if "patches" in entry:
                seo = seos.get(relation)
                if seo is None:
                    raise ServingError(
                        f"delta ships an SEO patch for {relation!r} but "
                        "the worker has no SEO to patch"
                    )
                for patch in entry["patches"]:
                    seo = apply_seo_patch(seo, patch)
                seos[relation] = seo
            else:
                seos[relation] = seo_from_dict(entry)
        system.install_seos(seos)
    elif delta.degraded:
        system.degrade()
    return database.generation_signature()
