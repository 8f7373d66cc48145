"""Persisting similarity enhanced ontologies to JSON.

Section 6: "We also precompute an SEO during integration of different XML
databases" — a production deployment keeps that precomputation on disk so
query processes can load it instead of re-running fusion + SEA.  The
serialised form stores the *structure* (scoped terms, fused nodes,
enhanced nodes, both Hasse edge sets, the witness and mu mappings) plus
the measure name and epsilon; loading re-instantiates the measure from
the registry.

Round-trip guarantee: ``load_seo(dump_seo(seo))`` answers every
``similar`` / ``expand_*`` / ``leq`` query identically (tested).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, Iterable, List, Tuple

from ..errors import SimilarityError
from ..ioutils import atomic_write_text
from ..ontology.constraints import ScopedTerm
from ..ontology.fusion import FusedNode, FusionResult
from ..ontology.hierarchy import Hierarchy
from .measures import StringSimilarityMeasure, get_measure
from .sea import EnhancedNode, NodeDistance, SimilarityEnhancement
from .seo import SimilarityEnhancedOntology

FORMAT_VERSION = 1
PATCH_FORMAT_VERSION = 2


def _scoped_to_json(scoped: ScopedTerm) -> List[Any]:
    return [scoped.term, scoped.source]


def _scoped_from_json(payload: List[Any]) -> ScopedTerm:
    return ScopedTerm(payload[0], payload[1])


def _fused_to_json(node: FusedNode) -> List[List[Any]]:
    return sorted((_scoped_to_json(member) for member in node.members), key=str)


def _fused_from_json(payload: List[List[Any]]) -> FusedNode:
    return FusedNode(frozenset(_scoped_from_json(member) for member in payload))


def seo_to_dict(seo: SimilarityEnhancedOntology) -> Dict[str, Any]:
    """Serialise an SEO into a JSON-compatible dictionary."""
    measure = seo.measure
    if not measure.name:
        raise SimilarityError(
            "only registry measures (with a .name) can be persisted; "
            f"{type(measure).__name__} has none"
        )

    fused_nodes = sorted(seo.fusion.hierarchy.terms, key=str)
    fused_index = {node: i for i, node in enumerate(fused_nodes)}
    enhanced_nodes = sorted(seo.hierarchy.terms, key=str)
    enhanced_index = {node: i for i, node in enumerate(enhanced_nodes)}

    return {
        "format": FORMAT_VERSION,
        "measure": measure.name,
        "epsilon": seo.epsilon,
        "mode": seo.enhancement.mode,
        "fusion": {
            "nodes": [_fused_to_json(node) for node in fused_nodes],
            "edges": sorted(
                [fused_index[lower], fused_index[upper]]
                for lower, upper in seo.fusion.hierarchy.edges()
            ),
            "witness": [
                [_scoped_to_json(scoped), fused_index[node]]
                for scoped, node in sorted(
                    seo.fusion.witness.items(), key=lambda kv: str(kv[0])
                )
            ],
        },
        "enhancement": {
            "nodes": [
                sorted(fused_index[member] for member in node.members)
                for node in enhanced_nodes
            ],
            "edges": sorted(
                [enhanced_index[lower], enhanced_index[upper]]
                for lower, upper in seo.hierarchy.edges()
            ),
        },
    }


def seo_from_dict(
    payload: Dict[str, Any], trusted: bool = False
) -> SimilarityEnhancedOntology:
    """Rebuild an SEO from :func:`seo_to_dict` output.

    ``trusted`` restores the hierarchies via
    :meth:`~repro.ontology.hierarchy.Hierarchy.from_hasse`, skipping the
    transitive-reduction normalisation — sound because serialised edges
    come from a ``Hierarchy`` and are already Hasse.  Only pass it for
    payloads whose integrity was verified (e.g. a checksummed cache
    entry); untrusted files keep the full normalising constructor.
    """
    version = payload.get("format")
    if version != FORMAT_VERSION:
        raise SimilarityError(f"unsupported SEO format version {version!r}")
    measure = get_measure(payload["measure"])
    epsilon = float(payload["epsilon"])
    make_hierarchy = Hierarchy.from_hasse if trusted else Hierarchy

    fused_nodes = [_fused_from_json(node) for node in payload["fusion"]["nodes"]]
    fused_hierarchy = make_hierarchy(
        [
            (fused_nodes[lower], fused_nodes[upper])
            for lower, upper in payload["fusion"]["edges"]
        ],
        nodes=fused_nodes,
    )
    witness = {
        _scoped_from_json(scoped): fused_nodes[index]
        for scoped, index in payload["fusion"]["witness"]
    }
    fusion = FusionResult(fused_hierarchy, witness)

    enhanced_nodes = [
        EnhancedNode(frozenset(fused_nodes[i] for i in members))
        for members in payload["enhancement"]["nodes"]
    ]
    enhanced_hierarchy = make_hierarchy(
        [
            (enhanced_nodes[lower], enhanced_nodes[upper])
            for lower, upper in payload["enhancement"]["edges"]
        ],
        nodes=enhanced_nodes,
    )
    mu: Dict[Hashable, set] = {node: set() for node in fused_nodes}
    for enhanced in enhanced_nodes:
        for member in enhanced.members:
            mu[member].add(enhanced)
    enhancement = SimilarityEnhancement(
        enhanced_hierarchy,
        {node: frozenset(groups) for node, groups in mu.items()},
        epsilon,
        NodeDistance(measure),
        payload.get("mode", "strict"),
    )
    return SimilarityEnhancedOntology(fusion, enhancement)


def _enhanced_to_json(node: EnhancedNode) -> List[Any]:
    return sorted((_fused_to_json(member) for member in node.members), key=str)


def _enhanced_from_json(payload: List[Any]) -> EnhancedNode:
    return EnhancedNode(
        frozenset(_fused_from_json(member) for member in payload)
    )


def seo_patch_to_dict(
    previous: SimilarityEnhancedOntology,
    seo: SimilarityEnhancedOntology,
    removed: Iterable[EnhancedNode],
    added: Iterable[EnhancedNode],
) -> Dict[str, Any]:
    """The value-based wire form of one enhancement patch.

    ``seo`` must have been built from ``previous`` by
    :func:`~repro.similarity.sea.extend_enhancement` (minimal terms came
    and went), with ``removed``/``added`` the enhanced cliques the patch
    dropped and created.  The dict is JSON-compatible and sized to the
    *delta*, not the ontology: the withdrawn fused singletons, the new
    ones with their fusion covers, plus the removed/added cliques with
    the added ones' covers in H'.  All nodes are encoded by value
    (scoped-term sets), so :func:`apply_seo_patch` can replay it against
    any value-identical copy of ``previous`` — a worker's restored or
    fork-inherited SEO — without sharing object identity with the
    builder.
    """
    removed = list(removed)
    added = list(added)
    prev_fused = previous.fusion.hierarchy
    fused_hierarchy = seo.fusion.hierarchy

    def members_outside(cliques, hierarchy) -> List[FusedNode]:
        outside = {
            member
            for node in cliques
            for member in node.members
            if member not in hierarchy
        }
        return sorted(outside, key=str)

    new_fused = members_outside(added, prev_fused)
    return {
        "format": PATCH_FORMAT_VERSION,
        "epsilon": seo.epsilon,
        "fusion": {
            "removed": [
                _fused_to_json(node)
                for node in members_outside(removed, fused_hierarchy)
            ],
            "nodes": [_fused_to_json(node) for node in new_fused],
            "parents": [
                [
                    index,
                    [
                        _fused_to_json(parent)
                        for parent in sorted(
                            fused_hierarchy.parents(node), key=str
                        )
                    ],
                ]
                for index, node in enumerate(new_fused)
            ],
        },
        "enhancement": {
            "removed": [_enhanced_to_json(node) for node in removed],
            "added": [
                {
                    "members": _enhanced_to_json(node),
                    "parents": [
                        _enhanced_to_json(parent)
                        for parent in sorted(
                            seo.hierarchy.parents(node), key=str
                        )
                    ],
                }
                for node in added
            ],
        },
    }


def apply_seo_patch(
    seo: SimilarityEnhancedOntology, payload: Dict[str, Any]
) -> SimilarityEnhancedOntology:
    """Replay a :func:`seo_patch_to_dict` payload against a live SEO.

    Returns a new SEO (copy-on-write — ``seo`` is never mutated, and all
    unaffected structure is shared with it), value-identical to the one
    the patch was recorded from.  Replay is idempotent: a patch whose
    additions are all present and removals all absent returns ``seo``
    unchanged, so a worker that already converged (e.g. one respawned
    from an advanced snapshot mid-broadcast) is a no-op.  A patch that
    neither applies cleanly nor was already applied raises
    :class:`~repro.errors.SimilarityError` — the caller's system is not
    the base the patch was computed against.
    """
    version = payload.get("format")
    if version != PATCH_FORMAT_VERSION:
        raise SimilarityError(f"unsupported SEO patch format {version!r}")
    if float(payload["epsilon"]) != seo.epsilon:
        raise SimilarityError("SEO patch epsilon does not match the live SEO")
    removed = [
        _enhanced_from_json(entry)
        for entry in payload["enhancement"]["removed"]
    ]
    added_entries = payload["enhancement"]["added"]
    added = [_enhanced_from_json(entry["members"]) for entry in added_entries]
    hierarchy = seo.hierarchy
    added_present = sum(1 for node in added if node in hierarchy)
    removed_present = sum(1 for node in removed if node in hierarchy)
    if added_present == len(added) and removed_present == 0:
        return seo  # already applied: idempotent replay
    if added_present or removed_present != len(removed):
        raise SimilarityError("SEO patch does not apply to this SEO")

    gone_fused = [
        _fused_from_json(entry) for entry in payload["fusion"]["removed"]
    ]
    shrunk_fusion = seo.fusion.hierarchy.without_leaves(gone_fused)
    if shrunk_fusion is None:
        raise SimilarityError("SEO patch fusion removals do not apply")
    fused_nodes = [
        _fused_from_json(entry) for entry in payload["fusion"]["nodes"]
    ]
    fused_edges: List[Tuple[FusedNode, FusedNode]] = []
    isolated: List[FusedNode] = []
    for index, parents in payload["fusion"]["parents"]:
        node = fused_nodes[index]
        if parents:
            fused_edges.extend(
                (node, _fused_from_json(parent)) for parent in parents
            )
        else:
            isolated.append(node)
    extended_fusion = shrunk_fusion.extended_with_lower_terms(
        fused_edges, new_nodes=isolated
    )
    if extended_fusion is None:
        raise SimilarityError("SEO patch fusion extension does not apply")
    witness = dict(seo.fusion.witness)
    for node in gone_fused:
        for scoped in node.members:
            del witness[scoped]
    for node in fused_nodes:
        for scoped in node.members:
            witness[scoped] = node
    fusion = FusionResult(extended_fusion, witness)

    patched = hierarchy.without_leaves(removed)
    if patched is None:
        raise SimilarityError("SEO patch removals do not apply")
    new_edges: List[Tuple[EnhancedNode, EnhancedNode]] = []
    roots: List[EnhancedNode] = []
    for node, entry in zip(added, added_entries):
        if entry["parents"]:
            new_edges.extend(
                (node, _enhanced_from_json(parent))
                for parent in entry["parents"]
            )
        else:
            roots.append(node)
    extended = patched.extended_with_lower_terms(new_edges, new_nodes=roots)
    if extended is None:
        raise SimilarityError("SEO patch additions do not apply")
    mu = dict(seo.enhancement.mu)
    for node in gone_fused:
        del mu[node]
    for clique in removed:
        for member in clique.members:
            groups = mu.get(member)
            if groups:
                mu[member] = frozenset(g for g in groups if g != clique)
    for clique in added:
        for member in clique.members:
            mu[member] = (mu.get(member) or frozenset()) | {clique}
    enhancement = SimilarityEnhancement(
        extended,
        mu,
        seo.epsilon,
        seo.enhancement.distance,
        seo.enhancement.mode,
    )
    return SimilarityEnhancedOntology._patched(
        fusion, enhancement, seo, removed, added
    )


def dump_seo(seo: SimilarityEnhancedOntology, indent: int = 0) -> str:
    """Serialise an SEO to a JSON string."""
    return json.dumps(seo_to_dict(seo), indent=indent or None, sort_keys=True)


def load_seo(text: str) -> SimilarityEnhancedOntology:
    """Load an SEO from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimilarityError(f"corrupt SEO data: {exc}") from exc
    return seo_from_dict(payload)


def save_seo(seo: SimilarityEnhancedOntology, path: str) -> None:
    """Write an SEO to a JSON file (atomically: temp + fsync + replace).

    SEOs are the dominant precomputation cost (taxonomic similarity over
    the fused hierarchy), so their on-disk cache must never be left torn
    by a crash mid-write.
    """
    atomic_write_text(path, dump_seo(seo, indent=2))


def read_seo(path: str) -> SimilarityEnhancedOntology:
    """Read an SEO from a JSON file.

    Raises :class:`~repro.errors.SimilarityError` on truncated or
    otherwise corrupt files (callers can then rebuild from source data).
    """
    with open(path, "r", encoding="utf-8") as handle:
        return load_seo(handle.read())
