"""Structured report of one SEO precomputation (:meth:`TossSystem.build`).

The build is the system's dominant cost, so operators need to see where
the time went and what the optimisation layers did: per relation, the
fusion/SEA split, the ladder rung that ran and why, and how many of the
all-pairs comparisons the candidate filter pruned.  The report is
JSON-round-trippable so :func:`repro.core.persistence.save_system` can
persist it next to the saved system and ``db stats`` can show it later
without rebuilding anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..similarity.seo import SeoBuildStats

FORMAT_VERSION = 1


@dataclass
class RelationBuild:
    """One relation's slice of the build (isa, part-of, ...)."""

    relation: str
    fusion_seconds: float = 0.0
    sea_seconds: float = 0.0
    total_seconds: float = 0.0
    #: :meth:`~repro.similarity.sea.SeaStats.to_dict` of the graph phase;
    #: None on the reuse rung (nothing was computed).
    sea: Optional[Dict[str, Any]] = None
    #: The previous build was carried: reused outright or patched.
    incremental: bool = False
    #: The fused hierarchy was extended instead of recondensed.
    fusion_incremental: bool = False
    #: The previous enhancement was patched in place (SEA never ran).
    enhancement_patched: bool = False
    #: Builds whose fusion followed the previous one since the last
    #: from-scratch fusion (0 = full).
    chain_depth: int = 0
    #: The ladder rung that ran: ``reuse`` (previous SEO returned),
    #: ``patch`` (enhancement patched in place) or ``full`` (SEA ran
    #: from scratch).
    rung: str = "full"
    #: Off the two cheap rungs, the precondition that failed: the write's
    #: ``fallback_reason``, a changed parameter, or the fusion /
    #: enhancement-patch step's :class:`~repro.errors.DeltaRefused` reason.
    #: The first build after a load leads with what became of the
    #: restored SEO: ``restored`` (adopted; alone on the cheap rungs) or
    #: ``restore-refused:<reason>`` (in place of ``first-build``).
    rung_reason: Optional[str] = None

    @classmethod
    def from_stats(
        cls, relation: str, stats: SeoBuildStats, reason: Optional[str] = None
    ) -> "RelationBuild":
        """``reason`` is why the fusion could not follow the deltas, if so."""
        if stats.enhancement_patched:
            rung = "patch"
        else:
            rung = "full"
            reason = reason or stats.patch_refused
        return cls(
            relation=relation,
            fusion_seconds=stats.fusion_seconds,
            sea_seconds=stats.sea_seconds,
            total_seconds=stats.total_seconds,
            sea=stats.sea.to_dict() if stats.sea is not None else None,
            incremental=stats.enhancement_patched,
            fusion_incremental=stats.fusion_incremental,
            enhancement_patched=stats.enhancement_patched,
            chain_depth=stats.chain_depth,
            rung=rung,
            rung_reason=reason,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "fusion_seconds": self.fusion_seconds,
            "sea_seconds": self.sea_seconds,
            "total_seconds": self.total_seconds,
            "sea": self.sea,
            "incremental": self.incremental,
            "fusion_incremental": self.fusion_incremental,
            "enhancement_patched": self.enhancement_patched,
            "chain_depth": self.chain_depth,
            "rung": self.rung,
            "rung_reason": self.rung_reason,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RelationBuild":
        rung = payload.get("rung", "full")
        incremental = bool(payload.get("incremental", False))
        if rung == "delta":
            # Saved while SEA could replay a verdict cache: SEA ran over
            # the whole hierarchy, which is the full rung now.
            rung, incremental = "full", False
        return cls(
            relation=payload["relation"],
            fusion_seconds=float(payload.get("fusion_seconds", 0.0)),
            sea_seconds=float(payload.get("sea_seconds", 0.0)),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            sea=payload.get("sea"),
            incremental=incremental,
            fusion_incremental=bool(payload.get("fusion_incremental", False)),
            enhancement_patched=bool(payload.get("enhancement_patched", False)),
            chain_depth=int(payload.get("chain_depth", 0)),
            rung=rung,
            rung_reason=payload.get("rung_reason"),
        )


@dataclass
class BuildReport:
    """Everything one :meth:`~repro.core.system.TossSystem.build` did."""

    measure: str = ""
    epsilon: float = 0.0
    mode: str = "order-safe"
    build_seconds: float = 0.0
    degraded: bool = False
    error: Optional[str] = None
    relations: List[RelationBuild] = field(default_factory=list)
    #: The build's span tree (:meth:`repro.obs.trace.Span.to_dict` shape);
    #: None when the build ran without tracing.
    trace: Optional[Dict[str, Any]] = None

    # -- aggregates ---------------------------------------------------------

    def _sea_total(self, key: str) -> int:
        return sum(
            int(r.sea.get(key, 0)) for r in self.relations if r.sea is not None
        )

    @property
    def total_pairs(self) -> int:
        return self._sea_total("total_pairs")

    @property
    def pairs_pruned(self) -> int:
        return self._sea_total("pairs_pruned")

    @property
    def candidates(self) -> int:
        return self._sea_total("candidates")

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "format": FORMAT_VERSION,
            "measure": self.measure,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "build_seconds": self.build_seconds,
            "degraded": self.degraded,
            "error": self.error,
            "relations": [r.to_dict() for r in self.relations],
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BuildReport":
        return cls(
            measure=payload.get("measure", ""),
            epsilon=float(payload.get("epsilon", 0.0)),
            mode=payload.get("mode", "order-safe"),
            build_seconds=float(payload.get("build_seconds", 0.0)),
            degraded=bool(payload.get("degraded", False)),
            error=payload.get("error"),
            relations=[
                RelationBuild.from_dict(r) for r in payload.get("relations", ())
            ],
            trace=payload.get("trace"),
        )

    def summary(self) -> str:
        """Human-readable multi-line rendering (used by the CLI)."""
        lines = [
            f"build: measure={self.measure} epsilon={self.epsilon} "
            f"mode={self.mode}",
            f"  total {self.build_seconds:.3f}s"
            + (f"  DEGRADED: {self.error}" if self.degraded else ""),
        ]
        for r in self.relations:
            detail = f"rung {r.rung}"
            if r.rung_reason:
                detail += f" ({r.rung_reason})"
            detail += f", fusion {r.fusion_seconds:.3f}s, sea {r.sea_seconds:.3f}s"
            if r.incremental or r.fusion_incremental:
                detail += f", incremental (chain depth {r.chain_depth})"
            if r.sea is not None:
                detail += (
                    f", pairs {r.sea.get('total_pairs', 0)}"
                    f" (pruned {r.sea.get('pairs_pruned', 0)},"
                    f" verified {r.sea.get('candidates', 0)})"
                    f", edges {r.sea.get('graph_edges', 0)}"
                    f", cliques {r.sea.get('cliques', 0)}"
                    f", {'filtered' if r.sea.get('filter_used') else 'all-pairs'}"
                )
            lines.append(f"  {r.relation}: {detail}")
        return "\n".join(lines)
