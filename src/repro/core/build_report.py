"""Structured report of one SEO precomputation (:meth:`TossSystem.build`).

The build is the system's dominant cost, so operators need to see where
the time went and what the optimisation layers did: per relation, the
fusion/SEA split, whether the persistent similarity-graph cache hit, and
how many of the all-pairs comparisons the candidate filter pruned.  The
report is JSON-round-trippable so :func:`repro.core.persistence.save_system`
can persist it next to the saved system and ``db stats`` can show it
later without rebuilding anything.
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
    cache_hit: bool = False
    cache_key: Optional[str] = None
    fusion_seconds: float = 0.0
    sea_seconds: float = 0.0
    total_seconds: float = 0.0
    #: :meth:`~repro.similarity.sea.SeaStats.to_dict` of the graph phase;
    #: None on a cache hit (nothing was computed).
    sea: Optional[Dict[str, Any]] = None
    #: The similarity graph was delta-maintained from the previous build.
    incremental: bool = False
    #: The fused hierarchy was extended instead of recondensed.
    fusion_incremental: bool = False
    #: The previous enhancement was patched in place (SEA never ran).
    enhancement_patched: bool = False
    #: Incremental builds since the last from-scratch build (0 = full).
    chain_depth: int = 0
    #: The ladder rung that ran: ``reuse`` (previous SEO returned),
    #: ``patch`` (enhancement patched in place), ``delta`` (SEA ran,
    #: replaying cached verdicts) or ``full``.
    rung: str = "full"
    #: Off the two cheap rungs, the precondition that failed: the write's
    #: ``fallback_reason``, a changed parameter, or the fusion /
    #: enhancement-patch step's :class:`~repro.errors.DeltaRefused` reason.
    rung_reason: Optional[str] = None

    @classmethod
    def from_stats(
        cls, relation: str, stats: SeoBuildStats, reason: Optional[str] = None
    ) -> "RelationBuild":
        """``reason`` is why the fusion could not follow the deltas, if so."""
        if stats.enhancement_patched:
            rung = "patch"
        else:
            rung = "delta" if stats.incremental else "full"
            reason = reason or stats.patch_refused
        return cls(
            relation=relation,
            cache_hit=stats.cache_hit,
            cache_key=stats.cache_key,
            fusion_seconds=stats.fusion_seconds,
            sea_seconds=stats.sea_seconds,
            total_seconds=stats.total_seconds,
            sea=stats.sea.to_dict() if stats.sea is not None else None,
            incremental=stats.incremental,
            fusion_incremental=stats.fusion_incremental,
            enhancement_patched=stats.enhancement_patched,
            chain_depth=stats.chain_depth,
            rung=rung,
            rung_reason=reason,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
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
        return cls(
            relation=payload["relation"],
            cache_hit=bool(payload.get("cache_hit", False)),
            cache_key=payload.get("cache_key"),
            fusion_seconds=float(payload.get("fusion_seconds", 0.0)),
            sea_seconds=float(payload.get("sea_seconds", 0.0)),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            sea=payload.get("sea"),
            incremental=bool(payload.get("incremental", False)),
            fusion_incremental=bool(payload.get("fusion_incremental", False)),
            enhancement_patched=bool(payload.get("enhancement_patched", False)),
            chain_depth=int(payload.get("chain_depth", 0)),
            rung=payload.get("rung", "full"),
            rung_reason=payload.get("rung_reason"),
        )


@dataclass
class BuildReport:
    """Everything one :meth:`~repro.core.system.TossSystem.build` did."""

    measure: str = ""
    epsilon: float = 0.0
    mode: str = "order-safe"
    cache_used: bool = False
    build_seconds: float = 0.0
    degraded: bool = False
    error: Optional[str] = None
    relations: List[RelationBuild] = field(default_factory=list)
    #: The build's span tree (:meth:`repro.obs.trace.Span.to_dict` shape);
    #: None when the build ran without tracing.
    trace: Optional[Dict[str, Any]] = None

    # -- aggregates ---------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.relations if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.relations if not r.cache_hit)

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
            "cache_used": self.cache_used,
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
            cache_used=bool(payload.get("cache_used", False)),
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
            f"mode={self.mode} cache={'on' if self.cache_used else 'off'}",
            f"  total {self.build_seconds:.3f}s"
            + (f"  DEGRADED: {self.error}" if self.degraded else ""),
        ]
        for r in self.relations:
            if r.cache_hit:
                lines.append(
                    f"  {r.relation}: cache hit ({r.total_seconds:.3f}s)"
                )
                continue
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
