"""The :class:`PipeSchedule` ABC: per-stage rows of scheduled nodes.

Subclasses implement :meth:`PipeSchedule.steps` (the ordered node row of
one stage) and :meth:`PipeSchedule.warmup_forwards` (the closed-form
warmup count, pinned against the emitted rows by property tests).
Everything else — graph assembly/validation, derived warmup and peak
in-flight counts, the activation-memory bound used by
:mod:`repro.models.memory` — is shared here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

from repro.schedules.graph import (
    NodeType,
    ScheduledNode,
    ScheduleGraph,
    make_node,
)


def check_stage_args(
    stage: int, num_stages: int, num_microbatches: int
) -> None:
    """Validate a stage index and pipeline shape (messages pinned by
    tests/test_engine_schedule.py)."""
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} out of range [0, {num_stages})")
    if num_microbatches < 1:
        raise ValueError("num_microbatches must be >= 1")


class PipeSchedule(ABC):
    """A pipeline schedule over ``num_stages`` x ``num_microbatches``.

    Class attributes describe the schedule's shape: whether it splits
    the backward pass into input-grad (B) and weight-grad (W) halves,
    whether it hosts multiple virtual-stage chunks per rank, and whether
    it splits each microbatch's sequence into pipelined chunks.
    """

    #: Registry name; set by subclasses.
    name: ClassVar[str] = ""
    #: True when backward is split into B (input grad) + W (weight grad).
    splits_weight_grad: ClassVar[bool] = False
    #: True when the schedule hosts >1 virtual-stage chunk per rank.
    supports_chunks: ClassVar[bool] = False
    #: True when the schedule pipelines sequence chunks within microbatches.
    supports_seq_splits: ClassVar[bool] = False
    #: Seq splits used when the caller does not pick a count.
    default_seq_splits: ClassVar[int] = 1

    def __init__(
        self,
        num_stages: int,
        num_microbatches: int,
        num_chunks: int = 1,
        num_seq_splits: int | None = None,
    ) -> None:
        check_stage_args(0, num_stages, num_microbatches)
        if num_chunks < 1:
            raise ValueError("num_chunks must be >= 1")
        if num_chunks > 1 and not self.supports_chunks:
            raise ValueError(
                f"schedule {self.name!r} does not use virtual-stage "
                f"chunks (got num_chunks={num_chunks})"
            )
        if num_seq_splits is None:
            num_seq_splits = (
                self.default_seq_splits if self.supports_seq_splits else 1
            )
        if num_seq_splits < 1:
            raise ValueError("num_seq_splits must be >= 1")
        if num_seq_splits > 1 and not self.supports_seq_splits:
            raise ValueError(
                f"schedule {self.name!r} does not split sequences "
                f"(got num_seq_splits={num_seq_splits})"
            )
        self.num_stages = num_stages
        self.num_microbatches = num_microbatches
        self.num_chunks = num_chunks
        self.num_seq_splits = num_seq_splits
        self._rows: dict[int, tuple[ScheduledNode, ...]] = {}

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------

    @abstractmethod
    def steps(self, stage: int) -> list[ScheduledNode]:
        """Ordered node row for one stage (uncached; use rank_ops)."""

    @abstractmethod
    def warmup_forwards(self, stage: int) -> int:
        """Closed-form count of forward units before the first backward."""

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _node(
        self,
        type: NodeType,
        stage: int,
        microbatch: int,
        chunk: int = 0,
        seq_split: int = 0,
    ) -> ScheduledNode:
        return make_node(
            type, stage, self.num_stages, self.num_chunks,
            microbatch, chunk, seq_split,
        )

    def rank_ops(self, stage: int) -> tuple[ScheduledNode, ...]:
        """Memoised per-stage node row (validates the stage index)."""
        check_stage_args(stage, self.num_stages, self.num_microbatches)
        row = self._rows.get(stage)
        if row is None:
            row = tuple(self.steps(stage))
            self._rows[stage] = row
        return row

    def graph(self) -> ScheduleGraph:
        """Assemble (and structurally validate) the full schedule graph."""
        graph = ScheduleGraph(
            num_stages=self.num_stages,
            num_microbatches=self.num_microbatches,
            num_chunks=self.num_chunks,
            num_seq_splits=self.num_seq_splits,
            stage_rows=tuple(
                self.rank_ops(stage) for stage in range(self.num_stages)
            ),
            splits_weight_grad=self.splits_weight_grad,
        )
        graph.validate()
        return graph

    def derived_warmup_forwards(self, stage: int) -> int:
        """Warmup count read off the emitted row (tests pin this against
        the closed-form :meth:`warmup_forwards`)."""
        count = 0
        for node in self.rank_ops(stage):
            if node.type is not NodeType.FORWARD:
                break
            count += 1
        return count

    def peak_activation_units(self, stage: int) -> int:
        """Peak in-flight forward units awaiting their input-grad
        backward (the dominant activation stash), in seq-chunk units."""
        peak = level = 0
        for node in self.rank_ops(stage):
            if node.type is NodeType.FORWARD:
                level += 1
                peak = max(peak, level)
            elif node.type is NodeType.BACKWARD:
                level -= 1
        return peak

    def peak_weight_stash_units(self, stage: int) -> int:
        """Peak completed-B units whose weight-grad W is still pending."""
        peak = level = 0
        for node in self.rank_ops(stage):
            if node.type is NodeType.BACKWARD:
                level += 1
                peak = max(peak, level)
            elif node.type is NodeType.WEIGHT:
                level -= 1
        return peak

    @classmethod
    def activation_in_flight(
        cls, num_stages: int, num_microbatches: int | None = None
    ) -> int:
        """Microbatches of activations held at stage 0 (memory model).

        The 1F1B family (plain, interleaved, zero-bubble, seq-split)
        bounds this at pipeline depth, clamped at 8 in-flight like the
        paper's measured configurations. GPipe overrides: it stores all
        microbatches.
        """
        del num_microbatches
        return min(num_stages, 8) if num_stages > 1 else 1

    @classmethod
    def bubble_fraction(
        cls, num_stages: int, num_microbatches: int
    ) -> float:
        """Analytic pipeline-bubble estimate: idle time / compute time.

        The classic fill-and-drain bound ``(S - 1) / M`` for the 1F1B
        family (and GPipe, whose bubble has the same closed form).
        Zero-bubble schedules override with their tighter bound. Used
        by the joint optimizer's roofline ranking — a cheap lower-bound
        flavour estimate, never a substitute for simulation.
        """
        if num_stages <= 1 or num_microbatches < 1:
            return 0.0
        return (num_stages - 1) / num_microbatches
