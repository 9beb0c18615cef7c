"""The classic schedules: 1F1B, Megatron interleaved 1F1B, and GPipe.

These reproduce — node for node — the per-rank op orders the engine
hardcoded before schedules became graphs, which is what keeps the
schedule-graph engine path bit-identical to the pre-refactor engine
(pinned in tests/test_schedule_identity.py).
"""

from __future__ import annotations

from repro.schedules.base import PipeSchedule
from repro.schedules.graph import NodeType, ScheduledNode
from repro.schedules.registry import register_schedule


@register_schedule
class OneFOneBSchedule(PipeSchedule):
    """Standard 1F1B: warmup forwards, steady 1F/1B, drain backwards.

    Stage ``s`` admits ``num_stages - s - 1`` warmup forwards, then
    alternates one-forward-one-backward, then drains the remaining
    backwards — bounding in-flight activations at pipeline depth at the
    price of a ``(p-1)/(m+p-1)`` bubble fraction.
    """

    name = "1f1b"

    def warmup_forwards(self, stage: int) -> int:
        return min(self.num_stages - stage - 1, self.num_microbatches)

    def steps(self, stage: int) -> list[ScheduledNode]:
        m = self.num_microbatches
        warmup = self.warmup_forwards(stage)
        steady = m - warmup
        nodes = [
            self._node(NodeType.FORWARD, stage, mb) for mb in range(warmup)
        ]
        for i in range(steady):
            nodes.append(self._node(NodeType.FORWARD, stage, warmup + i))
            nodes.append(self._node(NodeType.BACKWARD, stage, i))
        for mb in range(steady, m):
            nodes.append(self._node(NodeType.BACKWARD, stage, mb))
        return nodes


@register_schedule
class InterleavedSchedule(PipeSchedule):
    """Megatron's interleaved (virtual-stage) 1F1B.

    Each rank hosts ``num_chunks`` virtual stages; microbatch ``mb``
    streams through virtual stage ``stage + c * num_stages`` for chunk
    ``c``, and backwards drain chunks in reverse order. Requires
    ``num_microbatches`` to be a multiple of ``num_stages`` (Megatron's
    constraint).
    """

    name = "interleaved"
    supports_chunks = True

    def __init__(
        self,
        num_stages: int,
        num_microbatches: int,
        num_chunks: int = 2,
        num_seq_splits: int | None = None,
    ) -> None:
        if num_chunks < 2:
            raise ValueError("interleaving needs at least 2 chunks")
        if num_microbatches % num_stages:
            raise ValueError(
                "interleaved schedule requires num_microbatches to be a "
                f"multiple of num_stages ({num_microbatches} % {num_stages})"
            )
        super().__init__(
            num_stages, num_microbatches, num_chunks, num_seq_splits
        )

    def warmup_forwards(self, stage: int) -> int:
        return min(
            (self.num_stages - stage - 1) * 2
            + (self.num_chunks - 1) * self.num_stages,
            self.num_microbatches * self.num_chunks,
        )

    def _forward_slot(self, k: int) -> tuple[int, int]:
        """Virtual microbatch index -> (microbatch, chunk)."""
        per_round = self.num_stages * self.num_chunks
        group, within = divmod(k, per_round)
        chunk = within // self.num_stages
        microbatch = group * self.num_stages + within % self.num_stages
        return microbatch, chunk

    def _backward_slot(self, i: int) -> tuple[int, int]:
        """Backward virtual microbatches drain chunks in reverse order."""
        per_round = self.num_stages * self.num_chunks
        group, within = divmod(i, per_round)
        chunk = self.num_chunks - 1 - within // self.num_stages
        microbatch = group * self.num_stages + within % self.num_stages
        return microbatch, chunk

    def steps(self, stage: int) -> list[ScheduledNode]:
        total = self.num_microbatches * self.num_chunks
        warmup = self.warmup_forwards(stage)
        nodes: list[ScheduledNode] = []
        for k in range(warmup):
            mb, chunk = self._forward_slot(k)
            nodes.append(self._node(NodeType.FORWARD, stage, mb, chunk))
        steady = total - warmup
        for i in range(steady):
            mb, chunk = self._forward_slot(warmup + i)
            nodes.append(self._node(NodeType.FORWARD, stage, mb, chunk))
            mb, chunk = self._backward_slot(i)
            nodes.append(self._node(NodeType.BACKWARD, stage, mb, chunk))
        for i in range(steady, total):
            mb, chunk = self._backward_slot(i)
            nodes.append(self._node(NodeType.BACKWARD, stage, mb, chunk))
        return nodes


@register_schedule
class GpipeSchedule(PipeSchedule):
    """GPipe: all forwards, then all backwards in reverse order.

    Simpler than 1F1B but stores activations for *every* microbatch at
    once and synchronises the whole pipeline between the forward and
    backward waves — the synchronized compute bursts raise aggregate
    peak power (the paper's burstiness mechanism, Section 5).
    """

    name = "gpipe"

    def warmup_forwards(self, stage: int) -> int:
        return self.num_microbatches

    def steps(self, stage: int) -> list[ScheduledNode]:
        m = self.num_microbatches
        nodes = [self._node(NodeType.FORWARD, stage, mb) for mb in range(m)]
        nodes.extend(
            self._node(NodeType.BACKWARD, stage, mb)
            for mb in reversed(range(m))
        )
        return nodes

    @classmethod
    def activation_in_flight(
        cls, num_stages: int, num_microbatches: int | None = None
    ) -> int:
        if num_microbatches is None:
            raise ValueError(
                "GPipe memory model needs num_microbatches (it stores "
                "activations for the whole batch)"
            )
        return max(1, num_microbatches)
