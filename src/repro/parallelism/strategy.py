"""Distributed training strategy configuration.

The paper's notation (Section 3.1): ``EP<e>-TP<t>-PP<p>`` names the
model-parallel split; any GPUs left over take data parallelism. Following
Megatron/NeMo semantics, expert parallelism is carved out of the
data-parallel dimension: EP ranks process distinct batch shards for the
attention blocks (like DP) while exchanging MoE tokens via AllToAll, so
the world size is ``tp * pp * dp`` with ``ep`` dividing ``dp``.
``TP8-FSDP4`` means 8-way tensor parallelism with a 4-wide fully-sharded
data-parallel dimension in place of plain DP.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from repro.suggest import normalize_name


@dataclass(frozen=True)
class ParallelismConfig:
    """One point in the parallelism design space.

    Attributes:
        tp: tensor-parallel width (splits matmuls; AllReduce per layer).
        pp: pipeline-parallel depth (splits layers; P2P SendRecv).
        dp: total data-parallel width (replicas of the TP x PP grid),
            also the FSDP width when ``use_fsdp`` is set. Expert
            parallelism is carved out of this dimension (Megatron
            semantics), so ``ep`` must divide ``dp``.
        ep: expert-parallel width (splits MoE experts; AllToAll). EP
            ranks run attention data-parallel but exchange MoE tokens.
        use_fsdp: shard parameters/optimizer across the ``dp`` dimension
            (per-layer AllGather + ReduceScatter instead of gradient
            AllReduce).
        pipeline_schedule: any schedule registered in
            :mod:`repro.schedules` — ``"1f1b"`` (Megatron default),
            ``"interleaved"``, ``"gpipe"``, ``"zb-h1"`` (zero-bubble),
            ``"seq1f1b"`` (sequence-split), ... Names are normalised
            (``ZB_H1`` -> ``zb-h1``); unknown names raise with a
            did-you-mean hint.

    A freshly parsed strategy (e.g. ``"EP8-TP1-PP4"``) may have
    ``dp < ep``; :meth:`fill_dp` completes it against a cluster size.
    :attr:`is_complete` tells whether the config is runnable as-is.
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    ep: int = 1
    use_fsdp: bool = False
    pipeline_schedule: str = "1f1b"

    def __post_init__(self) -> None:
        # Registry lookup (not a hardcoded whitelist): any schedule in
        # repro.schedules is a valid pipeline_schedule, and unknown
        # names get a did-you-mean error. Deferred import: the engine
        # imports this module at startup, repro.schedules does not.
        from repro.schedules import canonical_schedule_name

        object.__setattr__(
            self,
            "pipeline_schedule",
            canonical_schedule_name(self.pipeline_schedule),
        )
        for label, width in (
            ("tp", self.tp),
            ("pp", self.pp),
            ("dp", self.dp),
            ("ep", self.ep),
        ):
            if width < 1:
                raise ValueError(f"{label} must be >= 1, got {width}")
        if self.use_fsdp and self.dp < 2:
            raise ValueError("FSDP requires dp >= 2")
        if self.use_fsdp and self.ep > 1:
            raise ValueError("FSDP configs do not combine with EP here")

    @property
    def world_size(self) -> int:
        """Total GPUs the strategy occupies (EP lives inside DP)."""
        return self.tp * self.pp * self.dp

    @property
    def is_complete(self) -> bool:
        """Whether EP tiles the DP dimension (runnable as-is)."""
        return self.dp % self.ep == 0

    @property
    def dp_outer(self) -> int:
        """Data-parallel replicas per expert-parallel group (dp / ep)."""
        if not self.is_complete:
            raise ValueError(
                f"{self.name}: dp={self.dp} not a multiple of ep={self.ep};"
                " call fill_dp against a cluster first"
            )
        return self.dp // self.ep

    @property
    def model_parallel_size(self) -> int:
        """TP x PP x EP, the paper's 'total model parallelism'."""
        return self.tp * self.pp * self.ep

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``"EP8-TP1-PP4"`` or ``"TP8-FSDP4"``."""
        parts: list[str] = []
        if self.ep > 1:
            parts.append(f"EP{self.ep}")
        parts.append(f"TP{self.tp}")
        if self.use_fsdp:
            parts.append(f"FSDP{self.dp}")
        if self.pp > 1 or not parts:
            parts.append(f"PP{self.pp}")
        return "-".join(parts)

    def with_dp(self, dp: int) -> "ParallelismConfig":
        """A copy with the data-parallel width replaced."""
        return replace(self, dp=dp)

    def fill_dp(self, total_gpus: int) -> "ParallelismConfig":
        """Apply data parallelism across leftover GPUs (paper Section 3.1).

        Raises:
            ValueError: if ``total_gpus`` does not tile into TP x PP, or
                the resulting DP width is not a multiple of EP.
        """
        grid = self.tp * self.pp
        if self.use_fsdp:
            if total_gpus != grid * self.dp:
                raise ValueError(
                    "FSDP configs must already cover the cluster"
                )
            return self
        if total_gpus % grid:
            raise ValueError(
                f"{total_gpus} GPUs not divisible by the TPxPP grid "
                f"({grid}) of {self.name}"
            )
        dp = total_gpus // grid
        if dp % self.ep:
            raise ValueError(
                f"{self.name}: DP width {dp} on {total_gpus} GPUs is not "
                f"a multiple of ep={self.ep}"
            )
        return replace(self, dp=dp)


_NAME_PART = re.compile(r"(EP|TP|PP|FSDP|DP)(\d+)$", re.IGNORECASE)

_EXPECTED_FORMAT = (
    "expected '-'-separated EP/TP/PP/DP/FSDP widths, "
    "e.g. 'TP2-PP16', 'EP8-TP1-PP4', or 'tp2-pp2-dp8'"
)


def _strategy_error(name: str, part: str) -> str:
    message = (
        f"cannot parse strategy component {part!r} in {name!r}; "
        f"{_EXPECTED_FORMAT}"
    )
    normalized = normalize_name(name)
    if normalized != name.strip().lower():
        try:
            parse_strategy(normalized)
        except ValueError:
            pass
        else:
            message += f"; did you mean {normalized!r}?"
    return message


def parse_strategy(name: str) -> ParallelismConfig:
    """Parse a paper-style strategy name like ``"EP8-TP1-PP4"``.

    DP, when present, is explicit (``"TP2-PP4-DP4"``); otherwise it
    defaults to 1 and callers use :meth:`ParallelismConfig.fill_dp`.
    """
    widths = {"ep": 1, "tp": 1, "pp": 1, "dp": 1}
    use_fsdp = False
    for part in name.strip().split("-"):
        match = _NAME_PART.match(part.strip())
        if not match:
            raise ValueError(_strategy_error(name, part))
        key, width = match.group(1).lower(), int(match.group(2))
        if key == "fsdp":
            use_fsdp = True
            key = "dp"
        widths[key] = width
    return ParallelismConfig(
        tp=widths["tp"],
        pp=widths["pp"],
        dp=widths["dp"],
        ep=widths["ep"],
        use_fsdp=use_fsdp,
    )


@dataclass(frozen=True)
class OptimizationConfig:
    """Training-time optimization toggles studied in Section 4.3.

    Attributes:
        activation_recompute: recompute activations in backward ("act").
        cc_overlap: overlap communication with computation ("cc").
        distributed_optimizer: ZeRO-1 optimizer-state sharding across DP
            ranks (the paper enables it for all dense models).
        lora: parameter-efficient LoRA finetuning instead of full training.
        lora_rank: adapter rank when ``lora`` is set.
        sequence_parallel: Megatron sequence parallelism: shard the
            non-tensor-parallel activation regions along the sequence.
            The TP communication volume is unchanged (each AllReduce
            becomes a ReduceScatter + AllGather pair of equal total
            bytes; the paper's breakdowns keep labelling it AllReduce),
            but activation memory divides fully by ``tp`` without
            recomputation's compute cost (Korthikanti et al., the
            paper's reference [6]). **Defaults to True**, matching the
            NeMo/Megatron stack the paper runs; switching it off is the
            ablation.
    """

    activation_recompute: bool = False
    cc_overlap: bool = False
    distributed_optimizer: bool = True
    lora: bool = False
    lora_rank: int = 16
    sequence_parallel: bool = True

    @property
    def label(self) -> str:
        """Paper-style label: "Base", "act", "cc", "act+cc", "lora"."""
        parts = []
        if self.activation_recompute:
            parts.append("act")
        if self.cc_overlap:
            parts.append("cc")
        if not self.sequence_parallel:
            parts.append("nosp")
        if self.lora:
            parts.append("lora")
        return "+".join(parts) if parts else "Base"


BASE = OptimizationConfig()
ACT = OptimizationConfig(activation_recompute=True)
CC = OptimizationConfig(cc_overlap=True)
ACT_CC = OptimizationConfig(activation_recompute=True, cc_overlap=True)
