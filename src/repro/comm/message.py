"""Message-size effects on transfer time (chunking and pipelining).

Two effects, both central to the paper's Section 4.2 findings:

1. **Ramp-up**: small messages achieve a fraction of peak bandwidth.
   Effective bandwidth follows the classic half-bandwidth-point curve
   ``bw_eff(size) = bw_peak * size / (size + n_half)`` where ``n_half`` is
   the message size at which half of peak is reached (latency * bandwidth
   product of the path).

2. **Chunked vs. unchunked multi-hop transfers**: NCCL-style chunked
   transfers pipeline chunks across path segments, so a multi-hop transfer
   runs at the bottleneck segment's speed. The "sparse SendRecv calls that
   lack data chunking" the paper blames for TP+PP bandwidth
   underutilisation instead pay store-and-forward: each hop's serialization
   adds up.
"""

from __future__ import annotations

from repro.hardware.topology import Path


def effective_bandwidth(
    peak_bandwidth: float, latency_s: float, message_bytes: float
) -> float:
    """Achieved bandwidth for one message over one segment (bytes/s).

    The half-bandwidth point is the latency-bandwidth product: a message
    must fill the pipe for one latency to reach half of peak.
    """
    if message_bytes <= 0:
        raise ValueError("message_bytes must be positive")
    n_half = peak_bandwidth * latency_s
    return peak_bandwidth * message_bytes / (message_bytes + n_half)


def segment_time(
    peak_bandwidth: float, latency_s: float, message_bytes: float
) -> float:
    """Time for one message over one segment, latency included."""
    bandwidth = effective_bandwidth(peak_bandwidth, latency_s, message_bytes)
    return latency_s + message_bytes / bandwidth


#: ``(id(links), bytes, chunked, scale) -> (seconds, links)``; holding
#: the links keeps their id unique. ``clear_cache`` empties it.
TRANSFER_TIMES: dict[tuple, tuple[float, tuple]] = {}


def transfer_time(
    path: Path,
    message_bytes: float,
    chunked: bool = True,
    bandwidth_scale: float = 1.0,
) -> float:
    """Time to move ``message_bytes`` along ``path``.

    Args:
        path: traversed segments (from :func:`repro.hardware.resolve_path`).
        message_bytes: payload size.
        chunked: pipelined chunked transfer (runs at the bottleneck
            segment) vs. unchunked store-and-forward (hops serialize).
        bandwidth_scale: divisor applied to every segment's bandwidth,
            used by the contention model (0 < scale <= 1 means slower).

    Times are kept per links tuple in :data:`TRANSFER_TIMES`.
    """
    links = path.links
    key = (id(links), message_bytes, chunked, bandwidth_scale)
    entry = TRANSFER_TIMES.get(key)
    if entry is None:
        entry = TRANSFER_TIMES[key] = (
            _transfer_time(links, message_bytes, chunked, bandwidth_scale),
            links,
        )
    return entry[0]


def _transfer_time(links, message_bytes, chunked, bandwidth_scale) -> float:
    if message_bytes <= 0:
        raise ValueError("message_bytes must be positive")
    if not 0 < bandwidth_scale <= 1:
        raise ValueError("bandwidth_scale must be in (0, 1]")

    times = [
        segment_time(
            link.peak_effective_bandwidth * bandwidth_scale,
            link.latency_s,
            message_bytes,
        )
        for link in links
    ]
    if chunked:
        # Chunks pipeline: total time ~ slowest segment + other latencies.
        slowest = max(times)
        other_latency = sum(link.latency_s for link in links) - (
            links[times.index(slowest)].latency_s
        )
        return slowest + other_latency
    return sum(times)


def chunking_efficiency(path: Path, message_bytes: float) -> float:
    """Ratio of chunked to unchunked throughput for a message on a path.

    1.0 on single-segment paths; > 1 whenever pipelining across hops wins.
    Reported alongside Figure 6-style results.
    """
    chunked = transfer_time(path, message_bytes, chunked=True)
    unchunked = transfer_time(path, message_bytes, chunked=False)
    return unchunked / chunked
