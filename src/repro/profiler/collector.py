"""Sample attribution: the interrupt handler's bookkeeping.

For every address sample the collector performs the paper's two
attributions (§4): code-centric (IP -> enclosing loop, via the loop map
the structure analysis produced) and data-centric (effective address ->
data object, via the allocation registry), then folds the sample into
the per-thread stream state. Threads never share state — the paper's
scalability design — so collection is a per-thread dictionary update.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..binary.loopmap import LoopMap
from ..sampling.events import AddressSample, data_source
from .allocation import DataObjectRegistry
from .profile import ThreadProfile


class ProfileCollector:
    """Attributes samples and accumulates per-thread profiles."""

    def __init__(
        self,
        registry: DataObjectRegistry,
        loop_map: LoopMap,
        *,
        program_name: str = "",
    ) -> None:
        self.registry = registry
        self.loop_map = loop_map
        self.program_name = program_name
        self.profiles: Dict[int, ThreadProfile] = {}

    def _profile(self, thread: int) -> ThreadProfile:
        profile = self.profiles.get(thread)
        if profile is None:
            profile = ThreadProfile(thread=thread, program=self.program_name)
            self.profiles[thread] = profile
        return profile

    def observe_sample(self, sample: AddressSample) -> None:
        """Attribute one sample (the per-interrupt work)."""
        profile = self._profile(sample.thread)
        profile.sample_count += 1
        profile.total_latency += sample.latency

        data_object = self.registry.find(sample.address)
        if data_object is None:
            # Stack or unmonitored memory: the paper ignores these.
            profile.unattributed_latency += sample.latency
            return
        identity = data_object.identity
        profile.add_data_latency(identity, sample.latency)

        stream = profile.stream(sample.ip, sample.context, identity)
        if stream.sample_count == 0:
            stream.line = sample.line
            stream.data_base = data_object.base
            loop = self.loop_map.loop_of_ip(sample.ip)
            stream.loop_id = loop.id if loop is not None else None
        stream.update(
            sample.address,
            sample.latency,
            is_write=sample.is_write,
            source=data_source(sample.latency),
        )

    def collect(self, samples: Iterable[AddressSample]) -> Dict[int, ThreadProfile]:
        """Attribute a batch of samples; returns the per-thread profiles.

        Gives exactly what :meth:`observe_sample` per sample gives. An
        instruction in one calling context mostly keeps hitting one
        object, so each ``(thread, ip, context)`` remembers the span of
        its last attribution (see :meth:`DataObjectRegistry.find_span`)
        with the profile, identity and stream it resolved to; only a
        sample outside that span pays for the lookup again.
        """
        spans = {}
        for _, thread, ip, address, _, is_write, latency, line, context in samples:
            key = (thread, ip, context)
            span = spans.get(key)
            if span is None or not span[0] <= address < span[1]:
                span = spans[key] = self._span(thread, ip, context, address, line)
            profile, identity, stream = span[2], span[3], span[4]
            profile.sample_count += 1
            profile.total_latency += latency
            if stream is None:
                profile.unattributed_latency += latency
                continue
            data_latency = profile.data_latency
            data_latency[identity] = data_latency.get(identity, 0.0) + latency
            stream.update(
                address, latency, is_write=is_write, source=data_source(latency)
            )
        return self.profiles

    def _span(self, thread: int, ip: int, context: int, address: int, line: int):
        """``(lo, hi, profile, identity, stream)`` for a sample at
        ``address``: the attribution every sample of this thread, ip and
        context shares while its address stays in ``[lo, hi)``. The
        stream is initialised as :meth:`observe_sample` would on its
        first sample; identity and stream are None outside every object.
        """
        profile = self._profile(thread)
        data_object, lo, hi = self.registry.find_span(address)
        if data_object is None:
            return lo, hi, profile, None, None
        identity = data_object.identity
        stream = profile.stream(ip, context, identity)
        if stream.sample_count == 0:
            stream.line = line
            stream.data_base = data_object.base
            loop = self.loop_map.loop_of_ip(ip)
            stream.loop_id = loop.id if loop is not None else None
        return lo, hi, profile, identity, stream

    # -- telemetry ----------------------------------------------------------

    def export_metrics(self, registry) -> None:
        """Register per-thread collector sizes and the allocation-registry
        size with a telemetry registry."""
        for thread, profile in sorted(self.profiles.items()):
            registry.gauge(
                "repro_profiler_collector_streams",
                help="streams held by one thread's collector",
                thread=thread,
            ).set(len(profile.streams))
            registry.counter(
                "repro_profiler_collector_samples_total",
                help="samples attributed per thread",
                thread=thread,
            ).add(profile.sample_count)
        registry.gauge(
            "repro_profiler_allocation_registry_objects",
            help="data objects tracked by the allocation registry",
        ).set(len(self.registry))
