"""Span tracing for the benchmark's traced run.

Spans are recorded from outside the package: `instrumented` swaps rwpf's
public module attributes, `LazyBridge` methods and the model's callables
for timing wrappers, and puts the originals back on exit. The rwpf
source is not edited.

Every wrapped call adds to per-name call counts and self time (its
duration minus the time its child spans cover). The first MAX_SPANS
spans are also kept whole as (id, parent id, name, start, end, op id),
where the op id names the filter step or bench replication the span
belongs to; later spans are only counted.
"""

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()        # events counted at span boundaries
        self.kappa_max = 0
        self.base_keys: set[tuple[int, int]] = set()
        self.spans: list[list] = []
        self.dropped = 0
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as span `name`; `after(result)` runs on success."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]   # span id, time covered by children
            parent = stack[-1] if stack else None
            # the slot is taken at entry, so a kept span's parent is kept too
            row = None
            if len(spans) < MAX_SPANS:
                row = [frame[0], parent[0] if parent else 0, name, 0.0, 0.0, self.op]
                spans.append(row)
            else:
                self.dropped += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                if row is not None:
                    row[3], row[4] = start, end
            if after is not None:
                after(result)
            return result

        return traced

    def _on_base(self, point_set) -> None:
        self.base_keys.add((point_set.dimension, point_set.count))

    def _on_proposal(self, outcome) -> None:
        self.counts["proposal.rejections"] += outcome.n_rejections

    def _on_estimate(self, est) -> None:
        c = self.counts
        c["psi.estimates"] += 1
        c["psi.kappa_sum"] += est.kappa
        c["psi.kappa_zero"] += est.kappa == 0
        c["psi.fallback"] += est.mode == "mc-fallback"
        c["bridge.inserts"] += est.n_bridge_queries
        c["bridge.collisions"] += est.n_time_collisions
        self.kappa_max = max(self.kappa_max, est.kappa)


@contextmanager
def instrumented(tracer: Tracer, model, replication_ids: bool = False):
    """Install the wrappers; yields the model with traced callables.

    With `replication_ids`, every `psi.sample_kappa` call starts a new op
    id: `bench.run_bench` draws one kappa per paired replication.
    """
    from rwpf import bridge, lowdisc, proposal, psi, smc

    patches = [
        (lowdisc, "generate_base", "lowdisc.generate_base", tracer._on_base),
        (lowdisc, "randomize", "lowdisc.randomize", None),
        (bridge, "invnorm", "stats.invnorm", None),
        (proposal, "propose", "proposal.propose", tracer._on_proposal),
        (psi, "estimate", "psi.estimate", tracer._on_estimate),
        (psi, "estimate_with_kappa", "psi.estimate", tracer._on_estimate),
        (psi, "fresh_seed", "rngs.fresh_seed", None),
        (smc, "resample", "smc.resample", None),
        (smc, "particle_streams", "rngs.particle_streams", None),
    ]
    methods = ["value_at", "value_at_with_uniform", "restore"]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    saved += [(bridge.LazyBridge, m, bridge.LazyBridge.__dict__[m]) for m in methods]
    if replication_ids:
        saved.append((psi, "sample_kappa", psi.sample_kappa))
    try:
        for owner, attr, name, after in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))
        for m in methods:
            setattr(bridge.LazyBridge, m,
                    tracer.wrap(f"bridge.{m}", bridge.LazyBridge.__dict__[m]))
        if replication_ids:
            draw = psi.sample_kappa

            def next_replication(*args, **kwargs):
                tracer.op += 1
                return draw(*args, **kwargs)

            psi.sample_kappa = next_replication
        yield dataclasses.replace(
            model,
            phi_scalar=tracer.wrap("models.phi_scalar", model.phi_scalar),
            big_a=tracer.wrap("models.big_a", model.big_a),
        )
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
