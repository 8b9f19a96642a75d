"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <pass> <traced 0|1> <spawned-at> [record-path]

Every pass starts in a fresh interpreter because the library's module-level
caches (``WeakKeyDictionary`` tables keyed by spec and graph) match by
equality: a second pass in the same process would find every table built by
the first and measure warm runs that no CLI call or campaign ever sees.

``spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (a system-wide clock on Linux), so set-up time covers the
interpreter start, the imports and loading the instance set.  A negative
pass number stops after set-up.  The pass prints one JSON object to
standard output: set-up time, per-instance latencies and statuses, peak
resident memory and, when traced, the per-layer metrics.  With a record
path it also writes every instance's exact outputs there (untraced) or
every span (traced).

Times are scaled to a nominal machine speed.  On a shared machine the speed
of one core swings by a quarter within seconds, so raw times of two passes
of identical work are not comparable.  Every ``PROBE_EVERY_S`` a timer
interrupts the pass to time a fixed piece of pure-Python work; each
instance's wall time, less the probes inside it, is multiplied by
``NOMINAL_PROBE_S`` over the median probe time within ``PROBE_WINDOW_S`` of
the instance.  On ``curve-germs`` this roughly halved the pass-to-pass
variation of summed time; on ``sweep-fixed``, whose time sits in a few
multi-second table builds, it helps little.  Raw times are reported
alongside.  Set-up time is too short to probe while it runs; ``run.py``
scales it by the median probe time of the whole run.  In traced passes the probes that interrupt a span count
toward its self time, about 1.5% of it.
"""

import bisect
import json
import math
import resource
import signal
import statistics
import sys
import time

NOMINAL_PROBE_S = 3e-4       # probe time at the nominal machine speed
PROBE_EVERY_S = 0.02
PROBE_WINDOW_S = 0.1


def probe() -> int:
    """Fixed work whose time tracks the core's current speed."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Probe times sampled on a timer while instances run.

    A ``SIGALRM`` handler runs the probe every ``PROBE_EVERY_S``, in the
    main thread between bytecodes, so long instances are sampled too; the
    time the handler takes is taken out of the instance it interrupted."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _between(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start),
                     bisect.bisect_right(self.starts, end))

    def work(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the probes run inside it."""
        return end - start - sum(self.times[self._between(start, end)])

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_PROBE_S over the median probe time near [start, end]."""
        near = self.times[self._between(start - PROBE_WINDOW_S, end + PROBE_WINDOW_S)]
        return NOMINAL_PROBE_S / statistics.median(near or self.times)


def main() -> int:
    workload, pass_no, traced, spawned = sys.argv[1:5]
    record = sys.argv[5] if len(sys.argv) > 5 else None
    traced = traced == "1"

    import workloads
    from resgraph.curves import MultibranchCurve
    load, run = workloads.WORKLOADS[workload]
    instances = load()
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install([workloads])
    setup_s = time.monotonic() - float(spawned)
    if int(pass_no) < 0:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    clock = time.perf_counter
    spans, statuses, outputs = [], [], []
    with SpeedProbe() as speed:
        for index, (key, inst) in enumerate(instances):
            t0 = clock()
            if tracer is None:
                status, out = run(inst)
            else:
                status, out = tracer.instance_span(index, run, inst)
            spans.append((t0, clock()))
            statuses.append(status)
            outputs.append([key, status, out])
    raw = [speed.work(start, end) for start, end in spans]
    scaled = [t * speed.scale(start, end) for t, (start, end) in zip(raw, spans)]

    result = {
        "pass": int(pass_no),
        "traced": traced,
        "setup_s": setup_s,
        "latencies_s": scaled,
        "raw_latencies_s": raw,
        "probe_median_s": statistics.median(speed.times),
        "statuses": statuses,
        "failed_keys": [k for k, s, _ in outputs if s == "fail"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        factor = sum(scaled) / sum(raw)
        layers = {name: value * factor if name.endswith("self_s") else value
                  for name, value in tracer.layer_metrics().items()}
        # curve-germs work size, from the inputs: sum of prod(conductor_i + 2)
        layers["curves.box_cells"] = sum(
            math.prod(c + 2 for c in inst.conductor)
            for _, inst in instances if isinstance(inst, MultibranchCurve))
        result["layers"] = layers
        result["spans"] = len(tracer.label)
        if record:
            tracer.write(record)
    elif record:
        with open(record, "w", encoding="utf-8") as fh:
            for (key, status, out), t, t_raw in zip(outputs, scaled, raw):
                fh.write(json.dumps({"instance": key, "status": status,
                                     "outputs": out, "latency_s": t,
                                     "raw_latency_s": t_raw}, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
