"""Run one ``enerkin`` CLI command in this fresh interpreter and time its phases.

Usage: python3 perfbench/child.py REPORT_JSON TRACE(0|1) COMMAND_ID -- <enerkin CLI args>

The parent process records the monotonic clock just before it starts this
interpreter; this file records, on the same clock, when compute begins, how
long compute takes and when the command ends, so that

* setup   = interpreter start .. first compute call (import, scenario load
  and validation, config assembly);
* compute = time inside ``run_ensemble``, ``integrate``, the residual checks
  and the analysis reductions (outermost calls only);
* output  = the rest of the command after compute begins: building the
  rows and writing the CSV and JSON results.

These phase timers are a handful of calls per command.  With TRACE=1 the
wrappers of ``tracing.py`` are installed as well and the spans are written
into the report when the command ends.

A speed probe (``SpeedProbe``) runs from the start of this file to the end
of the command: every PROBE_INTERVAL_S of wall time a signal handler times
a fixed piece of interpreter work and files the duration under the phase
the command is in.  On a host whose cores are shared with other tenants the
core runs at full speed or at about 0.6 of it, switching within a fraction
of a second, and the share of slow time changes from one half minute to the
next.  The probe's mean duration in a phase is the core's mean slowness
there, so the parent can report each phase in seconds of an uncontended core.
"""

import json
import signal
import sys
import time

PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 3000
# A sample that took longer than this (about three times an uncontended one)
# was stalled, not slowed: it counts at this value in the mean slowness, so
# that a rare stall caught by one sample does not scale a whole phase.
PROBE_CLIP_S = 900e-6
PHASES = ("setup", "compute", "output")


class PhaseClock:
    """Accumulates the outermost compute intervals of one command."""

    def __init__(self):
        self.first_compute = None
        self.compute_s = 0.0
        self._depth = 0

    def timed(self, fn):
        clock = self

        def wrapper(*args, **kwargs):
            if clock._depth:
                return fn(*args, **kwargs)
            clock._depth += 1
            t0 = time.monotonic()
            if clock.first_compute is None:
                clock.first_compute = t0
            try:
                return fn(*args, **kwargs)
            finally:
                clock.compute_s += time.monotonic() - t0
                clock._depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper


class SpeedProbe:
    """Samples the core's speed with a fixed loop, by phase (see module doc)."""

    def __init__(self, clock):
        self.clock = clock
        self.samples = {p: [] for p in PHASES}

    def _phase(self):
        if self.clock._depth:
            return "compute"
        return "setup" if self.clock.first_compute is None else "output"

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += (i * 0.37) % 5.0
        self.samples[self._phase()].append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def summary(self):
        """Per phase: number of samples, their total duration and their total
        duration with each sample clipped at PROBE_CLIP_S, in seconds."""
        return {p: [len(v), sum(v), sum(min(d, PROBE_CLIP_S) for d in v)] for p, v in self.samples.items()}


def install_phase_clock(cli, eq, clock):
    for name in ("run_ensemble", "integrate", "_run_check"):
        setattr(cli, name, clock.timed(getattr(cli, name)))
    # analyze reduces snapshots through these two; cli reaches them as eq.<name>
    for name in ("relative_entropy", "ks_distance"):
        setattr(eq, name, clock.timed(getattr(eq, name)))


def main(argv):
    report_path, trace, command_id = argv[0], argv[1] == "1", argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: child.py REPORT TRACE COMMAND_ID -- <enerkin args>")
    cli_args = argv[4:]
    clock = PhaseClock()
    probe = SpeedProbe(clock)
    probe.start()
    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder(command_id)
    t_import0 = time.monotonic()
    import numpy
    import scipy

    import enerkin
    import enerkin.cli as cli
    import enerkin.equilibrium as eq

    t_import1 = time.monotonic()
    if recorder is not None:
        recorder.record("enerkin.import", t_import0, t_import1)
        tracing.install(recorder, enerkin)
    install_phase_clock(cli, eq, clock)
    rc = cli.main(cli_args)
    probe.stop()
    t_end = time.monotonic()
    report = {
        "rc": rc,
        "first_compute": clock.first_compute,
        "compute_s": clock.compute_s,
        "main_end": t_end,
        "probe": probe.summary(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "enerkin": enerkin.__version__,
        },
    }
    if recorder is not None:
        report["spans"] = recorder.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
