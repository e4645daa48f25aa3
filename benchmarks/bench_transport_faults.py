"""Retry overhead of the verified transport under channel faults.

The transport turns every control batch into a CRC-verified, retrying
transaction (mutation testing for the configuration plane: perturb the
channel, cross-check the output). This bench quantifies what that
robustness costs: modeled readback seconds and retry counts across a
ladder of fault rates, against the clean channel as the 1.0x baseline.
Faults come from a seeded ``FaultSchedule`` of ``transport.batch``
rate specs; each batch attempt takes at most one fault.
"""

from contextlib import nullcontext

from conftest import emit, emit_table, record_bench


def launch():
    from repro import Zoomie, ZoomieProject
    from repro.designs import make_cluster

    project = ZoomieProject(
        design=make_cluster(cores=2, imem_depth=64), device="TEST2",
        clocks={"clk": 100.0}, watch=["retired_count"])
    session = Zoomie(project).launch()
    session.poke_input("en", 1)
    session.run(40)
    session.debugger.pause()
    return session


def test_transport_fault_overhead_ladder(benchmark):
    from repro.chaos import FaultSchedule, FaultSpec, install_chaos
    from repro.config import RetryPolicy

    session = launch()
    fabric, dbg = session.fabric, session.debugger

    ROUNDS = 8

    def full_readback():
        """Several full state readbacks; returns modeled seconds."""
        seconds = 0.0
        for _ in range(ROUNDS):
            snap = dbg.read_state()
            seconds += snap.acquisition_seconds
            # Faults never leak into values: every readback is exact.
            for name, value in snap.values.items():
                assert value == fabric.sim.peek(name), name
        return seconds

    rates = [0.0, 0.05, 0.15, 0.30, 0.50]
    rows = []
    points = []
    clean_seconds = None
    fabric.transport.policy = RetryPolicy(max_attempts=16)

    def channel(rate):
        """The seeded faulty channel for one ladder rung."""
        if not rate:
            return nullcontext()
        specs = [FaultSpec(site="transport.batch", kind=kind, rate=r,
                           count=10**6)
                 for kind, r in (("read_flip", rate),
                                 ("truncate", rate / 3))]
        return install_chaos(
            FaultSchedule(seed=2024, specs=specs).registry())

    for rate in rates:
        stats = fabric.transport.stats
        before = stats.as_dict()
        with channel(rate) as registry:
            seconds = benchmark.pedantic(full_readback, rounds=1,
                                         iterations=1) \
                if rate == 0.0 else full_readback()
        after = stats.as_dict()
        corrupt = int(after["corrupt_detected"] - before["corrupt_detected"])
        # Every batch of a readback returns read words, so each
        # injected flip or truncation must be one detected batch; a
        # value check alone misses flips in bits no register maps to.
        fired = registry.faults_fired if registry is not None else 0
        assert corrupt == fired, (
            f"rate {rate}: {fired} fault(s) injected, {corrupt} detected")
        if clean_seconds is None:
            clean_seconds = seconds
        rows.append([
            f"{rate:.2f}",
            f"{int(after['batches'] - before['batches'])}",
            f"{int(after['retries'] - before['retries'])}",
            f"{corrupt}",
            f"{after['seconds_in_retry'] - before['seconds_in_retry']:.3f}s",
            f"{seconds:.3f}s",
            f"{seconds / clean_seconds:.2f}x",
        ])
        points.append({
            "flip_rate": rate,
            "batches": int(after["batches"] - before["batches"]),
            "retries": int(after["retries"] - before["retries"]),
            "corrupt_detected": corrupt,
            "retry_seconds": after["seconds_in_retry"]
            - before["seconds_in_retry"],
            "readback_seconds": seconds,
            "vs_clean": seconds / clean_seconds,
        })

    record_bench("transport_faults",
                 {"design": "cluster-2core", "ladder": points})
    emit_table(
        "Verified transport: retry overhead vs channel fault rate "
        "(full state readback, seeded FaultSchedule)",
        ["flip rate", "batches", "retries", "corrupt", "retry time",
         "readback", "vs clean"],
        rows)
    emit("Every injected fault was a corrupted batch the golden-channel "
         "check detected and re-issued; no readback value ever diverged "
         "from simulator truth.")
