"""One benchmark workload in a fresh process (spawned by ``run.py``).

Usage (from the repository root)::

    python3 perfbench/workload.py --workload fig11_des --seed 1 \\
        --seconds 15 --trace 0 [--smoke]
    python3 perfbench/workload.py --probe fig11_des   # set-up probe

Library workloads answer their whole grid once per *pass*, one call
per app set on a fresh engine, with the app sets in an order drawn from
the seed, and repeat passes until ``--seconds`` of reference seconds
(``calibrate.py``) have elapsed (at least one pass).  A traced run makes
the same passes twice, untraced then traced, and reports the per-layer
metrics of the traced ones plus the overhead (traced wall / untraced
wall - 1).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import spec

if len(sys.argv) == 3 and sys.argv[1] == "--probe":
    # Set-up probe: import + engine construction; then, untimed, one
    # calibration point on the same core for rescaling.
    from repro.core import ScenarioEngine

    ScenarioEngine(fast_forward=sys.argv[2] == "horizon_auto")
    import time

    ready = time.perf_counter()
    import calibrate

    print(ready, calibrate.point(), flush=True)
    sys.exit(0)

import calibrate  # noqa: E402
import common  # noqa: E402
import tracer as tracing  # noqa: E402
from common import clock  # noqa: E402

#: Fig. 11 average savings reported by the paper, in percent.
PAPER_BEAM_PCT = 29.0
PAPER_BCOM_PCT = 70.0


def load_reference(name: str) -> dict:
    data = json.loads((spec.REFERENCE_DIR / f"{name}.json").read_text())
    return {
        (tuple(point["apps"]), point["scheme"]): point
        for point in data["points"]
    }


class GridWorkload:
    """fig11_des or horizon_auto: jobs of six-scheme grid points."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        from repro.core.schemes.registry import scheme_names
        from repro.workloads import FIG11_COMBOS

        self.name = name
        self.seed = seed
        self.schemes = scheme_names()
        if name == "fig11_des":
            self.app_sets = list(FIG11_COMBOS)
            self.windows = 1
        else:
            self.app_sets = list(spec.HORIZON_SETS)
            self.windows = spec.HORIZON_WINDOWS
        if smoke:
            self.app_sets = [
                apps for apps in self.app_sets
                if apps in (("A2", "A5"), ("A5", "A7"), ("A3",), ("A10",))
            ]
        self.reference = load_reference(name)

    def engine(self):
        from repro.core import ScenarioEngine

        if self.name == "fig11_des":
            return ScenarioEngine()
        return ScenarioEngine(fast_forward=True)

    def run_unit(self, engine, apps):
        """One app set under every scheme: ``{scheme: outcome}``.

        fig11_des calls ``compare_grid`` (the ``repro compare`` path);
        horizon_auto calls ``run_batch``, whose auto planner confirms the
        app set's frontier through the DES.
        """
        from repro.core import Scenario, compare_grid
        from repro.errors import ReproError

        if self.name == "fig11_des":
            try:
                return compare_grid(
                    [apps], self.schemes, windows=self.windows,
                    engine=engine, fidelity="des",
                )[apps]
            except ReproError as exc:
                return {s: exc for s in self.schemes}
        scenarios = [
            Scenario.of(list(apps), scheme=scheme, windows=self.windows)
            for scheme in self.schemes
        ]
        return dict(zip(self.schemes,
                        engine.run_batch(scenarios, fidelity="auto")))

    def one_pass(self, index: int, report: common.Report, tr=None) -> dict:
        """Answer the whole grid once, app sets in the pass's seeded order.

        An untraced pass runs under a :class:`calibrate.Sampler`, so its
        time can be given in reference seconds; a traced pass runs
        without it, so that no kernel time lands in a layer's span.  The
        results stay alive until the pass ends, as they do for a caller
        holding a whole-grid answer.
        """
        order = list(self.app_sets)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        engine = self.engine()
        results = {}
        sampler = calibrate.Sampler()
        started = clock()
        if tr is None:
            with sampler:
                for apps in order:
                    results[apps] = self.run_unit(engine, apps)
        else:
            for apps in order:
                rid = f"{self.name}:pass{index}:{'+'.join(apps)}"
                with tr.span("bench.job", rid):
                    results[apps] = self.run_unit(engine, apps)
        job_s = clock() - started - sampler.kernel_s()
        stats = {
            "job_s": job_s,
            "ref_s": job_s * sampler.speed(),
            "samples": len(sampler.samples),
            "points": self.check(results, report),
            "engine": engine.metrics.snapshot(),
            "savings": self.savings(results),
        }
        engine.close()
        return stats

    def check(self, results: dict, report: common.Report) -> int:
        """Check every point against the reference; returns the number
        of points answered without a ``ReproError``."""
        from repro.core import ANALYTIC_RTOL
        from repro.errors import ReproError

        answered = 0
        for apps, by_scheme in results.items():
            for scheme, outcome in by_scheme.items():
                report.attempted += 1
                label = f"{'+'.join(apps)}:{scheme}"
                if isinstance(outcome, ReproError):
                    report.fail(f"{label}: {type(outcome).__name__}: "
                                f"{outcome}")
                    continue
                answered += 1
                ref = self.reference.get((apps, scheme))
                if ref is None:
                    report.mismatch(f"{label}: no reference point")
                    continue
                for field in ("interrupt_count", "cpu_wake_count",
                              "bus_bytes"):
                    if getattr(outcome, field) != ref[field]:
                        report.mismatch(
                            f"{label}: {field} {getattr(outcome, field)} "
                            f"!= reference {ref[field]}"
                        )
                for field, ours in (("total_j", outcome.energy.total_j),
                                    ("duration_s", outcome.duration_s)):
                    theirs = ref[field]
                    if self.name == "fig11_des":
                        bad = ours != theirs
                    else:
                        bad = abs(ours - theirs) > ANALYTIC_RTOL * abs(theirs)
                    if bad:
                        report.mismatch(
                            f"{label}: {field} {ours!r} != reference "
                            f"{theirs!r}"
                        )
            if self.name == "fig11_des" and not any(
                isinstance(o, ReproError) for o in by_scheme.values()
            ):
                energy = {s: o.energy.total_j for s, o in by_scheme.items()}
                if not energy["bcom"] < energy["beam"] < energy["baseline"]:
                    report.mismatch(
                        f"{'+'.join(apps)}: Figure 11 order broken "
                        f"(bcom {energy['bcom']}, beam {energy['beam']}, "
                        f"baseline {energy['baseline']})"
                    )
        return answered

    def savings(self, results: dict) -> dict:
        """Per app set: BEAM and BCOM savings vs baseline (fig11 only)."""
        from repro.errors import ReproError

        if self.name != "fig11_des":
            return {}
        out = {}
        for apps, by_scheme in results.items():
            if any(isinstance(o, ReproError) for o in by_scheme.values()):
                continue
            base = by_scheme["baseline"].energy
            out[apps] = (
                by_scheme["beam"].energy.savings_vs(base),
                by_scheme["bcom"].energy.savings_vs(base),
            )
        return out

    def passes(self, seconds: float, report, count=None, tr=None) -> list:
        """Whole passes until ``seconds`` of job time (reference seconds,
        so the number of passes does not follow the host's speed), or
        exactly ``count``.  A mismatch ends the run after the pass that
        found it.
        """
        done: list = []
        while not done or not report.mismatches and (
            len(done) < count if count
            else sum(stats["ref_s"] for stats in done) < seconds
        ):
            done.append(self.one_pass(len(done), report, tr))
        return done


def run_grid(args, report: common.Report) -> None:
    workload = GridWorkload(args.workload, args.seed, args.smoke)
    setup = [common.probe_setup(args.workload)
             for _ in range(common.SETUP_SAMPLES)]
    untraced = workload.passes(args.seconds, report)
    if args.trace:
        tr = tracing.install(tracing.Tracer())
        try:
            traced = workload.passes(
                args.seconds, report, count=len(untraced), tr=tr
            )
        finally:
            tr.uninstall()
        trace_metrics(report, workload, untraced, traced, tr)
        return
    job_s = [stats["ref_s"] for stats in untraced]
    busy = sum(job_s)
    points = sum(stats["points"] for stats in untraced)
    report.metrics.update({
        "points_per_s": points / busy,
        "jobs_per_s": len(job_s) / busy,
        "job_ms_p50": common.percentile(job_s, 50) * 1000.0,
        "job_ms_p95": common.percentile(job_s, 95) * 1000.0,
        "peak_rss_mb": common.peak_rss_mb(),
        "setup_s": common.percentile(setup, 50),
    })
    report.samples.update({
        "job_ms_p50": len(job_s), "job_ms_p95": len(job_s),
        "setup_s": len(setup),
    })
    wall = sum(stats["job_s"] for stats in untraced)
    report.note(
        f"{len(untraced)} pass(es); a job is one pass: "
        f"{len(workload.app_sets)} app sets x {len(workload.schemes)} "
        f"schemes, one call per app set"
    )
    samples = sum(stats["samples"] for stats in untraced)
    report.note(
        f"times are reference seconds ({samples} kernel samples, see "
        f"calibrate.py); wall: {points / wall:.6g} points/s, "
        f"{1000.0 * wall / len(job_s):.6g} ms per pass"
    )
    savings = untraced[0]["savings"]
    if savings and len(savings) == len(workload.app_sets):
        beam = 100.0 * sum(s[0] for s in savings.values()) / len(savings)
        bcom = 100.0 * sum(s[1] for s in savings.values()) / len(savings)
        err = (abs(beam - PAPER_BEAM_PCT) + abs(bcom - PAPER_BCOM_PCT)) / 2
        report.note(
            f"paper_err_pp = {err:.4f} pp (BEAM {beam:.2f}% vs "
            f"{PAPER_BEAM_PCT:.0f}%, BCOM {bcom:.2f}% vs "
            f"{PAPER_BCOM_PCT:.0f}%)"
        )


def trace_metrics(report, workload, untraced, traced, tr) -> None:
    engine: dict = {}
    for stats in traced:
        common.add_engine_metrics(engine, stats["engine"])
    metrics = common.layer_metrics(tr.summary(), tr.counters, engine)
    wall_untraced = sum(s["job_s"] for s in untraced)
    wall_traced = sum(s["job_s"] for s in traced)
    metrics["trace.overhead_ratio"] = wall_traced / wall_untraced - 1.0
    report.metrics.update(metrics)
    path = spec.WORK_DIR / f"trace-{workload.name}-{workload.seed}.jsonl"
    spec.WORK_DIR.mkdir(exist_ok=True)
    tr.write(path)
    report.note(f"spans written to {path.relative_to(spec.ROOT)}")
    report.note(
        f"traced wall {wall_traced:.3f} s vs untraced {wall_untraced:.3f} s "
        f"(kernel samples excluded) "
        f"over {len(traced)} identical pass(es)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    report = common.Report(args.workload, args.seed, bool(args.trace))
    if args.workload == "serve_mixed":
        import serve_load

        serve_load.run(args, report)
    else:
        run_grid(args, report)
    if report.attempted == 0:
        report.mismatch("no operation was attempted")
    return report.emit()


if __name__ == "__main__":
    sys.exit(main())
