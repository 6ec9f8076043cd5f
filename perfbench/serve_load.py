"""serve_mixed: ``repro serve`` under a closed-loop, two-connection job mix.

The server runs in its own process (``serve_launcher.py``) on a fresh
copy of a disk cache prefilled with every point of the read universe
(``spec.SERVE_SETS`` x schemes x ``spec.SERVE_WINDOWS``).  The prefill
and its reference artifacts are built once per source tree under
``.perfbench/`` and reused by later runs.

One load process drives the server over 2 connections (threads), each
sending a fixed number of jobs.  Each connection sends its next job
only after the previous job's artifacts arrive and a seeded think time
has passed: POST /jobs, then the NDJSON
events stream to the terminal state, then GET /jobs/{id}/result.  A
job's latency spans all three.  Jobs that end in the first
``WARMUP_S`` are checked but not timed.

Before each job's think time, the connection times one run of the
calibration kernel (``calibrate.py``); ``job_ms_*`` are given in
reference milliseconds, rescaled by the mean speed those samples show.

Mix, drawn from the seed: run, sweep and grid reads of prefilled points;
run jobs on never-seen points (DES miss plus disk put); and every
``COALESCE_EVERY``-th job, the same never-seen grid on both connections
at once, so the second request coalesces onto the first.  No record of
real usage exists to derive the shares from; README.md says how each
was chosen.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate
import common
import spec
from common import clock

CONNECTIONS = 2
#: Share of non-coalescing jobs that write one never-seen point, chosen
#: so that about a tenth of the answered points are never-seen (read
#: jobs carry 2.6 points on average).  Each run prints the measured share.
WRITE_SHARE = 0.2
#: The three job kinds of docs/serve.md; a read job is each with equal
#: probability.
READ_KINDS = ("run", "sweep", "grid")
#: Every this many jobs, both connections send the same never-seen grid
#: at once: several coalescing pairs per run, a small part of the load.
COALESCE_EVERY = 100
JOB_TIMEOUT_S = 60.0
#: Each connection waits a seeded think time, uniform in [0, THINK_S),
#: before each job.  Without it the two closed loops lock into a fixed
#: phase against each other and against the server's 20 ms re-check,
#: and which phase a run happens to lock into sets its latency.
THINK_S = 0.02
#: Jobs ending this long after the load starts fill the server's memory
#: cache and are checked but not timed; the timed window follows.
WARMUP_S = 2.0
#: Jobs each connection sends per second of load: the rate one sustains
#: on the reference host.  A fixed count, not a deadline, ends the load,
#: so the server's peak RSS (it keeps every finished job) does not follow
#: the host's speed.
JOB_RATE = 28
#: A load still running after this many times its nominal length stops.
DEADLINE_FACTOR = 3.0
#: Throughput and median latency are medians over this many equal
#: slices of the run, so a host stall of a second or two moves at most
#: one slice.  The 95th percentile takes the whole run: a slice holds too
#: few jobs beyond it.
SLICES = 3

Key = Tuple[Tuple[str, ...], str, int, Optional[int]]


def key_str(key: Key) -> str:
    apps, scheme, windows, batch = key
    return f"{'+'.join(apps)}|{scheme}|w{windows}|b{batch}"


def digest(artifact: dict) -> str:
    from repro.serve import canonical_json

    return hashlib.sha256(canonical_json(artifact).encode()).hexdigest()


def scenario_of(key: Key):
    from repro.core import Scenario

    apps, scheme, windows, batch = key
    return Scenario.of(list(apps), scheme=scheme, windows=windows,
                       batch_size=batch)


def direct_digests(keys: List[Key], engine) -> Dict[str, str]:
    """``result_artifact`` digests of points computed through ``engine``."""
    from repro.errors import ReproError
    from repro.serve import result_artifact

    out = {}
    for start in range(0, len(keys), 64):
        chunk = keys[start:start + 64]
        scenarios = [scenario_of(key) for key in chunk]
        outcomes = engine.run_batch(scenarios)
        fingerprints = engine.fingerprints(scenarios)
        for key, outcome, fingerprint in zip(chunk, outcomes, fingerprints):
            if isinstance(outcome, ReproError):
                raise RuntimeError(
                    f"point {key_str(key)} fails at this commit: {outcome}"
                )
            out[key_str(key)] = digest(result_artifact(outcome, fingerprint))
    return out


def read_universe(schemes) -> List[Key]:
    return [
        (apps, scheme, windows, None)
        for apps in spec.SERVE_SETS
        for windows in spec.SERVE_WINDOWS
        for scheme in schemes
    ]


def source_digest() -> str:
    """Digest of the library sources: keys the reusable prefill."""
    sha = hashlib.sha256()
    package = spec.SRC / "repro"
    for path in sorted(package.rglob("*.py")):
        sha.update(str(path.relative_to(package)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def ensure_prefill(schemes) -> Tuple[Path, Dict[str, str]]:
    """The prefilled cache dir and its reference digests (built once)."""
    from repro.core import ScenarioEngine

    base = spec.WORK_DIR / f"serve-prefill-{source_digest()}"
    refs_path = base / "references.json"
    if not refs_path.is_file():
        spec.WORK_DIR.mkdir(exist_ok=True)
        for stale in spec.WORK_DIR.glob("serve-prefill-*"):
            shutil.rmtree(stale)
        building = spec.WORK_DIR / f"serve-prefill-building-{os.getpid()}"
        with ScenarioEngine(cache_dir=building / "cache") as engine:
            refs = direct_digests(read_universe(schemes), engine)
        (building / "references.json").write_text(json.dumps(refs))
        building.rename(base)
    return base / "cache", json.loads(refs_path.read_text())


# ----------------------------------------------------------------------
# job mix
# ----------------------------------------------------------------------
def point_spec(key: Key) -> dict:
    apps, scheme, windows, batch = key
    point = {"apps": list(apps), "scheme": scheme, "windows": windows}
    if batch is not None:
        point["batch_size"] = batch
    return point


def job_stream(seed: int, conn: int, schemes):
    """Endless seeded job sequence for one connection."""
    rng = random.Random(f"serve:{seed}:{conn}")
    reads = read_universe(schemes)
    writes = [
        (apps, scheme, windows, batch)
        for apps in spec.SERVE_NEW_SETS
        for windows in spec.SERVE_NEW_WINDOWS
        for batch in spec.SERVE_NEW_BATCH_SIZES
        for scheme in schemes
    ]
    random.Random(f"serve:{seed}:writes").shuffle(writes)
    writes = writes[conn::CONNECTIONS]
    half = len(schemes) // 2
    cells = [
        (windows, tuple(schemes[:half]) if first else tuple(schemes[half:]))
        for windows in spec.SERVE_COALESCE_WINDOWS
        for first in (True, False)
    ]
    random.Random(f"serve:{seed}:cells").shuffle(cells)
    slot = written = 0
    while True:
        slot += 1
        if slot % COALESCE_EVERY == 0:
            windows, cell_schemes = cells[(slot // COALESCE_EVERY - 1)
                                          % len(cells)]
            apps = spec.SERVE_COALESCE_SET
            yield {
                "coalesce": True,
                "spec": {"kind": "grid", "app_sets": [list(apps)],
                         "schemes": list(cell_schemes), "windows": windows},
                "keys": [(apps, s, windows, None) for s in cell_schemes],
            }
            continue
        if rng.random() < WRITE_SHARE:
            key = writes[written % len(writes)]
            written += 1
            yield {"coalesce": False,
                   "spec": dict(point_spec(key), kind="run"), "keys": [key]}
            continue
        kind = rng.choice(READ_KINDS)
        if kind == "run":
            key = rng.choice(reads)
            yield {"coalesce": False,
                   "spec": dict(point_spec(key), kind="run"), "keys": [key]}
        elif kind == "sweep":
            keys = rng.sample(reads, rng.randint(2, 4))
            yield {"coalesce": False,
                   "spec": {"kind": "sweep",
                            "points": [point_spec(k) for k in keys]},
                   "keys": keys}
        else:
            app_sets = rng.sample(spec.SERVE_SETS, rng.randint(1, 2))
            picked = set(rng.sample(schemes, rng.randint(2, 3)))
            grid_schemes = [s for s in schemes if s in picked]
            windows = rng.choice(spec.SERVE_WINDOWS)
            yield {
                "coalesce": False,
                "spec": {"kind": "grid",
                         "app_sets": [list(a) for a in app_sets],
                         "schemes": grid_schemes, "windows": windows},
                "keys": [(tuple(a), s, windows, None)
                         for a in app_sets for s in grid_schemes],
            }


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class Server:
    """One launcher process.

    ``ready_s`` is its spawn-to-listening time in reference seconds:
    wall time less the launcher's calibration point, rescaled by it.
    """

    def __init__(self, cache_dir: Path, log: Path,
                 trace_out: Optional[Path] = None) -> None:
        command = [sys.executable, str(spec.BENCH_DIR / "serve_launcher.py"),
                   "--cache-dir", str(cache_dir)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self._log = open(log, "a")
        started = clock()
        self.proc = subprocess.Popen(
            command, cwd=spec.ROOT, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            self.url = self._await_url(deadline=started + 60.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = calibrate.rescale(
            clock() - started - self._point_took, self._point
        )

    def _await_url(self, deadline: float) -> str:
        prefix = "repro serve listening on "
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while clock() < deadline:
                if not selector.select(timeout=max(deadline - clock(), 0)):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("calibration "):
                    self._point, self._point_took = map(float, line.split()[1:])
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
        raise RuntimeError("repro serve did not start; see the server log")

    def stop(self) -> dict:
        """Drain the server; returns its final JSON line."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                out, _ = self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
                raise
        finally:
            self._log.close()
        lines = [line for line in (out or "").splitlines() if line.startswith("{")]
        return json.loads(lines[-1]) if lines else {}


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def do_job(client, job: dict) -> dict:
    from repro.errors import ServeError

    record = {"keys": job["keys"], "coalesce": job["coalesce"],
              "kind": job["spec"]["kind"]}
    started, started_wall = clock(), time.time()
    try:
        submitted = client.submit(job["spec"])
        record["submit_s"] = clock() - started
        state = terminal_wall = None
        for event in client.events(submitted["id"]):
            if event.get("record") == "state":
                state, terminal_wall = event["state"], event["t"]
        streamed = clock()
        payload = client.result(submitted["id"])
        finished = clock()
    except (ServeError, OSError, http.client.HTTPException, ValueError) as exc:
        # HTTP 429/4xx/5xx arrive as ServeError; a dropped connection or
        # a malformed body is a failed job too.
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    # The stream re-checks the job every 20 ms, so the moment it ends is
    # quantized; its terminal record carries the server's wall clock
    # (same host) at the state change, which is not.
    record.update(
        latency_s=terminal_wall - started_wall + finished - streamed,
        observed_s=finished - started, result_s=finished - streamed,
        state=state, end=finished,
        points=payload["points"],  # digested after the timed phase
    )
    errors = [p["error"] for p in payload["points"] if "error" in p]
    if state != "done" or payload.get("state") != "done" or errors:
        record["error"] = f"job ended {state}: {errors[:1]}"
    return record


def load(url: str, seed: int, seconds: float, schemes) -> dict:
    """Closed-loop load: job records, start of the timed window, its length.

    Each connection sends ``JOB_RATE`` jobs per second of ``WARMUP_S``
    plus ``seconds``, so a seed always sends the same jobs; records of
    jobs that end within the first ``WARMUP_S`` carry ``warmup``.
    """
    from repro.serve import ServeClient

    barrier = threading.Barrier(CONNECTIONS)
    records: List[list] = [[] for _ in range(CONNECTIONS)]
    crashes: List[BaseException] = []
    jobs = round((WARMUP_S + seconds) * JOB_RATE)
    started = clock() + WARMUP_S
    deadline = started + DEADLINE_FACTOR * (WARMUP_S + seconds)

    def connection(conn: int) -> None:
        client = ServeClient(url, timeout_s=JOB_TIMEOUT_S)
        think = random.Random(f"serve:{seed}:{conn}:think")
        try:
            for job in itertools.islice(job_stream(seed, conn, schemes), jobs):
                kernel_s = calibrate.timed_kernel()
                time.sleep(think.uniform(0.0, THINK_S))
                if clock() >= deadline:
                    break
                if job["coalesce"]:
                    try:
                        barrier.wait(timeout=JOB_TIMEOUT_S)
                    except threading.BrokenBarrierError:
                        break
                records[conn].append(do_job(client, job))
                records[conn][-1]["kernel_s"] = kernel_s
        except BaseException as exc:  # re-raised by the load thread below
            crashes.append(exc)
        finally:
            barrier.abort()

    threads = [threading.Thread(target=connection, args=(conn,))
               for conn in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(deadline - clock(), 0) + 2 * JOB_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load connection did not finish")
    if crashes:
        raise crashes[0]
    done = [r for conn in records for r in conn]
    for r in done:
        r["warmup"] = r.get("end", started) < started
    ends = [r["end"] for r in done if "end" in r]
    return {"records": done, "started": started,
            "elapsed": (max(ends) if ends else clock()) - started}


def phase(cache_src: Path, run_dir: Path, seed: int, seconds: float,
          schemes, trace_out: Optional[Path] = None) -> dict:
    """One server on a fresh copy of the prefilled cache, under load."""
    from repro.serve import ServeClient

    cache_dir = run_dir / "cache"
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    shutil.copytree(cache_src, cache_dir)
    server = Server(cache_dir, run_dir / "server.log", trace_out)
    try:
        result = load(server.url, seed, seconds, schemes)
        result["stats"] = ServeClient(server.url).stats()
    finally:
        final = server.stop()
    result.update(final=final, ready_s=server.ready_s)
    return result


def check(records: list, refs: Dict[str, str], report: common.Report) -> None:
    """Every job done; every artifact equal to the direct computation."""
    from repro.core import ScenarioEngine

    missing = sorted(
        {key for r in records if "points" in r for key in r["keys"]
         if key_str(key) not in refs},
        key=key_str,
    )
    expected = dict(refs)
    expected.update(direct_digests(missing, ScenarioEngine()))
    for r in records:
        report.attempted += 1
        if "error" in r:
            report.fail(f"{r['kind']} job: {r['error']}")
            continue
        if len(r["points"]) != len(r["keys"]):
            report.mismatch(f"{r['kind']} job returned {len(r['points'])} "
                            f"points for {len(r['keys'])}")
            continue
        for key, point in zip(r["keys"], r["points"]):
            if expected[key_str(key)] != digest(point):
                report.mismatch(f"{key_str(key)}: served artifact differs "
                                "from the direct result_artifact")


def run(args, report: common.Report) -> None:
    from repro.core.schemes.registry import scheme_names

    schemes = list(scheme_names())
    cache_src, refs = ensure_prefill(schemes)
    run_dir = spec.WORK_DIR / f"serve-run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setup = []
        for _ in range(common.SETUP_SAMPLES):
            server = Server(cache_src, run_dir / "server.log")
            server.stop()
            setup.append(server.ready_s)
        seconds = 2.0 if args.smoke else args.seconds
        plain = phase(cache_src, run_dir, args.seed, seconds, schemes)
        traced = None
        if args.trace:
            traced = phase(cache_src, run_dir, args.seed, seconds, schemes,
                           trace_out=run_dir / "trace.json")
            traced["trace"] = json.loads((run_dir / "trace.json").read_text())
            spec.WORK_DIR.joinpath(
                f"trace-serve_mixed-{args.seed}.jsonl"
            ).write_bytes((run_dir / "trace.json.spans.jsonl").read_bytes())
        for result in (plain, traced):
            if result is not None:
                check(result["records"], refs, report)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if report.mismatches:
        return
    if traced is not None:
        trace_metrics(report, plain, traced, args.seed)
    else:
        e2e_metrics(report, plain, setup, refs)


def ok_records(result: dict) -> list:
    """The timed window's completed jobs."""
    return [r for r in result["records"]
            if "error" not in r and not r["warmup"]]


def slices(result: dict) -> List[list]:
    """Successful jobs in ``SLICES`` equal slices of the run, by end time."""
    width = result["elapsed"] / SLICES
    out: List[list] = [[] for _ in range(SLICES)]
    for r in ok_records(result):
        index = int((r["end"] - result["started"]) / width)
        out[min(index, SLICES - 1)].append(r)
    return out


def e2e_metrics(report, result, setup, refs) -> None:
    done = ok_records(result)
    width = result["elapsed"] / SLICES
    parts = [part for part in slices(result) if part]

    def median_of(per_slice) -> float:
        return common.percentile([per_slice(part) for part in parts], 50)

    def speed(part) -> float:
        return sum(calibrate.REFERENCE_S / r["kernel_s"]
                   for r in part) / len(part)

    def latency_ms(q, rescale=True):
        return lambda part: common.percentile(
            [r["latency_s"] for r in part], q
        ) * 1000.0 * (speed(part) if rescale else 1.0)

    points = sum(len(r["keys"]) for r in done)
    new = sum(1 for r in done for key in r["keys"]
              if key_str(key) not in refs)
    elapsed = result["elapsed"]
    report.metrics.update({
        "points_per_s": median_of(
            lambda part: sum(len(r["keys"]) for r in part) / width),
        "jobs_per_s": median_of(lambda part: len(part) / width),
        "job_ms_p50": median_of(latency_ms(50)),
        "job_ms_p95": latency_ms(95)(done),
        "peak_rss_mb": result["final"]["peak_rss_mb"],
        "setup_s": common.percentile(setup, 50),
    })
    report.samples.update({"job_ms_p50": len(done),
                           "job_ms_p95": len(done),
                           "setup_s": len(setup)})
    report.note(
        f"points_per_s, jobs_per_s and job_ms_p50 are medians over "
        f"{SLICES} slices of {width:.2f} s, job_ms_p95 is over the whole "
        f"run; job_ms_* in reference ms "
        f"(mean speed {speed(done):.4g} of the reference over "
        f"{len(done)} kernel samples); whole run, wall clock: "
        f"{points / elapsed:.4g} points/s, {len(done) / elapsed:.4g} jobs/s, "
        f"p50 {latency_ms(50, False)(done):.4g} ms, "
        f"p95 {latency_ms(95, False)(done):.4g} ms"
    )
    kinds: Dict[str, int] = {}
    for r in done:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    report.note(f"{len(done)} jobs in {elapsed:.3f} s over {CONNECTIONS} "
                f"closed-loop connections, after {WARMUP_S:g} s of warm-up: "
                f"{kinds}")
    observed = [r["observed_s"] for r in done]
    report.note(
        f"job_ms as the client sees the stream end (20 ms re-checks): "
        f"p50 {common.percentile(observed, 50) * 1e3:.3f} ms, "
        f"p95 {common.percentile(observed, 95) * 1e3:.3f} ms"
    )
    report.note(f"never-seen points: {new} of {points} "
                f"({100.0 * common.ratio(new, points):.1f}%)")
    report.note(f"coalesced jobs: "
                f"{result['stats']['coalescer']['coalesced']}")


def trace_metrics(report, plain, traced, seed) -> None:
    done = ok_records(traced)
    engine: dict = {}
    common.add_engine_metrics(engine, traced["stats"]["engine"])
    metrics = common.layer_metrics(
        traced["trace"]["summary"], traced["trace"]["counters"], engine,
        serve={
            "submit_ms": common.percentile(
                [r["submit_s"] for r in done], 50) * 1000.0,
            "result_ms": common.percentile(
                [r["result_s"] for r in done], 50) * 1000.0,
            "coalesced": traced["stats"]["coalescer"]["coalesced"],
            "refused": traced["stats"]["quota"]["rejections"],
        },
    )
    per_job_plain = plain["elapsed"] / len(ok_records(plain))
    per_job_traced = traced["elapsed"] / len(done)
    metrics["trace.overhead_ratio"] = per_job_traced / per_job_plain - 1.0
    report.metrics.update(metrics)
    report.samples.update({"serve.submit_ms": len(done),
                           "serve.result_ms": len(done)})
    report.note(f"spans written to .perfbench/trace-serve_mixed-{seed}.jsonl")
    report.note(
        "serve.submit_ms and serve.result_ms are client-side medians of "
        "POST /jobs and GET /jobs/{id}/result"
    )
    report.note(
        f"overhead from wall per job: traced {per_job_traced * 1e3:.3f} ms "
        f"vs untraced {per_job_plain * 1e3:.3f} ms"
    )
