"""``serve-cold`` and ``serve-hot``: two closed-loop clients against ``repro serve``.

The server runs as a subprocess (one shard, a process pool of one
worker, a fresh data directory per run) started through
``serve_launcher.py``. Each client has one connection at a time and
sends its next job only when the previous one is done: ``POST /jobs``,
then ``GET /jobs/<key>/events`` until the terminal event, then
``GET /jobs/<key>``. Request latency is the wall time of those three
calls.

* ``serve-cold`` sends distinct jobs, so every request misses: the load
  is pool dispatch, pickling, compile and cache writes.
* ``serve-hot`` fills the data directory in set-up, restarts the server
  and resubmits the same keys in seeded rounds: round 1 reads the disk
  cache, later rounds hit the in-memory records. The compile layers
  sit idle.

Every served fingerprint is checked against a local compile of the same
job, and every kernel against the verifier and simulator, after the
timed region.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    QUALITY_UNITS,
    SCHEMES,
    SRC,
    SetupError,
    check_kernel,
    draw_loops,
    median,
    percentile,
    quality,
    warmup_loops,
)
from layers import (
    LAYER_UNITS,
    compile_layer_metrics,
    merge_summaries,
)

#: The machine every served job targets.
MACHINE = "4c1b2l64r"

#: Closed-loop clients.
CLIENTS = 2

#: Server boots per run; ``setup_s`` is their median.
BOOTS = 3


#: ``serve-hot``: rounds over its keys (one key per loop of the draw).
HOT_ROUNDS = 8

#: Where runs keep data directories and logs, inside the checkout.
WORK_ROOT = Path(".perfbench_tmp")

LAUNCHER = Path(__file__).resolve().with_name("serve_launcher.py")
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
CPU_ENV = "PERFBENCH_SERVER_CPU"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw.rsplit(")", 1)[1].split()


def _children(pid: int) -> list[int]:
    """Live child processes of ``pid`` (the pool worker)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields and int(fields[1]) == pid and fields[0] != "Z":
                found.append(int(entry))
    return found


def placement() -> tuple[int, int] | None:
    """CPUs for (server and clients, pool worker), or None on one CPU.

    Left to the scheduler, the server, its worker and the clients
    migrate between CPUs and run-to-run latency moves by 10-20%; with
    the front end on one CPU and the compile worker on another it
    repeats within a few percent.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def _alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


class Server:
    """One ``repro serve`` subprocess with its log in a file.

    The log is a file, not a pipe: nothing drains a pipe while the
    server runs, and a full pipe stalls it.
    """

    def __init__(self, work: Path, data_dir: Path, trace_dir: Path | None) -> None:
        self.work = work
        self.data_dir = data_dir
        self.trace_dir = trace_dir
        self.process: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> float:
        """Spawn the server; returns seconds until it logged its URL."""
        log = self.work / f"server-{time.monotonic_ns()}.log"
        env = dict(os.environ)
        env.pop("REPRO_TRACE", None)
        env.pop(TRACE_DIR_ENV, None)
        env["PYTHONPATH"] = str(SRC.resolve())
        env["REPRO_LOG"] = "text"
        env["REPRO_CACHE_DIR"] = str(self.work / "cache")
        if self.trace_dir is not None:
            env[TRACE_DIR_ENV] = str(self.trace_dir)
        cpus = placement()
        if cpus is not None:
            env[CPU_ENV] = str(cpus[0])
        command = [
            sys.executable, str(LAUNCHER), "serve",
            "--port", "0", "--shards", "1", "--workers", "1",
            "--executor", "process", "--data-dir", str(self.data_dir),
        ]
        started = time.perf_counter()
        with open(log, "wb") as stderr:
            self.process = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                env=env,
                start_new_session=True,
            )
        deadline = started + 60
        while True:
            text = log.read_text(errors="replace")
            found = re.search(r"listening \(url=(\S+)", text)
            if found:
                self.url = found.group(1)
                return time.perf_counter() - started
            if self.process.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise SetupError(f"server did not come up: {text[-400:]}")
            time.sleep(0.002)

    def pids(self) -> list[int]:
        """The server and its pool worker."""
        return [self.process.pid, *_children(self.process.pid)]

    def cpu_seconds(self) -> dict[int, float]:
        """CPU time (user + system) per process, seconds."""
        out = {}
        for pid in self.pids():
            fields = _proc_stat(pid)
            if fields:
                out[pid] = (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
        return out

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of the server and its worker, MiB."""
        total = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            found = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if found:
                total += int(found.group(1))
        return total / 1024

    def stop(self) -> list[str]:
        """Stop with SIGINT (the drain path); returns what went wrong.

        SIGTERM is not used: it ends the server without draining and
        leaves the pool worker running. A worker that outlives the
        drained server is a failure; it is killed so nothing is left.
        """
        if self.process is None:
            return []
        process, self.process = self.process, None
        if process.poll() is not None:
            return [f"server exited early with code {process.returncode}"]
        problems = []
        workers = _children(process.pid)
        process.send_signal(signal.SIGINT)
        try:
            code = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait()
            problems.append("server did not drain within 30 s")
        if code != 0:
            problems.append(f"server exited with code {code}")
        deadline = time.perf_counter() + 5
        for pid in workers:
            while _alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                problems.append(f"pool worker {pid} outlived the server")
        return problems


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


def _one_request(client, job) -> dict:
    """Submit, wait for the terminal event, fetch; time each step."""
    began = time.perf_counter()
    try:
        key = client.submit(job)["key"]
        submitted = time.perf_counter()
        events = client.events(key)
        waited = time.perf_counter()
        final = client.status(key)
        done = time.perf_counter()
    except Exception as exc:  # a client must keep going; the error is counted
        return {"error": f"{type(exc).__name__}: {exc}"}
    record = {
        "key": key,
        "submit": submitted - began,
        "wait": waited - submitted,
        "fetch": done - waited,
        "total": done - began,
        "fingerprint": final.get("fingerprint"),
        "error": None,
    }
    if not events or events[-1].get("kind") not in ("finished", "cache_hit", "error", "timeout"):
        record["error"] = f"no terminal event for {job.tag}"
    elif final.get("outcome") != "ok":
        record["error"] = f"{job.tag}: {final.get('error_kind')}: {final.get('error')}"
    return record


def run_requests(url: str, jobs: list) -> list[dict]:
    """Send ``jobs`` in order through the closed-loop clients."""
    from repro.serve import ServeClient

    records: list[dict | None] = [None] * len(jobs)
    queue = iter(enumerate(jobs))
    lock = threading.Lock()

    def client_loop(name: str) -> None:
        client = ServeClient(url, client_id=name)
        while True:
            with lock:
                item = next(queue, None)
            if item is None:
                return
            index, job = item
            records[index] = _one_request(client, job)

    threads = [
        threading.Thread(target=client_loop, args=(f"client{i}",))
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _counters(stats: dict) -> dict[str, float]:
    return {
        name: entry["value"]
        for name, entry in stats["metrics"].items()
        if entry.get("type") == "counter"
    }


def serve_pass(
    work: Path,
    data_dir: Path,
    warm: list[list],
    rounds: list[list],
    boots: int = 1,
    trace_dir: Path | None = None,
) -> dict:
    """Boot a server, warm it up, time ``rounds`` of requests, stop it.

    Rounds run one after another, so a key's round-``r`` request always
    reaches the server before its round-``r + 1`` request.
    """
    from repro.serve import ServeClient

    boot_s, problems = [], []
    server = None
    own_cpus = os.sched_getaffinity(0)
    try:
        for _ in range(boots):
            if server is not None:
                problems += server.stop()
            server = Server(work, data_dir, trace_dir)
            boot_s.append(server.start())
        for batch in warm:
            run_requests(server.url, batch)
        cpus = placement()
        if cpus is not None:
            # The worker exists once the warm-up has used the pool.
            for pid in _children(server.process.pid):
                os.sched_setaffinity(pid, {cpus[1]})
            os.sched_setaffinity(0, {cpus[0]})
        stats = ServeClient(server.url, client_id="stats")
        before = _counters(stats.stats())
        cpu_before = server.cpu_seconds()
        window = [time.time()]
        started = time.perf_counter()
        results = [run_requests(server.url, batch) for batch in rounds]
        wall = time.perf_counter() - started
        window.append(time.time())
        cpu_after = server.cpu_seconds()
        after = _counters(stats.stats())
        peak_rss = server.peak_rss_mb()
    finally:
        os.sched_setaffinity(0, own_cpus)
        if server is not None:
            problems += server.stop()
    cpu = sum(value - cpu_before.get(pid, 0.0) for pid, value in cpu_after.items())
    return {
        "boot_s": boot_s,
        "problems": problems,
        "rounds": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "counts": {name: after.get(name, 0) - before.get(name, 0) for name in after},
        "peak_rss_mb": peak_rss,
        "window": window,
    }


# ----------------------------------------------------------------------
# Inputs and checks
# ----------------------------------------------------------------------


def make_job(loop, scheme: str):
    """The served job compiling ``loop`` under ``scheme``."""
    from repro.engine.jobs import CompileJob

    return CompileJob(
        ddg=loop.ddg, machine=MACHINE, scheme=scheme, tag=f"{loop.name}/{scheme}"
    )


def make_jobs(loops: list) -> list:
    """(loop, job) per loop and scheme, keeping the first of equal keys."""
    pairs, keys = [], set()
    for loop in loops:
        for scheme in SCHEMES:
            job = make_job(loop, scheme)
            key = job.content_hash()
            if key not in keys:
                keys.add(key)
                pairs.append((loop, job))
    return pairs


def check_served(pairs: list, served: list[list[dict]], report) -> tuple[list, float]:
    """Compare every served result with a local compile of its job.

    ``served[i]`` holds every request record of ``pairs[i]``'s job.
    Returns the quality cells of the local results (equal to the served
    ones wherever the fingerprints match) and the seconds spent in the
    verifier and simulator.
    """
    from repro.engine.fingerprint import result_fingerprint
    from repro.engine.jobs import resolve_machine
    from repro.pipeline import CompileError, compile_loop

    machine = resolve_machine(MACHINE)
    cells, check_s = [], 0.0
    for (loop, job), records in zip(pairs, served):
        try:
            result = compile_loop(loop.ddg, machine, job.scheme)
        except CompileError:
            result = None
        fingerprint = result_fingerprint(result) if result is not None else None
        for record in records:
            if record["error"] is not None:
                # A request that never reached the server is a failed
                # operation, not a wrong answer.
                if result is not None and "key" in record:
                    report.check_failed(f"{job.tag}: served an error, compiles locally")
            elif result is None:
                report.check_failed(f"{job.tag}: served a result, fails locally")
            elif record["fingerprint"] != fingerprint:
                report.check_failed(f"{job.tag}: served fingerprint differs from local compile")
        if result is None:
            continue
        started = time.perf_counter()
        failure = check_kernel(loop, result)
        check_s += time.perf_counter() - started
        if failure:
            report.check_failed(failure)
        cells.append((MACHINE, str(job.scheme_key), loop, result))
    return cells, check_s


def _warm_jobs(seed: int, seconds: int) -> list:
    return [job for _, job in make_jobs(warmup_loops(seed, seconds))]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class _Workspace:
    """A fresh directory per run under :data:`WORK_ROOT`, removed after."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = WORK_ROOT / f"run-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir()
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _report_e2e(report, timed: dict, cells: list, boot_s: list[float]) -> None:
    latencies = [r["total"] for batch in timed["rounds"] for r in batch if r["error"] is None]
    requests = sum(len(batch) for batch in timed["rounds"])
    report.add("jobs_per_cpu_s", requests / timed["cpu_s"], "1/s")
    report.add("jobs_per_s", requests / timed["wall_s"], "1/s")
    report.add("job_ms_p50", 1000 * percentile(latencies, 50), "ms", len(latencies))
    report.add("job_ms_p99", 1000 * percentile(latencies, 99), "ms", len(latencies))
    for name, value in quality(cells).items():
        report.add(name, value, QUALITY_UNITS[name])
    report.add("setup_s", median(boot_s), "s", len(boot_s))
    report.add("peak_rss_mb", timed["peak_rss_mb"], "MiB")


def _read_trace(trace_dir: Path, window: list[float]) -> tuple[dict, list]:
    """Server spans and worker job lines that began inside ``window``."""
    lo, hi = window
    server = json.loads((trace_dir / "server.json").read_text())
    durations: dict[str, list[float]] = {}
    for layer, start, seconds in server["spans"]:
        if lo <= start <= hi:
            durations.setdefault(layer, []).append(seconds)
    durations["engine.pool"] = [s for start, s in server["pool"] if lo <= start <= hi]
    jobs = []
    for path in sorted(trace_dir.glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            if lo <= entry["start"] <= hi:
                jobs.append(entry)
    return durations, jobs


def _layer_values(traced: dict, untraced: dict, trace_dir: Path) -> tuple[dict, dict]:
    durations, jobs = _read_trace(trace_dir, traced["window"])
    counters: dict[str, float] = {}
    stages: dict[str, float] = {}
    for job in jobs:
        for name, value in job["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in job["stages"].items():
            stages[name] = stages.get(name, 0.0) + value
    values = compile_layer_metrics(
        merge_summaries([job["layers"] for job in jobs]),
        counters,
        sum(job["attempts"] for job in jobs),
        stages,
    )
    job_cpu = [job["cpu_s"] for job in jobs]
    rounds = traced["rounds"]
    ok = [r for batch in rounds for r in batch if r["error"] is None]
    first = [r["total"] for r in rounds[0] if r["error"] is None]
    repeat = [r["total"] for batch in rounds[1:] for r in batch if r["error"] is None]
    requests = sum(len(batch) for batch in rounds)
    counts = traced["counts"]
    samples = {
        "pipeline.job_cpu_ms_p50": len(job_cpu),
        "pipeline.job_cpu_ms_p99": len(job_cpu),
        "engine.pool_ms_p50": len(durations["engine.pool"]),
        "engine.cache_get_ms_p50": len(durations.get("engine.cache_get", [])),
        "engine.cache_put_ms_p50": len(durations.get("engine.cache_put", [])),
        "serve.manager_submit_ms_p50": len(durations.get("serve.manager_submit", [])),
        "serve.submit_ms_p50": len(ok),
        "serve.wait_ms_p50": len(ok),
        "serve.fetch_ms_p50": len(ok),
        "serve.first_touch_ms_p50": len(first),
        "serve.repeat_ms_p50": len(repeat),
    }
    values.update(
        {
            "pipeline.job_cpu_ms_p50": 1000 * percentile(job_cpu, 50),
            "pipeline.job_cpu_ms_p99": 1000 * percentile(job_cpu, 99),
            "engine.pool_ms_p50": 1000 * percentile(durations["engine.pool"], 50),
            "engine.cache_get_ms_p50": 1000 * percentile(durations.get("engine.cache_get", []), 50),
            "engine.cache_put_ms_p50": 1000 * percentile(durations.get("engine.cache_put", []), 50),
            "serve.manager_submit_ms_p50": 1000
            * percentile(durations.get("serve.manager_submit", []), 50),
            "serve.submit_ms_p50": 1000 * percentile([r["submit"] for r in ok], 50),
            "serve.wait_ms_p50": 1000 * percentile([r["wait"] for r in ok], 50),
            "serve.fetch_ms_p50": 1000 * percentile([r["fetch"] for r in ok], 50),
            "serve.first_touch_ms_p50": 1000 * percentile(first, 50),
            "serve.repeat_ms_p50": 1000 * percentile(repeat, 50),
            "serve.dedupe_ratio": counts.get("serve.deduped", 0) / requests,
            "serve.cache_hit_ratio": counts.get("serve.cache_hits", 0) / requests,
            "obs.trace_overhead_pct": 100 * (traced["wall_s"] / untraced["wall_s"] - 1),
        }
    )
    return values, samples


def _finish(report, passes: list[dict], expected: dict[str, int]) -> None:
    """Count requests, server problems and counter mismatches."""
    timed = passes[-1]
    report.attempted = sum(len(batch) for batch in timed["rounds"])
    report.failed += sum(
        1 for batch in timed["rounds"] for r in batch if r["error"] is not None
    )
    for served in passes:
        for problem in served["problems"]:
            report.check_failed(problem)
        for name, value in expected.items():
            if served["counts"].get(name, 0) != value:
                report.check_failed(
                    f"server counter {name} = {served['counts'].get(name, 0)}, expected {value}"
                )


def run_cold(seed: int, seconds: int, trace: bool, report) -> None:
    """Distinct jobs against a fresh server: every request misses."""
    started = time.perf_counter()
    pairs = make_jobs(draw_loops(seed, seconds))
    generate_s = time.perf_counter() - started
    jobs = [job for _, job in pairs]
    warm = [_warm_jobs(seed, seconds)]
    expected = {"serve.compiled": len(jobs), "serve.deduped": 0, "serve.cache_hits": 0}
    with _Workspace() as work:
        passes = [serve_pass(work, work / "data0", warm, [jobs], boots=1 if trace else BOOTS)]
        if trace:
            trace_dir = work / "trace"
            trace_dir.mkdir()
            passes.append(
                serve_pass(work, work / "data1", warm, [jobs], trace_dir=trace_dir)
            )
            values, samples = _layer_values(passes[1], passes[0], trace_dir)
    _finish(report, passes, expected)
    cells, check_s = check_served(
        pairs, [[record] for record in passes[-1]["rounds"][0]], report
    )
    if not trace:
        _report_e2e(report, passes[0], cells, passes[0]["boot_s"])
        return
    values["workloads.generate_s"] = generate_s
    values["sim.check_s"] = check_s
    report.add_layers(values, LAYER_UNITS, samples)


def run_hot(seed: int, seconds: int, trace: bool, report) -> None:
    """Resubmit cached keys in seeded rounds after a restart."""
    started = time.perf_counter()
    loops = draw_loops(seed, seconds)
    # One key per loop, the schemes taken in turn: a smaller key set
    # with the same mix of benchmarks and loop sizes as the draw.
    pairs = [
        (loop, make_job(loop, SCHEMES[index % len(SCHEMES)]))
        for index, loop in enumerate(loops)
    ]
    generate_s = time.perf_counter() - started
    rng = random.Random(seed)
    jobs = [job for _, job in pairs]
    rounds = [rng.sample(jobs, len(jobs)) for _ in range(HOT_ROUNDS)]
    warm_jobs = _warm_jobs(seed, seconds)
    # Warm-up repeats its keys too: first a disk read, then a dedupe.
    warm = [warm_jobs, warm_jobs]
    expected = {
        "serve.compiled": 0,
        "serve.cache_hits": len(jobs),
        "serve.deduped": len(jobs) * (HOT_ROUNDS - 1),
    }
    with _Workspace() as work:
        data = work / "data"
        fill_trace = work / "fill-trace" if trace else None
        if fill_trace is not None:
            fill_trace.mkdir()
        fill = serve_pass(work, data, [], [jobs + warm_jobs], trace_dir=fill_trace)
        passes = [serve_pass(work, data, warm, rounds, boots=1 if trace else BOOTS)]
        if trace:
            trace_dir = work / "trace"
            trace_dir.mkdir()
            passes.append(serve_pass(work, data, warm, rounds, trace_dir=trace_dir))
            values, samples = _layer_values(passes[1], passes[0], trace_dir)
            # The timed rounds never reach the pool: its dispatch and
            # the cache writes are measured on the set-up fill instead.
            durations, _ = _read_trace(fill_trace, fill["window"])
            for name in ("engine.pool", "engine.cache_put"):
                values[f"{name}_ms_p50"] = 1000 * percentile(durations.get(name, []), 50)
                samples[f"{name}_ms_p50"] = len(durations.get(name, []))
    for problem in fill["problems"]:
        report.check_failed(f"fill: {problem}")
    _finish(report, passes, expected)
    # The fill's compile and every round's answer for a key are checked
    # against one local compile of it.
    position = {id(job): index for index, job in enumerate(jobs)}
    served = [[record] for record in fill["rounds"][0][: len(jobs)]]
    for batch, records in zip(rounds, passes[-1]["rounds"]):
        for job, record in zip(batch, records):
            served[position[id(job)]].append(record)
    cells, check_s = check_served(pairs, served, report)
    if not trace:
        _report_e2e(report, passes[0], cells, passes[0]["boot_s"])
        return
    values["workloads.generate_s"] = generate_s
    values["sim.check_s"] = check_s
    report.add_layers(values, LAYER_UNITS, samples)
