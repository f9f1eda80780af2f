"""Run one benchmark workload against the solver in ./src and print its
metrics as one JSON object on the last line of standard output.

    python3 benchmark/run.py --workload random-10k --seed 1 --seconds 25 \
        --trace 0 --limits random-10k=15,many-colours=40,long-walk=20,tiny-batch=2

Run it from the root of a checkout.  The games come from the workload
seed alone (see games.py); the solver sees only their PGSolver text and
runs the documented library path parse_pgsolver -> solve -> replay_verify,
plus oracle_solve on tiny-batch.  `--limits` gives the per-instance time
limit of each workload in seconds.  Times are scaled to a host of fixed
speed by the reference in meter.py.  With `--trace 0` the end-to-end
metrics are printed, with `--trace 1` the per-layer metrics of a separate
traced run.  WORKLOADS.md explains the workloads and every metric.
Per-instance records and spans are written to benchmark/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from games import WORKLOADS, Shape, draw, instance, rng_for
from layers import OpCounter, TimedPolicy, Tracer, layer_metrics, \
    profile_timings
from meter import HostMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FINGERPRINTS = OUT / "fingerprints.json"

# Set-up is timed in this many fresh interpreters before the first pass
# and as many after each pass, so that the samples span the run; each is
# scaled by the reference around it and setup_s is their median.
SETUP_PER_PASS = 2
# Attempts are scaled in blocks: a block ends with the attempt that takes
# it past this many seconds, and at the end of each pass.
BLOCK_S = 0.5
# No instance starts after this many seconds, so that a run whose
# instances all hit their limits still ends well inside three minutes.
RUN_DEADLINE_S = 120.0

# A fresh interpreter times `import pgsi` and the parse of every text;
# the texts arrive on stdin separated by NUL bytes.
SETUP_CHILD = """
import sys, time
texts = sys.stdin.buffer.read().decode().split("\\0")
started = time.perf_counter()
import pgsi
imported = time.perf_counter()
for text in texts:
    pgsi.parse_pgsolver(text)
print(imported - started, time.perf_counter() - imported)
"""


class TimeLimitExceeded(Exception):
    pass


class Alarm:
    """Interrupts the running instance once its time limit has passed."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise TimeLimitExceeded()

    @contextmanager
    def limit(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Attempt:
    """One solve of one instance.  `status` is "ok" or the failure type;
    `wrong` marks a failure where the solver returned a wrong answer."""

    status: str
    solve_s: float = 0.0
    verified_s: float = 0.0
    fingerprint: tuple[int, int] | None = None
    wrong: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(slots=True)
class InstanceLog:
    """The attempts of one instance, kept small: scaled and measured
    times of the certified attempts, the fingerprints seen, and the
    failed attempts."""

    attempts: int = 0
    solve_s: list[float] = field(default_factory=list)
    verified_s: list[float] = field(default_factory=list)
    measured_verified_s: list[float] = field(default_factory=list)
    fingerprints: set = field(default_factory=set)
    failures: list[Attempt] = field(default_factory=list)

    def add(self, attempt: Attempt, scale: float = 1.0) -> None:
        self.attempts += 1
        if attempt.fingerprint:
            self.fingerprints.add(attempt.fingerprint)
        if attempt.ok:
            self.solve_s.append(attempt.solve_s * scale)
            self.verified_s.append(attempt.verified_s * scale)
            self.measured_verified_s.append(attempt.verified_s)
        else:
            self.failures.append(attempt)


class Runner:
    def __init__(self, pgsi, workload, limit: float, deadline: float):
        self.pgsi = pgsi
        self.workload = workload
        self.limit = limit
        self.deadline = deadline
        self.alarm = Alarm()

    def attempt(self, inst, tracer=None, on_iteration=None,
                verify=True) -> Attempt:
        """Parse the instance untimed, then solve and certify it timed.
        Each attempt parses its own game, so that the solver's garbage
        collections see the heap of a run with one game."""
        pgsi = self.pgsi
        if time.monotonic() > self.deadline:
            return Attempt("RunDeadline", detail="run deadline passed")
        game = pgsi.parse_pgsolver(inst.text)
        if inst.policy_seed is None:
            policy = pgsi.AllSwitches()
        else:
            policy = pgsi.SingleRandom(inst.policy_seed)
        span = nullcontext
        if tracer is not None:
            policy = TimedPolicy(policy, tracer)
            span = tracer.span
        stage = "solve"
        try:
            with self.alarm.limit(self.limit):
                started = time.perf_counter()
                with span("iteration.solve"):
                    result = pgsi.solve(game, policy=policy,
                                        on_iteration=on_iteration)
                solved = time.perf_counter()
                fingerprint = (result.iterations, len(result.w0))
                if verify:
                    stage = "replay"
                    with span("iteration.replay_verify"):
                        pgsi.replay_verify(game, result)
                    if self.workload.oracle:
                        stage = "oracle"
                        with span("oracle.solve"):
                            reference = pgsi.oracle_solve(game)
                        if sorted(reference.w0) != sorted(result.w0):
                            return Attempt("OracleMismatch", wrong=True,
                                           fingerprint=fingerprint)
                verified = time.perf_counter()
        except TimeLimitExceeded:
            return Attempt("TimeLimit", detail="%s exceeded %gs"
                           % (stage, self.limit))
        except pgsi.InvariantViolation as exc:
            # replay_verify rejecting a result is a wrong answer; the
            # solver's own invariant checks firing is a failed run
            return Attempt("ReplayRejected" if stage == "replay"
                           else type(exc).__name__,
                           wrong=stage == "replay", detail=str(exc)[:200])
        except Exception as exc:  # any crash counts against the instance
            return Attempt(type(exc).__name__, detail=str(exc)[:200])
        return Attempt("ok", solved - started, verified - started, fingerprint)


def parse_limits(text: str) -> dict[str, float]:
    limits = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        limits[name.strip()] = float(value)
    return limits


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pgsi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_info(loadavg) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": "Python " + sys.version.replace("\n", " "),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": revision or "unavailable",
            "source_digest": source_digest(),
            "loadavg_at_start": loadavg}


def setup_samples(payload: bytes, meter: HostMeter,
                  warm: bool = False) -> list[tuple[float, float]]:
    """Scaled (import, parse) seconds of SETUP_PER_PASS fresh
    interpreters, each parsing every text in `payload`; with `warm` one
    extra first interpreter warms the bytecode cache and is discarded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for index in range(SETUP_PER_PASS + warm):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD],
                              input=payload, env=env, capture_output=True,
                              timeout=60, check=True)
        scale = meter.scale()
        if index or not warm:
            imported, parsed = map(float, done.stdout.split())
            samples.append((imported * scale, parsed * scale))
    return samples


def summarize_setup(samples: list[tuple[float, float]]) -> dict:
    return {"setup_s": statistics.median(a + b for a, b in samples),
            "import_s": statistics.median(a for a, _ in samples),
            "parse_s": statistics.median(b for _, b in samples),
            "samples": len(samples)}


def summarize(log: InstanceLog, limit: float) -> dict:
    """Fold the attempts of one instance: it is certified only if every
    attempt was, with one fingerprint; a failed instance is charged the
    limit."""
    prints = log.fingerprints
    summary = {"attempts": log.attempts, "status": "ok", "wrong": False,
               "fingerprint": next(iter(prints)) if len(prints) == 1 else None}
    if log.failures:
        first = log.failures[0]
        summary.update(status=first.status, detail=first.detail,
                       wrong=any(a.wrong for a in log.failures))
    elif len(prints) > 1:
        summary.update(status="FingerprintMismatch", wrong=True,
                       detail="fingerprints %s" % sorted(prints))
    ok = summary["status"] == "ok"
    # the median scaled attempt: scaling takes out the host's slow
    # stretches, the median what the references between blocks missed
    summary["solve_s"] = statistics.median(log.solve_s) if ok else limit
    summary["verified_s"] = statistics.median(log.verified_s) if ok else limit
    summary["measured_verified_s"] = (
        statistics.median(log.measured_verified_s) if ok else limit)
    return summary


def check_fingerprints(key: str, inputs: str, summaries: dict) -> None:
    """Compare with the fingerprints an earlier run of the same source
    and inputs stored; a difference marks the instance wrong."""
    code = source_digest()
    try:
        store = json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        store = {}
    store = {k: v for k, v in store.items() if v.get("code") == code}
    entry = store.get(key)
    if entry is None or entry.get("inputs") != inputs:
        entry = {"code": code, "inputs": inputs, "fingerprints": {}}
    known = entry["fingerprints"]
    for label, summary in summaries.items():
        mine = summary["fingerprint"]
        if mine is None:
            continue
        if label in known and tuple(known[label]) != tuple(mine):
            summary.update(status="FingerprintMismatch", wrong=True,
                           detail="stored %s, now %s" % (known[label], mine))
        else:
            known[label] = list(mine)
    store[key] = entry
    OUT.mkdir(exist_ok=True)
    scratch = FINGERPRINTS.with_suffix(".tmp")
    scratch.write_text(json.dumps(store))
    os.replace(scratch, FINGERPRINTS)


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def timed_run(runner, meter: HostMeter, instances, passes: int,
              seconds: float, after_pass) -> dict:
    """`passes` whole passes over the instances, each followed by
    `after_pass()`; no pass but the first starts once the passes so far
    have taken `seconds`.  Every attempt is scaled by its block's factor.
    An instance that failed is not attempted again: it is charged its
    limit whatever later attempts do."""
    logs = {inst.label: InstanceLog() for inst in instances}
    spent = 0.0
    for done in range(passes):
        todo = [inst for inst in instances if not logs[inst.label].failures]
        if not todo or (done and spent > seconds):
            break
        gc.collect()
        meter.restart()
        started = time.monotonic()
        block = []
        block_started = time.perf_counter()
        for index, inst in enumerate(todo):
            block.append((inst.label, runner.attempt(inst)))
            if (time.perf_counter() - block_started >= BLOCK_S
                    or index == len(todo) - 1):
                scale = meter.scale()
                for label, attempt in block:
                    logs[label].add(attempt, scale)
                block = []
                block_started = time.perf_counter()
        spent += time.monotonic() - started
        after_pass()
    return logs


def traced_run(runner, instances, modules) -> tuple[dict, dict, Tracer]:
    """Per instance: one operator-counting solve, which also warms the
    instance up, then one traced and one plain solve with all checks, in
    turns first traced and first plain."""
    tracer = Tracer()
    counter = OpCounter()
    logs = {inst.label: InstanceLog() for inst in instances}
    overhead = []
    iterations = 0
    valuations = []
    gc.collect()
    for index, inst in enumerate(instances):
        seen = {}

        def keep(iteration, strategy, valuation, imps):
            seen.setdefault("first", valuation)
            seen["last"] = valuation
        with counter.installed(modules["pgsi.profiles"].ColorProfile):
            counted = runner.attempt(inst, on_iteration=keep,
                                     verify=False)
        if index % 2:
            plain = runner.attempt(inst)
        with tracer.installed(modules):
            tracer.instance = inst.label
            traced = runner.attempt(inst, tracer=tracer)
            tracer.instance = None
        if not index % 2:
            plain = runner.attempt(inst)
        for attempt in (counted, traced, plain):
            logs[inst.label].add(attempt)
        if plain.ok and traced.ok:
            overhead.append((plain.solve_s, traced.solve_s))
        if traced.ok:
            iterations += traced.fingerprint[0]
        if counted.ok:
            valuations += list(seen.values())
    metrics = layer_metrics(tracer.spans)
    metrics["iteration.iterations"] = iterations
    for key, count in counter.counts.items():
        metrics["profiles.%s_calls" % key] = count
    metrics.update(profile_timings(valuations))
    metrics["trace.overhead_frac"] = (
        statistics.median(t for _, t in overhead)
        / statistics.median(p for p, _ in overhead) - 1.0)
    return logs, metrics, tracer


UNITS = (("_per_s", "1/s"), ("_ns", "ns"), ("_s", "s"), ("_mb", "MB"),
         ("_frac", "ratio"), ("_share", "ratio"))


def unit_of(name: str) -> str:
    stem = name.rsplit(".", 1)[0] if name.endswith((".p50", ".p99")) else name
    for suffix, unit in UNITS:
        if stem.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limits", required=True,
                        help="per-instance time limits, name=seconds,...")
    args = parser.parse_args(argv)
    limit = parse_limits(args.limits).get(args.workload)
    if limit is None:
        parser.error("--limits names no limit for %s" % args.workload)
    if not (SRC / "pgsi" / "__init__.py").is_file():
        print("run.py: no solver source at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2

    machine = machine_info(loadavg)
    print(json.dumps({"machine": machine}), flush=True)
    # one core for the whole run: the reference has to run on the core
    # whose speed it stands for, and the two cores of the machine the
    # benchmark was written on slow down independently
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]
    instances = workload.build(args.seed)
    inputs = hashlib.sha256(
        "".join(i.digest for i in instances).encode()).hexdigest()[:16]
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "instances": len(instances), "inputs_digest": inputs,
                      "nodes": sum(i.n for i in instances),
                      "edges": sum(i.m for i in instances),
                      "max_d": max(i.d for i in instances)}), flush=True)

    payload = "\0".join(inst.text for inst in instances).encode()
    meter = HostMeter()
    setup = setup_samples(payload, meter, warm=True)
    sys.path.insert(0, str(SRC))
    pgsi = importlib.import_module("pgsi")
    modules = {name: importlib.import_module(name) for name in
               ("pgsi.arena", "pgsi.iteration", "pgsi.valuation",
                "pgsi.profiles")}
    warm = pgsi.parse_pgsolver(instance(
        "warm-up", draw(Shape(200, 3, tuple(range(6))),
                        rng_for("warm-up"))).text)
    pgsi.replay_verify(warm, pgsi.solve(warm))
    # the benchmark's own objects stay alive for the whole run; frozen,
    # they do not slow the collections that happen inside a solve
    gc.freeze()

    runner = Runner(pgsi, workload, limit,
                    time.monotonic() + RUN_DEADLINE_S)
    if args.trace:
        logs, metrics, tracer = traced_run(
            runner, instances[:workload.trace_instances], modules)
        meter.restart()
        setup += setup_samples(payload, meter)
    else:
        logs = timed_run(runner, meter, instances, workload.passes,
                         args.seconds,
                         lambda: setup.extend(setup_samples(payload, meter)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = summarize_setup(setup)
    host = {"reference_s.p50": statistics.median(meter.samples),
            "reference_s.min": min(meter.samples),
            "references": len(meter.samples)}
    if args.trace:
        metrics["arena.parse_s"] = setup["parse_s"]
        metrics["cli.import_s"] = setup["import_s"]

    summaries = {label: summarize(log, limit) for label, log in logs.items()}
    check_fingerprints("%s/%d" % (workload.name, args.seed), inputs,
                       summaries)
    ok = [s for s in summaries.values() if s["status"] == "ok"]
    if not args.trace:
        verified = [s["verified_s"] for s in summaries.values()]
        metrics = {
            "games_per_s": len(summaries) / sum(verified),
            "verified_s.p50": statistics.median(verified),
            "verified_s.p99": quantile(verified, 0.99),
            "solve_s.p50": statistics.median(
                s["solve_s"] for s in summaries.values()),
            "certified_frac": len(ok) / len(summaries),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }

    failures = Counter(s["status"] for s in summaries.values()
                       if s["status"] != "ok")
    print(json.dumps({"failures": failures, "host": host}), flush=True)

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    with open(OUT / (stem + ".jsonl"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"machine": machine, "host": host,
                                 "setup": setup}) + "\n")
        for inst in instances:
            record = inst.describe()
            record.update(summaries[inst.label] if inst.label in summaries
                          else {"status": "untraced"})
            handle.write(json.dumps(record) + "\n")
    if args.trace:
        with open(OUT / (stem + "-spans.jsonl"), "w",
                  encoding="utf-8") as handle:
            for name, start, end, parent, label in tracer.spans:
                handle.write(json.dumps([name, start, end, parent, label])
                             + "\n")

    # every attempt of an instance whose fingerprints disagree is failed
    failed = sum(log.attempts if summaries[label]["status"] ==
                 "FingerprintMismatch" else len(log.failures)
                 for label, log in logs.items())
    print(json.dumps({
        "correct": not any(s["wrong"] for s in summaries.values()),
        "attempted": sum(log.attempts for log in logs.values()),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
