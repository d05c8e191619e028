#!/usr/bin/env python3
"""delbisim benchmark: one timed run of one workload.

    python3 bench/run.py --workload check --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; it measures the package in ./src.
Every instance is one in-process call to ``delbisim.cli.main(argv)``, one
client in a closed loop, no threads and no other process.  An instance that
passes the workload's limit is stopped by SIGALRM and counted as failed.
A run does a fixed amount of work, about --seconds of it at the seed commit:
its instances are a function of the workload, --seed and --seconds alone.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1`` (which also writes one trace per instance
to ``.bench_out/traces/``).  ``correct`` is false when any verdict the
program printed contradicts the expected answer; timeouts and refusals are
failures, not wrong answers.  NOTES.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from collections import Counter

import expected
import families
from tracing import Tracer

perf = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("sweep", "check", "charcheck")
# Per-instance limits.  check: the slowest instance the seed commit
# finishes (C4 under g, 0.76M recursive calls) takes about 4 s, so none
# lies within 2x of the limit.  sweep: see families.SWEEP_LIMIT.
LIMITS = {"sweep": families.SWEEP_LIMIT, "check": 10.0, "charcheck": 10.0}
# A run does a fixed amount of work: --seconds / ROUND_SECONDS rounds (at
# least one), where ROUND_SECONDS is about what one round took at the seed
# commit on a 2-CPU virtual machine.  So the instances a run attempts, and the
# instances that fail, depend on the seed and --seconds only, never on the
# machine's speed.
ROUND_SECONDS = {"sweep": 2.5, "check": 30.0, "charcheck": 0.1}
# Set-up is repeated this many times before the timed rounds and as many
# times after them, so that its median covers the machine's state over the
# whole run rather than at its start only.
SETUP_REPEATS = 6
# A run still going this many times --seconds after timing began starts no
# further instance, so that it ends within 180 s even after a large slowdown.
OVERRUN = 4


class InstanceTimeout(BaseException):
    """Raised by SIGALRM inside the instance that passed its limit."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def import_cli():
    """Import delbisim.cli afresh from ./src (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "delbisim" or m.startswith("delbisim.")]:
        del sys.modules[name]
    cli = importlib.import_module("delbisim.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"delbisim imported from {cli.__file__}, not from {SRC}")
    return cli


def call(main, argv, limit, stdout):
    """Run ``main(argv)`` with captured output; (wall, exit code, cause, err)."""
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    code = cause = None
    sys.stdout, sys.stderr = stdout, err
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = perf()
    try:
        code = main(argv)
    except InstanceTimeout:
        cause = "timeout"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed instance, not a dead run
        cause = "exception"
        err.write(repr(exc))
    finally:
        t1 = perf()
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = saved
    return t1 - t0, code, cause, err.getvalue()


def last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# -- check and charcheck: one CLI invocation per instance --------------------


class FileWorkload:
    """Rounds of model-file pairs, each pair checked by one CLI call."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.make_round = {"check": families.check_round,
                           "charcheck": families.charcheck_round}[name]
        self.limit = LIMITS[name]
        self.answers = None

    def prepare(self, index: int):
        """Generate round ``index`` and write its model files."""
        batch = self.make_round(self.seed, index)
        folder = os.path.join(self.workdir, f"round{index}")
        os.makedirs(folder)
        paths: dict[str, str] = {}
        for inst in batch:
            for m in (inst.a, inst.b):
                text = families.to_json(m)
                if text not in paths:
                    paths[text] = os.path.join(folder, f"m{len(paths)}.json")
                    with open(paths[text], "w", encoding="utf-8") as f:
                        f.write(text)
        return index, batch, paths

    def expect(self, prepared):
        index, batch, _ = prepared
        if self.answers is None:
            self.answers = expected.Answers(self.name, self.seed)
        return self.answers.for_round(index, batch)

    def argv(self, inst, paths):
        a, b = paths[families.to_json(inst.a)], paths[families.to_json(inst.b)]
        if self.name == "check":
            return ["check", "--kind", inst.kind, "--cache", a, b]
        return ["charcheck", "--kind", inst.kind, a, b]

    def run(self, prepared, answers, main, tracer, first, deadline):
        index, batch, paths = prepared
        raw = []
        for inst in batch:
            if perf() > deadline:
                break  # the rest of the round is not attempted
            if tracer:
                tracer.start_trace(first + len(raw))
            out = io.StringIO()
            wall, code, cause, err = call(main, self.argv(inst, paths), self.limit, out)
            if tracer:
                tracer.end_instance()
            raw.append((wall, code, cause, out.getvalue(), err))
        shutil.rmtree(os.path.join(self.workdir, f"round{index}"))
        return raw

    def judge(self, prepared, answers, raw, tally):
        index, batch, _ = prepared
        for inst, answer, (wall, code, cause, out, err) in zip(batch, answers, raw):
            status = cause or judge_output(self.name, answer, code, out)
            tally.add(wall * 1e3, status, {
                "round": index, "instance": inst.id, "family": inst.family,
                "kind": inst.kind, "expected": answer, "exit": code,
                "stderr": err.strip()[:200],
            })


def judge_output(workload, answer, code, out):
    if code not in (0, 1):
        return "exit_code"
    try:
        doc = last_json(out)
        said = [doc["answer"] == "yes"] if workload == "check" else \
            [doc["char_check"], doc["check"] == "yes"]
    except (ValueError, KeyError, TypeError):
        return "wrong_answer"
    if any(v != answer for v in said) or (code == 0) != answer:
        return "wrong_answer"
    return "ok"


# -- sweep: one CLI invocation prints many verdict lines ---------------------


class LineClock(io.TextIOBase):
    """stdout stand-in that timestamps each complete line as it is written.

    Each line re-arms the per-instance limit and starts the next trace.
    """

    def __init__(self, limit, tracer, first_trace):
        self.limit = limit
        self.tracer = tracer
        self.next_trace = first_trace
        self.buffer = ""
        self.lines: list[tuple[float, str]] = []

    def writable(self):
        return True

    def write(self, text):
        self.buffer += text
        while "\n" in self.buffer:
            line, self.buffer = self.buffer.split("\n", 1)
            self.lines.append((perf(), line))
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            if self.tracer:
                self.next_trace += 1
                self.tracer.start_trace(self.next_trace)
        return len(text)


class SweepWorkload:
    """Rounds of pool pairs, checked by `delbisim sweep` invocations.

    The run walks the pool from a seeded start, leaving out the pairs that
    expected/sweep_costs.json marks ``near`` the limit.  Each round is the
    next SWEEP_ROUND_PAIRS pairs of that walk, run as one invocation per
    stretch of consecutive pool pairs (at most SWEEP_CHUNK each).  When a
    line times out, the rest of its pair is skipped and the stretch goes on
    with the next pair in a new invocation.
    """

    def __init__(self, seed: int):
        self.round_start = {0: families.sweep_start(seed)}
        self.limit = LIMITS["sweep"]
        self.near = None
        self.pool = None

    def prepare(self, index: int):
        """Stretches (first pool pair, count) of round ``index``.

        Rounds are prepared in order; round 0 may be prepared again.
        """
        self.near = expected.load_sweep_costs()["near"]
        stretches = []
        pair = self.round_start[index]
        for _ in range(families.SWEEP_ROUND_PAIRS):
            while pair in self.near:
                pair = (pair + 1) % families.SWEEP_POOL
            if stretches and sum(stretches[-1]) == pair \
                    and stretches[-1][1] < families.SWEEP_CHUNK:
                stretches[-1] = (stretches[-1][0], stretches[-1][1] + 1)
            else:
                stretches.append((pair, 1))
            pair = (pair + 1) % families.SWEEP_POOL
        self.round_start[index + 1] = pair
        return stretches

    def expect(self, prepared):
        if self.pool is None:
            self.pool = expected.load_sweep_pool()
        return None

    def run(self, stretches, answers, main, tracer, first, deadline):
        kinds = families.SWEEP_KINDS.split(",")
        raw = []
        for start, count in stretches:
            while count > 0 and perf() <= deadline:
                n, argv = families.sweep_chunk(start, count)
                clock = LineClock(self.limit, tracer, first)
                if tracer:
                    tracer.start_trace(first)
                t0 = perf()
                wall, code, cause, err = call(main, argv, self.limit, clock)
                verdicts = [(t, line) for t, line in clock.lines if '"pair"' in line]
                raw.append((start, t0, verdicts, t0 + wall, code, cause, err))
                first += len(verdicts)  # trace numbers follow the instances
                if cause is None and code in (0, 1):
                    done = n
                else:
                    first += 1  # the instance that was running
                    # skip the rest of the pair that was running
                    last = json.loads(verdicts[-1][1]) if verdicts else None
                    done = last["pair"] + (last["kind"] == kinds[-1]) + 1 if last else 1
                start, count = start + done, count - done
        return raw

    def judge(self, prepared, answers, raw, tally):
        for start, t0, verdicts, t_end, code, cause, err in raw:
            prev = t0
            for t, line in verdicts:
                doc = json.loads(line)
                answer = expected.sweep_answer(self.pool, start + doc["pair"], doc["kind"])
                if (doc["answer"] == "yes") != answer:
                    status = "wrong_answer"
                elif (doc["oracle"] == "yes") != answer or not doc["match"]:
                    status = "mismatch"
                else:
                    status = "ok"
                tally.add((t - prev) * 1e3, status, {
                    "pair": start + doc["pair"], "kind": doc["kind"], "expected": answer})
                prev = t
            if cause is not None or code not in (0, 1):
                # the instance that was running when the invocation stopped
                tally.add((t_end - prev) * 1e3, cause or "exit_code", {
                    "pair": None, "kind": None, "expected": None,
                    "stderr": err.strip()[:200]})


class Tally:
    """Per-instance wall times and outcomes; full records only when tracing."""

    def __init__(self, keep_records: bool):
        self.walls = array("d")
        self.causes: Counter = Counter()
        self.records = [] if keep_records else None

    @property
    def count(self) -> int:
        return len(self.walls)

    def add(self, wall_ms: float, status: str, record: dict) -> None:
        if self.records is not None:
            self.records.append(dict(record, trace=self.count, status=status,
                                     wall_ms=wall_ms))
        self.walls.append(wall_ms)
        if status != "ok":
            self.causes[status] += 1


# -- the run -----------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(tally, timed, setup_s):
    walls = sorted(tally.walls)
    attempted = tally.count
    failed = sum(tally.causes.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": ((attempted - tally.causes["timeout"]) / timed, "1/s"),
        "latency_p50_ms": (percentile(walls, 0.5), "ms"),
        "latency_p90_ms": (percentile(walls, 0.9), "ms"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "failures_by_cause": dict(tally.causes), "timed_s": timed,
        "p90_samples_beyond": attempted - math.ceil(0.9 * attempted),
        "wrong": tally.causes["wrong_answer"] + tally.causes["mismatch"],
    }
    return metrics, detail


def run(args) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    if args.workload == "sweep":
        workload = SweepWorkload(args.seed)
    else:
        workload = FileWorkload(args.workload, args.seed, workdir)

    setup_times = []

    def set_up():
        """Import, first round generated, model files written; timed."""
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = perf()
        cli = import_cli()
        prepared = workload.prepare(0)
        setup_times.append(perf() - t0)
        return cli, prepared

    for _ in range(SETUP_REPEATS):
        cli, prepared = set_up()

    tracer = None
    main = cli.main
    if args.trace:
        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)

    tally = Tally(keep_records=bool(args.trace))
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    timed = 0.0
    origin = perf()
    deadline = origin + OVERRUN * args.seconds
    try:
        for index in range(rounds):
            if index:
                prepared = workload.prepare(index)
            answers = workload.expect(prepared)  # outside the timed window
            t0 = perf()
            raw = workload.run(prepared, answers, main, tracer, tally.count, deadline)
            timed += perf() - t0
            workload.judge(prepared, answers, raw, tally)
        for _ in range(SETUP_REPEATS):
            set_up()  # fresh modules: the tracer's patches are not in them
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, detail = summarize(tally, timed, statistics.median(setup_times))
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=rounds, setup_samples_s=setup_times)
    if tracer:
        layers = tracer.layer_metrics(tally.count)
        shown = {name: (value, "s" if name.endswith("_s") else "count")
                 for name, value in layers.items()}
        for name in ("throughput_per_s", "latency_p50_ms", "latency_p90_ms"):
            shown["traced." + name] = metrics[name]
        metrics = shown
        detail["missing_functions"] = sorted(tracer.missing)
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, tally.records, origin)
        detail["trace_file"] = os.path.relpath(path, ROOT)
    return {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=families.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "delbisim")):
        print(f"bench: no delbisim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    result = run(args)
    metrics, detail = result["metrics"], result["detail"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{detail['attempted']} instances in {detail['rounds']} rounds, "
          f"{detail['timed_s']:.2f} s timed")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:28} {'null' if value is None else f'{value:.6g}':>14} {unit}")
    print(f"#   latency_p90_ms has {detail['p90_samples_beyond']} samples beyond it; "
          f"failures by cause: {detail['failures_by_cause'] or 'none'}; "
          f"wrong verdicts: {detail['wrong']}")
    print("# detail " + json.dumps(detail, separators=(",", ":")))
    print(json.dumps({
        "correct": detail["wrong"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
