#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of webpuzzle's shipped paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a webpuzzle checkout. The first run builds the
release binaries and the traced-pass program (`perfbench/trace`) into
`$CARGO_TARGET_DIR` (default `.bench_build`); later runs reuse them.

`--trace 0` times the shipped release binaries (`stream-analyze`,
`stream-serve` + `replay`, `repro`) with tracing off and reports the
end-to-end metrics. Each timed repetition runs between two runs of the
calibration kernel `perfbench-calibrate`, and the run's times are
reported at the reference speed (see `CALIBRATION_REFERENCE_S`).
`--trace 1` runs the same binaries once per round for the untraced wall
time, then the in-process traced pass, and reports the per-layer metrics. Both check every run's output; a failed check counts in
`failed` and turns `correct` false, and the process then exits 1.

The last stdout line is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}`.
Metric names and units come from BENCHMARK.json; README.md in this
directory says what each one measures. `--workload all` runs every
workload, untraced and traced, and prints every metric.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every run must end within 180 s once the binaries are built.
RUN_BUDGET_S = 170.0
# Set-up is repeated and its median reported, so one slow start does not
# stand for the set-up cost.
SETUP_REPEATS = 5
# The calibration kernel's median time on the 2-core reference container.
# A shared host's speed drifts by 20-50% over minutes, and the kernel's
# time drifts with the program's, so a run whose kernel runs took a median
# of k seconds reports each median time t as t * CALIBRATION_REFERENCE_S / k:
# its time at the speed the reference container had. The raw times are
# printed beside the result.
CALIBRATION_REFERENCE_S = 0.35
# `stream-serve --exit-after-sources` and `replay --connections`: one
# sender per core of the 2-core reference box.
CONNECTIONS = 2
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Workload inputs at `--seed`: genlog profile and scale.
FILE_WEEK = ("clarknet", 0.2)
WIRE_CKPT = ("clarknet", 1.0)
# stream-serve's peak RSS depends on the input: by seed it reads about 67,
# 80, 82 or 90 MB, as the allocator keeps 0, 1 or 2 checkpoint buffers. An
# untraced wire-ckpt run so spreads its repetitions over this many
# fixtures, made with genlog seeds --seed, --seed + 1000, ...
WIRE_FIXTURES = 3
BATCH_SCALE = 0.02
BATCH_PROFILES = ("wvu", "clarknet", "csee", "nasa")
# paper_targets.toml is calibrated against `repro ... --seed 1 fig6`.
CALIBRATED_SEED = 1
# HubStats buckets that drop a record; every one must stay 0.
SHED_BUCKETS = (
    "late_dropped",
    "duplicate_dropped",
    "stall_late_dropped",
    "skipped_malformed",
    "oversized_lines",
    "torn_lines",
    "pressure_shed",
    "breaker_dropped",
    "shutdown_dropped",
)
FIDELITY_PREFIXES = ("fidelity/h/", "fidelity/h_session/", "fidelity/alpha/")


class BenchError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


# ----------------------------------------------------------------------
# Arithmetic shared with steadiness.py
# ----------------------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile, as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def valid_name(name):
    return isinstance(name, str) and bool(NAME_RE.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(UNIT_RE.match(unit))


def load_spec(path=None):
    """BENCHMARK.json's metric declarations: ({e2e name: unit}, {layer name: unit})."""
    path = path or os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    tables = []
    for key in ("end_to_end", "per_layer"):
        table = {}
        for metric in spec[key]:
            name, unit = metric["name"], metric["unit"]
            if not valid_name(name) or not valid_unit(unit) or name in table:
                raise BenchError(f"BENCHMARK.json: bad {key} metric {name!r} / {unit!r}")
            table[name] = unit
        tables.append(table)
    for workload in spec["workloads"]:
        if not valid_name(workload["name"]):
            raise BenchError(f"BENCHMARK.json: bad workload name {workload['name']!r}")
    return tables[0], tables[1]


# ----------------------------------------------------------------------
# Output checks (pure functions of the programs' outputs)
# ----------------------------------------------------------------------


def compare_summaries(a, b, path=""):
    """CI's file-vs-wire comparator: counts exact, floats within 1e-9 relative.

    Returns a list of differences (empty when the summaries agree)."""
    out = []
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return [f"{path}: keys differ {sorted(set(a) ^ set(b))}"]
        for k in a:
            out += compare_summaries(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: lengths {len(a)} != {len(b)}"]
        for i, (x, y) in enumerate(zip(a, b)):
            out += compare_summaries(x, y, f"{path}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        if not (a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b))):
            out.append(f"{path}: {a!r} != {b!r}")
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")
    return out


def check_stream_report(report, sent):
    """Problems in a stream-analyze/stream-serve run report for `sent` records."""
    summary = report["config"]["summary"]
    problems = []
    if summary["records"] != sent:
        problems.append(f"analysed {summary['records']} of {sent} records")
    ingest = report["config"].get("ingest")
    if ingest is not None:
        if ingest["sources_seen"] != CONNECTIONS:
            problems.append(f"{ingest['sources_seen']} sources seen, expected {CONNECTIONS}")
        if ingest["admitted"] != sent:
            problems.append(f"hub admitted {ingest['admitted']} of {sent} records")
        problems += [f"hub {b} = {ingest[b]}" for b in SHED_BUCKETS if ingest[b] != 0]
    return problems


def report_counters(report):
    return {c["name"]: c["value"] for c in report["counters"]}


def fidelity_gauges(report):
    return {
        g["name"]: g["value"]
        for g in report["gauges"]
        if g["name"].startswith(FIDELITY_PREFIXES)
    }


def check_repro_report(report, sent):
    """Problems in a `repro --json fig6` report whose input was `sent` records."""
    counters = report_counters(report)
    problems = []
    if counters.get("weblog/records_ingested") != sent:
        problems.append(f"repro analysed {counters.get('weblog/records_ingested')} of {sent} records")
    if counters.get("pipeline/analyses") != len(BATCH_PROFILES):
        problems.append(f"repro ran {counters.get('pipeline/analyses')} analyses")
    if not fidelity_gauges(report):
        problems.append("repro published no fidelity gauges")
    return problems


def compare_gauges(a, b, what):
    """Two fidelity-gauge maps must name the same gauges with the same values."""
    if set(a) != set(b):
        return [f"{what}: gauges differ {sorted(set(a) ^ set(b))[:5]}"]
    out = []
    for k in sorted(a):
        out += compare_summaries(a[k], b[k], k)
    return [f"{what}: {d}" for d in out]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


class Runner:
    """Runs the built binaries in one run's scratch directory under a deadline,
    and keeps the tally of operations attempted and failed."""

    def __init__(self, work, deadline, calibrated):
        self.work = work
        self.deadline = deadline
        self.calibrated = calibrated
        self.kernel_times = []
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.bin_dir = os.path.join(ROOT, target, "release")
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []

    def bin(self, name):
        return os.path.join(self.bin_dir, name)

    def path(self, name):
        return os.path.join(self.work, name)

    def spawn(self, argv, stdout=subprocess.DEVNULL):
        # stderr goes to a file, so a chatty child can never block on a full
        # pipe; a session of its own lets a kill reach the children it starts.
        self.spawned += 1
        err = open(self.path(f"stderr-{self.spawned}.txt"), "w+b")
        proc = subprocess.Popen(argv, cwd=self.work, stdout=stdout, stderr=err, start_new_session=True)
        proc.err_file = err
        return proc

    def stderr_tail(self, proc):
        proc.err_file.seek(0)
        tail = proc.err_file.read().decode(errors="replace")[-400:]
        proc.err_file.close()
        return tail

    def kill(self, proc):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, proc):
        """Reap `proc`: (exit code, peak RSS in MB, stderr tail). Kills it at the deadline."""
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), self.kill, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss * 1024 / 1e6, self.stderr_tail(proc)

    def run(self, argv, stdout=subprocess.DEVNULL):
        """Run to completion: (wall s, exit code, peak RSS MB, stderr tail)."""
        t0 = time.perf_counter()
        proc = self.spawn(argv, stdout)
        rc, rss, err = self.wait(proc)
        return time.perf_counter() - t0, rc, rss, err

    def must(self, argv, what):
        """Run a set-up step that has to succeed; returns its wall time."""
        wall, rc, _, err = self.run(argv)
        if rc != 0:
            raise BenchError(f"{what} failed (exit {rc}): {err}")
        return wall

    def calibrate(self):
        """Run the calibration kernel once; returns its time in seconds."""
        proc = self.spawn([self.bin("perfbench-calibrate")], stdout=subprocess.PIPE)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        rc, _, err = self.wait(proc)
        if rc != 0:
            raise BenchError(f"perfbench-calibrate failed (exit {rc}): {err}")
        self.kernel_times.append(float(out))
        return self.kernel_times[-1]

    def between_kernels(self, step):
        """Run step() between two calibration-kernel runs (the one after a
        step is the one before the next), so the kernel samples the host's
        speed all through the run. A traced run reports raw times and runs
        no kernel."""
        if self.calibrated and not self.kernel_times:
            self.calibrate()
        out = step()
        if self.calibrated:
            self.calibrate()
        return out

    def to_reference(self):
        """The factor that turns this run's raw times into times at the reference speed."""
        return CALIBRATION_REFERENCE_S / median(self.kernel_times)

    def trace(self, *args):
        """Run the traced pass; returns its JSON result."""
        proc = self.spawn([self.bin("perfbench-trace"), *args], stdout=subprocess.PIPE)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        rc, _, err = self.wait(proc)
        if rc != 0:
            return {"metrics": {}, "gauges": {}, "problems": [f"trace {args[0]} exit {rc}: {err}"]}
        return json.loads(out)

    def record(self, problems, what):
        """Count one attempted operation; returns True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def fail_all(self, problems, what):
        """A check after the timed rounds failed: every operation counts as failed."""
        if problems:
            self.failed = self.attempted
            self.problems += [f"{what}: {p}" for p in problems]
        return bool(problems)


def build():
    """Build the shipped binaries and the traced pass (a no-op when current)."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates", "bench"))):
        raise BenchError(f"{ROOT} is not a webpuzzle checkout (no Cargo.toml / crates/bench)")
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "webpuzzle-bench", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/trace/Cargo.toml"],
    ):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            raise BenchError(f"{' '.join(argv)} failed:\n{done.stdout.decode(errors='replace')[-2000:]}")
    os.environ["CARGO_TARGET_DIR"] = env["CARGO_TARGET_DIR"]


def count_lines(path):
    with open(path, "rb") as f:
        return sum(buf.count(b"\n") for buf in iter(lambda: f.read(1 << 20), b""))


def fresh(path):
    """`path`, with whatever an earlier repetition left there removed."""
    if os.path.exists(path):
        os.remove(path)
    return path


def read_report(path):
    """A run report, or None when the program left none (or a torn one)."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def genlog(r, profile, scale, seed, out):
    return r.must(
        [r.bin("genlog"), "--profile", profile, "--scale", str(scale), "--seed", str(seed), "--quiet", "--out", out],
        f"genlog {profile}",
    )


def timed_rounds(seconds, minimum, round_fn):
    """Call round_fn until `seconds` have passed and at least `minimum` rounds ran."""
    t0 = time.monotonic()
    rounds = 0
    while rounds < minimum or time.monotonic() - t0 < seconds:
        round_fn()
        rounds += 1


def median_layers(results, names):
    """Per-layer medians over several traced passes; absent layers read 0."""
    return {n: median([res["metrics"].get(n, 0.0) for res in results]) for n in names}


def trace_overhead(traced, walls):
    """The traced pass's wall time over the untraced binary's, minus 1."""
    untraced = median(walls)
    return median([t["metrics"].get("trace.wall_s", 0.0) for t in traced]) / untraced - 1 if untraced else 0.0


def traced_layers(traced, walls, names):
    """The per-layer result of a traced run."""
    return dict(median_layers(traced, names), **{"trace.overhead": trace_overhead(traced, walls)})


def end_to_end(r, setup, walls, records, rss, ratios):
    """The end-to-end result of an untraced run: medians over its repetitions
    (`records[i]` records in `walls[i]` seconds), with the raw set-up and
    wall times turned into times at the reference speed, and the largest
    peak RSS. The raw times go to r.notes, for the table beside the result."""
    to_ref = r.to_reference()
    r.notes.append(
        f"raw wall median {median(walls):.4f} s over {len(walls)} repetitions, raw setup {setup:.4f} s; "
        f"calibration kernel median {median(r.kernel_times):.4f} s over {len(r.kernel_times)} runs "
        f"(reference {CALIBRATION_REFERENCE_S} s)"
    )
    return {
        "setup_s": setup * to_ref,
        "wall_ref_s": median(walls) * to_ref,
        "records_per_ref_s": median([n / w if w else 0.0 for n, w in zip(records, walls)]) / to_ref,
        "peak_rss_mb": max(rss),
        "analysed_ratio": median(ratios),
    }


# ----------------------------------------------------------------------
# file-week: stream-analyze FILE on a fifth of a ClarkNet week
# ----------------------------------------------------------------------


def file_week(r, seed, seconds, trace, layer_names):
    fixture = r.path("fixture.log")
    profile, scale = FILE_WEEK
    setup = [genlog(r, profile, scale, seed, fixture) for _ in range(1 if trace else SETUP_REPEATS)]
    sent = count_lines(fixture)
    walls, rss, ratios, traced = [], [], [], []

    def analyse():
        report = fresh(r.path("report.json"))
        wall, rc, mb, err = r.between_kernels(
            lambda: r.run([r.bin("stream-analyze"), fixture, "--quiet", "--json", "--report", report])
        )
        written = read_report(report)
        if rc != 0 or written is None:
            problems = [f"exit {rc}, report {'written' if written else 'missing'}: {err}"]
        else:
            problems = check_stream_report(written, sent)
        ok = r.record(problems, "stream-analyze")
        walls.append(wall)
        rss.append(mb)
        ratios.append(1.0 if ok else 0.0)

    def traced_round():
        analyse()
        res = r.trace("file", fixture)
        r.record(res["problems"], "traced file pass")
        traced.append(res)

    if trace:
        timed_rounds(seconds, 1, traced_round)
        return traced_layers(traced, walls, layer_names)
    timed_rounds(seconds, 3, analyse)
    # --verify-batch re-derives the summary with the batch pipeline.
    _, rc, _, err = r.run([r.bin("stream-analyze"), fixture, "--quiet", "--verify-batch"])
    if r.fail_all([f"exit {rc}: {err}"] if rc != 0 else [], "stream-analyze --verify-batch"):
        ratios = [0.0]
    return end_to_end(r, median(setup), walls, [sent] * len(walls), rss, ratios)


# ----------------------------------------------------------------------
# wire-ckpt: replay -> stream-serve --checkpoint on a full ClarkNet week
# ----------------------------------------------------------------------


def serve_once(r, fixture, sent):
    """One wire run: (start-up s, wall s, peak RSS MB, report or None, problems)."""
    addr_file, report, ckpt = fresh(r.path("serve.addr")), fresh(r.path("wire.json")), r.path("wire.ckpt")
    t0 = time.perf_counter()
    serve = r.spawn([
        r.bin("stream-serve"), "--listen", "127.0.0.1:0", "--addr-file", addr_file, "--quiet", "--json",
        "--report", report, "--exit-after-sources", str(CONNECTIONS), "--checkpoint", ckpt,
    ])
    while not (os.path.exists(addr_file) and os.path.getsize(addr_file) > 0):
        if serve.poll() is not None or time.monotonic() > r.deadline:
            r.kill(serve)
            serve.wait()
            return 0.0, 0.0, 0.0, None, [f"stream-serve did not start (exit {serve.returncode}): {r.stderr_tail(serve)}"]
        time.sleep(0.001)
    startup = time.perf_counter() - t0
    with open(addr_file) as f:
        addr = f.read().strip()
    t1 = time.perf_counter()
    sender = r.spawn([r.bin("replay"), fixture, "--addr", addr, "--connections", str(CONNECTIONS), "--quiet"])
    sent_rc, _, sent_err = r.wait(sender)
    if sent_rc != 0:
        r.kill(serve)
    rc, mb, err = r.wait(serve)
    wall = time.perf_counter() - t1
    wire = read_report(report)
    if sent_rc != 0 or rc != 0 or wire is None:
        return startup, wall, mb, None, [f"replay exit {sent_rc}: {sent_err}; stream-serve exit {rc}: {err}"]
    return startup, wall, mb, wire, check_stream_report(wire, sent)


def file_drain(r, fixture, sent):
    """The single-threaded baseline: stream-analyze on the same fixture at the same cadence."""
    report, ckpt = fresh(r.path("file.json")), r.path("file.ckpt")
    wall, rc, _, err = r.run([r.bin("stream-analyze"), fixture, "--quiet", "--json", "--report", report, "--checkpoint", ckpt])
    drained = read_report(report)
    if rc != 0 or drained is None:
        return wall, None, [f"file drain exit {rc}: {err}"]
    return wall, drained, check_stream_report(drained, sent)


def wire_ckpt(r, seed, seconds, trace, layer_names):
    profile, scale = WIRE_CKPT
    fixtures = [r.path(f"fixture-{i}.log") for i in range(1 if trace else WIRE_FIXTURES)]
    gen = [genlog(r, profile, scale, seed + 1000 * i, f) for i, f in enumerate(fixtures)]
    lines = [count_lines(f) for f in fixtures]
    startups, walls, records, rss, ratios, file_walls, traced = [], [], [], [], [], [], []
    last = {"report": None, "fixture": 0}

    def wire_round():
        i = len(walls) % len(fixtures)
        startup, wall, mb, report, problems = r.between_kernels(lambda: serve_once(r, fixtures[i], lines[i]))
        ok = r.record(problems, "replay -> stream-serve")
        startups.append(startup)
        walls.append(wall)
        records.append(lines[i])
        rss.append(mb)
        ratios.append(1.0 if ok else 0.0)
        last.update(report=report, fixture=i)

    def traced_round():
        wire_round()
        wall, _, problems = file_drain(r, fixtures[0], lines[0])
        r.record(problems, "file drain")
        file_walls.append(wall)
        res = r.trace("wire", fixtures[0], r.bin("replay"), r.path("trace.ckpt"))
        r.record(res["problems"], "traced wire pass")
        traced.append(res)

    if trace:
        timed_rounds(seconds, 1, traced_round)
        layers = traced_layers(traced, walls, layer_names)
        # Wire rec/s over file rec/s on the same records.
        layers["ingest.wire_to_file_ratio"] = median(file_walls) / median(walls)
        return layers

    timed_rounds(seconds, len(fixtures), wire_round)
    # Output checks, outside the timed rounds: the last wire summary must
    # equal the file drain's of the same fixture, and the last checkpoint
    # must decode whole.
    sent = lines[last["fixture"]]
    _, drained, problems = file_drain(r, fixtures[last["fixture"]], sent)
    if drained is not None and last["report"] is not None:
        problems += compare_summaries(drained["config"]["summary"], last["report"]["config"]["summary"], "summary")
    loaded = r.trace("load-checkpoint", r.path("wire.ckpt"))
    problems += loaded["problems"]
    if loaded["metrics"].get("records") != sent:
        problems.append(f"last checkpoint holds {loaded['metrics'].get('records')} of {sent} records")
    if r.fail_all(problems, "wire check"):
        ratios = [0.0]
    return end_to_end(r, median(gen) + median(startups), walls, records, rss, ratios)


# ----------------------------------------------------------------------
# batch-fig6: repro --fast fig6 on all four servers
# ----------------------------------------------------------------------


def batch_fig6(r, seed, seconds, trace, layer_names):
    def generate():
        return sum(
            genlog(r, p, BATCH_SCALE, seed, r.path(f"{p}.log")) for p in BATCH_PROFILES
        )

    setup = [generate() for _ in range(1 if trace else SETUP_REPEATS)]
    # genlog and repro share the generator and seed, so these are the
    # records repro analyses.
    sent = sum(count_lines(r.path(f"{p}.log")) for p in BATCH_PROFILES)
    walls, rss, ratios, gauges, traced = [], [], [], [], []
    report = r.path("repro.json")

    def analyse():
        wall, rc, mb, err = r.between_kernels(lambda: r.run([
            r.bin("repro"), "--json", "--quiet", "--fast", "--scale", str(BATCH_SCALE),
            "--seed", str(seed), "fig6", "--report", fresh(report),
        ]))
        rep = read_report(report) if rc == 0 else None
        problems = [f"exit {rc}: {err}"]
        if rep is not None:
            problems = check_repro_report(rep, sent)
            gauges.append(fidelity_gauges(rep))
        ok = r.record(problems, "repro fig6")
        walls.append(wall)
        rss.append(mb)
        ratios.append(1.0 if ok else 0.0)

    def traced_round():
        analyse()
        res = r.trace("batch", str(BATCH_SCALE), str(seed))
        problems = res["problems"]
        if gauges:
            problems += compare_gauges(gauges[-1], res["gauges"], "traced vs repro")
        r.record(problems, "traced batch pass")
        traced.append(res)

    if trace:
        timed_rounds(seconds, 1, traced_round)
        return traced_layers(traced, walls, layer_names)

    timed_rounds(seconds, 2, analyse)
    problems = []
    # Repeated runs of one seed must reproduce every fidelity gauge.
    for i in range(1, len(gauges)):
        problems += compare_gauges(gauges[0], gauges[i], f"repeat {i}")
    if seed == CALIBRATED_SEED:
        _, rc, _, err = r.run([r.bin("paper-check"), "--targets", os.path.join(ROOT, "paper_targets.toml"), report])
        if rc != 0:
            problems.append(f"paper-check exit {rc}: {err}")
    if r.fail_all(problems, "fig6 check"):
        ratios = [0.0]
    return end_to_end(r, median(setup), walls, [sent] * len(walls), rss, ratios)


WORKLOADS = {"file-week": file_week, "wire-ckpt": wire_ckpt, "batch-fig6": batch_fig6}


def run_workload(name, seed, seconds, trace, spec):
    """One benchmark run: the result object printed as the last stdout line."""
    e2e, layers = spec
    declared = layers if trace else e2e
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        r = Runner(work, time.monotonic() + RUN_BUDGET_S, calibrated=not trace)
        measured = WORKLOADS[name](r, seed, seconds, trace, list(layers))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for metric, unit in declared.items():
        value = measured.get(metric, 0.0)
        metrics[metric] = {"value": value, "unit": unit}
    undeclared = set(measured) - set(declared)
    if undeclared:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    for p in r.problems:
        print(f"CHECK FAILED [{name}] {p}", file=sys.stderr)
    for note in r.notes:
        print(f"[{name}] {note}")
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }


def print_table(name, trace, result):
    print(f"== {name} ({'traced' if trace else 'untraced'}): "
          f"{result['attempted'] - result['failed']}/{result['attempted']} runs passed their checks")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<30} {m['value']:>18.6f} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        build()
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
            print_table(args.workload, args.trace, result)
        else:
            merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                for trace in (0, 1):
                    res = run_workload(name, args.seed, args.seconds, trace, spec)
                    print_table(name, trace, res)
                    merged["correct"] &= res["correct"]
                    merged["attempted"] += res["attempted"]
                    merged["failed"] += res["failed"]
                    merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
            result = merged
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
