"""selfonn-kit benchmark: desk-scale training, full-scale inference, corpus IO.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` measures the end-to-end metrics with nothing wrapped. It runs
the workload twice at once, in two worker processes that take turns on the
CPU every SLICE_S seconds: one on the package under test, one on a frozen
copy of it (perfbench/seed_kit). The seed copy's timings tell how fast the
host ran fixed code at each moment, and the package's timings are rescaled
to the speed of the host the seed copy was calibrated on (see `scaled`).
`--trace 1` runs a fixed amount of work (derived from `--seconds` only, so
counts repeat exactly) in one process, twice, first plain and then with
every listed package function wrapped, and reports per-layer calls, self
seconds, shape-derived work counts and the tracing overhead (traced minus
plain end-to-end numbers, unscaled). Human-readable lines come first; the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 1 when any output
check failed. See perfbench/README.md for what each metric means on each
workload.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads. On a shared 2-core VM one
# thread gave full_infer run-to-run spreads of 1-4%, two threads 5-10%.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk_train", "full_infer", "corpus_io")
PACKAGE, SEED_KIT = "selfonn_kit", "seed_kit"
# Each worker runs for at most this long, then the other one does. Short
# enough that both see the same state of a shared host; long enough that
# refilling the caches after a switch costs little: full-scale frames took
# 6% longer in 20 ms turns and 1% longer in 100 ms turns than in turns of a
# whole frame.
SLICE_S = 0.1
# Barrier tags a worker announces, and the controller's replies.
PHASE, STEP = b"p", b"t"
GO, STOP = b"1", b"0"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one worker of an untraced run on this kit.
    p.add_argument("--kit", choices=(PACKAGE, SEED_KIT), help=argparse.SUPPRESS)
    p.add_argument("--sync", help=argparse.SUPPRESS)   # its barrier pipes
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.kit and (args.trace or args.workload == "all" or not args.sync):
        p.error("--kit runs one workload untraced, with --sync")
    return args


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s, peak_mb, a_ms, a_items, b_ms, b_items):
    """End-to-end metrics as {name: (value, unit, samples)}.

    Every workload reports the same names; streams A and B are defined per
    workload in workloads.py and README.md.
    """
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "a_items_per_s": (a_items / (sum(a_ms) / 1e3), "1/s", a_items),
        "a_ms_p50": (statistics.median(a_ms), "ms", len(a_ms)),
        "a_ms_p90": (p90(a_ms), "ms", len(a_ms)),
        "b_items_per_s": (b_items / (sum(b_ms) / 1e3), "1/s", b_items),
        "b_ms_p50": (statistics.median(b_ms), "ms", len(b_ms)),
        "b_ms_p90": (p90(b_ms), "ms", len(b_ms)),
    }


def at_seed_speed(package, seed, seed_median):
    """Package samples rescaled to the calibration host's speed.

    Sample i of the package is paired with sample i of the seed copy: the
    same call on the same input, made within a turn of it, so on the host
    in the same state. The seed copy's sample over `seed_median`, its
    median on the calibration host, is how much slower the host was then;
    the package's sample is divided by that. (Were the counts to differ,
    say because a package step raised, samples pair by position.)
    """
    return [ms * seed_median / seed[i * len(seed) // len(package)]
            for i, ms in enumerate(package)]


def scaled(workload, package, seed):
    """End-to-end metrics of the package at the calibration host's speed.

    `package` and `seed` are the two workers' results. Set-up seconds are
    scaled by the seed copy's median set-up; each A and B sample by the
    seed copy's samples around it (`at_seed_speed`).
    """
    ref = workload.seed_medians
    setup_scale = ref["setup_s"] / statistics.median(seed["setup_s"])
    return end_to_end(
        [s * setup_scale for s in package["setup_s"]], package["peak_mb"],
        at_seed_speed(package["a_ms"], seed["a_ms"], ref["a_ms"]), package["a_items"],
        at_seed_speed(package["b_ms"], seed["b_ms"], ref["b_ms"]), package["b_items"])


def _step(workload, state, tally):
    try:
        workload.step(state, tally)
    except Exception:                      # a failed call counts, the loop goes on
        traceback.print_exc()
        tally.fail(f"step {tally.steps} raised")
    tally.steps += 1


def _finish(workload, state, tally):
    try:
        workload.finish(state, tally)
    except Exception:
        traceback.print_exc()
        tally.fail("final checks raised")


def measure(workload, seed, workdir, wk, barrier, final_checks=True):
    """One worker's run: `workload.setups` set-ups, then steps.

    Each set-up and each step starts at a barrier where the two workers
    meet; at a step's barrier the controller says whether to go on.
    """
    workload.meet = barrier.meet
    setup_s, state = [], None
    for i in range(workload.setups):
        state = None                 # free the previous set-up before the next
        barrier.meet()
        start = wk.clock()
        state = workload.setup(seed, workdir / f"setup{i}")
        setup_s.append(wk.clock() - start)
    tally = wk.Tally()
    while barrier.next_step():
        _step(workload, state, tally)
    if final_checks:
        _finish(workload, state, tally)
    return setup_s, tally


def fixed_phase(workload, seed, steps, workdir, wk, tracer=None):
    """One set-up and exactly `steps` steps, optionally under `tracer`."""
    wk.clear(workdir)
    tally = wk.Tally()
    if tracer is not None:
        tracer.install()
    try:
        start = wk.clock()
        state = workload.setup(seed, workdir)
        setup_s = [wk.clock() - start]
        for _ in range(steps):
            _step(workload, state, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    _finish(workload, state, tally)
    return end_to_end(setup_s, peak_rss_mb(), tally.a_ms, tally.a_items,
                      tally.b_ms, tally.b_items), tally


def _start_worker():
    """In a new worker, before it runs: pin it, and tie its life to ours.

    Both workers run on the same CPU. Left to the scheduler, each tends to
    stay on the CPU it started on, and on a shared host one vCPU can be
    slower than the other for minutes, which would set one kit against the
    other. The worker is killed if the parent dies, even while stopped.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Barrier:
    """A worker's side of the barriers where it meets the other worker."""

    def __init__(self, fds):
        self.arrive, self.reply = fds

    def _wait(self, tag: bytes) -> bool:
        os.write(self.arrive, tag)
        return os.read(self.reply, 1) == GO

    def meet(self) -> None:
        self._wait(PHASE)

    def next_step(self) -> bool:
        """Meet before a step; false when the run has measured enough."""
        return self._wait(STEP)


class Worker:
    def __init__(self, cmd):
        arrive_r, arrive_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.proc = subprocess.Popen(
            cmd + ["--sync", f"{arrive_w},{reply_r}"], stdout=subprocess.PIPE,
            text=True, pass_fds=(arrive_w, reply_r), preexec_fn=_start_worker)
        os.close(arrive_w)
        os.close(reply_r)
        os.set_blocking(arrive_r, False)
        self.arrive, self.reply = arrive_r, reply_w
        self.waiting = None           # the tag of the barrier it waits at

    def poll_barrier(self):
        if self.waiting is None:
            try:
                self.waiting = os.read(self.arrive, 1) or None
            except BlockingIOError:
                pass

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()              # works on a stopped process too
        self.proc.wait()
        self.proc.stdout.close()
        os.close(self.arrive)
        os.close(self.reply)


def take_turns(cmds, slice_s, go_on):
    """Run `cmds` as workers that take turns on the CPU; return their stdout.

    At most one worker runs at a time: each is continued (SIGCONT) for
    `slice_s` seconds, then stopped (SIGSTOP), so the workers share the
    host's state at that time scale without competing for it. They also
    meet at barriers: once every live worker waits at one, all go on, or,
    at a STEP barrier where `go_on(steps_passed)` is false, all stop
    stepping. Which worker runs first after a barrier alternates, so
    neither kit always starts on caches the other has just used. Every
    worker is killed and waited for on every way out.
    """
    workers, steps = [], 0
    try:
        for cmd in cmds:
            workers.append(Worker(cmd))
            workers[-1].proc.send_signal(signal.SIGSTOP)
        live = list(workers)
        while live:
            for w in live:
                w.poll_barrier()
            tags = {w.waiting for w in live}
            if None not in tags:
                if len(tags) != 1:
                    raise RuntimeError(f"workers wait at different barriers: {tags}")
                go = STOP if tags == {STEP} and not go_on(steps) else GO
                steps += tags == {STEP} and go == GO
                for w in live:
                    w.waiting = None
                    os.write(w.reply, go)
                live.reverse()
            for w in live:
                if w.waiting is None and w.proc.poll() is None:
                    w.proc.send_signal(signal.SIGCONT)
                    select.select([w.arrive], [], [], slice_s)
                    w.proc.send_signal(signal.SIGSTOP)
            live = [w for w in live if w.proc.poll() is None]
        return [(w.proc.returncode, w.proc.stdout.read()) for w in workers]
    finally:
        for w in workers:
            w.close()


def git_commit():
    """HEAD commit if the checkout is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(np, args):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "host": platform.node(),
        "cpu": cpu_model(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "slice_s": SLICE_S if not args.trace else None,
        "commit": git_commit(),
    }


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def show_end_to_end(workload, e2e, tally, label=""):
    print(f"{workload.name}{label}: A = {workload.stream_a}; B = {workload.stream_b}")
    for name, (value, unit, n) in e2e.items():
        alias = workload.aliases.get(name, "")
        print(f"  {name:<14} {value:>14.6g} {unit:<4} n={n:<6} {alias}")
    a_s, b_s = sum(tally.a_ms) / 1e3, sum(tally.b_ms) / 1e3
    if workload.name == "desk_train":
        fold_s = (a_s + b_s) / tally.steps
        print(f"  {'fold_s':<14} {fold_s:>14.6g} s    n={tally.steps:<6} "
              "(not gated: unscaled fit + all evaluation passes)")
    if workload.name == "corpus_io":
        written = tally.b_items / (b_s - a_s)
        print(f"  {'write_images_per_s':<18} {written:>10.6g} 1/s  n={tally.b_items:<6} "
              "(not gated: unscaled, file-system noise)")
        if tally.b_wall_ms:
            wall = statistics.median(tally.b_wall_ms)
            print(f"  {'roundtrip_wall_ms_p50':<21} {wall:>7.6g} ms   "
                  f"n={len(tally.b_wall_ms):<6} (not gated: wall time, includes waits on I/O)")
        print("  reads are warm-cache: dropping the page cache needs privileges")
    print(f"  {'fail_ratio':<14} {tally.failed / tally.attempted:>14.6g}      "
          f"n={tally.attempted}")
    for what in tally.failures:
        print(f"  FAILED: {what}")


def show_host(workload, package, seed):
    ref = workload.seed_medians
    slowdown = {"setup": statistics.median(seed["setup_s"]) / ref["setup_s"],
                "A": statistics.median(seed["a_ms"]) / ref["a_ms"],
                "B": statistics.median(seed["b_ms"]) / ref["b_ms"]}
    print("  host slowdown against the calibration host, from the seed copy: "
          + ", ".join(f"{k} {v:.4g}" for k, v in slowdown.items()))
    print(f"  unscaled package medians: "
          f"setup_s {statistics.median(package['setup_s']):.6g} s, "
          f"a_ms_p50 {statistics.median(package['a_ms']):.6g} ms, "
          f"b_ms_p50 {statistics.median(package['b_ms']):.6g} ms")


def run_worker(args, wk, workdir) -> int:
    """One kit's untraced run; prints its raw samples as one JSON line."""
    workload = wk.make(args.workload, wk.load_kit(args.kit), ROOT)
    barrier = Barrier([int(fd) for fd in args.sync.split(",")])
    setup_s, tally = measure(workload, args.seed, workdir, wk, barrier,
                             final_checks=args.kit == PACKAGE)
    print(json.dumps({"setup_s": setup_s, "peak_mb": peak_rss_mb(),
                      "a_ms": tally.a_ms, "a_items": tally.a_items,
                      "b_ms": tally.b_ms, "b_items": tally.b_items,
                      "steps": tally.steps, "attempted": tally.attempted,
                      "failed": tally.failed, "failures": tally.failures}))
    return 0


def run_untraced(args, wk, workload):
    """Both workers in turns; returns (failed, attempted, metrics) or None."""
    results = {}
    cmds = [[sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--kit", kit] for kit in (PACKAGE, SEED_KIT)]
    loop_start = []

    def go_on(steps):
        """Step on until `seconds` of wall time and `min_steps` steps."""
        now = time.perf_counter()
        loop_start[:] = loop_start or [now]
        return now - loop_start[0] < args.seconds or steps < workload.min_steps

    for kit, (code, out) in zip((PACKAGE, SEED_KIT), take_turns(cmds, SLICE_S, go_on)):
        lines = out.strip().splitlines()
        try:
            results[kit] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{kit} worker printed no result (exit {code})", file=sys.stderr)
            return None
    package, seed = results[PACKAGE], results[SEED_KIT]
    e2e = scaled(workload, package, seed)
    tally = wk.Tally(**{k: package[k] for k in ("a_ms", "a_items", "b_ms", "b_items",
                                                "steps", "attempted", "failed",
                                                "failures")})
    show_end_to_end(workload, e2e, tally)
    show_host(workload, package, seed)
    for what in seed["failures"]:
        print(f"  FAILED in the seed copy: {what}")
    # The seed copy's calls and checks count too: a failure there means
    # the reference did not run as calibrated.
    failed = package["failed"] + seed["failed"]
    attempted = package["attempted"] + seed["attempted"]
    return failed, attempted, {k: (v, u) for k, (v, u, _) in e2e.items()}


def run_traced(args, wk, workload, workdir):
    import tracing

    steps = workload.trace_steps(args.seconds)
    e2e_plain, plain = fixed_phase(workload, args.seed, steps, workdir, wk)
    tracer = tracing.Tracer()
    e2e_traced, traced = fixed_phase(workload, args.seed, steps, workdir, wk, tracer)
    show_end_to_end(workload, e2e_plain, plain, " (plain)")
    show_end_to_end(workload, e2e_traced, traced, " (traced)")
    metrics = tracer.metrics()
    for name, (value, unit, _) in e2e_traced.items():
        if name not in ("setup_s", "peak_rss_mb"):   # one set-up, one process
            metrics[f"overhead.{name}"] = (value - e2e_plain[name][0], unit)
    for name in tracer.absent:
        print(f"  absent: {name} (reported as 0 calls)")
    if tracer.uncomputed:
        print(f"  {tracer.uncomputed} shape counts could not be computed")
    return plain.failed + traced.failed, plain.attempted + traced.attempted, metrics


def run_one(args) -> int:
    if not (ROOT / "src" / PACKAGE).is_dir():
        print(f"no {PACKAGE} package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads as wk

    # A worker works inside its controller's directory, so the controller
    # removes the files of a worker it had to kill.
    workdir = HERE / "_work" / f"{args.workload}-{os.getppid() if args.kit else os.getpid()}"
    if args.kit:
        workdir = workdir / args.kit
    # A terminated run still removes its work files and stops its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.kit:
            return run_worker(args, wk, workdir)
        print("provenance " + json.dumps(provenance(np, args)))
        workload = wk.make(args.workload, wk.load_kit(PACKAGE), ROOT)
        if args.trace:
            result = run_traced(args, wk, workload, workdir)
        else:
            result = run_untraced(args, wk, workload)
            if result is None:
                return 1
    finally:
        wk.clear(workdir)
    failed, attempted, metrics = result
    emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status, attempted, failed, merged = 0, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = status or 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            merged[f"{name}.{key}"] = (metric["value"], metric["unit"])
    if not merged:
        return status
    emit(failed == 0 and status == 0, attempted, failed, merged)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
