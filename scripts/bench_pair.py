"""Paired perfbench run of HEAD against another revision, saved as BENCH_<TAG>.json.

Exports HEAD and REV with `git archive` into fresh temporary trees (runs
from a working checkout read a few percent slower than the same files run
from a fresh export). REV's tree synthesizes a corpus of criterion 6's
size once (SYNTH). Then, on each of SEEDS, each tree runs every job of JOBS
once: its own `perfbench/run.py --workload W --seed S --seconds 10 --trace
0` for every workload, and a desk CROSSVAL on the corpus into a fresh
`--out`, timed by wall clock. Which tree goes first alternates from job to
job and, for each job, from seed to seed. Last, each tree makes one
`--trace 1` run per workload. It writes, at the repository root:

- the provenance line of the first run, and which commits were measured,
  with each tree's count of `src/**/*.py` lines and of their lines of code;
- for each workload and end-to-end metric of HEAD's BENCHMARK.json, both
  trees' median and quartiles, HEAD's pair wins, the median ratio and a
  verdict (see `compare`);
- each tree's failed and attempted operations, the spread of the host
  slowdown that its untraced runs measured on perfbench's seed copy (set-up,
  A and B; the seed copy imports the package's `cli`, so a change to the
  package can move it), and from the traced runs the per-layer self seconds
  and `trace.absent_functions`;
- the desk `crossval`: both commands, the same comparison of its seconds
  (lower is better, bound CROSSVAL_BOUND), each tree's minor page faults
  per run, the OPENBLAS_NUM_THREADS in force, and whether every run of
  both trees wrote the same files and stdout as HEAD's first run, byte for
  byte.

Usage (from anywhere in the repository):
    python3 scripts/bench_pair.py HEAD~1 candidate
"""

import ast
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk_train", "full_infer", "corpus_io")
SEEDS = tuple(range(1, 11))
SECONDS = 10
SYNTH = "synth --per-class 300 --height 128 --width 160 --seed 11"
CROSSVAL = ("crossval --half --q 2 --filters 4,4,4 --kernels 5,3,2 "
            "--dense 16 --epochs 3")
CROSSVAL_BOUND = 0.15
JOBS = (*WORKLOADS, "crossval")
SLOWDOWN = "host slowdown against the calibration host, from the seed copy: "


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export(rev: str, into: Path) -> dict:
    """Write the committed files of `rev` under `into`; return its identity."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"),
            "src_tree": git("rev-parse", f"{rev}:src"),
            "src_lines": src_lines(into),
            "src_code_lines": src_code_lines(into)}


def src_lines(tree: Path) -> int:
    """Lines of the Python sources under `tree`/src."""
    return sum(len(p.read_bytes().splitlines())
               for p in (tree / "src").rglob("*.py"))


def src_code_lines(tree: Path) -> int:
    """Lines of `tree`/src/**/*.py that are not blank, not comment-only and
    not inside a module, class or function docstring."""
    count = 0
    for path in (tree / "src").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        count += sum(1 for i, line in enumerate(text.splitlines(), 1)
                     if i not in docs and line.strip()
                     and not line.lstrip().startswith("#"))
    return count


def perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of the tree's own perfbench: its provenance, the seed copy's
    host slowdown (None when the run prints none, as traced runs do) and its
    result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{tree} {workload} seed {seed}: no result "
                 f"(exit {proc.returncode})\n{proc.stderr}")
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    return {"provenance": provenance, "slowdown": host_slowdown(lines),
            **json.loads(lines[-1])}


def host_slowdown(lines: list[str]) -> dict | None:
    """The seed copy's host slowdown in a perfbench run's output lines:
    "...from the seed copy: setup 1.02, A 0.98, B 1.1" gives {"setup": 1.02,
    "A": 0.98, "B": 1.1}; None when no line states it."""
    for line in map(str.strip, lines):
        if line.startswith(SLOWDOWN):
            return {name: float(value) for name, value in
                    (part.split(" ") for part in line[len(SLOWDOWN):].split(", "))}
    return None


def child_faults() -> int:
    """Minor page faults of all waited-for child processes so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def selfonn(tree: Path, command: str, *args: str) -> tuple[float, int, str]:
    """Run the tree's own `selfonn-kit`; its wall seconds, minor page faults
    and stdout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    faults = child_faults()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "selfonn_kit",
                           *command.split(), *args],
                          cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode:
        sys.exit(f"{tree} {command}: exit {proc.returncode}\n{proc.stderr}")
    return seconds, child_faults() - faults, proc.stdout


def same_bytes(a: Path, b: Path) -> bool:
    """Whether two directories hold the same files, byte for byte."""
    names = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file())
             for d in (a, b)]
    return names[0] == names[1] and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names[0])


def run_crossval(tree: Path, corpus: Path, out: Path) -> dict:
    """One CROSSVAL run of `tree` on `corpus` into `out`: its wall seconds,
    minor page faults, stdout and output directory."""
    seconds, faults, stdout = selfonn(tree, CROSSVAL, "--manifest",
                                      str(corpus / "manifest.tsv"), "--out", str(out))
    return {"seconds": seconds, "minor_faults": faults, "stdout": stdout, "out": out}


def paired_runs(trees: dict, tmp: Path) -> dict:
    """Every untraced run, as `runs[tree][job]` in seed order, so entry i
    of "head" and of "rev" form pair i (see the module docstring)."""
    corpus = tmp / "corpus"
    selfonn(trees["rev"], SYNTH, "--out", str(corpus))
    runs = {tree: {job: [] for job in JOBS} for tree in trees}
    for i, seed in enumerate(SEEDS):
        for j, job in enumerate(JOBS):
            for tree in ("head", "rev")[::-1 if (i + j) % 2 else 1]:
                print(f"seed {seed} {job} {tree}", flush=True)
                runs[tree][job].append(
                    run_crossval(trees[tree], corpus, tmp / f"cv_{tree}{seed}")
                    if job == "crossval" else
                    perfbench(trees[tree], job, seed, trace=0))
    return runs


def crossval_entry(runs: dict) -> dict:
    """The desk `crossval` entry of the crossval runs in `runs`."""
    cv = {tree: runs[tree]["crossval"] for tree in runs}
    seconds = {tree: [r["seconds"] for r in cv[tree]] for tree in cv}
    first = cv["head"][0]
    return {"synth": SYNTH, "command": CROSSVAL,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset"),
            "seconds": compare(seconds["head"], seconds["rev"], "lower",
                               CROSSVAL_BOUND),
            "minor_faults": {tree: [r["minor_faults"] for r in cv[tree]]
                             for tree in cv},
            "artifacts_identical": all(
                r["stdout"] == first["stdout"] and same_bytes(first["out"], r["out"])
                for tree in cv for r in cv[tree])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(head: list[float], rev: list[float], wins: int, bound: float,
            sign: int) -> str:
    """HEAD (the change) against REV (the parent) on one metric.

    `sign` is 1 when higher is better, else -1; `bound` is the benchmark's
    relative bound. "unresolved" when REV's quartile spread is wider than
    the bound and not every HEAD run beats every REV run; else "worse" when
    HEAD's median is worse than REV's by more than the bound; else "gain"
    when HEAD wins at least nine tenths of the pairs and the medians differ
    by more than REV's quartile spread; else "unchanged".
    """
    parent = spread(rev)
    iqr = parent["q3"] - parent["q1"]
    scale = abs(parent["median"])
    change = sign * (statistics.median(head) - parent["median"])
    if iqr > bound * scale and min(sign * h for h in head) <= max(sign * r for r in rev):
        return "unresolved"
    if change < -bound * scale:
        return "worse"
    if wins >= 0.9 * len(head) and change > iqr:
        return "gain"
    return "unchanged"


def compare(head: list[float], rev: list[float], better: str,
            bound: float) -> dict:
    """One metric of both trees, pair i being (head[i], rev[i]): their
    spreads, HEAD's pair wins, the median ratio and the verdict."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - r) > 0 for h, r in zip(head, rev))
    return {"better": better, "bound": bound,
            "head": spread(head), "rev": spread(rev),
            "head_wins": wins, "pairs": len(head),
            "median_ratio": statistics.median(head) / statistics.median(rev),
            "verdict": verdict(head, rev, wins, bound, sign)}


def summarize(runs: dict, traced: dict, end_to_end: list[dict]) -> dict:
    """Per workload: both trees' spreads, HEAD's pair wins, and the traces.

    `runs[tree][workload]` lists one untraced perfbench result per seed, in
    seed order, as `paired_runs` returns them; `traced[tree]
    [workload]` is one traced result. `end_to_end` holds BENCHMARK.json's
    metric entries (name, better, bound).
    """
    out = {}
    for workload in WORKLOADS:
        metrics = {}
        for m in end_to_end:
            head, rev = ([r["metrics"][m["name"]]["value"]
                          for r in runs[tree][workload]] for tree in ("head", "rev"))
            metrics[m["name"]] = compare(head, rev, m["better"], m["bound"])
        out[workload] = {"end_to_end": metrics}
        for tree in ("head", "rev"):
            trace = traced[tree][workload]["metrics"]
            out[workload][tree] = {
                "failed": sum(r["failed"] for r in runs[tree][workload]),
                "attempted": sum(r["attempted"] for r in runs[tree][workload]),
                "host_slowdown": {k: spread([r["slowdown"][k]
                                             for r in runs[tree][workload]])
                                  for k in runs[tree][workload][0]["slowdown"]},
                "absent_functions": trace["trace.absent_functions"]["value"],
                "self_s": {k[:-len(".self_s")]: v["value"]
                           for k, v in trace.items() if k.endswith(".self_s")}}
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: python3 scripts/bench_pair.py REV TAG")
    rev, tag = argv
    end_to_end = json.loads(git("show", "HEAD:BENCHMARK.json"))["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"head": Path(tmp) / "head", "rev": Path(tmp) / "rev"}
        ids = {"head": export("HEAD", trees["head"]), "rev": export(rev, trees["rev"])}
        runs = paired_runs(trees, Path(tmp))
        traced = {tree: {w: perfbench(trees[tree], w, SEEDS[0], trace=1)
                         for w in WORKLOADS} for tree in trees}
        crossval = crossval_entry(runs)
    provenance = runs["head"][WORKLOADS[0]][0]["provenance"]
    doc = {"command": f"scripts/bench_pair.py {rev} {tag}",
           "provenance": {k: v for k, v in provenance.items()
                          if k not in ("workload", "seed", "trace", "commit")},
           "trees": ids, "seeds": list(SEEDS), "seconds": SECONDS,
           "workloads": summarize(runs, traced, end_to_end),
           "crossval": crossval}
    path = ROOT / f"BENCH_{tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
