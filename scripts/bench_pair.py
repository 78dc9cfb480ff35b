"""Paired perfbench run of HEAD against another revision, saved as BENCH_<TAG>.json.

Exports HEAD and REV with `git archive` into fresh temporary trees (runs
from a working checkout read a few percent slower than the same files run
from a fresh export). On each of SEEDS it runs each tree's own
`perfbench/run.py --workload W --seed S --seconds 10 --trace 0` for every
workload, alternating which tree goes first, then makes one `--trace 1`
run per tree and workload. It writes, at the repository root:

- the provenance line of the first run, and which commits were measured,
  with each tree's count of `src/**/*.py` lines and of their lines of code;
- for each workload and end-to-end metric of HEAD's BENCHMARK.json, both
  trees' median and quartiles, HEAD's pair wins, the median ratio and a
  verdict (see `verdict`);
- each tree's failed and attempted operations, and from the traced runs
  the per-layer self seconds and `trace.absent_functions`;
- a desk `crossval`: REV's tree synthesizes criterion 6's corpus once
  (SYNTH), then each tree runs CROSSVAL on it CROSSVAL_RUNS times,
  alternating which tree goes first, each run into a fresh `--out` and
  timed by wall clock. The entry holds both commands, each tree's spread
  of seconds and its minor page faults per run, the OPENBLAS_NUM_THREADS
  in force, and whether the first HEAD run and the first REV run wrote the
  same files and stdout, byte for byte.

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
CROSSVAL_RUNS = 3


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
    """One run of the tree's own perfbench: its provenance and its result."""
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
    return {"provenance": provenance, **json.loads(lines[-1])}


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


def time_crossval(trees: dict, tmp: Path) -> dict:
    """Wall seconds and minor page faults of CROSSVAL per tree on one
    corpus SYNTH wrote."""
    corpus = tmp / "corpus"
    selfonn(trees["rev"], SYNTH, "--out", str(corpus))
    seconds = {tree: [] for tree in trees}
    faults = {tree: [] for tree in trees}
    stdout = {}
    for turn in range(CROSSVAL_RUNS):
        for tree in ("head", "rev")[::-1 if turn % 2 else 1]:
            out = tmp / f"cv_{tree}{turn}"
            took, faulted, stdout[tree, turn] = selfonn(
                trees[tree], CROSSVAL, "--manifest",
                str(corpus / "manifest.tsv"), "--out", str(out))
            seconds[tree].append(took)
            faults[tree].append(faulted)
    return {"synth": SYNTH, "command": CROSSVAL,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset"),
            **{tree: {**spread(seconds[tree]), "minor_faults": faults[tree]}
               for tree in trees},
            "artifacts_identical": (
                same_bytes(tmp / "cv_head0", tmp / "cv_rev0")
                and stdout["head", 0] == stdout["rev", 0])}


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


def summarize(runs: dict, traced: dict, end_to_end: list[dict]) -> dict:
    """Per workload: both trees' spreads, HEAD's pair wins, and the traces.

    `runs[tree][workload]` lists one perfbench result per seed, in seed
    order, so entry i of "head" and of "rev" form pair i; `traced[tree]
    [workload]` is one traced result. `end_to_end` holds BENCHMARK.json's
    metric entries (name, better, bound).
    """
    out = {}
    for workload in WORKLOADS:
        metrics = {}
        for m in end_to_end:
            head, rev = ([r["metrics"][m["name"]]["value"]
                          for r in runs[tree][workload]] for tree in ("head", "rev"))
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (h - r) > 0 for h, r in zip(head, rev))
            metrics[m["name"]] = {
                "better": m["better"], "bound": m["bound"],
                "head": spread(head), "rev": spread(rev),
                "head_wins": wins, "pairs": len(head),
                "median_ratio": statistics.median(head) / statistics.median(rev),
                "verdict": verdict(head, rev, wins, m["bound"], sign)}
        out[workload] = {"end_to_end": metrics}
        for tree in ("head", "rev"):
            trace = traced[tree][workload]["metrics"]
            out[workload][tree] = {
                "failed": sum(r["failed"] for r in runs[tree][workload]),
                "attempted": sum(r["attempted"] for r in runs[tree][workload]),
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
        runs = {tree: {w: [] for w in WORKLOADS} for tree in trees}
        pairs = [(seed, workload) for seed in SEEDS for workload in WORKLOADS]
        for turn, (seed, workload) in enumerate(pairs):
            for tree in ("head", "rev")[::-1 if turn % 2 else 1]:
                print(f"seed {seed} {workload} {tree}", flush=True)
                runs[tree][workload].append(
                    perfbench(trees[tree], workload, seed, trace=0))
        traced = {tree: {w: perfbench(trees[tree], w, SEEDS[0], trace=1)
                         for w in WORKLOADS} for tree in trees}
        print("crossval", flush=True)
        crossval = time_crossval(trees, Path(tmp))
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
