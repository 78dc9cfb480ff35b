import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def test_desk_experiment_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "desk_experiment.py"),
         "--out", str(tmp_path), "--per-class", "4", "--seeds", "1",
         "--epochs", "1", "--k", "3"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "q=2 matched or beat q=1 in" in proc.stdout
    assert "seed 0 q=1: mean" in proc.stdout and "seed 0 q=2: mean" in proc.stdout


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair",
                                                  SCRIPTS / "bench_pair.py")
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    return bench_pair


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    return workloads


# The benchmark's own output checks: Q=1 logits bitwise equal to the plain-CNN
# reference, small Q=1 and Q=3 nets against the reference loop kernels,
# byte-exact PGM round trips and loaded pixels in [0, 1). desk_train is left
# out: its set-up alone takes seconds.
@pytest.mark.parametrize("name", ["full_infer", "corpus_io"])
def test_benchmark_checks_pass(name, tmp_path):
    workloads = load_workloads()
    workload = workloads.make(name, workloads.load_kit("selfonn_kit"),
                              SCRIPTS.parent)
    state = workload.setup(1, tmp_path)
    tally = workloads.Tally()
    workload.step(state, tally)
    workload.finish(state, tally)
    assert tally.attempted > 0 and tally.failed == 0, tally.failures


# The tracer reports a missing name as absent, not as an error, so a refactor
# that renames a traced function would blind the per-layer trace silently.
@pytest.mark.parametrize("module,name", load_tracing().TRACED)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"selfonn_kit.{module}"),
                            name, None))


def test_bench_pair_src_lines(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (pkg / "sub").mkdir()
    (pkg / "sub" / "b.py").write_text("\n\nz = 3", encoding="utf-8")
    (pkg / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
    (tmp_path / "top.py").write_text("outside = True\n", encoding="utf-8")
    assert load_bench_pair().src_lines(tmp_path) == 5


def test_bench_pair_src_code_lines(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "# a comment\n"
        "\n"
        "x = 1  # code with a trailing comment\n"
        "def f():\n"
        '    """One-line docstring."""\n'
        "    return 1\n"
        "class C:\n"
        '    """Class\n    docstring."""\n'
        "    y = 2\n"
        '    "a later string is code"\n', encoding="utf-8")
    (pkg / "sub" / "b.py").write_text("    # indented comment\nz = 3", encoding="utf-8")
    (pkg / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
    (tmp_path / "top.py").write_text("outside = True\n", encoding="utf-8")
    bench_pair = load_bench_pair()
    assert bench_pair.src_code_lines(tmp_path) == 7
    assert bench_pair.src_lines(tmp_path) == 16


def test_bench_pair_same_bytes(tmp_path):
    same_bytes = load_bench_pair().same_bytes
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub").mkdir(parents=True)
        (d / "x.txt").write_bytes(b"one\n")
        (d / "sub" / "y.bin").write_bytes(bytes(range(256)))
    assert same_bytes(a, b)
    (b / "sub" / "y.bin").write_bytes(bytes(range(255)) + b"\x00")
    assert not same_bytes(a, b)
    (b / "sub" / "y.bin").write_bytes(bytes(range(256)))
    (b / "x.txt").unlink()
    assert not same_bytes(a, b) and not same_bytes(b, a)


def test_bench_pair_summary():
    bench_pair = load_bench_pair()

    def record(rate, ms, failed=0):
        return {"failed": failed, "attempted": 100,
                "metrics": {"a_items_per_s": {"value": rate, "unit": "1/s"},
                            "a_ms_p50": {"value": ms, "unit": "ms"}}}

    def trace(seconds):
        return {"metrics": {"trace.absent_functions": {"value": 0},
                            "ops.tanh_forward.calls": {"value": 7},
                            "ops.tanh_forward.self_s": {"value": seconds}}}

    # pair i is (head[i], rev[i]); head is faster in pairs 0 and 2 only
    head = [record(10.0, 4.0), record(8.0, 6.0, failed=1), record(12.0, 2.0)]
    rev = [record(9.0, 5.0), record(9.0, 5.0), record(11.0, 3.0)]
    workloads = bench_pair.WORKLOADS
    runs = {"head": {w: head for w in workloads},
            "rev": {w: rev for w in workloads}}
    traced = {"head": {w: trace(0.5) for w in workloads},
              "rev": {w: trace(0.25) for w in workloads}}
    end_to_end = [{"name": "a_items_per_s", "better": "higher", "bound": 0.15},
                  {"name": "a_ms_p50", "better": "lower", "bound": 0.15}]
    out = bench_pair.summarize(runs, traced, end_to_end)
    assert set(out) == set(workloads)
    rate = out["desk_train"]["end_to_end"]["a_items_per_s"]
    assert rate["head"] == {"median": 10.0, "q1": 9.0, "q3": 11.0,
                            "runs": [10.0, 8.0, 12.0]}
    assert rate["rev"]["median"] == 9.0 and rate["rev"]["q1"] == 9.0
    assert rate["rev"]["q3"] == 10.0
    assert rate["head_wins"] == 2 and rate["pairs"] == 3
    assert rate["median_ratio"] == 10.0 / 9.0 and rate["bound"] == 0.15
    assert rate["verdict"] == "unchanged"  # spread 1 <= 0.15 * 9, 2 wins of 3
    ms = out["desk_train"]["end_to_end"]["a_ms_p50"]
    assert ms["head_wins"] == 2 and ms["head"]["median"] == 4.0
    assert ms["verdict"] == "unresolved"  # spread 1 > 0.15 * 5, run 6.0 loses
    assert out["corpus_io"]["head"] == {"failed": 1, "attempted": 300,
                                        "absent_functions": 0,
                                        "self_s": {"ops.tanh_forward": 0.5}}
    assert out["corpus_io"]["rev"]["self_s"] == {"ops.tanh_forward": 0.25}

    # Ten pairs; a bound of 0.15 allows 15 around a parent median of 100.
    steady = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    wide = [70.0, 130.0] * 5  # quartile spread 60
    cases = [
        ([v + 5 for v in steady[:9]] + [90.0], steady, 1, "gain"),  # 9 wins
        ([v + 5 for v in steady[:8]] + [90.0] * 2, steady, 1, "unchanged"),
        ([v + 0.5 for v in steady], steady, 1, "unchanged"),  # 10 wins, < spread
        ([120.0] * 10, steady, -1, "worse"),  # lower is better
        ([100.0] * 10, wide, 1, "unresolved"),
        ([50.0] * 10, wide, 1, "unresolved"),  # worse, but inside the spread
        ([131.0] * 10, wide, 1, "unchanged"),  # beats every parent run, by < 60
        ([200.0] * 10, wide, 1, "gain"),
    ]
    for head, rev, sign, want in cases:
        wins = sum(sign * (h - r) > 0 for h, r in zip(head, rev))
        assert bench_pair.verdict(head, rev, wins, 0.15, sign) == want, (head, rev)


def test_bench_pair_selfonn_counts_child_faults(tmp_path):
    # A stand-in package whose `__main__` writes 32 MiB, at least 8192
    # fresh 4 KiB pages, then echoes its arguments.
    pkg = tmp_path / "src" / "selfonn_kit"
    pkg.mkdir(parents=True)
    (pkg / "__main__.py").write_text(
        "import sys\nblock = bytearray(32 << 20)\nblock[::4096] = b'x' * (8 << 10)\n"
        "print(' '.join(sys.argv[1:]))\n", encoding="utf-8")
    seconds, faults, stdout = load_bench_pair().selfonn(tmp_path, "crossval --q 2",
                                                        "--out", "o")
    assert seconds > 0 and stdout == "crossval --q 2 --out o\n"
    assert faults >= 8 << 10


def test_bench_pair_crossval_records_faults(tmp_path, monkeypatch):
    bench_pair = load_bench_pair()
    calls = []

    def fake_selfonn(tree, command, *args):
        out = Path(args[args.index("--out") + 1])
        out.mkdir()
        (out / "report.txt").write_text("same\n", encoding="utf-8")
        calls.append((tree, command.split()[0]))
        return float(len(calls)), 100 * len(calls), "same\n"

    monkeypatch.setattr(bench_pair, "selfonn", fake_selfonn)
    monkeypatch.setattr(bench_pair, "CROSSVAL_RUNS", 3)
    entry = bench_pair.time_crossval({"head": "H", "rev": "R"}, tmp_path)
    # synth once from REV's tree, then head/rev, rev/head, head/rev
    assert calls == [("R", "synth"), ("H", "crossval"), ("R", "crossval"),
                     ("R", "crossval"), ("H", "crossval"), ("H", "crossval"),
                     ("R", "crossval")]
    assert entry["head"]["runs"] == [2.0, 5.0, 6.0]
    assert entry["head"]["minor_faults"] == [200, 500, 600]
    assert entry["rev"]["runs"] == [3.0, 4.0, 7.0]
    assert entry["rev"]["minor_faults"] == [300, 400, 700]
    assert entry["rev"]["median"] == 4.0 and entry["artifacts_identical"]
