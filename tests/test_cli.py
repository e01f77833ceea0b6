import errno
import hashlib
import io
import json
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest

import cyclopadic
from cyclopadic import cli, congruences
from cyclopadic.cli import (
    CHECKER_TABLE,
    MAX_CYCLE_INDEX_TERMS,
    MAX_MEIXNER_DEGREE,
    MAX_SCALAR_SIZE,
    UsageError,
    build_all_tasks,
    main,
    verify_spec,
)
from cyclopadic.cycle_index import partition_count
from cyclopadic.padic import PadicContext, is_prime
from cyclopadic.polyring import MultiPoly, congruence_witnesses
from cyclopadic.reports import CongruenceReport

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture
def no_digit_limit():
    """str() and int() of any length in this process, as the CLI has them;
    Python 3.10.7 on refuses more than 4,300 digits by default."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(before)


def cli_process(*argv):
    """argv run by ``python -m cyclopadic.cli`` in a fresh interpreter, which
    keeps the default digit limit; text output."""
    src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
    return subprocess.run([sys.executable, "-m", "cyclopadic.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    before = out.read_text() if out.exists() else None
    code = main(list(argv) + ["--out", str(out)])
    if code == 2:  # a usage error leaves --out as it was, or absent
        assert (out.read_text() if out.exists() else None) == before
        return code, ""
    return code, out.read_text()


class TestCompute:
    def test_cycle_index(self, tmp_path):
        code, text = run(tmp_path, "compute", "cycle-index", "3")
        assert code == 0
        obj = json.loads(text)
        assert obj["terms"] == [[[3, 0, 0], "1"], [[1, 1, 0], "3"], [[0, 0, 1], "2"]]

    @pytest.mark.parametrize("n", range(0, 11))
    def test_cycle_index_bytes_match_golden(self, tmp_path, n):
        golden = pathlib.Path(__file__).parent / "golden" / f"cycle_index_{n:02d}.json"
        code, text = run(tmp_path, "compute", "cycle-index", str(n))
        assert code == 0 and text == golden.read_text()

    def test_coeff(self, tmp_path):
        code, text = run(tmp_path, "compute", "coeff", "3", "1,1,0")
        assert code == 0 and text.strip() == "3"

    def test_meixner_q2(self, tmp_path):
        code, text = run(tmp_path, "compute", "meixner-q", "2")
        assert code == 0
        assert json.loads(text) == {"coeffs": ["-1", "0", "1"]}

    def test_meixner_qstar(self, tmp_path):
        code, text = run(tmp_path, "compute", "meixner-qstar", "3")
        assert code == 0
        assert json.loads(text) == {"coeffs": ["0", "-2", "0", "1"]}

    @pytest.mark.parametrize("argv", [
        ["meixner-q", "3", "1,2"],
        ["cycle-index", "3", "1,1,0"],
        ["meixner-qstar", "3", "0,0,1"],
    ])
    def test_cycle_type_of_another_object_exit2(self, tmp_path, capsys, argv):
        # only coeff reads a cycle type; the others used to ignore it
        obj, _, cycle_type = argv
        code, _ = run(tmp_path, "compute", *argv)
        assert code == 2 and capsys.readouterr().err == (
            f"error: {obj} takes no cycle type, got '{cycle_type}'\n")

    def test_malformed_cycle_type_exit2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "compute", "coeff", "3", "2,1,0")
        assert code == 2
        code, _ = run(tmp_path, "compute", "coeff", "3", "a,b")
        assert code == 2
        for argv, message in ((["3", "1,1,0,0"], "m must have n = 3 entries, got 4"),
                              (["0", "0"], "n must be >= 1, got 0")):
            capsys.readouterr()
            code, _ = run(tmp_path, "compute", "coeff", *argv)
            assert code == 2 and capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("entries", ["1", "1000000002,-1", "1000000000"])
    def test_oversized_cycle_type_exit2(self, entries):
        # N is refused before the entries are padded to N = 10^9 entries,
        # which under a 1 GB address space would end in MemoryError, exit 3;
        # "1000000000" is the identity class, a valid cycle type
        def limit():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclopadic.cli", "compute", "coeff", "1000000000",
             entries],
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", (
            f"error: coeff reaches N = 1000000000, over the limit of {MAX_SCALAR_SIZE}\n"))

    @pytest.mark.usefixtures("no_digit_limit")
    def test_coeff_past_4300_digits(self):
        # the 1600-cycle's class has 1599! elements, about 4,430 digits
        proc = cli_process("compute", "coeff", "1600", "0," * 1599 + "1")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{math.factorial(1599)}\n"

    def test_text_format(self, tmp_path):
        # every one of C_6's p(6) = 11 terms; the repr of a MultiPoly stops after 8
        code, text = run(tmp_path, "compute", "cycle-index", "6", "--format", "text")
        assert code == 0 and text == (
            "MultiPoly(1*X1^6 + 15*X1^4*X2 + 45*X1^2*X2^2 + 40*X1^3*X3 + 15*X2^3"
            " + 120*X1*X2*X3 + 90*X1^2*X4 + 40*X3^2 + 90*X2*X4 + 144*X1*X5"
            " + 120*X6)\n"
        )

    def test_cycle_index_size_guard(self, tmp_path, capsys):
        start = time.monotonic()
        code, text = run(tmp_path, "compute", "cycle-index", "120")
        assert time.monotonic() - start < 1.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "p(120) >= p(46) = 105558" in err and str(MAX_CYCLE_INDEX_TERMS) in err

    @pytest.mark.parametrize("n", [46, 60000, 10**9])
    def test_cycle_index_size_guard_computes_no_p_of_n(self, tmp_path, capsys, n):
        # p(N) grows with N, so N >= 46 is refused without computing p(N):
        # p(60000) alone took about 3.7 s, and N = 10^9 a list of 10^9 entries
        start = time.monotonic()
        code, text = run(tmp_path, "compute", "cycle-index", str(n))
        assert time.monotonic() - start < 0.5
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: cycle-index reaches N = {n}, and S_{n} has p({n}) >= "
            f"p(46) = 105558 cycle types, over the limit of {MAX_CYCLE_INDEX_TERMS}\n")

    @pytest.mark.parametrize("obj", ["meixner-q", "meixner-qstar"])
    def test_meixner_degree_ceiling(self, tmp_path, capsys, obj):
        code, text = run(tmp_path, "compute", obj, str(MAX_MEIXNER_DEGREE))
        assert code == 0 and len(json.loads(text)["coeffs"]) == MAX_MEIXNER_DEGREE + 1
        start = time.monotonic()
        code = main(["compute", obj, str(MAX_MEIXNER_DEGREE + 1)])
        assert time.monotonic() - start < 1.0
        assert code == 2 and capsys.readouterr() == ("", (
            f"error: {obj} reaches N = {MAX_MEIXNER_DEGREE + 1}, over the limit "
            f"of {MAX_MEIXNER_DEGREE}\n"))

    def test_unwritable_out_exit2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x"
        assert main(["compute", "cycle-index", "3", "--out", str(path)]) == 2
        assert f"error: cannot write {path}: " in capsys.readouterr().err


class TestVerify:
    def test_prop_poly_sweep_passes(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify", "prop-poly", "--primes", "3",
            "--n-max", "3", "--degree-cap", "12",
        )
        assert code == 0
        reports = [json.loads(line) for line in text.splitlines()]
        assert all(r["violations"] == [] for r in reports)
        assert {r["checker"] for r in reports} == {"prop-poly"}

    def test_all_small_grid(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify", "all", "--primes", "3,5",
            "--n-max", "2", "--degree-cap", "16", "--trials", "25",
        )
        assert code == 0
        checkers = {json.loads(line)["checker"] for line in text.splitlines()}
        assert "carlitz-coeff" in checkers and "corollary2" in checkers

    def test_witness_integers_past_2_to_the_53_are_exact(self, tmp_path):
        # p = 2^53 + 5: m = p*k and its modulus m*n are written as strings,
        # so a reader that parses numbers as doubles reads them exactly
        code, text = run(tmp_path, "verify", "junod-lemma", "--primes",
                         "9007199254740997", "--trials", "2", "--mutate", "0:1")
        assert code == 1
        report = json.loads(text, parse_int=float)  # what a JavaScript reader sees
        assert report["params"]["p"] == "9007199254740997"
        (violation,) = report["violations"]
        m, modulus = violation["instance"]["m"], violation["required_modulus"]
        assert (m, modulus) == ("81064793292668973", "729583139634020757")
        assert int(modulus) == int(m) * int(violation["instance"]["n"])

    def test_wilson_sharpness(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "wilson-sharpness", "--primes", "3", "--n-max", "3"
        )
        assert code == 0
        params = [json.loads(line)["params"] for line in text.splitlines()]
        assert [p["n"] for p in params] == [3, 6, 9]

    @pytest.mark.parametrize("p, message", [
        (9, "--primes entries must be prime, got 9"),
        # psi_12 passes the first 12 Miller-Rabin bases but not 41; 2^89 - 1
        # is prime, but past psi_13 no 13 bases certify it
        (318665857834031151167461,
         "--primes entries must be prime, got 318665857834031151167461"),
        (2**89 - 1, f"cannot certify {2**89 - 1} prime"),
    ], ids=["9", "psi12", "M89"])
    def test_nonprime_rejected(self, tmp_path, capsys, p, message):
        code, out = run(tmp_path, "verify", "prop-poly", "--primes", str(p))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_p2_needs_flag(self, tmp_path):
        code, _ = run(tmp_path, "verify", "carlitz-poly", "--primes", "2")
        assert code == 2

    def test_p2_advisory_with_flag(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify", "prop-coeff", "--primes", "2", "--allow-p2",
            "--n-max", "3", "--degree-cap", "8",
        )
        # p=2 outcomes are reported but never asserted
        assert code == 0
        for line in text.splitlines():
            assert json.loads(line)["advisory"] is True

    def test_mutation_detected_exit1(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify", "prop-poly", "--primes", "3", "--n-max", "1",
            "--degree-cap", "4", "--mutate", "0:1",
        )
        assert code == 1
        report = json.loads(text.splitlines()[0])
        assert report["violations"]
        wit = report["violations"][0]
        assert wit["observed_vp"] == 0

    def test_mutation_at_the_largest_modulus(self, tmp_path):
        args = ["verify", "prop-poly", "--primes", "3", "--n-max", "3",
                "--degree-cap", "12"]
        # 9 is the largest modulus in the grid, so a delta of 9 is no fault
        code, _ = run(tmp_path, *args, "--mutate", "0:9")
        assert code == 0
        code, text = run(tmp_path, *args, "--mutate", "0:3")
        assert code == 1
        reports = [json.loads(line) for line in text.splitlines()]
        flagged = [r["params"] for r in reports if r["violations"]]
        assert [(f["n"], f["modulus"], f["r"]) for f in flagged] == [
            (3, 9, 0), (3, 9, 1), (3, 9, 2)
        ]

    @pytest.mark.parametrize("checker", [
        "carlitz-coeff", "prop-coeff", "corollary1", "carlitz-poly", "prop-poly"
    ])
    def test_size_guard(self, tmp_path, capsys, checker):
        start = time.monotonic()
        code, text = run(tmp_path, "verify", checker, "--primes", "3",
                         "--n-max", "40", "--degree-cap", "120")
        assert time.monotonic() - start < 1.0
        assert code == 2 and text == ""
        # the largest r + 3n <= 120, with r <= 2 and, for corollary1, r >= 1
        largest = 119 if checker == "corollary1" else 120
        err = capsys.readouterr().err
        assert err.startswith(f"error: {checker} reaches N = {largest},")
        assert f"p({largest}) >= p(46) = " in err and str(MAX_CYCLE_INDEX_TERMS) in err

    def test_size_guard_boundary(self, tmp_path):
        # p(45) = 89,134 is admitted, p(46) = 105,558 is not
        first = cli.FIRST_N_PAST_TERMS
        assert partition_count(first - 1) <= MAX_CYCLE_INDEX_TERMS
        assert partition_count(first) > MAX_CYCLE_INDEX_TERMS
        code, text = run(tmp_path, "verify", "prop-coeff", "--primes", "5",
                         "--n-max", "9", "--degree-cap", "45")
        assert code == 0 and json.loads(text.splitlines()[-1])["params"]["n"] == 9
        code, _ = run(tmp_path, "verify", "prop-coeff", "--primes", "23",
                      "--n-max", "2", "--degree-cap", "46")
        assert code == 2

    def test_thread_count_does_not_change_output(self, tmp_path):
        args = [
            "verify", "all", "--primes", "3,5",
            "--n-max", "2", "--degree-cap", "14", "--trials", "10",
        ]
        for extra, expected in (([], 0), (["--mutate", "0:1"], 1)):
            outputs = set()
            for threads in ([], ["--threads", "4"]):
                code, text = run(tmp_path, *args, *extra, *threads)
                assert code == expected
                outputs.add(text)
            assert len(outputs) == 1

    def test_checker_error_propagates(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("injected checker fault")

        monkeypatch.setattr(congruences, "check_carlitz_coeff", broken)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--out", str(tmp_path / "out.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert err.endswith("RuntimeError: injected checker fault\n")

    @pytest.mark.parametrize("error", [ValueError, OSError],
                             ids=lambda error: error.__name__)
    def test_checker_error_is_not_a_usage_error(self, tmp_path, capsys,
                                                monkeypatch, error):
        # the tasks run outside the write's OSError handler, so a checker's
        # own OSError is an internal error too, not a failed write
        def broken(*args):
            raise error("injected checker fault")

        monkeypatch.setattr(congruences, "check_carlitz_coeff", broken)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--out", str(tmp_path / "out.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.endswith(f"{error.__name__}: injected checker fault\n")
        assert "error: " not in err

    def test_local_checker_error_keeps_its_traceback(self, tmp_path, capsys,
                                                     monkeypatch):
        # an exception of a local class is printed as it was raised, with the
        # checker's own frame in its traceback
        class LocalError(Exception):
            pass

        def broken_in_checker(*args):
            raise LocalError("injected checker fault")

        monkeypatch.setattr(congruences, "check_carlitz_coeff", broken_in_checker)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--threads", "2", "--out", str(tmp_path / "out.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "broken_in_checker" in err
        assert err.endswith("LocalError: injected checker fault\n")

    def test_interrupt_stops_the_sweep(self, tmp_path, monkeypatch):
        # the first task's interrupt ends the run: no later task starts and
        # no report is written
        calls = []

        def interrupts(n, ctx, mutation):
            calls.append(n)
            raise KeyboardInterrupt

        monkeypatch.setattr(congruences, "check_carlitz_coeff", interrupts)
        out = tmp_path / "out.txt"
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "carlitz-coeff", "--primes", "3,5", "--n-max", "2",
                  "--threads", "2", "--out", str(out)])
        assert len(calls) == 1
        assert out.read_text() == ""

    def test_later_error_keeps_the_earlier_reports(self, tmp_path, capsys,
                                                   monkeypatch):
        # each job's reports are written as it ends: a fault at p = 5 exits 3
        # with the reports of p = 3 written, as a run at p = 3 alone writes them
        argv = ["verify", "carlitz-coeff", "--n-max", "2"]
        code, clean = run(tmp_path, *argv, "--primes", "3")
        assert code == 0 and len(clean.splitlines()) == 2
        check = congruences.check_carlitz_coeff

        def fails_at_5(n, ctx, mutation):
            if ctx.p == 5:
                raise RuntimeError("injected checker fault")
            return check(n, ctx, mutation)

        monkeypatch.setattr(congruences, "check_carlitz_coeff", fails_at_5)
        capsys.readouterr()
        code, text = run(tmp_path, *argv, "--primes", "3,5")
        assert code == 3 and text == clean
        assert capsys.readouterr().err.endswith("RuntimeError: injected checker fault\n")

    @pytest.mark.parametrize("argv, count", [
        (["--primes", "3,5,7", "--n-max", "3", "--degree-cap", "24"], 243),
        (["--primes", "2,3,5,7,11", "--allow-p2", "--n-max", "6",
          "--degree-cap", "40"], 688),
        (["--primes", "3,5,7", "--n-max", "3", "--degree-cap", "24",
          "--r-range", "1:4"], 209),
    ], ids=["pinned", "p2", "r-range"])
    def test_jobs_come_in_report_order(self, argv, count):
        # run_verify writes each job's reports as it ends and sorts nothing,
        # so the jobs must hold distinct keys in ascending order
        keys = [key for keys, _ in build_all_tasks(verify_spec(["all", *argv]))
                for key in keys]
        assert len(keys) == count
        assert keys == sorted(set(keys))

    def test_threads_leave_the_jobs_as_they_are(self, monkeypatch):
        # --threads K, whatever K and the CPU count, builds the jobs the
        # default builds; junod-lemma stays one job
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["all", "--primes", "3,5", "--n-max", "2", "--degree-cap", "12",
                "--trials", "20"]

        def keys(*threads):
            return [keys for keys, _ in build_all_tasks(verify_spec([*argv, *threads]))]

        default = keys()
        for threads in ("0", "1", "2", "16"):
            assert keys("--threads", threads) == default
        assert [k for k in default if k[0][0] == "junod-lemma"] == [
            [("junod-lemma", p, 0, 0) for p in (3, 5)]]

    def test_report_larger_than_a_pipe_buffer(self, tmp_path, monkeypatch):
        def many_violations(n, ctx, mutation):
            report = CongruenceReport("carlitz-coeff", {"p": ctx.p, "n": n})
            for k in range(20_000):
                report.add_violation({"k": k}, k * ctx.p, n * ctx.p, ctx, 1)
            return report

        monkeypatch.setattr(congruences, "check_carlitz_coeff", many_violations)
        code, text = run(tmp_path, "verify", "carlitz-coeff", "--primes", "3,5",
                         "--n-max", "2")
        assert code == 1 and len(text) > 4 * 65536
        assert all(len(json.loads(line)["violations"]) == 20_000
                   for line in text.splitlines())

    @pytest.mark.parametrize("text", ["x:1", "5", "1:y", ":", "-1:1"])
    def test_malformed_mutate_exit2(self, tmp_path, capsys, text):
        # one argument, so that argparse does not read "-1:1" as a flag
        code, out = run(tmp_path, "verify", "carlitz-coeff", "--primes", "3",
                        f"--mutate={text}")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: malformed --mutate {text!r}\n"

    @pytest.mark.parametrize("flag, value", [
        ("--trials", -5), ("--n-max", -2), ("--degree-cap", -1), ("--threads", -3),
    ])
    def test_negative_grid_input_exit2(self, capsys, flag, value):
        # one argument, so that argparse does not read the value as a flag
        code = main(["verify", "junod-lemma", "--primes", "3", f"{flag}={value}"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {flag} must be >= 0, got {value}\n")

    def test_unwritable_out_exit2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x"
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--out", str(path)])
        assert code == 2
        assert f"error: cannot write {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "junod-lemma", "--primes", "4"],
        ["verify", "junod-lemma", "--primes", "3", "--n-max=-2"],
        ["verify", "prop-coeff", "--primes", "3", "--mutate", "x"],
        ["verify", "prop-coeff", "--primes", "11", "--n-max", "5",
         "--degree-cap", "55"],
        ["compute", "cycle-index", "120"],
    ], ids=["not-prime", "negative-n-max", "bad-mutate", "refused-grid",
            "compute-guard"])
    def test_usage_error_leaves_out_untouched(self, tmp_path, capsys, argv):
        path = tmp_path / "F"
        path.write_text("kept\n")
        assert main(argv + ["--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        ["prop-poly", "--primes", "3", "--n-max", "0"],
        ["prop-coeff", "--primes", "3", "--degree-cap", "0"],
        ["corollary2", "--primes", "2", "--allow-p2"],
    ], ids=["n-max-0", "degree-cap-0", "odd-only-at-p2"])
    def test_empty_grid_exit2(self, tmp_path, capsys, argv):
        error = f"error: the {argv[0]} grid holds no task\n"
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr() == ("", error)
        path = tmp_path / "F"
        path.write_text("kept\n")
        assert main(["verify", *argv, "--out", str(path)]) == 2
        assert capsys.readouterr().err == error
        assert path.read_text() == "kept\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["verify", "junod-lemma", "--primes", "3", "--seed", "7",
                "--trials", "40"]
        _, a = run(tmp_path, *args)
        _, b = run(tmp_path, *args)
        assert a == b
        assert json.loads(a.splitlines()[0])["seed"] == 7

    def test_text_format(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
            "--format", "text",
        )
        assert code == 0
        assert text.startswith("PASS")

    def test_timing_flag_adds_elapsed(self, tmp_path):
        _, text = run(
            tmp_path,
            "verify", "carlitz-coeff", "--primes", "3", "--n-max", "1",
            "--timing",
        )
        assert "elapsed_ms" in json.loads(text.splitlines()[0])

    def test_timing_flag_in_text_format(self, tmp_path, monkeypatch):
        # every job takes one second; the status line of each report ends
        # with its time, and a run without --timing keeps its bytes
        clock = iter(range(10**6))
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
        argv = ["verify", "remark1", "--primes", "3", "--n-max", "1",
                "--format", "text"]
        plain = [f"PASS     remark1              modulus=3 n=1 p=3 r={r} instances=2"
                 for r in (1, 2)]
        assert run(tmp_path, *argv) == (0, "".join(f"{line}\n" for line in plain))
        assert run(tmp_path, *argv, "--timing") == (
            0, "".join(f"{line} elapsed_ms=1000\n" for line in plain))
        code, text = run(tmp_path, *argv, "--timing", "--mutate", "0:1")
        status, witness = text.splitlines()[:2]
        assert code == 1 and status.endswith("instances=2 elapsed_ms=1000")
        assert witness.startswith("         first witness: ")

    def test_r_range_filter(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify", "prop-poly", "--primes", "5", "--n-max", "1",
            "--degree-cap", "12", "--r-range", "1:2",
        )
        assert code == 0
        rs = [json.loads(line)["params"]["r"] for line in text.splitlines()]
        assert rs == [1, 2]


# the pinned verify-all grid and the digest of its reports
VERIFY_ALL = ["verify", "all", "--primes", "3,5,7", "--n-max", "3",
              "--degree-cap", "24"]
VERIFY_ALL_SHA256 = "85ff808fc431ce111b00fc730fa335ac96db55a45c78f6d87a64fb998536fad9"


@pytest.mark.parametrize("mutate, code", [([], 0), (["--mutate", "0:1"], 1)])
def test_thread_count_does_not_change_cli_output(mutate, code):
    # a subprocess, which writes to the real standard streams
    src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
    outputs = set()
    for threads in ([], ["--threads", "8"]):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclopadic.cli", *VERIFY_ALL, *mutate, *threads],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120,
        )
        assert proc.returncode == code and proc.stderr == b""
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    digest = hashlib.sha256(outputs.pop()).hexdigest()
    assert (digest == VERIFY_ALL_SHA256) == (not mutate)


def test_no_run_forks(tmp_path, monkeypatch):
    # every task runs in this process, with or without --threads, however
    # many CPUs the machine reports
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    out = tmp_path / "out.txt"
    for threads in ([], ["--threads", "3"]):
        assert main([*VERIFY_ALL, *threads, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ALL_SHA256


@pytest.mark.usefixtures("no_digit_limit")
def test_witness_past_4300_digits():
    # --mutate 0:1 adds 1 to each report's only instance, Gamma_5(5m + 1) + 1,
    # so every m is flagged with the difference Gamma_5(5m + 1) + 2; the
    # largest m have more than 4,300 digits
    proc = cli_process("verify", "gamma-congruence", "--primes", "5",
                       "--degree-cap", "2000", "--mutate", "0:1")
    assert (proc.returncode, proc.stderr) == (1, "")
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    ctx = PadicContext(5)
    assert [r["params"]["m"] for r in reports] == list(range(1, 401))
    for report in reports:
        m = report["params"]["m"]
        (violation,) = report["violations"]
        assert int(violation["difference"]) == ctx.morita_gamma(5 * m + 1) + 2
    assert len(reports[-1]["violations"][0]["difference"]) > 4300


def test_closed_stdout_ends_quietly():
    # the reader is gone before the first report is written
    src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclopadic.cli", "verify", "junod-lemma",
         "--primes", "3,5", "--trials", "50"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify", "all", "--primes", "3", "--n-max", "1", "--degree-cap", "3"],
    ["compute", "cycle-index", "20"],
], ids=["verify", "compute"])
def test_failed_write_is_a_usage_error(argv):
    # a full device, named by --out or as stdout: one error line, no traceback
    src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
    reason = os.strerror(errno.ENOSPC)
    for out, name in ((["--out", "/dev/full"], "/dev/full"), ([], "stdout")):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cyclopadic.cli", *argv, *out],
                env=dict(os.environ, PYTHONPATH=src), stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write {name}: {reason}\n")


class TestTrialsAsOneJob:
    """junod-lemma runs its trials as one job at every prime."""

    PRIMES = ["--primes", "3,5,7"]

    @pytest.mark.parametrize("trials, mutations", [
        (0, ["0:1"]),
        (1, ["0:1", "1:1"]),
        (7, ["0:1", "3:1", "6:1", "7:1"]),
        (1001, ["0:1", "333:1", "500:1", "667:1", "1000:1", "1001:1"]),
    ])
    def test_reports_do_not_depend_on_the_thread_count(
        self, tmp_path, trials, mutations
    ):
        # 0 and 1000 are the first and last of 1001 trials, 333, 500 and 667
        # lie between, and 1001 is past them
        for mutate in [None, *mutations]:
            argv = ["verify", "junod-lemma", *self.PRIMES, "--trials", str(trials),
                    "--seed", "3"] + (["--mutate", mutate] if mutate else [])
            outputs = {run(tmp_path, *argv, *threads)
                       for threads in ([], ["--threads", "3"])}
            assert len(outputs) == 1
            (code, text), = outputs
            reports = [json.loads(line) for line in text.splitlines()]
            assert [r["instances"] for r in reports] == [trials] * len(reports)
            index = int(mutate.split(":")[0]) if mutate else trials
            hit = [[v["instance"]["trial"] for v in r["violations"]] for r in reports]
            assert hit == [[index] if index < trials else []] * len(reports)
            assert code == int(index < trials)

    def test_failures_are_listed_in_trial_order(self, tmp_path, monkeypatch):
        # contexts that ask one more power of p than the lemma gives: no
        # binomial row vanishes, and each report lists exactly the trials
        # whose exact operands miss p^(e+1), in trial order
        class Stricter(PadicContext):
            def vp(self, x):
                return super().vp(x) + 1

        primes = (3, 5, 7)
        rng, expected = random.Random(0), {p: [] for p in primes}
        for trial in range(30):
            alpha_terms, gamma_terms, k, n = congruences._junod_draws(rng)
            alpha, gamma = MultiPoly(alpha_terms), MultiPoly(gamma_terms)
            for p in primes:
                beta = (alpha + p * k * gamma) ** n
                if congruence_witnesses(alpha**n, beta, p * k * n, Stricter(p)):
                    expected[p].append(trial)
        assert all(10 < len(trials) < 30 for trials in expected.values())
        monkeypatch.setattr(cli, "PadicContext", Stricter)
        code, text = run(tmp_path, "verify", "junod-lemma", *self.PRIMES,
                         "--trials", "30")
        assert code == 1
        for p, line in zip(primes, text.splitlines()):
            report = json.loads(line)
            assert report["params"]["p"] == p
            flagged = [v["instance"]["trial"] for v in report["violations"]]
            assert flagged == expected[p]

    def test_every_prime_shares_one_job(self):
        argv = ["all", "--primes", "3,5,7", "--n-max", "1", "--degree-cap", "6",
                "--trials", "10"]
        jobs = build_all_tasks(verify_spec(argv))
        tasks = {key for keys, _ in jobs for key in keys}
        assert len(jobs) == len(tasks) - 2
        (keys, thunk), = [job for job in jobs if job[0][0][0] == "junod-lemma"]
        assert keys == [("junod-lemma", p, 0, 0) for p in (3, 5, 7)]
        assert thunk.args[:2] == (10, 0)

    def test_every_trial_is_mutated(self):
        # the index of each trial is one violation per prime that names the
        # trial, and a delta of its modulus m*n is none
        argv = ["junod-lemma", "--primes", "3,5", "--trials", "20"]

        def reports(mutate):
            spec = verify_spec([*argv, "--mutate", mutate])
            jobs = build_all_tasks(spec)
            assert len(jobs) == 1
            out = io.StringIO()
            cli.run_verify(spec, jobs, out)
            return [json.loads(line) for line in out.getvalue().splitlines()]

        for trial in range(20):
            for i, report in enumerate(reports(f"{trial}:1")):
                (violation,) = report["violations"]
                assert violation["instance"]["trial"] == trial
                modulus = violation["required_modulus"]
                assert reports(f"{trial}:{modulus}")[i]["violations"] == []

    def test_residues_decide_at_the_trials_own_valuation(self):
        # a trial is decided mod q = p^e, e = vp(m*n) at each prime: a delta
        # of p^e holds there and a delta of p^(e-1) is flagged, so a q one
        # power too small or too large fails
        primes = (3, 5, 7)
        argv = ["junod-lemma", "--primes", "3,5,7", "--trials", "12", "--seed", "4"]

        def violations(mutate):
            spec = verify_spec([*argv, "--mutate", mutate])
            jobs = build_all_tasks(spec)
            assert len(jobs) == 1
            out = io.StringIO()
            cli.run_verify(spec, jobs, out)
            return [json.loads(line)["violations"] for line in out.getvalue().splitlines()]

        seen = set()
        for trial in range(12):
            for p, (violation,) in zip(primes, violations(f"{trial}:1")):
                e = violation["required_vp"]
                assert e >= 1 and violation["instance"]["trial"] == trial
                seen.add(e)
                at = primes.index(p)
                assert violations(f"{trial}:{p**e}")[at] == []
                (flagged,) = violations(f"{trial}:{p**(e - 1)}")[at]
                assert flagged["instance"]["trial"] == trial
                assert flagged["observed_vp"] == e - 1
        assert max(seen) >= 3

    def test_timing_gives_every_prime_the_jobs_time(self, tmp_path, monkeypatch):
        # every job takes one second, and junod-lemma's one job gives its
        # time to the report of every prime
        clock = iter(range(10**6))
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
        code, text = run(tmp_path, "verify", "all", "--primes", "3,5", "--n-max",
                         "1", "--degree-cap", "6", "--trials", "20", "--timing")
        assert code == 0
        elapsed = {(r["checker"], r["params"]["p"]): r["elapsed_ms"]
                   for r in map(json.loads, text.splitlines())}
        assert set(elapsed.values()) == {1000}
        assert ("junod-lemma", 5) in elapsed


SMALL_GRID = ["--primes", "3,5", "--n-max", "2", "--degree-cap", "16",
              "--trials", "10"]


@pytest.fixture(scope="module")
def all_small_grid(tmp_path_factory):
    code, text = run(tmp_path_factory.mktemp("all"), "verify", "all", *SMALL_GRID)
    assert code == 0
    return text.splitlines()


def test_cli_import_loads_no_code_generator():
    # a fresh interpreter, since pytest itself imports both modules
    src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
    probe = ("import sys; before = set(sys.modules); import cyclopadic.cli; "
             "print(sorted({'dataclasses', 'inspect', 'cyclopadic.series'}"
             " & set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_verify_spec_defaults():
    assert vars(verify_spec(["all"])) == dict(
        command="verify", checker="all", primes=[3, 5], n_max=4, r_range=None,
        degree_cap=24, seed=0, threads=None,
        format="json", out=None, allow_p2=False, timing=False, trials=500,
        mutate=None, mutation=None,
    )
    spec = verify_spec(["prop-coeff", "--primes", "7,3,7", "--r-range", "0:1",
                        "--mutate", "1:2", "--threads", "3"])
    assert (spec.primes, spec.r_range, spec.mutation, spec.threads) == (
        [3, 7], (0, 1), (1, 2), 3)


@pytest.mark.parametrize("argv, message", [
    (["--primes", "3,x"], "malformed --primes '3,x'"),
    (["--r-range", "1"], "malformed --r-range '1'"),
    # r = 0..1 used to run without a word
    (["--r-range=-3:1"], "--r-range must be >= 0, got '-3:1'"),
    (["--r-range", "1:-1"], "--r-range must be >= 0, got '1:-1'"),
])
def test_verify_spec_refuses(argv, message):
    with pytest.raises(UsageError) as info:
        verify_spec(["all", *argv])
    assert str(info.value) == message


# the rows that compare two polynomials, each through congruence_witnesses
POLYNOMIAL_ROWS = {"carlitz-poly", "corollary2", "meixner-qp", "meixner-qstar-q",
                   "prop-poly"}

# a prime over MAX_SCALAR_SIZE and a small n
LARGE_P = ["--primes", "1000003", "--n-max", "2"]


class TestCheckerTable:
    def test_rows_are_in_report_order(self):
        names = [row.name for row in CHECKER_TABLE]
        assert names == sorted(names) and len(set(names)) == len(names)

    @pytest.mark.parametrize("row", CHECKER_TABLE, ids=lambda row: row.name)
    def test_checker_gives_its_lines_of_all(self, tmp_path, all_small_grid, row):
        code, text = run(tmp_path, "verify", row.name, *SMALL_GRID)
        assert code == 0
        mine = [line for line in all_small_grid
                if json.loads(line)["checker"] == row.name]
        assert mine and text.splitlines() == mine

    @pytest.mark.parametrize("row", CHECKER_TABLE, ids=lambda row: row.name)
    def test_row_runs_where_fork_is_refused(self, tmp_path, monkeypatch,
                                            all_small_grid, row):
        # each row runs its tasks in this process, at --threads 3 on four
        # CPUs as at the default
        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        mine = [line for line in all_small_grid
                if json.loads(line)["checker"] == row.name]
        for threads in ([], ["--threads", "3"]):
            code, text = run(tmp_path, "verify", row.name, *SMALL_GRID, *threads)
            assert code == 0 and text.splitlines() == mine

    @pytest.mark.parametrize("row", CHECKER_TABLE, ids=lambda row: row.name)
    def test_zero_delta_keeps_the_clean_bytes(self, tmp_path, all_small_grid, row):
        # a delta of 0 is a multiple of every modulus: at the first, a middle
        # and the last instance index the output is the clean run's
        mine = [line for line in all_small_grid
                if json.loads(line)["checker"] == row.name]
        last = max(json.loads(line)["instances"] for line in mine) - 1
        for i in (0, last // 2, last):
            code, text = run(tmp_path, "verify", row.name, *SMALL_GRID,
                             "--mutate", f"{i}:0")
            assert (code, text) == (0, "".join(f"{line}\n" for line in mine))

    @pytest.mark.parametrize("row", CHECKER_TABLE, ids=lambda row: row.name)
    def test_every_polynomial_compare_is_one_routine(self, tmp_path, monkeypatch,
                                                     capsys, row):
        # with congruence_witnesses refusing, every polynomial row exits 3
        # with its traceback, and junod-lemma where --mutate builds a trial's
        # powers; the coefficient and scalar rows are unaffected
        def refuse(*args):
            raise RuntimeError("congruence_witnesses refused")

        argv = ["verify", row.name, *SMALL_GRID]
        for mutate in ([], ["--mutate", "0:1"]):
            expected = run(tmp_path, *argv, *mutate)
            capsys.readouterr()
            with monkeypatch.context() as patch:
                patch.setattr(congruences, "congruence_witnesses", refuse)
                code, text = run(tmp_path, *argv, *mutate)
            err = capsys.readouterr().err
            if row.name in POLYNOMIAL_ROWS or (row.name == "junod-lemma" and mutate):
                assert code == 3 and err.startswith("Traceback")
                assert err.endswith("RuntimeError: congruence_witnesses refused\n")
            else:
                assert (code, text, err) == (*expected, "")

    def test_p2_columns(self, tmp_path):
        code, text = run(tmp_path, "verify", "all", "--primes", "2,3", "--allow-p2",
                         "--n-max", "2", "--degree-cap", "12", "--trials", "10")
        assert code == 0
        marks = {}
        for line in text.splitlines():
            report = json.loads(line)
            key = (report["checker"], report["params"]["p"])
            marks.setdefault(key, set()).add(report.get("advisory", False))
        assert all(len(m) == 1 for m in marks.values())
        names = {row.name for row in CHECKER_TABLE}
        odd_only = {"corollary2", "gamma-congruence", "meixner-qp",
                    "meixner-qstar-q", "wilson-sharpness"}
        exempt = {"binomial-lift", "gamma-identity", "gamma-ratio", "junod-lemma"}
        assert {c for c, p in marks if p == 3} == names
        assert {c for c, p in marks if p == 2} == names - odd_only
        assert {c for (c, p), m in marks.items() if m == {True}} == (
            names - odd_only - exempt
        )

    def test_n_loop_stops_at_the_degree_cap(self, tmp_path):
        args = ["verify", "prop-poly", "--primes", "3", "--degree-cap", "12"]
        start = time.monotonic()
        huge = run(tmp_path, *args, "--n-max", "3000000")
        assert time.monotonic() - start < 1.0
        assert huge == run(tmp_path, *args, "--n-max", "4")
        # r + 3n <= 12: r = 0..2 for n = 1..3, and (n, r) = (4, 0)
        assert huge[0] == 0 and len(huge[1].splitlines()) == 10

    @pytest.mark.parametrize("checker, argv, N", [
        ("binomial-lift", ["--primes", "3,5", "--n-max", "1000000"], 5000000),
        # a large p at n <= 2: N = np, which the bound on n alone let through
        ("binomial-lift", LARGE_P, 2000006),
        ("gamma-identity", LARGE_P, 2000006),
        ("gamma-ratio", LARGE_P, 2000006),
        # r + p <= cap with r <= p - 1 at n = 1, m = 2 at cap // p
        ("remark1", [*LARGE_P, "--degree-cap", "2000006"], 2000005),
        ("gamma-congruence", [*LARGE_P, "--degree-cap", "2000006"], 2000006),
    ])
    def test_scalar_ceiling(self, tmp_path, capsys, checker, argv, N):
        start = time.monotonic()
        code, text = run(tmp_path, "verify", checker, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: {checker} reaches N = {N}, over the limit of {MAX_SCALAR_SIZE}\n"
        )

    @pytest.mark.parametrize("argv, field, top", [
        (["binomial-lift", "--primes", "3"], "n-max", MAX_SCALAR_SIZE // 3),
        # the largest p <= 7 grid that the bound n <= 1000 admitted
        (["binomial-lift", "--primes", "7"], "n-max", 1000),
        (["remark1", "--primes", "7", "--degree-cap", "10000"], "n-max", 1000),
        (["wilson-sharpness", "--primes", "3"], "n-max", MAX_SCALAR_SIZE // 9),  # N = 9j
        (["gamma-congruence", "--primes", "3"], "degree-cap",
         3 * (MAX_SCALAR_SIZE // 3) + 2),  # N = 3m, m <= cap // 3
    ])
    def test_scalar_ceiling_boundary(self, argv, field, top):
        spec = verify_spec([*argv, f"--{field}", str(top)])
        assert build_all_tasks(spec)
        setattr(spec, field.replace("-", "_"), top + 1)
        with pytest.raises(UsageError, match=f"over the limit of {MAX_SCALAR_SIZE}"):
            build_all_tasks(spec)

    def test_trials_are_not_bounded(self):
        spec = verify_spec(["junod-lemma", "--primes", "3",
                            "--trials", str(100 * MAX_SCALAR_SIZE)])
        assert len(build_all_tasks(spec)) == 1

    def test_meixner_degree_ceiling(self, tmp_path, capsys):
        start = time.monotonic()
        code, text = run(tmp_path, "verify", "corollary2", "--primes", "3",
                         "--n-max", "300", "--degree-cap", "900")
        assert time.monotonic() - start < 1.0
        assert code == 2 and text == ""
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: corollary2 reaches N = 900, over the limit of "
            f"{MAX_MEIXNER_DEGREE}\n"
        )

    @pytest.mark.parametrize("checker", ["corollary2", "meixner-qstar-q"])
    def test_meixner_degree_boundary(self, checker):
        top = MAX_MEIXNER_DEGREE // 5  # the largest n with 5n under the ceiling
        spec = verify_spec([checker, "--primes", "5", "--n-max", str(top),
                            "--degree-cap", str(10**6)])
        assert len(build_all_tasks(spec)) == top
        spec.n_max = top + 1
        with pytest.raises(UsageError, match=f"{checker} reaches N = {5 * top + 5}, "
                           f"over the limit of {MAX_MEIXNER_DEGREE}"):
            build_all_tasks(spec)

    def test_meixner_grid_where_p_divides_n(self, tmp_path):
        # reaches p = 11, n = 11 (degree 121) and p = 5, n = 25 (degree 125,
        # modulus 5^3), where the congruence is stronger than mod p
        code, text = run(tmp_path, "verify", "corollary2", "--primes", "5,11",
                         "--n-max", "25", "--degree-cap", "125")
        reports = [json.loads(line) for line in text.splitlines()]
        assert code == 0 and len(reports) == 36
        assert {(r["params"]["p"], r["params"]["n"]) for r in reports} >= {
            (5, 25), (11, 11)}

    def test_meixner_qp_is_sized_by_p(self):
        # it builds Q_p in one task at n = 0: the primes on either side of
        # the ceiling are admitted and refused
        below = max(p for p in range(2, MAX_MEIXNER_DEGREE + 1) if is_prime(p))
        above = next(p for p in range(MAX_MEIXNER_DEGREE + 1, 10**4) if is_prime(p))
        spec = verify_spec(["meixner-qp", "--primes", str(below)])
        assert len(build_all_tasks(spec)) == 1
        spec.primes = [above]
        with pytest.raises(UsageError, match=f"meixner-qp reaches N = {above},"):
            build_all_tasks(spec)
