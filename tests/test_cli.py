import errno
import hashlib
import io
import json
import math
import os
import pathlib
import resource
import signal
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
    WorkerTraceback,
    build_all_tasks,
    main,
    verify_spec,
)
from cyclopadic.padic import PadicContext, is_prime
from cyclopadic.reports import CongruenceReport

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture
def cpus(monkeypatch):
    """Ten CPUs, so that --threads K up to 10 forks K workers, however many
    CPUs run the tests (verify takes at most the CPU count)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 10)


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
        assert "p(120) = 1844349560" in err and str(MAX_CYCLE_INDEX_TERMS) in err

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
                         "9007199254740997", "--trials", "2", "--mutate", "0:1",
                         "--threads", "1")
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
        assert f"p({largest}) = " in err and str(MAX_CYCLE_INDEX_TERMS) in err

    def test_size_guard_boundary(self, tmp_path):
        # p(45) = 89,134 is admitted, p(46) = 105,558 is not
        code, text = run(tmp_path, "verify", "prop-coeff", "--primes", "5",
                         "--n-max", "9", "--degree-cap", "45")
        assert code == 0 and json.loads(text.splitlines()[-1])["params"]["n"] == 9
        code, _ = run(tmp_path, "verify", "prop-coeff", "--primes", "23",
                      "--n-max", "2", "--degree-cap", "46")
        assert code == 2

    @pytest.mark.usefixtures("cpus")
    def test_thread_count_does_not_change_output(self, tmp_path):
        args = [
            "verify", "all", "--primes", "3,5",
            "--n-max", "2", "--degree-cap", "14", "--trials", "10",
        ]
        for extra, expected in (([], 0), (["--mutate", "0:1"], 1)):
            outputs = set()
            for threads in ("1", "2", "4"):
                code, text = run(tmp_path, *args, *extra, "--threads", threads)
                assert code == expected
                outputs.add(text)
            assert len(outputs) == 1

    @pytest.mark.usefixtures("cpus")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_checker_error_propagates(self, tmp_path, capsys, monkeypatch, threads):
        def broken(*args):
            raise RuntimeError("injected checker fault")

        monkeypatch.setattr(congruences, "check_carlitz_coeff", broken)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--threads", threads, "--out", str(tmp_path / "out.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert err.endswith("RuntimeError: injected checker fault\n")
        assert_no_children()

    @pytest.mark.usefixtures("cpus")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_checker_value_error_is_not_a_usage_error(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        def broken(*args):
            raise ValueError("injected checker fault")

        monkeypatch.setattr(congruences, "check_carlitz_coeff", broken)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--threads", threads, "--out", str(tmp_path / "out.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.endswith("ValueError: injected checker fault\n")
        assert "error: " not in err

    @pytest.mark.usefixtures("cpus")
    def test_worker_death_names_the_task(self, tmp_path, capsys, monkeypatch):
        def dies(n, ctx, mutation):
            if n == 2:
                os._exit(3)
            return CongruenceReport("carlitz-coeff", {"n": n})

        monkeypatch.setattr(congruences, "check_carlitz_coeff", dies)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--threads", "2", "--out", str(tmp_path / "out.txt")])
        assert code == 3
        assert capsys.readouterr().err.endswith(
            "RuntimeError: the worker running task ('carlitz-coeff', 3, 2, 0) "
            "exited with status 3\n")
        assert_no_children()

    @pytest.mark.usefixtures("cpus")
    def test_worker_death_names_the_trial_slice(self, tmp_path, capsys, monkeypatch):
        trials = congruences.junod_lemma_trials

        def dies(start, stop, *args):
            if start:
                os._exit(3)
            return trials(start, stop, *args)

        monkeypatch.setattr(congruences, "junod_lemma_trials", dies)
        code = main(["verify", "junod-lemma", "--primes", "3,5", "--trials", "8",
                     "--threads", "2", "--out", str(tmp_path / "out.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "RuntimeError: the worker running task ('junod-lemma', 'trials " in err
        assert err.endswith("exited with status 3\n")
        assert_no_children()

    @pytest.mark.usefixtures("cpus")
    def test_worker_traceback_is_the_cause(self, tmp_path, capsys, monkeypatch):
        def broken_in_worker(*args):
            raise ValueError("injected checker fault")

        monkeypatch.setattr(congruences, "check_carlitz_coeff", broken_in_worker)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--threads", "2", "--out", str(tmp_path / "out.txt")])
        assert code == 3
        # the worker's traceback is printed as the cause of the exception
        cause, _, effect = capsys.readouterr().err.partition(
            "The above exception was the direct cause of the following exception")
        assert cause.startswith(f"{WorkerTraceback.__module__}.WorkerTraceback: "
                                "Traceback (most recent call last)")
        assert "broken_in_worker" in cause
        assert effect.endswith("ValueError: injected checker fault\n")
        assert_no_children()

    @pytest.mark.usefixtures("cpus")
    def test_unpicklable_checker_error(self, tmp_path, capsys, monkeypatch):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        def broken_in_worker(*args):
            raise LocalError("injected checker fault")

        monkeypatch.setattr(congruences, "check_carlitz_coeff", broken_in_worker)
        code = main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                     "--threads", "2", "--out", str(tmp_path / "out.txt")])
        assert code == 3
        text = capsys.readouterr().err
        assert "RuntimeError: task ('carlitz-coeff', 3, " in text
        assert "cannot be sent" in text
        assert "LocalError: injected checker fault" in text
        assert_no_children()

    @pytest.mark.usefixtures("cpus")
    def test_interrupt_terminates_busy_workers(self, tmp_path, monkeypatch):
        def interrupts(n, ctx, mutation):
            # n = 2 is handed out first, so the interrupt may come while
            # the second worker is being forked
            if n == 2:
                os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)

        monkeypatch.setattr(congruences, "check_carlitz_coeff", interrupts)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "carlitz-coeff", "--primes", "3", "--n-max", "2",
                  "--threads", "2", "--out", str(tmp_path / "out.txt")])
        assert time.monotonic() - start < 30
        assert_no_children()

    @pytest.mark.usefixtures("cpus")
    def test_report_larger_than_a_pipe_buffer(self, tmp_path, monkeypatch):
        def many_violations(n, ctx, mutation):
            report = CongruenceReport("carlitz-coeff", {"p": ctx.p, "n": n})
            for k in range(20_000):
                report.add_violation({"k": k}, k * ctx.p, n * ctx.p, ctx, 1)
            return report

        monkeypatch.setattr(congruences, "check_carlitz_coeff", many_violations)
        outputs = []
        for threads in ("1", "2"):
            code, text = run(tmp_path, "verify", "carlitz-coeff", "--primes", "3,5",
                             "--n-max", "2", "--threads", threads)
            assert code == 1
            outputs.append(text)
        assert outputs[0] == outputs[1] and len(outputs[0]) > 4 * 65536
        assert all(len(json.loads(line)["violations"]) == 20_000
                   for line in outputs[0].splitlines())
        assert_no_children()

    @pytest.mark.parametrize("checker, forks", [
        ("carlitz-coeff", False), ("prop-coeff", False),
        ("corollary1", True), ("all", True),
    ])
    def test_default_threads_fork_only_where_it_pays(
        self, tmp_path, monkeypatch, checker, forks
    ):
        pids = set()

        def records_pid(check):
            def checked(n, ctx, mutation):
                pids.add(os.getpid())
                return check(n, ctx, mutation)
            return checked

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for name in ("check_carlitz_coeff", "check_prop_coeff"):
            monkeypatch.setattr(congruences, name,
                                records_pid(getattr(congruences, name)))
        assert cli._default_threads(checker) == (2 if forks else 1)
        if not forks:
            code, text = run(tmp_path, "verify", checker, "--primes", "3,5",
                             "--n-max", "3")
            assert code == 0 and len(text.splitlines()) == 6
            assert pids == {os.getpid()}
            assert_no_children()

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

    def test_r_range_filter(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify", "prop-poly", "--primes", "5", "--n-max", "1",
            "--degree-cap", "12", "--r-range", "1:2",
        )
        assert code == 0
        rs = [json.loads(line)["params"]["r"] for line in text.splitlines()]
        assert rs == [1, 2]


def assert_no_children():
    """No worker process outlives the sweep that forked it."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the pinned verify-all grid and the digest of its reports
VERIFY_ALL = ["verify", "all", "--primes", "3,5,7", "--n-max", "3",
              "--degree-cap", "24"]
VERIFY_ALL_SHA256 = "85ff808fc431ce111b00fc730fa335ac96db55a45c78f6d87a64fb998536fad9"


@pytest.mark.parametrize("mutate, code", [([], 0), (["--mutate", "0:1"], 1)])
def test_thread_count_does_not_change_cli_output(mutate, code):
    # a subprocess, so that the workers inherit the real standard streams
    src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
    outputs = set()
    for threads in ("1", "2", "3", "8"):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclopadic.cli", *VERIFY_ALL, *mutate,
             "--threads", threads],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120,
        )
        assert proc.returncode == code and proc.stderr == b""
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    digest = hashlib.sha256(outputs.pop()).hexdigest()
    assert (digest == VERIFY_ALL_SHA256) == (not mutate)


@pytest.mark.usefixtures("cpus")
def test_three_workers_give_the_pinned_digest(tmp_path, monkeypatch):
    # in-process, so that the cpus fixture lets --threads 3 fork 3 workers on
    # any machine, and junod-lemma is cut into 3 slices
    seen = {}
    build, forked = cli.build_all_tasks, cli._run_forked

    def spy_build(spec):
        seen["jobs"] = build(spec)
        return seen["jobs"]

    def spy_forked(jobs, labels, workers):
        seen["workers"] = workers
        return forked(jobs, labels, workers)

    monkeypatch.setattr(cli, "build_all_tasks", spy_build)
    monkeypatch.setattr(cli, "_run_forked", spy_forked)
    out = tmp_path / "out.txt"
    assert main([*VERIFY_ALL, "--threads", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ALL_SHA256
    slices = [label for label, _, _ in seen["jobs"] if label[0] == "junod-lemma"]
    assert seen["workers"] == 3 and len(slices) == 3
    assert_no_children()


@pytest.mark.usefixtures("no_digit_limit")
def test_witness_past_4300_digits():
    # --mutate 0:1 adds 1 to each report's only instance, Gamma_5(5m + 1) + 1,
    # so every m is flagged with the difference Gamma_5(5m + 1) + 2; the
    # largest m have more than 4,300 digits
    proc = cli_process("verify", "gamma-congruence", "--primes", "5",
                       "--degree-cap", "2000", "--mutate", "0:1", "--threads", "1")
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
    for threads in ("1", "2"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclopadic.cli", "verify", "junod-lemma",
             "--primes", "3,5", "--trials", "50", "--threads", threads],
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


@pytest.mark.usefixtures("cpus")
class TestTrialSlices:
    """junod-lemma runs as trial slices, each at every prime, one per worker."""

    PRIMES = ["--primes", "3,5,7"]

    @pytest.mark.parametrize("trials, mutations", [
        (0, ["0:1"]),
        (1, ["0:1", "1:1"]),
        (7, ["0:1", "3:1", "6:1", "7:1"]),
        (1001, ["0:1", "333:1", "500:1", "667:1", "1000:1", "1001:1"]),
    ])
    def test_reports_do_not_depend_on_the_thread_count(
        self, tmp_path, monkeypatch, trials, mutations
    ):
        # at 1001 trials every exponent n is 1, to keep the test short; the
        # draws are those of the seed. 500 opens the second slice at 2
        # workers, 333 and 667 the second and third at 3, and 1000 is the
        # last trial
        if trials > 100:
            draws = congruences._junod_draws

            def first_powers(rng):
                alpha, gamma, k, _ = draws(rng)
                return alpha, gamma, k, 1

            monkeypatch.setattr(congruences, "_junod_draws", first_powers)
        for mutate in [None, *mutations]:
            argv = ["verify", "junod-lemma", *self.PRIMES, "--trials", str(trials),
                    "--seed", "3"] + (["--mutate", mutate] if mutate else [])
            outputs = set()
            for threads in ("1", "2", "3"):
                code, text = run(tmp_path, *argv, "--threads", threads)
                outputs.add((code, text))
            assert len(outputs) == 1
            assert_no_children()
            (code, text), = outputs
            reports = [json.loads(line) for line in text.splitlines()]
            assert [r["instances"] for r in reports] == [trials] * len(reports)
            index = int(mutate.split(":")[0]) if mutate else trials
            hit = [[v["instance"]["trial"] for v in r["violations"]] for r in reports]
            assert hit == [[index] if index < trials else []] * len(reports)
            assert code == int(index < trials)

    def test_slices_join_in_trial_order(self, tmp_path, monkeypatch):
        # a lemma that fails at every trial: each report lists every trial,
        # in order, however many slices ran it and in whatever order they ended.
        # Every trial is named by a mutation of delta 1, which no q_p divides,
        # so none takes the combined compare and each fails at every prime
        count = CongruenceReport.count
        monkeypatch.setattr(CongruenceReport, "count",
                            lambda report, k: count(report, k) or (0, 1))
        outputs = set()
        for threads in ("1", "2", "3"):
            code, text = run(tmp_path, "verify", "junod-lemma", *self.PRIMES,
                             "--trials", "30", "--threads", threads)
            assert code == 1
            for line in text.splitlines():
                violations = json.loads(line)["violations"]
                assert [v["instance"]["trial"] for v in violations] == list(range(30))
            outputs.add(text)
        assert len(outputs) == 1
        assert_no_children()

    def test_slices_of_every_prime_share_the_jobs(self, monkeypatch):
        # one slice per worker when the run forks, one where it cannot
        argv = ["all", "--primes", "3,5,7", "--n-max", "1", "--degree-cap", "6",
                "--trials", "10", "--threads"]
        shared = [("junod-lemma", p, 0, 0) for p in (3, 5, 7)]
        for threads, count in (("1", 1), ("2", 2), ("3", 3), ("10", 10)):
            jobs = build_all_tasks(verify_spec([*argv, threads]))
            tasks = {key for _, keys, _ in jobs for key in keys}
            assert len(jobs) == len(tasks) - 3 + count
            labels = [label for label, _, _ in jobs]
            sliced = labels[len(jobs) - count:]  # handed out first
            assert sliced[0] == ("junod-lemma", "trials 0..%d" % (10 // count - 1))
            assert all(label[0] == "junod-lemma" for label in sliced)
            assert "junod-lemma" not in {label[0] for label in labels[:-count]}
            assert all(keys == shared for _, keys, _ in jobs[-count:])
        monkeypatch.delattr(os, "fork")
        spec = verify_spec([*argv, "3"])
        assert spec.threads == 1
        assert [label for label, _, _ in build_all_tasks(spec)
                if label[0] == "junod-lemma"] == [("junod-lemma", "trials 0..9")]

    @pytest.mark.parametrize("threads, slices", [("1", 1), ("3", 3)])
    def test_every_trial_is_mutated_in_its_slice(self, monkeypatch, threads,
                                                 slices):
        # the whole-run index of each trial, in whichever slice holds it, is
        # one violation per prime that names the trial, and a delta of its
        # modulus m*n is none; the slices run in-process, joined by run_verify
        monkeypatch.setattr(cli, "_run_forked",
                            lambda runs, labels, workers: [run() for run in runs])
        argv = ["junod-lemma", "--primes", "3,5", "--trials", "20",
                "--threads", threads]

        def reports(mutate):
            spec = verify_spec([*argv, "--mutate", mutate])
            jobs = build_all_tasks(spec)
            assert len(jobs) == slices
            out = io.StringIO()
            cli.run_verify(spec, jobs, out)
            return [json.loads(line) for line in out.getvalue().splitlines()]

        for trial in range(20):
            for i, report in enumerate(reports(f"{trial}:1")):
                (violation,) = report["violations"]
                assert violation["instance"]["trial"] == trial
                modulus = violation["required_modulus"]
                assert reports(f"{trial}:{modulus}")[i]["violations"] == []

    @pytest.mark.parametrize("threads, slices", [("1", 1), ("3", 3)])
    def test_residues_decide_at_the_trials_own_valuation(self, monkeypatch,
                                                         threads, slices):
        # a trial is decided mod q = p^e, e = vp(m*n) at each prime: a delta
        # of p^e holds there and a delta of p^(e-1) is flagged, so a q one
        # power too small or too large fails; the slices run in-process
        monkeypatch.setattr(cli, "_run_forked",
                            lambda runs, labels, workers: [run() for run in runs])
        primes = (3, 5, 7)
        argv = ["junod-lemma", "--primes", "3,5,7", "--trials", "12", "--seed",
                "4", "--threads", threads]

        def violations(mutate):
            spec = verify_spec([*argv, "--mutate", mutate])
            jobs = build_all_tasks(spec)
            assert len(jobs) == slices
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

    def test_timing_sums_the_slices(self, tmp_path, monkeypatch):
        # every job takes one second, so a report takes one per slice
        clock = iter(range(10**6))
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
        for threads, slices in (("1", 1), ("2", 2), ("3", 3)):
            code, text = run(tmp_path, "verify", "all", "--primes", "3,5",
                             "--n-max", "1", "--degree-cap", "6", "--trials", "20",
                             "--timing", "--threads", threads)
            assert code == 0
            elapsed = {(r["checker"], r["params"]["p"]): r["elapsed_ms"]
                       for r in map(json.loads, text.splitlines())}
            for (checker, _), ms in elapsed.items():
                assert ms == (slices if checker == "junod-lemma" else 1) * 1000
        assert_no_children()


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


@pytest.mark.usefixtures("cpus")
def test_verify_spec_defaults():
    assert vars(verify_spec(["all"])) == dict(
        command="verify", checker="all", primes=[3, 5], n_max=4, r_range=None,
        degree_cap=24, seed=0, threads=cli._default_threads("all"),
        format="json", out=None, allow_p2=False, timing=False, trials=500,
        mutate=None, mutation=None,
    )
    spec = verify_spec(["prop-coeff", "--primes", "7,3,7", "--r-range", "0:1",
                        "--mutate", "1:2", "--threads", "3"])
    assert (spec.primes, spec.r_range, spec.mutation, spec.threads) == (
        [3, 7], (0, 1), (1, 2), 3)
    assert verify_spec(["prop-coeff"]).threads == 1
    # --threads 0 is the default
    assert verify_spec(["all", "--threads", "0"]).threads == cli._default_threads("all")
    assert verify_spec(["prop-coeff", "--threads", "0"]).threads == 1


def test_threads_are_capped_at_the_cpu_count(monkeypatch):
    # more workers than CPUs only take turns; junod-lemma's slices follow
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["junod-lemma", "--primes", "3", "--trials", "20", "--threads"]
    for threads in ("2", "16"):
        spec = verify_spec([*argv, threads])
        assert spec.threads == 2 and len(build_all_tasks(spec)) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify_spec([*argv, "16"]).threads == 1


@pytest.mark.parametrize("argv, message", [
    (["--primes", "3,x"], "malformed --primes '3,x'"),
    (["--r-range", "1"], "malformed --r-range '1'"),
])
def test_verify_spec_refuses(argv, message):
    with pytest.raises(UsageError) as info:
        verify_spec(["all", *argv])
    assert str(info.value) == message


def test_threads_help_names_the_in_process_rows(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    names = " and ".join(row.name for row in CHECKER_TABLE if not row.forks)
    assert (f"(0 or unset: the CPU count; 1 for {names})"
            in " ".join(capsys.readouterr().out.split()))


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
        args = ["verify", "prop-poly", "--primes", "3", "--degree-cap", "12",
                "--threads", "1"]
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
                            "--trials", str(100 * MAX_SCALAR_SIZE), "--threads", "1"])
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
                         "--n-max", "25", "--degree-cap", "125", "--threads", "1")
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
