import json
import subprocess
import sys

import helpers

SCRIPTS = helpers.SRC.parent / "scripts"


def test_curve_survey_runs_on_small_fields():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "curve_survey.py"),
                           "-q", "2", "3"],
                          capture_output=True, text=True,
                          env=helpers.src_first_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # q^5 - q^4 nonsingular tuples: the discriminant vanishes on a 1/q share
    assert "F_2: 16 nonsingular curves out of 32 coefficient tuples" in lines
    assert "F_3: 162 nonsingular curves out of 243 coefficient tuples" in lines


def test_fiber_explorer_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "fiber_explorer.py"),
                           "-q", "2", "-b", "2"],
                          capture_output=True, text=True,
                          env=helpers.src_first_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "modulus t, degree bound 2" in proc.stdout.splitlines()


def test_quotient_graphs_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "quotient_graphs.py")],
                          capture_output=True, text=True,
                          env=helpers.src_first_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "  isolated cyclic stabilizers: v(1), v(0)" in proc.stdout.splitlines()


def _short_benchmark_run(workload):
    root = helpers.SRC.parent
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           "--workload", workload, "--seed", "1",
                           "--seconds", "0.2", "--trace", "0"],
                          capture_output=True, text=True, cwd=root,
                          env=helpers.src_first_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_cusp_benchmark_runs_against_the_library():
    # the benchmark drives cosets through its public names; a rename breaks
    # this short run before a full one
    _short_benchmark_run("cusp")


def test_normal_form_benchmark_runs_against_the_library():
    # the same for words: build_ex1cusp, word_reduce, compose_autos,
    # PartialConj, ComposedAuto.apply and the matrix factor's kind.ring
    _short_benchmark_run("normal_form")


def test_cli_benchmark_runs_against_the_library():
    # every subcommand in a fresh process, checked by the workload's oracles
    _short_benchmark_run("cli")


def test_curves_benchmark_runs_against_the_library():
    # points, class data and group structure over the prime, characteristic-2
    # and odd extension fields the workload builds (F_9 up to F_125)
    _short_benchmark_run("curves")
