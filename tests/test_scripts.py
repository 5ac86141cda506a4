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
