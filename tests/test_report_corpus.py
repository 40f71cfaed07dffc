"""Committed CLI report corpus.

Each case file ``tests/report_corpus/<name>.json`` holds the exit code, the
stderr and the ``report`` subtree written by the command line ``CASES[name]``.
The test reruns every case in-process and compares all of it exactly: keys,
integers, bools, strings and floats.  The floats were written on the machine
the corpus was generated on (x86-64, numpy 2.4 with OpenBLAS); another BLAS or
CPU may round differently.  A change that means to alter report bytes
regenerates the corpus with

    PYTHONPATH=src python tests/test_report_corpus.py

and lists every changed value.  The inputs the commands read (the Q8 group
file, the bundle specs) live in ``tests/report_corpus/inputs/`` and are copied
into the working directory each command runs in, so paths in the reports are
relative.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from wignerlab.cli import main

CORPUS = Path(__file__).resolve().parent / "report_corpus"
INPUTS = CORPUS / "inputs"

CASES = {
    "verify_batch": ["wigner-verify", "--count", "40", "--seed", "2026"],
    "verify_q8_d4": ["wigner-verify", "--group", "q8", "--dim", "4", "--count", "40"],
    "verify_z5": ["wigner-verify", "--group", "zn:5", "--count", "40"],
    "state_su2": ["invariant-state", "--group", "su2"],
    "state_su2_d8": ["invariant-state", "--group", "su2", "--dim", "8"],
    "state_su2_montecarlo": ["invariant-state", "--group", "su2", "--method", "montecarlo",
                             "--count", "64"],
    "state_su3": ["invariant-state", "--group", "su3"],
    "state_su3_d6_montecarlo": ["invariant-state", "--group", "su3", "--dim", "6",
                                "--method", "montecarlo"],
    "state_u1": ["invariant-state", "--group", "u1"],
    "state_z5": ["invariant-state", "--group", "zn:5"],
    "state_z5_cesaro": ["invariant-state", "--group", "zn:5", "--method", "cesaro"],
    "state_q8_d5": ["invariant-state", "--group", "q8", "--dim", "5"],
    "state_q8_file": ["invariant-state", "--group", "file:q8.json"],
    "crossed_z4": ["crossed", "--group", "zn:4"],
    "crossed_q8": ["crossed", "--group", "q8", "--dim", "2"],
    "crossed_q8_file": ["crossed", "--group", "file:q8.json"],
    "crossed_z2_trivial_tensor2": ["crossed", "--group", "zn:2", "--dim", "2",
                                   "--action", "trivial", "--tensor-factors", "2"],
    "crossed_z5_d4_tensor2_over_cap": ["crossed", "--group", "zn:5", "--dim", "4",
                                       "--tensor-factors", "2"],
    "bundle_su2": ["bundle", "--config", "bundle_su2.json", "--seed", "17"],
    "bundle_q8": ["bundle", "--config", "bundle_q8.json", "--seed", "3"],
    "entropy_json": ["entropy", "--max-n", "64", "--format", "json"],
}

# Cases that stop with an error before writing a report, on purpose.
NO_REPORT = {"crossed_z5_d4_tensor2_over_cap"}


def run_case(argv, workdir: Path) -> dict:
    """Run one command in ``workdir``, with the corpus inputs copied there, and
    return its exit code, stderr and report subtree (None when it wrote none)."""
    for path in INPUTS.iterdir():
        shutil.copy(path, workdir / path.name)
    out = workdir / "out.json"
    with contextlib.chdir(workdir), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text())["report"] if out.exists() else None
    return {"exit": code, "stderr": err.getvalue(), "report": report}


def canonical(case: dict) -> str:
    return json.dumps(case, indent=1, sort_keys=True) + "\n"


def test_corpus_holds_exactly_the_cases():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name, tmp_path):
    expected = json.loads((CORPUS / f"{name}.json").read_text())
    assert (expected["report"] is None) == (name in NO_REPORT), expected["stderr"]
    assert canonical(run_case(CASES[name], tmp_path)) == canonical(expected)


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            case = run_case(argv, Path(tmp))
        (CORPUS / f"{name}.json").write_text(canonical(case))
        print(f"{name}: exit {case['exit']}")
