"""Committed CLI report corpus.

Each case file ``tests/report_corpus/<name>.json`` holds the exit code, the
stderr and the ``report`` subtree written by the command line ``CASES[name]``.
The test reruns every case in-process and compares all of it exactly: keys,
integers, bools, strings and floats.  The floats were written on the machine
the corpus was generated on (x86-64, numpy 2.4 with OpenBLAS); another BLAS or
CPU may round differently.  A change that means to alter report bytes
regenerates the corpus with

    PYTHONPATH=src python tests/test_report_corpus.py

which prints, per case, every JSON path whose value it changes (old -> new);
the change lists them.  Each case that writes a report is also replayed
from the report's own "config" alone and must give the same exit code,
stderr and report.  The inputs the commands read (the Q8 group
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
    "verify_u1": ["wigner-verify", "--group", "u1", "--dim", "3", "--count", "8"],
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
    "crossed_z2_trivial_tensor3": ["crossed", "--group", "zn:2", "--dim", "2",
                                   "--action", "trivial", "--tensor-factors", "3"],
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


ABSENT = "<absent>"


def changed_paths(old, new, path="$"):
    """(path, old, new) for every JSON value that differs between old and
    new, descending into objects and into arrays of the same length."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from changed_paths(old.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changed_paths(a, b, f"{path}[{i}]")
    elif canonical(old) != canonical(new):
        yield path, old, new


def test_corpus_holds_exactly_the_cases():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name, tmp_path):
    expected = json.loads((CORPUS / f"{name}.json").read_text())
    assert (expected["report"] is None) == (name in NO_REPORT), expected["stderr"]
    assert canonical(run_case(CASES[name], tmp_path)) == canonical(expected)


@pytest.mark.parametrize("name", sorted(set(CASES) - NO_REPORT))
def test_report_config_replays_the_case(name, tmp_path):
    expected = json.loads((CORPUS / f"{name}.json").read_text())
    (tmp_path / "replay.json").write_text(json.dumps(expected["report"]["config"]))
    replay = run_case([CASES[name][0], "--config", "replay.json"], tmp_path)
    assert canonical(replay) == canonical(expected)


def test_changed_paths_names_each_changed_value():
    old = {"a": 1, "b": [1.0, 2.0], "c": {"d": None}, "e": [1]}
    new = {"a": 1, "b": [1.0, 2.5], "c": {"d": None, "f": "x"}, "e": [1, 2]}
    assert list(changed_paths(old, new)) == [
        ("$.b[1]", 2.0, 2.5), ("$.c.f", ABSENT, "x"), ("$.e", [1], [1, 2])]


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            case = run_case(argv, Path(tmp))
        path = CORPUS / f"{name}.json"
        old = json.loads(path.read_text()) if path.exists() else ABSENT
        path.write_text(canonical(case))
        print(f"{name}: exit {case['exit']}")
        for where, a, b in changed_paths(old, case):
            print(f"  {where}: {json.dumps(a)} -> {json.dumps(b)}")
