"""Golden outputs: every slice of tests/golden/regen.py (`bendflow
simulate` on a short acceptance-cone run and its resumption from the
checkpoint, `rearrange` of its final profile, `specialfn eval` of the six
functions, and the fingerprints of `run_flow` on the ladder and on random
draws), regenerated and compared with the files under tests/golden/.

Bits depend on the numpy and scipy builds. Where the Python, numpy and
scipy versions equal the ones recorded with the golden files, every file
must match byte for byte: every iterate hash and Newton total of the
fingerprints too. Everywhere, the files must have the same names, CSV
headers, row counts and integer columns, and every other number must
agree to 1e-12 relative: relative to the larger of the two values, or to
the largest magnitude of its column in a CSV file. The fingerprints are
compared there by their cases, each case's outcome (success, or failure
type and step), and final energy and sup norm to 1e-9 relative: a flow
step is fixed only to its solver tolerance, so another build may take an
equally certified Newton path. Neither comparison is ever skipped.
"""

import csv
import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12
REL_FLOW = 1e-9
INT_COLUMNS = {"step", "coincidence_count", "inner_iters"}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _close(a: float, b: float, scale: float = 0.0, rel: float = REL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _csv_differences(name: str, want: str, got: str) -> list[str]:
    want_rows = list(csv.reader(want.splitlines()))
    got_rows = list(csv.reader(got.splitlines()))
    if want_rows[:1] != got_rows[:1]:
        return [f"{name}: header {got_rows[:1]} != {want_rows[:1]}"]
    if len(want_rows) != len(got_rows):
        return [f"{name}: {len(got_rows)} rows != {len(want_rows)}"]
    header, body = want_rows[0], want_rows[1:]
    out = []
    for j, col in enumerate(header):
        if col in INT_COLUMNS:
            bad = [i for i, (a, b) in enumerate(zip(body, got_rows[1:]))
                   if a[j] != b[j]]
        else:
            scale = max(abs(float(row[j])) for row in body
                        if abs(float(row[j])) != float("inf"))
            bad = [i for i, (a, b) in enumerate(zip(body, got_rows[1:]))
                   if not _close(float(a[j]), float(b[j]), scale)]
        if bad:
            out.append(f"{name}: column {col} differs in data rows {bad[:5]}")
    return out


def _json_differences(where: str, want, got) -> list[str]:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if _close(want, float(got)) else [f"{where}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{where}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want
                for d in _json_differences(f"{where}.{k}", want[k], got[k])]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in _json_differences(f"{where}[{i}]", a, b)]
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]


def _text_differences(name: str, want: str, got: str) -> list[str]:
    """Same text between the numbers, and numbers within REL."""
    if _NUMBER.split(want) != _NUMBER.split(got):
        return [f"{name}: text outside the numbers differs"]
    pairs = zip(_NUMBER.findall(want), _NUMBER.findall(got))
    if all(_close(float(a), float(b)) for a, b in pairs):
        return []
    return [f"{name}: numbers differ beyond {REL:g} relative"]


def _fingerprint_differences(want: dict, got: dict) -> list[str]:
    """The same cases, outcomes, and final energies and sup norms to
    REL_FLOW; hashes, Newton totals and messages are left to the bytes."""
    if list(want) != list(got):
        return [f"fingerprints: cases {list(got)} != {list(want)}"]
    out = []
    for name, w in want.items():
        g = got[name]
        outcome = [(c.get("failure"), c.get("step")) for c in (w, g)]
        if outcome[0] != outcome[1]:
            out.append(f"{name}: outcome {outcome[1]} != {outcome[0]}")
        elif "failure" not in w:
            out += [f"{name}: {k} {g[k]!r} != {w[k]!r}"
                    for k in ("final_energy", "sup_norm")
                    if not _close(w[k], g[k], rel=REL_FLOW)]
    return out


def structural_differences(want_dir: Path, got_dir: Path) -> list[str]:
    """Everything but the recorded environment, compared to REL."""
    names = sorted(p.name for p in want_dir.iterdir())
    got_names = sorted(p.name for p in got_dir.iterdir())
    if names != got_names:
        return [f"files {got_names} != {names}"]
    out = []
    for name in names:
        if name == regen.ENV_FILE:
            continue
        want = (want_dir / name).read_text()
        got = (got_dir / name).read_text()
        if name == f"{regen.FINGERPRINTS}.json":
            out += _fingerprint_differences(json.loads(want), json.loads(got))
        elif name.endswith(".csv"):
            out += _csv_differences(name, want, got)
        elif name.endswith(".json"):
            out += _json_differences(name, json.loads(want), json.loads(got))
        else:
            out += _text_differences(name, want, got)
    return out


@pytest.mark.parametrize("name", [*regen.SLICES, regen.FINGERPRINTS])
def test_slice_matches_golden(tmp_path, name):
    want_dir = GOLDEN / name
    got_dir = tmp_path / name
    regen.generate(name, got_dir)
    assert structural_differences(want_dir, got_dir) == []
    recorded = json.loads((want_dir / regen.ENV_FILE).read_text())
    if recorded == regen.environment():
        changed = [p.name for p in sorted(want_dir.iterdir())
                   if p.read_bytes() != (got_dir / p.name).read_bytes()]
        assert changed == []


def test_structural_comparison_catches_changes(tmp_path):
    """The comparison used away from the recorded environment accepts a
    change far below REL and rejects a float beyond it, a changed integer
    column, a missing row and a missing file."""
    want_dir = GOLDEN / "cone_short"

    def edited(label, name, edit):
        got_dir = tmp_path / label
        shutil.copytree(want_dir, got_dir)
        path = got_dir / name
        if edit is None:
            path.unlink()
        else:
            path.write_text(edit(path.read_text()))
        return structural_differences(want_dir, got_dir)

    def edit_cell(column, change):
        def edit(text):
            rows = list(csv.reader(text.splitlines()))
            j = rows[0].index(column)
            rows[50][j] = change(rows[50][j])
            return "\n".join(",".join(r) for r in rows) + "\n"
        return edit

    def scale_energy(factor):
        return edit_cell("energy", lambda x: repr(float(x) * factor))

    assert edited("same", "trajectory.csv", lambda t: t) == []
    assert edited("tiny", "trajectory.csv", scale_energy(1 + 1e-15)) == []
    assert edited("float", "trajectory.csv", scale_energy(1 + 1e-10))
    assert edited("int", "trajectory.csv",
                  edit_cell("inner_iters", lambda x: str(int(x) + 1)))
    assert edited("row", "final.csv", lambda t: t.rsplit("\n", 2)[0] + "\n")
    assert edited("json", "summary.json",
                  lambda t: t.replace('"touched_at_step": 7', '"touched_at_step": 8'))
    assert edited("svg", "profiles.svg", lambda t: t.replace("70.00", "70.01", 1))
    assert edited("file", "final.csv", None)


def test_fingerprint_comparison_catches_changes():
    """Away from the recorded environment the fingerprints pass a change
    below REL_FLOW, and fail a float beyond it, a changed outcome and a
    missing case."""
    want = json.loads((GOLDEN / regen.FINGERPRINTS
                       / f"{regen.FINGERPRINTS}.json").read_text())
    ok = next(k for k, c in want.items() if "failure" not in c)
    failed = next(k for k, c in want.items() if "failure" in c)

    def edited(name, **change):
        return _fingerprint_differences(want, {**want, name: {**want[name], **change}})

    energy = want[ok]["final_energy"]
    assert edited(ok, sha256="0" * 64, newton=0) == []
    assert edited(ok, final_energy=energy * (1 + 1e-12)) == []
    assert edited(ok, final_energy=energy * (1 + 1e-8))
    assert edited(failed, step=want[failed]["step"] + 1)
    assert edited(ok, failure="StepConvergenceError", step=0)
    assert _fingerprint_differences(want, {k: want[k] for k in list(want)[1:]})
