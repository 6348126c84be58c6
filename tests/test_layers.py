"""bench/layers.py imports a commit's package beside the session's own."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import carleman
from carleman import CoefficientTable, Rational

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
layers = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(layers)


def ours() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.partition(".")[0] == "carleman"}


def test_load_imports_a_second_package_and_leaves_the_session_as_found():
    modules, path = ours(), sys.path[:]
    other = layers.load(ROOT / "src")
    assert other.coefficients is not modules["carleman.coefficients"]
    assert ours() == modules
    assert sys.path == path
    mine, theirs = CoefficientTable.from_recurrence(30), other.CoefficientTable.from_recurrence(30)
    assert theirs.numerators == mine.numerators
    assert theirs.denominator == mine.denominator


def test_entries_hashes_the_reduced_values_in_hex():
    table = CoefficientTable.from_recurrence(3)  # 1/2, 1/24, 1/48 over D = 48
    expected = hashlib.sha256(b"0x1/0x2 0x1/0x18 0x1/0x30").hexdigest()[:16]
    assert layers.entries(table) == expected
    # an early commit's table held only `values`
    old = SimpleNamespace(values=(Rational(1, 2), Rational(1, 24), Rational(1, 48)))
    assert layers.entries(old) == expected
    assert layers.entries(CoefficientTable.from_series_oracle(3)) == expected
    assert layers.entries(CoefficientTable.from_recurrence(4)) != expected


def test_sizes_lists_every_layer_with_a_fingerprint(monkeypatch):
    monkeypatch.setattr(layers, "CHECKS_N", 30)  # the checks' table, built eagerly
    found = layers.sizes(carleman)
    assert {"control", "from_recurrence_2000", "bound_check_30", "coefficient_by_moment_20",
            "scaled_defect_by_quadrature", "density_identity_checks", "run_verification",
            "carleman_demo_20_20000",
            "refinement_factor_20_exact", "tail_bound_1e-06_1"} <= set(found)
    call, fingerprint = found["coefficient_by_moment_20"]
    assert fingerprint(call()) == f"{carleman.coefficient_by_moment(20).value.hex()} 5"
    call, fingerprint = found["scaled_defect_by_quadrature"]
    first = carleman.scaled_defect_by_quadrature(carleman.verify.GAP_SAMPLE_XS[0])
    assert fingerprint(call()).split()[:2] == [first.value.hex(), str(first.levels_used)]
    call, fingerprint = found["carleman_demo_1_2000"]
    demo = carleman.carleman_demo(layers.demo_sequence(2000), 1,
                                  CoefficientTable.from_recurrence(1))
    assert fingerprint(call()) == demo.rhs.hex()


def test_label_marks_only_an_edit_under_the_timed_src(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("a = 1\n")
    (tmp_path / "README.md").write_text("notes\n")
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    commit = subprocess.check_output(git + ["rev-parse", "--short=7", "HEAD"], text=True).strip()
    (tmp_path / "README.md").write_text("edited\n")
    assert layers.label(tmp_path / "src") == commit
    (tmp_path / "src" / "b.py").write_text("b = 2\n")
    assert layers.label(tmp_path / "src") == commit + "-dirty"
