import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity_sweep.py"
_SPEC = importlib.util.spec_from_file_location("identity_sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_identity_sweep_names_each_differing_field_with_its_largest_gap():
    report = b'{"trials": [{"metrics": {"Z": %s}, "flags": {"ok": %s}}, ' \
             b'{"metrics": {"Z": 4.0}, "flags": {"ok": true}}], "meta": {"wall_time": 0}}'
    parent = [(["lsq"], 0, report % (b"1.0", b"true"), b""),
              ("r.csv", b"metric,mean\nZ,2.5\n"), ("r.json", report % (b"2.0", b"true"))]
    change = [(["lsq"], 0, report % (b"1.5", b"false"), b""),
              ("r.csv", b"metric,mean\nZ,2.5\n"), ("r.json", report % (b"2.0", b"true"))]
    assert sweep._differences(parent, change) == [
        "  exit code identical; stdout differs in 1 calls; stderr identical; "
        "a flag differs",
        "  stdout of rnla lsq: trials.flags.ok differs, trials.metrics.Z 0.33",
    ]
    change[1] = ("r.csv", b"metric,mean\nZ,2.0\n")
    change[2] = ("s.json", b"")
    assert sweep._differences(parent, change)[2:] == [
        "  r.csv: Z.mean 0.2", "  files r.json vs s.json"]


def test_identity_sweep_says_when_only_the_bytes_differ():
    parent = [("r.json", b'{"x": 5, "y": 0.10000000000000001}\n')]
    change = [("r.json", b'{\n  "x": 5.0,\n  "y": 0.1\n}\n')]
    assert sweep._differences(parent, change) == [
        "  exit code identical; stdout identical; stderr identical; flags identical",
        "  r.json: same values, different bytes"]
