"""The equivalence harness (`tests/equivalence.py`) finds a one-ulp change and says where."""

import numpy as np

import equivalence


def test_one_ulp_is_reported_with_its_location(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    # the second dump runs on warm caches and must give the bits of the first
    equivalence.dump(a)
    equivalence.dump(b)
    assert equivalence.compare(a, b) == 0
    with np.load(b / "arrays.npz") as z:
        arrays = dict(z)
    n = len(arrays)
    assert capsys.readouterr().out == f"{n} of {n} arrays equal\nverify JSON identical\n"

    key = "table5_2d/k=2/N=20/compact/values"
    arrays[key][3, 1, 2, 0] = np.nextafter(arrays[key][3, 1, 2, 0], np.inf)
    np.savez(b / "arrays.npz", **arrays)
    verify = (b / "verify.json").read_text().splitlines()
    verify[4] += " "
    (b / "verify.json").write_text("\n".join(verify))
    assert equivalence.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{key}: max|A - B| / max|A| = ")
    assert out[0].endswith(" first difference at (3, 1, 2, 0)")
    assert out[1:] == [f"{n - 1} of {n} arrays equal", "verify JSON differs, first at line 5"]
