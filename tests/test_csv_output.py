"""The curve CSV writer against the per-element formatting it replaced."""

import numpy as np
import pytest

from triq import DecayCurve
from triq.cli import write_curve_csv


def _reference_csv(curve, protection):
    header = "time_s,N1,N2,N3,N3_tri,fidelity,purity"
    if protection is not None:
        header += ",protection_factor"
    lines = [header]
    for k in range(len(curve.times)):
        row = [curve.times[k], curve.n1[k], curve.n2[k], curve.n3[k],
               curve.n3_tri[k], curve.fidelity[k], curve.purity[k]]
        if protection is not None:
            row.append(protection[k])
        lines.append(",".join("%.12g" % v for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_protection", [False, True])
def test_csv_rows_match_per_element_formatting(tmp_path, rng, with_protection):
    n = 257
    n1, n2, n3, n3_tri, fid = rng.uniform(0.0, 1.0, (5, n))
    curve = DecayCurve(times=np.cumsum(rng.uniform(1e-4, 1e-3, n)), n1=n1, n2=n2,
                       n3=n3, n3_tri=n3_tri, fidelity=fid,
                       purity=rng.uniform(0.125, 1.0, n))
    curve.n1[:3] = (0.0, 1.0, 1e-17)
    protection = None
    if with_protection:
        protection = [float(v) for v in rng.uniform(0.0, 5.0, n)]
        protection[:2] = (float("inf"), float("nan"))
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve, protection=protection)
    assert path.read_text() == _reference_csv(curve, protection)


def test_csv_writer_rejects_out_of_range_columns(tmp_path):
    ones = np.ones(3)
    curve = DecayCurve(times=np.arange(3.0), n1=ones, n2=ones, n3=ones,
                       n3_tri=ones, fidelity=np.array([1.0, np.nan, 1.0]),
                       purity=np.array([1.0, 0.5, 0.1]))
    with pytest.raises(RuntimeError, match="non-finite fidelity"):
        write_curve_csv(tmp_path / "a.csv", curve)
    curve.fidelity = np.array([1.0, 1.5, 1.0])
    with pytest.raises(RuntimeError, match=r"fidelity outside \[0, 1\]"):
        write_curve_csv(tmp_path / "b.csv", curve)
    curve.fidelity = ones
    with pytest.raises(RuntimeError, match="purity below 1/8"):
        write_curve_csv(tmp_path / "c.csv", curve)
