import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from triq import (
    SETTING_LABELS,
    TomoRecord,
    fidelity,
    kron,
    mle_reconstruct,
    observable_list,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    read_records,
    rotation,
    simulate_readout,
    tomograph,
    write_records,
)
from triq import tomo
from triq.cli import main
from triq.core import SX, SY
from conftest import random_density

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def test_setting_labels_fixed():
    assert SETTING_LABELS == ("III", "IIY", "IYY", "YII", "XYX", "XXY", "XXX")


def setting_unitary(label):
    # the readout pulses rebuilt from the public rotation: per qubit, I
    # idles, X and Y are pi/2 pulses about x and y
    u = np.eye(8, dtype=complex)
    for qubit, letter in enumerate(label, start=1):
        if letter != "I":
            u = rotation(qubit, math.pi / 2.0, {"X": 0.0, "Y": math.pi / 2.0}[letter]) @ u
    return u


def test_simulate_readout_rejects_unknown_setting():
    rho = prepare_ghz()
    for bad in ("XXZ", "ZZZ", "iii", np.eye(8)):
        with pytest.raises(ValueError, match="unknown setting"):
            simulate_readout(rho, bad)


@pytest.mark.parametrize("kwargs, message", [
    ({"noise_sigma": math.nan}, "noise_sigma must be finite"),
    ({"noise_sigma": math.inf}, "noise_sigma must be finite"),
    ({"noise_sigma": -0.1}, "noise_sigma must be finite"),
    ({"noise_sigma": 0.1, "seed": 1.7}, "seed must be an integer"),
    ({"noise_sigma": 0.1, "seed": -1}, "seed must be an integer"),
], ids=["nan_sigma", "inf_sigma", "negative_sigma", "float_seed", "negative_seed"])
def test_simulate_readout_rejects_bad_noise_and_seed(kwargs, message):
    # unchecked, NaN or a negative width would add no noise, and the
    # seeding's int() would run seed 1.7 as seed 1
    with pytest.raises(ValueError, match=message):
        simulate_readout(prepare_ghz(), "XXX", **kwargs)
    with pytest.raises(ValueError, match=message):
        tomograph(prepare_ghz(), **kwargs)


@pytest.mark.parametrize("rho, kwargs", [
    (2.0 * prepare_ghz(), {}),
    (prepare_ghz(), {"noise_sigma": math.nan}),
    (prepare_ghz(), {"noise_sigma": 0.1, "seed": -1}),
    (2.0 * prepare_ghz(), {"noise_sigma": math.nan, "seed": -1}),
], ids=["not_a_density", "nan_sigma", "negative_seed", "every_defect"])
def test_tomograph_rejects_as_simulate_readout_does(rho, kwargs):
    # the scan checks its arguments once, in simulate_readout's order and
    # with its messages
    with pytest.raises(Exception) as scan:
        tomograph(rho, **kwargs)
    with pytest.raises(Exception) as one:
        simulate_readout(rho, "III", **kwargs)
    assert type(scan.value) is type(one.value)
    assert isinstance(scan.value, (ValueError, ArithmeticError))
    assert str(scan.value) == str(one.value)


def test_simulate_readout_matches_rotated_observables(rng):
    rho = random_density(rng)
    for label in SETTING_LABELS:
        u = setting_unitary(label)
        expected = [np.trace(u @ rho @ u.conj().T @ o).real for o in observable_list()]
        assert np.allclose(simulate_readout(rho, label).values, expected, atol=1e-14)


def test_observable_index_formula():
    ops = observable_list()
    assert len(ops) == 24
    # index = 8 (i - 1) + 2 (2 bj + bk) + axis, spectators in qubit order
    assert np.array_equal(ops[0], kron(kron(SX, P0), P0))
    assert np.array_equal(ops[5], kron(kron(SY, P1), P0))
    assert np.array_equal(ops[8], kron(kron(P0, SX), P0))
    assert np.array_equal(ops[15], kron(kron(P1, SY), P1))
    assert np.array_equal(ops[22], kron(kron(P1, P1), SX))
    for o in ops:
        assert np.allclose(o, o.conj().T)
        assert abs(np.trace(o)) < 1e-15


def test_seven_settings_are_informationally_complete():
    # pulled-back observables span the full 63-dimensional traceless
    # space; one fewer setting cannot
    rows = []
    for label in SETTING_LABELS:
        u = setting_unitary(label)
        for o in observable_list():
            a = u.conj().T @ o @ u
            rows.append(np.concatenate([a.real.ravel(), a.imag.ravel()]))
    assert np.linalg.matrix_rank(np.stack(rows), tol=1e-10) == 63


def test_simulate_readout_plus_state_values():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = kron(kron(plus, P0), P0)
    rec = simulate_readout(rho, "III")
    assert rec.values[0] == pytest.approx(1.0, abs=1e-14)
    assert all(abs(v) < 1e-14 for v in rec.values[1:])


def test_simulate_readout_ghz_is_dark_without_pulses():
    # GHZ carries no single-quantum coherence, so the plain setting
    # detects nothing on any line
    rec = simulate_readout(prepare_ghz(), "III")
    assert all(abs(v) < 1e-14 for v in rec.values)


def test_simulate_readout_noise_determinism():
    rho = prepare_w()
    a = simulate_readout(rho, "XXY", noise_sigma=0.05, seed=4)
    b = simulate_readout(rho, "XXY", noise_sigma=0.05, seed=4)
    c = simulate_readout(rho, "XXY", noise_sigma=0.05, seed=5)
    assert a.values == b.values
    assert a.values != c.values


def test_tomograph_covers_all_settings():
    records = tomograph(prepare_wwbar())
    assert [r.setting for r in records] == list(SETTING_LABELS)


def test_tomo_record_validation():
    ok = tuple(float(k) for k in range(24))
    TomoRecord(setting="III", values=ok)
    with pytest.raises(ValueError, match="24 values"):
        TomoRecord(setting="III", values=ok[:23])
    with pytest.raises(ValueError, match="finite"):
        TomoRecord(setting="III", values=ok[:23] + (float("nan"),))
    with pytest.raises(ValueError, match="unknown setting"):
        TomoRecord(setting="ABC", values=ok)


def test_mle_round_trip_noise_free(rng):
    # a duality gap of at most 1e-10 puts the estimate within
    # sqrt(1e-10 / lambda_1) of the minimizer, here the state itself;
    # lambda_1 = 2 is the smallest nonzero eigenvalue of the Gram
    bound = math.sqrt(1e-10 / 2.0)
    for rho in (prepare_ghz(), prepare_w(), prepare_wwbar(), random_density(rng)):
        est = mle_reconstruct(tomograph(rho))
        assert fidelity(rho, est) > 0.99999
        assert np.linalg.norm(est - rho) <= bound


def test_mle_output_is_physical():
    est = mle_reconstruct(tomograph(prepare_ghz(), noise_sigma=0.08, seed=3))
    vals = np.linalg.eigvalsh(est)
    assert np.trace(est).real == pytest.approx(1.0, abs=1e-10)
    assert vals.min() > -1e-12


def test_mle_noise_degrades_monotonically():
    rho = prepare_ghz()
    fids = [fidelity(rho, mle_reconstruct(tomograph(rho, noise_sigma=s,
                                                    seed=7)))
            for s in (0.01, 0.05, 0.1)]
    assert fids[0] == pytest.approx(0.989936, abs=1e-3)
    assert fids[1] == pytest.approx(0.949080, abs=1e-3)
    assert fids[2] == pytest.approx(0.897327, abs=1e-3)
    assert fids[0] > fids[1] > fids[2]


def duality_gap(rho, records):
    # Tr(rho G) - lambda_min(G) for the cost gradient G, rebuilt from the
    # public rotations and observables
    g = np.zeros((8, 8), dtype=complex)
    for rec in records:
        u = setting_unitary(rec.setting)
        for o, value in zip(observable_list(), rec.values):
            a = u.conj().T @ o @ u
            g += 2.0 * (np.trace(rho @ a).real - value) * a
    return np.trace(rho @ g).real - np.linalg.eigvalsh(g)[0]


@pytest.mark.parametrize("prepare, sigma, seed, repeat_seeds", [
    pytest.param(prepare_w, 0.02, 7, (), id="prepare_w-0.02-7"),
    pytest.param(prepare_ghz, 0.05, 2026, (), id="prepare_ghz-0.05-2026"),
    pytest.param(prepare_wwbar, 0.1, 7, (), id="prepare_wwbar-0.1-7"),
    pytest.param(prepare_w, 0.02, 7, (8,), id="prepare_w-0.02-7-XXY_again_at_8"),
    pytest.param(prepare_w, 0.02, 7, tuple(range(8, 14)),
                 id="prepare_w-0.02-7-XXY_six_more_at_8_to_13"),
    pytest.param(lambda: random_density(np.random.default_rng(5)), 0.05, 5, (),
                 id="random_density-0.05-5"),
    pytest.param(prepare_ghz, 1.0, 3, (), id="prepare_ghz-1.0-3"),
    pytest.param(prepare_wwbar, 5.0, 7, (), id="prepare_wwbar-5.0-7"),
    pytest.param(prepare_w, 5.0, 7, tuple(range(8, 14)),
                 id="prepare_w-5.0-7-XXY_six_more_at_8_to_13"),
])
def test_mle_certifies_optimum(prepare, sigma, seed, repeat_seeds):
    # the gap bounds the cost above its minimum; a search that stalls on
    # a rank-deficient state leaves it large. A repeated setting weighs
    # its rows more, so the fit's step is not the seven-setting one: six
    # more XXY readouts double the Gram's largest eigenvalue, 12 to 24,
    # and the seven-setting step then never reaches the gap. The fit
    # gives up at an iteration cap derived from its contraction rate,
    # which must hold for a full-rank random state (it takes about 3/4 of
    # its cap), readout noise up to 5 and repeated records; a slower step
    # or a momentum term overruns it
    rho = prepare()
    records = tomograph(rho, noise_sigma=sigma, seed=seed)
    records += [simulate_readout(rho, "XXY", sigma, s) for s in repeat_seeds]
    assert duality_gap(mle_reconstruct(records), records) <= 1e-9


def test_a_permuted_fit_equals_the_fit_that_forms_its_gram_inline(monkeypatch):
    # the Gram and its eigenvalues are kept per setting order, read-only,
    # and are the expressions a fit would form, so a fit of records in
    # any order, repeats included, is the same bit for bit
    rho = prepare_w()
    scan = tomograph(rho, noise_sigma=0.05, seed=3)
    records = [scan[k] for k in (4, 0, 6, 2, 5, 1, 3)]
    records.append(simulate_readout(rho, "XXY", 0.05, 8))
    order = tuple(rec.setting for rec in records)
    first = mle_reconstruct(records)
    hits = tomo._gram.cache_info().hits
    again = mle_reconstruct(records)
    assert tomo._gram.cache_info().hits == hits + 1
    dh, q, lam_1, lam_max = tomo._gram(order)
    with pytest.raises(ValueError, match="read-only"):
        q[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        dh[0, 0] = 0.0

    def inline(settings):
        d = np.concatenate([tomo._DESIGN_ROWS[s] for s in settings])
        gram = d.conj().T @ d
        return (d.conj().T, gram, *np.linalg.eigvalsh(gram)[[1, -1]])

    assert q.tobytes() == inline(order)[1].tobytes()
    monkeypatch.setattr(tomo, "_gram", inline)
    formed = mle_reconstruct(records)
    assert first.tobytes() == again.tobytes() == formed.tobytes()
    # and the rows held are the records' own, in their order
    assert duality_gap(first, records) <= 1e-9


def _vectorized_projection(h):
    # the threshold as a cumulative sum over the descending eigenvalues
    vals, vecs = np.linalg.eigh(h)
    vals = vals - vals[-1]
    desc = vals[::-1]
    excess = np.cumsum(desc) - 1.0
    kept = np.flatnonzero(desc - excess / np.arange(1, 9) > 0.0)[-1]
    p = np.maximum(vals - excess[kept] / (kept + 1), 0.0)
    return (vecs * p) @ vecs.conj().T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=128, max_size=128),
       scale=st.sampled_from([1e-9, 1e-2, 0.125, 1.0, 10.0, 1e6]))
@example(entries=[0.0] * 128, scale=1.0)
@example(entries=([1.0] + [0.0] * 8) * 7 + [1.0] + [0.0] * 64, scale=0.125)
def test_python_float_threshold_equals_the_vectorized_one(entries, scale):
    a = scale * (np.array(entries[:64]) + 1j * np.array(entries[64:])).reshape(8, 8)
    h = 0.5 * (a + a.conj().T)
    assert tomo._project_density(h).tobytes() == _vectorized_projection(h).tobytes()


def test_mle_iteration_cap_raises_with_gap(monkeypatch, tmp_path):
    # a search stalled at I/8 never closes the gap, so the cap stops it:
    # for these records the derived cap is 80, the least k at which
    # sqrt(7 * 12 / 2) (|y| + sqrt(24)) (5/7)^k reaches 1e-10
    monkeypatch.setattr(tomo, "_project_density",
                        lambda h: np.eye(8, dtype=complex) / 8.0)
    with pytest.raises(RuntimeError, match=r"duality gap \d\.\d+e[-+]\d+ "
                       r"still above 1e-10 after 80 iterations"):
        mle_reconstruct(tomograph(prepare_w(), noise_sigma=0.02, seed=7))
    assert main(["tomo", "--out", str(tmp_path)]) == 3


def test_mle_requires_all_settings():
    records = tomograph(prepare_w())
    with pytest.raises(ValueError, match="missing settings: III"):
        mle_reconstruct(records[1:])


def test_records_io_round_trip(tmp_path):
    records = tomograph(prepare_w(), noise_sigma=0.02, seed=11)
    path = tmp_path / "records.txt"
    write_records(records, path)
    back = read_records(path)
    assert [r.setting for r in back] == [r.setting for r in records]
    for a, b in zip(back, records):
        assert a.values == b.values  # %.17g survives the round trip


def test_read_records_interleaved_settings(tmp_path):
    # two settings' lines alternate, indices in reverse: records come
    # back in order of first appearance, each with its own values
    first, second = tomograph(prepare_w(), noise_sigma=0.02, seed=5)[5:3:-1]
    path = tmp_path / "records.txt"
    path.write_text("".join(
        "%s,%d,%.17g\n" % (rec.setting, i, rec.values[i])
        for i in reversed(range(24)) for rec in (first, second)))
    back = read_records(path)
    assert [r.setting for r in back] == ["XXY", "XYX"]
    assert [r.values for r in back] == [first.values, second.values]


def test_read_records_diagnostics(tmp_path):
    path = tmp_path / "bad.txt"

    def check(text, message):
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_records(path)

    check("III,0\n", "line 1: expected")
    check("QQQ,0,1.0\n", "unknown setting")
    check("III,24,1.0\n", "out of range")
    check("III,3,1.0\nIII,3,2.0\n", "duplicate")
    check("III,3,1.0\n", "has 1 of 24")
    # a bad index or value, or a non-finite one, names its line too
    check("III,0,0.1\nIII,abc,0.1\n", "line 2: expected an integer index")
    check("III,0,zz\n", "line 1: expected an integer index and a number")
    check("III,0,0.1\nIII,1,nan\n", "line 2: value 'nan' is not finite")
    check("III,0,-inf\n", "line 1: value '-inf' is not finite")
