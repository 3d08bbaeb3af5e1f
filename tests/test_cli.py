import re

import numpy as np
import pytest

import triq.cli
import triq.noise

from triq import (NumericalError, PhysicalityError, TomoRecord, build_xy16s,
                  load_matrix, prepare_w, schedule_table, tomograph,
                  write_records)
from triq.cli import ConfigError, load_config, main, parse_config


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(tmp_path, cfg_text, command="decay", out="out", seed=None):
    cfg = write(tmp_path, cfg_text)
    argv = [command, "--config", cfg, "--out", str(tmp_path / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), tmp_path / out


# -- configuration ----------------------------------------------------------

def test_parse_config_values_comments_defaults():
    cfg = parse_config(
        "# leading comment\n"
        "state = wwbar\n"
        "\n"
        "grid.t_final_s = 0.25  # trailing comment\n"
        "spins.t1_s = 5.0, 5.0, 5.0\n"
    )
    assert cfg["state"] == "wwbar"
    assert cfg["grid.t_final_s"] == 0.25
    assert cfg["spins.t1_s"] == (5.0, 5.0, 5.0)
    assert cfg["bath.tau_c_s"] == 0.01  # untouched default
    assert cfg.get("seed") is None  # no default seed


def test_parse_config_diagnostics_carry_line_numbers():
    with pytest.raises(ConfigError, match="<config>:2: expected key = value"):
        parse_config("state = ghz\nwhat\n")
    with pytest.raises(ConfigError, match=":3: duplicate key 'state'"):
        parse_config("state = ghz\n\nstate = w\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("stat = ghz\n")
    # no command reads offsets or couplings, so setting one is an error
    with pytest.raises(ConfigError, match="<config>:2: unknown key 'spins.j12_hz'"):
        parse_config("state = w\nspins.j12_hz = 70\n")
    with pytest.raises(ConfigError, match="one of"):
        parse_config("state = bell\n")
    with pytest.raises(ConfigError, match="three"):
        parse_config("spins.t2_s = 0.5, 0.5\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("grid.step_s = 0\n")


def test_seed_parsing_bounds():
    assert parse_config("seed = 18446744073709551615\n")["seed"] == 2**64 - 1
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = 18446744073709551616\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = ghz\n")


def test_precedence_file_env_flags(tmp_path):
    path = write(tmp_path, "grid.t_final_s = 0.5\nseed = 1\n")
    env = {"TRIQ_GRID__T_FINAL_S": "0.75", "HOME": "/nope"}
    cfg = load_config(path, environ=env, seed="9", out_dir="somewhere")
    assert cfg["grid.t_final_s"] == 0.75  # env beats file
    assert cfg["seed"] == 9  # flag beats file
    assert cfg["out.dir"] == "somewhere"


def test_unknown_env_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="TRIQ_NOPE"):
        load_config(None, environ={"TRIQ_NOPE": "1"})


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/no/such/file.cfg", environ={})


@pytest.mark.parametrize("seed", ["abc", "18446744073709551616"])
def test_seed_flag_errors_name_the_flag(tmp_path, capsys, seed):
    # as an error in TRIQ_SEED names the variable
    rc, _ = run(tmp_path, DECAY_CFG, seed=seed)
    assert rc == 2
    assert "config error: --seed: seed: " in capsys.readouterr().err


# -- decay ------------------------------------------------------------------

DECAY_CFG = "state = ghz\ngrid.t_final_s = 0.02\ngrid.step_s = 0.01\n"


def test_decay_smoke_outputs(tmp_path):
    rc, out = run(tmp_path, DECAY_CFG)
    assert rc == 0
    csv = (out / "decay.csv").read_text().splitlines()
    assert csv[0] == "time_s,N1,N2,N3,N3_tri,fidelity,purity"
    assert csv[1] == "0,1,1,1,1,1,1"
    assert len(csv) == 4  # t = 0, 0.01, 0.02
    assert (out / "decay_analytic.csv").exists()
    assert (out / "decay.svg").read_text().startswith("<svg")


def test_decay_numeric_tracks_analytic(tmp_path):
    rc, out = run(tmp_path, DECAY_CFG)
    assert rc == 0
    num = np.genfromtxt(out / "decay.csv", delimiter=",", skip_header=1)
    ana = np.genfromtxt(out / "decay_analytic.csv", delimiter=",", skip_header=1)
    assert np.max(np.abs(num - ana)) < 1e-6


def test_decay_byte_determinism(tmp_path):
    rc1, out1 = run(tmp_path, DECAY_CFG, out="a")
    rc2, out2 = run(tmp_path, DECAY_CFG, out="b")
    assert rc1 == rc2 == 0
    for name in ("decay.csv", "decay_analytic.csv", "decay.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_decay_zero_duration_writes_headers_only(tmp_path):
    rc, out = run(tmp_path, "grid.t_final_s = 0\n")
    assert rc == 0
    assert (out / "decay.csv").read_text() == \
        "time_s,N1,N2,N3,N3_tri,fidelity,purity\n"
    assert (out / "decay_analytic.csv").read_text().startswith("time_s,")


def test_decay_rejects_duration_off_the_sample_grid(tmp_path, capsys):
    # 12.3 ms is 2.46 steps of 5 ms; rounding the count to 2 used to
    # stretch the sample spacing to 5.0204 ms without a word
    rc, out = run(tmp_path, "grid.t_final_s = 0.0123\ngrid.step_s = 0.005\n")
    assert rc == 2
    err = capsys.readouterr().err
    assert "grid.t_final_s" in err and "grid.step_s" in err
    assert not (out / "decay.csv").exists()


def test_decay_rejects_an_overflowing_step_count(tmp_path, capsys):
    # 1e300 s at 0.1 ns is more steps than a float holds: exit 2, not 3
    rc, out = run(tmp_path, "grid.t_final_s = 1e300\ngrid.step_s = 1e-10\n")
    assert rc == 2
    assert "overflows the step count" in capsys.readouterr().err
    assert not (out / "decay.csv").exists()


def test_decay_rejects_a_grid_past_the_step_cap(tmp_path, monkeypatch, capsys):
    # the cap, lowered so that no long grid is built if the check fails:
    # 100 steps pass, 200 are a config error
    monkeypatch.setattr(triq.noise, "MAX_STEPS", 100)
    rc, _ = run(tmp_path, "grid.t_final_s = 0.1\ngrid.step_s = 0.001\n", out="a")
    assert rc == 0
    rc, out = run(tmp_path, "grid.t_final_s = 0.2\ngrid.step_s = 0.001\n")
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        "is 200 steps, more than the 100 a grid may have\n")
    assert not (out / "decay.csv").exists()


def test_decay_rejects_more_samples_than_a_run_may_hold(tmp_path, monkeypatch,
                                                        capsys):
    # 500,001 samples at 1 us would hold 0.5 GB of states in the engine's
    # accumulator and as much again in the overlay: a config error. The
    # stub stands in for the accumulator, so that a missing check fails
    # here rather than allocating
    def no_stretches(*args):
        raise AssertionError("the samples of a run past the cap were allocated")

    monkeypatch.setattr(triq.noise, "_stretches", no_stretches)
    rc, out = run(tmp_path, "grid.t_final_s = 0.5\ngrid.step_s = 1e-6\n")
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        "500001 samples per arm, 500001 states in all, are more than the "
        "393216 sampled states a run may hold\n")
    assert not (out / "decay.csv").exists()


def test_decay_overlay_names_a_failing_sample_by_index_and_time(
        tmp_path, monkeypatch, capsys):
    # a closed form that breaks the trace at its fourth sample, 3 ms
    def broken(ts, noise):
        states = triq.cli.ghz_analytic(ts, noise)
        states[3] *= 1.5
        return states

    monkeypatch.setitem(triq.cli._ANALYTIC, "ghz", broken)
    rc, out = run(tmp_path, "state = ghz\ngrid.t_final_s = 0.01\n"
                  "grid.step_s = 0.001\n")
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: sample 3: at t = 0.003 s: trace")
    assert not (out / "decay.csv").exists()


def test_decay_rejects_correlated_mode(tmp_path):
    rc, _ = run(tmp_path, "bath.mode = correlated\nseed = 1\n")
    assert rc == 2


# -- protect ----------------------------------------------------------------

PROTECT_CFG = (
    "state = ghz\n"
    "bath.mode = correlated\n"
    "bath.sigma_rad_s = 13.7\n"
    "bath.trajectories = 4\n"
    "dd.sequence = xy16s\n"
    "dd.tau_s = 0.001\n"
    "grid.t_final_s = 0.016\n"
    "seed = 5\n"
)


def test_protect_smoke_outputs(tmp_path):
    rc, out = run(tmp_path, PROTECT_CFG, command="protect")
    assert rc == 0
    prot = (out / "protected.csv").read_text().splitlines()
    unprot = (out / "unprotected.csv").read_text().splitlines()
    assert prot[0] == "time_s,N1,N2,N3,N3_tri,fidelity,purity,protection_factor"
    assert unprot[0] == "time_s,N1,N2,N3,N3_tri,fidelity,purity"
    assert len(prot) == 3 and len(unprot) == 3  # t = 0 and one cycle
    pf = float(prot[-1].split(",")[-1])
    assert np.isfinite(pf) and pf > 0
    assert (out / "protect.svg").exists()


def test_protect_config_errors(tmp_path):
    base = PROTECT_CFG.replace("dd.sequence = xy16s\n", "")
    assert run(tmp_path, base, command="protect")[0] == 2  # sequence = none
    bad_mode = PROTECT_CFG.replace("bath.mode = correlated\n", "")
    assert run(tmp_path, bad_mode, command="protect", out="o2")[0] == 2
    no_seed = PROTECT_CFG.replace("seed = 5\n", "")
    assert run(tmp_path, no_seed, command="protect", out="o3")[0] == 2


def test_protect_rejects_a_grid_past_the_step_cap(tmp_path, monkeypatch, capsys):
    # a cycle of 800 steps is under the lowered cap, but the 2,400-step
    # run of three cycles is a config error
    monkeypatch.setattr(triq.noise, "MAX_STEPS", 1000)
    cfg = PROTECT_CFG.replace("dd.tau_s = 0.001\n", "dd.tau_s = 0.00025\ndd.cycles = 3\n")
    rc, out = run(tmp_path, cfg, command="protect")
    assert rc == 2
    assert "2400 steps is more than the 1000" in capsys.readouterr().err
    assert not (out / "protected.csv").exists()


def test_protect_rejects_a_correlated_grid_too_large_to_hold(tmp_path, monkeypatch,
                                                            capsys):
    # tau_c = 1 ns at tau = 0.25 ms takes steps of 50 ps, 8e7 to a cycle:
    # 3.8 GB of one trajectory's OU track and draws. That is a config
    # error at the real cap; the stub stands in for the track, so that a
    # missing check fails here rather than allocating
    def no_track(*args):
        raise AssertionError("an OU track was drawn for a grid past the cap")

    monkeypatch.setattr(triq.noise, "_ou_track", no_track)
    cfg = PROTECT_CFG.replace("dd.tau_s = 0.001\n",
                              "dd.tau_s = 0.00025\nbath.tau_c_s = 1e-9\n")
    rc, out = run(tmp_path, cfg, command="protect")
    assert rc == 2
    assert ("80000000 steps is more than the %d" % triq.noise.MAX_STEPS
            in capsys.readouterr().err)
    assert not out.exists()


def test_protect_long_tau_keeps_pulses_on_the_grid(tmp_path):
    # at tau = 20 ms, tau/50 is above tau_c/20 = 0.25 ms, and the step
    # must still divide the pulse spacing
    cfg = PROTECT_CFG.replace("dd.tau_s = 0.001\n",
                              "dd.tau_s = 0.02\nbath.tau_c_s = 0.005\n")
    cfg = cfg.replace("bath.trajectories = 4\n", "bath.trajectories = 2\n")
    rc, out = run(tmp_path, cfg, command="protect")
    assert rc == 0
    rows = (out / "protected.csv").read_text().splitlines()
    assert rows[-1].startswith("0.32,")


@pytest.mark.parametrize("tau", ["0.0002", "0.0001"])
def test_protect_kddxy_short_tau_keeps_pulses_on_the_grid(tmp_path, tau):
    # one KDD cycle is 20 tau; summing its delays leaves cycle / dt a few
    # ulps above the whole number 1000, which must not add a step per cycle
    cfg = PROTECT_CFG.replace("dd.sequence = xy16s\n", "dd.sequence = kddxy\n")
    cfg = cfg.replace("dd.tau_s = 0.001\n", "dd.tau_s = %s\n" % tau)
    cfg = cfg.replace("bath.trajectories = 4\n", "bath.trajectories = 2\n")
    rc, out = run(tmp_path, cfg, command="protect")
    assert rc == 0
    rows = (out / "protected.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[-1].startswith("%.12g," % (20 * float(tau)))


# -- calibrate --------------------------------------------------------------

def test_calibrate_no_bracket_is_numerical_failure(tmp_path):
    cfg = (
        "bath.mode = correlated\n"
        "bath.trajectories = 8\n"
        "calibrate.sigma_lo_rad_s = 1\n"
        "calibrate.sigma_hi_rad_s = 2\n"
        "seed = 2\n"
    )
    rc, _ = run(tmp_path, cfg, command="calibrate")
    assert rc == 3


@pytest.mark.parametrize("cfg, message", [
    ("calibrate.sigma_lo_rad_s = 12\n", "requires bath.mode = correlated"),
    ("bath.mode = correlated\nbath.tau_c_s = 0\n",
     "requires bath.tau_c_s > 0"),
    ("bath.mode = correlated\ncalibrate.sigma_lo_rad_s = 16\n"
     "calibrate.sigma_hi_rad_s = 16\n", "sigma_hi_rad_s must exceed"),
], ids=["markovian", "white_noise", "empty_bracket"])
def test_calibrate_config_errors(tmp_path, capsys, cfg, message):
    rc, out = run(tmp_path, cfg + "bath.trajectories = 8\nseed = 2\n",
                  command="calibrate")
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (out / "calibration.txt").exists()


def test_calibrate_doubling_trajectories_is_stable(tmp_path):
    # doubling the ensemble moves the calibrated sigma by well under 3%
    results = {}
    for n in (128, 256):
        cfg = (
            "bath.mode = correlated\n"
            "bath.trajectories = %d\n"
            "calibrate.sigma_lo_rad_s = 12\n"
            "calibrate.sigma_hi_rad_s = 16\n"
            "seed = 2\n" % n
        )
        rc, out = run(tmp_path, cfg, command="calibrate", out="cal%d" % n)
        assert rc == 0
        text = (out / "calibration.txt").read_text()
        parsed = parse_config(text)
        assert parsed["bath.mode"] == "correlated"
        assert parsed["seed"] == 2
        results[n] = parsed["bath.sigma_rad_s"]
        achieved = float(
            [l for l in text.splitlines() if "achieved" in l][0].split("=")[1])
        assert abs(achieved - 0.53) < 0.01
    assert results[128] == pytest.approx(13.5, abs=1e-9)
    assert results[256] == pytest.approx(13.53125, abs=1e-9)
    assert abs(results[256] - results[128]) / results[128] < 0.03


CALIBRATE_128 = (
    "bath.mode = correlated\n"
    "bath.trajectories = 128\n"
    "calibrate.sigma_lo_rad_s = 12\n"
    "calibrate.sigma_hi_rad_s = 16\n"
)


@pytest.mark.parametrize("seed", [11, 2026])
def test_calibrate_stall_names_the_jump(tmp_path, capsys, seed):
    # at these seeds the first 1/e crossing jumps across T2 between two
    # sigmas the bisection cannot split further; the error names both
    rc, _ = run(tmp_path, CALIBRATE_128, command="calibrate", seed=seed)
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: calibration stalled" in err
    t_lo, s_lo, t_hi, s_hi = map(float, re.search(
        r"from (\S+) s at sigma = (\S+) rad/s to (\S+) s at sigma = (\S+) rad/s",
        err).groups())
    assert s_lo < s_hi
    assert t_lo > 0.53 > t_hi


def test_calibrate_engine_cross_checks_closed_form(tmp_path, monkeypatch, capsys):
    # phases 1% off make the bisection settle where the engine's 1/e time
    # disagrees with the closed form's
    unit_phases = triq.cli.ou_unit_phases
    monkeypatch.setattr(triq.cli, "ou_unit_phases",
                        lambda *args: 1.01 * unit_phases(*args))
    rc, _ = run(tmp_path, CALIBRATE_128, command="calibrate", seed=2)
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: at sigma" in err
    assert "differs from the closed form" in err


def test_calibrate_reproduces_sigma_star(tmp_path):
    # SIGMA_STAR in test_acceptance.py and SIGMA in demos/dd_protection.py
    # come from this run: seed 11, 512 trajectories, the default bracket
    cfg = "bath.mode = correlated\nbath.trajectories = 512\nseed = 11\n"
    rc, out = run(tmp_path, cfg, command="calibrate")
    assert rc == 0
    lines = (out / "calibration.txt").read_text().splitlines()
    assert "bath.sigma_rad_s = 13.7117919922" in lines
    assert "# bisection_iterations = 13" in lines


# -- tomo -------------------------------------------------------------------

TOMO_CFG = "state = w\ntomo.noise_sigma = 0.05\nseed = 11\n"


def test_tomo_smoke_and_exact_replay(tmp_path):
    rc, out = run(tmp_path, TOMO_CFG, command="tomo")
    assert rc == 0
    report = (out / "tomo_report.txt").read_text().splitlines()
    assert report[0] == "state = w"
    assert report[1] == "settings = 7"
    fid = float(report[2].split("=")[1])
    assert 0.9 < fid < 1.0
    true = load_matrix(out / "tomo_true.json")
    est = load_matrix(out / "tomo_reconstructed.json")
    assert true.shape == est.shape == (8, 8)
    # the prepared state is pure: the report is the overlap <psi|est|psi>
    psi = np.linalg.eigh(true)[1][:, -1]
    assert abs(fid - (psi.conj() @ est @ psi).real) < 1e-11
    # replaying the written records reproduces the report byte for byte
    replay = TOMO_CFG + "tomo.records = %s\n" % (out / "tomo_records.txt")
    rc2, out2 = run(tmp_path, replay, command="tomo", out="replay")
    assert rc2 == 0
    assert (out2 / "tomo_report.txt").read_bytes() == \
        (out / "tomo_report.txt").read_bytes()
    assert not (out2 / "tomo_records.txt").exists()


def test_tomo_noise_free_needs_no_seed(tmp_path):
    rc, out = run(tmp_path, "state = ghz\n", command="tomo")
    assert rc == 0
    fid = float((out / "tomo_report.txt").read_text()
                .splitlines()[2].split("=")[1])
    assert fid > 0.999


def test_tomo_noisy_requires_seed(tmp_path):
    rc, _ = run(tmp_path, "tomo.noise_sigma = 0.05\n", command="tomo")
    assert rc == 2


def test_tomo_missing_records_file(tmp_path):
    rc, _ = run(tmp_path, "tomo.records = /no/such/records.txt\n",
                command="tomo")
    assert rc == 2


def test_tomo_incomplete_records_file(tmp_path):
    bad = tmp_path / "partial.txt"
    bad.write_text("setting,observable_index,value\nIII,0,0.5\n")
    rc, _ = run(tmp_path, "tomo.records = %s\n" % bad, command="tomo")
    assert rc == 2


@pytest.mark.parametrize("huge", ["noise_sigma", "records_value",
                                  "records_value_1e300",
                                  "records_value_1.7e308"])
def test_tomo_huge_readout_exits_3(tmp_path, capsys, huge):
    # eigenvalues of 2**53 and more must not break the projection, and
    # rounding keeps the gap above its certificate: a numerical failure.
    # At 1e300 the gap rounds to 0, but its rounding error does not; at
    # 1.7e308 the gradient would overflow
    if huge == "noise_sigma":
        cfg = "tomo.noise_sigma = 1e200\nseed = 3\n"
    else:
        value = {"records_value": 1e200, "records_value_1e300": 1e300,
                 "records_value_1.7e308": 1.7e308}[huge]
        records = tomograph(prepare_w())
        records[0] = TomoRecord("III", (value,) + records[0].values[1:])
        write_records(records, tmp_path / "huge.txt")
        cfg = "tomo.records = %s\n" % (tmp_path / "huge.txt")
    rc, _ = run(tmp_path, cfg, command="tomo")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "MLE duality gap" in err[0]


# -- schedule-dump ----------------------------------------------------------

def test_schedule_dump_matches_library_table(tmp_path):
    cfg = "dd.sequence = xy16s\ndd.tau_s = 0.25e-3\n"
    rc, out = run(tmp_path, cfg, command="schedule-dump")
    assert rc == 0
    assert (out / "schedule.csv").read_text() == \
        schedule_table(build_xy16s(0.25e-3))


def test_schedule_dump_requires_sequence(tmp_path):
    rc, _ = run(tmp_path, "state = ghz\n", command="schedule-dump")
    assert rc == 2


# -- argument plumbing ------------------------------------------------------

def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_env_override_reaches_run(tmp_path, monkeypatch):
    monkeypatch.setenv("TRIQ_GRID__T_FINAL_S", "0.01")
    rc, out = run(tmp_path, DECAY_CFG)
    assert rc == 0
    rows = (out / "decay.csv").read_text().splitlines()
    assert rows[-1].startswith("0.01,")
    assert len(rows) == 3  # 0 and 0.01 only


def test_out_dir_nested_creation(tmp_path):
    rc, out = run(tmp_path, DECAY_CFG, out="deep/nested/dir")
    assert rc == 0
    assert (out / "decay.csv").exists()


# -- exit codes -------------------------------------------------------------

def test_library_value_error_is_config_error(tmp_path, capsys):
    # NoiseModel rejects tau_c = 0 with a plain ValueError: the value came
    # from the config, so the run exits 2
    rc, _ = run(tmp_path, PROTECT_CFG + "bath.tau_c_s = 0\n", command="protect")
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # the "spins:" prefix marks a bad T1/T2 alone, never a bath error
    assert err == "config error: ou_tau_c must be positive in correlated mode\n"


@pytest.mark.parametrize("cfg, message", [
    ("grid.step_s = abc\n", "not a number"),
    ("grid.step_s = 1e400\n", "value must be finite"),
    ("bath.sigma_rad_s = -1\n", "must be non-negative"),
    ("spins.t2_s = 0.53, 0.55, 20\n",
     "config error: spins: T2 must satisfy 0 < T2 <= 2 T1, got 20\n"),
    ("spins.t1_s = 1e-310, 1, 1\nspins.t2_s = 1e-310, 0.5, 0.5\n",
     "config error: spins: T1 = 1e-310 s is too short: its rate 1/T1 "
     "overflows\n"),
], ids=["not_a_number", "infinite", "negative", "t2_above_2t1",
        "overflowing_rate"])
def test_config_value_errors_exit_2(tmp_path, capsys, cfg, message):
    rc, out = run(tmp_path, cfg)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (out / "decay.csv").exists()


def test_unphysical_state_is_numerical_failure(tmp_path, monkeypatch, capsys):
    def nan_state():
        rho = np.eye(8, dtype=complex) / 8.0
        rho[0, 0] = np.nan
        return rho

    monkeypatch.setitem(triq.cli._PREPARE, "ghz", nan_state)
    rc, _ = run(tmp_path, DECAY_CFG)
    assert rc == 3
    assert "numerical failure: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code", [
    (ConfigError("bad key"), 2),
    (ValueError("bad value"), 2),
    (PhysicalityError("negative eigenvalue"), 3),
    (NumericalError("engine and closed form disagree"), 3),
    (RuntimeError("no bracket"), 3),
    (np.linalg.LinAlgError("eigh did not converge"), 3),
])
def test_exit_code_per_failure_kind(tmp_path, monkeypatch, exc, code):
    def fail(cfg):
        """Stand-in command that raises."""
        raise exc

    monkeypatch.setitem(triq.cli._COMMANDS, "decay", fail)
    assert run(tmp_path, DECAY_CFG)[0] == code
