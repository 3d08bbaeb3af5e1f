"""Experiment runner: decay sweeps, DD protection, calibration, tomography.

Subcommands
-----------
decay          Markovian decay sweep of one state; CSV + SVG + the
               closed-form overlay curve on the same grid, stepped and
               sampled every grid.step_s up to grid.t_final_s, which
               must be a whole number of steps.
protect        Paired protected/unprotected runs under the correlated
               bath; protected CSV carries a protection_factor column.
calibrate      Bisect the OU sigma so the unprotected single-qubit
               coherence 1/e time matches the configured T2
               (noise.calibrate_sigma); write it as a config fragment.
tomo           Seven-setting readout simulation (or records-file
               replay) plus maximum-likelihood reconstruction.
schedule-dump  Pulse table of the configured DD sequence.

Configuration is a flat text file of ``dotted.key = value`` lines
(``#`` starts a comment). Unknown keys, malformed values, and duplicate
keys are rejected with line numbers. Environment variables override the
file: ``TRIQ_<KEY>`` with the dots spelled as double underscores
(``TRIQ_BATH__TRAJECTORIES=64`` sets ``bath.trajectories``). The
``--seed`` and ``--out`` flags override both. There is no default seed:
any run that draws random numbers without a configured seed is a
config error.

CSV schema: ``time_s,N1,N2,N3,N3_tri,fidelity,purity`` plus a final
``protection_factor`` column on protected curves, 12 significant
digits. Exit codes: 0 ok, 2 config error (an unwritable output path
too), 3 numerical failure.
"""

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from .analytic import ghz_analytic, w_analytic, wwbar_analytic
from .core import save_matrix
from .ddseq import build_kddxy, build_xy16s, cycle_duration, run_protected, schedule_table
from .measures import DecayCurve, curve_from_states, fidelity
from .noise import T1_S, T2_S, NoiseModel, calibrate_sigma, evolve, fit_grid
from .states import prepare_ghz, prepare_w, prepare_wwbar
from .tomo import mle_reconstruct, read_records, tomograph, write_records

__all__ = ["ConfigError", "load_config", "main", "write_curve_csv", "render_svg"]


class ConfigError(ValueError):
    """Configuration rejected; the message names the key or line."""


def _parse_float(text):
    try:
        v = float(text)
    except ValueError:
        raise ConfigError("not a number: %r" % text)
    if not math.isfinite(v):
        raise ConfigError("value must be finite, got %r" % text)
    return v


def _parse_triple(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("expected three comma-separated numbers, got %r" % text)
    return tuple(_parse_float(p) for p in parts)


def _parse_int(text):
    try:
        return int(text, 10)
    except ValueError:
        raise ConfigError("not an integer: %r" % text)


def _parse_seed(text):
    v = _parse_int(text)
    if not 0 <= v < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer, got %d" % v)
    return v


def _enum(*choices):
    def parse(text):
        if text not in choices:
            raise ConfigError("expected one of %s, got %r" % ("/".join(choices), text))
        return text
    return parse


def _positive(v):
    if v <= 0:
        raise ConfigError("must be positive, got %g" % v)
    return v


def _non_negative(v):
    if v < 0:
        raise ConfigError("must be non-negative, got %g" % v)
    return v


def _identity(v):
    return v


# key -> (value parser, constraint, default); seed has no default on purpose
_SCHEMA = {
    "state": (_enum("ghz", "w", "wwbar"), _identity, "ghz"),
    "spins.t1_s": (_parse_triple, _identity, T1_S),
    "spins.t2_s": (_parse_triple, _identity, T2_S),
    "bath.mode": (_enum("markovian", "correlated"), _identity, "markovian"),
    "bath.sigma_rad_s": (_parse_float, _non_negative, 0.0),
    "bath.tau_c_s": (_parse_float, _non_negative, 0.01),
    "bath.trajectories": (_parse_int, _positive, 256),
    "dd.sequence": (_enum("none", "xy16s", "kddxy"), _identity, "none"),
    "dd.tau_s": (_parse_float, _positive, 0.25e-3),
    "dd.cycles": (_parse_int, _positive, 1),
    "dd.flip_error": (_parse_float, _identity, 0.0),
    "grid.t_final_s": (_parse_float, _non_negative, 1.0),
    "grid.step_s": (_parse_float, _positive, 0.005),
    "tomo.noise_sigma": (_parse_float, _non_negative, 0.0),
    "tomo.records": (str, _identity, ""),
    "calibrate.sigma_lo_rad_s": (_parse_float, _positive, 1.0),
    "calibrate.sigma_hi_rad_s": (_parse_float, _positive, 60.0),
    "out.dir": (str, _identity, "."),
    "seed": (_parse_seed, _identity, None),
}


def _defaults():
    return {k: d for k, (_, _, d) in _SCHEMA.items() if d is not None}


def _set_key(cfg, key, raw, where):
    if key not in _SCHEMA:
        raise ConfigError("%s: unknown key %r" % (where, key))
    parse, constrain, _ = _SCHEMA[key]
    try:
        val = parse(raw.strip() if isinstance(raw, str) else raw)
        constrain(val)
    except ConfigError as err:
        raise ConfigError("%s: %s: %s" % (where, key, err))
    cfg[key] = val


def parse_config(text, name="<config>"):
    """Parse config text onto the defaults; strict and line-diagnosed."""
    cfg = _defaults()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (name, lineno))
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError("%s:%d: duplicate key %r" % (name, lineno, key))
        seen.add(key)
        _set_key(cfg, key, value, "%s:%d" % (name, lineno))
    return cfg


def _apply_env(cfg, environ):
    for name in sorted(environ):
        if not name.startswith("TRIQ_"):
            continue
        key = name[len("TRIQ_"):].lower().replace("__", ".")
        _set_key(cfg, key, environ[name], "environment %s" % name)


def load_config(path=None, environ=None, seed=None, out_dir=None):
    """Defaults, then config file, then TRIQ_ environment, then flags."""
    if path is not None:
        try:
            with open(path) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError("cannot read config %s: %s" % (path, err))
        cfg = parse_config(text, name=path)
    else:
        cfg = _defaults()
    _apply_env(cfg, environ if environ is not None else os.environ)
    if seed is not None:
        _set_key(cfg, "seed", str(seed), "--seed")
    if out_dir is not None:
        cfg["out.dir"] = out_dir
    return cfg


def _require_seed(cfg, why):
    if "seed" not in cfg:
        raise ConfigError("seed required: %s draws random numbers" % why)
    return cfg["seed"]


def _noise_model(cfg, **bath):
    """The configured rates, kappa_x = 1/T1 and kappa_z = 1/T2, under the
    NoiseModel bath keywords ``bath``; only a bad T1/T2 is a spins: error."""
    try:
        rates = NoiseModel.from_times(cfg["spins.t1_s"], cfg["spins.t2_s"])
    except ValueError as err:
        raise ConfigError("spins: %s" % err)
    return dataclasses.replace(rates, **bath)


_PREPARE = {"ghz": prepare_ghz, "w": prepare_w, "wwbar": prepare_wwbar}
_ANALYTIC = {"ghz": ghz_analytic, "w": w_analytic, "wwbar": wwbar_analytic}
_BUILDERS = {"xy16s": build_xy16s, "kddxy": build_kddxy}


def _schedule(cfg):
    """The configured DD schedule, with its cycle count."""
    if cfg["dd.sequence"] == "none":
        raise ConfigError("dd.sequence must be xy16s or kddxy, got none")
    return _BUILDERS[cfg["dd.sequence"]](
        cfg["dd.tau_s"], cycles=cfg["dd.cycles"], flip_error=cfg["dd.flip_error"])


_CSV_HEADER = "time_s,N1,N2,N3,N3_tri,fidelity,purity"


def _check_ranges(metrics):
    """Reject a non-finite or out-of-range column of the (n, 6) metric
    table N1, N2, N3, N3_tri, fidelity, purity."""
    if not len(metrics):
        return
    eps = 1e-9
    finite = np.isfinite(metrics).all(axis=0)
    lo, hi = metrics.min(axis=0), metrics.max(axis=0)
    for name, ok, a, b in zip(_CSV_HEADER.split(",")[1:], finite, lo, hi):
        if not ok:
            raise RuntimeError("non-finite %s value in output" % name)
        if a < -eps or b > 1.0 + eps:
            raise RuntimeError("%s outside [0, 1]: [%g, %g]" % (name, a, b))
    if lo[5] < 0.125 - eps:
        raise RuntimeError("purity below 1/8: %g" % lo[5])


def write_curve_csv(path, curve, protection=None):
    """Write curve as %.12g CSV, plus an optional protection_factor column."""
    header = _CSV_HEADER
    cols = [curve.times, curve.n1, curve.n2, curve.n3, curve.n3_tri,
            curve.fidelity, curve.purity]
    if protection is not None:
        header += ",protection_factor"
        cols.append(protection)
    table = np.column_stack(cols)
    _check_ranges(table[:, 1:7])
    # the whole table in one format call, over Python floats
    row = ",".join(["%.12g"] * len(cols))
    text = "\n".join([header] + [row] * len(table)) % tuple(table.ravel().tolist())
    with open(path, "w") as f:
        f.write(text + "\n")


#
# Minimal self-contained SVG line plot; deterministic bytes.
#

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_PLOT = (64.0, 18.0, 700.0, 398.0)  # x0, y0, x1, y1 of the data box
# every plot is a curve's tripartite negativity against time
_XLABEL = "time / s"
_YLABEL = "tripartite negativity"


def _ticks(lo, hi):
    span = hi - lo
    raw = span / 4.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for m in (1.0, 2.0, 2.5, 5.0):
        if m * mag >= raw - 1e-12 * span:
            step = m * mag
            break
    first = math.ceil(lo / step - 1e-9)
    out = []
    k = first
    while k * step <= hi + 1e-9 * span:
        v = k * step
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        k += 1
    return out


def render_svg(path, title, series):
    """Plot each (label, xs, ys) of series, xs and ys float arrays, as SVG,
    with time on the x axis and tripartite negativity on the y axis."""
    xs_all = np.concatenate([np.empty(0), *(xs for _, xs, _ in series)])
    ys_all = np.concatenate([np.empty(0), *(ys for _, _, ys in series)])
    x_lo, x_hi = (xs_all.min(), xs_all.max()) if xs_all.size else (0.0, 1.0)
    y_lo, y_hi = (ys_all.min(), ys_all.max()) if ys_all.size else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px0, py0, px1, py1 = _PLOT

    def sx(v):  # a float or an array
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v):
        return py1 - (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440" '
        'viewBox="0 0 720 440" font-family="monospace" font-size="11">',
        '<rect x="0" y="0" width="720" height="440" fill="#ffffff"/>',
        '<text x="382" y="13" text-anchor="middle" font-size="13">%s</text>' % title,
    ]
    for v in _ticks(x_lo, x_hi):
        x = sx(v)
        parts.append('<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" stroke="#dddddd"/>'
                     % (x, py0, x, py1))
        parts.append('<text x="%.6g" y="%.6g" text-anchor="middle">%.6g</text>'
                     % (x, py1 + 16, v))
    for v in _ticks(y_lo, y_hi):
        y = sy(v)
        parts.append('<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" stroke="#dddddd"/>'
                     % (px0, y, px1, y))
        parts.append('<text x="%.6g" y="%.6g" text-anchor="end">%.6g</text>'
                     % (px0 - 6, y + 4, v))
    parts.append('<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" '
                 'fill="none" stroke="#333333"/>' % (px0, py0, px1 - px0, py1 - py0))
    parts.append('<text x="%.6g" y="434" text-anchor="middle">%s</text>'
                 % ((px0 + px1) / 2.0, _XLABEL))
    parts.append('<text x="14" y="%.6g" text-anchor="middle" '
                 'transform="rotate(-90 14 %.6g)">%s</text>'
                 % ((py0 + py1) / 2.0, (py0 + py1) / 2.0, _YLABEL))
    for i, (label, xs, ys) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        if len(xs):
            pts = " ".join(map("%.6g,%.6g".__mod__,
                               zip(sx(xs).tolist(), sy(ys).tolist())))
            parts.append('<polyline points="%s" fill="none" stroke="%s" '
                         'stroke-width="1.5"/>' % (pts, color))
        ly = py0 + 16 + 16 * i
        parts.append('<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" stroke="%s" '
                     'stroke-width="1.5"/>' % (px1 - 150, ly, px1 - 126, ly, color))
        parts.append('<text x="%.6g" y="%.6g">%s</text>' % (px1 - 120, ly + 4, label))
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def _out_paths(cfg, *names):
    """The paths of ``names`` in out.dir, which is made here: a command
    calls this once, right before its first write, so that a run that
    fails before writing leaves no directory behind."""
    out = cfg["out.dir"]
    os.makedirs(out, exist_ok=True)
    return [os.path.join(out, name) for name in names]


def _emit(*paths):
    for path in paths:
        print("wrote %s" % path)


def cmd_decay(cfg):
    """Markovian decay sweep plus the closed-form overlay."""
    if cfg["bath.mode"] != "markovian":
        raise ConfigError("decay runs the Markovian model; set bath.mode = markovian")
    noise = _noise_model(cfg)
    rho0 = _PREPARE[cfg["state"]]()
    t_final = cfg["grid.t_final_s"]
    step = cfg["grid.step_s"]
    # a grid shrunk to fit t_final would silently change the sample spacing
    if not math.isclose(fit_grid(t_final, step)[0] * step, t_final, rel_tol=1e-9):
        raise ConfigError(
            "grid.t_final_s = %.12g s is not a whole number of grid.step_s = %.12g s"
            % (t_final, step))
    if t_final == 0.0:
        curve = oracle = DecayCurve(*[np.empty(0)] * 7)
        series = []
    else:
        # the damping acts in closed form, so one step per sample is exact
        curve = evolve(rho0, noise, t_final, step)
        family = _ANALYTIC[cfg["state"]]
        oracle = curve_from_states(curve.times, family(curve.times, noise), rho0)
        series = [("numeric", curve.times, curve.n3_tri),
                  ("closed form", curve.times, oracle.n3_tri)]
    csv_path, ref_path, svg_path = _out_paths(
        cfg, "decay.csv", "decay_analytic.csv", "decay.svg")
    write_curve_csv(csv_path, curve)
    write_curve_csv(ref_path, oracle)
    render_svg(svg_path, "decay: %s" % cfg["state"], series)
    _emit(csv_path, ref_path, svg_path)
    return 0


def cmd_protect(cfg):
    """Paired protected/unprotected correlated-bath runs."""
    schedule = _schedule(cfg)
    if cfg["bath.mode"] != "correlated":
        raise ConfigError("protect requires bath.mode = correlated")
    seed = _require_seed(cfg, "the correlated bath")
    noise = _noise_model(
        cfg, bath_mode="correlated", ou_sigma=cfg["bath.sigma_rad_s"],
        ou_tau_c=cfg["bath.tau_c_s"], trajectories=cfg["bath.trajectories"],
        seed=seed)
    protected, unprotected = run_protected(_PREPARE[cfg["state"]](), noise, schedule)
    # p/0 is inf and 0/0 nan: no entanglement left to protect
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(protected.n3_tri, unprotected.n3_tri)
    prot_path, unprot_path, svg_path = _out_paths(
        cfg, "protected.csv", "unprotected.csv", "protect.svg")
    write_curve_csv(prot_path, protected, protection=ratio)
    write_curve_csv(unprot_path, unprotected)
    render_svg(svg_path, "%s under %s" % (cfg["state"], cfg["dd.sequence"]),
               [("protected", protected.times, protected.n3_tri),
                ("unprotected", unprotected.times, unprotected.n3_tri)])
    _emit(prot_path, unprot_path, svg_path)
    print("protection factor at %.6g s: %.6g" % (protected.times[-1], ratio[-1]))
    return 0


def cmd_calibrate(cfg):
    """Bisect ou_sigma to the configured qubit-1 T2.

    Writes the sigma of noise.calibrate_sigma as a config fragment."""
    if cfg["bath.mode"] != "correlated":
        raise ConfigError("calibrate requires bath.mode = correlated")
    seed = _require_seed(cfg, "the correlated bath")
    rates = _noise_model(cfg)
    target = cfg["spins.t2_s"][0]
    tau_c = cfg["bath.tau_c_s"]
    if tau_c <= 0:
        raise ConfigError("calibrate requires bath.tau_c_s > 0")
    traj = cfg["bath.trajectories"]
    lo = cfg["calibrate.sigma_lo_rad_s"]
    hi = cfg["calibrate.sigma_hi_rad_s"]
    if hi <= lo:
        raise ConfigError("calibrate.sigma_hi_rad_s must exceed sigma_lo_rad_s")
    sigma, achieved, iterations = calibrate_sigma(target, tau_c, traj, seed, lo, hi)
    path, = _out_paths(cfg, "calibration.txt")
    with open(path, "w") as f:
        f.write("# calibrated correlated-bath fragment; paste into a config\n")
        f.write("bath.mode = correlated\n")
        f.write("bath.sigma_rad_s = %.12g\n" % sigma)
        f.write("bath.tau_c_s = %.12g\n" % tau_c)
        f.write("bath.trajectories = %d\n" % traj)
        f.write("seed = %d\n" % seed)
        f.write("# kappa_x = %s\n" % ",".join("%.12g" % k for k in rates.kappa_x))
        f.write("# kappa_z = %s\n" % ",".join("%.12g" % k for k in rates.kappa_z))
        f.write("# target_t2_s = %.12g\n" % target)
        f.write("# achieved_one_over_e_s = %.12g\n" % achieved)
        f.write("# bisection_iterations = %d\n" % iterations)
    _emit(path)
    print("sigma = %.6g rad/s, 1/e time %.6g s (target %.6g s)"
          % (sigma, achieved, target))
    return 0


def cmd_tomo(cfg):
    """Readout simulation or replay, reconstruction, fidelity report."""
    rho_ref = _PREPARE[cfg["state"]]()
    records_path = cfg["tomo.records"]
    names = ("tomo_true.json", "tomo_reconstructed.json", "tomo_report.txt")
    if records_path:
        try:
            records = read_records(records_path)
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError("cannot read records %s: %s" % (records_path, err))
    else:
        sigma = cfg["tomo.noise_sigma"]
        seed = _require_seed(cfg, "readout noise") if sigma > 0 else cfg.get("seed", 0)
        records = tomograph(rho_ref, noise_sigma=sigma, seed=seed)
        # written before the fit, which may still fail
        rec_out, *paths = _out_paths(cfg, "tomo_records.txt", *names)
        write_records(records, rec_out)
        _emit(rec_out)
    est = mle_reconstruct(records)
    fid = fidelity(rho_ref, est)  # the pure prepared state is the reference
    true_path, est_path, report_path = (
        _out_paths(cfg, *names) if records_path else paths)
    save_matrix(true_path, rho_ref)
    save_matrix(est_path, est)
    with open(report_path, "w") as f:
        f.write("state = %s\n" % cfg["state"])
        f.write("settings = %d\n" % len(records))
        f.write("fidelity = %.12g\n" % fid)
    _emit(true_path, est_path, report_path)
    print("fidelity = %.12g" % fid)
    return 0


def cmd_schedule_dump(cfg):
    """Write the pulse table of the configured sequence."""
    schedule = _schedule(cfg)
    path, = _out_paths(cfg, "schedule.csv")
    with open(path, "w") as f:
        f.write(schedule_table(schedule))
    _emit(path)
    print("cycle duration %.12g s, %d pulses per cycle"
          % (cycle_duration(schedule), len(schedule.pulses)))
    return 0


_COMMANDS = {
    "decay": cmd_decay,
    "protect": cmd_protect,
    "calibrate": cmd_calibrate,
    "tomo": cmd_tomo,
    "schedule-dump": cmd_schedule_dump,
}


@functools.lru_cache(maxsize=None)
def _parser():
    # built once: parsing leaves the parser unchanged, and repeated
    # in-process calls of main need not rebuild five subparsers
    parser = argparse.ArgumentParser(
        prog="triq",
        description="three-qubit decay, decoupling, and tomography runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", default=None, metavar="PATH")
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--seed", default=None, metavar="U64")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(path=args.config, seed=args.seed, out_dir=args.out)
        return _COMMANDS[args.command](cfg)
    # core.NumericalError (an unphysical state, or a failed cross-check)
    # is an ArithmeticError; LinAlgError is a ValueError, so it goes first
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return 3
    except ValueError as err:
        # a ConfigError, or a library routine rejecting a config value
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        # reads are ConfigErrors already: only out.dir or an output
        # file that cannot be made is left; err names its path
        print("config error: cannot write output: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
