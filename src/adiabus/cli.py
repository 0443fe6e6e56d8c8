"""Command-line sweep harness.

``adiabus <experiment> --config cfg.json [--out dir] [--workers n]``
runs every grid point of a JSON experiment configuration, writes one CSV
(fixed per-experiment schema, 12 significant digits), a manifest JSON with
per-point statuses, and a gnuplot script for the matching figure type.
One table row per experiment (``_EXPERIMENTS``) gives the config keys it
reads, the axes it sweeps, its CSV columns, its point function and its plot.
Points are independent tasks: a gap-scan point is one parameter column, and
a transport point is one tau that reads every Bloch input from one
evolution per sector.  ``--workers`` alone sets the pool size, capped at the
CPU and point counts; each process runs one BLAS thread (see ``__init__``).
Any worker count gives byte-identical CSV: results come back in grid order
and each point is computed by the same sequential deterministic code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import _BLAS_THREAD_VARS, __version__
from .anneal import (
    SearchSettings,
    default_sector,
    fidelity,
    find_anneal_time,
    gap_scan,
    sector_levels,
    sector_pair,
    transport_qubit,
)
from .basis import SectorSpec, enumerate_sector
from .errors import ParseError, SchemaMismatch, ValidationError
from .model import (
    CARDINAL_BLOCH,
    BlochVector,
    ChainModel,
    ProtocolSpec,
    coupling_triple,
    dynamic_j2_protocol,
    evaluate_protocol,
    j1j2_chain,
    join_protocol,
    protocol_from_dict,
    reverse_protocol,
    simultaneous_protocol,
    xyz_couplings,
)
from .solver import PropagatorConfig, build_sector_operator

PROTOCOLS = ("join", "unjoin", "dynamic-j2", "unjoin-dynamic", "simultaneous")
PARAM_KEY = {"j1j2": "J2", "ising": "J2", "xxz": "ratio", "xyz": "delta"}
SECTOR_NAMES = ("auto", "ceil", "full", "parity-even", "parity-odd")
# Which config keys a run reads (see keys_read).  Every run reads _COMMON_KEYS
# and its experiment's keys (in _EXPERIMENTS).  Its couplings come from one
# of two places: a protocol_spec, else the model, its coupling keys and a
# named protocol, if any.  A spectrum evaluates either protocol at s.
# config_from_dict rejects any other key unless it holds its default, and
# to_dict echoes exactly the keys read.
_COMMON_KEYS = ("experiment", "N", "out_prefix")
_SEARCH_KEYS = tuple(f.name for f in fields(SearchSettings))
_COUPLING_KEYS = {
    "j1j2": ("J1", "J2"),
    "xxz": ("ratio", "xxz_j2"),
    "xyz": ("delta",),
    "ising": ("J1", "J2"),
}
MODELS = tuple(_COUPLING_KEYS)
_FIELD_OF_KEY = {"N": "n_values", "J1": "j1", "s_grid": "s_values", "tau": "tau_values"}
_CARDINALS = tuple((b.x, b.y, b.z) for b in CARDINAL_BLOCH)


@dataclass
class ExperimentConfig:
    experiment: str
    model: str = "j1j2"
    protocol: str | None = None
    protocol_spec: dict | None = None
    n_values: tuple[int, ...] = ()
    param_values: tuple[float, ...] = ()
    j1: float = 1.0
    xxz_j2: float = 0.0
    s: float = 1.0
    s_values: tuple[float, ...] = ()
    tau_values: tuple[float, ...] = ()
    target: float = 0.9
    search: SearchSettings = field(default_factory=SearchSettings)
    sector: str | int = "auto"
    levels: int = 6
    bloch: tuple[tuple[float, float, float], ...] = _CARDINALS
    solver: PropagatorConfig = field(default_factory=PropagatorConfig)
    out_prefix: str | None = None

    @property
    def param_key(self) -> str:
        return PARAM_KEY[self.model]

    def keys_read(self) -> frozenset[str]:
        """The config keys this run reads (see _EXPERIMENTS and _COUPLING_KEYS)."""
        exp = _EXPERIMENTS[self.experiment]
        keys = {*_COMMON_KEYS, *exp.keys}
        if self.protocol_spec is not None:
            keys.add("protocol_spec")
        elif self.protocol is not None:
            keys.update(("model", "protocol", *_COUPLING_KEYS[self.model]))
        else:  # a static chain of the model's couplings
            keys.update(("model", *_COUPLING_KEYS[self.model]))
            keys.discard("s")
        return frozenset(keys)

    def value(self, key: str):
        """The JSON value of config key ``key``, as config_from_dict reads it."""
        if key == "solver":
            return asdict(self.solver)
        if key == self.param_key:
            return list(self.param_values)
        owner = self.search if key in _SEARCH_KEYS else self
        return _plain(getattr(owner, _FIELD_OF_KEY.get(key, key)))

    def to_dict(self) -> dict:
        """The keys this run reads, each with the value it read."""
        return {key: self.value(key) for key in sorted(self.keys_read())}


def _plain(value):
    """Tuples, nested ones too, as JSON lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _number(value, name: str, integral: bool = False):
    """A finite JSON number as a float, or as an int if ``integral``; else ValidationError."""
    try:  # an int too large for a float overflows
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ValidationError(name, f"{name} must be a finite number, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(name, f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_tuple(value, name: str, integral: bool = False) -> tuple:
    """A scalar or a list of JSON numbers as a tuple; None is empty."""
    if value is None:
        return ()
    if np.isscalar(value):
        value = [value]
    return tuple(_number(v, name, integral) for v in value)


def parse_config(text: str, default_experiment: str | None = None) -> ExperimentConfig:
    """JSON text -> validated ExperimentConfig with defaults filled in."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("configuration must be a JSON object")
    if default_experiment is not None:
        raw.setdefault("experiment", default_experiment)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    model = raw.get("model", "j1j2")
    if model not in MODELS:
        raise ValidationError("model", f"unknown model {model!r}")
    unknown = sorted(set(raw) - _CONFIG_KEYS - {PARAM_KEY[model]})
    if unknown:
        key = unknown[0]
        raise ValidationError(key, f"unknown config key {key!r} for model {model!r}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ValidationError("experiment", f"unknown experiment {experiment!r}")
    exp = _EXPERIMENTS[experiment]
    protocol = raw.get("protocol")
    protocol_spec = raw.get("protocol_spec")
    if protocol is not None and protocol not in PROTOCOLS:
        raise ValidationError("protocol", f"unknown protocol {protocol!r}")
    if not exp.static and protocol is None and protocol_spec is None:
        raise ValidationError("protocol", f"{experiment} needs a protocol")
    if protocol in ("dynamic-j2", "unjoin-dynamic") and model != "j1j2":
        raise ValidationError("protocol", "dynamic J2 schedules are defined for the j1j2 model")
    spec = None
    if protocol_spec is not None:
        try:
            spec = protocol_from_dict(protocol_spec)
        except Exception as e:
            raise ValidationError("protocol_spec", str(e)) from None

    n_values = _as_tuple(raw.get("N"), "N", integral=True)
    if spec is not None and n_values not in ((), (spec.n_spins,)):
        raise ValidationError("N", f"N must be [{spec.n_spins}], the protocol_spec's n_spins")
    if spec is None:
        if not n_values:
            raise ValidationError("N", "N grid must be nonempty")
        min_n = 2 if protocol is None else (4 if protocol == "simultaneous" else 3)
        if any(n < min_n for n in n_values):
            raise ValidationError("N", f"N values must be >= {min_n}")

    param_key = PARAM_KEY[model]
    param_values = _as_tuple(raw.get(param_key), param_key)
    if not param_values:
        if spec is None:
            raise ValidationError(param_key, f"{param_key} grid must be nonempty")
        param_values = (0.0,)

    s = _number(raw.get("s", 1.0), "s")
    s_values = _as_tuple(raw.get("s_grid"), "s_grid")
    for name, points in (("s", (s,)), ("s_grid", s_values)):
        if not all(0.0 <= x <= 1.0 for x in points):
            raise ValidationError(name, f"{name} must lie in [0, 1]")
    if experiment == "gap-scan" and not s_values:
        if raw.get("s_grid") is not None:
            raise ValidationError("s_grid", "s_grid must be nonempty")
        s_values = tuple(np.round(np.linspace(0.0, 1.0, 51), 10))
    tau_values = _as_tuple(raw.get("tau"), "tau")
    if not all(t >= 0.0 for t in tau_values):
        raise ValidationError("tau", "tau values must be >= 0")

    target = _number(raw.get("target", 0.9), "target")
    if not 0.0 < target < 1.0:
        raise ValidationError("target", "target fidelity must lie in (0, 1)")
    try:
        search = SearchSettings(**{k: _number(raw[k], k) for k in _SEARCH_KEYS if k in raw})
    except ValueError as e:
        raise ValidationError("search", str(e)) from None

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ValidationError("solver", "solver settings must be an object")
    unknown = sorted(set(solver_raw) - {f.name for f in fields(PropagatorConfig)})
    if unknown:
        raise ValidationError("solver", f"unknown solver key {unknown[0]!r}")
    # a key left out keeps PropagatorConfig's default; null only picks the dt policy
    try:
        solver = PropagatorConfig(**{
            k: None if v is None and k in ("step_count", "dt")
            else _number(v, k, integral=k in ("step_count", "krylov_dim"))
            for k, v in solver_raw.items()
        })
    except (ValueError, ValidationError) as e:
        raise ValidationError("solver", str(e)) from None

    sector = raw.get("sector", "auto")
    is_k = isinstance(sector, int) and not isinstance(sector, bool)
    if not (is_k or sector in SECTOR_NAMES):
        raise ValidationError("sector", f"unknown sector {sector!r}")

    bloch_raw = raw.get("bloch")
    if bloch_raw is None:
        bloch = _CARDINALS
    else:
        try:
            bloch = tuple(tuple(_number(x, "bloch") for x in b) for b in bloch_raw)
            for b in bloch:
                BlochVector(*b)
        except (TypeError, ValueError) as e:
            raise ValidationError("bloch", str(e)) from None
        if not bloch:
            raise ValidationError("bloch", "bloch grid must be nonempty")

    if spec is not None and not n_values:
        n_values = (spec.n_spins,)
    # an axis the experiment does not sweep holds one value (see _grid_points)
    for axis, key, values in (("n", "N", n_values), ("param", param_key, param_values)):
        if axis not in exp.axes and len(values) != 1:
            raise ValidationError(key, f"{key} must hold one value; {experiment} sweeps no {key}")
    if "tau" in exp.axes and not tau_values:
        raise ValidationError("tau", f"{experiment} needs a tau grid")
    if is_k and not all(0 <= sector <= n for n in n_values):
        raise ValidationError("sector", f"sector k={sector} must lie in 0..N")
    if experiment == "transport" and any(n % 2 == 0 for n in n_values):
        raise ValidationError("N", "transport needs an odd number of spins")

    out_prefix = raw.get("out_prefix")
    if out_prefix is not None and (
        not isinstance(out_prefix, str)
        or out_prefix in ("", ".", "..")
        or any(c in out_prefix for c in {os.sep, "/", "\0"})
    ):
        raise ValidationError("out_prefix", f"out_prefix must be a file name, got {out_prefix!r}")

    levels = _number(raw.get("levels", 6), "levels", integral=True)
    if levels < 1:
        raise ValidationError("levels", "levels must be >= 1")

    cfg = ExperimentConfig(
        experiment=experiment,
        model=model,
        protocol=protocol,
        protocol_spec=protocol_spec,
        n_values=n_values,
        param_values=param_values,
        j1=_number(raw.get("J1", 1.0), "J1"),
        xxz_j2=_number(raw.get("xxz_j2", 0.0), "xxz_j2"),
        s=s,
        s_values=s_values,
        tau_values=tau_values,
        target=target,
        search=search,
        sector=sector,
        levels=levels,
        bloch=bloch,
        solver=solver,
        out_prefix=out_prefix,
    )
    # a key the run never reads must be absent or hold its default; a sweep
    # axis has none, as its default grid is empty and no config parses to that.
    # The model names the sweep axis, so the defaults keep it, but an unread
    # model must itself be the default one
    default = ExperimentConfig(experiment, model)
    for key in sorted(set(raw) - cfg.keys_read()):
        held = ExperimentConfig.model if key == "model" else default.value(key)
        if cfg.value(key) != held:
            raise ValidationError(
                key, f"{key!r} is never read by this {experiment} run; drop it or give its default"
            )
    # a magnetization sector needs conserving couplings, where the run reads
    # them: a family model's at every swept value, so xyz's only at delta 0
    triples = [coupling_triple(c) for v in param_values for c in _family_couplings(cfg, v)]
    conserves = (
        spec.conserves_magnetization() if spec is not None
        else all(jx == jy for jx, jy, _ in triples)
    )
    if (is_k or sector == "ceil") and not conserves:
        raise ValidationError("sector", f"sector {sector!r} needs couplings with jx = jy")
    return cfg


def _family_couplings(cfg: ExperimentConfig, param: float):
    if cfg.model == "xxz":
        nn = (1.0, 1.0, param)
        nnn = (cfg.xxz_j2, cfg.xxz_j2, cfg.xxz_j2 * param) if cfg.xxz_j2 else 0.0
    elif cfg.model == "xyz":
        nn, nnn = xyz_couplings(param), 0.0
    elif cfg.model == "ising":
        nn, nnn = (0.0, 0.0, cfg.j1), (0.0, 0.0, param)
    else:
        nn, nnn = cfg.j1, param
    return nn, nnn


def build_protocol(cfg: ExperimentConfig, n: int, param: float) -> ProtocolSpec:
    if cfg.protocol_spec is not None:
        return protocol_from_dict(cfg.protocol_spec)
    nn, nnn = _family_couplings(cfg, param)
    kind = cfg.protocol
    if kind == "join":
        return join_protocol(n, nn, nnn)
    if kind == "unjoin":
        return reverse_protocol(join_protocol(n, nn, nnn))
    if kind == "dynamic-j2":
        return dynamic_j2_protocol(n, cfg.j1, param)
    if kind == "unjoin-dynamic":
        return reverse_protocol(dynamic_j2_protocol(n, cfg.j1, param))
    if kind == "simultaneous":
        return simultaneous_protocol(n, nn, nnn)
    raise ValidationError("protocol", f"unknown protocol {kind!r}")


def build_static_model(cfg: ExperimentConfig, n: int, param: float) -> ChainModel:
    if cfg.protocol is not None or cfg.protocol_spec is not None:
        return evaluate_protocol(build_protocol(cfg, n, param), cfg.s)
    return j1j2_chain(n, *_family_couplings(cfg, param))


def resolve_sector(cfg: ExperimentConfig, system: ProtocolSpec | ChainModel) -> SectorSpec:
    """The configured sector of a protocol or static model."""
    sec = cfg.sector
    n = system.n_spins
    if isinstance(sec, int):
        return SectorSpec.magnetization(n, sec)
    if sec == "auto":
        return default_sector(system)
    if sec == "ceil":
        return SectorSpec.magnetization(n, (n + 1) // 2)
    if sec == "full":
        return SectorSpec.full(n)
    return SectorSpec.parity(n, sec.split("-", 1)[1])


# ----------------------------------------------------------------- points
# A point function returns its rows, tuples in its experiment's column order,
# and its status, and may add a dict of fields for its manifest record, such
# as an error message.

def _point_anneal_time(cfg, n, param):
    p = build_protocol(cfg, n, param)
    r = find_anneal_time(p, resolve_sector(cfg, p), cfg.target, cfg.search, cfg.solver)
    search = {"evaluations": len(r.trace), "tau_sum": sum(tau for tau, _ in r.trace),
              "screened": r.screened}
    return [(p.n_spins, param, r.tau_star, r.fidelity_at_tau_star, r.status)], r.status, search


def _point_gap_column(cfg, n, param):
    p = build_protocol(cfg, n, param)
    gaps = gap_scan(p, cfg.s_values, resolve_sector(cfg, p))
    rows = [(s, param, gap) for s, gap in zip(cfg.s_values, gaps)]
    blank = [_fmt(s) for s, gap in zip(cfg.s_values, gaps) if math.isnan(gap)]
    if not blank:
        return rows, "ok"
    return rows, "partial:NoConvergence", {
        "error": f"eigensolve did not converge at s = {', '.join(blank)}"}


def _point_fidelity(cfg, n, param, tau):
    p = build_protocol(cfg, n, param)
    return [(tau, fidelity(p, tau, resolve_sector(cfg, p), cfg.solver))], "ok"


def _point_transport(cfg, n, param, tau):
    p = build_protocol(cfg, n, param)
    results = transport_qubit(p, [BlochVector(*b) for b in cfg.bloch], tau, cfg.solver)
    rows = [
        (*bloch, tau, r.bloch_out.x, r.bloch_out.y, r.bloch_out.z, r.qubit_fidelity)
        for bloch, r in zip(cfg.bloch, results)
    ]
    return rows, "ok"


def _union_levels(cfg, model):
    energies = []
    for spec in sector_pair(resolve_sector(cfg, model)):
        res = sector_levels(build_sector_operator(model, enumerate_sector(spec)), cfg.levels)
        energies.extend(float(e) for e in res.eigenvalues)
    energies.sort()
    return energies[: cfg.levels]


def _point_spectrum(cfg, n, param):
    model = build_static_model(cfg, n, param)
    energies = _union_levels(cfg, model)
    return [(model.n_spins, param, k, e) for k, e in enumerate(energies)], "ok"


def _point_degeneracy(cfg, n, param):
    energies = _union_levels(cfg, build_static_model(cfg, n, param))
    rows = [
        (k, e, abs(energies[k ^ 1] - e) if k ^ 1 < len(energies) else math.nan)
        for k, e in enumerate(energies)
    ]
    return rows, "ok"


# ------------------------------------------------------------------ table

@dataclass(frozen=True)
class Plot:
    """A gnuplot figure of CSV columns, numbered from 1.

    ``using`` is (x, y) for a line plot, one curve per distinct value of the
    ``series`` columns titled ``title.format(*value)`` (one untitled curve
    without them), or (x, y, colour) for a heat map.
    """

    xlabel: str
    ylabel: str
    settings: tuple[str, ...]
    using: tuple[int, ...]
    series: tuple[int, ...] = ()
    title: str = ""


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment.

    ``keys`` are the config keys it reads besides _COMMON_KEYS and its
    couplings.  ``axes`` are the grid axes it sweeps, of ``n``, ``param`` (the
    model's sweep axis) and ``tau``; an unswept ``n`` or ``param`` holds one
    value, and ``tau`` is a point argument only when swept.  ``point(cfg,
    **grid_point)`` gives rows in ``columns`` order.  A ``static`` experiment
    needs no protocol.  With ``column_points`` each point is a column of rows,
    and the CSV is written row index by row index.
    """

    keys: tuple[str, ...]
    axes: tuple[str, ...]
    columns: tuple[str, ...]
    point: Callable
    static: bool = False
    column_points: bool = False
    plot: Plot | None = None


_TAU_STAR_LABEL = "annealing time to target fidelity"
_EXPERIMENTS = {
    "spectrum": Experiment(
        ("s", "sector", "levels"), ("n", "param"), ("N", "param", "level", "energy"),
        _point_spectrum, static=True,
    ),
    "gap-scan": Experiment(
        ("s_grid", "sector"), ("param",), ("s", "param", "gap"), _point_gap_column,
        column_points=True,  # rows run s-major
        plot=Plot(
            "coupling parameter", "schedule point s",
            # gaps span decades near crossings
            ("set cblabel 'sector gap'", "set logscale cb", "set view map"), (2, 1, 3),
        ),
    ),
    "fidelity-curve": Experiment(
        ("tau", "sector", "solver"), ("tau",), ("tau", "fidelity"), _point_fidelity,
        plot=Plot("annealing time", "final ground-space fidelity", (), (1, 2)),
    ),
    "anneal-time": Experiment(
        ("target", *_SEARCH_KEYS, "sector", "solver"), ("n", "param"),
        ("N", "param", "tau_star", "fidelity", "status"), _point_anneal_time,
        plot=Plot(
            "coupling parameter", _TAU_STAR_LABEL, ("set logscale y", "set key top left"),
            (2, 3), (1,), "N={}",
        ),
    ),
    "transport": Experiment(
        ("tau", "bloch", "solver"), ("tau",),
        ("bx_in", "by_in", "bz_in", "tau", "bx_out", "by_out", "bz_out", "qubit_fidelity"),
        _point_transport, column_points=True,  # rows run Bloch-major, tau-minor
        plot=Plot(
            "annealing time", "qubit fidelity", ("set key bottom right",),
            (4, 8), (1, 2, 3), "({},{},{})",
        ),
    ),
    "degeneracy-check": Experiment(
        ("s", "sector", "levels"), (), ("level", "energy", "pair_split"),
        _point_degeneracy, static=True,
    ),
}
EXPERIMENTS = tuple(_EXPERIMENTS)
# every key of any model, besides the model's own sweep axis
_CONFIG_KEYS = frozenset(_COMMON_KEYS + ("model", "protocol", "protocol_spec")).union(
    *(exp.keys for exp in _EXPERIMENTS.values()), *_COUPLING_KEYS.values()
) - set(PARAM_KEY.values())
# template -> (CSV columns, plot): each experiment's own figure, and time-scaling,
# tau* against N on log-log axes from the anneal-time columns
PLOT_TEMPLATES = {
    name: (exp.columns, exp.plot) for name, exp in _EXPERIMENTS.items() if exp.plot
} | {
    "time-scaling": (
        _EXPERIMENTS["anneal-time"].columns,
        Plot("chain length N", _TAU_STAR_LABEL, ("set logscale xy", "set key top left"),
             (1, 3), (2,), "param={}"),
    ),
}


# ------------------------------------------------------------------- runs

def _grid_points(cfg: ExperimentConfig) -> list[dict]:
    """One point per value of each axis, N outermost (see Experiment.axes)."""
    axes = {"n": cfg.n_values, "param": cfg.param_values}
    if "tau" in _EXPERIMENTS[cfg.experiment].axes:
        axes["tau"] = cfg.tau_values
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


def _run_point(payload):
    cfg, params = payload
    t0 = time.perf_counter()
    try:
        rows, status, *record = _EXPERIMENTS[cfg.experiment].point(cfg, **params)
        record = record[0] if record else {}
    except Exception as e:  # one bad point must not abort the sweep
        rows, status, record = [], f"failed:{type(e).__name__}", {"error": str(e)}
    return rows, status, record, time.perf_counter() - t0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return format(v, ".12g")


def _environment() -> dict:
    """What the run ran on, for the manifest: versions, CPUs and BLAS threads.

    The BLAS variables are read after ``import adiabus`` has defaulted them to
    one thread; pool workers inherit them, so this holds at any worker count.
    """
    return {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "adiabus": __version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
    }


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path = ".",
    workers: int = 1,
) -> dict:
    """Execute all grid points and write CSV + manifest + plot script.

    Uses at most ``workers`` processes, one per CPU and per point, and records
    the count in the manifest.  Per-point failures leave blank cells and are
    recorded there; they never abort sibling points.  A run without a row
    writes no plot script.  Returns the manifest.
    """
    if workers < 1:
        raise ValidationError("workers", "workers must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exp = _EXPERIMENTS[cfg.experiment]
    points = _grid_points(cfg)
    payloads = [(cfg, p) for p in points]
    workers = min(workers, os.cpu_count() or 1, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, payloads))
    else:
        results = [_run_point(p) for p in payloads]

    tables = [rows for rows, _, _, _ in results]
    if exp.column_points:  # row 0 of every column, then row 1, ...
        tables = itertools.zip_longest(*tables)
    prefix = cfg.out_prefix or cfg.experiment
    csv_path = out / f"{prefix}.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(exp.columns) + "\n")
        for rows in tables:
            for row in rows:
                if row is not None:  # None pads a column shorter than the others
                    fh.write(",".join(map(_fmt, row)) + "\n")

    manifest = {
        "tool": "adiabus",
        "version": __version__,
        "workers": workers,
        "environment": _environment(),
        "config": cfg.to_dict(),
        "points": [
            {
                "index": i,
                "params": params,
                "status": status,
                "seconds": seconds,
                **record,
            }
            for i, (params, (_, status, record, seconds)) in enumerate(zip(points, results))
        ],
    }
    with open(out / f"{prefix}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    if exp.plot and any(rows for rows, _, _, _ in results):
        (out / f"{prefix}.gp").write_text(emit_plot_script(csv_path, cfg.experiment))
    return manifest


# ------------------------------------------------------------------ plots

def emit_plot_script(csv_path, template: str) -> str:
    """Gnuplot script text reproducing the named figure type from a CSV."""
    if template not in PLOT_TEMPLATES:
        raise SchemaMismatch(f"unknown plot template {template!r}")
    columns, plot = PLOT_TEMPLATES[template]
    text = Path(csv_path).read_text().strip().splitlines()
    if not text:
        raise SchemaMismatch(f"{csv_path} is empty")
    header, rows = text[0].split(","), [ln.split(",") for ln in text[1:]]
    if tuple(header) != columns:
        raise SchemaMismatch(
            f"{csv_path} header {header} does not match template {template!r}"
        )
    if not rows:
        raise SchemaMismatch(f"{csv_path} holds no data row to plot")
    name = Path(csv_path).name
    lines = [
        "set datafile separator ','",
        f"set output '{Path(csv_path).stem}.png'",
        "set terminal pngcairo size 900,600",
        f"set xlabel '{plot.xlabel}'",
        f"set ylabel '{plot.ylabel}'",
        *plot.settings,
    ]
    using = ":".join(map(str, plot.using))
    if len(plot.using) == 3:
        lines.append(f"splot '{name}' using {using} with image notitle")
    elif not plot.series:
        lines.append(f"plot '{name}' using {using} with linespoints notitle")
    else:
        x, y = plot.using
        curves = []  # each distinct value of the series columns, in row order
        for r in rows:
            value = tuple(r[c - 1] for c in plot.series)
            if all(value) and value not in curves:
                curves.append(value)
        plots = [
            f"'{name}' using ("
            + " && ".join(f"column({c})=={v}" for c, v in zip(plot.series, value))
            + f" ? ${x} : 1/0):{y} with linespoints title '{plot.title.format(*value)}'"
            for value in curves
        ]
        lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiabus",
        description="Adiabatic spin-chain data-bus experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run a {kind} sweep")
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1, help="pool size (capped at CPUs, points)")
    pp = sub.add_parser("plot", help="emit a gnuplot script for an existing CSV")
    pp.add_argument("--csv", required=True)
    pp.add_argument("--template", required=True, choices=sorted(PLOT_TEMPLATES))
    pp.add_argument("--out", default=None, help="script path (default: beside the CSV)")

    args = parser.parse_args(argv)
    try:
        if args.command == "plot":
            script = emit_plot_script(args.csv, args.template)
            target = Path(args.out) if args.out else Path(args.csv).with_suffix(".gp")
            target.write_text(script)
            print(f"wrote {target}")
            return 0
        text = Path(args.config).read_text()
        cfg = parse_config(text, default_experiment=args.command)
        if cfg.experiment != args.command:
            raise ValidationError(
                "experiment",
                f"config experiment {cfg.experiment!r} does not match "
                f"subcommand {args.command!r}",
            )
        manifest = run_experiment(cfg, args.out, args.workers)
        statuses = [p["status"] for p in manifest["points"]]
        # a partial point (a gap column with blank cells) is recorded, not fatal
        failed = sum(s.startswith("failed") for s in statuses)
        partial = sum(s.startswith("partial") for s in statuses)
        print(
            f"{len(statuses)} points done, {failed} failed, {partial} partial; "
            f"outputs under {args.out}"
        )
        return 0
    except (ParseError, ValidationError, SchemaMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
