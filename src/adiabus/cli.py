"""Command-line sweep harness.

``adiabus <experiment> --config cfg.json [--out dir] [--workers n]``
runs every grid point of a JSON experiment configuration, writes one CSV
(fixed per-experiment schema, 12 significant digits), a manifest JSON with
per-point statuses, and a gnuplot script for the matching figure type.
Points are independent tasks: a gap-scan point is one parameter column, and
a transport point is one tau that reads every Bloch input from one
evolution per sector.  ``--workers`` alone sets the pool size, capped at the
CPU and point counts; each process runs one BLAS thread (see ``__init__``).
Any worker count gives byte-identical CSV: results come back in grid order
and each point is computed by the same sequential deterministic code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
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
    Bond,
    ChainModel,
    ProtocolSpec,
    dynamic_j2_protocol,
    evaluate_protocol,
    j1j2_chain,
    join_protocol,
    protocol_from_dict,
    reverse_protocol,
    simultaneous_protocol,
    xyz_couplings,
)
from .solver import PropagatorConfig

PROTOCOLS = ("join", "unjoin", "dynamic-j2", "unjoin-dynamic", "simultaneous")
PARAM_KEY = {"j1j2": "J2", "ising": "J2", "custom": "J2", "xxz": "ratio", "xyz": "delta"}
SECTOR_NAMES = ("auto", "floor", "ceil", "full", "parity-even", "parity-odd")
# The one table of which config keys a run reads (see keys_read).  Every run
# reads _COMMON_KEYS and its experiment's keys.  Its couplings come from one
# place: the bonds of a custom model's spectrum, else a protocol_spec, else the
# model's coupling keys and a named protocol, if any, which a spectrum
# evaluates at s.  config_from_dict rejects any other key unless it holds its
# default, and to_dict echoes exactly the keys read.
_COMMON_KEYS = ("experiment", "model", "N", "out_prefix")
_SEARCH_KEYS = tuple(f.name for f in fields(SearchSettings))
_EXPERIMENT_KEYS = {
    "spectrum": ("s", "sector", "levels"),
    "gap-scan": ("s_grid", "sector"),
    "fidelity-curve": ("tau", "sector", "solver"),
    "anneal-time": ("target", *_SEARCH_KEYS, "sector", "solver"),
    "transport": ("tau", "bloch", "solver"),
    "degeneracy-check": ("s", "sector", "levels"),
}
_COUPLING_KEYS = {
    "j1j2": ("J1", "J2"),
    "xxz": ("ratio", "xxz_j2"),
    "xyz": ("delta",),
    "ising": ("J1", "J2"),
    "custom": (),
}
EXPERIMENTS = tuple(_EXPERIMENT_KEYS)
MODELS = tuple(_COUPLING_KEYS)
# every key of any model, besides the model's own sweep axis
_CONFIG_KEYS = frozenset(_COMMON_KEYS + ("protocol", "protocol_spec", "bonds")).union(
    *_EXPERIMENT_KEYS.values(), *_COUPLING_KEYS.values()
) - set(PARAM_KEY.values())
_FIELD_OF_KEY = {"N": "n_values", "J1": "j1", "s_grid": "s_values", "tau": "tau_values"}

HEADERS = {
    "anneal-time": ("N", "param", "tau_star", "fidelity", "status"),
    "gap-scan": ("s", "param", "gap"),
    "fidelity-curve": ("tau", "fidelity"),
    "transport": (
        "bx_in", "by_in", "bz_in", "tau", "bx_out", "by_out", "bz_out", "qubit_fidelity",
    ),
    "degeneracy-check": ("level", "energy", "pair_split"),
    "spectrum": ("N", "param", "level", "energy"),
}

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
    bonds: tuple[tuple[float, ...], ...] | None = None
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
        """The config keys this run reads (see _EXPERIMENT_KEYS)."""
        keys = {*_COMMON_KEYS, *_EXPERIMENT_KEYS[self.experiment]}
        spectrum = self.experiment in ("spectrum", "degeneracy-check")
        if spectrum and self.model == "custom" and self.bonds is not None:
            keys.add("bonds")  # the bonds are the model itself
            keys.discard("s")
        elif self.protocol_spec is not None:
            keys.add("protocol_spec")
        elif self.protocol is not None:
            keys.update(("protocol", *_COUPLING_KEYS[self.model]))
        else:  # a static chain of the model's couplings
            keys.update(_COUPLING_KEYS[self.model])
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
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        raise ValidationError(name, f"{name} must be a finite number, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(name, f"{name} must be an integer, got {value!r}")
    return int(value)


def _bond_row(row) -> tuple[float, ...]:
    """A custom bond [i, j, jx, jy, jz]; the sites must be integral."""
    return tuple(float(_number(x, "bonds", integral=k < 2)) for k, x in enumerate(row))


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
    protocol = raw.get("protocol")
    protocol_spec = raw.get("protocol_spec")
    needs_protocol = experiment in ("anneal-time", "fidelity-curve", "transport", "gap-scan")
    if protocol is not None and protocol not in PROTOCOLS:
        raise ValidationError("protocol", f"unknown protocol {protocol!r}")
    if needs_protocol and protocol is None and protocol_spec is None:
        raise ValidationError("protocol", f"{experiment} needs a protocol")
    if protocol in ("dynamic-j2", "unjoin-dynamic") and model != "j1j2":
        raise ValidationError("protocol", "dynamic J2 schedules are defined for the j1j2 model")
    if model == "custom" and protocol is not None and protocol_spec is None:
        raise ValidationError("protocol", "custom models need an explicit protocol_spec")
    spec = None
    if protocol_spec is not None:
        try:
            spec = protocol_from_dict(protocol_spec)
        except Exception as e:
            raise ValidationError("protocol_spec", str(e)) from None

    n_values = _as_tuple(raw.get("N"), "N", integral=True)
    if spec is not None and n_values not in ((), (spec.n_spins,)):
        raise ValidationError("N", f"N must be [{spec.n_spins}], the protocol_spec's n_spins")
    if protocol_spec is None and model != "custom":
        if not n_values:
            raise ValidationError("N", "N grid must be nonempty")
        min_n = 2 if protocol is None else (4 if protocol == "simultaneous" else 3)
        if any(n < min_n for n in n_values):
            raise ValidationError("N", f"N values must be >= {min_n}")

    param_key = PARAM_KEY[model]
    param_values = _as_tuple(raw.get(param_key), param_key)
    if not param_values:
        if model == "custom" or protocol_spec is not None:
            param_values = (0.0,)
        else:
            raise ValidationError(param_key, f"{param_key} grid must be nonempty")

    if experiment in ("gap-scan", "fidelity-curve", "transport", "degeneracy-check"):
        if protocol_spec is None and model != "custom" and len(n_values) != 1:
            raise ValidationError("N", f"{experiment} sweeps a single N")
    if experiment in ("fidelity-curve", "transport") and len(param_values) != 1:
        raise ValidationError(param_key, f"{experiment} uses a single {param_key}")

    s = _number(raw.get("s", 1.0), "s")
    s_values = _as_tuple(raw.get("s_grid"), "s_grid")
    for name, points in (("s", (s,)), ("s_grid", s_values)):
        if not all(0.0 <= x <= 1.0 for x in points):
            raise ValidationError(name, f"{name} must lie in [0, 1]")
    if experiment == "gap-scan" and not s_values:
        s_values = tuple(np.round(np.linspace(0.0, 1.0, 51), 10))
    tau_values = _as_tuple(raw.get("tau"), "tau")
    if experiment in ("fidelity-curve", "transport") and not tau_values:
        raise ValidationError("tau", f"{experiment} needs a tau grid")
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
    step_count, dt = solver_raw.get("step_count"), solver_raw.get("dt")
    try:
        solver = PropagatorConfig(
            step_count=None if step_count is None else _number(step_count, "step_count", True),
            dt=None if dt is None else _number(dt, "dt"),
            krylov_dim=_number(solver_raw.get("krylov_dim", 30), "krylov_dim", True),
            step_tol=_number(solver_raw.get("step_tol", 1e-10), "step_tol"),
        )
    except (ValueError, ValidationError) as e:
        raise ValidationError("solver", str(e)) from None

    sector = raw.get("sector", "auto")
    is_k = isinstance(sector, int) and not isinstance(sector, bool)
    if not (is_k or sector in SECTOR_NAMES):
        raise ValidationError("sector", f"unknown sector {sector!r}")
    if model == "xyz" and (is_k or sector in ("floor", "ceil")):
        raise ValidationError("sector", "xyz couplings do not conserve magnetization")

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

    bonds, bonds_raw = None, raw.get("bonds")
    if model == "custom" and protocol_spec is None and not bonds_raw:
        raise ValidationError("bonds", "custom models need a bond list")
    if bonds_raw is not None:
        try:
            bonds = tuple(_bond_row(row) for row in bonds_raw)
            if not n_values:
                n_values = (int(max(max(r[0], r[1]) for r in bonds)),)
            _custom_model(bonds, n_values[0])
        except ValidationError:
            raise
        except Exception as e:
            raise ValidationError("bonds", str(e)) from None
    if spec is not None and not n_values:
        n_values = (spec.n_spins,)
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
        bonds=bonds,
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
    # axis has none, as its default grid is empty and no config parses to that
    default = ExperimentConfig(experiment, model)
    for key in sorted(set(raw) - cfg.keys_read()):
        if cfg.value(key) != default.value(key):
            raise ValidationError(
                key, f"{key!r} is never read by this {experiment} run; drop it or give its default"
            )
    return cfg


def _custom_model(bonds, n_spins: int) -> ChainModel:
    rows = tuple(Bond(int(r[0]), int(r[1]), r[2], r[3], r[4]) for r in bonds)
    return ChainModel(n_spins, rows)


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
    if cfg.model == "custom" and cfg.bonds is not None:
        return _custom_model(cfg.bonds, n)
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
    if sec == "floor":
        return SectorSpec.magnetization(n, n // 2)
    if sec == "ceil":
        return SectorSpec.magnetization(n, (n + 1) // 2)
    if sec == "full":
        return SectorSpec.full(n)
    return SectorSpec.parity(n, sec.split("-", 1)[1])


# ----------------------------------------------------------------- points

def _point_anneal_time(cfg, n, param):
    p = build_protocol(cfg, n, param)
    sec = resolve_sector(cfg, p)
    r = find_anneal_time(p, sec, cfg.target, cfg.search, cfg.solver)
    row = {
        "N": p.n_spins,
        "param": param,
        "tau_star": r.tau_star,
        "fidelity": r.fidelity_at_tau_star,
        "status": r.status,
    }
    return [row], r.status


def _point_gap_column(cfg, n, param):
    p = build_protocol(cfg, n, param)
    gaps = gap_scan(p, cfg.s_values, resolve_sector(cfg, p))
    rows = [
        {"s": s, "param": param, "gap": gap}
        for s, gap in zip(cfg.s_values, gaps)
    ]
    return rows, "ok"


def _point_fidelity(cfg, n, param, tau):
    p = build_protocol(cfg, n, param)
    sec = resolve_sector(cfg, p)
    f = fidelity(p, tau, sec, cfg.solver)
    return [{"tau": tau, "fidelity": f}], "ok"


def _point_transport(cfg, n, param, tau):
    p = build_protocol(cfg, n, param)
    results = transport_qubit(p, [BlochVector(*b) for b in cfg.bloch], tau, cfg.solver)
    rows = [
        {
            "bx_in": bloch[0],
            "by_in": bloch[1],
            "bz_in": bloch[2],
            "tau": tau,
            "bx_out": r.bloch_out.x,
            "by_out": r.bloch_out.y,
            "bz_out": r.bloch_out.z,
            "qubit_fidelity": r.qubit_fidelity,
        }
        for bloch, r in zip(cfg.bloch, results)
    ]
    return rows, "ok"


def _union_levels(cfg, model):
    energies = []
    for spec in sector_pair(resolve_sector(cfg, model)):
        res = sector_levels(model, enumerate_sector(spec), cfg.levels)
        energies.extend(float(e) for e in res.eigenvalues)
    energies.sort()
    return energies[: cfg.levels]


def _point_spectrum(cfg, n, param):
    model = build_static_model(cfg, n, param)
    energies = _union_levels(cfg, model)
    rows = [
        {"N": model.n_spins, "param": param, "level": k, "energy": e}
        for k, e in enumerate(energies)
    ]
    return rows, "ok"


def _point_degeneracy(cfg, n, param):
    model = build_static_model(cfg, n, param)
    energies = _union_levels(cfg, model)
    rows = []
    for k, e in enumerate(energies):
        partner = k ^ 1
        split = abs(energies[partner] - e) if partner < len(energies) else math.nan
        rows.append({"level": k, "energy": e, "pair_split": split})
    return rows, "ok"


_POINT_FUNCS = {
    "anneal-time": _point_anneal_time,
    "gap-scan": _point_gap_column,
    "fidelity-curve": _point_fidelity,
    "transport": _point_transport,
    "spectrum": _point_spectrum,
    "degeneracy-check": _point_degeneracy,
}


def _grid_points(cfg: ExperimentConfig) -> list[dict]:
    n0 = cfg.n_values[0] if cfg.n_values else 0
    p0 = cfg.param_values[0]
    if cfg.experiment in ("anneal-time", "spectrum"):
        return [
            {"n": n, "param": p} for n in cfg.n_values for p in cfg.param_values
        ]
    if cfg.experiment == "gap-scan":
        return [{"n": n0, "param": p} for p in cfg.param_values]
    if cfg.experiment in ("fidelity-curve", "transport"):
        return [{"n": n0, "param": p0, "tau": t} for t in cfg.tau_values]
    return [{"n": n0, "param": p0}]  # degeneracy-check


def _run_point(payload):
    cfg, params = payload
    t0 = time.perf_counter()
    error = None
    try:
        rows, status = _POINT_FUNCS[cfg.experiment](cfg, **params)
    except Exception as e:  # one bad point must not abort the sweep
        rows, status, error = [], f"failed:{type(e).__name__}", str(e)
    return rows, status, error, time.perf_counter() - t0


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


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path = ".",
    workers: int = 1,
) -> dict:
    """Execute all grid points and write CSV + manifest + plot script.

    Uses at most ``workers`` processes, one per CPU and per point, and records
    the count in the manifest.  Per-point failures leave blank cells and are
    recorded there; they never abort sibling points.  Returns the manifest.
    """
    if workers < 1:
        raise ValidationError("workers", "workers must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = _grid_points(cfg)
    payloads = [(cfg, p) for p in points]
    workers = min(workers, os.cpu_count() or 1, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, payloads))
    else:
        results = [_run_point(p) for p in payloads]

    header = HEADERS[cfg.experiment]
    all_rows: list[dict] = []
    if cfg.experiment in ("gap-scan", "transport"):
        # tasks are columns (a parameter value, a tau); emit rows by row index, so
        # gap rows run s-major and transport rows Bloch-major, tau-minor
        columns = [rows for rows, _, _, _ in results]
        for j in range(max(map(len, columns), default=0)):
            for col in columns:
                if j < len(col):
                    all_rows.append(col[j])
    else:
        for rows, _, _, _ in results:
            all_rows.extend(rows)

    prefix = cfg.out_prefix or cfg.experiment
    csv_path = out / f"{prefix}.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in all_rows:
            fh.write(",".join(_fmt(row.get(col)) for col in header) + "\n")

    manifest = {
        "tool": "adiabus",
        "version": __version__,
        "workers": workers,
        "config": cfg.to_dict(),
        "points": [
            {
                "index": i,
                "params": params,
                "status": status,
                "seconds": seconds,
                **({"error": error} if error is not None else {}),
            }
            for i, (params, (_, status, error, seconds)) in enumerate(zip(points, results))
        ],
    }
    with open(out / f"{prefix}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    template = cfg.experiment if cfg.experiment in PLOT_TEMPLATES else None
    if template:
        script = emit_plot_script(csv_path, template)
        (out / f"{prefix}.gp").write_text(script)
    return manifest


# ------------------------------------------------------------------ plots

def _read_header(csv_path) -> tuple[list[str], list[list[str]]]:
    lines = Path(csv_path).read_text().strip().splitlines()
    if not lines:
        raise SchemaMismatch(f"{csv_path} is empty")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def _series_values(rows, col):
    seen = []
    for r in rows:
        if r[col] and r[col] not in seen:
            seen.append(r[col])
    return seen


def emit_plot_script(csv_path, template: str) -> str:
    """Gnuplot script text reproducing the named figure type from a CSV."""
    if template not in PLOT_TEMPLATES:
        raise SchemaMismatch(f"unknown plot template {template!r}")
    expected = PLOT_TEMPLATES[template]
    header, rows = _read_header(csv_path)
    if tuple(header) != expected:
        raise SchemaMismatch(
            f"{csv_path} header {header} does not match template {template!r}"
        )
    name = Path(csv_path).name
    lines = [
        "set datafile separator ','",
        f"set output '{Path(csv_path).stem}.png'",
        "set terminal pngcairo size 900,600",
    ]
    if template == "anneal-time":
        lines += [
            "set xlabel 'coupling parameter'",
            "set ylabel 'annealing time to target fidelity'",
            "set logscale y",
            "set key top left",
        ]
        series = _series_values(rows, 0)
        plots = [
            f"'{name}' using (column(1)=={n} ? $2 : 1/0):3 "
            f"with linespoints title 'N={n}'"
            for n in series
        ]
        lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    elif template == "time-scaling":
        lines += [
            "set xlabel 'chain length N'",
            "set ylabel 'annealing time to target fidelity'",
            "set logscale xy",
            "set key top left",
        ]
        series = _series_values(rows, 1)
        plots = [
            f"'{name}' using (column(2)=={p} ? $1 : 1/0):3 "
            f"with linespoints title 'param={p}'"
            for p in series
        ]
        lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    elif template == "gap-scan":
        lines += [
            "set xlabel 'coupling parameter'",
            "set ylabel 'schedule point s'",
            "set cblabel 'sector gap'",
            "set logscale cb",  # gaps span decades near crossings
            "set view map",
            f"splot '{name}' using 2:1:3 with image notitle",
        ]
    elif template == "fidelity-curve":
        lines += [
            "set xlabel 'annealing time'",
            "set ylabel 'final ground-space fidelity'",
            f"plot '{name}' using 1:2 with linespoints notitle",
        ]
    else:  # transport
        lines += [
            "set xlabel 'annealing time'",
            "set ylabel 'qubit fidelity'",
            "set key bottom right",
        ]
        dirs = []
        for r in rows:
            key = (r[0], r[1], r[2])
            if key not in dirs:
                dirs.append(key)
        plots = [
            f"'{name}' using "
            f"(column(1)=={bx} && column(2)=={by} && column(3)=={bz} ? $4 : 1/0):8 "
            f"with linespoints title '({bx},{by},{bz})'"
            for bx, by, bz in dirs
        ]
        lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return "\n".join(lines) + "\n"


PLOT_TEMPLATES = {
    "anneal-time": HEADERS["anneal-time"],
    "time-scaling": HEADERS["anneal-time"],
    "gap-scan": HEADERS["gap-scan"],
    "fidelity-curve": HEADERS["fidelity-curve"],
    "transport": HEADERS["transport"],
}


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
        failed = [p for p in manifest["points"] if p["status"].startswith("failed")]
        print(
            f"{len(manifest['points'])} points done, {len(failed)} failed; "
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
