import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adiabus import anneal, cli, solver
from adiabus.cli import (
    build_protocol,
    build_static_model,
    config_from_dict,
    emit_plot_script,
    main,
    parse_config,
    run_experiment,
)
from adiabus.errors import NoConvergence, ParseError, SchemaMismatch, ValidationError
from adiabus.model import evaluate_protocol, join_protocol, protocol_to_dict
from adiabus.solver import PropagatorConfig


def make(raw):
    return parse_config(json.dumps(raw))


MINIMAL = {
    "experiment": "anneal-time",
    "model": "j1j2",
    "protocol": "join",
    "N": [9],
    "J2": [0.0, 0.2, 0.4],
}


# ----------------------------------------------------------------- parsing

def test_parse_minimal_config_defaults():
    cfg = make(MINIMAL)
    assert cfg.target == 0.9
    assert cfg.search.tau_cap == 1e5
    assert cfg.j1 == 1.0
    assert cfg.n_values == (9,)
    assert cfg.param_values == (0.0, 0.2, 0.4)


def test_parse_rejects_empty_param_grid():
    with pytest.raises(ValidationError) as err:
        make({**MINIMAL, "J2": []})
    assert err.value.field == "J2"


def test_parse_rejects_unknown_protocol():
    with pytest.raises(ValidationError) as err:
        make({**MINIMAL, "protocol": "teleport2"})
    assert err.value.field == "protocol"


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_config("{not json")


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ValidationError) as err:
        make({**MINIMAL, "experiment": "warp"})
    assert err.value.field == "experiment"


def test_parse_rejects_small_chains():
    with pytest.raises(ValidationError):
        make({**MINIMAL, "N": [2]})
    with pytest.raises(ValidationError):
        make({**MINIMAL, "protocol": "simultaneous", "N": [3]})


def test_parse_rejects_bad_solver_settings():
    with pytest.raises(ValidationError) as err:
        make({**MINIMAL, "solver": {"step_tol": -1.0}})
    assert err.value.field == "solver"


def test_solver_defaults_come_from_propagator_config(monkeypatch):
    # a key left out keeps PropagatorConfig's default, not a copy of it
    assert make(MINIMAL).solver == PropagatorConfig()
    # so new defaults in PropagatorConfig reach every CLI run
    moved = dataclasses.make_dataclass(
        "Moved", [("krylov_dim", int, 12), ("step_tol", float, 1e-8)],
        bases=(PropagatorConfig,), frozen=True,
    )
    monkeypatch.setattr(cli, "PropagatorConfig", moved)
    assert make(MINIMAL).solver == moved()
    monkeypatch.undo()
    assert make({**MINIMAL, "solver": {"dt": 0.1}}).solver == PropagatorConfig(dt=0.1)
    # null picks the default stepping policy for dt and step_count only
    nulls = {"dt": None, "step_count": None}
    assert make({**MINIMAL, "solver": nulls}).solver == PropagatorConfig()
    for key in ("krylov_dim", "step_tol"):
        with pytest.raises(ValidationError) as err:
            make({**MINIMAL, "solver": {key: None}})
        assert err.value.field == "solver"


BAD_VALUES = [
    {"workers": 2},
    {"workers": "abc"},
    {"workers": 2.7},
    {"levels": "x"},
    {"N": ["a"]},
    {"N": [7.9]},
    {"target": "x"},
    {"s": "x"},
    {"two_sector": "no"},
    {"sector": True},
    {"solver": {"step_count": "abc"}},
    {"solver": {"step_count": 2.5}},
    {"solver": {"dt": "x"}},
    {"solver": {"refine_tol": 1e-8}},
    {"solver": {"max_doublings": 10}},
    {"sector": 99},
    {"sector": -1},
    {"Sector": "full"},
    {"protocol_spec": {"n_spins": 4.9, "static_bonds": [[1, 2, 1, 1, 1], [2, 3, 1, 1, 1]]}},
    {"protocol_spec": {"n_spins": 4, "static_bonds": [[1, 2, 1, 1, 1], [2.7, 3, 1, 1, 1]]}},
    {"ratio": [1.5]},
    {"delta": [0.3, 0.5]},
    {"protocol_spec": {"n_spins": 5, "static_bonds": [[1, 2, 1, 1, 1], [2, 3, 1, 1, 1]]}},
    {"out_prefix": ["a"]},
    {"out_prefix": 3},
    {"out_prefix": "missing_dir/x"},
    {"out_prefix": ""},
    {"out_prefix": "."},
    {"out_prefix": ".."},
    {"J2": [10**400]},  # too large for a float
]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=lambda bad: json.dumps(bad))
def test_main_rejects_bad_config_values(tmp_path, capsys, bad):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"experiment": "spectrum", "N": [4], "J2": [0.0], **bad}))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# json.loads reads NaN and Infinity; no number field may take them
NON_FINITE = [
    ("anneal-time", {"tau0": math.nan}),
    ("anneal-time", {"J2": [math.nan]}),
    ("anneal-time", {"solver": {"dt": math.nan}}),
    ("transport", {"bloch": [[math.nan, 0, 0]]}),
    ("transport", {"solver": {"step_tol": math.inf}}),
]


@pytest.mark.parametrize("experiment, bad", NON_FINITE, ids=lambda v: json.dumps(v))
def test_main_rejects_non_finite_values(tmp_path, capsys, experiment, bad):
    base = {
        "anneal-time": {**MINIMAL, "N": [5], "J2": [0.2]},
        "transport": {
            "experiment": "transport", "protocol": "simultaneous", "N": [5], "J2": [0.2],
            "tau": [1.0],
        },
    }[experiment]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**base, **bad}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_non_finite_protocol_spec(tmp_path, capsys):
    # valid apart from the NaN coupling, which every point would fail on
    spec = protocol_to_dict(join_protocol(5, 1.0, 0.3))
    spec["static_bonds"][0][2] = math.nan
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"experiment": "anneal-time", "protocol_spec": spec}))
    out = tmp_path / "out"
    assert main(["anneal-time", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not out.exists()
    with pytest.raises(ValidationError) as exc:
        make({"experiment": "anneal-time", "protocol_spec": spec})
    assert exc.value.field == "protocol_spec"


def test_main_rejects_unknown_protocol_spec_keys(tmp_path, capsys):
    # a misspelled "ramped_groups" would otherwise leave a static chain
    spec = protocol_to_dict(join_protocol(5, 1.0, 0.3))
    spec["ramped_group"] = spec.pop("ramped_groups")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"experiment": "anneal-time", "protocol_spec": spec}))
    out = tmp_path / "out"
    assert main(["anneal-time", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "'ramped_group'" in capsys.readouterr().err
    assert not out.exists()


# a magnetization sector needs conserving couplings wherever the run reads them
NON_CONSERVING = [
    {"experiment": "spectrum", "protocol_spec": {"n_spins": 3, "static_bonds": [[1, 2, 1.0, 0.8, 1.0]]},
     "sector": 1},
    {"experiment": "anneal-time", "protocol_spec": protocol_to_dict(join_protocol(5, (1.0, 0.8, 1.0))),
     "sector": 2},
    # xyz_couplings(0.2) has jx != jy, though xyz_couplings(0.0) conserves
    {"experiment": "anneal-time", "model": "xyz", "protocol": "join", "N": [7],
     "delta": [0.0, 0.2], "sector": 3},
]


@pytest.mark.parametrize("raw", NON_CONSERVING, ids=["static_bonds", "protocol_spec", "xyz"])
def test_main_rejects_a_magnetization_sector_of_non_conserving_couplings(tmp_path, capsys, raw):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([raw["experiment"], "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "sector" in capsys.readouterr().err and not out.exists()
    with pytest.raises(ValidationError) as err:
        make(raw)
    assert err.value.field == "sector"
    assert make({**raw, "sector": "parity-even"}).sector == "parity-even"


def test_main_runs_isotropic_xyz_in_a_magnetization_sector(tmp_path):
    # xyz_couplings(0.0) is (1, 1, 1), the Heisenberg chain
    raw = {"experiment": "anneal-time", "model": "xyz", "protocol": "join", "N": [7],
           "delta": [0.0], "sector": 3}
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(raw))
    assert main(["anneal-time", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "anneal-time.csv").read_text().splitlines()
    assert rows[1].split(",")[-1] == "reached"


def test_parse_rejects_infinite_tau_cap():
    # never run: a target that is never reached would grow tau without bound
    with pytest.raises(ValidationError) as err:
        make({**MINIMAL, "tau_cap": math.inf})
    assert err.value.field == "tau_cap"


def test_shipped_scripts_parse():
    configs = sorted((Path(__file__).parents[1] / "scripts").glob("*.json"))
    assert configs
    for path in configs:
        parse_config(path.read_text())


def test_compare_outputs_script(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "compare_outputs.py"
    header = "N,param,tau_star,fidelity,status\n"
    rows = ["5,0.2,3.5,0.91,reached\n", "7,0.2,,0.42,not-reached\n"]
    old, same, flipped = (tmp_path / d for d in ("old", "same", "flipped"))
    for d, body in ((old, rows), (same, rows),
                    (flipped, ["5,0.2,3.5,0.93,reached\n",
                               "7,0.2,,0.42,failed:NoConvergence\n"])):
        d.mkdir()
        (d / "a.csv").write_text(header + "".join(body))
        (d / "gap.csv").write_text("s,param,gap\n0,0,1.25\n0.5,0,\n")

    def run(new):
        return subprocess.run([sys.executable, str(script), str(old), str(new)],
                              capture_output=True, text=True)

    ok = run(same)
    assert ok.returncode == 0
    assert "a.csv: rows 2 / 2, 0 cells differ" in ok.stdout
    bad = run(flipped)
    assert bad.returncode == 1
    assert "a.csv: rows 2 / 2, 2 cells differ" in bad.stdout
    assert "row 2 status: 'not-reached' -> 'failed:NoConvergence'" in bad.stdout
    assert "max |d|: N 0, param 0, tau_star 0, fidelity 0.02\n" in bad.stdout
    assert "gap.csv: rows 2 / 2, 0 cells differ" in bad.stdout
    assert run(tmp_path / "missing").returncode == 2


def test_config_echo_reparses_equivalently():
    cfg = make(
        {
            **MINIMAL,
            "target": 0.95,
            "solver": {"dt": 0.1},
            "tau0": 2.0,
        }
    )
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_build_protocol_families():
    xxz = {k: v for k, v in MINIMAL.items() if k != "J2"}
    cfg = make({**xxz, "model": "xxz", "ratio": [1.5], "protocol": "simultaneous", "N": [5]})
    p = build_protocol(cfg, 5, 1.5)
    nn = [b for b in evaluate_protocol(p, 0.5).bonds if b.pair == (2, 3)][0]
    assert nn.triple == (1.0, 1.0, 1.5)

    cfg2 = make({**MINIMAL, "model": "ising", "protocol": "join", "N": [5], "J2": [0.2]})
    p2 = build_protocol(cfg2, 5, 0.2)
    assert all(b.jx == b.jy == 0.0 for b in evaluate_protocol(p2, 1.0).bonds)

    cfg3 = make({**MINIMAL, "protocol": "unjoin"})
    p3 = build_protocol(cfg3, 9, 0.2)
    assert evaluate_protocol(p3, 1.0).free_sites() == [9]


def test_static_xxz_honours_xxz_j2():
    cfg = make({"experiment": "spectrum", "model": "xxz", "N": [5], "ratio": [1.5], "xxz_j2": 0.3})
    nnn = [b for b in build_static_model(cfg, 5, 1.5).bonds if b.pair == (1, 3)][0]
    assert nnn.triple == pytest.approx((0.3, 0.3, 0.45), abs=1e-15)


JOIN5 = protocol_to_dict(join_protocol(5, 1.0, 0.3))
RING5 = {"n_spins": 5, "static_bonds": [[1, 2, 1, 1, 1], [2, 3, 1, 1, 1], [3, 4, 1, 1, 1],
                                        [4, 5, 1, 1, 1], [1, 5, 1, 1, 1]]}


@pytest.mark.parametrize("raw, field", [
    ({"model": "j1j2", "J2": [0.2], "xxz_j2": 0.3}, "xxz_j2"),
    ({"model": "ising", "J2": [0.2], "xxz_j2": 0.3}, "xxz_j2"),
    ({"model": "xyz", "delta": [0.2], "xxz_j2": 0.3}, "xxz_j2"),
    ({"model": "xxz", "ratio": [1.5], "J1": 2.0}, "J1"),
    ({"model": "xyz", "delta": [0.2], "J1": 0.5}, "J1"),
    # a protocol_spec, static or ramped, carries every coupling itself, so
    # neither a model nor any model's coupling key is read beside it
    ({"protocol_spec": JOIN5, "J2": [0.1, 0.2, 0.3]}, "J2"),
    ({"protocol_spec": JOIN5, "J1": 3.0}, "J1"),
    ({"model": "j1j2", "protocol_spec": JOIN5, "J1": 3.0}, "J1"),
    ({"protocol_spec": JOIN5, "xxz_j2": 0.4}, "xxz_j2"),
    ({"protocol_spec": JOIN5, "ratio": [1.0, 2.0]}, "ratio"),
    ({"protocol_spec": RING5, "J1": 3.0}, "J1"),
    ({"protocol_spec": RING5, "J2": [0.1, 0.2]}, "J2"),
    # a single sweep-axis value would only label the rows
    ({"protocol_spec": JOIN5, "J2": [0.7]}, "J2"),
    ({"protocol_spec": RING5, "J2": [0.7]}, "J2"),
    # a non-default model beside a spec is itself unread
    ({"model": "ising", "protocol_spec": JOIN5}, "model"),
    ({"model": "xxz", "protocol_spec": JOIN5}, "model"),
])
def test_config_rejects_unread_coupling_keys(raw, field):
    # each key would be accepted and ignored by the run's couplings
    with pytest.raises(ValidationError) as err:
        make({"experiment": "spectrum", "N": [5], **raw})
    assert err.value.field == field
    # the default of the key stays accepted, and the echo reparses; a sweep
    # axis there has no default value, so it is left out
    ok = {k: v for k, v in raw.items() if k != field}
    if field in ("J1", "xxz_j2"):
        ok[field] = 1.0 if field == "J1" else 0.0
    cfg = make({"experiment": "spectrum", "N": [5], **ok})
    assert config_from_dict(cfg.to_dict()) == cfg


RUNS = {
    "spectrum": {"N": [5], "J2": [0.2]},
    "degeneracy-check": {"N": [5], "J2": [0.2]},
    "gap-scan": {"protocol": "join", "N": [5], "J2": [0.2], "s_grid": [0.0, 1.0]},
    "fidelity-curve": {"protocol": "join", "N": [5], "J2": [0.2], "tau": [1.0]},
    "anneal-time": {"protocol": "join", "N": [5], "J2": [0.2]},
    "transport": {"protocol": "join", "N": [5], "J2": [0.2], "tau": [1.0]},
}
# for each config key, a value other than its default, and its default
UNREAD_VALUES = {
    "protocol": ("join", None),
    "protocol_spec": (JOIN5, None),
    "model": ("xxz", "j1j2"),
    "xxz_j2": (0.3, 0.0),
    "s": (0.5, 1.0),
    "s_grid": ([0.5], []),
    "tau": ([1.0], []),
    "target": (0.5, 0.9),
    "tau0": (2.0, 1.0),
    "growth": (2.0, math.sqrt(2.0)),
    "tau_cap": (10.0, 1e5),
    "rel_width": (0.1, 0.05),
    "solver": ({"dt": 0.1}, {}),
    "sector": ("full", "auto"),
    "levels": (3, 6),
    "bloch": ([[1, 0, 0]], [list(b) for b in cli._CARDINALS]),
}
UNREAD_CASES = [
    ({"experiment": experiment, **raw}, key)
    for experiment, raw in RUNS.items()
    for key in sorted(cli._CONFIG_KEYS - make({"experiment": experiment, **raw}).keys_read())
    if key not in ("protocol", "protocol_spec")  # read wherever given, but see below
] + [
    ({"experiment": "anneal-time", "protocol_spec": JOIN5}, "protocol"),
    ({"experiment": "spectrum", "protocol_spec": JOIN5}, "protocol"),
    # the spec holds every coupling, so a model beside it sets nothing
    ({"experiment": "anneal-time", "protocol_spec": JOIN5}, "model"),
]


@pytest.mark.parametrize(
    "raw, key",
    UNREAD_CASES,
    ids=["-".join([*(k for k in ("protocol_spec",) if k in raw), raw["experiment"], key])
         for raw, key in UNREAD_CASES],
)
def test_config_rejects_unread_keys(tmp_path, capsys, raw, key):
    other, default = UNREAD_VALUES[key]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**raw, key: other}))
    out = tmp_path / "out"
    assert main([raw["experiment"], "--config", str(cfgfile), "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err and not out.exists()
    with pytest.raises(ValidationError) as err:
        make({**raw, key: other})
    assert err.value.field == key
    # the default stays accepted, and the echo holds exactly the keys read
    cfg = make({**raw, key: default})
    assert key not in cfg.keys_read()
    assert set(cfg.to_dict()) == cfg.keys_read()
    assert config_from_dict(cfg.to_dict()) == cfg


def test_benchmark_gap_config_parses_and_echoes(monkeypatch):
    # run.py imports its sibling modules (workloads among them) by name
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    cfg = config_from_dict(run.W.gap_config(1))
    assert cfg.experiment == "gap-scan" and set(cfg.to_dict()) == cfg.keys_read()
    assert config_from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("raw, key", [
    ({"experiment": "gap-scan", "protocol": "join", "s_grid": [0.0, 1.5]}, "s_grid"),
    ({"experiment": "gap-scan", "protocol": "join", "s_grid": [-0.5, 0.5]}, "s_grid"),
    ({"experiment": "spectrum", "protocol": "join", "s": 1.5}, "s"),
    ({"experiment": "spectrum", "protocol": "join", "s": -0.5}, "s"),
    ({"experiment": "fidelity-curve", "protocol": "join", "tau": [1.0, -1.0]}, "tau"),
    ({"experiment": "transport", "protocol": "join", "tau": [-2.0]}, "tau"),
])
def test_config_rejects_points_off_the_schedule(tmp_path, capsys, raw, key):
    # Ramp would clamp an s outside [0, 1] to an endpoint, and a negative tau
    # would fail every point of the run
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": [5], "J2": [0.2], **raw}))
    out = tmp_path / "out"
    assert main([raw["experiment"], "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    with pytest.raises(ValidationError) as err:
        make({"N": [5], "J2": [0.2], **raw})
    assert err.value.field == key
    # the endpoints, and tau = 0, stay valid
    edge = {"s_grid": [0.0, 1.0], "s": 0.0, "tau": [0.0]}[key]
    make({"N": [5], "J2": [0.2], **raw, key: edge})


def test_gap_scan_rejects_an_explicit_empty_s_grid(tmp_path, capsys):
    raw = {"experiment": "gap-scan", "protocol": "join", "N": [5], "J2": [0.2]}
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**raw, "s_grid": []}))
    out = tmp_path / "out"
    assert main(["gap-scan", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: s_grid ") and not out.exists()
    # an omitted s_grid keeps the 51-point default
    assert len(make(raw).s_values) == 51
    # an experiment that never reads s_grid takes [] as that key's default
    cfg = make({**raw, "experiment": "spectrum", "s_grid": []})
    assert "s_grid" not in cfg.keys_read() and cfg.s_values == ()


# an axis an experiment does not sweep holds one value; two of them exit 2
TWO_VALUES = {"N": [5, 7], "J2": [0.2, 0.3]}


@pytest.mark.parametrize("raw, key", [
    ({"experiment": "gap-scan", **RUNS["gap-scan"]}, "N"),
    ({"experiment": "fidelity-curve", **RUNS["fidelity-curve"]}, "N"),
    ({"experiment": "fidelity-curve", **RUNS["fidelity-curve"]}, "J2"),
    ({"experiment": "transport", **RUNS["transport"]}, "N"),
    ({"experiment": "transport", **RUNS["transport"]}, "J2"),
    ({"experiment": "degeneracy-check", **RUNS["degeneracy-check"]}, "N"),
    ({"experiment": "degeneracy-check", **RUNS["degeneracy-check"]}, "J2"),
    ({"experiment": "degeneracy-check", "protocol_spec": RING5}, "N"),
], ids=lambda v: v if isinstance(v, str) else "-".join([v["experiment"], *v.keys() & {"protocol_spec"}]))
def test_config_rejects_two_values_of_an_unswept_axis(tmp_path, capsys, raw, key):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**raw, key: TWO_VALUES[key]}))
    out = tmp_path / "out"
    assert main([raw["experiment"], "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ") and not out.exists()
    with pytest.raises(ValidationError) as err:
        make({**raw, key: TWO_VALUES[key]})
    assert err.value.field == key
    make({**raw, key: TWO_VALUES[key][:1]})


@pytest.mark.parametrize("retired, field", [
    ({"bonds": [[1, 2, 1, 1, 1], [2, 3, 1, 1, 1]]}, "bonds"),
    ({"model": "custom"}, "model"),
    ({"sector": "floor"}, "sector"),
], ids=["bonds", "custom", "floor"])
def test_main_rejects_the_retired_custom_hamiltonian_inputs(tmp_path, capsys, retired, field):
    # a protocol_spec is the one custom Hamiltonian, and auto the floor sector
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"experiment": "spectrum", "N": [4], "J2": [0.0], **retired}))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and not out.exists()
    with pytest.raises(ValidationError) as err:
        make({"experiment": "spectrum", "N": [4], "J2": [0.0], **retired})
    assert err.value.field == field


def test_custom_protocol_spec_round_trip():
    p = join_protocol(5, 1.0, 0.3)
    cfg = make(
        {
            "experiment": "anneal-time",
            "protocol_spec": protocol_to_dict(p),
        }
    )
    assert build_protocol(cfg, 5, 0.0) == p
    assert cfg.n_values == (5,)  # derived from the protocol
    # the echo carries no sweep axis, which the spec never reads
    echo = cfg.to_dict()
    assert "J2" not in echo and config_from_dict(echo) == cfg


def test_custom_protocol_spec_spectrum(tmp_path):
    # a protocol_spec is evaluated at s like a named protocol
    spec = protocol_to_dict(join_protocol(5, 1.0, 0.2))
    custom = {"experiment": "spectrum", "protocol_spec": spec, "s": 0.5}
    named = {"experiment": "spectrum", "protocol": "join", "N": [5], "J2": [0.2], "s": 0.5}
    columns = []
    for name, raw in (("custom", custom), ("named", named)):
        cfgfile = tmp_path / f"{name}.json"
        cfgfile.write_text(json.dumps(raw))
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "spectrum.manifest.json").read_text())
        assert [pt["status"] for pt in manifest["points"]] == ["ok"]
        rows = (tmp_path / name / "spectrum.csv").read_text().strip().splitlines()[1:]
        columns.append([row.split(",")[3] for row in rows])
    assert columns[0] and columns[0] == columns[1]


def test_static_protocol_spec_spectrum_of_a_ring(tmp_path):
    ring = [[1, 2, 1, 1, 1], [2, 3, 1, 1, 1], [3, 4, 1, 1, 1], [1, 4, 1, 1, 1]]
    cfg = make(
        {
            "experiment": "spectrum",
            "protocol_spec": {"n_spins": 4, "static_bonds": ring},
            "levels": 2,
        }
    )
    assert cfg.n_values == (4,)  # the spec's n_spins
    run_experiment(cfg, tmp_path)
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()[1:]
    assert rows[0].split(",")[:2] == ["4", "0"]
    assert float(rows[0].split(",")[3]) == -8.0  # 4-site Heisenberg ring


def test_unjoin_dynamic_matches_forward_times(tmp_path):
    # exact time-reversal symmetry: the uncoupling search retraces the
    # coupling search value for value
    base = {"model": "j1j2", "N": [5], "J2": [0.2], "experiment": "anneal-time"}
    run_experiment(make({**base, "protocol": "dynamic-j2"}), tmp_path / "f")
    run_experiment(make({**base, "protocol": "unjoin-dynamic"}), tmp_path / "r")
    fwd = (tmp_path / "f" / "anneal-time.csv").read_text().splitlines()[1]
    rev = (tmp_path / "r" / "anneal-time.csv").read_text().splitlines()[1]
    assert fwd.split(",")[2] == rev.split(",")[2]


# ------------------------------------------------------------- experiments

def test_run_anneal_time(tmp_path):
    cfg = make({**MINIMAL, "N": [5], "J2": [0.0, 0.3]})
    manifest = run_experiment(cfg, tmp_path)
    lines = (tmp_path / "anneal-time.csv").read_text().strip().splitlines()
    assert lines[0] == "N,param,tau_star,fidelity,status"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "5" and first[4] == "reached"
    assert 0.9 <= float(first[3]) <= 1.0
    assert all(p["status"] == "reached" for p in manifest["points"])
    assert (tmp_path / "anneal-time.manifest.json").exists()
    assert (tmp_path / "anneal-time.gp").exists()


def test_anneal_time_manifest_records_the_search(tmp_path):
    cfg = make({**MINIMAL, "N": [5], "J2": [0.0, 0.3]})
    manifest = run_experiment(cfg, tmp_path / "a", workers=1)
    for point, j2 in zip(manifest["points"], (0.0, 0.3)):
        p = join_protocol(5, 1.0, j2)
        trace = anneal.find_anneal_time(p, anneal.default_sector(p)).trace
        assert point["evaluations"] == len(trace)
        assert point["tau_sum"] == sum(tau for tau, _ in trace)
    # the CSV still holds only the results, at any worker count
    run_experiment(cfg, tmp_path / "b", workers=2)
    assert (tmp_path / "a" / "anneal-time.csv").read_bytes() == (
        tmp_path / "b" / "anneal-time.csv"
    ).read_bytes()


def test_anneal_time_manifest_records_screened_evaluations(tmp_path):
    # grid probes are screened at the default step_tol, and none at one that
    # is not below the screening tolerance
    for solver, screening in (({}, True), ({"step_tol": anneal.SCREEN_TOL}, False)):
        cfg = make({**MINIMAL, "N": [7], "J2": [0.5], "solver": solver})
        (point,) = run_experiment(cfg, tmp_path, workers=1)["points"]
        p = join_protocol(7, 1.0, 0.5)
        r = anneal.find_anneal_time(p, anneal.default_sector(p), cfg=cfg.solver)
        assert point["screened"] == r.screened and (r.screened > 0) == screening
        assert point["evaluations"] == len(r.trace)
        header = (tmp_path / "anneal-time.csv").read_text().splitlines()[0]
        assert header == "N,param,tau_star,fidelity,status"


def test_compare_outputs_prints_search_totals(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "compare_outputs.py"
    for d, points in (("old", [(16, 272.9), (9, 40.0)]), ("new", [(15, 234.3), (8, 31.5)])):
        (tmp_path / d).mkdir()
        (tmp_path / d / "a.csv").write_text("N,param,tau_star,fidelity,status\n")
        (tmp_path / d / "a.manifest.json").write_text(json.dumps(
            {"points": [{"evaluations": e, "tau_sum": t} for e, t in points]}))

    def run():
        return subprocess.run([sys.executable, str(script), str(tmp_path / "old"),
                               str(tmp_path / "new")], capture_output=True, text=True)

    out = run()
    assert out.returncode == 0
    assert "search totals: evaluations 25 -> 23, tau_sum 312.9 -> 265.8" in out.stdout
    # a manifest without them, such as a gap-scan run's, prints no totals
    (tmp_path / "new" / "a.manifest.json").write_text(json.dumps({"points": [{}]}))
    out = run()
    assert out.returncode == 0 and "search totals" not in out.stdout


def test_run_resilient_to_point_failures(tmp_path):
    # N=4 hits AmbiguousInitial (degenerate free-spin orientations); N=5 works
    cfg = make({**MINIMAL, "N": [4, 5], "J2": [0.0]})
    manifest = run_experiment(cfg, tmp_path)
    statuses = [p["status"] for p in manifest["points"]]
    assert statuses[0].startswith("failed:AmbiguousInitial")
    assert statuses[1] == "reached"
    lines = (tmp_path / "anneal-time.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + the surviving point


def test_run_survives_any_point_exception(tmp_path, monkeypatch):
    spectrum = cli._EXPERIMENTS["spectrum"]

    def flaky(cfg, n, param):
        if param == 0.2:
            raise np.linalg.LinAlgError("eigh did not converge")
        return spectrum.point(cfg, n, param)

    monkeypatch.setitem(cli._EXPERIMENTS, "spectrum", dataclasses.replace(spectrum, point=flaky))
    cfg = make(
        {"experiment": "spectrum", "model": "j1j2", "N": [4], "J2": [0.0, 0.2, 0.4], "levels": 2}
    )
    manifest = run_experiment(cfg, tmp_path, workers=1)
    points = manifest["points"]
    assert [p["status"] for p in points] == ["ok", "failed:LinAlgError", "ok"]
    assert points[1]["error"] == "eigh did not converge"
    assert "error" not in points[0]
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["0", "0", "0.4", "0.4"]


def test_worker_count_does_not_change_output(tmp_path):
    cfg = make({**MINIMAL, "N": [5], "J2": [0.0, 0.2, 0.4]})
    run_experiment(cfg, tmp_path / "a", workers=1)
    run_experiment(cfg, tmp_path / "b", workers=3)
    assert (tmp_path / "a" / "anneal-time.csv").read_bytes() == (
        tmp_path / "b" / "anneal-time.csv"
    ).read_bytes()


def test_run_gap_scan_grid_order(tmp_path):
    cfg = make(
        {
            "experiment": "gap-scan",
            "model": "j1j2",
            "protocol": "join",
            "N": [5],
            "J2": [0.0, 0.5],
            "s_grid": [0.0, 1.0],
        }
    )
    run_experiment(cfg, tmp_path)
    rows = (tmp_path / "gap-scan.csv").read_text().strip().splitlines()[1:]
    got = [tuple(r.split(",")[:2]) for r in rows]
    assert got == [("0", "0"), ("0", "0.5"), ("1", "0"), ("1", "0.5")]


def _blank_cells_at_half(monkeypatch):
    at = solver.ScheduleOperator.at

    def fail_at_half(op, s):
        if s == 0.5:
            raise NoConvergence("forced failure")
        return at(op, s)

    monkeypatch.setattr(solver.ScheduleOperator, "at", fail_at_half)


def test_gap_scan_manifest_names_blank_cells(tmp_path, monkeypatch):
    raw = {"experiment": "gap-scan", "model": "j1j2", "protocol": "join", "N": [5],
           "J2": [0.0, 0.5], "s_grid": [0.0, 0.5, 1.0]}
    run_experiment(make(raw), tmp_path / "ok")
    _blank_cells_at_half(monkeypatch)
    manifest = run_experiment(make(raw), tmp_path / "blank")
    for point in manifest["points"]:
        assert point["status"] == "partial:NoConvergence"
        assert point["error"] == "eigensolve did not converge at s = 0.5"
    ok = json.loads((tmp_path / "ok" / "gap-scan.manifest.json").read_text())
    assert [p["status"] for p in ok["points"]] == ["ok", "ok"]
    assert all("error" not in p for p in ok["points"])
    # the CSV only blanks the failed cells (rows 3 and 4 hold s = 0.5)
    rows = (tmp_path / "blank" / "gap-scan.csv").read_text().splitlines()
    want = (tmp_path / "ok" / "gap-scan.csv").read_text().splitlines()
    assert rows[3:5] == ["0.5,0,", "0.5,0.5,"]
    assert rows[:3] + rows[5:] == want[:3] + want[5:]


def test_main_summary_counts_partial_points(tmp_path, capsys, monkeypatch):
    raw = {"experiment": "gap-scan", "model": "j1j2", "protocol": "join", "N": [5],
           "J2": [0.0, 0.5], "s_grid": [0.0, 0.5, 1.0]}
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(raw))
    _blank_cells_at_half(monkeypatch)
    # blank cells are recorded, never fatal, so the run still exits 0
    assert main(["gap-scan", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.startswith("2 points done, 0 failed, 2 partial; ")


def test_run_degeneracy_check(tmp_path):
    cfg = make({"experiment": "degeneracy-check", "model": "j1j2", "N": [5], "J2": [0.3]})
    run_experiment(cfg, tmp_path)
    rows = (tmp_path / "degeneracy-check.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 6
    splits = [float(r.split(",")[2]) for r in rows]
    assert max(splits) < 1e-9


def test_run_transport(tmp_path, monkeypatch):
    cfg = make(
        {
            "experiment": "transport",
            "model": "j1j2",
            "protocol": "simultaneous",
            "N": [5],
            "J2": [0.2],
            "tau": [40.0, 60.0],
            "bloch": [[0, 0, 1], [1, 0, 0]],
        }
    )
    # one evolution per tau serves both sector components and every Bloch
    # input: the spin flip gives the partner's evolved part
    calls = []
    orig = anneal.evolve

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(anneal, "evolve", counting)
    manifest = run_experiment(cfg, tmp_path / "serial", workers=1)
    assert len(calls) == len(cfg.tau_values)
    assert [p["params"]["tau"] for p in manifest["points"]] == [40.0, 60.0]
    monkeypatch.undo()
    run_experiment(cfg, tmp_path / "parallel", workers=2)
    serial = (tmp_path / "serial" / "transport.csv").read_text()
    assert (tmp_path / "parallel" / "transport.csv").read_text() == serial
    rows = serial.strip().splitlines()[1:]
    assert len(rows) == 4
    # Bloch-major, tau-minor
    assert [r.split(",")[3] for r in rows] == ["40", "60", "40", "60"]
    for row in rows:
        assert float(row.split(",")[7]) > 0.95


def test_fidelity_curve_values_are_twelve_digit(tmp_path):
    cfg = make(
        {
            "experiment": "fidelity-curve",
            "model": "j1j2",
            "protocol": "join",
            "N": [3],
            "J2": [0.0],
            "tau": [0.0],
        }
    )
    run_experiment(cfg, tmp_path)
    row = (tmp_path / "fidelity-curve.csv").read_text().strip().splitlines()[1]
    assert row.split(",")[1] == format(math.sqrt(3) / 2, ".12g")


# ------------------------------------------------------------------- plots

def test_emit_plot_scripts(tmp_path):
    cfg = make({**MINIMAL, "N": [5], "J2": [0.0, 0.2]})
    run_experiment(cfg, tmp_path)
    csv = tmp_path / "anneal-time.csv"
    line = emit_plot_script(csv, "anneal-time")
    assert "set logscale y" in line and "N=5" in line
    loglog = emit_plot_script(csv, "time-scaling")
    assert "set logscale xy" in loglog
    with pytest.raises(SchemaMismatch):
        emit_plot_script(csv, "gap-scan")


def test_run_without_rows_writes_no_plot_script(tmp_path, capsys):
    # N=4 hits AmbiguousInitial, so the CSV holds its header alone
    manifest = run_experiment(make({**MINIMAL, "N": [4], "J2": [0.0]}), tmp_path)
    assert manifest["points"][0]["status"].startswith("failed:AmbiguousInitial")
    csv = tmp_path / "anneal-time.csv"
    assert csv.read_text() == "N,param,tau_star,fidelity,status\n"
    assert (tmp_path / "anneal-time.manifest.json").exists()
    assert not (tmp_path / "anneal-time.gp").exists()
    # a series plot of no rows would end in a bare "plot \", which gnuplot rejects
    with pytest.raises(SchemaMismatch):
        emit_plot_script(csv, "anneal-time")
    assert main(["plot", "--csv", str(csv), "--template", "time-scaling"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "anneal-time.gp").exists()


def test_gap_plot_uses_log_color_scale(tmp_path):
    cfg = make(
        {
            "experiment": "gap-scan",
            "model": "j1j2",
            "protocol": "join",
            "N": [5],
            "J2": [0.0, 0.5],
            "s_grid": [0.5, 1.0],
        }
    )
    run_experiment(cfg, tmp_path)
    script = emit_plot_script(tmp_path / "gap-scan.csv", "gap-scan")
    assert "set logscale cb" in script and "with image" in script


# -------------------------------------------------------------------- main

def test_main_end_to_end(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**MINIMAL, "N": [5], "J2": [0.2]}))
    rc = main(["anneal-time", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "anneal-time.csv").exists()


def test_main_rejects_bad_config(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text("{broken")
    assert main(["anneal-time", "--config", str(cfgfile)]) == 2


def test_main_rejects_even_transport_chain(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "experiment": "transport", "protocol": "simultaneous", "N": [6], "J2": [0.2],
        "tau": [1.0], "bloch": [[1, 0, 0]],
    }))
    out = tmp_path / "out"
    assert main(["transport", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_main_subcommand_must_match_config(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(MINIMAL))
    assert main(["transport", "--config", str(cfgfile)]) == 2


def test_workers_capped_at_cpu_count(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool on one CPU")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    cfg = make({**MINIMAL, "N": [5], "J2": [0.0, 0.2]})
    manifest = run_experiment(cfg, tmp_path, workers=4)
    assert manifest["workers"] == 1
    assert [p["index"] for p in manifest["points"]] == [0, 1]


def test_workers_capped_at_point_count(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    cfg = make({"experiment": "spectrum", "N": [4], "J2": [0.0, 0.5], "levels": 2})
    assert run_experiment(cfg, tmp_path, workers=8)["workers"] == 2


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_sets_one_blas_thread_unless_set(preset):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, adiabus; print(*(os.environ[k] for k in {names!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [preset or "1", "1", "1"]


def test_import_loads_no_scipy_solvers():
    # scipy.linalg and scipy.sparse.linalg load on the first solve, not on import
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = ("import sys, adiabus, adiabus.cli; "
            "print(*(m in sys.modules for m in ('scipy.linalg', 'scipy.sparse.linalg')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]


def test_manifest_records_environment(tmp_path):
    import scipy

    cfg = make({"experiment": "spectrum", "N": [4], "J2": [0.0, 0.5], "levels": 2})
    manifests = [run_experiment(cfg, tmp_path / str(w), workers=w) for w in (1, 2)]
    env = manifests[0]["environment"]
    assert manifests[1]["environment"] == env
    assert env == {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "adiabus": cli.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    on_disk = json.loads((tmp_path / "2" / "spectrum.manifest.json").read_text())
    assert on_disk["environment"] == env
    csv = [(tmp_path / str(w) / "spectrum.csv").read_bytes() for w in (1, 2)]
    assert csv[0] == csv[1]
    assert csv[0].decode().splitlines()[0] == ",".join(cli._EXPERIMENTS["spectrum"].columns)


def test_main_rejects_negative_workers_flag(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**MINIMAL, "N": [5], "J2": [0.2]}))
    out = tmp_path / "out"
    assert main(["anneal-time", "--config", str(cfgfile), "--out", str(out), "--workers", "-3"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()
