"""README's code still runs against the library.

The Python block of the library tour runs as written, the minimal JSON
configuration parses, the ring example runs to its stated ground level, the
example ``protocol_spec`` reads back as the schedule it claims to be, and the
config reference names the CLI's models, sectors and keys, so the docs
cannot drift from the API.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from adiabus import cli
from adiabus.cli import parse_config, run_experiment
from adiabus.model import dynamic_j2_protocol, protocol_from_dict

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    """The fenced code blocks of one language, in order, dedented."""
    blocks = re.findall(rf"^( *)```{language}\n(.*?)^\1```$", README, re.M | re.S)
    return ["\n".join(line[len(indent):] for line in body.splitlines()) for indent, body in blocks]


def test_library_tour_runs():
    (tour,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 5


def test_json_examples_parse(tmp_path):
    minimal, ring, spec = _blocks("json")
    cfg = parse_config(minimal)
    assert (cfg.experiment, cfg.protocol, cfg.n_values) == ("anneal-time", "join", (9,))
    run_experiment(parse_config(ring), tmp_path)
    first = (tmp_path / "spectrum.csv").read_text().splitlines()[1].split(",")
    assert float(first[3]) == -8.0  # the 4-site Heisenberg ring
    assert protocol_from_dict(json.loads(spec)) == dynamic_j2_protocol(5, 1.0, 0.2)


def _config_bullets() -> dict[str, str]:
    """The Config reference bullets, each by its heading, with line breaks joined."""
    section = README.split("Config reference", 1)[1].split("\nWhat each experiment reads", 1)[0]
    bullets = re.findall(r"^\* `([^`]+)`(.*?)(?=^\* |\Z)", section, re.M | re.S)
    return {key: " ".join(body.split()) for key, body in bullets}


def _choices(bullet: str) -> list[str]:
    """The alternatives of a bullet's first sentence, ``a | b | ...``."""
    first = re.split(r"\.\s", bullet.removeprefix(":"), maxsplit=1)[0]
    return [choice.strip().strip("`") for choice in first.split("|")]


def test_config_reference_matches_the_cli():
    bullets = _config_bullets()
    assert _choices(bullets["model"]) == list(cli.MODELS)
    *names, integer = _choices(bullets["sector"])
    assert names == list(cli.SECTOR_NAMES) and integer.startswith("an integer k")
    # every heading is a config key or a sweep axis
    assert set(bullets) <= cli._CONFIG_KEYS | set(cli.PARAM_KEY.values())
