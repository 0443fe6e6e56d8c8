"""README's code still runs against the library.

The Python block of the library tour runs as written, the minimal JSON
configuration parses, and the example ``protocol_spec`` reads back as the
schedule it claims to be, so the docs cannot drift from the API.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from adiabus.cli import parse_config
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


def test_json_examples_parse():
    minimal, spec = _blocks("json")
    cfg = parse_config(minimal)
    assert (cfg.experiment, cfg.protocol, cfg.n_values) == ("anneal-time", "join", (9,))
    assert protocol_from_dict(json.loads(spec)) == dynamic_j2_protocol(5, 1.0, 0.2)
