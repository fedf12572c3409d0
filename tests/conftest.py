import json
from importlib import resources

import pytest

from catsim.params import scenario_from_dict


def _preset(name):
    text = (resources.files("catsim") / "presets" / f"{name}.json").read_text()
    return json.loads(text)


@pytest.fixture
def discussion_doc():
    return _preset("discussion")


@pytest.fixture
def discussion():
    return scenario_from_dict(_preset("discussion"))


@pytest.fixture
def figure_transient():
    # the CLI's figure_transient preset is an alias of discussion
    return scenario_from_dict(_preset("discussion"))
