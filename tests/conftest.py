import json
from importlib import resources

import pytest

from catsim import protocol
from catsim.params import scenario_from_dict


def _preset(name):
    text = (resources.files("catsim") / "presets" / f"{name}.json").read_text()
    return json.loads(text)


@pytest.fixture(autouse=True)
def cold_protocol_caches():
    """Each test starts from cold protocol caches, so one that patches
    feasibility or a gaussian name reads no value cached before its patch."""
    protocol._set_up.cache_clear()
    protocol._closed_form.cache_clear()


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
