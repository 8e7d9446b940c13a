"""The shipped corpus, read from the committed files under fixtures/ by the
same parser as the command line.

Each call parses its file afresh, so a test may change what it gets back.
"""

from pathlib import Path

from okbodies.ioformats import instance_from_obj, load_json, model_from_obj

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

INSTANCE_NAMES = sorted(
    p.stem for p in (FIXTURES / "instances").glob("*.json"))


def instance(name):
    """The fiber-space instance fixtures/instances/<name>.json."""
    path = FIXTURES / "instances" / f"{name}.json"
    return instance_from_obj(load_json(path), str(path))


def model(name):
    """The model fixtures/models/<name>.json."""
    path = FIXTURES / "models" / f"{name}.json"
    return model_from_obj(load_json(path), str(path))
