"""One error class per kind of failure, each exported by the package and
mapped by ``cli.main`` to one exit code."""

import inspect

import pytest

import geomfreq
from geomfreq import cli, errors
from geomfreq.errors import GeomfreqError

# 2 a usage error, 3 any other error; 1 is left to a failed check
EXIT_CODES = {
    "GeomfreqError": 3,
    "InvalidParameter": 2,
    "MalformedCsv": 3,
    "DegenerateInput": 3,
    "FloatOverflow": 3,
}


def _defined(module):
    """The GeomfreqError classes reachable as ``module.<name>``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, GeomfreqError)
    }


def test_package_exports_every_error_class():
    assert _defined(geomfreq) == _defined(errors)
    # and nothing else but its version and its own submodules: every
    # function has one import path, from its module
    public = {
        name
        for name, obj in vars(geomfreq).items()
        if not name.startswith("_")
        and not (inspect.ismodule(obj) and obj.__name__ == f"geomfreq.{name}")
    }
    assert public == set(_defined(errors))
    assert isinstance(geomfreq.__version__, str)


@pytest.mark.parametrize(
    "cls", list(_defined(errors).values()), ids=lambda c: c.__name__,
)
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, cls):
    def boom(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_validate", boom)
    assert cli.main(["validate"]) == EXIT_CODES.get(cls.__name__)
    assert capsys.readouterr().err == "error: boom\n"
