import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import nfdof
import nfdof.cli


def test_every_exported_name_resolves():
    assert [name for name in nfdof.__all__ if not hasattr(nfdof, name)] == []
    assert len(set(nfdof.__all__)) == len(nfdof.__all__)


def test_exports_are_the_defining_modules_objects():
    for name, module in nfdof._MODULE_OF.items():
        assert getattr(nfdof, name) is getattr(importlib.import_module(f"nfdof.{module}"), name)
    assert nfdof.__all__ == ["__version__", *nfdof._MODULE_OF]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from nfdof import *", namespace)
    assert all(namespace[name] is getattr(nfdof, name) for name in nfdof.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nfdof.no_such_name
    assert not hasattr(nfdof, "ExperimentSpec")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_numpy_floor_has_the_running_major_version():
    import tomllib
    project = tomllib.loads((Path(__file__).resolve().parent.parent
                             / "pyproject.toml").read_text())["project"]
    (floor,) = [re.fullmatch(r"numpy>=(\d+)(\.\d+)*", dep)
                for dep in project["dependencies"] if dep.startswith("numpy")]
    assert floor is not None, project["dependencies"]
    assert int(floor.group(1)) == int(np.__version__.split(".")[0])


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_console_script_names_the_cli_main(capsys):
    # what an installed nfdof executable would run, with no install needed
    import tomllib
    scripts = tomllib.loads((Path(__file__).resolve().parent.parent
                             / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"nfdof": "nfdof.cli:main"}
    module, _, name = scripts["nfdof"].partition(":")
    main = getattr(importlib.import_module(module), name)
    assert main is nfdof.cli.main
    assert main(["version"]) == nfdof.cli.EXIT_OK
    assert capsys.readouterr().out.strip() == nfdof.__version__
