"""Import footprint: ``import cycliccover`` is lazy, and each CLI command
loads only the layers it runs.

Each footprint is read in a fresh interpreter, since this test process has
every layer loaded already.  Which standard-library modules load varies
with the environment (a site-packages ``.pth`` file may preload
``typing``), so the only ones pinned are ``json``, ``dataclasses``,
``inspect`` and ``typing``, and only beyond what ``python -c pass`` holds.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycliccover

SRC = str(Path(cycliccover.__file__).resolve().parents[1])
LAYERS = ("combinatorics", "lemmas", "engine", "catalog", "cyclotomic",
          "series", "localmodel", "cli")


def modules_after(code: str, cwd=None) -> set:
    """Every module a fresh interpreter holds after ``code``."""
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("CYCLICCOVER_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@functools.cache
def bare_modules() -> frozenset:
    return frozenset(modules_after("pass"))


def loaded_after(code: str, cwd=None) -> set:
    """The ``cycliccover.*`` modules a fresh interpreter holds after ``code``."""
    return {m for m in modules_after(code, cwd) if m.startswith("cycliccover.")}


def command_code(*argv) -> str:
    """One in-process ``cli.main`` call; it must exit 0."""
    return ("import contextlib, io\n"
            "import cycliccover.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cycliccover.cli.main({list(argv)!r})\n"
            "assert code == 0, code\n")


def after_command(*argv, cwd=None) -> set:
    """Layer modules loaded after one in-process ``cli.main`` call."""
    return loaded_after(command_code(*argv), cwd=cwd)


def layer_modules(*names) -> set:
    return {f"cycliccover.{name}" for name in names}


def test_import_package_loads_no_submodule():
    assert loaded_after("import cycliccover") == set()


def test_import_cli_and_build_parser_load_no_layer():
    loaded = loaded_after("import cycliccover.cli\n"
                          "cycliccover.cli.build_parser()")
    assert loaded == layer_modules("cli", "errors")


def test_import_cli_and_build_parser_load_no_json():
    added = modules_after("import cycliccover.cli\n"
                          "cycliccover.cli.build_parser()") - bare_modules()
    assert "json" not in added


CONFIG = {"schema": 1, "d": 3, "profile": {"0": {"jet": 4}, "1": {"very": 2}}}
# argv, and whether the command loads json
COMMANDS = {
    "sigma-table": (("sigma-table", "--d", "5", "--kmax", "6"), False),
    "criteria": (("criteria", "--config", "c.json"), True),
    "verify-lemma num": (("verify-lemma", "num", "--max-m", "2", "--max-K",
                          "4", "--max-ell", "3", "--max-q", "2"), False),
    "verify-lemma alg": (("verify-lemma", "alg", "--k", "6", "--ell", "3"),
                         False),
    "examples": (("examples",), False),
    "local-model": (("local-model", "--d", "3", "--trials", "2"), True),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_no_dataclasses_inspect_or_typing(command, tmp_path):
    (tmp_path / "c.json").write_text(json.dumps(CONFIG))
    argv, loads_json = COMMANDS[command]
    added = modules_after(command_code(*argv), cwd=tmp_path) - bare_modules()
    assert not added & {"dataclasses", "inspect", "typing"}
    assert ("json" in added) == loads_json


def test_sigma_table_loads_only_combinatorics():
    loaded = after_command("sigma-table", "--d", "5", "--kmax", "6")
    assert loaded == layer_modules("cli", "errors", "combinatorics")


def test_criteria_loads_no_lemma_catalog_or_local_layer(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(CONFIG))
    loaded = after_command("criteria", "--config", str(config))
    assert "cycliccover.engine" in loaded
    assert not loaded & layer_modules(
        "lemmas", "catalog", "localmodel", "series", "cyclotomic")


def test_verify_lemma_num_loads_no_engine_catalog_or_local_layer():
    loaded = after_command("verify-lemma", "num", "--max-m", "2",
                           "--max-K", "4", "--max-ell", "3", "--max-q", "2")
    assert "cycliccover.lemmas" in loaded
    assert not loaded & layer_modules(
        "engine", "catalog", "localmodel", "series", "cyclotomic")


def test_every_export_and_layer_resolves():
    for name in cycliccover.__all__:
        assert getattr(cycliccover, name) is not None, name
    for layer in LAYERS:
        module = getattr(cycliccover, layer)
        assert module.__name__ == f"cycliccover.{layer}"
    assert set(cycliccover.__all__) | set(LAYERS) <= set(dir(cycliccover))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cycliccover import *", namespace)
    assert set(cycliccover.__all__) <= set(namespace)
    assert namespace["sigma"] is cycliccover.combinatorics.sigma
    assert namespace["PositivityProfile"] is cycliccover.engine.PositivityProfile


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        cycliccover.nope
    assert not hasattr(cycliccover, "nope")
