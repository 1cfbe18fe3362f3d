"""``setup.py`` declares every data file the package reads, and the console
script README.md uses; checked from the source tree, without installing."""

import ast
import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = ROOT / "src" / "repro"


def setup_keywords():
    """``PACKAGE_DATA`` and the ``setup()`` keywords of setup.py, unexecuted."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["PACKAGE_DATA"]:
            found["PACKAGE_DATA"] = ast.literal_eval(node.value)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setup":
            for keyword in node.keywords:
                try:
                    found[keyword.arg] = ast.literal_eval(keyword.value)
                except ValueError:  # a name or a computed value
                    found[keyword.arg] = getattr(keyword.value, "id", None)
    return found


def data_files():
    return sorted(
        path
        for path in PACKAGE_ROOT.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
        and "__pycache__" not in path.parts
    )


def declared_globs():
    """``(package directory, glob)`` for every ``package_data`` entry."""
    package_data = setup_keywords()["PACKAGE_DATA"]
    return [
        (ROOT / "src" / Path(*package.split(".")), pattern)
        for package, patterns in package_data.items()
        for pattern in patterns
    ]


def covered(path, globs):
    return any(
        directory in path.parents
        and fnmatch.fnmatch(path.relative_to(directory).as_posix(), pattern)
        for directory, pattern in globs
    )


def test_every_data_file_matches_a_package_data_glob():
    globs = declared_globs()
    files = data_files()
    assert len(files) >= 19  # the 18 bench artifacts and the dashboard page
    assert [str(path) for path in files if not covered(path, globs)] == []


def test_every_package_data_glob_matches_a_file():
    for directory, pattern in declared_globs():
        assert list(directory.glob(pattern)), (directory, pattern)


def test_the_console_script_is_declared():
    keywords = setup_keywords()
    scripts = keywords["entry_points"]["console_scripts"]
    assert "repro-experiments = repro.cli:main" in scripts
    assert keywords["package_dir"] == {"": "src"}
    assert keywords["package_data"] == "PACKAGE_DATA"
