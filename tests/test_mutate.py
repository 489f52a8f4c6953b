"""``tests/mutate.py --functions``: each named function's site count is
printed, and a name with no site stops the run before anything runs."""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

import mutate

ROOT = Path(__file__).resolve().parent.parent
PRODUCT = os.path.join("src", "pmcrystal", "product.py")


@pytest.fixture
def no_run(monkeypatch):
    """Refuse every copy and every subprocess, so that a run stops with
    AssertionError once it gets as far as preparing a mutant."""
    def refuse(*args, **kwargs):
        raise AssertionError("the run went past the site count")
    monkeypatch.setattr(shutil, "copytree", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.chdir(ROOT)


def site_count(path, name):
    return sum(label.endswith(f" in {name}")
               for *_, label in mutate.sites(path, (ROOT / path).read_text()))


@pytest.mark.parametrize("names, missing", [
    (["no_such_function"], ["no_such_function"]),
    (["product_crystal"], ["product_crystal"]),  # it holds no mutable site
    (["product_codec", "product_crystal", "nope"], ["product_crystal", "nope"]),
])
def test_a_function_with_no_site_stops_the_run(capsys, no_run, names, missing):
    assert mutate.main([PRODUCT, "--functions", *names]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{name}: {site_count(PRODUCT, name)} sites" for name in names] + [
        f"no site in {', '.join(missing)}; no mutant run"]


def test_named_functions_with_sites_go_on_to_the_run(capsys, no_run):
    with pytest.raises(AssertionError, match="past the site count"):
        mutate.main([PRODUCT, "--functions", "product_codec", "strict_int",
                     "--count", "5"])
    lines = capsys.readouterr().out.splitlines()
    codec, strict = site_count(PRODUCT, "product_codec"), site_count(PRODUCT, "strict_int")
    assert codec > 0 and strict > 0
    assert lines == [f"product_codec: {codec} sites", f"strict_int: {strict} sites",
                     f"{codec + strict} sites, 5 sampled with seed 1"]
