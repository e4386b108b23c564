import doctest
from pathlib import Path

import catseq.core
import catseq.counting
import catseq.ranking


def test_core_doctests():
    failures, _ = doctest.testmod(catseq.core)
    assert failures == 0


def test_counting_doctests():
    failures, _ = doctest.testmod(catseq.counting)
    assert failures == 0


def test_ranking_doctests():
    failures, _ = doctest.testmod(catseq.ranking)
    assert failures == 0


def test_readme_library_tour():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failures, _ = doctest.testfile(str(readme), module_relative=False)
    assert failures == 0
