"""Outputs stay bit-identical: every section of golden.json recomputes to its digest."""

import json

import pytest

import golden


@pytest.fixture(scope="module")
def stored():
    return json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("section", list(golden.SECTIONS))
def test_section_matches_its_digest(section, stored):
    assert golden.check(section, stored[section]) is None
