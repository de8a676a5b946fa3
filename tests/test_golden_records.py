"""The golden records of ``tests/golden/`` (see ``golden_records.py``)
equal the package's outputs.  The verification rows are asserted in
``test_acceptance.py``, from its one run of the table."""

import json

import pytest

import golden_records as golden
from antsel import cli


@pytest.mark.parametrize("name", sorted(golden.CLI_REPORTS))
def test_cli_report_equals_its_record(tmp_path, name):
    out = tmp_path / name
    assert cli.main([*golden.CLI_REPORTS[name], "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == golden.read(name)


def test_closed_form_outages_equal_their_record():
    assert golden.closed_forms() == json.loads(golden.read("outage_closed_forms.json"))
