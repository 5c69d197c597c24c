"""The finite group of each catalog setting, pinned as printed tables.

``tests/group_tables.json`` holds, per setting, the element names, the
multiplication and inverse tables, ``str()`` of every substitution image
and the conjugation table.  A change to how the catalog builds its groups
must leave them all as they are.  To record a deliberate change, run this
file as a script::

    PYTHONPATH=src python tests/test_group_tables.py
"""

import json
from pathlib import Path

import pytest

from hopfgalois.catalog import (GKVHecke, RationalDifferential,
                                TrigonometricDifferential, build_setting)

TABLES = Path(__file__).parent / "group_tables.json"

RECIPES = {
    "linear-trivial": RationalDifferential(1, "trivial"),
    "linear-Z2": RationalDifferential(2, "Z2"),
    "linear-Z3": RationalDifferential(2, "Z3"),
    "linear-Z4": RationalDifferential(1, "Z4"),
    "linear-S2": RationalDifferential(2, "S2"),
    "linear-S3": RationalDifferential(3, "S3"),
    "monomial-inversion": TrigonometricDifferential(2, "inversion"),
    "monomial-S2": TrigonometricDifferential(2, "S2"),
    "monomial-S3": TrigonometricDifferential(3, "S3"),
    "gkv-A1-multiplicative": GKVHecke("A1", "multiplicative"),
    "gkv-A1-additive": GKVHecke("A1", "additive"),
    "gkv-A2-multiplicative": GKVHecke("A2", "multiplicative"),
    "gkv-A2-additive": GKVHecke("A2", "additive"),
}


def group_tables(setting):
    """The group data of a setting as JSON values."""
    return {
        "names": list(setting.group_names),
        "mult": [list(row) for row in setting.group_mult],
        "inv": list(setting.group_inv),
        "subs": [{str(v): str(img) for v, img in sorted(subs.items())}
                 for subs in setting.group_subs],
        "conj": {str(w): {str(g): [[str(c), j] for c, j in rule]
                          for g, rule in sorted(rules.items())}
                 for w, rules in sorted(setting.conj_table.items())},
    }


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_group_tables_are_pinned(name):
    expected = json.loads(TABLES.read_text())[name]
    assert group_tables(build_setting(RECIPES[name])) == expected


if __name__ == "__main__":
    TABLES.write_text(json.dumps(
        {name: group_tables(build_setting(r)) for name, r in sorted(RECIPES.items())},
        indent=1, sort_keys=True) + "\n")
