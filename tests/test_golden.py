"""The golden corpus: the library must reproduce every record of
tests/golden/digests.json, which was generated before the code it covers
was last refactored."""

import json

from golden import generate

# records per function that the committed file must hold at least, so
# that a corpus cut short does not pass by agreeing with itself
MINIMUM = {
    "branch_width_exact": 300,
    "expand_decomposition": 200,
    "caterpillar_decomposition": 9,
    "fan_decomposition": 5,
    "decomposition_width": 300,
    "verify_tangle": 300,
    "is_positroid_order": 300,
    "positroid_search": 300,
}


def test_golden_digests_are_reproduced():
    with open(generate.PATH) as fh:
        text = fh.read()
    want = json.loads(text)
    counts = generate.counts(want)
    assert {f: counts[f] for f in MINIMUM if counts[f] < MINIMUM[f]} == {}
    have = generate.digests()
    assert generate.differences(want, have) == []
    assert generate.dump(have) == text
