"""Golden digests: every law draws what it drew before its parts were split.

``law_digests.json`` holds SHA-256 digests of each draw a law offers
(batches, counts and their size-biased form, pmfs, lives and their
length-biased form, uniformly-picked atom ages, stationary overshoots,
covering lives, ladder pairs, single sticks) and of ``describe()``, for
specs that use every spec name and key ``parse_law`` accepts.  They were
recorded with numpy 2.4.6 from the hand-written laws (see the file's
``recorded_at``); a numpy release that changes a generator's stream would
change them too.  Every item draws from its own fresh generator, so a
change shows up in the item that made it.  Five were re-recorded when the
stable laws' zeta values became correctly rounded (they used to come from
``scipy.special.zeta``, a few ulps off at some arguments): the ``pmf`` of
``family2(alpha=1.2)``, ``family-gen(alpha=1.7,f=log1p)`` and
``generalized(alpha=1.3,f=sqrt)``, and ``describe`` of the last two.  No
draw changed.  Three more ``describe`` digests were re-recorded when the
``family-gen`` mean ages came from exact ζ sums instead of a quadrature,
each ``mean_ystar`` moving in its last digit: ``family-gen`` and its alias
``generalized`` (1.1161574311095839 to ...837) and
``family-gen(alpha=1.7,f=log1p)`` (0.9017752024622625 to ...627).  No draw
changed.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from chronoforest.stochastic import parse_law, sample_covering_v, sample_ladder_pair, sample_vhat
from chronoforest.stochastic.laws import _LAWS

GOLDEN = json.loads((Path(__file__).with_name("law_digests.json")).read_text())


def item_batch(law, rng):
    b = law.sample_batch(rng, 300)
    return [b.counts, b.v, b.ages, b.offsets]


def item_counts(law, rng):
    return [law.counts.sample(rng, 500), law.counts.sample(rng, (20, 7))]


def item_sizebiased(law, rng):
    return [law.counts.sizebiased(rng, 500)]


def item_pmf(law, rng):
    return [law.counts.pmf(30)]


def item_life(law, rng):
    return [law.life.sample(rng, 500), float(law.life.sample(rng)), law.life.sample(rng, (4, 9))]


def item_length_biased(law, rng):
    return [law.life.length_biased(rng, 500), float(law.life.length_biased(rng))]


def item_ystars(law, rng):
    return [law.sample_ystars(rng, 500)]


def item_vhat(law, rng):
    return [sample_vhat(law, rng, 500), float(sample_vhat(law, rng))]


def item_covering(law, rng):
    return [sample_covering_v(law, rng, 3.0, 40)]


def item_ladder(law, rng):
    out = []
    for _ in range(3):
        pair = sample_ladder_pair(law, rng, step_cap=5000)
        out += [pair.tau, pair.zeta, list(pair.measure.atoms), pair.stick_v, pair.accepted]
    return out


def item_stick(law, rng):
    s = law.sample_stick(rng)
    return [s.v, list(s.births.atoms)]


def item_describe(law, rng):
    return [json.dumps(law.describe()), law.eps_rule]


# the seed of each item is its position here
ITEMS = {
    "batch": item_batch,
    "counts": item_counts,
    "sizebiased": item_sizebiased,
    "pmf": item_pmf,
    "life": item_life,
    "length_biased": item_length_biased,
    "ystars": item_ystars,
    "vhat": item_vhat,
    "covering": item_covering,
    "ladder": item_ladder,
    "stick": item_stick,
    "describe": item_describe,
}


def digest(values) -> str:
    h = hashlib.sha256()
    for x in values:
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, float):
            h.update(x.hex().encode())
        else:
            h.update(repr(x).encode())
        h.update(b"|")
    return h.hexdigest()


def law_digests(spec: str) -> dict:
    law = parse_law(spec)
    out = {}
    for k, (name, item) in enumerate(ITEMS.items()):
        rng = np.random.default_rng([2026, k])
        try:
            out[name] = digest(item(law, rng))
        except ValueError:  # e.g. size-biased counts of a childless law
            out[name] = "ValueError"
    return out


def test_golden_specs_use_every_name_and_key():
    used = set()
    for spec in GOLDEN["digests"]:
        name, args = re.fullmatch(r"([a-z0-9-]+)(?:\((.*)\))?", spec).groups()
        used.add(name)
        used.update((name, part.split("=")[0]) for part in filter(None, (args or "").split(",")))
    assert used >= set(_LAWS) | {(name, key) for name, (_, _, keys) in _LAWS.items() for key in keys}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", list(GOLDEN["digests"]))
def test_law_draws_match_golden_digests(spec):
    assert law_digests(spec) == GOLDEN["digests"][spec]
