"""Golden digests: every law draws what it drew before its parts were split.

``law_digests.json`` holds SHA-256 digests of each draw a law offers
(batches, counts and their size-biased form, pmfs, lives and their
length-biased form, uniformly-picked atom ages, stationary overshoots,
covering lives, single sticks) and of ``describe()``, for specs that use
every spec name and key ``parse_law`` accepts.  They were
recorded with numpy 2.4.6 from the hand-written laws (see the file's
``recorded_at``); a numpy release that changes a generator's stream would
change them too.  Every item draws from its own fresh generator, seeded by
its number in ``ITEMS``, so a change shows up in the item that made it.  The
``ladder`` item went with the single-walk ladder sampler it digested; no
other digest moved.  Five were re-recorded when the stable laws' zeta values
became correctly rounded (they used to come from
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

from chronoforest.stochastic import parse_law, sample_vhat
from chronoforest.stochastic.laws import _LAWS
from conftest import sample_covering_v

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
    return [law.life.sample(rng, 500), float(law.life.sample(rng, 1)[0]), law.life.sample(rng, (4, 9))]


def item_length_biased(law, rng):
    return [law.life.length_biased(rng, 500), float(law.life.length_biased(rng, 1)[0])]


def item_ystars(law, rng):
    return [law.sample_ystars(rng, 500)]


def item_vhat(law, rng):
    return [sample_vhat(law, rng, 500), float(sample_vhat(law, rng, 1)[0])]


def item_covering(law, rng):
    return [sample_covering_v(law, rng, 3.0, 40)]


def item_stick(law, rng):
    s = law.sample_batch(rng, 1).stick(0)
    return [s.v, list(s.births.atoms)]


def item_describe(law, rng):
    return [json.dumps(law.describe()), law.eps_rule]


# name: (generator seed, item).  A seed stays with its item for good and is
# never reused, so deleting an item moves no other digest; 9 belonged to the
# single-walk ladder pairs, whose sampler is gone.
ITEMS = {
    "batch": (0, item_batch),
    "counts": (1, item_counts),
    "sizebiased": (2, item_sizebiased),
    "pmf": (3, item_pmf),
    "life": (4, item_life),
    "length_biased": (5, item_length_biased),
    "ystars": (6, item_ystars),
    "vhat": (7, item_vhat),
    "covering": (8, item_covering),
    "stick": (10, item_stick),
    "describe": (11, item_describe),
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
    for name, (seed, item) in ITEMS.items():
        rng = np.random.default_rng([2026, seed])
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


@pytest.mark.parametrize("n", [0, 1, 256])
@pytest.mark.parametrize("spec", list(GOLDEN["digests"]))
def test_layout_of_draw_is_sample_batch(spec, n):
    # the specs above use every name and key; drawing and laying out apart
    # gives the batch, field by field and bit for bit, and the generator
    # state of one sample_batch call
    law = parse_law(spec)
    rng, rng2 = np.random.default_rng([2026, n]), np.random.default_rng([2026, n])
    split, whole = law.layout(*law.draw(rng, n)), law.sample_batch(rng2, n)
    for name in ("counts", "v", "ages", "offsets"):
        a, b = getattr(split, name), getattr(whole, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert rng.bit_generator.state == rng2.bit_generator.state
