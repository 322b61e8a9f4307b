"""The group data the closure makes, pinned by digest: the element order, the
parent words and the right maps, the inverse indices, the class of each
element and the exponent, and each class's representative index, size and
element order.  The idempotents, the class order, verify's draws and the
CLI's stdout all depend on this numbering, so a change to how the closure is
computed must leave every digest as it is.  The digests were recorded with
the closure on image tuples that the closure on bytes keys replaced, whose
group kept the parent words as (j, s) tuples; they are hashed here in that
layout."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from wedderburn import BUILTIN_GROUPS, load_group, parse_cycles, parse_group_text

from test_cli_end_to_end import INLINE

GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"

D701 = "degree 701\n(" + ",".join(map(str, range(1, 702))) + ")\n" + "".join(f"({i},{703 - i})" for i in range(2, 352))
C400 = "degree 400\n(" + ",".join(map(str, range(1, 401))) + ")\n"


def build(name):
    if name.startswith("builtin:"):
        return BUILTIN_GROUPS[name.removeprefix("builtin:")]()
    if f"{name}.txt" in INLINE:
        return parse_group_text(INLINE[f"{name}.txt"])
    if name in ("d701", "c400"):
        return parse_group_text({"d701": D701, "c400": C400}[name])
    return load_group(GROUP_DIR / f"{name}.txt")


def group_digest(G):
    """sha256 over the group data, each item in a fixed dtype."""
    h = hashlib.sha256()
    h.update(np.array([g.images for g in G.elements], dtype=np.int32).tobytes())
    h.update(np.array([G._parent[1:], G._parent_gen[1:]], dtype=np.int32).T.tobytes())  # (j, s) of each g_c, c >= 1
    h.update(np.array(G._right, dtype=np.int32).tobytes())
    h.update(np.asarray(G.inverse_indices, dtype=np.int64).tobytes())
    h.update(np.asarray(G.class_index_of, dtype=np.int32).tobytes())
    h.update(repr((G.exponent, [(c.index, c.size, c.element_order) for c in G.classes])).encode())
    return h.hexdigest()


DIGESTS = {
    "a4": "acd8b0fd0785fcea7cd432ef91bde29e46c52fb92d795e0790fcb1ab89972648",
    "a5": "8924379bd87dd60f5acb9622cd707d84320b4925cb7a8cd5ca49dbe2b38984ec",
    "a6": "0622209e848b3c06849518e2de908e8213c0e2e090b8423471505e4813429e58",
    "c15": "3ee9e1d0949f7277a90daabbeef18b99c279ef8f5a4fa1feaa4e4c59675ae9a1",
    "c7c3": "dfc46d0ec8aa41ee0ac4add60f7884c88ef1a96b2155329d966a415a4e964b5c",
    "d10": "7dbda74c1b669787d96415fe08d75f20ab9967be2707238ceb26aecfaab55b2f",
    "psl27": "343a0d1d97ff2400347315cf3cbadda42c1bfc947558f0a0857b9fb897e9ca4b",
    "q8": "a11b2fc7555e08ddd95fc6d6d5848033b704d7a45d0a78d9d8f7e6c84bdd49d6",
    "s4": "b87144b405f1c41dfedd8d6a37fdefd4e340ff38f8fb3ed0ea9bb38b398b12a7",
    "s5": "d891040d0275209b3184e93ca41cabce11ffb0ee053c7d5ceaafeb551f4cfe7c",
    "s6": "3e9a907dd52ae358af6f2be474c516510461a9132e93c88f4d0aa290c56f646f",
    "builtin:sl32-s8": "96c735b24cd42fc91f2e7ad4da4590aa622bf5221b77d1439499b7338b9657ad",
    "builtin:sl32-p2f2": "343a0d1d97ff2400347315cf3cbadda42c1bfc947558f0a0857b9fb897e9ca4b",
    "builtin:s5": "d891040d0275209b3184e93ca41cabce11ffb0ee053c7d5ceaafeb551f4cfe7c",
    "s7": "9e5e5a6a8326546ea2eb96193a82e5ce63081e8c104817e05d3b2553e437e7f9",
    "a8": "beb484db21e477ca1fe464e9698383b2a524c4f03874d791bb1644946fbac36b",
    "m11": "b829b4afb4d4884365cd14ff758b1a5d8204ae8804b53a4f70ada3ec6a0a94fb",
    "c400": "3bee29938150a93c7a6901d3838fd16a8c5e23ae2af39eb2c96d87694d8c6672",
    "d701": "ab854886f951b8a822d8aab4a1517af28c2e5234df90d0ace6ec94f09373d608",
    "m12": "c5cbadab4fba581ab523bacbe34519bf512c021d7028a6acf3ad91f5bb7bd616",
}


@pytest.mark.parametrize("name", [pytest.param(name, marks=pytest.mark.slow) if name == "m12" else name
                                  for name in DIGESTS])
def test_group_data_is_pinned(name):
    assert group_digest(build(name)) == DIGESTS[name]


@pytest.mark.parametrize("name", ["a4", "psl27", "d701"])
def test_index_finds_members_and_rejects_others(name):
    G = build(name)
    for c in (0, 1, G.order // 2, G.order - 1):
        assert G.index(G.elements[c]) == c and type(G.index(G.elements[c])) is int
    # the transposition (1,2) is odd, and A4, PSL(2,7) on 7 points and D_701 on 701 points are even
    for g in (parse_cycles("(1,2)", G.degree), parse_cycles("(1,2)", G.degree + 1)):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(g))} is not an element of this group$"):
            G.index(g)
