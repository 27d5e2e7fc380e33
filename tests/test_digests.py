"""Pinned outputs: sha256 digests of what the chain, the decoration scan and
the census enumerators print, on objects too large or too many for the
goldens.  A digest changes only with a change of output, which CHANGES.md
must explain."""

import hashlib
from itertools import product

import pytest

from conftest import random_sync_interval
from tamarimaps import (
    DyckPath,
    SyncInterval,
    decompose_interval,
    enumerate_decorated_trees,
    enumerate_dyck_paths,
    enumerate_nonseparable,
    enumerate_nonseparable_by_composition,
    enumerate_sync_intervals,
    interval_to_tree,
    recursive_interval_to_map,
    split_interval,
    tree_to_map,
)
from tamarimaps.trees import contour_tree

# tree_to_map(interval_to_tree(I)).to_text() at size 10^4, which the
# recursive inverse must also print: both oracles give the canonical map
MAP_DIGESTS = {
    "comb": "1f3bf428a07d01b1d9985f684dca56ebfbf71ef11b70d9c7048256aa5a8dddf3",
    "spine": "0f1fe2f843172f2fd677e38525d5f9b5288faec31fb4882808d34a2eb08b8fec",
    "random1": "075e4cfe4fb0b47364fd7d4d013150afe30ef57f08ed78c80d7e6be4c59fb803",
    "random2": "c7305387e633d40bd8fa72ebe9b63f4c4e35b3338236f6cec33dbd7ca9ec64b7",
    "random3": "009cd60ef5fe6b179e8ae3884f02e3e0a7e9fc2486a57c8dd2c0bdc7f6c703e7",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MAP_DIGESTS))
def test_map_texts_at_size_ten_thousand(name):
    n = 10**4
    if name.startswith("random"):
        I = random_sync_interval(n, int(name[len("random"):]))
    else:
        P = DyckPath("ud" * n if name == "comb" else "u" * n + "d" * n)
        I = SyncInterval(P, P)
    assert _sha(tree_to_map(interval_to_tree(I)).to_text()) == MAP_DIGESTS[name]
    assert _sha(recursive_interval_to_map(I).to_text()) == MAP_DIGESTS[name]


def test_chain_texts_of_every_interval_up_to_size_seven(sync_by_size):
    # the interval, its tree and its map, for each of the 2468 intervals in
    # enumeration order
    h = hashlib.sha256()
    for size in range(1, 8):
        for I in sync_by_size[size]:
            T = interval_to_tree(I)
            h.update((I.to_text() + "\n" + T.to_text() + "\n" + tree_to_map(T).to_text()).encode())
    assert h.hexdigest() == "a778287d7ee643e907d2b755f3c354c0ce5ec1bc527af74e1e68a503116e9a20"


def _pointed_text(pointed):
    base = pointed.base
    return "%s %d %s\n" % (base.to_text(), pointed.cut, base.lower.contact_positions())


def test_factor_texts_of_every_interval_up_to_size_eight(sync_by_size):
    # for each of the 12083 intervals of sizes 0-8 in enumeration order: every
    # factor of split_interval, then decompose_interval's pointed part and
    # rest, then (sizes 1-7) the recursive inverse's map
    h = hashlib.sha256()
    for size in range(0, 9):
        for I in sync_by_size[size] if size in sync_by_size else enumerate_sync_intervals(size):
            text = "".join(map(_pointed_text, split_interval(I))) + "|"
            if size:
                pointed, rest = decompose_interval(I)
                text += _pointed_text(pointed) + rest.to_text() + "\n"
            if 1 <= size <= 7:
                text += recursive_interval_to_map(I).to_text()
            h.update((text + "\n").encode())
    assert h.hexdigest() == "0b6739db9a2d69e75a8486a355a8fee09d659ad2437c7e3e4f4629a537033693"


def test_violation_texts_of_every_small_labelling():
    # every contour tree of 1-5 edges with each leaf labelled from -1 up to
    # its own depth, valid or not (3915 trees): its text and the text of
    # each violation, in validate() order
    h = hashlib.sha256()
    for size in range(1, 6):
        for P in enumerate_dyck_paths(size):
            heights, w = P.heights(), P.word
            depths = [heights[k] + 1 for k in range(len(w) - 1) if w[k : k + 2] == "ud"]
            for labels in product(*[range(-1, d + 1) for d in depths]):
                T = contour_tree(P, labels)
                line = "%s\t%s\n" % (T.to_text(), "; ".join(map(str, T.validate())))
                h.update(line.encode())
    assert h.hexdigest() == "80b90f6523c07a0dfaf4ed020f89aa067df7a33c3a30de96152dc5b44819a56b"


# the concatenated texts of each census, sizes in increasing order and each
# size in output order
CENSUS_DIGESTS = {
    "decorated_trees": "ed820ea9693195147b7fe6646c790e455e71170f32329ef062ef3fe225788b8b",
    "nonseparable_by_composition": "99eea9eea01c9e96a95b3fbb2f137bcbbd6dc82a9b53bbdb27651afe83abc307",
    "nonseparable": "36d14ef374584b4801399524ed45b590fb2bd9be6c204a3b51b200c90195c65b",
}


def test_census_texts():
    texts = {
        "decorated_trees": "".join(
            T.to_text() + "\n" for n in range(1, 8) for T in enumerate_decorated_trees(n)
        ),
        "nonseparable_by_composition": "".join(
            M.to_text() for m in range(2, 9) for M in enumerate_nonseparable_by_composition(m)
        ),
        "nonseparable": "".join(M.to_text() for m in range(2, 6) for M in enumerate_nonseparable(m)),
    }
    assert {name: _sha(text) for name, text in texts.items()} == CENSUS_DIGESTS
