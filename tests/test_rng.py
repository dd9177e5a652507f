from hypmix import rng

# Draws from rng.substream(20260808, 0), each from a fresh substream. The
# goldens rest on numpy's Philox output and on its bounded-integer and
# permutation algorithms; a numpy release that changes either must fail here,
# by name, rather than show up as a drifted estimate.
SEED, PATH = 20260808, (0,)
RANDOM_RAW = [9126000501111596204, 9792695406494489782, 10696830480035199171, 4282962404391261904]
INTEGERS_BELOW_8 = [5, 3, 4, 4, 5, 4, 2, 1, 7, 2, 6, 5]
PERMUTATION_18 = [4, 17, 7, 1, 14, 8, 11, 2, 6, 9, 16, 15, 10, 13, 0, 5, 3, 12]


def fresh():
    return rng.substream(SEED, *PATH)


def test_stream_pin():
    got = {
        "random_raw": [int(x) for x in fresh().bit_generator.random_raw(len(RANDOM_RAW))],
        "integers(0, 8)": fresh().integers(0, 8, size=len(INTEGERS_BELOW_8)).tolist(),
        "permutation(18)": fresh().permutation(18).tolist(),
    }
    want = {
        "random_raw": RANDOM_RAW,
        "integers(0, 8)": INTEGERS_BELOW_8,
        "permutation(18)": PERMUTATION_18,
    }
    changed = [f"{key}: {got[key]} != {want[key]}" for key in want if got[key] != want[key]]
    assert not changed, "numpy stream changed: " + "; ".join(changed)
