import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlim.table import read_table, write_table

NAME = st.text(string.ascii_letters + string.digits + "_.-", min_size=1,
               max_size=8)
# printable ASCII text without the two characters a cell may not hold
CELL_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                  blacklist_characters=',"'), max_size=6)
# normal floats; near the largest double, 16 rounded digits overflow to inf
FLOAT = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=False)
CELL = st.one_of(FLOAT, st.integers(-10**20, 10**20), CELL_TEXT)


def same(written, read, digits):
    if isinstance(written, float):
        # %.<digits>g is within half a unit of its last digit: rtol 1e-15
        # at 16 digits; 17 digits (the contract files) give back every double
        if digits >= 17:
            return float(read) == written
        return math.isclose(float(read), written,
                            rel_tol=10.0 ** (1 - digits), abs_tol=0.0)
    return read == str(written)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_cols=st.integers(1, 5), n_rows=st.integers(0, 4),
       digits=st.sampled_from([8, 10, 16, 17]),
       meta=st.dictionaries(NAME, st.one_of(FLOAT, st.integers(), NAME),
                            max_size=4))
def test_round_trip(tmp_path_factory, data, n_cols, n_rows, digits, meta):
    header = data.draw(st.lists(NAME, min_size=n_cols, max_size=n_cols))
    rows = data.draw(st.lists(st.lists(CELL, min_size=n_cols,
                                       max_size=n_cols),
                              min_size=n_rows, max_size=n_rows))
    path = tmp_path_factory.mktemp("t") / "table.csv"
    write_table(path, header, rows, digits, meta)
    meta2, header2, rows2 = read_table(path)
    assert header2 == header
    assert list(meta2) == [str(k) for k in meta]
    assert all(same(v, meta2[k], digits) for k, v in meta.items())
    assert len(rows2) == len(rows)
    for row, row2 in zip(rows, rows2):
        assert len(row2) == n_cols
        assert all(same(v, v2, digits) for v, v2 in zip(row, row2))


def test_byte_layout(tmp_path):
    write_table(tmp_path / "t.csv", ["k", "x", "name"],
                [[0, 0.1, "a"], [1, 2.0, "b"]], 10, dict(t=0.5, m=4))
    assert (tmp_path / "t.csv").read_bytes() == \
        b"# t=0.5 m=4\nk,x,name\r\n0,0.1,a\r\n1,2,b\r\n"
    write_table(tmp_path / "u.csv", ["v"], [[1 / 3]], 8)
    assert (tmp_path / "u.csv").read_bytes() == b"v\r\n0.33333333\r\n"


@pytest.mark.parametrize("header, rows, meta", [
    (["a,b"], [], None),
    (["a"], [['say "x"']], None),
    (["a"], [["two\nlines"]], None),
    (["#a"], [], None),
    (["a", "b"], [[1.0]], None),
    (["a"], [], {"k": "has space"}),
    (["a"], [], {"k=v": 1}),
])
def test_rejects_what_cannot_round_trip(tmp_path, header, rows, meta):
    with pytest.raises(ValueError):
        write_table(tmp_path / "bad.csv", header, rows, 10, meta)
