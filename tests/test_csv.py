import tracemalloc

import numpy as np

from roomchan._csv import write_csv


def written(path, *args, **kwargs):
    write_csv(path, *args, **kwargs)
    return path.read_bytes()


class TestLayout:
    def test_comment_strings_and_17_digit_floats(self, tmp_path):
        data = written(
            tmp_path / "a.csv", "tau_seconds,value,unit",
            np.array([0.1, 1.0, 1e-300]), [1 / 3, 2.0**60, -0.0], ["count", "rate", "x y"],
            comment=(("dirac_location", 0.1), ("dirac_weight", 3)),
        )
        assert data == (
            b"# dirac_location=0.10000000000000001,dirac_weight=3\n"
            b"tau_seconds,value,unit\n"
            b"0.10000000000000001,0.33333333333333331,count\n"
            b"1,1.152921504606847e+18,rate\n"
            b"1e-300,-0,x y\n"
        )

    def test_header_only(self, tmp_path):
        assert written(tmp_path / "a.csv", "a,b") == b"a,b\n"
        assert written(tmp_path / "b.csv", "a,b", [], []) == b"a,b\n"
        assert written(tmp_path / "c.csv", "a,b", comment=(("k", 0.5),)) == b"# k=0.5\na,b\n"

    def test_floats_read_back_bitwise(self, tmp_path):
        values = np.random.default_rng(3).standard_normal(100) * 10.0 ** np.arange(-50, 50)
        path = tmp_path / "a.csv"
        write_csv(path, "v", values)
        back = np.array([float(line) for line in path.read_text().splitlines()[1:]])
        assert back.tobytes() == values.tobytes()


def test_rows_are_streamed(tmp_path):
    # Built as one string, these 200k rows of three 17-digit columns took 47.6 MB.
    rows = 200_000
    columns = [np.linspace(0.0, 1.0, rows) / 3.0 for _ in range(3)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", "a,b,c", *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with open(tmp_path / "big.csv", "rb") as fh:
        assert sum(1 for _ in fh) == rows + 1
