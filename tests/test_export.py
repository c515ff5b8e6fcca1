import numpy as np

from qcollide import export


class TestFloatFormat:
    def test_round_trip_precision(self):
        rng = np.random.default_rng(7)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(export.fmt(float(x))) == float(x)

    def test_plain_values(self):
        assert export.fmt(1.0) == "1"
        assert export.fmt(0.5) == "0.5"


class TestWriteText:
    def test_creates_file_and_parents(self, tmp_path):
        path = export.write_text(tmp_path / "a" / "b" / "out.csv", "x,y\n1,2\n")
        assert path.read_bytes() == b"x,y\n1,2\n"

    def test_rewrite_keeps_only_new_text(self, tmp_path):
        path = tmp_path / "out.json"
        export.write_text(path, "long old content\r\n" * 50)
        for text in ("short\n", "short\n", "", "a\r\nlonger line than before\n"):
            export.write_text(path, text)
            assert path.read_bytes() == text.encode()
