"""Unit tests for the twitter/cache-trace CSV reader."""

import io

import pytest

from repro.errors import TraceError
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET
from repro.workloads.twitter_csv import load_twitter_csv

SAMPLE = """\
0,keyA,20,200,1,get,0
1,keyB,24,400,1,set,3600
2,keyA,20,200,2,get,0
3,keyB,24,400,1,gets,0
4,keyC,16,100,3,delete,0
5,keyD,16,80,3,add,100
6,keyD,16,80,3,incr,100
"""


def load_sample(**kw):
    return load_twitter_csv(io.StringIO(SAMPLE), **kw)


class TestParsing:
    def test_request_count(self):
        assert len(load_sample()) == 7

    def test_op_mapping(self):
        t = load_sample()
        assert list(t.ops) == [
            OP_GET,
            OP_SET,
            OP_GET,
            OP_GET,
            OP_DELETE,
            OP_SET,
            OP_SET,
        ]

    def test_keys_stable_per_string(self):
        t = load_sample()
        assert t.keys[0] == t.keys[2]  # keyA twice
        assert t.keys[0] != t.keys[1]

    def test_sizes_are_key_plus_value(self):
        t = load_sample()
        assert t.sizes[0] == 220
        assert t.sizes[1] == 424

    def test_size_stable_per_key(self):
        t = load_sample()
        assert t.sizes[5] == t.sizes[6]

    def test_max_requests(self):
        assert len(load_sample(max_requests=3)) == 3

    def test_size_scale(self):
        t = load_sample(size_scale=2.0)
        assert t.sizes[0] == 110

    def test_min_object_size_floor(self):
        t = load_sample(size_scale=100.0, min_object_size=32)
        assert t.sizes.min() >= 32

    def test_default_name(self):
        assert load_sample().name == "twitter-csv"


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_twitter_csv(tmp_path / "nope.csv")

    def test_short_row(self):
        with pytest.raises(TraceError):
            load_twitter_csv(io.StringIO("0,key,20,200\n"))

    def test_unknown_op(self):
        with pytest.raises(TraceError):
            load_twitter_csv(io.StringIO("0,k,20,200,1,frobnicate,0\n"))

    def test_bad_sizes(self):
        with pytest.raises(TraceError):
            load_twitter_csv(io.StringIO("0,k,xx,200,1,get,0\n"))

    def test_non_numeric_size_on_a_repeat_row(self):
        rows = "0,k,20,200,1,get,0\n1,k,abc,200,1,get,0\n"
        with pytest.raises(TraceError, match="line 2: non-numeric size"):
            load_twitter_csv(io.StringIO(rows))

    def test_negative_size(self):
        with pytest.raises(TraceError, match="line 1: negative size"):
            load_twitter_csv(io.StringIO("0,k,20,-300,1,get,0\n"))

    def test_empty_file(self):
        with pytest.raises(TraceError):
            load_twitter_csv(io.StringIO(""))

    def test_bad_scale(self):
        with pytest.raises(TraceError):
            load_sample(size_scale=0.0)


class TestFileRoundtrip:
    def test_from_path(self, tmp_path):
        path = tmp_path / "cluster_x.csv"
        path.write_text(SAMPLE)
        t = load_twitter_csv(path, max_requests=5)
        assert t.name == "cluster_x"
        assert len(t) == 5

    def test_replayable(self, tmp_path, tiny_geometry):
        from repro.baselines.log_structured import LogStructuredCache
        from repro.harness.runner import replay

        path = tmp_path / "t.csv"
        path.write_text(SAMPLE * 50)
        trace = load_twitter_csv(path)
        engine = LogStructuredCache(tiny_geometry)
        result = replay(engine, trace)
        assert result.num_requests == 350
        assert engine.counters.hits > 0
