"""The artifact writers write the bytes of the standard library's writers.

``float_reprs`` is held against ``float.__repr__`` on generated arrays and
on the decade bounds where orjson's spelling differs from ``repr``.
``write_json`` is held against a literal ``json.dump(indent=2,
sort_keys=True)``, and the Riccati and second-moment CSV writers against
the ``csv.writer`` loops in ``corpus.py``.  The memory guards check that
the writers stream: neither holds a whole (50, 10), N = 40 document.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mjls import (
    FiniteHorizonSolution,
    MjlsModel,
    Policy,
    propagate_second_moment,
    save_model,
    solve_finite,
    write_moment_csv,
    write_riccati_csv,
)
from mjls import artifacts
from mjls.artifacts import Template, blocked_reprs, float_reprs, write_json
from mjls.riccati import _stage_template
from mjls.sim import _trial_template

from conftest import scalar_model, two_mode_benchmark
from corpus import (
    format_array_template,
    format_stage_template,
    format_trial_template,
    literal_moment_csv,
    literal_riccati_csv,
    random_stationary_policy,
    stacked_corpus,
)


def literal_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


NAN, INF = float("nan"), float("inf")


def float_arrays(max_dims=3):
    """Float64 arrays of any shape up to ``max_dims`` axes, empty ones
    included, with NaN, infinities, subnormals and -0.0 among the entries."""
    return arrays(np.float64,
                  array_shapes(min_dims=0, max_dims=max_dims, min_side=0,
                               max_side=6),
                  elements=st.floats(width=64))


def reference_reprs(array):
    return list(map(float.__repr__, np.ravel(array).tolist()))


def neighbours(x, count=40):
    """``count`` doubles on each side of ``x``, ``x`` itself, and their
    negatives."""
    up, down = [x], [x]
    for _ in range(count):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], 0.0))
    values = np.array(up + down)
    return np.concatenate([values, -values])


# Where orjson and repr part ways: the decade bounds of its positional range
# and of repr's, two-digit exponents, and the smallest subnormal.
BOUNDARIES = np.concatenate(
    [neighbours(x) for x in (1e-5, 1e-4, 1e16, 1e-9, 1e-10, 1e-6)]
    + [np.array([5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, 1e22,
                 1.7976931308623157e308, 0.0, -0.0, NAN, INF, -INF])])


class TestFloatReprs:
    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_matches_repr(self, array):
        assert float_reprs(array) == reference_reprs(array)

    def test_matches_repr_at_the_boundaries(self):
        assert float_reprs(BOUNDARIES) == reference_reprs(BOUNDARIES)
        for lo in range(0, BOUNDARIES.size, 37):
            chunk = BOUNDARIES[lo:lo + 37]
            assert float_reprs(chunk) == reference_reprs(chunk)

    def test_reads_views_by_value(self):
        stack = np.arange(24.0).reshape(2, 3, 4) * 1e-7
        view = stack.swapaxes(1, 2)[:, ::2]
        assert float_reprs(view) == reference_reprs(view)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(float_arrays(max_dims=2), max_size=8),
           st.integers(1, 40))
    def test_blocks_split_back_per_item(self, items, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(artifacts, "BLOCK_FLOATS", block)
            blocks = list(blocked_reprs(enumerate(items)))
        assert [key for key, _ in blocks] == list(range(len(items)))
        assert [reprs for _, reprs in blocks] == [
            reference_reprs(item) for item in items]

    def test_import_check_rejects_unmended_spellings(self, monkeypatch):
        dumps = artifacts.orjson.dumps

        def respelled(flat, option):
            return dumps(flat, option=option).replace(b"1e16", b"1.0e16")

        monkeypatch.setattr(artifacts.orjson, "dumps", respelled)
        with pytest.raises(ImportError, match=r"'1\.0e\+16' for '1e\+16'"):
            artifacts._check_orjson()


def format_text(items):
    """The ``str.format`` template of a :class:`Template`'s items."""
    return "".join(
        item.replace("{", "{{").replace("}", "}}") if isinstance(item, str)
        else f"{{{item}}}" for item in items)


def some_reprs(count, draw):
    """``count`` float reprs, NaN and infinities among them."""
    return float_reprs(np.array(draw(st.lists(
        st.floats(width=64), min_size=count, max_size=count))))


class TestTemplate:
    """A template spliced from its pieces gives the string ``str.format``
    gives."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_str_format(self, data):
        items = data.draw(st.lists(
            st.one_of(st.text(max_size=4), st.integers(0, 7)), max_size=20))
        count = 1 + max((item for item in items if isinstance(item, int)),
                        default=-1)
        values = data.draw(st.lists(st.text(max_size=3), min_size=count,
                                    max_size=count))
        assert Template(items).render(values) == \
            format_text(items).format(*values)

    def test_fields_in_order_take_the_values_themselves(self):
        assert Template(["[", 0, ",", 1, "]"]).render(["a", "b"]) == "[a,b]"
        assert Template([0]).render(["x"]) == "x"
        assert Template(["only text"]).render([]) == "only text"
        assert Template([]).render([]) == ""
        with pytest.raises(ValueError):
            Template(["[", 0, ",", 1, "]"]).render(["a"])

    def test_repeated_pieces_are_stored_once(self):
        template = _stage_template(4, 3, 2, True)
        pieces = template._parts[0::2]
        assert len({id(piece) for piece in pieces}) == len(set(pieces))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 5),
           st.booleans(), st.integers(0, 10 ** 6), st.data())
    def test_stage_template_matches_its_format_string(self, L, n, m, mirror,
                                                      k, data):
        size = n * (n + 1) // 2 if mirror else n * n
        reprs = some_reprs(L * (size + m * n), data.draw)
        prefixes = [f"{k},{i}," for i in range(L)]
        assert _stage_template(L, n, m, mirror).render(
            prefixes + reprs) == format_stage_template(
                L, n, m, mirror).format(k, *reprs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 10 ** 6), st.data())
    def test_trial_template_matches_its_format_string(self, N, n, m, trial,
                                                      data):
        modes = data.draw(st.lists(st.integers(0, 60), min_size=N + 2,
                                   max_size=N + 2))
        reprs = some_reprs((N + 2) * (n + 1) + (N + 1) * m, data.draw)
        assert _trial_template(N, n, m).render(
            [str(trial), *map(str, modes), *reprs]) == \
            format_trial_template(N, n, m).format(trial, *modes, *reprs)

    @settings(max_examples=150, deadline=None)
    @given(array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=5),
           st.sampled_from(["\n", "\n  ", "\n      "]), st.data())
    def test_array_rows_match_the_auto_numbered_format_string(
            self, shape, indent, data):
        # The rows of an array, cut anywhere into two blocks, spliced and
        # closed, give the whole array's template filled by str.format.
        reprs = some_reprs(math.prod(shape), data.draw)
        cut = data.draw(st.integers(0, shape[0]))
        width = math.prod(shape[1:])
        text = "".join(
            artifacts._rows_template(rows, shape[1:], indent, not lo).render(
                reprs[lo * width:(lo + rows) * width])
            for lo, rows in ((0, cut), (cut, shape[0] - cut)) if rows)
        want = format_array_template(shape, indent).format(*reprs)
        assert (text + indent + "]" if shape[0] else "[]") == want


DOCUMENTS = [
    {"nan": NAN, "inf": INF, "-inf": -INF, "zero": -0.0, "tiny": 5e-324,
     "huge": 1e300},
    [NAN, INF, -INF, -0.0, 5e-324, 1e300, 0.1, -2.5e-17],
    {"empty": [], "nothing": {}, "nested": {"b": {"c": [[], {}]}, "a": 1}},
    {"int": 3, "neg": -7, "big": 10 ** 30, "true": True, "false": False,
     "none": None},
    {"ascii": "plain", "accents": "Σ ü ñ 日本", "sep": "a, b", "quote": 'x"y',
     "escapes": "tab\tnewline\nback\\slash\u0001", "ß": "key"},
    [1, 2.0, 3, 4.5], [2.0, 1], [True, 1.5], [None, 0.5], [1.5, "s"],
    (1.0, 2.0), {"tuple": (1, (2.5, 3.5), ()), "list": [(0.5,), [1.0]]},
    {"floats": [[1.0, NAN], [-INF, 2.0]], "mixed": [[1, 2], [0.5, 1]]},
    [np.float64(0.1), np.float64(-3.0)], {"x": np.float64(1e-300)},
    [], {}, 3.25, -0.0, NAN, 7, True, None, "text",
]


class TestWriteJson:
    @pytest.mark.parametrize("doc", DOCUMENTS, ids=range(len(DOCUMENTS)))
    def test_matches_json_dump(self, tmp_path, doc):
        ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
        write_json(doc, ours)
        literal_json(doc, ref)
        assert ours.read_bytes() == ref.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(max_size=3), float_arrays(), max_size=4),
           st.lists(float_arrays(), max_size=4))
    def test_float_arrays_write_their_lists(self, tmp_path_factory, arrays,
                                            stack):
        tmp_path = tmp_path_factory.getbasetemp()
        doc = {"arrays": arrays, "stack": stack, "one": np.zeros((2, 1))}
        plain = {"arrays": {key: value.tolist()
                            for key, value in arrays.items()},
                 "stack": [value.tolist() for value in stack],
                 "one": [[0.0], [0.0]]}
        ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
        write_json(doc, ours)
        literal_json(plain, ref)
        assert ours.read_bytes() == ref.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(float_arrays(max_dims=2), st.integers(1, 4)),
                    max_size=5), float_arrays(), st.integers(1, 40))
    def test_any_block_size_writes_the_lists(self, tmp_path_factory, runs,
                                            array, block):
        # A list of arrays is written one array at a time; an array is cut
        # between rows.
        tmp_path = tmp_path_factory.getbasetemp()
        stack = [item for item, count in runs for _ in range(count)]
        ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(artifacts, "BLOCK_FLOATS", block)
            write_json({"stack": stack, "array": array}, ours)
        literal_json({"stack": [item.tolist() for item in stack],
                      "array": array.tolist()}, ref)
        assert ours.read_bytes() == ref.read_bytes()

    def test_matches_json_dump_on_random_stacks(self, tmp_path):
        rng = np.random.default_rng(5)
        stacks = rng.standard_normal((3, 4, 2, 3)) * 10.0 ** rng.integers(
            -300, 300, (3, 4, 2, 3))
        doc = {"gains": [[g.tolist() for g in stage] for stage in stacks],
               "ints": rng.integers(-9, 9, 5).tolist(), "cost": 1.5}
        ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
        write_json(doc, ours)
        literal_json(doc, ref)
        assert ours.read_bytes() == ref.read_bytes()

    # Float64 arrays are written as their .tolist(); other dtypes are not.
    @pytest.mark.parametrize("doc", [{"a": np.int64(1)}, [object()],
                                     np.zeros(2, dtype=np.int64)])
    def test_unserializable_raises_type_error(self, tmp_path, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            write_json(doc, tmp_path / "ours.json")

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
    def test_keys_other_than_strings_raise_type_error(self, tmp_path, key):
        with pytest.raises(TypeError):
            write_json({key: 0.5}, tmp_path / "ours.json")

    def test_save_model_writes_json_dump_bytes(self, tmp_path):
        model = two_mode_benchmark()
        save_model(model, tmp_path / "ours.json")
        literal_json(model.to_dict(), tmp_path / "ref.json")
        assert ((tmp_path / "ours.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())


def assert_riccati_bytes(tmp_path, sol):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_riccati_csv(sol, ours)
    literal_riccati_csv(sol, ref)
    assert ours.read_bytes() == ref.read_bytes()


def hand_built_solution(P, K, horizon=0):
    """A solvable solution whose stages all hold the (L, n, n) stack ``P``
    and the (L, m, n) stack ``K``, as views that keep their strides;
    stage ``horizon + 1`` is the terminal stage.  The writer reads no
    Upsilon."""
    return FiniteHorizonSolution(
        horizon=horizon, P=np.broadcast_to(P, (horizon + 2,) + P.shape),
        Upsilon=None, K=np.broadcast_to(K, (horizon + 1,) + K.shape),
        upsilon_min_eig=None, solvable=True)


class TestRiccatiCsv:
    def test_matches_csv_writer_on_corpus(self, tmp_path):
        rng = np.random.default_rng(7)
        shapes = set()
        for model in stacked_corpus(rng, count=24):
            n, m = model.state_dim, model.input_dim
            shapes.add(m > n)
            sol = solve_finite(model, [np.eye(n)] * model.mode_count, 3)
            assert sol.solvable
            assert_riccati_bytes(tmp_path, sol)
        assert shapes == {False, True}

    def test_unsolvable_solution_writes_no_gains(self, tmp_path):
        model = MjlsModel(
            A=[np.eye(2), np.zeros((2, 2))], B=[np.eye(2)[:, :1]] * 2,
            Q=[np.eye(2), np.zeros((2, 2))], R=[[[1.0]], [[0.0]]],
            transition=[[0.5, 0.5], [0.0, 1.0]],
            initial_distribution=[0.5, 0.5], x0=[1.0, 1.0])
        sol = solve_finite(model, [np.eye(2)] * 2, 4,
                           raise_on_breakdown=False)
        assert not sol.solvable and not np.isnan(sol.K[4]).any()
        assert_riccati_bytes(tmp_path, sol)
        sol = solve_finite(scalar_model(a=1.0, b=1.0, q=0.0, r=0.0),
                           [np.zeros((1, 1))], 3, raise_on_breakdown=False)
        assert not sol.solvable
        assert_riccati_bytes(tmp_path, sol)

    def test_asymmetric_stacks_are_written_entry_by_entry(self, tmp_path):
        rng = np.random.default_rng(11)
        K = rng.standard_normal((2, 3, 2))
        P = rng.standard_normal((2, 2, 2))
        assert_riccati_bytes(tmp_path, hand_built_solution(P, K))
        # Equal by value, not by bits: a mirrored -0.0 would print as 0.0.
        P = np.array([[[1.0, 0.0], [-0.0, 2.0]], [[1.0, 0.5], [0.5, 1.0]]])
        assert np.array_equal(P, P.swapaxes(1, 2))
        assert_riccati_bytes(tmp_path, hand_built_solution(P, K))
        P = np.array([[[NAN, INF], [INF, -INF]]])
        assert_riccati_bytes(tmp_path, hand_built_solution(P, K[:1]))

    def test_transposed_views_are_read_by_value(self, tmp_path):
        rng = np.random.default_rng(13)
        P = rng.standard_normal((3, 3, 3)).swapaxes(1, 2)
        K = rng.standard_normal((3, 3, 1)).swapaxes(1, 2)
        assert_riccati_bytes(tmp_path, hand_built_solution(P, K))


    @pytest.mark.parametrize("block", [1, 50, 100])
    def test_any_block_size_writes_the_same_bytes(self, tmp_path, block):
        # A stage holds 24 floats, so blocks hold 1, 2 or 4 stages: some
        # mix bitwise symmetric and asymmetric stages, some hold the
        # terminal stage.  A solution that broke down starts late.
        rng = np.random.default_rng(29)
        G = rng.standard_normal((5, 2, 3, 3))
        P = np.stack([G[k] + G[k].swapaxes(1, 2) if k % 3 else G[k]
                      for k in range(5)])
        K = rng.standard_normal((4, 2, 2, 3))
        mixed = FiniteHorizonSolution(
            horizon=3, P=P, Upsilon=None, K=K, upsilon_min_eig=None,
            solvable=True)
        broken = solve_finite(scalar_model(a=1.0, b=1.0, q=0.0, r=0.0),
                              [np.eye(1)], 6, raise_on_breakdown=False)
        assert broken.breakdown.stage == 5 and np.isnan(broken.P[:6]).all()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(artifacts, "BLOCK_FLOATS", block)
            assert_riccati_bytes(tmp_path, mixed)
            assert_riccati_bytes(tmp_path, broken)


class TestMomentCsv:
    def test_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(17)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        for model in stacked_corpus(rng, count=12):
            for policy in (None, random_stationary_policy(rng, model)):
                chain = propagate_second_moment(model, policy, 9)
                write_moment_csv(chain, ours)
                literal_moment_csv(chain, ref)
                assert ours.read_bytes() == ref.read_bytes()

    def test_staged_policy_and_zero_steps(self, tmp_path, bench):
        sol = solve_finite(bench, [np.eye(2)] * 2, 5)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        for steps in (0, 6):
            chain = propagate_second_moment(bench, sol.policy(), steps)
            write_moment_csv(chain, ours)
            literal_moment_csv(chain, ref)
            assert ours.read_bytes() == ref.read_bytes()
        chain = propagate_second_moment(
            bench, Policy.stationary(sol.K[0]), 8)
        write_moment_csv(chain, ours)
        literal_moment_csv(chain, ref)
        assert ours.read_bytes() == ref.read_bytes()


def traced_peak(write, *args) -> int:
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuard:
    # The (50, 10), N = 40 artifacts of `solve-finite`: 3.5 MB of
    # gains.json and 9.1 MB of riccati.csv, from random stacks.
    L, n, m, N = 50, 10, 5, 40

    def test_gains_document_streams(self, tmp_path):
        rng = np.random.default_rng(19)
        K = rng.standard_normal((self.N + 1, self.L, self.m, self.n))
        eigs = rng.uniform(0.1, 2.0, (self.N + 1, self.L))
        doc = {"gains": [[g.tolist() for g in stage] for stage in K],
               "upsilon_min_eigenvalues": eigs.tolist(),
               "horizon": self.N, "optimal_cost": 1.0}
        # A whole-document string would peak near 10 MB.
        assert traced_peak(write_json, doc, tmp_path / "gains.json") < 1e6
        # The command passes the stacks themselves; a list of arrays is
        # written one array at a time.
        for gains in (K, list(K)):
            doc.update(gains=gains, upsilon_min_eigenvalues=eigs)
            assert traced_peak(write_json, doc,
                               tmp_path / "gains.json") < 1e6

    def test_riccati_csv_streams(self, tmp_path):
        rng = np.random.default_rng(23)
        G = rng.standard_normal((self.L, self.n, self.n))
        P = G + G.swapaxes(1, 2)
        K = rng.standard_normal((self.L, self.m, self.n))
        sol = hand_built_solution(P, K, horizon=self.N)
        assert traced_peak(write_riccati_csv, sol,
                           tmp_path / "riccati.csv") < 2e6
