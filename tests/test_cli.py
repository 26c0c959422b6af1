"""Command-line behavior: routing, output formats, exit codes, generators."""

import math
import time
import warnings

import numpy as np
import pytest

from mcsketch import cli, core, pipeline
from mcsketch.cli import main
from mcsketch.codec import deserialize, serialize, size_report
from mcsketch.core import (
    DistanceMatrix,
    GuaranteeError,
    SketchParams,
    load_input,
    normalize,
    write_matrix,
    write_points,
)
from mcsketch.estimate import Estimator
from mcsketch.pipeline import (
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_random_graph_metric,
    gen_uniform,
)
from mcsketch.reduce import target_dim


def _kv(captured: str) -> dict[str, str]:
    out = {}
    for line in captured.strip().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


# --------------------------------------------------------------------------
# sketch


def test_sketch_roundtrips(tmp_path, capsys):
    rng = np.random.default_rng(0)
    src = tmp_path / "pts.mcpt"
    dst = tmp_path / "out.mcsk"
    write_points(src, rng.normal(size=(20, 3)) * 10, 2.0)
    rc = main(["sketch", str(src), "-e", "0.25", "--no-jl", "-o", str(dst)])
    assert rc == 0
    blob = dst.read_bytes()
    model = deserialize(blob)
    assert serialize(model) == blob
    assert model.n == 20 and model.d == 3
    kv = _kv(capsys.readouterr().out)
    assert int(kv["total_bytes"]) == len(blob)


def test_sketch_matrix_routes_to_linf(tmp_path, capsys):
    dst = tmp_path / "out.mcsk"
    src = tmp_path / "dm.mcdm"
    write_matrix(src, gen_random_graph_metric(12, seed=1))
    rc = main(["sketch", str(src), "-e", "0.25", "-o", str(dst)])
    assert rc == 0
    model = deserialize(dst.read_bytes())
    assert model.p == math.inf
    assert model.d == 12 == model.n


@pytest.mark.parametrize("command", ["sketch", "eval"])
def test_matrix_build_makes_one_linf_pass(tmp_path, monkeypatch, command):
    # validation's pass, divided in place into the stored oracle; reading the
    # file must not validate a second time
    src = tmp_path / "dm.mcdm"
    write_matrix(src, gen_random_graph_metric(12, seed=1))
    passes = []
    real = core._pairwise

    def counting(x, p):
        passes.append(p)
        return real(x, p)

    monkeypatch.setattr(core, "_pairwise", counting)
    argv = [command, str(src), "-e", "0.25"]
    if command == "sketch":
        argv += ["-o", str(tmp_path / "out.mcsk")]
    assert main(argv) == 0
    assert passes == [math.inf]


def test_matrix_input_refuses_a_finite_norm(tmp_path, capsys):
    # a matrix is always sketched at p = inf; any other -p is a usage error,
    # raised before anything is written
    src = tmp_path / "dm.mcdm"
    write_matrix(src, gen_random_graph_metric(12, seed=1))
    for command in ("sketch", "eval"):
        dst = tmp_path / f"{command}-bad.mcsk"
        argv = [command, str(src), "-e", "0.25", "-p", "2"]
        if command == "sketch":
            argv += ["-o", str(dst)]
        assert main(argv) == 1
        assert "p = inf" in capsys.readouterr().err
        assert not dst.exists()
    dst = tmp_path / "inf.mcsk"
    assert main(["sketch", str(src), "-e", "0.25", "-p", "inf", "-o", str(dst)]) == 0
    assert deserialize(dst.read_bytes()).p == math.inf


def _count_passes(monkeypatch) -> list[int]:
    """Record the dimension of every ``_pairwise`` pass from now on."""
    dims = []
    real = core._pairwise

    def counting(x, p):
        dims.append(x.shape[1])
        return real(x, p)

    monkeypatch.setattr(core, "_pairwise", counting)
    return dims


def test_projected_prepare_points_makes_no_pass_at_the_original_dimension(monkeypatch):
    coords = np.random.default_rng(10).normal(size=(60, 800)) * 3.0
    params = SketchParams(epsilon=0.25, jl_seed=4)
    dprime = target_dim(60, params.epsilon)
    # the same projection of the set normalized at the original dimension
    full = normalize(coords, 2.0)
    signs = np.random.default_rng(params.jl_seed).integers(0, 2, size=(800, dprime)) * 2.0 - 1.0
    want = normalize(full.coords @ signs / math.sqrt(dprime), 2.0)
    dims = _count_passes(monkeypatch)
    ps = pipeline.prepare_points(coords, 2.0, params)
    assert ps.jl_orig_dim == 800
    # one pass, the stored matrix of the projected set
    assert dims == [dprime]
    assert np.array_equal(ps.coords, want.coords)
    assert ps.scale == full.scale * want.scale and ps.spread == want.spread


def test_eval_of_projected_points_makes_one_pass_at_the_original_dimension(
    tmp_path, monkeypatch
):
    # the projected set's matrix, then the raw oracle for the end-to-end error
    src = tmp_path / "pts.mcpt"
    write_points(src, np.random.default_rng(11).normal(size=(40, 300)), 2.0)
    dims = _count_passes(monkeypatch)
    assert main(["eval", str(src), "-e", "0.5"]) == 0
    assert dims == [target_dim(40, 0.5), 300]


def test_sketch_text_input(tmp_path, capsys):
    src = tmp_path / "pts.txt"
    src.write_text("0 0\n1 0\n5 5\n")
    dst = tmp_path / "out.mcsk"
    rc = main(["sketch", str(src), "-e", "0.25", "--no-jl", "-o", str(dst)])
    assert rc == 0
    assert deserialize(dst.read_bytes()).n == 3


@pytest.mark.parametrize("command", ["sketch", "eval"])
def test_sketch_passed_as_input_is_a_format_error(tmp_path, capsys, command):
    # a blob has neither input magic, so it was once read as UTF-8 text and
    # ended in an uncaught UnicodeDecodeError; it is named as a sketch, and
    # any other file that is not UTF-8 text is refused too, exit 2
    blob = _sketched(tmp_path, np.random.default_rng(5).normal(size=(20, 2)))
    dst = tmp_path / "again.mcsk"
    capsys.readouterr()
    out = ["-o", str(dst)] if command == "sketch" else []
    assert main([command, str(blob), "-e", "0.25", "--no-jl", *out]) == 2
    assert "is a sketch (an MCSK blob)" in capsys.readouterr().err
    binary = tmp_path / "pts.bin"
    binary.write_bytes(b"0 0\n1 \xff\xfe\n")
    assert main([command, str(binary), "-e", "0.25", "--no-jl", *out]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err
    assert not dst.exists()


# --------------------------------------------------------------------------
# query


def _sketched(tmp_path, coords, *extra):
    src = tmp_path / "q.mcpt"
    dst = tmp_path / "q.mcsk"
    write_points(src, coords, 2.0)
    rc = main(["sketch", str(src), "-e", "0.25", "--no-jl", *extra, "-o", str(dst)])
    assert rc == 0
    return dst


def test_query_same_label_prints_zero(tmp_path, capsys):
    dst = _sketched(tmp_path, np.array([[0.0], [1.0], [10.0]]))
    capsys.readouterr()
    assert main(["query", str(dst), "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_query_two_point_instance_within_bound(tmp_path, capsys):
    dst = _sketched(tmp_path, np.array([[0.0], [7.0]]))
    capsys.readouterr()
    assert main(["query", str(dst), "0", "1"]) == 0
    est = float(capsys.readouterr().out.strip())
    assert (1 - 1.0) * 7.0 <= est <= (1 + 1.0) * 7.0  # 4*eps = 1


def test_query_pairs_file_order(tmp_path, capsys):
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(8, 2)) * 9
    dst = _sketched(tmp_path, coords)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("# all on one sketch\n0 1\n3,4\n5 5\n")
    capsys.readouterr()
    assert main(["query", str(dst), "--pairs", str(pairs)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[2] == "0"


def test_query_twelve_significant_digits(tmp_path, capsys):
    dst = _sketched(tmp_path, np.array([[0.0], [1.0], [10.0]]))
    capsys.readouterr()
    main(["query", str(dst), "0", "2"])
    text = capsys.readouterr().out.strip()
    blob = dst.read_bytes()
    assert text == f"{Estimator(blob).estimate(0, 2):.12g}"


def test_query_landmark_mode_identical_output(tmp_path, capsys):
    rng = np.random.default_rng(2)
    dst = _sketched(tmp_path, rng.normal(size=(15, 2)) * 12, "--landmarks")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(f"{i} {j}\n" for i in range(15) for j in range(i + 1, 15)))
    capsys.readouterr()
    assert main(["query", str(dst), "--pairs", str(pairs)]) == 0
    default_out = capsys.readouterr().out
    assert main(["query", str(dst), "--pairs", str(pairs), "--landmarks"]) == 0
    landmark_out = capsys.readouterr().out
    assert default_out == landmark_out


def test_query_pairs_file_not_utf8_is_a_format_error(tmp_path, capsys):
    # a pairs file is read as UTF-8 text; undecodable bytes (the blob itself
    # passed as the pairs file, or a stray byte order mark) once ended in an
    # uncaught UnicodeDecodeError, and exit 2 now, as an input file does
    dst = _sketched(tmp_path, np.array([[0.0], [1.0], [10.0]]))
    bom = tmp_path / "pairs.txt"
    bom.write_bytes(b"\xff\xfe 2\n")
    for pairs in (dst, bom):
        capsys.readouterr()
        assert main(["query", str(dst), "--pairs", str(pairs)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {pairs}: not UTF-8 text")
        assert captured.out == ""


# --------------------------------------------------------------------------
# eval


def test_eval_reports_and_passes(tmp_path, capsys):
    rng = np.random.default_rng(3)
    src = tmp_path / "pts.mcpt"
    write_points(src, gen_gaussian_clusters(60, 5, seed=4), 2.0)
    rc = main(["eval", str(src), "-e", "0.25", "--no-jl"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["status"] == "ok"
    assert float(kv["max_rel_error"]) <= 1.0
    assert float(kv["mean_rel_error"]) <= float(kv["max_rel_error"])
    assert int(kv["total_bits"]) > 0
    assert kv["jl_applied"] == "0"
    assert "end_to_end_max_error" not in kv


def test_eval_reports_end_to_end_with_jl(tmp_path, capsys):
    rng = np.random.default_rng(5)
    src = tmp_path / "pts.mcpt"
    write_points(src, rng.normal(size=(50, 500)), 2.0)
    rc = main(["eval", str(src), "-e", "0.25"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["status"] == "ok"
    assert kv["jl_applied"] == "1"
    assert "end_to_end_max_error" in kv
    assert float(kv["end_to_end_budget"]) == pytest.approx((1.25) * (2.0) - 1.0)


# --------------------------------------------------------------------------
# gen


def test_gen_uniform_two_points_normalizes_to_one(tmp_path):
    out = tmp_path / "two.mcpt"
    assert main(["gen", "uniform", "-n", "2", "-d", "3", "--seed", "9", "-o", str(out)]) == 0
    kind, coords, p = load_input(out)
    ps = normalize(coords, p)
    assert ps.spread == 1.0
    from mcsketch.core import oracle_all_pairs

    assert oracle_all_pairs(ps)[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.mcpt", tmp_path / "b.mcpt"
    main(["gen", "gaussian-clusters", "-n", "30", "-d", "4", "--seed", "7", "-o", str(a)])
    main(["gen", "gaussian-clusters", "-n", "30", "-d", "4", "--seed", "7", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_high_spread_line_hits_exact_spread(tmp_path):
    out = tmp_path / "line.mcpt"
    assert main(["gen", "high-spread-line", "-n", "20", "-t", "512", "--seed", "3", "-o", str(out)]) == 0
    kind, coords, p = load_input(out)
    ps = normalize(coords, p)
    assert ps.spread >= math.ldexp(1.0, 512)
    assert ps.spread == math.ldexp(1.0, 512)
    assert ps.scale == 1.0


def test_gen_graph_metric_is_valid(tmp_path):
    out = tmp_path / "g.mcdm"
    assert main(["gen", "random-graph-metric", "-n", "32", "--seed", "5", "-o", str(out)]) == 0
    kind, dm, _ = load_input(out)
    assert kind == "matrix" and dm.n == 32
    dm.validate()  # the metric axioms, the triangle inequality among them


def test_gen_graph_metric_parses_its_norm(tmp_path, capsys):
    # -p is parsed for every kind; a matrix takes only inf, the rule sketch
    # applies to matrix input, and is refused before anything is written
    out = tmp_path / "g.mcdm"
    for p, message in (("abc", "cannot parse"), ("0.5", ">= 1"), ("2", "p = inf")):
        assert main(["gen", "random-graph-metric", "-n", "10", "-p", p, "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert main(["gen", "random-graph-metric", "-n", "10", "-p", "inf", "-o", str(out)]) == 0
    assert load_input(out)[1].n == 10


def test_gen_functions_are_pure():
    assert np.array_equal(gen_uniform(5, 2, 1), gen_uniform(5, 2, 1))
    assert np.array_equal(
        gen_high_spread_line(15, 64, 2), gen_high_spread_line(15, 64, 2)
    )
    assert np.array_equal(
        gen_random_graph_metric(10, 3), gen_random_graph_metric(10, 3)
    )
    DistanceMatrix(entries=gen_random_graph_metric(10, 3)).validate()


# --------------------------------------------------------------------------
# stats


def test_stats_fields(tmp_path, capsys):
    rng = np.random.default_rng(6)
    dst = _sketched(tmp_path, rng.normal(size=(10, 2)) * 7, "--landmarks")
    capsys.readouterr()
    assert main(["stats", str(dst)]) == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["n"] == "10" and kv["d"] == "2"
    assert kv["epsilon"] == "0.25"
    assert kv["landmarks"] == "1"
    assert int(kv["nodes"]) >= 11
    assert int(kv["total_bytes"]) == len(dst.read_bytes())


def test_section_lines_in_blob_order(tmp_path, capsys):
    keys = [
        f"section_{name}_bits"
        for name in (
            "tree_shape",
            "long_gap",
            "center",
            "ingress",
            "precision",
            "displacement",
            "landmark",
        )
    ]
    src = tmp_path / "pts.mcpt"
    dst = tmp_path / "out.mcsk"
    write_points(src, np.random.default_rng(9).normal(size=(15, 2)) * 8, 2.0)
    runs = [
        ["sketch", str(src), "-e", "0.25", "--no-jl", "--landmarks", "-o", str(dst)],
        ["stats", str(dst)],
        ["eval", str(src), "-e", "0.25", "--no-jl", "--landmarks"],
    ]
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        sections = [line.split("=")[0] for line in out if line.startswith("section_")]
        assert sections == keys
        kv = _kv("\n".join(out))
        sizes = size_report(dst.read_bytes())
        for key in keys:
            assert int(kv[key]) == getattr(sizes, key[len("section_") :])


# --------------------------------------------------------------------------
# exit codes


def test_exit_code_usage_error():
    assert main(["sketch"]) == 1
    assert main(["gen", "nope", "-n", "5", "-o", "x"]) == 1
    assert main(["query"]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["uniform", "-n", "-5"],
        ["uniform", "-n", "1"],
        ["uniform", "-n", "5", "-d", "-1"],
        ["gaussian-clusters", "-n", "5", "-d", "0"],
        ["high-spread-line", "-n", "20", "-t", "2000"],
        ["high-spread-line", "-n", "20", "-t", "1024"],
        ["uniform", "-n", "10", "--seed", "-1"],
        ["random-graph-metric", "-n", "10", "--seed", "-1"],
    ],
)
def test_gen_of_impossible_sizes_is_usage_error(tmp_path, capsys, args):
    # negative sizes and seeds once ended in numpy's ValueError and t >= 1024
    # in the OverflowError of 2^t, all as tracebacks
    dst = tmp_path / "x.mcpt"
    assert main(["gen", *args, "-o", str(dst)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not dst.exists()


def test_sketch_of_points_without_coordinates_is_usage_error(tmp_path, capsys):
    # lines of one comma parse to points of no coordinates, which once ended
    # in a ValueError traceback from the minimum-distance search
    src = tmp_path / "empty.txt"
    src.write_text(",\n,\n,\n")
    dst = tmp_path / "x.mcsk"
    assert main(["sketch", str(src), "-e", "0.25", "-o", str(dst)]) == 1
    assert capsys.readouterr().err.startswith("error: points have no coordinates")
    assert not dst.exists()


def test_projection_seed_outside_u64_is_usage_error(tmp_path, capsys):
    src = tmp_path / "pts.mcpt"
    write_points(src, np.random.default_rng(0).normal(size=(20, 500)), 2.0)
    for seed in ("-1", str(2**64)):
        dst = tmp_path / "x.mcsk"
        assert main(["sketch", str(src), "-e", "0.25", "--jl-seed", seed, "-o", str(dst)]) == 1
        assert capsys.readouterr().err.startswith("error: jl_seed")
        assert not dst.exists()


def test_exit_code_missing_file(tmp_path):
    assert main(["stats", str(tmp_path / "absent.mcsk")]) == 1


def test_exit_code_format_error(tmp_path, capsys):
    dst = _sketched(tmp_path, np.array([[0.0], [1.0], [10.0]]))
    blob = bytearray(dst.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.mcsk"
    bad.write_bytes(bytes(blob))
    assert main(["query", str(bad), "0", "1"]) == 2


def test_exit_code_data_error(tmp_path, capsys):
    dst = _sketched(tmp_path, np.array([[0.0], [1.0], [10.0]]))
    capsys.readouterr()
    assert main(["query", str(dst), "0", "99"]) == 3
    err = capsys.readouterr().err
    assert "(0, 99)" in err


def test_exit_code_data_error_duplicate_points(tmp_path):
    src = tmp_path / "dup.txt"
    src.write_text("1 1\n1 1\n2 2\n")
    assert main(["sketch", str(src), "-e", "0.25", "-o", str(tmp_path / "x.mcsk")]) == 3


def test_exit_code_data_error_triangle_violation(tmp_path, capsys):
    src = tmp_path / "bad.mcdm"
    write_matrix(src, np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]))
    assert main(["sketch", str(src), "-e", "0.25", "-o", str(tmp_path / "x.mcsk")]) == 3
    assert "d(0,2) = 9.0 > d(0,1) + d(1,2) = 2.0" in capsys.readouterr().err


def test_exit_code_guarantee_error(tmp_path, monkeypatch, capsys):
    # exercised via the mapping: a guarantee failure inside eval exits 4
    def boom(args):
        raise GuaranteeError("estimate for pair (1, 2) off by 2.0 > 4*eps")

    monkeypatch.setattr(cli, "cmd_eval", boom)  # parser binds it at build time
    assert main(["eval", "whatever", "-e", "0.25"]) == 4
    assert "4*eps" in capsys.readouterr().err


def test_invalid_epsilon_is_usage_error(tmp_path):
    src = tmp_path / "pts.txt"
    src.write_text("0 0\n1 0\n")
    assert main(["sketch", str(src), "-e", "0.9", "-o", str(tmp_path / "x.mcsk")]) == 1
    assert main(["sketch", str(src), "-e", "0", "-o", str(tmp_path / "x.mcsk")]) == 1


def test_epsilon_beyond_int64_grid_is_usage_error(tmp_path, capsys):
    # 2^-61: some node's grid integers would not fit in 64 bits
    src = tmp_path / "pts.mcpt"
    dst = tmp_path / "x.mcsk"
    write_points(src, np.random.default_rng(0).normal(size=(20, 2)) * 10, 2.0)
    assert main(["sketch", str(src), "-e", "4.336808689942018e-19", "-o", str(dst)]) == 1
    assert "epsilon" in capsys.readouterr().err
    assert not dst.exists()


def test_spread_beyond_k_is_input_error():
    # 2 * spread / eps * d^(1/p) overflows a float, so K = ceil(log2(.)) has
    # no value: the build refuses before it builds the tree
    for t, eps in ((1000, 2.0**-30), (1023, 0.25)):
        params = SketchParams(epsilon=eps, jl_enabled=False)
        with pytest.raises(core.InputError, match="K overflows"):
            pipeline.sketch_points(gen_high_spread_line(20, t, 1), 2.0, params)


def test_sketch_of_spread_beyond_k_is_usage_error(tmp_path, capsys):
    src = tmp_path / "line.mcpt"
    dst = tmp_path / "x.mcsk"
    assert main(["gen", "high-spread-line", "-n", "20", "-t", "1023", "-o", str(src)]) == 0
    assert main(["sketch", str(src), "-e", "0.25", "-o", str(dst)]) == 1
    assert "K overflows" in capsys.readouterr().err
    assert not dst.exists()


def test_invalid_p_is_usage_error(tmp_path):
    src = tmp_path / "pts.txt"
    src.write_text("0 0\n1 0\n")
    assert (
        main(["sketch", str(src), "-e", "0.25", "-p", "0.5", "-o", str(tmp_path / "x.mcsk")])
        == 1
    )


@pytest.mark.parametrize(
    "argv, pairs, message",
    [
        (["query", "{blob}"], None, "query needs either x y or --pairs FILE"),
        (["query", "{blob}", "--pairs", "{pairs}"], "0 1\n2\n", "{pairs}:2: expected two labels"),
        (["query", "{blob}", "--pairs", "{pairs}"], "0 x\n", "{pairs}:1: labels must be integers"),
        (["query", "{blob}", "--pairs", "{pairs}"], "# none\n\n", "{pairs}: no pairs found"),
        (["gen", "high-spread-line", "-n", "10"], None, "high-spread-line needs n >= 11"),
        (["gen", "high-spread-line", "-n", "20", "-t", "3"], None, "spread exponent t=3 too small for n=20"),
        (["gen", "random-graph-metric", "-n", "1"], None, "need at least two nodes"),
    ],
    ids=[
        "query-no-pair",
        "query-one-label",
        "query-label-not-integer",
        "query-only-comments",
        "gen-line-below-11",
        "gen-line-spread-too-small",
        "gen-graph-one-node",
    ],
)
def test_command_refusals(tmp_path, capsys, argv, pairs, message):
    # each argument refusal of query and of the generators: exit 1 and its
    # message, with no estimate printed and no file written
    blob = _sketched(tmp_path, np.array([[0.0], [1.0], [10.0]]))
    names = {"blob": str(blob), "pairs": str(tmp_path / "pairs.txt")}
    if pairs is not None:
        (tmp_path / "pairs.txt").write_text(pairs)
    out = tmp_path / "gen.out"
    argv = [a.format(**names) for a in argv] + (["-o", str(out)] if argv[0] == "gen" else [])
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message.format(**names) in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_eval_guarantee_error_names_the_worst_pair(tmp_path, monkeypatch, capsys):
    # eval's own 4*eps check: estimates doubled are off by about 1 > 4 eps
    # = 0.5, refused with exit 4 before any report line is printed
    class Doubled(Estimator):
        def estimate_all_pairs(self):
            return 2.0 * super().estimate_all_pairs()

    monkeypatch.setattr(cli, "Estimator", Doubled)
    src = tmp_path / "pts.mcpt"
    write_points(src, gen_gaussian_clusters(30, 3, seed=2), 2.0)
    assert main(["eval", str(src), "-e", "0.125", "--no-jl"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: estimate for pair (")
    assert "> 4*eps = 0.5 (estimate " in captured.err
    assert captured.out == ""


# --------------------------------------------------------------------------
# hostile input files


def _mutated(data: bytes, rng: np.random.Generator) -> bytes:
    """``data`` with one to three bit flips, one to three bytes set, a cut
    (its tail or a slice dropped) or one to eight random bytes inserted."""
    b = bytearray(data)
    kind = int(rng.integers(4))
    if kind == 0:
        for bit in rng.integers(0, 8 * len(b), size=int(rng.integers(1, 4))).tolist():
            b[bit // 8] ^= 1 << (bit % 8)
    elif kind == 1:
        for at in rng.integers(0, len(b), size=int(rng.integers(1, 4))).tolist():
            b[at] = int(rng.integers(256))
    elif kind == 2:
        at = int(rng.integers(len(b)))
        stop = len(b) if rng.integers(2) else at + int(rng.integers(1, 9))
        del b[at:stop]
    else:
        at = int(rng.integers(len(b) + 1))
        b[at:at] = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    return bytes(b)


# seeded and fixed: 100 mutations of each of the four sketch inputs and 100
# of a pairs file, about a second in all
_MUTATION_SEED = 19
_MUTATIONS = 100


def test_mutated_input_files_end_in_an_exit_code(tmp_path, capsys):
    # every input file is hostile: a mutated point set, distance matrix,
    # text file or pairs file must end in a result or a SketchError's exit
    # code, never in an uncaught exception, with every RuntimeWarning an
    # error, and each within 2 s
    rng = np.random.default_rng(_MUTATION_SEED)
    write_points(tmp_path / "l2.mcpt", gen_gaussian_clusters(12, 3, 1), 2.0)
    write_points(tmp_path / "l1.5.mcpt", gen_uniform(12, 2, 2), 1.5)
    write_matrix(tmp_path / "graph.mcdm", gen_random_graph_metric(12, 3))
    text = "".join(f"{x:.6g} {y:.6g}\n" for x, y in gen_uniform(12, 2, 4))
    (tmp_path / "pts.txt").write_text("# twelve points\n" + text)
    blob = _sketched(tmp_path, gen_gaussian_clusters(12, 2, 5))
    pairs = "".join(f"{i} {(5 * i + 3) % 12}\n" for i in range(12)).encode()
    cases = [
        (name, (tmp_path / name).read_bytes())
        for name in ("l2.mcpt", "l1.5.mcpt", "graph.mcdm", "pts.txt")
    ] + [("pairs.txt", pairs)]
    src, dst = tmp_path / "mutated", tmp_path / "out.mcsk"
    codes = []
    for name, data in cases:
        for i in range(_MUTATIONS):
            src.write_bytes(_mutated(data, rng))
            if name == "pairs.txt":
                argv = ["query", str(blob), "--pairs", str(src)]
            else:
                argv = ["sketch", str(src), "-e", "0.25", "-o", str(dst)]
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    rc = main(argv)
                except Exception as exc:
                    raise AssertionError(f"{name} mutation {i}: {exc!r}") from exc
            assert time.perf_counter() - t0 < 2.0, f"{name} mutation {i}"
            assert rc in (0, 1, 2, 3), f"{name} mutation {i}: exit {rc}"
            codes.append(rc)
            capsys.readouterr()
    # the mutations reach both results and refusals
    assert 0 in codes and 2 in codes
