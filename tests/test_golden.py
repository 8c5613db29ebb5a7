"""Golden lock: the CLI's bytes and the library's validation results.

Each CLI case is the sha256 of ``repr((exit code, stdout, stderr))`` of one
``cli.run`` invocation.  The library transcript records, over a grid of
small and boundary inputs, the result or the ``(code, message)`` of every
function and validated record the package exports, and of the validator
``require_admissible``, and commits one line count and digest per function,
so a failing run names the functions whose lines moved.  A refactor that
keeps these hashes keeps every output byte, every exit code, every error
code and message, and the order in which the checks fire.
"""

from __future__ import annotations

import hashlib
import inspect
import io

import pytest

import scrollhilb as lib
from scrollhilb import cli, components, scroll, series
from scrollhilb.errors import _Checked
from test_cli import output_before_cell


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


# argv -> sha256 of repr((exit code, stdout, stderr))
CLI_GOLDEN = {
    "classify --d 10 --g 3 --h1 1":
        "045ef5d60bc9b363c4dcdeb48f459261ea74766021ba49cf6209006bca73504a",
    "classify --d 10 --g 3 --h1 1 --format csv":
        "c4dda9a46886e4e2fe1d38a5bc8f38ae779c702771d052a1f5ecd7cb4214ffe7",
    "classify --d 40 --g 9 --h1 1 --format csv":
        "a053b579c9efa201f0371806250ed183f2d51644c7de2c641c3dc1b193b306c5",
    "classify --d 40 --g 9 --h1 1 --gonal":
        "fa7217714884598bd36b4a089596164004a3986fe11e2c018b65cae07f030b69",
    "classify --d 31 --g 9 --h1 1":
        "e0f96180b50a6571550e7c0dedcda8ae5af1f05a27748d86822516eed94de7da",
    "classify --d 31 --g 9 --h1 1 --format csv":
        "b65f8d281b12a088788fa7e4ab34b7dc243ea98ba10c1c99bec93bc486c2e94e",
    "classify --d 32 --g 9 --h1 1 --verify":
        "38bbb1dd1bfb21700f5ad4b723fe533df13d88927b0d0476a4e8cab250d8eea7",
    "classify --d 55 --g 10 --h1 2 --gonal --verify":
        "7ecf38647d4658beed92636ea5dfeb6c89e593300c02d19350952fc008833725",
    "classify --d 55 --g 10 --h1 2 --gonal --format csv":
        "1c009eb215c7a880886b004b46d8ad4153467c799f16c189a801f58edac8c5f1",
    "classify --d 29 --g 8 --h1 2 --gonal":
        "78453568f3244e3fd21baf8fc2c09ad132adc31d9eb5d019077482d9ed656c4b",
    "classify --d 193 --g 33 --h1 2 --gonal --verify --format csv":
        "e6693600d7266bf7d1c93c06e4fc86d5aaa6d00c69121cabdde2ef4e5324b5f4",
    "classify --d 200 --g 33 --h1 3 --gonal":
        "6b4c942e69730b626c19ad00f256d69ba1b701d64e89c685a0a331ccfac0b569",
    "classify --d 200 --g 33 --h1 3 --gonal --verify --format csv":
        "588bccd6609cf69dc84e1b021db82bd3cb6e9571334acd7d8de8f7fa6824d0df",
    "classify --d 60 --g 12 --h1 3":
        "1c5b3ebf629440328772fd927980de313c983a0bd84022fcb1132e51df6482b3",
    "classify --d 60 --g 12 --h1 3 --format csv --verify":
        "f6e8ac48944470cedb424d369e30916361a4bfadcdd026b69c30e3bb97d2acd0",
    "classify --d 109 --g 19 --h1 5 --gonal":
        "8c256cf00e8ef716374d3d0c83a6780f530e05bf92b8c4432b3d34556bf6d7f0",
    "classify --d 109 --g 19 --h1 5":
        "8c256cf00e8ef716374d3d0c83a6780f530e05bf92b8c4432b3d34556bf6d7f0",
    "classify --d 6 --g 3 --h1 3":
        "41225a6e4d7f24d74da94a0e1a886cc713c9f6738c1022a36e6e417a43ae9282",
    "classify --d 10 --g 3 --h1 0":
        "031465733eeb6b64d75461bc0b1fc49d8ceec6f40e455d5acff7dea13d758757",
    "classify --d 10 --g 2 --h1 1":
        "e74c8d77c9cda984c8b8ef1c44bbe29374c5e38ae5789456c0e9f4c45d4fa932",
    "classify --d 7 --g 3 --h1 1":
        "f58f8f4894ba74b133d14bd087f790760d93d55e8abcd2768a2b6a2a5416b8be",
    "classify --d 9 --g 3 --h1 1":
        "e50fc8c22946501b0dba3fff0dfc853fe7b61e1291150a40a4ad6601f4b2c95b",
    "classify --d 12 --g 4 --h1 1 --format csv":
        "c164e36f3014cb839e5ae269faf20f7f2b3e7ad47ebf01a63540ae3b9b70aa28",
    "classify --d 40 --g 12 --h1 3":
        "fff22be9bba9930f51360539e3bda115fdb9804f637e178caa76d9c650a05aa6",
    "scan --g 3..40 --h1 1..10 --d min":
        "31e8f967cdcba3ab1a118662d74c105c2d0ccdb660232ffd473a920cbc026f51",
    "scan --g 3..40 --h1 1..10 --d min --format csv":
        "9ef66b9bec15afd535a40bada28c7d12ebc63c4c44785adb65c219bcdfbee53f",
    "scan --g 3..40 --h1 1..10 --d min --gonal --verify":
        "31e8f967cdcba3ab1a118662d74c105c2d0ccdb660232ffd473a920cbc026f51",
    "scan --g 3..40 --h1 1..10 --d +3 --gonal --verify":
        "21cebf9174dddf6dbb2f37a875fa05dd69cceaf331739d69b5029094bf2b964a",
    "scan --g 3..40 --h1 1..10 --d +3 --gonal --verify --format csv":
        "1984e6a35f13da18015c5de7ef54edf07ac0e3a5f992c31884950da50fdcdc85",
    "scan --g 3..40 --h1 1..40 --d 235,200,240 --gonal --verify":
        "a99f027ee68f62557e5a7cd0520ccb7842a24a665d36041505f9927be921a341",
    "scan --g 3..40 --h1 1..40 --d 235,200,240 --gonal --format csv":
        "135672f24a5048b70cb2f743d21e3363a5eec47a92a31f63787d3fdae3efce4a",
    "scan --g 3..40 --h1 1..40 --d 120,121 --format csv --verify":
        "a8d8a227272195faadbda6e75c2081baa890f7a27da560315b066db9b97fa900",
    "scan --g 3..40 --h1 2..2 --d +0 --gonal":
        "db03530cff883ccf65ecd8c54384100b2c537553fa2d59f99bce8c18a65588f1",
    "scan --g 3..12 --h1 1..2 --d min --format csv":
        "83fbfe43fda43cc5debad0289df37451e37002721cd54fc3938206536b681a6e",
    "scan --g 8 --h1 2 --d 30,29":
        "7e2aa1234406bbe64d9cfac36199f45913dd39f3e24d7bad244dd186687358c3",
    "scan --g 8 --h1 2 --d 30,29,30 --format csv":
        "2ed450233af02eaedd81924c96051e569befe6b8ed8b53e63562da6b1e703805",
    "scan --g 3..40 --h1 1..40 --d 10":
        "92cf8fbc38903437e8c11a7bee29e9e7e7a3b5ba9afd06c2b744181ab3775c7f",
    "scan --g 3..3 --h1 5..5 --d min":
        "d7c0b5b9c478b452a29af31ece85b2cf03490b1adf6767646fa3763908b7c543",
    "scan --g 3..3 --h1 5..5 --d 20":
        "d7c0b5b9c478b452a29af31ece85b2cf03490b1adf6767646fa3763908b7c543",
    "scan --g=-3..1 --h1=-2..2 --d 12":
        "d7c0b5b9c478b452a29af31ece85b2cf03490b1adf6767646fa3763908b7c543",
    "scan --g 3..6 --h1=-2..9 --d 17,30 --format csv":
        "80dfd244c03ed03a81a1e75a3a880abf470620967a9db2d26f71654a3be85de5",
    "scan --g 5..4 --h1 1..1 --d min":
        "190c1fe9c8658b60b70f5c5c4d27a020667fe2e748db5774c5b35a225ac6e3cf",
    "scan --g abc --h1 1..1 --d min":
        "16340140f82c13f38d87675599c4b89ecc8d8feca908819238c9a1846944c5d1",
    "scan --g 3..4 --h1 x..2 --d min":
        "18ee0ef437a3453643099608a5c422b62d2aa006090be6dfd061a2a32681dcd6",
    "scan --g 3..4 --h1 1..1 --d abc":
        "30f95006d99656f25fce2ccb6c825d8d49a4cc2f296b1b9cc730a7afc1304417",
    "scan --g 3..4 --h1 1..1 --d +x":
        "cb62c51de0d9a23d63908c1ec078c852c77300743d5c1cad3d2a9dd4a546bc75",
    "scan --g 3..4 --h1 1..1 --d 1,,2":
        "f1601096daae40969f5ee96e83319e61c0b523beb401393da206ed916331aedd",
    "scan --g 3..4 --h1 1..1 --d +":
        "f1601096daae40969f5ee96e83319e61c0b523beb401393da206ed916331aedd",
    "gonal --g 19 --t 3 --l 5 --d 110":
        "e98acca3df7d26b4a4e027ddaeb93f1c0c3a91d3200d6c7c1fc2e772fabf783a",
    "gonal --g 19 --t 3 --l 5 --d 110 --format csv --verify":
        "451245c655d9d44467640603e89d0a2c77dca88146e58c6936ae1d521ca498f1",
    "gonal --g 33 --t 4 --l 2 --d 193 --verify":
        "6315187e7ab3565cd51ac6f464aa82feb9a4e2d4616ab7f3557e87430e65e3e9",
    "gonal --family-19608 --l 5":
        "90f66ce64aca3afb8e0ae0a10276dd037100e3a55fa1084495b752f5cd57818f",
    "gonal --family-19608 --l 7 --format csv --verify":
        "f787bdbff4556d4799e91ce80f5b6c3ded00f838df43c1510febe945e94afaeb",
    "gonal --family-19608 --l 4":
        "fa9ce32b72a732cdd018f6741e5c2941411365ef279426691acfa35ac11b25e5",
    "gonal --l 5":
        "66840d90076d1a8da58d28b7ea3c75eb9cfeb9d76b556c4e1b4f30f924ce82a8",
    "gonal --g 19 --l 5":
        "5f404b7b51438c1c34b556389723d343197dbafbca9b62b4d5d0463dd83d19e1",
    "gonal --g 19 --t 2 --l 5 --d 110":
        "7188de2732b89327ea5e4be502e089a28d31dc69ab078927ee49531dc103adb0",
    "gonal --g 19 --t 11 --l 5 --d 110":
        "babc0f23ab162507dbdb5e0ae8a4c062d80cfc47b32d80968d50f61f13fa1755",
    "gonal --g 19 --t 3 --l 12 --d 110":
        "442f8d9dabc258ba08d1f565ac314628924c56fb58f3b3f19e851e8cbf3710bd",
    "gonal --g 19 --t 3 --l 6 --d 110":
        "68525c81c18ed1d43e4d69e7e47528df022e439798ca77438701103f7fb13dd7",
    "gonal --g 19 --t 3 --l 5 --d 100":
        "4365fe324da62b77cf976a5f4bf98844edb747359f4a06a14bd3fbb2fab031f9",
    "gonal --g 2 --t 3 --l 2 --d 100":
        "e74c8d77c9cda984c8b8ef1c44bbe29374c5e38ae5789456c0e9f4c45d4fa932",
    "project --d 28 --g 8 --l 1 --k 0 --m 14 --verify":
        "4f10198314fe9ba70a66d578a8d47763bb848bb26872cef460bed1344685e5f7",
    "project --d 28 --g 8 --l 1 --k 0 --m 14 --format csv":
        "e6b98e61617f012f6c2c3549544389a2005952e7595c4a5eea26d4754d0384f5",
    "project --d 29 --g 8 --l 2 --k 1 --m 9":
        "566b7c5f2c83bfcfe2f649492eb606f850d6173db541e03c2fc572934a7db7b1",
    "project --d 29 --g 8 --l 2 --k 0 --m 9 --format csv":
        "426716f83a604e4b88c20240b8fad8d498a1564f2ca65de11bfaf480255c6182",
    "project --d 60 --g 12 --l 3 --k 2 --m 13":
        "9eba2e11c79bc8babf0939f8cd1301671bca685fa959331cb7af331d0275b392",
    "project --d 60 --g 12 --l 3 --k 2 --m 12 --verify":
        "dcb2d29f2cf20de1d4bf59476efbf8f53a8072302a425591b35ab1bd53f4d52a",
    "project --d 60 --g 12 --l 3 --k 0 --m 12":
        "52c4636fbd9411c60602e3806bf65f89bbd163acfb1b0a1194711222eaa72c1e",
    "project --d 29 --g 8 --l 2 --k 2 --m 9":
        "d435ac1632ddb753a0d01bf99bd45bc8f00c5c735a424b197b51fbddf957dc0e",
    "project --d 20 --g 8 --l 1 --k 0 --m 14":
        "6b03f4dcac04e9a7f947800820a22c88681a373f14bb8c3adb7bd5e04a39ef5a",
    "project --d 29 --g 8 --l 2 --k 1 --m 20":
        "0cbf096b0e4598acd54a3e41f22a80933aea699f1972f1e169ab63f2f4bc2a95",
    "project --d 29 --g 8 --l 8 --k 1 --m 9":
        "755ac72c2e375b582a805914b1c1271fd2ebc392981858aee0a24193db7561f5",
    "project --d 50 --g 10 --l 3 --k 1 --m 10":
        "96fb2426f2b379c96fadff1e94a089ac482145aa21f63d9668da0d87ea2c7bc4",
    "project --d 29 --g 2 --l 1 --k 0 --m 2":
        "e74c8d77c9cda984c8b8ef1c44bbe29374c5e38ae5789456c0e9f4c45d4fa932",
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_golden(argv):
    assert _digest(_run(argv.split())) == CLI_GOLDEN[argv]


def _off_by_one_at_g9(p, m):
    dim = lib.component_dimension_formula(p.d, p.g, p.h1, m)
    return dim + 1 if p.g == 9 else dim


# Exit 3 under --verify: the oracle disagrees on every record of g = 9.  A
# scan has written the rows of every cell before (9, 1) by then.
VERIFY_GOLDEN = {
    "scan --g 3..40 --h1 1..10 --d +2 --verify":
        "7271a3f37118855c88a41384b9992f2daa18618b830d7fa6cd1e25161304f2f9",
    "scan --g 3..40 --h1 1..10 --d +2 --verify --gonal --format csv":
        "9f765ae7ec6421bf38c34c843c5600acac0a6bbb3998780066e23b1037fcee17",
    "classify --d 40 --g 9 --h1 1 --verify":
        "1813e12809c4b706d25188892a1b4011d8529105018fca1a92c48ecf755ad0d3",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN))
def test_cli_verify_failure_golden(argv, monkeypatch):
    complete = _run(argv.split())[1]
    monkeypatch.setattr(cli.oracle, "dim_via_parameter_count", _off_by_one_at_g9)
    result = _run(argv.split())
    assert _digest(result) == VERIFY_GOLDEN[argv]
    if argv.startswith("scan"):
        fmt = "csv" if "--format csv" in argv else "json"
        assert result[1] == output_before_cell(complete, fmt, (9, 1))
    else:
        assert result[1] == ""


def _z_off_by_one(gp):
    return lib.z_component_dimension(gp) + 1


def _divisor_case_off_by_one(d, g):
    dims = lib.divisor_case(d, g)
    return lib.DivisorCaseDims(dims.h_dim + 1)


# Exit 3 under --verify on the checks that do not go through
# dim_via_parameter_count: the gonal command, the divisor case of project, and
# a gonal record of classify (its one gonal record, Z(3, 2) at m = 15; the
# general-moduli records have m = 11 and 12).  argv -> (cli module, the
# function patched there, its replacement, stderr); stdout stays empty.
VERIFY_GOLDEN_GONAL_AND_DIVISOR = {
    "gonal --g 19 --t 3 --l 5 --d 110 --verify": (
        "oracle", "z_dim_via_parameter_count", _z_off_by_one,
        "verify: mismatch at Z(t=3, l=5): closed form 6253, parameter count 6254\n"),
    "project --d 28 --g 8 --l 1 --k 0 --m 14 --verify": (
        "proj", "divisor_case", _divisor_case_off_by_one,
        "verify: divisor-case mismatch: lower bound 244, exact dimension 245\n"),
    "classify --d 55 --g 10 --h1 2 --gonal --verify": (
        "oracle", "z_dim_via_parameter_count", _z_off_by_one,
        "verify: mismatch at (d=55, g=10, h1=2, m=15): closed form 1534, parameter count 1535\n"),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN_GONAL_AND_DIVISOR))
def test_cli_verify_failure_on_gonal_and_divisor_checks(argv, monkeypatch):
    module, name, replacement, stderr = VERIFY_GOLDEN_GONAL_AND_DIVISOR[argv]
    assert _run(argv.split())[0] == 0
    monkeypatch.setattr(getattr(cli, module), name, replacement)
    assert _run(argv.split()) == (3, "", stderr)


def _call(fn, *args):
    try:
        return fn(*args)
    except lib.InvalidParameters as exc:
        return exc.code, str(exc)


def library_transcript():
    """Yield one line per call: the function, its arguments and its result
    or ``(code, message)``."""

    def rec(fn, *args):
        return f"{fn.__qualname__}{args!r} -> {_call(fn, *args)!r}"

    for g in range(-1, 31):
        yield rec(series.clifford_index_general, g)
        yield rec(series.gonality_general, g)
        yield rec(lib.rem19608_family, g)
        for t in range(-1, g // 2 + 4):
            yield rec(lib.ballico_a, g, t)
            yield rec(lib.gonal_locus_dimension, g, t)
        thr1 = _call(scroll.min_degree_threshold, g, 1)
        d1 = thr1 if isinstance(thr1, int) else 4 * g
        for d in (d1 - 1, d1, d1 + 1, 6 * g - 5):
            yield rec(lib.component_dimension_h1_1, d, g)
            yield rec(lib.divisor_case, d, g)
        for h1 in range(-1, g + 2):
            yield rec(series.max_special_degree, g, h1)
            yield rec(scroll.min_degree_threshold, g, h1)
            yield rec(scroll.general_moduli_threshold, g, h1)
            yield rec(lib.section_uniqueness_threshold, g, h1)
            yield rec(components.admissible_m_range, g, h1)
            mrange = _call(components.admissible_m_range, g, h1)
            lo, hi = ((mrange[0], mrange[-1]) if isinstance(mrange, range)
                      else (g + 3 - h1, g + 3))
            ms = sorted({3, lo - 1, lo, hi, hi + 1, 2 * g - 3, 2 * g - 2})
            for m in ms:
                yield rec(lib.sublocus_codim_h1_1, g, m)
                yield rec(lib.brill_noether_rho, g, m - g + h1, m)
                yield rec(lib.rho_of_bundle, g, m - g + 1 + h1, h1)
                yield rec(lib.singular_point_predicate, g, h1, m)
            for t in (2, 3, 4):
                yield rec(lib.kk_margin, g, t, h1)
                for d in (6 * g - 6, 6 * g - 5):
                    yield rec(lib.GonalParams, g, t, h1, d)
            for d in (6 * g - 6, 6 * g - 5):
                yield rec(lib.enumerate_z_components, d, g, h1)
                for gp in lib.enumerate_z_components(d, g, h1):
                    yield rec(lib.z_component_dimension, gp)
                    yield rec(lib.h_component_dimension_at_gonal_m, gp)
                    yield rec(lib.z_vs_h_difference, gp)
                    yield rec(lib.z_dim_via_parameter_count, gp)
            thr = _call(scroll.min_degree_threshold, g, h1)
            thr = thr if isinstance(thr, int) else 4 * g
            degrees = sorted({2 * g + 1, thr - 1, thr, thr + 1, 6 * g - 5})
            for d in degrees:
                yield rec(lib.ScrollParams, d, g, h1)
                try:
                    p = lib.ScrollParams(d, g, h1)
                except lib.InvalidParameters:
                    for m in (lo, hi):
                        yield rec(lib.ProjectionParams, d, g, h1, 0, m)
                    continue
                yield rec(lib.classify, p)
                yield rec(lib.classify, p, True)
                for m in ms + [d // 2, (d + 1) // 2]:
                    yield rec(scroll.require_admissible, p, m)
                    yield rec(lib.stability_class, p, m)
                    yield rec(lib.component_dimension, p, m)
                    yield rec(lib.component_dimension_formula, *p, m)
                    yield rec(lib.normal_bundle_cohomology, p, m)
                    yield rec(lib.normal_bundle_cohomology, p, m, -1)
                    yield rec(lib.h0_explicit, p, m)
                    yield rec(lib.dim_via_parameter_count, p, m)
                    yield rec(lib.aut_dimension, p, m)
                for m in (lo - 1, lo, hi):
                    for k in (-1, 0, h1 - 1, h1):
                        yield rec(lib.ProjectionParams, d, g, h1, k, m)
                        pp = _call(lib.ProjectionParams, d, g, h1, k, m)
                        if isinstance(pp, lib.ProjectionParams):
                            yield rec(lib.y_dim_lower_bound, pp)
                            yield rec(lib.y_vs_target_difference, pp)
                            yield rec(lib.y_vs_nonspecial_difference, pp)


# qualname -> (lines, sha256 of those lines), in the order the transcript
# first calls each function
LIBRARY_GOLDEN = {
    "clifford_index_general": (32, "67ab3a612a3c7d107ee1e06e4b5f76c41a9f6b9fe3ff49fdd337068359b0c840"),
    "gonality_general": (32, "15686d6b06a38cc3e446eb70dbc23c8ed313e4565bee679cd9d5e3b2f698c706"),
    "rem19608_family": (32, "6db922cd75d1b4cbcbce30adef7da32bcc0dca4b6e9922e82b3989e57935a6d2"),
    "ballico_a": (384, "935bd29c6771e8c1418676c2bda756064a8e5052c8279122720a54c10d7ede1e"),
    "gonal_locus_dimension": (384, "baa007fd9655f6890ae612352835bd63259963b0d3b1eb72711d6b93b63dc47e"),
    "component_dimension_h1_1": (128, "fa9053d75249198d156dce8e07c9b9e8c2544ec46cf753a0982e1c2b6aa4214f"),
    "divisor_case": (128, "4fc5164e3869acdf3bd6d505bd20f050cc0631aa5dbceb008d5b624fa7afb168"),
    "max_special_degree": (560, "e9e1b0468186805932460ea55e26ce3193d9bf7d9c4bb265272a19e1b0c41311"),
    "min_degree_threshold": (560, "ca94457b1409d922c84c794f94bedc278d1c095c99730d10e5860c02dfa9bc12"),
    "general_moduli_threshold": (560, "c33eb8859fd11ddf4d5948e6d20a39a853673a3cd590336cf3d2473062e044c0"),
    "section_uniqueness_threshold": (560, "139852595fc31e1a89541c01f155814d99d029abb45ed076c6c325e32f5b3a92"),
    "admissible_m_range": (560, "2321c287a8fd49c67fb75bce3c895e2c8c15ba0d103522b1638570af1df95bd6"),
    "sublocus_codim_h1_1": (3658, "6005287d176526cee230d814b3027a2a475efe2a0cb0dc00b8727dbd43227b97"),
    "brill_noether_rho": (3658, "229442be676a0ac1e5b317c0adf4eec91a15845fe0d9b2e296aa510ccb47a009"),
    "rho_of_bundle": (3658, "f90bc7054fa4e401bbd35c4d769e3efcf0c5d0b6f2458bdd156c5c0d9307cbdc"),
    "singular_point_predicate": (3658, "3155dce39d9aafc3982d687eef3933aab2ddb158dc1bc5edf558e305039082f7"),
    "kk_margin": (1680, "3c86a96bed826a42c34b669da060224422738d0086e455da6f99d8cea53cb714"),
    "GonalParams": (3360, "248b16b68c37e290da8d7ddb77a158b47f3eafd92f81003d9215b9912e797857"),
    "enumerate_z_components": (1120, "e44fba04951d6f16c8f4c090f0a947370a96c3d2e52dbb711e6742fd820e517f"),
    "ScrollParams": (2745, "62f2be2d0bc346463baad3892256a4396d405c35dd248438a29bb1f8e86d061a"),
    "ProjectionParams": (19920, "1405d930327a50fa3fcb926fa8550af7a68f1b68d96b9688c877470f9ce1600d"),
    "classify": (2886, "32be61b22ab089a0bf8867ad598f73e92c29025b9e3988a1b3ba2fe5e04876e1"),
    "require_admissible": (12658, "09ab583a529886a847db10b9f1b3aa0e65d311b151708f9e05652f8085e8438f"),
    "stability_class": (12658, "f85046931be33bc476a2b66dfa5cf505ceff02f77dfc3154068081e3bbf30dab"),
    "component_dimension": (12658, "ae0ef63ee21c1f8de96c63f9348802bf18c4138578344ab6e15eb76dbf53ee66"),
    "component_dimension_formula": (12658, "918d683e8b2a78e2f7e521855278b3acd30aa3059c3b27af72ee5ab178b6fd2f"),
    "normal_bundle_cohomology": (25316, "d5da621fe07a05381931efd7bbe718f3028abca3f24739c77caec7318a2f7046"),
    "h0_explicit": (12658, "6bc1034cc4aebf7d67c6ada4a36874fbad6f8abc2abdf9ea64e955b9f6ba7555"),
    "dim_via_parameter_count": (12658, "19cd1bb418d23d711f8cf4b91368b81edf8b3280360fc4b98e36d5f76a833ae4"),
    "aut_dimension": (12658, "f5aedfe7371aaafe36b2889a231ab1244a4b258cac89c6f7dc26c6f925d36786"),
    "y_dim_lower_bound": (1272, "6572b8c7ad69c23a0aaeb274d07ff8b0478e8a15cf314659f16b5a49035a5535"),
    "y_vs_target_difference": (1272, "fa3ab2ad81630a64527bfba21252e9360b43749cb7bb03ca354d6c27bd50d5c9"),
    "y_vs_nonspecial_difference": (1272, "0238188f59e837225517fa826c1d97e9b308479238ca287e04281e9831896935"),
    "z_component_dimension": (100, "b96e90b6c0b828a623b5ec55be321f4f220f1c5d75cfbe8f0b22ee2a1b2e4f09"),
    "h_component_dimension_at_gonal_m": (100, "f40cb875588faa508ecea0a62f516f6e8e352a83b15e00a4d5d9ed27cdfe3643"),
    "z_vs_h_difference": (100, "7302a38574315248633869261e1901560199efe8aba760599aa5388670957e6f"),
    "z_dim_via_parameter_count": (100, "883ed13e3a98bd1ff80a8e5bdd6e942cc67c83499975c2c864413cfb6617a8cc"),
}


def test_library_transcript_golden():
    counts, digests = {}, {}
    for line in library_transcript():
        name = line.split("(", 1)[0]
        if name not in digests:
            counts[name], digests[name] = 0, hashlib.sha256()
        counts[name] += 1
        digests[name].update(f"{line}\n".encode())
    got = {name: (counts[name], digests[name].hexdigest()) for name in digests}
    moved = [f"{name}: {LIBRARY_GOLDEN.get(name, (0,))[0]} -> {got.get(name, (0,))[0]} lines"
             for name in sorted(LIBRARY_GOLDEN.keys() | got.keys())
             if got.get(name) != LIBRARY_GOLDEN.get(name)]
    assert moved == [], "moved entries:\n" + "\n".join(moved)
    assert list(got) == list(LIBRARY_GOLDEN)


def test_library_golden_pins_every_exported_function_and_validated_record():
    exported = {obj.__qualname__ for name, obj in vars(lib).items()
                if not name.startswith("_") and (inspect.isfunction(obj) or (
                    isinstance(obj, type) and issubclass(obj, _Checked)))}
    assert sorted(exported - LIBRARY_GOLDEN.keys()) == []
