"""Recorded stdout of the positive engine's less common routes and of `clusters`.

Each command's stdout SHA-256 was recorded from the release before the
positive engine's assignments became one class, and must not move:
mixed pattern lengths (avoided, and avoided with tracking), the sparse
path with four tracked variables, a packed set with a pattern forbidden
(no P_n(1) = n! check can catch a fault there), and a mixed-length
cross-check.  The `crosscheck` commands after those were recorded from
the release before `crosscheck` built its columns through the series
router.  The four `count` commands after those were recorded from the
release before the positive engine stored its tables as runs: the rows
where a split gap reads expanded cells (avoided 2143 and 1324, tracked
2143 alone and with 132 forbidden) and a mixed-length set.  The
`clusters` commands were recorded from the release before C_n(t) was
decoded at t = 2^B in balanced digits, when it was decoded in u = t - 1
and shifted to t in the polynomial ring: overlap sets {1, 2} (123, and
2413 in JSON), {1, 2, 3, 4} (12345) and {1} (132 in JSON, a class of
four), and a pattern of length 2.  The benchmark's own commands are
pinned in `test_reference_outputs.py`.
"""

import contextlib
import hashlib
import io

import pytest

from cwilf import cli

PINNED = {
    "count --avoid 12;123 --n 10 --format json":
        "c8a5d6963543ba5fb7744c04ae6daf9ce98fc19ac1e1fbf882dbf6a73b8237db",
    "count --avoid 321 --track 1234;12 --n 10 --format json":
        "6ed9959c0c9e1b46faef184225970038ce65e53fe339fecc68e81d3f8e7a13c4",
    "count --track 123;132;213;231 --n 9 --format json":
        "f29ff95a4d94c47eb16230b7477d9a5ac6b608534398e53c18fe30cc4e9f2f4e",
    "count --track 123;321;132 --avoid 12345 --n 10 --format json":
        "a8987d5c3515c46cabdbeecf151989294837d6b0a92cdbdc9a11a1c291297ef7",
    "crosscheck 12;123 --n 7":
        "a464c883a7cdcbd8bf58e53638b82df65123de7d44b40ae6c804f16805abd585",
    "crosscheck --all-s3 --n 8":
        "a464c883a7cdcbd8bf58e53638b82df65123de7d44b40ae6c804f16805abd585",
    "crosscheck --all-s3 --n 8 --format json":
        "1cef30520a4046b31cbfc97af8ccd23eb65a6b8e87029c8a49d281a9ac31abb4",
    "crosscheck 123;321 --n 7 --format json":
        "5644bd72b23b690e7c9cb236ad7adecf25b3334f0f72c2aaea4f6d71577b05a1",
    "crosscheck 12;123 --n 7 --format json":
        "39593bf56d016024b3de09b9e42d28ad35975f819b88fe9a32fe7d827ded7edc",
    "crosscheck 1324;2143 --n 8 --format json":
        "46daa7a1cbce58e6f2675cbb8b5bdf99bffb281c3696f7ea07c432c13099b5eb",
    "crosscheck 1342 --n 8 --format json":
        "b4a802fea38740c8c176c8b04017fb200fbf75a86badbdd47610d045f4f1078a",
    # the empty set: the two spaces split to an empty pattern argument
    "crosscheck  --n 5 --format json":
        "c822b3a9b20494d87bb956c6cd12ea21219a802d68b4ff2cfa55b03ccd269013",
    "count --avoid 2143;1324 --n 30 --format json":
        "65bc18e1f805381c7b1417fc98bc533e5c5e22df45afbec59dde0ccc07726bd5",
    "count --track 2143 --n 14 --engine positive --format json":
        "881b87333a2d98b440030df82a12d8d8c216bdd93a955148fc44651ec47abe86",
    "count --avoid 132 --track 2143 --n 12 --engine positive --format json":
        "30593056246bb261d52725080d234b214c5a1360c67a9a62fde78469abb9ed73",
    "count --avoid 132;4321 --n 20 --engine positive":
        "59e7204085689348d5ec64a3c90d4ea4e98eeac4e37fbb78cc0d9345c0de8831",
    "clusters 123 --n 60":
        "9f69afabcadc3b7473ed39d5ba289837f7bfa8865130a25d49e39d625aa44168",
    "clusters 2413 --n 40 --format json":
        "57eb72dd7dafa920f897ea2b42b9d9186e9c0494de2c2f03589095c12c76101f",
    "clusters 12345 --n 25":
        "bbdcf8978848d13dbd1282015a7674f48f444ddf73ad15033e1f0ac3fdf931a0",
    "clusters 132 --n 80 --format json":
        "a4522e342a5e6b4bab538f919f1c663406146493391ef59e28dc6e87d198f188",
    "clusters 12 --n 9":
        "9ad8fa8c0c5258c1f0bcdf7d7bb09ef1e1bd274f4c76ae9924ad6f17db6d9076",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_command_reproduces_its_bytes(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split(" "))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[command]
