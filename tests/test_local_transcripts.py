"""Byte-identity of local-model transcripts.

The digests are the sha256 of `local-model` stdout produced by the
Fraction-coefficient implementation of Q(zeta_d) that the integer form
replaced; any change in an exact value or its printed form shows here.
Keys are (d, trials, seed).  --d 1 runs no trials: a case-2 trial needs
d >= 2.
"""

import hashlib

import pytest

from cycliccover.cli import main

DIGESTS = {
    (1, 0, 1): "5a25b238080688be18e25924431d77a66054bb7fc254595d0e4f0608f4053555",
    (1, 0, 2): "5a25b238080688be18e25924431d77a66054bb7fc254595d0e4f0608f4053555",
    (2, 0, 1): "dafbb191867b584948d57943dd7f138b6001dd5ed91b7516512c5444cd91eca1",
    (2, 0, 2): "dafbb191867b584948d57943dd7f138b6001dd5ed91b7516512c5444cd91eca1",
    (2, 5, 1): "ad75c4018931b99c76813c5e54ce176d4bfcc451cd840bdffb81ed3a616d1db6",
    (2, 5, 2): "bafac54ae43900b536119c424a8c570a460bc4134319e7ff446d938bf209c432",
    (3, 0, 1): "531dbf62a59e7c18b65bab9f216763b9afb469b8d3ef195ed276a8853ea81e1d",
    (3, 0, 2): "531dbf62a59e7c18b65bab9f216763b9afb469b8d3ef195ed276a8853ea81e1d",
    (3, 5, 1): "fcedade7a583eb6d011010881a74b918fb612a8ef8268f61396141bba8ebf658",
    (3, 5, 2): "5f2ef194e333719d70dceecf8c64cc029fb296ef6b9886de3f2b8dd7126e55dc",
    (4, 0, 1): "bf4bead8d4729ef7da0e204d080f4e2126ea877d781d3cb57a8f9dc53fd3cb45",
    (4, 0, 2): "bf4bead8d4729ef7da0e204d080f4e2126ea877d781d3cb57a8f9dc53fd3cb45",
    (4, 5, 1): "b50e232c02b129ffdf0f69ab3364c10b0d8e1cf5b248fb3e3cbf4130bf32127d",
    (4, 5, 2): "e4c61ea3140df6f28b0eaa17415a9d1685dd6fe2efe6f28e69a01b8d7ced32a1",
    (5, 0, 1): "3e0e545e8db4ffb6c16c5444fdc51c8856590b538375c1274412bca95d1bb4d5",
    (5, 0, 2): "3e0e545e8db4ffb6c16c5444fdc51c8856590b538375c1274412bca95d1bb4d5",
    (5, 5, 1): "ffded3bade222e8f5f32352e1ebaebf8e0109e05b98ebefdc7a1f31b134adfa9",
    (5, 5, 2): "f09fecbfe45e36f359c21a47f1c061d36d35dffa4e66fcccc544641a9719ad23",
    (6, 0, 1): "f11631f8b602a20a5f38a6145abdba44c69b39643f2857bc90d5125dfb2cb629",
    (6, 0, 2): "f11631f8b602a20a5f38a6145abdba44c69b39643f2857bc90d5125dfb2cb629",
    (6, 5, 1): "56847f91bf436b586f71c89efbbafa13e28864e4f1069b72c284a0926dba2c5c",
    (6, 5, 2): "6a3d41dc807a7f3eecb2b1bf639661855bf39691d413d19c416f50edf57e5419",
    (7, 0, 1): "55799eb7f50285072f1c2d62691d427a69f5b896f1797c0b7fc08fd1a5b5864c",
    (7, 0, 2): "55799eb7f50285072f1c2d62691d427a69f5b896f1797c0b7fc08fd1a5b5864c",
    (7, 5, 1): "be49b6de41ecf5287f58102aa16f487bd7bdf98c8f30377d392e3a417ab0b624",
    (7, 5, 2): "a4477efd5828f9e343ec77d3b6223cadc1a2bbc32b34228c32d0ab3cab6f9a38",
    (8, 0, 1): "2414aa2d5da5fdb7e60ba67d12b77e7a6ab8a244b6cd72c2fcf2fa5546982a2e",
    (8, 0, 2): "2414aa2d5da5fdb7e60ba67d12b77e7a6ab8a244b6cd72c2fcf2fa5546982a2e",
    (8, 5, 1): "4128334d1f97f078da04379d0ed0771f82c0f3cf1dee602d24501ed177a8f941",
    (8, 5, 2): "9f3ddea159c384e96b194d078e35a0d0c92dd6a3a9df4709c3e132fb23308f80",
    (9, 0, 1): "c07b067f20debff59e1df568593be4ff9cc9c14130b825101baa04df0d3ec025",
    (9, 0, 2): "c07b067f20debff59e1df568593be4ff9cc9c14130b825101baa04df0d3ec025",
    (9, 5, 1): "4f414c730468e856feff63ab6bbfc55bbae4f1929d8935633049250538efb53f",
    (9, 5, 2): "469f89641f900605f826a62c06463d429e6a91bd63b90af9ca2892fa7923e771",
    (10, 0, 1): "85fbb8a5070aa5d4f2e7d0a805364b6ebbc4b36e5a5050bcd52a47da344f92b3",
    (10, 0, 2): "85fbb8a5070aa5d4f2e7d0a805364b6ebbc4b36e5a5050bcd52a47da344f92b3",
    (10, 5, 1): "308a528c56e2b81b923918ebabf50c9b47a19f5fae10a96cedf3cdba2e34b8f9",
    (10, 5, 2): "c74158021bc56612859db32ad07e2fdd44a58a6548958400e93159a982986bf2",
}


@pytest.mark.parametrize("d,trials,seed", sorted(DIGESTS))
def test_local_model_stdout_unchanged(capsys, d, trials, seed):
    code = main(["local-model", "--d", str(d), "--trials", str(trials),
                 "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[d, trials, seed]

