"""Byte-identity of CLI transcripts.

DIGESTS holds the sha256 of `local-model` stdout produced by the
Fraction-coefficient implementation of Q(zeta_d) that the integer form
replaced; any change in an exact value or its printed form shows here.
Keys are (d, trials, seed).  --d 1 runs no trials: a case-2 trial needs
d >= 2.

TRANSCRIPTS covers the other four commands: each key is an argv, run in a
directory holding the README's example config as scenario.json and a
config with an unknown key as bad.json, and each digest is the sha256 of
repr((exit code, stdout, stderr)).  USAGE pins the same way, with
COLUMNS=80, the usage errors and help texts of the top-level and command
parsers; the exit code is the one argparse exits with.
"""

import hashlib
import json

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


README_CONFIG = {
    "schema": 1, "label": "geiser k=3", "d": 2, "branched": True,
    "profile": {"0": {"jet": 3, "very": 3}, "1": {"jet": 2, "very": 2}}}
BAD_CONFIG = {"schema": 1, "d": 2, "profile": {}, "extra": 0}
NUM_BOX = ("verify-lemma", "num", "--max-m", "3", "--max-K", "6",
           "--max-ell", "4", "--max-q", "3")
ALG_CUT = ("verify-lemma", "alg", "--k", "8", "--ell", "3", "--budget", "30")
ALG_WIDE = ("verify-lemma", "alg", "--k", "20", "--ell", "10")
ALG_WIDE_CUT = (*ALG_WIDE, "--budget", "11576")
RECORDS = ("--format", "structured-records")

TRANSCRIPTS = {
    ("sigma-table", "--d", "15", "--kmax", "15", "--format", "plain"):
        "0b6c0a8b327b015a9fd2bd30ffc7a32ec8bf281040bb7b56e47dce2995f304b4",
    ("sigma-table", "--d", "15", "--kmax", "15", "--format", "markdown"):
        "da13ac595208b2a47ed6236e862bd921f006d0cae6a0cf2b05dcb203749947f3",
    ("sigma-table", "--d", "15", "--kmax", "15", "--format", "csv"):
        "ef9e3821310312a6214ae7e453ecc6cd6f3078b8a65955629e0890e0ed32d227",
    ("sigma-table", "--d", "15", "--kmax", "15", "--format", "structured-records"):
        "b589c0343c9b6abf5d0e769e96202d0951461dfba2ce5796a3ef897d65cac29c",
    ("verify-lemma", "alg", "--k", "8", "--ell", "3"): "1cf186629c4865948cbad442acbc93c2e0b1df304c8e068f3ee3783f7619077f",
    ("verify-lemma", "alg", "--k", "8", "--ell", "3", *RECORDS): "80681feb93ceabfb6aa2d1ad2bbe0e2cb5ee003c2f1cec7985ee9b538cdd5e88",
    # a budget cut after 25 instances, partway through the colength partitions
    ALG_CUT: "dd61edf8a22356b525fc373c5287d8f647e86313b01f6d7c2f3f3a7c53c6a89b",
    (*ALG_CUT, *RECORDS): "01ee6c55c6134afde54cfae6f8e267e2b68a1e17708d6f80cbc935c8010654c7",
    # the widest box under the colength cap: 11,577 instances, slack 3
    ALG_WIDE: "4eb6c2b3a46a18472e9cc5d1ea6596548542e7c4569f1d70211938e349f5f3b0",
    (*ALG_WIDE, *RECORDS): "6c245698552f3a879dab1e0a17d2f829c85e5c24e997022cd8cfc1f95f7cca9e",
    # one instance short: cut at its last colength partition, (2, ..., 2),
    # after 10,553 instances, with no tuple listed
    ALG_WIDE_CUT: "b3d13aa7f3c8acfd85f49373e54bcb07765b29d7ce77e362951c903e4f72b65d",
    (*ALG_WIDE_CUT, *RECORDS): "bc25b3ef1840c8fb9ac60239ee78d636d262e7e1b7a0432c5bf650da98df37e7",
    # the same 42 colength partitions, each padded with 10^7 - 10 slots of 1
    ("verify-lemma", "alg", "--k", "10000010", "--ell", "10000000"):
        "05634fafd7a9ef5fb204737f51c3a5cf524ca6eb64dd66152fa5642143a4736a",
    NUM_BOX: "4c752ea750f2e4a504713f0f5b7efbe2fb5516b736fab970682b6423734818ea",
    (*NUM_BOX, *RECORDS): "b172a963d51090bc8c151e893e00cc4e3d10c7bdfea8abd3add87651c845dc93",
    (*NUM_BOX, "--budget", "10"): "10028093cfecdf54e8affc2c0ffa61341d2f57b5b267a872f6d4bd3e15933f54",
    (*NUM_BOX, "--budget", "10", *RECORDS): "19938dafcf81fbe00be65470fbd51445c9b0fab4c85c91f9dfc355af0a2a1d9d",
    # the default budget runs out inside one (head, tail)'s 10^9 q values
    ("verify-lemma", "num", "--max-m", "7", "--max-ell", "11",
     "--max-q", "1000000000"):
        "25f152f7672074c996865c1c94c398cad03f77c0aa91a4161b61a28a38835aae",
    # single pairs: the default budget cuts after 10^7 of 6 * 10^18 pairs
    ("verify-lemma", "num", "--max-m", "1", "--max-K", "1000000000000000000",
     "--max-ell", "7", "--max-q", "1000"):
        "63eed15dbbc98ce168712ee8c2c4b736e6fcb09755f6b919863f94cdf2e24011",
    ("criteria", "--config", "scenario.json"): "cf942e0bd0c12f9d7532d1bd38dd0beb811073806988966ffaf89edb8431c2a8",
    ("criteria", "--config", "scenario.json", *RECORDS): "34a0dacc4e06f257aa58c293510bc03e347fe2e65235b355bd3241f05cdd1c3b",
    ("criteria", "--config", "bad.json"): "300a01c99d44c5d3b4bfec1a603579c0eae667cdbd120bc4266cfea939c32101",
    ("examples",): "10a9fd371a4b3062e8f56fbc7f3f8ff4a1afe51fb5f79f9dc92cf88c84656cb9",
    ("examples", *RECORDS): "f591bd3cc35c213b04dc06fd1f299dc4c345aa76917d124e77e58e5d0252406d",
    ("examples", "--only", "geiser"): "21a654d15633227c4e90d25c5abfb13f87ac66c38f9caddbb66054b6a264f291",
}


USAGE = {
    (): "882752cf5d716a294ec628e9f98d2d4e3ca7e3e97c0e9ac596fd7d803abc907d",
    ("nope",): "cedd69a8fcd78b823fb1380bf5cd526a4174fd5471d65c43f880f3cc67b2bf13",
    ("criteria",): "46b4cd58d8e8bb49341be9d4914b13e1e446b6bda5ba17817ff9e0cf8681c494",
    ("criteria", "--config", "scenario.json", "extra"):
        "b8fa136b37fefd03463bb6fbe30c63bad619e3f5d990b1096d6da5c3322def77",
    ("sigma-table", "--d", "x", "--kmax", "1"):
        "ca4f57edf931ef2f251469ddd4bec3ce88e28f8bc5818b2d14ec66867bee7fbc",
    ("sigma-table", "--d", "3", "--kmax", "1", "--format", "html"):
        "a3484595d95aa88a8685e68b4ffa0063e055b3d1f0f6271dd294d3dff1a73b68",
    ("verify-lemma", "alg"): "5ccf3e1456e27bab9ae86140d43a13ffaa2df87cfae1fd2a6c8c00f56f61b516",
    ("verify-lemma", "xyz"): "3d957b6d1114c33e503b75fc9ae806801f33e57eadab3031c0dd43493df41a46",
    ("local-model", "--d"): "7bebd0dc4fc1dfa0778d4b949f1160b8a48b5d9f569710263f4ea1a2587dee28",
    ("-h",): "8aee44ac5e42103d74e4927ddb68c4acd4a12ce21a7c34c883bee7f2d79545ee",
    ("criteria", "-h"): "1781efff16b73528ca84bcf498c12651590901a6c71ed081d3f9c00f2e16c5b1",
    ("verify-lemma", "-h"): "54d7c7c6543f1605d9c1d7412bec07f420d1addbd9fd0b28aa2fa2708cf3a11b",
}


def transcript_digest(capsys, monkeypatch, tmp_path, argv):
    (tmp_path / "scenario.json").write_text(json.dumps(README_CONFIG))
    (tmp_path / "bad.json").write_text(json.dumps(BAD_CONFIG))
    monkeypatch.chdir(tmp_path)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    transcript = repr((code, captured.out, captured.err)).encode()
    return hashlib.sha256(transcript).hexdigest()


@pytest.mark.parametrize("argv", TRANSCRIPTS, ids=" ".join)
def test_command_transcript_unchanged(capsys, monkeypatch, tmp_path, argv):
    assert transcript_digest(capsys, monkeypatch, tmp_path,
                             argv) == TRANSCRIPTS[argv]


@pytest.mark.parametrize("argv", USAGE, ids=lambda argv: " ".join(argv) or "-")
def test_usage_and_help_unchanged(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript_digest(capsys, monkeypatch, tmp_path,
                             argv) == USAGE[argv]
