"""The primitive central idempotents of F_q[G] are unique and split_center
sorts its blocks by a canonical key, so every correct oracle reproduces them
exactly.  These values pin the blocks, their dimensions and a sha256 of each
idempotent's coefficient array (of str(arr.tolist()), so independent of the
array dtype)."""

import hashlib
from pathlib import Path

import pytest

from wedderburn import make_field, oracle, split_center
from wedderburn.cli import resolve_group

PINNED = [
    ("sl32_s8", 11, 1, ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1)), (1, 9, 9, 36, 49, 64), (
        "3d01d891e201c7d2de7e807fffd0178f6a57427df266e5af8bd20c02faf3b833",
        "755133ad0d4d2c7d0c570b6929475bb3f32d0038892d07e10f657a0a5523174e",
        "41315c3f1a8db71369166d4b1276736ebc4e73b0892cd6c1d05af5f92d59b7f1",
        "b97ea9c119dc8661d08e189323f03fb47fe8f17d165bcf05e700f712d791a7b9",
        "39338cf286da4ea8a5d5f61cb6964a732e063037996da056087f26150d1f2830",
        "5c58af7078ed8659d3b32f84ad8d6460c28ecde4c0325e58382feff0683e0e2a",
    )),
    ("sl32_s8", 13, 1, ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2)), (1, 36, 49, 64, 18), (
        "c26bd13ad68a4d5717120a43c5b4edf1b61fa554f4057325115da52555de8fab",
        "076a4e7529245490742e7c7469c0ac74d0578e89ae8bd60a29da2d6ae5d474b0",
        "12a17a09a23334a6face30ac9f2e69ba48c814f4b59579139fb236d458b1e83d",
        "e517496092d03ad87e9e48605b0c2fa786571962063a174b3f5f9ea93d596a7b",
        "5561a43f2399579cfef9d68eb57f3de71be9077fff551e9cf47c5217dd215906",
    )),
    ("sl32_s8", 11, 2, ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1)), (1, 9, 9, 36, 49, 64), (
        "c68b20d41583a3399f9922c405ef516deb392b2aae3374dfff7a194590402c32",
        "231dd6f7d2d74121934576dd45da9da4fda23c9449bc472cf43d5ad2e39df139",
        "be43671736646d887a28adf2f64d191e319d50ec0d92cab46177135798b280d0",
        "57740cb09d66c56366549e59a0431eecf3d4b89012d1bcc0a5840fa99412f7d4",
        "cc0d84260409c97cba480ababfe8c00b4c94595027472d5441a5c66c87593b8e",
        "29e24a01e1f693d6b550dcd0fa2f88f95c05956d0f035cf390f0c8636ad80ae1",
    )),
    ("sl32_s8", 13, 3, ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2)), (1, 36, 49, 64, 18), (
        "4a415d263d88b745d01ef8f8a6d832619055268b45be16f554ffad1aa99280a4",
        "0178e176451a4006d5c27fe32d9035409c1d1d97f3af67744bcb32d196094877",
        "33c8c91f228758382c558c504f219db80dbeda94f49881d9d2636866894a0999",
        "12cd67e9d2b68d47096f92eb0d94e0b2f0eaf8ed45196b14258c5085a7cbe54c",
        "10a5a793ea5346a88071e891ae8bb09e418dfa98aea198d3451972ad3bf83b68",
    )),
    # the d = 2 block over F_13 splits over F_169: the one F_q refinement
    ("sl32_s8", 13, 2, ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1)), (1, 9, 9, 36, 49, 64), (
        "b16b1e1d2eb539d8ec6517b684715d7a52ef2866d09526fb90d35757e4794f01",
        "8c95fda1716690ac93efd6a95c5d9177adf0d741864e7cbbc9900b413a2e9ff4",
        "c7aa9d0bc04d94e8434ab65d71d4d5706cc2c9cebb8ead300d0b1745624b5e71",
        "1c34f4e4c525c921aa3690e6b6f6ba0109fcf871ff77a578844e07e391706d89",
        "8abb5a94fd42d2ac0d2614373b3c671410aa111850ccb3f797f69a45b5b972ec",
        "ad5c55b7daa03a15baad709c524e26b497dfe2c32a6e7e77b2fed0b178a7d1d8",
    )),
    ("c7c3", 11, 1, ((1, 1), (3, 1), (3, 1), (1, 2)), (1, 9, 9, 2), (
        "cd15b7f9ab0148329a3d566c9ec89080ed62fb623e56ad9e8599f3358b3e5e2c",
        "467685fcb7939d76b1383a9790c1dfaed7e9e5295e0d2a4fa782357ede520880",
        "ddc52e5c251bde9bf994cd608f6a50ec7a3fa732a02ca86fb7411aa3401f664c",
        "ecdb297046d30699a6e2c4697bbf56764edab6e5a2446316c17d6507d3deefb6",
    )),
    # the (1, 2) block over F_11 splits over F_121 into two of degree 1
    ("c7c3", 11, 2, ((1, 1), (1, 1), (1, 1), (3, 1), (3, 1)), (1, 1, 1, 9, 9), (
        "a6059bae8e4795a2f4eb8a053eb99e181fe18925cfec71d88da37b1fc6b43728",
        "5aa5186067240495f1cc450306bfb652db13e96dde656a049c5c64d58cb3ba83",
        "641db6a73fd3c3aeb6cefce56bf5d123136be1519944ab6126ce58aa99cc9d35",
        "863eeece1090e6765235fade3faad655042a7947853527a852d5766ac740f75b",
        "601ef2c13d9747db6f7586fbd7732996901cd9a50056489e0bf60e9f885c7190",
    )),
    ("c7c3", 43, 1, ((1, 1), (1, 1), (1, 1), (3, 1), (3, 1)), (1, 1, 1, 9, 9), (
        "e833011c896a057ca07c5a35b7d182ad4233c606bd24dc39cc95c57000418fea",
        "72b3b8cce51e0d2fbeb24b1ac9c3f02a9465be75f20201ab8f61c496dfeac053",
        "51423478c016903fc607a706e32b2b714a74d16ad08f34f4eab363638acd996d",
        "f5db12a9ba093b25f58e728e5f7b5f0486d13ddd4e4e6cbb08aa383ff4f57df3",
        "b62668b98182333b8e92845f8ee4ae08eb7529aa744ccfda6ba7adfa69e28944",
    )),
    ("q8", 5, 1, ((1, 1), (1, 1), (1, 1), (1, 1), (2, 1)), (1, 1, 1, 1, 4), (
        "2714cc1f675aec683d9a52d6c42fe2590228fe716a5dac2146d85b3c7e9bd98f",
        "c88602e38705d5426cd55057f9814ebd95ba846b6eab431315cae89120dc6d7f",
        "5bfc5e142cc23f754a278e266307b4cedacc07bd96a210be5503d19770a2173d",
        "8ef0bf529b26e516d595445a3234302ad2ec98b63513b765fce0df83f1dfb9f0",
        "15f289e2fcc31a53e8ddfe3063ba5585388051f05a4f07c858f8b9417f925bc9",
    )),
    ("q8", 2**61 - 1, 1, ((1, 1), (1, 1), (1, 1), (1, 1), (2, 1)), (1, 1, 1, 1, 4), (
        "203bf503eb1aed3c3fc530a1f0339a529538a116e65c4daf5cd636c5feb25423",
        "ae4f5d818ee8e2dad02da41fecbbfe821470addb127195ffdbd63eca4ff1bd36",
        "c4a4e828120bcc3342239ff72b147796f98f0633e362a73a5d5c297a4e1c2f06",
        "8b72df1436c818ae70606154537ae79624d14c5006b71601b693bf7a60106b14",
        "2524fa0247e89b84eec747b766fa803db0fa780d4aaa7f4a7470a9d9044fc237",
    )),
]


@pytest.mark.parametrize("group, p, k, pairs, block_dims, digests", PINNED,
                         ids=[f"{g}-{p}^{k}" for g, p, k, *_ in PINNED])
def test_canonical_idempotents(request, group, p, k, pairs, block_dims, digests):
    split = split_center(request.getfixturevalue(group), make_field(p, k, seed=0), seed=0)
    assert split.pairs() == pairs
    assert split.block_dims == block_dims
    assert tuple(hashlib.sha256(str(e.tolist()).encode()).hexdigest() for e in split.idempotents) == digests


GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"

# fields where a block of F_p[G] with gcd(d, k) > 1 is refined again on the
# center over F_q, and the sha256 of str((blocks, idempotent arrays)) at
# seeds 0 and 1, computed when that stage still took its minimal polynomials
# over F_q: its route over F_p must pick the same idempotents
FQ_STAGE_PINNED = [
    ("builtin:sl32-s8", 13, 2, ("8f0bb9ae9470e797b77994b8a6948b0fb74265c1224a8d12ef05ae5453da9129",
                                "e94cdb5d2bea185f7c130f87387368a4caa95594d7c2a44a21092d985ef3f11f")),
    ("builtin:sl32-s8", 5, 8, ("9fb8538ded6c1b06a62fcb18f0252f8a021aa865add8f327010fde96cf50d2b4",
                               "fc115bc452f7125b50cb90c01f5f519867b8fad293c6a83188f99a8b9902933a")),
    ("builtin:sl32-s8", 13, 4, ("7bc50373dba1f9805d11a3687c8dbe94d9b2d899623b331f12f24038012d2727",
                                "1e57826b98dc98fa67b6bc005ca3d0d9f560ac610bc4cda9d7baa6561a75ca58")),
    ("builtin:sl32-s8", 2**31 + 11, 2, ("3dc05766f5a51890ab90782ad8b0e3d37743fa8f54d1b1031de89cc4dde54a94",
                                        "56196b1be35bf67ee32a2ff5a1c9a7cb737e959ae2cf2afd89dcea1b5eaba2f9")),
    ("c15", 11, 2, ("dbb93bd2bcaae60eafc6eeda1b28add0b9f47f474e8192f467b7cfb4a95d6074",
                    "e7d3ab433e80d35a7d542cceac40d6d92dd5d6dfecc9e445c0e35567ddb539ec")),
    ("a5", 7, 2, ("35fc3ae469163fc207dd23056bb466f7275a395a6ed86bc40de30488f7b21a6a",
                  "4174310ba46246ef25935759decc8756849b6cc088223c357c903f84ff58c901")),
    ("c7c3", 5, 6, ("b73c0ab4cbd107ebec9814b83d8e9644e74d37dfdbcbacbdd2687e16d83709f0",
                    "2d0bb4afb354bb65895d0a59bd40bf8c697dfe7078cbee65c0ce5fe47064fed0")),
]


@pytest.mark.parametrize("group, p, k, digests", FQ_STAGE_PINNED,
                         ids=[f"{g.removeprefix('builtin:')}-{p}^{k}" for g, p, k, _ in FQ_STAGE_PINNED])
def test_fq_stage_idempotents_are_pinned(group, p, k, digests, monkeypatch):
    G = resolve_group(group if group.startswith("builtin:") else f"file:{GROUP_DIR / group}.txt")
    refined_over_fq = []
    real = oracle._try_refine

    def recording(Z, *args):
        refined_over_fq.append(Z.spec.k > 1)
        return real(Z, *args)

    monkeypatch.setattr(oracle, "_try_refine", recording)
    for seed, digest in enumerate(digests):
        refined_over_fq.clear()
        split = split_center(G, make_field(p, k, seed=seed), seed=seed)
        assert any(refined_over_fq), seed
        blob = str((split.blocks, [e.tolist() for e in split.idempotents]))
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, seed
