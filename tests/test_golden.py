"""Byte guard: sha256 of stdout and the exit code of every catalog report.

``GOLDEN`` covers the 12 computable catalog cases x 5 subcommands x
json/text, run in-process through ``cli.main``.  ``GOLDEN_RUNS`` adds
single-root Toledo reports and reports on matrix input files: the
octagon's Fuchsian representation, the identity and a unipotent
(parabolic) representation into SL(2,R).  A change that moves any report
byte must update the table and say which reports moved and why.
"""

import hashlib
import json

import pytest

from flexcheck.cli import main, round12
from flexcheck.surface import fuchsian_genus2

GOLDEN = {
    ("so31-rplane", "decompose", "json"): (0, "5802eff0854b37a45bf4158c09d5fd4a80102b056969246856cf37dfeb6977b1"),
    ("so31-rplane", "decompose", "text"): (0, "2314e59010910e19001780e610c941b44e5cf9bb339c86db4b594e9b35d24897"),
    ("so31-rplane", "cohomology", "json"): (0, "ef989aa67ac82a1f5e01789fd4ade9bd4d45b016381af558b4930e397bf8a70a"),
    ("so31-rplane", "cohomology", "text"): (0, "fa83c9dc23c68783f42f01c4026f2066942a6612595d30092199bcf03f9ed7c6"),
    ("so31-rplane", "toledo", "json"): (0, "1e9bfadd28642ec5579357a3e085b6258eb7db138692a3080d5c39e988b60cc8"),
    ("so31-rplane", "toledo", "text"): (0, "a41fa7fa142635a99c3101873e2e49a43e9bfae85e671cc945241e70564d2a27"),
    ("so31-rplane", "balanced", "json"): (0, "9ccfb665b8ac602e3d601442663099d80b15fc3ba26355c63073a00881568459"),
    ("so31-rplane", "balanced", "text"): (0, "fa6660818f679dda545779fbf217c600562b0b6a174ce3089368049031a9fdcc"),
    ("so31-rplane", "verdict", "json"): (0, "9bed3f8894ad20a852000cb2546a31b8602c8ba2a6fb675b8f385a450830df22"),
    ("so31-rplane", "verdict", "text"): (0, "69930cff988dd8b8b41ef3ad7539b172b1bf161e892b4d1042f532e6dafbe395"),
    ("so41-rplane", "decompose", "json"): (0, "3ac387355247589167dd2f7ab8bc2df15491c65443a665f8e9ce2953d2e9f72d"),
    ("so41-rplane", "decompose", "text"): (0, "54e0616d6306df670026938438d55da255f35dfa9b4097b26855ef47e7ccab50"),
    ("so41-rplane", "cohomology", "json"): (0, "e82b6cb5d7206916a8920c6bf40697e92940a64bc21953704a16e53682d94243"),
    ("so41-rplane", "cohomology", "text"): (0, "c59b8a31b02c9be291668ec8007a9af61a8aab0179561d0860b268b54fcec65f"),
    ("so41-rplane", "toledo", "json"): (0, "97c3f6355486b1dbb51fc935b87f1e3db42a409b428081877dc80ac2365f00dd"),
    ("so41-rplane", "toledo", "text"): (0, "b694ec44516bdcb66c094d90d119a344ce9d2d7c3327d3426543f628a9ed2179"),
    ("so41-rplane", "balanced", "json"): (0, "52119c4b09d804736a12be106c03e48f926009e40c2b78787d802e80b3d8f1ae"),
    ("so41-rplane", "balanced", "text"): (0, "c79e6b9565d14528335cb9681a24c56b4d7e3141fce890ccdbe59eb921be47ff"),
    ("so41-rplane", "verdict", "json"): (0, "f556808648792c6413c3808b665974bd56f6be2001bba0208fbc8ba9e0c0a269"),
    ("so41-rplane", "verdict", "text"): (0, "3c0f14c4d390aaedecbf0759b8ca134dc2d6ec3749bd1a79f319a4a942ab75f6"),
    ("su21-rplane", "decompose", "json"): (0, "a1ccbf89c14468783af106081beb8185d17220073b831247193bee4034fb483d"),
    ("su21-rplane", "decompose", "text"): (0, "c7775822d89aec3d79135711b16811c4e91574175eb2be8dccfd24a905cabc24"),
    ("su21-rplane", "cohomology", "json"): (0, "6228845ef0c50a593e7cc4627ae2734fdf74780a4db8134f4e33780a6ef2380e"),
    ("su21-rplane", "cohomology", "text"): (0, "14851cbe6d0c432c1fde2da3128a0b72d6e5995a3f8dcadc6ca48967b7709c99"),
    ("su21-rplane", "toledo", "json"): (0, "ed03962adbdc4652c6d9f4ea6732c1469e8862e368c8198ee052b95830d1b105"),
    ("su21-rplane", "toledo", "text"): (0, "13241b013e7aa73ee8c07b1ad5a3896ac414a1056c83f2ceb98711480387109a"),
    ("su21-rplane", "balanced", "json"): (0, "efa79c6c1c684de3d603aec1687a9b7553f2aa80d88fbb457a987e49a79f05e8"),
    ("su21-rplane", "balanced", "text"): (0, "b2b4ecbbfbe675cc002c62befb0f6c2a1e98c4dcf12b6c885723fb0c9e6549dc"),
    ("su21-rplane", "verdict", "json"): (0, "f0cc454bf7a25d31fc6924ecbf0094050823b22bac2ac176a628b734d0123913"),
    ("su21-rplane", "verdict", "text"): (0, "81a7ada1cf2ac82b4e4527bdcbde4a92aaa18ec8eb3d31a5847a129478196a5a"),
    ("su21-cline", "decompose", "json"): (0, "95c812361f7816b3c9ac1a67681639a75c4281a8a43df58e523ff0d6304df85f"),
    ("su21-cline", "decompose", "text"): (0, "65d5da3d1c23bdce94ab11fe76ea901eeecc886e136356188ea030dba28b4db0"),
    ("su21-cline", "cohomology", "json"): (0, "953b83fb4079998c249c212f472977b63b9e32af9ed00e50d31a45f45d7486e6"),
    ("su21-cline", "cohomology", "text"): (0, "fbc498c81d4880acfc06f896d0b8f4a983edff948c2f5f621f2bb756979fec9e"),
    ("su21-cline", "toledo", "json"): (0, "b30959f5d51259d0d92fa219a69f0551d9c5ae9eaa164ab876973151fc4f4466"),
    ("su21-cline", "toledo", "text"): (0, "c394978925febd2fd427fc934fc050cabc1b8f109a7d4ddb3d6d78149e37cb71"),
    ("su21-cline", "balanced", "json"): (0, "9e784c42b194cb9b3d54ece8ce9edd808504ef2e723cd0475ebf8a7900b71e8d"),
    ("su21-cline", "balanced", "text"): (0, "1367fb5f113390668110518f26abb0b086300bb8e683b7622174a59f9c06d95c"),
    ("su21-cline", "verdict", "json"): (10, "eee51ae2b66c59ebec2543cf46f31cb3d1692bb3357e7c37b720d9d004f63821"),
    ("su21-cline", "verdict", "text"): (10, "bac152bb80f790186253d35e24522a25f16d1890e3d6f2558a69cd7c4ac207a9"),
    ("su31-rplane", "decompose", "json"): (0, "1911b76876ec1b4e185e5880224b9126089f95795517e872a52ebf8ffd32c519"),
    ("su31-rplane", "decompose", "text"): (0, "ca15b68d63c0ed5a8a28f6a5df6c691ce3c7816c4bfa51e65181b834ad4e1d76"),
    ("su31-rplane", "cohomology", "json"): (0, "515abc48d96184a250c794ae10de60acd15721dd43d6cfd829f7d70921d66c1b"),
    ("su31-rplane", "cohomology", "text"): (0, "26c6bcc751ca3bceb3c8266b5fdd83b3f7f276bd36ea5899a5ef395075eb7dd7"),
    ("su31-rplane", "toledo", "json"): (0, "7c9a3e887d45d3076515f882f3551e55a4b5dec254aa210123f53c87fac1c8aa"),
    ("su31-rplane", "toledo", "text"): (0, "45c9e75011f1625ead884b2b36497fa1a2f9e7fe5ce6435d61b290c2c1a841e4"),
    ("su31-rplane", "balanced", "json"): (0, "9df408c0c8ff36ad0e0af3db5fb78b045a0ab76ab8c4745c637ab4b76ccf4065"),
    ("su31-rplane", "balanced", "text"): (0, "6ddfb9c92dbc54d9f90696712ac4cc233cc948d76bab1b330279fcb992a28622"),
    ("su31-rplane", "verdict", "json"): (0, "f51fd8754a8f7a4cd0c57155ef735fa44a9a1fdde487cbb409d35c38408c90c6"),
    ("su31-rplane", "verdict", "text"): (0, "f368daca04d4afb5f35f4c486a72185483823bace2d6421c368301ea3c68a72e"),
    ("su31-cline", "decompose", "json"): (0, "c2194c71de3062fbc18b07f0aa8990556c04489cf8e827c7bd67a5265192bccb"),
    ("su31-cline", "decompose", "text"): (0, "a42040990a90958bf012c2ccf2f94693c197698c4b27b92f929c2594f3299b6c"),
    ("su31-cline", "cohomology", "json"): (0, "c94b5f0b9c6c45eebde0d61fa7553c191cd3f528f274b513368306c47c9cbf5a"),
    ("su31-cline", "cohomology", "text"): (0, "4e0e51e9de34a857237a9e5a0a8d4eede3809c3d30eccad4f7e53469573cf923"),
    ("su31-cline", "toledo", "json"): (0, "cb0e7e2f557de27214a683460ce0d4f4e9005c2b85adf7b393baf67bca4fecc1"),
    ("su31-cline", "toledo", "text"): (0, "3035a1c0a419520764289305af0b158452ff25bd06d2d1d01ccdd7ef9d28c8b7"),
    ("su31-cline", "balanced", "json"): (0, "3e9a7360b3b52063727996dc6f9222a6b4bd4e6a7ea6cccd3d70e1a5f94b67a8"),
    ("su31-cline", "balanced", "text"): (0, "b3df6349b3f7699632b410d4c4249046672e3ee6b1755219f1e8c4fbd00bb123"),
    ("su31-cline", "verdict", "json"): (10, "e66d88272e563393bacf0989d6e87a357e126095b43600ff8601b5696afb72ba"),
    ("su31-cline", "verdict", "text"): (10, "b19c2a0b4dfcbe3343e652fe6f65ec747b311e76b84a279ff54afcb57f082066"),
    ("su41-rplane", "decompose", "json"): (0, "1e3e14065f25e139739470b411184c7a6fbddb911eaedd06f2ea8b69ce1d62d0"),
    ("su41-rplane", "decompose", "text"): (0, "b1b9fc9c3a4855a9c250de492cd506af94ea116f012a9eb8fe2d1f923a9ee62b"),
    ("su41-rplane", "cohomology", "json"): (0, "a903c18a131c107326297d16f9cedb017d733590f5c17471d5ac1adcda3a52db"),
    ("su41-rplane", "cohomology", "text"): (0, "6aac685976aa7ce8defe5bdff782d37f0cb326afe5d4dce2fec792dedd4465fc"),
    ("su41-rplane", "toledo", "json"): (0, "2ef1984416859df8062fa4f85ef9c801e155b4e356d0b64169ee582bdc6f6880"),
    ("su41-rplane", "toledo", "text"): (0, "937bf7128d4ef2d5741c078820c0239b1e162d83f4ace1582a325e7071b81e60"),
    ("su41-rplane", "balanced", "json"): (0, "22c937c8eb903430d0080ba3ccfa83f1163b8991ee6bd31d38cbbe425446fec5"),
    ("su41-rplane", "balanced", "text"): (0, "16419087f256d8bf43be4f14230dd3355c2413bcb1f8a44f5c091fb4fba5872d"),
    ("su41-rplane", "verdict", "json"): (0, "e9a3958db3423a2ffbc04138c31226f50309ea6eb42252677f1c091dba04fe66"),
    ("su41-rplane", "verdict", "text"): (0, "8872e573f0fa67a8d4a584b272f2e804f567fda7f8eb963d22c056eb38251c40"),
    ("su41-cline", "decompose", "json"): (0, "69a5d20134f631c832af9da18d7acf11f289b860b2d7d5bff341e5618cda5d69"),
    ("su41-cline", "decompose", "text"): (0, "a7a6997825ff95c7d26a044591bfc0eaf5d48a2f502a46a61206cc30ae79060f"),
    ("su41-cline", "cohomology", "json"): (0, "50f2d3533c57b984754fbc80c0d5586f1dbc6487c3164d485038599c894ee59b"),
    ("su41-cline", "cohomology", "text"): (0, "4faec7f3e50a98799f61764302f96e7b929766e05fe564d24f9e613a2336e76e"),
    ("su41-cline", "toledo", "json"): (0, "adc843b274f25ea9a1505e254031256f57ef83cdfe248e6809f500c2e759ddfc"),
    ("su41-cline", "toledo", "text"): (0, "0e348a47314f81642af635188c3d595ce5ee5a6914b49180df94075cb97d1656"),
    ("su41-cline", "balanced", "json"): (0, "c82d0e2fb7a3d0c5900d119908293cd515f31d30775f8ecab2e8ff33ef61673d"),
    ("su41-cline", "balanced", "text"): (0, "d3671ca28c15569d3469843b4ca0426d1fa9169c8854f58b8f2a40740689cdc3"),
    ("su41-cline", "verdict", "json"): (10, "66c370ff22da4e5a13416163fd78a4b393dd5f1f58df448ce8d2044a21c47376"),
    ("su41-cline", "verdict", "text"): (10, "3e005aeaf91eabee37d1dddc6ed64989e207b7d76da38c1d89b778b0aa628f7b"),
    ("sp21-rplane", "decompose", "json"): (0, "6014ebfa2d95d42221a246264251c935dca046441184163d542cd5f21eb10aa2"),
    ("sp21-rplane", "decompose", "text"): (0, "fcfc98b7891fe266a982db16842e9b9969253cc071a4c411764b5feac53f7523"),
    ("sp21-rplane", "cohomology", "json"): (0, "7f16ff51e9510986289785b8300b0deb3c3a0a01f68ec2c788ea37b20ca1a54b"),
    ("sp21-rplane", "cohomology", "text"): (0, "d732e0fb24842b68c9ed7886eeb806c3858b16dcec8f4c5b09c3260e84ebf0e0"),
    ("sp21-rplane", "toledo", "json"): (0, "f1caa8da2172700dd21a033eebe577e44bd1c9fcf52fb14f03b65010ff5c423f"),
    ("sp21-rplane", "toledo", "text"): (0, "aeaab1f60ade383be09e9028552f01025d2a1550d332d69cd2d599ff6ff8c5d8"),
    ("sp21-rplane", "balanced", "json"): (0, "9f1e0850b94b8a7f51a73fc56fcddd1e06a5852dacb69f9101fbaf779790785c"),
    ("sp21-rplane", "balanced", "text"): (0, "09b7f368f5b3938b385d16df6d41f64eb96bd586836b17d58f9d3e098749048b"),
    ("sp21-rplane", "verdict", "json"): (0, "6a0eda42717c003f37e36c0b899c80b46b3bd6aebbfcdd871b67830980048829"),
    ("sp21-rplane", "verdict", "text"): (0, "3a9818e32fc2085a663cd71208eb712485efc6f1bbe87f754489467339d84f12"),
    ("sp21-cline", "decompose", "json"): (0, "cf756ac5ee97ae1f77fd6125c2688bcd4645fb0491405ffeeb8c94480deeece9"),
    ("sp21-cline", "decompose", "text"): (0, "3e67b95602ad742328569130f785d03cb2dc7b69f095a82342a4b02ff81ebcef"),
    ("sp21-cline", "cohomology", "json"): (0, "68283fcd6c78e1121c19062e9a66166e2797f394c1d5da86847b268b87a69b1c"),
    ("sp21-cline", "cohomology", "text"): (0, "4d9e730527cb5d47c0f4abac1a88f1bb59578b9d5e0863275af373c128feae97"),
    ("sp21-cline", "toledo", "json"): (0, "ed818d0bd24a20d9ba57fbeb1bfe3e50f6377487a61eb2155ae7939f68de2933"),
    ("sp21-cline", "toledo", "text"): (0, "a94c51417b9127363873f31de90225fef86dbebd9d363257d30495950e65c7ae"),
    ("sp21-cline", "balanced", "json"): (0, "080374796a314e8f0e190268bd7dd7cdcc30095b3b5a3454e231527b188ca55c"),
    ("sp21-cline", "balanced", "text"): (0, "9aa57c4698a16d3ba51db0e787701161436921b77aac56d04472708f114cfa83"),
    ("sp21-cline", "verdict", "json"): (0, "c0667ec7f59c6310f70a1ecd9ccb50a34abc34f38f086772ca7ee7f3ff63dcc7"),
    ("sp21-cline", "verdict", "text"): (0, "0c62a17a6a1ec5955805f1422d467d7eb083f4da0a27a31a16c9135ce00214a4"),
    ("sp31-rplane", "decompose", "json"): (0, "deb4983df1258913651b2b821d20dd8a20959eb41439e91e75244dc4b508dd2c"),
    ("sp31-rplane", "decompose", "text"): (0, "74d69978be2459f73b4139ea6eb78b288bde8d6365bfb4695e2f72a7f9a53bef"),
    ("sp31-rplane", "cohomology", "json"): (0, "48866e6e33a6c70b770d337f9a42c44d444ca7d4291aa4d2506b2c0262446a54"),
    ("sp31-rplane", "cohomology", "text"): (0, "be8aaac0d468f4831d134ef49440094eb1d36cb8d2b3c0cbf2c63b7e48a7ab47"),
    ("sp31-rplane", "toledo", "json"): (0, "0cd0252a4848c8b5127fc05f7e2412960f94dd9dce4240fa0cd92ce645188805"),
    ("sp31-rplane", "toledo", "text"): (0, "9763a70190a874ce98227258dfe5f9b7f3fbb66c6b04caa3cac936b06fb35d9a"),
    ("sp31-rplane", "balanced", "json"): (0, "b59cea410882308c6231643071c3f89af728395ea23888cc055073f90d5557fa"),
    ("sp31-rplane", "balanced", "text"): (0, "b54a74ad1be351cb3dd4846e9b6785059181e3c24894de8bab20753d88994ac4"),
    ("sp31-rplane", "verdict", "json"): (0, "85c128468662b820cc6cfa458060f7efc241b1739e0ba2927a2bffa7883cb84a"),
    ("sp31-rplane", "verdict", "text"): (0, "b697efbce731359b800d1e6c5bfde6adf7aaa6a919b521e019f9f883a482fa7f"),
    ("sp31-cline", "decompose", "json"): (0, "8bb6a140cdf590c97c836c69c17a084c7b222bf3b0f221574bef0ecbde0ff343"),
    ("sp31-cline", "decompose", "text"): (0, "a531257bd1ae89d47172fe78346abb677c6dc2b9cd506765038761cd094e25e2"),
    ("sp31-cline", "cohomology", "json"): (0, "74574d7815afd5c9e2f72a00b8fa24b8ec423a4a7eabf28845c25cd38777ea52"),
    ("sp31-cline", "cohomology", "text"): (0, "05a357dac4354a49c5224a3b9918477695b6535665b52b3246cae5f0a5e8a579"),
    ("sp31-cline", "toledo", "json"): (0, "a6a1c80c1da105cf834358cfc1d1ab8597a410449fc30b213bc8a3b2197a9cc6"),
    ("sp31-cline", "toledo", "text"): (0, "2635bb6d0c266951e115b1856b40410ef99fe784d5272eb55dbac7a50ec2d8ba"),
    ("sp31-cline", "balanced", "json"): (0, "b467a295e98798db06bd1688f853a6fee98bbe0591e8acf095b6f39c6ad7fff8"),
    ("sp31-cline", "balanced", "text"): (0, "568c54bfe5396bc641de9ae1d8b4447950706e8c3cbddd0806626b9f01784ddd"),
    ("sp31-cline", "verdict", "json"): (0, "92dc15e7663f9bf77753c7ab7f4ee4ca1bc3e0fa3a0fd223440b6be4713ce77f"),
    ("sp31-cline", "verdict", "text"): (0, "7be45a7fb2fb37828a1fc4b79470bff374ffe24dbb0759b6fba2b33c9e6ca218"),
}


@pytest.mark.parametrize("case, command, fmt", sorted(GOLDEN))
def test_catalog_report_bytes(capsys, monkeypatch, case, command, fmt):
    monkeypatch.delenv("FLEXCHECK_SEED", raising=False)
    code = main([command, "--catalog", case, "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case, command, fmt]


# (source, subcommand and options, format): a source is a catalog case or
# the name of a matrix input built by _input_generators
GOLDEN_RUNS = {
    ("sp21-cline", "toledo --root 0", "json"): (0, "02f4172d1325a2c97c26d460724cd9428a69bf4a0b86f9e6ce70aba58c53d4a6"),
    ("sp21-cline", "toledo --root 0", "text"): (0, "5d00773337ce8a84869f4a234385629d1768dbf0e74b60355647cedcad1b38b9"),
    ("sp21-cline", "toledo --root 1", "json"): (0, "5400bc596d2a7e29254b6fc17a00768d78263cf8e61c55005012742e639ead4b"),
    ("sp21-cline", "toledo --root 1", "text"): (0, "5dca4ec4df4e0b0cd94b06c2e3d7998a23fb502f82efddd2be69fc8aea1fcd3c"),
    ("sp31-cline", "toledo --root 0", "json"): (0, "b9f0cb7f9cc12fddfed7f2f276f052ac51113c87d2580a839c282008731105c7"),
    ("sp31-cline", "toledo --root 0", "text"): (0, "ea83ed34f06b9c945e4a225be643bfc4b4581732c8cb9d1b8caffce799dbcc60"),
    ("sp31-cline", "toledo --root 1", "json"): (0, "683994c64f1a03a24a588535e9f22e17f3a94c17b6ff5fa150ee881e77060844"),
    ("sp31-cline", "toledo --root 1", "text"): (0, "3888ee3bbab2cd91127694eadc5d531a5a91c2d65d9e41ff2cbd3eefc7c764a4"),
    ("octagon", "toledo --standard-module", "json"): (0, "47397098188f71df7736c7cfd55d0a58d5e24f19eb0ece2d9a5d17ddfa7a3ddb"),
    ("octagon", "toledo --standard-module", "text"): (0, "a22b573ab661fb0ed9e587470a52b381409cdbe17ff28792e8607aeef21b3925"),
    ("identity", "toledo --standard-module", "json"): (0, "bd21af4c98809ababb44b5c2a1a5c847f06097371d8383eb5e273815e67abeaa"),
    ("identity", "toledo --standard-module", "text"): (0, "aa2f0bebda2a31069cb0d4f7fa34d1d83fc5fd6e6a6c8dc9e3b8116bd3c3b39b"),
    ("parabolic", "toledo --standard-module", "json"): (0, "19499a8bcc3bcad12563f12c4a73770487c05e292610d9a7572bede0b53ce4a8"),
    ("parabolic", "toledo --standard-module", "text"): (0, "6d2e3fdbb15e73b99e697b2015631a072d83ffd4da53e4164bfbb531594332ee"),
    ("parabolic", "verdict", "json"): (11, "dbe463ec744f2da9f0179c59d1aa6543faaaa861530d37813c1df9cb28137a0f"),
    ("parabolic", "verdict", "text"): (11, "c7b033ed4051bd2857bd07682a5079aada2c34e690cdc4a6c64d731039570ff0"),
}


def _input_generators(name: str):
    """SL(2,R) generator images in the problem-file layout, one [x] per entry."""
    if name == "octagon":
        return [[[[round12(float(g[i, j]))] for j in range(2)] for i in range(2)]
                for g in fuchsian_genus2().images]
    if name == "identity":
        return [[[[1.0], [0.0]], [[0.0], [1.0]]]] * 4
    return [[[[1.0], [t]], [[0.0], [1.0]]] for t in (1.0, 2.0, 3.0, 5.0)]


@pytest.mark.parametrize("source, command, fmt", sorted(GOLDEN_RUNS))
def test_run_report_bytes(tmp_path, capsys, monkeypatch, source, command, fmt):
    monkeypatch.delenv("FLEXCHECK_SEED", raising=False)
    if source in ("octagon", "identity", "parabolic"):
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps({
            "group": {"family": "sl", "params": [2]}, "genus": 2,
            "representation": {"source": "matrices", "field": "R",
                               "generators": _input_generators(source)}}))
        problem = ["--input", str(path)]
    else:
        problem = ["--catalog", source]
    code = main([*command.split(), *problem, "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_RUNS[source, command, fmt]
