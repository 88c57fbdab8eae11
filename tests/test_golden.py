"""Byte guard: sha256 of stdout and the exit code of every catalog report.

``GOLDEN`` covers the 12 computable catalog cases x 5 subcommands x
json/text, run in-process through ``cli.main``.  ``GOLDEN_RUNS`` adds
single-root Toledo reports and reports on matrix input files: the
octagon's Fuchsian representation, the identity and a unipotent
(parabolic) representation into SL(2,R).  A change that moves any report
byte must update the table and say which reports moved and why.

All hashes were re-pinned when the seed was removed: each report's new
bytes are the old ones less the JSON provenance line ``"seed": 0,`` or
the text header's ``, seed 0``, and no exit code moved.
The ``balanced`` hashes were re-pinned when that report took the common
header: each one's new bytes are the old ones plus the JSON line
``"genus": 2,`` after ``"group"``, or the text header reads ``(genus 2)``
where it read ``(genus ?)``; no exit code moved.
"""

import hashlib
import json

import pytest

from flexcheck.cli import main, round12
from flexcheck.surface import fuchsian_genus2

GOLDEN = {
    ("so31-rplane", "decompose", "json"): (0, "cc6e5fca993078e5826bee33de760e1df7c1791a5d4454c580f1d41f544e2769"),
    ("so31-rplane", "decompose", "text"): (0, "5114092340c236d128cd1f3f57620bdd68013c4fc8e9a858d3bb8a54af979862"),
    ("so31-rplane", "cohomology", "json"): (0, "eaf18d625eaa3de2008637f0417b04b10386a7d4bbcea860a531eeb65cce2d9a"),
    ("so31-rplane", "cohomology", "text"): (0, "1976e08a99ae0c3d07f8bd0d878955d54561a2c7bb9073d2fb9ea10d10d62026"),
    ("so31-rplane", "toledo", "json"): (0, "1b56527bf0c5b4bc23f120c739ebcc4d8f54adee4b0b1692ad6aba801dd69b1e"),
    ("so31-rplane", "toledo", "text"): (0, "4357b0616e955216c3407bf3ec31e8f7394b325721c3ca0c0e3ead38bfc5d808"),
    ("so31-rplane", "balanced", "json"): (0, "52e4b0ef0bb87ca93fa00d597e86a6fa7debd3c29372be03b95396c785e58f5b"),
    ("so31-rplane", "balanced", "text"): (0, "eda9942cadad7d77d089d072f61d4e663313aa77dd56dfa0f581caf7acf71cf3"),
    ("so31-rplane", "verdict", "json"): (0, "eb6a1850d347e8bc0201d4f70d02ff40f86ed1466e0de0cffa0d09d32d6a481e"),
    ("so31-rplane", "verdict", "text"): (0, "fb92277d9e845c85018b2a2c7067bd393a1ee461086a317ecade4226fa6067af"),
    ("so41-rplane", "decompose", "json"): (0, "9a595ba86396b6520183bfc872f4c1adc66e4ccf71ad43b6e9911c6039293b53"),
    ("so41-rplane", "decompose", "text"): (0, "8707f58cf42a214ac951998c5811f7fe82b89b05a7c71b1aef03e4eb7b94a694"),
    ("so41-rplane", "cohomology", "json"): (0, "4d948799a1fb3bb33b77e7a28606ffedb7734fa703b23af6b82f402f1ce90e47"),
    ("so41-rplane", "cohomology", "text"): (0, "27a53f55096c0883e84a40520c5f7741f3998ff23148802c03f9291f28fee291"),
    ("so41-rplane", "toledo", "json"): (0, "694433f0a71cec9c1320cce1a9a0416c87ae0a15f774544267d7a5468cc2d291"),
    ("so41-rplane", "toledo", "text"): (0, "3b0194eeb55020aa0de8d1d57d3b8ebecdde2c9f41861858a397a0baf4326af7"),
    ("so41-rplane", "balanced", "json"): (0, "5e91a52265e3f245e00a0211d4868f9bfd3ac2f32aa8f8423f1827aaf7049a89"),
    ("so41-rplane", "balanced", "text"): (0, "083d92b576973c1a13225c8ed1025f4d471ba13f8ed291d7f199b8a419cefabd"),
    ("so41-rplane", "verdict", "json"): (0, "bc63586f8f2a55c5ff39176bd9dd2c69ec8bf5977f0c2a52cc6b95fcc989f360"),
    ("so41-rplane", "verdict", "text"): (0, "bd2a06968758d145a8a511347a40f8bfff23b9955799b55a7e70b8bac1c309a1"),
    ("su21-rplane", "decompose", "json"): (0, "34306e76d1695b8309ea1ca5e372864ad403cd4de9f6cdd2a4ad47ebf7156060"),
    ("su21-rplane", "decompose", "text"): (0, "339c923e17b5dc2b74ab3268271f535780f628ead9f2e1606886831defcc81eb"),
    ("su21-rplane", "cohomology", "json"): (0, "9b05a12ac26c6bacaa93abbf7c6f4549f02d62e1523ddf3385812376fb60b55c"),
    ("su21-rplane", "cohomology", "text"): (0, "8047ae066700dacfcd9773aa646f894caba8ba822938ce08e34ef99a34ec3733"),
    ("su21-rplane", "toledo", "json"): (0, "bebe367e7f909be116f951ac86bff183349ac3f884df2dafcd64906abc422021"),
    ("su21-rplane", "toledo", "text"): (0, "d76882432fef7a9020022050c109143e4a0075a7ad80a0e69d55dd99ae421fa8"),
    ("su21-rplane", "balanced", "json"): (0, "cd88499bc06fcefbe038d78157f1f5ab4b0b929ba77f66346cf7e00ea36b9ea6"),
    ("su21-rplane", "balanced", "text"): (0, "4ff62c6f0dc2b6d6518d275268d777c6d9022635790ab428ebc91c7cfa61bd4d"),
    ("su21-rplane", "verdict", "json"): (0, "08e3da753c0bc001b0a3b48a82b00425e24acc2cb426ad9e1fa66116c5c8ba7a"),
    ("su21-rplane", "verdict", "text"): (0, "fae395f6af604e8a72d9850fe1a0d89eed4b61e6f65b45f0749ae0f3d62432c7"),
    ("su21-cline", "decompose", "json"): (0, "baa593217ab6ecaab6040c72ef079fb9b2ff37e216c3c64fb5cee8b9cb0c481f"),
    ("su21-cline", "decompose", "text"): (0, "2659b5a253d2723925e7302f2404927fe671304076b4411e38d35d8fa5776e1e"),
    ("su21-cline", "cohomology", "json"): (0, "55a6e5b049ec650248c988c90913f46cb6aeaeef6ba63f9e6d9a0a37fe379ea8"),
    ("su21-cline", "cohomology", "text"): (0, "7b1235c0babc022fb7be0ae4f73e169164f87cd4ff1b343e12a5f15729fbdcd2"),
    ("su21-cline", "toledo", "json"): (0, "14879626fe0c63d89a6ddda1ff4e7c32674779560bbeaa5de4bfa44c427776e5"),
    ("su21-cline", "toledo", "text"): (0, "615038b622c4efb21fd8a9ff7222121760ef306623b6cdac4046f56087213399"),
    ("su21-cline", "balanced", "json"): (0, "8dcc9fa35667bc8f2faf21cf4c38a209ff4a624f81a771e0e2cb2990ed312448"),
    ("su21-cline", "balanced", "text"): (0, "337d1e621639b62ce6038fcc5488e17e50d4dc13e5ca297268c95184f0876d0a"),
    ("su21-cline", "verdict", "json"): (10, "4ed691a97be70ef06c21ec60dab17934638c7684dc0b0d8011bd3a59aa370462"),
    ("su21-cline", "verdict", "text"): (10, "554bf90adc6f831fc7faace80fcfd92447b75f83ad4875d8fdc6d96e2fd15a62"),
    ("su31-rplane", "decompose", "json"): (0, "7d7995ef5a76542e085bc97c5455d840688955d541b69b7afd8a2a975f742720"),
    ("su31-rplane", "decompose", "text"): (0, "22df9c95102eb3fd6e0afe81682622fb09728e26bf350c501eac2d0cc4396c0c"),
    ("su31-rplane", "cohomology", "json"): (0, "fa1f42d4157e91342d00096b6a33fe6ad34e9f845f5159eca18cf1249cf81048"),
    ("su31-rplane", "cohomology", "text"): (0, "2b3c9a0a635f7dee0fab35dcaa12b298a328e38d597ac1ed77a9ec7ac5dc16a4"),
    ("su31-rplane", "toledo", "json"): (0, "180eeed59da11df7ea0df0053afff196397f9bdaad13a23a5574da943e22b752"),
    ("su31-rplane", "toledo", "text"): (0, "28135761ee807f99e89322e9a46607be2ccf70b1b68842f0c9ede6712cb0c71f"),
    ("su31-rplane", "balanced", "json"): (0, "c297332b3294dea51ebc569a6cc9439c844c42a55a998c07f8a4bfa17962c17a"),
    ("su31-rplane", "balanced", "text"): (0, "7fdbb8116b2769d1ba91486e95e4ee3aae3be7a5973969b669308af61a4494f2"),
    ("su31-rplane", "verdict", "json"): (0, "a21fced1e4de7de24f6f395c80fcdeddba65eef75169bffab51a908ed85e923b"),
    ("su31-rplane", "verdict", "text"): (0, "4cec6d5fccfb1296d2bf0f5d069c8b33aa3633d4aa9af73234e43bc85dc508a3"),
    ("su31-cline", "decompose", "json"): (0, "9a8467eec53aa050ff823ddf57b7d8b910e047679fb071051d29a1bfe5e9e854"),
    ("su31-cline", "decompose", "text"): (0, "57d2b94f5359d462fe8340e4a18bf237a3b83a729f6e9bc5ffa52b63e892a11f"),
    ("su31-cline", "cohomology", "json"): (0, "b60682c396f07821209a75e8fed187dda8309d6c6d349ef0e65018f9e3c73b9f"),
    ("su31-cline", "cohomology", "text"): (0, "798039ceb14f771b969e3e6156be8df19c2aa60b265edd695dc2bd72cf98e76c"),
    ("su31-cline", "toledo", "json"): (0, "d65c4010480f03e1812f0aa06e820bbf7411fc727c764110bf663eaea6880914"),
    ("su31-cline", "toledo", "text"): (0, "6ee930b16aabd66b1fec0c7a414eb6b1ed4d560388f5c7b05d20f1fae4f416c6"),
    ("su31-cline", "balanced", "json"): (0, "c43c67fc5ae2fe31da25777f10eb3a1fc2f4d1c46f9e36b9e4c55691cb5f9f2d"),
    ("su31-cline", "balanced", "text"): (0, "e8ede38f57caec0257ee5cf62058070e4c48711723420e9d0a445e9248dce65b"),
    ("su31-cline", "verdict", "json"): (10, "d7b7285d4adac5eee4065792d5758f541d040f171c9f42adac34b14a0c62b848"),
    ("su31-cline", "verdict", "text"): (10, "fcdc91c722139f6707d661829dccf0f7143f103194fcba30478a03d28a609d58"),
    ("su41-rplane", "decompose", "json"): (0, "b4a0e8f6681bc16dc9bbf7d28865739f4e599412820c32e5a67ccfce39e8782b"),
    ("su41-rplane", "decompose", "text"): (0, "c91df25644d86b4ae0aa75b054dbc79f9f5e112bf0b18b3879876be7c0d5c600"),
    ("su41-rplane", "cohomology", "json"): (0, "3a5326e191dd3c0ca524b527d8e7ecef2bae4afe1b104b669a8184b1286da972"),
    ("su41-rplane", "cohomology", "text"): (0, "cc8038cf94689562abacbf6f9eeb47f34e428e91e791b2e5e7638e9afadf5c70"),
    ("su41-rplane", "toledo", "json"): (0, "813cbdf3076c95149fa336ab567e8b8e5fe75ee87966b8b8a9cbb66b8b0e9582"),
    ("su41-rplane", "toledo", "text"): (0, "4f9b652c921e1b3092f57cc54bba4a7732fb03d89a9512c92ef43ba18370d363"),
    ("su41-rplane", "balanced", "json"): (0, "b4243fae2d6d2cd71f0a95a0125b11dbe28768d01cb4f18d4377c476ee55e5c6"),
    ("su41-rplane", "balanced", "text"): (0, "a31a28261f4978b1e0ed2d71d70f4e7a7be73b773b2f126a548fbd28c98b9a4c"),
    ("su41-rplane", "verdict", "json"): (0, "57c3997ec93f2eb21f9c9cc9449b08a270b9578add9bc8e053e6260a49801650"),
    ("su41-rplane", "verdict", "text"): (0, "d448eacecfbec407c0a2cdbce6b05c06e1f379d0a39ffd3f6aa83fb55600f03f"),
    ("su41-cline", "decompose", "json"): (0, "4e4917f0ac7c5fb3fde5945ff7fe286fa4313009336ed90b5bb990ed415cc09b"),
    ("su41-cline", "decompose", "text"): (0, "ea4b2de53d5c1e459a892933705adfece320d5aabed9deb1c64cbcaca638112f"),
    ("su41-cline", "cohomology", "json"): (0, "9f68f28bb4e2ec04da3d3052210942e39e4c4e0764c51fdff05e1b8f73d84d11"),
    ("su41-cline", "cohomology", "text"): (0, "0312c9f707315ac1a35d009632a963893812826364c723258fd957679f328d5a"),
    ("su41-cline", "toledo", "json"): (0, "32015460366163fcc768ad926f86eaf4fed97f2c3fa6a99841c99352785c0a89"),
    ("su41-cline", "toledo", "text"): (0, "9ed683b03e56d204db2bb1c1e7a264c1560df67ee0fd7a6332f8bf2946c1fb79"),
    ("su41-cline", "balanced", "json"): (0, "37af2b0c8323df407b82413899e1b652fd56b021d51418f806d8a2f905c2a700"),
    ("su41-cline", "balanced", "text"): (0, "08542e34cb2906cd4f0c3d07e0e5610ebc101c3dd96864b61b579a8be5df8094"),
    ("su41-cline", "verdict", "json"): (10, "fa519ae0d357d17413c89136d94dbbb9d81576bc09814e2fdc9d65a7cb0b634f"),
    ("su41-cline", "verdict", "text"): (10, "5c774cf8bff174c21d5c6cf9c06e7619c3bed46ee8733dcd3b1adb96ba39db42"),
    ("sp21-rplane", "decompose", "json"): (0, "7727f9fcb94aab35676dbb680c670a007321298a8f14c55d28788a1febc9b91a"),
    ("sp21-rplane", "decompose", "text"): (0, "41cff30835329780c1ae49d3429ccf97cf71c30897684e1b555ab5323fd72d6b"),
    ("sp21-rplane", "cohomology", "json"): (0, "3057c9d9ae92ac92e4917905c3791ffd6ca9db5a97869689d2941ba4d07fc1f4"),
    ("sp21-rplane", "cohomology", "text"): (0, "df7b9009ad47459fd8d70cf85b56e11e51c5f431bca4ebc4f38100a8fef35a79"),
    ("sp21-rplane", "toledo", "json"): (0, "e5f1dbb24ffc28457618264151016d3e2f7d5c44850582b6ee68f1b4a78f8c47"),
    ("sp21-rplane", "toledo", "text"): (0, "6b56fc8a398e18473efb0a4cc2e994a0677bda93f5a0eb221fc4c3f44c9a6db4"),
    ("sp21-rplane", "balanced", "json"): (0, "beba7609fd870488e815f55861a758bf303889eea9a91f199c9b84c93494bc58"),
    ("sp21-rplane", "balanced", "text"): (0, "7763b19215b0ea49cf158becb2429b15421b7f57e975679743b9da4e828cbae1"),
    ("sp21-rplane", "verdict", "json"): (0, "b17d546519a244369b161e83132c5b448e18f40ac38eca831d6cd380e33efa9c"),
    ("sp21-rplane", "verdict", "text"): (0, "56cbadae16354664e41c2b64798db8e82c7c68aefc7071f34a06a335c0a1c560"),
    ("sp21-cline", "decompose", "json"): (0, "9e41c5a3d2dbf4b35f877d951e61e89ba4eb5ec58a8a2a7cec6e0aa5a311f5ca"),
    ("sp21-cline", "decompose", "text"): (0, "20f782b1dd0150e60af8d9515ac56fde0b94d0c279a0c689c12e395e8ef339c7"),
    ("sp21-cline", "cohomology", "json"): (0, "b2874328962a4cd4c541f1c3b993f6e10698f8e88241c49ec82c5ac06254ec0e"),
    ("sp21-cline", "cohomology", "text"): (0, "fde9ad59af5763ff47d7013921f2164aa35fd606e500266fe684cbf8fffc98a4"),
    ("sp21-cline", "toledo", "json"): (0, "a2131af05b57b656ec659a6f64ab139f9612ff01aa37377725d31704735e3574"),
    ("sp21-cline", "toledo", "text"): (0, "9f209f4416028b9a90bc075993f0f68e4a77feb5f43457016ab3df7bdb93afc9"),
    ("sp21-cline", "balanced", "json"): (0, "419586b54c5e97e1ed068a39be8c26ddaaed03eeae2a281c7f6a4da7cc53c1d3"),
    ("sp21-cline", "balanced", "text"): (0, "99f83f833d551fd11bc39d551b6b379cd132b6a6494334a34282f902b028f4be"),
    ("sp21-cline", "verdict", "json"): (0, "758676745593d03184747f9fdf3ff545af90b80af81e19058a5d5165b6edc51f"),
    ("sp21-cline", "verdict", "text"): (0, "5687dc31cf5f2e0232b98822e95a8f172f3cd141ec0ab538b7790ba4f1b1b623"),
    ("sp31-rplane", "decompose", "json"): (0, "aa4fa752b99d32f5068ce0adecb12b2fd6971becba430517cc7ca356da38d988"),
    ("sp31-rplane", "decompose", "text"): (0, "6bbd9f7926ff68ae7a17828f614b80aa0357e651d6d57a90503457c13e48d8e4"),
    ("sp31-rplane", "cohomology", "json"): (0, "518bbfb5434826237d5e46c28b38d80d787508dfcce2e1059842adfa5cc44cf5"),
    ("sp31-rplane", "cohomology", "text"): (0, "8e6cad817f94e3dedab55f8a88b94faf308e14a5ee2a4bf0b5305b2e88af22e9"),
    ("sp31-rplane", "toledo", "json"): (0, "1a96acd009a0a4aa463d0440b61f8d90d72f0b2f1ea7ee2db5e59b0f3082277c"),
    ("sp31-rplane", "toledo", "text"): (0, "86959cde8c34c4cc69ea1b40e8beeb0342889bdf19a0ba227151f849179d8ee8"),
    ("sp31-rplane", "balanced", "json"): (0, "33cfa26899b241524b2ada31f4791bb736f69d5f85d33ee0616223519d3279a5"),
    ("sp31-rplane", "balanced", "text"): (0, "4ea70506838caf1c739781d3e084ffe43c999a9b7218d3a4f62349406a198f88"),
    ("sp31-rplane", "verdict", "json"): (0, "08fd30e1d1723934a2314966826f340bb5523c17a008d2ad3ff865ec7d50c87f"),
    ("sp31-rplane", "verdict", "text"): (0, "d6e8b051af1d4729812415f5576baf8f9426292152afeaad6dc594f3d8bd0648"),
    ("sp31-cline", "decompose", "json"): (0, "77c1460511fbb31e87162f117cbeb34f9693fbd95f6cdaf9145a271773d9a176"),
    ("sp31-cline", "decompose", "text"): (0, "ef754380c356cce54c86fffcc96801bf09012c32de39edc562a1cce09877e734"),
    ("sp31-cline", "cohomology", "json"): (0, "9de2d43c9b6ce69592b662bdaf74cfe0a723ba65b1b6f7632ebd784bb2d54753"),
    ("sp31-cline", "cohomology", "text"): (0, "c4dcb5366029f84c3317e91dd77cf52d03395f46868f84d558aa373c14eb6fa5"),
    ("sp31-cline", "toledo", "json"): (0, "9447fbf42eece9d1f83ec002c4a53bb6d8dc374164bc9734fea4e6e4ed74ec66"),
    ("sp31-cline", "toledo", "text"): (0, "82dc50ab9f616f1db26ca530314263e1afa8079a27168df11381401a2d9c4e21"),
    ("sp31-cline", "balanced", "json"): (0, "ee251f504534db199df6dc071e663242404b3dbc4151e0709fb75f9019267297"),
    ("sp31-cline", "balanced", "text"): (0, "ae84d87d930f9d619e6b2cd07141c38fbfd3bb28430cd91710de4c062da23adb"),
    ("sp31-cline", "verdict", "json"): (0, "7ce5a7fd5c89ad585d0a5fcae30eec697bbdaa8485bcdacdc743d572a95104e4"),
    ("sp31-cline", "verdict", "text"): (0, "f6567ae098fbc1d2f8db5f333cbaf8ec826df22b5f4ec89d31445bdb10b88982"),
}


@pytest.mark.parametrize("case, command, fmt", sorted(GOLDEN))
def test_catalog_report_bytes(capsys, case, command, fmt):
    code = main([command, "--catalog", case, "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case, command, fmt]


# (source, subcommand and options, format): a source is a catalog case or
# the name of a matrix input built by _input_generators
GOLDEN_RUNS = {
    ("sp21-cline", "toledo --root 0", "json"): (0, "066bfdcbd90f65db4b704fedb9ac2424b88494e96fc454437640c7a7f2fdd2af"),
    ("sp21-cline", "toledo --root 0", "text"): (0, "daa0141832dac02731780ff1244ff8ce17514fcb9656284152378b964e39bc55"),
    ("sp21-cline", "toledo --root 1", "json"): (0, "5489d952aa48aa485f387c9b5858d7d37d978e71a05faaefb613f33f3ebb1e5b"),
    ("sp21-cline", "toledo --root 1", "text"): (0, "5859ce45d7e7411aaf58200a0113ab2bef870e164d65a040e567abf6579e79d4"),
    ("sp31-cline", "toledo --root 0", "json"): (0, "3256d87ddce7f4aa998b5b77d4276dea8a6b5283468b1ebd6b276fbe5279b886"),
    ("sp31-cline", "toledo --root 0", "text"): (0, "92ec7c2c27de7804613a8a52685f3c295f6dd74d8540bc1edc8616efa151720e"),
    ("sp31-cline", "toledo --root 1", "json"): (0, "771c19137101afd426583f74efb90aa512f6f811d9fd3120e0f97955bdad7fce"),
    ("sp31-cline", "toledo --root 1", "text"): (0, "7114f6835cec6078367a973b03f2147d6f5c8b39c493748103977ee58ff6733b"),
    ("octagon", "toledo --standard-module", "json"): (0, "ceec1695399b5c01f8001708d3c6f178c330733b52f80439c17a79ef15aff087"),
    ("octagon", "toledo --standard-module", "text"): (0, "c95ce60eab038709d7b92b17175518a477c7f229198a7b3ac10af9fbb2729b3a"),
    ("identity", "toledo --standard-module", "json"): (0, "bd5d208060426366911572098f097e7db6adf7177e5529ed517a4b9fa1768788"),
    ("identity", "toledo --standard-module", "text"): (0, "e4110992f289995da0ce5352c2d6d373d17f9b89a012bccbab158843072fa080"),
    ("parabolic", "toledo --standard-module", "json"): (0, "93c744b0a53262c28f5e337028b4e635a50ed2c7c8efc3aa85df9aed1fc0b38f"),
    ("parabolic", "toledo --standard-module", "text"): (0, "0730e0a51746e45caaaf3e5edbda8e564fa4ffd0ee05df623d14bbe1db037366"),
    ("parabolic", "verdict", "json"): (11, "45fb457f983da679d4cb2ff45e4e075cfa72f491717005c215a0b01788b36145"),
    ("parabolic", "verdict", "text"): (11, "e3f5f858e993bc8a98f1998c570b124a69f8619ea495c92d8c8f2f97a6696313"),
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
def test_run_report_bytes(tmp_path, capsys, source, command, fmt):
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
