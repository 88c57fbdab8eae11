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
The 80 hashes of reports that printed the tolerances' ``gram`` or a
toledo root's status were re-pinned when the Gram left the package:
each one's new bytes are the old ones less the JSON provenance line
``"gram": 1e-06`` and each root's ``"status": "ok"``, each with the
comma before it, or less each text root line's `` (ok)``; no exit code
moved.
"""

import hashlib
import json

import pytest

from flexcheck.cli import main, round12
from flexcheck.surface import fuchsian_genus2

GOLDEN = {
    ("so31-rplane", "decompose", "json"): (0, "0a6c03753ba045cf88bb8337d481ec5dfee3bb565f9b46d630d839006e858b72"),
    ("so31-rplane", "decompose", "text"): (0, "5114092340c236d128cd1f3f57620bdd68013c4fc8e9a858d3bb8a54af979862"),
    ("so31-rplane", "cohomology", "json"): (0, "cd124129951e6653d70bb4ca34a55fc3b9a0154bdb339a70457767909298d0c7"),
    ("so31-rplane", "cohomology", "text"): (0, "1976e08a99ae0c3d07f8bd0d878955d54561a2c7bb9073d2fb9ea10d10d62026"),
    ("so31-rplane", "toledo", "json"): (0, "24c554ee695ee260daa66d77b1b745cad7a15f7d2a5145531e58ede78f87c3df"),
    ("so31-rplane", "toledo", "text"): (0, "4357b0616e955216c3407bf3ec31e8f7394b325721c3ca0c0e3ead38bfc5d808"),
    ("so31-rplane", "balanced", "json"): (0, "d486dc7b0613a2704e1b7f26bc043a71854360d224faef0fe95b01d947e69402"),
    ("so31-rplane", "balanced", "text"): (0, "eda9942cadad7d77d089d072f61d4e663313aa77dd56dfa0f581caf7acf71cf3"),
    ("so31-rplane", "verdict", "json"): (0, "a2916c1563684f8ee38b892e030007991ed3f3821eda3821e179cb043ca7ede4"),
    ("so31-rplane", "verdict", "text"): (0, "fb92277d9e845c85018b2a2c7067bd393a1ee461086a317ecade4226fa6067af"),
    ("so41-rplane", "decompose", "json"): (0, "8065d1fd94b4541d69c3d429fc00a95feda650cb027b880ab2f89fb0e9befbc2"),
    ("so41-rplane", "decompose", "text"): (0, "8707f58cf42a214ac951998c5811f7fe82b89b05a7c71b1aef03e4eb7b94a694"),
    ("so41-rplane", "cohomology", "json"): (0, "95dd208ddc1841395d65d811e3e7ffe7489f58c335888b07c9a690507bee3a40"),
    ("so41-rplane", "cohomology", "text"): (0, "27a53f55096c0883e84a40520c5f7741f3998ff23148802c03f9291f28fee291"),
    ("so41-rplane", "toledo", "json"): (0, "c188eecae9dda2f4c4e5ce799c3d0272fedc795c65f960ed87ad9c37523fb1d1"),
    ("so41-rplane", "toledo", "text"): (0, "1834b2637b291b5da81a01a8feaafb9e00f95e7218514b0eabc04413be4dc761"),
    ("so41-rplane", "balanced", "json"): (0, "dde0bd9c444761372f75148cf98551383821a0d516034d46000c5f9d61d38c91"),
    ("so41-rplane", "balanced", "text"): (0, "083d92b576973c1a13225c8ed1025f4d471ba13f8ed291d7f199b8a419cefabd"),
    ("so41-rplane", "verdict", "json"): (0, "d7b74b0a28921ab3a8144ffd2d11d9d42ee34d634a423ab5728260b96cd2f6b5"),
    ("so41-rplane", "verdict", "text"): (0, "bd2a06968758d145a8a511347a40f8bfff23b9955799b55a7e70b8bac1c309a1"),
    ("su21-rplane", "decompose", "json"): (0, "a739d25acd3af5a74e5fb3e3b0632b106badf6847a0163cacf2cdf4510251edf"),
    ("su21-rplane", "decompose", "text"): (0, "339c923e17b5dc2b74ab3268271f535780f628ead9f2e1606886831defcc81eb"),
    ("su21-rplane", "cohomology", "json"): (0, "8f2dfeffd5dc171469b0acde1975244c2c7a7bd52a09f0a5d0b24f2ff13bbace"),
    ("su21-rplane", "cohomology", "text"): (0, "8047ae066700dacfcd9773aa646f894caba8ba822938ce08e34ef99a34ec3733"),
    ("su21-rplane", "toledo", "json"): (0, "f79a387c80231654c20f865522c5df8be5587a1fb08685c375ca414620b4e860"),
    ("su21-rplane", "toledo", "text"): (0, "d76882432fef7a9020022050c109143e4a0075a7ad80a0e69d55dd99ae421fa8"),
    ("su21-rplane", "balanced", "json"): (0, "173d7322d94c2612e77eff1a7d231ffc952feb50d954ea8b00ecfdf29c87c39a"),
    ("su21-rplane", "balanced", "text"): (0, "4ff62c6f0dc2b6d6518d275268d777c6d9022635790ab428ebc91c7cfa61bd4d"),
    ("su21-rplane", "verdict", "json"): (0, "c0415a8aa17d5e1d7bb7b658ea84fbaef787dfcb02d591d533160b0b6bff9a5b"),
    ("su21-rplane", "verdict", "text"): (0, "fae395f6af604e8a72d9850fe1a0d89eed4b61e6f65b45f0749ae0f3d62432c7"),
    ("su21-cline", "decompose", "json"): (0, "ef40e8737ae3f93b86b70ad0820f8b08e8a04c41d07cb422f0975851aa109138"),
    ("su21-cline", "decompose", "text"): (0, "2659b5a253d2723925e7302f2404927fe671304076b4411e38d35d8fa5776e1e"),
    ("su21-cline", "cohomology", "json"): (0, "b6d8117c49fad4a363bfe27bcd0e3f3cb8c34d678310818b4348592c92fa4d52"),
    ("su21-cline", "cohomology", "text"): (0, "7b1235c0babc022fb7be0ae4f73e169164f87cd4ff1b343e12a5f15729fbdcd2"),
    ("su21-cline", "toledo", "json"): (0, "cec326d310bb9495234073f4b2ab1807707d04a2111b89205216460f2b80a38a"),
    ("su21-cline", "toledo", "text"): (0, "d658b0b3c374584be42ae78032a548d8cc5f96ad3ca5d62d06477a9c032ca8d7"),
    ("su21-cline", "balanced", "json"): (0, "047cd548ffe561aed03c953ed54bd55f879591b6aedfa7acc7b97a26c5814f3a"),
    ("su21-cline", "balanced", "text"): (0, "337d1e621639b62ce6038fcc5488e17e50d4dc13e5ca297268c95184f0876d0a"),
    ("su21-cline", "verdict", "json"): (10, "cdfe3816635e0296635156bdb62ba0e06a7ab584bc556373fe49d84909fee960"),
    ("su21-cline", "verdict", "text"): (10, "554bf90adc6f831fc7faace80fcfd92447b75f83ad4875d8fdc6d96e2fd15a62"),
    ("su31-rplane", "decompose", "json"): (0, "4a48a7532e9c37593f36632d59fbbef480eea7c254aa752feb6f877ef31f3750"),
    ("su31-rplane", "decompose", "text"): (0, "22df9c95102eb3fd6e0afe81682622fb09728e26bf350c501eac2d0cc4396c0c"),
    ("su31-rplane", "cohomology", "json"): (0, "d3b1fddcd8f06ec3fa4b79336362c692c5aadc2144f1c2f9744d7166f2c56a54"),
    ("su31-rplane", "cohomology", "text"): (0, "2b3c9a0a635f7dee0fab35dcaa12b298a328e38d597ac1ed77a9ec7ac5dc16a4"),
    ("su31-rplane", "toledo", "json"): (0, "bdb3d9ac6cc83d6a04e790eaa6c17bb43f94481207738303aa7be386d9163231"),
    ("su31-rplane", "toledo", "text"): (0, "1479c0fddec228e1c98b154dbaefeb3ecaf83a1a7a0d2c286694225f0c65641d"),
    ("su31-rplane", "balanced", "json"): (0, "860b96fc8fdd8d8c5a4125be815b599db557fc631f3d8e342b8e57263d210d6f"),
    ("su31-rplane", "balanced", "text"): (0, "7fdbb8116b2769d1ba91486e95e4ee3aae3be7a5973969b669308af61a4494f2"),
    ("su31-rplane", "verdict", "json"): (0, "82f3812a0a0df1bf168d0d21caea8d825243c4d859a68b35453587b24a6cf217"),
    ("su31-rplane", "verdict", "text"): (0, "4cec6d5fccfb1296d2bf0f5d069c8b33aa3633d4aa9af73234e43bc85dc508a3"),
    ("su31-cline", "decompose", "json"): (0, "faa2706ba29d83a4225d06aa0701c3db120ef4bc097f91606d820af6385300c5"),
    ("su31-cline", "decompose", "text"): (0, "57d2b94f5359d462fe8340e4a18bf237a3b83a729f6e9bc5ffa52b63e892a11f"),
    ("su31-cline", "cohomology", "json"): (0, "c99a5a589e7e1ec2327f534e834533c0f3672df142acbe7eb9d41c0440d7eca5"),
    ("su31-cline", "cohomology", "text"): (0, "798039ceb14f771b969e3e6156be8df19c2aa60b265edd695dc2bd72cf98e76c"),
    ("su31-cline", "toledo", "json"): (0, "e0750181dbb69e2b7da7aabfa4d47a6e9df079dd82ca473966af67c34e12a15b"),
    ("su31-cline", "toledo", "text"): (0, "17934a660d8b91fdff5e16dce2af38e451b246f828029ab7cdda1e2574e72fa9"),
    ("su31-cline", "balanced", "json"): (0, "3c5f1fb234e9644e19359cbda61eefc8bbb6ed4b7e1f4091f7da8ebab604ed18"),
    ("su31-cline", "balanced", "text"): (0, "e8ede38f57caec0257ee5cf62058070e4c48711723420e9d0a445e9248dce65b"),
    ("su31-cline", "verdict", "json"): (10, "ebfbf0ee24d505901e7b70416046b56b40b8b9a5d614f5dae3b82c33ee49bf27"),
    ("su31-cline", "verdict", "text"): (10, "fcdc91c722139f6707d661829dccf0f7143f103194fcba30478a03d28a609d58"),
    ("su41-rplane", "decompose", "json"): (0, "6e5ea205ce61ba564c09d537954485a67d894d793a856b7a5dc6cdafc90af90a"),
    ("su41-rplane", "decompose", "text"): (0, "c91df25644d86b4ae0aa75b054dbc79f9f5e112bf0b18b3879876be7c0d5c600"),
    ("su41-rplane", "cohomology", "json"): (0, "6d84e3b4da5240d688f207ff4c72f53c11fff222f954a2e5945498fdc6221b8f"),
    ("su41-rplane", "cohomology", "text"): (0, "cc8038cf94689562abacbf6f9eeb47f34e428e91e791b2e5e7638e9afadf5c70"),
    ("su41-rplane", "toledo", "json"): (0, "8d83a7b28488d0d05257b915da84f8a2c07a4472a788a2087ccd684d887a325a"),
    ("su41-rplane", "toledo", "text"): (0, "51d4b679ec2adf712778914794a40a8645da62eef4c2598cd5ae9afa11eb49d2"),
    ("su41-rplane", "balanced", "json"): (0, "1226def83a5abe62b66e522f197ba917a07e70e134cf67206f49d31d1f7a24b9"),
    ("su41-rplane", "balanced", "text"): (0, "a31a28261f4978b1e0ed2d71d70f4e7a7be73b773b2f126a548fbd28c98b9a4c"),
    ("su41-rplane", "verdict", "json"): (0, "4277975ed59895ad94051d31b4f275a91aa5333959b746f206b8fa7b5510673a"),
    ("su41-rplane", "verdict", "text"): (0, "d448eacecfbec407c0a2cdbce6b05c06e1f379d0a39ffd3f6aa83fb55600f03f"),
    ("su41-cline", "decompose", "json"): (0, "2527017ebf3a691a4807ad2d862f3324e25d21bc030b601f0d2dc25523aadc4c"),
    ("su41-cline", "decompose", "text"): (0, "ea4b2de53d5c1e459a892933705adfece320d5aabed9deb1c64cbcaca638112f"),
    ("su41-cline", "cohomology", "json"): (0, "e383db972809f842d0581698764f1af03a6b22ab7722069f19734fa72f4182b9"),
    ("su41-cline", "cohomology", "text"): (0, "0312c9f707315ac1a35d009632a963893812826364c723258fd957679f328d5a"),
    ("su41-cline", "toledo", "json"): (0, "06a98b67b71ba1b1d9f4107c0b61c358ded6975f7686f9ce6e4f5facf5dbe7b1"),
    ("su41-cline", "toledo", "text"): (0, "f695059def64c851f46d471f91666f0d3f1fa280a5f80a4fa1a6bd92cf1b0b5c"),
    ("su41-cline", "balanced", "json"): (0, "a735694267e9adcaf8cc69920a16c173486204597d62f39c159bc58e45a08984"),
    ("su41-cline", "balanced", "text"): (0, "08542e34cb2906cd4f0c3d07e0e5610ebc101c3dd96864b61b579a8be5df8094"),
    ("su41-cline", "verdict", "json"): (10, "49c608b7563453a707f66af50256c0590764c182e31d14bea021837928da31c1"),
    ("su41-cline", "verdict", "text"): (10, "5c774cf8bff174c21d5c6cf9c06e7619c3bed46ee8733dcd3b1adb96ba39db42"),
    ("sp21-rplane", "decompose", "json"): (0, "ebc0df0577cca18fc6f0ee6a85e735df74d98a5ca593bba28680c7a0bc9f1e55"),
    ("sp21-rplane", "decompose", "text"): (0, "41cff30835329780c1ae49d3429ccf97cf71c30897684e1b555ab5323fd72d6b"),
    ("sp21-rplane", "cohomology", "json"): (0, "a78ef4e1fe393e13043fc6997b47e2fd07b88dd875c2c470a23ea47b572d513e"),
    ("sp21-rplane", "cohomology", "text"): (0, "df7b9009ad47459fd8d70cf85b56e11e51c5f431bca4ebc4f38100a8fef35a79"),
    ("sp21-rplane", "toledo", "json"): (0, "d530d1a39501617b84d7b111dfa66c83eceb5f2dd98495a4c8626b0cbc01cff3"),
    ("sp21-rplane", "toledo", "text"): (0, "6b56fc8a398e18473efb0a4cc2e994a0677bda93f5a0eb221fc4c3f44c9a6db4"),
    ("sp21-rplane", "balanced", "json"): (0, "8a0d942e977bebedc233c98dd2577d969a951873fd76cdcf9831564357b35d31"),
    ("sp21-rplane", "balanced", "text"): (0, "7763b19215b0ea49cf158becb2429b15421b7f57e975679743b9da4e828cbae1"),
    ("sp21-rplane", "verdict", "json"): (0, "46b4edc548d8936aaedf72ade6f69a2d3065bfa401218ae65931cca7a8db3252"),
    ("sp21-rplane", "verdict", "text"): (0, "56cbadae16354664e41c2b64798db8e82c7c68aefc7071f34a06a335c0a1c560"),
    ("sp21-cline", "decompose", "json"): (0, "4ee6f279ceb65f2933299a770b16700482e15ea3a04c39be484a614d5fb964cf"),
    ("sp21-cline", "decompose", "text"): (0, "20f782b1dd0150e60af8d9515ac56fde0b94d0c279a0c689c12e395e8ef339c7"),
    ("sp21-cline", "cohomology", "json"): (0, "3e12b79b482ea8aea3e4e72827bf0203c84ceef7d2a00ae64fab31f7725d9da4"),
    ("sp21-cline", "cohomology", "text"): (0, "fde9ad59af5763ff47d7013921f2164aa35fd606e500266fe684cbf8fffc98a4"),
    ("sp21-cline", "toledo", "json"): (0, "c7e6c9252d5f04b1ee2d8df0ed01595bc80699627167af79d2309091984e7ce0"),
    ("sp21-cline", "toledo", "text"): (0, "d5641d0a3a1c50e9c42c6123b3d1f1d463c43c3ee3c4e7f598e90907d5cbcf29"),
    ("sp21-cline", "balanced", "json"): (0, "42eb8246e6d096d5a9218cd26fa3d1e2d0ad5ef0d842bdd93f04c5ee7fd0610e"),
    ("sp21-cline", "balanced", "text"): (0, "99f83f833d551fd11bc39d551b6b379cd132b6a6494334a34282f902b028f4be"),
    ("sp21-cline", "verdict", "json"): (0, "e934630f3b96f6449f9ef71227c505e08314f8ac99aba17e98c2d3cfa5bc4b8e"),
    ("sp21-cline", "verdict", "text"): (0, "5687dc31cf5f2e0232b98822e95a8f172f3cd141ec0ab538b7790ba4f1b1b623"),
    ("sp31-rplane", "decompose", "json"): (0, "cd948b0a701bd154dab86bdc657b0373de310562b5e46504ea94ec5faac3e87d"),
    ("sp31-rplane", "decompose", "text"): (0, "6bbd9f7926ff68ae7a17828f614b80aa0357e651d6d57a90503457c13e48d8e4"),
    ("sp31-rplane", "cohomology", "json"): (0, "18959487f19e32fe1bab7b3dfaf3ded331eb1f84b8177583717da70d39e97d02"),
    ("sp31-rplane", "cohomology", "text"): (0, "8e6cad817f94e3dedab55f8a88b94faf308e14a5ee2a4bf0b5305b2e88af22e9"),
    ("sp31-rplane", "toledo", "json"): (0, "02999ed80c329292766aba0f516473dea129c0df46abc4bd0610e20d20085b05"),
    ("sp31-rplane", "toledo", "text"): (0, "86959cde8c34c4cc69ea1b40e8beeb0342889bdf19a0ba227151f849179d8ee8"),
    ("sp31-rplane", "balanced", "json"): (0, "6bc9c1b55b7760107435d40bd28280aac018e81cbf3687e1b4f56b4275acb331"),
    ("sp31-rplane", "balanced", "text"): (0, "4ea70506838caf1c739781d3e084ffe43c999a9b7218d3a4f62349406a198f88"),
    ("sp31-rplane", "verdict", "json"): (0, "ccaba9ce8b9717367f1746a13dc3817a647df90f16e9f744dcaca854b5c9e21f"),
    ("sp31-rplane", "verdict", "text"): (0, "d6e8b051af1d4729812415f5576baf8f9426292152afeaad6dc594f3d8bd0648"),
    ("sp31-cline", "decompose", "json"): (0, "c61e67412dfc89e2a56ee8636fb13e30225196c3988f3c7f7b6bd66caef612b1"),
    ("sp31-cline", "decompose", "text"): (0, "ef754380c356cce54c86fffcc96801bf09012c32de39edc562a1cce09877e734"),
    ("sp31-cline", "cohomology", "json"): (0, "985e5f3f477f3e6536544436ebf5daa61056d494bed29f99383b15cf241bc82d"),
    ("sp31-cline", "cohomology", "text"): (0, "c4dcb5366029f84c3317e91dd77cf52d03395f46868f84d558aa373c14eb6fa5"),
    ("sp31-cline", "toledo", "json"): (0, "0fd8ac869008dd5a3a6db5851cf7451294eea16e1729844582ab237f78c8531c"),
    ("sp31-cline", "toledo", "text"): (0, "df8e892daab7bd7d86bce5816ff4c273895129a40eec85c1e4623372293a4506"),
    ("sp31-cline", "balanced", "json"): (0, "77b51df873f2d5e02b6d6f88f7c452ff8becf842b8c1b20b4cec99e5c7f19f0c"),
    ("sp31-cline", "balanced", "text"): (0, "ae84d87d930f9d619e6b2cd07141c38fbfd3bb28430cd91710de4c062da23adb"),
    ("sp31-cline", "verdict", "json"): (0, "a23f7af37d19aa8fd2ae4e4585dc3cc25beafbb9a6316773dec41623606f279b"),
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
    ("sp21-cline", "toledo --root 0", "json"): (0, "b2c446dafaf33628c91245a6cb464f3a5f636b677887162c51532348183411b1"),
    ("sp21-cline", "toledo --root 0", "text"): (0, "b2a7d7b0b5d32727d88fc78ed0d41822fc23182afe5b3b1696e40c894a8a8978"),
    ("sp21-cline", "toledo --root 1", "json"): (0, "112df9d8852a183d5c1d6c803a3feaf1183c370e68259e15d0cba2bad6014206"),
    ("sp21-cline", "toledo --root 1", "text"): (0, "15b4b136a712e124a5d84dbb1653e29a1577b4ef380b6b098385a194e024425f"),
    ("sp31-cline", "toledo --root 0", "json"): (0, "71fa6497c664c453a36f1f92f08553d03f66d61c198fdb740acc1d05da57c20b"),
    ("sp31-cline", "toledo --root 0", "text"): (0, "21a95d84a956407af41d7fe5652541ac1616b86f475e3dc209804c15d8cc1dff"),
    ("sp31-cline", "toledo --root 1", "json"): (0, "03577c2d078255103818ffa4c78a0515e6865e907a2d9c09d447908884d9badd"),
    ("sp31-cline", "toledo --root 1", "text"): (0, "7a628a7b6f09f0f6b7b86c02ad3c40cb93b3a89708e827a3ff76d6f7d0fe5345"),
    ("octagon", "toledo --standard-module", "json"): (0, "50205ce64784abe2bd1e94c244c6af6e6713156bd2cc1b74cf80833f82daa8de"),
    ("octagon", "toledo --standard-module", "text"): (0, "c95ce60eab038709d7b92b17175518a477c7f229198a7b3ac10af9fbb2729b3a"),
    ("identity", "toledo --standard-module", "json"): (0, "0e21b3bea476a8b8aead221d75bbf7fd07434c0ed1aee557452069ead72753da"),
    ("identity", "toledo --standard-module", "text"): (0, "e4110992f289995da0ce5352c2d6d373d17f9b89a012bccbab158843072fa080"),
    ("parabolic", "toledo --standard-module", "json"): (0, "3bf4cd9bbeb9cc8498e00b199426b1da848ad5eb33e44e24d1c403e27a5cb88a"),
    ("parabolic", "toledo --standard-module", "text"): (0, "0730e0a51746e45caaaf3e5edbda8e564fa4ffd0ee05df623d14bbe1db037366"),
    ("parabolic", "verdict", "json"): (11, "303791bc3e02afa1ecb63180f6bd4d00615a9b31a932f155e566807532627b3d"),
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
