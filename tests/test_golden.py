"""Golden outputs: sha256 of every CLI output format at N = 6 and 30,
and of the list, render and graph outputs of Gamma_0/Gamma_1 at N = 64.

The N = 6 and 30 digests were taken before the P^1 table, the cusp-table
rows and the renderers were refactored, the N = 64 ones before words,
cosets and the generator graph moved to plain-int arithmetic; any change
of a byte in these outputs fails.  The --y-max digests were taken
before `render_svg` moved to plain floats.  No vertex lies above
sqrt(3)/2, so the default y_max of 2.2 clips nothing; y_max 0.9 and 1.0
move only the canvas and the ends of the edges up to infinity, and
y_max 0.5 and 0.6 clip the vertical edges and the labels too.
"""

import hashlib

import pytest

from fundom.cli import main

GOLDEN = {
    "list --N 6 --group gamma0 --format json":
        "aafc4fa2b2c02fbb679ec0a804be527ea44f63cff64792a3507f94bc1dd6b79f",
    "list --N 6 --group gamma0 --format text":
        "5497b91f2f3b4d7b925bcaac8805e33b949728b511eb33c2e81a3ac7d1db59c3",
    "render --N 6 --group gamma0 --format svg":
        "4b591f20ee3077503e74a9e762c05d7e2479da176c19455d24921cebf66f002c",
    "render --N 6 --group gamma0 --format json":
        "47a19c04c96f557aca50053a60353a27abd141f134b72de69ffff957525167f3",
    "graph --N 6 --group gamma0":
        "064a14b4442b422232a1e684f31412408d4d6b4bbf87a883862edf98faa2435f",
    "list --N 6 --group gamma1 --format json":
        "d6cefa7cb14a079087d0a9d9b1fdb2bb8b075932981b0c81af69fd4db33338df",
    "list --N 6 --group gamma1 --format text":
        "5497b91f2f3b4d7b925bcaac8805e33b949728b511eb33c2e81a3ac7d1db59c3",
    "render --N 6 --group gamma1 --format svg":
        "4b591f20ee3077503e74a9e762c05d7e2479da176c19455d24921cebf66f002c",
    "render --N 6 --group gamma1 --format json":
        "ee26d70ecff4f3752fa08c9e1eeac9425d0914c5bea2052338100a0e0baf86d0",
    "graph --N 6 --group gamma1":
        "064a14b4442b422232a1e684f31412408d4d6b4bbf87a883862edf98faa2435f",
    "list --N 6 --group gammaN --format json":
        "daeb0ad4d35aa4c300faebcc53e04c517bb07c1ed30d16a0e51244f0d68ddc70",
    "list --N 6 --group gammaN --format text":
        "88b29c9e21aa9c780fc30f871be4653d9b807f36c857e364b43e0a088704c58f",
    "render --N 6 --group gammaN --format svg":
        "aa704cd153b179b9800e5f6a63b15aaf5f4fafcf1caa6691b24f08ff860a52c2",
    "render --N 6 --group gammaN --format json":
        "fccdbb60aa32d8284eb72d8b4b764ab936cb731a0f591e70a2876ec9fd75e178",
    "graph --N 6 --group gammaN":
        "c8d0367703114fa39296e7ca8c6ceb2192cbd0e56aae2b99d4e187ba6f6c692f",
    "cusps --N 6 --format text":
        "7deca25ee1276afcab43181461896bb99b0870e348bec0ecb169679d3602fe5f",
    "cusps --N 6 --format csv":
        "9d3e9758ca5d89b4aea1f492e0437e3569039bff690d40999281b0c57b06f3b5",
    "mtable --N 6 --format text":
        "ad5e991859c420098561945bedd7c629a5e41b2b9a29a88daf141f55848a44b7",
    "mtable --N 6 --format csv":
        "52bc4fccd2d7913e5d68f21509fbcecc47cd3695389c3d229769e743b55d1155",
    "mtable --N 6 --format json":
        "308431b5fe039e9a029d4a6f644f95ec4f1c06028a113b66eb3a0ca3926a2695",
    "render --N 6 --labels":
        "7949754b73b2439e48ed430a874e2b12c9e7f0395097437cab3cc36149757292",
    "render --N 6 --no-verify":
        "3421ebaf5a8d9e7ce60ec9be23ea9f3a35d46c97c0c2a9d243d9d8ca10869125",
    "render --N 6 --no-verify --format json":
        "47a19c04c96f557aca50053a60353a27abd141f134b72de69ffff957525167f3",
    "graph --N 6 --tree-only":
        "7a4a604bb1c643cdc63bdd7268e717b115a844f88a349a2d35a953f074d066c7",
    "list --N 30 --group gamma0 --format json":
        "3a52b6e60e9b726566ed5d4aa4cbe73416f77497d2c3e9ebb29ebccd89c424c4",
    "list --N 30 --group gamma0 --format text":
        "0e61467d6cadf2cf91b1d9597a029516b7504a28a80a2a68d9a610935a09548f",
    "render --N 30 --group gamma0 --format svg":
        "b6089fefb418113c009c826133974cd031dcc88a6a4e822a054c64c11fae4375",
    "render --N 30 --group gamma0 --format json":
        "01cace34a0be8c2645cf9732c2d3536ef64ae78c883d26ec38158f7022bf3304",
    "graph --N 30 --group gamma0":
        "2989b53b8c31243b58e10f2d0980ac2c4c79cd5d9a296baa6af67e94532246e9",
    "list --N 30 --group gamma1 --format json":
        "2668a22cd528abe717deb6ee66012ad8bcd5e63f9f2ec9a602b07b6d133e30c1",
    "list --N 30 --group gamma1 --format text":
        "b9fc9d1b2789b303bce7226a78f741de26719588d2be993582ec1f6f1297ec0a",
    "render --N 30 --group gamma1 --format svg":
        "3e0bf6c7afd8ed5e7931a0758636e02c2a59dc006068b96ecc618aa538133981",
    "render --N 30 --group gamma1 --format json":
        "9093ea10695736d675181937c1227b12d2c8d30ce92f4018f2a3b6a12737cfc8",
    "graph --N 30 --group gamma1":
        "ad0c9d6ead5ccb84d0a83acbae53be2035a43da5ad6f02be78617b15783ef6f6",
    "list --N 30 --group gammaN --format json":
        "e0a90595ac52219be1f024d3843c93d4c11197cb57b303aed956aacdf974995a",
    "list --N 30 --group gammaN --format text":
        "d7438f873d09770c92d123d52709926cb9a90de621e1ffc8ecfbf8c625bf0eb3",
    "render --N 30 --group gammaN --format svg":
        "59d3fd4b7ca5bf483a87482d19893f7ffafcdf76237b2e4364900852eef2b5ff",
    "render --N 30 --group gammaN --format json":
        "4297099bc3f1221ea159cf25abcbc795f02012358c4f53c2cc93f965cb759f4d",
    "graph --N 30 --group gammaN":
        "5b0c5dcb6677fc7ca6c2153e172e41bf50e2188391f8883c599ae545e3af9bf2",
    "cusps --N 30 --format text":
        "e55e284ffdd13ce786d4d834028b41e859014b9dfbb47a137e7292b9b41ea97d",
    "cusps --N 30 --format csv":
        "02477ff8eae2e7d768b5e525bd2696bd111ed75ba634370da1ea27019688f8a6",
    "mtable --N 30 --format text":
        "bc0a8d564da950523a0dcee6dc9886546778ab54adde8473735370d3d7e71263",
    "mtable --N 30 --format csv":
        "3300389fa0bb1270808d25bcca01f0ae9f4ac8f8f87b00a1130474c0b376a9e3",
    "mtable --N 30 --format json":
        "6a945ea9ce3a2d2bea57ad42b4cabb57183687162a2301b47223fdee564fba2f",
    "render --N 30 --labels":
        "7b2a7fe799d7c75eb103e63fff1f0e978a6548e869630177de64951132ae5ecd",
    "render --N 30 --no-verify":
        "dfe34e82985f144843d02cd0f6cd0130bfe1a3a2a04d9f80523509a270641880",
    "render --N 30 --no-verify --format json":
        "01cace34a0be8c2645cf9732c2d3536ef64ae78c883d26ec38158f7022bf3304",
    "graph --N 30 --tree-only":
        "050368a62234044f20ea81d2e557b2fd909bf62cc78cfdf4dfffc869f8866d82",
    "list --N 64 --group gamma0 --format json":
        "e91684972d8743fee10023d452c8481c881c7db99c163f8e2c2e5f01179c5ad4",
    "render --N 64 --group gamma0 --format svg":
        "0598670c8983bfd08617498707397a4828a336ed245353da826b806f7f04d219",
    "render --N 64 --group gamma0 --format json":
        "775bbba89683719be9d8dd6e7d118175f25ffc786cfb68605f7ac28f47c1a02c",
    "graph --N 64 --group gamma0":
        "26b60dfc6f8c32610d11d8538dbe4aeddf290fb90c15b496f24c57111e44f753",
    "list --N 64 --group gamma1 --format json":
        "25d9ea9c8c21a2f1d9a0c638b4602513fb98cbb98bd4a1e7ad448573cc89d0b3",
    "render --N 64 --group gamma1 --format svg":
        "cb1ed1ce582cd20904082b99de26a495443f8eaa2a3ae5faba8150ee286664a2",
    "render --N 64 --group gamma1 --format json":
        "f4759a08d37bbb798aa87b41dcd91e96f088712171f3ca4e518da131a1d137bf",
    "graph --N 64 --group gamma1":
        "c35c079991b70c3f4b02798b810aa39ba423ea126574292b4b208a40579fba58",
    "render --N 30 --y-max 0.6":
        "3de1dfc93cbd750a7c65b799e1c92ef1a5b5c3bd6b7a02a424b2b3e92e060987",
    "render --N 64 --group gamma1 --y-max 0.9":
        "4a6f2e798d845cc67bfc69c5b7a94a30cb0767fe9a8d0291729be6ce9be3c089",
    "render --N 12 --group gammaN --y-max 1.0 --labels":
        "829efd29bc353eb98c1a59d2d9a742cc81b81cd963acfbe29dfcc706f77a4704",
    "render --N 64 --group gamma1 --y-max 0.5":
        "cbf4c203e3fbebca88337a312187968c3f373751a437464033385c74f75b73dd",
    "render --N 12 --group gammaN --y-max 0.5 --labels":
        "ca739ba5f8abd71876770220c2976963a9c4489055570d677b4ec9dcfcc5fbba",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
