"""Pinned emit output and the circuit node invariant.

DIGESTS holds SHA-256 digests of emit(f, fmt) for every CLI emit target in
the three formats; SUBSTITUTED does the same for two substitute_form
results.  The sexpr and latex digests were recorded before the circuit op
table replaced the per-op serializers.  The json digests were recorded
again when circuits became hash-consed and emit began to write one node
list for all the atoms, each distinct subterm once, and again when each
node became an array such as ["add", i, j] instead of an object such as
{"op": "add", "args": [i, j]}; the documents were otherwise the same
bytes.  The two SUBSTITUTED json digests were recorded again when a
Formula stopped storing a degree bound of its own, so those documents lost
their degree_override key.  Every stored circuit
holds exactly the nodes reachable from its root, children before parents,
with the root last, each distinct node once in the left-to-right
first-visit postorder; the check below walks the nodes with its own
reading of the node format.
"""
import hashlib

import pytest

from campana import formulas as fm
from campana.forms import BinaryForm

# (target, n, real, format) -> sha256 of emit(build(n, real), format)
DIGESTS = {
    ('S', None, None, 'json'): '91ce6a581506bea2c63642ec5559153dcf591feba3865be6806a905792efd1f1',
    ('S', None, None, 'sexpr'): '5c2a2ab4d3e70b3c32517a6ac3df1d0b9a6eaa70eb9b0f15b30a3d56d0485d33',
    ('S', None, None, 'latex'): '7e71629f63c3f7e6d56708c7b641ea9237a230308ac09ede7a5e2409922caee8',
    ('T', None, None, 'json'): 'c3f4b068a132b4d9248533289f42cc5d7366d9a0e2721c728a8bd3cdd7ac06fe',
    ('T', None, None, 'sexpr'): '3c6b0f3b5b688280f32230ef8be87f2f05afe340648ed2ede7fe31361c0e6139',
    ('T', None, None, 'latex'): '9cc33a7ee2f473c06dca690d883433edf0679497355883d59242a8f36d01342b',
    ('Tunit', None, None, 'json'): 'e53d722d092a874acb3898380e325814799b3683e3349b508855b884c9be69f1',
    ('Tunit', None, None, 'sexpr'): 'a458e9b0bcbb97c6b0572bb53d372a8e98eec461aedd45b321fd1c46d7d67edf',
    ('Tunit', None, None, 'latex'): 'cd5406f337b6e1703ab7310946b3ce1dc2cde0aa39506c0c22c0fe46bf333ee6',
    ('I', None, None, 'json'): 'c2658a38df8ea923aee1209f88c138607819da1c5ad84406d38cc945a0376ef7',
    ('I', None, None, 'sexpr'): '5aaa2cd70451ab558c359ec97bec2a7c62d3aa886e51a44d042139a8515d398d',
    ('I', None, None, 'latex'): '220059e16f8e1d0ef77992c16cbb609c964b2403b082edaa4b41bdea4f1c099a',
    ('J', None, None, 'json'): 'f5f4077d681bd48c24cb6b29b8c06b60cf0d23546389c9e62af2edd4055bad84',
    ('J', None, None, 'sexpr'): '477da8c6509f03c6ebbb75577164f5f421a8039d42596ce61494443af99eb592',
    ('J', None, None, 'latex'): '8b32de432799476b981308dc9492c123af43114413ffa10a21f9c30588252434',
    ('Jabcd', None, None, 'json'): '658e2d1fa7baf2588c425f918572888e43ddab9f1a83a945e5a45dcf3443c05a',
    ('Jabcd', None, None, 'sexpr'): 'e0f0f49965a843fb05ddf553505407a1ba81c942ef8089f54dcc92d17e0cd201',
    ('Jabcd', None, None, 'latex'): 'ac66cd5551fe6f981d86590e7f3b06172aba0c8d44141f41c2a79dcd876b164d',
    ('invJ', None, None, 'json'): 'f562cb7718c10643602bf843d6e370033592cdd6c4db44ee20da1a30993735a9',
    ('invJ', None, None, 'sexpr'): 'a03c79e182a245945f3a6ac944498174f1bed52c98630b75fbeaeefed52214f8',
    ('invJ', None, None, 'latex'): '8bf706cc310adc9c5c601b0e64029888b2d9e065fbb305c2bf1d67463dcae402',
    ('disjoint', None, None, 'json'): 'dffc0d4f0932e4e0973b756a765737f73476ba931c1715a0b7af702a38dec3a3',
    ('disjoint', None, None, 'sexpr'): 'b77d2ba7f8e221ecc5e63fe10796123fc6929154ed8c8a2ce98800ef4dc721e5',
    ('disjoint', None, None, 'latex'): '9401765d725f488d139b855ab665eac0c1522cb7327b12ba9be708f1183d0050',
    ('premise', None, None, 'json'): 'f5cdd0d0dc9c27474f2be0cae65ff69e2ccdf70d5f913952b13cd0e017a779e6',
    ('premise', None, None, 'sexpr'): '0db0a8bc21d8a87493abd0a56a2f58e3081868040fee26d38f4a51a06b73b3f3',
    ('premise', None, None, 'latex'): 'cb18e78bf327d05f77591cd008380c6019c2f6ff596e8c7e687d6c02b96d50e6',
    ('Jn', 2, None, 'json'): 'c2ca2bac360aebfaeb341fb4638c3f5277b1722f79aefbcfb0eeea31254ead64',
    ('Jn', 2, None, 'sexpr'): '0fe8ab1cfb14f1f43974638d5ee2d82c80462dfafe9f046b1e8d9174e91dd0d7',
    ('Jn', 2, None, 'latex'): 'fe3c859977ecabddb1a8c54729e407cad0d01e30f7994e9fdd910232fac3a2d0',
    ('Jn', 7, None, 'json'): '376b647a6eab1e2559bc4c9581d519ece0e015d0d2f32a77e4dc63a9c93e7320',
    ('Jn', 7, None, 'sexpr'): '8e42b5bed3cd0d5f9b29137ef11b7688cb943bb939356561ab4962fe3716697f',
    ('Jn', 7, None, 'latex'): 'e59ab07f899fdec95f0ffbdb608a5930691df2d1b27441fbfeebfcc9e2ff5271',
    ('Jn', 100, None, 'json'): '59914ca00a147e0ad02f8b87b6e6753639b69c52f4fc1f776a571a9d8672e4b3',
    ('Jn', 100, None, 'sexpr'): '5f9e480a6ce4311dfe3d8de0b345b3e307e93af9de36da0d93429e9c835cd4dd',
    ('Jn', 100, None, 'latex'): '776019e3ea09a13a5d356cf1cd1a1d7e6064e8a06b8587983c30806793349098',
    ('invJn', 2, None, 'json'): 'd8a28151ebeeed23a1148042f28873138e70186215103deedb6570802760ce17',
    ('invJn', 2, None, 'sexpr'): '737522c390e7536f6d2e4c405def7e4062898d3f9bb7bfe30f65d1d0c4dd275d',
    ('invJn', 2, None, 'latex'): 'b3a42c343835b1fd2fc6f8c33ce71a654db304dde9e35004ca7f70696979cfdf',
    ('invJn', 7, None, 'json'): '8f31354f7cfb93ac7ae4ab19aca54c125fb39a1120df530ae149f7dd4b1d682d',
    ('invJn', 7, None, 'sexpr'): '724342ade190247b44483d9a127d3749948c9b45411e7db7f8e3202d56563f6d',
    ('invJn', 7, None, 'latex'): '7e5eedc49f52ce18178640d5119e2e69fcf5fd52f1a83ca51fd86c46654911a8',
    ('invJn', 100, None, 'json'): 'ce7971ca5974895159a4724c07c95e6f8e13395a6463cf7200a5dd47289a1e4a',
    ('invJn', 100, None, 'sexpr'): '73fbafe603d8098e7972010cf1c7284d368540dec5c35c9cc69ff14649b44b2a',
    ('invJn', 100, None, 'latex'): '22dc6b609ad06c63a7875bd3ba94d91cb45b91e130b9e93ed11b164e0ee77b90',
    ('campana', 2, False, 'json'): 'e2c87ad214a62f6bfe8cf148675dd6d054872b56d493b5a01de172e5df3ee5cc',
    ('campana', 2, False, 'sexpr'): 'da0fb2232339d34b2c2ebedf2cba10bcefa5d0587fc22ca971a4b9aeed690b55',
    ('campana', 2, False, 'latex'): '928feeec6b37d24adb8fcf5332574de72fd9e0ecb132ee423f5d23259c03a184',
    ('campana', 2, True, 'json'): 'd48d668293b8e00b01edc9bb342eeb8821941734e54366c50a0acec059420257',
    ('campana', 2, True, 'sexpr'): '3e22282dd4d23562637faf97835dfc31265860e66a9c4f9bb84dbfe1d67400b5',
    ('campana', 2, True, 'latex'): 'f126b0f1d7f5bad5a93b7555bef6636fe6de487649570b8701415354789c181b',
    ('campana', 7, False, 'json'): '5b5cb4b45fa4308f0bf4f4868e846137634e682242a4e6be8c5cb2fd575d0e02',
    ('campana', 7, False, 'sexpr'): '4272d28530ec5a25242cc7203e7b882b54fae34933b5ee78df39c08860050b58',
    ('campana', 7, False, 'latex'): '2dc7a068fff92b7af16faa16a60be0224c854e7501066b48ae03f0b417caa66d',
    ('campana', 7, True, 'json'): 'c514e08b20b46184bca9ef79600960cff341e634c062b75b0430df8a4f5f9d89',
    ('campana', 7, True, 'sexpr'): '45d9dedcf3c46aafc2677337feb5caaee4d1ac293c9daa0b7f8d6f854fd07d0c',
    ('campana', 7, True, 'latex'): 'b20e7a055d52bdd8e2846c8216228cb6600354aa2885b3e0343fc378a8f6b092',
    ('campana', 100, False, 'json'): '579fd85a952bdf6f9ecd8085257b391ac5e93bfb0d2b228357690850e13a2cc4',
    ('campana', 100, False, 'sexpr'): '5f2f0763c5193e2cb0fdef8b9c957feb6b6d381bdb6cf27ae9a36da19b430f1a',
    ('campana', 100, False, 'latex'): 'b84dc0549fe6a906dfa356803cb68e8870d856586a1035f6ad299c2c89eea205',
    ('campana', 100, True, 'json'): '243146ed6db8b3575a54315625675258847634275f3fd04f1fe618b3ada378ff',
    ('campana', 100, True, 'sexpr'): '0bd0bf09b4ce79f98ffe61208b1b6c2d63fa6e17630e62c39927f10b551945dd',
    ('campana', 100, True, 'latex'): '70b83a2b551cc391f9767c8f366b7586deec999d4cc0eaeb10c2e8fb4ff7d20a',
    ('integrality', None, False, 'json'): '0e2c75675e19e5f4048f2d706fc978b56eb9e459099a30415ba81392ccd8dd02',
    ('integrality', None, False, 'sexpr'): '0fe9e33c786c41678ab9242de41ecf94ee70076f31798ff20c629fe65d278306',
    ('integrality', None, False, 'latex'): '2e0efb9f653aca65cc04a4c23ae8a54b9f1d5db1cc37e2f8ef14a81aa8e6cc9f',
    ('integrality', None, True, 'json'): '4a975c2efee81ed21560c7531c273da5cd7081ccc27260f1ab072718d196b7ac',
    ('integrality', None, True, 'sexpr'): '6f233e3781a29eec0bb2b833d46db69ecfd70e592e22a164c39adf95f16c5a0c',
    ('integrality', None, True, 'latex'): 'edbbab720efcb71af5edf0ed190087be885d02b3aebb1ab866ed00550083e64d',
}

F = BinaryForm({(2, 0): 1, (1, 1): -3, (0, 2): 5})

# (base target, format) -> sha256 of emit(substitute_form(base, F), format)
SUBSTITUTED = {
    ('S', 'json'): '1bed0a46dafafd0e246422168a32b7b0e3924a3f2bd96d6f10fb17b81201f111',
    ('S', 'sexpr'): 'ccd6852a87c285a4862ad7588e22abfe16de905ded79f9d6b0c7b33d0606fbeb',
    ('S', 'latex'): '2e8ae25095c41f1c5109eb6e989f8be1e65c14aaa087bc2e7d37bdd5678be621',
    ('campana', 'json'): 'dac5d3e7f2e97f355e146fcb4ce4cc4e002bd8935f6da4a944a175a19a4214f8',
    ('campana', 'sexpr'): 'e7cb53d91ea31c3ac5cdc3a78615476381d8efeee97ecbbb35be01c458b8ec18',
    ('campana', 'latex'): '0e949ebcdddd803024daedd00f11cba1e85136c481ae4e0a6c7899c3e987fb4d',
}

CASES = sorted({key[:3] for key in DIGESTS}, key=repr)


def _substituted(target):
    base = fm.build_S() if target == "S" else fm.build_campana(2)
    return fm.substitute_form(base, F)


def test_every_target_is_pinned():
    assert sorted({target for target, _, _ in CASES}) == sorted(fm.TARGETS)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_emit_bytes_are_pinned(case):
    target, n, real = case
    f = fm.TARGETS[target].build(n, real)
    for fmt in ("json", "sexpr", "latex"):
        assert hashlib.sha256(fm.emit(f, fmt)).hexdigest() == DIGESTS[case + (fmt,)]


@pytest.mark.parametrize("target", ["S", "campana"])
def test_substituted_emit_bytes_are_pinned(target):
    g = _substituted(target)
    for fmt in ("json", "sexpr", "latex"):
        assert hashlib.sha256(fm.emit(g, fmt)).hexdigest() == SUBSTITUTED[target, fmt]


def _children(nd):
    if nd[0] in ("var", "int"):
        return ()
    if nd[0] == "norm":
        return nd[1]
    if nd[0] in ("neg", "pow"):
        return (nd[1],)
    return (nd[1], nd[2])


def _assert_compact(circ):
    """Each node is reachable and distinct, and the nodes come in the
    left-to-right first-visit postorder from the root."""
    nodes = circ.nodes
    root = len(nodes) - 1
    assert len(set(nodes)) == len(nodes)
    order, seen = [], {root}
    stack = [(root, iter(_children(nodes[root])))]
    while stack:
        i, kids = stack[-1]
        for j in kids:
            assert 0 <= j < i
            if j not in seen:
                seen.add(j)
                stack.append((j, iter(_children(nodes[j]))))
                break
        else:
            stack.pop()
            order.append(i)
    assert order == list(range(len(nodes)))


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_every_stored_node_is_reachable(case):
    target, n, real = case
    f = fm.TARGETS[target].build(n, real)
    for g in (f, fm.parse(fm.emit(f, "json"))):
        for atom in g.atoms():
            _assert_compact(atom)


@pytest.mark.parametrize("target", ["S", "campana"])
def test_substitution_stores_only_reachable_nodes(target):
    g = _substituted(target)
    for h in (g, fm.parse(fm.emit(g, "json"))):
        for atom in h.atoms():
            _assert_compact(atom)
    # atoms without r keep their nodes; those with r share one replacement
    premise = fm.substitute_form(fm.build_premise(), F)
    for atom, before in zip(premise.atoms(), fm.build_premise().atoms()):
        _assert_compact(atom)
        if "r" not in before.free_vars():
            assert atom.nodes == before.nodes
