"""Property-based tests: the cross-process shard codec.

:mod:`repro.blockchain.codec` is the only serialization the
process-parallel shard engine uses — commands, completions, summaries
and every protocol object cross the worker pipe through it.  Its
contract, pinned here over Hypothesis-generated inputs:

* ``decode(encode(x)) == x`` for the whole closed value set (including
  arbitrary-precision ints — written as length-prefixed byte strings,
  minimal and unique — exact IEEE-754 doubles, nested containers with
  list/tuple distinction preserved);
* digest preservation — a decoded :class:`Proposal` / :class:`Transaction`
  / :class:`Block` re-derives exactly the digest of the original, so
  signatures made on one side of the pipe verify on the other;
* every wire message round-trips, including the bit-packed
  :class:`VoteMsg` and the swap 2PC command frames the bridge ships;
* anything outside the closed set, and any malformed frame — nested
  past the depth limit included — raises :class:`CodecError` rather
  than falling back to pickle or exhausting the stack;
* equal certificate bytes, and through ``decode_shared`` equal vote,
  sync-hash and block-delivery bytes, decode to one shared object per
  process, from a bounded memo that ``reset_crypto_caches()`` empties.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.block import Block, BlockHeader, make_block, make_genesis_block
from repro.blockchain import codec, crypto
from repro.blockchain.codec import (
    CodecError,
    _write_varint,
    decode,
    decode_envelope,
    decode_shared,
    encode,
)
from repro.blockchain.crypto import PublicKey, crypto_cache_sizes, reset_crypto_caches
from repro.blockchain.identity import Certificate, CertificateAuthority
from repro.blockchain.messages import (
    DeliverBlock,
    QueryTxStatus,
    RequestBlocks,
    SubmitTx,
    SyncHashMsg,
    TxStatusReply,
    VoteMsg,
)
from repro.blockchain.transaction import Proposal, Transaction, TxResult

# ---------------------------------------------------------------------
# strategies

# 512-bit RSA moduli and signatures are the codec's headline int case;
# go a bit past that and deep into the negatives.
big_ints = st.integers(min_value=-(2**600), max_value=2**600)
doubles = st.floats(allow_nan=False, width=64)
short_text = st.text(max_size=24)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    big_ints,
    doubles,
    short_text,
    st.binary(max_size=24),
)

#: What may appear in Proposal args/keys: the chain digests proposals
#: with a canonical-JSON hash, which (deliberately) rejects bytes.
json_scalars = st.one_of(st.none(), st.booleans(), big_ints, doubles, short_text)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(short_text, children, max_size=4),
    ),
    max_leaves=20,
)

proposals = st.builds(
    Proposal,
    tx_id=short_text,
    contract=short_text,
    function=short_text,
    args=st.lists(json_scalars, max_size=4).map(tuple),
    nonce=short_text,
    creator=short_text,
    timestamp=doubles,
    touched_keys=st.lists(short_text, max_size=3).map(tuple),
)

certificates = st.builds(
    Certificate,
    subject=short_text,
    public_key=st.builds(
        PublicKey,
        n=st.integers(min_value=1, max_value=2**512),
        e=st.integers(min_value=3, max_value=2**17),
    ),
    issuer=short_text,
    serial=st.integers(min_value=0, max_value=2**32),
    signature=st.integers(min_value=0, max_value=2**512),
)

transactions = st.builds(
    Transaction,
    proposal=proposals,
    certificate=certificates,
    signature=st.integers(min_value=0, max_value=2**512),
)

tx_results = st.builds(
    TxResult,
    tx_id=short_text,
    code=short_text,
    block=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    votes_for=st.integers(min_value=0, max_value=64),
    votes_against=st.integers(min_value=0, max_value=64),
    detail=short_text,
)

#: The five 2PC steps the SwapCoordinator drives through the bridge.
SWAP_FUNCTIONS = (
    "swap_prepare_out", "swap_prepare_in",
    "swap_commit_out", "swap_commit_in", "swap_abort",
)

swap_payloads = st.fixed_dictionaries(
    {
        "cb": st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
        "prefix": st.just("swapcoord"),
        "poll_ms": st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        "contract": st.just("shardasset"),
        "function": st.sampled_from(SWAP_FUNCTIONS),
        "args": st.lists(st.one_of(short_text, big_ints), max_size=4).map(tuple),
        "keys": st.lists(short_text, max_size=3).map(tuple),
    }
)


def roundtrip(obj):
    return decode(encode(obj))


# ---------------------------------------------------------------------
# values

@given(values)
@settings(max_examples=300)
def test_value_roundtrip_identity(value):
    out = roundtrip(value)
    assert out == value
    # == treats 1 and True, and -0.0 and 0.0, as equal; the codec must
    # be stricter than that to keep placements bit-identical.
    assert type(out) is type(value)


@given(doubles)
def test_float_roundtrip_is_bit_exact(x):
    out = roundtrip(x)
    assert math.copysign(1.0, out) == math.copysign(1.0, x)
    assert out == x


@given(big_ints)
def test_int_roundtrip_arbitrary_precision(n):
    assert roundtrip(n) == n


#: Where a byte-string integer changes length or sign handling:
#: 0, ±1, ±(2^k − 1) and ±2^k, up to eight times an RSA-512 operand.
edge_ints = st.builds(
    lambda k, offset, sign: sign * ((1 << k) - offset),
    st.integers(min_value=0, max_value=4096),
    st.sampled_from([0, 1]),
    st.sampled_from([1, -1]),
)


@given(edge_ints)
@settings(max_examples=500)
def test_int_roundtrip_at_byte_and_power_of_two_edges(n):
    data = encode(n)
    out = decode(data)
    assert out == n and type(out) is int
    # tag, byte count, then exactly the bytes of the zigzag-folded value
    folded = n << 1 if n >= 0 else (-n << 1) - 1
    n_bytes = (folded.bit_length() + 7) // 8
    count = bytearray()
    _write_varint(count, n_bytes)
    assert data == b"\x03" + bytes(count) + folded.to_bytes(n_bytes, "little")


def test_int_with_a_padding_byte_is_rejected():
    assert decode(b"\x03\x01\x02") == 1
    with pytest.raises(CodecError):
        decode(b"\x03\x02\x02\x00")
    with pytest.raises(CodecError):
        decode(b"\x03\x01\x00")  # zero is the empty byte string


@given(st.lists(scalars, max_size=4))
def test_list_and_tuple_stay_distinct(items):
    assert roundtrip(items) == items
    assert roundtrip(tuple(items)) == tuple(items)
    assert isinstance(roundtrip(items), list)
    assert isinstance(roundtrip(tuple(items)), tuple)


# ---------------------------------------------------------------------
# protocol objects + digest preservation

@given(proposals)
@settings(max_examples=100)
def test_proposal_roundtrip_preserves_digest(proposal):
    out = roundtrip(proposal)
    assert out == proposal
    assert out.digest(fresh=True) == proposal.digest(fresh=True)


@given(transactions)
@settings(max_examples=100)
def test_transaction_roundtrip_preserves_digest(tx):
    out = roundtrip(tx)
    assert out == tx
    assert out.digest(fresh=True) == tx.digest(fresh=True)
    assert out.certificate.public_key.n == tx.certificate.public_key.n


@given(tx_results)
def test_tx_result_roundtrip(res):
    assert roundtrip(res) == res


def test_signature_survives_the_wire():
    """A signature made on one side of the pipe verifies on the other."""
    ca = CertificateAuthority(seed=7)
    identity = ca.enroll("wire-player")
    proposal = Proposal(
        tx_id="t0", contract="shardasset", function="swap_prepare_out",
        args=("a0001", "g00001", 100), nonce="n0", creator="wire-player",
        timestamp=12.5, touched_keys=("asset/a0001",),
    )
    tx = Transaction(
        proposal=proposal,
        certificate=identity.certificate,
        signature=identity.sign(proposal.digest()),
    )
    assert roundtrip(tx).verify_signature()


def _sample_block(n_txs: int) -> Block:
    ca = CertificateAuthority(seed=9)
    identity = ca.enroll("blk-player")
    txs = []
    for i in range(n_txs):
        proposal = Proposal(
            tx_id=f"t{i}", contract="c", function="f", args=(i,),
            nonce=f"n{i}", creator="blk-player", timestamp=float(i),
            touched_keys=(f"k{i}",),
        )
        txs.append(
            Transaction(
                proposal=proposal,
                certificate=identity.certificate,
                signature=identity.sign(proposal.digest()),
            )
        )
    genesis = make_genesis_block({"peers": ["p"], "policy": "majority"})
    return make_block(1, genesis.digest(), txs, timestamp=3.25)


@pytest.mark.parametrize("n_txs", [0, 1, 5])
def test_block_roundtrip_preserves_digests(n_txs):
    block = _sample_block(n_txs)
    out = roundtrip(block)
    assert out.digest() == block.digest()
    assert out.data_digest() == block.header.data_hash
    assert [tx.digest() for tx in out.transactions] == [
        tx.digest() for tx in block.transactions
    ]


# ---------------------------------------------------------------------
# wire messages

@given(transactions)
@settings(max_examples=50)
def test_submit_tx_roundtrip(tx):
    assert roundtrip(SubmitTx(tx=tx)) == SubmitTx(tx=tx)


def test_deliver_block_roundtrip():
    msg = DeliverBlock(block=_sample_block(3))
    assert roundtrip(msg).block.digest() == msg.block.digest()


@given(
    st.integers(min_value=0, max_value=10**6),
    short_text,
    st.lists(st.booleans(), max_size=40).map(tuple),
    st.integers(min_value=0, max_value=2**512),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200)
def test_vote_msg_bitpacking_roundtrip(number, voter, votes, sig, is_reply, is_retry):
    msg = VoteMsg(
        block_number=number, voter=voter, votes=votes,
        signature=sig, is_reply=is_reply, is_retry=is_retry,
    )
    assert roundtrip(msg) == msg


@given(
    st.integers(min_value=0, max_value=10**6), short_text, short_text,
    st.booleans(), st.booleans(),
)
def test_sync_hash_roundtrip(number, sender, state_hash, is_reply, is_retry):
    msg = SyncHashMsg(
        block_number=number, sender=sender,
        state_hash=state_hash, is_reply=is_reply, is_retry=is_retry,
    )
    assert roundtrip(msg) == msg


@pytest.mark.parametrize("msg", [
    VoteMsg(block_number=1, voter="p", votes=(True,), is_retry=True),
    SyncHashMsg(block_number=1, sender="p", state_hash="h", is_reply=True),
])
def test_attestation_flag_byte_rejects_unknown_bits(msg):
    """``is_reply`` / ``is_retry`` share the frame's last byte; a set
    bit beyond them is a corrupt frame, not a truthy flag."""
    frame = bytearray(encode(msg))
    assert frame[-1] in (1, 2)
    frame[-1] |= 4
    with pytest.raises(CodecError):
        decode(bytes(frame))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_request_blocks_roundtrip(a, b):
    assert roundtrip(RequestBlocks(from_number=a, to_number=b)) == RequestBlocks(
        from_number=a, to_number=b
    )


@given(short_text)
def test_query_tx_status_roundtrip(tx_id):
    assert roundtrip(QueryTxStatus(tx_id=tx_id)) == QueryTxStatus(tx_id=tx_id)


@given(short_text, short_text, st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)))
def test_tx_status_reply_roundtrip(tx_id, code, block):
    msg = TxStatusReply(tx_id=tx_id, code=code, block=block)
    assert roundtrip(msg) == msg


# ---------------------------------------------------------------------
# swap 2PC command frames (what the bridge actually ships)

@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=10**9, allow_nan=False),
    st.integers(min_value=0, max_value=7),
    swap_payloads,
)
@settings(max_examples=100)
def test_swap_command_frame_roundtrip(seq, effect_time, shard, payload):
    frame = ("epoch", effect_time + 5.0, {shard: [(seq, effect_time, "invoke", payload)]})
    out = roundtrip(frame)
    assert out == frame
    # the command tuple and its payload dict survive structurally
    assert out[2][shard][0][3]["function"] in SWAP_FUNCTIONS


# ---------------------------------------------------------------------
# closed set + malformed frames

@pytest.mark.parametrize("bad", [set(), object(), 3 + 4j, bytearray(b"x")])
def test_types_outside_the_closed_set_are_rejected(bad):
    with pytest.raises(CodecError):
        encode({"k": bad})


def test_trailing_bytes_rejected():
    with pytest.raises(CodecError):
        decode(encode(1) + b"\x00")


def test_truncated_frame_rejected():
    data = encode(("hello", 12345, [1.5, None]))
    for cut in range(1, len(data)):
        with pytest.raises(CodecError):
            decode(data[:cut])


def test_unknown_tag_rejected():
    with pytest.raises(CodecError):
        decode(b"\x7f")


def test_string_that_is_not_utf8_rejected():
    with pytest.raises(CodecError):
        decode(b"\x05\x02\xff\xfe")


#: ``(head, tail)`` of one nesting level around ``None``: a one-item
#: list, tuple or dict, a ``TxResult`` / ``TxStatusReply`` whose
#: ``block`` is the next level (empty strings, zero vote counts).
NESTING_LEVELS = {
    "list": (b"\x07\x01", b""),
    "tuple": (b"\x08\x01", b""),
    "dict": (b"\x09\x01\x00", b""),
    "tx_result": (b"\x25\x00\x00", b"\x00\x00\x00"),
    "tx_status_reply": (b"\x36\x00\x00", b""),
}


def _nested(kind, depth):
    head, tail = NESTING_LEVELS[kind]
    return head * depth + b"\x00" + tail * depth


@pytest.mark.parametrize("kind", ["list", "tx_result", "tx_status_reply"])
def test_nesting_bomb_is_a_codec_error_not_a_recursion_error(kind):
    """A few KB of nested one-item lists, or of results each holding the
    next, used to exhaust the stack."""
    with pytest.raises(CodecError, match="nested"):
        decode(_nested(kind, 1000))


@pytest.mark.parametrize("kind", sorted(NESTING_LEVELS))
def test_nesting_limit_counts_every_container_kind(kind):
    depth = codec._MAX_DEPTH
    assert decode(_nested(kind, depth)) is not None
    with pytest.raises(CodecError, match="nested"):
        decode(_nested(kind, depth + 1))


def test_deepest_legal_chain_of_the_costliest_level_decodes():
    """A delivery whose transaction's proposal args is the next delivery
    takes the most Python calls per level; at the limit it still fits
    the interpreter's recursion limit."""
    _ca, cert = _issued_certificate()
    marker = "<next level>"
    proposal = Proposal(
        tx_id="t", contract="c", function="f", args=(marker,), nonce="n",
        creator="p", timestamp=0.0, touched_keys=(),
    )
    header = BlockHeader(number=1, previous_hash="", data_hash="", timestamp=0.0)
    tx = Transaction(proposal=proposal, certificate=cert, signature=1)
    outer = encode(DeliverBlock(block=Block(header=header, transactions=[tx])))
    slot = encode((marker,))
    assert outer.count(slot) == 1
    frame = b"\x00"
    # The innermost block's (empty) code list is one level further in.
    for _ in range(codec._MAX_DEPTH - 1):
        frame = outer.replace(slot, frame)
    assert isinstance(decode(frame), DeliverBlock)
    with pytest.raises(CodecError, match="nested"):
        decode(outer.replace(slot, frame))


def test_unhashable_dict_key_is_a_codec_error():
    with pytest.raises(CodecError, match="unhashable"):
        decode(b"\x09\x01\x07\x00\x00")  # {[]: None}


# ---------------------------------------------------------------------
# the decoded-certificate memo

def _issued_certificate():
    ca = CertificateAuthority(seed=11)
    return ca, ca.enroll("memo-player").certificate


def test_equal_certificate_bytes_decode_to_one_object():
    reset_crypto_caches()
    _ca, cert = _issued_certificate()
    data = encode(cert)
    first = decode(data)
    assert first == cert and first is not cert
    assert decode(data) is first
    assert decode(bytes(bytearray(data))) is first  # equal bytes, not the same buffer
    # ... also from inside a transaction, a block or a frame
    tx = Transaction(proposal=Proposal(
        tx_id="t", contract="c", function="f", args=(), nonce="n",
        creator="memo-player", timestamp=0.0, touched_keys=(),
    ), certificate=cert, signature=5)
    assert decode(encode(("src", "dst", SubmitTx(tx=tx))))[2].tx.certificate is first
    assert crypto_cache_sizes()["decoded"] == 1


def test_one_flipped_certificate_byte_is_another_object_that_fails_verification():
    reset_crypto_caches()
    ca, cert = _issued_certificate()
    data = bytearray(encode(cert))
    genuine = decode(bytes(data))
    assert ca.verify(genuine)
    data[-2] ^= 0xFF  # inside the signature, the certificate's last field
    forged = decode(bytes(data))
    assert forged is not genuine and forged != genuine
    assert forged.signature != cert.signature
    assert not ca.verify(forged)
    assert decode(encode(cert)) is genuine  # the forgery displaced nothing
    assert crypto_cache_sizes()["decoded"] == 2


def test_trailing_bytes_inside_the_certificate_blob_are_rejected():
    reset_crypto_caches()
    _ca, cert = _issued_certificate()
    data = encode(cert)
    blob_len = len(data) - 3  # tag + a two-byte varint for a ~200-byte blob
    header = bytearray(data[:1])
    _write_varint(header, blob_len)
    assert bytes(header) == data[:3]
    padded = bytearray(data[:1])
    _write_varint(padded, blob_len + 1)
    with pytest.raises(CodecError):
        decode(bytes(padded) + data[3:] + b"\x00")
    assert crypto_cache_sizes()["decoded"] == 0  # malformed bytes are not remembered
    # a blob cut short is as malformed as a padded one
    short = bytearray(data[:1])
    _write_varint(short, blob_len - 1)
    with pytest.raises(CodecError):
        decode(bytes(short) + data[3:-1])


def test_certificate_memo_is_bounded_and_reset_empties_it():
    reset_crypto_caches()
    limit = crypto._DECODED_CACHE_MAX
    key = PublicKey(n=2**511 + 1, e=65537)
    for serial in range(limit + 50):
        decode(encode(Certificate(f"s{serial}", key, "ca", serial, serial + 1)))
        assert crypto_cache_sizes()["decoded"] <= limit
    assert crypto_cache_sizes()["decoded"] >= 1
    assert reset_crypto_caches()["decoded"] >= 1
    assert crypto_cache_sizes()["decoded"] == 0


# ---------------------------------------------------------------------
# the realnet receive path: the envelope, and broadcast bodies shared

def test_envelope_is_the_head_of_the_encoded_triple():
    msg = VoteMsg(block_number=4, voter="peer-3", votes=(True, False))
    frame = encode(("peer-3", "peer-7", msg))
    src, dst, start = decode_envelope(frame)
    assert (src, dst) == ("peer-3", "peer-7")
    assert frame[:start] == encode(("peer-3", "peer-7", None))[:-1]
    assert frame[start:] == encode(msg)


@pytest.mark.parametrize("bad", [
    b"",
    encode(["a", "b", 1]),      # a list, not a tuple
    encode(("a", "b")),
    encode(("a", "b", 1, 2)),
    encode((1, "b", 2)),
    encode(("a", 2, 3)),
    encode({"a": "b"}),
    encode(("a", "b", 1))[:4],  # cut inside the first name
])
def test_anything_but_a_two_name_envelope_is_a_codec_error(bad):
    with pytest.raises(CodecError):
        decode_envelope(bad)


_BROADCASTS = {
    "vote": lambda: VoteMsg(
        block_number=4, voter="p1", votes=(True, False, True), signature=2**511 + 3,
    ),
    "sync-hash": lambda: SyncHashMsg(block_number=4, sender="p1", state_hash="ab" * 32),
    "block": lambda: DeliverBlock(block=_sample_block(2)),
}


@pytest.mark.parametrize("kind", sorted(_BROADCASTS))
def test_equal_broadcast_bytes_decode_to_one_object(kind):
    reset_crypto_caches()
    data = encode(_BROADCASTS[kind]())
    first = decode_shared(data)
    assert encode(first) == data  # what decode builds, field for field
    assert decode_shared(bytes(bytearray(data))) is first
    assert decode(data) is not first  # decode itself stays the fresh reference


@pytest.mark.parametrize("obj", [
    {"plain": [1, 2.5]},
    (1, [None]),
    RequestBlocks(from_number=1, to_number=3),
    QueryTxStatus(tx_id="t"),
    TxStatusReply(tx_id="t", code="VALID", block=2),
])
def test_other_payloads_decode_fresh_every_time(obj):
    reset_crypto_caches()
    data = encode(obj)
    first, second = decode_shared(data), decode_shared(data)
    assert first == second == obj
    assert first is not second
    assert crypto_cache_sizes()["decoded"] == 0


def test_submitted_transactions_decode_fresh_around_a_shared_certificate():
    reset_crypto_caches()
    tx = _sample_block(1).transactions[0]
    data = encode(SubmitTx(tx=tx))
    first, second = decode_shared(data), decode_shared(data)
    assert first == second and first.tx is not second.tx
    assert first.tx.certificate is second.tx.certificate
    assert crypto_cache_sizes()["decoded"] == 1  # the certificate only


def test_malformed_vote_body_raises_every_time_and_is_never_stored():
    reset_crypto_caches()
    bad = bytearray(encode(VoteMsg(block_number=1, voter="p", votes=(True,))))
    bad[-1] |= 4  # an unknown attestation flag
    for _ in range(3):
        with pytest.raises(CodecError):
            decode_shared(bytes(bad))
    assert crypto_cache_sizes()["decoded"] == 0


def test_shared_memo_is_bounded_and_reset_empties_it():
    reset_crypto_caches()
    limit = crypto._DECODED_CACHE_MAX
    for number in range(limit + 50):
        decode_shared(encode(SyncHashMsg(block_number=number, sender="p", state_hash="h")))
        assert crypto_cache_sizes()["decoded"] <= limit
    # cleared when full, at the limit-th insert: 50 entries since
    assert reset_crypto_caches()["decoded"] == 50
    assert crypto_cache_sizes()["decoded"] == 0
